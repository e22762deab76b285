//! The decision maker (§3.2.4 and §5).
//!
//! The GA returns a Pareto *set*; a production scheduler must start exactly
//! one job combination. The paper's rule:
//!
//! 1. Start from the solution with maximum node utilization; among ties,
//!    prefer the one selecting jobs at the front of the window (preserving
//!    the base scheduler's order).
//! 2. Replace it with another Pareto solution if that solution's summed
//!    improvement on the non-node objectives exceeds `factor ×` the loss of
//!    node utilization — `factor = 2` for the CPU+BB problem, `factor = 4`
//!    for the §5 four-objective problem. Among several qualifying
//!    solutions, pick the one with the maximum improvement.
//!
//! All comparisons happen on *normalized* utilizations (each objective
//! divided by its [`crate::problem::KnapsackMooProblem::normalizers`]
//! entry) so that nodes, GB of burst buffer, and GB of SSD are
//! commensurable.

use crate::pareto::{ParetoFront, Solution};
use crate::MAX_OBJECTIVES;

/// Parameters of the trade-off rule, generalized to N resources.
///
/// The improvement test weighs each non-node objective's normalized gain by
/// a per-resource weight before summing: `Σ w_k·Δf_k > factor × Δf_1`. The
/// paper's two rules are the unit-weight presets [`DecisionRule::cpu_bb`]
/// (`factor = 2`) and [`DecisionRule::multi_resource`] (`factor = 4`);
/// non-unit weights let a site value, say, SSD waste reduction differently
/// from burst-buffer gains without touching the solver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecisionRule {
    /// How much summed non-node improvement is required per unit of node
    /// utilization given up.
    tradeoff_factor: f64,
    /// Per-objective gain weights (index 0 — node utilization — is unused).
    gain_weights: [f64; MAX_OBJECTIVES],
}

impl DecisionRule {
    /// A rule with the given trade-off factor and unit gain weights.
    pub fn with_factor(tradeoff_factor: f64) -> Self {
        Self { tradeoff_factor, gain_weights: [1.0; MAX_OBJECTIVES] }
    }

    /// Overrides the per-objective gain weights (builder style). `weights`
    /// is indexed by objective; entry 0 is ignored (node loss is scaled by
    /// the factor, not a weight). Missing trailing entries stay 1.
    ///
    /// # Panics
    /// Panics if more than [`MAX_OBJECTIVES`] weights are given.
    pub fn with_gain_weights(mut self, weights: &[f64]) -> Self {
        assert!(weights.len() <= MAX_OBJECTIVES, "at most {MAX_OBJECTIVES} weights");
        self.gain_weights[..weights.len()].copy_from_slice(weights);
        self
    }

    /// §3.2.4 rule for the CPU + burst-buffer problem: "the improvement on
    /// the burst buffer utilization is more than 2x of the loss of the node
    /// utilization".
    pub fn cpu_bb() -> Self {
        Self::with_factor(2.0)
    }

    /// §5 rule for the four-objective problem: "the sum of the improvement
    /// in burst buffer utilization, local SSD utilization, and percentage of
    /// reduction in wasted local SSD ... is more than 4x of the loss of the
    /// node utilization".
    pub fn multi_resource() -> Self {
        Self::with_factor(4.0)
    }

    /// The configured trade-off factor.
    pub fn tradeoff_factor(&self) -> f64 {
        self.tradeoff_factor
    }

    /// The gain weight applied to objective `k`.
    pub fn gain_weight(&self, k: usize) -> f64 {
        self.gain_weights[k]
    }
}

impl Default for DecisionRule {
    fn default() -> Self {
        Self::cpu_bb()
    }
}

/// Selects the preferred solution from a Pareto front.
///
/// `normalizers` must match the front's objective dimensionality; the first
/// objective is node utilization, the remaining objectives are summed for
/// the improvement test. Returns `None` only for an empty front.
pub fn choose_preferred<'a>(
    front: &'a ParetoFront,
    normalizers: &[f64],
    rule: DecisionRule,
) -> Option<&'a Solution> {
    let solutions = front.solutions();
    let first = solutions.first()?;
    let dim = first.objectives.len();
    assert_eq!(normalizers.len(), dim, "normalizer dimension must match objective dimension");

    // Step 1: max node utilization, front-of-window tie-break.
    let mut preferred = first;
    for s in &solutions[1..] {
        let cmp = s.objectives[0]
            .partial_cmp(&preferred.objectives[0])
            .unwrap_or(std::cmp::Ordering::Equal);
        match cmp {
            std::cmp::Ordering::Greater => preferred = s,
            std::cmp::Ordering::Equal => {
                if s.chromosome.front_preference(&preferred.chromosome) == std::cmp::Ordering::Less
                {
                    preferred = s;
                }
            }
            std::cmp::Ordering::Less => {}
        }
    }

    // Step 2: trade node utilization for larger gains elsewhere.
    let norm = |v: f64, k: usize| v / normalizers[k].max(f64::MIN_POSITIVE);
    let mut best_improvement = 0.0f64;
    let mut replacement: Option<&Solution> = None;
    for s in solutions {
        if std::ptr::eq(s, preferred) {
            continue;
        }
        let loss = norm(preferred.objectives[0], 0) - norm(s.objectives[0], 0);
        if loss < 0.0 {
            continue; // cannot happen: preferred has max f1; defensive.
        }
        let improvement: f64 = (1..dim)
            .map(|k| {
                rule.gain_weights[k] * (norm(s.objectives[k], k) - norm(preferred.objectives[k], k))
            })
            .sum();
        if improvement > rule.tradeoff_factor * loss && improvement > best_improvement {
            best_improvement = improvement;
            replacement = Some(s);
        }
    }

    Some(replacement.unwrap_or(preferred))
}

/// Alternative decision maker (beyond the paper): the **knee point** of
/// the normalized front — the solution farthest (perpendicular) from the
/// line between the per-objective extreme points. Knees are where giving
/// up a little of one objective buys a lot of the other; site managers who
/// do not want to tune a trade-off factor can use this parameter-free
/// rule. Two-objective fronts only.
///
/// Returns `None` for an empty front. For fronts of one or two points the
/// max-node solution is returned (no interior to have a knee in).
pub fn choose_knee<'a>(front: &'a ParetoFront, normalizers: &[f64]) -> Option<&'a Solution> {
    let solutions = front.solutions();
    let first = solutions.first()?;
    assert_eq!(first.objectives.len(), 2, "choose_knee supports 2 objectives");
    assert_eq!(normalizers.len(), 2);
    let norm = |s: &Solution| {
        [
            s.objectives[0] / normalizers[0].max(f64::MIN_POSITIVE),
            s.objectives[1] / normalizers[1].max(f64::MIN_POSITIVE),
        ]
    };
    // Extremes: max f1 and max f2.
    let hi_node = solutions.iter().max_by(|a, b| {
        a.objectives[0].partial_cmp(&b.objectives[0]).unwrap_or(std::cmp::Ordering::Equal)
    })?;
    let hi_bb = solutions.iter().max_by(|a, b| {
        a.objectives[1].partial_cmp(&b.objectives[1]).unwrap_or(std::cmp::Ordering::Equal)
    })?;
    let (a, b) = (norm(hi_node), norm(hi_bb));
    let line = [b[0] - a[0], b[1] - a[1]];
    let len = (line[0] * line[0] + line[1] * line[1]).sqrt();
    if len < 1e-12 {
        return Some(hi_node);
    }
    solutions
        .iter()
        .max_by(|x, y| {
            let dist = |s: &Solution| {
                let p = norm(s);
                // Perpendicular distance from p to the line through a, b.
                ((p[0] - a[0]) * line[1] - (p[1] - a[1]) * line[0]).abs() / len
            };
            dist(x)
                .partial_cmp(&dist(y))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| y.chromosome.front_preference(&x.chromosome))
        })
        .or(Some(hi_node))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chromosome::Chromosome;
    use crate::pareto::Solution;
    use crate::Objectives;

    fn sol(bits: &[bool], objs: &[f64]) -> Solution {
        Solution {
            chromosome: Chromosome::from_bits(bits),
            objectives: Objectives::from_slice(objs),
        }
    }

    /// Table 1 scenario: (100 nodes, 20 TB) vs (80 nodes, 90 TB) on a
    /// 100-node / 100-TB system. Loss = 0.2 of nodes; gain = 0.7 of BB;
    /// 0.7 > 2 x 0.2, so the decision maker must pick Solution 3.
    #[test]
    fn table1_picks_high_bb_tradeoff() {
        let mut front = ParetoFront::new();
        front.insert(sol(&[true, false, false, false, true], &[100.0, 20_000.0]));
        front.insert(sol(&[false, true, true, true, true], &[80.0, 90_000.0]));
        let chosen = choose_preferred(&front, &[100.0, 100_000.0], DecisionRule::cpu_bb()).unwrap();
        assert_eq!(chosen.objectives.as_slice(), &[80.0, 90_000.0]);
    }

    #[test]
    fn keeps_max_node_solution_when_gain_too_small() {
        let mut front = ParetoFront::new();
        front.insert(sol(&[true, false], &[100.0, 20_000.0]));
        // Gain 0.3 of BB for 0.2 of nodes: 0.3 < 2 x 0.2 -> keep preferred.
        front.insert(sol(&[false, true], &[80.0, 50_000.0]));
        let chosen = choose_preferred(&front, &[100.0, 100_000.0], DecisionRule::cpu_bb()).unwrap();
        assert_eq!(chosen.objectives.as_slice(), &[100.0, 20_000.0]);
    }

    #[test]
    fn picks_max_improvement_among_qualifiers() {
        let mut front = ParetoFront::new();
        front.insert(sol(&[true, false, false], &[100.0, 0.0]));
        front.insert(sol(&[false, true, false], &[90.0, 60_000.0]));
        front.insert(sol(&[false, false, true], &[80.0, 95_000.0]));
        let chosen = choose_preferred(&front, &[100.0, 100_000.0], DecisionRule::cpu_bb()).unwrap();
        // Improvements: 0.6 vs 0.95; both qualify; max wins.
        assert_eq!(chosen.objectives.as_slice(), &[80.0, 95_000.0]);
    }

    #[test]
    fn tie_break_prefers_front_of_window() {
        let mut front = ParetoFront::new();
        // Insert the rear-heavy solution first: same objectives would dedup,
        // so give them distinct BB values with equal nodes.
        front.insert(sol(&[false, false, true], &[50.0, 10.0]));
        front.insert(sol(&[true, false, false], &[50.0, 9.0]));
        let chosen = choose_preferred(&front, &[100.0, 100.0], DecisionRule::cpu_bb()).unwrap();
        // Max node util ties at 50; front-of-window selection preferred.
        // Then the rule may still replace it: gain (10-9)/100 = 0.01 > 2*0 loss!
        // Loss is zero and improvement positive, so the higher-BB solution
        // wins the trade-off step — which is correct: same nodes, more BB.
        assert_eq!(chosen.objectives.as_slice(), &[50.0, 10.0]);
    }

    #[test]
    fn four_objective_rule_sums_non_node_axes() {
        let mut front = ParetoFront::new();
        // preferred: max nodes.
        front.insert(sol(&[true, false], &[100.0, 0.0, 0.0, -50.0]));
        // alternative: loses 0.1 nodes, gains 0.2 bb + 0.15 ssd + 0.1 waste
        // = 0.45 > 4 x 0.1 = 0.4 -> replace.
        front.insert(sol(&[false, true], &[90.0, 20.0, 15.0, -40.0]));
        let norm = [100.0, 100.0, 100.0, 100.0];
        let chosen = choose_preferred(&front, &norm, DecisionRule::multi_resource()).unwrap();
        assert_eq!(chosen.objectives[0], 90.0);
    }

    #[test]
    fn four_objective_rule_rejects_insufficient_sum() {
        let mut front = ParetoFront::new();
        front.insert(sol(&[true, false], &[100.0, 0.0, 0.0, -50.0]));
        // Sum of gains 0.35 < 4 x 0.1.
        front.insert(sol(&[false, true], &[90.0, 10.0, 15.0, -40.0]));
        let norm = [100.0, 100.0, 100.0, 100.0];
        let chosen = choose_preferred(&front, &norm, DecisionRule::multi_resource()).unwrap();
        assert_eq!(chosen.objectives[0], 100.0);
    }

    #[test]
    fn gain_weights_scale_the_improvement_test() {
        let mut front = ParetoFront::new();
        front.insert(sol(&[true, false, false, false, true], &[100.0, 20_000.0]));
        front.insert(sol(&[false, true, true, true, true], &[80.0, 90_000.0]));
        let norm = [100.0, 100_000.0];
        // Unit weights: gain 0.7 > 2 x 0.2 -> replace (Table 1 behaviour).
        let rule = DecisionRule::cpu_bb();
        assert_eq!(rule.tradeoff_factor(), 2.0);
        assert_eq!(rule.gain_weight(1), 1.0);
        let chosen = choose_preferred(&front, &norm, rule).unwrap();
        assert_eq!(chosen.objectives[0], 80.0);
        // Halving the BB gain weight: 0.35 < 2 x 0.2 -> keep max nodes.
        let rule = DecisionRule::cpu_bb().with_gain_weights(&[1.0, 0.5]);
        let chosen = choose_preferred(&front, &norm, rule).unwrap();
        assert_eq!(chosen.objectives[0], 100.0);
    }

    #[test]
    fn empty_front_returns_none() {
        let front = ParetoFront::new();
        assert!(choose_preferred(&front, &[1.0, 1.0], DecisionRule::cpu_bb()).is_none());
        assert!(choose_knee(&front, &[1.0, 1.0]).is_none());
    }

    #[test]
    fn knee_finds_the_bulge() {
        let mut front = ParetoFront::new();
        // A convex front: (100, 0), (90, 80), (0, 100). The middle point
        // bulges far beyond the extreme-to-extreme line.
        front.insert(sol(&[true, false, false], &[100.0, 0.0]));
        front.insert(sol(&[false, true, false], &[90.0, 80.0]));
        front.insert(sol(&[false, false, true], &[0.0, 100.0]));
        let knee = choose_knee(&front, &[100.0, 100.0]).unwrap();
        assert_eq!(knee.objectives.as_slice(), &[90.0, 80.0]);
    }

    #[test]
    fn knee_degenerate_fronts() {
        let mut front = ParetoFront::new();
        front.insert(sol(&[true], &[10.0, 5.0]));
        let knee = choose_knee(&front, &[10.0, 10.0]).unwrap();
        assert_eq!(knee.objectives.as_slice(), &[10.0, 5.0]);
    }

    #[test]
    fn singleton_front_returns_it() {
        let mut front = ParetoFront::new();
        front.insert(sol(&[true], &[10.0, 10.0]));
        let chosen = choose_preferred(&front, &[10.0, 10.0], DecisionRule::cpu_bb()).unwrap();
        assert_eq!(chosen.objectives.as_slice(), &[10.0, 10.0]);
    }
}
