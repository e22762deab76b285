//! BBSched: the paper's contribution as a selection policy.
//!
//! Per invocation: formulate the window as a MOO problem (§3.2.1 / §5),
//! solve it with the multi-objective GA (§3.2.2), and pick one solution
//! from the Pareto set with the trade-off decision rule (§3.2.4): 2× for
//! CPU + burst buffer, 4× for the four-objective SSD problem.

use crate::{build_problem, GaParams, SelectionPolicy};
use bbsched_core::decision::{choose_preferred, DecisionRule};
use bbsched_core::pools::PoolState;
use bbsched_core::problem::{JobDemand, KnapsackMooProblem};
use bbsched_core::{MooGa, ParetoFront, SolveMode};

/// The BBSched multi-objective policy.
#[derive(Clone, Debug)]
pub struct BbschedPolicy {
    ga: GaParams,
    /// Optional override of the decision rule's trade-off factor
    /// (defaults: 2× bi-objective, 4× beyond).
    tradeoff_override: Option<f64>,
    /// Optional per-objective gain weights for the decision rule (entry 0,
    /// the node objective, is ignored by the rule).
    gain_weights: Option<Vec<f64>>,
}

impl BbschedPolicy {
    /// Creates BBSched with the given GA hyper-parameters.
    pub fn new(ga: GaParams) -> Self {
        Self { ga, tradeoff_override: None, gain_weights: None }
    }

    /// Overrides the decision rule's trade-off factor (ablation knob).
    pub fn with_tradeoff_factor(mut self, factor: f64) -> Self {
        self.tradeoff_override = Some(factor);
        self
    }

    /// Weights the non-node objectives in the decision rule's improvement
    /// sum (defaults to 1.0 each — the paper's unweighted gains).
    pub fn with_gain_weights(mut self, weights: Vec<f64>) -> Self {
        self.gain_weights = Some(weights);
        self
    }

    /// The decision rule for a problem with `n_obj` objectives: the
    /// paper's 2× rule for the bi-objective problem (§3.2.4), its 4× rule
    /// beyond (§5), with any configured overrides applied.
    fn rule_for(&self, n_obj: usize) -> DecisionRule {
        let mut rule = match self.tradeoff_override {
            Some(f) => DecisionRule::with_factor(f),
            None if n_obj > 2 => DecisionRule::multi_resource(),
            None => DecisionRule::cpu_bb(),
        };
        if let Some(w) = &self.gain_weights {
            rule = rule.with_gain_weights(w);
        }
        rule
    }

    /// Runs one invocation and returns the full Pareto front alongside the
    /// chosen selection — the "multiple solutions ... for decision making"
    /// that distinguish BBSched. Useful for tooling and the examples.
    pub fn solve_with_front(
        &self,
        window: &[JobDemand],
        avail: &PoolState,
        invocation: u64,
    ) -> (ParetoFront, Vec<usize>) {
        if window.is_empty() {
            return (ParetoFront::new(), Vec::new());
        }
        let cfg = self.ga.config(SolveMode::Pareto, invocation);
        // Trade-offs are judged on system-relative utilizations (the
        // paper's "improvement on the burst buffer utilization" is a
        // machine-level percentage); build_problem normalizes by totals.
        let problem = build_problem(window, avail);
        let rule = self.rule_for(problem.normalizers().len());
        self.decide(&problem, cfg, rule)
    }

    fn decide(
        &self,
        problem: &KnapsackMooProblem,
        cfg: bbsched_core::GaConfig,
        rule: DecisionRule,
    ) -> (ParetoFront, Vec<usize>) {
        let front = MooGa::new(cfg).solve(problem);
        let chosen = choose_preferred(&front, problem.normalizers().as_slice(), rule)
            .map(|s| s.chromosome.selected().collect())
            .unwrap_or_default();
        (front, chosen)
    }
}

impl SelectionPolicy for BbschedPolicy {
    fn name(&self) -> &str {
        "BBSched"
    }

    fn select(&mut self, window: &[JobDemand], avail: &PoolState, invocation: u64) -> Vec<usize> {
        self.solve_with_front(window, avail, invocation).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection_is_feasible;

    fn table1_window() -> Vec<JobDemand> {
        vec![
            JobDemand::cpu_bb(80, 20_000.0),
            JobDemand::cpu_bb(10, 85_000.0),
            JobDemand::cpu_bb(40, 5_000.0),
            JobDemand::cpu_bb(10, 0.0),
            JobDemand::cpu_bb(20, 0.0),
        ]
    }

    fn ga() -> GaParams {
        GaParams { generations: 500, base_seed: 4, ..GaParams::default() }
    }

    /// End-to-end Table 1: the Pareto set contains Solutions 2 and 3, and
    /// the decision rule (gain 0.7 BB > 2 x 0.2 node loss) selects
    /// Solution 3 = {J2, J3, J4, J5}.
    #[test]
    fn table1_bbsched_chooses_solution_3() {
        let mut p = BbschedPolicy::new(ga());
        let avail = PoolState::cpu_bb(100, 100_000.0);
        let sel = p.select(&table1_window(), &avail, 0);
        assert_eq!(sel, vec![1, 2, 3, 4], "expected J2..J5");
    }

    #[test]
    fn front_exposes_tradeoffs() {
        let p = BbschedPolicy::new(ga());
        let avail = PoolState::cpu_bb(100, 100_000.0);
        let (front, _) = p.solve_with_front(&table1_window(), &avail, 0);
        assert!(front.len() >= 2, "Pareto set should offer trade-offs");
        assert!(front.is_mutually_nondominated());
    }

    #[test]
    fn tradeoff_override_changes_decision() {
        // With an absurdly high factor, never trade nodes away: stay at
        // the max-node solution (J1 + J5).
        let mut p = BbschedPolicy::new(ga()).with_tradeoff_factor(1_000.0);
        let avail = PoolState::cpu_bb(100, 100_000.0);
        let sel = p.select(&table1_window(), &avail, 0);
        let window = table1_window();
        let nodes: u32 = sel.iter().map(|&i| window[i].nodes).sum();
        assert_eq!(nodes, 100, "selection {sel:?}");
    }

    #[test]
    fn feasible_on_ssd_systems() {
        let mut p = BbschedPolicy::new(ga());
        let avail = PoolState::with_ssd(10, 10, 5_000.0);
        let window = vec![
            JobDemand::cpu_bb_ssd(8, 1_000.0, 200.0),
            JobDemand::cpu_bb_ssd(6, 2_000.0, 64.0),
            JobDemand::cpu_bb_ssd(4, 0.0, 0.0),
            JobDemand::cpu_bb_ssd(12, 3_000.0, 250.0), // needs 12 x 256 > 10
        ];
        for inv in 0..3 {
            let sel = p.select(&window, &avail, inv);
            assert!(selection_is_feasible(&window, &avail, &sel), "{sel:?}");
            assert!(!sel.contains(&3), "job 3 can never fit");
        }
    }

    #[test]
    fn empty_window() {
        let mut p = BbschedPolicy::new(ga());
        let avail = PoolState::cpu_bb(10, 10.0);
        assert!(p.select(&[], &avail, 0).is_empty());
    }

    #[test]
    fn name_matches_paper() {
        assert_eq!(BbschedPolicy::new(ga()).name(), "BBSched");
    }
}
