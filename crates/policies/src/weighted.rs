//! The weighted-sum methods (§4.3).
//!
//! "This method aims to maximize a weighted combination of multiple
//! objectives. The weights are site tunable parameters." Three presets are
//! evaluated: Weighted (50/50), Weighted_CPU (80/20), Weighted_BB (20/80);
//! §5 adds an equally-weighted four-objective variant. Weights apply to
//! *normalized* utilizations (objective / available capacity), so "80 %
//! node weight" means what the paper's example in §1 means.

use crate::{GaParams, SelectionPolicy};
use bbsched_core::pools::PoolState;
use bbsched_core::problem::JobDemand;
use bbsched_core::{MooGa, SolveMode};

/// A set of weight vectors keyed by objective count.
///
/// Sites tune weights per system, and a weight vector only means something
/// for a specific objective dimensionality — the paper's Weighted_CPU is
/// 80/20 on Cori's bi-objective problem but 80/10/5/5 on the
/// four-objective SSD problem. A profile carries one R-length vector per
/// dimensionality the policy may encounter.
#[derive(Clone, Debug)]
pub struct WeightProfile {
    vectors: Vec<Vec<f64>>,
}

impl WeightProfile {
    /// A profile with a single R-length weight vector (the policy then
    /// only accepts systems whose problems have exactly R objectives).
    pub fn uniform(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "weight vector must be non-empty");
        Self { vectors: vec![weights] }
    }

    /// A profile from several weight vectors of distinct lengths.
    pub fn from_vectors(vectors: Vec<Vec<f64>>) -> Self {
        assert!(!vectors.is_empty(), "profile needs at least one weight vector");
        for (i, v) in vectors.iter().enumerate() {
            assert!(!v.is_empty(), "weight vector {i} is empty");
            assert!(
                !vectors[..i].iter().any(|u| u.len() == v.len()),
                "two weight vectors of length {}",
                v.len()
            );
        }
        Self { vectors }
    }

    /// The weight vector for an `n_obj`-objective problem.
    ///
    /// # Panics
    /// Panics if the profile has no vector of that length.
    pub fn weights_for(&self, n_obj: usize) -> &[f64] {
        self.vectors
            .iter()
            .find(|v| v.len() == n_obj)
            .unwrap_or_else(|| {
                panic!(
                    "weight profile has no vector for {n_obj} objectives (available: {:?})",
                    self.vectors.iter().map(Vec::len).collect::<Vec<_>>()
                )
            })
            .as_slice()
    }
}

/// Weighted-sum scalarization solved with the same GA machinery as
/// BBSched (the paper's weighted methods are "converted" single-objective
/// versions of the identical problem).
#[derive(Clone, Debug)]
pub struct WeightedPolicy {
    name: String,
    profile: WeightProfile,
    ga: GaParams,
}

impl WeightedPolicy {
    /// Fully custom weights for the paper's two problem shapes
    /// (bi-objective and four-objective).
    pub fn new(
        name: impl Into<String>,
        weights2: [f64; 2],
        weights4: [f64; 4],
        ga: GaParams,
    ) -> Self {
        Self::with_profile(
            name,
            WeightProfile::from_vectors(vec![weights2.to_vec(), weights4.to_vec()]),
            ga,
        )
    }

    /// A policy scoring with one R-length weight vector (for systems with
    /// custom resource tables).
    pub fn with_weights(name: impl Into<String>, weights: Vec<f64>, ga: GaParams) -> Self {
        Self::with_profile(name, WeightProfile::uniform(weights), ga)
    }

    /// A policy with a full weight profile.
    pub fn with_profile(name: impl Into<String>, profile: WeightProfile, ga: GaParams) -> Self {
        Self { name: name.into(), profile, ga }
    }

    /// "Weighted": CPU and burst buffer equally important (50/50);
    /// §5 variant weights all four objectives equally.
    pub fn balanced(ga: GaParams) -> Self {
        Self::new("Weighted", [0.5, 0.5], [0.25, 0.25, 0.25, 0.25], ga)
    }

    /// "Weighted_CPU": CPU considered more important (80/20).
    pub fn cpu_heavy(ga: GaParams) -> Self {
        Self::new("Weighted_CPU", [0.8, 0.2], [0.8, 0.1, 0.05, 0.05], ga)
    }

    /// "Weighted_BB": burst buffer considered more important (20/80).
    pub fn bb_heavy(ga: GaParams) -> Self {
        Self::new("Weighted_BB", [0.2, 0.8], [0.2, 0.6, 0.1, 0.1], ga)
    }
}

impl SelectionPolicy for WeightedPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn select(&mut self, window: &[JobDemand], avail: &PoolState, invocation: u64) -> Vec<usize> {
        if window.is_empty() {
            return Vec::new();
        }
        let problem = crate::build_problem(window, avail);
        let weights = self.profile.weights_for(problem.normalizers().len()).to_vec();
        let cfg = self.ga.config(SolveMode::Scalar(weights), invocation);
        MooGa::new(cfg)
            .solve(&problem)
            .into_solutions()
            .into_iter()
            .next()
            .map(|s| s.chromosome.selected().collect())
            .unwrap_or_default()
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

    fn fast_ga() -> GaParams {
        GaParams { generations: 300, base_seed: 11, ..GaParams::default() }
    }

    /// Table 1(b): "A weighted method may use a linear combination of node
    /// utilization with 80% weight and burst buffer utilization with 20%
    /// weight ... select J1 and J5 for execution" (Solution 2).
    #[test]
    fn table1_weighted_cpu_picks_solution_2() {
        let mut p = WeightedPolicy::cpu_heavy(fast_ga());
        let avail = PoolState::cpu_bb(100, 100_000.0);
        let sel = p.select(&table1_window(), &avail, 0);
        assert_eq!(sel, vec![0, 4], "expected J1 + J5");
    }

    #[test]
    fn bb_heavy_prefers_burst_buffer() {
        let mut p = WeightedPolicy::bb_heavy(fast_ga());
        let avail = PoolState::cpu_bb(100, 100_000.0);
        let window = table1_window();
        let sel = p.select(&window, &avail, 0);
        // Solution 3 (J2..J5): bb 0.9, nodes 0.8 -> 0.2*0.8 + 0.8*0.9 = 0.88;
        // Solution 2 scores 0.2*1.0 + 0.8*0.2 = 0.36. Must pick J2.
        assert!(sel.contains(&1), "selection {sel:?} should contain J2");
        assert!(selection_is_feasible(&window, &avail, &sel));
    }

    #[test]
    fn selections_always_feasible() {
        let mut p = WeightedPolicy::balanced(fast_ga());
        let avail = PoolState::cpu_bb(50, 10_000.0);
        let window = table1_window();
        for inv in 0..5 {
            let sel = p.select(&window, &avail, inv);
            assert!(selection_is_feasible(&window, &avail, &sel));
        }
    }

    #[test]
    fn empty_window_returns_nothing() {
        let mut p = WeightedPolicy::balanced(fast_ga());
        let avail = PoolState::cpu_bb(10, 10.0);
        assert!(p.select(&[], &avail, 0).is_empty());
    }

    #[test]
    fn names_match_paper() {
        let ga = GaParams::default();
        assert_eq!(WeightedPolicy::balanced(ga).name(), "Weighted");
        assert_eq!(WeightedPolicy::cpu_heavy(ga).name(), "Weighted_CPU");
        assert_eq!(WeightedPolicy::bb_heavy(ga).name(), "Weighted_BB");
    }
}
