//! # bbsched-policies
//!
//! The multi-resource job-selection methods compared in §4.3 and §5 of the
//! paper. Each policy answers one question per scheduling invocation:
//! *given the window of candidate jobs and the free resources, which jobs
//! start right now?*
//!
//! | Paper name | Type | Implementation |
//! |---|---|---|
//! | Baseline | naive sequential (Slurm-style) | [`NaivePolicy`] |
//! | Weighted (50/50) | scalarized GA | [`WeightedPolicy`] |
//! | Weighted_CPU (80/20) | scalarized GA | [`WeightedPolicy`] |
//! | Weighted_BB (20/80) | scalarized GA | [`WeightedPolicy`] |
//! | Constrained_CPU | single-objective GA | [`ConstrainedPolicy`] |
//! | Constrained_BB | single-objective GA | [`ConstrainedPolicy`] |
//! | Constrained_SSD (§5) | single-objective GA | [`ConstrainedPolicy`] |
//! | Bin_Packing | Tetris-style greedy | [`BinPackingPolicy`] |
//! | BBSched | Pareto GA + decision rule | [`BbschedPolicy`] |
//!
//! All policies see the same window (built by the base scheduler) and the
//! same [`bbsched_core::PoolState`]; EASY backfilling runs *after* the
//! policy in the simulator, exactly as §4.3 prescribes ("all the methods
//! use EASY backfilling to mitigate resource fragmentation").
//!
//! ## Where a policy sits in the engine
//!
//! The simulator's `Engine` (`bbsched-sim`) runs six fixed phases per
//! scheduling invocation; a [`SelectionPolicy`] is phase 4. It receives
//! the window built in phase 2 (base order + dependency gating) and an
//! availability that phase 3 may have *narrowed*: when a starved head job
//! cannot fit, the engine hands the policy the component-wise minimum of
//! the free pool and the head's shadow-leftover, so no selection can delay
//! the protected reservation. The backfill strategy (phase 5) then fills
//! any holes the policy left. `select` is called once per invocation with
//! a monotone `invocation` counter even when it returns nothing; the
//! engine asserts the returned set fits before starting it (those starts
//! carry `StartReason::Policy` in observer callbacks and job records).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adaptive;
pub mod bbsched;
pub mod bin_packing;
pub mod constrained;
pub mod kind;
pub mod naive;
pub mod weighted;

pub use adaptive::AdaptiveBbschedPolicy;
pub use bbsched::BbschedPolicy;
pub use bin_packing::BinPackingPolicy;
pub use constrained::{ConstrainedPolicy, ConstrainedResource};
pub use kind::PolicyKind;
pub use naive::NaivePolicy;
pub use weighted::{WeightProfile, WeightedPolicy};

use bbsched_core::pools::PoolState;
use bbsched_core::problem::JobDemand;
use serde::{Deserialize, Serialize, Value};

/// A multi-resource window-selection policy.
///
/// Implementations must return indices into `window` whose combined demand
/// fits in `avail` (the simulator asserts this). `invocation` is a
/// monotonically increasing scheduling-event counter that stochastic
/// policies fold into their seed so runs stay reproducible yet invocations
/// stay decorrelated.
pub trait SelectionPolicy: Send {
    /// Display name (matches the paper's figures).
    fn name(&self) -> &str;

    /// Chooses which window jobs start now. Returns ascending window
    /// indices.
    fn select(&mut self, window: &[JobDemand], avail: &PoolState, invocation: u64) -> Vec<usize>;

    /// State this policy carries *across* invocations, as a serde value
    /// tree, or `None` when there is none. The roster policies are
    /// stateless between calls (their per-call seed is derived from
    /// `base_seed` and the invocation counter), so the default is `None`;
    /// policies with persistent state (e.g. an EWMA) override both this
    /// and [`SelectionPolicy::restore_state`].
    fn snapshot_state(&self) -> Option<Value> {
        None
    }

    /// Injects state previously exported by
    /// [`SelectionPolicy::snapshot_state`]. Returns a message when the
    /// value is not state this policy understands. The default accepts
    /// nothing — a stateless policy restored with leftover state from a
    /// stateful one is a caller bug worth diagnosing.
    fn restore_state(&mut self, state: &Value) -> Result<(), String> {
        let _ = state;
        Err(format!("policy `{}` carries no cross-invocation state", self.name()))
    }
}

/// Shared hyper-parameters for the GA-backed policies (weighted,
/// constrained, BBSched). Defaults match §4.3: `G = 500`, `P = 20`,
/// `p_m = 0.05 %`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GaParams {
    /// Population size `P`.
    pub population: usize,
    /// Generations `G`.
    pub generations: usize,
    /// Bit-flip probability `p_m`.
    pub mutation_rate: f64,
    /// Base seed, mixed with the invocation counter per call.
    pub base_seed: u64,
}

impl Default for GaParams {
    fn default() -> Self {
        Self { population: 20, generations: 500, mutation_rate: 0.0005, base_seed: 0xbb5c_11ed }
    }
}

impl GaParams {
    /// Builds a [`bbsched_core::GaConfig`] for one invocation.
    pub fn config(&self, mode: bbsched_core::SolveMode, invocation: u64) -> bbsched_core::GaConfig {
        bbsched_core::GaConfig {
            population: self.population,
            generations: self.generations,
            mutation_rate: self.mutation_rate,
            seed: invocation_seed(self.base_seed, invocation),
            mode,
        }
    }
}

/// Builds the MOO problem for the availability at hand: one knapsack over
/// however many resources the pool registers — the §3.2.1 bi-objective
/// problem and the §5 four-objective problem are just the 2- and
/// 3-resource instances.
///
/// Objectives are normalized against the machine's capacities (the paper's
/// utilizations are system-relative): weights like "80% nodes / 20% BB"
/// keep their meaning regardless of what happens to be free right now.
/// Systems with a per-node resource keep the §5 repair semantics
/// (unconditional drops) so historical selection streams are preserved.
pub(crate) fn build_problem(
    window: &[JobDemand],
    avail: &PoolState,
) -> bbsched_core::KnapsackMooProblem {
    use bbsched_core::RepairStyle;
    let style = if avail.ssd_aware() {
        RepairStyle::DropUnconditionally
    } else {
        RepairStyle::DropIfRelieves
    };
    bbsched_core::KnapsackMooProblem::new(window.to_vec(), avail.resource_model())
        .with_normalizers(&avail.machine_normalizers())
        .with_repair_style(style)
}

/// Mixes a base seed with an invocation counter (splitmix64 finalizer).
pub(crate) fn invocation_seed(base: u64, invocation: u64) -> u64 {
    let mut z = base ^ invocation.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Checks that a selection fits `avail`; shared by tests and the simulator.
pub fn selection_is_feasible(window: &[JobDemand], avail: &PoolState, selection: &[usize]) -> bool {
    let mut state = *avail;
    for &i in selection {
        if i >= window.len() || !state.fits(&window[i]) {
            return false;
        }
        let _ = state.alloc(&window[i]);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invocation_seed_varies() {
        let a = invocation_seed(1, 0);
        let b = invocation_seed(1, 1);
        let c = invocation_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, invocation_seed(1, 0));
    }

    #[test]
    fn feasibility_checker() {
        let window = vec![JobDemand::cpu_bb(5, 10.0), JobDemand::cpu_bb(6, 0.0)];
        let avail = PoolState::cpu_bb(10, 10.0);
        assert!(selection_is_feasible(&window, &avail, &[0]));
        assert!(selection_is_feasible(&window, &avail, &[1]));
        assert!(!selection_is_feasible(&window, &avail, &[0, 1]));
        assert!(!selection_is_feasible(&window, &avail, &[7]));
    }
}
