//! # bbsched-core
//!
//! The optimization core of **BBSched**, a multi-resource scheduling scheme
//! for HPC systems (Fan et al., *Scheduling Beyond CPUs for HPC*, HPDC 2019).
//!
//! BBSched formulates the question *"which jobs from the front-of-queue
//! window should start right now?"* as a multi-objective optimization (MOO)
//! problem — a multi-dimensional knapsack whose objectives are the
//! utilizations of each schedulable resource (compute nodes, shared burst
//! buffer, and optionally local SSDs) — and solves it with a multi-objective
//! genetic algorithm fast enough for the 15–30 s response-time budget of
//! production HPC schedulers.
//!
//! This crate provides, paper-section by paper-section:
//!
//! * [`problem`] — the MOO formulations of §3.2.1 (CPU + burst buffer) and
//!   §5 (CPU + burst buffer + heterogeneous local SSD), both presets of
//!   one [`problem::KnapsackMooProblem`] over a [`resource::ResourceModel`],
//!   so further resources are added as data.
//! * [`chromosome`] — the binary selection vector (one gene per window
//!   slot), backed by a compact `u64` bitset.
//! * [`ga`] — the genetic solver of §3.2.2: population `P`, generations
//!   `G`, single-point crossover, bit-flip mutation `p_m`, and the
//!   Pareto-set + age elitist selection described in the paper. A scalarized
//!   mode powers the *weighted* and *constrained* comparison policies.
//! * [`pareto`] — dominance tests and Pareto-front extraction.
//! * [`exhaustive`] — the brute-force solver used as ground truth for
//!   generational distance (Fig. 4) and the exponential curve of Fig. 2.
//! * [`quality`] — generational distance (GD) and related front-quality
//!   metrics (§3.2.3).
//! * [`decision`] — the decision maker of §3.2.4 (2× trade-off rule) and
//!   its §5 extension (4× rule over three non-node axes).
//! * [`window`] — window-based scheduling bookkeeping and the starvation
//!   bound of §3.1.
//! * [`parallel`] — the GA's memoized repair/evaluate pass and
//!   `run_batch`, the worker pool that runs whole simulations side by
//!   side.
//!
//! ## Quick example
//!
//! ```
//! use bbsched_core::problem::{JobDemand, KnapsackMooProblem};
//! use bbsched_core::resource::ResourceModel;
//! use bbsched_core::ga::{GaConfig, MooGa};
//!
//! // Table 1 of the paper: 100 nodes, 100 TB of burst buffer, five jobs.
//! let window = vec![
//!     JobDemand::cpu_bb(80, 20_000.0),
//!     JobDemand::cpu_bb(10, 85_000.0),
//!     JobDemand::cpu_bb(40, 5_000.0),
//!     JobDemand::cpu_bb(10, 0.0),
//!     JobDemand::cpu_bb(20, 0.0),
//! ];
//! let problem = KnapsackMooProblem::new(window, ResourceModel::cpu_bb(100, 100_000.0));
//! let front = MooGa::new(GaConfig::default()).solve(&problem);
//! // The Pareto front contains the (100 nodes, 20 TB) and (80 nodes, 90 TB)
//! // trade-off points from Table 1(b).
//! assert!(front.len() >= 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chromosome;
pub mod decision;
pub mod exhaustive;
pub mod ga;
pub mod parallel;
pub mod pareto;
pub mod pools;
pub mod problem;
pub mod quality;
pub mod resource;
pub mod window;

pub use chromosome::Chromosome;
pub use decision::{choose_knee, choose_preferred, DecisionRule};
pub use ga::{GaConfig, GaConfigError, MooGa, SolveMode};
pub use pareto::{dominates, ParetoFront};
pub use pools::{NodeAssignment, PoolState};
pub use problem::{JobDemand, KnapsackMooProblem, RepairStyle};
pub use resource::{
    DemandSlot, Flavor, FlavorSet, ResourceKind, ResourceModel, ResourceModelError, ResourceSpec,
    ResourceVector, MAX_FLAVORS, MAX_RESOURCES,
};

/// Maximum number of objectives supported by the fixed-size objective
/// vector used on the GA hot path. The paper uses 2 (§3.2.1) and 4 (§5);
/// the generic core allows one utilization objective per registered
/// resource plus per-resource waste objectives.
pub const MAX_OBJECTIVES: usize = 6;

/// A fixed-capacity objective vector: `values[..len]` are meaningful.
///
/// Using a stack array instead of `Vec<f64>` keeps the GA inner loop free of
/// heap allocation (see the repo's HPC guide notes on allocation in hot
/// loops).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Objectives {
    values: [f64; MAX_OBJECTIVES],
    len: usize,
}

impl Objectives {
    /// Creates a zeroed objective vector with `len` active objectives.
    ///
    /// # Panics
    /// Panics if `len > MAX_OBJECTIVES` or `len == 0`.
    #[inline]
    pub fn zeros(len: usize) -> Self {
        assert!(len > 0 && len <= MAX_OBJECTIVES, "1..={MAX_OBJECTIVES} objectives supported");
        Self { values: [0.0; MAX_OBJECTIVES], len }
    }

    /// Builds an objective vector from a slice.
    ///
    /// # Panics
    /// Panics if the slice is empty or longer than [`MAX_OBJECTIVES`].
    #[inline]
    pub fn from_slice(slice: &[f64]) -> Self {
        let mut o = Self::zeros(slice.len());
        o.values[..slice.len()].copy_from_slice(slice);
        o
    }

    /// The active objective values.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.values[..self.len]
    }

    /// Number of active objectives.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no active objectives (never true for a constructed
    /// vector; present for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Weighted sum of the active objectives (used by the scalarized GA).
    #[inline]
    pub fn weighted_sum(&self, weights: &[f64]) -> f64 {
        debug_assert_eq!(weights.len(), self.len);
        self.as_slice().iter().zip(weights).map(|(v, w)| v * w).sum()
    }
}

impl std::ops::Index<usize> for Objectives {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.as_slice()[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objectives_roundtrip() {
        let o = Objectives::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(o.len(), 3);
        assert_eq!(o.as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(o[1], 2.0);
        assert!(!o.is_empty());
    }

    #[test]
    fn objectives_weighted_sum() {
        let o = Objectives::from_slice(&[10.0, 20.0]);
        assert_eq!(o.weighted_sum(&[0.5, 0.25]), 10.0);
    }

    #[test]
    #[should_panic]
    fn objectives_reject_too_many() {
        let _ = Objectives::zeros(MAX_OBJECTIVES + 1);
    }

    #[test]
    #[should_panic]
    fn objectives_reject_zero() {
        let _ = Objectives::zeros(0);
    }
}
