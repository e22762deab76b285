//! Scheduler-service configuration.
//!
//! [`SchedConfig`] is everything a [`crate::SchedCore`] needs to run
//! scheduling invocations: base-scheduler choice, window and starvation
//! bounds, backfilling discipline and scope. Drivers wrap it with their
//! own knobs (the simulator adds trace-demand clamping behaviour, for
//! instance) and validate it up front, so a bad configuration is a typed
//! [`SchedError`], never a mid-invocation panic.

use crate::base_sched::BaseScheduler;
use crate::error::SchedError;
use bbsched_core::window::WindowConfig;
use serde::{Deserialize, Serialize};

/// Configuration of the scheduler-service core.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SchedConfig {
    /// Base scheduler ordering the queue (FCFS for Cori, WFP for Theta).
    pub base: BaseScheduler,
    /// Window size and starvation bound (§3.1).
    pub window: WindowConfig,
    /// Maximum queued jobs examined per backfilling pass (guards the
    /// per-invocation cost on pathological queues; only relevant with
    /// [`BackfillScope::Queue`]).
    pub max_backfill_scan: usize,
    /// Which jobs EASY backfilling may consider.
    pub backfill: BackfillScope,
    /// Backfilling algorithm: EASY (paper default) or conservative.
    pub backfill_algorithm: BackfillAlgorithm,
    /// Optional dynamic window sizing (§3.1: "the window size could be
    /// dynamically adjusted in response to system status. Job queue length
    /// often changes."). When set, overrides `window.size` per invocation.
    pub dynamic_window: Option<DynamicWindow>,
}

impl SchedConfig {
    /// Validates the whole configuration. Called by [`crate::SchedCore::new`],
    /// so an invalid config is a typed [`SchedError`], never a
    /// mid-invocation panic.
    pub fn validate(&self) -> Result<(), SchedError> {
        self.window.validate().map_err(SchedError::InvalidWindow)?;
        if let Some(d) = self.dynamic_window {
            d.validate()?;
        }
        Ok(())
    }
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            base: BaseScheduler::Fcfs,
            window: WindowConfig::default(),
            max_backfill_scan: 2_000,
            backfill: BackfillScope::Window,
            backfill_algorithm: BackfillAlgorithm::Easy,
            dynamic_window: None,
        }
    }
}

/// Queue-length-driven window sizing: the window tracks a fraction of the
/// waiting queue, clamped to `[min, max]`. Larger queues get more
/// optimization; short queues preserve the site's order (§3.1's stated
/// trade-off).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DynamicWindow {
    /// Smallest window ever used.
    pub min: usize,
    /// Largest window ever used (bounds the optimizer's search space).
    pub max: usize,
    /// Fraction of the queue length targeted.
    pub queue_fraction: f64,
}

impl Default for DynamicWindow {
    fn default() -> Self {
        Self { min: 10, max: 50, queue_fraction: 0.25 }
    }
}

impl DynamicWindow {
    /// Checks the bounds are usable: `min <= max` and a finite,
    /// non-negative queue fraction.
    pub fn validate(&self) -> Result<(), SchedError> {
        if self.min > self.max {
            return Err(SchedError::InvalidDynamicWindow(format!(
                "min ({}) exceeds max ({})",
                self.min, self.max
            )));
        }
        if !self.queue_fraction.is_finite() || self.queue_fraction < 0.0 {
            return Err(SchedError::InvalidDynamicWindow(format!(
                "queue_fraction ({}) must be finite and >= 0",
                self.queue_fraction
            )));
        }
        Ok(())
    }

    /// Window size for a queue of `queue_len` jobs. Total for any inputs
    /// (validation rejects `min > max` up front, but this never panics
    /// regardless — a scheduling invocation is no place for one).
    pub fn size_for(&self, queue_len: usize) -> usize {
        let target = (queue_len as f64 * self.queue_fraction).round() as usize;
        target.max(self.min).min(self.max).max(1)
    }
}

/// The backfilling discipline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackfillAlgorithm {
    /// EASY (§2.1, used throughout the paper): reserve for the first
    /// blocked job only; candidates may not delay it.
    #[default]
    Easy,
    /// Conservative: every blocked candidate receives a reservation on a
    /// future-availability profile; a job starts now only if it delays
    /// none of the reservations ahead of it. Stronger fairness, fewer
    /// backfill opportunities. Uses the persistent, incrementally
    /// maintained profile (DESIGN.md §10).
    Conservative,
}

/// Candidate scope for the EASY backfilling pass.
///
/// The paper runs window-based selection with EASY backfilling on top
/// (§4.3); with a full-queue scope, greedy backfilling over thousands of
/// queued jobs dominates the schedule and erases most of the difference
/// between selection policies — every method degenerates to queue-wide
/// first-fit. Restricting candidates to the scheduling window (the
/// default) keeps backfilling's fragmentation-mitigation role while
/// leaving job selection to the policy under study, which is the
/// experimental design the paper's comparisons require. The scope applies
/// identically to every method, so comparisons stay fair either way.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackfillScope {
    /// Only jobs inside the scheduling window may backfill.
    Window,
    /// Any waiting job may backfill (classic site-wide EASY), capped by
    /// `max_backfill_scan`.
    Queue,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_window_sizing_is_total() {
        let d = DynamicWindow { min: 10, max: 50, queue_fraction: 0.25 };
        assert_eq!(d.size_for(0), 10);
        assert_eq!(d.size_for(100), 25);
        assert_eq!(d.size_for(1_000), 50);
        let broken = DynamicWindow { min: 50, max: 10, queue_fraction: 0.25 };
        for q in [0usize, 40, 100, 10_000] {
            assert!(broken.size_for(q) >= 1);
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad = SchedConfig {
            dynamic_window: Some(DynamicWindow { min: 9, max: 3, queue_fraction: 0.5 }),
            ..SchedConfig::default()
        };
        assert!(matches!(bad.validate(), Err(SchedError::InvalidDynamicWindow(_))));
        assert!(SchedConfig::default().validate().is_ok());
    }
}
