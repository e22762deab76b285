//! Per-run metric summaries: one row of the paper's figures.

use crate::usage::{resource_usage, UsageKind};
use bbsched_sched::{JobRecord, SimResult};
use serde::{Deserialize, Serialize};

/// The measured portion of a run (§4.2: warm-up / cool-down trimming).
///
/// Expressed as submit-time quantiles of the workload: a job is *measured*
/// if its submit time falls within the central
/// `[warmup_frac, 1 - cooldown_frac]` quantile band, and usage integrals
/// run over the corresponding wall-clock interval. The paper trims the
/// first and last half-month of multi-month traces; the default 1/8 on
/// each side matches that proportion.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MeasurementWindow {
    /// Fraction of the submit-time span trimmed from the front.
    pub warmup_frac: f64,
    /// Fraction trimmed from the back.
    pub cooldown_frac: f64,
    /// Jobs with `runtime` below this are excluded from average slowdown
    /// ("we filter out abnormal jobs in calculating average slowdown").
    pub slowdown_min_runtime: f64,
}

impl Default for MeasurementWindow {
    fn default() -> Self {
        Self { warmup_frac: 0.125, cooldown_frac: 0.125, slowdown_min_runtime: 60.0 }
    }
}

impl MeasurementWindow {
    /// No trimming at all (unit tests, tiny traces).
    pub fn full() -> Self {
        Self { warmup_frac: 0.0, cooldown_frac: 0.0, slowdown_min_runtime: 0.0 }
    }

    /// The wall-clock interval `[t0, t1]` covered by the measured band of
    /// submits.
    pub fn interval(&self, records: &[JobRecord]) -> (f64, f64) {
        if records.is_empty() {
            return (0.0, 0.0);
        }
        let first = records.iter().map(|r| r.submit).fold(f64::INFINITY, f64::min);
        let last = records.iter().map(|r| r.submit).fold(f64::NEG_INFINITY, f64::max);
        let span = (last - first).max(0.0);
        (first + span * self.warmup_frac, last - span * self.cooldown_frac)
    }

    /// Whether a record is inside the measured band.
    pub fn contains(&self, r: &JobRecord, t0: f64, t1: f64) -> bool {
        r.submit >= t0 && r.submit <= t1
    }
}

/// Usage and waste of one system resource over the measured interval.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResourceSummary {
    /// Resource name from the system's resource model ("nodes", "bb_gb",
    /// "ssd", or an extra resource's registered name).
    pub name: String,
    /// Usage ratio in [0, 1].
    pub usage: f64,
    /// Wasted-capacity ratio (0 for resources without a waste objective).
    pub waste: f64,
}

/// One method × workload cell of the evaluation: every §4.2/§5 metric.
///
/// Usage is reported per resource, in the system's resource-model order;
/// the `node_usage()`/`bb_usage()`/`ssd_usage()`/`ssd_wasted()` accessors
/// recover the paper's named series.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MethodSummary {
    /// Policy name.
    pub policy: String,
    /// Per-resource usage/waste series (resource-model order).
    pub resources: Vec<ResourceSummary>,
    /// Average job wait time (s) over measured jobs.
    pub avg_wait: f64,
    /// Average slowdown over measured, non-abnormal jobs.
    pub avg_slowdown: f64,
    /// Number of measured jobs.
    pub measured_jobs: usize,
    /// Jobs started by backfilling (whole run, diagnostic).
    pub backfilled: usize,
}

impl MethodSummary {
    /// Computes the summary of a run over the given measurement window.
    pub fn from_result(result: &SimResult, window: MeasurementWindow) -> Self {
        let (t0, t1) = window.interval(&result.records);
        let measured: Vec<&JobRecord> =
            result.records.iter().filter(|r| window.contains(r, t0, t1)).collect();

        let avg_wait = if measured.is_empty() {
            0.0
        } else {
            measured.iter().map(|r| r.wait()).sum::<f64>() / measured.len() as f64
        };
        let slowdown_jobs: Vec<&&JobRecord> =
            measured.iter().filter(|r| r.runtime >= window.slowdown_min_runtime).collect();
        let avg_slowdown = if slowdown_jobs.is_empty() {
            0.0
        } else {
            slowdown_jobs.iter().map(|r| r.slowdown()).sum::<f64>() / slowdown_jobs.len() as f64
        };

        let model = result.system.resource_model();
        let resources = model
            .specs()
            .iter()
            .enumerate()
            .map(|(i, spec)| ResourceSummary {
                name: spec.name.clone(),
                usage: resource_usage(
                    &result.records,
                    &result.system,
                    UsageKind::Resource(i),
                    t0,
                    t1,
                ),
                waste: if spec.track_waste {
                    resource_usage(
                        &result.records,
                        &result.system,
                        UsageKind::ResourceWaste(i),
                        t0,
                        t1,
                    )
                } else {
                    0.0
                },
            })
            .collect();

        Self {
            policy: result.policy.clone(),
            resources,
            avg_wait,
            avg_slowdown,
            measured_jobs: measured.len(),
            backfilled: result.backfilled,
        }
    }

    /// Usage of the resource named `name` (0 when the system lacks it).
    pub fn usage_of(&self, name: &str) -> f64 {
        self.resources.iter().find(|r| r.name == name).map_or(0.0, |r| r.usage)
    }

    /// Wasted-capacity ratio of the resource named `name` (0 when N/A).
    pub fn waste_of(&self, name: &str) -> f64 {
        self.resources.iter().find(|r| r.name == name).map_or(0.0, |r| r.waste)
    }

    /// Node usage in [0, 1].
    pub fn node_usage(&self) -> f64 {
        self.usage_of("nodes")
    }

    /// Burst-buffer usage in [0, 1].
    pub fn bb_usage(&self) -> f64 {
        self.usage_of("bb_gb")
    }

    /// Local-SSD utilization in [0, 1] (0 on non-SSD systems).
    pub fn ssd_usage(&self) -> f64 {
        self.usage_of("ssd")
    }

    /// Wasted local SSD as a fraction of SSD capacity-time (0 when N/A).
    pub fn ssd_wasted(&self) -> f64 {
        self.waste_of("ssd")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsched_core::pools::NodeAssignment;
    use bbsched_sched::StartReason;
    use bbsched_workloads::SystemConfig;

    fn rec(id: u64, submit: f64, start: f64, runtime: f64, nodes: u32) -> JobRecord {
        JobRecord {
            id,
            submit,
            start,
            end: start + runtime,
            runtime,
            walltime: runtime * 2.0,
            nodes,
            bb_gb: 0.0,
            ssd_gb_per_node: 0.0,
            extra: [0.0; bbsched_core::resource::MAX_EXTRA],
            assignment: NodeAssignment::default(),
            wasted_ssd_gb: 0.0,
            reason: StartReason::Policy,
        }
    }

    fn result(records: Vec<JobRecord>) -> SimResult {
        SimResult {
            policy: "Test".into(),
            base: "FCFS".into(),
            system: SystemConfig {
                name: "t".into(),
                nodes: 10,
                bb_gb: 100.0,
                bb_reserved_gb: 0.0,
                nodes_128: 0,
                nodes_256: 0,
                extra_resources: Vec::new(),
            },
            records,
            makespan: 0.0,
            invocations: 0,
            clamped_jobs: 0,
            backfilled: 3,
            starvation_forced: 0,
        }
    }

    #[test]
    fn window_interval_quantiles() {
        let records: Vec<JobRecord> =
            (0..9).map(|i| rec(i, i as f64 * 100.0, i as f64 * 100.0, 10.0, 1)).collect();
        let w = MeasurementWindow { warmup_frac: 0.25, cooldown_frac: 0.25, ..Default::default() };
        let (t0, t1) = w.interval(&records);
        assert_eq!(t0, 200.0);
        assert_eq!(t1, 600.0);
    }

    #[test]
    fn full_window_measures_everything() {
        let records = vec![rec(0, 0.0, 10.0, 100.0, 5), rec(1, 50.0, 60.0, 100.0, 5)];
        let s = MethodSummary::from_result(&result(records), MeasurementWindow::full());
        assert_eq!(s.measured_jobs, 2);
        assert_eq!(s.avg_wait, 10.0);
        assert_eq!(s.backfilled, 3);
    }

    #[test]
    fn slowdown_filters_short_jobs() {
        let mut quick = rec(0, 0.0, 1_000.0, 1.0, 1); // slowdown 1001
        quick.end = quick.start + quick.runtime;
        let normal = rec(1, 0.0, 100.0, 100.0, 1); // slowdown 2
        let w = MeasurementWindow { slowdown_min_runtime: 60.0, ..MeasurementWindow::full() };
        let s = MethodSummary::from_result(&result(vec![quick, normal]), w);
        assert_eq!(s.avg_slowdown, 2.0);
        // Wait still counts both jobs.
        assert_eq!(s.measured_jobs, 2);
    }

    #[test]
    fn empty_records_are_safe() {
        let s = MethodSummary::from_result(&result(vec![]), MeasurementWindow::default());
        assert_eq!(s.measured_jobs, 0);
        assert_eq!(s.avg_wait, 0.0);
        assert_eq!(s.avg_slowdown, 0.0);
    }

    #[test]
    fn trimming_drops_edge_jobs() {
        let records: Vec<JobRecord> =
            (0..8).map(|i| rec(i, i as f64 * 100.0, i as f64 * 100.0, 10.0, 1)).collect();
        let s = MethodSummary::from_result(&result(records), MeasurementWindow::default());
        // Span 0..700, band [87.5, 612.5]: jobs 1..=6 measured.
        assert_eq!(s.measured_jobs, 6);
    }
}
