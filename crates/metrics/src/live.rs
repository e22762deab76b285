//! Observer-fed live metrics: summaries that accumulate *during* a run.
//!
//! [`LiveTally`] implements [`bbsched_sched::SchedObserver`] and keeps
//! running aggregates — waits, slowdowns, start reasons, backfill credits,
//! invocation count, makespan — as the scheduler core raises its
//! callbacks, without ever materializing the full record vector. Because
//! the hooks are driver-agnostic, the same tally works attached to the
//! simulator (`bbsched_sim::Simulator::run_observed`), to a standalone
//! core, or to the online replay driver — use it when a caller wants
//! metrics from a trace too large to keep per-job records for, or wants
//! progress mid-run.
//!
//! On whole-run aggregates ([`crate::MeasurementWindow::full`] semantics) the
//! tally agrees exactly with [`crate::MethodSummary::from_result`]; the
//! unit tests pin that equivalence.

use bbsched_sched::{JobStart, SchedObserver, StartReason};
use bbsched_workloads::Job;
use serde::{Deserialize, Serialize};
use std::io::Write;

/// Aggregates a [`LiveTally`] has accumulated so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LiveSummary {
    /// Jobs started.
    pub started: usize,
    /// Jobs finished.
    pub finished: usize,
    /// Average wait (s) over started jobs.
    pub avg_wait: f64,
    /// Average slowdown over started jobs at or above the runtime floor.
    pub avg_slowdown: f64,
    /// Jobs counted into `avg_slowdown`.
    pub slowdown_jobs: usize,
    /// Jobs started by the selection policy.
    pub by_policy: usize,
    /// Jobs started by the backfill phase (any head or hole start).
    pub by_backfill: usize,
    /// Jobs force-started by the starvation bound.
    pub by_starvation: usize,
    /// Backfill starts the pass credited (the paper's `backfilled`).
    pub backfill_credited: usize,
    /// Scheduling invocations observed.
    pub invocations: u64,
    /// Latest completion time seen (s).
    pub makespan: f64,
    /// Wasted local-SSD GB summed over placements (0 off SSD systems).
    pub wasted_ssd_gb: f64,
}

/// A [`SchedObserver`] that folds every callback into running aggregates.
#[derive(Clone, Debug, Default)]
pub struct LiveTally {
    /// Runtime floor for slowdown accounting (§4.2's abnormal-job filter;
    /// 0 counts everything).
    pub slowdown_min_runtime: f64,
    wait_sum: f64,
    slowdown_sum: f64,
    summary: LiveSummary,
}

impl LiveTally {
    /// A tally with no slowdown filtering.
    pub fn new() -> Self {
        Self::default()
    }

    /// A tally filtering jobs shorter than `min_runtime` seconds out of
    /// the slowdown average, as the paper does.
    pub fn with_slowdown_floor(min_runtime: f64) -> Self {
        Self { slowdown_min_runtime: min_runtime, ..Self::default() }
    }

    /// The aggregates accumulated so far (valid mid-run too).
    pub fn summary(&self) -> LiveSummary {
        let mut s = self.summary;
        if s.started > 0 {
            s.avg_wait = self.wait_sum / s.started as f64;
        }
        if s.slowdown_jobs > 0 {
            s.avg_slowdown = self.slowdown_sum / s.slowdown_jobs as f64;
        }
        s
    }
}

impl SchedObserver for LiveTally {
    fn on_invocation_begin(&mut self, _now: f64, _invocation: u64, _queue_len: usize) {
        self.summary.invocations += 1;
    }

    fn on_job_started(&mut self, start: &JobStart<'_>) {
        let job = start.job;
        self.summary.started += 1;
        self.wait_sum += start.now - job.submit;
        if job.runtime >= self.slowdown_min_runtime {
            let response = start.now + job.runtime - job.submit;
            self.slowdown_sum += response / job.runtime.max(f64::MIN_POSITIVE);
            self.summary.slowdown_jobs += 1;
        }
        match start.reason {
            StartReason::Policy => self.summary.by_policy += 1,
            StartReason::Backfill => self.summary.by_backfill += 1,
            StartReason::Starvation => self.summary.by_starvation += 1,
        }
        self.summary.wasted_ssd_gb += start.wasted_ssd_gb;
    }

    fn on_job_finished(&mut self, now: f64, _job: &Job, _d: &bbsched_core::problem::JobDemand) {
        self.summary.finished += 1;
        self.summary.makespan = self.summary.makespan.max(now);
    }

    fn on_backfill_pass(&mut self, _now: f64, _algorithm: &'static str, started: usize) {
        self.summary.backfill_credited += started;
    }
}

/// One periodic stats line emitted by [`LiveStatsLines`]: serialized as
/// `{"type":"stats","now":…,"stats":{…}}` so the lines interleave with
/// other line-oriented output without ambiguity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StatsLine {
    /// The instant of the invocation that triggered the line (s).
    pub now: f64,
    /// The tally's aggregates at that instant.
    pub stats: LiveSummary,
}

impl Serialize for StatsLine {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("type".to_string(), serde::Value::Str("stats".to_string())),
            ("now".to_string(), self.now.to_value()),
            ("stats".to_string(), self.stats.to_value()),
        ])
    }
}

/// A [`SchedObserver`] wrapping a [`LiveTally`] that writes one JSON
/// stats line to `out` every `every` scheduling invocations — the
/// daemon's (`cli serve`) periodic progress feed. `every == 0` disables
/// emission; the tally still accumulates for a final summary.
///
/// Write failures are latched, not raised: observer callbacks cannot
/// return errors, so the caller checks [`LiveStatsLines::io_error`]
/// after the run.
#[derive(Debug)]
pub struct LiveStatsLines<W: Write> {
    tally: LiveTally,
    every: u64,
    out: W,
    io_error: Option<std::io::Error>,
}

impl<W: Write> LiveStatsLines<W> {
    /// A stats emitter over a fresh tally, writing to `out` every
    /// `every` invocations (0 = never).
    pub fn new(every: u64, out: W) -> Self {
        Self { tally: LiveTally::new(), every, out, io_error: None }
    }

    /// The aggregates accumulated so far.
    pub fn summary(&self) -> LiveSummary {
        self.tally.summary()
    }

    /// The first write failure, if any line failed to emit.
    pub fn io_error(&self) -> Option<&std::io::Error> {
        self.io_error.as_ref()
    }
}

impl<W: Write> SchedObserver for LiveStatsLines<W> {
    fn on_invocation_begin(&mut self, now: f64, invocation: u64, queue_len: usize) {
        self.tally.on_invocation_begin(now, invocation, queue_len);
    }

    fn on_job_started(&mut self, start: &JobStart<'_>) {
        self.tally.on_job_started(start);
    }

    fn on_job_finished(&mut self, now: f64, job: &Job, d: &bbsched_core::problem::JobDemand) {
        self.tally.on_job_finished(now, job, d);
    }

    fn on_backfill_pass(&mut self, now: f64, algorithm: &'static str, started: usize) {
        self.tally.on_backfill_pass(now, algorithm, started);
    }

    fn on_invocation_end(&mut self, now: f64, _started: usize) {
        let invocations = self.tally.summary.invocations;
        if self.io_error.is_some() || self.every == 0 || !invocations.is_multiple_of(self.every) {
            return;
        }
        let line = StatsLine { now, stats: self.tally.summary() };
        let json = serde_json::to_string(&line).expect("stats lines always serialize");
        if let Err(e) = writeln!(self.out, "{json}") {
            self.io_error = Some(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::{MeasurementWindow, MethodSummary};
    use bbsched_policies::{GaParams, PolicyKind};
    use bbsched_sim::{SimConfig, Simulator};
    use bbsched_workloads::{generate, GeneratorConfig, MachineProfile};

    /// The live tally and the post-hoc record summary must agree exactly
    /// on whole-run aggregates: they observe the same engine.
    #[test]
    fn live_tally_matches_record_summary() {
        let profile = MachineProfile::cori().scaled(0.05);
        let trace = generate(
            &profile,
            &GeneratorConfig { n_jobs: 70, seed: 5, load_factor: 1.3, ..Default::default() },
        );
        let min_runtime = 60.0;
        let mut tally = LiveTally::with_slowdown_floor(min_runtime);
        let sim = Simulator::new(&profile.system, &trace, SimConfig::default()).unwrap();
        let ga = GaParams { generations: 15, ..GaParams::default() };
        let result = sim.run_observed(PolicyKind::BbSched.build(ga), &mut [&mut tally]);

        let window =
            MeasurementWindow { slowdown_min_runtime: min_runtime, ..MeasurementWindow::full() };
        let posthoc = MethodSummary::from_result(&result, window);
        let live = tally.summary();

        assert_eq!(live.started, result.records.len());
        assert_eq!(live.finished, result.records.len());
        assert_eq!(live.invocations, result.invocations);
        assert_eq!(live.makespan, result.makespan);
        assert_eq!(live.backfill_credited, result.backfilled);
        assert_eq!(live.by_starvation, result.starvation_forced);
        assert!((live.avg_wait - posthoc.avg_wait).abs() < 1e-9);
        assert!((live.avg_slowdown - posthoc.avg_slowdown).abs() < 1e-9);
        let by_reason_total = live.by_policy + live.by_backfill + live.by_starvation;
        assert_eq!(by_reason_total, live.started);
        let wasted: f64 = result.records.iter().map(|r| r.wasted_ssd_gb).sum();
        assert!((live.wasted_ssd_gb - wasted).abs() < 1e-9);
    }

    #[test]
    fn mid_run_summary_is_consistent() {
        let mut tally = LiveTally::new();
        let job = Job::new(1, 10.0, 2, 100.0, 200.0);
        tally.on_job_started(&JobStart {
            now: 40.0,
            job: &job,
            demand: bbsched_core::problem::JobDemand::cpu_bb(2, 0.0),
            assignment: bbsched_core::pools::NodeAssignment::default(),
            wasted_ssd_gb: 0.0,
            est_end: 240.0,
            reason: StartReason::Policy,
        });
        let s = tally.summary();
        assert_eq!(s.started, 1);
        assert_eq!(s.finished, 0);
        assert_eq!(s.avg_wait, 30.0);
        // Response 130 over runtime 100.
        assert!((s.avg_slowdown - 1.3).abs() < 1e-12);
    }

    #[test]
    fn stats_lines_emit_on_cadence() {
        let mut out: Vec<u8> = Vec::new();
        {
            let mut stats = LiveStatsLines::new(2, &mut out);
            for i in 0..5u64 {
                stats.on_invocation_begin(i as f64 * 10.0, i, 0);
                stats.on_invocation_end(i as f64 * 10.0, 0);
            }
            assert!(stats.io_error().is_none());
            assert_eq!(stats.summary().invocations, 5);
        }
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "5 invocations at every=2 emit at 2 and 4");
        assert!(lines[0].starts_with("{\"type\":\"stats\",\"now\":10.0,"));
        assert!(lines[1].contains("\"invocations\":4"));

        // every == 0 never emits.
        let mut silent: Vec<u8> = Vec::new();
        {
            let mut stats = LiveStatsLines::new(0, &mut silent);
            stats.on_invocation_begin(0.0, 0, 0);
            stats.on_invocation_end(0.0, 0);
        }
        assert!(silent.is_empty());
    }
}
