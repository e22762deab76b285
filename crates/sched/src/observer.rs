//! Observation hooks into the scheduler-service core.
//!
//! The core ([`crate::SchedCore`]) owns only the mechanics of a
//! scheduling invocation; everything a consumer might want to *collect* —
//! per-job records, live metrics, decision streams, a daemon's telemetry —
//! attaches through the [`SchedObserver`] trait instead of being welded
//! into the loop. The hooks are driver-agnostic: the same observer works
//! unchanged under the discrete-event simulator and the online replay
//! driver, because both raise exactly the callbacks the core raises.
//! [`Recorder`] is the first observer: it rebuilds exactly the
//! [`SimResult`] the historical monolithic `Simulator::run` produced.
//! [`DecisionLog`] is the second: it captures the canonical decision
//! stream ([`Decision::json_line`]) the replay driver emits.
//!
//! Callback order within one scheduling invocation:
//!
//! 1. [`SchedObserver::on_invocation_begin`] — the queue is non-empty and
//!    a scheduling pass is about to run;
//! 2. [`SchedObserver::on_window_built`] — the window phase selected its
//!    candidate jobs;
//! 3. zero or more [`SchedObserver::on_job_started`] — starvation
//!    forcing, then policy selection, then backfilling, in that order
//!    (the [`StartReason`] tells which phase started the job); each start
//!    and each reservation also raises [`SchedObserver::on_decision`];
//! 4. [`SchedObserver::on_backfill_pass`] — the backfill phase finished;
//! 5. [`SchedObserver::on_invocation_end`].
//!
//! [`SchedObserver::on_job_finished`] fires between invocations as the
//! driver reports completions, and [`SchedObserver::on_sim_end`] exactly
//! once when the driver declares the event stream over.

use crate::record::{JobRecord, SimResult, StartReason};
use crate::service::Decision;
use bbsched_core::pools::NodeAssignment;
use bbsched_core::problem::JobDemand;
use bbsched_workloads::{Job, SystemConfig};

/// Everything known about a job at the instant it starts.
#[derive(Clone, Debug)]
pub struct JobStart<'a> {
    /// Scheduling time of the start.
    pub now: f64,
    /// The job, as it was submitted.
    pub job: &'a Job,
    /// Capacity-clamped demand actually allocated.
    pub demand: JobDemand,
    /// Node split across per-node flavour pools.
    pub assignment: NodeAssignment,
    /// Wasted per-node capacity (GB) of this placement (0 off SSD systems).
    pub wasted_ssd_gb: f64,
    /// Estimated completion (`now + walltime`), the backfill planning time.
    pub est_end: f64,
    /// Which invocation phase started the job.
    pub reason: StartReason,
}

/// Callbacks the scheduler core raises as a run unfolds.
///
/// All methods have empty default bodies so observers implement only what
/// they care about. Observers run synchronously inside the invocation;
/// keep them cheap.
pub trait SchedObserver {
    /// A scheduling invocation is starting (the queue is non-empty).
    fn on_invocation_begin(&mut self, _now: f64, _invocation: u64, _queue_len: usize) {}

    /// The scheduling window was built; `window_ids` are the ids of the
    /// member jobs in base-scheduler priority order.
    fn on_window_built(&mut self, _now: f64, _window_ids: &[u64]) {}

    /// A job started (any phase; see [`JobStart::reason`]).
    fn on_job_started(&mut self, _start: &JobStart<'_>) {}

    /// The core made a decision ([`Decision::Start`] fires alongside
    /// [`SchedObserver::on_job_started`]; [`Decision::Reserve`] has no
    /// other callback).
    fn on_decision(&mut self, _now: f64, _decision: &Decision) {}

    /// The driver reported a job's completion.
    fn on_job_finished(&mut self, _now: f64, _job: &Job, _demand: &JobDemand) {}

    /// The backfill phase of this invocation finished. `algorithm` is
    /// `"EASY"` or `"conservative"`. `started` counts only jobs the pass
    /// itself credited as backfilled (the head of the queue starting
    /// because capacity freed up is not credited, matching the paper's
    /// accounting).
    fn on_backfill_pass(&mut self, _now: f64, _algorithm: &'static str, _started: usize) {}

    /// The scheduling invocation finished; `started` is the total number
    /// of jobs started by all phases of this invocation.
    fn on_invocation_end(&mut self, _now: f64, _started: usize) {}

    /// The driver declared the event stream over (the simulator: its
    /// event loop ran dry).
    fn on_sim_end(&mut self, _makespan: f64, _invocations: u64) {}
}

/// The core's first observer: collects [`JobRecord`]s and the run
/// counters, reproducing the historical `Simulator::run` result exactly.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    records: Vec<JobRecord>,
    makespan: f64,
    invocations: u64,
    backfilled: usize,
    starvation_forced: usize,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records collected so far (start order within the run, unsorted).
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Packages the collected stream as a [`SimResult`]. Records are
    /// sorted by `(start, id)` exactly as the monolithic loop did.
    pub fn into_result(
        mut self,
        policy: String,
        base: String,
        system: SystemConfig,
        clamped_jobs: usize,
    ) -> SimResult {
        self.records.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.id.cmp(&b.id)));
        SimResult {
            policy,
            base,
            system,
            records: self.records,
            makespan: self.makespan,
            invocations: self.invocations,
            clamped_jobs,
            backfilled: self.backfilled,
            starvation_forced: self.starvation_forced,
        }
    }
}

impl SchedObserver for Recorder {
    fn on_invocation_begin(&mut self, _now: f64, _invocation: u64, _queue_len: usize) {
        self.invocations += 1;
    }

    fn on_job_started(&mut self, start: &JobStart<'_>) {
        let job = start.job;
        self.records.push(JobRecord {
            id: job.id,
            submit: job.submit,
            start: start.now,
            end: start.now + job.runtime,
            runtime: job.runtime,
            walltime: job.walltime,
            nodes: start.demand.nodes,
            bb_gb: start.demand.bb_gb,
            ssd_gb_per_node: start.demand.ssd_gb_per_node,
            extra: start.demand.extra,
            assignment: start.assignment,
            wasted_ssd_gb: start.wasted_ssd_gb,
            reason: start.reason,
        });
        if start.reason == StartReason::Starvation {
            self.starvation_forced += 1;
        }
    }

    fn on_job_finished(&mut self, now: f64, _job: &Job, _demand: &JobDemand) {
        self.makespan = self.makespan.max(now);
    }

    fn on_backfill_pass(&mut self, _now: f64, _algorithm: &'static str, started: usize) {
        self.backfilled += started;
    }
}

/// Captures the canonical decision stream: one [`Decision::json_line`]
/// per decision, in the order the core made them. Attaching one of these
/// to the simulator yields the exact byte stream `cli replay` prints for
/// the equivalent event file — the driver-equivalence suites diff the
/// two.
#[derive(Clone, Debug, Default)]
pub struct DecisionLog {
    lines: Vec<String>,
}

impl DecisionLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The captured decision lines, in decision order.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Consumes the log, returning the lines.
    pub fn into_lines(self) -> Vec<String> {
        self.lines
    }
}

impl SchedObserver for DecisionLog {
    fn on_decision(&mut self, now: f64, decision: &Decision) {
        self.lines.push(decision.json_line(now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_counts_reasons_and_backfill_credit() {
        let mut r = Recorder::new();
        let job = Job::new(3, 1.0, 4, 10.0, 20.0);
        let demand = JobDemand::cpu_bb(4, 0.0);
        for reason in [StartReason::Policy, StartReason::Starvation, StartReason::Backfill] {
            r.on_job_started(&JobStart {
                now: 5.0,
                job: &job,
                demand,
                assignment: NodeAssignment::default(),
                wasted_ssd_gb: 0.0,
                est_end: 25.0,
                reason,
            });
        }
        // Backfill credit comes from the pass callback, not the reason.
        r.on_backfill_pass(5.0, "EASY", 2);
        r.on_invocation_begin(5.0, 1, 3);
        r.on_job_finished(15.0, &job, &demand);
        let result = r.into_result("p".into(), "FCFS".into(), test_system(), 0);
        assert_eq!(result.records.len(), 3);
        assert_eq!(result.starvation_forced, 1);
        assert_eq!(result.backfilled, 2);
        assert_eq!(result.invocations, 1);
        assert_eq!(result.makespan, 15.0);
    }

    #[test]
    fn decision_log_captures_json_lines_in_order() {
        let mut log = DecisionLog::new();
        let start = Decision::Start { idx: 0, id: 1, reason: StartReason::Policy, est_end: 10.0 };
        let reserve = Decision::Reserve { idx: 1, id: 2, at: 10.0 };
        log.on_decision(0.0, &start);
        log.on_decision(0.0, &reserve);
        assert_eq!(log.lines().len(), 2);
        assert_eq!(log.lines()[0], start.json_line(0.0));
        assert_eq!(log.lines()[1], reserve.json_line(0.0));
        assert_eq!(log.into_lines().len(), 2);
    }

    fn test_system() -> SystemConfig {
        SystemConfig {
            name: "t".into(),
            nodes: 8,
            bb_gb: 10.0,
            bb_reserved_gb: 0.0,
            nodes_128: 0,
            nodes_256: 0,
            extra_resources: Vec::new(),
        }
    }
}
