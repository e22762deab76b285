//! The discrete-event driver: virtual time, and nothing else.
//!
//! [`Engine`] is the first *driver* of the scheduler-service core
//! ([`bbsched_sched::SchedCore`]). The core owns the scheduling state —
//! queue, ledger, backfill strategy, starvation bookkeeping, policy —
//! and decides *what* to do at each invocation; the engine owns *when*:
//! it advances virtual time along the merged stream of arrivals and
//! completions, feeds both into the core, and applies the core's
//! [`Decision::Start`]s by scheduling completion events at
//! `start + runtime`. What it deliberately does *not* own:
//!
//! * **trace storage** — arrivals stream in through any iterator of
//!   [`Arrival`]s sorted by submit time, so multi-day traces never need to
//!   be fully materialized;
//! * **result collection** — everything observable flows out through
//!   [`crate::SimObserver`] callbacks ([`crate::Recorder`] rebuilds the
//!   classic [`crate::SimResult`]);
//! * **scheduling logic** — the six-phase invocation lives in
//!   [`bbsched_sched::SchedCore::invoke`]; the online replay driver
//!   (`bbsched_sched::replay`, surfaced as `cli replay`) drives the same
//!   core from an event file and produces byte-identical decisions.
//!
//! Events at the same instant are drained as one batch before the
//! invocation runs, so the schedule depends only on the set of
//! same-instant events, never on their internal order.

use crate::simulator::SimConfig;
use bbsched_core::problem::JobDemand;
use bbsched_policies::SelectionPolicy;
use bbsched_sched::{Decision, SchedCore, SchedObserver};
use bbsched_workloads::{Job, SystemConfig};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One job entering the simulation: the trace job plus its
/// capacity-clamped demand ([`crate::Simulator::new`] computes the
/// clamping via [`bbsched_sched::clamp_demand`]; standalone engine users
/// supply their own).
#[derive(Clone, Debug)]
pub struct Arrival {
    /// The job as submitted.
    pub job: Job,
    /// The demand the core will allocate (must fit total capacity).
    pub demand: JobDemand,
}

/// A completion event. Arrivals are not events — they stream from the
/// arrival iterator; only finishes need the heap.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Event {
    time: f64,
    seq: u64,
    idx: usize,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.total_cmp(&other.time).then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// What the engine reports when the event loop runs dry. Everything
/// richer (records, counters, metrics) comes through observers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineSummary {
    /// Latest completion time seen.
    pub makespan: f64,
    /// Number of scheduling invocations executed.
    pub invocations: u64,
    /// Number of jobs that arrived (and, absent dependency cycles, ran).
    pub jobs: usize,
}

/// The discrete-event scheduling driver. Construct with [`Engine::new`],
/// drive with [`Engine::run`].
pub struct Engine<'o> {
    core: SchedCore<'o>,
    events: BinaryHeap<Reverse<Event>>,
    seq: u64,
    /// Start indices of the current invocation (reused buffer).
    started: Vec<usize>,
    /// Latest arrival submit time (sortedness guard).
    last_submit: f64,
    /// Latest completion time seen.
    makespan: f64,
}

impl<'o> Engine<'o> {
    /// An engine over `system`'s resources running `policy`, with the
    /// given observers attached. Fails on an invalid system or
    /// configuration.
    pub fn new(
        system: &SystemConfig,
        cfg: SimConfig,
        policy: Box<dyn SelectionPolicy>,
        observers: Vec<&'o mut dyn SchedObserver>,
    ) -> Result<Self, crate::SimError> {
        let core = SchedCore::new(system, cfg.sched(), policy, observers)?;
        Ok(Self {
            core,
            events: BinaryHeap::new(),
            seq: 0,
            started: Vec::new(),
            last_submit: f64::NEG_INFINITY,
            makespan: 0.0,
        })
    }

    /// Runs the simulation to completion: consumes `arrivals` (which MUST
    /// be sorted by submit time — [`bbsched_workloads::Trace`] guarantees
    /// this; streaming sources must too) and drains every completion.
    ///
    /// # Panics
    /// Panics if arrivals regress in time or reuse a job id, or (via the
    /// ledger) on any resource-conservation violation.
    pub fn run(mut self, arrivals: impl IntoIterator<Item = Arrival>) -> EngineSummary {
        let mut arrivals = arrivals.into_iter().peekable();
        loop {
            // The next instant is the earlier of the next arrival and the
            // next completion; the batch drain makes within-instant order
            // immaterial.
            let next_arrival = arrivals.peek().map(|a| a.job.submit);
            let next_finish = self.events.peek().map(|Reverse(e)| e.time);
            let now = match (next_arrival, next_finish) {
                (None, None) => break,
                (Some(a), None) => a,
                (None, Some(f)) => f,
                (Some(a), Some(f)) => a.min(f),
            };

            // Admit every arrival at this instant.
            while arrivals.peek().is_some_and(|a| a.job.submit <= now) {
                let a = arrivals.next().expect("peeked arrival vanished");
                assert!(
                    a.job.submit >= self.last_submit,
                    "arrivals must be sorted by submit time (job {} at {} after {})",
                    a.job.id,
                    a.job.submit,
                    self.last_submit
                );
                self.last_submit = a.job.submit;
                self.core.submit(a.job, a.demand).expect("arrival stream reused a job id");
            }

            // Apply every completion at this instant.
            while self.events.peek().is_some_and(|Reverse(e)| e.time <= now) {
                let Reverse(ev) = self.events.pop().expect("peeked event vanished");
                let id = self.core.job(ev.idx).id;
                self.core.job_finished(id, now).expect("completion event for a job not running");
                self.makespan = self.makespan.max(now);
            }

            // One scheduling invocation (a no-op on an empty queue);
            // apply its start decisions as future completion events.
            self.started.clear();
            self.started.extend(self.core.invoke(now).iter().filter_map(|d| match *d {
                Decision::Start { idx, .. } => Some(idx),
                Decision::Reserve { .. } => None,
            }));
            for i in 0..self.started.len() {
                let idx = self.started[i];
                let end = now + self.core.job(idx).runtime;
                self.events.push(Reverse(Event { time: end, seq: self.seq, idx }));
                self.seq += 1;
            }
        }
        self.finish()
    }

    /// Declares the event stream over: checks the drain invariants, fires
    /// `on_sim_end`, and reports the summary.
    fn finish(mut self) -> EngineSummary {
        self.core.assert_drained();
        debug_assert_eq!(
            self.core.queue_len(),
            0,
            "{} jobs left waiting at drain (dependency cycle?)",
            self.core.queue_len()
        );
        let makespan = self.makespan;
        let invocations = self.core.invocations();
        self.core.end_of_stream(makespan);
        EngineSummary { makespan, invocations, jobs: self.core.jobs_submitted() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsched_policies::{GaParams, PolicyKind};
    use bbsched_sched::{JobStart, Recorder};

    fn system(nodes: u32) -> SystemConfig {
        SystemConfig {
            name: "t".into(),
            nodes,
            bb_gb: 1_000.0,
            bb_reserved_gb: 0.0,
            nodes_128: 0,
            nodes_256: 0,
            extra_resources: Vec::new(),
        }
    }

    fn arrival(id: u64, submit: f64, nodes: u32, runtime: f64) -> Arrival {
        Arrival {
            job: Job::new(id, submit, nodes, runtime, runtime * 2.0),
            demand: JobDemand::cpu_bb(nodes, 0.0),
        }
    }

    fn policy() -> Box<dyn SelectionPolicy> {
        PolicyKind::Baseline.build(GaParams::default())
    }

    #[test]
    fn engine_streams_arrivals_from_iterator() {
        // The arrival source is a lazy generator, never a materialized
        // trace: 50 jobs, one every 2 s, on a 4-node machine.
        let sys = system(4);
        let mut recorder = Recorder::new();
        let engine =
            Engine::new(&sys, SimConfig::default(), policy(), vec![&mut recorder]).unwrap();
        let arrivals = (0..50u64).map(|i| arrival(i, i as f64 * 2.0, 2, 10.0));
        let summary = engine.run(arrivals);
        assert_eq!(summary.jobs, 50);
        assert_eq!(recorder.records().len(), 50);
        assert!(summary.makespan > 0.0);
    }

    #[test]
    fn unsorted_arrivals_panic() {
        let sys = system(4);
        let engine = Engine::new(&sys, SimConfig::default(), policy(), vec![]).unwrap();
        let arrivals = vec![arrival(0, 10.0, 1, 5.0), arrival(1, 3.0, 1, 5.0)];
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run(arrivals)));
        assert!(result.is_err(), "time-regressing arrivals must be rejected");
    }

    #[test]
    fn summary_counts_match_recorder() {
        let sys = system(8);
        let mut recorder = Recorder::new();
        let engine =
            Engine::new(&sys, SimConfig::default(), policy(), vec![&mut recorder]).unwrap();
        let arrivals: Vec<Arrival> = (0..20u64).map(|i| arrival(i, i as f64, 3, 40.0)).collect();
        let summary = engine.run(arrivals);
        let result = recorder.into_result("Baseline".into(), "FCFS".into(), sys.clone(), 0);
        assert_eq!(result.invocations, summary.invocations);
        assert_eq!(result.makespan, summary.makespan);
        assert_eq!(result.records.len(), summary.jobs);
    }

    #[test]
    fn multiple_observers_see_the_same_run() {
        #[derive(Default)]
        struct Counter {
            starts: usize,
            finishes: usize,
            windows: usize,
            sim_ends: usize,
        }
        impl SchedObserver for Counter {
            fn on_job_started(&mut self, _s: &JobStart<'_>) {
                self.starts += 1;
            }
            fn on_job_finished(&mut self, _n: f64, _j: &Job, _d: &JobDemand) {
                self.finishes += 1;
            }
            fn on_window_built(&mut self, _n: f64, _w: &[u64]) {
                self.windows += 1;
            }
            fn on_sim_end(&mut self, _m: f64, _i: u64) {
                self.sim_ends += 1;
            }
        }
        let sys = system(4);
        let mut recorder = Recorder::new();
        let mut counter = Counter::default();
        let engine =
            Engine::new(&sys, SimConfig::default(), policy(), vec![&mut recorder, &mut counter])
                .unwrap();
        let arrivals: Vec<Arrival> = (0..12u64).map(|i| arrival(i, i as f64, 2, 20.0)).collect();
        let summary = engine.run(arrivals);
        assert_eq!(counter.starts, 12);
        assert_eq!(counter.finishes, 12);
        assert_eq!(counter.sim_ends, 1);
        assert_eq!(counter.windows as u64, summary.invocations);
        assert_eq!(recorder.records().len(), counter.starts);
    }
}
