//! The trace-driven [`Simulator`]: configuration, demand clamping, and
//! the discrete-event loop that drives the scheduler-service core.
//!
//! The scheduling logic lives in the core
//! ([`bbsched_sched::SchedCore`]): it owns the queue, the ledger, the
//! backfill discipline, starvation bookkeeping and the policy, and decides
//! *what* to do at each invocation. The simulator owns *when*: it
//! advances virtual time along the merged stream of trace arrivals and
//! completions, feeds both into the core, and applies the core's
//! [`Decision::Start`]s by scheduling completion events at
//! `start + runtime`. Everything observable flows out through
//! [`SchedObserver`] callbacks; a [`Recorder`] rebuilds the classic
//! [`SimResult`], and [`Simulator::run_observed`] attaches more observers
//! beside it. The online replay driver ([`bbsched_sched::Replayer`],
//! surfaced as `bbsched serve`) drives the same core from an event file
//! and produces byte-identical decisions.
//!
//! Events at the same instant are drained as one batch before the
//! invocation runs, so the schedule depends only on the set of
//! same-instant events, never on their internal order.

use bbsched_core::problem::JobDemand;
use bbsched_core::window::WindowConfig;
use bbsched_policies::SelectionPolicy;
use bbsched_sched::{
    clamp_demand, BackfillAlgorithm, BackfillScope, BaseScheduler, Decision, DynamicWindow,
    Recorder, SchedConfig, SchedCore, SchedError, SchedObserver, SimResult,
};
use bbsched_workloads::{SystemConfig, Trace};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulator configuration: the core's [`SchedConfig`] knobs.
#[derive(Clone, Debug)]
pub struct SimConfig {
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

impl SimConfig {
    /// The core configuration this simulator configuration describes.
    pub fn sched(&self) -> SchedConfig {
        SchedConfig {
            base: self.base,
            window: self.window,
            max_backfill_scan: self.max_backfill_scan,
            backfill: self.backfill,
            backfill_algorithm: self.backfill_algorithm,
            dynamic_window: self.dynamic_window,
        }
    }

    /// Validates the whole configuration. Called by [`Simulator::new`],
    /// so an invalid config is a typed [`SchedError`], never a
    /// mid-simulation panic.
    pub fn validate(&self) -> Result<(), SchedError> {
        self.sched().validate()
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        let core = SchedConfig::default();
        Self {
            base: core.base,
            window: core.window,
            max_backfill_scan: core.max_backfill_scan,
            backfill: core.backfill,
            backfill_algorithm: core.backfill_algorithm,
            dynamic_window: core.dynamic_window,
        }
    }
}

/// A completion event. Arrivals are not events — they come from the
/// trace in submit order; only finishes need the heap, ordered by
/// `(time, seq)`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Finish {
    time: f64,
    seq: u64,
    idx: usize,
}

impl Eq for Finish {}

impl Ord for Finish {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.total_cmp(&other.time).then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Finish {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The trace-driven cluster simulator. Construct with [`Simulator::new`],
/// consume with [`Simulator::run`] (or [`Simulator::run_observed`] to
/// attach extra observers).
///
/// It clamps the trace's demands to machine capacity once, then runs the
/// discrete-event loop over a fresh [`SchedCore`] per run with a
/// [`Recorder`] attached, and packages the recording as the classic
/// [`SimResult`]. Code that needs finer-grained control — online
/// submission, custom completion sources, raw decision streams — should
/// drive [`SchedCore`] directly or use [`bbsched_sched::Replayer`].
pub struct Simulator<'t> {
    system: SystemConfig,
    trace: &'t Trace,
    cfg: SimConfig,
    /// Per-job demand after capacity clamping.
    demands: Vec<JobDemand>,
    clamped: usize,
}

impl<'t> Simulator<'t> {
    /// Prepares a simulation of `trace` on `system`.
    ///
    /// Jobs whose demand can never fit the machine would make the queue
    /// head unschedulable and deadlock any non-backfilling path; they are
    /// clamped to capacity (see [`clamp_demand`]) and counted in the
    /// result's `clamped_jobs`.
    pub fn new(
        system: &SystemConfig,
        trace: &'t Trace,
        cfg: SimConfig,
    ) -> Result<Self, SchedError> {
        system.validate()?;
        cfg.validate()?;
        let mut clamped = 0usize;
        let mut demands = Vec::with_capacity(trace.len());
        for job in trace.jobs() {
            let (d, job_clamped) = clamp_demand(system, job);
            clamped += usize::from(job_clamped);
            demands.push(d);
        }
        Ok(Self { system: system.clone(), trace, cfg, demands, clamped })
    }

    /// The capacity-clamped demand of each trace job, in trace order.
    pub fn demands(&self) -> &[JobDemand] {
        &self.demands
    }

    /// How many jobs required clamping.
    pub fn clamped_jobs(&self) -> usize {
        self.clamped
    }

    /// Runs the simulation to completion under the given selection policy.
    /// Takes `&self`, so one prepared simulator (trace clamped once) can
    /// run many policies — the `compare` grid shares it by reference.
    pub fn run(&self, policy: Box<dyn SelectionPolicy>) -> SimResult {
        self.run_observed(policy, &mut [])
    }

    /// Runs the simulation with extra [`SchedObserver`]s attached
    /// alongside the result-collecting [`Recorder`].
    pub fn run_observed(
        &self,
        policy: Box<dyn SelectionPolicy>,
        extra: &mut [&mut dyn SchedObserver],
    ) -> SimResult {
        let policy_name = policy.name().to_string();
        let mut recorder = Recorder::new();
        {
            let mut observers: Vec<&mut dyn SchedObserver> = Vec::with_capacity(1 + extra.len());
            observers.push(&mut recorder);
            for o in extra.iter_mut() {
                observers.push(&mut **o);
            }
            let core = SchedCore::new(&self.system, self.cfg.sched(), policy, observers)
                .expect("configuration validated at construction");
            self.drive(core);
        }
        recorder.into_result(
            policy_name,
            self.cfg.base.name().to_string(),
            self.system.clone(),
            self.clamped,
        )
    }

    /// The discrete-event loop: admits the trace's arrivals and applies
    /// completions instant by instant, one invocation per instant, until
    /// both run dry; then checks the drain invariants and fires
    /// `on_sim_end`.
    ///
    /// # Panics
    /// Panics if arrivals regress in time or reuse a job id, or (via the
    /// ledger) on any resource-conservation violation.
    fn drive(&self, mut core: SchedCore<'_>) {
        let mut arrivals = self.trace.jobs().iter().zip(&self.demands).peekable();
        let mut finishes: BinaryHeap<Reverse<Finish>> = BinaryHeap::new();
        let mut seq = 0u64;
        // Start indices of the current invocation (reused buffer).
        let mut started: Vec<usize> = Vec::new();
        let mut last_submit = f64::NEG_INFINITY;
        let mut makespan = 0.0f64;
        loop {
            // The next instant is the earlier of the next arrival and the
            // next completion; the batch drain makes within-instant order
            // immaterial.
            let next_arrival = arrivals.peek().map(|(job, _)| job.submit);
            let next_finish = finishes.peek().map(|Reverse(f)| f.time);
            let now = match (next_arrival, next_finish) {
                (None, None) => break,
                (Some(a), None) => a,
                (None, Some(f)) => f,
                (Some(a), Some(f)) => a.min(f),
            };

            // Admit every arrival at this instant.
            while let Some((job, &demand)) = arrivals.next_if(|(job, _)| job.submit <= now) {
                assert!(
                    job.submit >= last_submit,
                    "arrivals must be sorted by submit time (job {} at {} after {})",
                    job.id,
                    job.submit,
                    last_submit
                );
                last_submit = job.submit;
                core.submit(job.clone(), demand).expect("trace reused a job id");
            }

            // Apply every completion at this instant.
            while finishes.peek().is_some_and(|Reverse(f)| f.time <= now) {
                let Reverse(f) = finishes.pop().expect("peeked finish vanished");
                let id = core.job(f.idx).id;
                core.job_finished(id, now).expect("completion event for a job not running");
                makespan = makespan.max(now);
            }

            // One scheduling invocation (a no-op on an empty queue);
            // apply its start decisions as future completion events.
            started.clear();
            started.extend(core.invoke(now).iter().filter_map(|d| match *d {
                Decision::Start { idx, .. } => Some(idx),
                Decision::Reserve { .. } => None,
            }));
            for &idx in &started {
                let time = now + core.job(idx).runtime;
                finishes.push(Reverse(Finish { time, seq, idx }));
                seq += 1;
            }
        }
        core.assert_drained();
        debug_assert_eq!(
            core.queue_len(),
            0,
            "{} jobs left waiting at drain (dependency cycle?)",
            core.queue_len()
        );
        debug_assert_eq!(
            core.jobs_submitted(),
            self.trace.len(),
            "every job must run exactly once"
        );
        core.end_of_stream(makespan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsched_policies::{GaParams, PolicyKind};
    use bbsched_sched::JobStart;
    use bbsched_workloads::Job;

    fn system(nodes: u32, bb_tb: f64) -> SystemConfig {
        SystemConfig {
            name: "test".into(),
            nodes,
            bb_gb: bb_tb * 1000.0,
            bb_reserved_gb: 0.0,
            nodes_128: 0,
            nodes_256: 0,
            extra_resources: Vec::new(),
        }
    }

    fn run_jobs(jobs: Vec<Job>, sys: &SystemConfig, kind: PolicyKind) -> SimResult {
        let trace = Trace::from_jobs(jobs).unwrap();
        let cfg = SimConfig::default();
        let ga = GaParams { generations: 60, ..GaParams::default() };
        Simulator::new(sys, &trace, cfg).unwrap().run(kind.build(ga))
    }

    #[test]
    fn single_job_runs_immediately() {
        let sys = system(10, 10.0);
        let r = run_jobs(vec![Job::new(0, 5.0, 4, 100.0, 200.0)], &sys, PolicyKind::Baseline);
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.records[0].start, 5.0);
        assert_eq!(r.records[0].end, 105.0);
        assert_eq!(r.makespan, 105.0);
    }

    #[test]
    fn jobs_queue_when_resources_busy() {
        let sys = system(10, 10.0);
        let jobs = vec![Job::new(0, 0.0, 10, 100.0, 100.0), Job::new(1, 1.0, 10, 50.0, 50.0)];
        let r = run_jobs(jobs, &sys, PolicyKind::Baseline);
        let j1 = r.records.iter().find(|x| x.id == 1).unwrap();
        assert_eq!(j1.start, 100.0, "second job must wait for the first");
    }

    #[test]
    fn burst_buffer_is_a_real_constraint() {
        let sys = system(100, 10.0);
        let jobs = vec![
            Job::new(0, 0.0, 10, 100.0, 100.0).with_bb(8_000.0),
            Job::new(1, 1.0, 10, 100.0, 100.0).with_bb(8_000.0),
        ];
        let r = run_jobs(jobs, &sys, PolicyKind::Baseline);
        let j1 = r.records.iter().find(|x| x.id == 1).unwrap();
        assert_eq!(j1.start, 100.0, "BB contention must serialize the jobs");
    }

    #[test]
    fn easy_backfill_starts_small_job() {
        let sys = system(10, 10.0);
        let jobs = vec![
            Job::new(0, 0.0, 8, 100.0, 100.0),  // leaves 2 nodes free
            Job::new(1, 1.0, 10, 100.0, 100.0), // head: must wait to t=100
            Job::new(2, 2.0, 2, 50.0, 50.0),    // fits now, ends at 52 < 100
        ];
        let r = run_jobs(jobs, &sys, PolicyKind::Baseline);
        let j2 = r.records.iter().find(|x| x.id == 2).unwrap();
        assert_eq!(j2.start, 2.0, "small job should backfill immediately");
        let j1 = r.records.iter().find(|x| x.id == 1).unwrap();
        assert_eq!(j1.start, 100.0, "head must not be delayed by backfill");
        assert!(r.backfilled >= 1);
    }

    #[test]
    fn backfill_never_delays_head() {
        let sys = system(10, 10.0);
        // Job 2's walltime (80) would run past the shadow (100) and it
        // needs 5 nodes, but the head needs all 10 at t=100: no leftover.
        let jobs = vec![
            Job::new(0, 0.0, 10, 100.0, 100.0),
            Job::new(1, 1.0, 10, 100.0, 100.0),
            Job::new(2, 2.0, 5, 80.0, 150.0),
        ];
        let r = run_jobs(jobs, &sys, PolicyKind::Baseline);
        let j1 = r.records.iter().find(|x| x.id == 1).unwrap();
        let j2 = r.records.iter().find(|x| x.id == 2).unwrap();
        assert_eq!(j1.start, 100.0);
        assert!(j2.start >= 100.0, "walltime-crossing backfill must not start");
    }

    #[test]
    fn backfill_uses_leftover_when_head_leaves_room() {
        let sys = system(10, 10.0);
        // Head needs only 6 nodes at shadow; a 4-node long job can coexist.
        let jobs = vec![
            Job::new(0, 0.0, 6, 100.0, 100.0), // leaves 4 nodes free
            Job::new(1, 1.0, 6, 100.0, 100.0), // head: 6 > 4, waits to t=100
            Job::new(2, 2.0, 4, 500.0, 500.0), // crosses shadow, fits leftover
        ];
        let r = run_jobs(jobs, &sys, PolicyKind::Baseline);
        let j2 = r.records.iter().find(|x| x.id == 2).unwrap();
        assert_eq!(j2.start, 2.0, "leftover-fitting backfill should start now");
        let j1 = r.records.iter().find(|x| x.id == 1).unwrap();
        assert_eq!(j1.start, 100.0);
    }

    #[test]
    fn dependencies_hold_jobs_out_of_the_window() {
        let sys = system(10, 10.0);
        let jobs = vec![
            Job::new(0, 0.0, 2, 100.0, 100.0),
            Job::new(1, 1.0, 2, 50.0, 50.0).with_deps(vec![0]),
        ];
        let r = run_jobs(jobs, &sys, PolicyKind::Baseline);
        let j1 = r.records.iter().find(|x| x.id == 1).unwrap();
        assert!(j1.start >= 100.0, "dependent job must wait for completion");
    }

    #[test]
    fn all_jobs_complete_under_every_policy() {
        let sys = system(64, 100.0);
        let jobs: Vec<Job> = (0..40)
            .map(|i| {
                Job::new(
                    i,
                    i as f64 * 3.0,
                    1 + (i % 32) as u32,
                    60.0 + (i % 7) as f64 * 30.0,
                    400.0,
                )
                .with_bb(if i % 3 == 0 { 20_000.0 } else { 0.0 })
            })
            .collect();
        for kind in PolicyKind::main_roster() {
            let r = run_jobs(jobs.clone(), &sys, kind);
            assert_eq!(r.records.len(), 40, "{}", kind.name());
            for rec in &r.records {
                assert!(rec.start >= rec.submit, "{}", kind.name());
                assert!((rec.end - rec.start - rec.runtime).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn deterministic_runs() {
        let sys = system(32, 50.0);
        let jobs: Vec<Job> =
            (0..30).map(|i| Job::new(i, i as f64, 1 + (i % 16) as u32, 100.0, 200.0)).collect();
        let a = run_jobs(jobs.clone(), &sys, PolicyKind::BbSched);
        let b = run_jobs(jobs, &sys, PolicyKind::BbSched);
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn impossible_job_is_clamped_and_completes() {
        let sys = system(10, 1.0);
        let jobs = vec![Job::new(0, 0.0, 100, 10.0, 10.0).with_bb(9_999.0)];
        let trace = Trace::from_jobs(jobs).unwrap();
        let sim = Simulator::new(&sys, &trace, SimConfig::default()).unwrap();
        assert_eq!(sim.clamped_jobs(), 1);
        assert_eq!(sim.demands()[0].nodes, 10, "demand clamped to capacity");
        let r = sim.run(PolicyKind::Baseline.build(GaParams::default()));
        assert_eq!(r.clamped_jobs, 1);
        assert_eq!(r.records.len(), 1);
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
        let sys = system(4, 1.0);
        let jobs = (0..12u64).map(|i| Job::new(i, i as f64, 2, 20.0, 40.0)).collect();
        let trace = Trace::from_jobs(jobs).unwrap();
        let sim = Simulator::new(&sys, &trace, SimConfig::default()).unwrap();
        let (mut first, mut second) = (Counter::default(), Counter::default());
        let r = sim.run_observed(
            PolicyKind::Baseline.build(GaParams::default()),
            &mut [&mut first, &mut second],
        );
        for counter in [&first, &second] {
            assert_eq!(counter.starts, 12);
            assert_eq!(counter.finishes, 12);
            assert_eq!(counter.sim_ends, 1);
            assert_eq!(counter.windows as u64, r.invocations);
        }
        assert_eq!(r.records.len(), first.starts);
    }

    #[test]
    fn wfp_base_runs_clean() {
        let sys = system(32, 10.0);
        let jobs: Vec<Job> = (0..20)
            .map(|i| Job::new(i, i as f64 * 5.0, 4 + (i % 4) as u32 * 8, 200.0, 400.0))
            .collect();
        let trace = Trace::from_jobs(jobs).unwrap();
        let cfg = SimConfig { base: BaseScheduler::Wfp, ..SimConfig::default() };
        let r = Simulator::new(&sys, &trace, cfg)
            .unwrap()
            .run(PolicyKind::Baseline.build(GaParams::default()));
        assert_eq!(r.records.len(), 20);
        assert_eq!(r.base, "WFP");
    }

    #[test]
    fn ssd_system_accounts_waste() {
        let sys = SystemConfig {
            name: "ssd".into(),
            nodes: 8,
            bb_gb: 1_000.0,
            bb_reserved_gb: 0.0,
            nodes_128: 4,
            nodes_256: 4,
            extra_resources: Vec::new(),
        };
        let jobs = vec![
            Job::new(0, 0.0, 2, 100.0, 100.0).with_ssd(200.0),
            Job::new(1, 0.0, 2, 100.0, 100.0).with_ssd(64.0),
        ];
        let r = run_jobs(jobs, &sys, PolicyKind::Baseline);
        let j0 = r.records.iter().find(|x| x.id == 0).unwrap();
        assert_eq!(j0.assignment.n256(), 2);
        assert_eq!(j0.wasted_ssd_gb, 2.0 * (256.0 - 200.0));
        let j1 = r.records.iter().find(|x| x.id == 1).unwrap();
        assert_eq!(j1.assignment.n128(), 2);
        assert_eq!(j1.wasted_ssd_gb, 2.0 * (128.0 - 64.0));
    }

    #[test]
    fn dynamic_window_sizing_math() {
        let d = DynamicWindow { min: 10, max: 50, queue_fraction: 0.25 };
        assert_eq!(d.size_for(0), 10);
        assert_eq!(d.size_for(40), 10);
        assert_eq!(d.size_for(100), 25);
        assert_eq!(d.size_for(1_000), 50);
        let tiny = DynamicWindow { min: 0, max: 5, queue_fraction: 0.1 };
        assert_eq!(tiny.size_for(0), 1, "window never collapses to zero");
    }

    #[test]
    fn inverted_dynamic_window_never_panics() {
        // Regression: `target.clamp(min, max)` panicked when min > max.
        // `size_for` must now be total for any inputs.
        let broken = DynamicWindow { min: 50, max: 10, queue_fraction: 0.25 };
        for q in [0usize, 40, 100, 10_000] {
            let size = broken.size_for(q);
            assert!(size >= 1, "queue {q} produced size {size}");
        }
    }

    #[test]
    fn inverted_dynamic_window_rejected_at_construction() {
        let sys = system(10, 10.0);
        let trace = Trace::from_jobs(vec![Job::new(0, 0.0, 1, 1.0, 2.0)]).unwrap();
        let cfg = SimConfig {
            dynamic_window: Some(DynamicWindow { min: 50, max: 10, queue_fraction: 0.25 }),
            ..SimConfig::default()
        };
        match Simulator::new(&sys, &trace, cfg).map(|_| ()) {
            Err(SchedError::InvalidDynamicWindow(msg)) => {
                assert!(msg.contains("min"), "message should name the bad field: {msg}");
            }
            other => panic!("expected InvalidDynamicWindow, got {other:?}"),
        }
    }

    #[test]
    fn bad_queue_fraction_rejected() {
        for frac in [f64::NAN, f64::INFINITY, -0.5] {
            let d = DynamicWindow { min: 1, max: 10, queue_fraction: frac };
            assert!(
                matches!(d.validate(), Err(SchedError::InvalidDynamicWindow(_))),
                "fraction {frac} must be rejected"
            );
        }
    }

    #[test]
    fn dynamic_window_simulation_completes() {
        let sys = system(32, 50.0);
        let jobs: Vec<Job> = (0..60)
            .map(|i| Job::new(i, i as f64 * 2.0, 1 + (i % 16) as u32, 120.0, 240.0))
            .collect();
        let trace = Trace::from_jobs(jobs).unwrap();
        let cfg =
            SimConfig { dynamic_window: Some(DynamicWindow::default()), ..SimConfig::default() };
        let r = Simulator::new(&sys, &trace, cfg)
            .unwrap()
            .run(PolicyKind::BinPacking.build(GaParams::default()));
        assert_eq!(r.records.len(), 60);
    }

    #[test]
    fn conservative_backfill_respects_all_reservations() {
        let sys = system(10, 10.0);
        // Running: 6 nodes until t=100 (est), 4 free. Waiting (FCFS):
        //  A (6 nodes, wall 100)  -> blocked, reserved at t=100
        //  B (4 nodes, wall 300)  -> fits now AND fits A's leftover at the
        //     reservation (10 - 6 = 4), so conservative starts it at t=2.
        //  C (2 nodes, wall 500)  -> 0 nodes free after B starts; and once
        //     A+B hold all 10 nodes from t=100, C cannot start before a
        //     reservation hole opens.
        let jobs = vec![
            Job::new(0, 0.0, 6, 100.0, 100.0),
            Job::new(1, 1.0, 6, 100.0, 100.0),
            Job::new(2, 2.0, 4, 250.0, 300.0),
            Job::new(3, 3.0, 2, 400.0, 500.0),
        ];
        let trace = Trace::from_jobs(jobs).unwrap();
        let cfg = SimConfig {
            backfill_algorithm: BackfillAlgorithm::Conservative,
            ..SimConfig::default()
        };
        let r = Simulator::new(&sys, &trace, cfg)
            .unwrap()
            .run(PolicyKind::Baseline.build(GaParams::default()));
        let start = |id: u64| r.records.iter().find(|x| x.id == id).unwrap().start;
        assert_eq!(start(1), 100.0, "A starts at its reservation");
        assert_eq!(start(2), 2.0, "B fits A's leftover and starts now");
        assert!(
            start(3) >= 100.0,
            "C must not collide with the A+B reservation window (started {})",
            start(3)
        );
        assert_eq!(r.records.len(), 4);
    }

    #[test]
    fn conservative_and_easy_agree_on_uncontended_traces() {
        let sys = system(100, 100.0);
        let jobs: Vec<Job> = (0..20).map(|i| Job::new(i, i as f64 * 5.0, 4, 50.0, 100.0)).collect();
        let trace = Trace::from_jobs(jobs).unwrap();
        let run = |alg| {
            let cfg = SimConfig { backfill_algorithm: alg, ..SimConfig::default() };
            Simulator::new(&sys, &trace, cfg)
                .unwrap()
                .run(PolicyKind::Baseline.build(GaParams::default()))
        };
        let easy = run(BackfillAlgorithm::Easy);
        let cons = run(BackfillAlgorithm::Conservative);
        // Nothing ever blocks, so both disciplines start every job on
        // arrival.
        for (a, b) in easy.records.iter().zip(&cons.records) {
            assert_eq!(a.start, b.start);
        }
    }

    #[test]
    fn starvation_bound_eventually_forces_jobs() {
        // A stream of tiny jobs keeps arriving; one large job would starve
        // under a policy that always prefers the small ones. With the bound
        // it must eventually run.
        let sys = system(10, 10.0);
        let mut jobs = vec![Job::new(0, 0.0, 10, 5.0, 10.0)];
        for i in 1..200 {
            jobs.push(Job::new(i, i as f64 * 0.5, 1, 30.0, 60.0));
        }
        // Large job arrives early but small jobs keep the machine busy.
        jobs.push(Job::new(200, 1.0, 9, 10.0, 20.0));
        let trace = Trace::from_jobs(jobs).unwrap();
        let cfg = SimConfig {
            window: WindowConfig { size: 10, starvation_bound: 5 },
            ..SimConfig::default()
        };
        let r = Simulator::new(&sys, &trace, cfg)
            .unwrap()
            .run(PolicyKind::BinPacking.build(GaParams::default()));
        assert_eq!(r.records.len(), 201);
    }
}
