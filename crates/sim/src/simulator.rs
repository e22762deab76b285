//! Simulation configuration and the trace-driven [`Simulator`] facade.
//!
//! The discrete-event mechanics live in [`crate::engine`]; the scheduling
//! logic itself lives in the service core (`bbsched-sched`). This module
//! holds what surrounds them: [`SimConfig`] (validated up front, converted
//! to a [`bbsched_sched::SchedConfig`] for the core), demand clamping
//! against machine capacity via [`bbsched_sched::clamp_demand`], and
//! [`Simulator`] — the compatibility wrapper that wires a
//! [`bbsched_workloads::Trace`] into the engine with a [`crate::Recorder`]
//! attached and returns the classic [`SimResult`]. Additional observers
//! ride along via [`Simulator::run_observed`].

use crate::engine::{Arrival, Engine};
use crate::{Recorder, SimError, SimObserver, SimResult};
use bbsched_core::problem::JobDemand;
use bbsched_core::window::WindowConfig;
use bbsched_policies::SelectionPolicy;
use bbsched_sched::{
    clamp_demand, BackfillAlgorithm, BackfillScope, BaseScheduler, DynamicWindow, SchedConfig,
};
use bbsched_workloads::{SystemConfig, Trace};

/// Simulator configuration: the core's [`SchedConfig`] knobs plus the
/// simulator-only `clamp_impossible` trace-intake policy.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Base scheduler ordering the queue (FCFS for Cori, WFP for Theta).
    pub base: BaseScheduler,
    /// Window size and starvation bound (§3.1).
    pub window: WindowConfig,
    /// Clamp jobs whose demand exceeds total capacity instead of erroring.
    /// This governs trace intake only and never reaches the core (the
    /// online replay driver always clamps).
    pub clamp_impossible: bool,
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
    /// The core configuration this simulator configuration describes —
    /// everything except `clamp_impossible`, which is trace-intake policy,
    /// not scheduling policy.
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

    /// Validates the whole configuration. Called by [`Simulator::new`] and
    /// [`Engine::new`], so an invalid config is a typed [`SimError`], never
    /// a mid-simulation panic.
    pub fn validate(&self) -> Result<(), SimError> {
        self.sched().validate()
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        let core = SchedConfig::default();
        Self {
            base: core.base,
            window: core.window,
            clamp_impossible: true,
            max_backfill_scan: core.max_backfill_scan,
            backfill: core.backfill,
            backfill_algorithm: core.backfill_algorithm,
            dynamic_window: core.dynamic_window,
        }
    }
}

/// The trace-driven cluster simulator. Construct with [`Simulator::new`],
/// consume with [`Simulator::run`] (or [`Simulator::run_observed`] to
/// attach extra observers).
///
/// This is a compatibility facade over the driver API: it clamps the
/// trace's demands to machine capacity, streams the jobs into an
/// [`Engine`] (a discrete-event driver of the scheduler-service core)
/// with a [`Recorder`] attached, and packages the recording as the
/// classic [`SimResult`]. Code that needs finer-grained control — online
/// submission, custom completion sources, raw decision streams — should
/// drive [`bbsched_sched::SchedCore`] directly or use
/// [`bbsched_sched::Replayer`].
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
    /// Jobs whose demand can never fit the machine make the queue head
    /// unschedulable and would deadlock any non-backfilling path; they are
    /// clamped to capacity when `cfg.clamp_impossible` is set (the count is
    /// reported in the result) and rejected with an error otherwise.
    pub fn new(system: &SystemConfig, trace: &'t Trace, cfg: SimConfig) -> Result<Self, SimError> {
        system.validate()?;
        cfg.validate()?;
        let mut clamped = 0usize;
        let mut demands = Vec::with_capacity(trace.len());
        for job in trace.jobs() {
            let (d, job_clamped) = clamp_demand(system, job);
            if job_clamped {
                if !cfg.clamp_impossible {
                    return Err(SimError::ImpossibleJob {
                        id: job.id,
                        system: system.name.clone(),
                        nodes: job.nodes,
                        bb_gb: job.bb_gb,
                        ssd_gb_per_node: job.ssd_gb_per_node,
                    });
                }
                clamped += 1;
            }
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

    /// The trace's arrivals (job + clamped demand) in submit order.
    fn arrivals(&self) -> impl Iterator<Item = Arrival> + '_ {
        self.trace
            .jobs()
            .iter()
            .cloned()
            .zip(self.demands.iter().copied())
            .map(|(job, demand)| Arrival { job, demand })
    }

    /// Runs the simulation to completion under the given selection policy.
    /// Takes `&self`, so one prepared simulator (trace clamped once) can
    /// run many policies — the `compare` grid shares it by reference.
    pub fn run(&self, policy: Box<dyn SelectionPolicy>) -> SimResult {
        self.run_observed(policy, &mut [])
    }

    /// Runs the simulation with extra [`SimObserver`]s attached alongside
    /// the result-collecting [`Recorder`].
    pub fn run_observed(
        &self,
        policy: Box<dyn SelectionPolicy>,
        extra: &mut [&mut dyn SimObserver],
    ) -> SimResult {
        let policy_name = policy.name().to_string();
        let mut recorder = Recorder::new();
        {
            let mut observers: Vec<&mut dyn SimObserver> = Vec::with_capacity(1 + extra.len());
            observers.push(&mut recorder);
            for o in extra.iter_mut() {
                observers.push(&mut **o);
            }
            let engine = Engine::new(&self.system, self.cfg.clone(), policy, observers)
                .expect("configuration validated at construction");
            let summary = engine.run(self.arrivals());
            debug_assert_eq!(summary.jobs, self.trace.len(), "every job must run exactly once");
        }
        recorder.into_result(
            policy_name,
            self.cfg.base.name().to_string(),
            self.system.clone(),
            self.clamped,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsched_policies::{GaParams, PolicyKind};
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
    fn impossible_job_errors_without_clamping() {
        let sys = system(10, 1.0);
        let jobs = vec![Job::new(0, 0.0, 100, 10.0, 10.0)];
        let trace = Trace::from_jobs(jobs).unwrap();
        let cfg = SimConfig { clamp_impossible: false, ..SimConfig::default() };
        assert!(Simulator::new(&sys, &trace, cfg).is_err());
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
            Err(SimError::InvalidDynamicWindow(msg)) => {
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
                matches!(d.validate(), Err(SimError::InvalidDynamicWindow(_))),
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
