//! Simulator invariants checked from the outside, through [`SchedObserver`]
//! callbacks only: allocation conservation (every allocation is freed by
//! the end) and availability bounds (free resources never go negative,
//! never exceed capacity) hold at every observable instant.
//!
//! The observer mirrors the engine's pool with its own shadow
//! [`PoolState`], replaying each start/finish exactly as announced. Since
//! the replay sees the same alloc/free sequence the engine performed, the
//! greedy flavour assignment must also match — asserted per start.

use bbsched_core::pools::{NodeAssignment, PoolState};
use bbsched_core::problem::JobDemand;
use bbsched_policies::{GaParams, PolicyKind};
use bbsched_sched::{JobStart, SchedObserver};
use bbsched_sim::{BackfillAlgorithm, BaseScheduler, SimConfig, Simulator};
use bbsched_workloads::{generate, GeneratorConfig, Job, MachineProfile, SystemConfig, Trace};

/// Shadows the engine's resource accounting from observer callbacks alone
/// and asserts the conservation laws at every transition.
struct ConservationObserver {
    shadow: PoolState,
    capacity: PoolState,
    /// Live allocations: (job id, demand, assignment) as announced.
    outstanding: Vec<(u64, JobDemand, NodeAssignment)>,
    starts: usize,
    finishes: usize,
    sim_ended: bool,
}

impl ConservationObserver {
    fn new(system: &SystemConfig) -> Self {
        let pool = system.pool_state();
        Self {
            shadow: pool,
            capacity: pool,
            outstanding: Vec::new(),
            starts: 0,
            finishes: 0,
            sim_ended: false,
        }
    }

    fn check_bounds(&self, when: &str) {
        for r in 0..self.shadow.num_resources() {
            let free = self.shadow.free_of(r);
            let cap = self.capacity.free_of(r);
            assert!(free >= -1e-6, "{when}: resource {r} went negative ({free})");
            assert!(free <= cap + 1e-6, "{when}: resource {r} free {free} exceeds capacity {cap}");
        }
    }
}

impl SchedObserver for ConservationObserver {
    fn on_job_started(&mut self, start: &JobStart<'_>) {
        self.starts += 1;
        assert!(
            self.shadow.fits(&start.demand),
            "engine started job {} without room for it",
            start.job.id
        );
        let asn = self.shadow.alloc(&start.demand);
        assert_eq!(
            asn, start.assignment,
            "engine's flavour assignment diverged from the shadow replay (job {})",
            start.job.id
        );
        self.outstanding.push((start.job.id, start.demand, asn));
        self.check_bounds("after start");
        assert!(start.est_end >= start.now, "est_end precedes start");
        assert!(start.wasted_ssd_gb >= 0.0, "negative waste");
    }

    fn on_job_finished(&mut self, _now: f64, job: &Job, demand: &JobDemand) {
        self.finishes += 1;
        let pos = self
            .outstanding
            .iter()
            .position(|(id, _, _)| *id == job.id)
            .expect("finish without matching start");
        let (_, d, asn) = self.outstanding.swap_remove(pos);
        assert_eq!(&d, demand, "finish reports a different demand than the start");
        self.shadow.free(&d, asn);
        self.check_bounds("after finish");
    }

    fn on_sim_end(&mut self, _makespan: f64, _invocations: u64) {
        self.sim_ended = true;
        assert!(
            self.outstanding.is_empty(),
            "{} allocations never freed: {:?}",
            self.outstanding.len(),
            self.outstanding.iter().map(|(id, _, _)| *id).collect::<Vec<_>>()
        );
        assert_eq!(self.starts, self.finishes, "start/finish counts diverge");
        for r in 0..self.shadow.num_resources() {
            let free = self.shadow.free_of(r);
            let cap = self.capacity.free_of(r);
            assert!(
                (free - cap).abs() <= 1e-6,
                "resource {r} leaked: free {free} != capacity {cap}"
            );
        }
    }
}

fn run_with_observer(system: &SystemConfig, trace: &Trace, cfg: SimConfig, kind: PolicyKind) {
    let mut obs = ConservationObserver::new(system);
    let sim = Simulator::new(system, trace, cfg).unwrap();
    let ga = GaParams { generations: 15, ..GaParams::default() };
    let result = sim.run_observed(kind.build(ga), &mut [&mut obs]);
    assert!(obs.sim_ended, "on_sim_end never fired");
    assert_eq!(obs.starts, trace.len(), "every job starts exactly once");
    assert_eq!(result.records.len(), trace.len());
}

#[test]
fn conservation_holds_on_contended_cori_trace() {
    let profile = MachineProfile::cori().scaled(0.05);
    let trace = generate(
        &profile,
        &GeneratorConfig { n_jobs: 80, seed: 77, load_factor: 1.4, ..Default::default() },
    );
    for algo in [BackfillAlgorithm::Easy, BackfillAlgorithm::Conservative] {
        let cfg = SimConfig { backfill_algorithm: algo, ..SimConfig::default() };
        run_with_observer(&profile.system, &trace, cfg, PolicyKind::BbSched);
    }
}

#[test]
fn conservation_holds_under_wfp_and_queue_scope() {
    let profile = MachineProfile::theta().scaled(0.05);
    let trace = generate(
        &profile,
        &GeneratorConfig { n_jobs: 80, seed: 13, load_factor: 1.3, ..Default::default() },
    );
    let cfg = SimConfig {
        base: BaseScheduler::Wfp,
        backfill: bbsched_sim::BackfillScope::Queue,
        ..SimConfig::default()
    };
    run_with_observer(&profile.system, &trace, cfg, PolicyKind::BinPacking);
}

#[test]
fn conservation_holds_on_heterogeneous_ssd_system() {
    let system = SystemConfig {
        name: "ssd-invariant".into(),
        nodes: 16,
        bb_gb: 10_000.0,
        bb_reserved_gb: 500.0,
        nodes_128: 8,
        nodes_256: 8,
        extra_resources: Vec::new(),
    };
    let jobs: Vec<Job> = (0..60u64)
        .map(|i| {
            Job::new(i, i as f64 * 25.0, 1 + (i % 8) as u32, 200.0 + (i % 6) as f64 * 90.0, 900.0)
                .with_ssd(match i % 3 {
                    0 => 0.0,
                    1 => 100.0,
                    _ => 200.0,
                })
                .with_bb(if i % 4 == 0 { 1_500.0 } else { 0.0 })
        })
        .collect();
    let trace = Trace::from_jobs(jobs).unwrap();
    run_with_observer(&system, &trace, SimConfig::default(), PolicyKind::WeightedBb);
}
