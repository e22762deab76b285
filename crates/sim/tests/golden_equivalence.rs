//! Golden-equivalence harness for the engine refactor.
//!
//! `reference_run` below is a frozen, verbatim transplant of the
//! pre-refactor monolithic `Simulator::run` loop (heap of arrival+finish
//! events, inline phases, `HashMap`-based running set with per-use
//! re-sorting). Every test drives the same trace through the reference and
//! through the new layered engine (`Simulator::run`: the event loop over
//! `SchedCore` with a `Recorder` attached) and asserts the two
//! [`SimResult`]s are **identical** — every record field, every counter.
//!
//! Covered matrix: every main-roster [`PolicyKind`] × {FCFS, WFP} ×
//! {EASY, conservative} on Cori-like and Theta-like synthetic traces,
//! the SSD roster on a heterogeneous-SSD system, plus queue-scoped
//! backfilling and dynamic windows.

use bbsched_core::pools::PoolState;
use bbsched_core::problem::JobDemand;
use bbsched_core::window::fill_window;
use bbsched_core::window::StarvationTracker;
use bbsched_policies::{GaParams, PolicyKind, SelectionPolicy};
use bbsched_sched::{JobRecord, LegacyProfile, StartReason};
use bbsched_sim::{
    BackfillAlgorithm, BackfillScope, BaseScheduler, DynamicWindow, SimConfig, SimResult, Simulator,
};
use bbsched_workloads::{generate, GeneratorConfig, Job, MachineProfile, SystemConfig, Trace};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

const TIME_EPS: f64 = 1e-6;

#[derive(Clone, Copy, Debug, PartialEq)]
enum EventKind {
    Arrive(usize),
    Finish(usize),
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
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

#[derive(Clone, Copy, Debug)]
struct Running {
    est_end: f64,
    demand: JobDemand,
    asn: bbsched_core::pools::NodeAssignment,
}

fn shadow_and_leftover(
    pool: &PoolState,
    running: &HashMap<usize, Running>,
    head: &JobDemand,
    now: f64,
) -> (f64, PoolState) {
    if pool.fits(head) {
        let mut leftover = *pool;
        let _ = leftover.alloc(head);
        return (now, leftover);
    }
    let mut run_list: Vec<(&usize, &Running)> = running.iter().collect();
    run_list.sort_by(|(ia, a), (ib, b)| a.est_end.total_cmp(&b.est_end).then(ia.cmp(ib)));
    let mut future = *pool;
    for (_, r) in run_list {
        future.free(&r.demand, r.asn);
        if future.fits(head) {
            let mut leftover = future;
            let _ = leftover.alloc(head);
            return (r.est_end, leftover);
        }
    }
    (f64::INFINITY, PoolState::cpu_bb(0, 0.0))
}

/// The pre-refactor monolithic loop, frozen as the golden reference.
#[allow(clippy::too_many_arguments)]
fn reference_run(
    system: &SystemConfig,
    trace: &Trace,
    cfg: &SimConfig,
    demands: &[JobDemand],
    clamped: usize,
    mut policy: Box<dyn SelectionPolicy>,
) -> SimResult {
    let jobs = trace.jobs();
    let n = jobs.len();
    let mut pool = system.pool_state();

    let mut events: BinaryHeap<Reverse<Event>> = BinaryHeap::with_capacity(2 * n + 1);
    let mut seq = 0u64;
    for (i, job) in jobs.iter().enumerate() {
        events.push(Reverse(Event { time: job.submit, seq, kind: EventKind::Arrive(i) }));
        seq += 1;
    }

    let mut queue: Vec<usize> = Vec::new();
    let mut running: HashMap<usize, Running> = HashMap::new();
    let mut completed_ids: HashSet<u64> = HashSet::with_capacity(n);
    let mut records: Vec<JobRecord> = Vec::with_capacity(n);
    let mut tracker = StarvationTracker::new();
    let mut invocations = 0u64;
    let mut backfilled = 0usize;
    let mut starvation_forced = 0usize;
    let mut makespan = 0.0f64;

    let start_job = |idx: usize,
                     now: f64,
                     reason: StartReason,
                     pool: &mut PoolState,
                     running: &mut HashMap<usize, Running>,
                     events: &mut BinaryHeap<Reverse<Event>>,
                     records: &mut Vec<JobRecord>,
                     seq: &mut u64| {
        let job = &jobs[idx];
        let d = demands[idx];
        let asn = pool.alloc(&d);
        let end = now + job.runtime;
        events.push(Reverse(Event { time: end, seq: *seq, kind: EventKind::Finish(idx) }));
        *seq += 1;
        running.insert(idx, Running { est_end: now + job.walltime, demand: d, asn });
        records.push(JobRecord {
            id: job.id,
            submit: job.submit,
            start: now,
            end,
            runtime: job.runtime,
            walltime: job.walltime,
            nodes: d.nodes,
            bb_gb: d.bb_gb,
            ssd_gb_per_node: d.ssd_gb_per_node,
            extra: d.extra,
            assignment: asn,
            wasted_ssd_gb: pool.wasted_capacity_gb(&d, &asn),
            reason,
        });
    };

    while let Some(Reverse(ev)) = events.pop() {
        let now = ev.time;
        let mut apply = |ev: Event,
                         queue: &mut Vec<usize>,
                         running: &mut HashMap<usize, Running>,
                         pool: &mut PoolState| {
            match ev.kind {
                EventKind::Arrive(i) => queue.push(i),
                EventKind::Finish(i) => {
                    let r = running.remove(&i).expect("finish for job not running");
                    pool.free(&r.demand, r.asn);
                    completed_ids.insert(jobs[i].id);
                    makespan = makespan.max(now);
                }
            }
        };
        apply(ev, &mut queue, &mut running, &mut pool);
        while let Some(Reverse(next)) = events.peek() {
            if next.time > now {
                break;
            }
            let next = events.pop().expect("peeked event vanished").0;
            apply(next, &mut queue, &mut running, &mut pool);
        }

        if queue.is_empty() {
            continue;
        }
        invocations += 1;

        // --- (1) base-scheduler priority order ---
        cfg.base.order(&mut queue, jobs, now);

        // --- (2) fill the window with dependency-satisfied jobs ---
        let deps_met =
            |qpos: usize| jobs[queue[qpos]].deps.iter().all(|d| completed_ids.contains(d));
        let window_size =
            cfg.dynamic_window.map(|d| d.size_for(queue.len())).unwrap_or(cfg.window.size);
        let window_qpos = fill_window(queue.len(), window_size, deps_met);
        let window_idx: Vec<usize> = window_qpos.iter().map(|&q| queue[q]).collect();
        let window_ids: Vec<u64> = window_idx.iter().map(|&i| jobs[i].id).collect();

        let mut started: HashSet<usize> = HashSet::new();

        // --- (3) starvation bound ---
        let mut blocked_head: Option<usize> = None;
        for &idx in &window_idx {
            if tracker.is_starved(jobs[idx].id, cfg.window.starvation_bound) {
                if pool.fits(&demands[idx]) {
                    start_job(
                        idx,
                        now,
                        StartReason::Starvation,
                        &mut pool,
                        &mut running,
                        &mut events,
                        &mut records,
                        &mut seq,
                    );
                    started.insert(idx);
                    starvation_forced += 1;
                } else {
                    blocked_head = Some(idx);
                    break;
                }
            }
        }

        // --- (4) multi-resource selection from the window ---
        let policy_avail = match blocked_head {
            None => pool,
            Some(b) => {
                let (_, leftover) = shadow_and_leftover(&pool, &running, &demands[b], now);
                pool.component_min(&leftover)
            }
        };
        {
            let remaining: Vec<usize> = window_idx
                .iter()
                .copied()
                .filter(|i| !started.contains(i) && Some(*i) != blocked_head)
                .collect();
            if !remaining.is_empty() {
                let sel_demands: Vec<JobDemand> = remaining.iter().map(|&i| demands[i]).collect();
                let selection = policy.select(&sel_demands, &policy_avail, invocations);
                for &s in &selection {
                    let idx = remaining[s];
                    start_job(
                        idx,
                        now,
                        StartReason::Policy,
                        &mut pool,
                        &mut running,
                        &mut events,
                        &mut records,
                        &mut seq,
                    );
                    started.insert(idx);
                }
            }
        }

        // --- (5) EASY backfilling ---
        let waiting: Vec<usize> = match cfg.backfill {
            BackfillScope::Window => {
                window_idx.iter().copied().filter(|i| !started.contains(i)).collect()
            }
            BackfillScope::Queue => queue
                .iter()
                .copied()
                .filter(|i| {
                    !started.contains(i) && jobs[*i].deps.iter().all(|d| completed_ids.contains(d))
                })
                .collect(),
        };

        if cfg.backfill_algorithm == BackfillAlgorithm::Conservative {
            // The reference stays frozen on the rebuild-per-pass profile
            // (`LegacyProfile` preserves the pre-incremental code
            // verbatim), so the incremental path is always compared
            // against the original semantics.
            let mut profile = LegacyProfile::new(now, pool, {
                let mut keyed: Vec<(&usize, &Running)> = running.iter().collect();
                keyed.sort_by(|(ia, a), (ib, b)| a.est_end.total_cmp(&b.est_end).then(ia.cmp(ib)));
                keyed.into_iter().map(|(_, r)| (r.est_end, r.demand, r.asn)).collect::<Vec<_>>()
            });
            let mut ordered: Vec<usize> = Vec::with_capacity(waiting.len() + 1);
            if let Some(b) = blocked_head {
                ordered.push(b);
            }
            ordered.extend(waiting.iter().copied().filter(|&i| Some(i) != blocked_head));
            for (scanned, idx) in ordered.into_iter().enumerate() {
                if scanned >= cfg.max_backfill_scan {
                    break;
                }
                if started.contains(&idx) {
                    continue;
                }
                let d = demands[idx];
                let walltime = jobs[idx].walltime.max(1.0);
                let t = profile.earliest_start(&d, now, walltime);
                if t <= now + TIME_EPS && pool.fits(&d) {
                    start_job(
                        idx,
                        now,
                        StartReason::Backfill,
                        &mut pool,
                        &mut running,
                        &mut events,
                        &mut records,
                        &mut seq,
                    );
                    started.insert(idx);
                    backfilled += 1;
                    profile.reserve(&d, t, walltime);
                } else if t.is_finite() {
                    profile.reserve(&d, t, walltime);
                }
            }
            if !started.is_empty() {
                let started_ids: Vec<u64> = window_idx
                    .iter()
                    .filter(|i| started.contains(i))
                    .map(|&i| jobs[i].id)
                    .collect();
                tracker.observe(&window_ids, &started_ids);
                for &i in &started {
                    tracker.forget(jobs[i].id);
                }
            }
            queue.retain(|i| !started.contains(i));
            continue;
        }

        let mut head_cursor = 0usize;
        let mut head: Option<usize> = None;
        while head_cursor < waiting.len() {
            let idx = waiting[head_cursor];
            if let Some(b) = blocked_head {
                head = Some(b);
                break;
            }
            if started.contains(&idx) {
                head_cursor += 1;
                continue;
            }
            if pool.fits(&demands[idx]) {
                start_job(
                    idx,
                    now,
                    StartReason::Backfill,
                    &mut pool,
                    &mut running,
                    &mut events,
                    &mut records,
                    &mut seq,
                );
                started.insert(idx);
                head_cursor += 1;
            } else {
                head = Some(idx);
                break;
            }
        }

        if let Some(head_idx) = head {
            let (shadow, mut leftover) =
                shadow_and_leftover(&pool, &running, &demands[head_idx], now);

            for (scanned, &idx) in waiting.iter().enumerate() {
                if scanned >= cfg.max_backfill_scan {
                    break;
                }
                if started.contains(&idx) || idx == head_idx {
                    continue;
                }
                let d = demands[idx];
                if !pool.fits(&d) {
                    continue;
                }
                let ends_before_shadow = now + jobs[idx].walltime <= shadow + TIME_EPS;
                if ends_before_shadow || leftover.fits(&d) {
                    if !ends_before_shadow {
                        let _ = leftover.alloc(&d);
                    }
                    start_job(
                        idx,
                        now,
                        StartReason::Backfill,
                        &mut pool,
                        &mut running,
                        &mut events,
                        &mut records,
                        &mut seq,
                    );
                    started.insert(idx);
                    backfilled += 1;
                }
            }
        }

        // --- (6) starvation bookkeeping & queue cleanup ---
        if !started.is_empty() {
            let started_ids: Vec<u64> =
                window_idx.iter().filter(|i| started.contains(i)).map(|&i| jobs[i].id).collect();
            tracker.observe(&window_ids, &started_ids);
            for &i in &started {
                tracker.forget(jobs[i].id);
            }
        }
        queue.retain(|i| !started.contains(i));
    }

    assert_eq!(records.len(), n, "reference: every job must run exactly once");
    assert!(running.is_empty());
    records.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.id.cmp(&b.id)));

    SimResult {
        policy: policy.name().to_string(),
        base: cfg.base.name().to_string(),
        system: system.clone(),
        records,
        makespan,
        invocations,
        clamped_jobs: clamped,
        backfilled,
        starvation_forced,
    }
}

/// Fast GA settings: deterministic and cheap, but still exercising the
/// GA-backed policies' real selection path.
fn ga() -> GaParams {
    GaParams { generations: 15, ..GaParams::default() }
}

/// Asserts the new engine reproduces the reference exactly for one combo,
/// and returns the engine's result.
fn assert_equivalent(
    system: &SystemConfig,
    trace: &Trace,
    cfg: SimConfig,
    kind: PolicyKind,
) -> SimResult {
    let sim = Simulator::new(system, trace, cfg.clone()).unwrap();
    let demands = sim.demands().to_vec();
    let clamped = sim.clamped_jobs();
    let golden = reference_run(system, trace, &cfg, &demands, clamped, kind.build(ga()));
    let new = sim.run(kind.build(ga()));
    assert_eq!(
        golden,
        new,
        "engine diverged from reference: policy {} base {:?} algo {:?} scope {:?}",
        kind.name(),
        cfg.base,
        cfg.backfill_algorithm,
        cfg.backfill
    );
    new
}

fn cori_trace() -> (SystemConfig, Trace) {
    let profile = MachineProfile::cori().scaled(0.05);
    let trace = generate(
        &profile,
        &GeneratorConfig { n_jobs: 60, seed: 2_019, load_factor: 1.2, ..Default::default() },
    );
    (profile.system, trace)
}

fn theta_trace() -> (SystemConfig, Trace) {
    let profile = MachineProfile::theta().scaled(0.05);
    let trace = generate(
        &profile,
        &GeneratorConfig { n_jobs: 60, seed: 4_242, load_factor: 1.2, ..Default::default() },
    );
    (profile.system, trace)
}

#[test]
fn golden_cori_all_policies_all_bases_all_backfills() {
    let (system, trace) = cori_trace();
    for kind in PolicyKind::main_roster() {
        for base in [BaseScheduler::Fcfs, BaseScheduler::Wfp] {
            for algo in [BackfillAlgorithm::Easy, BackfillAlgorithm::Conservative] {
                let cfg = SimConfig { base, backfill_algorithm: algo, ..SimConfig::default() };
                assert_equivalent(&system, &trace, cfg, kind);
            }
        }
    }
}

#[test]
fn golden_theta_all_policies_all_bases_all_backfills() {
    let (system, trace) = theta_trace();
    for kind in PolicyKind::main_roster() {
        for base in [BaseScheduler::Fcfs, BaseScheduler::Wfp] {
            for algo in [BackfillAlgorithm::Easy, BackfillAlgorithm::Conservative] {
                let cfg = SimConfig { base, backfill_algorithm: algo, ..SimConfig::default() };
                assert_equivalent(&system, &trace, cfg, kind);
            }
        }
    }
}

#[test]
fn golden_queue_scope_and_small_window() {
    let (system, trace) = cori_trace();
    for kind in PolicyKind::main_roster() {
        let cfg = SimConfig {
            backfill: BackfillScope::Queue,
            window: bbsched_core::window::WindowConfig { size: 8, starvation_bound: 12 },
            ..SimConfig::default()
        };
        assert_equivalent(&system, &trace, cfg, kind);
    }
}

#[test]
fn golden_dynamic_window() {
    let (system, trace) = theta_trace();
    for kind in [PolicyKind::BbSched, PolicyKind::BinPacking, PolicyKind::Baseline] {
        let cfg = SimConfig {
            dynamic_window: Some(DynamicWindow { min: 4, max: 24, queue_fraction: 0.3 }),
            ..SimConfig::default()
        };
        assert_equivalent(&system, &trace, cfg, kind);
    }
}

/// Bit-exact end-to-end fingerprints: FNV-1a over the IEEE-754 bits of
/// every record's `(start, end, wait)` for three GA-backed policies on a
/// small Theta trace, captured immediately before the
/// incremental-aggregate GA kernel landed. Unlike the reference-vs-engine
/// tests above — which would pass if both sides drifted together — these
/// constants pin the schedule itself across solver rewrites.
#[test]
fn golden_sim_fingerprints_are_bit_stable() {
    let profile = MachineProfile::theta().scaled(0.02);
    let trace = generate(
        &profile,
        &GeneratorConfig { n_jobs: 80, seed: 9, load_factor: 1.1, ..Default::default() },
    );
    let expected = [
        (PolicyKind::BbSched, 0xc24e_70a0_c39f_c06b_u64),
        (PolicyKind::Weighted, 0x96c5_ae74_93e8_bedf),
        (PolicyKind::ConstrainedBb, 0x91e1_03d4_e8f2_4cdf),
    ];
    for (kind, want) in expected {
        let ga = GaParams { generations: 60, ..GaParams::default() };
        let result = Simulator::new(&profile.system, &trace, SimConfig::default())
            .unwrap()
            .run(kind.build(ga));
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in &result.records {
            for v in [r.start, r.end, r.start - r.submit] {
                h ^= v.to_bits();
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        assert_eq!(h, want, "{} record stream diverged from its golden fingerprint", kind.name());
    }
}

/// WFP memo-replay vs always-refold, mid-scale. The incremental
/// conservative strategy replays a pure-arrival pass's memoized
/// reservations verbatim whenever the elementwise compare finds the
/// memoized candidate prefix unchanged by the WFP re-sort; the frozen
/// `reference_run` rebuilds a [`LegacyProfile`] and re-queries every
/// candidate every pass and never memoizes — the literal "always refold"
/// discipline. A fifth-scale Theta at 700 jobs keeps queue depths high
/// enough that replayed passes, reorder-driven bails, and fresh-tail
/// queries all occur under WFP, while the reference stays affordable in
/// debug test runs. The `SimResult`s must be byte-identical.
#[test]
fn golden_wfp_memo_replay_equals_always_refold_midscale() {
    let profile = MachineProfile::theta().scaled(0.2);
    let trace = generate(
        &profile,
        &GeneratorConfig { n_jobs: 700, seed: 77, load_factor: 1.05, ..Default::default() },
    );
    let cfg = SimConfig {
        base: BaseScheduler::Wfp,
        backfill_algorithm: BackfillAlgorithm::Conservative,
        backfill: BackfillScope::Queue,
        ..SimConfig::default()
    };
    let result = assert_equivalent(&profile.system, &trace, cfg, PolicyKind::Baseline);
    assert_eq!(result.records.len(), 700);
}

/// Bench-scale old-vs-new: the exact `simulate_large/20k_conservative_fcfs`
/// workload (same machine, generator seed, and queue-scoped config as
/// `bench_sim`) through the engine and the frozen `reference_run`,
/// asserting the full 20k-record `SimResult`s are identical. At this
/// depth the profiles carry hundreds of segments per pass, so the
/// memoized replay path and the column scan both engage on deep profiles
/// — which the small golden traces above never reach. Ignored by
/// default: the reference's rebuild-per-pass profile alone takes many
/// minutes in release (hours in debug). Run with
/// `cargo test --release -p bbsched-sim --test golden_equivalence -- --ignored`.
#[test]
#[ignore = "bench-scale (~15 min in release); run explicitly with -- --ignored"]
fn golden_20k_conservative_equals_rebuild_at_bench_scale() {
    let profile = MachineProfile::theta().scaled(0.2);
    let trace = generate(
        &profile,
        &GeneratorConfig { n_jobs: 20_000, seed: 77, load_factor: 1.05, ..Default::default() },
    );
    let cfg = SimConfig {
        base: BaseScheduler::Fcfs,
        backfill_algorithm: BackfillAlgorithm::Conservative,
        backfill: BackfillScope::Queue,
        ..SimConfig::default()
    };
    let result = assert_equivalent(&profile.system, &trace, cfg, PolicyKind::Baseline);
    assert_eq!(result.records.len(), 20_000);
}

#[test]
fn golden_ssd_roster_on_heterogeneous_system() {
    let system = SystemConfig {
        name: "ssd-golden".into(),
        nodes: 24,
        bb_gb: 20_000.0,
        bb_reserved_gb: 0.0,
        nodes_128: 12,
        nodes_256: 12,
        extra_resources: Vec::new(),
    };
    let jobs: Vec<Job> = (0..40u64)
        .map(|i| {
            let nodes = 1 + (i % 10) as u32;
            let ssd = match i % 4 {
                0 => 0.0,
                1 => 64.0,
                2 => 150.0,
                _ => 240.0,
            };
            Job::new(i, i as f64 * 40.0, nodes, 300.0 + (i % 5) as f64 * 120.0, 1_200.0)
                .with_bb(if i % 3 == 0 { 2_000.0 } else { 0.0 })
                .with_ssd(ssd)
        })
        .collect();
    let trace = Trace::from_jobs(jobs).unwrap();
    for kind in PolicyKind::ssd_roster() {
        for algo in [BackfillAlgorithm::Easy, BackfillAlgorithm::Conservative] {
            let cfg = SimConfig { backfill_algorithm: algo, ..SimConfig::default() };
            assert_equivalent(&system, &trace, cfg, kind);
        }
    }
}
