//! Machine-readable simulator benchmarks: `BENCH_sim.json`.
//!
//! The workspace's timing harness, beside the figure binaries: it times
//! whole simulations, the availability-profile and daemon layers, and
//! per-policy decision latency with a plain wall-clock loop, and writes
//! the medians as JSON, so CI and later changes can diff numbers across
//! commits without scraping human-oriented output.
//!
//! Run: `cargo run --release -p bbsched-bench --bin bench_sim -- \
//!         [--short] [--out PATH] [--baseline PATH] [--max-regression PCT]`
//!
//! * `--short` shrinks traces/generations to smoke-test sizes (CI); the
//!   emitted JSON is tagged `"mode": "short"` so numbers are not compared
//!   across modes.
//! * `--baseline PATH` embeds a previously emitted file's results under
//!   `"baseline"` and reports per-benchmark `delta_pct`.
//! * `--max-regression PCT` (requires `--baseline`) turns the run into a
//!   regression guard: exit nonzero if any benchmark's best-of-N floor
//!   (`min_s`) exceeds the *baseline median* by more than `PCT`. On a
//!   shared runner the floor is the only stable statistic a single run
//!   produces, and on a quiet machine it sits well below the median — so
//!   noise has headroom while a real slowdown (which lifts the floor past
//!   the old typical time) still fails the build. `delta_pct` keeps
//!   reporting the median-vs-median change. The baseline must have been
//!   produced in the same mode — short and full numbers are not
//!   comparable.

use bbsched_core::pools::PoolState;
use bbsched_core::problem::JobDemand;
use bbsched_policies::{GaParams, PolicyKind};
use bbsched_sched::{AvailabilityProfile, Decision, JobEvent, SchedConfig, SchedCore, StartReason};
use bbsched_sim::{BackfillAlgorithm, BackfillScope, BaseScheduler, SimConfig, Simulator};
use bbsched_workloads::synthetic::add_ssd;
use bbsched_workloads::{generate, swf, GeneratorConfig, Job, MachineProfile, SsdMix, Trace};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Instant;

#[derive(Clone, Debug, Serialize, Deserialize)]
struct BenchEntry {
    /// Benchmark id, `group/case`.
    name: String,
    /// Median seconds per iteration.
    median_s: f64,
    /// Fastest sample (seconds per iteration).
    min_s: f64,
    /// Timing samples taken.
    samples: usize,
    /// Change vs the baseline's median, percent (positive = slower).
    delta_pct: Option<f64>,
    /// Encoded artifact size, for the snapshot wire-format benches
    /// (`snapshot_encode_w50/*`): binary vs JSON is a size claim as much
    /// as a speed claim, so the report carries both.
    #[serde(default)]
    bytes: Option<u64>,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct BenchReport {
    schema: String,
    mode: String,
    results: Vec<BenchEntry>,
    baseline: Option<Vec<BenchEntry>>,
}

/// Median per-iteration seconds of `routine`, batched so each sample runs
/// at least `min_sample_s` of wall clock.
fn measure<O, F: FnMut() -> O>(samples: usize, min_sample_s: f64, mut routine: F) -> (f64, f64) {
    let t0 = Instant::now();
    std::hint::black_box(routine());
    let per_iter = t0.elapsed().as_secs_f64().max(1e-9);
    let batch = ((min_sample_s / per_iter).ceil() as u64).clamp(1, 1_000_000);
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            t.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], times[0])
}

fn trace(n: usize) -> (MachineProfile, Trace) {
    let profile = MachineProfile::theta().scaled(0.05);
    let t = generate(
        &profile,
        &GeneratorConfig { n_jobs: n, seed: 21, load_factor: 1.1, ..GeneratorConfig::default() },
    );
    (profile, t)
}

/// Month-scale trace for the `simulate_large` family: a bigger Theta slice
/// (so hundreds of jobs run concurrently and availability profiles carry
/// real segment counts) at a load that keeps the queue deep without
/// diverging.
fn large_trace(n: usize) -> (MachineProfile, Trace) {
    let profile = MachineProfile::theta().scaled(0.2);
    let t = generate(
        &profile,
        &GeneratorConfig { n_jobs: n, seed: 77, load_factor: 1.05, ..GeneratorConfig::default() },
    );
    (profile, t)
}

fn overhead_window(w: usize) -> Vec<JobDemand> {
    let mut rng = SmallRng::seed_from_u64(11);
    (0..w)
        .map(|_| {
            JobDemand::cpu_bb(
                rng.random_range(8..200),
                if rng.random_bool(0.75) { rng.random_range(100.0..30_000.0) } else { 0.0 },
            )
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let short = args.iter().any(|a| a == "--short");
    let opt = |key: &str| {
        args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let out = opt("--out").unwrap_or("BENCH_sim.json").to_string();
    let only = opt("--only").map(str::to_string);
    let max_regression: Option<f64> = opt("--max-regression").map(|v| {
        v.parse().unwrap_or_else(|e| panic!("--max-regression wants a percentage, got '{v}': {e}"))
    });
    let baseline: Option<Vec<BenchEntry>> = opt("--baseline").map(|path| {
        let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("cannot read '{path}': {e}"));
        let report: BenchReport =
            serde_json::from_slice(&bytes).unwrap_or_else(|e| panic!("cannot parse '{path}': {e}"));
        let mode = if short { "short" } else { "full" };
        assert_eq!(report.mode, mode, "baseline '{path}' mode mismatch: numbers not comparable");
        report.results
    });
    if max_regression.is_some() && baseline.is_none() {
        panic!("--max-regression needs --baseline to compare against");
    }

    let (samples, sim_samples) = if short { (7, 5) } else { (7, 7) };
    // Batch the fast simulation cases (sub-ms per run) so one sample is a
    // stable wall-clock chunk; single-iteration samples swing ±30% run to
    // run. The heavy GA cases self-batch via their own cost. Short mode
    // batches too: its minimums feed the CI regression guard.
    let sim_min_s = 0.02;
    let (n_small, n_large) = if short { (60, 120) } else { (200, 500) };
    let (g_sched, g_heavy) = if short { (20, 60) } else { (100, 2_000) };

    let mut results: Vec<BenchEntry> = Vec::new();
    let mut push = |name: &str, samples: usize, min_s: f64, routine: &mut dyn FnMut() -> usize| {
        // `--only SUBSTR` runs the matching subset (iteration speed when
        // chasing one number); subset reports are for eyeballs, not for
        // pinning as baselines.
        if only.as_deref().is_some_and(|f| !name.contains(f)) {
            return;
        }
        let (median_s, min_sample) = measure(samples, min_s, routine);
        eprintln!("{name:<44} {:.4} ms", median_s * 1e3);
        results.push(BenchEntry {
            name: name.to_string(),
            median_s,
            min_s: min_sample,
            samples,
            delta_pct: None,
            bytes: None,
        });
    };
    let mut sizes: Vec<(String, u64)> = Vec::new();

    // --- simulator throughput ---
    for n in [n_small, n_large] {
        let (profile, t) = trace(n);
        push(&format!("simulate_baseline/{n}"), sim_samples, sim_min_s, &mut || {
            let sim = Simulator::new(&profile.system, &t, SimConfig::default()).unwrap();
            sim.run(PolicyKind::Baseline.build(GaParams::default())).records.len()
        });
    }
    {
        let (profile, t) = trace(n_small);
        let ga = GaParams { generations: g_sched, ..GaParams::default() };
        push(
            &format!("simulate_bbsched_g{g_sched}/{n_small}"),
            sim_samples,
            sim_min_s,
            &mut || {
                let sim = Simulator::new(&profile.system, &t, SimConfig::default()).unwrap();
                sim.run(PolicyKind::BbSched.build(ga)).records.len()
            },
        );
    }
    for (label, scope) in [("window", BackfillScope::Window), ("queue", BackfillScope::Queue)] {
        let (profile, t) = trace(n_large);
        let cfg = SimConfig { backfill: scope, ..SimConfig::default() };
        push(&format!("backfill_scope_{n_large}/{label}"), sim_samples, sim_min_s, &mut || {
            let sim = Simulator::new(&profile.system, &t, cfg.clone()).unwrap();
            sim.run(PolicyKind::Baseline.build(GaParams::default())).records.len()
        });
    }

    // --- simulate_large: 20k-job traces through the pure sim layers ---
    // Baseline policy so queue/backfill/profile machinery dominates the
    // cost; few samples (each iteration is a full month-scale run).
    let n_big = if short { 2_000 } else { 20_000 };
    let big_label = if short { "2k" } else { "20k" };
    let big_samples = 3;
    {
        let (profile, t) = large_trace(n_big);
        // EASY runs the paper's window scope; conservative runs
        // queue-scoped (the textbook discipline reserves for *every*
        // waiting job), which is exactly the deep-profile regime the
        // persistent profile and column scan target.
        let combos: [(&str, BaseScheduler, BackfillAlgorithm, BackfillScope); 4] = [
            ("easy_fcfs", BaseScheduler::Fcfs, BackfillAlgorithm::Easy, BackfillScope::Window),
            ("easy_wfp", BaseScheduler::Wfp, BackfillAlgorithm::Easy, BackfillScope::Window),
            (
                "conservative_fcfs",
                BaseScheduler::Fcfs,
                BackfillAlgorithm::Conservative,
                BackfillScope::Queue,
            ),
            (
                "conservative_wfp",
                BaseScheduler::Wfp,
                BackfillAlgorithm::Conservative,
                BackfillScope::Queue,
            ),
        ];
        for (label, base, algo, scope) in combos {
            let cfg = SimConfig {
                base,
                backfill_algorithm: algo,
                backfill: scope,
                ..SimConfig::default()
            };
            push(&format!("simulate_large/{big_label}_{label}"), big_samples, 0.0, &mut || {
                let sim = Simulator::new(&profile.system, &t, cfg.clone()).unwrap();
                sim.run(PolicyKind::Baseline.build(GaParams::default())).records.len()
            });
        }
        // SWF-derived variant: the same jobs round-tripped through the
        // Standard Workload Format (integer-second submits/runtimes, as a
        // real archive log would have). Conversion happens outside the
        // timed region.
        let swf_trace = swf::parse_swf(&swf::to_swf_string(&t)).expect("SWF round-trip");
        for (label, algo, scope) in [
            ("easy_fcfs", BackfillAlgorithm::Easy, BackfillScope::Window),
            ("conservative_fcfs", BackfillAlgorithm::Conservative, BackfillScope::Queue),
        ] {
            let cfg =
                SimConfig { backfill_algorithm: algo, backfill: scope, ..SimConfig::default() };
            push(&format!("simulate_large/swf{big_label}_{label}"), big_samples, 0.0, &mut || {
                let sim = Simulator::new(&profile.system, &swf_trace, cfg.clone()).unwrap();
                sim.run(PolicyKind::Baseline.build(GaParams::default())).records.len()
            });
        }
        // Flavoured variant (§5 case study): per-node SSDs in two
        // flavours add one suffix-count column per flavour to the
        // profile, which the column scan answers like any other column.
        let ssd_trace = add_ssd(&t, SsdMix::S6, 77);
        let ssd_system = profile.system.clone().with_ssd_split();
        let cfg = SimConfig {
            backfill_algorithm: BackfillAlgorithm::Conservative,
            backfill: BackfillScope::Queue,
            ..SimConfig::default()
        };
        push(
            &format!("simulate_large/{big_label}_ssd_conservative_fcfs"),
            big_samples,
            0.0,
            &mut || {
                let sim = Simulator::new(&ssd_system, &ssd_trace, cfg.clone()).unwrap();
                sim.run(PolicyKind::Baseline.build(GaParams::default())).records.len()
            },
        );
    }

    // --- profile_ops: availability-profile query/reserve micro-benches ---
    // Isolates the profile's column scan (the machine is pooled) from the
    // simulator: build an S-segment profile (S-1 staggered releases), then
    // time `earliest_start` probes and `reserve_earliest` bookings
    // (query, then carve at the found ranks) directly. Runs
    // in both modes at both sizes — the ops are microseconds either way,
    // so short mode pays nothing for keeping the CI guard's coverage.
    for s in [256usize, 4096] {
        // One single-node running job per future segment plus a little
        // head-room free now: the machine scales with S so both sizes
        // start from the same "nearly drained" shape.
        let nodes_total = u32::try_from(s).unwrap() + 63;
        let mut pool = PoolState::cpu_bb(nodes_total, (s as f64) * 120.0);
        let mut rng = SmallRng::seed_from_u64(1_234);
        let releases: Vec<(f64, JobDemand, bbsched_core::pools::NodeAssignment)> = (1..s)
            .map(|i| {
                let d = JobDemand::cpu_bb(
                    1,
                    if rng.random_bool(0.5) { rng.random_range(10.0..100.0) } else { 0.0 },
                );
                let asn = pool.alloc(&d);
                (i as f64 * 60.0, d, asn)
            })
            .collect();
        let base = AvailabilityProfile::new(0.0, pool, releases);
        assert_eq!(base.segments(), s);
        let probes: Vec<(JobDemand, f64, f64)> = (0..64)
            .map(|_| {
                (
                    JobDemand::cpu_bb(rng.random_range(1..256), rng.random_range(0.0..2_000.0)),
                    rng.random_range(0.0..(s as f64 * 60.0)),
                    rng.random_range(60.0..86_400.0),
                )
            })
            .collect();
        push(&format!("profile_ops/earliest_start_s{s}"), samples, 0.01, &mut || {
            let mut hits = 0usize;
            for (d, from, dur) in &probes {
                if base.earliest_start(d, *from, *dur).is_finite() {
                    hits += 1;
                }
            }
            hits
        });
        // Query-then-carve in one call, as the conservative planner books
        // a candidate: the carve reuses the ranks the query found.
        push(&format!("profile_ops/reserve_s{s}"), samples, 0.01, &mut || {
            let mut p = base.clone();
            for (d, from, dur) in &probes {
                p.reserve_earliest(d, *from, *dur);
            }
            p.segments()
        });
    }

    // --- sched_invoke: one cold six-phase invocation of the service core ---
    // Times the driver-agnostic `SchedCore` directly (no event loop): build
    // a core, submit `w` queued jobs, run a single `invoke(0.0)`. Baseline
    // policy, so the queue ordering / window fill / shadow-and-leftover /
    // backfill machinery dominates rather than the optimizer.
    {
        let profile = MachineProfile::cori().scaled(0.05);
        for w in [20usize, 50] {
            let jobs: Vec<(Job, JobDemand)> = overhead_window(w)
                .into_iter()
                .enumerate()
                .map(|(i, d)| {
                    let job = Job::new(i as u64, 0.0, d.nodes, 1_800.0, 3_600.0).with_bb(d.bb_gb);
                    (job, d)
                })
                .collect();
            push(&format!("sched_invoke_w{w}/Baseline"), samples, 0.01, &mut || {
                let mut core = SchedCore::new(
                    &profile.system,
                    SchedConfig::default(),
                    PolicyKind::Baseline.build(GaParams::default()),
                    Vec::new(),
                )
                .unwrap();
                for (job, demand) in &jobs {
                    core.submit(job.clone(), *demand).unwrap();
                }
                core.invoke(0.0).len()
            });
        }
    }

    // --- queue_resort: WFP priority re-sort ---
    // Seed `w` waiting jobs, then run 64 scheduling invocations at
    // advancing `now`, each re-establishing the exact WFP permutation
    // through `BaseScheduler::order`, which re-scores both jobs inside
    // the comparator (the reference the engine's cached-score sort is
    // property-tested against). Two regimes bracket real workloads:
    // `burst` starts invoking right after the submit window, when every
    // wait is still small and the order churns; `aged` starts invoking
    // two days later, when the order has largely converged.
    {
        let mut rng = SmallRng::seed_from_u64(4_242);
        for w in [1_000usize, 10_000] {
            let label = if w == 1_000 { "1k" } else { "10k" };
            let jobs: Vec<Job> = (0..w)
                .map(|i| {
                    let submit = rng.random_range(0.0..7_200.0);
                    let nodes = 1u32 << rng.random_range(0..9);
                    let wall =
                        [300.0, 1_800.0, 3_600.0, 14_400.0, 43_200.0][rng.random_range(0..5usize)];
                    Job::new(i as u64, submit, nodes, wall * 0.7, wall)
                })
                .collect();
            for (regime, start) in [("burst", 7_260.0f64), ("aged", 180_000.0f64)] {
                push(
                    &format!("queue_resort_w{label}/wfp_full_resort_{regime}"),
                    samples,
                    0.02,
                    &mut || {
                        let mut q: Vec<usize> = (0..jobs.len()).collect();
                        let mut acc = 0usize;
                        let mut now = start;
                        for _ in 0..64 {
                            BaseScheduler::Wfp.order(&mut q, &jobs, now);
                            acc ^= q[0];
                            now += 30.0;
                        }
                        acc
                    },
                );
            }
        }
    }

    // --- snapshot_restore: the explicit-state round trip (DESIGN.md §12) ---
    // Times extract + JSON wire encode + decode + inject of a warmed core
    // with `w` known jobs: the full cost a checkpoint write plus a resume
    // pays per checkpoint. Kept separate from `sched_invoke` so the guard
    // can show that snapshot plumbing adds nothing to the simulate_* path.
    {
        let profile = MachineProfile::cori().scaled(0.05);
        for w in [20usize, 50] {
            let jobs: Vec<(Job, JobDemand)> = overhead_window(w)
                .into_iter()
                .enumerate()
                .map(|(i, d)| {
                    let job = Job::new(i as u64, 0.0, d.nodes, 1_800.0, 3_600.0).with_bb(d.bb_gb);
                    (job, d)
                })
                .collect();
            let mut core = SchedCore::new(
                &profile.system,
                SchedConfig {
                    backfill_algorithm: BackfillAlgorithm::Conservative,
                    ..SchedConfig::default()
                },
                PolicyKind::Baseline.build(GaParams::default()),
                Vec::new(),
            )
            .unwrap();
            for (job, demand) in &jobs {
                core.submit(job.clone(), *demand).unwrap();
            }
            core.invoke(0.0);
            push(&format!("snapshot_restore_w{w}/Baseline"), samples, 0.01, &mut || {
                let json = core.snapshot().to_json();
                let decoded = bbsched_sched::CoreSnapshot::from_json(&json).unwrap();
                let restored = SchedCore::restore(
                    decoded,
                    PolicyKind::Baseline.build(GaParams::default()),
                    Vec::new(),
                )
                .unwrap();
                restored.jobs_submitted() + json.len()
            });
        }
    }

    // --- snapshot_encode: durability wire encodings (DESIGN.md §13) ---
    // Encode + decode a warmed w50 core snapshot through both checkpoint
    // encodings. JSON is the golden wire form; the length-prefixed binary
    // container trades readability for size (string interning + varints)
    // — the report carries the encoded byte counts so the ≥2× reduction
    // claim is a pinned number, not prose.
    {
        use bbsched_sched::durability::{from_bytes, to_bytes, Encoding};
        let profile = MachineProfile::cori().scaled(0.05);
        let jobs: Vec<(Job, JobDemand)> = overhead_window(50)
            .into_iter()
            .enumerate()
            .map(|(i, d)| {
                let job = Job::new(i as u64, 0.0, d.nodes, 1_800.0, 3_600.0).with_bb(d.bb_gb);
                (job, d)
            })
            .collect();
        let mut core = SchedCore::new(
            &profile.system,
            SchedConfig {
                backfill_algorithm: BackfillAlgorithm::Conservative,
                ..SchedConfig::default()
            },
            PolicyKind::Baseline.build(GaParams::default()),
            Vec::new(),
        )
        .unwrap();
        for (job, demand) in &jobs {
            core.submit(job.clone(), *demand).unwrap();
        }
        core.invoke(0.0);
        let snap = core.snapshot();
        for encoding in [Encoding::Json, Encoding::Binary] {
            let encoded = to_bytes(&snap, encoding);
            eprintln!("snapshot_encode_w50/{encoding}: {} bytes", encoded.len());
            sizes.push((format!("snapshot_encode_w50/{encoding}"), encoded.len() as u64));
            sizes.push((format!("snapshot_decode_w50/{encoding}"), encoded.len() as u64));
            push(&format!("snapshot_encode_w50/{encoding}"), samples, 0.01, &mut || {
                to_bytes(&snap, encoding).len()
            });
            push(&format!("snapshot_decode_w50/{encoding}"), samples, 0.01, &mut || {
                let (decoded, e) =
                    from_bytes::<bbsched_sched::CoreSnapshot>(&encoded).expect("round trip");
                assert_eq!(e, encoding);
                decoded.schema_version as usize
            });
        }
    }

    // --- wire: the daemon's per-line parse and per-decision render ---
    // One iteration is one event line (cycling through the replay
    // fixture) or one decision line (cycling through a fixed mix of
    // Start and Reserve decisions, rendered into a reused buffer as the
    // daemon's decision stream does).
    {
        let lines: Vec<&str> = include_str!("../../../../ci/replay_events.jsonl").lines().collect();
        let mut i = 0usize;
        push("wire/event_parse", samples, 0.01, &mut || {
            i = (i + 1) % lines.len();
            let event = JobEvent::parse(lines[i]).expect("fixture lines parse");
            event.time() as usize
        });
        let mut rng = SmallRng::seed_from_u64(5);
        let reasons = [StartReason::Policy, StartReason::Backfill, StartReason::Starvation];
        let decisions: Vec<(f64, Decision)> = (0..64)
            .map(|k| {
                let now: f64 = rng.random_range(0.0..2e6);
                let id = rng.random_range(0..100_000u64);
                let end: f64 = now + rng.random_range(60.0..86_400.0);
                let d = if k % 3 == 2 {
                    Decision::Reserve { idx: k, id, at: end.round() }
                } else {
                    Decision::Start { idx: k, id, reason: reasons[k % 3], est_end: end }
                };
                (now, d)
            })
            .collect();
        let mut line = String::new();
        let mut k = 0usize;
        push("wire/decision_line", samples, 0.01, &mut || {
            k = (k + 1) % decisions.len();
            let (now, d) = &decisions[k];
            line.clear();
            d.write_json_line(*now, &mut line);
            line.len()
        });
    }

    // --- per-policy decision latency (§4.4) ---
    let w = overhead_window(50);
    let avail = PoolState::cpu_bb(800, 60_000.0);
    let gens = if short { 50 } else { 500 };
    for kind in PolicyKind::main_roster() {
        let ga = GaParams { generations: gens, ..GaParams::default() };
        let mut policy = kind.build(ga);
        let mut inv = 0u64;
        push(&format!("decision_w50_g{gens}/{}", kind.name()), samples, 0.01, &mut || {
            inv += 1;
            policy.select(std::hint::black_box(&w), &avail, inv).len()
        });
    }
    {
        let ga = GaParams { generations: g_heavy, ..GaParams::default() };
        let mut policy = PolicyKind::BbSched.build(ga);
        let mut inv = 0u64;
        push(&format!("bbsched_g{g_heavy}_w50/BBSched"), samples, 0.01, &mut || {
            inv += 1;
            policy.select(std::hint::black_box(&w), &avail, inv).len()
        });
    }

    for (name, b) in sizes {
        if let Some(entry) = results.iter_mut().find(|e| e.name == name) {
            entry.bytes = Some(b);
        }
    }

    if let Some(base) = &baseline {
        let mut fresh = 0usize;
        for entry in results.iter_mut() {
            if let Some(b) = base.iter().find(|b| b.name == entry.name) {
                entry.delta_pct = Some((entry.median_s / b.median_s - 1.0) * 100.0);
            } else {
                // Not in the baseline: the regression guard cannot cover
                // it. Say so explicitly instead of omitting it silently,
                // so CI output shows the coverage gap until the baseline
                // is re-pinned.
                eprintln!("  {:<44} new (no baseline)", entry.name);
                fresh += 1;
            }
        }
        if fresh > 0 {
            eprintln!(
                "{fresh} benchmark(s) have no baseline entry and are exempt from the \
                 regression guard; re-pin the baseline to cover them"
            );
        }
    }

    let report = BenchReport {
        schema: "bbsched/bench_sim/v1".into(),
        mode: if short { "short" } else { "full" }.into(),
        results,
        baseline,
    };
    let bytes = serde_json::to_vec_pretty(&report).expect("serialize report");
    std::fs::write(&out, bytes).unwrap_or_else(|e| panic!("cannot write '{out}': {e}"));
    println!("wrote {out}");

    if let Some(limit) = max_regression {
        let base = report.baseline.as_deref().expect("guard requires --baseline");
        let regressed: Vec<(&str, f64)> = report
            .results
            .iter()
            .filter_map(|e| {
                let b = base.iter().find(|b| b.name == e.name)?;
                let delta_floor = (e.min_s / b.median_s - 1.0) * 100.0;
                (delta_floor > limit).then_some((e.name.as_str(), delta_floor))
            })
            .collect();
        if !regressed.is_empty() {
            eprintln!("\nregressions above +{limit}% vs baseline (run floor vs baseline median):");
            for (name, delta) in &regressed {
                eprintln!("  {name:<44} {delta:+.1}%");
            }
            std::process::exit(1);
        }
        println!("regression guard passed (every run floor <= baseline median +{limit}%)");
    }
}
