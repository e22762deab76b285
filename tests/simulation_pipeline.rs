//! Integration tests of the full simulation pipeline: generated trace ->
//! synthetic transform -> discrete-event simulation -> metrics, with
//! cross-cutting invariants every policy must satisfy.

use bbsched::metrics::{MeasurementWindow, MethodSummary};
use bbsched::policies::{GaParams, PolicyKind};
use bbsched::sched::JobRecord;
use bbsched::sim::{BaseScheduler, SimConfig, SimResult, Simulator};
use bbsched::workloads::{generate, GeneratorConfig, MachineProfile, Workload};

fn run(kind: PolicyKind, workload: Workload, n_jobs: usize) -> SimResult {
    let factor = 0.02;
    let profile = MachineProfile::theta().scaled(factor);
    let base = generate(
        &profile,
        &GeneratorConfig { n_jobs, seed: 77, load_factor: 1.1, ..GeneratorConfig::default() },
    );
    let trace = workload.apply_scaled(&base, 77, factor);
    let cfg = SimConfig { base: BaseScheduler::Wfp, ..SimConfig::default() };
    let ga = GaParams { generations: 60, base_seed: 77, ..GaParams::default() };
    Simulator::new(&profile.system, &trace, cfg).unwrap().run(kind.build(ga))
}

/// Sweep the records and assert node/burst-buffer capacity is never
/// exceeded at any instant.
fn assert_capacity_respected(result: &SimResult) {
    let mut events: Vec<(f64, i64, f64)> = Vec::new(); // (time, +-nodes, +-bb)
    for r in &result.records {
        events.push((r.start, i64::from(r.nodes), r.bb_gb));
        events.push((r.end, -i64::from(r.nodes), -r.bb_gb));
    }
    // Frees sort before allocations at the same instant.
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut nodes = 0i64;
    let mut bb = 0.0f64;
    for (t, dn, dbb) in events {
        nodes += dn;
        bb += dbb;
        assert!(
            nodes <= i64::from(result.system.nodes),
            "node capacity exceeded at t={t}: {nodes} > {}",
            result.system.nodes
        );
        assert!(bb <= result.system.bb_usable_gb() + 1e-6, "burst buffer exceeded at t={t}: {bb}");
    }
}

fn assert_records_sane(result: &SimResult, n: usize) {
    assert_eq!(result.records.len(), n, "every job runs exactly once");
    let mut ids: Vec<u64> = result.records.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), n, "no duplicated starts");
    for r in &result.records {
        assert!(r.start >= r.submit, "job {} started before submission", r.id);
        assert!((r.end - r.start - r.runtime).abs() < 1e-9);
        assert!(r.wait() >= 0.0);
        assert!(r.slowdown() >= 1.0 - 1e-12);
    }
}

#[test]
fn every_policy_satisfies_capacity_invariants() {
    for kind in PolicyKind::main_roster() {
        let result = run(kind, Workload::S2, 150);
        assert_records_sane(&result, 150);
        assert_capacity_respected(&result);
    }
}

#[test]
fn heavier_bb_workloads_wait_longer_under_baseline() {
    let original = run(PolicyKind::Baseline, Workload::Original, 300);
    let s4 = run(PolicyKind::Baseline, Workload::S4, 300);
    let avg =
        |r: &SimResult| r.records.iter().map(JobRecord::wait).sum::<f64>() / r.records.len() as f64;
    assert!(
        avg(&s4) > avg(&original),
        "S4 ({}) should wait longer than Original ({})",
        avg(&s4),
        avg(&original)
    );
}

#[test]
fn bb_stress_raises_bb_usage() {
    let original = run(PolicyKind::Baseline, Workload::Original, 300);
    let s4 = run(PolicyKind::Baseline, Workload::S4, 300);
    let usage =
        |r: &SimResult| MethodSummary::from_result(r, MeasurementWindow::default()).bb_usage();
    assert!(usage(&s4) > usage(&original) + 0.05);
}

#[test]
fn fcfs_baseline_respects_submission_order_without_bb() {
    // With a single resource, no BB, and naive selection, FCFS + EASY may
    // backfill, but the *head* job of the queue is never overtaken by a
    // job that delays it: starts of equal-size jobs follow submit order.
    let profile = MachineProfile::cori().scaled(0.02);
    let jobs: Vec<bbsched::workloads::Job> = (0..50)
        .map(|i| bbsched::workloads::Job::new(i, i as f64 * 10.0, 10, 500.0, 600.0))
        .collect();
    let trace = bbsched::workloads::Trace::from_jobs(jobs).unwrap();
    let cfg = SimConfig::default();
    let result = Simulator::new(&profile.system, &trace, cfg)
        .unwrap()
        .run(PolicyKind::Baseline.build(GaParams::default()));
    let mut by_id: Vec<&JobRecord> = result.records.iter().collect();
    by_id.sort_by_key(|r| r.id);
    for pair in by_id.windows(2) {
        assert!(
            pair[0].start <= pair[1].start + 1e-9,
            "equal jobs must start in FCFS order: {} vs {}",
            pair[0].id,
            pair[1].id
        );
    }
}

#[test]
fn deterministic_end_to_end() {
    let a = run(PolicyKind::BbSched, Workload::S3, 120);
    let b = run(PolicyKind::BbSched, Workload::S3, 120);
    assert_eq!(a.records, b.records);
    assert_eq!(a.invocations, b.invocations);
}

#[test]
fn summaries_are_well_formed_for_all_policies() {
    for kind in PolicyKind::main_roster() {
        let result = run(kind, Workload::S1, 150);
        let m = MethodSummary::from_result(&result, MeasurementWindow::default());
        assert!((0.0..=1.0 + 1e-9).contains(&m.node_usage()), "{}", kind.name());
        assert!((0.0..=1.0 + 1e-9).contains(&m.bb_usage()), "{}", kind.name());
        assert!(m.avg_wait >= 0.0);
        assert!(m.avg_slowdown >= 0.0);
        assert!(m.measured_jobs > 0);
    }
}
