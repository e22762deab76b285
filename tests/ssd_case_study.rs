//! Integration tests of the §5 local-SSD case study: four-objective MOO,
//! heterogeneous 128/256 GB node pools, S5–S7 workloads, and the seven-
//! method roster.

use bbsched::metrics::{MeasurementWindow, MethodSummary};
use bbsched::policies::{GaParams, PolicyKind};
use bbsched::sim::{BaseScheduler, SimConfig, SimResult, Simulator};
use bbsched::workloads::{generate, GeneratorConfig, MachineProfile, Workload};

fn run_ssd(kind: PolicyKind, workload: Workload, n_jobs: usize) -> SimResult {
    let factor = 0.02;
    let mut profile = MachineProfile::theta().scaled(factor);
    profile.system = profile.system.with_ssd_split();
    let base = generate(
        &profile,
        &GeneratorConfig { n_jobs, seed: 55, load_factor: 1.1, ..GeneratorConfig::default() },
    );
    let trace = workload.apply_scaled(&base, 55, factor);
    let cfg = SimConfig { base: BaseScheduler::Wfp, ..SimConfig::default() };
    let ga = GaParams { generations: 60, base_seed: 55, ..GaParams::default() };
    Simulator::new(&profile.system, &trace, cfg).unwrap().run(kind.build(ga))
}

#[test]
fn all_seven_methods_run_the_case_study() {
    for kind in PolicyKind::ssd_roster() {
        let result = run_ssd(kind, Workload::S6, 120);
        assert_eq!(result.records.len(), 120, "{}", kind.name());
        assert!(result.system.has_local_ssd());
    }
}

#[test]
fn large_ssd_requests_run_only_on_256_nodes() {
    let result = run_ssd(PolicyKind::Baseline, Workload::S7, 150);
    for r in &result.records {
        if r.ssd_gb_per_node > 128.0 {
            assert_eq!(
                r.assignment.n128(),
                0,
                "job {} with {} GB/node must avoid 128-GB nodes",
                r.id,
                r.ssd_gb_per_node
            );
        }
        assert_eq!(r.assignment.total(), r.nodes);
    }
}

#[test]
fn ssd_pools_never_oversubscribed() {
    let result = run_ssd(PolicyKind::BbSched, Workload::S7, 150);
    // Sweep starts/ends tracking per-pool occupancy.
    let mut events: Vec<(f64, i64, i64)> = Vec::new();
    for r in &result.records {
        events.push((r.start, i64::from(r.assignment.n128()), i64::from(r.assignment.n256())));
        events.push((r.end, -i64::from(r.assignment.n128()), -i64::from(r.assignment.n256())));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut used_128, mut used_256) = (0i64, 0i64);
    for (t, d128, d256) in events {
        used_128 += d128;
        used_256 += d256;
        assert!(used_128 <= i64::from(result.system.nodes_128), "128-pool over at {t}");
        assert!(used_256 <= i64::from(result.system.nodes_256), "256-pool over at {t}");
        assert!(used_128 >= 0 && used_256 >= 0);
    }
}

#[test]
fn waste_accounting_matches_assignments() {
    let result = run_ssd(PolicyKind::Weighted, Workload::S5, 120);
    for r in &result.records {
        let cap = f64::from(r.assignment.n128()) * 128.0 + f64::from(r.assignment.n256()) * 256.0;
        let expected = (cap - r.ssd_gb_per_node * f64::from(r.nodes)).max(0.0);
        assert!(
            (r.wasted_ssd_gb - expected).abs() < 1e-6,
            "job {}: waste {} != expected {}",
            r.id,
            r.wasted_ssd_gb,
            expected
        );
    }
}

#[test]
fn heavier_ssd_mixes_increase_waste_pressure() {
    // S7 (80% large requests) must put more load on the 256-GB pool than
    // S5 (20% large): measure the share of node-seconds on 256-GB nodes.
    let share_256 = |r: &SimResult| {
        let total: f64 =
            r.records.iter().map(|x| f64::from(x.assignment.total()) * x.runtime).sum();
        let on_256: f64 =
            r.records.iter().map(|x| f64::from(x.assignment.n256()) * x.runtime).sum();
        on_256 / total
    };
    let s5 = run_ssd(PolicyKind::Baseline, Workload::S5, 200);
    let s7 = run_ssd(PolicyKind::Baseline, Workload::S7, 200);
    assert!(
        share_256(&s7) > share_256(&s5),
        "S7 share {} should exceed S5 share {}",
        share_256(&s7),
        share_256(&s5)
    );
}

#[test]
fn ssd_summaries_populate_ssd_metrics() {
    let result = run_ssd(PolicyKind::BbSched, Workload::S6, 120);
    let m = MethodSummary::from_result(&result, MeasurementWindow::full());
    assert!(m.ssd_usage() > 0.0, "SSD usage must be measured");
    assert!(m.ssd_wasted() >= 0.0);
    assert!(m.ssd_usage() + m.ssd_wasted() <= 1.0 + 1e-9, "used + wasted <= capacity");
}
