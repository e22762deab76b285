//! Property-based integration tests (proptest) over the core invariants:
//! Pareto-front laws, repair feasibility, GA-vs-exhaustive consistency,
//! and simulator conservation on random traces.

use bbsched::core::problem::{JobDemand, KnapsackMooProblem};
use bbsched::core::resource::ResourceModel;
use bbsched::core::{exhaustive, pareto, Chromosome, GaConfig, MooGa};
use bbsched::policies::{GaParams, PolicyKind};
use bbsched::sim::{SimConfig, Simulator};
use bbsched::workloads::{Job, Trace};
use proptest::prelude::*;

fn demand_strategy() -> impl Strategy<Value = JobDemand> {
    (1u32..120, 0.0f64..5_000.0)
        .prop_map(|(nodes, bb)| JobDemand::cpu_bb(nodes, if bb < 500.0 { 0.0 } else { bb }))
}

fn window_strategy(max: usize) -> impl Strategy<Value = Vec<JobDemand>> {
    proptest::collection::vec(demand_strategy(), 1..=max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Repair always produces a feasible chromosome and never selects a
    /// job that was not already selected.
    #[test]
    fn repair_is_sound(window in window_strategy(24), mask in any::<u64>()) {
        let w = window.len();
        let problem = KnapsackMooProblem::new(window, ResourceModel::cpu_bb(150, 6_000.0));
        let before = Chromosome::from_mask(mask, w);
        let mut after = before.clone();
        problem.repair(&mut after);
        prop_assert!(problem.is_feasible(&after));
        for i in 0..w {
            prop_assert!(!after.get(i) || before.get(i), "repair selected job {i}");
        }
    }

    /// The exhaustive front is mutually non-dominated and no feasible
    /// selection dominates any front point.
    #[test]
    fn exhaustive_front_is_exact(window in window_strategy(10)) {
        let w = window.len();
        let problem = KnapsackMooProblem::new(window, ResourceModel::cpu_bb(150, 6_000.0));
        let front = exhaustive::solve(&problem).unwrap();
        prop_assert!(front.is_mutually_nondominated());
        for mask in 0u64..(1 << w) {
            let c = Chromosome::from_mask(mask, w);
            if problem.is_feasible(&c) {
                let o = problem.evaluate(&c);
                for fp in front.objective_vectors() {
                    prop_assert!(!pareto::dominates(o.as_slice(), fp));
                }
            }
        }
    }

    /// Every GA front point is feasible, mutually non-dominated, and never
    /// dominates a true (exhaustive) Pareto point.
    #[test]
    fn ga_front_is_feasible_and_bounded_by_truth(
        window in window_strategy(12),
        seed in any::<u64>(),
    ) {
        let problem = KnapsackMooProblem::new(window, ResourceModel::cpu_bb(150, 6_000.0));
        let cfg = GaConfig { generations: 60, seed, ..GaConfig::default() };
        let front = MooGa::new(cfg).solve(&problem);
        prop_assert!(front.is_mutually_nondominated());
        let truth = exhaustive::solve(&problem).unwrap();
        for s in front.solutions() {
            prop_assert!(problem.is_feasible(&s.chromosome));
            for t in truth.objective_vectors() {
                prop_assert!(
                    !pareto::dominates(s.objectives.as_slice(), t),
                    "GA point {:?} dominates true point {:?}",
                    s.objectives.as_slice(),
                    t
                );
            }
        }
    }

    /// Policy selections fit the free pool for arbitrary windows.
    #[test]
    fn policies_always_return_feasible_selections(
        window in window_strategy(16),
        nodes in 50u32..300,
        bb in 1_000.0f64..20_000.0,
        inv in 0u64..4,
    ) {
        let avail = bbsched::core::PoolState::cpu_bb(nodes, bb);
        let ga = GaParams { generations: 30, ..GaParams::default() };
        for kind in PolicyKind::main_roster() {
            let sel = kind.build(ga).select(&window, &avail, inv);
            prop_assert!(
                bbsched::policies::selection_is_feasible(&window, &avail, &sel),
                "{} returned {:?}",
                kind.name(),
                sel
            );
        }
    }
}

fn job_strategy(max_id: u64) -> impl Strategy<Value = (f64, u32, f64, f64, f64)> {
    let _ = max_id;
    (
        0.0f64..5_000.0,  // submit
        1u32..40,         // nodes
        10.0f64..2_000.0, // runtime
        1.0f64..2.5,      // walltime factor
        0.0f64..3_000.0,  // bb
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random traces: every job runs exactly once, capacity is never
    /// violated, and nothing starts before submission.
    #[test]
    fn simulator_conserves_resources(
        raw in proptest::collection::vec(job_strategy(0), 1..40)
    ) {
        let jobs: Vec<Job> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (submit, nodes, runtime, wt, bb))| {
                Job::new(i as u64, submit, nodes, runtime, runtime * wt)
                    .with_bb(if bb < 300.0 { 0.0 } else { bb })
            })
            .collect();
        let n = jobs.len();
        let trace = Trace::from_jobs(jobs).unwrap();
        let system = bbsched::workloads::SystemConfig {
            name: "prop".into(),
            nodes: 64,
            bb_gb: 4_000.0,
            bb_reserved_gb: 0.0,
            nodes_128: 0,
            nodes_256: 0,
            extra_resources: Vec::new(),
        };
        let ga = GaParams { generations: 20, ..GaParams::default() };
        let result = Simulator::new(&system, &trace, SimConfig::default())
            .unwrap()
            .run(PolicyKind::BbSched.build(ga));
        prop_assert_eq!(result.records.len(), n);

        let mut events: Vec<(f64, i64, f64)> = Vec::new();
        for r in &result.records {
            prop_assert!(r.start >= r.submit);
            events.push((r.start, i64::from(r.nodes), r.bb_gb));
            events.push((r.end, -i64::from(r.nodes), -r.bb_gb));
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut used_nodes = 0i64;
        let mut used_bb = 0.0f64;
        for (_, dn, dbb) in events {
            used_nodes += dn;
            used_bb += dbb;
            prop_assert!(used_nodes <= 64);
            prop_assert!(used_bb <= 4_000.0 + 1e-6);
        }
    }
}
