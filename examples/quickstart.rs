//! Quickstart: solve one multi-resource scheduling decision with BBSched.
//!
//! A small cluster has some free nodes and burst buffer; six jobs wait at
//! the front of the queue. We formulate the §3.2.1 MOO problem, run the
//! genetic solver, inspect the Pareto set, and let the §3.2.4 decision
//! rule pick the jobs to start.
//!
//! Run: `cargo run --release --example quickstart`

use bbsched::core::decision::{choose_preferred, DecisionRule};
use bbsched::core::problem::{JobDemand, KnapsackMooProblem};
use bbsched::core::resource::ResourceModel;
use bbsched::core::{GaConfig, MooGa};

fn main() {
    // Free capacity at this scheduling invocation: 256 nodes, 50 TB BB.
    let free_nodes = 256;
    let free_bb_gb = 50_000.0;

    // The scheduling window (job demands: nodes, burst buffer GB).
    let window = vec![
        JobDemand::cpu_bb(128, 2_000.0),
        JobDemand::cpu_bb(64, 30_000.0),
        JobDemand::cpu_bb(100, 0.0),
        JobDemand::cpu_bb(32, 18_000.0),
        JobDemand::cpu_bb(16, 0.0),
        JobDemand::cpu_bb(200, 45_000.0),
    ];

    let problem =
        KnapsackMooProblem::new(window.clone(), ResourceModel::cpu_bb(free_nodes, free_bb_gb));

    // Paper defaults: P=20, G=500, p_m=0.05%.
    let solver = MooGa::new(GaConfig::default());
    let mut front = solver.solve(&problem);
    front.sort_by_first_objective();

    println!("Pareto set ({} trade-off points):", front.len());
    for s in front.solutions() {
        let jobs: Vec<String> = s.chromosome.selected().map(|i| format!("J{}", i + 1)).collect();
        println!(
            "  nodes {:>5.0} / {free_nodes}   bb {:>8.0} / {free_bb_gb} GB   [{}]",
            s.objectives[0],
            s.objectives[1],
            jobs.join(", ")
        );
    }

    // The decision maker trades node utilization for burst buffer at 2x.
    let chosen = choose_preferred(&front, problem.normalizers().as_slice(), DecisionRule::cpu_bb())
        .expect("non-empty front");
    let jobs: Vec<String> = chosen.chromosome.selected().map(|i| format!("J{}", i + 1)).collect();
    println!("\nDecision rule starts: {}", jobs.join(", "));
    println!(
        "  -> node utilization {:.1}%, burst-buffer utilization {:.1}%",
        chosen.objectives[0] / f64::from(free_nodes) * 100.0,
        chosen.objectives[1] / free_bb_gb * 100.0
    );
}
