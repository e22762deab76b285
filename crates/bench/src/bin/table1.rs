//! Table 1: the illustrative example of §1.
//!
//! A 100-node system with 100 TB of burst buffer and five queued jobs;
//! each scheduling method makes its decision and we report the resulting
//! node/burst-buffer utilization, alongside the true Pareto set.
//!
//! Run: `cargo run --release -p bbsched-bench --bin table1`

use bbsched_bench::report::{pct, Table};
use bbsched_core::exhaustive;
use bbsched_core::pools::PoolState;
use bbsched_core::problem::{JobDemand, KnapsackMooProblem};
use bbsched_core::resource::ResourceModel;
use bbsched_policies::{GaParams, PolicyKind};

fn main() {
    let window = vec![
        JobDemand::cpu_bb(80, 20_000.0),
        JobDemand::cpu_bb(10, 85_000.0),
        JobDemand::cpu_bb(40, 5_000.0),
        JobDemand::cpu_bb(10, 0.0),
        JobDemand::cpu_bb(20, 0.0),
    ];
    let nodes = 100u32;
    let bb = 100_000.0f64;

    println!("Table 1(a): job waiting queue (100 nodes, 100 TB burst buffer)\n");
    let mut jobs_table = Table::new(vec!["Job", "Nodes", "Burst Buffer (TB)"]);
    for (i, d) in window.iter().enumerate() {
        jobs_table.row(vec![
            format!("J{}", i + 1),
            d.nodes.to_string(),
            format!("{:.0}", d.bb_gb / 1000.0),
        ]);
    }
    jobs_table.print();

    println!("\nTable 1(b): scheduling decisions\n");
    let avail = PoolState::cpu_bb(nodes, bb);
    let ga = GaParams { generations: 500, base_seed: 4, ..GaParams::default() };
    let mut decisions = Table::new(vec!["Method", "Selected Jobs", "Node Util", "BB Util"]);
    for kind in [
        PolicyKind::Baseline,
        PolicyKind::ConstrainedCpu,
        PolicyKind::WeightedCpu,
        PolicyKind::BinPacking,
        PolicyKind::BbSched,
    ] {
        let mut policy = kind.build(ga);
        let sel = policy.select(&window, &avail, 0);
        let names: Vec<String> = sel.iter().map(|&i| format!("J{}", i + 1)).collect();
        let n: u32 = sel.iter().map(|&i| window[i].nodes).sum();
        let b: f64 = sel.iter().map(|&i| window[i].bb_gb).sum();
        decisions.row(vec![
            kind.name().to_string(),
            names.join(", "),
            pct(f64::from(n) / f64::from(nodes)),
            pct(b / bb),
        ]);
    }
    decisions.print();

    println!("\nTrue Pareto set (exhaustive enumeration):\n");
    let problem = KnapsackMooProblem::new(window.clone(), ResourceModel::cpu_bb(nodes, bb));
    let mut front = exhaustive::solve(&problem).expect("window fits the exhaustive cap");
    front.sort_by_first_objective();
    let mut pareto = Table::new(vec!["Solution", "Selected Jobs", "Node Util", "BB Util"]);
    for (i, s) in front.solutions().iter().enumerate() {
        if s.chromosome.count_ones() == 0 {
            continue;
        }
        let names: Vec<String> = s.chromosome.selected().map(|j| format!("J{}", j + 1)).collect();
        pareto.row(vec![
            (i + 1).to_string(),
            names.join(", "),
            pct(s.objectives[0] / problem.normalizers()[0]),
            pct(s.objectives[1] / problem.normalizers()[1]),
        ]);
    }
    pareto.print();
    println!(
        "\nPaper reference: naive -> J1+J4 (90%/20%); constrained/weighted/bin-packing -> \
         J1+J5 (100%/20%); Pareto set = {{J1+J5, J2..J5}}; BBSched's 2x rule picks J2..J5."
    );
}
