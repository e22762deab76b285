//! §5 case study: extending BBSched beyond two resources.
//!
//! Half the nodes carry 128 GB local SSDs, half 256 GB; jobs request
//! nodes, shared burst buffer, *and* per-node SSD. The MOO formulation
//! grows to four objectives (§5): node utilization, burst-buffer
//! utilization, SSD utilization, and minus wasted SSD; the decision rule
//! becomes the 4x variant.
//!
//! Run: `cargo run --release --example extend_resources`

use bbsched::core::decision::{choose_preferred, DecisionRule};
use bbsched::core::pools::PoolState;
use bbsched::core::problem::{JobDemand, KnapsackMooProblem};
use bbsched::core::resource::ResourceModel;
use bbsched::core::{GaConfig, MooGa};
use bbsched::policies::{GaParams, PolicyKind, SelectionPolicy};

fn main() {
    // 16 free nodes: 8 with 128 GB SSDs, 8 with 256 GB; 20 TB free BB.
    let model = ResourceModel::cpu_bb_ssd(8, 8, 20_000.0);

    let window = vec![
        JobDemand::cpu_bb_ssd(6, 8_000.0, 200.0), // needs 256-GB nodes
        JobDemand::cpu_bb_ssd(4, 0.0, 64.0),      // happy on 128-GB nodes
        JobDemand::cpu_bb_ssd(8, 12_000.0, 100.0), // big BB + modest SSD
        JobDemand::cpu_bb_ssd(2, 0.0, 250.0),     // needs 256-GB nodes
        JobDemand::cpu_bb_ssd(4, 2_000.0, 0.0),   // no SSD at all
    ];

    // --- the raw four-objective machinery ---
    let problem = KnapsackMooProblem::new(window.clone(), model);
    let front = MooGa::new(GaConfig::default()).solve(&problem);
    println!("Four-objective Pareto set ({} points):", front.len());
    println!(
        "{:>8} {:>10} {:>10} {:>12}  selection",
        "nodes", "bb (GB)", "ssd (GB)", "wasted (GB)"
    );
    for s in front.solutions() {
        let sel: Vec<String> = s.chromosome.selected().map(|i| format!("J{}", i + 1)).collect();
        println!(
            "{:>8.0} {:>10.0} {:>10.0} {:>12.0}  [{}]",
            s.objectives[0],
            s.objectives[1],
            s.objectives[2],
            -s.objectives[3],
            sel.join(", ")
        );
    }

    let chosen =
        choose_preferred(&front, problem.normalizers().as_slice(), DecisionRule::multi_resource())
            .expect("non-empty front");
    let sel: Vec<String> = chosen.chromosome.selected().map(|i| format!("J{}", i + 1)).collect();
    println!("\n4x decision rule starts: [{}]", sel.join(", "));

    // --- the same thing through the policy interface ---
    let pool = PoolState::with_ssd(8, 8, 20_000.0);
    println!("\nPolicy-level comparison on the same window:");
    let ga = GaParams { generations: 500, ..GaParams::default() };
    for kind in [
        PolicyKind::Baseline,
        PolicyKind::ConstrainedSsd,
        PolicyKind::Weighted,
        PolicyKind::BbSched,
    ] {
        let mut p: Box<dyn SelectionPolicy> = kind.build(ga);
        let chosen = p.select(&window, &pool, 0);
        let names: Vec<String> = chosen.iter().map(|&i| format!("J{}", i + 1)).collect();
        println!("  {:<16} -> [{}]", kind.name(), names.join(", "));
    }
}
