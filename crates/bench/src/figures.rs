//! Shared rendering for the figure binaries.
//!
//! Figures 6, 7, 8, and 12 are the same experiment grid (2 machines ×
//! 5 workloads × 8 policies) viewed through different metrics;
//! [`print_metric_grid`] runs the grid once (via the shared cache) and
//! prints one table per machine with policies as rows and workloads as
//! columns, mirroring the paper's bar-group layout.

use crate::experiments::{sweep_summaries, sweep_threads, GridCell, Machine, Scale};
use crate::report::Table;
use bbsched_metrics::MethodSummary;
use bbsched_policies::PolicyKind;
use bbsched_workloads::Workload;

/// Prints the standard `machine × workload × policy` grid for one metric.
///
/// All cells (both machines) are simulated up front through the parallel
/// sweep driver — `BBSCHED_THREADS` workers, serial by default — and then
/// printed in the fixed grid order, so the output never depends on the
/// thread count.
pub fn print_metric_grid<F>(title: &str, scale: &Scale, metric: F)
where
    F: Fn(&MethodSummary) -> String,
{
    println!("{title}");
    println!("scale: {scale:?}\n");
    let cells: Vec<GridCell> = Machine::both()
        .into_iter()
        .flat_map(|machine| {
            PolicyKind::main_roster().into_iter().flat_map(move |kind| {
                Workload::main_grid().into_iter().map(move |w| (machine, w, kind))
            })
        })
        .collect();
    let summaries = sweep_summaries(&cells, scale, sweep_threads());
    let mut next = summaries.iter();
    for machine in Machine::both() {
        let mut header: Vec<String> = vec!["Method".to_string()];
        header.extend(
            Workload::main_grid().iter().map(|w| format!("{}-{}", machine.name(), w.name())),
        );
        let mut table = Table::new(header);
        for kind in PolicyKind::main_roster() {
            let mut row = vec![kind.name().to_string()];
            for _ in Workload::main_grid() {
                row.push(metric(next.next().expect("one summary per cell")));
            }
            table.row(row);
        }
        println!("--- {} (base: {}) ---", machine.name(), machine.base().name());
        table.print();
        println!();
    }
}

/// Percentage improvement of `new` over `baseline` where *smaller is
/// better* (wait time, slowdown): positive = improvement.
pub fn reduction_pct(baseline: f64, new: f64) -> f64 {
    if baseline <= 0.0 {
        0.0
    } else {
        (baseline - new) / baseline * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_math() {
        assert_eq!(reduction_pct(100.0, 59.0), 41.0);
        assert_eq!(reduction_pct(0.0, 10.0), 0.0);
        assert!(reduction_pct(50.0, 60.0) < 0.0);
    }
}
