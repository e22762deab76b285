//! Exhaustive MOO solver: the ground truth the GA approximates.
//!
//! §3.2.2: "To find all solutions, one has to exhaustively examine `2^w`
//! possible solutions and compare them to determine a Pareto set." This is
//! exactly what this module does. Its exponential running time is the red
//! curve of Fig. 2; its output is the "true Pareto set `S*`" used by the
//! generational-distance metric of §3.2.3 / Fig. 4.

use crate::chromosome::Chromosome;
use crate::pareto::{ParetoFront, Solution};
use crate::problem::KnapsackMooProblem;

/// Hard cap on window size: `2^30` evaluations is already ~minutes; beyond
/// that the exhaustive solver is useless even as ground truth.
pub const MAX_EXHAUSTIVE_WINDOW: usize = 30;

/// Error returned when a window is too large to enumerate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowTooLarge {
    /// The offending window size.
    pub len: usize,
}

impl std::fmt::Display for WindowTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "window of {} jobs exceeds the exhaustive-solver cap of {MAX_EXHAUSTIVE_WINDOW}",
            self.len
        )
    }
}

impl std::error::Error for WindowTooLarge {}

/// Enumerates all `2^w` selections and returns the exact Pareto front.
///
/// Infeasible selections are skipped; feasible ones are folded into a
/// [`ParetoFront`]. Insertion order is ascending bitmask, so among equal
/// objective vectors the front retains the lowest-mask selection
/// ([`ParetoFront::insert`] keeps the first inserted);
/// [`crate::decision::choose_preferred`] applies the §3.2.4 tie-break only
/// among the solutions the front kept.
pub fn solve(problem: &KnapsackMooProblem) -> Result<ParetoFront, WindowTooLarge> {
    let w = problem.len();
    if w > MAX_EXHAUSTIVE_WINDOW {
        return Err(WindowTooLarge { len: w });
    }
    let mut front = ParetoFront::new();
    // Enumerate in Gray-code-free plain order; masks fit in u64 for w <= 30.
    for mask in 0..(1u64 << w) {
        let c = Chromosome::from_mask(mask, w);
        if !problem.is_feasible(&c) {
            continue;
        }
        let objectives = problem.evaluate(&c);
        front.insert(Solution { chromosome: c, objectives });
    }
    Ok(front)
}

/// Counts feasible selections (diagnostic; used by tests and the Fig. 2
/// harness to report search-space sizes).
pub fn count_feasible(problem: &KnapsackMooProblem) -> Result<u64, WindowTooLarge> {
    let w = problem.len();
    if w > MAX_EXHAUSTIVE_WINDOW {
        return Err(WindowTooLarge { len: w });
    }
    let mut n = 0;
    for mask in 0..(1u64 << w) {
        if problem.is_feasible(&Chromosome::from_mask(mask, w)) {
            n += 1;
        }
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::JobDemand;
    use crate::resource::ResourceModel;

    fn table1_problem() -> KnapsackMooProblem {
        KnapsackMooProblem::new(
            vec![
                JobDemand::cpu_bb(80, 20_000.0),
                JobDemand::cpu_bb(10, 85_000.0),
                JobDemand::cpu_bb(40, 5_000.0),
                JobDemand::cpu_bb(10, 0.0),
                JobDemand::cpu_bb(20, 0.0),
            ],
            ResourceModel::cpu_bb(100, 100_000.0),
        )
    }

    #[test]
    fn table1_true_front() {
        let mut front = solve(&table1_problem()).unwrap();
        front.sort_by_first_objective();
        let pts: Vec<Vec<f64>> = front.objective_vectors().map(|v| v.to_vec()).collect();
        // Footnote 1: "the Pareto set contains Solution 2 and 3".
        assert!(pts.contains(&vec![100.0, 20_000.0]));
        assert!(pts.contains(&vec![80.0, 90_000.0]));
        assert!(front.is_mutually_nondominated());
        // No front point may be dominated by any feasible selection.
        for mask in 0u64..(1 << 5) {
            let c = crate::Chromosome::from_mask(mask, 5);
            let p = table1_problem();
            if p.is_feasible(&c) {
                let o = p.evaluate(&c);
                for fp in front.objective_vectors() {
                    assert!(!crate::pareto::dominates(o.as_slice(), fp));
                }
            }
        }
    }

    #[test]
    fn empty_window() {
        let p = KnapsackMooProblem::new(vec![], ResourceModel::cpu_bb(10, 10.0));
        let front = solve(&p).unwrap();
        // The empty selection (0, 0) is the only point.
        assert_eq!(front.len(), 1);
        assert_eq!(front.solutions()[0].objectives.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn rejects_oversized_window() {
        let window = vec![JobDemand::cpu_bb(1, 0.0); MAX_EXHAUSTIVE_WINDOW + 1];
        let p = KnapsackMooProblem::new(window, ResourceModel::cpu_bb(1000, 1000.0));
        assert!(solve(&p).is_err());
        assert!(count_feasible(&p).is_err());
    }

    #[test]
    fn feasible_count_matches_enumeration() {
        let p = table1_problem();
        let n = count_feasible(&p).unwrap();
        // At minimum the empty selection is feasible, and not all 32 are.
        assert!((1..32).contains(&n));
    }
}
