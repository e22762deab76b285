//! Pareto dominance and front extraction.
//!
//! All objectives are *maximized* (the paper expresses minimization of
//! wasted SSD as maximizing its negation). A solution is in the Pareto set
//! "if improving one of its objectives would deteriorate at least one other
//! objective" (§3.2.2).

use crate::chromosome::Chromosome;
use crate::Objectives;

/// Returns `true` iff `a` dominates `b`: `a` is at least as good in every
/// objective and strictly better in at least one.
#[inline]
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strictly_better = false;
    for (&x, &y) in a.iter().zip(b) {
        if x < y {
            return false;
        }
        if x > y {
            strictly_better = true;
        }
    }
    strictly_better
}

/// A solution paired with its objective vector.
#[derive(Clone, Debug)]
pub struct Solution {
    /// The selection vector.
    pub chromosome: Chromosome,
    /// Its (cached) objective values.
    pub objectives: Objectives,
}

/// A set of mutually non-dominated solutions.
///
/// The front deduplicates identical objective vectors, keeping the first
/// solution inserted with that vector (see [`ParetoFront::insert`]), so
/// downstream trade-off analysis sees one representative per objective
/// point.
#[derive(Clone, Debug, Default)]
pub struct ParetoFront {
    solutions: Vec<Solution>,
}

impl ParetoFront {
    /// An empty front.
    pub fn new() -> Self {
        Self::default()
    }

    /// Extracts the Pareto front from an arbitrary pool of solutions.
    pub fn from_pool<I>(pool: I) -> Self
    where
        I: IntoIterator<Item = Solution>,
    {
        let mut front = Self::new();
        for s in pool {
            front.insert(s);
        }
        front
    }

    /// Attempts to add a solution. Returns `true` if it joined the front
    /// (it was not dominated); dominated members are evicted.
    ///
    /// A solution whose objective vector equals a member's is rejected:
    /// the first one inserted wins, whatever its chromosome. That is
    /// population order in the GA and ascending mask order in
    /// [`crate::exhaustive::solve`];
    /// [`crate::decision::choose_preferred`]'s §3.2.4 front-of-window
    /// tie-break ranks only the solutions the front kept.
    pub fn insert(&mut self, s: Solution) -> bool {
        for existing in &self.solutions {
            if dominates(existing.objectives.as_slice(), s.objectives.as_slice()) {
                return false;
            }
            if existing.objectives.as_slice() == s.objectives.as_slice() {
                // Duplicate objective point: the first inserted stays.
                return false;
            }
        }
        self.solutions.retain(|e| !dominates(s.objectives.as_slice(), e.objectives.as_slice()));
        self.solutions.push(s);
        true
    }

    /// The solutions on the front (unspecified order).
    pub fn solutions(&self) -> &[Solution] {
        &self.solutions
    }

    /// Number of solutions on the front.
    pub fn len(&self) -> usize {
        self.solutions.len()
    }

    /// Whether the front is empty.
    pub fn is_empty(&self) -> bool {
        self.solutions.is_empty()
    }

    /// Iterate over objective vectors.
    pub fn objective_vectors(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.solutions.iter().map(|s| s.objectives.as_slice())
    }

    /// Sorts the front by descending first objective (node utilization),
    /// breaking ties by front-of-window preference. Useful for stable
    /// display and for the decision maker.
    pub fn sort_by_first_objective(&mut self) {
        self.solutions.sort_by(|a, b| {
            b.objectives[0]
                .partial_cmp(&a.objectives[0])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.chromosome.front_preference(&b.chromosome))
        });
    }

    /// Consumes the front, returning its solutions.
    pub fn into_solutions(self) -> Vec<Solution> {
        self.solutions
    }

    /// Verifies the front invariant: no member dominates another. Intended
    /// for tests and debug assertions.
    pub fn is_mutually_nondominated(&self) -> bool {
        for (i, a) in self.solutions.iter().enumerate() {
            for (j, b) in self.solutions.iter().enumerate() {
                if i != j && dominates(a.objectives.as_slice(), b.objectives.as_slice()) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sol(bits: &[bool], objs: &[f64]) -> Solution {
        Solution {
            chromosome: Chromosome::from_bits(bits),
            objectives: Objectives::from_slice(objs),
        }
    }

    #[test]
    fn dominance_basics() {
        assert!(dominates(&[2.0, 2.0], &[1.0, 2.0]));
        assert!(dominates(&[2.0, 3.0], &[1.0, 2.0]));
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0])); // equal: not strict
        assert!(!dominates(&[2.0, 1.0], &[1.0, 2.0])); // trade-off
        assert!(!dominates(&[0.0, 0.0], &[1.0, 0.0]));
    }

    #[test]
    fn front_keeps_tradeoffs_drops_dominated() {
        let mut f = ParetoFront::new();
        assert!(f.insert(sol(&[true, false], &[100.0, 20.0])));
        assert!(f.insert(sol(&[false, true], &[80.0, 90.0])));
        // Dominated by the first point.
        assert!(!f.insert(sol(&[false, false], &[90.0, 20.0])));
        assert_eq!(f.len(), 2);
        assert!(f.is_mutually_nondominated());
    }

    #[test]
    fn front_evicts_newly_dominated() {
        let mut f = ParetoFront::new();
        f.insert(sol(&[true, false], &[50.0, 50.0]));
        f.insert(sol(&[false, true], &[60.0, 60.0]));
        assert_eq!(f.len(), 1);
        assert_eq!(f.solutions()[0].objectives.as_slice(), &[60.0, 60.0]);
    }

    /// Equal objective vectors keep the first inserted, in either order.
    #[test]
    fn front_dedups_equal_points() {
        let front_job = [true, false];
        let rear_job = [false, true];
        for (first, second) in [(front_job, rear_job), (rear_job, front_job)] {
            let mut f = ParetoFront::new();
            assert!(f.insert(sol(&first, &[10.0, 10.0])));
            assert!(!f.insert(sol(&second, &[10.0, 10.0])));
            assert_eq!(f.len(), 1);
            assert_eq!(f.solutions()[0].chromosome, Chromosome::from_bits(&first));
        }
    }

    #[test]
    fn sort_orders_by_nodes_desc() {
        let mut f = ParetoFront::new();
        f.insert(sol(&[false, true], &[80.0, 90.0]));
        f.insert(sol(&[true, false], &[100.0, 20.0]));
        f.sort_by_first_objective();
        assert_eq!(f.solutions()[0].objectives[0], 100.0);
        assert_eq!(f.solutions()[1].objectives[0], 80.0);
    }

    #[test]
    fn empty_front() {
        let f = ParetoFront::new();
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        assert!(f.is_mutually_nondominated());
    }
}
