//! GA evaluation helpers and the coarse-grained worker pool.
//!
//! §3.2.2 notes that the genetic solver "can be accelerated by leveraging
//! parallel processing" and §3.3 that the `O(G × P)` cost "can be further
//! lowered via parallel processing of the MOO". For the paper's knapsack
//! objectives a chromosome evaluation costs too little for per-generation
//! threading to pay: sharding each generation over scoped threads made a
//! 500-job Theta `simulate` with `BBSched` many times slower than the
//! serial path, not faster. So the GA evaluates on one thread, through the
//! memo ([`repair_and_evaluate_memo`]), and threads go to the coarse grain:
//! [`run_batch`] runs whole simulations or experiment-grid cells, which are
//! seconds-scale and embarrassingly parallel. `compare --threads` and the
//! bench sweep driver (`BBSCHED_THREADS`) fan out over it, and it returns
//! results in input order, so parallel output is byte-identical to serial
//! output.
//!
//! Workers run under `std::thread::scope`, which joins them all on scope
//! exit and propagates their panics.

use crate::chromosome::Chromosome;
use crate::problem::MooProblem;
use crate::Objectives;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// FNV-1a hasher for the memo: chromosome keys are one or two `u64` words,
/// for which SipHash's per-lookup cost is pure overhead on the GA hot path.
#[derive(Default)]
struct FnvHasher(u64);

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x1000_0000_01b3);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Greedy saturation: select every still-fitting unselected job, front of
/// the window first. Because both MOO formulations have objectives that are
/// monotone in the selection, the saturated chromosome weakly dominates the
/// input — exact Pareto points are always saturated.
///
/// Feasibility probes go through the problem's scratch state
/// ([`MooProblem::scratch_from`]), so one pass over the window costs O(w)
/// aggregate work instead of the O(w²) of a full rescan per probe.
pub fn saturate<P: MooProblem + ?Sized>(problem: &P, c: &mut Chromosome) {
    let mut scratch = problem.scratch_from(c);
    for i in 0..c.len() {
        if !c.get(i) {
            problem.scratch_set(&mut scratch, i, true);
            if problem.scratch_is_feasible(&scratch) {
                c.set(i, true);
            } else {
                problem.scratch_set(&mut scratch, i, false);
            }
        }
    }
}

/// Memo of repair/saturate/evaluate results, keyed by the *pre-repair*
/// chromosome.
///
/// Sound because repair and saturation are pure functions of the chromosome
/// (the cyclic repair order derives from the content hash, not an RNG) and
/// `evaluate` is pure by the [`MooProblem`] contract. Duplicate children
/// proliferate once the population converges — crossover of equal parents
/// reproduces them exactly — so late-run generations hit the memo almost
/// every time. One memo must never be shared across different problems.
#[derive(Default)]
pub struct EvalMemo {
    map: HashMap<Chromosome, (Chromosome, Objectives), BuildHasherDefault<FnvHasher>>,
}

impl EvalMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct pre-repair chromosomes seen so far.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the memo has seen no chromosome yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Repairs (and optionally saturates) every chromosome in place and returns
/// their objective vectors. Each chromosome is looked up pre-repair, and
/// only misses pay for repair + saturation + evaluation; hits restore the
/// repaired chromosome, so results match an unmemoized pass exactly.
pub fn repair_and_evaluate_memo<P: MooProblem + ?Sized>(
    problem: &P,
    chroms: &mut [Chromosome],
    saturate_after: bool,
    memo: &mut EvalMemo,
) -> Vec<Objectives> {
    chroms
        .iter_mut()
        .map(|c| {
            if let Some((fixed, objs)) = memo.map.get(c) {
                c.clone_from(fixed);
                return *objs;
            }
            let key = c.clone();
            let objs = if saturate_after {
                problem.repair(c);
                saturate(problem, c);
                problem.evaluate(c)
            } else {
                problem.repair_evaluate(c)
            };
            memo.map.insert(key, (c.clone(), objs));
            objs
        })
        .collect()
}

/// Runs a batch of independent jobs on up to `threads` OS threads and
/// returns their results **in input order** — the coarse parallel grain
/// (whole GA invocations, whole simulations, whole experiment cells) where
/// threading actually pays on this workload; see the module doc.
///
/// Jobs are handed out dynamically (an atomic cursor), so uneven job costs
/// balance across workers. With `threads <= 1` or fewer than two jobs the
/// batch runs inline on the caller's thread, spawning nothing. Worker
/// panics propagate to the caller via `std::thread::scope`.
pub fn run_batch<T, F>(threads: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    if threads <= 1 || jobs.len() < 2 {
        return jobs.into_iter().map(|f| f()).collect();
    }
    let n = jobs.len();
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = jobs[i].lock().unwrap().take().expect("each job is taken once");
                *slots[i].lock().unwrap() = Some(job());
            });
        }
    });
    slots.into_iter().map(|m| m.into_inner().unwrap().expect("every job slot is filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{JobDemand, KnapsackMooProblem};
    use crate::resource::ResourceModel;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The unmemoized oracle: repair, optionally saturate, and evaluate
    /// every chromosome afresh.
    fn repair_and_evaluate<P: MooProblem + ?Sized>(
        problem: &P,
        chroms: &mut [Chromosome],
        saturate_after: bool,
    ) -> Vec<Objectives> {
        chroms
            .iter_mut()
            .map(|c| {
                problem.repair(c);
                if saturate_after {
                    saturate(problem, c);
                }
                problem.evaluate(c)
            })
            .collect()
    }

    fn random_problem(w: usize, seed: u64) -> (KnapsackMooProblem, Vec<Chromosome>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let window: Vec<JobDemand> = (0..w)
            .map(|_| JobDemand::cpu_bb(rng.random_range(1..100), rng.random_range(0.0..1000.0)))
            .collect();
        let problem = KnapsackMooProblem::new(window, ResourceModel::cpu_bb(200, 2_000.0));
        let chroms: Vec<Chromosome> = (0..32)
            .map(|_| {
                let mut c = Chromosome::zeros(w);
                for i in 0..w {
                    if rng.random_bool(0.5) {
                        c.set(i, true);
                    }
                }
                c
            })
            .collect();
        (problem, chroms)
    }

    #[test]
    fn all_outputs_feasible() {
        let (problem, mut chroms) = random_problem(25, 11);
        let _ = repair_and_evaluate_memo(&problem, &mut chroms, false, &mut EvalMemo::new());
        for c in &chroms {
            assert!(problem.is_feasible(c));
        }
    }

    #[test]
    fn handles_single_chromosome() {
        let (problem, mut chroms) = random_problem(10, 3);
        chroms.truncate(1);
        let out = repair_and_evaluate_memo(&problem, &mut chroms, false, &mut EvalMemo::new());
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn handles_empty_batch() {
        let (problem, _) = random_problem(10, 3);
        let mut none: Vec<Chromosome> = vec![];
        let out = repair_and_evaluate_memo(&problem, &mut none, false, &mut EvalMemo::new());
        assert!(out.is_empty());
    }

    #[test]
    fn run_batch_preserves_input_order() {
        let want: Vec<usize> = (0..40).map(|i| i * i).collect();
        for threads in [1usize, 2, 4, 16, 64] {
            let jobs: Vec<_> = (0..40).map(|i| move || i * i).collect();
            assert_eq!(run_batch(threads, jobs), want, "order broke at {threads} threads");
        }
    }

    #[test]
    fn run_batch_handles_empty_and_single() {
        assert!(run_batch::<i32, fn() -> i32>(4, vec![]).is_empty());
        assert_eq!(run_batch(4, vec![|| 7]), vec![7]);
    }

    #[test]
    fn memoized_path_matches_unmemoized() {
        let (problem, chroms) = random_problem(30, 31);
        // Duplicate a prefix so the memo actually gets hits.
        let mut with_dups = chroms.clone();
        with_dups.extend(chroms.iter().take(8).cloned());
        for saturate_after in [false, true] {
            let mut plain = with_dups.clone();
            let mut memoed = with_dups.clone();
            let mut memo = EvalMemo::new();
            assert!(memo.is_empty());
            let po = repair_and_evaluate(&problem, &mut plain, saturate_after);
            let mo = repair_and_evaluate_memo(&problem, &mut memoed, saturate_after, &mut memo);
            assert_eq!(plain, memoed, "memo hits must restore the repaired chromosome");
            for (a, b) in po.iter().zip(&mo) {
                assert_eq!(a.as_slice(), b.as_slice());
            }
            assert!(memo.len() <= with_dups.len() - 8, "duplicates must hit, not insert");
        }
    }

    #[test]
    fn saturation_weakly_dominates() {
        let (problem, chroms) = random_problem(30, 19);
        for c in &chroms {
            let mut repaired = c.clone();
            problem.repair(&mut repaired);
            let before = problem.evaluate(&repaired);
            let mut polished = repaired.clone();
            saturate(&problem, &mut polished);
            assert!(problem.is_feasible(&polished));
            let after = problem.evaluate(&polished);
            for (b, a) in before.as_slice().iter().zip(after.as_slice()) {
                assert!(a >= b, "saturation must not lose objective value");
            }
            // Saturated: no unselected job fits.
            for i in 0..polished.len() {
                if !polished.get(i) {
                    let mut probe = polished.clone();
                    probe.set(i, true);
                    assert!(!problem.is_feasible(&probe), "job {i} still fits after saturation");
                }
            }
        }
    }

    #[test]
    fn saturated_batch_matches_flag() {
        let (problem, chroms) = random_problem(20, 23);
        let mut plain = chroms.clone();
        let mut polished = chroms;
        let _ = repair_and_evaluate_memo(&problem, &mut plain, false, &mut EvalMemo::new());
        let _ = repair_and_evaluate_memo(&problem, &mut polished, true, &mut EvalMemo::new());
        // Polished chromosomes select a superset of the plain ones.
        for (a, b) in plain.iter().zip(&polished) {
            for i in 0..a.len() {
                assert!(!a.get(i) || b.get(i), "saturation removed a selection");
            }
        }
    }
}
