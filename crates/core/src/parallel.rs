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
use crate::problem::KnapsackMooProblem;
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

/// Memo of repair + evaluate results, keyed by the *pre-repair* chromosome.
///
/// Sound because repair is a pure function of the chromosome (the cyclic
/// repair order derives from the content hash, not an RNG) and so is
/// [`KnapsackMooProblem::evaluate`]. Duplicate children
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

/// Repairs every chromosome in place and returns their objective vectors.
/// Each chromosome is looked up pre-repair, and only misses pay for the
/// fused [`KnapsackMooProblem::repair_evaluate`]; hits restore the repaired
/// chromosome, so results match an unmemoized pass exactly.
pub fn repair_and_evaluate_memo(
    problem: &KnapsackMooProblem,
    chroms: &mut [Chromosome],
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
            let objs = problem.repair_evaluate(c);
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
    use crate::problem::JobDemand;
    use crate::resource::ResourceModel;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The unmemoized oracle: repair, then evaluate every chromosome afresh.
    fn repair_and_evaluate(
        problem: &KnapsackMooProblem,
        chroms: &mut [Chromosome],
    ) -> Vec<Objectives> {
        chroms
            .iter_mut()
            .map(|c| {
                problem.repair(c);
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
        let _ = repair_and_evaluate_memo(&problem, &mut chroms, &mut EvalMemo::new());
        for c in &chroms {
            assert!(problem.is_feasible(c));
        }
    }

    #[test]
    fn handles_single_chromosome() {
        let (problem, mut chroms) = random_problem(10, 3);
        chroms.truncate(1);
        let out = repair_and_evaluate_memo(&problem, &mut chroms, &mut EvalMemo::new());
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn handles_empty_batch() {
        let (problem, _) = random_problem(10, 3);
        let mut none: Vec<Chromosome> = vec![];
        let out = repair_and_evaluate_memo(&problem, &mut none, &mut EvalMemo::new());
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
        let mut plain = with_dups.clone();
        let mut memoed = with_dups.clone();
        let mut memo = EvalMemo::new();
        assert!(memo.is_empty());
        let po = repair_and_evaluate(&problem, &mut plain);
        let mo = repair_and_evaluate_memo(&problem, &mut memoed, &mut memo);
        assert_eq!(plain, memoed, "memo hits must restore the repaired chromosome");
        for (a, b) in po.iter().zip(&mo) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        assert!(memo.len() <= with_dups.len() - 8, "duplicates must hit, not insert");
    }
}
