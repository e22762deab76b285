//! The waiting queue: base-scheduler priority order.
//!
//! [`QueueManager`] owns the queue of waiting job indices and the ordering
//! discipline of the configured [`BaseScheduler`]:
//!
//! * **FCFS** is a *static* total order — `(submit, id)` ascending — so
//!   the queue is kept sorted incrementally: each arrival is inserted at
//!   its binary-searched position and no per-invocation re-sort ever
//!   happens. This replaces the monolithic loop's full
//!   `O(n log n)`-per-invocation sort with `O(log n)` per arrival.
//! * **WFP** scores are time-dependent (`(wait/walltime)³ × nodes` grows
//!   every second), so the queue is re-scored and re-ordered at every
//!   scheduling invocation, as the paper's base scheduler does (§2.1).
//!   Each job's score is computed **once** into a reused buffer, and the
//!   order compares cached values with [`BaseScheduler::order`]'s
//!   comparator chain. The previous invocation's order (less the started
//!   jobs, arrivals appended) arrives almost sorted, so each entry is
//!   *inserted* into it: O(n + inversions). When the inserts have shifted
//!   more than `n·⌈log₂ n⌉` entries, the stable sort finishes the job.
//!
//! Both disciplines produce byte-identical orderings to the full
//! re-sort: FCFS because `(submit, id)` is the same strict total order the
//! sort used, WFP because scores are deterministic per `(job, now)` and
//! insertion is a stable sort too, applying the same comparator to the
//! same values (and the fallback stable-sorts a permutation that kept
//! every tie in its input order). Property tests below check both claims
//! on random queues.
//!
//! Started-job cleanup subtracts a [`JobSet`] bitset, so each membership
//! probe is a shift-and-mask instead of a hash, and only compacts the
//! queue prefix the starts can lie in (the window, under window-scoped
//! backfill); the rest of the queue moves up with one `copy_within`.

use crate::base_sched::BaseScheduler;
use crate::jobset::JobSet;
use bbsched_workloads::Job;
use std::cmp::Ordering;

/// The engine's waiting queue, ordered by base-scheduler priority.
#[derive(Clone, Debug)]
pub struct QueueManager {
    base: BaseScheduler,
    /// Indices into the engine's job table, highest priority first.
    queue: Vec<usize>,
    /// WFP order scratch: `(score, submit, id, idx)` per queued job,
    /// reused across invocations. Transient — never serialized.
    scored: Vec<Scored>,
}

/// A queued job's cached WFP key: `(score, submit, id, idx)`.
type Scored = (f64, f64, u64, usize);

/// WFP priority order on cached keys: descending score, then ascending
/// `(submit, id)` — [`BaseScheduler::order`]'s comparator chain.
fn wfp_cmp(a: &Scored, b: &Scored) -> Ordering {
    b.0.partial_cmp(&a.0)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal))
        .then_with(|| a.2.cmp(&b.2))
}

/// Stable-sorts `v` by [`wfp_cmp`], inserting each entry into the sorted
/// prefix before it: O(n + inversions) on an almost sorted `v`. Once the
/// inserts have shifted more than `n·⌈log₂ n⌉` entries, the standard
/// stable sort finishes instead; the permutation is the same either way,
/// since insertion never moves an entry past an equal one. Returns
/// whether it fell back.
fn insertion_sort(v: &mut [Scored]) -> bool {
    let n = v.len();
    let budget = n * n.next_power_of_two().trailing_zeros() as usize;
    let mut shifted = 0usize;
    for i in 1..n {
        let x = v[i];
        let mut at = i;
        while at > 0 && wfp_cmp(&x, &v[at - 1]).is_lt() {
            at -= 1;
        }
        if at < i {
            shifted += i - at;
            if shifted > budget {
                v.sort_by(wfp_cmp);
                return true;
            }
            v.copy_within(at..i, at + 1);
            v[at] = x;
        }
    }
    false
}

impl QueueManager {
    /// An empty queue under the given base scheduler.
    pub fn new(base: BaseScheduler) -> Self {
        Self { base, queue: Vec::new(), scored: Vec::new() }
    }

    /// The ordering discipline.
    pub fn base(&self) -> BaseScheduler {
        self.base
    }

    /// Number of waiting jobs.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The queue in priority order (valid after [`QueueManager::order`]).
    pub fn as_slice(&self) -> &[usize] {
        &self.queue
    }

    /// Enqueues an arrived job.
    ///
    /// FCFS inserts at the job's sorted `(submit, id)` position; WFP
    /// appends (the next [`QueueManager::order`] inserts it into place).
    pub fn push(&mut self, idx: usize, jobs: &[Job]) {
        match self.base {
            BaseScheduler::Fcfs => {
                let key = |i: usize| (jobs[i].submit, jobs[i].id);
                let (submit, id) = key(idx);
                let pos = self.queue.partition_point(|&q| {
                    let (qs, qid) = key(q);
                    qs.total_cmp(&submit).then(qid.cmp(&id)).is_lt()
                });
                self.queue.insert(pos, idx);
            }
            BaseScheduler::Wfp => self.queue.push(idx),
        }
    }

    /// Establishes priority order for a scheduling invocation at `now`.
    ///
    /// FCFS is already sorted (checked in debug builds). WFP scores every
    /// queued job once and re-orders the cached scores by insertion into
    /// the queue's current order with [`BaseScheduler::order`]'s
    /// comparator: descending score, then ascending `(submit, id)`.
    pub fn order(&mut self, jobs: &[Job], now: f64) {
        match self.base {
            BaseScheduler::Fcfs => {
                debug_assert!(
                    self.queue.windows(2).all(|w| {
                        let a = (jobs[w[0]].submit, jobs[w[0]].id);
                        let b = (jobs[w[1]].submit, jobs[w[1]].id);
                        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).is_lt()
                    }),
                    "incremental FCFS order violated"
                );
            }
            BaseScheduler::Wfp => {
                self.scored.clear();
                self.scored.extend(self.queue.iter().map(|&i| {
                    let j = &jobs[i];
                    (self.base.score(j, now), j.submit, j.id, i)
                }));
                insertion_sort(&mut self.scored);
                for (slot, e) in self.queue.iter_mut().zip(&self.scored) {
                    *slot = e.3;
                }
            }
        }
    }

    /// Removes every started job, preserving the order of the rest. Every
    /// started job must lie among the first `within` queue positions (the
    /// window under window-scoped backfill, the whole queue otherwise):
    /// that prefix is compacted with O(1) bitset probes, and the rest of
    /// the queue closes the gap with one `copy_within`.
    pub fn remove_started(&mut self, started: &JobSet, within: usize) {
        if started.is_empty() {
            return;
        }
        let within = within.min(self.queue.len());
        debug_assert!(
            self.queue[within..].iter().all(|&i| !started.contains(i)),
            "a started job lies beyond queue position {within}"
        );
        let mut kept = 0;
        for r in 0..within {
            let i = self.queue[r];
            self.queue[kept] = i;
            kept += usize::from(!started.contains(i));
        }
        self.queue.copy_within(within.., kept);
        self.queue.truncate(self.queue.len() - (within - kept));
    }

    /// Extracts the queue's owned state: the discipline and the waiting
    /// indices in their current order. The WFP order scratch is not part
    /// of the state (schema v1's `(base, queue)` pair is unchanged).
    pub fn snapshot(&self) -> QueueState {
        QueueState { base: self.base, queue: self.queue.clone() }
    }

    /// Rebuilds a queue from extracted state. The next
    /// [`QueueManager::order`] call re-establishes any time-dependent
    /// (WFP) ordering exactly as it would have mid-run.
    pub fn restore(state: QueueState) -> Self {
        Self { base: state.base, queue: state.queue, scored: Vec::new() }
    }
}

/// Owned state of a [`QueueManager`] (see [`QueueManager::snapshot`]).
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct QueueState {
    /// The ordering discipline.
    pub base: BaseScheduler,
    /// Waiting job indices in the order they were held.
    pub queue: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsched_workloads::Job;
    use proptest::prelude::*;

    fn jobs_from(submits: &[(f64, u64)]) -> Vec<Job> {
        submits.iter().map(|&(s, id)| Job::new(id, s, 1, 10.0, 20.0)).collect()
    }

    #[test]
    fn fcfs_incremental_insert_orders_by_submit_then_id() {
        let jobs = jobs_from(&[(5.0, 0), (1.0, 1), (5.0, 2), (0.5, 3)]);
        let mut q = QueueManager::new(BaseScheduler::Fcfs);
        for i in 0..jobs.len() {
            q.push(i, &jobs);
        }
        q.order(&jobs, 100.0);
        assert_eq!(q.as_slice(), &[3, 1, 0, 2]);
    }

    #[test]
    fn wfp_reorders_per_invocation() {
        // Equal submit; WFP favours the larger job once waiting.
        let jobs = vec![Job::new(0, 0.0, 2, 10.0, 100.0), Job::new(1, 0.0, 512, 10.0, 100.0)];
        let mut q = QueueManager::new(BaseScheduler::Wfp);
        q.push(0, &jobs);
        q.push(1, &jobs);
        q.order(&jobs, 50.0);
        assert_eq!(q.as_slice(), &[1, 0]);
    }

    #[test]
    fn remove_started_preserves_order() {
        let jobs = jobs_from(&[(1.0, 0), (2.0, 1), (3.0, 2), (4.0, 3)]);
        let mut q = QueueManager::new(BaseScheduler::Fcfs);
        for i in 0..jobs.len() {
            q.push(i, &jobs);
        }
        let mut started = JobSet::new();
        started.insert(1);
        started.insert(3);
        q.remove_started(&started, q.len());
        assert_eq!(q.as_slice(), &[0, 2]);
    }

    /// Satellite regression: removing a large started set from a large
    /// queue must stay linear-ish. 200k queued jobs with half of them
    /// started completes in one compaction pass over the bitset; a
    /// quadratic membership scan (list `contains` per element) would be
    /// ~10^10 operations and blow far past the generous timed bound even
    /// on slow CI machines.
    #[test]
    fn remove_started_large_queue_is_linearish() {
        const N: usize = 200_000;
        let jobs: Vec<Job> = (0..N).map(|i| Job::new(i as u64, i as f64, 1, 10.0, 20.0)).collect();
        let mut q = QueueManager::new(BaseScheduler::Fcfs);
        for i in 0..N {
            q.push(i, &jobs); // ascending (submit, id): appends, no memmove
        }
        let mut started = JobSet::new();
        for i in (0..N).step_by(2) {
            started.insert(i);
        }
        let t0 = std::time::Instant::now();
        q.remove_started(&started, q.len());
        let elapsed = t0.elapsed();
        assert_eq!(q.len(), N / 2);
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "large-queue removal took {elapsed:?}; linear bitset pass regressed"
        );
    }

    proptest! {
        /// Satellite invariant: pushing arrivals one by one into the FCFS
        /// queue yields exactly the order a full re-sort would produce, on
        /// random queues with duplicate submits and shuffled arrival order.
        #[test]
        fn prop_fcfs_incremental_equals_full_resort(
            submits in proptest::collection::vec((0u32..50, 0u64..1000), 1..60),
        ) {
            // Dedup ids (queue entries are distinct jobs).
            let mut seen = std::collections::HashSet::new();
            let submits: Vec<(f64, u64)> = submits
                .into_iter()
                .filter(|&(_, id)| seen.insert(id))
                .map(|(s, id)| (s as f64 * 0.5, id))
                .collect();
            let jobs = jobs_from(&submits);

            let mut incremental = QueueManager::new(BaseScheduler::Fcfs);
            for i in 0..jobs.len() {
                incremental.push(i, &jobs);
            }
            incremental.order(&jobs, 1_000.0);

            let mut full: Vec<usize> = (0..jobs.len()).collect();
            BaseScheduler::Fcfs.order(&mut full, &jobs, 1_000.0);

            prop_assert_eq!(incremental.as_slice(), &full[..]);
        }

        /// The WFP queue's order must equal the full recompute-in-comparator
        /// re-sort ([`BaseScheduler::order`]) at **every** invocation of a
        /// lifelike interleaving — arrival batches (including same-instant
        /// submits), mid-queue removals (job starts), and invocations at
        /// strictly advancing times. Job parameters are drawn from tiny
        /// sets (`r ∈ {2, 3}` distinct walltimes, power-of-two node counts,
        /// submits pinned to the arrival instant) so exact score ties and
        /// bit-equal `(submit, nodes, walltime)` classes are common — the
        /// regime where the cached-score sort's tie-breaks and stability
        /// could silently diverge from the reference.
        #[test]
        fn prop_wfp_interleaved_equals_full_resort_every_invocation(
            r in 2usize..=3,
            steps in proptest::collection::vec((0u8..6, 0usize..5, 0u32..240), 1..40),
        ) {
            const WALLS: [f64; 3] = [600.0, 3_600.0, 60.0];
            let mut jobs: Vec<Job> = Vec::new();
            let mut q = QueueManager::new(BaseScheduler::Wfp);
            let mut now = 0.0f64;
            let check = |q: &QueueManager, jobs: &[Job], now: f64| {
                let mut full: Vec<usize> = q.as_slice().to_vec();
                full.sort(); // oracle input order must not leak hints
                BaseScheduler::Wfp.order(&mut full, jobs, now);
                full
            };
            for (op, a, b) in steps {
                match op {
                    // Arrival batch: a+1 jobs submitted at this instant
                    // (same-submit ties guaranteed within the batch).
                    0 | 1 => {
                        for k in 0..=a {
                            let idx = jobs.len();
                            let nodes = 1u32 << ((b as usize + k) % 4);
                            let wall = WALLS[(b as usize + k) % r];
                            jobs.push(Job::new(idx as u64, now, nodes, wall * 0.5, wall));
                            q.push(idx, &jobs);
                        }
                    }
                    // Starts: remove a deterministic mid-queue subset.
                    2 | 3 => {
                        let mut started = JobSet::new();
                        for (p, &i) in q.as_slice().iter().enumerate() {
                            if (p + a) % 4 == 0 {
                                started.insert(i);
                            }
                        }
                        q.remove_started(&started, q.len());
                    }
                    // Invocation: advance time, order, compare to the
                    // full re-sort oracle.
                    _ => {
                        now += 1.0 + f64::from(b) * 7.0;
                        q.order(&jobs, now);
                        prop_assert_eq!(q.as_slice(), &check(&q, &jobs, now)[..]);
                    }
                }
            }
            now += 13.0;
            q.order(&jobs, now);
            prop_assert_eq!(q.as_slice(), &check(&q, &jobs, now)[..]);
        }

        /// One WFP invocation over a freshly pushed queue: the cached-score
        /// sort must be the identical permutation to the
        /// recompute-in-comparator sort, including score ties (equal jobs)
        /// and submit-time ties.
        #[test]
        fn prop_wfp_cached_scores_equal_recompute_sort(
            specs in proptest::collection::vec(
                (0u32..100, 1u32..64, 1u32..40, 0u64..1000), 1..50),
            now in 100u32..5000,
        ) {
            let mut seen = std::collections::HashSet::new();
            let jobs: Vec<Job> = specs
                .into_iter()
                .filter(|&(_, _, _, id)| seen.insert(id))
                .map(|(s, nodes, wall, id)| {
                    Job::new(id, s as f64, nodes, wall as f64 * 30.0, wall as f64 * 60.0)
                })
                .collect();
            let now = now as f64;

            let mut q = QueueManager::new(BaseScheduler::Wfp);
            for i in 0..jobs.len() {
                q.push(i, &jobs);
            }
            q.order(&jobs, now);

            let mut full: Vec<usize> = (0..jobs.len()).collect();
            BaseScheduler::Wfp.order(&mut full, &jobs, now);

            prop_assert_eq!(q.as_slice(), &full[..]);
        }

        /// WFP ordering by insertion into the previous order equals the
        /// full recompute-in-comparator sort whatever that previous order
        /// was: random, already sorted, or reversed. Reversed, every pair
        /// is an inversion, so the inserts overrun their `n·⌈log₂ n⌉`
        /// shift budget and the stable-sort fallback finishes the order.
        #[test]
        fn prop_wfp_insertion_from_any_previous_order_equals_full_sort(
            specs in proptest::collection::vec((0u32..100, 1u32..64, 1u32..40), 16..80),
            shuffle in proptest::collection::vec(0usize..1_000, 80),
            now in 100u32..5000,
        ) {
            let jobs: Vec<Job> = specs
                .iter()
                .enumerate()
                .map(|(id, &(s, nodes, wall))| {
                    Job::new(id as u64, f64::from(s), nodes, f64::from(wall) * 30.0, f64::from(wall) * 60.0)
                })
                .collect();
            let now = f64::from(now);
            let mut sorted: Vec<usize> = (0..jobs.len()).collect();
            BaseScheduler::Wfp.order(&mut sorted, &jobs, now);

            let mut random: Vec<usize> = (0..jobs.len()).collect();
            for (i, &r) in shuffle.iter().enumerate().take(jobs.len()) {
                random.swap(i, r % jobs.len());
            }
            let reversed: Vec<usize> = sorted.iter().rev().copied().collect();
            for previous in [random, sorted.clone(), reversed.clone()] {
                let mut q = QueueManager::restore(QueueState { base: BaseScheduler::Wfp, queue: previous });
                q.order(&jobs, now);
                prop_assert_eq!(q.as_slice(), &sorted[..]);
            }

            let key = |i: usize| (BaseScheduler::Wfp.score(&jobs[i], now), jobs[i].submit, jobs[i].id, i);
            let mut in_order: Vec<Scored> = sorted.iter().map(|&i| key(i)).collect();
            prop_assert!(!insertion_sort(&mut in_order), "a sorted order needs no fallback");
            let mut backwards: Vec<Scored> = reversed.iter().map(|&i| key(i)).collect();
            prop_assert!(insertion_sort(&mut backwards), "a reversed order must fall back");
            prop_assert!(backwards.iter().map(|e| e.3).eq(sorted.iter().copied()));
        }

        /// Compacting only the prefix the starts lie in equals the full
        /// `retain` over the queue, for any start set inside a random
        /// window prefix (including the empty set and the whole queue).
        #[test]
        fn prop_prefix_removal_equals_full_retain(
            n in 0usize..300,
            within in 0usize..300,
            picks in proptest::collection::vec(proptest::prelude::any::<bool>(), 300),
        ) {
            let queue: Vec<usize> = (0..n).map(|i| (i * 7_919) % 1_009).collect();
            let within = within.min(n);
            let mut started = JobSet::new();
            for (&i, _) in queue[..within].iter().zip(&picks).filter(|(_, &p)| p) {
                started.insert(i);
            }
            let mut q = QueueManager::restore(QueueState { base: BaseScheduler::Fcfs, queue: queue.clone() });
            q.remove_started(&started, within);
            let mut full = queue;
            full.retain(|&i| !started.contains(i));
            prop_assert_eq!(q.as_slice(), &full[..]);
        }
    }
}
