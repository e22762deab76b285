//! The allocation ledger: resource accounting with conservation checks.
//!
//! Wraps [`PoolState`] with the bookkeeping the engine needs around it —
//! which jobs hold allocations, their capacity-clamped demands and node
//! assignments, and their estimated completion times — and asserts the
//! conservation laws the monolithic loop used to rely on implicitly:
//! every allocation is eventually freed, free capacity never goes
//! negative, and never exceeds total capacity.
//!
//! The ledger also maintains the running set **incrementally sorted by
//! `(est_end, index)`**. The EASY shadow computation and the conservative
//! availability profile both need the running jobs in estimated-completion
//! order; the old loop rebuilt and re-sorted that list from a `HashMap` on
//! every use, which [`crate::backfill`] now avoids by iterating
//! [`AllocLedger::release_order`] directly.

use crate::error::SchedError;
use crate::idhash::BuildIdHasher;
use bbsched_core::pools::{NodeAssignment, PoolState};
use bbsched_core::problem::JobDemand;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Slack tolerated in floating-point conservation checks (GB / nodes).
const CONSERVE_EPS: f64 = 1e-6;

/// Start/finish deltas retained for incremental consumers (see
/// [`AllocLedger::deltas_since`]). 4096 entries cover every realistic gap
/// between two backfill passes; a consumer that falls further behind
/// resynchronizes from [`AllocLedger::release_order`] instead.
const DELTA_LOG_CAP: usize = 4_096;

/// One mutation of the running set, as replayed by incremental consumers
/// (the conservative-backfill availability profile keeps a sorted mirror
/// of the release order up to date by applying these).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum LedgerDelta {
    /// Job `idx` started and holds `entry`.
    Start {
        /// Index into the engine's job table.
        idx: usize,
        /// The new ledger entry.
        entry: RunningJob,
    },
    /// Job `idx` (whose entry recorded `est_end`) finished and freed its
    /// allocation.
    Finish {
        /// Index into the engine's job table.
        idx: usize,
        /// The estimated completion the entry was keyed under.
        est_end: f64,
    },
}

/// One running job's ledger entry.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunningJob {
    /// Estimated completion (`start + walltime`) — what a production
    /// scheduler would plan with.
    pub est_end: f64,
    /// Allocated (clamped) demand.
    pub demand: JobDemand,
    /// Node split across per-node flavour pools.
    pub assignment: NodeAssignment,
}

/// `f64` ordered by `total_cmp` so it can key a [`BTreeSet`].
#[derive(Clone, Copy, Debug, PartialEq)]
struct OrdTime(f64);

impl Eq for OrdTime {}

impl Ord for OrdTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for OrdTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Resource accounting for the engine: a [`PoolState`] plus the running
/// set, with alloc/free conservation asserted at every transition.
#[derive(Clone, Debug)]
pub struct AllocLedger {
    pool: PoolState,
    capacity: PoolState,
    running: HashMap<usize, RunningJob, BuildIdHasher>,
    /// Running jobs keyed by `(est_end, index)` — the release order.
    by_est_end: BTreeSet<(OrdTime, usize)>,
    allocs: u64,
    frees: u64,
    /// Monotone mutation counter (`allocs + frees`): the "time" axis of
    /// the delta log below.
    generation: u64,
    /// Recent start/finish deltas; `log_floor` is the generation just
    /// before the front entry was applied.
    log: VecDeque<LedgerDelta>,
    log_floor: u64,
}

impl AllocLedger {
    /// A ledger over a fully free pool.
    pub fn new(pool: PoolState) -> Self {
        Self {
            pool,
            capacity: pool,
            running: HashMap::default(),
            by_est_end: BTreeSet::new(),
            allocs: 0,
            frees: 0,
            generation: 0,
            log: VecDeque::new(),
            log_floor: 0,
        }
    }

    /// The mutation generation: increments on every start and finish.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The start/finish deltas applied after generation `since`, oldest
    /// first, or `None` if the log no longer reaches back that far (or
    /// `since` is from the future) — the caller must then resynchronize
    /// from [`AllocLedger::release_order`].
    pub fn deltas_since(&self, since: u64) -> Option<impl Iterator<Item = &LedgerDelta> + '_> {
        if since < self.log_floor || since > self.generation {
            return None;
        }
        Some(self.log.range((since - self.log_floor) as usize..))
    }

    fn push_delta(&mut self, delta: LedgerDelta) {
        if self.log.len() == DELTA_LOG_CAP {
            self.log.pop_front();
            self.log_floor += 1;
        }
        self.log.push_back(delta);
        self.generation += 1;
    }

    /// The current free state (for fit queries and policy availability).
    pub fn pool(&self) -> &PoolState {
        &self.pool
    }

    /// Whether `d` fits the free state right now.
    pub fn fits(&self, d: &JobDemand) -> bool {
        self.pool.fits(d)
    }

    /// Number of running jobs.
    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// The ledger entry of running job `idx`.
    pub fn get(&self, idx: usize) -> Option<&RunningJob> {
        self.running.get(&idx)
    }

    /// Total allocations and frees performed (diagnostic; a drained ledger
    /// has equal counts).
    pub fn churn(&self) -> (u64, u64) {
        (self.allocs, self.frees)
    }

    /// Allocates `demand` for job `idx`, recording `est_end` as its
    /// estimated completion. Returns the node assignment.
    ///
    /// # Panics
    /// Panics if the demand does not fit (callers must check
    /// [`AllocLedger::fits`] first — the engine never speculates) or if
    /// `idx` is already running.
    pub fn start(&mut self, idx: usize, demand: JobDemand, est_end: f64) -> NodeAssignment {
        assert!(self.pool.fits(&demand), "allocation without a fit check (job index {idx})");
        let assignment = self.pool.alloc(&demand);
        let entry = RunningJob { est_end, demand, assignment };
        let prev = self.running.insert(idx, entry);
        assert!(prev.is_none(), "job index {idx} started twice");
        self.by_est_end.insert((OrdTime(est_end), idx));
        self.allocs += 1;
        self.push_delta(LedgerDelta::Start { idx, entry });
        self.debug_check();
        assignment
    }

    /// Frees job `idx`'s allocation, returning its ledger entry.
    ///
    /// # Panics
    /// Panics if `idx` is not running (a finish event for a job the ledger
    /// never started would silently corrupt the pool otherwise). Restore
    /// paths, where "not running" means a corrupt snapshot rather than a
    /// driver bug, use [`AllocLedger::try_finish`] instead.
    pub fn finish(&mut self, idx: usize) -> RunningJob {
        self.try_finish(idx).expect("finish for job not running")
    }

    /// Frees job `idx`'s allocation, returning its ledger entry, or a
    /// [`SchedError::CorruptSnapshot`] when `idx` is not running — the
    /// fallible twin of [`AllocLedger::finish`] for paths fed by
    /// deserialized state instead of a live driver.
    pub fn try_finish(&mut self, idx: usize) -> Result<RunningJob, SchedError> {
        let entry = self.running.remove(&idx).ok_or_else(|| {
            SchedError::CorruptSnapshot(format!("finish for job index {idx}, which is not running"))
        })?;
        self.by_est_end.remove(&(OrdTime(entry.est_end), idx));
        self.pool.free(&entry.demand, entry.assignment);
        self.frees += 1;
        self.push_delta(LedgerDelta::Finish { idx, est_end: entry.est_end });
        self.debug_check();
        Ok(entry)
    }

    /// Running jobs in `(est_end, index)` order — the deterministic
    /// release schedule the backfill phase plans against. No sorting
    /// happens here; the order is maintained incrementally.
    pub fn release_order(&self) -> impl Iterator<Item = (usize, &RunningJob)> + '_ {
        self.by_est_end.iter().map(move |&(_, idx)| {
            (idx, self.running.get(&idx).expect("release order desynchronized"))
        })
    }

    /// The release schedule as `(est_end, demand, assignment)` tuples, the
    /// shape [`crate::AvailabilityProfile::new`] consumes.
    pub fn release_schedule(&self) -> Vec<(f64, JobDemand, NodeAssignment)> {
        self.release_order().map(|(_, r)| (r.est_end, r.demand, r.assignment)).collect()
    }

    /// Asserts the conservation invariants (always, not just in debug):
    /// free capacity of every resource is within `[0, capacity]`.
    pub fn assert_conserved(&self) {
        for r in 0..self.pool.num_resources() {
            let free = self.pool.free_of(r);
            let cap = self.capacity.free_of(r);
            assert!(
                free >= -CONSERVE_EPS && free <= cap + CONSERVE_EPS,
                "resource {r} free {free} outside [0, {cap}]"
            );
        }
    }

    /// Asserts the ledger drained cleanly: no job still holds resources
    /// and the pool is back to full capacity (every allocation was freed).
    pub fn assert_drained(&self) {
        assert!(self.running.is_empty(), "{} jobs never finished", self.running.len());
        assert!(self.by_est_end.is_empty(), "release order desynchronized at drain");
        assert_eq!(self.allocs, self.frees, "alloc/free counts diverge");
        for r in 0..self.pool.num_resources() {
            let free = self.pool.free_of(r);
            let cap = self.capacity.free_of(r);
            assert!(
                (free - cap).abs() <= CONSERVE_EPS,
                "resource {r} leaked: free {free} != capacity {cap}"
            );
        }
    }

    fn debug_check(&self) {
        debug_assert_eq!(self.running.len(), self.by_est_end.len());
        #[cfg(debug_assertions)]
        self.assert_conserved();
    }

    /// Extracts the ledger's owned state: the free pool **bit-exact** (it
    /// is serialized, not recomputed, so a restored run continues with the
    /// same floating-point values the interrupted run held), capacity,
    /// the running set in release order, the churn counters, and the
    /// delta log with its generation window.
    pub fn snapshot(&self) -> LedgerState {
        LedgerState {
            pool: self.pool,
            capacity: self.capacity,
            running: self.release_order().map(|(idx, r)| (idx, *r)).collect(),
            allocs: self.allocs,
            frees: self.frees,
            generation: self.generation,
            log: self.log.iter().copied().collect(),
            log_floor: self.log_floor,
        }
    }

    /// Rebuilds a ledger from extracted state, validating internal
    /// consistency: duplicate running indices, conservation violations,
    /// and a delta log that disagrees with its generation window all fail
    /// with a typed [`SchedError::CorruptSnapshot`] instead of corrupting
    /// the pool or panicking later.
    pub fn restore(state: LedgerState) -> Result<Self, SchedError> {
        let mut running: HashMap<usize, RunningJob, BuildIdHasher> = HashMap::default();
        let mut by_est_end = BTreeSet::new();
        for &(idx, entry) in &state.running {
            if running.insert(idx, entry).is_some() {
                return Err(SchedError::CorruptSnapshot(format!(
                    "job index {idx} appears twice in the running set"
                )));
            }
            by_est_end.insert((OrdTime(entry.est_end), idx));
        }
        if state.log.len() as u64 != state.generation.wrapping_sub(state.log_floor) {
            return Err(SchedError::CorruptSnapshot(format!(
                "delta log holds {} entries but generations {}..{} are claimed",
                state.log.len(),
                state.log_floor,
                state.generation
            )));
        }
        let ledger = Self {
            pool: state.pool,
            capacity: state.capacity,
            running,
            by_est_end,
            allocs: state.allocs,
            frees: state.frees,
            generation: state.generation,
            log: state.log.into(),
            log_floor: state.log_floor,
        };
        for r in 0..ledger.pool.num_resources() {
            let free = ledger.pool.free_of(r);
            let cap = ledger.capacity.free_of(r);
            if !(free >= -CONSERVE_EPS && free <= cap + CONSERVE_EPS) {
                return Err(SchedError::CorruptSnapshot(format!(
                    "resource {r} free {free} outside [0, {cap}]"
                )));
            }
        }
        Ok(ledger)
    }
}

/// Owned state of an [`AllocLedger`] (see [`AllocLedger::snapshot`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LedgerState {
    /// The free pool, bit-exact as held at snapshot time.
    pub pool: PoolState,
    /// Full machine capacity (the conservation bound).
    pub capacity: PoolState,
    /// Running entries as `(job index, entry)` in release order.
    pub running: Vec<(usize, RunningJob)>,
    /// Total allocations performed.
    pub allocs: u64,
    /// Total frees performed.
    pub frees: u64,
    /// Mutation generation at snapshot time.
    pub generation: u64,
    /// Retained delta log, oldest first.
    pub log: Vec<LedgerDelta>,
    /// Generation just before the front log entry was applied.
    pub log_floor: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_finish_roundtrip_conserves() {
        let mut ledger = AllocLedger::new(PoolState::cpu_bb(10, 100.0));
        let d = JobDemand::cpu_bb(4, 30.0);
        let asn = ledger.start(7, d, 50.0);
        assert_eq!(ledger.pool().nodes(), 6);
        assert_eq!(ledger.pool().bb_gb(), 70.0);
        assert_eq!(ledger.running_count(), 1);
        ledger.assert_conserved();
        let entry = ledger.finish(7);
        assert_eq!(entry.assignment, asn);
        assert_eq!(entry.demand, d);
        ledger.assert_drained();
    }

    #[test]
    fn release_order_is_est_end_then_index() {
        let mut ledger = AllocLedger::new(PoolState::cpu_bb(100, 0.0));
        let d = JobDemand::cpu_bb(1, 0.0);
        ledger.start(5, d, 30.0);
        ledger.start(2, d, 10.0);
        ledger.start(9, d, 10.0);
        ledger.start(1, d, 20.0);
        let order: Vec<usize> = ledger.release_order().map(|(i, _)| i).collect();
        assert_eq!(order, vec![2, 9, 1, 5]);
        ledger.finish(9);
        let order: Vec<usize> = ledger.release_order().map(|(i, _)| i).collect();
        assert_eq!(order, vec![2, 1, 5]);
    }

    #[test]
    #[should_panic(expected = "fit check")]
    fn oversubscription_panics() {
        let mut ledger = AllocLedger::new(PoolState::cpu_bb(2, 0.0));
        ledger.start(0, JobDemand::cpu_bb(3, 0.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "not running")]
    fn double_free_panics() {
        let mut ledger = AllocLedger::new(PoolState::cpu_bb(2, 0.0));
        ledger.start(0, JobDemand::cpu_bb(1, 0.0), 1.0);
        ledger.finish(0);
        ledger.finish(0);
    }

    #[test]
    #[should_panic(expected = "never finished")]
    fn leak_detected_at_drain() {
        let mut ledger = AllocLedger::new(PoolState::cpu_bb(2, 0.0));
        ledger.start(0, JobDemand::cpu_bb(1, 0.0), 1.0);
        ledger.assert_drained();
    }

    #[test]
    fn delta_log_replays_mutations_in_order() {
        let mut ledger = AllocLedger::new(PoolState::cpu_bb(10, 0.0));
        let g0 = ledger.generation();
        let d = JobDemand::cpu_bb(1, 0.0);
        ledger.start(3, d, 30.0);
        ledger.start(1, d, 10.0);
        ledger.finish(3);
        let deltas: Vec<LedgerDelta> = ledger.deltas_since(g0).unwrap().copied().collect();
        assert_eq!(deltas.len(), 3);
        assert!(matches!(deltas[0], LedgerDelta::Start { idx: 3, .. }));
        assert!(matches!(deltas[1], LedgerDelta::Start { idx: 1, .. }));
        assert_eq!(deltas[2], LedgerDelta::Finish { idx: 3, est_end: 30.0 });
        // Syncing to the current generation yields nothing further.
        assert_eq!(ledger.deltas_since(ledger.generation()).unwrap().count(), 0);
        // A future generation is a caller bug -> resync.
        assert!(ledger.deltas_since(ledger.generation() + 1).is_none());
    }

    #[test]
    fn delta_log_truncates_to_resync() {
        let mut ledger = AllocLedger::new(PoolState::cpu_bb(4, 0.0));
        let g0 = ledger.generation();
        let d = JobDemand::cpu_bb(1, 0.0);
        for round in 0..(super::DELTA_LOG_CAP as u64) {
            ledger.start(0, d, round as f64 + 1.0);
            ledger.finish(0);
        }
        // 2 * CAP mutations: generation g0 fell off the log.
        assert!(ledger.deltas_since(g0).is_none(), "ancient generation must force a resync");
        let recent = ledger.generation() - 8;
        assert_eq!(ledger.deltas_since(recent).unwrap().count(), 8);
    }

    #[test]
    fn snapshot_restore_roundtrips_and_continues() {
        let mut ledger = AllocLedger::new(PoolState::cpu_bb(10, 100.0));
        let d = JobDemand::cpu_bb(2, 10.0);
        ledger.start(3, d, 30.0);
        ledger.start(1, d, 10.0);
        ledger.finish(1);

        let state = ledger.snapshot();
        let json = serde_json::to_string(&state).unwrap();
        let back: LedgerState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, state);
        let mut restored = AllocLedger::restore(back).unwrap();

        assert_eq!(restored.generation(), ledger.generation());
        assert_eq!(restored.churn(), ledger.churn());
        assert_eq!(restored.release_schedule(), ledger.release_schedule());
        assert_eq!(restored.pool().nodes(), ledger.pool().nodes());
        assert_eq!(restored.pool().bb_gb().to_bits(), ledger.pool().bb_gb().to_bits());
        // Continues exactly like the original.
        restored.finish(3);
        ledger.finish(3);
        restored.assert_drained();
        ledger.assert_drained();
    }

    #[test]
    fn corrupt_snapshots_fail_typed() {
        let mut ledger = AllocLedger::new(PoolState::cpu_bb(10, 100.0));
        ledger.start(0, JobDemand::cpu_bb(2, 10.0), 5.0);
        let good = ledger.snapshot();

        let mut dup = good.clone();
        dup.running.push(dup.running[0]);
        assert!(matches!(AllocLedger::restore(dup), Err(SchedError::CorruptSnapshot(_))));

        let mut torn_log = good.clone();
        torn_log.log_floor += 1;
        assert!(matches!(AllocLedger::restore(torn_log), Err(SchedError::CorruptSnapshot(_))));

        let mut leaked = good.clone();
        leaked.pool.set_free_nodes(99);
        assert!(matches!(AllocLedger::restore(leaked), Err(SchedError::CorruptSnapshot(_))));

        // And try_finish on a job that is not running is a typed error.
        let mut restored = AllocLedger::restore(good).unwrap();
        assert!(matches!(restored.try_finish(7), Err(SchedError::CorruptSnapshot(_))));
        assert!(restored.try_finish(0).is_ok());
    }

    #[test]
    fn ssd_flavour_pools_conserve() {
        let mut ledger = AllocLedger::new(PoolState::with_ssd(4, 4, 1_000.0));
        let d = JobDemand::cpu_bb_ssd(2, 100.0, 200.0);
        ledger.start(0, d, 5.0);
        assert_eq!(ledger.pool().nodes_256(), 2);
        ledger.assert_conserved();
        ledger.finish(0);
        ledger.assert_drained();
    }
}
