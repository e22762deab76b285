//! Backfilling: the scheduler core's hole-filling phase.
//!
//! The paper's experiments run **EASY** backfilling (§2.1: reserve for the
//! first blocked job only); this crate also ships **conservative**
//! backfilling (every blocked candidate gets a reservation on a
//! future-availability profile). [`crate::SchedCore`] holds the configured
//! discipline as a closed enum (one variant per
//! [`crate::BackfillAlgorithm`]) and runs its pass once per scheduling
//! invocation, after starvation forcing and policy selection: EASY is the
//! stateless `easy_pass`, conservative is `ConservativeBackfill::pass`
//! over the state it keeps between invocations ([`ConservativeState`] in
//! a snapshot). A further discipline, such as the plan-based one of
//! Kopanski & Rzadca, would be one more variant.
//!
//! A pass sees the invocation through a `BackfillCtx`: the waiting
//! candidates (already scoped to window or queue by the core), the
//! blocked reservation head if the starvation phase produced one, fit
//! queries against the live pool, `start` to dispatch a job, and
//! `reserve` to publish a reservation into the decision stream.
//! `start(idx, credited)` distinguishes jobs the pass *credits* as
//! backfilled from queue-head starts that merely consumed freed
//! capacity — the paper's `backfilled` accounting counts only the
//! former.
//!
//! This module also owns the EASY reservation math
//! ([`shadow_and_leftover`]) and the piecewise-constant
//! [`AvailabilityProfile`] behind conservative backfilling. Five layers
//! keep the conservative path off the quadratic cliff at large trace
//! sizes (DESIGN.md §10):
//!
//! * [`ReleaseMirror`] — a persistent, sorted copy of the running jobs'
//!   release schedule, kept current by replaying the allocation ledger's
//!   start/finish deltas ([`AllocLedger::deltas_since`]) instead of
//!   re-collecting and re-sorting the running set every pass;
//! * buffer-reusing profile folds — [`AvailabilityProfile`] is owned by
//!   the conservative pass across invocations and rebuilt in place from the
//!   mirror's already-sorted releases (no sort, no allocation); only the
//!   reservation carvings of the previous pass are discarded;
//! * **memoized pass replay** — an invocation that left the ledger
//!   untouched (a pure arrival) and whose scanned candidate prefix
//!   matches the previous pass's element for element re-publishes that
//!   pass's reservations and advances the profile's origin in place
//!   ([`AvailabilityProfile::advance_origin`]) instead of refolding and
//!   re-querying every candidate, bit-identically (see the fast path in
//!   `ConservativeBackfill::pass`);
//! * **column storage and the column scan** — one layout for every
//!   machine: each segment's free counters live in per-column vectors
//!   (one per modelled pooled resource, plus one flavour suffix count
//!   per flavour on machines with per-node SSDs), so every fit test is
//!   one compare per column and `fits_interval`/`earliest_start` run as
//!   a branchless SIMD-friendly chunk scan. The linear walk over
//!   materialized states is the scan's debug-build oracle;
//! * a **rank-carrying candidate step** — each conservative candidate is
//!   one query and one carve at the same slot: the dominance memo hands
//!   the query the rank of the boundary it starts from, the column scan
//!   returns its answer's rank and the insertion rank of the
//!   reservation's end ([`AvailabilityProfile::reserve_earliest`]'s
//!   core), and the carve splits and subtracts at those ranks. So a
//!   candidate searches `times` nowhere; the memo keeps
//!   its ranks current by shifting them past each split-in boundary
//!   (debug builds check every carried rank against a binary search).
//!
//! The EASY shadow walk ([`shadow_and_leftover`]) deliberately does *not*
//! build a profile: it is a single early-exiting pass over the release
//! order per invocation, with no repeated queries over which a fold
//! could amortize (DESIGN.md §10).

use crate::alloc::{AllocLedger, LedgerDelta, RunningJob};
use crate::error::SchedError;
use bbsched_core::pools::{FreeState, NodeAssignment, PoolState, FIT_EPS};
use bbsched_core::problem::JobDemand;
use bbsched_core::resource::{FlavorSet, MAX_FLAVORS, MAX_RESOURCES};
use serde::{Deserialize, Serialize};

/// Tolerance for "finishes before the shadow time" comparisons.
pub(crate) const TIME_EPS: f64 = 1e-6;

/// One candidate's fit test over a profile's columns, restricted to the
/// columns that can fail it (see [`AvailabilityProfile::binding`]): the
/// [`PoolState::free_fits`] comparisons, the node column (column 0)
/// exactly and every other column within [`FIT_EPS`]. The column scan's
/// walks are generic over it, so each binding shape gets its own
/// instantiation.
trait FailTest {
    /// Fail bitmask of the 8 segments from `i`: bit `k` is set when
    /// segment `i + k` fails. Branchless so the compiler can turn it into
    /// SIMD compares.
    fn mask8(&self, i: usize) -> u32;
    /// Whether segment `i` fails.
    fn fails(&self, i: usize) -> bool;
}

/// The node column alone binds: the test of a burst-buffer-free demand
/// on a CPU + burst-buffer machine whose burst-buffer column holds no
/// negative value.
struct NodeColumn<'a> {
    c0: &'a [f64],
    n0: f64,
}

impl FailTest for NodeColumn<'_> {
    #[inline]
    fn mask8(&self, i: usize) -> u32 {
        let a = &self.c0[i..i + 8];
        let mut m = 0u32;
        for (k, &v) in a.iter().enumerate() {
            m |= u32::from(v < self.n0) << k;
        }
        m
    }

    #[inline]
    fn fails(&self, i: usize) -> bool {
        self.c0[i] < self.n0
    }
}

/// The node column and one further column `c1` bind: the paper's CPU +
/// burst-buffer test.
struct NodeAndColumn<'a> {
    c0: &'a [f64],
    c1: &'a [f64],
    n0: f64,
    n1: f64,
}

impl FailTest for NodeAndColumn<'_> {
    #[inline]
    fn mask8(&self, i: usize) -> u32 {
        let a = &self.c0[i..i + 8];
        let b = &self.c1[i..i + 8];
        let mut m = 0u32;
        for k in 0..8 {
            m |= u32::from((a[k] < self.n0) | (b[k] + FIT_EPS < self.n1)) << k;
        }
        m
    }

    #[inline]
    fn fails(&self, i: usize) -> bool {
        (self.c0[i] < self.n0) | (self.c1[i] + FIT_EPS < self.n1)
    }
}

/// Any other binding set, built one column at a time.
struct BindingColumns<'a> {
    cols: &'a [Vec<f64>],
    need: &'a [f64; MAX_COLS],
    bind: &'a [usize],
}

impl FailTest for BindingColumns<'_> {
    #[inline]
    fn mask8(&self, i: usize) -> u32 {
        let mut m = 0u32;
        for &j in self.bind {
            let (col, n) = (&self.cols[j][i..i + 8], self.need[j]);
            let eps = if j == 0 { 0.0 } else { FIT_EPS };
            for (k, &v) in col.iter().enumerate() {
                m |= u32::from(v + eps < n) << k;
            }
        }
        m
    }

    #[inline]
    fn fails(&self, i: usize) -> bool {
        self.bind.iter().any(|&j| {
            let eps = if j == 0 { 0.0 } else { FIT_EPS };
            self.cols[j][i] + eps < self.need[j]
        })
    }
}

/// First segment in `[i, lim)` that fails `test`, or `lim`.
fn next_fail(test: &impl FailTest, mut i: usize, lim: usize) -> usize {
    while i + 8 <= lim {
        let m = test.mask8(i);
        if m != 0 {
            return i + m.trailing_zeros() as usize;
        }
        i += 8;
    }
    (i..lim).find(|&j| test.fails(j)).unwrap_or(lim)
}

/// First segment in `[i, lim)` that fits `test`, or `lim`.
fn next_fit(test: &impl FailTest, mut i: usize, lim: usize) -> usize {
    while i + 8 <= lim {
        let m = test.mask8(i);
        if m != 0xFF {
            return i + (!m).trailing_zeros() as usize;
        }
        i += 8;
    }
    (i..lim).find(|&j| !test.fails(j)).unwrap_or(lim)
}

/// Evaluates `$body` with `$test` bound to the [`FailTest`] of the
/// thresholds `$th` on profile `$p`, instantiated for the binding shape:
/// the node column alone, the node column and one more, or any other set.
macro_rules! with_fail_test {
    ($p:expr, $th:expr, $test:ident => $body:expr) => {{
        let (p, th): (&AvailabilityProfile, &Thresholds<'_>) = ($p, $th);
        let n = p.times.len();
        let (bind, len) = p.binding(&th.need);
        match bind[..len] {
            [0] => {
                let $test = NodeColumn { c0: &p.cols[0][..n], n0: th.need[0] };
                $body
            }
            [0, j] => {
                let $test = NodeAndColumn {
                    c0: &p.cols[0][..n],
                    c1: &p.cols[j][..n],
                    n0: th.need[0],
                    n1: th.need[j],
                };
                $body
            }
            ref bind => {
                let $test = BindingColumns { cols: &p.cols, need: &th.need, bind };
                $body
            }
        }
    }};
}

/// The column scan's candidate walk over the boundaries `times`, from
/// `from` with `i` the rank of the first boundary after it: the earliest
/// slot as `(t, lo, hi)` (see [`AvailabilityProfile::earliest_slot`]).
/// The candidate's rank `k` is carried along, and at acceptance the
/// insertion rank of its end is counted over the at most eight
/// boundaries the sweep skipped unchecked (`end_rank`), so the slot
/// costs no binary search.
fn walk_slot(
    times: &[f64],
    test: &impl FailTest,
    from: f64,
    mut i: usize,
    duration: f64,
) -> (f64, usize, usize) {
    let n = times.len();
    let never = (f64::INFINITY, n, n);
    // `k` is the rank of the candidate's segment, `i` the first boundary
    // after the candidate.
    let mut k = i.saturating_sub(1);
    let mut cand = from;
    if test.fails(k) {
        // `from` fails in its own segment: advance to the first breakpoint
        // whose segment fits.
        i = next_fit(test, i, n);
        if i == n {
            return never;
        }
        k = i;
        cand = times[i];
        i += 1;
    }
    'candidate: loop {
        let end = cand + duration;
        while i + 8 <= n {
            if times[i] >= end {
                // The candidate's window closed with no block.
                return (cand, k, end_rank(times, end, i.saturating_sub(8).max(k)));
            }
            let m = test.mask8(i);
            if m != 0 {
                let b = m.trailing_zeros();
                if times[i + b as usize] >= end {
                    return (cand, k, end_rank(times, end, i));
                }
                // Segment b blocks every candidate in (cand, times[b]]:
                // jump to the next fit, from the same chunk's mask when it
                // holds one.
                let fit = !m & 0xFF & (u32::MAX << (b + 1));
                i = if fit != 0 {
                    i + fit.trailing_zeros() as usize
                } else {
                    next_fit(test, i + 8, n)
                };
                if i == n {
                    return never;
                }
                k = i;
                cand = times[i];
                i += 1;
                continue 'candidate;
            }
            i += 8;
        }
        while i < n {
            if times[i] >= end {
                return (cand, k, end_rank(times, end, i.saturating_sub(8).max(k)));
            }
            if test.fails(i) {
                i = next_fit(test, i + 1, n);
                if i == n {
                    return never;
                }
                k = i;
                cand = times[i];
                i += 1;
                continue 'candidate;
            }
            i += 1;
        }
        return (cand, k, end_rank(times, end, n.saturating_sub(8).max(k)));
    }
}

/// A candidate's demand with its per-column fit thresholds
/// ([`AvailabilityProfile::thresholds`]), shared by its query and its
/// carve.
pub(crate) struct Thresholds<'d> {
    d: &'d JobDemand,
    /// Column `j`'s threshold; `-inf` where the demand needs nothing.
    need: [f64; MAX_COLS],
    /// The flavour class of the per-node demand, on flavoured machines.
    class: Option<usize>,
}

/// Insertion rank of `end` in the ascending `times`, counted branchlessly
/// over the at most eight boundaries from `s`: valid when `s` is at or
/// below that rank and the rank is within eight of `s` (or `times` ends
/// sooner) — the column scan's position when it accepts a candidate.
#[inline]
fn end_rank(times: &[f64], end: f64, s: usize) -> usize {
    let Some(w) = times.get(s..s + 8) else {
        return s + times[s..].iter().map(|&t| usize::from(t < end)).sum::<usize>();
    };
    let mut c = 0u32;
    for &t in w {
        c += u32::from(t < end);
    }
    s + c as usize
}

/// EASY reservation math: the *shadow time* at which `head` could start if
/// nothing new ran past it (walltime estimates of running jobs, as a real
/// scheduler would use), and the *leftover* resources at that instant
/// beyond the head's claim. Anything fitting inside the leftover can run
/// arbitrarily long without delaying the head.
pub fn shadow_and_leftover(ledger: &AllocLedger, head: &JobDemand, now: f64) -> (f64, PoolState) {
    let pool = ledger.pool();
    if pool.fits(head) {
        let mut leftover = *pool;
        let _ = leftover.alloc(head);
        return (now, leftover);
    }
    // Walk the release schedule in (est_end, index) order — maintained
    // incrementally by the ledger, so no per-call rebuild or sort.
    let mut future = *pool;
    for (_, r) in ledger.release_order() {
        future.free(&r.demand, r.assignment);
        if future.fits(head) {
            let mut leftover = future;
            let _ = leftover.alloc(head);
            return (r.est_end, leftover);
        }
    }
    // The head can never fit — impossible once demands are clamped to
    // capacity; be safe in release builds anyway.
    debug_assert!(false, "unschedulable head survived clamping");
    (f64::INFINITY, PoolState::cpu_bb(0, 0.0))
}

/// One invocation's view of the scheduler core, handed to a backfill
/// pass.
///
/// Constructed by [`crate::SchedCore::invoke`]; the mutable surface is
/// exactly [`BackfillCtx::start`] and [`BackfillCtx::reserve`], so a
/// pass cannot corrupt accounting — every dispatch goes through the
/// allocation ledger and the observers.
pub(crate) struct BackfillCtx<'e, 'o> {
    /// The invocation's simulation time.
    pub(crate) now: f64,
    /// Candidate job indices in priority order (window- or queue-scoped
    /// per [`crate::BackfillScope`], jobs already started this invocation
    /// filtered out at scoping time).
    pub(crate) waiting: &'e [usize],
    /// The starved job that could not start and owns the reservation, if
    /// the starvation phase produced one.
    pub(crate) blocked_head: Option<usize>,
    /// Maximum candidates the pass may examine.
    pub(crate) max_scan: usize,
    pub(crate) core: &'e mut crate::service::CoreState<'o>,
}

impl BackfillCtx<'_, '_> {
    /// Whether job `idx` already started in this invocation.
    fn is_started(&self, idx: usize) -> bool {
        self.core.started.contains(idx)
    }

    /// The capacity-clamped demand of job `idx`.
    fn demand(&self, idx: usize) -> JobDemand {
        self.core.demands[idx]
    }

    /// The requested walltime of job `idx` (seconds, as submitted).
    fn walltime(&self, idx: usize) -> f64 {
        self.core.jobs[idx].walltime
    }

    /// The live free state.
    fn pool(&self) -> &PoolState {
        self.core.ledger.pool()
    }

    /// Whether job `idx` fits the free state right now.
    fn fits_now(&self, idx: usize) -> bool {
        self.core.ledger.fits(&self.core.demands[idx])
    }

    /// Read access to the allocation ledger (release order, delta log).
    fn ledger(&self) -> &AllocLedger {
        &self.core.ledger
    }

    /// Shadow time and leftover state for `head_idx` (see
    /// [`shadow_and_leftover`]).
    fn shadow_and_leftover(&self, head_idx: usize) -> (f64, PoolState) {
        shadow_and_leftover(&self.core.ledger, &self.core.demands[head_idx], self.now)
    }

    /// Starts job `idx` now with [`crate::StartReason::Backfill`].
    ///
    /// `credited` controls the run's `backfilled` counter: pass `true`
    /// for genuine backfill moves (the job jumped ahead using a hole),
    /// `false` for queue-head starts that simply consumed freed capacity.
    ///
    /// # Panics
    /// Panics if the job does not fit the free state (passes must check
    /// first) or already started.
    fn start(&mut self, idx: usize, credited: bool) {
        self.core.start_job(idx, self.now, crate::record::StartReason::Backfill);
        if credited {
            self.core.backfill_credit += 1;
        }
    }

    /// Publishes a [`crate::Decision::Reserve`] for job `idx` at time
    /// `at` into the invocation's decision stream. Purely observational:
    /// the reservation's capacity bookkeeping stays inside the pass; the
    /// next invocation recomputes it from scratch.
    fn reserve(&mut self, idx: usize, at: f64) {
        self.core.note_reservation(idx, at);
    }
}

/// EASY backfilling (§2.1, the paper's choice): reserve for the first
/// blocked job only; a candidate may start now if it finishes before the
/// head's shadow time or fits inside the head's leftover. Stateless: it
/// replans from the ledger every pass.
pub(crate) fn easy_pass(ctx: &mut BackfillCtx<'_, '_>) {
    let waiting = ctx.waiting;
    // Start any fitting head outright (covers policies that left a
    // fitting job behind and the queue-front after backfill frees);
    // stop at the first job that does not fit — it becomes the
    // reservation head. A starved blocked job owns the reservation
    // regardless of queue position.
    let mut head: Option<usize> = None;
    let mut cursor = 0usize;
    while cursor < waiting.len() {
        let idx = waiting[cursor];
        if let Some(b) = ctx.blocked_head {
            head = Some(b);
            break;
        }
        if ctx.is_started(idx) {
            cursor += 1;
            continue;
        }
        if ctx.fits_now(idx) {
            // Not credited: the queue head starting on freed capacity
            // is ordinary dispatch, not a backfill move.
            ctx.start(idx, false);
            cursor += 1;
        } else {
            head = Some(idx);
            break;
        }
    }

    let Some(head_idx) = head else { return };
    let (shadow, mut leftover) = ctx.shadow_and_leftover(head_idx);
    ctx.reserve(head_idx, shadow);
    for (scanned, &idx) in waiting.iter().enumerate() {
        if scanned >= ctx.max_scan {
            break;
        }
        if ctx.is_started(idx) || idx == head_idx {
            continue;
        }
        let d = ctx.demand(idx);
        if !ctx.pool().fits(&d) {
            continue;
        }
        let ends_before_shadow = ctx.now + ctx.walltime(idx) <= shadow + TIME_EPS;
        if ends_before_shadow || leftover.fits(&d) {
            if !ends_before_shadow {
                let _ = leftover.alloc(&d);
            }
            ctx.start(idx, true);
        }
    }
}

/// Conservative backfilling: every blocked candidate receives a
/// reservation on a future-availability profile; a job starts now only if
/// it delays none of the reservations ahead of it. Stronger fairness,
/// fewer backfill opportunities.
///
/// The discipline is stateful: it owns a [`ReleaseMirror`] synced from
/// the ledger's delta log and a persistent [`AvailabilityProfile`]
/// refolded in place each pass, so no pass allocates or sorts.
/// Invocations that left the ledger untouched (pure arrivals) replay the
/// previous pass's memoized reservations instead of re-querying every
/// candidate — see the fast path in [`ConservativeBackfill::pass`].
/// Schedules are bit-identical to a rebuild-per-pass reference over
/// [`crate::LegacyProfile`] — proven by the golden-equivalence suite.
#[derive(Clone, Debug, Default)]
pub(crate) struct ConservativeBackfill {
    mirror: ReleaseMirror,
    profile: AvailabilityProfile,
    /// Per-pass candidate order scratch (blocked head first).
    ordered: Vec<usize>,
    /// Memoized previous pass: the candidate prefix actually scanned
    /// (`cache_ordered`, position-aligned with `cache_outcome`) and each
    /// position's outcome — the reservation start for reserved jobs,
    /// `+inf` for candidates that never fit, `NaN` for already-started
    /// skips. Pure accelerator state for the replay fast path in
    /// [`ConservativeBackfill::pass`]: never serialized (snapshots are
    /// unchanged by it), cold after restore, and invalidated by any
    /// ledger change or queue reordering.
    cache_ordered: Vec<usize>,
    cache_outcome: Vec<f64>,
    /// Minimum finite entry of `cache_outcome` (`+inf` when none):
    /// maintained on record so the "every memoized reservation still
    /// lies strictly in the future" replay condition is one comparison
    /// instead of an O(k) scan.
    cache_min_outcome: f64,
    /// Per-pass dominance memo: scratch, cleared at the start of every
    /// pass and never serialized.
    memo: DominanceMemo,
}

impl ConservativeBackfill {
    /// Extracts the owned cross-invocation state: the release mirror and
    /// the persistent availability profile (with its watermark). The
    /// per-pass candidate ordering is scratch and is not part of the
    /// state.
    pub(crate) fn snapshot(&self) -> ConservativeState {
        ConservativeState { mirror: self.mirror.snapshot(), profile: self.profile.snapshot() }
    }

    /// Rebuilds the discipline from extracted state, validating the
    /// mirror against the restored `ledger` (see [`ReleaseMirror::restore`])
    /// and the profile's shape. Corrupt state fails with a typed
    /// [`SchedError::CorruptSnapshot`] instead of panicking mid-pass.
    pub(crate) fn restore(
        state: ConservativeState,
        ledger: &AllocLedger,
    ) -> Result<Self, SchedError> {
        Ok(Self {
            mirror: ReleaseMirror::restore(state.mirror, ledger)?,
            profile: AvailabilityProfile::restore(state.profile)?,
            ..Self::default()
        })
    }

    /// Whether the memoized previous pass can replay against the current
    /// invocation (see the fast path in the `pass` body; the caller has
    /// already established that the ledger is unchanged): the scanned
    /// candidate prefix must be identical — position for position, which
    /// also pins the blocked head — must still fall inside the scan cap,
    /// and every memoized reservation must still lie strictly in the
    /// future (a start time that has come due must re-evaluate against
    /// the live pool instead). The future check is one comparison
    /// against the maintained [`ConservativeBackfill::cache_min_outcome`];
    /// the prefix check compares the memoized prefix elementwise.
    fn replay_valid(&self, ctx: &BackfillCtx<'_, '_>) -> bool {
        if self.cache_ordered.is_empty()
            || self.cache_ordered.len() > self.ordered.len().min(ctx.max_scan)
            || self.cache_min_outcome <= ctx.now + TIME_EPS
        {
            return false;
        }
        self.ordered[..self.cache_ordered.len()] == self.cache_ordered[..]
    }

    /// Debug-only oracle for the replay fast path: re-derives the whole
    /// memoized prefix from a scratch refold — every query recomputed
    /// and asserted against its memoized outcome, every carve re-applied
    /// — and asserts the origin-advanced persistent profile is
    /// bit-identical (boundaries, free counters, watermark) to
    /// that from-scratch recompute.
    #[cfg(debug_assertions)]
    fn verify_replay(&self, ctx: &BackfillCtx<'_, '_>) {
        let mut scratch = AvailabilityProfile::default();
        self.mirror.fold_into(ctx.now, *ctx.pool(), &mut scratch);
        for (&idx, &t) in self.cache_ordered.iter().zip(&self.cache_outcome) {
            if t.is_nan() {
                assert!(ctx.is_started(idx), "memoized skip for job {idx}, which never started");
                continue;
            }
            let d = ctx.demand(idx);
            let walltime = ctx.walltime(idx).max(1.0);
            assert_eq!(
                t,
                scratch.earliest_start(&d, ctx.now, walltime),
                "memoized outcome diverged from recompute for job {idx}"
            );
            if t.is_finite() {
                scratch.reserve(&d, t, walltime);
            }
        }
        assert!(
            scratch == self.profile
                && scratch.skyline_clean_from == self.profile.skyline_clean_from,
            "origin-advanced profile diverged from refold + recompute"
        );
    }

    /// Runs one conservative pass: reserves for every candidate in
    /// priority order (the starved blocked head first) and starts those
    /// whose earliest slot is now.
    pub(crate) fn pass(&mut self, ctx: &mut BackfillCtx<'_, '_>) {
        // Apply the starts/finishes since the previous pass to the sorted
        // release mirror, then refold the profile over the reused buffers
        // (dropping the previous pass's reservation carvings — the only
        // segments not derivable from the mirror).
        let unchanged = self.mirror.sync(ctx.ledger());
        // Reservations for everyone; the starved blocked job (if any)
        // reserves first.
        self.ordered.clear();
        if let Some(b) = ctx.blocked_head {
            self.ordered.push(b);
        }
        self.ordered.extend(ctx.waiting.iter().copied().filter(|&i| Some(i) != ctx.blocked_head));
        // Replay fast path. When the ledger is untouched since the
        // previous pass (a pure-arrival invocation — about half of all
        // passes under event-driven scheduling), a refold would produce
        // the same piecewise function on `[now, ∞)` as last pass's fold,
        // and every candidate the previous pass scanned gets the *same*
        // earliest start: free capacity only grows over time below the
        // first reservation, so a recompute rejects every candidate
        // start before the memoized one and accepts the memoized one.
        // The pass therefore skips both the refold and the per-candidate
        // query/reserve work entirely: the origin advances in place
        // (keeping the carves, which re-carving on the refold would
        // reproduce bit for bit — see
        // [`AvailabilityProfile::advance_origin`]) and only the memoized
        // reservation decisions are re-published. The memo applies only
        // while the scanned candidate prefix is unchanged (new arrivals
        // append at the tail under order-stable policies; any reorder,
        // removal, blocked-head change, or a memoized start time falling
        // due bails to a full recompute), so the published decisions
        // match the rebuild-per-pass reference exactly. New tail
        // candidates below are queried for real against the advanced
        // profile. Debug builds re-derive the whole pass from a scratch
        // refold and assert both the outcomes and the profile state.
        let begin = if unchanged && self.replay_valid(ctx) && self.profile.advance_origin(ctx.now) {
            for (&idx, &t) in self.cache_ordered.iter().zip(&self.cache_outcome) {
                if t.is_finite() {
                    ctx.reserve(idx, t);
                }
            }
            #[cfg(debug_assertions)]
            self.verify_replay(ctx);
            self.cache_ordered.len()
        } else {
            self.mirror.fold_into(ctx.now, *ctx.pool(), &mut self.profile);
            self.cache_ordered.clear();
            self.cache_outcome.clear();
            self.cache_min_outcome = f64::INFINITY;
            0
        };
        // Per-pass dominance memo (see [`DominanceMemo`] for the
        // bit-exactness argument). On a replayed prefix, seed it with
        // every memoized outcome — finite or `+inf`; skips are `NaN` —
        // so the fresh tail candidates start with the same bounds a full
        // scan would have accumulated by then; the one place a rank is
        // searched for.
        self.memo.clear();
        if begin > 0 {
            for (&idx, &t) in self.cache_ordered.iter().zip(&self.cache_outcome) {
                if !t.is_nan() {
                    let rank = self.profile.boundary_rank(t);
                    self.memo.note(&ctx.demand(idx), ctx.walltime(idx).max(1.0), t, rank);
                }
            }
        }
        for pos in begin..self.ordered.len() {
            if pos >= ctx.max_scan {
                break;
            }
            let idx = self.ordered[pos];
            if ctx.is_started(idx) {
                self.cache_ordered.push(idx);
                self.cache_outcome.push(f64::NAN);
                continue;
            }
            let d = ctx.demand(idx);
            let walltime = ctx.walltime(idx).max(1.0);
            // The candidate step: the bound carries the rank of its
            // boundary into the query, and the query hands the slot's
            // ranks to the carve, so no step searches `times`; both use
            // the thresholds computed here. A carve that splits in the
            // reservation's end moves the memo's ranks beyond it.
            let (from, rank) = self.memo.bound(&d, walltime, ctx.now);
            let (t, lo) = if from.is_finite() {
                let th = self.profile.thresholds(&d);
                let (t, lo, hi) = self.profile.earliest_slot(&th, from, rank + 1, walltime);
                if t.is_finite() {
                    debug_assert_eq!(self.profile.times()[lo], t, "a pass answer is a boundary");
                    if self.profile.carve(&th, lo, hi, t + walltime) {
                        self.memo.shift_ranks(hi);
                    }
                    #[cfg(debug_assertions)]
                    self.memo.assert_ranks(self.profile.times());
                }
                (t, lo)
            } else {
                (from, rank)
            };
            if t <= ctx.now + TIME_EPS && ctx.pool().fits(&d) {
                // Started now; the carve above consumed from the
                // profile's "now" segments too. The start bumps the
                // ledger generation, so this pass's memo can never
                // replay — record the position as a skip.
                ctx.start(idx, true);
                self.cache_ordered.push(idx);
                self.cache_outcome.push(f64::NAN);
                continue;
            }
            // An answer equal to its bound is redundant (the entry that
            // gave the bound covers it); one at `now` bounds nothing.
            if t > from.max(ctx.now + TIME_EPS) {
                self.memo.note(&d, walltime, t, lo);
            }
            if t.is_finite() {
                ctx.reserve(idx, t);
                self.cache_min_outcome = self.cache_min_outcome.min(t);
            }
            self.cache_ordered.push(idx);
            self.cache_outcome.push(t);
        }
    }
}

// ---------------------------------------------------------------------------
// Per-pass dominance memo for earliest-start queries.
// ---------------------------------------------------------------------------

/// Per-pass lower bounds on [`AvailabilityProfile::earliest_start`]
/// answers, transferred between candidates by demand dominance
/// (DESIGN.md §10.2).
///
/// Within one conservative pass every query starts from `now` and the
/// profile only ever *loses* free capacity — each reservation carves
/// space out, nothing is freed mid-pass. So when an earlier candidate
/// with demand `e` and duration `de` was answered `te`, a later
/// candidate asking for componentwise at least as much (`d ≥ e`,
/// `dur ≥ de`) cannot start before `te` either: every candidate start
/// `< te` already failed for the smaller, shorter request against a
/// profile that had at least as much free space then. The later query
/// may therefore begin its profile walk at `te` instead of `now`, and
/// the answer is **bit-identical** to the full walk's: `te` is itself a
/// profile boundary (the reservation at `te` split it in), and a start
/// strictly inside a segment never wins — if `[u, u+dur)` fits for an
/// interior `u`, the covering segment's left edge fits too and is
/// earlier — so the walk from `te` examines exactly the boundaries the
/// full walk would have accepted. An earlier *infinite* answer
/// transfers the same way: the dominated query is `+inf` without
/// walking at all. The replay oracle
/// ([`ConservativeBackfill::verify_replay`]) and the legacy-equivalence
/// golden suites re-derive every memoized outcome with plain full-walk
/// queries, and this module's property tests compare bounded starts with
/// full walks directly, so the argument is machine-checked continuously.
///
/// Entries are restricted to *plain* demands — no SSD, no extra
/// resources — which dominate on the three `(nodes, bb_gb, dur)`
/// components alone (their zero SSD/extra components are `≤` any
/// query's). The bound is **exact**: the latest answer among *all*
/// answers noted so far in the pass whose entry the query dominates.
/// Entries are kept sorted by answer — an infinite answer is an ordinary
/// entry at `t = +inf` — so a lookup scans back from the latest answer
/// and stops at the first entry the query dominates. An entry is
/// *redundant* when another one asks for no more and was answered no
/// earlier: every query dominating it dominates the other too, so
/// dropping it changes no bound. Two rules keep few redundant entries,
/// which keeps both the scan and the insertion short:
///
/// * a candidate whose answer equals its bound is not noted — the entry
///   that supplied the bound already makes it redundant;
/// * a note drops the entries it makes redundant among the
///   [`DominanceMemo::PRUNE`] answered just before it, which is where
///   such entries collect. Redundant entries outside that window only
///   lengthen scans, never change a bound.
///
/// Each entry also carries the profile rank of its answer — the index of
/// boundary `t`, or the segment count for `t = +inf` — so a bounded
/// query starts its walk at that rank without searching `times`. The
/// ranks sit in their own dense `u32` column beside the entries: a carve
/// that splits in a boundary moves every rank at or beyond it up by one
/// ([`DominanceMemo::shift_ranks`]), and since ranks ascend with the
/// answers those ranks are a suffix of the column.
///
/// The entries belong to [`ConservativeBackfill`] and are cleared, not
/// freed, per pass.
#[derive(Clone, Debug, Default)]
struct DominanceMemo {
    /// Noted answers, ascending in `t`.
    entries: Vec<MemoEntry>,
    /// `ranks[j]` is the profile rank of `entries[j].t`.
    ranks: Vec<u32>,
}

/// One noted answer: a plain demand over `dur` seconds answered `t`.
/// Nodes are stored as `f64` so the dominance test is three
/// same-width compares.
#[derive(Clone, Copy, Debug)]
struct MemoEntry {
    nodes: f64,
    bb_gb: f64,
    dur: f64,
    t: f64,
}

impl MemoEntry {
    /// Whether `self` asks for no more than `other` in every component.
    #[inline]
    fn within(&self, other: &MemoEntry) -> bool {
        (self.nodes <= other.nodes) & (self.bb_gb <= other.bb_gb) & (self.dur <= other.dur)
    }
}

impl DominanceMemo {
    /// How many entries answered just before a new note it checks for
    /// redundancy.
    const PRUNE: usize = 8;

    /// Whether `d` asks for nodes and burst buffer only — the demands
    /// whose dominance is decided by `(nodes, bb_gb, dur)` alone.
    fn plain(d: &JobDemand) -> bool {
        d.ssd_gb_per_node == 0.0 && d.extra.iter().all(|&x| x == 0.0)
    }

    /// Forgets every noted answer (the start of a pass).
    fn clear(&mut self) {
        self.entries.clear();
        self.ranks.clear();
    }

    /// Records the answer `t` (finite, or `+inf` for "never fits this
    /// pass") for a reservation of `d` over `dur` seconds, at profile
    /// rank `rank`. Every finite `t` noted must be a boundary of the
    /// pass's profile later than the pass's `now`.
    fn note(&mut self, d: &JobDemand, dur: f64, t: f64, rank: usize) {
        if !Self::plain(d) {
            return;
        }
        let new = MemoEntry { nodes: f64::from(d.nodes), bb_gb: d.bb_gb, dur, t };
        let rank = u32::try_from(rank).expect("profile rank fits in u32");
        let len = self.entries.len();
        // Room for the insertion; the slot is overwritten below.
        self.entries.push(new);
        self.ranks.push(rank);
        let (e, rk) = (&mut self.entries[..], &mut self.ranks[..]);
        // The new entry goes after every entry answered no later.
        let mut at = len;
        while at > 0 && e[at - 1].t > t {
            at -= 1;
        }
        // Compact the window just before it, dropping the entries it
        // makes redundant, then close up the later entries behind it.
        let lo = at.saturating_sub(Self::PRUNE);
        let mut w = lo;
        for r in lo..at {
            let x = e[r];
            e[w] = x;
            rk[w] = rk[r];
            w += usize::from(!new.within(&x));
        }
        e.copy_within(at..len, w + 1);
        rk.copy_within(at..len, w + 1);
        e[w] = new;
        rk[w] = rank;
        self.entries.truncate(w + 1 + len - at);
        self.ranks.truncate(w + 1 + len - at);
    }

    /// The latest noted answer whose entry `d` over `dur` dominates, and
    /// its profile rank, or `(now, 0)` when none does: the time (and the
    /// rank of the boundary) the profile walk may start from. `+inf`
    /// means the query is `+inf` without walking.
    fn bound(&self, d: &JobDemand, dur: f64, now: f64) -> (f64, usize) {
        const W: usize = 8;
        let q = MemoEntry { nodes: f64::from(d.nodes), bb_gb: d.bb_gb, dur, t: now };
        let e = &self.entries[..];
        let hit = |j: usize| (e[j].t, self.ranks[j] as usize);
        let mut i = e.len();
        // Whole chunks as a branchless mask, so one branch decides eight
        // entries; the latest hit is the mask's highest bit.
        while i >= W {
            let chunk: &[MemoEntry; W] = e[i - W..i].try_into().expect("chunk of W entries");
            let mut mask = 0u32;
            for (k, x) in chunk.iter().enumerate() {
                mask |= u32::from(x.within(&q)) << k;
            }
            if mask != 0 {
                return hit(i - W + (31 - mask.leading_zeros()) as usize);
            }
            i -= W;
        }
        e[..i].iter().rposition(|x| x.within(&q)).map_or((now, 0), hit)
    }

    /// A carve split a boundary in at rank `at`: every noted rank at or
    /// beyond it moves up by one. Ranks ascend with the answers, so those
    /// ranks are a suffix — usually a short one, since a reservation's
    /// end lies past most answers noted before it — walked from the back.
    fn shift_ranks(&mut self, at: usize) {
        for r in self.ranks.iter_mut().rev() {
            if (*r as usize) < at {
                break;
            }
            *r += 1;
        }
    }

    /// Debug-build oracle: every carried rank is the insertion rank of
    /// its answer in `times`.
    #[cfg(debug_assertions)]
    fn assert_ranks(&self, times: &[f64]) {
        for (e, &r) in self.entries.iter().zip(&self.ranks) {
            assert_eq!(
                r as usize,
                times.partition_point(|x| *x < e.t),
                "memo rank of answer {} diverged from its boundary",
                e.t
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The persistent release mirror feeding the profile fold.
// ---------------------------------------------------------------------------

/// One running job's release, as mirrored from the ledger.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Release {
    est_end: f64,
    idx: usize,
    demand: JobDemand,
    asn: NodeAssignment,
}

/// A persistent, `(est_end, index)`-sorted copy of the ledger's release
/// schedule, kept current by replaying [`AllocLedger::deltas_since`]
/// between passes (falling back to a full resync if the delta log was
/// truncated). This is the "apply start/finish deltas instead of
/// rebuilding" half of the incremental profile; the fold itself is
/// [`ReleaseMirror::fold_into`].
#[derive(Clone, Debug, Default)]
pub struct ReleaseMirror {
    releases: Vec<Release>,
    /// Ledger generation the mirror reflects (`None` before first sync).
    synced: Option<u64>,
}

impl ReleaseMirror {
    /// An empty mirror (syncs fully on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of mirrored releases (= running jobs at last sync).
    pub fn len(&self) -> usize {
        self.releases.len()
    }

    /// Whether the mirror is empty.
    pub fn is_empty(&self) -> bool {
        self.releases.is_empty()
    }

    /// Brings the mirror up to date with `ledger` by applying the deltas
    /// logged since the last sync (O(deltas · log n) search plus memmove),
    /// or by a full resynchronization when the log has been truncated.
    ///
    /// Returns whether the mirror was **already current** — the ledger's
    /// generation is the one recorded at the previous sync, so no start
    /// or finish happened in between and nothing was applied. Callers use
    /// this as the "nothing changed" signal gating memoized-pass replay.
    pub fn sync(&mut self, ledger: &AllocLedger) -> bool {
        let unchanged = self.synced == Some(ledger.generation());
        let applied = match self.synced {
            Some(gen) => match ledger.deltas_since(gen) {
                Some(deltas) => {
                    let mut ok = true;
                    for delta in deltas {
                        match *delta {
                            LedgerDelta::Start { idx, entry } => self.insert(idx, &entry),
                            LedgerDelta::Finish { idx, est_end } => {
                                if self.remove(idx, est_end).is_err() {
                                    // Desynchronized mirror (a finish for a
                                    // release it never saw): self-heal with
                                    // a full resync. Restore paths surface
                                    // this as a typed error instead — see
                                    // [`ConservativeBackfill::restore`].
                                    ok = false;
                                    break;
                                }
                            }
                        }
                    }
                    ok
                }
                None => false,
            },
            None => false,
        };
        if !applied {
            self.resync_from(ledger);
        }
        self.synced = Some(ledger.generation());
        debug_assert!(
            self.releases.len() == ledger.running_count()
                && self
                    .releases
                    .iter()
                    .zip(ledger.release_order())
                    .all(|(m, (idx, r))| m.idx == idx && m.est_end == r.est_end),
            "release mirror desynchronized from the ledger"
        );
        unchanged
    }

    fn insert(&mut self, idx: usize, entry: &RunningJob) {
        let pos = self
            .releases
            .partition_point(|r| r.est_end.total_cmp(&entry.est_end).then(r.idx.cmp(&idx)).is_lt());
        self.releases.insert(
            pos,
            Release { est_end: entry.est_end, idx, demand: entry.demand, asn: entry.assignment },
        );
    }

    fn remove(&mut self, idx: usize, est_end: f64) -> Result<(), SchedError> {
        let pos = self
            .releases
            .binary_search_by(|r| r.est_end.total_cmp(&est_end).then(r.idx.cmp(&idx)))
            .map_err(|_| {
                SchedError::CorruptSnapshot(format!(
                    "mirror finish for job index {idx} (est_end {est_end}), which it never saw"
                ))
            })?;
        self.releases.remove(pos);
        Ok(())
    }

    /// Rebuilds the mirror wholesale from the ledger's release order.
    fn resync_from(&mut self, ledger: &AllocLedger) {
        self.releases.clear();
        self.releases.extend(ledger.release_order().map(|(idx, r)| Release {
            est_end: r.est_end,
            idx,
            demand: r.demand,
            asn: r.assignment,
        }));
    }

    /// Extracts the mirror's owned state: the sorted releases and the
    /// ledger generation they reflect.
    pub fn snapshot(&self) -> MirrorState {
        MirrorState {
            releases: self.releases.iter().map(|r| (r.est_end, r.idx, r.demand, r.asn)).collect(),
            synced: self.synced,
        }
    }

    /// Rebuilds a mirror from extracted state, *verbatim*, and validates
    /// it against the restored `ledger`: releases must be strictly
    /// `(est_end, index)` sorted, and replaying the ledger's deltas from
    /// the mirrored generation (on a probe copy — the restored mirror
    /// keeps its recorded lag, so restore is a fixed point of
    /// [`ReleaseMirror::snapshot`]) must land exactly on the ledger's
    /// release order. A mirror that desynchronizes during that replay —
    /// the condition the live path self-heals by resyncing — is reported
    /// here as a typed [`SchedError::CorruptSnapshot`] instead.
    pub fn restore(state: MirrorState, ledger: &AllocLedger) -> Result<Self, SchedError> {
        let releases: Vec<Release> = state
            .releases
            .iter()
            .map(|&(est_end, idx, demand, asn)| Release { est_end, idx, demand, asn })
            .collect();
        for w in releases.windows(2) {
            if !w[0].est_end.total_cmp(&w[1].est_end).then(w[0].idx.cmp(&w[1].idx)).is_lt() {
                return Err(SchedError::CorruptSnapshot(format!(
                    "mirror releases out of (est_end, index) order at job index {}",
                    w[1].idx
                )));
            }
        }
        let mirror = Self { releases, synced: state.synced };
        // Strict replay on a probe copy: every delta must apply cleanly
        // and the result must equal the ledger's live release order. A
        // truncated delta log leaves nothing to verify incrementally (the
        // next pass will full-resync, exactly as the uninterrupted run
        // would have).
        let mut probe = mirror.clone();
        match probe.synced {
            Some(gen) => {
                if let Some(deltas) = ledger.deltas_since(gen) {
                    for delta in deltas {
                        match *delta {
                            LedgerDelta::Start { idx, entry } => probe.insert(idx, &entry),
                            LedgerDelta::Finish { idx, est_end } => probe.remove(idx, est_end)?,
                        }
                    }
                    if probe.releases.len() != ledger.running_count()
                        || !probe
                            .releases
                            .iter()
                            .zip(ledger.release_order())
                            .all(|(m, (idx, r))| m.idx == idx && m.est_end == r.est_end)
                    {
                        return Err(SchedError::CorruptSnapshot(
                            "mirror disagrees with the ledger's release order".into(),
                        ));
                    }
                }
            }
            None => {
                if !mirror.releases.is_empty() {
                    return Err(SchedError::CorruptSnapshot(
                        "mirror holds releases but records no synced generation".into(),
                    ));
                }
            }
        }
        Ok(mirror)
    }

    /// Refolds `profile` in place from the mirrored releases: origin at
    /// `now` with the live free state `pool`, one step per release. Same
    /// fold — bit for bit — as [`AvailabilityProfile::new`] over
    /// [`AllocLedger::release_schedule`], without the sort or the
    /// allocations.
    pub fn fold_into(&self, now: f64, pool: PoolState, profile: &mut AvailabilityProfile) {
        profile.rebuild_from_sorted(
            now,
            pool,
            self.releases.iter().map(|r| (r.est_end, r.demand, r.asn)),
        );
    }
}

// ---------------------------------------------------------------------------
// Future resource-availability profiles, the machinery behind conservative
// backfilling.
// ---------------------------------------------------------------------------

/// Most columns a profile stores: every modelled resource but the
/// per-node one, plus one suffix column per flavour.
const MAX_COLS: usize = MAX_RESOURCES + MAX_FLAVORS;

/// The modelled pooled resources of `machine` in resource order (nodes
/// first, the per-node resource skipped): the resources behind a
/// profile's leading columns.
fn pooled_resources(machine: &PoolState) -> impl Iterator<Item = usize> {
    let per_node = machine.per_node_index();
    (0..machine.resource_len()).filter(move |&r| Some(r) != per_node)
}

/// A piecewise-constant view of free resources from "now" to infinity.
///
/// Built from the running jobs' estimated completions and updated as
/// reservations are placed. The profile tracks every resource the pool
/// registers — nodes, shared burst buffer, heterogeneous per-node flavour
/// pools, and any extra pooled resources. Per-node assignments within a
/// future segment use the same greedy smallest-sufficient-flavour rule as
/// live allocation; because reservations are capacity bookkeeping (not
/// placements), per-segment re-assignment is the standard conservative
/// approximation.
///
/// Invariant: `times` is strictly increasing, `times[0]` is the profile's
/// origin ("now"), and segment `i` holds on `[times[i], times[i+1])`
/// (the last segment holds forever).
///
/// A profile stores one [`PoolState`] **machine template** (topology,
/// capacities — identical across every segment of a profile by
/// construction, since all segments derive from the same pool) plus
/// each segment's mutable free counters as columns, `cols[j][i]` being
/// column `j`'s value on segment `i`:
///
/// * one column per modelled pooled resource, in resource order (nodes
///   first): its free amount;
/// * on machines with a flavoured per-node resource (the §5 local SSDs),
///   one column per flavour `k`: the suffix count `S_k = Σ_{j≥k}` free
///   nodes of flavour `j`, an exact integer held in an `f64`.
///
/// The per-node resource's own free slot and any unmodelled slot never
/// change after the fold (nor do the flavour pools of a machine without
/// a per-node resource), so they live in the template alone. Full
/// `PoolState`s are materialized only at the API boundary (`state_at`,
/// `states`, `snapshot`) by stamping a segment's columns onto the
/// template, flavour `k`'s count being `S_k − S_{k+1}`.
///
/// Every comparison of [`PoolState::free_fits`] is then one compare per
/// column: nodes exactly, pooled amounts within [`FIT_EPS`], and a
/// per-node demand of flavour class `c` as `S_c < nodes` (enough nodes of
/// a sufficient flavour; the `FIT_EPS` compare is exact on integer-valued
/// columns). So one evaluator answers every query, the **column scan**: a
/// branchless 8-wide chunked compare over the columns that can fail the
/// demand, with window boundaries checked once per chunk rather than once
/// per candidate. The columns that can fail it are the pooled columns
/// plus the one suffix column of its flavour class, less any column that
/// holds no negative value where the demand's threshold is `<= 0` (the
/// profile keeps that fact per column). The node column alone (a
/// burst-buffer-free demand on the paper's CPU + burst-buffer machine)
/// and the node column plus one more have their own instantiations of
/// the scan, compiled to SIMD. Debug builds cross-check every scan answer
/// against the linear walk over materialized states
/// ([`AvailabilityProfile::fits_interval_linear`],
/// [`AvailabilityProfile::earliest_start_linear`]).
#[derive(Clone, Debug)]
pub struct AvailabilityProfile {
    times: Vec<f64>,
    /// `cols[j][i]` is column `j`'s value on `[times[i], times[i+1])`
    /// (the last segment holds forever): the pooled resources' free
    /// amounts, then the flavour suffix counts.
    cols: Vec<Vec<f64>>,
    /// Topology/capacity template shared by every segment: the pool the
    /// profile was folded from. Its per-node slot, unmodelled slots and
    /// (on machines without a per-node resource) flavour pools complete
    /// every segment's state; its column-held amounts are never read.
    machine: PoolState,
    /// `CoreSnapshot` v1 wire state only: the watermark below which a
    /// since-deleted suffix-minima index was invalidated by reservations.
    /// Nothing reads it; it is maintained exactly as that index kept it
    /// (reset by a fold, raised to a carve's end rank, shifted by split-in
    /// boundaries and origin advances) so snapshots stay byte-identical.
    skyline_clean_from: usize,
    /// Bit `j` is set when no value of column `j` is negative (see
    /// [`AvailabilityProfile::binding`]). The fold and `restore` compute
    /// it, a carve clears a column's bit when it drives a value of that
    /// column below zero, and dropping or duplicating segments keeps it.
    /// Never serialized.
    nonneg: u32,
}

impl Default for AvailabilityProfile {
    /// An empty, never-folded profile. `machine` is a zero-capacity
    /// placeholder; every caller folds (which replaces it) before
    /// querying.
    fn default() -> Self {
        Self {
            times: Vec::new(),
            cols: Vec::new(),
            machine: PoolState::cpu_bb(0, 0.0),
            skyline_clean_from: 0,
            nonneg: 0,
        }
    }
}

impl PartialEq for AvailabilityProfile {
    /// Profiles are equal when their piecewise-constant functions are:
    /// same boundaries and the same materialized per-segment states
    /// (machine shape plus free counters). The watermark takes no part in
    /// equality.
    fn eq(&self, other: &Self) -> bool {
        self.times == other.times && self.states() == other.states()
    }
}

impl AvailabilityProfile {
    /// Builds the profile from the current free state and the estimated
    /// completion times of running jobs. `releases` is a list of
    /// `(est_end, demand, assignment)` tuples; order does not matter.
    pub fn new(
        now: f64,
        pool: PoolState,
        releases: impl IntoIterator<Item = (f64, JobDemand, NodeAssignment)>,
    ) -> Self {
        let mut rel: Vec<(f64, JobDemand, NodeAssignment)> =
            releases.into_iter().map(|(t, d, asn)| (t.max(now), d, asn)).collect();
        rel.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut profile = Self::default();
        profile.rebuild_from_sorted(now, pool, rel);
        profile
    }

    /// Advances the profile's origin to `now` in place, *keeping* the
    /// reservation carves — the memoized-replay alternative to a refold.
    /// Valid only when the release set and pool are unchanged since the
    /// fold that produced this profile and every carve lies strictly
    /// beyond `now` (the caller establishes both): then the refold +
    /// carve-replay this replaces is the same piecewise function, and
    /// dropping the segments that ended at or before `now` reproduces it
    /// bit for bit — boundaries beyond `now` are untouched, the origin
    /// segment's counters already accumulate the releases a refold would
    /// clamp into the origin, and the watermark shifts with the dropped
    /// segment count (its index-shifted evolution is identical). Dropping
    /// segments keeps every column's non-negativity bit true.
    ///
    /// Returns `false` without mutating when the advance cannot
    /// reproduce the refold exactly: a boundary inside `(now, now +
    /// 1e-12)` would have been merged into the origin by the fold's
    /// boundary-dedup window, so the caller must refold instead.
    ///
    /// # Panics
    /// Debug-panics on a never-folded profile or if `now` precedes the
    /// current origin.
    pub fn advance_origin(&mut self, now: f64) -> bool {
        debug_assert!(!self.times.is_empty(), "advance_origin on a never-folded profile");
        debug_assert!(now >= self.times[0], "advance_origin cannot rewind the origin");
        let k = self.seg_index(now);
        if let Some(&t) = self.times.get(k + 1) {
            if t - now < 1e-12 {
                return false;
            }
        }
        if k > 0 {
            self.times.drain(..k);
            for col in &mut self.cols {
                col.drain(..k);
            }
            self.skyline_clean_from = self.skyline_clean_from.saturating_sub(k);
        }
        self.times[0] = now;
        true
    }

    /// Refolds the profile in place from releases **already sorted**
    /// ascending by time (ties in any deterministic order; times below
    /// `now` are clamped to it, which preserves sortedness). Reuses the
    /// internal buffers — no allocation once capacity is warm — resets the
    /// watermark and recomputes the columns' non-negativity bits. This is
    /// the incremental path's fold:
    /// bit-identical to [`AvailabilityProfile::new`] on the same releases.
    ///
    /// # Panics
    /// Debug-panics if the releases are not sorted.
    pub fn rebuild_from_sorted(
        &mut self,
        now: f64,
        pool: PoolState,
        releases: impl IntoIterator<Item = (f64, JobDemand, NodeAssignment)>,
    ) {
        self.times.clear();
        self.machine = pool;
        self.times.push(now);
        self.reset_columns();
        self.skyline_clean_from = 0;
        // Fold with a full-state accumulator (identical `free` arithmetic
        // to a full-state profile), storing only each segment's columns;
        // a boundary within 1e-12 of the previous one replaces that
        // segment instead of opening a new one.
        let mut acc = pool;
        self.push_segment(&acc);
        let mut prev = f64::NEG_INFINITY;
        for (t, d, asn) in releases {
            let t = t.max(now);
            debug_assert!(t >= prev, "rebuild_from_sorted wants ascending releases");
            prev = t;
            acc.free(&d, asn);
            if (t - *self.times.last().unwrap()).abs() < 1e-12 {
                for col in &mut self.cols {
                    col.pop();
                }
            } else {
                self.times.push(t);
            }
            self.push_segment(&acc);
        }
        self.nonneg = self.nonneg_mask();
    }

    /// Number of pooled-resource columns; the flavour suffix columns
    /// follow them.
    #[inline]
    fn pooled_cols(&self) -> usize {
        self.machine.resource_len() - usize::from(self.machine.ssd_aware())
    }

    /// Empties the columns and sizes them for the machine: one per pooled
    /// resource plus one per flavour of the per-node resource.
    fn reset_columns(&mut self) {
        let ncols = self.pooled_cols() + self.machine.flavors().map_or(0, FlavorSet::len);
        self.cols.truncate(ncols);
        self.cols.resize_with(ncols, Vec::new);
        for col in &mut self.cols {
            col.clear();
        }
    }

    /// Appends `state`'s free counters as the last segment: its pooled
    /// free amounts, then its flavour suffix counts.
    fn push_segment(&mut self, state: &PoolState) {
        let pooled = self.pooled_cols();
        let (amounts, suffixes) = self.cols.split_at_mut(pooled);
        for (col, r) in amounts.iter_mut().zip(pooled_resources(state)) {
            col.push(state.free_of(r));
        }
        let mut s = 0u64;
        for (k, col) in suffixes.iter_mut().enumerate().rev() {
            s += u64::from(state.flavor_free(k));
            col.push(s as f64);
        }
    }

    /// Number of segments (diagnostic).
    pub fn segments(&self) -> usize {
        self.times.len()
    }

    /// The boundary times (diagnostic / equivalence tests).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The per-segment states, materialized (diagnostic / equivalence
    /// tests): segment `i` is the machine template stamped with segment
    /// `i`'s free counters.
    pub fn states(&self) -> Vec<PoolState> {
        (0..self.times.len()).map(|i| self.machine.with_free(&self.free_at(i))).collect()
    }

    /// Segment `i`'s free counters: the template with the column
    /// values stamped in.
    fn free_at(&self, i: usize) -> FreeState {
        let pooled = self.pooled_cols();
        let suffix = |k: usize| self.cols.get(pooled + k).map_or(0.0, |c| c[i]);
        self.machine.free_state_from(|j| self.cols[j][i], |k| (suffix(k) - suffix(k + 1)) as u32)
    }

    /// Index of the segment containing time `t` (clamped to the origin).
    #[inline]
    fn seg_index(&self, t: f64) -> usize {
        match self.times.binary_search_by(|x| x.total_cmp(&t)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// Free state at time `t` (clamped to the profile's origin).
    pub fn state_at(&self, t: f64) -> PoolState {
        self.machine.with_free(&self.free_at(self.seg_index(t)))
    }

    /// Whether `d` fits everywhere on `[start, start + duration)`, by the
    /// column scan (debug builds cross-check it against
    /// [`AvailabilityProfile::fits_interval_linear`]).
    pub fn fits_interval(&self, d: &JobDemand, start: f64, duration: f64) -> bool {
        let fits = self.fits_interval_scan(d, start, duration);
        debug_assert_eq!(fits, self.fits_interval_linear(d, start, duration));
        fits
    }

    /// The linear-walk `fits_interval`: the oracle the column-scanned
    /// [`AvailabilityProfile::fits_interval`] is checked against, kept
    /// public so equivalence tests can compare the paths explicitly. It
    /// tests each segment's materialized state with
    /// [`PoolState::free_fits`].
    pub fn fits_interval_linear(&self, d: &JobDemand, start: f64, duration: f64) -> bool {
        let seg_fits = |i: usize| self.machine.free_fits(&self.free_at(i), d);
        let end = start + duration;
        if !seg_fits(self.seg_index(start)) {
            return false;
        }
        // First boundary strictly greater than `start`.
        let mut i = self.times.partition_point(|t| *t <= start);
        while i < self.times.len() && self.times[i] < end {
            if !seg_fits(i) {
                return false;
            }
            i += 1;
        }
        true
    }

    /// Earliest time `>= from` at which `d` fits for `duration`. Candidate
    /// instants are `from` and the profile's breakpoints (free resources
    /// only ever *increase* at breakpoints built from releases, but
    /// reservations can carve arbitrary shapes, so every breakpoint is a
    /// candidate). Returns `f64::INFINITY` if it never fits. The column
    /// scan answers, with the linear walk as its debug-build oracle.
    pub fn earliest_start(&self, d: &JobDemand, from: f64, duration: f64) -> f64 {
        self.earliest_slot(&self.thresholds(d), from, self.next_boundary(from), duration).0
    }

    /// Rank of the first boundary strictly after `from` — where a walk
    /// from `from` starts.
    #[inline]
    fn next_boundary(&self, from: f64) -> usize {
        self.times.partition_point(|t| *t <= from)
    }

    /// Insertion rank of `t`: the index of the first boundary at or after
    /// it — `t`'s own index when `t` is a boundary, the segment count
    /// when `t = +inf`.
    pub(crate) fn boundary_rank(&self, t: f64) -> usize {
        self.times.partition_point(|x| *x < t)
    }

    /// The earliest slot `>= from` over `duration` for the demand with
    /// thresholds `th`, as `(t, lo, hi)`: `t` is [`AvailabilityProfile::earliest_start`]'s answer, `lo`
    /// the rank of the segment starting at (or, for a non-boundary
    /// `from`, containing) `t`, and `hi` the insertion rank of `t +
    /// duration` — exactly the ranks [`AvailabilityProfile::carve`]
    /// takes. A slot that never fits is `(+inf, S, S)`. `next` must be
    /// the rank of the first boundary after `from`; the planner passes
    /// the rank its memo carried, so a query does no binary search over
    /// `times` at all.
    pub(crate) fn earliest_slot(
        &self,
        th: &Thresholds<'_>,
        from: f64,
        next: usize,
        duration: f64,
    ) -> (f64, usize, usize) {
        debug_assert_eq!(next, self.next_boundary(from), "carried rank of `from` is stale");
        debug_assert_eq!(self.nonneg & !self.nonneg_mask(), 0, "a non-negativity bit is stale");
        let slot = self.scan_slot(th, from, next, duration);
        debug_assert_eq!(
            slot.0.to_bits(),
            self.earliest_start_linear(th.d, from, duration).to_bits()
        );
        debug_assert_eq!(
            (slot.1, slot.2),
            if slot.0.is_finite() {
                (self.seg_index(slot.0), self.boundary_rank(slot.0 + duration))
            } else {
                (self.times.len(), self.times.len())
            },
            "slot ranks diverged from binary search"
        );
        slot
    }

    /// The linear-walk `earliest_start`: the oracle the column-scanned
    /// [`AvailabilityProfile::earliest_start`] is checked against, kept
    /// public so equivalence tests can compare the paths explicitly. It
    /// tests each segment's materialized state with
    /// [`PoolState::free_fits`].
    ///
    /// Implemented as a single forward walk: when a segment inside the
    /// candidate's interval does not fit, every candidate up to that
    /// segment's boundary is doomed (its interval would contain the
    /// blocking segment), so the walk jumps straight to the next fitting
    /// breakpoint. Each segment is visited at most once — O(S) worst case
    /// instead of the O(S²) try-every-breakpoint scan.
    pub fn earliest_start_linear(&self, d: &JobDemand, from: f64, duration: f64) -> f64 {
        let seg_fits = |i: usize| self.machine.free_fits(&self.free_at(i), d);
        let n = self.times.len();
        let mut cand = from;
        // First boundary strictly after the candidate.
        let mut i = self.times.partition_point(|t| *t <= from);
        if !seg_fits(i.saturating_sub(1)) {
            // `from` fails in its own segment: advance to the first
            // breakpoint whose segment fits.
            while i < n && !seg_fits(i) {
                i += 1;
            }
            if i == n {
                return f64::INFINITY;
            }
            cand = self.times[i];
            i += 1;
        }
        // Invariant: the segment containing `cand` fits, and every
        // boundary in (cand, times[i]) — none so far — fits.
        'candidate: loop {
            let end = cand + duration;
            while i < n && self.times[i] < end {
                if !seg_fits(i) {
                    // Segment i blocks every candidate in (cand, times[i]]
                    // (their intervals all contain it, and times[i]'s own
                    // segment does not fit). Jump to the next fitting
                    // breakpoint.
                    i += 1;
                    while i < n && !seg_fits(i) {
                        i += 1;
                    }
                    if i == n {
                        return f64::INFINITY;
                    }
                    cand = self.times[i];
                    i += 1;
                    continue 'candidate;
                }
                i += 1;
            }
            return cand;
        }
    }

    /// Per-column fit thresholds of `d` for the column scan: segment `i`
    /// fits iff `cols[0][i] >= need[0]` (nodes, exact) and `cols[j][i] +
    /// FIT_EPS >= need[j]` for every further column — the comparisons of
    /// [`PoolState::free_fits`], in the same floating-point arithmetic.
    /// A per-node demand of flavour class `c` needs `d.nodes` in suffix
    /// column `c`; the other suffix columns need nothing. Computed once
    /// per candidate: its query and its carve share them.
    #[inline]
    pub(crate) fn thresholds<'d>(&self, d: &'d JobDemand) -> Thresholds<'d> {
        let mut need = [f64::NEG_INFINITY; MAX_COLS];
        for (n, r) in need.iter_mut().zip(pooled_resources(&self.machine)) {
            *n = self.machine.demand_of(d, r);
        }
        let mut class = None;
        if let (Some(pr), Some(flavors)) = (self.machine.per_node_index(), self.machine.flavors()) {
            let c = flavors.class_of(self.machine.demand_of(d, pr));
            debug_assert!(c < flavors.len());
            need[self.pooled_cols() + c] = f64::from(d.nodes);
            class = Some(c);
        }
        Thresholds { d, need, class }
    }

    /// The columns that can fail a demand with thresholds `need`,
    /// ascending, and how many there are. A column drops out when its
    /// threshold is `-inf` (a suffix column outside the demand's flavour
    /// class) or when it holds no negative value and its threshold is
    /// `<= 0`: then every value `c` passes, `c >= 0 >= need` on the node
    /// column and `c + FIT_EPS >= FIT_EPS > 0 >= need` on the others.
    #[inline]
    fn binding(&self, need: &[f64; MAX_COLS]) -> ([usize; MAX_COLS], usize) {
        let mut bind = [0; MAX_COLS];
        let mut len = 0;
        for (j, &n) in need.iter().enumerate().take(self.cols.len()) {
            let slack = self.nonneg & (1 << j) != 0 && n <= 0.0;
            if n != f64::NEG_INFINITY && !slack {
                bind[len] = j;
                len += 1;
            }
        }
        (bind, len)
    }

    /// The columns' non-negativity bits, recomputed from their values:
    /// bit `j` is set when no value of column `j` is negative.
    fn nonneg_mask(&self) -> u32 {
        self.cols
            .iter()
            .enumerate()
            .fold(0, |m, (j, col)| m | u32::from(!col.iter().any(|&v| v < 0.0)) << j)
    }

    /// Column-scan `fits_interval`: same walk as
    /// [`AvailabilityProfile::fits_interval_linear`], with the in-window
    /// segment sweep vectorized over the binding columns.
    fn fits_interval_scan(&self, d: &JobDemand, start: f64, duration: f64) -> bool {
        let end = start + duration;
        let th = self.thresholds(d);
        let first = self.seg_index(start);
        // First boundary strictly greater than `start`; scan stops at the
        // first boundary at or beyond the interval's end.
        let i = self.times.partition_point(|t| *t <= start);
        let lim = i + self.times[i..].partition_point(|t| *t < end);
        with_fail_test!(self, &th, test => !test.fails(first) && next_fail(&test, i, lim) == lim)
    }

    /// Column-scan slot query behind [`AvailabilityProfile::earliest_slot`]:
    /// the same candidate-advancing walk as
    /// [`AvailabilityProfile::earliest_start_linear`] — each segment is
    /// still visited at most once — but the forward sweep evaluates the
    /// fit predicate as a branchless 8-segment bitmask over the binding
    /// columns, with the window boundary checked once per chunk instead
    /// of once per segment.
    fn scan_slot(
        &self,
        th: &Thresholds<'_>,
        from: f64,
        next: usize,
        duration: f64,
    ) -> (f64, usize, usize) {
        with_fail_test!(self, th, test => walk_slot(&self.times, &test, from, next, duration))
    }

    /// Carves a reservation for `d` over `[start, start + duration)`: a
    /// thin wrapper that finds the carve ranks by search — splitting
    /// `start` in when it is not yet a boundary — and runs the one carve
    /// body, `carve`. The conservative planner carves at the ranks its
    /// query found instead (see [`AvailabilityProfile::reserve_earliest`]).
    ///
    /// # Panics
    /// Panics (debug) if the demand does not fit the interval.
    pub fn reserve(&mut self, d: &JobDemand, start: f64, duration: f64) {
        debug_assert!(self.fits_interval(d, start, duration), "reserve without fit check");
        let end = start + duration;
        let lo = self.split_at(start);
        let hi = lo + self.times[lo..].partition_point(|t| *t < end);
        self.carve(&self.thresholds(d), lo, hi, end);
    }

    /// Finds the earliest start `>= from` for `d` over `duration` and
    /// carves the reservation there, returning the start (`+inf`, with
    /// nothing carved, when it never fits). Same result as
    /// [`AvailabilityProfile::earliest_start`] followed by
    /// [`AvailabilityProfile::reserve`], but the carve reuses the ranks
    /// the query found (`earliest_slot`) instead of searching `times`
    /// again — the conservative planner's candidate step, which calls the
    /// rank-taking pair directly.
    pub fn reserve_earliest(&mut self, d: &JobDemand, from: f64, duration: f64) -> f64 {
        let th = self.thresholds(d);
        let (t, lo, hi) = self.earliest_slot(&th, from, self.next_boundary(from), duration);
        if t.is_finite() {
            if self.times[lo] == t {
                self.carve(&th, lo, hi, t + duration);
            } else {
                // `t` is `from` itself, strictly inside segment `lo`: the
                // wrapper splits it in first.
                self.reserve(d, t, duration);
            }
        }
        t
    }

    /// Carves the demand with thresholds `th` out of segments `lo..hi`:
    /// `lo` is the rank of the
    /// reservation's start boundary and `hi` the insertion rank of its
    /// `end`. Splits `end` in at `hi` when it is not already a boundary,
    /// and returns whether it did — ranks at or beyond `hi` then moved
    /// up by one. The interval fit is the caller's (its query found it),
    /// so no per-segment fit re-check applies.
    ///
    /// The arithmetic is [`PoolState::alloc`]'s, per column: the same
    /// `free - demand` subtraction on each pooled column, and the greedy
    /// smallest-sufficient-flavour-first assignment in suffix form — a
    /// demand of `n` nodes in flavour class `c` takes all `n` from every
    /// suffix `S_k` with `k ≤ c`, and from a suffix above `c` whatever
    /// overflows the flavours below it, `max(0, n − (S_c − S_k))`. So the
    /// materialized states are bit-identical to allocating on each
    /// segment's state. A pooled column whose demand is `+0.0` is skipped
    /// (`v - 0.0` is `v`, bit for bit), and a column the carve drives
    /// below zero loses its non-negativity bit.
    pub(crate) fn carve(&mut self, th: &Thresholds<'_>, lo: usize, hi: usize, end: f64) -> bool {
        let split = lo < hi && end.is_finite() && self.times.get(hi) != Some(&end);
        if split {
            self.insert_boundary(hi, end);
        }
        let pooled = self.pooled_cols();
        let mut nonneg = self.nonneg;
        let (amounts, suffixes) = self.cols.split_at_mut(pooled);
        for (j, (col, &demand)) in amounts.iter_mut().zip(&th.need).enumerate() {
            if demand == 0.0 && demand.is_sign_positive() {
                continue;
            }
            let mut neg = false;
            for v in &mut col[lo..hi] {
                *v -= demand;
                neg |= *v < 0.0;
            }
            nonneg &= !(u32::from(neg) << j);
        }
        if let Some(class) = th.class {
            let n = f64::from(th.d.nodes);
            let (upto, above) = suffixes.split_at_mut(class + 1);
            let sc = &upto[class][lo..hi];
            debug_assert!(sc.iter().all(|&s| s >= n), "carve of a non-fitting flavour demand");
            for (k, col) in above.iter_mut().enumerate() {
                let mut neg = false;
                for (s, &c) in col[lo..hi].iter_mut().zip(sc) {
                    *s -= (n - (c - *s)).max(0.0);
                    neg |= *s < 0.0;
                }
                nonneg &= !(u32::from(neg) << (pooled + class + 1 + k));
            }
            for (k, col) in upto.iter_mut().enumerate() {
                let mut neg = false;
                for s in &mut col[lo..hi] {
                    *s -= n;
                    neg |= *s < 0.0;
                }
                nonneg &= !(u32::from(neg) << (pooled + k));
            }
        }
        self.nonneg = nonneg;
        self.skyline_clean_from = self.skyline_clean_from.max(hi);
        split
    }

    /// Extracts the profile's owned state: boundaries, per-segment states
    /// (materialized from the template and the columns — every segment
    /// shares the fold pool's topology and capacities), and the
    /// watermark. The columns are **not state**: restore rebuilds them
    /// from the flat segments, so the snapshot schema does not depend on
    /// the storage.
    pub fn snapshot(&self) -> ProfileState {
        ProfileState {
            times: self.times.clone(),
            states: self.states(),
            skyline_clean_from: self.skyline_clean_from,
        }
    }

    /// Rebuilds a profile from extracted state, validating shape: equal
    /// `times`/`states` lengths, strictly increasing finite boundaries,
    /// a watermark within range, one machine shared by every segment,
    /// and segments that agree with the first everywhere the columns do
    /// not reach (the per-node resource's own slot, unmodelled slots,
    /// and flavour pools on machines without a per-node resource).
    /// Anything else is a typed [`SchedError::CorruptSnapshot`], so
    /// restore followed by [`AvailabilityProfile::snapshot`] is a fixed
    /// point.
    pub fn restore(state: ProfileState) -> Result<Self, SchedError> {
        if state.times.is_empty() && state.states.is_empty() && state.skyline_clean_from == 0 {
            // A never-folded profile (fresh state, no pass yet).
            return Ok(Self::default());
        }
        if state.times.is_empty() || state.times.len() != state.states.len() {
            return Err(SchedError::CorruptSnapshot(format!(
                "profile has {} boundaries for {} states",
                state.times.len(),
                state.states.len()
            )));
        }
        if state.times.iter().any(|t| !t.is_finite())
            || state.times.windows(2).any(|w| w[0] >= w[1])
        {
            return Err(SchedError::CorruptSnapshot(
                "profile boundaries must be finite and strictly increasing".into(),
            ));
        }
        if state.skyline_clean_from > state.times.len() {
            return Err(SchedError::CorruptSnapshot(format!(
                "profile watermark {} exceeds {} segments",
                state.skyline_clean_from,
                state.times.len()
            )));
        }
        // Every segment of a folded profile derives from one pool, so all
        // must agree on topology and capacities — that shared machine
        // becomes the template the columns are read against.
        let machine = state.states[0];
        if state.states.iter().any(|s| !s.same_machine(&machine)) {
            return Err(SchedError::CorruptSnapshot(
                "profile segments must share one machine topology and capacity".into(),
            ));
        }
        // Compare with the column-held values masked out: what is left is
        // exactly what the columns cannot hold.
        let rest = |s: &PoolState| s.free_state_from(|_| 0.0, |_| 0);
        let shared = rest(&machine);
        if state.states.iter().any(|s| rest(s) != shared) {
            return Err(SchedError::CorruptSnapshot(
                "profile segments must differ only in column-held free counters".into(),
            ));
        }
        let mut profile = Self { machine, ..Self::default() };
        profile.reset_columns();
        for s in &state.states {
            profile.push_segment(s);
        }
        profile.times = state.times;
        profile.skyline_clean_from = state.skyline_clean_from;
        profile.nonneg = profile.nonneg_mask();
        Ok(profile)
    }

    /// Ensures `t` is a breakpoint (no-op if it already is or precedes the
    /// origin; infinite times are ignored) and returns its rank.
    fn split_at(&mut self, t: f64) -> usize {
        if !t.is_finite() {
            return self.times.len();
        }
        if t <= self.times[0] {
            return 0;
        }
        match self.times.binary_search_by(|x| x.total_cmp(&t)) {
            Ok(i) => i,
            Err(i) => {
                self.insert_boundary(i, t);
                i
            }
        }
    }

    /// Inserts boundary `t` at rank `i` (`times[i - 1] < t < times[i]`),
    /// duplicating segment `i - 1` (which keeps every non-negativity bit
    /// true), and keeps the watermark rank-aligned.
    fn insert_boundary(&mut self, i: usize, t: f64) {
        debug_assert!(i > 0 && self.times[i - 1] < t && self.times.get(i).is_none_or(|&x| t < x));
        self.times.insert(i, t);
        if i < self.skyline_clean_from {
            self.skyline_clean_from += 1;
        }
        for col in &mut self.cols {
            col.insert(i, col[i - 1]);
        }
    }
}

// ---------------------------------------------------------------------------
// Owned state types for the snapshot/restore contract (DESIGN.md §12).
// ---------------------------------------------------------------------------

/// Owned state of a [`ReleaseMirror`] (see [`ReleaseMirror::snapshot`]):
/// the `(est_end, index, demand, assignment)` releases in sorted order and
/// the ledger generation they reflect.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MirrorState {
    /// Mirrored releases, `(est_end, index)`-sorted.
    pub releases: Vec<(f64, usize, JobDemand, NodeAssignment)>,
    /// Ledger generation the releases reflect (`None` before first sync).
    pub synced: Option<u64>,
}

/// Owned state of an [`AvailabilityProfile`] (see
/// [`AvailabilityProfile::snapshot`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProfileState {
    /// Segment boundaries, strictly increasing; `times[0]` is the origin.
    pub times: Vec<f64>,
    /// Free state on `[times[i], times[i+1])`.
    pub states: Vec<PoolState>,
    /// `CoreSnapshot` v1 wire state only: the watermark a since-deleted
    /// suffix-minima index kept (see `AvailabilityProfile`). Restore
    /// checks it is within range; nothing else reads it.
    pub skyline_clean_from: usize,
}

/// Owned cross-invocation state of conservative backfilling: what a
/// [`crate::CoreSnapshot`] records for it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ConservativeState {
    /// The persistent release mirror.
    pub mirror: MirrorState,
    /// The persistent availability profile.
    pub profile: ProfileState,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legacy_profile::LegacyProfile;
    use bbsched_core::resource::{DemandSlot, Flavor, ResourceModel, ResourceSpec};

    fn d(nodes: u32, bb: f64) -> JobDemand {
        JobDemand::cpu_bb(nodes, bb)
    }

    fn release(t: f64, nodes: u32, bb: f64) -> (f64, JobDemand, NodeAssignment) {
        (t, d(nodes, bb), NodeAssignment::two_tier(0, nodes))
    }

    #[test]
    fn shadow_math_uses_ledger_release_order() {
        let mut ledger = AllocLedger::new(PoolState::cpu_bb(10, 100.0));
        ledger.start(0, d(6, 0.0), 100.0);
        ledger.start(1, d(4, 50.0), 40.0);
        // Head needs 8 nodes: free now 0; at t=40, 4 nodes; at t=100, 10.
        let (shadow, leftover) = shadow_and_leftover(&ledger, &d(8, 0.0), 5.0);
        assert_eq!(shadow, 100.0);
        assert_eq!(leftover.nodes(), 2);
        // Head fits now -> shadow is "now".
        ledger.finish(0);
        let (shadow, _) = shadow_and_leftover(&ledger, &d(5, 0.0), 5.0);
        assert_eq!(shadow, 5.0);
    }

    #[test]
    fn profile_accumulates_releases() {
        let pool = PoolState::cpu_bb(4, 10.0); // 4 free now
        let p = AvailabilityProfile::new(
            0.0,
            pool,
            vec![release(10.0, 4, 20.0), release(20.0, 2, 0.0)],
        );
        assert_eq!(p.segments(), 3);
        assert_eq!(p.state_at(0.0).nodes(), 4);
        assert_eq!(p.state_at(10.0).nodes(), 8);
        assert_eq!(p.state_at(25.0).nodes(), 10);
        assert_eq!(p.state_at(25.0).bb_gb(), 30.0);
    }

    #[test]
    fn simultaneous_releases_merge() {
        let p = AvailabilityProfile::new(
            0.0,
            PoolState::cpu_bb(0, 0.0),
            vec![release(5.0, 1, 0.0), release(5.0, 2, 0.0)],
        );
        assert_eq!(p.segments(), 2);
        assert_eq!(p.state_at(5.0).nodes(), 3);
    }

    #[test]
    fn earliest_start_waits_for_capacity() {
        let p =
            AvailabilityProfile::new(0.0, PoolState::cpu_bb(2, 0.0), vec![release(10.0, 6, 0.0)]);
        assert_eq!(p.earliest_start(&d(2, 0.0), 0.0, 100.0), 0.0);
        assert_eq!(p.earliest_start(&d(5, 0.0), 0.0, 100.0), 10.0);
        assert_eq!(p.earliest_start(&d(50, 0.0), 0.0, 100.0), f64::INFINITY);
    }

    #[test]
    fn reservation_blocks_the_interval() {
        let mut p =
            AvailabilityProfile::new(0.0, PoolState::cpu_bb(4, 10.0), vec![release(10.0, 4, 0.0)]);
        // Reserve all 4 current nodes for [0, 30).
        p.reserve(&d(4, 5.0), 0.0, 30.0);
        assert_eq!(p.state_at(0.0).nodes(), 0);
        assert_eq!(p.state_at(15.0).nodes(), 4, "release at 10 still counted");
        assert_eq!(p.state_at(30.0).nodes(), 8, "reservation ends at 30");
        // A 4-node job now has to wait until t=10.
        assert_eq!(p.earliest_start(&d(4, 0.0), 0.0, 5.0), 10.0);
    }

    #[test]
    fn fits_interval_checks_interior_boundaries() {
        let mut p = AvailabilityProfile::new(0.0, PoolState::cpu_bb(8, 0.0), vec![]);
        // Reservation in the middle of a candidate interval.
        p.reserve(&d(6, 0.0), 10.0, 10.0);
        assert!(p.fits_interval(&d(4, 0.0), 0.0, 10.0));
        assert!(!p.fits_interval(&d(4, 0.0), 0.0, 15.0), "collides with [10,20)");
        assert!(p.fits_interval(&d(2, 0.0), 0.0, 100.0));
    }

    #[test]
    fn ssd_pools_tracked_through_profile() {
        let pool = PoolState::with_ssd(1, 1, 100.0);
        let big = JobDemand::cpu_bb_ssd(1, 0.0, 200.0);
        let p = AvailabilityProfile::new(
            0.0,
            pool,
            vec![(5.0, JobDemand::cpu_bb_ssd(2, 0.0, 200.0), NodeAssignment::two_tier(0, 2))],
        );
        // One 256 node free now; three at t=5.
        assert!(p.fits_interval(&big, 0.0, 1.0));
        let three = JobDemand::cpu_bb_ssd(3, 0.0, 200.0);
        assert_eq!(p.earliest_start(&three, 0.0, 1.0), 5.0);
    }

    #[test]
    fn conservative_chain_of_reservations() {
        // Classic scenario: 10 nodes; running job frees at t=10.
        let mut p =
            AvailabilityProfile::new(0.0, PoolState::cpu_bb(2, 0.0), vec![release(10.0, 8, 0.0)]);
        // Head job needs 10 nodes -> reserved at t=10 for 20.
        let head = d(10, 0.0);
        let t = p.earliest_start(&head, 0.0, 20.0);
        assert_eq!(t, 10.0);
        p.reserve(&head, t, 20.0);
        // Second job (2 nodes, long): can start now ONLY if it ends by 10.
        assert_eq!(p.earliest_start(&d(2, 0.0), 0.0, 5.0), 0.0);
        assert_eq!(
            p.earliest_start(&d(2, 0.0), 0.0, 50.0),
            30.0,
            "long job must queue behind the head's reservation"
        );
    }

    #[test]
    fn mirror_tracks_ledger_incrementally() {
        let mut ledger = AllocLedger::new(PoolState::cpu_bb(100, 1_000.0));
        let mut mirror = ReleaseMirror::new();
        mirror.sync(&ledger);
        assert!(mirror.is_empty());
        ledger.start(4, d(10, 50.0), 40.0);
        ledger.start(2, d(5, 0.0), 10.0);
        mirror.sync(&ledger);
        assert_eq!(mirror.len(), 2);
        ledger.finish(2);
        ledger.start(7, d(1, 0.0), 25.0);
        mirror.sync(&ledger);
        // Mirror order matches the ledger's (est_end, idx) order.
        let order: Vec<usize> = mirror.releases.iter().map(|r| r.idx).collect();
        assert_eq!(order, vec![7, 4]);
    }

    #[test]
    fn mirror_fold_equals_from_scratch_profile() {
        let mut ledger = AllocLedger::new(PoolState::cpu_bb(64, 500.0));
        let mut mirror = ReleaseMirror::new();
        let mut profile = AvailabilityProfile::default();
        ledger.start(0, d(8, 120.0), 90.0);
        ledger.start(1, d(16, 0.0), 30.0);
        ledger.start(2, d(4, 60.0), 90.0);
        mirror.sync(&ledger);
        mirror.fold_into(5.0, *ledger.pool(), &mut profile);
        let fresh = AvailabilityProfile::new(5.0, *ledger.pool(), ledger.release_schedule());
        assert_eq!(profile, fresh);
        // Reservations carved into the working profile vanish at the next
        // fold; only ledger deltas persist.
        profile.reserve(&d(30, 0.0), 30.0, 20.0);
        assert_ne!(profile, fresh);
        ledger.finish(1);
        mirror.sync(&ledger);
        mirror.fold_into(12.0, *ledger.pool(), &mut profile);
        let fresh = AvailabilityProfile::new(12.0, *ledger.pool(), ledger.release_schedule());
        assert_eq!(profile, fresh);
    }

    #[test]
    fn conservative_state_roundtrips_against_ledger() {
        let mut ledger = AllocLedger::new(PoolState::cpu_bb(64, 500.0));
        let mut strat = ConservativeBackfill::default();
        ledger.start(0, d(8, 120.0), 90.0);
        ledger.start(1, d(16, 0.0), 30.0);
        strat.mirror.sync(&ledger);
        strat.mirror.fold_into(5.0, *ledger.pool(), &mut strat.profile);
        strat.profile.reserve(&d(40, 0.0), 30.0, 20.0);

        let state = strat.snapshot();
        let json = serde_json::to_string(&state).unwrap();
        let back: ConservativeState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, state);

        let restored = ConservativeBackfill::restore(back, &ledger).unwrap();
        assert_eq!(restored.profile, strat.profile);
        assert_eq!(
            restored.profile.snapshot().skyline_clean_from,
            strat.profile.skyline_clean_from
        );
        assert_eq!(restored.mirror.snapshot().releases, strat.mirror.snapshot().releases);

        // The mirror keeps tracking the ledger after restore.
        let mut restored = restored;
        ledger.finish(1);
        restored.mirror.sync(&ledger);
        assert_eq!(restored.mirror.len(), 1);
    }

    #[test]
    fn mirror_restore_lagging_behind_ledger_replays_deltas() {
        let mut ledger = AllocLedger::new(PoolState::cpu_bb(64, 0.0));
        let mut mirror = ReleaseMirror::new();
        ledger.start(0, d(8, 0.0), 90.0);
        mirror.sync(&ledger);
        let state = mirror.snapshot();
        // Ledger moves on after the snapshot (as happens when backfill
        // starts jobs after the pass-start sync): restore validates by
        // replaying the deltas on a probe, but keeps the recorded lag so
        // it is a fixed point of snapshot.
        ledger.start(1, d(4, 0.0), 30.0);
        ledger.finish(0);
        let mut restored = ReleaseMirror::restore(state.clone(), &ledger).unwrap();
        assert_eq!(restored.snapshot(), state, "restore preserves the recorded lag verbatim");
        // The next live sync applies the same deltas the probe verified.
        restored.sync(&ledger);
        assert_eq!(restored.len(), 1);
        assert_eq!(restored.snapshot().synced, Some(ledger.generation()));
    }

    #[test]
    fn corrupt_backfill_state_fails_typed() {
        let mut ledger = AllocLedger::new(PoolState::cpu_bb(64, 0.0));
        ledger.start(0, d(8, 0.0), 90.0);
        let mut mirror = ReleaseMirror::new();
        mirror.sync(&ledger);
        let good = mirror.snapshot();

        // Unsorted releases.
        let mut unsorted = good.clone();
        unsorted.releases.push(unsorted.releases[0]);
        assert!(matches!(
            ReleaseMirror::restore(unsorted, &ledger),
            Err(SchedError::CorruptSnapshot(_))
        ));

        // A mirrored release the ledger's delta replay then contradicts:
        // claim sync at the current generation but with bogus content.
        let mut bogus = good.clone();
        bogus.releases[0].0 = 123.0;
        assert!(matches!(
            ReleaseMirror::restore(bogus, &ledger),
            Err(SchedError::CorruptSnapshot(_))
        ));

        // Deltas that finish a release the mirror never saw.
        let empty = MirrorState { releases: Vec::new(), synced: Some(ledger.generation()) };
        ledger.finish(0);
        assert!(matches!(
            ReleaseMirror::restore(empty, &ledger),
            Err(SchedError::CorruptSnapshot(_))
        ));

        // Malformed profile shapes.
        let torn = ProfileState {
            times: vec![0.0, 10.0],
            states: vec![PoolState::cpu_bb(1, 0.0)],
            skyline_clean_from: 0,
        };
        assert!(matches!(AvailabilityProfile::restore(torn), Err(SchedError::CorruptSnapshot(_))));
        let unordered = ProfileState {
            times: vec![10.0, 0.0],
            states: vec![PoolState::cpu_bb(1, 0.0); 2],
            skyline_clean_from: 0,
        };
        assert!(matches!(
            AvailabilityProfile::restore(unordered),
            Err(SchedError::CorruptSnapshot(_))
        ));

        // Pooled segments that differ from the first outside the modelled
        // pooled resources (a flavour pool, an unmodelled slot): columns
        // cannot hold that, so restore must refuse rather than normalize.
        let pooled =
            AvailabilityProfile::new(0.0, PoolState::cpu_bb(4, 10.0), vec![]).snapshot().states[0];
        let json = serde_json::to_string(&pooled).unwrap();
        let edit = |from: &str, to: &str| -> PoolState {
            assert!(json.contains(from), "unexpected PoolState encoding: {json}");
            serde_json::from_str(&json.replacen(from, to, 1)).unwrap()
        };
        let odd_flavor = edit("\"flavor_free\":[0,", "\"flavor_free\":[3,");
        let odd_slot = edit("10.0,0.0,", "10.0,1.5,");
        for odd in [odd_flavor, odd_slot] {
            assert!(odd.same_machine(&pooled) && odd != pooled);
            let mixed = ProfileState {
                times: vec![0.0, 10.0],
                states: vec![pooled, odd],
                skyline_clean_from: 0,
            };
            assert!(matches!(
                AvailabilityProfile::restore(mixed),
                Err(SchedError::CorruptSnapshot(_))
            ));
        }
        // Differing in a modelled pooled amount is an ordinary profile.
        let mut busier = pooled;
        busier.set_free_nodes(1);
        let fine = ProfileState {
            times: vec![0.0, 10.0],
            states: vec![pooled, busier],
            skyline_clean_from: 1,
        };
        let restored = AvailabilityProfile::restore(fine.clone()).unwrap();
        assert_eq!(restored.snapshot(), fine);

        // Flavoured segments that differ from the first outside the
        // columns (the per-node resource's own slot, an unused flavour
        // slot, an unmodelled slot) are refused the same way.
        let flavoured = AvailabilityProfile::new(0.0, PoolState::with_ssd(2, 3, 10.0), vec![])
            .snapshot()
            .states[0];
        let json = serde_json::to_string(&flavoured).unwrap();
        let edit = |from: &str, to: &str| -> PoolState {
            assert!(json.contains(from), "unexpected PoolState encoding: {json}");
            serde_json::from_str(&json.replacen(from, to, 1)).unwrap()
        };
        let odd_per_node = edit("[5.0,10.0,1024.0,", "[5.0,10.0,512.0,");
        let odd_flavor = edit("\"flavor_free\":[2,3,0,", "\"flavor_free\":[2,3,7,");
        let odd_slot = edit("1024.0,0.0,", "1024.0,1.5,");
        for odd in [odd_per_node, odd_flavor, odd_slot] {
            assert!(odd.same_machine(&flavoured) && odd != flavoured);
            let mixed = ProfileState {
                times: vec![0.0, 10.0],
                states: vec![flavoured, odd],
                skyline_clean_from: 0,
            };
            assert!(matches!(
                AvailabilityProfile::restore(mixed),
                Err(SchedError::CorruptSnapshot(_))
            ));
        }
        // Differing in the nodes and a flavour pool is an ordinary
        // flavoured profile.
        let busier = edit("[5.0,10.0,1024.0,", "[4.0,10.0,1024.0,");
        let busier: PoolState = serde_json::from_str(
            &serde_json::to_string(&busier).unwrap().replacen("[2,3,0,", "[1,3,0,", 1),
        )
        .unwrap();
        let fine = ProfileState {
            times: vec![0.0, 10.0],
            states: vec![flavoured, busier],
            skyline_clean_from: 2,
        };
        let restored = AvailabilityProfile::restore(fine.clone()).unwrap();
        assert_eq!(restored.snapshot(), fine);
    }

    /// The latest answer among the noted *plain* entries that `d` over
    /// `dur` dominates, or `now`: what [`DominanceMemo::bound`] must
    /// return, by exhaustive search.
    fn brute_bound(noted: &[(JobDemand, f64, f64)], d: &JobDemand, dur: f64, now: f64) -> f64 {
        noted
            .iter()
            .filter(|(e, de, _)| {
                DominanceMemo::plain(e) && e.nodes <= d.nodes && e.bb_gb <= d.bb_gb && *de <= dur
            })
            .fold(now, |b, &(_, _, t)| b.max(t))
    }

    /// Maps raw words onto a demand: burst buffer is zero a quarter of
    /// the time, node counts run past 2048, and one in six demands
    /// carries SSD or an extra resource (never noted by the memo, but
    /// still bounded by the plain entries it dominates).
    fn memo_demand(a: u16, b: u8, c: u8) -> JobDemand {
        let d = JobDemand::cpu_bb(1 + u32::from(a) % 4_096, f64::from(b % 4) * 40.0);
        match c % 6 {
            0 => JobDemand { ssd_gb_per_node: 64.0, ..d },
            1 => d.with_extra(0, f64::from(c % 5)),
            _ => d,
        }
    }

    /// The machine shapes the profile property tests run on, with a tag
    /// for [`shaped_demand`]: pooled R = 2 (the column scan's two-column
    /// walk), pooled R = 3 with GPUs (its generic walk), two-tier
    /// flavoured SSD nodes, and three-tier ones (flavour suffix columns,
    /// with greedy overflow across more than one tier).
    fn profile_systems() -> [(PoolState, u32); 4] {
        let gpus = ResourceModel::new(vec![
            ResourceSpec::pooled("nodes", 512.0, DemandSlot::Nodes),
            ResourceSpec::pooled("bb_gb", 2_000.0, DemandSlot::BbGb),
            ResourceSpec::pooled("gpus", 64.0, DemandSlot::Extra(0)),
        ])
        .expect("3-resource pooled test model is valid");
        let tiers = ResourceModel::new(vec![
            ResourceSpec::pooled("nodes", 384.0, DemandSlot::Nodes),
            ResourceSpec::pooled("bb_gb", 2_000.0, DemandSlot::BbGb),
            ResourceSpec::per_node(
                "ssd",
                FlavorSet::new(&[
                    Flavor { capacity: 64.0, count: 128 },
                    Flavor { capacity: 128.0, count: 128 },
                    Flavor { capacity: 256.0, count: 128 },
                ]),
                DemandSlot::SsdPerNode,
            ),
        ])
        .expect("three-tier flavoured test model is valid");
        [
            (PoolState::cpu_bb(512, 2_000.0), 0),
            (PoolState::from_model(&gpus), 1),
            (PoolState::with_ssd(128, 128, 2_000.0), 2),
            (PoolState::from_model(&tiers), 3),
        ]
    }

    /// Maps raw words onto a demand for machine shape `kind`: GPUs or SSD
    /// on a quarter (half, for two-tier SSD; three quarters, one per
    /// tier, for three-tier SSD) of the demands where the shape has them.
    fn shaped_demand(kind: u32, a: u16, b: u8, c: u8) -> JobDemand {
        let d = JobDemand::cpu_bb(1 + u32::from(a) % 300, f64::from(b % 4) * 150.0);
        match (kind, c % 4) {
            (1, 0) => d.with_extra(0, f64::from(c % 40)),
            (2, 0) | (3, 1) => JobDemand { ssd_gb_per_node: 64.0, ..d },
            (2, 1) | (3, 2) => JobDemand { ssd_gb_per_node: 240.0, ..d },
            (3, 0) => JobDemand { ssd_gb_per_node: 32.0, ..d },
            _ => d,
        }
    }

    /// Folds a profile at `now` over the running jobs `running` start on
    /// a fresh ledger of `pool` (those that fit), releasing at integer
    /// offsets after `now`. Also hands back the frozen [`LegacyProfile`]
    /// built from the same ledger's release schedule, an oracle that
    /// shares none of the column code.
    fn fold_running(
        pool: PoolState,
        kind: u32,
        running: &[(u16, u16)],
        now: f64,
    ) -> (AvailabilityProfile, LegacyProfile) {
        let mut ledger = AllocLedger::new(pool);
        for (i, &(a, b)) in running.iter().enumerate() {
            let d = shaped_demand(kind, a % 64, (b % 4) as u8, (b >> 8) as u8);
            if ledger.fits(&d) {
                ledger.start(i, d, now + 1.0 + f64::from(b % 2_000));
            }
        }
        let mut mirror = ReleaseMirror::new();
        let mut profile = AvailabilityProfile::default();
        mirror.sync(&ledger);
        mirror.fold_into(now, *ledger.pool(), &mut profile);
        let legacy = LegacyProfile::new(now, *ledger.pool(), ledger.release_schedule());
        (profile, legacy)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 256 })]

        /// The memo's bound is the exact dominance maximum over every
        /// answer noted in the pass, whatever order the answers arrive
        /// in (out of `t` order, ties, `+inf`) and whatever the memo
        /// drops as redundant; the rank it returns is the one noted with
        /// that answer.
        #[test]
        fn memo_bound_is_the_exact_dominated_maximum(
            ops in proptest::collection::vec(
                (proptest::prelude::any::<bool>(), 0u16..u16::MAX, 0u8..=255, 0u8..=255, 0u16..400),
                1..200),
        ) {
            let now = 1_000.0;
            // Each answer's rank, as a function of the answer alone.
            let rank_of = |t: f64| if t.is_finite() { (t - now) as usize } else { 1_000 };
            let mut memo = DominanceMemo::default();
            let mut noted = Vec::new();
            for (round, chunk) in ops.chunks(120).enumerate() {
                // A second round checks a cleared memo really forgets.
                memo.clear();
                noted.clear();
                for &(is_note, a, b, c, k) in chunk {
                    let d = memo_demand(a, b, c);
                    let dur = 1.0 + f64::from(k % 8) * 600.0;
                    if is_note {
                        let t = if k % 13 == 0 { f64::INFINITY } else { now + f64::from(k / 8) };
                        memo.note(&d, dur, t, rank_of(t));
                        noted.push((d, dur, t));
                    } else {
                        let (got, rank) = memo.bound(&d, dur, now);
                        let want = brute_bound(&noted, &d, dur, now);
                        proptest::prop_assert_eq!(
                            got.to_bits(), want.to_bits(),
                            "round {} bound {} != brute force {}", round, got, want
                        );
                        proptest::prop_assert_eq!(rank, rank_of(got));
                    }
                }
            }
        }

        /// Starting a query at its memo bound gives the bit-identical
        /// answer of a walk from `now`, on pooled (R = 2, R = 3) and
        /// flavoured (two- and three-tier) profiles under the pass's own
        /// carve sequence.
        #[test]
        fn memo_bound_start_equals_full_walk(
            running in proptest::collection::vec((0u16..u16::MAX, 0u16..u16::MAX), 0..60),
            cands in proptest::collection::vec((0u16..u16::MAX, 0u8..=255, 0u8..=255, 0u16..900), 1..80),
        ) {
            for (pool, kind) in profile_systems() {
                let now = 50.0;
                let (mut profile, _) = fold_running(pool, kind, &running, now);
                let mut memo = DominanceMemo::default();
                for &(a, b, c, k) in &cands {
                    let d = shaped_demand(kind, a, b, c);
                    let dur = 1.0 + f64::from(k);
                    let full = profile.earliest_start(&d, now, dur);
                    let (from, _) = memo.bound(&d, dur, now);
                    let t = if from.is_finite() {
                        profile.earliest_start(&d, from, dur)
                    } else {
                        from
                    };
                    proptest::prop_assert_eq!(
                        t.to_bits(), full.to_bits(),
                        "system {}: from {} gave {}, full walk {}", kind, from, t, full
                    );
                    if t > from.max(now + TIME_EPS) {
                        memo.note(&d, dur, t, profile.boundary_rank(t));
                    }
                    if t.is_finite() {
                        profile.reserve(&d, t, dur);
                    }
                }
            }
        }

        /// The planner's rank-carrying candidate step — slot query from a
        /// carried rank, carve at the slot's ranks, memo ranks shifted
        /// past split-in boundaries — answers bit for bit like the linear
        /// walk and leaves the profile exactly where `earliest_start` +
        /// `reserve` leave a clone (boundaries, states, watermark) and
        /// where `LegacyProfile::reserve` leaves the frozen oracle
        /// (boundaries, states), with every carried memo rank current
        /// after every carve. Queries start at `now`, at the memo's
        /// bound, or at any noted answer; a non-boundary `from` takes
        /// `reserve_earliest`, whose answer at `from` itself goes through
        /// the wrapper's start split.
        #[test]
        fn rank_carrying_step_equals_query_then_reserve(
            running in proptest::collection::vec((0u16..u16::MAX, 0u16..u16::MAX), 0..60),
            cands in proptest::collection::vec(
                (0u16..u16::MAX, 0u8..=255, 0u8..=255, 0u16..900, 0u8..=255), 1..80),
        ) {
            for (pool, kind) in profile_systems() {
                let now = 50.0;
                let (mut profile, mut legacy) = fold_running(pool, kind, &running, now);
                let mut twin = profile.clone();
                let mut memo = DominanceMemo::default();
                for &(a, b, c, k, mode) in &cands {
                    let d = shaped_demand(kind, a, b, c);
                    let dur = 1.0 + f64::from(k);
                    if mode % 4 == 3 {
                        // Every boundary is `now` plus whole seconds, so
                        // this `from` lies strictly inside a segment.
                        let from = now + 0.5 + f64::from(mode);
                        let want = twin.earliest_start_linear(&d, from, dur);
                        let t = profile.reserve_earliest(&d, from, dur);
                        proptest::prop_assert_eq!(t.to_bits(), want.to_bits());
                        if want.is_finite() {
                            twin.reserve(&d, want, dur);
                            legacy.reserve(&d, want, dur);
                        }
                        // The start split moved ranks the memo cannot
                        // follow; a pass never queries off a boundary.
                        memo.clear();
                    } else {
                        let (from, rank) = match mode % 4 {
                            0 => memo.bound(&d, dur, now),
                            1 => (now, 0),
                            _ if memo.entries.is_empty() => (now, 0),
                            _ => {
                                let j = usize::from(mode) % memo.entries.len();
                                (memo.entries[j].t, memo.ranks[j] as usize)
                            }
                        };
                        if !from.is_finite() {
                            continue;
                        }
                        let want = twin.earliest_start_linear(&d, from, dur);
                        let th = profile.thresholds(&d);
                        let (t, lo, hi) = profile.earliest_slot(&th, from, rank + 1, dur);
                        proptest::prop_assert_eq!(
                            t.to_bits(), want.to_bits(),
                            "system {}: slot from {} gave {}, linear walk {}", kind, from, t, want
                        );
                        if t.is_finite() {
                            if profile.carve(&th, lo, hi, t + dur) {
                                memo.shift_ranks(hi);
                            }
                            twin.reserve(&d, t, dur);
                            legacy.reserve(&d, t, dur);
                        }
                        if t > from.max(now + TIME_EPS) {
                            memo.note(&d, dur, t, lo);
                        }
                    }
                    proptest::prop_assert_eq!(profile.times(), twin.times());
                    proptest::prop_assert_eq!(profile.states(), twin.states());
                    proptest::prop_assert_eq!(profile.skyline_clean_from, twin.skyline_clean_from);
                    proptest::prop_assert_eq!(
                        profile.times(), legacy.times(), "system {}: boundaries vs LegacyProfile", kind
                    );
                    proptest::prop_assert_eq!(
                        profile.states(), legacy.states(), "system {}: states vs LegacyProfile", kind
                    );
                    for (e, &r) in memo.entries.iter().zip(&memo.ranks) {
                        proptest::prop_assert_eq!(r as usize, profile.times().partition_point(|x| *x < e.t));
                    }
                }
            }
        }
    }

    #[test]
    fn nonneg_bits_follow_carves_folds_and_restore() {
        let mut p = AvailabilityProfile::new(
            0.0,
            PoolState::cpu_bb(8, 100.0),
            vec![release(10.0, 4, 50.0)],
        );
        let binding = |p: &AvailabilityProfile, d: &JobDemand| {
            let (bind, len) = p.binding(&p.thresholds(d).need);
            bind[..len].to_vec()
        };
        assert_eq!(p.nonneg, 0b11);
        assert_eq!(binding(&p, &d(2, 0.0)), [0], "burst-buffer-free: the node column alone");
        assert_eq!(binding(&p, &d(2, 5.0)), [0, 1]);
        // A burst-buffer-free carve skips that column; nothing goes
        // negative.
        p.reserve(&d(8, 0.0), 0.0, 5.0);
        assert_eq!(p.nonneg, 0b11);
        // Taking a fraction of `FIT_EPS` more than is free leaves a tiny
        // negative, and burst-buffer-free demands scan the column again.
        p.reserve(&d(0, 100.0 + FIT_EPS / 2.0), 5.0, 1.0);
        assert!(p.state_at(5.0).bb_gb() < 0.0);
        assert_eq!(p.nonneg, 0b01);
        assert_eq!(binding(&p, &d(2, 0.0)), [0, 1]);
        // Restore recomputes the bits from the values; a refold resets them.
        let restored = AvailabilityProfile::restore(p.snapshot()).unwrap();
        assert_eq!(restored.nonneg, 0b01);
        p.rebuild_from_sorted(0.0, PoolState::cpu_bb(8, 100.0), vec![release(10.0, 4, 50.0)]);
        assert_eq!(p.nonneg, 0b11);
    }

    #[test]
    fn queries_survive_reservation_splits() {
        // A reservation splits segments and raises the watermark; queries
        // must stay exact either way.
        let mut p = AvailabilityProfile::new(
            0.0,
            PoolState::cpu_bb(4, 100.0),
            vec![release(10.0, 4, 0.0), release(20.0, 2, 50.0)],
        );
        p.reserve(&d(6, 20.0), 10.0, 25.0);
        // [10, 35) holds 4+4-6=2 nodes until 20, then 4; after 35, 10.
        assert_eq!(p.state_at(12.0).nodes(), 2);
        assert_eq!(p.state_at(22.0).nodes(), 4);
        assert_eq!(p.state_at(40.0).nodes(), 10);
        assert_eq!(p.earliest_start(&d(5, 0.0), 0.0, 5.0), 35.0);
        assert_eq!(p.earliest_start(&d(10, 0.0), 0.0, 1.0), 35.0);
        assert!(!p.fits_interval(&d(4, 0.0), 0.0, 12.0));
        assert!(p.fits_interval(&d(2, 0.0), 0.0, 100.0));
    }
}
