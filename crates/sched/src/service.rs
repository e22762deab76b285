//! The scheduler-service core: snapshot-in, decisions-out.
//!
//! BBSched is a *plugin* for production batch schedulers (§3: it sits on
//! top of Slurm/Cobalt and is handed the queue at every scheduling
//! invocation). [`SchedCore`] is that plugin as a standalone service: it
//! owns the waiting queue ([`crate::QueueManager`]), the allocation
//! ledger ([`crate::AllocLedger`]), the backfill discipline, the
//! window/starvation state, and the selection policy, and exposes a
//! narrow imperative API —
//!
//! * [`SchedCore::submit`] — a job (with its capacity-clamped demand)
//!   enters the queue;
//! * [`SchedCore::job_finished`] — a running job's resources return;
//! * [`SchedCore::invoke`] — run one scheduling invocation at `now` and
//!   return the [`Decision`]s it made.
//!
//! The core never advances time and never decides *when* to be invoked —
//! that is the driver's job. The discrete-event simulator
//! (`bbsched-sim`) is the first driver: it owns virtual time and the
//! completion-event heap, feeds arrivals/finishes in, and applies start
//! decisions by scheduling completion events. The online replay driver
//! ([`crate::replay`]) is the second: it steps through a newline-delimited
//! event stream in real submission order. Both produce byte-identical
//! decision streams for the same event sequence — proven by the
//! driver-equivalence golden suite.
//!
//! Every invocation runs the six phases the monolithic engine used to
//! inline:
//!
//! 1. the base scheduler establishes queue priority order (§2.1);
//! 2. the window (§3.1) is filled with the highest-priority jobs whose
//!    dependencies are complete;
//! 3. jobs past the starvation bound are force-started (or, if they no
//!    longer fit, become the reservation head so nothing delays them);
//! 4. the multi-resource selection policy picks window jobs to start;
//! 5. the backfill pass starts any remaining candidate that fits now
//!    without delaying the reservation head, using *walltime estimates*
//!    exactly like a production scheduler;
//! 6. starvation bookkeeping and queue cleanup.

use crate::alloc::AllocLedger;
use crate::backfill::{easy_pass, BackfillCtx, ConservativeBackfill};
use crate::config::{BackfillAlgorithm, BackfillScope, SchedConfig};
use crate::error::SchedError;
use crate::idhash::BuildIdHasher;
use crate::jobset::JobSet;
use crate::observer::{JobStart, SchedObserver};
use crate::record::StartReason;
use crate::state::{CoreSnapshot, PolicySnapshot};
use bbsched_core::problem::JobDemand;
use bbsched_core::window::{fill_window, StarvationTracker};
use bbsched_policies::SelectionPolicy;
use bbsched_workloads::{Job, SystemConfig};
use serde::Value;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// One scheduling decision, as returned by [`SchedCore::invoke`].
///
/// This is the core's entire output vocabulary. `Start` is binding — the
/// ledger has already allocated and the driver must consider the job
/// running until it reports [`SchedCore::job_finished`]. `Reserve` is
/// advisory planning state (the EASY shadow reservation, or a
/// conservative-backfill reservation): it tells the driver *why* a job
/// did not start, and where the backfill pass currently plans it; the
/// next invocation recomputes reservations from scratch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Decision {
    /// Job `id` starts now.
    Start {
        /// Dense submission index of the job (per [`SchedCore::submit`]).
        idx: usize,
        /// Trace/job id.
        id: u64,
        /// Which phase started the job.
        reason: StartReason,
        /// Walltime-estimated completion (`now + walltime`) — the time
        /// the ledger will hold the resources for planning purposes.
        est_end: f64,
    },
    /// Job `id` could not start; the backfill pass reserved capacity
    /// for it at time `at`.
    Reserve {
        /// Dense submission index of the job.
        idx: usize,
        /// Trace/job id.
        id: u64,
        /// Reservation time on the availability profile (EASY: the
        /// shadow time).
        at: f64,
    },
}

impl Decision {
    /// Renders the decision as one canonical JSON line (no trailing
    /// newline), stamped with the invocation time `now`. Every driver
    /// emits this exact encoding, which is what makes decision streams
    /// byte-comparable across drivers. A wrapper around
    /// [`Decision::write_json_line`]; streaming callers use that one
    /// with a reused buffer.
    pub fn json_line(&self, now: f64) -> String {
        let mut line = String::with_capacity(96);
        self.write_json_line(now, &mut line);
        line
    }

    /// Appends the canonical JSON line (no trailing newline) to `out`:
    /// the fields in wire order, ids as `u64` text, floats through
    /// [`serde_json::write_f64`] (non-finite → `null`, integral with
    /// |f| < 1e15 → one decimal, otherwise shortest round-trip).
    pub fn write_json_line(&self, now: f64, out: &mut String) {
        out.push_str("{\"t\":");
        serde_json::write_f64(out, now);
        match *self {
            Decision::Start { id, reason, est_end, .. } => {
                let _ = write!(
                    out,
                    ",\"decision\":\"start\",\"job\":{id},\"reason\":\"{}\",\"est_end\":",
                    reason.label()
                );
                serde_json::write_f64(out, est_end);
            }
            Decision::Reserve { id, at, .. } => {
                let _ = write!(out, ",\"decision\":\"reserve\",\"job\":{id},\"at\":");
                serde_json::write_f64(out, at);
            }
        }
        out.push('}');
    }
}

/// Adapter rendering an already-built [`Value`] tree through
/// `serde_json` (whose entry points take `impl Serialize`, which the
/// vendored `Value` itself does not implement).
pub(crate) struct RawValue(pub(crate) Value);

impl serde::Serialize for RawValue {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Per-invocation scratch buffers, owned by the core and reused across
/// invocations so the hot loop allocates nothing once capacities warm up.
#[derive(Default)]
struct Scratch {
    window_idx: Vec<usize>,
    window_ids: Vec<u64>,
    remaining: Vec<usize>,
    sel_demands: Vec<JobDemand>,
    waiting: Vec<usize>,
    started_ids: Vec<u64>,
}

/// Mutable state shared between the core and the backfill phase: the
/// job/demand tables, the allocation ledger, the observer set, and the
/// decision buffer. Split out so [`BackfillCtx`] can borrow it while the
/// invocation keeps hold of the queue and tracker.
pub(crate) struct CoreState<'o> {
    pub(crate) jobs: Vec<Job>,
    pub(crate) demands: Vec<JobDemand>,
    pub(crate) ledger: AllocLedger,
    pub(crate) observers: Vec<&'o mut dyn SchedObserver>,
    /// Jobs started during the current invocation (bitset: probed inside
    /// the queue-cleanup and backfill loops, cleared per invocation).
    pub(crate) started: JobSet,
    /// Backfill starts the pass credited this invocation (see
    /// `BackfillCtx::start`).
    pub(crate) backfill_credit: usize,
    /// Decisions of the current invocation, in the order they were made.
    pub(crate) decisions: Vec<Decision>,
    /// Invocation time, valid while an invocation is running (decision
    /// callbacks stamp it).
    pub(crate) now: f64,
}

impl CoreState<'_> {
    fn notify(&mut self, mut f: impl FnMut(&mut dyn SchedObserver)) {
        for o in self.observers.iter_mut() {
            f(*o);
        }
    }

    /// Allocates, records the start decision, and notifies observers.
    /// The single funnel every phase starts jobs through.
    pub(crate) fn start_job(&mut self, idx: usize, now: f64, reason: StartReason) {
        let job = &self.jobs[idx];
        let demand = self.demands[idx];
        let est_end = now + job.walltime;
        let assignment = self.ledger.start(idx, demand, est_end);
        let wasted_ssd_gb = self.ledger.pool().wasted_capacity_gb(&demand, &assignment);
        let decision = Decision::Start { idx, id: self.jobs[idx].id, reason, est_end };
        self.decisions.push(decision);
        let start = JobStart {
            now,
            job: &self.jobs[idx],
            demand,
            assignment,
            wasted_ssd_gb,
            est_end,
            reason,
        };
        for o in self.observers.iter_mut() {
            o.on_job_started(&start);
            o.on_decision(now, &decision);
        }
        self.started.insert(idx);
    }

    /// Records a reservation decision (see [`Decision::Reserve`]).
    pub(crate) fn note_reservation(&mut self, idx: usize, at: f64) {
        let decision = Decision::Reserve { idx, id: self.jobs[idx].id, at };
        self.decisions.push(decision);
        let now = self.now;
        self.notify(|o| o.on_decision(now, &decision));
    }
}

/// The configured backfilling discipline, with the state it carries
/// across invocations: one variant per [`BackfillAlgorithm`].
enum Backfill {
    /// EASY: stateless, replans from the ledger every pass.
    Easy,
    /// Conservative: release mirror, persistent profile and pass memo
    /// (boxed: the core holds exactly one).
    Conservative(Box<ConservativeBackfill>),
}

impl Backfill {
    fn new(algorithm: BackfillAlgorithm) -> Self {
        match algorithm {
            BackfillAlgorithm::Easy => Backfill::Easy,
            BackfillAlgorithm::Conservative => Backfill::Conservative(Box::default()),
        }
    }
}

/// The driver-agnostic scheduler-service core. Construct with
/// [`SchedCore::new`], feed with [`SchedCore::submit`] and
/// [`SchedCore::job_finished`], and run scheduling invocations with
/// [`SchedCore::invoke`].
pub struct SchedCore<'o> {
    cfg: SchedConfig,
    policy: Box<dyn SelectionPolicy>,
    state: CoreState<'o>,
    queue: crate::queue::QueueManager,
    backfill: Backfill,
    completed_ids: HashSet<u64, BuildIdHasher>,
    id_to_idx: HashMap<u64, usize, BuildIdHasher>,
    tracker: StarvationTracker,
    invocations: u64,
    scratch: Scratch,
}

impl<'o> SchedCore<'o> {
    /// A core scheduling `system`'s resources under `cfg` and `policy`,
    /// with the given observers attached. Fails on an invalid system or
    /// configuration.
    pub fn new(
        system: &SystemConfig,
        cfg: SchedConfig,
        policy: Box<dyn SelectionPolicy>,
        observers: Vec<&'o mut dyn SchedObserver>,
    ) -> Result<Self, SchedError> {
        system.validate()?;
        cfg.validate()?;
        let queue = crate::queue::QueueManager::new(cfg.base);
        let backfill = Backfill::new(cfg.backfill_algorithm);
        Ok(Self {
            state: CoreState {
                jobs: Vec::new(),
                demands: Vec::new(),
                ledger: AllocLedger::new(system.pool_state()),
                observers,
                started: JobSet::new(),
                backfill_credit: 0,
                decisions: Vec::new(),
                now: 0.0,
            },
            cfg,
            policy,
            queue,
            backfill,
            completed_ids: HashSet::default(),
            id_to_idx: HashMap::default(),
            tracker: StarvationTracker::new(),
            invocations: 0,
            scratch: Scratch::default(),
        })
    }

    /// Submits a job with its capacity-clamped `demand` (see
    /// [`crate::clamp_demand`]); it joins the waiting queue and becomes a
    /// candidate at the next invocation. Returns the job's dense
    /// submission index. Duplicate ids are rejected — the id is the
    /// handle [`SchedCore::job_finished`] keys on.
    ///
    /// Submission order need not follow submit *times*: the FCFS queue
    /// inserts by `(submit, id)` and WFP re-scores per invocation, so
    /// events arriving out of order within one invocation tick land in
    /// the same queue order.
    pub fn submit(&mut self, job: Job, demand: JobDemand) -> Result<usize, SchedError> {
        let idx = self.state.jobs.len();
        if self.id_to_idx.insert(job.id, idx).is_some() {
            return Err(SchedError::DuplicateJob(job.id));
        }
        self.state.jobs.push(job);
        self.state.demands.push(demand);
        self.queue.push(idx, &self.state.jobs);
        Ok(idx)
    }

    /// Reports that job `id` finished at `now`: its allocation returns to
    /// the pool and its dependents become window-eligible. Fails on an id
    /// that was never submitted or is not currently running.
    pub fn job_finished(&mut self, id: u64, now: f64) -> Result<(), SchedError> {
        let &idx = self.id_to_idx.get(&id).ok_or(SchedError::UnknownJob(id))?;
        if self.state.ledger.get(idx).is_none() {
            return Err(SchedError::UnknownJob(id));
        }
        let entry = self.state.ledger.finish(idx);
        self.completed_ids.insert(id);
        for o in self.state.observers.iter_mut() {
            o.on_job_finished(now, &self.state.jobs[idx], &entry.demand);
        }
        Ok(())
    }

    /// Runs one scheduling invocation at time `now` and returns the
    /// decisions it made, in order. An invocation with an empty queue is
    /// a no-op (it is not counted and raises no callbacks), so drivers
    /// may invoke unconditionally after every batch of events.
    ///
    /// Invocation times must not regress: the starvation bookkeeping and
    /// conservative backfilling's profile assume monotonically
    /// non-decreasing `now` across calls.
    pub fn invoke(&mut self, now: f64) -> &[Decision] {
        self.state.decisions.clear();
        if self.queue.is_empty() {
            return &self.state.decisions;
        }
        self.invocations += 1;
        self.state.now = now;

        let invocation = self.invocations;
        let queue_len = self.queue.len();
        self.state.notify(|o| o.on_invocation_begin(now, invocation, queue_len));
        let mut scratch = std::mem::take(&mut self.scratch);

        // --- (1) base-scheduler priority order ---
        self.queue.order(&self.state.jobs, now);

        // --- (2) fill the window with dependency-satisfied jobs ---
        let window_size =
            self.cfg.dynamic_window.map(|d| d.size_for(queue_len)).unwrap_or(self.cfg.window.size);
        scratch.window_idx.clear();
        scratch.window_ids.clear();
        // One past the window's last queue position.
        let window_end;
        {
            let jobs = &self.state.jobs;
            let queue = self.queue.as_slice();
            let completed = &self.completed_ids;
            let deps_met =
                |qpos: usize| jobs[queue[qpos]].deps.iter().all(|d| completed.contains(d));
            let window_qpos = fill_window(queue_len, window_size, deps_met);
            window_end = window_qpos.last().map_or(0, |&q| q + 1);
            scratch.window_idx.extend(window_qpos.iter().map(|&q| queue[q]));
            scratch.window_ids.extend(scratch.window_idx.iter().map(|&i| jobs[i].id));
        }
        {
            let window_ids = &scratch.window_ids;
            self.state.notify(|o| o.on_window_built(now, window_ids));
        }

        self.state.started.clear();

        // --- (3) starvation bound (§3.1) ---
        // Jobs past the bound start immediately when they fit. A starved
        // job that does not fit becomes the reservation head: optimization
        // continues, but only inside the slack that cannot delay it.
        let mut blocked_head: Option<usize> = None;
        for &idx in &scratch.window_idx {
            if self.tracker.is_starved(self.state.jobs[idx].id, self.cfg.window.starvation_bound) {
                if self.state.ledger.fits(&self.state.demands[idx]) {
                    self.state.start_job(idx, now, StartReason::Starvation);
                } else {
                    blocked_head = Some(idx);
                    break;
                }
            }
        }

        // --- (4) multi-resource selection from the window ---
        // With a starved reservation head, the policy sees only the
        // component-wise minimum of "free now" and "left over at the
        // head's shadow time" — any selection within that bound cannot
        // delay the head.
        let policy_avail = match blocked_head {
            None => *self.state.ledger.pool(),
            Some(b) => {
                let (_, leftover) = crate::backfill::shadow_and_leftover(
                    &self.state.ledger,
                    &self.state.demands[b],
                    now,
                );
                self.state.ledger.pool().component_min(&leftover)
            }
        };
        scratch.remaining.clear();
        {
            let started = &self.state.started;
            scratch.remaining.extend(
                scratch
                    .window_idx
                    .iter()
                    .copied()
                    .filter(|i| !started.contains(*i) && Some(*i) != blocked_head),
            );
        }
        if !scratch.remaining.is_empty() {
            scratch.sel_demands.clear();
            scratch.sel_demands.extend(scratch.remaining.iter().map(|&i| self.state.demands[i]));
            let selection = self.policy.select(&scratch.sel_demands, &policy_avail, invocation);
            debug_assert!(
                bbsched_policies::selection_is_feasible(
                    &scratch.sel_demands,
                    &policy_avail,
                    &selection
                ),
                "policy {} returned an infeasible selection",
                self.policy.name()
            );
            for &s in &selection {
                self.state.start_job(scratch.remaining[s], now, StartReason::Policy);
            }
        }

        // --- (5) backfilling under the configured discipline ---
        scratch.waiting.clear();
        match self.cfg.backfill {
            BackfillScope::Window => {
                let started = &self.state.started;
                scratch
                    .waiting
                    .extend(scratch.window_idx.iter().copied().filter(|i| !started.contains(*i)));
            }
            BackfillScope::Queue => {
                let started = &self.state.started;
                let jobs = &self.state.jobs;
                let completed = &self.completed_ids;
                scratch.waiting.extend(self.queue.as_slice().iter().copied().filter(|i| {
                    !started.contains(*i) && jobs[*i].deps.iter().all(|d| completed.contains(d))
                }));
            }
        }
        self.state.backfill_credit = 0;
        let mut ctx = BackfillCtx {
            now,
            waiting: &scratch.waiting,
            blocked_head,
            max_scan: self.cfg.max_backfill_scan,
            core: &mut self.state,
        };
        let algorithm = match &mut self.backfill {
            Backfill::Easy => {
                easy_pass(&mut ctx);
                "EASY"
            }
            Backfill::Conservative(c) => {
                c.pass(&mut ctx);
                "conservative"
            }
        };
        let credited = self.state.backfill_credit;
        self.state.notify(|o| o.on_backfill_pass(now, algorithm, credited));

        // --- (6) starvation bookkeeping & queue cleanup ---
        // A pass only counts against the bound when the job was
        // *bypassed*: some other job started while it sat in the window.
        // Idle invocations (nothing startable) are not bypasses — counting
        // them would make the bound fire on event frequency rather than on
        // actual priority inversion.
        if !self.state.started.is_empty() {
            scratch.started_ids.clear();
            {
                let started = &self.state.started;
                let jobs = &self.state.jobs;
                scratch.started_ids.extend(
                    scratch
                        .window_idx
                        .iter()
                        .filter(|i| started.contains(**i))
                        .map(|&i| jobs[i].id),
                );
            }
            self.tracker.observe(&scratch.window_ids, &scratch.started_ids);
            for i in self.state.started.iter() {
                self.tracker.forget(self.state.jobs[i].id);
            }
        }
        // Under window scope every start came from the window, so only the
        // queue up to its last position needs compacting.
        let within = match self.cfg.backfill {
            BackfillScope::Window => window_end,
            BackfillScope::Queue => queue_len,
        };
        self.queue.remove_started(&self.state.started, within);
        let started_count = self.state.started.len();
        self.state.notify(|o| o.on_invocation_end(now, started_count));
        self.scratch = scratch;
        &self.state.decisions
    }

    /// Signals the end of the event stream: raises
    /// [`SchedObserver::on_sim_end`] with the final makespan. The core
    /// remains usable (a driver may keep feeding events), but a finished
    /// run should call this exactly once.
    pub fn end_of_stream(&mut self, makespan: f64) {
        let invocations = self.invocations;
        self.state.notify(|o| o.on_sim_end(makespan, invocations));
    }

    /// The job at dense submission index `idx`.
    pub fn job(&self, idx: usize) -> &Job {
        &self.state.jobs[idx]
    }

    /// The capacity-clamped demand of job `idx`.
    pub fn demand(&self, idx: usize) -> JobDemand {
        self.state.demands[idx]
    }

    /// Jobs submitted so far.
    pub fn jobs_submitted(&self) -> usize {
        self.state.jobs.len()
    }

    /// Jobs currently waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Scheduling invocations run so far (empty-queue no-ops excluded).
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Read access to the allocation ledger (free state, running set,
    /// conservation checks).
    pub fn ledger(&self) -> &AllocLedger {
        &self.state.ledger
    }

    /// Name of the selection policy the core runs.
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// Asserts every allocation was freed (see
    /// [`AllocLedger::assert_drained`]). Drivers that run a stream to
    /// completion call this at the end; an online driver with jobs still
    /// running must not.
    pub fn assert_drained(&self) {
        self.state.ledger.assert_drained();
    }

    /// Extracts the core's complete cross-invocation state as one owned
    /// [`CoreSnapshot`] (see [`crate::state`] for the contract and for
    /// what a snapshot deliberately does *not* capture). Only meaningful
    /// *between* invocations — never call it from an observer callback.
    pub fn snapshot(&self) -> CoreSnapshot {
        let mut completed: Vec<u64> = self.completed_ids.iter().copied().collect();
        completed.sort_unstable();
        CoreSnapshot {
            schema_version: CoreSnapshot::SCHEMA_VERSION,
            config: self.cfg.clone(),
            jobs: self.state.jobs.clone(),
            demands: self.state.demands.clone(),
            queue: self.queue.snapshot(),
            ledger: self.state.ledger.snapshot(),
            backfill: match &self.backfill {
                Backfill::Easy => None,
                Backfill::Conservative(c) => Some(c.snapshot()),
            },
            starvation: self.tracker.entries(),
            completed,
            invocations: self.invocations,
            clock: self.state.now,
            policy: PolicySnapshot {
                name: self.policy.name().to_string(),
                state: self.policy.snapshot_state(),
            },
        }
    }

    /// Rebuilds a core from an extracted [`CoreSnapshot`], continuing
    /// byte-identically where the snapshotted core left off.
    ///
    /// The policy and observers are supplied fresh: observers are
    /// driver-owned borrows a snapshot cannot capture, and the policy is
    /// a trait object the caller rebuilds (or *replaces* — restoring
    /// under a different policy is how `serve`'s `set-policy` swaps
    /// policy). Policy state recorded in the snapshot is injected only
    /// when the supplied policy has the same name; a same-name policy
    /// that rejects the state makes the snapshot
    /// [`SchedError::CorruptSnapshot`].
    ///
    /// Every structural invariant of the snapshot is validated up front —
    /// schema version, config, id uniqueness, queue/ledger consistency —
    /// so a corrupt snapshot is a typed error, never a later panic.
    pub fn restore(
        snapshot: CoreSnapshot,
        policy: Box<dyn SelectionPolicy>,
        observers: Vec<&'o mut dyn SchedObserver>,
    ) -> Result<Self, SchedError> {
        if snapshot.schema_version != CoreSnapshot::SCHEMA_VERSION {
            return Err(SchedError::SnapshotVersion {
                found: snapshot.schema_version,
                expected: CoreSnapshot::SCHEMA_VERSION,
            });
        }
        snapshot.config.validate()?;
        if snapshot.jobs.len() != snapshot.demands.len() {
            return Err(SchedError::CorruptSnapshot(format!(
                "{} jobs but {} demands",
                snapshot.jobs.len(),
                snapshot.demands.len()
            )));
        }
        let mut id_to_idx: HashMap<u64, usize, BuildIdHasher> = HashMap::default();
        for (idx, job) in snapshot.jobs.iter().enumerate() {
            if id_to_idx.insert(job.id, idx).is_some() {
                return Err(SchedError::CorruptSnapshot(format!("duplicate job id {}", job.id)));
            }
        }
        if snapshot.queue.base != snapshot.config.base {
            return Err(SchedError::CorruptSnapshot(format!(
                "queue discipline {:?} disagrees with configured base {:?}",
                snapshot.queue.base, snapshot.config.base
            )));
        }
        let ledger = AllocLedger::restore(snapshot.ledger)?;
        for (idx, _) in ledger.release_order() {
            if idx >= snapshot.jobs.len() {
                return Err(SchedError::CorruptSnapshot(format!(
                    "running job index {idx} out of range ({} jobs)",
                    snapshot.jobs.len()
                )));
            }
        }
        for &idx in &snapshot.queue.queue {
            if idx >= snapshot.jobs.len() {
                return Err(SchedError::CorruptSnapshot(format!(
                    "queued job index {idx} out of range ({} jobs)",
                    snapshot.jobs.len()
                )));
            }
            if ledger.get(idx).is_some() {
                return Err(SchedError::CorruptSnapshot(format!(
                    "queued job index {idx} is also running"
                )));
            }
        }
        let backfill = match (snapshot.config.backfill_algorithm, snapshot.backfill) {
            (algorithm, None) => Backfill::new(algorithm),
            (BackfillAlgorithm::Easy, Some(_)) => {
                return Err(SchedError::CorruptSnapshot(
                    "backfill algorithm `EASY` carries no cross-invocation state".into(),
                ))
            }
            (BackfillAlgorithm::Conservative, Some(state)) => {
                Backfill::Conservative(Box::new(ConservativeBackfill::restore(state, &ledger)?))
            }
        };
        let mut policy = policy;
        if let Some(state) = &snapshot.policy.state {
            if policy.name() == snapshot.policy.name {
                policy.restore_state(state).map_err(SchedError::CorruptSnapshot)?;
            }
        }
        Ok(Self {
            state: CoreState {
                jobs: snapshot.jobs,
                demands: snapshot.demands,
                ledger,
                observers,
                started: JobSet::new(),
                backfill_credit: 0,
                decisions: Vec::new(),
                now: snapshot.clock,
            },
            cfg: snapshot.config,
            policy,
            queue: crate::queue::QueueManager::restore(snapshot.queue),
            backfill,
            completed_ids: snapshot.completed.iter().copied().collect(),
            id_to_idx,
            tracker: StarvationTracker::from_entries(&snapshot.starvation),
            invocations: snapshot.invocations,
            scratch: Scratch::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsched_policies::{GaParams, PolicyKind};

    fn system(nodes: u32) -> SystemConfig {
        SystemConfig {
            name: "t".into(),
            nodes,
            bb_gb: 1_000.0,
            bb_reserved_gb: 0.0,
            nodes_128: 0,
            nodes_256: 0,
            extra_resources: Vec::new(),
        }
    }

    fn core(nodes: u32) -> SchedCore<'static> {
        SchedCore::new(
            &system(nodes),
            SchedConfig::default(),
            PolicyKind::Baseline.build(GaParams::default()),
            Vec::new(),
        )
        .unwrap()
    }

    fn job(id: u64, submit: f64, nodes: u32, runtime: f64) -> (Job, JobDemand) {
        (Job::new(id, submit, nodes, runtime, runtime * 2.0), JobDemand::cpu_bb(nodes, 0.0))
    }

    #[test]
    fn empty_queue_invocation_is_a_silent_noop() {
        let mut c = core(4);
        assert!(c.invoke(0.0).is_empty());
        assert_eq!(c.invocations(), 0, "empty invocations are not counted");
    }

    #[test]
    fn submit_invoke_finish_lifecycle() {
        let mut c = core(4);
        let (j, d) = job(7, 0.0, 2, 10.0);
        c.submit(j, d).unwrap();
        let decisions = c.invoke(0.0).to_vec();
        assert_eq!(decisions.len(), 1);
        match decisions[0] {
            Decision::Start { id, reason, est_end, .. } => {
                assert_eq!(id, 7);
                assert_eq!(reason, StartReason::Policy, "Baseline selects the fitting head");
                assert_eq!(est_end, 20.0);
            }
            other => panic!("expected a start, got {other:?}"),
        }
        assert_eq!(c.queue_len(), 0);
        c.job_finished(7, 10.0).unwrap();
        c.assert_drained();
    }

    #[test]
    fn duplicate_and_unknown_ids_are_typed_errors() {
        let mut c = core(4);
        let (j, d) = job(1, 0.0, 1, 5.0);
        c.submit(j.clone(), d).unwrap();
        assert!(matches!(c.submit(j, d), Err(SchedError::DuplicateJob(1))));
        assert!(matches!(c.job_finished(99, 1.0), Err(SchedError::UnknownJob(99))));
        // Submitted but not started → also not running.
        assert!(matches!(c.job_finished(1, 1.0), Err(SchedError::UnknownJob(1))));
    }

    #[test]
    fn blocked_head_produces_a_reserve_decision() {
        let mut c = core(4);
        let (a, da) = job(0, 0.0, 4, 100.0);
        let (b, db) = job(1, 0.0, 4, 10.0);
        c.submit(a, da).unwrap();
        c.submit(b, db).unwrap();
        let decisions = c.invoke(0.0).to_vec();
        // Job 0 starts; job 1 cannot and becomes the EASY shadow head.
        assert!(decisions.iter().any(|d| matches!(d, Decision::Start { id: 0, .. })));
        let reserve = decisions
            .iter()
            .find_map(|d| match d {
                Decision::Reserve { id, at, .. } => Some((*id, *at)),
                _ => None,
            })
            .expect("blocked head must yield a reservation");
        assert_eq!(reserve.0, 1);
        assert_eq!(reserve.1, 200.0, "shadow at job 0's walltime estimate");
    }

    #[test]
    fn decision_json_lines_are_canonical() {
        let start = Decision::Start { idx: 0, id: 3, reason: StartReason::Policy, est_end: 52.5 };
        assert_eq!(
            start.json_line(2.0),
            r#"{"t":2.0,"decision":"start","job":3,"reason":"policy","est_end":52.5}"#
        );
        let reserve = Decision::Reserve { idx: 1, id: 4, at: 100.0 };
        assert_eq!(reserve.json_line(2.5), r#"{"t":2.5,"decision":"reserve","job":4,"at":100.0}"#);
    }

    /// The decision line as the `Value`-map construction rendered it
    /// before [`Decision::write_json_line`]: the byte-identity oracle.
    fn json_line_via_value(d: &Decision, now: f64) -> String {
        let map = match *d {
            Decision::Start { id, reason, est_end, .. } => vec![
                ("t".to_string(), Value::F64(now)),
                ("decision".to_string(), Value::Str("start".to_string())),
                ("job".to_string(), Value::U64(id)),
                ("reason".to_string(), Value::Str(reason.label().to_string())),
                ("est_end".to_string(), Value::F64(est_end)),
            ],
            Decision::Reserve { id, at, .. } => vec![
                ("t".to_string(), Value::F64(now)),
                ("decision".to_string(), Value::Str("reserve".to_string())),
                ("job".to_string(), Value::U64(id)),
                ("at".to_string(), Value::F64(at)),
            ],
        };
        serde_json::to_string(&RawValue(Value::Map(map))).unwrap()
    }

    /// Floats around every branch of the float rule: integral values
    /// below and above 1e15, negatives, ±0, subnormals, `f64::MAX`,
    /// non-finite values, and arbitrary bit patterns.
    fn wire_float(kind: u8, bits: u64) -> f64 {
        const EDGES: [f64; 16] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            5e-324,
            1e15,
            -1e15,
            999_999_999_999_999.0,
            1e15 + 2.0,
            9_007_199_254_740_993.0,
            1e300,
            -0.5,
        ];
        match kind % 7 {
            0 => EDGES[bits as usize % EDGES.len()],
            1 => f64::from_bits(bits),
            2 => f64::from_bits(bits & 0x800f_ffff_ffff_ffff), // ±subnormal
            3 => 1e15 + (bits % 64) as f64 - 32.0,
            4 => (bits as i64) as f64,
            5 => (bits % 2_000_000) as f64 - 1e6,
            _ => (bits % 1_000_000_000) as f64 / 1024.0 - 1e5,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(4000))]

        #[test]
        fn write_json_line_matches_the_value_rendering(
            kinds in (0u8..7, 0u8..7, 0u8..3),
            bits in (proptest::arbitrary::any::<u64>(), proptest::arbitrary::any::<u64>()),
            id in proptest::arbitrary::any::<u64>(),
            reason in 0usize..3,
            reserve in proptest::arbitrary::any::<bool>(),
        ) {
            let now = wire_float(kinds.0, bits.0);
            let at = wire_float(kinds.1, bits.1);
            let id = [0, u64::MAX, id][kinds.2 as usize];
            let reason = [StartReason::Policy, StartReason::Backfill, StartReason::Starvation][reason];
            let d = if reserve {
                Decision::Reserve { idx: 0, id, at }
            } else {
                Decision::Start { idx: 0, id, reason, est_end: at }
            };
            let oracle = json_line_via_value(&d, now);
            proptest::prop_assert_eq!(d.json_line(now), oracle.clone());
            // Appending keeps what the buffer already holds.
            let mut buf = String::from("prefix\n");
            d.write_json_line(now, &mut buf);
            proptest::prop_assert_eq!(buf, format!("prefix\n{oracle}"));
        }
    }

    #[test]
    fn snapshot_restore_continues_byte_identically() {
        for algorithm in
            [crate::config::BackfillAlgorithm::Easy, crate::config::BackfillAlgorithm::Conservative]
        {
            let cfg = SchedConfig { backfill_algorithm: algorithm, ..SchedConfig::default() };
            let mut c = SchedCore::new(
                &system(8),
                cfg,
                PolicyKind::Baseline.build(GaParams::default()),
                Vec::new(),
            )
            .unwrap();
            for i in 0..6u64 {
                let (j, d) = job(i, i as f64, 2 + (i % 3) as u32 * 2, 30.0 + i as f64);
                c.submit(j, d).unwrap();
            }
            let first = c.invoke(5.0).to_vec();
            let started: Vec<u64> = first
                .iter()
                .filter_map(|d| match d {
                    Decision::Start { id, .. } => Some(*id),
                    _ => None,
                })
                .collect();
            assert!(!started.is_empty());

            let snap = c.snapshot();
            let wire = snap.to_json();
            let decoded = crate::state::CoreSnapshot::from_json(&wire).unwrap();
            assert_eq!(decoded, snap, "wire encoding round-trips");
            let mut r = SchedCore::restore(
                decoded,
                PolicyKind::Baseline.build(GaParams::default()),
                Vec::new(),
            )
            .unwrap();
            assert_eq!(r.snapshot(), snap, "restore is a fixed point of snapshot");

            // Identical event feed → byte-identical decision streams.
            for (k, &id) in started.iter().enumerate() {
                let t = 40.0 + k as f64;
                c.job_finished(id, t).unwrap();
                r.job_finished(id, t).unwrap();
                let a: Vec<String> = c.invoke(t).iter().map(|d| d.json_line(t)).collect();
                let b: Vec<String> = r.invoke(t).iter().map(|d| d.json_line(t)).collect();
                assert_eq!(a, b, "{algorithm:?} diverged after restore");
            }
            assert_eq!(c.snapshot(), r.snapshot(), "{algorithm:?} end states diverged");
        }
    }

    #[test]
    fn fork_under_a_different_policy_starts_fresh() {
        let mut c = core(8);
        for i in 0..4u64 {
            let (j, d) = job(i, 0.0, 4, 20.0);
            c.submit(j, d).unwrap();
        }
        c.invoke(0.0);
        // What-if branch: same state, a different policy. Policy state
        // from the snapshot (none here, but names differ anyway) is not
        // injected into the replacement.
        let f = SchedCore::restore(
            c.snapshot(),
            PolicyKind::BbSched.build(GaParams::default()),
            Vec::new(),
        )
        .expect("restore under a different policy");
        assert_eq!(f.policy_name(), "BBSched");
        assert_eq!(f.invocations(), c.invocations());
        assert_eq!(f.queue_len(), c.queue_len());
    }

    /// The value at `path` in nested maps of a decoded JSON tree.
    fn map_field<'v>(mut v: &'v mut Value, path: &[&str]) -> &'v mut Value {
        for key in path {
            let Value::Map(map) = v else { panic!("`{key}`'s parent is not a map") };
            v = &mut map.iter_mut().find(|(k, _)| k == key).expect("field present").1;
        }
        v
    }

    #[test]
    fn corrupt_snapshots_fail_restore_with_typed_errors() {
        let mut c = core(4);
        let (a, da) = job(0, 0.0, 3, 50.0);
        let (b, db) = job(1, 0.0, 3, 10.0); // blocked behind job 0
        c.submit(a, da).unwrap();
        c.submit(b, db).unwrap();
        c.invoke(0.0);
        let good = c.snapshot();
        let build = || PolicyKind::Baseline.build(GaParams::default());

        let mut bad = good.clone();
        bad.schema_version = 2;
        assert!(matches!(
            SchedCore::restore(bad, build(), Vec::new()),
            Err(SchedError::SnapshotVersion { found: 2, expected: 1 })
        ));

        let mut bad = good.clone();
        bad.queue.queue = vec![7]; // out of range
        assert!(matches!(
            SchedCore::restore(bad, build(), Vec::new()),
            Err(SchedError::CorruptSnapshot(_))
        ));

        let mut bad = good.clone();
        bad.queue.base = crate::base_sched::BaseScheduler::Wfp; // disagrees with config
        assert!(matches!(
            SchedCore::restore(bad, build(), Vec::new()),
            Err(SchedError::CorruptSnapshot(_))
        ));

        let mut bad = good.clone();
        bad.demands.pop(); // jobs/demands misaligned
        assert!(matches!(
            SchedCore::restore(bad, build(), Vec::new()),
            Err(SchedError::CorruptSnapshot(_))
        ));

        // A conservative core with two running jobs (est_end 20 and 100)
        // and one blocked: its mirror holds two releases.
        let cfg = SchedConfig {
            backfill_algorithm: crate::config::BackfillAlgorithm::Conservative,
            ..SchedConfig::default()
        };
        let mut cons = SchedCore::new(&system(4), cfg, build(), Vec::new()).unwrap();
        for (j, d) in [job(0, 0.0, 2, 50.0), job(1, 0.0, 2, 10.0), job(2, 0.0, 3, 5.0)] {
            cons.submit(j, d).unwrap();
        }
        cons.invoke(0.0);
        let cons_snap = cons.snapshot();

        // An EASY snapshot carrying backfill state: EASY keeps none.
        let mut bad = good.clone();
        bad.backfill = cons_snap.backfill.clone();
        assert!(bad.backfill.is_some());
        assert!(matches!(
            SchedCore::restore(bad, build(), Vec::new()),
            Err(SchedError::CorruptSnapshot(_))
        ));

        // Malformed conservative state on the wire, decoded and restored:
        // mirror releases out of order, and a mirror of the wrong shape.
        let corrupt_backfill = |edit: &dyn Fn(&mut Value)| {
            let mut value = serde_json::value_from_slice(cons_snap.to_json().as_bytes()).unwrap();
            edit(&mut value);
            let text = serde_json::to_string(&RawValue(value)).unwrap();
            CoreSnapshot::from_json(&text)
                .and_then(|snap| SchedCore::restore(snap, build(), Vec::new()).map(|_| ()))
        };
        let reverse_releases = |v: &mut Value| {
            let Value::Seq(releases) = map_field(v, &["backfill", "mirror", "releases"]) else {
                panic!("mirror releases are a sequence")
            };
            assert_eq!(releases.len(), 2);
            releases.reverse();
        };
        let garble_mirror = |v: &mut Value| *map_field(v, &["backfill", "mirror"]) = Value::U64(7);
        assert!(matches!(corrupt_backfill(&reverse_releases), Err(SchedError::CorruptSnapshot(_))));
        assert!(matches!(corrupt_backfill(&garble_mirror), Err(SchedError::CorruptSnapshot(_))));
        assert!(corrupt_backfill(&|_| ()).is_ok(), "the unedited wire round trip restores");

        // The untouched snapshot still restores.
        assert!(SchedCore::restore(good, build(), Vec::new()).is_ok());
    }

    #[test]
    fn out_of_order_submits_within_a_tick_are_equivalent() {
        // Same three jobs, submitted in different orders before a single
        // invocation: identical decision streams on the wire (the dense
        // submission `idx` legitimately differs with submission order and
        // is deliberately absent from the canonical encoding).
        let jobs = [job(0, 0.0, 2, 10.0), job(1, 1.0, 2, 20.0), job(2, 2.0, 2, 30.0)];
        let run = |order: [usize; 3]| {
            let mut c = core(4);
            for &i in &order {
                let (j, d) = jobs[i].clone();
                c.submit(j, d).unwrap();
            }
            c.invoke(2.0).iter().map(|d| d.json_line(2.0)).collect::<Vec<_>>()
        };
        let a = run([0, 1, 2]);
        let b = run([2, 0, 1]);
        assert_eq!(a, b);
    }
}
