//! # bbsched-sched
//!
//! The **driver-agnostic scheduler-service core** of the BBSched
//! reproduction: the six-phase scheduling invocation (base-scheduler
//! priority order, window fill, §3.1 starvation bound, multi-resource
//! policy selection, backfilling, bookkeeping) as a standalone,
//! snapshot-in/decisions-out service — the paper's "plugin for production
//! batch schedulers" (§3), no longer welded into a simulator's clock
//! loop.
//!
//! [`SchedCore`] owns the waiting queue, the allocation ledger, the
//! backfill discipline, the window/starvation state, and the selection
//! policy. A *driver* owns time: it feeds [`SchedCore::submit`] and
//! [`SchedCore::job_finished`], calls [`SchedCore::invoke`] at each
//! event instant, and applies the returned [`Decision`]s. Two drivers
//! ship today:
//!
//! * the discrete-event simulator (`bbsched-sim`) — virtual time, a
//!   completion-event heap fed by start decisions;
//! * the online replay driver ([`replay`], surfaced as `bbsched serve`,
//!   also spelled `bbsched replay`) — real submission order from a
//!   newline-delimited JSON event stream.
//!
//! Both emit byte-identical decision streams for the same events, which
//! the driver-equivalence golden suites pin.
//!
//! ## Module map
//!
//! * [`service`] — [`SchedCore`], [`Decision`], the six-phase invocation;
//! * [`config`] — [`SchedConfig`], window sizing, backfill selection;
//! * [`queue`] — the waiting queue under the base scheduler's order
//!   (incrementally sorted for FCFS; for WFP, scored once per job and
//!   sorted at every invocation);
//! * [`alloc`] — the allocation ledger: pool accounting with conservation
//!   checks, the incrementally maintained release order, and a
//!   generation-numbered start/finish delta log;
//! * [`backfill`] — EASY and conservative backfilling (a closed choice:
//!   one [`BackfillAlgorithm`] variant each), plus the availability-profile
//!   machinery (DESIGN.md §10);
//! * [`legacy_profile`] — the frozen rebuild-per-pass availability
//!   profile, kept as the equivalence oracle;
//! * [`observer`] — the [`SchedObserver`] callbacks everything observable
//!   flows through; [`Recorder`] collects the classic [`SimResult`],
//!   [`DecisionLog`] the canonical decision stream;
//! * [`clamp`] — the capacity-clamping rule both drivers apply to
//!   submitted demands;
//! * [`replay`] — the online streaming driver;
//! * [`state`] — the explicit-state contract: [`CoreSnapshot`] and the
//!   versioned JSON wire encoding behind [`SchedCore::snapshot`] and
//!   [`SchedCore::restore`] (DESIGN.md §12);
//! * [`durability`] — the crash-safety layer: the [`Journal`]
//!   write-ahead log, rolling [`SnapshotStore`] checkpoints, and the
//!   binary snapshot encoding negotiated alongside JSON (DESIGN.md §13).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod backfill;
pub mod base_sched;
pub mod clamp;
pub mod config;
pub mod durability;
pub mod error;
pub mod idhash;
pub mod jobset;
pub mod legacy_profile;
pub mod observer;
pub mod queue;
pub mod record;
pub mod replay;
pub mod service;
pub mod state;

pub use alloc::{AllocLedger, LedgerDelta, LedgerState, RunningJob};
pub use backfill::{
    shadow_and_leftover, AvailabilityProfile, ConservativeState, MirrorState, ProfileState,
    ReleaseMirror,
};
pub use base_sched::BaseScheduler;
pub use clamp::clamp_demand;
pub use config::{BackfillAlgorithm, BackfillScope, DynamicWindow, SchedConfig};
pub use durability::{
    Encoding, Journal, JournalRecovery, LoadedSnapshot, SnapshotInfo, SnapshotStore,
};
pub use error::SchedError;
pub use jobset::JobSet;
pub use legacy_profile::LegacyProfile;
pub use observer::{DecisionLog, JobStart, Recorder, SchedObserver};
pub use queue::{QueueManager, QueueState};
pub use record::{JobRecord, SimResult, StartReason};
pub use replay::{JobEvent, ReplayError, ReplaySnapshot, ReplaySummary, Replayer};
pub use service::{Decision, SchedCore};
pub use state::{CoreSnapshot, PolicySnapshot};
