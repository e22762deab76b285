//! # bbsched-sim
//!
//! A discrete-event HPC cluster simulator purpose-built for the BBSched
//! evaluation (§4): compute nodes, a shared burst buffer (optionally with a
//! persistently reserved share, as on Cori), heterogeneous local SSDs (§5),
//! priority-ordered waiting queues under **FCFS** (Cori/Slurm) or **WFP**
//! (Theta/Cobalt) base scheduling, window-based multi-resource job
//! selection through any [`bbsched_policies::SelectionPolicy`], the §3.1
//! starvation bound, and multi-resource **EASY backfilling** ("all the
//! methods use EASY backfilling to mitigate resource fragmentation",
//! §4.3).
//!
//! The simulator is trace-driven and fully deterministic: the same trace,
//! system, policy, and seed produce byte-identical results.
//!
//! ## Architecture
//!
//! Since the service-core extraction, this crate is a *driver* of the
//! scheduler-service core in `bbsched-sched`: the six-phase scheduling
//! invocation, the queue, the allocation ledger, the backfilling
//! strategies, and the observer callbacks all live there, behind the
//! snapshot-in/decisions-out [`bbsched_sched::SchedCore`] API. What
//! remains here is exactly the discrete-event machinery:
//!
//! * [`engine`] — the event loop: virtual time, the completion-event
//!   heap, and the translation of [`bbsched_sched::Decision::Start`]s
//!   into future completion events; consumes arrivals from any sorted
//!   iterator (traces can stream);
//! * [`simulator`] — configuration, trace-intake demand clamping, and the
//!   [`Simulator`] facade that wires a trace into the engine.
//!
//! Everything the core owns is re-exported here under its historical
//! name ([`SimObserver`] for [`bbsched_sched::SchedObserver`],
//! [`SimError`] for [`bbsched_sched::SchedError`], and the rest
//! unchanged), so existing simulator clients and the frozen golden
//! suites compile untouched. The second driver of the same core — the
//! online streaming replayer behind `cli replay` — lives in
//! [`bbsched_sched::replay`]; both drivers emit byte-identical decision
//! streams for the same events.
//!
//! ```
//! use bbsched_sim::{SimConfig, Simulator};
//! use bbsched_policies::PolicyKind;
//! use bbsched_workloads::{generate, GeneratorConfig, MachineProfile};
//!
//! let profile = MachineProfile::theta().scaled(0.05);
//! let trace = generate(&profile, &GeneratorConfig { n_jobs: 200, ..Default::default() });
//! let cfg = SimConfig::default();
//! let ga = bbsched_policies::GaParams { generations: 50, ..Default::default() };
//! let result = Simulator::new(&profile.system, &trace, cfg)
//!     .unwrap()
//!     .run(PolicyKind::BbSched.build(ga));
//! assert_eq!(result.records.len(), 200);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod simulator;

pub use engine::{Arrival, Engine, EngineSummary};
pub use simulator::{SimConfig, Simulator};

// The scheduling machinery moved to the service core; re-export it under
// the names this crate always had so simulator clients keep compiling.
pub use bbsched_sched::{
    clamp_demand, shadow_and_leftover, AllocLedger, AvailabilityProfile, BackfillAlgorithm,
    BackfillCtx, BackfillScope, BackfillStrategy, BaseScheduler, ConservativeBackfill, Decision,
    DecisionLog, DynamicWindow, EasyBackfill, JobRecord, JobSet, JobStart, LedgerDelta,
    LegacyProfile, QueueManager, Recorder, ReleaseMirror, RunningJob, SchedCore, SimResult,
    StartReason,
};

/// The core's observer trait under its historical simulator name.
pub use bbsched_sched::SchedObserver as SimObserver;

/// The core's error type under its historical simulator name.
pub use bbsched_sched::SchedError as SimError;
