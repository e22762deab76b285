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
//! This crate is a *driver* of the scheduler-service core in
//! `bbsched-sched`: the six-phase scheduling invocation, the queue, the
//! allocation ledger, backfilling, and the observer callbacks all live
//! there, behind the snapshot-in/decisions-out
//! [`bbsched_sched::SchedCore`] API. What remains here is the
//! discrete-event machinery, all in [`simulator`]: configuration,
//! trace-intake demand clamping, and the [`Simulator`] whose event loop
//! merges the trace's arrivals with a completion-event heap and turns
//! [`bbsched_sched::Decision::Start`]s into future completions.
//!
//! The crate re-exports only the types its own signatures name
//! ([`SimConfig`]'s field types and [`SimResult`]); everything else —
//! observers ([`bbsched_sched::SchedObserver`]), errors
//! ([`bbsched_sched::SchedError`]), records, the profile machinery —
//! comes from `bbsched_sched`. The second driver of the same core, the
//! online streaming replayer behind `bbsched serve`, lives in
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

pub mod simulator;

pub use simulator::{SimConfig, Simulator};

// The types `SimConfig`'s fields and `Simulator`'s results name.
pub use bbsched_sched::{
    BackfillAlgorithm, BackfillScope, BaseScheduler, DynamicWindow, SimResult,
};
