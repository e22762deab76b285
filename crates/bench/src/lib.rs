//! # bbsched-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! DESIGN.md §5 for the index) plus `bench_sim`, the timing harness that
//! writes `BENCH_sim.json`.
//!
//! All figure binaries share the grid driver in [`experiments`], which
//! simulates `machine × workload × policy` cells and caches results on disk
//! so that Figs. 6, 7, 8, 12, and 13 — different views of the same grid —
//! only pay for the simulations once.
//!
//! ## Scale
//!
//! The paper's traces hold 70 K – 2.6 M jobs on machines with thousands of
//! nodes; the harness defaults to scaled-down replicas (5 % machine size,
//! 5 000 jobs, the paper's `G = 500`) that preserve every
//! demand-to-capacity ratio and finish the full grid in tens of minutes.
//! Environment variables change the scale:
//!
//! | Variable | Default | Meaning |
//! |---|---|---|
//! | `BBSCHED_JOBS` | 5000 | jobs per trace |
//! | `BBSCHED_SCALE` | 0.05 | machine scale factor |
//! | `BBSCHED_GENS` | 500 | GA generations per invocation |
//! | `BBSCHED_SEED` | 7 | master seed |
//! | `BBSCHED_LOAD` | 1.15 | offered load target |
//! | `BBSCHED_WINDOW` | 20 | scheduling window size |
//! | `BBSCHED_CACHE` | `target/bbsched_cache` | result cache directory |
//! | `BBSCHED_THREADS` | 1 | worker threads for grid sweeps (whole cells) |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod figures;
pub mod report;

pub use experiments::{cell_result, cell_summary, Machine, Scale};
pub use report::Table;
