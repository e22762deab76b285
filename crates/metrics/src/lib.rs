//! # bbsched-metrics
//!
//! The evaluation metrics of §4.2, computed from simulator job records:
//!
//! * **Node usage** — used node-hours over elapsed node-hours;
//! * **Burst buffer usage** — used burst-buffer-hours over elapsed
//!   burst-buffer-hours;
//! * **Job wait time** — submission to start;
//! * **Job slowdown** — response time over runtime, with abnormal
//!   (very short) jobs filtered as in the paper;
//!
//! plus the §5 additions (local-SSD utilization and wasted SSD), the
//! breakdown tables behind Figs. 9–11, and the Kiviat normalization of
//! Figs. 13–14.
//!
//! Following §4.2, measurements trim a warm-up and cool-down period: "the
//! 1st half month data is used to 'warm up' the system and the last half
//! month data is used to 'cool down'". [`MeasurementWindow`] expresses the
//! same idea as submit-time quantiles so it works at any trace scale.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod breakdown;
pub mod kiviat;
pub mod live;
pub mod stats;
pub mod summary;
pub mod usage;

pub use breakdown::{bins_from_edges, breakdown_by, Bin};
pub use kiviat::{kiviat_area, normalize_axes, safe_reciprocal};
pub use live::{LiveStatsLines, LiveSummary, LiveTally, StatsLine};
pub use stats::{jains_fairness, percentile, DistributionStats};
pub use summary::{MeasurementWindow, MethodSummary, ResourceSummary};
pub use usage::{resource_usage, UsageKind};
