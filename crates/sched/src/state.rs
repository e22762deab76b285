//! Explicit, versioned state for the scheduler-service core.
//!
//! Every stateful component behind [`crate::SchedCore`] exposes an owned
//! state type and a uniform extract/inject contract (`snapshot()` /
//! `restore(state)`): the queue ([`crate::queue::QueueState`]), the
//! allocation ledger ([`crate::alloc::LedgerState`], including the
//! delta-log generation and the release order), the backfill strategy
//! (conservative: [`crate::backfill::ConservativeState`] = release
//! mirror plus persistent availability profile and its watermark),
//! the starvation tracker, and any policy with cross-invocation state
//! ([`bbsched_policies::SelectionPolicy::snapshot_state`]).
//!
//! [`CoreSnapshot`] aggregates them all into one owned, serializable
//! value: the *complete* cross-invocation state of a core between two
//! invocations. [`crate::SchedCore::snapshot`] extracts it and
//! [`crate::SchedCore::restore`] rebuilds a core from it, under the same
//! or a different policy. The online replay driver's
//! [`crate::ReplaySnapshot`] wraps it; it is the one state a driver
//! resumes from (the daemon's recovery and its `set-policy` swap).
//!
//! ## Wire encoding and versioning
//!
//! [`CoreSnapshot::to_json`] / [`CoreSnapshot::from_json`] define the
//! wire encoding: one JSON object whose first field is
//! `schema_version`. The schema is append-only — adding a field bumps
//! [`CoreSnapshot::SCHEMA_VERSION`] and decoding rejects any other
//! version with [`SchedError::SnapshotVersion`] *before* attempting the
//! full decode, so a future snapshot fails with a version diagnosis, not
//! a confusing missing-field error. Any structurally invalid payload is a
//! typed [`SchedError::CorruptSnapshot`], never a panic.
//!
//! The schema is deliberately insulated from performance work: the
//! availability profile's column storage and the conservative strategy's
//! replay memo are acceleration state, rebuilt from the flat
//! representation on restore and never serialized.
//! [`crate::backfill::ConservativeState`] today captures exactly what it
//! captured when v1 was introduced — the raw release mirror, the flat
//! profile, and the `skyline_clean_from` watermark — which is why no
//! profile rework needed a schema bump and the v1 golden snapshot is
//! byte-unchanged. The watermark is wire state only: the suffix-minima
//! skyline index it once guarded is gone, and the profile keeps it
//! evolving exactly as that index did (reset by a fold, raised to each
//! reservation's end rank, shifted by split-in boundaries and origin
//! advances) so snapshots stay byte-identical. Resume requires
//! `schema_version: 1`; no migration path exists by policy (DESIGN.md
//! §12).
//!
//! ## What a snapshot does NOT capture
//!
//! * **Observers.** They are borrowed, driver-owned views of the event
//!   stream, not core state; [`crate::SchedCore::restore`] takes a fresh
//!   observer set. Drivers that need continuous metrics across a
//!   checkpoint merge per-segment recorder output (see the
//!   driver-equivalence tests).
//! * **Per-invocation scratch.** Selection buffers, the started bitset,
//!   and decision buffers are rebuilt from scratch each invocation;
//!   snapshots are only meaningful *between* invocations.

use crate::config::SchedConfig;
use crate::error::SchedError;
use crate::queue::QueueState;
use bbsched_core::problem::JobDemand;
use bbsched_workloads::Job;
use serde::{Deserialize, Serialize, Value};

/// The complete cross-invocation state of a [`crate::SchedCore`], as one
/// owned, serializable value (see the module docs for the contract).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CoreSnapshot {
    /// Wire-format version; see [`CoreSnapshot::SCHEMA_VERSION`].
    pub schema_version: u32,
    /// The core's full configuration (base scheduler, window and
    /// starvation bounds, backfill algorithm and scope, dynamic window).
    pub config: SchedConfig,
    /// Every job ever submitted, in dense submission-index order.
    pub jobs: Vec<Job>,
    /// The capacity-clamped demand of each job, aligned with `jobs`.
    pub demands: Vec<JobDemand>,
    /// The waiting queue: discipline and held order.
    pub queue: QueueState,
    /// The allocation ledger: bit-exact free pool, running set in release
    /// order, delta log and generation counters.
    pub ledger: crate::alloc::LedgerState,
    /// Backfill-strategy state, if the strategy carries any across
    /// invocations (conservative: mirror + profile + watermark;
    /// EASY: `None` — it replans from the ledger every pass).
    pub backfill: Option<Value>,
    /// Starvation-tracker entries as sorted `(job id, bypass count)`
    /// pairs.
    pub starvation: Vec<(u64, u32)>,
    /// Ids of finished jobs (dependency bookkeeping), sorted ascending.
    pub completed: Vec<u64>,
    /// Scheduling invocations run so far (empty-queue no-ops excluded).
    pub invocations: u64,
    /// The most recent invocation time fed to the core (0 before any).
    pub clock: f64,
    /// The selection policy the snapshot was taken under.
    pub policy: PolicySnapshot,
}

/// The policy identity and cross-invocation state recorded in a
/// [`CoreSnapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PolicySnapshot {
    /// [`bbsched_policies::SelectionPolicy::name`] of the policy in use.
    pub name: String,
    /// Its cross-invocation state, if it carries any (most policies are
    /// stateless per invocation and record `None`).
    pub state: Option<Value>,
}

impl CoreSnapshot {
    /// Current wire-format version. Bumped whenever the snapshot schema
    /// changes shape; [`CoreSnapshot::from_json`] rejects every other
    /// version with [`SchedError::SnapshotVersion`].
    pub const SCHEMA_VERSION: u32 = 1;

    /// Encodes the snapshot as one compact JSON object (the wire
    /// encoding; stable field order, shortest-round-trip floats).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshots always serialize")
    }

    /// Decodes a snapshot from its JSON wire encoding. The
    /// `schema_version` field is checked *first*, so a snapshot from a
    /// different schema fails with [`SchedError::SnapshotVersion`]; any
    /// other structural problem is [`SchedError::CorruptSnapshot`].
    pub fn from_json(text: &str) -> Result<Self, SchedError> {
        let value = serde_json::value_from_slice(text.as_bytes())
            .map_err(|e| SchedError::CorruptSnapshot(format!("invalid JSON: {e}")))?;
        let map = value
            .as_map()
            .ok_or_else(|| SchedError::CorruptSnapshot("snapshot must be a JSON object".into()))?;
        let version = map
            .iter()
            .find(|(k, _)| k == "schema_version")
            .map(|(_, v)| v)
            .ok_or_else(|| SchedError::CorruptSnapshot("missing `schema_version`".into()))?;
        let found = u32::from_value(version)
            .map_err(|e| SchedError::CorruptSnapshot(format!("schema_version: {e}")))?;
        if found != Self::SCHEMA_VERSION {
            return Err(SchedError::SnapshotVersion { found, expected: Self::SCHEMA_VERSION });
        }
        Self::from_value(&value).map_err(|e| SchedError::CorruptSnapshot(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_is_checked_before_shape() {
        // A payload that is *only* a wrong version — no other fields —
        // must fail with the version diagnosis, not a missing-field error.
        let err = CoreSnapshot::from_json(r#"{"schema_version":99}"#).unwrap_err();
        assert!(matches!(err, SchedError::SnapshotVersion { found: 99, expected: 1 }), "got {err}");
    }

    #[test]
    fn garbage_is_a_typed_corrupt_snapshot() {
        for text in ["not json", "[]", "{}", r#"{"schema_version":"one"}"#] {
            let err = CoreSnapshot::from_json(text).unwrap_err();
            assert!(matches!(err, SchedError::CorruptSnapshot(_)), "{text}: got {err}");
        }
    }
}
