//! Typed errors for scheduler-core construction and event feeding.

use bbsched_workloads::SystemConfigError;

/// Everything that can go wrong configuring or feeding a
/// [`crate::SchedCore`] (both drivers report it as is).
#[derive(Clone, Debug, PartialEq)]
pub enum SchedError {
    /// The system configuration failed validation.
    System(SystemConfigError),
    /// The window configuration failed validation.
    InvalidWindow(String),
    /// The dynamic-window configuration failed validation (e.g. `min`
    /// exceeding `max`, which used to panic mid-simulation inside
    /// `clamp`).
    InvalidDynamicWindow(String),
    /// A job with this id was already submitted
    /// ([`crate::SchedCore::submit`] keys running state on the id).
    DuplicateJob(u64),
    /// [`crate::SchedCore::job_finished`] named a job that was never
    /// submitted or is not currently running.
    UnknownJob(u64),
    /// A snapshot failed validation while being restored: internally
    /// inconsistent state (a running job the ledger never saw, a mirror
    /// release for no running job, demands exceeding machine capacity, …).
    /// The message names the first inconsistency found.
    CorruptSnapshot(String),
    /// A snapshot was written by an incompatible wire-schema version.
    ///
    /// There is no migration path by policy: a snapshot is a
    /// continuation token consumed by a build with the same schema
    /// version (today, exactly v1), not an archival format. Regenerate
    /// the snapshot from its producer rather than patching it — see
    /// DESIGN.md §12 ("resume requires `schema_version: 1`").
    SnapshotVersion {
        /// Version found in the snapshot.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::System(e) => write!(f, "{e}"),
            SchedError::InvalidWindow(msg) => write!(f, "{msg}"),
            SchedError::InvalidDynamicWindow(msg) => write!(f, "invalid dynamic window: {msg}"),
            SchedError::DuplicateJob(id) => write!(f, "job {id} was already submitted"),
            SchedError::UnknownJob(id) => {
                write!(
                    f,
                    "job {id} is not running (never submitted, never started, or already finished)"
                )
            }
            SchedError::CorruptSnapshot(msg) => write!(f, "corrupt snapshot: {msg}"),
            SchedError::SnapshotVersion { found, expected } => {
                write!(f, "snapshot schema version {found} is not supported (expected {expected})")
            }
        }
    }
}

impl std::error::Error for SchedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchedError::System(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SystemConfigError> for SchedError {
    fn from(e: SystemConfigError) -> Self {
        SchedError::System(e)
    }
}
