//! The online replay driver: step a [`SchedCore`] through a stream of
//! job events.
//!
//! Where the discrete-event simulator *generates* completions from job
//! runtimes, this driver consumes them: a newline-delimited JSON stream
//! of submit/finish events (a production scheduler's feed, a recorded
//! log, or a file synthesized from a simulation) drives the same core,
//! one invocation per event instant. Feeding a simulation's own event
//! stream back through [`Replayer`] reproduces the simulator's decision
//! sequence byte for byte — the driver-equivalence suites prove it —
//! which is what makes the core an embeddable service rather than a
//! simulator internal.
//!
//! ## Event wire format
//!
//! One JSON object per line:
//!
//! ```json
//! {"type":"submit","job":{"id":0,"submit":0.0,"nodes":4,"runtime":100.0,"walltime":200.0,"bb_gb":0.0,"ssd_gb_per_node":0.0,"deps":[],"extra":[]}}
//! {"type":"finish","id":0,"time":100.0}
//! ```
//!
//! Events must be non-decreasing in time across *instants*; events
//! sharing an instant may arrive in any order (submits are applied
//! before finishes, then one invocation runs — exactly the simulator's
//! same-instant batch drain, so within-tick order never changes the
//! schedule). Demands are capacity-clamped on submission with the same
//! [`crate::clamp_demand`] rule the simulator applies to traces.
//!
//! Decisions flow out through the attached [`SchedObserver`]s (attach a
//! [`crate::DecisionLog`] to collect them, or a streaming observer to
//! print them as they happen).

use crate::clamp::clamp_demand;
use crate::config::SchedConfig;
use crate::error::SchedError;
use crate::observer::SchedObserver;
use crate::service::SchedCore;
use bbsched_policies::SelectionPolicy;
use bbsched_workloads::{Job, SystemConfig};
use serde::{Deserialize, Serialize, Value};

/// One job event on the replay wire.
#[derive(Clone, Debug, PartialEq)]
pub enum JobEvent {
    /// A job entered the system.
    Submit(Job),
    /// A running job completed.
    Finish {
        /// Id of the finishing job.
        id: u64,
        /// Completion time (s).
        time: f64,
    },
}

fn get<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(f) => Some(f),
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        _ => None,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match *v {
        Value::U64(n) => Some(n),
        Value::I64(n) if n >= 0 => Some(n as u64),
        _ => None,
    }
}

impl JobEvent {
    /// The event's instant (a submit's `job.submit`, a finish's `time`).
    pub fn time(&self) -> f64 {
        match self {
            JobEvent::Submit(job) => job.submit,
            JobEvent::Finish { time, .. } => *time,
        }
    }

    /// Parses one wire line (see the module docs for the format).
    pub fn parse(line: &str) -> Result<Self, String> {
        let v = serde_json::value_from_slice(line.as_bytes()).map_err(|e| e.to_string())?;
        Self::from_value(&v)
    }

    /// Reads an event out of an already-parsed wire line, for callers
    /// that inspect the [`Value`] first (the daemon's control lines) and
    /// must not parse the line twice.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let map = v.as_map().ok_or("event line is not a JSON object")?;
        let ty = get(map, "type")
            .and_then(Value::as_str)
            .ok_or("event is missing the string field `type`")?;
        match ty {
            "submit" => {
                let job_v = get(map, "job").ok_or("submit event is missing `job`")?;
                let job = Job::from_value(job_v).map_err(|e| format!("bad `job`: {e}"))?;
                Ok(JobEvent::Submit(job))
            }
            "finish" => {
                let id = get(map, "id")
                    .and_then(as_u64)
                    .ok_or("finish event is missing the integer field `id`")?;
                let time = get(map, "time")
                    .and_then(as_f64)
                    .ok_or("finish event is missing the number field `time`")?;
                Ok(JobEvent::Finish { id, time })
            }
            other => Err(format!("unknown event type `{other}` (expected submit|finish)")),
        }
    }

    /// Renders the event as one wire line (the exact encoding
    /// [`JobEvent::parse`] accepts; floats round-trip bit-exactly).
    pub fn to_json_line(&self) -> String {
        let map = match self {
            JobEvent::Submit(job) => vec![
                ("type".to_string(), Value::Str("submit".to_string())),
                ("job".to_string(), job.to_value()),
            ],
            JobEvent::Finish { id, time } => vec![
                ("type".to_string(), Value::Str("finish".to_string())),
                ("id".to_string(), Value::U64(*id)),
                ("time".to_string(), Value::F64(*time)),
            ],
        };
        serde_json::to_string(&crate::service::RawValue(Value::Map(map)))
            .expect("event maps always serialize")
    }
}

/// What can go wrong replaying an event stream.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplayError {
    /// The core rejected an event (duplicate submit, unknown finish, …).
    Sched(SchedError),
    /// An event's instant precedes an instant already replayed.
    TimeRegression {
        /// The offending event's time.
        time: f64,
        /// The instant the stream had already reached.
        reached: f64,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Sched(e) => write!(f, "{e}"),
            ReplayError::TimeRegression { time, reached } => {
                write!(f, "event at t={time} regresses behind already-replayed instant t={reached}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<SchedError> for ReplayError {
    fn from(e: SchedError) -> Self {
        ReplayError::Sched(e)
    }
}

/// End-of-stream accounting from [`Replayer::finish`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplaySummary {
    /// Jobs submitted.
    pub jobs: usize,
    /// Finish events applied.
    pub finishes: usize,
    /// Submitted jobs whose demand had to be capacity-clamped.
    pub clamped_jobs: usize,
    /// Scheduling invocations run (one per event instant with a
    /// non-empty queue).
    pub invocations: u64,
    /// Latest finish instant seen (0 when nothing finished).
    pub makespan: f64,
    /// Jobs still waiting in the queue when the stream ended.
    pub left_waiting: usize,
    /// Jobs still running when the stream ended.
    pub left_running: usize,
}

/// A checkpoint of a [`Replayer`] mid-stream: the core's complete
/// [`crate::CoreSnapshot`] plus the driver's own position in the event stream.
/// Serializes through the same versioned JSON conventions (the nested
/// core snapshot carries the schema version); the `cli serve` daemon
/// wraps one in each of its rolling snapshots and recovers from it in a
/// fresh process.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplaySnapshot {
    /// The scheduler core's complete cross-invocation state.
    pub core: crate::state::CoreSnapshot,
    /// The system whose capacities submits are clamped against.
    pub system: SystemConfig,
    /// Submits pending in the open same-instant batch.
    pub pending_submits: Vec<Job>,
    /// Finish ids pending in the open same-instant batch.
    pub pending_finishes: Vec<u64>,
    /// The open batch's instant (`None` when no batch is open).
    pub batch_time: Option<f64>,
    /// Latest flushed instant; `None` encodes "nothing flushed yet"
    /// (−∞ in the live driver, which JSON cannot carry as a number).
    pub last_flushed: Option<f64>,
    /// Latest finish instant seen.
    pub makespan: f64,
    /// Finish events applied.
    pub finishes: usize,
    /// Submitted jobs whose demand had to be capacity-clamped.
    pub clamped: usize,
    /// Events accepted by [`Replayer::feed`] when the checkpoint was
    /// taken: a resuming process skips exactly this many stream events.
    pub events_fed: u64,
}

/// The streaming step-driver: feed [`JobEvent`]s in time order, get
/// scheduling invocations at every instant.
///
/// Events sharing an instant are batched; the batch is applied (submits,
/// then finishes) followed by exactly one [`SchedCore::invoke`] when the
/// next instant begins — mirroring the simulator's same-instant batch
/// drain, so within-tick event order is immaterial.
pub struct Replayer<'o> {
    core: SchedCore<'o>,
    system: SystemConfig,
    /// Submits and finishes pending at `batch_time`, split so the flush
    /// applies submits first regardless of arrival interleaving.
    pending_submits: Vec<Job>,
    pending_finishes: Vec<u64>,
    batch_time: Option<f64>,
    /// The latest instant already flushed (−∞ before the first flush);
    /// later batches must not regress behind it.
    last_flushed: f64,
    makespan: f64,
    finishes: usize,
    clamped: usize,
    /// Events accepted by [`Replayer::feed`] so far. Recorded in
    /// checkpoints so a resuming process knows how many stream events to
    /// skip before continuing.
    events_fed: u64,
}

impl<'o> Replayer<'o> {
    /// A replayer over `system` with the given configuration, policy,
    /// and observers.
    pub fn new(
        system: &SystemConfig,
        cfg: SchedConfig,
        policy: Box<dyn SelectionPolicy>,
        observers: Vec<&'o mut dyn SchedObserver>,
    ) -> Result<Self, SchedError> {
        Ok(Self {
            core: SchedCore::new(system, cfg, policy, observers)?,
            system: system.clone(),
            pending_submits: Vec::new(),
            pending_finishes: Vec::new(),
            batch_time: None,
            last_flushed: f64::NEG_INFINITY,
            makespan: 0.0,
            finishes: 0,
            clamped: 0,
            events_fed: 0,
        })
    }

    /// Events accepted by [`Replayer::feed`] so far (see
    /// [`ReplaySnapshot::events_fed`]).
    pub fn events_fed(&self) -> u64 {
        self.events_fed
    }

    /// Extracts the replayer's complete state — the core's
    /// [`crate::CoreSnapshot`] plus the driver's own stream position: the
    /// pending same-instant batch, the flushed-instant watermark, and the
    /// running accounting. Valid at *any* event boundary, including
    /// mid-batch.
    pub fn snapshot(&self) -> ReplaySnapshot {
        ReplaySnapshot {
            core: self.core.snapshot(),
            system: self.system.clone(),
            pending_submits: self.pending_submits.clone(),
            pending_finishes: self.pending_finishes.clone(),
            batch_time: self.batch_time,
            last_flushed: if self.last_flushed.is_finite() {
                Some(self.last_flushed)
            } else {
                None
            },
            makespan: self.makespan,
            finishes: self.finishes,
            clamped: self.clamped,
            events_fed: self.events_fed,
        }
    }

    /// Rebuilds a replayer from a checkpoint — in a fresh process, with a
    /// fresh policy and observer set — and continues the event stream
    /// byte-identically to the uninterrupted run. The caller skips the
    /// first [`ReplaySnapshot::events_fed`] events of the stream and
    /// feeds the rest.
    pub fn restore(
        snapshot: ReplaySnapshot,
        policy: Box<dyn SelectionPolicy>,
        observers: Vec<&'o mut dyn SchedObserver>,
    ) -> Result<Self, SchedError> {
        snapshot.system.validate()?;
        if let Some(bt) = snapshot.batch_time {
            if !bt.is_finite() {
                return Err(SchedError::CorruptSnapshot(format!(
                    "non-finite pending batch time {bt}"
                )));
            }
        }
        if let Some(lf) = snapshot.last_flushed {
            if !lf.is_finite() {
                return Err(SchedError::CorruptSnapshot(format!(
                    "non-finite flushed-instant watermark {lf}"
                )));
            }
        }
        Ok(Self {
            core: SchedCore::restore(snapshot.core, policy, observers)?,
            system: snapshot.system,
            pending_submits: snapshot.pending_submits,
            pending_finishes: snapshot.pending_finishes,
            batch_time: snapshot.batch_time,
            last_flushed: snapshot.last_flushed.unwrap_or(f64::NEG_INFINITY),
            makespan: snapshot.makespan,
            finishes: snapshot.finishes,
            clamped: snapshot.clamped,
            events_fed: snapshot.events_fed,
        })
    }

    /// Feeds one event. Flushes the pending batch (running a scheduling
    /// invocation) whenever the event opens a later instant.
    pub fn feed(&mut self, event: JobEvent) -> Result<(), ReplayError> {
        let t = event.time();
        if !t.is_finite() {
            return Err(ReplayError::TimeRegression { time: t, reached: self.reached() });
        }
        match self.batch_time {
            Some(bt) if t == bt => {}
            Some(bt) if t > bt => self.flush()?,
            Some(bt) => return Err(ReplayError::TimeRegression { time: t, reached: bt }),
            None => {
                if t < self.reached() {
                    return Err(ReplayError::TimeRegression { time: t, reached: self.reached() });
                }
            }
        }
        self.batch_time = Some(t);
        match event {
            JobEvent::Submit(job) => self.pending_submits.push(job),
            JobEvent::Finish { id, .. } => self.pending_finishes.push(id),
        }
        self.events_fed += 1;
        Ok(())
    }

    /// Ends the stream: flushes the final batch, raises
    /// [`SchedObserver::on_sim_end`], and returns the accounting.
    pub fn finish(mut self) -> Result<ReplaySummary, ReplayError> {
        self.flush()?;
        self.core.end_of_stream(self.makespan);
        Ok(ReplaySummary {
            jobs: self.core.jobs_submitted(),
            finishes: self.finishes,
            clamped_jobs: self.clamped,
            invocations: self.core.invocations(),
            makespan: self.makespan,
            left_waiting: self.core.queue_len(),
            left_running: self.core.ledger().running_count(),
        })
    }

    /// The latest instant already replayed (−∞ before the first flush).
    fn reached(&self) -> f64 {
        self.last_flushed
    }

    /// Applies the pending batch and runs one scheduling invocation.
    fn flush(&mut self) -> Result<(), ReplayError> {
        let Some(now) = self.batch_time.take() else { return Ok(()) };
        for job in self.pending_submits.drain(..) {
            let (demand, was_clamped) = clamp_demand(&self.system, &job);
            if was_clamped {
                self.clamped += 1;
            }
            self.core.submit(job, demand)?;
        }
        for id in self.pending_finishes.drain(..) {
            self.core.job_finished(id, now)?;
            self.finishes += 1;
            self.makespan = self.makespan.max(now);
        }
        self.core.invoke(now);
        self.last_flushed = now;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::DecisionLog;
    use bbsched_policies::{GaParams, PolicyKind};

    fn system() -> SystemConfig {
        SystemConfig {
            name: "t".into(),
            nodes: 8,
            bb_gb: 1_000.0,
            bb_reserved_gb: 0.0,
            nodes_128: 0,
            nodes_256: 0,
            extra_resources: Vec::new(),
        }
    }

    fn events() -> Vec<JobEvent> {
        let mut ev = Vec::new();
        for i in 0..6u64 {
            ev.push(JobEvent::Submit(Job::new(
                i,
                i as f64,
                2 + (i % 3) as u32 * 2,
                30.0 + i as f64,
                60.0 + 2.0 * i as f64,
            )));
        }
        ev.push(JobEvent::Finish { id: 0, time: 35.0 });
        ev.push(JobEvent::Finish { id: 1, time: 36.0 });
        ev.push(JobEvent::Submit(Job::new(10, 36.0, 4, 20.0, 40.0)));
        ev.push(JobEvent::Finish { id: 3, time: 40.0 });
        ev
    }

    fn policy() -> Box<dyn bbsched_policies::SelectionPolicy> {
        PolicyKind::Baseline.build(GaParams::default())
    }

    /// Checkpoint at *every* event boundary: the split run's concatenated
    /// decision stream must equal the uninterrupted run's, byte for byte.
    #[test]
    fn checkpoint_resume_is_byte_identical_at_every_boundary() {
        let sys = system();
        let stream = events();
        let mut full_log = DecisionLog::new();
        {
            let mut r =
                Replayer::new(&sys, SchedConfig::default(), policy(), vec![&mut full_log]).unwrap();
            for e in &stream {
                r.feed(e.clone()).unwrap();
            }
            r.finish().unwrap();
        }
        let full = full_log.lines().to_vec();

        for cut in 0..=stream.len() {
            let mut head_log = DecisionLog::new();
            let mut r =
                Replayer::new(&sys, SchedConfig::default(), policy(), vec![&mut head_log]).unwrap();
            for e in &stream[..cut] {
                r.feed(e.clone()).unwrap();
            }
            let wire = serde_json::to_string(&r.snapshot()).unwrap();
            drop(r);

            let snap: ReplaySnapshot = serde_json::from_str(&wire).unwrap();
            assert_eq!(snap.events_fed, cut as u64);
            let mut tail_log = DecisionLog::new();
            let mut r = Replayer::restore(snap, policy(), vec![&mut tail_log]).unwrap();
            for e in &stream[cut..] {
                r.feed(e.clone()).unwrap();
            }
            let summary = r.finish().unwrap();
            assert_eq!(summary.jobs, 7);

            let mut joined = head_log.into_lines();
            joined.extend(tail_log.into_lines());
            assert_eq!(joined, full, "decision stream diverged at checkpoint boundary {cut}");
        }
    }

    #[test]
    fn snapshot_is_a_fixed_point_of_restore() {
        let sys = system();
        let mut r = Replayer::new(&sys, SchedConfig::default(), policy(), Vec::new()).unwrap();
        for e in events().into_iter().take(7) {
            r.feed(e).unwrap();
        }
        let snap = r.snapshot();
        let restored = Replayer::restore(snap.clone(), policy(), Vec::new()).unwrap();
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.events_fed(), 7);
    }
}
