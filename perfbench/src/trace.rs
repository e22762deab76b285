//! Probes that time the calls into each scheduler layer from outside the
//! program, and the in-memory span log they write into.
//!
//! Untraced runs attach only a [`Probe`]: two clock reads per scheduling
//! invocation (the decision-latency samples), a few integer counters and
//! a running hash of the decision stream. Traced runs also share a
//! [`Tracer`] between the probe and a [`TimedPolicy`] wrapped around the
//! selection policy, and every layer boundary becomes a [`Span`].

use bbsched_core::pools::PoolState;
use bbsched_core::problem::JobDemand;
use bbsched_policies::SelectionPolicy;
use bbsched_sched::{Decision, JobStart, SchedObserver, StartReason};
use bbsched_workloads::Job;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Parent id of a span that has no parent.
const ROOT: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans recorded in memory; written out once the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Where the backfill phase of the current invocation starts: the
    /// later of "window built" and "policy returned".
    mark_ns: u64,
    /// Window jobs offered to the policy, and how many it started.
    pub select_offered: u64,
    pub select_picked: u64,
}

/// A tracer shared by the observer and the policy wrapper (the policy
/// trait requires `Send`).
pub type SharedTracer = Arc<Mutex<Tracer>>;

pub fn lock(tracer: &SharedTracer) -> MutexGuard<'_, Tracer> {
    tracer.lock().expect("tracer mutex poisoned by a panicking probe")
}

impl Tracer {
    pub fn shared() -> SharedTracer {
        Arc::new(Mutex::new(Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            mark_ns: 0,
            select_offered: 0,
            select_picked: 0,
        }))
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 4G spans");
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let now = self.now_ns();
        self.spans.push(Span { name, parent, start_ns: now, end_ns: now });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records an already finished span under the innermost open span.
    fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        self.spans.push(Span { name, parent, start_ns, end_ns });
    }

    /// Writes every span as `id,parent,name,start_ns,end_ns` (parent
    /// `-1` for roots).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,name,start_ns,end_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            writeln!(out, "{id},{parent},{},{},{}", s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }

    /// Per-name totals: call count, busy time, self time (busy minus
    /// the time covered by child spans) and the sorted durations.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut layers: BTreeMap<&'static str, LayerStats> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let l = layers.entry(s.name).or_default();
            l.busy_ns += s.dur_ns();
            l.self_ns += s.dur_ns().saturating_sub(child);
            l.durations_ns.push(s.dur_ns());
        }
        for l in layers.values_mut() {
            l.durations_ns.sort_unstable();
        }
        layers
    }
}

/// What [`Tracer::layers`] reports for one span name.
#[derive(Clone, Debug, Default)]
pub struct LayerStats {
    pub busy_ns: u64,
    pub self_ns: u64,
    /// Durations of every call, ascending.
    pub durations_ns: Vec<u64>,
}

impl LayerStats {
    pub fn count(&self) -> usize {
        self.durations_ns.len()
    }

    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }

    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }

    /// Nearest-rank percentile of the call durations, in microseconds.
    pub fn pct_us(&self, p: f64) -> f64 {
        percentile_ns(&self.durations_ns, p) * 1e-3
    }
}

/// Nearest-rank percentile of ascending nanosecond samples (0 when empty).
pub fn percentile_ns(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Deterministic per-run counters; identical on every replay of a seed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub invocations: u64,
    pub queue_depth_sum: u64,
    pub window_len_sum: u64,
    pub backfill_passes: u64,
    pub backfill_credited: u64,
    pub reserves: u64,
    pub starts: u64,
    pub starvation_starts: u64,
    pub finished: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.invocations += o.invocations;
        self.queue_depth_sum += o.queue_depth_sum;
        self.window_len_sum += o.window_len_sum;
        self.backfill_passes += o.backfill_passes;
        self.backfill_credited += o.backfill_credited;
        self.reserves += o.reserves;
        self.starts += o.starts;
        self.starvation_starts += o.starvation_starts;
        self.finished += o.finished;
    }
}

/// The observer every replay attaches.
pub struct Probe {
    begin: Instant,
    /// Duration of every scheduling invocation, in nanoseconds.
    pub invoke_ns: Vec<u64>,
    /// Running hash of the decision stream (instant, kind, job, time).
    pub hash: u64,
    pub counters: Counters,
    tracer: Option<SharedTracer>,
    invoke_span: u32,
    queue_span: u32,
}

const HASH_MUL: u64 = 0x0000_0100_0000_01b3;

fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(HASH_MUL).rotate_left(29)
}

impl Probe {
    pub fn new(tracer: Option<SharedTracer>) -> Self {
        Self {
            begin: Instant::now(),
            invoke_ns: Vec::new(),
            hash: 0xcbf2_9ce4_8422_2325,
            counters: Counters::default(),
            tracer,
            invoke_span: ROOT,
            queue_span: ROOT,
        }
    }
}

impl SchedObserver for Probe {
    fn on_invocation_begin(&mut self, _now: f64, _invocation: u64, queue_len: usize) {
        self.counters.invocations += 1;
        self.counters.queue_depth_sum += queue_len as u64;
        if let Some(t) = &self.tracer {
            let mut t = lock(t);
            self.invoke_span = t.open("sched.service/invoke");
            self.queue_span = t.open("sched.queue/order");
        }
        self.begin = Instant::now();
    }

    fn on_window_built(&mut self, _now: f64, window_ids: &[u64]) {
        self.counters.window_len_sum += window_ids.len() as u64;
        if let Some(t) = &self.tracer {
            let mut t = lock(t);
            t.close(self.queue_span);
            t.mark_ns = t.now_ns();
        }
    }

    fn on_job_started(&mut self, start: &JobStart<'_>) {
        if start.reason == StartReason::Starvation {
            self.counters.starvation_starts += 1;
        }
    }

    fn on_decision(&mut self, now: f64, decision: &Decision) {
        let words = match *decision {
            Decision::Start { id, reason, est_end, .. } => {
                self.counters.starts += 1;
                [1 + reason as u64, id, est_end.to_bits()]
            }
            Decision::Reserve { id, at, .. } => {
                self.counters.reserves += 1;
                [0, id, at.to_bits()]
            }
        };
        let mut h = mix(self.hash, now.to_bits());
        for w in words {
            h = mix(h, w);
        }
        self.hash = h;
    }

    fn on_job_finished(&mut self, _now: f64, _job: &Job, _demand: &JobDemand) {
        self.counters.finished += 1;
    }

    fn on_backfill_pass(&mut self, _now: f64, _algorithm: &'static str, started: usize) {
        self.counters.backfill_passes += 1;
        self.counters.backfill_credited += started as u64;
        if let Some(t) = &self.tracer {
            let mut t = lock(t);
            let (start, end) = (t.mark_ns, t.now_ns());
            t.record("sched.backfill/pass", start, end);
        }
    }

    fn on_invocation_end(&mut self, _now: f64, _started: usize) {
        let elapsed = self.begin.elapsed();
        self.invoke_ns.push(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        if let Some(t) = &self.tracer {
            lock(t).close(self.invoke_span);
        }
    }
}

/// Times every [`SelectionPolicy::select`] call of the wrapped policy.
pub struct TimedPolicy {
    inner: Box<dyn SelectionPolicy>,
    tracer: SharedTracer,
}

impl TimedPolicy {
    pub fn wrap(inner: Box<dyn SelectionPolicy>, tracer: SharedTracer) -> Box<dyn SelectionPolicy> {
        Box::new(Self { inner, tracer })
    }
}

impl SelectionPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn select(&mut self, window: &[JobDemand], avail: &PoolState, invocation: u64) -> Vec<usize> {
        let span = lock(&self.tracer).open("policies/select");
        let picked = self.inner.select(window, avail, invocation);
        let mut t = lock(&self.tracer);
        t.close(span);
        t.mark_ns = t.now_ns();
        t.select_offered += window.len() as u64;
        t.select_picked += picked.len() as u64;
        picked
    }

    fn snapshot_state(&self) -> Option<serde::Value> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}
