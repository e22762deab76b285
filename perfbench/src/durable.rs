//! The durable service path, in process: the public pieces `bbsched
//! serve` is built from — `JobEvent::parse`, `Replayer::feed`,
//! `Journal::append_sync` and `SnapshotStore::save` — driven line by line
//! in the daemon's order, then a timed recovery of the directory.

use crate::trace::{lock, Counters, Probe, SharedTracer, TimedPolicy, Tracer};
use crate::{median, Report};
use bbsched_policies::SelectionPolicy;
use bbsched_sched::durability::{Encoding, Journal, SnapshotStore};
use bbsched_sched::{JobEvent, ReplaySnapshot, Replayer, SchedConfig, SimResult};
use bbsched_workloads::{SystemConfig, Trace};
use std::path::Path;
use std::time::Instant;

/// Input lines between two snapshots, for the daemon and this path alike.
pub const SNAPSHOT_EVERY: u64 = 5_000;
/// Snapshots kept on disk (the daemon's default).
const SNAPSHOT_RETAIN: usize = 3;

/// The event stream of a finished schedule: every submit and every
/// finish (at the recorded end time), in time order.
pub fn events(trace: &Trace, result: &SimResult) -> Vec<JobEvent> {
    let mut events: Vec<JobEvent> = trace.jobs().iter().cloned().map(JobEvent::Submit).collect();
    events.extend(result.records.iter().map(|r| JobEvent::Finish { id: r.id, time: r.end }));
    events.sort_by(|a, b| a.time().total_cmp(&b.time()));
    events
}

/// [`events`] as wire lines.
pub fn event_lines(trace: &Trace, result: &SimResult) -> Vec<String> {
    events(trace, result).iter().map(JobEvent::to_json_line).collect()
}

/// What one pass over the durable path measured.
pub struct Pass {
    /// Spans of the pass and the recovery (empty when untraced).
    pub tracer: SharedTracer,
    pub hash: u64,
    pub counters: Counters,
    pub wall_s: f64,
    pub lines: usize,
    pub journal_bytes: u64,
    pub snapshot_bytes: u64,
    pub recover_s: f64,
}

/// Runs `f` inside a span named `name` when tracing.
fn span<T>(tracer: Option<&SharedTracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => {
            let id = lock(t).open(name);
            let out = f();
            lock(t).close(id);
            out
        }
        None => f(),
    }
}

/// Serves `lines` through the durable path in `dir` (emptied first),
/// then recovers the directory the way `bbsched serve --recover` would.
pub fn serve_in_process(
    system: &SystemConfig,
    cfg: SchedConfig,
    make_policy: &dyn Fn() -> Box<dyn SelectionPolicy>,
    lines: &[String],
    dir: &Path,
    traced: bool,
) -> Result<Pass, String> {
    let io = |what: &str, e: &dyn std::fmt::Display| format!("{what} in {}: {e}", dir.display());
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| io("cannot clear", &e))?;
    }
    let store = SnapshotStore::open(dir, SNAPSHOT_RETAIN).map_err(|e| io("snapshot store", &e))?;
    let wal = dir.join("events.wal");
    let (mut journal, _) = Journal::open(&wal).map_err(|e| io("journal", &e))?;

    let shared = Tracer::shared();
    let tracer = traced.then_some(&shared);
    let policy = make_policy();
    let policy = if traced { TimedPolicy::wrap(policy, shared.clone()) } else { policy };
    let mut probe = Probe::new(tracer.cloned());
    let started = Instant::now();
    let root = tracer.map(|t| lock(t).open("sched.replay/pass"));
    {
        let mut replayer = Replayer::new(system, cfg, policy, vec![&mut probe])
            .map_err(|e| format!("replayer: {e}"))?;
        let save = |replayer: &Replayer<'_>, position: u64| {
            span(tracer, "sched.durability/snapshot_save", || {
                store.save(position, &replayer.snapshot(), Encoding::Binary)
            })
            .map_err(|e| io("snapshot", &e))
        };
        save(&replayer, 0)?;
        for (n, line) in lines.iter().enumerate() {
            let event = span(tracer, "sched.replay/parse", || JobEvent::parse(line))
                .map_err(|e| format!("line {}: {e}", n + 1))?;
            span(tracer, "sched.replay/feed", || replayer.feed(event))
                .map_err(|e| format!("line {}: {e}", n + 1))?;
            span(tracer, "sched.durability/append_sync", || journal.append_sync(line.as_bytes()))
                .map_err(|e| io("journal append", &e))?;
            let consumed = n as u64 + 1;
            if consumed.is_multiple_of(SNAPSHOT_EVERY) {
                save(&replayer, consumed)?;
            }
        }
        // Like the daemon at end of input: checkpoint, then the final flush.
        save(&replayer, lines.len() as u64)?;
        span(tracer, "sched.replay/feed", || replayer.finish()).map_err(|e| format!("{e}"))?;
    }
    if let (Some(t), Some(root)) = (tracer, root) {
        lock(t).close(root);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let size = |p: &Path| std::fs::metadata(p).map(|m| m.len()).map_err(|e| io("stat", &e));
    let journal_bytes = size(&wal)?;
    let snapshot_bytes = size(&store.path_for(lines.len() as u64))?;
    drop(journal);

    let recover_s =
        span(tracer, "sched.durability/recover", || recover(dir, lines, make_policy()))?;
    Ok(Pass {
        tracer: shared,
        hash: probe.hash,
        counters: probe.counters,
        wall_s,
        lines: lines.len(),
        journal_bytes,
        snapshot_bytes,
        recover_s,
    })
}

/// Journal open + newest snapshot + tail replay; checks that the journal
/// holds exactly `lines` with no torn tail. Returns the seconds it took.
fn recover(dir: &Path, lines: &[String], policy: Box<dyn SelectionPolicy>) -> Result<f64, String> {
    let started = Instant::now();
    let (_journal, recovered) =
        Journal::open(&dir.join("events.wal")).map_err(|e| format!("journal reopen: {e}"))?;
    let store = SnapshotStore::open(dir, SNAPSHOT_RETAIN).map_err(|e| format!("store: {e}"))?;
    let loaded = store
        .load_newest::<ReplaySnapshot>()
        .map_err(|e| format!("snapshot scan: {e}"))?
        .ok_or("no snapshot decodes")?;
    let tail =
        recovered.records.get(loaded.position as usize..).ok_or("snapshot ahead of journal")?;
    let mut replayer =
        Replayer::restore(loaded.value, policy, vec![]).map_err(|e| format!("restore: {e}"))?;
    for record in tail {
        let line = std::str::from_utf8(record).map_err(|e| format!("journal record: {e}"))?;
        replayer.feed(JobEvent::parse(line)?).map_err(|e| format!("tail replay: {e}"))?;
    }
    let recover_s = started.elapsed().as_secs_f64();
    if recovered.dropped_bytes != 0 || recovered.records.len() != lines.len() {
        return Err(format!(
            "journal recovered {} records ({} torn bytes) for {} lines",
            recovered.records.len(),
            recovered.dropped_bytes,
            lines.len()
        ));
    }
    if recovered.records.iter().zip(lines).any(|(r, l)| r.as_slice() != l.as_bytes()) {
        return Err("journal records differ from the input lines".to_string());
    }
    Ok(recover_s)
}

/// The wire and durability layers' metrics of a traced pass.
pub fn report_layers(report: &mut Report, pass: &Pass, jobs: usize) {
    let t = lock(&pass.tracer);
    let layers = t.layers();
    let get = |name: &str| layers.get(name).cloned().unwrap_or_default();
    let (parse, feed, append, save) = (
        get("sched.replay/parse"),
        get("sched.replay/feed"),
        get("sched.durability/append_sync"),
        get("sched.durability/snapshot_save"),
    );
    let save_ms: Vec<f64> = save.durations_ns.iter().map(|&ns| ns as f64 * 1e-6).collect();
    report.metric("replay.parse_p50_us", parse.pct_us(50.0), "us");
    report.metric("replay.parse_p99_us", parse.pct_us(99.0), "us");
    report.metric("replay.parse_busy_s", parse.busy_s(), "s");
    report.metric("replay.feed_busy_s", feed.busy_s(), "s");
    report.metric("journal.append_sync_p50_us", append.pct_us(50.0), "us");
    report.metric("journal.append_sync_p99_us", append.pct_us(99.0), "us");
    report.metric("journal.busy_s", append.busy_s(), "s");
    report.metric("journal.bytes_per_event", pass.journal_bytes as f64 / pass.lines as f64, "B");
    report.metric("snapshot.save_ms", median(&save_ms), "ms");
    report.metric("snapshot.bytes", pass.snapshot_bytes as f64, "B");
    report.metric("snapshot.bytes_per_job", pass.snapshot_bytes as f64 / jobs as f64, "B");
    report.metric(
        "durability.share_pct",
        100.0 * (append.busy_s() + save.busy_s()) / pass.wall_s.max(1e-12),
        "%",
    );
    report.metric("recover_s", pass.recover_s, "s");
}
