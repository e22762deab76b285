//! `cli serve` — the long-running scheduler daemon, also run as `cli
//! replay` (one function behind both names: the same flags, the same
//! stdout).
//!
//! Reads job events from stdin or a path (each line parsed once, into a
//! `Value` that classifies it and then becomes the event), emits one
//! JSON decision per line to stdout, and layers the `bbsched_sched`
//! durability module over the online replay driver. Decision lines
//! collect in a `BufWriter` that is flushed when an invocation's
//! backfill pass ends, so a downstream consumer acts on each instant as
//! soon as it is decided, in one write unless the instant outgrows the
//! buffer. The durability options:
//!
//! * `--journal DIR` — every consumed input line is appended to a
//!   write-ahead journal (fsync'd per line) in `DIR/events.wal`, and
//!   rolling snapshots land in the same directory;
//! * `--recover DIR` — crash recovery: newest valid snapshot + journal
//!   tail replay, then the live stream continues (the first
//!   already-journaled lines of `--events` are skipped);
//! * `{"type":"set-policy","name":…}` — live policy hot-swap: the
//!   daemon snapshots, restores under the new policy (`SchedCore::restore`
//!   injects policy state only when the name matches), and journals the
//!   control line so recovery replays the swap deterministically;
//! * SIGTERM — graceful drain: a final snapshot at the exact consumed
//!   position, no final flush, exit 0. A `--recover` restart then owns
//!   every remaining decision, so the concatenated decision streams of
//!   the two processes equal the uninterrupted run byte for byte;
//! * `--stop-after N` — the same drain after N consumed input lines, a
//!   deterministic cut point for tests and CI.
//!
//! Recovery *re-derives* decisions: replaying the journal tail emits
//! the decisions it implies. After a graceful SIGTERM the tail is empty
//! (the final snapshot sits at the journal head position) and the
//! concatenation is exact; after a hard kill the tail re-emits
//! decisions made since the last snapshot, and consumers resume from
//! the `recovered:` stderr marker (DESIGN.md §13).

use crate::args::Args;
use crate::commands::{parse_machine, parse_policy, sim_config, SCHED_ARGS};
use crate::error::CliError;
use bbsched_metrics::LiveStatsLines;
use bbsched_policies::{GaParams, PolicyKind};
use bbsched_sched::durability::{Encoding, Journal, SnapshotStore};
use bbsched_sched::{Decision, JobEvent, ReplaySnapshot, Replayer, SchedConfig, SchedObserver};
use bbsched_workloads::SystemConfig;
use std::io::{BufRead, Write};
use std::path::Path;

/// A `cli serve` checkpoint: the replayer's state plus the policy
/// identity to rebuild it under, and the daemon's input position
/// (consumed journaled lines — job events *and* control lines, which
/// the replayer's own `events_fed` does not count).
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct DaemonCheckpoint {
    replay: ReplaySnapshot,
    policy: PolicyKind,
    ga: GaParams,
    consumed: u64,
}

impl DaemonCheckpoint {
    fn new(replayer: &Replayer<'_>, policy: PolicyKind, ga: GaParams, consumed: u64) -> Self {
        Self { replay: replayer.snapshot(), policy, ga, consumed }
    }
}

#[cfg(unix)]
mod term {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    /// Installs the SIGTERM flag handler (no `libc` dependency: the
    /// workspace allows none, and `signal(2)` is all the drain needs).
    pub(super) fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term);
        }
    }

    pub(super) fn requested() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod term {
    pub(super) fn install() {}

    pub(super) fn requested() -> bool {
        false
    }
}

/// A [`SchedObserver`] that streams decisions to a writer in the
/// canonical JSON-line encoding. Each line is rendered into one reused
/// buffer and written to `out`; buffering is the writer's job (`serve`
/// hands it a `BufWriter` over stdout). The stream flushes once per
/// invocation that decided something, when the backfill pass ends:
/// phases 3–5 of `SchedCore::invoke` make every decision, so the write
/// does not wait for phase 6's queue cleanup, and an instant that fits
/// the writer's buffer reaches the consumer in one write. `on_invocation_end` flushes any remainder. IO failures
/// are latched (the observer hooks cannot return errors) and returned
/// by [`DecisionStream::finish`].
struct DecisionStream<W: Write> {
    out: W,
    io_error: Option<std::io::Error>,
    /// The line being rendered, reused across decisions.
    line: String,
    /// Lines were written since the last flush.
    unflushed: bool,
}

impl<W: Write> DecisionStream<W> {
    fn new(out: W) -> Self {
        Self { out, io_error: None, line: String::new(), unflushed: false }
    }

    fn flush_invocation(&mut self) {
        if self.unflushed && self.io_error.is_none() {
            self.unflushed = false;
            if let Err(e) = self.out.flush() {
                self.io_error = Some(e);
            }
        }
    }

    /// Flushes what the writer still buffers and returns the run's
    /// first IO error, if any.
    fn finish(mut self) -> Option<std::io::Error> {
        if self.io_error.is_none() {
            self.io_error = self.out.flush().err();
        }
        self.io_error
    }
}

impl<W: Write> SchedObserver for DecisionStream<W> {
    fn on_decision(&mut self, now: f64, decision: &Decision) {
        if self.io_error.is_some() {
            return;
        }
        self.line.clear();
        decision.write_json_line(now, &mut self.line);
        self.line.push('\n');
        match self.out.write_all(self.line.as_bytes()) {
            Ok(()) => self.unflushed = true,
            Err(e) => self.io_error = Some(e),
        }
    }

    fn on_backfill_pass(&mut self, _now: f64, _algorithm: &'static str, _started: usize) {
        self.flush_invocation();
    }

    fn on_invocation_end(&mut self, _now: f64, _started: usize) {
        self.flush_invocation();
    }
}

/// One input line, classified: a control line or a wire job event.
enum ServeLine {
    Event(JobEvent),
    SetPolicy(PolicyKind),
}

fn classify_line(line: &str) -> Result<ServeLine, String> {
    let value = serde_json::value_from_slice(line.as_bytes()).map_err(|e| e.to_string())?;
    let is_set_policy = value
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == "type"))
        .and_then(|(_, v)| v.as_str())
        .is_some_and(|t| t == "set-policy");
    if is_set_policy {
        let name = value
            .as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == "name"))
            .and_then(|(_, v)| v.as_str())
            .ok_or("set-policy needs a string 'name'")?;
        Ok(ServeLine::SetPolicy(parse_policy(name)?))
    } else {
        Ok(ServeLine::Event(JobEvent::from_value(&value)?))
    }
}

/// The durability side of the daemon: the WAL and the rolling store,
/// both living in the `--journal`/`--recover` directory.
struct Durable {
    journal: Journal,
    store: SnapshotStore,
    snapshot_every: u64,
    encoding: Encoding,
}

impl Durable {
    /// Saves `ckpt` into the rolling store, named by its consumed-line
    /// position so snapshot names line up with journal record counts.
    fn save(&self, ckpt: &DaemonCheckpoint) -> Result<(), CliError> {
        self.store
            .save(ckpt.consumed, ckpt, self.encoding)
            .map_err(|e| CliError::Output(format!("cannot write snapshot: {e}")))?;
        Ok(())
    }
}

/// Why the inner segment loop returned control.
enum SegmentEnd {
    /// Hot-swap to this policy from this snapshot.
    Swap(PolicyKind, Box<ReplaySnapshot>),
    /// Input exhausted: run the final flush and summarize.
    Eof,
    /// SIGTERM: final snapshot, no flush.
    Term,
    /// `--stop-after` reached: as [`SegmentEnd::Term`].
    StopAfter,
}

/// `cli serve` entry point.
pub(crate) fn cmd_serve(args: &Args) -> Result<(), CliError> {
    let mut known = vec![
        "events",
        "machine",
        "scale",
        "policy",
        "gens",
        "seed",
        "journal",
        "recover",
        "snapshot-every",
        "snapshot-retain",
        "snapshot-format",
        "stop-after",
        "stats-every",
    ];
    known.extend_from_slice(SCHED_ARGS);
    args.check_known(&known)?;

    let snapshot_every: u64 = args.get_parsed("snapshot-every", 0u64)?;
    let retain: usize = args.get_parsed("snapshot-retain", 3usize)?;
    let encoding: Encoding =
        args.get_or("snapshot-format", "binary").parse().map_err(CliError::Usage)?;
    let stats_every: u64 = args.get_parsed("stats-every", 0u64)?;
    let stop_after: Option<u64> = match args.get("stop-after") {
        None => None,
        Some(_) => match args.get_parsed("stop-after", 0u64)? {
            0 => return Err(CliError::Usage("--stop-after must be >= 1".to_string())),
            n => Some(n),
        },
    };
    let recover_dir = args.get("recover");
    // --recover implies journaling into the same directory.
    let journal_dir = args.get("journal").or(recover_dir);
    if args.get("journal").is_some() && recover_dir.is_some_and(|r| Some(r) != args.get("journal"))
    {
        return Err(CliError::Usage(
            "--journal and --recover must name the same directory".to_string(),
        ));
    }
    if snapshot_every > 0 && journal_dir.is_none() {
        return Err(CliError::Usage("--snapshot-every needs --journal DIR".to_string()));
    }

    term::install();

    let durable = match journal_dir {
        Some(dir) => {
            let store = SnapshotStore::open(dir, retain)
                .map_err(|e| CliError::Output(format!("cannot open '{dir}': {e}")))?;
            let (journal, recovery) = Journal::open(&Path::new(dir).join("events.wal"))
                .map_err(|e| CliError::Input(format!("cannot open journal in '{dir}': {e}")))?;
            if recovery.dropped_bytes > 0 {
                eprintln!(
                    "journal: dropped {} torn trailing bytes ({} records intact)",
                    recovery.dropped_bytes,
                    recovery.records.len()
                );
            }
            Some((Durable { journal, store, snapshot_every, encoding }, recovery.records))
        }
        None => None,
    };

    // Fresh start vs recovery: a fresh daemon builds system/config/policy
    // from flags; a recovering one takes everything from the newest valid
    // snapshot and replays the journal tail through the same code path.
    let mut kind: PolicyKind;
    let ga: GaParams;
    let mut pending_restore: Option<ReplaySnapshot> = None;
    let mut fresh: Option<(SystemConfig, SchedConfig)> = None;
    let mut consumed: u64;
    let mut tail: std::collections::VecDeque<String> = std::collections::VecDeque::new();
    let skip_lines: u64;

    if recover_dir.is_some() {
        let (durable_ref, records) = durable.as_ref().expect("recover implies journaling");
        let loaded = durable_ref
            .store
            .load_newest::<DaemonCheckpoint>()
            .map_err(|e| CliError::Input(format!("cannot scan snapshots: {e}")))?
            .ok_or_else(|| CliError::Input("no usable snapshot to recover from".to_string()))?;
        if loaded.skipped > 0 {
            eprintln!("recovery: skipped {} unreadable newer snapshot(s)", loaded.skipped);
        }
        let ckpt = loaded.value;
        if ckpt.consumed as usize > records.len() {
            return Err(CliError::Input(format!(
                "snapshot at consumed line {} is ahead of the journal ({} records) — wrong \
                 directory?",
                ckpt.consumed,
                records.len()
            )));
        }
        for record in &records[ckpt.consumed as usize..] {
            let line = String::from_utf8(record.clone())
                .map_err(|e| CliError::Input(format!("journal record is not UTF-8: {e}")))?;
            tail.push_back(line);
        }
        eprintln!(
            "recovered: snapshot at line {}, replaying {} journal records, resuming input at \
             line {}",
            ckpt.consumed,
            tail.len(),
            records.len()
        );
        kind = ckpt.policy;
        ga = ckpt.ga;
        consumed = ckpt.consumed;
        skip_lines = records.len() as u64;
        pending_restore = Some(ckpt.replay);
    } else {
        let scale: f64 = args.get_parsed("scale", 0.05)?;
        let machine = parse_machine(args.get_or("machine", "theta"))?;
        let profile =
            if (scale - 1.0).abs() < f64::EPSILON { machine } else { machine.scaled(scale) };
        kind = parse_policy(args.get_or("policy", "BBSched"))?;
        let cfg = sim_config(args, &profile)?.sched();
        ga = GaParams {
            generations: args.get_parsed("gens", 500usize)?,
            base_seed: args.get_parsed("seed", 7u64)?,
            ..GaParams::default()
        };
        // A non-recovery start must not silently adopt half a previous
        // run's directory: an existing journal means the operator wanted
        // --recover.
        if let Some((d, records)) = &durable {
            if !records.is_empty() || d.journal.records() > 0 {
                return Err(CliError::Usage(
                    "journal directory already has records; use --recover DIR to continue it"
                        .to_string(),
                ));
            }
        }
        fresh = Some((profile.system.clone(), cfg));
        consumed = 0;
        skip_lines = 0;
    }
    let mut durable = durable.map(|(d, _)| d);

    let path = args.require("events")?;
    let reader: Box<dyn BufRead> = if path == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        let file = std::fs::File::open(path)
            .map_err(|e| CliError::Input(format!("cannot open '{path}': {e}")))?;
        Box::new(std::io::BufReader::new(file))
    };
    let mut input = reader.lines();
    let mut input_line = 0u64; // physical lines read from --events, blank ones too
    let mut nonblank = 0u64; // the journal's numbering, which `skip_lines` counts in
    let mut seen_eof = false;

    let stdout = std::io::stdout();
    let mut stream = DecisionStream::new(std::io::BufWriter::new(stdout.lock()));
    let mut stats = (stats_every > 0).then(|| LiveStatsLines::new(stats_every, std::io::stderr()));

    // Each hot-swap ends a *segment*: the replayer (which borrows the
    // observers) is torn down, and the next iteration rebuilds it from
    // the snapshot under the new policy with fresh borrows.
    //
    // `segment_checkpointed` gates the checkpoint written at segment
    // top: a fresh start checkpoints position 0 (so every journaled
    // directory is recoverable from its first record), a live hot-swap
    // checkpoints the post-swap position, and a recovery skips it (the
    // loaded checkpoint is already on disk).
    let mut segment_checkpointed = recover_dir.is_some();
    'segments: loop {
        let mut observers: Vec<&mut dyn SchedObserver> = vec![&mut stream];
        if let Some(s) = stats.as_mut() {
            observers.push(s);
        }
        let mut replayer = match pending_restore.take() {
            Some(snapshot) => Replayer::restore(snapshot, kind.build(ga), observers)
                .map_err(|e| CliError::Run(format!("cannot restore: {e}")))?,
            None => {
                let (system, cfg) = fresh.take().expect("first segment is fresh or restored");
                Replayer::new(&system, cfg, kind.build(ga), observers)
                    .map_err(|e| CliError::Run(e.to_string()))?
            }
        };
        if let Some(d) = &durable {
            if !segment_checkpointed {
                d.save(&DaemonCheckpoint::new(&replayer, kind, ga, consumed))?;
            }
        }

        let end: SegmentEnd = 'lines: loop {
            if term::requested() {
                break 'lines SegmentEnd::Term;
            }
            if stop_after.is_some_and(|n| consumed >= n) {
                break 'lines SegmentEnd::StopAfter;
            }
            // Journal tail first (replayed without re-journaling), then
            // the live stream, whose lines carry their physical number.
            let (line, live_line) = match tail.pop_front() {
                Some(line) => (line, None),
                None if seen_eof => break 'lines SegmentEnd::Eof,
                None => {
                    let mut next = None;
                    for read in input.by_ref() {
                        let read = read
                            .map_err(|e| CliError::Input(format!("cannot read '{path}': {e}")))?;
                        input_line += 1;
                        if read.trim().is_empty() {
                            continue;
                        }
                        nonblank += 1;
                        if nonblank <= skip_lines {
                            continue; // already journaled and applied
                        }
                        next = Some(read);
                        break;
                    }
                    match next {
                        Some(line) => (line, Some(input_line)),
                        None => {
                            seen_eof = true;
                            // A TERM that raced the final reads still
                            // means "drain, don't flush".
                            if term::requested() {
                                break 'lines SegmentEnd::Term;
                            }
                            break 'lines SegmentEnd::Eof;
                        }
                    }
                }
            };

            let live = live_line.is_some();
            let at = || match live_line {
                Some(n) => format!("input line {n}"),
                None => format!("journal record {}", consumed + 1),
            };
            match classify_line(&line).map_err(|e| CliError::Input(format!("{}: {e}", at())))? {
                ServeLine::SetPolicy(new_kind) => {
                    if live {
                        if let Some(d) = &mut durable {
                            d.journal.append_sync(line.as_bytes()).map_err(|e| {
                                CliError::Output(format!("cannot journal event: {e}"))
                            })?;
                        }
                    }
                    consumed += 1;
                    break 'lines SegmentEnd::Swap(new_kind, Box::new(replayer.snapshot()));
                }
                ServeLine::Event(event) => {
                    // Apply, then journal: a rejected event (time
                    // regression, duplicate id) is a fatal input error
                    // and must never poison the journal for recovery.
                    replayer.feed(event).map_err(|e| CliError::Run(format!("{}: {e}", at())))?;
                    if live {
                        if let Some(d) = &mut durable {
                            d.journal.append_sync(line.as_bytes()).map_err(|e| {
                                CliError::Output(format!("cannot journal event: {e}"))
                            })?;
                        }
                    }
                    consumed += 1;
                    if live {
                        if let Some(d) = &durable {
                            if d.snapshot_every > 0 && consumed.is_multiple_of(d.snapshot_every) {
                                d.save(&DaemonCheckpoint::new(&replayer, kind, ga, consumed))?;
                            }
                        }
                    }
                }
            }
        };

        match end {
            SegmentEnd::Swap(new_kind, snapshot) => {
                eprintln!(
                    "policy hot-swap at line {consumed}: {} -> {}",
                    kind.name(),
                    new_kind.name()
                );
                kind = new_kind;
                pending_restore = Some(*snapshot);
                // A live swap re-checkpoints immediately at the
                // post-swap position, so a crash right after it recovers
                // under the new policy without replaying the swap; a
                // swap replayed from the journal tail does not (its
                // checkpoints already exist or were pruned).
                segment_checkpointed = !tail.is_empty();
                continue 'segments;
            }
            end @ (SegmentEnd::Term | SegmentEnd::StopAfter) => {
                let how = match end {
                    SegmentEnd::Term => format!("sigterm: drained at line {consumed}"),
                    _ => format!("stopped after {consumed} lines"),
                };
                if let Some(d) = &durable {
                    d.save(&DaemonCheckpoint::new(&replayer, kind, ga, consumed))?;
                    eprintln!("{how}; final snapshot written (recover with --recover)");
                } else {
                    eprintln!("{how} (no journal directory)");
                }
                break 'segments;
            }
            SegmentEnd::Eof => {
                if let Some(d) = &durable {
                    // Pre-flush state: recovering a completed run
                    // re-derives the final flush (see module docs).
                    d.save(&DaemonCheckpoint::new(&replayer, kind, ga, consumed))?;
                }
                let fed = replayer.events_fed();
                let summary = replayer.finish().map_err(|e| CliError::Run(e.to_string()))?;
                eprintln!(
                    "served {consumed} lines ({fed} job events): {} jobs ({} clamped), {} \
                     finishes, {} invocations, makespan {:.1} s, left {} waiting / {} running",
                    summary.jobs,
                    summary.clamped_jobs,
                    summary.finishes,
                    summary.invocations,
                    summary.makespan,
                    summary.left_waiting,
                    summary.left_running
                );
                break 'segments;
            }
        }
    }

    if let Some(stats) = &stats {
        if let Some(e) = stats.io_error() {
            eprintln!("warning: stats stream: {e}");
        }
    }
    if let Some(e) = stream.finish() {
        return Err(CliError::Output(format!("cannot write decision stream: {e}")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Counts `write` and `flush` calls on a [`DecisionStream`]'s writer
    /// and keeps the written bytes; `fail` turns every write into an
    /// error.
    #[derive(Default)]
    struct WireLog {
        writes: usize,
        flushes: usize,
        bytes: Vec<u8>,
        fail: bool,
    }

    struct CountingWriter(std::rc::Rc<std::cell::RefCell<WireLog>>);

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let mut log = self.0.borrow_mut();
            log.writes += 1;
            if log.fail {
                return Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "reader gone"));
            }
            log.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.0.borrow_mut().flushes += 1;
            Ok(())
        }
    }

    /// Attached after the stream: checks, per invocation, that the
    /// stream issued exactly one write + flush by the end of the
    /// backfill pass when the invocation decided anything (none when it
    /// did not), that those bytes are the decisions' `json_line`s, and
    /// that phase 6 wrote nothing more.
    struct InvocationAudit {
        log: std::rc::Rc<std::cell::RefCell<WireLog>>,
        before: (usize, usize, usize),
        lines: String,
        deciding: usize,
    }

    impl InvocationAudit {
        fn counts(&self) -> (usize, usize, usize) {
            let log = self.log.borrow();
            (log.writes, log.flushes, log.bytes.len())
        }
    }

    impl SchedObserver for InvocationAudit {
        fn on_invocation_begin(&mut self, _now: f64, _invocation: u64, _queue_len: usize) {
            self.before = self.counts();
            self.lines.clear();
        }

        fn on_decision(&mut self, now: f64, decision: &Decision) {
            self.lines.push_str(&decision.json_line(now));
            self.lines.push('\n');
        }

        fn on_backfill_pass(&mut self, _now: f64, _algorithm: &'static str, _started: usize) {
            let (w, f, b) = self.before;
            let calls = usize::from(!self.lines.is_empty());
            assert_eq!(self.counts(), (w + calls, f + calls, b + self.lines.len()));
            assert_eq!(&self.log.borrow().bytes[b..], self.lines.as_bytes());
            self.deciding += calls;
            self.before = self.counts();
        }

        fn on_invocation_end(&mut self, _now: f64, _started: usize) {
            assert_eq!(self.counts(), self.before, "phase 6 makes no decisions");
        }
    }

    /// Replays the checked-in event fixture into a daemon-mode stream
    /// over a `BufWriter` over `log`, as `cmd_serve` builds it, with an
    /// audit observer behind it. Returns the stream and the number of
    /// invocations that decided something.
    fn replay_fixture_into(
        log: &std::rc::Rc<std::cell::RefCell<WireLog>>,
    ) -> (DecisionStream<std::io::BufWriter<CountingWriter>>, usize) {
        let mut stream = DecisionStream::new(std::io::BufWriter::new(CountingWriter(log.clone())));
        let mut audit = InvocationAudit {
            log: log.clone(),
            before: (0, 0, 0),
            lines: String::new(),
            deciding: 0,
        };
        let profile = parse_machine("cori").unwrap().scaled(0.05);
        let cfg = bbsched_sched::SchedConfig::default();
        {
            let observers: Vec<&mut dyn SchedObserver> = vec![&mut stream, &mut audit];
            let policy = PolicyKind::Baseline.build(GaParams::default());
            let mut replayer = Replayer::new(&profile.system, cfg, policy, observers).unwrap();
            for line in include_str!("../../../ci/replay_events.jsonl").lines() {
                replayer.feed(JobEvent::parse(line).unwrap()).unwrap();
            }
            replayer.finish().unwrap();
        }
        (stream, audit.deciding)
    }

    #[test]
    fn decision_stream_writes_once_per_deciding_invocation() {
        let log = std::rc::Rc::new(std::cell::RefCell::new(WireLog::default()));
        let (stream, deciding) = replay_fixture_into(&log);
        assert!(stream.io_error.is_none());
        assert!(deciding > 50, "the fixture decides in many invocations ({deciding})");
        let log = log.borrow();
        assert_eq!((log.writes, log.flushes), (deciding, deciding));

        // An invocation that decides nothing writes and flushes nothing.
        let quiet = std::rc::Rc::new(std::cell::RefCell::new(WireLog::default()));
        let mut stream =
            DecisionStream::new(std::io::BufWriter::new(CountingWriter(quiet.clone())));
        stream.on_invocation_begin(1.0, 1, 3);
        stream.on_backfill_pass(1.0, "EASY", 0);
        stream.on_invocation_end(1.0, 0);
        assert_eq!((quiet.borrow().writes, quiet.borrow().flushes), (0, 0));
    }

    #[test]
    fn decision_stream_bytes_equal_the_json_line_stream() {
        let log = std::rc::Rc::new(std::cell::RefCell::new(WireLog::default()));
        replay_fixture_into(&log);
        let expected = include_str!("../../../ci/replay_expected.jsonl");
        assert_eq!(String::from_utf8(log.borrow().bytes.clone()).unwrap(), expected);
    }

    #[test]
    fn decision_stream_latches_the_first_write_error() {
        let log =
            std::rc::Rc::new(std::cell::RefCell::new(WireLog { fail: true, ..Default::default() }));
        let mut stream = DecisionStream::new(std::io::BufWriter::new(CountingWriter(log.clone())));
        let start = Decision::Start {
            idx: 0,
            id: 1,
            reason: bbsched_sched::StartReason::Policy,
            est_end: 9.0,
        };
        for now in [1.0, 2.0] {
            stream.on_invocation_begin(now, 1, 1);
            stream.on_decision(now, &start);
            stream.on_backfill_pass(now, "EASY", 0);
            stream.on_invocation_end(now, 1);
        }
        assert_eq!(log.borrow().writes, 1, "no write is attempted after the error");
        let err = stream.finish().expect("the failed write is latched");
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
    }

    /// A checkpoint whose `ga` map still carries the `threads` or
    /// `saturate` key that `GaParams` once had decodes to the same
    /// checkpoint: the decoder ignores keys it does not know.
    #[test]
    fn checkpoint_with_a_threads_key_decodes() {
        let profile = parse_machine("cori").unwrap().scaled(0.05);
        let policy = PolicyKind::Baseline.build(GaParams::default());
        let mut replayer =
            Replayer::new(&profile.system, SchedConfig::default(), policy, Vec::new()).unwrap();
        for line in include_str!("../../../ci/replay_events.jsonl").lines().take(40) {
            replayer.feed(JobEvent::parse(line).unwrap()).unwrap();
        }
        let ckpt = DaemonCheckpoint::new(&replayer, PolicyKind::Baseline, GaParams::default(), 40);
        let json = serde_json::to_string(&ckpt).unwrap();
        assert_eq!(json.matches(r#""ga":{"#).count(), 1);
        for key in [r#""threads":4,"#, r#""saturate":false,"#] {
            let old = json.replace(r#""ga":{"#, &format!(r#""ga":{{{key}"#));
            let (decoded, encoding) =
                bbsched_sched::durability::from_bytes::<DaemonCheckpoint>(old.as_bytes()).unwrap();
            assert_eq!(encoding, Encoding::Json);
            assert_eq!(decoded, ckpt, "checkpoint with {key} in its `ga` map");
        }
    }

    /// The fixture's event lines plus two control lines.
    fn corpus() -> Vec<String> {
        let mut lines: Vec<String> =
            include_str!("../../../ci/replay_events.jsonl").lines().map(String::from).collect();
        lines.push(r#"{"type":"set-policy","name":"Baseline"}"#.to_string());
        lines.push(r#"{"type":"set-policy","name":"BBSched"}"#.to_string());
        lines
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        /// Mutated lines never panic the classifier, and an event line
        /// classifies exactly as `JobEvent::parse` reads it: same event
        /// or same error text.
        #[test]
        fn mutated_lines_classify_without_panics(
            line in 0usize..10_000,
            edits in collection::vec((0u8..4, any::<usize>(), any::<u8>()), 1..5),
        ) {
            let corpus = corpus();
            let mut bytes = corpus[line % corpus.len()].as_bytes().to_vec();
            for (op, at, byte) in edits {
                let at = at % (bytes.len() + 1);
                match op {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    2 => bytes.insert(at, byte),
                    _ => bytes.insert(at, b"\"\\{}[]:,.e-"[byte as usize % 11]),
                }
            }
            let line = String::from_utf8_lossy(&bytes);
            match classify_line(&line) {
                Ok(ServeLine::SetPolicy(_)) => prop_assert!(line.contains("set-policy")),
                Ok(ServeLine::Event(event)) => prop_assert_eq!(JobEvent::parse(&line), Ok(event)),
                Err(e) if line.contains("set-policy") => prop_assert!(!e.is_empty()),
                Err(e) => prop_assert_eq!(JobEvent::parse(&line), Err(e)),
            }
        }
    }
}
