//! The daemon workload: the release `bbsched serve`, driven over
//! stdin/stdout by a single-threaded closed-loop client.
//!
//! The client writes the lines of one event instant, then the first line
//! of the next instant — which is what makes the daemon flush the batch
//! and schedule — and waits for the decisions of the closed instant
//! before sending anything else. The expected decisions come from the
//! in-process simulator on the same trace; the daemon's output must equal
//! them byte for byte.
//!
//! The timed replays run without `--journal`: the journal can only live
//! on the checkout's disk, whose `fsync` tail would set the latency
//! figures. One more replay per run journals and is checked, not timed.

use crate::sim::{
    generate_traced, layer_metrics, quality, report_companions, report_schedule, write_spans,
};
use crate::trace::{lock, percentile_ns, Probe, Tracer};
use crate::{durable, median, peak_rss_mb, Report, Run};
use bbsched_policies::{GaParams, PolicyKind, SelectionPolicy};
use bbsched_sched::durability::{inspect_bytes, Journal, SnapshotStore};
use bbsched_sched::{Decision, DecisionLog, SchedObserver};
use bbsched_sim::{SimConfig, Simulator};
use bbsched_workloads::{generate, GeneratorConfig, MachineProfile, SystemConfig, Trace};
use std::io::{BufRead, BufReader, Read, Write};
use std::ops::Range;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

const NAME: &str = "serve_daemon";
/// Cori at 5 % scale under load 2.0: a deep queue, so most instants
/// schedule something.
const SCALE: f64 = 0.05;
const LOAD: f64 = 2.0;
const JOBS: usize = 10_000;

/// Everything the client needs for one replay.
struct Inputs {
    system: SystemConfig,
    /// Input lines, each with its newline, back to back.
    wire: Vec<u8>,
    /// Byte offset where each line starts, plus the end of the last one.
    offsets: Vec<usize>,
    lines: Vec<String>,
    /// Per event instant: its lines and its expected decisions.
    instants: Vec<(Range<usize>, Range<usize>)>,
    expected: Vec<String>,
    hash: u64,
    quality: [f64; 3],
}

impl Inputs {
    fn bytes(&self, lines: Range<usize>) -> &[u8] {
        &self.wire[self.offsets[lines.start]..self.offsets[lines.end]]
    }
}

/// Records the instant of every decision, in decision order.
#[derive(Default)]
struct DecisionTimes(Vec<f64>);

impl SchedObserver for DecisionTimes {
    fn on_decision(&mut self, now: f64, _decision: &Decision) {
        self.0.push(now);
    }
}

fn policy() -> Box<dyn SelectionPolicy> {
    PolicyKind::Baseline.build(GaParams::default())
}

/// The machine and the trace for `seed`.
fn trace(seed: u64) -> (SystemConfig, Trace) {
    let profile = MachineProfile::cori().scaled(SCALE);
    let trace = generate(
        &profile,
        &GeneratorConfig { n_jobs: JOBS, seed, load_factor: LOAD, ..GeneratorConfig::default() },
    );
    (profile.system, trace)
}

/// The event stream and the reference decision stream of `trace`. Same
/// configuration as `serve --machine cori --scale 0.05 --policy
/// Baseline`: FCFS ordering, EASY backfill over the window.
fn inputs((system, trace): (SystemConfig, Trace)) -> Result<Inputs, String> {
    let (mut log, mut times, mut probe) =
        (DecisionLog::new(), DecisionTimes::default(), Probe::new(None));
    let result = Simulator::new(&system, &trace, SimConfig::default())
        .map_err(|e| e.to_string())?
        .run_observed(policy(), &mut [&mut log, &mut times, &mut probe]);

    let events = durable::events(&trace, &result);
    let lines: Vec<String> = events.iter().map(|e| e.to_json_line()).collect();
    let mut wire = Vec::new();
    let mut offsets = vec![0];
    for l in &lines {
        wire.extend_from_slice(l.as_bytes());
        wire.push(b'\n');
        offsets.push(wire.len());
    }
    let times = times.0;
    let mut instants = Vec::new();
    let (mut line, mut decision) = (0, 0);
    while line < events.len() {
        let t = events[line].time();
        let first = line;
        while line < events.len() && events[line].time() == t {
            line += 1;
        }
        let d0 = decision;
        while decision < times.len() && times[decision] == t {
            decision += 1;
        }
        instants.push((first..line, d0..decision));
    }
    if decision != times.len() {
        return Err(format!("reference decision {decision} falls on no event instant"));
    }
    Ok(Inputs {
        system,
        wire,
        offsets,
        lines,
        instants,
        expected: log.into_lines(),
        hash: probe.hash,
        quality: quality(&result),
    })
}

/// Starts `bbsched serve` on stdin/stdout, journaling into `journal`
/// when given.
fn spawn(run: &Run, journal: Option<&Path>) -> Result<Child, String> {
    let stderr = std::fs::File::create(run.workdir.join(format!("{NAME}.daemon.stderr")))
        .map_err(|e| format!("daemon stderr file: {e}"))?;
    let mut cmd = Command::new(&run.bbsched);
    cmd.args(["serve", "--events", "-", "--machine", "cori", "--scale"])
        .arg(SCALE.to_string())
        // The CLI's default policy is BBSched; this workload serves Baseline.
        .args(["--policy", "Baseline"]);
    if let Some(dir) = journal {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        cmd.args(["--snapshot-every", &durable::SNAPSHOT_EVERY.to_string(), "--journal"]).arg(dir);
    }
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", run.bbsched.display()))
}

/// What one closed-loop replay observed.
struct Drive {
    /// First instant whose decisions were missing or wrong (its lines and
    /// every later line count as failed).
    failed_from: Option<usize>,
    /// Closing-line-to-last-decision latency of every instant that has
    /// decisions, ascending.
    latency_ns: Vec<u64>,
    wall_s: f64,
    /// The daemon's peak RSS (MB) once every instant but the last has
    /// been answered; `None` if it had already exited.
    peak_rss_mb: Option<f64>,
}

/// Reads the decisions `want` and checks them byte for byte.
fn expect(out: &mut impl BufRead, buf: &mut String, want: &[String]) -> Result<(), ()> {
    for line in want {
        buf.clear();
        match out.read_line(buf) {
            Ok(n) if n > 0 && buf.strip_suffix('\n') == Some(line.as_str()) => {}
            _ => return Err(()),
        }
    }
    Ok(())
}

fn drive(pid: u32, mut stdin: ChildStdin, stdout: ChildStdout, inp: &Inputs) -> Drive {
    let mut out = BufReader::with_capacity(1 << 16, stdout);
    let mut buf = String::new();
    let mut latency_ns = Vec::with_capacity(inp.instants.len());
    let mut failed_from = None;
    let started = Instant::now();
    for (k, (lines, _)) in inp.instants.iter().enumerate() {
        let closed = Instant::now();
        let wrote = stdin.write_all(inp.bytes(lines.start..lines.start + 1));
        if k > 0 {
            let want = &inp.expected[inp.instants[k - 1].1.clone()];
            if wrote.is_err() || expect(&mut out, &mut buf, want).is_err() {
                failed_from = Some(k - 1);
                break;
            }
            if !want.is_empty() {
                latency_ns.push(u64::try_from(closed.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
        }
        if stdin.write_all(inp.bytes(lines.start + 1..lines.end)).is_err() {
            failed_from = Some(k);
            break;
        }
    }
    // Read while the daemon still runs: it exits once its input ends.
    let peak_rss_mb = peak_rss_mb(&Path::new("/proc").join(pid.to_string()).join("status")).ok();
    // End of input: the daemon checkpoints and flushes the last instant.
    drop(stdin);
    let last = inp.instants.len() - 1;
    if failed_from.is_none()
        && expect(&mut out, &mut buf, &inp.expected[inp.instants[last].1.clone()]).is_err()
    {
        failed_from = Some(last);
    }
    let wall_s = started.elapsed().as_secs_f64();
    buf.clear();
    if failed_from.is_none() && out.read_to_string(&mut buf).map_or(true, |_| !buf.is_empty()) {
        failed_from = Some(last);
    }
    latency_ns.sort_unstable();
    Drive { failed_from, latency_ns, wall_s, peak_rss_mb }
}

/// Drives one spawned daemon, killing it if it is still running at
/// `deadline` (a hung daemon then reads as end of stream), and waits
/// for it to exit.
fn drive_until(mut child: Child, inp: &Inputs, deadline: Instant) -> Result<Drive, String> {
    let stdin = child.stdin.take().expect("stdin is piped");
    let stdout = child.stdout.take().expect("stdout is piped");
    let pid = child.id();
    let child = Mutex::new(child);
    let (done, watch) = mpsc::channel::<()>();
    let mut drove = std::thread::scope(|s| {
        let child = &child;
        s.spawn(move || {
            let limit = deadline.saturating_duration_since(Instant::now());
            if watch.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
                let _ = child.lock().expect("child mutex").kill();
            }
        });
        let drove = drive(pid, stdin, stdout, inp);
        drop(done);
        drove
    });
    let mut child = child.into_inner().expect("child mutex");
    if drove.failed_from.is_some() {
        // It may be blocked writing decisions nobody reads any more.
        let _ = child.kill();
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    if !status.success() && drove.failed_from.is_none() {
        drove.failed_from = Some(0);
    }
    Ok(drove)
}

/// The daemon's journal holds exactly one record per input line with no
/// torn tail, and its newest snapshot decodes as a daemon checkpoint of
/// every submitted job.
fn check_directory(dir: &Path, inp: &Inputs) -> Result<(), String> {
    let (_, recovered) =
        Journal::open(&dir.join("events.wal")).map_err(|e| format!("journal: {e}"))?;
    if recovered.dropped_bytes != 0
        || recovered.records.len() != inp.lines.len()
        || recovered.records.iter().zip(&inp.lines).any(|(r, l)| r.as_slice() != l.as_bytes())
    {
        return Err(format!(
            "journal recovered {} records ({} torn bytes) for {} input lines",
            recovered.records.len(),
            recovered.dropped_bytes,
            inp.lines.len()
        ));
    }
    let store = SnapshotStore::open(dir, 1).map_err(|e| format!("snapshots: {e}"))?;
    let newest = *store.positions().map_err(|e| e.to_string())?.last().ok_or("no snapshot")?;
    let bytes = std::fs::read(store.path_for(newest)).map_err(|e| e.to_string())?;
    let info = inspect_bytes(&bytes).map_err(|e| format!("newest snapshot: {e}"))?;
    if info.kind != "daemon checkpoint" || info.jobs_submitted != Some(JOBS) {
        return Err(format!(
            "newest snapshot is a {} of {:?} jobs",
            info.kind, info.jobs_submitted
        ));
    }
    Ok(())
}

/// Counts the lines a replay failed: those of the first instant whose
/// decisions were missing or wrong, and every later line.
fn account(report: &mut Report, inp: &Inputs, drove: &Drive) {
    report.attempted += inp.lines.len() as u64;
    if let Some(k) = drove.failed_from {
        let from = inp.instants[k].0.start;
        report.failed += (inp.lines.len() - from) as u64;
        report.errors.push(format!("daemon output wrong or missing from input line {}", from + 1));
    }
}

/// The untraced run: back-to-back daemon replays, each with its own
/// set-up (inputs, reference stream, spawn), timed without a journal;
/// then one replay with the journal on, checked but not timed. Peak RSS
/// is the median of the timed replays' daemons.
pub fn measure(run: &Run) -> Result<Report, String> {
    let mut report = Report::default();
    let started = Instant::now();
    // A daemon still running by then is killed, so a hung program cannot
    // hold the run much past its measuring time.
    let deadline = started + run.seconds + Duration::from_secs(100);
    let inp = inputs(trace(run.seed))?;
    let (mut setups, mut walls, mut p50s, mut p99s, mut rss) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut last = Duration::ZERO;
    while run.another(started, setups.len(), last) {
        let t0 = Instant::now();
        let again = inputs(trace(run.seed))?;
        let child = spawn(run, None)?;
        setups.push(t0.elapsed().as_secs_f64());
        let drove = drive_until(child, &again, deadline)?;
        account(&mut report, &again, &drove);
        if again.hash != inp.hash || again.quality != inp.quality {
            report.errors.push("reference stream differs between replays".to_string());
        }
        if drove.latency_ns.len() < 1_000 {
            report.errors.push(format!("only {} decision samples", drove.latency_ns.len()));
        }
        match drove.peak_rss_mb {
            Some(mb) => rss.push(mb),
            None if drove.failed_from.is_none() => {
                report.errors.push("daemon exited before its peak RSS was read".to_string());
            }
            None => {}
        }
        walls.push(drove.wall_s);
        p50s.push(percentile_ns(&drove.latency_ns, 50.0));
        p99s.push(percentile_ns(&drove.latency_ns, 99.0));
        last = t0.elapsed();
    }

    let dir = run.workdir.join(format!("{NAME}-journal"));
    let drove = drive_until(spawn(run, Some(&dir))?, &inp, deadline)?;
    account(&mut report, &inp, &drove);
    if let Err(e) = check_directory(&dir, &inp) {
        report.errors.push(e);
    }
    if !report.errors.is_empty() {
        report.failed = report.attempted;
    }

    let best = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    report.metric("ops_per_s", inp.lines.len() as f64 / best(&walls), "1/s");
    report.metric("decision_p50_ms", best(&p50s) * 1e-6, "ms");
    report.metric("decision_p99_ms", best(&p99s) * 1e-6, "ms");
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mb", median(&rss), "MB");
    report.metric("node_usage_pct", inp.quality[0], "%");
    eprintln!(
        "{NAME}: {} replays of {} lines, {:.3} s fastest; journaled replay {:.3} s",
        walls.len(),
        inp.lines.len(),
        best(&walls),
        drove.wall_s
    );
    Ok(report)
}

/// The traced run, in process: the same lines through the pieces the
/// daemon is built from, untraced and then traced.
pub fn traced(run: &Run) -> Result<Report, String> {
    let mut report = Report::default();
    let setup = Tracer::shared();
    let inp = inputs(generate_traced(&setup, || trace(run.seed)))?;
    let cfg = SimConfig::default().sched();
    let dir = |part: &str| run.workdir.join(format!("{NAME}-{part}"));
    let untraced = durable::serve_in_process(
        &inp.system,
        cfg.clone(),
        &policy,
        &inp.lines,
        &dir("untraced"),
        false,
    )?;
    let pass =
        durable::serve_in_process(&inp.system, cfg, &policy, &inp.lines, &dir("traced"), true)?;
    report.attempted += inp.lines.len() as u64;
    if pass.hash != inp.hash || untraced.hash != inp.hash {
        report.errors.push("in-process durable path diverges from the simulator".to_string());
        report.failed += inp.lines.len() as u64;
    }
    report_companions(run, NAME, &mut report)?;

    layer_metrics(&mut report, &pass.tracer, &pass.counters, "sched.replay/feed");
    durable::report_layers(&mut report, &pass, JOBS);
    report.metric("generate_s", lock(&setup).layers()["workloads/generate"].busy_s(), "s");
    let lines = inp.lines.len() as f64;
    report.metric("trace.ops_per_s_delta", lines / pass.wall_s - lines / untraced.wall_s, "1/s");
    report_schedule(&mut report, inp.quality);
    write_spans(run, NAME, &[("setup", &setup), ("durable", &pass.tracer)])?;
    Ok(report)
}
