//! Process-level tests for the `serve` daemon (DESIGN.md §13): the
//! journaled decision stream matches the golden replay fixture, a
//! SIGTERM'd daemon recovers with `--recover` to a byte-identical
//! concatenated stream, so does a `--stop-after` cut, live policy
//! hot-swap is journaled and deterministic, a failed decision stream is reported at exit, and
//! `snapshot inspect` reports snapshot facts with typed exit codes.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn ci_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../ci")
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bbsched_serve_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bbsched() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bbsched"))
}

/// The fixture scenario flags shared with `ci/replay_expected.jsonl`.
const SCENARIO: [&str; 6] = ["--machine", "cori", "--scale", "0.05", "--policy", "Baseline"];

fn fixture_events() -> String {
    std::fs::read_to_string(ci_dir().join("replay_events.jsonl")).unwrap()
}

fn fixture_expected() -> String {
    std::fs::read_to_string(ci_dir().join("replay_expected.jsonl")).unwrap()
}

/// Snapshot files in a journal directory, oldest first.
fn snapshots(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("snap-") && n.ends_with(".ckpt"))
        })
        .collect();
    snaps.sort();
    snaps
}

/// A journaling daemon fed the fixture file emits exactly the golden
/// replay stream, periodic stats lines on stderr, and inspectable
/// snapshots.
#[test]
fn serve_over_file_matches_the_golden_stream() {
    let dir = tempdir("golden");
    let events = ci_dir().join("replay_events.jsonl");
    let out = bbsched()
        .args(["serve", "--events", events.to_str().unwrap()])
        .args(SCENARIO)
        .args(["--journal", dir.to_str().unwrap(), "--snapshot-every", "40", "--stats-every", "25"])
        .output()
        .expect("binary must spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "serve failed: {stderr}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), fixture_expected(), "decision stream");
    assert!(stderr.contains("served 200 lines (200 job events)"), "{stderr}");
    assert!(stderr.contains("{\"type\":\"stats\","), "periodic stats lines: {stderr}");

    let snaps = snapshots(&dir);
    assert!(!snaps.is_empty(), "rolling snapshots were written");
    assert!(snaps.len() <= 3, "default retention keeps at most 3, got {}", snaps.len());
    assert!(dir.join("events.wal").exists(), "journal was written");

    let inspect = bbsched()
        .args(["snapshot", "inspect", snaps.last().unwrap().to_str().unwrap()])
        .output()
        .expect("binary must spawn");
    assert_eq!(inspect.status.code(), Some(0));
    let report = String::from_utf8_lossy(&inspect.stdout);
    for needle in ["daemon checkpoint", "binary", "schema version: 1", "Baseline"] {
        assert!(report.contains(needle), "inspect output missing '{needle}':\n{report}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill-and-recover is lossless: a daemon reading stdin is SIGTERM'd
/// mid-stream (graceful drain: final snapshot, no flush), then a second
/// process recovers the journal directory and resumes from the fixture
/// file. head-stdout + tail-stdout must equal the golden stream byte
/// for byte, wherever the signal lands.
#[test]
fn sigterm_drain_then_recover_is_byte_identical() {
    let dir = tempdir("term");
    let events = fixture_events();
    let head_lines: Vec<&str> = events.lines().take(150).collect();

    let mut child = bbsched()
        .args(["serve", "--events", "-"])
        .args(SCENARIO)
        .args(["--journal", dir.to_str().unwrap(), "--snapshot-every", "20"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary must spawn");
    let mut stdin = child.stdin.take().unwrap();
    for line in &head_lines {
        writeln!(stdin, "{line}").unwrap();
    }
    stdin.flush().unwrap();
    // Let the daemon drain the pipe, then signal it; only then close
    // stdin so a daemon parked in read(2) reaches its EOF term check.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill must run");
    assert!(kill.success());
    std::thread::sleep(std::time::Duration::from_millis(200));
    drop(stdin);
    let head = child.wait_with_output().unwrap();
    let head_err = String::from_utf8_lossy(&head.stderr);
    assert!(head.status.success(), "head exited with {:?}: {head_err}", head.status.code());
    assert!(
        head_err.contains("sigterm: drained at line") && head_err.contains("final snapshot"),
        "{head_err}"
    );

    let events_path = ci_dir().join("replay_events.jsonl");
    let tail = bbsched()
        .args(["serve", "--events", events_path.to_str().unwrap()])
        .args(SCENARIO)
        .args(["--recover", dir.to_str().unwrap(), "--snapshot-every", "20"])
        .output()
        .expect("binary must spawn");
    let tail_err = String::from_utf8_lossy(&tail.stderr);
    assert!(tail.status.success(), "recovery failed: {tail_err}");
    assert!(tail_err.contains("recovered: snapshot at line"), "{tail_err}");

    let mut combined = String::from_utf8(head.stdout).unwrap();
    combined.push_str(&String::from_utf8(tail.stdout).unwrap());
    assert_eq!(combined, fixture_expected(), "head + recovered tail diverge from golden stream");
    std::fs::remove_dir_all(&dir).ok();
}

/// A deterministic cut: a journaling daemon stops after `cut` input
/// lines (final snapshot, no flush), then a second process recovers the
/// directory and serves the rest of the fixture file. head + tail must
/// equal the golden stream byte for byte at the first line, mid-stream,
/// the last line but one, and the last line.
#[test]
fn stop_after_then_recover_matches_the_golden_stream() {
    let events = ci_dir().join("replay_events.jsonl");
    let events = events.to_str().unwrap();
    for cut in ["1", "100", "199", "200"] {
        let dir = tempdir(&format!("stop_{cut}"));
        let journal = dir.to_str().unwrap();
        let head = bbsched()
            .args(["serve", "--events", events])
            .args(SCENARIO)
            .args(["--journal", journal, "--snapshot-every", "40", "--stop-after", cut])
            .output()
            .expect("binary must spawn");
        let head_err = String::from_utf8_lossy(&head.stderr);
        assert!(head.status.success(), "head (cut {cut}) failed: {head_err}");
        assert!(head_err.contains(&format!("stopped after {cut} lines")), "{head_err}");

        let tail = bbsched()
            .args(["serve", "--events", events, "--recover", journal])
            .output()
            .expect("binary must spawn");
        let tail_err = String::from_utf8_lossy(&tail.stderr);
        assert!(tail.status.success(), "tail (cut {cut}) failed: {tail_err}");
        assert!(tail_err.contains(&format!("recovered: snapshot at line {cut}")), "{tail_err}");

        let mut combined = String::from_utf8(head.stdout).unwrap();
        combined.push_str(&String::from_utf8(tail.stdout).unwrap());
        assert_eq!(
            combined,
            fixture_expected(),
            "cut at line {cut} diverges from the golden stream"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A live `set-policy` control event swaps the policy deterministically
/// (two independent runs agree byte for byte), is journaled, announced
/// on stderr, and recorded in subsequent snapshots.
#[test]
fn policy_hot_swap_is_journaled_and_deterministic() {
    let events = fixture_events();
    let mut stream = String::new();
    for (i, line) in events.lines().enumerate() {
        if i == 100 {
            stream.push_str("{\"type\":\"set-policy\",\"name\":\"Weighted\"}\n");
        }
        stream.push_str(line);
        stream.push('\n');
    }
    let dir_a = tempdir("swap_a");
    let dir_b = tempdir("swap_b");
    let input = dir_a.join("input.jsonl");
    std::fs::write(&input, &stream).unwrap();

    let run = |journal: &std::path::Path| {
        let out = bbsched()
            .args(["serve", "--events", input.to_str().unwrap()])
            .args(SCENARIO)
            .args(["--journal", journal.to_str().unwrap(), "--snapshot-every", "25"])
            .output()
            .expect("binary must spawn");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{stderr}");
        assert!(stderr.contains("policy hot-swap at line 101: Baseline -> Weighted"), "{stderr}");
        assert!(stderr.contains("served 201 lines (200 job events)"), "{stderr}");
        String::from_utf8(out.stdout).unwrap()
    };
    let out_a = run(&dir_a);
    let out_b = run(&dir_b);
    assert_eq!(out_a, out_b, "hot-swap runs must be deterministic");

    // The newest snapshot (the EOF pre-flush checkpoint) carries the
    // swapped policy.
    let snaps = snapshots(&dir_a);
    let inspect = bbsched()
        .args(["snapshot", "inspect", snaps.last().unwrap().to_str().unwrap()])
        .output()
        .expect("binary must spawn");
    assert_eq!(inspect.status.code(), Some(0));
    let report = String::from_utf8_lossy(&inspect.stdout);
    assert!(report.contains("Weighted"), "snapshot records the swapped policy:\n{report}");
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// Flag misuse is a usage error (2); unrecoverable state is an input
/// error (3); a non-recovery start refuses a dirty journal directory.
#[test]
fn serve_errors_have_the_right_exit_codes() {
    let out = bbsched()
        .args(["serve", "--events", "-"])
        .args(SCENARIO)
        .args(["--snapshot-every", "5"])
        .output()
        .expect("binary must spawn");
    assert_eq!(out.status.code(), Some(2), "--snapshot-every without --journal is usage");

    let empty = tempdir("empty");
    let out = bbsched()
        .args(["serve", "--events", "-"])
        .args(SCENARIO)
        .args(["--recover", empty.to_str().unwrap()])
        .output()
        .expect("binary must spawn");
    assert_eq!(out.status.code(), Some(3), "--recover with no snapshot is an input error");

    // A completed run's directory cannot be silently reused without
    // --recover.
    let dirty = tempdir("dirty");
    let events = ci_dir().join("replay_events.jsonl");
    let out = bbsched()
        .args(["serve", "--events", events.to_str().unwrap()])
        .args(SCENARIO)
        .args(["--journal", dirty.to_str().unwrap()])
        .output()
        .expect("binary must spawn");
    assert!(out.status.success());
    let out = bbsched()
        .args(["serve", "--events", events.to_str().unwrap()])
        .args(SCENARIO)
        .args(["--journal", dirty.to_str().unwrap()])
        .output()
        .expect("binary must spawn");
    assert_eq!(out.status.code(), Some(2), "dirty journal dir without --recover is usage");
    std::fs::remove_dir_all(&empty).ok();
    std::fs::remove_dir_all(&dirty).ok();
}

/// A decision stream that cannot be written does not stop the daemon
/// mid-input: the first failed decision write is latched, the rest of
/// the input is served, and the daemon exits 4 naming the decision
/// stream. stdout is `/dev/full`, so every write fails (ENOSPC) from
/// the first one on, whatever the scheduling of the two processes.
#[cfg(target_os = "linux")]
#[test]
fn failed_decision_stream_is_reported_at_exit() {
    let events = ci_dir().join("replay_events.jsonl");
    let full = std::fs::OpenOptions::new().write(true).open("/dev/full").unwrap();
    let out = bbsched()
        .args(["serve", "--events", events.to_str().unwrap()])
        .args(SCENARIO)
        .stdout(Stdio::from(full))
        .output()
        .expect("binary must run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(stderr.contains("served 200 lines"), "{stderr}");
    assert!(stderr.contains("cannot write decision stream"), "{stderr}");
}

/// `snapshot inspect` exit codes: 0 on a readable snapshot (either
/// encoding), 3 on garbage, 2 on usage mistakes.
#[test]
fn snapshot_inspect_exit_codes() {
    let dir = tempdir("inspect");
    let garbage = dir.join("garbage.ckpt");
    std::fs::write(&garbage, b"BBSNAP\x01this is not a snapshot").unwrap();
    let out = bbsched()
        .args(["snapshot", "inspect", garbage.to_str().unwrap()])
        .output()
        .expect("binary must spawn");
    assert_eq!(out.status.code(), Some(3), "corrupt snapshot is an input error");

    let out = bbsched().args(["snapshot"]).output().expect("binary must spawn");
    assert_eq!(out.status.code(), Some(2), "missing verb is usage");
    let out = bbsched().args(["snapshot", "frobnicate", "x"]).output().expect("binary must spawn");
    assert_eq!(out.status.code(), Some(2), "unknown verb is usage");
    let out = bbsched()
        .args(["snapshot", "inspect", dir.join("nope.ckpt").to_str().unwrap()])
        .output()
        .expect("binary must spawn");
    assert_eq!(out.status.code(), Some(3), "missing file is an input error");
    std::fs::remove_dir_all(&dir).ok();
}
