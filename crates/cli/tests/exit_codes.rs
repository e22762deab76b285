//! Process-level exit-code regression tests: scripts depend on the
//! `CliError` exit-code map (1 = run failure, 2 = usage, 3 = bad input,
//! 4 = cannot write output), so it is pinned here against the real
//! binary.

use std::process::Command;

fn bbsched(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bbsched")).args(args).output().expect("binary must spawn")
}

#[test]
fn unknown_command_exits_2() {
    let out = bbsched(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn unknown_option_exits_2() {
    let out = bbsched(&["stats", "--trase", "x"]);
    assert_eq!(out.status.code(), Some(2));
    // compare's what-if forking is gone: its options are plain typos now.
    for (args, option) in [
        (["compare", "--machine", "theta", "--fork-at", "5000"], "--fork-at"),
        (["compare", "--machine", "theta", "--warm-policy", "Baseline"], "--warm-policy"),
    ] {
        let out = bbsched(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown option {option}")), "{args:?}: {stderr}");
    }
}

#[test]
fn missing_trace_file_exits_3() {
    let out = bbsched(&["stats", "--trace", "/nonexistent/trace.jsonl"]);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot load trace"));
}

#[test]
fn malformed_trace_exits_3() {
    let dir = std::env::temp_dir().join(format!("bbsched_exit_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("garbage.jsonl");
    std::fs::write(&path, "this is not a job record\n{nor is this}\n").unwrap();
    let out = bbsched(&["simulate", "--trace", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "malformed trace must be an input error");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_event_stream_exits_3() {
    let dir = std::env::temp_dir().join(format!("bbsched_exit_ev_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad_events.jsonl");
    std::fs::write(&path, "{\"type\":\"launch\"}\n").unwrap();
    let out = bbsched(&["replay", "--events", path.to_str().unwrap(), "--machine", "cori"]);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 1"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A parse error names the 1-based physical number of the bad input
/// line, blank lines included.
#[test]
fn serve_names_the_bad_input_line() {
    let dir = std::env::temp_dir().join(format!("bbsched_exit_l4_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let first = TINY_FEED.lines().next().unwrap();
    let three: String = TINY_FEED.lines().take(3).map(|l| format!("{l}\n")).collect();
    let feeds = [
        ("bad_fourth.jsonl", format!("{three}{{\"type\":\"launch\"}}\n"), "input line 4:"),
        ("bad_after_blank.jsonl", format!("{first}\n\n{{\"type\":\"launch\"}}\n"), "input line 3:"),
    ];
    for (name, feed, want) in feeds {
        let path = dir.join(name);
        std::fs::write(&path, feed).unwrap();
        let out = bbsched(&["serve", "--events", path.to_str().unwrap(), "--machine", "cori"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{name}: {stderr}");
        assert!(stderr.contains(want), "{name}: want '{want}', got {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn time_regressing_event_stream_exits_1() {
    let dir = std::env::temp_dir().join(format!("bbsched_exit_tr_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("regress.jsonl");
    // A finish for a job that was never submitted is a replay (run)
    // failure, not a parse failure.
    std::fs::write(&path, "{\"type\":\"finish\",\"id\":7,\"time\":10.0}\n").unwrap();
    let out = bbsched(&["replay", "--events", path.to_str().unwrap(), "--machine", "cori"]);
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unwritable_output_exits_4() {
    let out = bbsched(&[
        "generate",
        "--machine",
        "cori",
        "--jobs",
        "5",
        "--scale",
        "0.02",
        "--out",
        "/nonexistent_dir/t.jsonl",
    ]);
    assert_eq!(out.status.code(), Some(4));
}

/// Two small jobs submitted, then both finished.
const TINY_FEED: &str = "\
{\"type\":\"submit\",\"job\":{\"id\":0,\"submit\":0.0,\"nodes\":1,\"runtime\":50.0,\"walltime\":100.0,\"bb_gb\":0.0,\"ssd_gb_per_node\":0.0,\"deps\":[],\"extra\":[]}}
{\"type\":\"submit\",\"job\":{\"id\":1,\"submit\":1.0,\"nodes\":1,\"runtime\":50.0,\"walltime\":100.0,\"bb_gb\":0.0,\"ssd_gb_per_node\":0.0,\"deps\":[],\"extra\":[]}}
{\"type\":\"finish\",\"id\":0,\"time\":50.0}
{\"type\":\"finish\",\"id\":1,\"time\":51.0}
";

#[test]
fn replay_streams_decisions_for_a_tiny_feed() {
    // End-to-end smoke: submit two small jobs, finish one, check the
    // decision stream on stdout and the summary on stderr.
    let dir = std::env::temp_dir().join(format!("bbsched_exit_ok_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("events.jsonl");
    std::fs::write(&path, TINY_FEED).unwrap();
    let out = bbsched(&[
        "replay",
        "--events",
        path.to_str().unwrap(),
        "--machine",
        "cori",
        "--policy",
        "Baseline",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let starts: Vec<&str> = stdout.lines().filter(|l| l.contains("\"start\"")).collect();
    assert_eq!(starts.len(), 2, "both jobs must start: {stdout}");
    assert!(stdout.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("served 4 lines (4 job events)"), "summary on stderr: {stderr}");
    assert!(stderr.contains("2 jobs"), "summary counts jobs: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A decision stream small enough to sit in the output buffer until the
/// end still reports a failed write: the final flush's error exits 4.
/// stdout is `/dev/full`, where every write fails.
#[cfg(target_os = "linux")]
#[test]
fn replay_into_a_full_stdout_exits_4() {
    let dir = std::env::temp_dir().join(format!("bbsched_exit_full_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("events.jsonl");
    std::fs::write(&path, TINY_FEED).unwrap();
    let full = std::fs::OpenOptions::new().write(true).open("/dev/full").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bbsched"))
        .args(["replay", "--events", path.to_str().unwrap(), "--machine", "cori"])
        .stdout(full)
        .output()
        .expect("binary must spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "stderr: {stderr}");
    assert!(stderr.contains("cannot write decision stream"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
