//! Checked-in replay smoke fixtures (`ci/replay_events.jsonl` and
//! `ci/replay_expected.jsonl`).
//!
//! CI pipes the event file through `bbsched replay --machine cori
//! --scale 0.05 --policy Baseline` (an alias of `bbsched serve`) and
//! diffs stdout against the expected stream, pinning the whole path
//! binary → event parser → service core → decision wire format; the
//! daemon's own two-process checks live in `serve_daemon.rs`. The non-ignored test here keeps the fixtures
//! honest under plain `cargo test`; the `#[ignore]`d one regenerates them
//! after an intentional behavior change:
//!
//! ```text
//! cargo test -p bbsched-cli --test replay_fixtures -- --ignored
//! ```

use bbsched_policies::{GaParams, PolicyKind};
use bbsched_sched::{DecisionLog, JobEvent, Replayer, SchedObserver};
use bbsched_sim::{SimConfig, Simulator};
use bbsched_workloads::{generate, GeneratorConfig, MachineProfile};
use std::path::PathBuf;

const N_JOBS: usize = 100;
const SEED: u64 = 4242;

fn ci_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../ci")
}

/// The fixture scenario — must match the CI invocation exactly:
/// Cori at 5% scale, FCFS + EASY window backfill (the `--machine cori`
/// defaults), Baseline policy.
fn profile_and_cfg() -> (MachineProfile, SimConfig) {
    (MachineProfile::cori().scaled(0.05), SimConfig::default())
}

/// Synthesizes the event file content and the expected decision stream by
/// running the simulator driver once (finish times come from its records).
fn synthesize() -> (String, String) {
    let (profile, cfg) = profile_and_cfg();
    let trace = generate(
        &profile,
        &GeneratorConfig {
            n_jobs: N_JOBS,
            seed: SEED,
            load_factor: 2.0,
            ..GeneratorConfig::default()
        },
    );
    let mut log = DecisionLog::new();
    let result = Simulator::new(&profile.system, &trace, cfg)
        .expect("fixture config is valid")
        .run_observed(PolicyKind::Baseline.build(GaParams::default()), &mut [&mut log]);
    assert_eq!(result.records.len(), N_JOBS);

    let mut events: Vec<JobEvent> = trace.jobs().iter().cloned().map(JobEvent::Submit).collect();
    events.extend(result.records.iter().map(|r| JobEvent::Finish { id: r.id, time: r.end }));
    events.sort_by(|a, b| a.time().total_cmp(&b.time()));

    let mut event_lines = String::new();
    for e in &events {
        event_lines.push_str(&e.to_json_line());
        event_lines.push('\n');
    }
    let mut expected = String::new();
    for l in log.lines() {
        expected.push_str(l);
        expected.push('\n');
    }
    (event_lines, expected)
}

#[test]
fn replay_fixtures_match_the_simulator() {
    let (event_lines, expected) = synthesize();
    let on_disk_events = std::fs::read_to_string(ci_dir().join("replay_events.jsonl"))
        .expect("ci/replay_events.jsonl exists — regenerate with `-- --ignored`");
    let on_disk_expected = std::fs::read_to_string(ci_dir().join("replay_expected.jsonl"))
        .expect("ci/replay_expected.jsonl exists — regenerate with `-- --ignored`");
    assert_eq!(on_disk_events, event_lines, "stale ci/replay_events.jsonl");
    assert_eq!(on_disk_expected, expected, "stale ci/replay_expected.jsonl");

    // And the replay driver itself reproduces the expected stream from the
    // on-disk events — the same equivalence CI checks through the binary.
    let (profile, cfg) = profile_and_cfg();
    let mut log = DecisionLog::new();
    {
        let observers: Vec<&mut dyn SchedObserver> = vec![&mut log];
        let mut replayer = Replayer::new(
            &profile.system,
            cfg.sched(),
            PolicyKind::Baseline.build(GaParams::default()),
            observers,
        )
        .expect("fixture config is valid");
        for (n, line) in on_disk_events.lines().enumerate() {
            let event =
                JobEvent::parse(line).unwrap_or_else(|e| panic!("fixture line {}: {e}", n + 1));
            replayer.feed(event).expect("fixture stream is valid");
        }
        let summary = replayer.finish().expect("fixture stream drains");
        assert_eq!(summary.left_waiting, 0);
        assert_eq!(summary.left_running, 0);
    }
    let replayed: String = log.lines().iter().map(|l| format!("{l}\n")).collect();
    assert_eq!(replayed, expected, "replay diverges from the expected stream");
}

#[test]
#[ignore = "writes the checked-in fixtures; run after intentional changes"]
fn regenerate_replay_fixtures() {
    let (event_lines, expected) = synthesize();
    std::fs::write(ci_dir().join("replay_events.jsonl"), event_lines).unwrap();
    std::fs::write(ci_dir().join("replay_expected.jsonl"), expected).unwrap();
}

/// `replay` is an alias of `serve`: the checkpoint flags it once had
/// are unknown options, and `--stop-after` must be at least 1. Each is a
/// usage error (exit 2).
#[test]
fn checkpoint_flag_errors_have_the_right_exit_codes() {
    let events = ci_dir().join("replay_events.jsonl");
    let events = events.to_str().unwrap();
    for (command, flag, value) in [
        ("replay", "--checkpoint", "x"),
        ("replay", "--resume", "x"),
        ("replay", "--checkpoint-every", "5"),
        ("serve", "--stop-after", "0"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_bbsched"))
            .args([command, "--events", events, "--machine", "cori", flag, value])
            .output()
            .expect("binary must spawn");
        assert_eq!(out.status.code(), Some(2), "{command} {flag} {value} is a usage error");
    }
}
