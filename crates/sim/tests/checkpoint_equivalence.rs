//! Checkpoint-equivalence golden suite (DESIGN.md §12): interrupting
//! the online replay driver after **every** event of the wire stream
//! (including cuts inside a same-instant batch), round-tripping its
//! snapshot ([`Replayer::snapshot`]) through the JSON wire encoding, and
//! continuing in a freshly restored driver ([`Replayer::restore`]) must
//! reproduce the uninterrupted run's decision stream byte for byte —
//! zero diffs. This is the guarantee the daemon's crash recovery rests
//! on.
//!
//! Cases cover a Cori-like trace (FCFS base) and a Theta-like trace
//! (WFP base), each under EASY and conservative backfilling.

use bbsched_policies::{GaParams, PolicyKind};
use bbsched_sched::{DecisionLog, JobEvent, ReplaySnapshot, Replayer, SchedObserver};
use bbsched_sim::{BackfillAlgorithm, BaseScheduler, SimConfig, Simulator};
use bbsched_workloads::{generate, GeneratorConfig, MachineProfile, Trace};

fn make_trace(profile: &MachineProfile, n_jobs: usize) -> Trace {
    generate(
        profile,
        &GeneratorConfig { n_jobs, seed: 23, load_factor: 1.5, ..GeneratorConfig::default() },
    )
}

/// Replay driver: cut after every wire event, resume in a fresh replayer
/// (fresh policy object, fresh observers), diff the concatenated stream.
fn check_replay_cuts(
    profile: &MachineProfile,
    base: BaseScheduler,
    algorithm: BackfillAlgorithm,
    n_jobs: usize,
) {
    let trace = make_trace(profile, n_jobs);
    let cfg = SimConfig { base, backfill_algorithm: algorithm, ..SimConfig::default() };
    let ga = GaParams { generations: 15, ..GaParams::default() };
    let kind = PolicyKind::Baseline;

    // The event stream a production feed would deliver: submits at trace
    // times, finishes at the simulated completion times.
    let result = Simulator::new(&profile.system, &trace, cfg.clone())
        .expect("valid test config")
        .run(kind.build(ga));
    let mut events: Vec<JobEvent> = trace.jobs().iter().cloned().map(JobEvent::Submit).collect();
    events.extend(result.records.iter().map(|r| JobEvent::Finish { id: r.id, time: r.end }));
    events.sort_by(|a, b| a.time().total_cmp(&b.time()));

    let full = {
        let mut log = DecisionLog::new();
        {
            let observers: Vec<&mut dyn SchedObserver> = vec![&mut log];
            let mut replayer =
                Replayer::new(&profile.system, cfg.sched(), kind.build(ga), observers)
                    .expect("valid test config");
            for event in &events {
                replayer.feed(event.clone()).expect("stream is valid");
            }
            replayer.finish().expect("final flush succeeds");
        }
        log.into_lines()
    };

    for cut in 0..=events.len() {
        let mut head_log = DecisionLog::new();
        let json;
        {
            let observers: Vec<&mut dyn SchedObserver> = vec![&mut head_log];
            let mut replayer =
                Replayer::new(&profile.system, cfg.sched(), kind.build(ga), observers)
                    .expect("valid test config");
            for event in &events[..cut] {
                replayer.feed(event.clone()).expect("stream is valid");
            }
            json = serde_json::to_string(&replayer.snapshot()).expect("snapshot serializes");
        }

        let snap: ReplaySnapshot = serde_json::from_str(&json).expect("snapshot decodes");
        let mut tail_log = DecisionLog::new();
        {
            let observers: Vec<&mut dyn SchedObserver> = vec![&mut tail_log];
            let mut replayer =
                Replayer::restore(snap, kind.build(ga), observers).expect("snapshot restores");
            for event in &events[cut..] {
                replayer.feed(event.clone()).expect("stream is valid");
            }
            let summary = replayer.finish().expect("final flush succeeds");
            assert_eq!(summary.left_waiting, 0, "cut at event {cut}");
            assert_eq!(summary.left_running, 0, "cut at event {cut}");
        }

        let mut combined = head_log.into_lines();
        combined.extend(tail_log.into_lines());
        assert_eq!(
            combined, full,
            "{base:?}/{algorithm:?}: replay stream diverges when cut at event {cut}"
        );
    }
}

#[test]
fn cori_fcfs_easy_replay_cuts_are_byte_identical() {
    check_replay_cuts(
        &MachineProfile::cori().scaled(0.03),
        BaseScheduler::Fcfs,
        BackfillAlgorithm::Easy,
        60,
    );
}

#[test]
fn cori_fcfs_conservative_replay_cuts_are_byte_identical() {
    check_replay_cuts(
        &MachineProfile::cori().scaled(0.03),
        BaseScheduler::Fcfs,
        BackfillAlgorithm::Conservative,
        60,
    );
}

#[test]
fn theta_wfp_easy_replay_cuts_are_byte_identical() {
    check_replay_cuts(
        &MachineProfile::theta().scaled(0.03),
        BaseScheduler::Wfp,
        BackfillAlgorithm::Easy,
        60,
    );
}

#[test]
fn theta_wfp_conservative_replay_cuts_are_byte_identical() {
    check_replay_cuts(
        &MachineProfile::theta().scaled(0.03),
        BaseScheduler::Wfp,
        BackfillAlgorithm::Conservative,
        60,
    );
}
