//! Property test: the column scan inside [`AvailabilityProfile`] is
//! bit-identical to the frozen scan-everything [`LegacyProfile`].
//!
//! Every profile stores its segments as columns — one per pooled
//! resource, plus one flavour suffix count per flavour on machines with
//! per-node SSDs — and answers queries with the column scan, which must
//! be pure acceleration: indistinguishable from the linear walk over
//! materialized states (the `*_linear` oracles), which in turn must match
//! [`LegacyProfile`]. This harness seeds large machines with enough
//! staggered releases to grow deep profiles (192-plus segments), then
//! drives random start / finish / reserve interleavings over pooled
//! R ∈ {2, 3} and flavoured R ∈ {3, 4} systems (two- and three-tier
//! heterogeneous SSD flavours); three small unseeded R ∈ {2, 3, 4}
//! systems run the same interleavings on shallow profiles, where most
//! demands fail to fit. At every pass it asserts:
//!
//! 1. the [`ReleaseMirror`]-fed in-place fold `==` a from-scratch
//!    [`AvailabilityProfile::new`] over the ledger's release schedule;
//! 2. `earliest_start` / `fits_interval` / `state_at` from the scan
//!    `==` the `*_linear` oracles `==` `LegacyProfile`, both on a
//!    freshly folded profile and after reservations have split segments
//!    and raised the watermark;
//! 3. post-`reserve` boundaries and states are bit-identical between
//!    the column-stored profile and `LegacyProfile`, after dozens of
//!    carves per pass — on flavoured systems that checks the suffix
//!    carve against greedy smallest-sufficient-flavour allocation;
//! 4. `advance_origin` (the replay fast path's origin drop) agrees with
//!    a from-scratch clamp-fold at the advanced instant;
//! 5. `restore(snapshot())` equals the profile and re-snapshots to
//!    byte-identical JSON;
//! 6. once every job has finished, the drained ledger refolds to the
//!    from-scratch profile too.
//!
//! A second harness drives burst-buffer-free demands, which the scan
//! answers from the columns that can still fail them: the node column
//! alone while the burst-buffer column holds no negative value. It checks
//! them against `LegacyProfile` both while that holds and after carves
//! have driven burst-buffer values to tiny negatives (within `FIT_EPS` of
//! fitting), where the burst-buffer column must be scanned again.
//!
//! Debug builds double the coverage for free: the queries internally
//! cross-check the scan answers against the linear walk via
//! `debug_assert!` oracles on every call made here.

use bbsched_core::pools::{PoolState, FIT_EPS};
use bbsched_core::problem::{JobDemand, SSD_LARGE_GB, SSD_SMALL_GB};
use bbsched_core::resource::{DemandSlot, Flavor, FlavorSet, ResourceModel, ResourceSpec};
use bbsched_sched::{AllocLedger, AvailabilityProfile, LegacyProfile, ReleaseMirror};
use proptest::prelude::*;

/// One encoded operation: `(kind, a, b, c)` with `kind % 3` selecting
/// finish / query-pass / reserve-pass and the rest seeding demands.
type Op = (u8, u16, u16, u16);

/// Segments every seeded profile must reach before the random
/// interleaving starts, so the evaluators are checked on deep profiles
/// (the regime of the 20k-job benches), not only on short ones.
const DEEP_PROFILE_SEGMENTS: usize = 192;

/// Reservations attempted per reserve pass. About 45 of them carve, each
/// splitting in about one boundary, so the column-stored pooled profiles
/// grow well past `DEEP_PROFILE_SEGMENTS` through `split_at` and the
/// column carve, not through the fold alone.
const RESERVES_PER_PASS: u16 = 64;

/// A system under test: its full pool, a demand generator mapping raw op
/// words onto (sometimes infeasible) probe demands, and how many
/// staggered seed jobs to start before the random interleaving begins
/// (none for the shallow systems).
struct SystemUnderTest {
    pool: PoolState,
    demand: fn(u16, u16, u16) -> JobDemand,
    seed_jobs: usize,
    /// Seed-phase per-node SSD demand (flavoured systems only).
    seed_ssd: fn(usize) -> f64,
}

fn systems() -> Vec<SystemUnderTest> {
    // R = 2, pooled only: big enough for 230 concurrent single-node
    // jobs, so the column scan works 192-plus-segment profiles.
    let pooled = SystemUnderTest {
        pool: PoolState::cpu_bb(512, 50_000.0),
        demand: |a, b, _| JobDemand::cpu_bb(1 + u32::from(a) % 600, f64::from(b % 800) * 70.0),
        seed_jobs: 230,
        seed_ssd: |_| 0.0,
    };
    // R = 3, pooled only (an extra GPU pool): the column scan's generic
    // width path, outside the two-column fast path.
    let model = ResourceModel::new(vec![
        ResourceSpec::pooled("nodes", 512.0, DemandSlot::Nodes),
        ResourceSpec::pooled("bb_gb", 50_000.0, DemandSlot::BbGb),
        ResourceSpec::pooled("gpus", 1_024.0, DemandSlot::Extra(0)),
    ])
    .expect("3-resource pooled test model is valid");
    let pooled3 = SystemUnderTest {
        pool: PoolState::from_model(&model),
        demand: |a, b, c| {
            JobDemand::cpu_bb(1 + u32::from(a) % 600, f64::from(b % 800) * 70.0)
                .with_extra(0, f64::from(c % 1_100))
        },
        seed_jobs: 230,
        seed_ssd: |_| 0.0,
    };
    // R = 3, heterogeneous two-tier local SSDs: 256 flavoured nodes, so
    // the scan works deep flavoured profiles once the seed jobs are
    // running.
    let ssd = SystemUnderTest {
        pool: PoolState::with_ssd(128, 128, 30_000.0),
        demand: |a, b, c| {
            let ssd = match c % 4 {
                0 => 0.0,
                1 => 64.0,
                2 => 150.0,
                _ => 240.0,
            };
            JobDemand::cpu_bb_ssd(1 + u32::from(a) % 300, f64::from(b % 700) * 45.0, ssd)
        },
        seed_jobs: 225,
        seed_ssd: |i| match i % 8 {
            0..=3 => 0.0,
            4 | 5 => 64.0,
            6 => 150.0,
            _ => 240.0,
        },
    };
    // R = 4: flavoured SSDs plus an extra pooled resource (GPUs).
    let model = ResourceModel::new(vec![
        ResourceSpec::pooled("nodes", 256.0, DemandSlot::Nodes),
        ResourceSpec::pooled("bb_gb", 25_000.0, DemandSlot::BbGb),
        ResourceSpec::per_node(
            "ssd",
            FlavorSet::two_tier(SSD_SMALL_GB, 128, SSD_LARGE_GB, 128),
            DemandSlot::SsdPerNode,
        ),
        ResourceSpec::pooled("gpus", 512.0, DemandSlot::Extra(0)),
    ])
    .expect("4-resource test model is valid");
    let four = SystemUnderTest {
        pool: PoolState::from_model(&model),
        demand: |a, b, c| {
            let ssd = if c % 3 == 0 { 0.0 } else { f64::from(c % 200) };
            JobDemand::cpu_bb_ssd(1 + u32::from(a) % 280, f64::from(b % 600) * 35.0, ssd)
                .with_extra(0, f64::from(c % 520))
        },
        seed_jobs: 225,
        seed_ssd: |i| if i % 3 == 0 { 64.0 } else { 0.0 },
    };
    // R = 3, three-tier local SSDs (64/128/256 GB): a demand's greedy
    // overflow can cross more than one tier, the only arithmetic the
    // suffix carve adds over two tiers.
    let model = ResourceModel::new(vec![
        ResourceSpec::pooled("nodes", 270.0, DemandSlot::Nodes),
        ResourceSpec::pooled("bb_gb", 30_000.0, DemandSlot::BbGb),
        ResourceSpec::per_node(
            "ssd",
            FlavorSet::new(&[
                Flavor { capacity: 64.0, count: 90 },
                Flavor { capacity: SSD_SMALL_GB, count: 90 },
                Flavor { capacity: SSD_LARGE_GB, count: 90 },
            ]),
            DemandSlot::SsdPerNode,
        ),
    ])
    .expect("three-tier test model is valid");
    let tiers = SystemUnderTest {
        pool: PoolState::from_model(&model),
        demand: |a, b, c| {
            let ssd = match c % 5 {
                0 => 0.0,
                1 => 32.0,
                2 => 100.0,
                3 => 200.0,
                _ => 250.0,
            };
            JobDemand::cpu_bb_ssd(1 + u32::from(a) % 300, f64::from(b % 700) * 45.0, ssd)
        },
        seed_jobs: 225,
        seed_ssd: |i| match i % 6 {
            0 | 1 => 0.0,
            2 | 3 => 32.0,
            4 => 100.0,
            _ => 200.0,
        },
    };
    // Shallow systems: small machines, no seed phase, demands often
    // larger than the machine.
    // R = 2: pooled nodes + shared burst buffer.
    let small_pooled = SystemUnderTest {
        pool: PoolState::cpu_bb(32, 800.0),
        demand: |a, b, _| JobDemand::cpu_bb(1 + u32::from(a) % 34, f64::from(b % 900)),
        seed_jobs: 0,
        seed_ssd: |_| 0.0,
    };
    // R = 3: nodes + burst buffer + two-tier local SSDs.
    let small_ssd = SystemUnderTest {
        pool: PoolState::with_ssd(12, 12, 600.0),
        demand: |a, b, c| {
            let ssd = match c % 4 {
                0 => 0.0,
                1 => 64.0,
                2 => 150.0,
                _ => 240.0,
            };
            JobDemand::cpu_bb_ssd(1 + u32::from(a) % 26, f64::from(b % 700), ssd)
        },
        seed_jobs: 0,
        seed_ssd: |_| 0.0,
    };
    // R = 4: nodes + burst buffer + SSD flavours + GPUs.
    let model = ResourceModel::new(vec![
        ResourceSpec::pooled("nodes", 20.0, DemandSlot::Nodes),
        ResourceSpec::pooled("bb_gb", 500.0, DemandSlot::BbGb),
        ResourceSpec::per_node(
            "ssd",
            FlavorSet::two_tier(SSD_SMALL_GB, 10, SSD_LARGE_GB, 10),
            DemandSlot::SsdPerNode,
        ),
        ResourceSpec::pooled("gpus", 16.0, DemandSlot::Extra(0)),
    ])
    .expect("small 4-resource test model is valid");
    let small_four = SystemUnderTest {
        pool: PoolState::from_model(&model),
        demand: |a, b, c| {
            let ssd = if c % 3 == 0 { 0.0 } else { f64::from(c % 200) };
            JobDemand::cpu_bb_ssd(1 + u32::from(a) % 22, f64::from(b % 600), ssd)
                .with_extra(0, f64::from(c % 18))
        },
        seed_jobs: 0,
        seed_ssd: |_| 0.0,
    };
    vec![pooled, pooled3, ssd, four, tiers, small_pooled, small_ssd, small_four]
}

/// Asserts the scanned query, its linear oracle and `LegacyProfile`
/// agree on one query shape.
fn check_queries(
    profile: &AvailabilityProfile,
    legacy: &LegacyProfile,
    d: &JobDemand,
    now: f64,
    dur: f64,
) -> Result<(), TestCaseError> {
    let t = profile.earliest_start(d, now, dur);
    prop_assert_eq!(t, profile.earliest_start_linear(d, now, dur), "scan vs linear walk");
    prop_assert_eq!(t, legacy.earliest_start(d, now, dur), "scan vs LegacyProfile");
    for off in [0.0, 0.25, 4.0, 33.0] {
        let fits = profile.fits_interval(d, now + off, dur);
        prop_assert_eq!(fits, profile.fits_interval_linear(d, now + off, dur));
        prop_assert_eq!(fits, legacy.fits_interval(d, now + off, dur));
        prop_assert_eq!(profile.state_at(now + off), legacy.state_at(now + off));
    }
    Ok(())
}

/// Asserts `profile` survives snapshot → restore unchanged: the restored
/// profile equals it and re-snapshots to byte-identical JSON.
fn check_restore(profile: &AvailabilityProfile) -> Result<(), TestCaseError> {
    let snap = profile.snapshot();
    let json = serde_json::to_string(&snap).expect("profile snapshot serializes");
    let back = AvailabilityProfile::restore(snap)
        .map_err(|e| TestCaseError::fail(format!("restore refused its own snapshot: {e}")))?;
    prop_assert_eq!(&back, profile, "restore(snapshot) diverged");
    prop_assert_eq!(
        serde_json::to_string(&back.snapshot()).expect("profile snapshot serializes"),
        json,
        "restore(snapshot) re-snapshots differently"
    );
    Ok(())
}

/// Drives one interleaving on one system, checking evaluator agreement
/// at every pass.
fn check_interleaving(sut: &SystemUnderTest, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut ledger = AllocLedger::new(sut.pool);
    let mut mirror = ReleaseMirror::new();
    let mut profile = AvailabilityProfile::default();
    let mut now = 0.0f64;
    let mut running: Vec<usize> = Vec::new();

    // Seed: staggered single-node jobs with distinct release times, so
    // the profile opens with one segment per seed job.
    for i in 0..sut.seed_jobs {
        let d = JobDemand::cpu_bb_ssd(1, f64::from(i as u16 % 50) * 4.0, (sut.seed_ssd)(i));
        if ledger.fits(&d) {
            ledger.start(i, d, 400.0 + i as f64 * 7.0);
            running.push(i);
        }
    }
    mirror.sync(&ledger);
    mirror.fold_into(now, *ledger.pool(), &mut profile);
    if sut.seed_jobs > 0 {
        prop_assert!(
            profile.times().len() >= DEEP_PROFILE_SEGMENTS,
            "seed phase must grow a deep profile, got {} segments",
            profile.times().len()
        );
    }
    let mut next_idx = sut.seed_jobs;

    for &(kind, a, b, c) in ops {
        now += f64::from(a % 9) * 0.75;
        match kind % 3 {
            0 => {
                // Finish a random running job, then start a probe-shaped
                // one when it fits (like the engine: no forced starts).
                if !running.is_empty() {
                    let pos = usize::from(a) % running.len();
                    ledger.finish(running.swap_remove(pos));
                }
                let d = (sut.demand)(a % 97, b, c);
                if ledger.fits(&d) {
                    ledger.start(next_idx, d, now + 1.0 + f64::from(b % 800));
                    running.push(next_idx);
                    next_idx += 1;
                }
            }
            1 => {
                // Query pass on a freshly folded profile: the fold must
                // equal a from-scratch build, and every evaluator must
                // agree — including after an `advance_origin`, the
                // replay fast path's in-place origin drop.
                mirror.sync(&ledger);
                mirror.fold_into(now, *ledger.pool(), &mut profile);
                let fresh =
                    AvailabilityProfile::new(now, *ledger.pool(), ledger.release_schedule());
                prop_assert_eq!(&profile, &fresh, "incremental fold diverged at t={}", now);
                check_restore(&profile)?;
                let legacy = LegacyProfile::new(now, *ledger.pool(), ledger.release_schedule());
                let probe = (sut.demand)(b, c, a);
                check_queries(&profile, &legacy, &probe, now, 1.0 + f64::from(c % 300))?;

                let adv = now + f64::from(c % 40) * 0.3;
                let mut advanced = profile.clone();
                if advanced.advance_origin(adv) {
                    let at_adv =
                        AvailabilityProfile::new(adv, *ledger.pool(), ledger.release_schedule());
                    prop_assert_eq!(
                        &advanced,
                        &at_adv,
                        "advance_origin diverged from a fresh clamp-fold at t={}",
                        adv
                    );
                    let legacy_adv =
                        LegacyProfile::new(adv, *ledger.pool(), ledger.release_schedule());
                    check_queries(&advanced, &legacy_adv, &probe, adv, 1.0 + f64::from(b % 120))?;
                }
            }
            _ => {
                // Reserve pass: carve reservations identically into the
                // indexed profile and the legacy oracle (exactly how the
                // conservative strategy uses them), then re-query with
                // split segments.
                mirror.sync(&ledger);
                mirror.fold_into(now, *ledger.pool(), &mut profile);
                let mut legacy = LegacyProfile::new(now, *ledger.pool(), ledger.release_schedule());
                for salt in 0..RESERVES_PER_PASS {
                    let k = salt.wrapping_mul(7_919);
                    let rd = (sut.demand)(a ^ k, c.wrapping_add(k), b ^ salt);
                    let rdur = 1.0 + f64::from((b ^ k) % 400);
                    let t = profile.earliest_start(&rd, now, rdur);
                    prop_assert_eq!(t, legacy.earliest_start(&rd, now, rdur));
                    if t.is_finite() {
                        profile.reserve(&rd, t, rdur);
                        legacy.reserve(&rd, t, rdur);
                    }
                }
                prop_assert_eq!(profile.times(), legacy.times(), "post-reserve boundaries");
                prop_assert_eq!(profile.states(), legacy.states(), "post-reserve states");
                check_queries(&profile, &legacy, &(sut.demand)(c, a, b), now, 2.0)?;
                // Split segments and a raised watermark survive a
                // snapshot round trip, and the restored columns answer
                // like the maintained ones.
                check_restore(&profile)?;
                let restored = AvailabilityProfile::restore(profile.snapshot())
                    .expect("checked by check_restore");
                check_queries(&restored, &legacy, &(sut.demand)(b, c, a), now, 3.0)?;
            }
        }
    }
    // Drain everything and fold once more: the empty-ledger profile must
    // also match a from-scratch build.
    for idx in running.drain(..) {
        ledger.finish(idx);
    }
    mirror.sync(&ledger);
    mirror.fold_into(now, *ledger.pool(), &mut profile);
    let fresh = AvailabilityProfile::new(now, *ledger.pool(), ledger.release_schedule());
    prop_assert_eq!(&profile, &fresh, "drained fold diverged");
    Ok(())
}

/// Carves and queries burst-buffer-free demands on a deep pooled
/// profile, first with every burst-buffer value non-negative, then after
/// zero-node carves that take up to `FIT_EPS` more burst buffer than a
/// segment holds. Taking all of `FIT_EPS` can leave a value below
/// `-FIT_EPS` (`c + FIT_EPS` rounds up), which fails even a demand for no
/// burst buffer. `gpus` adds a GPU demand on a machine with a GPU pool,
/// so the node column binds together with the GPU column.
fn check_bb_free(pool: PoolState, gpus: bool, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut ledger = AllocLedger::new(pool);
    for i in 0..230 {
        let d = JobDemand::cpu_bb(1, f64::from(i as u16 % 50) * 4.0);
        ledger.start(i, d, 400.0 + i as f64 * 7.0);
    }
    let now = 0.0;
    let mut mirror = ReleaseMirror::new();
    let mut profile = AvailabilityProfile::default();
    mirror.sync(&ledger);
    mirror.fold_into(now, *ledger.pool(), &mut profile);
    let mut legacy = LegacyProfile::new(now, *ledger.pool(), ledger.release_schedule());
    let bb_free = |a: u16, c: u16| {
        let d = JobDemand::cpu_bb(1 + u32::from(a) % 600, 0.0);
        if gpus {
            d.with_extra(0, f64::from(c % 1_100))
        } else {
            d
        }
    };
    let min_bb = |p: &AvailabilityProfile| {
        p.states().iter().map(|s| s.bb_gb()).fold(f64::INFINITY, f64::min)
    };
    let step = |profile: &mut AvailabilityProfile,
                legacy: &mut LegacyProfile,
                &(_, a, b, c): &Op|
     -> Result<(), TestCaseError> {
        let d = bb_free(a, c);
        let dur = 1.0 + f64::from(b % 900);
        check_queries(profile, legacy, &d, now, dur)?;
        let t = profile.reserve_earliest(&d, now, dur);
        if t.is_finite() {
            legacy.reserve(&d, t, dur);
        }
        prop_assert_eq!(profile.times(), legacy.times());
        prop_assert_eq!(profile.states(), legacy.states());
        Ok(())
    };
    prop_assert!(min_bb(&profile) >= 0.0, "the fold leaves no negative burst buffer");
    for op in ops {
        step(&mut profile, &mut legacy, op)?;
    }
    prop_assert!(min_bb(&profile) >= 0.0, "burst-buffer-free carves leave none either");
    // Tiny negatives: on every segment, a zero-node demand for the
    // segment's burst buffer plus a tenth to all of `FIT_EPS`.
    for i in 0..profile.times().len() {
        let start = profile.times()[i];
        let dur = profile.times().get(i + 1).map_or(1.0, |&next| next - start);
        let c = profile.states()[i].bb_gb().max(0.0);
        let tenths = 1 + (i + usize::from(ops[0].2)) % 10;
        let bb = c + tenths as f64 * 0.1 * FIT_EPS;
        let d = JobDemand::cpu_bb(0, bb);
        if profile.fits_interval(&d, start, dur) && legacy.fits_interval(&d, start, dur) {
            profile.reserve(&d, start, dur);
            legacy.reserve(&d, start, dur);
        }
    }
    prop_assert!(
        profile.states().iter().any(|s| s.bb_gb() + FIT_EPS < 0.0),
        "some carve leaves burst buffer that fails a demand for none"
    );
    prop_assert_eq!(profile.states(), legacy.states());
    for op in ops {
        step(&mut profile, &mut legacy, op)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Burst-buffer-free demands answer and carve like `LegacyProfile`
    /// whether or not the burst-buffer column holds a negative value, on
    /// a CPU + burst-buffer machine and on one with a GPU pool.
    #[test]
    fn bb_free_demands_match_legacy_around_tiny_negative_bb(
        ops in proptest::collection::vec(
            (0u8..3, 0u16..10_000, 0u16..10_000, 0u16..10_000), 1..40),
    ) {
        let gpus = ResourceModel::new(vec![
            ResourceSpec::pooled("nodes", 512.0, DemandSlot::Nodes),
            ResourceSpec::pooled("bb_gb", 50_000.0, DemandSlot::BbGb),
            ResourceSpec::pooled("gpus", 1_024.0, DemandSlot::Extra(0)),
        ])
        .expect("3-resource pooled test model is valid");
        check_bb_free(PoolState::cpu_bb(512, 50_000.0), false, &ops)?;
        check_bb_free(PoolState::from_model(&gpus), true, &ops)?;
    }

    /// The column scan is bit-identical to the linear oracles and to
    /// `LegacyProfile`, the incremental fold equals a from-scratch build,
    /// and every profile is a snapshot/restore fixed point, under random
    /// start/finish/reserve interleavings on pooled and flavoured
    /// systems with 192-plus-segment and with shallow profiles.
    #[test]
    fn profile_evaluators_match_legacy(
        ops in proptest::collection::vec(
            (0u8..3, 0u16..10_000, 0u16..10_000, 0u16..10_000), 1..40),
    ) {
        for sut in systems() {
            check_interleaving(&sut, &ops)?;
        }
    }
}
