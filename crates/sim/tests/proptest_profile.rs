//! Property test: the incrementally maintained availability profile is
//! exactly the profile rebuilt from scratch.
//!
//! The incremental conservative-backfill path keeps a [`ReleaseMirror`]
//! synced from the allocation ledger's delta log and refolds a persistent
//! [`AvailabilityProfile`] from it each pass. This harness drives random
//! interleavings of job starts, finishes, and backfill passes (each pass
//! carving reservations that the next fold must drop) on systems with
//! R ∈ {2, 3, 4} resources — including heterogeneous SSD flavours — and
//! asserts, at every pass:
//!
//! 1. mirror-fed fold `==` [`AvailabilityProfile::new`] over the ledger's
//!    release schedule (bit-exact: same `times`, same `states`);
//! 2. the column-scanned queries (`earliest_start`, `fits_interval`,
//!    `state_at`) agree with the frozen scan-everything
//!    [`LegacyProfile`], both on the fresh fold and after reservations
//!    have split and carved its segments.

use bbsched_core::pools::PoolState;
use bbsched_core::problem::{JobDemand, SSD_LARGE_GB, SSD_SMALL_GB};
use bbsched_core::resource::{DemandSlot, FlavorSet, ResourceModel, ResourceSpec};
use bbsched_sim::{AllocLedger, AvailabilityProfile, LegacyProfile, ReleaseMirror};
use proptest::prelude::*;

/// One encoded operation: `(kind, a, b, c)` with `kind % 3` selecting
/// start / finish / backfill-pass and the rest seeding demands and picks.
type Op = (u8, u16, u16, u16);

/// A system under test: its full pool plus a demand generator that maps
/// raw op words onto (sometimes infeasible) demands for it.
struct SystemUnderTest {
    pool: PoolState,
    demand: fn(u16, u16, u16) -> JobDemand,
}

fn systems() -> Vec<SystemUnderTest> {
    // R = 2: pooled nodes + shared burst buffer.
    let cpu_bb = SystemUnderTest {
        pool: PoolState::cpu_bb(32, 800.0),
        demand: |a, b, _| JobDemand::cpu_bb(1 + u32::from(a) % 34, f64::from(b % 900)),
    };
    // R = 3: nodes + burst buffer + heterogeneous two-tier local SSDs.
    let ssd = SystemUnderTest {
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
    };
    // R = 4: nodes + burst buffer + SSD flavours + an extra pooled
    // resource (GPUs).
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
    .expect("4-resource test model is valid");
    let four = SystemUnderTest {
        pool: PoolState::from_model(&model),
        demand: |a, b, c| {
            let ssd = if c % 3 == 0 { 0.0 } else { f64::from(c % 200) };
            JobDemand::cpu_bb_ssd(1 + u32::from(a) % 22, f64::from(b % 600), ssd)
                .with_extra(0, f64::from(c % 18))
        },
    };
    vec![cpu_bb, ssd, four]
}

/// Drives one interleaving on one system, checking the invariants at
/// every backfill pass.
fn check_interleaving(sut: &SystemUnderTest, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut ledger = AllocLedger::new(sut.pool);
    let mut mirror = ReleaseMirror::new();
    let mut profile = AvailabilityProfile::default();
    let mut now = 0.0f64;
    let mut next_idx = 0usize;
    let mut running: Vec<usize> = Vec::new();

    for &(kind, a, b, c) in ops {
        now += f64::from(a % 7) * 0.5;
        match kind % 3 {
            0 => {
                // Job start (skipped when it does not fit, like the engine).
                let d = (sut.demand)(a, b, c);
                if ledger.fits(&d) {
                    let dur = 1.0 + f64::from(b % 50);
                    ledger.start(next_idx, d, now + dur);
                    running.push(next_idx);
                    next_idx += 1;
                }
            }
            1 => {
                // Job finish (random running job).
                if !running.is_empty() {
                    let pos = usize::from(a) % running.len();
                    let idx = running.swap_remove(pos);
                    ledger.finish(idx);
                }
            }
            _ => {
                // Backfill pass: delta-sync + in-place fold...
                mirror.sync(&ledger);
                mirror.fold_into(now, *ledger.pool(), &mut profile);
                // ...must equal the from-scratch profile bit for bit
                // (which also proves the previous pass's reservations
                // were dropped and nothing else was).
                let fresh =
                    AvailabilityProfile::new(now, *ledger.pool(), ledger.release_schedule());
                prop_assert_eq!(&profile, &fresh, "incremental fold diverged at t={}", now);

                // Queries agree with the frozen legacy implementation,
                // on the fresh fold...
                let mut legacy = LegacyProfile::new(now, *ledger.pool(), ledger.release_schedule());
                let probe = (sut.demand)(b, c, a);
                let dur = 1.0 + f64::from(c % 40);
                prop_assert_eq!(
                    profile.earliest_start(&probe, now, dur),
                    legacy.earliest_start(&probe, now, dur)
                );
                prop_assert_eq!(
                    profile.fits_interval(&probe, now + f64::from(a % 11), dur),
                    legacy.fits_interval(&probe, now + f64::from(a % 11), dur)
                );

                // ...and after reservations (carved identically into both
                // profiles, reproducing the conservative strategy's usage).
                for salt in 0..2u16 {
                    let rd = (sut.demand)(a ^ salt, c, b);
                    let rdur = 1.0 + f64::from((b ^ salt) % 30);
                    let t = profile.earliest_start(&rd, now, rdur);
                    prop_assert_eq!(t, legacy.earliest_start(&rd, now, rdur));
                    if t.is_finite() {
                        profile.reserve(&rd, t, rdur);
                        legacy.reserve(&rd, t, rdur);
                    }
                }
                prop_assert_eq!(profile.times(), legacy.times());
                prop_assert_eq!(profile.states(), legacy.states());
                let q = (sut.demand)(c, a, b);
                let qdur = 1.0 + f64::from(a % 25);
                prop_assert_eq!(
                    profile.earliest_start(&q, now, qdur),
                    legacy.earliest_start(&q, now, qdur)
                );
                for off in [0.0, 0.5, 3.0, 17.0] {
                    prop_assert_eq!(
                        profile.fits_interval(&q, now + off, qdur),
                        legacy.fits_interval(&q, now + off, qdur)
                    );
                    prop_assert_eq!(profile.state_at(now + off), legacy.state_at(now + off));
                }
            }
        }
    }
    // Drain everything and fold once more: the empty-ledger profile must
    // also match.
    for idx in running.drain(..) {
        ledger.finish(idx);
    }
    mirror.sync(&ledger);
    mirror.fold_into(now, *ledger.pool(), &mut profile);
    let fresh = AvailabilityProfile::new(now, *ledger.pool(), ledger.release_schedule());
    prop_assert_eq!(&profile, &fresh);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// Satellite: incremental profile ≡ rebuilt-from-scratch profile
    /// after arbitrary interleavings of starts, finishes, and
    /// reservation-carving passes, on R ∈ {2, 3, 4} systems.
    #[test]
    fn prop_incremental_profile_equals_rebuild(
        ops in proptest::collection::vec(
            (0u8..3, 0u16..10_000, 0u16..10_000, 0u16..10_000), 1..120),
    ) {
        for sut in systems() {
            check_interleaving(&sut, &ops)?;
        }
    }
}
