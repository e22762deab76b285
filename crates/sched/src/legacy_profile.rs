//! Frozen pre-incremental availability profile.
//!
//! This module preserves, verbatim, the rebuild-per-pass availability
//! profile that shipped before the persistent profile landed (DESIGN.md
//! §10): [`LegacyProfile`] rebuilds from the full release schedule on
//! every construction and scans every segment from index 0 in its
//! queries.
//!
//! It exists as the **equivalence oracle** and must not be "improved":
//! the profile property tests and the golden-equivalence suite's frozen
//! reference run prove that incremental conservative backfilling and
//! its [`crate::AvailabilityProfile`] produce bit-identical profiles and
//! schedules to it.

use bbsched_core::pools::{NodeAssignment, PoolState};
use bbsched_core::problem::JobDemand;

/// The pre-incremental [`crate::AvailabilityProfile`]: same piecewise
/// representation and semantics, but every query scans from segment 0 and
/// there is no persistence across passes. Kept verbatim as the reference
/// implementation.
#[derive(Clone, Debug)]
pub struct LegacyProfile {
    times: Vec<f64>,
    states: Vec<PoolState>,
}

impl LegacyProfile {
    /// Builds the profile from the current free state and the estimated
    /// completion times of running jobs. `releases` is a list of
    /// `(est_end, demand, assignment)` tuples; order does not matter.
    pub fn new(
        now: f64,
        pool: PoolState,
        releases: impl IntoIterator<Item = (f64, JobDemand, NodeAssignment)>,
    ) -> Self {
        let mut rel: Vec<(f64, JobDemand, NodeAssignment)> =
            releases.into_iter().map(|(t, d, asn)| (t.max(now), d, asn)).collect();
        rel.sort_by(|a, b| a.0.total_cmp(&b.0));

        let mut times = vec![now];
        let mut states = vec![pool];
        for (t, d, asn) in rel {
            let last = *states.last().expect("profile never empty");
            let mut next = last;
            next.free(&d, asn);
            if (t - *times.last().unwrap()).abs() < 1e-12 {
                *states.last_mut().unwrap() = next;
            } else {
                times.push(t);
                states.push(next);
            }
        }
        Self { times, states }
    }

    /// Number of segments (diagnostic).
    pub fn segments(&self) -> usize {
        self.times.len()
    }

    /// The boundary times (for equivalence tests against the indexed
    /// profile).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The per-segment states (for equivalence tests).
    pub fn states(&self) -> &[PoolState] {
        &self.states
    }

    /// Free state at time `t` (clamped to the profile's origin).
    pub fn state_at(&self, t: f64) -> PoolState {
        let idx = match self.times.binary_search_by(|x| x.total_cmp(&t)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        self.states[idx]
    }

    /// Whether `d` fits everywhere on `[start, start + duration)`.
    pub fn fits_interval(&self, d: &JobDemand, start: f64, duration: f64) -> bool {
        let end = start + duration;
        // Check the segment containing `start` and every boundary in range.
        if !self.state_at(start).fits(d) {
            return false;
        }
        for (i, &t) in self.times.iter().enumerate() {
            if t > start && t < end && !self.states[i].fits(d) {
                return false;
            }
        }
        true
    }

    /// Earliest time `>= from` at which `d` fits for `duration`; tries
    /// `from` and then every breakpoint. Returns `f64::INFINITY` if it
    /// never fits.
    pub fn earliest_start(&self, d: &JobDemand, from: f64, duration: f64) -> f64 {
        if self.fits_interval(d, from, duration) {
            return from;
        }
        for (i, &t) in self.times.iter().enumerate() {
            if t > from && self.states[i].fits(d) && self.fits_interval(d, t, duration) {
                return t;
            }
        }
        f64::INFINITY
    }

    /// Carves a reservation for `d` over `[start, start + duration)`.
    ///
    /// # Panics
    /// Panics (debug) if the demand does not fit the interval.
    pub fn reserve(&mut self, d: &JobDemand, start: f64, duration: f64) {
        debug_assert!(self.fits_interval(d, start, duration), "reserve without fit check");
        let end = start + duration;
        self.split_at(start);
        self.split_at(end);
        for i in 0..self.times.len() {
            let seg_start = self.times[i];
            if seg_start >= end {
                break;
            }
            let seg_end = self.times.get(i + 1).copied().unwrap_or(f64::INFINITY);
            if seg_end <= start {
                continue;
            }
            // Segment overlaps the reservation: subtract.
            let state = &mut self.states[i];
            debug_assert!(state.fits(d));
            let _ = state.alloc(d);
        }
    }

    /// Ensures `t` is a breakpoint (no-op if it already is or precedes the
    /// origin; infinite times are ignored).
    fn split_at(&mut self, t: f64) {
        if !t.is_finite() || t <= self.times[0] {
            return;
        }
        match self.times.binary_search_by(|x| x.total_cmp(&t)) {
            Ok(_) => {}
            Err(i) => {
                let state = self.states[i - 1];
                self.times.insert(i, t);
                self.states.insert(i, state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AvailabilityProfile;

    fn d(nodes: u32, bb: f64) -> JobDemand {
        JobDemand::cpu_bb(nodes, bb)
    }

    fn release(t: f64, nodes: u32, bb: f64) -> (f64, JobDemand, NodeAssignment) {
        (t, d(nodes, bb), NodeAssignment::two_tier(0, nodes))
    }

    #[test]
    fn legacy_and_indexed_profiles_agree_after_reservations() {
        let rel = vec![release(10.0, 4, 20.0), release(20.0, 2, 0.0), release(20.0, 1, 5.0)];
        let mut legacy = LegacyProfile::new(0.0, PoolState::cpu_bb(4, 50.0), rel.clone());
        let mut indexed = AvailabilityProfile::new(0.0, PoolState::cpu_bb(4, 50.0), rel);
        for (dem, start, dur) in
            [(d(3, 10.0), 0.0, 12.0), (d(4, 0.0), 10.0, 15.0), (d(1, 1.0), 26.0, 100.0)]
        {
            let t_l = legacy.earliest_start(&dem, start, dur);
            let t_i = indexed.earliest_start(&dem, start, dur);
            assert_eq!(t_l, t_i);
            if t_l.is_finite() {
                legacy.reserve(&dem, t_l, dur);
                indexed.reserve(&dem, t_i, dur);
            }
            assert_eq!(legacy.times(), indexed.times());
            assert_eq!(legacy.states(), indexed.states());
        }
    }
}
