//! Front-quality metrics for the MOO solver (§3.2.3).
//!
//! The paper uses **generational distance** (GD) to choose `G` and `P`:
//!
//! > `GD(S) = avg_{u in S}( min_{v in S*}( dist(u, v) ) )`
//!
//! where `S` is the solver's front and `S*` the true Pareto set from the
//! exhaustive solver. We also provide inverted GD (coverage of the true
//! front) and 2-D hypervolume, which `examples/parameter_tuning` prints.

use crate::pareto::ParetoFront;

/// Euclidean distance between two objective vectors, optionally scaled
/// per-dimension by `scale` (pass `None` for raw distances as in the paper).
fn dist(a: &[f64], b: &[f64], scale: Option<&[f64]>) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .enumerate()
        .map(|(k, (&x, &y))| {
            let d = match scale {
                Some(s) => (x - y) / s[k].max(f64::MIN_POSITIVE),
                None => x - y,
            };
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

fn avg_min_dist(from: &ParetoFront, to: &ParetoFront, scale: Option<&[f64]>) -> f64 {
    if from.is_empty() {
        return f64::INFINITY;
    }
    if to.is_empty() {
        return f64::INFINITY;
    }
    let mut total = 0.0;
    for u in from.objective_vectors() {
        let min = to.objective_vectors().map(|v| dist(u, v, scale)).fold(f64::INFINITY, f64::min);
        total += min;
    }
    total / from.len() as f64
}

/// Generational distance of `approx` to the `truth` front: average distance
/// from each approximate point to its nearest true Pareto point. Smaller is
/// better; 0 means every approximate point lies on the true front.
///
/// Returns `f64::INFINITY` when either front is empty.
pub fn generational_distance(approx: &ParetoFront, truth: &ParetoFront) -> f64 {
    avg_min_dist(approx, truth, None)
}

/// GD with each dimension divided by `scale` first, so resources measured in
/// different units (nodes vs. GB) contribute comparably.
pub fn generational_distance_scaled(
    approx: &ParetoFront,
    truth: &ParetoFront,
    scale: &[f64],
) -> f64 {
    avg_min_dist(approx, truth, Some(scale))
}

/// Inverted generational distance: average distance from each *true* Pareto
/// point to the nearest approximate point; penalizes missing regions of the
/// front, which plain GD does not.
pub fn inverted_generational_distance(approx: &ParetoFront, truth: &ParetoFront) -> f64 {
    avg_min_dist(truth, approx, None)
}

/// 2-D hypervolume dominated by `front` with respect to a reference point
/// `(rx, ry)` (typically the origin for maximization problems). Larger is
/// better.
///
/// # Panics
/// Panics if the front's objective vectors are not 2-dimensional.
pub fn hypervolume_2d(front: &ParetoFront, rx: f64, ry: f64) -> f64 {
    let mut pts: Vec<(f64, f64)> = front
        .objective_vectors()
        .map(|v| {
            assert_eq!(v.len(), 2, "hypervolume_2d requires 2 objectives");
            (v[0], v[1])
        })
        .filter(|&(x, y)| x > rx && y > ry)
        .collect();
    // Sweep in descending x; each point contributes a rectangle strip above
    // the best y seen so far.
    pts.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut hv = 0.0;
    let mut prev_x = f64::INFINITY;
    let mut best_y = ry;
    for (x, y) in pts {
        if y > best_y {
            if prev_x.is_finite() {
                // Strip between this point's x and the previous x at height
                // best_y is already counted; add the taller strip from x.
            }
            hv += (x - rx) * (y - best_y);
            best_y = y;
        }
        prev_x = x;
    }
    hv
}

/// Additive epsilon indicator `I_eps+(A, B)`: the smallest `eps` such that
/// every point of `B` is weakly dominated by some point of `A` shifted down
/// by `eps` in every objective. 0 when `A` covers `B`; larger means `A`
/// falls short somewhere. A standard complement to GD that, unlike GD,
/// cannot be gamed by clustering points in one region.
pub fn epsilon_indicator(a: &ParetoFront, b: &ParetoFront) -> f64 {
    if b.is_empty() {
        return 0.0;
    }
    if a.is_empty() {
        return f64::INFINITY;
    }
    let mut worst = f64::NEG_INFINITY;
    for bv in b.objective_vectors() {
        // eps needed for the best a-point to cover bv.
        let mut best = f64::INFINITY;
        for av in a.objective_vectors() {
            let mut need = f64::NEG_INFINITY;
            for (&x, &y) in av.iter().zip(bv) {
                need = need.max(y - x);
            }
            best = best.min(need);
        }
        worst = worst.max(best);
    }
    worst.max(0.0)
}

/// Hypervolume dominated by `front` with respect to the origin-like
/// reference point `reference` (component-wise lower bounds), for any
/// number of objectives, via recursive objective slicing (HSO). Intended
/// for the small fronts (tens of points) the GA produces; cost grows
/// quickly with dimensions and points.
///
/// # Panics
/// Panics if dimensions are inconsistent.
pub fn hypervolume(front: &ParetoFront, reference: &[f64]) -> f64 {
    let points: Vec<Vec<f64>> = front
        .objective_vectors()
        .map(|v| {
            assert_eq!(v.len(), reference.len(), "reference dimension mismatch");
            v.to_vec()
        })
        .filter(|v| v.iter().zip(reference).all(|(x, r)| x > r))
        .collect();
    hso(&points, reference)
}

/// Recursive "hypervolume by slicing objectives".
fn hso(points: &[Vec<f64>], reference: &[f64]) -> f64 {
    let dim = reference.len();
    if points.is_empty() {
        return 0.0;
    }
    if dim == 1 {
        return points.iter().map(|p| p[0] - reference[0]).fold(0.0f64, f64::max);
    }
    // Slice along the last objective: sort descending by it.
    let mut sorted: Vec<&Vec<f64>> = points.iter().collect();
    sorted.sort_by(|a, b| b[dim - 1].partial_cmp(&a[dim - 1]).unwrap_or(std::cmp::Ordering::Equal));
    let mut volume = 0.0;
    let mut active: Vec<Vec<f64>> = Vec::new();
    for (i, p) in sorted.iter().enumerate() {
        active.push(p[..dim - 1].to_vec());
        let upper = p[dim - 1];
        let lower = sorted.get(i + 1).map(|q| q[dim - 1]).unwrap_or(reference[dim - 1]);
        let thickness = upper - lower;
        if thickness > 0.0 {
            volume += thickness * hso(&active, &reference[..dim - 1]);
        }
    }
    volume
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chromosome::Chromosome;
    use crate::pareto::Solution;
    use crate::Objectives;

    fn front(points: &[&[f64]]) -> ParetoFront {
        let mut f = ParetoFront::new();
        for (i, p) in points.iter().enumerate() {
            let mut c = Chromosome::zeros(points.len());
            c.set(i, true);
            f.insert(Solution { chromosome: c, objectives: Objectives::from_slice(p) });
        }
        f
    }

    #[test]
    fn gd_zero_when_identical() {
        let t = front(&[&[100.0, 20.0], &[80.0, 90.0]]);
        let a = front(&[&[100.0, 20.0], &[80.0, 90.0]]);
        assert_eq!(generational_distance(&a, &t), 0.0);
        assert_eq!(inverted_generational_distance(&a, &t), 0.0);
    }

    #[test]
    fn gd_measures_offset() {
        let t = front(&[&[10.0, 0.0], &[0.0, 10.0]]);
        let a = front(&[&[7.0, 0.0]]); // 3 away from (10, 0)
        assert!((generational_distance(&a, &t) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn igd_penalizes_missing_regions() {
        let t = front(&[&[10.0, 0.0], &[0.0, 10.0]]);
        let a = front(&[&[10.0, 0.0]]); // covers one end only
        assert_eq!(generational_distance(&a, &t), 0.0);
        assert!(inverted_generational_distance(&a, &t) > 0.0);
    }

    #[test]
    fn scaled_gd_normalizes_units() {
        let t = front(&[&[100.0, 100_000.0]]);
        let a = front(&[&[90.0, 90_000.0]]);
        let gd = generational_distance_scaled(&a, &t, &[100.0, 100_000.0]);
        // Both dimensions off by 10% -> sqrt(0.01 + 0.01).
        assert!((gd - (0.02f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_fronts_are_infinite() {
        let t = front(&[&[1.0, 1.0]]);
        let e = ParetoFront::new();
        assert!(generational_distance(&e, &t).is_infinite());
        assert!(generational_distance(&t, &e).is_infinite());
    }

    #[test]
    fn hypervolume_rectangle() {
        let f = front(&[&[4.0, 5.0]]);
        assert_eq!(hypervolume_2d(&f, 0.0, 0.0), 20.0);
    }

    #[test]
    fn hypervolume_staircase() {
        // (4,2) and (2,4) from origin: 4*2 + 2*(4-2) = 12.
        let f = front(&[&[4.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(hypervolume_2d(&f, 0.0, 0.0), 12.0);
    }

    #[test]
    fn hypervolume_ignores_points_below_reference() {
        let f = front(&[&[4.0, 2.0]]);
        assert_eq!(hypervolume_2d(&f, 5.0, 5.0), 0.0);
    }

    #[test]
    fn nd_hypervolume_matches_2d_sweep() {
        let f = front(&[&[4.0, 2.0], &[2.0, 4.0], &[3.0, 3.0]]);
        let hv2 = hypervolume_2d(&f, 0.0, 0.0);
        let hvn = hypervolume(&f, &[0.0, 0.0]);
        assert!((hv2 - hvn).abs() < 1e-12, "{hv2} vs {hvn}");
    }

    #[test]
    fn nd_hypervolume_box_3d() {
        // Single point (2,3,4) from origin: volume 24.
        let mut f = ParetoFront::new();
        let mut c = Chromosome::zeros(1);
        c.set(0, true);
        f.insert(Solution { chromosome: c, objectives: Objectives::from_slice(&[2.0, 3.0, 4.0]) });
        assert!((hypervolume(&f, &[0.0, 0.0, 0.0]) - 24.0).abs() < 1e-12);
    }

    #[test]
    fn nd_hypervolume_union_3d() {
        // Two overlapping boxes: (2,2,2) and (1,1,3).
        // Union = 8 + volume of (1,1,3) outside (2,2,2) = 8 + 1*1*1 = 9.
        let f = front(&[&[2.0, 2.0, 2.0], &[1.0, 1.0, 3.0]]);
        assert!((hypervolume(&f, &[0.0, 0.0, 0.0]) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn epsilon_indicator_basics() {
        let truth = front(&[&[10.0, 0.0], &[0.0, 10.0]]);
        // Perfect coverage: eps = 0.
        assert_eq!(epsilon_indicator(&truth, &truth), 0.0);
        // Approximation uniformly 2 worse: eps = 2.
        let approx = front(&[&[8.0, 0.0], &[0.0, 8.0]]);
        assert!((epsilon_indicator(&approx, &truth) - 2.0).abs() < 1e-12);
        // The truth covers the approximation for free.
        assert_eq!(epsilon_indicator(&truth, &approx), 0.0);
        // Missing one end of the front costs the full gap.
        let partial = front(&[&[10.0, 0.0]]);
        assert!((epsilon_indicator(&partial, &truth) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn epsilon_indicator_empty_fronts() {
        let t = front(&[&[1.0, 1.0]]);
        let e = ParetoFront::new();
        assert_eq!(epsilon_indicator(&t, &e), 0.0);
        assert!(epsilon_indicator(&e, &t).is_infinite());
    }
}
