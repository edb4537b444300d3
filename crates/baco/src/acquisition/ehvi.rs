//! Expected hypervolume improvement (EHVI) for multi-objective acquisition.
//!
//! Scores a candidate by the *expected growth of the dominated hypervolume*
//! when its (independent, per-objective Gaussian) posterior is added to the
//! current Pareto front — the direct multi-objective analogue of EI, replacing
//! ParEGO's per-round scalarization collapse as the default strategy.
//!
//! The integral is evaluated in closed form over an axis-aligned **cell
//! decomposition** of the improvement region:
//!
//! * `m = 2`: the classic stripe decomposition. With the front sorted
//!   ascending in objective 1 as `(a₁,b₁) … (aₙ,bₙ)` (so `b` is strictly
//!   descending), the region not yet dominated splits into `n + 1` vertical
//!   stripes `[aₖ₋₁, aₖ) × (−∞, Bₖ)` with ceiling `Bₖ = bₖ₋₁` (`B₁ = r₂`).
//!   The improvement a candidate `y` contributes factors per stripe, so
//!   `EHVI = Σₖ E[(hiₖ − max(Y₁, loₖ))⁺] · E[(Bₖ − Y₂)⁺]` — exact, `O(n)`
//!   cells.
//! * `m = 3`: hypervolume-sliced decomposition. Objective 3 is cut into slabs
//!   at the distinct front values `z₍₁₎ < … < z₍d₎`; inside a slab the set of
//!   front points "active" at that height is constant, so each slab reduces to
//!   a 2-D stripe decomposition of the non-dominated projection of
//!   `{p : p₃ ≤ slab.lo}`. Every (slab × stripe) pair is one box cell; the
//!   sum is exact under the tuner's independent per-objective posteriors.
//! * `m > 3`: not decomposed here — the tuner falls back to
//!   [ParEGO](crate::acquisition::Scalarization).
//!
//! All coordinates live in the *transformed* objective space the GPs are
//! trained in (see `log_objective`), including the reference point, so the
//! expectations line up with the per-objective posteriors fed to
//! [`Ehvi::value`].

use super::{normal_cdf, normal_pdf};

/// One axis-aligned cell of the improvement-region decomposition.
///
/// Its contribution to the EHVI is `Π_i E[(hi_i − max(Y_i, lo_i))⁺]`; a lower
/// bound of `−∞` marks dimensions where the cell is unbounded below (the
/// candidate's coordinate alone sets the extent).
#[derive(Debug, Clone, PartialEq)]
struct Cell {
    /// Per-objective `(lo, hi)` bounds; `lo` may be `−∞`, `hi` is finite.
    bounds: Vec<(f64, f64)>,
}

/// Closed-form EHVI over a fixed Pareto front and reference point.
///
/// Built once per acquisition round from the incremental front (transformed
/// to the GP's objective space) and evaluated per candidate from the
/// per-objective posterior means and variances. Construction filters the
/// front to points strictly inside the reference box and to its non-dominated
/// subset, so callers can pass the raw front.
#[derive(Debug, Clone, PartialEq)]
pub struct Ehvi {
    /// The improvement-region decomposition; empty only if the reference box
    /// itself is empty (some `r_i` is `−∞`), in which case every value is 0.
    cells: Vec<Cell>,
    /// Number of objectives (2 or 3).
    m: usize,
}

impl Ehvi {
    /// Builds the cell decomposition for `front` (objective vectors,
    /// minimization, already transformed) against `reference` (transformed).
    ///
    /// Returns `None` when the dimensionality is unsupported (`m ∉ {2, 3}`)
    /// or the reference is not finite — the caller then falls back to ParEGO
    /// scalarization.
    pub fn new(front: &[Vec<f64>], reference: &[f64]) -> Option<Ehvi> {
        let m = reference.len();
        if !(2..=3).contains(&m) || reference.iter().any(|r| !r.is_finite()) {
            return None;
        }
        // Only points strictly inside the reference box bound the improvement
        // region; anything on or outside the boundary dominates zero volume.
        let mut pts: Vec<&[f64]> = front
            .iter()
            .filter(|p| {
                p.len() == m
                    && p.iter().all(|v| v.is_finite())
                    && p.iter().zip(reference).all(|(v, r)| v < r)
            })
            .map(Vec::as_slice)
            .collect();
        pts = non_dominated(&pts);
        let cells = match m {
            2 => stripes_2d(&pts, reference[0], reference[1])
                .into_iter()
                .map(|(lo, hi, ceil)| Cell {
                    bounds: vec![(lo, hi), (f64::NEG_INFINITY, ceil)],
                })
                .collect(),
            _ => cells_3d(&pts, reference),
        };
        Some(Ehvi { cells, m })
    }

    /// Number of objectives this decomposition covers.
    pub fn objectives(&self) -> usize {
        self.m
    }

    /// The expected hypervolume improvement of a candidate whose posterior is
    /// `N(means[i], vars[i])` independently per objective.
    ///
    /// Non-finite posteriors score 0 (never preferred).
    pub fn value(&self, means: &[f64], vars: &[f64]) -> f64 {
        debug_assert_eq!(means.len(), self.m);
        debug_assert_eq!(vars.len(), self.m);
        if means.iter().any(|v| !v.is_finite()) || vars.iter().any(|v| !v.is_finite()) {
            return 0.0;
        }
        let mut total = 0.0;
        for cell in &self.cells {
            let mut term = 1.0;
            for (i, &(lo, hi)) in cell.bounds.iter().enumerate() {
                term *= stripe_part(hi, lo, means[i], vars[i].max(0.0).sqrt());
                if term == 0.0 {
                    break;
                }
            }
            total += term;
        }
        total
    }
}

/// A deterministic reference point inferred from the observed (transformed)
/// history when the user supplied none: per objective `max + 0.1·range`, or
/// `max + 1.0` when the observed range is degenerate. Pure in the history, so
/// resumed runs rebuild the exact same box.
pub fn inferred_reference(values: &[Vec<f64>]) -> Vec<f64> {
    values
        .iter()
        .map(|col| {
            let max = col.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let min = col.iter().copied().fold(f64::INFINITY, f64::min);
            let range = max - min;
            if range > 0.0 {
                max + 0.1 * range
            } else {
                max + 1.0
            }
        })
        .collect()
}

/// `E[(hi − max(Y, lo))⁺]` for `Y ~ N(mean, sd²)` — the one-dimensional
/// truncated-linear expectation every cell factor reduces to.
///
/// `lo = −∞` means the cell is unbounded below in this dimension, collapsing
/// to the plain partial expectation `E[(hi − Y)⁺]`; it is special-cased so no
/// `∞ · 0` NaN can leak out of the general formula. Near-zero `sd` takes the
/// deterministic limit `(hi − max(mean, lo))⁺`.
fn stripe_part(hi: f64, lo: f64, mean: f64, sd: f64) -> f64 {
    if hi <= lo {
        return 0.0;
    }
    if sd < 1e-12 {
        return (hi - mean.max(lo)).max(0.0);
    }
    let zh = (hi - mean) / sd;
    if lo == f64::NEG_INFINITY {
        return ((hi - mean) * normal_cdf(zh) + sd * normal_pdf(zh)).max(0.0);
    }
    let zl = (lo - mean) / sd;
    let e = (hi - lo) * normal_cdf(zl)
        + (hi - mean) * (normal_cdf(zh) - normal_cdf(zl))
        + sd * (normal_pdf(zh) - normal_pdf(zl));
    e.max(0.0)
}

/// The non-dominated subset of `pts` (minimization, weak dominance —
/// duplicates collapse to one survivor).
fn non_dominated<'a>(pts: &[&'a [f64]]) -> Vec<&'a [f64]> {
    let mut keep: Vec<&[f64]> = Vec::with_capacity(pts.len());
    'outer: for (i, &p) in pts.iter().enumerate() {
        for (j, &q) in pts.iter().enumerate() {
            if i == j {
                continue;
            }
            let q_le = q.iter().zip(p).all(|(a, b)| a <= b);
            if q_le && (q != p || j < i) {
                // q weakly dominates p (ties broken by index for duplicates).
                continue 'outer;
            }
        }
        keep.push(p);
    }
    keep
}

/// The 2-D stripe decomposition: `(lo, hi, ceiling)` triples over objective 1
/// with the undominated ceiling in objective 2. Points are **projected to
/// their first two coordinates first** — crucial for the 3-D slabs, where a
/// point non-dominated in 3-D may still be dominated in projection and must
/// not flatten the staircase — then swept into the strictly-descending
/// staircase of 2-D non-dominated corners.
fn stripes_2d(pts: &[&[f64]], r1: f64, r2: f64) -> Vec<(f64, f64, f64)> {
    let mut proj: Vec<(f64, f64)> = pts.iter().map(|p| (p[0], p[1])).collect();
    proj.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut front: Vec<(f64, f64)> = Vec::with_capacity(proj.len());
    for (a, b) in proj {
        // Ascending in `a`: keep only points that improve `b` strictly, which
        // drops 2-D-dominated projections and duplicates in one sweep.
        if front.last().is_none_or(|&(_, pb)| b < pb) {
            front.push((a, b));
        }
    }
    let mut stripes = Vec::with_capacity(front.len() + 1);
    let mut lo = f64::NEG_INFINITY;
    let mut ceil = r2;
    for &(a, b) in &front {
        stripes.push((lo, a, ceil));
        lo = a;
        ceil = b;
    }
    stripes.push((lo, r1, ceil));
    stripes.retain(|&(lo, hi, _)| hi > lo);
    stripes
}

/// The 3-D slab-of-stripes decomposition described in the module docs.
fn cells_3d(pts: &[&[f64]], reference: &[f64]) -> Vec<Cell> {
    let (r1, r2, r3) = (reference[0], reference[1], reference[2]);
    // Slab boundaries: the distinct third coordinates, then the reference.
    let mut zs: Vec<f64> = pts.iter().map(|p| p[2]).collect();
    zs.sort_by(f64::total_cmp);
    zs.dedup();
    let mut cells = Vec::new();
    let mut lo3 = f64::NEG_INFINITY;
    for k in 0..=zs.len() {
        let hi3 = if k < zs.len() { zs[k] } else { r3 };
        if hi3 > lo3 {
            // Front points active throughout this slab: those at or below its
            // floor. Their 2-D projections bound the per-slab improvement.
            let active: Vec<&[f64]> = pts.iter().copied().filter(|p| p[2] <= lo3).collect();
            for (lo1, hi1, ceil2) in stripes_2d(&active, r1, r2) {
                cells.push(Cell {
                    bounds: vec![(lo1, hi1), (f64::NEG_INFINITY, ceil2), (lo3, hi3)],
                });
            }
        }
        lo3 = hi3;
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Brute-force hypervolume by slicing on the last objective — a test-local
    /// reimplementation kept independent of `TuningReport::hypervolume`.
    fn hv(pts: &[Vec<f64>], reference: &[f64]) -> f64 {
        let pts: Vec<Vec<f64>> = pts
            .iter()
            .filter(|p| p.iter().zip(reference).all(|(v, r)| v < r))
            .cloned()
            .collect();
        hv_rec(&pts, reference)
    }

    fn hv_rec(pts: &[Vec<f64>], reference: &[f64]) -> f64 {
        if pts.is_empty() {
            return 0.0;
        }
        let d = reference.len();
        if d == 1 {
            let min = pts.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min);
            return (reference[0] - min).max(0.0);
        }
        let mut zs: Vec<f64> = pts.iter().map(|p| p[d - 1]).collect();
        zs.sort_by(f64::total_cmp);
        zs.dedup();
        let mut total = 0.0;
        for (k, &z) in zs.iter().enumerate() {
            let hi = if k + 1 < zs.len() {
                zs[k + 1]
            } else {
                reference[d - 1]
            };
            let slab: Vec<Vec<f64>> = pts
                .iter()
                .filter(|p| p[d - 1] <= z)
                .map(|p| p[..d - 1].to_vec())
                .collect();
            total += (hi - z).max(0.0) * hv_rec(&slab, &reference[..d - 1]);
        }
        total
    }

    /// Monte-Carlo EHVI estimate from Box–Muller normals.
    fn mc_ehvi(
        front: &[Vec<f64>],
        reference: &[f64],
        means: &[f64],
        sds: &[f64],
        n: usize,
        rng: &mut StdRng,
    ) -> f64 {
        let base = hv(front, reference);
        let mut sum = 0.0;
        for _ in 0..n {
            let y: Vec<f64> = means
                .iter()
                .zip(sds)
                .map(|(&m, &s)| {
                    let u1: f64 = rng.gen_range(1e-12..1.0);
                    let u2: f64 = rng.gen_range(0.0..1.0);
                    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    m + s * z
                })
                .collect();
            let mut all = front.to_vec();
            all.push(y);
            sum += hv(&all, reference) - base;
        }
        sum / n as f64
    }

    #[test]
    fn empty_front_deterministic_point_is_box_volume() {
        let e = Ehvi::new(&[], &[1.0, 1.0]).unwrap();
        // σ → 0 at the origin: improvement is exactly the unit box.
        assert!((e.value(&[0.0, 0.0], &[0.0, 0.0]) - 1.0).abs() < 1e-12);
        // On the boundary or outside: zero.
        assert_eq!(e.value(&[1.0, 0.0], &[0.0, 0.0]), 0.0);
        assert_eq!(e.value(&[2.0, 2.0], &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn dominated_deterministic_candidate_scores_zero() {
        let front = vec![vec![0.2, 0.2]];
        let e = Ehvi::new(&front, &[1.0, 1.0]).unwrap();
        assert_eq!(e.value(&[0.5, 0.5], &[0.0, 0.0]), 0.0);
        // A dominating candidate gains exactly the L-shaped difference.
        let gain = e.value(&[0.1, 0.1], &[0.0, 0.0]);
        let expect = hv(&[vec![0.1, 0.1]], &[1.0, 1.0]) - hv(&front, &[1.0, 1.0]);
        assert!((gain - expect).abs() < 1e-12, "gain {gain} vs {expect}");
    }

    #[test]
    fn front_points_outside_reference_box_are_ignored() {
        let reference = [1.0, 1.0];
        let inside = vec![vec![0.3, 0.4]];
        let mut with_outside = inside.clone();
        with_outside.push(vec![1.0, 0.1]); // on the boundary in obj 1
        with_outside.push(vec![5.0, -2.0]); // far outside in obj 1
        let a = Ehvi::new(&inside, &reference).unwrap();
        let b = Ehvi::new(&with_outside, &reference).unwrap();
        for (m, v) in [([0.2, 0.2], [0.05, 0.1]), ([0.6, 0.1], [0.3, 0.02])] {
            assert!((a.value(&m, &v) - b.value(&m, &v)).abs() < 1e-12);
        }
    }

    #[test]
    fn unsupported_dimensions_return_none() {
        assert!(Ehvi::new(&[], &[1.0]).is_none());
        assert!(Ehvi::new(&[], &[1.0; 4]).is_none());
        assert!(Ehvi::new(&[], &[1.0, f64::INFINITY]).is_none());
        assert!(Ehvi::new(&[], &[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn matches_monte_carlo_m2() {
        let front = vec![vec![0.2, 0.8], vec![0.5, 0.5], vec![0.8, 0.1]];
        let reference = [1.0, 1.0];
        let e = Ehvi::new(&front, &reference).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for (means, sds) in [
            (vec![0.4, 0.4], vec![0.2, 0.2]),
            (vec![0.1, 0.9], vec![0.05, 0.3]),
            (vec![0.9, 0.9], vec![0.4, 0.1]),
        ] {
            let vars: Vec<f64> = sds.iter().map(|s| s * s).collect();
            let exact = e.value(&means, &vars);
            let mc = mc_ehvi(&front, &reference, &means, &sds, 40_000, &mut rng);
            assert!(
                (exact - mc).abs() < 0.01 * (1.0 + exact.max(mc)),
                "m=2 exact {exact} vs MC {mc} at means {means:?}"
            );
        }
    }

    #[test]
    fn matches_monte_carlo_m3() {
        let front = vec![
            vec![0.2, 0.7, 0.5],
            vec![0.6, 0.3, 0.4],
            vec![0.4, 0.5, 0.2],
            vec![0.8, 0.8, 0.1],
        ];
        let reference = [1.0, 1.0, 1.0];
        let e = Ehvi::new(&front, &reference).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for (means, sds) in [
            (vec![0.4, 0.4, 0.4], vec![0.2, 0.15, 0.2]),
            (vec![0.1, 0.8, 0.6], vec![0.1, 0.3, 0.05]),
        ] {
            let vars: Vec<f64> = sds.iter().map(|s| s * s).collect();
            let exact = e.value(&means, &vars);
            let mc = mc_ehvi(&front, &reference, &means, &sds, 40_000, &mut rng);
            assert!(
                (exact - mc).abs() < 0.01 * (1.0 + exact.max(mc)),
                "m=3 exact {exact} vs MC {mc} at means {means:?}"
            );
        }
    }

    #[test]
    fn improving_a_mean_never_hurts() {
        let front = vec![vec![0.3, 0.6], vec![0.6, 0.3]];
        let e = Ehvi::new(&front, &[1.0, 1.0]).unwrap();
        let vars = [0.04, 0.04];
        let mut prev = e.value(&[1.2, 0.5], &vars);
        for step in 1..=10 {
            let m1 = 1.2 - 0.15 * step as f64;
            let cur = e.value(&[m1, 0.5], &vars);
            assert!(
                cur >= prev - 1e-12,
                "EHVI fell from {prev} to {cur} at mean {m1}"
            );
            prev = cur;
        }
        assert!(prev > 0.0);
    }

    #[test]
    fn degenerate_sd_and_unbounded_stripe_stay_finite() {
        // lo = −∞ with huge means/sds must not produce ∞·0 NaNs.
        assert!(stripe_part(1.0, f64::NEG_INFINITY, 1e9, 1e9).is_finite());
        assert!(stripe_part(1.0, f64::NEG_INFINITY, -1e9, 1e-30).is_finite());
        assert_eq!(stripe_part(1.0, 2.0, 0.0, 1.0), 0.0); // inverted bounds

        // Deterministic limits.
        assert!((stripe_part(1.0, 0.0, 0.5, 0.0) - 0.5).abs() < 1e-12);
        assert!((stripe_part(1.0, 0.7, 0.5, 0.0) - 0.3).abs() < 1e-12);
        assert_eq!(stripe_part(1.0, 0.0, 2.0, 0.0), 0.0);
    }

    #[test]
    fn inferred_reference_pads_the_observed_box() {
        let vals = vec![vec![1.0, 3.0, 2.0], vec![5.0, 5.0, 5.0]];
        let r = inferred_reference(&vals);
        assert!((r[0] - 3.2).abs() < 1e-12); // max 3, range 2 → 3.2
        assert!((r[1] - 6.0).abs() < 1e-12); // degenerate → max + 1
    }
}
