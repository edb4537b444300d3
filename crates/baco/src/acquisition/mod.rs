//! Acquisition functions (Sec. 3.3): the modified, *noise-free* Expected
//! Improvement, its feasibility-weighted extension for hidden constraints
//! (Sec. 4.2), the randomly resampled minimum-feasibility threshold ε_f, and
//! optional user priors over the optimum ([`OptimumPrior`], Sec. 6).
//!
//! ```
//! use baco::acquisition::{expected_improvement, feasibility_weighted_ei};
//!
//! // A candidate predicted at the incumbent with real uncertainty is worth
//! // trying; one far above it with no uncertainty is not.
//! let promising = expected_improvement(1.0, 0.5, 1.0);
//! let hopeless = expected_improvement(5.0, 1e-9, 1.0);
//! assert!(promising > 0.0 && hopeless < 1e-12);
//!
//! // Feasibility weighting gates candidates below the ε_f threshold.
//! assert_eq!(feasibility_weighted_ei(promising, 0.9, 0.5), promising * 0.9);
//! assert_eq!(feasibility_weighted_ei(promising, 0.2, 0.5), f64::NEG_INFINITY);
//! ```

mod ehvi;
mod prior;

pub use ehvi::{inferred_reference, Ehvi};
pub use prior::OptimumPrior;

use rand::Rng;

/// Standard normal probability density.
pub fn normal_pdf(z: f64) -> f64 {
    (-(z * z) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal cumulative distribution, via the Abramowitz & Stegun
/// 7.1.26 rational approximation of `erf` (|error| < 1.5e-7).
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Noise-free Expected Improvement for **minimization**.
///
/// `mean`/`var` are the latent posterior at the candidate (the GP's
/// noise-free predictive distribution — Sec. 3.3's modification that stops EI
/// from re-sampling known-good points), `incumbent` the best observed value.
pub fn expected_improvement(mean: f64, var: f64, incumbent: f64) -> f64 {
    let sd = var.max(0.0).sqrt();
    if sd < 1e-15 {
        return (incumbent - mean).max(0.0);
    }
    let z = (incumbent - mean) / sd;
    let ei = (incumbent - mean) * normal_cdf(z) + sd * normal_pdf(z);
    ei.max(0.0)
}

/// The per-iteration minimum-feasibility threshold ε_f (Sec. 4.2).
///
/// Drawn anew each iteration: with probability `p_zero` it is `0` (so no
/// candidate is ever permanently excluded — the asymptotic-correctness
/// guarantee), otherwise uniform on `(0, max]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpsilonSchedule {
    /// Probability of drawing ε_f = 0.
    pub p_zero: f64,
    /// Upper bound of the uniform draw otherwise.
    pub max: f64,
}

impl Default for EpsilonSchedule {
    fn default() -> Self {
        EpsilonSchedule {
            p_zero: 0.3,
            max: 0.5,
        }
    }
}

impl EpsilonSchedule {
    /// Draws this iteration's ε_f.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if rng.gen_bool(self.p_zero.clamp(0.0, 1.0)) {
            0.0
        } else {
            rng.gen_range(0.0..self.max.max(f64::MIN_POSITIVE))
        }
    }
}

/// Combines EI with the probability of feasibility: candidates below the
/// ε_f threshold score `-∞`; otherwise `EI × P(feasible)` (Sec. 4.2).
pub fn feasibility_weighted_ei(ei: f64, p_feasible: f64, epsilon_f: f64) -> f64 {
    if p_feasible < epsilon_f {
        f64::NEG_INFINITY
    } else {
        ei * p_feasible
    }
}

/// ParEGO-style random-weight scalarization of a multi-objective posterior.
///
/// Each acquisition round of a multi-objective run draws one weight vector λ
/// from the unit simplex and collapses the per-objective posteriors into a
/// scalar problem via the **augmented Chebyshev** function over objectives
/// normalized to the observed range:
///
/// ```text
/// f_λ(x) = max_i λ_i z_i(x) + ρ · Σ_i λ_i z_i(x),      z_i = (f_i − min_i) / (max_i − min_i)
/// ```
///
/// Minimizing `f_λ` for all λ sweeps the (possibly non-convex) Pareto front;
/// re-drawing λ every round is what spreads consecutive proposals across the
/// front. The draw comes from the tuner's seeded RNG stream, whose state is
/// journaled per round, so a resumed run replays the exact same weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Scalarization {
    /// Simplex weights, one per objective (Σ = 1).
    pub weights: Vec<f64>,
    /// Per-objective observed minimum (of the transformed values).
    pub mins: Vec<f64>,
    /// Per-objective observed maximum.
    pub maxs: Vec<f64>,
    /// Augmentation coefficient ρ (ParEGO's 0.05).
    pub rho: f64,
}

impl Scalarization {
    /// Draws a uniform simplex weight vector for `m` objectives and captures
    /// the normalization ranges from `values` (one slice per objective, the
    /// observed transformed history).
    pub fn sample<R: Rng + ?Sized>(rng: &mut R, values: &[Vec<f64>]) -> Scalarization {
        let m = values.len();
        // Uniform on the simplex: sorted U(0,1) spacings.
        let mut cuts: Vec<f64> = (0..m.saturating_sub(1))
            .map(|_| rng.gen_range(0.0..1.0))
            .collect();
        cuts.sort_by(f64::total_cmp);
        cuts.push(1.0);
        let mut weights = Vec::with_capacity(m);
        let mut prev = 0.0;
        for c in cuts {
            weights.push(c - prev);
            prev = c;
        }
        let mins = values
            .iter()
            .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
            .collect();
        let maxs = values
            .iter()
            .map(|v| v.iter().copied().fold(f64::NEG_INFINITY, f64::max))
            .collect();
        Scalarization {
            weights,
            mins,
            maxs,
            rho: 0.05,
        }
    }

    /// Normalizes one objective value to the observed range. A degenerate
    /// range (a constant objective column, common in early DoE rounds) falls
    /// back to a **unit range** — `v − min` divided by 1 — so the candidate's
    /// posterior still differentiates values instead of the whole column
    /// collapsing to a constant 0 and erasing the GP's signal.
    fn norm(&self, i: usize, v: f64) -> f64 {
        let range = self.maxs[i] - self.mins[i];
        let range = if range > 0.0 { range } else { 1.0 };
        (v - self.mins[i]) / range
    }

    /// The augmented-Chebyshev scalarization of one objective vector
    /// (already transformed like the training targets).
    pub fn scalarize(&self, objectives: &[f64]) -> f64 {
        let mut cheby = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for (i, (&v, &w)) in objectives.iter().zip(&self.weights).enumerate() {
            let t = w * self.norm(i, v);
            cheby = cheby.max(t);
            sum += t;
        }
        cheby + self.rho * sum
    }

    /// Propagates per-objective posterior variances through (a linearization
    /// of) the scalarization: each objective's standard deviation is scaled
    /// by its normalization range and by the effective weight `λ_i (1 + ρ)`,
    /// and the contributions are summed in quadrature. A pragmatic
    /// upper-bound-flavored proxy — exact for the augmented sum term,
    /// conservative for the max term — that keeps the scalarized posterior
    /// in the same units as [`Scalarization::scalarize`].
    pub fn scalarize_variance(&self, variances: &[f64]) -> f64 {
        variances
            .iter()
            .zip(&self.weights)
            .enumerate()
            .map(|(i, (&var, &w))| {
                let range = self.maxs[i] - self.mins[i];
                // Same unit-range fallback as `norm`: a constant column keeps
                // its posterior variance instead of being zeroed out.
                let range = if range > 0.0 { range } else { 1.0 };
                let scale = w * (1.0 + self.rho) / range;
                var.max(0.0) * scale * scale
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cdf_reference_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(normal_cdf(8.0) > 0.999_999);
        assert!(normal_cdf(-8.0) < 1e-6);
    }

    #[test]
    fn pdf_symmetric_and_normalized_peak() {
        assert!((normal_pdf(0.0) - 0.398_942_3).abs() < 1e-6);
        assert!((normal_pdf(1.3) - normal_pdf(-1.3)).abs() < 1e-12);
    }

    #[test]
    fn ei_is_nonnegative_and_monotone_in_uncertainty() {
        // Candidate mean equals incumbent: EI grows with sd.
        let e1 = expected_improvement(1.0, 0.01, 1.0);
        let e2 = expected_improvement(1.0, 1.0, 1.0);
        assert!(e2 > e1 && e1 > 0.0);
        // Way above incumbent, tiny variance → ~0.
        assert!(expected_improvement(10.0, 1e-6, 1.0) < 1e-10);
        // Below incumbent, zero variance → exact improvement.
        assert!((expected_improvement(0.2, 0.0, 1.0) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn ei_never_negative_randomized() {
        let mut rng = StdRng::seed_from_u64(1);
        use rand::Rng;
        for _ in 0..1000 {
            let m = rng.gen_range(-10.0..10.0);
            let v = rng.gen_range(0.0..5.0);
            let inc = rng.gen_range(-10.0..10.0);
            assert!(expected_improvement(m, v, inc) >= 0.0);
        }
    }

    #[test]
    fn epsilon_schedule_hits_zero_and_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = EpsilonSchedule::default();
        let draws: Vec<f64> = (0..2000).map(|_| s.sample(&mut rng)).collect();
        let zeros = draws.iter().filter(|&&e| e == 0.0).count();
        assert!((400..800).contains(&zeros), "zeros {zeros}");
        assert!(draws.iter().all(|&e| (0.0..=0.5).contains(&e)));
    }

    #[test]
    fn feasibility_weighting_gates_and_scales() {
        assert_eq!(feasibility_weighted_ei(1.0, 0.1, 0.2), f64::NEG_INFINITY);
        assert!((feasibility_weighted_ei(2.0, 0.5, 0.2) - 1.0).abs() < 1e-12);
        assert_eq!(feasibility_weighted_ei(2.0, 1.0, 0.0), 2.0);
    }

    #[test]
    fn scalarization_weights_are_a_simplex_draw() {
        let mut rng = StdRng::seed_from_u64(3);
        let history = vec![vec![1.0, 2.0, 4.0], vec![10.0, 20.0, 5.0]];
        for _ in 0..200 {
            let s = Scalarization::sample(&mut rng, &history);
            assert_eq!(s.weights.len(), 2);
            assert!((s.weights.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(s.weights.iter().all(|&w| (0.0..=1.0).contains(&w)));
        }
        let s = Scalarization::sample(&mut rng, &history);
        assert_eq!(s.mins, vec![1.0, 5.0]);
        assert_eq!(s.maxs, vec![4.0, 20.0]);
    }

    #[test]
    fn scalarize_prefers_dominating_points() {
        let s = Scalarization {
            weights: vec![0.5, 0.5],
            mins: vec![0.0, 0.0],
            maxs: vec![1.0, 1.0],
            rho: 0.05,
        };
        // A point dominating another always scalarizes lower, whatever λ.
        assert!(s.scalarize(&[0.2, 0.3]) < s.scalarize(&[0.4, 0.5]));
        // Extreme weights select the matching axis.
        let sx = Scalarization {
            weights: vec![1.0, 0.0],
            ..s.clone()
        };
        assert!(sx.scalarize(&[0.1, 0.9]) < sx.scalarize(&[0.5, 0.1]));
        // Degenerate range falls back to a unit range instead of dividing by
        // zero: finite, and still ordered by the raw value.
        let sd = Scalarization {
            weights: vec![0.5, 0.5],
            mins: vec![2.0, 0.0],
            maxs: vec![2.0, 1.0],
            rho: 0.05,
        };
        assert!(sd.scalarize(&[2.0, 0.5]).is_finite());
        assert!(sd.scalarize(&[2.0, 0.5]) < sd.scalarize(&[2.4, 0.5]));
    }

    #[test]
    fn degenerate_range_keeps_unit_scale_not_zero() {
        // A constant objective column (all trials equal) must not collapse
        // the scalarization to a constant: candidates' posterior means still
        // differ through the unit-range fallback …
        let s = Scalarization {
            weights: vec![0.6, 0.4],
            mins: vec![3.0, 3.0],
            maxs: vec![3.0, 3.0],
            rho: 0.05,
        };
        let lo = s.scalarize(&[3.0, 3.0]);
        let hi = s.scalarize(&[3.5, 3.1]);
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "lo {lo} hi {hi}"
        );
        // … and the scalarized posterior variance survives instead of being
        // zeroed (which froze EI to pure exploitation on degenerate columns).
        let v = s.scalarize_variance(&[0.25, 0.25]);
        assert!(v > 0.0, "variance collapsed: {v}");
    }

    #[test]
    fn scalarized_variance_is_nonnegative_and_scales() {
        let s = Scalarization {
            weights: vec![0.5, 0.5],
            mins: vec![0.0, 0.0],
            maxs: vec![1.0, 2.0],
            rho: 0.05,
        };
        let v = s.scalarize_variance(&[0.4, 0.4]);
        assert!(v > 0.0);
        assert!(s.scalarize_variance(&[0.0, 0.0]).abs() < 1e-15);
        // More per-objective variance → more scalarized variance.
        assert!(s.scalarize_variance(&[0.8, 0.8]) > v);
    }
}
