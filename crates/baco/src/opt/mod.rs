//! Numerical optimization of GP hyperparameters: L-BFGS with Armijo
//! backtracking, plus the multistart driver described in Sec. 3.2 of the
//! paper ("multistart gradient descent … optimizes them individually using
//! L-BFGS").
//!
//! The multistart is the dominant cost of every GP refit (each objective
//! evaluation pays an `n³/6` multiply–add kernel factorization, and each
//! gradient also an explicit `K⁻¹` at ≈ `n³` multiply–adds, formed batched
//! and exactly by `Cholesky::inverse`), so the driver is built for the hot
//! path:
//!
//! * start ranking uses a *value-only* objective (no gradient — it would be
//!   thrown away during ranking);
//! * the L-BFGS line search is *lazy*: the objective returns its value with
//!   a gradient thunk, and [`minimize`] forces the thunk only at the start
//!   point, at a trial that passes the Armijo test and at an accepted Wolfe
//!   growth step. A rejected trial's gradient is never computed. For a pure
//!   objective this is bit-identical to computing every gradient;
//! * both the ranking sweep and the per-start L-BFGS refinements run across
//!   threads via [`crate::parallel::parallel_map`].
//!
//! Results are deterministic for a fixed RNG seed and independent of the
//! thread count: starting points are drawn sequentially from the caller's
//! RNG before any parallel work begins, the objective is a pure function,
//! and the best refined start is selected by `(value, start index)` order.
//!
//! ```
//! use baco::opt::{minimize, LbfgsOptions};
//!
//! // Minimize (x₀ − 3)² + (x₁ + 1)² from the origin. The gradient is
//! // returned as a closure, run only where the line search needs it.
//! let mut f = |x: &[f64]| {
//!     let (a, b) = (x[0] - 3.0, x[1] + 1.0);
//!     (a * a + b * b, move || vec![2.0 * a, 2.0 * b])
//! };
//! let r = minimize(&mut f, vec![0.0, 0.0], &LbfgsOptions::default());
//! assert!((r.x[0] - 3.0).abs() < 1e-6 && (r.x[1] + 1.0).abs() < 1e-6);
//! ```

mod lbfgs;

pub use lbfgs::{minimize, LbfgsOptions, LbfgsResult};

use crate::parallel::parallel_map;
use rand::Rng;

/// Multistart minimization: draw `n_samples` starting points with `sample`,
/// keep the `n_keep` with the lowest objective value, refine each with L-BFGS
/// and return the best refined point.
///
/// `value` must return the objective value alone (used to rank raw starts);
/// `value_grad` must return the value and a gradient thunk (used by the
/// L-BFGS refinement, which forces the thunk only at accepted points; see
/// [`minimize`]). Both must agree on the value. `threads` follows the
/// [`crate::parallel::effective_threads`] convention (`0` = auto).
///
/// # Panics
/// Panics if `n_samples == 0` or `n_keep == 0`.
#[allow(clippy::too_many_arguments)]
pub fn multistart_minimize<R, FV, FG, G, S>(
    rng: &mut R,
    n_samples: usize,
    n_keep: usize,
    mut sample: S,
    value: &FV,
    value_grad: &FG,
    opts: &LbfgsOptions,
    threads: usize,
) -> LbfgsResult
where
    R: Rng + ?Sized,
    FV: Fn(&[f64]) -> f64 + Sync,
    FG: Fn(&[f64]) -> (f64, G) + Sync,
    G: FnOnce() -> Vec<f64>,
    S: FnMut(&mut R) -> Vec<f64>,
{
    assert!(
        n_samples > 0 && n_keep > 0,
        "multistart needs at least one sample"
    );
    // Draw every start from the caller's RNG up front: the stream consumed is
    // the same regardless of how the evaluations below are scheduled.
    let raw: Vec<Vec<f64>> = (0..n_samples).map(|_| sample(rng)).collect();
    let values = parallel_map((0..raw.len()).collect(), threads, |_, i: usize| {
        value(&raw[i])
    });
    let mut starts: Vec<(f64, Vec<f64>)> = values
        .into_iter()
        .zip(raw)
        .filter(|(v, _)| v.is_finite())
        .collect();
    starts.sort_by(|a, b| a.0.total_cmp(&b.0)); // stable: ties keep draw order
    starts.truncate(n_keep.max(1));
    if starts.is_empty() {
        // All samples produced non-finite values; fall back to one raw draw.
        let x = sample(rng);
        return minimize(&mut |x: &[f64]| value_grad(x), x, opts);
    }

    let refined = parallel_map(starts, threads, |_, (_, x0)| {
        minimize(&mut |x: &[f64]| value_grad(x), x0, opts)
    });
    refined
        .into_iter()
        .reduce(|best, r| if r.value < best.value { r } else { best })
        .expect("at least one start")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Multimodal function; multistart should find the global basin near the
    /// origin more reliably than a single descent.
    fn bumpy(x: &[f64]) -> f64 {
        x.iter()
            .map(|&xi| xi * xi + 2.0 * (1.0 - (3.0 * xi).cos()))
            .sum()
    }

    fn bumpy_grad(x: &[f64]) -> Vec<f64> {
        x.iter()
            .map(|&xi| 2.0 * xi + 6.0 * (3.0 * xi).sin())
            .collect()
    }

    fn run_multistart(seed: u64, threads: usize) -> LbfgsResult {
        let mut rng = StdRng::seed_from_u64(seed);
        let opts = LbfgsOptions::default();
        multistart_minimize(
            &mut rng,
            200,
            24,
            |rng| (0..3).map(|_| rng.gen_range(-4.0..4.0)).collect(),
            &bumpy,
            &|x: &[f64]| {
                let x = x.to_vec();
                (bumpy(&x), move || bumpy_grad(&x))
            },
            &opts,
            threads,
        )
    }

    #[test]
    fn multistart_finds_global_basin() {
        let r = run_multistart(1, 1);
        assert!(r.value < 1e-6, "value {}", r.value);
        for xi in &r.x {
            assert!(xi.abs() < 1e-3);
        }
    }

    #[test]
    fn parallel_multistart_is_deterministic_and_thread_invariant() {
        let reference = run_multistart(7, 1);
        for threads in [0, 2, 4] {
            let r = run_multistart(7, threads);
            assert_eq!(
                r.value.to_bits(),
                reference.value.to_bits(),
                "threads {threads}"
            );
            let same =
                r.x.iter()
                    .zip(&reference.x)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "threads {threads}: {:?} vs {:?}", r.x, reference.x);
        }
    }
}
