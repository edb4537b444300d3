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
//! * the whole multistart runs on the caller's thread. Fanning the ranking
//!   and the refinements out over two scoped threads per fit cost 100–130 µs
//!   of CPU per spawn pair and 15–45 % more CPU per fit at n ≥ 60 on a
//!   2-vCPU host, so the objectives need not be `Sync`; parallelism lives
//!   where work is coarse and independent (server sessions, black-box
//!   evaluations).
//!
//! Results are deterministic for a fixed RNG seed: starting points are drawn
//! from the caller's RNG before any is evaluated, the objective is a pure
//! function, and the best refined start is selected by `(value, start
//! index)` order.
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

use rand::Rng;

/// Multistart minimization: draw `n_samples` starting points with `sample`,
/// keep the `n_keep` with the lowest objective value, refine each with L-BFGS
/// and return the best refined point.
///
/// `value` must return the objective value alone (used to rank raw starts);
/// `value_grad` must return the value and a gradient thunk (used by the
/// L-BFGS refinement, which forces the thunk only at accepted points; see
/// [`minimize`]). Both must agree on the value. Every call runs on the
/// caller's thread: the raw draws are ranked in draw order, then the kept
/// starts are refined in rank order.
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
) -> LbfgsResult
where
    R: Rng + ?Sized,
    FV: Fn(&[f64]) -> f64,
    FG: Fn(&[f64]) -> (f64, G),
    G: FnOnce() -> Vec<f64>,
    S: FnMut(&mut R) -> Vec<f64>,
{
    assert!(
        n_samples > 0 && n_keep > 0,
        "multistart needs at least one sample"
    );
    // Draw every start from the caller's RNG before ranking any of them.
    let raw: Vec<Vec<f64>> = (0..n_samples).map(|_| sample(rng)).collect();
    let mut starts: Vec<(f64, Vec<f64>)> = raw
        .into_iter()
        .map(|x| (value(&x), x))
        .filter(|(v, _)| v.is_finite())
        .collect();
    starts.sort_by(|a, b| a.0.total_cmp(&b.0)); // stable: ties keep draw order
    starts.truncate(n_keep.max(1));
    if starts.is_empty() {
        // All samples produced non-finite values; fall back to one raw draw.
        let x = sample(rng);
        return minimize(&mut |x: &[f64]| value_grad(x), x, opts);
    }

    starts
        .into_iter()
        .map(|(_, x0)| minimize(&mut |x: &[f64]| value_grad(x), x0, opts))
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

    #[test]
    fn multistart_finds_global_basin() {
        let mut rng = StdRng::seed_from_u64(1);
        let r = multistart_minimize(
            &mut rng,
            200,
            24,
            |rng| (0..3).map(|_| rng.gen_range(-4.0..4.0)).collect(),
            &bumpy,
            &|x: &[f64]| {
                let x = x.to_vec();
                (bumpy(&x), move || bumpy_grad(&x))
            },
            &LbfgsOptions::default(),
        );
        assert!(r.value < 1e-6, "value {}", r.value);
        for xi in &r.x {
            assert!(xi.abs() < 1e-3);
        }
    }

    /// The objectives hold `RefCell`s, so they are not `Sync`: this compiles
    /// only because the multistart never shares them across threads. Every
    /// call is recorded with the thread it ran on.
    #[test]
    fn multistart_runs_on_the_callers_thread_in_draw_order() {
        use std::cell::RefCell;
        use std::thread::{self, ThreadId};

        let caller = thread::current().id();
        let draws: RefCell<Vec<Vec<f64>>> = RefCell::new(Vec::new());
        let ranked: RefCell<Vec<(Vec<f64>, ThreadId)>> = RefCell::new(Vec::new());
        let refined: RefCell<Vec<(Vec<f64>, ThreadId)>> = RefCell::new(Vec::new());
        let grads: RefCell<Vec<ThreadId>> = RefCell::new(Vec::new());
        let mut rng = StdRng::seed_from_u64(7);
        let r = multistart_minimize(
            &mut rng,
            40,
            4,
            |rng| {
                let x: Vec<f64> = (0..3).map(|_| rng.gen_range(-4.0..4.0)).collect();
                draws.borrow_mut().push(x.clone());
                x
            },
            &|x: &[f64]| {
                ranked
                    .borrow_mut()
                    .push((x.to_vec(), thread::current().id()));
                bumpy(x)
            },
            &|x: &[f64]| {
                refined
                    .borrow_mut()
                    .push((x.to_vec(), thread::current().id()));
                let (x, grads) = (x.to_vec(), &grads);
                (bumpy(&x), move || {
                    grads.borrow_mut().push(thread::current().id());
                    bumpy_grad(&x)
                })
            },
            &LbfgsOptions::default(),
        );
        assert!(r.value.is_finite());

        let draws = draws.into_inner();
        let ranked = ranked.into_inner();
        let refined = refined.into_inner();
        let grads = grads.into_inner();
        assert_eq!(draws.len(), 40);
        assert!(!refined.is_empty() && !grads.is_empty());
        let on_caller = ranked
            .iter()
            .chain(&refined)
            .map(|(_, t)| t)
            .chain(&grads)
            .all(|t| *t == caller);
        assert!(on_caller, "an objective call left the caller's thread");
        // Ranking evaluates every draw once, in the order it was drawn.
        let ranked_points: Vec<Vec<f64>> = ranked.into_iter().map(|(x, _)| x).collect();
        assert_eq!(ranked_points, draws);
        // Refinement starts from the best-ranked draw.
        let best = draws
            .iter()
            .min_by(|a, b| bumpy(a).total_cmp(&bumpy(b)))
            .unwrap();
        assert_eq!(&refined[0].0, best);
    }
}
