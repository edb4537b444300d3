use crate::linalg::{axpy, dot, norm2};
use std::collections::VecDeque;

/// Options for [`minimize`].
#[derive(Debug, Clone)]
pub struct LbfgsOptions {
    /// Maximum outer iterations.
    pub max_iters: usize,
    /// History size of the two-loop recursion.
    pub history: usize,
    /// Convergence tolerance on the gradient ∞-norm.
    pub grad_tol: f64,
    /// Armijo sufficient-decrease constant.
    pub armijo_c: f64,
    /// Backtracking shrink factor.
    pub backtrack: f64,
    /// Maximum line-search steps per iteration.
    pub max_line_search: usize,
}

impl Default for LbfgsOptions {
    fn default() -> Self {
        LbfgsOptions {
            max_iters: 100,
            history: 8,
            grad_tol: 1e-6,
            armijo_c: 1e-4,
            backtrack: 0.5,
            max_line_search: 30,
        }
    }
}

/// Result of [`minimize`].
#[derive(Debug, Clone)]
pub struct LbfgsResult {
    /// Final point.
    pub x: Vec<f64>,
    /// Final objective value.
    pub value: f64,
    /// Outer iterations performed.
    pub iters: usize,
    /// Whether the gradient tolerance was met.
    pub converged: bool,
}

/// Minimizes `f` from `x0` with limited-memory BFGS and Armijo backtracking
/// line search.
///
/// `f` returns the objective value together with a *gradient thunk*: the
/// gradient is only computed when the thunk is called. The minimizer forces
/// it at exactly three kinds of point — the start point, a line-search trial
/// that passes the Armijo test, and an accepted Wolfe growth step — and
/// drops the thunk of every rejected trial unforced. For a pure objective
/// the result is therefore bit-identical to evaluating every gradient
/// eagerly; only the discarded gradients are skipped.
///
/// Robust to line-search failure (returns the best point found). `f` may
/// return non-finite values away from the feasible region; such steps are
/// rejected by the line search.
pub fn minimize<F, G>(f: &mut F, x0: Vec<f64>, opts: &LbfgsOptions) -> LbfgsResult
where
    F: FnMut(&[f64]) -> (f64, G),
    G: FnOnce() -> Vec<f64>,
{
    let n = x0.len();
    let mut x = x0;
    let (mut fx, grad) = f(&x);
    if !fx.is_finite() {
        return LbfgsResult {
            x,
            value: fx,
            iters: 0,
            converged: false,
        };
    }
    let mut g = grad();

    // (s, y, rho) triples.
    let mut hist: VecDeque<(Vec<f64>, Vec<f64>, f64)> = VecDeque::with_capacity(opts.history);
    let mut iters = 0;
    let mut converged = false;

    for it in 0..opts.max_iters {
        iters = it + 1;
        let gmax = g.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if gmax < opts.grad_tol {
            converged = true;
            break;
        }

        // Two-loop recursion: d = -H g.
        let mut q = g.clone();
        let mut alphas = Vec::with_capacity(hist.len());
        for (s, y, rho) in hist.iter().rev() {
            let a = rho * dot(s, &q);
            axpy(-a, y, &mut q);
            alphas.push(a);
        }
        // Initial Hessian scaling gamma = s·y / y·y.
        if let Some((s, y, _)) = hist.back() {
            let yy = dot(y, y);
            if yy > 0.0 {
                let gamma = dot(s, y) / yy;
                for qi in q.iter_mut() {
                    *qi *= gamma;
                }
            }
        }
        for ((s, y, rho), a) in hist.iter().zip(alphas.into_iter().rev()) {
            let b = rho * dot(y, &q);
            axpy(a - b, s, &mut q);
        }
        let mut d: Vec<f64> = q.into_iter().map(|v| -v).collect();

        // Ensure a descent direction; otherwise fall back to -g.
        let mut dg = dot(&d, &g);
        if !(dg.is_finite() && dg < 0.0) {
            d = g.iter().map(|v| -v).collect();
            dg = -dot(&g, &g);
            hist.clear();
            if dg == 0.0 {
                converged = true;
                break;
            }
        }

        // Armijo backtracking, then a Wolfe-style growth phase: if the unit
        // step satisfies Armijo but the slope along `d` is still strongly
        // negative (curvature condition unmet), grow the step. Without this,
        // curvature pairs have s·y ≈ 0 and the history degenerates. Only an
        // accepted trial's gradient is forced.
        let mut step = 1.0;
        let mut accepted = None;
        let mut backtracked = false;
        let mut x_new = vec![0.0; n];
        for _ in 0..opts.max_line_search {
            for i in 0..n {
                x_new[i] = x[i] + step * d[i];
            }
            let (fv, gv) = f(&x_new);
            if fv.is_finite() && fv <= fx + opts.armijo_c * step * dg {
                accepted = Some((fv, gv()));
                break;
            }
            backtracked = true;
            step *= opts.backtrack;
        }
        let Some((mut f_new, mut g_new)) = accepted else {
            break;
        };
        if !backtracked {
            const WOLFE_C2: f64 = 0.9;
            for _ in 0..10 {
                if dot(&d, &g_new) >= WOLFE_C2 * dg {
                    break; // curvature condition met
                }
                let grown = step * 2.0;
                let mut x_try = vec![0.0; n];
                for i in 0..n {
                    x_try[i] = x[i] + grown * d[i];
                }
                let (fv, gv) = f(&x_try);
                if fv.is_finite() && fv <= fx + opts.armijo_c * grown * dg {
                    step = grown;
                    x_new = x_try;
                    f_new = fv;
                    g_new = gv();
                } else {
                    break;
                }
            }
        }

        let s: Vec<f64> = x_new.iter().zip(&x).map(|(a, b)| a - b).collect();
        let yv: Vec<f64> = g_new.iter().zip(&g).map(|(a, b)| a - b).collect();
        let sy = dot(&s, &yv);
        if sy > 1e-12 * norm2(&s) * norm2(&yv) && sy.is_finite() {
            if hist.len() == opts.history {
                hist.pop_front();
            }
            hist.push_back((s, yv.clone(), 1.0 / sy));
        }
        x = x_new;
        fx = f_new;
        g = g_new;
    }

    LbfgsResult {
        x,
        value: fx,
        iters,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    /// The minimizer before the lazy line search: every trial point's
    /// gradient computed eagerly, kept as the bitwise reference.
    fn minimize_eager<F>(f: &mut F, x0: Vec<f64>, opts: &LbfgsOptions) -> LbfgsResult
    where
        F: FnMut(&[f64]) -> (f64, Vec<f64>),
    {
        let n = x0.len();
        let mut x = x0;
        let (mut fx, mut g) = f(&x);
        if !fx.is_finite() {
            return LbfgsResult {
                x,
                value: fx,
                iters: 0,
                converged: false,
            };
        }
        let mut hist: VecDeque<(Vec<f64>, Vec<f64>, f64)> = VecDeque::with_capacity(opts.history);
        let mut iters = 0;
        let mut converged = false;
        for it in 0..opts.max_iters {
            iters = it + 1;
            let gmax = g.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if gmax < opts.grad_tol {
                converged = true;
                break;
            }
            let mut q = g.clone();
            let mut alphas = Vec::with_capacity(hist.len());
            for (s, y, rho) in hist.iter().rev() {
                let a = rho * dot(s, &q);
                axpy(-a, y, &mut q);
                alphas.push(a);
            }
            if let Some((s, y, _)) = hist.back() {
                let yy = dot(y, y);
                if yy > 0.0 {
                    let gamma = dot(s, y) / yy;
                    for qi in q.iter_mut() {
                        *qi *= gamma;
                    }
                }
            }
            for ((s, y, rho), a) in hist.iter().zip(alphas.into_iter().rev()) {
                let b = rho * dot(y, &q);
                axpy(a - b, s, &mut q);
            }
            let mut d: Vec<f64> = q.into_iter().map(|v| -v).collect();
            let mut dg = dot(&d, &g);
            if !(dg.is_finite() && dg < 0.0) {
                d = g.iter().map(|v| -v).collect();
                dg = -dot(&g, &g);
                hist.clear();
                if dg == 0.0 {
                    converged = true;
                    break;
                }
            }
            let mut step = 1.0;
            let mut accepted = false;
            let mut backtracked = false;
            let mut x_new = vec![0.0; n];
            let mut f_new = fx;
            let mut g_new = g.clone();
            for _ in 0..opts.max_line_search {
                for i in 0..n {
                    x_new[i] = x[i] + step * d[i];
                }
                let (fv, gv) = f(&x_new);
                if fv.is_finite() && fv <= fx + opts.armijo_c * step * dg {
                    accepted = true;
                    f_new = fv;
                    g_new = gv;
                    break;
                }
                backtracked = true;
                step *= opts.backtrack;
            }
            if !accepted {
                break;
            }
            if !backtracked {
                for _ in 0..10 {
                    if dot(&d, &g_new) >= 0.9 * dg {
                        break;
                    }
                    let grown = step * 2.0;
                    let mut x_try = vec![0.0; n];
                    for i in 0..n {
                        x_try[i] = x[i] + grown * d[i];
                    }
                    let (fv, gv) = f(&x_try);
                    if fv.is_finite() && fv <= fx + opts.armijo_c * grown * dg {
                        step = grown;
                        x_new = x_try;
                        f_new = fv;
                        g_new = gv;
                    } else {
                        break;
                    }
                }
            }
            let s: Vec<f64> = x_new.iter().zip(&x).map(|(a, b)| a - b).collect();
            let yv: Vec<f64> = g_new.iter().zip(&g).map(|(a, b)| a - b).collect();
            let sy = dot(&s, &yv);
            if sy > 1e-12 * norm2(&s) * norm2(&yv) && sy.is_finite() {
                if hist.len() == opts.history {
                    hist.pop_front();
                }
                hist.push_back((s, yv.clone(), 1.0 / sy));
            }
            x = x_new.clone();
            fx = f_new;
            g = g_new;
        }
        LbfgsResult {
            x,
            value: fx,
            iters,
            converged,
        }
    }

    /// A test objective as separate value and gradient functions.
    type Objective = (fn(&[f64]) -> f64, fn(&[f64]) -> Vec<f64>);

    /// f = Σ i·(x_i − i)²
    const QUADRATIC: Objective = (
        |x| {
            x.iter()
                .enumerate()
                .map(|(i, &xi)| (i + 1) as f64 * (xi - (i + 1) as f64).powi(2))
                .sum()
        },
        |x| {
            x.iter()
                .enumerate()
                .map(|(i, &xi)| 2.0 * (i + 1) as f64 * (xi - (i + 1) as f64))
                .collect()
        },
    );

    const ROSENBROCK: Objective = (
        |x| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2),
        |x| {
            vec![
                -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]),
                200.0 * (x[1] - x[0] * x[0]),
            ]
        },
    );

    /// A bowl around (2, −1) that is +∞ for x₀ > 2.5 and NaN for x₁ < −3,
    /// so long steps land in non-finite regions and must be rejected.
    const CLIFF: Objective = (
        |x| {
            if x[1] < -3.0 {
                f64::NAN
            } else if x[0] > 2.5 {
                f64::INFINITY
            } else {
                (x[0] - 2.0).powi(2) + 3.0 * (x[1] + 1.0).powi(2) + 0.1 * x[0].powi(4)
            }
        },
        |x| vec![2.0 * (x[0] - 2.0) + 0.4 * x[0].powi(3), 6.0 * (x[1] + 1.0)],
    );

    type Thunk = Box<dyn FnOnce() -> Vec<f64>>;

    fn lazy(obj: Objective) -> impl FnMut(&[f64]) -> (f64, Thunk) {
        move |x: &[f64]| {
            let x = x.to_vec();
            ((obj.0)(&x), Box::new(move || (obj.1)(&x)) as Thunk)
        }
    }

    fn eager(obj: Objective) -> impl FnMut(&[f64]) -> (f64, Vec<f64>) {
        move |x: &[f64]| ((obj.0)(x), (obj.1)(x))
    }

    fn same(a: &LbfgsResult, b: &LbfgsResult) -> bool {
        a.value.to_bits() == b.value.to_bits()
            && a.iters == b.iters
            && a.converged == b.converged
            && a.x.len() == b.x.len()
            && a.x
                .iter()
                .zip(&b.x)
                .all(|(p, q)| p.to_bits() == q.to_bits())
    }

    fn long_run() -> LbfgsOptions {
        LbfgsOptions {
            max_iters: 500,
            ..Default::default()
        }
    }

    #[test]
    fn solves_quadratic_exactly() {
        let r = minimize(&mut lazy(QUADRATIC), vec![0.0; 5], &LbfgsOptions::default());
        assert!(r.converged);
        for (i, xi) in r.x.iter().enumerate() {
            assert!((xi - (i + 1) as f64).abs() < 1e-5, "x[{i}] = {xi}");
        }
    }

    #[test]
    fn solves_rosenbrock() {
        let r = minimize(&mut lazy(ROSENBROCK), vec![-1.2, 1.0], &long_run());
        assert!(r.value < 1e-8, "value {}", r.value);
        assert!((r.x[0] - 1.0).abs() < 1e-3 && (r.x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn steps_around_non_finite_regions() {
        let r = minimize(&mut lazy(CLIFF), vec![-5.0, 4.0], &long_run());
        assert!(r.converged && r.value.is_finite(), "{r:?}");
        assert!(r.x[0] <= 2.5 && r.x[1] >= -3.0, "{r:?}");
    }

    #[test]
    fn lazy_gradients_match_eager_reference_bitwise() {
        let opts = long_run();
        let cases: [(Objective, Vec<f64>); 6] = [
            (QUADRATIC, vec![0.0; 5]),
            (QUADRATIC, vec![-7.0, 3.0, 40.0, 0.5, -2.0]),
            (ROSENBROCK, vec![-1.2, 1.0]),
            (ROSENBROCK, vec![2.0, -1.5]),
            (CLIFF, vec![-5.0, 4.0]),
            (CLIFF, vec![2.4, 9.0]),
        ];
        for (obj, x0) in cases {
            let r = minimize(&mut lazy(obj), x0.clone(), &opts);
            let reference = minimize_eager(&mut eager(obj), x0.clone(), &opts);
            assert!(same(&r, &reference), "x0 {x0:?}: {r:?} vs {reference:?}");
        }
        // A non-finite start returns before any gradient, in both.
        let r = minimize(&mut lazy(CLIFF), vec![3.0, 0.0], &opts);
        let reference = minimize_eager(&mut eager(CLIFF), vec![3.0, 0.0], &opts);
        assert!(same(&r, &reference) && r.iters == 0);
    }

    #[derive(Debug)]
    enum Call {
        Value(Vec<f64>, f64),
        Grad(Vec<f64>),
    }

    #[test]
    fn gradient_is_forced_only_at_accepted_points() {
        for (obj, x0) in [(ROSENBROCK, vec![-1.2, 1.0]), (CLIFF, vec![-5.0, 4.0])] {
            let log = RefCell::new(Vec::new());
            let calls = &log;
            let mut f = move |x: &[f64]| {
                let v = (obj.0)(x);
                calls.borrow_mut().push(Call::Value(x.to_vec(), v));
                let x = x.to_vec();
                (v, move || {
                    calls.borrow_mut().push(Call::Grad(x.clone()));
                    (obj.1)(&x)
                })
            };
            let r = minimize(&mut f, x0, &long_run());
            let log = log.into_inner();

            // Each forced gradient belongs to the evaluation just before it:
            // a thunk is forced at once or dropped, never held.
            let mut accepted: Vec<(&[f64], f64)> = Vec::new();
            let mut dropped = Vec::new();
            for (k, call) in log.iter().enumerate() {
                match (call, log.get(k + 1)) {
                    (Call::Value(x, v), Some(Call::Grad(gx))) => {
                        assert_eq!(x, gx, "gradient forced at another point");
                        accepted.push((x, *v));
                    }
                    (Call::Value(_, v), _) => dropped.push(*v),
                    (Call::Grad(_), _) => {
                        assert!(
                            matches!(log[k - 1], Call::Value(..)),
                            "gradient without value"
                        )
                    }
                }
            }
            // The start point and every accepted step pass sufficient
            // decrease, so the forced values strictly decrease, and the last
            // accepted point is the result.
            assert!(accepted.windows(2).all(|w| w[1].1 < w[0].1), "{accepted:?}");
            assert!(accepted.iter().all(|(_, v)| v.is_finite()));
            let (last_x, last_v) = *accepted.last().unwrap();
            assert_eq!(last_x, &r.x[..]);
            assert_eq!(last_v.to_bits(), r.value.to_bits());
            // Rejected trials were evaluated but their gradients never run.
            assert!(!dropped.is_empty(), "no rejected trial exercised");
            if (obj.0)(&[3.0, 0.0]).is_infinite() {
                assert!(
                    dropped.iter().any(|v| !v.is_finite()),
                    "no non-finite trial"
                );
            }
        }
    }

    #[test]
    fn non_finite_start_returns_immediately() {
        let forced = Cell::new(false);
        let flag = &forced;
        let mut f = move |_: &[f64]| {
            (f64::NAN, move || {
                flag.set(true);
                vec![0.0]
            })
        };
        let r = minimize(&mut f, vec![0.0], &LbfgsOptions::default());
        assert_eq!(r.iters, 0);
        assert!(!r.converged && !forced.get());
    }

    #[test]
    fn respects_iteration_cap() {
        let opts = LbfgsOptions {
            max_iters: 2,
            ..Default::default()
        };
        let r = minimize(&mut lazy(ROSENBROCK), vec![-1.2, 1.0], &opts);
        assert!(r.iters <= 2);
    }

    #[test]
    fn already_converged_point() {
        let r = minimize(
            &mut lazy(QUADRATIC),
            vec![1.0, 2.0, 3.0],
            &LbfgsOptions::default(),
        );
        assert!(r.converged);
        assert!(r.value < 1e-12);
    }
}
