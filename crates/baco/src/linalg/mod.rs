//! Minimal dense linear algebra used by the Gaussian-process surrogate.
//!
//! BaCO only needs symmetric positive-definite (SPD) solves — kernel matrix
//! factorization, posterior solves and log-determinants — so this module
//! provides a compact row-major [`Matrix`] with a Cholesky decomposition and
//! triangular solves, instead of pulling in a full linear-algebra crate.
//! [`Cholesky::extend`] appends one row/column in `O(n²)`, the primitive
//! behind incremental GP refits and fantasy conditioning.
//!
//! ```
//! use baco::linalg::{dot, Cholesky, Matrix};
//!
//! let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
//! let ch = Cholesky::new(&a)?;
//! let x = ch.solve(&[8.0, 7.0]);
//! assert!((dot(&x, &[1.0, 0.0]) - 1.25).abs() < 1e-12);
//!
//! // Grow the system by one row/column without refactorizing.
//! let mut ext = ch.clone();
//! ext.extend(&[1.0, 1.0], 5.0)?;
//! assert_eq!(ext.dim(), 3);
//! # Ok::<(), baco::Error>(())
//! ```

mod cholesky;
mod matrix;

pub use cholesky::Cholesky;
pub use matrix::Matrix;

/// Entries of a row that [`sweep_strip`] keeps in registers while the rows
/// it depends on stream past.
pub(crate) const SWEEP_COLS: usize = 16;

/// Runs `body` from a copy compiled for AVX2 when the CPU has it, and from
/// the baseline copy otherwise; non-x86-64 targets build only the baseline.
/// The standard library reads CPUID once per process and caches the answer,
/// so each call costs one load and a branch.
///
/// `body` must be an `#[inline(always)]` closure over `#[inline(always)]`
/// kernels, so that each copy inlines, and compiles, the whole kernel. The
/// two copies compute the same bits: an AVX2 lane does the IEEE `mul`,
/// `sub` or `div` of one element, Rust never contracts to FMA (and `fma`
/// is not enabled), and library calls such as `exp` are the same calls.
#[inline(always)]
pub(crate) fn with_simd<R>(body: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        #[target_feature(enable = "avx2")]
        fn avx2<R>(body: impl FnOnce() -> R) -> R {
            body()
        }
        // SAFETY: `avx2` runs only once `is_x86_feature_detected!` has found
        // AVX2 in this CPU's CPUID.
        return unsafe { avx2(body) };
    }
    body()
}

/// Which copy of the GP's dense kernels this CPU runs: `"avx2"`, or
/// `"baseline"` where AVX2 is missing or the target is not x86-64.
pub fn kernel_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "baseline"
}

/// `strip[w] −= c · row[w]` for every `(c, row)` of `terms` in order, with
/// the strip (at most [`SWEEP_COLS`] long, like every row) held in registers
/// so each of its entries is an independent chain. Each width has its own
/// fixed-length copy, so a partial strip (the last of a row whose length is
/// not a multiple of [`SWEEP_COLS`]) stays in registers too.
#[inline(always)]
pub(crate) fn sweep_strip<'a>(strip: &mut [f64], terms: impl Iterator<Item = (f64, &'a [f64])>) {
    macro_rules! by_width {
        ($($w:literal)*) => {
            match strip.len() {
                $($w => sweep_fixed::<$w>(strip.try_into().expect("width checked"), terms),)*
                m => unreachable!("strip of {m} columns"),
            }
        };
    }
    by_width!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16);
}

/// [`sweep_strip`] at one width `W`.
#[inline(always)]
fn sweep_fixed<'a, const W: usize>(
    strip: &mut [f64; W],
    terms: impl Iterator<Item = (f64, &'a [f64])>,
) {
    let mut acc = *strip;
    for (c, row) in terms {
        let row: &[f64; W] = row.try_into().expect("strip-width row");
        for (a, &v) in acc.iter_mut().zip(row) {
            *a -= c * v;
        }
    }
    *strip = acc;
}

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y ← y + alpha * x` (AXPY).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Mean of a slice; `0.0` for an empty slice.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Sample standard deviation of a slice; `0.0` when fewer than two elements.
pub fn std_dev(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    let var = a.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (a.len() - 1) as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!((std_dev(&[2.0, 4.0]) - (2.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
