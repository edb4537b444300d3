//! Sampled dense–dense matrix multiply `A(i,j) = B(i,j) · Σ_k C(i,k) D(j,k)`
//! (B sparse, C/D dense, both row-major over `k`). The loop order `(i, j, k)`
//! is a permutation parameter; `k` can be tiled and unrolled. Orders map to:
//!
//! * `(i,j,k)` — per nonzero, a contiguous dot of `C[i,:]` and `D[j,:]`;
//! * `(i,k,j)` — `k`-tiles outer within each row, partial dots accumulated
//!   into a row-sized buffer (extra traffic, better `C` reuse);
//! * `(k,i,j)` — `k`-tiles outermost, every nonzero re-visited per tile.

use super::{measure, pos};
use crate::parallel::{chunk_work, parallel_time, Policy, Scheme};
use crate::sparse::{CsrMatrix, DenseMatrix};

/// A decoded SDDMM schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SddmmSchedule {
    /// Order of the loop variables `(i, j, k)` (elements `0, 1, 2`).
    pub order: [u8; 3],
    /// `k`-dimension tile width.
    pub k_tile: usize,
    /// Rows per parallel chunk.
    pub chunk: usize,
    /// Worker threads.
    pub threads: usize,
    /// Chunk scheduling policy.
    pub scheme: Scheme,
    /// Unroll factor of the dot loop.
    pub unroll: usize,
}

impl SddmmSchedule {
    /// Decodes a schedule from a tuner configuration.
    pub fn from_config(cfg: &baco::Configuration) -> Self {
        SddmmSchedule {
            order: super::order3(cfg, "order"),
            k_tile: cfg.value("k_tile").as_i64() as usize,
            chunk: cfg.value("chunk").as_i64() as usize,
            threads: cfg.value("threads").as_i64() as usize,
            scheme: if cfg.value("scheme").as_str() == "dynamic" {
                Scheme::Dynamic
            } else {
                Scheme::Static
            },
            unroll: cfg.value("unroll").as_i64() as usize,
        }
    }
}

/// Executes the scheduled SDDMM. Returns the output nonzero values (aligned
/// with `b`'s nonzeros) and the simulated parallel runtime in seconds.
///
/// # Panics
/// Panics if `c`/`d` have mismatched `k` dimensions or rows.
pub fn sddmm(
    b: &CsrMatrix,
    c: &DenseMatrix,
    d: &DenseMatrix,
    sched: &SddmmSchedule,
) -> (Vec<f64>, f64) {
    assert_eq!(c.ncols, d.ncols, "sddmm: k dimension mismatch");
    assert_eq!(c.nrows, b.nrows, "sddmm: C rows must match B rows");
    assert_eq!(d.nrows, b.ncols, "sddmm: D rows must match B cols");
    let mut out = vec![0.0; b.nnz()];
    let k_pos = pos(sched.order, 2);

    let serial = if k_pos == 2 {
        let t = measure(|| dot_form(b, c, d, &mut out, sched), 3);
        std::hint::black_box(&out);
        t
    } else if k_pos == 1 {
        let t = measure(|| ktile_inner(b, c, d, &mut out, sched), 3);
        std::hint::black_box(&out);
        t
    } else {
        let t = measure(|| ktile_outer(b, c, d, &mut out, sched), 3);
        std::hint::black_box(&out);
        t
    };

    let kdim = c.ncols as f64;
    let row_work: Vec<f64> = (0..b.nrows)
        .map(|i| (b.row_ptr[i + 1] - b.row_ptr[i]) as f64 * kdim + 1.0)
        .collect();
    let chunks = chunk_work(&row_work, sched.chunk);
    let time = parallel_time(
        serial,
        &chunks,
        Policy {
            threads: sched.threads,
            scheme: sched.scheme,
        },
    );
    (out, time)
}

fn dot_form(b: &CsrMatrix, c: &DenseMatrix, d: &DenseMatrix, out: &mut [f64], s: &SddmmSchedule) {
    let kdim = c.ncols;
    let u = s.unroll.max(1);
    for i in 0..b.nrows {
        let (cols, vals) = b.row(i);
        let crow = c.row(i);
        let base = b.row_ptr[i];
        for (p, (&j, &bv)) in cols.iter().zip(vals).enumerate() {
            let drow = d.row(j as usize);
            let main = kdim / u * u;
            let mut acc = 0.0;
            let mut k = 0;
            while k < main {
                for q in 0..u {
                    acc += crow[k + q] * drow[k + q];
                }
                k += u;
            }
            for k in main..kdim {
                acc += crow[k] * drow[k];
            }
            out[base + p] = bv * acc;
        }
    }
}

fn ktile_inner(
    b: &CsrMatrix,
    c: &DenseMatrix,
    d: &DenseMatrix,
    out: &mut [f64],
    s: &SddmmSchedule,
) {
    let kdim = c.ncols;
    let tile = s.k_tile.max(1).min(kdim);
    out.iter_mut().for_each(|v| *v = 0.0);
    for i in 0..b.nrows {
        let (cols, _) = b.row(i);
        let crow = c.row(i);
        let base = b.row_ptr[i];
        let mut k0 = 0;
        while k0 < kdim {
            let k1 = (k0 + tile).min(kdim);
            for (p, &j) in cols.iter().enumerate() {
                let drow = d.row(j as usize);
                let mut acc = 0.0;
                for k in k0..k1 {
                    acc += crow[k] * drow[k];
                }
                out[base + p] += acc;
            }
            k0 = k1;
        }
        // Scale by the sampled value at the end.
        let (_, vals) = b.row(i);
        for (p, &bv) in vals.iter().enumerate() {
            out[base + p] *= bv;
        }
    }
}

fn ktile_outer(
    b: &CsrMatrix,
    c: &DenseMatrix,
    d: &DenseMatrix,
    out: &mut [f64],
    s: &SddmmSchedule,
) {
    let kdim = c.ncols;
    let tile = s.k_tile.max(1).min(kdim);
    out.iter_mut().for_each(|v| *v = 0.0);
    let mut k0 = 0;
    while k0 < kdim {
        let k1 = (k0 + tile).min(kdim);
        for i in 0..b.nrows {
            let (cols, _) = b.row(i);
            let crow = c.row(i);
            let base = b.row_ptr[i];
            for (p, &j) in cols.iter().enumerate() {
                let drow = d.row(j as usize);
                let mut acc = 0.0;
                for k in k0..k1 {
                    acc += crow[k] * drow[k];
                }
                out[base + p] += acc;
            }
        }
        k0 = k1;
    }
    for i in 0..b.nrows {
        let (_, vals) = b.row(i);
        let base = b.row_ptr[i];
        for (p, &bv) in vals.iter().enumerate() {
            out[base + p] *= bv;
        }
    }
}

/// Reference implementation for correctness tests.
pub fn reference(b: &CsrMatrix, c: &DenseMatrix, d: &DenseMatrix) -> Vec<f64> {
    let mut out = vec![0.0; b.nnz()];
    for i in 0..b.nrows {
        let (cols, vals) = b.row(i);
        let base = b.row_ptr[i];
        for (p, (&j, &bv)) in cols.iter().zip(vals).enumerate() {
            let dot: f64 = (0..c.ncols)
                .map(|k| c.get(i, k) * d.get(j as usize, k))
                .sum();
            out[base + p] = bv * dot;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{matrix, spec};

    #[test]
    fn all_orders_agree_with_reference() {
        let b = matrix(&spec("ACTIVSg10K"), 0.003);
        let kdim = 24;
        let c = DenseMatrix::random(b.nrows, kdim, 3);
        let d = DenseMatrix::random(b.ncols, kdim, 4);
        let want = reference(&b, &c, &d);
        for order in [[0u8, 1, 2], [0, 2, 1], [2, 0, 1]] {
            let s = SddmmSchedule {
                order,
                k_tile: 8,
                chunk: 32,
                threads: 2,
                scheme: Scheme::Static,
                unroll: 2,
            };
            let (out, t) = sddmm(&b, &c, &d, &s);
            assert!(t > 0.0);
            for (x, y) in out.iter().zip(&want) {
                assert!((x - y).abs() < 1e-9 * (1.0 + y.abs()), "{x} vs {y}");
            }
        }
    }
}
