//! Sparse matrix–vector multiply `a(i) = Σ_k B(i,k) c(k)` with a TACO-style
//! schedule: the row loop is split into blocks (`i0`/`i1`), the three loop
//! variables `(i0, i1, k)` can be reordered, and the inner reduction can be
//! unrolled and widened. Discordant orders (where `k` leaves the innermost
//! position) take genuinely different code paths with different measured
//! cost: a strided two-pass reduction, or a full CSC scatter traversal.

use super::{measure, pos};
use crate::parallel::{chunk_work, parallel_time, Policy, Scheme};
use crate::sparse::CsrMatrix;

/// A decoded SpMV schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmvSchedule {
    /// Order of the loop variables `(i0, i1, k)` (elements `0, 1, 2`).
    pub order: [u8; 3],
    /// Rows per `i0` block.
    pub block: usize,
    /// Rows per parallel chunk.
    pub chunk: usize,
    /// Worker threads.
    pub threads: usize,
    /// Chunk scheduling policy.
    pub scheme: Scheme,
    /// Inner-loop unroll factor (1/2/4/8).
    pub unroll: usize,
    /// Use four independent accumulators.
    pub wide_acc: bool,
}

impl SpmvSchedule {
    /// Decodes a schedule from a tuner configuration (see
    /// [`crate::benchmarks`] for the parameter names).
    pub fn from_config(cfg: &baco::Configuration) -> Self {
        SpmvSchedule {
            order: super::order3(cfg, "order"),
            block: cfg.value("block").as_i64() as usize,
            chunk: cfg.value("chunk").as_i64() as usize,
            threads: cfg.value("threads").as_i64() as usize,
            scheme: if cfg.value("scheme").as_str() == "dynamic" {
                Scheme::Dynamic
            } else {
                Scheme::Static
            },
            unroll: cfg.value("unroll").as_i64() as usize,
            wide_acc: cfg.value("acc").as_str() == "wide",
        }
    }
}

/// Executes the scheduled SpMV. Returns the result vector and the simulated
/// parallel runtime in seconds.
///
/// `csc` must be `a.to_csc()`, precomputed once per matrix (the discordant
/// `k`-outermost order traverses it).
pub fn spmv(a: &CsrMatrix, csc: &CsrMatrix, x: &[f64], sched: &SpmvSchedule) -> (Vec<f64>, f64) {
    let mut y = vec![0.0; a.nrows];
    let k_pos = pos(sched.order, 2);

    let serial = match k_pos {
        2 => {
            // Concordant: blocked row-major traversal.
            let t = measure(|| row_major(a, x, &mut y, sched), 3);
            std::hint::black_box(&y);
            t
        }
        1 => {
            // k in the middle: two-pass strided reduction per row.
            let t = measure(|| strided(a, x, &mut y), 3);
            std::hint::black_box(&y);
            t
        }
        _ => {
            // k outermost: CSC scatter.
            let t = measure(|| scatter(csc, x, &mut y), 3);
            std::hint::black_box(&y);
            t
        }
    };

    // Parallel work distribution: rows for concordant orders, columns for
    // the scatter order.
    let row_work: Vec<f64> = if k_pos == 0 {
        (0..csc.nrows)
            .map(|i| (csc.row_ptr[i + 1] - csc.row_ptr[i]) as f64 + 0.5)
            .collect()
    } else {
        (0..a.nrows)
            .map(|i| (a.row_ptr[i + 1] - a.row_ptr[i]) as f64 + 0.5)
            .collect()
    };
    let chunks = chunk_work(&row_work, sched.chunk);
    let time = parallel_time(
        serial,
        &chunks,
        Policy {
            threads: sched.threads,
            scheme: sched.scheme,
        },
    );
    (y, time)
}

#[allow(clippy::needless_range_loop)] // loops mirror the modeled traversal order
fn row_major(a: &CsrMatrix, x: &[f64], y: &mut [f64], sched: &SpmvSchedule) {
    let block = sched.block.max(1);
    let nblocks = a.nrows.div_ceil(block);
    for b in 0..nblocks {
        let lo = b * block;
        let hi = ((b + 1) * block).min(a.nrows);
        for i in lo..hi {
            let (cols, vals) = a.row(i);
            y[i] = if sched.wide_acc {
                dot_wide(cols, vals, x)
            } else {
                dot_unrolled(cols, vals, x, sched.unroll)
            };
        }
    }
}

fn dot_unrolled(cols: &[u32], vals: &[f64], x: &[f64], unroll: usize) -> f64 {
    let mut acc = 0.0;
    let u = unroll.max(1);
    let main = cols.len() / u * u;
    let mut p = 0;
    while p < main {
        for q in 0..u {
            acc += vals[p + q] * x[cols[p + q] as usize];
        }
        p += u;
    }
    for q in main..cols.len() {
        acc += vals[q] * x[cols[q] as usize];
    }
    acc
}

fn dot_wide(cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let main = cols.len() / 4 * 4;
    let mut p = 0;
    while p < main {
        acc[0] += vals[p] * x[cols[p] as usize];
        acc[1] += vals[p + 1] * x[cols[p + 1] as usize];
        acc[2] += vals[p + 2] * x[cols[p + 2] as usize];
        acc[3] += vals[p + 3] * x[cols[p + 3] as usize];
        p += 4;
    }
    let mut tail = 0.0;
    for q in main..cols.len() {
        tail += vals[q] * x[cols[q] as usize];
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Two-pass (even indices, then odd) reduction — the executable semantics we
/// give the "k between i0 and i1" discordant order. Touches each row twice
/// with stride-2 access.
#[allow(clippy::needless_range_loop)] // loops mirror the modeled traversal order
fn strided(a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
    for i in 0..a.nrows {
        let (cols, vals) = a.row(i);
        let mut acc = 0.0;
        let mut p = 0;
        while p < cols.len() {
            acc += vals[p] * x[cols[p] as usize];
            p += 2;
        }
        let mut p = 1;
        while p < cols.len() {
            acc += vals[p] * x[cols[p] as usize];
            p += 2;
        }
        y[i] = acc;
    }
}

/// Column-outermost traversal over the CSC form, scattering into `y` — the
/// executable semantics of the fully discordant order.
#[allow(clippy::needless_range_loop)] // loops mirror the modeled traversal order
fn scatter(csc: &CsrMatrix, x: &[f64], y: &mut [f64]) {
    y.iter_mut().for_each(|v| *v = 0.0);
    for j in 0..csc.nrows {
        let (rows, vals) = csc.row(j);
        let xj = x[j];
        for (&r, &v) in rows.iter().zip(vals) {
            y[r as usize] += v * xj;
        }
    }
}

/// Reference implementation (unscheduled), for correctness tests.
#[allow(clippy::needless_range_loop)] // loops mirror the modeled traversal order
pub fn reference(a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; a.nrows];
    for i in 0..a.nrows {
        let (cols, vals) = a.row(i);
        y[i] = cols
            .iter()
            .zip(vals)
            .map(|(&c, &v)| v * x[c as usize])
            .sum();
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{matrix, spec};

    fn close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-9 * (1.0 + y.abs()), "{x} vs {y}");
        }
    }

    fn sched(order: [u8; 3], unroll: usize, wide: bool) -> SpmvSchedule {
        SpmvSchedule {
            order,
            block: 64,
            chunk: 32,
            threads: 2,
            scheme: Scheme::Static,
            unroll,
            wide_acc: wide,
        }
    }

    #[test]
    fn all_orders_compute_the_same_result() {
        let a = matrix(&spec("email-Enron"), 0.005);
        let csc = a.to_csc();
        let x: Vec<f64> = (0..a.ncols).map(|i| (i % 7) as f64 * 0.3 + 0.1).collect();
        let want = reference(&a, &x);
        for order in [[0u8, 1, 2], [0, 2, 1], [2, 0, 1]] {
            for unroll in [1, 4] {
                for wide in [false, true] {
                    let (y, t) = spmv(&a, &csc, &x, &sched(order, unroll, wide));
                    close(&y, &want);
                    assert!(t > 0.0 && t.is_finite());
                }
            }
        }
    }

    #[test]
    fn simulated_time_rewards_parallelism_on_balanced_input() {
        let a = matrix(&spec("cage12"), 0.01); // banded → balanced rows
        let csc = a.to_csc();
        let x = vec![1.0; a.ncols];
        let mut s1 = sched([0, 1, 2], 4, false);
        s1.threads = 1;
        let mut s4 = s1.clone();
        s4.threads = 4;
        // Average over repeats to damp timer noise.
        let t1: f64 = (0..3).map(|_| spmv(&a, &csc, &x, &s1).1).sum::<f64>() / 3.0;
        let t4: f64 = (0..3).map(|_| spmv(&a, &csc, &x, &s4).1).sum::<f64>() / 3.0;
        assert!(t4 < t1, "t4 {t4} vs t1 {t1}");
    }

    #[test]
    fn schedule_from_config_roundtrip() {
        let space = crate::benchmarks::spmv_space();
        let cfg = space.default_configuration();
        let s = SpmvSchedule::from_config(&cfg);
        assert_eq!(s.order, [0, 1, 2]);
        assert!(s.threads >= 1);
    }
}
