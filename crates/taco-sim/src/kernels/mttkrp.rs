//! Fourth-order matricized-tensor-times-Khatri-Rao-product
//! `A(i,j) = Σ_{k,l,m} B(i,k,l,m) C(k,j) D(l,j) E(m,j)` over a sorted-COO
//! 4-tensor. The permutation parameter orders the reduction variables
//! `(k, l, m)`, which controls which pair of factor rows gets its product
//! cached across consecutive nonzeros — with lexicographically sorted
//! coordinates, leading with `k` gives long reuse runs, leading with `m`
//! none, a genuinely measurable difference.

use super::measure;
use crate::parallel::{chunk_work, parallel_time, Policy, Scheme};
use crate::sparse::{CooTensor4, DenseMatrix};

/// A decoded MTTKRP schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct MttkrpSchedule {
    /// Order of the reduction variables `(k, l, m)` (elements `0, 1, 2`).
    pub order: [u8; 3],
    /// Dense `j`-dimension tile width.
    pub j_tile: usize,
    /// Top-level slices per parallel chunk.
    pub chunk: usize,
    /// Worker threads.
    pub threads: usize,
    /// Chunk scheduling policy.
    pub scheme: Scheme,
    /// Unroll factor of the `j` loop.
    pub unroll: usize,
}

impl MttkrpSchedule {
    /// Decodes a schedule from a tuner configuration.
    pub fn from_config(cfg: &baco::Configuration) -> Self {
        MttkrpSchedule {
            order: super::order3(cfg, "order"),
            j_tile: cfg.value("j_tile").as_i64() as usize,
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

/// Executes the scheduled 4th-order MTTKRP. Factor matrices `c`, `d`, `e`
/// have `b.dims[1..4]` rows respectively and a common column count `j`.
/// Returns the dense `(i, j)` result and the simulated runtime in seconds.
///
/// # Panics
/// Panics on factor dimension mismatches.
pub fn mttkrp(
    b: &CooTensor4,
    c: &DenseMatrix,
    d: &DenseMatrix,
    e: &DenseMatrix,
    sched: &MttkrpSchedule,
) -> (DenseMatrix, f64) {
    assert_eq!(c.nrows, b.dims[1], "mttkrp: C rows");
    assert_eq!(d.nrows, b.dims[2], "mttkrp: D rows");
    assert_eq!(e.nrows, b.dims[3], "mttkrp: E rows");
    assert!(
        c.ncols == d.ncols && d.ncols == e.ncols,
        "mttkrp: rank mismatch"
    );
    let rank = c.ncols;
    let mut a = DenseMatrix::zeros(b.dims[0], rank);

    let serial = {
        let t = measure(|| cached_form(b, c, d, e, &mut a, sched), 3);
        std::hint::black_box(&a);
        t
    };

    let slices = b.slices_i();
    let slice_work: Vec<f64> = slices
        .iter()
        .map(|(_, r)| r.len() as f64 * rank as f64 + 1.0)
        .collect();
    let chunks = chunk_work(&slice_work, sched.chunk);
    let time = parallel_time(
        serial,
        &chunks,
        Policy {
            threads: sched.threads,
            scheme: sched.scheme,
        },
    );
    (a, time)
}

fn cached_form(
    b: &CooTensor4,
    c: &DenseMatrix,
    d: &DenseMatrix,
    e: &DenseMatrix,
    a: &mut DenseMatrix,
    sched: &MttkrpSchedule,
) {
    let rank = c.ncols;
    let tile = sched.j_tile.max(1).min(rank);
    let u = sched.unroll.max(1);
    a.data.iter_mut().for_each(|v| *v = 0.0);
    // Factor lookup in the scheduled reduction order: coordinate slots are
    // k=1, l=2, m=3 of each nonzero.
    let factors: [&DenseMatrix; 3] = [c, d, e];
    let f1 = sched.order[0] as usize;
    let f2 = sched.order[1] as usize;
    let f3 = sched.order[2] as usize;

    let mut pair = vec![0.0f64; tile];
    let mut j0 = 0;
    while j0 < rank {
        let j1 = (j0 + tile).min(rank);
        let width = j1 - j0;
        let mut cached: Option<(u32, u32)> = None;
        for (p, coord) in b.coords.iter().enumerate() {
            let i = coord[0] as usize;
            let i1 = coord[1 + f1];
            let i2 = coord[1 + f2];
            let i3 = coord[1 + f3] as usize;
            if cached != Some((i1, i2)) {
                let r1 = &factors[f1].row(i1 as usize)[j0..j1];
                let r2 = &factors[f2].row(i2 as usize)[j0..j1];
                for q in 0..width {
                    pair[q] = r1[q] * r2[q];
                }
                cached = Some((i1, i2));
            }
            let r3 = &factors[f3].row(i3)[j0..j1];
            let v = b.vals[p];
            let arow = &mut a.data[i * rank + j0..i * rank + j1];
            let main = width / u * u;
            let mut q = 0;
            while q < main {
                for w in 0..u {
                    arow[q + w] += v * pair[q + w] * r3[q + w];
                }
                q += u;
            }
            for q in main..width {
                arow[q] += v * pair[q] * r3[q];
            }
        }
        j0 = j1;
    }
}

/// Reference implementation for correctness tests.
pub fn reference(b: &CooTensor4, c: &DenseMatrix, d: &DenseMatrix, e: &DenseMatrix) -> DenseMatrix {
    let rank = c.ncols;
    let mut a = DenseMatrix::zeros(b.dims[0], rank);
    for (p, [i, k, l, m]) in b.coords.iter().copied().enumerate() {
        for j in 0..rank {
            a.data[i as usize * rank + j] +=
                b.vals[p] * c.get(k as usize, j) * d.get(l as usize, j) * e.get(m as usize, j);
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{spec, tensor4};

    #[test]
    fn all_orders_agree_with_reference() {
        let b = tensor4(&spec("uber"), 0.002);
        let rank = 16;
        let c = DenseMatrix::random(b.dims[1], rank, 1);
        let d = DenseMatrix::random(b.dims[2], rank, 2);
        let e = DenseMatrix::random(b.dims[3], rank, 3);
        let want = reference(&b, &c, &d, &e);
        for order in [[0u8, 1, 2], [1, 0, 2], [2, 1, 0], [0, 2, 1]] {
            let s = MttkrpSchedule {
                order,
                j_tile: 8,
                chunk: 8,
                threads: 2,
                scheme: Scheme::Static,
                unroll: 4,
            };
            let (a, t) = mttkrp(&b, &c, &d, &e, &s);
            assert!(t > 0.0);
            for (x, y) in a.data.iter().zip(&want.data) {
                assert!((x - y).abs() < 1e-9 * (1.0 + y.abs()), "{x} vs {y}");
            }
        }
    }
}
