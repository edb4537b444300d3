//! Sparse tensor storage: CSR/CSC matrices and sorted-COO higher-order
//! tensors (the formats TACO's default schedules traverse).

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Row-major values.
    pub data: Vec<f64>,
}

impl DenseMatrix {
    /// An all-zeros matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// A deterministic pseudo-random matrix (values in `[0, 1)`).
    pub fn random(nrows: usize, ncols: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut data = Vec::with_capacity(nrows * ncols);
        for _ in 0..nrows * ncols {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            data.push((state >> 11) as f64 / (1u64 << 53) as f64);
        }
        DenseMatrix { nrows, ncols, data }
    }

    /// Immutable view of row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Mutable view of row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Entry `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.ncols + j]
    }
}

/// A compressed-sparse-row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Row pointers (`nrows + 1` entries).
    pub row_ptr: Vec<usize>,
    /// Column indices per nonzero, ascending within each row.
    pub col_idx: Vec<u32>,
    /// Nonzero values.
    pub vals: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from (row, col, value) triplets. Duplicates are
    /// summed.
    ///
    /// # Panics
    /// Panics if an index is out of bounds.
    pub fn from_triplets(nrows: usize, ncols: usize, mut triplets: Vec<(u32, u32, f64)>) -> Self {
        for &(r, c, _) in &triplets {
            assert!(
                (r as usize) < nrows && (c as usize) < ncols,
                "triplet out of bounds"
            );
        }
        triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));
        // Sum duplicates.
        let mut dedup: Vec<(u32, u32, f64)> = Vec::with_capacity(triplets.len());
        for (r, c, v) in triplets {
            match dedup.last_mut() {
                Some((lr, lc, lv)) if *lr == r && *lc == c => *lv += v,
                _ => dedup.push((r, c, v)),
            }
        }
        let mut row_ptr = vec![0usize; nrows + 1];
        for &(r, _, _) in &dedup {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx = dedup.iter().map(|&(_, c, _)| c).collect();
        let vals = dedup.iter().map(|&(_, _, v)| v).collect();
        CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The nonzeros of row `i` as `(col_idx, vals)` slices.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let (a, b) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[a..b], &self.vals[a..b])
    }

    /// Converts to CSC (returned as the CSR of the transpose).
    pub fn to_csc(&self) -> CsrMatrix {
        let triplets: Vec<(u32, u32, f64)> = (0..self.nrows)
            .flat_map(|i| {
                let (cols, vals) = self.row(i);
                cols.iter()
                    .zip(vals)
                    .map(move |(&c, &v)| (c, i as u32, v))
                    .collect::<Vec<_>>()
            })
            .collect();
        CsrMatrix::from_triplets(self.ncols, self.nrows, triplets)
    }

    /// Dense reference form (tests only; quadratic memory).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                d.data[i * self.ncols + c as usize] += v;
            }
        }
        d
    }
}

/// A sorted-COO third-order tensor (coordinates ascending lexicographically),
/// the traversal order of TACO's compressed fibers.
#[derive(Debug, Clone, PartialEq)]
pub struct CooTensor3 {
    /// Dimension sizes.
    pub dims: [usize; 3],
    /// Sorted coordinates.
    pub coords: Vec<[u32; 3]>,
    /// Values, aligned with `coords`.
    pub vals: Vec<f64>,
}

impl CooTensor3 {
    /// Builds a sorted tensor from coordinates; duplicates are summed.
    ///
    /// # Panics
    /// Panics on out-of-bounds coordinates.
    pub fn from_coords(dims: [usize; 3], mut entries: Vec<([u32; 3], f64)>) -> Self {
        for (c, _) in &entries {
            for d in 0..3 {
                assert!((c[d] as usize) < dims[d], "coordinate out of bounds");
            }
        }
        entries.sort_unstable_by_key(|&(c, _)| c);
        let mut coords = Vec::with_capacity(entries.len());
        let mut vals: Vec<f64> = Vec::with_capacity(entries.len());
        for (c, v) in entries {
            if coords.last() == Some(&c) {
                *vals.last_mut().expect("aligned") += v;
            } else {
                coords.push(c);
                vals.push(v);
            }
        }
        CooTensor3 { dims, coords, vals }
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Ranges of nonzeros sharing the same leading index `i` (the compressed
    /// top-level fibers).
    pub fn slices_i(&self) -> Vec<(u32, std::ops::Range<usize>)> {
        let mut out = Vec::new();
        let mut start = 0usize;
        while start < self.coords.len() {
            let i = self.coords[start][0];
            let mut end = start;
            while end < self.coords.len() && self.coords[end][0] == i {
                end += 1;
            }
            out.push((i, start..end));
            start = end;
        }
        out
    }
}

/// A sorted-COO fourth-order tensor (for the 4th-order MTTKRP benchmarks).
#[derive(Debug, Clone, PartialEq)]
pub struct CooTensor4 {
    /// Dimension sizes.
    pub dims: [usize; 4],
    /// Sorted coordinates.
    pub coords: Vec<[u32; 4]>,
    /// Values, aligned with `coords`.
    pub vals: Vec<f64>,
}

impl CooTensor4 {
    /// Builds a sorted tensor from coordinates; duplicates are summed.
    ///
    /// # Panics
    /// Panics on out-of-bounds coordinates.
    pub fn from_coords(dims: [usize; 4], mut entries: Vec<([u32; 4], f64)>) -> Self {
        for (c, _) in &entries {
            for d in 0..4 {
                assert!((c[d] as usize) < dims[d], "coordinate out of bounds");
            }
        }
        entries.sort_unstable_by_key(|&(c, _)| c);
        let mut coords = Vec::with_capacity(entries.len());
        let mut vals: Vec<f64> = Vec::with_capacity(entries.len());
        for (c, v) in entries {
            if coords.last() == Some(&c) {
                *vals.last_mut().expect("aligned") += v;
            } else {
                coords.push(c);
                vals.push(v);
            }
        }
        CooTensor4 { dims, coords, vals }
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Ranges of nonzeros sharing the same leading index.
    pub fn slices_i(&self) -> Vec<(u32, std::ops::Range<usize>)> {
        let mut out = Vec::new();
        let mut start = 0usize;
        while start < self.coords.len() {
            let i = self.coords[start][0];
            let mut end = start;
            while end < self.coords.len() && self.coords[end][0] == i {
                end += 1;
            }
            out.push((i, start..end));
            start = end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_from_triplets_sorts_and_sums() {
        let m = CsrMatrix::from_triplets(
            3,
            3,
            vec![(2, 1, 1.0), (0, 0, 2.0), (0, 0, 3.0), (1, 2, 4.0)],
        );
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row(0), (&[0u32][..], &[5.0][..]));
        assert_eq!(m.row(1), (&[2u32][..], &[4.0][..]));
        assert_eq!(m.row(2), (&[1u32][..], &[1.0][..]));
    }

    #[test]
    fn csc_is_transpose() {
        let m = CsrMatrix::from_triplets(2, 3, vec![(0, 1, 1.0), (1, 0, 2.0), (1, 2, 3.0)]);
        let t = m.to_csc();
        assert_eq!(t.nrows, 3);
        assert_eq!(t.ncols, 2);
        assert_eq!(t.to_dense().get(1, 0), 1.0);
        assert_eq!(t.to_dense().get(0, 1), 2.0);
        assert_eq!(t.to_dense().get(2, 1), 3.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn csr_rejects_out_of_bounds() {
        CsrMatrix::from_triplets(2, 2, vec![(2, 0, 1.0)]);
    }

    #[test]
    fn coo3_sorted_and_sliced() {
        let t = CooTensor3::from_coords(
            [3, 2, 2],
            vec![
                ([2, 0, 0], 1.0),
                ([0, 1, 1], 2.0),
                ([0, 0, 0], 3.0),
                ([0, 1, 1], 1.5),
            ],
        );
        assert_eq!(t.nnz(), 3);
        assert_eq!(t.coords[0], [0, 0, 0]);
        assert_eq!(t.vals[1], 3.5); // summed duplicate
        let slices = t.slices_i();
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0], (0, 0..2));
        assert_eq!(slices[1], (2, 2..3));
    }

    #[test]
    fn coo4_roundtrip() {
        let t =
            CooTensor4::from_coords([2, 2, 2, 2], vec![([1, 1, 1, 1], 1.0), ([0, 0, 0, 0], 2.0)]);
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.coords[0], [0, 0, 0, 0]);
        assert_eq!(t.slices_i().len(), 2);
    }

    #[test]
    fn dense_random_is_deterministic() {
        let a = DenseMatrix::random(4, 5, 7);
        let b = DenseMatrix::random(4, 5, 7);
        assert_eq!(a, b);
        assert!(a.data.iter().all(|v| (0.0..1.0).contains(v)));
        assert_ne!(a, DenseMatrix::random(4, 5, 8));
    }
}
