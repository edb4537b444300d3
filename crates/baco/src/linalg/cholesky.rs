use super::Matrix;
use crate::{Error, Result};

/// Rows of one column that [`Cholesky::new`] reduces together, so their
/// independent dot products overlap instead of waiting on one add chain.
const FACTOR_ROWS: usize = 4;
/// Entries of a solution row that [`Cholesky::inverse`] keeps in registers
/// while the rows it depends on stream past.
const SWEEP_COLS: usize = 16;

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite matrix.
///
/// The factor is used for kernel-matrix solves, log-determinants and
/// sampling in the Gaussian-process surrogate.
///
/// ```
/// use baco::linalg::{Cholesky, Matrix};
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let ch = Cholesky::new(&a).unwrap();
/// let x = ch.solve(&[8.0, 7.0]);
/// // A x = b  =>  x = [1.25, 1.5]
/// assert!((x[0] - 1.25).abs() < 1e-12 && (x[1] - 1.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes `a`.
    ///
    /// # Errors
    /// Returns [`Error::Numerical`] if `a` is not square or not positive
    /// definite (within floating-point tolerance).
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(Error::Numerical("cholesky: matrix not square".into()));
        }
        // Left-looking by column: column j needs only the finished columns
        // 0..j, so its sub-diagonal entries are independent dot products and
        // FACTOR_ROWS of them run together. Every entry is
        // `a_ij − Σ_{k<j} l_ik·l_jk` summed in ascending k, exactly as the
        // row-oriented loop sums it, and pivots are checked in ascending
        // order, so the factor and the first failing pivot are unchanged.
        let n = a.rows();
        let mut l = vec![0.0; n * n];
        for j in 0..n {
            let (head, tail) = l.split_at_mut((j + 1) * n);
            let row_j = &mut head[j * n..j * n + j + 1];
            let mut s = a[(j, j)];
            for &x in &row_j[..j] {
                s -= x * x;
            }
            if s <= 0.0 || !s.is_finite() {
                return Err(Error::Numerical(format!(
                    "cholesky: matrix not positive definite (pivot {s:.3e} at {j})"
                )));
            }
            let pivot = s.sqrt();
            row_j[j] = pivot;
            let lj = &row_j[..j];

            let mut groups = tail.chunks_exact_mut(FACTOR_ROWS * n);
            let mut i = j + 1;
            for group in groups.by_ref() {
                let mut rows = group.chunks_exact_mut(n);
                let rows: [&mut [f64]; FACTOR_ROWS] =
                    std::array::from_fn(|_| rows.next().expect("group holds FACTOR_ROWS rows"));
                let mut acc: [f64; FACTOR_ROWS] = std::array::from_fn(|r| a[(i + r, j)]);
                {
                    let prefix: [&[f64]; FACTOR_ROWS] = std::array::from_fn(|r| &rows[r][..j]);
                    for (k, &x) in lj.iter().enumerate() {
                        for (s, row) in acc.iter_mut().zip(&prefix) {
                            *s -= row[k] * x;
                        }
                    }
                }
                for (row, s) in rows.into_iter().zip(acc) {
                    row[j] = s / pivot;
                }
                i += FACTOR_ROWS;
            }
            for row in groups.into_remainder().chunks_exact_mut(n) {
                let mut s = a[(i, j)];
                for (&x, &y) in lj.iter().zip(&row[..j]) {
                    s -= y * x;
                }
                row[j] = s / pivot;
                i += 1;
            }
        }
        Ok(Cholesky {
            l: Matrix::from_row_major(n, n, l),
        })
    }

    /// Factorizes `a`, adding growing diagonal jitter on failure.
    ///
    /// Tries jitter `0, eps, 10·eps, …` up to `max_tries` escalations. This is
    /// the standard remedy for kernel matrices that are SPD in exact
    /// arithmetic but numerically semidefinite.
    ///
    /// # Errors
    /// Returns the final factorization error if all attempts fail.
    pub fn new_with_jitter(a: &Matrix, eps: f64, max_tries: usize) -> Result<Self> {
        match Self::new(a) {
            Ok(c) => return Ok(c),
            Err(_) if max_tries > 0 => {}
            Err(e) => return Err(e),
        }
        let mut jitter = eps;
        let mut last = Error::Numerical("cholesky: unreachable".into());
        for _ in 0..max_tries {
            let mut aj = a.clone();
            aj.add_diagonal(jitter);
            match Self::new(&aj) {
                Ok(c) => return Ok(c),
                Err(e) => last = e,
            }
            jitter *= 10.0;
        }
        Err(last)
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Solves `L y = b` (forward substitution).
    ///
    /// # Panics
    /// Panics if `b.len() != self.dim()`.
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "solve_lower: dimension mismatch");
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for (k, yk) in y.iter().enumerate().take(i) {
                s -= self.l[(i, k)] * yk;
            }
            y[i] = s / self.l[(i, i)];
        }
        y
    }

    /// Solves `Lᵀ x = y` (backward substitution).
    ///
    /// # Panics
    /// Panics if `y.len() != self.dim()`.
    pub fn solve_upper(&self, y: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(y.len(), n, "solve_upper: dimension mismatch");
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for (k, xk) in x.iter().enumerate().take(n).skip(i + 1) {
                s -= self.l[(k, i)] * xk;
            }
            x[i] = s / self.l[(i, i)];
        }
        x
    }

    /// Solves `A x = b` via the factorization.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_upper(&self.solve_lower(b))
    }

    /// The inverse `A⁻¹`, bit-identical to assembling `solve(e_j)` column by
    /// column for every unit vector `e_j`.
    ///
    /// One forward sweep solves `L Y = I` for all right-hand sides at once,
    /// then one back sweep solves `Lᵀ X = Y` in place. Both keep a strip of
    /// 16 entries of a row in registers while every contributing row
    /// streams past it, so the inner loops are unit-stride over columns
    /// and each entry still subtracts its terms in the per-column solve's
    /// order. The forward sweep skips the structural zeros of `L⁻¹e_j` (its
    /// entries above `j`) for every strip right of them, and subtracts them
    /// inside the strip that holds the diagonal. Both are exact: those terms
    /// are signed zeros taken from a partial sum that is still `+0` or `1`,
    /// which never changes it.
    pub(crate) fn inverse(&self) -> Matrix {
        let n = self.dim();
        let l = &self.l;
        let mut x = vec![0.0; n * n];
        // Forward: row i of Y is zero right of column i.
        for i in 0..n {
            let li = l.row(i);
            let (done, rest) = x.split_at_mut(i * n);
            let cur = &mut rest[..=i];
            cur[i] = 1.0;
            for c0 in (0..=i).step_by(SWEEP_COLS) {
                let c1 = (c0 + SWEEP_COLS).min(i + 1);
                // Rows above c0 are zero throughout this strip.
                let terms = (c0..i).map(|k| (li[k], &done[k * n + c0..k * n + c1]));
                sweep_strip(&mut cur[c0..c1], terms);
            }
            let diag = li[i];
            for v in cur.iter_mut() {
                *v /= diag;
            }
        }
        // Back: overwrite Y with X from the last row up.
        for i in (0..n).rev() {
            let (head, tail) = x.split_at_mut((i + 1) * n);
            let cur = &mut head[i * n..];
            for c0 in (0..n).step_by(SWEEP_COLS) {
                let c1 = (c0 + SWEEP_COLS).min(n);
                let terms = tail
                    .chunks_exact(n)
                    .enumerate()
                    .map(|(k, row)| (l[(i + 1 + k, i)], &row[c0..c1]));
                sweep_strip(&mut cur[c0..c1], terms);
            }
            let diag = l[(i, i)];
            for v in cur.iter_mut() {
                *v /= diag;
            }
        }
        Matrix::from_row_major(n, n, x)
    }

    /// `log |A| = 2 Σ log L_ii`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Appends one row/column to the factored matrix in `O(n²)` instead of
    /// refactorizing from scratch in `O(n³)`.
    ///
    /// Given the factorization of `A`, produces the factorization of
    ///
    /// ```text
    /// ⎡ A    row ⎤
    /// ⎣ rowᵀ diag⎦
    /// ```
    ///
    /// via one forward substitution: the new factor row is `l = L⁻¹ row` and
    /// the new pivot is `√(diag − ‖l‖²)`. This is the primitive behind GP
    /// fantasy conditioning
    /// ([`GaussianProcess::condition_on`](crate::surrogate::GaussianProcess::condition_on)),
    /// where the kernel hyperparameters (and therefore every existing entry
    /// of `A`) are unchanged and one hallucinated observation is appended.
    ///
    /// # Errors
    /// Returns [`Error::Numerical`] (leaving `self` untouched) if the
    /// extended matrix is not positive definite — the caller should fall back
    /// to a fresh factorization with jitter.
    ///
    /// # Panics
    /// Panics if `row.len() != self.dim()`.
    pub fn extend(&mut self, row: &[f64], diag: f64) -> Result<()> {
        let n = self.dim();
        assert_eq!(row.len(), n, "extend: dimension mismatch");
        let lrow = self.solve_lower(row);
        let pivot2 = diag - super::dot(&lrow, &lrow);
        if pivot2 <= 0.0 || !pivot2.is_finite() {
            return Err(Error::Numerical(format!(
                "cholesky extend: matrix not positive definite (pivot² {pivot2:.3e})"
            )));
        }
        let mut l = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            l.row_mut(i)[..n].copy_from_slice(self.l.row(i));
        }
        l.row_mut(n)[..n].copy_from_slice(&lrow);
        l[(n, n)] = pivot2.sqrt();
        self.l = l;
        Ok(())
    }

    /// The row-oriented factorization [`Cholesky::new`] replaced, kept as
    /// the bitwise reference for it.
    #[cfg(test)]
    pub(crate) fn new_row_oriented(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(Error::Numerical("cholesky: matrix not square".into()));
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 0.0 || !s.is_finite() {
                        return Err(Error::Numerical(format!(
                            "cholesky: matrix not positive definite (pivot {s:.3e} at {i})"
                        )));
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Reconstructs `L Lᵀ` (mainly for testing).
    pub fn reconstruct(&self) -> Matrix {
        self.l.matmul(&self.l.transpose())
    }
}

/// `strip[w] −= c · row[w]` for every `(c, row)` of `terms` in order, with
/// the strip (at most [`SWEEP_COLS`] long, like every row) held in registers.
#[inline(always)]
fn sweep_strip<'a>(strip: &mut [f64], terms: impl Iterator<Item = (f64, &'a [f64])>) {
    let m = strip.len();
    let mut acc = [0.0; SWEEP_COLS];
    acc[..m].copy_from_slice(strip);
    if m == SWEEP_COLS {
        for (c, row) in terms {
            let row: &[f64; SWEEP_COLS] = row.try_into().expect("full-width row");
            for (a, &v) in acc.iter_mut().zip(row) {
                *a -= c * v;
            }
        }
    } else {
        for (c, row) in terms {
            for (a, &v) in acc[..m].iter_mut().zip(row) {
                *a -= c * v;
            }
        }
    }
    strip.copy_from_slice(&acc[..m]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn spd3() -> Matrix {
        Matrix::from_rows(&[
            &[4.0, 12.0, -16.0],
            &[12.0, 37.0, -43.0],
            &[-16.0, -43.0, 98.0],
        ])
    }

    #[test]
    fn factor_known_example() {
        // Classic example: L = [[2,0,0],[6,1,0],[-8,5,3]].
        let ch = Cholesky::new(&spd3()).unwrap();
        let l = ch.factor();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 6.0).abs() < 1e-12);
        assert!((l[(1, 1)] - 1.0).abs() < 1e-12);
        assert!((l[(2, 0)] + 8.0).abs() < 1e-12);
        assert!((l[(2, 1)] - 5.0).abs() < 1e-12);
        assert!((l[(2, 2)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_roundtrip() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x = ch.solve(&b);
        let ax = a.matvec(&x);
        for (u, v) in ax.iter().zip(&b) {
            assert!((u - v).abs() < 1e-9, "Ax != b: {u} vs {v}");
        }
    }

    #[test]
    fn log_det_matches_product_of_pivots() {
        let ch = Cholesky::new(&spd3()).unwrap();
        // |A| = (2*1*3)^2 = 36.
        assert!((ch.log_det() - 36.0f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn rejects_non_spd() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(Cholesky::new(&a).is_err());
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(Cholesky::new(&a), Err(Error::Numerical(_))));
    }

    #[test]
    fn jitter_rescues_semidefinite() {
        // Rank-1 matrix, PSD but singular.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        assert!(Cholesky::new(&a).is_err());
        let ch = Cholesky::new_with_jitter(&a, 1e-10, 12).unwrap();
        assert_eq!(ch.dim(), 2);
    }

    #[test]
    fn extend_matches_fresh_factorization() {
        // Random-ish SPD matrix built as G Gᵀ + n·I, factored at size 5,
        // then grown one row at a time to size 8 and compared against a
        // from-scratch factorization at every step.
        let n = 8;
        let g = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 13) as f64 / 13.0 - 0.4);
        let mut a = g.matmul(&g.transpose());
        a.add_diagonal(n as f64);

        let sub = |k: usize| Matrix::from_fn(k, k, |i, j| a[(i, j)]);
        let mut ch = Cholesky::new(&sub(5)).unwrap();
        for k in 5..n {
            let row: Vec<f64> = (0..k).map(|j| a[(k, j)]).collect();
            ch.extend(&row, a[(k, k)]).unwrap();
            let fresh = Cholesky::new(&sub(k + 1)).unwrap();
            assert!(
                ch.factor().max_abs_diff(fresh.factor()) < 1e-8,
                "size {}: max diff {}",
                k + 1,
                ch.factor().max_abs_diff(fresh.factor())
            );
        }
        assert_eq!(ch.dim(), n);
        assert!(ch.reconstruct().max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn extend_rejects_non_spd_and_preserves_state() {
        let mut ch = Cholesky::new(&spd3()).unwrap();
        // A new row identical to an existing column with the same diagonal
        // makes the extended matrix singular.
        let row = vec![4.0, 12.0, -16.0];
        assert!(ch.extend(&row, 4.0).is_err());
        assert_eq!(ch.dim(), 3, "failed extend must leave the factor intact");
        assert!(ch.reconstruct().max_abs_diff(&spd3()) < 1e-10);
    }

    fn random_spd(n: usize, rng: &mut StdRng) -> Matrix {
        let g = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let mut a = g.matmul(&g.transpose());
        a.add_diagonal(rng.gen_range(1e-6..1.0));
        a
    }

    /// A 5/2-Matérn kernel matrix over random points in the unit cube,
    /// some of them duplicated, with the GP's base jitter on the diagonal.
    fn random_kernel(n: usize, rng: &mut StdRng) -> Matrix {
        let mut pts: Vec<[f64; 3]> = Vec::with_capacity(n);
        for i in 0..n {
            let p = if i > 1 && rng.gen_range(0.0..1.0) < 0.15 {
                pts[rng.gen_range(0..i)]
            } else {
                [(); 3].map(|_| rng.gen_range(0.0..1.0))
            };
            pts.push(p);
        }
        let ls = rng.gen_range(0.05..3.0);
        let sigma = rng.gen_range(0.2..2.0);
        let noise = rng.gen_range(1e-6..1e-2);
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                return sigma + noise + 1e-8;
            }
            let s: f64 = pts[i]
                .iter()
                .zip(&pts[j])
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            let dist = (s / (ls * ls)).sqrt();
            let t = 5f64.sqrt() * dist;
            sigma * (1.0 + t + 5.0 / 3.0 * dist * dist) * (-t).exp()
        })
    }

    fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert_eq!(
                    a[(i, j)].to_bits(),
                    b[(i, j)].to_bits(),
                    "{what}: entry ({i},{j}) {} vs {}",
                    a[(i, j)],
                    b[(i, j)]
                );
            }
        }
    }

    /// Sizes around the row-group and register-strip boundaries.
    const SIZES: [usize; 15] = [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 65, 120];

    #[test]
    fn factor_matches_row_oriented_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(41);
        for n in SIZES {
            for (kind, a) in [
                ("spd", random_spd(n, &mut rng)),
                ("kernel", random_kernel(n, &mut rng)),
            ] {
                match (Cholesky::new(&a), Cholesky::new_row_oriented(&a)) {
                    (Ok(got), Ok(want)) => {
                        assert_bits_eq(got.factor(), want.factor(), &format!("{kind} n={n}"))
                    }
                    (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string()),
                    (got, want) => panic!("{kind} n={n}: {got:?} vs reference {want:?}"),
                }
            }
        }
    }

    #[test]
    fn non_pd_failure_matches_reference() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut failures = std::collections::BTreeSet::new();
        for n in SIZES.into_iter().filter(|&n| n > 0) {
            for trial in 0..6 {
                let mut a = random_spd(n, &mut rng);
                let p = rng.gen_range(0..n);
                match trial {
                    // Indefinite: drive one diagonal entry negative.
                    0..=2 => a[(p, p)] -= a[(p, p)] + rng.gen_range(1e-3..10.0),
                    // Exactly singular: a repeated row and column.
                    3 if n > 1 => {
                        let q = (p + 1) % n;
                        for k in 0..n {
                            a[(q, k)] = a[(p, k)];
                        }
                        for k in 0..n {
                            a[(k, q)] = a[(k, p)];
                        }
                    }
                    4 => a[(p, p.saturating_sub(1))] = f64::NAN,
                    _ => a[(p, p)] = f64::INFINITY,
                }
                match (Cholesky::new(&a), Cholesky::new_row_oriented(&a)) {
                    (Ok(got), Ok(want)) => {
                        assert_bits_eq(got.factor(), want.factor(), &format!("n={n} trial {trial}"))
                    }
                    (Err(got), Err(want)) => {
                        assert_eq!(got.to_string(), want.to_string(), "n={n} trial {trial}");
                        failures.insert(got.to_string());
                    }
                    (got, want) => panic!("n={n} trial {trial}: {got:?} vs reference {want:?}"),
                }
            }
        }
        assert!(
            failures.len() > 20,
            "too few distinct failures exercised: {failures:?}"
        );
    }

    #[test]
    fn inverse_matches_columnwise_solves_bitwise() {
        let mut rng = StdRng::seed_from_u64(43);
        for n in SIZES {
            for (kind, a) in [
                ("spd", random_spd(n, &mut rng)),
                ("kernel", random_kernel(n, &mut rng)),
            ] {
                let Ok(ch) = Cholesky::new(&a) else { continue };
                let mut want = Matrix::zeros(n, n);
                for j in 0..n {
                    let mut e = vec![0.0; n];
                    e[j] = 1.0;
                    for (i, v) in ch.solve(&e).into_iter().enumerate() {
                        want[(i, j)] = v;
                    }
                }
                assert_bits_eq(&ch.inverse(), &want, &format!("{kind} n={n}"));
            }
        }
    }

    #[test]
    fn reconstruct_close_to_input() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        assert!(ch.reconstruct().max_abs_diff(&a) < 1e-10);
    }
}
