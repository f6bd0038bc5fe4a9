//! Minimal dense linear algebra: row-major matrices and LU solves.
//!
//! The chains RAScad generates are small (tens to a few hundred states),
//! so a dense LU with partial pivoting is both sufficient and simple to
//! audit. Implemented in-house to keep the numerical core dependency-free.

use crate::error::MarkovError;

/// A dense, row-major `rows x cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let n = rows.checked_mul(cols).expect("matrix size overflow");
        DenseMatrix { rows, cols, data: vec![0.0; n] }
    }

    /// Creates an identity matrix of order `n`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        DenseMatrix { rows: r, cols: c, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the `i`-th row as a slice.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns the `i`-th row as a mutable slice.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix transpose.
    #[must_use]
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Computes `self * v` for a column vector `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    #[must_use]
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        (0..self.rows).map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum()).collect()
    }

    /// Computes the row vector `v * self`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows()`.
    #[must_use]
    pub fn vec_mul(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for (j, &a) in self.row(i).iter().enumerate() {
                out[j] += vi * a;
            }
        }
        out
    }

    /// Writes the product `self * rhs` into `out` (i-k-j order, so the
    /// inner loop streams one row of `rhs` into one row of `out`; zero
    /// entries of `self` are skipped). The transient doubling kernel
    /// squares its nonnegative exponential with this.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not conform.
    pub fn mul_into(&self, rhs: &DenseMatrix, out: &mut DenseMatrix) {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch");
        assert_eq!((out.rows, out.cols), (self.rows, rhs.cols), "output dimension mismatch");
        for i in 0..self.rows {
            let out_row = out.row_mut(i);
            out_row.fill(0.0);
            for (k, &a) in self.row(i).iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(rhs.row(k)) {
                    *o += a * b;
                }
            }
        }
    }

    /// The induced 1-norm: the maximum absolute column sum.
    pub fn one_norm(&self) -> f64 {
        let mut sums = vec![0.0f64; self.cols];
        for i in 0..self.rows {
            for (j, v) in self.row(i).iter().enumerate() {
                sums[j] += v.abs();
            }
        }
        sums.into_iter().fold(0.0, f64::max)
    }

    /// LU-factorizes the matrix with partial pivoting, retaining the
    /// factors for repeated solves against `A` and `Aᵀ` (the condition
    /// estimator needs both from one factorization).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::DimensionMismatch`] if the matrix is not
    /// square and [`MarkovError::Singular`] if it is singular to
    /// working precision.
    pub fn factor(&self) -> Result<LuFactors, MarkovError> {
        if self.rows != self.cols {
            return Err(MarkovError::DimensionMismatch {
                what: format!("LU factor needs a square matrix, got {}x{}", self.rows, self.cols),
            });
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let mut p = k;
            let mut max = a[(k, k)].abs();
            for i in (k + 1)..n {
                let v = a[(i, k)].abs();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            if max == 0.0 || !max.is_finite() {
                return Err(MarkovError::Singular);
            }
            if p != k {
                perm.swap(p, k);
                for j in 0..n {
                    let tmp = a[(k, j)];
                    a[(k, j)] = a[(p, j)];
                    a[(p, j)] = tmp;
                }
            }
            let pivot = a[(k, k)];
            for i in (k + 1)..n {
                let factor = a[(i, k)] / pivot;
                a[(i, k)] = factor;
                if factor == 0.0 {
                    continue;
                }
                for j in (k + 1)..n {
                    let akj = a[(k, j)];
                    a[(i, j)] -= factor * akj;
                }
            }
        }
        Ok(LuFactors { lu: a, perm })
    }

    /// Hager/Higham 1-norm condition-number estimate
    /// `κ₁(A) ≈ ‖A‖₁ · est(‖A⁻¹‖₁)`, with `‖A⁻¹‖₁` estimated from a
    /// handful of solves against the retained LU factors rather than an
    /// explicit inverse. Deterministic: the probe sequence is fixed, so
    /// repeated calls on the same matrix return identical bits.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::Singular`] /
    /// [`MarkovError::DimensionMismatch`] from the factorization.
    pub fn condest_1norm(&self) -> Result<f64, MarkovError> {
        let n = self.rows;
        if n == 0 {
            return Err(MarkovError::DimensionMismatch {
                what: "condition estimate of an empty matrix".into(),
            });
        }
        let factors = self.factor()?;
        // Hager's algorithm: walk toward a maximizing column of A⁻¹.
        let mut x = vec![1.0 / n as f64; n];
        let mut est = 0.0f64;
        for _ in 0..5 {
            let y = factors.solve(&x); // y = A⁻¹ x
            let y_norm: f64 = y.iter().map(|v| v.abs()).sum();
            if !y_norm.is_finite() {
                est = y_norm;
                break;
            }
            let xi: Vec<f64> = y.iter().map(|v| if *v >= 0.0 { 1.0 } else { -1.0 }).collect();
            let z = factors.solve_transpose(&xi); // z = A⁻ᵀ ξ
            let (j_max, z_max) = z
                .iter()
                .map(|v| v.abs())
                .enumerate()
                .fold((0, f64::NEG_INFINITY), |acc, (j, v)| if v > acc.1 { (j, v) } else { acc });
            if y_norm >= est {
                est = y_norm;
            }
            // Converged: no column promises a larger norm than the
            // current estimate witnessed.
            if z_max <= z.iter().zip(&x).map(|(a, b)| a * b).sum::<f64>().abs() {
                break;
            }
            x = vec![0.0; n];
            x[j_max] = 1.0;
        }
        let cond = self.one_norm() * est;
        rascad_obs::record_value("markov.lu.condest", cond);
        Ok(cond)
    }

    /// Solves `self * x = b` by LU decomposition with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::DimensionMismatch`] if the matrix is not
    /// square or `b.len() != rows`, and [`MarkovError::Singular`] if
    /// the matrix is singular to working precision.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, MarkovError> {
        if self.rows != self.cols {
            return Err(MarkovError::DimensionMismatch {
                what: format!("LU solve needs a square matrix, got {}x{}", self.rows, self.cols),
            });
        }
        if b.len() != self.rows {
            return Err(MarkovError::DimensionMismatch {
                what: format!(
                    "right-hand side has {} entries for a {}x{} matrix",
                    b.len(),
                    self.rows,
                    self.rows
                ),
            });
        }
        let mut lu_span = rascad_obs::span("markov.lu_solve");
        let zeros_before =
            if lu_span.is_enabled() { self.data.iter().filter(|&&v| v == 0.0).count() } else { 0 };
        let n = self.rows;
        let mut a = self.clone();
        let mut x: Vec<f64> = b.to_vec();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut trace = rascad_obs::trace::begin("lu", "pivot", n);

        for k in 0..n {
            // Partial pivot: largest |a[i][k]| for i >= k.
            let mut p = k;
            let mut max = a[(k, k)].abs();
            for i in (k + 1)..n {
                let v = a[(i, k)].abs();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            trace.step(k + 1, max);
            if max == 0.0 || !max.is_finite() {
                trace.finish("singular");
                return Err(MarkovError::Singular);
            }
            if p != k {
                perm.swap(p, k);
                for j in 0..n {
                    let tmp = a[(k, j)];
                    a[(k, j)] = a[(p, j)];
                    a[(p, j)] = tmp;
                }
                x.swap(p, k);
            }
            let pivot = a[(k, k)];
            for i in (k + 1)..n {
                let factor = a[(i, k)] / pivot;
                if factor == 0.0 {
                    continue;
                }
                a[(i, k)] = 0.0;
                for j in (k + 1)..n {
                    let akj = a[(k, j)];
                    a[(i, j)] -= factor * akj;
                }
                x[i] -= factor * x[k];
            }
        }

        // Back substitution.
        for k in (0..n).rev() {
            let mut s = x[k];
            for j in (k + 1)..n {
                s -= a[(k, j)] * x[j];
            }
            let pivot = a[(k, k)];
            if pivot == 0.0 || !pivot.is_finite() {
                trace.finish("singular");
                return Err(MarkovError::Singular);
            }
            x[k] = s / pivot;
        }
        trace.finish("done");
        if lu_span.is_enabled() {
            // LU fill-in: zero entries of the input that became
            // non-zero in the factors.
            let zeros_after = a.data.iter().filter(|&&v| v == 0.0).count();
            let fill = zeros_before.saturating_sub(zeros_after);
            lu_span.record("n", n);
            lu_span.record("fill", fill);
            rascad_obs::record_value("markov.lu.fill", fill as f64);
            rascad_obs::counter_with("markov.solves", &[("method", "lu")], 1);
        }
        Ok(x)
    }
}

/// Retained LU factors of a square matrix: `P·A = L·U` packed into one
/// matrix (unit-diagonal `L` below, `U` on and above) plus the row
/// permutation. Obtained from [`DenseMatrix::factor`].
#[derive(Debug, Clone)]
pub struct LuFactors {
    lu: DenseMatrix,
    perm: Vec<usize>,
}

impl LuFactors {
    /// Order of the factored matrix.
    #[must_use]
    pub fn order(&self) -> usize {
        self.lu.rows
    }

    /// Solves `A·x = b` from the retained factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factored order.
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.order();
        assert_eq!(b.len(), n, "dimension mismatch");
        // x = P·b, then L·y = x forward, then U·x = y backward.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for k in 0..n {
            for i in (k + 1)..n {
                x[i] -= self.lu[(i, k)] * x[k];
            }
        }
        for k in (0..n).rev() {
            let mut s = x[k];
            for (j, &xj) in x.iter().enumerate().skip(k + 1) {
                s -= self.lu[(k, j)] * xj;
            }
            x[k] = s / self.lu[(k, k)];
        }
        x
    }

    /// Solves `Aᵀ·x = b` from the same factors:
    /// `Aᵀ = Uᵀ·Lᵀ·P`, so solve `Uᵀ·y = b`, `Lᵀ·z = y`, `x = Pᵀ·z`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factored order.
    #[must_use]
    pub fn solve_transpose(&self, b: &[f64]) -> Vec<f64> {
        let n = self.order();
        assert_eq!(b.len(), n, "dimension mismatch");
        let mut y: Vec<f64> = b.to_vec();
        // Uᵀ is lower triangular: forward substitution with division.
        for k in 0..n {
            let mut s = y[k];
            for (j, &yj) in y.iter().enumerate().take(k) {
                s -= self.lu[(j, k)] * yj;
            }
            y[k] = s / self.lu[(k, k)];
        }
        // Lᵀ is unit upper triangular: backward substitution.
        for k in (0..n).rev() {
            for j in (k + 1)..n {
                let ljk = self.lu[(j, k)];
                y[k] -= ljk * y[j];
            }
        }
        // Undo the row permutation: x[perm[i]] = z[i].
        let mut x = vec![0.0; n];
        for (i, &p) in self.perm.iter().enumerate() {
            x[p] = y[i];
        }
        x
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts deterministic arithmetic
mod tests {
    use super::*;

    #[test]
    fn mul_into_matches_hand_product() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.5, 3.0, 0.0]]);
        let b = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0], vec![4.0, 0.5]]);
        let mut out = DenseMatrix::zeros(2, 2);
        out[(0, 0)] = 99.0; // overwritten, not accumulated into
        a.mul_into(&b, &mut out);
        assert_eq!(out, DenseMatrix::from_rows(&[vec![9.0, 3.0], vec![0.5, 4.0]]));
    }

    #[test]
    fn solve_rejects_bad_shapes() {
        let m = DenseMatrix::zeros(2, 3);
        assert!(matches!(m.solve(&[1.0, 2.0]), Err(MarkovError::DimensionMismatch { .. })));
        let m = DenseMatrix::identity(2);
        assert!(matches!(m.solve(&[1.0, 2.0, 3.0]), Err(MarkovError::DimensionMismatch { .. })));
    }

    #[test]
    fn identity_solve_returns_rhs() {
        let m = DenseMatrix::identity(4);
        let b = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(m.solve(&b).unwrap(), b);
    }

    #[test]
    fn solves_small_system() {
        // 2x + y = 5 ; x + 3y = 10 -> x = 1, y = 3
        let m = DenseMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = m.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_needs_pivoting() {
        // Leading zero pivot forces a row swap.
        let m = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = m.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(m.solve(&[1.0, 2.0]), Err(MarkovError::Singular));
    }

    #[test]
    fn mul_vec_and_vec_mul_agree_with_transpose() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let v = vec![1.0, -1.0];
        let left = m.vec_mul(&v);
        let right = m.transpose().mul_vec(&v);
        assert_eq!(left, right);
        assert_eq!(left, vec![-3.0, -3.0, -3.0]);
    }

    #[test]
    fn ill_conditioned_but_solvable() {
        let eps = 1e-12;
        let m = DenseMatrix::from_rows(&[vec![eps, 1.0], vec![1.0, 1.0]]);
        let x = m.solve(&[1.0, 2.0]).unwrap();
        // Exact solution: x0 = 1/(1-eps), x1 = (1-2eps)/(1-eps).
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn from_rows_roundtrip_indexing() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
    }

    #[test]
    fn retained_factors_match_direct_solve() {
        let m = DenseMatrix::from_rows(&[
            vec![0.0, 2.0, 1.0],
            vec![1.0, -1.0, 0.5],
            vec![3.0, 0.25, -2.0],
        ]);
        let b = [1.0, -2.0, 4.0];
        let f = m.factor().unwrap();
        let direct = m.solve(&b).unwrap();
        let via_factors = f.solve(&b);
        for (a, c) in direct.iter().zip(&via_factors) {
            assert!((a - c).abs() < 1e-12, "{a} vs {c}");
        }
        // Aᵀ·x = b through the same factors equals an LU of Aᵀ itself.
        let xt = f.solve_transpose(&b);
        let direct_t = m.transpose().solve(&b).unwrap();
        for (a, c) in direct_t.iter().zip(&xt) {
            assert!((a - c).abs() < 1e-12, "{a} vs {c}");
        }
    }

    #[test]
    fn factor_reports_singular() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(matches!(m.factor(), Err(MarkovError::Singular)));
    }

    #[test]
    fn condest_of_identity_is_one() {
        let m = DenseMatrix::identity(6);
        let c = m.condest_1norm().unwrap();
        assert!((c - 1.0).abs() < 1e-12, "{c}");
    }

    #[test]
    fn condest_tracks_diagonal_spread() {
        // diag(1, 1e-8): κ₁ is exactly 1e8, and Hager's estimator is
        // exact for diagonal matrices.
        let m = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1e-8]]);
        let c = m.condest_1norm().unwrap();
        assert!((c - 1e8).abs() / 1e8 < 1e-9, "{c}");
    }

    #[test]
    fn condest_is_a_lower_bound_within_reach_of_true_kappa() {
        // Hand-computed 3x3: A = [[2,1,0],[1,2,1],[0,1,2]].
        // ‖A‖₁ = 4. A⁻¹ = 1/4·[[3,-2,1],[-2,4,-2],[1,-2,3]],
        // ‖A⁻¹‖₁ = 2, so κ₁ = 8.
        let m = DenseMatrix::from_rows(&[
            vec![2.0, 1.0, 0.0],
            vec![1.0, 2.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ]);
        let c = m.condest_1norm().unwrap();
        assert!(c <= 8.0 + 1e-9, "estimate {c} exceeds true κ₁");
        assert!(c >= 8.0 * 0.5, "estimate {c} too far below true κ₁ 8");
    }

    #[test]
    fn random_spd_solve_residual_small() {
        // Deterministic pseudo-random fill; diagonally dominant so it is
        // well conditioned.
        let n = 25;
        let mut m = DenseMatrix::zeros(n, n);
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut rnd = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        for i in 0..n {
            let mut sum = 0.0;
            for j in 0..n {
                if i != j {
                    let v = rnd();
                    m[(i, j)] = v;
                    sum += v.abs();
                }
            }
            m[(i, i)] = sum + 1.0;
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x = m.solve(&b).unwrap();
        let r = m.mul_vec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-9, "residual too large");
        }
    }
}
