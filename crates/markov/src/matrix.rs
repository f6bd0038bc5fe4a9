//! Sparse matrix support (compressed sparse row) for transition-rate
//! matrices.
//!
//! The paper notes that "due to the variation on the model size, the
//! internal matrix representation, instead of the graphical
//! representation, of the Markov models are generated". This module is
//! that internal representation: chains are assembled as triplets and
//! compressed to CSR for the uniformization and power solvers.

use std::ops::Range;

use crate::dense::DenseMatrix;

/// A sparse matrix in compressed-sparse-row form.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    /// Row pointers: entries of row `i` live in `indices/values[row_ptr[i]..row_ptr[i+1]]`.
    row_ptr: Vec<usize>,
    /// Column index of each stored entry.
    indices: Vec<usize>,
    /// Value of each stored entry.
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// Duplicate coordinates are summed; explicit zeros are dropped.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    #[must_use]
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        // One pass validates every coordinate and detects (row, col)
        // order; builders that emit row-major triplets (the common case
        // for generator assembly) then take the zero-copy fast path.
        let mut sorted = true;
        let mut prev = (0usize, 0usize);
        for (i, &(r, c, _)) in triplets.iter().enumerate() {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds");
            if i > 0 && (r, c) < prev {
                sorted = false;
            }
            prev = (r, c);
        }
        if sorted {
            return Self::from_sorted_triplets(rows, cols, triplets);
        }
        // Stable sort keeps duplicate coordinates in insertion order, so
        // the summation order (and thus the exact f64 result) does not
        // depend on the sort's internals.
        let mut owned = triplets.to_vec();
        owned.sort_by_key(|&(r, c, _)| (r, c));
        Self::from_sorted_triplets(rows, cols, &owned)
    }

    /// Builds CSR from triplets already sorted by `(row, col)` with all
    /// coordinates validated; the build loop itself is assertion-free.
    fn from_sorted_triplets(rows: usize, cols: usize, trips: &[(usize, usize, f64)]) -> Self {
        let mut row_ptr = vec![0usize; rows + 1];
        let mut indices = Vec::with_capacity(trips.len());
        let mut values = Vec::with_capacity(trips.len());
        let mut i = 0;
        for row in 0..rows {
            while i < trips.len() && trips[i].0 == row {
                let c = trips[i].1;
                let mut v = 0.0;
                while i < trips.len() && trips[i].0 == row && trips[i].1 == c {
                    v += trips[i].2;
                    i += 1;
                }
                if v != 0.0 {
                    indices.push(c);
                    values.push(v);
                }
            }
            row_ptr[row + 1] = indices.len();
        }
        SparseMatrix { rows, cols, row_ptr, indices, values }
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

    /// Number of stored (structurally non-zero) entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates over the stored entries of row `i` as `(col, value)`.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.indices[lo..hi].iter().copied().zip(self.values[lo..hi].iter().copied())
    }

    /// Returns the entry at `(i, j)` (zero if not stored).
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.row_entries(i).find(|&(c, _)| c == j).map_or(0.0, |(_, v)| v)
    }

    /// Computes the row vector `v * self` (the orientation used by
    /// uniformization, where `v` is a probability row vector).
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
            for (c, a) in self.row_entries(i) {
                out[c] += vi * a;
            }
        }
        out
    }

    /// [`vec_mul`](Self::vec_mul) writing into a caller-owned buffer
    /// instead of allocating — the SpMV the hot loops (power iteration,
    /// uniformization series) use so a 10^5-state solve does zero
    /// allocations per iteration.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows()` or `out.len() != self.cols()`.
    pub fn vec_mul_into(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(v.len(), self.rows, "dimension mismatch");
        assert_eq!(out.len(), self.cols, "output dimension mismatch");
        out.fill(0.0);
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for (c, a) in self.row_entries(i) {
                out[c] += vi * a;
            }
        }
    }

    /// Computes `self * v` for a column vector `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    #[must_use]
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        (0..self.rows).map(|i| self.row_entries(i).map(|(c, a)| a * v[c]).sum()).collect()
    }

    /// [`mul_vec`](Self::mul_vec) writing into a caller-owned buffer
    /// instead of allocating.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn mul_vec_into(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        assert_eq!(out.len(), self.rows, "output dimension mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.row_entries(i).map(|(c, a)| a * v[c]).sum();
        }
    }

    /// Writes the product `self * b` with a dense `b` into `out`: row `i`
    /// of `out` is the combination of the rows of `b` that row `i` of
    /// `self` selects, so the cost is `nnz × cols(b)`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not conform.
    pub fn mul_dense_into(&self, b: &DenseMatrix, out: &mut DenseMatrix) {
        assert_eq!(self.cols, b.rows(), "dimension mismatch");
        assert_eq!((out.rows(), out.cols()), (self.rows, b.cols()), "output dimension mismatch");
        for i in 0..self.rows {
            let out_row = out.row_mut(i);
            out_row.fill(0.0);
            for (j, a) in self.row_entries(i) {
                for (o, &x) in out_row.iter_mut().zip(b.row(j)) {
                    *o += a * x;
                }
            }
        }
    }

    /// The transpose in CSR form (row `i` of the result holds column `i`
    /// of `self`). For a generator `Q` this gives the inflow orientation
    /// the Gauss–Seidel sweeps need: row `i` of `Qᵀ` lists the rates
    /// *into* state `i`.
    ///
    /// Built with a counting pass instead of re-sorting triplets, so it
    /// is `O(nnz + rows + cols)`.
    #[must_use]
    pub fn transpose(&self) -> SparseMatrix {
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            row_ptr[c + 1] += 1;
        }
        for i in 0..self.cols {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut next = row_ptr.clone();
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                let slot = next[c];
                indices[slot] = r;
                values[slot] = v;
                next[c] += 1;
            }
        }
        SparseMatrix { rows: self.cols, cols: self.rows, row_ptr, indices, values }
    }

    /// Converts to a dense matrix (used by the direct solvers).
    #[must_use]
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (c, v) in self.row_entries(i) {
                d[(i, c)] += v;
            }
        }
        d
    }

    /// Sum of each row (for generator matrices this should be ~0).
    #[must_use]
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|i| self.row_entries(i).map(|(_, v)| v).sum()).collect()
    }

    /// Largest absolute diagonal entry (the uniformization rate bound).
    pub fn max_abs_diagonal(&self) -> f64 {
        (0..self.rows.min(self.cols)).map(|i| self.get(i, i).abs()).fold(0.0, f64::max)
    }
}

/// A square matrix stored by its nonzero diagonals, for the row-vector
/// product `v · A` of the uniformization series.
///
/// Diagonal `k` holds the entries at column offset `d_k = j − i`, indexed
/// by column: `coef[k·n + j] = A[j − d_k, j]`, zero where that row lies
/// outside the matrix. The offsets are stored in descending order, so
/// for every column `j` the sources `i = j − d_k` ascend — the order in
/// which [`SparseMatrix::vec_mul_into`] adds them. A k-out-of-n pool's
/// birth–death chain has three diagonals.
///
/// Vectors are multiplied in *padded* form: `pad_front` zeros, the `n`
/// entries, then `pad_back` zeros (see [`padding`](Self::padding)), so
/// every diagonal reads one contiguous, shifted slice and no column
/// needs a bounds test.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DiagonalMatrix {
    n: usize,
    /// Offsets `j − i` of the stored diagonals, descending.
    offsets: Vec<isize>,
    /// `coef[k * n + j] = A[j − offsets[k], j]`.
    coef: Vec<f64>,
    /// Zeros before a padded vector's entries: the largest positive
    /// offset.
    pad_front: usize,
    /// Zeros after them: the largest negative offset's magnitude.
    pad_back: usize,
}

impl DiagonalMatrix {
    /// Stores a square `a` by diagonal when that takes at most
    /// `max_fill` slots per stored nonzero (`diagonals × n ≤ max_fill ×
    /// nnz`); `None` for a rectangular `a` or one whose nonzeros scatter
    /// over more diagonals than that.
    pub(crate) fn from_sparse(a: &SparseMatrix, max_fill: usize) -> Option<Self> {
        let n = a.rows;
        if n != a.cols {
            return None;
        }
        let slot = |d: isize, offsets: &[isize]| offsets.binary_search_by(|x| d.cmp(x));
        let mut offsets: Vec<isize> = Vec::new();
        for i in 0..n {
            for &c in &a.indices[a.row_ptr[i]..a.row_ptr[i + 1]] {
                if let Err(at) = slot(c as isize - i as isize, &offsets) {
                    offsets.insert(at, c as isize - i as isize);
                    if offsets.len() * n > max_fill * a.nnz() {
                        return None;
                    }
                }
            }
        }
        let mut coef = vec![0.0; offsets.len() * n];
        for i in 0..n {
            for (c, v) in a.row_entries(i) {
                let k = slot(c as isize - i as isize, &offsets).expect("collected above");
                coef[k * n + c] = v;
            }
        }
        let pad_front = offsets.first().map_or(0, |&d| d.max(0).unsigned_abs());
        let pad_back = offsets.last().map_or(0, |&d| d.min(0).unsigned_abs());
        Some(DiagonalMatrix { n, offsets, coef, pad_front, pad_back })
    }

    /// `(pad_front, pad_back)`: the zeros a padded vector carries before
    /// and after its `n` entries.
    pub(crate) fn padding(&self) -> (usize, usize) {
        (self.pad_front, self.pad_back)
    }

    /// The columns `v · A` can be nonzero in when every entry of `v`
    /// outside `rows` is zero.
    pub(crate) fn reach(&self, rows: Range<usize>) -> Range<usize> {
        if rows.is_empty() {
            return 0..0;
        }
        rows.start.saturating_sub(self.pad_back)..(rows.end + self.pad_front).min(self.n)
    }

    /// Writes `out[j] = (v · A)[j]` for the columns `j` in `cols` of a
    /// padded `v`, leaving the rest of `out` (indexed by column) as it
    /// is.
    ///
    /// Each `out[j]` is `0 + Σ_k A[j − d_k, j] · v[j − d_k]` summed with
    /// ascending source, so on nonnegative operands (a uniformized `P`
    /// and a probability vector) the result is bit-identical to
    /// [`SparseMatrix::vec_mul_into`]: the stored zeros only add `+0`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not padded to `pad_front + n + pad_back` entries,
    /// `out.len() != n`, or `cols` runs past `n`.
    pub(crate) fn vec_mul_padded(&self, v: &[f64], out: &mut [f64], cols: Range<usize>) {
        assert_eq!(v.len(), self.pad_front + self.n + self.pad_back, "dimension mismatch");
        assert_eq!(out.len(), self.n, "output dimension mismatch");
        let n = self.n;
        let diagonal = |k: usize| {
            let start = self.pad_front.wrapping_add_signed(-self.offsets[k]);
            (&self.coef[k * n..][cols.clone()], &v[start..start + n][cols.clone()])
        };
        let out = &mut out[cols.clone()];
        out.fill(0.0);
        for k in 0..self.offsets.len() {
            let (a, va) = diagonal(k);
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(va) {
                *o += x * y;
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts deterministic arithmetic
mod tests {
    use super::*;

    fn sample() -> SparseMatrix {
        SparseMatrix::from_triplets(
            3,
            3,
            &[(0, 1, 2.0), (0, 0, -2.0), (1, 0, 1.0), (1, 1, -1.0), (2, 2, 0.0)],
        )
    }

    #[test]
    fn mul_dense_into_matches_the_dense_product() {
        let s = sample();
        let b = DenseMatrix::from_rows(&[
            vec![1.0, 2.0, 0.5],
            vec![0.0, -1.0, 3.0],
            vec![4.0, 0.25, 1.0],
        ]);
        let (mut sparse, mut dense) = (DenseMatrix::zeros(3, 3), DenseMatrix::zeros(3, 3));
        s.mul_dense_into(&b, &mut sparse);
        s.to_dense().mul_into(&b, &mut dense);
        assert_eq!(sparse, dense);
    }

    #[test]
    fn triplets_compress_and_drop_zeros() {
        let m = sample();
        assert_eq!(m.nnz(), 4); // the explicit zero is dropped
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(2, 2), 0.0);
        assert_eq!(m.get(2, 0), 0.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = SparseMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (0, 1, 2.5)]);
        assert_eq!(m.get(0, 1), 3.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn vec_mul_matches_dense() {
        let m = sample();
        let v = vec![0.2, 0.3, 0.5];
        let sparse = m.vec_mul(&v);
        let dense = m.to_dense().vec_mul(&v);
        for (a, b) in sparse.iter().zip(&dense) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn mul_vec_matches_dense() {
        let m = sample();
        let v = vec![1.0, -1.0, 2.0];
        let sparse = m.mul_vec(&v);
        let dense = m.to_dense().mul_vec(&v);
        for (a, b) in sparse.iter().zip(&dense) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn vec_mul_into_matches_vec_mul_bitwise() {
        let m = sample();
        let v = vec![0.2, 0.3, 0.5];
        let fresh = m.vec_mul(&v);
        // A dirty buffer must be fully overwritten, not accumulated into.
        let mut out = vec![7.0; 3];
        m.vec_mul_into(&v, &mut out);
        assert_eq!(out, fresh);
    }

    #[test]
    fn mul_vec_into_matches_mul_vec_bitwise() {
        let m = sample();
        let v = vec![1.0, -1.0, 2.0];
        let fresh = m.mul_vec(&v);
        let mut out = vec![-3.0; 3];
        m.mul_vec_into(&v, &mut out);
        assert_eq!(out, fresh);
    }

    #[test]
    #[should_panic(expected = "output dimension mismatch")]
    fn vec_mul_into_rejects_short_buffer() {
        let m = sample();
        let mut out = vec![0.0; 2];
        m.vec_mul_into(&[0.0; 3], &mut out);
    }

    #[test]
    fn transpose_swaps_entries() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.rows(), m.cols());
        assert_eq!(t.cols(), m.rows());
        assert_eq!(t.nnz(), m.nnz());
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                assert_eq!(t.get(j, i), m.get(i, j), "({i},{j})");
            }
        }
        // Double transpose round-trips exactly.
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_of_rectangular_matrix() {
        let m = SparseMatrix::from_triplets(2, 4, &[(0, 3, 1.5), (1, 0, -2.0), (1, 3, 0.25)]);
        let t = m.transpose();
        assert_eq!((t.rows(), t.cols()), (4, 2));
        assert_eq!(t.get(3, 0), 1.5);
        assert_eq!(t.get(0, 1), -2.0);
        assert_eq!(t.get(3, 1), 0.25);
    }

    #[test]
    fn row_sums_of_generator_are_zero() {
        let m = sample();
        let sums = m.row_sums();
        assert!(sums[0].abs() < 1e-15);
        assert!(sums[1].abs() < 1e-15);
        assert!(sums[2].abs() < 1e-15);
    }

    #[test]
    fn max_abs_diagonal() {
        let m = sample();
        assert_eq!(m.max_abs_diagonal(), 2.0);
    }

    #[test]
    fn sorted_fast_path_matches_unsorted_slow_path() {
        let sorted = [(0, 0, -2.0), (0, 1, 2.0), (1, 0, 1.0), (1, 1, -1.0), (2, 2, 0.0)];
        let mut unsorted = sorted;
        unsorted.reverse();
        let a = SparseMatrix::from_triplets(3, 3, &sorted);
        let b = SparseMatrix::from_triplets(3, 3, &unsorted);
        assert_eq!(a, b);
        assert_eq!(a.nnz(), 4);
    }

    #[test]
    fn trailing_empty_rows_have_valid_pointers() {
        let m = SparseMatrix::from_triplets(4, 4, &[(1, 2, 5.0)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row_entries(0).count(), 0);
        assert_eq!(m.row_entries(2).count(), 0);
        assert_eq!(m.row_entries(3).count(), 0);
    }

    /// A seeded nonnegative matrix with nonzeros on `offsets` (each
    /// entry kept with probability 3/4) and vectors with zero runs.
    fn banded(n: usize, offsets: &[isize], seed: u64) -> (SparseMatrix, Vec<Vec<f64>>) {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut trips = Vec::new();
        for i in 0..n {
            for &d in offsets {
                let j = i as isize + d;
                if (0..n as isize).contains(&j) && next() < 0.75 {
                    trips.push((i, j as usize, next()));
                }
            }
        }
        let vectors = (0..4)
            .map(|_| (0..n).map(|_| if next() < 0.3 { 0.0 } else { next() * 1e-300 }).collect())
            .collect();
        (SparseMatrix::from_triplets(n, n, &trips), vectors)
    }

    fn padded(d: &DiagonalMatrix, v: &[f64]) -> Vec<f64> {
        let (front, back) = d.padding();
        let mut out = vec![0.0; front];
        out.extend_from_slice(v);
        out.resize(front + v.len() + back, 0.0);
        out
    }

    #[test]
    fn diagonal_products_are_bit_identical_to_the_csr_scatter() {
        // Three diagonals (a pool's), five and two, on vectors whose
        // entries reach the subnormal range.
        for (offsets, seed) in [(&[1, 0, -1][..], 1), (&[3, 1, 0, -1, -4][..], 2), (&[2, 0], 3)] {
            let (a, vectors) = banded(37, offsets, seed);
            let d = DiagonalMatrix::from_sparse(&a, 2).expect("banded");
            for v in vectors {
                let mut want = vec![0.0; 37];
                a.vec_mul_into(&v, &mut want);
                let mut got = vec![7.0; 37];
                d.vec_mul_padded(&padded(&d, &v), &mut got, 0..37);
                let bits = |x: &[f64]| x.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "offsets {offsets:?}");
            }
        }
    }

    #[test]
    fn products_over_columns_leave_the_rest_alone() {
        let (a, vectors) = banded(20, &[1, 0, -1], 4);
        let d = DiagonalMatrix::from_sparse(&a, 2).unwrap();
        let mut v = vectors[0].clone();
        v[..8].fill(0.0);
        v[12..].fill(0.0);
        let cols = d.reach(8..12);
        assert_eq!(cols, 7..13);
        let mut out = vec![-1.0; 20];
        d.vec_mul_padded(&padded(&d, &v), &mut out, cols.clone());
        let mut want = vec![0.0; 20];
        a.vec_mul_into(&v, &mut want);
        for j in 0..20 {
            assert_eq!(out[j], if cols.contains(&j) { want[j] } else { -1.0 }, "column {j}");
        }
        assert_eq!(d.reach(0..20), 0..20);
        assert_eq!(d.reach(5..5), 0..0);
    }

    #[test]
    fn scattered_nonzeros_keep_csr() {
        let (tri, _) = banded(30, &[1, 0, -1], 5);
        let d = DiagonalMatrix::from_sparse(&tri, 2).unwrap();
        assert_eq!((d.offsets.len(), d.padding()), (3, (1, 1)));
        // Seven diagonals of one entry each: 7 × 30 slots for 7
        // nonzeros.
        let scattered: Vec<_> = (0..7).map(|k| (k, (k * 4 + 1) % 30, 1.0)).collect();
        let sparse = SparseMatrix::from_triplets(30, 30, &scattered);
        assert!(DiagonalMatrix::from_sparse(&sparse, 2).is_none());
        assert!(DiagonalMatrix::from_sparse(&SparseMatrix::from_triplets(2, 3, &[]), 2).is_none());
    }

    #[test]
    fn empty_matrix() {
        let m = SparseMatrix::from_triplets(0, 0, &[]);
        assert_eq!(m.rows(), 0);
        assert_eq!(m.nnz(), 0);
    }
}
