//! Compressed sparse row matrices.
//!
//! The paper's Table 5 argument hinges on BlindFL's ability to keep
//! high-dimensional sparse features in CSR form at their owner and only
//! touch non-zeros; everything here preserves that property.

use crate::Dense;

/// A CSR sparse matrix of `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    /// Row pointers, length `rows + 1`.
    indptr: Vec<usize>,
    /// Column indices, length `nnz`, sorted within each row.
    indices: Vec<u32>,
    /// Values, length `nnz`.
    values: Vec<f64>,
}

impl Csr {
    /// Build from COO triplets `(row, col, value)`; duplicates are summed.
    pub fn from_triplets(rows: usize, cols: usize, mut t: Vec<(usize, u32, f64)>) -> Self {
        t.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut indptr = vec![0usize; rows + 1];
        let mut indices = Vec::with_capacity(t.len());
        let mut values: Vec<f64> = Vec::with_capacity(t.len());
        let mut last: Option<(usize, u32)> = None;
        for (r, c, v) in t {
            assert!(r < rows && (c as usize) < cols, "triplet out of bounds");
            if last == Some((r, c)) {
                *values.last_mut().unwrap() += v;
            } else {
                indptr[r + 1] += 1;
                indices.push(c);
                values.push(v);
                last = Some((r, c));
            }
        }
        for r in 0..rows {
            indptr[r + 1] += indptr[r];
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries that are zero.
    pub fn sparsity(&self) -> f64 {
        let total = (self.rows * self.cols) as f64;
        if total == 0.0 {
            return 0.0;
        }
        1.0 - self.nnz() as f64 / total
    }

    /// `(column indices, values)` of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let (s, e) = (self.indptr[r], self.indptr[r + 1]);
        (&self.indices[s..e], &self.values[s..e])
    }

    /// Sparse × dense: `self * other`.
    pub fn matmul_dense(&self, other: &Dense) -> Dense {
        assert_eq!(self.cols, other.rows(), "matmul shape mismatch");
        let mut out = Dense::zeros(self.rows, other.cols());
        for r in 0..self.rows {
            let (idx, vals) = self.row(r);
            let orow = out.row_mut(r);
            for (&c, &v) in idx.iter().zip(vals) {
                let brow = other.row(c as usize);
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += v * b;
                }
            }
        }
        out
    }

    /// Sparse-transpose × dense: `selfᵀ * other` (shape `cols × other.cols`).
    ///
    /// Used for `∇W = Xᵀ∇Z`; the output's non-zero rows are exactly the
    /// column support of `self`, which the protocols exploit.
    pub fn t_matmul_dense(&self, other: &Dense) -> Dense {
        assert_eq!(self.rows, other.rows(), "t_matmul shape mismatch");
        let mut out = Dense::zeros(self.cols, other.cols());
        for r in 0..self.rows {
            let (idx, vals) = self.row(r);
            let brow = other.row(r);
            for (&c, &v) in idx.iter().zip(vals) {
                let orow = out.row_mut(c as usize);
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += v * b;
                }
            }
        }
        out
    }

    /// Gather a subset of rows (a mini-batch) into a new CSR.
    pub fn select_rows(&self, rows: &[usize]) -> Csr {
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for &r in rows {
            let (idx, vals) = self.row(r);
            indices.extend_from_slice(idx);
            values.extend_from_slice(vals);
            indptr.push(indices.len());
        }
        Csr {
            rows: rows.len(),
            cols: self.cols,
            indptr,
            indices,
            values,
        }
    }

    /// Sorted unique column indices present in this matrix — the "batch
    /// support" over which the federated protocols do sparse work.
    pub fn col_support(&self) -> Vec<u32> {
        let mut s: Vec<u32> = self.indices.clone();
        s.sort_unstable();
        s.dedup();
        s
    }

    /// Densify (test/debug use; the protocols never do this for Party
    /// data, by design).
    pub fn to_dense(&self) -> Dense {
        let mut out = Dense::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (idx, vals) = self.row(r);
            for (&c, &v) in idx.iter().zip(vals) {
                out.set(r, c as usize, v);
            }
        }
        out
    }

    /// Build a CSR view of a dense matrix (drops exact zeros).
    pub fn from_dense(d: &Dense) -> Csr {
        let mut triplets = Vec::new();
        for r in 0..d.rows() {
            for (c, &v) in d.row(r).iter().enumerate() {
                if v != 0.0 {
                    triplets.push((r, c as u32, v));
                }
            }
        }
        Csr::from_triplets(d.rows(), d.cols(), triplets)
    }

    /// Restrict to a subset of columns, remapping indices to
    /// `0..cols.len()`. `cols` must be sorted ascending.
    ///
    /// Used to split a dataset's feature space between Party A and
    /// Party B.
    pub fn select_cols(&self, cols: &[u32]) -> Csr {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]));
        let mut indptr = Vec::with_capacity(self.rows + 1);
        indptr.push(0usize);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for r in 0..self.rows {
            let (idx, vals) = self.row(r);
            for (&c, &v) in idx.iter().zip(vals) {
                if let Ok(pos) = cols.binary_search(&c) {
                    indices.push(pos as u32);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Csr {
            rows: self.rows,
            cols: cols.len(),
            indptr,
            indices,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [[1, 0, 2], [0, 0, 0], [0, 3, 4]]
        Csr::from_triplets(
            3,
            3,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 1, 3.0), (2, 2, 4.0)],
        )
    }

    #[test]
    fn construction_and_access() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row(0), (&[0u32, 2][..], &[1.0, 2.0][..]));
        assert_eq!(m.row(1).0.len(), 0);
        assert!((m.sparsity() - 5.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn duplicates_summed() {
        let m = Csr::from_triplets(1, 2, vec![(0, 1, 1.0), (0, 1, 2.5)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.row(0).1, &[3.5]);
    }

    #[test]
    fn matmul_matches_dense() {
        let m = sample();
        let d = Dense::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let want = m.to_dense().matmul(&d);
        assert!(m.matmul_dense(&d).approx_eq(&want, 1e-12));
    }

    #[test]
    fn t_matmul_matches_dense() {
        let m = sample();
        let d = Dense::from_vec(3, 2, vec![1.0, -1.0, 2.0, 0.5, -3.0, 1.5]);
        let want = m.to_dense().t_matmul(&d);
        assert!(m.t_matmul_dense(&d).approx_eq(&want, 1e-12));
    }

    #[test]
    fn select_rows_keeps_structure() {
        let m = sample();
        let sel = m.select_rows(&[2, 0]);
        assert_eq!(sel.row(0), m.row(2));
        assert_eq!(sel.row(1), m.row(0));
        assert_eq!(sel.rows(), 2);
    }

    #[test]
    fn col_support_sorted_unique() {
        let m = sample();
        assert_eq!(m.col_support(), vec![0, 1, 2]);
        let sel = m.select_rows(&[0]);
        assert_eq!(sel.col_support(), vec![0, 2]);
    }

    #[test]
    fn select_cols_remaps() {
        let m = sample();
        let right = m.select_cols(&[1, 2]);
        assert_eq!(right.shape(), (3, 2));
        let want = Dense::from_vec(3, 2, vec![0.0, 2.0, 0.0, 0.0, 3.0, 4.0]);
        assert!(right.to_dense().approx_eq(&want, 1e-12));
    }

    #[test]
    fn dense_roundtrip() {
        let m = sample();
        assert_eq!(Csr::from_dense(&m.to_dense()), m);
    }
}
