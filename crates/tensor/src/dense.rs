//! Row-major dense `f64` matrices.

use std::fmt;

/// A row-major dense matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Dense {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Dense {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a row-major data vector. Panics on size mismatch.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "Dense::from_vec size mismatch");
        Self { rows, cols, data }
    }

    /// The same row-major data under another shape. Panics on size
    /// mismatch.
    pub fn reshaped(self, rows: usize, cols: usize) -> Self {
        Self::from_vec(rows, cols, self.data)
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

    /// Flat row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutation.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * other`.
    pub fn matmul(&self, other: &Dense) -> Dense {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Dense::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(i);
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `selfᵀ * other` without materializing the transpose.
    pub fn t_matmul(&self, other: &Dense) -> Dense {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let mut out = Dense::zeros(self.cols, other.cols);
        for r in 0..self.rows {
            let arow = self.row(r);
            let brow = other.row(r);
            for (k, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let orow = out.row_mut(k);
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self * otherᵀ` without materializing the transpose.
    pub fn matmul_t(&self, other: &Dense) -> Dense {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        let mut out = Dense::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let arow = self.row(i);
            for j in 0..other.rows {
                let brow = other.row(j);
                let dot: f64 = arow.iter().zip(brow).map(|(a, b)| a * b).sum();
                out.set(i, j, dot);
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Dense {
        let mut out = Dense::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Elementwise sum (new matrix).
    pub fn add(&self, other: &Dense) -> Dense {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Dense {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise difference (new matrix).
    pub fn sub(&self, other: &Dense) -> Dense {
        assert_eq!(self.shape(), other.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Dense {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Dense) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self -= other`.
    pub fn sub_assign(&mut self, other: &Dense) {
        assert_eq!(self.shape(), other.shape(), "sub_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a -= b;
        }
    }

    /// In-place `self += alpha * other` (axpy).
    pub fn axpy(&mut self, alpha: f64, other: &Dense) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scaled copy.
    pub fn scale(&self, alpha: f64) -> Dense {
        let data = self.data.iter().map(|a| a * alpha).collect();
        Dense {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place scale.
    pub fn scale_assign(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Elementwise map (new matrix).
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Dense {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Dense {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise product (Hadamard).
    pub fn hadamard(&self, other: &Dense) -> Dense {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Dense {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Gather a subset of rows into a new matrix.
    pub fn select_rows(&self, rows: &[usize]) -> Dense {
        let mut out = Dense::zeros(rows.len(), self.cols);
        for (i, &r) in rows.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Gather a subset of columns into a new matrix (used to split a
    /// feature space vertically between parties).
    pub fn select_cols(&self, cols: &[usize]) -> Dense {
        let mut out = Dense::zeros(self.rows, cols.len());
        for r in 0..self.rows {
            let src = self.row(r);
            let dst = out.row_mut(r);
            for (k, &c) in cols.iter().enumerate() {
                dst[k] = src[c];
            }
        }
        out
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn hstack(&self, other: &Dense) -> Dense {
        assert_eq!(self.rows, other.rows, "hstack row mismatch");
        let mut out = Dense::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, a| m.max(a.abs()))
    }

    /// True if every entry is within `tol` of the corresponding entry of
    /// `other`.
    pub fn approx_eq(&self, other: &Dense, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl fmt::Debug for Dense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Dense({}x{})", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for r in 0..show_rows {
            let row = self.row(r);
            let cells: Vec<String> = row.iter().take(8).map(|v| format!("{v:>9.4}")).collect();
            writeln!(
                f,
                "  [{}{}]",
                cells.join(", "),
                if self.cols > 8 { ", …" } else { "" }
            )?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m2x3() -> Dense {
        Dense::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn matmul_known() {
        let a = m2x3();
        let b = Dense::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = m2x3();
        let b = Dense::from_vec(2, 2, vec![1.0, -1.0, 0.5, 2.0]);
        assert!(a.t_matmul(&b).approx_eq(&a.transpose().matmul(&b), 1e-12));
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = m2x3();
        let b = Dense::from_vec(4, 3, vec![1.0; 12]);
        assert!(a.matmul_t(&b).approx_eq(&a.matmul(&b.transpose()), 1e-12));
    }

    #[test]
    fn add_sub_axpy() {
        let a = m2x3();
        let b = a.scale(2.0);
        assert!(a.add(&a).approx_eq(&b, 1e-15));
        assert!(b.sub(&a).approx_eq(&a, 1e-15));
        let mut c = a.clone();
        c.axpy(3.0, &a);
        assert!(c.approx_eq(&a.scale(4.0), 1e-15));
    }

    #[test]
    fn select_rows_and_hstack() {
        let a = m2x3();
        let sel = a.select_rows(&[1, 0, 1]);
        assert_eq!(sel.row(0), a.row(1));
        assert_eq!(sel.row(1), a.row(0));
        let h = a.hstack(&a);
        assert_eq!(h.shape(), (2, 6));
        assert_eq!(h.get(1, 5), 6.0);
    }

    #[test]
    fn transpose_involution() {
        let a = m2x3();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn norms() {
        let a = Dense::from_vec(1, 2, vec![3.0, -4.0]);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = m2x3();
        let _ = a.matmul(&m2x3());
    }
}
