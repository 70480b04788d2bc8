//! Dense row-major `f64` matrix.

use crate::error::LinalgError;
use crate::Result;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64` values.
///
/// The type is intentionally small: it stores `rows * cols` values in a
/// single `Vec<f64>` and offers the operations the regression layers need
/// (construction, transpose, multiplication, Gram products). Heavier
/// numerics live in the decomposition modules.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Errors
    /// Returns [`LinalgError::BadShape`] when either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::BadShape {
                detail: format!("zero dimension in {rows}x{cols}"),
            });
        }
        Ok(Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        })
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Result<Self> {
        let mut m = Matrix::zeros(n, n)?;
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        Ok(m)
    }

    /// Builds a matrix from a slice of equally long rows.
    ///
    /// # Errors
    /// Returns [`LinalgError::BadShape`] if `rows` is empty, any row is
    /// empty, or the rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let nrows = rows.len();
        if nrows == 0 {
            return Err(LinalgError::BadShape {
                detail: "no rows".into(),
            });
        }
        let ncols = rows[0].len();
        if ncols == 0 {
            return Err(LinalgError::BadShape {
                detail: "empty first row".into(),
            });
        }
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != ncols {
                return Err(LinalgError::BadShape {
                    detail: format!("row {i} has length {} but expected {ncols}", r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    /// Returns [`LinalgError::BadShape`] if `data.len() != rows * cols` or a
    /// dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if rows == 0 || cols == 0 || data.len() != rows * cols {
            return Err(LinalgError::BadShape {
                detail: format!("{} values for a {rows}x{cols} matrix", data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` for a square matrix.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a slice.
    ///
    /// # Panics
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(
            c < self.cols,
            "col {c} out of bounds for {} cols",
            self.cols
        );
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// The flat row-major data slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix {
            rows: self.cols,
            cols: self.rows,
            data: vec![0.0; self.data.len()],
        };
        for r in 0..self.rows {
            let row = self.row(r);
            for (c, &v) in row.iter().enumerate() {
                t.data[c * t.cols + r] = v;
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when
    /// `self.cols() != rhs.rows()`.
    pub fn mul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "mul",
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols)?;
        // i-k-j loop order: the inner loop walks both `rhs` and `out` rows
        // contiguously, which matters once design matrices grow.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                for (o, &b) in orow.iter_mut().zip(rrow.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when
    /// `self.cols() != v.len()`.
    pub fn mul_vec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(LinalgError::DimensionMismatch {
                left: self.shape(),
                right: (v.len(), 1),
                op: "mul_vec",
            });
        }
        Ok((0..self.rows)
            .map(|r| crate::vecops::dot(self.row(r), v))
            .collect())
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] for differing shapes.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "add",
            });
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// In-place element-wise accumulation `self += rhs`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] for differing shapes.
    pub fn add_assign(&mut self, rhs: &Matrix) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "add_assign",
            });
        }
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// Returns `self * s` for a scalar `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * s).collect(),
        }
    }

    /// Maximum absolute element, useful as a cheap norm in tests.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Returns `true` if `self` and `other` agree element-wise within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  [")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: &[&[f64]]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3).unwrap();
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let i = Matrix::identity(3).unwrap();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn bad_shapes_are_rejected() {
        assert!(Matrix::zeros(0, 3).is_err());
        assert!(Matrix::zeros(3, 0).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[&[]]).is_err());
        assert!(Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn transpose_round_trips() {
        let a = m(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t[(2, 0)], 3.0);
        assert!(t.transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn multiplication_matches_hand_computation() {
        let a = m(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = m(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.mul(&b).unwrap();
        assert!(c.approx_eq(&m(&[&[19.0, 22.0], &[43.0, 50.0]]), 1e-12));
    }

    #[test]
    fn multiplication_shape_mismatch() {
        let a = m(&[&[1.0, 2.0]]);
        let err = a.mul(&a).unwrap_err();
        assert!(matches!(
            err,
            LinalgError::DimensionMismatch { op: "mul", .. }
        ));
    }

    #[test]
    fn identity_is_multiplicative_neutral() {
        let a = m(&[&[1.5, -2.0, 0.25], &[0.0, 3.0, 9.0]]);
        let i3 = Matrix::identity(3).unwrap();
        let i2 = Matrix::identity(2).unwrap();
        assert!(a.mul(&i3).unwrap().approx_eq(&a, 0.0));
        assert!(i2.mul(&a).unwrap().approx_eq(&a, 0.0));
    }

    #[test]
    fn mul_vec_checks_the_shape() {
        let a = m(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.mul_vec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0, 11.0]);
        assert!(a.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn add_scale_and_norms() {
        let a = m(&[&[1.0, -2.0], &[3.0, 4.0]]);
        let b = a.scale(2.0);
        assert_eq!(b[(1, 1)], 8.0);
        let s = a.add(&b).unwrap();
        assert_eq!(s[(0, 0)], 3.0);
        let mut c = a.clone();
        c.add_assign(&b).unwrap();
        assert!(c.approx_eq(&s, 0.0));
        assert_eq!(a.max_abs(), 4.0);
        let fr = a.frobenius_norm();
        assert!((fr - (1.0f64 + 4.0 + 9.0 + 16.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn row_and_col_accessors() {
        let a = m(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.col(0), vec![1.0, 3.0]);
        assert!(a.is_square());
    }

    #[test]
    fn debug_formatting_mentions_shape() {
        let a = m(&[&[1.0]]);
        let s = format!("{a:?}");
        assert!(s.contains("1x1"));
    }
}
