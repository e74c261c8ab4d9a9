//! A small, dependency-free, row-major `f32` matrix.
//!
//! This is the numeric workhorse for every trainer in the crate. It is
//! deliberately simple: dense row-major storage, bounds-checked accessors,
//! and the handful of BLAS-like kernels the MLP/SVM/KMeans trainers need.
//! The map/reduce structure of [`Matrix::matmul`] is exactly what the
//! Taurus backend lowers to Spatial templates (dot product = map multiply +
//! reduce add), so keeping it explicit here doubles as documentation of the
//! generated hardware code.

use crate::{MlError, Result};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f32`.
///
/// # Example
///
/// ```
/// use homunculus_ml::tensor::Matrix;
///
/// # fn main() -> Result<(), homunculus_ml::MlError> {
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// JSON document form: `{"rows": r, "cols": c, "data": [..]}` with the
/// buffer in row-major order. `f32` values survive the round trip
/// bit-exactly: they widen losslessly to `f64`, print in shortest
/// round-trippable form, and narrow back without rounding.
impl serde_json::ToJson for Matrix {
    fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "rows": self.rows,
            "cols": self.cols,
            "data": self.data,
        })
    }
}

impl Matrix {
    /// Decodes the [`serde_json::ToJson`] document form.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidArgument`] on missing fields or a buffer
    /// whose length disagrees with the shape.
    pub fn from_json(value: &serde_json::Value) -> Result<Self> {
        let shape = |field: &str| {
            value[field]
                .as_i64()
                .filter(|&v| v >= 0)
                .map(|v| v as usize)
                .ok_or_else(|| MlError::InvalidArgument(format!("matrix needs a {field} count")))
        };
        let (rows, cols) = (shape("rows")?, shape("cols")?);
        let data = value["data"]
            .as_array()
            .ok_or_else(|| MlError::InvalidArgument("matrix needs a data array".into()))?
            .iter()
            .map(|v| {
                v.as_f64()
                    .map(|v| v as f32)
                    .ok_or_else(|| MlError::InvalidArgument("matrix data must be numeric".into()))
            })
            .collect::<Result<Vec<f32>>>()?;
        Matrix::from_vec(rows, cols, data)
    }

    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a closure over `(row, col)` indices.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row vectors.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyInput`] if `rows` is empty and
    /// [`MlError::ShapeMismatch`] if the rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self> {
        let first = rows.first().ok_or(MlError::EmptyInput("matrix rows"))?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(MlError::ShapeMismatch {
                    op: "from_rows",
                    left: (i, cols),
                    right: (i, row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidArgument`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MlError::InvalidArgument(format!(
                "buffer of length {} cannot form a {}x{} matrix",
                data.len(),
                rows,
                cols
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the flat row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns element `(r, c)`, or `None` when out of bounds.
    pub fn get(&self, r: usize, c: usize) -> Option<f32> {
        if r < self.rows && c < self.cols {
            Some(self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = value;
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Matrix product `self * rhs`.
    ///
    /// The kernel runs in cache-friendly i-k-j order: the inner loop
    /// streams contiguously over one `rhs` row and the output row (an
    /// axpy), which is both the fastest order for row-major storage and
    /// exactly the map-multiply/reduce-add dataflow the Taurus backend
    /// lowers to Spatial templates. Zero `lhs` entries skip their whole
    /// axpy — ReLU activations make these common on the training hot
    /// path.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] when `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(MlError::ShapeMismatch {
                op: "matmul",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let n = rhs.cols.max(1);
        for (lhs_row, out_row) in self
            .data
            .chunks_exact(self.cols.max(1))
            .zip(out.data.chunks_exact_mut(n))
        {
            for (&l, rhs_row) in lhs_row.iter().zip(rhs.data.chunks_exact(n)) {
                if l == 0.0 {
                    continue;
                }
                for (o, &r) in out_row.iter_mut().zip(rhs_row) {
                    *o += l * r;
                }
            }
        }
        Ok(out)
    }

    /// Matrix product `self^T * rhs` without materializing the transpose.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] when `self.rows() != rhs.rows()`.
    pub fn transpose_matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(MlError::ShapeMismatch {
                op: "transpose_matmul",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for k in 0..self.rows {
            let lhs_row = self.row(k);
            let rhs_row = rhs.row(k);
            for (i, &l) in lhs_row.iter().enumerate() {
                if l == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (j, &r) in rhs_row.iter().enumerate() {
                    out_row[j] += l * r;
                }
            }
        }
        Ok(out)
    }

    /// Matrix product `self * rhs^T` without materializing the transpose.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] when `self.cols() != rhs.cols()`.
    pub fn matmul_transpose(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.cols {
            return Err(MlError::ShapeMismatch {
                op: "matmul_transpose",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let a = self.row(i);
            for j in 0..rhs.rows {
                let b = rhs.row(j);
                let mut acc = 0.0;
                for k in 0..self.cols {
                    acc += a[k] * b[k];
                }
                out.data[i * rhs.rows + j] = acc;
            }
        }
        Ok(out)
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise in-place addition.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] when shapes differ.
    pub fn add_assign(&mut self, rhs: &Matrix) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(MlError::ShapeMismatch {
                op: "add_assign",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
        Ok(())
    }

    /// Element-wise in-place subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] when shapes differ.
    pub fn sub_assign(&mut self, rhs: &Matrix) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(MlError::ShapeMismatch {
                op: "sub_assign",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
        Ok(())
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Adds the row vector `bias` to every row in place.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] when `bias.len() != self.cols()`.
    pub fn add_row_vector(&mut self, bias: &[f32]) -> Result<()> {
        if bias.len() != self.cols {
            return Err(MlError::ShapeMismatch {
                op: "add_row_vector",
                left: self.shape(),
                right: (1, bias.len()),
            });
        }
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (v, b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
        Ok(())
    }

    /// Sums each column, producing a vector of length `cols`.
    pub fn column_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (s, v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
        sums
    }

    /// Index of the maximum element in each row (first max wins).
    pub fn argmax_rows(&self) -> Vec<usize> {
        self.iter_rows().map(argmax).collect()
    }

    /// The Frobenius norm (`sqrt(sum of squares)`).
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Returns `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Returns the sub-matrix made of the given row indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Returns the sub-matrix made of the given column indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, indices.len());
        for r in 0..self.rows {
            for (j, &c) in indices.iter().enumerate() {
                assert!(c < self.cols, "column index {c} out of bounds");
                out.data[r * indices.len() + j] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Stacks two matrices vertically (`self` on top of `bottom`).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] when column counts differ.
    pub fn vstack(&self, bottom: &Matrix) -> Result<Matrix> {
        if self.cols != bottom.cols {
            return Err(MlError::ShapeMismatch {
                op: "vstack",
                left: self.shape(),
                right: bottom.shape(),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&bottom.data);
        Ok(Matrix {
            rows: self.rows + bottom.rows,
            cols: self.cols,
            data,
        })
    }

    /// Concatenates two matrices horizontally (`self` left of `right`).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] when row counts differ.
    pub fn hstack(&self, right: &Matrix) -> Result<Matrix> {
        if self.rows != right.rows {
            return Err(MlError::ShapeMismatch {
                op: "hstack",
                left: self.shape(),
                right: right.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + right.cols);
        for r in 0..self.rows {
            let dst = &mut out.data[r * (self.cols + right.cols)..];
            dst[..self.cols].copy_from_slice(self.row(r));
            dst[self.cols..self.cols + right.cols].copy_from_slice(right.row(r));
        }
        Ok(out)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            let row: Vec<String> = self
                .row(r)
                .iter()
                .take(12)
                .map(|v| format!("{v:8.4}"))
                .collect();
            writeln!(f, "  [{}]", row.join(", "))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ... ({} more rows)", self.rows - 8)?;
        }
        Ok(())
    }
}

/// Index of the maximum value in a slice (first max wins).
///
/// # Panics
///
/// Panics if the slice is empty.
pub fn argmax(values: &[f32]) -> usize {
    assert!(!values.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot product of unequal lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn squared_distance(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "distance of unequal lengths");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mat(rows: &[Vec<f32>]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn json_roundtrip_is_bit_exact() {
        // Awkward floats included: subnormal-ish, non-dyadic, negative,
        // and extreme f32 values must all survive the JSON text form
        // bit-for-bit (f32 -> f64 -> shortest-form text -> f64 -> f32 is
        // lossless for finite values).
        let m = mat(&[
            vec![0.1, -0.3, 1e-30, f32::MAX],
            vec![f32::MIN_POSITIVE, -0.0, 2.5e10, 1.0 / 3.0],
        ]);
        let text = serde_json::to_string(&serde_json::ToJson::to_json(&m)).unwrap();
        let decoded = Matrix::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(decoded.shape(), m.shape());
        for (a, b) in m.as_slice().iter().zip(decoded.as_slice()) {
            assert_eq!(a.to_bits() & !0x8000_0000, b.to_bits() & !0x8000_0000);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn json_decode_rejects_malformed() {
        let bad = serde_json::from_str("{\"rows\": 2, \"cols\": 2, \"data\": [1, 2, 3]}").unwrap();
        assert!(Matrix::from_json(&bad).is_err(), "shape mismatch");
        let bad = serde_json::from_str("{\"rows\": 1, \"data\": [1]}").unwrap();
        assert!(Matrix::from_json(&bad).is_err(), "missing cols");
        let bad = serde_json::from_str("{\"rows\": 1, \"cols\": 1, \"data\": [\"x\"]}").unwrap();
        assert!(Matrix::from_json(&bad).is_err(), "non-numeric data");
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = mat(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = mat(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = mat(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, mat(&[vec![58.0, 64.0], vec![139.0, 154.0]]));
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(matches!(a.matmul(&b), Err(MlError::ShapeMismatch { .. })));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = mat(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
    }

    #[test]
    fn transpose_matmul_equals_explicit() {
        let a = mat(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let b = mat(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        let fused = a.transpose_matmul(&b).unwrap();
        let explicit = a.transpose().matmul(&b).unwrap();
        assert_eq!(fused, explicit);
    }

    #[test]
    fn matmul_transpose_equals_explicit() {
        let a = mat(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = mat(&[vec![5.0, 6.0], vec![7.0, 8.0], vec![9.0, 1.0]]);
        let fused = a.matmul_transpose(&b).unwrap();
        let explicit = a.matmul(&b.transpose()).unwrap();
        assert_eq!(fused, explicit);
    }

    #[test]
    fn add_row_vector_broadcasts() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row_vector(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(a.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn column_sums_known() {
        let a = mat(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.column_sums(), vec![4.0, 6.0]);
    }

    #[test]
    fn argmax_rows_first_max_wins() {
        let a = mat(&[vec![1.0, 3.0, 3.0], vec![5.0, 2.0, 4.0]]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn select_rows_and_cols() {
        let a = mat(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ]);
        let r = a.select_rows(&[2, 0]);
        assert_eq!(r, mat(&[vec![7.0, 8.0, 9.0], vec![1.0, 2.0, 3.0]]));
        let c = a.select_cols(&[1]);
        assert_eq!(c, mat(&[vec![2.0], vec![5.0], vec![8.0]]));
    }

    #[test]
    fn stacking() {
        let a = mat(&[vec![1.0, 2.0]]);
        let b = mat(&[vec![3.0, 4.0]]);
        assert_eq!(
            a.vstack(&b).unwrap(),
            mat(&[vec![1.0, 2.0], vec![3.0, 4.0]])
        );
        assert_eq!(a.hstack(&b).unwrap(), mat(&[vec![1.0, 2.0, 3.0, 4.0]]));
        let bad = Matrix::zeros(1, 3);
        assert!(a.vstack(&bad).is_err());
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn dot_and_distance() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    #[should_panic(expected = "argmax of empty slice")]
    fn argmax_empty_panics() {
        argmax(&[]);
    }

    #[test]
    fn has_non_finite_detects_nan() {
        let mut a = Matrix::zeros(1, 2);
        assert!(!a.has_non_finite());
        a.set(0, 1, f32::NAN);
        assert!(a.has_non_finite());
    }

    #[test]
    fn display_is_nonempty() {
        let a = Matrix::zeros(1, 1);
        assert!(!format!("{a}").is_empty());
        assert!(!format!("{a:?}").is_empty());
    }

    proptest! {
        #[test]
        fn prop_matmul_identity(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
            let mut s = seed;
            let a = Matrix::from_fn(rows, cols, |_, _| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / u32::MAX as f32) * 2.0 - 1.0
            });
            let i = Matrix::identity(cols);
            let prod = a.matmul(&i).unwrap();
            prop_assert_eq!(prod, a);
        }

        #[test]
        fn prop_transpose_involution(rows in 1usize..8, cols in 1usize..8) {
            let a = Matrix::from_fn(rows, cols, |r, c| (r * 31 + c) as f32);
            prop_assert_eq!(a.transpose().transpose(), a);
        }

        #[test]
        fn prop_matmul_associates_with_scaling(k in -4.0f32..4.0) {
            let a = Matrix::from_fn(3, 3, |r, c| (r + c) as f32);
            let b = Matrix::from_fn(3, 3, |r, c| r as f32 - c as f32);
            let mut ka = a.clone();
            ka.scale(k);
            let left = ka.matmul(&b).unwrap();
            let mut right = a.matmul(&b).unwrap();
            right.scale(k);
            for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }

        #[test]
        fn prop_column_sums_match_total(rows in 1usize..6, cols in 1usize..6) {
            let a = Matrix::from_fn(rows, cols, |r, c| (r * cols + c) as f32);
            let total: f32 = a.as_slice().iter().sum();
            let sums: f32 = a.column_sums().iter().sum();
            prop_assert!((total - sums).abs() < 1e-3);
        }
    }
}
