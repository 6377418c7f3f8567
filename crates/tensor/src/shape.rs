//! Tensor shapes (rank 1–3, row-major).

use rckt_obs::json::{FromJson, JsonValue, ToJson};
use std::fmt;

/// Shape of a tensor. Data is stored row-major; the last dimension is
/// contiguous. Rank 1 is treated as a row vector `[1, n]` by matrix ops.
///
/// A shape is a `Copy` value: up to three dimensions stored inline, so
/// building or copying one never touches the heap. Read the dimensions
/// with [`Shape::dims`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    /// Dimensions in order; the slots past `rank` are always 0, so the
    /// derived equality and hash see only the real dimensions.
    dims: [usize; 3],
    rank: usize,
}

/// A shape is written as its dimension list.
impl ToJson for Shape {
    fn write_json(&self, out: &mut String) {
        self.dims().write_json(out);
    }
}

/// A shape read from JSON has rank 1–3 and an element count that fits in
/// `usize`, so [`Shape::numel`] cannot overflow on it.
impl FromJson for Shape {
    fn from_json(v: &JsonValue) -> Result<Shape, String> {
        let dims: Vec<usize> = Vec::from_json(v)?;
        let shape = Shape::try_from_dims(&dims)
            .ok_or_else(|| format!("shape {dims:?}: supported ranks are 1..=3"))?;
        dims.iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d))
            .ok_or_else(|| format!("shape {dims:?}: element count overflows"))?;
        Ok(shape)
    }
}

impl Shape {
    #[inline]
    pub fn scalar() -> Self {
        Shape::vector(1)
    }

    #[inline]
    pub fn vector(n: usize) -> Self {
        Shape {
            dims: [n, 0, 0],
            rank: 1,
        }
    }

    #[inline]
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Shape {
            dims: [rows, cols, 0],
            rank: 2,
        }
    }

    #[inline]
    pub fn cube(b: usize, rows: usize, cols: usize) -> Self {
        Shape {
            dims: [b, rows, cols],
            rank: 3,
        }
    }

    /// The shape with these dimensions, or `None` unless `1 <= rank <= 3`.
    fn try_from_dims(dims: &[usize]) -> Option<Self> {
        match *dims {
            [n] => Some(Shape::vector(n)),
            [m, n] => Some(Shape::matrix(m, n)),
            [b, m, n] => Some(Shape::cube(b, m, n)),
            _ => None,
        }
    }

    /// The dimensions, outermost first.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.dims().iter().product()
    }

    /// Number of rows when viewed as a 2-D matrix (batch dims folded in).
    #[inline]
    pub fn rows(&self) -> usize {
        let dims = self.dims();
        dims[..dims.len() - 1].iter().product()
    }

    /// Size of the last (contiguous) dimension.
    #[inline]
    pub fn cols(&self) -> usize {
        self.dims[self.rank - 1]
    }

    /// Leading batch dimension for rank-3 shapes, 1 otherwise.
    #[inline]
    pub fn batch(&self) -> usize {
        if self.rank == 3 {
            self.dims[0]
        } else {
            1
        }
    }

    /// The two trailing matrix dimensions `(m, n)`.
    #[inline]
    pub fn mat_dims(&self) -> (usize, usize) {
        match *self.dims() {
            [n] => (1, n),
            [m, n] | [_, m, n] => (m, n),
            _ => unreachable!("a shape has rank 1..=3"),
        }
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims())
    }
}

impl From<&[usize]> for Shape {
    fn from(v: &[usize]) -> Self {
        Shape::try_from_dims(v).expect("supported ranks: 1..=3")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Self {
        Shape::from(v.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_dims() {
        let s = Shape::cube(2, 3, 4);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.rows(), 6);
        assert_eq!(s.cols(), 4);
        assert_eq!(s.batch(), 2);
        assert_eq!(s.mat_dims(), (3, 4));
    }

    #[test]
    fn vector_is_one_row() {
        let s = Shape::vector(5);
        assert_eq!(s.rows(), 1);
        assert_eq!(s.cols(), 5);
        assert_eq!(s.mat_dims(), (1, 5));
    }

    #[test]
    #[should_panic]
    fn rank_4_rejected() {
        let _ = Shape::from(vec![1, 2, 3, 4]);
    }

    #[test]
    fn json_shapes_are_checked() {
        let parse = |t: &str| Shape::from_json(&rckt_obs::json::parse(t).unwrap());
        assert_eq!(parse("[2,3]"), Ok(Shape::matrix(2, 3)));
        assert!(parse("[]").is_err());
        assert!(parse("[1,2,3,4]").is_err());
        assert!(parse("[4294967296,4294967296,16]")
            .unwrap_err()
            .contains("overflows"));
    }

    #[test]
    fn equal_dims_are_equal_shapes_whatever_the_constructor() {
        assert_eq!(Shape::from(vec![3, 4]), Shape::matrix(3, 4));
        assert_eq!(Shape::from(&[7][..]), Shape::vector(7));
        assert_eq!(Shape::scalar().dims(), &[1]);
        assert_ne!(Shape::vector(4), Shape::matrix(1, 4));
        assert_eq!(format!("{:?}", Shape::cube(2, 3, 4)), "[2, 3, 4]");
    }
}
