//! Cuboid specifications: one abstraction level per dimension.

use std::borrow::Borrow;
use std::fmt;

/// A cuboid, identified by the hierarchy level chosen for each dimension.
///
/// Level `0` is the all-level `*`; larger levels are finer. The m-layer of
/// Example 5 is `(A2, B2, C2)` = `CuboidSpec::new(vec![2, 2, 2])` and the
/// o-layer `(A1, *, C1)` = `CuboidSpec::new(vec![1, 0, 1])`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CuboidSpec {
    levels: Vec<u8>,
}

impl CuboidSpec {
    /// Creates a cuboid from per-dimension levels.
    pub fn new(levels: Vec<u8>) -> Self {
        CuboidSpec { levels }
    }

    /// Number of dimensions.
    #[inline]
    pub fn num_dims(&self) -> usize {
        self.levels.len()
    }

    /// The level chosen for dimension `d`.
    ///
    /// # Panics
    /// Panics when `d` is out of range.
    #[inline]
    pub fn level(&self, d: usize) -> u8 {
        self.levels[d]
    }

    /// All levels, in dimension order.
    #[inline]
    pub fn levels(&self) -> &[u8] {
        &self.levels
    }

    /// Sum of levels — the cuboid's total depth. The m-layer maximizes it,
    /// the o-layer minimizes it within a lattice.
    #[inline]
    pub fn total_depth(&self) -> u32 {
        self.levels.iter().map(|&l| u32::from(l)).sum()
    }

    /// `true` when `self` is at least as coarse as `other` on every
    /// dimension (so `self`'s cells are ancestors of `other`'s).
    /// Reflexive: a cuboid is an ancestor-or-equal of itself.
    pub fn is_ancestor_or_equal(&self, other: &CuboidSpec) -> bool {
        self.levels.len() == other.levels.len()
            && self
                .levels
                .iter()
                .zip(other.levels.iter())
                .all(|(a, b)| a <= b)
    }

    /// Returns the cuboid with dimension `d` refined one level (toward
    /// finer data), or `None` when `d` is out of range.
    pub fn refine(&self, d: usize) -> Option<CuboidSpec> {
        if d >= self.levels.len() {
            return None;
        }
        let mut levels = self.levels.clone();
        levels[d] = levels[d].checked_add(1)?;
        Some(CuboidSpec { levels })
    }

    /// Returns the cuboid with dimension `d` coarsened one level (toward
    /// `*`), or `None` when `d` is out of range or already at `*`.
    pub fn coarsen(&self, d: usize) -> Option<CuboidSpec> {
        if d >= self.levels.len() || self.levels[d] == 0 {
            return None;
        }
        let mut levels = self.levels.clone();
        levels[d] -= 1;
        Some(CuboidSpec { levels })
    }

    /// The single dimension on which `self` and `other` differ by exactly
    /// one level (with all others equal), if any — the "one roll-up step"
    /// relation that popular paths are made of.
    pub fn single_step_dim(&self, finer: &CuboidSpec) -> Option<usize> {
        if self.levels.len() != finer.levels.len() {
            return None;
        }
        let mut step = None;
        for (d, (a, b)) in self.levels.iter().zip(finer.levels.iter()).enumerate() {
            if a == b {
                continue;
            }
            if *b == a + 1 && step.is_none() {
                step = Some(d);
            } else {
                return None;
            }
        }
        step
    }
}

/// Cuboids borrow as their level slice, so maps keyed by [`CuboidSpec`]
/// can be probed with a plain `&[u8]` (e.g. levels refined in a stack
/// buffer) without building a cuboid first. The derived `Hash`, `Eq`
/// and `Ord` are those of the single `Vec<u8>` field, which hashes
/// (length prefix, then bytes), compares and orders exactly as its
/// slice does, so the `Borrow` contract holds.
impl Borrow<[u8]> for CuboidSpec {
    #[inline]
    fn borrow(&self) -> &[u8] {
        &self.levels
    }
}

impl fmt::Display for CuboidSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, l) in self.levels.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if *l == 0 {
                write!(f, "*")?;
            } else {
                write!(f, "L{l}")?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_and_depth() {
        let c = CuboidSpec::new(vec![1, 0, 2]);
        assert_eq!(c.num_dims(), 3);
        assert_eq!(c.level(2), 2);
        assert_eq!(c.total_depth(), 3);
        assert_eq!(format!("{c}"), "(L1, *, L2)");
    }

    #[test]
    fn ancestor_ordering() {
        let o = CuboidSpec::new(vec![1, 0, 1]);
        let m = CuboidSpec::new(vec![2, 2, 2]);
        assert!(o.is_ancestor_or_equal(&m));
        assert!(!m.is_ancestor_or_equal(&o));
        assert!(o.is_ancestor_or_equal(&o));
        // Incomparable pair.
        let x = CuboidSpec::new(vec![2, 0, 1]);
        let y = CuboidSpec::new(vec![1, 1, 1]);
        assert!(!x.is_ancestor_or_equal(&y));
        assert!(!y.is_ancestor_or_equal(&x));
        // Arity mismatch is never an ancestor.
        assert!(!o.is_ancestor_or_equal(&CuboidSpec::new(vec![1, 0])));
    }

    #[test]
    fn refine_and_coarsen_are_inverse() {
        let c = CuboidSpec::new(vec![1, 2]);
        let finer = c.refine(0).unwrap();
        assert_eq!(finer.levels(), &[2, 2]);
        assert_eq!(finer.coarsen(0).unwrap(), c);
        assert!(c.refine(5).is_none());
        assert!(CuboidSpec::new(vec![0]).coarsen(0).is_none());
        assert!(c.coarsen(9).is_none());
    }

    #[test]
    fn single_step_detection() {
        let a = CuboidSpec::new(vec![1, 1, 1]);
        let b = CuboidSpec::new(vec![1, 2, 1]);
        let c = CuboidSpec::new(vec![2, 2, 1]);
        assert_eq!(a.single_step_dim(&b), Some(1));
        assert_eq!(b.single_step_dim(&c), Some(0));
        assert_eq!(a.single_step_dim(&c), None); // two steps
        assert_eq!(a.single_step_dim(&a), None); // zero steps
        assert_eq!(b.single_step_dim(&a), None); // wrong direction
        assert_eq!(a.single_step_dim(&CuboidSpec::new(vec![1, 1])), None);
    }
}
