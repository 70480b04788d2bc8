//! Cells of the multi-dimensional space and the paper's cell relations.
//!
//! A cell (paper Section 2.1) is a tuple over the dimensional attributes;
//! we address it by its [`CuboidSpec`] plus one dense member id per
//! dimension (id `0` for any dimension at the `*` level). A cell with `k`
//! non-`*` dimensions is a *k-d cell*.

use crate::cuboid::CuboidSpec;
use crate::error::OlapError;
use crate::schema::CubeSchema;
use crate::Result;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Ids a [`CellKey`] holds in place; longer keys spill to the heap.
pub const INLINE_IDS: usize = 5;

/// The member-id coordinate of a cell *within a known cuboid*: one id per
/// dimension, `0` for `*` dimensions. Used as the hash key of cuboid
/// tables, so it is compact and cheap to hash (FxHasher).
///
/// A key of up to [`INLINE_IDS`] ids lives inside the key itself (24
/// bytes, the size of a boxed slice plus its tag), so building, cloning
/// and dropping one never touches the allocator; only wider keys box
/// their ids.
///
/// `Hash`, `Eq` and `Ord` are the id slice's, whichever way the ids are
/// stored. The hash in particular must stay exactly the slice's — its
/// length prefix, then its bytes — because it is what a
/// `FxHashMap<CellKey, _>` places cells by: the row layout's iteration
/// order, and with it the order its roll-ups fold cells in (and so
/// every fitted bit above the m-layer), follows from it. It is also
/// what lets a table be probed with a plain `&[u32]` through
/// [`Borrow`].
#[derive(Clone)]
pub struct CellKey(Ids);

/// Where a [`CellKey`]'s ids live. A key of at most [`INLINE_IDS`] ids
/// is always `Inline`, so each id slice has exactly one representation.
#[derive(Clone)]
enum Ids {
    Inline { len: u8, ids: [u32; INLINE_IDS] },
    Heap(Box<[u32]>),
}

impl CellKey {
    /// Creates a key from per-dimension member ids.
    pub fn new(ids: impl AsRef<[u32]>) -> Self {
        let ids = ids.as_ref();
        if ids.len() <= INLINE_IDS {
            let mut inline = [0; INLINE_IDS];
            inline[..ids.len()].copy_from_slice(ids);
            CellKey(Ids::Inline {
                len: ids.len() as u8,
                ids: inline,
            })
        } else {
            CellKey(Ids::Heap(ids.into()))
        }
    }

    /// The member ids, in dimension order.
    #[inline]
    pub fn ids(&self) -> &[u32] {
        match &self.0 {
            Ids::Inline { len, ids } => &ids[..usize::from(*len)],
            Ids::Heap(ids) => ids,
        }
    }

    /// Number of dimensions.
    #[inline]
    pub fn num_dims(&self) -> usize {
        self.ids().len()
    }
}

impl PartialEq for CellKey {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.ids() == other.ids()
    }
}

impl Eq for CellKey {}

impl Hash for CellKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.ids().hash(state);
    }
}

impl PartialOrd for CellKey {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CellKey {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.ids().cmp(other.ids())
    }
}

/// Keys borrow as their id slice, so hash tables keyed by [`CellKey`]
/// can be probed with a plain `&[u32]` (e.g. a projection buffer)
/// without building a key first. `Hash`/`Eq` hash and compare exactly
/// the id slice, so the `Borrow` contract holds.
impl Borrow<[u32]> for CellKey {
    #[inline]
    fn borrow(&self) -> &[u32] {
        self.ids()
    }
}

impl fmt::Debug for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CellKey").field(&self.ids()).finish()
    }
}

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, id) in self.ids().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{id}")?;
        }
        write!(f, "]")
    }
}

/// A fully addressed cell: cuboid plus member ids.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cell {
    cuboid: CuboidSpec,
    key: CellKey,
}

impl Cell {
    /// Creates a cell, validating the coordinate against the schema.
    ///
    /// # Errors
    /// * [`OlapError::ArityMismatch`] when the id count differs from the
    ///   dimension count.
    /// * [`OlapError::MemberOutOfRange`] when an id exceeds its level's
    ///   cardinality (including non-zero ids on `*` dimensions).
    pub fn new(schema: &CubeSchema, cuboid: CuboidSpec, ids: Vec<u32>) -> Result<Self> {
        schema.check_cuboid(&cuboid)?;
        if ids.len() != cuboid.num_dims() {
            return Err(OlapError::ArityMismatch {
                got: ids.len(),
                expected: cuboid.num_dims(),
            });
        }
        for (d, (&id, dim)) in ids.iter().zip(schema.dims().iter()).enumerate() {
            let level = cuboid.level(d);
            let card = dim.hierarchy().cardinality(level);
            if id >= card {
                return Err(OlapError::MemberOutOfRange {
                    dim: d,
                    level,
                    member: id,
                    cardinality: card,
                });
            }
        }
        Ok(Cell {
            cuboid,
            key: CellKey::new(ids),
        })
    }

    /// The cell's cuboid.
    #[inline]
    pub fn cuboid(&self) -> &CuboidSpec {
        &self.cuboid
    }

    /// The cell's member-id key.
    #[inline]
    pub fn key(&self) -> &CellKey {
        &self.key
    }

    /// Number of non-`*` dimensions — the `k` of a "k-d cell".
    pub fn k(&self) -> usize {
        self.cuboid.levels().iter().filter(|&&l| l != 0).count()
    }

    /// Projects this cell to an ancestor `target` cuboid by replacing each
    /// member with its ancestor at the target level.
    ///
    /// # Errors
    /// [`OlapError::BadCuboid`] when `target` is not an
    /// ancestor-or-equal cuboid of this cell's cuboid.
    pub fn project(&self, schema: &CubeSchema, target: &CuboidSpec) -> Result<Cell> {
        if !target.is_ancestor_or_equal(&self.cuboid) {
            return Err(OlapError::BadCuboid {
                detail: format!(
                    "cannot project {} cell to non-ancestor cuboid {}",
                    self.cuboid, target
                ),
            });
        }
        let ids = project_key(schema, &self.cuboid, self.key.ids(), target);
        Ok(Cell {
            cuboid: target.clone(),
            key: CellKey::new(ids),
        })
    }

    /// `true` when `self` is a (strict or equal) **ancestor** of `other`:
    /// on every dimension the cells share a value or `self`'s value is a
    /// generalization of `other`'s (paper Section 2.1).
    pub fn is_ancestor_or_equal(&self, schema: &CubeSchema, other: &Cell) -> bool {
        if !self.cuboid.is_ancestor_or_equal(&other.cuboid) {
            return false;
        }
        other
            .project(schema, &self.cuboid)
            .map(|p| p.key == self.key)
            .unwrap_or(false)
    }

    /// `true` when `self` and `other` are **siblings**: identical in all
    /// dimensions except one, where their members share a parent
    /// (paper Section 2.1).
    pub fn is_sibling_of(&self, schema: &CubeSchema, other: &Cell) -> bool {
        if self.cuboid != other.cuboid || self.key == other.key {
            return false;
        }
        let mut diff_dim = None;
        for (d, (&a, &b)) in self
            .key
            .ids()
            .iter()
            .zip(other.key.ids().iter())
            .enumerate()
        {
            if a != b {
                if diff_dim.is_some() {
                    return false;
                }
                diff_dim = Some((d, a, b));
            }
        }
        let Some((d, a, b)) = diff_dim else {
            return false;
        };
        let level = self.cuboid.level(d);
        if level == 0 {
            return false; // the * level has a single member; can't differ
        }
        let h = schema.dims()[d].hierarchy();
        if level == 1 {
            // Level-1 members all share the * parent.
            return true;
        }
        h.parent(level, a) == h.parent(level, b)
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.cuboid, self.key)
    }
}

/// Projects a raw key from `source` cuboid coordinates to an ancestor
/// `target` cuboid — the hot-loop primitive behind every roll-up.
///
/// Callers must guarantee `target.is_ancestor_or_equal(source)` and a
/// valid key; this function does not validate.
pub fn project_key(
    schema: &CubeSchema,
    source: &CuboidSpec,
    ids: &[u32],
    target: &CuboidSpec,
) -> Vec<u32> {
    let mut out = Vec::with_capacity(ids.len());
    for (d, &id) in ids.iter().enumerate() {
        let from = source.level(d);
        let to = target.level(d);
        let h = schema.dims()[d].hierarchy();
        out.push(h.ancestor_unchecked(from, id, to));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> CubeSchema {
        CubeSchema::synthetic(3, 3, 3).unwrap()
    }

    #[test]
    fn cell_construction_validates() {
        let s = schema();
        let c = Cell::new(&s, CuboidSpec::new(vec![1, 0, 2]), vec![2, 0, 8]).unwrap();
        assert_eq!(c.k(), 2);
        assert_eq!(format!("{c}"), "(L1, *, L2)[2, 0, 8]");

        assert!(Cell::new(&s, CuboidSpec::new(vec![1, 0]), vec![0, 0]).is_err());
        assert!(Cell::new(&s, CuboidSpec::new(vec![1, 0, 2]), vec![0, 0]).is_err());
        assert!(Cell::new(&s, CuboidSpec::new(vec![1, 0, 2]), vec![3, 0, 0]).is_err());
        assert!(Cell::new(&s, CuboidSpec::new(vec![1, 0, 2]), vec![0, 1, 0]).is_err());
    }

    #[test]
    fn projection_generalizes_members() {
        let s = schema();
        let fine = Cell::new(&s, CuboidSpec::new(vec![3, 3, 3]), vec![26, 13, 5]).unwrap();
        let coarse = fine.project(&s, &CuboidSpec::new(vec![1, 0, 2])).unwrap();
        // 26 at L3 -> 8 at L2 -> 2 at L1 (fanout 3); 5 at L3 -> 1 at L2.
        assert_eq!(coarse.key().ids(), &[2, 0, 1]);

        // Projecting to a finer cuboid is an error.
        assert!(coarse.project(&s, &CuboidSpec::new(vec![3, 3, 3])).is_err());
    }

    #[test]
    fn ancestor_relation() {
        let s = schema();
        let base = Cell::new(&s, CuboidSpec::new(vec![3, 3, 3]), vec![26, 13, 5]).unwrap();
        let anc = Cell::new(&s, CuboidSpec::new(vec![1, 0, 2]), vec![2, 0, 1]).unwrap();
        let not_anc = Cell::new(&s, CuboidSpec::new(vec![1, 0, 2]), vec![1, 0, 1]).unwrap();
        assert!(anc.is_ancestor_or_equal(&s, &base));
        assert!(!not_anc.is_ancestor_or_equal(&s, &base));
        assert!(!base.is_ancestor_or_equal(&s, &anc));
        assert!(base.is_ancestor_or_equal(&s, &base));
    }

    #[test]
    fn sibling_relation() {
        let s = schema();
        let cuboid = CuboidSpec::new(vec![2, 2, 2]);
        // Members 3 and 4 at L2 share parent 1 (fanout 3); 3 and 6 do not.
        let a = Cell::new(&s, cuboid.clone(), vec![3, 0, 0]).unwrap();
        let b = Cell::new(&s, cuboid.clone(), vec![4, 0, 0]).unwrap();
        let c = Cell::new(&s, cuboid.clone(), vec![6, 0, 0]).unwrap();
        let two_diff = Cell::new(&s, cuboid.clone(), vec![4, 1, 0]).unwrap();
        assert!(a.is_sibling_of(&s, &b));
        assert!(b.is_sibling_of(&s, &a));
        assert!(!a.is_sibling_of(&s, &c));
        assert!(!a.is_sibling_of(&s, &two_diff));
        assert!(!a.is_sibling_of(&s, &a));

        // Level-1 members are always siblings under *.
        let l1 = CuboidSpec::new(vec![1, 0, 0]);
        let x = Cell::new(&s, l1.clone(), vec![0, 0, 0]).unwrap();
        let y = Cell::new(&s, l1, vec![2, 0, 0]).unwrap();
        assert!(x.is_sibling_of(&s, &y));
    }

    #[test]
    fn cell_key_accessors() {
        let k = CellKey::new(vec![1, 2, 3]);
        assert_eq!(k.ids(), &[1, 2, 3]);
        assert_eq!(k.num_dims(), 3);
        assert_eq!(format!("{k}"), "[1, 2, 3]");
        let wide = CellKey::new([1, 2, 3, 4, 5, 6]);
        assert_eq!(wide.ids(), &[1, 2, 3, 4, 5, 6]);
        assert_eq!(format!("{wide:?}"), "CellKey([1, 2, 3, 4, 5, 6])");
    }
}
