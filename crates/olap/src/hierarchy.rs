//! Concept hierarchies for standard dimensions.
//!
//! Each dimension carries a high-to-low hierarchy `* > A1 > A2 > … > A_depth`
//! (paper Example 5). Level `0` is the virtual all-level `*` with a single
//! member; level `depth` is the finest. Members at every level are dense
//! integer ids `0..cardinality(level)`; each member of level `l > 1` knows
//! its parent at level `l - 1` through a parent array, and each member
//! its children through [`Hierarchy::child_ids`].

use crate::error::OlapError;
use crate::Result;

/// The virtual top level `*` present in every hierarchy.
pub const ALL_LEVEL: u8 = 0;

/// A multi-level concept hierarchy over dense member ids.
///
/// Two representations share one API: explicit parent arrays (for ragged
/// real-world hierarchies) and a *computed* balanced form where member
/// `m`'s parent is `m / fanout` — the synthetic `C`-fanout hierarchies of
/// the paper's data generator, which at 7 levels of fanout 10 would waste
/// ~50 MB per dimension if materialized.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    /// Ragged hierarchy: explicit parent arrays and their inverse.
    Explicit {
        /// `parents[l - 1][m]` = parent id (at level `l - 1`) of member
        /// `m` at level `l`, for `l` in `1..=depth`. Level 1 members all
        /// map to the single `*` member, so `parents[0]` is all zeros.
        parents: Vec<Vec<u32>>,
        /// The inverse of `parents`: `children[l]` lists the level-`l+1`
        /// members under each level-`l` member, for `l` in `0..depth`.
        children: Vec<ChildIndex>,
    },
    /// Balanced fanout tree: `cardinality(l) = fanout^l`,
    /// `parent(m) = m / fanout`.
    Balanced {
        /// Number of named levels.
        depth: u8,
        /// Children per node.
        fanout: u32,
    },
}

/// One level's parent → children lists in compressed-sparse-row form:
/// member `m`'s children are `ids[offsets[m]..offsets[m + 1]]`, in
/// ascending id order. Derived from the parent array once, in
/// [`Hierarchy::from_parents`], so the two never disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ChildIndex {
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl ChildIndex {
    /// Inverts one parent array (`parent_of[c]` for every child `c`)
    /// over `parent_card` parents by a counting sort.
    fn invert(parent_of: &[u32], parent_card: usize) -> Self {
        let mut offsets = vec![0u32; parent_card + 1];
        for &p in parent_of {
            offsets[p as usize + 1] += 1;
        }
        for m in 0..parent_card {
            offsets[m + 1] += offsets[m];
        }
        let mut next = offsets.clone();
        let mut ids = vec![0u32; parent_of.len()];
        for (c, &p) in parent_of.iter().enumerate() {
            ids[next[p as usize] as usize] = c as u32;
            next[p as usize] += 1;
        }
        ChildIndex { offsets, ids }
    }
}

/// The children of one member, from [`Hierarchy::child_ids`]: a computed
/// range for balanced hierarchies, a slice of the child index for
/// explicit ones. Ascending, and allocation-free.
#[derive(Debug, Clone)]
pub struct ChildIds<'a>(ChildIdsRepr<'a>);

#[derive(Debug, Clone)]
enum ChildIdsRepr<'a> {
    Range(std::ops::Range<u32>),
    Listed(std::slice::Iter<'a, u32>),
}

impl Iterator for ChildIds<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match &mut self.0 {
            ChildIdsRepr::Range(r) => r.next(),
            ChildIdsRepr::Listed(it) => it.next().copied(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            ChildIdsRepr::Range(r) => r.size_hint(),
            ChildIdsRepr::Listed(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for ChildIds<'_> {}

/// A multi-level concept hierarchy over dense member ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hierarchy {
    repr: Repr,
}

impl Hierarchy {
    /// Builds a hierarchy from explicit parent arrays.
    ///
    /// `parents[0]` lists level-1 members' parents (must all be `0`, the
    /// `*` member); `parents[l-1]` maps level-`l` members to level-`l-1`
    /// parents.
    ///
    /// # Errors
    /// [`OlapError::BadHierarchy`] when a parent id exceeds the parent
    /// level's cardinality, a level is empty, or `parents` itself is empty.
    pub fn from_parents(parents: Vec<Vec<u32>>) -> Result<Self> {
        if parents.is_empty() {
            return Err(OlapError::BadHierarchy {
                detail: "hierarchy needs at least one level".into(),
            });
        }
        for (i, level) in parents.iter().enumerate() {
            if level.is_empty() {
                return Err(OlapError::BadHierarchy {
                    detail: format!("level {} has no members", i + 1),
                });
            }
            let parent_card = if i == 0 {
                1
            } else {
                parents[i - 1].len() as u32
            };
            if let Some(&bad) = level.iter().find(|&&p| p >= parent_card) {
                return Err(OlapError::BadHierarchy {
                    detail: format!(
                        "level {} references parent {bad} but level {} has cardinality {parent_card}",
                        i + 1,
                        i
                    ),
                });
            }
        }
        let children = (0..parents.len())
            .map(|i| {
                let parent_card = if i == 0 { 1 } else { parents[i - 1].len() };
                ChildIndex::invert(&parents[i], parent_card)
            })
            .collect();
        Ok(Hierarchy {
            repr: Repr::Explicit { parents, children },
        })
    }

    /// Builds a balanced hierarchy of the given `depth` where every member
    /// has exactly `fanout` children — the paper's synthetic `C` parameter
    /// ("the node fan-out factor (cardinality) is 10, i.e. 10 children per
    /// node"). Level `l` then has `fanout^l` members and member `m`'s
    /// parent is `m / fanout`; nothing is materialized.
    ///
    /// # Errors
    /// [`OlapError::BadHierarchy`] for `depth == 0` or `fanout == 0`, or if
    /// the finest level would exceed `u32` capacity.
    pub fn balanced(depth: u8, fanout: u32) -> Result<Self> {
        if depth == 0 || fanout == 0 {
            return Err(OlapError::BadHierarchy {
                detail: format!("degenerate balanced hierarchy: depth {depth}, fanout {fanout}"),
            });
        }
        let mut card: u64 = 1;
        for _ in 0..depth {
            card = card
                .checked_mul(fanout as u64)
                .ok_or(OlapError::BadHierarchy {
                    detail: "cardinality overflow".into(),
                })?;
            if card > u32::MAX as u64 {
                return Err(OlapError::BadHierarchy {
                    detail: format!("cardinality {card} exceeds u32 range"),
                });
            }
        }
        Ok(Hierarchy {
            repr: Repr::Balanced { depth, fanout },
        })
    }

    /// Number of named levels (excluding `*`); the finest level index.
    #[inline]
    pub fn depth(&self) -> u8 {
        match &self.repr {
            Repr::Explicit { parents, .. } => parents.len() as u8,
            Repr::Balanced { depth, .. } => *depth,
        }
    }

    /// Number of members at `level` (level `0` is `*` with one member).
    ///
    /// # Panics
    /// Panics when `level > depth` — callers validate levels via
    /// [`Self::check_level`].
    #[inline]
    pub fn cardinality(&self, level: u8) -> u32 {
        if level == ALL_LEVEL {
            return 1;
        }
        match &self.repr {
            Repr::Explicit { parents, .. } => parents[(level - 1) as usize].len() as u32,
            Repr::Balanced { depth, fanout } => {
                debug_assert!(level <= *depth);
                fanout.pow(u32::from(level))
            }
        }
    }

    /// Validates a level index.
    ///
    /// # Errors
    /// [`OlapError::UnknownLevel`] when `level > depth` (the `dim` argument
    /// is only used to build the error message).
    pub fn check_level(&self, dim: usize, level: u8) -> Result<()> {
        if level > self.depth() {
            return Err(OlapError::UnknownLevel {
                dim,
                level,
                depth: self.depth(),
            });
        }
        Ok(())
    }

    /// Parent id (at `level - 1`) of `member` at `level`.
    ///
    /// # Panics
    /// Panics on out-of-range inputs; use [`Self::ancestor`] for validated
    /// access.
    #[inline]
    pub fn parent(&self, level: u8, member: u32) -> u32 {
        debug_assert!(level >= 1 && level <= self.depth());
        match &self.repr {
            Repr::Explicit { parents, .. } => parents[(level - 1) as usize][member as usize],
            Repr::Balanced { fanout, .. } => member / *fanout,
        }
    }

    /// The ancestor of `member` (at `from_level`) at the coarser
    /// `to_level`, walking parent arrays. `to_level == from_level` returns
    /// the member itself; `to_level == 0` returns `0` (the `*` member).
    ///
    /// # Errors
    /// * [`OlapError::UnknownLevel`] when either level exceeds the depth or
    ///   `to_level > from_level` (a descendant request, not an ancestor).
    /// * [`OlapError::MemberOutOfRange`] when `member` exceeds the
    ///   cardinality of `from_level`.
    pub fn ancestor(&self, dim: usize, from_level: u8, member: u32, to_level: u8) -> Result<u32> {
        self.check_level(dim, from_level)?;
        if to_level > from_level {
            return Err(OlapError::UnknownLevel {
                dim,
                level: to_level,
                depth: from_level,
            });
        }
        if member >= self.cardinality(from_level) {
            return Err(OlapError::MemberOutOfRange {
                dim,
                level: from_level,
                member,
                cardinality: self.cardinality(from_level),
            });
        }
        Ok(self.ancestor_unchecked(from_level, member, to_level))
    }

    /// [`Self::ancestor`] without validation — the hot path used by cubing
    /// loops that have already validated their cuboids.
    #[inline]
    pub fn ancestor_unchecked(&self, from_level: u8, member: u32, to_level: u8) -> u32 {
        if to_level == ALL_LEVEL {
            return 0;
        }
        match &self.repr {
            Repr::Balanced { fanout, .. } => {
                // One division instead of a parent-chain walk.
                member / fanout.pow(u32::from(from_level - to_level))
            }
            Repr::Explicit { .. } => {
                let mut m = member;
                let mut l = from_level;
                while l > to_level {
                    m = self.parent(l, m);
                    l -= 1;
                }
                m
            }
        }
    }

    /// Children (at `level + 1`) of `member` at `level`, collected — the
    /// validated form of [`Self::child_ids`].
    ///
    /// # Errors
    /// [`OlapError::UnknownLevel`] when `level >= depth`;
    /// [`OlapError::MemberOutOfRange`] for a bad member id.
    pub fn children(&self, dim: usize, level: u8, member: u32) -> Result<Vec<u32>> {
        self.check_level(dim, level + 1)?;
        if member >= self.cardinality(level) {
            return Err(OlapError::MemberOutOfRange {
                dim,
                level,
                member,
                cardinality: self.cardinality(level),
            });
        }
        Ok(self.child_ids(level, member).collect())
    }

    /// Children (at `level + 1`) of `member` at `level`, ascending, in
    /// O(children) and without allocating: `member·fanout ..` for a
    /// balanced hierarchy, one slice of the child index built by
    /// [`Self::from_parents`] otherwise. The hot path drilling uses.
    ///
    /// # Panics
    /// May panic on out-of-range inputs (`level >= depth` or `member`
    /// not below `cardinality(level)`), and yields unspecified ids when
    /// it does not; use [`Self::children`] for validated access.
    #[inline]
    pub fn child_ids(&self, level: u8, member: u32) -> ChildIds<'_> {
        debug_assert!(level < self.depth() && member < self.cardinality(level));
        ChildIds(match &self.repr {
            Repr::Explicit { children, .. } => {
                let index = &children[level as usize];
                let m = member as usize;
                let span = index.offsets[m] as usize..index.offsets[m + 1] as usize;
                ChildIdsRepr::Listed(index.ids[span].iter())
            }
            Repr::Balanced { fanout, .. } => {
                let first = member * *fanout;
                ChildIdsRepr::Range(first..first + *fanout)
            }
        })
    }

    /// Total member count across all named levels (a size diagnostic).
    pub fn total_members(&self) -> u64 {
        (1..=self.depth())
            .map(|l| u64::from(self.cardinality(l)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_hierarchy_shapes() {
        let h = Hierarchy::balanced(3, 10).unwrap();
        assert_eq!(h.depth(), 3);
        assert_eq!(h.cardinality(0), 1);
        assert_eq!(h.cardinality(1), 10);
        assert_eq!(h.cardinality(2), 100);
        assert_eq!(h.cardinality(3), 1000);
        assert_eq!(h.total_members(), 1110);
    }

    #[test]
    fn balanced_parentage_is_division() {
        let h = Hierarchy::balanced(2, 4).unwrap();
        assert_eq!(h.parent(2, 13), 3);
        assert_eq!(h.parent(1, 3), 0);
        assert_eq!(h.ancestor(0, 2, 13, 1).unwrap(), 3);
        assert_eq!(h.ancestor(0, 2, 13, 0).unwrap(), 0);
        assert_eq!(h.ancestor(0, 2, 13, 2).unwrap(), 13);
    }

    #[test]
    fn degenerate_balanced_is_rejected() {
        assert!(Hierarchy::balanced(0, 10).is_err());
        assert!(Hierarchy::balanced(3, 0).is_err());
        assert!(Hierarchy::balanced(32, 10).is_err()); // overflow
    }

    #[test]
    fn explicit_parents_are_validated() {
        // Ragged hierarchy: 2 level-1 members; 3 level-2 members.
        let h = Hierarchy::from_parents(vec![vec![0, 0], vec![0, 0, 1]]).unwrap();
        assert_eq!(h.depth(), 2);
        assert_eq!(h.cardinality(2), 3);
        assert_eq!(h.ancestor(0, 2, 2, 1).unwrap(), 1);

        assert!(Hierarchy::from_parents(vec![]).is_err());
        assert!(Hierarchy::from_parents(vec![vec![]]).is_err());
        assert!(Hierarchy::from_parents(vec![vec![0], vec![1]]).is_err()); // parent 1 of 1
        assert!(Hierarchy::from_parents(vec![vec![1]]).is_err()); // level-1 parent must be *
    }

    #[test]
    fn ancestor_validation_errors() {
        let h = Hierarchy::balanced(2, 3).unwrap();
        assert!(matches!(
            h.ancestor(5, 4, 0, 0),
            Err(OlapError::UnknownLevel { dim: 5, .. })
        ));
        assert!(matches!(
            h.ancestor(0, 1, 99, 0),
            Err(OlapError::MemberOutOfRange { .. })
        ));
        assert!(h.ancestor(0, 1, 0, 2).is_err()); // descendant direction
    }

    #[test]
    fn children_inverts_parent() {
        let h = Hierarchy::balanced(2, 3).unwrap();
        let kids = h.children(0, 1, 2).unwrap();
        assert_eq!(kids, vec![6, 7, 8]);
        for k in kids {
            assert_eq!(h.parent(2, k), 2);
        }
        let top = h.children(0, 0, 0).unwrap();
        assert_eq!(top, vec![0, 1, 2]);
        assert!(h.children(0, 2, 0).is_err()); // below the finest level
        assert!(h.children(0, 0, 1).is_err()); // * has one member
    }

    #[test]
    fn ancestor_is_transitive() {
        let h = Hierarchy::balanced(3, 5).unwrap();
        for m in [0u32, 7, 64, 124] {
            let via_mid = {
                let mid = h.ancestor_unchecked(3, m, 2);
                h.ancestor_unchecked(2, mid, 1)
            };
            assert_eq!(via_mid, h.ancestor_unchecked(3, m, 1));
        }
    }
}
