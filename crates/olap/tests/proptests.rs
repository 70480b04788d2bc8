//! Property tests for the OLAP substrate: hierarchies, lattices and
//! H-trees on randomly shaped inputs.

use proptest::prelude::*;
use regcube_olap::htree::{attrs_by_cardinality, expand_tuple, AttrSpec, HTree};
use regcube_olap::{CubeSchema, CuboidSpec, Hierarchy, Lattice};

/// Strategy: a ragged hierarchy as random level sizes; parents assigned
/// round-robin so every parent has at least one child when possible.
fn ragged_hierarchy() -> impl Strategy<Value = Hierarchy> {
    prop::collection::vec(1u32..12, 1..4).prop_map(|sizes| {
        let mut parents: Vec<Vec<u32>> = Vec::with_capacity(sizes.len());
        let mut prev = 1u32;
        for &size in &sizes {
            let level: Vec<u32> = (0..size).map(|m| m % prev).collect();
            parents.push(level);
            prev = size;
        }
        Hierarchy::from_parents(parents).unwrap()
    })
}

/// Strategy: a ragged hierarchy with every parent drawn at random, so
/// siblings are scattered across the level and some members have no
/// children at all.
fn scattered_hierarchy() -> impl Strategy<Value = Hierarchy> {
    prop::collection::vec(prop::collection::vec(0u32..u32::MAX, 1..16), 1..5).prop_map(|draws| {
        let mut parents: Vec<Vec<u32>> = Vec::with_capacity(draws.len());
        let mut prev = 1u32;
        for level in draws {
            let size = level.len() as u32;
            parents.push(level.into_iter().map(|d| d % prev).collect());
            prev = size;
        }
        Hierarchy::from_parents(parents).unwrap()
    })
}

/// The child lookup `Hierarchy::children` used to do: a scan of the
/// whole child level for members whose parent is `member`.
fn children_by_scan(h: &Hierarchy, level: u8, member: u32) -> Vec<u32> {
    (0..h.cardinality(level + 1))
        .filter(|&c| h.parent(level + 1, c) == member)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `child_ids` — the child index of an explicit hierarchy — lists
    /// exactly what a scan of the child level finds, in the same order,
    /// for every member of every level; `children` collects the same.
    #[test]
    fn child_ids_equal_the_level_scan(
        (ragged, scattered) in (ragged_hierarchy(), scattered_hierarchy()),
    ) {
        for h in [ragged, scattered] {
            for level in 0..h.depth() {
                for member in 0..h.cardinality(level) {
                    let expected = children_by_scan(&h, level, member);
                    let ids: Vec<u32> = h.child_ids(level, member).collect();
                    prop_assert_eq!(ids, expected.clone());
                    prop_assert_eq!(h.children(0, level, member).unwrap(), expected);
                }
            }
        }
    }

    /// Ancestor chains are transitive: going up two levels equals two
    /// single-level steps, for every member.
    #[test]
    fn ancestors_are_transitive(h in ragged_hierarchy()) {
        let depth = h.depth();
        for from in 1..=depth {
            for member in 0..h.cardinality(from) {
                for to in 0..from {
                    let direct = h.ancestor_unchecked(from, member, to);
                    let mut stepped = member;
                    for l in ((to + 1)..=from).rev() {
                        stepped = h.ancestor_unchecked(l, stepped, l - 1);
                    }
                    prop_assert_eq!(direct, stepped);
                }
            }
        }
    }

    /// Children invert parents exactly.
    #[test]
    fn children_invert_parents(h in ragged_hierarchy()) {
        let depth = h.depth();
        for level in 0..depth {
            let mut total_children = 0u32;
            for member in 0..h.cardinality(level) {
                for child in h.children(0, level, member).unwrap() {
                    prop_assert_eq!(h.parent(level + 1, child), member);
                    total_children += 1;
                }
            }
            prop_assert_eq!(total_children, h.cardinality(level + 1),
                "every child has exactly one parent");
        }
    }

    /// Balanced and explicit representations agree on everything.
    #[test]
    fn balanced_matches_explicit(depth in 1u8..4, fanout in 2u32..5) {
        let balanced = Hierarchy::balanced(depth, fanout).unwrap();
        // Materialize the same hierarchy explicitly.
        let mut parents = Vec::new();
        let mut card = 1u32;
        for _ in 0..depth {
            card *= fanout;
            parents.push((0..card).map(|m| m / fanout).collect());
        }
        let explicit = Hierarchy::from_parents(parents).unwrap();
        prop_assert_eq!(balanced.depth(), explicit.depth());
        for level in 0..=depth {
            prop_assert_eq!(balanced.cardinality(level), explicit.cardinality(level));
        }
        for level in 1..=depth {
            for m in 0..balanced.cardinality(level) {
                prop_assert_eq!(balanced.parent(level, m), explicit.parent(level, m));
            }
        }
        for level in 0..depth {
            for m in 0..balanced.cardinality(level) {
                prop_assert!(balanced.child_ids(level, m).eq(explicit.child_ids(level, m)));
            }
        }
        prop_assert_eq!(balanced.total_members(), explicit.total_members());
    }

    /// The lattice count formula matches enumeration for arbitrary layer
    /// pairs, and bottom-up order is a valid topological order.
    #[test]
    fn lattice_counts_and_order(
        dims in 1usize..4,
        depth in 1u8..4,
        o_levels in prop::collection::vec(0u8..4, 1..4),
    ) {
        let schema = CubeSchema::synthetic(dims, depth, 2).unwrap();
        let m: Vec<u8> = vec![depth; dims];
        let o: Vec<u8> = (0..dims).map(|d| o_levels[d % o_levels.len()].min(depth)).collect();
        let lattice = Lattice::new(
            &schema,
            CuboidSpec::new(o.clone()),
            CuboidSpec::new(m.clone()),
        ).unwrap();

        let expected: u64 = o.iter().zip(m.iter())
            .map(|(&ol, &ml)| u64::from(ml - ol) + 1)
            .product();
        let all = lattice.enumerate();
        prop_assert_eq!(all.len() as u64, expected);
        prop_assert_eq!(lattice.count(), expected);

        let order = lattice.bottom_up_order();
        prop_assert_eq!(order.len(), all.len());
        for (i, c) in order.iter().enumerate() {
            for later in &order[i + 1..] {
                prop_assert!(!(c.is_ancestor_or_equal(later) && later != c),
                    "descendant {} after ancestor {}", later, c);
            }
        }
    }

    /// H-tree structural invariants: distinct inserted paths = leaves;
    /// every header chain's nodes carry the right value; path values
    /// round-trip.
    #[test]
    fn htree_structure(paths in prop::collection::vec(
        prop::collection::vec(0u32..6, 3), 1..60,
    )) {
        let order = vec![
            AttrSpec { dim: 0, level: 1 },
            AttrSpec { dim: 1, level: 1 },
            AttrSpec { dim: 2, level: 1 },
        ];
        let mut tree: HTree<u32> = HTree::new(order).unwrap();
        let mut distinct = std::collections::BTreeSet::new();
        for p in &paths {
            let leaf = tree.insert_path(p).unwrap();
            *tree.payload_mut(leaf).get_or_insert(0) += 1;
            distinct.insert(p.clone());
            prop_assert_eq!(tree.path_values(leaf), p.clone());
        }
        prop_assert_eq!(tree.num_leaves(), distinct.len());

        // Header chains thread exactly the nodes at each depth: the chain
        // union size equals the number of distinct path prefixes.
        for attr in 0..3 {
            let mut chained = 0usize;
            let values: Vec<u32> = tree.header(attr).map(|(v, _)| v).collect();
            for v in values {
                for node in tree.header_chain(attr, v) {
                    prop_assert_eq!(tree.node_value(node), v);
                    prop_assert_eq!(tree.node_attr(node), Some(attr));
                    chained += 1;
                }
            }
            let prefixes: std::collections::BTreeSet<&[u32]> =
                distinct.iter().map(|p| &p[..=attr]).collect();
            prop_assert_eq!(chained, prefixes.len(),
                "attr {} chains {} nodes for {} prefixes", attr, chained, prefixes.len());
        }

        // Bottom-up aggregation conserves the total insert count.
        tree.aggregate_bottom_up(|m| *m, |acc, next| *acc += *next);
        prop_assert_eq!(tree.payload(0), Some(&(paths.len() as u32)));
    }

    /// `expand_tuple` + projection: the expanded path values at an
    /// attribute equal the hierarchy ancestor of the tuple's id.
    #[test]
    fn expansion_matches_ancestors(
        ids in prop::collection::vec(0u32..27, 3),
    ) {
        let schema = CubeSchema::synthetic(3, 3, 3).unwrap();
        let lattice = Lattice::new(
            &schema,
            CuboidSpec::new(vec![1, 1, 1]),
            CuboidSpec::new(vec![3, 3, 3]),
        ).unwrap();
        let attrs = attrs_by_cardinality(&schema, &lattice);
        let values = expand_tuple(&schema, lattice.m_layer(), &ids, &attrs);
        for (a, &v) in attrs.iter().zip(values.iter()) {
            let h = schema.dims()[a.dim].hierarchy();
            prop_assert_eq!(v, h.ancestor_unchecked(3, ids[a.dim], a.level));
        }
    }
}
