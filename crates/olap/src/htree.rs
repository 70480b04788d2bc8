//! The H-tree: a hyper-linked tree with header tables (paper Section 4.4,
//! after Han, Pei, Dong, Wang — "Efficient computation of iceberg cubes
//! with complex measures", SIGMOD'01, the paper's reference 18).
//!
//! Each m-layer tuple, *expanded to include the ancestor values of each
//! dimension value*, is inserted as a root-to-leaf path whose node order is
//! a fixed attribute order (one attribute = one `(dimension, level)` pair).
//! Shared prefixes share nodes, which keeps the structure compact when the
//! order puts low-cardinality attributes near the root. Every distinct
//! `(attribute, value)` maintains a **header list** threading through all
//! tree nodes that carry it — the "node-links" the paper's Algorithm 1
//! traverses.
//!
//! The tree is generic over the payload `M`; payloads live in leaves
//! after insertion and can be rolled up into non-leaf nodes
//! ([`HTree::aggregate_bottom_up`]), which is how the paper's Algorithm 2
//! stores the popular path's aggregates "in the nonleaf nodes in the
//! H-tree". No engine builds one: neither algorithm reads node-links or
//! header tables, so both fold a unit by a roll-up plan in `regcube-core`
//! instead, Algorithm 2's path tables included. The tree stays as the
//! paper's structure (Example 5, Figure 7) and as the order oracle of
//! the m-layer fold.

use crate::cuboid::CuboidSpec;
use crate::error::OlapError;
use crate::fxhash::FxHashMap;
use crate::lattice::Lattice;
use crate::schema::CubeSchema;
use crate::Result;

/// One H-tree attribute: a `(dimension, level)` pair such as `B2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttrSpec {
    /// Dimension index in the schema.
    pub dim: usize,
    /// Hierarchy level (`1..=depth`; the `*` level never appears in a
    /// tree path).
    pub level: u8,
}

/// Node identifier inside an [`HTree`] arena.
pub type NodeId = u32;

/// Sentinel for "no node" in side links.
const NONE: NodeId = u32::MAX;
/// Sentinel attribute index of the root node.
const ROOT_ATTR: u16 = u16::MAX;

#[derive(Debug, Clone)]
struct Node<M> {
    /// Index into the attribute order; `ROOT_ATTR` for the root.
    attr: u16,
    /// Member id at this node's attribute.
    value: u32,
    parent: NodeId,
    children: FxHashMap<u32, NodeId>,
    /// Next node with the same `(attr, value)` (header list threading).
    side: NodeId,
    payload: Option<M>,
}

/// The H-tree structure.
#[derive(Debug, Clone)]
pub struct HTree<M> {
    order: Vec<AttrSpec>,
    nodes: Vec<Node<M>>,
    /// `headers[attr]`: value -> head of the side-linked node list.
    headers: Vec<FxHashMap<u32, NodeId>>,
    leaf_count: usize,
}

impl<M> HTree<M> {
    /// Creates an empty tree over the given root-to-leaf attribute order.
    ///
    /// # Errors
    /// [`OlapError::BadCuboid`] for an empty order.
    pub fn new(order: Vec<AttrSpec>) -> Result<Self> {
        if order.is_empty() {
            return Err(OlapError::BadCuboid {
                detail: "H-tree needs at least one attribute".into(),
            });
        }
        let headers = vec![FxHashMap::default(); order.len()];
        let root = Node {
            attr: ROOT_ATTR,
            value: 0,
            parent: 0,
            children: FxHashMap::default(),
            side: NONE,
            payload: None,
        };
        Ok(HTree {
            order,
            nodes: vec![root],
            headers,
            leaf_count: 0,
        })
    }

    /// The attribute order (root to leaf).
    #[inline]
    pub fn order(&self) -> &[AttrSpec] {
        &self.order
    }

    /// Tree depth = number of attributes.
    #[inline]
    pub fn depth(&self) -> usize {
        self.order.len()
    }

    /// Total node count, including the root.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct leaves (inserted full paths).
    #[inline]
    pub fn num_leaves(&self) -> usize {
        self.leaf_count
    }

    /// Inserts (or finds) the path with the given per-attribute values and
    /// returns its leaf node.
    ///
    /// # Errors
    /// [`OlapError::ArityMismatch`] when `values.len()` differs from the
    /// attribute order length.
    pub fn insert_path(&mut self, values: &[u32]) -> Result<NodeId> {
        if values.len() != self.order.len() {
            return Err(OlapError::ArityMismatch {
                got: values.len(),
                expected: self.order.len(),
            });
        }
        let mut current: NodeId = 0;
        for (depth, &value) in values.iter().enumerate() {
            if let Some(&child) = self.nodes[current as usize].children.get(&value) {
                current = child;
                continue;
            }
            let id = self.nodes.len() as NodeId;
            let head = self.headers[depth].get(&value).copied().unwrap_or(NONE);
            self.nodes.push(Node {
                attr: depth as u16,
                value,
                parent: current,
                children: FxHashMap::default(),
                side: head,
                payload: None,
            });
            self.headers[depth].insert(value, id);
            self.nodes[current as usize].children.insert(value, id);
            if depth == self.order.len() - 1 {
                self.leaf_count += 1;
            }
            current = id;
        }
        Ok(current)
    }

    /// The payload slot of a node.
    #[inline]
    pub fn payload(&self, node: NodeId) -> Option<&M> {
        self.nodes[node as usize].payload.as_ref()
    }

    /// Mutable access to a node's payload slot.
    #[inline]
    pub fn payload_mut(&mut self, node: NodeId) -> &mut Option<M> {
        &mut self.nodes[node as usize].payload
    }

    /// The attribute index of a node (`None` for the root).
    #[inline]
    pub fn node_attr(&self, node: NodeId) -> Option<usize> {
        let a = self.nodes[node as usize].attr;
        (a != ROOT_ATTR).then_some(a as usize)
    }

    /// The member value stored at a node.
    #[inline]
    pub fn node_value(&self, node: NodeId) -> u32 {
        self.nodes[node as usize].value
    }

    /// A node's parent (the root is its own parent).
    #[inline]
    pub fn parent(&self, node: NodeId) -> NodeId {
        self.nodes[node as usize].parent
    }

    /// Iterates a node's children as `(value, node)` pairs in unspecified
    /// order.
    pub fn children(&self, node: NodeId) -> impl Iterator<Item = (u32, NodeId)> + '_ {
        self.nodes[node as usize]
            .children
            .iter()
            .map(|(&v, &n)| (v, n))
    }

    /// `true` when a node has no children (a full inserted path).
    #[inline]
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.nodes[node as usize].children.is_empty() && node != 0
    }

    /// The values along the path from the root to `node` (attribute order).
    pub fn path_values(&self, node: NodeId) -> Vec<u32> {
        let mut rev = Vec::new();
        let mut cur = node;
        while cur != 0 {
            rev.push(self.nodes[cur as usize].value);
            cur = self.nodes[cur as usize].parent;
        }
        rev.reverse();
        rev
    }

    /// Distinct values present at attribute `attr` with their header-list
    /// heads.
    pub fn header(&self, attr: usize) -> impl Iterator<Item = (u32, NodeId)> + '_ {
        self.headers[attr].iter().map(|(&v, &n)| (v, n))
    }

    /// Walks the side-linked list of nodes sharing `(attr, value)` starting
    /// from the header head.
    pub fn header_chain(&self, attr: usize, value: u32) -> HeaderChain<'_, M> {
        HeaderChain {
            tree: self,
            next: self.headers[attr].get(&value).copied().unwrap_or(NONE),
        }
    }

    /// Rolls leaf payloads up the tree: after this call every non-leaf node
    /// (including the root) holds the merge of all its descendant leaves'
    /// payloads. This is Algorithm 2's Step 2 storage scheme ("aggregated
    /// regression points stored in the nonleaf nodes").
    ///
    /// `merge(acc, next)` folds a descendant's payload into an accumulator;
    /// `clone_of` seeds an accumulator from the first payload.
    pub fn aggregate_bottom_up(
        &mut self,
        clone_of: impl Fn(&M) -> M,
        mut merge: impl FnMut(&mut M, &M),
    ) {
        // Arena ids are topologically ordered (parents precede children),
        // so one reverse sweep folds children into parents.
        for id in (1..self.nodes.len()).rev() {
            let parent = self.nodes[id].parent as usize;
            let Some(payload) = self.nodes[id].payload.take() else {
                continue;
            };
            match &mut self.nodes[parent].payload {
                Some(acc) => merge(acc, &payload),
                slot @ None => *slot = Some(clone_of(&payload)),
            }
            self.nodes[id].payload = Some(payload);
        }
    }

    /// Rough retained-bytes estimate (arena + child maps + headers), used
    /// by the benchmark harness's analytical memory accounting.
    pub fn approx_bytes(&self) -> usize {
        let node = std::mem::size_of::<Node<M>>();
        let entry = std::mem::size_of::<(u32, NodeId)>() * 2;
        let child_entries: usize = self.nodes.iter().map(|n| n.children.len()).sum();
        let header_entries: usize = self.headers.iter().map(FxHashMap::len).sum();
        self.nodes.len() * node + (child_entries + header_entries) * entry
    }
}

/// Iterator over a header's side-linked node chain.
pub struct HeaderChain<'a, M> {
    tree: &'a HTree<M>,
    next: NodeId,
}

impl<M> Iterator for HeaderChain<'_, M> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.next == NONE {
            return None;
        }
        let cur = self.next;
        self.next = self.tree.nodes[cur as usize].side;
        Some(cur)
    }
}

/// The attribute set the paper gives Algorithm 1's H-tree: every
/// `(dim, level)` with `1 <= level <= m_d`, sorted by ascending level
/// cardinality — "this ordering makes the tree compact since there are
/// likely more sharings at higher level nodes" (Example 5). The engine's
/// Algorithm 1 folds its m-layer straight into a table and builds no
/// tree; this order is kept as the paper's Example 5 / Figure 7.
pub fn attrs_by_cardinality(schema: &CubeSchema, lattice: &Lattice) -> Vec<AttrSpec> {
    let mut attrs = Vec::new();
    for d in 0..schema.num_dims() {
        for level in 1..=lattice.m_layer().level(d) {
            attrs.push(AttrSpec { dim: d, level });
        }
    }
    attrs.sort_by_key(|a| {
        (
            schema.dims()[a.dim].hierarchy().cardinality(a.level),
            a.dim,
            a.level,
        )
    });
    attrs
}

/// Expands an m-layer tuple (member ids at m-layer levels) into the
/// per-attribute values of an H-tree path: each attribute receives the
/// tuple's ancestor value at that attribute's `(dim, level)`.
pub fn expand_tuple(
    schema: &CubeSchema,
    m_layer: &CuboidSpec,
    ids: &[u32],
    order: &[AttrSpec],
) -> Vec<u32> {
    order
        .iter()
        .map(|a| {
            schema.dims()[a.dim].hierarchy().ancestor_unchecked(
                m_layer.level(a.dim),
                ids[a.dim],
                a.level,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example5() -> (CubeSchema, Lattice) {
        let schema = CubeSchema::synthetic(3, 3, 3).unwrap();
        let lattice = Lattice::new(
            &schema,
            CuboidSpec::new(vec![1, 0, 1]),
            CuboidSpec::new(vec![2, 2, 2]),
        )
        .unwrap();
        (schema, lattice)
    }

    #[test]
    fn insert_shares_prefixes() {
        let mut t: HTree<u32> = HTree::new(vec![
            AttrSpec { dim: 0, level: 1 },
            AttrSpec { dim: 1, level: 1 },
        ])
        .unwrap();
        let l1 = t.insert_path(&[1, 5]).unwrap();
        let l2 = t.insert_path(&[1, 6]).unwrap();
        let l3 = t.insert_path(&[1, 5]).unwrap();
        assert_eq!(l1, l3, "identical paths share the leaf");
        assert_ne!(l1, l2);
        // Root + shared node(1) + two leaves.
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.num_leaves(), 2);
        assert_eq!(t.depth(), 2);
        assert!(t.is_leaf(l1));
        assert!(!t.is_leaf(t.parent(l1)));
        assert_eq!(t.path_values(l2), vec![1, 6]);
    }

    #[test]
    fn arity_is_validated() {
        let mut t: HTree<u32> = HTree::new(vec![AttrSpec { dim: 0, level: 1 }]).unwrap();
        assert!(t.insert_path(&[1, 2]).is_err());
        assert!(HTree::<u32>::new(vec![]).is_err());
    }

    #[test]
    fn header_chains_thread_all_occurrences() {
        let mut t: HTree<u32> = HTree::new(vec![
            AttrSpec { dim: 0, level: 1 },
            AttrSpec { dim: 1, level: 1 },
        ])
        .unwrap();
        t.insert_path(&[0, 7]).unwrap();
        t.insert_path(&[1, 7]).unwrap();
        t.insert_path(&[2, 7]).unwrap();
        t.insert_path(&[2, 8]).unwrap();

        let chain: Vec<NodeId> = t.header_chain(1, 7).collect();
        assert_eq!(chain.len(), 3, "three leaves carry value 7 at attr 1");
        for n in chain {
            assert_eq!(t.node_value(n), 7);
            assert_eq!(t.node_attr(n), Some(1));
        }
        assert_eq!(t.header_chain(1, 99).count(), 0);
        let header_vals: Vec<u32> = t.header(1).map(|(v, _)| v).collect();
        assert_eq!(header_vals.len(), 2);
    }

    #[test]
    fn payloads_and_bottom_up_aggregation() {
        let mut t: HTree<u32> = HTree::new(vec![
            AttrSpec { dim: 0, level: 1 },
            AttrSpec { dim: 1, level: 1 },
        ])
        .unwrap();
        for (a, b, v) in [(0, 0, 1u32), (0, 1, 2), (1, 0, 4)] {
            let leaf = t.insert_path(&[a, b]).unwrap();
            *t.payload_mut(leaf) = Some(v);
        }
        t.aggregate_bottom_up(|m| *m, |acc, next| *acc += *next);
        // Root aggregates everything.
        assert_eq!(t.payload(0), Some(&7));
        // The (0, *) internal node aggregates 1 + 2.
        let chain: Vec<NodeId> = t.header_chain(0, 0).collect();
        assert_eq!(chain.len(), 1);
        assert_eq!(t.payload(chain[0]), Some(&3));
        assert!(t.approx_bytes() > 0);
    }

    #[test]
    fn cardinality_order_matches_example5() {
        let (schema, lattice) = example5();
        let attrs = attrs_by_cardinality(&schema, &lattice);
        // Fanout 3 for all dims: level-1 cards all 3, level-2 all 9; ties
        // break by dimension then level, so: A1 B1 C1 A2 B2 C2.
        let expect = vec![
            AttrSpec { dim: 0, level: 1 },
            AttrSpec { dim: 1, level: 1 },
            AttrSpec { dim: 2, level: 1 },
            AttrSpec { dim: 0, level: 2 },
            AttrSpec { dim: 1, level: 2 },
            AttrSpec { dim: 2, level: 2 },
        ];
        assert_eq!(attrs, expect);
    }

    #[test]
    fn expand_tuple_fills_ancestors() {
        let (schema, lattice) = example5();
        let attrs = attrs_by_cardinality(&schema, &lattice);
        // m-layer ids (L2, fanout 3): member 7 -> L1 ancestor 2, etc.
        let values = expand_tuple(&schema, lattice.m_layer(), &[7, 4, 8], &attrs);
        assert_eq!(values, vec![2, 1, 2, 7, 4, 8]);
    }
}
