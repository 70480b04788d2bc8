//! The row layout's m-layer fold against the H-tree build it replaced.
//!
//! [`htree_from_tuples`] is Algorithm 1's m-layer build as it used to
//! run: insert every tuple's expanded path into an H-tree
//! in cardinality attribute order, merge duplicates in the leaves, then
//! re-key the leaves into the m-table in arena order. It is kept verbatim
//! as the reference; only the two tree helpers it called and nothing
//! else does (`HTree::for_each_leaf`, `htree::path_values_to_key`) are
//! inlined below it.
//!
//! On random balanced and ragged schemas, random m-layers and tuples
//! that repeat m-cells in shuffled arrival order, `MoCubingEngine`'s
//! direct fold must build the same m-table — the same keys in the same
//! iteration order with the same ISB bits — and the engine must compute
//! the same cube, bit for bit and with the same folded-row count, as
//! Algorithm 1's roll-up does on top of the H-tree's m-table.

use proptest::prelude::*;
use regcube_core::measure::merge_sibling;
use regcube_core::prelude::*;
use regcube_core::stats::MemoryAccountant;
use regcube_core::table::{aggregate_from, collect_exceptions, table_bytes, CuboidTable};
use regcube_core::{CoreError, Result};
use regcube_olap::cell::CellKey;
use regcube_olap::fxhash::FxHashMap;
use regcube_olap::htree::{attrs_by_cardinality, expand_tuple, AttrSpec, HTree, NodeId};
use regcube_olap::{CubeSchema, CuboidSpec, Dimension, Hierarchy};
use regcube_regress::Isb;

/// The H-tree m-layer build, as Algorithm 1 used to run it.
fn htree_from_tuples(
    schema: &CubeSchema,
    layers: &CriticalLayers,
    tuples: &[MTuple],
    mem: &mut MemoryAccountant,
) -> Result<(CuboidTable, u64)> {
    let lattice = layers.lattice();
    let attrs = attrs_by_cardinality(schema, lattice);
    let mut tree: HTree<Isb> = HTree::new(attrs)?;
    for t in tuples {
        let values = expand_tuple(schema, lattice.m_layer(), t.ids(), tree.order());
        let leaf = tree.insert_path(&values)?;
        match tree.payload_mut(leaf) {
            Some(acc) => merge_sibling(acc, t.isb())?,
            slot @ None => *slot = Some(*t.isb()),
        }
    }
    let tree_bytes = tree.approx_bytes();

    let mut m_table = CuboidTable::default();
    let order: Vec<_> = tree.order().to_vec();
    let m_layer = lattice.m_layer().clone();
    let mut leaves: Vec<NodeId> = Vec::with_capacity(tree.num_leaves());
    for_each_leaf(&tree, |leaf| leaves.push(leaf));
    for leaf in leaves {
        let values = tree.path_values(leaf);
        let key =
            path_values_to_key(&order, &values, &m_layer).ok_or_else(|| CoreError::BadInput {
                detail: "H-tree order misses an m-layer attribute".into(),
            })?;
        let isb = *tree.payload(leaf).expect("leaf payload set at insert");
        m_table.insert(CellKey::new(key), isb);
    }
    mem.add(tree_bytes);
    mem.add(table_bytes(&m_table, schema.num_dims()));
    mem.remove(tree_bytes);
    Ok((m_table, tuples.len() as u64))
}

/// `HTree::for_each_leaf`: every childless non-root node, in arena
/// order.
fn for_each_leaf(tree: &HTree<Isb>, mut f: impl FnMut(NodeId)) {
    for i in 0..tree.num_nodes() as NodeId {
        if tree.is_leaf(i) {
            f(i);
        }
    }
}

/// `htree::path_values_to_key`, verbatim.
fn path_values_to_key(order: &[AttrSpec], values: &[u32], cuboid: &CuboidSpec) -> Option<Vec<u32>> {
    let mut key = vec![0u32; cuboid.num_dims()];
    for (d, slot) in key.iter_mut().enumerate() {
        let level = cuboid.level(d);
        if level == 0 {
            continue;
        }
        let idx = order.iter().position(|a| a.dim == d && a.level == level)?;
        *slot = values[idx];
    }
    Some(key)
}

/// Algorithm 1's step 2 on top of a given m-table, planned the way
/// `MoCubingEngine` plans it: depth tiers bottom-up, each cuboid
/// aggregated from its closest computed descendant in the tier below
/// (or the m-layer), the o-layer kept whole and every other cuboid
/// screened. Returns the o-table, the non-empty exception stores in
/// lattice order and the number of source rows folded.
fn roll_up(
    schema: &CubeSchema,
    layers: &CriticalLayers,
    policy: &ExceptionPolicy,
    m_table: &CuboidTable,
) -> (CuboidTable, Vec<(CuboidSpec, CuboidTable)>, u64) {
    let lattice = layers.lattice();
    let (m_spec, o_spec) = (lattice.m_layer(), lattice.o_layer());
    // A lattice of one cuboid: the o-layer is the m-layer itself.
    let mut o_table = match o_spec == m_spec {
        true => m_table.clone(),
        false => CuboidTable::default(),
    };
    let mut exceptions = Vec::new();
    let mut below: FxHashMap<CuboidSpec, CuboidTable> = FxHashMap::default();
    let mut tier: FxHashMap<CuboidSpec, CuboidTable> = FxHashMap::default();
    let mut depth = m_spec.total_depth();
    let mut folded = 0;
    for cuboid in lattice.bottom_up_order() {
        if &cuboid == m_spec {
            continue;
        }
        if cuboid.total_depth() != depth {
            depth = cuboid.total_depth();
            below = std::mem::take(&mut tier);
        }
        let (source, table) = lattice
            .closest_computed_descendant(&cuboid, below.keys())
            .map(|c| (c, &below[c]))
            .unwrap_or((m_spec, m_table));
        let (full, rows) = aggregate_from(schema, source, table, &cuboid, None).unwrap();
        folded += rows;
        if &cuboid == o_spec {
            o_table = full;
            continue;
        }
        let exc = collect_exceptions(policy, &cuboid, &full);
        if !exc.is_empty() {
            exceptions.push((cuboid.clone(), exc));
        }
        tier.insert(cuboid, full);
    }
    (o_table, exceptions, folded)
}

/// A table as its iteration sequence, measures as bits.
fn cells(table: &CuboidTable) -> Vec<(Vec<u32>, [u64; 4])> {
    table
        .iter()
        .map(|(k, m)| {
            let bits = [
                m.start() as u64,
                m.end() as u64,
                m.base().to_bits(),
                m.slope().to_bits(),
            ];
            (k.ids().to_vec(), bits)
        })
        .collect()
}

const MAX_DIMS: usize = 4;
const MAX_DEPTH: usize = 3;

/// Raw draws; [`build`] turns them into a schema, layers and tuples.
#[derive(Debug, Clone)]
struct RandomFold {
    dims: usize,
    depth: u8,
    fanout: u32,
    /// `true`: explicit hierarchies from `parent_draws`; `false`:
    /// balanced ones of `fanout`.
    ragged: bool,
    /// Per dimension, per level: one draw per member (its parent is the
    /// draw modulo the parent level's size).
    parent_draws: Vec<Vec<Vec<u32>>>,
    m_draws: Vec<u8>,
    o_draws: Vec<u8>,
    /// The distinct m-cells the tuples repeat.
    cells: Vec<Vec<u32>>,
    /// Arrival sequence: per tuple, a cell index and its measure.
    arrivals: Vec<(usize, f64, f64)>,
    threshold: f64,
}

fn random_fold() -> impl Strategy<Value = RandomFold> {
    let level = prop::collection::vec(0u32..u32::MAX, 1..6);
    let dim = prop::collection::vec(level, MAX_DEPTH);
    let cell = prop::collection::vec(0u32..u32::MAX, MAX_DIMS);
    let arrival = (0usize..usize::MAX, -5.0..5.0f64, -1.5..1.5f64);
    (
        (2usize..=MAX_DIMS, 1u8..=MAX_DEPTH as u8, 2u32..=3, 0u8..2),
        prop::collection::vec(dim, MAX_DIMS),
        (
            prop::collection::vec(0u8..=255, MAX_DIMS),
            prop::collection::vec(0u8..=255, MAX_DIMS),
        ),
        (
            prop::collection::vec(cell, 1..24),
            prop::collection::vec(arrival, 1..80),
        ),
        0.0..2.0f64,
    )
        .prop_map(
            |(
                (dims, depth, fanout, ragged),
                parent_draws,
                (m_draws, o_draws),
                (cells, arrivals),
                threshold,
            )| RandomFold {
                dims,
                depth,
                fanout,
                ragged: ragged == 1,
                parent_draws,
                m_draws,
                o_draws,
                cells,
                arrivals,
                threshold,
            },
        )
}

fn build(rf: &RandomFold) -> (CubeSchema, CriticalLayers, Vec<MTuple>, ExceptionPolicy) {
    let dims: Vec<Dimension> = (0..rf.dims)
        .map(|d| {
            let hierarchy = if rf.ragged {
                let mut parents = Vec::new();
                let mut prev = 1u32;
                for draws in &rf.parent_draws[d][..usize::from(rf.depth)] {
                    parents.push(draws.iter().map(|&x| x % prev).collect::<Vec<u32>>());
                    prev = draws.len() as u32;
                }
                Hierarchy::from_parents(parents).unwrap()
            } else {
                Hierarchy::balanced(rf.depth, rf.fanout).unwrap()
            };
            Dimension::new(format!("d{d}"), hierarchy)
        })
        .collect();
    let schema = CubeSchema::new(dims).unwrap();
    let m: Vec<u8> = (0..rf.dims).map(|d| 1 + rf.m_draws[d] % rf.depth).collect();
    let o: Vec<u8> = (0..rf.dims).map(|d| rf.o_draws[d] % (m[d] + 1)).collect();
    let layers =
        CriticalLayers::new(&schema, CuboidSpec::new(o), CuboidSpec::new(m.clone())).unwrap();
    let h = |d: usize| schema.dims()[d].hierarchy();
    let cells: Vec<Vec<u32>> = rf
        .cells
        .iter()
        .map(|draws| {
            (0..rf.dims)
                .map(|d| draws[d] % h(d).cardinality(m[d]))
                .collect()
        })
        .collect();
    let tuples = rf
        .arrivals
        .iter()
        .map(|&(cell, base, slope)| {
            let ids = cells[cell % cells.len()].clone();
            MTuple::new(ids, Isb::new(0, 9, base, slope).unwrap())
        })
        .collect();
    let policy = ExceptionPolicy::slope_threshold(rf.threshold);
    (schema, layers, tuples, policy)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The direct fold builds the H-tree's m-table, and the engine's
    /// cube is the one Algorithm 1 rolls up from it.
    #[test]
    fn the_direct_fold_is_the_htree_build(rf in random_fold()) {
        let (schema, layers, tuples, policy) = build(&rf);
        let (oracle, oracle_folded) =
            htree_from_tuples(&schema, &layers, &tuples, &mut MemoryAccountant::new()).unwrap();
        let cube = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();
        let (o_table, exceptions, rolled) = roll_up(&schema, &layers, &policy, &oracle);
        prop_assert_eq!(cells(cube.m_table()), cells(&oracle));
        prop_assert_eq!(cube.stats().rows_folded, oracle_folded + rolled);
        prop_assert_eq!(cells(cube.o_table()), cells(&o_table));
        let stores = exceptions.iter().map(|(_, t)| t.len() as u64).sum::<u64>();
        prop_assert_eq!(cube.total_exception_cells(), stores);
        for (cuboid, expected) in &exceptions {
            let got = cube.exceptions_in(cuboid).expect("exception store retained");
            prop_assert_eq!(cells(got), cells(expected), "{}", cuboid);
        }
    }
}
