//! `drill_children`'s hierarchy probe against the scan it replaced.
//!
//! [`scan_drill_children`] is the one-step drill as it used to run: per
//! lattice child, build a [`Projector`], walk **every row** of the
//! child's table and keep the rows that project onto the drilled cell.
//! It is kept verbatim (with `sort_hits`) as the obviously-right
//! reference. On random balanced and ragged schemas, random critical
//! layers (an o-layer one step above the m-layer among them), cubes
//! from both algorithms and every key of every cuboid — plus keys out of
//! range and of the wrong arity — the probe must return the same hits in
//! the same order.

use proptest::prelude::*;
use regcube_core::drill::{drill_children, DrillHit};
use regcube_core::prelude::*;
use regcube_core::table::{CuboidTable, Projector};
use regcube_olap::cell::CellKey;
use regcube_olap::{CubeSchema, CuboidSpec, Dimension, Hierarchy};
use regcube_regress::Isb;

/// The scan-based one-step drill.
fn scan_drill_children(
    schema: &CubeSchema,
    cube: &CubeResult,
    cuboid: &CuboidSpec,
    key: &CellKey,
) -> Vec<DrillHit> {
    let lattice = cube.layers().lattice();
    let mut hits = Vec::new();
    for child in lattice.children(cuboid) {
        collect_hits(schema, cube, cuboid, key, &child, &mut hits);
    }
    sort_hits(&mut hits);
    hits
}

fn collect_hits(
    schema: &CubeSchema,
    cube: &CubeResult,
    ancestor: &CuboidSpec,
    key: &CellKey,
    target: &CuboidSpec,
    hits: &mut Vec<DrillHit>,
) {
    let policy = cube.policy();
    let lattice = cube.layers().lattice();
    let projector = Projector::new(schema, target, ancestor);
    let mut projected = vec![0u32; schema.num_dims()];
    // Candidate stores for the target cuboid: exception tables, path
    // tables, and the critical layers.
    let mut scan = |table: &CuboidTable, filter_exceptions: bool| {
        for (k, m) in table {
            if filter_exceptions && !policy.is_exception(target, m) {
                continue;
            }
            projector.project_into(k.ids(), &mut projected);
            if projected.as_slice() == key.ids() {
                hits.push(DrillHit {
                    cuboid: target.clone(),
                    key: k.clone(),
                    measure: *m,
                });
            }
        }
    };
    if target == lattice.m_layer() {
        scan(cube.m_table(), true);
    } else if target == lattice.o_layer() {
        scan(cube.o_table(), true);
    } else if let Some(t) = cube.exceptions_in(target) {
        scan(t, false); // exception tables are pre-filtered
    } else if let Some(t) = cube.path_tables().get(target) {
        scan(t, true);
    }
}

fn sort_hits(hits: &mut [DrillHit]) {
    hits.sort_by(|a, b| {
        regcube_core::measure::exception_score(&b.measure)
            .partial_cmp(&regcube_core::measure::exception_score(&a.measure))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.cuboid.cmp(&b.cuboid))
            .then_with(|| a.key.cmp(&b.key))
    });
}

const MAX_DIMS: usize = 3;
const MAX_DEPTH: usize = 3;

/// Raw draws; [`build`] turns them into a schema, layers and tuples.
#[derive(Debug, Clone)]
struct RandomDrill {
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
    /// `Some(d)`: the o-layer is the m-layer coarsened once on `d`.
    one_step: Option<usize>,
    tuples: Vec<(Vec<u32>, f64, f64)>,
    threshold: f64,
}

fn random_drill() -> impl Strategy<Value = RandomDrill> {
    let level = prop::collection::vec(0u32..u32::MAX, 1..6);
    let dim = prop::collection::vec(level, MAX_DEPTH);
    let tuple = (
        prop::collection::vec(0u32..u32::MAX, MAX_DIMS),
        -5.0..5.0f64,
        -1.5..1.5f64,
    );
    (
        (2usize..=MAX_DIMS, 1u8..=MAX_DEPTH as u8, 2u32..=3, 0u8..2),
        prop::collection::vec(dim, MAX_DIMS),
        (
            prop::collection::vec(0u8..=255, MAX_DIMS),
            prop::collection::vec(0u8..=255, MAX_DIMS),
            0usize..2 * MAX_DIMS,
        ),
        prop::collection::vec(tuple, 1..40),
        0.0..2.0f64,
    )
        .prop_map(
            |(
                (dims, depth, fanout, ragged),
                parent_draws,
                (m_draws, o_draws, step),
                tuples,
                threshold,
            )| {
                RandomDrill {
                    dims,
                    depth,
                    fanout,
                    ragged: ragged == 1,
                    parent_draws,
                    m_draws,
                    o_draws,
                    one_step: (step < MAX_DIMS).then_some(step),
                    tuples,
                    threshold,
                }
            },
        )
}

fn build(rd: &RandomDrill) -> (CubeSchema, CriticalLayers, Vec<MTuple>, ExceptionPolicy) {
    let dims: Vec<Dimension> = (0..rd.dims)
        .map(|d| {
            let hierarchy = if rd.ragged {
                let mut parents = Vec::new();
                let mut prev = 1u32;
                for draws in &rd.parent_draws[d][..usize::from(rd.depth)] {
                    parents.push(draws.iter().map(|&x| x % prev).collect::<Vec<u32>>());
                    prev = draws.len() as u32;
                }
                Hierarchy::from_parents(parents).unwrap()
            } else {
                Hierarchy::balanced(rd.depth, rd.fanout).unwrap()
            };
            Dimension::new(format!("d{d}"), hierarchy)
        })
        .collect();
    let schema = CubeSchema::new(dims).unwrap();
    let m: Vec<u8> = (0..rd.dims).map(|d| 1 + rd.m_draws[d] % rd.depth).collect();
    let o: Vec<u8> = match rd.one_step {
        Some(step) => {
            let mut o = m.clone();
            o[step % rd.dims] -= 1;
            o
        }
        None => (0..rd.dims).map(|d| rd.o_draws[d] % (m[d] + 1)).collect(),
    };
    let layers =
        CriticalLayers::new(&schema, CuboidSpec::new(o), CuboidSpec::new(m.clone())).unwrap();
    let h = |d: usize| schema.dims()[d].hierarchy();
    let tuples = rd
        .tuples
        .iter()
        .map(|(draws, base, slope)| {
            let ids: Vec<u32> = (0..rd.dims)
                .map(|d| draws[d] % h(d).cardinality(m[d]))
                .collect();
            MTuple::new(ids, Isb::new(0, 9, *base, *slope).unwrap())
        })
        .collect();
    let policy = ExceptionPolicy::slope_threshold(rd.threshold);
    (schema, layers, tuples, policy)
}

/// Every key of `cuboid`, then per dimension one id just out of range
/// and one at `u32::MAX`, then keys one dimension short and one long.
fn probe_keys(schema: &CubeSchema, cuboid: &CuboidSpec) -> Vec<CellKey> {
    let cards: Vec<u32> = (0..cuboid.num_dims())
        .map(|d| schema.dims()[d].hierarchy().cardinality(cuboid.level(d)))
        .collect();
    let mut keys = Vec::new();
    let mut ids = vec![0u32; cards.len()];
    'all: loop {
        keys.push(CellKey::new(ids.clone()));
        for d in 0..ids.len() {
            ids[d] += 1;
            if ids[d] < cards[d] {
                continue 'all;
            }
            ids[d] = 0;
        }
        break;
    }
    for d in 0..cards.len() {
        for bad in [cards[d], u32::MAX] {
            let mut ids = vec![0u32; cards.len()];
            ids[d] = bad;
            keys.push(CellKey::new(ids));
        }
    }
    keys.push(CellKey::new(vec![0u32; cards.len() - 1]));
    keys.push(CellKey::new(vec![0u32; cards.len() + 1]));
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The probe returns exactly the scan's hits, in the scan's order,
    /// for every key of every lattice cuboid (and of the cuboids one
    /// step above the o-layer) on cubes of both algorithms.
    #[test]
    fn drill_children_probe_equals_the_scan(rd in random_drill()) {
        let (schema, layers, tuples, policy) = build(&rd);
        let cubes = [
            mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap(),
            popular_path::compute(&schema, &layers, &policy, None, &tuples).unwrap(),
        ];
        let lattice = layers.lattice();
        let mut cuboids = lattice.enumerate();
        cuboids.extend((0..rd.dims).filter_map(|d| lattice.o_layer().coarsen(d)));
        for cube in &cubes {
            for cuboid in &cuboids {
                for key in probe_keys(&schema, cuboid) {
                    let probed = drill_children(&schema, cube, cuboid, &key);
                    let scanned = scan_drill_children(&schema, cube, cuboid, &key);
                    prop_assert_eq!(probed, scanned, "{:?} {}{}", cube.algorithm(), cuboid, key);
                }
            }
        }
    }
}

/// A key of the wrong arity has no children: no hits, no panic, on
/// either side of the cuboid's arity.
#[test]
fn wrong_arity_keys_find_nothing() {
    let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
    let layers = CriticalLayers::new(
        &schema,
        CuboidSpec::new(vec![0, 0]),
        CuboidSpec::new(vec![2, 2]),
    )
    .unwrap();
    // Every m-cell trends, so every cell of every cuboid is exceptional.
    let mut tuples = Vec::new();
    for a in 0..4u32 {
        for b in 0..4u32 {
            tuples.push(MTuple::new(vec![a, b], Isb::new(0, 9, 0.0, 2.0).unwrap()));
        }
    }
    let policy = ExceptionPolicy::slope_threshold(1.0);
    let cube = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();
    let apex = CuboidSpec::new(vec![0, 0]);
    assert_eq!(
        drill_children(&schema, &cube, &apex, &CellKey::new(vec![0, 0])).len(),
        4
    );
    for ids in [vec![], vec![0], vec![0, 0, 0], vec![u32::MAX; 3]] {
        let key = CellKey::new(ids);
        assert!(
            drill_children(&schema, &cube, &apex, &key).is_empty(),
            "{key}"
        );
        assert!(
            scan_drill_children(&schema, &cube, &apex, &key).is_empty(),
            "{key}"
        );
    }
}
