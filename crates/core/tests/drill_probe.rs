//! `drill_children`'s two reads against the full scan they replaced.
//!
//! [`scan_drill_children`] is the one-step drill as it used to run: per
//! lattice child, build a [`Projector`], walk **every row** of the
//! child's table and keep the rows that project onto the drilled cell.
//! It is kept verbatim (with `sort_hits`) as the obviously-right
//! reference. `drill_children` reads each child either by probing its
//! table once per hierarchy child of the drilled id, or — when the table
//! holds no more rows than that — by scanning it with a parent test. On
//! random balanced and ragged schemas, random critical layers (an
//! o-layer one step above the m-layer among them), cubes from both
//! algorithms and every key of every cuboid — plus keys out of range and
//! of the wrong arity — it must return the scan's hits in the scan's
//! order, whichever read it chose. [`each_store_is_scanned_and_probed`]
//! pins which read that is, on fixed cubes whose m-, o-, exception and
//! path tables each come both smaller and larger than the probe set.

use proptest::prelude::*;
use regcube_core::drill::{drill_children, drill_children_reads, DrillHit};
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

    /// Both reads return exactly the scan's hits, in the scan's order,
    /// for every key of every lattice cuboid (and of the cuboids one
    /// step above the o-layer) on cubes of both algorithms. Up to 40
    /// tuples under fanouts of 2–3 leave child tables on both sides of
    /// the probe set, so both reads run.
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

/// Which store a lattice child's drill reads, as `drill_children`
/// chooses it: the critical layers first, then exception tables, then
/// path tables.
fn store_of<'c>(
    cube: &'c CubeResult,
    child: &CuboidSpec,
) -> Option<(&'static str, &'c CuboidTable)> {
    let lattice = cube.layers().lattice();
    if child == lattice.m_layer() {
        Some(("m", cube.m_table()))
    } else if child == lattice.o_layer() {
        Some(("o", cube.o_table()))
    } else if let Some(t) = cube.exceptions_in(child) {
        Some(("exception", t))
    } else {
        cube.path_tables().get(child).map(|t| ("path", t))
    }
}

/// Fixed cubes of both algorithms over one schema, drilled at every key
/// of every cuboid. In the sparse ones every table holds at most two
/// rows, no more than the fanout, so every child is scanned; one of the
/// two m-cells is calm, so the filtered m- and o-tables hold a row the
/// scan must drop. In the dense ones most tables hold more rows than
/// the fanout and are probed. A popular-path cuboid keeps an exception
/// table once it has an exception, so its path table is read only under
/// the second, unreachable threshold, where the filter drops every row.
/// Every call's reads are the ones the rule predicts, and every store
/// kind is read both ways.
#[test]
fn each_store_is_scanned_and_probed() {
    let schema = CubeSchema::synthetic(2, 3, 2).unwrap();
    let layers = CriticalLayers::new(
        &schema,
        CuboidSpec::new(vec![1, 1]),
        CuboidSpec::new(vec![3, 3]),
    )
    .unwrap();
    let isb = |slope: f64| Isb::new(0, 9, 1.0, slope).unwrap();
    let sparse = vec![
        MTuple::new(vec![0, 0], isb(2.0)),
        MTuple::new(vec![7, 7], isb(0.1)),
    ];
    let mut dense = Vec::new();
    for a in 0..8u32 {
        for b in 0..8u32 {
            let slope = if (a + b) % 3 == 0 { 0.2 } else { 2.0 };
            dense.push(MTuple::new(vec![a, b], isb(slope)));
        }
    }
    let lattice = layers.lattice();
    let mut cuboids = lattice.enumerate();
    cuboids.extend((0..2).filter_map(|d| lattice.o_layer().coarsen(d)));
    let mut seen = std::collections::BTreeSet::new();
    for (tuples, threshold) in [(&sparse, 1.0), (&dense, 1.0), (&sparse, 1e3), (&dense, 1e3)] {
        let policy = ExceptionPolicy::slope_threshold(threshold);
        let cubes = [
            mo_cubing::compute(&schema, &layers, &policy, tuples).unwrap(),
            popular_path::compute(&schema, &layers, &policy, None, tuples).unwrap(),
        ];
        for cube in &cubes {
            for cuboid in &cuboids {
                for key in probe_keys(&schema, cuboid) {
                    let (hits, reads) = drill_children_reads(&schema, cube, cuboid, &key);
                    assert_eq!(hits, scan_drill_children(&schema, cube, cuboid, &key));
                    let mut want = (0, 0);
                    let arity = if key.num_dims() == cuboid.num_dims() {
                        key.num_dims()
                    } else {
                        0
                    };
                    for d in 0..arity {
                        let hierarchy = schema.dims()[d].hierarchy();
                        let (level, member) = (cuboid.level(d), key.ids()[d]);
                        let Some(child) = cuboid.refine(d).filter(|c| lattice.contains(c)) else {
                            continue;
                        };
                        let Some((kind, table)) = store_of(cube, &child) else {
                            continue;
                        };
                        if member >= hierarchy.cardinality(level) {
                            continue;
                        }
                        let scanned = table.len() <= hierarchy.child_ids(level, member).len();
                        if scanned {
                            want.0 += 1;
                        } else {
                            want.1 += 1;
                        }
                        seen.insert((kind, scanned));
                    }
                    assert_eq!(reads, want, "{:?} {}{}", cube.algorithm(), cuboid, key);
                }
            }
        }
    }
    for kind in ["m", "o", "exception", "path"] {
        for scanned in [true, false] {
            assert!(
                seen.contains(&(kind, scanned)),
                "{kind} scanned={scanned}: {seen:?}"
            );
        }
    }
}

/// A cuboid wider than the drill's stack buffers keeps its probe key and
/// levels on the heap and must drill exactly as a narrow one: nine
/// dimensions, every cuboid of depth at most two, every key.
#[test]
fn wide_cuboids_drill_like_narrow_ones() {
    let dims = 9;
    let schema = CubeSchema::synthetic(dims, 1, 2).unwrap();
    let layers = CriticalLayers::new(
        &schema,
        CuboidSpec::new(vec![0; dims]),
        CuboidSpec::new(vec![1; dims]),
    )
    .unwrap();
    let tuples: Vec<MTuple> = (0..12u32)
        .map(|i| {
            let ids: Vec<u32> = (0..dims as u32).map(|d| (i >> (d % 4)) & 1).collect();
            let slope = if i % 3 == 0 { 0.2 } else { 2.0 };
            MTuple::new(ids, Isb::new(0, 9, 1.0, slope).unwrap())
        })
        .collect();
    let policy = ExceptionPolicy::slope_threshold(1.0);
    let cube = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();
    let (mut hits, mut reads) = (0, (0, 0));
    for cuboid in layers.lattice().enumerate() {
        if cuboid.total_depth() > 2 {
            continue;
        }
        for key in probe_keys(&schema, &cuboid) {
            let (got, read) = drill_children_reads(&schema, &cube, &cuboid, &key);
            assert_eq!(
                got,
                scan_drill_children(&schema, &cube, &cuboid, &key),
                "{cuboid}{key}"
            );
            hits += got.len();
            reads = (reads.0 + read.0, reads.1 + read.1);
        }
    }
    assert!(
        hits > 0 && reads.0 > 0 && reads.1 > 0,
        "{hits} hits, {reads:?} reads"
    );
}
