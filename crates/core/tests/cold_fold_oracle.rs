//! Algorithm 1's row fold against an obviously-right oracle:
//! `MoCubingEngine` must build, **bit for bit**, the cube a naive
//! Algorithm 1 over `BTreeMap`s builds with [`merge_sibling`] — same
//! cells, same exception sets, same `UnitDelta` streams — across units
//! of every size, repeated m-cells in shuffled arrival order, NaN-noise
//! measures and all three threshold scopes, on cold units and on units
//! that replay a roll-up plan.
//!
//! A fold is defined by its add order alone (Theorem 3.2 reduces every
//! roll-up to component-wise ISB sums). The oracle folds the m-layer in
//! arrival order and every other cuboid from its closest computed
//! descendant in the previous depth tier (or the m-layer), cell by cell
//! in ascending key order; the engine folds siblings in its tables'
//! hash order. Every base and slope here is a small multiple of 1/64,
//! so every sum either fold forms is exact in `f64` and the two orders
//! must agree to the bit: the comparison is `f64::to_bits` equality,
//! not epsilon closeness, and a row folded twice, dropped or sent to
//! the wrong cell shows.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use regcube_core::engine::{CubingEngine, MoCubingEngine, UnitDelta};
use regcube_core::measure::merge_sibling;
use regcube_core::table::CuboidTable;
use regcube_core::{CriticalLayers, CubeResult, ExceptionPolicy, MTuple};
use regcube_olap::cell::{project_key, CellKey};
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_regress::Isb;
use std::collections::{BTreeMap, BTreeSet};

fn dataset(seed: u64, n: usize) -> (CubeSchema, CriticalLayers, Vec<MTuple>) {
    let (dims, depth, fanout) = (3usize, 2u8, 3u32);
    let schema = CubeSchema::synthetic(dims, depth, fanout).unwrap();
    let layers = CriticalLayers::new(
        &schema,
        CuboidSpec::new(vec![0; dims]),
        CuboidSpec::new(vec![depth; dims]),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let card = fanout.pow(u32::from(depth));
    let tuples = (0..n)
        .map(|_| {
            let ids: Vec<u32> = (0..dims).map(|_| rng.random_range(0..card)).collect();
            let (base, slope) = dyadic(&mut rng);
            MTuple::new(ids, Isb::new(0, 15, base, slope).unwrap())
        })
        .collect();
    (schema, layers, tuples)
}

/// A base in [0, 4) and a slope in (-1.2, 1.2), both multiples of 1/64.
fn dyadic(rng: &mut StdRng) -> (f64, f64) {
    let base = f64::from(rng.random_range(0..256i32)) / 64.0;
    let slope = f64::from(rng.random_range(-76..77i32)) / 64.0;
    (base, slope)
}

/// One cuboid's cells, in ascending key order.
type Table = BTreeMap<Vec<u32>, Isb>;

/// The oracle's cube of one unit.
struct OracleCube {
    m: Table,
    o: Table,
    /// Every between-layer cell the policy flags, by cuboid.
    exceptions: BTreeMap<CuboidSpec, Table>,
}

impl OracleCube {
    fn exception_set(&self) -> BTreeSet<(CuboidSpec, CellKey)> {
        self.exceptions
            .iter()
            .flat_map(|(c, t)| t.keys().map(move |k| (c.clone(), CellKey::new(k))))
            .collect()
    }
}

/// Folds `isb` into the cell at `key`: the first row opens the cell,
/// every later one merges into it.
fn fold_into(table: &mut Table, key: Vec<u32>, isb: &Isb) {
    match table.get_mut(&key) {
        Some(acc) => merge_sibling(acc, isb).unwrap(),
        None => {
            table.insert(key, *isb);
        }
    }
}

/// Algorithm 1, naively: the m-layer in arrival order, then every
/// cuboid by depth tier, deepest first, from its closest computed
/// descendant in the tier before (the m-layer for the first tier),
/// source cells in ascending key order.
fn oracle(
    schema: &CubeSchema,
    layers: &CriticalLayers,
    policy: &ExceptionPolicy,
    tuples: &[MTuple],
) -> OracleCube {
    let lattice = layers.lattice();
    let (m_spec, o_spec) = (lattice.m_layer(), lattice.o_layer());
    let mut m = Table::new();
    for t in tuples {
        fold_into(&mut m, t.ids().to_vec(), t.isb());
    }
    let mut tiers: BTreeMap<u32, Vec<CuboidSpec>> = BTreeMap::new();
    for cuboid in lattice.enumerate() {
        if &cuboid != m_spec {
            tiers.entry(cuboid.total_depth()).or_default().push(cuboid);
        }
    }
    let mut o = Table::new();
    let mut exceptions = BTreeMap::new();
    let mut previous: BTreeMap<CuboidSpec, Table> = BTreeMap::new();
    for tier in tiers.into_values().rev() {
        let mut current = BTreeMap::new();
        for cuboid in tier {
            let (source_spec, source) = lattice
                .closest_computed_descendant(&cuboid, previous.keys())
                .map_or((m_spec, &m), |c| (c, &previous[c]));
            let mut table = Table::new();
            for (ids, isb) in source {
                fold_into(
                    &mut table,
                    project_key(schema, source_spec, ids, &cuboid),
                    isb,
                );
            }
            if &cuboid == o_spec {
                o = table;
                continue;
            }
            let flagged: Table = table
                .iter()
                .filter(|(_, isb)| policy.is_exception(&cuboid, isb))
                .map(|(k, isb)| (k.clone(), *isb))
                .collect();
            if !flagged.is_empty() {
                exceptions.insert(cuboid.clone(), flagged);
            }
            current.insert(cuboid, table);
        }
        previous = current;
    }
    OracleCube { m, o, exceptions }
}

/// Bit-exact ISB equality: identical interval and identical `f64` bit
/// patterns (so NaN payloads and signed zeros must match too).
fn isb_bits_eq(a: &Isb, b: &Isb) -> bool {
    a.interval() == b.interval()
        && a.base().to_bits() == b.base().to_bits()
        && a.slope().to_bits() == b.slope().to_bits()
}

fn table_bit_eq(label: &str, expected: &Table, got: &CuboidTable) {
    assert_eq!(expected.len(), got.len(), "{label}: cell counts differ");
    for (key, m) in expected {
        let other = got
            .get(key.as_slice())
            .unwrap_or_else(|| panic!("{label}: cell {key:?} missing"));
        assert!(isb_bits_eq(m, other), "{label} {key:?}: {m} vs {other}");
    }
}

fn cube_bit_eq(label: &str, expected: &OracleCube, got: &CubeResult) {
    table_bit_eq(&format!("{label}/m"), &expected.m, got.m_table());
    table_bit_eq(&format!("{label}/o"), &expected.o, got.o_table());
    let total: usize = expected.exceptions.values().map(Table::len).sum();
    assert_eq!(
        total as u64,
        got.total_exception_cells(),
        "{label}: exception counts differ"
    );
    for (cuboid, table) in &expected.exceptions {
        let store = got
            .exceptions_in(cuboid)
            .unwrap_or_else(|| panic!("{label}: exceptions of {cuboid} missing"));
        table_bit_eq(&format!("{label}/{cuboid}"), table, store);
    }
}

/// Replays `units` (one batch each) through an engine, asserting
/// after every unit that its cube is the oracle's bit for bit and that
/// its delta is the difference of consecutive oracle exception sets.
/// Returns the engine.
fn replay_and_compare(
    label: &str,
    schema: &CubeSchema,
    layers: &CriticalLayers,
    policy: &ExceptionPolicy,
    units: &[&[MTuple]],
) -> MoCubingEngine {
    let mut engine = MoCubingEngine::new(schema.clone(), layers.clone(), policy.clone()).unwrap();
    let mut held = BTreeSet::new();
    for (u, unit) in units.iter().enumerate() {
        let tag = format!("{label} unit {u}");
        let delta = engine.ingest_unit(unit).unwrap();
        let expected = oracle(schema, layers, policy, unit);
        cube_bit_eq(&tag, &expected, engine.result());
        let now = expected.exception_set();
        delta_eq(&tag, &delta, u, unit, &held, &now);
        held = now;
    }
    engine
}

fn delta_eq(
    label: &str,
    delta: &UnitDelta,
    unit: usize,
    tuples: &[MTuple],
    before: &BTreeSet<(CuboidSpec, CellKey)>,
    after: &BTreeSet<(CuboidSpec, CellKey)>,
) {
    assert_eq!(delta.unit, unit as u64, "{label}: unit");
    assert_eq!(delta.window, tuples[0].isb().interval(), "{label}: window");
    let appeared: Vec<_> = after.difference(before).cloned().collect();
    let cleared: Vec<_> = before.difference(after).cloned().collect();
    assert_eq!(delta.appeared, appeared, "{label}: appeared");
    assert_eq!(delta.cleared, cleared, "{label}: cleared");
}

/// Shifts every tuple's interval into unit `unit` (16 ticks per unit).
fn shift_window(tuples: &[MTuple], unit: i64) -> Vec<MTuple> {
    let start = unit * 16;
    tuples
        .iter()
        .map(|t| {
            let isb = t.isb();
            MTuple::new(
                t.ids().to_vec(),
                Isb::new(start, start + 15, isb.base(), isb.slope()).unwrap(),
            )
        })
        .collect()
}

/// `tuples` with every m-cell repeated `copies` times under fresh
/// measures, round-robin: the batch arrives unsorted with each cell's
/// rows spread across it.
fn with_repeats(seed: u64, tuples: &[MTuple], copies: usize) -> Vec<MTuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (start, end) = tuples[0].isb().interval();
    (0..copies)
        .flat_map(|_| tuples.iter())
        .map(|t| {
            let (base, slope) = dyadic(&mut rng);
            MTuple::new(t.ids().to_vec(), Isb::new(start, end, base, slope).unwrap())
        })
        .collect()
}

#[test]
fn cold_and_replayed_units_are_the_oracle_across_rollovers() {
    let (schema, layers, tuples) = dataset(600, 180);
    let policy = ExceptionPolicy::slope_threshold(0.3);
    // Three units with shrinking tails; the second repeats each of its
    // 60 m-cells three times. The last three carry the second one's key
    // sequence under fresh measures, so all three replay the roll-up
    // plan it built.
    let u1 = with_repeats(602, &shift_window(&tuples[..60], 1), 3);
    let u2 = shift_window(&tuples[..7], 2);
    let recur: Vec<Vec<MTuple>> = (3..6)
        .map(|u| with_repeats(600 + u as u64, &shift_window(&tuples[..60], u), 3))
        .collect();
    let units = [
        &tuples[..],
        &u1[..],
        &u2[..],
        &recur[0],
        &recur[1],
        &recur[2],
    ];
    let engine = replay_and_compare("rollover", &schema, &layers, &policy, &units);
    assert_eq!(engine.units_replayed(), 3, "the last three units replay");
}

#[test]
fn nan_noise_flows_through_the_fold_as_the_oracle_folds_it() {
    // NaN measures (a sensor stream gone bad) must neither qualify as
    // exceptions nor perturb neighbours, down to the propagated NaN bit
    // patterns in the critical layers.
    let (schema, layers, mut tuples) = dataset(601, 120);
    let policy = ExceptionPolicy::slope_threshold(0.3);
    for i in (0..tuples.len()).step_by(7) {
        let ids = tuples[i].ids().to_vec();
        tuples[i] = MTuple::new(ids, Isb::new(0, 15, f64::NAN, -f64::NAN).unwrap());
    }
    let engine = replay_and_compare("nan", &schema, &layers, &policy, &[&tuples[..]]);
    assert!(
        engine
            .result()
            .o_table()
            .values()
            .any(|m| m.slope().is_nan()),
        "NaN noise must reach the o-layer for the pin to mean anything"
    );
    for (_, _, m) in engine.result().iter_exceptions() {
        assert!(!m.slope().is_nan(), "NaN never qualifies as an exception");
    }
}

#[derive(Debug, Clone)]
struct RandomCube {
    dims: usize,
    depth: u8,
    fanout: u32,
    /// Ids, base and slope; base and slope in 64ths.
    tuples: Vec<(Vec<u32>, i32, i32)>,
    threshold: f64,
    /// A total depth (taken modulo the lattice's depth range) and its
    /// threshold override.
    depth_override: (u32, f64),
    /// A cuboid (an index into the lattice, taken modulo its size) and
    /// its threshold override.
    cuboid_override: (usize, f64),
    chunk: usize,
}

fn random_cube() -> impl Strategy<Value = RandomCube> {
    (2usize..=3, 1u8..=2, 2u32..=3)
        .prop_flat_map(|(dims, depth, fanout)| {
            let card = fanout.pow(u32::from(depth));
            let tuple = (
                prop::collection::vec(0..card, dims),
                -320..320i32,
                -96..96i32,
            );
            (
                Just(dims),
                Just(depth),
                Just(fanout),
                prop::collection::vec(tuple, 1..40),
                (
                    0.0..2.0f64,
                    (0u32..64, 0.0..2.0f64),
                    (0usize..64, 0.0..2.0f64),
                ),
                1usize..9,
            )
        })
        .prop_map(
            |(dims, depth, fanout, tuples, (threshold, depth_override, cuboid_override), chunk)| {
                RandomCube {
                    dims,
                    depth,
                    fanout,
                    tuples,
                    threshold,
                    depth_override,
                    cuboid_override,
                    chunk,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The oracle law itself, on random cubes: for any schema shape,
    /// data, unit size and policy — a cube-wide threshold with a
    /// per-depth and a per-cuboid override on top — the engine builds
    /// the oracle's cubes and deltas bit for bit.
    #[test]
    fn the_row_fold_is_the_oracle_on_random_cubes(rc in random_cube()) {
        let schema = CubeSchema::synthetic(rc.dims, rc.depth, rc.fanout).unwrap();
        let layers = CriticalLayers::new(
            &schema,
            CuboidSpec::new(vec![0; rc.dims]),
            CuboidSpec::new(vec![rc.depth; rc.dims]),
        )
        .unwrap();
        // Every `chunk` tuples are one unit, in a window of its own.
        let tuples: Vec<MTuple> = rc
            .tuples
            .iter()
            .enumerate()
            .map(|(i, (ids, base, slope))| {
                let start = (i / rc.chunk) as i64 * 10;
                let (base, slope) = (f64::from(*base) / 64.0, f64::from(*slope) / 64.0);
                MTuple::new(ids.clone(), Isb::new(start, start + 9, base, slope).unwrap())
            })
            .collect();
        let cuboids = layers.lattice().bottom_up_order();
        let (depth, depth_threshold) = rc.depth_override;
        let (pick, cuboid_threshold) = rc.cuboid_override;
        let max_depth = rc.dims as u32 * u32::from(rc.depth);
        let policy = ExceptionPolicy::slope_threshold(rc.threshold)
            .with_depth_threshold(depth % (max_depth + 1), depth_threshold)
            .unwrap()
            .with_cuboid_threshold(cuboids[pick % cuboids.len()].clone(), cuboid_threshold)
            .unwrap();
        let units: Vec<&[MTuple]> = tuples.chunks(rc.chunk).collect();
        replay_and_compare("prop", &schema, &layers, &policy, &units);
    }
}
