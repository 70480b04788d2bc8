//! A recurring unit's replayed roll-up against the cold computation.
//!
//! When a unit carries exactly the key sequence of the unit before it,
//! `MoCubingEngine` (row layout) replays a roll-up plan read off an
//! earlier unit's tables instead of re-hashing every cuboid. The oracle
//! here is a fresh engine that has seen only the unit before and the unit
//! itself, so it computes the unit cold. Over seeded schemas (balanced
//! and ragged), layers and exception policies (per-depth and per-cuboid
//! overrides included), and over key sequences that repeat, change,
//! reorder, shrink, grow and carry duplicate m-keys, with NaN and
//! infinite measures mixed in, the plan-holding engine must match the
//! oracle unit by unit:
//!
//! * the m-table, the o-table and every exception store: same keys in
//!   the same iteration order with the same bits, the stores in the same
//!   map order;
//! * the `UnitDelta` (but its ordinal);
//! * the `RunStats` (but `elapsed`).
//!
//! Each check also pins *when* the engine replayed: exactly on the third
//! and later consecutive units of one key sequence, so a run that never
//! replays, or replays a plan after its sequence changed, fails here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use regcube_core::engine::{CubingEngine, MoCubingEngine, UnitDelta};
use regcube_core::{CriticalLayers, CubeResult, ExceptionPolicy, MTuple, RunStats, WorkerPool};
use regcube_olap::{CubeSchema, CuboidSpec, Dimension, Hierarchy};
use regcube_regress::Isb;
use std::sync::Arc;
use std::time::Duration;

/// A table, or a result's exception stores, as its iteration sequence,
/// measures as bits.
type Cells = Vec<(Vec<u32>, [u64; 4])>;

fn bits(isb: &Isb) -> [u64; 4] {
    [
        isb.start() as u64,
        isb.end() as u64,
        isb.base().to_bits(),
        isb.slope().to_bits(),
    ]
}

fn cells<'a>(table: impl IntoIterator<Item = (&'a regcube_olap::cell::CellKey, &'a Isb)>) -> Cells {
    table
        .into_iter()
        .map(|(k, m)| (k.ids().to_vec(), bits(m)))
        .collect()
}

fn exception_cells(cube: &CubeResult) -> Vec<(CuboidSpec, Vec<u32>, [u64; 4])> {
    cube.iter_exceptions()
        .map(|(c, k, m)| (c.clone(), k.ids().to_vec(), bits(m)))
        .collect()
}

fn sans_elapsed(stats: &RunStats) -> RunStats {
    RunStats {
        elapsed: Duration::ZERO,
        ..*stats
    }
}

fn delta_sans_unit(delta: &UnitDelta) -> impl PartialEq + std::fmt::Debug {
    (
        delta.window,
        delta.tuples,
        delta.cells_touched,
        delta.appeared.clone(),
        delta.cleared.clone(),
    )
}

/// One seeded analysis: schema, layers, policy and the m-cells its
/// units draw keys from.
struct Analysis {
    schema: CubeSchema,
    layers: CriticalLayers,
    policy: ExceptionPolicy,
    universe: Vec<Vec<u32>>,
}

fn analysis(rng: &mut StdRng) -> Analysis {
    let dims = rng.random_range(1..=3usize);
    let depth = rng.random_range(1..=3u8);
    let ragged = rng.random_bool(0.5);
    let dimensions: Vec<Dimension> = (0..dims)
        .map(|d| {
            let hierarchy = if ragged {
                let mut parents = Vec::new();
                let mut above = 1u32;
                for _ in 0..depth {
                    let members = rng.random_range(above..=above * 3 + 1);
                    parents.push((0..members).map(|m| m % above).collect::<Vec<u32>>());
                    above = members;
                }
                Hierarchy::from_parents(parents).unwrap()
            } else {
                Hierarchy::balanced(depth, rng.random_range(2..=4u32)).unwrap()
            };
            Dimension::new(format!("d{d}"), hierarchy)
        })
        .collect();
    let schema = CubeSchema::new(dimensions).unwrap();
    let m: Vec<u8> = (0..dims).map(|_| rng.random_range(1..=depth)).collect();
    let o: Vec<u8> = m.iter().map(|&l| rng.random_range(0..=l)).collect();
    let layers =
        CriticalLayers::new(&schema, CuboidSpec::new(o), CuboidSpec::new(m.clone())).unwrap();

    let mut policy = ExceptionPolicy::slope_threshold(rng.random_range(0.0..4.0));
    let cuboids = layers.lattice().enumerate();
    for _ in 0..rng.random_range(0..3usize) {
        let cuboid = cuboids[rng.random_range(0..cuboids.len())].clone();
        policy = policy
            .with_cuboid_threshold(cuboid, rng.random_range(0.0..3.0))
            .unwrap();
    }
    for _ in 0..rng.random_range(0..3usize) {
        let depth = rng.random_range(0..=m.iter().map(|&l| u32::from(l)).sum::<u32>());
        policy = policy
            .with_depth_threshold(depth, rng.random_range(0.0..3.0))
            .unwrap();
    }

    let card = |d: usize| schema.dims()[d].hierarchy().cardinality(m[d]);
    let universe = (0..rng.random_range(1..40usize))
        .map(|_| (0..dims).map(|d| rng.random_range(0..card(d))).collect())
        .collect();
    Analysis {
        schema,
        layers,
        policy,
        universe,
    }
}

/// The next unit's key sequence: mostly the last one again, otherwise
/// changed, reordered, shrunk, grown or given duplicates.
fn next_keys(rng: &mut StdRng, universe: &[Vec<u32>], last: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let pick = |rng: &mut StdRng| universe[rng.random_range(0..universe.len())].clone();
    let mut keys = last.to_vec();
    match rng.random_range(0..10u32) {
        0..=4 => {}
        5 => {
            let i = rng.random_range(0..keys.len());
            keys[i] = pick(rng);
        }
        6 => {
            let (i, j) = (
                rng.random_range(0..keys.len()),
                rng.random_range(0..keys.len()),
            );
            keys.swap(i, j);
        }
        7 if keys.len() > 1 => {
            keys.remove(rng.random_range(0..keys.len()));
        }
        8 => {
            let at = rng.random_range(0..=keys.len());
            keys.insert(at, pick(rng));
        }
        _ => {
            // A duplicate m-key: the m-layer fold merges it in arrival
            // order.
            let at = rng.random_range(0..=keys.len());
            let dup = keys[rng.random_range(0..keys.len())].clone();
            keys.insert(at, dup);
        }
    }
    keys
}

/// A unit of `keys` for window `w`, measures fresh, some non-finite.
fn unit(rng: &mut StdRng, keys: &[Vec<u32>], w: i64) -> Vec<MTuple> {
    keys.iter()
        .map(|ids| {
            let draw = |rng: &mut StdRng| match rng.random_range(0..40u32) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                _ => rng.random_range(-3.0..3.0),
            };
            let (base, slope) = (draw(rng), draw(rng));
            MTuple::new(
                ids.clone(),
                Isb::new(10 * w, 10 * w + 9, base, slope).unwrap(),
            )
        })
        .collect()
}

/// Counts the units a plan-holding engine replays: the third and later
/// consecutive units of one key sequence.
#[derive(Default)]
struct ReplayModel {
    last: Option<Vec<Vec<u32>>>,
    run: usize,
    replays: u64,
}

impl ReplayModel {
    fn unit(&mut self, keys: &[Vec<u32>]) {
        self.run = match &self.last {
            Some(last) if last.as_slice() == keys => self.run + 1,
            _ => 1,
        };
        if self.run >= 3 {
            self.replays += 1;
        }
        self.last = Some(keys.to_vec());
    }
}

/// Feeds `units` to `engine` one by one and holds every unit to a cold
/// oracle and every replay count to the model.
fn hold_to_cold(
    an: &Analysis,
    engine: &mut MoCubingEngine,
    units: &[(Vec<Vec<u32>>, Vec<MTuple>)],
) {
    let mut model = ReplayModel::default();
    for (k, (keys, tuples)) in units.iter().enumerate() {
        let delta = engine.ingest_unit(tuples).unwrap();

        let mut cold =
            MoCubingEngine::new(an.schema.clone(), an.layers.clone(), an.policy.clone()).unwrap();
        if k > 0 {
            cold.ingest_unit(&units[k - 1].1).unwrap();
        }
        let cold_delta = cold.ingest_unit(tuples).unwrap();
        assert_eq!(cold.units_replayed(), 0, "the oracle never replays");

        let (got, want) = (engine.result(), cold.result());
        assert_eq!(cells(got.m_table()), cells(want.m_table()), "unit {k}: m");
        assert_eq!(cells(got.o_table()), cells(want.o_table()), "unit {k}: o");
        assert_eq!(exception_cells(got), exception_cells(want), "unit {k}");
        assert_eq!(
            delta_sans_unit(&delta),
            delta_sans_unit(&cold_delta),
            "unit {k}"
        );
        assert_eq!(
            sans_elapsed(got.stats()),
            sans_elapsed(want.stats()),
            "unit {k}"
        );
        model.unit(keys);
        assert_eq!(engine.units_replayed(), model.replays, "unit {k}");
    }
}

fn script(rng: &mut StdRng, an: &Analysis, units: usize) -> Vec<(Vec<Vec<u32>>, Vec<MTuple>)> {
    let mut keys: Vec<Vec<u32>> = (0..rng.random_range(1..24usize))
        .map(|_| an.universe[rng.random_range(0..an.universe.len())].clone())
        .collect();
    let mut out = Vec::new();
    for w in 0..units as i64 {
        if w > 0 {
            keys = next_keys(rng, &an.universe, &keys);
        }
        let tuples = unit(rng, &keys, w);
        out.push((keys.clone(), tuples));
    }
    out
}

#[test]
fn a_replayed_unit_is_the_cold_unit() {
    let mut replays = 0;
    for seed in 0..160u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let an = analysis(&mut rng);
        let units = script(&mut rng, &an, 12);
        let mut engine =
            MoCubingEngine::new(an.schema.clone(), an.layers.clone(), an.policy.clone()).unwrap();
        hold_to_cold(&an, &mut engine, &units);
        replays += engine.units_replayed();
    }
    assert!(replays > 300, "only {replays} units replayed");
}

/// The 2-worker pool fans a tier out only in front of 4,096 source
/// rows; these units are about 5,000 distinct m-cells, so the plan is
/// captured from tables the pool folded.
#[test]
fn a_pooled_engine_replays_the_cold_unit() {
    let mut rng = StdRng::seed_from_u64(7);
    let schema = CubeSchema::synthetic(3, 3, 4).unwrap();
    let layers = CriticalLayers::new(
        &schema,
        CuboidSpec::new(vec![0, 1, 0]),
        CuboidSpec::new(vec![3, 3, 3]),
    )
    .unwrap();
    let policy = ExceptionPolicy::slope_threshold(30.0)
        .with_depth_threshold(6, 12.0)
        .unwrap();
    let mut universe: Vec<Vec<u32>> = (0..5200)
        .map(|_| (0..3).map(|_| rng.random_range(0..64u32)).collect())
        .collect();
    universe.sort();
    universe.dedup();
    let an = Analysis {
        schema,
        layers,
        policy,
        universe,
    };
    let changed: Vec<Vec<u32>> = an.universe[..an.universe.len() - 1].to_vec();
    let sequences = [
        &an.universe,
        &an.universe,
        &an.universe,
        &an.universe,
        &changed,
        &changed,
        &changed,
    ];
    let units: Vec<_> = sequences
        .iter()
        .enumerate()
        .map(|(w, keys)| (keys.to_vec(), unit(&mut rng, keys, w as i64)))
        .collect();
    let pool = Arc::new(WorkerPool::new(2));
    let mut engine = MoCubingEngine::new(an.schema.clone(), an.layers.clone(), an.policy.clone())
        .unwrap()
        .with_pool(pool);
    hold_to_cold(&an, &mut engine, &units);
    assert_eq!(engine.units_replayed(), 3);
}

/// A restored engine re-cubes the checkpointed unit from its m-table,
/// sorted by key; the units after it (sorted, one tuple per cell, as the
/// ingestor closes them) repeat that sequence, so it replays like the
/// engine that never stopped.
#[test]
fn an_engine_rebuilt_from_its_held_m_table_replays_like_the_original() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let an = analysis(&mut rng);
        let mut keys = an.universe.clone();
        keys.sort();
        keys.dedup();
        let units: Vec<_> = (0..8)
            .map(|w| (keys.clone(), unit(&mut rng, &keys, w)))
            .collect();
        let make = || {
            MoCubingEngine::new(an.schema.clone(), an.layers.clone(), an.policy.clone()).unwrap()
        };
        let mut original = make();
        hold_to_cold(&an, &mut original, &units);

        let mut held = make();
        held.ingest_unit(&units[0].1).unwrap();
        held.ingest_unit(&units[1].1).unwrap();
        let mut saved: Vec<_> = held.result().m_table().iter().collect();
        saved.sort_by(|a, b| a.0.cmp(b.0));
        let restored_unit: Vec<MTuple> = saved
            .iter()
            .map(|(k, isb)| MTuple::new(k.ids().to_vec(), **isb))
            .collect();
        let mut restored = make();
        restored.ingest_unit(&restored_unit).unwrap();
        for (keys, tuples) in &units[2..] {
            restored.ingest_unit(tuples).unwrap();
            assert_eq!(keys, &units[0].0);
        }
        assert_eq!(restored.units_replayed(), 5);
        let (got, want) = (restored.result(), original.result());
        assert_eq!(cells(got.m_table()), cells(want.m_table()), "seed {seed}");
        assert_eq!(cells(got.o_table()), cells(want.o_table()), "seed {seed}");
        assert_eq!(exception_cells(got), exception_cells(want), "seed {seed}");
        assert_eq!(sans_elapsed(got.stats()), sans_elapsed(want.stats()));
    }
}

/// A failed unit commits nothing: the plan stays the held unit's, and
/// the next good unit of that sequence still replays.
#[test]
fn a_failed_unit_leaves_the_plan_alone() {
    let mut rng = StdRng::seed_from_u64(99);
    let an = analysis(&mut rng);
    let units = script(&mut rng, &an, 1);
    let keys = units[0].0.clone();
    let mut engine =
        MoCubingEngine::new(an.schema.clone(), an.layers.clone(), an.policy.clone()).unwrap();
    for w in 0..3 {
        engine.ingest_unit(&unit(&mut rng, &keys, w)).unwrap();
    }
    assert_eq!(engine.units_replayed(), 1);
    // The held window again: refused before anything is cubed.
    assert!(engine.ingest_unit(&unit(&mut rng, &keys, 2)).is_err());
    engine.ingest_unit(&unit(&mut rng, &keys, 3)).unwrap();
    assert_eq!(engine.units_replayed(), 2);
}
