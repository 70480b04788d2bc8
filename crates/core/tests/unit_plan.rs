//! A recurring unit's replayed roll-up against the cold computation.
//!
//! `MoCubingEngine` (row layout) keeps the roll-up plans of up to
//! `SHAPES` recent m-key sequences and replays a plan, instead of
//! re-hashing every cuboid, for any unit whose key sequence has one
//! resident. The oracle here is a fresh engine that has seen only the
//! unit before and the unit itself, so it computes the unit cold. Over
//! seeded schemas (balanced and ragged), layers and exception policies
//! (per-depth and per-cuboid overrides included), and over key sequences
//! that repeat, change, reorder, shrink, grow, carry duplicate m-keys and
//! return to earlier sequences, with NaN and infinite measures mixed in,
//! the plan-holding engine must match the oracle unit by unit:
//!
//! * the m-table, the o-table and every exception store: same keys in
//!   the same iteration order with the same bits, the stores in the same
//!   map order;
//! * the `UnitDelta` (but its ordinal);
//! * the `RunStats` (but `elapsed`).
//!
//! Each check also pins *when* the engine replayed, against an LRU model
//! of the cache: a sequence's first unit is remembered by hash, its
//! second captures the plan, and every later one replays while the
//! sequence stays among the `SHAPES` most recently used. Scripted cases
//! add alternation, rotations that fit the cache and one that evicts
//! every shape, a sequence that returns after its eviction, units of
//! some 5,000 m-cells and the restored engine.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use regcube_core::engine::{CubingEngine, MoCubingEngine, UnitDelta};
use regcube_core::mo_cubing::SHAPES;
use regcube_core::{CriticalLayers, CubeResult, ExceptionPolicy, MTuple, RunStats};
use regcube_olap::{CubeSchema, CuboidSpec, Dimension, Hierarchy};
use regcube_regress::Isb;
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

/// Counts the units a plan-holding engine replays: an LRU of `SHAPES`
/// key sequences, each with whether its plan was captured.
#[derive(Default)]
struct ReplayModel {
    /// Least recently used first.
    shapes: Vec<(Vec<Vec<u32>>, bool)>,
    replays: u64,
}

impl ReplayModel {
    fn unit(&mut self, keys: &[Vec<u32>]) {
        let captured = match self
            .shapes
            .iter()
            .position(|(seq, _)| seq.as_slice() == keys)
        {
            Some(at) => {
                let (_, captured) = self.shapes.remove(at);
                self.replays += u64::from(captured);
                true
            }
            None => false,
        };
        self.shapes.push((keys.to_vec(), captured));
        if self.shapes.len() > SHAPES {
            self.shapes.remove(0);
        }
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
    let mut out: Vec<(Vec<Vec<u32>>, Vec<MTuple>)> = Vec::new();
    for w in 0..units as i64 {
        if w > 0 {
            keys = if rng.random_range(0..5u32) == 0 {
                // Back to an earlier unit's sequence.
                out[rng.random_range(0..out.len())].0.clone()
            } else {
                next_keys(rng, &an.universe, &keys)
            };
        }
        let tuples = unit(rng, &keys, w);
        out.push((keys.clone(), tuples));
    }
    out
}

/// Units of `sequences` in turn, one window each.
fn units_of(rng: &mut StdRng, sequences: &[&[Vec<u32>]]) -> Vec<(Vec<Vec<u32>>, Vec<MTuple>)> {
    sequences
        .iter()
        .enumerate()
        .map(|(w, keys)| (keys.to_vec(), unit(rng, keys, w as i64)))
        .collect()
}

/// `n` distinct key sequences drawn from `an`'s universe: the same
/// cells in `n` different orders, lengths or multiplicities.
fn distinct_sequences(rng: &mut StdRng, an: &Analysis, n: usize) -> Vec<Vec<Vec<u32>>> {
    let mut out: Vec<Vec<Vec<u32>>> = Vec::new();
    while out.len() < n {
        let keys: Vec<Vec<u32>> = (0..rng.random_range(1..12usize))
            .map(|_| an.universe[rng.random_range(0..an.universe.len())].clone())
            .collect();
        if !out.contains(&keys) {
            out.push(keys);
        }
    }
    out
}

/// A seeded analysis whose universe has at least two m-cells, so it has
/// many distinct key sequences.
fn rich_analysis(seed: u64) -> (StdRng, Analysis) {
    (seed..)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let an = analysis(&mut rng);
            (rng, an)
        })
        .find(|(_, an)| an.universe.len() > 1)
        .expect("some seed draws two m-cells")
}

/// Holds a fresh engine to the cold oracle over units of `order`
/// (indices into `sequences`) and returns its replay count.
fn run_order(seed: u64, sequences: usize, order: &[usize]) -> u64 {
    let (mut rng, an) = rich_analysis(seed);
    let seqs = distinct_sequences(&mut rng, &an, sequences);
    let picked: Vec<&[Vec<u32>]> = order.iter().map(|&i| seqs[i].as_slice()).collect();
    let units = units_of(&mut rng, &picked);
    let mut engine =
        MoCubingEngine::new(an.schema.clone(), an.layers.clone(), an.policy.clone()).unwrap();
    hold_to_cold(&an, &mut engine, &units);
    engine.units_replayed()
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

/// Two sequences in turn: each is remembered, then captured, then
/// replayed on every return — by rebuilding the critical layers, as the
/// held unit always has the other sequence.
#[test]
fn alternating_sequences_replay_from_their_third_unit() {
    let order: Vec<usize> = (0..12).map(|u| u % 2).collect();
    assert_eq!(run_order(3, 2, &order), 8);
}

/// The benchmark fleet's rotation: 16 sequences fit the cache, so every
/// unit from the third round on replays.
#[test]
fn a_sixteen_sequence_rotation_replays_from_its_third_round() {
    let order: Vec<usize> = (0..16 * 4).map(|u| u % 16).collect();
    assert_eq!(run_order(5, 16, &order), 16 * 2);
}

/// One sequence more than the cache holds: each is evicted just before
/// it returns, so nothing is ever captured.
#[test]
fn a_rotation_one_longer_than_the_cache_never_replays() {
    let n = SHAPES + 1;
    let order: Vec<usize> = (0..n * 3).map(|u| u % n).collect();
    assert_eq!(run_order(11, n, &order), 0);
}

/// A captured sequence survives `SHAPES - 1` others and replays on its
/// return; after `SHAPES` others it is evicted and starts over.
#[test]
fn a_sequence_back_after_eviction_starts_over() {
    let back = |others: usize| {
        let mut order = vec![0, 0];
        order.extend(1..=others);
        order.extend([0, 0, 0]);
        run_order(13, SHAPES + 1, &order)
    };
    assert_eq!(back(SHAPES - 1), 3);
    assert_eq!(back(SHAPES), 1);
}

/// Units of about 5,000 distinct m-cells on a 3-dimensional lattice. Two
/// sequences alternate — the replays rebuild 5,000-cell m-tables — and
/// then one repeats, replaying over the held unit's tables.
#[test]
fn a_wide_unit_replays_the_cold_unit() {
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
    let all = an.universe.as_slice();
    let changed = &all[..all.len() - 1];
    let units = units_of(
        &mut rng,
        &[all, changed, all, changed, all, changed, all, all],
    );
    let mut engine =
        MoCubingEngine::new(an.schema.clone(), an.layers.clone(), an.policy.clone()).unwrap();
    hold_to_cold(&an, &mut engine, &units);
    assert_eq!(engine.units_replayed(), 4);
}

/// A restored engine re-cubes the checkpointed unit from its m-table,
/// sorted by key, and starts with an empty cache. The units (sorted, one
/// tuple per cell, as the ingestor closes them) rotate through three
/// sequences; cut mid-rotation, the restored engine must serve every
/// later unit as the engine that never stopped does, and replay once its
/// cache has seen the rotation twice.
#[test]
fn an_engine_rebuilt_from_its_held_m_table_replays_like_the_original() {
    const CUT: usize = 4;
    for seed in 0..24u64 {
        let (mut rng, an) = rich_analysis(1000 + seed * 16);
        let rotation: Vec<Vec<Vec<u32>>> = distinct_sequences(&mut rng, &an, 3)
            .into_iter()
            .map(|mut keys| {
                keys.sort();
                keys.dedup();
                keys
            })
            .collect();
        let picked: Vec<&[Vec<u32>]> = (0..12).map(|u| rotation[u % 3].as_slice()).collect();
        let units = units_of(&mut rng, &picked);
        let make = || {
            MoCubingEngine::new(an.schema.clone(), an.layers.clone(), an.policy.clone()).unwrap()
        };
        let mut original = make();
        hold_to_cold(&an, &mut original, &units);

        let mut held = make();
        for (_, tuples) in &units[..=CUT] {
            held.ingest_unit(tuples).unwrap();
        }
        let mut saved: Vec<_> = held.result().m_table().iter().collect();
        saved.sort_by(|a, b| a.0.cmp(b.0));
        let restored_unit: Vec<MTuple> = saved
            .iter()
            .map(|(k, isb)| MTuple::new(k.ids().to_vec(), **isb))
            .collect();
        let mut after = vec![(units[CUT].0.clone(), restored_unit)];
        after.extend_from_slice(&units[CUT + 1..]);
        let mut restored = make();
        hold_to_cold(&an, &mut restored, &after);
        assert!(restored.units_replayed() > 0, "seed {seed}");
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
