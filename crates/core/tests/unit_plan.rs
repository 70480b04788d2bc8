//! A recurring unit's replayed roll-up against the cold computation.
//!
//! Both algorithms run on one engine, which keeps the roll-up plans of
//! up to `SHAPES` recent m-key sequences and replays a plan, instead of
//! re-hashing every cuboid, for any unit whose key sequence has one
//! resident: `MoCubingEngine` along Algorithm 1's depth tiers,
//! `PopularPathEngine` along Algorithm 2's popular path. Every case here
//! runs once per algorithm. The oracle is a fresh engine that sees only the unit
//! itself, so it computes the unit cold: it builds the unit's plan
//! instead of replaying a kept one. The delta is held to an engine that
//! has seen only the unit before and the unit itself.
//! `cold_fold_oracle.rs` and `m_layer_fold.rs` hold that build's order
//! to independent folds. Over seeded schemas (balanced and ragged),
//! layers and exception policies (per-depth and per-cuboid overrides
//! included), and over key sequences that repeat, change, reorder,
//! shrink, grow, carry duplicate m-keys and return to earlier sequences,
//! with NaN and infinite measures mixed in, the plan-holding engine must
//! match the oracle unit by unit:
//!
//! * the m-table, the o-table and every exception store: same keys in
//!   the same iteration order with the same bits, the stores in the same
//!   map order;
//! * every path table (Algorithm 2's), cuboids sorted: same keys in the
//!   same iteration order with the same bits;
//! * the `UnitDelta` (but its ordinal);
//! * the `RunStats` (but `elapsed`).
//!
//! Each check also pins *when* the engine replayed, against an LRU model
//! of the cache: a sequence's first unit keeps the plan it builds, and
//! every later one replays while the sequence stays among the `SHAPES`
//! most recently used. Scripted cases
//! add alternation, rotations that fit the cache and one that evicts
//! every plan, a sequence that returns after its eviction, two sequences
//! that differ only in their last key, units of some 5,000 m-cells and
//! the restored engine. A reader that holds a unit's result must read
//! its m-, o- and path tables unchanged while later units are written.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use regcube_core::engine::{CubingEngine, MoCubingEngine, PopularPathEngine, UnitDelta};
use regcube_core::mo_cubing::SHAPES;
use regcube_core::{CriticalLayers, CubeResult, ExceptionPolicy, MTuple, RunStats};
use regcube_olap::cell::INLINE_IDS;
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

/// What a reader reads of a result: its m-table, its o-table and its
/// path tables, cuboids sorted, each as its iteration sequence.
fn read(cube: &CubeResult) -> (Cells, Cells, Vec<(CuboidSpec, Cells)>) {
    let mut paths: Vec<(CuboidSpec, Cells)> = cube
        .path_tables()
        .iter()
        .map(|(cuboid, table)| (cuboid.clone(), cells(table)))
        .collect();
    paths.sort_by(|a, b| a.0.cmp(&b.0));
    (cells(cube.m_table()), cells(cube.o_table()), paths)
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

/// Either algorithm's engine, made fresh for an analysis.
trait Engine: CubingEngine + Sized {
    fn make(an: &Analysis) -> Self;
    fn replayed(&self) -> u64;
}

impl Engine for MoCubingEngine {
    fn make(an: &Analysis) -> Self {
        MoCubingEngine::new(an.schema.clone(), an.layers.clone(), an.policy.clone()).unwrap()
    }
    fn replayed(&self) -> u64 {
        self.units_replayed()
    }
}

impl Engine for PopularPathEngine {
    fn make(an: &Analysis) -> Self {
        let (s, l, p) = (an.schema.clone(), an.layers.clone(), an.policy.clone());
        PopularPathEngine::new(s, l, p, None).unwrap()
    }
    fn replayed(&self) -> u64 {
        self.units_replayed()
    }
}

/// Runs a case, generic over the engine, once per algorithm.
macro_rules! for_both_engines {
    ($case:ident) => {{
        $case::<MoCubingEngine>();
        $case::<PopularPathEngine>();
    }};
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
    analysis_of(rng, dims, depth, ragged)
}

/// [`analysis`] of `dims` dimensions, each a hierarchy `depth` levels
/// deep, `ragged` or balanced.
fn analysis_of(rng: &mut StdRng, dims: usize, depth: u8, ragged: bool) -> Analysis {
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

/// Counts the units a plan-holding engine replays and recycles: an LRU
/// of `SHAPES` key sequences, each with the plan its first unit built
/// (an identity, new at every build), and the spare: the result a unit
/// of the held plan replaced.
#[derive(Default)]
struct ReplayModel {
    /// Least recently used first, so the held unit's plan is the last.
    plans: Vec<(Vec<Vec<u32>>, u64)>,
    built: u64,
    /// (plan, unit).
    spare: Option<(u64, usize)>,
    replays: u64,
    recycles: u64,
}

impl ReplayModel {
    /// Unit `k` of `keys`, while readers hold the results of units
    /// `k - readers..k`.
    fn unit(&mut self, k: usize, keys: &[Vec<u32>], readers: usize) {
        let held = self.plans.last().map(|&(_, plan)| plan);
        let plan = match self
            .plans
            .iter()
            .position(|(seq, _)| seq.as_slice() == keys)
        {
            Some(at) => {
                self.replays += 1;
                self.plans.remove(at).1
            }
            None => {
                self.built += 1;
                self.built
            }
        };
        let free = |(p, unit): (u64, usize)| p == plan && unit + readers < k;
        if self.spare.is_some_and(free) {
            self.recycles += 1;
        }
        self.spare = match (held, k.checked_sub(1)) {
            (Some(held), Some(last)) if held == plan => Some((held, last)),
            _ => None,
        };
        self.plans.push((keys.to_vec(), plan));
        if self.plans.len() > SHAPES {
            self.plans.remove(0);
        }
    }
}

/// Feeds `units` to `engine` one by one and holds every unit to a cold
/// oracle and every replay and recycle count to the model.
fn hold_to_cold<E: Engine>(an: &Analysis, engine: &mut E, units: &[(Vec<Vec<u32>>, Vec<MTuple>)]) {
    hold_to_cold_read(an, engine, units, 0);
}

/// The model's recycle count for `units` while a reader holds each
/// unit's result until `readers` more units are cubed.
fn modelled_recycles(units: &[(Vec<Vec<u32>>, Vec<MTuple>)], readers: usize) -> u64 {
    let mut model = ReplayModel::default();
    for (k, (keys, _)) in units.iter().enumerate() {
        model.unit(k, keys, readers);
    }
    model.recycles
}

/// [`hold_to_cold`] while a reader holds each unit's shared result
/// until `readers` more units are cubed, and must read its m-, o- and
/// path tables unchanged the whole time.
fn hold_to_cold_read<E: Engine>(
    an: &Analysis,
    engine: &mut E,
    units: &[(Vec<Vec<u32>>, Vec<MTuple>)],
    readers: usize,
) {
    let mut model = ReplayModel::default();
    let mut held: Vec<(Arc<CubeResult>, _)> = Vec::new();
    for (k, (keys, tuples)) in units.iter().enumerate() {
        let delta = engine.ingest_unit(tuples).unwrap();
        for (result, tables) in &held {
            assert_eq!(&read(result), tables, "unit {k}: a read table moved");
        }
        if readers > 0 {
            if held.len() == readers {
                held.remove(0);
            }
            let result = engine.shared_result();
            let tables = read(&result);
            held.push((result, tables));
        }

        let mut cold = E::make(an);
        cold.ingest_unit(tuples).unwrap();
        assert_eq!(cold.replayed(), 0, "the oracle never replays");
        let mut pair = E::make(an);
        if k > 0 {
            pair.ingest_unit(&units[k - 1].1).unwrap();
        }
        let pair_delta = pair.ingest_unit(tuples).unwrap();

        let (got, want) = (engine.result(), cold.result());
        let (m, o, paths) = read(got);
        let (want_m, want_o, want_paths) = read(want);
        assert_eq!(m, want_m, "unit {k}: m");
        assert_eq!(o, want_o, "unit {k}: o");
        assert_eq!(paths, want_paths, "unit {k}: path tables");
        assert_eq!(exception_cells(got), exception_cells(want), "unit {k}");
        assert_eq!(
            delta_sans_unit(&delta),
            delta_sans_unit(&pair_delta),
            "unit {k}"
        );
        assert_eq!(
            sans_elapsed(got.stats()),
            sans_elapsed(want.stats()),
            "unit {k}"
        );
        model.unit(k, keys, readers);
        assert_eq!(engine.replayed(), model.replays, "unit {k}");
        assert_eq!(engine.units_recycled(), model.recycles, "unit {k}");
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
fn run_order<E: Engine>(seed: u64, sequences: usize, order: &[usize]) -> u64 {
    let (mut rng, an) = rich_analysis(seed);
    let seqs = distinct_sequences(&mut rng, &an, sequences);
    let picked: Vec<&[Vec<u32>]> = order.iter().map(|&i| seqs[i].as_slice()).collect();
    let units = units_of(&mut rng, &picked);
    let mut engine = E::make(&an);
    hold_to_cold(&an, &mut engine, &units);
    engine.replayed()
}

#[test]
fn a_replayed_unit_is_the_cold_unit() {
    fn case<E: Engine>() {
        let (mut replays, mut recycles) = (0, 0);
        for seed in 0..160u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let an = analysis(&mut rng);
            let units = script(&mut rng, &an, 12);
            let mut engine = E::make(&an);
            hold_to_cold(&an, &mut engine, &units);
            replays += engine.replayed();
            recycles += engine.units_recycled();
        }
        assert!(replays > 300, "only {replays} units replayed");
        assert!(recycles > 100, "only {recycles} units recycled");
    }
    for_both_engines!(case);
}

/// The sequence schedule A A B A A B B, then A for six units, read the
/// way a serving layer reads it: a reader holds each unit's result until
/// `readers` more units are cubed. Every unit but the first of each
/// sequence replays. Only a unit of the held plan writes into the spare
/// — the result one unit back, if nobody reads it — and a unit of
/// another plan drops it, so the short runs never
/// recycle and the last run does from its third unit on. Every unit is
/// still the cold unit, and every read result stays as it was. One
/// reader, as a snapshot cell holds the held unit, leaves the spare
/// free; two or more reach it, so nothing is recycled.
#[test]
fn a_replay_writes_into_a_retired_result_no_reader_holds() {
    fn case<E: Engine>() {
        let (mut rng, an) = rich_analysis(17);
        let seqs = distinct_sequences(&mut rng, &an, 2);
        let order = [0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0];
        let picked: Vec<&[Vec<u32>]> = order.iter().map(|&i| seqs[i].as_slice()).collect();
        let units = units_of(&mut rng, &picked);
        for readers in 0..=3 {
            let recycled = modelled_recycles(&units, readers);
            assert_eq!(recycled == 0, readers >= 2, "{readers} readers");
            let mut engine = E::make(&an);
            hold_to_cold_read(&an, &mut engine, &units, readers);
            assert_eq!(engine.replayed(), 11);
            assert_eq!(engine.units_recycled(), recycled, "{readers} readers");
        }
    }
    for_both_engines!(case);
}

/// A sequence's first unit builds its plan and keeps it; every later unit
/// of the sequence replays it, from the second on. The third unit finds
/// the first unit's result as the spare: it writes into that result when
/// no reader holds it (a snapshot cell holds only the held unit, the
/// second), and into a new one when a reader does. Every unit is still
/// the cold unit.
#[test]
fn a_sequences_second_unit_replays() {
    fn case<E: Engine>() {
        let (mut rng, an) = rich_analysis(23);
        let keys = distinct_sequences(&mut rng, &an, 1).remove(0);
        let units = units_of(&mut rng, &[keys.as_slice(); 4]);
        for readers in 0..=2 {
            let mut engine = E::make(&an);
            let mut held: Vec<Arc<CubeResult>> = Vec::new();
            let mut results = Vec::new();
            for (k, (_, tuples)) in units.iter().enumerate() {
                engine.ingest_unit(tuples).unwrap();
                assert_eq!(engine.replayed(), k as u64, "{readers} readers");
                let result = engine.shared_result();
                results.push(Arc::as_ptr(&result));
                held.push(result);
                held.drain(..held.len().saturating_sub(readers));
            }
            assert_eq!(results[2] == results[0], readers < 2, "{readers} readers");
            let recycled = if readers < 2 { 2 } else { 0 };
            assert_eq!(engine.units_recycled(), recycled, "{readers} readers");

            let mut engine = E::make(&an);
            hold_to_cold_read(&an, &mut engine, &units, readers);
        }
    }
    for_both_engines!(case);
}

/// Two resident sequences of one length that differ only in their last
/// tuple's ids. The lookup compares every id, so each unit folds by its
/// own sequence's plan, and its cube, delta and statistics are the cold
/// unit's, bit for bit.
#[test]
fn a_sequence_that_differs_only_in_its_last_key_misses() {
    fn case<E: Engine>() {
        let (mut rng, an) = rich_analysis(29);
        let a = distinct_sequences(&mut rng, &an, 1).remove(0);
        let last = a.last().expect("a sequence has a key");
        let other = an.universe.iter().find(|&key| key != last);
        let mut b = a.clone();
        *b.last_mut().unwrap() = other.expect("the universe has two m-cells").clone();
        let units = units_of(&mut rng, &[&a, &b, &a, &b, &a, &b]);
        let mut engine = E::make(&an);
        hold_to_cold(&an, &mut engine, &units);
        assert_eq!(engine.replayed(), 4);
    }
    for_both_engines!(case);
}

/// Six dimensions, one more than a `CellKey` keeps inline, so every key
/// a plan stores and a replay reads back — exception, path and o-layer
/// cells — is a heap key. Balanced and ragged hierarchies, a few seeds
/// each; a reader holds each unit's result for one unit, as a snapshot
/// cell does, so replays both rebuild their critical layers and write
/// into the spare.
#[test]
fn a_six_dimension_unit_replays_the_cold_unit() {
    fn case<E: Engine>() {
        for ragged in [false, true] {
            let (mut replays, mut recycles, mut exceptions) = (0, 0, 0);
            for seed in 0..8u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let an = analysis_of(&mut rng, 6, 2, ragged);
                assert!(an.schema.num_dims() > INLINE_IDS);
                let units = script(&mut rng, &an, 10);
                let mut engine = E::make(&an);
                hold_to_cold_read(&an, &mut engine, &units, 1);
                replays += engine.replayed();
                recycles += engine.units_recycled();
                exceptions += engine.result().total_exception_cells();
            }
            assert!(
                replays > 10,
                "ragged {ragged}: only {replays} units replayed"
            );
            assert!(
                recycles > 5,
                "ragged {ragged}: only {recycles} units recycled"
            );
            assert!(exceptions > 0, "ragged {ragged}: no exception cells");
        }
    }
    for_both_engines!(case);
}

/// Two sequences in turn: each keeps its plan at first sight and
/// replays it on every return — by rebuilding the critical layers, as
/// the held unit always has the other sequence.
#[test]
fn alternating_sequences_replay_from_their_second_unit() {
    fn case<E: Engine>() {
        let order: Vec<usize> = (0..12).map(|u| u % 2).collect();
        assert_eq!(run_order::<E>(3, 2, &order), 10);
    }
    for_both_engines!(case);
}

/// The benchmark fleet's rotation: 16 sequences fit the cache, so every
/// unit from the second round on replays.
#[test]
fn a_sixteen_sequence_rotation_replays_from_its_second_round() {
    fn case<E: Engine>() {
        let order: Vec<usize> = (0..16 * 4).map(|u| u % 16).collect();
        assert_eq!(run_order::<E>(5, 16, &order), 16 * 3);
    }
    for_both_engines!(case);
}

/// One sequence more than the cache holds: each is evicted just before
/// it returns, so every unit builds its plan.
#[test]
fn a_rotation_one_longer_than_the_cache_never_replays() {
    fn case<E: Engine>() {
        let n = SHAPES + 1;
        let order: Vec<usize> = (0..n * 3).map(|u| u % n).collect();
        assert_eq!(run_order::<E>(11, n, &order), 0);
    }
    for_both_engines!(case);
}

/// A kept plan survives `SHAPES - 1` others and replays on its
/// sequence's return; after `SHAPES` others it is evicted, and its
/// sequence builds it again.
#[test]
fn a_sequence_back_after_eviction_starts_over() {
    fn case<E: Engine>() {
        let back = |others: usize| {
            let mut order = vec![0, 0];
            order.extend(1..=others);
            order.extend([0, 0, 0]);
            run_order::<E>(13, SHAPES + 1, &order)
        };
        assert_eq!(back(SHAPES - 1), 4);
        assert_eq!(back(SHAPES), 3);
    }
    for_both_engines!(case);
}

/// Units of about 5,000 distinct m-cells on a 3-dimensional lattice. Two
/// sequences alternate — the replays rebuild 5,000-cell m-tables — and
/// then one repeats; its third unit in a row writes into the spare.
#[test]
fn a_wide_unit_replays_the_cold_unit() {
    fn case<E: Engine>() {
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
            &[all, changed, all, changed, all, changed, all, all, all],
        );
        let mut engine = E::make(&an);
        hold_to_cold(&an, &mut engine, &units);
        assert_eq!(engine.replayed(), 7);
        assert_eq!(engine.units_recycled(), 1);
    }
    for_both_engines!(case);
}

/// A restored engine re-cubes the checkpointed unit from its m-table,
/// sorted by key, and starts with an empty cache. The units (sorted, one
/// tuple per cell, as the ingestor closes them) rotate through three
/// sequences; cut mid-rotation, the restored engine must serve every
/// later unit as the engine that never stopped does, and replay once a
/// sequence it has seen returns.
#[test]
fn an_engine_rebuilt_from_its_held_m_table_replays_like_the_original() {
    fn case<E: Engine>() {
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
            let mut original = E::make(&an);
            hold_to_cold(&an, &mut original, &units);

            let mut held = E::make(&an);
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
            let mut restored = E::make(&an);
            hold_to_cold(&an, &mut restored, &after);
            assert!(restored.replayed() > 0, "seed {seed}");
            let (got, want) = (restored.result(), original.result());
            assert_eq!(read(got), read(want), "seed {seed}");
            assert_eq!(exception_cells(got), exception_cells(want), "seed {seed}");
            assert_eq!(sans_elapsed(got.stats()), sans_elapsed(want.stats()));
        }
    }
    for_both_engines!(case);
}

/// A failed unit commits nothing: the plan stays the held unit's, and
/// the next good unit of that sequence still replays.
#[test]
fn a_failed_unit_leaves_the_plan_alone() {
    fn case<E: Engine>() {
        let mut rng = StdRng::seed_from_u64(99);
        let an = analysis(&mut rng);
        let units = script(&mut rng, &an, 1);
        let keys = units[0].0.clone();
        let mut engine = E::make(&an);
        for w in 0..3 {
            engine.ingest_unit(&unit(&mut rng, &keys, w)).unwrap();
        }
        assert_eq!(engine.replayed(), 2);
        // The held window again: refused before anything is cubed.
        assert!(engine.ingest_unit(&unit(&mut rng, &keys, 2)).is_err());
        engine.ingest_unit(&unit(&mut rng, &keys, 3)).unwrap();
        assert_eq!(engine.replayed(), 3);
    }
    for_both_engines!(case);
}

/// Signed zeros and NaNs through the replay's pair fold. A cell whose
/// only source is `-0.0` keeps `-0.0` (a fold that started every target
/// at `0.0` and added would write `+0.0`); `-0.0` meeting `+0.0` gives
/// `+0.0`; NaN meets numbers, `-0.0` and NaN, and NaNs of three
/// different bit patterns (payloads and a sign) meet in one m-cell and
/// further up. The threshold is `0.0`, so every between-layer cell but a
/// NaN-sloped one is an exception and its bits are compared too. One
/// sequence runs four units, so its third and fourth write into the
/// spare; then two alternate, so later replays rebuild.
///
/// Rust leaves which NaN a sum of two different NaNs carries to code
/// generation; a unit that builds its plan and one that replays a kept
/// plan fold through the same adds, so they carry the same one.
#[test]
fn signed_zeros_and_nans_replay_as_they_fold_cold() {
    fn case<E: Engine>() {
        let schema = CubeSchema::synthetic(2, 2, 3).unwrap();
        let layers = CriticalLayers::new(
            &schema,
            CuboidSpec::new(vec![1, 0]),
            CuboidSpec::new(vec![2, 2]),
        )
        .unwrap();
        let an = Analysis {
            schema,
            layers,
            policy: ExceptionPolicy::slope_threshold(0.0),
            universe: Vec::new(),
        };
        let nan = f64::NAN;
        let [tagged, other, negative] = [
            0x7ff8_0000_0000_0001,
            0x7ff8_0000_0000_0002,
            0xfff8_0000_0000_0003,
        ]
        .map(f64::from_bits);
        // (m-key, base, slope). Key [8, 8] is the lone cell of its o-cell
        // and of every cuboid between; [0, 0] and [1, 0] share every
        // ancestor; [5, 7] arrives twice and meets [3, 6] from (L1, L1) up.
        let s: Vec<(Vec<u32>, f64, f64)> = vec![
            (vec![0, 0], -0.0, -0.0),
            (vec![1, 0], -0.0, 0.0),
            (vec![0, 1], nan, -0.0),
            (vec![1, 1], 1.5, nan),
            (vec![2, 2], nan, nan),
            (vec![5, 7], tagged, -1.0),
            (vec![3, 6], negative, other),
            (vec![5, 7], other, 2.0),
            (vec![8, 8], -0.0, -0.0),
            (vec![4, 5], -0.0, -2.0),
            (vec![4, 4], 3.0, -0.0),
        ];
        let mut t = s.clone();
        t.swap(1, 6);
        t.pop();
        let unit = |keys: &[(Vec<u32>, f64, f64)], w: i64| -> (Vec<Vec<u32>>, Vec<MTuple>) {
            let ids = keys.iter().map(|(k, _, _)| k.clone()).collect();
            let tuples = keys
                .iter()
                .map(|(k, base, slope)| {
                    MTuple::new(
                        k.clone(),
                        Isb::new(10 * w, 10 * w + 9, *base, *slope).unwrap(),
                    )
                })
                .collect();
            (ids, tuples)
        };
        let order = [&s, &s, &s, &s, &t, &t, &s, &t];
        let units: Vec<_> = order
            .iter()
            .enumerate()
            .map(|(w, keys)| unit(keys, w as i64))
            .collect();
        let mut engine = E::make(&an);
        hold_to_cold(&an, &mut engine, &units);
        assert_eq!(engine.replayed(), 6);
        assert_eq!(engine.units_recycled(), 2);

        // The replayed lone cell, up to the o-layer.
        let lone = engine.result().o_table()[&regcube_olap::cell::CellKey::new(vec![2, 0])];
        assert_eq!(lone.base().to_bits(), (-0.0f64).to_bits());
        assert_eq!(lone.slope().to_bits(), (-0.0f64).to_bits());
    }
    for_both_engines!(case);
}
