//! Trait-level contract tests for [`CubingEngine`] implementations.
//!
//! There are two algorithms, and both must behave the same behind the
//! trait. [`subjects`] lists them, and each engine-level contract runs
//! over the whole list, so a future engine is pinned by adding one
//! entry:
//!
//! 1. an empty batch is rejected;
//! 2. a failed unit leaves the engine exactly as it was;
//! 3. a unit is cubed once: a second batch for the held window is
//!    refused, result and statistics stay bit for bit what they were,
//!    and the next window then cubes exactly what a fresh engine cubes;
//! 4. a new unit reports the lapsed window's exceptions as cleared;
//! 5. deltas come back sorted, and every engine's cube is the cube of
//!    the batch `compute` entry point of its algorithm — for Algorithm
//!    1 bit for bit — on a 2-D and a 3-D lattice.
//!
//! Every contract cubes at least one [`wide_dataset`] unit of some
//! 3,100 m-cells.
//!
//! On top of those, the cross-engine law, the **footnote 7 superset** —
//! after identical ingestion, Algorithm 1 retains a superset of
//! Algorithm 2's exception cells, with identical measures where both
//! retain a cell, and both agree exactly on the critical layers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use regcube_core::engine::{CubingEngine, MoCubingEngine, PopularPathEngine};
use regcube_core::table::CuboidTable;
use regcube_core::{
    mo_cubing, popular_path, CoreError, CriticalLayers, CubeResult, ExceptionPolicy, MTuple,
};
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_regress::{Isb, TimeSeries};

fn random_dataset(seed: u64, n: usize) -> (CubeSchema, CriticalLayers, Vec<MTuple>) {
    random_dataset_of(seed, n, 2, 3)
}

/// 6,000 random tuples over 4,096 possible m-cells (some 3,100
/// distinct).
fn wide_dataset(seed: u64) -> (CubeSchema, CriticalLayers, Vec<MTuple>) {
    random_dataset_of(seed, 6000, 2, 8)
}

/// [`wide_dataset`] in 3 dimensions: 6,000 random tuples over 4,096
/// possible m-cells.
fn wide_dataset_3d(seed: u64) -> (CubeSchema, CriticalLayers, Vec<MTuple>) {
    random_dataset_of(seed, 6000, 3, 4)
}

/// `n` random tuples over a `dims`-dimensional, 2-level schema:
/// `fanout^(2 dims)` possible m-cells.
fn random_dataset_of(
    seed: u64,
    n: usize,
    dims: usize,
    fanout: u32,
) -> (CubeSchema, CriticalLayers, Vec<MTuple>) {
    let depth = 2u8;
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
            let slope = rng.random_range(-1.2..1.2);
            let base = rng.random_range(0.0..4.0);
            let z = TimeSeries::from_fn(0, 15, |t| base + slope * t as f64).unwrap();
            MTuple::new(ids, Isb::fit(&z).unwrap())
        })
        .collect();
    (schema, layers, tuples)
}

/// The first `take` tuples, shifted into unit `unit` (16 ticks each).
fn in_unit(tuples: &[MTuple], take: usize, unit: i64) -> Vec<MTuple> {
    let start = unit * 16;
    tuples[..take]
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

fn tables_approx_eq(label: &str, a: &CuboidTable, b: &CuboidTable) {
    assert_eq!(a.len(), b.len(), "{label}: cell counts differ");
    for (key, m) in a {
        let other = b
            .get(key)
            .unwrap_or_else(|| panic!("{label}: cell {key} missing"));
        assert!(m.approx_eq(other, 1e-8), "{label} {key}: {m} vs {other}");
    }
}

/// `a`'s exception stores hold every cell of `b`'s, with equal measures.
fn exceptions_cover(label: &str, a: &CubeResult, b: &CubeResult) {
    for (cuboid, key, m) in b.iter_exceptions() {
        let other = a
            .exceptions_in(cuboid)
            .and_then(|t| t.get(key))
            .unwrap_or_else(|| panic!("{label}: exception {cuboid}{key} missing"));
        assert!(m.approx_eq(other, 1e-8), "{label} {cuboid}{key}");
    }
}

fn results_approx_eq(label: &str, a: &CubeResult, b: &CubeResult) {
    tables_approx_eq(&format!("{label}/m"), a.m_table(), b.m_table());
    tables_approx_eq(&format!("{label}/o"), a.o_table(), b.o_table());
    assert_eq!(
        a.total_exception_cells(),
        b.total_exception_cells(),
        "{label}: exception counts differ"
    );
    exceptions_cover(label, b, a);
    assert_eq!(a.path_tables().len(), b.path_tables().len());
    for (cuboid, table) in a.path_tables() {
        tables_approx_eq(
            &format!("{label}/path {cuboid}"),
            table,
            &b.path_tables()[cuboid],
        );
    }
}

/// Which batch reference an engine answers to.
#[derive(Clone, Copy)]
enum Kind {
    /// Algorithm 1: the cube of `mo_cubing::compute`, bit for bit.
    Mo,
    /// Algorithm 2: the cube of `popular_path::compute`.
    Pp,
}

type Factory =
    Box<dyn Fn(&CubeSchema, &CriticalLayers, &ExceptionPolicy) -> Box<dyn CubingEngine + Send>>;

/// One way of assembling an engine behind the trait.
struct Subject {
    label: &'static str,
    kind: Kind,
    make: Factory,
}

/// Every engine under contract.
fn subjects() -> Vec<Subject> {
    vec![
        Subject {
            label: "m/o-cubing",
            kind: Kind::Mo,
            make: Box::new(|s, l, p| {
                Box::new(MoCubingEngine::new(s.clone(), l.clone(), p.clone()).unwrap())
            }),
        },
        Subject {
            label: "popular path",
            kind: Kind::Pp,
            make: Box::new(|s, l, p| {
                Box::new(PopularPathEngine::new(s.clone(), l.clone(), p.clone(), None).unwrap())
            }),
        },
    ]
}

#[test]
fn empty_batches_are_rejected() {
    let (schema, layers, tuples) = wide_dataset(1);
    let policy = ExceptionPolicy::slope_threshold(0.3);
    for subject in subjects() {
        let label = &subject.label;
        let mut engine = (subject.make)(&schema, &layers, &policy);
        assert!(engine.ingest_unit(&[]).is_err(), "{label}");
        // Refused just the same with a unit held, which it leaves as it
        // was.
        engine.ingest_unit(&tuples).unwrap();
        let (cube, stats) = (result_bits(engine.result()), *engine.stats());
        assert!(engine.ingest_unit(&[]).is_err(), "{label}");
        assert_eq!(result_bits(engine.result()), cube, "{label}");
        assert_eq!(*engine.stats(), stats, "{label}");
    }
}

/// A measure's interval and bit patterns.
fn bits(m: &Isb) -> (i64, i64, u64, u64) {
    let (start, end) = m.interval();
    (start, end, m.base().to_bits(), m.slope().to_bits())
}

/// Everything of a result a consumer can read, measures by their bits.
fn result_bits(result: &CubeResult) -> Vec<String> {
    let mut cells: Vec<String> = Vec::new();
    let tables = [("m", result.m_table()), ("o", result.o_table())];
    for (tag, table) in tables {
        cells.extend(
            table
                .iter()
                .map(|(k, m)| format!("{tag} {k} {:?}", bits(m))),
        );
    }
    for (cuboid, key, m) in result.iter_exceptions() {
        cells.push(format!("exc {cuboid}{key} {:?}", bits(m)));
    }
    for (cuboid, table) in result.path_tables() {
        cells.extend(
            table
                .iter()
                .map(|(k, m)| format!("path {cuboid}{k} {:?}", bits(m))),
        );
    }
    cells.sort();
    cells
}

#[test]
fn failed_unit_leaves_the_engine_as_it_was() {
    let (schema, layers, tuples) = wide_dataset(2);
    let policy = ExceptionPolicy::slope_threshold(0.3);
    for subject in subjects() {
        let label = &subject.label;
        let mut engine = (subject.make)(&schema, &layers, &policy);
        engine.ingest_unit(&tuples).unwrap();
        let (cube, stats) = (result_bits(engine.result()), *engine.stats());
        // A structurally invalid batch (wrong arity) for a new window
        // fails and leaves the engine on its unit...
        let bad = vec![MTuple::new(vec![0], Isb::new(16, 31, 1.0, 0.1).unwrap())];
        assert!(engine.ingest_unit(&bad).is_err(), "{label}");
        assert_eq!(result_bits(engine.result()), cube, "{label}");
        assert_eq!(*engine.stats(), stats, "{label}");
        // ...and a valid batch for that window is then its unit: exactly
        // the cube a fresh engine computes for it.
        let next = in_unit(&tuples, tuples.len(), 1);
        let delta = engine.ingest_unit(&next).unwrap();
        assert_eq!(delta.unit, 1, "{label}");
        let mut fresh = (subject.make)(&schema, &layers, &policy);
        fresh.ingest_unit(&next).unwrap();
        results_approx_eq(label, engine.result(), fresh.result());
    }
}

#[test]
fn a_unit_is_cubed_once() {
    let (schema, layers, tuples) = wide_dataset(3);
    let policy = ExceptionPolicy::slope_threshold(0.3);
    let (held, rest) = tuples.split_at(4500);
    for subject in subjects() {
        let label = &subject.label;
        let mut engine = (subject.make)(&schema, &layers, &policy);
        engine.ingest_unit(held).unwrap();
        let (cube, stats) = (result_bits(engine.result()), *engine.stats());
        // More tuples for the held window — the rest of the stream, or
        // the same batch again — are refused, not merged and not taken
        // as a replacement.
        for again in [rest, held] {
            let err = engine.ingest_unit(again).unwrap_err();
            assert!(matches!(err, CoreError::BadInput { .. }), "{label}: {err}");
            assert_eq!(result_bits(engine.result()), cube, "{label}");
            assert_eq!(*engine.stats(), stats, "{label}");
        }
        // The refusals left no trace: the next window is unit 1 and
        // cubes bit for bit what a fresh engine cubes for it.
        let next = in_unit(&tuples, tuples.len(), 1);
        let delta = engine.ingest_unit(&next).unwrap();
        assert_eq!((delta.unit, delta.window), (1, (16, 31)), "{label}");
        let mut fresh = (subject.make)(&schema, &layers, &policy);
        fresh.ingest_unit(&next).unwrap();
        assert_eq!(
            result_bits(engine.result()),
            result_bits(fresh.result()),
            "{label}"
        );
        let (s, f) = (engine.stats(), fresh.stats());
        assert_eq!(
            (s.cells_computed, s.rows_folded, s.cells_retained),
            (f.cells_computed, f.rows_folded, f.cells_retained),
            "{label}"
        );
    }
}

#[test]
fn rollover_clears_lapsed_exceptions() {
    // Feeding a later window must leave a cube for that window only —
    // for every engine behind the same trait calls.
    let (schema, layers, tuples) = wide_dataset(20);
    let policy = ExceptionPolicy::slope_threshold(0.3);
    for subject in subjects() {
        let label = &subject.label;
        let mut engine = (subject.make)(&schema, &layers, &policy);
        let d0 = engine.ingest_unit(&tuples).unwrap();
        assert_eq!(d0.unit, 0, "{label}");
        assert!(!d0.appeared.is_empty(), "{label}: nothing to lapse");

        let next_window: Vec<MTuple> = (0..5u32)
            .map(|i| MTuple::new(vec![i, i], Isb::new(16, 31, 1.0, 0.5).unwrap()))
            .collect();
        let d1 = engine.ingest_unit(&next_window).unwrap();
        assert_eq!(d1.unit, 1, "{label}");
        assert_eq!(d1.window, (16, 31), "{label}");
        assert_eq!(engine.result().m_layer_cells(), 5, "{label}");
        // Deltas stay consistent across the rollover: every alarm the
        // first unit raised is either still exceptional in the new
        // window or reported as cleared.
        for cell in &d0.appeared {
            let still = engine
                .result()
                .exceptions_in(&cell.0)
                .is_some_and(|t| t.contains_key(&cell.1));
            assert!(
                still || d1.cleared.contains(cell),
                "{label}: lapsed exception {}{} neither retained nor cleared",
                cell.0,
                cell.1
            );
        }
    }
}

#[test]
fn deltas_are_sorted_and_each_unit_is_the_batch_cube() {
    each_unit_is_the_batch_cube(wide_dataset(71));
    each_unit_is_the_batch_cube(wide_dataset_3d(72));
}

fn each_unit_is_the_batch_cube(
    (schema, layers, tuples): (CubeSchema, CriticalLayers, Vec<MTuple>),
) {
    // Three units with shrinking batches: 6,000, 1,500 and 4 tuples.
    let dims = schema.num_dims();
    let policy = ExceptionPolicy::slope_threshold(0.3);
    let units = [
        in_unit(&tuples, tuples.len(), 0),
        in_unit(&tuples, 1500, 1),
        in_unit(&tuples, 4, 2),
    ];
    // Each unit's cube by the batch entry point of either algorithm.
    let batch: Vec<(CubeResult, CubeResult)> = units
        .iter()
        .map(|unit| {
            (
                mo_cubing::compute(&schema, &layers, &policy, unit).unwrap(),
                popular_path::compute(&schema, &layers, &policy, None, unit).unwrap(),
            )
        })
        .collect();
    for subject in subjects() {
        let mut engine = (subject.make)(&schema, &layers, &policy);
        for (i, unit) in units.iter().enumerate() {
            let label = format!("{} {dims}-D unit {i}", subject.label);
            let delta = engine.ingest_unit(unit).unwrap();
            assert!(delta.is_sorted(), "{label}");
            assert_eq!(delta.tuples, unit.len(), "{label}");
            let result = engine.result();
            let reference = match subject.kind {
                Kind::Mo => &batch[i].0,
                Kind::Pp => &batch[i].1,
            };
            // Every engine is the batch algorithm: same work, not just
            // the same cube.
            let (s, r) = (engine.stats(), reference.stats());
            assert_eq!(s.cells_computed, r.cells_computed, "{label}");
            assert_eq!(s.cuboids_computed, r.cuboids_computed, "{label}");
            assert_eq!(s.rows_folded, r.rows_folded, "{label}");
            results_approx_eq(&label, result, reference);
            assert_eq!(result.algorithm(), reference.algorithm(), "{label}");
            if let Kind::Mo = subject.kind {
                assert_eq!(result_bits(result), result_bits(reference), "{label}");
            }
        }
    }
}

#[test]
fn engines_are_send() {
    // Compile-time Send audit: a serving layer moves whole engines onto
    // the thread that owns their tenant, so every engine must be Send.
    fn assert_send<T: Send>() {}
    assert_send::<MoCubingEngine>();
    assert_send::<PopularPathEngine>();
    assert_send::<Box<dyn CubingEngine + Send>>();
}

/// The footnote-7 law, enforced through the trait with type-erased
/// engines so any pair of implementations can be cross-checked the same
/// way.
#[test]
fn algorithm_one_exceptions_are_a_superset_of_algorithm_two() {
    for seed in [10u64, 11, 12] {
        let (schema, layers, tuples) = random_dataset(seed, 200);
        let policy = ExceptionPolicy::slope_threshold(0.25);
        let mut engines: Vec<Box<dyn CubingEngine>> = vec![
            Box::new(MoCubingEngine::new(schema.clone(), layers.clone(), policy.clone()).unwrap()),
            Box::new(PopularPathEngine::new(schema, layers, policy, None).unwrap()),
        ];
        for engine in &mut engines {
            engine.ingest_unit(&tuples).unwrap();
        }
        let (a1, a2) = (engines[0].result(), engines[1].result());

        // Identical critical layers.
        tables_approx_eq(&format!("seed {seed}/m"), a1.m_table(), a2.m_table());
        tables_approx_eq(&format!("seed {seed}/o"), a1.o_table(), a2.o_table());

        // Superset with matching measures.
        assert!(a2.total_exception_cells() <= a1.total_exception_cells());
        exceptions_cover(&format!("seed {seed}: A2 in A1"), a1, a2);
    }
}
