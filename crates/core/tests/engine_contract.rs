//! Trait-level contract tests for [`CubingEngine`] implementations.
//!
//! Every engine must satisfy two laws, checked here generically (so a
//! future backend is pinned by adding one line to `all_engines`):
//!
//! 1. **Incremental/batch equivalence** — splitting one unit's tuple
//!    stream into same-window batches and ingesting them sequentially
//!    yields the same cube (critical layers, exception stores, path
//!    tables) as the one-shot batch `compute` entry point.
//! 2. **Footnote 7 superset** — after identical ingestion, Algorithm 1
//!    retains a superset of Algorithm 2's exception cells, with
//!    identical measures where both retain a cell, and both agree
//!    exactly on the critical layers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use regcube_core::columnar::ColumnarCubingEngine;
use regcube_core::engine::{CubingEngine, MoCubingEngine, PopularPathEngine};
use regcube_core::shard::ShardedEngine;
use regcube_core::table::CuboidTable;
use regcube_core::{mo_cubing, popular_path, CriticalLayers, CubeResult, ExceptionPolicy, MTuple};
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_regress::{Isb, TimeSeries};

fn random_dataset(seed: u64, n: usize) -> (CubeSchema, CriticalLayers, Vec<MTuple>) {
    let (dims, depth, fanout) = (2usize, 2u8, 3u32);
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

fn tables_approx_eq(label: &str, a: &CuboidTable, b: &CuboidTable) {
    assert_eq!(a.len(), b.len(), "{label}: cell counts differ");
    for (key, m) in a {
        let other = b
            .get(key)
            .unwrap_or_else(|| panic!("{label}: cell {key} missing"));
        assert!(m.approx_eq(other, 1e-8), "{label} {key}: {m} vs {other}");
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
    for (cuboid, key, m) in a.iter_exceptions() {
        let other = b
            .exceptions_in(cuboid)
            .and_then(|t| t.get(key))
            .unwrap_or_else(|| panic!("{label}: exception {cuboid}{key} missing"));
        assert!(m.approx_eq(other, 1e-8), "{label} {cuboid}{key}");
    }
    assert_eq!(a.path_tables().len(), b.path_tables().len());
    for (cuboid, table) in a.path_tables() {
        tables_approx_eq(
            &format!("{label}/path {cuboid}"),
            table,
            &b.path_tables()[cuboid],
        );
    }
}

/// The generic half of law 1: ingest `tuples` in `chunk`-sized
/// same-window batches and compare against a reference result.
fn assert_incremental_matches_batch<E: CubingEngine>(
    label: &str,
    mut engine: E,
    tuples: &[MTuple],
    chunk: usize,
    reference: &CubeResult,
) {
    let mut units_opened = 0;
    for batch in tuples.chunks(chunk) {
        let delta = engine.ingest_unit(batch).unwrap();
        if delta.opened_unit {
            units_opened += 1;
        }
    }
    assert_eq!(
        units_opened, 1,
        "{label}: same-window batches must stay in one unit"
    );
    results_approx_eq(label, engine.result(), reference);
    assert_eq!(engine.result().algorithm(), reference.algorithm());
}

#[test]
fn mo_engine_incremental_ingestion_matches_batch_compute() {
    for (seed, chunk) in [(1u64, 1usize), (2, 7), (3, 50)] {
        let (schema, layers, tuples) = random_dataset(seed, 120);
        let policy = ExceptionPolicy::slope_threshold(0.3);
        let reference = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();
        let engine = MoCubingEngine::new(schema.clone(), layers.clone(), policy.clone()).unwrap();
        assert_incremental_matches_batch(
            &format!("mo seed {seed} chunk {chunk}"),
            engine,
            &tuples,
            chunk,
            &reference,
        );
        // Transient mode (the batch wrapper's memory model) obeys the
        // same law: same-window batches fold + recompute exactly.
        let transient = MoCubingEngine::transient(schema, layers, policy).unwrap();
        assert_incremental_matches_batch(
            &format!("mo-transient seed {seed} chunk {chunk}"),
            transient,
            &tuples,
            chunk,
            &reference,
        );
    }
}

#[test]
fn popular_path_engine_incremental_ingestion_matches_batch_compute() {
    for (seed, chunk) in [(4u64, 1usize), (5, 9), (6, 40)] {
        let (schema, layers, tuples) = random_dataset(seed, 120);
        let policy = ExceptionPolicy::slope_threshold(0.3);
        let reference = popular_path::compute(&schema, &layers, &policy, None, &tuples).unwrap();
        let engine = PopularPathEngine::new(schema, layers, policy, None).unwrap();
        assert_incremental_matches_batch(
            &format!("pp seed {seed} chunk {chunk}"),
            engine,
            &tuples,
            chunk,
            &reference,
        );
    }
}

#[test]
fn columnar_engine_incremental_ingestion_matches_batch_compute() {
    // Law 1 for the columnar backend: the struct-of-arrays roll-up is a
    // drop-in for Algorithm 1 under every batching.
    for (seed, chunk) in [(7u64, 1usize), (8, 7), (9, 50)] {
        let (schema, layers, tuples) = random_dataset(seed, 120);
        let policy = ExceptionPolicy::slope_threshold(0.3);
        let reference = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();
        let engine = ColumnarCubingEngine::new(schema, layers, policy).unwrap();
        assert_incremental_matches_batch(
            &format!("columnar seed {seed} chunk {chunk}"),
            engine,
            &tuples,
            chunk,
            &reference,
        );
    }
}

#[test]
fn columnar_matches_row_at_every_shard_count() {
    // The layout pin: sharded columnar cubing equals the unsharded row
    // reference at n ∈ {1, 2, 3, 7} — full cube and sorted deltas.
    let (schema, layers, tuples) = random_dataset(70, 150);
    let policy = ExceptionPolicy::slope_threshold(0.3);
    let mut reference =
        MoCubingEngine::transient(schema.clone(), layers.clone(), policy.clone()).unwrap();
    let ref_delta = reference.ingest_unit(&tuples).unwrap();
    for shards in [1usize, 2, 3, 7] {
        let mut engine =
            ShardedEngine::columnar(schema.clone(), layers.clone(), policy.clone(), shards)
                .unwrap();
        let delta = engine.ingest_unit(&tuples).unwrap();
        results_approx_eq(
            &format!("columnar n={shards}"),
            engine.result(),
            reference.result(),
        );
        // Deltas are sorted by contract, so they compare directly.
        assert_eq!(delta.appeared, ref_delta.appeared, "n={shards}");
        assert_eq!(delta.cleared, ref_delta.cleared, "n={shards}");
        assert_eq!(engine.result().algorithm(), reference.result().algorithm());
    }
}

#[test]
fn columnar_rollover_matches_row() {
    // Window rollovers through the columnar backend (sharded and not):
    // after every unit the cube and the delta stream must agree with
    // the row reference, including units that leave shards stale.
    let (schema, layers, tuples) = random_dataset(71, 90);
    let policy = ExceptionPolicy::slope_threshold(0.3);
    let mut columnar =
        ColumnarCubingEngine::new(schema.clone(), layers.clone(), policy.clone()).unwrap();
    let mut sharded =
        ShardedEngine::columnar(schema.clone(), layers.clone(), policy.clone(), 3).unwrap();
    let mut single = MoCubingEngine::transient(schema, layers, policy).unwrap();
    for unit in 0..3usize {
        let take = [90usize, 30, 4][unit];
        let start = unit as i64 * 16;
        let batch: Vec<MTuple> = tuples[..take]
            .iter()
            .map(|t| {
                let isb = t.isb();
                MTuple::new(
                    t.ids().to_vec(),
                    Isb::new(start, start + 15, isb.base(), isb.slope()).unwrap(),
                )
            })
            .collect();
        let dc = columnar.ingest_unit(&batch).unwrap();
        let ds = sharded.ingest_unit(&batch).unwrap();
        let du = single.ingest_unit(&batch).unwrap();
        for (label, delta, engine) in [
            ("columnar", &dc, columnar.result()),
            ("columnar x3", &ds, sharded.result()),
        ] {
            assert_eq!(delta.unit, du.unit, "unit {unit} {label}");
            results_approx_eq(&format!("unit {unit} {label}"), engine, single.result());
            assert_eq!(delta.appeared, du.appeared, "unit {unit} {label} appeared");
            assert_eq!(delta.cleared, du.cleared, "unit {unit} {label} cleared");
        }
    }
}

#[test]
fn layouts_agree_up_to_f64_reassociation() {
    // The cross-layout contract on non-dyadic data: Row and Columnar
    // agree exactly on cell sets and deltas and bit-for-bit on the
    // m-layer, but fold siblings in different orders (hash order vs
    // sorted cell-id order), so aggregated measures are equal only up
    // to reassociation of the `f64` sums. The test would fail if the
    // layouts were byte-identical on this input: it requires at least
    // one aggregated measure whose bits differ.
    fn bits(m: &Isb) -> (i64, i64, u64, u64) {
        let (start, end) = m.interval();
        (start, end, m.base().to_bits(), m.slope().to_bits())
    }
    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
    }
    /// Same keys, measures within 1e-12 relative; returns how many
    /// measures differ in their bit patterns.
    fn aggregated_diffs(label: &str, row: &CuboidTable, col: &CuboidTable) -> usize {
        assert_eq!(row.len(), col.len(), "{label}: cell counts differ");
        let mut differing = 0;
        for (key, r) in row {
            let c = col
                .get(key)
                .unwrap_or_else(|| panic!("{label}: cell {key} missing"));
            assert_eq!(r.interval(), c.interval(), "{label} {key}");
            assert!(
                close(r.base(), c.base()) && close(r.slope(), c.slope()),
                "{label} {key}: {r} vs {c}"
            );
            differing += usize::from(bits(r) != bits(c));
        }
        differing
    }

    let schema = CubeSchema::synthetic(2, 3, 6).unwrap();
    let layers = CriticalLayers::new(
        &schema,
        CuboidSpec::new(vec![1, 1]),
        CuboidSpec::new(vec![3, 3]),
    )
    .unwrap();
    let policy = ExceptionPolicy::slope_threshold(0.3);
    let mut rng = StdRng::seed_from_u64(2002);
    let mut differing = 0;
    for shards in [1usize, 3] {
        let mut row =
            ShardedEngine::mo_cubing(schema.clone(), layers.clone(), policy.clone(), shards)
                .unwrap();
        let mut col =
            ShardedEngine::columnar(schema.clone(), layers.clone(), policy.clone(), shards)
                .unwrap();
        for unit in 0..4i64 {
            let start = unit * 16;
            let batch: Vec<MTuple> = (0..1500)
                .map(|_| {
                    let ids = vec![rng.random_range(0..216), rng.random_range(0..216)];
                    let (base, slope) = (rng.random_range(0.0..4.0), rng.random_range(-1.2..1.2));
                    MTuple::new(ids, Isb::new(start, start + 15, base, slope).unwrap())
                })
                .collect();
            let dr = row.ingest_unit(&batch).unwrap();
            let dc = col.ingest_unit(&batch).unwrap();
            let label = format!("n={shards} unit {unit}");
            assert_eq!(
                (dr.unit, dr.window, dr.opened_unit, dr.tuples),
                (dc.unit, dc.window, dc.opened_unit, dc.tuples),
                "{label}"
            );
            assert_eq!(dr.appeared, dc.appeared, "{label} appeared");
            assert_eq!(dr.cleared, dc.cleared, "{label} cleared");

            let (r, c) = (row.result(), col.result());
            assert!(r.m_layer_cells() >= 1000, "{label}: m-layer too small");
            assert_eq!(r.m_layer_cells(), c.m_layer_cells(), "{label}");
            for (key, m) in r.m_table() {
                let other = c.m_table().get(key).map(bits);
                assert_eq!(Some(bits(m)), other, "{label} m-cell {key}");
            }
            differing += aggregated_diffs(&format!("{label}/o"), r.o_table(), c.o_table());
            for cuboid in layers.lattice().bottom_up_order() {
                match (r.exceptions_in(&cuboid), c.exceptions_in(&cuboid)) {
                    (Some(rt), Some(ct)) => {
                        differing += aggregated_diffs(&format!("{label}/{cuboid}"), rt, ct);
                    }
                    (None, None) => {}
                    _ => panic!("{label}: exception store of {cuboid} on one layout only"),
                }
            }
        }
    }
    assert!(
        differing > 0,
        "no aggregated measure was reassociated: the input no longer exercises the contract"
    );
}

#[test]
fn sharded_engine_incremental_ingestion_matches_batch_compute() {
    // Law 1 for the sharded backend at n = 1, 2, 3, 7: hash-partitioned
    // parallel cubing + Theorem 3.2 merge equals the unsharded batch
    // compute, for one-shot and chunked same-window ingestion alike.
    for (shards, chunk) in [(1usize, 50usize), (2, 11), (3, 7), (7, 1)] {
        let (schema, layers, tuples) = random_dataset(40 + shards as u64, 120);
        let policy = ExceptionPolicy::slope_threshold(0.3);
        let reference = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();
        let engine = ShardedEngine::mo_cubing(schema, layers, policy, shards).unwrap();
        assert_incremental_matches_batch(
            &format!("sharded n={shards} chunk {chunk}"),
            engine,
            &tuples,
            chunk,
            &reference,
        );
    }
}

#[test]
fn sharded_engine_rollover_matches_unsharded() {
    // Window rollovers: replay three units through sharded and
    // unsharded engines; after every unit the cubes must agree, even
    // when a unit activates only a few shards and leaves the rest
    // holding the previous window's partition.
    let (schema, layers, tuples) = random_dataset(50, 90);
    let policy = ExceptionPolicy::slope_threshold(0.3);
    let mut sharded =
        ShardedEngine::mo_cubing(schema.clone(), layers.clone(), policy.clone(), 3).unwrap();
    let mut single = MoCubingEngine::transient(schema, layers, policy).unwrap();
    for unit in 0..3usize {
        // Shrinking batches: unit 2 has 4 tuples, so several shards
        // stay on an old window and must be excluded from the merge.
        let take = [90usize, 30, 4][unit];
        let start = unit as i64 * 16;
        let batch: Vec<MTuple> = tuples[..take]
            .iter()
            .map(|t| {
                let isb = t.isb();
                MTuple::new(
                    t.ids().to_vec(),
                    Isb::new(start, start + 15, isb.base(), isb.slope()).unwrap(),
                )
            })
            .collect();
        let ds = sharded.ingest_unit(&batch).unwrap();
        let du = single.ingest_unit(&batch).unwrap();
        assert!(ds.opened_unit && du.opened_unit, "unit {unit}");
        assert_eq!(ds.unit, du.unit, "unit {unit}");
        results_approx_eq(
            &format!("rollover unit {unit}"),
            sharded.result(),
            single.result(),
        );
        // Deltas are sorted by contract, so they compare directly.
        assert_eq!(ds.appeared, du.appeared, "unit {unit} appeared");
        assert_eq!(ds.cleared, du.cleared, "unit {unit} cleared");
    }
}

#[test]
fn sharded_engines_uphold_footnote_7() {
    // The superset law holds with sharded engines in the mix: sharded
    // A1 == unsharded A1 ⊇ sharded A2 ⊇ unsharded A2's exceptions.
    let (schema, layers, tuples) = random_dataset(60, 200);
    let policy = ExceptionPolicy::slope_threshold(0.25);
    let mut engines: Vec<(&str, Box<dyn CubingEngine>)> = vec![
        (
            "a1",
            Box::new(MoCubingEngine::new(schema.clone(), layers.clone(), policy.clone()).unwrap()),
        ),
        (
            "sharded-a1",
            Box::new(
                ShardedEngine::mo_cubing(schema.clone(), layers.clone(), policy.clone(), 4)
                    .unwrap(),
            ),
        ),
        (
            "sharded-a2",
            Box::new(
                ShardedEngine::popular_path(schema.clone(), layers.clone(), policy.clone(), 4)
                    .unwrap(),
            ),
        ),
        (
            "a2",
            Box::new(PopularPathEngine::new(schema, layers, policy, None).unwrap()),
        ),
    ];
    for (_, engine) in &mut engines {
        engine.ingest_unit(&tuples).unwrap();
    }
    // Ordered from the largest retained exception set to the smallest:
    // each must contain the next (with identical critical layers).
    for pair in engines.windows(2) {
        let ((la, a), (lb, b)) = (&pair[0], &pair[1]);
        let (ra, rb) = (a.result(), b.result());
        tables_approx_eq(&format!("{la}/{lb} m"), ra.m_table(), rb.m_table());
        tables_approx_eq(&format!("{la}/{lb} o"), ra.o_table(), rb.o_table());
        assert!(
            rb.total_exception_cells() <= ra.total_exception_cells(),
            "{lb} retains more than {la}"
        );
        for (cuboid, key, _) in rb.iter_exceptions() {
            assert!(
                ra.exceptions_in(cuboid)
                    .is_some_and(|t| t.contains_key(key)),
                "{lb} exception {cuboid}{key} missing from {la}"
            );
        }
    }
    // And the two A1 variants agree exactly.
    assert_eq!(
        engines[0].1.result().total_exception_cells(),
        engines[1].1.result().total_exception_cells()
    );
}

#[test]
fn engines_are_send() {
    // Compile-time Send audit: a sharded engine moves its inner engines
    // to worker threads, so every backend must be Send (and the sharded
    // wrapper itself must be Send to stack behind further seams).
    fn assert_send<T: Send>() {}
    assert_send::<MoCubingEngine>();
    assert_send::<PopularPathEngine>();
    assert_send::<ColumnarCubingEngine>();
    assert_send::<Box<dyn CubingEngine + Send>>();
    assert_send::<ShardedEngine<MoCubingEngine>>();
    assert_send::<ShardedEngine<PopularPathEngine>>();
    assert_send::<ShardedEngine<ColumnarCubingEngine>>();
}

/// Law 2, enforced through the trait with type-erased engines so any
/// pair of implementations can be cross-checked the same way.
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
            // Mixed batch sizes: the invariant holds regardless of how
            // the unit's tuples arrived.
            let split = tuples.len() / 2;
            engine.ingest_unit(&tuples[..split]).unwrap();
            engine.ingest_unit(&tuples[split..]).unwrap();
        }
        let (a1, a2) = (engines[0].result(), engines[1].result());

        // Identical critical layers.
        tables_approx_eq(&format!("seed {seed}/m"), a1.m_table(), a2.m_table());
        tables_approx_eq(&format!("seed {seed}/o"), a1.o_table(), a2.o_table());

        // Superset with matching measures.
        assert!(a2.total_exception_cells() <= a1.total_exception_cells());
        for (cuboid, key, isb2) in a2.iter_exceptions() {
            let isb1 = a1
                .exceptions_in(cuboid)
                .and_then(|t| t.get(key))
                .unwrap_or_else(|| {
                    panic!("seed {seed}: A2 exception {cuboid}{key} missing from A1")
                });
            assert!(isb1.approx_eq(isb2, 1e-8), "seed {seed}: {cuboid}{key}");
        }
    }
}

#[test]
fn unit_rollover_is_part_of_the_contract() {
    // Feeding a later window must open a new unit and leave a cube for
    // that window only — for every engine behind the same trait calls.
    let (schema, layers, tuples) = random_dataset(20, 60);
    let policy = ExceptionPolicy::slope_threshold(0.3);
    let engines: Vec<Box<dyn CubingEngine>> = vec![
        Box::new(MoCubingEngine::new(schema.clone(), layers.clone(), policy.clone()).unwrap()),
        Box::new(PopularPathEngine::new(schema, layers, policy, None).unwrap()),
    ];
    for mut engine in engines {
        let d0 = engine.ingest_unit(&tuples).unwrap();
        assert!(d0.opened_unit);
        assert_eq!(d0.unit, 0);

        let next_window: Vec<MTuple> = (0..5u32)
            .map(|i| MTuple::new(vec![i, i], Isb::new(16, 31, 1.0, 0.5).unwrap()))
            .collect();
        let d1 = engine.ingest_unit(&next_window).unwrap();
        assert!(d1.opened_unit);
        assert_eq!(d1.unit, 1);
        assert_eq!(d1.window, (16, 31));
        assert_eq!(engine.result().m_layer_cells(), 5);
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
                "lapsed exception {}{} neither retained nor cleared",
                cell.0,
                cell.1
            );
        }
    }
}
