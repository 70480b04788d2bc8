//! Cross-crate end-to-end tests: generator → both cubing algorithms →
//! drilling; raw records → online engine → alarms → tilt history.

use regcube::core::result::Algorithm;
use regcube::prelude::*;
use regcube::stream::{run_engine, StreamEvent};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

fn workload(seed: u64) -> (CubeSchema, CriticalLayers, Vec<MTuple>) {
    let spec = DatasetSpec::new(3, 2, 4, 1_500).unwrap().with_seed(seed);
    let dataset = Dataset::generate(spec).unwrap();
    let layers = CriticalLayers::new(
        &dataset.schema,
        dataset.o_layer.clone(),
        dataset.m_layer.clone(),
    )
    .unwrap();
    let tuples = dataset
        .tuples
        .iter()
        .map(|t| MTuple::new(t.ids.clone(), t.isb))
        .collect();
    (dataset.schema.clone(), layers, tuples)
}

#[test]
fn generated_datasets_flow_through_both_algorithms() {
    let (schema, layers, tuples) = workload(1);
    let policy = ExceptionPolicy::slope_threshold(0.5);

    let a1 = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();
    let a2 = popular_path::compute(&schema, &layers, &policy, None, &tuples).unwrap();

    assert_eq!(a1.m_layer_cells(), a2.m_layer_cells());
    assert_eq!(a1.o_layer_cells(), a2.o_layer_cells());
    assert!(a2.total_exception_cells() <= a1.total_exception_cells());
    assert!(a1.stats().cells_computed >= a2.stats().cells_computed);

    // Every o-layer measure agrees to high precision.
    for (key, m1) in a1.o_table() {
        let m2 = a2.o_table().get(key).expect("same o-layer cells");
        assert!(m1.approx_eq(m2, 1e-7), "{key}: {m1} vs {m2}");
    }
}

#[test]
fn drilling_from_alarms_reaches_the_m_layer() {
    let (schema, layers, tuples) = workload(2);
    let policy = ExceptionPolicy::slope_threshold(0.4);
    let cube = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();

    let alarms = cube.exceptional_o_cells();
    assert!(!alarms.is_empty(), "the default mixture produces hot cells");
    let (key, _) = alarms[0];
    let hits = regcube::core::drill::drill_descendants(&schema, &cube, layers.o_layer(), key);
    assert!(
        hits.iter().any(|h| h.cuboid == *layers.m_layer()),
        "drilling must surface m-layer supporters"
    );
    // All hits really are descendants of the drilled cell.
    for hit in &hits {
        let projected =
            regcube::olap::cell::project_key(&schema, &hit.cuboid, hit.key.ids(), layers.o_layer());
        assert_eq!(projected.as_slice(), key.ids());
    }
}

#[test]
fn online_pipeline_replays_generated_streams() {
    // Build raw records from a generated dataset and push them through
    // the channel-driven engine with the popular-path algorithm.
    let spec = DatasetSpec::new(2, 2, 3, 200)
        .unwrap()
        .with_series_len(24)
        .with_seed(3);
    let dataset = Dataset::generate(spec).unwrap();
    let ticks_per_unit = 8usize; // 24 ticks = 3 units

    // The sim glue expands the fitted streams tick-major, ready to replay.
    let source = regcube::sim::dataset_source(&dataset, ticks_per_unit).unwrap();
    assert_eq!(
        regcube::sim::dataset_records(&dataset).len(),
        dataset.tuples.len() * 24
    );

    let engine = Arc::new(Mutex::new(
        regcube::stream::online::EngineConfig::new(
            dataset.schema.clone(),
            dataset.o_layer.clone(),
            dataset.m_layer.clone(),
        )
        .with_policy(ExceptionPolicy::slope_threshold(0.8))
        .with_tilt(TiltSpec::new(vec![("unit", 3), ("epoch", 4)]).unwrap())
        .with_ticks_per_unit(ticks_per_unit)
        .with_algorithm(Algorithm::PopularPath)
        .build()
        .unwrap(),
    ));

    let (tx, rx) = mpsc::channel::<StreamEvent>();
    let producer = std::thread::spawn(move || source.send_all(&tx));
    let reports = run_engine(&engine, &rx).unwrap();
    producer.join().unwrap().unwrap();

    assert_eq!(reports.len(), 3);
    for r in &reports {
        assert_eq!(r.m_cells, dataset.tuples.len());
    }
    let engine = engine.lock().unwrap();
    assert_eq!(engine.units_closed(), 3);
    // Tilt frames cover all three units contiguously for every stream.
    let sample = CellKey::new(dataset.tuples[0].ids.clone());
    let frame = engine.tilt_frame(&sample).expect("frame exists");
    let merged = frame.merge_all().unwrap().unwrap();
    assert_eq!(merged.interval(), (0, 23));
}

#[test]
fn per_cuboid_policy_scopes_apply_end_to_end() {
    let (schema, layers, tuples) = workload(4);
    // Make one specific between-cuboid infinitely strict; it must retain
    // no exceptions while others do.
    let strict = layers
        .lattice()
        .enumerate()
        .into_iter()
        .find(|c| c != layers.m_layer() && c != layers.o_layer())
        .unwrap();
    let policy = ExceptionPolicy::slope_threshold(0.3)
        .with_cuboid_threshold(strict.clone(), f64::INFINITY)
        .unwrap();
    let cube = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();
    assert!(cube.exceptions_in(&strict).is_none());
    assert!(cube.total_exception_cells() > 0);
}

#[test]
fn tilt_and_cube_compose_over_long_streams() {
    // Feed 40 units into a small frame and verify the merged regression
    // matches a direct fit over the retained span.
    let mut frame: TiltFrame<Isb> =
        TiltFrame::new(TiltSpec::new(vec![("u", 4), ("v", 3), ("w", 2)]).unwrap());
    let full = TimeSeries::from_fn(0, 40 * 5 - 1, |t| 2.0 + 0.03 * t as f64).unwrap();
    for u in 0..40 {
        let w = full.window(u * 5, u * 5 + 4).unwrap();
        frame.push(Isb::fit(&w).unwrap()).unwrap();
    }
    let merged = frame.merge_all().unwrap().unwrap();
    let direct = Isb::fit(&full.window(merged.start(), merged.end()).unwrap()).unwrap();
    assert!(merged.approx_eq(&direct, 1e-8));
    assert!(frame.retained_slots() <= 9);
}

#[test]
fn cubing_works_on_ragged_hierarchies() {
    // Real-world dimensions are not balanced; both algorithms must agree
    // on randomly ragged concept hierarchies too.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let schema = regcube::datagen::ragged_schema(11, 2, 3, 3).unwrap();
    let m_layer = CuboidSpec::new(vec![3, 3]);
    let o_layer = CuboidSpec::new(vec![1, 0]);
    let layers = CriticalLayers::new(&schema, o_layer, m_layer.clone()).unwrap();

    let mut rng = StdRng::seed_from_u64(12);
    let cards: Vec<u32> = (0..2)
        .map(|d| schema.dims()[d].hierarchy().cardinality(3))
        .collect();
    let mut tuples = Vec::new();
    for _ in 0..300 {
        let ids: Vec<u32> = cards.iter().map(|&c| rng.random_range(0..c)).collect();
        let slope: f64 = rng.random_range(-1.0..1.0);
        let z = TimeSeries::from_fn(0, 15, |t| slope * t as f64).unwrap();
        tuples.push(MTuple::new(ids, Isb::fit(&z).unwrap()));
    }

    let policy = ExceptionPolicy::slope_threshold(0.8);
    let a1 = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();
    let a2 = popular_path::compute(&schema, &layers, &policy, None, &tuples).unwrap();

    assert_eq!(a1.o_layer_cells(), a2.o_layer_cells());
    for (k, m1) in a1.o_table() {
        assert!(a2.o_table()[k].approx_eq(m1, 1e-7));
    }
    assert!(a2.total_exception_cells() <= a1.total_exception_cells());
}

#[test]
fn mlr_cube_composes_with_generated_schemas() {
    // The Section 6.2 multi-variable cube on a generated schema: regress
    // on time and one spatial coordinate, roll up to the o-layer. A
    // roll-up projects each m-cell's key and merges the siblings under
    // the same-design rule (responses add, XᵀX agrees).
    use regcube::olap::cell::project_key;
    use regcube::regress::mlr::MlrMeasure;
    use std::collections::HashMap;

    let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
    let (m_layer, apex) = (CuboidSpec::new(vec![2, 2]), CuboidSpec::new(vec![0, 0]));
    let mut rolled: HashMap<Vec<u32>, MlrMeasure> = HashMap::new();
    for a in 0..4u32 {
        for b in 0..4u32 {
            let mut m = MlrMeasure::empty(3).unwrap();
            for t in 0..12 {
                for x in 0..2 {
                    let z = (a + b) as f64 + 0.05 * t as f64 - 0.1 * x as f64;
                    m.push_row(&[1.0, t as f64, x as f64], z).unwrap();
                }
            }
            let key = project_key(&schema, &m_layer, &[a, b], &apex);
            match rolled.get_mut(&key) {
                Some(sum) => sum.merge_same_design(&m).unwrap(),
                None => {
                    rolled.insert(key, m);
                }
            }
        }
    }
    let apex = rolled[&vec![0, 0]].solve().unwrap();
    // Σ(a+b) over the 4x4 grid = 48; Σ0.05 = 0.8; Σ-0.1 = -1.6.
    assert!((apex[0] - 48.0).abs() < 1e-7, "{apex:?}");
    assert!((apex[1] - 0.8).abs() < 1e-8);
    assert!((apex[2] + 1.6).abs() < 1e-8);
}
