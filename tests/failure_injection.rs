//! Failure injection: adversarial and degenerate inputs must produce
//! errors (or well-defined results), never panics, across the public API.

use regcube::core::result::Algorithm;
use regcube::prelude::*;
use regcube::stream::online::EngineConfig;
use regcube::stream::StreamError;

#[test]
fn non_finite_values_flow_through_without_panicking() {
    // NaN/Inf observations are the stream reality of broken sensors. The
    // math propagates them (fits become NaN) but nothing panics, and the
    // exception policy treats NaN scores as non-exceptional (NaN >= t is
    // false), so broken cells never trigger alarms by accident.
    let z = TimeSeries::new(0, vec![1.0, f64::NAN, 2.0, f64::INFINITY]).unwrap();
    let fit = LinearFit::fit(&z);
    assert!(fit.slope.is_nan() || fit.slope.is_infinite());

    let isb = Isb::fit(&z).unwrap();
    let schema = CubeSchema::synthetic(1, 1, 2).unwrap();
    let layers =
        CriticalLayers::new(&schema, CuboidSpec::new(vec![0]), CuboidSpec::new(vec![1])).unwrap();
    let cube = mo_cubing::compute(
        &schema,
        &layers,
        &ExceptionPolicy::slope_threshold(0.5),
        &[MTuple::new(vec![0], isb)],
    )
    .unwrap();
    assert_eq!(cube.exceptional_o_cells().len(), 0, "NaN never alarms");
}

#[test]
fn extreme_magnitudes_and_ticks_stay_finite_where_they_should() {
    // Huge-but-finite values: the fit remains finite.
    let z = TimeSeries::from_fn(1_000_000_000, 1_000_000_063, |t| {
        1e12 + 1e6 * (t % 7) as f64
    })
    .unwrap();
    let isb = Isb::fit(&z).unwrap();
    assert!(isb.base().is_finite() && isb.slope().is_finite());
    // Round-trips survive the magnitude.
    let back = isb.to_intval().to_isb();
    let tol = 1e-6 * isb.base().abs().max(1.0);
    assert!(back.approx_eq(&isb, tol));
}

#[test]
fn mismatched_windows_are_rejected_not_merged() {
    let a = Isb::new(0, 9, 1.0, 0.1).unwrap();
    let b = Isb::new(0, 19, 1.0, 0.1).unwrap();
    assert!(aggregate::merge_standard(&[a, b]).is_err());

    let schema = CubeSchema::synthetic(1, 1, 2).unwrap();
    let layers =
        CriticalLayers::new(&schema, CuboidSpec::new(vec![0]), CuboidSpec::new(vec![1])).unwrap();
    let tuples = vec![MTuple::new(vec![0], a), MTuple::new(vec![1], b)];
    assert!(mo_cubing::compute(&schema, &layers, &ExceptionPolicy::never(), &tuples).is_err());
    assert!(
        popular_path::compute(&schema, &layers, &ExceptionPolicy::never(), None, &tuples).is_err()
    );
}

#[test]
fn engine_survives_a_burst_of_bad_records() {
    let schema = CubeSchema::synthetic(2, 1, 2).unwrap();
    let mut engine = EngineConfig::new(
        schema,
        CuboidSpec::new(vec![0, 0]),
        CuboidSpec::new(vec![1, 1]),
    )
    .with_ticks_per_unit(4)
    .with_algorithm(Algorithm::MoCubing)
    .build()
    .unwrap();

    // Wrong arity, out-of-range member, out-of-window tick — all rejected.
    assert!(matches!(
        engine.ingest(&RawRecord::new(vec![0], 0, 1.0)),
        Err(StreamError::BadRecord { .. })
    ));
    assert!(matches!(
        engine.ingest(&RawRecord::new(vec![0, 9], 0, 1.0)),
        Err(StreamError::BadRecord { .. })
    ));
    assert!(matches!(
        engine.ingest(&RawRecord::new(vec![0, 0], 99, 1.0)),
        Err(StreamError::OutOfWindow { .. })
    ));

    // The engine still works normally afterwards.
    for t in 0..4 {
        engine
            .ingest(&RawRecord::new(vec![0, 0], t, t as f64))
            .unwrap();
    }
    let report = engine.close_unit().unwrap();
    assert_eq!(report.m_cells, 1);
}

#[test]
fn queries_on_foreign_cuboids_error_cleanly() {
    let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
    let layers = CriticalLayers::new(
        &schema,
        CuboidSpec::new(vec![1, 1]),
        CuboidSpec::new(vec![2, 2]),
    )
    .unwrap();
    let z = TimeSeries::from_fn(0, 9, |t| t as f64).unwrap();
    let cube = mo_cubing::compute(
        &schema,
        &layers,
        &ExceptionPolicy::never(),
        &[MTuple::new(vec![0, 0], Isb::fit(&z).unwrap())],
    )
    .unwrap();

    // A cuboid outside the lattice (coarser than the o-layer) still
    // answers point queries (aggregation is defined), while drilling it
    // returns nothing rather than panicking.
    let apex = CuboidSpec::new(vec![0, 0]);
    let key = CellKey::new(vec![0, 0]);
    let measure = regcube::core::query::cell_measure(&schema, &cube, &apex, &key).unwrap();
    assert!(measure.is_some());
    let hits = regcube::core::drill::drill_descendants(&schema, &cube, &apex, &key);
    assert!(hits.iter().all(|h| layers.lattice().contains(&h.cuboid)));

    // Arity-mismatched keys simply miss (no panic) in retained lookups.
    assert!(cube.get(layers.m_layer(), &CellKey::new(vec![0])).is_none());
}

#[test]
fn tilt_frame_rejects_duplicate_and_ancient_pushes() {
    let mut frame: TiltFrame<Isb> = TiltFrame::new(TiltSpec::paper_figure4());
    let q0 = Isb::new(0, 14, 1.0, 0.0).unwrap();
    frame.push(q0).unwrap();
    // Pushing the same quarter again is a gap violation.
    assert!(frame.push(q0).is_err());
    // Pushing something older than the frame's head fails too.
    let ancient = Isb::new(-30, -16, 1.0, 0.0).unwrap();
    assert!(frame.push(ancient).is_err());
    // The frame is still usable.
    let q1 = Isb::new(15, 29, 1.0, 0.0).unwrap();
    frame.push(q1).unwrap();
    assert_eq!(frame.retained_slots(), 2);
}

#[test]
fn nan_streams_never_open_alarm_episodes() {
    use regcube::core::alarm::{self, AlarmLog, DashboardSummary, SharedSink};
    // A broken sensor feeding NaN: the fits go NaN, the policy scores
    // NaN as non-exceptional, and no sink ever opens an episode — even
    // under the always-exceptional policy.
    let log = alarm::shared(AlarmLog::new(16));
    let dash = alarm::shared(DashboardSummary::new());
    let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
    let mut engine = EngineConfig::new(
        schema,
        CuboidSpec::new(vec![0, 0]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_ticks_per_unit(4)
    .with_policy(ExceptionPolicy::always())
    .with_sinks([log.clone() as SharedSink, dash.clone() as SharedSink])
    .build()
    .unwrap();
    for unit in 0..2i64 {
        for t in (unit * 4)..(unit * 4 + 4) {
            engine
                .ingest(&RawRecord::new(vec![0, 0], t, f64::NAN))
                .unwrap();
            engine.ingest(&RawRecord::new(vec![3, 3], t, 1.0)).unwrap();
        }
        let report = engine.close_unit().unwrap();
        assert!(report.sink_errors.is_empty());
    }
    // Only the healthy stream's coverage opened episodes; no NaN cell
    // is active anywhere.
    let log = log.lock().unwrap();
    for episode in log.open_episodes() {
        let cube = engine.cube().unwrap();
        let measure = cube.get(&episode.cuboid, &episode.cell).unwrap();
        assert!(
            measure.slope().is_finite(),
            "NaN cell holds an episode: {episode}"
        );
        assert!(episode.peak_score.is_finite());
    }
    assert_eq!(dash.lock().unwrap().active_cells(), log.open_count() as u64);

    // The sink-level guard, directly: a delta naming a cell the cube
    // does not retain (score lookup fails -> NaN) must be suppressed.
    let delta = regcube::core::UnitDelta {
        unit: 9,
        window: (0, 3),
        tuples: 1,
        cells_touched: 1,
        appeared: vec![(CuboidSpec::new(vec![1, 1]), CellKey::new(vec![3, 3]))],
        cleared: vec![],
    };
    let cube = engine.cube().unwrap();
    let ctx = regcube::core::AlarmContext::new(cube, &delta);
    let mut fresh = AlarmLog::new(4);
    regcube::core::AlarmSink::on_unit(&mut fresh, &delta, &ctx).unwrap();
    assert_eq!(fresh.open_count(), 0, "unretained cell must not alarm");
    assert_eq!(fresh.suppressed(), 1);
}

#[test]
fn a_failing_sink_does_not_poison_the_engine() {
    use regcube::core::alarm::{self, AlarmContext, AlarmLog, AlarmSink, SharedSink};
    use regcube::core::{CoreError, UnitDelta};

    struct Exploding;
    impl AlarmSink for Exploding {
        fn name(&self) -> &'static str {
            "exploding"
        }
        fn on_unit(&mut self, _: &UnitDelta, _: &AlarmContext<'_>) -> Result<(), CoreError> {
            Err(CoreError::BadInput {
                detail: "observer crashed".into(),
            })
        }
    }

    let log = alarm::shared(AlarmLog::new(16));
    let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
    let mut engine = EngineConfig::new(
        schema,
        CuboidSpec::new(vec![0, 0]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_ticks_per_unit(4)
    .with_policy(ExceptionPolicy::slope_threshold(0.5))
    .with_sinks([
        alarm::shared(Exploding) as SharedSink,
        log.clone() as SharedSink,
    ])
    .build()
    .unwrap();

    for t in 0..4 {
        engine
            .ingest(&RawRecord::new(vec![0, 0], t, 2.0 * t as f64))
            .unwrap();
    }
    let report = engine.close_unit().unwrap();
    // The unit succeeded and the delta was applied before sinks ran:
    // the cube is live, later sinks consumed the delta, and the error
    // is surfaced exactly once, in this report.
    assert_eq!(report.m_cells, 1);
    assert!(engine.cube().is_ok());
    assert!(log.lock().unwrap().open_count() > 0);
    assert_eq!(report.sink_errors.len(), 1);
    assert_eq!(report.sink_errors[0].sink, "exploding");
    assert!(report.sink_errors[0].message.contains("observer crashed"));

    // The engine (and the failing sink) keep going on the next unit.
    for t in 4..8 {
        engine.ingest(&RawRecord::new(vec![0, 0], t, 0.0)).unwrap();
    }
    let next = engine.close_unit().unwrap();
    assert_eq!(next.sink_errors.len(), 1);
    assert_eq!(next.m_cells, 1);
}

#[test]
fn rollover_mid_episode_keeps_raised_at_stable() {
    use regcube::core::alarm::{self, AlarmLog, SharedSink};
    let log = alarm::shared(AlarmLog::new(16));
    let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
    let mut engine = EngineConfig::new(
        schema,
        CuboidSpec::new(vec![0, 0]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_ticks_per_unit(4)
    .with_policy(ExceptionPolicy::slope_threshold(0.5))
    .with_sinks([log.clone() as SharedSink])
    .build()
    .unwrap();

    // Hot across three unit rollovers, then calm.
    for unit in 0..4i64 {
        let slope = if unit < 3 { 2.0 } else { 0.0 };
        for t in (unit * 4)..(unit * 4 + 4) {
            let v = 1.0 + slope * (t - unit * 4) as f64;
            engine.ingest(&RawRecord::new(vec![0, 0], t, v)).unwrap();
        }
        engine.close_unit().unwrap();
        let log = log.lock().unwrap();
        if unit < 3 {
            assert!(log.open_count() > 0, "unit {unit}");
            for episode in log.open_episodes() {
                assert_eq!(
                    episode.raised_at, 0,
                    "rollover must not restart the episode: {episode}"
                );
            }
        }
    }
    let log = log.lock().unwrap();
    assert_eq!(log.open_count(), 0, "the calm unit closed everything");
    for episode in log.closed_episodes() {
        assert_eq!(episode.raised_at, 0);
        assert_eq!(episode.cleared_at, Some(3));
    }
}

#[test]
fn columnar_nan_streams_never_open_alarm_episodes() {
    use regcube::core::alarm::{self, AlarmLog, SharedSink};
    // The NaN guard holds on the columnar backend too: broken-sensor
    // fits go NaN, the policy scores NaN as non-exceptional, and no
    // episode ever names a NaN cell — even under always-exceptional.
    let log = alarm::shared(AlarmLog::new(16));
    let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
    let mut engine = EngineConfig::new(
        schema,
        CuboidSpec::new(vec![0, 0]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_ticks_per_unit(4)
    .with_policy(ExceptionPolicy::always())
    .with_backend(Backend::Columnar)
    .with_sinks([log.clone() as SharedSink])
    .build()
    .unwrap();
    for unit in 0..2i64 {
        for t in (unit * 4)..(unit * 4 + 4) {
            engine
                .ingest(&RawRecord::new(vec![0, 0], t, f64::NAN))
                .unwrap();
            engine.ingest(&RawRecord::new(vec![3, 3], t, 1.0)).unwrap();
        }
        let report = engine.close_unit().unwrap();
        assert!(report.sink_errors.is_empty());
    }
    let log = log.lock().unwrap();
    assert!(log.open_count() > 0, "the healthy stream opened coverage");
    for episode in log.open_episodes() {
        let cube = engine.cube().unwrap();
        let measure = cube.get(&episode.cuboid, &episode.cell).unwrap();
        assert!(
            measure.slope().is_finite(),
            "NaN cell holds an episode: {episode}"
        );
        assert!(episode.peak_score.is_finite());
    }
}

#[test]
fn columnar_rollover_mid_episode_keeps_raised_at_stable() {
    use regcube::core::alarm::{self, AlarmLog, SharedSink};
    // Mirror of the row-backend rollover case: an episode spanning unit
    // rollovers keeps its original raised_at on the columnar backend.
    let log = alarm::shared(AlarmLog::new(16));
    let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
    let mut engine = EngineConfig::new(
        schema,
        CuboidSpec::new(vec![0, 0]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_ticks_per_unit(4)
    .with_policy(ExceptionPolicy::slope_threshold(0.5))
    .with_backend(Backend::Columnar)
    .with_sinks([log.clone() as SharedSink])
    .build()
    .unwrap();

    for unit in 0..4i64 {
        let slope = if unit < 3 { 2.0 } else { 0.0 };
        for t in (unit * 4)..(unit * 4 + 4) {
            let v = 1.0 + slope * (t - unit * 4) as f64;
            engine.ingest(&RawRecord::new(vec![0, 0], t, v)).unwrap();
        }
        engine.close_unit().unwrap();
        let log = log.lock().unwrap();
        if unit < 3 {
            assert!(log.open_count() > 0, "unit {unit}");
            for episode in log.open_episodes() {
                assert_eq!(
                    episode.raised_at, 0,
                    "rollover must not restart the episode: {episode}"
                );
            }
        }
    }
    let log = log.lock().unwrap();
    assert_eq!(log.open_count(), 0, "the calm unit closed everything");
    for episode in log.closed_episodes() {
        assert_eq!(episode.raised_at, 0);
        assert_eq!(episode.cleared_at, Some(3));
    }
}

/// The 16 cells of a 2x2x2 schema's m-layer, slopes (a + b) / 10 over
/// ticks 0..=9.
fn sixteen_cells() -> Vec<MTuple> {
    let mut cells = Vec::new();
    for a in 0..4u32 {
        for b in 0..4u32 {
            let z = TimeSeries::from_fn(0, 9, |t| 1.0 + (a + b) as f64 / 10.0 * t as f64).unwrap();
            cells.push(MTuple::new(vec![a, b], Isb::fit(&z).unwrap()));
        }
    }
    cells
}

fn columnar_engine(kernel: regcube::core::KernelMode) -> MoCubingEngine {
    let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
    let layers = CriticalLayers::new(
        &schema,
        CuboidSpec::new(vec![0, 0]),
        CuboidSpec::new(vec![2, 2]),
    )
    .unwrap();
    MoCubingEngine::new(schema, layers, ExceptionPolicy::slope_threshold(0.4))
        .and_then(|e| e.with_backend(Backend::Columnar))
        .unwrap()
        .with_kernel_mode(kernel)
}

#[test]
fn columnar_rollover_replaces_the_held_unit() {
    // A rollover unit with one active cell must not leak the previous
    // window's cells into the columnar engine's cube.
    let mut engine = columnar_engine(regcube::core::KernelMode::Auto);
    engine.ingest_unit(&sixteen_cells()).unwrap();
    assert_eq!(engine.result().m_layer_cells(), 16);
    let before: Vec<(CuboidSpec, CellKey)> = engine
        .result()
        .iter_exceptions()
        .map(|(c, k, _)| (c.clone(), k.clone()))
        .collect();
    assert!(!before.is_empty());

    let next = vec![MTuple::new(vec![1, 2], Isb::new(10, 19, 1.0, 0.7).unwrap())];
    let delta = engine.ingest_unit(&next).unwrap();
    assert_eq!(delta.unit, 1);
    assert_eq!(engine.result().m_layer_cells(), 1, "old unit replaced");
    assert_eq!(engine.result().o_table().len(), 1);
    // Every exception the closed window held either recurs or was
    // reported cleared with the rollover.
    for (cuboid, key) in &before {
        let recurs = engine
            .result()
            .exceptions_in(cuboid)
            .is_some_and(|t| t.contains_key(key));
        let cleared = delta.cleared.contains(&(cuboid.clone(), key.clone()));
        assert!(recurs != cleared, "{cuboid}{key}");
    }
}

#[test]
fn forced_scalar_fallback_survives_a_rollover() {
    use regcube::core::KernelMode;
    // Kernel dispatch is a pure perf decision: with the chunked kernels
    // forced off (`KernelMode::Scalar`), the columnar engine weathers
    // the same rollover with a bit-identical cube — and honestly
    // reports zero kernel rows.
    let mut auto = columnar_engine(KernelMode::Auto);
    let mut scalar = columnar_engine(KernelMode::Scalar);
    let next = vec![MTuple::new(vec![1, 2], Isb::new(10, 19, 1.0, 0.7).unwrap())];
    for batch in [&sixteen_cells(), &next] {
        let da = auto.ingest_unit(batch).unwrap();
        let ds = scalar.ingest_unit(batch).unwrap();
        assert_eq!(da.appeared, ds.appeared);
        assert_eq!(da.cleared, ds.cleared);
    }
    assert_eq!(scalar.result().m_layer_cells(), 1, "old unit replaced");
    for (table, other) in [
        (auto.result().m_table(), scalar.result().m_table()),
        (auto.result().o_table(), scalar.result().o_table()),
    ] {
        assert_eq!(table.len(), other.len());
        for (key, m) in table {
            let s = other.get(key).unwrap();
            assert_eq!(m.slope().to_bits(), s.slope().to_bits(), "{key}");
            assert_eq!(m.base().to_bits(), s.base().to_bits(), "{key}");
        }
    }
    // Dispatch counters: the forced engine never touched the kernels,
    // and both engines partition rows_folded across the two counters.
    assert_eq!(scalar.stats().rows_folded_simd, 0);
    assert!(scalar.stats().rows_folded_scalar > 0);
    for engine in [&auto, &scalar] {
        let s = engine.stats();
        assert_eq!(s.rows_folded, s.rows_folded_simd + s.rows_folded_scalar);
    }
}

#[test]
fn zero_and_single_member_schemas_work_end_to_end() {
    // The smallest legal cube: one dimension, one level, fanout 1 —
    // exactly one m-cell, lattice of 2 cuboids (m and apex o).
    let schema = CubeSchema::synthetic(1, 1, 1).unwrap();
    let layers =
        CriticalLayers::new(&schema, CuboidSpec::new(vec![0]), CuboidSpec::new(vec![1])).unwrap();
    let z = TimeSeries::from_fn(0, 9, |t| 2.0 * t as f64).unwrap();
    let tuples = vec![MTuple::new(vec![0], Isb::fit(&z).unwrap())];
    for result in [
        mo_cubing::compute(&schema, &layers, &ExceptionPolicy::always(), &tuples).unwrap(),
        popular_path::compute(&schema, &layers, &ExceptionPolicy::always(), None, &tuples).unwrap(),
    ] {
        assert_eq!(result.m_layer_cells(), 1);
        assert_eq!(result.o_layer_cells(), 1);
        let apex = result.o_table().get(&CellKey::new(vec![0])).unwrap();
        assert!((apex.slope() - 2.0).abs() < 1e-9);
    }
}

#[test]
fn cleared_frontier_retracts_drilled_descendants_even_after_nan_noise() {
    // Exception-guided drilling under adversarial input: a hot stream
    // builds a drilled off-path subtree; a NaN stream in the same unit
    // must neither panic nor extend any frontier (NaN scores are
    // non-exceptional); and a following unit in which the chain has
    // cooled must retract every drilled descendant, leaving no stale
    // exception behind.
    let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
    let layers = CriticalLayers::new(
        &schema,
        CuboidSpec::new(vec![0, 0]),
        CuboidSpec::new(vec![2, 2]),
    )
    .unwrap();
    let policy = ExceptionPolicy::slope_threshold(0.4);
    let mut engine = PopularPathEngine::new(schema.clone(), layers.clone(), policy, None).unwrap();

    // NaN on an unrelated cell: folds through without panicking and
    // without qualifying anything (NaN >= t is false).
    let hot = MTuple::new(vec![0, 0], Isb::new(0, 9, 1.0, 0.6).unwrap());
    let quiet = MTuple::new(vec![3, 3], Isb::new(0, 9, 1.0, 0.01).unwrap());
    let broken = MTuple::new(vec![2, 1], Isb::new(0, 9, f64::NAN, f64::NAN).unwrap());
    let delta = engine.ingest_unit(&[hot, quiet, broken]).unwrap();
    let off_path = |cells: &[(CuboidSpec, CellKey)]| {
        let path = engine.result().path_tables();
        cells.iter().filter(|(c, _)| !path.contains_key(c)).count()
    };
    assert!(off_path(&delta.appeared) > 0, "the hot chain was drilled");
    assert!(
        !delta
            .appeared
            .iter()
            .any(|(_, k)| k.ids() == [1, 0] || k.ids() == [2, 1]),
        "a NaN stream must not raise exceptions of its own"
    );
    for (_, _, m) in engine.result().iter_exceptions() {
        assert!(m.slope().is_finite(), "NaN never qualifies as an exception");
    }

    // The next unit is calm: the chain's frontier cells clear, and the
    // drilled subtree is retracted with them.
    let calm = MTuple::new(vec![0, 0], Isb::new(10, 19, 1.0, 0.01).unwrap());
    let cleared = engine.ingest_unit(&[calm]).unwrap().cleared;
    assert_eq!(cleared, delta.appeared, "the whole chain reports cleared");
    assert_eq!(engine.result().total_exception_cells(), 0);
    // Drilling the apex afterwards finds no supporters.
    let hits = regcube::core::drill::drill_descendants(
        &schema,
        engine.result(),
        layers.o_layer(),
        &CellKey::new(vec![0, 0]),
    );
    assert!(hits.is_empty(), "{hits:?}");
}

#[test]
fn stalled_source_no_longer_blocks_closes_under_per_source_eviction() {
    // Failure injection on the watermark path: one producer stalls
    // mid-stream. A per-source low watermark (min over live sources)
    // with no eviction seizes the whole pipeline — no unit can close
    // while the laggard pins the minimum. With a finite `idle_units`
    // the dead source is evicted and the healthy producers keep
    // closing units.
    fn run(policy: WatermarkPolicy) -> (usize, u64) {
        let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
        let mut engine = EngineConfig::new(
            schema,
            CuboidSpec::new(vec![0, 0]),
            CuboidSpec::new(vec![2, 2]),
        )
        .with_ticks_per_unit(4)
        .with_reordering(256, 1)
        .with_watermark_policy(policy)
        .build()
        .unwrap();
        let mut closed = 0usize;
        for t in 0..40i64 {
            let healthy = RawRecord::new(vec![0, 0], t, t as f64).with_source(0);
            engine.ingest(&healthy).unwrap();
            closed += engine.drain_ready().unwrap().len();
            // Source 1 dies after tick 7 (its watermark parks at unit 1).
            if t < 8 {
                let laggard = RawRecord::new(vec![1, 1], t, 1.0).with_source(1);
                engine.ingest(&laggard).unwrap();
                closed += engine.drain_ready().unwrap().len();
            }
        }
        (closed, engine.stats().sources_evicted)
    }

    // No eviction (an effectively infinite idle allowance): the dead
    // source pins the minimum at unit 1 forever, so with lateness 1
    // not a single unit closes in 10 units of healthy traffic.
    let (pinned_closed, pinned_evicted) = run(WatermarkPolicy::PerSource {
        idle_units: i64::MAX / 2,
    });
    assert_eq!(pinned_evicted, 0);
    assert_eq!(
        pinned_closed, 0,
        "an unevictable laggard must stall every close"
    );
    // With eviction: the laggard is dropped from the watermark once the
    // healthy frontier runs `idle_units` past it, and closes resume
    // behind the healthy source's own watermark.
    let (ps_closed, ps_evicted) = run(WatermarkPolicy::PerSource { idle_units: 2 });
    assert_eq!(ps_evicted, 1);
    assert!(
        ps_closed >= 7,
        "per-source eviction must unblock closes, got {ps_closed}"
    );
    // The global policy never blocks (the watermark is the max
    // frontier) — that is exactly why it silently sacrifices slow
    // sources instead; the per-source policy matches its throughput
    // here without giving the laggard up for lost while it is live.
    let (global_closed, global_evicted) = run(WatermarkPolicy::Global);
    assert_eq!(global_evicted, 0);
    assert!(global_closed >= 7);
}

#[test]
fn verdict_flipping_amendments_emit_matching_revisions_everywhere() {
    // A late amendment that flips a closed unit's verdict must produce
    // the matching typed `AlarmRevision` — and every consumer of alarm
    // state (the engine's live alarm set, the `AlarmLog` episodes, the
    // `DashboardSummary`) must agree with the amended frames.
    use regcube::core::alarm::{
        self, AlarmLog, AlarmRevision, DashboardSummary, RevisionKind, SharedSink,
    };

    const TPU: usize = 5;
    const LATENESS: i64 = 2;
    let log = alarm::shared(AlarmLog::new(64));
    let dash = alarm::shared(DashboardSummary::new());
    let schema = CubeSchema::synthetic(2, 2, 3).unwrap();
    let mut engine = EngineConfig::new(
        schema,
        CuboidSpec::new(vec![0, 0]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_policy(ExceptionPolicy::slope_threshold(0.8))
    .with_ticks_per_unit(TPU)
    .with_reordering(8, LATENESS)
    .with_sinks([log.clone() as SharedSink, dash.clone() as SharedSink])
    .build()
    .unwrap();

    // Unit 1 alarms (slope 0.9), unit 2 is quiet (slope 0.7); with
    // lateness 2, unit u closes while unit u + 3 is being fed.
    let slopes = [0.1, 0.9, 0.7, 0.1, 0.1, 0.1];
    let mut reports = Vec::new();
    for unit in 0..6i64 {
        let t0 = unit * TPU as i64;
        for t in t0..t0 + TPU as i64 {
            let v = 1.0 + slopes[unit as usize] * (t - t0) as f64;
            engine.ingest(&RawRecord::new(vec![0, 0], t, v)).unwrap();
            reports.extend(engine.drain_ready().unwrap());
        }
        if unit == 4 {
            // Unit 1 just closed with its alarm live on the frontier.
            assert_eq!(engine.snapshot().alarms().len(), 1);
            // Retraction: -1.0 on unit 1's last tick shifts its
            // warehoused slope 0.9 -> 0.7, below the threshold. The
            // frontier patch is immediate.
            engine
                .ingest(&RawRecord::new(vec![0, 0], 2 * TPU as i64 - 1, -1.0))
                .unwrap();
            reports.extend(engine.drain_ready().unwrap());
            assert_eq!(
                engine.snapshot().alarms().len(),
                0,
                "retraction must patch the live alarm set immediately"
            );
        }
        if unit == 5 {
            // Raise: +1.0 on closed-and-quiet unit 2's last tick lifts
            // its slope 0.7 -> 0.9, above the threshold.
            engine
                .ingest(&RawRecord::new(vec![0, 0], 3 * TPU as i64 - 1, 1.0))
                .unwrap();
            reports.extend(engine.drain_ready().unwrap());
            let snapshot = engine.snapshot();
            let alarms = snapshot.alarms();
            assert_eq!(alarms.len(), 1, "raise must patch the live alarm set");
            assert!((alarms[0].score - 0.9).abs() < 1e-9, "{}", alarms[0].score);
        }
    }
    reports.extend(engine.flush().unwrap());

    // Exactly the two flips, typed, with the right units and scores.
    let revisions: Vec<&AlarmRevision> = reports.iter().flat_map(|r| &r.alarm_revisions).collect();
    assert_eq!(revisions.len(), 2, "{revisions:?}");
    let retraction = revisions[0];
    assert_eq!(retraction.kind, RevisionKind::Retracted, "{retraction}");
    assert_eq!(retraction.unit, 1);
    assert!((retraction.old_score - 0.9).abs() < 1e-9);
    assert!((retraction.new_score - 0.7).abs() < 1e-9);
    let raise = revisions[1];
    assert_eq!(raise.kind, RevisionKind::Raised, "{raise}");
    assert_eq!(raise.unit, 2);
    assert!((raise.old_score - 0.7).abs() < 1e-9);
    assert!((raise.new_score - 0.9).abs() < 1e-9);

    // The dashboard consumed both revisions.
    assert_eq!(dash.lock().unwrap().revisions_seen(), 2);
    // The episode log: revisions address o-layer slots, and episode
    // history tracks exception cells (intermediate cuboids), so the
    // retraction has no apex episode to patch — but the raise opens
    // one at the live frontier, scored by the amended measure.
    let log = log.lock().unwrap();
    assert_eq!(log.revised_total(), 1);
    let apex = log
        .open_episodes()
        .into_iter()
        .find(|e| e.cell.ids() == [0, 0] && e.cuboid.total_depth() == 0)
        .expect("the raise must open a frontier episode for the apex");
    assert_eq!(apex.raised_at, 2);
    assert!((apex.peak_score - 0.9).abs() < 1e-9);
    assert_eq!(engine.stats().late_amendments, 2);
}
