//! Tests of the Section 6.2 / 4.5 extension surface through the umbrella
//! crate: irregular-tick streaming fits, tilt window queries, on-the-fly
//! cube queries and the MLR embedding of ISBs.

use regcube::core::query;
use regcube::prelude::*;
use regcube::regress::mlr::MlrMeasure;
use regcube::regress::RunningFit;

#[test]
fn running_fit_bridges_irregular_sensors_into_the_cube_world() {
    // Sensors report at irregular moments; the streaming fitter pools
    // them exactly like the warehoused measures would.
    let mut north = RunningFit::new();
    let mut south = RunningFit::new();
    let line = |t: f64| 4.0 + 0.6 * t;
    for &t in &[0.0, 1.5, 3.0, 8.25, 9.0] {
        north.push(t, line(t));
    }
    for &t in &[0.5, 2.0, 7.75] {
        south.push(t, line(t));
    }
    north.merge(&south);
    let fit = north.fit().unwrap();
    assert!((fit.base - 4.0).abs() < 1e-9);
    assert!((fit.slope - 0.6).abs() < 1e-10);
    assert_eq!(north.n(), 8);
}

#[test]
fn tilt_recent_windows_answer_the_analyst_questions() {
    // "The last hour with the precision of a quarter": merge_recent on
    // the finest level of the Figure 4 frame.
    let mut frame: TiltFrame<Isb> = TiltFrame::new(TiltSpec::paper_figure4());
    for u in 0..7i64 {
        let start = u * 15;
        let z = TimeSeries::from_fn(start, start + 14, |t| 0.2 * t as f64).unwrap();
        frame.push(Isb::fit(&z).unwrap()).unwrap();
    }
    // 7 quarters: 4 promoted into 1 hour slot, 3 remain fine.
    let last_two_quarters = frame.merge_recent(0, 2).unwrap().unwrap();
    assert_eq!(last_two_quarters.interval(), (75, 104));
    assert!((last_two_quarters.slope() - 0.2).abs() < 1e-9);
    let last_hour = frame.merge_level(1).unwrap().unwrap();
    assert_eq!(last_hour.interval(), (0, 59));
}

#[test]
fn query_module_composes_with_generated_cubes() {
    let dataset = Dataset::generate(DatasetSpec::new(2, 2, 3, 400).unwrap()).unwrap();
    let layers = CriticalLayers::new(
        &dataset.schema,
        dataset.o_layer.clone(),
        dataset.m_layer.clone(),
    )
    .unwrap();
    let tuples: Vec<MTuple> = dataset
        .tuples
        .iter()
        .map(|t| MTuple::new(t.ids.clone(), t.isb))
        .collect();
    let cube =
        mo_cubing::compute(&dataset.schema, &layers, &ExceptionPolicy::never(), &tuples).unwrap();

    // Top-k of the o-layer equals sorting the retained o-table.
    let top = query::top_k_cells(&dataset.schema, &cube, layers.o_layer(), 3).unwrap();
    assert!(!top.is_empty());
    let mut best_retained: Vec<f64> = cube.o_table().values().map(|m| m.slope().abs()).collect();
    best_retained.sort_by(|a, b| b.partial_cmp(a).unwrap());
    assert!((top[0].score - best_retained[0]).abs() < 1e-9);

    // Every top cell's on-the-fly measure equals the retained one.
    for cell in &top {
        let direct = query::cell_measure(&dataset.schema, &cube, layers.o_layer(), &cell.key)
            .unwrap()
            .unwrap();
        assert!(direct.approx_eq(&cell.measure, 1e-9));
    }
}

#[test]
fn isb_mlr_embedding_round_trips_through_aggregation() {
    // Embed two sibling ISBs into MLR measures, merge them same-design,
    // and compare against the Theorem 3.2 merge of the ISBs themselves.
    let z1 = TimeSeries::from_fn(0, 11, |t| 1.0 + 0.3 * t as f64).unwrap();
    let z2 = TimeSeries::from_fn(0, 11, |t| 2.0 - 0.1 * t as f64).unwrap();
    let (isb1, isb2) = (Isb::fit(&z1).unwrap(), Isb::fit(&z2).unwrap());

    // The k = 2 embedding: resampling the fitted line over the interval
    // keeps Σz and Σt·z (Equations 1-2), and Σt, Σt² depend only on the
    // interval, so the 4-number ISB carries the full XᵀX / Xᵀz.
    let embed = |isb: &Isb| {
        let mut m = MlrMeasure::empty(2).unwrap();
        let (b, e) = isb.interval();
        for t in b..=e {
            m.push_row(&[1.0, t as f64], isb.predict(t)).unwrap();
        }
        m
    };
    let mut m = embed(&isb1);
    m.merge_same_design(&embed(&isb2)).unwrap();
    let beta = m.solve().unwrap();

    let merged = aggregate::merge_standard(&[isb1, isb2]).unwrap();
    assert!((beta[0] - merged.base()).abs() < 1e-8);
    assert!((beta[1] - merged.slope()).abs() < 1e-9);
}
