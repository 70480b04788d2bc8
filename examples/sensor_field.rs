//! The paper's Section 6.2 extensions, end to end:
//!
//! 1. **Multiple linear regression** over time *and* space — "networks of
//!    sensors placed at different geographic locations … one may wish do
//!    regression not only on the time dimension, but also the three
//!    spatial dimensions" — warehoused as lossless `XᵀX / Xᵀz`
//!    sufficient statistics that merge across sensor groups.
//! 2. **Non-linear regression** via basis transforms (log / polynomial /
//!    exponential fits).
//! 3. **Folding** a fine series to a coarser calendar unit with SQL-style
//!    aggregates (sum/avg/min/max/first/last).
//! 4. **Cubing the whole field**: a 64x64 sensor grid cubed by one
//!    engine, whose new exceptions point at the hot corner.
//!
//! ```text
//! cargo run --example sensor_field
//! ```

use regcube::prelude::*;
use regcube::regress::fold::{fold_series, FoldOp};
use regcube::regress::mlr::MlrMeasure;
use regcube::regress::transform::{fit_exponential, fit_log, fit_polynomial};

fn main() {
    // ---- 1. Spatio-temporal MLR ------------------------------------------
    // Ground truth: temperature = 12 + 0.08·t - 0.5·x + 0.3·y.
    // Two sensor clusters observe disjoint (t, x, y) grids; each cluster
    // warehouses only its sufficient statistics; merging them recovers
    // the global model exactly.
    let truth = |t: f64, x: f64, y: f64| 12.0 + 0.08 * t - 0.5 * x + 0.3 * y;

    let mut west = MlrMeasure::empty(4).unwrap();
    let mut east = MlrMeasure::empty(4).unwrap();
    for t in 0..48 {
        for x in 0..6 {
            for y in 0..4 {
                let (tf, xf, yf) = (t as f64, x as f64, y as f64);
                let z = truth(tf, xf, yf);
                let row = [1.0, tf, xf, yf];
                if x < 3 {
                    west.push_row(&row, z).unwrap();
                } else {
                    east.push_row(&row, z).unwrap();
                }
            }
        }
    }
    println!(
        "West cluster alone: β = {:?}",
        round4(&west.solve().unwrap())
    );
    println!(
        "East cluster alone: β = {:?}",
        round4(&east.solve().unwrap())
    );
    west.merge_disjoint(&east).unwrap();
    let beta = west.solve().unwrap();
    println!(
        "Merged field model:  β = {:?}  (truth: [12.0, 0.08, -0.5, 0.3])\n",
        round4(&beta)
    );

    // ---- 2. Non-linear fits through transforms ----------------------------
    // Sensor warm-up follows a log curve; battery drain an exponential.
    let warmup = TimeSeries::from_fn(1, 60, |t| 3.0 + 1.4 * (t as f64).ln()).unwrap();
    let log_fit = fit_log(&warmup).unwrap();
    println!(
        "Warm-up log fit: z(t) = {:.3} + {:.3}·ln t   (truth a=3.0, b=1.4)",
        log_fit.a, log_fit.b
    );

    let battery = TimeSeries::from_fn(0, 60, |t| 95.0 * (-0.021 * t as f64).exp()).unwrap();
    let exp_fit = fit_exponential(&battery).unwrap();
    println!(
        "Battery exponential fit: z(t) = {:.2}·e^({:.4}·t)   (truth A=95, b=-0.021)",
        exp_fit.amplitude, exp_fit.rate
    );

    let drift =
        TimeSeries::from_fn(0, 40, |t| 0.5 + 0.2 * t as f64 - 0.004 * (t * t) as f64).unwrap();
    let poly = fit_polynomial(&drift, 2).unwrap();
    println!(
        "Calibration drift quadratic: coeffs = {:?}   (truth [0.5, 0.2, -0.004])\n",
        round4(&poly.coeffs)
    );

    // ---- 3. Folding to the calendar ---------------------------------------
    // 4 weeks of hourly readings folded to days with different aggregates.
    let hourly = TimeSeries::from_fn(0, 24 * 28 - 1, |t| {
        let day = t / 24;
        20.0 + day as f64 * 0.25 + 5.0 * (std::f64::consts::TAU * (t % 24) as f64 / 24.0).sin()
    })
    .unwrap();
    for op in [FoldOp::Avg, FoldOp::Max, FoldOp::Last] {
        let daily = fold_series(&hourly, 24, op).unwrap();
        let fit = LinearFit::fit(&daily);
        println!(
            "Hourly -> daily via {op:?}: {} days, daily trend {:.3}",
            daily.len(),
            fit.slope
        );
    }
    println!("(the daily Avg trend recovers the injected 0.25/day warming)");

    // ---- 4. Cubing the whole field ----------------------------------------
    // A 64x64 grid of sensors (dimensions: row zone > row, column zone >
    // column), each warehousing one ISB per unit, cubed by one engine:
    // every cuboid from the sensors up to the whole field.
    let schema = CubeSchema::synthetic(2, 2, 8).unwrap();
    let layers = CriticalLayers::new(
        &schema,
        CuboidSpec::new(vec![0, 0]), // o-layer: whole field
        CuboidSpec::new(vec![2, 2]), // m-layer: individual sensors
    )
    .unwrap();
    let policy = ExceptionPolicy::slope_threshold(0.25);
    let mut tuples = Vec::new();
    for x in 0..64u32 {
        for y in 0..64u32 {
            // A hot corner of the field warms fast; the rest drifts.
            let slope = if x >= 56 && y >= 56 { 0.4 } else { 0.02 };
            let series =
                TimeSeries::from_fn(0, 23, |t| 15.0 + slope * t as f64 + (x + y) as f64 * 0.01)
                    .unwrap();
            tuples.push(MTuple::new(vec![x, y], Isb::fit(&series).unwrap()));
        }
    }

    let mut engine = MoCubingEngine::new(schema, layers, policy).unwrap();
    let delta = engine.ingest_unit(&tuples).unwrap();
    let cube = engine.result();
    println!(
        "\nField cubing: {} sensors -> {} cells, {} exception cells",
        cube.m_layer_cells(),
        cube.stats().cells_computed,
        cube.total_exception_cells(),
    );
    let hottest = delta
        .appeared
        .iter()
        .filter_map(|(c, k)| cube.get(c, k).map(|m| (c, k, m)))
        .max_by(|a, b| a.2.slope().abs().total_cmp(&b.2.slope().abs()));
    if let Some((cuboid, key, isb)) = hottest {
        println!(
            "hottest new exception: {cuboid}{key} warming at {:.2}°/tick (zone roll-up of the hot corner)",
            isb.slope()
        );
    }
}

fn round4(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| (x * 1e4).round() / 1e4).collect()
}
