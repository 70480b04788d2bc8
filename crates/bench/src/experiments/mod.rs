//! One module per figure of the paper's evaluation, plus shared plumbing.

pub mod dims;
pub mod fig10;
pub mod fig8;
pub mod fig9;
pub mod incremental;
pub mod tilt;

use crate::memtrack;
use regcube_core::engine::{CubingEngine, MoCubingEngine, PopularPathEngine};
use regcube_core::{mo_cubing, CriticalLayers, CubeResult, ExceptionPolicy, MTuple};
use regcube_datagen::{calibrate, Dataset};
use regcube_olap::CubeSchema;

/// A prepared workload: schema, layers and cubing input tuples.
pub struct Workload {
    /// Dataset name in the paper's convention.
    pub name: String,
    /// The schema.
    pub schema: CubeSchema,
    /// The critical layers.
    pub layers: CriticalLayers,
    /// m-layer input tuples.
    pub tuples: Vec<MTuple>,
}

impl Workload {
    /// Converts a generated dataset into a cubing workload.
    pub fn from_dataset(dataset: &Dataset) -> Self {
        let layers = CriticalLayers::new(
            &dataset.schema,
            dataset.o_layer.clone(),
            dataset.m_layer.clone(),
        )
        .expect("generator layers are valid");
        let tuples = dataset
            .tuples
            .iter()
            .map(|t| MTuple::new(t.ids.clone(), t.isb))
            .collect();
        Workload {
            name: dataset.spec.to_string(),
            schema: dataset.schema.clone(),
            layers,
            tuples,
        }
    }
}

/// The measurements of one `(algorithm, configuration)` cell of a figure.
#[derive(Debug, Clone, Copy)]
pub struct RunMeasurement {
    /// Wall-clock seconds of the cube computation.
    pub seconds: f64,
    /// Allocator peak delta in bytes while computing.
    pub alloc_peak: usize,
    /// Analytical peak bytes (live tables) from the run stats.
    pub analytical_peak: usize,
    /// Exception cells retained.
    pub exception_cells: u64,
    /// Cells computed.
    pub cells_computed: u64,
}

/// Ingests a workload as one unit into any [`CubingEngine`] under the
/// allocator meter — every figure goes through this trait-level seam, so
/// a new cubing backend is benchmarked by handing it in here.
pub fn run_engine<E: CubingEngine>(engine: &mut E, workload: &Workload) -> RunMeasurement {
    let (_, alloc_peak) = memtrack::measure_peak(|| {
        engine
            .ingest_unit(&workload.tuples)
            .expect("valid workload");
    });
    to_measurement(engine.result(), alloc_peak)
}

/// Runs Algorithm 1 (an [`MoCubingEngine`]) under the allocator meter.
pub fn run_mo(workload: &Workload, policy: &ExceptionPolicy) -> RunMeasurement {
    let mut engine = MoCubingEngine::new(
        workload.schema.clone(),
        workload.layers.clone(),
        policy.clone(),
    )
    .expect("valid workload");
    run_engine(&mut engine, workload)
}

/// Runs Algorithm 2 (a [`PopularPathEngine`], default path) under the
/// allocator meter.
pub fn run_pp(workload: &Workload, policy: &ExceptionPolicy) -> RunMeasurement {
    let mut engine = PopularPathEngine::new(
        workload.schema.clone(),
        workload.layers.clone(),
        policy.clone(),
        None,
    )
    .expect("valid workload");
    run_engine(&mut engine, workload)
}

fn to_measurement(result: &CubeResult, alloc_peak: usize) -> RunMeasurement {
    let s = result.stats();
    RunMeasurement {
        seconds: s.elapsed.as_secs_f64(),
        alloc_peak,
        analytical_peak: s.peak_bytes,
        exception_cells: s.exception_cells,
        cells_computed: s.cells_computed,
    }
}

/// Collects the |slope| scores of **every aggregated cell** between the
/// layers (inclusive of the critical layers) by running m/o-cubing with
/// an always-exceptional policy once. These scores calibrate the
/// exception-percentage axis of Figure 8 exactly as the paper defines it
/// ("the percentage of aggregated cells that belong to exception cells").
pub fn all_cell_scores(workload: &Workload) -> Vec<f64> {
    let result = mo_cubing::compute(
        &workload.schema,
        &workload.layers,
        &ExceptionPolicy::always(),
        &workload.tuples,
    )
    .expect("valid workload");
    let mut scores: Vec<f64> = Vec::with_capacity(result.stats().cells_computed as usize);
    scores.extend(result.m_table().values().map(|m| m.slope().abs()));
    scores.extend(result.o_table().values().map(|m| m.slope().abs()));
    scores.extend(result.iter_exceptions().map(|(_, _, m)| m.slope().abs()));
    scores
}

/// The threshold achieving a target exception rate over a workload.
pub fn threshold_for_rate(workload: &Workload, rate_percent: f64) -> f64 {
    let scores = all_cell_scores(workload);
    calibrate::threshold_for_rate(&scores, rate_percent / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regcube_datagen::DatasetSpec;

    fn tiny_workload() -> Workload {
        let d = Dataset::generate(DatasetSpec::new(2, 2, 3, 300).unwrap()).unwrap();
        Workload::from_dataset(&d)
    }

    #[test]
    fn workload_conversion_keeps_counts() {
        let w = tiny_workload();
        assert!(!w.tuples.is_empty());
        assert_eq!(w.layers.m_layer().levels(), &[2, 2]);
        assert!(w.name.starts_with("D2L2C3"));
    }

    #[test]
    fn both_runners_produce_measurements() {
        let w = tiny_workload();
        let policy = ExceptionPolicy::slope_threshold(0.1);
        let mo = run_mo(&w, &policy);
        let pp = run_pp(&w, &policy);
        assert!(mo.seconds >= 0.0 && pp.seconds >= 0.0);
        // Allocator peaks are polluted by concurrent tests (shared global
        // counters); the analytical peaks are deterministic.
        assert!(mo.analytical_peak > 0);
        assert!(pp.analytical_peak > 0);
        assert!(mo.cells_computed >= w.tuples.len() as u64);
        // Footnote 7: popular-path retains a subset.
        assert!(pp.exception_cells <= mo.exception_cells);
    }

    #[test]
    fn calibration_brackets_the_rate() {
        let w = tiny_workload();
        let scores = all_cell_scores(&w);
        assert!(scores.len() > w.tuples.len());
        let t1 = threshold_for_rate(&w, 1.0);
        let t50 = threshold_for_rate(&w, 50.0);
        assert!(
            t1 >= t50,
            "1% threshold {t1} must exceed 50% threshold {t50}"
        );
        let achieved = calibrate::rate_at_threshold(&scores, t50);
        assert!((achieved - 0.5).abs() < 0.05, "achieved {achieved}");
    }
}
