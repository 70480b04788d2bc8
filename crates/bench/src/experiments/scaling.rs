//! **Scaling**: what a second core buys one cube. Cuboids of one
//! lattice depth are independent, so `MoCubingEngine::with_pool` fans a
//! large enough depth tier out across a worker pool. This experiment
//! replays the same multi-unit stream through:
//!
//! * one sequential `MoCubingEngine`,
//! * the same engine with a pool of one worker per core on its **tier
//!   roll-up** (same-depth cuboids computed in parallel).
//!
//! Both must report the same exception count — the pool changes no bit
//! of the cube (the contract tests pin full equality; this experiment
//! cross-checks while measuring).

use crate::report::{fmt_count, fmt_secs, Table};
use regcube_core::engine::CubingEngine;
use regcube_core::pool::default_threads;
use regcube_core::{CriticalLayers, ExceptionPolicy, MTuple, MoCubingEngine, WorkerPool};
use regcube_datagen::{Dataset, DatasetSpec};
use regcube_regress::Isb;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct Point {
    /// Configuration label.
    pub config: String,
    /// Units replayed.
    pub units: usize,
    /// Throughput in m-layer units per second.
    pub units_per_sec: f64,
    /// Total replay wall-clock.
    pub total: Duration,
    /// Exception cells retained after the last unit (equality check).
    pub exception_cells: u64,
}

/// Replays `batches` (one per unit window) through `engine`.
fn measure(config: &str, batches: &[Vec<MTuple>], mut engine: Box<dyn CubingEngine>) -> Point {
    let started = Instant::now();
    for batch in batches {
        engine.ingest_unit(batch).expect("valid replay batch");
    }
    let total = started.elapsed();
    Point {
        config: config.to_string(),
        units: batches.len(),
        units_per_sec: batches.len() as f64 / total.as_secs_f64().max(1e-9),
        total,
        exception_cells: engine.result().total_exception_cells(),
    }
}

/// Runs the sweep and returns one point per configuration.
pub fn run(quick: bool) -> Vec<Point> {
    let (tuples_n, units, fanout) = if quick { (1_500, 3, 4) } else { (50_000, 6, 8) };
    let ticks = 16usize;
    let spec = DatasetSpec::new(3, 3, fanout, tuples_n)
        .unwrap()
        .with_series_len(ticks * units);
    let dataset = Dataset::generate(spec).expect("valid spec");
    let schema = dataset.schema.clone();
    let layers = CriticalLayers::new(&schema, dataset.o_layer.clone(), dataset.m_layer.clone())
        .expect("valid layers");
    let policy = ExceptionPolicy::slope_threshold(0.5);

    // One batch per unit window: each unit re-fits every stream over its
    // own tick interval, which makes every replayed batch open a unit
    // (the full-recomputation path the parallel tiers target).
    let unit_batches: Vec<Vec<MTuple>> = (0..units)
        .map(|u| {
            let start = (u * ticks) as i64;
            let end = start + ticks as i64 - 1;
            dataset
                .tuples
                .iter()
                .map(|t| {
                    let isb = Isb::new(start, end, t.isb.base(), t.isb.slope()).expect("window");
                    MTuple::new(t.ids.clone(), isb)
                })
                .collect()
        })
        .collect();

    let engine = || MoCubingEngine::new(schema.clone(), layers.clone(), policy.clone());
    let workers = default_threads();
    vec![
        measure(
            "sequential tier roll-up",
            &unit_batches,
            Box::new(engine().expect("valid engine")),
        ),
        measure(
            &format!("tier pool, {workers} worker(s)"),
            &unit_batches,
            Box::new(
                engine()
                    .expect("valid engine")
                    .with_pool(Arc::new(WorkerPool::new(workers))),
            ),
        ),
    ]
}

/// Prints the sweep and returns it (for JSON export).
pub fn print(points: &[Point]) -> Vec<Table> {
    let baseline = points.first().map(|p| p.units_per_sec).unwrap_or(f64::NAN);
    let mut t = Table::new(
        format!(
            "Scaling: tier-pool cubing throughput ({} units replayed)",
            points.first().map(|p| p.units).unwrap_or(0)
        ),
        &[
            "configuration",
            "units/sec",
            "total (s)",
            "speedup",
            "exceptions",
        ],
    );
    for p in points {
        t.push_row(vec![
            p.config.clone(),
            format!("{:.2}", p.units_per_sec),
            fmt_secs(p.total),
            format!("{:.2}x", p.units_per_sec / baseline),
            fmt_count(p.exception_cells),
        ]);
    }
    t.print();
    if let Some(best) = points
        .iter()
        .max_by(|a, b| a.units_per_sec.total_cmp(&b.units_per_sec))
    {
        println!(
            "best configuration: {} at {:.2} units/sec ({:.2}x the sequential baseline)",
            best.config,
            best.units_per_sec,
            best.units_per_sec / baseline
        );
    }
    println!();
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_agrees_on_the_cube() {
        let points = run(true);
        assert_eq!(points.len(), 2);
        // Both configurations compute the same cube: identical retained
        // exception counts (throughput varies with the hardware, so only
        // the semantics are asserted here).
        let expected = points[0].exception_cells;
        for p in &points {
            assert_eq!(p.exception_cells, expected, "{}", p.config);
            assert!(p.units_per_sec > 0.0, "{}", p.config);
        }
    }
}
