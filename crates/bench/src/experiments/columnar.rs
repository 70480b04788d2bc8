//! **Columnar**: struct-of-arrays vs hash-map table layout on the hot
//! tier roll-up.
//!
//! The cube roll-up spends nearly all of its time in the group-by-
//! projection aggregation (`regcube_core::table::aggregate_into`,
//! Theorem 3.2 tier-to-tier compression). This experiment replays the
//! same multi-unit stream through:
//!
//! * a `MoCubingEngine` — the row (hash-map) layout baseline;
//! * the same engine `with_backend(Backend::Columnar)` — the roll-up
//!   running over sorted dense-id component vectors;
//! * the columnar engine with its kernels forced off
//!   (`KernelMode::Scalar`).
//!
//! Reported per configuration: source rows folded per second (the
//! paper's work measure), the true allocator peak (`memtrack`, the
//! peak-RSS proxy) and the analytical table peak. Every configuration
//! must retain the same exception cells (the contract/golden suites pin
//! the full cube; this experiment cross-checks while measuring).

use crate::memtrack;
use crate::report::{fmt_count, fmt_mb, fmt_secs, Table};
use regcube_core::engine::{Backend, CubingEngine};
use regcube_core::{CriticalLayers, ExceptionPolicy, KernelMode, MTuple, MoCubingEngine};
use regcube_datagen::{Dataset, DatasetSpec};
use regcube_regress::Isb;
use std::time::{Duration, Instant};

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct Point {
    /// Configuration label.
    pub config: String,
    /// Units replayed.
    pub units: usize,
    /// Source rows folded across the whole replay.
    pub rows: u64,
    /// Throughput in folded source rows per second.
    pub rows_per_sec: f64,
    /// Total replay wall-clock.
    pub total: Duration,
    /// True allocator peak during the replay (peak-RSS proxy).
    pub alloc_peak: usize,
    /// Analytical table-byte peak from the run stats (last unit).
    pub analytical_peak: usize,
    /// Exception cells retained after the last unit (equality check).
    pub exception_cells: u64,
    /// Rows folded through the chunked kernel layer across the replay.
    pub rows_folded_simd: u64,
    /// Rows folded through the scalar per-row path across the replay.
    pub rows_folded_scalar: u64,
}

/// Replays `batches` (one per unit window) through `engine` under the
/// allocator meter.
fn measure(config: &str, batches: &[Vec<MTuple>], mut engine: Box<dyn CubingEngine>) -> Point {
    let started = Instant::now();
    let ((rows, simd, scalar), alloc_peak) = memtrack::measure_peak(|| {
        let (mut rows, mut simd, mut scalar) = (0u64, 0u64, 0u64);
        for batch in batches {
            engine.ingest_unit(batch).expect("valid replay batch");
            let s = engine.stats();
            rows += s.rows_folded;
            simd += s.rows_folded_simd;
            scalar += s.rows_folded_scalar;
        }
        (rows, simd, scalar)
    });
    let total = started.elapsed();
    Point {
        config: config.to_string(),
        units: batches.len(),
        rows,
        rows_per_sec: rows as f64 / total.as_secs_f64().max(1e-9),
        total,
        alloc_peak,
        analytical_peak: engine.stats().peak_bytes,
        exception_cells: engine.result().total_exception_cells(),
        rows_folded_simd: simd,
        rows_folded_scalar: scalar,
    }
}

/// The replay workload: schema, layers, policy and one batch of tuples
/// per unit window (every batch opens a unit — the full tier roll-up
/// the layouts are racing on).
fn workload(
    quick: bool,
) -> (
    regcube_olap::CubeSchema,
    CriticalLayers,
    ExceptionPolicy,
    Vec<Vec<MTuple>>,
) {
    let (tuples_n, units, fanout) = if quick { (2_000, 3, 4) } else { (50_000, 6, 8) };
    let ticks = 16usize;
    let spec = DatasetSpec::new(3, 3, fanout, tuples_n)
        .unwrap()
        .with_series_len(ticks * units);
    let dataset = Dataset::generate(spec).expect("valid spec");
    let schema = dataset.schema.clone();
    let layers = CriticalLayers::new(&schema, dataset.o_layer.clone(), dataset.m_layer.clone())
        .expect("valid layers");
    let policy = ExceptionPolicy::slope_threshold(0.5);
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
    (schema, layers, policy, unit_batches)
}

/// Runs the sweep and returns one point per configuration.
pub fn run(quick: bool) -> Vec<Point> {
    let (schema, layers, policy, unit_batches) = workload(quick);
    let columnar = || {
        MoCubingEngine::new(schema.clone(), layers.clone(), policy.clone())
            .and_then(|e| e.with_backend(Backend::Columnar))
            .expect("valid engine")
    };
    vec![
        measure(
            "tier roll-up, row (hash-map) layout",
            &unit_batches,
            Box::new(
                MoCubingEngine::new(schema.clone(), layers.clone(), policy.clone())
                    .expect("valid engine"),
            ),
        ),
        measure(
            "tier roll-up, columnar layout",
            &unit_batches,
            Box::new(columnar()),
        ),
        measure(
            "columnar layout, scalar kernels",
            &unit_batches,
            Box::new(columnar().with_kernel_mode(KernelMode::Scalar)),
        ),
    ]
}

/// Prints the sweep and returns it (for JSON export).
pub fn print(points: &[Point]) -> Vec<Table> {
    let baseline = points.first();
    let base_rate = baseline.map(|p| p.rows_per_sec).unwrap_or(f64::NAN);
    let mut t = Table::new(
        format!(
            "Columnar: table-layout shootout on the tier roll-up ({} units, {} rows folded)",
            points.first().map(|p| p.units).unwrap_or(0),
            fmt_count(points.first().map(|p| p.rows).unwrap_or(0)),
        ),
        &[
            "configuration",
            "rows/sec",
            "total (s)",
            "speedup",
            "kernel rows",
            "scalar rows",
            "alloc peak",
            "table peak",
            "exceptions",
        ],
    );
    for p in points {
        t.push_row(vec![
            p.config.clone(),
            format!("{:.0}", p.rows_per_sec),
            fmt_secs(p.total),
            format!("{:.2}x", p.rows_per_sec / base_rate),
            fmt_count(p.rows_folded_simd),
            fmt_count(p.rows_folded_scalar),
            fmt_mb(p.alloc_peak),
            fmt_mb(p.analytical_peak),
            fmt_count(p.exception_cells),
        ]);
    }
    t.print();
    if let (Some(row), Some(col)) = (points.first(), points.get(1)) {
        println!(
            "columnar vs row: {:.2}x rows/sec, {:.2}x lower alloc peak, {:.2}x lower table peak",
            col.rows_per_sec / row.rows_per_sec,
            row.alloc_peak as f64 / col.alloc_peak.max(1) as f64,
            row.analytical_peak as f64 / col.analytical_peak.max(1) as f64,
        );
    }
    if let (Some(col), Some(scalar)) = (points.get(1), points.get(2)) {
        println!(
            "kernel dispatch vs scalar fallback: {:.2}x rows/sec",
            col.rows_per_sec / scalar.rows_per_sec,
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
        assert_eq!(points.len(), 3);
        // Identical semantics across layouts and kernel modes: same
        // retained exceptions (throughput varies with the hardware, so
        // only the semantics are asserted).
        for p in &points {
            assert_eq!(p.exception_cells, points[0].exception_cells, "{}", p.config);
            assert!(p.rows_per_sec > 0.0, "{}", p.config);
            assert!(p.alloc_peak > 0, "{}", p.config);
        }
        // The layouts do exactly the same folding work — the kernel
        // mode only moves rows between the dispatch counters.
        assert_eq!(points[0].rows, points[1].rows);
        assert_eq!(points[1].rows, points[2].rows);
        let (auto, scalar) = (&points[1], &points[2]);
        assert!(auto.rows_folded_simd > 0, "kernels reached");
        assert_eq!(scalar.rows_folded_simd, 0, "fallback forced");
        for p in [auto, scalar] {
            assert_eq!(p.rows, p.rows_folded_simd + p.rows_folded_scalar);
        }
        // The row layout has no kernel dispatch at all.
        assert_eq!(points[0].rows_folded_simd, 0);
        assert_eq!(points[0].rows_folded_scalar, 0);
    }
}
