//! **Figure 8**: processing time (a) and memory usage (b) vs the
//! percentage of exception cells, dataset `D3L3C10T100K`.
//!
//! Paper shape to reproduce:
//! * (a) m/o-cubing's runtime is nearly flat in the exception rate (it
//!   computes every cell regardless), only "slightly higher at high
//!   exception rate"; popular-path is cheap at low rates and its cost
//!   rises with the rate, since it computes exactly the drilled cells.
//! * (b) m/o-cubing's memory grows strongly with the rate (only exception
//!   cells are retained); popular-path is much flatter and *higher at low
//!   rates* (the full path is stored no matter what).

use super::{run_mo, run_pp, threshold_for_rate, Workload};
use crate::report::{fmt_count, fmt_mb, fmt_secs, Table};
use regcube_core::ExceptionPolicy;
use regcube_datagen::{Dataset, DatasetSpec};
use std::time::Duration;

/// The exception-rate axis of the paper (in percent).
pub const RATES: [f64; 4] = [0.1, 1.0, 10.0, 100.0];

/// One measured sweep point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Exception rate in percent.
    pub rate: f64,
    /// m/o-cubing runtime (seconds).
    pub mo_secs: f64,
    /// popular-path runtime (seconds).
    pub pp_secs: f64,
    /// m/o-cubing allocator peak (bytes).
    pub mo_peak: usize,
    /// popular-path allocator peak (bytes).
    pub pp_peak: usize,
    /// m/o-cubing retained exception cells.
    pub mo_exceptions: u64,
    /// popular-path retained exception cells.
    pub pp_exceptions: u64,
}

/// Runs the sweep. `quick` shrinks the dataset (T5K, C4) for smoke runs;
/// the default is the paper's `D3L3C10T100K`.
pub fn run(quick: bool) -> Vec<Point> {
    let spec = if quick {
        DatasetSpec::new(3, 3, 4, 5_000).unwrap()
    } else {
        DatasetSpec::d3l3c10t100k()
    };
    let dataset = Dataset::generate(spec).expect("valid spec");
    let workload = Workload::from_dataset(&dataset);
    sweep(&workload)
}

/// Runs the sweep over a prepared workload.
pub fn sweep(workload: &Workload) -> Vec<Point> {
    RATES
        .iter()
        .map(|&rate| {
            let threshold = threshold_for_rate(workload, rate);
            let policy = ExceptionPolicy::slope_threshold(threshold);
            let mo = run_mo(workload, &policy);
            let pp = run_pp(workload, &policy);
            Point {
                rate,
                mo_secs: mo.seconds,
                pp_secs: pp.seconds,
                mo_peak: mo.alloc_peak,
                pp_peak: pp.alloc_peak,
                mo_exceptions: mo.exception_cells,
                pp_exceptions: pp.exception_cells,
            }
        })
        .collect()
}

/// Prints the two panels the way the paper plots them and returns them
/// (for JSON export).
pub fn print(points: &[Point], dataset_name: &str) -> Vec<Table> {
    let mut a = Table::new(
        format!("Figure 8a: processing time vs exception % ({dataset_name})"),
        &["exception %", "m/o-cubing (s)", "popular-path (s)"],
    );
    let mut b = Table::new(
        format!("Figure 8b: memory usage vs exception % ({dataset_name})"),
        &[
            "exception %",
            "m/o-cubing (MB)",
            "popular-path (MB)",
            "exc cells m/o",
            "exc cells pp",
        ],
    );
    for p in points {
        a.push_row(vec![
            format!("{}", p.rate),
            fmt_secs(Duration::from_secs_f64(p.mo_secs)),
            fmt_secs(Duration::from_secs_f64(p.pp_secs)),
        ]);
        b.push_row(vec![
            format!("{}", p.rate),
            fmt_mb(p.mo_peak),
            fmt_mb(p.pp_peak),
            fmt_count(p.mo_exceptions),
            fmt_count(p.pp_exceptions),
        ]);
    }
    a.print();
    b.print();
    vec![a, b]
}

#[cfg(test)]
mod tests {
    use super::*;
    use regcube_datagen::{Dataset, DatasetSpec};

    #[test]
    fn sweep_shapes_match_the_paper() {
        let d = Dataset::generate(DatasetSpec::new(3, 2, 3, 2_000).unwrap()).unwrap();
        let w = Workload::from_dataset(&d);
        let pts = sweep(&w);
        assert_eq!(pts.len(), RATES.len());
        // Exceptions grow monotonically with the rate for both algorithms.
        for pair in pts.windows(2) {
            assert!(pair[1].mo_exceptions >= pair[0].mo_exceptions);
            assert!(pair[1].pp_exceptions >= pair[0].pp_exceptions);
        }
        // At 100% both algorithms retain every between-cell, and the
        // counts agree (the always-exceptional equivalence).
        let last = pts.last().unwrap();
        assert_eq!(last.mo_exceptions, last.pp_exceptions);
        assert!(last.mo_exceptions > 0);
        // At 0.1% popular-path retains no more than m/o-cubing.
        assert!(pts[0].pp_exceptions <= pts[0].mo_exceptions);
    }
}
