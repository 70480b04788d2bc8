//! **Section 5, closing remark**: "in stream data applications, it is
//! likely that one just need to incrementally compute the newly generated
//! stream data. In this case, the computation time should be
//! substantially shorter" — we measure one online per-unit recomputation
//! against a monolithic recomputation over the accumulated window.

use crate::memtrack;
use crate::report::{fmt_mb, fmt_secs, Table};
use regcube_core::result::Algorithm;
use regcube_core::{mo_cubing, CriticalLayers, ExceptionPolicy, MTuple};
use regcube_datagen::{Dataset, DatasetSpec};
use regcube_regress::{aggregate, Isb};
use regcube_stream::RawRecord;
use regcube_tilt::TiltSpec;
use std::time::{Duration, Instant};

/// The measured comparison.
#[derive(Debug, Clone, Copy)]
pub struct IncrementalReport {
    /// Units replayed.
    pub units: usize,
    /// Mean per-unit online recomputation time.
    pub per_unit: Duration,
    /// One full computation over the whole accumulated window.
    pub full: Duration,
    /// Allocator peak of the online engine over the replay (bytes).
    pub online_peak: usize,
    /// Speed ratio `full / per_unit`.
    pub speedup: f64,
}

/// Replays `units` m-layer time units of a synthetic stream through the
/// online engine, then computes the same data monolithically.
///
/// Stream activity is *sparse per unit*: each unit only a `1/units` slice
/// of the streams produces new data (round-robin), which is the situation
/// the paper's remark addresses — the incremental pass only touches the
/// newly generated data while the monolithic pass cubes everything.
pub fn run(quick: bool) -> IncrementalReport {
    let (tuples_n, units, ticks) = if quick { (500, 4, 8) } else { (20_000, 8, 16) };
    let spec = DatasetSpec::new(2, 2, 8, tuples_n)
        .unwrap()
        .with_series_len(ticks * units);
    let dataset = Dataset::generate(spec).expect("valid spec");
    let schema = dataset.schema.clone();
    let policy = ExceptionPolicy::slope_threshold(0.5);

    // ---- Online: one close per unit, sparse activity --------------------
    let mut per_unit_total = Duration::ZERO;
    let (_, online_peak) = memtrack::measure_peak(|| {
        let mut engine = regcube_stream::online::EngineConfig::new(
            schema.clone(),
            dataset.o_layer.clone(),
            dataset.m_layer.clone(),
        )
        .with_policy(policy.clone())
        .with_tilt(TiltSpec::new(vec![("unit", units.max(2)), ("epoch", 2)]).unwrap())
        .with_ticks_per_unit(ticks)
        .with_algorithm(Algorithm::MoCubing)
        .build()
        .expect("valid engine config");
        for u in 0..units {
            for t in (u * ticks) as i64..((u + 1) * ticks) as i64 {
                for (i, tuple) in dataset.tuples.iter().enumerate() {
                    if i % units != u {
                        continue; // only this unit's slice generates data
                    }
                    engine
                        .ingest(&RawRecord::new(tuple.ids.clone(), t, tuple.isb.predict(t)))
                        .expect("in-window record");
                }
            }
            let report = engine.close_unit().expect("unit closes");
            per_unit_total += report.recompute_time;
        }
    });
    let per_unit = per_unit_total / units as u32;

    // ---- Monolithic: one computation over the whole span ---------------
    let layers = CriticalLayers::new(&schema, dataset.o_layer.clone(), dataset.m_layer.clone())
        .expect("valid layers");
    let window_end = (units * ticks) as i64 - 1;
    let full_tuples: Vec<MTuple> = dataset
        .tuples
        .iter()
        .map(|t| {
            // The tuple's fit over the whole accumulated window: merge its
            // per-unit ISBs with Theorem 3.3 (equivalently, refit).
            let isbs: Vec<Isb> = (0..units)
                .map(|u| {
                    let s = (u * ticks) as i64;
                    let e = ((u + 1) * ticks) as i64 - 1;
                    Isb::new(s, e, t.isb.base(), t.isb.slope()).expect("window")
                })
                .collect();
            let merged = aggregate::merge_time(&isbs).expect("contiguous");
            debug_assert_eq!(merged.interval(), (0, window_end));
            MTuple::new(t.ids.clone(), merged)
        })
        .collect();
    let started = Instant::now();
    let full_result =
        mo_cubing::compute(&schema, &layers, &policy, &full_tuples).expect("valid workload");
    let full = started.elapsed();
    let _ = full_result;

    IncrementalReport {
        units,
        per_unit,
        full,
        online_peak,
        speedup: full.as_secs_f64() / per_unit.as_secs_f64().max(1e-9),
    }
}

/// Prints the comparison and returns it (for JSON export).
pub fn print(r: &IncrementalReport) -> Vec<Table> {
    let mut t = Table::new(
        format!(
            "Incremental vs monolithic recomputation ({} units)",
            r.units
        ),
        &["mode", "time (s)", "peak (MB)"],
    );
    t.push_row(vec![
        "online, per closed unit (mean)".into(),
        fmt_secs(r.per_unit),
        fmt_mb(r.online_peak),
    ]);
    t.push_row(vec![
        "monolithic, full window".into(),
        fmt_secs(r.full),
        "-".into(),
    ]);
    t.print();
    println!(
        "per-unit recomputation is {:.2}x {} than the monolithic pass",
        r.speedup.max(1.0 / r.speedup),
        if r.speedup >= 1.0 { "faster" } else { "slower" }
    );
    println!();
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_replay_completes() {
        let r = run(true);
        assert_eq!(r.units, 4);
        assert!(r.per_unit > Duration::ZERO);
        assert!(r.full > Duration::ZERO);
        // `online_peak` is allocator-derived and depends on concurrent
        // test activity; the speedup ratio is the claim under test.
        assert!(r.speedup.is_finite() && r.speedup > 0.0);
    }
}
