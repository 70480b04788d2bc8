//! **Alarm**: per-unit overhead of delta-driven alarm sinks vs. the
//! rescan consumer they replace.
//!
//! Before the alarm subsystem, anything reacting to exceptions had to
//! rescan the cube's retained stores after every unit: rebuild per-depth
//! counts, re-rank the hottest cells and diff the full exception set
//! against the previous unit's to discover raises/clears. The
//! [`regcube_core::alarm`] sinks consume the engine's `UnitDelta`
//! instead — O(|delta|) bookkeeping per unit — so their overhead should
//! track the *churn*, not the exception population.
//!
//! The experiment replays the same multi-unit stream (a rotating slice
//! of slopes rescaled per unit so exception status genuinely flips)
//! through one `MoCubingEngine` four times:
//!
//! * **ingest only** — no consumer, the cost floor;
//! * **rescan consumer** — the pre-delta pattern described above;
//! * **delta sinks** — `AlarmLog` + `ThresholdEscalator` +
//!   `DashboardSummary` fed through a `SinkSet` (the log refreshes
//!   open-episode peaks and the escalator sweeps its tracked cells, so
//!   these two are O(open episodes) per unit by design);
//! * **delta dashboard only** — the strict O(|delta|) hot path.
//!
//! Both consumers must agree with the cube on the final active
//! exception count — the speedup is free of semantic drift.

use crate::report::{fmt_count, fmt_secs, Table};
use regcube_core::alarm::{
    self, AlarmContext, AlarmLog, DashboardSummary, SharedSink, SinkSet, ThresholdEscalator,
};
use regcube_core::engine::{CubingEngine, MoCubingEngine, UnitDelta};
use regcube_core::{CriticalLayers, CubeResult, ExceptionPolicy, MTuple};
use regcube_datagen::{Dataset, DatasetSpec};
use regcube_olap::cell::CellKey;
use regcube_olap::fxhash::{FxHashMap, FxHashSet};
use regcube_olap::CuboidSpec;
use regcube_regress::Isb;
use std::time::{Duration, Instant};

/// How many hottest cells the rescan consumer re-ranks per unit. (The
/// delta dashboard answers a raise-time-scored variant of this query
/// off the hot path — live per-unit re-scoring is exactly the rescan
/// work the delta path avoids.)
const TOP_K: usize = 8;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct Point {
    /// Configuration label.
    pub config: String,
    /// Units replayed.
    pub units: usize,
    /// Total replay wall-clock.
    pub total: Duration,
    /// Consumer overhead per unit over the ingest-only floor.
    pub overhead_per_unit: Duration,
    /// Active exception cells the consumer reports after the last unit
    /// (0 for the ingest-only floor).
    pub active_cells: u64,
    /// Exception episodes the consumer observed opening (0 for the
    /// ingest-only floor).
    pub episodes_opened: u64,
}

/// The replay input: one batch per unit window. Each unit, a rotating
/// ~8% of the streams has its slope collapsed to a tenth (and restored
/// the next unit), so exception status genuinely flips — but, as in a
/// real stream, most of the population is stable and |delta| stays far
/// below the exception population.
fn unit_batches(dataset: &Dataset, units: usize, ticks: usize) -> Vec<Vec<MTuple>> {
    (0..units)
        .map(|u| {
            let start = (u * ticks) as i64;
            let end = start + ticks as i64 - 1;
            dataset
                .tuples
                .iter()
                .enumerate()
                .map(|(idx, t)| {
                    let scale = if idx % 12 == u % 12 { 0.1 } else { 1.0 };
                    let isb = Isb::new(start, end, t.isb.base(), t.isb.slope() * scale)
                        .expect("valid window");
                    MTuple::new(t.ids.clone(), isb)
                })
                .collect()
        })
        .collect()
}

/// Replays every batch through a fresh engine, handing each unit's
/// delta and post-batch cube to `consume`. Returns the total wall-clock.
fn replay(
    schema: &regcube_olap::CubeSchema,
    layers: &CriticalLayers,
    policy: &ExceptionPolicy,
    batches: &[Vec<MTuple>],
    mut consume: impl FnMut(&UnitDelta, &CubeResult),
) -> Duration {
    let mut engine =
        MoCubingEngine::new(schema.clone(), layers.clone(), policy.clone()).expect("valid engine");
    let started = Instant::now();
    for batch in batches {
        let delta = engine.ingest_unit(batch).expect("valid replay batch");
        consume(&delta, engine.result());
    }
    started.elapsed()
}

/// The pre-delta consumer: after every unit, rebuild all reaction state
/// by scanning the cube's retained exception stores from scratch.
#[derive(Default)]
struct RescanConsumer {
    prev: FxHashSet<(CuboidSpec, CellKey)>,
    episodes_opened: u64,
    active_cells: u64,
    by_depth: FxHashMap<u32, u64>,
    hottest: Vec<((CuboidSpec, CellKey), f64)>,
}

impl RescanConsumer {
    fn on_unit(&mut self, result: &CubeResult) {
        // Full scan #1: the live set, per-depth counts and scores.
        let mut live: FxHashSet<(CuboidSpec, CellKey)> = FxHashSet::default();
        self.by_depth.clear();
        let mut scored: Vec<((CuboidSpec, CellKey), f64)> = Vec::new();
        for (cuboid, cell, isb) in result.iter_exceptions() {
            live.insert((cuboid.clone(), cell.clone()));
            *self.by_depth.entry(cuboid.total_depth()).or_insert(0) += 1;
            scored.push(((cuboid.clone(), cell.clone()), isb.slope().abs()));
        }
        // Re-rank the hottest cells from scratch.
        scored.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        scored.truncate(TOP_K);
        self.hottest = scored;
        // Full diff against the previous unit to find the raises.
        self.episodes_opened += live.difference(&self.prev).count() as u64;
        self.active_cells = live.len() as u64;
        self.prev = live;
    }
}

/// Runs the comparison and returns one point per configuration.
pub fn run(quick: bool) -> Vec<Point> {
    let (tuples_n, units, fanout) = if quick {
        (1_200, 6, 4)
    } else {
        (30_000, 12, 8)
    };
    let ticks = 16usize;
    let spec = DatasetSpec::new(3, 3, fanout, tuples_n)
        .unwrap()
        .with_series_len(ticks * units);
    let dataset = Dataset::generate(spec).expect("valid spec");
    let schema = dataset.schema.clone();
    let layers = CriticalLayers::new(&schema, dataset.o_layer.clone(), dataset.m_layer.clone())
        .expect("valid layers");
    // A mid-distribution threshold keeps a healthy exception population
    // whose membership churns as the per-unit slope scale cycles.
    let policy = ExceptionPolicy::slope_threshold(crate::experiments::threshold_for_rate(
        &crate::experiments::Workload {
            name: String::new(),
            schema: schema.clone(),
            layers: layers.clone(),
            tuples: dataset
                .tuples
                .iter()
                .map(|t| MTuple::new(t.ids.clone(), t.isb))
                .collect(),
        },
        10.0,
    ));
    let batches = unit_batches(&dataset, units, ticks);

    // Floor: ingestion with no consumer at all.
    let pure = replay(&schema, &layers, &policy, &batches, |_, _| {});
    let per_unit = |total: Duration| {
        Duration::from_nanos((total.saturating_sub(pure)).as_nanos() as u64 / units as u64)
    };

    // The pre-delta pattern: full rescans every unit.
    let mut rescan = RescanConsumer::default();
    let rescan_total = replay(&schema, &layers, &policy, &batches, |_, result| {
        rescan.on_unit(result);
    });

    // The alarm subsystem: delta-driven sinks.
    let log = alarm::shared(AlarmLog::new(1024));
    let escalator = alarm::shared(ThresholdEscalator::new(3, 6, 8));
    let dashboard = alarm::shared(DashboardSummary::new());
    let sinks: SinkSet = [
        log.clone() as SharedSink,
        escalator.clone() as SharedSink,
        dashboard.clone() as SharedSink,
    ]
    .into_iter()
    .collect();
    let sink_total = replay(&schema, &layers, &policy, &batches, |delta, result| {
        let errors = sinks.dispatch(delta, &AlarmContext::new(result, delta));
        assert!(errors.is_empty(), "built-in sinks never fail");
    });

    // The O(|delta|) hot path in isolation: the dashboard sink alone
    // (the log refreshes open-episode peaks and the escalator sweeps
    // its tracked cells — O(open episodes) per unit by design).
    let dash_only = alarm::shared(DashboardSummary::new());
    let dash_sinks: SinkSet = [dash_only.clone() as SharedSink].into_iter().collect();
    let dash_total = replay(&schema, &layers, &policy, &batches, |delta, result| {
        dash_sinks.dispatch(delta, &AlarmContext::new(result, delta));
    });

    let dashboard = dashboard.lock().unwrap();
    let dash_only = dash_only.lock().unwrap();
    let log = log.lock().unwrap();
    vec![
        Point {
            config: "ingest only (floor)".into(),
            units,
            total: pure,
            overhead_per_unit: Duration::ZERO,
            active_cells: 0,
            episodes_opened: 0,
        },
        Point {
            config: "rescan consumer (pre-delta)".into(),
            units,
            total: rescan_total,
            overhead_per_unit: per_unit(rescan_total),
            active_cells: rescan.active_cells,
            episodes_opened: rescan.episodes_opened,
        },
        Point {
            config: "delta sinks (log+escalator+dashboard)".into(),
            units,
            total: sink_total,
            overhead_per_unit: per_unit(sink_total),
            active_cells: dashboard.active_cells(),
            episodes_opened: log.opened_total(),
        },
        Point {
            config: "delta dashboard only (O(|delta|))".into(),
            units,
            total: dash_total,
            overhead_per_unit: per_unit(dash_total),
            active_cells: dash_only.active_cells(),
            episodes_opened: dash_only.appeared_total(),
        },
    ]
}

/// Prints the comparison and returns it (for JSON export).
pub fn print(points: &[Point]) -> Vec<Table> {
    let mut t = Table::new(
        format!(
            "Alarm: per-unit consumer overhead ({} units replayed)",
            points.first().map(|p| p.units).unwrap_or(0)
        ),
        &[
            "configuration",
            "total (s)",
            "overhead/unit (µs)",
            "active cells",
            "episodes",
        ],
    );
    for p in points {
        t.push_row(vec![
            p.config.clone(),
            fmt_secs(p.total),
            format!("{:.1}", p.overhead_per_unit.as_secs_f64() * 1e6),
            fmt_count(p.active_cells),
            fmt_count(p.episodes_opened),
        ]);
    }
    t.print();
    if let (Some(rescan), Some(dash)) = (points.get(1), points.get(3)) {
        let ratio =
            rescan.overhead_per_unit.as_secs_f64() / dash.overhead_per_unit.as_secs_f64().max(1e-9);
        println!(
            "the O(|delta|) dashboard tracks the same {} active cells at {:.1}x less per-unit overhead than the rescan consumer",
            fmt_count(dash.active_cells),
            ratio
        );
    }
    println!();
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consumers_agree_with_the_cube() {
        let points = run(true);
        assert_eq!(points.len(), 4);
        let (rescan, sinks, dash) = (&points[1], &points[2], &points[3]);
        // Same live set and same episode count, however it was derived.
        assert_eq!(rescan.active_cells, sinks.active_cells);
        assert_eq!(rescan.active_cells, dash.active_cells);
        assert_eq!(rescan.episodes_opened, sinks.episodes_opened);
        assert_eq!(rescan.episodes_opened, dash.episodes_opened);
        assert!(rescan.active_cells > 0, "the workload must have exceptions");
        assert!(
            rescan.episodes_opened > rescan.active_cells,
            "per-unit churn must open and close episodes ({} opened, {} active)",
            rescan.episodes_opened,
            rescan.active_cells
        );
    }
}
