//! One workload, start to finish: set-up (repeated), the measured
//! window, the durability phase, the correctness checks against the
//! replay and the recorded values, and the metrics.

use crate::alloc;
use crate::calib::Calibrator;
use crate::check::{self, Fingerprint, Fnv};
use crate::gen::Fleet;
use crate::replay::{self, TraceCtx};
use crate::served::{
    self, drive_unit, Drive, Durability, Ops, ReportCounts, Served, UnitSample, QUERY_KINDS,
    QUERY_KIND_NAMES,
};
use crate::stats::{median, percentile, sorted};
use crate::trace::{self, Tracer};
use crate::workloads::{Spec, DEFAULT_SECONDS, DEFAULT_SEED, HELD_OUT_SEED, SETUP_REPEATS};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Units per block of the traced run: blocks alternate between traced
/// (spans recorded, allocations counted) and plain, so one run holds
/// both populations side by side and their ratio is the tracing
/// overhead. Four, so that every block sees each phase of the finest
/// tilt level's four-unit promotion cycle once.
const TRACE_BLOCK_UNITS: i64 = 4;
/// Units per block of the throughput median.
const RATE_BLOCK_UNITS: usize = 4;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

pub struct RunResult {
    pub correct: bool,
    pub ops: Ops,
    /// Every end-to-end metric (untraced run) or every per-layer metric
    /// (traced run).
    pub metrics: Vec<Metric>,
    /// The uncalibrated readings of the time metrics, for the `aa`
    /// table's raw-spread columns.
    pub raw: Vec<Metric>,
    pub fingerprint: Fingerprint,
    pub checkpoint_bytes: u64,
    /// The human-readable report.
    pub text: String,
}

/// Where the benchmark writes: `benchmark/out/` of the checkout it was
/// built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Runs `spec` for a window sized for `seconds` on the reference
/// machine. Work is fixed by `(spec, seconds)`, not by the clock, so
/// every count repeats exactly.
pub fn run_workload(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<RunResult, String> {
    let epoch = Instant::now();
    let mut cal = Calibrator::new(epoch);
    let mut ops = Ops::default();
    let mut counts = ReportCounts::default();
    let warm = spec.warm_units as i64;
    let window = spec.window_units(seconds) as i64;
    let mut tracer = trace.then(|| Tracer::with_capacity(1 << 16));
    let traced =
        move |unit: i64| trace && unit >= warm && ((unit - warm) / TRACE_BLOCK_UNITS) % 2 == 0;

    // Set-up, repeated: generator template, server, tenants, warm-up
    // units driven exactly like the window. The last one stays.
    let mut setups: Vec<Vec<(u64, u64)>> = Vec::new();
    let mut kept: Option<(Fleet, Served)> = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        counts = ReportCounts::default();
        let mut parts = Vec::with_capacity(spec.warm_units + 1);
        let s0 = cal.now_ns();
        let mut fleet = Fleet::new(spec, seed);
        let mut served = Served::new(spec, &fleet, seed, &mut ops)?;
        let s1 = cal.now_ns();
        parts.push(((s0 + s1) / 2, s1 - s0));
        for unit in 0..warm {
            let mut drive = Drive {
                cal: &mut cal,
                ops: &mut ops,
                counts: &mut counts,
                tracer: None,
            };
            let sample = drive_unit(
                &mut served,
                &mut fleet,
                spec,
                unit,
                false,
                false,
                &mut drive,
            );
            parts.push((sample.t_ns, sample.driver_ns()));
        }
        setups.push(parts);
        kept = Some((fleet, served));
    }
    let (mut fleet, mut served) = kept.expect("SETUP_REPEATS is at least 1");

    // The measured window.
    let mut samples: Vec<UnitSample> = Vec::with_capacity(window as usize);
    for unit in warm..warm + window {
        let mut drive = Drive {
            cal: &mut cal,
            ops: &mut ops,
            counts: &mut counts,
            tracer: tracer.as_mut(),
        };
        samples.push(drive_unit(
            &mut served,
            &mut fleet,
            spec,
            unit,
            traced(unit),
            unit + 1 == warm + window,
            &mut drive,
        ));
    }

    // Memory is read here: what the server needed under load, before
    // the durability phase and the replays hold copies of their own.
    let peak_rss_mb = served::peak_rss_mb();

    // Durability phase, on the end-of-run state.
    let ckpt_dir = out_dir().join(format!("ckpt-{}-{}", spec.name, std::process::id()));
    let durability = served::durability(&served, spec, &ckpt_dir, &mut cal, &mut ops)?;

    // What was served, and the exact counters of the layers under it.
    let mut digest = Fnv::new();
    let mut layer_counts = ServedCounts::default();
    let o_keys = replay::o_layer_keys(spec);
    for (t, id) in served.ids.iter().enumerate() {
        let snapshot = served.readers[t].snapshot();
        digest.write(snapshot.canonical_text().as_bytes());
        let (frames, slots) = replay::live_frames(&snapshot, fleet.cells(t), &o_keys);
        layer_counts.frames_live += frames;
        layer_counts.slots_live += slots;
        let stats = served
            .server
            .tenant_stats(id)
            .map_err(|e| format!("tenant_stats {id}: {e}"))?;
        layer_counts.rows_folded += stats.rows_folded;
        layer_counts.table_bytes += stats.peak_bytes as u64;
        layer_counts.watermark_held_units += stats.watermark_held_units;
        layer_counts.rejections += stats.overload_rejections;
    }
    let total_units = warm + window;
    let fingerprint = Fingerprint {
        digest: digest.finish(),
        records: (spec.tenants * spec.records_per_unit()) as u64 * total_units as u64,
        units_closed: counts.units_closed,
        alarms: counts.alarms,
        late_amendments: counts.late_amendments,
        late_dropped: counts.late_dropped,
        alarm_revisions: counts.alarm_revisions,
    };
    let harness_mb = (fleet.approx_bytes() + (8 << 20)) as f64 / (1 << 20) as f64;
    drop(served);
    drop(fleet);

    // Correctness: (a) the single-threaded replay of the same arrival
    // order, (b) the recorded values where this seed has any.
    let mut problems: Vec<String> = Vec::new();
    let mut ctx = tracer.as_mut().map(|tracer| TraceCtx {
        tracer,
        traced: &traced,
        b_spans: Vec::new(),
    });
    alloc::set_counting(trace);
    let b = replay::replay_engines(spec, seed, total_units, epoch, ctx.as_mut())?;
    alloc::set_counting(false);
    problems.extend(fingerprint.mismatches(&b.fingerprint, "replay"));
    match check::expected(spec.name, seed, seconds) {
        Some((recorded, recorded_bytes)) => {
            problems.extend(fingerprint.mismatches(&recorded, "recorded"));
            if recorded_bytes != durability.bytes {
                problems.push(format!(
                    "checkpoint_bytes: served {} != recorded {recorded_bytes}",
                    durability.bytes
                ));
            }
        }
        None if [DEFAULT_SEED, HELD_OUT_SEED].contains(&seed) && seconds == DEFAULT_SECONDS => {
            problems.push(format!("expected.json has no entry for seed {seed}"));
        }
        None => {}
    }
    let c = match ctx.as_mut() {
        Some(ctx) => {
            let c = replay::replay_layers(spec, seed, total_units, epoch, &b, ctx)?;
            if c.units_closed != b.counts.units_closed
                || c.exception_cells != b.counts.exception_cells
                || c.frames_live != b.frames_live
            {
                problems.push(format!(
                    "layer replay diverged: units {}/{}, exception cells {}/{}, frames {}/{}",
                    c.units_closed,
                    b.counts.units_closed,
                    c.exception_cells,
                    b.counts.exception_cells,
                    c.frames_live,
                    b.frames_live
                ));
            }
            Some(c)
        }
        None => None,
    };
    drop(ctx);
    ops.attempted += problems.len() as u64;
    ops.failed += problems.len() as u64;

    // Metrics.
    let mut text = String::new();
    let _ = writeln!(
        text,
        "== {} · seed {seed} · {seconds} s · {} warm-up + {window} window units · {} tenants ==",
        spec.name, spec.warm_units, spec.tenants
    );
    let e2e = EndToEnd::new(spec, &cal, &setups, &samples, &durability, peak_rss_mb);
    let (metrics, raw) = match (&tracer, &c) {
        (Some(tracer), Some(c)) => {
            let path = out_dir().join(format!("trace-{}.json", spec.name));
            tracer
                .write_json(&path, spec.name)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            let _ = writeln!(text, "spans: {} → {}", tracer.spans.len(), path.display());
            let inputs = LayerInputs {
                spec,
                cal: &cal,
                samples: &samples,
                durability: &durability,
                counts: &counts,
                served: &layer_counts,
                b: &b,
                c,
                e2e: &e2e,
            };
            (layer_metrics(&inputs, &tracer.spans, &mut text), Vec::new())
        }
        _ => {
            let _ = writeln!(
                text,
                "harness buffers ≈ {harness_mb:.1} MB of {peak_rss_mb:.1} MB peak RSS"
            );
            (e2e.metrics(), e2e.raw_metrics())
        }
    };
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    for m in &metrics {
        let _ = writeln!(text, "  {:<width$}  {:>16.4} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(
        text,
        "  ops_attempted {}  ops_failed {}",
        ops.attempted, ops.failed
    );
    for p in &problems {
        let _ = writeln!(text, "  MISMATCH {p}");
    }
    Ok(RunResult {
        correct: ops.failed == 0,
        ops,
        metrics,
        raw,
        fingerprint,
        checkpoint_bytes: durability.bytes,
        text,
    })
}

/// Exact counters read off the served tenants at the end of the run.
#[derive(Debug, Default, Clone, Copy)]
struct ServedCounts {
    frames_live: u64,
    slots_live: u64,
    rows_folded: u64,
    table_bytes: u64,
    watermark_held_units: u64,
    rejections: u64,
}

/// The eight end-to-end metrics, calibrated and raw.
struct EndToEnd {
    setup_s: (f64, f64),
    records_per_s: (f64, f64),
    publish_ms: (Vec<f64>, Vec<f64>),
    query_p50_us: f64,
    encode_ms: f64,
    restore_ms: f64,
    checkpoint_bytes: f64,
    peak_rss_mb: f64,
}

impl EndToEnd {
    fn new(
        spec: &Spec,
        cal: &Calibrator,
        setups: &[Vec<(u64, u64)>],
        samples: &[UnitSample],
        durability: &Durability,
        peak_rss_mb: f64,
    ) -> EndToEnd {
        let cal_sum = |parts: &[(u64, u64)]| -> f64 {
            parts.iter().map(|&(t, ns)| cal.calibrated(ns, t)).sum()
        };
        let raw_sum =
            |parts: &[(u64, u64)]| -> f64 { parts.iter().map(|&(_, ns)| ns as f64).sum() };
        let setup_cal: Vec<f64> = setups.iter().map(|p| cal_sum(p) / 1e9).collect();
        let setup_raw: Vec<f64> = setups.iter().map(|p| raw_sum(p) / 1e9).collect();

        // Throughput is the median over blocks of consecutive units (a
        // block holds one full promotion cycle of the finest tilt
        // level, so every block does the same work): one slow unit
        // cannot move it, a slow layer moves every block.
        let block_rates = |calibrated: bool| -> Vec<f64> {
            samples
                .chunks_exact(RATE_BLOCK_UNITS)
                .map(|block| {
                    let records: u64 = block.iter().map(|s| s.records).sum();
                    let ns: f64 = block
                        .iter()
                        .map(|s| {
                            if calibrated {
                                cal.calibrated(s.driver_ns(), s.t_ns)
                            } else {
                                s.driver_ns() as f64
                            }
                        })
                        .sum();
                    records as f64 / (ns / 1e9)
                })
                .collect()
        };

        let publish_cal: Vec<f64> = samples
            .iter()
            .flat_map(|s| {
                s.publish_ns
                    .iter()
                    .map(|&ns| cal.calibrated(ns, s.t_ns) / 1e6)
            })
            .collect();
        let publish_raw: Vec<f64> = samples
            .iter()
            .flat_map(|s| s.publish_ns.iter().map(|&ns| ns as f64 / 1e6))
            .collect();
        let batch = spec.queries.total().max(1) as f64;
        let query_us: Vec<f64> = samples
            .iter()
            .map(|s| cal.calibrated(s.query.total_ns(), s.t_ns) / batch / 1e3)
            .collect();
        let reps_ms = |reps: &[(u64, u64)]| -> f64 {
            median(
                &reps
                    .iter()
                    .map(|&(t, ns)| cal.calibrated(ns, t) / 1e6)
                    .collect::<Vec<_>>(),
            )
        };
        EndToEnd {
            setup_s: (median(&setup_cal), median(&setup_raw)),
            records_per_s: (median(&block_rates(true)), median(&block_rates(false))),
            publish_ms: (publish_cal, publish_raw),
            query_p50_us: median(&query_us),
            encode_ms: reps_ms(&durability.encode),
            restore_ms: reps_ms(&durability.restore),
            checkpoint_bytes: durability.bytes as f64,
            peak_rss_mb,
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", self.setup_s.0, "s"),
            metric("records_per_s", self.records_per_s.0, "1/s"),
            metric("publish_p50_ms", median(&self.publish_ms.0), "ms"),
            metric("query_p50_us", self.query_p50_us, "us"),
            metric("checkpoint_encode_ms", self.encode_ms, "ms"),
            metric("restore_ms", self.restore_ms, "ms"),
            metric("checkpoint_bytes", self.checkpoint_bytes, "bytes"),
            metric("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }

    fn raw_metrics(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", self.setup_s.1, "s"),
            metric("records_per_s", self.records_per_s.1, "1/s"),
            metric("publish_p50_ms", median(&self.publish_ms.1), "ms"),
        ]
    }
}

struct LayerInputs<'a> {
    spec: &'a Spec,
    cal: &'a Calibrator,
    samples: &'a [UnitSample],
    durability: &'a Durability,
    counts: &'a ReportCounts,
    served: &'a ServedCounts,
    b: &'a replay::ReplayB,
    c: &'a replay::ReplayC,
    e2e: &'a EndToEnd,
}

/// The per-layer metrics of a traced run, and the layer table whose
/// rows sum to the traced window.
fn layer_metrics(x: &LayerInputs<'_>, spans: &[trace::Span], text: &mut String) -> Vec<Metric> {
    let traced: Vec<&UnitSample> = x.samples.iter().filter(|s| s.traced).collect();
    let plain: Vec<&UnitSample> = x.samples.iter().filter(|s| !s.traced).collect();
    let window: f64 = traced.iter().map(|s| s.driver_ns() as f64).sum();
    let records: f64 = traced.iter().map(|s| s.records as f64).sum();
    let share = |ns: f64| if window > 0.0 { ns / window } else { 0.0 };
    let per = |ns: f64, n: f64| if n > 0.0 { ns / n } else { 0.0 };

    // Self time by span name. Level A's spans are wall time on the
    // driver thread. Level B/C's are busy time of a serial replay; the
    // pump they explain ran on the worker threads, whose CPU time
    // `busy` is, so they are scaled by `pump wall ÷ busy` onto the
    // driver's clock, and what the workers spent beyond the replay is
    // the serving layer's own overhead.
    let st = trace::self_times(spans);
    let self_ns = |name: &str| st.get(name).copied().unwrap_or(0) as f64;
    let enqueue = self_ns("serve.enqueue");
    let pump_wall = self_ns("serve.pump");
    let query = self_ns("query.batch");
    let busy: f64 = traced.iter().map(|s| s.worker_cpu_ns as f64).sum();
    const REPLAYED: [&str; 10] = [
        "stream.engine_ingest",
        "stream.amend",
        "stream.engine_close",
        "core.cubing",
        "stream.snapshot",
        "serve.publish",
        "stream.reorder",
        "stream.ingest",
        "tilt.push",
        "core.alarm_dispatch",
    ];
    let replayed: f64 = REPLAYED.iter().map(|n| self_ns(n)).sum();
    let scale = if busy > 0.0 { pump_wall / busy } else { 1.0 };
    let on_driver = |name: &str| self_ns(name) * scale;
    let overhead = (busy - replayed) * scale;

    let kind_ns: Vec<f64> = (0..QUERY_KINDS)
        .map(|k| traced.iter().map(|s| s.query.kind_ns[k] as f64).sum())
        .collect();
    let mut rows: Vec<(String, f64)> = vec![("serve.enqueue".into(), enqueue)];
    for name in [
        "stream.reorder",
        "stream.ingest",
        "core.cubing",
        "tilt.push",
        "core.alarm_dispatch",
        "stream.amend",
    ] {
        rows.push((name.into(), on_driver(name)));
    }
    rows.push(("stream.close_rest".into(), on_driver("stream.engine_close")));
    rows.push(("stream.snapshot".into(), on_driver("stream.snapshot")));
    rows.push(("serve.publish".into(), on_driver("serve.publish")));
    rows.push(("serve.overhead".into(), overhead));
    for (k, name) in QUERY_KIND_NAMES.iter().enumerate() {
        rows.push((format!("query.{name}"), kind_ns[k]));
    }
    // Whatever no row above names: the driver's own loop between spans,
    // the part of a query batch outside its kinds, and engine ingest
    // time that the layer replay did not reproduce.
    let named: f64 = rows.iter().map(|(_, ns)| ns).sum();
    let unattributed = window - named;
    rows.push(("harness.unattributed".into(), unattributed));

    let _ = writeln!(
        text,
        "layer table · traced window {:.3} s ({} of {} units) · pump wall {:.3} s, worker CPU {:.3} s",
        window / 1e9,
        traced.len(),
        x.samples.len(),
        pump_wall / 1e9,
        busy / 1e9
    );
    for (name, ns) in &rows {
        let _ = writeln!(
            text,
            "  {name:<24} {:>10.3} ms  {:>6.2} %",
            ns / 1e6,
            100.0 * share(*ns)
        );
    }
    let _ = writeln!(
        text,
        "  {:<24} {:>10.3} ms  {:>6.2} %",
        "sum",
        rows.iter().map(|(_, ns)| ns).sum::<f64>() / 1e6,
        100.0 * share(rows.iter().map(|(_, ns)| ns).sum())
    );
    let (b_all, c_all) = (x.b.total, x.c.total);
    let _ = writeln!(
        text,
        "  cubing cross-check: Σ UnitReport::recompute_time {:.1} ms, standalone ingest_unit {:.1} ms",
        b_all.cubing as f64 / 1e6,
        c_all.cubing_standalone as f64 / 1e6
    );

    let row = |name: &str| -> f64 {
        rows.iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, ns)| *ns)
    };
    let units_closed = x.b.counts.units_closed as f64;
    let snapshots = x.b.work.snapshots as f64;
    let all_records = x.b.work.records as f64;
    let publish = sorted(&x.e2e.publish_ms.0);
    let kind_counts = x.spec.queries.counts();
    let kind_per =
        |k: usize, div: f64| per(kind_ns[k], kind_counts[k] as f64 * traced.len() as f64) / div;
    let mb = x.durability.bytes as f64 / (1 << 20) as f64;
    let speeds = sorted(&x.cal.speeds());
    let unit_time = |units: &[&UnitSample]| -> f64 {
        median(
            &units
                .iter()
                .map(|s| x.cal.calibrated(s.driver_ns(), s.t_ns))
                .collect::<Vec<_>>(),
        )
    };
    let window_all: f64 = x.samples.iter().map(|s| s.driver_ns() as f64).sum();
    let calib_all: f64 = x.samples.iter().map(|s| s.calib_ns as f64).sum();
    let gen_all: f64 = x.samples.iter().map(|s| s.gen_ns as f64).sum();
    let alloc_calls: f64 = traced.iter().map(|s| s.alloc_calls as f64).sum();
    let alloc_bytes: f64 = traced.iter().map(|s| s.alloc_bytes as f64).sum();

    vec![
        metric("serve.enqueue_ns_per_record", per(enqueue, records), "ns"),
        metric("serve.enqueue_share", share(enqueue), "share"),
        metric("serve.pump_share", share(pump_wall), "share"),
        metric("serve.overhead_share", share(overhead), "share"),
        metric(
            "serve.publish_us",
            per(b_all.publish as f64, snapshots) / 1e3,
            "us",
        ),
        metric(
            "serve.queue_depth_max",
            (x.spec.records_per_unit() / x.spec.ticks_per_unit) as f64,
            "count",
        ),
        metric("serve.rejections", x.served.rejections as f64, "count"),
        metric("serve.publish_p90_ms", percentile(&publish, 90.0), "ms"),
        metric("serve.publish_p99_ms", percentile(&publish, 99.0), "ms"),
        metric(
            "stream.reorder_ns_per_record",
            per(
                (c_all.reorder_arrival + c_all.reorder_close) as f64,
                all_records,
            ),
            "ns",
        ),
        metric(
            "stream.reorder_share",
            share(row("stream.reorder")),
            "share",
        ),
        metric(
            "stream.ingest_ns_per_record",
            per(
                (c_all.ingest_arrival + c_all.ingest_close) as f64,
                all_records,
            ),
            "ns",
        ),
        metric("stream.ingest_share", share(row("stream.ingest")), "share"),
        metric(
            "stream.close_ms_per_unit",
            per(b_all.engine_close as f64, units_closed) / 1e6,
            "ms",
        ),
        metric(
            "stream.close_rest_share",
            share(row("stream.close_rest")),
            "share",
        ),
        metric(
            "stream.snapshot_ms_per_unit",
            per(b_all.snapshot as f64, snapshots) / 1e6,
            "ms",
        ),
        metric(
            "stream.snapshot_share",
            share(row("stream.snapshot")),
            "share",
        ),
        metric(
            "stream.snapshot_bytes_cloned",
            per(x.b.work.snapshot_bytes as f64, snapshots),
            "bytes",
        ),
        metric(
            "stream.amend_ns_per_amendment",
            per(b_all.amend as f64, x.b.work.amend_records as f64),
            "ns",
        ),
        metric(
            "stream.late_amendments",
            x.counts.late_amendments as f64,
            "count",
        ),
        metric("stream.late_dropped", x.counts.late_dropped as f64, "count"),
        metric(
            "stream.alarm_revisions",
            x.counts.alarm_revisions as f64,
            "count",
        ),
        metric(
            "stream.watermark_held_units",
            x.served.watermark_held_units as f64,
            "count",
        ),
        metric(
            "stream.checkpoint_encode_ms_per_mb",
            per(x.e2e.encode_ms, mb),
            "ms/MB",
        ),
        metric(
            "stream.checkpoint_restore_ms_per_mb",
            per(x.e2e.restore_ms, mb),
            "ms/MB",
        ),
        metric(
            "stream.checkpoint_file_write_ms",
            x.durability.file_write_ns as f64 / 1e6,
            "ms",
        ),
        metric(
            "stream.checkpoint_bytes_per_cell",
            per(x.durability.bytes as f64, x.served.frames_live as f64),
            "bytes",
        ),
        metric(
            "core.cubing_ms_per_unit",
            per(b_all.cubing as f64, units_closed) / 1e6,
            "ms",
        ),
        metric("core.cubing_share", share(row("core.cubing")), "share"),
        metric("core.rows_folded", x.served.rows_folded as f64, "count"),
        metric(
            "core.exception_cells",
            x.counts.exception_cells as f64,
            "count",
        ),
        metric("core.alarms_raised", x.counts.alarms as f64, "count"),
        metric("core.table_bytes", x.served.table_bytes as f64, "bytes"),
        metric(
            "core.alarm_dispatch_us_per_unit",
            per(c_all.dispatch as f64, units_closed) / 1e3,
            "us",
        ),
        metric(
            "tilt.push_ns_per_frame",
            per(
                (c_all.tilt_push + c_all.tilt_amend) as f64,
                (x.c.work.frame_pushes + x.c.work.frame_amends) as f64,
            ),
            "ns",
        ),
        metric("tilt.push_share", share(row("tilt.push")), "share"),
        metric("tilt.frames_live", x.served.frames_live as f64, "count"),
        metric("tilt.slots_live", x.served.slots_live as f64, "count"),
        metric("query.snapshot_load_ns", kind_per(0, 1.0), "ns"),
        metric("query.summary_us", kind_per(1, 1e3), "us"),
        metric("query.drill_history_us", kind_per(2, 1e3), "us"),
        metric("query.drill_at_us", kind_per(3, 1e3), "us"),
        metric("query.drill_children_us", kind_per(4, 1e3), "us"),
        metric("query.share", share(query), "share"),
        metric(
            "mem.alloc_calls_per_record",
            per(alloc_calls, records),
            "count",
        ),
        metric(
            "mem.alloc_bytes_per_unit",
            per(alloc_bytes, traced.len() as f64),
            "bytes",
        ),
        metric(
            "harness.calib_speed_p50",
            percentile(&speeds, 50.0),
            "ratio",
        ),
        metric(
            "harness.calib_speed_min",
            speeds.first().copied().unwrap_or(1.0),
            "ratio",
        ),
        metric("harness.calib_share", per(calib_all, window_all), "share"),
        metric("harness.gen_share", per(gen_all, window_all), "share"),
        metric("harness.raw_records_per_s", x.e2e.records_per_s.1, "1/s"),
        metric(
            "harness.raw_publish_p50_ms",
            median(&x.e2e.publish_ms.1),
            "ms",
        ),
        metric("harness.unattributed_share", share(unattributed), "share"),
        metric(
            "harness.trace_overhead_share",
            per(unit_time(&traced), unit_time(&plain)) - 1.0,
            "share",
        ),
    ]
}
