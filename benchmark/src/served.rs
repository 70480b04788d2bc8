//! Level A: the real run. One closed-loop client drives the fleet
//! through the public `regcube_serve::Server` API — per raw tick every
//! record of that tick across the fleet, then one `pump()`, and at every
//! unit boundary one query batch off the tenants' readers — and times
//! each of those calls from outside.

use crate::alloc;
use crate::calib::Calibrator;
use crate::gen::{mix, Fleet};
use crate::trace::{Tracer, NO_TENANT};
use crate::workloads::{Spec, DURABILITY_REPEATS, ENCODE_PASSES, RESTORE_PASSES};
use regcube_core::alarm::{self, AlarmLog, SharedSink};
use regcube_olap::cell::{project_key, CellKey};
use regcube_olap::CuboidSpec;
use regcube_serve::{DashboardSummary, Server, TenantId, TenantReader};
use regcube_stream::{restore_bytes, CubeSnapshot, UnitReport};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// `ops_attempted` / `ops_failed`: ingests, pumps, queries and
/// checkpoint/restore calls, and every one of them that failed — every
/// `ServeError` (`Overloaded` included), every `TenantPump::errors`
/// entry, every query `Err`, every digest or epoch mismatch.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

/// Exact counts read off the unit reports of one engine fleet.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReportCounts {
    pub units_closed: u64,
    pub alarms: u64,
    pub late_amendments: u64,
    pub late_dropped: u64,
    pub alarm_revisions: u64,
    pub exception_cells: u64,
}

impl ReportCounts {
    pub fn add(&mut self, report: &UnitReport) {
        self.units_closed += 1;
        self.alarms += report.alarms.len() as u64;
        self.late_amendments += report.late_amendments.len() as u64;
        self.late_dropped += report.late_dropped;
        self.alarm_revisions += report.alarm_revisions.len() as u64;
        self.exception_cells += report.exception_cells;
    }
}

/// The sinks registered on every tenant's engine: one episode log and
/// one dashboard digest, the two the alarm layer ships.
pub fn tenant_sinks() -> [SharedSink; 2] {
    [
        alarm::shared(AlarmLog::new(1024)) as SharedSink,
        alarm::shared(alarm::DashboardSummary::new()) as SharedSink,
    ]
}

pub const QUERY_KINDS: usize = 6;
pub const QUERY_KIND_NAMES: [&str; QUERY_KINDS] = [
    "snapshot_load",
    "summary",
    "drill_history",
    "drill_at",
    "drill_children",
    "alarms",
];

/// The fixed query mix of a workload, on seeded hot and cold keys: a
/// "hot" key comes from a set of eight per tenant that is asked about
/// again and again, a "cold" key from anywhere among the tenant's cells.
pub struct QueryPlan {
    o_layer: CuboidSpec,
    snapshot: Vec<usize>,
    summary: Vec<usize>,
    drill_history: Vec<(usize, CellKey)>,
    drill_at: Vec<(usize, usize, CellKey)>,
    drill_children: Vec<(usize, CellKey)>,
    alarms: Vec<usize>,
}

impl QueryPlan {
    pub fn new(spec: &Spec, fleet: &Fleet, seed: u64) -> QueryPlan {
        let schema = spec.schema();
        let (m_layer, o_layer) = (spec.m_layer(), spec.o_layer());
        let tenants = spec.tenants;
        let m_key = |t: usize, n: u64| -> CellKey {
            let cells = fleet.cells(t);
            let h = mix(seed ^ 0xC01D, n);
            let pick = if n % 2 == 0 { h % 8 } else { h };
            CellKey::new(cells[(pick % cells.len() as u64) as usize].clone())
        };
        let o_key = |t: usize, n: u64| -> CellKey {
            CellKey::new(project_key(&schema, &m_layer, m_key(t, n).ids(), &o_layer))
        };
        let round_robin = |n: usize| (0..n).map(|i| i % tenants).collect::<Vec<_>>();
        let q = spec.queries;
        QueryPlan {
            snapshot: round_robin(q.snapshot),
            summary: round_robin(q.summary),
            // Three m-cell ladders to one o-cell ladder.
            drill_history: (0..q.drill_history)
                .map(|i| {
                    let (t, n) = (i % tenants, i as u64);
                    (t, if i % 4 == 3 { o_key(t, n) } else { m_key(t, n) })
                })
                .collect(),
            drill_at: (0..q.drill_at)
                .map(|i| {
                    let (t, n) = (i % tenants, (i + 7919) as u64);
                    (t, i % 2, if i % 4 == 3 { o_key(t, n) } else { m_key(t, n) })
                })
                .collect(),
            drill_children: (0..q.drill_children)
                .map(|i| (i % tenants, o_key(i % tenants, (i + 104_729) as u64)))
                .collect(),
            alarms: round_robin(q.alarms),
            o_layer,
        }
    }
}

/// One query batch: ns per kind, and how many queries failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct QuerySample {
    pub kind_ns: [u64; QUERY_KINDS],
    pub failed: u64,
}

impl QuerySample {
    pub fn total_ns(&self) -> u64 {
        self.kind_ns.iter().sum()
    }
}

/// A server with its fleet admitted, as one set-up leaves it.
pub struct Served {
    pub server: Server,
    pub ids: Vec<TenantId>,
    pub readers: Vec<TenantReader>,
    pub plan: QueryPlan,
    /// Reused across batches so the batch itself allocates nothing for
    /// the harness.
    held: Vec<Arc<CubeSnapshot>>,
    /// Whether every tenant has published a cube yet.
    published: bool,
}

impl Served {
    /// `Server::new` plus every `create_tenant`, with the sinks and the
    /// readers a dashboard would hold.
    pub fn new(spec: &Spec, fleet: &Fleet, seed: u64, ops: &mut Ops) -> Result<Served, String> {
        let server = Server::new(spec.serve_config());
        let ids: Vec<TenantId> = (0..spec.tenants)
            .map(|t| TenantId::from(format!("tenant-{t:04}")))
            .collect();
        let config = spec.engine_config();
        for id in &ids {
            ops.attempted += 1;
            server
                .create_tenant(id.clone(), config.clone().with_sinks(tenant_sinks()))
                .map_err(|e| format!("create_tenant {id}: {e}"))?;
        }
        let readers = ids
            .iter()
            .map(|id| server.reader(id).map_err(|e| format!("reader {id}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Served {
            server,
            ids,
            readers,
            plan: QueryPlan::new(spec, fleet, seed),
            held: Vec::with_capacity(spec.tenants),
            published: false,
        })
    }

    /// Runs the workload's query batch against the currently published
    /// snapshots. Results are folded through `black_box`.
    pub fn query_batch(&mut self, cal: &Calibrator) -> QuerySample {
        let mut sample = QuerySample::default();
        let plan = &self.plan;
        let mut lap = cal.now_ns();
        let mut mark = |slot: &mut u64| {
            let now = cal.now_ns();
            *slot = now - lap;
            lap = now;
        };

        self.held.clear();
        for &t in &plan.snapshot {
            let snapshot = self.readers[t].snapshot();
            black_box(snapshot.epoch());
            if self.held.len() == t {
                self.held.push(snapshot);
            }
        }
        mark(&mut sample.kind_ns[0]);
        for &t in &plan.summary {
            black_box(DashboardSummary::of(self.ids[t].clone(), &self.held[t]));
        }
        mark(&mut sample.kind_ns[1]);
        for (t, key) in &plan.drill_history {
            match self.held[*t].drill_history(key) {
                Ok(hits) => {
                    black_box(hits);
                }
                Err(_) => sample.failed += 1,
            }
        }
        mark(&mut sample.kind_ns[2]);
        for (t, level, key) in &plan.drill_at {
            match self.held[*t].drill_at(*level, key) {
                Ok(hits) => {
                    black_box(hits);
                }
                Err(_) => sample.failed += 1,
            }
        }
        mark(&mut sample.kind_ns[3]);
        for (t, key) in &plan.drill_children {
            match self.held[*t].drill_children(&plan.o_layer, key) {
                Ok(hits) => {
                    black_box(hits);
                }
                Err(_) => sample.failed += 1,
            }
        }
        mark(&mut sample.kind_ns[4]);
        for &t in &plan.alarms {
            black_box(self.held[t].alarms().len());
        }
        mark(&mut sample.kind_ns[5]);
        // The cells still hold these snapshots, so this only drops
        // reference counts; nothing is kept alive into the next unit.
        self.held.clear();
        sample
    }
}

/// What driving one unit measured.
#[derive(Debug, Default, Clone)]
pub struct UnitSample {
    /// Midpoint of the unit's timed work, for `speed(t)`.
    pub t_ns: u64,
    pub enqueue_ns: u64,
    pub pump_ns: u64,
    pub query: QuerySample,
    pub gen_ns: u64,
    pub calib_ns: u64,
    pub records: u64,
    /// First `ingest` of a tick batch → `pump()` returning the reports
    /// of the unit that batch made closable, for each such batch.
    pub publish_ns: Vec<u64>,
    pub traced: bool,
    /// CPU the worker threads used during this unit (traced units only).
    pub worker_cpu_ns: u64,
    pub alloc_calls: u64,
    pub alloc_bytes: u64,
}

impl UnitSample {
    /// The driver's time for the unit: ingest + pump + query batch.
    /// Generator rewrite and calibration slice are not in it.
    pub fn driver_ns(&self) -> u64 {
        self.enqueue_ns + self.pump_ns + self.query.total_ns()
    }
}

/// Mutable state a run threads through every unit.
pub struct Drive<'a> {
    pub cal: &'a mut Calibrator,
    pub ops: &'a mut Ops,
    pub counts: &'a mut ReportCounts,
    pub tracer: Option<&'a mut Tracer>,
}

/// Drives one unit of the fleet through the server. `finish` flushes
/// every tenant after the last tick, which closes the final unit at a
/// unit boundary so the state can be checkpointed.
pub fn drive_unit(
    served: &mut Served,
    fleet: &mut Fleet,
    spec: &Spec,
    unit: i64,
    traced: bool,
    finish: bool,
    drive: &mut Drive<'_>,
) -> UnitSample {
    let mut sample = UnitSample {
        traced,
        ..UnitSample::default()
    };
    let g0 = drive.cal.now_ns();
    for t in 0..fleet.tenants() {
        fleet.rewrite(t, unit);
    }
    let g1 = drive.cal.now_ns();
    sample.gen_ns = g1 - g0;
    sample.calib_ns = drive.cal.slice();
    if let Some(tracer) = drive.tracer.as_deref_mut().filter(|_| traced) {
        tracer.record("harness.gen", g0, g1, None, NO_TENANT, unit);
        tracer.record(
            "harness.calib",
            g1,
            g1 + sample.calib_ns,
            None,
            NO_TENANT,
            unit,
        );
    }

    let cpu0 = if traced { worker_cpu_ns() } else { 0 };
    let alloc0 = alloc::totals();
    if traced {
        alloc::set_counting(true);
    }
    let started = drive.cal.now_ns();
    for k in 0..spec.ticks_per_unit {
        // Enqueue: every record of this tick batch across the fleet.
        let t0 = drive.cal.now_ns();
        let mut lap = t0;
        for (t, id) in served.ids.iter().enumerate() {
            let batch = fleet.batch(t, k);
            for record in batch {
                if served.server.ingest(id, record).is_err() {
                    drive.ops.failed += 1;
                }
            }
            drive.ops.attempted += batch.len() as u64;
            sample.records += batch.len() as u64;
            let now = drive.cal.now_ns();
            if let Some(tracer) = drive.tracer.as_deref_mut().filter(|_| traced) {
                tracer.record("serve.enqueue", lap, now, None, t as u32, unit);
            }
            lap = now;
        }
        let t1 = lap;
        let mut pumps = served.server.pump();
        if finish && k + 1 == spec.ticks_per_unit {
            for id in &served.ids {
                match served.server.flush(id) {
                    Ok(pump) => pumps.push(pump),
                    Err(_) => drive.ops.failed += 1,
                }
                drive.ops.attempted += 1;
            }
        }
        let t2 = drive.cal.now_ns();
        drive.ops.attempted += 1;
        sample.enqueue_ns += t1 - t0;
        sample.pump_ns += t2 - t1;
        if let Some(tracer) = drive.tracer.as_deref_mut().filter(|_| traced) {
            tracer.record("serve.pump", t1, t2, None, NO_TENANT, unit);
        }

        // Bookkeeping, outside every timer.
        let mut published = false;
        for pump in &pumps {
            drive.ops.failed += pump.errors.len() as u64;
            for report in &pump.reports {
                drive.counts.add(report);
                drive.ops.failed += report.sink_errors.len() as u64;
            }
            if let Some(last) = pump.reports.last() {
                published = true;
                // The published snapshot must be the one the last report
                // names.
                let t = served
                    .ids
                    .binary_search(&pump.tenant)
                    .expect("pump of a known tenant");
                if served.readers[t].snapshot().epoch() != last.snapshot_epoch {
                    drive.ops.failed += 1;
                }
            }
        }
        if published {
            sample.publish_ns.push(t2 - t0);
        }
    }

    // Unit boundary: one query batch, once every tenant has published a
    // cube (before that a drill has nothing to drill into).
    let q0 = drive.cal.now_ns();
    if served.published || served.readers.iter().all(|r| r.snapshot().epoch() > 0) {
        served.published = true;
        sample.query = served.query_batch(drive.cal);
        drive.ops.attempted += spec.queries.total() as u64;
        drive.ops.failed += sample.query.failed;
    }
    let q1 = drive.cal.now_ns();
    if traced {
        alloc::set_counting(false);
        let alloc1 = alloc::totals();
        sample.alloc_calls = alloc1.0 - alloc0.0;
        sample.alloc_bytes = alloc1.1 - alloc0.1;
        sample.worker_cpu_ns = worker_cpu_ns().saturating_sub(cpu0);
    }
    if let Some(tracer) = drive.tracer.as_deref_mut().filter(|_| traced) {
        tracer.record("query.batch", q0, q1, None, NO_TENANT, unit);
    }
    sample.t_ns = (started + q1) / 2;
    sample
}

/// What the durability phase measured on the end-of-run state.
#[derive(Debug, Default, Clone)]
pub struct Durability {
    /// `(t_ns, ns per pass)` per repetition: Σ over tenants of
    /// `OnlineEngine::checkpoint_bytes()`.
    pub encode: Vec<(u64, u64)>,
    /// `(t_ns, ns per pass)` per repetition: Σ over tenants of
    /// `restore_bytes`.
    pub restore: Vec<(u64, u64)>,
    /// Σ over tenants of checkpoint file length.
    pub bytes: u64,
    /// Raw time of `Server::checkpoint_tenant` to disk, all tenants.
    /// Informational: file writes are dominated by the host.
    pub file_write_ns: u64,
}

/// Checkpoints every tenant once through the server, then measures
/// encode and restore in memory. Every restored engine must render the
/// pre-checkpoint snapshot byte for byte.
pub fn durability(
    served: &Served,
    spec: &Spec,
    dir: &Path,
    cal: &mut Calibrator,
    ops: &mut Ops,
) -> Result<Durability, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut out = Durability::default();
    let config = spec.engine_config();
    let mut files: Vec<Vec<u8>> = Vec::with_capacity(served.ids.len());
    for id in &served.ids {
        let path = dir.join(format!("{id}.rgck"));
        let w0 = cal.now_ns();
        ops.attempted += 1;
        if let Err(e) = served.server.checkpoint_tenant(id, &path) {
            ops.failed += 1;
            return Err(format!("checkpoint_tenant {id}: {e}"));
        }
        out.file_write_ns += cal.now_ns() - w0;
        let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        out.bytes += bytes.len() as u64;
        files.push(bytes);
    }
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;

    // Engines to encode from, and the round-trip check.
    let mut engines = Vec::with_capacity(files.len());
    for (t, bytes) in files.iter().enumerate() {
        ops.attempted += 1;
        let engine = restore_bytes(config.clone(), bytes)
            .map_err(|e| format!("restore {}: {e}", served.ids[t]))?;
        let before = served.readers[t].snapshot().canonical_text();
        if engine.snapshot().canonical_text() != before {
            ops.failed += 1;
        }
        engines.push(engine);
    }

    for _ in 0..DURABILITY_REPEATS {
        cal.slice();
        let t0 = cal.now_ns();
        let mut restored = Vec::with_capacity(RESTORE_PASSES * files.len());
        for _ in 0..RESTORE_PASSES {
            for bytes in &files {
                match restore_bytes(config.clone(), bytes) {
                    Ok(engine) => restored.push(engine),
                    Err(_) => ops.failed += 1,
                }
            }
        }
        let t1 = cal.now_ns();
        ops.attempted += (RESTORE_PASSES * files.len()) as u64;
        out.restore
            .push(((t0 + t1) / 2, (t1 - t0) / RESTORE_PASSES as u64));
        drop(black_box(restored));
    }
    for _ in 0..DURABILITY_REPEATS {
        cal.slice();
        let t0 = cal.now_ns();
        let mut encoded = 0u64;
        for _ in 0..ENCODE_PASSES {
            for engine in &engines {
                match engine.checkpoint_bytes() {
                    Ok(bytes) => encoded += black_box(bytes).len() as u64,
                    Err(_) => ops.failed += 1,
                }
            }
        }
        let t1 = cal.now_ns();
        ops.attempted += (ENCODE_PASSES * engines.len()) as u64;
        if encoded != ENCODE_PASSES as u64 * out.bytes {
            ops.failed += 1;
        }
        out.encode
            .push(((t0 + t1) / 2, (t1 - t0) / ENCODE_PASSES as u64));
    }
    Ok(out)
}

/// CPU time, in ns, every thread of this process except the calling one
/// has used so far (`/proc/self/task/*/schedstat`, first field). The
/// workers are asleep whenever the driver reads this, so their figures
/// are final.
pub fn worker_cpu_ns() -> u64 {
    let me = std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().map(|n| n.to_owned()));
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|task| Some(task.file_name()) != me)
        .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// `VmHWM` of this process in MB, or 0 where `/proc` has none.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
