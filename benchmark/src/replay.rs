//! Levels B and C: replays of the identical record sequence outside
//! the server.
//!
//! Level B feeds it, single-threaded, to bare `OnlineEngine`s built
//! from the same `EngineConfig`, doing exactly what a tenant's pump
//! does (ingest, close what is closable, snapshot, publish). Its final
//! state is the reference the served run must equal, and its timings
//! split the pump into engine ingest, engine close (with cubing as its
//! child), snapshot and publish.
//!
//! Level C (traced runs only) feeds the same per-unit inputs to the
//! standalone public layer objects — `ReorderState`, `Ingestor`, a
//! cubing engine built as `EngineConfig::build` builds it, one
//! `TiltFrame<Isb>` per cell, a `SinkSet` — to split engine ingest and
//! the non-cubing rest of engine close by layer.

use crate::alloc;
use crate::check::{Fingerprint, Fnv};
use crate::gen::Fleet;
use crate::served::{tenant_sinks, ReportCounts};
use crate::trace::Tracer;
use crate::workloads::Spec;
use regcube_core::alarm::{AlarmContext, AlarmRevision, LateAmendment, SinkSet};
use regcube_core::engine::CubingEngine;
use regcube_core::{CriticalLayers, MoCubingEngine};
use regcube_olap::cell::{project_key, CellKey};
use regcube_olap::fxhash::{FxHashMap, FxHashSet};
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_regress::Isb;
use regcube_serve::SnapshotCell;
use regcube_stream::{BoxedEngine, Ingestor, OnlineEngine, RawRecord, ReorderState, UnitReport};
use regcube_tilt::{AmendOutcome, TiltError, TiltFrame, TiltSpec};
use std::sync::Arc;
use std::time::Instant;

/// Busy time by layer, in ns: the accumulator of one (tenant, tick
/// batch), and summed over a whole replay the source of the
/// per-operation layer metrics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LayerNs {
    // Level B.
    pub engine_ingest: u64,
    pub amend: u64,
    pub engine_close: u64,
    pub cubing: u64,
    pub snapshot: u64,
    pub publish: u64,
    // Level C, arrival phase (children of `engine_ingest` / `amend`).
    pub reorder_arrival: u64,
    pub ingest_arrival: u64,
    pub tilt_amend: u64,
    // Level C, close phase (children of `engine_close`).
    pub reorder_close: u64,
    pub ingest_close: u64,
    pub tilt_push: u64,
    pub dispatch: u64,
    /// Level C's own `CubingEngine::ingest_unit` time: the cross-check
    /// of Level B's `UnitReport::recompute_time`.
    pub cubing_standalone: u64,
}

impl LayerNs {
    pub fn add(&mut self, o: &LayerNs) {
        self.engine_ingest += o.engine_ingest;
        self.amend += o.amend;
        self.engine_close += o.engine_close;
        self.cubing += o.cubing;
        self.snapshot += o.snapshot;
        self.publish += o.publish;
        self.reorder_arrival += o.reorder_arrival;
        self.ingest_arrival += o.ingest_arrival;
        self.tilt_amend += o.tilt_amend;
        self.reorder_close += o.reorder_close;
        self.ingest_close += o.ingest_close;
        self.tilt_push += o.tilt_push;
        self.dispatch += o.dispatch;
        self.cubing_standalone += o.cubing_standalone;
    }
}

/// Exact work counts of a replay, for the per-unit layer metrics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LayerCounts {
    pub records: u64,
    pub amend_records: u64,
    pub snapshots: u64,
    pub snapshot_bytes: u64,
    pub frame_pushes: u64,
    pub frame_amends: u64,
}

/// What a late record did to the units closed so far — Level C replays
/// these through its sinks instead of re-deriving them.
type Corrections = (Vec<LateAmendment>, Vec<AlarmRevision>);

pub struct ReplayB {
    pub fingerprint: Fingerprint,
    pub counts: ReportCounts,
    /// Summed over every unit and tenant.
    pub total: LayerNs,
    pub work: LayerCounts,
    /// Per tenant, per closed unit, in close order (traced runs only).
    pub corrections: Vec<Vec<Corrections>>,
    pub frames_live: u64,
    pub slots_live: u64,
}

struct BareTenant {
    engine: OnlineEngine<BoxedEngine>,
    cell: SnapshotCell,
    corrections: Vec<Corrections>,
}

/// Span indices of one (tenant, driven unit) in Level B, for Level C to
/// hang its children on.
#[derive(Debug, Default, Clone)]
pub struct BSpans {
    /// One per tick batch.
    pub engine_ingest: Vec<usize>,
    pub amend: Option<usize>,
    pub engine_close: Option<usize>,
}

pub struct TraceCtx<'a> {
    pub tracer: &'a mut Tracer,
    /// Which driven units carry spans.
    pub traced: &'a dyn Fn(i64) -> bool,
    /// `[tenant][unit]`.
    pub b_spans: Vec<Vec<BSpans>>,
}

/// Level B. `units` driven units, the last followed by a flush — the
/// same schedule the served run followed.
pub fn replay_engines(
    spec: &Spec,
    seed: u64,
    units: i64,
    epoch: Instant,
    mut trace: Option<&mut TraceCtx<'_>>,
) -> Result<ReplayB, String> {
    let now = || epoch.elapsed().as_nanos() as u64;
    let mut fleet = Fleet::new(spec, seed);
    let config = spec.engine_config();
    let mut tenants = (0..spec.tenants)
        .map(|_| {
            let engine = config
                .clone()
                .with_sinks(tenant_sinks())
                .build()
                .map_err(|e| format!("replay engine: {e}"))?;
            let cell = SnapshotCell::new(Arc::new(engine.snapshot()));
            Ok(BareTenant {
                engine,
                cell,
                corrections: Vec::new(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if let Some(ctx) = trace.as_deref_mut() {
        ctx.b_spans = vec![vec![BSpans::default(); units as usize]; spec.tenants];
    }
    let keep_corrections = trace.is_some();
    let tpu = spec.ticks_per_unit as i64;
    let amend_lag = spec.lateness.map_or(-1, |l| l.amend_lag());
    let mut out = ReplayB {
        fingerprint: Fingerprint::default(),
        counts: ReportCounts::default(),
        total: LayerNs::default(),
        work: LayerCounts::default(),
        corrections: Vec::new(),
        frames_live: 0,
        slots_live: 0,
    };

    for unit in 0..units {
        let spans_on = trace.as_deref().is_some_and(|c| (c.traced)(unit));
        for t in 0..spec.tenants {
            fleet.rewrite(t, unit);
        }
        for k in 0..spec.ticks_per_unit {
            for (t, tenant) in tenants.iter_mut().enumerate() {
                let mut ns = LayerNs::default();
                // Wall-clock intervals of this (tenant, batch), for spans.
                let mut close_iv: Option<(u64, u64)> = None;
                let mut amend_iv: Option<(u64, u64)> = None;
                let batch_start = now();
                let mut lap = batch_start;
                let last_batch = unit + 1 == units && k + 1 == spec.ticks_per_unit;
                let batch = fleet.batch(t, k);
                for (i, record) in batch.iter().enumerate() {
                    if spec.lateness.is_some() {
                        if fleet.lag(t, k, i) == amend_lag {
                            let a = now();
                            ns.engine_ingest += a - lap;
                            tenant.engine.ingest(record).map_err(|e| e.to_string())?;
                            let b = now();
                            ns.amend += b - a;
                            amend_iv = Some((amend_iv.map_or(a, |iv| iv.0), b));
                            out.work.amend_records += 1;
                            lap = b;
                        } else {
                            tenant.engine.ingest(record).map_err(|e| e.to_string())?;
                        }
                        if tenant.engine.close_ready() {
                            let a = now();
                            ns.engine_ingest += a - lap;
                            let reports = tenant.engine.drain_ready().map_err(|e| e.to_string())?;
                            let b = now();
                            ns.engine_close += b - a;
                            close_iv = Some((close_iv.map_or(a, |iv| iv.0), b));
                            publish(tenant, &reports, keep_corrections, &mut ns, &mut out, &now);
                            lap = now();
                        }
                    } else {
                        let record_unit = record.tick.div_euclid(tpu);
                        if tenant.engine.open_unit() < record_unit {
                            let a = now();
                            ns.engine_ingest += a - lap;
                            while tenant.engine.open_unit() < record_unit {
                                let c0 = now();
                                let report =
                                    tenant.engine.close_unit().map_err(|e| e.to_string())?;
                                let c1 = now();
                                ns.engine_close += c1 - c0;
                                close_iv = Some((close_iv.map_or(c0, |iv| iv.0), c1));
                                publish(
                                    tenant,
                                    &[report],
                                    keep_corrections,
                                    &mut ns,
                                    &mut out,
                                    &now,
                                );
                            }
                            lap = now();
                        }
                        tenant.engine.ingest(record).map_err(|e| e.to_string())?;
                    }
                }
                let batch_end = now();
                ns.engine_ingest += batch_end - lap;
                out.work.records += batch.len() as u64;
                if last_batch {
                    let c0 = now();
                    let reports = tenant.engine.flush().map_err(|e| e.to_string())?;
                    let c1 = now();
                    ns.engine_close += c1 - c0;
                    close_iv = Some((close_iv.map_or(c0, |iv| iv.0), c1));
                    publish(tenant, &reports, keep_corrections, &mut ns, &mut out, &now);
                }
                out.total.add(&ns);

                if let Some(ctx) = trace.as_deref_mut().filter(|_| spans_on) {
                    // Spans carry the measured busy time as their length,
                    // anchored at the interval's start: a batch's ingest
                    // time is the batch minus the closes inside it.
                    let spans = &mut ctx.b_spans[t][unit as usize];
                    let tr = &mut *ctx.tracer;
                    let ingest = tr.record(
                        "stream.engine_ingest",
                        batch_start,
                        batch_start + ns.engine_ingest + ns.amend,
                        None,
                        t as u32,
                        unit,
                    );
                    spans.engine_ingest.push(ingest);
                    if let Some((a, _)) = amend_iv {
                        let id = tr.record(
                            "stream.amend",
                            a,
                            a + ns.amend,
                            Some(ingest),
                            t as u32,
                            unit,
                        );
                        spans.amend.get_or_insert(id);
                    }
                    if let Some((c0, _)) = close_iv {
                        let close = tr.record(
                            "stream.engine_close",
                            c0,
                            c0 + ns.engine_close,
                            None,
                            t as u32,
                            unit,
                        );
                        tr.record(
                            "core.cubing",
                            c0,
                            c0 + ns.cubing,
                            Some(close),
                            t as u32,
                            unit,
                        );
                        let s0 = c0 + ns.engine_close;
                        tr.record(
                            "stream.snapshot",
                            s0,
                            s0 + ns.snapshot,
                            None,
                            t as u32,
                            unit,
                        );
                        tr.record(
                            "serve.publish",
                            s0 + ns.snapshot,
                            s0 + ns.snapshot + ns.publish,
                            None,
                            t as u32,
                            unit,
                        );
                        spans.engine_close.get_or_insert(close);
                    }
                }
            }
        }
    }

    // The reference state: what every tenant last published.
    let mut digest = Fnv::new();
    let o_keys = o_layer_keys(spec);
    for (t, tenant) in tenants.iter().enumerate() {
        let snapshot = tenant.cell.load();
        digest.write(snapshot.canonical_text().as_bytes());
        let (frames, slots) = live_frames(&snapshot, fleet.cells(t), &o_keys);
        out.frames_live += frames;
        out.slots_live += slots;
    }
    out.fingerprint = Fingerprint {
        digest: digest.finish(),
        records: out.work.records,
        units_closed: out.counts.units_closed,
        alarms: out.counts.alarms,
        late_amendments: out.counts.late_amendments,
        late_dropped: out.counts.late_dropped,
        alarm_revisions: out.counts.alarm_revisions,
    };
    out.corrections = tenants.into_iter().map(|t| t.corrections).collect();
    Ok(out)
}

/// What a tenant's pump does after closing units: one snapshot of the
/// engine, published through a `SnapshotCell` (strict-order mode closes
/// one unit at a time, so that is one publish per unit).
fn publish(
    tenant: &mut BareTenant,
    reports: &[UnitReport],
    keep_corrections: bool,
    ns: &mut LayerNs,
    out: &mut ReplayB,
    now: &dyn Fn() -> u64,
) {
    for report in reports {
        out.counts.add(report);
        ns.cubing += report.recompute_time.as_nanos() as u64;
        if keep_corrections {
            tenant.corrections.push((
                report.late_amendments.clone(),
                report.alarm_revisions.clone(),
            ));
        }
    }
    if reports.is_empty() {
        return;
    }
    let bytes0 = alloc::totals().1;
    let s0 = now();
    let snapshot = Arc::new(tenant.engine.snapshot());
    let s1 = now();
    tenant.cell.publish(snapshot);
    let s2 = now();
    ns.snapshot += s1 - s0;
    ns.publish += s2 - s1;
    out.work.snapshots += 1;
    out.work.snapshot_bytes += alloc::totals().1 - bytes0;
}

/// Every o-layer key of the workload's schema.
pub fn o_layer_keys(spec: &Spec) -> Vec<CellKey> {
    let card = u64::from(spec.fanout).pow(u32::from(spec.o_level));
    let total = card.pow(spec.dims as u32);
    (0..total)
        .map(|mut n| {
            let ids: Vec<u32> = (0..spec.dims)
                .map(|_| {
                    let id = (n % card) as u32;
                    n /= card;
                    id
                })
                .collect();
            CellKey::new(ids)
        })
        .collect()
}

/// `(frames, retained slots)` of a snapshot, over the tenant's known
/// m-cells and every o-cell.
pub fn live_frames(
    snapshot: &regcube_stream::CubeSnapshot,
    m_cells: &[Vec<u32>],
    o_keys: &[CellKey],
) -> (u64, u64) {
    let m = m_cells.iter().filter_map(|ids| {
        snapshot
            .tilt_frame(&CellKey::new(ids.clone()))
            .map(|f| f.retained_slots())
    });
    let o = o_keys
        .iter()
        .filter_map(|key| snapshot.o_layer_frame(key).map(|f| f.retained_slots()));
    m.chain(o)
        .fold((0, 0), |(frames, slots), n| (frames + 1, slots + n as u64))
}

pub struct ReplayC {
    pub total: LayerNs,
    pub work: LayerCounts,
    pub exception_cells: u64,
    pub units_closed: u64,
    pub frames_live: u64,
}

/// One tenant's pipeline, assembled from the public layer objects the
/// way `OnlineEngine` assembles it.
struct LayerTenant {
    schema: CubeSchema,
    m_layer: CuboidSpec,
    o_layer: CuboidSpec,
    tilt_spec: TiltSpec,
    tpu: i64,
    lateness: i64,
    reorder: Option<ReorderState>,
    ingestor: Ingestor,
    cubing: BoxedEngine,
    frames: FxHashMap<CellKey, TiltFrame<Isb>>,
    o_frames: FxHashMap<CellKey, TiltFrame<Isb>>,
    sinks: SinkSet,
    units_closed: usize,
    /// Amendments applied since the last close (flush closes one more
    /// unit to report them, as the engine does).
    pending_amendments: usize,
}

impl LayerTenant {
    fn new(spec: &Spec) -> Result<LayerTenant, String> {
        let config = spec.engine_config();
        let schema = config.schema.clone();
        let layers = CriticalLayers::new(&schema, config.o_layer.clone(), config.m_layer.clone())
            .map_err(|e| e.to_string())?;
        let cubing = MoCubingEngine::transient(schema.clone(), layers, config.policy.clone())
            .map_err(|e| e.to_string())?;
        let mut sinks = SinkSet::new();
        for sink in tenant_sinks() {
            sinks.push(sink);
        }
        Ok(LayerTenant {
            ingestor: Ingestor::new(
                schema.clone(),
                config.primitive.clone(),
                config.m_layer.clone(),
                config.ticks_per_unit,
            )
            .map_err(|e| e.to_string())?,
            schema,
            m_layer: config.m_layer.clone(),
            o_layer: config.o_layer.clone(),
            tilt_spec: config.tilt_spec.clone(),
            tpu: config.ticks_per_unit as i64,
            lateness: config.reordering.map_or(0, |r| r.lateness),
            reorder: config
                .reordering
                .filter(|r| r.enabled())
                .map(ReorderState::new),
            cubing: Box::new(cubing),
            frames: FxHashMap::default(),
            o_frames: FxHashMap::default(),
            sinks,
            units_closed: 0,
            pending_amendments: 0,
        })
    }

    /// Pushes one unit into a frame family: the active cells' ISBs
    /// (zero-backfilled from the epoch when a cell is new), a zero fill
    /// for every silent one. Returns the number of pushes.
    fn push_frames(
        frames: &mut FxHashMap<CellKey, TiltFrame<Isb>>,
        spec: &TiltSpec,
        active: &[(CellKey, Isb)],
        unit: i64,
        window: (i64, i64),
        tpu: i64,
    ) -> Result<u64, String> {
        let err = |e: TiltError| e.to_string();
        let zero = Isb::new(window.0, window.1, 0.0, 0.0).map_err(|e| e.to_string())?;
        let mut pushes = 0u64;
        let mut seen: FxHashSet<&CellKey> = FxHashSet::default();
        for (key, isb) in active {
            seen.insert(key);
            let frame = frames
                .entry(key.clone())
                .or_insert_with(|| TiltFrame::new(spec.clone()));
            if frame.next_unit() == 0 {
                for u in 0..unit {
                    let fill = Isb::new(u * tpu, u * tpu + tpu - 1, 0.0, 0.0)
                        .map_err(|e| e.to_string())?;
                    frame.push(fill).map_err(err)?;
                    pushes += 1;
                }
            }
            frame.push(*isb).map_err(err)?;
            pushes += 1;
        }
        for (key, frame) in frames.iter_mut() {
            if !seen.contains(key) {
                frame.push(zero).map_err(err)?;
                pushes += 1;
            }
        }
        Ok(pushes)
    }

    /// The layer-by-layer equivalent of `OnlineEngine::close_unit`.
    fn close(
        &mut self,
        corrections: &[Corrections],
        ns: &mut LayerNs,
        work: &mut LayerCounts,
        exception_cells: &mut u64,
        now: &dyn Fn() -> u64,
    ) -> Result<(), String> {
        let t0 = now();
        let open = self.ingestor.open_unit();
        let buffered = match self.reorder.as_mut() {
            Some(st) => st.take_unit(open),
            None => Vec::new(),
        };
        let t1 = now();
        if self.reorder.is_some() {
            ns.reorder_close += t1 - t0;
        }
        for record in &buffered {
            self.ingestor.ingest(record).map_err(|e| e.to_string())?;
        }
        let window = self.ingestor.open_window();
        let (unit, cells) = self.ingestor.close_unit().map_err(|e| e.to_string())?;
        let tuples = Ingestor::to_mtuples(&cells);
        let t2 = now();
        ns.ingest_close += t2 - t1;
        work.frame_pushes += Self::push_frames(
            &mut self.frames,
            &self.tilt_spec,
            &cells,
            unit,
            window,
            self.tpu,
        )?;
        let t3 = now();
        ns.tilt_push += t3 - t2;

        let empty = (Vec::new(), Vec::new());
        let (amendments, revisions) = corrections.get(self.units_closed).unwrap_or(&empty);
        self.units_closed += 1;
        self.pending_amendments = 0;
        if cells.is_empty() {
            work.frame_pushes += Self::push_frames(
                &mut self.o_frames,
                &self.tilt_spec,
                &[],
                unit,
                window,
                self.tpu,
            )?;
            let t4 = now();
            ns.tilt_push += t4 - t3;
            self.sinks.dispatch_amendments(amendments);
            self.sinks.dispatch_revisions(revisions);
            ns.dispatch += now() - t4;
            return Ok(());
        }

        let mut delta = self
            .cubing
            .ingest_unit(&tuples)
            .map_err(|e| e.to_string())?;
        delta.sort_cells();
        let t4 = now();
        ns.cubing_standalone += t4 - t3;
        let result = self.cubing.result();
        *exception_cells += result.total_exception_cells();
        self.sinks.dispatch_amendments(amendments);
        self.sinks.dispatch_revisions(revisions);
        self.sinks
            .dispatch(&delta, &AlarmContext::new(result, &delta));
        let t5 = now();
        ns.dispatch += t5 - t4;
        let o_cells: Vec<(CellKey, Isb)> = result
            .o_table()
            .iter()
            .map(|(k, m)| (k.clone(), *m))
            .collect();
        work.frame_pushes += Self::push_frames(
            &mut self.o_frames,
            &self.tilt_spec,
            &o_cells,
            unit,
            window,
            self.tpu,
        )?;
        ns.tilt_push += now() - t5;
        Ok(())
    }

    /// A straggler for a closed unit inside the allowed lateness: the
    /// two `TiltFrame::amend_slot` calls of `OnlineEngine::ingest`.
    fn amend(&mut self, unit: i64, record: &RawRecord) -> Result<u64, String> {
        let o_key = CellKey::new(project_key(
            &self.schema,
            &self.m_layer,
            &record.ids,
            &self.o_layer,
        ));
        let m_key = CellKey::new(record.ids.clone());
        let (tick, delta) = (record.tick, record.value);
        let amend = |m: &Isb| m.amend_tick(tick, delta).map_err(TiltError::Merge);
        let mut amended = 0;
        for (frames, key) in [(&mut self.frames, &m_key), (&mut self.o_frames, &o_key)] {
            if let Some(frame) = frames.get_mut(key) {
                if let AmendOutcome::Amended { .. } = frame
                    .amend_slot(unit as u64, amend)
                    .map_err(|e| e.to_string())?
                {
                    amended += 1;
                }
            }
        }
        self.pending_amendments += 1;
        Ok(amended)
    }
}

/// Level C. Needs Level B's per-unit corrections (to dispatch the same
/// amendments and revisions to its sinks) and span indices.
pub fn replay_layers(
    spec: &Spec,
    seed: u64,
    units: i64,
    epoch: Instant,
    b: &ReplayB,
    ctx: &mut TraceCtx<'_>,
) -> Result<ReplayC, String> {
    let now = || epoch.elapsed().as_nanos() as u64;
    let mut fleet = Fleet::new(spec, seed);
    let mut tenants = (0..spec.tenants)
        .map(|_| LayerTenant::new(spec))
        .collect::<Result<Vec<_>, String>>()?;
    let mut out = ReplayC {
        total: LayerNs::default(),
        work: LayerCounts::default(),
        exception_cells: 0,
        units_closed: 0,
        frames_live: 0,
    };

    for unit in 0..units {
        let spans_on = (ctx.traced)(unit);
        for t in 0..spec.tenants {
            fleet.rewrite(t, unit);
        }
        for k in 0..spec.ticks_per_unit {
            for (t, tenant) in tenants.iter_mut().enumerate() {
                let corrections = &b.corrections[t];
                let mut arrival = LayerNs::default();
                let mut closing = LayerNs::default();
                let batch = fleet.batch(t, k);
                let a0 = now();
                if tenant.reorder.is_some() {
                    // Pass 1 (ingest layer): the arrival-time validation.
                    for record in batch {
                        tenant
                            .ingestor
                            .validate(record)
                            .map_err(|e| e.to_string())?;
                    }
                    let a1 = now();
                    arrival.ingest_arrival += a1 - a0;
                    // Pass 2 (reorder layer): watermark, buffer, drop.
                    let mut lap = a1;
                    for record in batch {
                        let record_unit = record.tick.div_euclid(tenant.tpu);
                        let open = tenant.ingestor.open_unit();
                        let st = tenant.reorder.as_mut().expect("reorder enabled");
                        st.observe_from(record_unit, record.source);
                        if record_unit >= open {
                            st.buffer(record_unit, record.clone())
                                .map_err(|e| e.to_string())?;
                        } else if record_unit < 0 || record_unit < open - tenant.lateness {
                            st.count_drop();
                        } else {
                            let m0 = now();
                            arrival.reorder_arrival += m0 - lap;
                            out.work.frame_amends += tenant.amend(record_unit, record)?;
                            lap = now();
                            arrival.tilt_amend += lap - m0;
                        }
                        while tenant
                            .reorder
                            .as_ref()
                            .is_some_and(|st| st.close_ready(tenant.ingestor.open_unit()))
                        {
                            let c0 = now();
                            arrival.reorder_arrival += c0 - lap;
                            tenant.close(
                                corrections,
                                &mut closing,
                                &mut out.work,
                                &mut out.exception_cells,
                                &now,
                            )?;
                            lap = now();
                        }
                    }
                    arrival.reorder_arrival += now() - lap;
                } else {
                    let mut lap = a0;
                    for record in batch {
                        let record_unit = record.tick.div_euclid(tenant.tpu);
                        while tenant.ingestor.open_unit() < record_unit {
                            let c0 = now();
                            arrival.ingest_arrival += c0 - lap;
                            tenant.close(
                                corrections,
                                &mut closing,
                                &mut out.work,
                                &mut out.exception_cells,
                                &now,
                            )?;
                            lap = now();
                        }
                        tenant.ingestor.ingest(record).map_err(|e| e.to_string())?;
                    }
                    arrival.ingest_arrival += now() - lap;
                }
                if unit + 1 == units && k + 1 == spec.ticks_per_unit {
                    // `OnlineEngine::flush`.
                    loop {
                        let open = tenant.ingestor.open_unit();
                        let buffered = tenant
                            .reorder
                            .as_ref()
                            .and_then(ReorderState::max_buffered_unit)
                            .is_some_and(|u| u >= open);
                        if !buffered
                            && tenant.ingestor.open_cells() == 0
                            && tenant.pending_amendments == 0
                        {
                            break;
                        }
                        tenant.close(
                            corrections,
                            &mut closing,
                            &mut out.work,
                            &mut out.exception_cells,
                            &now,
                        )?;
                    }
                }
                out.total.add(&arrival);
                out.total.add(&closing);

                if spans_on {
                    let parents = &ctx.b_spans[t][unit as usize];
                    let tr = &mut *ctx.tracer;
                    let (tn, mut at) = (t as u32, a0);
                    let mut child = |name, ns: u64, parent: Option<usize>| {
                        if ns > 0 {
                            tr.record(name, at, at + ns, parent, tn, unit);
                            at += ns;
                        }
                    };
                    let ingest_parent = parents.engine_ingest.get(k).copied();
                    child("stream.reorder", arrival.reorder_arrival, ingest_parent);
                    child("stream.ingest", arrival.ingest_arrival, ingest_parent);
                    child("tilt.push", arrival.tilt_amend, parents.amend);
                    child(
                        "stream.reorder",
                        closing.reorder_close,
                        parents.engine_close,
                    );
                    child("stream.ingest", closing.ingest_close, parents.engine_close);
                    child("tilt.push", closing.tilt_push, parents.engine_close);
                    child(
                        "core.alarm_dispatch",
                        closing.dispatch,
                        parents.engine_close,
                    );
                }
            }
        }
    }
    for tenant in &tenants {
        out.units_closed += tenant.units_closed as u64;
        out.frames_live += (tenant.frames.len() + tenant.o_frames.len()) as u64;
    }
    Ok(out)
}
