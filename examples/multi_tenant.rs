//! Multi-tenant serving: many independent cubes behind one server,
//! dashboards reading while the streams flow.
//!
//! Three tenants (a power utility, a CDN, an IoT sensor fleet) share
//! one `Server`. Each gets a private cube engine, pumped by the one
//! server lane that owns it. A dashboard thread polls
//! every tenant's published snapshot — `DashboardSummary`, `drill_at`
//! time travel, alarm inspection — while the ingest loop keeps
//! feeding records and closing units. Readers never take an engine
//! lock: each read clones an `Arc` out of the tenant's snapshot cell.
//!
//! The example also drives one tenant into backpressure on purpose:
//! its bounded queue fills, producers get the typed
//! `ServeError::Overloaded` (never a silent drop), and the other
//! tenants keep closing units undisturbed.
//!
//! ```text
//! cargo run --example multi_tenant
//! ```

use regcube::prelude::*;
use regcube::serve::{DashboardSummary, ServeError};
use std::sync::Arc;
use std::thread;

/// Ticks per unit for every tenant in the demo.
const TPU: usize = 4;
/// Units to stream.
const UNITS: i64 = 12;

fn tenant_config() -> EngineConfig {
    let schema = CubeSchema::synthetic(2, 2, 3).unwrap();
    EngineConfig::new(
        schema,
        CuboidSpec::new(vec![1, 1]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_ticks_per_unit(TPU)
}

/// One tenant's traffic for one tick: a few cells with
/// tenant-specific slopes, plus a late-day surge on the CDN tenant.
fn records_at(tenant: usize, tick: i64) -> Vec<RawRecord> {
    let unit = tick / TPU as i64;
    (0..6u32)
        .map(|cell| {
            let base = 1.0 + tenant as f64 + 0.1 * f64::from(cell);
            let surge = if tenant == 1 && unit >= 9 {
                3.0 * (tick % TPU as i64) as f64
            } else {
                0.0
            };
            RawRecord::new(vec![cell % 3, cell / 3], tick, base + surge)
        })
        .collect()
}

fn main() {
    let server = Arc::new(Server::new(
        ServeConfig::new()
            .with_max_tenants(16)
            .with_queue_capacity(256),
    ));
    let names = ["power-utility", "cdn-edge", "sensor-fleet"];
    for name in names {
        server.create_tenant(name, tenant_config()).unwrap();
    }
    let ids: Vec<TenantId> = names.iter().map(|n| TenantId::from(*n)).collect();

    // Dashboard thread: polls summaries off published snapshots while
    // ingestion runs. No engine lock is ever taken on this thread.
    let dash_server = Arc::clone(&server);
    let dashboard = thread::spawn(move || {
        let mut polls = 0u64;
        let mut last_epochs = [0u64; 3];
        while last_epochs.iter().any(|&e| e < UNITS as u64) {
            for (i, summary) in dash_server.summaries().into_iter().enumerate() {
                assert!(summary.epoch >= last_epochs[i], "epochs must be monotone");
                last_epochs[i] = summary.epoch;
            }
            polls += 1;
            thread::yield_now();
        }
        polls
    });

    // Ingest loop: feed every tenant tick by tick, closing each unit
    // explicitly — each close publishes a fresh snapshot.
    for unit in 0..UNITS {
        for t in unit * TPU as i64..(unit + 1) * TPU as i64 {
            for (i, id) in ids.iter().enumerate() {
                for record in records_at(i, t) {
                    server.ingest(id, &record).unwrap();
                }
            }
        }
        for id in &ids {
            let pump = server.close_unit(id).unwrap();
            assert!(
                pump.errors.is_empty(),
                "demo feed is clean: {:?}",
                pump.errors
            );
        }
    }
    let polls = dashboard.join().unwrap();

    println!("== fleet overview ({polls} dashboard polls during ingest) ==");
    for summary in server.summaries() {
        print_summary(&summary);
    }

    // Time travel on the surging tenant, straight off its snapshot.
    let reader = server.reader(&ids[1]).unwrap();
    let snapshot = reader.snapshot();
    let key = CellKey::new(vec![0, 0]);
    let hits = snapshot.drill_history(&key).unwrap();
    println!(
        "\n== cdn-edge drill_history({key}) — {} slots ==",
        hits.len()
    );
    for hit in hits.iter().rev().take(4) {
        println!(
            "  {} u{}  slope={:+.3}  score={:.3}{}",
            hit.level_name,
            hit.slot_unit,
            hit.measure.slope(),
            hit.score,
            if hit.exceptional { "  EXCEPTIONAL" } else { "" }
        );
    }

    // Backpressure: saturate the sensor fleet's bounded queue without
    // pumping. Producers get a typed error; nothing accepted is lost,
    // and the other tenants keep serving.
    let victim = &ids[2];
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let flood_tick = UNITS * TPU as i64;
    loop {
        let record = RawRecord::new(vec![0, 0], flood_tick, 1.0);
        match server.ingest(victim, &record) {
            Ok(()) => accepted += 1,
            Err(ServeError::Overloaded { capacity, .. }) => {
                rejected += 1;
                if rejected == 1 {
                    println!("\n== backpressure: queue full at {capacity} records ==");
                }
                if rejected >= 5 {
                    break;
                }
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    // The other tenants are unaffected by the saturated one.
    let pump = server.close_unit(&ids[0]).unwrap();
    assert!(pump.errors.is_empty());

    // A well-behaved producer responds to `Overloaded` with bounded
    // retry: back off, let the pump drain the queue, try again — and
    // give up with the typed error after `MAX_ATTEMPTS`, instead of
    // spinning forever against a stuck tenant.
    let record = RawRecord::new(vec![1, 1], flood_tick, 2.0);
    match ingest_with_retry(&server, victim, &record) {
        Ok(attempts) => println!("retry producer landed after {attempts} attempt(s)"),
        Err(e) => panic!("queue drains under pumping, so retry must land: {e}"),
    }

    // Draining the victim ingests every accepted record.
    server.close_unit(victim).unwrap();
    let stats = server.tenant_stats(victim).unwrap();
    println!(
        "accepted {accepted}, rejected {rejected} (typed), \
         rejections counted: {}",
        stats.overload_rejections
    );
    // The retry producer's rejected attempts are counted too.
    assert!(stats.overload_rejections >= rejected);
}

/// Bounded retry with backoff: the recommended producer-side response
/// to [`ServeError::Overloaded`]. Each failed attempt pumps the tenant
/// (draining its queue into the engine) and sleeps exponentially
/// longer before retrying; any other error, and exhaustion, surface to
/// the caller typed.
fn ingest_with_retry(
    server: &Server,
    id: &TenantId,
    record: &RawRecord,
) -> Result<u32, ServeError> {
    const MAX_ATTEMPTS: u32 = 5;
    const BASE_BACKOFF: std::time::Duration = std::time::Duration::from_millis(1);
    let mut last = None;
    for attempt in 1..=MAX_ATTEMPTS {
        match server.ingest(id, record) {
            Ok(()) => return Ok(attempt),
            Err(e @ ServeError::Overloaded { .. }) => {
                // Help the queue drain, then back off exponentially:
                // 1ms, 2ms, 4ms, ... before the next attempt.
                server.pump_tenant(id)?;
                thread::sleep(BASE_BACKOFF * 2u32.saturating_pow(attempt - 1));
                last = Some(e);
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("exhaustion implies at least one rejection"))
}

fn print_summary(s: &DashboardSummary) {
    println!(
        "  {:14} epoch {:2}  unit {:?}  m-cells {:3}  exc {:3}  alarms {}{}",
        s.tenant.to_string(),
        s.epoch,
        s.unit,
        s.m_cells,
        s.exceptions,
        s.alarms,
        s.top_alarm
            .as_ref()
            .map(|(key, score)| format!("  top {key} @ {score:.2}"))
            .unwrap_or_default()
    );
}
