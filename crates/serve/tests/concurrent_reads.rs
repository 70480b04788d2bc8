//! The concurrency stress harness: N reader threads hammer a tenant's
//! published snapshots while a writer ingests and closes units through
//! the server. Every snapshot any reader observes must be
//! **bit-identical** to the single-threaded engine's state at the same
//! unit boundary (no torn reads), and every reader's observed epochs
//! must be monotone.

use regcube_core::ExceptionPolicy;
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_serve::{ServeConfig, Server, TenantId};
use regcube_stream::{EngineConfig, RawRecord};
use regcube_tilt::TiltSpec;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

const TPU: usize = 4;
const UNITS: i64 = 8;
const READERS: usize = 4;

fn config() -> EngineConfig {
    let schema = CubeSchema::synthetic(2, 2, 3).unwrap();
    EngineConfig::new(
        schema,
        CuboidSpec::new(vec![1, 1]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_policy(ExceptionPolicy::slope_threshold(0.8))
    .with_tilt(TiltSpec::new(vec![("unit", 4), ("coarse", 3)]).unwrap())
    .with_ticks_per_unit(TPU)
}

/// The deterministic stream: drifting cells plus one steep cell, the
/// same for the reference run and the served run.
fn unit_records(unit: i64) -> Vec<RawRecord> {
    let mut records = Vec::new();
    for t in unit * TPU as i64..(unit + 1) * TPU as i64 {
        for a in 0..3u32 {
            for b in 0..3u32 {
                let v = if a == 2 && b == 1 {
                    4.0 * (t % TPU as i64) as f64 + unit as f64
                } else {
                    1.0 + 0.3 * f64::from(a) + 0.1 * (t % TPU as i64) as f64 * f64::from(b)
                };
                records.push(RawRecord::new(vec![a, b], t, v));
            }
        }
    }
    records
}

/// The single-threaded ground truth: canonical text at every epoch.
fn reference_texts() -> HashMap<u64, String> {
    let mut engine = config().build().unwrap();
    let mut texts = HashMap::new();
    texts.insert(0, engine.snapshot().canonical_text());
    for unit in 0..UNITS {
        for record in unit_records(unit) {
            engine.ingest(&record).unwrap();
        }
        engine.close_unit().unwrap();
        let snap = engine.snapshot();
        texts.insert(snap.epoch(), snap.canonical_text());
    }
    texts
}

/// Runs the stress: one writer thread drives the server, `READERS`
/// threads loop on lock-free snapshot loads, and afterwards every
/// observation is checked against the single-threaded reference.
#[test]
fn concurrent_reads_are_bit_identical() {
    let reference = reference_texts();

    let server = Arc::new(Server::new(
        ServeConfig::new()
            .with_queue_capacity(4096)
            .with_pump_threads(2),
    ));
    let id = TenantId::from("stress");
    server.create_tenant(id.clone(), config()).unwrap();
    let reader = server.reader(&id).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    // Every reader is running before the writer starts, and each loads
    // at least once before it checks `stop`: the writer may otherwise
    // close every unit before a reader is first scheduled.
    let start = Arc::new(Barrier::new(READERS + 1));
    let handles: Vec<_> = (0..READERS)
        .map(|_| {
            let reader = reader.clone();
            let stop = Arc::clone(&stop);
            let start = Arc::clone(&start);
            thread::spawn(move || {
                let mut observed: Vec<(u64, String)> = Vec::new();
                let mut last_epoch = 0u64;
                start.wait();
                loop {
                    let snap = reader.snapshot();
                    assert!(
                        snap.epoch() >= last_epoch,
                        "epoch regressed: {} then {}",
                        last_epoch,
                        snap.epoch()
                    );
                    last_epoch = snap.epoch();
                    observed.push((snap.epoch(), snap.canonical_text()));
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    thread::yield_now();
                }
                observed
            })
        })
        .collect();

    // The writer: live ingest through the server while readers hammer.
    start.wait();
    for unit in 0..UNITS {
        for record in unit_records(unit) {
            server.ingest(&id, &record).unwrap();
        }
        let pump = server.close_unit(&id).unwrap();
        assert!(pump.errors.is_empty(), "{:?}", pump.errors);
        thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);

    let mut total = 0usize;
    for handle in handles {
        for (epoch, text) in handle.join().unwrap() {
            let expected = reference
                .get(&epoch)
                .unwrap_or_else(|| panic!("observed unknown epoch {epoch}"));
            assert_eq!(
                expected, &text,
                "torn read: epoch {epoch} differs from single-threaded reference"
            );
            total += 1;
        }
    }
    assert!(total > 0, "readers observed nothing");
    // The served endstate itself matches the reference's final epoch.
    let final_snap = server.snapshot(&id).unwrap();
    assert_eq!(final_snap.epoch(), UNITS as u64);
    assert_eq!(&final_snap.canonical_text(), &reference[&(UNITS as u64)]);
}
