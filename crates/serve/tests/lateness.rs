//! The serving layer's lateness path: shuffled, straggling,
//! multi-source records pushed through a watermark-reordering tenant
//! must publish snapshots **bit-identical** to a sorted single-engine
//! replay, and a tenant checkpointed mid-stream must restore into a
//! new server and finish identically.

use proptest::prelude::*;
use regcube_core::ExceptionPolicy;
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_serve::{ServeConfig, Server, TenantId};
use regcube_stream::{EngineConfig, RawRecord, WatermarkPolicy};
use regcube_tilt::TiltSpec;

const TPU: usize = 4;

/// A reorder-enabled analysis with per-source watermarks.
fn config() -> EngineConfig {
    let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
    EngineConfig::new(
        schema,
        CuboidSpec::new(vec![0, 0]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_policy(ExceptionPolicy::slope_threshold(1.0))
    .with_tilt(TiltSpec::new(vec![("unit", 4), ("coarse", 3)]).unwrap())
    .with_ticks_per_unit(TPU)
    .with_reordering(16, 2)
    .with_watermark_policy(WatermarkPolicy::PerSource { idle_units: 4 })
}

fn server() -> Server {
    Server::new(
        ServeConfig::new()
            .with_queue_capacity(4096)
            .with_pump_threads(2),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Stragglers within the allowed lateness, arriving shuffled and
    /// tagged with rotating source ids, leave the served tenant's
    /// final snapshot byte-identical to a sorted replay through a
    /// private engine — the whole queue/pump/publish machinery adds
    /// nothing and loses nothing.
    #[test]
    fn shuffled_stragglers_serve_bit_identical_to_sorted_replay(
        raw in prop::collection::vec(
            (prop::collection::vec(0u32..4, 2), 0i64..28, -10.0..10.0f64),
            4..120,
        ),
        jitters in prop::collection::vec(0i64..(2 * TPU as i64), 120),
    ) {
        // Canonical sorted stream; sources derived from the cell so the
        // per-source watermark map stays busy.
        let mut sorted: Vec<RawRecord> = raw
            .iter()
            .map(|(ids, tick, value)| {
                let source = ids.iter().sum::<u32>() % 3;
                RawRecord::new(ids.clone(), *tick, *value).with_source(source)
            })
            .collect();
        sorted.sort_by(|a, b| {
            (a.tick, &a.ids, a.value.to_bits()).cmp(&(b.tick, &b.ids, b.value.to_bits()))
        });
        // The shuffled arrival order: stable-sort by jittered tick so
        // displacement stays within the allowed lateness.
        let mut shuffled: Vec<(i64, RawRecord)> = sorted
            .iter()
            .zip(&jitters)
            .map(|(r, j)| (r.tick + j, r.clone()))
            .collect();
        shuffled.sort_by_key(|(k, _)| *k);

        // Reference: sorted replay through a private engine.
        let mut model = config().build().unwrap();
        for r in &sorted {
            model.ingest(r).unwrap();
            model.drain_ready().unwrap();
        }
        model.flush().unwrap();

        // Served: shuffled arrival through the full queue/pump path,
        // pumping at arbitrary points (every 7th record).
        let server = server();
        let id = TenantId::from("straggler-tenant");
        server.create_tenant(id.clone(), config()).unwrap();
        for (i, (_, r)) in shuffled.iter().enumerate() {
            server.ingest(&id, r).unwrap();
            if i % 7 == 0 {
                let pump = server.pump_tenant(&id).unwrap();
                prop_assert!(pump.errors.is_empty(), "{:?}", pump.errors);
            }
        }
        let fin = server.flush(&id).unwrap();
        prop_assert!(fin.errors.is_empty(), "{:?}", fin.errors);

        let served = server.snapshot(&id).unwrap();
        prop_assert_eq!(
            served.canonical_text(),
            model.snapshot().canonical_text()
        );
        // The dashboard surfaces the lateness counters from the same
        // snapshot.
        let summary = server.summary(&id).unwrap();
        prop_assert_eq!(summary.late_dropped, model.stats().late_dropped);
        prop_assert_eq!(
            summary.late_amendments,
            model.stats().late_amendments
        );
    }
}

/// A served tenant checkpointed mid-stream restores into a *different*
/// server and finishes bit-identical to the uninterrupted tenant —
/// queue, pump and snapshot cell all rebuilt around the recovered
/// engine.
#[test]
fn tenant_checkpoint_restores_into_a_new_server() {
    let records: Vec<RawRecord> = (0..48i64)
        .map(|i| {
            let ids = vec![(i % 4) as u32, ((i / 2) % 4) as u32];
            let jitter = [0, 3, 1, 5][(i % 4) as usize];
            RawRecord::new(ids, (i - jitter).max(0), (i % 7) as f64 - 3.0)
                .with_source((i % 3) as u32)
        })
        .collect();
    let (first, second) = records.split_at(24);

    // Uninterrupted reference tenant.
    let ref_server = server();
    let rid = TenantId::from("reference");
    ref_server.create_tenant(rid.clone(), config()).unwrap();
    for r in &records {
        ref_server.ingest(&rid, r).unwrap();
    }
    let pump = ref_server.flush(&rid).unwrap();
    assert!(pump.errors.is_empty(), "{:?}", pump.errors);

    // Victim: first half, pump (so queued records are in the engine),
    // checkpoint.
    let dir = std::env::temp_dir().join(format!("regcube-serve-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tenant.rgck");
    {
        let victim_server = server();
        let vid = TenantId::from("victim");
        victim_server.create_tenant(vid.clone(), config()).unwrap();
        for r in first {
            victim_server.ingest(&vid, r).unwrap();
        }
        let pump = victim_server.pump_tenant(&vid).unwrap();
        assert!(pump.errors.is_empty(), "{:?}", pump.errors);
        victim_server.checkpoint_tenant(&vid, &path).unwrap();
        // The server (and the tenant's engine) now goes away entirely.
    }

    // Revival in a fresh server; same id namespace is fine.
    let revived_server = server();
    let vid = TenantId::from("victim");
    revived_server
        .restore_tenant(vid.clone(), config(), &path)
        .unwrap();
    // The restored state is published before any new record arrives.
    assert!(revived_server.snapshot(&vid).unwrap().epoch() > 0);
    for r in second {
        revived_server.ingest(&vid, r).unwrap();
    }
    let pump = revived_server.flush(&vid).unwrap();
    assert!(pump.errors.is_empty(), "{:?}", pump.errors);

    assert_eq!(
        ref_server.snapshot(&rid).unwrap().canonical_text(),
        revived_server.snapshot(&vid).unwrap().canonical_text()
    );
    let (a, b) = (
        ref_server.tenant_stats(&rid).unwrap(),
        revived_server.tenant_stats(&vid).unwrap(),
    );
    assert_eq!(a.late_dropped, b.late_dropped);
    assert_eq!(a.late_amendments, b.late_amendments);

    // A second restore under the same id collides, typed.
    assert!(revived_server
        .restore_tenant(vid.clone(), config(), &path)
        .is_err());
    // A corrupt file admits nothing.
    let garbage = dir.join("garbage.rgck");
    std::fs::write(&garbage, b"not a checkpoint").unwrap();
    let cid = TenantId::from("casualty");
    assert!(revived_server
        .restore_tenant(cid.clone(), config(), &garbage)
        .is_err());
    assert!(revived_server.snapshot(&cid).is_err(), "no tenant admitted");

    std::fs::remove_dir_all(&dir).ok();
}
