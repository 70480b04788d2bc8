//! Backpressure failure injection: a full bounded queue must be a
//! typed [`ServeError::Overloaded`] — never a silent drop — accepted
//! records must never be lost, rejections must be counted, and a
//! saturated tenant must not stall any other tenant's unit closes.

use regcube_core::alarm::{self, AlarmContext, AlarmSink};
use regcube_core::{CoreError, ExceptionPolicy, UnitDelta};
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_serve::{ServeConfig, ServeError, Server, TenantId};
use regcube_stream::{EngineConfig, RawRecord, StreamError};
use regcube_tilt::TiltSpec;

const TPU: usize = 4;

fn config() -> EngineConfig {
    let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
    EngineConfig::new(
        schema,
        CuboidSpec::new(vec![0, 0]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_policy(ExceptionPolicy::slope_threshold(10.0))
    .with_tilt(TiltSpec::new(vec![("unit", 4), ("coarse", 3)]).unwrap())
    .with_ticks_per_unit(TPU)
}

fn server(queue_capacity: usize) -> Server {
    Server::new(
        ServeConfig::new()
            .with_queue_capacity(queue_capacity)
            .with_pump_threads(2),
    )
}

/// Total mass warehoused at the m-layer of the latest snapshot — with
/// every record carrying value 1.0, this counts accepted records.
fn warehoused_mass(server: &Server, id: &TenantId) -> f64 {
    let snap = server.snapshot(id).unwrap();
    match snap.try_cube() {
        None => 0.0,
        Some(cube) => cube.m_table().values().map(|isb| isb.sum_z()).sum(),
    }
}

#[test]
fn full_queue_rejects_typed_and_counts() {
    let server = server(8);
    let id = TenantId::from("t");
    server.create_tenant(id.clone(), config()).unwrap();

    // Exactly `capacity` records are accepted, then typed rejections.
    for i in 0..8i64 {
        let r = RawRecord::new(vec![0, 0], i % TPU as i64, 1.0);
        assert!(server.ingest(&id, &r).is_ok(), "record {i} within capacity");
    }
    for _ in 0..3 {
        let r = RawRecord::new(vec![0, 0], 0, 1.0);
        match server.ingest(&id, &r) {
            Err(ServeError::Overloaded { tenant, capacity }) => {
                assert_eq!(tenant, id);
                assert_eq!(capacity, 8);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }
    let stats = server.tenant_stats(&id).unwrap();
    assert_eq!(stats.overload_rejections, 3, "every rejection is counted");

    // Pumping frees the queue; ingest works again immediately.
    let pump = server.pump_tenant(&id).unwrap();
    assert!(pump.errors.is_empty());
    assert!(server
        .ingest(&id, &RawRecord::new(vec![0, 0], 1, 1.0))
        .is_ok());
}

#[test]
fn accepted_records_are_never_lost() {
    let server = server(4);
    let id = TenantId::from("t");
    server.create_tenant(id.clone(), config()).unwrap();

    // Drive several saturation cycles: each cycle accepts up to
    // capacity, collects rejections, then drains. Every accepted
    // record (value 1.0) must end up warehoused.
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut tick = 0i64;
    for _cycle in 0..5 {
        for burst in 0..7 {
            let r = RawRecord::new(vec![burst % 2, 0], tick % TPU as i64, 1.0);
            match server.ingest(&id, &r) {
                Ok(()) => accepted += 1,
                Err(ServeError::Overloaded { .. }) => rejected += 1,
                Err(e) => panic!("unexpected {e}"),
            }
            tick += 1;
        }
        let pump = server.pump_tenant(&id).unwrap();
        assert!(pump.errors.is_empty(), "{:?}", pump.errors);
    }
    server.close_unit(&id).unwrap();
    assert!(rejected > 0, "the injection must actually saturate");
    let mass = warehoused_mass(&server, &id);
    assert!(
        (mass - accepted as f64).abs() < 1e-9,
        "warehoused {mass} but accepted {accepted}: records were lost"
    );
    let stats = server.tenant_stats(&id).unwrap();
    assert_eq!(stats.overload_rejections, rejected);
}

#[test]
fn saturated_tenant_does_not_stall_others() {
    let server = server(4);
    let hog = TenantId::from("hog");
    let healthy = TenantId::from("healthy");
    server.create_tenant(hog.clone(), config()).unwrap();
    server.create_tenant(healthy.clone(), config()).unwrap();

    // Saturate the hog and leave its queue full (never pumped).
    for i in 0..4i64 {
        server
            .ingest(&hog, &RawRecord::new(vec![0, 0], i, 1.0))
            .unwrap();
    }
    assert!(matches!(
        server.ingest(&hog, &RawRecord::new(vec![0, 0], 0, 1.0)),
        Err(ServeError::Overloaded { .. })
    ));

    // The healthy tenant keeps ingesting, closing and publishing.
    for unit in 0..3i64 {
        for t in unit * TPU as i64..(unit + 1) * TPU as i64 {
            server
                .ingest(&healthy, &RawRecord::new(vec![1, 1], t, 2.0))
                .unwrap();
        }
        let pump = server.close_unit(&healthy).unwrap();
        assert!(pump.errors.is_empty());
        assert_eq!(
            server.snapshot(&healthy).unwrap().epoch(),
            (unit + 1) as u64,
            "healthy tenant's publishes must proceed while the hog is saturated"
        );
    }
    // The hog's queue is intact: draining it loses nothing.
    server.close_unit(&hog).unwrap();
    assert!((warehoused_mass(&server, &hog) - 4.0).abs() < 1e-9);
}

#[test]
fn bad_records_are_contained_per_tenant() {
    let server = server(64);
    let id = TenantId::from("t");
    server.create_tenant(id.clone(), config()).unwrap();

    // Malformed records (an id out of the schema's range, a wrong
    // arity) between good ones are rejected at the door, typed, and
    // never queued.
    server
        .ingest(&id, &RawRecord::new(vec![0, 0], 0, 1.0))
        .unwrap();
    for bad in [vec![99, 0], vec![1]] {
        match server.ingest(&id, &RawRecord::new(bad, 1, 1.0)) {
            Err(ServeError::Stream(StreamError::BadRecord { .. })) => {}
            other => panic!("expected a BadRecord rejection, got {other:?}"),
        }
    }
    server
        .ingest(&id, &RawRecord::new(vec![1, 1], 2, 1.0))
        .unwrap();
    let pump = server.close_unit(&id).unwrap();
    assert!(pump.errors.is_empty(), "{:?}", pump.errors);
    // The good records around them were ingested.
    assert!((warehoused_mass(&server, &id) - 2.0).abs() < 1e-9);
    // A rejection is not backpressure.
    assert_eq!(server.tenant_stats(&id).unwrap().overload_rejections, 0);
}

#[test]
fn admission_control_caps_tenants() {
    let server = Server::new(ServeConfig::new().with_max_tenants(2));
    server.create_tenant("a", config()).unwrap();
    server.create_tenant("b", config()).unwrap();
    match server.create_tenant("c", config()) {
        Err(ServeError::AdmissionDenied { max_tenants }) => assert_eq!(max_tenants, 2),
        other => panic!("expected AdmissionDenied, got {other:?}"),
    }
    match server.create_tenant("a", config()) {
        Err(ServeError::DuplicateTenant { tenant }) => assert_eq!(tenant.as_str(), "a"),
        other => panic!("expected DuplicateTenant, got {other:?}"),
    }
    // Dropping frees a slot.
    server.drop_tenant(&TenantId::from("a")).unwrap();
    server.create_tenant("c", config()).unwrap();
    assert_eq!(server.tenant_count(), 2);
}

#[test]
fn a_panicking_tenant_fails_alone_and_typed() {
    struct Panicking;
    impl AlarmSink for Panicking {
        fn on_unit(&mut self, _: &UnitDelta, _: &AlarmContext<'_>) -> Result<(), CoreError> {
            panic!("injected: a sink with a bug");
        }
    }

    let server = server(64);
    let ids: Vec<TenantId> = ["a", "b", "c"].map(TenantId::from).into();
    for id in &ids {
        server.create_tenant(id.clone(), config()).unwrap();
    }
    let bad = &ids[1];
    server.add_sink(bad, alarm::shared(Panicking)).unwrap();

    // Three pumps, each carrying one unit for every tenant and closing
    // the one before it: "b" panics in the first close (second pump)
    // and must be the only tenant that ever notices.
    for unit in 0..3i64 {
        for id in &ids {
            let r = RawRecord::new(vec![0, 0], unit * TPU as i64, 1.0);
            server.ingest(id, &r).unwrap();
        }
        let pumps = server.pump();
        assert_eq!(pumps.len(), 3, "every busy tenant reports, unit {unit}");
        for pump in &pumps {
            if &pump.tenant == bad && unit > 0 {
                assert_eq!(
                    pump.errors,
                    vec![ServeError::TenantFailed {
                        tenant: bad.clone()
                    }],
                    "unit {unit}"
                );
                assert!(pump.reports.is_empty());
            } else {
                assert!(pump.errors.is_empty(), "{:?}", pump.errors);
                assert_eq!(pump.reports.len(), usize::from(unit > 0));
            }
        }
    }

    // The failure is permanent and typed on every path that needs the
    // engine; the last published snapshot stays readable.
    let failed = ServeError::TenantFailed {
        tenant: bad.clone(),
    };
    assert_eq!(server.close_unit(bad).unwrap().errors, vec![failed.clone()]);
    assert_eq!(server.flush(bad).unwrap().errors, vec![failed.clone()]);
    assert_eq!(server.tenant_stats(bad).unwrap_err(), failed);
    let path = std::env::temp_dir().join("regcube-failed-tenant.rgck");
    assert_eq!(server.checkpoint_tenant(bad, &path).unwrap_err(), failed);
    assert_eq!(server.snapshot(bad).unwrap().epoch(), 0);

    // Its lane-mate and the other lane carried on, and it can be
    // dropped and re-admitted under the same id.
    for id in [&ids[0], &ids[2]] {
        assert_eq!(server.snapshot(id).unwrap().epoch(), 2);
        assert!(server.close_unit(id).unwrap().errors.is_empty());
    }
    server.drop_tenant(bad).unwrap();
    server.create_tenant(bad.clone(), config()).unwrap();
    assert!(server.close_unit(bad).unwrap().errors.is_empty());
}
