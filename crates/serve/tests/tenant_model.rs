//! Model-based property test of the serving layer: arbitrary
//! interleavings of per-tenant ingest/close/flush/query commands are
//! replayed against a model (one private single-threaded engine per
//! tenant, driven identically). Pins tenant isolation — commands
//! aimed at tenant A never perturb tenant B's published snapshot —
//! and monotone snapshot epochs at every observation point.

use proptest::prelude::*;
use regcube_core::ExceptionPolicy;
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_serve::{ServeConfig, Server, TenantId};
use regcube_stream::{EngineConfig, OnlineEngine, RawRecord};
use regcube_tilt::TiltSpec;

const TPU: usize = 4;
const TENANTS: usize = 2;

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
}

fn ids_of(t: usize) -> TenantId {
    TenantId::from(format!("tenant-{t}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Served snapshots equal the model at every query point, tenants
    /// are isolated, and epochs are monotone.
    #[test]
    fn serving_matches_single_threaded_model(
        commands in prop::collection::vec(
            (0u8..8, 0u8..TENANTS as u8, 0u32..4, 0u32..4, -5.0..5.0f64),
            1..60,
        ),
    ) {
        let server = Server::new(
            ServeConfig::new()
                .with_queue_capacity(4096)
                .with_pump_threads(2),
        );
        let mut models: Vec<OnlineEngine> = Vec::new();
        for t in 0..TENANTS {
            server.create_tenant(ids_of(t), config()).unwrap();
            models.push(config().build().unwrap());
        }
        let mut last_epoch = [0u64; TENANTS];
        let mut offsets = [0usize; TENANTS];

        for (op, tenant, a, b, value) in commands {
            let t = tenant as usize;
            let id = ids_of(t);
            match op {
                // Ingest dominates the distribution (ops 0-4): a record
                // in the model's open unit, mirrored to the server.
                0..=4 => {
                    let tick = models[t].open_unit() * TPU as i64
                        + (offsets[t] % TPU) as i64;
                    offsets[t] += 1;
                    let record = RawRecord::new(vec![a, b], tick, value);
                    models[t].ingest(&record).unwrap();
                    server.ingest(&id, &record).unwrap();
                    // Isolation: an ingest to `t` must not move any
                    // other tenant's published snapshot.
                    for (other, model) in models.iter().enumerate() {
                        if other != t {
                            let served = server.snapshot(&ids_of(other)).unwrap();
                            prop_assert_eq!(
                                served.canonical_text(),
                                model.snapshot().canonical_text(),
                                "tenant {} perturbed by ingest to tenant {}", other, t
                            );
                        }
                    }
                }
                5 => {
                    models[t].close_unit().unwrap();
                    let pump = server.close_unit(&id).unwrap();
                    prop_assert!(pump.errors.is_empty(), "{:?}", pump.errors);
                }
                6 => {
                    models[t].flush().unwrap();
                    let pump = server.flush(&id).unwrap();
                    prop_assert!(pump.errors.is_empty(), "{:?}", pump.errors);
                }
                _ => {
                    // Query: full equality against the model, plus
                    // epoch monotonicity.
                    let served = server.snapshot(&id).unwrap();
                    prop_assert!(
                        served.epoch() >= last_epoch[t],
                        "epoch regressed for tenant {}: {} then {}",
                        t, last_epoch[t], served.epoch()
                    );
                    last_epoch[t] = served.epoch();
                    prop_assert_eq!(served.epoch(), models[t].units_closed());
                    prop_assert_eq!(
                        served.canonical_text(),
                        models[t].snapshot().canonical_text(),
                        "served snapshot diverged from model for tenant {}", t
                    );
                }
            }
        }
        // Endstate parity for every tenant.
        for (t, model) in models.iter_mut().enumerate() {
            let pump = server.flush(&ids_of(t)).unwrap();
            prop_assert!(pump.errors.is_empty());
            model.flush().unwrap();
            let served = server.snapshot(&ids_of(t)).unwrap();
            prop_assert_eq!(
                served.canonical_text(),
                model.snapshot().canonical_text()
            );
        }
    }
}
