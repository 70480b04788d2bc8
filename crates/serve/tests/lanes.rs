//! Pump lanes: every tenant is mutated by exactly one thread, lanes
//! are balanced by tenant count, racing admissions are exact, and the
//! cubes that come out are the single-threaded engine's whatever the
//! number of lanes.

use regcube_core::alarm::{self, AlarmContext, AlarmSink, SharedSink};
use regcube_core::{CoreError, ExceptionPolicy, UnitDelta};
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_serve::{ServeConfig, ServeError, Server, TenantId, TenantReader};
use regcube_stream::{EngineConfig, RawRecord};
use regcube_tilt::TiltSpec;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::{self, ThreadId};

const TPU: i64 = 4;

fn config() -> EngineConfig {
    let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
    EngineConfig::new(
        schema,
        CuboidSpec::new(vec![0, 0]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_policy(ExceptionPolicy::slope_threshold(1.0))
    .with_tilt(TiltSpec::new(vec![("unit", 4), ("coarse", 3)]).unwrap())
    .with_ticks_per_unit(TPU as usize)
}

/// Records the thread of every unit close it is told about.
#[derive(Default)]
struct ThreadLog(Vec<ThreadId>);

impl AlarmSink for ThreadLog {
    fn on_unit(&mut self, _: &UnitDelta, _: &AlarmContext<'_>) -> Result<(), CoreError> {
        self.0.push(thread::current().id());
        Ok(())
    }
}

type SharedLog = Arc<Mutex<ThreadLog>>;

fn logged_config(log: &SharedLog) -> EngineConfig {
    config().with_sink(Arc::clone(log) as SharedSink)
}

/// Closes one unit with a record in it (an empty unit has no delta to
/// tell a sink about).
fn close_one_unit(server: &Server, id: &TenantId) {
    let record = RawRecord::new(vec![0, 0], 0, 1.0);
    server.ingest(id, &record).unwrap();
    assert!(server.close_unit(id).unwrap().errors.is_empty());
}

fn threads_seen(log: &SharedLog) -> Vec<ThreadId> {
    log.lock().unwrap().0.clone()
}

/// How many of `logs`' tenants each thread closed units for; every
/// tenant must have been closed by one thread only.
fn tenants_per_thread<'a>(logs: impl IntoIterator<Item = &'a SharedLog>) -> Vec<usize> {
    let mut owned: HashMap<ThreadId, usize> = HashMap::new();
    for log in logs {
        let seen = threads_seen(log);
        assert!(seen.iter().all(|t| *t == seen[0]), "one thread per tenant");
        *owned.entry(seen[0]).or_default() += 1;
    }
    owned.into_values().collect()
}

#[test]
fn every_write_path_of_a_tenant_runs_on_its_one_lane() {
    const TENANTS: usize = 16;
    let server = Server::new(ServeConfig::new().with_pump_threads(4));
    let ids: Vec<TenantId> = (0..TENANTS)
        .map(|t| TenantId::from(format!("t{t:02}")))
        .collect();
    let logs: Vec<SharedLog> = (0..TENANTS).map(|_| SharedLog::default()).collect();
    for (id, log) in ids.iter().zip(&logs) {
        server
            .create_tenant(id.clone(), logged_config(log))
            .unwrap();
    }
    let ingest_all = |unit: i64| {
        for id in &ids {
            let r = RawRecord::new(vec![0, 0], unit * TPU, 1.0);
            server.ingest(id, &r).unwrap();
        }
    };
    let closes = |t: usize| threads_seen(&logs[t]).len();

    // pump(): unit 1's records close unit 0 on every tenant.
    ingest_all(0);
    ingest_all(1);
    assert_eq!(server.pump().len(), TENANTS);
    // pump_tenant, close_unit and flush, each one more close.
    ingest_all(2);
    for (t, id) in ids.iter().enumerate() {
        assert_eq!(closes(t), 1);
        server.pump_tenant(id).unwrap();
        assert_eq!(closes(t), 2, "pump_tenant closed unit 1");
        server.close_unit(id).unwrap();
        assert_eq!(closes(t), 3, "close_unit closed unit 2");
    }
    ingest_all(3);
    for (t, id) in ids.iter().enumerate() {
        server.flush(id).unwrap();
        assert_eq!(closes(t), 4, "flush closed unit 3");
    }

    // One thread per tenant, never the caller's; four lanes of four;
    // admission order deals the lanes out round-robin.
    assert_eq!(tenants_per_thread(&logs), vec![4; 4]);
    let lane_of = |t: usize| threads_seen(&logs[t])[0];
    for t in 0..TENANTS {
        assert_ne!(lane_of(t), thread::current().id());
        assert_eq!(lane_of(t), lane_of(t % 4), "tenant {t}");
    }

    // A dropped tenant gives its place back: the newcomer lands on the
    // lane that is now one short, not on lane 0.
    server.drop_tenant(&ids[6]).unwrap();
    let log = SharedLog::default();
    let newcomer = TenantId::from("newcomer");
    server
        .create_tenant(newcomer.clone(), logged_config(&log))
        .unwrap();
    close_one_unit(&server, &newcomer);
    assert_eq!(threads_seen(&log), vec![lane_of(6)]);
}

/// The strict-order served semantics on one thread: a record of a later
/// unit closes every unit before it.
fn model_ingest(engine: &mut regcube_stream::OnlineEngine, record: &RawRecord) {
    while engine.open_unit() < record.tick.div_euclid(TPU) {
        engine.close_unit().unwrap();
    }
    engine.ingest(record).unwrap();
}

#[test]
fn any_lane_count_serves_the_single_threaded_cubes() {
    const TENANTS: usize = 10;
    const CAPACITY: usize = 6;
    for pump_threads in [1, 2, 3, 7] {
        let server = Server::new(
            ServeConfig::new()
                .with_pump_threads(pump_threads)
                .with_queue_capacity(CAPACITY),
        );
        let ids: Vec<TenantId> = (0..TENANTS)
            .map(|t| TenantId::from(format!("t{t}")))
            .collect();
        let mut models = Vec::new();
        for id in &ids {
            server.create_tenant(id.clone(), config()).unwrap();
            models.push(config().build().unwrap());
        }
        let mut rejected = [0u64; TENANTS];

        for round in 0..24usize {
            // Tenant t is offered (t + round) % 9 records this round:
            // some tenants idle (fewer busy tenants than lanes when
            // there are 7), some over capacity.
            let mut busy = Vec::new();
            for (t, id) in ids.iter().enumerate() {
                let offered = (t + round) % 9;
                for k in 0..offered {
                    let tick = (round / 2) as i64 * TPU + (k as i64 % TPU);
                    let value = (t * 7 + round * 3 + k) as f64 * 0.25;
                    let record = RawRecord::new(vec![(k % 2) as u32, (t % 2) as u32], tick, value);
                    match server.ingest(id, &record) {
                        Ok(()) => {
                            assert!(k < CAPACITY, "accepted beyond capacity");
                            model_ingest(&mut models[t], &record);
                        }
                        Err(ServeError::Overloaded { tenant, capacity }) => {
                            assert!(k >= CAPACITY, "rejected within capacity");
                            assert_eq!((&tenant, capacity), (id, CAPACITY));
                            rejected[t] += 1;
                        }
                        Err(e) => panic!("unexpected {e}"),
                    }
                }
                if offered > 0 {
                    busy.push(id.clone());
                }
            }
            let pumps = server.pump();
            let pumped: Vec<TenantId> = pumps.iter().map(|p| p.tenant.clone()).collect();
            assert_eq!(
                pumped, busy,
                "busy tenants, in id order ({pump_threads} lanes)"
            );
            for pump in &pumps {
                assert!(pump.errors.is_empty(), "{:?}", pump.errors);
            }
        }

        for (t, id) in ids.iter().enumerate() {
            assert!(server.flush(id).unwrap().errors.is_empty());
            models[t].flush().unwrap();
            assert_eq!(
                server.snapshot(id).unwrap().canonical_text(),
                models[t].snapshot().canonical_text(),
                "tenant {t} on {pump_threads} lanes"
            );
            let stats = server.tenant_stats(id).unwrap();
            assert_eq!(stats.overload_rejections, rejected[t]);
            assert!(rejected[t] > 0, "every tenant must have saturated");
        }
    }
}

#[test]
fn racing_admissions_are_exact_and_keep_the_lanes_balanced() {
    const RACERS: usize = 12;
    const CAP: usize = 6;
    let server = Server::new(
        ServeConfig::new()
            .with_pump_threads(4)
            .with_max_tenants(CAP),
    );

    // One id, many admitters: exactly one wins.
    let barrier = Barrier::new(RACERS);
    let outcomes: Vec<Result<(), ServeError>> = thread::scope(|scope| {
        let racers: Vec<_> = (0..RACERS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    server.create_tenant("a", config())
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_eq!(outcomes.iter().filter(|o| o.is_ok()).count(), 1);
    for outcome in outcomes.iter().filter(|o| o.is_err()) {
        assert!(
            matches!(outcome, Err(ServeError::DuplicateTenant { tenant }) if tenant.as_str() == "a"),
            "{outcome:?}"
        );
    }
    server.drop_tenant(&TenantId::from("a")).unwrap();

    // Twice as many distinct ids as places: the cap holds exactly.
    let logs: Vec<SharedLog> = (0..RACERS).map(|_| SharedLog::default()).collect();
    let outcomes: Vec<Result<(), ServeError>> = thread::scope(|scope| {
        let racers: Vec<_> = logs
            .iter()
            .enumerate()
            .map(|(i, log)| {
                let (server, barrier) = (&server, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    server.create_tenant(format!("r{i:02}"), logged_config(log))
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_eq!(outcomes.iter().filter(|o| o.is_ok()).count(), CAP);
    assert_eq!(server.tenant_count(), CAP);
    for outcome in outcomes.iter().filter(|o| o.is_err()) {
        assert_eq!(
            outcome,
            &Err(ServeError::AdmissionDenied { max_tenants: CAP })
        );
    }

    // Whoever won, the winners were dealt lanes 0, 1, 2, 3, 0, 1.
    let mut admitted = Vec::new();
    for (i, log) in logs.iter().enumerate() {
        if outcomes[i].is_ok() {
            close_one_unit(&server, &TenantId::from(format!("r{i:02}")));
            admitted.push(log);
        }
    }
    let mut per_lane = tenants_per_thread(admitted);
    per_lane.sort_unstable();
    assert_eq!(per_lane, vec![1, 1, 2, 2]);
}

struct SetOnDrop(Arc<AtomicBool>);

impl Drop for SetOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

thread_local! {
    static LANE_WITNESS: RefCell<Option<SetOnDrop>> = const { RefCell::new(None) };
}

/// Leaves a value in the closing thread's local storage, whose
/// destructor runs when that thread exits.
struct PlantWitness(Arc<AtomicBool>);

impl AlarmSink for PlantWitness {
    fn on_unit(&mut self, _: &UnitDelta, _: &AlarmContext<'_>) -> Result<(), CoreError> {
        LANE_WITNESS.with(|w| *w.borrow_mut() = Some(SetOnDrop(Arc::clone(&self.0))));
        Ok(())
    }
}

#[test]
fn server_is_shareable_and_its_drop_joins_the_lanes() {
    fn send_and_sync<T: Send + Sync>() {}
    send_and_sync::<Server>();
    send_and_sync::<TenantReader>();

    let lane_exited = Arc::new(AtomicBool::new(false));
    let server = Server::new(ServeConfig::new().with_pump_threads(3));
    let id = TenantId::from("t");
    let sink = alarm::shared(PlantWitness(Arc::clone(&lane_exited)));
    server
        .create_tenant(id.clone(), config().with_sink(sink))
        .unwrap();
    close_one_unit(&server, &id);
    let reader = server.reader(&id).unwrap();
    assert!(!lane_exited.load(Ordering::SeqCst));
    drop(server);
    // A thread's locals are destroyed before a join on it returns, so
    // this holds only if the drop waited for the lane.
    assert!(lane_exited.load(Ordering::SeqCst));
    // A reader outlives the server.
    assert_eq!(reader.snapshot().epoch(), 1);
}
