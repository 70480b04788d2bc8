//! Event sources: replaying record collections and driving an engine
//! from an mpsc channel (the "infinite flow" side of stream data).

use crate::error::StreamError;
use crate::online::{OnlineEngine, UnitReport};
use crate::record::RawRecord;
use crate::Result;
use regcube_core::engine::CubingEngine;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};

/// Locks a shared engine, recovering from a poisoned mutex (a panicking
/// observer must not take the pipeline down with it).
fn lock<E: CubingEngine>(engine: &Arc<Mutex<OnlineEngine<E>>>) -> MutexGuard<'_, OnlineEngine<E>> {
    engine
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One event of the stream protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// A raw measurement.
    Record(RawRecord),
    /// An m-layer time-unit boundary: close the unit, recompute, alarm.
    CloseUnit,
    /// End of stream: the runner drains and returns.
    Shutdown,
}

/// Replays a pre-sorted record collection as an event stream, inserting
/// [`StreamEvent::CloseUnit`] at every unit boundary.
#[derive(Debug, Clone)]
pub struct ReplaySource {
    records: Vec<RawRecord>,
    ticks_per_unit: usize,
}

impl ReplaySource {
    /// Creates a source over records sorted by tick.
    ///
    /// # Errors
    /// [`StreamError::BadRecord`] when records are not sorted by tick or
    /// `ticks_per_unit == 0`.
    pub fn new(records: Vec<RawRecord>, ticks_per_unit: usize) -> Result<Self> {
        if ticks_per_unit == 0 {
            return Err(StreamError::BadConfig {
                detail: "ticks_per_unit must be positive".into(),
            });
        }
        if records.windows(2).any(|w| w[1].tick < w[0].tick) {
            return Err(StreamError::BadRecord {
                detail: "replay records must be sorted by tick".into(),
            });
        }
        Ok(ReplaySource {
            records,
            ticks_per_unit,
        })
    }

    /// Expands the records into the full event sequence (records,
    /// boundary closes, final close + shutdown).
    pub fn events(&self) -> Vec<StreamEvent> {
        let mut out = Vec::with_capacity(self.records.len() + 8);
        let mut open_unit = 0i64;
        for r in &self.records {
            let unit = r.tick.div_euclid(self.ticks_per_unit as i64);
            while open_unit < unit {
                out.push(StreamEvent::CloseUnit);
                open_unit += 1;
            }
            out.push(StreamEvent::Record(r.clone()));
        }
        if !self.records.is_empty() {
            out.push(StreamEvent::CloseUnit);
        }
        out.push(StreamEvent::Shutdown);
        out
    }

    /// Sends all events into an unbounded channel, e.g. from a producer
    /// thread.
    ///
    /// # Errors
    /// [`StreamError::BadConfig`] when the receiving side disconnected.
    pub fn send_all(&self, tx: &Sender<StreamEvent>) -> Result<()> {
        for event in self.events() {
            tx.send(event).map_err(|_| StreamError::BadConfig {
                detail: "event channel disconnected".into(),
            })?;
        }
        Ok(())
    }
}

/// Drives an engine from a channel until [`StreamEvent::Shutdown`],
/// returning the unit reports in order. The engine is shared behind a
/// mutex so observers (dashboards, tests) can query tilt frames and cube
/// state concurrently.
///
/// # Errors
/// Propagates the first engine error; the engine is left in its state at
/// the point of failure.
pub fn run_engine<E: CubingEngine>(
    engine: &Arc<Mutex<OnlineEngine<E>>>,
    rx: &Receiver<StreamEvent>,
) -> Result<Vec<UnitReport>> {
    let mut reports = Vec::new();
    for event in rx.iter() {
        match event {
            StreamEvent::Record(r) => {
                lock(engine).ingest(&r)?;
            }
            StreamEvent::CloseUnit => {
                reports.push(lock(engine).close_unit()?);
            }
            StreamEvent::Shutdown => break,
        }
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regcube_core::result::Algorithm;
    use regcube_core::ExceptionPolicy;
    use regcube_olap::{CubeSchema, CuboidSpec};
    use regcube_tilt::TiltSpec;
    use std::sync::mpsc;

    fn engine() -> OnlineEngine {
        let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
        crate::online::EngineConfig::new(
            schema,
            CuboidSpec::new(vec![0, 0]),
            CuboidSpec::new(vec![2, 2]),
        )
        .with_policy(ExceptionPolicy::slope_threshold(1.0))
        .with_tilt(TiltSpec::new(vec![("unit", 4), ("coarse", 3)]).unwrap())
        .with_ticks_per_unit(4)
        .with_algorithm(Algorithm::MoCubing)
        .build()
        .unwrap()
    }

    fn records(units: i64, slope: f64) -> Vec<RawRecord> {
        let mut out = Vec::new();
        for u in 0..units {
            for t in (u * 4)..(u * 4 + 4) {
                out.push(RawRecord::new(vec![0, 0], t, slope * (t % 4) as f64));
                out.push(RawRecord::new(vec![3, 3], t, 0.5));
            }
        }
        out
    }

    #[test]
    fn replay_inserts_unit_boundaries() {
        let src = ReplaySource::new(records(3, 0.1), 4).unwrap();
        let events = src.events();
        let closes = events
            .iter()
            .filter(|e| matches!(e, StreamEvent::CloseUnit))
            .count();
        assert_eq!(closes, 3);
        assert_eq!(events.last(), Some(&StreamEvent::Shutdown));
        // Quiet gaps: a record jumping two units emits two closes.
        let sparse = ReplaySource::new(
            vec![
                RawRecord::new(vec![0, 0], 0, 1.0),
                RawRecord::new(vec![0, 0], 9, 1.0),
            ],
            4,
        )
        .unwrap();
        let closes = sparse
            .events()
            .iter()
            .filter(|e| matches!(e, StreamEvent::CloseUnit))
            .count();
        assert_eq!(closes, 3, "two gap closes + the final close");
    }

    #[test]
    fn unsorted_replay_is_rejected() {
        let bad = vec![
            RawRecord::new(vec![0, 0], 5, 1.0),
            RawRecord::new(vec![0, 0], 2, 1.0),
        ];
        assert!(ReplaySource::new(bad, 4).is_err());
        assert!(ReplaySource::new(vec![], 0).is_err());
    }

    #[test]
    fn channel_pipeline_end_to_end() {
        let engine = Arc::new(Mutex::new(engine()));
        let (tx, rx) = mpsc::channel();
        let src = ReplaySource::new(records(3, 2.0), 4).unwrap();

        let producer = {
            let src = src.clone();
            std::thread::spawn(move || src.send_all(&tx))
        };
        let reports = run_engine(&engine, &rx).unwrap();
        producer.join().unwrap().unwrap();

        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert_eq!(r.m_cells, 2);
            assert_eq!(r.alarms.len(), 1, "hot apex each unit");
        }
        // The shared engine remains queryable after the run.
        let e = lock(&engine);
        assert_eq!(e.units_closed(), 3);
        assert!(e.cube().is_ok());
    }

    #[test]
    fn empty_stream_produces_no_reports() {
        let engine = Arc::new(Mutex::new(engine()));
        let (tx, rx) = mpsc::channel();
        ReplaySource::new(vec![], 4).unwrap().send_all(&tx).unwrap();
        let reports = run_engine(&engine, &rx).unwrap();
        assert!(reports.is_empty());
    }
}
