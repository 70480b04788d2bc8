//! The snapshot cell — the reader/writer seam of the serving layer.
//!
//! The workspace forbids `unsafe`, so "lock-free reads" are built from
//! safe parts: one slot, a tiny critical section around an [`Arc`]. The
//! writer (the tenant's pump, already serialized by the engine lock)
//! swaps the fresh snapshot in under the lock and drops the one it
//! replaced after unlocking; a reader clones the [`Arc`] under the
//! lock. Either side holds the lock for one pointer swap or clone — no
//! reader ever holds it across a query, and queries themselves run on
//! the reader's own [`CubeSnapshot`] with no locks at all.
//!
//! The cell holds the latest snapshot only. Once a publish has replaced
//! a snapshot, nothing but the readers that cloned it keeps it alive, so
//! the cube result under it is free for the engine to write the unit
//! after next into (see `regcube_core::mo_cubing`).

use regcube_stream::CubeSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A published-snapshot mailbox: one writer swaps fresh
/// [`CubeSnapshot`]s in at unit boundaries, any number of readers take
/// cheap `Arc` handles out; either waits at most for the other's
/// pointer swap or clone.
#[derive(Debug)]
pub struct SnapshotCell {
    slot: Mutex<Arc<CubeSnapshot>>,
    reads: AtomicU64,
}

impl SnapshotCell {
    /// Creates a cell seeded with an initial snapshot (epoch 0, before
    /// any unit has closed) so readers always observe *something*
    /// consistent, even before the first publication.
    pub fn new(initial: Arc<CubeSnapshot>) -> Self {
        SnapshotCell {
            slot: Mutex::new(initial),
            reads: AtomicU64::new(0),
        }
    }

    /// Publishes a new snapshot: swaps it in under the lock, then drops
    /// the replaced one — its last reference, unless a reader still
    /// holds a clone — after unlocking, so no reader waits on the free.
    pub fn publish(&self, snapshot: Arc<CubeSnapshot>) {
        // The guard is a temporary of this statement: the lock is free
        // again before `replaced` is dropped.
        let replaced = std::mem::replace(&mut *self.slot.lock().expect("snapshot lock"), snapshot);
        drop(replaced);
    }

    /// Takes a handle on the most recently published snapshot. The
    /// critical section is one `Arc` clone.
    pub fn load(&self) -> Arc<CubeSnapshot> {
        let snapshot = Arc::clone(&self.slot.lock().expect("snapshot lock"));
        self.reads.fetch_add(1, Ordering::Relaxed);
        snapshot
    }

    /// How many [`load`](Self::load)s this cell has served — surfaced
    /// as [`RunStats::snapshot_reads`](regcube_core::RunStats) by the
    /// server's per-tenant statistics.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regcube_olap::{CubeSchema, CuboidSpec};
    use regcube_stream::EngineConfig;

    fn snapshot_at(closes: usize) -> Arc<CubeSnapshot> {
        let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
        let mut engine = EngineConfig::new(
            schema,
            CuboidSpec::new(vec![2, 2]),
            CuboidSpec::new(vec![2, 2]),
        )
        .with_ticks_per_unit(2)
        .build()
        .unwrap();
        for _ in 0..closes {
            engine.close_unit().unwrap();
        }
        Arc::new(engine.snapshot())
    }

    #[test]
    fn publish_then_load_round_trips() {
        let cell = SnapshotCell::new(snapshot_at(0));
        assert_eq!(cell.load().epoch(), 0);
        cell.publish(snapshot_at(1));
        assert_eq!(cell.load().epoch(), 1);
        cell.publish(snapshot_at(2));
        cell.publish(snapshot_at(3));
        assert_eq!(cell.load().epoch(), 3);
        assert_eq!(cell.reads(), 3);
    }

    #[test]
    fn held_handle_survives_later_publishes() {
        let cell = SnapshotCell::new(snapshot_at(0));
        let old = cell.load();
        cell.publish(snapshot_at(2));
        assert_eq!(old.epoch(), 0);
        assert_eq!(cell.load().epoch(), 2);
    }

    /// A publish lets go of the snapshot it replaces: only a reader's
    /// clone keeps it alive. The engine's one spare result relies on
    /// this.
    #[test]
    fn a_replaced_snapshot_lives_only_in_its_readers() {
        let cell = SnapshotCell::new(snapshot_at(0));
        let a = snapshot_at(1);
        let weak = Arc::downgrade(&a);
        cell.publish(a);
        cell.publish(snapshot_at(2));
        assert!(weak.upgrade().is_none(), "the cell let go of it");

        let a = snapshot_at(3);
        let weak = Arc::downgrade(&a);
        cell.publish(a);
        let reader = cell.load();
        cell.publish(snapshot_at(4));
        assert_eq!(
            weak.upgrade().map(|s| s.epoch()),
            Some(3),
            "the reader keeps it"
        );
        drop(reader);
        assert!(weak.upgrade().is_none(), "the last reader let go of it");
    }
}
