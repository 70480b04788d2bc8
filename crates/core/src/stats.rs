//! Run statistics and analytical memory accounting.
//!
//! The performance study (Section 5) reports processing time and memory
//! usage. Besides wall-clock time we track *analytical* memory — the bytes
//! of live cell tables and trees as the algorithm proceeds — which is
//! allocator-independent and therefore stable across machines. The bench
//! harness additionally measures true allocator peaks (`regcube-bench`).

use std::time::Duration;

/// Statistics of one cube computation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunStats {
    /// Source rows folded into aggregations (the work measure).
    pub rows_folded: u64,
    /// Cells materialized across all cuboids (computed, before filtering).
    pub cells_computed: u64,
    /// Cells retained in the result (critical layers + exceptions).
    pub cells_retained: u64,
    /// Exception cells retained between the layers.
    pub exception_cells: u64,
    /// Cuboids whose tables were (at least partially) computed.
    pub cuboids_computed: u32,
    /// Stream records that arrived **beyond the allowed lateness** and
    /// were dropped — deterministically counted, never silently lost.
    /// Only the stream layer's watermark path increments this; batch
    /// engines leave it zero.
    pub late_dropped: u64,
    /// Stream records that arrived for an **already-closed unit within
    /// the allowed lateness** and were applied as exact tilt-frame
    /// amendments (OLS linearity). Only the stream layer's watermark
    /// path increments this; batch engines leave it zero.
    pub late_amendments: u64,
    /// Units by which the effective (min-over-live-sources) watermark
    /// lagged the stream frontier, accumulated at each frontier advance
    /// — how long per-source accounting held closes back waiting for
    /// slow sources. Zero under the global watermark policy and for
    /// batch engines.
    pub watermark_held_units: u64,
    /// Sources evicted from the per-source watermark for idling more
    /// than the policy's `idle_units` behind the stream frontier (their
    /// watermark contribution is released so a silent sensor cannot
    /// freeze closes forever). Stream watermark path only.
    pub sources_evicted: u64,
    /// Immutable unit-boundary snapshots published for lock-free
    /// concurrent reads. Only the serving layers fill this in (the
    /// stream engine's snapshot hook and `regcube_serve`'s per-tenant
    /// publication); batch engines leave it zero.
    pub snapshots_published: u64,
    /// Published snapshots handed to readers (`regcube_serve`'s
    /// snapshot cell counts every load). Serving layer
    /// only; batch engines leave it zero.
    pub snapshot_reads: u64,
    /// Ingest requests rejected with a **typed backpressure error**
    /// (`regcube_serve`'s bounded tenant queues report `Overloaded`
    /// instead of dropping silently — the rejected record is never
    /// enqueued, so the caller decides to retry or shed). Serving layer
    /// only; batch engines leave it zero.
    pub overload_rejections: u64,
    /// Wall-clock time of the computation.
    pub elapsed: Duration,
    /// Peak analytical bytes (retained + transient) during the run.
    pub peak_bytes: usize,
    /// Analytical bytes retained in the final result.
    pub retained_bytes: usize,
}

/// Tracks live analytical bytes and their high-water mark.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemoryAccountant {
    live: usize,
    peak: usize,
}

impl MemoryAccountant {
    /// Creates an empty accountant.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `bytes` as newly live.
    pub fn add(&mut self, bytes: usize) {
        self.live += bytes;
        self.peak = self.peak.max(self.live);
    }

    /// Releases `bytes` (saturating; double-frees clamp to zero).
    pub fn remove(&mut self, bytes: usize) {
        self.live = self.live.saturating_sub(bytes);
    }

    /// Currently live bytes.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// High-water mark.
    #[inline]
    pub fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accountant_tracks_peak() {
        let mut a = MemoryAccountant::new();
        a.add(100);
        a.add(50);
        assert_eq!(a.live(), 150);
        assert_eq!(a.peak(), 150);
        a.remove(120);
        assert_eq!(a.live(), 30);
        assert_eq!(a.peak(), 150);
        a.add(10);
        assert_eq!(a.peak(), 150, "peak unchanged below the mark");
        a.remove(1000);
        assert_eq!(a.live(), 0, "saturating removal");
    }

    #[test]
    fn stats_default_is_zeroed() {
        let s = RunStats::default();
        assert_eq!(s.cells_computed, 0);
        assert_eq!(s.elapsed, Duration::ZERO);
    }
}
