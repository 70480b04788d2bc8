//! Bounded reordering buffer and watermark state for out-of-order
//! streams.
//!
//! The paper's streaming model (Section 4.5) assumes tuples arrive in
//! tick order; real deployments do not deliver that. This module holds
//! the machinery the [`OnlineEngine`](crate::online::OnlineEngine) puts
//! in front of its [`Ingestor`](crate::ingest::Ingestor) when
//! [`EngineConfig::with_reordering`](crate::online::EngineConfig::with_reordering)
//! is set:
//!
//! * a **bounded buffer** holding the records of the open unit and up to
//!   [`ReorderConfig::capacity`] future units — records inside one unit
//!   may arrive in any order, because the unit closes as if its records
//!   were sorted into a canonical order;
//! * a **low watermark** advanced by observed ticks: a unit is
//!   [ready to close](ReorderState::close_ready) once the watermark
//!   guarantees no in-lateness record for it can still arrive. Under
//!   [`WatermarkPolicy::Global`] the watermark is the maximum observed
//!   unit; under [`WatermarkPolicy::PerSource`] it is the **minimum over
//!   live sources'** maxima, so a lagging sensor holds closes back until
//!   it catches up — or idles long enough to be evicted;
//! * deterministic **drop accounting** for records older than the
//!   watermark allows ([`ReorderState::count_drop`]) — they surface in
//!   `RunStats::late_dropped`, never silently.
//!
//! The canonical per-unit order — `(tick, ids, value bits)` — is what
//! makes out-of-order ingestion *bit-identical* to sorted replay:
//! floating-point accumulation is order-sensitive, so every unit is
//! summed in one order regardless of arrival order. Source ids influence
//! only *when* units close, never their contents. The engine does not
//! sort a unit: its ingestor folds the bucket in arrival order and sums
//! again, in the canonical order, only the `(m-cell, tick)` slots two
//! records share — the only places where the order can show.
//! [`ReorderState::take_unit`] still returns a unit sorted, for callers
//! that replay it record by record. The buffer is generic over its
//! record ([`CanonicalOrder`]): the engine buffers [`PackedRecord`]s,
//! whose packed keys order as their ids do, so that sort compares
//! integers.

use crate::error::StreamError;
use crate::record::{PackedRecord, RawRecord};
use crate::Result;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// How the low watermark is derived from observed records.
///
/// Idleness is measured in **stream time**: a source is idle when its
/// own maximum observed unit lags the global frontier by more than
/// `idle_units`. This keeps eviction deterministic (replaying the same
/// records yields the same evictions) — no wall clocks are consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WatermarkPolicy {
    /// One global watermark: the maximum unit observed from any source.
    /// The historical (and default) behavior.
    #[default]
    Global,
    /// One watermark per declared [`RawRecord::source`]; the effective
    /// low watermark is the minimum over live sources, so a slow source
    /// delays closes until it catches up.
    PerSource {
        /// A source whose own maximum lags the global frontier by more
        /// than this many units is **evicted** from the watermark (its
        /// contribution released, [`ReorderState::sources_evicted`]
        /// counted) so one silent sensor cannot freeze closes forever.
        /// It re-registers on its next record.
        idle_units: i64,
    },
}

/// Configuration of the bounded reordering stage.
///
/// Reordering is **enabled** when `capacity > 0`; the default
/// configuration is disabled, which leaves the engine's ingest path
/// byte-identical to the strictly-ordered behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReorderConfig {
    /// Maximum number of distinct stream units the buffer may hold (the
    /// open unit plus future units). `0` disables reordering entirely.
    pub capacity: usize,
    /// Allowed lateness in units: a record for a closed unit within
    /// `lateness` units of the open one amends the warehoused tilt
    /// frames; older records are counted and dropped.
    pub lateness: i64,
    /// How the low watermark is derived (global maximum, or min over
    /// live per-source maxima).
    pub policy: WatermarkPolicy,
}

impl ReorderConfig {
    /// Creates a configuration under the global watermark policy
    /// (negative lateness clamps to 0).
    pub fn new(capacity: usize, lateness: i64) -> Self {
        ReorderConfig {
            capacity,
            lateness: lateness.max(0),
            policy: WatermarkPolicy::Global,
        }
    }

    /// Sets the watermark policy (builder style). A `PerSource`
    /// `idle_units` below zero clamps to 0 (every source behind the
    /// frontier is immediately evicted — effectively `Global`).
    pub fn with_policy(mut self, policy: WatermarkPolicy) -> Self {
        self.policy = match policy {
            WatermarkPolicy::PerSource { idle_units } => WatermarkPolicy::PerSource {
                idle_units: idle_units.max(0),
            },
            WatermarkPolicy::Global => WatermarkPolicy::Global,
        };
        self
    }

    /// The disabled configuration: strictly-ordered ingestion.
    pub fn disabled() -> Self {
        ReorderConfig::new(0, 0)
    }

    /// Whether the reordering stage is active.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }
}

impl Default for ReorderConfig {
    fn default() -> Self {
        ReorderConfig::disabled()
    }
}

/// A record the reorder buffer can hold: it knows its place in the
/// canonical per-unit order `(tick, primitive ids, value bits)`. The
/// declaring source takes no part: two records that compare equal can
/// differ only in their source, which no fold reads, so every sort of a
/// unit yields one sequence of what the fold sees.
pub trait CanonicalOrder {
    /// Compares two records in the canonical order.
    fn canonical_cmp(&self, other: &Self) -> Ordering;
}

impl CanonicalOrder for RawRecord {
    fn canonical_cmp(&self, other: &Self) -> Ordering {
        (self.tick, &self.ids, self.value.to_bits()).cmp(&(
            other.tick,
            &other.ids,
            other.value.to_bits(),
        ))
    }
}

/// Packed keys order as their ids do, so this is the same order as
/// [`RawRecord`]'s, on integers.
impl CanonicalOrder for PackedRecord {
    #[inline]
    fn canonical_cmp(&self, other: &Self) -> Ordering {
        (self.tick, self.key, self.value.to_bits()).cmp(&(
            other.tick,
            other.key,
            other.value.to_bits(),
        ))
    }
}

/// The runtime state of the reordering stage: per-unit record buffers,
/// the observed-tick watermark (global, or per-source), and drop
/// accounting.
///
/// Generic over the buffered record: the
/// [`OnlineEngine`](crate::online::OnlineEngine) buffers
/// [`PackedRecord`]s; the default [`RawRecord`] serves callers that
/// drive the stage by hand.
#[derive(Debug, Clone)]
pub struct ReorderState<R = RawRecord> {
    config: ReorderConfig,
    /// Buffered records per unit (the open unit and future units).
    pub(crate) units: BTreeMap<i64, Vec<R>>,
    /// Largest unit any observed tick belonged to (the global frontier).
    pub(crate) max_seen_unit: Option<i64>,
    /// Per-source maxima (live sources only; `PerSource` policy only).
    pub(crate) sources: BTreeMap<u32, i64>,
    /// Beyond-lateness records dropped since construction.
    pub(crate) dropped_total: u64,
    /// Beyond-lateness records dropped since the last unit report.
    pub(crate) dropped_since_report: u64,
    /// Sources evicted for idling more than `idle_units` behind.
    pub(crate) sources_evicted: u64,
    /// Units the effective watermark lagged the global frontier,
    /// accumulated at each frontier advance.
    pub(crate) watermark_held_units: u64,
}

impl<R: CanonicalOrder> ReorderState<R> {
    /// Creates an empty state for `config`.
    pub fn new(config: ReorderConfig) -> Self {
        ReorderState {
            config,
            units: BTreeMap::new(),
            max_seen_unit: None,
            sources: BTreeMap::new(),
            dropped_total: 0,
            dropped_since_report: 0,
            sources_evicted: 0,
            watermark_held_units: 0,
        }
    }

    /// The stage's configuration.
    #[inline]
    pub fn config(&self) -> &ReorderConfig {
        &self.config
    }

    /// Advances the watermark clock with an observed record's unit,
    /// attributed to the default source `0`. Equivalent to
    /// [`observe_from`](Self::observe_from)`(unit, 0)`.
    pub fn observe(&mut self, unit: i64) {
        self.observe_from(unit, 0);
    }

    /// Advances the watermark clock with an observed record's unit and
    /// its declaring source. Under [`WatermarkPolicy::Global`] the
    /// source is ignored (byte-identical to the historical behavior);
    /// under [`WatermarkPolicy::PerSource`] this updates the source's
    /// own maximum, evicts sources idle beyond the policy's allowance,
    /// and accounts the units the effective watermark lags the frontier.
    pub fn observe_from(&mut self, unit: i64, source: u32) {
        let old_frontier = self.max_seen_unit;
        let frontier = old_frontier.map_or(unit, |m| m.max(unit));
        self.max_seen_unit = Some(frontier);
        let WatermarkPolicy::PerSource { idle_units } = self.config.policy else {
            return;
        };
        self.sources
            .entry(source)
            .and_modify(|m| *m = (*m).max(unit))
            .or_insert(unit);
        // Stream-time idleness: evict every live source lagging the
        // frontier beyond the allowance (including a just-reinserted
        // straggler — its stale mark must not re-freeze the watermark).
        let before = self.sources.len();
        self.sources.retain(|_, &mut m| frontier - m <= idle_units);
        self.sources_evicted += (before - self.sources.len()) as u64;
        // Sample the hold only when the frontier actually advances, so
        // the counter reads "units of close-latency attributable to
        // slow sources", not "observations while lagging".
        if old_frontier.map_or(true, |m| unit > m) {
            if let Some(effective) = self.effective_watermark() {
                self.watermark_held_units += (frontier - effective).max(0) as u64;
            }
        }
    }

    /// The largest unit observed so far (from any record, buffered,
    /// amended or dropped) — the global frontier.
    #[inline]
    pub fn max_seen_unit(&self) -> Option<i64> {
        self.max_seen_unit
    }

    /// The effective low watermark: the global frontier under
    /// [`WatermarkPolicy::Global`]; the minimum over live sources'
    /// maxima under [`WatermarkPolicy::PerSource`] (falling back to the
    /// frontier when every source has been evicted).
    pub fn effective_watermark(&self) -> Option<i64> {
        match self.config.policy {
            WatermarkPolicy::Global => self.max_seen_unit,
            WatermarkPolicy::PerSource { .. } => {
                self.sources.values().copied().min().or(self.max_seen_unit)
            }
        }
    }

    /// Live (not evicted) sources currently contributing to the
    /// per-source watermark. Always 0 under the global policy.
    #[inline]
    pub fn live_sources(&self) -> usize {
        self.sources.len()
    }

    /// Sources evicted so far for idling beyond the policy allowance.
    #[inline]
    pub fn sources_evicted(&self) -> u64 {
        self.sources_evicted
    }

    /// Units by which the effective watermark lagged the global frontier,
    /// accumulated at each frontier advance.
    #[inline]
    pub fn watermark_held_units(&self) -> u64 {
        self.watermark_held_units
    }

    /// Whether the watermark guarantees `open_unit` is complete: every
    /// record within the allowed lateness of the effective watermark
    /// has either arrived or would arrive as an amendment.
    pub fn close_ready(&self, open_unit: i64) -> bool {
        self.effective_watermark()
            .is_some_and(|m| m - self.config.lateness > open_unit)
    }

    /// Buffers a record for `unit` (the open unit or a future one).
    ///
    /// # Errors
    /// [`StreamError::ReorderOverflow`] when admitting the record would
    /// exceed the capacity in distinct buffered units.
    pub fn buffer(&mut self, unit: i64, record: R) -> Result<()> {
        if let Some(bucket) = self.units.get_mut(&unit) {
            bucket.push(record);
            return Ok(());
        }
        if self.units.len() >= self.config.capacity {
            return Err(StreamError::ReorderOverflow {
                capacity: self.config.capacity,
                unit,
            });
        }
        self.units.insert(unit, vec![record]);
        Ok(())
    }

    /// Removes and returns `unit`'s records in the canonical order
    /// `(tick, ids, value bits)` — identical, but for sources, for every
    /// arrival order of the same multiset. Source ids deliberately do
    /// not participate in the order. Folding the result record by record
    /// gives the sums the engine's close computes without sorting.
    pub fn take_unit(&mut self, unit: i64) -> Vec<R> {
        let mut records = self.units.remove(&unit).unwrap_or_default();
        records.sort_unstable_by(R::canonical_cmp);
        records
    }

    /// The largest unit with buffered records, if any.
    pub fn max_buffered_unit(&self) -> Option<i64> {
        self.units.keys().next_back().copied()
    }

    /// Total records currently buffered.
    pub fn buffered_records(&self) -> usize {
        self.units.values().map(Vec::len).sum()
    }

    /// Distinct units currently buffered.
    pub fn buffered_units(&self) -> usize {
        self.units.len()
    }

    /// Counts one beyond-lateness drop.
    pub fn count_drop(&mut self) {
        self.dropped_total += 1;
        self.dropped_since_report += 1;
    }

    /// Beyond-lateness records dropped since construction.
    #[inline]
    pub fn dropped_total(&self) -> u64 {
        self.dropped_total
    }

    /// Takes the drop count accumulated since the previous call (the
    /// per-unit-report figure).
    pub fn take_dropped_since_report(&mut self) -> u64 {
        std::mem::take(&mut self.dropped_since_report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tick: i64, value: f64) -> RawRecord {
        RawRecord::new(vec![0, 0], tick, value)
    }

    fn per_source(capacity: usize, lateness: i64, idle_units: i64) -> ReorderConfig {
        ReorderConfig::new(capacity, lateness)
            .with_policy(WatermarkPolicy::PerSource { idle_units })
    }

    #[test]
    fn config_enablement_and_env_default() {
        assert!(!ReorderConfig::disabled().enabled());
        assert!(!ReorderConfig::default().enabled());
        assert!(ReorderConfig::new(4, 2).enabled());
        assert_eq!(ReorderConfig::new(4, -3).lateness, 0, "clamped");
        assert_eq!(ReorderConfig::new(4, 2).policy, WatermarkPolicy::Global);
        assert_eq!(
            per_source(4, 2, -1).policy,
            WatermarkPolicy::PerSource { idle_units: 0 },
            "idle allowance clamps at zero"
        );
    }

    #[test]
    fn watermark_advances_monotonically() {
        let mut st = ReorderState::<RawRecord>::new(ReorderConfig::new(4, 2));
        assert_eq!(st.max_seen_unit(), None);
        assert!(!st.close_ready(0));
        st.observe(3);
        st.observe(1); // regressions never pull the watermark back
        assert_eq!(st.max_seen_unit(), Some(3));
        assert_eq!(st.effective_watermark(), Some(3), "global: == frontier");
        // Lateness 2: unit 0 is complete once unit 3 has been seen.
        assert!(st.close_ready(0));
        assert!(!st.close_ready(1));
        assert_eq!(st.live_sources(), 0, "global policy tracks no sources");
        assert_eq!(st.watermark_held_units(), 0);
    }

    #[test]
    fn per_source_watermark_is_min_over_live_sources() {
        let mut st = ReorderState::<RawRecord>::new(per_source(8, 0, 100));
        st.observe_from(5, 1);
        assert_eq!(st.effective_watermark(), Some(5));
        assert!(st.close_ready(4), "single source: behaves like global");
        // A second, slower source pins the watermark to its own maximum.
        st.observe_from(2, 2);
        assert_eq!(st.max_seen_unit(), Some(5), "frontier unaffected");
        assert_eq!(st.effective_watermark(), Some(2));
        assert!(!st.close_ready(4), "slow source holds the close back");
        assert!(st.close_ready(1));
        // The slow source catches up; the watermark releases.
        st.observe_from(5, 2);
        assert_eq!(st.effective_watermark(), Some(5));
        assert!(st.close_ready(4));
        assert_eq!(st.live_sources(), 2);
        assert_eq!(st.sources_evicted(), 0);
    }

    #[test]
    fn idle_sources_are_evicted_and_reregister() {
        let mut st = ReorderState::<RawRecord>::new(per_source(8, 0, 2));
        st.observe_from(0, 7); // the sensor that will go silent
        st.observe_from(0, 1);
        assert_eq!(st.live_sources(), 2);
        st.observe_from(1, 1);
        st.observe_from(2, 1);
        assert_eq!(st.live_sources(), 2, "lag 2 is within the allowance");
        assert_eq!(st.effective_watermark(), Some(0));
        st.observe_from(3, 1);
        assert_eq!(st.live_sources(), 1, "lag 3 > 2: source 7 evicted");
        assert_eq!(st.sources_evicted(), 1);
        assert_eq!(st.effective_watermark(), Some(3), "watermark released");
        // Held-unit accounting: the advances to units 1 and 2 found the
        // effective watermark 1 then 2 units behind (source 7 at 0); the
        // advance to 3 evicted source 7 first, so it sampled a lag of 0.
        assert_eq!(st.watermark_held_units(), 1 + 2);
        // The straggler comes back with a *stale* tick: it re-registers
        // but is evicted right away rather than re-freezing the clock.
        st.observe_from(0, 7);
        assert_eq!(st.live_sources(), 1);
        assert_eq!(st.sources_evicted(), 2);
        // ...and coming back with a fresh tick re-registers it for good.
        st.observe_from(3, 7);
        assert_eq!(st.live_sources(), 2);
        assert_eq!(st.effective_watermark(), Some(3));
    }

    #[test]
    fn zero_idle_allowance_tracks_the_frontier_source() {
        let mut st = ReorderState::<RawRecord>::new(per_source(8, 0, 0));
        st.observe_from(4, 3);
        assert_eq!(st.live_sources(), 1);
        // A different source at the frontier evicts source 3 (allowance
        // 0) and stays live itself — the frontier source always
        // survives, so the watermark degenerates to the global one.
        st.observe_from(6, 9);
        assert_eq!(st.live_sources(), 1);
        assert_eq!(st.sources_evicted(), 1);
        assert_eq!(st.effective_watermark(), Some(6));
        st.observe_from(9, 5);
        assert_eq!(st.live_sources(), 1, "source 9 evicted, source 5 live");
        assert_eq!(st.sources_evicted(), 2);
        assert_eq!(st.max_seen_unit(), Some(9));
        assert_eq!(st.effective_watermark(), Some(9));
        assert!(st.close_ready(8));
    }

    #[test]
    fn buffer_caps_distinct_units_not_records() {
        let mut st = ReorderState::<RawRecord>::new(ReorderConfig::new(2, 1));
        st.buffer(0, rec(0, 1.0)).unwrap();
        st.buffer(0, rec(1, 2.0)).unwrap();
        st.buffer(1, rec(4, 3.0)).unwrap();
        assert_eq!(st.buffered_units(), 2);
        assert_eq!(st.buffered_records(), 3);
        // A third distinct unit overflows...
        let err = st.buffer(2, rec(8, 4.0)).unwrap_err();
        assert!(matches!(err, StreamError::ReorderOverflow { .. }));
        // ...but existing units keep admitting records.
        st.buffer(1, rec(5, 5.0)).unwrap();
        assert_eq!(st.max_buffered_unit(), Some(1));
    }

    #[test]
    fn take_unit_is_canonically_ordered() {
        let mut a = ReorderState::<RawRecord>::new(ReorderConfig::new(2, 1));
        let mut b = ReorderState::<RawRecord>::new(ReorderConfig::new(2, 1));
        let records = vec![rec(2, 1.0), rec(0, 5.0), rec(1, -2.0), rec(0, 3.0)];
        for r in &records {
            a.buffer(0, r.clone()).unwrap();
        }
        for r in records.iter().rev() {
            b.buffer(0, r.clone()).unwrap();
        }
        let (ra, rb) = (a.take_unit(0), b.take_unit(0));
        assert_eq!(ra, rb, "arrival order must not matter");
        assert!(ra.windows(2).all(|w| w[0].tick <= w[1].tick));
        assert!(a.take_unit(0).is_empty(), "taking twice is empty");
    }

    #[test]
    fn drop_accounting() {
        let mut st = ReorderState::<RawRecord>::new(ReorderConfig::new(2, 1));
        st.count_drop();
        st.count_drop();
        assert_eq!(st.dropped_total(), 2);
        assert_eq!(st.take_dropped_since_report(), 2);
        assert_eq!(st.take_dropped_since_report(), 0, "report counter resets");
        assert_eq!(st.dropped_total(), 2, "the total does not");
    }
}
