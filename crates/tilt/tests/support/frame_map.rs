//! The per-cell frame map that frame families replaced: one
//! [`TiltFrame`] per cell, kept by `push_unit_into_frames` and
//! `ensure_backfilled_frame` as `OnlineEngine` had them, verbatim except
//! that the key and the measure are type parameters and the zero fill
//! and the "all zero" test are parameters instead of `Isb` literals. It
//! pushes into every frame every unit, replays a new cell's history from
//! the epoch, and rescans every silent frame to retire it: the
//! obviously-right, linear-in-everything reference. The tilt crate's
//! `family_model.rs` and the stream crate's `family_twin.rs` both include
//! this file, so the two suites hold the family to one oracle.

use regcube_tilt::{TiltError, TiltFrame, TiltSpec, TimeMergeable};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;

/// The per-cell frame map and the two functions that maintained it.
pub struct FrameMap<K, M> {
    pub frames: HashMap<K, TiltFrame<M>>,
    spec: TiltSpec,
    /// The zero-usage fill of a finest unit.
    zero_fill: fn(u64) -> M,
    is_zero: fn(&M) -> bool,
}

impl<K: Hash + Eq + Clone, M: TimeMergeable> FrameMap<K, M> {
    pub fn new(spec: TiltSpec, zero_fill: fn(u64) -> M, is_zero: fn(&M) -> bool) -> Self {
        FrameMap {
            frames: HashMap::new(),
            spec,
            zero_fill,
            is_zero,
        }
    }

    /// Pushes one closed unit into a family of per-cell tilt frames:
    /// active cells receive their unit measure (new cells are
    /// zero-backfilled so their timeline starts at the epoch),
    /// inactive-but-known cells receive a zero-usage fill. Keeps every
    /// frame contiguous with the global clock.
    pub fn push_unit_into_frames(
        &mut self,
        active_cells: &[(K, M)],
        unit: u64,
    ) -> Result<(), TiltError> {
        let frames = &mut self.frames;
        let zero_fill = (self.zero_fill)(unit);
        let mut active: HashSet<&K> = HashSet::new();
        for (key, measure) in active_cells {
            active.insert(key);
            let frame = frames
                .entry(key.clone())
                .or_insert_with(|| TiltFrame::new(self.spec.clone()));
            if frame.next_unit() == 0 && unit > 0 {
                // Backfill zero slots so the frame timeline matches the
                // global unit clock.
                for u in 0..unit {
                    frame.push((self.zero_fill)(u))?;
                }
            }
            frame.push(measure.clone())?;
        }
        let mut retired: Vec<K> = Vec::new();
        for (key, frame) in frames.iter_mut() {
            if !active.contains(key) {
                frame.push(zero_fill.clone())?;
                // A ladder that is zero-usage end to end carries nothing
                // the epoch backfill cannot reproduce: retire the frame
                // so transient cells don't pin memory forever. If the
                // cell returns, the recreated frame's replayed zero
                // history expires and promotes identically — the same
                // ladder.
                if frame
                    .history()
                    .iter()
                    .all(|slot| (self.is_zero)(&slot.measure))
                {
                    retired.push(key.clone());
                }
            }
        }
        for key in retired {
            frames.remove(&key);
        }
        Ok(())
    }

    /// Looks up (or recreates, zero-backfilled from the epoch) the tilt
    /// frame of `key` so a late amendment always has a slot to land in.
    pub fn ensure_backfilled_frame(
        &mut self,
        key: &K,
        units_closed: u64,
    ) -> Result<&mut TiltFrame<M>, TiltError> {
        if let Entry::Vacant(slot) = self.frames.entry(key.clone()) {
            let mut frame = TiltFrame::new(self.spec.clone());
            for u in 0..units_closed {
                frame.push((self.zero_fill)(u))?;
            }
            slot.insert(frame);
        }
        Ok(self.frames.get_mut(key).expect("present or just inserted"))
    }
}
