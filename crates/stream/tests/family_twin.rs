//! The engine's frame families against the per-cell frame maps they
//! replaced, through the public API: the stream-level twin of
//! `crates/tilt/tests/family_model.rs`, on `CellKey` and `Isb`.
//!
//! The oracle is `push_unit_into_frames` and `ensure_backfilled_frame`
//! as `online.rs` had them, verbatim, over
//! `FxHashMap<CellKey, TiltFrame<Isb>>`. It is fed what the engine
//! reports — each close's m- and o-layer tuples, each late amendment —
//! and must end every unit holding the frames the engine's snapshot
//! renders, bit for bit: same cells (late joiners back-filled, all-zero
//! cells retired and recreated), same slots. Half-way the engine is
//! checkpointed and restored, so the second half runs on families whose
//! fills were rebuilt rather than accumulated.

use proptest::prelude::*;
use regcube_core::alarm::LateAmendment;
use regcube_core::ExceptionPolicy;
use regcube_olap::cell::CellKey;
use regcube_olap::fxhash::{FxHashMap, FxHashSet};
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_regress::Isb;
use regcube_stream::{restore_bytes, EngineConfig, OnlineEngine, RawRecord, UnitReport};
use regcube_tilt::{AmendOutcome, TiltError, TiltFrame, TiltSpec};
use std::fmt::Write as _;

const TPU: usize = 4;
const LATENESS: i64 = 2;

type Frames = FxHashMap<CellKey, TiltFrame<Isb>>;

/// Pushes one closed unit into a family of per-cell tilt frames: active
/// cells receive their unit ISB (new cells are zero-backfilled so their
/// timeline starts at the epoch), inactive-but-known cells receive a
/// zero-usage fill. Keeps every frame contiguous with the global clock.
fn push_unit_into_frames(
    frames: &mut Frames,
    spec: &TiltSpec,
    active_cells: &[(CellKey, Isb)],
    unit: i64,
    window: (i64, i64),
    ticks_per_unit: usize,
) -> Result<(), TiltError> {
    let zero_fill = Isb::new(window.0, window.1, 0.0, 0.0)?;
    let mut active: FxHashSet<&CellKey> = FxHashSet::default();
    for (key, isb) in active_cells {
        active.insert(key);
        let frame = frames
            .entry(key.clone())
            .or_insert_with(|| TiltFrame::new(spec.clone()));
        if frame.next_unit() == 0 && unit > 0 {
            // Backfill zero slots so the frame timeline matches the
            // global unit clock.
            for u in 0..unit {
                let s = u * ticks_per_unit as i64;
                let fill = Isb::new(s, s + ticks_per_unit as i64 - 1, 0.0, 0.0)?;
                frame.push(fill)?;
            }
        }
        frame.push(*isb)?;
    }
    let mut retired: Vec<CellKey> = Vec::new();
    for (key, frame) in frames.iter_mut() {
        if !active.contains(key) {
            frame.push(zero_fill)?;
            // A ladder that is zero-usage end to end carries nothing the
            // epoch backfill cannot reproduce: retire the frame so
            // transient cells don't pin memory forever. If the cell
            // returns, the recreated frame's replayed zero history
            // expires and promotes identically — the same ladder.
            if frame
                .history()
                .iter()
                .all(|slot| slot.measure.base() == 0.0 && slot.measure.slope() == 0.0)
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
fn ensure_backfilled_frame<'a>(
    frames: &'a mut Frames,
    spec: &TiltSpec,
    key: &CellKey,
    units_closed: u64,
    ticks_per_unit: usize,
) -> Result<&'a mut TiltFrame<Isb>, TiltError> {
    if !frames.contains_key(key) {
        let mut frame = TiltFrame::new(spec.clone());
        for u in 0..units_closed as i64 {
            let s = u * ticks_per_unit as i64;
            let fill = Isb::new(s, s + ticks_per_unit as i64 - 1, 0.0, 0.0)?;
            frame.push(fill)?;
        }
        frames.insert(key.clone(), frame);
    }
    Ok(frames.get_mut(key).expect("present or just inserted"))
}

/// The two maps the engine used to hold, maintained from its reports.
struct Oracle {
    spec: TiltSpec,
    frames: Frames,
    o_frames: Frames,
}

impl Oracle {
    /// What the engine did between two closes, then the close itself.
    fn follow(&mut self, engine: &OnlineEngine, report: &UnitReport) {
        let closed_before = report.unit as u64;
        for amendment in &report.late_amendments {
            let LateAmendment {
                m_cell,
                o_cell,
                unit,
                tick,
                delta,
                m_level,
                o_level,
            } = amendment;
            for (frames, key, level) in [
                (&mut self.frames, m_cell, m_level),
                (&mut self.o_frames, o_cell, o_level),
            ] {
                let frame =
                    ensure_backfilled_frame(frames, &self.spec, key, closed_before, TPU).unwrap();
                let outcome = frame
                    .amend_slot(*unit, |m| Ok(m.amend_tick(*tick, *delta)?))
                    .unwrap();
                assert!(
                    matches!(outcome, AmendOutcome::Amended { level: l, .. } if l == *level),
                    "{amendment}: {outcome:?}"
                );
            }
        }
        let tuples = |table: &FxHashMap<CellKey, Isb>| -> Vec<(CellKey, Isb)> {
            if report.m_cells == 0 {
                return Vec::new();
            }
            let mut cells: Vec<_> = table.iter().map(|(k, m)| (k.clone(), *m)).collect();
            cells.sort_by(|a, b| a.0.cmp(&b.0));
            cells
        };
        let (m_cells, o_cells) = match engine.cube() {
            Ok(cube) => (tuples(cube.m_table()), tuples(cube.o_table())),
            Err(_) => (Vec::new(), Vec::new()),
        };
        assert_eq!(m_cells.len(), report.m_cells);
        let first = report.unit * TPU as i64;
        let window = (first, first + TPU as i64 - 1);
        for (frames, cells) in [(&mut self.frames, m_cells), (&mut self.o_frames, o_cells)] {
            push_unit_into_frames(frames, &self.spec, &cells, report.unit, window, TPU).unwrap();
        }
    }

    /// The frame lines of `CubeSnapshot::canonical_text`.
    fn render(&self) -> String {
        let mut out = String::new();
        for (tag, frames) in [("mframe", &self.frames), ("oframe", &self.o_frames)] {
            let mut keys: Vec<_> = frames.keys().collect();
            keys.sort();
            for key in keys {
                for (level, slot) in frames[key].timeline() {
                    let m = &slot.measure;
                    let _ = writeln!(
                        out,
                        "{tag} {key} L{level} u{} [{},{}] b={:016x} s={:016x}",
                        slot.unit,
                        m.start(),
                        m.end(),
                        m.base().to_bits(),
                        m.slope().to_bits()
                    );
                }
            }
        }
        out
    }
}

fn frame_lines(engine: &OnlineEngine) -> String {
    engine
        .snapshot()
        .canonical_text()
        .lines()
        .filter(|line| line.starts_with("mframe ") || line.starts_with("oframe "))
        .fold(String::new(), |mut out, line| {
            out.push_str(line);
            out.push('\n');
            out
        })
}

fn config(spec: &TiltSpec) -> EngineConfig {
    let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
    EngineConfig::new(
        schema,
        CuboidSpec::new(vec![1, 1]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_policy(ExceptionPolicy::slope_threshold(1.0))
    .with_tilt(spec.clone())
    .with_ticks_per_unit(TPU)
    .with_reordering(4, LATENESS)
}

fn cell(index: u32) -> Vec<u32> {
    vec![index % 4, index / 4 % 4]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn engine_frames_match_the_frame_per_cell_maps(
        groups in prop::collection::vec(2usize..5, 1..4),
        // Per unit: (active mask, zero-valued mask, late cell, late
        // value, how late, how many late records).
        units in prop::collection::vec(
            (0u32..65_536, 0u32..65_536, 0u32..16, -8.0..8.0f64, 1i64..5, 0u32..3),
            12..48,
        ),
    ) {
        let names: Vec<String> = (0..groups.len()).map(|i| format!("l{i}")).collect();
        let spec = TiltSpec::new(
            names.iter().map(String::as_str).zip(groups.iter().copied()).collect(),
        ).unwrap();
        let mut engine = config(&spec).build().unwrap();
        let mut oracle = Oracle {
            spec: spec.clone(),
            frames: Frames::default(),
            o_frames: Frames::default(),
        };
        let restore_at = units.len() / 2;
        let mut amended = 0;

        for (unit, (mask, zero_mask, late_cell, late_value, lag, late_records)) in
            units.into_iter().enumerate()
        {
            let unit = unit as i64;
            // Every third unit is sparse, so cells fall silent for long
            // enough to retire once their usage has aged out or was
            // zero to begin with.
            let mask = if unit % 3 == 2 { mask & 0x0101 } else { mask & 0x0fff };
            for index in (0..16u32).filter(|i| mask & (1 << i) != 0) {
                for k in 0..TPU as i64 {
                    let value = if zero_mask & (1 << index) != 0 {
                        0.0
                    } else {
                        1.0 + f64::from(index) * 0.25 + k as f64 * (late_value * 0.1)
                    };
                    engine
                        .ingest(&RawRecord::new(cell(index), unit * TPU as i64 + k, value))
                        .unwrap();
                }
            }
            // Late traffic for closed units: within the lateness it
            // amends (known, retired and never-seen cells alike), beyond
            // it is dropped.
            for n in 0..late_records {
                let late_unit = unit - lag;
                if late_unit < 0 {
                    continue;
                }
                let value = if n == 1 { 0.0 } else { late_value };
                let tick = late_unit * TPU as i64 + i64::from(n);
                engine
                    .ingest(&RawRecord::new(cell(late_cell + n), tick, value))
                    .unwrap();
            }
            // Half-way: a restart, with this unit's records still in
            // the reorder buffer and its amendments still unreported.
            if unit as usize == restore_at {
                let bytes = engine.checkpoint_bytes().unwrap();
                engine = restore_bytes(config(&spec), &bytes).unwrap();
                prop_assert!(engine.checkpoint_bytes().unwrap() == bytes);
            }
            let report = engine.close_unit().unwrap();
            prop_assert_eq!(report.unit, unit);
            prop_assert!(report.late_amendments.iter().all(|a| unit - a.unit as i64 <= LATENESS));
            amended += report.late_amendments.len();
            oracle.follow(&engine, &report);
            prop_assert_eq!(frame_lines(&engine), oracle.render(), "after unit {}", unit);
            for (key, frame) in &oracle.frames {
                prop_assert_eq!(engine.tilt_frame(key), Some(frame.clone()));
            }
            for (key, frame) in &oracle.o_frames {
                prop_assert_eq!(engine.o_layer_frame(key), Some(frame.clone()));
            }
        }
        prop_assert_eq!(engine.late_amended() as usize, amended);
    }
}
