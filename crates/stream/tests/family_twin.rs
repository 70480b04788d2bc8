//! The engine's frame families against the per-cell frame maps they
//! replaced, through the public API: the stream-level twin of
//! `crates/tilt/tests/family_model.rs`, on `CellKey` and `Isb`.
//!
//! The oracle is `push_unit_into_frames` and `ensure_backfilled_frame`
//! as `online.rs` had them, over one `TiltFrame<Isb>` per cell: the
//! tilt crate's `tests/support/frame_map.rs`, which `family_model.rs`
//! includes too. It is fed what the engine reports — each close's m- and
//! o-layer tuples, each late amendment — and must end every unit holding
//! the frames the engine's snapshot renders, bit for bit: same cells
//! (late joiners back-filled, all-zero cells retired and recreated),
//! same slots. Half-way the engine is checkpointed and restored, so the
//! second half runs on families whose fills were rebuilt rather than
//! accumulated.

#[path = "../../tilt/tests/support/frame_map.rs"]
mod frame_map;

use frame_map::FrameMap;
use proptest::prelude::*;
use regcube_core::alarm::LateAmendment;
use regcube_core::ExceptionPolicy;
use regcube_olap::cell::CellKey;
use regcube_olap::fxhash::FxHashMap;
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_regress::Isb;
use regcube_stream::{restore_bytes, EngineConfig, OnlineEngine, RawRecord, UnitReport};
use regcube_tilt::{AmendOutcome, TiltSpec};
use std::fmt::Write as _;

const TPU: usize = 4;
const LATENESS: i64 = 2;

type Frames = FrameMap<CellKey, Isb>;

/// The zero-usage fill of a finest unit.
fn zero_fill(unit: u64) -> Isb {
    let first = unit as i64 * TPU as i64;
    Isb::new(first, first + TPU as i64 - 1, 0.0, 0.0).unwrap()
}

/// The engine's retirement rule: zero base and slope.
fn is_zero(m: &Isb) -> bool {
    m.base() == 0.0 && m.slope() == 0.0
}

/// The two maps the engine used to hold, maintained from its reports.
struct Oracle {
    frames: Frames,
    o_frames: Frames,
}

impl Oracle {
    fn new(spec: &TiltSpec) -> Self {
        Oracle {
            frames: Frames::new(spec.clone(), zero_fill, is_zero),
            o_frames: Frames::new(spec.clone(), zero_fill, is_zero),
        }
    }

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
                let frame = frames.ensure_backfilled_frame(key, closed_before).unwrap();
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
        for (frames, cells) in [(&mut self.frames, m_cells), (&mut self.o_frames, o_cells)] {
            frames
                .push_unit_into_frames(&cells, report.unit as u64)
                .unwrap();
        }
    }

    /// The frame lines of `CubeSnapshot::canonical_text`.
    fn render(&self) -> String {
        let mut out = String::new();
        for (tag, frames) in [("mframe", &self.frames), ("oframe", &self.o_frames)] {
            let mut keys: Vec<_> = frames.frames.keys().collect();
            keys.sort();
            for key in keys {
                for (level, slot) in frames.frames[key].timeline() {
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
        let mut oracle = Oracle::new(&spec);
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
            for (key, frame) in &oracle.frames.frames {
                prop_assert_eq!(engine.tilt_frame(key), Some(frame.clone()));
            }
            for (key, frame) in &oracle.o_frames.frames {
                prop_assert_eq!(engine.o_layer_frame(key), Some(frame.clone()));
            }
        }
        prop_assert_eq!(engine.late_amended() as usize, amended);
    }
}
