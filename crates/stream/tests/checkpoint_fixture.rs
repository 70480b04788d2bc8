//! The committed `RGCK` fixtures. Version-1 bytes written by the tree
//! at commit `3679487` (the last one that kept one `TiltFrame` per cell
//! in a hash map) must keep restoring, and resume exactly like an
//! engine that never stopped. The version-2 writer re-encodes them to
//! `fixtures/v2.rgck`: the same payload at the same length, under a
//! version-2 header and an XXH64 check instead of FNV-1a. That file
//! restores and resumes the same way.
//!
//! `fixtures/v1.rgck` is `checkpoint_bytes()` of the engine [`script`]
//! drives, taken after [`CUT_UNITS`] closes and the late traffic that
//! follows them; `fixtures/v1.canonical.txt` is the `canonical_text()`
//! of its snapshot at that moment. Both were produced by running this
//! file's `replay` at that commit. `fixtures/v2.rgck` is the
//! re-encode of the engine restored from `v1.rgck`, by the first
//! version-2 writer. The fixtures are the format's witnesses, so they
//! are never regenerated from the code under test: any later change to
//! the format bumps the `RGCK` version and keeps both files restoring.
//!
//! What the state holds, on purpose: watermark reordering with a record
//! still buffered; a three-level ladder `(2, 2, 2)` that has promoted
//! through every level and aged two coarse units out; cells that joined
//! late (back-filled from the epoch); a cell that was zero-valued, went
//! silent and was retired (absent from the file), one that came back
//! after retirement with real usage, and one re-registered all-zero by
//! a late record (present now, retired again by the next close); late amendments to a
//! finest slot, to an already promoted slot and to a cell never seen
//! before, all still unreported; and a pending alarm revision.

use regcube_core::ExceptionPolicy;
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_stream::{restore_bytes, EngineConfig, OnlineEngine, RawRecord, UnitReport};
use regcube_tilt::TiltSpec;

const TPU: i64 = 4;

const V1_BYTES: &[u8] = include_bytes!("fixtures/v1.rgck");
const V2_BYTES: &[u8] = include_bytes!("fixtures/v2.rgck");
const V1_TEXT: &str = include_str!("fixtures/v1.canonical.txt");

fn config() -> EngineConfig {
    let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
    EngineConfig::new(
        schema,
        CuboidSpec::new(vec![1, 1]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_policy(ExceptionPolicy::slope_threshold(1.0))
    .with_tilt(TiltSpec::new(vec![("unit", 2), ("mid", 2), ("top", 2)]).unwrap())
    .with_ticks_per_unit(TPU as usize)
    .with_reordering(4, 2)
}

enum Step {
    Record(RawRecord),
    Close,
}

/// One record per tick of `unit` for `cell`: `level + slope * offset`.
fn ramp(steps: &mut Vec<Step>, cell: [u32; 2], unit: i64, level: f64, slope: f64) {
    for k in 0..TPU {
        steps.push(Step::Record(RawRecord::new(
            cell.to_vec(),
            unit * TPU + k,
            level + slope * k as f64,
        )));
    }
}

/// Units closed when the checkpoint is taken.
const CUT_UNITS: i64 = 19;

/// The whole run: 19 units, the late traffic the checkpoint must carry
/// as pending state, then three more units. Returns the steps and the
/// index of the step the checkpoint is taken before.
fn script() -> (Vec<Step>, usize) {
    let mut steps = Vec::new();
    let unit_body = |steps: &mut Vec<Step>, unit: i64| {
        // Always on, gently drifting.
        ramp(steps, [0, 0], unit, 1.0 + unit as f64 * 0.25, 0.1);
        // On every third unit only: silent in between, never retired.
        if unit % 3 == 0 {
            ramp(steps, [1, 1], unit, 2.0, -0.2);
        }
        // Zero-valued once, then silent: retired at the next close.
        if unit == 1 {
            ramp(steps, [2, 0], unit, 0.0, 0.0);
        }
        // The same, and never heard of again: absent from the file.
        if unit == 4 {
            ramp(steps, [2, 1], unit, 0.0, 0.0);
        }
        // Zero-valued, retired, and back with real usage.
        if unit == 2 {
            ramp(steps, [0, 3], unit, 0.0, 0.0);
        }
        if unit >= 9 {
            ramp(steps, [0, 3], unit, 0.5, 0.05 * (unit % 4) as f64);
        }
        // Joined late.
        if unit >= 5 {
            ramp(steps, [3, 2], unit, 3.0, if unit == 11 { 1.5 } else { 0.2 });
        }
        if unit >= 7 && unit % 2 == 1 {
            ramp(steps, [1, 3], unit, -1.0, 0.3);
        }
    };
    for unit in 0..CUT_UNITS {
        unit_body(&mut steps, unit);
        steps.push(Step::Close);
    }
    // Open unit 19, lateness 2: units 17 and 18 amend, older ones drop.
    let late = |cell: [u32; 2], tick: i64, value: f64| {
        Step::Record(RawRecord::new(cell.to_vec(), tick, value))
    };
    // A finest slot (unit 18), steep enough to flip its o-cell's verdict.
    steps.push(late([3, 2], 18 * TPU + 3, 40.0));
    // A slot already promoted one level up (unit 17 lives in mid unit 8).
    steps.push(late([0, 0], 17 * TPU + 1, -2.5));
    // A cell never seen before.
    steps.push(late([3, 3], 18 * TPU, 1.25));
    // The retired zero cell, re-registered all-zero.
    steps.push(late([2, 0], 18 * TPU + 2, 0.0));
    // Beyond the allowed lateness: a counted drop.
    steps.push(late([0, 0], 3 * TPU, 9.0));
    // Ahead of the open unit: stays in the reorder buffer.
    steps.push(late([1, 1], 20 * TPU + 1, 0.75));
    let cut = steps.len();
    for unit in CUT_UNITS..CUT_UNITS + 3 {
        unit_body(&mut steps, unit);
        steps.push(Step::Close);
    }
    (steps, cut)
}

/// Drives `engine` through `steps`; every close yields its report and
/// the rendered snapshot behind it.
fn replay(engine: &mut OnlineEngine, steps: &[Step]) -> Vec<(UnitReport, String)> {
    let mut closes = Vec::new();
    for step in steps {
        match step {
            Step::Record(record) => engine.ingest(record).unwrap(),
            Step::Close => {
                let report = engine.close_unit().unwrap();
                closes.push((report, engine.snapshot().canonical_text()));
            }
        }
    }
    closes
}

/// The payload of an `RGCK` file: between the 16-byte header (magic,
/// version, payload length) and the 8-byte check.
fn payload(file: &[u8]) -> &[u8] {
    &file[16..file.len() - 8]
}

/// Three more units on `revived` and on `scratch`, which never stopped:
/// pending amendments and the revision are reported by the first close,
/// the all-zero cell retires, the buffered record lands in unit 20.
fn assert_resumes_like(revived: &mut OnlineEngine, scratch: &mut OnlineEngine, steps: &[Step]) {
    let resumed = replay(revived, steps);
    let uninterrupted = replay(scratch, steps);
    assert_eq!(resumed.len(), 3);
    for ((a, text_a), (b, text_b)) in resumed.iter().zip(&uninterrupted) {
        assert_eq!(text_a, text_b, "unit {}", a.unit);
        assert_eq!(a.alarms, b.alarms, "unit {}", a.unit);
        assert_eq!(a.late_amendments, b.late_amendments, "unit {}", a.unit);
        assert_eq!(a.alarm_revisions, b.alarm_revisions, "unit {}", a.unit);
        assert_eq!(a.late_dropped, b.late_dropped, "unit {}", a.unit);
    }
    let (first, text) = &resumed[0];
    assert_eq!(first.late_amendments.len(), 4);
    assert_eq!(first.alarm_revisions.len(), 2, "raised, then rescored");
    assert_eq!(first.late_dropped, 1);
    assert!(!text.contains("mframe [2, 0] "), "retired again");
    assert_eq!(
        revived.checkpoint_bytes().unwrap(),
        scratch.checkpoint_bytes().unwrap()
    );
}

/// An engine driven from scratch to the checkpoint's moment.
fn scratch_run(steps: &[Step], cut: usize) -> OnlineEngine {
    let mut scratch = config().build().unwrap();
    replay(&mut scratch, &steps[..cut]);
    scratch
}

#[test]
fn v1_fixture_restores_reencodes_and_resumes() {
    let (steps, cut) = script();
    let mut scratch = scratch_run(&steps, cut);

    // The fixture holds what its header says it holds.
    assert_eq!(scratch.units_closed(), CUT_UNITS as u64);
    assert_eq!(scratch.late_amended(), 4);
    assert_eq!(scratch.late_dropped(), 1);
    assert_eq!(scratch.buffered_records(), 1);
    assert!(V1_TEXT.contains("mframe [3, 3] "), "the never-seen cell");
    assert!(V1_TEXT.contains("mframe [2, 0] "), "re-registered all-zero");
    assert!(!V1_TEXT.contains("mframe [2, 1] "), "retired for good");
    assert!(V1_TEXT.contains(" L2 u2 ") && V1_TEXT.contains(" L1 u8 "));

    // Restore: the same queryable state, re-encoded as the v2 fixture.
    let mut revived = restore_bytes(config(), V1_BYTES).unwrap();
    assert_eq!(revived.snapshot().canonical_text(), V1_TEXT);
    assert!(
        revived.checkpoint_bytes().unwrap() == V2_BYTES,
        "re-encoding the restored v1 fixture no longer writes the v2 bytes"
    );
    // An engine that ran from scratch writes the same file.
    assert_eq!(scratch.snapshot().canonical_text(), V1_TEXT);
    assert!(
        scratch.checkpoint_bytes().unwrap() == V2_BYTES,
        "a from-scratch run no longer writes the v2 bytes"
    );

    assert_resumes_like(&mut revived, &mut scratch, &steps[cut..]);
}

#[test]
fn v2_fixture_carries_the_v1_payload_restores_and_resumes() {
    // Only the version and the check differ: the header's payload
    // length and every payload byte are v1's.
    assert_eq!(V2_BYTES[..4], V1_BYTES[..4], "magic");
    assert_eq!(V1_BYTES[4..8], 1u32.to_le_bytes());
    assert_eq!(V2_BYTES[4..8], 2u32.to_le_bytes());
    assert_eq!(V2_BYTES[8..16], V1_BYTES[8..16], "payload length");
    assert_eq!(V2_BYTES.len(), V1_BYTES.len());
    assert!(payload(V2_BYTES) == payload(V1_BYTES), "payload bytes");
    assert_ne!(
        V2_BYTES[V2_BYTES.len() - 8..],
        V1_BYTES[V1_BYTES.len() - 8..]
    );

    let (steps, cut) = script();
    let mut scratch = scratch_run(&steps, cut);
    let mut revived = restore_bytes(config(), V2_BYTES).unwrap();
    assert_eq!(revived.snapshot().canonical_text(), V1_TEXT);
    assert!(revived.checkpoint_bytes().unwrap() == V2_BYTES);
    assert_resumes_like(&mut revived, &mut scratch, &steps[cut..]);
}
