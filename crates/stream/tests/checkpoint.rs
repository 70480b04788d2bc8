//! Checkpoint/recovery integration tests: save → restore → continue
//! must be bit-identical to an uninterrupted run, and every way a
//! checkpoint file can go bad must
//! surface as a typed [`StreamError::Checkpoint`] — never a panic,
//! never a silently half-restored engine.

use proptest::prelude::*;
use regcube_core::engine::{MoCubingEngine, PopularPathEngine};
use regcube_core::mo_cubing::PlanEngine;
use regcube_core::result::Algorithm;
use regcube_core::{CriticalLayers, ExceptionPolicy};
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_stream::{
    restore_bytes, EngineConfig, OnlineEngine, RawRecord, StreamError, UnitReport, WatermarkPolicy,
};
use regcube_tilt::TiltSpec;

const TPU: usize = 4;

/// The shared analysis: synthetic 2x2x2 schema, o-layer = apex,
/// m-layer = primitive = leaves, two-level tilt ladder, watermark
/// reordering with per-source eviction.
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
    .with_reordering(12, 2)
    .with_watermark_policy(WatermarkPolicy::PerSource { idle_units: 3 })
}

fn drive(e: &mut OnlineEngine, records: &[RawRecord]) -> Vec<UnitReport> {
    let mut reports = Vec::new();
    for r in records {
        e.ingest(r).unwrap();
        reports.extend(e.drain_ready().unwrap());
    }
    reports
}

fn make_records(raw: &[(Vec<u32>, i64, f64)]) -> Vec<RawRecord> {
    let mut records: Vec<RawRecord> = raw
        .iter()
        .map(|(ids, tick, value)| {
            // Source id derived from the cell so per-source watermark
            // state is non-trivial but deterministic.
            let source = ids.iter().sum::<u32>() % 3;
            RawRecord::new(ids.clone(), *tick, *value).with_source(source)
        })
        .collect();
    records.sort_by(|a, b| {
        (a.tick, &a.ids, a.value.to_bits()).cmp(&(b.tick, &b.ids, b.value.to_bits()))
    });
    records
}

/// `Result<OnlineEngine, _>` has no `Debug` (the boxed engine is a
/// trait object), so `unwrap_err` doesn't apply; unwrap by hand.
fn expect_checkpoint_err(res: regcube_stream::Result<OnlineEngine>) -> StreamError {
    match res {
        Err(e @ StreamError::Checkpoint { .. }) => e,
        Err(e) => panic!("expected a checkpoint error, got: {e}"),
        Ok(_) => panic!("expected a checkpoint error, got an engine"),
    }
}

fn assert_reports_eq(xs: &[UnitReport], ys: &[UnitReport], what: &str) {
    assert_eq!(xs.len(), ys.len(), "{what}: report count");
    for (x, y) in xs.iter().zip(ys) {
        assert_eq!(x.unit, y.unit, "{what}");
        assert_eq!(x.m_cells, y.m_cells, "{what}: unit {}", x.unit);
        assert_eq!(x.alarms, y.alarms, "{what}: unit {}", x.unit);
        assert_eq!(
            x.late_amendments, y.late_amendments,
            "{what}: unit {}",
            x.unit
        );
        assert_eq!(
            x.alarm_revisions, y.alarm_revisions,
            "{what}: unit {}",
            x.unit
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Save at an arbitrary cut point, restore, continue with the rest
    /// of the stream: the surviving engine finishes byte-identical to
    /// the uninterrupted one — snapshots (`canonical_text`), unit
    /// reports, alarms, amendments, revisions and lateness counters all
    /// agree.
    #[test]
    fn save_restore_continue_is_bit_identical(
        raw in prop::collection::vec(
            (prop::collection::vec(0u32..4, 2), 0i64..32, -10.0..10.0f64),
            8..96,
        ),
        cut_frac in 0.2f64..0.8,
    ) {
        let records = make_records(&raw);
        let cut = ((records.len() as f64) * cut_frac) as usize;
        let (first, second) = records.split_at(cut);

        // The uninterrupted reference.
        let mut reference = config().build().unwrap();
        let mut ref_reports = drive(&mut reference, &records.to_vec());
        ref_reports.extend(reference.flush().unwrap());

        // The interrupted run: first half, checkpoint, restore,
        // second half.
        let mut victim = config().build().unwrap();
        let mut reports = drive(&mut victim, first);
        let bytes = victim.checkpoint_bytes().unwrap();
        let mut revived = restore_bytes(config(), &bytes).unwrap();
        reports.extend(drive(&mut revived, second));
        reports.extend(revived.flush().unwrap());

        assert_reports_eq(&ref_reports, &reports, "restored");
        prop_assert_eq!(
            reference.snapshot().canonical_text(),
            revived.snapshot().canonical_text(),
            "snapshot divergence"
        );
        let (ref_stats, stats) = (reference.stats(), revived.stats());
        prop_assert_eq!(stats.late_dropped, ref_stats.late_dropped);
        prop_assert_eq!(stats.late_amendments, ref_stats.late_amendments);
        prop_assert_eq!(stats.sources_evicted, ref_stats.sources_evicted);
        prop_assert_eq!(
            stats.watermark_held_units,
            ref_stats.watermark_held_units
        );
    }

    /// Any truncation of a valid checkpoint and any single corrupted
    /// byte yields a typed `StreamError::Checkpoint` — never a panic,
    /// never an engine.
    #[test]
    fn torn_and_corrupt_checkpoints_fail_typed(
        raw in prop::collection::vec(
            (prop::collection::vec(0u32..4, 2), 0i64..16, -10.0..10.0f64),
            8..40,
        ),
        cut in 0usize..4096,
        flip in 0usize..4096,
    ) {
        let records = make_records(&raw);
        let mut e = config().build().unwrap();
        drive(&mut e, &records);
        let bytes = e.checkpoint_bytes().unwrap();

        let torn = &bytes[..cut % bytes.len()];
        match restore_bytes(config(), torn) {
            Err(StreamError::Checkpoint { .. }) => {}
            Err(e) => prop_assert!(false, "torn file: wrong error type {}", e),
            Ok(_) => prop_assert!(false, "torn file restored an engine"),
        }

        let mut corrupt = bytes.clone();
        corrupt[flip % bytes.len()] ^= 0x20;
        // Either the envelope/checksum rejects it, or (for the rare
        // checksum-of-corrupt-payload collision — vanishingly unlikely
        // for one flipped bit under XXH64) the decode does. Never a
        // panic.
        if let Err(err) = restore_bytes(config(), &corrupt) {
            prop_assert!(matches!(err, StreamError::Checkpoint { .. }),
                "wrong error type: {err}");
        }
    }
}

#[test]
fn restore_rejects_mismatched_configuration() {
    let records = make_records(&[
        (vec![0, 0], 0, 1.0),
        (vec![1, 1], 3, 2.0),
        (vec![0, 1], 9, -1.0),
    ]);
    let mut e = config().build().unwrap();
    drive(&mut e, &records);
    let bytes = e.checkpoint_bytes().unwrap();

    // A different analysis (other tilt spec) must be rejected.
    let other_tilt = config().with_tilt(TiltSpec::new(vec![("unit", 8)]).unwrap());
    let err = expect_checkpoint_err(restore_bytes(other_tilt, &bytes));
    assert!(err.to_string().contains("mismatch"), "{err}");

    // Reordering-disabled config against a watermark checkpoint: also
    // typed, also refused.
    let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
    let strict = EngineConfig::new(
        schema,
        CuboidSpec::new(vec![0, 0]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_policy(ExceptionPolicy::slope_threshold(1.0))
    .with_tilt(TiltSpec::new(vec![("unit", 4), ("coarse", 3)]).unwrap())
    .with_ticks_per_unit(TPU);
    let err = expect_checkpoint_err(restore_bytes(strict, &bytes));
    assert!(err.to_string().contains("reordering"), "{err}");
}

#[test]
fn checkpoint_file_round_trips_and_missing_file_is_typed() {
    let records = make_records(&[
        (vec![0, 0], 0, 1.0),
        (vec![0, 0], 1, 2.0),
        (vec![1, 1], 4, 3.0),
        (vec![0, 0], 5, 1.5),
        (vec![1, 0], 9, -2.0),
        (vec![0, 0], 13, 4.0),
    ]);
    let mut e = config().build().unwrap();
    drive(&mut e, &records);

    let dir = std::env::temp_dir().join(format!("regcube-ckpt-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("engine.rgck");

    e.write_checkpoint(&path).unwrap();
    let revived = config().restore(&path).unwrap();
    assert_eq!(
        e.snapshot().canonical_text(),
        revived.snapshot().canonical_text()
    );
    assert_eq!(e.open_unit(), revived.open_unit());
    assert_eq!(e.buffered_records(), revived.buffered_records());

    let missing = dir.join("nope.rgck");
    expect_checkpoint_err(config().restore(&missing));

    std::fs::remove_dir_all(&dir).ok();
}

/// A second checkpoint to the same path replaces the first, whole, and
/// leaves no staging file behind.
#[test]
fn a_second_checkpoint_replaces_the_first() {
    let records = make_records(&[
        (vec![0, 0], 0, 1.0),
        (vec![1, 1], 4, 3.0),
        (vec![0, 1], 9, -2.0),
        (vec![1, 0], 13, 4.0),
        (vec![0, 0], 17, 0.5),
    ]);
    let (early, late) = records.split_at(2);
    let mut e = config().build().unwrap();

    let dir = std::env::temp_dir().join(format!("regcube-ckpt-replace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("engine.rgck");

    drive(&mut e, early);
    e.write_checkpoint(&path).unwrap();
    let first = std::fs::read(&path).unwrap();
    drive(&mut e, late);
    e.write_checkpoint(&path).unwrap();

    let second = std::fs::read(&path).unwrap();
    assert_ne!(first, second, "the engine moved on between the two");
    assert_eq!(second, e.checkpoint_bytes().unwrap());
    assert!(!path.with_extension("rgck-tmp").exists());
    let names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .collect();
    assert_eq!(names, ["engine.rgck"]);
    let revived = config().restore(&path).unwrap();
    assert_eq!(
        revived.snapshot().canonical_text(),
        e.snapshot().canonical_text()
    );
    assert_eq!(revived.units_closed(), e.units_closed());

    std::fs::remove_dir_all(&dir).ok();
}

/// A strict-order engine mid-unit refuses to checkpoint (typed), and
/// accepts at the boundary.
#[test]
fn strict_order_checkpoint_requires_a_unit_boundary() {
    let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
    let cfg = EngineConfig::new(
        schema,
        CuboidSpec::new(vec![0, 0]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_policy(ExceptionPolicy::slope_threshold(1.0))
    .with_tilt(TiltSpec::new(vec![("unit", 4)]).unwrap())
    .with_ticks_per_unit(TPU);
    let mut e = cfg.clone().build().unwrap();
    for t in 0..TPU as i64 {
        e.ingest(&RawRecord::new(vec![0, 0], t, 1.0)).unwrap();
    }
    // Mid-unit: the open accumulation is non-empty.
    let err = e.checkpoint_bytes().unwrap_err();
    assert!(
        matches!(&err, StreamError::Checkpoint { detail } if detail.contains("boundary")),
        "{err}"
    );
    e.close_unit().unwrap();
    let bytes = e.checkpoint_bytes().unwrap();
    let mut revived = restore_bytes(cfg, &bytes).unwrap();
    assert_eq!(
        e.snapshot().canonical_text(),
        revived.snapshot().canonical_text()
    );

    // The restored engine keeps working: next unit closes cleanly.
    for t in TPU as i64..2 * TPU as i64 {
        revived.ingest(&RawRecord::new(vec![0, 0], t, 2.0)).unwrap();
    }
    let report = revived.close_unit().unwrap();
    assert_eq!(report.unit, 1);
}

/// How a test builds a cubing engine by hand.
type Make<E> = fn(CubeSchema, CriticalLayers, ExceptionPolicy) -> regcube_core::Result<E>;

/// A fixed population reports every tick, so the cubing engine gets one
/// key sequence every unit and replays its roll-up plan from the second
/// unit on. A restored engine re-cubes the
/// checkpointed unit cold from its m-table sorted by key, which is the
/// sequence the ingestor closes units in, so it replays from its second
/// unit after the restore. Unit by unit, it must serve what the engine
/// that never stopped serves, with either algorithm: both run on the
/// engine that keeps plans.
#[test]
fn a_restored_engine_serves_recurring_units_like_one_that_never_stopped() {
    recurring_units(Algorithm::MoCubing, MoCubingEngine::new);
    recurring_units(Algorithm::PopularPath, |s, l, p| {
        PopularPathEngine::new(s, l, p, None)
    });
}

/// [`a_restored_engine_serves_recurring_units_like_one_that_never_stopped`]
/// with `algorithm`, the engine that never stopped made by `make`.
fn recurring_units<const DRILL: bool>(algorithm: Algorithm, make: Make<PlanEngine<DRILL>>) {
    const UNITS: i64 = 8;
    const CUT: i64 = 3;
    let cfg = || {
        EngineConfig::new(
            CubeSchema::synthetic(2, 2, 3).unwrap(),
            CuboidSpec::new(vec![1, 0]),
            CuboidSpec::new(vec![2, 2]),
        )
        .with_policy(ExceptionPolicy::slope_threshold(0.8))
        .with_tilt(TiltSpec::new(vec![("unit", 4), ("coarse", 3)]).unwrap())
        .with_ticks_per_unit(TPU)
        .with_algorithm(algorithm)
    };
    let unit = |u: i64| -> Vec<RawRecord> {
        let mut records = Vec::new();
        for t in u * TPU as i64..(u + 1) * TPU as i64 {
            for a in 0..9u32 {
                for b in 0..9u32 {
                    let wave = ((a * 7 + b * 3) as i64 + t * 5) % 11;
                    let value = wave as f64 * 0.4 - 2.0 + f64::from(a + b) * 0.05 * t as f64;
                    records.push(RawRecord::new(vec![a, b], t, value));
                }
            }
        }
        records
    };

    let mut reference = cfg().build_with(make).unwrap();
    let (mut want, mut want_text) = (Vec::new(), Vec::new());
    for u in 0..UNITS {
        for r in unit(u) {
            reference.ingest(&r).unwrap();
        }
        want.push(reference.close_unit().unwrap());
        want_text.push(reference.snapshot().canonical_text());
    }
    assert_eq!(
        reference.cubing().units_replayed(),
        UNITS as u64 - 1,
        "{algorithm:?}"
    );

    let (mut got, mut got_text) = (Vec::new(), Vec::new());
    let mut victim = cfg().build().unwrap();
    for u in 0..CUT {
        for r in unit(u) {
            victim.ingest(&r).unwrap();
        }
        got.push(victim.close_unit().unwrap());
        got_text.push(victim.snapshot().canonical_text());
    }
    let bytes = victim.checkpoint_bytes().unwrap();
    let mut revived = restore_bytes(cfg(), &bytes).unwrap();
    assert_eq!(
        revived.snapshot().canonical_text(),
        got_text[CUT as usize - 1]
    );
    for u in CUT..UNITS {
        for r in unit(u) {
            revived.ingest(&r).unwrap();
        }
        got.push(revived.close_unit().unwrap());
        got_text.push(revived.snapshot().canonical_text());
    }
    let what = format!("{algorithm:?}: restored recurring units");
    assert_reports_eq(&want, &got, &what);
    assert!(want.iter().any(|r| !r.alarms.is_empty()), "{what}: alarms");
    for (u, (w, g)) in want_text.iter().zip(&got_text).enumerate() {
        assert_eq!(w, g, "{what}: unit {u}");
    }
}

/// A population whose active quarter rotates unit by unit hands the
/// cubing engine four key sequences in turn. The engine keeps each
/// sequence's roll-up plan on its first round and replays it from the
/// second on. Checkpointed mid-rotation, the restored engine starts
/// with no plans, re-cubes the checkpointed unit cold and works its way
/// back into replaying; unit by unit, it must serve what the engine
/// that never stopped serves, with either algorithm.
#[test]
fn a_restore_mid_rotation_serves_like_one_that_never_stopped() {
    mid_rotation(Algorithm::MoCubing, MoCubingEngine::new);
    mid_rotation(Algorithm::PopularPath, |s, l, p| {
        PopularPathEngine::new(s, l, p, None)
    });
}

/// [`a_restore_mid_rotation_serves_like_one_that_never_stopped`] with
/// `algorithm`, the engine that never stopped made by `make`.
fn mid_rotation<const DRILL: bool>(algorithm: Algorithm, make: Make<PlanEngine<DRILL>>) {
    const QUARTERS: i64 = 4;
    const UNITS: i64 = 4 * QUARTERS;
    const CUT: i64 = QUARTERS + 2;
    let cfg = || {
        EngineConfig::new(
            CubeSchema::synthetic(2, 2, 3).unwrap(),
            CuboidSpec::new(vec![1, 0]),
            CuboidSpec::new(vec![2, 2]),
        )
        .with_policy(ExceptionPolicy::slope_threshold(0.8))
        .with_tilt(TiltSpec::new(vec![("unit", 4), ("coarse", 3)]).unwrap())
        .with_ticks_per_unit(TPU)
        .with_algorithm(algorithm)
    };
    let cells: Vec<[u32; 2]> = (0..8u32)
        .flat_map(|a| (0..8u32).map(move |b| [a, b]))
        .collect();
    let unit = |u: i64| -> Vec<RawRecord> {
        let quarter = cells.len() / QUARTERS as usize;
        let active = &cells[u.rem_euclid(QUARTERS) as usize * quarter..][..quarter];
        let mut records = Vec::new();
        for t in u * TPU as i64..(u + 1) * TPU as i64 {
            for &[a, b] in active {
                let wave = ((a * 7 + b * 3) as i64 + t * 5) % 11;
                let value = wave as f64 * 0.4 - 2.0 + f64::from(a + b) * 0.05 * t as f64;
                records.push(RawRecord::new(vec![a, b], t, value));
            }
        }
        records
    };

    let mut reference = cfg().build_with(make).unwrap();
    let (mut want, mut want_text) = (Vec::new(), Vec::new());
    for u in 0..UNITS {
        for r in unit(u) {
            reference.ingest(&r).unwrap();
        }
        want.push(reference.close_unit().unwrap());
        want_text.push(reference.snapshot().canonical_text());
        if u < QUARTERS {
            let replayed = reference.cubing().units_replayed();
            assert_eq!(replayed, 0, "{algorithm:?}: unit {u}");
        }
    }
    assert_eq!(
        reference.cubing().units_replayed(),
        (UNITS - QUARTERS) as u64,
        "{algorithm:?}"
    );

    let (mut got, mut got_text) = (Vec::new(), Vec::new());
    let mut victim = cfg().build().unwrap();
    for u in 0..CUT {
        for r in unit(u) {
            victim.ingest(&r).unwrap();
        }
        got.push(victim.close_unit().unwrap());
        got_text.push(victim.snapshot().canonical_text());
    }
    let bytes = victim.checkpoint_bytes().unwrap();
    let mut revived = restore_bytes(cfg(), &bytes).unwrap();
    assert_eq!(
        revived.snapshot().canonical_text(),
        got_text[CUT as usize - 1]
    );
    for u in CUT..UNITS {
        for r in unit(u) {
            revived.ingest(&r).unwrap();
        }
        got.push(revived.close_unit().unwrap());
        got_text.push(revived.snapshot().canonical_text());
    }
    let what = format!("{algorithm:?}: restored mid-rotation");
    assert_reports_eq(&want, &got, &what);
    assert!(want.iter().any(|r| !r.alarms.is_empty()), "{what}: alarms");
    for (u, (w, g)) in want_text.iter().zip(&got_text).enumerate() {
        assert_eq!(w, g, "{what}: unit {u}");
    }
}

/// The checkpoint captures in-flight lateness state: records buffered
/// in the reorder window and a pending amendment survive the restart
/// and surface in the post-restore closes exactly as they would have.
#[test]
fn reorder_buffer_and_amendments_survive_restart() {
    let mut e = config().build().unwrap();
    // Two closed units of history from source 0.
    for t in 0..(2 * TPU) as i64 {
        e.ingest(&RawRecord::new(vec![0, 0], t, 1.0)).unwrap();
        e.drain_ready().unwrap();
    }
    // Advance the watermark so both units close. The advance must come
    // from source 0 — it holds the minimum mark, so a different source
    // advancing would (correctly) keep the low watermark pinned.
    e.ingest(&RawRecord::new(vec![0, 0], (4 * TPU) as i64, 1.0))
        .unwrap();
    let closed: Vec<i64> = e.drain_ready().unwrap().iter().map(|r| r.unit).collect();
    assert_eq!(closed, vec![0, 1]);
    // A straggler amending closed unit 1, plus a buffered future record:
    // both live only in engine state now.
    e.ingest(&RawRecord::new(vec![0, 0], TPU as i64 + 1, 0.5))
        .unwrap();
    assert!(e.buffered_records() > 0);

    let bytes = e.checkpoint_bytes().unwrap();
    let mut a = e; // uninterrupted
    let mut b = restore_bytes(config(), &bytes).unwrap();
    assert_eq!(a.buffered_records(), b.buffered_records());

    let tail: Vec<RawRecord> = (0..TPU as i64)
        .map(|t| RawRecord::new(vec![1, 1], (5 * TPU) as i64 + t, 3.0).with_source(1))
        .collect();
    let mut ra = drive(&mut a, &tail);
    ra.extend(a.flush().unwrap());
    let mut rb = drive(&mut b, &tail);
    rb.extend(b.flush().unwrap());

    assert_reports_eq(&ra, &rb, "post-restore lateness replay");
    assert!(
        ra.iter().any(|r| !r.late_amendments.is_empty()),
        "the straggler must surface as an amendment"
    );
    assert_eq!(a.late_amended(), b.late_amended());
    assert_eq!(a.snapshot().canonical_text(), b.snapshot().canonical_text());
}

/// Restored frames answer time-travel drills identically, including
/// the ISB measures warehoused before the restart.
#[test]
fn restored_frames_answer_drills_identically() {
    let mut e = config().build().unwrap();
    let mut tick = 0i64;
    for unit in 0..6i64 {
        for _ in 0..TPU {
            let v = (unit as f64) * 1.5 - (tick % 3) as f64;
            e.ingest(&RawRecord::new(vec![0, 0], tick, v)).unwrap();
            e.ingest(&RawRecord::new(vec![1, 1], tick, -v).with_source(1))
                .unwrap();
            tick += 1;
        }
        e.drain_ready().unwrap();
    }
    let bytes = e.checkpoint_bytes().unwrap();
    let revived = restore_bytes(config(), &bytes).unwrap();

    for key in [vec![0u32, 0], vec![1, 1]] {
        let key = regcube_olap::cell::CellKey::new(key);
        let (fa, fb) = (e.tilt_frame(&key), revived.tilt_frame(&key));
        match (fa, fb) {
            (Some(fa), Some(fb)) => {
                assert_eq!(fa.timeline(), fb.timeline(), "cell {key}");
                assert!(!fa.timeline().is_empty());
            }
            (None, None) => {}
            _ => panic!("frame presence mismatch for {key}"),
        }
    }
}

/// XXH64 with seed 0, the checksum of the version-2 envelope the
/// writer stamps.
fn xxh64(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    const P3: u64 = 0x1656_67b1_9e37_79f9;
    const P4: u64 = 0x85eb_ca77_c2b2_ae63;
    const P5: u64 = 0x27d4_eb2f_1656_67c5;
    let round = |acc: u64, word: u64| {
        acc.wrapping_add(word.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    };
    let word = |b: &[u8]| u64::from_le_bytes(b[..8].try_into().unwrap());
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in &mut stripes {
            for (i, lane) in v.iter_mut().enumerate() {
                *lane = round(*lane, word(&stripe[8 * i..]));
            }
        }
        let mut h = v
            .iter()
            .zip([1, 7, 12, 18])
            .fold(0u64, |h, (lane, r)| h.wrapping_add(lane.rotate_left(r)));
        for lane in v {
            h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
        h
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = (h ^ round(0, word(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let half = u64::from(u32::from_le_bytes(tail[..4].try_into().unwrap()));
        h = (h ^ half.wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h = (h ^ (h >> 33)).wrapping_mul(P2);
    h = (h ^ (h >> 29)).wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Byte offset, in a checkpoint file, of the first m-frame's
/// `next_unit` field (its `expired_units` follows) — found by walking
/// the payload layout, unchanged since version 1.
fn first_frame_offset(file: &[u8]) -> usize {
    let u64_at = |pos: usize| u64::from_le_bytes(file[pos..pos + 8].try_into().unwrap()) as usize;
    let ids_len = |pos: usize| 8 + 4 * u64_at(pos);
    let mut pos = 16; // magic, version, payload length
    pos += 8 + u64_at(pos); // fingerprint
    pos += 1 + 8; // computed flag, units_closed
    pos += if file[pos] == 1 { 9 } else { 1 }; // last_closed_unit
    pos += 8; // open_unit
    let tuples = u64_at(pos);
    pos += 8;
    for _ in 0..tuples {
        pos += ids_len(pos) + 32; // key, ISB
    }
    assert!(u64_at(pos) > 0, "the checkpoint holds m-frames");
    pos += 8;
    pos + ids_len(pos) // past the first frame's key
}

/// Byte length of the m-frame record (key and frame) starting at `pos`.
fn frame_record_len(file: &[u8], pos: usize) -> usize {
    let u64_at = |pos: usize| u64::from_le_bytes(file[pos..pos + 8].try_into().unwrap()) as usize;
    let mut end = pos + 8 + 4 * u64_at(pos); // key
    end += 16; // next_unit, expired_units
    let levels = u64_at(end);
    end += 8;
    for _ in 0..levels {
        end += 8 + u64_at(end) * 40; // slot count, (unit, ISB) slots
    }
    end - pos
}

/// Rewrites the envelope of a spliced file: the payload length and the
/// version-2 checksum, so that only the decoder can object.
fn reseal(mut file: Vec<u8>) -> Vec<u8> {
    let payload_end = file.len() - 8;
    file[8..16].copy_from_slice(&((payload_end - 16) as u64).to_le_bytes());
    let sum = xxh64(&file[16..payload_end]);
    file[payload_end..].copy_from_slice(&sum.to_le_bytes());
    file
}

/// One cell, `units` closed units: a checkpoint whose first (and only)
/// m-frame record is easy to find and to splice.
fn one_cell_checkpoint(units: i64) -> (OnlineEngine, Vec<u8>) {
    let mut e = config().build().unwrap();
    for tick in 0..units * TPU as i64 {
        e.ingest(&RawRecord::new(vec![0, 0], tick, 1.0 + tick as f64))
            .unwrap();
    }
    while e.units_closed() < units as u64 {
        e.close_unit().unwrap();
    }
    let bytes = e.checkpoint_bytes().unwrap();
    (e, bytes)
}

/// Every frame of a layer sits on the engine's clock. A frame captured
/// exactly one unit earlier is self-consistent — what a frame of its
/// own clock holds — and an engine that checked each frame only against
/// its own clock restored it: the frame then took every later unit
/// under the wrong number, or refused it.
#[test]
fn reencoded_checkpoint_with_a_frame_one_unit_behind_is_a_typed_error() {
    let (_, behind) = one_cell_checkpoint(5);
    let (_, bytes) = one_cell_checkpoint(6);
    assert!(restore_bytes(config(), &bytes).is_ok());

    // Splice the five-unit capture of the cell over its six-unit one.
    let at = first_frame_offset(&bytes) - 16; // back over the key
    let from = first_frame_offset(&behind) - 16;
    let mut forged = bytes[..at].to_vec();
    forged.extend_from_slice(&behind[from..from + frame_record_len(&behind, from)]);
    forged.extend_from_slice(&bytes[at + frame_record_len(&bytes, at)..]);
    let err = expect_checkpoint_err(restore_bytes(config(), &reseal(forged)));
    let text = err.to_string();
    assert!(text.contains("invalid tilt frame"), "{text}");
    assert!(
        text.contains("[0, 0] has ingested 5 units, the engine closed 6"),
        "{text}"
    );
}

/// A key listed twice used to overwrite the earlier frame silently.
#[test]
fn reencoded_checkpoint_with_a_key_listed_twice_is_a_typed_error() {
    let (_, bytes) = one_cell_checkpoint(6);
    let at = first_frame_offset(&bytes) - 16;
    let record = bytes[at..at + frame_record_len(&bytes, at)].to_vec();
    let mut forged = bytes[..at].to_vec();
    forged.extend_from_slice(&record);
    forged.extend_from_slice(&bytes[at..]);
    // The m-frame count sits right ahead of the first record.
    let count = u64::from_le_bytes(forged[at - 8..at].try_into().unwrap());
    forged[at - 8..at].copy_from_slice(&(count + 1).to_le_bytes());
    let err = expect_checkpoint_err(restore_bytes(config(), &reseal(forged)));
    let text = err.to_string();
    assert!(text.contains("invalid tilt frame"), "{text}");
    assert!(text.contains("[0, 0]") && text.contains("twice"), "{text}");
}

/// The open unit is the number of units closed, and the last closed
/// unit the one before it: a file that resumes anywhere else would push
/// its next unit under the wrong number, and one that names another
/// last unit would be served under it.
#[test]
fn reencoded_checkpoint_resuming_at_another_unit_is_a_typed_error() {
    let (_, bytes) = one_cell_checkpoint(6);
    let fingerprint = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    // computed flag, units_closed, last_closed_unit (present), open_unit
    let last_closed = 24 + fingerprint + 1 + 8;
    let open_unit = last_closed + 9;
    assert_eq!(bytes[last_closed], 1);
    assert_eq!(bytes[last_closed + 1..open_unit], 5i64.to_le_bytes());
    assert_eq!(bytes[open_unit..open_unit + 8], 6i64.to_le_bytes());
    let splice = |at: usize, len: usize, with: &[u8]| {
        let mut forged = bytes[..at].to_vec();
        forged.extend_from_slice(with);
        forged.extend_from_slice(&bytes[at + len..]);
        reseal(forged)
    };
    let mut last_99 = vec![1];
    last_99.extend_from_slice(&99i64.to_le_bytes());
    for (forged, want) in [
        (
            splice(open_unit, 8, &5i64.to_le_bytes()),
            "closed 6 units but resumes at unit 5",
        ),
        (
            splice(last_closed, 9, &last_99),
            "closed 6 units but names Some(99) as the last one",
        ),
        (
            splice(last_closed, 9, &[0]),
            "closed 6 units but names None as the last one",
        ),
    ] {
        let err = expect_checkpoint_err(restore_bytes(config(), &forged));
        assert!(err.to_string().contains(want), "{err}");
    }
}

/// The writer saves the last window's m-tuples exactly when the engine
/// has a cube. A file whose computed flag was cleared over saved tuples
/// used to restore without its cube, and re-encode to other bytes; the
/// flag set over no tuples is refused the same way.
#[test]
fn reencoded_checkpoint_whose_computed_flag_disagrees_with_its_m_tuples_is_a_typed_error() {
    for (units, flag, tuples) in [(6, 0, 1), (0, 1, 0)] {
        let (_, bytes) = one_cell_checkpoint(units);
        let fingerprint = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        let computed = 24 + fingerprint;
        assert_eq!(bytes[computed], 1 - flag);
        let mut forged = bytes.clone();
        forged[computed] = flag;
        let err = expect_checkpoint_err(restore_bytes(config(), &reseal(forged)));
        let want = format!("computed flag {flag} disagrees with {tuples} saved m-tuples");
        assert!(err.to_string().contains(&want), "{err}");
    }
}

/// The saved m-tuples are re-cubed through the configured engine. A
/// tuple the engine refuses is a checkpoint error like every other bad
/// field, not the cubing layer's own error.
#[test]
fn reencoded_checkpoint_with_an_out_of_range_m_tuple_is_a_typed_error() {
    let (_, bytes) = one_cell_checkpoint(6);
    let fingerprint = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    // computed flag, units_closed, last_closed_unit (present), open_unit,
    // then the m-tuple count and the first tuple's id count.
    let tuples = 24 + fingerprint + 1 + 8 + 9 + 8;
    assert_eq!(bytes[tuples..tuples + 8], 1u64.to_le_bytes());
    assert_eq!(bytes[tuples + 8..tuples + 16], 2u64.to_le_bytes());
    let first_id = tuples + 16;
    assert_eq!(bytes[first_id..first_id + 4], 0u32.to_le_bytes());
    let mut forged = bytes.clone();
    forged[first_id..first_id + 4].copy_from_slice(&9u32.to_le_bytes());
    let err = expect_checkpoint_err(restore_bytes(config(), &reseal(forged)));
    let text = err.to_string();
    assert!(text.contains("saved m-tuples"), "{text}");
    assert!(text.contains("id 9 out of range"), "{text}");
}

/// A count is bounded by the elements the rest of the payload can hold,
/// each at its smallest encoding. An m-tuple takes 40 bytes or more (an
/// id count and an ISB), so a sealed file whose m-tuple count is one
/// more than the rest of the payload holds is refused at that count,
/// before anything is reserved for it.
#[test]
fn a_count_beyond_what_the_payload_holds_is_refused_at_the_count() {
    let (_, bytes) = one_cell_checkpoint(6);
    let fingerprint = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    // computed flag, units_closed, last_closed_unit (present), open_unit
    let count = 24 + fingerprint + 1 + 8 + 9 + 8;
    assert_eq!(bytes[count..count + 8], 1u64.to_le_bytes());
    let remaining = bytes.len() - 8 - (count + 8); // up to the checksum
    let forged_count = remaining / 40 + 1;
    let mut forged = bytes.clone();
    forged[count..count + 8].copy_from_slice(&(forged_count as u64).to_le_bytes());
    let err = expect_checkpoint_err(restore_bytes(config(), &reseal(forged)));
    let text = err.to_string();
    let want = format!("implausible count {forged_count} decoding m-tuple count");
    assert!(text.contains(&want), "{text}");
}

/// The fingerprint is the payload's first field and is checked as soon
/// as it is read: a checkpoint of another analysis is refused as such,
/// whatever follows it.
#[test]
fn a_foreign_fingerprint_is_refused_before_the_rest_is_read() {
    let foreign = "a differently-configured engine";
    let mut file = b"RGCK".to_vec();
    file.extend_from_slice(&2u32.to_le_bytes());
    file.extend_from_slice(&0u64.to_le_bytes()); // payload length
    file.extend_from_slice(&(foreign.len() as u64).to_le_bytes());
    file.extend_from_slice(foreign.as_bytes());
    // A computed flag, then three bytes where units_closed needs eight.
    file.extend_from_slice(&[1, 0xde, 0xad, 0xbe]);
    file.extend_from_slice(&0u64.to_le_bytes()); // checksum
    let err = expect_checkpoint_err(restore_bytes(config(), &reseal(file)));
    assert!(err.to_string().contains("configuration mismatch"), "{err}");
}

/// A checkpoint whose bytes are intact (valid checksum) but whose first
/// tilt frame has a shape no sequence of pushes produces must be a
/// typed error. The parent commit restored such a file into an engine
/// whose next promotion merged the wrong run of slots.
#[test]
fn reencoded_checkpoint_with_an_impossible_frame_is_a_typed_error() {
    let mut e = config().build().unwrap();
    let mut tick = 0i64;
    for _unit in 0..6 {
        for _ in 0..TPU {
            e.ingest(&RawRecord::new(vec![0, 0], tick, 1.0 + tick as f64))
                .unwrap();
            tick += 1;
        }
        e.drain_ready().unwrap();
    }
    let bytes = e.checkpoint_bytes().unwrap();
    assert!(restore_bytes(config(), &bytes).is_ok());
    let frame = first_frame_offset(&bytes);

    // (field offset within the frame header, replacement value):
    // a clock one unit ahead of the slots, and an expiry that never
    // happened.
    let next_unit = u64::from_le_bytes(bytes[frame..frame + 8].try_into().unwrap());
    for (field, value) in [(0, next_unit + 1), (8, 7u64)] {
        let mut forged = bytes.clone();
        forged[frame + field..frame + field + 8].copy_from_slice(&value.to_le_bytes());
        let err = expect_checkpoint_err(restore_bytes(config(), &reseal(forged)));
        assert!(err.to_string().contains("invalid tilt frame"), "{err}");
    }
}

/// The buffer holds packed records, so a restore packs the buffered
/// records the file lists: one whose ids are out of the schema's range
/// is a typed error at restore. The parent commit restored it, and the
/// unit's close failed on it later.
#[test]
fn reencoded_checkpoint_with_an_unpackable_buffered_record_is_a_typed_error() {
    let mut e = config().build().unwrap();
    e.ingest(&RawRecord::new(vec![3, 2], 13, 0.25)).unwrap();
    assert_eq!(e.buffered_records(), 1);
    let bytes = e.checkpoint_bytes().unwrap();
    assert_eq!(
        restore_bytes(config(), &bytes).unwrap().buffered_records(),
        1
    );

    // The record as the file lists it: ids (count, members), tick.
    let mut listed = 2u64.to_le_bytes().to_vec();
    for id in [3u32, 2] {
        listed.extend_from_slice(&id.to_le_bytes());
    }
    listed.extend_from_slice(&13i64.to_le_bytes());
    let at = bytes
        .windows(listed.len())
        .position(|w| w == listed)
        .expect("the buffered record is in the file");
    let mut forged = bytes.clone();
    forged[at + 8..at + 12].copy_from_slice(&9u32.to_le_bytes());
    let err = expect_checkpoint_err(restore_bytes(config(), &reseal(forged)));
    let text = err.to_string();
    assert!(text.contains("buffered record of unit 3"), "{text}");
    assert!(text.contains("member 9 out of range"), "{text}");
}

/// A buffered record sits in the bucket of its own unit, a unit the
/// engine has yet to close, and a unit has one bucket. The close folds
/// a bucket without looking again, so a restore checks all three. The
/// parent commit restored a record moved out of its unit, and the
/// unit's close then failed on it and lost it.
#[test]
fn reencoded_checkpoint_with_a_misplaced_buffered_record_is_a_typed_error() {
    let mut e = config().build().unwrap();
    e.close_unit().unwrap();
    e.close_unit().unwrap();
    e.ingest(&RawRecord::new(vec![3, 2], 13, 0.25)).unwrap();
    assert_eq!((e.open_unit(), e.buffered_records()), (2, 1));
    let bytes = e.checkpoint_bytes().unwrap();
    let mut restored = restore_bytes(config(), &bytes).unwrap();
    assert_eq!(restored.buffered_records(), 1);
    assert_eq!(restored.flush().unwrap().len(), 2);

    // The bucket as the file lists it: unit, record count, then the
    // record (ids, tick, value, source).
    let mut listed = 3i64.to_le_bytes().to_vec();
    listed.extend_from_slice(&1u64.to_le_bytes());
    listed.extend_from_slice(&2u64.to_le_bytes());
    for id in [3u32, 2] {
        listed.extend_from_slice(&id.to_le_bytes());
    }
    listed.extend_from_slice(&13i64.to_le_bytes());
    let at = bytes
        .windows(listed.len())
        .position(|w| w == listed)
        .expect("the bucket is in the file");
    let tick = at + listed.len() - 8;
    let bucket = &bytes[at..tick + 8 + 8 + 4];
    let forged_err = |forged: Vec<u8>| {
        let err = expect_checkpoint_err(restore_bytes(config(), &reseal(forged)));
        let text = err.to_string();
        assert!(text.contains("invalid reorder buffer"), "{text}");
        text
    };

    // Tick 9 is the open unit's, not its bucket's.
    let mut forged = bytes.clone();
    forged[tick..tick + 8].copy_from_slice(&9i64.to_le_bytes());
    let text = forged_err(forged);
    assert!(text.contains("a record of unit 3 has tick 9"), "{text}");

    // Unit 1 closed before the checkpoint was taken.
    let mut forged = bytes.clone();
    forged[at..at + 8].copy_from_slice(&1i64.to_le_bytes());
    forged[tick..tick + 8].copy_from_slice(&5i64.to_le_bytes());
    let text = forged_err(forged);
    assert!(
        text.contains("unit 1 is buffered but the engine resumes at unit 2"),
        "{text}"
    );

    // The bucket listed twice; the bucket count sits right ahead of it.
    let mut forged = bytes[..at + bucket.len()].to_vec();
    forged.extend_from_slice(bucket);
    forged.extend_from_slice(&bytes[at + bucket.len()..]);
    let count = u64::from_le_bytes(forged[at - 8..at].try_into().unwrap());
    assert_eq!(count, 1);
    forged[at - 8..at].copy_from_slice(&2u64.to_le_bytes());
    let text = forged_err(forged);
    assert!(text.contains("unit 3 is buffered twice"), "{text}");
}
