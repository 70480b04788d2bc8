//! Bit-identity witness for the packed record path.
//!
//! Records enter an engine packed (`RecordPacker`), wait in the reorder
//! buffer as `PackedRecord`s sorted by `(tick, key, value bits)`, and
//! fold into the ingestor's per-unit slab. None of that may move a bit
//! of any fitted measure. The schema here puts the primitive layer one
//! level below the m-layer on both dimensions, so several primitive
//! cells fold into one m-cell per tick and the order of the additions
//! shows; the streams repeat `(ids, tick)` pairs, carry `±0.0`, and mix
//! magnitudes whose sums do not associate.
//!
//! Two references:
//! * the same multiset fed in sorted order — to a reordering engine and
//!   to a strictly ordered one — must give the same reports, snapshot
//!   text and checkpoint bytes;
//! * every unit's m-cells must hold the ISBs of a fold in the canonical
//!   order as the record-at-a-time implementation wrote it: sort by
//!   `(tick, &ids, value bits)`, project each record, add into a
//!   per-tick series that starts at `0.0`, fit.

use proptest::prelude::*;
use regcube_core::table::DenseCellCodec;
use regcube_core::ExceptionPolicy;
use regcube_olap::cell::{project_key, CellKey};
use regcube_olap::{CubeSchema, CuboidSpec, Dimension, Hierarchy};
use regcube_regress::{Isb, TimeSeries};
use regcube_stream::{EngineConfig, OnlineEngine, RawRecord, UnitReport};
use regcube_tilt::TiltSpec;
use std::collections::BTreeMap;

const TPU: i64 = 4;
const UNITS: i64 = 6;
const PRIMITIVE: [u8; 2] = [2, 2];
const M_LAYER: [u8; 2] = [1, 1];

/// SplitMix64: a seeded, dependency-free stream of test inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn schema() -> CubeSchema {
    CubeSchema::synthetic(2, 2, 3).unwrap()
}

fn config(reordering: bool) -> EngineConfig {
    let config = EngineConfig::new(
        schema(),
        CuboidSpec::new(vec![0, 0]),
        CuboidSpec::new(M_LAYER.to_vec()),
    )
    .with_primitive(CuboidSpec::new(PRIMITIVE.to_vec()))
    .with_policy(ExceptionPolicy::slope_threshold(0.5))
    .with_tilt(TiltSpec::new(vec![("unit", 16), ("coarse", 2)]).unwrap())
    .with_ticks_per_unit(TPU as usize);
    if reordering {
        config.with_reordering(8, 1)
    } else {
        config
    }
}

/// One stream: per unit, a mix of ordinary values, signed zeros and
/// `1e16, 1, -1e16` triples that sum to `0` or `1` depending on order —
/// often on one `(ids, tick)` pair, so only the value bits order them.
fn stream(seed: u64) -> Vec<RawRecord> {
    let mut rng = Rng(seed);
    let mut records = Vec::new();
    for unit in 0..UNITS {
        for _ in 0..40 {
            let ids = vec![rng.below(9) as u32, rng.below(9) as u32];
            let tick = unit * TPU + rng.below(TPU as u64) as i64;
            match rng.below(6) {
                0 => {
                    for value in [1e16, 1.0, -1e16] {
                        records.push(RawRecord::new(ids.clone(), tick, value));
                    }
                }
                1 => {
                    // The same triple spread over sibling cells of one
                    // m-cell: the primitive ids order it.
                    for (k, value) in [1e16, 1.0, -1e16].into_iter().enumerate() {
                        let sibling = vec![ids[0] / 3 * 3 + k as u32, ids[1]];
                        records.push(RawRecord::new(sibling, tick, value));
                    }
                }
                2 => {
                    records.push(RawRecord::new(ids.clone(), tick, 0.0));
                    records.push(RawRecord::new(ids, tick, -0.0));
                }
                3 => {
                    let value = (rng.below(2001) as f64 - 1000.0) / 7.0;
                    records.push(RawRecord::new(ids.clone(), tick, value));
                    records.push(RawRecord::new(ids, tick, value));
                }
                _ => {
                    let value = (rng.below(2001) as f64 - 1000.0) * 0.1;
                    records.push(RawRecord::new(ids, tick, value));
                }
            }
        }
    }
    records
}

/// The canonical order, as the record-at-a-time reorder buffer wrote it.
fn parent_order(records: &mut [RawRecord]) {
    records.sort_by(|a, b| {
        (a.tick, &a.ids, a.value.to_bits()).cmp(&(b.tick, &b.ids, b.value.to_bits()))
    });
}

/// Moves every record by up to `horizon` places.
fn shuffle_within(records: &[RawRecord], horizon: usize, seed: u64) -> Vec<RawRecord> {
    let mut rng = Rng(seed ^ 0x5eed);
    let mut keyed: Vec<(u64, &RawRecord)> = records
        .iter()
        .enumerate()
        .map(|(i, r)| (i as u64 + rng.below(horizon as u64), r))
        .collect();
    keyed.sort_by_key(|&(k, _)| k);
    keyed.into_iter().map(|(_, r)| r.clone()).collect()
}

/// Feeds `records`, closing units as the watermark seals them (or, with
/// reordering off, when a record for a later unit arrives), then
/// flushes.
fn drive(engine: &mut OnlineEngine, records: &[RawRecord]) -> Vec<UnitReport> {
    let mut reports = Vec::new();
    let reordering = engine.reordering().is_some();
    for r in records {
        if !reordering {
            while engine.open_unit() < r.tick.div_euclid(TPU) {
                reports.push(engine.close_unit().unwrap());
            }
        }
        engine.ingest(r).unwrap();
        reports.extend(engine.drain_ready().unwrap());
    }
    reports.extend(engine.flush().unwrap());
    reports
}

fn isb_bits(isb: &Isb) -> (i64, i64, u64, u64) {
    (
        isb.start(),
        isb.end(),
        isb.base().to_bits(),
        isb.slope().to_bits(),
    )
}

/// Everything a report says about the data, with floats as bits.
fn report_bits(report: &UnitReport) -> String {
    let alarms: Vec<_> = report
        .alarms
        .iter()
        .map(|a| {
            (
                a.key.clone(),
                isb_bits(&a.measure),
                a.score.to_bits(),
                a.threshold.to_bits(),
            )
        })
        .collect();
    let delta = report.cube_delta.as_ref().map(|d| {
        (
            d.unit,
            d.window,
            d.tuples,
            d.cells_touched,
            d.appeared.clone(),
            d.cleared.clone(),
        )
    });
    format!(
        "unit {} m_cells {} exceptions {} alarms {alarms:?} delta {delta:?} amended {} dropped {} \
         revisions {} epoch {}",
        report.unit,
        report.m_cells,
        report.exception_cells,
        report.late_amendments.len(),
        report.late_dropped,
        report.alarm_revisions.len(),
        report.snapshot_epoch,
    )
}

/// Per unit and m-cell, the ISB of the canonical fold.
fn reference_fold(records: &[RawRecord]) -> BTreeMap<(i64, CellKey), Isb> {
    let schema = schema();
    let (primitive, m_layer) = (
        CuboidSpec::new(PRIMITIVE.to_vec()),
        CuboidSpec::new(M_LAYER.to_vec()),
    );
    let mut sorted = records.to_vec();
    parent_order(&mut sorted);
    let mut sums: BTreeMap<(i64, CellKey), Vec<f64>> = BTreeMap::new();
    for r in &sorted {
        let unit = r.tick.div_euclid(TPU);
        let key = CellKey::new(project_key(&schema, &primitive, &r.ids, &m_layer));
        let series = sums
            .entry((unit, key))
            .or_insert_with(|| vec![0.0; TPU as usize]);
        series[(r.tick - unit * TPU) as usize] += r.value;
    }
    sums.into_iter()
        .map(|((unit, key), values)| {
            let isb = Isb::fit(&TimeSeries::new(unit * TPU, values).unwrap()).unwrap();
            ((unit, key), isb)
        })
        .collect()
}

#[test]
fn packed_ingestion_is_bit_identical_to_sorted_replay_and_the_canonical_fold() {
    for seed in 0..24u64 {
        let records = stream(seed);
        let mut sorted = records.clone();
        parent_order(&mut sorted);
        let shuffled = shuffle_within(&records, 24, seed);

        let mut live = config(true).build().unwrap();
        let mut replay = config(true).build().unwrap();
        let mut strict = config(false).build().unwrap();
        let live_reports = drive(&mut live, &shuffled);
        let replay_reports = drive(&mut replay, &sorted);
        let strict_reports = drive(&mut strict, &sorted);

        assert_eq!(live_reports.len(), UNITS as usize, "seed {seed}");
        for (i, report) in live_reports.iter().enumerate() {
            let bits = report_bits(report);
            assert!(
                report.late_amendments.is_empty() && report.late_dropped == 0,
                "seed {seed}: the shuffle must stay inside the buffer's reach"
            );
            assert_eq!(
                bits,
                report_bits(&replay_reports[i]),
                "seed {seed} report {i}"
            );
            assert_eq!(
                bits,
                report_bits(&strict_reports[i]),
                "seed {seed} report {i}"
            );
        }
        let text = live.snapshot().canonical_text();
        assert_eq!(text, replay.snapshot().canonical_text(), "seed {seed}");
        assert_eq!(text, strict.snapshot().canonical_text(), "seed {seed}");
        assert_eq!(
            live.checkpoint_bytes().unwrap(),
            replay.checkpoint_bytes().unwrap(),
            "seed {seed}"
        );

        // Every unit of every m-cell holds the canonical fold's ISB; a
        // cell silent in a unit holds the zero fill.
        let reference = reference_fold(&records);
        let m_cells: Vec<CellKey> = (0..3u32)
            .flat_map(|a| (0..3u32).map(move |b| CellKey::new(vec![a, b])))
            .collect();
        for key in &m_cells {
            let frame = live.tilt_frame(key);
            for unit in 0..UNITS {
                let zero = Isb::new(unit * TPU, unit * TPU + TPU - 1, 0.0, 0.0).unwrap();
                let expected = reference.get(&(unit, key.clone())).copied().unwrap_or(zero);
                let Some(frame) = frame.as_ref() else {
                    assert!(
                        expected.base() == 0.0 && expected.slope() == 0.0,
                        "seed {seed}: {key} has no frame but unit {unit} is {expected:?}"
                    );
                    continue;
                };
                let slot = frame
                    .slots(0)
                    .unwrap()
                    .iter()
                    .find(|s| s.unit == unit as u64);
                let held = slot
                    .map(|s| s.measure)
                    .expect("all units on the finest level");
                assert_eq!(
                    isb_bits(&held),
                    isb_bits(&expected),
                    "seed {seed}: {key} unit {unit}"
                );
            }
        }
    }
}

/// A random hierarchy of `depth` levels: balanced, or ragged with every
/// member's parent drawn at random (so a coarser level may have more
/// members than a finer one).
fn hierarchy(rng: &mut Rng, depth: u8) -> Hierarchy {
    if rng.below(2) == 0 {
        return Hierarchy::balanced(depth, 1 + rng.below(4) as u32).unwrap();
    }
    let mut parents: Vec<Vec<u32>> = Vec::new();
    let mut above = 1u64;
    for _ in 0..depth {
        let members = 1 + rng.below(12);
        parents.push((0..members).map(|_| rng.below(above) as u32).collect());
        above = members;
    }
    Hierarchy::from_parents(parents).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Packed keys order as their ids do, on any cuboid of any schema:
    /// what lets the reorder buffer and the ingestor sort integers.
    #[test]
    fn packed_key_order_is_lexicographic_id_order(seed in 0u64..1_000_000_000) {
        let mut rng = Rng(seed);
        let dims: Vec<Dimension> = (0..1 + rng.below(4))
            .map(|d| {
                let depth = 1 + rng.below(3) as u8;
                Dimension::new(format!("d{d}"), hierarchy(&mut rng, depth))
            })
            .collect();
        let schema = CubeSchema::new(dims).unwrap();
        let levels: Vec<u8> = schema
            .dims()
            .iter()
            .map(|d| rng.below(u64::from(d.hierarchy().depth()) + 1) as u8)
            .collect();
        let cuboid = CuboidSpec::new(levels);
        let codec = DenseCellCodec::new(&schema, &cuboid).unwrap();
        let draw = |rng: &mut Rng| -> Vec<u32> {
            codec.radices().iter().map(|&r| rng.below(u64::from(r)) as u32).collect()
        };
        for _ in 0..64 {
            let (a, b) = (draw(&mut rng), draw(&mut rng));
            prop_assert_eq!(codec.encode(&a).cmp(&codec.encode(&b)), a.cmp(&b));
            let mut back = vec![0; a.len()];
            codec.decode_into(codec.encode(&a), &mut back);
            prop_assert_eq!(back, a);
        }
    }
}
