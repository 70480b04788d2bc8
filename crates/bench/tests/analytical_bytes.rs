//! The analytical table-byte estimates against the counting allocator.
//! The allocator's counters are process-global, so this is a test binary
//! of its own, and its tests take turns on one lock: inside the
//! library's test binary, or side by side, other tests' allocations land
//! in the measured window and swing the reading by more than the table
//! weighs.

use regcube_bench::memtrack::live_bytes;
use regcube_core::table::{table_bytes, CuboidTable, TableStorage};
use regcube_core::ColumnarTable;
use regcube_olap::cell::CellKey;
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_regress::Isb;
use std::sync::Mutex;

/// Rows per table.
const N: u32 = 50_000;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// The estimate must stay within a 2x band of the real allocator's
/// live-byte delta.
fn assert_within_2x(label: &str, estimate: usize, measured: usize) {
    let ratio = estimate as f64 / measured.max(1) as f64;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "{label}: analytical {estimate} vs measured {measured} (ratio {ratio:.2})"
    );
}

#[test]
fn analytical_table_bytes_tracks_the_allocator() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let isb = Isb::new(0, 9, 1.0, 0.5).unwrap();

    // Three ids live in the key's slot; six spill to one boxed slice per
    // key, which the estimate has to count.
    for dims in [3, 6] {
        let before = live_bytes();
        let mut row = CuboidTable::default();
        for v in 0..N {
            let ids = [v, v % 97, v % 53, v % 31, v % 17, v % 7];
            row.insert(CellKey::new(&ids[..dims]), isb);
        }
        let measured = live_bytes().saturating_sub(before);
        assert_eq!(row.len(), N as usize, "row, {dims} dims");
        assert_within_2x(
            &format!("row, {dims} dims"),
            table_bytes(&row, dims),
            measured,
        );
    }
}

#[test]
fn columnar_approx_bytes_tracks_the_allocator() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // 256 x 256 cells at the leaf level, so N distinct ids fit.
    let schema = CubeSchema::synthetic(2, 2, 16).unwrap();
    let leaves = CuboidSpec::new(vec![2, 2]);
    let isb = Isb::new(0, 9, 1.0, 0.5).unwrap();
    // Row i merges id i * stride mod N: ascending order at stride 1, a
    // shuffle of it at stride 7919 (coprime to N).
    for (label, stride) in [("columnar, ascending", 1), ("columnar, shuffled", 7919)] {
        let before = live_bytes();
        let mut table = ColumnarTable::new(&schema, &leaves).unwrap();
        for i in 0..N {
            let v = (u64::from(i) * stride % u64::from(N)) as u32;
            table.merge_row(&[v / 256, v % 256], &isb).unwrap();
        }
        table.finish().unwrap();
        let measured = live_bytes().saturating_sub(before);
        assert_eq!(table.len(), N as usize, "{label}");
        assert_within_2x(label, table.approx_bytes(2), measured);
    }
}
