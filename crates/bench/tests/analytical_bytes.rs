//! The analytical table-byte estimate against the counting allocator.
//! The allocator's counters are process-global, so this is a test binary
//! of its own, with one test: inside the library's test binary, or side
//! by side, other tests' allocations land in the measured window and
//! swing the reading by more than the table weighs.

use regcube_bench::memtrack::live_bytes;
use regcube_core::table::{table_bytes, CuboidTable};
use regcube_olap::cell::CellKey;
use regcube_regress::Isb;

/// Rows per table.
const N: u32 = 50_000;

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
