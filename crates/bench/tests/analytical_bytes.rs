//! The analytical `table_bytes` estimate against the counting
//! allocator. The allocator's counters are process-global, so this is a
//! test binary of its own with this one test in it: inside the library's
//! test binary the other tests' allocations land in the measured window
//! and swing the reading by more than the table weighs.

use regcube_bench::memtrack::live_bytes;
use regcube_core::table::{table_bytes, CuboidTable};
use regcube_olap::cell::CellKey;
use regcube_regress::Isb;

#[test]
fn analytical_table_bytes_tracks_the_allocator() {
    // The estimate must stay within a 2x band of the real allocator's
    // live-byte delta.
    const N: u32 = 50_000;
    let isb = Isb::new(0, 9, 1.0, 0.5).unwrap();

    let before = live_bytes();
    let mut row = CuboidTable::default();
    for v in 0..N {
        row.insert(CellKey::new(vec![v, v % 97, v % 53]), isb);
    }
    let measured = live_bytes().saturating_sub(before);
    let estimate = table_bytes(&row, 3);
    let ratio = estimate as f64 / measured.max(1) as f64;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "row: analytical {estimate} vs measured {measured} (ratio {ratio:.2})"
    );
}
