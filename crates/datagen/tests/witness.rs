//! Generator witness: every bit `Dataset::generate` emits, folded into one
//! `u64` per spec and compared with a constant. The figures, examples and
//! integration tests all feed on these datasets, so a change to the RNG
//! draw order (hot-or-quiet bool, slope, base, then one noise draw per
//! tick) or to the fit shows up here before it silently moves a figure.

use regcube_datagen::{Dataset, DatasetSpec};

/// FNV-1a over the ids and the ISB's interval and `f64` bits, tuple by
/// tuple in generation order.
fn fold(spec: DatasetSpec) -> u64 {
    let dataset = Dataset::generate(spec).unwrap();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(dataset.tuples.len() as u64);
    for t in &dataset.tuples {
        for &id in &t.ids {
            mix(u64::from(id));
        }
        let (start, end) = t.isb.interval();
        mix(start as u64);
        mix(end as u64);
        mix(t.isb.base().to_bits());
        mix(t.isb.slope().to_bits());
    }
    h
}

#[test]
fn fig8_quick_dataset_is_unchanged() {
    let spec = DatasetSpec::new(3, 3, 4, 5_000).unwrap();
    assert_eq!(fold(spec), 0x4964_35a2_fa08_875d);
}

#[test]
fn long_window_dataset_is_unchanged() {
    let spec = DatasetSpec::new(3, 3, 4, 1_500)
        .unwrap()
        .with_series_len(48);
    assert_eq!(fold(spec), 0xdd86_6e05_8042_df8b);
}

#[test]
fn reseeded_dataset_is_unchanged() {
    let spec = DatasetSpec::new(2, 2, 3, 200).unwrap().with_seed(7);
    assert_eq!(fold(spec), 0x31c4_e1a9_968d_8dcf);
}
