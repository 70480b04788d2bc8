//! `CellKey` keeps up to `INLINE_IDS` ids in place and boxes longer
//! keys. Either way it must be indistinguishable from the boxed id slice
//! it is compared against here: the same hash under every hasher, the
//! same equality, order and printing, and — what the row layout's fold
//! order rests on — the same iteration order in an `FxHashMap` built
//! from the same insertion sequence.

use proptest::prelude::*;
use regcube_olap::cell::{CellKey, INLINE_IDS};
use regcube_olap::fxhash::{FxHashMap, FxHasher};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn hash_with<H: Hasher + Default>(value: &impl Hash) -> u64 {
    let mut hasher = H::default();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Id slices of length 0..=8 — both sides of the inline bound — over a
/// small id range, so random pairs are often equal or share a prefix,
/// or over the whole `u32` range.
fn ids() -> impl Strategy<Value = Vec<u32>> {
    (0u32..2, prop::collection::vec(0u32..u32::MAX, 0..=8)).prop_map(|(small, ids)| {
        if small == 1 {
            ids.into_iter().map(|id| id % 3).collect()
        } else {
            ids
        }
    })
}

#[test]
fn a_key_is_the_size_of_a_boxed_slice_plus_its_tag() {
    assert_eq!(std::mem::size_of::<CellKey>(), 24);
    assert_eq!(INLINE_IDS, 5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// One key against its boxed slice, and a pair against each other.
    #[test]
    fn a_key_behaves_as_its_boxed_slice((a, b) in (ids(), ids())) {
        let (key_a, key_b) = (CellKey::new(&a), CellKey::new(&b));
        let (box_a, box_b): (Box<[u32]>, Box<[u32]>) = (a.clone().into(), b.clone().into());
        prop_assert_eq!(key_a.ids(), &a[..]);
        prop_assert_eq!(key_a.num_dims(), a.len());
        prop_assert_eq!(hash_with::<FxHasher>(&key_a), hash_with::<FxHasher>(&box_a));
        prop_assert_eq!(hash_with::<DefaultHasher>(&key_a), hash_with::<DefaultHasher>(&box_a));
        // A key hashes as the slice it borrows as.
        prop_assert_eq!(hash_with::<FxHasher>(&key_a), hash_with::<FxHasher>(&a.as_slice()));
        prop_assert_eq!(key_a == key_b, box_a == box_b);
        prop_assert_eq!(key_a.cmp(&key_b), box_a.cmp(&box_b));
        prop_assert_eq!(key_a.partial_cmp(&key_b), box_a.partial_cmp(&box_b));
        prop_assert_eq!(format!("{key_a:?}"), format!("CellKey({box_a:?})"));
        let listed: Vec<String> = a.iter().map(u32::to_string).collect();
        prop_assert_eq!(format!("{key_a}"), format!("[{}]", listed.join(", ")));
    }

    /// Two maps built from one random insertion sequence — repeated keys
    /// included — hold the same entries, answer the same `&[u32]`
    /// lookups, and iterate their keys in the same order.
    #[test]
    fn maps_keyed_by_either_iterate_alike(
        (inserts, probes) in (
            prop::collection::vec(ids(), 0..300),
            prop::collection::vec(ids(), 0..32),
        ),
    ) {
        let mut keyed: FxHashMap<CellKey, u32> = FxHashMap::default();
        let mut boxed: FxHashMap<Box<[u32]>, u32> = FxHashMap::default();
        for (i, ids) in inserts.iter().enumerate() {
            keyed.insert(CellKey::new(ids), i as u32);
            boxed.insert(ids.clone().into(), i as u32);
        }
        let keyed_order: Vec<(&[u32], u32)> = keyed.iter().map(|(k, &v)| (k.ids(), v)).collect();
        let boxed_order: Vec<(&[u32], u32)> = boxed.iter().map(|(k, &v)| (&k[..], v)).collect();
        prop_assert_eq!(keyed_order, boxed_order);
        for ids in inserts.iter().chain(&probes) {
            prop_assert_eq!(keyed.get(ids.as_slice()), boxed.get(ids.as_slice()));
        }
    }
}
