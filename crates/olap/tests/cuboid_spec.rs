//! `CuboidSpec` borrows as its level slice, so a map keyed by cuboids
//! can be probed with levels held in a buffer. That is only sound while
//! the cuboid hashes, compares and orders exactly as the slice does —
//! and, since the hash also places cuboids in every
//! `FxHashMap<CuboidSpec, _>`, it has to stay the hash of the `Vec<u8>`
//! it wraps, or every such map's iteration order moves.

use proptest::prelude::*;
use regcube_olap::fxhash::{FxHashMap, FxHasher};
use regcube_olap::CuboidSpec;
use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn hash_with<H: Hasher + Default>(value: &(impl Hash + ?Sized)) -> u64 {
    let mut hasher = H::default();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Level vectors of 0..=6 dimensions over a small level range, so random
/// pairs are often equal or share a prefix, or over every `u8`.
fn levels() -> impl Strategy<Value = Vec<u8>> {
    (0u8..2, prop::collection::vec(0u8..=255, 0..=6)).prop_map(|(small, levels)| {
        if small == 1 {
            levels.into_iter().map(|l| l % 3).collect()
        } else {
            levels
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// One cuboid against its slice, and a pair against each other.
    #[test]
    fn a_cuboid_behaves_as_its_level_slice((a, b) in (levels(), levels())) {
        let (spec_a, spec_b) = (CuboidSpec::new(a.clone()), CuboidSpec::new(b.clone()));
        let borrowed: &[u8] = spec_a.borrow();
        prop_assert_eq!(borrowed, &a[..]);
        prop_assert_eq!(hash_with::<FxHasher>(&spec_a), hash_with::<FxHasher>(&a[..]));
        prop_assert_eq!(hash_with::<DefaultHasher>(&spec_a), hash_with::<DefaultHasher>(&a[..]));
        prop_assert_eq!(hash_with::<FxHasher>(&spec_a), hash_with::<FxHasher>(&a));
        prop_assert_eq!(spec_a == spec_b, a[..] == b[..]);
        prop_assert_eq!(spec_a.cmp(&spec_b), a[..].cmp(&b[..]));
        prop_assert_eq!(spec_a.partial_cmp(&spec_b), a[..].partial_cmp(&b[..]));
    }

    /// A map keyed by cuboids answers a `&[u8]` lookup as it answers the
    /// cuboid's, and iterates in the order of a map keyed by the
    /// `Vec<u8>` levels built from the same insertions.
    #[test]
    fn maps_answer_slice_lookups_and_keep_their_order(
        (inserts, probes) in (
            prop::collection::vec(levels(), 0..200),
            prop::collection::vec(levels(), 0..32),
        ),
    ) {
        let mut keyed: FxHashMap<CuboidSpec, u32> = FxHashMap::default();
        let mut plain: FxHashMap<Vec<u8>, u32> = FxHashMap::default();
        for (i, levels) in inserts.iter().enumerate() {
            keyed.insert(CuboidSpec::new(levels.clone()), i as u32);
            plain.insert(levels.clone(), i as u32);
        }
        let keyed_order: Vec<(&[u8], u32)> = keyed.iter().map(|(k, &v)| (k.levels(), v)).collect();
        let plain_order: Vec<(&[u8], u32)> = plain.iter().map(|(k, &v)| (&k[..], v)).collect();
        prop_assert_eq!(keyed_order, plain_order);
        for levels in inserts.iter().chain(&probes) {
            let spec = CuboidSpec::new(levels.clone());
            prop_assert_eq!(keyed.get(levels.as_slice()), keyed.get(&spec));
            prop_assert_eq!(
                keyed.get_key_value(levels.as_slice()),
                keyed.get_key_value(&spec)
            );
        }
    }
}
