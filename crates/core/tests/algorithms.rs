//! Cross-algorithm integration tests: Algorithm 1 (m/o-cubing) and
//! Algorithm 2 (popular-path) must agree on the critical layers, and
//! Algorithm 2's exception set must be the exception-ancestor-reachable
//! subset of Algorithm 1's (the paper's footnote 7).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use regcube_core::drill::drill_descendants;
use regcube_core::prelude::*;
use regcube_olap::cell::CellKey;
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_regress::{Isb, TimeSeries};
use std::collections::BTreeMap;

/// A reproducible random dataset: `n` tuples on a `dims`-dimensional
/// schema of the given depth/fanout, slopes drawn from a mixture (mostly
/// quiet, some trending).
fn random_dataset(
    seed: u64,
    dims: usize,
    depth: u8,
    fanout: u32,
    n: usize,
) -> (CubeSchema, CriticalLayers, Vec<MTuple>) {
    let schema = CubeSchema::synthetic(dims, depth, fanout).unwrap();
    let layers = CriticalLayers::new(
        &schema,
        CuboidSpec::new(vec![1; dims]),
        CuboidSpec::new(vec![depth; dims]),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let card = fanout.pow(u32::from(depth));
    let mut tuples = Vec::with_capacity(n);
    for _ in 0..n {
        let ids: Vec<u32> = (0..dims).map(|_| rng.random_range(0..card)).collect();
        let slope: f64 = if rng.random_bool(0.15) {
            rng.random_range(-2.0..2.0)
        } else {
            rng.random_range(-0.05..0.05)
        };
        let base: f64 = rng.random_range(0.0..5.0);
        let noise_seed: u64 = rng.random();
        let series = TimeSeries::from_fn(0, 19, |t| {
            let jitter =
                ((t as u64 * 2654435761).wrapping_add(noise_seed) % 1000) as f64 / 10_000.0;
            base + slope * t as f64 + jitter
        })
        .unwrap();
        tuples.push(MTuple::new(ids, Isb::fit(&series).unwrap()));
    }
    (schema, layers, tuples)
}

fn sorted_cells(table: &regcube_core::table::CuboidTable) -> BTreeMap<CellKey, (f64, f64)> {
    table
        .iter()
        .map(|(k, m)| (k.clone(), (m.base(), m.slope())))
        .collect()
}

#[test]
fn critical_layers_agree_between_algorithms() {
    for seed in [7u64, 42, 1234] {
        let (schema, layers, tuples) = random_dataset(seed, 3, 2, 4, 600);
        let policy = ExceptionPolicy::slope_threshold(0.4);
        let a1 = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();
        let a2 = popular_path::compute(&schema, &layers, &policy, None, &tuples).unwrap();

        let m1 = sorted_cells(a1.m_table());
        let m2 = sorted_cells(a2.m_table());
        assert_eq!(m1.len(), m2.len());
        for (k, (b1, s1)) in &m1 {
            let (b2, s2) = m2[k];
            assert!(
                (b1 - b2).abs() < 1e-9 && (s1 - s2).abs() < 1e-9,
                "m-cell {k}"
            );
        }

        let o1 = sorted_cells(a1.o_table());
        let o2 = sorted_cells(a2.o_table());
        assert_eq!(o1.len(), o2.len());
        for (k, (b1, s1)) in &o1 {
            let (b2, s2) = o2[k];
            assert!(
                (b1 - b2).abs() < 1e-7 && (s1 - s2).abs() < 1e-7,
                "o-cell {k}"
            );
        }
    }
}

/// A table as its iteration sequence, measures as bits.
fn cell_bits(table: &regcube_core::table::CuboidTable) -> Vec<(CellKey, (i64, i64, u64, u64))> {
    table
        .iter()
        .map(|(k, m)| {
            let (start, end) = m.interval();
            (
                k.clone(),
                (start, end, m.base().to_bits(), m.slope().to_bits()),
            )
        })
        .collect()
}

#[test]
fn both_algorithms_fold_the_m_layer_alike() {
    // The m-layer is the same plan step over the same key sequence in
    // either algorithm: same cells, bits and iteration order.
    for seed in [7u64, 42, 1234] {
        let (schema, layers, tuples) = random_dataset(seed, 3, 2, 4, 600);
        let policy = ExceptionPolicy::slope_threshold(0.4);
        let a1 = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();
        let a2 = popular_path::compute(&schema, &layers, &policy, None, &tuples).unwrap();
        assert_eq!(
            cell_bits(a1.m_table()),
            cell_bits(a2.m_table()),
            "seed {seed}"
        );
    }
}

#[test]
fn a_one_cuboid_lattice_keeps_its_o_layer() {
    // o-layer = m-layer: the lattice is one cuboid, whose table is both
    // critical layers.
    let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
    let layer = CuboidSpec::new(vec![1, 1]);
    let layers = CriticalLayers::new(&schema, layer.clone(), layer).unwrap();
    let tuples = [(vec![0, 0], 0.9), (vec![1, 1], 0.1)]
        .map(|(ids, slope)| MTuple::new(ids, Isb::new(0, 9, 1.0, slope).unwrap()));
    let policy = ExceptionPolicy::slope_threshold(0.5);
    let a1 = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();
    let a2 = popular_path::compute(&schema, &layers, &policy, None, &tuples).unwrap();
    assert_eq!(a1.o_layer_cells(), 2);
    assert_eq!(cell_bits(a1.o_table()), cell_bits(a1.m_table()));
    assert_eq!(cell_bits(a1.o_table()), cell_bits(a2.o_table()));
    let hot = a1.exceptional_o_cells();
    assert_eq!(hot, a2.exceptional_o_cells());
    assert_eq!(hot.len(), 1);
    assert_eq!(hot[0].0, &CellKey::new(vec![0, 0]));
    assert_eq!(a1.total_exception_cells() + a2.total_exception_cells(), 0);
}

#[test]
fn popular_path_exceptions_are_a_subset_of_mo_exceptions() {
    for seed in [3u64, 99] {
        let (schema, layers, tuples) = random_dataset(seed, 3, 2, 4, 800);
        let policy = ExceptionPolicy::slope_threshold(0.3);
        let a1 = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();
        let a2 = popular_path::compute(&schema, &layers, &policy, None, &tuples).unwrap();

        assert!(a2.total_exception_cells() <= a1.total_exception_cells());
        for (cuboid, key, isb2) in a2.iter_exceptions() {
            // On-path cells are retained by Algorithm 2 but Algorithm 1
            // stores them as exceptions too (cuboids between the layers).
            let isb1 = a1
                .exceptions_in(cuboid)
                .and_then(|t| t.get(key))
                .unwrap_or_else(|| panic!("A2 exception {cuboid}{key} missing from A1"));
            assert!(
                isb1.approx_eq(isb2, 1e-7),
                "{cuboid}{key}: {isb1} vs {isb2}"
            );
        }
    }
}

#[test]
fn mo_exceptions_missing_from_popular_path_lack_exception_ancestors() {
    // Footnote 7: Algorithm 2 only finds exception cells whose ancestor
    // chain from the o-layer is exceptional throughout. Every cell
    // Algorithm 1 retains but Algorithm 2 misses must have *no* lattice
    // parent that Algorithm 2 found exceptional (otherwise A2 would have
    // drilled into it).
    let (schema, layers, tuples) = random_dataset(17, 2, 3, 3, 700);
    let policy = ExceptionPolicy::slope_threshold(0.25);
    let a1 = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();
    let a2 = popular_path::compute(&schema, &layers, &policy, None, &tuples).unwrap();

    let lattice = layers.lattice();
    for (cuboid, key, _) in a1.iter_exceptions() {
        let found_in_a2 = a2
            .exceptions_in(cuboid)
            .is_some_and(|t| t.contains_key(key));
        if found_in_a2 || a2.path_tables().contains_key(cuboid) {
            continue;
        }
        // Missed by A2: verify no parent of this cell is an A2 exception
        // (o-layer parents count as exceptional when the policy fires).
        for parent in lattice.parents(cuboid) {
            let projected = CellKey::new(regcube_olap::cell::project_key(
                &schema,
                cuboid,
                key.ids(),
                &parent,
            ));
            let parent_is_exceptional = if parent == *lattice.o_layer() {
                a2.o_table()
                    .get(&projected)
                    .is_some_and(|m| policy.is_exception(&parent, m))
            } else if let Some(t) = a2.path_tables().get(&parent) {
                t.get(&projected)
                    .is_some_and(|m| policy.is_exception(&parent, m))
            } else {
                a2.exceptions_in(&parent)
                    .is_some_and(|t| t.contains_key(&projected))
            };
            assert!(
                !parent_is_exceptional,
                "A2 missed {cuboid}{key} although parent {parent}{projected} is exceptional"
            );
        }
    }
}

#[test]
fn always_policy_makes_the_algorithms_equivalent() {
    // With threshold 0 every cell is exceptional, so Algorithm 2 drills
    // everywhere and the two algorithms retain identical cell sets.
    let (schema, layers, tuples) = random_dataset(5, 2, 2, 3, 300);
    let policy = ExceptionPolicy::always();
    let a1 = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();
    let a2 = popular_path::compute(&schema, &layers, &policy, None, &tuples).unwrap();

    for cuboid in layers.lattice().enumerate() {
        if cuboid == *layers.m_layer() || cuboid == *layers.o_layer() {
            continue;
        }
        let t1 = a1.exceptions_in(&cuboid);
        let c1 = t1.map_or(0, |t| t.len());
        let c2 = a2.exceptions_in(&cuboid).map_or(0, |t| t.len());
        assert_eq!(c1, c2, "cuboid {cuboid}");
        if let (Some(t1), Some(t2)) = (t1, a2.exceptions_in(&cuboid)) {
            for (k, m1) in t1 {
                let m2 = t2.get(k).expect("same cells");
                assert!(m1.approx_eq(m2, 1e-7));
            }
        }
    }
}

#[test]
fn exception_counts_scale_monotonically_with_threshold() {
    let (schema, layers, tuples) = random_dataset(11, 3, 2, 4, 500);
    let mut last = u64::MAX;
    for threshold in [0.0, 0.05, 0.2, 0.5, 1.5, f64::INFINITY] {
        let policy = ExceptionPolicy::slope_threshold(threshold);
        let cube = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();
        let count = cube.total_exception_cells();
        assert!(
            count <= last,
            "raising the threshold to {threshold} increased exceptions"
        );
        last = count;
    }
    assert_eq!(last, 0, "infinite threshold leaves no exceptions");
}

#[test]
fn alarms_drill_to_exceptional_hits_on_random_data() {
    let (schema, layers, tuples) = random_dataset(23, 2, 2, 4, 400);
    let policy = ExceptionPolicy::slope_threshold(0.35);
    let cube = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();

    // Every alarm must be drillable; every drill hit must be exceptional.
    for (key, _) in cube.exceptional_o_cells() {
        for hit in drill_descendants(&schema, &cube, layers.o_layer(), key) {
            assert!(policy.is_exception(&hit.cuboid, &hit.measure));
        }
    }
}
