//! Property tests of the cubing algorithms on random small cubes: the
//! exception stores must equal brute-force aggregation from the m-layer,
//! regardless of data, threshold or schema shape.

use proptest::prelude::*;
use regcube_core::prelude::*;
use regcube_core::query;
use regcube_core::table::{aggregate_from, DenseCellCodec};
use regcube_olap::cell::CellKey;
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_regress::Isb;
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
struct RandomCube {
    dims: usize,
    depth: u8,
    fanout: u32,
    tuples: Vec<(Vec<u32>, f64, f64)>, // ids, base, slope
    threshold: f64,
}

fn random_cube() -> impl Strategy<Value = RandomCube> {
    (2usize..=3, 1u8..=2, 2u32..=3)
        .prop_flat_map(|(dims, depth, fanout)| {
            let card = fanout.pow(u32::from(depth));
            let tuple = (
                prop::collection::vec(0..card, dims),
                -5.0..5.0f64,
                -1.5..1.5f64,
            );
            (
                Just(dims),
                Just(depth),
                Just(fanout),
                prop::collection::vec(tuple, 1..40),
                0.0..2.0f64,
            )
        })
        .prop_map(|(dims, depth, fanout, tuples, threshold)| RandomCube {
            dims,
            depth,
            fanout,
            tuples,
            threshold,
        })
}

fn build(rc: &RandomCube) -> (CubeSchema, CriticalLayers, Vec<MTuple>, ExceptionPolicy) {
    let schema = CubeSchema::synthetic(rc.dims, rc.depth, rc.fanout).unwrap();
    let layers = CriticalLayers::new(
        &schema,
        CuboidSpec::new(vec![0; rc.dims]),
        CuboidSpec::new(vec![rc.depth; rc.dims]),
    )
    .unwrap();
    // Duplicate ids are fine: the m-layer build merges them (Thm 3.2).
    let tuples: Vec<MTuple> = rc
        .tuples
        .iter()
        .map(|(ids, base, slope)| MTuple::new(ids.clone(), Isb::new(0, 9, *base, *slope).unwrap()))
        .collect();
    let policy = ExceptionPolicy::slope_threshold(rc.threshold);
    (schema, layers, tuples, policy)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// m/o-cubing's exception stores equal brute-force aggregation +
    /// filtering from the m-layer, for every between-cuboid.
    #[test]
    fn mo_cubing_equals_brute_force(rc in random_cube()) {
        let (schema, layers, tuples, policy) = build(&rc);
        let cube = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();

        for cuboid in layers.lattice().enumerate() {
            if cuboid == *layers.m_layer() || cuboid == *layers.o_layer() {
                continue;
            }
            let (full, _) = aggregate_from(
                &schema, layers.m_layer(), cube.m_table(), &cuboid, None,
            ).unwrap();
            let expected: BTreeSet<CellKey> = full
                .iter()
                .filter(|(_, m)| policy.is_exception(&cuboid, m))
                .map(|(k, _)| k.clone())
                .collect();
            let got: BTreeSet<CellKey> = cube
                .exceptions_in(&cuboid)
                .map(|t| t.keys().cloned().collect())
                .unwrap_or_default();
            prop_assert_eq!(&got, &expected, "cuboid {}", cuboid);
            if let Some(table) = cube.exceptions_in(&cuboid) {
                for (k, m) in table {
                    prop_assert!(m.approx_eq(&full[k], 1e-7));
                }
            }
        }
    }

    /// Popular-path exceptions are always a subset of m/o-cubing's, with
    /// identical measures where both retain a cell.
    #[test]
    fn popular_path_subset_of_mo(rc in random_cube()) {
        let (schema, layers, tuples, policy) = build(&rc);
        let a1 = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();
        let a2 = popular_path::compute(&schema, &layers, &policy, None, &tuples).unwrap();

        prop_assert!(a2.total_exception_cells() <= a1.total_exception_cells());
        for (cuboid, key, isb2) in a2.iter_exceptions() {
            let isb1 = a1.exceptions_in(cuboid).and_then(|t| t.get(key));
            prop_assert!(isb1.is_some(), "A2-only exception {}{}", cuboid, key);
            prop_assert!(isb1.unwrap().approx_eq(isb2, 1e-7));
        }
    }

    /// The two algorithms agree exactly on both critical layers.
    #[test]
    fn critical_layers_agree(rc in random_cube()) {
        let (schema, layers, tuples, policy) = build(&rc);
        let a1 = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();
        let a2 = popular_path::compute(&schema, &layers, &policy, None, &tuples).unwrap();

        prop_assert_eq!(a1.m_layer_cells(), a2.m_layer_cells());
        for (k, m1) in a1.m_table() {
            let m2 = a2.m_table().get(k).expect("same m-layer");
            prop_assert!(m1.approx_eq(m2, 1e-9));
        }
        prop_assert_eq!(a1.o_layer_cells(), a2.o_layer_cells());
        for (k, m1) in a1.o_table() {
            let m2 = a2.o_table().get(k).expect("same o-layer");
            prop_assert!(m1.approx_eq(m2, 1e-6), "{}: {} vs {}", k, m1, m2);
        }
    }

    /// On-the-fly point queries equal the (retained or recomputed) truth
    /// for every cell of every cuboid.
    #[test]
    fn on_the_fly_queries_are_exact(rc in random_cube()) {
        let (schema, layers, tuples, policy) = build(&rc);
        let cube = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();
        for cuboid in layers.lattice().enumerate() {
            let (full, _) = aggregate_from(
                &schema, layers.m_layer(), cube.m_table(), &cuboid, None,
            ).unwrap();
            for (key, want) in &full {
                let got = query::cell_measure(&schema, &cube, &cuboid, key)
                    .unwrap()
                    .expect("cell is non-empty");
                prop_assert!(got.approx_eq(want, 1e-7), "{}{}", cuboid, key);
            }
        }
    }

    /// Dense cell-id codec round-trips right up against the u64
    /// overflow guard: the largest radix combinations whose cell space
    /// still fits a u64 encode/decode exactly, and the first ones past
    /// the boundary are rejected at construction.
    ///
    /// `floor(u64::MAX^(1/3)) = 2642245` (three dims at depth 1, radix =
    /// fanout) and `floor(u64::MAX^(1/6)) = 1625` (three dims at depth
    /// 2, radix = fanout²) are the exact guard edges these strategies
    /// straddle.
    #[test]
    fn codec_round_trips_adjacent_to_the_overflow_guard(
        kind in 0usize..4,
        offset in 0u32..50,
        fractions in prop::collection::vec(0.0..1.0f64, 3),
    ) {
        // (dims, depth, fanout, fits): up to 50 radix steps on each
        // side of both guard boundaries.
        let (dims, depth, fanout, fits) = match kind {
            0 => (3usize, 1u8, 2_642_245 - offset, true),
            1 => (3, 1, 2_642_246 + offset, false),
            2 => (3, 2, 1_625 - offset.min(800), true),
            _ => (3, 2, 1_626 + offset, false),
        };
        let schema = CubeSchema::synthetic(dims, depth, fanout).unwrap();
        let finest = CuboidSpec::new(vec![depth; dims]);
        let codec = DenseCellCodec::new(&schema, &finest);
        if !fits {
            prop_assert!(codec.is_err(), "radix^{dims} past u64 must be rejected");
            return Ok(());
        }
        let codec = codec.unwrap();
        let card = u64::from(fanout).pow(u32::from(depth));
        // Member ids spread across the full radix range, including the
        // extremes of every dimension.
        let mut keys: Vec<Vec<u32>> = vec![
            vec![0; dims],
            vec![(card - 1) as u32; dims],
        ];
        keys.push(
            (0..dims)
                .map(|d| ((fractions[d % fractions.len()] * card as f64) as u64).min(card - 1) as u32)
                .collect(),
        );
        let mut out = vec![0u32; dims];
        for ids in &keys {
            let id = codec.encode(ids);
            codec.decode_into(id, &mut out);
            prop_assert_eq!(&out, ids, "round trip at radix {}", fanout);
        }
        // The extreme cell encodes to exactly card^dims - 1: the codec
        // uses the whole dense range and nothing outside it.
        prop_assert_eq!(codec.encode(&keys[1]), card.pow(dims as u32) - 1);
    }

    /// The o-layer's total (apex view through any cuboid) conserves the
    /// m-layer's summed slope — Theorem 3.2 applied transitively.
    #[test]
    fn slope_mass_is_conserved(rc in random_cube()) {
        let (schema, layers, tuples, policy) = build(&rc);
        let cube = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();
        let m_total: f64 = cube.m_table().values().map(Isb::slope).sum();
        for cuboid in layers.lattice().enumerate() {
            let (full, _) = aggregate_from(
                &schema, layers.m_layer(), cube.m_table(), &cuboid, None,
            ).unwrap();
            let total: f64 = full.values().map(Isb::slope).sum();
            prop_assert!((total - m_total).abs() < 1e-6 * (1.0 + m_total.abs()),
                "cuboid {} total {} vs {}", cuboid, total, m_total);
        }
    }
}
