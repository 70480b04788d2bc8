//! SIMD ≡ scalar kernel parity: the chunked [`regcube_core::kernel`]
//! fold/projection path must be **bit-for-bit** identical to the forced
//! scalar fallback — same cells, same exception sets, same `UnitDelta`
//! streams — across units of every size, NaN-noise measures and the
//! u64-overflow guard. The kernels preserve
//! the scalar fold's add order by construction, so the comparison is
//! `f64::to_bits` equality, not epsilon closeness.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use regcube_core::engine::{Backend, CubingEngine, MoCubingEngine, UnitDelta};
use regcube_core::table::{CuboidTable, DenseCellCodec};
use regcube_core::{CriticalLayers, CubeResult, ExceptionPolicy, KernelMode, MTuple};
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_regress::{Isb, TimeSeries};

fn dataset(seed: u64, n: usize) -> (CubeSchema, CriticalLayers, Vec<MTuple>) {
    let (dims, depth, fanout) = (3usize, 2u8, 3u32);
    let schema = CubeSchema::synthetic(dims, depth, fanout).unwrap();
    let layers = CriticalLayers::new(
        &schema,
        CuboidSpec::new(vec![0; dims]),
        CuboidSpec::new(vec![depth; dims]),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let card = fanout.pow(u32::from(depth));
    let tuples = (0..n)
        .map(|_| {
            let ids: Vec<u32> = (0..dims).map(|_| rng.random_range(0..card)).collect();
            let slope = rng.random_range(-1.2..1.2);
            let base = rng.random_range(0.0..4.0);
            let z = TimeSeries::from_fn(0, 15, |t| base + slope * t as f64).unwrap();
            MTuple::new(ids, Isb::fit(&z).unwrap())
        })
        .collect();
    (schema, layers, tuples)
}

/// A columnar Algorithm-1 engine running `mode`.
fn columnar(
    mode: KernelMode,
    schema: &CubeSchema,
    layers: &CriticalLayers,
    policy: &ExceptionPolicy,
) -> regcube_core::Result<MoCubingEngine> {
    Ok(
        MoCubingEngine::new(schema.clone(), layers.clone(), policy.clone())?
            .with_backend(Backend::Columnar)?
            .with_kernel_mode(mode),
    )
}

/// Bit-exact ISB equality: identical interval and identical `f64` bit
/// patterns (so NaN payloads and signed zeros must match too).
fn isb_bits_eq(a: &Isb, b: &Isb) -> bool {
    a.interval() == b.interval()
        && a.base().to_bits() == b.base().to_bits()
        && a.slope().to_bits() == b.slope().to_bits()
}

fn tables_bit_eq(label: &str, a: &CuboidTable, b: &CuboidTable) {
    assert_eq!(a.len(), b.len(), "{label}: cell counts differ");
    for (key, m) in a {
        let other = b
            .get(key)
            .unwrap_or_else(|| panic!("{label}: cell {key} missing"));
        assert!(isb_bits_eq(m, other), "{label} {key}: {m} vs {other}");
    }
}

fn results_bit_eq(label: &str, a: &CubeResult, b: &CubeResult) {
    tables_bit_eq(&format!("{label}/m"), a.m_table(), b.m_table());
    tables_bit_eq(&format!("{label}/o"), a.o_table(), b.o_table());
    assert_eq!(
        a.total_exception_cells(),
        b.total_exception_cells(),
        "{label}: exception counts differ"
    );
    for (cuboid, key, m) in a.iter_exceptions() {
        let other = b
            .exceptions_in(cuboid)
            .and_then(|t| t.get(key))
            .unwrap_or_else(|| panic!("{label}: exception {cuboid}{key} missing"));
        assert!(isb_bits_eq(m, other), "{label} {cuboid}{key}");
    }
}

fn deltas_eq(label: &str, a: &UnitDelta, b: &UnitDelta) {
    assert_eq!(a.unit, b.unit, "{label}: unit");
    assert_eq!(a.window, b.window, "{label}: window");
    assert_eq!(a.appeared, b.appeared, "{label}: appeared");
    assert_eq!(a.cleared, b.cleared, "{label}: cleared");
}

/// Replays `units` (one batch each) through an auto-dispatch and a
/// forced-scalar columnar engine, asserting bit-exact cubes and deltas
/// after every unit, then returns both engines for counter inspection.
fn replay_and_compare(
    label: &str,
    schema: &CubeSchema,
    layers: &CriticalLayers,
    policy: &ExceptionPolicy,
    units: &[&[MTuple]],
) -> (MoCubingEngine, MoCubingEngine) {
    let make = |mode| columnar(mode, schema, layers, policy).unwrap();
    let (mut auto, mut scalar) = (make(KernelMode::Auto), make(KernelMode::Scalar));
    for (u, unit) in units.iter().enumerate() {
        let da = auto.ingest_unit(unit).unwrap();
        let ds = scalar.ingest_unit(unit).unwrap();
        let tag = format!("{label} unit {u}");
        deltas_eq(&tag, &da, &ds);
        results_bit_eq(&tag, auto.result(), scalar.result());
    }
    (auto, scalar)
}

/// Shifts every tuple's interval into unit `unit` (16 ticks per unit).
fn shift_window(tuples: &[MTuple], unit: i64) -> Vec<MTuple> {
    let start = unit * 16;
    tuples
        .iter()
        .map(|t| {
            let isb = t.isb();
            MTuple::new(
                t.ids().to_vec(),
                Isb::new(start, start + 15, isb.base(), isb.slope()).unwrap(),
            )
        })
        .collect()
}

#[test]
fn kernel_and_scalar_paths_are_bit_identical_across_rollovers() {
    let (schema, layers, tuples) = dataset(600, 180);
    let policy = ExceptionPolicy::slope_threshold(0.3);
    // Three units with shrinking tails.
    let u1 = shift_window(&tuples[..60], 1);
    let u2 = shift_window(&tuples[..7], 2);
    let units = [&tuples[..], &u1[..], &u2[..]];
    let (auto, scalar) = replay_and_compare("rollover", &schema, &layers, &policy, &units);

    // Dispatch accounting: each engine splits its folded rows across
    // exactly the two counters; the forced engine never reports kernel
    // rows, the auto engine folded its tier roll-up through them.
    for (label, engine) in [("auto", &auto), ("scalar", &scalar)] {
        let s = engine.stats();
        assert_eq!(
            s.rows_folded,
            s.rows_folded_simd + s.rows_folded_scalar,
            "{label}: counters must partition rows_folded"
        );
    }
    assert_eq!(scalar.stats().rows_folded_simd, 0, "forced scalar");
    assert!(
        auto.stats().rows_folded_simd > 0,
        "auto dispatch must reach the kernels on a synthetic lattice"
    );
}

#[test]
fn nan_noise_flows_through_both_paths_identically() {
    // NaN measures (a sensor stream gone bad) must neither qualify as
    // exceptions nor perturb neighbours — identically on both paths,
    // down to the propagated NaN bit patterns in the critical layers.
    let (schema, layers, mut tuples) = dataset(601, 120);
    let policy = ExceptionPolicy::slope_threshold(0.3);
    for i in (0..tuples.len()).step_by(7) {
        let ids = tuples[i].ids().to_vec();
        tuples[i] = MTuple::new(ids, Isb::new(0, 15, f64::NAN, -f64::NAN).unwrap());
    }
    let (auto, _) = replay_and_compare("nan", &schema, &layers, &policy, &[&tuples[..]]);
    assert!(
        auto.result().o_table().values().any(|m| m.slope().is_nan()),
        "NaN noise must reach the o-layer for the pin to mean anything"
    );
    for (_, _, m) in auto.result().iter_exceptions() {
        assert!(!m.slope().is_nan(), "NaN never qualifies as an exception");
    }
}

#[test]
fn overflow_guard_fires_identically_on_both_paths() {
    // 6 dimensions with ~4M leaves each overflow the dense u64 id
    // space; the codec guard (shared by both paths — it fires before
    // any kernel dispatch) must reject the m-layer identically.
    let schema = CubeSchema::synthetic(6, 2, 2048).unwrap();
    let m = CuboidSpec::new(vec![2; 6]);
    let layers = CriticalLayers::new(&schema, CuboidSpec::new(vec![0; 6]), m.clone()).unwrap();
    assert!(DenseCellCodec::new(&schema, &m).is_err());
    // The codec guard fires at engine construction, before any kernel
    // dispatch decision exists — no mode can route around it.
    let policy = ExceptionPolicy::slope_threshold(0.5);
    let err = columnar(KernelMode::Auto, &schema, &layers, &policy)
        .map(|_| ())
        .unwrap_err()
        .to_string();
    assert!(err.contains("overflows a dense 64-bit id"), "{err}");
}

#[derive(Debug, Clone)]
struct RandomCube {
    dims: usize,
    depth: u8,
    fanout: u32,
    tuples: Vec<(Vec<u32>, f64, f64)>, // ids, base, slope
    threshold: f64,
    chunk: usize,
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
                1usize..9,
            )
        })
        .prop_map(
            |(dims, depth, fanout, tuples, threshold, chunk)| RandomCube {
                dims,
                depth,
                fanout,
                tuples,
                threshold,
                chunk,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The parity law itself, on random cubes: for any schema shape,
    /// data, threshold and unit size, auto dispatch and
    /// forced scalar produce bit-identical cubes and deltas.
    #[test]
    fn kernel_dispatch_never_changes_a_bit(rc in random_cube()) {
        let schema = CubeSchema::synthetic(rc.dims, rc.depth, rc.fanout).unwrap();
        let layers = CriticalLayers::new(
            &schema,
            CuboidSpec::new(vec![0; rc.dims]),
            CuboidSpec::new(vec![rc.depth; rc.dims]),
        )
        .unwrap();
        // Every `chunk` tuples are one unit, in a window of its own.
        let tuples: Vec<MTuple> = rc
            .tuples
            .iter()
            .enumerate()
            .map(|(i, (ids, base, slope))| {
                let start = (i / rc.chunk) as i64 * 10;
                MTuple::new(ids.clone(), Isb::new(start, start + 9, *base, *slope).unwrap())
            })
            .collect();
        let policy = ExceptionPolicy::slope_threshold(rc.threshold);
        let mut auto = columnar(KernelMode::Auto, &schema, &layers, &policy).unwrap();
        let mut scalar = columnar(KernelMode::Scalar, &schema, &layers, &policy).unwrap();
        for unit in tuples.chunks(rc.chunk) {
            let da = auto.ingest_unit(unit).unwrap();
            let ds = scalar.ingest_unit(unit).unwrap();
            deltas_eq("prop", &da, &ds);
            results_bit_eq("prop", auto.result(), scalar.result());
        }
        prop_assert_eq!(scalar.stats().rows_folded_simd, 0);
        let s = auto.stats();
        prop_assert_eq!(s.rows_folded, s.rows_folded_simd + s.rows_folded_scalar);
    }
}
