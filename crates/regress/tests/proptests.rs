//! Property-based tests for the regression foundation: the aggregation
//! theorems must agree with brute-force OLS on arbitrary inputs.

use proptest::prelude::*;
use regcube_regress::aggregate::{
    merge_standard, merge_time, merge_time_theorem33, merge_time_unsorted,
};
use regcube_regress::fold::{fold_series, FoldOp};
use regcube_regress::mlr::MlrMeasure;
use regcube_regress::{Isb, RegressError, TimeSeries};

/// Strategy: a time series with bounded values, arbitrary start tick.
fn time_series(min_len: usize, max_len: usize) -> impl Strategy<Value = TimeSeries> {
    (
        -1000i64..1000,
        prop::collection::vec(-100.0..100.0f64, min_len..=max_len),
    )
        .prop_map(|(start, values)| TimeSeries::new(start, values).unwrap())
}

/// Strategy: `k` series sharing one interval.
fn sibling_series(k: usize) -> impl Strategy<Value = Vec<TimeSeries>> {
    (2usize..30, -500i64..500).prop_flat_map(move |(len, start)| {
        prop::collection::vec(prop::collection::vec(-50.0..50.0f64, len), k..=k).prop_map(
            move |rows| {
                rows.into_iter()
                    .map(|v| TimeSeries::new(start, v).unwrap())
                    .collect()
            },
        )
    })
}

/// Strategy: a full-rank design of width `k` in `1..=4`: the `k` unit rows
/// (so `XᵀX = I + RᵀR` has every eigenvalue ≥ 1) followed by up to 20
/// random rows `R`.
fn full_rank_design() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..=4, 0usize..=20).prop_flat_map(|(k, extra)| {
        prop::collection::vec(prop::collection::vec(-10.0..10.0f64, k), extra).prop_map(
            move |random| {
                let unit = (0..k).map(|i| (0..k).map(|j| if i == j { 1.0 } else { 0.0 }).collect());
                unit.chain(random).collect()
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The solve recovers a planted coefficient vector from noise-free
    /// responses `z = x·β` on any full-rank design.
    #[test]
    fn mlr_solve_recovers_planted_beta(
        design in full_rank_design(),
        beta in prop::collection::vec(-100.0..100.0f64, 4),
    ) {
        let k = design[0].len();
        let beta = &beta[..k];
        let mut m = MlrMeasure::empty(k).unwrap();
        for row in &design {
            m.push_row(row, row.iter().zip(beta).map(|(x, b)| x * b).sum()).unwrap();
        }
        let got = m.solve().unwrap();
        for (g, b) in got.iter().zip(beta) {
            prop_assert!((g - b).abs() < 1e-8 * (1.0 + b.abs()), "{got:?} vs {beta:?}");
        }
    }

    /// A design whose last column duplicates the one before it is
    /// collinear, and the solve names the pivot where it breaks.
    #[test]
    fn mlr_duplicated_column_is_collinear(
        design in full_rank_design(),
        z in prop::collection::vec(-100.0..100.0f64, 24),
    ) {
        let k = design[0].len();
        prop_assume!(design.len() > k);
        let mut m = MlrMeasure::empty(k + 1).unwrap();
        for (row, &z) in design.iter().zip(&z) {
            let mut wide = row.clone();
            wide.push(row[k - 1]);
            m.push_row(&wide, z).unwrap();
        }
        prop_assert_eq!(m.solve(), Err(RegressError::Collinear { pivot: k }));
    }

    /// Theorem 3.2: merging sibling ISBs == fitting the point-wise sum.
    #[test]
    fn theorem32_is_exact(series in sibling_series(4)) {
        let isbs: Vec<Isb> = series.iter().map(|s| Isb::fit(s).unwrap()).collect();
        let merged = merge_standard(&isbs).unwrap();
        let direct = Isb::fit(&TimeSeries::sum_many(&series).unwrap()).unwrap();
        prop_assert!(merged.approx_eq(&direct, 1e-8), "{merged} vs {direct}");
    }

    /// Theorem 3.3: merging contiguous segment ISBs == fitting the
    /// concatenation, for arbitrary segmentations.
    #[test]
    fn theorem33_is_exact(z in time_series(2, 80), chunk in 1usize..12) {
        let parts = z.split_into(chunk).unwrap();
        let isbs: Vec<Isb> = parts.iter().map(|p| Isb::fit(p).unwrap()).collect();
        let merged = merge_time(&isbs).unwrap();
        let direct = Isb::fit(&z).unwrap();
        prop_assert!(merged.approx_eq(&direct, 1e-6), "{merged} vs {direct}");
    }

    /// The paper's verbatim Theorem 3.3(b) formula agrees with the
    /// sufficient-statistics derivation.
    #[test]
    fn theorem33_paper_formula_agrees(z in time_series(2, 60), chunk in 1usize..10) {
        let parts = z.split_into(chunk).unwrap();
        let isbs: Vec<Isb> = parts.iter().map(|p| Isb::fit(p).unwrap()).collect();
        let a = merge_time(&isbs).unwrap();
        let b = merge_time_theorem33(&isbs).unwrap();
        prop_assert!(a.approx_eq(&b, 1e-6), "{a} vs {b}");
    }

    /// Merging is associative along the time axis: ((s1+s2)+s3) == (s1+(s2+s3)).
    #[test]
    fn theorem33_is_associative(z in time_series(6, 60)) {
        let n = z.len() as i64;
        let (a, b, c) = (
            z.window(z.start(), z.start() + n / 3 - 1).unwrap(),
            z.window(z.start() + n / 3, z.start() + 2 * n / 3 - 1).unwrap(),
            z.window(z.start() + 2 * n / 3, z.end()).unwrap(),
        );
        let (ia, ib, ic) = (
            Isb::fit(&a).unwrap(),
            Isb::fit(&b).unwrap(),
            Isb::fit(&c).unwrap(),
        );
        let left = merge_time(&[merge_time(&[ia, ib]).unwrap(), ic]).unwrap();
        let right = merge_time(&[ia, merge_time(&[ib, ic]).unwrap()]).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-6), "{left} vs {right}");
    }

    /// Unsorted merge equals sorted merge.
    #[test]
    fn unsorted_merge_is_order_insensitive(z in time_series(4, 40), chunk in 1usize..6) {
        let parts = z.split_into(chunk).unwrap();
        let mut isbs: Vec<Isb> = parts.iter().map(|p| Isb::fit(p).unwrap()).collect();
        let sorted = merge_time(&isbs).unwrap();
        isbs.reverse();
        let unsorted = merge_time_unsorted(&isbs).unwrap();
        prop_assert!(sorted.approx_eq(&unsorted, 1e-9));
    }

    /// ISB <-> IntVal conversions are lossless (up to relative rounding:
    /// the base can be ~|slope·t_b| large at distant intervals).
    #[test]
    fn isb_intval_round_trip(z in time_series(1, 40)) {
        let isb = Isb::fit(&z).unwrap();
        let back = isb.to_intval().to_isb();
        let tol = 1e-9 * (1.0 + isb.base().abs().max(isb.slope().abs()));
        prop_assert!(back.approx_eq(&isb, tol), "{back} vs {isb}");
    }

    /// The ISB recovers the series' sum and mean exactly (Equation 2).
    #[test]
    fn isb_recovers_sufficient_statistics(z in time_series(1, 50)) {
        let isb = Isb::fit(&z).unwrap();
        prop_assert!((isb.sum_z() - z.sum()).abs() < 1e-6);
        prop_assert!((isb.mean_z() - z.mean()).abs() < 1e-8);
        prop_assert!((isb.sum_tz() - z.sum_tz()).abs() < 1e-3,
            "sum_tz {} vs {}", isb.sum_tz(), z.sum_tz());
    }

    /// Folding with Sum then fitting equals Theorem 3.2 over group members
    /// only in trivial cases; here we check the structural invariant that
    /// fold preserves total mass for Sum.
    #[test]
    fn fold_sum_preserves_mass(z in time_series(1, 60), group in 1usize..9) {
        let folded = fold_series(&z, group, FoldOp::Sum).unwrap();
        prop_assert!((folded.sum() - z.sum()).abs() < 1e-8);
        prop_assert_eq!(folded.len(), z.len().div_ceil(group));
    }

    /// Min fold is a lower bound of Max fold point-wise.
    #[test]
    fn fold_min_below_max(z in time_series(1, 60), group in 1usize..9) {
        let lo = fold_series(&z, group, FoldOp::Min).unwrap();
        let hi = fold_series(&z, group, FoldOp::Max).unwrap();
        for (a, b) in lo.values().iter().zip(hi.values().iter()) {
            prop_assert!(a <= b);
        }
    }

    /// The MLR measure with design [1, t] equals the ISB fit. The normal
    /// equations lose digits when |t| is large (Σt² ~ 1e6 here), so the
    /// comparison is relative.
    #[test]
    fn mlr_reduces_to_isb(z in time_series(2, 40)) {
        let m = MlrMeasure::from_time_series(&z).unwrap();
        let beta = m.solve().unwrap();
        let isb = Isb::fit(&z).unwrap();
        let tol_base = 1e-5 * (1.0 + isb.base().abs());
        let tol_slope = 1e-6 * (1.0 + isb.slope().abs());
        prop_assert!((beta[0] - isb.base()).abs() < tol_base,
            "base {} vs {}", beta[0], isb.base());
        prop_assert!((beta[1] - isb.slope()).abs() < tol_slope,
            "slope {} vs {}", beta[1], isb.slope());
    }

    /// Disjoint MLR merges equal pooled fits.
    #[test]
    fn mlr_disjoint_merge_is_exact(z in time_series(6, 40)) {
        let mid = z.start() + z.len() as i64 / 2;
        let a = z.window(z.start(), mid - 1).unwrap();
        let b = z.window(mid, z.end()).unwrap();
        let mut ma = MlrMeasure::from_time_series(&a).unwrap();
        ma.merge_disjoint(&MlrMeasure::from_time_series(&b).unwrap()).unwrap();
        let pooled = MlrMeasure::from_time_series(&z).unwrap();
        let (x, y) = (ma.solve().unwrap(), pooled.solve().unwrap());
        prop_assert!((x[0] - y[0]).abs() < 1e-6 && (x[1] - y[1]).abs() < 1e-7);
    }
}
