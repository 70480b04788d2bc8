//! Lossless ISB aggregation — Theorems 3.2 and 3.3 of the paper.
//!
//! These two theorems are what make regression cubes possible: the ISB of
//! an aggregated cell is computed *exactly* from descendant ISBs, without
//! retrieving the original stream.
//!
//! * [`merge_standard`] (Theorem 3.2): roll-up on a standard dimension.
//!   The aggregate series is the point-wise sum of descendant series over
//!   a common interval, and both fit parameters are simply additive:
//!   `β̂_a = Σ β̂_i`, `α̂_a = Σ α̂_i`.
//! * [`merge_time`] (Theorem 3.3): roll-up on the time dimension. The
//!   descendant intervals partition the aggregate interval, and the
//!   aggregate fit follows from per-segment sufficient statistics
//!   (`S_i = Σ z`, `Σ t·z`) that are recoverable from each segment's ISB.
//!
//! [`merge_time`] uses the transparent sufficient-statistics derivation;
//! [`merge_time_theorem33`] implements the paper's formula *verbatim*
//! (Theorem 3.3(b)). Property tests in `tests/proptests.rs` verify that the
//! two agree with each other and with brute-force OLS on the concatenated
//! raw series.

use crate::error::RegressError;
use crate::isb::Isb;
use crate::ols::svs;
use crate::Result;

/// Merges sibling ISBs over a **common interval** — Theorem 3.2
/// (aggregation on a standard dimension).
///
/// The aggregated cell's series is defined as the point-wise sum
/// `z(t) = Σ_i z_i(t)`; its LSE fit satisfies `α̂_a = Σ α̂_i` and
/// `β̂_a = Σ β̂_i`.
///
/// # Errors
/// * [`RegressError::NoInputs`] for an empty slice.
/// * [`RegressError::IntervalMismatch`] when any two inputs differ in
///   interval.
pub fn merge_standard(isbs: &[Isb]) -> Result<Isb> {
    let first = isbs.first().ok_or(RegressError::NoInputs)?;
    let mut base = 0.0;
    let mut slope = 0.0;
    for isb in isbs {
        if !isb.same_interval(first) {
            return Err(RegressError::IntervalMismatch {
                left: first.interval(),
                right: isb.interval(),
            });
        }
        base += isb.base();
        slope += isb.slope();
    }
    Isb::new(first.start(), first.end(), base, slope)
}

/// Incremental form of Theorem 3.2: accumulates `next` into `acc`.
///
/// Useful inside cubing loops where descendants stream one at a time; the
/// row-table folds (`merge_sibling` in `regcube-core`) use this to avoid
/// materializing slices.
///
/// # Errors
/// [`RegressError::IntervalMismatch`] when the intervals differ.
pub fn merge_standard_into(acc: &mut Isb, next: &Isb) -> Result<()> {
    if !acc.same_interval(next) {
        return Err(RegressError::IntervalMismatch {
            left: acc.interval(),
            right: next.interval(),
        });
    }
    *acc = Isb::new(
        acc.start(),
        acc.end(),
        acc.base() + next.base(),
        acc.slope() + next.slope(),
    )?;
    Ok(())
}

/// Validates that `segments` are sorted and contiguous (each starts one
/// tick after its predecessor ends), i.e. they partition
/// `[segments[0].start, segments.last().end]`.
fn check_partition(segments: &[Isb]) -> Result<()> {
    for pair in segments.windows(2) {
        if pair[1].start() != pair[0].end() + 1 {
            return Err(RegressError::NotAPartition {
                detail: format!(
                    "segment [{}, {}] does not follow [{}, {}]",
                    pair[1].start(),
                    pair[1].end(),
                    pair[0].start(),
                    pair[0].end()
                ),
            });
        }
    }
    Ok(())
}

/// Merges consecutive time segments into one ISB — Theorem 3.3
/// (aggregation on the time dimension), via sufficient statistics.
///
/// Each segment ISB yields its segment sum `S_i` and moment `Σ t·z`
/// exactly ([`Isb::sum_z`], [`Isb::sum_tz`]); from their totals the
/// aggregate slope and base follow from Lemma 3.1:
///
/// ```text
/// β̂_a = (Σ t·z - t̄_a · S_a) / SVS(n_a)
/// α̂_a = z̄_a - β̂_a · t̄_a
/// ```
///
/// Segments must be sorted by start tick and contiguous.
///
/// # Errors
/// * [`RegressError::NoInputs`] for an empty slice.
/// * [`RegressError::NotAPartition`] on gaps or overlaps.
pub fn merge_time(segments: &[Isb]) -> Result<Isb> {
    let first = segments.first().ok_or(RegressError::NoInputs)?;
    if segments.len() == 1 {
        return Ok(*first);
    }
    check_partition(segments)?;

    let last = segments[segments.len() - 1];
    let start = first.start();
    let end = last.end();
    let n_a = (end - start + 1) as f64;
    let t_bar = (start as f64 + end as f64) / 2.0;

    let mut sum_z = 0.0;
    let mut sum_tz = 0.0;
    for seg in segments {
        sum_z += seg.sum_z();
        sum_tz += seg.sum_tz();
    }
    let z_bar = sum_z / n_a;

    // A single-tick aggregate (only possible from one 1-tick segment, which
    // the early return above handles) would make SVS zero; with >= 2 ticks
    // SVS is strictly positive.
    let slope = (sum_tz - t_bar * sum_z) / svs(n_a as u64);
    let base = z_bar - slope * t_bar;
    Isb::new(start, end, base, slope)
}

/// Theorem 3.3(b) exactly as printed in the paper:
///
/// ```text
/// β̂_a = Σ_i [(n_i³ - n_i)/(n_a³ - n_a)] β̂_i
///     + 6 Σ_i [(2 Σ_{j<i} n_j + n_i - n_a)/(n_a³ - n_a)] · (n_a S_i - n_i S_a)/n_a
/// α̂_a = z̄_a - β̂_a t̄_a
/// ```
///
/// Kept alongside [`merge_time`] (the two are algebraically identical —
/// the `Σ_i w_i n_i z̄_a` correction term vanishes because
/// `Σ_i n_i t̄_i = n_a t̄_a`) so the paper's formula itself is under test.
///
/// # Errors
/// Same as [`merge_time`].
pub fn merge_time_theorem33(segments: &[Isb]) -> Result<Isb> {
    let first = segments.first().ok_or(RegressError::NoInputs)?;
    if segments.len() == 1 {
        return Ok(*first);
    }
    check_partition(segments)?;

    let last = segments[segments.len() - 1];
    let start = first.start();
    let end = last.end();
    let n_a = (end - start + 1) as f64;
    let t_bar_a = (start as f64 + end as f64) / 2.0;
    let cube_na = n_a * n_a * n_a - n_a;

    // S_a = Σ S_i with S_i = n_i z̄_i (z̄_i from Equation 2).
    let s_a: f64 = segments.iter().map(|s| s.sum_z()).sum();
    let z_bar_a = s_a / n_a;

    let mut slope = 0.0;
    let mut prefix_n = 0.0; // Σ_{j<i} n_j
    for seg in segments {
        let n_i = seg.n() as f64;
        let s_i = seg.sum_z();
        let cube_ni = n_i * n_i * n_i - n_i;
        slope += (cube_ni / cube_na) * seg.slope();
        slope += 6.0 * ((2.0 * prefix_n + n_i - n_a) / cube_na) * ((n_a * s_i - n_i * s_a) / n_a);
        prefix_n += n_i;
    }
    let base = z_bar_a - slope * t_bar_a;
    Isb::new(start, end, base, slope)
}

/// Merges segments that may arrive unsorted: sorts by start tick first,
/// then applies [`merge_time`].
///
/// # Errors
/// Same as [`merge_time`].
pub fn merge_time_unsorted(segments: &[Isb]) -> Result<Isb> {
    let mut sorted = segments.to_vec();
    sorted.sort_by_key(Isb::start);
    merge_time(&sorted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::TimeSeries;

    fn fit(series: &TimeSeries) -> Isb {
        Isb::fit(series).unwrap()
    }

    // ---- Theorem 3.2 -----------------------------------------------------

    #[test]
    fn thm32_matches_direct_fit_of_summed_series() {
        let z1 = TimeSeries::new(0, vec![1.0, 3.0, 2.0, 5.0, 4.0]).unwrap();
        let z2 = TimeSeries::new(0, vec![0.5, 0.0, 1.5, 1.0, 2.0]).unwrap();
        let z3 = TimeSeries::new(0, vec![2.0, 2.0, 2.0, 2.0, 2.0]).unwrap();

        let merged = merge_standard(&[fit(&z1), fit(&z2), fit(&z3)]).unwrap();
        let direct = fit(&TimeSeries::sum_many(&[z1, z2, z3]).unwrap());
        assert!(merged.approx_eq(&direct, 1e-12));
    }

    #[test]
    fn fig2_caption_isbs_satisfy_thm32() {
        // Figure 2 of the paper: ISBs of z1, z2 and z = z1 + z2.
        let z1 = Isb::new(0, 19, 0.540995, 0.0318379).unwrap();
        let z2 = Isb::new(0, 19, 0.294875, 0.0493375).unwrap();
        let expected = Isb::new(0, 19, 0.83587, 0.0811754).unwrap();
        let merged = merge_standard(&[z1, z2]).unwrap();
        assert!(merged.approx_eq(&expected, 1e-6), "{merged} vs {expected}");
    }

    #[test]
    fn thm32_rejects_interval_mismatch_and_empty() {
        let a = Isb::new(0, 9, 1.0, 0.1).unwrap();
        let b = Isb::new(1, 10, 1.0, 0.1).unwrap();
        assert!(matches!(
            merge_standard(&[a, b]),
            Err(RegressError::IntervalMismatch { .. })
        ));
        assert!(matches!(merge_standard(&[]), Err(RegressError::NoInputs)));
    }

    #[test]
    fn merge_standard_into_accumulates() {
        let mut acc = Isb::new(0, 9, 1.0, 0.5).unwrap();
        let next = Isb::new(0, 9, 2.0, -0.25).unwrap();
        merge_standard_into(&mut acc, &next).unwrap();
        assert!((acc.base() - 3.0).abs() < 1e-12);
        assert!((acc.slope() - 0.25).abs() < 1e-12);

        let bad = Isb::new(0, 8, 0.0, 0.0).unwrap();
        assert!(merge_standard_into(&mut acc, &bad).is_err());
    }

    #[test]
    fn thm32_singleton_is_identity() {
        let a = Isb::new(2, 11, -3.0, 0.7).unwrap();
        assert_eq!(merge_standard(&[a]).unwrap(), a);
    }

    // ---- Theorem 3.3 -----------------------------------------------------

    #[test]
    fn thm33_matches_direct_fit_of_concatenated_series() {
        let z = TimeSeries::new(
            0,
            vec![0.62, 0.24, 1.03, 0.57, 0.59, 0.57, 0.87, 1.10, 0.71, 0.56],
        )
        .unwrap();
        let parts = z.split_into(3).unwrap(); // uneven: 3+3+3+1 ticks
        let isbs: Vec<Isb> = parts.iter().map(fit).collect();

        let merged = merge_time(&isbs).unwrap();
        let direct = fit(&z);
        assert!(merged.approx_eq(&direct, 1e-10), "{merged} vs {direct}");
    }

    #[test]
    fn fig3_caption_isbs_satisfy_thm33() {
        // Figure 3 of the paper: [0,9] + [10,19] -> [0,19]. The caption ISBs
        // are rounded to 6 significant digits, hence the 1e-5 tolerance.
        let seg1 = Isb::new(0, 9, 0.582995, 0.0240189).unwrap();
        let seg2 = Isb::new(10, 19, 0.459046, 0.047474).unwrap();
        let expected = Isb::new(0, 19, 0.509033, 0.0431806).unwrap();

        let merged = merge_time(&[seg1, seg2]).unwrap();
        assert!(merged.approx_eq(&expected, 1e-5), "{merged} vs {expected}");

        let verbatim = merge_time_theorem33(&[seg1, seg2]).unwrap();
        assert!(
            verbatim.approx_eq(&expected, 1e-5),
            "{verbatim} vs {expected}"
        );
    }

    #[test]
    fn thm33_paper_formula_agrees_with_sufficient_statistics() {
        let z = TimeSeries::from_fn(5, 44, |t| 0.3 * t as f64 + ((t * 7919) % 13) as f64 * 0.11)
            .unwrap();
        for k in [2usize, 3, 7, 10] {
            let parts = z.split_into(k).unwrap();
            let isbs: Vec<Isb> = parts.iter().map(fit).collect();
            let a = merge_time(&isbs).unwrap();
            let b = merge_time_theorem33(&isbs).unwrap();
            assert!(a.approx_eq(&b, 1e-9), "k={k}: {a} vs {b}");
        }
    }

    #[test]
    fn thm33_rejects_gaps_overlaps_and_empty() {
        let a = Isb::new(0, 4, 1.0, 0.0).unwrap();
        let gap = Isb::new(6, 9, 1.0, 0.0).unwrap();
        let overlap = Isb::new(4, 9, 1.0, 0.0).unwrap();
        assert!(matches!(
            merge_time(&[a, gap]),
            Err(RegressError::NotAPartition { .. })
        ));
        assert!(merge_time(&[a, overlap]).is_err());
        assert!(matches!(merge_time(&[]), Err(RegressError::NoInputs)));
        assert!(matches!(
            merge_time_theorem33(&[]),
            Err(RegressError::NoInputs)
        ));
    }

    #[test]
    fn thm33_singleton_is_identity() {
        let a = Isb::new(3, 9, 0.5, -0.2).unwrap();
        assert_eq!(merge_time(&[a]).unwrap(), a);
        assert_eq!(merge_time_theorem33(&[a]).unwrap(), a);
    }

    #[test]
    fn merge_time_unsorted_sorts_first() {
        let z = TimeSeries::from_fn(0, 11, |t| (t as f64).sin()).unwrap();
        let parts = z.split_into(4).unwrap();
        let mut isbs: Vec<Isb> = parts.iter().map(fit).collect();
        isbs.reverse();
        let merged = merge_time_unsorted(&isbs).unwrap();
        assert!(merged.approx_eq(&fit(&z), 1e-10));
    }

    #[test]
    fn thm33_handles_single_tick_segments() {
        let z = TimeSeries::new(0, vec![5.0, 7.0, 6.0, 9.0]).unwrap();
        let parts = z.split_into(1).unwrap();
        let isbs: Vec<Isb> = parts.iter().map(fit).collect();
        // Each 1-tick ISB has slope 0 / base = value; the merge must still
        // reconstruct the exact fit because S_i carries the values.
        let merged = merge_time(&isbs).unwrap();
        assert!(merged.approx_eq(&fit(&z), 1e-10));
    }

    // ---- Theorem 3.1(b): minimality of the ISB representation ------------

    #[test]
    fn thm31_isb_components_are_independent() {
        // t_b cannot be dropped: z1 = 0,0,0 over [0,2]; z2 = 0,0 over [1,2].
        let z1 = fit(&TimeSeries::new(0, vec![0.0, 0.0, 0.0]).unwrap());
        let z2 = fit(&TimeSeries::new(1, vec![0.0, 0.0]).unwrap());
        assert_eq!(z1.end(), z2.end());
        assert_eq!(z1.base(), z2.base());
        assert_eq!(z1.slope(), z2.slope());
        assert_ne!(z1.start(), z2.start());

        // β̂ cannot be dropped: 0,0 vs 0,1 over [0,1] share t_b, t_e, α̂.
        let f1 = fit(&TimeSeries::new(0, vec![0.0, 0.0]).unwrap());
        let f2 = fit(&TimeSeries::new(0, vec![0.0, 1.0]).unwrap());
        assert_eq!(f1.base(), f2.base());
        assert_ne!(f1.slope(), f2.slope());

        // α̂ cannot be dropped: 0,0 vs 1,1 over [0,1] share t_b, t_e, β̂.
        let g1 = fit(&TimeSeries::new(0, vec![0.0, 0.0]).unwrap());
        let g2 = fit(&TimeSeries::new(0, vec![1.0, 1.0]).unwrap());
        assert_eq!(g1.slope(), g2.slope());
        assert_ne!(g1.base(), g2.base());
    }
}
