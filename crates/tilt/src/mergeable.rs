//! The measure contract of the tilt frame.

use crate::Result;
use regcube_regress::{aggregate, Isb};

/// A measure that can merge a *time-contiguous* run of itself into one
/// value — the operation promotion performs when fine slots complete a
/// coarser unit.
///
/// Implementations must be **lossless with respect to their own
/// semantics**: merging `[a, b]` then `c` must equal merging `[a, b, c]`
/// (associativity along the timeline), which the frame's property tests
/// verify for the provided implementations.
pub trait TimeMergeable: Sized + Clone {
    /// Merges a non-empty, time-ordered, contiguous run.
    ///
    /// # Errors
    /// Implementation-defined; for ISB, non-contiguous intervals.
    fn merge_run(run: &[Self]) -> Result<Self>;

    /// `true` when `next` directly continues `self` in time. The frame
    /// checks this on every push to guarantee merge preconditions.
    fn continues(&self, next: &Self) -> bool;

    /// `true` when `self` and `other` are the same value bit for bit
    /// (`-0.0` is not `0.0`). A restored [`FrameFamily`] leaves a row
    /// out of a column only when its slot is the column's fill in this
    /// sense; the default, `false`, keeps every row.
    ///
    /// [`FrameFamily`]: crate::FrameFamily
    fn same_bits(&self, _other: &Self) -> bool {
        false
    }
}

impl TimeMergeable for Isb {
    fn merge_run(run: &[Self]) -> Result<Self> {
        Ok(aggregate::merge_time(run)?)
    }

    fn continues(&self, next: &Self) -> bool {
        next.start() == self.end() + 1
    }

    fn same_bits(&self, other: &Self) -> bool {
        (self.start(), self.end()) == (other.start(), other.end())
            && self.base().to_bits() == other.base().to_bits()
            && self.slope().to_bits() == other.slope().to_bits()
    }
}

/// A trivial counting measure: tracks how many finest units a slot spans
/// plus a value sum. Useful for tests and as a template for custom
/// measures (the paper's footnote 1: cubes may carry other measures, such
/// as total power usage).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountSum {
    /// Index of the first finest unit covered.
    pub start_unit: u64,
    /// Number of finest units covered.
    pub units: u64,
    /// Sum of values over the covered span.
    pub sum: f64,
}

impl CountSum {
    /// A one-unit measure.
    pub fn unit(start_unit: u64, sum: f64) -> Self {
        CountSum {
            start_unit,
            units: 1,
            sum,
        }
    }
}

impl TimeMergeable for CountSum {
    fn merge_run(run: &[Self]) -> Result<Self> {
        let first = run.first().ok_or(crate::TiltError::Merge(
            regcube_regress::RegressError::NoInputs,
        ))?;
        let mut acc = *first;
        for next in &run[1..] {
            if !acc.continues(next) {
                return Err(crate::TiltError::OutOfOrder {
                    detail: format!(
                        "unit {} does not follow span [{}, {})",
                        next.start_unit,
                        acc.start_unit,
                        acc.start_unit + acc.units
                    ),
                });
            }
            acc.units += next.units;
            acc.sum += next.sum;
        }
        Ok(acc)
    }

    fn continues(&self, next: &Self) -> bool {
        next.start_unit == self.start_unit + self.units
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regcube_regress::TimeSeries;

    #[test]
    fn isb_merge_run_uses_theorem33() {
        let z = TimeSeries::from_fn(0, 59, |t| 0.5 + 0.02 * t as f64).unwrap();
        let parts = z.split_into(15).unwrap();
        let isbs: Vec<Isb> = parts.iter().map(|p| Isb::fit(p).unwrap()).collect();
        assert!(isbs[0].continues(&isbs[1]));
        assert!(!isbs[0].continues(&isbs[2]));
        let merged = Isb::merge_run(&isbs).unwrap();
        assert!(merged.approx_eq(&Isb::fit(&z).unwrap(), 1e-9));
    }

    #[test]
    fn isb_merge_run_rejects_gaps() {
        let a = Isb::new(0, 9, 1.0, 0.0).unwrap();
        let b = Isb::new(20, 29, 1.0, 0.0).unwrap();
        assert!(Isb::merge_run(&[a, b]).is_err());
    }

    #[test]
    fn count_sum_accumulates() {
        let run = vec![
            CountSum::unit(0, 1.5),
            CountSum::unit(1, 2.5),
            CountSum::unit(2, -1.0),
        ];
        let merged = CountSum::merge_run(&run).unwrap();
        assert_eq!(merged.units, 3);
        assert_eq!(merged.sum, 3.0);
        assert_eq!(merged.start_unit, 0);

        let gap = vec![CountSum::unit(0, 1.0), CountSum::unit(5, 1.0)];
        assert!(CountSum::merge_run(&gap).is_err());
        assert!(CountSum::merge_run(&[]).is_err());
    }
}
