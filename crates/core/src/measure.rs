//! Cell measures and m-layer input tuples.

use crate::error::CoreError;
use crate::Result;
use regcube_olap::cell::CellKey;
use regcube_regress::{aggregate, Isb};

/// One merged m-layer data stream: the member ids of its m-layer cell (one
/// id per dimension, at the m-layer's levels) plus the ISB of its time
/// series over the current analysis window.
///
/// This is the granularity the paper's experiments speak of ("100,000
/// merged (i.e., m-layer) data streams"); anything finer is folded into
/// these tuples by `regcube-stream`'s ingestion before cubing.
#[derive(Debug, Clone, PartialEq)]
pub struct MTuple {
    key: CellKey,
    isb: Isb,
}

impl MTuple {
    /// Creates a tuple from m-layer member ids and a fitted ISB.
    pub fn new(ids: Vec<u32>, isb: Isb) -> Self {
        MTuple::from_key(CellKey::new(ids), isb)
    }

    /// Creates a tuple from an m-layer cell key and a fitted ISB.
    pub fn from_key(key: CellKey, isb: Isb) -> Self {
        MTuple { key, isb }
    }

    /// Member ids at the m-layer levels.
    #[inline]
    pub fn ids(&self) -> &[u32] {
        self.key.ids()
    }

    /// The tuple's m-layer cell key.
    #[inline]
    pub fn key(&self) -> &CellKey {
        &self.key
    }

    /// The tuple's regression measure.
    #[inline]
    pub fn isb(&self) -> &Isb {
        &self.isb
    }

    /// Replaces the tuple's measure and keeps its key: a cell that
    /// reports again in the next unit.
    #[inline]
    pub fn set_isb(&mut self, isb: Isb) {
        self.isb = isb;
    }
}

/// Folds `next` into `acc` under standard-dimension (sibling) semantics —
/// Theorem 3.2. Algorithm 2's folds and the queries merge with it.
/// Algorithm 1 ([`crate::mo_cubing`]) repeats its two adds on `(base,
/// slope)` pairs of an already validated unit, so swapping in a
/// different measure means changing this function and that fold.
///
/// # Errors
/// [`CoreError::Regress`] when the intervals differ (m-layer tuples must
/// share the analysis window).
pub fn merge_sibling(acc: &mut Isb, next: &Isb) -> Result<()> {
    aggregate::merge_standard_into(acc, next).map_err(CoreError::from)
}

/// The exception score of a measure: the magnitude of its regression
/// slope, the quantity thresholds compare against ("a regression line is
/// exceptional if its slope is ≥ the exception threshold").
#[inline]
pub fn exception_score(isb: &Isb) -> f64 {
    isb.slope().abs()
}

/// Validates a tuple set: consistent arity, ids within the m-layer's
/// cardinalities, and a common time interval. Each dimension's
/// cardinality is resolved once per call, not once per id.
///
/// # Errors
/// [`CoreError::BadInput`] describing the first violation found.
pub fn validate_tuples(
    schema: &regcube_olap::CubeSchema,
    m_layer: &regcube_olap::CuboidSpec,
    tuples: &[MTuple],
) -> Result<()> {
    let Some(first) = tuples.first() else {
        return Err(CoreError::BadInput {
            detail: "no input tuples".into(),
        });
    };
    let interval = first.isb().interval();
    let cards: Vec<u32> = schema
        .dims()
        .iter()
        .zip(m_layer.levels())
        .map(|(dim, &level)| dim.hierarchy().cardinality(level))
        .collect();
    for (i, t) in tuples.iter().enumerate() {
        if t.ids().len() != schema.num_dims() {
            return Err(CoreError::BadInput {
                detail: format!(
                    "tuple {i} has {} ids for {} dimensions",
                    t.ids().len(),
                    schema.num_dims()
                ),
            });
        }
        if t.isb().interval() != interval {
            return Err(CoreError::BadInput {
                detail: format!(
                    "tuple {i} covers {:?} but the window is {:?}",
                    t.isb().interval(),
                    interval
                ),
            });
        }
        for (d, (&id, &card)) in t.ids().iter().zip(&cards).enumerate() {
            if id >= card {
                return Err(CoreError::BadInput {
                    detail: format!(
                        "tuple {i} id {id} out of range for dimension {d} (cardinality {card})"
                    ),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use regcube_olap::{CubeSchema, CuboidSpec};
    use regcube_regress::TimeSeries;

    fn isb(slope: f64) -> Isb {
        let z = TimeSeries::from_fn(0, 9, |t| slope * t as f64).unwrap();
        Isb::fit(&z).unwrap()
    }

    #[test]
    fn tuple_accessors() {
        let t = MTuple::new(vec![1, 2], isb(0.5));
        assert_eq!(t.ids(), &[1, 2]);
        assert!((t.isb().slope() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sibling_merge_and_score() {
        let mut acc = isb(0.5);
        merge_sibling(&mut acc, &isb(-0.2)).unwrap();
        assert!((acc.slope() - 0.3).abs() < 1e-12);
        assert!((exception_score(&acc) - 0.3).abs() < 1e-12);
        assert!((exception_score(&isb(-0.7)) - 0.7).abs() < 1e-12);

        let shifted = Isb::new(5, 14, 0.0, 0.0).unwrap();
        assert!(merge_sibling(&mut acc, &shifted).is_err());
    }

    #[test]
    fn tuple_validation() {
        let schema = CubeSchema::synthetic(2, 2, 3).unwrap();
        let m = CuboidSpec::new(vec![2, 2]);
        let good = vec![
            MTuple::new(vec![0, 8], isb(0.1)),
            MTuple::new(vec![4, 3], isb(0.2)),
        ];
        validate_tuples(&schema, &m, &good).unwrap();

        assert!(validate_tuples(&schema, &m, &[]).is_err());
        let bad_arity = vec![MTuple::new(vec![0], isb(0.1))];
        assert!(validate_tuples(&schema, &m, &bad_arity).is_err());
        let bad_id = vec![
            MTuple::new(vec![0, 8], isb(0.1)),
            MTuple::new(vec![0, 9], isb(0.1)),
        ];
        match validate_tuples(&schema, &m, &bad_id) {
            Err(CoreError::BadInput { detail }) => assert_eq!(
                detail,
                "tuple 1 id 9 out of range for dimension 1 (cardinality 9)"
            ),
            other => panic!("{other:?}"),
        }
        let bad_window = vec![
            MTuple::new(vec![0, 0], isb(0.1)),
            MTuple::new(vec![1, 1], Isb::new(5, 9, 0.0, 0.0).unwrap()),
        ];
        assert!(validate_tuples(&schema, &m, &bad_window).is_err());
    }
}
