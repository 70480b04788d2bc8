//! Exception policies: what makes a regression line *exceptional*.
//!
//! "A regression line is exceptional if its slope is ≥ the exception
//! threshold, where an exception threshold can be defined by a user or an
//! expert **for each cuboid c, for each dimension level d, or for the
//! whole cube**, depending on applications." (Section 4.3.)
//!
//! The policy also captures the *reference* choice — whether the tested
//! regression is the cell's own line or the change between consecutive
//! tilt-frame slots ("the current quarter vs. the previous one").

use crate::error::CoreError;
use crate::measure::exception_score;
use crate::Result;
use regcube_olap::fxhash::FxHashMap;
use regcube_olap::CuboidSpec;
use regcube_regress::Isb;

/// Which regression line an exception test refers to (Section 4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefMode {
    /// The cell's own regression slope over its current window.
    #[default]
    OwnSlope,
    /// The difference between the newest and the previous time slot's
    /// slopes — "the current quarter vs. the last quarter".
    SlotDelta,
}

impl RefMode {
    /// Computes the score this mode tests against the threshold, given the
    /// newest measure and (optionally) the previous slot's measure.
    pub fn score(self, current: &Isb, previous: Option<&Isb>) -> f64 {
        match self {
            RefMode::OwnSlope => exception_score(current),
            RefMode::SlotDelta => match previous {
                Some(prev) => (current.slope() - prev.slope()).abs(),
                None => exception_score(current),
            },
        }
    }
}

/// A threshold policy with the paper's three scopes: per-cuboid overrides,
/// per-total-depth overrides, and a cube-wide default (resolution order:
/// cuboid → depth → default).
#[derive(Debug, Clone, PartialEq)]
pub struct ExceptionPolicy {
    default_threshold: f64,
    per_depth: FxHashMap<u32, f64>,
    per_cuboid: FxHashMap<CuboidSpec, f64>,
    ref_mode: RefMode,
}

impl ExceptionPolicy {
    /// A cube-wide slope-magnitude threshold.
    pub fn slope_threshold(threshold: f64) -> Self {
        ExceptionPolicy {
            default_threshold: threshold,
            per_depth: FxHashMap::default(),
            per_cuboid: FxHashMap::default(),
            ref_mode: RefMode::OwnSlope,
        }
    }

    /// A policy under which no cell is exceptional (threshold `+∞`).
    pub fn never() -> Self {
        ExceptionPolicy::slope_threshold(f64::INFINITY)
    }

    /// A policy under which every cell is exceptional (threshold `0`).
    pub fn always() -> Self {
        ExceptionPolicy::slope_threshold(0.0)
    }

    /// Adds a per-cuboid threshold override.
    ///
    /// # Errors
    /// [`CoreError::BadPolicy`] for negative or NaN thresholds.
    pub fn with_cuboid_threshold(mut self, cuboid: CuboidSpec, threshold: f64) -> Result<Self> {
        Self::check(threshold)?;
        self.per_cuboid.insert(cuboid, threshold);
        Ok(self)
    }

    /// Adds a per-total-depth threshold override ("for each dimension
    /// level d"): applies to every cuboid whose levels sum to `depth`.
    ///
    /// # Errors
    /// [`CoreError::BadPolicy`] for negative or NaN thresholds.
    pub fn with_depth_threshold(mut self, depth: u32, threshold: f64) -> Result<Self> {
        Self::check(threshold)?;
        self.per_depth.insert(depth, threshold);
        Ok(self)
    }

    /// Selects the reference mode (own slope vs. slot delta).
    pub fn with_ref_mode(mut self, mode: RefMode) -> Self {
        self.ref_mode = mode;
        self
    }

    fn check(threshold: f64) -> Result<()> {
        if threshold.is_nan() || threshold < 0.0 {
            return Err(CoreError::BadPolicy {
                detail: format!("threshold {threshold} must be a nonnegative number"),
            });
        }
        Ok(())
    }

    /// The reference mode.
    #[inline]
    pub fn ref_mode(&self) -> RefMode {
        self.ref_mode
    }

    /// The threshold effective for `cuboid`.
    pub fn threshold_for(&self, cuboid: &CuboidSpec) -> f64 {
        if let Some(&t) = self.per_cuboid.get(cuboid) {
            return t;
        }
        if let Some(&t) = self.per_depth.get(&cuboid.total_depth()) {
            return t;
        }
        self.default_threshold
    }

    /// Tests a cell measure in `cuboid` against the effective threshold
    /// (own-slope reference; slot-aware callers use [`RefMode::score`]).
    #[inline]
    pub fn is_exception(&self, cuboid: &CuboidSpec, measure: &Isb) -> bool {
        exception_score(measure) >= self.threshold_for(cuboid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn isb(slope: f64) -> Isb {
        Isb::new(0, 9, 0.0, slope).unwrap()
    }

    #[test]
    fn global_threshold() {
        let p = ExceptionPolicy::slope_threshold(0.5);
        let c = CuboidSpec::new(vec![1, 1]);
        assert!(p.is_exception(&c, &isb(0.5)));
        assert!(p.is_exception(&c, &isb(-0.9)));
        assert!(!p.is_exception(&c, &isb(0.49)));
    }

    #[test]
    fn never_and_always() {
        let c = CuboidSpec::new(vec![1]);
        assert!(!ExceptionPolicy::never().is_exception(&c, &isb(1e12)));
        assert!(ExceptionPolicy::always().is_exception(&c, &isb(0.0)));
    }

    #[test]
    fn scope_resolution_order() {
        let special = CuboidSpec::new(vec![2, 0]);
        let same_depth = CuboidSpec::new(vec![1, 1]);
        let other = CuboidSpec::new(vec![1, 0]);
        let p = ExceptionPolicy::slope_threshold(0.5)
            .with_depth_threshold(2, 0.3)
            .unwrap()
            .with_cuboid_threshold(special.clone(), 0.1)
            .unwrap();
        assert_eq!(p.threshold_for(&special), 0.1); // cuboid override wins
        assert_eq!(p.threshold_for(&same_depth), 0.3); // depth override
        assert_eq!(p.threshold_for(&other), 0.5); // default
    }

    #[test]
    fn invalid_thresholds_are_rejected() {
        assert!(ExceptionPolicy::slope_threshold(0.5)
            .with_depth_threshold(1, -1.0)
            .is_err());
        assert!(ExceptionPolicy::slope_threshold(0.5)
            .with_cuboid_threshold(CuboidSpec::new(vec![1]), f64::NAN)
            .is_err());
    }

    #[test]
    fn ref_modes_score_differently() {
        let cur = isb(0.8);
        let prev = isb(0.7);
        assert!((RefMode::OwnSlope.score(&cur, Some(&prev)) - 0.8).abs() < 1e-12);
        assert!((RefMode::SlotDelta.score(&cur, Some(&prev)) - 0.1).abs() < 1e-9);
        // Without history, slot-delta falls back to the own slope.
        assert!((RefMode::SlotDelta.score(&cur, None) - 0.8).abs() < 1e-12);
        assert_eq!(RefMode::default(), RefMode::OwnSlope);
    }

    #[test]
    fn policy_builder_keeps_mode() {
        let p = ExceptionPolicy::slope_threshold(1.0).with_ref_mode(RefMode::SlotDelta);
        assert_eq!(p.ref_mode(), RefMode::SlotDelta);
    }
}
