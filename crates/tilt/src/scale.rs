//! Tilt-frame specifications: the granularity ladder.

use crate::error::TiltError;
use crate::Result;
use std::sync::Arc;

/// One granularity level of a tilt frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelSpec {
    /// Human-readable unit name ("quarter", "hour", …).
    pub name: String,
    /// Capacity in slots. For every level but the coarsest this is also
    /// the promotion group: when `group` slots complete, they merge into
    /// one slot of the next level. The coarsest level's `group` is pure
    /// retention — its oldest slot ages out on overflow.
    pub group: usize,
}

/// A tilt time frame specification: levels ordered finest → coarsest.
///
/// The levels sit behind an [`Arc`], so every frame of an engine (and
/// every snapshot of those frames) shares one copy: cloning a spec is a
/// reference-count bump, not a `Vec` of owned names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TiltSpec {
    levels: Arc<[LevelSpec]>,
}

/// What one level of a frame holds once the frame has ingested a given
/// number of finest units (see [`TiltSpec::shape`]).
pub(crate) struct LevelShape {
    /// Finest units one unit of the level spans.
    pub per: u64,
    /// Units of the level completed so far; the level's newest retained
    /// slot, if it retains any, is unit `completed - 1`.
    pub completed: u64,
    /// Slots the level retains.
    pub len: usize,
}

impl TiltSpec {
    /// Builds a spec from `(name, group)` pairs ordered finest → coarsest.
    ///
    /// # Errors
    /// [`TiltError::BadSpec`] when no levels are given, any group is
    /// smaller than 2 (a group of 1 would promote every slot immediately
    /// and the level could never be observed), or the frame would span
    /// more finest units than a `u64` counts.
    pub fn new(levels: Vec<(&str, usize)>) -> Result<Self> {
        if levels.is_empty() {
            return Err(TiltError::BadSpec {
                detail: "tilt spec needs at least one level".into(),
            });
        }
        if let Some((name, g)) = levels.iter().find(|(_, g)| *g < 2) {
            return Err(TiltError::BadSpec {
                detail: format!("level {name} has group {g}; groups must be >= 2"),
            });
        }
        if span(levels.iter().map(|&(_, group)| group)).is_none() {
            return Err(TiltError::BadSpec {
                detail: format!("the frame spans more than {} finest units", u64::MAX),
            });
        }
        Ok(TiltSpec {
            levels: levels
                .into_iter()
                .map(|(name, group)| LevelSpec {
                    name: name.to_string(),
                    group,
                })
                .collect(),
        })
    }

    /// The paper's Figure 4 frame: 4 quarters, 24 hours, 31 days,
    /// 12 months.
    pub fn paper_figure4() -> TiltSpec {
        TiltSpec::new(vec![
            ("quarter", 4),
            ("hour", 24),
            ("day", 31),
            ("month", 12),
        ])
        .expect("static spec is valid")
    }

    /// The levels, finest first.
    #[inline]
    pub fn levels(&self) -> &[LevelSpec] {
        &self.levels
    }

    /// Number of granularity levels.
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Maximum number of retained slots: `Σ group`.
    /// Figure 4: `4 + 24 + 31 + 12 = 71`.
    pub fn capacity_slots(&self) -> usize {
        self.levels.iter().map(|l| l.group).sum()
    }

    /// How many finest units one unit of `level` spans:
    /// `∏_{i < level} group_i`.
    pub fn finest_units_per(&self, level: usize) -> Result<u64> {
        if level >= self.levels.len() {
            return Err(TiltError::UnknownLevel {
                level,
                count: self.levels.len(),
            });
        }
        Ok(self.levels[..level]
            .iter()
            .map(|l| l.group as u64)
            .product())
    }

    /// The shape of a frame after `next_unit` pushes, finest level first.
    /// Promotion is a mixed-radix carry — a level promotes exactly when
    /// its `group`-th slot completes — so what each level retains is a
    /// digit of `next_unit`, and the coarsest level (which ages out
    /// instead of promoting) retains its newest `group` units.
    pub(crate) fn shape(&self, next_unit: u64) -> impl Iterator<Item = LevelShape> + '_ {
        let top = self.levels.len() - 1;
        let mut per = 1u64;
        self.levels.iter().enumerate().map(move |(idx, level)| {
            let group = level.group as u64;
            let completed = next_unit / per;
            let len = if idx == top {
                completed.min(group)
            } else {
                completed % group
            };
            let shape = LevelShape {
                per,
                completed,
                len: len as usize,
            };
            per *= group;
            shape
        })
    }

    /// Finest units a frame has aged out of its coarsest level after
    /// `next_unit` pushes: every coarsest unit older than the retained
    /// ones.
    pub(crate) fn expired_units(&self, next_unit: u64) -> u64 {
        let top = self
            .shape(next_unit)
            .last()
            .expect("a spec has at least one level");
        (top.completed - top.len as u64) * top.per
    }

    /// Total finest units the full frame spans when every level is at
    /// capacity. Figure 4: `4 + 24·4 + 31·96 + 12·2976 = 38,788` quarters
    /// — more than a flat year because the month level alone retains 12
    /// months of 31 days.
    pub fn span_finest_units(&self) -> u64 {
        span(self.levels.iter().map(|l| l.group)).expect("TiltSpec::new refuses a wider span")
    }

    /// The flat-registration slot count the paper compares against: the
    /// number of finest units in `flat_span` (e.g. a 366-day year of
    /// quarters = 35,136), divided by the frame's capacity to obtain the
    /// saving ratio.
    pub fn compression_ratio(&self, flat_slots: u64) -> f64 {
        flat_slots as f64 / self.capacity_slots() as f64
    }
}

/// `Σ group_l · ∏_{i < l} group_i` over levels finest first — the
/// finest units a full frame spans — or `None` past `u64::MAX`. Every
/// level's unit size, and every promotion's, is at most this.
fn span(mut groups: impl Iterator<Item = usize>) -> Option<u64> {
    let (span, _) = groups.try_fold((0u64, 1u64), |(span, per), group| {
        let per = per.checked_mul(group as u64)?;
        Some((span.checked_add(per)?, per))
    })?;
    Some(span)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_spec_matches_example3() {
        let spec = TiltSpec::paper_figure4();
        assert_eq!(spec.num_levels(), 4);
        assert_eq!(spec.capacity_slots(), 71);
        // Example 3: a year registered flat at quarter granularity needs
        // 366 * 24 * 4 = 35,136 units; the tilt frame registers 71 —
        // "a saving of about 495 times".
        let flat = 366 * 24 * 4;
        assert_eq!(flat, 35_136);
        let ratio = spec.compression_ratio(flat);
        assert!((ratio - 494.87).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn unit_spans() {
        let spec = TiltSpec::paper_figure4();
        assert_eq!(spec.finest_units_per(0).unwrap(), 1); // quarter
        assert_eq!(spec.finest_units_per(1).unwrap(), 4); // hour
        assert_eq!(spec.finest_units_per(2).unwrap(), 96); // day
        assert_eq!(spec.finest_units_per(3).unwrap(), 2976); // "month"
        assert!(spec.finest_units_per(4).is_err());
        assert_eq!(spec.span_finest_units(), 4 + 96 + 2976 + 35_712);
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        assert!(TiltSpec::new(vec![]).is_err());
        assert!(TiltSpec::new(vec![("a", 1)]).is_err());
        assert!(TiltSpec::new(vec![("a", 0)]).is_err());
        assert!(TiltSpec::new(vec![("a", 2)]).is_ok());
    }

    /// A spec whose span does not fit a `u64` would overflow
    /// `finest_units_per` and `span_finest_units`: it is refused.
    #[test]
    fn a_span_past_u64_is_refused() {
        let g = 1usize << 22;
        assert!(matches!(
            TiltSpec::new(vec![("a", g), ("b", g), ("c", g), ("d", 2)]),
            Err(TiltError::BadSpec { .. })
        ));
        let g = 1usize << 32;
        assert!(TiltSpec::new(vec![("a", g), ("b", g)]).is_err());
        // (2³² − 1) + (2³² − 1) · 2³² = 2⁶⁴ − 1: just inside.
        let spec = TiltSpec::new(vec![("a", g - 1), ("b", g)]).unwrap();
        assert_eq!(spec.span_finest_units(), u64::MAX);
        assert_eq!(spec.finest_units_per(1).unwrap(), g as u64 - 1);
        // 2⁶⁴ − 1 pushes age one top-level unit (2³² − 1 finest units)
        // out, and no step of the shape overflows.
        assert_eq!(spec.expired_units(u64::MAX), g as u64 - 1);
    }

    /// Checkpoints embed the spec's `Debug` text in their configuration
    /// fingerprint: it has to stay what a `Vec` of levels printed.
    #[test]
    fn debug_text_is_the_checkpoint_fingerprint_form() {
        let spec = TiltSpec::new(vec![("unit", 4), ("coarse", 3)]).unwrap();
        assert_eq!(
            format!("{spec:?}"),
            "TiltSpec { levels: [LevelSpec { name: \"unit\", group: 4 }, \
             LevelSpec { name: \"coarse\", group: 3 }] }"
        );
    }

    #[test]
    fn level_names_are_kept() {
        let spec = TiltSpec::paper_figure4();
        let names: Vec<&str> = spec.levels().iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, vec!["quarter", "hour", "day", "month"]);
    }
}
