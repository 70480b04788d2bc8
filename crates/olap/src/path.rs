//! Popular drilling paths (the backbone of Algorithm 2).
//!
//! A popular path is a monotone chain of cuboids from the o-layer down to
//! the m-layer in which consecutive cuboids differ by exactly one level of
//! one dimension. Example 5's path
//! `⟨(A1,C1) → B1 → B2 → A2 → C2⟩` visits
//! `(A1,*,C1), (A1,B1,C1), (A1,B2,C1), (A2,B2,C1), (A2,B2,C2)`.

use crate::cuboid::CuboidSpec;
use crate::error::OlapError;
use crate::lattice::Lattice;
use crate::Result;

/// A monotone refinement chain of cuboids from the o-layer (first) to the
/// m-layer (last).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PopularPath {
    cuboids: Vec<CuboidSpec>,
}

impl PopularPath {
    /// Builds a path from an explicit cuboid chain.
    ///
    /// # Errors
    /// [`OlapError::BadPath`] unless the chain starts at the lattice's
    /// o-layer, ends at its m-layer, and each consecutive pair differs by
    /// exactly one level on one dimension.
    pub fn new(lattice: &Lattice, cuboids: Vec<CuboidSpec>) -> Result<Self> {
        let Some(first) = cuboids.first() else {
            return Err(OlapError::BadPath {
                detail: "path is empty".into(),
            });
        };
        if first != lattice.o_layer() {
            return Err(OlapError::BadPath {
                detail: format!(
                    "path starts at {first}, not the o-layer {}",
                    lattice.o_layer()
                ),
            });
        }
        let last = cuboids.last().expect("non-empty");
        if last != lattice.m_layer() {
            return Err(OlapError::BadPath {
                detail: format!("path ends at {last}, not the m-layer {}", lattice.m_layer()),
            });
        }
        for pair in cuboids.windows(2) {
            if pair[0].single_step_dim(&pair[1]).is_none() {
                return Err(OlapError::BadPath {
                    detail: format!("{} -> {} is not a single refinement step", pair[0], pair[1]),
                });
            }
        }
        Ok(PopularPath { cuboids })
    }

    /// Builds the path that refines dimensions in the given drill order:
    /// each entry names a dimension to refine by one level. Example 5's
    /// order for the lattice `(A1,*,C1) .. (A2,B2,C2)` is `[B, B, A, C]`
    /// (refine B twice, then A, then C).
    ///
    /// # Errors
    /// [`OlapError::BadPath`] when the steps run a dimension past the
    /// m-layer or do not end exactly at the m-layer.
    pub fn from_drill_order(lattice: &Lattice, drill_dims: &[usize]) -> Result<Self> {
        let mut cuboids = vec![lattice.o_layer().clone()];
        let mut current = lattice.o_layer().clone();
        for &d in drill_dims {
            let next = current.refine(d).ok_or_else(|| OlapError::BadPath {
                detail: format!("cannot refine dimension {d} of {current}"),
            })?;
            if !lattice.contains(&next) {
                return Err(OlapError::BadPath {
                    detail: format!("step on dimension {d} leaves the lattice at {next}"),
                });
            }
            cuboids.push(next.clone());
            current = next;
        }
        PopularPath::new(lattice, cuboids)
    }

    /// The default path: refines dimension 0 to its m-level, then
    /// dimension 1, and so on — a reasonable stand-in when the application
    /// does not specify analyst drilling habits.
    ///
    /// # Errors
    /// Propagates [`Self::from_drill_order`] errors (cannot occur for a
    /// valid lattice).
    pub fn default_for(lattice: &Lattice) -> Result<Self> {
        let mut order = Vec::new();
        for d in 0..lattice.o_layer().num_dims() {
            let steps = lattice.m_layer().level(d) - lattice.o_layer().level(d);
            order.extend(std::iter::repeat(d).take(steps as usize));
        }
        PopularPath::from_drill_order(lattice, &order)
    }

    /// The cuboids along the path, o-layer first.
    #[inline]
    pub fn cuboids(&self) -> &[CuboidSpec] {
        &self.cuboids
    }

    /// Number of cuboids on the path (steps + 1).
    #[inline]
    pub fn len(&self) -> usize {
        self.cuboids.len()
    }

    /// Paths always contain at least the o-layer.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `true` when `cuboid` lies on the path.
    pub fn contains(&self, cuboid: &CuboidSpec) -> bool {
        self.cuboids.contains(cuboid)
    }

    /// The dimension-refinement order of the path (one entry per step).
    pub fn drill_order(&self) -> Vec<usize> {
        self.cuboids
            .windows(2)
            .map(|pair| {
                pair[0]
                    .single_step_dim(&pair[1])
                    .expect("validated at construction")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::CubeSchema;

    fn example5() -> Lattice {
        let schema = CubeSchema::synthetic(3, 3, 3).unwrap();
        Lattice::new(
            &schema,
            CuboidSpec::new(vec![1, 0, 1]),
            CuboidSpec::new(vec![2, 2, 2]),
        )
        .unwrap()
    }

    #[test]
    fn example5_path_matches_the_paper() {
        let lattice = example5();
        // ⟨(A1,C1) → B1 → B2 → A2 → C2⟩: refine B, B, A, C.
        let path = PopularPath::from_drill_order(&lattice, &[1, 1, 0, 2]).unwrap();
        let levels: Vec<&[u8]> = path.cuboids().iter().map(CuboidSpec::levels).collect();
        assert_eq!(
            levels,
            vec![
                &[1u8, 0, 1][..],
                &[1, 1, 1],
                &[1, 2, 1],
                &[2, 2, 1],
                &[2, 2, 2],
            ]
        );
        assert_eq!(path.drill_order(), vec![1, 1, 0, 2]);
        assert_eq!(path.len(), 5);
        assert!(!path.is_empty());
        assert!(path.contains(&CuboidSpec::new(vec![1, 2, 1])));
        assert!(!path.contains(&CuboidSpec::new(vec![2, 1, 1])));
    }

    #[test]
    fn default_path_spans_the_lattice() {
        let lattice = example5();
        let path = PopularPath::default_for(&lattice).unwrap();
        assert_eq!(path.cuboids().first().unwrap(), lattice.o_layer());
        assert_eq!(path.cuboids().last().unwrap(), lattice.m_layer());
        // Total steps = total depth difference.
        let expected_steps = lattice.m_layer().total_depth() - lattice.o_layer().total_depth();
        assert_eq!(path.len() as u32, expected_steps + 1);
    }

    #[test]
    fn invalid_paths_are_rejected() {
        let lattice = example5();
        // Empty.
        assert!(PopularPath::new(&lattice, vec![]).is_err());
        // Wrong start.
        assert!(PopularPath::new(
            &lattice,
            vec![
                CuboidSpec::new(vec![1, 1, 1]),
                CuboidSpec::new(vec![2, 2, 2])
            ],
        )
        .is_err());
        // Wrong end.
        assert!(PopularPath::new(&lattice, vec![lattice.o_layer().clone()]).is_err());
        // Non-single step.
        assert!(PopularPath::new(
            &lattice,
            vec![lattice.o_layer().clone(), lattice.m_layer().clone()],
        )
        .is_err());
        // Drill order that overshoots a dimension.
        assert!(PopularPath::from_drill_order(&lattice, &[0, 0, 0, 0]).is_err());
        // Drill order that stops short of the m-layer.
        assert!(PopularPath::from_drill_order(&lattice, &[1, 1]).is_err());
    }
}
