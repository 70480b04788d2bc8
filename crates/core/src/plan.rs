//! Choosing between the two cubing algorithms.
//!
//! The paper's performance study ends: "The choice of which one should be
//! dependent on the **expected exception ratio**, the **total (main)
//! memory size**, the **desired response time**, and how computing
//! exception cells along a fixed path fits the needs of the application."
//! This module encodes that guidance as a transparent cost model over the
//! quantities the study measured (Figures 8–10):
//!
//! * **work**: m/o-cubing touches every cell of every lattice cuboid;
//!   popular-path touches the path cuboids plus the drilled share of the
//!   off-path cells (∝ exception ratio);
//! * **memory**: m/o-cubing retains the critical layers plus the
//!   exceptional share of the between-cells; popular-path additionally
//!   retains every path cuboid in full.
//!
//! The estimates are *relative* (cells, not seconds), which is exactly
//! what an algorithm choice needs; they are validated against the real
//! algorithms' run statistics in the tests.

use crate::layers::CriticalLayers;
use crate::result::Algorithm;
use regcube_olap::PopularPath;

/// Inputs to the advisor: what the application knows or expects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanInputs {
    /// Number of m-layer cells in a typical window.
    pub m_cells: u64,
    /// Expected fraction of aggregated cells that are exceptional (0..1),
    /// e.g. the previous window's measured rate.
    pub exception_ratio: f64,
    /// Optional memory budget in *cells* the application can retain
    /// (`None` = unconstrained).
    pub retained_cell_budget: Option<u64>,
    /// `true` when the analyst's drilling habits match a fixed path (the
    /// qualitative criterion the paper names last).
    pub drilling_follows_path: bool,
}

/// The advisor's cost estimates for one algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Cells the algorithm computes (its work measure).
    pub computed_cells: f64,
    /// Cells the algorithm retains (its memory measure).
    pub retained_cells: f64,
}

/// A recommendation with its reasoning.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// The recommended algorithm.
    pub algorithm: Algorithm,
    /// Cost estimate for Algorithm 1.
    pub mo: CostEstimate,
    /// Cost estimate for Algorithm 2.
    pub popular_path: CostEstimate,
    /// Human-readable rationale.
    pub rationale: String,
}

/// Estimates the per-cuboid cell population: each lattice cuboid's table
/// is bounded by the m-layer's cell count (aggregation only shrinks), and
/// coarser cuboids shrink geometrically. We use the conservative bound
/// `m_cells` per cuboid, which is tight near the m-layer and loose near
/// the o-layer — adequate for *relative* comparison because it biases
/// both algorithms identically.
fn cells_per_cuboid(m_cells: u64) -> f64 {
    m_cells as f64
}

/// Computes both cost estimates and recommends an algorithm.
pub fn recommend(layers: &CriticalLayers, inputs: &PlanInputs) -> Recommendation {
    let lattice = layers.lattice();
    let cuboids = lattice.count() as f64;
    let path_len = PopularPath::default_for(lattice)
        .map(|p| p.len() as f64)
        .unwrap_or(2.0);
    let per = cells_per_cuboid(inputs.m_cells);
    let rate = inputs.exception_ratio.clamp(0.0, 1.0);
    let between = (cuboids - 2.0).max(0.0);

    // Algorithm 1: computes every cuboid; retains m + o + exceptional
    // share of the between-cells.
    let mo = CostEstimate {
        computed_cells: cuboids * per,
        retained_cells: 2.0 * per + rate * between * per,
    };
    // Algorithm 2: computes the path in full plus the drilled share of
    // off-path cuboids; retains the whole path plus drilled exceptions.
    let off_path = (cuboids - path_len).max(0.0);
    let pp = CostEstimate {
        computed_cells: path_len * per + rate * off_path * per,
        retained_cells: path_len * per + rate * off_path * per,
    };

    // Memory budget first: a hard constraint beats speed, and the
    // retention estimates are deterministic (they are cell counts, not
    // timings).
    if let Some(budget) = inputs.retained_cell_budget {
        let b = budget as f64;
        let mo_fits = mo.retained_cells <= b;
        let pp_fits = pp.retained_cells <= b;
        if mo_fits != pp_fits {
            let (algorithm, name) = if mo_fits {
                (Algorithm::MoCubing, "m/o-cubing")
            } else {
                (Algorithm::PopularPath, "popular-path")
            };
            return Recommendation {
                algorithm,
                mo,
                popular_path: pp,
                rationale: format!("only {name} fits the retained-cell budget of {budget}"),
            };
        }
    }

    // Response time: qualitative bands, following the paper's own
    // analysis (and our Figure 8 measurements). Computed-
    // cell counts alone mislead here — popular-path's filtered scans pay
    // per-row parent checks that erase its cell-count advantage once
    // exceptions are plentiful.
    const LOW_RATE: f64 = 0.05; // drilling clearly cheap below this
    const HIGH_RATE: f64 = 0.5; // shared full computation clearly wins above
    if rate < LOW_RATE {
        Recommendation {
            algorithm: Algorithm::PopularPath,
            mo,
            popular_path: pp,
            rationale: format!(
                "low expected exception ratio {rate:.3}: drilling touches few \
                 cells (~{:.0} vs {:.0} computed)",
                pp.computed_cells, mo.computed_cells
            ),
        }
    } else if rate > HIGH_RATE {
        Recommendation {
            algorithm: Algorithm::MoCubing,
            mo,
            popular_path: pp,
            rationale: format!(
                "high expected exception ratio {rate:.3}: shared full \
                 computation beats per-row drill filtering (Figure 8a)"
            ),
        }
    } else if inputs.drilling_follows_path {
        Recommendation {
            algorithm: Algorithm::PopularPath,
            mo,
            popular_path: pp,
            rationale: format!(
                "moderate exception ratio {rate:.3} and analyst drilling \
                 matches the path: its cuboids double as the working set"
            ),
        }
    } else {
        Recommendation {
            algorithm: Algorithm::MoCubing,
            mo,
            popular_path: pp,
            rationale: format!(
                "moderate exception ratio {rate:.3} without path affinity: \
                 m/o-cubing reuses intermediate results more effectively"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exception::ExceptionPolicy;
    use crate::measure::MTuple;
    use crate::{mo_cubing, popular_path};
    use regcube_olap::{CubeSchema, CuboidSpec};
    use regcube_regress::{Isb, TimeSeries};

    fn layers(dims: usize, depth: u8, fanout: u32) -> (CubeSchema, CriticalLayers) {
        let schema = CubeSchema::synthetic(dims, depth, fanout).unwrap();
        let l = CriticalLayers::new(
            &schema,
            CuboidSpec::new(vec![0; dims]),
            CuboidSpec::new(vec![depth; dims]),
        )
        .unwrap();
        (schema, l)
    }

    #[test]
    fn low_exception_rate_prefers_popular_path() {
        let (_, l) = layers(3, 2, 4);
        let rec = recommend(
            &l,
            &PlanInputs {
                m_cells: 10_000,
                exception_ratio: 0.001,
                retained_cell_budget: None,
                drilling_follows_path: false,
            },
        );
        assert_eq!(rec.algorithm, Algorithm::PopularPath);
        assert!(rec.popular_path.computed_cells < rec.mo.computed_cells);
    }

    #[test]
    fn high_exception_rate_prefers_mo_cubing() {
        let (_, l) = layers(3, 2, 4);
        let rec = recommend(
            &l,
            &PlanInputs {
                m_cells: 10_000,
                exception_ratio: 0.9,
                retained_cell_budget: None,
                drilling_follows_path: false,
            },
        );
        assert_eq!(rec.algorithm, Algorithm::MoCubing);
        assert!(rec.rationale.contains("high expected exception ratio"));
    }

    #[test]
    fn memory_budget_overrides_speed() {
        let (_, l) = layers(3, 2, 4);
        // At a low rate popular-path would win on time, but its path
        // retention blows a tight budget while m/o-cubing fits.
        let rec = recommend(
            &l,
            &PlanInputs {
                m_cells: 10_000,
                exception_ratio: 0.001,
                retained_cell_budget: Some(25_000),
                drilling_follows_path: false,
            },
        );
        assert_eq!(rec.algorithm, Algorithm::MoCubing);
        assert!(rec.rationale.contains("budget"));
    }

    #[test]
    fn path_affinity_breaks_moderate_rate_ties() {
        let (_, l) = layers(2, 2, 3);
        let mid = |follows| {
            recommend(
                &l,
                &PlanInputs {
                    m_cells: 1_000,
                    exception_ratio: 0.2,
                    retained_cell_budget: None,
                    drilling_follows_path: follows,
                },
            )
        };
        assert_eq!(mid(true).algorithm, Algorithm::PopularPath);
        assert_eq!(mid(false).algorithm, Algorithm::MoCubing);
    }

    #[test]
    fn estimates_track_real_run_statistics() {
        // The model's *ordering* must match reality on a real workload at
        // extreme rates.
        let (schema, l) = layers(2, 2, 3);
        let mut tuples = Vec::new();
        for a in 0..9u32 {
            for b in 0..9u32 {
                let slope = ((a * 9 + b) as f64) / 40.0 - 1.0;
                let z = TimeSeries::from_fn(0, 9, |t| slope * t as f64).unwrap();
                tuples.push(MTuple::new(vec![a, b], Isb::fit(&z).unwrap()));
            }
        }
        for (rate, threshold) in [(0.01, 1.1), (1.0, 0.0)] {
            let policy = ExceptionPolicy::slope_threshold(threshold);
            let a1 = mo_cubing::compute(&schema, &l, &policy, &tuples).unwrap();
            let a2 = popular_path::compute(&schema, &l, &policy, None, &tuples).unwrap();
            let rec = recommend(
                &l,
                &PlanInputs {
                    m_cells: tuples.len() as u64,
                    exception_ratio: rate,
                    retained_cell_budget: None,
                    drilling_follows_path: false,
                },
            );
            // Model ordering vs measured ordering on computed cells.
            let model_says_pp_cheaper = rec.popular_path.computed_cells <= rec.mo.computed_cells;
            let measured_pp_cheaper = a2.stats().cells_computed <= a1.stats().cells_computed;
            assert_eq!(
                model_says_pp_cheaper, measured_pp_cheaper,
                "rate {rate}: model and measurement disagree"
            );
        }
    }
}
