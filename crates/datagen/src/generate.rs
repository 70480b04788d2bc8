//! Dataset generation: schema + m-layer tuples.

use crate::error::DatagenError;
use crate::series::LinearTrend;
use crate::spec::DatasetSpec;
use crate::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_regress::Isb;

/// One generated m-layer stream: member ids at the m-layer plus its
/// fitted ISB.
#[derive(Debug, Clone, PartialEq)]
pub struct GenTuple {
    /// Member ids, one per dimension, at the m-layer levels.
    pub ids: Vec<u32>,
    /// LSE fit of the stream over the analysis window.
    pub isb: Isb,
}

/// A complete synthetic dataset: schema, layer cuboids and tuples.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The generating specification.
    pub spec: DatasetSpec,
    /// Schema with one balanced hierarchy per dimension.
    pub schema: CubeSchema,
    /// The o-layer cuboid (level 1 on every dimension).
    pub o_layer: CuboidSpec,
    /// The m-layer cuboid (level `L` on every dimension).
    pub m_layer: CuboidSpec,
    /// The merged m-layer streams.
    pub tuples: Vec<GenTuple>,
}

impl Dataset {
    /// Generates the dataset for `spec`: uniform m-layer coordinates per
    /// stream and a series drawn from the trend mixture (see the
    /// `series` module).
    ///
    /// # Errors
    /// [`DatagenError`] for invalid shapes (propagated from the schema
    /// substrate).
    pub fn generate(spec: DatasetSpec) -> Result<Self> {
        let schema = CubeSchema::synthetic(spec.dims, spec.levels, spec.fanout).map_err(|e| {
            DatagenError::Substrate {
                detail: e.to_string(),
            }
        })?;
        let m_layer = CuboidSpec::new(vec![spec.m_level(); spec.dims]);
        let o_layer = CuboidSpec::new(vec![spec.o_level(); spec.dims]);
        let card =
            spec.fanout
                .checked_pow(u32::from(spec.levels))
                .ok_or(DatagenError::BadParameters {
                    detail: "m-layer cardinality overflow".into(),
                })?;

        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut tuples = Vec::with_capacity(spec.tuples);
        let mut seen = regcube_olap::fxhash::FxHashMap::default();
        for _ in 0..spec.tuples {
            let ids: Vec<u32> = (0..spec.dims).map(|_| rng.random_range(0..card)).collect();
            let model = LinearTrend::draw(&mut rng);
            let series = model.sample(&mut rng, 0, spec.series_len);
            let isb = Isb::fit(&series).map_err(|e| DatagenError::Substrate {
                detail: e.to_string(),
            })?;
            // The generator may hit the same m-cell twice ("merged"
            // streams); fold duplicates here so `tuples.len()` equals the
            // number of *distinct* m-layer streams, as the paper counts.
            match seen.entry(ids.clone()) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    let idx: usize = *e.get();
                    let t: &mut GenTuple = &mut tuples[idx];
                    t.isb =
                        regcube_regress::aggregate::merge_standard(&[t.isb, isb]).map_err(|e| {
                            DatagenError::Substrate {
                                detail: e.to_string(),
                            }
                        })?;
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(tuples.len());
                    tuples.push(GenTuple { ids, isb });
                }
            }
        }
        Ok(Dataset {
            spec,
            schema,
            o_layer,
            m_layer,
            tuples,
        })
    }

    /// A truncated copy with only the first `n` tuples — the paper's
    /// Figure 9 takes "appropriate subsets of the same 100K data set".
    pub fn subset(&self, n: usize) -> Dataset {
        Dataset {
            spec: self.spec,
            schema: self.schema.clone(),
            o_layer: self.o_layer.clone(),
            m_layer: self.m_layer.clone(),
            tuples: self.tuples[..n.min(self.tuples.len())].to_vec(),
        }
    }

    /// The common analysis window of all tuples.
    pub fn window(&self) -> (i64, i64) {
        (0, self.spec.series_len as i64 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> DatasetSpec {
        DatasetSpec::new(2, 2, 3, 200).unwrap().with_seed(7)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::generate(small_spec()).unwrap();
        let b = Dataset::generate(small_spec()).unwrap();
        assert_eq!(a.tuples, b.tuples);
        let c = Dataset::generate(small_spec().with_seed(8)).unwrap();
        assert_ne!(a.tuples, c.tuples);
    }

    #[test]
    fn shapes_follow_the_spec() {
        let d = Dataset::generate(small_spec()).unwrap();
        assert_eq!(d.schema.num_dims(), 2);
        assert_eq!(d.m_layer.levels(), &[2, 2]);
        assert_eq!(d.o_layer.levels(), &[1, 1]);
        // 200 draws into 9^2 = 81 cells: heavy merging, E[distinct] ≈ 74.
        assert!(d.tuples.len() <= 81, "duplicates are merged");
        assert!(d.tuples.len() > 50, "most cells get hit at least once");
        let card = 9;
        for t in &d.tuples {
            assert_eq!(t.ids.len(), 2);
            assert!(t.ids.iter().all(|&id| id < card));
            assert_eq!(t.isb.interval(), d.window());
        }
    }

    #[test]
    fn duplicate_cells_are_merged_not_repeated() {
        // Tiny space (card 2 per dim = 4 cells) with many tuples forces
        // collisions; distinct ids must be unique.
        let spec = DatasetSpec::new(2, 1, 2, 100).unwrap();
        let d = Dataset::generate(spec).unwrap();
        let mut keys: Vec<&[u32]> = d.tuples.iter().map(|t| t.ids.as_slice()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), d.tuples.len());
        assert!(d.tuples.len() <= 4);
    }

    #[test]
    fn subsets_truncate() {
        let d = Dataset::generate(small_spec()).unwrap();
        let s = d.subset(50);
        assert_eq!(s.tuples.len(), 50);
        assert_eq!(s.tuples[..], d.tuples[..50]);
        let all = d.subset(10_000);
        assert_eq!(all.tuples.len(), d.tuples.len());
    }
}
