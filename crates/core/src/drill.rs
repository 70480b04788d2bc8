//! Exception-guided drilling over a computed cube (Section 4.3's analyst
//! workflow: watch the o-layer, then "drill on the exception cells down to
//! lower layers to find their corresponding exception supporters").
//!
//! The two drills read the cube differently:
//! - [`drill_children`] reads only one-step finer cuboids. Such a child
//!   differs from the drilled cuboid in a single dimension `d`, by one
//!   level, so the descendants of a cell there are the rows that agree
//!   with the cell's key everywhere but `d`, where their id is a
//!   hierarchy child of `key[d]`. Per child it reads whichever is fewer
//!   rows: it **probes** the table once per hierarchy child of `key[d]`
//!   (the hierarchy serves as the parent → children index), or, when the
//!   table holds no more rows than that, it **scans** the table and
//!   tests each row's parent. Exception tables between the critical
//!   layers are usually that small.
//! - [`drill_descendants`] **scans** every strictly finer cuboid's table
//!   and keeps the rows that project onto the drilled cell.
//!
//! Both read the same store per cuboid with the same exception filter,
//! and sort hits the same way, so a descendant found by either drill is
//! reported identically.

use crate::result::CubeResult;
use crate::table::{CuboidTable, Projector};
use crate::ExceptionPolicy;
use regcube_olap::cell::CellKey;
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_regress::Isb;

/// One step of a drill-down: an exceptional descendant cell.
#[derive(Debug, Clone, PartialEq)]
pub struct DrillHit {
    /// The cuboid the hit lives in.
    pub cuboid: CuboidSpec,
    /// The cell's member-id key.
    pub key: CellKey,
    /// The cell's regression measure.
    pub measure: Isb,
}

/// Dimensions whose probe key and child levels a drill keeps on the
/// stack; wider cuboids use the heap.
const STACK_DIMS: usize = 8;

/// Finds the retained exceptional cells in the **one-step finer** cuboids
/// that are descendants of `(cuboid, key)` — the "exception supporters"
/// an analyst inspects first.
///
/// Reads only what it could return: per lattice child refining
/// dimension `d`, one table probe per hierarchy child of `key[d]`, or
/// one pass over the child's table when that holds no more rows. A key
/// whose arity differs from the cuboid's, or whose refined id is out of
/// range, has no children and yields no hits.
pub fn drill_children(
    schema: &CubeSchema,
    cube: &CubeResult,
    cuboid: &CuboidSpec,
    key: &CellKey,
) -> Vec<DrillHit> {
    drill_children_reads(schema, cube, cuboid, key).0
}

/// [`drill_children`], and how many lattice children it read by
/// scanning their table and by probing it: `(scanned, probed)`. A test
/// probe for the choice between the two reads, which the hits cannot
/// show.
#[doc(hidden)]
pub fn drill_children_reads(
    schema: &CubeSchema,
    cube: &CubeResult,
    cuboid: &CuboidSpec,
    key: &CellKey,
) -> (Vec<DrillHit>, (usize, usize)) {
    let mut hits = Vec::new();
    let mut reads = (0, 0);
    let n = cuboid.num_dims();
    let lattice = cube.layers().lattice();
    let (o, m) = (lattice.o_layer().levels(), lattice.m_layer().levels());
    if key.num_dims() != n || o.len() != n {
        return (hits, reads);
    }
    let (mut stack_ids, mut stack_levels) = ([0u32; STACK_DIMS], [0u8; STACK_DIMS]);
    let mut heap: (Vec<u32>, Vec<u8>);
    let (probe, levels) = if n <= STACK_DIMS {
        (&mut stack_ids[..n], &mut stack_levels[..n])
    } else {
        heap = (vec![0; n], vec![0; n]);
        (&mut heap.0[..], &mut heap.1[..])
    };
    probe.copy_from_slice(key.ids());
    levels.copy_from_slice(cuboid.levels());
    for d in 0..n {
        let (level, member) = (levels[d], probe[d]);
        let Some(finer) = level.checked_add(1) else {
            continue;
        };
        let hierarchy = schema.dims()[d].hierarchy();
        levels[d] = finer;
        let child: &[u8] = levels;
        let in_lattice = (0..n).all(|i| o[i] <= child[i] && child[i] <= m[i]);
        if in_lattice && member < hierarchy.cardinality(level) {
            if let Some((table, filter_exceptions)) = candidate_store(cube, child) {
                let threshold = filter_exceptions.then(|| cube.policy().threshold_at(child));
                let keep = |measure: &Isb| {
                    threshold.map_or(true, |t| ExceptionPolicy::is_exception_at(t, measure))
                };
                let mut hit = |k: &CellKey, measure: &Isb| {
                    hits.push(DrillHit {
                        cuboid: CuboidSpec::new(child.to_vec()),
                        key: k.clone(),
                        measure: *measure,
                    });
                };
                let children = hierarchy.child_ids(level, member);
                if table.len() <= children.len() {
                    reads.0 += 1;
                    for (k, measure) in table {
                        let ids = k.ids();
                        if ids[..d] == probe[..d]
                            && ids[d + 1..] == probe[d + 1..]
                            && hierarchy.parent(finer, ids[d]) == member
                            && keep(measure)
                        {
                            hit(k, measure);
                        }
                    }
                } else {
                    reads.1 += 1;
                    for id in children {
                        probe[d] = id;
                        if let Some((k, measure)) = table.get_key_value(&*probe) {
                            if keep(measure) {
                                hit(k, measure);
                            }
                        }
                    }
                    probe[d] = member;
                }
            }
        }
        levels[d] = level;
    }
    sort_hits(&mut hits);
    (hits, reads)
}

/// Finds **all** retained exceptional descendants of `(cuboid, key)` in
/// every strictly finer cuboid of the lattice, down to (and including) the
/// m-layer.
pub fn drill_descendants(
    schema: &CubeSchema,
    cube: &CubeResult,
    cuboid: &CuboidSpec,
    key: &CellKey,
) -> Vec<DrillHit> {
    let lattice = cube.layers().lattice();
    let mut hits = Vec::new();
    for finer in lattice.enumerate() {
        if &finer == cuboid || !cuboid.is_ancestor_or_equal(&finer) {
            continue;
        }
        collect_hits(schema, cube, cuboid, key, &finer, &mut hits);
    }
    sort_hits(&mut hits);
    hits
}

/// The table that holds `target`'s retained cells, and whether its rows
/// still need the exception filter: the critical layers and path tables
/// hold every cell, exception tables only screened ones. `None` when the
/// cube retains nothing in `target`.
fn candidate_store<'a>(cube: &'a CubeResult, target: &[u8]) -> Option<(&'a CuboidTable, bool)> {
    let lattice = cube.layers().lattice();
    if target == lattice.m_layer().levels() {
        Some((cube.m_table(), true))
    } else if target == lattice.o_layer().levels() {
        Some((cube.o_table(), true))
    } else if let Some(t) = cube.exceptions_at(target) {
        Some((t, false))
    } else {
        cube.path_tables().get(target).map(|t| (t, true))
    }
}

/// Scans `target` (a descendant cuboid of `ancestor`) for the exceptional
/// cells whose projection to `ancestor` equals `key` — the descendant
/// drill's read, which has to visit every row because a multi-step
/// descendant's cells are not enumerable from the hierarchy cheaply.
///
/// Allocation-free per row: projections go through the [`Projector`]
/// lookup tables into one reusable scratch buffer and are compared as
/// plain id slices, so the scan never boxes a [`CellKey`] for a cell it
/// does not return.
fn collect_hits(
    schema: &CubeSchema,
    cube: &CubeResult,
    ancestor: &CuboidSpec,
    key: &CellKey,
    target: &CuboidSpec,
    hits: &mut Vec<DrillHit>,
) {
    let Some((table, filter_exceptions)) = candidate_store(cube, target.levels()) else {
        return;
    };
    let policy = cube.policy();
    let projector = Projector::new(schema, target, ancestor);
    let mut projected = vec![0u32; schema.num_dims()];
    for (k, m) in table {
        if filter_exceptions && !policy.is_exception(target, m) {
            continue;
        }
        projector.project_into(k.ids(), &mut projected);
        if projected.as_slice() == key.ids() {
            hits.push(DrillHit {
                cuboid: target.clone(),
                key: k.clone(),
                measure: *m,
            });
        }
    }
}

fn sort_hits(hits: &mut [DrillHit]) {
    hits.sort_by(|a, b| {
        crate::measure::exception_score(&b.measure)
            .partial_cmp(&crate::measure::exception_score(&a.measure))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.cuboid.cmp(&b.cuboid))
            .then_with(|| a.key.cmp(&b.key))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exception::ExceptionPolicy;
    use crate::layers::CriticalLayers;
    use crate::measure::MTuple;
    use crate::mo_cubing;
    use regcube_olap::CubeSchema;
    use regcube_regress::TimeSeries;

    fn isb(slope: f64) -> Isb {
        let z = TimeSeries::from_fn(0, 9, |t| slope * t as f64).unwrap();
        Isb::fit(&z).unwrap()
    }

    fn setup() -> (CubeSchema, CubeResult) {
        let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
        let layers = CriticalLayers::new(
            &schema,
            CuboidSpec::new(vec![0, 0]),
            CuboidSpec::new(vec![2, 2]),
        )
        .unwrap();
        // One strongly trending stream under member (0,0), flat elsewhere.
        let mut tuples = vec![MTuple::new(vec![0, 0], isb(2.0))];
        for a in 0..4u32 {
            for b in 0..4u32 {
                if (a, b) != (0, 0) {
                    tuples.push(MTuple::new(vec![a, b], isb(0.01)));
                }
            }
        }
        let cube = mo_cubing::compute(
            &schema,
            &layers,
            &ExceptionPolicy::slope_threshold(1.0),
            &tuples,
        )
        .unwrap();
        (schema, cube)
    }

    #[test]
    fn drilling_follows_the_hot_stream() {
        let (schema, cube) = setup();
        // The apex is exceptional (slope ≈ 2 + 15*0.01).
        let o_hot = cube.exceptional_o_cells();
        assert_eq!(o_hot.len(), 1);

        let apex = CuboidSpec::new(vec![0, 0]);
        let key = CellKey::new(vec![0, 0]);
        let children = drill_children(&schema, &cube, &apex, &key);
        assert!(!children.is_empty());
        // Every child hit must be an ancestor chain member of the hot
        // m-cell (0,0): its key projects from member 0s only.
        for hit in &children {
            assert!(hit.key.ids().iter().all(|&id| id == 0), "{}", hit.key);
            assert!(hit.measure.slope() > 1.0);
        }

        let all = drill_descendants(&schema, &cube, &apex, &key);
        assert!(all.len() >= children.len());
        // The m-layer hot cell itself is among the descendants.
        assert!(all
            .iter()
            .any(|h| h.cuboid == CuboidSpec::new(vec![2, 2]) && h.key == CellKey::new(vec![0, 0])));
        // Hits are sorted by descending exception score.
        for pair in all.windows(2) {
            assert!(
                crate::measure::exception_score(&pair[0].measure)
                    >= crate::measure::exception_score(&pair[1].measure)
            );
        }
    }

    #[test]
    fn drilling_a_quiet_cell_finds_nothing() {
        let (schema, cube) = setup();
        // Member 3 at L1 covers m-members {6,7} x ... all quiet.
        let quiet = CuboidSpec::new(vec![1, 0]);
        let key = CellKey::new(vec![1, 0]);
        let hits = drill_descendants(&schema, &cube, &quiet, &key);
        assert!(hits.is_empty(), "{hits:?}");
    }
}
