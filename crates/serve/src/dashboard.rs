//! The dashboard query: a compact, allocation-light digest of one
//! tenant's published snapshot — what a fleet overview polls per
//! tenant, thousands of times a second, without ever touching an
//! engine lock.

use crate::tenant::TenantId;
use regcube_olap::cell::CellKey;
use regcube_stream::CubeSnapshot;

/// A digest of one tenant at one published unit boundary. Computed
/// entirely from an immutable [`CubeSnapshot`], so building one is a
/// pure read — it runs concurrently with that tenant's ingestion.
#[derive(Debug, Clone, PartialEq)]
pub struct DashboardSummary {
    /// Whose cube this summarizes.
    pub tenant: TenantId,
    /// The snapshot's publication epoch (units closed at capture).
    pub epoch: u64,
    /// The last closed unit, if any.
    pub unit: Option<i64>,
    /// Retained m-layer cells in the cube (0 before the first
    /// non-empty close).
    pub m_cells: usize,
    /// Retained o-layer cells.
    pub o_cells: usize,
    /// Retained exception cells across intermediate cuboids.
    pub exceptions: usize,
    /// Alarms raised by the last closed unit.
    pub alarms: usize,
    /// The hottest alarm of the last closed unit, as
    /// `(o-layer cell key, score)` — the headline number on a tenant
    /// tile. The key is kept as a key, not formatted: a display renders
    /// it (`{key}`) when it draws the tile.
    pub top_alarm: Option<(CellKey, f64)>,
    /// Cells retained across the whole cube at capture time
    /// ([`RunStats::cells_retained`](regcube_core::RunStats)).
    pub cells_retained: u64,
    /// Beyond-lateness records dropped (and counted) by this tenant's
    /// engine ([`RunStats::late_dropped`](regcube_core::RunStats)) —
    /// nonzero means the tenant's producers lag past the allowed
    /// lateness and history is losing their records.
    pub late_dropped: u64,
    /// Late records that amended already-warehoused units
    /// ([`RunStats::late_amendments`](regcube_core::RunStats)) —
    /// stragglers that arrived within the allowed lateness and were
    /// folded into the tilt frames exactly.
    pub late_amendments: u64,
}

impl DashboardSummary {
    /// Digests one published snapshot.
    pub fn of(tenant: TenantId, snapshot: &CubeSnapshot) -> Self {
        let (m_cells, o_cells, exceptions) = match snapshot.try_cube() {
            None => (0, 0, 0),
            Some(cube) => (
                cube.m_table().len(),
                cube.o_table().len(),
                cube.total_exception_cells() as usize,
            ),
        };
        let top_alarm = snapshot.alarms().first().map(|a| (a.key.clone(), a.score));
        DashboardSummary {
            tenant,
            epoch: snapshot.epoch(),
            unit: snapshot.unit(),
            m_cells,
            o_cells,
            exceptions,
            alarms: snapshot.alarms().len(),
            top_alarm,
            cells_retained: snapshot.stats().cells_retained,
            late_dropped: snapshot.stats().late_dropped,
            late_amendments: snapshot.stats().late_amendments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regcube_core::ExceptionPolicy;
    use regcube_olap::{CubeSchema, CuboidSpec};
    use regcube_stream::{EngineConfig, RawRecord};
    use std::collections::HashSet;

    /// `top_alarm` is the first alarm's key and score, as the key (not
    /// its text), and `None` for a unit that raised no alarm.
    #[test]
    fn top_alarm_is_the_first_alarm() {
        let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
        let mut engine = EngineConfig::new(
            schema,
            CuboidSpec::new(vec![1, 1]),
            CuboidSpec::new(vec![2, 2]),
        )
        .with_policy(ExceptionPolicy::slope_threshold(0.5))
        .with_ticks_per_unit(4)
        .build()
        .unwrap();
        let summary = |engine: &regcube_stream::OnlineEngine| {
            let snapshot = engine.snapshot();
            let summary = DashboardSummary::of(TenantId::from("t"), &snapshot);
            (summary, snapshot.alarms().to_vec())
        };
        let (before, _) = summary(&engine);
        assert_eq!(before.top_alarm, None);
        // Unit 0 is flat; in unit 1 the cells with a < 2 climb steeply
        // and those with a >= 2, b < 2 gently.
        for t in 0..8i64 {
            for a in 0..4u32 {
                for b in 0..4u32 {
                    let slope = match (t >= 4, a < 2, b < 2) {
                        (false, _, _) => 0.0,
                        (true, true, _) => 2.0,
                        (true, false, true) => 1.0,
                        (true, false, false) => 0.0,
                    };
                    let record = RawRecord::new(vec![a, b], t, slope * (t % 4) as f64);
                    engine.ingest(&record).unwrap();
                }
            }
            if t == 3 {
                engine.close_unit().unwrap();
                let (flat, alarms) = summary(&engine);
                assert!(alarms.is_empty(), "{alarms:?}");
                assert_eq!((flat.alarms, flat.top_alarm), (0, None));
            }
        }
        engine.close_unit().unwrap();
        let (hot, alarms) = summary(&engine);
        assert!(alarms.len() >= 3, "{alarms:?}");
        assert!(alarms[0].score > alarms[alarms.len() - 1].score);
        assert_eq!(hot.alarms, alarms.len());
        assert_eq!(
            hot.top_alarm,
            Some((alarms[0].key.clone(), alarms[0].score))
        );
    }

    /// The per-cuboid count the summary reads equals a walk over every
    /// exception cell, on a cube whose exceptions span several cuboids.
    #[test]
    fn exception_count_equals_a_walk_of_every_cell() {
        let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
        let mut engine = EngineConfig::new(
            schema,
            CuboidSpec::new(vec![0, 0]),
            CuboidSpec::new(vec![2, 2]),
        )
        .with_policy(ExceptionPolicy::slope_threshold(0.5))
        .with_ticks_per_unit(4)
        .build()
        .unwrap();
        // Cells with a = 0 trend, the rest are flat.
        for t in 0..4i64 {
            for a in 0..4u32 {
                for b in 0..4u32 {
                    let slope = if a == 0 { 2.0 } else { 0.0 };
                    let record = RawRecord::new(vec![a, b], t, slope * t as f64);
                    engine.ingest(&record).unwrap();
                }
            }
        }
        engine.close_unit().unwrap();
        let snapshot = engine.snapshot();
        let cube = snapshot.cube().unwrap();
        let cuboids: HashSet<&CuboidSpec> = cube.iter_exceptions().map(|(c, _, _)| c).collect();
        assert!(cuboids.len() >= 2, "exceptions in {cuboids:?}");
        let summary = DashboardSummary::of(TenantId::from("t"), &snapshot);
        assert_eq!(summary.exceptions, cube.iter_exceptions().count());
    }
}
