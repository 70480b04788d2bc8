//! `AlarmLog` against a model that keeps open episodes in one flat map
//! and refreshes each episode's peak with its own `AlarmContext::score`
//! call — two hash lookups per episode, the definition of the refresh.
//!
//! Seeded units of random m-cells with random slopes (NaN and infinite
//! ones among them) run through both cubing engines — Algorithm 2 also
//! retains path tables, which a lookup reads before the exception
//! stores — and every unit's real `UnitDelta` and cube go to both logs.
//! Random alarm revisions (every kind, finest and coarser levels, live
//! and historical units, cells open, closed and unknown) are mixed in
//! between units. After every step the two logs must agree on the open
//! episodes (peaks by bits), the closed ring and every counter.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use regcube_core::alarm::{
    AlarmContext, AlarmLog, AlarmRevision, AlarmSink, Episode, RevisionKind,
};
use regcube_core::engine::{CubingEngine, MoCubingEngine, PopularPathEngine, UnitDelta};
use regcube_core::{CriticalLayers, ExceptionPolicy, MTuple};
use regcube_olap::cell::CellKey;
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_regress::Isb;
use std::collections::{BTreeMap, VecDeque};

/// The definition `AlarmLog` must match: open episodes in one flat map,
/// each peak refreshed with its own `AlarmContext::score` call.
struct FlatLog {
    capacity: usize,
    open: BTreeMap<(CuboidSpec, CellKey), Episode>,
    closed: VecDeque<Episode>,
    opened_total: u64,
    closed_total: u64,
    evicted: u64,
    suppressed: u64,
    revised_total: u64,
    last_unit: Option<u64>,
}

impl FlatLog {
    fn new(capacity: usize) -> Self {
        FlatLog {
            capacity: capacity.max(1),
            open: BTreeMap::new(),
            closed: VecDeque::new(),
            opened_total: 0,
            closed_total: 0,
            evicted: 0,
            suppressed: 0,
            revised_total: 0,
            last_unit: None,
        }
    }

    fn close(&mut self, episode: Episode) {
        self.closed_total += 1;
        if self.closed.len() == self.capacity {
            self.closed.pop_front();
            self.evicted += 1;
        }
        self.closed.push_back(episode);
    }

    fn on_unit(&mut self, delta: &UnitDelta, ctx: &AlarmContext<'_>) {
        let unit = ctx.unit();
        self.last_unit = Some(unit);
        for (cuboid, cell) in &delta.appeared {
            let score = ctx.score(cuboid, cell).unwrap_or(f64::NAN);
            if !score.is_finite() {
                self.suppressed += 1;
                continue;
            }
            let addr = (cuboid.clone(), cell.clone());
            if !self.open.contains_key(&addr) {
                self.opened_total += 1;
                self.open.insert(
                    addr,
                    Episode {
                        cuboid: cuboid.clone(),
                        cell: cell.clone(),
                        raised_at: unit,
                        cleared_at: None,
                        peak_score: score,
                    },
                );
            }
        }
        for ((cuboid, cell), episode) in &mut self.open {
            if let Some(score) = ctx.score(cuboid, cell) {
                if score > episode.peak_score {
                    episode.peak_score = score;
                }
            }
        }
        for (cuboid, cell) in &delta.cleared {
            if let Some(mut episode) = self.open.remove(&(cuboid.clone(), cell.clone())) {
                episode.cleared_at = Some(unit);
                self.close(episode);
            }
        }
    }

    fn on_revision(&mut self, revision: &AlarmRevision) {
        if revision.level != 0 {
            return;
        }
        let addr = (revision.cuboid.clone(), revision.cell.clone());
        let (unit, new_score) = (revision.unit, revision.new_score);
        match revision.kind {
            RevisionKind::Retracted => {
                let mut patched = false;
                if let Some(episode) = self.open.get_mut(&addr) {
                    if episode.raised_at == unit {
                        if self.last_unit.is_some_and(|last| last > unit) {
                            episode.raised_at = unit + 1;
                        } else {
                            self.open.remove(&addr);
                        }
                        patched = true;
                    }
                }
                let before = self.closed.len();
                self.closed.retain(|e| {
                    !(e.cuboid == addr.0
                        && e.cell == addr.1
                        && e.raised_at == unit
                        && e.cleared_at == Some(unit + 1))
                });
                patched |= self.closed.len() != before;
                self.revised_total += u64::from(patched);
            }
            RevisionKind::Raised => {
                if !new_score.is_finite() {
                    self.suppressed += 1;
                    return;
                }
                let episode = Episode {
                    cuboid: addr.0.clone(),
                    cell: addr.1.clone(),
                    raised_at: unit,
                    cleared_at: None,
                    peak_score: new_score,
                };
                self.revised_total += 1;
                if let Some(open) = self.open.get_mut(&addr) {
                    open.raised_at = open.raised_at.min(unit);
                    if new_score > open.peak_score {
                        open.peak_score = new_score;
                    }
                } else if self.last_unit.map_or(true, |last| unit >= last) {
                    self.opened_total += 1;
                    self.open.insert(addr, episode);
                } else {
                    self.opened_total += 1;
                    self.close(Episode {
                        cleared_at: Some(unit + 1),
                        ..episode
                    });
                }
            }
            RevisionKind::Rescored => {
                if let Some(episode) = self.open.get_mut(&addr) {
                    if new_score.is_finite() && new_score > episode.peak_score {
                        episode.peak_score = new_score;
                        self.revised_total += 1;
                    }
                }
            }
        }
    }
}

/// An episode with its peak as bits.
fn view(e: &Episode) -> (CuboidSpec, CellKey, u64, Option<u64>, u64) {
    (
        e.cuboid.clone(),
        e.cell.clone(),
        e.raised_at,
        e.cleared_at,
        e.peak_score.to_bits(),
    )
}

fn agree(log: &AlarmLog, model: &FlatLog, at: &str) {
    let open: Vec<_> = log.open_episodes().into_iter().map(view).collect();
    let want: Vec<_> = model.open.values().map(view).collect();
    assert_eq!(open, want, "{at}: open episodes");
    let closed: Vec<_> = log.closed_episodes().map(view).collect();
    let want: Vec<_> = model.closed.iter().map(view).collect();
    assert_eq!(closed, want, "{at}: closed ring");
    assert_eq!(
        (
            log.open_count(),
            log.opened_total(),
            log.closed_total(),
            log.evicted(),
            log.suppressed(),
            log.revised_total(),
        ),
        (
            model.open.len(),
            model.opened_total,
            model.closed_total,
            model.evicted,
            model.suppressed,
            model.revised_total,
        ),
        "{at}: counters"
    );
    for (addr, episode) in &model.open {
        assert_eq!(
            log.open_episode(&addr.0, &addr.1).map(view),
            Some(view(episode)),
            "{at}"
        );
    }
}

/// A slope that is exceptional about half the time, now and then NaN
/// or infinite.
fn slope(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..30u32) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        _ => rng.random_range(-2.0..2.0),
    }
}

/// A revision of a cell of `cuboids`: an open or closed episode's, or
/// any cell's.
fn revision(rng: &mut StdRng, log: &AlarmLog, cuboids: &[CuboidSpec], unit: u64) -> AlarmRevision {
    let known: Vec<&Episode> = log
        .open_episodes()
        .into_iter()
        .chain(log.closed_episodes())
        .collect();
    let (cuboid, cell, at) = if !known.is_empty() && rng.random_bool(0.8) {
        let e = known[rng.random_range(0..known.len())];
        (e.cuboid.clone(), e.cell.clone(), e.raised_at)
    } else {
        let cuboid = cuboids[rng.random_range(0..cuboids.len())].clone();
        let ids: Vec<u32> = cuboid
            .levels()
            .iter()
            .map(|&l| rng.random_range(0..3u32.pow(u32::from(l))))
            .collect();
        (cuboid, CellKey::new(ids), unit)
    };
    let kind = [
        RevisionKind::Retracted,
        RevisionKind::Raised,
        RevisionKind::Rescored,
    ][rng.random_range(0..3usize)];
    AlarmRevision {
        kind,
        cuboid,
        cell,
        unit: (at + rng.random_range(0..3u64)).saturating_sub(1),
        level: usize::from(rng.random_bool(0.2)),
        old_score: rng.random_range(0.0..2.0),
        new_score: if rng.random_range(0..10u32) == 0 {
            f64::NAN
        } else {
            rng.random_range(0.0..4.0)
        },
    }
}

#[test]
fn grouped_peak_refresh_matches_the_per_episode_refresh() {
    let schema = CubeSchema::synthetic(3, 2, 3).unwrap();
    let layers = CriticalLayers::new(
        &schema,
        CuboidSpec::new(vec![0, 1, 0]),
        CuboidSpec::new(vec![2, 2, 2]),
    )
    .unwrap();
    let cuboids: Vec<CuboidSpec> = layers
        .lattice()
        .enumerate()
        .into_iter()
        .filter(|c| c != layers.m_layer() && c != layers.o_layer())
        .collect();
    let mut units = 0;
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let policy = ExceptionPolicy::slope_threshold(rng.random_range(0.5..3.0));
        let mut engine: Box<dyn CubingEngine> = if seed % 2 == 0 {
            Box::new(MoCubingEngine::new(schema.clone(), layers.clone(), policy).unwrap())
        } else {
            Box::new(PopularPathEngine::new(schema.clone(), layers.clone(), policy, None).unwrap())
        };
        let capacity = rng.random_range(1..16usize);
        let (mut log, mut model) = (AlarmLog::new(capacity), FlatLog::new(capacity));
        let universe: Vec<Vec<u32>> = (0..rng.random_range(4..60usize))
            .map(|_| (0..3).map(|_| rng.random_range(0..9u32)).collect())
            .collect();
        for w in 0..20i64 {
            let mut tuples: Vec<MTuple> = Vec::new();
            for ids in &universe {
                if rng.random_bool(0.7) {
                    let isb = Isb::new(4 * w, 4 * w + 3, 1.0, slope(&mut rng)).unwrap();
                    tuples.push(MTuple::new(ids.clone(), isb));
                }
            }
            if tuples.is_empty() {
                continue;
            }
            let delta = engine.ingest_unit(&tuples).unwrap();
            let ctx = AlarmContext::new(engine.result(), &delta);
            log.on_unit(&delta, &ctx).unwrap();
            model.on_unit(&delta, &ctx);
            agree(&log, &model, &format!("seed {seed} unit {w}"));
            units += 1;
            for r in 0..rng.random_range(0..4u32) {
                let revision = revision(&mut rng, &log, &cuboids, delta.unit);
                log.on_revision(&revision).unwrap();
                model.on_revision(&revision);
                agree(&log, &model, &format!("seed {seed} unit {w} revision {r}"));
            }
        }
    }
    assert!(units > 400, "only {units} units");
}

/// Every episode closes — each cuboid's last one included — and then
/// one cell per cuboid raises again: the log must reopen it, refresh its
/// peak over the next units and close it again as the flat log does.
#[test]
fn a_cuboid_whose_episodes_all_closed_reopens() {
    let schema = CubeSchema::synthetic(2, 2, 3).unwrap();
    let layers = CriticalLayers::new(
        &schema,
        CuboidSpec::new(vec![0, 0]),
        CuboidSpec::new(vec![2, 2]),
    )
    .unwrap();
    let keys: Vec<Vec<u32>> = (0..9u32).map(|m| vec![m, 8 - m]).collect();
    // Per unit, the slope of keys[0] and of every other key.
    let script = [(3.0, 3.0), (0.0, 0.0), (3.0, 0.0), (5.0, 0.0), (0.0, 0.0)];
    for algorithm in 0..2 {
        let policy = ExceptionPolicy::slope_threshold(1.0);
        let mut engine: Box<dyn CubingEngine> = if algorithm == 0 {
            Box::new(MoCubingEngine::new(schema.clone(), layers.clone(), policy).unwrap())
        } else {
            Box::new(PopularPathEngine::new(schema.clone(), layers.clone(), policy, None).unwrap())
        };
        let (mut log, mut model) = (AlarmLog::new(64), FlatLog::new(64));
        for (w, &(first, rest)) in script.iter().enumerate() {
            let w = w as i64;
            let tuples: Vec<MTuple> = keys
                .iter()
                .enumerate()
                .map(|(i, ids)| {
                    let slope = if i == 0 { first } else { rest };
                    MTuple::new(ids.clone(), Isb::new(4 * w, 4 * w + 3, 1.0, slope).unwrap())
                })
                .collect();
            let delta = engine.ingest_unit(&tuples).unwrap();
            let ctx = AlarmContext::new(engine.result(), &delta);
            log.on_unit(&delta, &ctx).unwrap();
            model.on_unit(&delta, &ctx);
            agree(&log, &model, &format!("algorithm {algorithm} unit {w}"));
            let open = log.open_count();
            match w {
                0 => assert!(open > keys.len(), "unit 0 raises many cells"),
                1 | 4 => assert_eq!(open, 0, "unit {w} clears everything"),
                _ => assert!(
                    open > 0 && open < keys.len(),
                    "unit {w} reopens one cell per cuboid"
                ),
            }
        }
        assert!(log.closed_total() > log.open_count() as u64);
    }
}
