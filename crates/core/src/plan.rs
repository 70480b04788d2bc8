//! **Roll-up plans**: the one fold of both cubing algorithms, and the
//! one owner of its order.
//!
//! A [`Schedule`] is a roll-up order over *slots*: slot 0 is the
//! m-layer's table, and slot `k + 1` is step `k`'s, folded from an
//! earlier slot. Algorithm 1 rolls every cuboid above the m-layer up in
//! depth tiers ([`Schedule::new`]); Algorithm 2 rolls up the cuboids of
//! its popular path, one above the other ([`Schedule::path`]).
//!
//! A [`RollUpPlan`] is a unit's roll-up along a schedule as index maps.
//! It is [built](RollUpPlan::build) by hashing the unit's keys once per
//! table — the m-layer's in arrival order, every other table's from its
//! source table in the source's iteration order — so each table's keys
//! go in in first-arrival order, and each finished table's rows are
//! numbered in its iteration order. The plan records, per tuple, its
//! m-row and, per step, per source row in iteration order, its target
//! row, along with every table's keys in its iteration order, read off
//! the walk that numbers it. The measures are then folded by the plan as
//! `(base, slope)` pairs, every table of the plan in one buffer: each
//! target copies its first row and adds every later one with the two
//! adds [`merge_sibling`] performs ([`fold_pairs`]). The interval is not
//! re-checked per row: [`validate_tuples`] has held every tuple to the
//! unit's window at the door. The plan's build is the only definition of
//! order: which rows fold into which target, in which order, and where
//! each target sits. A table that is kept whole is [`rebuild`]t from the
//! plan's keys with the buckets of the build's own index.
//!
//! [`merge_sibling`]: crate::measure::merge_sibling
//! [`validate_tuples`]: crate::measure::validate_tuples

use crate::layers::CriticalLayers;
use crate::measure::MTuple;
use crate::stats::RunStats;
use crate::table::{table_bytes_at, CuboidTable, Projector};
use crate::{CoreError, Result};
use regcube_olap::cell::CellKey;
use regcube_olap::fxhash::FxHashMap;
use regcube_olap::{CubeSchema, CuboidSpec, PopularPath};
use regcube_regress::Isb;
use std::ops::Range;

/// Groups every cuboid strictly above the m-layer into depth *tiers*
/// (bottom-up, same total depth per tier) — the roll-up order.
fn depth_tiers(layers: &CriticalLayers) -> Vec<Vec<CuboidSpec>> {
    let m_spec = layers.lattice().m_layer();
    let mut tiers: Vec<(u32, Vec<CuboidSpec>)> = Vec::new();
    for cuboid in layers.lattice().bottom_up_order() {
        if &cuboid == m_spec {
            continue;
        }
        let depth = cuboid.total_depth();
        match tiers.last_mut() {
            Some((d, group)) if *d == depth => group.push(cuboid),
            _ => tiers.push((depth, vec![cuboid])),
        }
    }
    tiers.into_iter().map(|(_, group)| group).collect()
}

/// A roll-up order: cuboids above the m-layer in tiers, each with the
/// table it is aggregated from. It depends on the lattice (and path)
/// alone, so an engine derives it once; every roll-up plan is built and
/// laid out along it.
///
/// Tables are named by *slot*: 0 is the m-layer, `k + 1` is step `k`'s.
#[derive(Debug)]
pub(crate) struct Schedule {
    m_layer: CuboidSpec,
    pub(crate) steps: Vec<Step>,
    /// Each tier's range of `steps`, bottom-up.
    pub(crate) tiers: Vec<Range<usize>>,
}

/// One cuboid of a [`Schedule`].
#[derive(Debug)]
pub(crate) struct Step {
    pub(crate) cuboid: CuboidSpec,
    /// The slot it is folded from: a one-step-finer cuboid of the tier
    /// before (the m-layer for the first tier).
    pub(crate) source: usize,
    /// The o-layer: kept whole, never screened, never a source.
    pub(crate) o_layer: bool,
}

impl Schedule {
    /// Algorithm 1's order: every cuboid above the m-layer in depth
    /// tiers, each folded from its closest computed descendant.
    pub(crate) fn new(layers: &CriticalLayers) -> Self {
        let lattice = layers.lattice();
        let mut steps: Vec<Step> = Vec::new();
        let mut tiers: Vec<Range<usize>> = Vec::new();
        for tier in depth_tiers(layers) {
            let start = steps.len();
            let previous = tiers.last().cloned().unwrap_or(0..0);
            for cuboid in tier {
                let computed = &steps[previous.clone()];
                let sources = computed.iter().filter(|s| !s.o_layer).map(|s| &s.cuboid);
                let source = lattice
                    .closest_computed_descendant(&cuboid, sources)
                    .and_then(|c| computed.iter().position(|s| &s.cuboid == c))
                    .map_or(0, |k| previous.start + k + 1);
                steps.push(Step {
                    o_layer: &cuboid == lattice.o_layer(),
                    cuboid,
                    source,
                });
            }
            tiers.push(start..steps.len());
        }
        Schedule {
            m_layer: lattice.m_layer().clone(),
            steps,
            tiers,
        }
    }

    /// Algorithm 2's order: `path` from the m-layer up to the o-layer,
    /// each cuboid a tier of its own, folded from the one below it. The
    /// last step is the o-layer's.
    pub(crate) fn path(layers: &CriticalLayers, path: &PopularPath) -> Self {
        let o_layer = layers.lattice().o_layer();
        // The path lists the o-layer first and the m-layer last.
        let steps: Vec<Step> = path.cuboids()[..path.len() - 1]
            .iter()
            .rev()
            .enumerate()
            .map(|(k, cuboid)| Step {
                o_layer: cuboid == o_layer,
                cuboid: cuboid.clone(),
                source: k,
            })
            .collect();
        Schedule {
            m_layer: layers.lattice().m_layer().clone(),
            tiers: (0..steps.len()).map(|k| k..k + 1).collect(),
            steps,
        }
    }

    /// The cuboid of table `slot`.
    pub(crate) fn cuboid(&self, slot: usize) -> &CuboidSpec {
        match slot {
            0 => &self.m_layer,
            k => &self.steps[k - 1].cuboid,
        }
    }

    /// The slot of the o-layer's table: its step's, or the m-layer's own
    /// when the two layers are one cuboid.
    pub(crate) fn o_slot(&self) -> usize {
        self.steps
            .iter()
            .position(|s| s.o_layer)
            .map_or(0, |k| k + 1)
    }
}

/// The slots of a tier's tables.
pub(crate) fn slots(tier: &Range<usize>) -> Range<usize> {
    tier.start + 1..tier.end + 1
}

/// Flags a `target_of` entry whose source row is the first to reach its
/// target row: the fold copies that row, as the row's first arrival
/// opens it, and merges every later one.
const FIRST: u32 = 1 << 31;

/// A unit's roll-up as index maps, laid out along a [`Schedule`] and
/// [built](RollUpPlan::build) by hashing the unit's keys once per table.
/// Every unit folds its measures by one: a unit of a new key sequence by
/// the plan it just built, a recurring one (of either algorithm) by the
/// plan its sequence left, without hashing.
#[derive(Debug)]
pub(crate) struct RollUpPlan {
    tuples: usize,
    /// The key sequence's length.
    sequence: usize,
    /// Everything in one allocation: the key sequence (every tuple's
    /// ids, concatenated); `m_of`, the m-row each tuple folds into, and
    /// the m-layer's keys; then per step its `target_of` — for each
    /// source row, in the source's iteration order, its target row's
    /// index in the target's iteration order — and its keys. A table's
    /// keys are every row's ids in its iteration order, `dims` a row.
    /// Rows are [`FIRST`]-flagged in `m_of` and every `target_of`.
    arena: Box<[u32]>,
    /// Where each slot's rows lie in the pair buffer: slot `s`
    /// holds `at[s]..at[s + 1]`, so the last entry is the plan's rows.
    at: Box<[usize]>,
    /// Per slot: the table's analytical bytes.
    bytes: Box<[usize]>,
}

impl RollUpPlan {
    /// Refuses a unit no plan can index: rows are `u32`s whose top bit
    /// is [`FIRST`].
    ///
    /// # Errors
    /// [`CoreError::BadInput`] for a unit of [`FIRST`] tuples or more.
    pub(crate) fn admit(tuples: &[MTuple]) -> Result<()> {
        if tuples.len() >= FIRST as usize {
            return Err(CoreError::BadInput {
                detail: format!(
                    "a unit of {} tuples: a roll-up plan indexes fewer than {FIRST}",
                    tuples.len()
                ),
            });
        }
        Ok(())
    }

    /// The plan of `tuples`' key sequence, built in one hashing walk per
    /// table, in the order `schedule` rolls up. The m-layer takes the
    /// tuples' keys in arrival order and every step its source table's
    /// keys, read off the plan in the source's iteration order and
    /// projected with the LUT [`Projector`]: a key not yet in the table
    /// opens its row, so a table's keys go in in first-arrival order.
    /// Each finished table's rows are then [`number`]ed in its iteration
    /// order, its keys written to the plan in that order and its index
    /// dropped. `tuples` are [admitted](Self::admit).
    pub(crate) fn build(schema: &CubeSchema, schedule: &Schedule, tuples: &[MTuple]) -> RollUpPlan {
        let dims = schema.num_dims();
        let mut arena: Vec<u32> = Vec::with_capacity(tuples.len() * (2 * dims + 1));
        arena.extend(tuples.iter().flat_map(MTuple::ids));
        let sequence = arena.len();
        let mut m = Index::default();
        for t in tuples {
            arena.push(open_row(&mut m, t.ids()));
        }
        let mut at = vec![0, m.len()];
        let mut bytes = vec![table_bytes_at(m.capacity(), m.len(), dims)];
        // Per slot: where its keys start in the arena.
        let mut keys_at = vec![number(m, &mut arena, sequence, dims)];

        let mut key = vec![0u32; dims];
        for step in &schedule.steps {
            let projector = Projector::new(schema, schedule.cuboid(step.source), &step.cuboid);
            let source = keys_at[step.source];
            let mut target = Index::default();
            let start = arena.len();
            for row in 0..at[step.source + 1] - at[step.source] {
                let ids = source + row * dims;
                projector.project_into(&arena[ids..ids + dims], &mut key);
                arena.push(open_row(&mut target, &key));
            }
            at.push(at[at.len() - 1] + target.len());
            bytes.push(table_bytes_at(target.capacity(), target.len(), dims));
            keys_at.push(number(target, &mut arena, start, dims));
        }
        RollUpPlan {
            tuples: tuples.len(),
            sequence,
            arena: arena.into_boxed_slice(),
            at: at.into_boxed_slice(),
            bytes: bytes.into_boxed_slice(),
        }
    }

    /// Whether `tuples` carry exactly this plan's key sequence.
    pub(crate) fn matches(&self, tuples: &[MTuple]) -> bool {
        tuples.len() == self.tuples
            && tuples
                .iter()
                .flat_map(MTuple::ids)
                .eq(&self.arena[..self.sequence])
    }

    /// Every table's map and keys, slot by slot: the m-layer's `m_of`,
    /// then each step's `target_of`.
    pub(crate) fn tables<'a>(
        &'a self,
        schedule: &'a Schedule,
        dims: usize,
    ) -> impl Iterator<Item = (&'a [u32], &'a [u32])> + 'a {
        let sources = schedule.steps.iter().map(|s| self.rows(s.source));
        let mut rest = &self.arena[self.sequence..];
        std::iter::once(self.tuples)
            .chain(sources)
            .enumerate()
            .map(move |(slot, len)| {
                let (map, tail) = rest.split_at(len);
                let (keys, tail) = tail.split_at(self.rows(slot) * dims);
                rest = tail;
                (map, keys)
            })
    }

    /// Folds table `slot` by its `map` ([`fold_pairs`]) into its rows of
    /// `pairs` — the m-layer from `tuples`, a step from its source
    /// slot's rows, which precede its own — and returns them. `pairs`
    /// holds the plan's [`pairs`](Self::pairs).
    pub(crate) fn fold<'p>(
        &self,
        schedule: &Schedule,
        slot: usize,
        map: &[u32],
        tuples: &[MTuple],
        pairs: &'p mut [Pair],
    ) -> &'p [Pair] {
        let target = self.range(slot);
        let (done, rest) = pairs.split_at_mut(target.start);
        let rows = &mut rest[..target.len()];
        match slot {
            0 => fold_pairs(
                tuples.iter().map(|t| [t.isb().base(), t.isb().slope()]),
                map,
                rows,
            ),
            k => {
                let source = self.range(schedule.steps[k - 1].source);
                fold_pairs(done[source].iter().copied(), map, rows);
            }
        }
        rows
    }

    pub(crate) fn range(&self, slot: usize) -> Range<usize> {
        self.at[slot]..self.at[slot + 1]
    }

    pub(crate) fn rows(&self, slot: usize) -> usize {
        self.range(slot).len()
    }

    /// Every table's rows: the length of the pair buffer it needs.
    pub(crate) fn pairs(&self) -> usize {
        self.at[self.at.len() - 1]
    }

    pub(crate) fn bytes(&self, slot: usize) -> usize {
        self.bytes[slot]
    }

    /// The cube counters of a unit of this shape: every tuple folded into
    /// the m-layer, every source row into its step's target.
    pub(crate) fn counters(&self, schedule: &Schedule) -> RunStats {
        let sources: usize = schedule.steps.iter().map(|s| self.rows(s.source)).sum();
        RunStats {
            rows_folded: (self.tuples + sources) as u64,
            cells_computed: self.pairs() as u64,
            cuboids_computed: self.bytes.len() as u32,
            ..RunStats::default()
        }
    }
}

/// A table while a plan is built: each key's row, numbered in
/// insertion order.
type Index = FxHashMap<CellKey, u32>;

/// The `target_of` entry of a source row with key `ids`: the key's row
/// in `index`, opened — and [`FIRST`]-flagged — if the key is new. A hit
/// probes by slice and builds no key.
fn open_row(index: &mut Index, ids: &[u32]) -> u32 {
    match index.get(ids) {
        Some(&row) => row,
        None => {
            let row = index.len() as u32;
            index.insert(CellKey::new(ids), row);
            row | FIRST
        }
    }
}

/// Numbers a finished table's rows in its iteration order: rewrites
/// the `target_of` entries from `start` to the end of the `arena` — rows
/// numbered in insertion order — as positions in `index`'s iteration
/// order, keeping their [`FIRST`] flags, and appends the table's keys in
/// that order, `dims` ids a row. Both are read off one walk of the
/// table; nothing is hashed. Returns where the keys start.
fn number(index: Index, arena: &mut Vec<u32>, start: usize, dims: usize) -> usize {
    let keys = arena.len();
    arena.resize(keys + index.len() * dims, 0);
    let (target_of, out) = arena[start..].split_at_mut(keys - start);
    let mut position = vec![0u32; index.len()];
    for ((at, (key, &row)), slot) in index.iter().enumerate().zip(out.chunks_exact_mut(dims)) {
        position[row as usize] = at as u32;
        slot.copy_from_slice(key.ids());
    }
    for to in target_of {
        *to = position[(*to & !FIRST) as usize] | (*to & FIRST);
    }
    keys
}

/// A measure as the fold carries it: `[base, slope]`. Every measure of
/// a unit spans the unit's window, so the interval is left out.
pub(crate) type Pair = [f64; 2];

/// The measure of a folded row of a unit over `window`.
pub(crate) fn isb_of(window: (i64, i64), [base, slope]: Pair) -> Isb {
    Isb::new(window.0, window.1, base, slope).expect("a unit's window is an interval")
}

/// Folds `source` rows into the target `rows` by a plan's `target_of`
/// map, in source order: a [`FIRST`]-flagged row is copied, as its
/// first arrival opens the target, and every other is added to its
/// target with the two adds of [`merge_sibling`], in its operand order.
/// It is the only measure fold of a plan's tables.
///
/// [`merge_sibling`]: crate::measure::merge_sibling
fn fold_pairs(source: impl Iterator<Item = Pair>, target_of: &[u32], rows: &mut [Pair]) {
    for (pair, &to) in source.zip(target_of) {
        let row = &mut rows[(to & !FIRST) as usize];
        if to & FIRST != 0 {
            *row = pair;
        } else {
            row[0] += pair[0];
            row[1] += pair[1];
        }
    }
}

/// A table keyed as the plan's build keyed it, holding `rows` (in that
/// table's iteration order). Walking `target_of` in source order, each
/// [`FIRST`]-flagged entry inserts its row's key from `keys` (the
/// table's, `dims` ids a row): the build's inserts, in its first-arrival
/// order. The build pre-sizes no table, so the same inserts into an
/// empty table grow the same buckets and give the same iteration order —
/// a hash map's iteration order follows from its keys and their insert
/// sequence, not from its value type.
pub(crate) fn rebuild(
    target_of: &[u32],
    keys: &[u32],
    dims: usize,
    window: (i64, i64),
    rows: &[Pair],
) -> CuboidTable {
    let mut out = CuboidTable::default();
    for &to in target_of {
        if to & FIRST != 0 {
            let row = (to & !FIRST) as usize;
            let key = CellKey::new(&keys[row * dims..(row + 1) * dims]);
            out.insert(key, isb_of(window, rows[row]));
        }
    }
    out
}
