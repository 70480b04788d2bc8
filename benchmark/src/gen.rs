//! The seeded input generator. The program under test only ever sees
//! the [`RawRecord`]s made here; the same seed gives the same records.
//!
//! Per tenant the generator holds a template of one unit — one
//! `RawRecord` per arrival slot, in arrival order — and rewrites it in
//! place before every unit (tick offset, value drift, which cells ramp),
//! so the harness's own memory stays a few MB whatever the run length.
//! Every value is a pure function of `(seed, tenant, cell, unit, tick)`,
//! which is what lets a replay regenerate the identical stream.

use crate::workloads::Spec;
use regcube_stream::RawRecord;

/// SplitMix64 finaliser: the stateless hash all randomness comes from.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_add(b.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` from a hash.
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Units a ramp lasts before another 1 % of the cells takes over, so
/// exceptions appear and clear and the alarm sinks see deltas.
const RAMP_EPISODE_UNITS: i64 = 8;

/// One arrival slot of the template.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Index into the tenant's active-cell window.
    cell: u32,
    /// Tick offset inside the unit.
    off: u16,
    /// Units behind the frontier this slot's record belongs to (0 for an
    /// on-time record).
    lag: u16,
}

struct TenantTemplate {
    /// Known m-layer cells, sorted.
    cells: Vec<Vec<u32>>,
    slots: Vec<Slot>,
    records: Vec<RawRecord>,
}

pub struct Fleet {
    seed: u64,
    ticks_per_unit: usize,
    active_cells: usize,
    active_div: usize,
    tenants: Vec<TenantTemplate>,
}

impl Fleet {
    pub fn new(spec: &Spec, seed: u64) -> Fleet {
        let card = u64::from(spec.fanout).pow(u32::from(spec.m_level));
        let active = spec.active_cells();
        let tenants = (0..spec.tenants as u64)
            .map(|t| {
                let tseed = mix(seed, t);
                // Distinct random m-cells: draw, sort, dedup, top up.
                let mut cells: Vec<Vec<u32>> = Vec::with_capacity(spec.cells);
                let mut draw = 0u64;
                while cells.len() < spec.cells {
                    while cells.len() < spec.cells {
                        let key = (0..spec.dims as u64)
                            .map(|d| (mix(tseed, draw * 8 + d) % card) as u32)
                            .collect();
                        cells.push(key);
                        draw += 1;
                    }
                    cells.sort();
                    cells.dedup();
                }
                // Arrival order: tick-major, cells in key order inside a
                // tick — the sorted-replay order of an in-order stream.
                let mut slots: Vec<Slot> = (0..spec.ticks_per_unit)
                    .flat_map(|off| {
                        (0..active).map(move |cell| Slot {
                            cell: cell as u32,
                            off: off as u16,
                            lag: 0,
                        })
                    })
                    .collect();
                if let Some(l) = spec.lateness {
                    for (i, slot) in slots.iter_mut().enumerate() {
                        let r = (mix(tseed ^ 0x1A7E, i as u64) % 1000) as u32;
                        if r < l.drop_permille {
                            slot.lag = l.drop_lag() as u16;
                        } else if r < l.drop_permille + l.amend_permille {
                            slot.lag = l.amend_lag() as u16;
                        }
                    }
                    // Bounded shuffle: a record moves at most `horizon`
                    // places from its in-order position.
                    for i in 0..slots.len() {
                        let reach = l.horizon.min(slots.len() - i);
                        let j = i + (mix(tseed ^ 0x5AFF, i as u64) % reach as u64) as usize;
                        slots.swap(i, j);
                    }
                }
                let sources = spec.lateness.map_or(1, |l| l.sources);
                let records = slots
                    .iter()
                    .map(|s| {
                        RawRecord::new(cells[s.cell as usize].clone(), 0, 0.0)
                            .with_source(s.cell % sources)
                    })
                    .collect();
                TenantTemplate {
                    cells,
                    slots,
                    records,
                }
            })
            .collect();
        Fleet {
            seed,
            ticks_per_unit: spec.ticks_per_unit,
            active_cells: active,
            active_div: spec.active_div,
            tenants,
        }
    }

    pub fn tenants(&self) -> usize {
        self.tenants.len()
    }

    /// The tenant's known m-cells, sorted.
    pub fn cells(&self, tenant: usize) -> &[Vec<u32>] {
        &self.tenants[tenant].cells
    }

    /// Rewrites the tenant's template in place into the arrivals of
    /// `unit`.
    pub fn rewrite(&mut self, tenant: usize, unit: i64) {
        let tpu = self.ticks_per_unit as i64;
        let tseed = mix(self.seed, tenant as u64);
        let rotating = self.active_div > 1;
        let tt = &mut self.tenants[tenant];
        for (slot, rec) in tt.slots.iter().zip(tt.records.iter_mut()) {
            let rec_unit = unit - i64::from(slot.lag);
            // The active window rotates by the record's own unit, so a
            // late record names the cell it would have named on time.
            let cell = if rotating {
                let turn = rec_unit.rem_euclid(self.active_div as i64) as usize;
                let cell = turn * self.active_cells + slot.cell as usize;
                rec.ids.copy_from_slice(&tt.cells[cell]);
                cell
            } else {
                slot.cell as usize
            };
            rec.tick = rec_unit * tpu + i64::from(slot.off);
            rec.value = value(tseed, cell as u64, rec_unit, i64::from(slot.off));
        }
    }

    /// The records of tick batch `k` (of `ticks_per_unit`) of the unit
    /// last written by [`rewrite`](Self::rewrite): an equal share of the
    /// arrival sequence.
    pub fn batch(&self, tenant: usize, k: usize) -> &[RawRecord] {
        let records = &self.tenants[tenant].records;
        let per = records.len() / self.ticks_per_unit;
        &records[k * per..(k + 1) * per]
    }

    /// How many units behind the frontier the `i`-th record of batch `k`
    /// belongs to (0 for an on-time record).
    pub fn lag(&self, tenant: usize, k: usize, i: usize) -> i64 {
        let per = self.tenants[tenant].records.len() / self.ticks_per_unit;
        i64::from(self.tenants[tenant].slots[k * per + i].lag)
    }

    /// FNV-1a over every record of `units` units of every tenant — the
    /// determinism witness of the generator.
    #[cfg(test)]
    pub fn stream_hash(&mut self, units: i64) -> u64 {
        let mut h = crate::check::Fnv::new();
        for unit in 0..units {
            for t in 0..self.tenants() {
                self.rewrite(t, unit);
                for rec in &self.tenants[t].records {
                    for id in &rec.ids {
                        h.write(&id.to_le_bytes());
                    }
                    h.write(&rec.tick.to_le_bytes());
                    h.write(&rec.value.to_bits().to_le_bytes());
                    h.write(&rec.source.to_le_bytes());
                }
            }
        }
        h.finish()
    }

    /// Bytes the templates hold, for the harness-memory figure.
    pub fn approx_bytes(&self) -> usize {
        self.tenants
            .iter()
            .map(|t| {
                let key = t.cells.first().map_or(0, |k| k.len() * 4 + 24);
                t.cells.len() * key
                    + t.slots.len() * std::mem::size_of::<Slot>()
                    + t.records.len() * (std::mem::size_of::<RawRecord>() + key - 24)
            })
            .sum()
    }
}

/// The value of `(cell, tick)`: a per-cell level, a slow drift, a little
/// noise, and — for the 1 % of cells ramping in this episode — a slope
/// across the unit large enough to cross the exception threshold.
fn value(tseed: u64, cell: u64, unit: i64, off: i64) -> f64 {
    let level = 1.0 + unit_f64(mix(tseed ^ 0xBA5E, cell));
    let drift = 1e-4 * unit as f64;
    let noise = 0.02 * (unit_f64(mix(tseed ^ (unit as u64), cell * 64 + off as u64)) - 0.5);
    let episode = unit.div_euclid(RAMP_EPISODE_UNITS) as u64;
    let pick = mix(tseed ^ 0x4A39 ^ episode.wrapping_mul(0x51ED), cell);
    let ramp = if pick % 100 == 0 {
        0.5 + 3.0 * unit_f64(mix(pick, 1))
    } else {
        0.0
    };
    level + drift + noise + ramp * off as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for spec in workloads::all() {
            let spec = spec.shrunk();
            let a = Fleet::new(&spec, 11).stream_hash(6);
            let b = Fleet::new(&spec, 11).stream_hash(6);
            let c = Fleet::new(&spec, 12).stream_hash(6);
            assert_eq!(a, b, "{}", spec.name);
            assert_ne!(a, c, "{}", spec.name);
        }
    }

    #[test]
    fn templates_have_the_specified_shape() {
        for spec in workloads::all() {
            let spec = spec.shrunk();
            let mut fleet = Fleet::new(&spec, 3);
            assert_eq!(fleet.tenants(), spec.tenants);
            for t in 0..fleet.tenants() {
                let cells = fleet.cells(t);
                assert_eq!(cells.len(), spec.cells);
                assert!(cells.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
                fleet.rewrite(t, 9);
                let total: usize = (0..spec.ticks_per_unit)
                    .map(|k| fleet.batch(t, k).len())
                    .sum();
                assert_eq!(total, spec.records_per_unit());
                let tpu = spec.ticks_per_unit as i64;
                for k in 0..spec.ticks_per_unit {
                    for (i, rec) in fleet.batch(t, k).iter().enumerate() {
                        let unit = rec.tick.div_euclid(tpu);
                        assert_eq!(unit, 9 - fleet.lag(t, k, i));
                        assert!(rec.value.is_finite());
                    }
                }
            }
        }
    }

    #[test]
    fn in_order_workloads_arrive_in_tick_order() {
        let spec = workloads::by_name("dense_cube").unwrap().shrunk();
        let mut fleet = Fleet::new(&spec, 5);
        fleet.rewrite(0, 2);
        let mut last = i64::MIN;
        for k in 0..spec.ticks_per_unit {
            for rec in fleet.batch(0, k) {
                assert!(rec.tick >= last);
                last = rec.tick;
            }
        }
    }
}
