//! The four workloads and the constants of the load model. Everything
//! here is a constant of the benchmark — never read from the machine —
//! and is frozen: changing a size changes what every recorded baseline
//! means.

use regcube_core::ExceptionPolicy;
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_serve::ServeConfig;
use regcube_stream::{EngineConfig, WatermarkPolicy};

/// Load model: closed loop, one client (the driver thread). At most two
/// threads are runnable at a time on the 2-vCPU reference machine.
pub const PUMP_THREADS: usize = 2;
pub const CUBING_THREADS: usize = 1;
pub const SHARDS: usize = 1;

/// The seed used when none is given, and the held-out seed no sizing or
/// tuning was done with. `expected.json` holds the digests of both.
pub const DEFAULT_SEED: u64 = 20020820;
pub const HELD_OUT_SEED: u64 = 7919;
/// `run_seconds` of `BENCHMARK.json`: the window length the unit counts
/// below are sized for on the reference machine.
pub const DEFAULT_SECONDS: u64 = 8;

/// How often the set-up (template, server, tenants, warm-up units) is
/// repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
/// Repetitions of the in-memory checkpoint encode and restore, and how
/// many back-to-back passes over the fleet one repetition times: a
/// single pass is a few ms, which the cache state the calibration slice
/// leaves behind would dominate.
pub const DURABILITY_REPEATS: usize = 15;
pub const ENCODE_PASSES: usize = 6;
pub const RESTORE_PASSES: usize = 2;

/// Watermark reordering of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lateness {
    /// `EngineConfig::with_reordering(capacity, lateness)`.
    pub capacity: usize,
    pub lateness: i64,
    /// Distinct `RawRecord::source`s (per-source watermarks).
    pub sources: u32,
    /// Arrivals are shuffled within this many records.
    pub horizon: usize,
    /// Parts per thousand of the slots that arrive one unit behind the
    /// open unit (exact amendments) ...
    pub amend_permille: u32,
    /// ... and that arrive beyond the allowed lateness (counted drops).
    pub drop_permille: u32,
}

/// How many units behind the frontier a straggler's unit is. The open
/// unit trails the frontier by `lateness`; one more makes an amendment,
/// `lateness + 2` more is beyond the allowance.
impl Lateness {
    pub fn amend_lag(&self) -> i64 {
        self.lateness + 1
    }
    pub fn drop_lag(&self) -> i64 {
        2 * self.lateness + 2
    }
}

/// Queries per batch, by kind. The mix is fixed per workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryMix {
    pub snapshot: usize,
    pub summary: usize,
    pub drill_history: usize,
    pub drill_at: usize,
    pub drill_children: usize,
    pub alarms: usize,
}

impl QueryMix {
    /// Per kind, in the order of `served::QUERY_KIND_NAMES`.
    pub fn counts(&self) -> [usize; 6] {
        [
            self.snapshot,
            self.summary,
            self.drill_history,
            self.drill_at,
            self.drill_children,
            self.alarms,
        ]
    }

    pub fn total(&self) -> usize {
        self.counts().iter().sum()
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub tenants: usize,
    /// `CubeSchema::synthetic(dims, depth, fanout)`.
    pub dims: usize,
    pub depth: u8,
    pub fanout: u32,
    pub o_level: u8,
    pub m_level: u8,
    /// Known m-cells per tenant.
    pub cells: usize,
    /// `1`: every known cell is active in every unit. `n`: a rotating
    /// `1/n` of them is.
    pub active_div: usize,
    pub ticks_per_unit: usize,
    /// Units closed in the measured window per second of `--seconds`,
    /// times ten (so a 10 s window measures this many units).
    pub units_per_10s: usize,
    /// Warm-up units of one set-up: tilt ladders populated, allocator
    /// grown, and long enough to be timed.
    pub warm_units: usize,
    pub lateness: Option<Lateness>,
    pub queries: QueryMix,
    /// `ExceptionPolicy::slope_threshold`.
    pub threshold: f64,
}

impl Spec {
    pub fn window_units(&self, seconds: u64) -> usize {
        (self.units_per_10s * seconds as usize).div_ceil(10).max(8)
    }

    pub fn active_cells(&self) -> usize {
        self.cells / self.active_div
    }

    /// Records of one tenant in one unit.
    pub fn records_per_unit(&self) -> usize {
        self.active_cells() * self.ticks_per_unit
    }

    pub fn schema(&self) -> CubeSchema {
        CubeSchema::synthetic(self.dims, self.depth, self.fanout).expect("valid synthetic schema")
    }

    pub fn o_layer(&self) -> CuboidSpec {
        CuboidSpec::new(vec![self.o_level; self.dims])
    }

    pub fn m_layer(&self) -> CuboidSpec {
        CuboidSpec::new(vec![self.m_level; self.dims])
    }

    /// The engine every tenant runs (and every replay rebuilds): default
    /// tilt frame, algorithm and backend, one shard, explicit reordering
    /// so no environment variable can change the run.
    pub fn engine_config(&self) -> EngineConfig {
        let config = EngineConfig::new(self.schema(), self.o_layer(), self.m_layer())
            .with_policy(ExceptionPolicy::slope_threshold(self.threshold))
            .with_ticks_per_unit(self.ticks_per_unit)
            .with_shards(SHARDS);
        match self.lateness {
            None => config.with_reordering(0, 0),
            Some(l) => config
                .with_reordering(l.capacity, l.lateness)
                .with_watermark_policy(WatermarkPolicy::PerSource {
                    idle_units: 2 * l.lateness + 4,
                }),
        }
    }

    /// The same workload at a size a unit test can run twice: same
    /// shape, lateness and query kinds, a fraction of the cells, tenants
    /// and units.
    #[cfg(test)]
    pub fn shrunk(mut self) -> Spec {
        self.tenants = self.tenants.min(3);
        self.cells = (self.cells / 8).max(64);
        self.units_per_10s = 16;
        self.warm_units = 6;
        let q = &mut self.queries;
        for n in [
            &mut q.snapshot,
            &mut q.summary,
            &mut q.drill_history,
            &mut q.drill_at,
            &mut q.drill_children,
            &mut q.alarms,
        ] {
            *n = (*n / 64).max(2);
        }
        self
    }

    /// Queues hold one tick batch of one tenant (plus the stragglers the
    /// shuffle moves across a batch edge), so `Overloaded` never fires.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig::new()
            .with_max_tenants(self.tenants)
            .with_queue_capacity(2 * self.active_cells() + 1024)
            .with_pump_threads(PUMP_THREADS)
            .with_cubing_threads(CUBING_THREADS)
    }
}

const FLEET_QUERIES: QueryMix = QueryMix {
    snapshot: 2048,
    summary: 512,
    drill_history: 1536,
    drill_at: 1536,
    drill_children: 512,
    alarms: 2048,
};

pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "dense_cube",
            why: "one large lattice, in order: the paper's own regime, cubing dominates",
            tenants: 1,
            dims: 3,
            depth: 4,
            fanout: 5,
            o_level: 1,
            m_level: 3,
            cells: 6_400,
            active_div: 1,
            ticks_per_unit: 4,
            units_per_10s: 125,
            warm_units: 20,
            lateness: None,
            queries: FLEET_QUERIES,
            threshold: 2.0,
        },
        Spec {
            name: "quiet_fleet",
            why: "64 tenants, large state, small per-unit delta: snapshot publish and tilt upkeep dominate",
            tenants: 64,
            dims: 2,
            depth: 3,
            fanout: 6,
            o_level: 1,
            m_level: 3,
            cells: 256,
            active_div: 16,
            ticks_per_unit: 4,
            units_per_10s: 160,
            warm_units: 32,
            lateness: None,
            queries: FLEET_QUERIES,
            threshold: 2.0,
        },
        Spec {
            name: "late_shuffled",
            why: "shuffled arrivals, stragglers and drops: the only workload on which reorder and amendments run",
            tenants: 4,
            dims: 2,
            depth: 3,
            fanout: 8,
            o_level: 1,
            m_level: 3,
            cells: 2_000,
            active_div: 1,
            ticks_per_unit: 8,
            units_per_10s: 140,
            warm_units: 24,
            lateness: Some(Lateness {
                capacity: 8,
                lateness: 2,
                sources: 4,
                horizon: 64,
                amend_permille: 10,
                drop_permille: 1,
            }),
            queries: FLEET_QUERIES,
            threshold: 2.0,
        },
        Spec {
            name: "read_heavy",
            why: "the snapshot layer read, not written: queries are most of the window",
            tenants: 16,
            dims: 2,
            depth: 3,
            fanout: 6,
            o_level: 1,
            m_level: 3,
            cells: 256,
            active_div: 1,
            ticks_per_unit: 4,
            units_per_10s: 130,
            warm_units: 24,
            lateness: None,
            queries: QueryMix {
                snapshot: 16384,
                summary: 8192,
                drill_history: 24576,
                drill_at: 16384,
                drill_children: 24576,
                alarms: 16384,
            },
            threshold: 2.0,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}
