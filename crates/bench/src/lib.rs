//! Benchmark harness for `regcube`: regenerates every table and figure of
//! the paper's evaluation (Section 5) and provides the measurement
//! utilities the experiments share.
//!
//! * [`memtrack`] — a counting global allocator (true allocation peaks,
//!   the analogue of the paper's "Memory Usage (in M-bytes)" axis);
//! * [`report`] — fixed-width ASCII tables for figure output;
//! * [`experiments`] — one module per figure:
//!   [`experiments::fig8`] (time/space vs exception %),
//!   [`experiments::fig9`] (time/space vs m-layer size),
//!   [`experiments::fig10`] (time/space vs number of levels),
//!   [`experiments::tilt`] (Example 3's 71-vs-35,136 compression),
//!   [`experiments::incremental`] (Section 5's closing remark: per-unit
//!   incremental recomputation vs full recomputation);
//!   plus post-paper scale-out experiments:
//!   [`experiments::scaling`] (sequential vs tier-pool cubing throughput),
//!   [`experiments::alarm`] (delta-driven sinks vs rescans),
//!   [`experiments::columnar`] (struct-of-arrays vs hash-map table
//!   layout on the hot tier roll-up) and
//!   [`experiments::lateness`] (watermark reordering under shuffled
//!   and straggling arrivals).
//!
//! These are per-layer micro-experiments. The end-to-end pipeline
//! benchmark (serving, snapshots, checkpoints, the numbers a change is
//! accepted or rejected on) is the separate package under `benchmark/`.
//!
//! Run everything with:
//!
//! ```text
//! cargo run -p regcube-bench --release --bin figures -- all
//! ```
//!
//! `--quick` shrinks the datasets for smoke runs; the defaults match the
//! paper's scales (D3L3C10T100K etc.).

pub mod experiments;
pub mod memtrack;
pub mod report;

/// Installs the counting allocator for every binary/bench linking this
/// crate, so [`memtrack`] peaks are meaningful everywhere.
#[global_allocator]
static GLOBAL_ALLOCATOR: memtrack::CountingAllocator = memtrack::CountingAllocator;
