//! Figure harness for `regcube`: regenerates every table and figure of
//! the paper's evaluation (Section 5), and nothing else.
//!
//! * [`memtrack`] — a counting global allocator (true allocation peaks,
//!   the analogue of the paper's "Memory Usage (in M-bytes)" axis);
//! * [`report`] — fixed-width ASCII tables for figure output;
//! * [`experiments`] — one module per figure:
//!   [`experiments::fig8`] (time/space vs exception %),
//!   [`experiments::fig9`] (time/space vs m-layer size),
//!   [`experiments::fig10`] (time/space vs number of levels),
//!   [`experiments::dims`] (time/space vs number of dimensions),
//!   [`experiments::tilt`] (Example 3's 71-vs-35,136 compression) and
//!   [`experiments::incremental`] (Section 5's closing remark: per-unit
//!   incremental recomputation vs full recomputation).
//!
//! Everything past the paper — serving, reordering, alarms, layouts,
//! parallel cubing, snapshots, checkpoints, the numbers a change is
//! accepted or rejected on — is measured by the separate pipeline
//! benchmark package under `benchmark/`.
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
