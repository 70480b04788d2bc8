//! The figure harness: regenerates every table/figure of the paper's
//! evaluation section.
//!
//! ```text
//! cargo run -p regcube-bench --release --bin figures -- all
//! cargo run -p regcube-bench --release --bin figures -- fig8 fig10 --quick
//! cargo run -p regcube-bench --release --bin figures -- all --json out.json
//! ```

use regcube_bench::experiments::{
    alarm, columnar, dims, fig10, fig8, fig9, incremental, lateness, scaling, tilt,
};
use regcube_bench::report::{tables_to_json, Table};
use std::process::ExitCode;

const USAGE: &str =
    "usage: figures [all|fig8|fig9|fig10|dims|tilt|incremental|scaling|alarm|columnar|lateness]... [--quick] [--json FILE]

  fig8         time & memory vs exception %        (D3L3C10T100K)
  fig9         time & memory vs m-layer size       (D3L3C10, 1% exceptions)
  fig10        time & memory vs number of levels   (D2C10T10K, 1% exceptions)
  dims         time & memory vs number of dims     (L3, 1% exceptions)
  tilt         Figure 4 / Example 3 tilt-frame compression
  incremental  online per-unit vs monolithic recomputation
  scaling      sequential vs tier-pool cubing throughput
  alarm        delta-driven alarm sinks vs rescan consumer overhead
  columnar     struct-of-arrays vs hash-map layout on the tier roll-up,
               plus the kernel-dispatch vs scalar-fallback fold phases
  lateness     watermark reordering: sorted vs bounded-shuffle vs
               straggler streams (amendment + drop accounting)
  all          everything above
  --quick      shrunken datasets for smoke runs
  --json FILE  additionally write all tables as a JSON document";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let mut wanted: Vec<&str> = Vec::new();
    let mut skip_next = false;
    for a in &args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--json" {
            skip_next = true;
            continue;
        }
        if !a.starts_with("--") {
            wanted.push(a.as_str());
        }
    }
    if wanted.is_empty() || wanted.contains(&"all") {
        wanted = vec![
            "fig8",
            "fig9",
            "fig10",
            "dims",
            "tilt",
            "incremental",
            "scaling",
            "alarm",
            "columnar",
            "lateness",
        ];
    }

    let mut all_tables: Vec<Table> = Vec::new();
    for name in &wanted {
        match *name {
            "fig8" => {
                let dataset = if quick { "D3L3C4T5K" } else { "D3L3C10T100K" };
                eprintln!("[figures] running fig8 on {dataset} ...");
                let points = fig8::run(quick);
                all_tables.extend(fig8::print(&points, dataset));
            }
            "fig9" => {
                let structure = if quick { "D3L3C4" } else { "D3L3C10" };
                eprintln!("[figures] running fig9 on {structure} ...");
                let points = fig9::run(quick);
                all_tables.extend(fig9::print(&points, structure));
            }
            "fig10" => {
                let structure = if quick { "D2C4T2K" } else { "D2C10T10K" };
                eprintln!("[figures] running fig10 on {structure} ...");
                let points = fig10::run(quick);
                all_tables.extend(fig10::print(&points, structure));
            }
            "dims" => {
                let structure = if quick { "C3T1K" } else { "C6T10K" };
                eprintln!("[figures] running dims on {structure} ...");
                let points = dims::run(quick);
                all_tables.extend(dims::print(&points, structure));
            }
            "tilt" => {
                eprintln!("[figures] running tilt ...");
                let report = tilt::run(quick);
                all_tables.extend(tilt::print(&report));
            }
            "incremental" => {
                eprintln!("[figures] running incremental ...");
                let report = incremental::run(quick);
                all_tables.extend(incremental::print(&report));
            }
            "scaling" => {
                eprintln!("[figures] running scaling ...");
                let points = scaling::run(quick);
                all_tables.extend(scaling::print(&points));
            }
            "alarm" => {
                eprintln!("[figures] running alarm ...");
                let points = alarm::run(quick);
                all_tables.extend(alarm::print(&points));
            }
            "columnar" => {
                eprintln!("[figures] running columnar ...");
                let points = columnar::run(quick);
                all_tables.extend(columnar::print(&points));
            }
            "lateness" => {
                eprintln!("[figures] running lateness ...");
                let points = lateness::run(quick);
                all_tables.extend(lateness::print(&points));
            }
            other => {
                eprintln!("unknown experiment: {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = json_path {
        let doc = tables_to_json(&all_tables);
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[figures] wrote {} tables to {path}", all_tables.len());
    }
    ExitCode::SUCCESS
}
