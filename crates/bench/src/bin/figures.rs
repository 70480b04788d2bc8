//! The figure harness: regenerates every table/figure of the paper's
//! evaluation section.
//!
//! ```text
//! cargo run -p regcube-bench --release --bin figures -- all
//! cargo run -p regcube-bench --release --bin figures -- fig8 fig10 --quick
//! cargo run -p regcube-bench --release --bin figures -- all --json out.json
//! ```

use regcube_bench::experiments::{dims, fig10, fig8, fig9, incremental, tilt};
use regcube_bench::report::{tables_to_json, Table};
use std::process::ExitCode;

const USAGE: &str =
    "usage: figures [all|fig8|fig9|fig10|dims|tilt|incremental]... [--quick] [--json FILE]

  fig8         time & memory vs exception %        (D3L3C10T100K)
  fig9         time & memory vs m-layer size       (D3L3C10, 1% exceptions)
  fig10        time & memory vs number of levels   (D2C10T10K, 1% exceptions)
  dims         time & memory vs number of dims     (L3, 1% exceptions)
  tilt         Figure 4 / Example 3 tilt-frame compression
  incremental  online per-unit vs monolithic recomputation
  all          everything above (also the default)
  --quick      shrunken datasets for smoke runs
  --json FILE  additionally write all tables as a JSON document";

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [&str; 6] = ["fig8", "fig9", "fig10", "dims", "tilt", "incremental"];

/// A checked command line.
#[derive(Debug, PartialEq)]
struct Args {
    experiments: Vec<&'static str>,
    quick: bool,
    json: Option<String>,
}

/// Parses the command line, rejecting anything it does not know before
/// a single experiment runs.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut experiments = Vec::new();
    let mut all = false;
    let mut quick = false;
    let mut json = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => match it.next() {
                Some(path) if !path.starts_with('-') => json = Some(path.clone()),
                _ => return Err("--json needs a file path".into()),
            },
            "all" => all = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag: {flag}")),
            name => match EXPERIMENTS.iter().find(|&&e| e == name) {
                Some(&e) => experiments.push(e),
                None => return Err(format!("unknown experiment: {name}")),
            },
        }
    }
    if all || experiments.is_empty() {
        experiments = EXPERIMENTS.to_vec();
    }
    Ok(Args {
        experiments,
        quick,
        json,
    })
}

/// Runs one experiment, prints its tables and returns them.
fn run(name: &str, quick: bool) -> Vec<Table> {
    match name {
        "fig8" => {
            let dataset = if quick { "D3L3C4T5K" } else { "D3L3C10T100K" };
            eprintln!("[figures] running fig8 on {dataset} ...");
            fig8::print(&fig8::run(quick), dataset)
        }
        "fig9" => {
            let structure = if quick { "D3L3C4" } else { "D3L3C10" };
            eprintln!("[figures] running fig9 on {structure} ...");
            fig9::print(&fig9::run(quick), structure)
        }
        "fig10" => {
            let structure = if quick { "D2C4T2K" } else { "D2C10T10K" };
            eprintln!("[figures] running fig10 on {structure} ...");
            fig10::print(&fig10::run(quick), structure)
        }
        "dims" => {
            let structure = if quick { "C3T1K" } else { "C6T10K" };
            eprintln!("[figures] running dims on {structure} ...");
            dims::print(&dims::run(quick), structure)
        }
        "tilt" => {
            eprintln!("[figures] running tilt ...");
            tilt::print(&tilt::run(quick))
        }
        "incremental" => {
            eprintln!("[figures] running incremental ...");
            incremental::print(&incremental::run(quick))
        }
        other => unreachable!("parse_args admitted {other}"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let mut all_tables: Vec<Table> = Vec::new();
    for name in &args.experiments {
        all_tables.extend(run(name, args.quick));
    }

    if let Some(path) = args.json {
        let doc = tables_to_json(&all_tables);
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[figures] wrote {} tables to {path}", all_tables.len());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn accepted_forms() {
        let everything = Args {
            experiments: EXPERIMENTS.to_vec(),
            quick: false,
            json: None,
        };
        assert_eq!(parse(""), Ok(everything));
        let all = parse("all --quick --json out.json").unwrap();
        assert_eq!(all.experiments, EXPERIMENTS);
        assert!(all.quick);
        assert_eq!(all.json.as_deref(), Some("out.json"));
        assert_eq!(
            parse("--json figs.json tilt fig8"),
            Ok(Args {
                experiments: vec!["tilt", "fig8"],
                quick: false,
                json: Some("figs.json".into()),
            })
        );
        assert_eq!(parse("fig8 all").unwrap().experiments, EXPERIMENTS);
    }

    #[test]
    fn json_needs_a_path_that_is_not_a_flag() {
        assert!(parse("--json --quick tilt").is_err());
        assert!(parse("tilt --json").is_err());
        assert!(parse("tilt --json -o").is_err());
    }

    #[test]
    fn unknown_flags_are_refused() {
        assert_eq!(
            parse("fig8 --quik"),
            Err("unknown flag: --quik".to_string())
        );
        assert!(parse("-q tilt").is_err());
    }

    #[test]
    fn unknown_experiments_are_refused_before_any_runs() {
        assert_eq!(
            parse("tilt fig11 --quick"),
            Err("unknown experiment: fig11".to_string())
        );
        for gone in ["scaling", "alarm", "columnar", "lateness"] {
            assert!(parse(gone).is_err(), "{gone}");
        }
    }
}
