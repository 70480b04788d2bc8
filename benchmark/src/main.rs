//! The regcube pipeline benchmark. See `README.md` in this directory.
//!
//! ```text
//! regcube-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1]
//! regcube-benchmark aa  [--runs N]     [--seed S] [--seconds N]
//! ```
//!
//! `run` with a workload measures it in this process and prints, as the
//! last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Without a workload it
//! runs all four, each in a fresh child process (the binary re-executes
//! itself) so that RSS peaks and allocator state do not leak from one
//! workload into the next.

mod alloc;
mod calib;
mod check;
mod gen;
mod json;
mod replay;
mod run;
mod served;
mod stats;
mod trace;
mod workloads;

use json::Json;
use run::RunResult;
use std::process::{Command, ExitCode, Stdio};
use workloads::{DEFAULT_SECONDS, DEFAULT_SEED};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str =
    "usage: regcube-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1]
       regcube-benchmark aa [--runs N] [--seed S] [--seconds N]
workloads: dense_cube quiet_fleet late_shuffled read_heavy";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 10,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if workloads::by_name(name).is_none() {
                    return Err(format!("unknown workload {name}"));
                }
                out.workload = Some(name.clone());
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&out.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => {
                out.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if out.runs < 2 {
                    return Err("--runs must be at least 2".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn metrics_json(metrics: &[run::Metric]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json::escape(m.name),
                m.value,
                json::escape(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(result: &RunResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.correct,
        result.ops.attempted,
        result.ops.failed,
        metrics_json(&result.metrics)
    )
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let spec = workloads::by_name(name).expect("validated by parse_args");
    match run::run_workload(&spec, args.seed, args.seconds, args.trace) {
        Ok(result) => {
            print!("{}", result.text);
            // The `expected.json` entry of this run.
            println!(
                "fingerprint: {}",
                result.fingerprint.entry_json(
                    name,
                    args.seed,
                    args.seconds,
                    result.checkpoint_bytes
                )
            );
            if !result.raw.is_empty() {
                println!("raw: {}", metrics_json(&result.raw));
            }
            println!("{}", result_line(&result));
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{name}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload in a fresh child process and returns its standard
/// output (`None` when it could not be run or exited non-zero).
fn run_child(name: &str, seed: u64, seconds: u64, trace: bool, capture: bool) -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if capture {
        cmd.stdout(Stdio::piped());
    }
    let output = cmd.spawn().ok()?.wait_with_output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).into_owned())
}

fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for spec in workloads::all() {
        ok &= run_child(spec.name, args.seed, args.seconds, args.trace, false).is_some();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `name → value` of a `{"name": {"value": v, ...}}` object.
fn metric_values(obj: &Json) -> Vec<(String, f64)> {
    obj.as_obj()
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

/// A/A: the whole benchmark `runs` times on this build, run `i` on seed
/// `seed + i`, alternating workload order. Per workload × end-to-end
/// metric it prints the median, the quartiles, the spread (IQR ÷
/// median), how much worse the second half's median is than the first
/// half's, and PASS/FAIL against the metric's bound — the acceptance
/// procedure of the benchmark, run on identical code.
fn run_aa(args: &Args) -> ExitCode {
    let bench = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let specs = workloads::all();
    // [workload][run] → (calibrated metrics, raw metrics)
    type Named = Vec<(String, f64)>;
    let mut runs: Vec<Vec<(Named, Named)>> = vec![Vec::new(); specs.len()];
    for i in 0..args.runs {
        let mut order: Vec<usize> = (0..specs.len()).collect();
        if i % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let name = specs[w].name;
            eprintln!("aa: run {}/{} {name}", i + 1, args.runs);
            let Some(stdout) = run_child(name, args.seed + i as u64, args.seconds, false, true)
            else {
                eprintln!("aa: {name} failed");
                return ExitCode::FAILURE;
            };
            let last = stdout.lines().last().unwrap_or_default();
            let raw = stdout
                .lines()
                .find_map(|l| l.strip_prefix("raw: "))
                .unwrap_or("{}");
            let (Ok(result), Ok(raw)) = (Json::parse(last), Json::parse(raw)) else {
                eprintln!("aa: {name} printed no result line");
                return ExitCode::FAILURE;
            };
            let metrics = result.get("metrics").map(metric_values).unwrap_or_default();
            runs[w].push((metrics, metric_values(&raw)));
        }
    }

    let mut all_pass = true;
    println!(
        "| workload | metric | median | q1 | q3 | spread | raw spread | half gap | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for (w, spec) in specs.iter().enumerate() {
        for m in bench
            .get("end_to_end")
            .map(Json::as_arr)
            .unwrap_or_default()
        {
            let name = m.get("name").and_then(Json::as_str).unwrap_or_default();
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let pick = |raw: bool| -> Vec<f64> {
                runs[w]
                    .iter()
                    .filter_map(|(cal, rawm)| {
                        let set = if raw { rawm } else { cal };
                        set.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
                    })
                    .collect()
            };
            let values = pick(false);
            if values.len() < 2 {
                println!(
                    "| {} | {name} | missing | | | | | | {bound} | FAIL |",
                    spec.name
                );
                all_pass = false;
                continue;
            }
            let [q1, q2, q3] = stats::quartiles(&values);
            let spread = stats::iqr_share(&values);
            let raw_values = pick(true);
            let raw_spread = if raw_values.len() >= 2 {
                format!("{:.4}", stats::iqr_share(&raw_values))
            } else {
                "—".into()
            };
            // Runs alternate between the two half-sets, as the two
            // sets of runs the acceptance procedure compares would.
            let first: Vec<f64> = values.iter().step_by(2).copied().collect();
            let second: Vec<f64> = values.iter().skip(1).step_by(2).copied().collect();
            let (m1, m2) = (stats::median(&first), stats::median(&second));
            let worse = if m1 == 0.0 {
                0.0
            } else if higher {
                (m1 - m2) / m1
            } else {
                (m2 - m1) / m1
            };
            // Either half may play "first": the gap must hold both ways.
            let gap = worse.abs();
            let pass = gap <= bound && (name == "setup_s" || spread <= bound);
            all_pass &= pass;
            println!(
                "| {} | {name} | {q2:.4} | {q1:.4} | {q3:.4} | {spread:.4} | {raw_spread} | {gap:.4} | {bound} | {} |",
                spec.name,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let args = match parse_args(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (command.as_str(), &args.workload) {
        ("run", Some(name)) => run_one(name, &args),
        ("run", None) => run_all(&args),
        ("aa", _) => run_aa(&args),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn declared(bench: &Json, section: &str) -> Vec<(String, String)> {
        bench
            .get(section)
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_owned(),
                    // Metrics carry a unit, workloads a reason.
                    m.get("unit")
                        .or(m.get("why"))
                        .and_then(Json::as_str)
                        .unwrap()
                        .to_owned(),
                )
            })
            .collect()
    }

    /// Runs a shrunk workload twice untraced and once traced, in
    /// process, and checks what the benchmark promises about names and
    /// counts.
    #[test]
    fn emitted_names_match_benchmark_json_and_counts_repeat() {
        let bench = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let ours: Vec<(String, String)> = workloads::all()
            .iter()
            .map(|s| (s.name.to_owned(), s.why.to_owned()))
            .collect();
        assert_eq!(declared(&bench, "workloads"), ours);
        assert!(ours.iter().all(|(n, _)| valid_name(n)));
        assert_eq!(
            bench.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS as f64)
        );

        for spec in workloads::all() {
            let spec = spec.shrunk();
            let a = run::run_workload(&spec, 5, 10, false).unwrap();
            let b = run::run_workload(&spec, 5, 10, false).unwrap();
            assert!(a.correct, "{}\n{}", spec.name, a.text);
            assert_eq!(a.fingerprint, b.fingerprint, "{}", spec.name);
            assert_eq!(a.checkpoint_bytes, b.checkpoint_bytes, "{}", spec.name);
            assert_eq!(a.ops, b.ops, "{}", spec.name);
            let other_seed = run::run_workload(&spec, 6, 10, false).unwrap();
            assert!(other_seed.correct, "{}\n{}", spec.name, other_seed.text);
            assert_ne!(a.fingerprint.digest, other_seed.fingerprint.digest);
            assert_eq!(a.fingerprint.records, other_seed.fingerprint.records);

            let emitted: Vec<(String, String)> = a
                .metrics
                .iter()
                .map(|m| (m.name.to_owned(), m.unit.to_owned()))
                .collect();
            assert_eq!(emitted, declared(&bench, "end_to_end"), "{}", spec.name);
            assert!(a
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0));

            let traced = run::run_workload(&spec, 5, 10, true).unwrap();
            assert!(traced.correct, "{}\n{}", spec.name, traced.text);
            assert_eq!(traced.fingerprint, a.fingerprint, "{}", spec.name);
            let emitted: Vec<(String, String)> = traced
                .metrics
                .iter()
                .map(|m| (m.name.to_owned(), m.unit.to_owned()))
                .collect();
            assert_eq!(emitted, declared(&bench, "per_layer"), "{}", spec.name);
            assert!(emitted.iter().all(|(n, _)| valid_name(n)));
            assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
            // Reordering runs on `late_shuffled` and nowhere else.
            let reorder = traced
                .metrics
                .iter()
                .find(|m| m.name == "stream.reorder_share")
                .unwrap()
                .value;
            assert_eq!(reorder > 0.0, spec.lateness.is_some(), "{}", spec.name);
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            correct: true,
            ops: served::Ops {
                attempted: 7,
                failed: 0,
            },
            metrics: vec![run::Metric {
                name: "setup_s",
                value: 0.8127,
                unit: "s",
            }],
            raw: Vec::new(),
            fingerprint: check::Fingerprint::default(),
            checkpoint_bytes: 0,
            text: String::new(),
        };
        let doc = Json::parse(&result_line(&result)).unwrap();
        let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            metric_values(doc.get("metrics").unwrap()),
            [("setup_s".to_owned(), 0.8127)]
        );
    }

    #[test]
    fn arguments_are_validated() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload quiet_fleet --seed 3 --seconds 5 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("quiet_fleet"));
        assert_eq!((a.seed, a.seconds, a.trace), (3, 5, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
    }
}
