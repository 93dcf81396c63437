//! `ladder` — one six-workload benchmark of the BlindFL reproduction:
//! absolute end-to-end numbers from an untraced run through the
//! product's entry points, and an outside-in per-layer trace from a
//! second, traced run. See `bench/README.md`.
//!
//! ```text
//! ladder --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>] [--smoke] [--record]
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; everything else goes
//! to standard error.

mod adapter;
mod metrics;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{END_TO_END, PER_LAYER};
use workloads::Opts;

const USAGE: &str = "usage: ladder --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>] [--smoke] [--record]";

struct Cli {
    workload: String,
    opts: Opts,
    record: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let (mut seed, mut seconds) = (1u64, 8.0f64);
    let (mut trace, mut smoke, mut record) = (false, false, false);
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => workload = Some(value("a name")?),
            "--seed" => {
                seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare flag.
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => smoke = true,
            "--record" => record = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    // Build outputs go where cargo's do; the driver points that inside
    // its checkout.
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let trace_path = trace.then(|| {
        target
            .join("ladder")
            .join(format!("{workload}.trace.jsonl"))
    });
    Ok(Cli {
        workload,
        opts: Opts {
            seed,
            seconds,
            trace,
            smoke,
            trace_path,
        },
        record,
    })
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The checked-out commit, marked when the tree has uncommitted changes
/// (a record must say which code it measured).
fn commit() -> String {
    let head = command_line("git", &["rev-parse", "--short", "HEAD"]);
    match command_line("git", &["status", "--porcelain"]).as_str() {
        "" | "unknown" => head,
        _ => format!("{head}-dirty"),
    }
}

/// Append `{commit, date, cores, workload, metrics}` to
/// `bench/history.jsonl`. Off unless `--record` is given, so pipeline
/// runs leave the tree clean.
fn record(cli: &Cli, metrics_json: &str) -> std::io::Result<()> {
    use std::io::Write;
    let line = format!(
        "{{\"commit\": \"{}\", \"date\": \"{}\", \"cores\": {}, \"workload\": \"{}\", \"seed\": {}, \
         \"trace\": {}, \"smoke\": {}, \"metrics\": {metrics_json}}}\n",
        commit(),
        command_line("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"]),
        metrics::cores(),
        cli.workload,
        cli.opts.seed,
        cli.opts.trace,
        cli.opts.smoke,
    );
    let path = std::path::Path::new("bench").join("history.jsonl");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?
        .write_all(line.as_bytes())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("ladder: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) && !cli.opts.smoke {
        eprintln!(
            "ladder: refusing to measure a debug build; build with --release (or pass --smoke)"
        );
        return ExitCode::from(2);
    }
    let registry = if cli.opts.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    match workloads::run(&cli.workload, &cli.opts) {
        Ok(result) => {
            if cli.record {
                if let Err(e) = record(&cli, &metrics::metrics_json(registry, &result.metrics)) {
                    eprintln!("ladder: could not append to bench/history.jsonl: {e}");
                }
            }
            println!("{}", metrics::result_line(registry, &result));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ladder: {}: {e}", cli.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str =
        include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"));

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn every_name_is_well_formed_and_in_benchmark_json() {
        let mut expected = 0;
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(name), "{name}");
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(
                BENCHMARK_JSON.matches(&entry).count(),
                1,
                "{entry} not exactly once in BENCHMARK.json"
            );
            expected += 1;
        }
        for name in workloads::NAMES {
            assert!(well_formed(name), "{name}");
            let entry = format!("{{\"name\": \"{name}\", \"why\": ");
            assert_eq!(
                BENCHMARK_JSON.matches(&entry).count(),
                1,
                "{entry} not exactly once in BENCHMARK.json"
            );
            expected += 1;
        }
        // ...and BENCHMARK.json names nothing the binary does not print.
        assert_eq!(BENCHMARK_JSON.matches("\"name\": ").count(), expected);
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "a metric name is used twice"
        );
    }

    #[test]
    fn cli_accepts_the_driver_form_and_the_bare_flag() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let cli = parse(&args("--workload lr_sparse --seed 9 --seconds 3 --trace 0")).unwrap();
        assert_eq!(
            (
                cli.workload.as_str(),
                cli.opts.seed,
                cli.opts.seconds,
                cli.opts.trace
            ),
            ("lr_sparse", 9, 3.0, false)
        );
        assert!(cli.opts.trace_path.is_none());
        let cli = parse(&args("--workload gbdt_hist --trace 1 --smoke")).unwrap();
        assert!(cli.opts.trace && cli.opts.smoke && !cli.record);
        assert!(cli
            .opts
            .trace_path
            .unwrap()
            .ends_with("ladder/gbdt_hist.trace.jsonl"));
        assert!(
            parse(&args("--workload x --trace --record"))
                .unwrap()
                .opts
                .trace
        );
        assert!(parse(&args("--seed 1")).is_err());
        assert!(parse(&args("--workload x --seconds 0")).is_err());
        assert!(parse(&args("--workload x --bogus")).is_err());
    }
}
