//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload solve|serve_unique|serve_cached|all
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints every metric by name, unit and sample count, then, as the last
//! line, one JSON object `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The traced run also writes its spans as NDJSON under
//! `$CARGO_TARGET_DIR/perfbench/` (`target/perfbench/` by default).
//! `--workload all` runs every workload untraced and traced. Exits 1 when
//! an output check fails, 2 on bad arguments.

use std::path::PathBuf;

use perfbench::report::Report;
use perfbench::serve_cached::CachedConfig;
use perfbench::serve_unique::UniqueConfig;
use perfbench::solve::SolveConfig;
use perfbench::spans::Spans;
use perfbench::{serve_cached, serve_unique, solve, RunArgs};

const WORKLOADS: &[&str] = &["solve", "serve_unique", "serve_cached"];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload solve|serve_unique|serve_cached|all \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn run(workload: &str, args: RunArgs) -> (Report, Spans) {
    let (mut report, spans) = match workload {
        "solve" => solve::run(args, &SolveConfig::default()),
        "serve_unique" => serve_unique::run(args, &UniqueConfig::default()),
        "serve_cached" => serve_cached::run(args, &CachedConfig::default()),
        _ => usage(),
    };
    report.finish(args.trace);
    (report, spans)
}

fn spans_path(workload: &str, seed: u64) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    dir.join("perfbench")
        .join(format!("spans-{workload}-{seed}.ndjson"))
}

/// Run one workload, print its table and errors; returns the report.
fn run_and_print(workload: &str, args: RunArgs, prefix: &str) -> Report {
    let (report, spans) = run(workload, args);
    if args.trace {
        let path = spans_path(workload, args.seed);
        match spans.write_ndjson(&path) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                spans.records().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    print!("{}", report.table(prefix));
    for e in report.errors.iter().take(20) {
        eprintln!("perfbench: {workload}: CHECK FAILED: {e}");
    }
    if report.errors.len() > 20 {
        eprintln!("perfbench: {workload}: … {} more", report.errors.len() - 20);
    }
    report
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage())),
            "--seconds" => seconds = Some(value.parse().unwrap_or_else(|_| usage())),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        usage()
    };
    if seconds == 0 {
        usage();
    }
    let trace = trace.unwrap_or(false);

    let report = if workload == "all" {
        let mut all = Report::default();
        for w in WORKLOADS {
            for traced in [false, true] {
                let args = RunArgs {
                    seed,
                    seconds,
                    trace: traced,
                };
                let r = run_and_print(w, args, &format!("{w}."));
                all.attempted += r.attempted;
                all.failed += r.failed;
                all.errors.extend(r.errors);
                for (name, m) in r.metrics {
                    all.metrics.insert(format!("{w}.{name}"), m);
                }
            }
        }
        all
    } else if WORKLOADS.contains(&workload.as_str()) {
        run_and_print(
            &workload,
            RunArgs {
                seed,
                seconds,
                trace,
            },
            "",
        )
    } else {
        usage()
    };
    println!("{}", report.json_line());
    if !report.correct() {
        std::process::exit(1);
    }
}
