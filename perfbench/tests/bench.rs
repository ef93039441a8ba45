//! Tests of the benchmark itself: seeded inputs, metric names, and a
//! short smoke run of every workload through its output checks.

use perfbench::inputs::{
    hot_specs, op_line, session_modules, solve_order, unique_pool, unique_schedule, OpPlan,
    FIXED_SEEDS,
};
use perfbench::report::{per_layer_names, Report, E2E};
use perfbench::serve_cached::CachedConfig;
use perfbench::serve_unique::UniqueConfig;
use perfbench::solve::SolveConfig;
use perfbench::{serve_cached, serve_unique, solve, RunArgs};

fn unique_lines(seed: u64) -> Vec<String> {
    unique_schedule(seed, 1, 2, 50.0, &unique_pool(40))
        .into_iter()
        .flatten()
        .map(|t| format!("{} {}", t.due_us, t.line))
        .collect()
}

fn cached_lines(seed: u64) -> Vec<String> {
    let hot = hot_specs(4);
    let modules = session_modules(12);
    (0..2)
        .flat_map(|conn| {
            OpPlan::new(seed, conn, hot.len(), modules.len())
                .take(200)
                .enumerate()
                .map(|(i, op)| op_line(&op, i as u64 + 1, conn + 1, &hot, &modules))
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn request_lines_are_a_function_of_the_seed() {
    let a = unique_lines(7);
    assert_eq!(a, unique_lines(7));
    assert_ne!(a, unique_lines(8));
    let c = cached_lines(7);
    assert_eq!(c, cached_lines(7));
    assert_ne!(c, cached_lines(8));
    assert_eq!(solve_order(7, 33), solve_order(7, 33));
    assert_ne!(solve_order(7, 33), solve_order(8, 33));
}

#[test]
fn a_segment_sends_every_pool_spec_once() {
    let pool = unique_pool(40);
    let mut specs: Vec<String> = pool
        .iter()
        .map(|s| serde_json::to_string(s).unwrap())
        .collect();
    specs.sort();
    specs.dedup();
    assert_eq!(specs.len(), pool.len(), "pool specs are distinct");
    let mut sent: Vec<usize> = unique_schedule(3, 0, 2, 50.0, &pool)
        .into_iter()
        .flatten()
        .map(|t| t.spec)
        .collect();
    sent.sort();
    assert_eq!(sent, (0..pool.len()).collect::<Vec<_>>());
}

#[test]
fn session_plan_stays_within_live_bounds() {
    let mut live = 0i64;
    for op in OpPlan::new(1, 0, 4, 12).take(10_000) {
        match op {
            perfbench::inputs::Op::Insert { .. } => live += 1,
            perfbench::inputs::Op::Remove { .. } => live -= 1,
            _ => {}
        }
        assert!((0..=6).contains(&live), "live {live}");
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let mut all: Vec<String> = E2E.iter().map(|(n, _)| n.to_string()).collect();
    all.extend(per_layer_names().into_iter().map(|(n, _)| n));
    for name in &all {
        assert!(valid_name(name), "bad metric name {name:?}");
    }
    let mut dedup = all.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(dedup.len(), all.len(), "duplicate metric names");
}

/// `BENCHMARK.json` at the repository root lists exactly the metrics the
/// program reports, with the same units.
#[test]
fn benchmark_json_matches_the_program() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(serde_json::Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(serde_json::Value::as_str)
                        .unwrap()
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = E2E
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed("end_to_end"), e2e);
    let layer: Vec<(String, String)> = per_layer_names()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), layer);
}

fn assert_passes(mut report: Report, trace: bool) {
    report.finish(trace);
    assert!(
        report.correct(),
        "checks failed: {:?} (attempted {}, failed {})",
        report.errors,
        report.attempted,
        report.failed
    );
    let expected = if trace {
        per_layer_names().len()
    } else {
        E2E.len()
    };
    assert_eq!(report.metrics.len(), expected);
    if !trace {
        for (name, m) in &report.metrics {
            assert!(m.value > 0.0, "{name} is {}", m.value);
        }
    }
}

#[test]
fn smoke_solve() {
    let config = SolveConfig {
        fixed: vec![FIXED_SEEDS[2]],
        proof: 4,
        fail_limit: 200,
    };
    for trace in [false, true] {
        let args = RunArgs {
            seed: 5,
            seconds: 1,
            trace,
        };
        let (report, spans) = solve::run(args, &config);
        if trace {
            assert!(report.metrics["core.search_ms.proof"].value > 0.0);
            assert!(report.metrics["solver.prop.geost_non_overlap.execs.fixed"].value > 0.0);
            assert!(!spans.records().is_empty());
        }
        assert_passes(report, trace);
    }
}

#[test]
fn smoke_serve_unique() {
    let config = UniqueConfig {
        rate: 60.0,
        warmup: 2,
        segments: 2,
    };
    for trace in [false, true] {
        let args = RunArgs {
            seed: 9,
            seconds: 1,
            trace,
        };
        let (report, _) = serve_unique::run(args, &config);
        if trace {
            assert!(report.metrics["server.cp_us"].value > 0.0);
            assert_eq!(report.metrics["server.cache_hits"].value, 0.0);
        }
        assert_passes(report, trace);
    }
}

#[test]
fn smoke_serve_cached() {
    let config = CachedConfig {
        warmup_ops: 10,
        segments: 2,
    };
    for trace in [false, true] {
        let args = RunArgs {
            seed: 9,
            seconds: 1,
            trace,
        };
        let (report, _) = serve_cached::run(args, &config);
        if trace {
            assert_eq!(report.metrics["server.cache_hit_ratio"].value, 1.0);
            assert!(report.metrics["core.online_insert_us"].value > 0.0);
        }
        assert_passes(report, trace);
    }
}
