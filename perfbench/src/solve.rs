//! `solve`: in-process, single-threaded, sequential CP solves of a fixed
//! instance library — the paper's unit of cost, with no daemon.
//!
//! Each pass solves every instance once, in a seed-drawn order: the
//! fixed-work set under a fixed failure budget (a deterministic search
//! tree, so wall time measures speed alone) and the proof set to proven
//! optimality (few objects per geost call, so a change that helps
//! 30-object non-overlap but costs small models shows). Passes repeat
//! until the run's time is up, and the metrics use each instance's
//! fastest untraced solve.

use std::sync::Arc;
use std::time::Instant;

use rrf_core::{cp, PlacerConfig, SearchStrategy};
use rrf_trace::{MemorySink, Summary, Tracer};

use crate::inputs::{
    paper_instance, solve_library, solve_order, Instance, Set, FIXED_FAIL_LIMIT, FIXED_SEEDS,
    PROOF_EXTENTS,
};
use crate::report::{mean, median, percentile, Report, PROP_KINDS};
use crate::spans::Spans;
use crate::{check_plan, RunArgs};

/// The instance library.
#[derive(Debug, Clone)]
pub struct SolveConfig {
    pub fixed: Vec<u64>,
    pub proof: usize,
    pub fail_limit: u64,
}

impl Default for SolveConfig {
    /// The full library; one pass takes about 2.5 s on the reference
    /// machine, so a 30 s run makes about a dozen.
    fn default() -> SolveConfig {
        SolveConfig {
            fixed: FIXED_SEEDS.to_vec(),
            proof: PROOF_EXTENTS.len(),
            fail_limit: FIXED_FAIL_LIMIT,
        }
    }
}

/// The six-module warm-up instance solved during set-up (not in the
/// library).
const WARMUP_SEED: u64 = 2;
/// One set-up is timed before the passes and one after every
/// `SETUP_EVERY`-th solve; `setup_s` is their median. Spread over the
/// run, a host slow spell of a few seconds moves only some of them (25
/// set-ups timed back to back took a median 17 ms in one run and 37 ms in
/// the next).
const SETUP_EVERY: usize = 16;

struct SetTrace {
    sink: Arc<MemorySink>,
    tracer: Tracer,
}

/// Per-set sums over the traced passes.
#[derive(Default)]
struct SetTotals {
    nodes: u64,
    failures: u64,
    propagations: u64,
}

pub fn run(args: RunArgs, config: &SolveConfig) -> (Report, Spans) {
    let set_up = || {
        let started = Instant::now();
        let library = solve_library(&config.fixed, config.proof);
        (library, started.elapsed().as_secs_f64())
    };
    let (library, first_setup_s) = set_up();
    let mut setup_s = vec![first_setup_s];
    // An untimed warm-up proof, so the first measured solve does not pay
    // for cold caches. It stays out of `setup_s`, which measures input
    // preparation: a proof is solver work, which the passes measure, and
    // it was most of the set-up time and of its run-to-run spread.
    let warm = cp::place(
        &paper_instance(6, WARMUP_SEED),
        &placer(None, Tracer::default()),
    );
    assert!(warm.proven, "warm-up instance proves");
    let mut report = Report::default();

    let origin = Instant::now();
    let mut spans = Spans::new(origin, args.trace);
    let mut off = Spans::new(origin, false);
    let order = solve_order(args.seed, library.len());
    // Passes run until `seconds` are up (at least one, and at least two
    // when traced); a traced run alternates untraced passes (the
    // comparison for trace.overhead_frac) with traced ones.
    let min_passes = if args.trace { 2 } else { 1 };
    let budget_s = args.seconds as f64;
    let mut passes = 0usize;

    // Fastest time of each instance over the measured passes: the host's
    // interference only ever slows a solve down (see README).
    let mut best_ms = vec![f64::INFINITY; library.len()];
    let mut pass_place_s = [0.0f64; 2];
    let mut pass_count = [0usize; 2];
    let mut good = 0u64;
    let mut fixed_util = vec![0.0; library.len()];
    let traces: Vec<SetTrace> = (0..2)
        .map(|_| {
            let sink = Arc::new(MemorySink::new());
            SetTrace {
                tracer: Tracer::new(sink.clone()),
                sink,
            }
        })
        .collect();
    let mut totals = [SetTotals::default(), SetTotals::default()];

    let mut solves = 0usize;
    let passes_started = Instant::now();
    loop {
        let elapsed_s = passes_started.elapsed().as_secs_f64();
        if passes >= min_passes && elapsed_s * (passes + 1) as f64 / passes as f64 > budget_s {
            break;
        }
        let traced = args.trace && passes % 2 == 1;
        passes += 1;
        pass_count[usize::from(traced)] += 1;
        for &i in &order {
            let inst = &library[i];
            let set_ix = inst.set as usize;
            let id = i as u64 + 1;
            let tracer = if traced {
                traces[set_ix].tracer.clone()
            } else {
                Tracer::default()
            };
            let limit = (inst.set == Set::Fixed).then_some(config.fail_limit);
            let cfg = placer(limit, tracer);
            let started = Instant::now();
            let out = cp::place(&inst.problem, &cfg);
            let ended = Instant::now();
            let dt = (ended - started).as_secs_f64();
            pass_place_s[usize::from(traced)] += dt;
            if !traced {
                best_ms[i] = best_ms[i].min(dt * 1e3);
            }
            report.attempted += 1;
            let sp = if traced { &mut spans } else { &mut off };
            let root = sp.record(id, "solve.instance", None, started, ended);
            if traced {
                sp.record(id, "core.place", root, started, ended);
                totals[set_ix].nodes += out.stats.nodes;
                totals[set_ix].failures += out.stats.failures;
                totals[set_ix].propagations += out.stats.propagations;
                layer_calls(sp, id, root, inst);
            }
            match check_outcome(inst, &out, sp, id, root) {
                Ok(util) => {
                    good += 1;
                    fixed_util[i] = util;
                }
                Err(e) => report.fail(format!("{}: {e}", inst.label)),
            }
            solves += 1;
            if solves.is_multiple_of(SETUP_EVERY) {
                setup_s.push(set_up().1);
            }
        }
    }

    let setups = setup_s.len() as u64;
    report.set("setup_s", "s", median(&mut setup_s), setups);
    let ops = report.attempted;
    let mut sorted_ms = best_ms.clone();
    sorted_ms.sort_by(f64::total_cmp);
    report.set("p50_ms", "ms", percentile(&sorted_ms, 50.0), ops);
    // The mean of the slowest quarter, not a percentile: over 30 s windows
    // of a ten-minute trace the p75 (one instance's time) spread 0.16,
    // this mean 0.12.
    let slowest = &sorted_ms[sorted_ms.len() * 3 / 4..];
    report.set("tail_ms", "ms", mean(slowest), ops);
    report.set(
        "ops_per_s",
        "1/s",
        library.len() as f64 / (best_ms.iter().sum::<f64>() / 1e3),
        ops,
    );
    report.set("goodput", "share", good as f64 / ops.max(1) as f64, ops);
    let fixed: Vec<f64> = library
        .iter()
        .zip(&fixed_util)
        .filter(|(inst, _)| inst.set == Set::Fixed)
        .map(|(_, &u)| u)
        .collect();
    report.set("util", "share", mean(&fixed), fixed.len() as u64);

    if args.trace {
        let [untraced, traced] = pass_count;
        let traced_passes = traced as f64;
        report.set(
            "trace.overhead_frac",
            "share",
            (pass_place_s[1] / traced as f64) / (pass_place_s[0] / untraced as f64) - 1.0,
            (passes * library.len()) as u64,
        );
        for set in [Set::Fixed, Set::Proof] {
            let ids: Vec<u64> = library
                .iter()
                .enumerate()
                .filter(|(_, inst)| inst.set == set)
                .map(|(i, _)| i as u64 + 1)
                .collect();
            let summary = Summary::from_lines(
                &rrf_trace::parse_text(&traces[set as usize].sink.text())
                    .expect("the placer's own trace parses"),
            );
            layer_metrics(
                &mut report,
                set,
                &spans,
                &ids,
                &summary,
                &totals[set as usize],
                traced_passes,
            );
        }
    }
    (report, spans)
}

fn placer(fail_limit: Option<u64>, tracer: Tracer) -> PlacerConfig {
    PlacerConfig {
        time_limit: None,
        fail_limit,
        strategy: SearchStrategy::Sequential,
        tracer,
        ..PlacerConfig::default()
    }
}

/// Check one solve's output; returns the floorplan's utilization.
fn check_outcome(
    inst: &Instance,
    out: &cp::PlacementOutcome,
    spans: &mut Spans,
    id: u64,
    parent: Option<usize>,
) -> Result<f64, String> {
    let plan = out.plan.as_ref().ok_or("no floorplan")?;
    let util = spans.time(id, "core.verify", parent, || {
        check_plan(
            &inst.problem.region,
            &inst.problem.modules,
            plan,
            out.extent,
        )
    })?;
    if let Some(reference) = inst.reference_extent {
        if !out.proven {
            return Err("proof-set instance not proven".into());
        }
        if out.extent != Some(reference) {
            return Err(format!(
                "optimal extent {:?}, reference {reference}",
                out.extent
            ));
        }
    }
    Ok(util)
}

/// The traced run times the layers the placer calls internally by calling
/// their public entry points on the same instance.
fn layer_calls(spans: &mut Spans, id: u64, root: Option<usize>, inst: &Instance) {
    let p = &inst.problem;
    spans.time(id, "geost.anchor_rows", root, || {
        for m in &p.modules {
            std::hint::black_box(rrf_geost::anchor_rows(&p.region, m.shapes()));
        }
    });
    spans.time(id, "core.bottom_left", root, || {
        std::hint::black_box(rrf_core::baseline::bottom_left(p));
    });
}

fn layer_metrics(
    report: &mut Report,
    set: Set,
    spans: &Spans,
    ids: &[u64],
    summary: &Summary,
    totals: &SetTotals,
    traced_passes: f64,
) {
    let sfx = set.suffix();
    let n = ids.len() as u64;
    let span_ms = |name: &str| {
        let (total_us, count) = spans
            .records()
            .iter()
            .filter(|r| r.name == name && ids.contains(&r.id))
            .fold((0.0, 0u64), |(t, c), r| (t + r.dur_us(), c + 1));
        (total_us / 1e3 / count.max(1) as f64, count)
    };
    for (metric, span) in [
        ("core.place_ms", "core.place"),
        ("geost.anchor_rows_ms", "geost.anchor_rows"),
        ("core.bottom_left_ms", "core.bottom_left"),
        ("core.verify_ms", "core.verify"),
    ] {
        let (ms, count) = span_ms(span);
        report.set(&format!("{metric}.{sfx}"), "ms", ms, count);
    }
    let instances = (n as f64 * traced_passes).max(1.0);
    let wall_ms = |name: &str| {
        summary
            .wall
            .get(name)
            .map_or(0.0, |w| w.total_us as f64 / 1e3)
    };
    for (metric, span) in [
        ("core.prune_ms", "place.prune"),
        ("core.build_ms", "place.build"),
        ("core.warm_start_ms", "place.warm_start"),
        ("core.search_ms", "place.search"),
    ] {
        report.set(
            &format!("{metric}.{sfx}"),
            "ms",
            wall_ms(span) / instances,
            instances as u64,
        );
    }
    let search_s = wall_ms("place.search") / 1e3;
    report.set(
        &format!("solver.nodes_per_s.{sfx}"),
        "1/s",
        if search_s > 0.0 {
            totals.nodes as f64 / search_s
        } else {
            0.0
        },
        totals.nodes,
    );
    for (metric, total) in [
        ("solver.nodes", totals.nodes),
        ("solver.failures", totals.failures),
        ("solver.propagations", totals.propagations),
    ] {
        report.set(
            &format!("{metric}.{sfx}"),
            "count",
            total as f64 / traced_passes,
            n,
        );
    }
    for kind in PROP_KINDS {
        let agg = summary.props.get(*kind).cloned().unwrap_or_default();
        let execs = agg.execs as f64 / traced_passes;
        let conflicts = agg.conflicts as f64 / traced_passes;
        report.set(
            &format!("solver.prop.{kind}.execs.{sfx}"),
            "count",
            execs,
            n,
        );
        report.set(
            &format!("solver.prop.{kind}.conflicts.{sfx}"),
            "count",
            conflicts,
            n,
        );
        report.set(
            &format!("solver.prop.{kind}.conflict_ratio.{sfx}"),
            "share",
            if agg.execs > 0 {
                agg.conflicts as f64 / agg.execs as f64
            } else {
                0.0
            },
            agg.execs,
        );
        if *kind == "table" {
            report.set(
                &format!("solver.prop.table.scanned.{sfx}"),
                "count",
                agg.scanned as f64 / traced_passes,
                n,
            );
        }
    }
}
