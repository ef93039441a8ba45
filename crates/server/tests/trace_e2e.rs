//! End-to-end observability tests: drive the daemon over a real socket
//! and assert that the `stats_detail` reply and the `--trace` stream
//! describe what actually happened — which degradation-ladder rung ran,
//! and phase timings that tile the end-to-end total.

use rrf_fabric::ResourceKind;
use rrf_flow::{DeviceSpec, FlowSpec, ModuleEntry, PlacerSettings, RegionSpec};
use rrf_geost::{ShapeDef, ShiftedBox};
use rrf_server::{start, DetailStats, PlaceMethod, Request, Response, ServerConfig};

mod common;
use common::Client;

fn clb_shape(w: i32, h: i32) -> ShapeDef {
    ShapeDef::new(vec![ShiftedBox::new(0, 0, w, h, ResourceKind::Clb)])
}

fn entry(name: &str, shapes: Vec<ShapeDef>) -> ModuleEntry {
    ModuleEntry {
        name: name.into(),
        shapes,
        netlist: None,
    }
}

/// A distinct spec per `salt` (different module geometry, so no two
/// requests share a cache key).
fn spec(salt: i32) -> FlowSpec {
    FlowSpec {
        region: RegionSpec {
            device: DeviceSpec::Homogeneous {
                width: 12,
                height: 4,
            },
            bounds: None,
            static_masks: vec![],
        },
        modules: vec![
            entry("a", vec![clb_shape(2 + salt % 2, 2), clb_shape(2, 3)]),
            entry("b", vec![clb_shape(3, 2), clb_shape(2, 2 + salt % 3)]),
        ],
        placer: PlacerSettings::default(),
    }
}

fn place(client: &mut Client, id: u64, spec: FlowSpec, deadline_ms: Option<u64>) -> PlaceMethod {
    match client.roundtrip(&Request::Place {
        id,
        spec,
        deadline_ms,
    }) {
        Response::Placed { method, .. } => method,
        other => panic!("expected placed, got {other:?}"),
    }
}

fn fetch_detail(client: &mut Client, id: u64) -> DetailStats {
    match client.roundtrip(&Request::StatsDetail { id }) {
        Response::StatsDetail { detail, .. } => detail,
        other => panic!("expected stats_detail, got {other:?}"),
    }
}

/// Starve or feed the deadline and check, via `stats_detail`, which rung
/// of the degradation ladder actually ran.
#[test]
fn stats_detail_reports_ladder_rung_and_tiling_phases() {
    let handle = start(ServerConfig {
        workers: 1, // sequential handling: phase accounting is exact
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr());

    // 5 ms is below both the CP threshold (200 ms) and the LNS threshold
    // (20 ms): the ladder must bottom out at the greedy rung.
    let m1 = place(&mut client, 1, spec(0), Some(5));
    assert_eq!(m1, PlaceMethod::BottomLeft);

    // 150 ms skips CP (threshold 200 ms) but leaves LNS worthwhile.
    let m2 = place(&mut client, 2, spec(1), Some(150));
    assert_eq!(m2, PlaceMethod::Lns);

    // The default deadline (10 s) lets CP prove optimality on this size.
    let m3 = place(&mut client, 3, spec(2), None);
    assert_eq!(m3, PlaceMethod::Optimal);

    let detail = fetch_detail(&mut client, 4);
    assert_eq!(detail.ladder.bottom_left, 1);
    assert_eq!(detail.ladder.lns, 1);
    assert_eq!(detail.ladder.optimal, 1);
    assert_eq!(detail.ladder.cp_incumbent, 0);
    assert_eq!(detail.ladder.infeasible, 0);
    // The two deadline-starved requests skipped the CP rung outright.
    assert_eq!(detail.ladder.cp_skipped_tight_budget, 2);

    // Every instrumented request contributes one `total` observation and
    // one observation per phase it passed through.
    assert_eq!(detail.total.count, 3);
    for phase in ["queue_wait", "cache_probe", "preflight", "other"] {
        assert_eq!(detail.phases[phase].count, 3, "phase {phase}");
    }
    assert_eq!(detail.phases["bottom_left"].count, 1);
    assert_eq!(detail.phases["lns"].count, 1);
    assert_eq!(detail.phases["cp"].count, 1);
    assert_eq!(detail.phases["verify"].count, 3);

    // The acceptance criterion: the per-phase breakdown sums to the
    // total solve time within 1% — here it tiles exactly by
    // construction.
    let phase_sum: u64 = detail.phases.values().map(|s| s.total_us).sum();
    let total = detail.total.total_us;
    assert!(
        phase_sum.abs_diff(total) <= total / 100,
        "phase sum {phase_sum}µs drifts more than 1% from total {total}µs"
    );
    assert_eq!(phase_sum, total, "phases must tile the total exactly");

    // The LNS rung ran and was measured. Its duration is *not*
    // budget-bound: the inner solve uses `stop_after: Some(1)` with the
    // request's shared stop flag, so the first improvement trips the flag
    // and the LNS loop exits well before the ~150 ms deadline.
    assert!(detail.phases["lns"].total_us > 0);

    handle.shutdown();
}

/// Analyzer diagnostics — from `analyze` requests and from `place`
/// preflights — are counted by code in the detail reply.
#[test]
fn stats_detail_counts_diagnostics_by_code() {
    let handle = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr());

    // A duplicate alternative plus a dead (oversized) one: the analyzer
    // must report at least those two diagnostics.
    let mut bad = spec(0);
    let dup = bad.modules[0].shapes[0].clone();
    bad.modules[0].shapes.push(dup);
    bad.modules[1].shapes.push(clb_shape(20, 20));
    match client.roundtrip(&Request::Analyze { id: 1, spec: bad }) {
        Response::Analysis { diagnostics, .. } => assert!(!diagnostics.is_empty()),
        other => panic!("expected analysis, got {other:?}"),
    }

    let detail = fetch_detail(&mut client, 2);
    assert!(
        !detail.diagnostics_by_code.is_empty(),
        "analyze must feed diagnostics_by_code"
    );
    let total: u64 = detail.diagnostics_by_code.values().sum();
    assert!(total >= 2, "expected at least 2 diagnostics, got {total}");

    handle.shutdown();
}

/// `trace_path` writes a parseable, well-parenthesized NDJSON stream in
/// which the `solve.*` phase wall records tile the request's `solve`
/// root span exactly, with the solver's own spans nested inside.
#[test]
fn trace_file_is_balanced_and_phases_tile_the_root_span() {
    let path = std::env::temp_dir().join(format!("rrf_trace_e2e_{}.ndjson", std::process::id()));
    let path_str = path.to_str().unwrap().to_string();

    let handle = start(ServerConfig {
        workers: 1,
        trace_path: Some(path_str.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr());
    let method = place(&mut client, 1, spec(0), None);
    assert_eq!(method, PlaceMethod::Optimal);
    handle.shutdown(); // flushes the trace sink

    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let lines = rrf_trace::parse_text(&text).expect("trace parses");
    rrf_trace::check_balanced(&lines).expect("trace is well-parenthesized");

    let mut root_us = None;
    let mut phase_sum = 0u64;
    let mut saw_solver_span = false;
    for line in &lines {
        let name = line.name().unwrap_or("");
        if line.ev() == Some("wall") {
            let us = line.get("us").and_then(|v| v.as_u64()).unwrap();
            if name == "solve" {
                assert!(root_us.is_none(), "exactly one place request traced");
                root_us = Some(us);
            } else if name.starts_with("solve.") {
                phase_sum += us;
            }
        }
        if line.ev() == Some("open") && name == "place" {
            saw_solver_span = true;
        }
    }
    let root_us = root_us.expect("root solve span present");
    assert_eq!(
        phase_sum, root_us,
        "solve.* wall records must tile the solve root exactly"
    );
    assert!(
        saw_solver_span,
        "the CP placer's own `place` span must appear in the server trace"
    );
    // The request's summary point carries the rung that answered it.
    assert!(lines.iter().any(|l| {
        l.ev() == Some("point")
            && l.name() == Some("solve.result")
            && l.get("method").and_then(|v| v.as_str()) == Some("optimal")
    }));
}
