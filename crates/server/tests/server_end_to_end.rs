//! Loopback end-to-end tests: start the daemon, speak the NDJSON protocol
//! over a real TCP socket, and verify every returned floorplan
//! independently with `rrf_core::verify`.

use std::time::Duration;

use rrf_fabric::ResourceKind;
use rrf_flow::{
    resolve_module, DeviceSpec, FlowReport, FlowSpec, ModuleEntry, PlacerSettings, RegionSpec,
};
use rrf_geost::{ShapeDef, ShiftedBox};
use rrf_server::{start, PlaceMethod, Request, Response, ServerConfig};

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

fn small_spec(modules: Vec<ModuleEntry>) -> FlowSpec {
    FlowSpec {
        region: RegionSpec {
            device: DeviceSpec::Homogeneous {
                width: 10,
                height: 4,
            },
            bounds: None,
            static_masks: vec![],
        },
        modules,
        placer: PlacerSettings::default(),
    }
}

/// Re-verify a returned floorplan against the *request's* spec (the daemon
/// remaps canonical indices back to request order, so this checks the
/// remapping too).
fn assert_verified(spec: &FlowSpec, report: &FlowReport) {
    assert!(report.feasible, "report not feasible");
    let region = spec.region.build().unwrap();
    let modules: Vec<_> = spec
        .modules
        .iter()
        .map(|e| resolve_module(e).unwrap())
        .collect();
    let plan = report.floorplan.as_ref().expect("feasible => floorplan");
    let violations = rrf_core::verify::verify(&region, &modules, plan);
    assert!(violations.is_empty(), "violations: {violations:?}");
    assert_eq!(report.placements.len(), spec.modules.len());
    for (i, placement) in report.placements.iter().enumerate() {
        assert_eq!(placement.name, spec.modules[i].name, "placement order");
    }
}

fn fetch_stats(client: &mut Client, id: u64) -> rrf_server::ServerStats {
    match client.roundtrip(&Request::Stats { id }) {
        Response::Stats { stats, .. } => stats,
        other => panic!("expected stats, got {other:?}"),
    }
}

#[test]
fn place_verifies_caches_and_remaps_reordered_requests() {
    let handle = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr());

    match client.roundtrip(&Request::Ping { id: 1 }) {
        Response::Pong { id } => assert_eq!(id, 1),
        other => panic!("expected pong, got {other:?}"),
    }

    let spec = small_spec(vec![
        entry("alu", vec![clb_shape(4, 2), clb_shape(2, 4)]),
        entry("fir", vec![clb_shape(3, 2)]),
        entry("ctl", vec![clb_shape(2, 2)]),
    ]);
    let placed = client.roundtrip(&Request::Place {
        id: 2,
        spec: spec.clone(),
        deadline_ms: None,
    });
    match &placed {
        Response::Placed {
            id,
            method,
            cache_hit,
            report,
            ..
        } => {
            assert_eq!(*id, 2);
            assert_eq!(*method, PlaceMethod::Optimal);
            assert!(!cache_hit);
            assert!(report.proven);
            assert_verified(&spec, report);
        }
        other => panic!("expected placed, got {other:?}"),
    }

    // The identical spec hits the cache.
    match client.roundtrip(&Request::Place {
        id: 3,
        spec: spec.clone(),
        deadline_ms: None,
    }) {
        Response::Placed {
            cache_hit, report, ..
        } => {
            assert!(cache_hit, "identical spec must hit the cache");
            assert_verified(&spec, &report);
        }
        other => panic!("expected placed, got {other:?}"),
    }

    // A logically identical spec with modules and shapes reordered also
    // hits — and its report must come back in *its* ordering.
    let reordered = small_spec(vec![
        entry("fir", vec![clb_shape(3, 2)]),
        entry("ctl", vec![clb_shape(2, 2)]),
        entry("alu", vec![clb_shape(2, 4), clb_shape(4, 2)]),
    ]);
    match client.roundtrip(&Request::Place {
        id: 4,
        spec: reordered.clone(),
        deadline_ms: None,
    }) {
        Response::Placed {
            cache_hit, report, ..
        } => {
            assert!(cache_hit, "reordered spec must hit the same cache entry");
            assert_verified(&reordered, &report);
        }
        other => panic!("expected placed, got {other:?}"),
    }

    let stats = fetch_stats(&mut client, 5);
    assert_eq!(stats.place_requests, 3);
    assert_eq!(stats.cache_hits, 2);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.placed_optimal, 1);
    assert_eq!(stats.place_requests, stats.cache_hits + stats.cache_misses);
    assert_eq!(stats.solves(), stats.cache_misses);

    handle.shutdown();
}

#[test]
fn expired_deadline_degrades_to_verified_greedy_floorplan() {
    let handle = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr());

    let spec = small_spec(vec![
        entry("a", vec![clb_shape(4, 2), clb_shape(2, 4)]),
        entry("b", vec![clb_shape(3, 2)]),
        entry("c", vec![clb_shape(2, 2)]),
    ]);
    // A zero deadline is already expired when the worker picks the job up:
    // the CP and LNS rungs are skipped and the raw greedy seed comes back —
    // degraded, but still verified.
    match client.roundtrip(&Request::Place {
        id: 1,
        spec: spec.clone(),
        deadline_ms: Some(0),
    }) {
        Response::Placed {
            method,
            cache_hit,
            report,
            ..
        } => {
            assert_eq!(method, PlaceMethod::BottomLeft);
            assert!(!cache_hit);
            assert!(!report.proven, "degraded result can not claim optimality");
            assert_verified(&spec, &report);
        }
        other => panic!("expected placed, got {other:?}"),
    }

    let stats = fetch_stats(&mut client, 2);
    assert_eq!(stats.placed_bottom_left, 1);
    assert_eq!(stats.fallbacks(), 1);

    handle.shutdown();
}

#[test]
fn degraded_cache_entries_upgrade_when_budget_allows() {
    let handle = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr());

    let spec = small_spec(vec![
        entry("a", vec![clb_shape(4, 2), clb_shape(2, 4)]),
        entry("b", vec![clb_shape(3, 2)]),
        entry("c", vec![clb_shape(2, 2)]),
    ]);
    let place = |client: &mut Client, id: u64, deadline_ms: Option<u64>| match client.roundtrip(
        &Request::Place {
            id,
            spec: spec.clone(),
            deadline_ms,
        },
    ) {
        Response::Placed {
            method, cache_hit, ..
        } => (method, cache_hit),
        other => panic!("expected placed, got {other:?}"),
    };

    // An expired deadline produces (and caches) a degraded greedy result.
    assert_eq!(
        place(&mut client, 1, Some(0)),
        (PlaceMethod::BottomLeft, false)
    );
    // An equally deadline-starved request may reuse it...
    assert_eq!(
        place(&mut client, 2, Some(0)),
        (PlaceMethod::BottomLeft, true)
    );
    // ...but a request with real budget must NOT inherit the degraded
    // answer: it recomputes at the top of the ladder and upgrades the
    // entry.
    assert_eq!(place(&mut client, 3, None), (PlaceMethod::Optimal, false));
    // The upgraded (proven) entry now serves everyone — even tight
    // deadlines, since a proven result is deadline-independent.
    assert_eq!(place(&mut client, 4, None), (PlaceMethod::Optimal, true));
    assert_eq!(place(&mut client, 5, Some(0)), (PlaceMethod::Optimal, true));

    let stats = fetch_stats(&mut client, 6);
    assert_eq!(stats.place_requests, 5);
    assert_eq!(stats.cache_hits, 3);
    assert_eq!(stats.cache_misses, 2);
    assert_eq!(stats.cache_bypass_degraded, 1);
    assert_eq!(stats.place_requests, stats.cache_hits + stats.cache_misses);

    handle.shutdown();
}

#[test]
fn online_session_lifecycle_over_the_wire() {
    let handle = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr());

    let session = match client.roundtrip(&Request::OpenSession {
        id: 1,
        region: RegionSpec {
            device: DeviceSpec::Homogeneous {
                width: 8,
                height: 2,
            },
            bounds: None,
            static_masks: vec![],
        },
    }) {
        Response::SessionOpened { session, .. } => session,
        other => panic!("expected session, got {other:?}"),
    };

    // Four 2x2 modules fill the 8x2 region exactly.
    let mut slots = Vec::new();
    for i in 0..4 {
        match client.roundtrip(&Request::Insert {
            id: 10 + i,
            session,
            module: entry(&format!("m{i}"), vec![clb_shape(2, 2)]),
        }) {
            Response::Inserted {
                slot: Some(slot),
                placement: Some(placement),
                utilization,
                ..
            } => {
                assert_eq!(placement.x, i as i32 * 2, "first-fit packs left to right");
                assert!((utilization - (i as f64 + 1.0) / 4.0).abs() < 1e-9);
                slots.push(slot);
            }
            other => panic!("expected accepted insert, got {other:?}"),
        }
    }

    // A fifth module does not fit: a rejection, not an error.
    match client.roundtrip(&Request::Insert {
        id: 14,
        session,
        module: entry("extra", vec![clb_shape(2, 2)]),
    }) {
        Response::Inserted { slot: None, .. } => {}
        other => panic!("expected rejection, got {other:?}"),
    }

    // Free the second slot, leaving a hole at x=2; defrag repacks the
    // remaining modules flush left.
    match client.roundtrip(&Request::Remove {
        id: 15,
        session,
        slot: slots[1],
    }) {
        Response::Removed {
            removed,
            utilization,
            ..
        } => {
            assert!(removed);
            assert!((utilization - 0.75).abs() < 1e-9);
        }
        other => panic!("expected removed, got {other:?}"),
    }
    match client.roundtrip(&Request::Defrag { id: 16, session }) {
        // Both modules to the right of the hole slide left.
        Response::Defragged { moved, .. } => assert_eq!(moved, 2),
        other => panic!("expected defragged, got {other:?}"),
    }

    // After the repack the freed tail fits a new module again.
    match client.roundtrip(&Request::Insert {
        id: 17,
        session,
        module: entry("late", vec![clb_shape(2, 2)]),
    }) {
        Response::Inserted { slot: Some(_), .. } => {}
        other => panic!("expected accepted insert, got {other:?}"),
    }

    match client.roundtrip(&Request::CloseSession { id: 18, session }) {
        Response::SessionClosed { closed: true, .. } => {}
        other => panic!("expected close, got {other:?}"),
    }
    // Operations on a closed (or unknown) session are errors.
    match client.roundtrip(&Request::Defrag { id: 19, session }) {
        Response::Error { id, message } => {
            assert_eq!(id, 19);
            assert!(message.contains("unknown session"), "message: {message}");
        }
        other => panic!("expected error, got {other:?}"),
    }

    let stats = fetch_stats(&mut client, 20);
    assert_eq!(stats.sessions_opened, 1);
    assert_eq!(stats.sessions_closed, 1);
    assert_eq!(stats.online_inserts, 6);
    assert_eq!(stats.online_accepted, 5);
    assert_eq!(stats.online_rejected, 1);
    assert_eq!(
        stats.online_inserts,
        stats.online_accepted + stats.online_rejected
    );
    assert_eq!(stats.online_removals, 1);
    assert_eq!(stats.online_defrags, 1, "the post-close defrag errored");

    handle.shutdown();
}

#[test]
fn malformed_lines_report_protocol_errors_without_killing_the_connection() {
    let handle = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr());

    client.send_raw("this is not json\n");
    match client.recv() {
        Response::Error { id, message } => {
            assert_eq!(id, 0, "unrecoverable lines use the reserved id 0");
            assert!(message.contains("unparseable"), "message: {message}");
        }
        other => panic!("expected error, got {other:?}"),
    }

    // Valid JSON that is not a valid request still gets its own id echoed
    // back, so pipelining clients can tell which request failed.
    client.send_raw("{\"type\":\"place\",\"id\":42}\n");
    match client.recv() {
        Response::Error { id, message } => {
            assert_eq!(id, 42, "id recovered best-effort from malformed request");
            assert!(message.contains("unparseable"), "message: {message}");
        }
        other => panic!("expected error, got {other:?}"),
    }

    // The connection survives and keeps serving.
    match client.roundtrip(&Request::Ping { id: 7 }) {
        Response::Pong { id } => assert_eq!(id, 7),
        other => panic!("expected pong, got {other:?}"),
    }

    let stats = fetch_stats(&mut client, 8);
    assert_eq!(stats.protocol_errors, 2);

    handle.shutdown();
}

/// The paper's §V workload as a `place` spec — large enough that exact CP
/// keeps a worker busy until its deadline trips.
fn paper_spec(seed: u64, deadline_headroom: Option<u64>) -> FlowSpec {
    let workload = rrf_modgen::generate_workload(&rrf_modgen::WorkloadSpec::paper(seed));
    FlowSpec {
        region: RegionSpec {
            device: DeviceSpec::Columns {
                width: 240,
                height: 16,
                bram_period: 10,
                bram_offset: 4,
                dsp_period: 0,
                dsp_offset: 0,
                io_ring: 0,
                center_clock: false,
            },
            bounds: None,
            static_masks: vec![],
        },
        modules: workload
            .modules
            .into_iter()
            .map(|m| ModuleEntry {
                name: m.name,
                shapes: m.shapes,
                netlist: None,
            })
            .collect(),
        placer: PlacerSettings {
            time_limit_ms: deadline_headroom,
            ..PlacerSettings::default()
        },
    }
}

#[test]
fn full_queue_rejects_with_backpressure_and_queued_work_still_verifies() {
    // One worker, one queue slot: with a slow solve in flight and a second
    // request queued, a third request must be rejected immediately.
    let handle = start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    })
    .unwrap();

    let spec_a = paper_spec(0, None);
    let spec_b = paper_spec(1, None);

    let mut conn_a = Client::connect(handle.addr());
    let mut conn_b = Client::connect(handle.addr());
    let mut conn_c = Client::connect(handle.addr());

    conn_a.send(&Request::Place {
        id: 1,
        spec: spec_a.clone(),
        deadline_ms: Some(2_500),
    });
    // Wait until A has moved from the queue into the worker before sending
    // B, and until B occupies the queue slot before sending C — back-to-back
    // sends could race each other for the single slot.
    std::thread::sleep(Duration::from_millis(300));
    conn_b.send(&Request::Place {
        id: 2,
        spec: spec_b.clone(),
        deadline_ms: Some(2_500),
    });
    std::thread::sleep(Duration::from_millis(300));
    match conn_c.roundtrip(&Request::Ping { id: 3 }) {
        Response::Overloaded {
            id,
            message,
            retry_after_ms,
        } => {
            assert_eq!(id, 3);
            assert!(message.contains("overloaded"), "message: {message}");
            assert!(
                (25..=10_000).contains(&retry_after_ms),
                "retry hint must stay within its clamp: {retry_after_ms}"
            );
        }
        other => panic!("expected backpressure rejection, got {other:?}"),
    }

    // Both heavy requests complete within their deadlines with verified
    // floorplans; B spent most of its budget waiting in the queue (the
    // deadline covers queue wait), so it must not claim optimality.
    match conn_a.recv() {
        Response::Placed { id, report, .. } => {
            assert_eq!(id, 1);
            assert_verified(&spec_a, &report);
        }
        other => panic!("expected placed, got {other:?}"),
    }
    match conn_b.recv() {
        Response::Placed {
            id, method, report, ..
        } => {
            assert_eq!(id, 2);
            assert_ne!(method, PlaceMethod::Optimal, "B had no time to prove");
            assert!(!report.proven);
            assert_verified(&spec_b, &report);
        }
        other => panic!("expected placed, got {other:?}"),
    }

    let stats = fetch_stats(&mut conn_c, 4);
    assert!(stats.rejected_backpressure >= 1);
    assert_eq!(stats.place_requests, 2);
    assert_eq!(stats.fallbacks() + stats.placed_optimal, 2);

    handle.shutdown();
}

#[test]
fn analyze_request_and_preflight_rejection() {
    let handle = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr());

    // A clean spec analyzes clean.
    let clean = small_spec(vec![
        entry("alu", vec![clb_shape(4, 2), clb_shape(2, 4)]),
        entry("fir", vec![clb_shape(3, 2)]),
    ]);
    match client.roundtrip(&Request::Analyze {
        id: 1,
        spec: clean.clone(),
    }) {
        Response::Analysis {
            id,
            diagnostics,
            proven_infeasible,
            shapes_total,
            shapes_prunable,
            ..
        } => {
            assert_eq!(id, 1);
            assert!(diagnostics.is_empty(), "{diagnostics:?}");
            assert!(!proven_infeasible);
            assert_eq!(shapes_total, 3);
            assert_eq!(shapes_prunable, 0);
        }
        other => panic!("expected analysis, got {other:?}"),
    }

    // A module too wide for the 10x4 region is a dead module: the
    // analyzer proves it, and the preflight rejects the place request
    // without consuming any solver budget.
    let doomed = small_spec(vec![
        entry("alu", vec![clb_shape(4, 2)]),
        entry("wide", vec![clb_shape(20, 1)]),
    ]);
    match client.roundtrip(&Request::Analyze {
        id: 2,
        spec: doomed.clone(),
    }) {
        Response::Analysis {
            diagnostics,
            proven_infeasible,
            ..
        } => {
            assert!(proven_infeasible);
            assert!(!diagnostics.is_empty());
        }
        other => panic!("expected analysis, got {other:?}"),
    }

    let solves_before = fetch_stats(&mut client, 3).solves();
    match client.roundtrip(&Request::Place {
        id: 4,
        spec: doomed,
        deadline_ms: Some(30_000),
    }) {
        Response::Error { id, message } => {
            assert_eq!(id, 4);
            assert!(message.contains("preflight"), "message: {message}");
            assert!(message.contains("RRF004"), "message: {message}");
        }
        other => panic!("expected preflight error, got {other:?}"),
    }

    // A spec whose module carries duplicate alternatives places fine,
    // with the duplicates stripped from the model by the solver prune.
    let dupes = small_spec(vec![entry(
        "twin",
        vec![clb_shape(4, 2), clb_shape(4, 2), clb_shape(2, 4)],
    )]);
    match client.roundtrip(&Request::Place {
        id: 5,
        spec: dupes.clone(),
        deadline_ms: None,
    }) {
        Response::Placed { report, .. } => {
            assert_verified(&dupes, &report);
            assert_eq!(report.stats.shapes_pruned, 1);
        }
        other => panic!("expected placed, got {other:?}"),
    }

    let stats = fetch_stats(&mut client, 6);
    assert_eq!(stats.analyze_requests, 2);
    assert!(stats.analyze_us_total >= 1, "analyzer wall time recorded");
    assert_eq!(stats.preflight_rejects, 1);
    assert_eq!(stats.shapes_pruned, 1);
    // The rejected request never reached the solver: only the duplicate
    // place added a histogram entry.
    assert_eq!(stats.solves(), solves_before + 1);
    assert_eq!(stats.infeasible, 0);

    handle.shutdown();
}
