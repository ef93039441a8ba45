//! Byte-level determinism regression: two freshly started daemons driven
//! through an identical request sequence — inserts, removals, a fault, a
//! repair, a defrag, task submissions, and logical-clock advances — must
//! answer `dump_session` and `schedule_status` with *byte-identical*
//! response lines. This pins the ordering fixes in the online placer
//! (BTreeMap-backed slot map) and the replay path: any unordered-map
//! iteration leaking into response bytes shows up here as a diff.

#![forbid(unsafe_code)]

use std::time::Duration;

use rrf_fabric::{Fault, ResourceKind};
use rrf_flow::{DeviceSpec, ModuleEntry, RegionSpec};
use rrf_geost::{ShapeDef, ShiftedBox};
use rrf_sched::TaskSpec;
use rrf_server::{start, Request, ServerConfig};

mod common;
use common::Client;

fn shape(w: i32, h: i32) -> ShapeDef {
    ShapeDef::new(vec![ShiftedBox::new(0, 0, w, h, ResourceKind::Clb)])
}

fn module(name: &str, shapes: Vec<ShapeDef>) -> ModuleEntry {
    ModuleEntry {
        name: name.into(),
        shapes,
        netlist: None,
    }
}

fn task(name: &str, duration: u64, deadline: Option<u64>) -> TaskSpec {
    TaskSpec {
        module: module(name, vec![shape(2, 2), shape(4, 1)]),
        arrival: 0,
        duration,
        deadline,
        priority: 0,
    }
}

/// Drive one fresh daemon through the fixed sequence and collect the raw
/// response lines of every state-bearing read.
fn run_once() -> Vec<String> {
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("start server");
    let mut client = Client::connect(handle.addr());

    let mut id = 0u64;
    let mut next_id = || {
        id += 1;
        id
    };

    // Session 1: placement churn — inserts with alternatives, a removal,
    // a fault targeting occupied tiles, a repair, then a defrag.
    client.roundtrip_raw(&Request::OpenSession {
        id: next_id(),
        region: RegionSpec {
            device: DeviceSpec::Homogeneous {
                width: 12,
                height: 8,
            },
            bounds: None,
            static_masks: vec![],
        },
    });
    for (name, shapes) in [
        ("a", vec![shape(3, 3), shape(5, 2)]),
        ("b", vec![shape(2, 4)]),
        ("c", vec![shape(4, 2), shape(2, 4)]),
        ("d", vec![shape(3, 2)]),
        ("e", vec![shape(2, 2)]),
    ] {
        client.roundtrip_raw(&Request::Insert {
            id: next_id(),
            session: 1,
            module: module(name, shapes),
        });
    }
    client.roundtrip_raw(&Request::Remove {
        id: next_id(),
        session: 1,
        slot: 1,
    });
    client.roundtrip_raw(&Request::InjectFault {
        id: next_id(),
        session: 1,
        fault: Fault::Tile { x: 1, y: 1 },
    });
    client.roundtrip_raw(&Request::Repair {
        id: next_id(),
        session: 1,
        budget_ms: Some(200),
    });
    client.roundtrip_raw(&Request::Defrag {
        id: next_id(),
        session: 1,
    });

    // Session 2: scheduler churn — submissions (one unschedulable), a
    // cancel, and clock advances.
    client.roundtrip_raw(&Request::OpenSession {
        id: next_id(),
        region: RegionSpec {
            device: DeviceSpec::Homogeneous {
                width: 8,
                height: 6,
            },
            bounds: None,
            static_masks: vec![],
        },
    });
    for (name, duration, deadline) in [
        ("t1", 10, None),
        ("t2", 5, Some(30)),
        ("t3", 7, Some(9)),
        ("t4", 12, None),
    ] {
        client.roundtrip_raw(&Request::SubmitTask {
            id: next_id(),
            session: 2,
            task: task(name, duration, deadline),
        });
    }
    client.roundtrip_raw(&Request::CancelTask {
        id: next_id(),
        session: 2,
        task: 2,
    });
    client.roundtrip_raw(&Request::ScheduleStatus {
        id: next_id(),
        session: 2,
        advance_to: Some(6),
    });

    // The state-bearing reads whose bytes must not vary run to run.
    let observed = vec![
        client.roundtrip_raw(&Request::DumpSession {
            id: 900,
            session: 1,
        }),
        client.roundtrip_raw(&Request::DumpSession {
            id: 901,
            session: 2,
        }),
        client.roundtrip_raw(&Request::ScheduleStatus {
            id: 902,
            session: 2,
            advance_to: None,
        }),
    ];

    handle.shutdown();
    observed
}

/// Drive a persisted daemon through a fixed `place` sequence and return
/// the response lines with the one timing-bearing field (`elapsed_ms`,
/// serialized last) stripped.
fn run_persisted(persist: &std::path::Path, shards: usize) -> Vec<String> {
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_shards: shards,
        cache_persist_path: Some(persist.to_str().unwrap().to_string()),
        ..ServerConfig::default()
    })
    .expect("start server");
    let mut client = Client::connect(handle.addr());

    let spec = |salt: i32| rrf_flow::FlowSpec {
        region: RegionSpec {
            device: DeviceSpec::Homogeneous {
                width: 12,
                height: 6,
            },
            bounds: None,
            static_masks: vec![],
        },
        modules: vec![
            module(
                &format!("m{salt}"),
                vec![shape(3 + salt % 2, 2), shape(2, 4)],
            ),
            module("ctl", vec![shape(2, 2)]),
        ],
        placer: rrf_flow::PlacerSettings::default(),
    };

    let mut observed = Vec::new();
    // Three distinct solves, then a repeat of the first (a cache hit —
    // its bytes must be deterministic too). Wall-time fields (the
    // response's `elapsed_ms` and the report's solver timings) are
    // scrubbed before comparison; everything else — placements, extent,
    // metrics, search counters — must match byte for byte.
    for (id, salt) in [(1, 0), (2, 1), (3, 2), (4, 0)] {
        let line = client.roundtrip_raw(&Request::Place {
            id,
            spec: spec(salt),
            deadline_ms: None,
        });
        let mut response: rrf_server::Response = serde_json::from_str(&line).expect("parse placed");
        match &mut response {
            rrf_server::Response::Placed {
                elapsed_ms, report, ..
            } => {
                *elapsed_ms = 0;
                report.stats.duration = Duration::ZERO;
                report.stats.time_to_best = Duration::ZERO;
            }
            other => panic!("expected placed, got {other:?}"),
        }
        observed.push(serde_json::to_string(&response).unwrap());
    }
    handle.shutdown();
    observed
}

#[test]
fn dump_and_schedule_bytes_identical_across_runs() {
    let first = run_once();
    let second = run_once();
    assert_eq!(
        first, second,
        "state-bearing response bytes differ between two identically \
         driven daemons — unordered iteration is leaking into output"
    );
    // Sanity: the dumps actually carry state (slots and a digest), so a
    // regression can't hide behind an empty response.
    assert!(first[0].contains("\"grid_digest\""));
    assert!(first[0].contains("\"slots\""));
    assert!(first[2].contains("\"schedule\"") || first[2].contains("\"ledger\""));
}

/// Two identically driven daemons with `--cache-persist` — and different
/// shard counts — must answer `place` with identical payload bytes and
/// write byte-identical cache snapshots on shutdown. This pins the whole
/// chain: canonical keys, deterministic solves, key-sorted export,
/// fixed-field-order records.
#[test]
fn cache_snapshots_byte_identical_across_runs_and_shard_counts() {
    let dir = std::env::temp_dir();
    let path_a = dir.join(format!("rrf_det_cache_a_{}.ndjson", std::process::id()));
    let path_b = dir.join(format!("rrf_det_cache_b_{}.ndjson", std::process::id()));
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);

    let first = run_persisted(&path_a, 8);
    let second = run_persisted(&path_b, 3);
    assert_eq!(
        first, second,
        "place payload bytes differ between identically driven daemons"
    );
    assert!(first[3].contains("\"cache_hit\":true"));

    let snapshot_a = std::fs::read(&path_a).expect("snapshot A written");
    let snapshot_b = std::fs::read(&path_b).expect("snapshot B written");
    assert!(!snapshot_a.is_empty());
    assert_eq!(
        snapshot_a, snapshot_b,
        "cache snapshot bytes differ across runs/shard counts"
    );
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);
}
