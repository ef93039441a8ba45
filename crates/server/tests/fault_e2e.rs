//! Fault-tolerance end-to-end tests over a real TCP socket: fabric fault
//! injection and repair, worker panic isolation, and journal-backed
//! session recovery across a graceful restart.

use rrf_fabric::{Fault, ResourceKind};
use rrf_flow::{DeviceSpec, ModuleEntry, RegionSpec};
use rrf_geost::{ShapeDef, ShiftedBox};
use rrf_server::{start, Request, Response, ServerConfig, SlotState};

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

fn region_8x2() -> RegionSpec {
    RegionSpec {
        device: DeviceSpec::Homogeneous {
            width: 8,
            height: 2,
        },
        bounds: None,
        static_masks: vec![],
    }
}

fn open_session(client: &mut Client, id: u64) -> u64 {
    match client.roundtrip(&Request::OpenSession {
        id,
        region: region_8x2(),
    }) {
        Response::SessionOpened { session, .. } => session,
        other => panic!("expected session, got {other:?}"),
    }
}

fn insert(client: &mut Client, id: u64, session: u64, name: &str) -> u64 {
    match client.roundtrip(&Request::Insert {
        id,
        session,
        module: entry(name, vec![clb_shape(2, 2)]),
    }) {
        Response::Inserted {
            slot: Some(slot), ..
        } => slot,
        other => panic!("expected accepted insert, got {other:?}"),
    }
}

fn dump(client: &mut Client, id: u64, session: u64) -> (u64, String, u64, Vec<SlotState>) {
    match client.roundtrip(&Request::DumpSession { id, session }) {
        Response::SessionState {
            next_slot,
            grid_digest,
            total_faults,
            slots,
            ..
        } => (next_slot, grid_digest, total_faults, slots),
        other => panic!("expected session state, got {other:?}"),
    }
}

fn fetch_stats(client: &mut Client, id: u64) -> rrf_server::ServerStats {
    match client.roundtrip(&Request::Stats { id }) {
        Response::Stats { stats, .. } => stats,
        other => panic!("expected stats, got {other:?}"),
    }
}

#[test]
fn fault_inject_repair_clear_over_the_wire() {
    let handle = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr());
    let session = open_session(&mut client, 1);

    // Three 2x2 modules at x = 0, 2, 4; the tail x = 6..8 stays free.
    let slots: Vec<u64> = (0..3)
        .map(|i| insert(&mut client, 10 + i, session, &format!("m{i}")))
        .collect();

    // A fault under the first module displaces exactly that slot.
    match client.roundtrip(&Request::InjectFault {
        id: 20,
        session,
        fault: Fault::Tile { x: 0, y: 0 },
    }) {
        Response::FaultInjected {
            tiles,
            displaced,
            total_faults,
            ..
        } => {
            assert_eq!(tiles, 1);
            assert_eq!(displaced, vec![slots[0]]);
            assert_eq!(total_faults, 1);
        }
        other => panic!("expected fault injected, got {other:?}"),
    }

    // Repair relocates the displaced module into the free tail; the two
    // untouched modules stay put.
    match client.roundtrip(&Request::Repair {
        id: 21,
        session,
        budget_ms: None,
    }) {
        Response::Repaired { report, .. } => {
            assert_eq!(report.relocated_count(), 1);
            assert_eq!(report.evicted_count(), 0);
            assert_eq!(report.unaffected, 2);
            assert!(!report.escalated, "greedy refit suffices here");
            assert_eq!(report.moved.len(), 1);
            assert_eq!(report.moved[0].slot, slots[0]);
        }
        other => panic!("expected repaired, got {other:?}"),
    }

    // The dump shows three live slots and none of them on the faulted tile.
    let (_, _, total_faults, dumped) = dump(&mut client, 22, session);
    assert_eq!(total_faults, 1);
    assert_eq!(dumped.len(), 3);
    assert!(
        dumped
            .iter()
            .all(|s| !(s.x == 0 && s.y == 0) || s.slot != slots[0]),
        "repaired module left the faulted tile: {dumped:?}"
    );

    // Clearing the fault restores the tile.
    match client.roundtrip(&Request::ClearFault {
        id: 23,
        session,
        fault: Fault::Tile { x: 0, y: 0 },
    }) {
        Response::FaultCleared {
            tiles,
            total_faults,
            ..
        } => {
            assert_eq!(tiles, 1);
            assert_eq!(total_faults, 0);
        }
        other => panic!("expected fault cleared, got {other:?}"),
    }

    let stats = fetch_stats(&mut client, 24);
    assert_eq!(stats.faults_injected, 1);
    assert_eq!(stats.faults_cleared, 1);
    assert_eq!(stats.repairs, 1);
    assert_eq!(stats.repaired_relocated, 1);
    assert_eq!(stats.repaired_evicted, 0);

    handle.shutdown();
}

#[test]
fn worker_panics_do_not_shrink_the_pool() {
    let workers = 2;
    let handle = start(ServerConfig {
        workers,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr());

    // Panic the pool more times than it has workers: if a panic killed its
    // worker, the later requests would hang on a drained pool.
    let panics = 5;
    for i in 0..panics {
        match client.roundtrip(&Request::DebugPanic { id: 30 + i }) {
            Response::Error { id, message } => {
                assert_eq!(id, 30 + i);
                assert!(message.contains("panicked"), "message: {message}");
            }
            other => panic!("expected internal error, got {other:?}"),
        }
    }

    // The pool still serves real work at full strength.
    match client.roundtrip(&Request::Ping { id: 40 }) {
        Response::Pong { id } => assert_eq!(id, 40),
        other => panic!("expected pong, got {other:?}"),
    }
    let session = open_session(&mut client, 41);
    insert(&mut client, 42, session, "survivor");

    let stats = fetch_stats(&mut client, 43);
    assert_eq!(stats.worker_panics, panics);
    assert_eq!(stats.workers_alive, workers as u64);

    handle.shutdown();
}

#[test]
fn journaled_sessions_survive_a_graceful_restart() {
    let path = std::env::temp_dir().join(format!(
        "rrf_fault_e2e_{}_graceful.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let config = || ServerConfig {
        journal_path: Some(path.to_string_lossy().into_owned()),
        journal_fsync_every: 1,
        ..ServerConfig::default()
    };

    // First life: build up state worth recovering — placements, a live
    // fault, a repair, and a rejected insert.
    let handle = start(config()).unwrap();
    let mut client = Client::connect(handle.addr());
    let session = open_session(&mut client, 1);
    for i in 0..3 {
        insert(&mut client, 10 + i, session, &format!("m{i}"));
    }
    match client.roundtrip(&Request::InjectFault {
        id: 20,
        session,
        fault: Fault::Column { x: 0 },
    }) {
        Response::FaultInjected { .. } => {}
        other => panic!("expected fault injected, got {other:?}"),
    }
    match client.roundtrip(&Request::Repair {
        id: 21,
        session,
        budget_ms: None,
    }) {
        Response::Repaired { .. } => {}
        other => panic!("expected repaired, got {other:?}"),
    }
    let before = dump(&mut client, 22, session);
    // Graceful shutdown compacts the journal to one snapshot line.
    handle.shutdown();
    let journal_text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        journal_text.lines().count(),
        1,
        "shutdown must leave a single snapshot record"
    );
    assert!(journal_text.starts_with(r#"{"op":"snapshot""#));

    // Second life: the session comes back bit-identical and stays usable.
    let handle = start(config()).unwrap();
    let mut client = Client::connect(handle.addr());
    let stats = fetch_stats(&mut client, 30);
    assert_eq!(stats.recovered_sessions, 1);
    assert_eq!(stats.recovery_errors, 0);
    let after = dump(&mut client, 31, session);
    assert_eq!(after, before, "recovered session diverged from the dump");
    // New sessions do not collide with recovered ids, and the recovered
    // session still serves requests: with the fault live and the repair
    // replayed, only 2 free tiles remain, so a 2x2 insert is a clean
    // rejection — not an unknown-session error.
    let fresh = open_session(&mut client, 32);
    assert_ne!(fresh, session);
    match client.roundtrip(&Request::Insert {
        id: 33,
        session,
        module: entry("late", vec![clb_shape(2, 2)]),
    }) {
        Response::Inserted { slot: None, .. } => {}
        other => panic!("expected rejection, got {other:?}"),
    }

    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}
