//! Crash-recovery test against the real `rrf-serve` binary: build up
//! journaled session state, SIGKILL the daemon mid-session (no shutdown,
//! no snapshot), restart it on the same journal, and demand bit-identical
//! state. A second phase SIGTERMs the recovered daemon and checks the
//! graceful path compacts the journal to a single snapshot line.

use std::process::Command;

use rrf_fabric::{Fault, ResourceKind};
use rrf_flow::{DeviceSpec, ModuleEntry, RegionSpec};
use rrf_geost::{ShapeDef, ShiftedBox};
use rrf_server::{Request, Response};

mod common;
use common::{spawn_journaled, wait_for_exit, Client};

fn clb_module(name: &str, w: i32, h: i32) -> ModuleEntry {
    ModuleEntry {
        name: name.into(),
        shapes: vec![ShapeDef::new(vec![ShiftedBox::new(
            0,
            0,
            w,
            h,
            ResourceKind::Clb,
        )])],
        netlist: None,
    }
}

fn dump(client: &mut Client, id: u64, session: u64) -> String {
    match client.roundtrip(&Request::DumpSession { id, session }) {
        Response::SessionState {
            next_slot,
            grid_digest,
            total_faults,
            slots,
            ..
        } => format!("next={next_slot} digest={grid_digest} faults={total_faults} slots={slots:?}"),
        other => panic!("expected session state, got {other:?}"),
    }
}

#[test]
fn sigkill_then_restart_replays_bit_identical_sessions() {
    let journal =
        std::env::temp_dir().join(format!("rrf_kill_recover_{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&journal);

    // Life 1: two sessions with inserts, a removal, a fault, and a repair —
    // then SIGKILL with no warning. fsync-every=1 makes each answered
    // request durable.
    let mut daemon = spawn_journaled(&journal);
    let mut client = Client::connect(daemon.addr);
    let open = |client: &mut Client, id: u64| match client.roundtrip(&Request::OpenSession {
        id,
        region: RegionSpec {
            device: DeviceSpec::Homogeneous {
                width: 10,
                height: 4,
            },
            bounds: None,
            static_masks: vec![],
        },
    }) {
        Response::SessionOpened { session, .. } => session,
        other => panic!("expected session, got {other:?}"),
    };
    let s1 = open(&mut client, 1);
    let s2 = open(&mut client, 2);
    let mut slots = Vec::new();
    for (i, (w, h)) in [(4, 2), (2, 2), (3, 2), (2, 4)].into_iter().enumerate() {
        match client.roundtrip(&Request::Insert {
            id: 10 + i as u64,
            session: s1,
            module: clb_module(&format!("m{i}"), w, h),
        }) {
            Response::Inserted {
                slot: Some(slot), ..
            } => slots.push(slot),
            other => panic!("expected accepted insert, got {other:?}"),
        }
    }
    match client.roundtrip(&Request::Insert {
        id: 20,
        session: s2,
        module: clb_module("other", 3, 3),
    }) {
        Response::Inserted { slot: Some(_), .. } => {}
        other => panic!("expected accepted insert, got {other:?}"),
    }
    match client.roundtrip(&Request::Remove {
        id: 21,
        session: s1,
        slot: slots[1],
    }) {
        Response::Removed { removed: true, .. } => {}
        other => panic!("expected removed, got {other:?}"),
    }
    match client.roundtrip(&Request::InjectFault {
        id: 22,
        session: s1,
        fault: Fault::Rect {
            x: 0,
            y: 0,
            w: 1,
            h: 2,
        },
    }) {
        Response::FaultInjected { .. } => {}
        other => panic!("expected fault injected, got {other:?}"),
    }
    match client.roundtrip(&Request::Repair {
        id: 23,
        session: s1,
        budget_ms: Some(200),
    }) {
        Response::Repaired { .. } => {}
        other => panic!("expected repaired, got {other:?}"),
    }
    let before_s1 = dump(&mut client, 24, s1);
    let before_s2 = dump(&mut client, 25, s2);

    daemon.child.kill().expect("SIGKILL the daemon");
    wait_for_exit(&mut daemon.child);

    // Life 2: replay must rebuild both sessions exactly — same slots, same
    // occupancy digest, same live faults.
    let mut daemon = spawn_journaled(&journal);
    let mut client = Client::connect(daemon.addr);
    assert_eq!(dump(&mut client, 30, s1), before_s1);
    assert_eq!(dump(&mut client, 31, s2), before_s2);
    match client.roundtrip(&Request::Stats { id: 32 }) {
        Response::Stats { stats, .. } => {
            assert_eq!(stats.recovered_sessions, 2);
            assert_eq!(stats.recovery_errors, 0);
        }
        other => panic!("expected stats, got {other:?}"),
    }

    // Phase 2: SIGTERM the recovered daemon — the graceful path must
    // compact the journal to exactly one snapshot line...
    let pid = daemon.child.id().to_string();
    let status = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("send SIGTERM");
    assert!(status.success());
    wait_for_exit(&mut daemon.child);
    let text = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(text.lines().count(), 1, "journal: {text}");
    assert!(text.starts_with(r#"{"op":"snapshot""#));

    // ...and a third life recovers from that snapshot alone.
    let mut daemon = spawn_journaled(&journal);
    let mut client = Client::connect(daemon.addr);
    assert_eq!(dump(&mut client, 40, s1), before_s1);
    assert_eq!(dump(&mut client, 41, s2), before_s2);
    daemon.child.kill().expect("kill final daemon");
    wait_for_exit(&mut daemon.child);
    let _ = std::fs::remove_file(&journal);
}
