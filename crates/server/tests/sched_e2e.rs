//! Scheduler end-to-end tests: drive `submit_task` / `cancel_task` /
//! `schedule_status` over a real TCP socket, then prove the schedule is
//! crash-durable by SIGKILLing a journaled `rrf-serve` mid-session and
//! demanding a bit-identical schedule digest after restart.

use std::process::Command;

use rrf_fabric::{Fault, ResourceKind};
use rrf_flow::{DeviceSpec, ModuleEntry, RegionSpec};
use rrf_geost::{ShapeDef, ShiftedBox};
use rrf_sched::TaskSpec;
use rrf_server::{start, Request, Response, ServerConfig};

mod common;
use common::{spawn_journaled, wait_for_exit, Client};

fn clb_shape(w: i32, h: i32) -> ShapeDef {
    ShapeDef::new(vec![ShiftedBox::new(0, 0, w, h, ResourceKind::Clb)])
}

fn region_spec(width: i32, height: i32) -> RegionSpec {
    RegionSpec {
        device: DeviceSpec::Homogeneous { width, height },
        bounds: None,
        static_masks: vec![],
    }
}

fn task(name: &str, shapes: Vec<ShapeDef>, duration: u64, deadline: Option<u64>) -> TaskSpec {
    TaskSpec {
        module: ModuleEntry {
            name: name.into(),
            shapes,
            netlist: None,
        },
        arrival: 0,
        duration,
        deadline,
        priority: 0,
    }
}

fn open(client: &mut Client, id: u64, width: i32, height: i32) -> u64 {
    match client.roundtrip(&Request::OpenSession {
        id,
        region: region_spec(width, height),
    }) {
        Response::SessionOpened { session, .. } => session,
        other => panic!("expected session, got {other:?}"),
    }
}

fn schedule_digest(client: &mut Client, id: u64, session: u64) -> (String, u64, u64) {
    match client.roundtrip(&Request::ScheduleStatus {
        id,
        session,
        advance_to: None,
    }) {
        Response::Schedule {
            digest,
            now,
            queue_depth,
            ..
        } => (digest, now, queue_depth),
        other => panic!("expected schedule, got {other:?}"),
    }
}

/// The full request surface: admissions (accepted and rejected), the
/// frozen live-slot mask, cancel, clock advances, and the counters both
/// `stats` and `stats_detail` grow.
#[test]
fn submit_cancel_status_round_trip() {
    let handle = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let mut client = Client::connect(handle.addr());
    let session = open(&mut client, 1, 10, 6);

    // A live slot first: its footprint must be masked out of the
    // scheduler's fabric when the first submit freezes the region.
    match client.roundtrip(&Request::Insert {
        id: 2,
        session,
        module: ModuleEntry {
            name: "resident".into(),
            shapes: vec![clb_shape(10, 3)],
            netlist: None,
        },
    }) {
        Response::Inserted { slot: Some(_), .. } => {}
        other => panic!("expected accepted insert, got {other:?}"),
    }

    // Admitted: fits in the unmasked 10x3 strip.
    let admitted = match client.roundtrip(&Request::SubmitTask {
        id: 3,
        session,
        task: task("worker", vec![clb_shape(4, 2), clb_shape(2, 3)], 200, None),
    }) {
        Response::TaskSubmitted {
            task: Some(t),
            outcome,
            ..
        } => {
            assert_eq!(outcome, "admitted");
            t
        }
        other => panic!("expected admission, got {other:?}"),
    };

    // Rejected: 10x6 can never fit with the resident masking 10x3.
    match client.roundtrip(&Request::SubmitTask {
        id: 4,
        session,
        task: task("too_big", vec![clb_shape(10, 6)], 100, None),
    }) {
        Response::TaskSubmitted {
            task: None,
            outcome,
            ..
        } => assert_eq!(outcome, "rejected_unplaceable"),
        other => panic!("expected rejection, got {other:?}"),
    }

    // Rejected: the deadline cannot cover configuration + run time.
    match client.roundtrip(&Request::SubmitTask {
        id: 5,
        session,
        task: task("too_late", vec![clb_shape(2, 2)], 500, Some(10)),
    }) {
        Response::TaskSubmitted {
            task: None,
            outcome,
            ..
        } => assert_eq!(outcome, "rejected_deadline"),
        other => panic!("expected rejection, got {other:?}"),
    }

    // Cancel the admitted (not yet started) task.
    match client.roundtrip(&Request::CancelTask {
        id: 6,
        session,
        task: admitted,
    }) {
        Response::TaskCancelled { outcome, .. } => {
            assert!(
                outcome == "reserved" || outcome == "queued",
                "unexpected cancel outcome {outcome}"
            );
        }
        other => panic!("expected cancellation, got {other:?}"),
    }
    // Cancelling it again is a benign miss.
    match client.roundtrip(&Request::CancelTask {
        id: 7,
        session,
        task: admitted,
    }) {
        Response::TaskCancelled { outcome, .. } => assert_eq!(outcome, "unknown"),
        other => panic!("expected cancellation, got {other:?}"),
    }

    // Advance the logical clock, then submit work that runs to completion.
    match client.roundtrip(&Request::SubmitTask {
        id: 8,
        session,
        task: task("runner", vec![clb_shape(3, 2)], 100, Some(100_000)),
    }) {
        Response::TaskSubmitted { task: Some(_), .. } => {}
        other => panic!("expected admission, got {other:?}"),
    }
    match client.roundtrip(&Request::ScheduleStatus {
        id: 9,
        session,
        advance_to: Some(100_000),
    }) {
        Response::Schedule { now, stats, .. } => {
            assert_eq!(now, 100_000);
            assert_eq!(stats.completed, 1, "runner ran to completion");
            assert_eq!(stats.cancelled, 1);
            assert!(stats.useful_area_ticks > 0);
        }
        other => panic!("expected schedule, got {other:?}"),
    }

    match client.roundtrip(&Request::Stats { id: 10 }) {
        Response::Stats { stats, .. } => {
            assert_eq!(stats.sched_submits, 4);
            assert_eq!(stats.sched_admitted, 2);
            assert_eq!(stats.sched_rejected, 2);
            assert_eq!(stats.sched_cancels, 2);
            assert_eq!(stats.sched_advances, 1);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    match client.roundtrip(&Request::StatsDetail { id: 11 }) {
        Response::StatsDetail { detail, .. } => {
            assert!(
                detail.sched_queue_depth.count > 0,
                "queue-depth gauge sampled"
            );
        }
        other => panic!("expected stats detail, got {other:?}"),
    }

    // A session that never scheduled reads as an empty schedule.
    let bare = open(&mut client, 12, 4, 4);
    let (digest, now, depth) = schedule_digest(&mut client, 13, bare);
    assert_eq!((now, depth), (0, 0));
    assert_eq!(digest, format!("{:016x}", 0u64));

    handle.shutdown();
}

/// SIGKILL mid-schedule, restart on the same journal, and demand the
/// recovered scheduler land on a bit-identical digest — clock, queue,
/// ledger, and counters included. Ops after recovery must keep working.
#[test]
fn sigkill_then_restart_replays_bit_identical_schedule() {
    let journal =
        std::env::temp_dir().join(format!("rrf_sched_e2e_{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&journal);

    let mut daemon = spawn_journaled(&journal);
    let mut client = Client::connect(daemon.addr);
    let session = open(&mut client, 1, 12, 8);

    // Build up a rich schedule: an insert (frozen as a mask), admissions
    // with alternatives and deadlines, a fault that kills started work, a
    // cancel, and a clock advance.
    match client.roundtrip(&Request::Insert {
        id: 2,
        session,
        module: ModuleEntry {
            name: "resident".into(),
            shapes: vec![clb_shape(4, 2)],
            netlist: None,
        },
    }) {
        Response::Inserted { slot: Some(_), .. } => {}
        other => panic!("expected accepted insert, got {other:?}"),
    }
    let mut admitted = Vec::new();
    for (i, (shapes, duration, deadline)) in [
        (vec![clb_shape(6, 2), clb_shape(2, 6)], 300, None),
        (vec![clb_shape(6, 2), clb_shape(2, 6)], 250, Some(400)),
        (vec![clb_shape(3, 3)], 200, Some(5_000)),
        (vec![clb_shape(2, 2)], 150, None),
    ]
    .into_iter()
    .enumerate()
    {
        match client.roundtrip(&Request::SubmitTask {
            id: 10 + i as u64,
            session,
            task: task(&format!("t{i}"), shapes, duration, deadline),
        }) {
            Response::TaskSubmitted { task: Some(t), .. } => admitted.push(t),
            Response::TaskSubmitted { task: None, .. } => {}
            other => panic!("expected task_submitted, got {other:?}"),
        }
    }
    match client.roundtrip(&Request::ScheduleStatus {
        id: 20,
        session,
        advance_to: Some(100),
    }) {
        Response::Schedule { now: 100, .. } => {}
        other => panic!("expected schedule at t=100, got {other:?}"),
    }
    match client.roundtrip(&Request::InjectFault {
        id: 21,
        session,
        fault: Fault::Column { x: 1 },
    }) {
        Response::FaultInjected { .. } => {}
        other => panic!("expected fault injected, got {other:?}"),
    }
    if let Some(&victim) = admitted.last() {
        match client.roundtrip(&Request::CancelTask {
            id: 22,
            session,
            task: victim,
        }) {
            Response::TaskCancelled { .. } => {}
            other => panic!("expected cancellation, got {other:?}"),
        }
    }
    match client.roundtrip(&Request::ScheduleStatus {
        id: 23,
        session,
        advance_to: Some(500),
    }) {
        Response::Schedule { now: 500, .. } => {}
        other => panic!("expected schedule at t=500, got {other:?}"),
    }
    let before = schedule_digest(&mut client, 24, session);

    daemon.child.kill().expect("SIGKILL the daemon");
    wait_for_exit(&mut daemon.child);

    // Life 2: the replayed schedule must be bit-identical, and the
    // scheduler must still accept work.
    let mut daemon = spawn_journaled(&journal);
    let mut client = Client::connect(daemon.addr);
    assert_eq!(schedule_digest(&mut client, 30, session), before);
    match client.roundtrip(&Request::Stats { id: 31 }) {
        Response::Stats { stats, .. } => {
            assert_eq!(stats.recovered_sessions, 1);
            assert_eq!(stats.recovery_errors, 0);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    match client.roundtrip(&Request::SubmitTask {
        id: 32,
        session,
        task: task("after_recovery", vec![clb_shape(2, 2)], 100, None),
    }) {
        Response::TaskSubmitted { task: Some(_), .. } => {}
        other => panic!("expected admission after recovery, got {other:?}"),
    }

    // Graceful shutdown compacts to one snapshot carrying the op history;
    // a third life must replay from the snapshot to the same digest.
    let after_submit = schedule_digest(&mut client, 33, session);
    let pid = daemon.child.id().to_string();
    let status = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("send SIGTERM");
    assert!(status.success());
    wait_for_exit(&mut daemon.child);

    let mut daemon = spawn_journaled(&journal);
    let mut client = Client::connect(daemon.addr);
    assert_eq!(schedule_digest(&mut client, 40, session), after_submit);
    daemon.child.kill().expect("kill");
    wait_for_exit(&mut daemon.child);
    let _ = std::fs::remove_file(&journal);
}
