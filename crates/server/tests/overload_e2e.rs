//! Overload end-to-end tests: the request-line byte cap, the JSON nesting
//! limit, and the backpressure → `rrf-client` retry loop, all against an
//! in-process daemon over real TCP.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use rrf_bench::workload::{paper_region_spec, small_region_spec};
use rrf_client::{Client, ClientConfig};
use rrf_flow::{FlowSpec, ModuleEntry, PlacerSettings};
use rrf_modgen::{generate_workload, WorkloadSpec};
use rrf_server::{start, Request, Response, ServerConfig, ServerStats};

fn roundtrip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &[u8]) -> Response {
    writer.write_all(line).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read response");
    serde_json::from_str(reply.trim()).expect("parse response")
}

fn request_line(request: &Request) -> Vec<u8> {
    let mut line = serde_json::to_string(request).unwrap();
    line.push('\n');
    line.into_bytes()
}

/// A `place` whose CP rung is pinned to `time_limit_ms`, unique per
/// `seed` so the daemon's cache never short-circuits the queue.
fn place_spec(modules: usize, seed: u64, time_limit_ms: u64) -> FlowSpec {
    let workload = generate_workload(&WorkloadSpec::small(modules, seed));
    FlowSpec {
        region: small_region_spec(),
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
            time_limit_ms: Some(time_limit_ms),
            ..PlacerSettings::default()
        },
    }
}

fn fetch_stats(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream) -> ServerStats {
    match roundtrip(reader, writer, &request_line(&Request::Stats { id: 9_999 })) {
        Response::Stats { stats, .. } => stats,
        other => panic!("expected stats, got {other:?}"),
    }
}

/// An oversized request line draws one structured error echoing the id
/// scanned from the capped prefix — and the connection stays usable for
/// well-behaved requests afterwards.
#[test]
fn oversized_line_gets_structured_error_and_connection_survives() {
    let handle = start(ServerConfig {
        workers: 1,
        max_line_bytes: 4_096,
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    // A syntactically hopeless 64 KiB line whose id is visible in the
    // first capped bytes; the server must not buffer past the cap.
    let mut line = br#"{"op":"place","id":4242,"pad":""#.to_vec();
    line.resize(64 * 1024, b'x');
    line.push(b'\n');
    match roundtrip(&mut reader, &mut writer, &line) {
        Response::Error { id, message } => {
            assert_eq!(id, 4242, "error must echo the id scanned from the prefix");
            assert!(
                message.contains("4096 byte cap"),
                "message must name the cap: {message}"
            );
        }
        other => panic!("expected structured error, got {other:?}"),
    }

    // Same connection, next line: business as usual.
    match roundtrip(
        &mut reader,
        &mut writer,
        &request_line(&Request::Ping { id: 7 }),
    ) {
        Response::Pong { id } => assert_eq!(id, 7),
        other => panic!("expected pong after oversized line, got {other:?}"),
    }
    let stats = fetch_stats(&mut reader, &mut writer);
    assert_eq!(stats.oversized_lines, 1);
    handle.shutdown();
}

/// A line of 500,000 `[` fits under the default cap but nests far past
/// the JSON parser's recursion limit: it must draw a structured error,
/// not overflow the connection thread's stack, and the daemon must keep
/// answering on the same connection.
#[test]
fn deeply_nested_line_gets_structured_error_and_daemon_survives() {
    let handle = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let mut line = vec![b'['; 500_000];
    line.push(b'\n');
    match roundtrip(&mut reader, &mut writer, &line) {
        Response::Error { id, message } => {
            assert_eq!(id, 0, "no id is recoverable from a bare nest");
            assert!(
                message.contains("recursion limit exceeded"),
                "message must name the nesting limit: {message}"
            );
        }
        other => panic!("expected structured error, got {other:?}"),
    }

    match roundtrip(
        &mut reader,
        &mut writer,
        &request_line(&Request::Ping { id: 8 }),
    ) {
        Response::Pong { id } => assert_eq!(id, 8),
        other => panic!("expected pong after deeply nested line, got {other:?}"),
    }
    handle.shutdown();
}

/// Saturate a one-worker, one-slot daemon with slow CP work — one
/// in-flight, one queued, the same stagger the `server_end_to_end`
/// suite uses — then let the retrying `rrf-client` push an idempotent
/// `place` through: its first attempt is shed with `overloaded` +
/// `retry_after_ms`, and the backoff loop (honoring the hint) must land
/// the request once the hogs drain.
#[test]
fn backpressure_sheds_then_retrying_client_eventually_succeeds() {
    let handle = start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let addr = handle.addr().to_string();

    // Two hog connections each park one paper-sized placement in the
    // daemon (30 modules: CP never proves inside the 1.2s pin). The
    // stagger lets A reach the worker before B takes the queue slot.
    let hog_spec = |seed: u64| {
        let workload = generate_workload(&WorkloadSpec::paper(seed));
        FlowSpec {
            region: paper_region_spec(),
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
                time_limit_ms: Some(1_200),
                ..PlacerSettings::default()
            },
        }
    };
    let mut hogs = Vec::new();
    for (i, seed) in [(0u64, 10u64), (1, 11)] {
        let stream = TcpStream::connect(&addr).expect("connect hog");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let request = Request::Place {
            id: 100 + i,
            spec: hog_spec(seed),
            deadline_ms: None,
        };
        writer.write_all(&request_line(&request)).unwrap();
        hogs.push(stream);
        std::thread::sleep(Duration::from_millis(300));
    }

    // Worker busy + queue full: the retrying client's first attempt is
    // shed, and the loop must succeed once the hogs drain (~1.2s each).
    let mut client = Client::new(ClientConfig {
        addr: addr.clone(),
        max_retries: 12,
        backoff_base: Duration::from_millis(25),
        backoff_cap: Duration::from_secs(1),
        ..ClientConfig::default()
    });
    let request = Request::Place {
        id: 300,
        spec: place_spec(4, 9_001, 50),
        deadline_ms: None,
    };
    let started = Instant::now();
    match client.call(&request).expect("retry loop must succeed") {
        Response::Placed { id, report, .. } => {
            assert_eq!(id, 300);
            assert!(report.feasible, "placement must be feasible");
        }
        other => panic!("expected placed, got {other:?}"),
    }
    assert!(
        started.elapsed() >= Duration::from_millis(200),
        "the client cannot have succeeded while the daemon was saturated"
    );

    let stats_conn = TcpStream::connect(&addr).expect("connect stats");
    stats_conn
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut stats_reader = BufReader::new(stats_conn.try_clone().unwrap());
    let mut stats_writer = stats_conn;
    let stats = fetch_stats(&mut stats_reader, &mut stats_writer);
    assert!(
        stats.rejected_backpressure >= 1,
        "the client's shed first attempt must be counted"
    );
    drop(hogs);
    handle.shutdown();
}
