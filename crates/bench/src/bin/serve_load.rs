//! `serve_load` — replay seeded `rrf-modgen` workloads against the
//! placement daemon and report throughput and latency percentiles.
//!
//! Each client thread drives its own connection with a deterministic mix
//! of requests: one-shot `place` jobs (a handful of distinct seeded specs,
//! shared across clients so the placement cache sees both misses and
//! hits), plus an online session it inserts into, removes from, and
//! defragments. Every response is checked — an unexpected `error` or a
//! mismatched correlation id counts as a protocol error and fails the run.
//!
//! Usage: `serve_load [clients] [requests_per_client] [seed]
//!         [--addr HOST:PORT] [--deadline-ms MS]`
//! (defaults 4, 30, 0; without `--addr` an in-process daemon is started).

#![forbid(unsafe_code)]
use std::time::{Duration, Instant};

use rrf_bench::load::{place_spec, Conn};
use rrf_bench::workload::{percentile_ms, small_online_module, small_region_spec};
use rrf_flow::PlacerSettings;
use rrf_server::{start, Request, Response, ServerConfig};

/// Distinct place specs in rotation; small enough that a miss solves well
/// inside the deadline, few enough that most requests are cache hits.
const PLACE_SPECS: u64 = 5;

#[derive(Default)]
struct ClientOutcome {
    latencies_us: Vec<u64>,
    protocol_errors: Vec<String>,
    place_hits: u64,
    place_misses: u64,
    inserts_rejected: u64,
}

fn run_client(
    addr: &str,
    client_idx: u64,
    requests: u64,
    base_seed: u64,
    deadline_ms: u64,
) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    let mut client = match Conn::connect(addr, Duration::from_secs(60)) {
        Ok(client) => client,
        Err(e) => {
            out.protocol_errors.push(format!("connect: {e}"));
            return out;
        }
    };
    let mut next_id: u64 = client_idx * 1_000_000;
    let mut slots: Vec<u64> = Vec::new();

    let issue = |client: &mut Conn, request: Request, out: &mut ClientOutcome| {
        let id = request.id();
        let started = Instant::now();
        match client.roundtrip(&request) {
            Ok(response) => {
                out.latencies_us.push(started.elapsed().as_micros() as u64);
                if response.id() != id {
                    out.protocol_errors
                        .push(format!("id mismatch: sent {id}, got {}", response.id()));
                    return None;
                }
                Some(response)
            }
            Err(e) => {
                out.protocol_errors.push(format!("request {id}: {e}"));
                None
            }
        }
    };

    // A session for the online part of the mix.
    next_id += 1;
    let session = match issue(
        &mut client,
        Request::OpenSession {
            id: next_id,
            region: small_region_spec(),
        },
        &mut out,
    ) {
        Some(Response::SessionOpened { session, .. }) => Some(session),
        Some(other) => {
            out.protocol_errors
                .push(format!("open_session: unexpected {other:?}"));
            None
        }
        None => None,
    };

    for i in 0..requests {
        next_id += 1;
        let id = next_id;
        let request = match (i % 6, session) {
            (0 | 3, _) => Request::Place {
                id,
                spec: place_spec(
                    4,
                    base_seed + (client_idx + i) % PLACE_SPECS,
                    PlacerSettings::default(),
                ),
                deadline_ms: Some(deadline_ms),
            },
            (1 | 4, Some(session)) => Request::Insert {
                id,
                session,
                module: small_online_module(client_idx + i),
            },
            (2, Some(session)) if !slots.is_empty() => Request::Remove {
                id,
                session,
                slot: slots.remove(0),
            },
            (5, Some(session)) => Request::Defrag { id, session },
            _ => Request::Ping { id },
        };
        match issue(&mut client, request, &mut out) {
            Some(Response::Placed { cache_hit, .. }) => {
                if cache_hit {
                    out.place_hits += 1;
                } else {
                    out.place_misses += 1;
                }
            }
            Some(Response::Inserted { slot, .. }) => match slot {
                Some(slot) => slots.push(slot),
                None => out.inserts_rejected += 1,
            },
            Some(Response::Error { message, .. }) => {
                out.protocol_errors.push(format!("request {id}: {message}"));
            }
            Some(_) | None => {}
        }
    }

    if let Some(session) = session {
        next_id += 1;
        issue(
            &mut client,
            Request::CloseSession {
                id: next_id,
                session,
            },
            &mut out,
        );
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut positional: Vec<&str> = Vec::new();
    let mut addr: Option<String> = None;
    let mut deadline_ms: u64 = 2_000;
    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = Some(it.next().expect("--addr needs a value").clone()),
            "--deadline-ms" => {
                deadline_ms = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--deadline-ms needs a number")
            }
            other => positional.push(other),
        }
    }
    let clients: u64 = positional.first().and_then(|s| s.parse().ok()).unwrap_or(4);
    let requests: u64 = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(30);
    let base_seed: u64 = positional.get(2).and_then(|s| s.parse().ok()).unwrap_or(0);

    // Spawn an in-process daemon unless pointed at a running one.
    let handle = addr
        .is_none()
        .then(|| start(ServerConfig::default()).expect("start daemon"));
    let addr = addr.unwrap_or_else(|| handle.as_ref().unwrap().addr().to_string());

    eprintln!(
        "serve_load: {clients} clients x {requests} requests (+session open/close) \
         against {addr}, deadline {deadline_ms}ms"
    );
    let started = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let addr = &addr;
        let threads: Vec<_> = (0..clients)
            .map(|c| scope.spawn(move || run_client(addr, c, requests, base_seed, deadline_ms)))
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    let elapsed = started.elapsed();

    let mut latencies: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.latencies_us.iter().copied())
        .collect();
    latencies.sort_unstable();
    let total = latencies.len() as u64;
    let errors: Vec<&String> = outcomes.iter().flat_map(|o| &o.protocol_errors).collect();
    let hits: u64 = outcomes.iter().map(|o| o.place_hits).sum();
    let misses: u64 = outcomes.iter().map(|o| o.place_misses).sum();
    let rejected: u64 = outcomes.iter().map(|o| o.inserts_rejected).sum();

    println!("requests:    {total} in {:.2}s", elapsed.as_secs_f64());
    println!(
        "throughput:  {:.1} req/s",
        total as f64 / elapsed.as_secs_f64()
    );
    println!(
        "latency ms:  p50 {:.2}  p90 {:.2}  p99 {:.2}  max {:.2}",
        percentile_ms(&latencies, 50.0),
        percentile_ms(&latencies, 90.0),
        percentile_ms(&latencies, 99.0),
        percentile_ms(&latencies, 100.0),
    );
    println!("place cache: {hits} hits / {misses} misses");
    println!("online:      {rejected} inserts rejected (region full — not errors)");

    if let Ok(mut client) = Conn::connect(&addr, Duration::from_secs(60)) {
        if let Ok(Response::Stats { stats, .. }) = client.roundtrip(&Request::Stats { id: 1 }) {
            println!(
                "server:      {} requests, {} fallbacks, {} backpressure rejections, \
                 histogram {:?}",
                stats.requests,
                stats.fallbacks(),
                stats.rejected_backpressure,
                stats.solve_ms_histogram
            );
        }
    }

    if !errors.is_empty() {
        eprintln!("{} protocol errors:", errors.len());
        for e in errors.iter().take(10) {
            eprintln!("  {e}");
        }
        std::process::exit(1);
    }
    println!("protocol errors: 0");
}
