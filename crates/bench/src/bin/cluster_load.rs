//! `cluster_load` — the horizontal-sharding ablation (A14): does routing
//! the same saturating placement load across four `rrf-serve` backends
//! through `rrf-router` recover the goodput a single backend sheds?
//!
//! Two arms, identical offered load — an **open-loop** stream of unique
//! placement specs at ~4x one backend's saturation point:
//!
//! * **four_backends** — four in-process daemons (2 workers each) behind
//!   one in-process router; stateless `place` requests spread by
//!   least-loaded routing.
//! * **one_backend** — one identical daemon behind the same router, so
//!   the router hop is paid in both arms and the ablation isolates
//!   exactly the horizontal capacity.
//!
//! Every spec pins its own CP budget (`time_limit_ms = SERVICE_MS`), so
//! per-request service cost is a constant and the capacity math is
//! exact: one backend serves `workers / service = ~13.3` req/s; the
//! offered load is `CLIENTS / GAP = ~53.3` req/s. A shallow queue
//! (`QUEUE_DEPTH = 8`) keeps worst-case queueing delay under the client
//! SLO, so the single backend fails *honestly* — by shedding at
//! admission — rather than by unbounded lateness, and within-SLO goodput
//! measures exactly what each arm could truly serve.
//!
//! **Goodput** is a response that is feasible *and arrived within the
//! client's SLO of the send time*, judged by the shared open-loop
//! harness `rrf_bench::load`. The binary writes both arms to
//! `BENCH_cluster.json` (shared `BenchRecord` schema); the `bench_gate`
//! stage asserts `four_backends >= 2.5x one_backend`.
//!
//! Usage: `cluster_load [requests_per_client] [seed] [--slo-ms MS] [--out PATH]`
//! (defaults 40, 0, 900).

#![forbid(unsafe_code)]
use rrf_bench::load::{run_open_loop, Cli, ClientPlan, Outcome, SERVICE_MS};
use rrf_bench::record::{write_records, BenchRecord};
use rrf_router::{BackendSpec, RouterConfig, RouterHandle};
use rrf_server::{start, ServerConfig, ServerHandle};

/// Per-backend capacity knobs — identical in both arms.
const WORKERS: usize = 2;
/// Shallow queue: worst-case queueing delay is `QUEUE_DEPTH x
/// SERVICE_MS / WORKERS = 600 ms`, under the default 900 ms SLO — excess
/// load is shed at the door, never served late.
const QUEUE_DEPTH: usize = 8;

/// The open-loop offered load: `CLIENTS / GAP_MS = ~53.3` req/s, 4x one
/// backend's `WORKERS / SERVICE_MS = ~13.3` req/s saturation point.
const CLIENTS: usize = 16;
const GAP_MS: u64 = 300;
const DEADLINE_MS: u64 = 6_000;

/// Bring up `backends` in-process daemons and a router over them.
fn start_cluster(backends: usize) -> (Vec<ServerHandle>, RouterHandle) {
    let mut handles = Vec::with_capacity(backends);
    let mut specs = Vec::with_capacity(backends);
    for i in 0..backends {
        let handle = start(ServerConfig {
            workers: WORKERS,
            queue_depth: QUEUE_DEPTH,
            admission_control: true,
            default_deadline_ms: DEADLINE_MS,
            breaker_threshold: u32::MAX,
            backend_id: format!("b{i}"),
            ..ServerConfig::default()
        })
        .expect("start daemon");
        specs.push(BackendSpec {
            addr: handle.addr().to_string(),
            journal: None,
        });
        handles.push(handle);
    }
    let router = rrf_router::start(RouterConfig {
        backends: specs,
        probe_interval_ms: 50,
        ..RouterConfig::default()
    })
    .expect("start router");
    (handles, router)
}

fn run_arm(backends: usize, requests: u64, seed: u64, slo_ms: u64) -> Outcome {
    let (handles, router) = start_cluster(backends);
    // Unique spec per (client, request) — nothing cacheable, nothing
    // coalesceable: raw horizontal capacity is the only variable. Clients
    // phase-stagger across one gap so the fleet sees a smooth ~53 req/s
    // rather than 16-wide synchronized bursts.
    let plans = (0..CLIENTS as u64)
        .map(|client_idx| ClientPlan {
            client_idx,
            phase_ms: client_idx * GAP_MS / CLIENTS as u64,
            gap_ms: GAP_MS,
            requests,
            deadline_ms: Some(DEADLINE_MS),
            spec_seed: Box::new(move |j| (3 << 32) | (seed << 20) | (client_idx << 12) | j),
        })
        .collect();
    let mut total = run_open_loop(&router.addr().to_string(), plans, slo_ms);
    let stats = router.stats();
    total.counters = vec![
        ("routed_requests", stats.routed_requests),
        ("router_no_backend", stats.no_backend),
        ("router_ejections", stats.ejections),
    ];
    router.shutdown();
    for handle in handles {
        handle.shutdown();
    }
    total
}

fn record(
    arm: &str,
    backends: usize,
    out: &Outcome,
    requests: u64,
    seed: u64,
    slo_ms: u64,
) -> BenchRecord {
    let params = BenchRecord::new("cluster_ablation")
        .param_str("arm", arm)
        .param_u64("backends", backends as u64)
        .param_u64("workers_per_backend", WORKERS as u64)
        .param_u64("queue_depth", QUEUE_DEPTH as u64)
        .param_u64("service_ms", SERVICE_MS)
        .param_u64("clients", CLIENTS as u64)
        .param_u64("gap_ms", GAP_MS)
        .param_u64("requests_per_client", requests)
        .param_u64("slo_ms", slo_ms)
        .param_u64("seed", seed);
    out.metrics(params)
}

fn main() {
    let cli = Cli::parse(
        &["--out", "--slo-ms"],
        "cluster_load [requests_per_client] [seed] [--slo-ms MS] [--out PATH]",
    );
    let out_path: String = cli.flag("--out", "BENCH_cluster.json".to_string());
    let slo_ms = cli.flag("--slo-ms", 900u64);
    let requests = cli.positional(0, 40);
    let seed = cli.positional(1, 0);

    eprintln!(
        "cluster_load: {CLIENTS} clients x {requests} unique specs every {GAP_MS}ms \
         (~{:.1} req/s, 4x one backend's ~{:.1} req/s), client SLO {slo_ms}ms",
        CLIENTS as f64 * 1000.0 / GAP_MS as f64,
        WORKERS as f64 * 1000.0 / SERVICE_MS as f64,
    );
    let four = run_arm(4, requests, seed, slo_ms);
    eprintln!("  four_backends: {}", four.summary());
    let one = run_arm(1, requests, seed, slo_ms);
    eprintln!("  one_backend:   {}", one.summary());

    let records = vec![
        record("four_backends", 4, &four, requests, seed, slo_ms),
        record("one_backend", 1, &one, requests, seed, slo_ms),
    ];
    write_records(&out_path, &records).expect("write records");
    eprintln!("cluster_load: wrote {out_path}");
    eprintln!(
        "cluster ablation: four_backends goodput {} vs one_backend goodput {} \
         ({:.2}x; the bench_gate stage enforces >= 2.5x)",
        four.goodput,
        one.goodput,
        four.goodput as f64 / one.goodput.max(1) as f64,
    );
}
