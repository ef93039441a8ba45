//! `overload_load` — the overload ablation: does adaptive admission
//! control buy goodput at ≥2× saturation, or does it just drop work?
//!
//! Two arms against in-process daemons with identical tiny capacity
//! (2 workers, queue depth 4), each offered the same **open-loop** load:
//! `clients` connections fire cache-busting `place` requests on a fixed
//! Poisson-free schedule whose aggregate rate is `overload_factor`× the
//! daemon's service capacity — the clients do *not* slow down when the
//! daemon does, exactly like independent tenants hammering a shared
//! reconfiguration service. Per-request CP cost is pinned by the spec's
//! own `time_limit_ms`, so capacity is predictable across seeds.
//!
//! * **admission** — the real configuration: a full queue sheds
//!   immediately with `overloaded` + `retry_after_ms`, keeping latency
//!   for admitted work bounded by the queue depth.
//! * **no_shedding** — `admission_control` off: every request blocks
//!   until the queue accepts it. Nothing is rejected, so queueing delay
//!   grows without bound and responses arrive ever later (the classic
//!   goodput collapse).
//!
//! The load is **deadline-blind**: requests carry no `deadline_ms`, so
//! the server's degradation ladder — which is itself a per-request
//! overload defense, already benched in `serve_load` — cannot rescue
//! the no-shedding arm by collapsing service cost to a greedy placement.
//! The circuit breaker is likewise pinned off in both arms (it is
//! orthogonal to admission and would route both arms to LNS once the
//! pinned CP budget stops proving optimality, destroying the fixed
//! service cost the capacity math relies on).
//!
//! **Goodput** is a response that is feasible *and arrived within the
//! client's SLO of the send time*, judged by the shared open-loop
//! harness `rrf_bench::load`. The binary writes both arms to
//! `BENCH_overload.json` (shared `BenchRecord` schema); the
//! `bench_gate` binary enforces the
//! floor (admission goodput strictly above no-shedding).
//!
//! Usage: `overload_load [clients] [requests_per_client] [seed]
//!         [--slo-ms MS] [--overload-factor F] [--out PATH]`
//! (defaults 12, 10, 0, 600, 2.0).

#![forbid(unsafe_code)]
use rrf_bench::load::{run_open_loop, Cli, ClientPlan, Outcome, SERVICE_MS};
use rrf_bench::record::{write_records, BenchRecord};
use rrf_server::{start, ServerConfig};

const WORKERS: usize = 2;
const QUEUE_DEPTH: usize = 4;
/// Server-side default deadline for the deadline-blind requests: far
/// past the client SLO, so the degradation ladder never fires inside
/// the window where a response could still count as goodput, but low
/// enough to bound worst-case worker occupancy if CP ever returns
/// without an incumbent and the LNS rung inherits the remainder.
const SERVER_DEADLINE_MS: u64 = 3_000;

/// The offered load, identical in both arms.
struct Load {
    clients: u64,
    requests: u64,
    seed: u64,
    gap_ms: u64,
    slo_ms: u64,
    factor: f64,
}

fn run_arm(admission: bool, load: &Load) -> Outcome {
    let handle = start(ServerConfig {
        workers: WORKERS,
        queue_depth: QUEUE_DEPTH,
        admission_control: admission,
        default_deadline_ms: SERVER_DEADLINE_MS,
        // Pinned off (see module docs): the breaker is orthogonal to the
        // admission variable and would perturb the fixed service cost.
        breaker_threshold: u32::MAX,
        cache_capacity: 16,
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let arm_tag = u64::from(admission) << 40;
    let seed = load.seed;
    // Unique spec per (arm, client, request): every place is a cache
    // miss, so the daemon pays real solver latency for each admitted
    // request.
    let plans = (0..load.clients)
        .map(|client_idx| ClientPlan {
            client_idx,
            phase_ms: 0,
            gap_ms: load.gap_ms,
            requests: load.requests,
            deadline_ms: None,
            spec_seed: Box::new(move |i| arm_tag | (seed << 20) | (client_idx << 10) | i),
        })
        .collect();
    let total = run_open_loop(&handle.addr().to_string(), plans, load.slo_ms);
    handle.shutdown();
    total
}

fn record(arm: &str, out: &Outcome, load: &Load) -> BenchRecord {
    let params = BenchRecord::new("overload_ablation")
        .param_str("arm", arm)
        .param_u64("clients", load.clients)
        .param_u64("workers", WORKERS as u64)
        .param_u64("queue_depth", QUEUE_DEPTH as u64)
        .param_u64("service_ms", SERVICE_MS)
        .param_u64("slo_ms", load.slo_ms)
        .param_u64("send_gap_ms", load.gap_ms)
        .param_f64("overload_factor", load.factor)
        .param_u64("seed", load.seed);
    out.metrics(params)
}

fn main() {
    let cli = Cli::parse(
        &["--out", "--slo-ms", "--overload-factor"],
        "overload_load [clients] [requests_per_client] [seed] \
         [--slo-ms MS] [--overload-factor F] [--out PATH]",
    );
    let out_path: String = cli.flag("--out", "BENCH_overload.json".to_string());
    let clients = cli.positional(0, 12);
    let factor = cli.flag("--overload-factor", 2.0f64);
    assert!(factor >= 2.0, "the acceptance gate is >= 2x saturation");

    // Offered rate = clients / gap; capacity = WORKERS / SERVICE_MS.
    // Solve gap so offered = factor * capacity.
    let capacity_rps = WORKERS as f64 * 1000.0 / SERVICE_MS as f64;
    let load = Load {
        clients,
        requests: cli.positional(1, 10),
        seed: cli.positional(2, 0),
        gap_ms: ((clients as f64 * 1000.0) / (factor * capacity_rps)).round() as u64,
        slo_ms: cli.flag("--slo-ms", 600),
        factor,
    };

    eprintln!(
        "overload_load: {clients} clients x {} requests, send gap {}ms \
         ({factor}x of {capacity_rps:.1} rps capacity), client SLO {}ms",
        load.requests, load.gap_ms, load.slo_ms
    );
    let with = run_arm(true, &load);
    eprintln!("  admission:   {}", with.summary());
    let without = run_arm(false, &load);
    eprintln!("  no_shedding: {}", without.summary());

    let records = [
        record("admission", &with, &load),
        record("no_shedding", &without, &load),
    ];
    write_records(&out_path, &records).expect("write records");
    eprintln!("overload_load: wrote {out_path}");

    // Floors live in `bench_gate`: admission goodput must strictly beat
    // the no-shedding arm at >= 2x saturation.
    eprintln!(
        "overload_load: admission goodput {} vs no-shedding {} (bench_gate enforces the floor)",
        with.goodput, without.goodput
    );
}
