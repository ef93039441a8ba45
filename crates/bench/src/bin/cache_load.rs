//! `cache_load` — the cache ablation (A13): do sharding + single-flight
//! coalescing buy goodput on a duplicate-heavy workload at saturation,
//! or is the plain global-map cache already enough?
//!
//! Two arms against in-process daemons with identical capacity
//! (4 workers, deep queue), each offered the same **open-loop** load:
//!
//! * **coalesced** — the real configuration: sharded cache
//!   (`cache_shards: 8`) with single-flight coalescing on.
//! * **baseline** — `cache_shards: 1`, coalescing off: the old global
//!   `Mutex<PlacementCache>` behavior. The cache itself still works —
//!   this arm is *not* cacheless — so the ablation isolates exactly what
//!   sharding and coalescing add.
//!
//! The workload is the shape that actually separates them. A plain LRU
//! cache already rescues any duplicate that arrives *after* the first
//! solve completes; what it cannot rescue is the **mid-flight
//! duplicate** — a request for the same spec that arrives while the
//! first solve is still running. The baseline dispatches each of those
//! onto a free worker for a full redundant solve; with duplicates
//! recurring every service window, that alone pins every worker
//! (`WORKERS x SERVICE_MS` of redundant work per window — exactly 100%
//! of capacity). The coalescing arm parks the same requests on the
//! leader's flight and releases them the moment it publishes, paying
//! only the *remainder* of the window. A modest background stream of
//! unique specs then decides the outcome: the coalescing arm absorbs it
//! with the headroom coalescing freed, while the baseline — already at
//! capacity from redundant work — falls behind without bound, and its
//! queueing delay grows past the client SLO (the classic goodput
//! collapse, here triggered by duplicates rather than raw load).
//!
//! Concretely, per 150 ms wave: `HOT_CLIENTS` connections fire the
//! *identical* spec (a fresh key each wave, so nothing is pre-cached) at
//! phases clustered late in the wave, and the unique stream offers
//! ~1.3 cache-busting specs. Hot deadlines descend with phase so every
//! follower's remaining budget sits below the leader's in-flight budget
//! and the existing budget-compatibility rule lets it join. Per-request
//! CP cost is pinned by the spec's own `time_limit_ms`; the circuit
//! breaker is pinned off in both arms (orthogonal, and it would perturb
//! the fixed service cost the capacity math relies on).
//!
//! **Goodput** is a response that is feasible *and arrived within the
//! client's SLO of the send time*, judged by the shared open-loop
//! harness `rrf_bench::load`. The binary writes both arms to
//! `BENCH_cache.json` (shared `BenchRecord` schema); the `bench_gate`
//! binary enforces the floor (coalesced goodput at least 2x the
//! baseline's).
//!
//! Usage: `cache_load [waves] [seed] [--slo-ms MS] [--out PATH]`
//! (defaults 48, 0, 600).

#![forbid(unsafe_code)]
use std::time::Duration;

use rrf_bench::load::{run_open_loop, Cli, ClientPlan, Conn, Outcome, SERVICE_MS};
use rrf_bench::record::{write_records, BenchRecord};
use rrf_server::{start, Request, Response, ServerConfig};

const WORKERS: usize = 4;
/// Deep queue: the baseline should fail by *lateness* (unbounded
/// queueing delay), not by shedding the burst at the door — admission
/// control is identical in both arms and is not the variable here.
const QUEUE_DEPTH: usize = 64;

/// Connections firing the identical spec each wave; the wave period is
/// `SERVICE_MS`, so each wave's duplicates arrive while their leader is
/// still solving. Phases cluster late in the wave: a duplicate arriving
/// at phase p costs the baseline a full redundant solve (occupying a
/// worker until p + SERVICE_MS, past the wave boundary) but costs the
/// coalescing arm only the remainder of the leader's window
/// (SERVICE_MS - p).
const HOT_CLIENTS: usize = 6;
const HOT_PHASES_MS: [u64; HOT_CLIENTS] = [0, 95, 105, 115, 125, 135];
/// Hot deadlines descend with phase: each follower's remaining budget is
/// strictly under the leader's flight budget (400 ms step, far above
/// scheduling jitter), so the budget-compatibility rule admits the join.
const HOT_DEADLINES_MS: [u64; HOT_CLIENTS] = [6_000, 5_600, 5_200, 4_800, 4_400, 4_000];

/// The background stream of unique (cache-busting) specs: ~200 worker-ms
/// per 150 ms wave. Inside the headroom coalescing frees; on top of a
/// baseline already saturated by redundant duplicate solves.
const UNIQ_CLIENTS: usize = 2;
const UNIQ_GAP_MS: u64 = 225;
const UNIQ_DEADLINE_MS: u64 = 6_000;

/// The daemon's own counters in record order, read over a fresh
/// connection before shutdown.
fn read_counters(addr: &str) -> Vec<(&'static str, u64)> {
    let (mut solves, mut cache_hits, mut joins, mut leader_solves) = (0, 0, 0, 0);
    if let Ok(mut conn) = Conn::connect(addr, Duration::from_secs(10)) {
        if let Ok(Response::Stats { stats, .. }) = conn.roundtrip(&Request::Stats { id: 1 }) {
            solves = stats.solves();
            cache_hits = stats.cache_hits;
        }
        let detail = conn.roundtrip(&Request::StatsDetail { id: 2 });
        if let Ok(Response::StatsDetail { detail, .. }) = detail {
            joins = detail.cache.coalesced_joins;
            leader_solves = detail.cache.coalesced_leader_solves;
        }
    }
    vec![
        ("solves", solves),
        ("cache_hits", cache_hits),
        ("coalesced_joins", joins),
        ("coalesced_leader_solves", leader_solves),
    ]
}

fn run_arm(coalesce: bool, waves: u64, seed: u64, slo_ms: u64) -> Outcome {
    let handle = start(ServerConfig {
        workers: WORKERS,
        queue_depth: QUEUE_DEPTH,
        admission_control: true,
        default_deadline_ms: UNIQ_DEADLINE_MS,
        // Pinned off (see module docs): orthogonal to the cache variable.
        breaker_threshold: u32::MAX,
        // Roomy enough that no key is evicted mid-run: ~1 hot key per
        // wave plus every unique.
        cache_capacity: 512,
        cache_shards: if coalesce { 8 } else { 1 },
        coalesce,
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let addr = handle.addr().to_string();

    // Hot waves share the spec seed across clients (that is the
    // duplication); uniques never repeat one.
    let mut plans = Vec::new();
    for i in 0..HOT_CLIENTS {
        plans.push(ClientPlan {
            client_idx: i as u64,
            phase_ms: HOT_PHASES_MS[i],
            gap_ms: SERVICE_MS,
            requests: waves,
            deadline_ms: Some(HOT_DEADLINES_MS[i]),
            spec_seed: Box::new(move |j| (1 << 32) | (seed << 20) | j),
        });
    }
    let uniq_requests = (waves * SERVICE_MS).div_ceil(UNIQ_GAP_MS);
    for i in 0..UNIQ_CLIENTS {
        let client_idx = (HOT_CLIENTS + i) as u64;
        plans.push(ClientPlan {
            client_idx,
            phase_ms: i as u64 * UNIQ_GAP_MS / UNIQ_CLIENTS as u64,
            gap_ms: UNIQ_GAP_MS,
            requests: uniq_requests,
            deadline_ms: Some(UNIQ_DEADLINE_MS),
            spec_seed: Box::new(move |j| (2 << 32) | (seed << 20) | (client_idx << 12) | j),
        });
    }

    let mut total = run_open_loop(&addr, plans, slo_ms);
    total.counters = read_counters(&addr);
    handle.shutdown();
    total
}

fn record(arm: &str, out: &Outcome, waves: u64, seed: u64, slo_ms: u64) -> BenchRecord {
    let params = BenchRecord::new("cache_ablation")
        .param_str("arm", arm)
        .param_u64("workers", WORKERS as u64)
        .param_u64("queue_depth", QUEUE_DEPTH as u64)
        .param_u64("service_ms", SERVICE_MS)
        .param_u64("waves", waves)
        .param_u64("hot_clients", HOT_CLIENTS as u64)
        .param_u64("uniq_clients", UNIQ_CLIENTS as u64)
        .param_u64("uniq_gap_ms", UNIQ_GAP_MS)
        .param_u64("slo_ms", slo_ms)
        .param_u64("seed", seed);
    out.metrics(params)
}

fn main() {
    let cli = Cli::parse(
        &["--out", "--slo-ms"],
        "cache_load [waves] [seed] [--slo-ms MS] [--out PATH]",
    );
    let out_path: String = cli.flag("--out", "BENCH_cache.json".to_string());
    let slo_ms = cli.flag("--slo-ms", 600u64);
    let waves = cli.positional(0, 48);
    let seed = cli.positional(1, 0);

    eprintln!(
        "cache_load: {waves} waves x {HOT_CLIENTS} duplicate clients every {SERVICE_MS}ms \
         + {UNIQ_CLIENTS} unique clients every {UNIQ_GAP_MS}ms, client SLO {slo_ms}ms"
    );
    let coalesced = run_arm(true, waves, seed, slo_ms);
    eprintln!("  coalesced: {}", coalesced.summary());
    let baseline = run_arm(false, waves, seed, slo_ms);
    eprintln!("  baseline:  {}", baseline.summary());

    let records = vec![
        record("coalesced", &coalesced, waves, seed, slo_ms),
        record("baseline", &baseline, waves, seed, slo_ms),
    ];
    write_records(&out_path, &records).expect("write records");
    eprintln!("cache_load: wrote {out_path}");

    // Floors live in `bench_gate`: coalesced goodput must be >= 2x the
    // baseline on this duplicate-heavy workload.
    eprintln!(
        "cache_load: coalesced goodput {} vs baseline {} (bench_gate enforces the floor)",
        coalesced.goodput, baseline.goodput
    );
}
