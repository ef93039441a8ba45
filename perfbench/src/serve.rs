//! Helpers both serving workloads share: building a spec's problem,
//! timing the protocol layer on exact lines, reading the daemons'
//! `stats` / `stats_detail` counters, and folding per-segment results
//! into the report.

use std::collections::BTreeMap;
use std::time::Instant;

use rrf_server::{Request, Response};

use crate::report::{mean, median, Report, Segment};
use crate::spans::Spans;
use crate::wire::Conn;

/// The region and modules a spec describes, built the way the daemon
/// builds them.
pub fn spec_problem(
    spec: &rrf_flow::FlowSpec,
) -> Result<(rrf_fabric::Region, Vec<rrf_core::Module>), String> {
    let region = spec.region.build().map_err(|e| e.to_string())?;
    let modules = spec
        .modules
        .iter()
        .map(|m| rrf_core::Module::new(m.name.clone(), m.shapes.clone()))
        .collect();
    Ok((region, modules))
}

/// Time the protocol layer on the exact lines: parse the request line
/// (the daemon's side) and the reply line (the client's side), then
/// render each parsed value back.
pub fn time_protocol(sent: &str, reply: &str, parse_us: &mut Vec<f64>, render_us: &mut Vec<f64>) {
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let request: Result<Request, _> = serde_json::from_str(std::hint::black_box(sent));
    parse_us.push(us(t));
    let t = Instant::now();
    let response: Result<Response, _> = serde_json::from_str(std::hint::black_box(reply));
    parse_us.push(us(t));
    if let Ok(request) = request {
        let t = Instant::now();
        std::hint::black_box(serde_json::to_string(&request).ok());
        render_us.push(us(t));
    }
    if let Ok(response) = response {
        let t = Instant::now();
        std::hint::black_box(serde_json::to_string(&response).ok());
        render_us.push(us(t));
    }
}

/// The daemon's `stats` and `stats_detail` at one moment.
pub struct Snapshot {
    pub stats: rrf_server::ServerStats,
    pub detail: rrf_server::DetailStats,
}

pub fn snapshot(addr: &str) -> Result<Snapshot, String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let stats = match conn.call(&Request::Stats { id: 1 })? {
        Response::Stats { stats, .. } => stats,
        other => return Err(format!("stats: unexpected {other:?}")),
    };
    let detail = match conn.call(&Request::StatsDetail { id: 2 })? {
        Response::StatsDetail { detail, .. } => detail,
        other => return Err(format!("stats_detail: unexpected {other:?}")),
    };
    Ok(Snapshot { stats, detail })
}

/// Phases of the daemon's place pipeline, as named in `stats_detail`.
pub const PHASES: &[&str] = &[
    "queue_wait",
    "cache_probe",
    "coalesce_wait",
    "preflight",
    "cp",
    "lns",
    "bottom_left",
    "verify",
    "other",
];

/// Mean µs per place request of each phase and the total, summed over
/// daemons, between two snapshots of each.
pub fn phase_means(pairs: &[(Snapshot, Snapshot)]) -> (Vec<(String, f64)>, f64, u64) {
    let count: u64 = pairs
        .iter()
        .map(|(b, a)| a.detail.total.count - b.detail.total.count)
        .sum();
    let per = |total: u64| total as f64 / count.max(1) as f64;
    let phase_total = |name: &str| -> u64 {
        pairs
            .iter()
            .map(|(b, a)| {
                let get = |s: &Snapshot| s.detail.phases.get(name).map_or(0, |p| p.total_us);
                get(a) - get(b)
            })
            .sum()
    };
    let phases = PHASES
        .iter()
        .map(|p| (format!("server.{p}_us"), per(phase_total(p))))
        .collect();
    let total: u64 = pairs
        .iter()
        .map(|(b, a)| a.detail.total.total_us - b.detail.total.total_us)
        .sum();
    (phases, per(total), count)
}

/// Daemon-side per-layer metrics between two snapshots of each daemon.
pub fn server_counters(report: &mut Report, pairs: &[(Snapshot, Snapshot)]) {
    let (phases, total, count) = phase_means(pairs);
    for (name, us) in phases {
        report.set(&name, "us", us, count);
    }
    report.set("server.total_us", "us", total, count);
    let delta = |f: fn(&rrf_server::ServerStats) -> u64| -> u64 {
        pairs.iter().map(|(b, a)| f(&a.stats) - f(&b.stats)).sum()
    };
    let places = delta(|s| s.place_requests);
    let ratio = |n: u64| n as f64 / places.max(1) as f64;
    let hits = delta(|s| s.cache_hits);
    report.set(
        "server.optimal_ratio",
        "share",
        ratio(delta(|s| s.placed_optimal)),
        places,
    );
    report.set("server.cache_hit_ratio", "share", ratio(hits), places);
    report.set("server.cache_hits", "count", hits as f64, places);
    report.set(
        "server.shed",
        "count",
        delta(|s| s.shed_deadline + s.rejected_backpressure) as f64,
        places,
    );
}

/// What one serving segment measured and checked.
#[derive(Default)]
pub struct SegmentOut {
    /// Whether the segment ran traced (the second half of a traced run).
    pub traced: bool,
    pub setup_s: f64,
    pub timing: Segment,
    pub attempted: u64,
    /// Operations answered correctly within the SLO.
    pub good: u64,
    pub utils: Vec<f64>,
    /// Failed checks of single operations.
    pub failures: Vec<String>,
    /// Failed checks not tied to one operation.
    pub errors: Vec<String>,
    pub spans: Spans,
    /// Each daemon's counters before and after the timed phase.
    pub snapshots: Vec<(Snapshot, Snapshot)>,
    /// Workload-specific counts, summed over the traced segments and
    /// reported under their own names.
    pub counters: BTreeMap<&'static str, u64>,
    pub parse_us: Vec<f64>,
    pub render_us: Vec<f64>,
}

/// Fold a serving run's segments into `report`: operation counts and
/// failed checks, `setup_s` (median over segments), `goodput` and `util`.
/// A closed loop passes `window_s` and gets its latency and throughput
/// from [`Report::set_windows`]; an open loop passes `None` and sets them
/// itself. When `spans` is enabled (the traced run), also the traced
/// segments' spans, protocol timings, daemon and workload counters, and
/// `trace.overhead_frac`: the median traced segment's p50 latency over
/// the median untraced one's, minus 1.
pub fn fold_segments(
    report: &mut Report,
    spans: &mut Spans,
    outs: Vec<SegmentOut>,
    window_s: Option<f64>,
) {
    let mut setups: Vec<f64> = outs.iter().map(|o| o.setup_s).collect();
    report.set("setup_s", "s", median(&mut setups), setups.len() as u64);
    let mut good = 0u64;
    let mut timings = Vec::new();
    let mut utils = Vec::new();
    let (mut parse_us, mut render_us) = (Vec::new(), Vec::new());
    let mut snapshots = Vec::new();
    let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
    let mut p50_by_trace: [Vec<f64>; 2] = Default::default();
    for mut out in outs {
        report.attempted += out.attempted;
        report.failed += out.failures.len() as u64;
        report.errors.append(&mut out.failures);
        report.errors.append(&mut out.errors);
        good += out.good;
        utils.append(&mut out.utils);
        let mut latencies: Vec<f64> = out.timing.ops.iter().map(|o| o.1).collect();
        p50_by_trace[usize::from(out.traced)].push(median(&mut latencies));
        timings.push(out.timing);
        if out.traced {
            parse_us.append(&mut out.parse_us);
            render_us.append(&mut out.render_us);
            spans.merge(out.spans);
            snapshots.extend(out.snapshots);
            for (name, n) in out.counters {
                *counters.entry(name).or_default() += n;
            }
        }
    }
    let attempted = report.attempted;
    if let Some(window_s) = window_s {
        report.set_windows(&timings, window_s);
    }
    report.set(
        "goodput",
        "share",
        good as f64 / attempted.max(1) as f64,
        attempted,
    );
    report.set("util", "share", mean(&utils), utils.len() as u64);
    if !spans.enabled() {
        return;
    }
    server_counters(report, &snapshots);
    for (name, n) in counters {
        report.set(name, "count", n as f64, attempted);
    }
    report.set(
        "protocol.parse_us",
        "us",
        mean(&parse_us),
        parse_us.len() as u64,
    );
    report.set(
        "protocol.render_us",
        "us",
        mean(&render_us),
        render_us.len() as u64,
    );
    let [untraced, traced] = &mut p50_by_trace;
    report.set(
        "trace.overhead_frac",
        "share",
        median(traced) / median(untraced) - 1.0,
        attempted,
    );
}
