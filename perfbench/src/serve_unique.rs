//! `serve_unique`: an open loop of distinct `place` requests against an
//! in-process `rrf-serve` with 2 workers. Every request misses the cache
//! and pays a real exact solve, so the daemon's place pipeline and the
//! solver dominate; no router is involved.
//!
//! Two connections each send Poisson arrivals at half the total rate. A
//! connection is served strictly in order, so a backlog forms at the
//! generator; latency is timed from each request's due time, which
//! counts that backlog. The run is split into segments, each against a
//! fresh daemon that is sent the whole spec pool once, in its own
//! seed-drawn order and arrival times. Each spec's latency and
//! round-trip time are its fastest over the untraced segments, the way
//! `solve` keeps each instance's fastest solve: the host's interference
//! only ever slows a request down. Throughput is the daemon's capacity
//! at those round-trip times, not replies over wall time: an open loop's
//! wall time is set by its arrival schedule, not by the daemon.

use std::time::{Duration, Instant};

use rrf_flow::FlowSpec;
use rrf_server::{start, PlaceMethod, Response, ServerConfig};

use crate::inputs::{place_line, unique_pool, unique_schedule, unique_warmup, Timed};
use crate::report::{mean, Report};
use crate::serve::{fold_segments, snapshot, spec_problem, time_protocol, SegmentOut};
use crate::spans::Spans;
use crate::wire::Conn;
use crate::{sleep_until, RunArgs};

/// Load connections, each with Poisson arrivals at `rate / CONNS`.
const CONNS: u64 = 2;
/// Worker threads of the daemon.
const WORKERS: usize = 2;
/// A reply later than this after its due time misses the SLO.
const SLO_MS: f64 = 100.0;

#[derive(Debug, Clone)]
pub struct UniqueConfig {
    /// Total offered rate, requests per second, over all connections.
    pub rate: f64,
    /// Warm-up places (distinct specs) sent during each set-up.
    pub warmup: u64,
    /// Segments per run; the traced run traces the second half of them.
    pub segments: u64,
}

impl Default for UniqueConfig {
    fn default() -> UniqueConfig {
        UniqueConfig {
            rate: 80.0,
            warmup: 20,
            segments: 16,
        }
    }
}

/// When a request was sent, when its reply arrived, and the reply line
/// (or the transport error).
type Reply = (Instant, Instant, Result<String, String>);

/// Per pool spec: latency from due time and round-trip time (ms) of its
/// correctly answered request, if it was.
type SpecTimes = Vec<Option<(f64, f64)>>;

pub fn run(args: RunArgs, config: &UniqueConfig) -> (Report, Spans) {
    let mut report = Report::default();
    let origin = Instant::now();
    let mut spans = Spans::new(origin, args.trace);
    // Requests per segment: the run's whole offered load at `rate` over
    // `seconds`, split evenly; each segment sends the same pool.
    let per_segment = (config.rate * args.seconds as f64 / config.segments as f64)
        .round()
        .max(1.0) as usize;
    let mut outs = Vec::new();
    let mut best: SpecTimes = vec![None; per_segment];
    for seg in 0..config.segments {
        let traced = args.trace && seg >= config.segments / 2;
        match segment(args, config, seg, per_segment, origin, traced) {
            Ok((out, times)) => {
                if !traced {
                    for (b, t) in best.iter_mut().zip(times) {
                        *b = match (*b, t) {
                            (Some(b), Some(t)) => Some((b.0.min(t.0), b.1.min(t.1))),
                            (b, t) => b.or(t),
                        };
                    }
                }
                outs.push(out);
            }
            Err(e) => {
                report.error(format!("segment {seg}: {e}"));
                return (report, spans);
            }
        }
    }
    fold_segments(&mut report, &mut spans, outs, None);
    let (mut latencies, rtts): (Vec<f64>, Vec<f64>) = best.into_iter().flatten().unzip();
    report.set_latency(&mut latencies);
    // Each connection has one request in flight at a time.
    report.set(
        "ops_per_s",
        "1/s",
        CONNS as f64 / (mean(&rtts) / 1e3),
        rtts.len() as u64,
    );

    if args.trace {
        let (rtt_us, n) = spans.mean_us("client.rtt");
        report.set("client.rtt_ms", "ms", rtt_us / 1e3, n);
        report.set("client.place_rtt_ms", "ms", rtt_us / 1e3, n);
        let backlog: Vec<f64> = spans
            .records()
            .iter()
            .filter(|r| r.name == "loadgen.backlog")
            .map(|r| r.dur_us() / 1e3)
            .collect();
        report.set(
            "loadgen.backlog_ms",
            "ms",
            mean(&backlog),
            backlog.len() as u64,
        );
        report.set(
            "loadgen.late_max_ms",
            "ms",
            backlog.iter().copied().fold(0.0, f64::max),
            backlog.len() as u64,
        );
    }
    (report, spans)
}

/// Set up a fresh daemon (timed), run one segment's schedule against it,
/// stop it, and check every reply.
fn segment(
    args: RunArgs,
    config: &UniqueConfig,
    seg: u64,
    per_segment: usize,
    origin: Instant,
    traced: bool,
) -> Result<(SegmentOut, SpecTimes), String> {
    let setup_started = Instant::now();
    let pool = unique_pool(per_segment);
    let per_conn_rate = config.rate / CONNS as f64;
    let schedules: Vec<Vec<Timed>> = unique_schedule(args.seed, seg, CONNS, per_conn_rate, &pool);
    let server = start(ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("start daemon: {e}"))?;
    let addr = server.addr().to_string();
    let mut conns = (0..CONNS)
        .map(|_| Conn::connect(&addr).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let n = conns.len();
    for (k, spec) in unique_warmup(config.warmup).iter().enumerate() {
        let line = place_line(k as u64 + 1, spec);
        let reply = conns[k % n].call_line(&line).map_err(|e| e.to_string())?;
        match serde_json::from_str::<Response>(&reply) {
            Ok(Response::Placed { .. }) => {}
            _ => return Err(format!("warm-up place failed: {reply}")),
        }
    }
    let mut out = SegmentOut {
        traced,
        setup_s: setup_started.elapsed().as_secs_f64(),
        spans: Spans::new(origin, traced),
        ..SegmentOut::default()
    };
    let before = snapshot(&addr);

    let start_at = Instant::now() + Duration::from_millis(20);
    let results: Vec<(Vec<Reply>, Spans)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(&schedules)
            .map(|(mut conn, schedule)| {
                scope.spawn(move || {
                    let mut spans = Spans::new(origin, traced);
                    let mut replies = Vec::with_capacity(schedule.len());
                    for t in schedule {
                        let due = start_at + Duration::from_micros(t.due_us);
                        sleep_until(due);
                        let send = Instant::now();
                        let reply = conn.call_line(&t.line).map_err(|e| e.to_string());
                        let recv = Instant::now();
                        let root = spans.record(t.id, "loadgen.request", None, due, recv);
                        spans.record(t.id, "loadgen.backlog", root, due, send);
                        spans.record(t.id, "client.rtt", root, send, recv);
                        replies.push((send, recv, reply));
                    }
                    (replies, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let after = snapshot(&addr);
    server.shutdown();

    let mut times: SpecTimes = vec![None; pool.len()];
    let mut nodes = 0;
    for ((replies, spans), schedule) in results.into_iter().zip(&schedules) {
        out.spans.merge(spans);
        for ((send, recv, reply), t) in replies.iter().zip(schedule) {
            out.attempted += 1;
            let due = start_at + Duration::from_micros(t.due_us);
            let latency_ms = (*recv - due).as_secs_f64() * 1e3;
            let checked = reply.as_ref().map_err(Clone::clone).and_then(|reply| {
                if traced {
                    time_protocol(&t.line, reply, &mut out.parse_us, &mut out.render_us);
                }
                check_reply(t, &pool[t.spec], reply)
            });
            let done = (*recv - start_at).as_secs_f64();
            out.timing.ops.push((done, latency_ms, checked.is_ok()));
            match checked {
                Ok((util, n)) => {
                    times[t.spec] = Some((latency_ms, (*recv - *send).as_secs_f64() * 1e3));
                    out.utils.push(util);
                    nodes += n;
                    if latency_ms <= SLO_MS {
                        out.good += 1;
                    }
                }
                Err(e) => out.failures.push(format!("request {}: {e}", t.id)),
            }
        }
    }
    out.counters.insert("solver.nodes", nodes);
    match (before, after) {
        (Ok(before), Ok(after)) => {
            if after.stats.cache_hits != before.stats.cache_hits {
                out.errors.push(format!(
                    "{} timed places hit the cache; every spec must be distinct",
                    after.stats.cache_hits - before.stats.cache_hits
                ));
            }
            out.snapshots.push((before, after));
        }
        (Err(e), _) | (_, Err(e)) => out.errors.push(format!("stats: {e}")),
    }
    Ok((out, times))
}

/// Check one reply against the spec that was sent; returns the
/// floorplan's utilization and the solver's node count.
fn check_reply(t: &Timed, spec: &FlowSpec, reply: &str) -> Result<(f64, u64), String> {
    let response: Response = serde_json::from_str(reply).map_err(|e| format!("bad reply: {e}"))?;
    let Response::Placed {
        id,
        method,
        cache_hit,
        report,
        ..
    } = response
    else {
        return Err(format!("expected placed, got {reply}"));
    };
    if id != t.id {
        return Err(format!("reply id {id}"));
    }
    if cache_hit {
        return Err("cache hit on a distinct spec".into());
    }
    if method != PlaceMethod::Optimal || !report.proven {
        return Err(format!("method {method:?}, proven {}", report.proven));
    }
    let plan = report.floorplan.as_ref().ok_or("no floorplan")?;
    let (region, modules) = spec_problem(spec)?;
    let util = crate::check_plan(&region, &modules, plan, report.extent)?;
    Ok((util, report.stats.nodes))
}
