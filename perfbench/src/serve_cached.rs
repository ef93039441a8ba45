//! `serve_cached`: a closed loop through an in-process `rrf-router` in
//! front of two in-process `rrf-serve` backends (1 worker each). Every
//! timed place hits the cache, and each connection alternates those
//! places with insert/remove/defrag on its own online session, so the
//! solver does no work: protocol parse/render, the router hop, the cache
//! probe and `OnlinePlacer` dominate. A solver speed-up should not move
//! this workload. The run is split into segments, each against fresh
//! backends, router and sessions. Every thread of the workload runs on
//! one CPU (see [`run`]).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rrf_bench::workload::small_region_spec;
use rrf_core::{Floorplan, OnlinePlacer};
use rrf_flow::{FlowSpec, ModuleEntry};
use rrf_router::{BackendSpec, RouterConfig, RouterHandle};
use rrf_server::{start, Request, Response, ServerConfig, ServerHandle};

use crate::inputs::{hot_specs, op_line, place_line, session_modules, Op, OpPlan};
use crate::report::Report;
use crate::serve::{fold_segments, snapshot, spec_problem, time_protocol, SegmentOut, Snapshot};
use crate::spans::Spans;
use crate::wire::Conn;
use crate::{check_plan, pin, RunArgs};

/// Closed-loop connections, each with its own session. One: with two,
/// unpinned, throughput varied 2.5× between the 250 ms windows of one
/// run, against 1.4× with one.
const CONNS: u64 = 1;
/// Distinct place specs in the hot set.
const HOT_SPECS: usize = 32;
/// Distinct modules the sessions insert.
const SESSION_MODULES: usize = 32;
/// An op answered later than this misses the SLO.
const SLO_MS: f64 = 50.0;

#[derive(Debug, Clone)]
pub struct CachedConfig {
    /// Untimed ops per connection after warming the backends.
    pub warmup_ops: usize,
    /// Segments per run; the traced run traces the second half of them.
    pub segments: u64,
}

impl Default for CachedConfig {
    fn default() -> CachedConfig {
        CachedConfig {
            warmup_ops: 50,
            segments: 10,
        }
    }
}

/// Throughput, p50 and tail come from windows this long. Each holds
/// 2k–4k ops, so the tail is p99, inside the slowest op kind, defrag
/// (about 5% of ops); with 250 ms windows it was p95, at the edge
/// between defrags and the rest.
const WINDOW_S: f64 = 1.0;

/// One connection's client: its session, op stream and ids.
struct Client {
    conn: Conn,
    session: u64,
    plan: OpPlan,
    next_id: u64,
    /// Every op sent (warm-up included) with its reply, for the checks.
    log: Vec<Exchange>,
}

struct Exchange {
    op: Op,
    id: u64,
    line: String,
    reply: Result<String, String>,
    /// Round-trip time; `None` for warm-up ops.
    rtt: Option<Duration>,
    /// When the reply arrived; `None` for warm-up ops.
    done: Option<Instant>,
}

impl Client {
    fn step(&mut self, hot: &[FlowSpec], modules: &[ModuleEntry]) -> (Duration, Instant) {
        let op = self.plan.next().expect("the op stream is endless");
        self.next_id += 1;
        let line = op_line(&op, self.next_id, self.session, hot, modules);
        let sent = Instant::now();
        let reply = self.conn.call_line(&line).map_err(|e| e.to_string());
        let rtt = sent.elapsed();
        self.log.push(Exchange {
            op,
            id: self.next_id,
            line,
            reply,
            rtt: None,
            done: None,
        });
        (rtt, sent)
    }
}

struct Setup {
    backends: Vec<ServerHandle>,
    router: RouterHandle,
    clients: Vec<Client>,
    hot: Vec<FlowSpec>,
    modules: Vec<ModuleEntry>,
}

fn set_up(args: RunArgs, config: &CachedConfig, seg: u64) -> Result<Setup, String> {
    let hot = hot_specs(HOT_SPECS);
    let modules = session_modules(SESSION_MODULES);
    let backends = ["a", "b"]
        .iter()
        .map(|id| {
            start(ServerConfig {
                workers: 1,
                backend_id: id.to_string(),
                ..ServerConfig::default()
            })
            .map_err(|e| format!("start backend {id}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    // Warm each hot spec directly on each backend: warming through the
    // router alone can leave a spec cold on the backend that later
    // serves it.
    for backend in &backends {
        let mut conn = Conn::connect(&backend.addr().to_string()).map_err(|e| e.to_string())?;
        for (k, spec) in hot.iter().enumerate() {
            for want_hit in [false, true] {
                let reply = conn
                    .call_line(&place_line(k as u64 + 1, spec))
                    .map_err(|e| e.to_string())?;
                match serde_json::from_str::<Response>(&reply) {
                    Ok(Response::Placed { cache_hit, .. }) if cache_hit || !want_hit => {}
                    _ => return Err(format!("warming hot spec {k}: {reply}")),
                }
            }
        }
    }
    let router = rrf_router::start(RouterConfig {
        backends: backends
            .iter()
            .map(|b| BackendSpec {
                addr: b.addr().to_string(),
                journal: None,
            })
            .collect(),
        ..RouterConfig::default()
    })
    .map_err(|e| format!("start router: {e}"))?;
    let router_addr = router.addr().to_string();
    let mut clients = Vec::new();
    for c in 0..CONNS {
        let mut conn = Conn::connect(&router_addr).map_err(|e| e.to_string())?;
        let session = match conn.call(&Request::OpenSession {
            id: 1,
            region: small_region_spec(),
        })? {
            Response::SessionOpened { session, .. } => session,
            other => return Err(format!("open_session: {other:?}")),
        };
        let mut client = Client {
            conn,
            session,
            plan: OpPlan::new(args.seed, seg * CONNS + c, HOT_SPECS, SESSION_MODULES),
            next_id: 1,
            log: Vec::new(),
        };
        for _ in 0..config.warmup_ops {
            client.step(&hot, &modules);
        }
        clients.push(client);
    }
    Ok(Setup {
        backends,
        router,
        clients,
        hot,
        modules,
    })
}

pub fn run(args: RunArgs, config: &CachedConfig) -> (Report, Spans) {
    // Each op is a chain of thread wake-ups — client, router, backend and
    // back — with one thread running at a time. Pinned to one CPU, every
    // wake-up is local; across the reference machine's two vCPUs each one
    // cost whatever the host made it cost. In six interleaved pairs of
    // runs the pinned ones were a third faster and spread 0.20 in ops/s,
    // 0.09 in p50 and 0.16 in tail, the unpinned ones 0.32, 0.23 and 0.49.
    let pinned = pin::pin_to_current_cpu();
    let mut report = Report::default();
    report.notes.push(match pinned.cpu() {
        Some(cpu) => format!("every thread pinned to cpu {cpu}"),
        None => "threads not pinned (affinity unavailable)".to_string(),
    });
    let origin = Instant::now();
    let mut spans = Spans::new(origin, args.trace);
    let seg_len = Duration::from_secs_f64(args.seconds as f64 / config.segments as f64);
    let mut outs = Vec::new();
    for seg in 0..config.segments {
        let traced = args.trace && seg >= config.segments / 2;
        match segment(args, config, seg, seg_len, origin, traced) {
            Ok(out) => outs.push(out),
            Err(e) => {
                report.error(format!("segment {seg}: {e}"));
                return (report, spans);
            }
        }
    }
    fold_segments(&mut report, &mut spans, outs, Some(WINDOW_S));

    if args.trace {
        let (place_us, n_place) = spans.mean_us("client.place");
        let (session_us, n_session) = spans.mean_us("client.session");
        report.set("client.place_rtt_ms", "ms", place_us / 1e3, n_place);
        report.set("client.session_rtt_ms", "ms", session_us / 1e3, n_session);
        let all = (place_us * n_place as f64 + session_us * n_session as f64)
            / (n_place + n_session).max(1) as f64;
        report.set("client.rtt_ms", "ms", all / 1e3, n_place + n_session);
        for (name, span) in [
            ("core.online_insert_us", "core.online_insert"),
            ("core.online_remove_us", "core.online_remove"),
            ("core.online_defrag_us", "core.online_defrag"),
        ] {
            let (us, n) = spans.mean_us(span);
            report.set(name, "us", us, n);
        }
        let total = report.metrics["server.total_us"].value;
        report.set("router.hop_us", "us", place_us - total, n_place);
    }
    (report, spans)
}

/// Set up fresh backends, router and sessions (timed), run the closed
/// loop for `len`, stop everything, and check every reply.
fn segment(
    args: RunArgs,
    config: &CachedConfig,
    seg: u64,
    len: Duration,
    origin: Instant,
    traced: bool,
) -> Result<SegmentOut, String> {
    let setup_started = Instant::now();
    let Setup {
        backends,
        router,
        clients,
        hot,
        modules,
    } = set_up(args, config, seg)?;
    let mut out = SegmentOut {
        traced,
        setup_s: setup_started.elapsed().as_secs_f64(),
        spans: Spans::new(origin, traced),
        ..SegmentOut::default()
    };
    let router_addr = router.addr().to_string();
    let backend_addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
    let snap = |addrs: &[String]| -> Result<Vec<Snapshot>, String> {
        addrs.iter().map(|a| snapshot(a)).collect()
    };
    let before = snap(&backend_addrs)?;
    let router_before = router_stats(&router_addr)?;

    let started = Instant::now();
    let end = started + len;
    let (hot_ref, modules_ref) = (&hot, &modules);
    let results: Vec<(Client, Spans)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                scope.spawn(move || {
                    let mut spans = Spans::new(origin, traced);
                    while Instant::now() < end {
                        let (rtt, sent) = client.step(hot_ref, modules_ref);
                        let ex = client.log.last_mut().expect("just pushed");
                        ex.rtt = Some(rtt);
                        ex.done = Some(sent + rtt);
                        let name = match ex.op {
                            Op::Place(_) => "client.place",
                            _ => "client.session",
                        };
                        spans.record(ex.id, name, None, sent, sent + rtt);
                    }
                    (client, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    out.timing.busy_s = started.elapsed().as_secs_f64();
    let after = snap(&backend_addrs)?;
    let router_after = router_stats(&router_addr)?;
    router.shutdown();
    for b in backends {
        b.shutdown();
    }
    let misses: u64 = before
        .iter()
        .zip(&after)
        .map(|(b, a)| a.stats.cache_misses - b.stats.cache_misses)
        .sum();
    if misses > 0 {
        out.errors
            .push(format!("{misses} timed places missed the cache"));
    }
    for (name, key) in [
        ("router.routed_requests", "routed_requests"),
        ("router.no_backend", "no_backend"),
        ("router.ejections", "ejections"),
    ] {
        let get = |m: &BTreeMap<String, u64>| m.get(key).copied().unwrap_or(0);
        out.counters
            .insert(name, get(&router_after) - get(&router_before));
    }
    out.snapshots = before.into_iter().zip(after).collect();

    let mut verified: BTreeMap<usize, Vec<(Floorplan, f64)>> = BTreeMap::new();
    let region = small_region_spec()
        .build()
        .expect("the small region builds");
    for (client, thread_spans) in results {
        out.spans.merge(thread_spans);
        let mut placer = OnlinePlacer::new(region.clone());
        for ex in &client.log {
            let checked = ex.reply.clone().and_then(|reply| {
                if traced && ex.rtt.is_some() {
                    time_protocol(&ex.line, &reply, &mut out.parse_us, &mut out.render_us);
                }
                check_exchange(
                    ex,
                    &reply,
                    &hot,
                    &modules,
                    &mut placer,
                    &mut out.spans,
                    &mut verified,
                )
            });
            let Some(rtt) = ex.rtt else {
                if let Err(e) = checked {
                    out.errors.push(format!("warm-up request {}: {e}", ex.id));
                }
                continue;
            };
            out.attempted += 1;
            let ms = rtt.as_secs_f64() * 1e3;
            let done = ex.done.map_or(0.0, |t| (t - started).as_secs_f64());
            out.timing.ops.push((done, ms, checked.is_ok()));
            match checked {
                Ok(util) => {
                    out.utils.extend(util);
                    if ms <= SLO_MS {
                        out.good += 1;
                    }
                }
                Err(e) => out.failures.push(format!("request {}: {e}", ex.id)),
            }
        }
    }
    Ok(out)
}

/// Check one reply. Places must hit the cache with a verified floorplan
/// (returns its utilization); session ops must match an in-process replay
/// of the same op stream on `OnlinePlacer`.
fn check_exchange(
    ex: &Exchange,
    reply: &str,
    hot: &[FlowSpec],
    modules: &[ModuleEntry],
    placer: &mut OnlinePlacer,
    spans: &mut Spans,
    verified: &mut BTreeMap<usize, Vec<(Floorplan, f64)>>,
) -> Result<Option<f64>, String> {
    let response: Response = serde_json::from_str(reply).map_err(|e| format!("bad reply: {e}"))?;
    if response.id() != ex.id {
        return Err(format!("reply id {}", response.id()));
    }
    let traced = spans.enabled() && ex.rtt.is_some();
    let mut timed = |name: &'static str, f: &mut dyn FnMut()| {
        if traced {
            spans.time(ex.id, name, None, f);
        } else {
            f();
        }
    };
    match (&ex.op, response) {
        (
            Op::Place(k),
            Response::Placed {
                cache_hit, report, ..
            },
        ) => {
            if ex.rtt.is_some() && !cache_hit {
                return Err("timed place missed the cache".into());
            }
            if !report.proven {
                return Err("hot spec not proven".into());
            }
            let plan = report.floorplan.ok_or("no floorplan")?;
            let known = verified.entry(*k).or_default();
            if let Some((_, util)) = known.iter().find(|(p, _)| *p == plan) {
                return Ok(Some(*util));
            }
            let (region, mods) = spec_problem(&hot[*k])?;
            let util = check_plan(&region, &mods, &plan, report.extent)?;
            known.push((plan, util));
            Ok(Some(util))
        }
        (
            Op::Insert { module, slot },
            Response::Inserted {
                slot: got,
                placement,
                utilization,
                ..
            },
        ) => {
            let entry = &modules[*module];
            let m = rrf_core::Module::new(entry.name.clone(), entry.shapes.clone());
            let mut want = None;
            timed("core.online_insert", &mut || want = placer.try_insert(&m));
            if want != Some(*slot) || got != want {
                return Err(format!("insert slot {got:?}, replay {want:?}, plan {slot}"));
            }
            let p = placer.placement_of(*slot).expect("just inserted");
            let placed = placement.ok_or("insert without placement")?;
            if (placed.shape, placed.x, placed.y) != (p.shape, p.x, p.y) {
                return Err(format!("insert placed {placed:?}, replay {p:?}"));
            }
            same_util(utilization, placer)
        }
        (
            Op::Remove { slot },
            Response::Removed {
                removed,
                utilization,
                ..
            },
        ) => {
            let mut want = false;
            timed("core.online_remove", &mut || want = placer.remove(*slot));
            if !removed || !want {
                return Err(format!("remove {slot}: daemon {removed}, replay {want}"));
            }
            same_util(utilization, placer)
        }
        (
            Op::Defrag,
            Response::Defragged {
                moved, utilization, ..
            },
        ) => {
            let mut want = 0;
            timed("core.online_defrag", &mut || want = placer.defrag() as u64);
            if moved != want {
                return Err(format!("defrag moved {moved}, replay {want}"));
            }
            same_util(utilization, placer)
        }
        (op, other) => Err(format!("{op:?} answered with {other:?}")),
    }
}

fn same_util(reported: f64, placer: &OnlinePlacer) -> Result<Option<f64>, String> {
    if (reported - placer.utilization()).abs() > 1e-12 {
        return Err(format!(
            "utilization {reported}, replay {}",
            placer.utilization()
        ));
    }
    Ok(None)
}

/// The router's own counters from its `router_stats` wire request.
fn router_stats(addr: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let reply = conn
        .call_line("{\"type\":\"router_stats\",\"id\":1}")
        .map_err(|e| e.to_string())?;
    let value: serde_json::Value =
        serde_json::from_str(&reply).map_err(|e| format!("router_stats reply: {e}"))?;
    let stats = value
        .get("stats")
        .and_then(serde_json::Value::as_object)
        .ok_or_else(|| format!("router_stats reply without stats: {reply}"))?;
    Ok(stats
        .iter()
        .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
        .collect())
}
