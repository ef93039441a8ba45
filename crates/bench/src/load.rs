//! The open-loop load harness of the service ablations — `overload_load`
//! (A12, admission), `cache_load` (A13, coalescing) and `cluster_load`
//! (A14, routing) — plus the wire connection `serve_load` drives.
//!
//! An ablation brings up its own topology (one daemon, or a router over
//! N backends), describes each client's send schedule as a
//! [`ClientPlan`], and hands the plans to [`run_open_loop`]. Every client
//! fires on its fixed schedule and never waits for replies, exactly like
//! independent tenants hammering a shared reconfiguration service: the
//! offered load is a parameter, not an outcome.
//!
//! **Goodput** is a response that is feasible *and arrived within the
//! client's SLO of the send time* — late answers count for nothing, like
//! a blown reconfiguration slot in the paper's runtime setting. The SLO
//! is the tenant's own bar, deliberately not attached to the request.
//! [`Outcome::metrics`] writes the judged counts into the shared
//! `BenchRecord` schema, in the metric order of every `BENCH_*.json`
//! these ablations leave behind.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::str::FromStr;
use std::time::{Duration, Instant};

use rrf_flow::{FlowSpec, ModuleEntry, PlacerSettings};
use rrf_modgen::{generate_workload, WorkloadSpec};
use rrf_server::{Request, Response};

use crate::record::BenchRecord;
use crate::workload::{percentile_ms, small_region_spec};

/// Modules per open-loop spec: big enough that CP genuinely uses its
/// budget, small enough that the greedy fallback stays feasible.
const SPEC_MODULES: usize = 8;

/// Per-request CP budget every open-loop spec pins as its own
/// `time_limit_ms`: the fixed service cost that makes an ablation's
/// capacity — workers / `SERVICE_MS` — predictable across seeds.
pub const SERVICE_MS: u64 = 150;

/// A place spec of `modules` seeded small-workload modules on the small
/// region. Distinct seeds give distinct specs, so a fresh seed per
/// request makes every place a cache miss.
pub fn place_spec(modules: usize, seed: u64, placer: PlacerSettings) -> FlowSpec {
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
        placer,
    }
}

/// A blocking NDJSON connection: one request line out, one response
/// line back.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: &str, read_timeout: Duration) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(read_timeout))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    pub fn roundtrip(&mut self, request: &Request) -> std::io::Result<Response> {
        self.writer.write_all(request_line(request).as_bytes())?;
        let mut reply = String::new();
        self.reader.read_line(&mut reply)?;
        serde_json::from_str(reply.trim())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

fn request_line(request: &Request) -> String {
    let mut line = serde_json::to_string(request).expect("serialize request");
    line.push('\n');
    line
}

/// One open-loop client's send schedule and key material: request `j`
/// goes out `phase_ms + j * gap_ms` after the client starts.
pub struct ClientPlan {
    pub client_idx: u64,
    pub phase_ms: u64,
    pub gap_ms: u64,
    pub requests: u64,
    /// The request's own `deadline_ms`; `None` leaves the server default.
    pub deadline_ms: Option<u64>,
    /// Spec seed of request `j`. Clients that share seeds send duplicates.
    pub spec_seed: Box<dyn Fn(u64) -> u64 + Send>,
}

/// Judged responses of one client or, summed, of one arm.
#[derive(Debug, Default)]
pub struct Outcome {
    pub offered: u64,
    pub goodput: u64,
    pub shed: u64,
    pub late: u64,
    pub infeasible: u64,
    pub errors: u64,
    /// Send-to-arrival latency of every answered request, ascending
    /// once [`run_open_loop`] returns.
    pub latencies_us: Vec<u64>,
    /// An ablation's own counters (daemon or router side), set after
    /// the run and recorded between `errors` and `goodput_ratio`.
    pub counters: Vec<(&'static str, u64)>,
}

impl Outcome {
    fn add(&mut self, other: Outcome) {
        self.offered += other.offered;
        self.goodput += other.goodput;
        self.shed += other.shed;
        self.late += other.late;
        self.infeasible += other.infeasible;
        self.errors += other.errors;
        self.latencies_us.extend(other.latencies_us);
    }

    /// The one-line progress summary the load binaries print per arm.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "offered {} goodput {} shed {} late {} errors {}",
            self.offered, self.goodput, self.shed, self.late, self.errors
        );
        for (key, value) in &self.counters {
            line.push_str(&format!(" {key} {value}"));
        }
        line
    }

    /// Append the shared metrics, with the ablation's counters in place,
    /// to a record that already holds its params.
    pub fn metrics(&self, record: BenchRecord) -> BenchRecord {
        let mut record = record
            .metric_u64("offered", self.offered)
            .metric_u64("goodput", self.goodput)
            .metric_u64("shed", self.shed)
            .metric_u64("late", self.late)
            .metric_u64("infeasible", self.infeasible)
            .metric_u64("errors", self.errors);
        for &(key, value) in &self.counters {
            record = record.metric_u64(key, value);
        }
        record
            .metric_f64(
                "goodput_ratio",
                self.goodput as f64 / self.offered.max(1) as f64,
            )
            .metric_f64("latency_p50_ms", percentile_ms(&self.latencies_us, 50.0))
            .metric_f64("latency_p95_ms", percentile_ms(&self.latencies_us, 95.0))
    }
}

/// Run every plan as its own client against `addr`, wait for all of
/// them, and return the summed outcome with latencies sorted.
pub fn run_open_loop(addr: &str, plans: Vec<ClientPlan>, slo_ms: u64) -> Outcome {
    let mut total = std::thread::scope(|scope| {
        let threads: Vec<_> = plans
            .into_iter()
            .map(|plan| scope.spawn(move || run_client(addr, plan, slo_ms)))
            .collect();
        let mut total = Outcome::default();
        for thread in threads {
            total.add(thread.join().expect("client thread panicked"));
        }
        total
    });
    total.latencies_us.sort_unstable();
    total
}

/// One open-loop client: this thread fires `place` lines on the plan's
/// schedule (never waiting for replies), a reader thread stamps
/// arrivals, and each response is judged against the client SLO.
fn run_client(addr: &str, plan: ClientPlan, slo_ms: u64) -> Outcome {
    let requests = plan.requests;
    let mut out = Outcome {
        offered: requests,
        ..Outcome::default()
    };
    let Ok(conn) = Conn::connect(addr, Duration::from_secs(120)) else {
        out.errors = requests;
        return out;
    };
    let Conn { reader, mut writer } = conn;
    let reader = std::thread::spawn(move || {
        let mut arrivals = Vec::new();
        for line in reader.lines().map_while(Result::ok).take(requests as usize) {
            let Ok(response) = serde_json::from_str::<Response>(line.trim()) else {
                break;
            };
            arrivals.push((Instant::now(), response));
        }
        arrivals
    });

    let mut sent_at = HashMap::new();
    let placer = PlacerSettings {
        time_limit_ms: Some(SERVICE_MS),
        ..PlacerSettings::default()
    };
    let epoch = Instant::now();
    for j in 0..requests {
        // Open loop: send at the scheduled instant even if earlier
        // responses have not arrived.
        let due = epoch + Duration::from_millis(plan.phase_ms + j * plan.gap_ms);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let id = plan.client_idx * 1_000_000 + j + 1;
        let request = Request::Place {
            id,
            spec: place_spec(SPEC_MODULES, (plan.spec_seed)(j), placer.clone()),
            deadline_ms: plan.deadline_ms,
        };
        let line = request_line(&request);
        sent_at.insert(id, Instant::now());
        if writer.write_all(line.as_bytes()).is_err() {
            out.errors += requests - j;
            break;
        }
    }
    drop(writer);
    let arrivals = reader.join().expect("reader thread panicked");

    let slo = Duration::from_millis(slo_ms);
    let answered = arrivals.len() as u64;
    for (at, response) in arrivals {
        let Some(&sent) = sent_at.get(&response.id()) else {
            out.errors += 1;
            continue;
        };
        let elapsed = at.duration_since(sent);
        out.latencies_us.push(elapsed.as_micros() as u64);
        match response {
            Response::Placed { report, .. } => {
                if !report.feasible {
                    out.infeasible += 1;
                } else if elapsed <= slo {
                    out.goodput += 1;
                } else {
                    out.late += 1;
                }
            }
            Response::Overloaded { .. } => out.shed += 1,
            _ => out.errors += 1,
        }
    }
    out.errors += out.offered.saturating_sub(answered + out.errors);
    out
}

/// The command line of an open-loop ablation: `u64` positionals plus a
/// `FLAG VALUE` pair for each flag in the binary's list. Any other token
/// prints `usage: {usage}` and exits 2.
pub struct Cli {
    positional: Vec<u64>,
    values: Vec<(String, String)>,
}

impl Cli {
    pub fn parse(flags: &[&str], usage: &str) -> Cli {
        let mut cli = Cli {
            positional: Vec::new(),
            values: Vec::new(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            if flags.contains(&arg.as_str()) {
                let value = args.next().unwrap_or_else(|| panic!("{arg} needs a value"));
                cli.values.push((arg, value));
            } else if let Ok(value) = arg.parse() {
                cli.positional.push(value);
            } else {
                eprintln!("usage: {usage}");
                std::process::exit(2);
            }
        }
        cli
    }

    /// Positional argument `i`, or `default` when absent.
    pub fn positional(&self, i: usize, default: u64) -> u64 {
        self.positional.get(i).copied().unwrap_or(default)
    }

    /// The last value given for `flag`, or `default` when absent.
    pub fn flag<T: FromStr>(&self, flag: &str, default: T) -> T {
        match self.values.iter().rev().find(|(name, _)| name == flag) {
            Some((_, value)) => value
                .parse()
                .unwrap_or_else(|_| panic!("{flag} needs a number")),
            None => default,
        }
    }
}
