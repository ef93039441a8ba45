//! Seeded inputs. Everything a workload sends or solves is made here from
//! `--seed`; the program under test only ever sees these inputs.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rrf_bench::experiment::{workload_modules, ExperimentSetup};
use rrf_bench::workload::{small_region_spec, PoissonArrivals};
use rrf_core::PlacementProblem;
use rrf_flow::{FlowSpec, ModuleEntry, PlacerSettings};
use rrf_modgen::{generate_workload, WorkloadSpec};
use rrf_server::Request;

/// Decorrelates the RNG streams of different uses of one seed.
const MIX_ORDER: u64 = 0x51_7cc1_b727_220a;
const MIX_ARRIVALS: u64 = 0x2545_f491_4f6c_dd1d;
const MIX_CACHED: u64 = 0x9e37_79b9_7f4a_7c15;

/// The fixed-work set: paper-scale (§V, 30 modules) instances solved
/// under a fixed failure budget, so each search tree is the same on
/// every run. `paper:1` is the instance the trace goldens pin.
pub const FIXED_SEEDS: &[u64] = &[1, 2, 4];
/// A quarter of the trace goldens' budget (4000): the search tree is the
/// first part of theirs, and a pass is short enough to be repeated a
/// dozen times in a 30 s run (see README, "Noise").
pub const FIXED_FAIL_LIMIT: u64 = 1_000;

/// The proof set: five-module §V instances (modgen seeds 10000–10036),
/// solved to proven optimality with no limit. With the fixed-work set the
/// library holds 40 instances, so its slowest quarter is 10 instances.
pub const PROOF_MODULES: usize = 5;
pub const PROOF_SEED_BASE: u64 = 10_000;
/// Optimal extents of the proof set, in seed order. An optimal extent
/// cannot change without a bug, whatever the solver does.
pub const PROOF_EXTENTS: [i64; 37] = [
    25, 23, 32, 24, 35, 32, 33, 44, 33, 33, 34, 33, 26, 24, 23, 25, 24, 42, 24, 27, 28, 34, 30, 30,
    26, 27, 29, 34, 33, 33, 34, 34, 34, 24, 24, 24, 34,
];

/// Which instance set an instance belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Set {
    Fixed,
    Proof,
}

impl Set {
    pub fn suffix(self) -> &'static str {
        match self {
            Set::Fixed => "fixed",
            Set::Proof => "proof",
        }
    }
}

/// One instance of the `solve` workload.
#[derive(Debug, Clone)]
pub struct Instance {
    pub label: String,
    pub set: Set,
    pub problem: PlacementProblem,
    /// The proven optimal extent, for proof-set instances.
    pub reference_extent: Option<i64>,
}

/// A paper-distribution (§V) instance with `modules` modules on the
/// 240×16 column region.
pub fn paper_instance(modules: usize, seed: u64) -> PlacementProblem {
    let workload = generate_workload(&WorkloadSpec {
        modules,
        ..WorkloadSpec::paper(seed)
    });
    PlacementProblem::new(
        ExperimentSetup::default().region(),
        workload_modules(&workload),
    )
}

/// The `solve` library: `fixed` paper-scale seeds, then the first
/// `proof` instances of the proof set.
pub fn solve_library(fixed: &[u64], proof: usize) -> Vec<Instance> {
    let mut out: Vec<Instance> = fixed
        .iter()
        .map(|&seed| Instance {
            label: format!("paper:{seed}"),
            set: Set::Fixed,
            problem: paper_instance(30, seed),
            reference_extent: None,
        })
        .collect();
    out.extend(
        PROOF_EXTENTS
            .iter()
            .take(proof)
            .enumerate()
            .map(|(i, &extent)| {
                let seed = PROOF_SEED_BASE + i as u64;
                Instance {
                    label: format!("five:{seed}"),
                    set: Set::Proof,
                    problem: paper_instance(PROOF_MODULES, seed),
                    reference_extent: Some(extent),
                }
            }),
    );
    out
}

/// The order in which one pass solves the library — the only input the
/// seed changes in `solve` (see README: seed-drawn instance sets make
/// solve time vary by seed far beyond any usable bound).
pub fn solve_order(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut ChaCha8Rng::seed_from_u64(seed ^ MIX_ORDER));
    order
}

/// A `small:4` spec on the 60×8 region, solved exactly (no time limit).
pub fn small_spec(modgen_seed: u64) -> FlowSpec {
    let workload = generate_workload(&WorkloadSpec::small(4, modgen_seed));
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
            time_limit_ms: None,
            ..PlacerSettings::default()
        },
    }
}

/// The deadline every benchmark `place` carries: generous, so the
/// degradation ladder never cuts an exact solve short.
pub const PLACE_DEADLINE_MS: u64 = 10_000;

/// Render one `place` request line.
pub fn place_line(id: u64, spec: &FlowSpec) -> String {
    serde_json::to_string(&Request::Place {
        id,
        spec: spec.clone(),
        deadline_ms: Some(PLACE_DEADLINE_MS),
    })
    .expect("a place request serializes")
}

/// Modgen seeds of the fixed spec pools of the serving workloads. The
/// pools are fixed for the reason the `solve` library is: `small:4`
/// solve times are heavy-tailed, so a seed-drawn pool moved the p95 by
/// 2× from seed to seed. The seed draws order, arrivals and op streams.
const UNIQUE_POOL_BASE: u64 = 1_000_000;
const UNIQUE_WARMUP_BASE: u64 = 2_000_000;
const HOT_BASE: u64 = 3_000_000;
const SESSION_MODULE_BASE: u64 = 4_000_000;

/// One open-loop request of `serve_unique`.
#[derive(Debug, Clone)]
pub struct Timed {
    /// Due time, offset from the start of the segment.
    pub due_us: u64,
    pub id: u64,
    /// Index into the spec pool.
    pub spec: usize,
    pub line: String,
}

/// The `serve_unique` pool: `n` distinct `small:4` specs. Every segment
/// sends each of them once, to a fresh daemon, so every request misses
/// the cache.
pub fn unique_pool(n: usize) -> Vec<FlowSpec> {
    (0..n as u64)
        .map(|i| small_spec(UNIQUE_POOL_BASE + i))
        .collect()
}

/// Segment `segment`'s open-loop schedule for `serve_unique`, one list
/// per connection: the pool in a seed-drawn order, dealt round-robin to
/// `conns` connections, each with Poisson arrivals at `rate` requests/s
/// (gaps in whole microseconds).
pub fn unique_schedule(
    seed: u64,
    segment: u64,
    conns: u64,
    rate: f64,
    pool: &[FlowSpec],
) -> Vec<Vec<Timed>> {
    let mut rng =
        ChaCha8Rng::seed_from_u64(seed ^ MIX_ARRIVALS ^ segment.wrapping_mul(0x100_0000_01b3));
    let mut order: Vec<usize> = (0..pool.len()).collect();
    order.shuffle(&mut rng);
    let arrivals = PoissonArrivals {
        mean_gap: 1e6 / rate,
    };
    let mut clocks = vec![0u64; conns as usize];
    let mut out: Vec<Vec<Timed>> = (0..conns).map(|_| Vec::new()).collect();
    for (k, &spec) in order.iter().enumerate() {
        let conn = k % conns as usize;
        clocks[conn] += arrivals.next_gap(&mut rng);
        let id = segment * 1_000_000 + k as u64 + 1;
        out[conn].push(Timed {
            due_us: clocks[conn],
            id,
            spec,
            line: place_line(id, &pool[spec]),
        });
    }
    out
}

/// Warm-up specs for `serve_unique`, disjoint from the pool.
pub fn unique_warmup(n: u64) -> Vec<FlowSpec> {
    (0..n).map(|i| small_spec(UNIQUE_WARMUP_BASE + i)).collect()
}

/// The hot set of `serve_cached`: `n` distinct `small:4` specs.
pub fn hot_specs(n: usize) -> Vec<FlowSpec> {
    (0..n as u64).map(|i| small_spec(HOT_BASE + i)).collect()
}

/// Modules a `serve_cached` session inserts (one-module `small` draws).
pub fn session_modules(n: usize) -> Vec<ModuleEntry> {
    (0..n as u64)
        .map(|i| {
            let w = generate_workload(&WorkloadSpec::small(1, SESSION_MODULE_BASE + i));
            let m = w.modules.into_iter().next().expect("one module");
            ModuleEntry {
                name: m.name,
                shapes: m.shapes,
                netlist: None,
            }
        })
        .collect()
}

/// One operation of the `serve_cached` mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Place hot spec `k` (a cache hit once warm).
    Place(usize),
    /// Insert session module `k`; the daemon must answer with `slot`.
    Insert {
        module: usize,
        slot: u64,
    },
    /// Remove the oldest live slot.
    Remove {
        slot: u64,
    },
    Defrag,
}

/// Live modules a session keeps between these bounds, so the 60×8
/// region never fills and no insert is rejected.
const MIN_LIVE: usize = 2;
const MAX_LIVE: usize = 6;

/// The deterministic op stream of one `serve_cached` connection: places
/// of hot specs alternate with session operations. Slot ids are
/// predicted (the daemon numbers successful inserts 0, 1, 2, …), so the
/// stream does not depend on replies; the run checks every reply against
/// the prediction.
#[derive(Debug, Clone)]
pub struct OpPlan {
    rng: ChaCha8Rng,
    hot: usize,
    modules: usize,
    step: u64,
    next_slot: u64,
    live: std::collections::VecDeque<u64>,
}

impl OpPlan {
    pub fn new(seed: u64, conn: u64, hot: usize, modules: usize) -> OpPlan {
        OpPlan {
            rng: ChaCha8Rng::seed_from_u64(seed ^ MIX_CACHED ^ (conn + 1).wrapping_mul(0x9e37)),
            hot,
            modules,
            step: 0,
            next_slot: 0,
            live: Default::default(),
        }
    }
}

impl Iterator for OpPlan {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        self.step += 1;
        if self.step % 2 == 1 {
            return Some(Op::Place(self.rng.gen_range(0..self.hot)));
        }
        let roll: f64 = self.rng.gen_range(0.0..1.0);
        let insert = self.live.len() < MIN_LIVE || (self.live.len() < MAX_LIVE && roll < 0.45);
        if insert {
            let slot = self.next_slot;
            self.next_slot += 1;
            self.live.push_back(slot);
            Some(Op::Insert {
                module: self.rng.gen_range(0..self.modules),
                slot,
            })
        } else if roll < 0.9 || self.live.len() >= MAX_LIVE {
            let slot = self.live.pop_front().expect("live is non-empty here");
            Some(Op::Remove { slot })
        } else {
            Some(Op::Defrag)
        }
    }
}

/// Render an op of session `session` as a request line.
pub fn op_line(
    op: &Op,
    id: u64,
    session: u64,
    hot: &[FlowSpec],
    modules: &[ModuleEntry],
) -> String {
    let request = match op {
        Op::Place(k) => {
            return place_line(id, &hot[*k]);
        }
        Op::Insert { module, .. } => Request::Insert {
            id,
            session,
            module: modules[*module].clone(),
        },
        Op::Remove { slot } => Request::Remove {
            id,
            session,
            slot: *slot,
        },
        Op::Defrag => Request::Defrag { id, session },
    };
    serde_json::to_string(&request).expect("a session request serializes")
}
