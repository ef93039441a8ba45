//! The repository benchmark: three workloads that measure the placer from
//! outside, through its public functions and the daemon's wire protocol.
//!
//! * [`solve`] — in-process CP solves of a fixed instance library (the
//!   paper's unit of cost);
//! * [`serve_unique`] — an open loop of distinct, cache-missing `place`
//!   requests against an in-process `rrf-serve`;
//! * [`serve_cached`] — a closed loop of cache-hitting places and online
//!   session operations through an in-process `rrf-router`.
//!
//! Every workload prints the same end-to-end metrics ([`report::E2E`])
//! from an untraced run, and the per-layer split
//! ([`report::per_layer_names`]) from a separately traced run. See
//! `perfbench/README.md` for the reasons behind each choice.

pub mod inputs;
pub mod pin;
pub mod report;
pub mod serve;
pub mod serve_cached;
pub mod serve_unique;
pub mod solve;
pub mod spans;
pub mod wire;

use std::time::Instant;

/// How long to run, the workload seed, and whether this is the traced
/// run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Sleep until `due` (no-op when it has passed). No spinning: the
/// generator shares two cores with the daemon it loads.
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Check a floorplan of `modules` on `region`: every module placed
/// exactly once, no violation of the paper's constraint families
/// (`rrf_core::verify`), and the claimed extent equal to the plan's.
/// Returns the plan's area utilization.
pub fn check_plan(
    region: &rrf_fabric::Region,
    modules: &[rrf_core::Module],
    plan: &rrf_core::Floorplan,
    claimed_extent: Option<i64>,
) -> Result<f64, String> {
    let mut seen = vec![false; modules.len()];
    for p in &plan.placements {
        match seen.get_mut(p.module) {
            Some(s) if !*s => *s = true,
            _ => return Err(format!("module {} placed twice or unknown", p.module)),
        }
    }
    if seen.iter().any(|s| !s) {
        return Err(format!(
            "{} of {} modules placed",
            plan.placements.len(),
            modules.len()
        ));
    }
    let violations = rrf_core::verify::verify(region, modules, plan);
    if let Some(v) = violations.first() {
        return Err(format!("{} violations, first: {v}", violations.len()));
    }
    let extent = i64::from(plan.x_extent(modules, region.bounds().x));
    if claimed_extent != Some(extent) {
        return Err(format!(
            "claimed extent {claimed_extent:?}, plan has {extent}"
        ));
    }
    Ok(rrf_core::metrics(region, modules, plan).utilization)
}
