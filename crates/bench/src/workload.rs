//! Shared seeded-workload machinery for the load benchmarks.
//!
//! Every stream-driving binary (`ablation_online`, `fault_storm`,
//! `serve_load`, `sched_load`) used to carry its own copy of the same
//! three ingredients: a decorrelated stream RNG, the with/without-
//! alternatives module arms, and an arrival policy. They live here once,
//! so the binaries stay comparable — identical seeds draw identical
//! streams across experiments.
//!
//! The service ablations' open-loop clients, their SLO judge and the
//! wire connection `serve_load` drives live in [`crate::load`], which
//! builds its specs on this module's small region.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rrf_core::Module;
use rrf_flow::{DeviceSpec, ModuleEntry, RegionSpec};
use rrf_modgen::{generate_workload, WorkloadSpec};

use crate::experiment::workload_modules;

/// Decorrelates stream seeds from workload seeds: the module mix for seed
/// `s` and the event stream for seed `s` share no RNG state.
pub const SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// The event-stream RNG for one run.
pub fn stream_rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ SEED_MIX)
}

/// The two arms of an alternatives ablation: the seeded workload's full
/// shape sets, and the same modules frozen to their first shape.
pub fn workload_arms(modules: usize, seed: u64) -> (Vec<Module>, Vec<Module>) {
    let workload = generate_workload(&WorkloadSpec {
        modules,
        seed,
        ..WorkloadSpec::default()
    });
    let with = workload_modules(&workload);
    let without = with.iter().map(Module::without_alternatives).collect();
    (with, without)
}

/// The closed-loop arrival policy of the online-stream ablations: always
/// arrive while nothing is live, lean toward arrivals (70%) below half
/// load, then 50/50.
pub fn arrive_next(rng: &mut ChaCha8Rng, live_empty: bool, utilization: f64) -> bool {
    live_empty || rng.gen_bool(if utilization < 0.5 { 0.7 } else { 0.5 })
}

/// Open-loop Poisson arrivals: exponentially distributed integer gaps
/// with the given mean, independent of how the consumer keeps up —
/// offered load is a parameter, not an outcome.
#[derive(Debug, Clone, Copy)]
pub struct PoissonArrivals {
    /// Mean inter-arrival gap in ticks.
    pub mean_gap: f64,
}

impl PoissonArrivals {
    /// The next inter-arrival gap, at least 1 tick.
    pub fn next_gap(&self, rng: &mut ChaCha8Rng) -> u64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        (-u.ln() * self.mean_gap).ceil().max(1.0) as u64
    }
}

/// The region the small `rrf-modgen` workloads are generated for (BRAM
/// column period matching the generator's layout parameters).
pub fn small_region_spec() -> RegionSpec {
    RegionSpec {
        device: DeviceSpec::Columns {
            width: 60,
            height: 8,
            bram_period: 10,
            bram_offset: 4,
            dsp_period: 0,
            dsp_offset: 0,
            io_ring: 0,
            center_clock: false,
        },
        bounds: None,
        static_masks: vec![],
    }
}

/// The region the paper-scale (§V) workloads are generated for: the
/// 240×16 column device with the generator's BRAM layout.
pub fn paper_region_spec() -> RegionSpec {
    RegionSpec {
        device: DeviceSpec::Columns {
            width: 240,
            height: 16,
            bram_period: 10,
            bram_offset: 4,
            dsp_period: 0,
            dsp_offset: 0,
            io_ring: 0,
            center_clock: false,
        },
        bounds: None,
        static_masks: vec![],
    }
}

/// One small seeded module entry, cycled by index — the online-session
/// insert mix of the service benchmarks.
pub fn small_online_module(i: u64) -> ModuleEntry {
    let workload = generate_workload(&WorkloadSpec::small(1, 100 + i % 7));
    let m = workload.modules.into_iter().next().expect("one module");
    ModuleEntry {
        name: m.name,
        shapes: m.shapes,
        netlist: None,
    }
}

/// Nearest-rank percentile over an ascending-sorted sample, reported in
/// milliseconds (input in microseconds).
pub fn percentile_ms(sorted_us: &[u64], p: f64) -> f64 {
    percentile_us(sorted_us, p) as f64 / 1000.0
}

/// Nearest-rank percentile over an ascending-sorted sample, microseconds.
pub fn percentile_us(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_share_names_and_differ_in_shapes() {
        let (with, without) = workload_arms(6, 3);
        assert_eq!(with.len(), without.len());
        for (a, b) in with.iter().zip(&without) {
            assert_eq!(a.name, b.name);
            assert_eq!(b.shapes().len(), 1);
            assert!(a.shapes().len() >= b.shapes().len());
            assert_eq!(a.shapes()[0], b.shapes()[0]);
        }
        assert!(
            with.iter().any(|m| m.shapes().len() > 1),
            "the ablation needs at least one module with alternatives"
        );
    }

    #[test]
    fn poisson_gaps_are_deterministic_and_near_mean() {
        let arrivals = PoissonArrivals { mean_gap: 20.0 };
        let mut a = stream_rng(7);
        let mut b = stream_rng(7);
        let gaps: Vec<u64> = (0..2000).map(|_| arrivals.next_gap(&mut a)).collect();
        let again: Vec<u64> = (0..2000).map(|_| arrivals.next_gap(&mut b)).collect();
        assert_eq!(gaps, again, "same seed, same stream");
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        assert!(
            (mean - 20.0).abs() < 2.5,
            "mean gap {mean} far from configured 20 (ceil biases slightly high)"
        );
        assert!(gaps.iter().all(|&g| g >= 1));
    }

    #[test]
    fn percentiles_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&xs, 50.0), 50);
        assert_eq!(percentile_us(&xs, 99.0), 99);
        assert_eq!(percentile_us(&xs, 100.0), 100);
        assert_eq!(percentile_us(&[], 50.0), 0);
    }
}
