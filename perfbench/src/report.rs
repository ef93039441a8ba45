//! Metric names, the percentile rule, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports all of them from its
/// untraced run, so each (workload, metric) pair can be compared between
/// commits. `(name, unit)`.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("goodput", "share"),
    ("util", "share"),
];

/// Propagator kinds the placer's model posts; each gets execution,
/// conflict and wasted-work metrics on the `solve` workload.
pub const PROP_KINDS: &[&str] = &[
    "geost_non_overlap",
    "table",
    "cumulative",
    "linear",
    "element_const",
    "maximum",
];

/// The two instance sets of the `solve` workload, as metric suffixes.
pub const SOLVE_SETS: &[&str] = &["fixed", "proof"];

/// Per-layer metrics of the `solve` workload, reported once per instance
/// set with a `.fixed` / `.proof` suffix.
const SOLVE_LAYER: &[(&str, &str)] = &[
    ("core.place_ms", "ms"),
    ("solver.nodes_per_s", "1/s"),
    ("core.prune_ms", "ms"),
    ("core.build_ms", "ms"),
    ("core.warm_start_ms", "ms"),
    ("core.search_ms", "ms"),
    ("geost.anchor_rows_ms", "ms"),
    ("core.bottom_left_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("solver.nodes", "count"),
    ("solver.failures", "count"),
    ("solver.propagations", "count"),
];

/// Per-layer metrics of the two serving workloads (some apply to one of
/// them only; the other reports 0).
const SERVE_LAYER: &[(&str, &str)] = &[
    ("server.queue_wait_us", "us"),
    ("server.cache_probe_us", "us"),
    ("server.coalesce_wait_us", "us"),
    ("server.preflight_us", "us"),
    ("server.cp_us", "us"),
    ("server.lns_us", "us"),
    ("server.bottom_left_us", "us"),
    ("server.verify_us", "us"),
    ("server.other_us", "us"),
    ("server.total_us", "us"),
    ("server.optimal_ratio", "share"),
    ("server.cache_hit_ratio", "share"),
    ("server.shed", "count"),
    ("server.cache_hits", "count"),
    ("solver.nodes", "count"),
    ("client.rtt_ms", "ms"),
    ("client.place_rtt_ms", "ms"),
    ("client.session_rtt_ms", "ms"),
    ("loadgen.backlog_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("router.hop_us", "us"),
    ("router.routed_requests", "count"),
    ("router.no_backend", "count"),
    ("router.ejections", "count"),
    ("core.online_insert_us", "us"),
    ("core.online_remove_us", "us"),
    ("core.online_defrag_us", "us"),
    ("protocol.parse_us", "us"),
    ("protocol.render_us", "us"),
    ("trace.overhead_frac", "share"),
];

/// Every per-layer metric, in report order. The traced run of every
/// workload reports all of them; a layer a workload does not exercise
/// reads 0 there.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for set in SOLVE_SETS {
        for (name, unit) in SOLVE_LAYER {
            names.push((format!("{name}.{set}"), *unit));
        }
        for kind in PROP_KINDS {
            names.push((format!("solver.prop.{kind}.execs.{set}"), "count"));
            names.push((format!("solver.prop.{kind}.conflicts.{set}"), "count"));
            names.push((format!("solver.prop.{kind}.conflict_ratio.{set}"), "share"));
        }
        names.push((format!("solver.prop.table.scanned.{set}"), "count"));
    }
    for (name, unit) in SERVE_LAYER {
        names.push((name.to_string(), *unit));
    }
    names
}

/// Percentiles the tail metric may report, highest first.
pub const TAIL_LADDER: &[f64] = &[99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank index (0-based) of percentile `p` in `n` sorted samples:
/// the rule of `rrf_bench::workload::percentile_us`, which takes integer
/// samples only.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1
}

/// The highest ladder percentile with at least 10 samples strictly
/// beyond it (p50 when even the median has fewer).
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n > 0 && n - 1 - rank(n, p) >= 10)
        .unwrap_or(50.0)
}

/// Nearest-rank percentile of an ascending-sorted sample (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p)]
}

/// Median of a sample (sorts it in place; 0 when empty).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0)
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The timing results of one measured segment.
#[derive(Debug, Default)]
pub struct Segment {
    /// Per operation: completion time (s since the segment started),
    /// latency (ms), and whether the reply passed its checks.
    pub ops: Vec<(f64, f64, bool)>,
    /// The segment's wall time in seconds, which a closed loop's
    /// throughput is measured against (its connections are never idle).
    pub busy_s: f64,
}

/// One reported value with its unit and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// A workload's result: metrics, operation counts, and failed checks.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, Metric>,
    /// Operations issued in the measured phase.
    pub attempted: u64,
    /// Operations whose reply or output failed a check.
    pub failed: u64,
    /// Every failed check, for the log (capped when printed).
    pub errors: Vec<String>,
    /// Extra human-readable lines (e.g. which percentile `tail_ms` is).
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, unit: &'static str, value: f64, samples: u64) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Record a failed check on one operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.errors.push(message);
    }

    /// Record a failed check that is not tied to one operation.
    pub fn error(&mut self, message: String) {
        self.errors.push(message);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// Report latency samples (ms) as `p50_ms` and `tail_ms`; the
    /// tail percentile may be as high as p99.
    pub fn set_latency(&mut self, latencies_ms: &mut [f64]) {
        latencies_ms.sort_by(f64::total_cmp);
        let n = latencies_ms.len();
        let tail = tail_percentile(n);
        self.set("p50_ms", "ms", percentile(latencies_ms, 50.0), n as u64);
        self.set("tail_ms", "ms", percentile(latencies_ms, tail), n as u64);
        let ladder: Vec<String> = TAIL_LADDER
            .iter()
            .map(|&p| format!("p{p} {:.4}", percentile(latencies_ms, p)))
            .collect();
        self.notes.push(format!(
            "tail_ms is p{tail} of {n} latency samples; {} ms",
            ladder.join(", ")
        ));
    }

    /// Report `p50_ms`, `tail_ms` and `ops_per_s` of a closed loop from
    /// the least disturbed windows: each segment (measured against its own
    /// fresh daemons) is cut into windows of `window_s` seconds of
    /// completion time, and the metrics are the 10th percentile of the
    /// windows' latencies and the 90th percentile of their throughputs.
    /// On the 2-core shared reference machine the host stalls our vCPUs
    /// for milliseconds to minutes at a time, and such interference only
    /// ever slows the program down, so the fastest windows are the
    /// steadiest estimate of its own cost (in one `serve_cached` run
    /// throughput fell to a third while the median window's p50 rose by a
    /// third). The tail percentile is chosen from the median window's
    /// sample count, so every window reports the same one.
    pub fn set_windows(&mut self, segments: &[Segment], window_s: f64) {
        let mut windows: Vec<(f64, Vec<f64>, u64)> = Vec::new();
        for seg in segments {
            let w = window_s.min(seg.busy_s);
            let count = ((seg.busy_s / w).round() as usize).max(1);
            let base = windows.len();
            for k in 0..count {
                let len = if k + 1 == count {
                    seg.busy_s - w * k as f64
                } else {
                    w
                };
                windows.push((len, Vec::new(), 0));
            }
            for &(at, latency_ms, ok) in &seg.ops {
                let k = ((at / w) as usize).min(count - 1);
                let win = &mut windows[base + k];
                win.1.push(latency_ms);
                win.2 += u64::from(ok);
            }
        }
        windows.retain(|(len, lat, _)| *len > 0.0 && !lat.is_empty());
        let mut sizes: Vec<f64> = windows.iter().map(|w| w.1.len() as f64).collect();
        let tail = tail_percentile(median(&mut sizes) as usize);
        let (mut p50, mut pt, mut rate) = (Vec::new(), Vec::new(), Vec::new());
        for (len, lat, ok) in &mut windows {
            lat.sort_by(f64::total_cmp);
            p50.push(percentile(lat, 50.0));
            pt.push(percentile(lat, tail));
            rate.push(*ok as f64 / *len);
        }
        let n: u64 = segments.iter().map(|s| s.ops.len() as u64).sum();
        for v in [&mut p50, &mut pt, &mut rate] {
            v.sort_by(f64::total_cmp);
        }
        let q = |v: &[f64]| {
            format!(
                "{:.4}/{:.4}/{:.4}",
                percentile(v, 10.0),
                percentile(v, 50.0),
                percentile(v, 90.0)
            )
        };
        self.notes.push(format!(
            "{} windows over {} segments; tail_ms is p{tail}; window p10/p50/p90: \
             p50 {} ms, p{tail} {} ms, {} ops/s",
            windows.len(),
            segments.len(),
            q(&p50),
            q(&pt),
            q(&rate)
        ));
        self.set("p50_ms", "ms", percentile(&p50, 10.0), n);
        self.set("tail_ms", "ms", percentile(&pt, 10.0), n);
        self.set("ops_per_s", "1/s", percentile(&rate, 90.0), n);
    }

    /// Keep only the metrics the run must report — the end-to-end list
    /// untraced, the per-layer list traced — filling unset per-layer
    /// metrics (layers this workload does not exercise) with 0.
    pub fn finish(&mut self, trace: bool) {
        let wanted: Vec<(String, &'static str)> = if trace {
            per_layer_names()
        } else {
            E2E.iter().map(|(n, u)| (n.to_string(), *u)).collect()
        };
        let mut kept = BTreeMap::new();
        for (name, unit) in wanted {
            match self.metrics.remove(&name) {
                Some(metric) => {
                    kept.insert(name, metric);
                }
                None if trace => {
                    kept.insert(
                        name,
                        Metric {
                            value: 0.0,
                            unit,
                            samples: 0,
                        },
                    );
                }
                None => self.error(format!("end-to-end metric {name} was not measured")),
            }
        }
        self.metrics = kept;
    }

    /// The human-readable metric table (one metric per line).
    pub fn table(&self, prefix: &str) -> String {
        let mut out = String::new();
        for note in &self.notes {
            out.push_str(&format!("# {prefix}{note}\n"));
        }
        for (name, m) in &self.metrics {
            out.push_str(&format!(
                "{prefix}{name:<48} {:>16.6} {:<6} n={}\n",
                m.value, m.unit, m.samples
            ));
        }
        out
    }

    /// The one-line JSON result.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits (non-finite values become 0:
/// JSON has no NaN).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // p99 of 1000 samples is the 990th; 10 lie beyond it.
        assert_eq!(tail_percentile(100_000), 99.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
        for n in 1..5000 {
            let p = tail_percentile(n);
            let beyond = n - 1 - rank(n, p);
            if p > 50.0 {
                assert!(beyond >= 10, "n={n} p={p}");
            }
            // No higher ladder rung qualifies.
            for &q in TAIL_LADDER.iter().filter(|&&q| q > p) {
                assert!(n - 1 - rank(n, q) < 10, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn rank_matches_the_workspace_percentile() {
        for n in 1..2000u64 {
            let sorted: Vec<u64> = (0..n).collect();
            for p in TAIL_LADDER.iter().chain(&[10.0, 99.0]) {
                let want = rrf_bench::workload::percentile_us(&sorted, *p);
                assert_eq!(rank(n as usize, *p) as u64, want, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn finish_fills_unexercised_layers_with_zero() {
        let mut r = Report::default();
        r.set("core.place_ms.fixed", "ms", 3.0, 2);
        r.set("p50_ms", "ms", 1.0, 2);
        r.finish(true);
        assert_eq!(r.metrics.len(), per_layer_names().len());
        assert_eq!(r.metrics["core.place_ms.fixed"].value, 3.0);
        assert_eq!(r.metrics["router.hop_us"].value, 0.0);
        assert!(!r.metrics.contains_key("p50_ms"));
    }

    #[test]
    fn finish_flags_a_missing_end_to_end_metric() {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.set("p50_ms", "ms", 1.0, 1);
        r.finish(false);
        assert!(!r.correct());
    }
}
