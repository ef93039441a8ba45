//! The shared benchmark-artifact emitter: every load benchmark that
//! leaves a machine-readable result behind writes the same record shape,
//! so artifacts like `BENCH_sched.json` stay diffable across runs and
//! greppable across benches.
//!
//! A record is `{"bench": ..., "params": {...}, "metrics": {...}}` with
//! insertion-ordered keys — field order is part of the format, so two
//! runs of the same binary produce byte-comparable files (modulo the
//! measured values themselves).

use std::io::Write;

use serde::Value;

/// One benchmark result: a named bench, the parameters that produced it,
/// and the measured metrics. Build with the fluent `param_*`/`metric_*`
/// methods; order of insertion is order of serialization.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    bench: String,
    params: Vec<(String, Value)>,
    metrics: Vec<(String, Value)>,
}

impl BenchRecord {
    pub fn new(bench: &str) -> BenchRecord {
        BenchRecord {
            bench: bench.to_string(),
            params: Vec::new(),
            metrics: Vec::new(),
        }
    }

    pub fn param_u64(mut self, key: &str, value: u64) -> Self {
        self.params.push((key.to_string(), Value::UInt(value)));
        self
    }

    pub fn param_f64(mut self, key: &str, value: f64) -> Self {
        self.params.push((key.to_string(), Value::Float(value)));
        self
    }

    pub fn param_str(mut self, key: &str, value: &str) -> Self {
        self.params
            .push((key.to_string(), Value::Str(value.to_string())));
        self
    }

    pub fn metric_u64(mut self, key: &str, value: u64) -> Self {
        self.metrics.push((key.to_string(), Value::UInt(value)));
        self
    }

    pub fn metric_f64(mut self, key: &str, value: f64) -> Self {
        self.metrics.push((key.to_string(), Value::Float(value)));
        self
    }

    /// The record as a JSON value (insertion-ordered object).
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("bench".to_string(), Value::Str(self.bench.clone())),
            ("params".to_string(), Value::Object(self.params.clone())),
            ("metrics".to_string(), Value::Object(self.metrics.clone())),
        ])
    }
}

/// Serialize records as a JSON array, one record per line — line-diffable
/// while still being one valid JSON document.
pub fn render(records: &[BenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&serde_json::to_string(&r.to_value()).expect("records serialize infallibly"));
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Write records to `path` (see [`render`]).
pub fn write_records(path: &str, records: &[BenchRecord]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(render(records).as_bytes())
}

/// The schema of a rendered artifact, one line per record: its bench
/// name, then its param keys and its metric keys in order. Values are
/// left out, so a fresh measurement and a committed artifact have equal
/// schemas exactly when they share a format.
pub fn schema(rendered: &str) -> Vec<String> {
    let value: Value = serde_json::from_str(rendered).expect("artifact is JSON");
    let keys = |record: &Value, field: &str| -> String {
        let fields = record.get(field).and_then(Value::as_object).unwrap_or(&[]);
        let names: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
        names.join(",")
    };
    value
        .as_array()
        .expect("artifact is a JSON array")
        .iter()
        .map(|record| {
            let bench = record.get("bench").and_then(Value::as_str).unwrap_or("");
            let (params, metrics) = (keys(record, "params"), keys(record, "metrics"));
            format!("{bench} params={params} metrics={metrics}")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_shape_and_order_are_stable() {
        let r = BenchRecord::new("sched_load")
            .param_u64("tasks", 100)
            .param_str("arm", "with_alternatives")
            .metric_f64("miss_rate", 0.25)
            .metric_u64("goodput", 12345);
        let json = serde_json::to_string(&r.to_value()).unwrap();
        assert_eq!(
            json,
            r#"{"bench":"sched_load","params":{"tasks":100,"arm":"with_alternatives"},"metrics":{"miss_rate":0.25,"goodput":12345}}"#
        );
        let rendered = render(&[r.clone(), r]);
        assert!(rendered.starts_with("[\n  {"));
        assert!(rendered.ends_with("}\n]\n"));
        assert_eq!(rendered.lines().count(), 4);
        // The document parses back as JSON.
        let v: Value = serde_json::from_str(&rendered).unwrap();
        match v {
            Value::Array(items) => assert_eq!(items.len(), 2),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn schema_keeps_key_order_and_drops_values() {
        let a = BenchRecord::new("b")
            .param_u64("seed", 1)
            .metric_u64("x", 2)
            .metric_f64("y", 0.5);
        let b = BenchRecord::new("b")
            .param_u64("seed", 9)
            .metric_u64("x", 7)
            .metric_f64("y", 1.5);
        let swapped = BenchRecord::new("b")
            .param_u64("seed", 1)
            .metric_f64("y", 0.5)
            .metric_u64("x", 2);
        let of = |r: BenchRecord| schema(&render(&[r]));
        assert_eq!(of(a.clone()), ["b params=seed metrics=x,y"]);
        assert_eq!(of(a.clone()), of(b));
        assert_ne!(of(a), of(swapped));
    }
}
