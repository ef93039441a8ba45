//! The service ablations keep their artifact format. Each load binary
//! runs with zero requests per client, so every arm is a default
//! (all-zero) outcome, and the records it writes must match the
//! committed `BENCH_*.json` in bench name, arm names, param keys and
//! metric keys, in order. `bench_gate` and the EXPERIMENTS.md tables key
//! on these names, so a change to the shared open-loop harness
//! (`rrf_bench::load`) must not move them.

use std::process::Command;

use rrf_bench::record::schema;
use serde_json::Value;

fn arms(rendered: &str) -> Vec<String> {
    let value: Value = serde_json::from_str(rendered).expect("artifact is JSON");
    value
        .as_array()
        .expect("artifact is a JSON array")
        .iter()
        .map(|record| {
            let arm = record.get("params").and_then(|p| p.get("arm"));
            arm.and_then(Value::as_str).unwrap_or("").to_string()
        })
        .collect()
}

fn assert_schema(bin: &str, artifact: &str, args: &[&str]) {
    let out = std::env::temp_dir().join(format!("rrf-schema-{}-{artifact}", std::process::id()));
    let run = Command::new(bin)
        .args(args)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run load binary");
    assert!(
        run.status.success(),
        "{bin} failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let fresh = std::fs::read_to_string(&out).expect("read fresh artifact");
    let _ = std::fs::remove_file(&out);
    let committed_path = format!("{}/../../{artifact}", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(committed_path).expect("read committed artifact");
    assert_eq!(schema(&fresh), schema(&committed), "{artifact}: keys moved");
    assert_eq!(arms(&fresh), arms(&committed), "{artifact}: arms moved");
}

#[test]
fn overload_load_keeps_bench_overload_schema() {
    let bin = env!("CARGO_BIN_EXE_overload_load");
    assert_schema(bin, "BENCH_overload.json", &["12", "0", "0"]);
}

#[test]
fn cache_load_keeps_bench_cache_schema() {
    let bin = env!("CARGO_BIN_EXE_cache_load");
    assert_schema(bin, "BENCH_cache.json", &["0", "0"]);
}

#[test]
fn cluster_load_keeps_bench_cluster_schema() {
    let bin = env!("CARGO_BIN_EXE_cluster_load");
    assert_schema(bin, "BENCH_cluster.json", &["0", "0"]);
}
