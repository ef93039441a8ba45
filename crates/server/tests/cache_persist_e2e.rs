//! Cache persistence end-to-end: graceful shutdown writes the snapshot,
//! restart warm-loads it (across different shard counts — the file is
//! shard-count invariant), the real binary does the same under SIGTERM,
//! and a mangled snapshot costs the tail, never the daemon — proven for
//! every byte-offset truncation and for arbitrary byte flips.

use std::process::Command;
use std::time::Duration;

use proptest::prelude::*;
use rrf_fabric::ResourceKind;
use rrf_flow::{DeviceSpec, FlowReport, FlowSpec, ModuleEntry, PlacerSettings, RegionSpec};
use rrf_geost::{ShapeDef, ShiftedBox};
use rrf_server::cache::{persist, CacheEntry};
use rrf_server::{start, PlaceMethod, Request, Response, ServerConfig};

mod common;
use common::{spawn_serve, wait_for_exit, Client, Daemon};

fn clb_shape(w: i32, h: i32) -> ShapeDef {
    ShapeDef::new(vec![ShiftedBox::new(0, 0, w, h, ResourceKind::Clb)])
}

/// One distinct, quickly provable spec per `salt`.
fn small_spec(salt: usize) -> FlowSpec {
    FlowSpec {
        region: RegionSpec {
            device: DeviceSpec::Homogeneous {
                width: 10,
                height: 4,
            },
            bounds: None,
            static_masks: vec![],
        },
        modules: vec![
            ModuleEntry {
                name: format!("alu{salt}"),
                shapes: vec![clb_shape(4, 2), clb_shape(2, 4)],
                netlist: None,
            },
            ModuleEntry {
                name: "ctl".into(),
                shapes: vec![clb_shape(2 + salt as i32 % 2, 2)],
                netlist: None,
            },
        ],
        placer: PlacerSettings::default(),
    }
}

fn place(client: &mut Client, id: u64, spec: &FlowSpec) -> bool {
    match client.roundtrip(&Request::Place {
        id,
        spec: spec.clone(),
        deadline_ms: None,
    }) {
        Response::Placed {
            cache_hit, report, ..
        } => {
            assert!(report.feasible);
            cache_hit
        }
        other => panic!("expected placed, got {other:?}"),
    }
}

fn stats(client: &mut Client, id: u64) -> rrf_server::ServerStats {
    match client.roundtrip(&Request::Stats { id }) {
        Response::Stats { stats, .. } => stats,
        other => panic!("expected stats, got {other:?}"),
    }
}

#[test]
fn graceful_shutdown_snapshot_warm_loads_across_shard_counts() {
    let path =
        std::env::temp_dir().join(format!("rrf_cache_persist_{}.ndjson", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let specs: Vec<FlowSpec> = (0..3).map(small_spec).collect();

    // Life 1 (8 shards): three solves, then a graceful shutdown.
    let handle = start(ServerConfig {
        cache_shards: 8,
        cache_persist_path: Some(path.to_str().unwrap().to_string()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr());
    for (i, spec) in specs.iter().enumerate() {
        assert!(!place(&mut client, i as u64, spec));
    }
    handle.shutdown();
    let first_bytes = std::fs::read(&path).expect("snapshot written on graceful shutdown");
    assert_eq!(first_bytes.iter().filter(|&&b| b == b'\n').count(), 4);

    // Life 2 (1 shard, same file): every spec is a warm hit, no solve.
    let handle = start(ServerConfig {
        cache_shards: 1,
        cache_persist_path: Some(path.to_str().unwrap().to_string()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr());
    for (i, spec) in specs.iter().enumerate() {
        assert!(place(&mut client, 10 + i as u64, spec), "warm hit expected");
    }
    let s = stats(&mut client, 20);
    assert_eq!(s.cache_persist_loaded, 3);
    assert_eq!(s.cache_load_errors, 0);
    assert_eq!(s.cache_hits, 3);
    assert_eq!(s.cache_misses, 0);
    handle.shutdown();
    // Same entries, different shard count: byte-identical snapshot.
    assert_eq!(
        std::fs::read(&path).unwrap(),
        first_bytes,
        "snapshot bytes must not depend on the shard count"
    );

    // Life 3: a torn tail costs the last record, never the start — the
    // daemon comes up with the sound prefix and counts the defect.
    std::fs::write(&path, &first_bytes[..first_bytes.len() - 5]).unwrap();
    let handle = start(ServerConfig {
        cache_persist_path: Some(path.to_str().unwrap().to_string()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr());
    let s = stats(&mut client, 30);
    assert_eq!(s.cache_persist_loaded, 2);
    assert_eq!(s.cache_load_errors, 1);
    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// A two-worker, four-shard `rrf-serve` persisting its cache to
/// `persist_path`.
fn spawn_daemon(persist_path: &std::path::Path) -> Daemon {
    spawn_serve(&[
        "--workers",
        "2",
        "--cache-shards",
        "4",
        "--cache-persist",
        persist_path.to_str().unwrap(),
    ])
}

#[test]
fn sigterm_writes_snapshot_and_restart_serves_warm_hits() {
    let path =
        std::env::temp_dir().join(format!("rrf_cache_sigterm_{}.ndjson", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let spec = small_spec(7);

    let Daemon { mut child, addr } = spawn_daemon(&path);
    let mut client = Client::connect(addr);
    assert!(!place(&mut client, 1, &spec));
    drop(client);
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(status.success());
    wait_for_exit(&mut child);
    assert!(path.exists(), "SIGTERM must write the snapshot");

    let Daemon { mut child, addr } = spawn_daemon(&path);
    let mut client = Client::connect(addr);
    assert!(
        place(&mut client, 2, &spec),
        "restart must serve a warm hit"
    );
    let s = stats(&mut client, 3);
    assert_eq!(s.cache_persist_loaded, 1);
    assert_eq!(s.cache_load_errors, 0);
    child.kill().expect("kill daemon");
    wait_for_exit(&mut child);
    let _ = std::fs::remove_file(&path);
}

/// A fixed synthetic snapshot, built once: four entries with distinct
/// keys and budgets.
fn snapshot_bytes() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| {
        let entries: Vec<(String, CacheEntry)> = (0..4)
            .map(|i| {
                (
                    format!("key-{i:02}"),
                    CacheEntry {
                        method: PlaceMethod::Infeasible,
                        report: FlowReport {
                            feasible: false,
                            proven: false,
                            extent: None,
                            placements: vec![],
                            metrics: None,
                            stats: rrf_core::SolveStats::default(),
                            floorplan: None,
                        },
                        budget: Duration::from_millis(10 * (i + 1)),
                    },
                )
            })
            .collect();
        let path = std::env::temp_dir().join(format!("rrf_cache_trunc_{}", std::process::id()));
        persist::save(&path, &entries).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        bytes
    })
}

/// Exhaustive torn-tail sweep over the snapshot: every truncation loads
/// without a panic, recovers exactly the records whose lines survived in
/// full, and counts exactly one defect — except the two clean cases
/// (empty file = cold start, full file = pristine).
#[test]
fn every_byte_truncation_loads_a_sound_prefix() {
    let bytes = snapshot_bytes();
    let scratch = std::env::temp_dir().join(format!(
        "rrf_cache_trunc_sweep_{}.ndjson",
        std::process::id()
    ));
    let full = {
        std::fs::write(&scratch, bytes).unwrap();
        persist::load(&scratch).unwrap()
    };
    assert_eq!(full.errors, 0);
    assert_eq!(full.entries.len(), 4);

    // Byte offsets one past each newline: line k is intact iff
    // cut >= line_ends[k].
    let line_ends: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .collect();

    for cut in 0..=bytes.len() {
        std::fs::write(&scratch, &bytes[..cut]).unwrap();
        let loaded = persist::load(&scratch).unwrap();
        // Entry lines follow the header (line 0): intact record lines
        // are those whose terminating newline fits in the cut.
        let expected = line_ends.iter().skip(1).filter(|&&end| end <= cut).count();
        assert_eq!(
            loaded.entries.len(),
            expected,
            "cut {cut}: wrong number of recovered entries"
        );
        for (got, want) in loaded.entries.iter().zip(&full.entries) {
            assert_eq!(got.0, want.0, "cut {cut}: keys diverge");
            assert_eq!(got.1.budget, want.1.budget, "cut {cut}: budgets diverge");
        }
        let clean = cut == 0 || cut == bytes.len();
        assert_eq!(
            loaded.errors,
            u64::from(!clean),
            "cut {cut}: wrong defect count"
        );
    }
    let _ = std::fs::remove_file(&scratch);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary single-byte corruption anywhere in the snapshot: load
    /// never panics or errors out, and whatever it recovers is a prefix
    /// of the pristine entries (damage costs the tail, nothing else).
    #[test]
    fn byte_flips_never_panic_the_loader(offset_frac in 0.0f64..1.0, flip in 1u8..=255) {
        let bytes = snapshot_bytes();
        let offset = ((bytes.len() - 1) as f64 * offset_frac) as usize;
        let mut damaged = bytes.to_vec();
        damaged[offset] ^= flip;

        let scratch = std::env::temp_dir().join(format!(
            "rrf_cache_flip_{}_{offset}.ndjson",
            std::process::id()
        ));
        std::fs::write(&scratch, &damaged).unwrap();
        let loaded = persist::load(&scratch).expect("load never errors on an existing file");
        let _ = std::fs::remove_file(&scratch);

        std::fs::write(&scratch, bytes).unwrap();
        let full = persist::load(&scratch).unwrap();
        let _ = std::fs::remove_file(&scratch);

        // Lines wholly before the damaged byte survive verbatim; the
        // first line is the header, so record k needs line k+1 intact.
        let intact_lines = bytes[..offset].iter().filter(|&&b| b == b'\n').count();
        let intact_records = intact_lines.saturating_sub(1);
        prop_assert!(loaded.entries.len() >= intact_records.min(full.entries.len()));
        for (got, want) in loaded.entries.iter().take(intact_records).zip(&full.entries) {
            prop_assert_eq!(&got.0, &want.0);
            prop_assert_eq!(got.1.budget, want.1.budget);
        }
    }
}
