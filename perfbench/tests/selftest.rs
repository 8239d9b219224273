//! Benchmark self-tests: a minimal-size pass over every workload.
//!
//! Each workload runs untraced and traced at smoke size. Every metric
//! `BENCHMARK.json` names must be emitted with a finite value, every
//! output check must pass, and the traced run's span file must lint
//! with `apollo trace-lint` and render with `apollo trace-export
//! --chrome`. Run with `cargo test --release --manifest-path
//! perfbench/Cargo.toml`.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

const WORKLOADS: [&str; 4] = ["design-n1", "monitor-serve", "fleet-serve", "emu-proxy"];

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("missing key `{key}`"))
}

/// The metric names of one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<String> {
    let text =
        std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Value::Array(rows) = get(&spec, section) else {
        panic!("`{section}` is not a list");
    };
    rows.iter()
        .map(|r| match get(r, "name") {
            Value::Str(s) => s.clone(),
            other => panic!("name {other:?}"),
        })
        .collect()
}

/// Runs one smoke-size workload and returns its result line.
fn run(workload: &str, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(manifest_dir())
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"))
}

fn check_result(workload: &str, result: &Value, section: &str) {
    assert_eq!(
        get(result, "correct"),
        &Value::Bool(true),
        "{workload}: {result:?}"
    );
    assert!(
        matches!(get(result, "failed"), Value::Int(0) | Value::UInt(0)),
        "{workload}: {result:?}"
    );
    let Value::Object(metrics) = get(result, "metrics") else {
        panic!("{workload}: metrics is not an object");
    };
    let names: Vec<&String> = metrics.iter().map(|(k, _)| k).collect();
    assert_eq!(
        names,
        declared(section).iter().collect::<Vec<_>>(),
        "{workload}"
    );
    for (name, m) in metrics {
        let value = match get(m, "value") {
            Value::Float(f) => *f,
            Value::Int(i) => *i as f64,
            Value::UInt(u) => *u as f64,
            other => panic!("{workload} {name}: value {other:?}"),
        };
        assert!(value.is_finite(), "{workload} {name}: {value}");
    }
}

/// The `apollo` CLI, built once into this test target's scratch dir.
fn apollo() -> &'static PathBuf {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("apollo-cli");
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--quiet",
                "--offline",
                "--bin",
                "apollo",
            ])
            .arg("--manifest-path")
            .arg(manifest_dir().join("../Cargo.toml"))
            .arg("--target-dir")
            .arg(&target)
            .status()
            .expect("cargo build apollo");
        assert!(status.success(), "building the apollo CLI failed");
        target.join("release/apollo")
    })
}

fn apollo_ok(args: &[&str]) {
    let out = Command::new(apollo())
        .args(args)
        .output()
        .expect("run apollo");
    assert!(
        out.status.success(),
        "apollo {args:?}: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for w in WORKLOADS {
        check_result(w, &run(w, false), "end_to_end");
    }
}

#[test]
fn traced_runs_emit_every_layer_metric_and_lint() {
    for w in WORKLOADS {
        check_result(w, &run(w, true), "per_layer");
        let spans = manifest_dir().join(format!(".perfbench_out/{w}-seed7.trace.jsonl"));
        let spans = spans.to_str().expect("utf-8 path");
        apollo_ok(&["trace-lint", "--in", spans]);
        let chrome = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{w}.chrome.json"));
        apollo_ok(&[
            "trace-export",
            "--in",
            spans,
            "--chrome",
            chrome.to_str().expect("utf-8 path"),
        ]);
    }
}
