//! perfbench: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <design-n1|monitor-serve|fleet-serve|emu-proxy|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! Drives the program only through its public library API. An
//! untraced run (`--trace 0`) measures the end-to-end metrics; a traced
//! run (`--trace 1`) records spans around every layer call and reports
//! the per-layer table, writing the spans as telemetry JSONL under
//! `.perfbench_out/`; `--workload all` makes both runs of every
//! workload. Every run checks the program's outputs. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Simulated cycles are simulated time; every `_s`, `_ms`,
//! `_us`, `_ns` and `_per_s` figure is host time.

mod common;
mod design;
mod emu;
mod layers;
mod load;
mod serve;
mod trace;

use apollo_suite::results::render::{Format, Table};
use apollo_suite::telemetry::validate_line;
use common::{median, peak_rss_mb, percentile, Outcome, Sizes};
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["design-n1", "monitor-serve", "fleet-serve", "emu-proxy"];
const OUT_DIR: &str = ".perfbench_out";

/// The end-to-end metrics every workload reports (`BENCHMARK.json`'s
/// `end_to_end`); the others in [`end_to_end`] exist on some workloads
/// only and are printed in the report.
const GATED: [&str; 4] = ["setup_s", "train_s", "core_cycles_per_s", "peak_rss_mb"];

struct Metric {
    name: String,
    value: f64,
    unit: String,
    detail: String,
}

fn metric(name: &str, value: f64, unit: &str, detail: impl Into<String>) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit: unit.to_owned(),
        detail: detail.into(),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !a.seconds.is_finite() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Host and build fingerprint recorded with every result.
fn fingerprint(seed: u64) -> Vec<(String, String)> {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    // Cargo reads `.cargo/config.toml` from the working directory up.
    let cwd = std::env::current_dir().unwrap_or_default();
    let flags = cwd
        .ancestors()
        .find_map(|d| std::fs::read_to_string(d.join(".cargo/config.toml")).ok())
        .and_then(|s| {
            s.lines()
                .find(|l| l.trim_start().starts_with("rustflags"))
                .map(|l| l.trim().to_owned())
        })
        .unwrap_or_else(|| "none".into());
    vec![
        ("seed".into(), seed.to_string()),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("cpu".into(), cpu),
        (
            "rustc".into(),
            run("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        ),
        (
            "build flags".into(),
            format!("{flags} (popcnt: {})", cfg!(target_feature = "popcnt")),
        ),
        (
            "git rev".into(),
            run("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unknown (not a git checkout)".into()),
        ),
    ]
}

fn end_to_end(workload: &str, o: &Outcome, rss_mb: f64) -> Vec<Metric> {
    let mut m = vec![
        metric(
            "setup_s",
            median(&o.setup_s),
            "s",
            format!("median of {} set-ups", o.setup_s.len()),
        ),
        metric(
            "train_s",
            median(&o.train_s),
            "s",
            format!("median of {} trainings", o.train_s.len()),
        ),
    ];
    if workload == "design-n1" {
        m.push(metric(
            "eval_s",
            median(&o.eval_s),
            "s",
            format!("median of {}", o.eval_s.len()),
        ));
        m.push(metric(
            "test_nrmse_pct",
            o.test_nrmse_pct.unwrap_or(f64::NAN),
            "%",
            "held-out Table-4 suite vs apollo-sim Eq.-2 power (not silicon)",
        ));
    }
    m.push(metric(
        "core_cycles_per_s",
        o.core_cycles_per_s(),
        "1/s",
        format!(
            "median of {} slices (quartiles {:.0}..{:.0}); {} simulated core-cycles in {:.3} host s",
            o.rates.len(),
            percentile(&o.rates, 0.25),
            percentile(&o.rates, 0.75),
            o.cycles,
            o.busy_s
        ),
    ));
    if let Some(st) = &o.scrapes {
        let lat = st.all_latencies();
        let n = lat.len();
        m.push(metric(
            "scrape_p50_us",
            percentile(&lat, 0.5),
            "us",
            format!("{n} samples"),
        ));
        // The highest percentile with at least ten samples beyond it.
        if n >= 1000 {
            m.push(metric(
                "scrape_p99_us",
                percentile(&lat, 0.99),
                "us",
                format!("{n} samples"),
            ));
        } else if n >= 10 {
            let q = 1.0 - 10.0 / n as f64;
            m.push(metric(
                "scrape_tail_us",
                percentile(&lat, q),
                "us",
                format!("p{:.1} of {n} samples (p99 needs 1000)", 100.0 * q),
            ));
        }
    }
    m.push(metric(
        "fail_frac",
        o.failed as f64 / o.attempted.max(1) as f64,
        "failed/attempted",
        format!("{} of {}", o.failed, o.attempted),
    ));
    m.push(metric("peak_rss_mb", rss_mb, "MB", "VmHWM"));
    m
}

/// How a per-layer metric is derived from the spans of one layer call.
enum Rate {
    /// Σ duration / Σ work, scaled from ns.
    PerWork(f64),
    /// Σ duration / calls, scaled from ns.
    PerCall(f64),
    /// Σ work / calls.
    WorkPerCall,
}

/// (metric, span, rate, unit, the end-to-end metric it should move).
const LAYERS: &[(&str, &str, Rate, &str, &str)] = &[
    (
        "cpu.build_ms",
        "cpu.build",
        Rate::PerCall(1e-6),
        "ms",
        "setup_s: all",
    ),
    (
        "sim.step_ns",
        "sim.step",
        Rate::PerWork(1.0),
        "ns",
        "train_s, eval_s: design-n1; core_cycles_per_s: monitor/fleet-serve",
    ),
    (
        "sim.step_toggles_ns",
        "sim.step_toggles",
        Rate::PerWork(1.0),
        "ns",
        "same as sim.step_ns (difference = power pass)",
    ),
    (
        "sim.bitslice.lane_cycle_ns",
        "sim.bitslice.step_toggles",
        Rate::PerWork(1.0),
        "ns",
        "core_cycles_per_s: emu-proxy",
    ),
    (
        "core.ga_s",
        "core.ga",
        Rate::PerCall(1e-9),
        "s",
        "train_s: all",
    ),
    (
        "core.ga.sim_cycles",
        "core.ga",
        Rate::WorkPerCall,
        "count",
        "train_s: all",
    ),
    (
        "core.capture_ns_per_cycle",
        "core.capture",
        Rate::PerWork(1.0),
        "ns",
        "train_s, eval_s: design-n1",
    ),
    (
        "core.features_ms",
        "core.features",
        Rate::PerCall(1e-6),
        "ms",
        "train_s: all",
    ),
    (
        "core.features.candidates",
        "core.features",
        Rate::WorkPerCall,
        "count",
        "train_s: all",
    ),
    (
        "core.predict_ns_per_cycle",
        "core.predict",
        Rate::PerWork(1.0),
        "ns",
        "eval_s: design-n1",
    ),
    (
        "core.capture_proxy_ns_per_lane_cycle",
        "core.capture_proxy",
        Rate::PerWork(1.0),
        "ns",
        "core_cycles_per_s: emu-proxy",
    ),
    (
        "mlkit.mcp_s",
        "mlkit.mcp",
        Rate::PerCall(1e-9),
        "s",
        "train_s: all",
    ),
    (
        "mlkit.mcp.q",
        "mlkit.mcp",
        Rate::WorkPerCall,
        "count",
        "train_s: all",
    ),
    (
        "opm.attrib_ns_per_cycle",
        "opm.attrib",
        Rate::PerWork(1.0),
        "ns",
        "core_cycles_per_s: monitor-serve",
    ),
    (
        "opm.drift_ns_per_window",
        "opm.drift",
        Rate::PerWork(1.0),
        "ns",
        "core_cycles_per_s: monitor-serve",
    ),
    (
        "opm.window_proxy_ns_per_window",
        "opm.window_proxy",
        Rate::PerWork(1.0),
        "ns",
        "core_cycles_per_s: emu-proxy",
    ),
    (
        "introspect.monitor_ns_per_window",
        "introspect.monitor",
        Rate::PerWork(1.0),
        "ns",
        "core_cycles_per_s: monitor-serve",
    ),
    (
        "introspect.hub.publish_ns",
        "introspect.hub.publish",
        Rate::PerWork(1.0),
        "ns",
        "core_cycles_per_s: monitor-serve",
    ),
    (
        "introspect.hub.deliver_ns",
        "introspect.hub.deliver",
        Rate::PerWork(1.0),
        "ns",
        "scrape_p50/p99_us: monitor-serve",
    ),
    (
        "telemetry.expose_us",
        "telemetry.expose",
        Rate::PerWork(1e-3),
        "us",
        "scrape_p50/p99_us: monitor-serve",
    ),
    (
        "fleet.core.step_window_us",
        "fleet.core.step_window",
        Rate::PerWork(1e-3),
        "us",
        "core_cycles_per_s: fleet-serve",
    ),
    (
        "fleet.batch.build_us",
        "fleet.batch.build",
        Rate::PerWork(1e-3),
        "us",
        "core_cycles_per_s: fleet-serve",
    ),
    (
        "fleet.batch.publish_us",
        "fleet.batch.publish",
        Rate::PerWork(1e-3),
        "us",
        "core_cycles_per_s: fleet-serve",
    ),
    (
        "fleet.aggregate.ingest_us",
        "fleet.aggregate.ingest",
        Rate::PerWork(1e-3),
        "us",
        "core_cycles_per_s: fleet-serve",
    ),
    (
        "fleet.aggregate.snapshot_us",
        "fleet.aggregate.snapshot",
        Rate::PerWork(1e-3),
        "us",
        "scrape_p99_us: fleet-serve",
    ),
    (
        "fleet.batch.encode_us",
        "fleet.batch.encode",
        Rate::PerWork(1e-3),
        "us",
        "scrape_p99_us: fleet-serve",
    ),
];

fn per_layer(tr: &Tracer, o: &Outcome, ex: &layers::Extras) -> Vec<Metric> {
    let mut out = Vec::new();
    for (name, span, rate, unit, moves) in LAYERS {
        let (mut dur, mut work, mut calls) = (0u64, 0u64, 0u64);
        for s in tr.spans().iter().filter(|s| s.leaf() == *span) {
            dur += s.dur_ns;
            work += s.work;
            calls += 1;
        }
        let value = match rate {
            Rate::PerWork(scale) => dur as f64 * scale / work as f64,
            Rate::PerCall(scale) => dur as f64 * scale / calls as f64,
            Rate::WorkPerCall => work as f64 / calls as f64,
        };
        out.push(metric(
            name,
            value,
            unit,
            format!("{calls} spans, work {work}; moves {moves}"),
        ));
    }
    for (name, us) in &ex.scrape_us {
        out.push(metric(name, *us, "us", "median GET latency from when due"));
    }
    let counts = [
        (
            "introspect.hub.dropped",
            ex.hub_dropped + o.hub_dropped.unwrap_or(0),
            "queue drops under load",
        ),
        (
            "introspect.http.errors",
            ex.http_errors,
            "non-200, errors, timeouts, bad stream records",
        ),
        ("fleet.http.shed", ex.fleet_shed, "503 answers"),
    ];
    for (name, n, what) in counts {
        out.push(metric(name, n as f64, "count", what));
    }
    let mut late = ex.late_us.clone();
    if let Some(st) = &o.scrapes {
        late.extend(&st.late_us);
    }
    out.push(metric(
        "loadgen.late_p99_us",
        percentile(&late, 0.99),
        "us",
        format!("{} sends; diagnostic", late.len()),
    ));
    let roots = ["setup", "run"];
    let (mut open, mut total) = (0.0, 0.0);
    for root in roots {
        if let (Some(pct), Some(s)) = (
            tr.unattributed_pct(root),
            tr.spans().iter().find(|s| s.leaf() == root),
        ) {
            open += pct * s.dur_ns as f64;
            total += s.dur_ns as f64;
        }
    }
    out.push(metric(
        "trace.unattributed_pct",
        open / total,
        "%",
        "of set-up + traced run time",
    ));
    out.push(metric(
        "trace.overhead_pct",
        o.overhead_pct.unwrap_or(f64::NAN),
        "%",
        "traced vs untraced end-to-end rate",
    ));
    out
}

/// The per-layer metric names, in report order (`BENCHMARK.json`'s
/// `per_layer`).
fn per_layer_names() -> Vec<String> {
    let mut v: Vec<String> = LAYERS.iter().map(|l| l.0.to_owned()).collect();
    for route in ["healthz", "metrics", "status"] {
        for load in ["idle", "loaded"] {
            v.push(format!("introspect.http.scrape_us.{route}.{load}"));
        }
    }
    v.extend(
        [
            "fleet.http.scrape_us.core_metrics",
            "fleet.http.scrape_us.fleet_metrics",
            "introspect.hub.dropped",
            "introspect.http.errors",
            "fleet.http.shed",
            "loadgen.late_p99_us",
            "trace.unattributed_pct",
            "trace.overhead_pct",
        ]
        .map(str::to_owned),
    );
    v
}

fn table(title: &str, rows: &[Metric]) -> String {
    let mut t = Table::new(title, &["metric", "value", "unit", "detail"]);
    for m in rows {
        t.push_row(vec![
            m.name.clone(),
            format!("{:.6}", m.value),
            m.unit.clone(),
            m.detail.clone(),
        ]);
    }
    t.render(Format::Table)
}

/// Checks a span file the way `apollo trace-lint` does: every line a
/// valid schema record, `seq` dense from 0.
fn lint(text: &str) -> Result<usize, String> {
    for (i, line) in text.lines().enumerate() {
        let rec = validate_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if rec.seq != i as u64 {
            return Err(format!("line {}: seq {} out of order", i + 1, rec.seq));
        }
    }
    Ok(text.lines().count())
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn run_one(a: &Args) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let sz = if a.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let mut tr = Tracer::new(a.trace, &a.workload, a.seed);
    let (mut o, ctx, model) = match a.workload.as_str() {
        "design-n1" => {
            let (o, ctx, model) = design::run(&mut tr, &sz, a.seed, a.seconds);
            (o, Arc::new(ctx), Arc::new(model))
        }
        "monitor-serve" => serve::monitor(&mut tr, &sz, a.seed, a.seconds)?,
        "fleet-serve" => serve::fleet(&mut tr, &sz, a.seed, a.seconds)?,
        "emu-proxy" => {
            let (o, e) = emu::run(&mut tr, &sz, a.seed, a.seconds)?;
            (o, Arc::new(e.scalar), Arc::new(e.model))
        }
        other => unreachable!("workload {other} was validated"),
    };
    // Before the layer replays, which are not part of the workload.
    let rss = peak_rss_mb();

    println!(
        "== perfbench {} (seed {}, {} s, {}) ==",
        a.workload,
        a.seed,
        a.seconds,
        if a.trace { "traced" } else { "untraced" }
    );
    let fp = fingerprint(a.seed);
    for (k, v) in &fp {
        println!("  {k}: {v}");
    }
    for n in &o.notes {
        println!("  {n}");
    }
    let e2e = end_to_end(&a.workload, &o, rss);
    print!(
        "{}",
        table(
            "end-to-end (simulated cycles are simulated time; every time is host time)",
            &e2e
        )
    );

    let mut layer_rows = Vec::new();
    if a.trace {
        let ex = layers::pass(&mut tr, &ctx, &model, &sz, a.seed)?;
        o.attempted += ex.requests;
        o.failed += ex.http_errors;
        if let Some(e) = &ex.first_error {
            o.failures.push(format!(
                "layer replays: {} HTTP errors, first: {e}",
                ex.http_errors
            ));
        }
        layer_rows = per_layer(&tr, &o, &ex);
        print!("{}", table("per-layer (traced run)", &layer_rows));
    }

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let stem = Path::new(OUT_DIR).join(format!("{}-seed{}", a.workload, a.seed));
    if a.trace {
        let text = tr.to_jsonl();
        let path = stem.with_extension("trace.jsonl");
        std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
        let lint = lint(&text);
        o.check(lint.is_ok(), || {
            format!(
                "span file {}: {}",
                path.display(),
                lint.clone().unwrap_err()
            )
        });
        println!(
            "spans: {} ({} records lint clean)",
            path.display(),
            lint.unwrap_or(0)
        );
    }

    let mut rows: Vec<&Metric> = Vec::new();
    if a.trace {
        let names = per_layer_names();
        for n in &names {
            match layer_rows.iter().find(|m| &m.name == n) {
                Some(m) => rows.push(m),
                None => o.check(false, || format!("per-layer metric {n} was not measured")),
            }
        }
    } else {
        rows.extend(e2e.iter().filter(|m| GATED.contains(&m.name.as_str())));
    }
    for m in e2e.iter().chain(&layer_rows) {
        if !m.value.is_finite() {
            o.check(false, || {
                format!("{} has no finite value ({})", m.name, m.detail)
            });
        }
    }
    for f in &o.failures {
        println!("FAILED CHECK: {f}");
    }
    let correct = o.failed == 0;
    println!(
        "{}: {} of {} checked operations failed",
        if correct { "correct" } else { "INCORRECT" },
        o.failed,
        o.attempted
    );

    // The full record: fingerprint plus every metric measured.
    let mut rec = String::from("{");
    for (k, v) in &fp {
        let _ = write!(rec, "\"{k}\": {:?}, ", v);
    }
    let all: Vec<&Metric> = e2e
        .iter()
        .chain(&layer_rows)
        .filter(|m| m.value.is_finite())
        .collect();
    let failures: Vec<String> = o.failures.iter().map(|f| format!("{f:?}")).collect();
    rec.push_str(&format!(
        "\"workload\": {:?}, \"traced\": {}, \"failures\": [{}], \"result\": {}}}\n",
        a.workload,
        a.trace,
        failures.join(", "),
        json_line(correct, o.attempted, o.failed, &all)
    ));
    let path = stem.with_extension(if a.trace { "traced.json" } else { "json" });
    std::fs::write(&path, rec).map_err(|e| format!("{}: {e}", path.display()))?;

    let values = rows
        .into_iter()
        .map(|m| {
            metric(
                &m.name,
                if m.value.is_finite() { m.value } else { 0.0 },
                &m.unit,
                "",
            )
        })
        .collect();
    Ok((correct, o.attempted, o.failed, values))
}

fn num(v: Option<&serde_json::Value>) -> Option<f64> {
    match v? {
        serde_json::Value::Int(i) => Some(*i as f64),
        serde_json::Value::UInt(u) => Some(*u as f64),
        serde_json::Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// `--workload all`: each workload untraced, then traced, each run in
/// its own process (so each has its own memory high-water mark), then
/// one combined result line.
fn run_all(a: &Args) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for (w, trace) in WORKLOADS.iter().flat_map(|w| [(*w, false), (*w, true)]) {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args([
            "--workload",
            w,
            "--seed",
            &a.seed.to_string(),
            "--seconds",
            &a.seconds.to_string(),
        ]);
        cmd.args(["--trace", if trace { "1" } else { "0" }]);
        if a.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd.output().map_err(|e| format!("{w}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for l in lines {
            println!("{l}");
        }
        let v: serde_json::Value = serde_json::from_str(last).map_err(|e| {
            format!(
                "{w}: no result line ({e}); stderr: {}",
                String::from_utf8_lossy(&out.stderr)
            )
        })?;
        correct &=
            out.status.success() && matches!(v.get("correct"), Some(serde_json::Value::Bool(true)));
        attempted += num(v.get("attempted")).unwrap_or(0.0) as u64;
        failed += num(v.get("failed")).unwrap_or(0.0) as u64;
        if let Some(serde_json::Value::Object(map)) = v.get("metrics") {
            for (name, m) in map {
                let unit = match m.get("unit") {
                    Some(serde_json::Value::Str(u)) => u.as_str(),
                    _ => "",
                };
                let value = num(m.get("value")).unwrap_or(f64::NAN);
                metrics.push(metric(&format!("{w}.{name}"), value, unit, ""));
            }
        }
    }
    Ok((correct, attempted, failed, metrics))
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if a.workload == "all" {
        run_all(&a)
    } else {
        run_one(&a)
    };
    match result {
        Ok((correct, attempted, failed, metrics)) => {
            let refs: Vec<&Metric> = metrics.iter().collect();
            println!("{}", json_line(correct, attempted, failed, &refs));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", a.workload);
            ExitCode::FAILURE
        }
    }
}
