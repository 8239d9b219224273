//! Introspection serving-layer overhead benchmark.
//!
//! Measures the monitor pipeline's ns/cycle in two interleaved
//! configurations: offline (no hub, no server — the `apollo eval`
//! equivalent path) and serving (TCP endpoint bound, one live
//! `/events` subscriber draining the stream). The serving overhead
//! must stay under the 3% budget: the endpoint is sampled from the
//! hot loop only once per `T`-cycle window and never blocks on a slow
//! reader (budget from `budgets.toml`, default 3%). Writes
//! `results/repro_introspect.json` and appends a run record to the
//! results store.
//!
//! Set `APOLLO_QUICK=1` for a smoke run.

use apollo_bench::pipeline::save_json;
use apollo_core::{train_per_cycle, DesignContext, FeatureSpace, TrainOptions};
use apollo_cpu::{benchmarks, CpuConfig};
use apollo_introspect::{
    http_get_lines, run_monitor, serve_with, MonitorConfig, MonitorHub, ServerOptions,
};
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

const DEFAULT_BUDGET_PCT: f64 = 3.0;
const ATTEMPTS: usize = 3;

fn monitor_ns_per_cycle(
    ctx: &DesignContext,
    model: &apollo_core::ApolloModel,
    bench: &benchmarks::Benchmark,
    cfg: &MonitorConfig,
    hub: Option<&MonitorHub>,
) -> f64 {
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let report = run_monitor(ctx, model, bench, cfg, hub, &stop).expect("monitor run");
    let ns = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(report.energy);
    ns / cfg.cycles as f64
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

#[derive(Debug, serde::Serialize)]
struct IntrospectOverhead {
    cycles_per_rep: u64,
    reps: usize,
    offline_a_ns_per_cycle: f64,
    offline_b_ns_per_cycle: f64,
    /// A/B delta between the two offline sets, in percent — the
    /// measurement noise floor.
    offline_noise_pct: f64,
    serving_ns_per_cycle: f64,
    serving_overhead_pct: f64,
    /// Windows streamed to the draining subscriber per serving rep.
    windows_per_rep: u64,
    budget_pct: f64,
    pass: bool,
}

fn measure(
    ctx: &DesignContext,
    model: &apollo_core::ApolloModel,
    bench: &benchmarks::Benchmark,
    cfg: &MonitorConfig,
    reps: usize,
    budget_pct: f64,
) -> IntrospectOverhead {
    // Interleave offline and serving reps so slow drift (frequency
    // scaling, cache warmth) hits both configurations equally.
    let mut a = Vec::with_capacity(reps);
    let mut b = Vec::with_capacity(reps);
    let mut s = Vec::with_capacity(reps);
    for _ in 0..reps {
        a.push(monitor_ns_per_cycle(ctx, model, bench, cfg, None));

        // Serving rep: endpoint bound, one /events subscriber
        // draining the stream for the whole run.
        let stop = Arc::new(AtomicBool::new(false));
        let hub = MonitorHub::new(1024);
        let server =
            serve_with("127.0.0.1:0", Arc::clone(&hub), Arc::clone(&stop), ServerOptions::default())
                .expect("bind bench endpoint");
        let addr = server.addr().to_string();
        let drain = std::thread::spawn(move || http_get_lines(&addr, "/events", None));
        s.push(monitor_ns_per_cycle(ctx, model, bench, cfg, Some(&hub)));
        hub.close();
        server.stop();
        let _ = drain.join().expect("drain thread");

        b.push(monitor_ns_per_cycle(ctx, model, bench, cfg, None));
    }
    let offline_a = median(&mut a);
    let offline_b = median(&mut b);
    let offline = offline_a.min(offline_b);
    let serving = median(&mut s);

    IntrospectOverhead {
        cycles_per_rep: cfg.cycles,
        reps,
        offline_a_ns_per_cycle: offline_a,
        offline_b_ns_per_cycle: offline_b,
        offline_noise_pct: 100.0 * (offline_a - offline_b).abs() / offline,
        serving_ns_per_cycle: serving,
        serving_overhead_pct: 100.0 * (serving - offline) / offline,
        windows_per_rep: cfg.cycles / cfg.window_t as u64,
        budget_pct,
        pass: false,
    }
}

fn main() -> ExitCode {
    apollo_bench::init_cli_verbosity();
    let quick = std::env::var("APOLLO_QUICK").is_ok();
    let (cycles, reps) = if quick { (8_000u64, 3) } else { (32_000u64, 7) };
    let budget_pct = apollo_results::budget_max_or(
        "repro_introspect",
        "serving_overhead_pct",
        DEFAULT_BUDGET_PCT,
    );

    let ctx = DesignContext::new(&CpuConfig::tiny());
    let suite = vec![
        (benchmarks::dhrystone(), 300),
        (benchmarks::maxpwr_cpu(), 300),
    ];
    let trace = ctx.capture_suite(&suite, 50);
    let fs = FeatureSpace::build(&trace.toggles);
    let model = train_per_cycle(
        &trace,
        ctx.netlist(),
        &fs,
        &TrainOptions {
            q_target: 16,
            ..TrainOptions::default()
        },
    )
    .model;
    let bench = benchmarks::maxpwr_cpu();
    // T = 256 is at the small end of the paper's OPM window range
    // (2^7..2^17 cycles); serving cost is per-window, so the budget is
    // stated against a realistic window, not a stress-test T.
    let cfg = MonitorConfig {
        cycles,
        window_t: 256,
        ..MonitorConfig::default()
    };

    // One unmeasured warmup run to settle lazy init and caches.
    monitor_ns_per_cycle(&ctx, &model, &bench, &cfg, None);

    let mut out = measure(&ctx, &model, &bench, &cfg, reps, budget_pct);
    for attempt in 1..ATTEMPTS {
        if out.serving_overhead_pct < budget_pct {
            break;
        }
        eprintln!(
            "attempt {attempt}: serving overhead {:.2}% over budget (noise {:.2}%), remeasuring",
            out.serving_overhead_pct, out.offline_noise_pct
        );
        out = measure(&ctx, &model, &bench, &cfg, reps, budget_pct);
    }
    out.pass = out.serving_overhead_pct < budget_pct;

    println!("== Introspection serving overhead on the monitor loop ==");
    println!(
        "offline:  {:.1} ns/cycle (A {:.1}, B {:.1}; noise {:.2}%)",
        out.offline_a_ns_per_cycle.min(out.offline_b_ns_per_cycle),
        out.offline_a_ns_per_cycle,
        out.offline_b_ns_per_cycle,
        out.offline_noise_pct
    );
    println!(
        "serving:  {:.1} ns/cycle ({:+.2}%, budget {budget_pct}%) over {} windows/rep",
        out.serving_ns_per_cycle, out.serving_overhead_pct, out.windows_per_rep
    );
    save_json("repro_introspect", &out);
    apollo_results::record_bench_run_soft(
        "repro_introspect",
        &out,
        &[("quick", if quick { "1" } else { "0" })],
    );
    if out.pass {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAIL: serving overhead exceeds {budget_pct}%");
        ExitCode::FAILURE
    }
}
