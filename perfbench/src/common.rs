//! Pieces every workload shares: sizes, the model-training pipeline,
//! the per-workload outcome, and small statistics helpers.

use crate::load::ScrapeStats;
use crate::trace::Tracer;
use apollo_suite::core::{
    run_ga, train_per_cycle, ApolloModel, DesignContext, FeatureSpace, GaConfig, TrainOptions,
};
use apollo_suite::cpu::CpuConfig;
use apollo_suite::telemetry::counter;
use std::time::Instant;

/// Input sizes. `full` is what the benchmark measures; `smoke` is the
/// minimal pass the self-tests run.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// GA population × generations and proxy count for the `n1` model.
    pub n1_ga: (usize, usize),
    pub n1_q: usize,
    /// Table-4 window scale of the held-out evaluation.
    pub eval_scale: f64,
    /// GA and proxy count of the `tiny` model the other workloads use.
    pub tiny_ga: (usize, usize),
    pub tiny_q: usize,
    /// Training suite: benchmarks × cycles each.
    pub suite: (usize, usize),
    /// Open-loop scrape rate. Both endpoints poll `accept` every 20 ms,
    /// so one connection at a time is served at under 50 requests/s; a
    /// rate above that only measures a growing backlog.
    pub scrape_hz: u32,
    /// Fleet size and window rounds per fleet run.
    pub fleet_cores: usize,
    pub fleet_rounds: u64,
    /// Emulator-flow cycles per lane per capture.
    pub emu_cycles: usize,
    /// Cycles (or calls) per layer replay in the traced run.
    pub layer_cycles: usize,
    /// Requests per route and phase in the HTTP layer replays.
    pub layer_requests: u64,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            setups: 5,
            n1_ga: (16, 12),
            n1_q: 64,
            eval_scale: 1.0,
            tiny_ga: (8, 2),
            tiny_q: 32,
            suite: (120, 100),
            scrape_hz: 40,
            fleet_cores: 32,
            fleet_rounds: 24,
            emu_cycles: 1024,
            layer_cycles: 2048,
            layer_requests: 20,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            setups: 2,
            n1_ga: (4, 1),
            n1_q: 8,
            eval_scale: 0.02,
            tiny_ga: (4, 1),
            tiny_q: 8,
            suite: (8, 64),
            scrape_hz: 40,
            fleet_cores: 4,
            fleet_rounds: 32,
            emu_cycles: 128,
            layer_cycles: 256,
            layer_requests: 4,
        }
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub train_s: Vec<f64>,
    pub eval_s: Vec<f64>,
    pub test_nrmse_pct: Option<f64>,
    /// Simulated core-cycles and the host seconds they took, in total
    /// and as the rate of each timed slice.
    pub cycles: u64,
    pub busy_s: f64,
    pub rates: Vec<f64>,
    pub scrapes: Option<ScrapeStats>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Traced vs untraced end-to-end rate, when traced.
    pub overhead_pct: Option<f64>,
    /// `introspect.hub.dropped` of a serving run, when there was one.
    pub hub_dropped: Option<u64>,
    /// Facts about the inputs, for the report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation, failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records one timed slice of simulation.
    pub fn sample(&mut self, cycles: u64, secs: f64) {
        self.cycles += cycles;
        self.busy_s += secs;
        self.rates.push(cycles as f64 / secs.max(1e-9));
    }

    /// Median slice rate: robust to a burst of host noise in one slice.
    pub fn core_cycles_per_s(&self) -> f64 {
        median(&self.rates)
    }
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile (`q` in 0..=1); NaN for an empty sample.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// splitmix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the design context (the `cpu.build` layer).
pub fn build(tr: &mut Tracer, cfg: &CpuConfig, threads: usize) -> (DesignContext, f64) {
    let t0 = Instant::now();
    let ctx = tr.span("cpu.build", || {
        (DesignContext::with_threads(cfg, threads), 1)
    });
    (ctx, t0.elapsed().as_secs_f64())
}

/// A trained model and its digest (proxy bits, weights, intercept).
pub struct Trained {
    pub model: ApolloModel,
    pub digest: u64,
    /// Host seconds the whole pipeline took.
    pub secs: f64,
}

pub fn model_digest(m: &ApolloModel) -> u64 {
    let mut h = mix(m.intercept.to_bits(), m.proxies.len() as u64);
    for p in &m.proxies {
        h = mix(h ^ p.bit as u64, p.weight.to_bits());
    }
    h
}

/// The training pipeline: `run_ga` → training-suite capture →
/// `FeatureSpace::build` → `train_per_cycle`, one span per layer call.
pub fn train(
    tr: &mut Tracer,
    ctx: &DesignContext,
    ga: (usize, usize),
    q: usize,
    suite: (usize, usize),
    seed: u64,
) -> Trained {
    let t0 = Instant::now();
    let cycles = counter("sim.cycles");
    let run = tr.span("core.ga", || {
        let c0 = cycles.get();
        let run = run_ga(
            ctx,
            &GaConfig {
                population: ga.0,
                generations: ga.1,
                threads: ctx.threads,
                seed,
                ..GaConfig::default()
            },
        );
        (run, cycles.get() - c0)
    });
    let suite = run.training_suite(suite.0, suite.1, ctx.handles.config.dram_words);
    let trace = tr.span("core.capture", || {
        let t = ctx.capture_suite(&suite, 400);
        let n = t.n_cycles() as u64;
        (t, n)
    });
    let fs = tr.span("core.features", || {
        let fs = FeatureSpace::build(&trace.toggles);
        let n = fs.n_candidates() as u64;
        (fs, n)
    });
    let model = tr.span("mlkit.mcp", || {
        let opts = TrainOptions {
            q_target: q,
            ..TrainOptions::default()
        };
        let m = train_per_cycle(&trace, ctx.netlist(), &fs, &opts).model;
        let q = m.q() as u64;
        (m, q)
    });
    let digest = model_digest(&model);
    Trained {
        model,
        digest,
        secs: t0.elapsed().as_secs_f64(),
    }
}
