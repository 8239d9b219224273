//! `design-n1`: the design-time flow on the paper-scale `n1` core —
//! train a model from GA stress tests, then evaluate it on the
//! held-out Table-4 suite.

use crate::common::{build, median, train, Outcome, Sizes};
use crate::trace::Tracer;
use apollo_suite::core::{ApolloModel, DesignContext};
use apollo_suite::cpu::CpuConfig;
use apollo_suite::mlkit::metrics;
use apollo_suite::telemetry::counter;
use std::time::{Duration, Instant};

/// SimPool trace-level parallelism: the fastest `n1` configuration.
const THREADS: usize = 2;

struct Iteration {
    train_s: f64,
    eval_s: f64,
    cycles: u64,
    digest: u64,
    nrmse_bits: u64,
    model: ApolloModel,
}

fn iteration(tr: &mut Tracer, ctx: &DesignContext, sz: &Sizes, seed: u64) -> Iteration {
    let sim_cycles = counter("sim.cycles");
    let c0 = sim_cycles.get();
    let t0 = Instant::now();
    let trained = train(tr, ctx, sz.n1_ga, sz.n1_q, sz.suite, seed);
    let t1 = Instant::now();
    let suite = ctx.test_suite(sz.eval_scale);
    let trace = tr.span("core.capture", || {
        let t = ctx.capture_suite(&suite, 400);
        let n = t.n_cycles() as u64;
        (t, n)
    });
    let pred = tr.span("core.predict", || {
        let p = trained.model.predict_full(&trace.toggles);
        let n = p.len() as u64;
        (p, n)
    });
    let nrmse = 100.0 * metrics::nrmse(&trace.labels(), &pred);
    let eval_s = t1.elapsed().as_secs_f64();
    Iteration {
        train_s: t1.duration_since(t0).as_secs_f64(),
        eval_s,
        cycles: sim_cycles.get() - c0,
        digest: trained.digest,
        nrmse_bits: nrmse.to_bits(),
        model: trained.model,
    }
}

/// Runs iterations until `budget` has passed (at least `min` of them).
fn phase(
    tr: &mut Tracer,
    ctx: &DesignContext,
    sz: &Sizes,
    seed: u64,
    budget: Duration,
    min: usize,
) -> Vec<Iteration> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || t0.elapsed() < budget {
        let open = tr.begin("iteration");
        out.push(iteration(tr, ctx, sz, seed));
        tr.end(open, 1);
    }
    out
}

/// Returns the outcome plus the design context and model, which the
/// traced run's layer replays reuse.
pub fn run(
    tr: &mut Tracer,
    sz: &Sizes,
    seed: u64,
    seconds: f64,
) -> (Outcome, DesignContext, ApolloModel) {
    let mut o = Outcome::default();
    let cfg = CpuConfig::neoverse_like();
    let open = tr.begin("setup");
    let mut ctx = None;
    // A context build takes well under a millisecond: repeat it enough
    // for a steady median.
    for _ in 0..3 * sz.setups.max(1) {
        let (c, s) = build(tr, &cfg, THREADS);
        o.setup_s.push(s);
        ctx = Some(c);
    }
    tr.end(open, sz.setups as u64);
    let ctx = ctx.expect("at least one set-up");
    o.notes.push(format!(
        "design `{}`: {} signal bits; GA {}x{}, Q={}, threads={THREADS}",
        cfg.name,
        ctx.m_bits(),
        sz.n1_ga.0,
        sz.n1_ga.1,
        sz.n1_q
    ));

    let budget = Duration::from_secs_f64(seconds);
    let mut iters = if tr.enabled() {
        // One untraced and one traced iteration: their ratio is the
        // tracing overhead, and they still check each other.
        tr.set_enabled(false);
        let mut v = phase(tr, &ctx, sz, seed, Duration::ZERO, 1);
        tr.set_enabled(true);
        let open = tr.begin("run");
        let traced = phase(tr, &ctx, sz, seed, Duration::ZERO, 1);
        tr.end(open, 1);
        let time = |i: &Iteration| i.train_s + i.eval_s;
        o.overhead_pct = Some(100.0 * (time(&traced[0]) / time(&v[0]) - 1.0));
        v.extend(traced);
        v
    } else {
        phase(tr, &ctx, sz, seed, budget, 2)
    };

    let first = (iters[0].digest, iters[0].nrmse_bits);
    for (k, it) in iters.iter().enumerate() {
        o.train_s.push(it.train_s);
        o.eval_s.push(it.eval_s);
        o.sample(it.cycles, it.train_s + it.eval_s);
        o.check(it.digest == first.0, || {
            format!(
                "iteration {k}: model digest {:016x} != {:016x}",
                it.digest, first.0
            )
        });
        o.check(it.nrmse_bits == first.1, || {
            format!(
                "iteration {k}: test NRMSE {} != {}",
                f64::from_bits(it.nrmse_bits),
                f64::from_bits(first.1)
            )
        });
    }
    o.test_nrmse_pct = Some(f64::from_bits(first.1));
    o.notes.push(format!(
        "{} iterations, model digest {:016x}, median train {:.3} s",
        iters.len(),
        first.0,
        median(&o.train_s)
    ));
    let model = iters.pop().expect("at least one iteration").model;
    (o, ctx, model)
}
