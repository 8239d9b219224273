//! `emu-proxy`: the emulator-assisted flow (paper Fig. 16). 64 `tiny`
//! workloads run as lanes of one bit-sliced simulation that records
//! only the Q proxy toggles; the quantized OPM turns each lane's trace
//! into per-window outputs. The only workload on the bitslice engine.

use crate::common::{build, mix, train, Outcome, Sizes};
use crate::trace::Tracer;
use apollo_suite::core::{ApolloModel, DesignContext, SimPool};
use apollo_suite::cpu::benchmarks::{self, Benchmark};
use apollo_suite::cpu::CpuConfig;
use apollo_suite::opm::QuantizedOpm;
use apollo_suite::sim::{EngineKind, ToggleMatrix};
use std::time::Instant;

const LANES: usize = 64;
const WARMUP: usize = 100;
const OPM_T: usize = 32;
const BITS: u8 = 10;

/// Table-4 workloads that run at least `cycles` without halting, so
/// no lane idles in a halted tail during the capture.
fn busy_benchmarks(ctx: &DesignContext, cycles: usize) -> Vec<Benchmark> {
    benchmarks::table4_suite(&ctx.handles.config)
        .into_iter()
        .filter(|b| {
            let mut sim = ctx.simulate_with(&b.program, &b.data, 1);
            (0..cycles).all(|_| {
                sim.step_toggles();
                !sim.halted()
            })
        })
        .collect()
}

/// The seeded 64-lane mix over the busy workloads.
fn lanes(busy: &[Benchmark], cycles: usize, seed: u64) -> Vec<(Benchmark, usize)> {
    (0..LANES)
        .map(|i| {
            (
                busy[(mix(seed, 500 + i as u64) % busy.len() as u64) as usize].clone(),
                cycles,
            )
        })
        .collect()
}

pub struct Emu {
    pub scalar: DesignContext,
    pub bitslice: DesignContext,
    pub model: ApolloModel,
    pub opm: QuantizedOpm,
    pub suite: Vec<(Benchmark, usize)>,
}

fn setup(tr: &mut Tracer, o: &mut Outcome, sz: &Sizes, seed: u64) -> Result<Emu, String> {
    let cfg = CpuConfig::tiny();
    let (scalar, _) = build(tr, &cfg, 1);
    let bitslice = tr.span("cpu.build", || {
        (DesignContext::with_engine(&cfg, 1, EngineKind::Bitslice), 1)
    });
    let trained = train(tr, &scalar, sz.tiny_ga, sz.tiny_q, sz.suite, mix(seed, 1));
    o.train_s.push(trained.secs);
    let model = trained.model;
    let opm = QuantizedOpm::from_model(&model, BITS, OPM_T).map_err(|e| e.to_string())?;
    let busy = busy_benchmarks(&scalar, WARMUP + sz.emu_cycles);
    if busy.is_empty() {
        return Err(format!(
            "no Table-4 workload runs {} cycles without halting",
            WARMUP + sz.emu_cycles
        ));
    }
    let suite = lanes(&busy, sz.emu_cycles, seed);
    Ok(Emu {
        scalar,
        bitslice,
        model,
        opm,
        suite,
    })
}

/// One emulator pass: 64-lane proxy capture, then per-lane OPM windows.
fn pass(tr: &mut Tracer, e: &Emu) -> (Vec<ToggleMatrix>, Vec<Vec<u64>>) {
    let bits = e.model.bits();
    let lane_cycles = (LANES * e.suite[0].1) as u64;
    let traces = tr.span("core.capture_proxy", || {
        (
            SimPool::new(1).capture_proxy_suite(&e.bitslice, &e.suite, &bits, WARMUP),
            lane_cycles,
        )
    });
    let windows = tr.span("opm.window_proxy", || {
        let w: Vec<Vec<u64>> = traces
            .iter()
            .map(|m| e.opm.window_outputs_proxy(m))
            .collect();
        let n = w.iter().map(Vec::len).sum::<usize>() as u64;
        (w, n)
    });
    (traces, windows)
}

pub fn run(tr: &mut Tracer, sz: &Sizes, seed: u64, seconds: f64) -> Result<(Outcome, Emu), String> {
    let mut o = Outcome::default();
    let open = tr.begin("setup");
    let mut emu = None;
    for _ in 0..sz.setups.max(1) {
        let t0 = Instant::now();
        emu = Some(setup(tr, &mut o, sz, seed)?);
        o.setup_s.push(t0.elapsed().as_secs_f64());
    }
    tr.end(open, sz.setups as u64);
    let e = emu.expect("a set-up");
    let mut names: Vec<&str> = e.suite.iter().map(|(b, _)| b.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    o.notes.push(format!(
        "{LANES} bitslice lanes x {} cycles (+{WARMUP} warm-up), Q={}, T={OPM_T}; workloads: {}",
        sz.emu_cycles,
        e.model.q(),
        names.join(", ")
    ));

    let bits = e.model.bits();
    let mut spot_k = 0u64;
    // Each pass is checked: one seeded spot lane re-run alone on the
    // scalar engine must match its bitslice lane bit for bit.
    let mut passes = |tr: &mut Tracer, o: &mut Outcome, secs: f64| -> (u64, f64) {
        let t0 = Instant::now();
        let (mut cycles, mut busy) = (0u64, 0.0f64);
        while cycles == 0 || t0.elapsed().as_secs_f64() < secs {
            let t = Instant::now();
            let (traces, windows) = pass(tr, &e);
            let dt = t.elapsed().as_secs_f64();
            let n = (LANES * e.suite[0].1) as u64;
            o.sample(n, dt);
            busy += dt;
            cycles += n;
            let lane = (mix(seed, 600 + spot_k) % LANES as u64) as usize;
            spot_k += 1;
            let alone = tr.span("core.capture_proxy_scalar", || {
                let m = SimPool::new(1).capture_proxy_suite(
                    &e.scalar,
                    &e.suite[lane..=lane],
                    &bits,
                    WARMUP,
                );
                (m, e.suite[lane].1 as u64)
            });
            let same =
                alone[0] == traces[lane] && e.opm.window_outputs_proxy(&alone[0]) == windows[lane];
            o.check(same, || {
                format!("spot lane {lane}: scalar re-run differs from its bitslice lane")
            });
        }
        (cycles, busy)
    };
    if tr.enabled() {
        tr.set_enabled(false);
        let (c0, s0) = passes(tr, &mut o, seconds / 2.0);
        tr.set_enabled(true);
        let open = tr.begin("run");
        let (c1, s1) = passes(tr, &mut o, seconds / 2.0);
        tr.end(open, c1);
        o.overhead_pct = Some(100.0 * ((c0 as f64 / s0) / (c1 as f64 / s1) - 1.0));
    } else {
        passes(tr, &mut o, seconds);
    }
    o.notes.push(format!(
        "{} passes, {} spot lanes checked",
        o.attempted, spot_k
    ));
    Ok((o, e))
}
