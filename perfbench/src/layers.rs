//! Layer replays of the traced run: short calls into each layer's
//! public API on the workload's own design and model, each wrapped in
//! a span named after its per-layer metric. Every traced run makes all
//! of them, so every workload reports the whole per-layer table.

use crate::common::{mix, Sizes};
use crate::load::{self, ScrapeStats};
use crate::serve::{self, LiveMonitor, MONITOR_T};
use crate::trace::Tracer;
use apollo_suite::core::{ApolloModel, DesignContext, SimPool};
use apollo_suite::cpu::{benchmarks, CpuBatch, CpuSim};
use apollo_suite::fleet::{BatchHub, CoreMonitor, FleetAggregator, WindowBatch};
use apollo_suite::introspect::{
    run_monitor, serve_with, HealthRegistry, MonitorConfig, MonitorHub, Poll, ServerOptions,
};
use apollo_suite::opm::{
    AttributionAccumulator, AttributionMap, DriftConfig, DriftDetector, QuantizedOpm,
};
use apollo_suite::sim::EngineKind;
use apollo_suite::telemetry::{prometheus_text, snapshot, Event, FieldValue, RecordBody};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BITS: u8 = 10;
/// Cycles per fresh simulator: below the halt point of `maxpwr_cpu`.
const CHUNK: usize = 1000;

/// Replay results that are not span rates.
#[derive(Debug, Default)]
pub struct Extras {
    /// `introspect.http.scrape_us.*` and `fleet.http.scrape_us.*`
    /// medians.
    pub scrape_us: BTreeMap<String, f64>,
    pub requests: u64,
    pub http_errors: u64,
    pub first_error: Option<String>,
    pub fleet_shed: u64,
    pub hub_dropped: u64,
    pub late_us: Vec<f64>,
}

/// Steps up to `n` cycles on one simulator, stopping early at a halt.
fn step(sim: &mut CpuSim<'_>, n: usize, toggles_only: bool) -> u64 {
    let mut k = 0u64;
    while (k as usize) < n && !sim.halted() {
        if toggles_only {
            sim.step_toggles();
        } else {
            sim.step();
        }
        k += 1;
    }
    k
}

fn sim_layers(tr: &mut Tracer, ctx: &DesignContext, sz: &Sizes) {
    let bench = benchmarks::maxpwr_cpu();
    for (name, toggles_only) in [("sim.step", false), ("sim.step_toggles", true)] {
        for _ in 0..sz.layer_cycles.div_ceil(CHUNK) {
            let mut sim = ctx.simulate_with(&bench.program, &bench.data, 1);
            tr.span(name, || {
                ((), step(&mut sim, CHUNK.min(sz.layer_cycles), toggles_only))
            });
        }
    }
    let lanes: Vec<_> = (0..64)
        .map(|_| (bench.program.clone(), bench.data.clone()))
        .collect();
    let mut batch = CpuBatch::with_threads(&ctx.handles, &ctx.cap, ctx.power.clone(), &lanes, 1);
    let n = (sz.layer_cycles / 8).max(1);
    tr.span("sim.bitslice.step_toggles", || {
        for _ in 0..n {
            batch.step_toggles();
        }
        ((), (n * lanes.len()) as u64)
    });
}

fn core_opm_layers(
    tr: &mut Tracer,
    ctx: &DesignContext,
    model: &ApolloModel,
    sz: &Sizes,
) -> Result<(), String> {
    // Full capture + prediction on a short Table-4 slice.
    let suite = ctx.test_suite(0.02);
    let trace = tr.span("core.capture", || {
        let t = ctx.capture_suite(&suite, 100);
        let n = t.n_cycles() as u64;
        (t, n)
    });
    tr.span("core.predict", || {
        let p = model.predict_full(&trace.toggles);
        (black_box(p), trace.n_cycles() as u64)
    });

    // Proxy-only capture over 64 bitslice lanes, then OPM windows.
    let bitslice = DesignContext::with_engine(&ctx.handles.config, 1, EngineKind::Bitslice);
    let lane_cycles = (sz.layer_cycles / 4).max(MONITOR_T);
    let lanes: Vec<_> = (0..64)
        .map(|_| (benchmarks::maxpwr_cpu(), lane_cycles))
        .collect();
    let bits = model.bits();
    let traces = tr.span("core.capture_proxy", || {
        (
            SimPool::new(1).capture_proxy_suite(&bitslice, &lanes, &bits, 100),
            (64 * lane_cycles) as u64,
        )
    });
    let opm = QuantizedOpm::from_model(model, BITS, MONITOR_T).map_err(|e| e.to_string())?;
    tr.span("opm.window_proxy", || {
        let w: Vec<Vec<u64>> = traces.iter().map(|m| opm.window_outputs_proxy(m)).collect();
        let n = w.iter().map(Vec::len).sum::<usize>() as u64;
        (black_box(w), n)
    });

    // Attribution over the captured proxy toggles, cycle by cycle.
    let map = AttributionMap::from_model(model);
    let mut acc = AttributionAccumulator::new(&opm, &map);
    let q = bits.len();
    let rows: Vec<Vec<bool>> = traces
        .iter()
        .take(8)
        .flat_map(|m| (0..m.n_cycles()).map(move |c| (0..q).map(|k| m.get(k, c)).collect()))
        .collect();
    let est: Vec<f64> = tr.span("opm.attrib", || {
        let mut est = Vec::new();
        for row in &rows {
            if let Some(w) = acc.cycle(|k| row[k]) {
                est.push(acc.est_power(&w));
            }
        }
        (est, rows.len() as u64)
    });
    let mean = est.iter().sum::<f64>() / est.len().max(1) as f64;
    let residuals: Vec<f64> = est.iter().map(|e| e - mean).collect();
    let mut drift = DriftDetector::new("quant", DriftConfig::default());
    let n = (sz.layer_cycles * 8).max(residuals.len());
    tr.span("opm.drift", || {
        for i in 0..n {
            black_box(drift.observe(residuals[i % residuals.len().max(1)]));
        }
        ((), n as u64)
    });
    Ok(())
}

/// A window body shaped like the monitor's `introspect.window` event.
fn window_body(map: &AttributionMap, w: u64) -> RecordBody {
    let mut fields: Vec<(String, FieldValue)> = vec![
        ("window".to_owned(), FieldValue::from(w)),
        ("cycle".to_owned(), FieldValue::from(w * MONITOR_T as u64)),
        ("raw".to_owned(), FieldValue::from(0u64)),
        ("est_power".to_owned(), FieldValue::from(1.5)),
    ];
    for c in &map.classes {
        fields.push((format!("unit.{}", c.label), FieldValue::from(0u64)));
    }
    RecordBody::Event(Event {
        name: "introspect.window".to_owned(),
        fields,
    })
}

fn introspect_layers(
    tr: &mut Tracer,
    ctx: &Arc<DesignContext>,
    model: &Arc<ApolloModel>,
    sz: &Sizes,
    seed: u64,
    ex: &mut Extras,
) -> Result<(), String> {
    let cfg = MonitorConfig {
        window_t: MONITOR_T,
        bits: BITS,
        cycles: (sz.layer_cycles * 2) as u64,
        ..MonitorConfig::default()
    };
    let report = tr.span("introspect.monitor", || {
        let r = run_monitor(
            ctx,
            model,
            &benchmarks::maxpwr_cpu(),
            &cfg,
            None,
            &AtomicBool::new(false),
        );
        let w = r.as_ref().map_or(0, |r| r.windows);
        (r, w)
    });
    report.map_err(|e| e.to_string())?;

    let map = AttributionMap::from_model(model);
    let hub = MonitorHub::new(1024);
    let (sub, _) = hub.subscribe();
    let bodies: Vec<RecordBody> = (0..1000).map(|w| window_body(&map, w)).collect();
    tr.span("introspect.hub.publish", || {
        for b in &bodies {
            hub.publish(b);
        }
        ((), bodies.len() as u64)
    });
    tr.span("introspect.hub.deliver", || {
        let mut n = 0u64;
        while let Poll::Body(b) = sub.poll(Duration::ZERO) {
            black_box(b);
            n += 1;
        }
        ((), n)
    });
    tr.span("telemetry.expose", || {
        for _ in 0..200 {
            black_box(prometheus_text(&snapshot()));
        }
        ((), 200)
    });

    // Scrape latency on an idle endpoint, then on one serving a live
    // monitor with an `/events` subscriber.
    let routes: Vec<(String, String)> = ["metrics", "healthz", "status"]
        .iter()
        .map(|r| ((*r).to_owned(), format!("/{r}")))
        .collect();
    let iv = Duration::from_secs_f64(1.0 / f64::from(sz.scrape_hz));
    let n = sz.layer_requests * routes.len() as u64;
    let stop = load::flag();
    let opts = ServerOptions {
        health: Some(Arc::new(HealthRegistry::new())),
        ..ServerOptions::default()
    };
    let idle = serve_with("127.0.0.1:0", MonitorHub::new(16), Arc::clone(&stop), opts)
        .map_err(|e| format!("bind: {e}"))?;
    let t0 = Instant::now();
    let st = load::open_loop(
        &idle.addr().to_string(),
        &routes,
        iv,
        Duration::ZERO,
        n,
        &AtomicBool::new(false),
    );
    tr.record("introspect.http.idle", t0, t0.elapsed(), st.attempted);
    idle.stop();
    take_scrapes(ex, "introspect.http.scrape_us", "idle", st);

    let live = LiveMonitor::start(tr, ctx, model)?;
    let stop_sub = load::flag();
    let sub = {
        let (addr, stop) = (live.addr.clone(), Arc::clone(&stop_sub));
        std::thread::spawn(move || load::monitor_events(&addr, &stop))
    };
    let t0 = Instant::now();
    let ph = iv.mul_f64((mix(seed, 800) % 1000) as f64 / 1000.0);
    let st = load::open_loop(&live.addr, &routes, iv, ph, n, &AtomicBool::new(false));
    tr.record("introspect.http.loaded", t0, t0.elapsed(), st.attempted);
    ex.hub_dropped += live.hub.total_dropped();
    let report = live.stop();
    stop_sub.store(true, Ordering::Relaxed);
    let events = sub.join().map_err(|_| "subscriber panicked".to_owned())?;
    report?;
    ex.requests += events.records;
    ex.http_errors += events.bad;
    if ex.first_error.is_none() {
        ex.first_error = events.first_error;
    }
    take_scrapes(ex, "introspect.http.scrape_us", "loaded", st);
    Ok(())
}

/// Folds one replay's scrapes in; returns its `503` count.
fn take_scrapes(ex: &mut Extras, prefix: &str, suffix: &str, st: ScrapeStats) -> u64 {
    for (route, v) in &st.latency_us {
        let name = if suffix.is_empty() {
            format!("{prefix}.{route}")
        } else {
            format!("{prefix}.{route}.{suffix}")
        };
        ex.scrape_us.insert(name, crate::common::median(v));
    }
    ex.requests += st.attempted;
    ex.http_errors += st.failed;
    if ex.first_error.is_none() {
        ex.first_error = st.first_error;
    }
    ex.late_us.extend(st.late_us);
    st.shed
}

fn fleet_layers(
    tr: &mut Tracer,
    ctx: &Arc<DesignContext>,
    model: &Arc<ApolloModel>,
    sz: &Sizes,
    seed: u64,
    ex: &mut Extras,
) -> Result<(), String> {
    let specs = serve::fleet_specs(4, seed);
    let mut cores = specs
        .iter()
        .map(|s| CoreMonitor::new(ctx, model, s).map(|m| (s.id.clone(), m)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let rounds = (sz.layer_cycles / 256).max(2) as u64;
    let mut round_rows = Vec::new();
    for _ in 0..rounds {
        let rows = tr.span("fleet.core.step_window", || {
            let rows: Vec<_> = cores
                .iter_mut()
                .map(|(id, m)| {
                    let w = m.step_window();
                    (id.clone(), m.unit_labels().to_vec(), w)
                })
                .collect();
            let n = rows.len() as u64;
            (rows, n)
        });
        round_rows.push(rows);
    }
    let reps = 50u64;
    let batches = tr.span("fleet.batch.build", || {
        let mut out = Vec::new();
        for _ in 0..reps {
            out = round_rows
                .iter()
                .enumerate()
                .map(|(w, rows)| WindowBatch::from_rows(0, w as u64, w as u64, rows))
                .collect();
        }
        (out, reps * rounds)
    });
    let copies: Vec<WindowBatch> = (0..reps).flat_map(|_| batches.iter().cloned()).collect();
    let hub = BatchHub::new(copies.len() + 1);
    let sub = hub.subscribe();
    let n = copies.len() as u64;
    tr.span("fleet.batch.publish", || {
        for b in copies {
            hub.publish(b);
        }
        ((), n)
    });
    drop(sub);
    let mut agg = FleetAggregator::new(specs.len(), 2);
    tr.span("fleet.aggregate.ingest", || {
        for _ in 0..reps {
            for b in &batches {
                agg.ingest(b);
            }
        }
        ((), reps * rounds)
    });
    tr.span("fleet.aggregate.snapshot", || {
        for _ in 0..reps {
            black_box(agg.snapshot(0));
        }
        ((), reps)
    });
    tr.span("fleet.batch.encode", || {
        for _ in 0..reps {
            for b in &batches {
                black_box(b.to_jsonl());
            }
        }
        ((), reps * rounds)
    });

    // Fleet endpoint scrapes while an unbounded fleet runs.
    let live = serve::LiveFleet::start(tr, ctx, model, &specs, 0)?;
    let routes = vec![
        ("fleet_metrics".to_owned(), "/fleet/metrics".to_owned()),
        (
            "core_metrics".to_owned(),
            format!("/cores/{}/metrics", specs[0].id),
        ),
    ];
    let iv = Duration::from_secs_f64(1.0 / f64::from(sz.scrape_hz));
    let t0 = Instant::now();
    let st = load::open_loop(
        &live.addr,
        &routes,
        iv,
        Duration::ZERO,
        2 * sz.layer_requests,
        &AtomicBool::new(false),
    );
    tr.record("fleet.http.loaded", t0, t0.elapsed(), st.attempted);
    live.stop.store(true, Ordering::Relaxed);
    let report = live.finish()?;
    if report.degraded() > 0 {
        ex.http_errors += 1;
        ex.first_error
            .get_or_insert(format!("{} fleet shards degraded", report.degraded()));
    }
    ex.fleet_shed += take_scrapes(ex, "fleet.http.scrape_us", "", st);
    Ok(())
}

/// Runs every layer replay under a `layers` root span.
pub fn pass(
    tr: &mut Tracer,
    ctx: &Arc<DesignContext>,
    model: &Arc<ApolloModel>,
    sz: &Sizes,
    seed: u64,
) -> Result<Extras, String> {
    let mut ex = Extras::default();
    let open = tr.begin("layers");
    sim_layers(tr, ctx, sz);
    core_opm_layers(tr, ctx, model, sz)?;
    introspect_layers(tr, ctx, model, sz, seed, &mut ex)?;
    fleet_layers(tr, ctx, model, sz, seed, &mut ex)?;
    tr.end(open, 1);
    Ok(ex)
}
