//! The run-time serving workloads.
//!
//! * `monitor-serve`: `run_monitor` on one `tiny` core at the smallest
//!   window, with one `/events` subscriber and an open-loop `/metrics`
//!   scraper — the per-window layers do the most work per cycle here.
//! * `fleet-serve`: bounded, unpaced `run_fleet` runs over a 32-core
//!   mixed fleet on 2 shards, with a `/fleet/events` subscriber and an
//!   open-loop scraper alternating fleet and per-core metrics — the
//!   shard/batch/aggregate layers do the work, amortised over windows
//!   8–16× longer.

use crate::common::{build, mix, train, Outcome, Sizes};
use crate::load::{self, ScrapeStats, StreamStats};
use crate::trace::Tracer;
use apollo_suite::core::{ApolloModel, DesignContext};
use apollo_suite::cpu::{benchmarks, CpuConfig};
use apollo_suite::fleet::{
    run_fleet, serve_fleet, shard_cores, CoreSpec, FleetConfig, FleetReport, FleetServerHandle,
    FleetServerOptions, ShardRuntime, WindowBatch,
};
use apollo_suite::introspect::{
    run_monitor_with, serve_with, HealthRegistry, MonitorConfig, MonitorHub, MonitorReport,
    RunOptions, ServerHandle, ServerOptions, StatusSnapshot,
};
use apollo_suite::telemetry::framing::validate_framed;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The CLI's default OPM window: the smallest, so per-window work
/// dominates.
pub const MONITOR_T: usize = 32;
const FLEET_T: usize = 256;
const BITS: u8 = 10;
const SHARDS: usize = 2;
const READY_LIMIT: Duration = Duration::from_secs(20);
/// Throughput sampling period of the monitor's timed phase.
const SLICE: Duration = Duration::from_millis(500);

/// A model-ready `tiny` design: context build plus model training
/// (whose time goes to `o.train_s`).
fn prepare(
    tr: &mut Tracer,
    o: &mut Outcome,
    sz: &Sizes,
    seed: u64,
) -> (Arc<DesignContext>, Arc<ApolloModel>) {
    let (ctx, _) = build(tr, &CpuConfig::tiny(), 1);
    let trained = train(tr, &ctx, sz.tiny_ga, sz.tiny_q, sz.suite, mix(seed, 1));
    o.train_s.push(trained.secs);
    (Arc::new(ctx), Arc::new(trained.model))
}

fn interval(sz: &Sizes) -> Duration {
    Duration::from_secs_f64(1.0 / f64::from(sz.scrape_hz))
}

/// A seeded start offset within one scrape interval.
fn phase(sz: &Sizes, seed: u64) -> Duration {
    interval(sz).mul_f64((mix(seed, 7) % 1000) as f64 / 1000.0)
}

/// One live monitor: pipeline thread, hub, health registry, endpoint.
pub struct LiveMonitor {
    pub addr: String,
    pub hub: Arc<MonitorHub>,
    pub health: Arc<HealthRegistry>,
    stop: Arc<AtomicBool>,
    server: ServerHandle,
    pipeline: JoinHandle<Result<MonitorReport, String>>,
}

impl LiveMonitor {
    /// Binds the endpoint, starts the pipeline, and waits for the
    /// first `/status` scrape that reports a closed window.
    pub fn start(
        tr: &mut Tracer,
        ctx: &Arc<DesignContext>,
        model: &Arc<ApolloModel>,
    ) -> Result<LiveMonitor, String> {
        let hub = MonitorHub::new(1024);
        let health = Arc::new(HealthRegistry::new());
        let stop = load::flag();
        let opts = ServerOptions {
            health: Some(Arc::clone(&health)),
            ..ServerOptions::default()
        };
        let server = serve_with("127.0.0.1:0", Arc::clone(&hub), Arc::clone(&stop), opts)
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.addr().to_string();
        let pipeline = {
            let (ctx, model, hub, stop) = (
                Arc::clone(ctx),
                Arc::clone(model),
                Arc::clone(&hub),
                Arc::clone(&stop),
            );
            let opts = RunOptions {
                health: Some(Arc::clone(&health)),
                ..RunOptions::default()
            };
            std::thread::spawn(move || {
                let cfg = MonitorConfig {
                    window_t: MONITOR_T,
                    bits: BITS,
                    ..MonitorConfig::default()
                };
                let bench = benchmarks::maxpwr_cpu();
                run_monitor_with(&ctx, &model, &bench, &cfg, Some(&hub), &stop, &opts)
                    .map_err(|e| e.to_string())
            })
        };
        let live = LiveMonitor {
            addr,
            hub,
            health,
            stop,
            server,
            pipeline,
        };
        let ready = tr.span("introspect.first_scrape", || {
            let r = load::wait_ready(&live.addr, "/status", READY_LIMIT, |lines| {
                lines
                    .first()
                    .and_then(|l| StatusSnapshot::validate_line(l).ok())
                    .is_some_and(|s| s.pipelines.iter().any(|p| p.windows >= 1))
            });
            (r, 1)
        });
        match ready {
            Ok(()) => Ok(live),
            Err(e) => {
                let _ = live.stop();
                Err(e)
            }
        }
    }

    /// Windows the pipeline has closed so far.
    pub fn windows(&self) -> u64 {
        self.health
            .snapshot(Vec::new())
            .pipelines
            .iter()
            .map(|p| p.windows)
            .sum()
    }

    /// Stops the pipeline and the endpoint (ending every stream).
    pub fn stop(self) -> Result<MonitorReport, String> {
        self.stop.store(true, Ordering::Relaxed);
        self.hub.close();
        let report = self
            .pipeline
            .join()
            .map_err(|_| "monitor thread panicked".to_owned())?;
        self.server.stop();
        report
    }
}

pub fn monitor(
    tr: &mut Tracer,
    sz: &Sizes,
    seed: u64,
    seconds: f64,
) -> Result<(Outcome, Arc<DesignContext>, Arc<ApolloModel>), String> {
    let mut o = Outcome::default();
    let open = tr.begin("setup");
    let mut live = None;
    let mut prepared = None;
    for _ in 0..sz.setups.max(1) {
        if let Some(old) = live.take() {
            LiveMonitor::stop(old)?;
        }
        let t0 = Instant::now();
        let (ctx, model) = prepare(tr, &mut o, sz, seed);
        live = Some(LiveMonitor::start(tr, &ctx, &model)?);
        o.setup_s.push(t0.elapsed().as_secs_f64());
        prepared = Some((ctx, model));
    }
    tr.end(open, sz.setups as u64);
    let (live, (ctx, model)) = (live.expect("a set-up"), prepared.expect("a set-up"));
    o.notes.push(format!(
        "tiny core, maxpwr_cpu, T={MONITOR_T}, Q={}; /metrics every {:?}, one /events subscriber",
        model.q(),
        interval(sz)
    ));

    let stop_sub = load::flag();
    let sub = {
        let (addr, stop) = (live.addr.clone(), Arc::clone(&stop_sub));
        std::thread::spawn(move || load::monitor_events(&addr, &stop))
    };
    let routes = vec![("metrics".to_owned(), "/metrics".to_owned())];
    let mut scrapes = ScrapeStats::default();
    // Timed phase: the monitor runs under scrape load for `seconds`
    // (half untraced, half traced in a traced run), sampled in slices.
    let mut slice = |tr: &mut Tracer, o: &mut Outcome, secs: f64, salt: u64| {
        let open = tr.begin("run");
        let n = (secs * f64::from(sz.scrape_hz)).ceil() as u64;
        let scraper = {
            let (addr, routes) = (live.addr.clone(), routes.clone());
            let (iv, ph) = (interval(sz), phase(sz, mix(seed, salt)));
            std::thread::spawn(move || {
                load::open_loop(&addr, &routes, iv, ph, n, &AtomicBool::new(false))
            })
        };
        let (t0, w0) = (Instant::now(), live.windows());
        let (mut t, mut w) = (t0, w0);
        while !scraper.is_finished() {
            std::thread::sleep(SLICE);
            let (t1, w1) = (Instant::now(), live.windows());
            o.sample(
                (w1 - w) * MONITOR_T as u64,
                t1.duration_since(t).as_secs_f64(),
            );
            (t, w) = (t1, w1);
        }
        let st = scraper.join().map_err(|_| "scraper panicked".to_owned())?;
        let (dt, windows) = (t.duration_since(t0), w - w0);
        tr.record("introspect.monitor.serving", t0, dt, windows);
        tr.record("introspect.http.scrape", t0, dt, st.attempted);
        tr.end(open, windows);
        scrapes.merge(st);
        Ok::<_, String>((windows * MONITOR_T as u64, dt.as_secs_f64()))
    };
    if tr.enabled() {
        tr.set_enabled(false);
        let (c0, s0) = slice(tr, &mut o, seconds / 2.0, 2)?;
        tr.set_enabled(true);
        let (c1, s1) = slice(tr, &mut o, seconds / 2.0, 3)?;
        o.overhead_pct = Some(100.0 * ((c0 as f64 / s0) / (c1 as f64 / s1) - 1.0));
    } else {
        slice(tr, &mut o, seconds, 2)?;
    }

    o.hub_dropped = Some(live.hub.total_dropped());
    let report = live.stop();
    stop_sub.store(true, Ordering::Relaxed);
    let events = sub.join().map_err(|_| "subscriber panicked".to_owned())?;
    match report {
        Ok(r) => o.notes.push(format!(
            "monitor closed {} windows over {} cycles",
            r.windows, r.cycles
        )),
        Err(e) => o.check(false, || format!("monitor: {e}")),
    }
    check_scrapes(&mut o, &scrapes);
    check_stream(&mut o, "/events", &events);
    o.notes
        .push(format!("/events: {} records checked", events.records));
    o.scrapes = Some(scrapes);
    Ok((o, ctx, model))
}

fn check_scrapes(o: &mut Outcome, st: &ScrapeStats) {
    o.attempted += st.attempted;
    o.failed += st.failed;
    if let Some(e) = &st.first_error {
        o.failures
            .push(format!("{} failed scrapes, first: {e}", st.failed));
    }
}

fn check_stream(o: &mut Outcome, path: &str, st: &StreamStats) {
    o.attempted += st.records;
    o.failed += st.bad;
    if let Some(e) = &st.first_error {
        o.failures
            .push(format!("{path}: {} bad records, first: {e}", st.bad));
    }
    o.check(st.records > 0, || format!("{path}: no records received"));
}

/// The fleet: `CoreSpec::fleet`'s recipe in a seeded order. Even cores
/// run window T and odd cores 2T; the order keeps each shard's share of
/// both equal, so no shard idles while the other finishes.
pub fn fleet_specs(n: usize, seed: u64) -> Vec<CoreSpec> {
    let all = CoreSpec::fleet(n, FLEET_T, BITS);
    let shuffled = |mut v: Vec<CoreSpec>, salt: u64| {
        for i in (1..v.len()).rev() {
            v.swap(i, (mix(seed, salt + i as u64) % (i as u64 + 1)) as usize);
        }
        v
    };
    let (even, odd): (Vec<_>, Vec<_>) = all.into_iter().partition(|s| s.window_t == FLEET_T);
    let (even, odd) = (shuffled(even, 100), shuffled(odd, 200));
    let mut out = Vec::with_capacity(n);
    for (e, o) in even.chunks(SHARDS).zip(odd.chunks(SHARDS)) {
        out.extend_from_slice(e);
        out.extend_from_slice(o);
    }
    out
}

/// One fleet run behind its own endpoint (`rounds` = 0: until stopped).
pub struct LiveFleet {
    pub addr: String,
    runtime: Arc<ShardRuntime>,
    pub stop: Arc<AtomicBool>,
    server: FleetServerHandle,
    run: JoinHandle<FleetReport>,
}

impl LiveFleet {
    pub fn start(
        tr: &mut Tracer,
        ctx: &Arc<DesignContext>,
        model: &Arc<ApolloModel>,
        specs: &[CoreSpec],
        rounds: u64,
    ) -> Result<LiveFleet, String> {
        let shards = shard_cores(specs.to_vec(), SHARDS);
        let cfg = FleetConfig {
            windows: rounds,
            collect_batches: true,
            ..FleetConfig::default()
        };
        let runtime = ShardRuntime::new(&shards, &cfg);
        let stop = load::flag();
        let server = serve_fleet(
            "127.0.0.1:0",
            Arc::clone(&runtime),
            Arc::clone(&stop),
            FleetServerOptions::default(),
        )
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.addr().to_string();
        let run = {
            let (ctx, model, runtime, stop) = (
                Arc::clone(ctx),
                Arc::clone(model),
                Arc::clone(&runtime),
                Arc::clone(&stop),
            );
            std::thread::spawn(move || run_fleet(&ctx, &model, &shards, &cfg, &runtime, &stop))
        };
        let live = LiveFleet {
            addr,
            runtime,
            stop,
            server,
            run,
        };
        let ready = tr.span("fleet.first_scrape", || {
            // Ready once every core has closed a window: until then
            // `/cores/<id>/metrics` answers 404 for a core whose shard
            // has not published yet.
            let r = load::wait_ready(&live.addr, "/fleet/metrics", READY_LIMIT, |lines| {
                let gauge = |name: &str| {
                    lines.iter().find_map(|l| {
                        l.strip_prefix(name)?
                            .strip_prefix(' ')?
                            .trim()
                            .parse::<f64>()
                            .ok()
                    })
                };
                let (up, total) = (gauge("fleet_cores_reporting"), gauge("fleet_cores_total"));
                up.is_some_and(|u| u >= 1.0 && Some(u) == total)
            });
            (r, 1)
        });
        match ready {
            Ok(()) => Ok(live),
            Err(e) => {
                live.stop.store(true, Ordering::Relaxed);
                let _ = live.finish();
                Err(e)
            }
        }
    }

    /// Waits for the run to end, then closes the endpoint.
    pub fn finish(self) -> Result<FleetReport, String> {
        let report = self
            .run
            .join()
            .map_err(|_| "fleet thread panicked".to_owned());
        self.runtime.close();
        self.server.stop();
        report
    }
}

/// Checks one finished fleet run and returns its simulated core-cycles.
fn check_fleet(o: &mut Outcome, specs: &[CoreSpec], report: &FleetReport) -> u64 {
    o.check(report.degraded() == 0, || {
        format!("{} shards degraded", report.degraded())
    });
    let agg = &report.aggregate;
    o.check(agg.cores_reporting == agg.cores_total, || {
        format!(
            "coverage {}/{} at the end of the run",
            agg.cores_reporting, agg.cores_total
        )
    });
    let mut batch_raw = 0u64;
    let mut bad = None;
    for line in report.outcomes.iter().flat_map(|s| &s.batches) {
        match validate_framed::<WindowBatch>(line) {
            Ok(b) => batch_raw += b.raw.iter().sum::<u64>(),
            Err(e) => bad = Some(e),
        }
    }
    o.check(bad.is_none(), || {
        format!("published batch: {}", bad.clone().unwrap_or_default())
    });
    let rollup: u64 = agg.unit_raw.iter().sum();
    o.check(batch_raw == rollup, || {
        format!("per-core raw sums to {batch_raw}, fleet rollup is {rollup}")
    });
    let t_of = |id: &str| {
        specs
            .iter()
            .find(|s| s.id == id)
            .map_or(0, |s| s.window_t as u64)
    };
    let shards = shard_cores(specs.to_vec(), SHARDS);
    report
        .outcomes
        .iter()
        .map(|s| s.windows * shards[s.shard].iter().map(|c| t_of(&c.id)).sum::<u64>())
        .sum()
}

pub fn fleet(
    tr: &mut Tracer,
    sz: &Sizes,
    seed: u64,
    seconds: f64,
) -> Result<(Outcome, Arc<DesignContext>, Arc<ApolloModel>), String> {
    let mut o = Outcome::default();
    let specs = fleet_specs(sz.fleet_cores, seed);
    let open = tr.begin("setup");
    let mut prepared = None;
    for _ in 0..sz.setups.max(1) {
        let t0 = Instant::now();
        let (ctx, model) = prepare(tr, &mut o, sz, seed);
        let live = LiveFleet::start(tr, &ctx, &model, &specs, sz.fleet_rounds)?;
        o.setup_s.push(t0.elapsed().as_secs_f64());
        live.stop.store(true, Ordering::Relaxed);
        live.finish()?;
        prepared = Some((ctx, model));
    }
    tr.end(open, sz.setups as u64);
    let (ctx, model) = prepared.expect("a set-up");
    o.notes.push(format!(
        "{} cores on {SHARDS} shards, T={FLEET_T}/{}, {} rounds per run, Q={}; scrapes every {:?}",
        specs.len(),
        2 * FLEET_T,
        sz.fleet_rounds,
        model.q(),
        interval(sz)
    ));
    let routes: Vec<(String, String)> = (0..8)
        .flat_map(|k| {
            let core = &specs[(mix(seed, 300 + k) % specs.len() as u64) as usize].id;
            [
                ("fleet_metrics".to_owned(), "/fleet/metrics".to_owned()),
                ("core_metrics".to_owned(), format!("/cores/{core}/metrics")),
            ]
        })
        .collect();

    // One fleet run under load: scrapes and the event subscriber run
    // until the bounded run completes.
    let mut scrapes = ScrapeStats::default();
    let mut records = 0u64;
    let mut run_once = |tr: &mut Tracer,
                        o: &mut Outcome,
                        records: &mut u64,
                        k: u64|
     -> Result<(u64, f64), String> {
        let open = tr.begin("run");
        let t0 = Instant::now();
        let live = LiveFleet::start(tr, &ctx, &model, &specs, sz.fleet_rounds)?;
        let stop_load = load::flag();
        let sub = {
            let (addr, stop) = (live.addr.clone(), Arc::clone(&stop_load));
            std::thread::spawn(move || load::fleet_events(&addr, &stop))
        };
        let scraper = {
            let (addr, stop, routes) = (live.addr.clone(), Arc::clone(&stop_load), routes.clone());
            let (iv, ph) = (interval(sz), phase(sz, mix(seed, 400 + k)));
            std::thread::spawn(move || load::open_loop(&addr, &routes, iv, ph, u64::MAX, &stop))
        };
        let report = live
            .run
            .join()
            .map_err(|_| "fleet thread panicked".to_owned())?;
        let dt = t0.elapsed();
        stop_load.store(true, Ordering::Relaxed);
        let st = scraper.join().map_err(|_| "scraper panicked".to_owned())?;
        live.runtime.close();
        live.server.stop();
        let events = sub.join().map_err(|_| "subscriber panicked".to_owned())?;
        let cycles = check_fleet(o, &specs, &report);
        tr.record("fleet.run", t0, dt, cycles);
        tr.record("fleet.http.scrape", t0, dt, st.attempted);
        tr.end(open, cycles);
        scrapes.merge(st);
        check_stream(o, "/fleet/events", &events);
        *records += events.records;
        o.sample(cycles, dt.as_secs_f64());
        Ok((cycles, dt.as_secs_f64()))
    };
    if tr.enabled() {
        tr.set_enabled(false);
        let (c0, s0) = run_once(tr, &mut o, &mut records, 0)?;
        tr.set_enabled(true);
        let (c1, s1) = run_once(tr, &mut o, &mut records, 1)?;
        o.overhead_pct = Some(100.0 * ((c0 as f64 / s0) / (c1 as f64 / s1) - 1.0));
    } else {
        let t0 = Instant::now();
        let mut k = 0;
        while k == 0 || t0.elapsed().as_secs_f64() < seconds {
            run_once(tr, &mut o, &mut records, k)?;
            k += 1;
        }
        o.notes.push(format!("{k} fleet runs"));
    }
    o.notes
        .push(format!("/fleet/events: {records} batches checked"));
    check_scrapes(&mut o, &scrapes);
    o.scrapes = Some(scrapes);
    Ok((o, ctx, model))
}
