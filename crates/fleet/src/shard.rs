//! The sharded executor: bulkhead-isolated shard threads with
//! deterministic circuit breakers.
//!
//! Each shard thread owns a disjoint set of cores and advances them
//! in lockstep window rounds, publishing one columnar
//! [`WindowBatch`] per round to its [`BatchHub`] and folding it into
//! the shared [`FleetAggregator`]. The whole attempt runs behind a
//! `catch_unwind` bulkhead: a panicking core takes down *its shard's
//! attempt*, never a sibling shard, the accept loop, or the
//! aggregator.
//!
//! Recovery reuses the supervisor's deterministic circuit breaker
//! ([`BackoffPolicy`], [`Decision`]): a failed attempt backs off
//! `delay_ms(failures)` (pure, jitter-free) and restarts; after
//! `give_up` consecutive failures the shard parks `Degraded`, its
//! cores are removed from the aggregate (coverage drops — nothing
//! blocks), and siblings keep serving. A restarting shard *replays*
//! its already-published rounds with publication suppressed — the
//! cores are deterministic state machines, so the recovered stream is
//! byte-identical to one that never failed, and the per-shard batch
//! `seq` stays dense across restarts.

use crate::aggregate::{FleetAggregate, FleetAggregator};
use crate::batch::{BatchHub, WindowBatch};
use apollo_core::{ApolloModel, DesignContext};
use apollo_introspect::supervisor::{sleep_sliced, supervise, Supervision};
use apollo_introspect::sync::plock;
use apollo_introspect::{
    BackoffPolicy, CoreMonitor, CoreSpec, CoreWindow, Decision, HealthRegistry, PipelineState,
};
use apollo_telemetry::FieldValue;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// A seeded shard-kill instruction: panic shard `shard` immediately
/// after it publishes window round `window` of attempt `attempt`.
/// Purely deterministic — the chaos differentials replay plans and
/// compare transcripts byte for byte.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ShardKill {
    /// Target shard index.
    pub shard: usize,
    /// Window round to die after publishing.
    pub window: u64,
    /// Attempt the kill applies to (0-based); a kill listed only for
    /// attempt 0 lets the restarted attempt run through.
    pub attempt: u32,
}

/// Fleet execution configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Window rounds per shard; 0 = run until the stop flag rises.
    pub windows: u64,
    /// Circuit-breaker backoff shared by every shard.
    pub backoff: BackoffPolicy,
    /// Seeded kill plan (empty in production).
    pub kills: Vec<ShardKill>,
    /// Capture each shard's published batch transcript (stripped of
    /// `ts_ns`) in its [`ShardOutcome`] — differential tests and the
    /// chaos bench turn this on; unbounded serving runs leave it off.
    pub collect_batches: bool,
    /// Target publication cadence: one round per `pace_ms`, anchored
    /// at shard start (a *schedule*, not a per-round sleep). Bounds a
    /// fleet's CPU draw on small machines, and a restarted shard
    /// free-runs through its backlog until it is back on schedule, so
    /// fleet coverage recovers after a kill instead of lagging
    /// forever. 0 = free-running.
    pub pace_ms: u64,
    /// Per-subscriber batch queue bound in each shard hub.
    pub hub_cap: usize,
    /// Aggregation reporting tolerance, in windows (see
    /// [`FleetAggregator::new`]).
    pub lag_windows: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            windows: 16,
            backoff: BackoffPolicy::default(),
            kills: Vec::new(),
            collect_batches: false,
            pace_ms: 0,
            hub_cap: 256,
            lag_windows: 2,
        }
    }
}

/// Shared fleet state wiring the executor to the serving layer: one
/// [`BatchHub`] per shard, the core→shard routing table, the health
/// registry behind `/healthz`, and the aggregation tier.
pub struct ShardRuntime {
    /// One hub per shard, indexed by shard.
    pub hubs: Vec<Arc<BatchHub>>,
    /// Health registry rows (`shard0`, `shard1`, …).
    pub health: Arc<HealthRegistry>,
    /// The shared aggregation tier (lock with [`ShardRuntime::snapshot`]
    /// or [`plock`]).
    pub aggregator: Mutex<FleetAggregator>,
    /// Core id → owning shard index.
    pub core_shard: BTreeMap<String, usize>,
    /// Cores configured across all shards.
    pub cores_total: usize,
}

impl ShardRuntime {
    /// Builds the runtime for an explicit shard layout.
    #[must_use]
    pub fn new(shards: &[Vec<CoreSpec>], cfg: &FleetConfig) -> Arc<ShardRuntime> {
        let cores_total = shards.iter().map(Vec::len).sum();
        let mut core_shard = BTreeMap::new();
        for (k, shard) in shards.iter().enumerate() {
            for spec in shard {
                core_shard.insert(spec.id.clone(), k);
            }
        }
        Arc::new(ShardRuntime {
            hubs: (0..shards.len()).map(|_| BatchHub::new(cfg.hub_cap.max(1))).collect(),
            health: Arc::new(HealthRegistry::new()),
            aggregator: Mutex::new(FleetAggregator::new(cores_total, cfg.lag_windows)),
            core_shard,
            cores_total,
        })
    }

    /// Snapshots the fleet aggregate (locking the aggregation tier).
    pub fn snapshot(&self, ts_ns: u64) -> FleetAggregate {
        plock(&self.aggregator).snapshot(ts_ns)
    }

    /// Closes every shard hub (ends all batch streams).
    pub fn close(&self) {
        for hub in &self.hubs {
            hub.close();
        }
    }
}

/// Terminal state of one shard.
#[derive(Clone, Debug)]
pub struct ShardOutcome {
    /// Shard index.
    pub shard: usize,
    /// `Completed` or `Degraded`.
    pub state: PipelineState,
    /// Attempts used (1 + restarts).
    pub attempts: u32,
    /// Window rounds published.
    pub windows: u64,
    /// The full decision log, in program order.
    pub decisions: Vec<Decision>,
    /// Published batch transcript (`ts_ns`-stripped JSONL), when
    /// [`FleetConfig::collect_batches`] was set.
    pub batches: Vec<String>,
}

/// Final state of a fleet run.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-shard outcomes, in shard order.
    pub outcomes: Vec<ShardOutcome>,
    /// The final fleet aggregate.
    pub aggregate: FleetAggregate,
    /// Cores configured across all shards.
    pub cores_total: usize,
}

impl FleetReport {
    /// Shards parked `Degraded`.
    #[must_use]
    pub fn degraded(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.state == PipelineState::Degraded)
            .count()
    }

    /// The canonical decision transcript: JSON of
    /// `[(shard-label, decisions)]`, byte-comparable across reruns.
    #[must_use]
    pub fn decision_transcript(&self) -> String {
        let rows: Vec<(String, &Vec<Decision>)> = self
            .outcomes
            .iter()
            .map(|o| (format!("shard{}", o.shard), &o.decisions))
            .collect();
        serde_json::to_string(&rows).expect("decision log serializes")
    }
}

/// Round-robin assignment of cores to `n_shards` shards (core `i` →
/// shard `i % n_shards`). Pure, so routing tables are reproducible.
#[must_use]
pub fn shard_cores(specs: Vec<CoreSpec>, n_shards: usize) -> Vec<Vec<CoreSpec>> {
    let n = n_shards.max(1);
    let mut shards: Vec<Vec<CoreSpec>> = (0..n).map(|_| Vec::new()).collect();
    for (i, spec) in specs.into_iter().enumerate() {
        shards[i % n].push(spec);
    }
    shards
}

/// Wall-clock nanoseconds since the Unix epoch (0 if the clock is
/// before it) — the only source of `ts_ns` stamps in this crate.
pub(crate) fn now_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Runs the fleet to completion: one thread per shard, joined in
/// shard order. Returns the per-shard outcomes plus the final
/// aggregate snapshot.
pub fn run_fleet(
    ctx: &Arc<DesignContext>,
    model: &Arc<ApolloModel>,
    shards: &[Vec<CoreSpec>],
    cfg: &FleetConfig,
    runtime: &Arc<ShardRuntime>,
    stop: &Arc<AtomicBool>,
) -> FleetReport {
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .enumerate()
            .map(|(k, specs)| {
                scope.spawn(move || run_shard(ctx, model, k, specs, cfg, runtime, stop))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard threads never propagate panics"))
            .collect()
    });
    let aggregate = runtime.snapshot(0);
    FleetReport {
        outcomes,
        aggregate,
        cores_total: runtime.cores_total,
    }
}

fn run_shard(
    ctx: &DesignContext,
    model: &ApolloModel,
    k: usize,
    specs: &[CoreSpec],
    cfg: &FleetConfig,
    runtime: &ShardRuntime,
    stop: &AtomicBool,
) -> ShardOutcome {
    let shard_id = format!("shard{k}");
    let hub = &runtime.hubs[k];
    // Cadence anchor: all shard threads start together, so pacing
    // against this instant keeps sibling shards aligned and lets a
    // restarted shard catch back up to the fleet schedule.
    let started = std::time::Instant::now();
    let mut batches: Vec<String> = Vec::new();
    // Durable across attempts: the dense batch seq and the published
    // high-water mark (replayed rounds below it are suppressed).
    let mut seq = 0u64;
    let windows_done = Cell::new(0u64);
    let unit = Supervision {
        row: &shard_id,
        subject: ("shard", FieldValue::from(k)),
        events: "fleet.shard",
        panic_prefix: "",
        backoff: cfg.backoff,
        health: Some(&runtime.health),
        stop,
    };
    let run = supervise(
        &unit,
        || windows_done.get() > 0,
        |attempt| {
            let mut monitors: Vec<CoreMonitor<'_>> = specs
                .iter()
                .map(|s| CoreMonitor::new(ctx, model, s).map_err(|e| e.to_string()))
                .collect::<Result<_, String>>()?;
            let labels: Vec<Vec<String>> =
                monitors.iter().map(|m| m.unit_labels().to_vec()).collect();
            let mut round = 0u64;
            while (cfg.windows == 0 || round < cfg.windows) && !stop.load(Ordering::Relaxed) {
                let rows: Vec<(String, Vec<String>, CoreWindow)> = monitors
                    .iter_mut()
                    .enumerate()
                    .map(|(i, m)| (specs[i].id.clone(), labels[i].clone(), m.step_window()))
                    .collect();
                if round >= windows_done.get() {
                    let alarms: u64 = rows.iter().map(|(_, _, w)| w.alarms).sum();
                    let mut batch = WindowBatch::from_rows(k as u64, seq, round, &rows);
                    batch.ts_ns = now_ns();
                    plock(&runtime.aggregator).ingest(&batch);
                    if cfg.collect_batches {
                        batches.push(batch.strip_timing().to_jsonl());
                    }
                    let dropped = hub.publish(batch);
                    if dropped > 0 {
                        apollo_telemetry::counter("fleet.hub.dropped").add(dropped);
                    }
                    seq += 1;
                    windows_done.set(round + 1);
                    apollo_telemetry::counter("fleet.windows").inc();
                    runtime
                        .health
                        .report_window(&shard_id, round + 1, 0, alarms, false, 0);
                    if cfg
                        .kills
                        .iter()
                        .any(|kill| kill.shard == k && kill.window == round && kill.attempt == attempt)
                    {
                        panic!("chaos: injected shard kill after window {round}");
                    }
                    if cfg.pace_ms > 0 {
                        let target_ms = (round + 1).saturating_mul(cfg.pace_ms);
                        let elapsed_ms = started.elapsed().as_millis() as u64;
                        sleep_sliced(target_ms.saturating_sub(elapsed_ms), stop);
                    }
                }
                round += 1;
            }
            Ok((windows_done.get(), ()))
        },
        |degraded| {
            apollo_telemetry::counter("fleet.shard.failures").inc();
            if degraded {
                let mut agg = plock(&runtime.aggregator);
                agg.remove_shard(k as u64);
                apollo_telemetry::gauge("fleet.shards.degraded").set(agg.shards_degraded() as f64);
            }
        },
    );
    ShardOutcome {
        shard: k,
        state: run.state,
        attempts: run.attempts,
        windows: windows_done.get(),
        decisions: run.decisions,
        batches,
    }
}
