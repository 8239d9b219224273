//! The runtime introspection pipeline.
//!
//! [`run_monitor`] drives a workload through the cycle-accurate
//! simulator and, every `T`-cycle OPM window, produces:
//!
//! * the quantized OPM estimate (bit-exact with
//!   [`apollo_opm::QuantizedOpm::predict_windows`] on an offline
//!   capture of the same cycles),
//! * the float proxy-model prediction (bit-exact with
//!   [`apollo_core::windowed_eval`] on the same capture),
//! * the ground-truth simulated mean power,
//! * exact per-functional-unit attribution
//!   ([`apollo_opm::attribution`]),
//! * drift-detector updates ([`apollo_opm::drift`]) on the
//!   quantization residual (`est − float`) and the model residual
//!   (`est − truth`), optionally armed onto the core's throttle
//!   actuator,
//! * a typed `introspect.window` telemetry event, gauges/counters/
//!   histograms in the global registry, a [`History`] ring entry, and
//!   a broadcast to the serving hub.
//!
//! Everything except wall-clock timestamps is computed in cycle order
//! from this serial loop, so the whole report is bit-identical across
//! simulator thread counts, and with no hub subscribers the pipeline
//! is observationally identical to an offline `apollo eval`.

use crate::checkpoint::{
    check_compatible, load_snapshot, write_snapshot, CheckpointError, CheckpointPolicy,
    MonitorSnapshot, CHECKPOINT_VERSION,
};
use crate::core::{mark, CoreMonitor, CoreSpec};
use crate::health::HealthRegistry;
use crate::hub::MonitorHub;
use crate::ring::{History, HistoryStats, WindowRecord};
use apollo_core::{ApolloError, ApolloModel, DesignContext};
use apollo_cpu::benchmarks::Benchmark;
use apollo_opm::{ArmConfig, DriftConfig, FailSafeArm};
use apollo_telemetry::{Event, FieldValue, RecordBody};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Monitor pipeline configuration.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MonitorConfig {
    /// OPM window length `T` in cycles (power of two ≥ 4).
    pub window_t: usize,
    /// Weight quantization bits `B`.
    pub bits: u8,
    /// Total cycles to run; 0 = run until the stop flag rises.
    pub cycles: u64,
    /// Ring-buffer history capacity in windows.
    pub history: usize,
    /// Drift-detector settings (shared by both monitors).
    pub drift: DriftConfig,
    /// When set, drift alarms arm the fail-safe throttle floor on the
    /// core's issue-throttle actuator.
    pub arm: Option<ArmConfig>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            window_t: 32,
            bits: 10,
            cycles: 0,
            history: 256,
            drift: DriftConfig::default(),
            arm: None,
        }
    }
}

/// Per-run options orthogonal to the steady-state [`MonitorConfig`]:
/// supervision identity, checkpointing, resume, and deterministic
/// chaos injection.
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Pipeline id: names the checkpoint file, tags every published
    /// `introspect.window` body with a `pipeline` field (so a fleet
    /// multiplexed onto one hub stays attributable), and labels
    /// supervisor events. `None` = untagged single pipeline.
    pub pipeline: Option<String>,
    /// When set, a [`MonitorSnapshot`] is written atomically every
    /// `every_windows` completed windows.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Attempt to resume from the checkpoint file before starting. A
    /// missing, corrupt, or configuration-mismatched checkpoint falls
    /// back to a fresh start (corruption is counted and logged, never
    /// trusted).
    pub resume: bool,
    /// Chaos hook: panic (deterministically) immediately after
    /// completing each listed global window index. Used by the
    /// supervisor chaos harness; empty in production.
    pub panic_at_windows: Vec<u64>,
    /// Fleet health registry: when set, the loop reports one
    /// [`HealthRegistry::report_window`] row per closed window
    /// (windows, checkpoint age, drift alarms, arm state, throttle)
    /// for the server's `/healthz` + `/status` surface.
    pub health: Option<Arc<HealthRegistry>>,
}

impl RunOptions {
    /// The pipeline id, defaulting to `monitor`.
    pub fn pipeline_id(&self) -> &str {
        self.pipeline.as_deref().unwrap_or("monitor")
    }
}

/// Final state of a monitor run, bit-identical across simulator thread
/// counts for the same inputs.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct MonitorReport {
    /// Completed OPM windows.
    pub windows: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Workload runs (1 + restarts after halt).
    pub runs: u64,
    /// Full-stream mean estimated power.
    pub mean_est: f64,
    /// Full-stream peak estimated power.
    pub peak_est: f64,
    /// Full-stream mean ground-truth power.
    pub mean_true: f64,
    /// Cumulative estimated energy (power · cycles).
    pub energy: f64,
    /// Aggregates over the last retained history windows.
    pub tail: HistoryStats,
    /// Attribution class labels, in stable class order.
    pub unit_labels: Vec<String>,
    /// Cumulative estimated energy attributed per class (above the
    /// intercept baseline).
    pub unit_energy: Vec<f64>,
    /// Alarms from the quantization-residual monitor (`est − float`).
    pub quant_alarms: u64,
    /// Alarms from the model-residual monitor (`est − truth`).
    pub truth_alarms: u64,
    /// Windows spent with the fail-safe throttle floor armed.
    pub armed_windows: u64,
    /// Throttle level at the end of the run.
    pub final_throttle: u8,
    /// Windows evicted from the bounded history ring.
    pub history_dropped: u64,
    /// Window index this run resumed from (`None` = fresh start).
    pub resumed_from: Option<u64>,
    /// Checkpoints written during this run.
    pub checkpoints: u64,
}

/// Runs the introspection pipeline for `bench` on `ctx`'s design.
///
/// `hub` receives one `introspect.window` body per window (the same
/// body emitted to the global event sink); `stop` ends the run at the
/// next cycle boundary (the serving layer's `/shutdown` raises it).
///
/// # Errors
/// Returns [`ApolloError::Spec`] for an invalid OPM spec (bad window /
/// bit-width) or a model the quantizer rejects.
pub fn run_monitor(
    ctx: &DesignContext,
    model: &ApolloModel,
    bench: &Benchmark,
    cfg: &MonitorConfig,
    hub: Option<&MonitorHub>,
    stop: &AtomicBool,
) -> Result<MonitorReport, ApolloError> {
    run_monitor_with(ctx, model, bench, cfg, hub, stop, &RunOptions::default())
}

/// [`run_monitor`] with supervision options: checkpointing, resume,
/// pipeline tagging, and deterministic chaos injection.
///
/// Resume restores the durable pipeline state (counters, drift
/// detectors, arm state, energy and history aggregates) from the
/// checkpoint, then reconstructs the exact simulator state by
/// replaying `cycle_in_run` cycles of the deterministic workload from
/// a fresh simulation — so, absent mid-run throttle changes, the
/// post-resume window stream is bit-identical to the uninterrupted
/// run's stream from the checkpoint window onward (machine-checked by
/// `tests/chaos_differential.rs`).
///
/// # Errors
/// Returns [`ApolloError::Spec`] for an invalid OPM spec or a model
/// the quantizer rejects. Checkpoint problems never fail the run: a
/// bad checkpoint falls back to a fresh start, a failed checkpoint
/// write is counted (`introspect.checkpoint.write_errors`) and
/// skipped.
pub fn run_monitor_with(
    ctx: &DesignContext,
    model: &ApolloModel,
    bench: &Benchmark,
    cfg: &MonitorConfig,
    hub: Option<&MonitorHub>,
    stop: &AtomicBool,
    opts: &RunOptions,
) -> Result<MonitorReport, ApolloError> {
    // Causal tracing: adopt the caller's context (the supervisor
    // enters a per-attempt root before calling) or derive this
    // pipeline's own deterministic root. The pipeline span is the
    // ancestor every window span and delivery span walks back to.
    let _root_ctx = if apollo_telemetry::current().is_active() {
        None
    } else {
        Some(apollo_telemetry::enter(apollo_telemetry::TraceCtx::root(
            apollo_telemetry::intern(opts.pipeline_id()),
            0,
        )))
    };
    let _pipeline_span = apollo_telemetry::span("introspect.pipeline");
    let pipeline_id = opts.pipeline_id().to_owned();
    let spec = CoreSpec {
        id: pipeline_id.clone(),
        bench: bench.clone(),
        window_t: cfg.window_t,
        bits: cfg.bits,
        drift: cfg.drift.clone(),
    };
    let mut core = CoreMonitor::new(ctx, model, &spec)?;
    let mut arm = cfg.arm.map(FailSafeArm::new);
    let mut history = History::new(cfg.history);
    let (unit_fields, unit_gauges): (Vec<String>, Vec<String>) = core
        .unit_labels()
        .iter()
        .map(|l| (format!("unit.{l}"), format!("introspect.unit.{l}")))
        .unzip();

    apollo_telemetry::emit_event(
        "introspect.start",
        &[
            ("design", FieldValue::from(model.design_name.as_str())),
            ("bench", FieldValue::from(bench.name.as_str())),
            ("q", FieldValue::from(model.q())),
            ("window_t", FieldValue::from(cfg.window_t)),
        ],
    );

    let ckpt_file = opts
        .checkpoint
        .as_ref()
        .map(|p| (p.file(&pipeline_id), p.every_windows));
    let snap = match &ckpt_file {
        Some((file, _)) if opts.resume => {
            load_resumable(file, &spec, model, core.unit_labels().len())
        }
        _ => None,
    };
    let mut throttle = snap.as_ref().map_or(0, |s| s.throttle);
    let mut checkpoints = 0u64;
    let resumed_from = snap.as_ref().map(|s| s.windows);
    let mut last_ckpt_window = resumed_from.unwrap_or(0);
    if cfg.arm.is_some() {
        core.set_throttle(throttle);
    }
    if let Some(snap) = snap {
        if cfg.arm.is_some() && snap.arm.is_some() {
            arm = snap.arm.clone();
        }
        history = History::resume(cfg.history, &snap.history);
        core.resume(&snap);
    }

    let mut win_span: Option<apollo_telemetry::SpanGuard> = None;
    loop {
        if stop.load(Ordering::Relaxed) || (cfg.cycles > 0 && core.cycles() >= cfg.cycles) {
            break;
        }
        if core.halted() {
            core.restart();
            apollo_telemetry::emit_event(
                "introspect.restart",
                &[
                    ("cycle", FieldValue::from(core.cycles())),
                    ("runs", FieldValue::from(core.runs)),
                ],
            );
            apollo_telemetry::counter("introspect.restarts").inc();
        }
        // One span per OPM window, opened lazily at the window's first
        // cycle and closed after the window's effects are visible.
        if win_span.is_none() {
            win_span = Some(apollo_telemetry::span("introspect.window"));
        }
        let Some(w) = core.step_cycle() else {
            continue;
        };
        // Per-window latency attribution: `_ns` metrics are excluded
        // from determinism comparisons by contract.
        let t2 = mark();
        let row = &w.row;
        let cycle = core.cycles();
        if let Some(arm) = arm.as_mut() {
            let monitor = if w.truth.alarm { "truth" } else { "quant" };
            let floor = arm.update(w.quant.alarm || w.truth.alarm, row.window, monitor);
            if floor != throttle {
                throttle = floor;
                core.set_throttle(throttle);
            }
        }

        // Registry metrics.
        apollo_telemetry::counter("introspect.windows").inc();
        apollo_telemetry::gauge("introspect.est_power").set(row.est_power);
        apollo_telemetry::gauge("introspect.float_power").set(w.float_power);
        apollo_telemetry::gauge("introspect.true_power").set(row.true_power);
        apollo_telemetry::gauge("introspect.energy").set(row.energy);
        apollo_telemetry::gauge("introspect.throttle").set(throttle as f64);
        apollo_telemetry::gauge("introspect.drift.quant.ewma").set(w.quant.ewma);
        apollo_telemetry::gauge("introspect.drift.truth.ewma").set(w.truth.ewma);
        apollo_telemetry::histogram("introspect.window_power_milli")
            .observe((row.est_power.max(0.0) * 1000.0) as u64);
        for (g, p) in unit_gauges.iter().zip(&w.unit_power) {
            apollo_telemetry::gauge(g).set(*p);
        }

        // The typed window event: one body, shared by the global sink
        // and the serving hub. Supervised pipelines tag every body so
        // a fleet multiplexed onto one hub stays attributable.
        let mut fields: Vec<(String, FieldValue)> = vec![
            ("window".to_owned(), FieldValue::from(row.window)),
            ("cycle".to_owned(), FieldValue::from(cycle)),
            ("raw".to_owned(), FieldValue::from(row.raw)),
            ("out".to_owned(), FieldValue::from(row.out)),
            ("est_power".to_owned(), FieldValue::from(row.est_power)),
            ("float_power".to_owned(), FieldValue::from(w.float_power)),
            ("true_power".to_owned(), FieldValue::from(row.true_power)),
            ("energy".to_owned(), FieldValue::from(row.energy)),
            ("throttle".to_owned(), FieldValue::from(throttle)),
        ];
        for (i, name) in unit_fields.iter().enumerate() {
            fields.push((name.clone(), FieldValue::from(row.unit_raw[i])));
        }
        if let Some(tag) = &opts.pipeline {
            fields.push(("pipeline".to_owned(), FieldValue::from(tag.as_str())));
        }
        let t3 = mark();
        if apollo_telemetry::events_enabled() {
            let refs: Vec<(&str, FieldValue)> = fields
                .iter()
                .map(|(k, v)| (k.as_str(), v.clone()))
                .collect();
            apollo_telemetry::emit_event("introspect.window", &refs);
        }
        if let Some(hub) = hub {
            hub.publish(&RecordBody::Event(Event {
                name: "introspect.window".to_owned(),
                fields: fields.clone(),
            }));
        }
        let t4 = mark();
        if let (Some(a), Some(b), Some(c)) = (t2, t3, t4) {
            let sim_ns = std::mem::take(&mut core.sim_ns);
            let opm_ns = std::mem::take(&mut core.opm_ns);
            apollo_telemetry::histogram("introspect.window.sim_ns").observe(sim_ns);
            apollo_telemetry::histogram("introspect.window.opm_ns").observe(opm_ns);
            apollo_telemetry::histogram("introspect.window.attrib_ns")
                .observe(b.duration_since(a).as_nanos() as u64);
            apollo_telemetry::histogram("introspect.window.publish_ns")
                .observe(c.duration_since(b).as_nanos() as u64);
        }

        let window = row.window;
        history.push(WindowRecord {
            window,
            cycle,
            raw: row.raw,
            out: row.out,
            est_power: row.est_power,
            float_power: w.float_power,
            true_power: row.true_power,
            energy: row.energy,
            throttle,
            unit_raw: w.row.unit_raw,
        });

        // Checkpoint at the configured window cadence. The window just
        // closed, so every per-window partial (attribution fill, float
        // accumulator, truth tap) is empty and the snapshot is a pure
        // window-boundary state.
        if let Some((file, every)) = &ckpt_file {
            if (window + 1) % every == 0 {
                let snap = MonitorSnapshot {
                    v: CHECKPOINT_VERSION,
                    pipeline: pipeline_id.clone(),
                    design: model.design_name.clone(),
                    bench: bench.name.clone(),
                    window_t: cfg.window_t,
                    bits: cfg.bits,
                    windows: window + 1,
                    cycle,
                    runs: core.runs,
                    cycle_in_run: core.cycle_in_run,
                    throttle,
                    energy: core.energy,
                    unit_energy: core.unit_energy.clone(),
                    history: history.aggregates(),
                    quant_drift: core.quant_drift.clone(),
                    truth_drift: core.truth_drift.clone(),
                    arm: arm.clone(),
                };
                match write_snapshot(file, &snap) {
                    Ok(bytes) => {
                        checkpoints += 1;
                        last_ckpt_window = window + 1;
                        apollo_telemetry::counter("introspect.checkpoint.writes").inc();
                        apollo_telemetry::emit_event(
                            "introspect.checkpoint.write",
                            &[
                                ("pipeline", FieldValue::from(pipeline_id.as_str())),
                                ("window", FieldValue::from(window + 1)),
                                ("bytes", FieldValue::from(bytes)),
                            ],
                        );
                    }
                    Err(e) => {
                        // Best-effort durability: a failed write skips
                        // this checkpoint, it never stops monitoring.
                        apollo_telemetry::counter("introspect.checkpoint.write_errors").inc();
                        apollo_telemetry::diag(&format!(
                            "pipeline `{pipeline_id}`: checkpoint write failed: {e}"
                        ));
                    }
                }
            }
        }

        if let Some(health) = &opts.health {
            health.report_window(
                &pipeline_id,
                window + 1,
                (window + 1).saturating_sub(last_ckpt_window),
                core.alarms(),
                arm.as_ref().is_some_and(FailSafeArm::armed),
                u64::from(throttle),
            );
        }

        // The window's effects (publish, history, checkpoint, health)
        // are all visible: close its span.
        win_span = None;

        // Chaos hook: a seeded fault plan may demand a panic right
        // after this window's effects became visible (publish +
        // checkpoint), exercising the supervisor's recovery path at a
        // deterministic point.
        if opts.panic_at_windows.contains(&window) {
            panic!("chaos: injected panic at window {window}");
        }
    }
    drop(win_span);

    let windows = history.total_windows();
    apollo_telemetry::emit_event(
        "introspect.shutdown",
        &[
            ("windows", FieldValue::from(windows)),
            ("cycles", FieldValue::from(core.cycles())),
        ],
    );

    Ok(MonitorReport {
        windows,
        cycles: core.cycles(),
        runs: core.runs,
        mean_est: history.mean_est(),
        peak_est: history.peak_est(),
        mean_true: history.mean_true(),
        energy: core.energy,
        tail: history.tail_stats(64),
        unit_labels: core.unit_labels().to_vec(),
        unit_energy: core.unit_energy,
        quant_alarms: core.quant_drift.alarms(),
        truth_alarms: core.truth_drift.alarms(),
        armed_windows: arm.as_ref().map_or(0, |a| a.armed_windows),
        final_throttle: throttle,
        history_dropped: history.dropped(),
        resumed_from,
        checkpoints,
    })
}

/// Loads the pipeline's checkpoint for resume. A missing file is a
/// silent fresh start; corrupt or mismatched state is never trusted:
/// it is counted, logged, and also falls back to a fresh start.
fn load_resumable(
    file: &std::path::Path,
    spec: &CoreSpec,
    model: &ApolloModel,
    n_classes: usize,
) -> Option<MonitorSnapshot> {
    let loaded = load_snapshot(file).and_then(|snap| {
        check_compatible(&snap, spec, &model.design_name, n_classes).map(|()| snap)
    });
    match loaded {
        Ok(snap) => {
            apollo_telemetry::counter("introspect.checkpoint.resumes").inc();
            apollo_telemetry::emit_event(
                "introspect.checkpoint.resume",
                &[
                    ("pipeline", FieldValue::from(spec.id.as_str())),
                    ("window", FieldValue::from(snap.windows)),
                    ("cycle", FieldValue::from(snap.cycle)),
                ],
            );
            Some(snap)
        }
        Err(CheckpointError::Missing) => None,
        Err(e) => {
            apollo_telemetry::counter("introspect.checkpoint.rejected").inc();
            apollo_telemetry::diag(&format!(
                "pipeline `{}`: checkpoint rejected ({e}), starting fresh",
                spec.id
            ));
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::tests::trained_model;
    use apollo_cpu::{benchmarks, CpuConfig};

    #[test]
    fn monitor_runs_and_attribution_sums_per_window() {
        let ctx = DesignContext::new(&CpuConfig::tiny());
        let model = trained_model(&ctx);
        let cfg = MonitorConfig {
            cycles: 256,
            window_t: 32,
            ..MonitorConfig::default()
        };
        let stop = AtomicBool::new(false);
        let report =
            run_monitor(&ctx, &model, &benchmarks::dhrystone(), &cfg, None, &stop).unwrap();
        assert_eq!(report.cycles, 256);
        assert_eq!(report.windows, 8);
        assert_eq!(report.runs, 1);
        assert!(report.mean_est > 0.0, "{report:?}");
        assert!(report.mean_true > 0.0);
        assert!(report.energy > 0.0);
        assert_eq!(report.unit_labels.len(), report.unit_energy.len());
        assert!(!report.unit_labels.is_empty());
    }

    #[test]
    fn stop_flag_ends_an_unbounded_run() {
        let ctx = DesignContext::new(&CpuConfig::tiny());
        let model = trained_model(&ctx);
        let cfg = MonitorConfig {
            cycles: 0,
            window_t: 16,
            ..MonitorConfig::default()
        };
        let stop = AtomicBool::new(true); // raised before the first cycle
        let report =
            run_monitor(&ctx, &model, &benchmarks::dhrystone(), &cfg, None, &stop).unwrap();
        assert_eq!(report.cycles, 0);
        assert_eq!(report.windows, 0);
        assert_eq!(report.mean_est, 0.0, "empty run is all zeros, no NaN");
    }

    #[test]
    fn short_workload_restarts_and_keeps_window_cadence() {
        let ctx = DesignContext::new(&CpuConfig::tiny());
        let model = trained_model(&ctx);
        // A trivial program halts almost immediately, forcing restarts.
        let mut a = apollo_cpu::Asm::new();
        a.addi(apollo_cpu::Xr(1), apollo_cpu::Xr(0), 1);
        a.halt();
        let bench = Benchmark {
            name: "tiny_halt".into(),
            program: a.assemble(),
            data: vec![],
            cycles: 16,
        };
        let cfg = MonitorConfig {
            cycles: 128,
            window_t: 16,
            ..MonitorConfig::default()
        };
        let stop = AtomicBool::new(false);
        let report = run_monitor(&ctx, &model, &bench, &cfg, None, &stop).unwrap();
        assert!(report.runs > 1, "workload must restart: {report:?}");
        assert_eq!(report.windows, 8, "restarts must not skew window cadence");
    }
}
