//! Pipeline supervision: panic isolation, deterministic backoff,
//! circuit breaking, and checkpoint-driven recovery.
//!
//! A [`Supervisor`]-style run ([`run_supervised`]) owns a fleet of
//! monitor pipelines (one OS thread each, mixed [`MonitorConfig`]
//! presets over different workloads — the registry shape for
//! fleet-scale serving). Each pipeline executes
//! [`run_monitor_with`](crate::monitor::run_monitor_with) inside
//! `catch_unwind`, so a panicking pipeline is *isolated*: its thread
//! survives, siblings and the serving layer never notice.
//!
//! Recovery policy, in order:
//!
//! 1. **Restart with deterministic backoff.** After the `n`-th
//!    consecutive failure the pipeline waits
//!    [`BackoffPolicy::delay_ms`]`(n)` — a pure function of `n` (no
//!    wall-clock sampling, no jitter), so supervision *decisions* are
//!    byte-identical across reruns of the same fault plan. Restarts
//!    resume from the pipeline's checkpoint when one exists.
//! 2. **Circuit-break to `Degraded`.** After
//!    [`BackoffPolicy::give_up`] consecutive failures the pipeline
//!    stops retrying, emits `introspect.supervisor.degraded`, and
//!    raises the `introspect.supervisor.degraded` gauge exported on
//!    `/metrics` — a scrape sees partial-fleet operation directly.
//!
//! Every supervision step is recorded as a typed [`Decision`]; the
//! per-pipeline decision log serializes to JSON and is the object the
//! chaos differential tests compare byte-for-byte.

use crate::checkpoint::CheckpointPolicy;
use crate::core::CoreSpec;
use crate::health::HealthRegistry;
use crate::hub::MonitorHub;
use crate::monitor::{run_monitor_with, MonitorConfig, MonitorReport, RunOptions};
use apollo_core::{ApolloModel, DesignContext};
use apollo_cpu::benchmarks::Benchmark;
use apollo_telemetry::FieldValue;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic exponential backoff + circuit breaker.
///
/// The delay before restart attempt `n` (1-based consecutive failure
/// count) is `min(base_ms · factor^(n−1), max_ms)` — a pure function
/// of `n` with no randomness, so two supervisors replaying the same
/// fault plan produce identical decision logs.
#[derive(Copy, Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BackoffPolicy {
    /// Delay before the first restart, in milliseconds.
    pub base_ms: u64,
    /// Multiplier applied per additional consecutive failure.
    pub factor: u64,
    /// Delay ceiling in milliseconds.
    pub max_ms: u64,
    /// Consecutive failures that trip the circuit breaker into
    /// [`PipelineState::Degraded`].
    pub give_up: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base_ms: 50,
            factor: 2,
            max_ms: 2_000,
            give_up: 4,
        }
    }
}

impl BackoffPolicy {
    /// Delay before restart after the `n`-th consecutive failure
    /// (`n ≥ 1`). Pure and total: saturates at `max_ms`.
    pub fn delay_ms(&self, n: u32) -> u64 {
        let mut d = self.base_ms;
        for _ in 1..n {
            d = d.saturating_mul(self.factor);
            if d >= self.max_ms {
                return self.max_ms;
            }
        }
        d.min(self.max_ms)
    }
}

/// A deterministic fault to inject into one pipeline: panic right
/// after window `window` completes, but only during run attempt
/// `attempt` (0-based). Attempt scoping is what lets the *resumed* run
/// sail past the window that killed its predecessor.
#[derive(Copy, Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct InjectedPanic {
    /// 0-based run attempt the fault applies to.
    pub attempt: u32,
    /// Global window index after which the pipeline panics.
    pub window: u64,
}

/// One pipeline in the supervised fleet.
#[derive(Clone, Debug)]
pub struct PipelineSpec {
    /// Stable pipeline id (also names the checkpoint file).
    pub id: String,
    /// Workload this pipeline monitors.
    pub bench: Benchmark,
    /// Monitor preset (window, bits, cycles, drift, arm).
    pub cfg: MonitorConfig,
    /// Deterministic chaos faults, attempt-scoped; empty in
    /// production.
    pub faults: Vec<InjectedPanic>,
}

/// Supervisor-level options shared by the whole fleet.
#[derive(Clone, Debug, Default)]
pub struct SupervisorConfig {
    /// Restart/backoff/circuit-breaker policy.
    pub backoff: BackoffPolicy,
    /// Checkpoint cadence; `None` disables durability (every restart
    /// is then a fresh start).
    pub checkpoint: Option<CheckpointPolicy>,
    /// Fleet health registry: when set, every supervision transition
    /// (start, backoff, degraded, completed) and every monitored
    /// window is reported for the `/healthz` + `/status` surface.
    pub health: Option<Arc<HealthRegistry>>,
}

/// Lifecycle state a pipeline ended in.
#[derive(Copy, Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum PipelineState {
    /// The monitor run returned normally.
    Completed,
    /// The circuit breaker tripped: failures reached
    /// [`BackoffPolicy::give_up`].
    Degraded,
}

/// One supervision decision, in per-pipeline program order. The
/// decision log is deterministic for a fixed spec + fault plan; the
/// chaos harness compares its JSON serialization byte-for-byte across
/// reruns.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Decision {
    /// Run attempt `attempt` started (`resume` = from checkpoint).
    Start {
        /// 0-based run attempt.
        attempt: u32,
        /// Whether this attempt asked to resume from a checkpoint.
        resume: bool,
    },
    /// Attempt `attempt` failed (panic or error).
    Failed {
        /// 0-based run attempt.
        attempt: u32,
        /// Normalized failure reason (panic payload or error text).
        reason: String,
    },
    /// Backoff of `delay_ms` before the next attempt.
    Backoff {
        /// Consecutive failure count driving the delay.
        failures: u32,
        /// The deterministic delay.
        delay_ms: u64,
    },
    /// The circuit breaker tripped.
    Degraded {
        /// Consecutive failures at the trip point.
        failures: u32,
    },
    /// The run returned normally after `attempt` attempts.
    Completed {
        /// 0-based run attempt that succeeded.
        attempt: u32,
        /// Total completed windows reported by the monitor.
        windows: u64,
    },
}

/// Final outcome of one supervised pipeline.
#[derive(Clone, Debug, serde::Serialize)]
pub struct PipelineOutcome {
    /// Pipeline id.
    pub id: String,
    /// Terminal state.
    pub state: PipelineState,
    /// Run attempts (1 = no failures).
    pub attempts: u32,
    /// The successful run's report, if the pipeline completed.
    pub report: Option<MonitorReport>,
    /// Full supervision decision log, in order.
    pub decisions: Vec<Decision>,
}

/// Final outcome of a supervised fleet run.
#[derive(Clone, Debug, serde::Serialize)]
pub struct SupervisorReport {
    /// Per-pipeline outcomes, in spec order (deterministic).
    pub pipelines: Vec<PipelineOutcome>,
}

impl SupervisorReport {
    /// Pipelines that ended [`PipelineState::Degraded`].
    pub fn degraded(&self) -> usize {
        self.pipelines
            .iter()
            .filter(|p| p.state == PipelineState::Degraded)
            .count()
    }

    /// The concatenated decision logs in spec order, serialized to
    /// JSON — the byte-comparable supervision transcript.
    pub fn decision_transcript(&self) -> String {
        let logs: Vec<(&str, &Vec<Decision>)> = self
            .pipelines
            .iter()
            .map(|p| (p.id.as_str(), &p.decisions))
            .collect();
        serde_json::to_string(&logs).expect("decision log serializes")
    }
}

/// A mixed-preset fleet over the built-in workloads: `n` pipelines
/// (ids `p{i}-<bench>`) following [`CoreSpec::fleet`]'s recipe, with
/// every other setting taken from `base`. This is the registry shape
/// fleet-scale serving loads from configuration; tests and the CLI use
/// it directly.
pub fn fleet_specs(n: usize, base: &MonitorConfig) -> Vec<PipelineSpec> {
    CoreSpec::fleet(n, base.window_t, base.bits)
        .into_iter()
        .map(|core| PipelineSpec {
            id: format!("p{}", &core.id[1..]),
            bench: core.bench,
            cfg: MonitorConfig {
                window_t: core.window_t,
                bits: core.bits,
                ..base.clone()
            },
            faults: Vec::new(),
        })
        .collect()
}

/// Runs `specs` as a supervised fleet: one thread per pipeline, panic
/// isolation, deterministic backoff, checkpoint-driven resume, and
/// circuit breaking (see module docs). Blocks until every pipeline
/// completes or degrades; `stop` requests a cooperative early stop.
///
/// All pipelines publish into the same `hub` (bodies are tagged with
/// their pipeline id) and the same global telemetry registry.
pub fn run_supervised(
    ctx: &Arc<DesignContext>,
    model: &Arc<ApolloModel>,
    specs: &[PipelineSpec],
    sup: &SupervisorConfig,
    hub: Option<&Arc<MonitorHub>>,
    stop: &Arc<AtomicBool>,
) -> SupervisorReport {
    let degraded_count = AtomicU64::new(0);
    apollo_telemetry::gauge("introspect.supervisor.degraded").set(0.0);
    apollo_telemetry::gauge("introspect.supervisor.pipelines").set(specs.len() as f64);
    let supervise_pipeline = |spec: &PipelineSpec| {
        let unit = Supervision {
            row: &spec.id,
            subject: ("pipeline", FieldValue::from(spec.id.as_str())),
            events: "introspect.supervisor",
            panic_prefix: "panic: ",
            backoff: sup.backoff,
            health: sup.health.as_deref(),
            stop,
        };
        let run = supervise(
            &unit,
            // Attempt 0 also resumes when a checkpoint file exists —
            // that is exactly the kill-the-process recovery path. A
            // missing file is a silent fresh start.
            || sup.checkpoint.is_some(),
            |attempt| {
                let opts = RunOptions {
                    pipeline: Some(spec.id.clone()),
                    checkpoint: sup.checkpoint.clone(),
                    resume: sup.checkpoint.is_some(),
                    panic_at_windows: spec
                        .faults
                        .iter()
                        .filter(|f| f.attempt == attempt)
                        .map(|f| f.window)
                        .collect(),
                    health: sup.health.clone(),
                };
                // Each attempt is one trace: root ids are pure
                // functions of (pipeline id, attempt), so a rerun of
                // the same fault plan produces byte-identical
                // per-pipeline trace streams.
                let _trace = apollo_telemetry::enter(apollo_telemetry::TraceCtx::root(
                    apollo_telemetry::intern(&spec.id),
                    u64::from(attempt),
                ));
                run_monitor_with(ctx, model, &spec.bench, &spec.cfg, hub.map(|h| &**h), stop, &opts)
                    .map(|report| (report.windows, report))
                    .map_err(|e| format!("error: {e}"))
            },
            |degraded| {
                if degraded {
                    let now = degraded_count.fetch_add(1, Ordering::Relaxed) + 1;
                    apollo_telemetry::gauge("introspect.supervisor.degraded").set(now as f64);
                    apollo_telemetry::counter("introspect.supervisor.degradations").inc();
                } else {
                    apollo_telemetry::counter("introspect.supervisor.restarts").inc();
                }
            },
        );
        PipelineOutcome {
            id: spec.id.clone(),
            state: run.state,
            attempts: run.attempts,
            report: run.output,
            decisions: run.decisions,
        }
    };
    let pipelines = std::thread::scope(|scope| {
        let threads: Vec<_> = specs
            .iter()
            .map(|spec| scope.spawn(|| supervise_pipeline(spec)))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("supervision never propagates a panic"))
            .collect()
    });
    SupervisorReport { pipelines }
}

/// How one supervised unit — a monitor pipeline or a fleet shard —
/// names itself; everything else about supervision is shared.
pub struct Supervision<'a> {
    /// Health-registry row the unit reports its state transitions on.
    pub row: &'a str,
    /// Subject field of its events: `("pipeline", id)`, `("shard", k)`.
    pub subject: (&'static str, FieldValue),
    /// Event prefix: `<events>.restart`, `<events>.degraded`.
    pub events: &'static str,
    /// Prefix of a panic's failure reason in the decision log.
    pub panic_prefix: &'static str,
    /// Restart/backoff/circuit-breaker policy.
    pub backoff: BackoffPolicy,
    /// Health registry, when the unit reports one.
    pub health: Option<&'a HealthRegistry>,
    /// Cooperative stop flag: cuts backoff sleeps short.
    pub stop: &'a AtomicBool,
}

/// The result of [`supervise`].
pub struct Supervised<T> {
    /// `Completed` or `Degraded`.
    pub state: PipelineState,
    /// Attempts used (1 = no failures).
    pub attempts: u32,
    /// The successful attempt's output.
    pub output: Option<T>,
    /// Full supervision decision log, in order.
    pub decisions: Vec<Decision>,
}

/// The supervision loop: runs `attempt(n)` for `n = 0, 1, …` behind
/// `catch_unwind` until one returns `Ok((windows, output))` or
/// [`BackoffPolicy::give_up`] consecutive attempts failed (panicked or
/// returned `Err(reason)`). Between failures it sleeps the
/// deterministic backoff, stop-sliced. Every step is logged as a
/// [`Decision`] and mirrored into the health registry; `resume()` is
/// the `Start` decision's resume flag and `on_failure(degraded)` lets
/// the caller account a failure before the restart or degraded event.
pub fn supervise<T>(
    unit: &Supervision<'_>,
    resume: impl Fn() -> bool,
    mut attempt: impl FnMut(u32) -> Result<(u64, T), String>,
    mut on_failure: impl FnMut(bool),
) -> Supervised<T> {
    let report = |state: &str, attempt: u32, stage: u32| {
        if let Some(h) = unit.health {
            h.report_state(unit.row, state, u64::from(attempt), u64::from(stage));
        }
    };
    let mut decisions = Vec::new();
    let mut failures = 0u32;
    let mut n = 0u32;
    loop {
        decisions.push(Decision::Start {
            attempt: n,
            resume: resume(),
        });
        report("starting", n, 0);
        let reason = match catch_unwind(AssertUnwindSafe(|| attempt(n))) {
            Ok(Ok((windows, output))) => {
                decisions.push(Decision::Completed { attempt: n, windows });
                report("completed", n, 0);
                return Supervised {
                    state: PipelineState::Completed,
                    attempts: n + 1,
                    output: Some(output),
                    decisions,
                };
            }
            Ok(Err(reason)) => reason,
            Err(payload) => format!("{}{}", unit.panic_prefix, panic_text(payload.as_ref())),
        };
        failures += 1;
        decisions.push(Decision::Failed {
            attempt: n,
            reason: reason.clone(),
        });
        let degraded = failures >= unit.backoff.give_up;
        on_failure(degraded);
        if degraded {
            decisions.push(Decision::Degraded { failures });
            report("degraded", n, 0);
            apollo_telemetry::emit_event(
                &format!("{}.degraded", unit.events),
                &[
                    (unit.subject.0, unit.subject.1.clone()),
                    ("failures", FieldValue::from(u64::from(failures))),
                ],
            );
            return Supervised {
                state: PipelineState::Degraded,
                attempts: n + 1,
                output: None,
                decisions,
            };
        }
        let delay_ms = unit.backoff.delay_ms(failures);
        decisions.push(Decision::Backoff { failures, delay_ms });
        report("backoff", n + 1, failures);
        apollo_telemetry::emit_event(
            &format!("{}.restart", unit.events),
            &[
                (unit.subject.0, unit.subject.1.clone()),
                ("attempt", FieldValue::from(u64::from(n + 1))),
                ("delay_ms", FieldValue::from(delay_ms)),
                ("reason", FieldValue::from(reason.as_str())),
            ],
        );
        sleep_sliced(delay_ms, unit.stop);
        n += 1;
    }
}

/// Stop-sliced sleep: wakes every 20 ms to poll `stop`, so a
/// `/shutdown` never waits out a long backoff or pacing delay.
pub fn sleep_sliced(ms: u64, stop: &AtomicBool) {
    let mut left = ms;
    while left > 0 && !stop.load(Ordering::Relaxed) {
        let slice = left.min(20);
        std::thread::sleep(Duration::from_millis(slice));
        left -= slice;
    }
}

/// Extracts a stable text from a panic payload (`&str` / `String`
/// payloads; anything else gets a fixed placeholder so decision logs
/// stay deterministic).
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn backoff_is_deterministic_and_saturates() {
        let b = BackoffPolicy {
            base_ms: 10,
            factor: 3,
            max_ms: 200,
            give_up: 5,
        };
        assert_eq!(b.delay_ms(1), 10);
        assert_eq!(b.delay_ms(2), 30);
        assert_eq!(b.delay_ms(3), 90);
        assert_eq!(b.delay_ms(4), 200, "capped");
        assert_eq!(b.delay_ms(40), 200, "no overflow at large n");
        // Pure: same input, same output.
        assert_eq!(b.delay_ms(3), b.delay_ms(3));
    }

    #[test]
    fn fleet_specs_follow_the_mixed_core_recipe() {
        let base = MonitorConfig::default();
        let specs = fleet_specs(6, &base);
        let cores = CoreSpec::fleet(6, base.window_t, base.bits);
        for (p, c) in specs.iter().zip(&cores) {
            assert_eq!(p.id, format!("p{}", &c.id[1..]));
            assert_eq!(p.bench.name, c.bench.name);
            assert_eq!((p.cfg.window_t, p.cfg.bits), (c.window_t, c.bits));
            assert_eq!(p.cfg.history, base.history, "other settings come from base");
        }
        let benches: HashSet<&str> = cores.iter().map(|c| c.bench.name.as_str()).collect();
        assert_eq!(benches.len(), 4, "four distinct workloads");
        assert_eq!(cores[1].window_t, 2 * base.window_t, "odd cores double the window");
        assert_eq!(cores[2].bits, base.bits - 2, "every third core drops two bits");
        let ids: HashSet<&str> = specs.iter().map(|p| p.id.as_str()).collect();
        assert_eq!(ids.len(), 6, "unique ids");
        assert!(specs[0].id.starts_with("p0-") && cores[0].id.starts_with("c0-"));
    }

    #[test]
    fn panic_text_normalizes_payloads() {
        assert_eq!(panic_text(&"boom"), "boom");
        assert_eq!(panic_text(&String::from("boom")), "boom");
        assert_eq!(panic_text(&42u32), "<non-string panic payload>");
    }
}
