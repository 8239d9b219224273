//! One monitored core: the per-cycle OPM recurrence.
//!
//! [`CoreMonitor::step_cycle`] is the only place that steps a
//! monitored workload: simulate one cycle, tap the proxies, run the
//! float proxy model, accumulate exact integer attribution, window the
//! ground truth and, when a window closes, update the drift detectors.
//! [`run_monitor_with`](crate::monitor::run_monitor_with) drives it
//! cycle by cycle (adding the throttle arm, publishing, history,
//! checkpoints and health); a fleet shard interleaves many cores
//! window by window through [`CoreMonitor::step_window`]. Both see the
//! same serial recurrence, so their values are bit-identical across
//! reruns, simulator thread counts, shard counts and core→shard
//! assignments.

use crate::checkpoint::MonitorSnapshot;
use apollo_core::{ApolloError, ApolloModel, DesignContext};
use apollo_cpu::benchmarks::{self, Benchmark};
use apollo_cpu::CpuSim;
use apollo_opm::{
    AttributionAccumulator, AttributionMap, DriftConfig, DriftDetector, DriftSignal, ProxyTaps,
    QuantizedOpm,
};
use apollo_sim::WindowTap;
use std::time::Instant;

/// Configuration of one monitored core.
#[derive(Clone, Debug)]
pub struct CoreSpec {
    /// Stable core id (routing key for `/cores/<id>/…`).
    pub id: String,
    /// The workload this core runs (restarted when it halts).
    pub bench: Benchmark,
    /// OPM window length `T` in cycles (power of two ≥ 4).
    pub window_t: usize,
    /// Weight quantization bits `B`.
    pub bits: u8,
    /// Drift-detector settings (shared by both residual monitors).
    pub drift: DriftConfig,
}

impl CoreSpec {
    /// A mixed-preset fleet of `n` cores (ids `c{i}-<bench>`):
    /// benchmarks cycle through the Table-4 vocabulary, every second
    /// core doubles its window and every third drops quantization
    /// bits, so a fleet exercises heterogeneous window cadences and
    /// meter widths. [`crate::fleet_specs`] derives the supervised
    /// pipeline fleet from the same recipe.
    #[must_use]
    pub fn fleet(n: usize, window_t: usize, bits: u8) -> Vec<CoreSpec> {
        let benches = [
            benchmarks::dhrystone(),
            benchmarks::maxpwr_cpu(),
            benchmarks::saxpy_simd(),
            benchmarks::daxpy(),
        ];
        (0..n)
            .map(|i| {
                let bench = benches[i % benches.len()].clone();
                let window_t = if i % 2 == 1 { window_t * 2 } else { window_t };
                let bits = if i % 3 == 2 { bits.saturating_sub(2).max(4) } else { bits };
                CoreSpec {
                    id: format!("c{i}-{}", bench.name),
                    bench,
                    window_t,
                    bits,
                    drift: DriftConfig::default(),
                }
            })
            .collect()
    }
}

/// One closed OPM window from one core, as a fleet shard batches it.
/// Cumulative fields (`energy`, `alarms`) carry the core's full-stream
/// state so the aggregation tier needs no per-core history.
#[derive(Clone, Debug, PartialEq)]
pub struct CoreWindow {
    /// Zero-based window index for this core.
    pub window: u64,
    /// De-scaled quantized OPM estimate for the window.
    pub est_power: f64,
    /// Ground-truth simulated mean power for the window.
    pub true_power: f64,
    /// Raw integer window accumulator (Σ per-unit raw, bit-exact).
    pub raw: u64,
    /// Hardware window output (`raw >> log2(T)`).
    pub out: u64,
    /// Cumulative drift alarms (quantization + model residual).
    pub alarms: u64,
    /// Cumulative estimated energy (power · cycles).
    pub energy: f64,
    /// Raw integer attribution per class, in the core's class order.
    pub unit_raw: Vec<u64>,
}

/// Everything [`CoreMonitor::step_cycle`] knows about the window it
/// just closed.
pub struct ClosedWindow {
    /// The window row a fleet shard batches.
    pub row: CoreWindow,
    /// Float proxy-model mean power (the quantization reference).
    pub float_power: f64,
    /// Estimated power attributed to each class, in class order.
    pub unit_power: Vec<f64>,
    /// Quantization-residual drift update (`est − float`).
    pub quant: DriftSignal,
    /// Model-residual drift update (`est − truth`).
    pub truth: DriftSignal,
}

/// The per-core pipeline state. Borrows the shared [`DesignContext`]
/// (the simulator holds netlist references), so monitors are
/// constructed on the thread that steps them.
pub struct CoreMonitor<'a> {
    ctx: &'a DesignContext,
    model: &'a ApolloModel,
    bench: Benchmark,
    sim: CpuSim<'a>,
    taps: ProxyTaps,
    acc: AttributionAccumulator,
    wtap: WindowTap,
    pub(crate) quant_drift: DriftDetector,
    pub(crate) truth_drift: DriftDetector,
    unit_labels: Vec<String>,
    toggled: Vec<bool>,
    float_acc: f64,
    window_t: usize,
    /// Issue-throttle override pinned on every workload run, if any.
    throttle: Option<u8>,
    pub(crate) cycle: u64,
    pub(crate) cycle_in_run: u64,
    pub(crate) runs: u64,
    pub(crate) energy: f64,
    pub(crate) unit_energy: Vec<f64>,
    /// Wall-clock ns in the sim / the OPM taps since last taken.
    pub(crate) sim_ns: u64,
    pub(crate) opm_ns: u64,
}

/// A wall-clock mark, taken only while timing is enabled (the disabled
/// path makes no `Instant` syscalls).
pub(crate) fn mark() -> Option<Instant> {
    apollo_telemetry::timing_enabled().then(Instant::now)
}

impl<'a> CoreMonitor<'a> {
    /// Builds the monitor for `spec` against a shared design context
    /// and model.
    ///
    /// # Errors
    /// Returns [`ApolloError::Spec`] for an invalid OPM spec (bad
    /// window / bit-width) or a model the quantizer rejects.
    pub fn new(
        ctx: &'a DesignContext,
        model: &'a ApolloModel,
        spec: &CoreSpec,
    ) -> Result<Self, ApolloError> {
        let opm = QuantizedOpm::from_model(model, spec.bits, spec.window_t)?;
        let map = AttributionMap::from_model(model);
        Ok(CoreMonitor {
            ctx,
            model,
            bench: spec.bench.clone(),
            sim: ctx.simulate(&spec.bench.program, &spec.bench.data),
            taps: ProxyTaps::new(ctx.netlist(), &opm.bits),
            acc: AttributionAccumulator::new(&opm, &map),
            wtap: WindowTap::new(spec.window_t),
            quant_drift: DriftDetector::new("quant", spec.drift.clone()),
            truth_drift: DriftDetector::new("truth", spec.drift.clone()),
            unit_labels: map.classes.iter().map(|c| c.label.clone()).collect(),
            toggled: vec![false; opm.bits.len()],
            float_acc: 0.0,
            window_t: spec.window_t,
            throttle: None,
            cycle: 0,
            cycle_in_run: 0,
            runs: 1,
            energy: 0.0,
            unit_energy: vec![0.0; map.n_classes()],
            sim_ns: 0,
            opm_ns: 0,
        })
    }

    /// Attribution class labels, in the core's stable class order.
    #[must_use]
    pub fn unit_labels(&self) -> &[String] {
        &self.unit_labels
    }

    /// Cycles simulated so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Cumulative drift alarms of both residual monitors.
    #[must_use]
    pub fn alarms(&self) -> u64 {
        self.quant_drift.alarms() + self.truth_drift.alarms()
    }

    /// Whether the current workload run has halted.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.sim.halted()
    }

    fn fresh_sim(&mut self) {
        self.sim = self.ctx.simulate(&self.bench.program, &self.bench.data);
        if let Some(level) = self.throttle.take() {
            self.set_throttle(level);
        }
    }

    /// Starts the next workload run (the workload halted).
    pub fn restart(&mut self) {
        self.runs += 1;
        self.cycle_in_run = 0;
        self.fresh_sim();
    }

    /// Pins the core's issue-throttle override at `level`, for this
    /// and every later workload run.
    pub fn set_throttle(&mut self, level: u8) {
        let h = &self.ctx.handles;
        let sim = self.sim.sim_mut();
        if self.throttle.replace(level).is_none() {
            sim.set_input(h.throttle_override_en, 1);
        }
        sim.set_input(h.throttle_override, u64::from(level));
    }

    /// Restores the durable state of `snap` (a window-boundary
    /// checkpoint of this core) and reconstructs the exact simulator
    /// state by replaying `cycle_in_run` cycles of a fresh workload
    /// run: the sim is deterministic, and replayed cycles feed no
    /// accumulator — their windows were accounted before the snapshot.
    /// Pin the throttle first so the replay sees the same inputs.
    pub fn resume(&mut self, snap: &MonitorSnapshot) {
        self.acc.resume_at(snap.windows);
        self.quant_drift = snap.quant_drift.clone();
        self.truth_drift = snap.truth_drift.clone();
        self.energy = snap.energy;
        self.unit_energy.clone_from(&snap.unit_energy);
        self.cycle = snap.cycle;
        self.runs = snap.runs;
        self.cycle_in_run = snap.cycle_in_run;
        for _ in 0..snap.cycle_in_run {
            debug_assert!(!self.sim.halted(), "cycle_in_run spans a single workload run");
            if self.sim.halted() {
                self.fresh_sim();
            }
            self.sim.step();
        }
    }

    /// Simulates one cycle (restarting a halted workload first) and
    /// returns the window it closed, if any.
    pub fn step_cycle(&mut self) -> Option<ClosedWindow> {
        if self.sim.halted() {
            self.restart();
        }
        let t0 = mark();
        self.sim.step();
        self.cycle += 1;
        self.cycle_in_run += 1;
        let power = self.sim.sim().power();
        {
            let s = self.sim.sim();
            for (k, slot) in self.toggled.iter_mut().enumerate() {
                *slot = self.taps.toggled(s, k);
            }
        }
        let t1 = mark();
        // Float proxy model, in the exact FP order of
        // `ApolloModel::predict_full`: intercept, then proxies in
        // model order — the quantization-drift reference.
        let mut pred = self.model.intercept;
        for (k, p) in self.model.proxies.iter().enumerate() {
            if self.toggled[k] {
                pred += p.weight;
            }
        }
        self.float_acc += pred;

        let window_attr = self.acc.cycle(|k| self.toggled[k]);
        let window_true = self.wtap.push(&power);
        if let (Some(t0), Some(t1), Some(t2)) = (t0, t1, mark()) {
            self.sim_ns += t1.duration_since(t0).as_nanos() as u64;
            self.opm_ns += t2.duration_since(t1).as_nanos() as u64;
        }
        let attr = window_attr?;
        let truth = window_true.expect("attribution and power windows share T");
        let t = self.window_t as f64;
        let est = self.acc.est_power(&attr);
        let float_power = self.float_acc / t;
        self.float_acc = 0.0;
        self.energy += est * t;
        let unit_power: Vec<f64> =
            (0..self.unit_energy.len()).map(|i| self.acc.unit_power(&attr, i)).collect();
        for (e, p) in self.unit_energy.iter_mut().zip(&unit_power) {
            *e += p * t;
        }
        let quant = self.quant_drift.observe(est - float_power);
        let truth_signal = self.truth_drift.observe(est - truth.mean.total);
        Some(ClosedWindow {
            row: CoreWindow {
                window: attr.window,
                est_power: est,
                true_power: truth.mean.total,
                raw: attr.total,
                out: attr.output,
                alarms: self.alarms(),
                energy: self.energy,
                unit_raw: attr.raw,
            },
            float_power,
            unit_power,
            quant,
            truth: truth_signal,
        })
    }

    /// Advances the core until its next OPM window closes and returns
    /// the window row. The workload restarts transparently when it
    /// halts (fleet cores are unbounded by design; the shard decides
    /// how many windows to take).
    pub fn step_window(&mut self) -> CoreWindow {
        loop {
            if let Some(w) = self.step_cycle() {
                return w.row;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use apollo_core::{train_per_cycle, FeatureSpace, TrainOptions};
    use apollo_cpu::CpuConfig;

    /// A small trained model on the tiny core, shared by the monitor
    /// tests.
    pub(crate) fn trained_model(ctx: &DesignContext) -> ApolloModel {
        let suite = vec![
            (benchmarks::dhrystone(), 200),
            (benchmarks::maxpwr_cpu(), 200),
        ];
        let trace = ctx.capture_suite(&suite, 50);
        let fs = FeatureSpace::build(&trace.toggles);
        train_per_cycle(
            &trace,
            ctx.netlist(),
            &fs,
            &TrainOptions {
                q_target: 16,
                ..TrainOptions::default()
            },
        )
        .model
    }

    #[test]
    fn step_window_is_deterministic_and_sum_exact() {
        let ctx = DesignContext::new(&CpuConfig::tiny());
        let model = trained_model(&ctx);
        // maxpwr_cpu at T=32, B=8.
        let spec = CoreSpec::fleet(2, 16, 8).remove(1);
        let run = |spec: &CoreSpec| {
            let mut m = CoreMonitor::new(&ctx, &model, spec).unwrap();
            (0..6).map(|_| m.step_window()).collect::<Vec<_>>()
        };
        let a = run(&spec);
        let b = run(&spec);
        assert_eq!(a, b, "window stream must be bit-identical across reruns");
        for (i, w) in a.iter().enumerate() {
            assert_eq!(w.window, i as u64, "dense per-core windows");
            assert_eq!(
                w.unit_raw.iter().sum::<u64>(),
                w.raw,
                "per-unit attribution must sum bit-exactly"
            );
            assert!(w.est_power.is_finite() && w.true_power.is_finite());
        }
    }

    #[test]
    fn fleet_specs_mix_windows_and_bits() {
        let specs = CoreSpec::fleet(6, 16, 10);
        assert_eq!(specs.len(), 6);
        assert!(specs.iter().any(|s| s.window_t == 32));
        assert!(specs.iter().any(|s| s.bits == 8));
        let ids: std::collections::BTreeSet<_> = specs.iter().map(|s| s.id.clone()).collect();
        assert_eq!(ids.len(), 6, "core ids must be unique");
    }
}
