//! Degrade-don't-die fleet aggregation.
//!
//! The aggregation tier folds shard batches into a fleet-wide view —
//! p50/p99/mean power, per-unit attribution rollups, drift-alarm
//! fan-in — and *never blocks on missing cores*: a shard that is
//! mid-restart, parked `Degraded`, or simply slow shows up as reduced
//! `cores_reporting` against `cores_total`, not as a stalled scrape.
//!
//! State is kept per shard, so parking a shard removes exactly its
//! contribution ([`FleetAggregator::remove_shard`]): the surviving
//! aggregate is bit-identical to a run where the removed cores never
//! existed (the kill-vs-absent differential), because every sum is
//! integer or ordered-fold arithmetic over label- and id-sorted maps —
//! no float accumulation order depends on shard interleaving.

use crate::batch::WindowBatch;
use apollo_opm::AttributionRollup;
use apollo_telemetry::framing::{self, Framed};
use std::collections::BTreeMap;

/// Schema version of [`FleetAggregate`] records.
pub const AGGREGATE_VERSION: u32 = 1;

/// The latest reading from one core.
#[derive(Clone, Debug, PartialEq)]
pub struct CoreSample {
    /// Latest closed window index.
    pub window: u64,
    /// De-scaled OPM estimate for that window.
    pub est_power: f64,
    /// Ground-truth mean power for that window.
    pub true_power: f64,
    /// Cumulative drift alarms.
    pub alarms: u64,
    /// Cumulative estimated energy.
    pub energy: f64,
}

/// One published fleet-wide aggregate (the `/fleet/metrics` payload's
/// structured twin and the final report record).
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FleetAggregate {
    /// Schema version ([`AGGREGATE_VERSION`]).
    pub v: u32,
    /// Dense publication sequence number.
    pub seq: u64,
    /// Wall-clock stamp (zeroed by [`FleetAggregate::comparable`]).
    pub ts_ns: u64,
    /// Highest window index any reporting core has closed.
    pub window: u64,
    /// Cores configured into the fleet.
    pub cores_total: u64,
    /// Cores whose latest window is within the reporting lag of
    /// `window` — the explicit coverage field: consumers see partial
    /// fleets instead of blocking on them.
    pub cores_reporting: u64,
    /// Shards currently parked `Degraded`.
    pub shards_degraded: u64,
    /// Median estimated power across reporting cores (nearest-rank).
    pub p50_power: f64,
    /// 99th-percentile estimated power (nearest-rank).
    pub p99_power: f64,
    /// Mean estimated power across reporting cores.
    pub mean_power: f64,
    /// Drift alarms summed across reporting cores.
    pub alarms: u64,
    /// Cumulative estimated energy summed across reporting cores,
    /// folded in core-id order (deterministic).
    pub energy: f64,
    /// Sorted union of attribution class labels.
    pub unit_labels: Vec<String>,
    /// Fleet-wide raw attribution rollup per label (bit-exact integer
    /// sums over every ingested window of every live shard).
    pub unit_raw: Vec<u64>,
}

impl Framed for FleetAggregate {
    const VERSION: u32 = AGGREGATE_VERSION;

    fn version(&self) -> u32 {
        self.v
    }

    fn seq(&self) -> u64 {
        self.seq
    }

    fn check_payload(&self) -> Result<(), String> {
        if self.unit_labels.len() != self.unit_raw.len() {
            return Err(format!(
                "{} unit labels for {} rollup cells",
                self.unit_labels.len(),
                self.unit_raw.len()
            ));
        }
        if self.cores_total > 0 && self.cores_reporting > self.cores_total {
            return Err(format!(
                "cores_reporting {} exceeds cores_total {}",
                self.cores_reporting, self.cores_total
            ));
        }
        for (name, x) in [
            ("p50_power", self.p50_power),
            ("p99_power", self.p99_power),
            ("mean_power", self.mean_power),
            ("energy", self.energy),
        ] {
            if !x.is_finite() {
                return Err(format!("non-finite {name}"));
            }
        }
        Ok(())
    }
}

impl FleetAggregate {
    /// Serializes to one JSONL line (no trailing newline).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        framing::to_jsonl(self)
    }

    /// A copy with run-shape fields zeroed (`ts_ns`, `seq`,
    /// `cores_total`, `shards_degraded`) for the kill-vs-absent byte
    /// comparison: those four fields legitimately differ between a
    /// fleet that degraded a shard and a fleet configured without it,
    /// while everything the survivors computed must be identical.
    #[must_use]
    pub fn comparable(&self) -> FleetAggregate {
        FleetAggregate {
            ts_ns: 0,
            seq: 0,
            cores_total: 0,
            shards_degraded: 0,
            ..self.clone()
        }
    }
}

#[derive(Default)]
struct ShardAgg {
    rollup: AttributionRollup,
    latest: BTreeMap<String, CoreSample>,
}

/// Streaming fleet aggregator: ingest shard batches, snapshot
/// fleet-wide aggregates at any time.
pub struct FleetAggregator {
    cores_total: u64,
    lag_windows: u64,
    per_shard: BTreeMap<u64, ShardAgg>,
    shards_degraded: u64,
    seq: u64,
}

impl FleetAggregator {
    /// An empty aggregator for a fleet of `cores_total` configured
    /// cores. `lag_windows` is the reporting tolerance: a core whose
    /// latest window trails the fleet maximum by more than this is
    /// excluded from `cores_reporting` (and from the power quantiles)
    /// until it catches up — mixed window cadences and mid-restart
    /// shards degrade coverage instead of skewing quantiles.
    #[must_use]
    pub fn new(cores_total: usize, lag_windows: u64) -> FleetAggregator {
        FleetAggregator {
            cores_total: cores_total as u64,
            lag_windows,
            per_shard: BTreeMap::new(),
            shards_degraded: 0,
            seq: 0,
        }
    }

    /// Folds one shard batch in: refreshes each core's latest sample
    /// and accumulates the shard's attribution rollup.
    pub fn ingest(&mut self, batch: &WindowBatch) {
        let agg = self.per_shard.entry(batch.shard).or_default();
        let l = batch.unit_labels.len();
        for i in 0..batch.cores.len() {
            agg.rollup
                .ingest(&batch.unit_labels, &batch.unit_raw[i * l..(i + 1) * l]);
        }
        for (i, core) in batch.cores.iter().enumerate() {
            agg.latest.insert(
                core.clone(),
                CoreSample {
                    window: batch.window,
                    est_power: batch.est_power[i],
                    true_power: batch.true_power[i],
                    alarms: batch.alarms[i],
                    energy: batch.energy[i],
                },
            );
        }
    }

    /// Removes a parked shard's entire contribution (latest samples
    /// *and* rollup) and counts it degraded. The surviving aggregate
    /// is then bit-identical to a fleet that never had those cores.
    pub fn remove_shard(&mut self, shard: u64) {
        if self.per_shard.remove(&shard).is_some() {
            self.shards_degraded += 1;
        }
    }

    /// Degraded shards so far.
    #[must_use]
    pub fn shards_degraded(&self) -> u64 {
        self.shards_degraded
    }

    /// The latest sample for one core, if it is live.
    #[must_use]
    pub fn core_sample(&self, core: &str) -> Option<&CoreSample> {
        self.per_shard.values().find_map(|s| s.latest.get(core))
    }

    /// Snapshots the fleet-wide aggregate. Pure except for the `seq`
    /// counter; `ts_ns` is the caller's stamp (0 for differential
    /// runs).
    pub fn snapshot(&mut self, ts_ns: u64) -> FleetAggregate {
        let w_max = self
            .per_shard
            .values()
            .flat_map(|s| s.latest.values().map(|c| c.window))
            .max()
            .unwrap_or(0);
        let floor = w_max.saturating_sub(self.lag_windows);
        // Reporting cores in core-id order across shards: BTreeMap
        // iteration makes every fold below order-deterministic.
        let mut reporting: Vec<(&String, &CoreSample)> = self
            .per_shard
            .values()
            .flat_map(|s| s.latest.iter())
            .filter(|(_, c)| c.window >= floor)
            .collect();
        reporting.sort_by(|a, b| a.0.cmp(b.0));
        let mut powers: Vec<f64> = reporting.iter().map(|(_, c)| c.est_power).collect();
        powers.sort_by(f64::total_cmp);
        let nearest_rank = |q: f64| -> f64 {
            if powers.is_empty() {
                return 0.0;
            }
            let rank = (q * powers.len() as f64).ceil().max(1.0) as usize;
            powers[rank.min(powers.len()) - 1]
        };
        let mean = if powers.is_empty() {
            0.0
        } else {
            powers.iter().sum::<f64>() / powers.len() as f64
        };
        let mut rollup = AttributionRollup::new();
        for agg in self.per_shard.values() {
            rollup.merge(&agg.rollup);
        }
        let seq = self.seq;
        self.seq += 1;
        FleetAggregate {
            v: AGGREGATE_VERSION,
            seq,
            ts_ns,
            window: w_max,
            cores_total: self.cores_total,
            cores_reporting: reporting.len() as u64,
            shards_degraded: self.shards_degraded,
            p50_power: nearest_rank(0.50),
            p99_power: nearest_rank(0.99),
            mean_power: mean,
            alarms: reporting.iter().map(|(_, c)| c.alarms).sum(),
            energy: reporting.iter().map(|(_, c)| c.energy).sum(),
            unit_labels: rollup.raw.keys().cloned().collect(),
            unit_raw: rollup.raw.values().copied().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::test_batch as batch;

    #[test]
    fn coverage_counts_lagging_cores_out() {
        let mut agg = FleetAggregator::new(3, 1);
        agg.ingest(&batch(0, 0, 5, &[("a", 1.0, &[2]), ("b", 2.0, &[3])]));
        agg.ingest(&batch(1, 0, 2, &[("c", 9.0, &[4])]));
        let snap = agg.snapshot(0);
        assert_eq!(snap.window, 5);
        assert_eq!(snap.cores_total, 3);
        assert_eq!(snap.cores_reporting, 2, "core c lags past the tolerance");
        // Quantiles over the reporting cores only.
        assert_eq!(snap.p50_power, 1.0);
        assert_eq!(snap.p99_power, 2.0);
        // The rollup still counts every ingested window (history is
        // not coverage).
        assert_eq!(snap.unit_raw.iter().sum::<u64>(), 9);
        snap.check_payload().unwrap();
    }

    #[test]
    fn remove_shard_equals_absent_shard() {
        let mk = |with_shard1: bool| {
            let mut agg = FleetAggregator::new(if with_shard1 { 4 } else { 2 }, 2);
            agg.ingest(&batch(0, 0, 0, &[("a", 1.0, &[2]), ("b", 2.0, &[3])]));
            if with_shard1 {
                agg.ingest(&batch(1, 0, 0, &[("c", 5.0, &[7]), ("d", 6.0, &[8])]));
            }
            agg.ingest(&batch(0, 1, 1, &[("a", 1.5, &[4]), ("b", 2.5, &[5])]));
            if with_shard1 {
                agg.remove_shard(1);
            }
            agg.snapshot(123)
        };
        let killed = mk(true);
        let absent = mk(false);
        assert_eq!(killed.cores_reporting, absent.cores_reporting);
        assert_eq!(
            killed.comparable().to_jsonl(),
            absent.comparable().to_jsonl(),
            "survivor aggregate must be byte-identical"
        );
        assert_eq!(killed.shards_degraded, 1);
        assert_eq!(absent.shards_degraded, 0);
    }

    #[test]
    fn empty_fleet_snapshots_cleanly() {
        let mut agg = FleetAggregator::new(0, 2);
        let snap = agg.snapshot(0);
        assert_eq!(snap.cores_reporting, 0);
        assert_eq!(snap.p50_power, 0.0);
        snap.check_payload().unwrap();
        let line = snap.to_jsonl();
        let back: FleetAggregate = framing::validate_framed(&line).unwrap();
        assert_eq!(back, snap);
    }
}
