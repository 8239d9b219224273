//! Columnar window-batch export and the bounded batch fan-out hub.
//!
//! The introspect endpoint streams one JSONL event per core per
//! window — at fleet scale that is hundreds of lines (and hundreds of
//! small writes) per window. [`WindowBatch`] replaces it with one
//! framed columnar record per shard per window round: parallel
//! column vectors across all cores on the shard, with per-unit
//! attribution as a row-major `cores × unit_labels` matrix over the
//! sorted label union. The record family follows the repo-wide
//! framing contract ([`apollo_telemetry::framing`]): schema-versioned
//! `v`, per-shard dense `seq`, and wall-clock data confined to
//! `ts_ns` ([`WindowBatch::strip_timing`] zeroes it for differential
//! byte comparisons).
//!
//! [`BatchHub`] fans batches out to streaming subscribers through the
//! introspect hub's bounded drop-oldest [`Fanout`] core, so both share
//! one backpressure contract: a slow subscriber loses its *oldest*
//! batches (counted, never blocking the shard), and the hub's
//! deepest queue is the admission-control watermark the fleet server
//! sheds on.

use apollo_introspect::hub::{Fanout, Subscription};
use apollo_introspect::CoreWindow;
use apollo_telemetry::framing::{self, Framed};
use std::sync::Arc;

/// Schema version of [`WindowBatch`] records.
pub const BATCH_VERSION: u32 = 1;

/// One framed columnar batch: every core on one shard, one window
/// round. All column vectors are indexed by core position.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WindowBatch {
    /// Schema version ([`BATCH_VERSION`]).
    pub v: u32,
    /// Per-shard dense sequence number (restarts replay suppressed, so
    /// delivered streams stay dense across shard recoveries).
    pub seq: u64,
    /// Wall-clock stamp; the only field allowed to differ between
    /// otherwise identical runs.
    pub ts_ns: u64,
    /// Owning shard index.
    pub shard: u64,
    /// Shard-local window round (every core's `window` equals this
    /// once per round, since cores advance in lockstep rounds).
    pub window: u64,
    /// Core ids, in the shard's stable core order.
    pub cores: Vec<String>,
    /// De-scaled OPM estimate per core.
    pub est_power: Vec<f64>,
    /// Ground-truth mean power per core.
    pub true_power: Vec<f64>,
    /// Raw integer window accumulator per core.
    pub raw: Vec<u64>,
    /// Hardware window output per core.
    pub out: Vec<u64>,
    /// Cumulative drift alarms per core.
    pub alarms: Vec<u64>,
    /// Cumulative estimated energy per core.
    pub energy: Vec<f64>,
    /// Sorted union of the cores' attribution class labels.
    pub unit_labels: Vec<String>,
    /// Row-major `cores × unit_labels` raw attribution matrix; a core
    /// without a given class holds 0 there, so every row still sums
    /// bit-exactly to the core's `raw` entry.
    pub unit_raw: Vec<u64>,
}

impl Framed for WindowBatch {
    const VERSION: u32 = BATCH_VERSION;

    fn version(&self) -> u32 {
        self.v
    }

    fn seq(&self) -> u64 {
        self.seq
    }

    fn check_payload(&self) -> Result<(), String> {
        let n = self.cores.len();
        let cols = [
            ("est_power", self.est_power.len()),
            ("true_power", self.true_power.len()),
            ("raw", self.raw.len()),
            ("out", self.out.len()),
            ("alarms", self.alarms.len()),
            ("energy", self.energy.len()),
        ];
        for (name, len) in cols {
            if len != n {
                return Err(format!("column {name} has {len} rows for {n} cores"));
            }
        }
        if self.unit_raw.len() != n * self.unit_labels.len() {
            return Err(format!(
                "unit_raw has {} cells for {n} cores x {} labels",
                self.unit_raw.len(),
                self.unit_labels.len()
            ));
        }
        if self.unit_labels.windows(2).any(|w| w[0] >= w[1]) {
            return Err("unit_labels must be strictly sorted".into());
        }
        for (name, col) in [("est_power", &self.est_power), ("true_power", &self.true_power), ("energy", &self.energy)] {
            if col.iter().any(|x| !x.is_finite()) {
                return Err(format!("non-finite value in {name}"));
            }
        }
        // The windowed integer invariant, per row: Σ unit_raw == raw.
        let l = self.unit_labels.len();
        for (i, &r) in self.raw.iter().enumerate() {
            let row: u64 = self.unit_raw[i * l..(i + 1) * l].iter().sum();
            if row != r {
                return Err(format!(
                    "core {} unit_raw sums to {row}, raw is {r}",
                    self.cores[i]
                ));
            }
        }
        Ok(())
    }
}

impl WindowBatch {
    /// Builds the batch for one shard round from per-core rows
    /// (`(core id, class labels, window)`), folding each core's raw
    /// attribution into the sorted label union.
    ///
    /// # Panics
    /// Panics if a row's labels and `unit_raw` lengths disagree.
    #[must_use]
    pub fn from_rows(
        shard: u64,
        seq: u64,
        window: u64,
        rows: &[(String, Vec<String>, CoreWindow)],
    ) -> WindowBatch {
        let mut unit_labels: Vec<String> = rows
            .iter()
            .flat_map(|(_, labels, _)| labels.iter().cloned())
            .collect();
        unit_labels.sort();
        unit_labels.dedup();
        let l = unit_labels.len();
        let mut unit_raw = vec![0u64; rows.len() * l];
        for (i, (_, labels, w)) in rows.iter().enumerate() {
            assert_eq!(labels.len(), w.unit_raw.len(), "labels and unit_raw align");
            for (label, &r) in labels.iter().zip(&w.unit_raw) {
                let j = unit_labels
                    .binary_search(label)
                    .expect("label is in the union");
                unit_raw[i * l + j] += r;
            }
        }
        WindowBatch {
            v: BATCH_VERSION,
            seq,
            ts_ns: 0,
            shard,
            window,
            cores: rows.iter().map(|(id, _, _)| id.clone()).collect(),
            est_power: rows.iter().map(|(_, _, w)| w.est_power).collect(),
            true_power: rows.iter().map(|(_, _, w)| w.true_power).collect(),
            raw: rows.iter().map(|(_, _, w)| w.raw).collect(),
            out: rows.iter().map(|(_, _, w)| w.out).collect(),
            alarms: rows.iter().map(|(_, _, w)| w.alarms).collect(),
            energy: rows.iter().map(|(_, _, w)| w.energy).collect(),
            unit_labels,
            unit_raw,
        }
    }

    /// A copy with `ts_ns` zeroed, for differential byte comparisons
    /// (the repo-wide determinism contract confines wall clock to
    /// `ts_ns` fields).
    #[must_use]
    pub fn strip_timing(&self) -> WindowBatch {
        WindowBatch {
            ts_ns: 0,
            ..self.clone()
        }
    }

    /// Projects one core's row into a single-core batch (the
    /// `/cores/<id>/events` wire shape). Returns `None` for an unknown
    /// core id.
    #[must_use]
    pub fn project_core(&self, core: &str, seq: u64) -> Option<WindowBatch> {
        let i = self.cores.iter().position(|c| c == core)?;
        let l = self.unit_labels.len();
        Some(WindowBatch {
            v: BATCH_VERSION,
            seq,
            ts_ns: self.ts_ns,
            shard: self.shard,
            window: self.window,
            cores: vec![self.cores[i].clone()],
            est_power: vec![self.est_power[i]],
            true_power: vec![self.true_power[i]],
            raw: vec![self.raw[i]],
            out: vec![self.out[i]],
            alarms: vec![self.alarms[i]],
            energy: vec![self.energy[i]],
            unit_labels: self.unit_labels.clone(),
            unit_raw: self.unit_raw[i * l..(i + 1) * l].to_vec(),
        })
    }

    /// Serializes to one JSONL line (no trailing newline).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        framing::to_jsonl(self)
    }
}

/// Bounded drop-oldest fan-out of [`WindowBatch`]es, one per shard:
/// the introspect hub's [`Fanout`] core carrying shared batches.
/// Publishing never blocks — a subscriber whose queue is full loses
/// its oldest batch — and the deepest queue ([`Fanout::max_depth`]) is
/// the serving layer's admission-control watermark.
pub type BatchHub = Fanout<Arc<WindowBatch>>;

/// One streaming consumer of a [`BatchHub`].
pub type BatchSubscriber = Subscription<Arc<WindowBatch>>;

/// A batch of one window round, one `(core, power, unit raw)` row per
/// core with unit labels `u0`, `u1`, …
#[cfg(test)]
pub(crate) fn test_batch(
    shard: u64,
    seq: u64,
    window: u64,
    cores: &[(&str, f64, &[u64])],
) -> WindowBatch {
    let rows: Vec<(String, Vec<String>, CoreWindow)> = cores
        .iter()
        .map(|(id, p, raw)| {
            (
                (*id).to_owned(),
                (0..raw.len()).map(|i| format!("u{i}")).collect(),
                CoreWindow {
                    window,
                    est_power: *p,
                    true_power: *p,
                    raw: raw.iter().sum(),
                    out: 0,
                    alarms: 1,
                    energy: *p * 4.0,
                    unit_raw: raw.to_vec(),
                },
            )
        })
        .collect();
    WindowBatch::from_rows(shard, seq, window, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apollo_introspect::Poll;
    use std::time::Duration;

    fn window(raw: &[u64]) -> CoreWindow {
        CoreWindow {
            window: 0,
            est_power: 1.0,
            true_power: 1.5,
            raw: raw.iter().sum(),
            out: raw.iter().sum::<u64>() >> 2,
            alarms: 0,
            energy: 4.0,
            unit_raw: raw.to_vec(),
        }
    }

    #[test]
    fn batch_roundtrips_and_validates() {
        let rows = vec![
            (
                "c0".to_owned(),
                vec!["alu".to_owned(), "fetch".to_owned()],
                window(&[6, 2]),
            ),
            (
                "c1".to_owned(),
                vec!["fetch".to_owned(), "lsu".to_owned()],
                window(&[3, 5]),
            ),
        ];
        let b = WindowBatch::from_rows(2, 7, 3, &rows);
        assert_eq!(b.unit_labels, vec!["alu", "fetch", "lsu"]);
        // c0: alu=6 fetch=2 lsu=0; c1: alu=0 fetch=3 lsu=5.
        assert_eq!(b.unit_raw, vec![6, 2, 0, 0, 3, 5]);
        let line = b.to_jsonl();
        let back: WindowBatch = framing::validate_framed(&line).unwrap();
        assert_eq!(back, b);
        assert_eq!(b.strip_timing(), b, "from_rows leaves ts_ns at 0");
    }

    #[test]
    fn payload_check_rejects_broken_invariant() {
        let rows = vec![(
            "c0".to_owned(),
            vec!["alu".to_owned()],
            window(&[4]),
        )];
        let mut b = WindowBatch::from_rows(0, 0, 0, &rows);
        b.unit_raw[0] = 5;
        let err = framing::validate_framed::<WindowBatch>(&b.to_jsonl()).unwrap_err();
        assert!(err.contains("unit_raw sums"), "{err}");
    }

    #[test]
    fn project_core_keeps_row_invariant() {
        let rows = vec![
            ("a".to_owned(), vec!["alu".to_owned()], window(&[4])),
            ("b".to_owned(), vec!["alu".to_owned()], window(&[9])),
        ];
        let b = WindowBatch::from_rows(0, 0, 5, &rows);
        let p = b.project_core("b", 11).unwrap();
        assert_eq!(p.cores, vec!["b"]);
        assert_eq!(p.seq, 11);
        assert_eq!(p.raw, vec![9]);
        p.check_payload().unwrap();
        assert!(b.project_core("nope", 0).is_none());
    }

    #[test]
    fn hub_drops_oldest_and_reports_watermark() {
        let hub = BatchHub::new(2);
        let (sub, _) = hub.subscribe();
        for seq in 0..4u64 {
            let rows = vec![("c".to_owned(), vec!["alu".to_owned()], window(&[1]))];
            hub.publish(WindowBatch::from_rows(0, seq, seq, &rows));
        }
        assert_eq!(hub.max_depth(), 2);
        assert_eq!(hub.total_dropped(), 2);
        // Oldest two were dropped: delivery starts at seq 2.
        let Poll::Body(b) = sub.poll(Duration::from_millis(100)) else {
            panic!("expected batch");
        };
        assert_eq!(b.seq, 2);
        hub.close();
        let Poll::Body(b) = sub.poll(Duration::from_millis(100)) else {
            panic!("expected drain after close");
        };
        assert_eq!(b.seq, 3);
        assert!(matches!(sub.poll(Duration::from_millis(10)), Poll::Closed));
    }

    #[test]
    fn dropped_subscriber_leaves_no_state() {
        let hub = BatchHub::new(4);
        let (sub, active) = hub.subscribe();
        assert_eq!(active, 1);
        drop(sub);
        assert_eq!(hub.active(), 0);
        assert_eq!(hub.max_depth(), 0);
    }
}
