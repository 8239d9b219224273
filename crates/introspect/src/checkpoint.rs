//! Versioned, CRC-guarded checkpoint/resume for monitor pipelines.
//!
//! Every `M` completed windows the monitor serializes its durable
//! state — window/cycle/run counters, the workload phase, drift
//! detector baselines and CUSUM state, fail-safe arm state, energy
//! accumulators and full-stream history aggregates — into a
//! [`MonitorSnapshot`] and writes it *atomically*: serialize to
//! `<file>.tmp`, `fsync`, then `rename` over the live file, so a kill
//! at any byte offset leaves either the previous checkpoint or the new
//! one, never a torn file. The on-disk format is one header line
//! (`APOLLO-CKPT v1 crc32=XXXXXXXX`) followed by the JSON body; the
//! CRC-32 of the body is verified on load, and a corrupt or
//! version-skewed file is rejected (the pipeline then starts fresh
//! instead of resuming from garbage).
//!
//! Restoring a snapshot does **not** re-warm the drift detectors: the
//! frozen baseline (μ, σ), EWMA and both CUSUM sides resume
//! bit-exactly, which is the point — a supervised restart keeps its
//! model-health memory. The simulator itself is *not* serialized;
//! instead the snapshot records how many cycles the current workload
//! run had executed (`cycle_in_run`), and the resuming pipeline
//! replays that many cycles from a fresh deterministic simulation to
//! reconstruct the exact machine state (see
//! [`run_monitor_with`](crate::monitor::run_monitor_with)).

use crate::core::CoreSpec;
use crate::ring::HistoryAggregates;
use apollo_opm::{DriftDetector, FailSafeArm};
use std::io::Write;
use std::path::{Path, PathBuf};

/// On-disk snapshot format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Header magic for checkpoint files.
const MAGIC: &str = "APOLLO-CKPT";

/// Durable monitor-pipeline state, captured at a window boundary.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MonitorSnapshot {
    /// Snapshot format version ([`CHECKPOINT_VERSION`]).
    pub v: u32,
    /// Pipeline id the snapshot belongs to.
    pub pipeline: String,
    /// Design name, matched on resume.
    pub design: String,
    /// Benchmark name, matched on resume.
    pub bench: String,
    /// OPM window length `T`, matched on resume.
    pub window_t: usize,
    /// Weight quantization bits `B`, matched on resume.
    pub bits: u8,
    /// Completed windows (the next window index).
    pub windows: u64,
    /// Cycles simulated (monotonic across workload restarts).
    pub cycle: u64,
    /// Workload runs (1 + restarts after halt).
    pub runs: u64,
    /// Cycles executed since the current workload run started — the
    /// deterministic replay distance needed to reconstruct the
    /// simulator state.
    pub cycle_in_run: u64,
    /// Throttle level at the snapshot point.
    pub throttle: u8,
    /// Cumulative estimated energy.
    pub energy: f64,
    /// Cumulative per-class attributed energy.
    pub unit_energy: Vec<f64>,
    /// Full-stream history aggregates (mean/peak/dropped).
    pub history: HistoryAggregates,
    /// Quantization-residual drift detector, whole state.
    pub quant_drift: DriftDetector,
    /// Model-residual drift detector, whole state.
    pub truth_drift: DriftDetector,
    /// Fail-safe arm state, when the pipeline arms the actuator.
    pub arm: Option<FailSafeArm>,
}

/// Why a checkpoint failed to load.
#[derive(Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file does not exist (a fresh start, not a failure).
    Missing,
    /// I/O error reading the file.
    Io(String),
    /// Bad magic, header, version, or CRC mismatch.
    Corrupt(String),
    /// The snapshot parsed but belongs to a different pipeline
    /// configuration (design/bench/window/bits mismatch).
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Missing => write!(f, "no checkpoint file"),
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CheckpointError::Corrupt(e) => write!(f, "checkpoint corrupt: {e}"),
            CheckpointError::Mismatch(e) => write!(f, "checkpoint mismatch: {e}"),
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the guard
/// on the snapshot body. Bitwise, dependency-free; checkpoint bodies
/// are small so table-driven speed is not needed.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Where and how often a pipeline checkpoints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Directory holding `<pipeline>.ckpt` files.
    pub dir: PathBuf,
    /// Snapshot cadence in completed windows (`M ≥ 1`).
    pub every_windows: u64,
}

impl CheckpointPolicy {
    /// Policy writing to `dir` every `every_windows` windows.
    ///
    /// # Panics
    /// Panics if `every_windows` is zero.
    pub fn new(dir: impl Into<PathBuf>, every_windows: u64) -> Self {
        assert!(every_windows >= 1, "checkpoint cadence must be >= 1");
        CheckpointPolicy {
            dir: dir.into(),
            every_windows,
        }
    }

    /// The checkpoint file for pipeline `id`.
    pub fn file(&self, id: &str) -> PathBuf {
        // Pipeline ids become file names; keep them path-safe.
        let safe: String = id
            .chars()
            .map(|c| if c.is_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
            .collect();
        self.dir.join(format!("{safe}.ckpt"))
    }
}

/// Serializes `snap` and writes it atomically to `path`
/// (write-tmp + fsync + rename). The directory is created if absent.
///
/// Returns the serialized body size in bytes.
///
/// # Errors
/// Returns I/O errors from any step; on error the previous checkpoint
/// (if any) is left untouched.
pub fn write_snapshot(path: &Path, snap: &MonitorSnapshot) -> std::io::Result<u64> {
    let body = serde_json::to_string(snap)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let header = format!("{MAGIC} v{} crc32={:08x}\n", snap.v, crc32(body.as_bytes()));
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let tmp = path.with_extension("ckpt.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(header.as_bytes())?;
        f.write_all(body.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(body.len() as u64)
}

/// Loads and verifies a snapshot: header magic, version, CRC.
///
/// # Errors
/// [`CheckpointError::Missing`] when the file does not exist;
/// [`CheckpointError::Corrupt`] on any header/CRC/parse violation.
pub fn load_snapshot(path: &Path) -> Result<MonitorSnapshot, CheckpointError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(CheckpointError::Missing),
        Err(e) => return Err(CheckpointError::Io(e.to_string())),
    };
    let Some((header, body)) = text.split_once('\n') else {
        return Err(CheckpointError::Corrupt("missing header line".into()));
    };
    let mut parts = header.split_whitespace();
    if parts.next() != Some(MAGIC) {
        return Err(CheckpointError::Corrupt("bad magic".into()));
    }
    let version = parts
        .next()
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|v| v.parse::<u32>().ok())
        .ok_or_else(|| CheckpointError::Corrupt("bad version field".into()))?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::Corrupt(format!(
            "version {version} != supported {CHECKPOINT_VERSION}"
        )));
    }
    let stated = parts
        .next()
        .and_then(|v| v.strip_prefix("crc32="))
        .and_then(|v| u32::from_str_radix(v, 16).ok())
        .ok_or_else(|| CheckpointError::Corrupt("bad crc field".into()))?;
    let actual = crc32(body.as_bytes());
    if stated != actual {
        return Err(CheckpointError::Corrupt(format!(
            "crc mismatch: header {stated:08x}, body {actual:08x}"
        )));
    }
    let snap: MonitorSnapshot = serde_json::from_str(body)
        .map_err(|e| CheckpointError::Corrupt(format!("parse: {e}")))?;
    if snap.v != version {
        return Err(CheckpointError::Corrupt("body/header version skew".into()));
    }
    Ok(snap)
}

/// Validates that `snap` belongs to the pipeline configuration about
/// to resume; a mismatched snapshot must not seed a different design's
/// drift baselines.
///
/// # Errors
/// [`CheckpointError::Mismatch`] naming the first differing field.
pub fn check_compatible(
    snap: &MonitorSnapshot,
    spec: &CoreSpec,
    design: &str,
    classes: usize,
) -> Result<(), CheckpointError> {
    let fields = [
        ("pipeline", snap.pipeline.clone(), spec.id.clone()),
        ("design", snap.design.clone(), design.to_owned()),
        ("bench", snap.bench.clone(), spec.bench.name.clone()),
        ("window_t", snap.window_t.to_string(), spec.window_t.to_string()),
        ("bits", snap.bits.to_string(), spec.bits.to_string()),
        ("attribution classes", snap.unit_energy.len().to_string(), classes.to_string()),
    ];
    match fields.into_iter().find(|(_, got, want)| got != want) {
        Some((what, got, want)) => Err(CheckpointError::Mismatch(format!(
            "{what} `{got}` != `{want}`"
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apollo_opm::{DriftConfig, DriftDetector};

    fn sample_snapshot() -> MonitorSnapshot {
        let mut quant = DriftDetector::new("quant", DriftConfig::default());
        let mut truth = DriftDetector::new("truth", DriftConfig::default());
        for i in 0..40 {
            quant.observe(0.01 * ((i % 7) as f64 - 3.0));
            truth.observe(0.02 * ((i % 5) as f64 - 2.0));
        }
        MonitorSnapshot {
            v: CHECKPOINT_VERSION,
            pipeline: "p0".into(),
            design: "tiny".into(),
            bench: "dhrystone".into(),
            window_t: 32,
            bits: 10,
            windows: 40,
            cycle: 1280,
            runs: 3,
            cycle_in_run: 117,
            throttle: 0,
            energy: 123.456_789_012_345,
            unit_energy: vec![1.5, 2.25, 0.125],
            history: HistoryAggregates {
                total_windows: 40,
                sum_est: 80.5,
                sum_true: 81.25,
                peak_est: 3.75,
                energy: 123.456_789_012_345,
                dropped: 8,
            },
            quant_drift: quant,
            truth_drift: truth,
            arm: None,
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn snapshot_roundtrips_bit_exactly() {
        let dir = std::env::temp_dir().join(format!("apollo_ckpt_rt_{}", std::process::id()));
        let path = dir.join("p0.ckpt");
        let snap = sample_snapshot();
        write_snapshot(&path, &snap).unwrap();
        let back = load_snapshot(&path).unwrap();
        assert_eq!(back, snap, "whole snapshot, drift state included");
        // Bit-exact floats, not approximately-equal floats.
        assert_eq!(back.energy.to_bits(), snap.energy.to_bits());
        assert_eq!(
            back.quant_drift.baseline().0.to_bits(),
            snap.quant_drift.baseline().0.to_bits()
        );
        // The tmp file from the atomic protocol must not linger.
        assert!(!path.with_extension("ckpt.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_body_is_rejected_by_crc() {
        let dir = std::env::temp_dir().join(format!("apollo_ckpt_crc_{}", std::process::id()));
        let path = dir.join("p0.ckpt");
        write_snapshot(&path, &sample_snapshot()).unwrap();
        // Flip one byte in the body (past the header line).
        let mut bytes = std::fs::read(&path).unwrap();
        let split = bytes.iter().position(|&b| b == b'\n').unwrap();
        let last = bytes.len() - 1;
        assert!(last > split);
        bytes[last - 2] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match load_snapshot(&path) {
            Err(CheckpointError::Corrupt(e)) => assert!(e.contains("crc") || e.contains("parse")),
            other => panic!("corrupt file must not load: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_wrong_magic_and_version_skew_are_distinct() {
        let dir = std::env::temp_dir().join(format!("apollo_ckpt_hdr_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("nope.ckpt");
        assert_eq!(load_snapshot(&missing), Err(CheckpointError::Missing));

        let bad_magic = dir.join("magic.ckpt");
        std::fs::write(&bad_magic, "NOT-A-CKPT v1 crc32=00000000\n{}").unwrap();
        assert!(matches!(
            load_snapshot(&bad_magic),
            Err(CheckpointError::Corrupt(_))
        ));

        let future = dir.join("future.ckpt");
        let body = "{}";
        std::fs::write(
            &future,
            format!("APOLLO-CKPT v999 crc32={:08x}\n{body}", crc32(body.as_bytes())),
        )
        .unwrap();
        match load_snapshot(&future) {
            Err(CheckpointError::Corrupt(e)) => assert!(e.contains("999"), "{e}"),
            other => panic!("future version must be rejected: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compatibility_check_names_the_differing_field() {
        let snap = sample_snapshot();
        let mut spec = CoreSpec {
            id: "p0".into(),
            bench: apollo_cpu::benchmarks::dhrystone(),
            window_t: 32,
            bits: 10,
            drift: DriftConfig::default(),
        };
        assert!(check_compatible(&snap, &spec, "tiny", 3).is_ok());
        let err = check_compatible(&snap, &spec, "n1", 3).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(ref e) if e.contains("design")));
        let err = check_compatible(&snap, &spec, "tiny", 4).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(ref e) if e.contains("classes")));
        spec.window_t = 64;
        let err = check_compatible(&snap, &spec, "tiny", 3).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(ref e) if e.contains("window_t")));
    }

    #[test]
    fn policy_sanitizes_pipeline_ids() {
        let p = CheckpointPolicy::new("/tmp/ckpts", 8);
        assert_eq!(
            p.file("core/0:alpha"),
            PathBuf::from("/tmp/ckpts/core_0_alpha.ckpt")
        );
    }
}
