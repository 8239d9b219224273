//! Serving load: an open-loop scrape generator and streaming
//! subscribers that check every record they receive.

use apollo_suite::fleet::WindowBatch;
use apollo_suite::introspect::http_get;
use apollo_suite::telemetry::framing::{validate_framed, SeqCheck};
use apollo_suite::telemetry::{validate_line, FieldValue, RecordBody};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);

/// Latency samples of one open-loop phase, per route.
#[derive(Debug, Default)]
pub struct ScrapeStats {
    /// Microseconds from when each request was due to when its
    /// response was read, per route.
    pub latency_us: BTreeMap<String, Vec<f64>>,
    /// How late the generator sent each request, in microseconds.
    pub late_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// `503` answers (load shedding), also counted in `failed`.
    pub shed: u64,
    pub first_error: Option<String>,
}

impl ScrapeStats {
    pub fn all_latencies(&self) -> Vec<f64> {
        self.latency_us.values().flatten().copied().collect()
    }

    pub fn merge(&mut self, other: ScrapeStats) {
        for (route, v) in other.latency_us {
            self.latency_us.entry(route).or_default().extend(v);
        }
        self.late_us.extend(other.late_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.shed += other.shed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// Sends GETs to `routes` (`(label, path)`, in turn) every `interval`,
/// from a start offset `phase`, until `stop` rises or `max_requests`
/// were sent. Latencies are kept per label. Each
/// request is timed from when it was due, so a stall also charges the
/// requests queued behind it (open loop, one connection at a time).
pub fn open_loop(
    addr: &str,
    routes: &[(String, String)],
    interval: Duration,
    phase: Duration,
    max_requests: u64,
    stop: &AtomicBool,
) -> ScrapeStats {
    let mut st = ScrapeStats::default();
    let start = Instant::now() + phase;
    for k in 0..max_requests {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let due = start + interval * k as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        st.late_us
            .push(Instant::now().duration_since(due).as_secs_f64() * 1e6);
        let (label, route) = &routes[k as usize % routes.len()];
        st.attempted += 1;
        match http_get(addr, route, None, REQUEST_TIMEOUT) {
            Ok(r) if r.status == 200 => {
                st.latency_us
                    .entry(label.clone())
                    .or_default()
                    .push(Instant::now().duration_since(due).as_secs_f64() * 1e6);
            }
            Ok(r) => {
                st.failed += 1;
                st.shed += u64::from(r.status == 503);
                st.first_error
                    .get_or_insert(format!("GET {route}: status {}", r.status));
            }
            Err(e) => {
                st.failed += 1;
                st.first_error.get_or_insert(format!("GET {route}: {e}"));
            }
        }
    }
    st
}

/// What a streaming subscriber saw.
#[derive(Debug, Default)]
pub struct StreamStats {
    pub records: u64,
    /// Records that failed a check (schema, dense `seq`, or the
    /// attribution invariant Σ unit raw == raw).
    pub bad: u64,
    pub first_error: Option<String>,
}

impl StreamStats {
    fn fail(&mut self, what: String) {
        self.bad += 1;
        self.first_error.get_or_insert(what);
    }
}

/// Opens a streaming GET and hands each body line to `check` until the
/// server closes the stream (or `stop` rises and the read times out).
fn stream(
    addr: &str,
    path: &str,
    stop: &AtomicBool,
    mut check: impl FnMut(&str, &mut StreamStats),
) -> StreamStats {
    let mut st = StreamStats::default();
    let conn = TcpStream::connect(addr).and_then(|mut s| {
        s.set_read_timeout(Some(Duration::from_millis(200)))?;
        s.write_all(format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").as_bytes())?;
        Ok(s)
    });
    let mut reader = match conn {
        Ok(s) => BufReader::new(s),
        Err(e) => {
            st.fail(format!("connect {path}: {e}"));
            return st;
        }
    };
    let mut in_body = false;
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                let text = line.trim_end_matches(['\r', '\n']);
                if !in_body {
                    if st.records == 0 && text.starts_with("HTTP/1.1 ") && !text.contains(" 200 ") {
                        st.fail(format!("GET {path}: {text}"));
                        break;
                    }
                    in_body = text.is_empty();
                } else if !text.is_empty() {
                    st.records += 1;
                    check(text, &mut st);
                }
                line.clear();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // A partial line stays buffered in `line` and completes
                // on the next read.
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            Err(e) => {
                st.fail(format!("read {path}: {e}"));
                break;
            }
        }
    }
    st
}

/// Drains a monitor's `/events` stream: every line must lint as a
/// schema record, `seq` must be dense, and every `introspect.window`
/// must decompose exactly (Σ `unit.*` == `raw`).
pub fn monitor_events(addr: &str, stop: &AtomicBool) -> StreamStats {
    let mut next_seq = 0u64;
    stream(addr, "/events", stop, |line, st| {
        let rec = match validate_line(line) {
            Ok(r) => r,
            Err(e) => return st.fail(format!("/events: {e}")),
        };
        if rec.seq != next_seq {
            st.fail(format!("/events: seq {} where {next_seq} was due", rec.seq));
        }
        next_seq = rec.seq + 1;
        if let RecordBody::Event(ev) = &rec.body {
            if ev.name == "introspect.window" {
                let (mut raw, mut units) = (None, 0u64);
                for (k, v) in &ev.fields {
                    if let FieldValue::U64(x) = v {
                        if k == "raw" {
                            raw = Some(*x);
                        } else if k.starts_with("unit.") {
                            units += x;
                        }
                    }
                }
                if raw != Some(units) {
                    st.fail(format!("window: units sum to {units}, raw is {raw:?}"));
                }
            }
        }
    })
}

/// Drains a fleet's `/fleet/events` stream: every line must be a valid
/// framed batch (which checks Σ unit raw == raw per core) with dense
/// per-shard `seq`.
pub fn fleet_events(addr: &str, stop: &AtomicBool) -> StreamStats {
    let mut seqs: BTreeMap<u64, SeqCheck> = BTreeMap::new();
    stream(
        addr,
        "/fleet/events",
        stop,
        |line, st| match validate_framed::<WindowBatch>(line) {
            Ok(b) => {
                if let Err(e) = seqs.entry(b.shard).or_default().check(b.seq) {
                    st.fail(format!("shard {}: {e}", b.shard));
                }
            }
            Err(e) => st.fail(format!("/fleet/events: {e}")),
        },
    )
}

/// Polls `path` until `ready` accepts a `200` body, or `limit` passes.
pub fn wait_ready(
    addr: &str,
    path: &str,
    limit: Duration,
    ready: impl Fn(&[String]) -> bool,
) -> Result<(), String> {
    let t0 = Instant::now();
    loop {
        if let Ok(r) = http_get(addr, path, None, REQUEST_TIMEOUT) {
            if r.status == 200 && ready(&r.lines) {
                return Ok(());
            }
        }
        if t0.elapsed() > limit {
            return Err(format!("{addr}{path} not ready after {limit:?}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A stop flag shared with load threads.
pub fn flag() -> Arc<AtomicBool> {
    Arc::new(AtomicBool::new(false))
}
