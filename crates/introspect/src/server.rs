//! Zero-dependency TCP serving layer: the one HTTP edge both the
//! monitor endpoint and the `apollo-fleet` endpoint run.
//!
//! A small HTTP/1.1 server on `std::net` (no external crates, no
//! unsafe). The edge owns the accept loop, the connection lifecycle,
//! request parsing and the shared routes — `/` (index), `/healthz` and
//! `/status` (from the [`HealthRegistry`]), `/shutdown` (raises the
//! stop flag) — and hands every other path to the server's
//! [`Routes`]. The monitor endpoint ([`serve_with`]) adds `/metrics`
//! (Prometheus text of the global telemetry registry) and `/events`
//! (schema-versioned JSONL from the
//! [`MonitorHub`](crate::hub::MonitorHub), with per-subscriber dense
//! `seq` re-stamped at send time, after any backpressure drops, so
//! every delivered stream passes `trace-lint`).
//!
//! The accept loop is non-blocking and polls the stop flag, so the
//! server winds down without signal handlers; connection handlers are
//! joined on [`ServerHandle::stop`].
//!
//! # Hardening
//!
//! The server assumes hostile or broken peers and degrades instead of
//! failing:
//!
//! * **Bounded parsing** — request and header lines are read through a
//!   byte cap ([`ServerOptions::max_line_bytes`]); an oversized or
//!   structurally malformed request gets `400`, a zero-length read is
//!   a clean close. No input can panic a handler or grow memory
//!   unboundedly.
//! * **Timeouts both ways** — every served connection carries a read
//!   *and* a write timeout. A peer that stalls mid-request gets `408`;
//!   a streaming client that stops draining its socket is evicted once
//!   a write times out (`<name>.http.slow_evicted`).
//! * **Connection cap** — at most [`ServerOptions::max_conns`] live
//!   handlers; excess connections are shed with `503` + `Retry-After`
//!   (`<name>.http.shed`). Finished handler threads are reaped on
//!   every accept.
//! * **Lingering close** — every error (`400`/`405`/`408`) and shed
//!   (`503`) answer ends with a half-close and a drain of the peer's
//!   unread input under a fixed time and byte budget, so closing never
//!   answers in-flight request bytes with a TCP reset that would
//!   destroy the response. A shed peer lingers on its own thread, never
//!   on the accept loop.
//! * **Panic isolation** — shared serving state is locked through
//!   [`plock`](crate::sync::plock), so a panicking handler thread can
//!   never poison the accept loop or `stop()` into a cascade.

use crate::client::http_get;
use crate::health::{HealthRegistry, SubscriberStatus};
use crate::hub::{MonitorHub, Poll};
use crate::sync::plock;
use apollo_telemetry::{FieldValue, Record, SCHEMA_VERSION};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving-layer robustness knobs (see module docs).
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Per-connection read timeout (stalled request ⇒ `408`).
    pub read_timeout: Duration,
    /// Per-connection write timeout (stalled streaming client ⇒
    /// eviction; stalled response write ⇒ drop).
    pub write_timeout: Duration,
    /// Maximum concurrent connection handlers; excess peers get `503`.
    pub max_conns: usize,
    /// Byte cap on any single request or header line (`400` beyond).
    pub max_line_bytes: usize,
    /// Fleet health registry behind `/healthz` and `/status`. `None`
    /// gets a private empty registry at serve time: `/healthz` then
    /// answers pure liveness (`200 ok`) and `/status` reports an
    /// empty fleet plus live subscriber state.
    pub health: Option<Arc<HealthRegistry>>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_conns: 64,
            max_line_bytes: 8 * 1024,
            health: None,
        }
    }
}

/// Advisory `Retry-After` (whole seconds) on every load-shedding `503`.
pub const RETRY_AFTER_S: u64 = 1;
/// Lingering-close budget: at most this long and this many bytes.
const LINGER: Duration = Duration::from_millis(500);
const LINGER_BYTES: usize = 1 << 20;

/// The routes one server adds to the shared edge (`/`, `/healthz`,
/// `/status`, `/shutdown`).
pub trait Routes: Send + Sync + 'static {
    /// Telemetry namespace of the edge's counters and events
    /// (`introspect`, `fleet`).
    fn name(&self) -> &'static str;
    /// Index line head: the server's name and its own routes.
    fn index(&self) -> &'static str;
    /// Serves `path` when it is one of this server's routes; `None`
    /// lets the edge answer `404`.
    fn route(&self, path: &str, out: &mut TcpStream, stop: &AtomicBool)
        -> Option<std::io::Result<()>>;
    /// Live subscriber queues reported on `/status`.
    fn subscribers(&self) -> Vec<SubscriberStatus> {
        Vec::new()
    }
    /// Ends every stream (run by [`ServerHandle::stop`]).
    fn close(&self);
}

/// Running server: bound address plus lifecycle control.
pub struct ServerHandle {
    addr: SocketAddr,
    edge: Arc<Edge>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server: sets the shared stop flag, closes the routes'
    /// streams, and joins all server threads.
    pub fn stop(mut self) {
        self.edge.stop.store(true, Ordering::Relaxed);
        self.edge.routes.close();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *plock(&self.edge.conns));
        let sheds = std::mem::take(&mut *plock(&self.edge.sheds));
        for h in conns.into_iter().chain(sheds) {
            let _ = h.join();
        }
    }
}

/// Binds `listen` (e.g. `127.0.0.1:9100`; port 0 picks a free port)
/// and serves the monitor endpoint for `hub` until `stop` becomes true.
///
/// # Errors
/// Returns the bind error if the address is unavailable.
pub fn serve_with(
    listen: &str,
    hub: Arc<MonitorHub>,
    stop: Arc<AtomicBool>,
    opts: ServerOptions,
) -> std::io::Result<ServerHandle> {
    serve_routes(listen, Arc::new(MonitorRoutes { hub }), stop, opts)
}

/// Binds `listen` and serves `routes` behind the shared edge until
/// `stop` becomes true.
///
/// # Errors
/// Returns the bind error if the address is unavailable.
pub fn serve_routes(
    listen: &str,
    routes: Arc<dyn Routes>,
    stop: Arc<AtomicBool>,
    opts: ServerOptions,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(listen)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let edge = Arc::new(Edge {
        health: opts.health.clone().unwrap_or_default(),
        routes,
        stop,
        opts,
        conns: Mutex::new(Vec::new()),
        sheds: Mutex::new(Vec::new()),
    });
    let accept = {
        let edge = Arc::clone(&edge);
        std::thread::spawn(move || accept_loop(&listener, &edge))
    };
    Ok(ServerHandle {
        addr,
        edge,
        accept: Some(accept),
    })
}

/// Per-server state every connection handler shares.
struct Edge {
    health: Arc<HealthRegistry>,
    routes: Arc<dyn Routes>,
    stop: Arc<AtomicBool>,
    opts: ServerOptions,
    /// Connection handler threads.
    conns: Mutex<Vec<JoinHandle<()>>>,
    /// Threads giving shed peers a lingering close.
    sheds: Mutex<Vec<JoinHandle<()>>>,
}

/// Joins the finished threads of `threads` and returns how many still
/// run, so the registry tracks *live* work, not lifetime totals.
fn reap(threads: &Mutex<Vec<JoinHandle<()>>>) -> usize {
    let mut threads = plock(threads);
    let (done, alive): (Vec<_>, Vec<_>) =
        std::mem::take(&mut *threads).into_iter().partition(JoinHandle::is_finished);
    *threads = alive;
    for h in done {
        let _ = h.join();
    }
    threads.len()
}

fn accept_loop(listener: &TcpListener, edge: &Arc<Edge>) {
    while !edge.stop.load(Ordering::Relaxed) {
        let Ok((stream, _)) = listener.accept() else {
            std::thread::sleep(Duration::from_millis(20));
            continue;
        };
        if reap(&edge.conns) >= edge.opts.max_conns {
            // Shed load instead of queueing unboundedly; the lingering
            // close runs off the accept loop, and at most `max_conns`
            // shed peers linger at once.
            let _ = stream.set_write_timeout(Some(edge.opts.write_timeout));
            if reap(&edge.sheds) < edge.opts.max_conns {
                let name = edge.routes.name();
                plock(&edge.sheds).push(std::thread::spawn(move || {
                    let _ = shed(&stream, name, "conn_cap");
                }));
            } else {
                let _ = shed_response(&stream, edge.routes.name(), "conn_cap");
            }
            continue;
        }
        let owned = Arc::clone(edge);
        let handle = std::thread::spawn(move || {
            // Per-connection errors (reset peers, parse noise) must not
            // take the server down.
            let _ = handle_connection(&stream, &owned);
        });
        plock(&edge.conns).push(handle);
    }
}

fn handle_connection(stream: &TcpStream, edge: &Edge) -> std::io::Result<()> {
    let opts = &edge.opts;
    stream.set_read_timeout(Some(opts.read_timeout))?;
    stream.set_write_timeout(Some(opts.write_timeout))?;
    let mut reader = BufReader::new(stream);
    let mut out = stream.try_clone()?;
    let Some(path) = read_request_head(&mut reader, &mut out, opts.max_line_bytes)? else {
        // A rejected peer may still be sending the rest of its request.
        linger(stream);
        return Ok(());
    };
    let name = edge.routes.name();
    match path.as_str() {
        "/" => {
            let index = format!("{}, /healthz, /status, /shutdown\n", edge.routes.index());
            respond(&mut out, "200 OK", "text/plain; charset=utf-8", &index)
        }
        "/healthz" => {
            let healthy = edge.health.healthy();
            apollo_telemetry::counter(&format!("{name}.healthz.scrapes")).inc();
            apollo_telemetry::emit_event(
                &format!("{name}.healthz"),
                &[("healthy", FieldValue::from(healthy))],
            );
            if healthy {
                respond(&mut out, "200 OK", "text/plain", "ok\n")
            } else {
                respond(&mut out, "503 Service Unavailable", "text/plain", "degraded\n")
            }
        }
        "/status" => {
            let snap = edge.health.snapshot(edge.routes.subscribers());
            apollo_telemetry::counter(&format!("{name}.status.scrapes")).inc();
            apollo_telemetry::emit_event(
                &format!("{name}.status"),
                &[
                    ("healthy", FieldValue::from(snap.healthy)),
                    ("pipelines", FieldValue::from(snap.pipelines.len())),
                    ("subscribers", FieldValue::from(snap.subscribers.len())),
                ],
            );
            let status = if snap.healthy {
                "200 OK"
            } else {
                "503 Service Unavailable"
            };
            let body = format!("{}\n", snap.to_jsonl());
            respond(&mut out, status, "application/json", &body)
        }
        "/shutdown" => {
            edge.stop.store(true, Ordering::Relaxed);
            respond(&mut out, "200 OK", "text/plain", "shutting down\n")
        }
        _ => edge
            .routes
            .route(&path, &mut out, &edge.stop)
            .unwrap_or_else(|| respond(&mut out, "404 Not Found", "text/plain", "unknown path\n")),
    }
}

/// Answers a load-shedding `503` + `Retry-After` on behalf of server
/// `name`, counted as `<name>.http.shed` with a `<name>.shed` event,
/// then closes the connection lingering.
///
/// # Errors
/// Propagates socket write errors.
pub fn shed(out: &TcpStream, name: &str, reason: &str) -> std::io::Result<()> {
    let res = shed_response(out, name, reason);
    linger(out);
    res
}

fn shed_response(mut out: &TcpStream, name: &str, reason: &str) -> std::io::Result<()> {
    apollo_telemetry::counter(&format!("{name}.http.shed")).inc();
    apollo_telemetry::emit_event(
        &format!("{name}.shed"),
        &[
            ("reason", FieldValue::from(reason)),
            ("retry_after_ms", FieldValue::from(RETRY_AFTER_S * 1000)),
        ],
    );
    respond_with_headers(
        &mut out,
        "503 Service Unavailable",
        "text/plain",
        &[("Retry-After", &RETRY_AFTER_S.to_string())],
        "overloaded; retry later\n",
    )
}

/// Lingering close: half-closes our side (the peer sees the response
/// then end-of-stream) and drains the peer's unread input for at most
/// [`LINGER`] / [`LINGER_BYTES`], so dropping the socket never meets
/// unread bytes — which would make the kernel send a reset that can
/// overtake and destroy the response.
fn linger(mut stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + LINGER;
    let mut drained = 0usize;
    let mut buf = [0u8; 4096];
    while drained < LINGER_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => drained += n,
        }
    }
}

/// One line read through the byte cap.
pub enum LineRead {
    /// A complete line (terminator stripped, lossy UTF-8).
    Line(String),
    /// Peer closed before sending anything on this line.
    Eof,
    /// The line exceeded the cap without a terminating `\n`.
    Oversize,
}

/// Reads one `\n`-terminated line, never buffering more than
/// `cap + 1` bytes regardless of what the peer sends.
///
/// # Errors
/// Propagates read errors (including timeouts).
pub fn read_line_bounded(reader: &mut impl BufRead, cap: usize) -> std::io::Result<LineRead> {
    let mut buf = Vec::new();
    let n = reader.take(cap as u64 + 1).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(LineRead::Eof);
    }
    if !buf.ends_with(b"\n") && buf.len() > cap {
        return Ok(LineRead::Oversize);
    }
    let text = String::from_utf8_lossy(&buf)
        .trim_end_matches(['\r', '\n'])
        .to_owned();
    Ok(LineRead::Line(text))
}

/// True for the error kinds a blocking socket read/write reports on
/// timeout (`WouldBlock` on Unix, `TimedOut` on Windows).
pub fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads and validates one HTTP request head (request line plus
/// headers, bounded by `max_line_bytes` per line), answering protocol
/// errors (`400`, `405`, `408`) on `out` directly. Returns
/// `Some(path)` for a well-formed `GET`, `None` when the request was
/// already answered or the peer went away cleanly.
///
/// # Errors
/// Propagates non-timeout read errors and write errors.
pub fn read_request_head(
    reader: &mut impl BufRead,
    out: &mut impl Write,
    max_line_bytes: usize,
) -> std::io::Result<Option<String>> {
    // The request line, then headers up to the blank line; bodies are
    // not supported.
    let mut request_line: Option<String> = None;
    loop {
        let (line_name, part_name) = match request_line {
            None => ("request line", "request"),
            Some(_) => ("header line", "headers"),
        };
        match read_line_bounded(reader, max_line_bytes) {
            Ok(LineRead::Line(l)) if request_line.is_none() => request_line = Some(l),
            Ok(LineRead::Line(h)) if h.is_empty() => break,
            Ok(LineRead::Line(_)) => {}
            // Zero-length read: peer connected and went away. Clean drop.
            Ok(LineRead::Eof) if request_line.is_none() => return Ok(None),
            Ok(LineRead::Eof) => break,
            Ok(LineRead::Oversize) => {
                return reject(out, "400 Bad Request", &format!("{line_name} too long"))
            }
            Err(e) if is_timeout(&e) => {
                let why = format!("{part_name} not received in time");
                return reject(out, "408 Request Timeout", &why);
            }
            Err(e) => return Err(e),
        }
    }
    let request_line = request_line.unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = (parts.next(), parts.next(), parts.next());
    let well_formed = method.is_some_and(|m| m.bytes().all(|b| b.is_ascii_uppercase()))
        && path.is_some_and(|p| p.starts_with('/'))
        && version.is_some_and(|v| v.starts_with("HTTP/"));
    if !well_formed {
        return reject(out, "400 Bad Request", "malformed request line");
    }
    if method != Some("GET") {
        return reject(out, "405 Method Not Allowed", "GET only");
    }
    Ok(path.map(str::to_owned))
}

/// Answers a protocol error (counted by class) and reports the request
/// as handled.
fn reject(out: &mut impl Write, status: &str, why: &str) -> std::io::Result<Option<String>> {
    match &status[..3] {
        "400" => apollo_telemetry::counter("introspect.http.bad_requests").inc(),
        "408" => apollo_telemetry::counter("introspect.http.timeouts").inc(),
        _ => {}
    }
    respond(out, status, "text/plain", &format!("{why}\n"))?;
    Ok(None)
}

/// Writes a complete `Connection: close` HTTP/1.1 response.
///
/// # Errors
/// Propagates write errors.
pub fn respond(
    out: &mut impl Write,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    respond_with_headers(out, status, content_type, &[], body)
}

/// [`respond`] with extra response headers (e.g. `Retry-After` on a
/// load-shedding `503`). Each pair renders as `name: value`. The
/// response goes out in one write.
///
/// # Errors
/// Propagates write errors.
pub fn respond_with_headers(
    out: &mut impl Write,
    status: &str,
    content_type: &str,
    extra: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in extra {
        let _ = write!(head, "{name}: {value}\r\n");
    }
    head.push_str("Connection: close\r\n\r\n");
    head.push_str(body);
    out.write_all(head.as_bytes())?;
    out.flush()
}

/// Starts a streaming `application/x-ndjson` response (no length; the
/// stream ends when the connection closes).
///
/// # Errors
/// Propagates write errors.
pub fn stream_head(out: &mut impl Write) -> std::io::Result<()> {
    out.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n",
    )?;
    out.flush()
}

/// Writes one streamed line. A write that times out means the peer
/// stopped draining: it is evicted (counted as
/// `<name>.http.slow_evicted`) rather than left to pin the thread.
///
/// # Errors
/// Propagates the failed write; the stream should end.
pub fn stream_line(out: &mut impl Write, line: &str, name: &str) -> std::io::Result<()> {
    let res = writeln!(out, "{line}").and_then(|()| out.flush());
    if let Err(e) = &res {
        if is_timeout(e) {
            apollo_telemetry::counter(&format!("{name}.http.slow_evicted")).inc();
        }
    }
    res
}

/// The monitor endpoint's routes: `/metrics` and `/events`.
struct MonitorRoutes {
    hub: Arc<MonitorHub>,
}

impl Routes for MonitorRoutes {
    fn name(&self) -> &'static str {
        "introspect"
    }

    fn index(&self) -> &'static str {
        "apollo monitor: /metrics (Prometheus), /events (JSONL stream)"
    }

    fn route(
        &self,
        path: &str,
        out: &mut TcpStream,
        stop: &AtomicBool,
    ) -> Option<std::io::Result<()>> {
        Some(match path {
            "/metrics" => {
                let mut body = apollo_telemetry::prometheus_text(&apollo_telemetry::snapshot());
                body.push_str(&subscriber_gauges(&self.hub));
                apollo_telemetry::counter("introspect.scrapes").inc();
                respond(out, "200 OK", "text/plain; version=0.0.4", &body)
            }
            "/events" => stream_events(out, &self.hub, stop),
            _ => return None,
        })
    }

    fn subscribers(&self) -> Vec<SubscriberStatus> {
        self.hub.subscriber_stats()
    }

    fn close(&self) {
        self.hub.close();
    }
}

/// Hand-rendered labeled gauges for per-subscriber hub state (the
/// registry's exposition is label-free, so the serving layer appends
/// these rows itself).
fn subscriber_gauges(hub: &MonitorHub) -> String {
    use std::fmt::Write as _;
    let stats = hub.subscriber_stats();
    if stats.is_empty() {
        return String::new();
    }
    type Field = (&'static str, fn(&SubscriberStatus) -> u64);
    let fields: [Field; 4] = [
        ("introspect_hub_subscriber_queue_depth", |s| s.depth),
        ("introspect_hub_subscriber_dropped", |s| s.dropped),
        ("introspect_hub_subscriber_stride", |s| s.stride),
        ("introspect_hub_subscriber_downsampled", |s| s.downsampled),
    ];
    let mut out = String::new();
    for (metric, value) in fields {
        let _ = writeln!(out, "# TYPE {metric} gauge");
        for s in &stats {
            let _ = writeln!(out, "{metric}{{subscriber=\"{}\"}} {}", s.id, value(s));
        }
    }
    out
}

/// Streams hub bodies as schema-versioned JSONL until the hub closes,
/// the stop flag rises, the client goes away, or a write times out
/// (slow-client eviction).
fn stream_events(
    stream: &mut TcpStream,
    hub: &Arc<MonitorHub>,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let announce = |action: &str, active: usize| {
        apollo_telemetry::gauge("introspect.subscribers").set(active as f64);
        apollo_telemetry::emit_event(
            "introspect.subscriber",
            &[
                ("action", FieldValue::from(action)),
                ("active", FieldValue::from(active)),
            ],
        );
    };
    let (sub, active) = hub.subscribe();
    announce("connect", active);
    stream_head(stream)?;
    // Per-subscriber wire framing: dense seq from 0 and a local
    // timestamp epoch, assigned at send time (drops happen earlier, in
    // the hub queue, so delivered seq never has gaps).
    let epoch = Instant::now();
    let mut seq = 0u64;
    loop {
        if stop.load(Ordering::Relaxed) && hub.closed() {
            break;
        }
        match sub.poll(Duration::from_millis(100)) {
            Poll::Body(item) => {
                // Delivered records keep the producing window's causal
                // identity (captured by the hub at publish time).
                let rec = Record {
                    v: SCHEMA_VERSION,
                    seq,
                    ts_ns: epoch.elapsed().as_nanos() as u64,
                    trace_id: item.trace_id,
                    span_id: 0,
                    parent_id: item.parent_id,
                    body: item.body,
                };
                seq += 1;
                let t0 = apollo_telemetry::timing_enabled().then(Instant::now);
                if stream_line(stream, &rec.to_jsonl(), "introspect").is_err() {
                    break; // client went away or stalled out
                }
                let dur_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                if t0.is_some() {
                    apollo_telemetry::histogram("introspect.window.deliver_ns").observe(dur_ns);
                }
                // One delivery span per traced delivery, parented
                // under the producing window's span. The id crosses
                // the thread boundary by value: a pure function of
                // (trace, window span, subscriber, delivery seq), so
                // the trace tree is identical on every rerun.
                if item.trace_id != 0 {
                    let raw = apollo_telemetry::mix3(
                        item.trace_id ^ item.parent_id,
                        apollo_telemetry::intern("introspect.deliver") ^ sub.id(),
                        rec.seq,
                    ) & apollo_telemetry::ID_MASK;
                    let span_id = if raw == 0 { 1 } else { raw };
                    apollo_telemetry::emit_span_ids(
                        "introspect.deliver",
                        dur_ns,
                        item.trace_id,
                        span_id,
                        item.parent_id,
                    );
                }
            }
            Poll::Timeout => continue,
            Poll::Closed => break,
        }
    }
    drop(sub);
    announce("disconnect", hub.active());
    Ok(())
}

/// Minimal HTTP GET for tests, CI smoke checks and the `apollo scrape`
/// subcommand: fetches `http://host:port/path` through
/// [`http_get`](crate::client::http_get) and returns up to `max_lines`
/// body lines (`None` = the whole body, reading until the server
/// closes the stream).
///
/// # Errors
/// Returns connection or read errors; non-200 statuses are returned as
/// `InvalidData`.
pub fn http_get_lines(
    addr: &str,
    path: &str,
    max_lines: Option<usize>,
) -> std::io::Result<Vec<String>> {
    let res = http_get(addr, path, max_lines, Duration::from_secs(10))?;
    if res.status != 200 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("HTTP error: status {}", res.status),
        ));
    }
    Ok(res.lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apollo_telemetry::RecordBody;

    fn start(opts: ServerOptions) -> (ServerHandle, String, Arc<MonitorHub>, Arc<AtomicBool>) {
        let hub = MonitorHub::new(8);
        let stop = Arc::new(AtomicBool::new(false));
        let server =
            serve_with("127.0.0.1:0", Arc::clone(&hub), Arc::clone(&stop), opts).unwrap();
        let addr = server.addr().to_string();
        (server, addr, hub, stop)
    }

    fn raw_status(addr: &str, payload: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(payload).unwrap();
        s.flush().unwrap();
        let mut r = BufReader::new(s);
        let mut status = String::new();
        r.read_line(&mut status).unwrap();
        status
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        apollo_telemetry::counter("introspect.test.metric").add(3);
        let (server, addr, _hub, _stop) = start(ServerOptions::default());
        let lines = http_get_lines(&addr, "/metrics", None).unwrap();
        assert!(
            lines
                .iter()
                .any(|l| l.contains("introspect_test_metric")
                    || l.contains("introspect.test.metric")),
            "metric missing from exposition: {lines:?}"
        );
        server.stop();
    }

    #[test]
    fn events_endpoint_streams_dense_seq_jsonl() {
        let (server, addr, hub, _stop) = start(ServerOptions::default());
        let publisher = {
            let hub = Arc::clone(&hub);
            std::thread::spawn(move || {
                // Give the client a moment to subscribe, then publish
                // and close.
                std::thread::sleep(Duration::from_millis(150));
                for i in 0..5u64 {
                    hub.publish(&RecordBody::Message {
                        level: "info".into(),
                        text: format!("w{i}"),
                    });
                }
                hub.close();
            })
        };
        let lines = http_get_lines(&addr, "/events", Some(5)).unwrap();
        publisher.join().unwrap();
        assert_eq!(lines.len(), 5, "{lines:?}");
        for (i, l) in lines.iter().enumerate() {
            let rec =
                apollo_telemetry::validate_line(l).unwrap_or_else(|e| panic!("line {i}: {e}"));
            assert_eq!(rec.seq, i as u64, "dense per-subscriber seq");
        }
        server.stop();
    }

    #[test]
    fn shutdown_endpoint_raises_stop_flag() {
        let (server, addr, _hub, stop) = start(ServerOptions::default());
        let lines = http_get_lines(&addr, "/shutdown", None).unwrap();
        assert!(
            lines.iter().any(|l| l.contains("shutting down")),
            "{lines:?}"
        );
        assert!(stop.load(Ordering::Relaxed));
        server.stop();
    }

    #[test]
    fn unknown_path_is_404_and_post_is_405() {
        let (server, addr, _hub, _stop) = start(ServerOptions::default());
        let err = http_get_lines(&addr, "/nope", None).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let resp = raw_status(&addr, b"POST /metrics HTTP/1.1\r\n\r\n");
        assert!(resp.contains("405"), "{resp}");
        server.stop();
    }

    #[test]
    fn oversized_request_line_gets_400() {
        let opts = ServerOptions {
            max_line_bytes: 256,
            ..ServerOptions::default()
        };
        let (server, addr, _hub, _stop) = start(opts);
        let mut payload = b"GET /".to_vec();
        payload.extend(vec![b'a'; 4096]);
        let resp = raw_status(&addr, &payload);
        assert!(resp.contains("400"), "{resp}");
        server.stop();
    }

    #[test]
    fn garbage_bytes_get_400_and_server_survives() {
        let (server, addr, _hub, _stop) = start(ServerOptions::default());
        let resp = raw_status(&addr, b"\x00\xff\xfe garbage \x01\x02\n\r\n");
        assert!(resp.contains("400"), "{resp}");
        // The server still answers well-formed requests afterwards.
        let lines = http_get_lines(&addr, "/", None).unwrap();
        assert!(!lines.is_empty());
        server.stop();
    }

    #[test]
    fn zero_length_read_is_a_clean_drop() {
        let (server, addr, _hub, _stop) = start(ServerOptions::default());
        // Connect and immediately close without sending a byte.
        for _ in 0..4 {
            let s = TcpStream::connect(&addr).unwrap();
            drop(s);
        }
        std::thread::sleep(Duration::from_millis(100));
        let lines = http_get_lines(&addr, "/", None).unwrap();
        assert!(!lines.is_empty(), "server alive after empty connections");
        server.stop();
    }

    #[test]
    fn stalled_request_gets_408() {
        let opts = ServerOptions {
            read_timeout: Duration::from_millis(150),
            ..ServerOptions::default()
        };
        let (server, addr, _hub, _stop) = start(opts);
        // Open, send half a request line, never finish it.
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(b"GET /met").unwrap();
        s.flush().unwrap();
        let mut r = BufReader::new(s);
        let mut status = String::new();
        r.read_line(&mut status).unwrap();
        assert!(status.contains("408"), "{status}");
        server.stop();
    }

    #[test]
    fn connection_cap_sheds_with_503() {
        let opts = ServerOptions {
            max_conns: 1,
            ..ServerOptions::default()
        };
        let (server, addr, hub, _stop) = start(opts);
        // Occupy the single slot with a long-lived /events stream.
        let streamer = {
            let addr = addr.clone();
            std::thread::spawn(move || http_get_lines(&addr, "/events", Some(1)))
        };
        std::thread::sleep(Duration::from_millis(200));
        // Second connection must be shed.
        let resp = raw_status(&addr, b"GET / HTTP/1.1\r\n\r\n");
        assert!(resp.contains("503"), "{resp}");
        hub.publish(&RecordBody::Message {
            level: "info".into(),
            text: "unblock".into(),
        });
        hub.close();
        let _ = streamer.join().unwrap();
        server.stop();
    }

    type IoResult = std::io::Result<()>;

    /// Routes whose only route panics inside the handler thread.
    struct Panicking;

    impl Routes for Panicking {
        fn name(&self) -> &'static str {
            "introspect"
        }
        fn index(&self) -> &'static str {
            "panicking"
        }
        fn route(&self, path: &str, _: &mut TcpStream, _: &AtomicBool) -> Option<IoResult> {
            panic!("chaos: injected handler panic on {path}");
        }
        fn close(&self) {}
    }

    #[test]
    fn handler_panic_does_not_poison_the_server() {
        let stop = Arc::new(AtomicBool::new(false));
        let opts = ServerOptions::default();
        let server = serve_routes("127.0.0.1:0", Arc::new(Panicking), stop, opts).unwrap();
        let addr = server.addr().to_string();
        // The panicking handler drops the connection mid-flight …
        let res = http_get_lines(&addr, "/chaos-panic", None);
        assert!(res.is_err(), "panicking handler cannot answer");
        // … and the server keeps accepting, handling, and stopping
        // cleanly afterwards (regression: a poisoned conns mutex used
        // to cascade `lock().unwrap()` panics into the accept loop).
        for _ in 0..3 {
            assert_eq!(http_get_lines(&addr, "/healthz", None).unwrap(), vec!["ok"]);
        }
        server.stop();
    }
}
