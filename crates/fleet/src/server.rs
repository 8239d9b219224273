//! The fleet endpoint: per-core routing, admission control, and
//! batched event streaming, served as [`Routes`] on the shared
//! introspect edge.
//!
//! * `GET /fleet/metrics` — Prometheus-style text of the current
//!   [`FleetAggregate`](crate::aggregate::FleetAggregate): quantile
//!   power, coverage (`fleet_cores_reporting` / `fleet_cores_total`),
//!   degraded-shard count and the per-unit attribution rollup.
//! * `GET /fleet/events` — streaming JSONL of every shard's
//!   [`WindowBatch`](crate::batch::WindowBatch)es.
//! * `GET /cores/<id>/metrics` — latest sample for one core; a
//!   configured core with no sample yet (its shard is starting or
//!   parked) answers `503` + `Retry-After`, an unknown id `404`.
//! * `GET /cores/<id>/events` — that core's rows projected out of its
//!   shard's batches, with a per-subscriber dense `seq`.
//!
//! The edge ([`serve_routes`]) supplies `/`, `/healthz` and `/status`
//! (from the shards' health registry, so a `Degraded` shard turns
//! `/healthz` to `503` while every other route keeps serving),
//! `/shutdown`, timeouts, the connection cap and lingering close, so
//! both serving layers shed and fail identically. On top of it the
//! fleet adds **admission control**: when a shard hub's deepest queue
//! crosses [`FleetServerOptions::watermark`], new event subscriptions
//! are shed with `503` + `Retry-After`.

use crate::shard::{now_ns, ShardRuntime};
use apollo_introspect::server::{
    respond, respond_with_headers, serve_routes, shed, stream_head, stream_line, Routes,
    ServerHandle, ServerOptions, RETRY_AFTER_S,
};
use apollo_introspect::sync::plock;
use apollo_introspect::Poll;
use apollo_telemetry::FieldValue;
use std::fmt::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fleet serving knobs: the shared edge's hardening options plus the
/// admission-control watermark.
#[derive(Clone, Debug)]
pub struct FleetServerOptions {
    /// Edge hardening (timeouts, connection cap, line cap). Its
    /// `health` is always the runtime's shard registry.
    pub server: ServerOptions,
    /// Admission watermark: a new event subscription against a shard
    /// hub whose deepest queue exceeds this is shed with `503`.
    pub watermark: usize,
}

impl Default for FleetServerOptions {
    fn default() -> Self {
        FleetServerOptions {
            server: ServerOptions {
                max_conns: 256,
                ..ServerOptions::default()
            },
            watermark: 128,
        }
    }
}

/// Running fleet server: bound address plus lifecycle control.
pub type FleetServerHandle = ServerHandle;

/// Binds `listen` (port 0 picks a free port) and serves the fleet
/// runtime until `stop` becomes true.
///
/// # Errors
/// Returns the bind error if the address is unavailable.
pub fn serve_fleet(
    listen: &str,
    runtime: Arc<ShardRuntime>,
    stop: Arc<AtomicBool>,
    opts: FleetServerOptions,
) -> std::io::Result<FleetServerHandle> {
    let server = ServerOptions {
        health: Some(Arc::clone(&runtime.health)),
        ..opts.server
    };
    let routes = FleetRoutes {
        runtime,
        watermark: opts.watermark,
    };
    serve_routes(listen, Arc::new(routes), stop, server)
}

struct FleetRoutes {
    runtime: Arc<ShardRuntime>,
    watermark: usize,
}

impl Routes for FleetRoutes {
    fn name(&self) -> &'static str {
        "fleet"
    }

    fn index(&self) -> &'static str {
        "apollo fleet: /fleet/metrics, /fleet/events, /cores/<id>/metrics, /cores/<id>/events"
    }

    fn route(
        &self,
        path: &str,
        out: &mut TcpStream,
        stop: &AtomicBool,
    ) -> Option<std::io::Result<()>> {
        let runtime = &self.runtime;
        let backlogged = |shard: usize| runtime.hubs[shard].max_depth() > self.watermark;
        Some(match path {
            "/fleet/metrics" => {
                let agg = runtime.snapshot(now_ns());
                apollo_telemetry::counter("fleet.scrapes").inc();
                apollo_telemetry::emit_event(
                    "fleet.coverage",
                    &[
                        ("window", FieldValue::from(agg.window)),
                        ("cores_reporting", FieldValue::from(agg.cores_reporting)),
                        ("cores_total", FieldValue::from(agg.cores_total)),
                    ],
                );
                respond(out, "200 OK", "text/plain; version=0.0.4", &fleet_gauges(&agg))
            }
            "/fleet/events" if (0..runtime.hubs.len()).any(backlogged) => {
                shed(out, "fleet", "watermark")
            }
            "/fleet/events" => stream_fleet_events(out, runtime, stop),
            _ => {
                let (core, leaf) = path.strip_prefix("/cores/")?.split_once('/')?;
                if leaf != "metrics" && leaf != "events" {
                    return None;
                }
                let Some(&shard) = runtime.core_shard.get(core) else {
                    return Some(respond(out, "404 Not Found", "text/plain", "unknown core\n"));
                };
                if leaf == "metrics" {
                    core_metrics(out, runtime, core)
                } else if backlogged(shard) {
                    shed(out, "fleet", "watermark")
                } else {
                    stream_core_events(out, runtime, shard, core, stop)
                }
            }
        })
    }

    fn close(&self) {
        self.runtime.close();
    }
}

/// Renders the fleet aggregate as Prometheus-style gauge text.
fn fleet_gauges(agg: &crate::aggregate::FleetAggregate) -> String {
    let rows: [(&str, f64); 9] = [
        ("fleet_cores_total", agg.cores_total as f64),
        ("fleet_cores_reporting", agg.cores_reporting as f64),
        ("fleet_shards_degraded", agg.shards_degraded as f64),
        ("fleet_window", agg.window as f64),
        ("fleet_p50_power", agg.p50_power),
        ("fleet_p99_power", agg.p99_power),
        ("fleet_mean_power", agg.mean_power),
        ("fleet_alarms", agg.alarms as f64),
        ("fleet_energy", agg.energy),
    ];
    let mut body = gauge_text(&rows, "");
    if !agg.unit_labels.is_empty() {
        let _ = writeln!(body, "# TYPE fleet_unit_raw gauge");
        for (label, raw) in agg.unit_labels.iter().zip(&agg.unit_raw) {
            let _ = writeln!(body, "fleet_unit_raw{{unit=\"{label}\"}} {raw}");
        }
    }
    body
}

/// Latest single-core sample of a configured core, or `503` +
/// `Retry-After` while it has none (its shard is starting or parked).
fn core_metrics(out: &mut TcpStream, runtime: &ShardRuntime, core: &str) -> std::io::Result<()> {
    let sample = plock(&runtime.aggregator).core_sample(core).cloned();
    let Some(s) = sample else {
        return respond_with_headers(
            out,
            "503 Service Unavailable",
            "text/plain",
            &[("Retry-After", &RETRY_AFTER_S.to_string())],
            "core not reporting\n",
        );
    };
    let rows: [(&str, f64); 5] = [
        ("fleet_core_window", s.window as f64),
        ("fleet_core_est_power", s.est_power),
        ("fleet_core_true_power", s.true_power),
        ("fleet_core_alarms", s.alarms as f64),
        ("fleet_core_energy", s.energy),
    ];
    let body = gauge_text(&rows, &format!("{{core=\"{core}\"}}"));
    respond(out, "200 OK", "text/plain; version=0.0.4", &body)
}

/// One Prometheus gauge family per `(name, value)` row, each sample
/// carrying `labels` (`""` or `{k="v",…}`).
fn gauge_text(rows: &[(&str, f64)], labels: &str) -> String {
    let mut body = String::new();
    for (name, value) in rows {
        let _ = writeln!(body, "# TYPE {name} gauge\n{name}{labels} {value}");
    }
    body
}

/// Streams every shard's batches (original per-shard `seq` kept) until
/// all hubs close, the stop flag rises, or the client stalls out.
fn stream_fleet_events(
    out: &mut TcpStream,
    runtime: &ShardRuntime,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let subs: Vec<_> = runtime.hubs.iter().map(|h| h.subscribe().0).collect();
    stream_head(out)?;
    let mut open: Vec<bool> = vec![true; subs.len()];
    while open.iter().any(|&o| o) {
        let mut progressed = false;
        for (i, sub) in subs.iter().enumerate() {
            if !open[i] {
                continue;
            }
            match sub.poll(Duration::from_millis(20)) {
                Poll::Body(b) => {
                    progressed = true;
                    if stream_line(out, &b.to_jsonl(), "fleet").is_err() {
                        return Ok(());
                    }
                }
                Poll::Timeout => {}
                Poll::Closed => open[i] = false,
            }
        }
        if !progressed && stop.load(Ordering::Relaxed) && runtime.hubs.iter().all(|h| h.closed()) {
            break;
        }
    }
    Ok(())
}

/// Streams one core's projected rows with a per-subscriber dense `seq`
/// (re-stamped at send time, so delivered streams pass `trace-lint`
/// even after hub-side drops).
fn stream_core_events(
    out: &mut TcpStream,
    runtime: &ShardRuntime,
    shard: usize,
    core: &str,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let (sub, _) = runtime.hubs[shard].subscribe();
    stream_head(out)?;
    let mut seq = 0u64;
    loop {
        match sub.poll(Duration::from_millis(100)) {
            Poll::Body(b) => {
                let Some(row) = b.project_core(core, seq) else {
                    continue;
                };
                seq += 1;
                if stream_line(out, &row.to_jsonl(), "fleet").is_err() {
                    return Ok(());
                }
            }
            Poll::Timeout if stop.load(Ordering::Relaxed) && runtime.hubs[shard].closed() => {
                return Ok(());
            }
            Poll::Timeout => {}
            Poll::Closed => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::FleetAggregator;
    use crate::batch::{test_batch, BatchHub, WindowBatch};
    use apollo_introspect::server::http_get_lines;
    use apollo_introspect::{http_get, HealthRegistry};
    use apollo_telemetry::framing;
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    const TWO_CORES: &[(&str, f64, &[u64])] = &[("c0", 1.0, &[4]), ("c1", 2.0, &[4])];

    fn test_runtime(cores: &[&str]) -> Arc<ShardRuntime> {
        let mut core_shard = BTreeMap::new();
        for c in cores {
            core_shard.insert((*c).to_owned(), 0usize);
        }
        Arc::new(ShardRuntime {
            hubs: vec![BatchHub::new(8)],
            health: Arc::new(HealthRegistry::new()),
            aggregator: Mutex::new(FleetAggregator::new(cores.len(), 2)),
            core_shard,
            cores_total: cores.len(),
        })
    }

    fn start(
        runtime: &Arc<ShardRuntime>,
        opts: FleetServerOptions,
    ) -> (FleetServerHandle, String, Arc<AtomicBool>) {
        let stop = Arc::new(AtomicBool::new(false));
        let server =
            serve_fleet("127.0.0.1:0", Arc::clone(runtime), Arc::clone(&stop), opts).unwrap();
        let addr = server.addr().to_string();
        (server, addr, stop)
    }

    #[test]
    fn routes_serve_fleet_and_core_metrics() {
        let runtime = test_runtime(&["c0", "c1"]);
        plock(&runtime.aggregator).ingest(&test_batch(0, 0, 3, TWO_CORES));
        let (server, addr, _stop) = start(&runtime, FleetServerOptions::default());
        let index = http_get_lines(&addr, "/", None).unwrap();
        assert!(index[0].contains("/fleet/metrics"), "{index:?}");
        let metrics = http_get_lines(&addr, "/fleet/metrics", None).unwrap();
        assert!(
            metrics.iter().any(|l| l == "fleet_cores_total 2"),
            "{metrics:?}"
        );
        assert!(
            metrics.iter().any(|l| l == "fleet_unit_raw{unit=\"u0\"} 8"),
            "{metrics:?}"
        );
        let core = http_get_lines(&addr, "/cores/c1/metrics", None).unwrap();
        assert!(
            core.iter().any(|l| l == "fleet_core_est_power{core=\"c1\"} 2"),
            "{core:?}"
        );
        let missing = http_get(&addr, "/cores/zz/metrics", None, Duration::from_secs(5)).unwrap();
        assert_eq!(missing.status, 404);
        let health = http_get_lines(&addr, "/healthz", None).unwrap();
        assert_eq!(health, vec!["ok"]);
        server.stop();
    }

    #[test]
    fn configured_core_without_a_sample_is_503_not_404() {
        // c1 is configured but its shard has not published yet; zz
        // was never configured.
        let runtime = test_runtime(&["c0", "c1"]);
        plock(&runtime.aggregator).ingest(&test_batch(0, 0, 0, &[("c0", 1.0, &[4])]));
        let (server, addr, _stop) = start(&runtime, FleetServerOptions::default());
        let get = |path: &str| http_get(&addr, path, None, Duration::from_secs(5)).unwrap();
        assert_eq!(get("/cores/c0/metrics").status, 200);
        let pending = get("/cores/c1/metrics");
        assert_eq!(pending.status, 503);
        assert_eq!(pending.retry_after_ms, Some(RETRY_AFTER_S * 1000));
        assert_eq!(pending.lines, vec!["core not reporting"]);
        assert_eq!(get("/cores/zz/metrics").status, 404);
        server.stop();
    }

    #[test]
    fn degraded_fleet_fails_healthz_but_keeps_serving() {
        let runtime = test_runtime(&["c0"]);
        runtime.health.report_state("shard0", "degraded", 3, 0);
        let (server, addr, _stop) = start(&runtime, FleetServerOptions::default());
        let res = http_get(&addr, "/healthz", None, Duration::from_secs(5)).unwrap();
        assert_eq!(res.status, 503);
        let metrics = http_get_lines(&addr, "/fleet/metrics", None).unwrap();
        assert!(!metrics.is_empty(), "metrics keep serving while degraded");
        server.stop();
    }

    #[test]
    fn watermark_sheds_events_with_retry_after() {
        let runtime = test_runtime(&["c0"]);
        let opts = FleetServerOptions {
            watermark: 1,
            ..FleetServerOptions::default()
        };
        // A parked subscriber backs the hub queue up past the
        // watermark before the scrape arrives.
        let parked = runtime.hubs[0].subscribe();
        for seq in 0..3 {
            runtime.hubs[0].publish(test_batch(0, seq, seq, &[("c0", 1.0, &[4])]));
        }
        let (server, addr, _stop) = start(&runtime, opts);
        let res = http_get(&addr, "/fleet/events", None, Duration::from_secs(5)).unwrap();
        assert_eq!(res.status, 503);
        assert_eq!(res.retry_after_ms, Some(RETRY_AFTER_S * 1000));
        let res = http_get(&addr, "/cores/c0/events", None, Duration::from_secs(5)).unwrap();
        assert_eq!(res.status, 503);
        drop(parked);
        server.stop();
    }

    #[test]
    fn core_events_project_with_dense_seq() {
        let runtime = test_runtime(&["c0", "c1"]);
        let (server, addr, _stop) = start(&runtime, FleetServerOptions::default());
        let publisher = {
            let runtime = Arc::clone(&runtime);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(150));
                for seq in 0..4u64 {
                    runtime.hubs[0].publish(test_batch(0, seq, seq, TWO_CORES));
                }
                runtime.hubs[0].close();
            })
        };
        let lines = http_get_lines(&addr, "/cores/c1/events", Some(4)).unwrap();
        publisher.join().unwrap();
        assert_eq!(lines.len(), 4, "{lines:?}");
        for (i, l) in lines.iter().enumerate() {
            let b: WindowBatch = framing::validate_framed(l).unwrap();
            assert_eq!(b.seq, i as u64, "dense per-subscriber seq");
            assert_eq!(b.cores, vec!["c1"]);
        }
        server.stop();
    }

    #[test]
    fn shutdown_raises_the_shared_stop_flag() {
        let runtime = test_runtime(&["c0"]);
        let (server, addr, stop) = start(&runtime, FleetServerOptions::default());
        let lines = http_get_lines(&addr, "/shutdown", None).unwrap();
        assert!(lines.iter().any(|l| l.contains("shutting down")));
        assert!(stop.load(Ordering::Relaxed));
        server.stop();
    }
}
