//! Retrying HTTP client with deterministic backoff.
//!
//! `apollo scrape` (and the fleet smoke harnesses) talk to endpoints
//! that shed load by design: a `503` + `Retry-After` is the serving
//! layer doing its job, not a scrape failure. This module wraps the
//! one-shot GET in a [`RetryPolicy`] mirroring the supervisor's
//! jitter-free exponential backoff: retry transient failures
//! (connection errors, timeouts, 5xx) up to `retries` times with
//! `backoff_ms * 2^(n-1)` delays, honour `Retry-After` when the server
//! names a longer wait, and fail fast on 4xx (the request itself is
//! wrong — repeating it cannot help). Delays are a pure function of
//! the attempt number, so scripted scrape schedules are replayable.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Client-side retry knobs for [`http_get_lines_retry`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 = single shot).
    pub retries: u32,
    /// Base backoff delay; attempt `n` waits `backoff_ms * 2^(n-1)`.
    pub backoff_ms: u64,
    /// Per-attempt socket read/write timeout.
    pub deadline_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 0,
            backoff_ms: 100,
            deadline_ms: 10_000,
        }
    }
}

impl RetryPolicy {
    /// Deterministic delay before retry `attempt` (1-based): pure
    /// doubling from `backoff_ms`, saturating instead of overflowing.
    #[must_use]
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(63);
        self.backoff_ms.saturating_mul(1u64.checked_shl(shift).unwrap_or(u64::MAX))
    }
}

/// One parsed HTTP response: status code, optional `Retry-After`
/// (converted to milliseconds), and non-empty body lines.
#[derive(Debug)]
pub struct HttpResponse {
    /// Numeric status code from the status line.
    pub status: u16,
    /// `Retry-After` header in milliseconds, when present (the header
    /// carries whole seconds on the wire).
    pub retry_after_ms: Option<u64>,
    /// Non-empty body lines, CR/LF-trimmed (capped at `max_lines`).
    pub lines: Vec<String>,
}

/// Connects to `addr` and sends `GET path` with both socket timeouts
/// set to `timeout`; the returned stream is ready to read the answer.
///
/// # Errors
/// Returns connection and write errors.
pub fn send_get(addr: &str, path: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    // One write_all for the whole request: a formatted write would
    // issue one syscall per fragment, and a server that answers after
    // the first fragment (stub servers, aggressive shedders) would
    // reset the socket mid-request.
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    (&stream).write_all(request.as_bytes())?;
    Ok(stream)
}

/// One-shot GET returning the full parsed response instead of folding
/// non-200s into errors: the retry loop needs the status code and
/// `Retry-After` to classify the outcome.
///
/// # Errors
/// Returns connection and read errors; a malformed status line is
/// `InvalidData`.
pub fn http_get(
    addr: &str,
    path: &str,
    max_lines: Option<usize>,
    timeout: Duration,
) -> std::io::Result<HttpResponse> {
    let mut reader = BufReader::new(send_get(addr, path, timeout)?);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed status line: {}", status_line.trim()),
            )
        })?;
    // Headers up to the blank line; capture Retry-After if present.
    let mut retry_after_ms = None;
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        let trimmed = line.trim();
        if n == 0 || trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("retry-after") {
                retry_after_ms = value.trim().parse::<u64>().ok().map(|s| s * 1000);
            }
        }
    }
    let mut lines = Vec::new();
    loop {
        if let Some(cap) = max_lines {
            if lines.len() >= cap {
                break;
            }
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                let trimmed = line.trim_end_matches(['\r', '\n']);
                if !trimmed.is_empty() {
                    lines.push(trimmed.to_owned());
                }
            }
            Err(e) if crate::server::is_timeout(&e) => break,
            Err(e) => return Err(e),
        }
    }
    Ok(HttpResponse {
        status,
        retry_after_ms,
        lines,
    })
}

/// Whether one attempt's outcome should be retried.
fn transient(res: &std::io::Result<HttpResponse>) -> bool {
    match res {
        // Connection refused/reset, timeouts, mid-stream errors: the
        // server may simply not be up yet (or be restarting a shard).
        Err(_) => true,
        // 5xx is the server telling us to come back later (load
        // shedding, degraded health). 4xx means the request is wrong.
        Ok(r) => r.status >= 500,
    }
}

/// [`crate::http_get_lines`] with client-side robustness: retries
/// transient failures per `policy`, sleeping the deterministic backoff
/// delay (or the server's `Retry-After`, whichever is longer) between
/// attempts. Fails only once every attempt is exhausted; 4xx responses
/// fail immediately.
///
/// # Errors
/// The terminal attempt's error; non-2xx terminal statuses surface as
/// `InvalidData` (matching `http_get_lines`).
pub fn http_get_lines_retry(
    addr: &str,
    path: &str,
    max_lines: Option<usize>,
    policy: &RetryPolicy,
) -> std::io::Result<Vec<String>> {
    let timeout = Duration::from_millis(policy.deadline_ms.max(1));
    let mut attempt = 0u32;
    loop {
        let res = http_get(addr, path, max_lines, timeout);
        let retryable = transient(&res);
        match res {
            Ok(r) if (200..300).contains(&r.status) => return Ok(r.lines),
            res if retryable && attempt < policy.retries => {
                attempt += 1;
                let server_wait = res
                    .as_ref()
                    .ok()
                    .and_then(|r| r.retry_after_ms)
                    .unwrap_or(0);
                let wait = policy.delay_ms(attempt).max(server_wait);
                apollo_telemetry::counter("introspect.client.retries").inc();
                std::thread::sleep(Duration::from_millis(wait));
            }
            Ok(r) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("HTTP error: status {} after {attempt} retries", r.status),
                ));
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;
    use std::net::TcpListener;

    #[test]
    fn backoff_is_pure_doubling_and_saturates() {
        let p = RetryPolicy {
            retries: 5,
            backoff_ms: 50,
            deadline_ms: 1000,
        };
        assert_eq!(p.delay_ms(1), 50);
        assert_eq!(p.delay_ms(2), 100);
        assert_eq!(p.delay_ms(3), 200);
        let big = RetryPolicy {
            retries: 200,
            backoff_ms: u64::MAX / 2,
            deadline_ms: 1000,
        };
        assert_eq!(big.delay_ms(100), u64::MAX, "saturates, never overflows");
        // Deterministic: same attempt, same delay.
        assert_eq!(p.delay_ms(3), p.delay_ms(3));
    }

    /// One-thread stub server: answers `replies` in order, then stops.
    fn stub_server(replies: Vec<String>) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            for reply in replies {
                let (mut s, _) = listener.accept().unwrap();
                // Read the whole request head before answering, so
                // closing the socket never resets an in-flight request.
                let mut req = Vec::new();
                let mut buf = [0u8; 512];
                while !req.windows(4).any(|w| w == b"\r\n\r\n") {
                    match s.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => req.extend_from_slice(&buf[..n]),
                    }
                }
                let _ = s.write_all(reply.as_bytes());
            }
        });
        (addr, h)
    }

    fn resp(status: &str, extra: &str, body: &str) -> String {
        format!(
            "HTTP/1.1 {status}\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n{extra}Connection: close\r\n\r\n{body}",
            body.len()
        )
    }

    #[test]
    fn retries_through_503_to_success() {
        let (addr, h) = stub_server(vec![
            resp("503 Service Unavailable", "Retry-After: 0\r\n", "busy\n"),
            resp("200 OK", "", "hello\n"),
        ]);
        let policy = RetryPolicy {
            retries: 3,
            backoff_ms: 1,
            deadline_ms: 2000,
        };
        let lines = http_get_lines_retry(&addr, "/", None, &policy).unwrap();
        assert_eq!(lines, vec!["hello".to_string()]);
        h.join().unwrap();
    }

    #[test]
    fn fails_fast_on_4xx() {
        let (addr, h) = stub_server(vec![resp("404 Not Found", "", "nope\n")]);
        let policy = RetryPolicy {
            retries: 5,
            backoff_ms: 1,
            deadline_ms: 2000,
        };
        let err = http_get_lines_retry(&addr, "/nope", None, &policy).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("404"), "{err}");
        // Exactly one request was served; a second accept would hang,
        // so the join returning proves no retry happened.
        h.join().unwrap();
    }

    #[test]
    fn exhausted_retries_surface_the_last_error() {
        // Bind then drop: connecting to the freed port is refused.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let policy = RetryPolicy {
            retries: 2,
            backoff_ms: 1,
            deadline_ms: 200,
        };
        assert!(http_get_lines_retry(&addr, "/", None, &policy).is_err());
    }

    #[test]
    fn retry_after_parses_to_millis() {
        let (addr, h) = stub_server(vec![resp("200 OK", "Retry-After: 7\r\n", "ok\n")]);
        let r = http_get(&addr, "/", None, Duration::from_secs(2)).unwrap();
        assert_eq!(r.retry_after_ms, Some(7000));
        assert_eq!(r.status, 200);
        h.join().unwrap();
    }
}
