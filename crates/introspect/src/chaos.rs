//! Seeded, replayable chaos plans for the introspection service.
//!
//! A [`ChaosPlan`] is a deterministic function of its seed: the same
//! seed always yields the same fault sequence, so a chaos run that
//! exposes a bug is *replayable* by quoting one integer. Faults cover
//! the service's failure surfaces:
//!
//! * [`ServiceFault::PipelinePanic`] — a monitor pipeline panics right
//!   after a chosen window, on a chosen run attempt (attempt-scoped so
//!   the checkpoint-resumed successor survives the same window);
//! * [`ServiceFault::SubscriberStall`] — an `/events` client stops
//!   draining its socket, exercising slow-client eviction and
//!   adaptive downsampling;
//! * [`ServiceFault::ConnChurn`] — a burst of connect/disconnect
//!   cycles against the endpoint, exercising the accept loop's reaping
//!   and shedding;
//! * [`ServiceFault::MalformedRequest`] — protocol garbage on the
//!   wire, exercising the bounded parser.
//!
//! The client-side drivers ([`send_malformed`], [`churn_connections`])
//! live here so the differential tests and the `repro_chaos` bench
//! binary share one implementation.

use crate::client::send_get;
use crate::supervisor::InjectedPanic;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Minimal deterministic PRNG (splitmix64): good enough for fault
/// placement, zero dependencies, stable across platforms.
#[derive(Clone, Debug)]
pub struct ChaosRng(u64);

impl ChaosRng {
    /// New generator for `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosRng(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n >= 1, "below(0) is meaningless");
        self.next_u64() % n
    }
}

/// The shape of one malformed request.
#[derive(Copy, Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum MalformedKind {
    /// A request line far beyond the server's line cap, no terminator.
    OversizedLine,
    /// Non-UTF-8 garbage bytes.
    GarbageBytes,
    /// Connect, send nothing, close (zero-length read).
    ZeroLength,
    /// A request line with bare `\n` framing and no header terminator.
    MissingCrlf,
}

impl MalformedKind {
    /// All kinds, in stable order.
    pub const ALL: [MalformedKind; 4] = [
        MalformedKind::OversizedLine,
        MalformedKind::GarbageBytes,
        MalformedKind::ZeroLength,
        MalformedKind::MissingCrlf,
    ];

    /// The bytes this fault puts on the wire (empty = close
    /// immediately).
    pub fn payload(self) -> Vec<u8> {
        match self {
            MalformedKind::OversizedLine => {
                let mut p = b"GET /".to_vec();
                p.extend(vec![b'x'; 64 * 1024]);
                p
            }
            MalformedKind::GarbageBytes => b"\x00\xff\xfe\x01\x80 \x9c garbage \x02\n\r\n".to_vec(),
            MalformedKind::ZeroLength => Vec::new(),
            MalformedKind::MissingCrlf => b"GET / HTTP/1.1\nHost: x\n\n".to_vec(),
        }
    }
}

/// One injected fault.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ServiceFault {
    /// Pipeline `pipeline` (index into the fleet spec) panics after
    /// `window`, on run attempt `attempt`.
    PipelinePanic {
        /// Fleet index of the victim pipeline.
        pipeline: usize,
        /// Global window index after which it panics.
        window: u64,
        /// 0-based run attempt the fault applies to.
        attempt: u32,
    },
    /// An `/events` subscriber connects and stops draining.
    SubscriberStall {
        /// How long the stalled client holds its socket, ms.
        hold_ms: u64,
    },
    /// A burst of `count` connect/close cycles.
    ConnChurn {
        /// Connections in the burst.
        count: u32,
    },
    /// One malformed request.
    MalformedRequest {
        /// Payload shape.
        kind: MalformedKind,
    },
}

/// A seeded, replayable fault plan.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ChaosPlan {
    /// The seed that generated (and replays) this plan.
    pub seed: u64,
    /// Faults in injection order.
    pub faults: Vec<ServiceFault>,
}

impl ChaosPlan {
    /// Deterministically generates a plan: `n_faults` faults against a
    /// fleet of `n_pipelines` pipelines whose runs complete about
    /// `windows` windows. Same arguments ⇒ identical plan, always.
    pub fn generate(seed: u64, n_pipelines: usize, windows: u64, n_faults: usize) -> ChaosPlan {
        assert!(n_pipelines >= 1 && windows >= 2);
        let mut rng = ChaosRng::new(seed);
        let mut faults = Vec::with_capacity(n_faults);
        for _ in 0..n_faults {
            let fault = match rng.below(4) {
                0 => ServiceFault::PipelinePanic {
                    pipeline: rng.below(n_pipelines as u64) as usize,
                    // Never the final window: leave room to recover.
                    window: rng.below(windows - 1),
                    // Scope panics to the first attempts so the
                    // circuit breaker is reachable but not guaranteed.
                    attempt: rng.below(2) as u32,
                },
                1 => ServiceFault::SubscriberStall {
                    hold_ms: 50 + rng.below(200),
                },
                2 => ServiceFault::ConnChurn {
                    count: 2 + rng.below(6) as u32,
                },
                _ => ServiceFault::MalformedRequest {
                    kind: MalformedKind::ALL[rng.below(4) as usize],
                },
            };
            faults.push(fault);
        }
        ChaosPlan { seed, faults }
    }

    /// The attempt-scoped panic schedule for fleet pipeline `index`,
    /// ready for
    /// [`PipelineSpec::faults`](crate::supervisor::PipelineSpec).
    pub fn panics_for(&self, index: usize) -> Vec<InjectedPanic> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                ServiceFault::PipelinePanic {
                    pipeline,
                    window,
                    attempt,
                } if *pipeline == index => Some(InjectedPanic {
                    attempt: *attempt,
                    window: *window,
                }),
                _ => None,
            })
            .collect()
    }
}

/// Sends one malformed payload to `addr`, drains whatever status line
/// comes back (if any), and returns it. Never panics on peer
/// behaviour.
pub fn send_malformed(addr: &str, kind: MalformedKind) -> Option<String> {
    let mut s = TcpStream::connect(addr).ok()?;
    let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = s.set_write_timeout(Some(Duration::from_secs(2)));
    let payload = kind.payload();
    if payload.is_empty() {
        return None; // ZeroLength: connect-and-close
    }
    let _ = s.write_all(&payload);
    let _ = s.flush();
    if matches!(kind, MalformedKind::OversizedLine) {
        // The server may answer 400 before draining our oversized
        // line; stop sending and just read.
        let _ = s.shutdown(std::net::Shutdown::Write);
    }
    let mut r = BufReader::new(s);
    let mut status = String::new();
    match r.read_line(&mut status) {
        Ok(n) if n > 0 => Some(status.trim().to_owned()),
        _ => None,
    }
}

/// Opens and immediately closes `count` connections against `addr`.
pub fn churn_connections(addr: &str, count: u32) {
    for _ in 0..count {
        if let Ok(s) = TcpStream::connect(addr) {
            drop(s);
        }
    }
}

/// Connects to `/events` and deliberately stops draining for
/// `hold_ms`, then reads whatever is left until the server closes or
/// evicts. Returns the number of body lines ultimately received.
pub fn stall_subscriber(addr: &str, hold_ms: u64) -> usize {
    let Ok(stream) = send_get(addr, "/events", Duration::from_secs(2)) else {
        return 0;
    };
    // Stall: hold the socket without reading.
    std::thread::sleep(Duration::from_millis(hold_ms));
    // Then drain what's left (possibly nothing if we were evicted).
    BufReader::new(stream).split(b'\n').map_while(Result::ok).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_different_seed_different_plan() {
        let a = ChaosPlan::generate(42, 4, 32, 16);
        let b = ChaosPlan::generate(42, 4, 32, 16);
        assert_eq!(a, b, "plans are pure functions of the seed");
        let c = ChaosPlan::generate(43, 4, 32, 16);
        assert_ne!(a, c, "seed actually matters");
        assert_eq!(a.faults.len(), 16);
    }

    #[test]
    fn plan_respects_bounds() {
        let plan = ChaosPlan::generate(7, 3, 16, 64);
        for f in &plan.faults {
            match f {
                ServiceFault::PipelinePanic {
                    pipeline,
                    window,
                    attempt,
                } => {
                    assert!(*pipeline < 3);
                    assert!(*window < 15, "never the final window");
                    assert!(*attempt < 2);
                }
                ServiceFault::SubscriberStall { hold_ms } => {
                    assert!((50..250).contains(hold_ms));
                }
                ServiceFault::ConnChurn { count } => assert!((2..8).contains(count)),
                ServiceFault::MalformedRequest { .. } => {}
            }
        }
    }

    #[test]
    fn panics_for_scopes_to_one_pipeline() {
        let plan = ChaosPlan {
            seed: 0,
            faults: vec![
                ServiceFault::PipelinePanic {
                    pipeline: 0,
                    window: 3,
                    attempt: 0,
                },
                ServiceFault::PipelinePanic {
                    pipeline: 1,
                    window: 5,
                    attempt: 1,
                },
                ServiceFault::ConnChurn { count: 2 },
            ],
        };
        assert_eq!(
            plan.panics_for(0),
            vec![InjectedPanic {
                attempt: 0,
                window: 3
            }]
        );
        assert_eq!(
            plan.panics_for(1),
            vec![InjectedPanic {
                attempt: 1,
                window: 5
            }]
        );
        assert!(plan.panics_for(2).is_empty());
    }

    #[test]
    fn malformed_payloads_have_expected_shapes() {
        assert!(MalformedKind::OversizedLine.payload().len() > 32 * 1024);
        assert!(MalformedKind::ZeroLength.payload().is_empty());
        assert!(!MalformedKind::GarbageBytes.payload().is_empty());
        let crlf = MalformedKind::MissingCrlf.payload();
        assert!(
            !crlf.windows(2).any(|w| w == b"\r\n"),
            "MissingCrlf must contain no CRLF framing"
        );
    }
}
