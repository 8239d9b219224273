//! # apollo-fleet
//!
//! Sharded fleet serving for APOLLO runtime power introspection: the
//! paper's deployment story — power introspection across high-volume
//! silicon with thousands of monitored cores — needs more than the
//! single-pipeline TCP endpoint `apollo-introspect` provides. This
//! crate multiplexes many concurrent monitor pipelines (mixed presets
//! and window configurations) behind one endpoint, built so that at
//! fleet scale *partial failure is the steady state*: one wedged
//! core, slow subscriber, or malformed client can never degrade its
//! neighbors.
//!
//! * [`core`] — one monitored core as a resumable state machine,
//!   shared with `apollo-introspect`'s monitor loop:
//!   [`core::CoreMonitor::step_window`] produces the per-window rows a
//!   shard batches;
//! * [`batch`] — columnar [`batch::WindowBatch`] export (one framed
//!   record per window across all cores on a shard, replacing
//!   line-at-a-time JSONL) and the bounded [`batch::BatchHub`] fan-out
//!   with queue-depth watermarks for admission control;
//! * [`shard`] — the sharded executor: N shard threads each own a
//!   disjoint set of cores behind a `catch_unwind` bulkhead with a
//!   per-shard circuit breaker reusing the supervisor's deterministic
//!   backoff; a panicking shard restarts (replaying completed windows
//!   so its stream stays byte-identical) or parks as `Degraded`
//!   without stalling siblings;
//! * [`aggregate`] — the degrade-don't-die aggregation tier: fleet
//!   p50/p99/mean power, per-unit attribution rollups and drift-alarm
//!   fan-in, published with an explicit `cores_reporting /
//!   cores_total` coverage field instead of blocking on missing or
//!   Degraded cores;
//! * [`server`] — per-core request routing (`/cores/<id>/metrics`,
//!   `/cores/<id>/events`, `/fleet/metrics`, `/fleet/events`) with
//!   admission control: connection caps, deadline-aware timeouts, and
//!   `503` + `Retry-After` load shedding on queue-depth watermarks.
//!
//! # Determinism contract
//!
//! Everything a shard publishes is a pure function of its core specs
//! and the seeded kill plan: batch streams and the final aggregation
//! report are byte-identical across reruns (modulo `ts_ns` fields),
//! and a shard killed and recovered produces the same stream as one
//! never killed. The chaos differential tests prove the stronger
//! bulkhead property: surviving shards' streams and the final
//! aggregate are byte-identical to a run where the killed cores were
//! simply absent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod batch;
pub mod server;
pub mod shard;

pub use apollo_introspect::core;

pub use aggregate::{FleetAggregate, FleetAggregator, AGGREGATE_VERSION};
pub use batch::{BatchHub, BatchSubscriber, WindowBatch, BATCH_VERSION};
pub use core::{CoreMonitor, CoreSpec, CoreWindow};
pub use server::{serve_fleet, FleetServerHandle, FleetServerOptions};
pub use shard::{
    run_fleet, shard_cores, FleetConfig, FleetReport, ShardKill, ShardOutcome, ShardRuntime,
};
