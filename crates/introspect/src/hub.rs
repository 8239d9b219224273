//! Fan-out hub between the monitor loop and streaming subscribers.
//!
//! The monitor publishes one [`RecordBody`] per completed window (plus
//! lifecycle events); each `/events` subscriber owns a bounded queue.
//! Publishing **never blocks**: when a subscriber's queue is full the
//! oldest body is dropped and that subscriber's drop counter bumps —
//! a slow reader can lose history but can never stall the simulation
//! loop. Sequence numbers are assigned per subscriber *at send time*
//! (after any drops), so every delivered stream has dense `seq` and
//! passes `trace-lint` regardless of backpressure.
//!
//! # Adaptive downsampling
//!
//! Drop-oldest alone degrades a persistently slow subscriber into a
//! *random* subsample of the stream. With a [`DownsampleConfig`]
//! (see [`MonitorHub::with_downsample`]) the hub instead degrades
//! *gracefully*: once a subscriber's recent drops cross
//! `trigger_drops`, its delivery rate is halved (stride 1 → 2 → 4 …
//! up to `max_stride`) so it receives a regular 1-in-`stride`
//! thinning instead of bursty gaps. Hysteresis re-promotes: after
//! `promote_after` consecutive clean (drop-free) deliveries the
//! stride halves back. Every stride change emits a typed
//! `hub.downsample` event and bumps `introspect.hub.downsample`.

use crate::health::SubscriberStatus;
use crate::sync::plock;
use apollo_telemetry::{FieldValue, RecordBody};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A published body plus the causal identity of the window (or
/// lifecycle point) that produced it. The hub snapshots the
/// publishing thread's trace context at publish time, so delivery —
/// which happens on subscriber connection threads — can still parent
/// its records under the producing span.
#[derive(Clone, Debug, PartialEq)]
pub struct Traced {
    /// Trace of the producing pipeline (0 = untraced).
    pub trace_id: u64,
    /// Span open on the publishing thread at publish time (the window
    /// span for window bodies).
    pub parent_id: u64,
    /// The published record body.
    pub body: RecordBody,
}

/// Per-subscriber adaptive-downsampling policy.
#[derive(Copy, Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DownsampleConfig {
    /// Drops since the last stride change that demote the subscriber
    /// (halve its delivery rate).
    pub trigger_drops: u64,
    /// Consecutive clean (drop-free) deliveries that re-promote the
    /// subscriber (double its delivery rate) — the hysteresis that
    /// keeps a borderline reader from flapping.
    pub promote_after: u64,
    /// Stride ceiling (power of two): at most 1 body in `max_stride`
    /// is delivered to a chronically slow subscriber.
    pub max_stride: u32,
}

impl Default for DownsampleConfig {
    fn default() -> Self {
        DownsampleConfig {
            trigger_drops: 32,
            promote_after: 64,
            max_stride: 16,
        }
    }
}

/// One subscriber's bounded queue plus the hub's per-subscriber `lane`.
struct Queue<T, X> {
    id: u64,
    items: VecDeque<T>,
    dropped: u64,
    lane: X,
}

struct Lanes<T, X> {
    subs: Vec<Queue<T, X>>,
    next_id: u64,
    closed: bool,
    total_dropped: u64,
}

/// The bounded drop-oldest fan-out every hub is: each subscriber owns
/// a queue of at most `cap` items (lane state copied from `proto`),
/// publishing never blocks (a full queue loses its oldest item and
/// counts the drop), and [`Fanout::close`] lets subscribers drain and
/// then end. [`MonitorHub`] adds trace capture and downsampling.
pub struct Fanout<T, X = ()> {
    lanes: Mutex<Lanes<T, X>>,
    cv: Condvar,
    cap: usize,
    proto: X,
}

impl<T: Clone> Fanout<T> {
    /// A fan-out whose subscriber queues hold at most `cap` items.
    ///
    /// # Panics
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Arc<Self> {
        Self::build(cap, ())
    }

    /// Pushes `item` onto every subscriber queue, dropping the oldest
    /// item of a full one; returns the number dropped.
    pub fn publish(&self, item: impl Into<T>) -> u64 {
        self.publish_with(item.into(), |_| true, |_, _| {})
    }
}

impl<T: Clone, X: Clone> Fanout<T, X> {
    fn build(cap: usize, proto: X) -> Arc<Self> {
        assert!(cap >= 1, "queue capacity must be at least 1");
        let lanes = Lanes {
            subs: Vec::new(),
            next_id: 0,
            closed: false,
            total_dropped: 0,
        };
        Arc::new(Fanout {
            lanes: Mutex::new(lanes),
            cv: Condvar::new(),
            cap,
            proto,
        })
    }

    /// Publishing with per-subscriber hooks: `admit` may withhold the
    /// item from a subscriber, `settle(sub, dropped)` runs after each
    /// push. Returns the number of items dropped.
    fn publish_with(
        &self,
        item: T,
        mut admit: impl FnMut(&mut X) -> bool,
        mut settle: impl FnMut(&mut Queue<T, X>, bool),
    ) -> u64 {
        let mut lanes = plock(&self.lanes);
        if lanes.closed || lanes.subs.is_empty() {
            return 0;
        }
        let mut dropped = 0u64;
        for sub in &mut lanes.subs {
            if !admit(&mut sub.lane) {
                continue;
            }
            let full = sub.items.len() == self.cap;
            if full {
                sub.items.pop_front();
                sub.dropped += 1;
                dropped += 1;
            }
            sub.items.push_back(item.clone());
            settle(sub, full);
        }
        lanes.total_dropped += dropped;
        drop(lanes);
        self.cv.notify_all();
        dropped
    }

    /// Registers a subscriber; returns its handle and the live count
    /// after the registration.
    pub fn subscribe(self: &Arc<Self>) -> (Subscription<T, X>, usize) {
        let mut lanes = plock(&self.lanes);
        let id = lanes.next_id;
        lanes.next_id += 1;
        lanes.subs.push(Queue {
            id,
            items: VecDeque::new(),
            dropped: 0,
            lane: self.proto.clone(),
        });
        let sub = Subscription {
            fanout: Arc::clone(self),
            id,
        };
        (sub, lanes.subs.len())
    }

    /// Closes the fan-out: wakes every blocked subscriber, which then
    /// drains its queue and sees end-of-stream.
    pub fn close(&self) {
        plock(&self.lanes).closed = true;
        self.cv.notify_all();
    }

    /// True once [`Fanout::close`] ran.
    pub fn closed(&self) -> bool {
        plock(&self.lanes).closed
    }

    /// Live subscriber count.
    pub fn active(&self) -> usize {
        plock(&self.lanes).subs.len()
    }

    /// Items dropped across all subscribers by backpressure.
    pub fn total_dropped(&self) -> u64 {
        plock(&self.lanes).total_dropped
    }

    /// Deepest subscriber queue (0 with no subscribers) — the fleet's
    /// admission-control watermark input.
    pub fn max_depth(&self) -> usize {
        plock(&self.lanes).subs.iter().map(|s| s.items.len()).max().unwrap_or(0)
    }

    fn with_sub<R>(&self, id: u64, f: impl FnOnce(&Queue<T, X>) -> R) -> Option<R> {
        plock(&self.lanes).subs.iter().find(|s| s.id == id).map(f)
    }
}

/// What a subscriber poll returned.
pub enum Poll<T = Box<Traced>> {
    /// One item, in publish order.
    Body(T),
    /// Nothing arrived within the timeout; the stream is still live.
    Timeout,
    /// The hub closed and the queue is drained: end of stream.
    Closed,
}

/// One consumer's handle onto a [`Fanout`]; dropping it deregisters.
pub struct Subscription<T, X = ()> {
    fanout: Arc<Fanout<T, X>>,
    id: u64,
}

impl<T: Clone, X: Clone> Subscription<T, X> {
    /// Hub-assigned subscriber id (stable for the subscription's
    /// lifetime; used to label gauges and derive delivery-span ids).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Waits up to `timeout` for the next item.
    pub fn poll(&self, timeout: Duration) -> Poll<T> {
        let mut lanes = plock(&self.fanout.lanes);
        let mut timed_out = false;
        loop {
            let closed = lanes.closed;
            let Some(sub) = lanes.subs.iter_mut().find(|s| s.id == self.id) else {
                return Poll::Closed;
            };
            if let Some(item) = sub.items.pop_front() {
                return Poll::Body(item);
            }
            if closed {
                return Poll::Closed;
            }
            if timed_out {
                return Poll::Timeout;
            }
            let (guard, wait) = self
                .fanout
                .cv
                .wait_timeout(lanes, timeout)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            lanes = guard;
            // After a timeout, one last drain check before reporting it.
            timed_out = wait.timed_out();
        }
    }

    /// Items this subscriber lost to backpressure.
    pub fn dropped(&self) -> u64 {
        self.fanout.with_sub(self.id, |s| s.dropped).unwrap_or(0)
    }
}

impl<T, X> Drop for Subscription<T, X> {
    fn drop(&mut self) {
        plock(&self.fanout.lanes).subs.retain(|s| s.id != self.id);
        self.fanout.cv.notify_all();
    }
}

/// A [`MonitorHub`] subscriber's adaptive-downsampling state.
#[derive(Clone, Default)]
pub struct Thinning {
    /// The hub's policy (`None` = drop-oldest only).
    cfg: Option<DownsampleConfig>,
    /// Deliver 1 body in `2^shift`.
    shift: u32,
    /// Publish tick, for stride phase.
    tick: u64,
    /// Bodies withheld by downsampling (not counted as drops).
    downsampled: u64,
    drops_since_adjust: u64,
    clean_streak: u64,
}

impl Thinning {
    fn stride(&self) -> u32 {
        1 << self.shift
    }
}

/// Broadcast hub of `/events` bodies: a [`Fanout`] of traced bodies
/// with optional adaptive downsampling.
pub type MonitorHub = Fanout<Box<Traced>, Thinning>;

/// One `/events` consumer's handle onto a [`MonitorHub`].
pub type Subscriber = Subscription<Box<Traced>, Thinning>;

impl MonitorHub {
    /// New hub whose subscriber queues hold at most `queue_cap` bodies
    /// (drop-oldest only, no adaptive downsampling).
    ///
    /// # Panics
    /// Panics if `queue_cap` is zero.
    pub fn new(queue_cap: usize) -> Arc<Self> {
        Self::build(queue_cap, Thinning::default())
    }

    /// New hub with per-subscriber adaptive downsampling on top of the
    /// drop-oldest queues.
    ///
    /// # Panics
    /// Panics if `queue_cap` is zero, or if the config's `max_stride`
    /// is not a power of two ≥ 2 or `promote_after`/`trigger_drops`
    /// is zero.
    pub fn with_downsample(queue_cap: usize, cfg: DownsampleConfig) -> Arc<Self> {
        assert!(
            cfg.max_stride >= 2 && cfg.max_stride.is_power_of_two(),
            "max_stride must be a power of two >= 2"
        );
        assert!(
            cfg.trigger_drops >= 1 && cfg.promote_after >= 1,
            "downsample thresholds must be >= 1"
        );
        let proto = Thinning {
            cfg: Some(cfg),
            ..Thinning::default()
        };
        Self::build(queue_cap, proto)
    }

    /// Publishes one body to every live subscriber (drop-oldest on a
    /// full queue, adaptive stride thinning when configured). Never
    /// blocks beyond the hub mutex. The calling thread's trace
    /// context is captured into the queued item, so deliveries stay
    /// attributable to the producing window.
    pub fn publish(&self, body: &RecordBody) {
        let ctx = apollo_telemetry::current();
        let item = Box::new(Traced {
            trace_id: ctx.trace_id,
            parent_id: ctx.span_id,
            body: body.clone(),
        });
        // Stride changes, reported after the lock drops.
        let mut adjusted: Vec<(u64, u32, u64)> = Vec::new();
        let admit = |t: &mut Thinning| {
            let phase = t.tick;
            t.tick += 1;
            let skip = !phase.is_multiple_of(u64::from(t.stride()));
            t.downsampled += u64::from(skip);
            !skip
        };
        let settle = |sub: &mut Queue<Box<Traced>, Thinning>, dropped: bool| {
            let t = &mut sub.lane;
            if dropped {
                t.drops_since_adjust += 1;
                t.clean_streak = 0;
            } else {
                t.clean_streak += 1;
            }
            let Some(ds) = t.cfg else {
                return;
            };
            if t.drops_since_adjust >= ds.trigger_drops && t.stride() < ds.max_stride {
                t.shift += 1;
            } else if t.clean_streak >= ds.promote_after && t.shift > 0 {
                t.shift -= 1;
            } else {
                return;
            }
            t.drops_since_adjust = 0;
            t.clean_streak = 0;
            adjusted.push((sub.id, t.stride(), sub.dropped));
        };
        let dropped = self.publish_with(item, admit, settle);
        if dropped > 0 {
            apollo_telemetry::counter("introspect.hub.dropped").add(dropped);
        }
        for (id, stride, dropped) in adjusted {
            apollo_telemetry::counter("introspect.hub.downsample").inc();
            apollo_telemetry::emit_event(
                "hub.downsample",
                &[
                    ("subscriber", FieldValue::from(id)),
                    ("stride", FieldValue::from(u64::from(stride))),
                    ("dropped", FieldValue::from(dropped)),
                ],
            );
        }
    }

    /// Per-subscriber queue state for the `/status` surface and the
    /// labeled `/metrics` gauges (one row per live subscriber, in
    /// registration order).
    pub fn subscriber_stats(&self) -> Vec<SubscriberStatus> {
        plock(&self.lanes)
            .subs
            .iter()
            .map(|s| SubscriberStatus {
                id: s.id,
                depth: s.items.len() as u64,
                dropped: s.dropped,
                stride: u64::from(s.lane.stride()),
                downsampled: s.lane.downsampled,
            })
            .collect()
    }
}

impl Subscriber {
    /// Current delivery stride (1 = full rate; 2ⁿ = 1 body in 2ⁿ).
    pub fn stride(&self) -> u32 {
        self.fanout.with_sub(self.id, |s| s.lane.stride()).unwrap_or(1)
    }

    /// Bodies withheld from this subscriber by adaptive downsampling
    /// (regular thinning — distinct from backpressure drops).
    pub fn downsampled(&self) -> u64 {
        self.fanout.with_sub(self.id, |s| s.lane.downsampled).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apollo_telemetry::RecordBody;

    fn msg(i: u64) -> RecordBody {
        RecordBody::Message {
            level: "info".into(),
            text: format!("m{i}"),
        }
    }

    fn text_of(p: Poll) -> String {
        match p {
            Poll::Body(b) => match b.body {
                RecordBody::Message { text, .. } => text,
                other => panic!("unexpected body {other:?}"),
            },
            Poll::Timeout => "<timeout>".into(),
            Poll::Closed => "<closed>".into(),
        }
    }

    #[test]
    fn publish_without_subscribers_is_free() {
        let hub = MonitorHub::new(4);
        for i in 0..100 {
            hub.publish(&msg(i));
        }
        assert_eq!(hub.total_dropped(), 0);
        assert_eq!(hub.active(), 0);
    }

    #[test]
    fn slow_subscriber_drops_oldest_never_blocks() {
        let hub = MonitorHub::new(3);
        let (sub, active) = hub.subscribe();
        assert_eq!(active, 1);
        for i in 0..10 {
            hub.publish(&msg(i));
        }
        // Queue holds the newest 3; 7 dropped.
        assert_eq!(sub.dropped(), 7);
        assert_eq!(hub.total_dropped(), 7);
        let stats = hub.subscriber_stats();
        assert_eq!((stats[0].depth, stats[0].dropped, stats[0].stride), (3, 7, 1));
        for expect in 7..10 {
            assert_eq!(
                text_of(sub.poll(Duration::from_millis(10))),
                format!("m{expect}")
            );
        }
        assert!(matches!(sub.poll(Duration::from_millis(1)), Poll::Timeout));
        drop(sub);
        assert!(hub.subscriber_stats().is_empty(), "a dropped subscriber deregisters");
        assert_eq!(hub.active(), 0);
    }

    #[test]
    fn close_drains_then_ends_stream() {
        let hub = MonitorHub::new(8);
        let (sub, _) = hub.subscribe();
        hub.publish(&msg(0));
        hub.close();
        assert_eq!(text_of(sub.poll(Duration::from_millis(10))), "m0");
        assert!(matches!(sub.poll(Duration::from_millis(10)), Poll::Closed));
    }

    #[test]
    fn dropped_subscriber_deregisters() {
        let hub = MonitorHub::new(2);
        {
            let (_sub, active) = hub.subscribe();
            assert_eq!(active, 1);
        }
        assert_eq!(hub.active(), 0);
        assert!(hub.subscriber_stats().is_empty());
    }

    #[test]
    fn subscriber_stats_reflect_queue_state() {
        let hub = MonitorHub::new(3);
        let (sub, _) = hub.subscribe();
        for i in 0..5 {
            hub.publish(&msg(i));
        }
        let stats = hub.subscriber_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].depth, 3, "queue holds the newest cap bodies");
        assert_eq!(stats[0].dropped, 2);
        assert_eq!(stats[0].stride, 1);
        drop(sub);
        assert!(hub.subscriber_stats().is_empty());
    }

    #[test]
    fn stalled_subscriber_escalates_stride_to_cap() {
        let cfg = DownsampleConfig {
            trigger_drops: 2,
            promote_after: 4,
            max_stride: 4,
        };
        let hub = MonitorHub::with_downsample(1, cfg);
        let (sub, _) = hub.subscribe();
        // Never poll: every delivered publish past the first drops one.
        for i in 0..64 {
            hub.publish(&msg(i));
        }
        assert_eq!(sub.stride(), 4, "stride escalates to the cap");
        assert!(sub.downsampled() > 0, "thinning withheld some bodies");
        // At stride 4 only 1 in 4 publishes even reaches the queue, so
        // drops grow ~4x slower than without downsampling.
        assert!(
            sub.dropped() < 40,
            "downsampling curbed drops, got {}",
            sub.dropped()
        );
    }

    #[test]
    fn recovered_subscriber_repromotes_with_hysteresis() {
        let cfg = DownsampleConfig {
            trigger_drops: 2,
            promote_after: 3,
            max_stride: 8,
        };
        let hub = MonitorHub::with_downsample(1, cfg);
        let (sub, _) = hub.subscribe();
        for i in 0..32 {
            hub.publish(&msg(i));
        }
        assert!(sub.stride() > 1, "stalled reader was demoted");
        // Drain the backlog, then consume promptly after each publish:
        // every delivered body is clean, so hysteresis walks the stride
        // back down to 1.
        while matches!(sub.poll(Duration::from_millis(1)), Poll::Body(_)) {}
        let mut i = 32u64;
        while sub.stride() > 1 {
            hub.publish(&msg(i));
            i += 1;
            while matches!(sub.poll(Duration::from_millis(1)), Poll::Body(_)) {}
            assert!(i < 2048, "stride must re-promote, stuck at {}", sub.stride());
        }
        assert_eq!(sub.stride(), 1);
    }

    #[test]
    fn downsampled_delivery_is_regular_not_bursty() {
        let cfg = DownsampleConfig {
            trigger_drops: 1,
            promote_after: u64::MAX / 2, // never re-promote in this test
            max_stride: 2,
        };
        let hub = MonitorHub::with_downsample(1, cfg);
        let (sub, _) = hub.subscribe();
        // Force one drop to demote to stride 2.
        hub.publish(&msg(0));
        hub.publish(&msg(1));
        assert_eq!(sub.stride(), 2);
        while matches!(sub.poll(Duration::from_millis(1)), Poll::Body(_)) {}
        // Now consume promptly: exactly every other publish arrives.
        let mut got = Vec::new();
        for i in 2..12 {
            hub.publish(&msg(i));
            while let Poll::Body(b) = sub.poll(Duration::from_millis(1)) {
                if let RecordBody::Message { text, .. } = b.body {
                    got.push(text);
                }
            }
        }
        assert_eq!(got.len(), 5, "stride 2 delivers 1 in 2: {got:?}");
    }

    #[test]
    fn publish_captures_the_producing_trace_context() {
        let hub = MonitorHub::new(4);
        let (sub, _) = hub.subscribe();
        // Untraced publish: ids stay zero.
        hub.publish(&msg(0));
        // Traced publish: the queued item snapshots trace + open span.
        let root = apollo_telemetry::TraceCtx::root(apollo_telemetry::intern("hub-test"), 0);
        {
            let _ctx = apollo_telemetry::enter(root);
            hub.publish(&msg(1));
        }
        let a = match sub.poll(Duration::from_millis(10)) {
            Poll::Body(b) => *b,
            _ => panic!("expected first body"),
        };
        assert_eq!((a.trace_id, a.parent_id), (0, 0));
        let b = match sub.poll(Duration::from_millis(10)) {
            Poll::Body(b) => *b,
            _ => panic!("expected second body"),
        };
        assert_eq!((b.trace_id, b.parent_id), (root.trace_id, root.span_id));
    }

    #[test]
    fn cross_thread_delivery_in_order() {
        let hub = MonitorHub::new(64);
        let (sub, _) = hub.subscribe();
        let h2 = Arc::clone(&hub);
        let t = std::thread::spawn(move || {
            for i in 0..50 {
                h2.publish(&msg(i));
            }
            h2.close();
        });
        let mut got = Vec::new();
        loop {
            match sub.poll(Duration::from_millis(200)) {
                Poll::Body(b) => {
                    if let RecordBody::Message { text, .. } = b.body {
                        got.push(text);
                    }
                }
                Poll::Timeout => continue,
                Poll::Closed => break,
            }
        }
        t.join().unwrap();
        assert_eq!(got.len(), 50, "fast reader loses nothing");
        assert_eq!(got[0], "m0");
        assert_eq!(got[49], "m49");
    }
}
