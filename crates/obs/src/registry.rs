//! Named-instrument registry with text/JSON snapshots and the
//! slow-operation ring.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use crate::metrics::{Counter, Gauge, Histogram};
use crate::span::Span;

/// One slow operation captured by the ring (see
/// [`MetricsRegistry::set_slow_threshold`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowEvent {
    /// Monotonic sequence number across the registry's lifetime.
    pub seq: u64,
    /// Span name (`layer.operation`).
    pub name: &'static str,
    /// Wall time the span covered.
    pub nanos: u64,
    /// Optional span detail (e.g. the query DSL).
    pub detail: Option<String>,
}

const SLOW_RING_CAPACITY: usize = 128;

/// Process-wide home for named instruments.
///
/// Instruments are created on first use and shared (`Arc`) thereafter;
/// lookup takes a read lock, recording is lock-free. `BTreeMap` keeps
/// snapshots sorted so related `layer.operation` metrics group
/// together.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    slow_ring: Mutex<VecDeque<SlowEvent>>,
    slow_seq: AtomicU64,
    /// 0 disables slow-event capture.
    slow_threshold_nanos: AtomicU64,
}

fn get_or_create<T>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str, make: fn() -> T) -> Arc<T> {
    if let Some(found) = map.read().get(name) {
        return Arc::clone(found);
    }
    let mut write = map.write();
    Arc::clone(write.entry(name.to_string()).or_insert_with(|| Arc::new(make())))
}

impl MetricsRegistry {
    /// Empty registry with slow-event capture disabled.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name, Counter::new)
    }

    /// Gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name, Gauge::new)
    }

    /// Histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name, Histogram::new)
    }

    /// Start a [`Span`]; on drop it records into the histogram of the
    /// same name and, when over the slow threshold, into the ring.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span::start(self, name)
    }

    /// Capture spans at or above `threshold` in the slow ring; zero
    /// disables capture (the default).
    pub fn set_slow_threshold(&self, threshold: Duration) {
        self.slow_threshold_nanos
            .store(threshold.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
    }

    /// Current slow threshold in nanoseconds (0 = disabled).
    pub fn slow_threshold_nanos(&self) -> u64 {
        self.slow_threshold_nanos.load(Ordering::Relaxed)
    }

    pub(crate) fn record_slow(&self, name: &'static str, nanos: u64, detail: Option<String>) {
        let mut ring = self.slow_ring.lock();
        // Numbered under the lock, so ring order is sequence order.
        let seq = self.slow_seq.fetch_add(1, Ordering::Relaxed);
        if ring.len() == SLOW_RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(SlowEvent { seq, name, nanos, detail });
    }

    /// Record a noteworthy event into the slow-query ring regardless of
    /// the slow threshold. Used for events that are interesting per se —
    /// a cancelled request, a shed connection — where `nanos` is how
    /// long the work ran before the event and `detail` identifies the
    /// offending request.
    pub fn record_event(&self, name: &'static str, nanos: u64, detail: Option<String>) {
        self.record_slow(name, nanos, detail);
    }

    /// Slow events currently retained, oldest first.
    pub fn slow_events(&self) -> Vec<SlowEvent> {
        self.slow_ring.lock().iter().cloned().collect()
    }

    /// Flat `name=value` pairs (all `u64`), sorted by name: counters
    /// and gauges verbatim, histograms expanded to `.count`,
    /// `.p50_us`, `.p95_us`, `.p99_us`, `.max_us`, and `.sum_ms`.
    ///
    /// This is the wire format the service appends to `STATS`
    /// responses, so every value must parse as an unsigned integer
    /// (negative gauge levels clamp to zero).
    pub fn snapshot_kv(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for (name, c) in self.counters.read().iter() {
            out.push((name.clone(), c.get()));
        }
        for (name, g) in self.gauges.read().iter() {
            out.push((name.clone(), g.get().max(0) as u64));
        }
        for (name, h) in self.histograms.read().iter() {
            out.push((format!("{name}.count"), h.count()));
            out.push((format!("{name}.p50_us"), h.quantile(0.50).unwrap_or(0) / 1_000));
            out.push((format!("{name}.p95_us"), h.quantile(0.95).unwrap_or(0) / 1_000));
            out.push((format!("{name}.p99_us"), h.quantile(0.99).unwrap_or(0) / 1_000));
            out.push((format!("{name}.max_us"), h.max_nanos() / 1_000));
            out.push((format!("{name}.sum_ms"), h.sum_nanos() / 1_000_000));
        }
        out.sort();
        out
    }

    /// Human-readable snapshot: one `name=value` per line, sorted.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.snapshot_kv() {
            out.push_str(&name);
            out.push('=');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        out
    }

    /// Snapshot as a flat JSON object (hand-rolled; names contain only
    /// metric-safe characters, so no escaping is needed).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.snapshot_kv().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n  \"{name}\": {value}"));
        }
        out.push_str("\n}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_are_shared_by_name() {
        let reg = MetricsRegistry::new();
        reg.counter("a.hits").incr();
        reg.counter("a.hits").incr();
        assert_eq!(reg.counter("a.hits").get(), 2);
        assert!(Arc::ptr_eq(&reg.histogram("a.lat"), &reg.histogram("a.lat")));
    }

    #[test]
    fn snapshot_is_sorted_and_expands_histograms() {
        let reg = MetricsRegistry::new();
        reg.counter("z.count").add(3);
        reg.gauge("m.depth").set(-5);
        reg.histogram("a.lat").record(2_000_000);
        let kv = reg.snapshot_kv();
        let names: Vec<&str> = kv.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert!(names.contains(&"a.lat.p95_us"));
        let get = |k: &str| kv.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(get("z.count"), Some(3));
        assert_eq!(get("m.depth"), Some(0), "negative gauges clamp for the wire");
        assert_eq!(get("a.lat.count"), Some(1));
        assert!(get("a.lat.p50_us").unwrap() >= 1_700, "2ms record ~ p50");
    }

    #[test]
    fn slow_ring_captures_and_bounds() {
        let reg = MetricsRegistry::new();
        // Disabled by default: spans never enter the ring.
        drop(reg.span("x.op"));
        assert!(reg.slow_events().is_empty());

        reg.set_slow_threshold(Duration::ZERO);
        reg.set_slow_threshold(Duration::from_nanos(1));
        for i in 0..(SLOW_RING_CAPACITY + 10) {
            reg.record_slow("x.op", 10, Some(format!("op {i}")));
        }
        let events = reg.slow_events();
        assert_eq!(events.len(), SLOW_RING_CAPACITY);
        assert_eq!(events.first().unwrap().detail.as_deref(), Some("op 10"));
        assert_eq!(events.last().unwrap().seq, (SLOW_RING_CAPACITY + 10 - 1) as u64);
    }

    #[test]
    fn record_event_lands_in_ring_without_threshold() {
        let reg = MetricsRegistry::new();
        // Threshold disabled: spans are skipped, explicit events are not.
        reg.record_event("req.cancelled", 42, Some("q=7 deadline".into()));
        let events = reg.slow_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "req.cancelled");
        assert_eq!(events[0].detail.as_deref(), Some("q=7 deadline"));
    }

    #[test]
    fn json_snapshot_is_parseable_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("a").add(1);
        reg.counter("b").add(2);
        let json = reg.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a\": 1") && json.contains("\"b\": 2"));
    }
}
