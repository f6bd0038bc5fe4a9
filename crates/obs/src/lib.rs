//! `rascad-obs`: std-only structured tracing and live metrics for the
//! RAScad generate→solve pipeline.
//!
//! The build environment has no registry access, so this crate
//! hand-rolls the pieces it would otherwise take from `tracing` /
//! `metrics` / `prometheus`:
//!
//! * **Spans** ([`span`]) — RAII wall-clock timings with typed fields
//!   and thread-local parent/child nesting, streamed live to sinks.
//! * **Metrics** ([`counter`], [`counter_with`], [`record_value`],
//!   [`record_value_with`], [`gauge_set`]) — labeled series
//!   accumulated in per-thread shards of the
//!   [`MetricsRegistry`], mergeable at any time via
//!   [`MetricsRegistry::snapshot`] (a scrape) and emitted as one
//!   [`Event::Metrics`] per [`drain`] (snapshot-and-reset, so
//!   repeated drains are lossless).
//! * **Sinks** ([`Sink`]) — pluggable consumers; built-ins are
//!   [`JsonLinesSink`] (one JSON object per event per line),
//!   [`SummarySink`] (human-readable table on flush) and
//!   [`ChromeTraceSink`] (Chrome trace-event JSON with thread lanes).
//! * **Exposition** ([`prometheus`]) — Prometheus text-format 0.0.4
//!   encoding of a registry snapshot, plus a validator.
//! * **Flight recorder** ([`flight`]) — an always-on bounded ring of
//!   the most recent events, dumped as JSON lines post-mortem.
//!
//! # Zero cost when disabled
//!
//! Every instrumentation entry point first performs **one relaxed
//! atomic load** of a shared flags word and returns immediately when
//! both the subscriber and the flight recorder are off — no
//! allocation, no locks, no clock reads (the `overhead` integration
//! test pins this down with a counting allocator). Instrumented
//! library code therefore stays on its fast path unless a CLI flag
//! (or a test) calls [`install`] or [`flight::arm`].
//!
//! # Usage
//!
//! ```
//! struct Count(u64);
//! impl rascad_obs::Sink for Count {
//!     fn event(&mut self, _: &rascad_obs::Event) { self.0 += 1; }
//! }
//!
//! rascad_obs::install(vec![Box::new(Count(0))]);
//! {
//!     let mut span = rascad_obs::span("solve");
//!     span.record("states", 12u64);
//!     rascad_obs::counter("blocks_generated", 1);
//!     rascad_obs::counter_with("cache.hits", &[("kind", "steady")], 1);
//!     rascad_obs::record_value("pivot_magnitude", 0.25);
//! }
//! // A scrape: merge the shards without resetting them.
//! let live = rascad_obs::MetricsRegistry::global().snapshot();
//! assert_eq!(live.counter_total("cache.hits"), Some(1));
//! rascad_obs::drain();     // emits the aggregated metrics event
//! rascad_obs::uninstall(); // disables and drops the sinks
//! ```

pub mod chrome_trace;
pub mod flight;
pub mod json;
pub mod prometheus;
pub mod registry;
pub mod trace;
pub mod tree;

mod agg;
mod sink;

pub use agg::{Histogram, Snapshot};
pub use chrome_trace::ChromeTraceSink;
pub use registry::{
    describe, MetricDesc, MetricKind, MetricsRegistry, RegistrySnapshot, SeriesId, CATALOG,
};
pub use sink::{Event, FieldValue, JsonLinesSink, MetricsSummary, Sink, SummarySink};
pub use trace::{ConvergenceTrace, SolveTrace, TraceStep};
pub use tree::{SpanNodeStat, SpanTreeAgg};

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Flag bit: the telemetry subscriber (sinks + registry) is installed.
pub(crate) const F_TELEMETRY: u32 = 1;
/// Flag bit: the flight recorder is armed.
pub(crate) const F_FLIGHT: u32 = 1 << 1;
/// Flag bit: the convergence trace channel is armed.
pub(crate) const F_CONV_TRACE: u32 = 1 << 2;

/// The one-atomic-load gate every instrumentation call checks first.
static FLAGS: AtomicU32 = AtomicU32::new(0);

#[inline]
fn flags() -> u32 {
    FLAGS.load(Ordering::Relaxed)
}

pub(crate) fn set_flag(bit: u32) {
    FLAGS.fetch_or(bit, Ordering::SeqCst);
}

pub(crate) fn clear_flag(bit: u32) {
    FLAGS.fetch_and(!bit, Ordering::SeqCst);
}

/// Global subscriber state; created on first [`install`] and reused
/// (sinks are swapped, ids keep counting) for the process lifetime.
static COLLECTOR: OnceLock<Collector> = OnceLock::new();

struct Collector {
    sinks: Mutex<Vec<Box<dyn Sink>>>,
    next_span_id: AtomicU64,
    epoch: Instant,
}

impl Collector {
    fn new() -> Self {
        Collector {
            sinks: Mutex::new(Vec::new()),
            next_span_id: AtomicU64::new(1),
            epoch: Instant::now(),
        }
    }
}

/// Thread ordinals for trace lanes: 0 is the first thread to
/// instrument anything (normally `main`).
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Stack of open span ids on this thread (for parent linkage).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// This thread's ordinal (`u64::MAX` = not assigned yet).
    static TID: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// This thread's stable ordinal, assigned on first use.
pub(crate) fn current_tid() -> u64 {
    TID.with(|t| {
        if t.get() == u64::MAX {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Ignores mutex poisoning: a panicking instrumented thread must not
/// disable tracing for everyone else, and sink/aggregate state is
/// append-only so partial writes are harmless.
pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Whether the telemetry subscriber is currently installed. (The
/// flight recorder is tracked separately; see [`flight::arm`].)
#[inline]
#[must_use]
pub fn enabled() -> bool {
    flags() & F_TELEMETRY != 0
}

/// Installs the given sinks and enables telemetry process-wide.
///
/// Replaces any previously installed sinks and resets the metrics
/// registry, so consecutive install/drain cycles (e.g. tests) do not
/// observe each other's data. Span ids keep increasing across cycles.
/// An empty sink list is valid: the registry still accumulates and can
/// be scraped via [`MetricsRegistry::snapshot`].
pub fn install(sinks: Vec<Box<dyn Sink>>) {
    let c = COLLECTOR.get_or_init(Collector::new);
    MetricsRegistry::global().reset();
    *lock(&c.sinks) = sinks;
    set_flag(F_TELEMETRY);
}

/// Drains the registry (snapshot-and-reset) and emits one
/// [`Event::Metrics`] to every sink, then flushes the sinks. A second
/// drain reports only data recorded after the first — nothing is lost
/// and nothing is double-counted, on every thread including ones the
/// registry had already seen.
pub fn drain() {
    let Some(c) = COLLECTOR.get() else { return };
    let snap = MetricsRegistry::global().drain();
    let event = Event::Metrics {
        counters: snap.counters.iter().map(|(id, v)| (id.render(), *v)).collect(),
        gauges: snap.gauges.iter().map(|(id, v)| (id.render(), *v)).collect(),
        values: snap.values.iter().map(|(id, h)| (id.render(), h.snapshot())).collect(),
    };
    let mut sinks = lock(&c.sinks);
    for s in sinks.iter_mut() {
        s.event(&event);
        s.flush();
    }
}

/// Disables telemetry, flushes, and drops the installed sinks.
///
/// Does **not** emit a metrics event; call [`drain`] first if the
/// aggregated metrics should be reported. Does not disturb the flight
/// recorder: its rings survive so a post-mortem can still be dumped
/// after the session tears down.
pub fn uninstall() {
    clear_flag(F_TELEMETRY);
    if let Some(c) = COLLECTOR.get() {
        let mut sinks = lock(&c.sinks);
        for s in sinks.iter_mut() {
            s.flush();
        }
        sinks.clear();
    }
}

/// Sends one event to every installed sink.
fn emit(c: &Collector, event: &Event) {
    for s in lock(&c.sinks).iter_mut() {
        s.event(event);
    }
}

/// Opens a named span. Returns a no-op handle when both telemetry and
/// the flight recorder are off. The span closes (emitting
/// [`Event::SpanEnd`] with its wall-clock duration and recorded
/// fields, and/or a flight-ring entry) when the handle drops.
#[inline]
#[must_use]
pub fn span(name: &'static str) -> Span {
    let f = flags();
    if f == 0 {
        return Span { inner: None };
    }
    span_slow(name, f)
}

#[cold]
fn span_slow(name: &'static str, f: u32) -> Span {
    let telemetry = f & F_TELEMETRY != 0;
    let start = Instant::now();
    let mut id = 0;
    if telemetry {
        let c = COLLECTOR.get_or_init(Collector::new);
        id = c.next_span_id.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let parent = stack.last().copied();
            stack.push(id);
            parent
        });
        emit(c, &Event::SpanStart { id, parent, name, at: start - c.epoch, tid: current_tid() });
    }
    if f & F_FLIGHT != 0 {
        flight::note("span_start", name, 0.0, String::new());
    }
    Span { inner: Some(SpanInner { id, name, start, fields: Vec::new(), telemetry }) }
}

struct SpanInner {
    id: u64,
    name: &'static str,
    start: Instant,
    fields: Vec<(&'static str, FieldValue)>,
    /// Whether telemetry was installed when the span opened (the id
    /// and stack entry exist only then).
    telemetry: bool,
}

/// RAII handle for an open span; see [`span`].
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// Attaches a typed field, reported in the span's end event. No-op
    /// on a disabled span.
    #[inline]
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(inner) = &mut self.inner {
            inner.fields.push((key, value.into()));
        }
    }

    /// Whether this handle is live (telemetry or the flight recorder
    /// was on at creation).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }
}

/// Renders span fields / labels compactly for flight-ring entries.
fn fields_detail(fields: &[(&'static str, FieldValue)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        match v {
            FieldValue::U64(v) => {
                let _ = write!(out, "{k}={v}");
            }
            FieldValue::I64(v) => {
                let _ = write!(out, "{k}={v}");
            }
            FieldValue::F64(v) => {
                let _ = write!(out, "{k}={v}");
            }
            FieldValue::Str(v) => {
                let _ = write!(out, "{k}={v}");
            }
            FieldValue::Bool(v) => {
                let _ = write!(out, "{k}={v}");
            }
        }
    }
    out
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else { return };
        let now = Instant::now();
        let elapsed = now - inner.start;
        if flags() & F_FLIGHT != 0 {
            flight::note(
                "span_end",
                inner.name,
                elapsed.as_secs_f64() * 1e6,
                fields_detail(&inner.fields),
            );
        }
        if !inner.telemetry {
            return;
        }
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Spans normally close in LIFO order; tolerate out-of-order
            // drops (e.g. a span stored in a struct) by removing by id.
            if stack.last() == Some(&inner.id) {
                stack.pop();
            } else {
                stack.retain(|&id| id != inner.id);
            }
        });
        let Some(c) = COLLECTOR.get() else { return };
        emit(
            c,
            &Event::SpanEnd {
                id: inner.id,
                name: inner.name,
                at: now - c.epoch,
                elapsed,
                fields: inner.fields,
                tid: current_tid(),
            },
        );
    }
}

fn series(name: &'static str, labels: &[(&str, &str)]) -> SeriesId {
    if labels.is_empty() {
        SeriesId::plain(name)
    } else {
        SeriesId::with_labels(name, labels)
    }
}

fn labels_detail(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    labels.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
}

#[cold]
#[allow(clippy::cast_precision_loss)] // counter deltas stay far below 2^52
fn counter_slow(name: &'static str, labels: &[(&str, &str)], delta: u64, f: u32) {
    if f & F_TELEMETRY != 0 {
        registry::add_counter(series(name, labels), delta);
    }
    if f & F_FLIGHT != 0 {
        flight::note("counter", name, delta as f64, labels_detail(labels));
    }
}

/// Adds `delta` to the named monotonic counter. No-op when disabled.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    let f = flags();
    if f == 0 {
        return;
    }
    counter_slow(name, &[], delta, f);
}

/// Adds `delta` to the named counter series with the given labels,
/// e.g. `counter_with("cache.hits", &[("kind", "steady")], 1)`.
/// Labels are sorted, so key order at the call site does not split the
/// series. No-op when disabled.
#[inline]
pub fn counter_with(name: &'static str, labels: &[(&str, &str)], delta: u64) {
    let f = flags();
    if f == 0 {
        return;
    }
    counter_slow(name, labels, delta, f);
}

#[cold]
fn record_slow(name: &'static str, labels: &[(&str, &str)], value: f64, f: u32) {
    if f & F_TELEMETRY != 0 {
        registry::record(series(name, labels), value);
    }
    if f & F_FLIGHT != 0 {
        flight::note("value", name, value, labels_detail(labels));
    }
}

/// Records one observation into the named value series (log-bucket
/// histogram). Non-finite values are dropped. No-op when disabled.
#[inline]
pub fn record_value(name: &'static str, value: f64) {
    let f = flags();
    if f == 0 {
        return;
    }
    record_slow(name, &[], value, f);
}

/// [`record_value`] with labels.
#[inline]
pub fn record_value_with(name: &'static str, labels: &[(&str, &str)], value: f64) {
    let f = flags();
    if f == 0 {
        return;
    }
    record_slow(name, labels, value, f);
}

#[cold]
fn gauge_slow(name: &'static str, labels: &[(&str, &str)], value: f64, f: u32) {
    if f & F_TELEMETRY != 0 {
        registry::set_gauge(series(name, labels), value);
    }
    if f & F_FLIGHT != 0 {
        flight::note("value", name, value, labels_detail(labels));
    }
}

/// Sets the named gauge to `value` (last write wins across threads).
/// Pass an empty label slice for an unlabeled gauge. No-op when
/// disabled.
#[inline]
pub fn gauge_set(name: &'static str, labels: &[(&str, &str)], value: f64) {
    let f = flags();
    if f == 0 {
        return;
    }
    gauge_slow(name, labels, value, f);
}

/// Records an incident in the flight recorder (worker panic, degraded
/// solve): marks the run for a post-mortem dump and appends an
/// `incident` entry to the calling thread's ring. No-op unless the
/// recorder is armed.
#[inline]
pub fn incident(name: &'static str, detail: &str) {
    if flags() & F_FLIGHT != 0 {
        flight::note_incident(name, detail);
    }
}

/// Appends a plain `event` entry to the flight recorder without
/// marking an incident — for noteworthy-but-expected moments (a
/// non-converged ladder rung about to fall back) that should show up
/// in a post-mortem but not force one. No-op unless the recorder is
/// armed.
#[inline]
pub fn flight_event(name: &'static str, num: f64, detail: &str) {
    if flags() & F_FLIGHT != 0 {
        flight::note("event", name, num, detail.to_string());
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // snapshots must carry values through exactly
mod tests {
    use super::*;
    use std::sync::{Arc, MutexGuard};
    use std::time::Duration;

    /// The subscriber is process-global, so tests that install it must
    /// not interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Capturing sink sharing its event log with the test body.
    #[derive(Clone, Default)]
    struct Capture(Arc<Mutex<Vec<Event>>>);

    impl Capture {
        fn events(&self) -> Vec<Event> {
            self.0.lock().unwrap().clone()
        }
    }

    impl Sink for Capture {
        fn event(&mut self, event: &Event) {
            self.0.lock().unwrap().push(event.clone());
        }
    }

    #[test]
    fn disabled_by_default_and_after_uninstall() {
        let _guard = serial();
        uninstall();
        flight::disarm();
        assert!(!enabled());
        let mut span = span("ignored");
        assert!(!span.is_enabled());
        span.record("x", 1u64);
        counter("ignored", 1);
        counter_with("ignored", &[("k", "v")], 1);
        record_value("ignored", 1.0);
        gauge_set("ignored", &[], 1.0);
        drop(span);

        // Now install and confirm the earlier calls left no trace.
        let cap = Capture::default();
        install(vec![Box::new(cap.clone())]);
        drain();
        let events = cap.events();
        assert_eq!(events.len(), 1);
        match &events[0] {
            Event::Metrics { counters, gauges, values } => {
                assert!(counters.is_empty(), "{counters:?}");
                assert!(gauges.is_empty());
                assert!(values.is_empty());
            }
            other => panic!("expected metrics, got {other:?}"),
        }
        uninstall();
    }

    #[test]
    fn span_nesting_and_timing_monotonicity() {
        let _guard = serial();
        let cap = Capture::default();
        install(vec![Box::new(cap.clone())]);
        {
            let mut outer = span("outer");
            outer.record("depth", 0u64);
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = span("inner");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        uninstall();

        let events = cap.events();
        let (outer_id, inner_parent) = {
            let mut outer_id = None;
            let mut inner_parent = None;
            for e in &events {
                if let Event::SpanStart { id, parent, name, .. } = e {
                    match *name {
                        "outer" => outer_id = Some(*id),
                        "inner" => inner_parent = *parent,
                        _ => {}
                    }
                }
            }
            (outer_id.unwrap(), inner_parent)
        };
        // Child links to the enclosing span on the same thread.
        assert_eq!(inner_parent, Some(outer_id));

        // Events arrive in causal order: start(outer), start(inner),
        // end(inner), end(outer).
        let order: Vec<(&str, &str)> = events
            .iter()
            .filter_map(|e| match e {
                Event::SpanStart { name, .. } => Some(("start", *name)),
                Event::SpanEnd { name, .. } => Some(("end", *name)),
                Event::Metrics { .. } => None,
            })
            .collect();
        assert_eq!(
            order,
            vec![("start", "outer"), ("start", "inner"), ("end", "inner"), ("end", "outer"),]
        );

        // Timing: `at` is non-decreasing across the stream, the outer
        // span contains the inner one, and recorded fields survive.
        let mut last_at = Duration::ZERO;
        let mut outer_elapsed = Duration::ZERO;
        let mut inner_elapsed = Duration::ZERO;
        for e in &events {
            let at = match e {
                Event::SpanStart { at, .. } => *at,
                Event::SpanEnd { at, name, elapsed, fields, .. } => {
                    match *name {
                        "outer" => {
                            outer_elapsed = *elapsed;
                            assert_eq!(fields, &vec![("depth", FieldValue::U64(0))]);
                        }
                        "inner" => inner_elapsed = *elapsed,
                        _ => {}
                    }
                    *at
                }
                Event::Metrics { .. } => continue,
            };
            assert!(at >= last_at, "timestamps must be monotone");
            last_at = at;
        }
        assert!(outer_elapsed >= inner_elapsed + Duration::from_millis(2));
        assert!(inner_elapsed >= Duration::from_millis(1));
    }

    #[test]
    fn counters_and_histograms_aggregate_across_threads() {
        let _guard = serial();
        let cap = Capture::default();
        install(vec![Box::new(cap.clone())]);
        counter("work", 5);
        record_value("size", 10.0);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    counter("work", 1);
                    record_value("size", (i + 1) as f64);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drain();
        uninstall();

        let events = cap.events();
        let metrics = events
            .iter()
            .find_map(|e| match e {
                Event::Metrics { counters, values, .. } => Some((counters.clone(), values.clone())),
                _ => None,
            })
            .expect("drain emits metrics");
        assert_eq!(metrics.0, vec![("work".to_string(), 9)]);
        let (name, snap) = &metrics.1[0];
        assert_eq!(name, "size");
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 20.0);
        assert_eq!(snap.min, 1.0);
        assert_eq!(snap.max, 10.0);
    }

    #[test]
    fn labeled_series_render_in_drain_and_scrape() {
        let _guard = serial();
        let cap = Capture::default();
        install(vec![Box::new(cap.clone())]);
        counter_with("cache.hits", &[("kind", "steady")], 2);
        counter_with("cache.hits", &[("kind", "mission")], 1);
        counter_with("cache.hits", &[("kind", "steady")], 3);
        gauge_set("pool.size", &[("kind", "steady")], 7.0);
        record_value_with("lat", &[("stage", "solve")], 2.0);

        // Scrape before drain: merged but not reset.
        let live = MetricsRegistry::global().snapshot();
        assert_eq!(live.counter_total("cache.hits"), Some(6));

        drain();
        uninstall();
        let (counters, gauges, values) = cap
            .events()
            .iter()
            .find_map(|e| match e {
                Event::Metrics { counters, gauges, values } => {
                    Some((counters.clone(), gauges.clone(), values.clone()))
                }
                _ => None,
            })
            .unwrap();
        assert_eq!(
            counters,
            vec![
                ("cache.hits{kind=\"mission\"}".to_string(), 1),
                ("cache.hits{kind=\"steady\"}".to_string(), 5),
            ]
        );
        assert_eq!(gauges, vec![("pool.size{kind=\"steady\"}".to_string(), 7.0)]);
        assert_eq!(values.len(), 1);
        assert_eq!(values[0].0, "lat{stage=\"solve\"}");
        assert_eq!(values[0].1.count, 1);
    }

    #[test]
    fn drain_resets_aggregates_and_install_resets_previous_run() {
        let _guard = serial();
        let cap = Capture::default();
        install(vec![Box::new(cap.clone())]);
        counter("n", 3);
        drain();
        counter("n", 4);
        drain();
        uninstall();
        let totals: Vec<u64> = cap
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Metrics { counters, .. } => Some(counters.iter().map(|(_, v)| *v).sum()),
                _ => None,
            })
            .collect();
        assert_eq!(totals, vec![3, 4]);

        // Leftover (undrained) state must not leak into a fresh install.
        let cap1 = Capture::default();
        install(vec![Box::new(cap1.clone())]);
        counter("leak", 1);
        uninstall(); // no drain: "leak" is still in the aggregate
        let cap2 = Capture::default();
        install(vec![Box::new(cap2.clone())]);
        drain();
        uninstall();
        match &cap2.events()[0] {
            Event::Metrics { counters, .. } => {
                assert!(counters.is_empty(), "{counters:?}")
            }
            other => panic!("expected metrics, got {other:?}"),
        }
    }

    #[test]
    fn repeated_drains_are_lossless_on_long_lived_threads() {
        // Regression for the daemon scenario: a worker thread that the
        // registry has already seen keeps recording across drains, and
        // every drain reports exactly the inter-drain delta.
        let _guard = serial();
        let cap = Capture::default();
        install(vec![Box::new(cap.clone())]);

        let (to_worker, on_worker) = std::sync::mpsc::channel::<u64>();
        let (from_worker, on_main) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            // Same OS thread across both rounds — its shard is reused.
            while let Ok(delta) = on_worker.recv() {
                counter("lossless", delta);
                from_worker.send(()).unwrap();
            }
        });

        counter("lossless", 1);
        to_worker.send(10).unwrap();
        on_main.recv().unwrap();
        drain(); // round 1: 1 + 10

        counter("lossless", 2);
        to_worker.send(20).unwrap();
        on_main.recv().unwrap();
        drain(); // round 2: 2 + 20 — nothing lost, nothing repeated

        drop(to_worker);
        worker.join().unwrap();
        uninstall();

        let totals: Vec<u64> = cap
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Metrics { counters, .. } => Some(counters.iter().map(|(_, v)| *v).sum()),
                _ => None,
            })
            .collect();
        assert_eq!(totals, vec![11, 22]);
    }

    #[test]
    fn flight_recorder_rings_capture_spans_counters_and_incidents() {
        let _guard = serial();
        uninstall();
        flight::disarm();
        flight::arm();
        {
            let mut s = span("flight.work");
            s.record("block", "CPU Module");
        }
        counter("flight.count", 3);
        record_value("flight.val", 1.5);
        assert!(!flight::has_incident());
        incident("worker_panic", "block CPU Module panicked");
        assert!(flight::has_incident());
        assert!(flight::events_recorded());

        let mut buf = Vec::new();
        let n = flight::dump(&mut buf).unwrap();
        assert!(n >= 4, "expected span/counter/value/incident events, got {n}");
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        let header = crate::json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(header.get("flight_recorder").unwrap().as_str(), Some("rascad"));
        assert_eq!(
            header.get("incidents").unwrap().as_array().unwrap()[0].as_str(),
            Some("worker_panic: block CPU Module panicked")
        );
        let mut kinds = Vec::new();
        for line in lines {
            let v = crate::json::parse(line).unwrap();
            kinds.push(v.get("kind").unwrap().as_str().unwrap().to_string());
        }
        for want in ["span_start", "span_end", "counter", "value", "incident"] {
            assert!(kinds.iter().any(|k| k == want), "missing {want}: {kinds:?}");
        }
        // Span fields survive into the ring detail.
        assert!(text.contains("block=CPU Module"), "{text}");
        flight::disarm();
        assert!(!flight::events_recorded());
    }

    #[test]
    fn incident_pins_its_ring_against_later_rotation() {
        let _guard = serial();
        uninstall();
        flight::disarm();
        flight::arm();
        {
            let mut s = span("flight.doomed");
            s.record("block", "Doomed Block");
        }
        incident("worker_panic", "Doomed Block panicked");
        // A degraded run keeps going: rotate the live ring far past
        // capacity so the pre-incident events are long evicted from it.
        for _ in 0..(flight::RING_CAPACITY * 2) {
            counter("flight.churn", 1);
        }

        let mut buf = Vec::new();
        let n = flight::dump(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // The failing span survived via the incident pin...
        assert!(text.contains("flight.doomed"), "pinned span evicted:\n{text}");
        assert!(text.contains("block=Doomed Block"), "{text}");
        // ...and pinned events are not double-reported alongside any
        // still-live ring copies: every (tid, seq) appears once.
        let mut seen = std::collections::HashSet::new();
        for line in text.lines().skip(1) {
            let v = crate::json::parse(line).unwrap();
            let key = (
                v.get("tid").unwrap().as_f64().unwrap() as u64,
                v.get("seq").unwrap().as_f64().unwrap() as u64,
            );
            assert!(seen.insert(key), "duplicate event {key:?}:\n{line}");
        }
        assert_eq!(seen.len(), n);
        flight::disarm();
        assert!(!flight::events_recorded());
    }

    /// Exited threads fold their shard and ring into the retired state:
    /// the live lists stop growing, totals stay exact, consecutive
    /// drains still partition the stream, and the post-mortem keeps the
    /// newest events of the exited threads.
    #[test]
    fn exited_threads_retire_their_shard_and_ring() {
        const THREADS: u32 = 64;
        const EVENTS_PER_THREAD: u64 = 6; // counter + value + 4 events
        let _guard = serial();
        uninstall();
        flight::disarm();
        install(Vec::new());
        flight::arm();
        let registry = MetricsRegistry::global();
        let shards_before = registry.live_shards();
        let rings_before = flight::live_rings();

        let mut tids = Vec::new();
        for t in 0..THREADS {
            let tid = std::thread::spawn(move || {
                counter("retire.count", u64::from(t) + 1);
                record_value("retire.value", f64::from(t));
                for _ in 2..EVENTS_PER_THREAD {
                    flight_event("retire.event", f64::from(t), "");
                }
                current_tid()
            })
            .join()
            .unwrap();
            tids.push(tid);
        }
        // Test threads of earlier tests may retire meanwhile, never add.
        assert!(registry.live_shards() <= shards_before, "exited threads kept their shards");
        assert!(flight::live_rings() <= rings_before, "exited threads kept their rings");

        let total = u64::from(THREADS * (THREADS + 1) / 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("retire.count"), Some(total));
        let (_, hist) = snap.values.iter().find(|(id, _)| id.name == "retire.value").unwrap();
        assert_eq!(hist.count(), u64::from(THREADS));
        assert_eq!(hist.sum(), f64::from(THREADS * (THREADS - 1) / 2));

        // The post-mortem holds exactly the newest RING_CAPACITY events
        // of the exited threads, each (tid, seq) once. The threads ran
        // one after another, so those are the tail of emission order.
        let emitted: Vec<(u64, u64)> = tids
            .iter()
            .flat_map(|&tid| (0..EVENTS_PER_THREAD).map(move |seq| (tid, seq)))
            .collect();
        let newest: std::collections::BTreeSet<(u64, u64)> =
            emitted[emitted.len() - flight::RING_CAPACITY..].iter().copied().collect();
        let mut buf = Vec::new();
        flight::dump(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut dumped = std::collections::BTreeSet::new();
        for line in text.lines().skip(1) {
            let v = crate::json::parse(line).unwrap();
            let key = (
                v.get("tid").unwrap().as_f64().unwrap() as u64,
                v.get("seq").unwrap().as_f64().unwrap() as u64,
            );
            if tids.contains(&key.0) {
                assert!(dumped.insert(key), "duplicate event {key:?}");
            }
        }
        assert_eq!(dumped, newest);

        // drain → drain across an exit: the first drain takes the 64
        // threads, the second only what a thread recorded afterwards.
        assert_eq!(registry.drain().counter_total("retire.count"), Some(total));
        std::thread::spawn(|| counter("retire.count", 7)).join().unwrap();
        assert_eq!(registry.drain().counter_total("retire.count"), Some(7));
        assert_eq!(registry.drain().counter_total("retire.count"), None);

        // reset and disarm clear the retired state.
        std::thread::spawn(|| counter("retire.count", 1)).join().unwrap();
        install(Vec::new());
        assert_eq!(registry.snapshot().counter_total("retire.count"), None);
        assert!(flight::events_recorded());
        flight::disarm();
        assert!(!flight::events_recorded());
        uninstall();
    }
}
