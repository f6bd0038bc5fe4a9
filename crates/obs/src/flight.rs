//! The crash flight recorder: a bounded, always-on ring of the most
//! recent span/counter events, dumped as JSON lines post-mortem.
//!
//! Once [`arm`]ed (the CLI arms it for every invocation), each
//! instrumented thread appends compact [`FlightEvent`]s to its own
//! fixed-capacity ring. When nothing fails the rings just rotate —
//! the happy path costs the caller one branch on the shared flags
//! word plus an uncontended lock on its own ring. When something does
//! fail (worker panic, degraded solve, process exit code ≥ 4) the CLI
//! calls [`dump_to`], which merges every ring time-sorted into a
//! `rascad-flight-<pid>.jsonl` post-mortem.
//!
//! The recorder is independent of the telemetry subscriber: it keeps
//! recording with no sinks installed, and its rings survive
//! `uninstall` so the dump can happen after the session tears down.
//!
//! When a thread exits, its ring leaves the live list and its events
//! move into one retired ring that keeps the newest [`RING_CAPACITY`]
//! events of all exited threads, so a process that spawns a thread per
//! connection holds one ring per *running* thread plus that one.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::Value;
use crate::lock;

/// Events kept per thread. Old events rotate out; the dump is the
/// last-moments view, not a full trace.
pub const RING_CAPACITY: usize = 256;

/// One recorded moment: what happened, when, on which thread.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// Microseconds since the recorder was armed.
    pub at_us: u64,
    /// Thread ordinal (0 is the first instrumented thread).
    pub tid: u64,
    /// Per-thread sequence number; `(tid, seq)` uniquely identifies an
    /// event so the dump can merge the live rings with incident pins
    /// without double-reporting.
    pub seq: u64,
    /// Event class: `span_start`, `span_end`, `counter`, `value`,
    /// `incident`.
    pub kind: &'static str,
    /// Span or metric name (incident kind for incidents).
    pub name: &'static str,
    /// Numeric payload: counter delta, recorded value, or span
    /// elapsed microseconds. Zero when not applicable.
    pub num: f64,
    /// Free-form context: rendered span fields, labels, or the
    /// incident description.
    pub detail: String,
}

impl FlightEvent {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("at_us".into(), Value::from(self.at_us)),
            ("tid".into(), Value::from(self.tid)),
            ("seq".into(), Value::from(self.seq)),
            ("kind".into(), Value::from(self.kind)),
            ("name".into(), Value::from(self.name)),
            ("num".into(), Value::Num(self.num)),
            ("detail".into(), Value::Str(self.detail.clone())),
        ])
    }
}

struct Ring {
    buf: VecDeque<FlightEvent>,
    next_seq: u64,
}

impl Ring {
    fn push(&mut self, mut ev: FlightEvent) {
        ev.seq = self.next_seq;
        self.next_seq += 1;
        if self.buf.len() == RING_CAPACITY {
            self.buf.pop_front();
        }
        self.buf.push_back(ev);
    }
}

/// Lock order: `rings`, then one ring, then `retired`.
struct FlightState {
    /// The rings of running threads.
    rings: Mutex<Vec<Arc<Mutex<Ring>>>>,
    /// The newest [`RING_CAPACITY`] events of exited threads, in time
    /// order.
    retired: Mutex<VecDeque<FlightEvent>>,
    /// Ring contents captured at [`note_incident`] time. The live
    /// rings keep rotating after an incident (a degraded best-effort
    /// run solves dozens more blocks before exit), so the moments
    /// *leading up to* the failure would otherwise be evicted by the
    /// time the dump runs. Pinning the incident thread's ring here
    /// freezes that window.
    pinned: Mutex<Vec<FlightEvent>>,
    incidents: Mutex<Vec<String>>,
    incident: AtomicBool,
    epoch: Instant,
}

static STATE: OnceLock<FlightState> = OnceLock::new();

/// A thread's registration: the ring it appends to, shared with the
/// live list until the thread exits and the handle drops.
struct RingHandle(Arc<Mutex<Ring>>);

impl Drop for RingHandle {
    fn drop(&mut self) {
        let s = state();
        let mut rings = lock(&s.rings);
        if let Some(i) = rings.iter().position(|r| Arc::ptr_eq(r, &self.0)) {
            rings.swap_remove(i);
        }
        let exited = std::mem::take(&mut lock(&self.0).buf);
        let mut retired = lock(&s.retired);
        retired.extend(exited);
        // Both runs are already time-ordered, so this is one merge.
        retired.make_contiguous().sort_by_key(|e| (e.at_us, e.tid, e.seq));
        let excess = retired.len().saturating_sub(RING_CAPACITY);
        retired.drain(..excess);
    }
}

thread_local! {
    static RING: RefCell<Option<RingHandle>> = const { RefCell::new(None) };
}

fn state() -> &'static FlightState {
    STATE.get_or_init(|| FlightState {
        rings: Mutex::new(Vec::new()),
        retired: Mutex::new(VecDeque::new()),
        pinned: Mutex::new(Vec::new()),
        incidents: Mutex::new(Vec::new()),
        incident: AtomicBool::new(false),
        epoch: Instant::now(),
    })
}

/// Arms the recorder: subsequent spans, counters and recorded values
/// are mirrored into the per-thread rings. Idempotent.
pub fn arm() {
    state(); // pin the epoch before the first event
    crate::set_flag(crate::F_FLIGHT);
}

/// Disarms the recorder and clears every ring (the retired one too)
/// and incident — used by tests; production dumps happen on armed
/// state at process exit.
pub fn disarm() {
    crate::clear_flag(crate::F_FLIGHT);
    if let Some(s) = STATE.get() {
        let rings = lock(&s.rings);
        for ring in rings.iter() {
            lock(ring).buf.clear();
        }
        lock(&s.retired).clear();
        drop(rings);
        lock(&s.pinned).clear();
        lock(&s.incidents).clear();
        s.incident.store(false, Ordering::SeqCst);
    }
}

/// Appends one event to the calling thread's ring. An event noted
/// while the thread's locals are being torn down (its ring already
/// retired) is dropped.
pub(crate) fn note(kind: &'static str, name: &'static str, num: f64, detail: String) {
    let s = state();
    let at_us = s.epoch.elapsed().as_micros() as u64;
    let ev = FlightEvent { at_us, tid: crate::current_tid(), seq: 0, kind, name, num, detail };
    let _ = RING.try_with(|slot| {
        let mut slot = slot.borrow_mut();
        let handle = slot.get_or_insert_with(|| {
            let arc = Arc::new(Mutex::new(Ring {
                buf: VecDeque::with_capacity(RING_CAPACITY),
                next_seq: 0,
            }));
            lock(&s.rings).push(Arc::clone(&arc));
            RingHandle(arc)
        });
        lock(&handle.0).push(ev);
    });
}

/// Records an incident (worker panic, degraded solve): the event goes
/// into the ring and the incident flag makes the CLI dump the recorder
/// at exit even on a success exit code.
pub(crate) fn note_incident(name: &'static str, detail: &str) {
    let s = state();
    s.incident.store(true, Ordering::SeqCst);
    lock(&s.incidents).push(format!("{name}: {detail}"));
    note("incident", name, 0.0, detail.to_string());
    // Pin this thread's ring as it stands right now: it holds the
    // events that led to the incident (the failing block's span ended
    // on this thread moments ago), and the live ring will rotate them
    // out if the run continues. The dump dedups by (tid, seq).
    let _ = RING.try_with(|slot| {
        if let Some(handle) = slot.borrow().as_ref() {
            lock(&s.pinned).extend(lock(&handle.0).buf.iter().cloned());
        }
    });
}

/// Rings of running threads currently registered.
#[cfg(test)]
pub(crate) fn live_rings() -> usize {
    STATE.get().map_or(0, |s| lock(&s.rings).len())
}

/// Whether any incident was recorded since arming.
pub fn has_incident() -> bool {
    STATE.get().is_some_and(|s| s.incident.load(Ordering::SeqCst))
}

/// Whether any event at all is sitting in the rings (live, retired or
/// pinned).
pub fn events_recorded() -> bool {
    STATE.get().is_some_and(|s| {
        !lock(&s.pinned).is_empty() || {
            let rings = lock(&s.rings);
            rings.iter().any(|r| !lock(r).buf.is_empty()) || !lock(&s.retired).is_empty()
        }
    })
}

/// Writes the post-mortem: one header line (pid, incident list), then
/// every ring's events — the live rings, the retired ring of exited
/// threads, and the windows pinned at incident time — merged in time
/// order, one JSON object per line. Returns the number of events
/// written.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn dump(mut out: impl Write) -> std::io::Result<usize> {
    let Some(s) = STATE.get() else { return Ok(0) };
    let mut events: Vec<FlightEvent> = Vec::new();
    let rings = lock(&s.rings);
    for ring in rings.iter() {
        events.extend(lock(ring).buf.iter().cloned());
    }
    events.extend(lock(&s.retired).iter().cloned());
    drop(rings);
    events.extend(lock(&s.pinned).iter().cloned());
    events.sort_by_key(|e| (e.at_us, e.tid, e.seq));
    events.dedup_by_key(|e| (e.tid, e.seq));
    let header = Value::Obj(vec![
        ("flight_recorder".into(), Value::from("rascad")),
        ("pid".into(), Value::from(u64::from(std::process::id()))),
        ("events".into(), Value::from(events.len() as u64)),
        (
            "incidents".into(),
            Value::Arr(lock(&s.incidents).iter().map(|i| Value::Str(i.clone())).collect()),
        ),
    ]);
    writeln!(out, "{}", header.to_string_compact())?;
    for ev in &events {
        writeln!(out, "{}", ev.to_json().to_string_compact())?;
    }
    out.flush()?;
    Ok(events.len())
}

/// [`dump`] to a file path.
///
/// # Errors
///
/// Propagates file creation and write errors.
pub fn dump_to(path: &Path) -> std::io::Result<usize> {
    let file = std::fs::File::create(path)?;
    dump(std::io::BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_rotates_at_capacity() {
        let mut ring = Ring { buf: VecDeque::with_capacity(RING_CAPACITY), next_seq: 0 };
        for i in 0..(RING_CAPACITY + 10) {
            ring.push(FlightEvent {
                at_us: i as u64,
                tid: 0,
                seq: 0,
                kind: "counter",
                name: "x",
                num: 1.0,
                detail: String::new(),
            });
        }
        assert_eq!(ring.buf.len(), RING_CAPACITY);
        // The oldest 10 rotated out.
        assert_eq!(ring.buf.front().unwrap().at_us, 10);
        assert_eq!(ring.buf.back().unwrap().at_us, (RING_CAPACITY + 9) as u64);
    }
}
