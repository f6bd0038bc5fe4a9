//! The convergence trace channel: bounded per-solve recordings of the
//! solver's inner numerics — per-iteration residuals, per-pivot
//! magnitudes, per-term truncation mass — armed explicitly and cheap
//! when disarmed.
//!
//! Mirrors the flight recorder's flags-word discipline
//! ([`crate::flight`]): [`begin`] performs one relaxed atomic load and
//! returns an inert handle when the channel is disarmed, so solver hot
//! loops pay a single branch on a local `Option` per step and allocate
//! nothing (the `overhead` integration test pins this down). When
//! [`arm`]ed, each solve accumulates up to [`STEP_CAPACITY`] of its
//! most recent steps in a private ring (older steps rotate out but stay
//! counted), and the finished trace is committed to a bounded global
//! ring of the last [`SOLVE_CAPACITY`] solves.
//!
//! Committed traces are read back via [`solves`] (typed), [`dump`]
//! (a versioned JSON document, schema [`SCHEMA`]), and checked by
//! [`validate`] — the CLI's `solve --convergence-out` round-trips
//! through the same validator.

use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Value;
use crate::lock;

/// Version tag of the [`dump`] document; bump on breaking layout
/// changes so stale files are rejected instead of misread.
pub const SCHEMA: &str = "rascad-convergence/v1";

/// Steps kept per solve. A GTH solve on a 10^5-state chain takes as
/// many pivots; the trace keeps the most recent window and counts the
/// rest as dropped.
pub const STEP_CAPACITY: usize = 512;

/// Completed solve traces kept in the global ring. A full bench run
/// solves far more chains than anyone reads traces for; the ring keeps
/// the most recent solves.
pub const SOLVE_CAPACITY: usize = 64;

/// One recorded step of a solve: an iteration, a pivot, or a
/// truncation term, with the observed magnitude and its wall-clock
/// offset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStep {
    /// Step ordinal within the solve (iteration count, pivot index,
    /// truncation depth) — 1-based, matching solver reporting.
    pub index: u64,
    /// The observed magnitude: residual, delta-norm, pivot value, or
    /// remaining truncation mass, depending on the trace's metric.
    pub value: f64,
    /// Microseconds since the solve began.
    pub at_us: u64,
}

/// A completed solve's trace: identity, the retained step window, and
/// the outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveTrace {
    /// Solver path: `gth`, `lu`, `transient`.
    pub method: &'static str,
    /// What [`TraceStep::value`] measures for this solve: `residual`,
    /// `pivot`, `truncation`, …
    pub metric: &'static str,
    /// Chain size.
    pub states: usize,
    /// The most recent [`STEP_CAPACITY`] steps in order.
    pub steps: Vec<TraceStep>,
    /// Total steps observed, including any rotated out of `steps`.
    pub total_steps: u64,
    /// How the solve ended: `converged`, `not-converged`, `done`,
    /// `singular`, `timeout`, or `abandoned` (handle dropped without
    /// [`ConvergenceTrace::finish`]).
    pub outcome: &'static str,
    /// Wall-clock duration of the traced solve, microseconds.
    pub elapsed_us: u64,
}

impl SolveTrace {
    /// Steps observed but rotated out of the bounded window.
    #[must_use]
    pub fn dropped_steps(&self) -> u64 {
        self.total_steps - self.steps.len() as u64
    }

    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("method".into(), Value::from(self.method)),
            ("metric".into(), Value::from(self.metric)),
            ("states".into(), Value::from(self.states)),
            ("outcome".into(), Value::from(self.outcome)),
            ("total_steps".into(), Value::from(self.total_steps)),
            ("dropped_steps".into(), Value::from(self.dropped_steps())),
            ("elapsed_us".into(), Value::from(self.elapsed_us)),
            (
                "steps".into(),
                Value::Arr(
                    self.steps
                        .iter()
                        .map(|s| {
                            Value::Obj(vec![
                                ("index".into(), Value::from(s.index)),
                                ("value".into(), Value::Num(s.value)),
                                ("at_us".into(), Value::from(s.at_us)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

struct TraceState {
    solves: Mutex<VecDeque<SolveTrace>>,
}

static STATE: OnceLock<TraceState> = OnceLock::new();

fn state() -> &'static TraceState {
    STATE.get_or_init(|| TraceState { solves: Mutex::new(VecDeque::new()) })
}

/// Arms the channel: subsequent [`begin`] calls return live handles.
/// Idempotent.
pub fn arm() {
    state();
    crate::set_flag(crate::F_CONV_TRACE);
}

/// Disarms the channel and clears the committed ring. Solves already
/// in flight keep their live handles and still commit; traces begun
/// after this point are inert.
pub fn disarm() {
    crate::clear_flag(crate::F_CONV_TRACE);
    if let Some(s) = STATE.get() {
        lock(&s.solves).clear();
    }
}

/// Whether the channel is currently armed.
#[inline]
#[must_use]
pub fn armed() -> bool {
    crate::flags() & crate::F_CONV_TRACE != 0
}

struct ActiveTrace {
    method: &'static str,
    metric: &'static str,
    states: usize,
    steps: VecDeque<TraceStep>,
    total_steps: u64,
    outcome: &'static str,
    start: Instant,
}

/// Handle for one solve's trace; obtained from [`begin`]. Inert (every
/// method a no-op) when the channel is disarmed, so solvers create one
/// unconditionally and the hot loop branches on a local `Option`.
pub struct ConvergenceTrace {
    inner: Option<Box<ActiveTrace>>,
}

/// Opens a trace for one solve. One relaxed atomic load; allocates
/// nothing when the channel is disarmed.
#[inline]
#[must_use]
pub fn begin(method: &'static str, metric: &'static str, states: usize) -> ConvergenceTrace {
    if crate::flags() & crate::F_CONV_TRACE == 0 {
        return ConvergenceTrace { inner: None };
    }
    begin_slow(method, metric, states)
}

#[cold]
fn begin_slow(method: &'static str, metric: &'static str, states: usize) -> ConvergenceTrace {
    ConvergenceTrace {
        inner: Some(Box::new(ActiveTrace {
            method,
            metric,
            states,
            steps: VecDeque::with_capacity(STEP_CAPACITY.min(64)),
            total_steps: 0,
            outcome: "abandoned",
            start: Instant::now(),
        })),
    }
}

impl ConvergenceTrace {
    /// Whether this handle records anything. Hot loops that compute a
    /// value *only* for the trace should gate on this.
    #[inline]
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one step. `index` is the solver's own 1-based ordinal
    /// (iteration, pivot, truncation term). No-op on an inert handle.
    #[inline]
    pub fn step(&mut self, index: usize, value: f64) {
        if let Some(t) = &mut self.inner {
            t.total_steps += 1;
            if t.steps.len() == STEP_CAPACITY {
                t.steps.pop_front();
            }
            let at_us = t.start.elapsed().as_micros() as u64;
            t.steps.push_back(TraceStep { index: index as u64, value, at_us });
        }
    }

    /// Ends the solve with the given outcome and commits the trace to
    /// the global ring. Dropping the handle without calling this
    /// commits with outcome `abandoned`.
    pub fn finish(mut self, outcome: &'static str) {
        if let Some(t) = &mut self.inner {
            t.outcome = outcome;
        }
        // Drop commits.
    }
}

impl Drop for ConvergenceTrace {
    fn drop(&mut self) {
        let Some(t) = self.inner.take() else { return };
        let trace = SolveTrace {
            method: t.method,
            metric: t.metric,
            states: t.states,
            steps: t.steps.into_iter().collect(),
            total_steps: t.total_steps,
            outcome: t.outcome,
            elapsed_us: t.start.elapsed().as_micros() as u64,
        };
        let solves = &state().solves;
        let mut ring = lock(solves);
        if ring.len() == SOLVE_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(trace);
    }
}

/// The committed traces, oldest first.
pub fn solves() -> Vec<SolveTrace> {
    STATE.get().map_or_else(Vec::new, |s| lock(&s.solves).iter().cloned().collect())
}

/// Builds the versioned JSON document of every committed trace.
pub fn dump() -> Value {
    let solves = solves();
    Value::Obj(vec![
        ("schema".into(), Value::from(SCHEMA)),
        ("solves".into(), Value::from(solves.len())),
        ("traces".into(), Value::Arr(solves.iter().map(SolveTrace::to_json).collect())),
    ])
}

/// Structural validation of a [`dump`] document (also applied by the
/// CLI to `--convergence-out` files). Returns the trace count.
///
/// # Errors
///
/// Returns a description of the first structural problem: wrong
/// schema, missing keys, or malformed step records. A `null` step
/// value is accepted — JSON has no representation for the non-finite
/// residual of a diverged solve.
#[allow(clippy::float_cmp, clippy::cast_precision_loss)] // step counts are small integers carried in f64
pub fn validate(doc: &Value) -> Result<usize, String> {
    let schema = doc.get("schema").and_then(Value::as_str).ok_or("missing `schema` key")?;
    if schema != SCHEMA {
        return Err(format!("schema `{schema}` is not `{SCHEMA}`"));
    }
    let declared = doc.get("solves").and_then(Value::as_f64).ok_or("missing numeric `solves`")?;
    let traces = doc.get("traces").and_then(Value::as_array).ok_or("missing `traces` array")?;
    if declared as usize != traces.len() {
        return Err(format!("`solves` says {declared} but `traces` holds {}", traces.len()));
    }
    for (i, t) in traces.iter().enumerate() {
        let method = t
            .get("method")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("trace {i}: no method"))?;
        for key in ["metric", "outcome"] {
            t.get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("trace {i} ({method}): missing `{key}`"))?;
        }
        for key in ["states", "total_steps", "dropped_steps", "elapsed_us"] {
            let v = t
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("trace {i} ({method}): missing numeric `{key}`"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("trace {i} ({method}): bad `{key}`: {v}"));
            }
        }
        let steps = t
            .get("steps")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("trace {i} ({method}): missing `steps` array"))?;
        let total = t.get("total_steps").and_then(Value::as_f64).unwrap_or(0.0);
        let dropped = t.get("dropped_steps").and_then(Value::as_f64).unwrap_or(0.0);
        if steps.len() as f64 + dropped != total {
            return Err(format!(
                "trace {i} ({method}): {} retained + {dropped} dropped != {total} total",
                steps.len()
            ));
        }
        for (j, s) in steps.iter().enumerate() {
            let idx = s
                .get("index")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("trace {i} step {j}: missing `index`"))?;
            if idx < 1.0 {
                return Err(format!("trace {i} step {j}: index {idx} is not 1-based"));
            }
            let value = s.get("value").ok_or_else(|| format!("trace {i} step {j}: no `value`"))?;
            if !(value.is_null() || value.as_f64().is_some()) {
                return Err(format!("trace {i} step {j}: `value` is neither number nor null"));
            }
            s.get("at_us")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("trace {i} step {j}: missing `at_us`"))?;
        }
    }
    Ok(traces.len())
}

#[cfg(test)]
#[allow(clippy::cast_precision_loss)] // loop counters stay far below 2^52
mod tests {
    use super::*;

    /// The channel is process-global; tests must not interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disarmed_handles_are_inert() {
        let _g = serial();
        disarm();
        assert!(!armed());
        let mut t = begin("power", "residual", 4);
        assert!(!t.is_armed());
        t.step(1, 0.5);
        t.finish("converged");
        assert!(solves().is_empty());
    }

    #[test]
    fn armed_traces_commit_and_roundtrip_through_validate() {
        let _g = serial();
        arm();
        let mut t = begin("power", "residual", 3);
        assert!(t.is_armed());
        for i in 1..=5 {
            t.step(i, 1.0 / i as f64);
        }
        t.finish("converged");
        let mut u = begin("gth", "pivot", 7);
        u.step(1, 2.5);
        drop(u); // no finish: committed as `abandoned`

        let got = solves();
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].method, got[0].outcome, got[0].total_steps), ("power", "converged", 5));
        assert_eq!(got[0].steps.len(), 5);
        assert_eq!(
            got[0].steps[4],
            TraceStep { index: 5, value: 0.2, at_us: got[0].steps[4].at_us }
        );
        assert_eq!((got[1].method, got[1].outcome), ("gth", "abandoned"));

        let doc = dump();
        assert_eq!(validate(&doc), Ok(2));
        // Byte-level roundtrip through the JSON writer/parser.
        let back = crate::json::parse(&doc.to_string_pretty()).unwrap();
        assert_eq!(validate(&back), Ok(2));
        disarm();
        assert!(solves().is_empty());
    }

    #[test]
    fn step_ring_rotates_and_counts_drops() {
        let _g = serial();
        arm();
        let mut t = begin("power", "residual", 2);
        for i in 1..=(STEP_CAPACITY + 25) {
            t.step(i, i as f64);
        }
        t.finish("not-converged");
        let got = solves();
        let last = got.last().unwrap();
        assert_eq!(last.steps.len(), STEP_CAPACITY);
        assert_eq!(last.total_steps, (STEP_CAPACITY + 25) as u64);
        assert_eq!(last.dropped_steps(), 25);
        // The retained window is the most recent one.
        assert_eq!(last.steps[0].index, 26);
        assert_eq!(last.steps.last().unwrap().index, (STEP_CAPACITY + 25) as u64);
        let doc = dump();
        assert!(validate(&doc).is_ok());
        disarm();
    }

    #[test]
    fn solve_ring_is_bounded() {
        let _g = serial();
        arm();
        for i in 0..(SOLVE_CAPACITY + 3) {
            let mut t = begin("lu", "residual", i);
            t.step(1, 0.0);
            t.finish("done");
        }
        let got = solves();
        assert_eq!(got.len(), SOLVE_CAPACITY);
        // The oldest three rotated out.
        assert_eq!(got[0].states, 3);
        disarm();
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        let cases = [
            ("{}", "missing `schema`"),
            ("{\"schema\":\"other/v9\"}", "is not"),
            ("{\"schema\":\"rascad-convergence/v1\",\"solves\":1,\"traces\":[]}", "holds 0"),
        ];
        for (text, want) in cases {
            let doc = crate::json::parse(text).unwrap();
            let err = validate(&doc).unwrap_err();
            assert!(err.contains(want), "{text}: {err}");
        }
        // A non-finite step value serializes as null and must pass.
        let _g = serial();
        arm();
        let mut t = begin("power", "residual", 2);
        t.step(1, f64::NAN);
        t.finish("not-converged");
        let doc = dump();
        assert!(doc.to_string_compact().contains("\"value\":null"));
        assert!(validate(&doc).is_ok());
        disarm();
    }
}
