//! Request/response bodies for the `/v1` API.
//!
//! Every handler is a pure function from a parsed JSON body (plus the
//! shared engine/store) to an [`ApiResponse`], so the whole API is
//! unit-testable without a socket. Error responses all share one typed
//! shape: `{"error": {"kind": "...", "message": "..."}}`, with the
//! `kind` string stable for scripting (`bad-request`, `spec`,
//! `not-found`, `shed`, `deadline`, `panic`, `solver`).

use std::time::{Duration, Instant};

use rascad_core::{CoreError, Engine, EngineError, SystemSolution};
use rascad_markov::{CancelToken, MarkovError, SolveOptions, SteadyStateMethod};
use rascad_obs::json::{self, Value};
use rascad_spec::SystemSpec;

use crate::store::{SpecStore, StoreError};

/// A fully-determined HTTP answer from a handler.
#[derive(Debug)]
pub struct ApiResponse {
    /// HTTP status code.
    pub status: u16,
    /// JSON body (already a [`Value`]; serialized at write time).
    pub body: Value,
    /// Extra headers, e.g. `Retry-After` on sheds.
    pub extra_headers: Vec<(&'static str, String)>,
}

impl ApiResponse {
    /// A 200 with the given body.
    #[must_use]
    pub fn ok(body: Value) -> ApiResponse {
        ApiResponse { status: 200, body, extra_headers: Vec::new() }
    }

    /// A typed error response.
    #[must_use]
    pub fn error(status: u16, kind: &str, message: impl Into<String>) -> ApiResponse {
        ApiResponse {
            status,
            body: obj(vec![(
                "error",
                obj(vec![
                    ("kind", Value::Str(kind.to_string())),
                    ("message", Value::Str(message.into())),
                ]),
            )]),
            extra_headers: Vec::new(),
        }
    }

    /// A 429 shed with its `Retry-After` hint.
    #[must_use]
    pub fn shed(reason: &str, retry_after_secs: u64) -> ApiResponse {
        let mut r = ApiResponse::error(
            429,
            "shed",
            format!("request shed ({reason}); retry after {retry_after_secs}s"),
        );
        r.extra_headers.push(("Retry-After", retry_after_secs.to_string()));
        r
    }
}

/// Builds an object value from `(key, value)` pairs.
fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Parses a request body as a JSON object.
///
/// # Errors
///
/// A 400 `bad-request` response when the body is not a JSON object.
pub fn parse_body(body: &str) -> Result<Value, ApiResponse> {
    let v = json::parse(body)
        .map_err(|e| ApiResponse::error(400, "bad-request", format!("body is not JSON: {e}")))?;
    if v.as_object().is_none() {
        return Err(ApiResponse::error(400, "bad-request", "body must be a JSON object"));
    }
    Ok(v)
}

/// The tenant a request belongs to (`"anonymous"` when unnamed).
#[must_use]
pub fn tenant_of(body: &Value) -> String {
    body.get("tenant").and_then(Value::as_str).unwrap_or("anonymous").to_string()
}

/// Parses the inline `spec` field (DSL unless `format` is `"json"`).
fn parse_inline_spec(body: &Value) -> Result<SystemSpec, ApiResponse> {
    let text = body
        .get("spec")
        .and_then(Value::as_str)
        .ok_or_else(|| ApiResponse::error(400, "bad-request", "missing `spec` string field"))?;
    let format = body.get("format").and_then(Value::as_str).unwrap_or("dsl");
    let spec = match format {
        "dsl" => SystemSpec::from_dsl(text),
        "json" => SystemSpec::from_json(text),
        other => {
            return Err(ApiResponse::error(
                400,
                "bad-request",
                format!("unknown spec format `{other}` (dsl, json)"),
            ));
        }
    };
    spec.map_err(|e| ApiResponse::error(400, "spec", e.to_string()))
}

/// Resolves the spec a solve/sweep request targets: inline `spec`
/// first, else `spec_name` against the tenant's store shelf.
fn resolve_spec(body: &Value, tenant: &str, store: &SpecStore) -> Result<SystemSpec, ApiResponse> {
    if body.get("spec").is_some() {
        return parse_inline_spec(body);
    }
    let name = body.get("spec_name").and_then(Value::as_str).ok_or_else(|| {
        ApiResponse::error(400, "bad-request", "need either `spec` or `spec_name`")
    })?;
    store.get(tenant, name).ok_or_else(|| {
        ApiResponse::error(404, "not-found", format!("tenant `{tenant}` has no spec `{name}`"))
    })
}

/// Builds the per-request [`SolveOptions`]: a `deadline_ms` field turns
/// into both a wall-clock budget and a cancellation token pinned to the
/// absolute deadline, so a long solve aborts within the client's
/// patience.
fn solve_options(body: &Value) -> Result<SolveOptions, ApiResponse> {
    let mut options = SolveOptions::default();
    if let Some(v) = body.get("deadline_ms") {
        let ms = v.as_i64().filter(|&ms| ms > 0).ok_or_else(|| {
            ApiResponse::error(400, "bad-request", "`deadline_ms` must be a positive integer")
        })?;
        #[allow(clippy::cast_sign_loss)]
        let budget = Duration::from_millis(ms as u64);
        options.wall_clock = Some(budget);
        options.cancel = Some(CancelToken::with_deadline(Instant::now() + budget));
    }
    Ok(options)
}

fn method_of(body: &Value) -> Result<SteadyStateMethod, ApiResponse> {
    match body.get("method").and_then(Value::as_str) {
        None | Some("gth") => Ok(SteadyStateMethod::Gth),
        Some("lu") => Ok(SteadyStateMethod::Lu),
        Some(other) => Err(ApiResponse::error(
            400,
            "bad-request",
            format!("unknown method `{other}` (gth, lu)"),
        )),
    }
}

/// Maps a solve failure onto the typed HTTP error vocabulary.
#[must_use]
pub fn error_response(e: &CoreError) -> ApiResponse {
    match e {
        CoreError::Spec(e) => ApiResponse::error(400, "spec", e.to_string()),
        CoreError::Markov { block, source } => match deadline_kind(source) {
            Some(kind) => ApiResponse::error(
                504,
                "deadline",
                format!("block `{block}`: solve {kind} before the request deadline"),
            ),
            None => ApiResponse::error(500, "solver", format!("block `{block}` failed: {source}")),
        },
        CoreError::Engine(EngineError::WorkerPanicked { path, .. }) => {
            ApiResponse::error(500, "panic", format!("worker panicked solving `{path}`"))
        }
        other => ApiResponse::error(500, "solver", other.to_string()),
    }
}

/// Whether the error is a tripped per-request budget (wall clock or
/// cancellation token) rather than a numerical failure.
fn deadline_kind(e: &MarkovError) -> Option<&'static str> {
    match e {
        MarkovError::Timeout { .. } => Some("timed out"),
        MarkovError::Cancelled { .. } => Some("cancelled"),
        _ => None,
    }
}

/// `POST /v1/specs` — parse, validate, and store a spec for a tenant.
#[must_use]
pub fn put_spec(body: &Value, store: &SpecStore) -> ApiResponse {
    let tenant = tenant_of(body);
    let Some(name) = body.get("name").and_then(Value::as_str) else {
        return ApiResponse::error(400, "bad-request", "missing `name` string field");
    };
    let spec = match parse_inline_spec(body) {
        Ok(s) => s,
        Err(r) => return r,
    };
    if let Err(e) = spec.validate() {
        return ApiResponse::error(400, "spec", e.to_string());
    }
    let report = rascad_lint::lint_spec(&spec);
    if report.has_errors() {
        return ApiResponse::error(400, "spec", "spec has blocking lint errors");
    }
    let blocks = spec.root.total_blocks();
    let depth = spec.root.depth();
    match store.put(&tenant, name, spec) {
        Ok(()) => ApiResponse {
            status: 201,
            body: obj(vec![
                ("tenant", Value::Str(tenant)),
                ("name", Value::Str(name.to_string())),
                ("blocks", int(blocks)),
                ("depth", int(depth)),
            ]),
            extra_headers: Vec::new(),
        },
        Err(e @ StoreError::QuotaExhausted { .. }) => {
            ApiResponse::error(400, "quota", e.to_string())
        }
    }
}

#[allow(clippy::cast_possible_wrap)]
fn int(n: usize) -> Value {
    Value::Int(n as i64)
}

/// `POST /v1/solve` — solve a stored or inline spec under the
/// request's deadline; `best_effort` degrades instead of failing.
#[must_use]
pub fn solve(body: &Value, engine: &Engine, store: &SpecStore) -> ApiResponse {
    let tenant = tenant_of(body);
    let spec = match resolve_spec(body, &tenant, store) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let options = match solve_options(body) {
        Ok(o) => o,
        Err(r) => return r,
    };
    let method = match method_of(body) {
        Ok(m) => m,
        Err(r) => return r,
    };
    let best_effort = body.get("best_effort").and_then(Value::as_bool).unwrap_or(false);
    let result = if best_effort {
        engine.solve_spec_best_effort_with_options(&spec, method, &options)
    } else {
        engine.solve_spec_with_options(&spec, method, &options)
    };
    match result {
        Ok(sol) => ApiResponse::ok(solution_json(&sol)),
        Err(e) => error_response(&e),
    }
}

/// `POST /v1/sweep` — parametric sweep over a stored or inline spec.
#[must_use]
pub fn sweep(body: &Value, engine: &Engine, store: &SpecStore) -> ApiResponse {
    let tenant = tenant_of(body);
    let spec = match resolve_spec(body, &tenant, store) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let Some(block) = body.get("block").and_then(Value::as_str) else {
        return ApiResponse::error(400, "bad-request", "missing `block` path field");
    };
    let Some(param) = body.get("param").and_then(Value::as_str) else {
        return ApiResponse::error(400, "bad-request", "missing `param` field (mtbf, tresp, pcd)");
    };
    let (from, to) =
        match (body.get("from").and_then(Value::as_f64), body.get("to").and_then(Value::as_f64)) {
            (Some(a), Some(b)) => (a, b),
            _ => return ApiResponse::error(400, "bad-request", "missing numeric `from`/`to`"),
        };
    let points = match body.get("points").and_then(Value::as_i64) {
        Some(n) if (2..=101).contains(&n) => usize::try_from(n).expect("bounded above"),
        _ => return ApiResponse::error(400, "bad-request", "`points` must be in 2..=101"),
    };
    if spec.root.find(block).is_none() {
        return ApiResponse::error(404, "not-found", format!("no block at path `{block}`"));
    }
    #[allow(clippy::cast_precision_loss)]
    let values: Vec<f64> =
        (0..points).map(|i| from + (to - from) * (i as f64) / ((points - 1) as f64)).collect();
    let block_path = block.to_string();
    let param = param.to_string();
    let mut apply_err = None;
    let swept = engine.sweep(&spec, &values, |s, v| {
        if apply_err.is_some() {
            return;
        }
        if let Err(e) = apply_param(s, &block_path, &param, v) {
            apply_err = Some(e);
        }
    });
    if let Some(r) = apply_err {
        return r;
    }
    match swept {
        Ok(points) => ApiResponse::ok(obj(vec![
            ("param", Value::Str(param)),
            ("block", Value::Str(block_path)),
            (
                "points",
                Value::Arr(
                    points
                        .iter()
                        .map(|p| {
                            obj(vec![
                                ("value", Value::Num(p.value)),
                                ("availability", Value::Num(p.solution.system.availability)),
                                (
                                    "yearly_downtime_minutes",
                                    Value::Num(p.solution.system.yearly_downtime_minutes),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])),
        Err(e) => error_response(&e),
    }
}

/// Applies one sweep parameter to the targeted block.
fn apply_param(
    spec: &mut SystemSpec,
    block: &str,
    param: &str,
    value: f64,
) -> Result<(), ApiResponse> {
    let Some(b) = spec.root.find_mut(block) else {
        return Err(ApiResponse::error(404, "not-found", format!("no block at path `{block}`")));
    };
    match param {
        "mtbf" => b.params.mtbf = rascad_spec::units::Hours(value),
        "tresp" => b.params.service_response = rascad_spec::units::Hours(value),
        "pcd" => b.params.p_correct_diagnosis = value,
        other => {
            return Err(ApiResponse::error(
                400,
                "bad-request",
                format!("unknown sweep param `{other}` (mtbf, tresp, pcd)"),
            ));
        }
    }
    Ok(())
}

/// `POST /v1/lint` — static analysis of an inline spec, findings as
/// the JSON-lines-equivalent array the CLI renders.
#[must_use]
pub fn lint(body: &Value) -> ApiResponse {
    let spec = match parse_inline_spec(body) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let report = rascad_lint::lint_spec(&spec);
    let rendered = rascad_lint::render::render_json(&report);
    let findings: Vec<Value> = rendered
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| json::parse(l).ok())
        .collect();
    let (errors, warnings, notes) = report.counts();
    ApiResponse::ok(obj(vec![
        ("errors", int(errors)),
        ("warnings", int(warnings)),
        ("notes", int(notes)),
        ("blocking", Value::Bool(report.has_errors())),
        ("findings", Value::Arr(findings)),
    ]))
}

/// Serializes a solution: system measures, per-block summary with the
/// certificate verdict, and — for degraded runs — the failed blocks
/// plus the availability bounds bracketing the truth.
#[must_use]
pub fn solution_json(sol: &SystemSolution) -> Value {
    let s = &sol.system;
    let mut fields = vec![
        (
            "system",
            obj(vec![
                ("availability", Value::Num(s.availability)),
                ("unavailability", Value::Num(s.unavailability)),
                ("yearly_downtime_minutes", Value::Num(s.yearly_downtime_minutes)),
                ("failure_rate", Value::Num(s.failure_rate)),
                ("mtbf_hours", Value::Num(s.mtbf_hours)),
                ("interval_availability", Value::Num(s.interval_availability)),
                ("reliability_at_mission", Value::Num(s.reliability_at_mission)),
                ("mttf_hours", Value::Num(s.mttf_hours)),
                ("mission_hours", Value::Num(s.mission_hours)),
            ]),
        ),
        (
            "blocks",
            Value::Arr(
                sol.blocks
                    .iter()
                    .map(|b| {
                        obj(vec![
                            ("path", Value::Str(b.path.clone())),
                            ("availability", Value::Num(b.measures.availability)),
                            ("states", int(b.model.states)),
                            (
                                "certificate",
                                obj(vec![
                                    ("verdict", Value::Str(b.certificate.verdict.to_string())),
                                    ("method", Value::Str(b.certificate.method.clone())),
                                    ("residual_inf", Value::Num(b.certificate.residual_inf)),
                                    ("prob_mass_error", Value::Num(b.certificate.prob_mass_error)),
                                ]),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("degraded", Value::Bool(sol.is_degraded())),
    ];
    if sol.is_degraded() {
        let (lo, hi) = sol.availability_bounds();
        fields.push(("availability_bounds", Value::Arr(vec![Value::Num(lo), Value::Num(hi)])));
        fields.push((
            "failed",
            Value::Arr(
                sol.failed
                    .iter()
                    .map(|f| {
                        obj(vec![
                            ("path", Value::Str(f.path.clone())),
                            ("error", Value::Str(f.error.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rascad_spec::units::Hours;
    use rascad_spec::{BlockParams, Diagram, GlobalParams};

    fn dsl() -> String {
        let mut root = Diagram::new("Api");
        root.push(BlockParams::new("A", 2, 1).with_mtbf(Hours(10_000.0)));
        SystemSpec::new(root, GlobalParams::default()).to_dsl()
    }

    fn body(json_text: &str) -> Value {
        json::parse(json_text).unwrap()
    }

    #[test]
    fn put_then_solve_by_name() {
        let store = SpecStore::default();
        let engine = Engine::new();
        let text = dsl().replace('"', "\\\"").replace('\n', "\\n");
        let r = put_spec(&body(&format!(r#"{{"tenant":"t","name":"s","spec":"{text}"}}"#)), &store);
        assert_eq!(r.status, 201, "{:?}", r.body);
        let r = solve(&body(r#"{"tenant":"t","spec_name":"s"}"#), &engine, &store);
        assert_eq!(r.status, 200, "{:?}", r.body);
        let a = r.body.get("system").unwrap().get("availability").unwrap().as_f64().unwrap();
        assert!(a > 0.999 && a <= 1.0);
        assert_eq!(r.body.get("degraded").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn unknown_spec_name_is_404_and_tenants_do_not_leak() {
        let store = SpecStore::default();
        let engine = Engine::new();
        let text = dsl().replace('"', "\\\"").replace('\n', "\\n");
        let stored =
            put_spec(&body(&format!(r#"{{"tenant":"t1","name":"s","spec":"{text}"}}"#)), &store);
        assert_eq!(stored.status, 201);
        // Same name, different tenant: not found.
        let r = solve(&body(r#"{"tenant":"t2","spec_name":"s"}"#), &engine, &store);
        assert_eq!(r.status, 404);
        assert_eq!(r.body.get("error").unwrap().get("kind").unwrap().as_str(), Some("not-found"));
    }

    #[test]
    fn malformed_bodies_are_400_typed() {
        let store = SpecStore::default();
        let engine = Engine::new();
        assert_eq!(parse_body("not json").unwrap_err().status, 400);
        assert_eq!(parse_body("[1,2]").unwrap_err().status, 400);
        let r = solve(&body(r#"{"tenant":"t"}"#), &engine, &store);
        assert_eq!(r.status, 400);
        let r = solve(&body(r#"{"spec":"diagram"}"#), &engine, &store);
        assert_eq!(r.status, 400);
        assert_eq!(r.body.get("error").unwrap().get("kind").unwrap().as_str(), Some("spec"));
        let r = solve(&body(r#"{"spec":"x","deadline_ms":-5}"#), &engine, &store);
        assert_eq!(r.status, 400);
    }

    #[test]
    fn pre_expired_deadline_is_a_504() {
        let store = SpecStore::default();
        let text = dsl().replace('"', "\\\"").replace('\n', "\\n");
        // deadline_ms: 1 — the token expires before (or during) the
        // first solver clock check on any non-trivially-cached chain.
        // Use an uncached engine-fresh spec so the solve actually runs.
        let mut r;
        let mut attempts = 0;
        loop {
            r = solve(
                &body(&format!(r#"{{"spec":"{text}","deadline_ms":1}}"#)),
                &Engine::new(),
                &store,
            );
            attempts += 1;
            if r.status != 200 || attempts > 3 {
                break;
            }
        }
        // A tiny chain can legitimately finish within 1 ms; accept
        // either a clean 200 or the typed 504 — never anything else.
        assert!(
            r.status == 200 || r.status == 504,
            "expected 200 or typed deadline 504, got {} {:?}",
            r.status,
            r.body
        );
        if r.status == 504 {
            assert_eq!(
                r.body.get("error").unwrap().get("kind").unwrap().as_str(),
                Some("deadline")
            );
        }
    }

    #[test]
    fn sweep_returns_monotone_availability_over_mtbf() {
        let store = SpecStore::default();
        let engine = Engine::new();
        let text = dsl().replace('"', "\\\"").replace('\n', "\\n");
        let r = sweep(
            &body(&format!(
                r#"{{"spec":"{text}","block":"A","param":"mtbf","from":1000,"to":50000,"points":5}}"#
            )),
            &engine,
            &store,
        );
        assert_eq!(r.status, 200, "{:?}", r.body);
        let pts = r.body.get("points").unwrap().as_array().unwrap();
        assert_eq!(pts.len(), 5);
        let avails: Vec<f64> =
            pts.iter().map(|p| p.get("availability").unwrap().as_f64().unwrap()).collect();
        assert!(avails.windows(2).all(|w| w[0] <= w[1]), "{avails:?}");
    }

    #[test]
    fn lint_reports_counts_and_findings() {
        let r = lint(&body(&format!(
            r#"{{"spec":"{}"}}"#,
            dsl().replace('"', "\\\"").replace('\n', "\\n")
        )));
        assert_eq!(r.status, 200);
        assert!(r.body.get("findings").unwrap().as_array().is_some());
        assert_eq!(r.body.get("blocking").unwrap().as_bool(), Some(false));
    }
}
