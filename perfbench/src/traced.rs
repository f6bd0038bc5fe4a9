//! The traced run: per-layer metrics.
//!
//! Spans are taken from the benchmark's own code around calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! A run has four parts:
//!
//! 1. **Live** (served workloads): the real daemon and clients for a
//!    short window, to compare the client-observed p50 with the
//!    daemon's own `serve.latency` p50 from the metrics registry.
//! 2. **Untraced replay**: the op list, in-process, through the same
//!    composite calls the daemon's `dispatch` (or `rascad solve`) makes,
//!    over a loopback socket pair; only whole ops are timed.
//! 3. **Traced replay**: the same ops on fresh state, each call timed on
//!    its own in dispatch order. `Engine::solve_spec_with_options` runs
//!    whole; right after the op (outside its stopwatch) its children —
//!    validate, `generate_block`, then cache hits or ladder, certify and
//!    the mission-time solves — are called and timed alone, and
//!    `core.engine.self_us` is the remainder (pool spawn, fingerprint,
//!    roll-up).
//! 4. **Probes**: the hardware triad and the unfiltered failure share.
//!
//! `trace.coverage` is the sum of every layer's self time over the
//! traced op time, and must lie within [`COVERAGE_TOLERANCE`];
//! `trace.overhead_pct` compares the traced and untraced op medians.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use rascad_core::{
    certify_steady, generate_block, report, steady_state_ladder, Engine, SystemSolution,
};
use rascad_markov::{absorbing, transient, SolveOptions, SteadyStateMethod, TransientOptions};
use rascad_obs::json::Value;
use rascad_obs::MetricsRegistry;
use rascad_serve::http::{self, HttpLimits};
use rascad_serve::{api, Admission, AdmissionConfig, ApiResponse, SpecStore};
use rascad_spec::SystemSpec;

use crate::check::{Failures, Reference};
use crate::gen::{self, Inputs, Kind, Op, PoolParams, Rng, Workload, POOL_UNITS};
use crate::served::{self, Mode};
use crate::sys::{self, message_class};
use crate::{Args, Metric, RunResult};

/// Accepted range of `trace.coverage`.
pub const COVERAGE_TOLERANCE: (f64, f64) = (0.9, 1.1);

/// Longest live window.
const LIVE_SECONDS: f64 = 5.0;

/// Most `served_cold` ops replayed: each is decomposed into a dozen
/// solver calls per block.
const COLD_REPLAY_OPS: usize = 200;

/// Missed blocks whose transient and sparse counters are read. A read
/// merges every metrics-registry shard, and the daemon keeps one for
/// every thread it ever ran, so reads are sampled.
const COUNTER_SAMPLE_BLOCKS: f64 = 64.0;

/// Layers whose times are self times; their sum over an op is compared
/// with the op's traced time.
const SELF_LAYERS: [&str; 20] = [
    "serve.http.read_us",
    "serve.api.parse_us",
    "serve.admission.admit_us",
    "serve.store.get_us",
    "serve.store.put_us",
    "spec.parse_us",
    "spec.validate_us",
    "lint.spec_us",
    "core.generate_us",
    "core.cache.hit_us",
    "core.ladder_us",
    "core.certify_us",
    "markov.transient_us",
    "markov.mttf_us",
    "markov.reliability_us",
    "core.engine.self_us",
    "core.sweep_us",
    "core.report_us",
    "serve.api.encode_us",
    "serve.http.write_us",
];

/// Timed calls of one op, in call order (a name may repeat).
#[derive(Default)]
struct Spans(Vec<(&'static str, f64)>);

impl Spans {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.0.push((name, t.elapsed().as_secs_f64() * 1e6));
        out
    }

    fn sum(&self, name: &str) -> f64 {
        self.0.iter().filter(|(n, _)| *n == name).map(|(_, us)| us).sum()
    }

    fn sum_of(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.sum(n)).sum()
    }
}

/// Per-layer samples (one per op that ran the layer) and counters.
#[derive(Default)]
struct Collector {
    layers: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
    op_us: Vec<f64>,
    self_us_total: f64,
    op_us_total: f64,
}

impl Collector {
    fn add_op(&mut self, spans: &Spans, op_us: f64) {
        let mut per_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, us) in &spans.0 {
            *per_layer.entry(name).or_insert(0.0) += us;
        }
        for (name, us) in per_layer {
            self.layers.entry(name).or_default().push(us);
        }
        self.self_us_total += spans.sum_of(&SELF_LAYERS);
        self.op_us_total += op_us;
        self.op_us.push(op_us);
    }

    fn count(&mut self, name: &'static str, delta: f64) {
        *self.counts.entry(name).or_insert(0.0) += delta;
    }

    /// A per-op value reported as its median (not a time).
    fn sample(&mut self, name: &'static str, value: f64) {
        self.layers.entry(name).or_default().push(value);
    }

    fn max(&mut self, name: &'static str, value: f64) {
        let e = self.counts.entry(name).or_insert(0.0);
        *e = e.max(value);
    }

    fn median(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |v| sys::median(v))
    }

    fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

/// A connected loopback pair: the benchmark writes requests on
/// `client`, the daemon's framing code reads them on `server`.
struct Pair {
    client: TcpStream,
    server: TcpStream,
}

impl Pair {
    fn new() -> std::io::Result<Pair> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let client = TcpStream::connect(listener.local_addr()?)?;
        let (server, _) = listener.accept()?;
        // Without this the body segment of every replayed response
        // waits out the client's delayed ACK; the write call itself
        // costs the same either way.
        server.set_nodelay(true)?;
        Ok(Pair { client, server })
    }

    fn drain(&mut self) -> usize {
        served::read_response(&mut self.client).map_or(0, |r| r.wire_bytes)
    }
}

/// The daemon's shared state, rebuilt in-process.
struct State {
    engine: Engine,
    store: SpecStore,
    admission: Admission,
}

impl State {
    fn new(workload: Workload, inputs: &Inputs) -> Result<State, String> {
        let st = State {
            engine: Engine::new(),
            store: SpecStore::default(),
            admission: Admission::new(AdmissionConfig::default()),
        };
        for put in &inputs.puts {
            let body = api::parse_body(&put.body).map_err(|r| format!("put: {}", r.status))?;
            let r = api::put_spec(&body, &st.store);
            if r.status != 201 {
                return Err(format!("replay set-up put answered {}", r.status));
            }
        }
        if workload == Workload::ServedWarm {
            let mut seen = std::collections::HashSet::new();
            for op in inputs.ops.iter().filter(|op| seen.insert(op.key)) {
                let body =
                    api::parse_body(&op.body).map_err(|r| format!("warm-up: {}", r.status))?;
                if api::solve(&body, &st.engine, &st.store).status != 200 {
                    return Err("replay warm-up solve failed".into());
                }
            }
        }
        Ok(st)
    }
}

fn compact(v: &Value) -> String {
    let mut text = v.to_string_compact();
    text.push('\n');
    text
}

/// One op through the composite handlers, as `dispatch` runs it.
fn served_untraced(st: &State, op: &Op, request: &[u8], pair: &mut Pair) -> (f64, u16) {
    let limits = HttpLimits::default();
    pair.client.write_all(request).expect("loopback write");
    let t = Instant::now();
    let req = http::read_request(&mut pair.server, &limits)
        .expect("replayed request")
        .expect("a request");
    let resp = match api::parse_body(&req.body) {
        Ok(body) => {
            let tenant = api::tenant_of(&body);
            match st.admission.try_admit(&tenant) {
                Ok(permit) => {
                    let r = match op.kind {
                        Kind::Solve => api::solve(&body, &st.engine, &st.store),
                        Kind::Sweep => api::sweep(&body, &st.engine, &st.store),
                        _ => api::put_spec(&body, &st.store),
                    };
                    drop(permit);
                    r
                }
                Err(reason) => ApiResponse::shed(reason.as_str(), 1),
            }
        }
        Err(r) => r,
    };
    let text = compact(&resp.body);
    http::write_response(
        &mut pair.server,
        resp.status,
        "application/json",
        &resp.extra_headers,
        &text,
        false,
    )
    .expect("loopback write");
    let us = t.elapsed().as_secs_f64() * 1e6;
    pair.drain();
    (us, resp.status)
}

/// What the traced op hands to the decomposition step.
struct Solved {
    spec: SystemSpec,
    sol: SystemSolution,
    all_hits: bool,
}

/// One op, each call timed on its own. Returns the op time, status and
/// the solve to decompose (solve ops).
fn served_traced(
    st: &State,
    op: &Op,
    request: &[u8],
    pair: &mut Pair,
    spans: &mut Spans,
    c: &mut Collector,
) -> (f64, u16, Option<Solved>) {
    let limits = HttpLimits::default();
    pair.client.write_all(request).expect("loopback write");
    let t = Instant::now();
    let req = spans
        .time("serve.http.read_us", || http::read_request(&mut pair.server, &limits))
        .expect("replayed request")
        .expect("a request");
    let body =
        spans.time("serve.api.parse_us", || api::parse_body(&req.body)).expect("generated JSON");
    let (tenant, permit) = spans.time("serve.admission.admit_us", || {
        let tenant = api::tenant_of(&body);
        let permit = st.admission.try_admit(&tenant);
        (tenant, permit)
    });
    let permit = permit.expect("a lone replay client is never shed");
    let field = |k: &str| body.get(k).and_then(Value::as_str);
    let before = st.engine.cache_stats();
    let mut solved = None;
    let (status, value) = match op.kind {
        Kind::Solve => {
            let spec = match field("spec") {
                Some(dsl) => spans
                    .time("spec.parse_us", || SystemSpec::from_dsl(dsl))
                    .expect("generated DSL"),
                None => {
                    let name = field("spec_name").expect("stored spec name");
                    spans
                        .time("serve.store.get_us", || st.store.get(&tenant, name))
                        .expect("stored spec")
                }
            };
            let sol = spans
                .time("core.solve_spec_us", || {
                    st.engine.solve_spec_with_options(
                        &spec,
                        SteadyStateMethod::Gth,
                        &SolveOptions::default(),
                    )
                })
                .expect("replayed solve succeeds");
            let value = spans.time("serve.api.encode_us", || api::solution_json(&sol));
            let after = st.engine.cache_stats();
            solved = Some(Solved { spec, sol, all_hits: after.misses == before.misses });
            (200, value)
        }
        Kind::Sweep => {
            let r = spans.time("core.sweep_us", || api::sweep(&body, &st.engine, &st.store));
            (r.status, r.body)
        }
        _ => {
            let name = field("name").expect("put name");
            let dsl = field("spec").expect("put spec");
            let spec =
                spans.time("spec.parse_us", || SystemSpec::from_dsl(dsl)).expect("generated DSL");
            spans.time("spec.validate_us", || spec.validate()).expect("generated spec validates");
            let blocking =
                spans.time("lint.spec_us", || rascad_lint::lint_spec(&spec).has_errors());
            assert!(!blocking, "generated spec has no blocking lint errors");
            let (blocks, depth) = (spec.root.total_blocks(), spec.root.depth());
            spans
                .time("serve.store.put_us", || st.store.put(&tenant, name, spec))
                .expect("inside quota");
            let value = spans.time("serve.api.encode_us", || {
                Value::Obj(vec![
                    ("tenant".into(), Value::Str(tenant.clone())),
                    ("name".into(), Value::Str(name.to_string())),
                    ("blocks".into(), Value::Int(blocks as i64)),
                    ("depth".into(), Value::Int(depth as i64)),
                ])
            });
            (201, value)
        }
    };
    let after = st.engine.cache_stats();
    c.count("cache.hits", (after.hits - before.hits) as f64);
    c.count("cache.lookups", (after.hits + after.misses - before.hits - before.misses) as f64);
    spans.time("serve.admission.admit_us", || drop(permit));
    let text = spans.time("serve.api.encode_us", || compact(&value));
    spans
        .time("serve.http.write_us", || {
            http::write_response(&mut pair.server, status, "application/json", &[], &text, false)
        })
        .expect("loopback write");
    let us = t.elapsed().as_secs_f64() * 1e6;
    c.count("bytes_in", request.len() as f64);
    c.count("bytes_out", pair.drain() as f64);
    (us, status, solved)
}

/// Registry totals read around the decomposed solver calls.
fn registry_totals() -> (f64, f64) {
    let snap = MetricsRegistry::global().snapshot();
    let terms = snap.counter_total("markov.transient.vec_mul_steps").unwrap_or(0) as f64;
    let sweeps = snap
        .values
        .iter()
        .filter(|(id, _)| id.name == "markov.iterations" && id.render().contains("sparse"))
        .map(|(_, h)| h.sum())
        .sum();
    (terms, sweeps)
}

/// Times `Engine::solve_spec`'s children alone and derives its self
/// time. Runs after the op's stopwatch stopped.
fn decompose(solved: &Solved, engine: &Engine, spans: &mut Spans, c: &mut Collector) {
    let spec = &solved.spec;
    let opts = SolveOptions::default();
    let mission = spec.globals.mission_time.0;
    let mut children = Spans::default();
    children.time("spec.validate_us", || spec.validate()).expect("validated before");
    let mut params = Vec::new();
    spec.root.walk(&mut |_, _, b| params.push(b.params.clone()));
    for (p, block) in params.iter().zip(&solved.sol.blocks) {
        let model = children
            .time("core.generate_us", || generate_block(p, &spec.globals))
            .expect("generates");
        c.max("states_per_block_max", model.state_count() as f64);
        if solved.all_hits {
            let cache = engine.cache().expect("the engine caches");
            children
                .time("core.cache.hit_us", || {
                    let steady =
                        cache.steady_certified_with(&model, SteadyStateMethod::Gth, &opts, 0);
                    let mission = cache.mission_with(&model, mission, 0);
                    steady.and(mission)
                })
                .expect("warm entry");
            continue;
        }
        let cert = &block.certificate;
        for attempt in &cert.trail {
            let rung =
                ["sparse", "power", "lu", "gth"].into_iter().find(|m| attempt.starts_with(m));
            c.count(rung_metric("attempts", rung), 1.0);
        }
        c.count(rung_metric("wins", Some(cert.method.as_str())), 1.0);
        c.count("miss_blocks", 1.0);
        let sampled = c.counted("sampled_blocks") < COUNTER_SAMPLE_BLOCKS;
        let read = || if sampled { registry_totals() } else { (0.0, 0.0) };
        let (terms0, sweeps0) = read();
        let pi = children
            .time("core.ladder_us", || {
                steady_state_ladder(&model.chain, SteadyStateMethod::Gth, &opts)
            })
            .expect("ladder succeeds");
        let (_, sweeps1) = read();
        children.time("core.certify_us", || {
            certify_steady(&model.chain, &pi, &cert.method, cert.trail.clone())
        });
        let mut p0 = vec![0.0; model.chain.len()];
        p0[model.ok_state()] = 1.0;
        let t_tr = Instant::now();
        children
            .time("markov.transient_us", || {
                transient::solve(&model.chain, &p0, mission, TransientOptions::default())
            })
            .expect("transient succeeds");
        let transient_s = t_tr.elapsed().as_secs_f64();
        let (terms1, _) = read();
        let mttf =
            children.time("markov.mttf_us", || absorbing::mttf(&model.chain, model.ok_state()));
        if mttf.is_err() {
            c.count("mttf.singular", 1.0);
        }
        let dt = (mission * 1e-3).max(1e-6);
        let _ = children.time("markov.reliability_us", || {
            absorbing::reliability_curve(&model.chain, model.ok_state(), &[mission, mission + dt])
        });
        // Computed traffic of the uniformized SpMV series: CSR values
        // and column indices (16 B per nonzero) plus row pointers and
        // the six vector passes per term (88 B per state).
        let n = model.chain.len() as f64;
        let nnz = model.chain.transitions().len() as f64 + n;
        c.max("transient.working_set_kb", (16.0 * nnz + 48.0 * n) / 1024.0);
        if sampled {
            let terms = terms1 - terms0;
            c.count("sampled_blocks", 1.0);
            c.count("transient.terms", terms);
            c.count("transient.bytes", terms * (16.0 * nnz + 88.0 * n));
            c.count("transient.flops", terms * (2.0 * nnz + 7.0 * n));
            c.count("transient.seconds", transient_s);
            c.count("sparse.sweeps", sweeps1 - sweeps0);
        }
    }
    let mission_us =
        children.sum_of(&["markov.transient_us", "markov.mttf_us", "markov.reliability_us"]);
    let solve_us = spans.sum("core.solve_spec_us");
    let self_us = solve_us - children.0.iter().map(|(_, us)| us).sum::<f64>();
    spans.0.extend(children.0);
    if mission_us > 0.0 {
        spans.0.push(("core.mission_us", mission_us));
    }
    spans.0.push(("core.engine.self_us", self_us));
}

fn rung_metric(what: &str, rung: Option<&str>) -> &'static str {
    match (what, rung) {
        ("attempts", Some("sparse")) => "core.ladder.attempts.sparse",
        ("attempts", Some("power")) => "core.ladder.attempts.power",
        ("attempts", Some("lu")) => "core.ladder.attempts.lu",
        ("attempts", Some("gth")) => "core.ladder.attempts.gth",
        ("wins", Some("sparse")) => "core.ladder.wins.sparse",
        ("wins", Some("power")) => "core.ladder.wins.power",
        ("wins", Some("lu")) => "core.ladder.wins.lu",
        ("wins", Some("gth")) => "core.ladder.wins.gth",
        _ => "core.ladder.other",
    }
}

/// Results of the live window.
#[derive(Default)]
struct Live {
    client_p50_ms: f64,
    server_p50_ms: f64,
    connects_per_op: f64,
    shed: f64,
    attempted: u64,
    failures: Failures,
}

fn live(workload: Workload, seed: u64, seconds: f64) -> Result<Live, String> {
    let p = crate::prepare_served(workload, seed)?;
    let keep_alive_conns = p.conns.len() as f64;
    // A fresh registry, so the daemon's series cover the window only.
    rascad_obs::install(Vec::new());
    let window = seconds.min(LIVE_SECONDS);
    let logs = served::run_clients(
        p.daemon.addr,
        &p.inputs.ops,
        &p.requests,
        p.mode,
        p.conns,
        crate::clients(),
        window,
    );
    let snap = MetricsRegistry::global().snapshot();
    p.daemon.stop();
    let server_p50_ms = snap
        .values
        .iter()
        .filter(|(id, _)| id.name == "serve.latency")
        .fold(rascad_obs::Histogram::default(), |mut acc, (_, h)| {
            acc.merge(h);
            acc
        })
        .quantile(0.5)
        .unwrap_or(0.0);
    let latencies: Vec<f64> = logs.iter().flat_map(|l| l.latencies_ms.iter().copied()).collect();
    let connects: f64 = logs.iter().map(|l| l.connects as f64).sum::<f64>()
        + if p.mode == Mode::KeepAlive { keep_alive_conns } else { 0.0 };
    let mut reference = Reference::new();
    let (attempted, failures) = crate::verify_served(&p.inputs.ops, &logs, &mut reference);
    Ok(Live {
        client_p50_ms: sys::median(&latencies),
        server_p50_ms,
        connects_per_op: connects / latencies.len().max(1) as f64,
        shed: snap.counter_total("serve.shed").unwrap_or(0) as f64,
        attempted,
        failures,
    })
}

/// Specs of the unfiltered failure probe: the workload's draws before
/// any filter (pools: the full unit range; served: the ops as sent).
fn probe_specs(workload: Workload, seed: u64, inputs: &Inputs) -> Vec<SystemSpec> {
    match workload {
        Workload::LargePool => {
            let mut rng = Rng::new(seed ^ 0xFA11);
            (0..64)
                .map(|_| {
                    let one = rng.unit() < 0.5;
                    PoolParams::draw(&mut rng, POOL_UNITS, one).spec("probe")
                })
                .collect()
        }
        _ => inputs
            .ops
            .iter()
            .filter(|op| op.kind == Kind::Solve)
            .take(200)
            .filter_map(|op| {
                let body = rascad_obs::json::parse(&op.body).ok()?;
                match body.get("spec").and_then(Value::as_str) {
                    Some(dsl) => SystemSpec::from_dsl(dsl).ok(),
                    None => {
                        let name = body.get("spec_name").and_then(Value::as_str)?;
                        gen::STORED_SPECS
                            .iter()
                            .find(|(n, _)| *n == name)
                            .and_then(|(_, d)| SystemSpec::from_dsl(d).ok())
                    }
                }
            })
            .collect(),
    }
}

/// Runs every block's MTTF step; returns (specs failing, singular
/// failures, failures by kind).
fn failure_probe(specs: &[SystemSpec]) -> (u64, u64, Failures) {
    let mut kinds = Failures::default();
    let (mut failing, mut singular) = (0, 0);
    for spec in specs {
        let mut first_error = None;
        spec.root.walk(&mut |_, _, b| {
            if first_error.is_some() {
                return;
            }
            let r =
                generate_block(&b.params, &spec.globals).map_err(|e| e.to_string()).and_then(|m| {
                    absorbing::mttf(&m.chain, m.ok_state()).map(|_| ()).map_err(|e| e.to_string())
                });
            first_error = r.err();
        });
        if let Some(e) = first_error {
            failing += 1;
            if e.contains("singular") {
                singular += 1;
            }
            kinds.add(format!("solver: {}", message_class(&e)));
        }
    }
    (failing, singular, kinds)
}

/// The traced run.
///
/// # Errors
///
/// A broken set-up.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let workload = args.workload;
    let inputs = gen::generate(workload, args.seed);
    let served = workload != Workload::LargePool;
    let live = if served { live(workload, args.seed, args.seconds)? } else { Live::default() };
    if !served {
        // `rascad solve` arms the flight recorder; the registry is
        // installed so the transient and sparse counters can be read.
        rascad_obs::flight::arm();
        rascad_obs::install(Vec::new());
    }

    // Untraced replay, bounded by a quarter of the run; the traced
    // replay then takes exactly the same ops.
    let budget = Duration::from_secs_f64(args.seconds * 0.25);
    let mut untraced = Vec::new();
    let mut failures = Failures::default();
    let requests: Vec<Vec<u8>> = inputs.ops.iter().map(|op| op.http_request(false)).collect();
    let mut pair = Pair::new().map_err(|e| format!("loopback pair: {e}"))?;
    let start = Instant::now();
    if served {
        let st = State::new(workload, &inputs)?;
        let cap = if workload == Workload::ServedCold { COLD_REPLAY_OPS } else { inputs.ops.len() };
        while untraced.len() < cap && (start.elapsed() < budget || untraced.len() < 4) {
            let i = untraced.len();
            let (us, status) = served_untraced(&st, &inputs.ops[i], &requests[i], &mut pair);
            untraced.push(us);
            if status >= 300 {
                failures.add(format!("{status} replay"));
            }
        }
    } else {
        while start.elapsed() < budget || untraced.len() < 4 {
            let op = &inputs.ops[untraced.len() % inputs.ops.len()];
            let t = Instant::now();
            if let Err(kind) = crate::pool::solve_op(&op.body) {
                failures.add(kind);
            }
            untraced.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }

    let mut c = Collector::default();
    if served {
        let st = State::new(workload, &inputs)?;
        for (op, request) in inputs.ops.iter().zip(&requests).take(untraced.len()) {
            let mut spans = Spans::default();
            let (us, _, solved) = served_traced(&st, op, request, &mut pair, &mut spans, &mut c);
            if let Some(solved) = solved {
                decompose(&solved, &st.engine, &mut spans, &mut c);
                c.sample("core.blocks_per_op", solved.spec.root.total_blocks() as f64);
            }
            c.max("cache.entries", st.engine.cache_stats().entries as f64);
            c.add_op(&spans, us);
        }
    } else {
        for i in 0..untraced.len() {
            let op = &inputs.ops[i % inputs.ops.len()];
            let mut spans = Spans::default();
            let t = Instant::now();
            let spec = spans
                .time("spec.parse_us", || SystemSpec::from_dsl(&op.body))
                .expect("generated DSL");
            let blocking =
                spans.time("lint.spec_us", || rascad_lint::lint_spec(&spec).has_errors());
            assert!(!blocking, "pool specs pass the lint gate");
            let engine = Engine::new();
            let sol = spans
                .time("core.solve_spec_us", || engine.solve_spec(&spec))
                .expect("table-filtered pool solves");
            let rendered =
                spans.time("core.report_us", || report::system_report(&spec.root.name, &sol));
            let us = t.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(rendered);
            let stats = engine.cache_stats();
            c.count("cache.hits", stats.hits as f64);
            c.count("cache.lookups", (stats.hits + stats.misses) as f64);
            c.max("cache.entries", stats.entries as f64);
            c.sample("core.blocks_per_op", spec.root.total_blocks() as f64);
            decompose(&Solved { spec, sol, all_hits: false }, &engine, &mut spans, &mut c);
            c.add_op(&spans, us);
        }
    }

    // Hardware probe: triad over arrays spanning four times the LLC.
    let llc_kb = sys::llc_kb();
    let array_kb = sys::stream_array_kb(llc_kb);
    let stream_gbs = sys::stream_triad_gbs(array_kb);

    let (probe_failing, probe_singular, probe_kinds) = {
        let specs = probe_specs(workload, args.seed, &inputs);
        let (f, s, k) = failure_probe(&specs);
        (f as f64 / specs.len().max(1) as f64, s, k)
    };
    probe_kinds.report(&format!("{} unfiltered failure probe", workload.name()));
    live.failures.report(&format!("{} live failures", workload.name()));
    failures.report(&format!("{} replay failures", workload.name()));

    let coverage = c.self_us_total / c.op_us_total;
    let traced_p50 = sys::median(&c.op_us);
    let untraced_p50 = sys::median(&untraced);
    let mut correct = live.failures.total() == 0 && failures.total() == 0;
    if !(COVERAGE_TOLERANCE.0..=COVERAGE_TOLERANCE.1).contains(&coverage) {
        correct = false;
        eprintln!(
            "perfbench: trace.coverage {coverage:.3} outside [{}, {}]: {:.1} us of {:.1} us per op unattributed",
            COVERAGE_TOLERANCE.0,
            COVERAGE_TOLERANCE.1,
            (c.op_us_total - c.self_us_total) / c.op_us.len() as f64,
            c.op_us_total / c.op_us.len() as f64,
        );
    }
    eprintln!(
        "perfbench: {} traced {} ops; core.engine.self_us (pool spawn, fingerprint, roll-up) p50 {:.1} us of core.solve_spec_us p50 {:.1} us",
        workload.name(),
        c.op_us.len(),
        c.median("core.engine.self_us"),
        c.median("core.solve_spec_us"),
    );

    let ops = c.op_us.len().max(1) as f64;
    let miss_blocks = c.counted("miss_blocks").max(1.0);
    let sampled_blocks = c.counted("sampled_blocks").max(1.0);
    let lookups = c.counted("cache.lookups").max(1.0);
    let attempts: f64 = ["sparse", "power", "lu", "gth"]
        .iter()
        .map(|r| c.counted(rung_metric("attempts", Some(r))))
        .sum();
    let wins: f64 = ["sparse", "power", "lu", "gth"]
        .iter()
        .map(|r| c.counted(rung_metric("wins", Some(r))))
        .sum();
    let transient_seconds = c.counted("transient.seconds");
    let mut metrics = vec![
        Metric::new("serve.transport_p50_ms", live.client_p50_ms - live.server_p50_ms, "ms"),
        Metric::new("serve.handler_p50_ms", live.server_p50_ms, "ms"),
        Metric::new("serve.connects_per_op", live.connects_per_op, "count"),
        Metric::new("serve.admission.shed", live.shed, "count"),
        Metric::new("serve.bytes_in_per_op", c.counted("bytes_in") / ops, "bytes"),
        Metric::new("serve.bytes_out_per_op", c.counted("bytes_out") / ops, "bytes"),
        Metric::new("core.blocks_per_op", c.median("core.blocks_per_op"), "count"),
        Metric::new("core.states_per_block_max", c.counted("states_per_block_max"), "count"),
        Metric::new("core.cache.hit_ratio", c.counted("cache.hits") / lookups, "ratio"),
        Metric::new("core.cache.entries", c.counted("cache.entries"), "count"),
        Metric::new(
            "core.ladder.win_ratio",
            if attempts > 0.0 { wins / attempts } else { 0.0 },
            "ratio",
        ),
        Metric::new(
            "markov.transient.terms",
            c.counted("transient.terms") / sampled_blocks,
            "count",
        ),
        Metric::new(
            "markov.transient.bytes",
            c.counted("transient.bytes") / sampled_blocks,
            "bytes",
        ),
        Metric::new(
            "markov.transient.gbs",
            if transient_seconds > 0.0 {
                c.counted("transient.bytes") / transient_seconds / 1e9
            } else {
                0.0
            },
            "GB/s",
        ),
        Metric::new(
            "markov.transient.ops_per_byte",
            c.counted("transient.flops") / c.counted("transient.bytes").max(1.0),
            "flop/byte",
        ),
        Metric::new("markov.transient.working_set_kb", c.counted("transient.working_set_kb"), "KB"),
        Metric::new("markov.mttf.singular", probe_singular as f64, "count"),
        Metric::new("markov.sparse.sweeps", c.counted("sparse.sweeps") / sampled_blocks, "count"),
        Metric::new("hw.stream_gbs", stream_gbs, "GB/s"),
        Metric::new("hw.llc_kb", llc_kb, "KB"),
        Metric::new("hw.stream_array_kb", array_kb, "KB"),
        Metric::new("trace.coverage", coverage, "ratio"),
        Metric::new("trace.overhead_pct", (traced_p50 - untraced_p50) / untraced_p50 * 100.0, "%"),
        Metric::new(
            "check.error_rate",
            (live.failures.total() + failures.total()) as f64
                / (live.attempted + untraced.len() as u64).max(1) as f64,
            "fraction",
        ),
        Metric::new("check.unfiltered_fail_share", probe_failing, "fraction"),
    ];
    for rung in ["sparse", "power", "lu", "gth"] {
        for what in ["attempts", "wins"] {
            let name = rung_metric(what, Some(rung));
            metrics.push(Metric::new(name, c.counted(name) / miss_blocks, "per_block"));
        }
    }
    for name in SELF_LAYERS.iter().chain(&["core.solve_spec_us", "core.mission_us"]) {
        metrics.push(Metric::new(name, c.median(name), "us"));
    }
    Ok(RunResult {
        correct,
        attempted: live.attempted + untraced.len() as u64,
        failed: live.failures.total() + failures.total(),
        metrics,
    })
}
