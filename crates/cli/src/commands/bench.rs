//! `bench` — deterministic benchmark suite with versioned
//! `BENCH_*.json` baselines and regression comparison.
//!
//! Runs the whole generate-and-solve pipeline as a fixed workload suite
//! (spec parse, MG generation for all five chain types, GTH and LU
//! stationary solves, transient and interval analysis, hierarchy
//! roll-up, parametric sweep, bounded simulation), captures per-stage
//! wall-clock plus the span/metric telemetry aggregated by
//! `rascad-obs`, and emits a machine-readable document that a later run
//! can be compared against (`--compare`). A comparison breaching the
//! failure threshold exits with code 6 so CI can gate on it.

use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rascad_bench::workloads::{self, BenchProfile};
use rascad_core::cache::compute_mission_measures;
use rascad_core::generator::generate_block;
use rascad_core::hierarchy::{interval_availability_exact, solve_spec};
use rascad_core::sweep::{lin_space, log_space, sweep, SweepPoint};
use rascad_core::{certify_steady, certify_transient, CoreError, Engine, SolutionCertificate};
use rascad_markov::transient::{self, TransientOptions};
use rascad_markov::{Ctmc, MarkovError, SteadyStateMethod};
use rascad_obs::json::{self, Value};
use rascad_obs::{Event, MetricsSummary, Sink, SpanTreeAgg};
use rascad_sim::system_sim::{simulate_system, SystemSimOptions};
use rascad_spec::units::Hours;
use rascad_spec::SystemSpec;

use super::CliError;

/// Version tag of the emitted document; bump on breaking layout
/// changes so stale baselines are rejected instead of mis-compared.
const SCHEMA: &str = "rascad-bench/v1";

/// Accuracy gate: `--compare` fails (exit 6) when a stage's certified
/// residual grew by at least this factor over the baseline.
const ACCURACY_FAIL_RATIO: f64 = 10.0;

/// Residual growth at or past this factor (but under
/// [`ACCURACY_FAIL_RATIO`]) is reported as a warning.
const ACCURACY_WARN_RATIO: f64 = 3.0;

/// Default `--residual-floor`: a current residual at or below it always
/// passes the accuracy gate, so near-machine-precision residuals (which
/// legitimately wobble across architectures and libm versions) cannot
/// flake a cross-machine comparison.
const DEFAULT_RESIDUAL_FLOOR: f64 = 1e-13;

/// Parsed `bench` options.
struct BenchArgs {
    profile: BenchProfile,
    workload: &'static Workload,
    label: String,
    out: Option<String>,
    json: bool,
    compare: Option<String>,
    warn_ratio: f64,
    fail_ratio: f64,
    floor_us: f64,
    residual_floor: f64,
}

/// One `rascad bench` workload. Adding a workload means adding one row
/// to [`WORKLOADS`] and the `run` fn it names.
struct Workload {
    /// Flag that selects the workload; `None` for the default suite.
    flag: Option<&'static str>,
    /// Default `--label`, so each workload writes its committed
    /// `BENCH_<label>.json` out of the box.
    label: &'static str,
    run: fn(&BenchProfile) -> Result<Run, CliError>,
    /// Top-level document key of the workload's own section, if any.
    section: Option<&'static str>,
    /// Section keys that must be finite numbers >= 0.
    numbers: &'static [&'static str],
    /// Section keys that must be `true`.
    booleans: &'static [&'static str],
    /// The machine-independent claims the workload exists to make;
    /// `--validate` gates them outright (timings never are).
    claims: &'static [Claim],
}

impl Workload {
    fn name(&self) -> &'static str {
        self.flag.unwrap_or("suite")
    }
}

/// A structural claim over a workload's `(section, stages)`, with the
/// message `--validate` prints when it fails.
struct Claim {
    holds: fn(&Value, &[Value]) -> bool,
    message: &'static str,
}

/// Every workload `rascad bench` can run; the suite row comes first
/// and is the default.
static WORKLOADS: [Workload; 4] = [
    Workload {
        flag: None,
        label: "local",
        run: run_stages,
        section: None,
        numbers: &[],
        booleans: &[],
        claims: &[],
    },
    Workload {
        flag: Some("--sweep"),
        label: "sweep",
        run: run_sweep_stages,
        section: Some("sweep_scaling"),
        numbers: &[
            "points",
            "blocks",
            "threads",
            "baseline_us",
            "engine_t1_us",
            "engine_tn_us",
            "speedup_vs_baseline",
            "thread_scaling",
            "cache_hits",
            "cache_misses",
            "cache_hit_rate",
        ],
        booleans: &["bit_identical"],
        claims: &[],
    },
    Workload {
        flag: Some("--large"),
        label: "large",
        run: run_large_stages,
        section: Some("large_scaling"),
        numbers: &[
            "chain_states",
            "chain_solve_us",
            "block_units",
            "block_states",
            "block_solve_us",
            "block_availability",
            "lump_proof_units",
            "lump_full_states",
            "lump_states",
            "lump_max_delta",
        ],
        booleans: &["bit_identical"],
        claims: &[
            Claim {
                holds: |s, _| num(s, "chain_states") >= 10_000.0,
                message: "large_scaling chain has fewer than 10000 states; the workload \
                          exists to demonstrate >= 10000",
            },
            Claim {
                holds: |s, _| (num(s, "block_states") - num(s, "block_units") - 1.0).abs() <= 0.5,
                message: "large_scaling block did not lump to units + 1 occupancy states",
            },
            Claim {
                holds: |s, _| {
                    (num(s, "lump_states") - num(s, "lump_proof_units") - 1.0).abs() <= 0.5
                },
                message: "large_scaling lump proof did not collapse to n + 1 states",
            },
            Claim {
                holds: |s, _| num(s, "lump_max_delta") <= 1e-9,
                message: "large_scaling lump proof deviates by more than 1e-9",
            },
            Claim {
                holds: |_, st| {
                    let cert = |key| stage_cert(st, "large_chain_solve", key);
                    cert("method").and_then(Value::as_str) == Some("gth")
                        && cert("verdict").and_then(Value::as_str) == Some("ok")
                        && cert("residual").and_then(Value::as_f64).is_some_and(|r| r < 1e-9)
                },
                message: "`large_chain_solve` was not certified ok on GTH at residual < 1e-9",
            },
        ],
    },
    Workload {
        flag: Some("--serve"),
        label: "serve",
        run: run_serve_stages,
        section: Some("serve_load"),
        numbers: &[
            "solves",
            "requests",
            "shed",
            "shed_rate",
            "p50_ms",
            "p90_ms",
            "p99_ms",
            "deadline_probe_ms",
            "availability",
        ],
        booleans: &["deadline_typed", "metrics_page_valid", "bit_identical", "drained_clean"],
        claims: &[
            Claim {
                holds: |s, _| num(s, "solves") >= 1000.0,
                message: "serve_load ran fewer than 1000 solves; the workload exists to \
                          demonstrate >= 1000",
            },
            Claim {
                holds: |s, _| num(s, "requests") >= num(s, "solves"),
                message: "serve_load answered fewer requests than solves",
            },
            Claim {
                holds: |s, _| {
                    num(s, "shed") >= 1.0 && num(s, "shed_rate") > 0.0 && num(s, "shed_rate") <= 1.0
                },
                message: "serve_load must shed under the saturating burst",
            },
            Claim {
                holds: |s, _| {
                    num(s, "p50_ms") <= num(s, "p90_ms") && num(s, "p90_ms") <= num(s, "p99_ms")
                },
                message: "serve_load latency percentiles are not monotone",
            },
            Claim {
                holds: |s, _| num(s, "availability") > 0.0 && num(s, "availability") <= 1.0,
                message: "serve_load availability is not in (0, 1]",
            },
            Claim {
                holds: |_, st| {
                    ["serve_solve", "serve_shed_burst", "serve_deadline_probe"].iter().all(|name| {
                        st.iter().any(|s| s.get("name").and_then(Value::as_str) == Some(name))
                    })
                },
                message: "serve_load document lacks a serve_solve, serve_shed_burst or \
                          serve_deadline_probe stage",
            },
        ],
    },
];

/// A section's numeric `key`, NaN when absent.
fn num(section: &Value, key: &str) -> f64 {
    section.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// Field `key` of the certificate on the stage named `stage`.
fn stage_cert<'a>(stages: &'a [Value], stage: &str, key: &str) -> Option<&'a Value> {
    stages
        .iter()
        .find(|s| s.get("name").and_then(Value::as_str) == Some(stage))?
        .get("certificate")?
        .get(key)
}

/// Runs `bench [--quick|--full] [--sweep|--large|--serve] [--label L]
/// [--out F] [--json] [--compare BASE] [--warn-ratio R] [--fail-ratio R]
/// [--floor-us US] [--residual-floor R]` or `bench --validate <file>`.
pub fn bench(args: &[&str]) -> Result<String, CliError> {
    if let Some(i) = args.iter().position(|a| *a == "--validate") {
        if args.len() != 2 || i != 0 {
            return Err(CliError::usage("usage: rascad bench --validate <bench.json>"));
        }
        return validate_file(args[1]);
    }
    run_suite(&parse_args(args)?)
}

fn parse_args(args: &[&str]) -> Result<BenchArgs, CliError> {
    let mut parsed = BenchArgs {
        profile: BenchProfile::quick(),
        workload: &WORKLOADS[0],
        label: String::new(),
        out: None,
        json: false,
        compare: None,
        warn_ratio: 1.25,
        fail_ratio: 2.0,
        floor_us: 50.0,
        residual_floor: DEFAULT_RESIDUAL_FLOOR,
    };
    let mut it = args.iter().copied();
    while let Some(arg) = it.next() {
        match arg {
            "--quick" => parsed.profile = BenchProfile::quick(),
            "--full" => parsed.profile = BenchProfile::full(),
            "--json" => parsed.json = true,
            "--label" => parsed.label = flag_value(&mut it, "--label")?.to_string(),
            "--out" => parsed.out = Some(flag_value(&mut it, "--out")?.to_string()),
            "--compare" => parsed.compare = Some(flag_value(&mut it, "--compare")?.to_string()),
            "--warn-ratio" => parsed.warn_ratio = flag_num(&mut it, "--warn-ratio")?,
            "--fail-ratio" => parsed.fail_ratio = flag_num(&mut it, "--fail-ratio")?,
            "--floor-us" => parsed.floor_us = flag_num(&mut it, "--floor-us")?,
            "--residual-floor" => parsed.residual_floor = flag_num(&mut it, "--residual-floor")?,
            other => {
                let Some(workload) = WORKLOADS.iter().find(|w| w.flag == Some(other)) else {
                    return Err(CliError::usage(format!("unknown bench option `{other}`")));
                };
                if parsed.workload.flag.is_some_and(|f| f != other) {
                    return Err(CliError::usage(format!(
                        "{} and {other} are separate workloads; pick one",
                        parsed.workload.name()
                    )));
                }
                parsed.workload = workload;
            }
        }
    }
    if parsed.label.is_empty() {
        parsed.label = parsed.workload.label.to_string();
    }
    if !parsed.label.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_') {
        return Err(CliError::usage(format!(
            "bench label `{}` must be non-empty [A-Za-z0-9_-]",
            parsed.label
        )));
    }
    let ratios_ok = parsed.warn_ratio >= 1.0 && parsed.fail_ratio >= parsed.warn_ratio;
    if !ratios_ok {
        return Err(CliError::usage(format!(
            "need 1 <= warn-ratio <= fail-ratio, got {} and {}",
            parsed.warn_ratio, parsed.fail_ratio
        )));
    }
    if parsed.floor_us.is_nan() || parsed.floor_us < 0.0 {
        return Err(CliError::usage(format!("floor-us {} must be >= 0", parsed.floor_us)));
    }
    if parsed.residual_floor.is_nan() || parsed.residual_floor < 0.0 {
        return Err(CliError::usage(format!(
            "residual-floor {} must be >= 0",
            parsed.residual_floor
        )));
    }
    Ok(parsed)
}

fn flag_value<'a>(it: &mut impl Iterator<Item = &'a str>, flag: &str) -> Result<&'a str, CliError> {
    it.next().ok_or_else(|| CliError::usage(format!("{flag} needs an argument")))
}

fn flag_num<'a>(it: &mut impl Iterator<Item = &'a str>, flag: &str) -> Result<f64, CliError> {
    let s = flag_value(it, flag)?;
    s.parse().map_err(|_| CliError::usage(format!("bad {flag} value: `{s}`")))
}

// ---------------------------------------------------------------------------
// Suite execution
// ---------------------------------------------------------------------------

/// Wall-clock summary of one benchmark stage.
struct StageResult {
    name: &'static str,
    runs: usize,
    min_us: f64,
    mean_us: f64,
    max_us: f64,
    /// The worst certificate (highest verdict, then highest residual)
    /// among the stage's solves — what the baseline pins and the
    /// accuracy gate compares. Timing-only stages carry `None`.
    cert: Option<SolutionCertificate>,
}

impl StageResult {
    /// A stage summarized from its sorted millisecond samples.
    #[allow(clippy::cast_precision_loss)] // sample counts stay far below 2^52
    fn from_sorted_ms(name: &'static str, sorted_ms: &[f64]) -> StageResult {
        let sum_ms: f64 = sorted_ms.iter().sum();
        StageResult {
            name,
            runs: sorted_ms.len(),
            min_us: sorted_ms.first().copied().unwrap_or(f64::NAN) * 1e3,
            mean_us: sum_ms / sorted_ms.len().max(1) as f64 * 1e3,
            max_us: sorted_ms.last().copied().unwrap_or(f64::NAN) * 1e3,
            cert: None,
        }
    }
}

/// Reduces a stage's certificates to the worst one. `Verdict` orders
/// ok < warn < fail and `total_cmp` ranks NaN above every number, so a
/// poisoned residual can never hide behind a clean sibling.
fn worst_certificate(
    certs: impl IntoIterator<Item = SolutionCertificate>,
) -> Option<SolutionCertificate> {
    certs
        .into_iter()
        .max_by(|a, b| a.verdict.cmp(&b.verdict).then(a.residual_inf.total_cmp(&b.residual_inf)))
}

/// Numerical spot checks recorded alongside the timings so a baseline
/// also pins the *answers*, not just the speed.
struct Checks {
    availability: f64,
    yearly_downtime_minutes: f64,
    /// Only the suite runs the simulator; the other workloads' documents
    /// omit the key rather than recording a null.
    sim_availability: Option<f64>,
}

impl Checks {
    fn from_availability(availability: f64) -> Checks {
        Checks {
            availability,
            yearly_downtime_minutes: (1.0 - availability) * Hours::PER_YEAR * 60.0,
            sim_availability: None,
        }
    }
}

/// What one workload run produced.
struct Run {
    stages: Vec<StageResult>,
    checks: Checks,
    /// Body of the workload's [`Workload::section`].
    section: Option<Value>,
}

/// Builds a JSON object from `(key, value)` pairs, in order.
fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Forwards span events into a [`SpanTreeAgg`] and keeps the final
/// drain-time metrics summary.
struct BenchCapture {
    tree: Arc<Mutex<SpanTreeAgg>>,
    metrics: Arc<Mutex<Option<MetricsSummary>>>,
}

impl Sink for BenchCapture {
    fn event(&mut self, event: &Event) {
        if let Event::Metrics { counters, gauges, values } = event {
            if let Ok(mut slot) = self.metrics.lock() {
                *slot = Some(MetricsSummary {
                    counters: counters.clone(),
                    gauges: gauges.clone(),
                    values: values.clone(),
                });
            }
        } else if let Ok(mut tree) = self.tree.lock() {
            tree.observe(event);
        }
    }
}

/// Disables tracing again if `bench` was the one to enable it, even on
/// an early error return.
struct CaptureGuard {
    active: bool,
}

impl Drop for CaptureGuard {
    fn drop(&mut self) {
        if self.active {
            rascad_obs::uninstall();
        }
    }
}

/// Times `iterations` runs of `work` after one untimed warm-up run;
/// each run's result passes through [`black_box`].
fn time_stage<T>(
    name: &'static str,
    iterations: usize,
    mut work: impl FnMut() -> Result<T, CliError>,
) -> Result<StageResult, CliError> {
    black_box(work()?);
    let mut samples_ms = Vec::with_capacity(iterations.max(1));
    for _ in 0..iterations.max(1) {
        let t = Instant::now();
        black_box(work()?);
        samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    samples_ms.sort_by(f64::total_cmp);
    Ok(StageResult::from_sorted_ms(name, &samples_ms))
}

/// Times steady-state solves of every chain with `method`, certified
/// (under the method name `label`) by one more untimed solve of each.
fn steady_stage(
    name: &'static str,
    iterations: usize,
    chains: &[Ctmc],
    method: SteadyStateMethod,
    label: &'static str,
) -> Result<StageResult, CliError> {
    let mut stage = time_stage(name, iterations, || {
        for chain in chains {
            black_box(chain.steady_state(method).map_err(markov_err(label))?);
        }
        Ok(())
    })?;
    let mut certs = Vec::with_capacity(chains.len());
    for chain in chains {
        let pi = chain.steady_state(method).map_err(markov_err(label))?;
        certs.push(certify_steady(chain, &pi, label, Vec::new()));
    }
    stage.cert = worst_certificate(certs);
    Ok(stage)
}

fn markov_err(stage: &'static str) -> impl Fn(MarkovError) -> CliError {
    move |source| CliError::Solver(CoreError::Markov { block: stage.to_string(), source })
}

fn run_stages(profile: &BenchProfile) -> Result<Run, CliError> {
    let globals = rascad_bench::globals();
    let blocks = workloads::chain_type_blocks();
    let hierarchy = workloads::hierarchy_spec();
    let sweep_base = workloads::sweep_spec();
    let reps = profile.iterations;

    let mut stages = Vec::new();

    stages.push(time_stage("parse_dsl", reps, || {
        for _ in 0..16 {
            black_box(SystemSpec::from_dsl(workloads::HIERARCHY_DSL).map_err(CliError::Spec)?);
        }
        Ok(())
    })?);

    for (ty, params) in &blocks {
        let name = GENERATE_STAGES[usize::from(*ty).min(4)];
        stages.push(time_stage(name, reps, || {
            for _ in 0..8 {
                black_box(generate_block(params, &globals)?);
            }
            Ok(())
        })?);
    }

    let chains: Vec<Ctmc> = blocks
        .iter()
        .map(|(_, p)| generate_block(p, &globals).map(|m| m.chain))
        .collect::<Result<_, _>>()?;

    stages.push(steady_stage("solve_gth", reps, &chains, SteadyStateMethod::Gth, "gth")?);
    stages.push(steady_stage("solve_lu", reps, &chains, SteadyStateMethod::Lu, "lu")?);

    // Type 3 is the paper's diagrammed template; start in the
    // everything-working state.
    let transient_chain = &chains[3];
    let mut p0 = vec![0.0; transient_chain.len()];
    p0[0] = 1.0;
    let solve_transient = || {
        transient::solve(transient_chain, &p0, profile.transient_hours, TransientOptions::default())
            .map_err(markov_err("transient"))
    };
    let mut stage = time_stage("transient", reps, solve_transient)?;
    stage.cert = worst_certificate([certify_transient(&solve_transient()?)]);
    stages.push(stage);

    stages.push(time_stage("interval_exact", reps, || {
        let (horizon, points) = (profile.interval_horizon_hours, profile.interval_grid_points);
        Ok(interval_availability_exact(&hierarchy, horizon, points)?)
    })?);

    let mut availability = f64::NAN;
    let mut yearly_downtime_minutes = f64::NAN;
    let mut hier_certs: Vec<SolutionCertificate> = Vec::new();
    let mut stage = time_stage("hierarchy", reps, || {
        let solution = solve_spec(&hierarchy)?;
        availability = solution.system.availability;
        yearly_downtime_minutes = solution.system.yearly_downtime_minutes;
        hier_certs = solution.blocks.iter().map(|b| b.certificate.clone()).collect();
        black_box(solution);
        Ok(())
    })?;
    stage.cert = worst_certificate(hier_certs);
    stages.push(stage);

    let sweep_values = log_space(1.0, 8.0, profile.sweep_points)?;
    let sweep_apply = |spec: &mut SystemSpec, v: f64| {
        if let Some(block) = spec.root.find_mut(workloads::SWEEP_BLOCK) {
            block.params.service_response = Hours(v);
        }
    };
    let run_sweep = || Ok(sweep(&sweep_base, &sweep_values, sweep_apply)?);
    let mut stage = time_stage("sweep", reps, run_sweep)?;
    stage.cert = sweep_cert(&run_sweep()?);
    stages.push(stage);

    let mut sim_availability = f64::NAN;
    stages.push(time_stage("simulate", reps, || {
        let result = simulate_system(
            &hierarchy,
            &SystemSimOptions {
                horizon_hours: profile.sim_horizon_hours,
                replications: profile.sim_replications,
                seed: 0xbead,
                deterministic_repairs: false,
            },
        )?;
        sim_availability = result.availability.mean;
        black_box(result);
        Ok(())
    })?);

    let checks =
        Checks { availability, yearly_downtime_minutes, sim_availability: Some(sim_availability) };
    Ok(Run { stages, checks, section: None })
}

/// The worst block certificate across a sweep's points.
fn sweep_cert(points: &[SweepPoint]) -> Option<SolutionCertificate> {
    worst_certificate(
        points.iter().flat_map(|p| p.solution.blocks.iter().map(|b| b.certificate.clone())),
    )
}

const GENERATE_STAGES: [&str; 5] =
    ["generate_type0", "generate_type1", "generate_type2", "generate_type3", "generate_type4"];

// ---------------------------------------------------------------------------
// Sweep-scaling workload (`--sweep`)
// ---------------------------------------------------------------------------

/// Contender thread count for the sweep-scaling workload.
const SWEEP_THREADS: usize = 4;

/// Times the sweep-scaling workload: the pre-engine behavior
/// (sequential, cache-free) against the solve engine at one and
/// [`SWEEP_THREADS`] workers, plus the cache statistics of one
/// instrumented run and a bit-identity verdict against the reference.
/// Every timed run builds a fresh engine so its cache starts cold; the
/// hits measured are the ones a single sweep earns for itself by
/// reusing unchanged blocks across points.
fn run_sweep_stages(profile: &BenchProfile) -> Result<Run, CliError> {
    let base = workloads::sweep_scaling_spec();
    let blocks = base.root.blocks.len();
    let points = workloads::SWEEP_SCALING_POINTS;
    let values = lin_space(0.5, 48.0, points)?;
    let apply = |spec: &mut SystemSpec, v: f64| {
        if let Some(block) = spec.root.find_mut(workloads::SWEEP_SCALING_BLOCK) {
            block.params.service_response = Hours(v);
        }
    };
    let reps = profile.iterations;

    let time_engine = |name, engine: &dyn Fn() -> Engine| {
        time_stage(name, reps, || Ok(engine().sweep(&base, &values, apply)?))
    };
    let mut stages = vec![
        time_engine("sweep_baseline_seq", &Engine::sequential)?,
        time_engine("sweep_engine_t1", &|| Engine::with_threads(1))?,
        time_engine("sweep_engine_tn", &|| Engine::with_threads(SWEEP_THREADS))?,
    ];

    // One instrumented run for the cache statistics and the
    // bit-identity check against the sequential reference.
    let reference = Engine::sequential().sweep(&base, &values, apply)?;
    // All three stages time the same workload, so they share the
    // reference run's worst block certificate.
    let cert = sweep_cert(&reference);
    for stage in &mut stages {
        stage.cert = cert.clone();
    }
    let engine = Engine::with_threads(SWEEP_THREADS);
    let contender = engine.sweep(&base, &values, apply)?;
    let stats = engine.cache_stats();
    let bit_identical = reference.len() == contender.len()
        && reference.iter().zip(&contender).all(|(r, c)| {
            r.value.to_bits() == c.value.to_bits()
                && r.solution.system.availability.to_bits()
                    == c.solution.system.availability.to_bits()
                && r.solution.system.yearly_downtime_minutes.to_bits()
                    == c.solution.system.yearly_downtime_minutes.to_bits()
                && r.solution == c.solution
        });

    let (baseline_us, engine_t1_us, engine_tn_us) =
        (stages[0].min_us, stages[1].min_us, stages[2].min_us);
    let section = obj([
        ("points", Value::from(points)),
        ("blocks", Value::from(blocks)),
        ("threads", Value::from(SWEEP_THREADS)),
        ("baseline_us", Value::Num(baseline_us)),
        ("engine_t1_us", Value::Num(engine_t1_us)),
        ("engine_tn_us", Value::Num(engine_tn_us)),
        // What the engine buys end to end.
        ("speedup_vs_baseline", Value::Num(baseline_us / engine_tn_us.max(1e-9))),
        // Thread scaling alone, which stays near 1.0 on single-core
        // machines where the gain is all cache.
        ("thread_scaling", Value::Num(engine_t1_us / engine_tn_us.max(1e-9))),
        ("cache_hits", Value::from(stats.hits)),
        ("cache_misses", Value::from(stats.misses)),
        ("cache_hit_rate", Value::Num(stats.hit_rate())),
        ("bit_identical", Value::from(bit_identical)),
    ]);
    let first = &reference[0].solution.system;
    let checks = Checks {
        availability: first.availability,
        yearly_downtime_minutes: first.yearly_downtime_minutes,
        sim_availability: None,
    };
    Ok(Run { stages, checks, section: Some(section) })
}

// ---------------------------------------------------------------------------
// Large-state-space workload (`--large`)
// ---------------------------------------------------------------------------

/// Times the large-state-space workload: band GTH on a
/// 10^4–10^5-state birth–death chain, the generator's occupancy
/// expansion of a thousand-unit k-out-of-n block, a brute-force
/// proof that exact lumping preserves the stationary vector on a
/// `2^8`-state product space, and the mission step (interval
/// availability, reliability and MTTF) of an 800-unit pool.
fn run_large_stages(profile: &BenchProfile) -> Result<Run, CliError> {
    use rascad_markov::{identical_units_product, lump, occupancy_partition};

    let reps = profile.iterations;
    let mut stages = Vec::new();

    // The headline chain: a birth–death chain of at least 10^4 states,
    // which GTH eliminates in its band in linear time.
    let chain = workloads::large_birth_death(profile.large_chain_states);
    let gth = SteadyStateMethod::Gth;
    stages.push(steady_stage("large_chain_solve", reps, std::slice::from_ref(&chain), gth, "gth")?);

    // Repeated solves of the same chain agree bit for bit (the pivot
    // order is fixed, so they must).
    let first = chain.steady_state(gth).map_err(markov_err("large_chain_solve"))?;
    let second = chain.steady_state(gth).map_err(markov_err("large_chain_solve"))?;
    let bit_identical = first.iter().map(|x| x.to_bits()).eq(second.iter().map(|x| x.to_bits()));

    // The generator's birth–death template: a thousand-unit block is
    // 2^1000 product states on paper, N + 1 occupancy states in the
    // emitted chain.
    let globals = rascad_bench::globals();
    let params = workloads::large_block();
    stages
        .push(time_stage("large_block_generate", reps, || Ok(generate_block(&params, &globals)?))?);
    let model = generate_block(&params, &globals)?;
    let block = std::slice::from_ref(&model.chain);
    stages.push(steady_stage("large_block_solve", reps, block, gth, "gth")?);
    let pi = model.chain.steady_state(gth).map_err(markov_err("large_block_solve"))?;
    let block_availability: f64 =
        model.chain.states().iter().zip(&pi).map(|(s, p)| s.reward * p).sum();

    // Brute-force lump proof: the full 2^8 product space against its
    // 9-state occupancy lump.
    let (lam, mu) = (1.0 / 20_000.0, 1.0 / 5.0);
    let units = workloads::LUMP_PROOF_UNITS;
    let full = identical_units_product(units, workloads::LUMP_PROOF_MIN, lam, mu)
        .map_err(markov_err("lump_proof"))?;
    let partition = occupancy_partition(units).map_err(markov_err("lump_proof"))?;
    stages.push(time_stage("lump_proof", reps, || {
        let small = lump(&full, &partition).map_err(markov_err("lump_proof"))?;
        small.steady_state(SteadyStateMethod::Gth).map_err(markov_err("lump_proof"))
    })?);
    let small = lump(&full, &partition).map_err(markov_err("lump_proof"))?;
    // The mission step of a pool: the uniformization series over its
    // 801 states, twice (availability and absorbing chain).
    let pool = generate_block(&workloads::mission_pool(), &globals)?;
    stages.push(time_stage("large_pool_mission", reps, || {
        Ok(compute_mission_measures(&pool, workloads::MISSION_POOL_HOURS, None)?)
    })?);
    let pi_full = full.steady_state(SteadyStateMethod::Gth).map_err(markov_err("lump_proof"))?;
    let pi_small = small.steady_state(SteadyStateMethod::Gth).map_err(markov_err("lump_proof"))?;
    let lump_max_delta = partition
        .aggregate(&pi_full)
        .iter()
        .zip(&pi_small)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);

    let section = obj([
        ("chain_states", Value::from(chain.len())),
        ("chain_solve_us", Value::Num(stages[0].min_us)),
        ("bit_identical", Value::from(bit_identical)),
        ("block_units", Value::from(workloads::LARGE_BLOCK_UNITS)),
        ("block_states", Value::from(model.chain.len())),
        ("block_solve_us", Value::Num(stages[2].min_us)),
        ("block_availability", Value::Num(block_availability)),
        ("lump_proof_units", Value::from(units)),
        ("lump_full_states", Value::from(full.len())),
        ("lump_states", Value::from(small.len())),
        // Worst classwise difference between the aggregated
        // product-space stationary vector and the lumped chain's.
        ("lump_max_delta", Value::Num(lump_max_delta)),
    ]);
    Ok(Run {
        stages,
        checks: Checks::from_availability(block_availability),
        section: Some(section),
    })
}

// ---------------------------------------------------------------------------
// Service load workload (`--serve`)
// ---------------------------------------------------------------------------

/// One blocking HTTP exchange against the in-process daemon.
fn serve_request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), CliError> {
    use std::io::{Read as _, Write as _};
    let err = |e: std::io::Error| CliError::Serve(format!("bench client: {e}"));
    let mut stream = std::net::TcpStream::connect(addr).map_err(err)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(60))).map_err(err)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(err)?;
    stream.write_all(body.as_bytes()).map_err(err)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(err)?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| CliError::Serve("bench client: truncated response".to_string()))?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| CliError::Serve(format!("bench client: bad status line `{head}`")))?;
    Ok((status, body.to_string()))
}

/// A request-ready spec of `(name, quantity, mtbf hours)` blocks, each
/// needing one working unit.
fn serve_spec(diagram: &str, blocks: &[(&str, u32, f64)]) -> String {
    use rascad_spec::{BlockParams, Diagram, GlobalParams};
    let mut root = Diagram::new(diagram);
    for &(name, quantity, mtbf) in blocks {
        root.push(BlockParams::new(name, quantity, 1).with_mtbf(Hours(mtbf)));
    }
    // JSON-string-escaped for embedding in a request body.
    let dsl = SystemSpec::new(root, GlobalParams::default()).to_dsl();
    dsl.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Latency percentile over a sorted sample, nearest-rank.
fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    #[allow(clippy::cast_sign_loss)]
    let idx = ((p / 100.0) * sorted.len().saturating_sub(1) as f64).round() as usize;
    sorted.get(idx).copied().unwrap_or(f64::NAN)
}

/// Times the service load workload: an in-process daemon driven over
/// real sockets — a >= 1000-solve throughput phase with a latency
/// histogram, a capacity-saturating burst that must shed, a 50 ms
/// deadline probe on a 10^5-state chain that must abort typed, and a
/// graceful drain.
#[allow(clippy::cast_precision_loss)] // request counts stay far below 2^52
#[allow(clippy::too_many_lines)]
fn run_serve_stages(profile: &BenchProfile) -> Result<Run, CliError> {
    use rascad_serve::{AdmissionConfig, ServeConfig, Server};

    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        admission: AdmissionConfig { max_inflight: 8, max_per_tenant: 4, retry_after_secs: 1 },
        ..ServeConfig::default()
    })
    .map_err(|e| CliError::Serve(format!("bench cannot bind: {e}")))?;
    let addr = server
        .local_addr()
        .map_err(|e| CliError::Serve(format!("bench cannot read bound address: {e}")))?;
    let handle = server.shutdown_handle();
    let runner = std::thread::spawn(move || server.run());

    // Small, so the warm cross-request solve cache is what the
    // throughput phase measures.
    let small = serve_spec("BenchServe", &[("A", 2, 10_000.0), ("B", 1, 50_000.0)]);
    // A redundant 100 000-unit block expands birth–death style to a
    // ~10^5-state chain. Its steady state takes milliseconds, but its
    // mission step (an 8,760 h uniformization series) runs far beyond
    // the deadline probe's 50 ms budget.
    let big = serve_spec("BenchServeBig", &[("A", 100_000, 10_000.0)]);
    let mut stages = Vec::new();

    // Throughput phase: four tenants, each storing the spec once and
    // then solving it by name until the pooled target is reached. All
    // requests go over real sockets, one connection per request.
    const CLIENTS: usize = 4;
    let target_solves = 500 * profile.iterations.max(2);
    let per_client = target_solves.div_ceil(CLIENTS);
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(per_client * CLIENTS);
    std::thread::scope(|scope| -> Result<(), CliError> {
        let mut workers = Vec::new();
        for client in 0..CLIENTS {
            let small = &small;
            workers.push(scope.spawn(move || -> Result<Vec<f64>, CliError> {
                let tenant = format!("bench-{client}");
                let put = format!(r#"{{"tenant":"{tenant}","name":"wl","spec":"{small}"}}"#);
                let (status, body) = serve_request(addr, "POST", "/v1/specs", &put)?;
                if status != 201 {
                    return Err(CliError::Serve(format!("spec store answered {status}: {body}")));
                }
                let solve = format!(r#"{{"tenant":"{tenant}","spec_name":"wl"}}"#);
                let mut lat = Vec::with_capacity(per_client);
                for _ in 0..per_client {
                    let t = Instant::now();
                    let (status, body) = serve_request(addr, "POST", "/v1/solve", &solve)?;
                    if status != 200 {
                        return Err(CliError::Serve(format!("solve answered {status}: {body}")));
                    }
                    lat.push(t.elapsed().as_secs_f64() * 1e3);
                }
                Ok(lat)
            }));
        }
        for w in workers {
            let panicked = |_| CliError::Serve("bench client thread panicked".to_string());
            latencies_ms.extend(w.join().map_err(panicked)??);
        }
        Ok(())
    })?;
    latencies_ms.sort_by(f64::total_cmp);
    stages.push(StageResult::from_sorted_ms("serve_solve", &latencies_ms));

    // Availability spot check + response bit-identity, on the warm cache.
    let solve_body = r#"{"tenant":"bench-0","spec_name":"wl"}"#.to_string();
    let (s1, b1) = serve_request(addr, "POST", "/v1/solve", &solve_body)?;
    let (s2, b2) = serve_request(addr, "POST", "/v1/solve", &solve_body)?;
    let bit_identical = s1 == 200 && s2 == 200 && b1 == b2;
    let availability = json::parse(&b1)
        .ok()
        .and_then(|v| v.get("system")?.get("availability")?.as_f64())
        .unwrap_or(f64::NAN);

    // Burst phase: fill the whole admission capacity with deadline-
    // bounded big-chain solves (their mission steps hold the slots for
    // ~1.5 s), then
    // hammer the gate — every burst attempt while saturated must shed.
    let mut shed = 0u64;
    let mut burst_latencies: Vec<f64> = Vec::new();
    std::thread::scope(|scope| -> Result<(), CliError> {
        let mut holders = Vec::new();
        for h in 0..8 {
            let big = &big;
            holders.push(scope.spawn(move || {
                let tenant = format!("holder-{}", h % 2);
                let body = format!(r#"{{"tenant":"{tenant}","spec":"{big}","deadline_ms":1500}}"#);
                serve_request(addr, "POST", "/v1/solve", &body)
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(400));
        let probe = format!(r#"{{"tenant":"burst","spec":"{small}"}}"#);
        for _ in 0..40 {
            let t = Instant::now();
            let (status, _body) = serve_request(addr, "POST", "/v1/solve", &probe)?;
            burst_latencies.push(t.elapsed().as_secs_f64() * 1e3);
            if status == 429 {
                shed += 1;
            }
        }
        for h in holders {
            // Holders end typed (504 deadline after ~1.5 s, or 200 if
            // this machine somehow solved 10^5 states in time).
            let _ = h
                .join()
                .map_err(|_| CliError::Serve("bench holder thread panicked".to_string()))??;
        }
        Ok(())
    })?;
    let shed_rate = shed as f64 / burst_latencies.len().max(1) as f64;
    burst_latencies.sort_by(f64::total_cmp);
    stages.push(StageResult::from_sorted_ms("serve_shed_burst", &burst_latencies));

    // Deadline probe: the big chain under a 50 ms budget must abort
    // with the typed deadline family, promptly.
    let probe_body = format!(r#"{{"spec":"{big}","deadline_ms":50}}"#);
    let t = Instant::now();
    let (probe_status, probe_text) = serve_request(addr, "POST", "/v1/solve", &probe_body)?;
    let deadline_probe_ms = t.elapsed().as_secs_f64() * 1e3;
    let deadline_typed = probe_status == 504
        && json::parse(&probe_text)
            .ok()
            .and_then(|v| Some(v.get("error")?.get("kind")?.as_str()? == "deadline"))
            .unwrap_or(false);
    stages.push(StageResult::from_sorted_ms("serve_deadline_probe", &[deadline_probe_ms]));

    // Scrape phase: the exposition page must validate.
    let mut metrics_page_valid = false;
    stages.push(time_stage("serve_metrics_scrape", profile.iterations, || {
        let (status, page) = serve_request(addr, "GET", "/metrics", "")?;
        metrics_page_valid = status == 200 && rascad_obs::prometheus::validate(&page).is_ok();
        Ok(())
    })?);

    // Graceful drain: stop the daemon and collect its run summary.
    handle.shutdown();
    let summary =
        runner.join().map_err(|_| CliError::Serve("server thread panicked".to_string()))?;

    let section = obj([
        // Successful (200) solves in the throughput phase.
        ("solves", Value::from(latencies_ms.len())),
        // Every request the server answered across all phases.
        ("requests", Value::from(summary.requests)),
        ("shed", Value::from(shed)),
        ("shed_rate", Value::Num(shed_rate)),
        ("p50_ms", Value::Num(percentile_ms(&latencies_ms, 50.0))),
        ("p90_ms", Value::Num(percentile_ms(&latencies_ms, 90.0))),
        ("p99_ms", Value::Num(percentile_ms(&latencies_ms, 99.0))),
        ("deadline_probe_ms", Value::Num(deadline_probe_ms)),
        ("deadline_typed", Value::from(deadline_typed)),
        ("metrics_page_valid", Value::from(metrics_page_valid)),
        ("bit_identical", Value::from(bit_identical)),
        ("drained_clean", Value::from(summary.drained_clean)),
        ("availability", Value::Num(availability)),
    ]);
    Ok(Run { stages, checks: Checks::from_availability(availability), section: Some(section) })
}

fn run_suite(args: &BenchArgs) -> Result<String, CliError> {
    let baseline = args.compare.as_deref().map(|p| load_baseline(p, args.workload)).transpose()?;

    // Capture telemetry through the obs layer unless the user already
    // routed it elsewhere with --trace/--timings (then the document's
    // spans/counters/values sections stay empty).
    let tree = Arc::new(Mutex::new(SpanTreeAgg::new()));
    let metrics: Arc<Mutex<Option<MetricsSummary>>> = Arc::new(Mutex::new(None));
    let own_subscriber = !rascad_obs::enabled();
    if own_subscriber {
        rascad_obs::install(vec![Box::new(BenchCapture {
            tree: Arc::clone(&tree),
            metrics: Arc::clone(&metrics),
        })]);
    }
    let guard = CaptureGuard { active: own_subscriber };

    let run = (args.workload.run)(&args.profile)?;

    if own_subscriber {
        rascad_obs::drain();
    }
    drop(guard);

    let mut doc = document(args, &run, &tree, &metrics);

    let mut compare_report = None;
    if let (Some(base_path), Some(baseline)) = (&args.compare, &baseline) {
        let outcome = compare_docs(&doc, baseline, args);
        let report = render_compare(&outcome, base_path, args);
        if let Value::Obj(fields) = &mut doc {
            fields.push(("compare".to_string(), compare_json(&outcome, base_path, args)));
        }
        if outcome.fails > 0 {
            return Err(CliError::Regression(report));
        }
        compare_report = Some(report);
    }

    let out_path = match (&args.out, args.json) {
        (Some(path), _) => Some(path.clone()),
        (None, false) => Some(format!("BENCH_{}.json", args.label)),
        (None, true) => None,
    };
    if let Some(path) = &out_path {
        std::fs::write(path, doc.to_string_pretty())
            .map_err(|source| CliError::Io { path: path.clone(), source })?;
    }

    if args.json {
        let mut out = doc.to_string_pretty();
        out.push('\n');
        return Ok(out);
    }
    Ok(render_human(args, &run, compare_report.as_deref(), out_path.as_deref()))
}

/// Reads and validates a `--compare` baseline, which must come from the
/// same workload as the run it is compared with.
fn load_baseline(path: &str, workload: &Workload) -> Result<Value, CliError> {
    let (baseline, _) = read_document(path)?;
    let base_workload = workload_of(&baseline).map_err(CliError::usage)?;
    if base_workload.flag != workload.flag {
        return Err(CliError::usage(format!(
            "baseline `{path}` comes from the {} workload, but this run is the {} workload",
            base_workload.name(),
            workload.name()
        )));
    }
    Ok(baseline)
}

// ---------------------------------------------------------------------------
// Document
// ---------------------------------------------------------------------------

fn document(
    args: &BenchArgs,
    run: &Run,
    tree: &Arc<Mutex<SpanTreeAgg>>,
    metrics: &Arc<Mutex<Option<MetricsSummary>>>,
) -> Value {
    let created_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let threads = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let env = Value::Obj(vec![
        ("os".to_string(), Value::from(std::env::consts::OS)),
        ("arch".to_string(), Value::from(std::env::consts::ARCH)),
        ("family".to_string(), Value::from(std::env::consts::FAMILY)),
        ("threads".to_string(), Value::from(threads)),
        ("debug_assertions".to_string(), Value::from(cfg!(debug_assertions))),
        ("pkg_version".to_string(), Value::from(env!("CARGO_PKG_VERSION"))),
    ]);
    let stages_json = Value::Arr(
        run.stages
            .iter()
            .map(|s| {
                let mut fields = vec![
                    ("name".to_string(), Value::from(s.name)),
                    ("runs".to_string(), Value::from(s.runs)),
                    ("min_us".to_string(), Value::Num(s.min_us)),
                    ("mean_us".to_string(), Value::Num(s.mean_us)),
                    ("max_us".to_string(), Value::Num(s.max_us)),
                ];
                if let Some(c) = &s.cert {
                    // Non-finite residuals serialize as null (JSON has
                    // no NaN); the fail verdict still records why.
                    fields.push((
                        "certificate".to_string(),
                        Value::Obj(vec![
                            ("method".to_string(), Value::from(c.method.as_str())),
                            ("verdict".to_string(), Value::from(c.verdict.as_str())),
                            ("residual".to_string(), Value::Num(c.residual_inf)),
                            ("prob_mass_error".to_string(), Value::Num(c.prob_mass_error)),
                        ]),
                    ));
                }
                Value::Obj(fields)
            })
            .collect(),
    );
    let spans = tree.lock().map_or(Value::Arr(Vec::new()), |t| t.to_json());
    let (counters, gauges, values) =
        metrics.lock().ok().and_then(|mut slot| slot.take()).map_or_else(
            || (Value::Obj(Vec::new()), Value::Obj(Vec::new()), Value::Obj(Vec::new())),
            |m| {
                (
                    Value::Obj(
                        m.counters.iter().map(|(k, v)| (k.clone(), Value::from(*v))).collect(),
                    ),
                    Value::Obj(m.gauges.iter().map(|(k, v)| (k.clone(), Value::Num(*v))).collect()),
                    Value::Obj(m.values.iter().map(|(k, s)| (k.clone(), s.to_json())).collect()),
                )
            },
        );
    let mut checks = vec![
        ("availability".to_string(), Value::Num(run.checks.availability)),
        ("yearly_downtime_minutes".to_string(), Value::Num(run.checks.yearly_downtime_minutes)),
    ];
    if let Some(sim) = run.checks.sim_availability {
        checks.push(("sim_availability".to_string(), Value::Num(sim)));
    }
    let mut fields = vec![
        ("schema".to_string(), Value::from(SCHEMA)),
        ("label".to_string(), Value::from(args.label.as_str())),
        ("profile".to_string(), Value::from(args.profile.name)),
        ("created_unix".to_string(), Value::from(created_unix)),
        ("env".to_string(), env),
        ("stages".to_string(), stages_json),
        ("spans".to_string(), spans),
        ("counters".to_string(), counters),
        ("gauges".to_string(), gauges),
        ("values".to_string(), values),
        ("checks".to_string(), Value::Obj(checks)),
    ];
    if let (Some(name), Some(section)) = (args.workload.section, &run.section) {
        fields.push((name.to_string(), section.clone()));
    }
    Value::Obj(fields)
}

/// The workload a document came from: the row whose section it
/// carries, or the suite when it carries none.
fn workload_of(doc: &Value) -> Result<&'static Workload, String> {
    let mut carried =
        WORKLOADS.iter().filter(|w| w.section.is_some_and(|name| doc.get(name).is_some()));
    match (carried.next(), carried.next()) {
        (None, _) => Ok(&WORKLOADS[0]),
        (Some(w), None) => Ok(w),
        (Some(a), Some(b)) => {
            Err(format!("document carries both the {} and {} sections", a.name(), b.name()))
        }
    }
}

/// Structural validation shared by `--validate` and `--compare`.
/// Returns `(label, profile, stage count)`.
fn check_document(doc: &Value) -> Result<(String, String, usize), String> {
    let schema = doc.get("schema").and_then(Value::as_str).ok_or("missing `schema` key")?;
    if schema != SCHEMA {
        return Err(format!("schema `{schema}` is not `{SCHEMA}`"));
    }
    let label = doc.get("label").and_then(Value::as_str).ok_or("missing `label`")?;
    let profile = doc.get("profile").and_then(Value::as_str).ok_or("missing `profile`")?;
    doc.get("created_unix").and_then(Value::as_f64).ok_or("missing `created_unix`")?;
    let env = doc.get("env").and_then(Value::as_object).ok_or("missing `env` object")?;
    for key in ["os", "arch", "threads", "debug_assertions", "pkg_version"] {
        if !env.iter().any(|(k, _)| k == key) {
            return Err(format!("env is missing `{key}`"));
        }
    }
    let stages = doc.get("stages").and_then(Value::as_array).ok_or("missing `stages` array")?;
    if stages.is_empty() {
        return Err("`stages` is empty".to_string());
    }
    for stage in stages {
        let name = stage.get("name").and_then(Value::as_str).ok_or("stage without `name`")?;
        require_numbers(
            stage,
            &["runs", "min_us", "mean_us", "max_us"],
            &format!("stage `{name}`"),
        )?;
        // Certificates arrived with the accuracy gate; timing-only
        // stages and older baselines omit them, but when present they
        // must be well-formed.
        if let Some(cert) = stage.get("certificate") {
            let verdict = cert
                .get("verdict")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("stage `{name}` certificate missing `verdict`"))?;
            if !["ok", "warn", "fail"].contains(&verdict) {
                return Err(format!("stage `{name}` has bad certificate verdict `{verdict}`"));
            }
            cert.get("method")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("stage `{name}` certificate missing `method`"))?;
            for key in ["residual", "prob_mass_error"] {
                let v = cert
                    .get(key)
                    .ok_or_else(|| format!("stage `{name}` certificate missing `{key}`"))?;
                // `null` is the JSON spelling of a non-finite residual
                // (which certifies as a fail verdict).
                if !(v.is_null() || v.as_f64().is_some()) {
                    return Err(format!("stage `{name}` certificate `{key}` is not a number"));
                }
                if v.as_f64().is_some_and(|x| x < 0.0) {
                    return Err(format!("stage `{name}` certificate has negative `{key}`"));
                }
            }
        }
    }
    doc.get("spans").and_then(Value::as_array).ok_or("missing `spans` array")?;
    doc.get("counters").and_then(Value::as_object).ok_or("missing `counters` object")?;
    // `gauges` arrived with the labeled registry; absent in older
    // baselines, but when present it must be an object.
    if let Some(g) = doc.get("gauges") {
        g.as_object().ok_or("`gauges` is not an object")?;
    }
    doc.get("values").and_then(Value::as_object).ok_or("missing `values` object")?;
    doc.get("checks").and_then(Value::as_object).ok_or("missing `checks` object")?;
    let workload = workload_of(doc)?;
    if let Some(name) = workload.section {
        let section = doc
            .get(name)
            .filter(|s| s.as_object().is_some())
            .ok_or_else(|| format!("`{name}` is not an object"))?;
        require_numbers(section, workload.numbers, name)?;
        for key in workload.booleans {
            match section.get(key).and_then(Value::as_bool) {
                Some(true) => {}
                Some(false) => return Err(format!("{name} records {key} = false")),
                None => return Err(format!("{name} missing `{key}`")),
            }
        }
        if let Some(claim) = workload.claims.iter().find(|c| !(c.holds)(section, stages)) {
            return Err(claim.message.to_string());
        }
    }
    Ok((label.to_string(), profile.to_string(), stages.len()))
}

/// Requires each of `keys` in `obj` to be a finite number >= 0; `what`
/// names `obj` in the error.
fn require_numbers(obj: &Value, keys: &[&str], what: &str) -> Result<(), String> {
    for key in keys {
        let v = obj
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{what} missing numeric `{key}`"))?;
        if !v.is_finite() || v < 0.0 {
            return Err(format!("{what} has bad `{key}`: {v}"));
        }
    }
    Ok(())
}

/// Reads a BENCH document and runs it through [`check_document`].
fn read_document(path: &str) -> Result<(Value, (String, String, usize)), CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|source| CliError::Io { path: path.to_string(), source })?;
    let doc = json::parse(&text)
        .map_err(|e| CliError::usage(format!("`{path}` is not valid JSON: {e}")))?;
    let summary =
        check_document(&doc).map_err(|why| CliError::usage(format!("`{path}`: {why}")))?;
    Ok((doc, summary))
}

fn validate_file(path: &str) -> Result<String, CliError> {
    let (_, (label, profile, n)) = read_document(path)?;
    Ok(format!("ok: {path}: label \"{label}\", profile {profile}, {n} stages\n"))
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ok,
    Warn,
    Fail,
    New,
    Missing,
}

impl Status {
    /// Grades a growth ratio against warn and fail thresholds.
    fn grade(ratio: f64, warn: f64, fail: f64) -> Status {
        if ratio >= fail {
            Status::Fail
        } else if ratio >= warn {
            Status::Warn
        } else {
            Status::Ok
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Warn => "warn",
            Status::Fail => "FAIL",
            Status::New => "new",
            Status::Missing => "missing",
        }
    }
}

#[derive(Debug)]
struct CompareRow {
    name: String,
    status: Status,
    base: f64,
    current: f64,
    ratio: f64,
}

#[derive(Debug)]
struct CompareOutcome {
    rows: Vec<CompareRow>,
    warns: usize,
    fails: usize,
}

fn doc_stages(doc: &Value) -> &[Value] {
    doc.get("stages").and_then(Value::as_array).unwrap_or_default()
}

fn stage_mins(doc: &Value) -> Vec<(String, f64)> {
    doc_stages(doc)
        .iter()
        .filter_map(|s| Some((s.get("name")?.as_str()?.to_string(), s.get("min_us")?.as_f64()?)))
        .collect()
}

fn doc_counters(doc: &Value) -> Vec<(String, f64)> {
    doc.get("counters")
        .and_then(Value::as_object)
        .map(|obj| obj.iter().filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))).collect())
        .unwrap_or_default()
}

/// `(stage name, certified residual, verdict)` for every stage that
/// carries a certificate. A `null` residual reads as NaN.
fn stage_certs(doc: &Value) -> Vec<(String, f64, String)> {
    doc_stages(doc)
        .iter()
        .filter_map(|s| {
            let name = s.get("name")?.as_str()?;
            let cert = s.get("certificate")?;
            let residual = cert.get("residual").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let verdict = cert.get("verdict")?.as_str()?;
            Some((name.to_string(), residual, verdict.to_string()))
        })
        .collect()
}

fn verdict_rank(verdict: &str) -> f64 {
    match verdict {
        "ok" => 0.0,
        "warn" => 1.0,
        _ => 2.0,
    }
}

/// Compares the current document against a baseline: stage minimums by
/// ratio against the warn/fail thresholds (stages where both sides are
/// under the noise floor always pass), workload counters for drift
/// (mismatch is a warning — it means the suite itself changed).
fn compare_docs(current: &Value, baseline: &Value, args: &BenchArgs) -> CompareOutcome {
    let cur = stage_mins(current);
    let base = stage_mins(baseline);
    let mut rows = Vec::new();

    for (name, cur_us) in &cur {
        let base_us = base.iter().find(|(n, _)| n == name).map(|&(_, b)| b);
        let ratio = base_us.map_or(f64::NAN, |b| cur_us / b.max(1e-9));
        let status = match base_us {
            None => Status::New,
            Some(b) if *cur_us < args.floor_us && b < args.floor_us => Status::Ok,
            Some(_) => Status::grade(ratio, args.warn_ratio, args.fail_ratio),
        };
        let (base_us, current) = (base_us.unwrap_or(f64::NAN), *cur_us);
        rows.push(CompareRow { name: name.clone(), status, base: base_us, current, ratio });
    }
    for (name, base_us) in &base {
        if !cur.iter().any(|(n, _)| n == name) {
            rows.push(CompareRow {
                name: name.clone(),
                status: Status::Missing,
                base: *base_us,
                current: f64::NAN,
                ratio: f64::NAN,
            });
        }
    }

    // Accuracy gate: a certified residual growing by
    // [`ACCURACY_FAIL_RATIO`] over the baseline is a regression even if
    // every timing held — the solver got *less right*, not slower. A
    // current residual at or below the floor always passes (it is still
    // at certification precision); a verdict that worsened is flagged
    // regardless of ratio.
    let cur_certs = stage_certs(current);
    for (name, base_res, base_verdict) in stage_certs(baseline) {
        let Some((_, cur_res, cur_verdict)) = cur_certs.iter().find(|(n, _, _)| *n == name) else {
            continue;
        };
        let (cur_rank, base_rank) = (verdict_rank(cur_verdict), verdict_rank(&base_verdict));
        if cur_rank > base_rank {
            rows.push(CompareRow {
                name: format!("verdict:{name}"),
                status: if cur_verdict == "fail" { Status::Fail } else { Status::Warn },
                base: base_rank,
                current: cur_rank,
                ratio: f64::NAN,
            });
        }
        if cur_res.is_finite() && base_res.is_finite() && *cur_res > args.residual_floor {
            let ratio = cur_res / base_res.max(1e-300);
            let status = Status::grade(ratio, ACCURACY_WARN_RATIO, ACCURACY_FAIL_RATIO);
            if status != Status::Ok {
                rows.push(CompareRow {
                    name: format!("residual:{name}"),
                    status,
                    base: base_res,
                    current: *cur_res,
                    ratio,
                });
            }
        }
    }

    let cur_counters = doc_counters(current);
    for (name, base_count) in doc_counters(baseline) {
        if let Some((_, cur_count)) = cur_counters.iter().find(|(n, _)| *n == name) {
            if (cur_count - base_count).abs() > 1e-9 {
                rows.push(CompareRow {
                    name: format!("counter:{name}"),
                    status: Status::Warn,
                    base: base_count,
                    current: *cur_count,
                    ratio: cur_count / base_count.max(1e-9),
                });
            }
        }
    }

    let warns = rows.iter().filter(|r| matches!(r.status, Status::Warn | Status::Missing)).count();
    let fails = rows.iter().filter(|r| r.status == Status::Fail).count();
    CompareOutcome { rows, warns, fails }
}

/// Compare-row value formatting: timings print fixed-point, residuals
/// (tiny by construction) print scientific instead of rounding to 0.0.
fn fmt_compare_value(v: f64) -> String {
    if !v.is_finite() {
        "-".to_string()
    } else if v != 0.0 && v.abs() < 0.1 {
        format!("{v:.2e}")
    } else {
        format!("{v:.1}")
    }
}

fn render_compare(outcome: &CompareOutcome, base_path: &str, args: &BenchArgs) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "comparison against {base_path} (warn x{}, fail x{}, floor {} us, \
         accuracy fail x{ACCURACY_FAIL_RATIO} above residual {:.0e}):",
        args.warn_ratio, args.fail_ratio, args.floor_us, args.residual_floor
    );
    let _ = writeln!(
        out,
        "  {:<24} {:>8} {:>12} {:>12} {:>8}",
        "stage", "status", "base", "current", "ratio"
    );
    for row in &outcome.rows {
        let _ = writeln!(
            out,
            "  {:<24} {:>8} {:>12} {:>12} {:>8}",
            row.name,
            row.status.as_str(),
            fmt_compare_value(row.base),
            fmt_compare_value(row.current),
            if row.ratio.is_finite() { format!("{:.2}x", row.ratio) } else { "-".to_string() },
        );
    }
    let _ =
        writeln!(out, "  result: {} regression(s), {} warning(s)", outcome.fails, outcome.warns);
    out
}

fn compare_json(outcome: &CompareOutcome, base_path: &str, args: &BenchArgs) -> Value {
    Value::Obj(vec![
        ("baseline".to_string(), Value::from(base_path)),
        ("warn_ratio".to_string(), Value::Num(args.warn_ratio)),
        ("fail_ratio".to_string(), Value::Num(args.fail_ratio)),
        ("floor_us".to_string(), Value::Num(args.floor_us)),
        ("residual_floor".to_string(), Value::Num(args.residual_floor)),
        (
            "rows".to_string(),
            Value::Arr(
                outcome
                    .rows
                    .iter()
                    .map(|r| {
                        Value::Obj(vec![
                            ("name".to_string(), Value::from(r.name.as_str())),
                            ("status".to_string(), Value::from(r.status.as_str())),
                            ("base_us".to_string(), Value::Num(r.base)),
                            ("current_us".to_string(), Value::Num(r.current)),
                            ("ratio".to_string(), Value::Num(r.ratio)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("warns".to_string(), Value::from(outcome.warns)),
        ("fails".to_string(), Value::from(outcome.fails)),
    ])
}

// ---------------------------------------------------------------------------
// Human report
// ---------------------------------------------------------------------------

fn render_human(
    args: &BenchArgs,
    run: &Run,
    compare_report: Option<&str>,
    out_path: Option<&str>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "rascad bench: profile {}, label \"{}\"", args.profile.name, args.label);
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "  {:<18} {:>4} {:>12} {:>12} {:>12}",
        "stage", "runs", "min us", "mean us", "max us"
    );
    for s in &run.stages {
        let _ = writeln!(
            out,
            "  {:<18} {:>4} {:>12.1} {:>12.1} {:>12.1}",
            s.name, s.runs, s.min_us, s.mean_us, s.max_us
        );
    }
    let _ = writeln!(out);
    if let (Some(name), Some(Value::Obj(fields))) = (args.workload.section, &run.section) {
        let _ = writeln!(out, "{name}:");
        for (key, value) in fields {
            let _ = writeln!(out, "  {key:<20} {}", value.to_string_compact());
        }
    }
    let _ = write!(
        out,
        "checks: availability {:.9} ({:.1} min/y downtime)",
        run.checks.availability, run.checks.yearly_downtime_minutes
    );
    if let Some(sim) = run.checks.sim_availability {
        let _ = write!(out, ", simulated {sim:.6}");
    }
    let _ = writeln!(out);
    if let Some(report) = compare_report {
        let _ = writeln!(out);
        out.push_str(report);
    }
    if let Some(path) = out_path {
        let _ = writeln!(out);
        let _ = writeln!(out, "wrote {path}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::obs_test_lock;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(name)
    }

    fn run_bench(args: &[&str]) -> Result<String, CliError> {
        bench(args)
    }

    #[test]
    fn quick_json_is_schema_valid_with_solver_diagnostics() {
        let _lock = obs_test_lock();
        let out = run_bench(&["--quick", "--json", "--label", "unit"]).unwrap();
        let doc = json::parse(&out).unwrap();
        let (label, profile, n) = check_document(&doc).unwrap();
        assert_eq!(label, "unit");
        assert_eq!(profile, "quick");
        assert!(n >= 10, "expected >= 10 stages, got {n}");

        let names: Vec<&str> = doc
            .get("stages")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s.get("name").unwrap().as_str().unwrap())
            .collect();
        for stage in [
            "parse_dsl",
            "generate_type0",
            "generate_type4",
            "solve_gth",
            "solve_lu",
            "transient",
            "interval_exact",
            "hierarchy",
            "sweep",
            "simulate",
        ] {
            assert!(names.contains(&stage), "missing stage {stage}: {names:?}");
        }

        // Solver numerical-health telemetry captured through rascad-obs.
        let values = doc.get("values").unwrap();
        for key in ["markov.gth.min_pivot", "markov.lu.condest", "markov.transient.truncation"] {
            let snap = values.get(key).unwrap_or_else(|| panic!("missing value {key}"));
            assert!(snap.get("count").unwrap().as_f64().unwrap() >= 1.0, "{key}");
        }
        let counters = doc.get("counters").unwrap();
        for key in [
            "markov.solves{method=\"gth\"}",
            "markov.transient.solves",
            "sim.replications",
            "solve.certified{verdict=\"ok\"}",
        ] {
            assert!(
                counters.get(key).and_then(Value::as_f64).unwrap_or(0.0) >= 1.0,
                "missing counter {key}"
            );
        }

        // Every solving stage carries an accuracy certificate; the
        // deterministic workload certifies clean.
        let stages = doc.get("stages").unwrap().as_array().unwrap();
        for name in ["solve_gth", "solve_lu", "transient", "hierarchy", "sweep"] {
            let stage = stages
                .iter()
                .find(|s| s.get("name").and_then(Value::as_str) == Some(name))
                .unwrap();
            let cert = stage
                .get("certificate")
                .unwrap_or_else(|| panic!("stage {name} has no certificate"));
            assert_eq!(cert.get("verdict").and_then(Value::as_str), Some("ok"), "{name}");
            let residual = cert.get("residual").and_then(Value::as_f64).unwrap();
            assert!(residual.is_finite() && residual >= 0.0, "{name}: {residual}");
        }
        // Timing-only stages don't.
        let parse = stages
            .iter()
            .find(|s| s.get("name").and_then(Value::as_str) == Some("parse_dsl"))
            .unwrap();
        assert!(parse.get("certificate").is_none());

        // Span aggregates are present and depth-sorted.
        let spans = doc.get("spans").unwrap().as_array().unwrap();
        assert!(!spans.is_empty());
        let depths: Vec<i64> =
            spans.iter().map(|s| s.get("depth").unwrap().as_i64().unwrap()).collect();
        let mut sorted = depths.clone();
        sorted.sort_unstable();
        assert_eq!(depths, sorted);

        // Checks pin the numerical answers.
        let avail = doc.get("checks").unwrap().get("availability").unwrap().as_f64().unwrap();
        assert!(avail > 0.99 && avail < 1.0, "{avail}");
    }

    #[test]
    fn sweep_mode_emits_scaling_section() {
        let _lock = obs_test_lock();
        let out = run_bench(&["--sweep", "--quick", "--json"]).unwrap();
        let doc = json::parse(&out).unwrap();
        let (label, profile, n) = check_document(&doc).unwrap();
        assert_eq!(label, "sweep");
        assert_eq!(profile, "quick");
        assert_eq!(n, 3);

        let names: Vec<&str> = doc
            .get("stages")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, ["sweep_baseline_seq", "sweep_engine_t1", "sweep_engine_tn"]);

        let scaling = doc.get("sweep_scaling").unwrap();
        assert_eq!(scaling.get("points").unwrap().as_i64(), Some(20));
        assert_eq!(scaling.get("blocks").unwrap().as_i64(), Some(10));
        assert_eq!(scaling.get("bit_identical").unwrap().as_bool(), Some(true));
        // The nine unswept blocks hit on 19 of 20 points, but the hit
        // count still varies by a few between runs: concurrent workers
        // may both miss on the same block, since solves run off the
        // cache lock. Hence a floor, not an exact count; the timing
        // ratios this test deliberately leaves alone.
        let hit_rate = scaling.get("cache_hit_rate").unwrap().as_f64().unwrap();
        assert!(hit_rate > 0.8, "hit rate {hit_rate}");
        assert!(scaling.get("speedup_vs_baseline").unwrap().as_f64().unwrap() > 0.0);

        // No simulator stage ran, so the checks omit its key.
        assert!(doc.get("checks").unwrap().get("sim_availability").is_none());
        assert!(doc.get("checks").unwrap().get("availability").unwrap().as_f64().unwrap() > 0.9);
    }

    #[test]
    fn large_mode_emits_scaling_section() {
        let _lock = obs_test_lock();
        let out = run_bench(&["--large", "--quick", "--json"]).unwrap();
        let doc = json::parse(&out).unwrap();
        let (label, profile, n) = check_document(&doc).unwrap();
        assert_eq!(label, "large");
        assert_eq!(profile, "quick");
        assert_eq!(n, 5);

        let names: Vec<&str> = doc
            .get("stages")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(
            names,
            [
                "large_chain_solve",
                "large_block_generate",
                "large_block_solve",
                "lump_proof",
                "large_pool_mission"
            ]
        );

        // check_document already gated the structural claims (GTH, ok
        // verdict, residual < 1e-9, lump exactness); pin the
        // quick profile's sizes on top.
        let scaling = doc.get("large_scaling").unwrap();
        assert_eq!(scaling.get("chain_states").unwrap().as_i64(), Some(10_000));
        assert_eq!(scaling.get("block_units").unwrap().as_i64(), Some(1000));
        assert_eq!(scaling.get("block_states").unwrap().as_i64(), Some(1001));
        assert_eq!(scaling.get("lump_full_states").unwrap().as_i64(), Some(256));
        assert_eq!(scaling.get("lump_states").unwrap().as_i64(), Some(9));

        // No simulator stage ran, so the checks omit its key.
        assert!(doc.get("checks").unwrap().get("sim_availability").is_none());
        assert!(doc.get("checks").unwrap().get("availability").unwrap().as_f64().unwrap() > 0.99);
    }

    #[test]
    fn serve_mode_emits_serve_load_section() {
        let _lock = obs_test_lock();
        let out = run_bench(&["--serve", "--quick", "--json"]).unwrap();
        let doc = json::parse(&out).unwrap();
        let (label, profile, n) = check_document(&doc).unwrap();
        assert_eq!(label, "serve");
        assert_eq!(profile, "quick");
        assert_eq!(n, 4);

        let names: Vec<&str> = doc
            .get("stages")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(
            names,
            ["serve_solve", "serve_shed_burst", "serve_deadline_probe", "serve_metrics_scrape"]
        );

        // check_document already gated the structural claims (>= 1000
        // solves, shed under burst, typed deadline, valid metrics page,
        // bit-identical responses, clean drain); pin the workload shape.
        let load = doc.get("serve_load").unwrap();
        assert!(load.get("solves").unwrap().as_i64().unwrap() >= 1000);
        assert_eq!(load.get("deadline_typed").unwrap().as_bool(), Some(true));
        assert_eq!(load.get("drained_clean").unwrap().as_bool(), Some(true));

        // No simulator stage ran, so the checks omit its key.
        assert!(doc.get("checks").unwrap().get("sim_availability").is_none());
        assert!(doc.get("checks").unwrap().get("availability").unwrap().as_f64().unwrap() > 0.9);
    }

    #[test]
    fn workload_flags_are_mutually_exclusive() {
        for combo in [
            &["--sweep", "--large"][..],
            &["--sweep", "--serve"],
            &["--large", "--serve"],
            &["--sweep", "--large", "--serve"],
        ] {
            assert!(matches!(bench(combo), Err(CliError::Usage(_))), "{combo:?}");
        }
    }

    /// The committed baselines: one per workload.
    const COMMITTED: [&str; 4] = [
        include_str!("../../../../BENCH_convergence.json"),
        include_str!("../../../../BENCH_sweep.json"),
        include_str!("../../../../BENCH_large.json"),
        include_str!("../../../../BENCH_serve.json"),
    ];

    /// Sets the value at `path` in `doc`; inside an array a path step
    /// names the element by its `name` (how stages are addressed).
    fn set(doc: &mut Value, path: &[&str], value: Value) {
        let slot = path.iter().fold(doc, |v, step| match v {
            Value::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == step).unwrap().1,
            Value::Arr(items) => items
                .iter_mut()
                .find(|s| s.get("name").and_then(Value::as_str) == Some(step))
                .unwrap(),
            _ => panic!("no `{step}` on {path:?}"),
        });
        *slot = value;
    }

    #[test]
    fn committed_documents_validate_and_every_gate_rejects() {
        // Edits that each break just one claim on the committed document,
        // keyed by a fragment of that claim's message.
        let breakers: [(&str, &[&str], Value); 13] = [
            ("fewer than 10000 states", &["large_scaling", "chain_states"], Value::from(9_999_i64)),
            ("units + 1 occupancy", &["large_scaling", "block_states"], Value::from(1_000_i64)),
            ("n + 1 states", &["large_scaling", "lump_states"], Value::from(256_i64)),
            ("deviates by more than", &["large_scaling", "lump_max_delta"], Value::Num(1e-6)),
            ("ok on GTH", &["stages", "large_chain_solve", "certificate", "method"], "lu".into()),
            (
                "ok on GTH",
                &["stages", "large_chain_solve", "certificate", "verdict"],
                "warn".into(),
            ),
            ("ok on GTH", &["stages", "large_chain_solve", "certificate", "residual"], Value::Null),
            ("fewer than 1000 solves", &["serve_load", "solves"], Value::from(999_i64)),
            ("fewer requests", &["serve_load", "requests"], Value::from(10_i64)),
            ("must shed", &["serve_load", "shed"], Value::from(0_i64)),
            ("not monotone", &["serve_load", "p50_ms"], Value::Num(1e9)),
            ("not in (0, 1]", &["serve_load", "availability"], Value::Num(0.0)),
            ("lacks a", &["stages", "serve_shed_burst", "name"], "renamed".into()),
        ];
        // A claim dropped from the table leaves its breaker unmatched.
        for (frag, ..) in &breakers {
            let mut claims = WORKLOADS.iter().flat_map(|w| w.claims);
            assert!(claims.any(|c| c.message.contains(frag)), "no claim for `{frag}`");
        }
        let docs: Vec<Value> = COMMITTED.iter().map(|text| json::parse(text).unwrap()).collect();
        for (doc, workload) in docs.iter().zip(&WORKLOADS) {
            assert_eq!(workload_of(doc).unwrap().flag, workload.flag);
            check_document(doc).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            let Some(section) = workload.section else { continue };
            let rejects = |path: &[&str], value: Value, expect: &str| {
                let mut broken = doc.clone();
                set(&mut broken, path, value);
                let err = check_document(&broken).unwrap_err();
                assert!(err.contains(expect), "{path:?}: `{err}` lacks `{expect}`");
            };
            for key in workload.numbers {
                rejects(&[section, key], Value::Num(-1.0), &format!("bad `{key}`"));
            }
            for key in workload.booleans {
                rejects(&[section, key], Value::from(false), &format!("{key} = false"));
            }
            for claim in workload.claims {
                let matching = breakers.iter().filter(|(frag, ..)| claim.message.contains(frag));
                let mut broke = 0;
                for (_, path, value) in matching {
                    rejects(path, value.clone(), claim.message);
                    broke += 1;
                }
                assert!(broke > 0, "no breaker for `{}`", claim.message);
            }
        }
    }

    #[test]
    fn compare_rejects_a_baseline_from_another_workload() {
        // The baseline is checked before the workload runs, so these
        // return at once.
        let path = tmp("rascad_bench_other_workload.json");
        for (text, flags) in [(COMMITTED[2], &["--quick"][..]), (COMMITTED[0], &["--serve"])] {
            std::fs::write(&path, text).unwrap();
            let mut args = flags.to_vec();
            args.extend(["--compare", path.to_str().unwrap()]);
            let err = run_bench(&args).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{err:?}");
            let message = err.to_string();
            assert!(message.contains("--large") || message.contains("--serve"), "{message}");
            assert!(message.contains("suite"), "{message}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn usage_names_every_workload_flag() {
        for flag in WORKLOADS.iter().filter_map(|w| w.flag) {
            assert!(crate::commands::USAGE.contains(flag), "usage omits {flag}");
        }
    }

    #[test]
    fn compare_against_own_baseline_passes() {
        let _lock = obs_test_lock();
        let path = tmp("rascad_bench_base_ok.json");
        run_bench(&["--quick", "--out", path.to_str().unwrap(), "--json"]).unwrap();
        // Loose thresholds so machine noise can't flake the test; the
        // mechanics (matching, ratio math, exit path) are what's under
        // test here.
        let out = run_bench(&[
            "--quick",
            "--json",
            "--compare",
            path.to_str().unwrap(),
            "--warn-ratio",
            "50",
            "--fail-ratio",
            "100",
        ])
        .unwrap();
        let doc = json::parse(&out).unwrap();
        let cmp = doc.get("compare").unwrap();
        assert_eq!(cmp.get("fails").unwrap().as_i64(), Some(0));
        assert!(!cmp.get("rows").unwrap().as_array().unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_slowdown_trips_regression_exit_code() {
        let _lock = obs_test_lock();
        let path = tmp("rascad_bench_base_slow.json");
        run_bench(&["--quick", "--out", path.to_str().unwrap(), "--json"]).unwrap();

        // Doctor the baseline: shrink every stage minimum 1000x, which
        // makes the (unchanged) current run look like a huge slowdown.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut doc = json::parse(&text).unwrap();
        if let Value::Obj(fields) = &mut doc {
            for (key, value) in fields.iter_mut() {
                if key == "stages" {
                    if let Value::Arr(stages) = value {
                        for stage in stages {
                            if let Value::Obj(stage_fields) = stage {
                                for (k, v) in stage_fields.iter_mut() {
                                    if k == "min_us" {
                                        if let Value::Num(us) = v {
                                            *us /= 1000.0;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        std::fs::write(&path, doc.to_string_pretty()).unwrap();

        let err = run_bench(&["--quick", "--compare", path.to_str().unwrap()]).unwrap_err();
        assert_eq!(err.exit_code(), 6, "{err:?}");
        let report = err.to_string();
        assert!(report.contains("FAIL"), "{report}");
        assert!(report.contains("regression"), "{report}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_accepts_emitted_and_rejects_corrupt() {
        let _lock = obs_test_lock();
        let path = tmp("rascad_bench_validate.json");
        run_bench(&["--quick", "--out", path.to_str().unwrap(), "--json"]).unwrap();
        let out = run_bench(&["--validate", path.to_str().unwrap()]).unwrap();
        assert!(out.starts_with("ok:"), "{out}");

        std::fs::write(&path, "{\"schema\": \"other/v9\"}").unwrap();
        let err = run_bench(&["--validate", path.to_str().unwrap()]).unwrap_err();
        assert_eq!(err.exit_code(), 2);

        std::fs::write(&path, "not json").unwrap();
        assert!(run_bench(&["--validate", path.to_str().unwrap()]).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compare_statuses_cover_ok_warn_fail_new_missing() {
        let mk = |stages: &[(&str, f64)], counters: &[(&str, f64)]| {
            Value::Obj(vec![
                (
                    "stages".to_string(),
                    Value::Arr(
                        stages
                            .iter()
                            .map(|(n, us)| {
                                Value::Obj(vec![
                                    ("name".to_string(), Value::from(*n)),
                                    ("min_us".to_string(), Value::Num(*us)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "counters".to_string(),
                    Value::Obj(
                        counters.iter().map(|(n, v)| ((*n).to_string(), Value::Num(*v))).collect(),
                    ),
                ),
            ])
        };
        let args = parse_args(&[]).unwrap();
        let baseline = mk(
            &[
                ("steady", 1000.0),
                ("slower", 1000.0),
                ("much_slower", 1000.0),
                ("gone", 500.0),
                ("noise", 10.0),
            ],
            &[("solves", 5.0), ("drift", 7.0)],
        );
        let current = mk(
            &[
                ("steady", 1010.0),
                ("slower", 1500.0),
                ("much_slower", 2500.0),
                ("fresh", 80.0),
                ("noise", 40.0),
            ],
            &[("solves", 5.0), ("drift", 9.0)],
        );
        let outcome = compare_docs(&current, &baseline, &args);
        let status =
            |name: &str| outcome.rows.iter().find(|r| r.name == name).map(|r| r.status).unwrap();
        assert_eq!(status("steady"), Status::Ok);
        assert_eq!(status("slower"), Status::Warn);
        assert_eq!(status("much_slower"), Status::Fail);
        assert_eq!(status("fresh"), Status::New);
        assert_eq!(status("gone"), Status::Missing);
        // Both under the 50 us floor: 4x ratio still passes.
        assert_eq!(status("noise"), Status::Ok);
        assert_eq!(status("counter:drift"), Status::Warn);
        assert_eq!(outcome.fails, 1);
        assert!(outcome.warns >= 3, "{outcome:?}");
    }

    #[test]
    fn accuracy_gate_flags_residual_growth_and_verdict_regression() {
        let mk = |stages: &[(&str, f64, &str)]| {
            Value::Obj(vec![
                (
                    "stages".to_string(),
                    Value::Arr(
                        stages
                            .iter()
                            .map(|(n, res, verdict)| {
                                Value::Obj(vec![
                                    ("name".to_string(), Value::from(*n)),
                                    ("min_us".to_string(), Value::Num(1000.0)),
                                    (
                                        "certificate".to_string(),
                                        Value::Obj(vec![
                                            ("method".to_string(), Value::from(*n)),
                                            ("verdict".to_string(), Value::from(*verdict)),
                                            ("residual".to_string(), Value::Num(*res)),
                                            ("prob_mass_error".to_string(), Value::Num(0.0)),
                                        ]),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("counters".to_string(), Value::Obj(Vec::new())),
            ])
        };
        let args = parse_args(&[]).unwrap();
        let baseline = mk(&[
            ("blown", 1e-12, "ok"),
            ("drifted", 1e-10, "ok"),
            ("tiny", 1e-16, "ok"),
            ("worse_verdict", 1e-12, "ok"),
        ]);
        let current = mk(&[
            // 100x the baseline residual: accuracy regression, exit 6.
            ("blown", 1e-10, "ok"),
            // 4x: warned, not failed.
            ("drifted", 4e-10, "ok"),
            // Grew 100x but stayed under the floor: still pristine.
            ("tiny", 1e-14, "ok"),
            // Verdict regressed to fail (e.g. non-finite residual).
            ("worse_verdict", f64::NAN, "fail"),
        ]);
        let outcome = compare_docs(&current, &baseline, &args);
        let status =
            |name: &str| outcome.rows.iter().find(|r| r.name == name).map(|r| r.status).unwrap();
        assert_eq!(status("residual:blown"), Status::Fail);
        assert_eq!(status("residual:drifted"), Status::Warn);
        assert!(!outcome.rows.iter().any(|r| r.name == "residual:tiny"), "{outcome:?}");
        assert_eq!(status("verdict:worse_verdict"), Status::Fail);
        // Timing rows are untouched (all 1000 us, ratio 1).
        assert_eq!(status("blown"), Status::Ok);
        assert_eq!(outcome.fails, 2);
    }

    #[test]
    fn injected_residual_regression_trips_the_accuracy_gate() {
        let _lock = obs_test_lock();
        let path = tmp("rascad_bench_base_accuracy.json");
        run_bench(&["--quick", "--out", path.to_str().unwrap(), "--json"]).unwrap();

        // Doctor the baseline: shrink every certified residual a
        // million-fold, which makes the (numerically unchanged) current
        // run look like a huge loss of accuracy.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut doc = json::parse(&text).unwrap();
        let mut doctored = 0;
        if let Value::Obj(fields) = &mut doc {
            for (key, value) in fields.iter_mut() {
                let Value::Arr(stages) = value else { continue };
                if key != "stages" {
                    continue;
                }
                for stage in stages {
                    let Value::Obj(stage_fields) = stage else { continue };
                    for (k, v) in stage_fields.iter_mut() {
                        let Value::Obj(cert_fields) = v else { continue };
                        if k != "certificate" {
                            continue;
                        }
                        for (ck, cv) in cert_fields.iter_mut() {
                            if ck == "residual" {
                                if let Value::Num(r) = cv {
                                    if *r > 0.0 {
                                        *r /= 1e6;
                                        doctored += 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(doctored > 0, "workload must certify at least one nonzero residual");
        std::fs::write(&path, doc.to_string_pretty()).unwrap();

        // The same run compared against the doctored baseline: residuals
        // are bit-identical run to run, so the 1e6 ratio is real signal.
        // --residual-floor 0 keeps near-machine-precision residuals in
        // scope for this single-machine check.
        let err =
            run_bench(&["--quick", "--compare", path.to_str().unwrap(), "--residual-floor", "0"])
                .unwrap_err();
        assert_eq!(err.exit_code(), 6, "{err:?}");
        let report = err.to_string();
        assert!(report.contains("residual:"), "{report}");
        assert!(report.contains("FAIL"), "{report}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_options_are_usage_errors() {
        assert!(matches!(bench(&["--bogus"]), Err(CliError::Usage(_))));
        assert!(matches!(bench(&["--label"]), Err(CliError::Usage(_))));
        assert!(matches!(bench(&["--label", "no/slash"]), Err(CliError::Usage(_))));
        assert!(matches!(
            bench(&["--warn-ratio", "3", "--fail-ratio", "2"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(bench(&["--validate"]), Err(CliError::Usage(_))));
    }
}
