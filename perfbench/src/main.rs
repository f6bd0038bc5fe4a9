//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <served_warm|served_cold|large_pool> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --print-pool-table
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` replays the same op list in-process, timing each layer's
//! public calls, and reports the per-layer metrics. The last line of
//! stdout is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `README.md` next to this crate for the workloads and
//! the metrics.

mod check;
mod gen;
mod pool;
mod pool_table;
mod served;
mod sys;
mod traced;

use std::process::ExitCode;
use std::time::Instant;

use rascad_obs::json::Value;

use crate::check::{Failures, Reference};
use crate::gen::Workload;
use crate::served::{Daemon, Mode};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a run prints.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                (
                    m.name.to_string(),
                    Value::Obj(vec![
                        ("value".to_string(), Value::Num(value)),
                        ("unit".to_string(), Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Value::Obj(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::Int(self.attempted as i64)),
            ("failed".to_string(), Value::Int(self.failed as i64)),
            ("metrics".to_string(), Value::Obj(metrics)),
        ])
        .to_string_compact()
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <served_warm|served_cold|large_pool> \
                     --seed <n> --seconds <s> --trace <0|1> | --print-pool-table";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {s} outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Clients (and connections) of the served workloads: never more than
/// the machine's cores, and at most two.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--print-pool-table") {
        return match pool_table::compute_rows() {
            Ok(rows) => {
                for row in rows {
                    println!("    \"{row}\",");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Incident dumps of the daemon (500 answers) go to the benchmark's
    // output directory, never the working tree.
    if std::env::var_os("RASCAD_FLIGHT_PATH").is_none() {
        let dir = std::path::Path::new(".bench_out");
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("perfbench: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        let file = dir.join(format!("flight-{}-{}.jsonl", args.workload.name(), args.seed));
        std::env::set_var("RASCAD_FLIGHT_PATH", file);
    }
    let result = if args.trace {
        traced::run(&args)
    } else if args.workload == Workload::LargePool {
        pool::e2e(args.seed, args.seconds)
    } else {
        served_e2e(args.workload, args.seed, args.seconds)
    };
    match result {
        Ok(r) => {
            println!("{}", r.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A daemon after set-up, plus the inputs and connections of the run.
pub struct Prepared {
    pub inputs: gen::Inputs,
    pub requests: Vec<Vec<u8>>,
    pub daemon: Daemon,
    pub conns: Vec<std::net::TcpStream>,
    pub mode: Mode,
}

/// Set-up of a served workload: input generation, bind, spec puts, the
/// warm-up pass (`served_warm` only) and, for keep-alive clients, their
/// connections.
///
/// # Errors
///
/// Bind/connect errors and puts or warm-up solves that do not succeed.
pub fn prepare_served(workload: Workload, seed: u64) -> Result<Prepared, String> {
    let mode =
        if workload == Workload::ServedWarm { Mode::KeepAlive } else { Mode::ConnectionPerRequest };
    let inputs = gen::generate(workload, seed);
    let requests: Vec<Vec<u8>> =
        inputs.ops.iter().map(|op| op.http_request(mode == Mode::ConnectionPerRequest)).collect();
    let daemon = Daemon::start().map_err(|e| format!("bind: {e}"))?;
    let mut admin =
        std::net::TcpStream::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    for put in &inputs.puts {
        let r = served::exchange(&mut admin, &put.http_request(false))
            .map_err(|e| format!("put: {e}"))?;
        if r.status != 201 {
            return Err(format!(
                "set-up put answered {}: {}",
                r.status,
                String::from_utf8_lossy(&r.body)
            ));
        }
    }
    if workload == Workload::ServedWarm {
        let mut seen = std::collections::HashSet::new();
        for (op, req) in inputs.ops.iter().zip(&requests) {
            if seen.insert(op.key) {
                let r = served::exchange(&mut admin, req).map_err(|e| format!("warm-up: {e}"))?;
                if r.status != 200 {
                    return Err(format!("warm-up solve answered {}", r.status));
                }
            }
        }
    }
    drop(admin);
    let conns = if mode == Mode::KeepAlive {
        served::open_connections(daemon.addr, clients()).map_err(|e| format!("connect: {e}"))?
    } else {
        Vec::new()
    };
    Ok(Prepared { inputs, requests, daemon, conns, mode })
}

/// Checks every recorded answer; returns (attempted, failures).
pub fn verify_served(
    ops: &[gen::Op],
    logs: &[served::ClientLog],
    reference: &mut Reference,
) -> (u64, Failures) {
    let mut failures = Failures::default();
    let mut attempted = 0;
    for log in logs {
        let mut first: std::collections::HashMap<u32, Result<(), String>> = Default::default();
        for rec in &log.records {
            attempted += 1;
            let op = &ops[rec.op];
            let verdict = match &rec.body {
                Some(body) => {
                    let v = check::check_served(op, rec.status, body, reference);
                    first.entry(op.key).or_insert_with(|| v.clone());
                    v
                }
                None => first.get(&op.key).cloned().unwrap_or(Ok(())),
            };
            if let Err(kind) = verdict {
                failures.add(kind);
            }
        }
        for (_, err) in &log.transport_errors {
            attempted += 1;
            failures.add(format!("transport: {}", sys::message_class(err)));
        }
    }
    (attempted, failures)
}

fn served_e2e(workload: Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut setup = Vec::new();
    let mut prepared = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let p = prepare_served(workload, seed)?;
        setup.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            drop(p.conns);
            p.daemon.stop();
        } else {
            prepared = Some(p);
        }
    }
    let p = prepared.expect("at least one set-up");
    let logs = served::run_clients(
        p.daemon.addr,
        &p.inputs.ops,
        &p.requests,
        p.mode,
        p.conns,
        clients(),
        seconds,
    );
    let summary = p.daemon.stop();
    let peak = sys::peak_rss_mb();

    let mut reference = Reference::new();
    reference.cross_check()?;
    let (attempted, failures) = verify_served(&p.inputs.ops, &logs, &mut reference);
    failures.report(&format!("{} failures", workload.name()));
    if summary.shed > 0 {
        eprintln!("perfbench: the daemon shed {} request(s)", summary.shed);
    }
    let latencies: Vec<f64> = logs.iter().flat_map(|l| l.latencies_ms.iter().copied()).collect();
    let window = logs.iter().map(|l| l.busy.as_secs_f64()).fold(0.0, f64::max);
    Ok(RunResult {
        correct: failures.total() == 0,
        attempted,
        failed: failures.total(),
        metrics: vec![
            Metric::new("setup_s", sys::median(&setup), "s"),
            Metric::new("op_p50_ms", sys::median(&latencies), "ms"),
            Metric::new("op_p99_ms", sys::percentile(&latencies, 0.99), "ms"),
            Metric::new("ops_per_s", latencies.len() as f64 / window, "1/s"),
            Metric::new("peak_rss_mb", peak, "MB"),
        ],
    })
}
