//! Answer checks.
//!
//! Every op's answer is checked against a reference computed with the
//! sequential engine's calls: each block generated and solved alone
//! (`generate_block` + the certified GTH steady state, uncached, one
//! thread), system availability multiplied up in walk order — the serial
//! roll-up the engine performs. [`Reference::cross_check`] confirms at
//! set-up that this product equals `Engine::sequential().solve_spec` on
//! the stored specs. Failures are counted by kind: HTTP status, the
//! typed `error.kind`, and the message class (see
//! [`crate::sys::message_class`]).

use std::collections::{BTreeMap, HashMap};

use rascad_core::{generate_block, Engine, SystemSolution};
use rascad_markov::SteadyStateMethod;
use rascad_obs::json::{self, Value};
use rascad_spec::units::Hours;
use rascad_spec::SystemSpec;

use crate::gen::{Kind, Op, STORED_SPECS};
use crate::sys::message_class;

/// Relative tolerance between served and reference availability (the
/// roll-up may associate the products differently; nothing else may
/// differ).
const REL_TOL: f64 = 1e-12;

/// Reference solutions, memoized per block.
pub struct Reference {
    blocks: HashMap<String, (f64, String)>,
    stored: HashMap<&'static str, SystemSpec>,
}

/// The reference answer for one spec.
#[derive(Debug, Clone)]
pub struct Expected {
    pub availability: f64,
    /// Certificate verdict per block, walk order.
    pub verdicts: Vec<String>,
}

impl Reference {
    pub fn new() -> Reference {
        let stored = STORED_SPECS
            .iter()
            .map(|(name, dsl)| (*name, SystemSpec::from_dsl(dsl).expect("stored spec parses")))
            .collect();
        Reference { blocks: HashMap::new(), stored }
    }

    /// The stored spec `name`. (`served_cold` stores these at a shorter
    /// mission time, which the steady-state reference does not depend
    /// on.)
    pub fn stored(&self, name: &str) -> Option<&SystemSpec> {
        self.stored.get(name)
    }

    /// Reference availability and verdicts of `spec`.
    ///
    /// # Errors
    ///
    /// The reference solve's own error, classified.
    pub fn expect(&mut self, spec: &SystemSpec) -> Result<Expected, String> {
        let mut flat = Vec::new();
        spec.root.walk(&mut |_, _, b| flat.push(b.params.clone()));
        let mut availability = 1.0;
        let mut verdicts = Vec::with_capacity(flat.len());
        for params in flat {
            let key = format!("{params:?}{:?}", spec.globals);
            if !self.blocks.contains_key(&key) {
                let model = generate_block(&params, &spec.globals)
                    .map_err(|e| format!("reference: {}", message_class(&e.to_string())))?;
                let (m, cert) = rascad_core::measures::steady_state_measures_with_certificate(
                    &model,
                    SteadyStateMethod::Gth,
                )
                .map_err(|e| format!("reference: {}", message_class(&e.to_string())))?;
                self.blocks.insert(key.clone(), (m.availability, cert.verdict.to_string()));
            }
            let (a, v) = &self.blocks[&key];
            availability *= a;
            verdicts.push(v.clone());
        }
        Ok(Expected { availability, verdicts })
    }

    /// Confirms that the per-block product equals the sequential
    /// engine's full solve on every stored spec.
    ///
    /// # Errors
    ///
    /// Describes the first disagreement.
    pub fn cross_check(&mut self) -> Result<(), String> {
        let engine = Engine::sequential();
        for (name, _) in STORED_SPECS {
            let spec = self.stored[name].clone();
            let sol = engine.solve_spec(&spec).map_err(|e| format!("{name}: {e}"))?;
            let want = self.expect(&spec)?;
            if !close(sol.system.availability, want.availability) {
                return Err(format!(
                    "{name}: sequential engine {} vs per-block reference {}",
                    sol.system.availability, want.availability
                ));
            }
        }
        Ok(())
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * b.abs().max(f64::MIN_POSITIVE)
}

/// Checks a solution against the reference.
fn check_solution(
    availability: f64,
    verdicts: &[String],
    degraded: bool,
    want: &Expected,
) -> Result<(), String> {
    if degraded {
        return Err("check: degraded solution".into());
    }
    if verdicts.len() != want.verdicts.len() {
        return Err("check: block count differs from reference".into());
    }
    if let Some(v) = verdicts.iter().find(|v| v.as_str() == "fail") {
        return Err(format!("check: certificate verdict {v}"));
    }
    if verdicts != want.verdicts {
        return Err("check: certificate verdict differs from reference".into());
    }
    if !close(availability, want.availability) {
        return Err("check: availability differs from reference".into());
    }
    Ok(())
}

/// Checks an in-process pool solve.
pub fn check_pool(
    sol: &SystemSolution,
    spec: &SystemSpec,
    reference: &mut Reference,
) -> Result<(), String> {
    let want = reference.expect(spec)?;
    let verdicts: Vec<String> =
        sol.blocks.iter().map(|b| b.certificate.verdict.to_string()).collect();
    check_solution(sol.system.availability, &verdicts, sol.is_degraded(), &want)
}

fn num(v: Option<&Value>) -> Option<f64> {
    v.and_then(Value::as_f64)
}

/// Checks one served answer. Returns the failure kind on a mismatch.
pub fn check_served(
    op: &Op,
    status: u16,
    body: &str,
    reference: &mut Reference,
) -> Result<(), String> {
    let doc = json::parse(body).map_err(|_| format!("{status} unparseable body"))?;
    let want_status = if op.kind == Kind::Put { 201 } else { 200 };
    if status != want_status {
        let err = doc.get("error");
        let kind = err.and_then(|e| e.get("kind")).and_then(Value::as_str).unwrap_or("-");
        let msg = err.and_then(|e| e.get("message")).and_then(Value::as_str).unwrap_or("");
        return Err(format!("{status} {kind}: {}", message_class(msg)));
    }
    let req = json::parse(&op.body).expect("generated body is JSON");
    let field = |k: &str| req.get(k).and_then(Value::as_str);
    let spec = match (field("spec"), field("spec_name")) {
        (Some(dsl), _) => SystemSpec::from_dsl(dsl).expect("generated DSL parses"),
        (None, Some(name)) => reference.stored(name).expect("stored spec").clone(),
        _ => unreachable!("generated ops name a spec"),
    };
    match op.kind {
        Kind::Put => {
            let blocks = doc.get("blocks").and_then(Value::as_i64);
            if blocks != Some(spec.root.total_blocks() as i64) {
                return Err("check: put reports a different block count".into());
            }
            Ok(())
        }
        Kind::Solve => {
            let want = reference.expect(&spec)?;
            let system = doc.get("system");
            let availability = num(system.and_then(|s| s.get("availability"))).unwrap_or(f64::NAN);
            let verdicts: Vec<String> = doc
                .get("blocks")
                .and_then(Value::as_array)
                .map(|bs| {
                    bs.iter()
                        .map(|b| {
                            let v = b.get("certificate").and_then(|c| c.get("verdict"));
                            v.and_then(Value::as_str).unwrap_or("missing").to_string()
                        })
                        .collect()
                })
                .unwrap_or_default();
            let degraded = doc.get("degraded").and_then(Value::as_bool).unwrap_or(true);
            check_solution(availability, &verdicts, degraded, &want)
        }
        Kind::Sweep => {
            let block = field("block").expect("sweep block");
            let from = num(req.get("from")).expect("from");
            let to = num(req.get("to")).expect("to");
            let n = req.get("points").and_then(Value::as_i64).expect("points") as usize;
            let points = doc
                .get("points")
                .and_then(Value::as_array)
                .map(<[Value]>::to_vec)
                .unwrap_or_default();
            if points.len() != n {
                return Err("check: sweep point count".into());
            }
            for (i, p) in points.iter().enumerate() {
                // The value grid exactly as the handler builds it.
                let value = from + (to - from) * (i as f64) / ((n - 1) as f64);
                let mut s = spec.clone();
                s.root.find_mut(block).expect("swept block").params.mtbf = Hours(value);
                let want = reference.expect(&s)?;
                if !close(num(p.get("availability")).unwrap_or(f64::NAN), want.availability) {
                    return Err("check: sweep availability differs from reference".into());
                }
            }
            Ok(())
        }
        Kind::Pool => unreachable!("pool ops are not served"),
    }
}

/// Failure counts by kind.
#[derive(Debug, Default)]
pub struct Failures(pub BTreeMap<String, u64>);

impl Failures {
    pub fn add(&mut self, kind: String) {
        *self.0.entry(kind).or_insert(0) += 1;
    }

    pub fn total(&self) -> u64 {
        self.0.values().sum()
    }

    /// One line per kind, for stderr.
    pub fn report(&self, what: &str) {
        for (kind, n) in &self.0 {
            eprintln!("perfbench: {what}: {n} x {kind}");
        }
    }
}
