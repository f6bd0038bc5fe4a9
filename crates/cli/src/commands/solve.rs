//! `solve` and `dot` commands.

use rascad_core::{generator::generate_block, report, solve_spec, SystemSolution};
use rascad_obs::trace::SolveTrace;
use rascad_spec::SystemSpec;

use super::CliError;

/// Solves a spec and renders the report.
///
/// `--strict` (default) fails fast on the first unsolvable block;
/// `--best-effort` rolls failed blocks up as explicit availability
/// bounds and reports the partial result via [`CliError::Partial`]
/// (exit code 8). `--inject <plan.toml>` installs a deterministic fault
/// plan for the duration of the solve — only in builds with the
/// `fault-inject` feature. `--explain` appends the per-solver
/// convergence traces and per-block solution certificates to the
/// report; `--convergence-out FILE` writes the traces as a versioned
/// JSON document (schema `rascad-convergence/v1`, validated before it
/// is written).
pub fn solve(spec: &SystemSpec, args: &[&str]) -> Result<String, CliError> {
    let mut best_effort = false;
    let mut explain = false;
    let mut convergence_out: Option<&str> = None;
    let mut plan_path: Option<&str> = None;
    let mut it = args.iter().copied();
    while let Some(a) = it.next() {
        match a {
            "--strict" => best_effort = false,
            "--best-effort" => best_effort = true,
            "--explain" => explain = true,
            "--convergence-out" => {
                convergence_out = Some(
                    it.next().ok_or_else(|| CliError::usage("--convergence-out needs a file"))?,
                );
            }
            "--inject" => {
                plan_path = Some(
                    it.next().ok_or_else(|| CliError::usage("--inject needs a fault-plan file"))?,
                );
            }
            other => return Err(CliError::usage(format!("unknown solve option `{other}`"))),
        }
    }
    let _guard = install_plan(plan_path)?;
    let tracing = explain || convergence_out.is_some();
    if tracing {
        // Disarm first: a clean ring, not leftovers of an earlier solve
        // in this process.
        rascad_obs::trace::disarm();
        rascad_obs::trace::arm();
    }
    let result = if best_effort {
        rascad_core::solve_spec_best_effort(spec, rascad_markov::SteadyStateMethod::Gth)
    } else {
        solve_spec(spec)
    };
    let traces = if tracing { rascad_obs::trace::solves() } else { Vec::new() };
    let doc = if convergence_out.is_some() { Some(rascad_obs::trace::dump()) } else { None };
    if tracing {
        rascad_obs::trace::disarm();
    }
    // The convergence document is written even when the solve failed —
    // the trace of a diverging solve is exactly what a post-mortem
    // needs.
    if let (Some(path), Some(doc)) = (convergence_out, &doc) {
        rascad_obs::trace::validate(doc).map_err(|e| {
            CliError::usage(format!("internal: convergence document failed validation: {e}"))
        })?;
        let mut text = doc.to_string_pretty();
        text.push('\n');
        std::fs::write(path, text)
            .map_err(|source| CliError::Io { path: path.to_string(), source })?;
    }
    let sol = result?;
    let mut rendered = report::system_report(&spec.root.name, &sol);
    if explain {
        rendered.push_str(&explain_sections(&sol, &traces));
    }
    if best_effort && sol.is_degraded() {
        return Err(CliError::Partial(rendered));
    }
    Ok(rendered)
}

/// Renders the `--explain` appendix: the convergence-trace table and
/// the per-block solution certificates.
fn explain_sections(sol: &SystemSolution, traces: &[SolveTrace]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\nConvergence traces ({} solve(s))\n", traces.len()));
    out.push_str(&format!(
        "  {:<10} {:<10} {:>6} {:>7} {:<13} {:>12} {:>10}\n",
        "method", "metric", "states", "steps", "outcome", "final", "elapsed"
    ));
    for t in traces {
        let last = t.steps.last().map_or("-".to_string(), |s| format!("{:.3e}", s.value));
        out.push_str(&format!(
            "  {:<10} {:<10} {:>6} {:>7} {:<13} {:>12} {:>8}us\n",
            t.method, t.metric, t.states, t.total_steps, t.outcome, last, t.elapsed_us
        ));
    }
    out.push_str("\nSolution certificates\n");
    out.push_str(&format!(
        "  {:<40} {:<7} {:<7} {:>12} {:>12} {:>10}\n",
        "block", "method", "verdict", "residual", "mass error", "condest"
    ));
    for b in &sol.blocks {
        let c = &b.certificate;
        let condest = c.condition_estimate.map_or("-".to_string(), |k| format!("{k:.3e}"));
        out.push_str(&format!(
            "  {:<40} {:<7} {:<7} {:>12.3e} {:>12.3e} {:>10}\n",
            b.path, c.method, c.verdict, c.residual_inf, c.prob_mass_error, condest
        ));
        if c.trail.len() > 1 {
            out.push_str(&format!("    trail: {}\n", c.trail.join("; ")));
        }
    }
    out
}

/// Reads, parses, and installs a fault plan; the returned guard keeps
/// it active until the solve finishes.
#[cfg(feature = "fault-inject")]
fn install_plan(path: Option<&str>) -> Result<Option<rascad_fault::PlanGuard>, CliError> {
    let Some(path) = path else { return Ok(None) };
    let text = std::fs::read_to_string(path)
        .map_err(|source| CliError::Io { path: path.to_string(), source })?;
    let plan = rascad_fault::FaultPlan::parse(&text)
        .map_err(|e| CliError::usage(format!("bad fault plan `{path}`: {e}")))?;
    Ok(Some(rascad_fault::PlanGuard::install(plan)))
}

/// Without the `fault-inject` feature there are no injection points in
/// the pipeline, so `--inject` must be an explicit error rather than a
/// silent no-op.
#[cfg(not(feature = "fault-inject"))]
fn install_plan(path: Option<&str>) -> Result<Option<()>, CliError> {
    match path {
        None => Ok(None),
        Some(_) => Err(CliError::usage(
            "this build has no fault-injection support; rebuild with `--features fault-inject`",
        )),
    }
}

/// Renders one block's generated chain as DOT.
pub fn dot(spec: &SystemSpec, block_path: &str) -> Result<String, CliError> {
    let block = spec
        .root
        .find(block_path)
        .ok_or_else(|| CliError::usage(format!("no block at path `{block_path}`")))?;
    let model = generate_block(&block.params, &spec.globals)?;
    Ok(report::chain_dot(&model))
}

/// Prints the first-failure mode attribution for one block.
pub fn modes(spec: &SystemSpec, block_path: &str) -> Result<String, CliError> {
    let block = spec
        .root
        .find(block_path)
        .ok_or_else(|| CliError::usage(format!("no block at path `{block_path}`")))?;
    let model = generate_block(&block.params, &spec.globals)?;
    let attribution = rascad_core::measures::failure_mode_attribution(&model)?;
    let mut out = format!(
        "first-failure mode attribution for \"{}\" (type {}, {} states):\n",
        block_path,
        model.model_type,
        model.state_count()
    );
    for (label, p) in attribution {
        out.push_str(&format!("  {label:<16} {:>7.3}%\n", p * 100.0));
    }
    Ok(out)
}

/// Prints the system-level block importance ranking.
pub fn importance(spec: &SystemSpec) -> Result<String, CliError> {
    let sol = solve_spec(spec)?;
    let ranking = sol.block_importance()?;
    let mut out = format!(
        "system-level block importance for \"{}\" (availability {:.9}):\n",
        spec.root.name, sol.system.availability
    );
    out.push_str(&format!(
        "{:<52} {:>12} {:>12} {:>12}\n",
        "block", "birnbaum", "criticality", "improvement"
    ));
    for (name, c) in ranking {
        out.push_str(&format!(
            "{:<52} {:>12.6} {:>12.6} {:>12.3e}\n",
            name, c.birnbaum, c.criticality, c.improvement_potential
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rascad_library::datacenter::data_center;

    #[test]
    fn solve_renders_report() {
        let _lock = crate::commands::obs_test_lock();
        let out = solve(&data_center(), &[]).unwrap();
        assert!(out.contains("System steady-state availability"));
        assert!(out.contains("Data Center System"));
    }

    #[test]
    fn best_effort_on_a_clean_spec_matches_strict() {
        let _lock = crate::commands::obs_test_lock();
        let strict = solve(&data_center(), &["--strict"]).unwrap();
        let best = solve(&data_center(), &["--best-effort"]).unwrap();
        assert_eq!(strict, best);
        assert!(!strict.contains("PARTIAL RESULT"));
    }

    #[test]
    fn unknown_solve_option_is_a_usage_error() {
        let err = solve(&data_center(), &["--frobnicate"]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let err = solve(&data_center(), &["--inject"]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[cfg(not(feature = "fault-inject"))]
    #[test]
    fn inject_without_the_feature_is_an_explicit_error() {
        let err = solve(&data_center(), &["--inject", "/no/such/plan.toml"]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("fault-inject"), "{err}");
    }

    #[test]
    fn explain_appends_traces_and_certificates() {
        let _lock = crate::commands::obs_test_lock();
        let out = solve(&data_center(), &["--explain"]).unwrap();
        // The plain report is still there...
        assert!(out.contains("System steady-state availability"));
        // ...followed by the convergence-trace table...
        assert!(out.contains("Convergence traces"), "{out}");
        assert!(out.contains("gth"), "{out}");
        // ...and the certificate table with one row per solved block.
        assert!(out.contains("Solution certificates"), "{out}");
        assert!(out.contains("verdict"), "{out}");
        assert!(out.matches(" ok ").count() >= 23, "{out}");
        // Tracing is disarmed again afterwards.
        assert!(!rascad_obs::trace::armed());
    }

    /// A spec whose chains no other test solves: the process-global
    /// engine cache must miss, so the traced run actually invokes the
    /// solvers (a fully-cached solve correctly records zero traces).
    fn uncached_spec() -> rascad_spec::SystemSpec {
        use rascad_spec::units::Hours;
        let mut root = rascad_spec::Diagram::new("TraceMe");
        root.push(rascad_spec::BlockParams::new("Odd", 3, 2).with_mtbf(Hours(123_456.7)));
        root.push(rascad_spec::BlockParams::new("Ball", 2, 1).with_mtbf(Hours(98_765.4)));
        rascad_spec::SystemSpec::new(root, rascad_spec::GlobalParams::default())
    }

    #[test]
    fn convergence_out_round_trips_through_the_validator() {
        let _lock = crate::commands::obs_test_lock();
        let dir = std::env::temp_dir().join(format!("rascad-conv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("conv.json");
        let path_str = path.to_str().unwrap();

        let out = solve(&uncached_spec(), &["--convergence-out", path_str]).unwrap();
        // Without --explain the report itself is unchanged.
        assert!(!out.contains("Convergence traces"));

        let text = std::fs::read_to_string(&path).unwrap();
        let doc = rascad_obs::json::parse(&text).expect("file is valid JSON");
        let solves = rascad_obs::trace::validate(&doc).expect("document is schema-valid");
        assert!(solves > 0, "the solve must have recorded at least one trace");
        assert!(text.contains("rascad-convergence/v1"));
        assert!(!rascad_obs::trace::armed());
        std::fs::remove_dir_all(&dir).ok();

        // A missing operand is a usage error.
        let err = solve(&data_center(), &["--convergence-out"]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn dot_renders_chain() {
        let out = dot(&data_center(), "Server Box/System Board").unwrap();
        assert!(out.contains("digraph"));
        assert!(out.contains("Ok"));
    }

    #[test]
    fn dot_unknown_block() {
        assert!(dot(&data_center(), "Ghost").is_err());
    }

    #[test]
    fn importance_ranks_all_blocks() {
        let _lock = crate::commands::obs_test_lock();
        let out = importance(&data_center()).unwrap();
        assert!(out.contains("criticality"));
        // Every block path appears.
        assert_eq!(out.matches("Data Center System/").count(), 23);
    }

    #[test]
    fn modes_renders_attribution() {
        let out = modes(&data_center(), "Server Box/System Board").unwrap();
        assert!(out.contains("first-failure mode attribution"));
        assert!(out.contains('%'));
        assert!(modes(&data_center(), "Ghost").is_err());
    }
}
