//! `rascad lint` — run the static analyzer on a specification.
//!
//! Tier A (spec analyses) always runs; Tier B (generated-model
//! analyses) runs when Tier A found no errors, since generating models
//! from an erroneous spec would either fail or analyze garbage; Tier C
//! (structural analyses over the BDD-compiled structure function)
//! opts in via `--tier-c` under the same gate. When later tiers are
//! requested but Tier A errors block them, an explicit `RAS199` note
//! marks the report as "not analyzed" rather than "clean". Findings
//! print as a human table, JSON lines, or SARIF; blocking findings
//! (errors, or warnings under `--deny warnings`) exit with code 7.

use rascad_lint::{lint_spec, render, tier_b, tier_c, DenyLevel, LintReport};

use super::CliError;

/// Output format for the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Human,
    Json,
    Sarif,
}

/// Parsed `lint` arguments.
struct LintArgs<'a> {
    spec: Option<&'a str>,
    format: Format,
    deny: DenyLevel,
    tier_b: bool,
    tier_c: bool,
    max_cut_order: usize,
    explain: Option<&'a str>,
}

fn parse_args<'a>(args: &[&'a str]) -> Result<LintArgs<'a>, CliError> {
    let mut parsed = LintArgs {
        spec: None,
        format: Format::Human,
        deny: DenyLevel::Errors,
        tier_b: true,
        tier_c: false,
        max_cut_order: tier_c::DEFAULT_MAX_CUT_ORDER,
        explain: None,
    };
    let mut it = args.iter().copied();
    while let Some(a) = it.next() {
        match a {
            "--format" => {
                parsed.format = match it.next() {
                    Some("human") => Format::Human,
                    Some("json") => Format::Json,
                    Some("sarif") => Format::Sarif,
                    other => {
                        return Err(CliError::usage(format!(
                            "--format needs `human`, `json`, or `sarif`, got `{}`",
                            other.unwrap_or("nothing")
                        )));
                    }
                };
            }
            "--deny" => match it.next() {
                Some("warnings") => parsed.deny = DenyLevel::Warnings,
                other => {
                    return Err(CliError::usage(format!(
                        "--deny supports `warnings`, got `{}`",
                        other.unwrap_or("nothing")
                    )));
                }
            },
            "--no-tier-b" => parsed.tier_b = false,
            "--tier-c" => parsed.tier_c = true,
            "--max-cut-order" => {
                let value =
                    it.next().ok_or_else(|| CliError::usage("--max-cut-order needs a number"))?;
                parsed.max_cut_order = match value.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        return Err(CliError::usage(format!(
                            "--max-cut-order needs an integer >= 1, got `{value}`"
                        )));
                    }
                };
            }
            "--explain" => {
                parsed.explain = Some(
                    it.next().ok_or_else(|| CliError::usage("--explain needs a RASxxx code"))?,
                );
            }
            other if parsed.spec.is_none() && !other.starts_with("--") => {
                parsed.spec = Some(other);
            }
            other => {
                return Err(CliError::usage(format!("unknown lint argument `{other}`")));
            }
        }
    }
    Ok(parsed)
}

/// Runs the `lint` subcommand.
pub fn lint(args: &[&str]) -> Result<String, CliError> {
    let parsed = parse_args(args)?;
    if let Some(code) = parsed.explain {
        let entry = rascad_lint::catalog::lookup(code).ok_or_else(|| {
            CliError::usage(format!("unknown diagnostic code `{code}`; codes are RAS001–RAS205"))
        })?;
        return Ok(rascad_lint::catalog::explain(entry));
    }

    let path =
        parsed.spec.ok_or_else(|| CliError::usage("lint needs a spec file argument (or `-`)"))?;
    let (spec, source) = load_with_source(path)?;

    let mut report = lint_spec(&spec);
    if report.has_errors() {
        if parsed.tier_b || parsed.tier_c {
            report.extend(vec![rascad_lint::tiers_skipped_note(&spec.root.name)]);
        }
    } else {
        if parsed.tier_b {
            run_tier_b(&spec, &mut report);
        }
        if parsed.tier_c {
            run_tier_c(&spec, parsed.max_cut_order, &mut report);
        }
    }
    // Annotate last so Tier B/C findings get source positions too.
    if let Some(src) = &source {
        rascad_spec::dsl::source_map::annotate(&mut report.diagnostics, src);
    }

    let rendered = match parsed.format {
        Format::Human => render::render_human(&report),
        Format::Json => render::render_json(&report),
        Format::Sarif => render::render_sarif(&report, Some(path).filter(|p| *p != "-")),
    };
    if report.is_blocking(parsed.deny) {
        Err(CliError::Lint(rendered))
    } else {
        Ok(rendered)
    }
}

/// Loads a spec, keeping the DSL source text for position annotation.
/// `-` reads the DSL from stdin.
fn load_with_source(path: &str) -> Result<(rascad_spec::SystemSpec, Option<String>), CliError> {
    if path == "-" {
        let mut text = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut text)
            .map_err(|source| CliError::Io { path: "<stdin>".to_string(), source })?;
        let spec = rascad_spec::SystemSpec::from_dsl(&text)?;
        return Ok((spec, Some(text)));
    }
    let text = std::fs::read_to_string(path)
        .map_err(|source| CliError::Io { path: path.to_string(), source })?;
    if path.ends_with(".json") {
        Ok((rascad_spec::SystemSpec::from_json(&text)?, None))
    } else {
        let spec = rascad_spec::SystemSpec::from_dsl(&text)?;
        Ok((spec, Some(text)))
    }
}

/// Generates every block's chain and runs the Tier B analyses.
fn run_tier_b(spec: &rascad_spec::SystemSpec, report: &mut LintReport) {
    let mut diags = Vec::new();
    spec.root.walk(&mut |_, path, block| {
        // Blocks that fail generation are a solver concern, not a lint
        // finding; `solve` reports them with full context.
        if let Ok(m) = rascad_core::generate_block(&block.params, &spec.globals) {
            diags.extend(tier_b::analyze_chain(path, &m.chain));
        }
    });
    report.extend(diags);
}

/// Runs the Tier C structural analyses, feeding the exact solve in
/// for the RAS205 bound cross-check when the solver accepts the spec.
fn run_tier_c(spec: &rascad_spec::SystemSpec, max_cut_order: usize, report: &mut LintReport) {
    let exact = rascad_core::solve_spec(spec).ok().map(|sol| tier_c::ExactSolve {
        system_unavailability: sol.system.unavailability,
        blocks: sol.blocks.iter().map(|b| (b.path.clone(), b.measures.unavailability)).collect(),
    });
    let opts = tier_c::TierCOptions { max_cut_order, ..Default::default() };
    report.extend(tier_c::analyze_structure(spec, &opts, exact.as_ref()));
}

/// Tier A gate run before `solve`/`sweep`/`simulate` (unless
/// `--no-lint`): warnings and notes go to stderr, errors abort with
/// every diagnostic attached.
pub fn tier_a_gate(spec: &rascad_spec::SystemSpec) -> Result<(), CliError> {
    let report = lint_spec(spec);
    if report.has_errors() {
        return Err(CliError::Spec(rascad_spec::SpecError::Invalid {
            diagnostics: report.diagnostics,
        }));
    }
    for d in &report.diagnostics {
        eprintln!("{d}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, text: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    const BAD_SPEC: &str = r#"
diagram "Sys" {
    block "A" {
        quantity = 1
        min_quantity = 2
        mtbf = 10000 h
    }
}
"#;

    #[test]
    fn lint_rejects_bad_spec_with_lint_error() {
        let path = write_temp("rascad_lint_bad.rascad", BAD_SPEC);
        let err = lint(&[path.to_str().unwrap()]).unwrap_err();
        match &err {
            CliError::Lint(report) => {
                assert!(report.contains("RAS006"), "{report}");
                // Source positions resolved: block A declared on line 3.
                assert!(report.contains(":3:"), "{report}");
            }
            other => panic!("expected Lint error, got {other:?}"),
        }
        assert_eq!(err.exit_code(), 7);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lint_accepts_clean_spec() {
        let spec = rascad_library::e10000::e10000();
        let path = write_temp("rascad_lint_ok.rascad", &spec.to_dsl());
        let out = lint(&[path.to_str().unwrap()]).unwrap();
        assert!(out.ends_with("info(s)\n") || out == "no findings\n", "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn json_format_emits_summary_line() {
        let spec = rascad_library::e10000::e10000();
        let path = write_temp("rascad_lint_json.rascad", &spec.to_dsl());
        let out = lint(&[path.to_str().unwrap(), "--format", "json"]).unwrap();
        let last = out.lines().last().unwrap();
        assert!(last.starts_with("{\"type\":\"summary\""), "{last}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deny_warnings_blocks_warning_findings() {
        // MTTR of 2 h against an MTBF of 1 h: RAS017, warning.
        let text = r#"
diagram "Sys" {
    block "A" {
        quantity = 1
        min_quantity = 1
        mtbf = 1 h
        mttr_diagnosis = 120 min
    }
}
"#;
        let path = write_temp("rascad_lint_warn.rascad", text);
        let p = path.to_str().unwrap();
        // Warnings alone do not block by default...
        assert!(lint(&[p]).is_ok());
        // ...but do under --deny warnings.
        let err = lint(&[p, "--deny", "warnings"]).unwrap_err();
        assert_eq!(err.exit_code(), 7);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn explain_prints_catalog_entry() {
        let out = lint(&["--explain", "RAS006"]).unwrap();
        assert!(out.contains("RAS006") && out.contains("remedy"));
        assert!(lint(&["--explain", "RAS999"]).is_err());
    }

    #[test]
    fn bad_arguments_are_usage_errors() {
        assert!(matches!(lint(&["--format", "xml"]), Err(CliError::Usage(_))));
        assert!(matches!(lint(&["--deny", "errors"]), Err(CliError::Usage(_))));
        assert!(matches!(lint(&[]), Err(CliError::Usage(_))));
        assert!(matches!(lint(&["--max-cut-order", "0"]), Err(CliError::Usage(_))));
        assert!(matches!(lint(&["--max-cut-order", "many"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn tier_c_reports_structural_findings_with_positions() {
        let _lock = crate::commands::obs_test_lock();
        // "Database" is the SPOF; declared on line 8, name at column 11.
        let text = r#"
diagram "Shop" {
    block "Web" {
        quantity = 2
        min_quantity = 1
        mtbf = 50000 h
    }
    block "Database" {
        quantity = 1
        min_quantity = 1
        mtbf = 80000 h
    }
}
"#;
        let path = write_temp("rascad_lint_tier_c.rascad", text);
        let out = lint(&[path.to_str().unwrap(), "--tier-c", "--format", "json"]).unwrap();
        let ras201 = out
            .lines()
            .find(|l| l.contains("\"code\":\"RAS201\""))
            .unwrap_or_else(|| panic!("no RAS201 in {out}"));
        assert!(ras201.contains("\"path\":\"Shop/Database\""), "{ras201}");
        assert!(ras201.contains("\"line\":8"), "{ras201}");
        assert!(ras201.contains("\"column\":11"), "{ras201}");
        for code in ["RAS203", "RAS204", "RAS205"] {
            assert!(out.contains(&format!("\"code\":\"{code}\"")), "no {code} in {out}");
        }
        // Info findings never block, even under --deny warnings.
        assert!(lint(&[path.to_str().unwrap(), "--tier-c", "--deny", "warnings"]).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn max_cut_order_controls_idle_redundancy() {
        let _lock = crate::commands::obs_test_lock();
        // Margin 5 on "Farm": invisible at order 4, a RAS202 finding.
        let text = r#"
diagram "Grid" {
    block "Farm" {
        quantity = 6
        min_quantity = 1
        mtbf = 30000 h
    }
    block "Meter" {
        quantity = 1
        min_quantity = 1
        mtbf = 90000 h
    }
}
"#;
        let path = write_temp("rascad_lint_cut_order.rascad", text);
        let p = path.to_str().unwrap();
        let out = lint(&[p, "--tier-c", "--format", "json"]).unwrap();
        assert!(out.contains("\"code\":\"RAS202\""), "{out}");
        let out = lint(&[p, "--tier-c", "--max-cut-order", "6", "--format", "json"]).unwrap();
        assert!(!out.contains("\"code\":\"RAS202\""), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tier_a_errors_emit_explicit_skip_note() {
        let path = write_temp("rascad_lint_skip.rascad", BAD_SPEC);
        let err = lint(&[path.to_str().unwrap(), "--tier-c", "--format", "json"]).unwrap_err();
        match &err {
            CliError::Lint(report) => {
                assert!(report.contains("\"code\":\"RAS199\""), "{report}");
                assert!(report.contains("Tier B/C skipped"), "{report}");
            }
            other => panic!("expected Lint error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sarif_format_names_the_artifact() {
        let _lock = crate::commands::obs_test_lock();
        let spec = rascad_library::e10000::e10000();
        let path = write_temp("rascad_lint_sarif.rascad", &spec.to_dsl());
        let out = lint(&[path.to_str().unwrap(), "--tier-c", "--format", "sarif"]).unwrap();
        assert!(out.contains("\"version\":\"2.1.0\""), "{out}");
        assert!(out.contains("\"name\":\"rascad-lint\""), "{out}");
        assert!(out.contains("rascad_lint_sarif.rascad"), "{out}");
        assert!(out.contains("\"ruleId\":\"RAS201\""), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn gate_rejects_invalid_spec_with_all_diagnostics() {
        let spec = rascad_spec::SystemSpec::from_dsl(BAD_SPEC).unwrap();
        let err = tier_a_gate(&spec).unwrap_err();
        assert_eq!(err.exit_code(), 3);
        match err {
            CliError::Spec(rascad_spec::SpecError::Invalid { diagnostics }) => {
                assert!(diagnostics.iter().any(|d| d.code == "RAS006"));
            }
            other => panic!("expected Spec(Invalid), got {other:?}"),
        }
    }
}
