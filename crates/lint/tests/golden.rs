//! Golden-file tests: one fixture spec per diagnostic code.
//!
//! Each `tests/fixtures/RASxxx.rascad` trips exactly the code it is
//! named after; the committed `RASxxx.txt` (human table) and
//! `RASxxx.jsonl` (JSON lines) files pin the exact rendering —
//! message wording, source positions, severity, and summary counts.
//! Codes the DSL cannot express (RAS014 needs an API-built spec; the
//! Tier B codes need hand-built chains) are pinned from in-code
//! constructions against the same golden pair.
//!
//! To regenerate after an intentional output change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p rascad-lint --test golden
//! ```

use std::path::{Path, PathBuf};

use rascad_lint::{catalog, lint_spec, render, tier_b, tier_c, LintReport};
use rascad_markov::CtmcBuilder;
use rascad_spec::diag::Severity;

/// Tier A codes with a DSL fixture (all except RAS014, which the DSL
/// parser makes unreachable by auto-provisioning redundancy defaults).
const DSL_CODES: &[&str] = &[
    "RAS001", "RAS002", "RAS003", "RAS004", "RAS005", "RAS006", "RAS007", "RAS008", "RAS009",
    "RAS010", "RAS011", "RAS012", "RAS013", "RAS015", "RAS016", "RAS017", "RAS018", "RAS019",
    "RAS020", "RAS021",
];

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Compares `rendered` against the golden file, or rewrites the golden
/// when `UPDATE_GOLDEN` is set.
fn check_golden(name: &str, extension: &str, rendered: &str) {
    let path = fixtures_dir().join(format!("{name}.{extension}"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {}: {e}; run with UPDATE_GOLDEN=1", path.display())
    });
    assert_eq!(rendered, expected, "golden mismatch for {name}.{extension}");
}

/// Asserts the report contains `code` with its cataloged severity, and
/// pins both renderings.
fn check_report(name: &str, code: &str, report: &LintReport) {
    let entry = catalog::lookup(code).unwrap_or_else(|| panic!("{code} not in catalog"));
    let found = report
        .diagnostics
        .iter()
        .find(|d| d.code == code)
        .unwrap_or_else(|| panic!("{name}: {code} not emitted; got {:?}", report.diagnostics));
    assert_eq!(found.severity, entry.severity, "{name}: severity drifted from catalog");
    check_golden(name, "txt", &render::render_human(report));
    check_golden(name, "jsonl", &render::render_json(report));
}

#[test]
fn dsl_fixtures_match_goldens() {
    for code in DSL_CODES {
        let src = std::fs::read_to_string(fixtures_dir().join(format!("{code}.rascad")))
            .unwrap_or_else(|e| panic!("{code}: {e}"));
        let spec = rascad_spec::SystemSpec::from_dsl(&src)
            .unwrap_or_else(|e| panic!("{code} fixture must parse: {e}"));
        let mut report = lint_spec(&spec);
        rascad_spec::dsl::source_map::annotate(&mut report.diagnostics, &src);
        check_report(code, code, &report);
    }
}

#[test]
fn dsl_fixtures_trip_exactly_their_own_code() {
    // Each fixture isolates one analysis: no stray findings.
    for code in DSL_CODES {
        let src = std::fs::read_to_string(fixtures_dir().join(format!("{code}.rascad"))).unwrap();
        let spec = rascad_spec::SystemSpec::from_dsl(&src).unwrap();
        let report = lint_spec(&spec);
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.iter().all(|c| c == code), "{code}: got {codes:?}");
        assert!(!codes.is_empty(), "{code}: no findings");
    }
}

#[test]
fn dsl_fixture_positions_resolve() {
    // Spot-check that annotation finds the declaring line: in every
    // fixture the offending block is declared past line 1 (fixtures
    // start with a comment).
    for code in ["RAS006", "RAS017", "RAS020"] {
        let src = std::fs::read_to_string(fixtures_dir().join(format!("{code}.rascad"))).unwrap();
        let spec = rascad_spec::SystemSpec::from_dsl(&src).unwrap();
        let mut report = lint_spec(&spec);
        rascad_spec::dsl::source_map::annotate(&mut report.diagnostics, &src);
        let d = report.diagnostics.iter().find(|d| d.code == code).unwrap();
        assert!(d.line.is_some_and(|l| l > 1), "{code}: no position: {d}");
    }
}

#[test]
fn ras014_from_api_matches_golden() {
    // The DSL parser auto-provisions redundancy defaults, so a
    // redundant block without parameters only exists via the API.
    let mut d = rascad_spec::Diagram::new("Plant");
    let mut p = rascad_spec::BlockParams::new("Pump", 2, 1);
    p.redundancy = None;
    d.push(p);
    let spec = rascad_spec::SystemSpec::new(d, rascad_spec::GlobalParams::default());
    check_report("RAS014", "RAS014", &lint_spec(&spec));
}

#[test]
fn tier_b_broken_chain_matches_golden() {
    // Three states, no transitions: unreachable + absorbing ×3 +
    // disconnected, all errors (RAS101–RAS103).
    let mut b = CtmcBuilder::new();
    b.add_state("Ok", 1.0);
    b.add_state("PF1", 0.0);
    b.add_state("PF2", 0.0);
    let chain = b.build().unwrap();
    let mut report = LintReport::new();
    report.extend(tier_b::analyze_chain("Plant/Pump", &chain));
    for code in ["RAS101", "RAS102", "RAS103"] {
        let entry = catalog::lookup(code).unwrap();
        assert_eq!(entry.severity, Severity::Error);
        assert!(report.diagnostics.iter().any(|d| d.code == code), "{code} missing");
    }
    check_golden("tier_b_broken", "txt", &render::render_human(&report));
    check_golden("tier_b_broken", "jsonl", &render::render_json(&report));
}

#[test]
fn tier_b_stiff_chain_matches_golden() {
    // Exit-rate ratio exactly at the warn threshold (inclusive).
    let mut b = CtmcBuilder::new();
    let up = b.add_state("Ok", 1.0);
    let down = b.add_state("Down", 0.0);
    b.add_transition(up, down, 1.0);
    b.add_transition(down, up, tier_b::STIFFNESS_WARN_RATIO);
    let chain = b.build().unwrap();
    let mut report = LintReport::new();
    report.extend(tier_b::analyze_chain("Plant/Pump", &chain));
    check_report("tier_b_stiff", "RAS104", &report);
}

#[test]
fn tier_b_stiffness_note_matches_golden() {
    let mut b = CtmcBuilder::new();
    let up = b.add_state("Ok", 1.0);
    let down = b.add_state("Down", 0.0);
    b.add_transition(up, down, 1.0);
    b.add_transition(down, up, tier_b::STIFFNESS_INFO_RATIO);
    let chain = b.build().unwrap();
    let mut report = LintReport::new();
    report.extend(tier_b::analyze_chain("Plant/Pump", &chain));
    check_report("tier_b_note", "RAS105", &report);
}

#[test]
fn tiers_skipped_note_matches_golden() {
    // The driver appends the RAS199 note when Tier B/C were requested
    // but Tier A errors block model generation.
    let src = std::fs::read_to_string(fixtures_dir().join("RAS199.rascad")).unwrap();
    let spec = rascad_spec::SystemSpec::from_dsl(&src).unwrap();
    let mut report = lint_spec(&spec);
    assert!(report.has_errors(), "fixture must trip a Tier A error");
    report.extend(vec![rascad_lint::tiers_skipped_note(&spec.root.name)]);
    rascad_spec::dsl::source_map::annotate(&mut report.diagnostics, &src);
    check_report("RAS199", "RAS199", &report);
}

#[test]
fn tier_c_structural_fixture_matches_goldens() {
    let src = std::fs::read_to_string(fixtures_dir().join("tier_c_edge.rascad")).unwrap();
    let spec = rascad_spec::SystemSpec::from_dsl(&src).unwrap();
    assert!(lint_spec(&spec).is_clean(), "fixture must pass Tier A");

    let sol = rascad_core::solve_spec(&spec).unwrap();
    let exact = tier_c::ExactSolve {
        system_unavailability: 1.0 - sol.system.availability,
        blocks: sol
            .blocks
            .iter()
            .map(|b| (b.path.clone(), 1.0 - b.measures.availability))
            .collect(),
    };
    let mut report = LintReport::new();
    report.extend(tier_c::analyze_structure(&spec, &tier_c::TierCOptions::default(), Some(&exact)));
    rascad_spec::dsl::source_map::annotate(&mut report.diagnostics, &src);

    // All five Tier C codes fire on this one fixture, at their
    // cataloged severities, with resolved source positions.
    for code in ["RAS201", "RAS202", "RAS203", "RAS204", "RAS205"] {
        let entry = catalog::lookup(code).unwrap();
        let found = report
            .diagnostics
            .iter()
            .find(|d| d.code == code)
            .unwrap_or_else(|| panic!("{code} not emitted: {:?}", report.diagnostics));
        assert_eq!(found.severity, entry.severity, "{code}: severity drifted");
        assert!(found.line.is_some(), "{code}: no source position: {found}");
    }
    // The SPOF maps to the Uplink declaration (line 6, name column).
    let spof = report.diagnostics.iter().find(|d| d.code == "RAS201").unwrap();
    assert_eq!(spof.path, "Edge/Uplink");
    assert_eq!((spof.line, spof.column), (Some(6), Some(11)));

    check_golden("tier_c_edge", "txt", &render::render_human(&report));
    check_golden("tier_c_edge", "jsonl", &render::render_json(&report));
    check_golden(
        "tier_c_edge",
        "sarif",
        &render::render_sarif(&report, Some("tests/fixtures/tier_c_edge.rascad")),
    );
}

#[test]
fn every_cataloged_code_is_golden_tested() {
    let covered: Vec<&str> = DSL_CODES
        .iter()
        .copied()
        .chain([
            "RAS014", "RAS101", "RAS102", "RAS103", "RAS104", "RAS105", "RAS199", "RAS201",
            "RAS202", "RAS203", "RAS204", "RAS205",
        ])
        .collect();
    for entry in catalog::CATALOG {
        assert!(covered.contains(&entry.code), "{} has no golden coverage", entry.code);
    }
}
