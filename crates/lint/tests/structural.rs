//! Tier C structural-analysis properties over every bundled model.
//!
//! The RAS205 contract — the cut-set union bound dominates the exact
//! hierarchical solve — is checked here for each spec under `specs/`
//! and each `rascad-library` model, so a generator or solver change
//! that breaks the bound fails `cargo test`, not just ci.sh.

use rascad_lint::tier_c::{self, ExactSolve, TierCOptions};
use rascad_spec::{Severity, SystemSpec};

fn bundled_specs() -> Vec<(String, SystemSpec)> {
    let specs_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&specs_dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rascad") {
            let text = std::fs::read_to_string(&path).unwrap();
            let spec =
                SystemSpec::from_dsl(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            out.push((path.display().to_string(), spec));
        }
    }
    assert!(!out.is_empty(), "no bundled specs found in {}", specs_dir.display());
    out
}

fn library_models() -> Vec<(String, SystemSpec)> {
    vec![
        ("library:datacenter".into(), rascad_library::datacenter::data_center()),
        ("library:e10000".into(), rascad_library::e10000::e10000()),
        (
            "library:cluster".into(),
            rascad_library::cluster::two_node_cluster(
                rascad_library::cluster::ClusterConfig::default(),
            ),
        ),
        ("library:workgroup".into(), rascad_library::workgroup::workgroup()),
    ]
}

/// The exact solve as `rascad lint --tier-c` feeds it in.
fn exact_solve(spec: &SystemSpec) -> ExactSolve {
    let sol = rascad_core::solve_spec(spec).unwrap();
    ExactSolve {
        system_unavailability: sol.system.unavailability,
        blocks: sol.blocks.iter().map(|b| (b.path.clone(), b.measures.unavailability)).collect(),
    }
}

/// RAS205: on every bundled model the union bound over block-level cut
/// sets is an upper bound on the exact solved unavailability.
#[test]
fn cut_set_bound_dominates_exact_solve_on_all_bundled_models() {
    for (name, spec) in bundled_specs().into_iter().chain(library_models()) {
        let exact = exact_solve(&spec);
        let bound = tier_c::cut_set_bound(&exact);
        assert!(
            bound >= exact.system_unavailability,
            "{name}: bound {bound:.6e} < exact {:.6e}",
            exact.system_unavailability
        );
        // And the analysis itself reports the relation as RAS205.
        let diags = tier_c::analyze_structure(&spec, &TierCOptions::default(), Some(&exact));
        assert!(
            diags.iter().any(|d| d.code == tier_c::codes::CUT_SET_BOUND),
            "{name}: no RAS205 emitted"
        );
    }
}

/// Tier C never blocks bundled models: all findings are informational,
/// so `lint --tier-c --deny warnings` stays green in ci.sh.
#[test]
fn bundled_models_tier_c_findings_are_informational() {
    for (name, spec) in bundled_specs().into_iter().chain(library_models()) {
        let exact = exact_solve(&spec);
        for d in tier_c::analyze_structure(&spec, &TierCOptions::default(), Some(&exact)) {
            assert_eq!(d.severity, Severity::Info, "{name}: {d}");
        }
    }
}

/// Every order-1 cut reported on the bundled specs really is one: the
/// structure function evaluates to "failed" with only that unit down.
#[test]
fn order_one_cuts_on_bundled_specs_are_genuine() {
    for (name, spec) in bundled_specs() {
        let (cuts, _) = tier_c::minimal_cut_sets(&spec, 1);
        for cut in &cuts {
            assert_eq!(cut.len(), 1, "{name}: non-singleton at order 1: {cut:?}");
        }
        // The known SPOFs of the bundled specs surface here.
        let labels: Vec<&str> = cuts.iter().map(|c| c[0].as_str()).collect();
        if name.ends_with("web_service.rascad") {
            assert!(labels.contains(&"Web Service/Database#1"), "{labels:?}");
        }
        if name.ends_with("edge_cache.rascad") {
            assert!(labels.contains(&"Edge Cache/Uplink#1"), "{labels:?}");
        }
    }
}
