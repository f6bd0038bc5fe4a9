//! Multi-pass static analysis for RAScad specs and generated models.
//!
//! The paper's workflow is *capture spec → generate Markov models →
//! solve*. Each stage can silently accept inputs that the next stage
//! mishandles: a spec with `min_quantity > quantity` has no valid
//! model, a chain with an absorbing state has a degenerate steady
//! state, a stiff chain costs an LU cross-check its precision. This
//! crate turns those failure modes into *diagnostics* with stable
//! `RASxxx` codes, reported all at once instead of fail-fast.
//!
//! Analyses run in two tiers:
//!
//! - **Tier A** (spec level, codes `RAS001`–`RAS099`): parameter
//!   sanity, redundancy consistency, and hierarchy structure. The
//!   engine lives in [`rascad_spec::validate::analyze`] so that
//!   [`rascad_spec::SystemSpec::validate`] shares it; [`lint_spec`]
//!   wraps it in a [`LintReport`].
//! - **Tier B** (generated-model level, codes `RAS101`–`RAS198`):
//!   reachability, absorbing states, connectivity, and a stiffness
//!   heuristic over each block's CTMC — see [`tier_b`].
//! - **Tier C** (structural level, codes `RAS201`–`RAS299`): the
//!   spec's hierarchy compiled to a BDD structure function — minimal
//!   cut sets, single points of failure, structural importance, and
//!   symmetry/lumpability classes — see [`tier_c`].
//!
//! `RAS199` is the cross-tier note that Tier B/C were skipped because
//! spec-level errors blocked model generation.
//!
//! [`catalog`] documents every code with an example and a remedy;
//! [`render`] provides the human table, JSON-lines, and SARIF front
//! ends used by `rascad lint`.
//!
//! # Example
//!
//! ```
//! use rascad_lint::{lint_spec, DenyLevel};
//! use rascad_spec::{BlockParams, Diagram, GlobalParams, SystemSpec};
//!
//! let mut d = Diagram::new("Sys");
//! d.push(BlockParams::new("A", 1, 2)); // min_quantity > quantity
//! let report = lint_spec(&SystemSpec::new(d, GlobalParams::default()));
//! assert!(report.has_errors());
//! assert!(report.is_blocking(DenyLevel::Errors));
//! ```

pub mod catalog;
pub mod render;
pub mod tier_b;
pub mod tier_c;

use rascad_spec::diag::{severity_counts, Diagnostic, Severity};
use rascad_spec::SystemSpec;

/// Codes that belong to the lint driver itself rather than one tier.
pub mod codes {
    /// Later tiers skipped: spec-level errors block model generation.
    pub const TIERS_SKIPPED: &str = "RAS199";
}

/// The explicit "not analyzed" note emitted when Tier B/C were
/// requested but spec-level errors prevented model generation, so JSON
/// consumers can distinguish "clean at that tier" from "never ran".
#[must_use]
pub fn tiers_skipped_note(root: &str) -> Diagnostic {
    Diagnostic::new(
        codes::TIERS_SKIPPED,
        Severity::Info,
        root,
        "Tier B/C skipped: model not generated because spec-level errors block generation",
    )
}

/// Which severities cause a lint run to fail (exit nonzero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DenyLevel {
    /// Only error-severity findings block (the default).
    #[default]
    Errors,
    /// Warnings block too (`--deny warnings`). Info never blocks.
    Warnings,
}

/// The collected findings of a lint run, in emission order (Tier A
/// spec-walk order first, then Tier B per-block order).
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Creates an empty report.
    #[must_use]
    pub fn new() -> Self {
        LintReport::default()
    }

    /// Appends findings from another pass.
    pub fn extend(&mut self, diags: Vec<Diagnostic>) {
        self.diagnostics.extend(diags);
    }

    /// Counts per severity: `(errors, warnings, infos)`.
    #[must_use]
    pub fn counts(&self) -> (usize, usize, usize) {
        severity_counts(&self.diagnostics)
    }

    /// Whether any error-severity finding is present.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// Whether the report fails under the given deny level.
    #[must_use]
    pub fn is_blocking(&self, deny: DenyLevel) -> bool {
        let floor = match deny {
            DenyLevel::Errors => Severity::Error,
            DenyLevel::Warnings => Severity::Warning,
        };
        self.diagnostics.iter().any(|d| d.severity >= floor)
    }

    /// Whether the report has no findings at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Runs all Tier A (spec-level) analyses.
///
/// This is [`rascad_spec::validate::analyze`] wrapped in a report; use
/// [`tier_b::analyze_chain`] to extend the report with model-level
/// findings once blocks have been generated.
#[must_use]
pub fn lint_spec(spec: &SystemSpec) -> LintReport {
    let mut span = rascad_obs::span("lint.tier_a");
    span.record("blocks", spec.root.total_blocks());
    let report = LintReport { diagnostics: rascad_spec::validate::analyze(spec) };
    let (errors, warnings, infos) = report.counts();
    span.record("errors", errors);
    span.record("warnings", warnings);
    span.record("infos", infos);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rascad_spec::units::Hours;
    use rascad_spec::{BlockParams, Diagram, GlobalParams};

    fn spec_with(params: BlockParams) -> SystemSpec {
        let mut d = Diagram::new("Sys");
        d.push(params);
        SystemSpec::new(d, GlobalParams::default())
    }

    #[test]
    fn clean_spec_yields_empty_report() {
        let report = lint_spec(&spec_with(BlockParams::new("A", 1, 1)));
        assert!(report.is_clean());
        assert!(!report.is_blocking(DenyLevel::Warnings));
        assert_eq!(report.counts(), (0, 0, 0));
    }

    #[test]
    fn error_blocks_at_both_levels() {
        let report = lint_spec(&spec_with(BlockParams::new("A", 1, 2)));
        assert!(report.has_errors());
        assert!(report.is_blocking(DenyLevel::Errors));
        assert!(report.is_blocking(DenyLevel::Warnings));
    }

    #[test]
    fn warning_blocks_only_under_deny_warnings() {
        // MTTR >= MTBF: warning severity.
        let p = BlockParams::new("A", 1, 1).with_mtbf(Hours(1.0)).with_mttr_parts(
            rascad_spec::units::Minutes(40.0),
            rascad_spec::units::Minutes(40.0),
            rascad_spec::units::Minutes(40.0),
        );
        let report = lint_spec(&spec_with(p));
        assert!(!report.has_errors());
        assert!(!report.is_blocking(DenyLevel::Errors));
        assert!(report.is_blocking(DenyLevel::Warnings));
    }

    #[test]
    fn every_tier_a_finding_has_a_catalog_entry() {
        // Feed a spec tripping many analyses and check each emitted
        // code is documented.
        let mut d = Diagram::new("Sys");
        d.push(BlockParams::new("A", 1, 2).with_mtbf(Hours(-3.0)));
        d.push(BlockParams::new("A", 0, 0));
        let report = lint_spec(&SystemSpec::new(d, GlobalParams::default()));
        assert!(!report.is_clean());
        for diag in &report.diagnostics {
            assert!(
                catalog::lookup(diag.code).is_some(),
                "code {} missing from catalog",
                diag.code
            );
        }
    }
}
