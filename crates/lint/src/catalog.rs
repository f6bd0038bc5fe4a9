//! The diagnostic catalog: one entry per `RASxxx` code.
//!
//! Every code the engine can emit is documented here with its default
//! severity, a one-line title, a minimal example that triggers it, and
//! the remedy. `rascad lint --explain RASxxx` prints an entry; the
//! README's catalog table is generated from the same wording.

use rascad_spec::diag::Severity;
use rascad_spec::validate::codes as tier_a;

use crate::tier_b::codes as tier_b;
use crate::tier_c::codes as tier_c;

/// Documentation for one diagnostic code.
#[derive(Debug, Clone, Copy)]
pub struct CatalogEntry {
    /// Stable code, e.g. `"RAS006"`.
    pub code: &'static str,
    /// Severity the engine emits this code with.
    pub severity: Severity,
    /// One-line title.
    pub title: &'static str,
    /// A minimal way to trigger the finding.
    pub example: &'static str,
    /// How to fix it.
    pub remedy: &'static str,
}

/// Every diagnostic code, ordered by code. Tier A (`RAS001`–`RAS099`)
/// covers spec-level analyses; Tier B (`RAS101`–`RAS198`) covers
/// generated-model analyses; `RAS199` is the cross-tier skip note;
/// Tier C (`RAS201`–`RAS299`) covers structural analyses over the
/// compiled structure function.
pub const CATALOG: &[CatalogEntry] = &[
    CatalogEntry {
        code: tier_a::EMPTY_DIAGRAM,
        severity: Severity::Error,
        title: "diagram has no blocks",
        example: "diagram \"Sys\" { }",
        remedy: "add at least one block, or remove the empty subdiagram",
    },
    CatalogEntry {
        code: tier_a::DUPLICATE_BLOCK,
        severity: Severity::Error,
        title: "two blocks in one diagram share a name",
        example: "two `block \"CPU\"` entries in the same diagram",
        remedy: "rename one block; paths must be unambiguous",
    },
    CatalogEntry {
        code: tier_a::BLANK_NAME,
        severity: Severity::Error,
        title: "block or diagram name is blank",
        example: "block \"\" { … }",
        remedy: "give every block and diagram a non-empty name",
    },
    CatalogEntry {
        code: tier_a::ZERO_QUANTITY,
        severity: Severity::Error,
        title: "quantity is zero",
        example: "quantity = 0",
        remedy: "set quantity to the number of installed units (≥ 1)",
    },
    CatalogEntry {
        code: tier_a::ZERO_MIN_QUANTITY,
        severity: Severity::Error,
        title: "minimum quantity required is zero",
        example: "min_quantity = 0",
        remedy: "set min_quantity to the units needed for service (≥ 1)",
    },
    CatalogEntry {
        code: tier_a::MIN_EXCEEDS_QUANTITY,
        severity: Severity::Error,
        title: "minimum quantity exceeds quantity (N < K)",
        example: "quantity = 1 with min_quantity = 2",
        remedy: "install at least min_quantity units, or lower the requirement",
    },
    CatalogEntry {
        code: tier_a::NONPOSITIVE_MTBF,
        severity: Severity::Error,
        title: "MTBF is zero or negative",
        example: "mtbf = 0 h",
        remedy: "set a positive MTBF; permanent failures need a rate",
    },
    CatalogEntry {
        code: tier_a::NEGATIVE_FIT,
        severity: Severity::Error,
        title: "transient failure rate (FIT) is negative",
        example: "transient_fit = -10 fit",
        remedy: "use 0 for no transient failures, a positive FIT otherwise",
    },
    CatalogEntry {
        code: tier_a::NEGATIVE_MTTR,
        severity: Severity::Error,
        title: "an MTTR part is negative",
        example: "mttr_diagnosis = -5 min",
        remedy: "all MTTR parts (diagnosis/correction/verification) must be ≥ 0",
    },
    CatalogEntry {
        code: tier_a::ZERO_TOTAL_MTTR,
        severity: Severity::Error,
        title: "the MTTR parts sum to zero",
        example: "all three mttr_* parts set to 0 min",
        remedy: "repairs take time; give at least one MTTR part a positive value",
    },
    CatalogEntry {
        code: tier_a::NEGATIVE_SERVICE_RESPONSE,
        severity: Severity::Error,
        title: "service response time is negative",
        example: "service_response = -4 h",
        remedy: "use 0 for on-site staff, a positive duration otherwise",
    },
    CatalogEntry {
        code: tier_a::PROBABILITY_RANGE,
        severity: Severity::Error,
        title: "a probability parameter is outside [0, 1]",
        example: "p_correct_diagnosis = 1.5",
        remedy: "probabilities (pcd, p_latent_fault, p_spf) must be within [0, 1]",
    },
    CatalogEntry {
        code: tier_a::REDUNDANCY_ON_NONREDUNDANT,
        severity: Severity::Error,
        title: "redundancy section on a non-redundant block",
        example: "quantity = 1, min_quantity = 1, plus a redundancy { … } section",
        remedy: "drop the redundancy section, or make the block redundant (N > K)",
    },
    CatalogEntry {
        code: tier_a::REDUNDANCY_MISSING,
        severity: Severity::Error,
        title: "redundant block lacks redundancy parameters",
        example: "BlockParams with quantity 2, min 1 and redundancy = None (API only)",
        remedy: "attach RedundancyParams; the DSL parser provisions defaults",
    },
    CatalogEntry {
        code: tier_a::GLOBAL_PARAM,
        severity: Severity::Error,
        title: "a global parameter is out of range",
        example: "global { mttm = -24 h }",
        remedy: "fix the offending global; the message names it",
    },
    CatalogEntry {
        code: tier_a::REDUNDANCY_DURATION,
        severity: Severity::Error,
        title: "a redundancy duration is negative",
        example: "failover_time = -5 min",
        remedy: "failover/SPF-recovery/reintegration times and MTTDLF must be ≥ 0",
    },
    CatalogEntry {
        code: tier_a::MTTR_GE_MTBF,
        severity: Severity::Warning,
        title: "MTTR is not smaller than MTBF",
        example: "mtbf = 1 h with MTTR parts summing to 2 h",
        remedy: "check the units; a unit in repair longer than in service is implausible",
    },
    CatalogEntry {
        code: tier_a::IMPLAUSIBLE_UNITS,
        severity: Severity::Warning,
        title: "a duration looks like a unit mix-up",
        example: "mtbf = 0.5 h (likely meant 0.5 years), or an MTTR part over a week",
        remedy: "re-check the h/min suffix on the named parameter",
    },
    CatalogEntry {
        code: tier_a::IGNORED_SCENARIO_DURATION,
        severity: Severity::Warning,
        title: "duration configured for a transparent scenario",
        example: "recovery = transparent with failover_time = 5 min",
        remedy: "transparent events have no downtime: zero the duration or make \
                 the scenario nontransparent",
    },
    CatalogEntry {
        code: tier_a::HIERARCHY_RECURSION,
        severity: Severity::Warning,
        title: "block name repeats along its ancestor chain",
        example: "block \"Node\" containing a subdiagram with another block \"Node\"",
        remedy: "rename the inner block; repeated names suggest an unintended paste",
    },
    CatalogEntry {
        code: tier_a::LOW_PCD,
        severity: Severity::Info,
        title: "probability of correct diagnosis is low",
        example: "p_correct_diagnosis = 0.4",
        remedy: "values below 0.5 dominate the availability via repeat repairs; \
                 confirm the figure is intentional",
    },
    CatalogEntry {
        code: tier_b::UNREACHABLE_STATE,
        severity: Severity::Error,
        title: "chain state unreachable from the initial state",
        example: "a hand-built CTMC whose \"Down\" state has no inbound transition",
        remedy: "generated chains are always reachable; for hand-built chains, \
                 add the missing failure transition",
    },
    CatalogEntry {
        code: tier_b::ABSORBING_STATE,
        severity: Severity::Error,
        title: "chain state has no outgoing transitions",
        example: "a CTMC whose \"SPF\" state lacks a repair transition",
        remedy: "availability chains must return toward Ok from every state; \
                 add the repair/recovery transition",
    },
    CatalogEntry {
        code: tier_b::DISCONNECTED_CHAIN,
        severity: Severity::Error,
        title: "chain splits into disconnected components",
        example: "two independent up/down cycles in one CTMC",
        remedy: "a block's chain must be one component; split the model into \
                 separate blocks instead",
    },
    CatalogEntry {
        code: tier_b::STIFF_CHAIN,
        severity: Severity::Warning,
        title: "state exit rates span ≥ 1e9 (stiff chain)",
        example: "mtbf = 1e9 h next to failover_time = 1 min",
        remedy: "solve with the GTH direct method; power iteration converges \
                 slowly and LU loses precision on stiff chains",
    },
    CatalogEntry {
        code: tier_b::STIFFNESS_NOTE,
        severity: Severity::Info,
        title: "state exit rates span ≥ 1e6",
        example: "typical hardware MTBFs next to minute-scale repairs",
        remedy: "no action needed; GTH is the numerically safest solver choice",
    },
    CatalogEntry {
        code: crate::codes::TIERS_SKIPPED,
        severity: Severity::Info,
        title: "Tier B/C skipped: model not generated",
        example: "lint --tier-b (or --tier-c) on a spec with Tier A errors",
        remedy: "fix the spec-level errors first; later tiers need a generated \
                 model, so their absence here means \"not analyzed\", not \"clean\"",
    },
    CatalogEntry {
        code: tier_c::SINGLE_POINT_OF_FAILURE,
        severity: Severity::Info,
        title: "single point of failure (order-1 minimal cut set)",
        example: "quantity = 1 with min_quantity = 1 anywhere in the hierarchy",
        remedy: "add redundancy (quantity > min_quantity) if the availability \
                 target demands it; in a serial RBD every margin-free block is \
                 expected to appear here",
    },
    CatalogEntry {
        code: tier_c::IDLE_REDUNDANCY,
        severity: Severity::Info,
        title: "redundancy absent from every analyzed minimal cut set",
        example: "quantity = 8 with min_quantity = 2 under --max-cut-order 4",
        remedy: "the margin exceeds the analysis depth: raise --max-cut-order to \
                 see the block's cuts, or trim sparing the structure never needs",
    },
    CatalogEntry {
        code: tier_c::STRUCTURAL_IMPORTANCE,
        severity: Severity::Info,
        title: "top-k structural importance (Birnbaum at p = 1/2)",
        example: "any structure; the least-redundant blocks rank first",
        remedy: "no action needed; spend redundancy on the top-ranked blocks \
                 first when searching the design space",
    },
    CatalogEntry {
        code: tier_c::SYMMETRY_CLASS,
        severity: Severity::Info,
        title: "symmetry class of interchangeable components",
        example: "quantity = 3 identical units, or two sibling blocks equal up \
                 to naming",
        remedy: "no action needed; the class is exactly lumpable, so a \
                 symmetry-aware solver can collapse its state space",
    },
    CatalogEntry {
        code: tier_c::CUT_SET_BOUND,
        severity: Severity::Info,
        title: "cut-set unavailability upper bound vs the exact solve",
        example: "lint --tier-c on any spec the exact solver accepts",
        remedy: "no action needed; if the exact unavailability ever exceeded the \
                 union bound, the generator and solver would disagree — report it",
    },
];

/// Looks up a code (e.g. `"RAS006"`), case-sensitively.
#[must_use]
pub fn lookup(code: &str) -> Option<&'static CatalogEntry> {
    CATALOG.iter().find(|e| e.code == code)
}

/// Renders one entry as the multi-line `--explain` text.
#[must_use]
pub fn explain(entry: &CatalogEntry) -> String {
    format!(
        "{code} ({severity}): {title}\n  example: {example}\n  remedy:  {remedy}\n",
        code = entry.code,
        severity = entry.severity,
        title = entry.title,
        example = entry.example,
        remedy = entry.remedy,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_sorted() {
        for pair in CATALOG.windows(2) {
            assert!(pair[0].code < pair[1].code, "{} !< {}", pair[0].code, pair[1].code);
        }
    }

    #[test]
    fn lookup_finds_known_codes() {
        assert_eq!(lookup("RAS006").unwrap().severity, Severity::Error);
        assert_eq!(lookup("RAS104").unwrap().severity, Severity::Warning);
        assert!(lookup("RAS999").is_none());
    }

    #[test]
    fn every_tier_a_code_is_cataloged() {
        use rascad_spec::validate::codes::*;
        for code in [
            EMPTY_DIAGRAM,
            DUPLICATE_BLOCK,
            BLANK_NAME,
            ZERO_QUANTITY,
            ZERO_MIN_QUANTITY,
            MIN_EXCEEDS_QUANTITY,
            NONPOSITIVE_MTBF,
            NEGATIVE_FIT,
            NEGATIVE_MTTR,
            ZERO_TOTAL_MTTR,
            NEGATIVE_SERVICE_RESPONSE,
            PROBABILITY_RANGE,
            REDUNDANCY_ON_NONREDUNDANT,
            REDUNDANCY_MISSING,
            GLOBAL_PARAM,
            REDUNDANCY_DURATION,
            MTTR_GE_MTBF,
            IMPLAUSIBLE_UNITS,
            IGNORED_SCENARIO_DURATION,
            HIERARCHY_RECURSION,
            LOW_PCD,
        ] {
            assert!(lookup(code).is_some(), "{code} missing from catalog");
        }
    }

    #[test]
    fn explain_mentions_code_and_remedy() {
        let text = explain(lookup("RAS104").unwrap());
        assert!(text.contains("RAS104") && text.contains("GTH"));
    }

    /// Catalog integrity: every code registered anywhere in this crate
    /// (Tier A, B, C, and the driver's own codes) has an entry with a
    /// non-empty example and remedy, and `explain` round-trips all of
    /// the entry's documentation fields.
    #[test]
    fn every_registered_code_is_cataloged_with_example_and_remedy() {
        let tier_a: &[&str] = &{
            use rascad_spec::validate::codes::*;
            [
                EMPTY_DIAGRAM,
                DUPLICATE_BLOCK,
                BLANK_NAME,
                ZERO_QUANTITY,
                ZERO_MIN_QUANTITY,
                MIN_EXCEEDS_QUANTITY,
                NONPOSITIVE_MTBF,
                NEGATIVE_FIT,
                NEGATIVE_MTTR,
                ZERO_TOTAL_MTTR,
                NEGATIVE_SERVICE_RESPONSE,
                PROBABILITY_RANGE,
                REDUNDANCY_ON_NONREDUNDANT,
                REDUNDANCY_MISSING,
                GLOBAL_PARAM,
                REDUNDANCY_DURATION,
                MTTR_GE_MTBF,
                IMPLAUSIBLE_UNITS,
                IGNORED_SCENARIO_DURATION,
                HIERARCHY_RECURSION,
                LOW_PCD,
            ]
        };
        let tier_b: &[&str] = &{
            use crate::tier_b::codes::*;
            [UNREACHABLE_STATE, ABSORBING_STATE, DISCONNECTED_CHAIN, STIFF_CHAIN, STIFFNESS_NOTE]
        };
        let tier_c: &[&str] = &{
            use crate::tier_c::codes::*;
            [
                SINGLE_POINT_OF_FAILURE,
                IDLE_REDUNDANCY,
                STRUCTURAL_IMPORTANCE,
                SYMMETRY_CLASS,
                CUT_SET_BOUND,
            ]
        };
        let driver: &[&str] = &[crate::codes::TIERS_SKIPPED];

        let registered: Vec<&str> = [tier_a, tier_b, tier_c, driver].concat();
        // Every registered code is documented, non-trivially.
        for code in &registered {
            let entry = lookup(code).unwrap_or_else(|| panic!("{code} missing from catalog"));
            assert!(!entry.title.trim().is_empty(), "{code}: empty title");
            assert!(!entry.example.trim().is_empty(), "{code}: empty example");
            assert!(!entry.remedy.trim().is_empty(), "{code}: empty remedy");
            let text = explain(entry);
            for field in [entry.code, entry.title, entry.example, entry.remedy] {
                assert!(text.contains(field), "{code}: explain drops {field:?}");
            }
        }
        // And nothing is documented that the engine never emits.
        for entry in CATALOG {
            assert!(
                registered.contains(&entry.code),
                "{} cataloged but registered nowhere in crates/lint",
                entry.code
            );
        }
    }
}
