//! Tier C: qualitative structural analysis (codes `RAS201`–`RAS299`).
//!
//! Tiers A and B check parameters and per-block chains; Tier C reasons
//! about the *structure*: which combinations of unit failures down the
//! whole system. The spec's series/parallel/k-out-of-n hierarchy is
//! compiled into a boolean failure function over one variable per
//! installed unit (a block with `quantity = N` and `min_quantity = K`
//! fails when at least `N − K + 1` of its units fail; a diagram fails
//! when any of its blocks fails — the paper's serial RBD), represented
//! as a reduced-ordered BDD ([`rascad_rbd::bdd`]). From the BDD the
//! pass derives:
//!
//! - **RAS201** — order-1 minimal cut sets: single points of failure.
//! - **RAS202** — redundancy absent from every minimal cut set up to
//!   the analysis order: sparing that low-order failures never test.
//! - **RAS203** — top-k blocks by Birnbaum structural importance at
//!   p = 1/2 (the design-search ranking hook).
//! - **RAS204** — symmetry classes of interchangeable units/blocks,
//!   each exactly lumpable (the hook for symmetry-aware state lumping).
//! - **RAS205** — a cut-set union bound on system unavailability that
//!   must dominate the exact hierarchical solve.
//!
//! All Tier C findings are informational: in the paper's serial-RBD
//! style every non-redundant block is an expected single point of
//! failure, so the value lies in the explicit, source-mapped
//! enumeration, not in blocking the build.

use std::cmp::Ordering;

use rascad_rbd::bdd::{Bdd, NodeId, FALSE};
use rascad_spec::diag::{Diagnostic, Severity};
use rascad_spec::{Block, Diagram, SystemSpec};

/// Stable Tier C diagnostic codes.
pub mod codes {
    /// Order-1 minimal cut set: one unit failure downs the system.
    pub const SINGLE_POINT_OF_FAILURE: &str = "RAS201";
    /// Redundant block absent from every analyzed minimal cut set.
    pub const IDLE_REDUNDANCY: &str = "RAS202";
    /// Top-k structural-importance ranking (Birnbaum at p = 1/2).
    pub const STRUCTURAL_IMPORTANCE: &str = "RAS203";
    /// Symmetry class of interchangeable components (exactly lumpable).
    pub const SYMMETRY_CLASS: &str = "RAS204";
    /// Cut-set unavailability upper bound vs the exact solve.
    pub const CUT_SET_BOUND: &str = "RAS205";
}

/// Default cut-set order cap (`lint --max-cut-order`).
pub const DEFAULT_MAX_CUT_ORDER: usize = 4;

/// How many blocks the RAS203 importance ranking reports.
pub const IMPORTANCE_TOP_K: usize = 5;

/// Tier C knobs.
#[derive(Debug, Clone, Copy)]
pub struct TierCOptions {
    /// Enumerate minimal cut sets up to this order (≥ 1). The BDD
    /// itself is exact; the cap bounds only the explicit enumeration.
    pub max_cut_order: usize,
    /// Blocks reported by the RAS203 importance ranking.
    pub top_importance: usize,
}

impl Default for TierCOptions {
    fn default() -> Self {
        TierCOptions { max_cut_order: DEFAULT_MAX_CUT_ORDER, top_importance: IMPORTANCE_TOP_K }
    }
}

/// Exact solver results feeding the RAS205 cross-check: the caller
/// (the CLI, or a test) solves the spec with `rascad-core` and hands
/// the measured unavailabilities over, keeping this crate free of a
/// solver dependency.
#[derive(Debug, Clone, Default)]
pub struct ExactSolve {
    /// The system unavailability from the exact hierarchical solve
    /// (rolled up from the blocks', never negative).
    pub system_unavailability: f64,
    /// `(block path, the unavailability of the block's own chain)` for
    /// every block in the hierarchy.
    pub blocks: Vec<(String, f64)>,
}

/// The RAS205 bound: the system availability is the product of every
/// block's chain availability (the paper's flat series RBD), so each
/// block is an order-1 block-level minimal cut set and Boole's union
/// bound gives `U_sys = 1 − Π(1 − u_b) ≤ Σ u_b`, always dominating the
/// exact solve.
#[must_use]
pub fn cut_set_bound(exact: &ExactSolve) -> f64 {
    exact.blocks.iter().map(|(_, u)| u).sum()
}

/// One block of the compiled structure function.
struct BlockNode<'a> {
    /// Slash path, root diagram name first.
    path: String,
    /// Enclosing scope (root diagram name or parent block path).
    parent: String,
    /// Installed units (`quantity`).
    quantity: usize,
    /// Redundancy margin `N − K`.
    margin: usize,
    /// First failure-variable index of this block's own units.
    first_var: usize,
    /// Variables spanned by the block *and its subdiagram* (the
    /// contiguous range `first_var..first_var + total_vars`).
    total_vars: usize,
    /// The spec block, for parameter-equality grouping.
    spec: &'a Block,
}

/// The spec compiled to a failure BDD plus the block/variable maps.
struct Structure<'a> {
    bdd: Bdd,
    /// Root failure function ψ (monotone increasing in unit failures).
    failure: NodeId,
    /// Blocks in depth-first walk order.
    blocks: Vec<BlockNode<'a>>,
    /// Total unit variables.
    num_vars: usize,
}

impl Structure<'_> {
    /// `var → index into blocks` for the block owning each unit.
    fn var_owner(&self) -> Vec<usize> {
        let mut owner = vec![0; self.num_vars];
        for (bi, b) in self.blocks.iter().enumerate() {
            for slot in &mut owner[b.first_var..b.first_var + b.quantity] {
                *slot = bi;
            }
        }
        owner
    }
}

/// Compiles the spec's hierarchy into a failure BDD. Variable order is
/// depth-first walk order, so a block's units (and its subdiagram's)
/// occupy one contiguous index range.
fn compile(spec: &SystemSpec) -> Structure<'_> {
    let mut bdd = Bdd::new();
    let mut blocks = Vec::new();
    let mut next_var = 0;
    let failure =
        compile_diagram(&mut bdd, &spec.root, &spec.root.name, &mut next_var, &mut blocks);
    Structure { bdd, failure, blocks, num_vars: next_var }
}

fn compile_diagram<'a>(
    bdd: &mut Bdd,
    diagram: &'a Diagram,
    prefix: &str,
    next_var: &mut usize,
    out: &mut Vec<BlockNode<'a>>,
) -> NodeId {
    let mut failure = FALSE;
    for block in &diagram.blocks {
        let path = format!("{prefix}/{}", block.params.name);
        let quantity = block.params.quantity as usize;
        let first_var = *next_var;
        *next_var += quantity;
        let unit_vars: Vec<NodeId> = (first_var..*next_var).map(|v| bdd.var(v)).collect();
        // The block fails when fewer than K units work, i.e. at least
        // N − K + 1 fail. Tier C runs on Tier-A-clean specs (1 ≤ K ≤ N);
        // saturation keeps hostile inputs from panicking.
        let need = quantity.saturating_sub(block.params.min_quantity as usize) + 1;
        let own = bdd.at_least_of(&unit_vars, need);
        let index = out.len();
        out.push(BlockNode {
            path: path.clone(),
            parent: prefix.to_string(),
            quantity,
            margin: block.params.margin() as usize,
            first_var,
            total_vars: 0,
            spec: block,
        });
        let block_failure = match &block.subdiagram {
            // A refined component is down when its own chain-level
            // failure occurs or its internals fail (the solver
            // multiplies both availabilities through).
            Some(sub) => {
                let sub_failure = compile_diagram(bdd, sub, &path, next_var, out);
                bdd.or(own, sub_failure)
            }
            None => own,
        };
        out[index].total_vars = *next_var - first_var;
        failure = bdd.or(failure, block_failure);
    }
    failure
}

/// `block` with every name cleared, recursively: two blocks compare
/// equal iff their numeric parameters and structure are identical.
fn neutralized(block: &Block) -> Block {
    let mut b = block.clone();
    b.params.name.clear();
    b.params.part_number = None;
    b.params.description = None;
    if let Some(sub) = &mut b.subdiagram {
        neutralize_diagram(sub);
    }
    b
}

fn neutralize_diagram(diagram: &mut Diagram) {
    diagram.name.clear();
    for block in &mut diagram.blocks {
        *block = neutralized(block);
    }
}

/// Minimal cut sets of the spec's structure function up to
/// `max_order`, each cut as sorted `path#unit` labels (units 1-based).
/// The boolean is true when cuts of higher order exist beyond the cap.
#[must_use]
pub fn minimal_cut_sets(spec: &SystemSpec, max_order: usize) -> (Vec<Vec<String>>, bool) {
    let mut s = compile(spec);
    let owner = s.var_owner();
    let minsol = s.bdd.minimal_solutions(s.failure);
    let (sets, truncated) = s.bdd.solutions_up_to(minsol, max_order);
    let labeled = sets
        .into_iter()
        .map(|cut| {
            cut.into_iter()
                .map(|v| {
                    let b = &s.blocks[owner[v]];
                    format!("{}#{}", b.path, v - b.first_var + 1)
                })
                .collect()
        })
        .collect();
    (labeled, truncated)
}

/// Runs every Tier C analysis over the spec's structure function.
///
/// Pass the exact solve (when available) to emit the RAS205
/// bound-vs-exact cross-check; without it the pass still reports
/// RAS201–RAS204.
#[must_use]
#[allow(clippy::cast_precision_loss)] // node and cut-set counts stay far below 2^52
pub fn analyze_structure(
    spec: &SystemSpec,
    opts: &TierCOptions,
    exact: Option<&ExactSolve>,
) -> Vec<Diagnostic> {
    let mut span = rascad_obs::span("lint.tier_c");
    rascad_obs::counter("lint.tier_c.runs", 1);

    let mut s = compile(spec);
    let owner = s.var_owner();
    let minsol = s.bdd.minimal_solutions(s.failure);
    let (cuts, truncated) = s.bdd.solutions_up_to(minsol, opts.max_cut_order.max(1));

    span.record("blocks", s.blocks.len());
    span.record("unit_vars", s.num_vars);
    span.record("bdd_nodes", s.bdd.node_count());
    span.record("cut_sets", cuts.len());
    span.record("truncated", usize::from(truncated));
    rascad_obs::record_value("lint.tier_c.bdd_nodes", s.bdd.node_count() as f64);
    rascad_obs::record_value("lint.tier_c.cut_sets", cuts.len() as f64);

    let mut diags = Vec::new();
    single_points_of_failure(&s, &owner, &cuts, &mut diags);
    idle_redundancy(&s, &cuts, opts, &mut diags);
    importance_ranking(&mut s, opts, &mut diags);
    symmetry_classes(&mut s, &mut diags);
    if let Some(exact) = exact {
        cut_set_bound_check(spec, exact, &mut diags);
    }
    diags
}

/// RAS201: one finding per block owning an order-1 minimal cut set.
fn single_points_of_failure(
    s: &Structure<'_>,
    owner: &[usize],
    cuts: &[Vec<usize>],
    diags: &mut Vec<Diagnostic>,
) {
    let mut flagged = vec![false; s.blocks.len()];
    for cut in cuts.iter().filter(|c| c.len() == 1) {
        flagged[owner[cut[0]]] = true;
    }
    for (bi, b) in s.blocks.iter().enumerate().filter(|(bi, _)| flagged[*bi]) {
        let _ = bi;
        let message = if b.quantity == 1 {
            "single point of failure: the failure of this block's only unit is an \
             order-1 minimal cut set"
                .to_string()
        } else {
            format!(
                "single point of failure: any one of the {} units failing is an \
                 order-1 minimal cut set (quantity = min_quantity leaves no margin)",
                b.quantity
            )
        };
        diags.push(Diagnostic::new(
            codes::SINGLE_POINT_OF_FAILURE,
            Severity::Info,
            &b.path,
            message,
        ));
    }
}

/// RAS202: redundant blocks none of whose units appears in any
/// enumerated minimal cut set — sparing that low-order failure
/// combinations never exercise.
fn idle_redundancy(
    s: &Structure<'_>,
    cuts: &[Vec<usize>],
    opts: &TierCOptions,
    diags: &mut Vec<Diagnostic>,
) {
    let mut in_cut = vec![false; s.num_vars];
    for &v in cuts.iter().flatten() {
        in_cut[v] = true;
    }
    for b in s.blocks.iter().filter(|b| b.margin >= 1) {
        if (b.first_var..b.first_var + b.quantity).any(|v| in_cut[v]) {
            continue;
        }
        diags.push(Diagnostic::new(
            codes::IDLE_REDUNDANCY,
            Severity::Info,
            &b.path,
            format!(
                "redundancy untested at this depth: no unit appears in any minimal \
                 cut set up to order {}; the margin of {} spare unit(s) rides out \
                 every analyzed failure combination",
                opts.max_cut_order, b.margin
            ),
        ));
    }
}

/// RAS203: the top-k blocks by per-unit Birnbaum structural importance
/// at p = 1/2 (units within a block are symmetric, so one unit stands
/// in for all).
fn importance_ranking(s: &mut Structure<'_>, opts: &TierCOptions, diags: &mut Vec<Diagnostic>) {
    if opts.top_importance == 0 {
        return;
    }
    let imp = s.bdd.birnbaum_half(s.failure, s.num_vars);
    let mut ranked: Vec<(usize, f64)> = s
        .blocks
        .iter()
        .enumerate()
        .map(|(bi, b)| {
            let unit_max =
                (b.first_var..b.first_var + b.quantity).map(|v| imp[v]).fold(0.0_f64, f64::max);
            (bi, unit_max)
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(Ordering::Equal)
            .then_with(|| s.blocks[a.0].path.cmp(&s.blocks[b.0].path))
    });
    let k = opts.top_importance.min(ranked.len());
    for (rank, (bi, value)) in ranked[..k].iter().enumerate() {
        diags.push(Diagnostic::new(
            codes::STRUCTURAL_IMPORTANCE,
            Severity::Info,
            &s.blocks[*bi].path,
            format!(
                "structural importance rank {}/{}: Birnbaum measure {:.3e} per unit \
                 at p = 1/2",
                rank + 1,
                k,
                value
            ),
        ));
    }
}

/// RAS204: symmetry classes — first the interchangeable units inside
/// each multi-unit block, then structurally identical sibling blocks.
/// Every claim is verified on the structure function itself (adjacent
/// transpositions for units, a whole-range variable swap for blocks),
/// so the note is a sound input for exact state lumping.
fn symmetry_classes(s: &mut Structure<'_>, diags: &mut Vec<Diagnostic>) {
    // (a) Units within one block: adjacent transpositions generate the
    // full symmetric group on the block's unit variables.
    for bi in 0..s.blocks.len() {
        let (path, quantity, first) =
            (s.blocks[bi].path.clone(), s.blocks[bi].quantity, s.blocks[bi].first_var);
        if quantity < 2 {
            continue;
        }
        let symmetric =
            (first..first + quantity - 1).all(|v| s.bdd.symmetric_in(s.failure, v, v + 1));
        if !symmetric {
            continue;
        }
        diags.push(Diagnostic::new(
            codes::SYMMETRY_CLASS,
            Severity::Info,
            path,
            format!(
                "symmetry class: the {quantity} units are interchangeable (verified \
                 on the structure function), so the 2^{quantity} unit-state space is \
                 exactly lumpable to {} occupancy states",
                quantity + 1
            ),
        ));
    }

    // (b) Sibling blocks with identical parameters and structure.
    let mut claimed = vec![false; s.blocks.len()];
    for i in 0..s.blocks.len() {
        if claimed[i] {
            continue;
        }
        let mut members = vec![i];
        let reference = neutralized(s.blocks[i].spec);
        // `j` indexes both `claimed` and `s.blocks`; an iterator form
        // would need a split borrow for no clarity gain.
        #[allow(clippy::needless_range_loop)]
        for j in i + 1..s.blocks.len() {
            if claimed[j]
                || s.blocks[j].parent != s.blocks[i].parent
                || s.blocks[j].total_vars != s.blocks[i].total_vars
            {
                continue;
            }
            if neutralized(s.blocks[j].spec) == reference && blocks_swap_invariant(s, i, j) {
                members.push(j);
                claimed[j] = true;
            }
        }
        if members.len() < 2 {
            continue;
        }
        let peers: Vec<&str> = members[1..].iter().map(|&m| s.blocks[m].path.as_str()).collect();
        diags.push(Diagnostic::new(
            codes::SYMMETRY_CLASS,
            Severity::Info,
            s.blocks[i].path.clone(),
            format!(
                "symmetry class: structurally identical to {} (parameters equal up \
                 to naming, swap-invariance verified on the structure function); the \
                 {} blocks are interchangeable and jointly lumpable",
                peers.join(", "),
                members.len()
            ),
        ));
    }
}

/// Whether swapping the whole variable ranges of blocks `i` and `j`
/// (same span) leaves the failure function unchanged.
fn blocks_swap_invariant(s: &mut Structure<'_>, i: usize, j: usize) -> bool {
    let (a, b) = (&s.blocks[i], &s.blocks[j]);
    let span = a.total_vars;
    if span != b.total_vars {
        return false;
    }
    let (a0, b0) = (a.first_var, b.first_var);
    let mut perm: Vec<usize> = (0..s.num_vars).collect();
    for offset in 0..span {
        perm[a0 + offset] = b0 + offset;
        perm[b0 + offset] = a0 + offset;
    }
    s.bdd.rename_monotone(s.failure, &perm) == s.failure
}

/// RAS205: the union bound over block-level cut sets must dominate the
/// exact hierarchical solve.
fn cut_set_bound_check(spec: &SystemSpec, exact: &ExactSolve, diags: &mut Vec<Diagnostic>) {
    let bound = cut_set_bound(exact);
    diags.push(Diagnostic::new(
        codes::CUT_SET_BOUND,
        Severity::Info,
        &spec.root.name,
        format!(
            "cut-set bound check: exact system unavailability {:.3e} <= {:.3e}, the \
             union bound over the {} block-level order-1 cut sets of the flat series \
             structure",
            exact.system_unavailability,
            bound,
            exact.blocks.len()
        ),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rascad_spec::{BlockParams, GlobalParams};

    fn spec(blocks: Vec<BlockParams>) -> SystemSpec {
        let mut d = Diagram::new("Sys");
        for b in blocks {
            d.push(b);
        }
        SystemSpec::new(d, GlobalParams::default())
    }

    fn codes_of(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn spof_reported_for_non_redundant_blocks() {
        let s = spec(vec![BlockParams::new("A", 1, 1), BlockParams::new("B", 2, 1)]);
        let diags = analyze_structure(&s, &TierCOptions::default(), None);
        let spofs: Vec<&Diagnostic> =
            diags.iter().filter(|d| d.code == codes::SINGLE_POINT_OF_FAILURE).collect();
        assert_eq!(spofs.len(), 1);
        assert_eq!(spofs[0].path, "Sys/A");
        assert_eq!(spofs[0].severity, Severity::Info);
    }

    #[test]
    fn quantity_equals_min_quantity_is_a_spof_per_unit() {
        // 3-of-3: each of the three units is an order-1 cut.
        let s = spec(vec![BlockParams::new("Trio", 3, 3)]);
        let diags = analyze_structure(&s, &TierCOptions::default(), None);
        let spof = diags.iter().find(|d| d.code == codes::SINGLE_POINT_OF_FAILURE).unwrap();
        assert!(spof.message.contains("any one of the 3 units"), "{}", spof.message);
    }

    #[test]
    fn idle_redundancy_fires_beyond_the_order_cap() {
        // Margin 6: the smallest cut through the block has order 7.
        let s = spec(vec![BlockParams::new("Farm", 8, 2), BlockParams::new("Gate", 1, 1)]);
        let opts = TierCOptions { max_cut_order: 4, ..Default::default() };
        let diags = analyze_structure(&s, &opts, None);
        let idle = diags.iter().find(|d| d.code == codes::IDLE_REDUNDANCY).unwrap();
        assert_eq!(idle.path, "Sys/Farm");
        assert!(idle.message.contains("6 spare unit(s)"), "{}", idle.message);
        // Raising the cap past the margin clears the finding.
        let opts = TierCOptions { max_cut_order: 7, ..Default::default() };
        let diags = analyze_structure(&s, &opts, None);
        assert!(!codes_of(&diags).contains(&codes::IDLE_REDUNDANCY));
    }

    #[test]
    fn importance_ranks_the_spof_first() {
        let s = spec(vec![
            BlockParams::new("Mirrors", 2, 1),
            BlockParams::new("Spof", 1, 1),
            BlockParams::new("Bank", 4, 2),
        ]);
        let diags = analyze_structure(&s, &TierCOptions::default(), None);
        let ranked: Vec<&Diagnostic> =
            diags.iter().filter(|d| d.code == codes::STRUCTURAL_IMPORTANCE).collect();
        assert_eq!(ranked.len(), 3);
        assert_eq!(ranked[0].path, "Sys/Spof");
        assert!(ranked[0].message.starts_with("structural importance rank 1/3"));
    }

    #[test]
    fn symmetry_covers_units_and_identical_siblings() {
        let s = spec(vec![
            BlockParams::new("Store 1", 8, 7),
            BlockParams::new("Store 2", 8, 7),
            BlockParams::new("Head", 1, 1),
        ]);
        let diags = analyze_structure(&s, &TierCOptions::default(), None);
        let sym: Vec<&Diagnostic> =
            diags.iter().filter(|d| d.code == codes::SYMMETRY_CLASS).collect();
        // Two per-block unit classes + one sibling class.
        assert_eq!(sym.len(), 3);
        assert!(sym[0].message.contains("exactly lumpable to 9 occupancy states"));
        let sibling = sym.iter().find(|d| d.message.contains("Sys/Store 2")).unwrap();
        assert_eq!(sibling.path, "Sys/Store 1");
    }

    #[test]
    fn different_parameters_break_the_sibling_class() {
        let s = spec(vec![
            BlockParams::new("Store 1", 8, 7),
            BlockParams::new("Store 2", 8, 7).with_mtbf(rascad_spec::units::Hours(1234.0)),
        ]);
        let diags = analyze_structure(&s, &TierCOptions::default(), None);
        assert!(
            !diags
                .iter()
                .any(|d| d.code == codes::SYMMETRY_CLASS
                    && d.message.contains("structurally identical")),
            "{diags:?}"
        );
    }

    #[test]
    fn cut_set_bound_dominates_and_reports() {
        let exact = ExactSolve {
            system_unavailability: 3.9e-4,
            blocks: vec![("Sys/A".into(), 2e-4), ("Sys/B".into(), 2e-4)],
        };
        assert!(cut_set_bound(&exact) >= exact.system_unavailability);
        let s = spec(vec![BlockParams::new("A", 1, 1), BlockParams::new("B", 1, 1)]);
        let diags = analyze_structure(&s, &TierCOptions::default(), Some(&exact));
        let bound = diags.iter().find(|d| d.code == codes::CUT_SET_BOUND).unwrap();
        assert_eq!(bound.path, "Sys");
        assert!(bound.message.contains("2 block-level"), "{}", bound.message);
    }

    #[test]
    fn cut_sets_cross_validate_against_explicit_enumeration() {
        // Mixed hierarchy, 11 units: series(Gate, 2-of-3 Bank,
        // Box{ Inner 1-of-2, Core }) — small enough for the explicit
        // exponential enumerator in rascad_rbd::paths.
        let mut sub = Diagram::new("ignored");
        sub.push(BlockParams::new("Inner", 2, 1));
        sub.push(BlockParams::new("Core", 1, 1));
        let mut root = Diagram::new("Sys");
        root.push(BlockParams::new("Gate", 1, 1));
        root.push(BlockParams::new("Bank", 3, 2));
        root.push_block(rascad_spec::Block::with_subdiagram(BlockParams::new("Box", 2, 1), sub));
        let spec = SystemSpec::new(root, GlobalParams::default());

        // Reference: the same structure as an explicit RBD over unit
        // components (ids in walk order, as compile() assigns them).
        use rascad_rbd::Rbd;
        let reference = Rbd::series(vec![
            Rbd::component(0),                                    // Gate
            Rbd::k_of_n(2, (1..4).map(Rbd::component).collect()), // Bank
            Rbd::series(vec![
                // Box: its own 1-of-2 units AND its internals must work.
                Rbd::k_of_n(1, vec![Rbd::component(4), Rbd::component(5)]),
                Rbd::k_of_n(1, vec![Rbd::component(6), Rbd::component(7)]), // Inner
                Rbd::component(8),                                          // Core
            ]),
        ]);
        let mut expected: Vec<Vec<usize>> = rascad_rbd::paths::minimal_cut_sets(&reference)
            .into_iter()
            .map(|s| s.into_iter().collect())
            .collect();
        expected.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));

        let (cuts, truncated) = minimal_cut_sets(&spec, 16);
        assert!(!truncated);
        // Map labels back to variable indices for the comparison.
        let labels = [
            "Sys/Gate#1",
            "Sys/Bank#1",
            "Sys/Bank#2",
            "Sys/Bank#3",
            "Sys/Box#1",
            "Sys/Box#2",
            "Sys/Box/Inner#1",
            "Sys/Box/Inner#2",
            "Sys/Box/Core#1",
        ];
        let got: Vec<Vec<usize>> = cuts
            .iter()
            .map(|cut| cut.iter().map(|l| labels.iter().position(|x| x == l).unwrap()).collect())
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn subdiagram_blocks_get_their_own_variables_and_findings() {
        let mut sub = Diagram::new("ignored");
        sub.push(BlockParams::new("Engine", 1, 1));
        let mut root = Diagram::new("Sys");
        root.push_block(rascad_spec::Block::with_subdiagram(BlockParams::new("Server", 1, 1), sub));
        let spec = SystemSpec::new(root, GlobalParams::default());
        let diags = analyze_structure(&spec, &TierCOptions::default(), None);
        let spof_paths: Vec<&str> = diags
            .iter()
            .filter(|d| d.code == codes::SINGLE_POINT_OF_FAILURE)
            .map(|d| d.path.as_str())
            .collect();
        assert_eq!(spof_paths, vec!["Sys/Server", "Sys/Server/Engine"]);
    }
}
