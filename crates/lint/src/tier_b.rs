//! Tier B: analyses over generated per-block Markov chains.
//!
//! The generator (paper Section 4) emits one CTMC per redundant block.
//! A well-formed availability chain is irreducible: every state is
//! reachable from the initial `Ok` state, no state is absorbing, and
//! the whole chain is one component. Violations make the steady-state
//! solve either fail outright or silently return a degenerate
//! distribution, so they are reported as errors *before* solving.
//!
//! Stiffness is different: a chain whose transition rates span many
//! orders of magnitude (hardware MTBFs of 1e5 h against failover times
//! of minutes give rate ratios near 1e7) is still solvable, but power
//! iteration converges slowly and LU accumulates round-off. The
//! stiffness heuristic recommends the GTH direct solver, which is
//! subtraction-free and immune to the problem.

use rascad_markov::dense::DenseMatrix;
use rascad_markov::{Ctmc, MarkovError, SolveOptions, SteadyStateMethod};
use rascad_spec::diag::{Diagnostic, Severity};

/// Exit-rate ratio (max/min over states with a positive exit rate) at
/// or above which a chain is flagged as stiff with warning severity
/// ([`codes::STIFF_CHAIN`]).
///
/// Calibrated above the bundled paper models: the Figures 1–2 data
/// center peaks at a ratio of ~1.1e7 (Interconnect Cable), which is
/// ordinary for hardware availability models and at most earns the
/// info-level note.
pub const STIFFNESS_WARN_RATIO: f64 = 1e9;

/// Rate ratio at or above which a note ([`codes::STIFFNESS_NOTE`]) is
/// emitted with info severity.
pub const STIFFNESS_INFO_RATIO: f64 = 1e6;

/// How many state labels a summary message lists before eliding.
const MAX_LISTED_STATES: usize = 5;

/// Chains above this size skip the measured condition estimate the
/// stiffness hints cite: the Hager estimator needs a dense `O(n³)`
/// factorization. Matches the certification layer's bound.
pub const CONDEST_MAX_STATES: usize = 128;

/// Iteration cap of the measured power-method probe the stiffness
/// hints cite. Generous enough that a well-conditioned chain converges
/// and cheap enough to run inside a lint pass.
pub const PROBE_MAX_ITERATIONS: usize = 512;

/// Tier B diagnostic codes.
pub mod codes {
    /// A state cannot be reached from the initial state.
    pub const UNREACHABLE_STATE: &str = "RAS101";
    /// A state has no outgoing transitions.
    pub const ABSORBING_STATE: &str = "RAS102";
    /// The chain splits into multiple disconnected components.
    pub const DISCONNECTED_CHAIN: &str = "RAS103";
    /// Transition rates span ≥ [`super::STIFFNESS_WARN_RATIO`].
    pub const STIFF_CHAIN: &str = "RAS104";
    /// Transition rates span ≥ [`super::STIFFNESS_INFO_RATIO`].
    pub const STIFFNESS_NOTE: &str = "RAS105";
}

/// Runs every Tier B analysis on one block's chain. `path` is the
/// block's slash path, used as the diagnostic location.
#[must_use]
pub fn analyze_chain(path: &str, chain: &Ctmc) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    reachability(path, chain, &mut diags);
    absorbing(path, chain, &mut diags);
    connectivity(path, chain, &mut diags);
    stiffness(path, chain, &mut diags);
    diags
}

/// Joins up to [`MAX_LISTED_STATES`] labels, eliding the rest.
fn list_labels(chain: &Ctmc, ids: &[usize]) -> String {
    let mut out = ids
        .iter()
        .take(MAX_LISTED_STATES)
        .map(|&i| format!("\"{}\"", chain.states()[i].label))
        .collect::<Vec<_>>()
        .join(", ");
    if ids.len() > MAX_LISTED_STATES {
        out.push_str(&format!(", … ({} more)", ids.len() - MAX_LISTED_STATES));
    }
    out
}

/// RAS101: forward reachability from state 0 (the generator's initial
/// `Ok` state).
fn reachability(path: &str, chain: &Ctmc, diags: &mut Vec<Diagnostic>) {
    let n = chain.len();
    if n == 0 {
        return;
    }
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for t in chain.transitions() {
        succ[t.from].push(t.to);
    }
    let mut seen = vec![false; n];
    let mut stack = vec![0];
    seen[0] = true;
    while let Some(s) = stack.pop() {
        for &to in &succ[s] {
            if !seen[to] {
                seen[to] = true;
                stack.push(to);
            }
        }
    }
    let unreachable: Vec<usize> = (0..n).filter(|&i| !seen[i]).collect();
    if !unreachable.is_empty() {
        diags.push(Diagnostic::new(
            codes::UNREACHABLE_STATE,
            Severity::Error,
            path,
            format!(
                "{} of {} states unreachable from initial state \"{}\": {}",
                unreachable.len(),
                n,
                chain.states()[0].label,
                list_labels(chain, &unreachable),
            ),
        ));
    }
}

/// RAS102: absorbing states. In an availability chain every state must
/// eventually return toward `Ok`; an absorbing state makes the
/// long-run availability collapse to that state's reward. A
/// single-state chain (non-redundant block modeled as always-up) is
/// exempt.
fn absorbing(path: &str, chain: &Ctmc, diags: &mut Vec<Diagnostic>) {
    if chain.len() <= 1 {
        return;
    }
    for (i, rate) in chain.exit_rates().iter().enumerate() {
        if *rate == 0.0 {
            diags.push(Diagnostic::new(
                codes::ABSORBING_STATE,
                Severity::Error,
                path,
                format!(
                    "state \"{}\" is absorbing (no outgoing transitions); \
                     steady-state probability mass collects there",
                    chain.states()[i].label,
                ),
            ));
        }
    }
}

/// RAS103: weak connectivity. Transitions are treated as undirected;
/// more than one component means part of the state space is an island
/// and the steady-state distribution is not unique.
fn connectivity(path: &str, chain: &Ctmc, diags: &mut Vec<Diagnostic>) {
    let n = chain.len();
    if n <= 1 {
        return;
    }
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for t in chain.transitions() {
        adj[t.from].push(t.to);
        adj[t.to].push(t.from);
    }
    let mut comp = vec![usize::MAX; n];
    let mut components = 0;
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        let mut stack = vec![start];
        comp[start] = components;
        while let Some(s) = stack.pop() {
            for &to in &adj[s] {
                if comp[to] == usize::MAX {
                    comp[to] = components;
                    stack.push(to);
                }
            }
        }
        components += 1;
    }
    if components > 1 {
        diags.push(Diagnostic::new(
            codes::DISCONNECTED_CHAIN,
            Severity::Error,
            path,
            format!("chain splits into {components} disconnected components"),
        ));
    }
}

/// RAS104/RAS105: stiffness heuristic over state *exit* rates (the
/// spread that governs uniformization constants and power-method
/// mixing; a slow individual transition out of a fast state does not
/// make a chain stiff). Both thresholds are inclusive, so a ratio of
/// exactly [`STIFFNESS_WARN_RATIO`] warns.
fn stiffness(path: &str, chain: &Ctmc, diags: &mut Vec<Diagnostic>) {
    let rates: Vec<f64> = chain.exit_rates().into_iter().filter(|&r| r > 0.0).collect();
    let Some(max) = rates.iter().copied().reduce(f64::max) else {
        return;
    };
    let min = rates.iter().copied().reduce(f64::min).unwrap_or(max);
    let ratio = max / min;
    if ratio < STIFFNESS_INFO_RATIO {
        return;
    }
    let evidence = measured_evidence(chain);
    if ratio >= STIFFNESS_WARN_RATIO {
        diags.push(Diagnostic::new(
            codes::STIFF_CHAIN,
            Severity::Warning,
            path,
            format!(
                "stiff chain: state exit rates span a ratio of {ratio:.1e} \
                 (fastest {max:.3e}/h, slowest {min:.3e}/h); {evidence}; use the \
                 GTH direct solver — power iteration converges slowly here",
            ),
        ));
    } else {
        diags.push(Diagnostic::new(
            codes::STIFFNESS_NOTE,
            Severity::Info,
            path,
            format!(
                "state exit rates span a ratio of {ratio:.1e} ({evidence}); \
                 the GTH direct solver is the numerically safest choice",
            ),
        ));
    }
}

/// Measured numerical evidence the stiffness hints cite, so the solver
/// recommendation rests on what the numerics actually do on *this*
/// chain rather than on the rate ratio alone: a Hager 1-norm condition
/// estimate of the steady-state system (small chains) and a capped
/// power-iteration probe.
fn measured_evidence(chain: &Ctmc) -> String {
    let mut parts = Vec::new();
    let n = chain.len();
    if (2..=CONDEST_MAX_STATES).contains(&n) {
        // The system the direct rungs solve: Qᵀ with the last equation
        // replaced by the normalization row.
        let q = chain.generator().to_dense();
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = q[(j, i)];
            }
        }
        for j in 0..n {
            a[(n - 1, j)] = 1.0;
        }
        if let Ok(k) = a.condest_1norm() {
            parts.push(format!("measured condition estimate {k:.1e}"));
        }
    }
    let opts =
        SolveOptions { max_iterations: Some(PROBE_MAX_ITERATIONS), ..SolveOptions::default() };
    match chain.steady_state_with(SteadyStateMethod::Power, &opts) {
        Ok(_) => {
            parts.push(format!("power probe converged within {PROBE_MAX_ITERATIONS} iterations"));
        }
        Err(MarkovError::NotConverged { iterations, residual, .. }) => {
            parts.push(format!(
                "power probe gave up after {iterations} iterations (residual {residual:.1e})"
            ));
        }
        Err(e) => parts.push(format!("power probe failed: {e}")),
    }
    parts.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rascad_markov::CtmcBuilder;

    fn two_state(up_rate: f64, down_rate: f64) -> Ctmc {
        let mut b = CtmcBuilder::new();
        let up = b.add_state("Ok", 1.0);
        let down = b.add_state("Down", 0.0);
        b.add_transition(up, down, down_rate);
        b.add_transition(down, up, up_rate);
        b.build().unwrap()
    }

    #[test]
    fn single_state_chain_is_clean() {
        let mut b = CtmcBuilder::new();
        b.add_state("Ok", 1.0);
        let chain = b.build().unwrap();
        assert_eq!(analyze_chain("Sys/A", &chain), Vec::new());
    }

    #[test]
    fn healthy_two_state_chain_is_clean() {
        let chain = two_state(2.0, 1e-4);
        assert_eq!(analyze_chain("Sys/A", &chain), Vec::new());
    }

    #[test]
    fn fully_absorbing_chain_reports_everything() {
        // Three states, no transitions at all.
        let mut b = CtmcBuilder::new();
        b.add_state("Ok", 1.0);
        b.add_state("PF1", 0.0);
        b.add_state("PF2", 0.0);
        let chain = b.build().unwrap();
        let diags = analyze_chain("Sys/A", &chain);
        let codes_found: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert_eq!(
            codes_found,
            vec![
                codes::UNREACHABLE_STATE,
                codes::ABSORBING_STATE,
                codes::ABSORBING_STATE,
                codes::ABSORBING_STATE,
                codes::DISCONNECTED_CHAIN,
            ]
        );
        assert!(diags[0].message.contains("2 of 3 states"));
        assert!(diags.iter().all(|d| d.severity == Severity::Error));
        assert!(diags.iter().all(|d| d.path == "Sys/A"));
    }

    #[test]
    fn unreachable_state_flagged_even_when_connected() {
        // Down -> Ok only: Down is weakly connected but unreachable.
        let mut b = CtmcBuilder::new();
        let ok = b.add_state("Ok", 1.0);
        let down = b.add_state("Down", 0.0);
        b.add_transition(down, ok, 1.0);
        let chain = b.build().unwrap();
        let diags = analyze_chain("Sys/A", &chain);
        let codes_found: Vec<&str> = diags.iter().map(|d| d.code).collect();
        // Ok has no exit, so it is also absorbing.
        assert_eq!(codes_found, vec![codes::UNREACHABLE_STATE, codes::ABSORBING_STATE]);
        assert!(diags[0].message.contains("\"Down\""));
    }

    #[test]
    fn disconnected_components_flagged() {
        let mut b = CtmcBuilder::new();
        let a = b.add_state("Ok", 1.0);
        let a2 = b.add_state("Down", 0.0);
        let island = b.add_state("Island", 1.0);
        let island2 = b.add_state("Island2", 0.0);
        b.add_transition(a, a2, 1.0);
        b.add_transition(a2, a, 1.0);
        b.add_transition(island, island2, 1.0);
        b.add_transition(island2, island, 1.0);
        let chain = b.build().unwrap();
        let diags = analyze_chain("Sys/A", &chain);
        assert!(diags.iter().any(|d| d.code == codes::DISCONNECTED_CHAIN
            && d.message.contains("2 disconnected components")));
    }

    #[test]
    fn ratio_exactly_at_warn_threshold_warns() {
        let chain = two_state(STIFFNESS_WARN_RATIO, 1.0);
        let diags = analyze_chain("Sys/A", &chain);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::STIFF_CHAIN);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("GTH"));
        // The hint cites measured numerics, not just the rate ratio.
        assert!(diags[0].message.contains("measured condition estimate"), "{}", diags[0].message);
        assert!(diags[0].message.contains("power probe"), "{}", diags[0].message);
    }

    #[test]
    fn warn_hint_cites_a_condition_estimate_of_the_right_magnitude() {
        // Steady-state system of the 1e9-stiff two-state chain:
        // A = [[-1, 1e9], [1, 1]] — condition number on the order of
        // the rate ratio. The cited estimate must reflect that, not be
        // a canned figure.
        let chain = two_state(STIFFNESS_WARN_RATIO, 1.0);
        let diags = analyze_chain("Sys/A", &chain);
        let msg = &diags[0].message;
        let est = msg
            .split("measured condition estimate ")
            .nth(1)
            .and_then(|rest| rest.split([',', ';']).next())
            .and_then(|tok| tok.trim().parse::<f64>().ok())
            .unwrap_or_else(|| panic!("no parsable estimate in: {msg}"));
        assert!(est > 1e7, "estimate {est} too small for a 1e9-stiff chain");
    }

    #[test]
    fn ratio_at_info_threshold_is_info_only() {
        let chain = two_state(STIFFNESS_INFO_RATIO, 1.0);
        let diags = analyze_chain("Sys/A", &chain);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::STIFFNESS_NOTE);
        assert_eq!(diags[0].severity, Severity::Info);
        assert!(diags[0].message.contains("measured condition estimate"), "{}", diags[0].message);
    }

    #[test]
    fn ratio_below_info_threshold_is_clean() {
        let chain = two_state(STIFFNESS_INFO_RATIO / 2.0, 1.0);
        assert!(analyze_chain("Sys/A", &chain).is_empty());
    }

    #[test]
    fn generated_bundled_models_are_clean() {
        // Chains the generator emits for the library models must pass
        // Tier B with at most info-level notes.
        for (name, spec) in [
            ("datacenter", rascad_library::datacenter::data_center()),
            ("e10000", rascad_library::e10000::e10000()),
            (
                "cluster",
                rascad_library::cluster::two_node_cluster(
                    rascad_library::cluster::ClusterConfig::default(),
                ),
            ),
            ("workgroup", rascad_library::workgroup::workgroup()),
        ] {
            spec.root.walk(&mut |_, path, block| {
                let m = rascad_core::generate_block(&block.params, &spec.globals).unwrap();
                for d in analyze_chain(path, &m.chain) {
                    assert!(d.severity < Severity::Warning, "{name}: unexpected {d}");
                }
            });
        }
    }
}
