//! Independent residual certification of solved distributions.
//!
//! A solver reporting success is not evidence the number is right: an
//! ill-conditioned system can converge to garbage without tripping any
//! internal check. This module re-verifies every steady-state solution
//! *from outside the solver* — `‖πQ‖∞` (is it actually stationary?)
//! and `|Σπ − 1|` (is it actually a distribution?) against fixed
//! tolerances — and stamps the result into a [`SolutionCertificate`]
//! carried by every solved block. For small chains the certificate also
//! includes a Hager 1-norm condition estimate of the steady-state
//! system, so a fragile solve is distinguishable from a robust one even
//! when both residuals look clean.
//!
//! Certification is deterministic and runs on every solve (cached
//! entries store their certificate alongside the measures), so
//! telemetry on/off and thread count cannot change a certificate bit.
//! Each fresh certification records `solve.certified{verdict=...}`.

use rascad_markov::dense::DenseMatrix;
use rascad_markov::{Ctmc, TransientSolution};

/// Relative residual (and probability-mass error) at or below which a
/// solve certifies [`Verdict::Ok`].
pub const RESIDUAL_OK: f64 = 1e-9;

/// Upper bound of the [`Verdict::Warn`] band; beyond it (or on any
/// non-finite residual) the certificate is [`Verdict::Fail`].
pub const RESIDUAL_WARN: f64 = 1e-6;

/// Chains larger than this skip the condition estimate: the estimator
/// needs an `O(n³)` dense factorization, which stops being free well
/// before the pool sizes band GTH solves in linear time. Certification
/// itself stays `O(nnz)` — the residual check is one sparse SpMV — so
/// every solve, including 10^5-state pools, gets a certificate.
pub const CONDEST_MAX_STATES: usize = 128;

/// Certification outcome, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Both residuals within [`RESIDUAL_OK`].
    Ok,
    /// A residual in the ([`RESIDUAL_OK`], [`RESIDUAL_WARN`]] band —
    /// usable, but the accuracy margin is thin.
    Warn,
    /// A residual beyond [`RESIDUAL_WARN`], or non-finite: the number
    /// must not be trusted.
    Fail,
}

impl Verdict {
    /// Stable lowercase name (the `verdict` label of
    /// `solve.certified`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Warn => "warn",
            Verdict::Fail => "fail",
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Independent accuracy evidence attached to a solved distribution.
#[derive(Debug, Clone)]
pub struct SolutionCertificate {
    /// `‖πQ‖∞ / ‖Q‖∞` — the stationarity residual, scaled by the
    /// generator's norm so stiff and gentle chains gate identically.
    /// For transient certificates this is the truncation error instead.
    pub residual_inf: f64,
    /// `|Σπ − 1|`.
    pub prob_mass_error: f64,
    /// Hager 1-norm condition estimate of the steady-state system
    /// (`Qᵀ` with the normalization row); `None` for chains above
    /// [`CONDEST_MAX_STATES`] or when the factorization is singular.
    pub condition_estimate: Option<f64>,
    /// The method that produced the certified distribution.
    pub method: String,
    /// The solve's trail: the one method that ran and its outcome,
    /// `["gth: ok"]` or `["lu: ok"]`.
    pub trail: Vec<String>,
    /// The gate decision.
    pub verdict: Verdict,
}

/// Bit-exact equality: certificates ride inside solution types whose
/// determinism tests compare across thread counts and telemetry states,
/// so `NaN == NaN` must hold and `-0.0 != 0.0` must be visible.
impl PartialEq for SolutionCertificate {
    fn eq(&self, other: &Self) -> bool {
        self.residual_inf.to_bits() == other.residual_inf.to_bits()
            && self.prob_mass_error.to_bits() == other.prob_mass_error.to_bits()
            && self.condition_estimate.map(f64::to_bits)
                == other.condition_estimate.map(f64::to_bits)
            && self.method == other.method
            && self.trail == other.trail
            && self.verdict == other.verdict
    }
}

fn verdict_for(residual: f64, mass_error: f64) -> Verdict {
    if !(residual.is_finite() && mass_error.is_finite()) {
        return Verdict::Fail;
    }
    let worst = residual.max(mass_error);
    if worst <= RESIDUAL_OK {
        Verdict::Ok
    } else if worst <= RESIDUAL_WARN {
        Verdict::Warn
    } else {
        Verdict::Fail
    }
}

/// Certifies a steady-state distribution against its chain: computes
/// `‖πQ‖∞ / ‖Q‖∞` and `|Σπ − 1|` independently of whatever solver
/// produced `pi`, estimates the system's condition number for small
/// chains, and records `solve.certified{verdict}`.
///
/// # Panics
///
/// Panics if `pi.len() != chain.len()`.
#[must_use]
pub fn certify_steady(
    chain: &Ctmc,
    pi: &[f64],
    method: &str,
    trail: Vec<String>,
) -> SolutionCertificate {
    assert_eq!(pi.len(), chain.len(), "dimension mismatch");
    let generator = chain.generator();
    // ‖πQ‖∞, scaled by ‖Q‖∞ = 2·max|q_ii| (row sums of a generator
    // vanish, so each row's absolute sum is twice its diagonal).
    let residual_abs =
        generator
            .vec_mul(pi)
            .iter()
            .fold(0.0f64, |acc, r| if r.abs() > acc { r.abs() } else { acc });
    let scale = 2.0 * generator.max_abs_diagonal();
    let residual_inf = if scale > 0.0 { residual_abs / scale } else { residual_abs };
    let prob_mass_error = (pi.iter().sum::<f64>() - 1.0).abs();

    let n = chain.len();
    let condition_estimate = if n <= CONDEST_MAX_STATES {
        // The steady-state system an LU solve factors: Qᵀ with the
        // last equation replaced by Σπ = 1.
        let q = generator.to_dense();
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = q[(j, i)];
            }
        }
        for j in 0..n {
            a[(n - 1, j)] = 1.0;
        }
        a.condest_1norm().ok()
    } else {
        None
    };

    let verdict = verdict_for(residual_inf, prob_mass_error);
    rascad_obs::counter_with("solve.certified", &[("verdict", verdict.as_str())], 1);
    SolutionCertificate {
        residual_inf,
        prob_mass_error,
        condition_estimate,
        method: method.to_string(),
        trail,
        verdict,
    }
}

/// Certifies a transient solution: the residual is the truncation bound
/// of the kernel's Poisson series — the probability mass the truncated
/// sum failed to capture — and the mass error is checked on the
/// (renormalized) returned distribution. The trail names the kernel
/// that ran. Records `solve.certified{verdict}`.
#[must_use]
pub fn certify_transient(sol: &TransientSolution) -> SolutionCertificate {
    let prob_mass_error = (sol.probabilities.iter().sum::<f64>() - 1.0).abs();
    let verdict = verdict_for(sol.truncation, prob_mass_error);
    rascad_obs::counter_with("solve.certified", &[("verdict", verdict.as_str())], 1);
    SolutionCertificate {
        residual_inf: sol.truncation,
        prob_mass_error,
        condition_estimate: None,
        method: "transient".to_string(),
        trail: vec![format!("transient: {} to t={}", sol.kernel.name(), sol.time)],
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rascad_markov::CtmcBuilder;

    fn two_state() -> Ctmc {
        let mut b = CtmcBuilder::new();
        let up = b.add_state("up", 1.0);
        let down = b.add_state("down", 0.0);
        b.add_transition(up, down, 1e-4);
        b.add_transition(down, up, 1e-1);
        b.build().unwrap()
    }

    #[test]
    fn transient_trail_names_the_kernel_that_ran() {
        use rascad_markov::transient::solve;
        let chain = two_state();
        let opts = rascad_markov::TransientOptions::default();
        for (t, kernel) in [(8760.0, "nonnegative doubling"), (1.0, "uniformization")] {
            let cert = certify_transient(&solve(&chain, &[1.0, 0.0], t, opts).unwrap());
            assert_eq!(cert.trail, vec![format!("transient: {kernel} to t={t}")]);
            assert_eq!(cert.verdict, Verdict::Ok);
        }
    }

    #[test]
    fn exact_solution_certifies_ok() {
        let chain = two_state();
        let pi = chain.steady_state(rascad_markov::SteadyStateMethod::Gth).unwrap();
        let cert = certify_steady(&chain, &pi, "gth", vec!["gth: ok".into()]);
        assert_eq!(cert.verdict, Verdict::Ok);
        assert!(cert.residual_inf <= RESIDUAL_OK, "{}", cert.residual_inf);
        assert!(cert.prob_mass_error <= RESIDUAL_OK);
        assert!(cert.condition_estimate.is_some_and(|c| c >= 1.0));
        assert_eq!(cert.method, "gth");
    }

    #[test]
    fn condition_estimate_matches_hand_computed_chain() {
        // Symmetric two-state chain with rate 1 both ways:
        // A = [[-1, 1], [1, 1]] (Qᵀ with normalization row).
        // ‖A‖₁ = 2, A⁻¹ = ¼·[[-2, 2], [2, 2]], ‖A⁻¹‖₁ = 1, κ₁ = 2.
        let mut b = CtmcBuilder::new();
        let up = b.add_state("up", 1.0);
        let down = b.add_state("down", 0.0);
        b.add_transition(up, down, 1.0);
        b.add_transition(down, up, 1.0);
        let chain = b.build().unwrap();
        let cert = certify_steady(&chain, &[0.5, 0.5], "gth", vec![]);
        let c = cert.condition_estimate.unwrap();
        assert!((c - 2.0).abs() < 1e-12, "{c}");
        assert_eq!(cert.verdict, Verdict::Ok);
    }

    #[test]
    fn poisoned_distribution_certifies_fail() {
        let chain = two_state();
        let cert = certify_steady(&chain, &[f64::NAN, f64::NAN], "gth", vec![]);
        assert_eq!(cert.verdict, Verdict::Fail);
        assert!(cert.residual_inf.is_nan() || cert.prob_mass_error.is_nan());
        // NaN-safe equality: the certificate still equals itself.
        assert_eq!(cert, cert.clone());
    }

    #[test]
    fn sloppy_distribution_lands_in_the_warn_band() {
        let chain = two_state();
        let exact = chain.steady_state(rascad_markov::SteadyStateMethod::Gth).unwrap();
        // Perturb within (1e-9, 1e-6]: a usable but thin result.
        let sloppy: Vec<f64> = exact.iter().map(|p| p + 5e-8).collect();
        let cert = certify_steady(&chain, &sloppy, "gth", vec![]);
        assert_eq!(cert.verdict, Verdict::Warn, "{cert:?}");
        // And far beyond the band: fail.
        let garbage: Vec<f64> = exact.iter().map(|p| p + 0.25).collect();
        let cert = certify_steady(&chain, &garbage, "gth", vec![]);
        assert_eq!(cert.verdict, Verdict::Fail);
    }

    #[test]
    fn big_chains_skip_the_condition_estimate() {
        let mut b = CtmcBuilder::new();
        let n = CONDEST_MAX_STATES + 1;
        for i in 0..n {
            b.add_state(format!("s{i}"), 1.0);
        }
        for i in 0..n {
            b.add_transition(i, (i + 1) % n, 1.0);
            b.add_transition((i + 1) % n, i, 2.0);
        }
        let chain = b.build().unwrap();
        let pi = chain.steady_state(rascad_markov::SteadyStateMethod::Gth).unwrap();
        let cert = certify_steady(&chain, &pi, "gth", vec![]);
        assert_eq!(cert.condition_estimate, None);
        assert_eq!(cert.verdict, Verdict::Ok);
    }

    #[test]
    fn verdict_ordering_and_names() {
        assert!(Verdict::Ok < Verdict::Warn);
        assert!(Verdict::Warn < Verdict::Fail);
        assert_eq!(Verdict::Ok.as_str(), "ok");
        assert_eq!(Verdict::Warn.to_string(), "warn");
        assert_eq!(Verdict::Fail.as_str(), "fail");
    }
}
