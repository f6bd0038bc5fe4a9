//! One-block solve convenience and the solver fallback ladder.
//!
//! # Fallback ladder
//!
//! A production solve must not die on the first numerical hiccup: a
//! power iteration that stalls on a stiff chain, or an LU factorization
//! that goes singular to working precision, are both recoverable by a
//! more robust method. [`steady_state_ladder`] encodes that policy as a
//! fixed rung order — **power → LU → GTH** — starting at the requested
//! method and falling through only on *retryable* failures
//! (non-convergence, singularity, wall-clock timeout, or an elimination
//! over the storage bound). GTH is the last rung because its
//! subtraction-free elimination is the numerically strongest method
//! this crate has; there is nothing to fall back to after it.
//!
//! GTH runs in the generator's band (see `rascad_markov::gth`), so it is
//! linear on the birth–death chains of k-out-of-n pools and needs no
//! state-count routing. Dense LU allocates `n²` entries; past
//! [`rascad_markov::MAX_ELIMINATION_ENTRIES`] it refuses with a typed
//! `ExceedsStorage` before allocating, and the ladder moves on to GTH.
//!
//! Every attempt is bounded by the iteration and wall-clock budgets in
//! [`SolveOptions`], every fallback increments the `solve.fallbacks`
//! counter, and an exhausted ladder returns
//! [`MarkovError::FallbackExhausted`] carrying the full per-rung
//! attempt trail (method, iterations, residual) for diagnostics.

use rascad_markov::{Ctmc, MarkovError, SolveAttempt, SolveOptions, SteadyStateMethod};
use rascad_spec::{BlockParams, GlobalParams};

use crate::error::CoreError;
use crate::generator::BlockModel;
use crate::measures::BlockMeasures;

/// Rung order of the fallback ladder, weakest to strongest.
const LADDER: [SteadyStateMethod; 3] =
    [SteadyStateMethod::Power, SteadyStateMethod::Lu, SteadyStateMethod::Gth];

/// Stable lowercase name of a method (matches the `method` field of
/// [`MarkovError::NotConverged`] / [`MarkovError::Timeout`]).
#[must_use]
pub fn method_name(method: SteadyStateMethod) -> &'static str {
    match method {
        SteadyStateMethod::Power => "power",
        SteadyStateMethod::Lu => "lu",
        SteadyStateMethod::Gth => "gth",
    }
}

/// A failure mode forced onto every ladder rung by fault injection.
/// The ladder machinery (attempt recording, counters, exhaustion) runs
/// for real; only the numerical solve is replaced by a synthesized
/// failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ForcedFailure {
    /// The power rung reports budget exhaustion, the direct rungs
    /// report singularity.
    NotConverged,
    /// Every rung reports a wall-clock timeout (without spending one).
    Timeout,
    /// The solve itself succeeds; the *result* is poisoned to NaN
    /// afterwards (by [`crate::measures::steady_state_measures_certified`])
    /// so the failure must be caught by residual certification, not by
    /// any solver-internal check.
    NanPi,
}

/// Whether an error should fall through to the next ladder rung.
/// Structural problems (reducible chain, bad rates) would fail on every
/// method, so they surface immediately instead.
fn retryable(e: &MarkovError) -> bool {
    matches!(
        e,
        MarkovError::NotConverged { .. }
            | MarkovError::Singular
            | MarkovError::Timeout { .. }
            | MarkovError::ExceedsStorage { .. }
    )
}

fn run_rung(
    chain: &Ctmc,
    method: SteadyStateMethod,
    options: &SolveOptions,
    forced: Option<ForcedFailure>,
) -> Result<Vec<f64>, MarkovError> {
    match forced {
        None | Some(ForcedFailure::NanPi) => chain.steady_state_with(method, options),
        Some(ForcedFailure::NotConverged) => Err(match method {
            SteadyStateMethod::Power => MarkovError::NotConverged {
                method: "power",
                iterations: options.power_iteration_budget(chain.len()),
                residual: 1.0,
                tolerance: options.tolerance,
            },
            _ => MarkovError::Singular,
        }),
        Some(ForcedFailure::Timeout) => {
            let budget_ms = options.wall_clock.map_or(0, |d| d.as_millis() as u64);
            Err(MarkovError::Timeout {
                method: method_name(method),
                iterations: 0,
                elapsed_ms: budget_ms,
                budget_ms,
            })
        }
    }
}

/// Stationary distribution via the fallback ladder: the requested
/// method first, then every stronger remaining rung of power → LU →
/// GTH, each attempt bounded by `options`.
///
/// # Errors
///
/// * A non-retryable error (e.g. [`MarkovError::Reducible`]) from any
///   rung, immediately.
/// * The single rung's own error when the requested method is the last
///   rung (GTH, the default, has no fallback).
/// * [`MarkovError::FallbackExhausted`] with the full attempt trail
///   when two or more rungs all failed retryably.
pub fn steady_state_ladder(
    chain: &Ctmc,
    method: SteadyStateMethod,
    options: &SolveOptions,
) -> Result<Vec<f64>, MarkovError> {
    steady_state_ladder_forced(chain, method, options, None)
}

/// A successful ladder solve plus its provenance: which rung won and
/// the human-readable attempt trail that certification stamps into the
/// [`crate::certify::SolutionCertificate`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LadderOutcome {
    /// The stationary distribution.
    pub pi: Vec<f64>,
    /// Stable name of the rung that produced `pi`.
    pub method: &'static str,
    /// One entry per attempt, failed rungs first, e.g.
    /// `["power: not converged after 1000 iterations, residual 2.1e-3",
    ///   "lu: ok"]`.
    pub trail: Vec<String>,
}

fn describe_attempt(a: &SolveAttempt) -> String {
    match (&*a.error, a.iterations, a.residual) {
        (MarkovError::NotConverged { .. }, Some(i), Some(r)) => {
            format!("{}: not converged after {i} iterations, residual {r:.3e}", a.method)
        }
        (MarkovError::Timeout { .. }, Some(i), _) => {
            format!("{}: timed out after {i} iterations", a.method)
        }
        (MarkovError::Singular, ..) => format!("{}: singular", a.method),
        (e, ..) => format!("{}: {e}", a.method),
    }
}

pub(crate) fn steady_state_ladder_forced(
    chain: &Ctmc,
    method: SteadyStateMethod,
    options: &SolveOptions,
    forced: Option<ForcedFailure>,
) -> Result<Vec<f64>, MarkovError> {
    steady_state_ladder_outcome(chain, method, options, forced).map(|o| o.pi)
}

pub(crate) fn steady_state_ladder_outcome(
    chain: &Ctmc,
    method: SteadyStateMethod,
    options: &SolveOptions,
    forced: Option<ForcedFailure>,
) -> Result<LadderOutcome, MarkovError> {
    let start = LADDER.iter().position(|m| *m == method).unwrap_or(LADDER.len() - 1);
    let mut attempts: Vec<SolveAttempt> = Vec::new();
    for (i, &rung) in LADDER[start..].iter().enumerate() {
        if i > 0 {
            let from = attempts.last().map_or("?", |a| a.method);
            let to = method_name(rung);
            rascad_obs::counter_with("solve.fallbacks", &[("from", from), ("to", to)], 1);
            let mut span = rascad_obs::span("core.solve_fallback");
            span.record("from", from);
            span.record("to", to);
        }
        match run_rung(chain, rung, options, forced) {
            Ok(pi) => {
                let winner = method_name(rung);
                let mut trail: Vec<String> = attempts.iter().map(describe_attempt).collect();
                trail.push(format!("{winner}: ok"));
                return Ok(LadderOutcome { pi, method: winner, trail });
            }
            Err(e) => {
                if matches!(e, MarkovError::Timeout { .. }) {
                    rascad_obs::counter("solve.timeouts", 1);
                }
                let (iterations, residual) = match &e {
                    MarkovError::NotConverged { iterations, residual, .. } => {
                        (Some(*iterations), Some(*residual))
                    }
                    MarkovError::Timeout { iterations, .. } => (Some(*iterations), None),
                    _ => (None, None),
                };
                let keep_going = retryable(&e);
                attempts.push(SolveAttempt {
                    method: method_name(rung),
                    iterations,
                    residual,
                    error: Box::new(e.clone()),
                });
                if !keep_going {
                    return Err(e);
                }
            }
        }
    }
    // Exhausted. A single attempt keeps its own error type (so a plain
    // GTH solve reports `Singular`, exactly as before the ladder); two
    // or more attempts return the full trail.
    if attempts.len() == 1 {
        return Err(*attempts.remove(0).error);
    }
    Err(MarkovError::FallbackExhausted { attempts })
}

/// Generates the Markov model for one block and solves its steady
/// state.
///
/// # Errors
///
/// Returns [`CoreError`] on generation or solver failure.
///
/// # Example
///
/// ```
/// use rascad_core::solve_block;
/// use rascad_spec::{BlockParams, GlobalParams};
/// use rascad_spec::units::Hours;
///
/// # fn main() -> Result<(), rascad_core::CoreError> {
/// let p = BlockParams::new("Power Supply", 2, 1).with_mtbf(Hours(200_000.0));
/// let (model, measures) = solve_block(&p, &GlobalParams::default())?;
/// assert_eq!(model.model_type, 1); // transparent/transparent default
/// assert!(measures.availability > 0.9999);
/// # Ok(())
/// # }
/// ```
pub fn solve_block(
    params: &BlockParams,
    globals: &GlobalParams,
) -> Result<(BlockModel, BlockMeasures), CoreError> {
    solve_block_with(params, globals, SteadyStateMethod::Gth)
}

/// [`solve_block`] with an explicit steady-state method (used by the
/// validation experiments to cross-check GTH against LU).
///
/// # Errors
///
/// Returns [`CoreError`] on generation or solver failure.
pub fn solve_block_with(
    params: &BlockParams,
    globals: &GlobalParams,
    method: SteadyStateMethod,
) -> Result<(BlockModel, BlockMeasures), CoreError> {
    crate::engine::Engine::global().solve_block_with(params, globals, method)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rascad_markov::CtmcBuilder;
    use rascad_spec::units::{Hours, Minutes};

    fn two_state() -> Ctmc {
        let mut b = CtmcBuilder::new();
        let up = b.add_state("up", 1.0);
        let down = b.add_state("down", 0.0);
        b.add_transition(up, down, 1e-4);
        b.add_transition(down, up, 1e-1);
        b.build().unwrap()
    }

    #[test]
    fn ladder_falls_back_from_starved_power_to_lu() {
        let chain = two_state();
        // One iteration can never converge; the ladder must recover via
        // LU and produce the same distribution a direct solve gives.
        let opts =
            SolveOptions { max_iterations: Some(1), wall_clock: None, ..SolveOptions::default() };
        let pi = steady_state_ladder(&chain, SteadyStateMethod::Power, &opts).unwrap();
        let direct = chain.steady_state(SteadyStateMethod::Lu).unwrap();
        assert_eq!(pi, direct);
    }

    #[test]
    fn ladder_outcome_carries_method_and_trail() {
        let chain = two_state();
        let opts =
            SolveOptions { max_iterations: Some(1), wall_clock: None, ..SolveOptions::default() };
        let out =
            steady_state_ladder_outcome(&chain, SteadyStateMethod::Power, &opts, None).unwrap();
        assert_eq!(out.method, "lu");
        assert_eq!(out.trail.len(), 2);
        assert!(
            out.trail[0].starts_with("power: not converged after 1 iterations"),
            "{:?}",
            out.trail
        );
        assert_eq!(out.trail[1], "lu: ok");
        // NanPi leaves the solve itself untouched.
        let clean = steady_state_ladder_outcome(
            &chain,
            SteadyStateMethod::Gth,
            &SolveOptions::default(),
            Some(ForcedFailure::NanPi),
        )
        .unwrap();
        assert_eq!(clean.method, "gth");
        assert_eq!(clean.trail, ["gth: ok"]);
        assert!(clean.pi.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn exhausted_ladder_reports_every_rung() {
        let chain = two_state();
        let opts = SolveOptions::default();
        let err = steady_state_ladder_forced(
            &chain,
            SteadyStateMethod::Power,
            &opts,
            Some(ForcedFailure::NotConverged),
        )
        .unwrap_err();
        match &err {
            MarkovError::FallbackExhausted { attempts } => {
                let methods: Vec<_> = attempts.iter().map(|a| a.method).collect();
                assert_eq!(methods, ["power", "lu", "gth"]);
                assert!(attempts[0].iterations.is_some());
                assert!(attempts[0].residual.is_some());
                assert!(matches!(*attempts[1].error, MarkovError::Singular));
            }
            other => panic!("expected FallbackExhausted, got {other:?}"),
        }
    }

    #[test]
    fn forced_timeouts_exhaust_every_rung_without_waiting() {
        let chain = two_state();
        let t0 = std::time::Instant::now();
        let err = steady_state_ladder_forced(
            &chain,
            SteadyStateMethod::Power,
            &SolveOptions::default(),
            Some(ForcedFailure::Timeout),
        )
        .unwrap_err();
        assert!(t0.elapsed() < std::time::Duration::from_secs(5));
        match &err {
            MarkovError::FallbackExhausted { attempts } => {
                assert_eq!(attempts.len(), 3);
                for a in attempts {
                    assert!(matches!(*a.error, MarkovError::Timeout { .. }), "{a}");
                }
            }
            other => panic!("expected FallbackExhausted, got {other:?}"),
        }
    }

    #[test]
    fn last_rung_failure_keeps_its_own_error_type() {
        // GTH is the last rung: a forced failure there must surface as
        // plain Singular, exactly as before the ladder existed.
        let chain = two_state();
        let err = steady_state_ladder_forced(
            &chain,
            SteadyStateMethod::Gth,
            &SolveOptions::default(),
            Some(ForcedFailure::NotConverged),
        )
        .unwrap_err();
        assert_eq!(err, MarkovError::Singular);
    }

    #[test]
    fn non_retryable_errors_skip_the_ladder() {
        // Two disconnected components: reducible on *every* method, so
        // the ladder must not mask the structural error by retrying.
        let mut b = CtmcBuilder::new();
        let a0 = b.add_state("a0", 1.0);
        let a1 = b.add_state("a1", 0.0);
        let b0 = b.add_state("b0", 1.0);
        let b1 = b.add_state("b1", 0.0);
        b.add_transition(a0, a1, 1.0);
        b.add_transition(a1, a0, 1.0);
        b.add_transition(b0, b1, 1.0);
        b.add_transition(b1, b0, 1.0);
        let chain = b.build().unwrap();
        let err = steady_state_ladder(&chain, SteadyStateMethod::Power, &SolveOptions::default())
            .unwrap_err();
        assert!(matches!(err, MarkovError::Reducible { .. }), "{err:?}");
    }

    #[test]
    fn method_names_are_stable() {
        assert_eq!(method_name(SteadyStateMethod::Power), "power");
        assert_eq!(method_name(SteadyStateMethod::Lu), "lu");
        assert_eq!(method_name(SteadyStateMethod::Gth), "gth");
    }

    /// Birth–death test chain with `n + 1` levels.
    fn birth_death(n: usize) -> Ctmc {
        let mut b = CtmcBuilder::new();
        for j in 0..=n {
            b.add_state(format!("L{j}"), if j == 0 { 1.0 } else { 0.0 });
        }
        for j in 0..n {
            b.add_transition(j, j + 1, (n - j) as f64 * 1e-4);
            b.add_transition(j + 1, j, (j + 1) as f64 * 0.1);
        }
        b.build().unwrap()
    }

    #[test]
    fn large_chains_solve_on_the_gth_rung() {
        // 601 states: GTH solves it in its band, and LU (dense, still
        // under the storage bound at this size) agrees.
        let chain = birth_death(600);
        let out = steady_state_ladder_outcome(
            &chain,
            SteadyStateMethod::Gth,
            &SolveOptions::default(),
            None,
        )
        .unwrap();
        assert_eq!(out.method, "gth");
        assert_eq!(out.trail, ["gth: ok"]);
        let lu = chain.steady_state(SteadyStateMethod::Lu).unwrap();
        for (a, b) in out.pi.iter().zip(&lu) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn lu_over_the_storage_bound_falls_through_to_gth() {
        // A 10^5-unit pool: dense LU would need 10^10 entries (80 GB).
        // It is refused before allocating, and GTH solves the band.
        let p = BlockParams::new("Pool", 100_000, 1).with_mtbf(Hours(10_000.0));
        let model = crate::generate_block(&p, &GlobalParams::default()).unwrap();
        let (measures, cert) =
            crate::measures::steady_state_measures_with_certificate(&model, SteadyStateMethod::Lu)
                .unwrap();
        assert_eq!(cert.method, "gth");
        assert_eq!(cert.trail.len(), 2, "{:?}", cert.trail);
        assert!(cert.trail[0].starts_with("lu: lu elimination needs"), "{:?}", cert.trail);
        assert!(cert.trail[0].contains("storage bound"), "{:?}", cert.trail);
        assert_eq!(cert.trail[1], "gth: ok");
        assert!(measures.availability > 0.999_999, "{measures:?}");
    }

    #[test]
    fn solves_redundant_block() {
        let p = BlockParams::new("PSU", 3, 2).with_mtbf(Hours(150_000.0)).with_mttr_parts(
            Minutes(10.0),
            Minutes(15.0),
            Minutes(5.0),
        );
        let (model, m) = solve_block(&p, &GlobalParams::default()).unwrap();
        assert!(model.state_count() >= 3);
        assert!(m.availability > 0.99999);
        assert!(m.yearly_downtime_minutes < 10.0);
    }

    #[test]
    fn methods_agree_to_validation_threshold() {
        // The paper's validation bar: < 0.2% relative error in yearly
        // downtime between independent solvers.
        let p = BlockParams::new("X", 2, 1).with_mtbf(Hours(30_000.0));
        let g = GlobalParams::default();
        let (_, a) = solve_block_with(&p, &g, SteadyStateMethod::Gth).unwrap();
        let (_, b) = solve_block_with(&p, &g, SteadyStateMethod::Lu).unwrap();
        let rel = (a.yearly_downtime_minutes - b.yearly_downtime_minutes).abs()
            / a.yearly_downtime_minutes;
        assert!(rel < 0.002, "relative error {rel}");
    }
}
