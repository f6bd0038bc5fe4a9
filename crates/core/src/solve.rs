//! One-block solve convenience and the steady-state solve.
//!
//! A steady solve is one call: the requested method under the caller's
//! [`SolveOptions`] (wall-clock budget and cancellation token),
//! followed by the residual certificate. GTH, the default, runs in the
//! generator's band (see `rascad_markov::gth`), so it is linear on the
//! birth–death chains of k-out-of-n pools and needs no state-count
//! routing. Dense LU is the independent cross-check (DESIGN.md §2); it
//! allocates `n²` entries, so past
//! [`rascad_markov::MAX_ELIMINATION_ENTRIES`] it refuses with a typed
//! `ExceedsStorage` before allocating. A method that fails returns its
//! own typed error; nothing falls through to another method.

use rascad_markov::{Ctmc, MarkovError, SolveOptions, SteadyStateMethod};
use rascad_spec::{BlockParams, GlobalParams};

use crate::error::CoreError;
use crate::generator::BlockModel;
use crate::measures::BlockMeasures;

/// Stable lowercase name of a method (matches the `method` field of
/// [`MarkovError::Timeout`] and the certificate's `method`).
#[must_use]
pub fn method_name(method: SteadyStateMethod) -> &'static str {
    match method {
        SteadyStateMethod::Lu => "lu",
        SteadyStateMethod::Gth => "gth",
    }
}

/// A failure forced onto the steady solve by fault injection. The
/// error path (typed error, `solve.timeouts`, no cache write) runs for
/// real; only the numerical solve is replaced by a synthesized failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ForcedFailure {
    /// The solve reports singularity.
    Singular,
    /// The solve reports a wall-clock timeout (without spending one).
    Timeout,
    /// The solve itself succeeds; the *result* is poisoned to NaN
    /// afterwards (by [`crate::measures::steady_state_measures_certified`])
    /// so the failure must be caught by residual certification, not by
    /// any solver-internal check.
    NanPi,
}

/// Stationary distribution by `method` under `options`: one call of
/// [`Ctmc::steady_state_with`]. The name is kept for the benchmark
/// harness, which imports it; it retires with the next benchmark change
/// (ROADMAP item 5).
///
/// # Errors
///
/// The method's own typed error: [`MarkovError::Reducible`],
/// [`MarkovError::Singular`], [`MarkovError::ExceedsStorage`],
/// [`MarkovError::Timeout`] or [`MarkovError::Cancelled`].
pub fn steady_state_ladder(
    chain: &Ctmc,
    method: SteadyStateMethod,
    options: &SolveOptions,
) -> Result<Vec<f64>, MarkovError> {
    chain.steady_state_with(method, options)
}

/// The steady solve behind every block measure: one call of the
/// requested method, or the failure fault injection forces in its
/// place. A timeout also ticks the `solve.timeouts` counter.
pub(crate) fn steady_state_forced(
    chain: &Ctmc,
    method: SteadyStateMethod,
    options: &SolveOptions,
    forced: Option<ForcedFailure>,
) -> Result<Vec<f64>, MarkovError> {
    let solved = match forced {
        None | Some(ForcedFailure::NanPi) => chain.steady_state_with(method, options),
        Some(ForcedFailure::Singular) => Err(MarkovError::Singular),
        Some(ForcedFailure::Timeout) => {
            let budget_ms = options.wall_clock.map_or(0, |d| d.as_millis() as u64);
            Err(MarkovError::Timeout {
                method: method_name(method),
                iterations: 0,
                elapsed_ms: budget_ms,
                budget_ms,
            })
        }
    };
    if let Err(MarkovError::Timeout { .. }) = solved {
        rascad_obs::counter("solve.timeouts", 1);
    }
    solved
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
    fn nan_pi_leaves_the_solve_itself_untouched() {
        let chain = two_state();
        let opts = SolveOptions::default();
        let pi =
            steady_state_forced(&chain, SteadyStateMethod::Gth, &opts, Some(ForcedFailure::NanPi))
                .unwrap();
        assert_eq!(pi, steady_state_ladder(&chain, SteadyStateMethod::Gth, &opts).unwrap());
    }

    #[test]
    fn forced_failures_fail_the_one_solve_typed() {
        let chain = two_state();
        let t0 = std::time::Instant::now();
        for method in [SteadyStateMethod::Gth, SteadyStateMethod::Lu] {
            let opts = SolveOptions::default();
            let err = steady_state_forced(&chain, method, &opts, Some(ForcedFailure::Singular))
                .unwrap_err();
            assert_eq!(err, MarkovError::Singular);
            let err = steady_state_forced(&chain, method, &opts, Some(ForcedFailure::Timeout))
                .unwrap_err();
            match err {
                MarkovError::Timeout { method: m, budget_ms: 30_000, .. } => {
                    assert_eq!(m, method_name(method));
                }
                other => panic!("expected Timeout, got {other:?}"),
            }
        }
        assert!(t0.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn method_names_are_stable() {
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
    fn gth_and_lu_agree_on_a_601_state_pool() {
        // 601 states: GTH solves it in its band, and LU (dense, still
        // under the storage bound at this size) agrees.
        let chain = birth_death(600);
        let gth = chain.steady_state(SteadyStateMethod::Gth).unwrap();
        let lu = chain.steady_state(SteadyStateMethod::Lu).unwrap();
        for (a, b) in gth.iter().zip(&lu) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn lu_over_the_storage_bound_fails_typed() {
        // A 10^4-unit pool: dense LU would need 10^8 entries (800 MB).
        // It is refused before allocating, and nothing answers for it.
        let p = BlockParams::new("Pool", 10_000, 1).with_mtbf(Hours(10_000.0));
        let model = crate::generate_block(&p, &GlobalParams::default()).unwrap();
        let err =
            crate::measures::steady_state_measures_with_certificate(&model, SteadyStateMethod::Lu)
                .unwrap_err();
        match &err {
            CoreError::Markov {
                source: MarkovError::ExceedsStorage { method: "lu", entries: 100_020_001 },
                ..
            } => {}
            other => panic!("expected ExceedsStorage, got {other:?}"),
        }
        assert!(err.to_string().contains("storage bound"), "{err}");
        let (_, cert) =
            crate::measures::steady_state_measures_with_certificate(&model, SteadyStateMethod::Gth)
                .unwrap();
        assert_eq!(cert.trail, ["gth: ok"]);
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
