//! The measures RAScad reports (paper Section 4):
//!
//! * steady-state availability, failure and recovery rates;
//! * interval availability, failure and recovery rates for `(0, T)`;
//! * reliability model: MTTF, reliability at `T`, interval failure rate
//!   for `(0, T)`, hazard rate.

use rascad_markov::{
    absorbing, transient, CancelToken, MarkovError, SteadyStateMethod, TransientOptions,
};

use crate::certify::SolutionCertificate;
use crate::error::CoreError;
use crate::generator::BlockModel;

/// Minutes in a (non-leap) year, used for yearly-downtime reporting.
pub const MINUTES_PER_YEAR: f64 = 365.0 * 24.0 * 60.0;

/// Steady-state availability measures of one model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockMeasures {
    /// Steady-state availability.
    pub availability: f64,
    /// `1 − availability`.
    pub unavailability: f64,
    /// Expected downtime per year, minutes — the headline figure RAScad
    /// validation uses ("the relative errors in yearly downtime are all
    /// less than 0.2%").
    pub yearly_downtime_minutes: f64,
    /// Frequency of up→down transitions (system failures per hour).
    pub failure_rate: f64,
    /// Reciprocal of the mean downtime per failure (per hour).
    pub recovery_rate: f64,
    /// Mean time between system failures, hours (`1 / failure_rate`).
    pub mtbf_hours: f64,
    /// Mean downtime per failure, hours
    /// (`unavailability / failure_rate`).
    pub mean_downtime_hours: f64,
}

impl BlockMeasures {
    /// Derives the measure set from an availability and a failure
    /// frequency.
    #[must_use]
    pub fn from_availability(availability: f64, failure_rate: f64) -> Self {
        let unavailability = (1.0 - availability).max(0.0);
        let mean_downtime_hours =
            if failure_rate > 0.0 { unavailability / failure_rate } else { 0.0 };
        BlockMeasures {
            availability,
            unavailability,
            yearly_downtime_minutes: unavailability * MINUTES_PER_YEAR,
            failure_rate,
            recovery_rate: if mean_downtime_hours > 0.0 { 1.0 / mean_downtime_hours } else { 0.0 },
            mtbf_hours: if failure_rate > 0.0 { 1.0 / failure_rate } else { f64::INFINITY },
            mean_downtime_hours,
        }
    }
}

/// Interval (mission-time) measures of one model over `(0, T)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalMeasures {
    /// The horizon `T`, hours.
    pub horizon_hours: f64,
    /// Expected fraction of `(0, T)` spent up.
    pub interval_availability: f64,
    /// Point availability at `T`.
    pub point_availability: f64,
}

/// Reliability-model measures of one model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityMeasures {
    /// Mean time to first system failure, hours.
    pub mttf_hours: f64,
    /// Probability of surviving the mission time without a system
    /// failure.
    pub reliability_at_mission: f64,
    /// Equivalent constant failure rate over `(0, T)`:
    /// `−ln R(T) / T`.
    pub interval_failure_rate: f64,
    /// Hazard rate estimated at the mission time over a small increment.
    pub hazard_rate_at_mission: f64,
}

/// Computes steady-state measures for a generated block model.
///
/// The solve is one call of the requested method with default budgets
/// ([`rascad_markov::Ctmc::steady_state_with`]); a failure is reported
/// as that method's typed error.
///
/// # Errors
///
/// Returns [`CoreError::Markov`] if the chain cannot be solved.
pub fn steady_state_measures(
    model: &BlockModel,
    method: SteadyStateMethod,
) -> Result<BlockMeasures, CoreError> {
    steady_state_measures_with_certificate(model, method).map(|(measures, _)| measures)
}

/// [`steady_state_measures`] plus the [`SolutionCertificate`] the
/// residual checks issue for the solved distribution.
///
/// A [`crate::certify::Verdict::Fail`] certificate is an error
/// ([`CoreError::Certification`]): a solve whose result flunks the
/// independent `‖πQ‖∞` / `Σπ−1` checks must not be reported as a
/// number. `Warn` certificates pass through — the caller sees the thin
/// margin in the certificate itself.
///
/// # Errors
///
/// Returns [`CoreError::Markov`] if the chain cannot be solved, or
/// [`CoreError::Certification`] if it solves but fails certification.
pub fn steady_state_measures_with_certificate(
    model: &BlockModel,
    method: SteadyStateMethod,
) -> Result<(BlockMeasures, SolutionCertificate), CoreError> {
    steady_state_measures_certified(model, method, &rascad_markov::SolveOptions::default(), None)
}

/// [`steady_state_measures_with_certificate`] with caller-supplied
/// solve budgets — the entry point long-lived callers (the serve
/// daemon) use to propagate per-request deadlines and cancellation
/// tokens into the solver loops.
///
/// # Errors
///
/// As [`steady_state_measures_with_certificate`], plus
/// [`CoreError::Markov`] wrapping `MarkovError::Cancelled` when the
/// request's cancellation token trips mid-solve.
pub fn steady_state_measures_with_certificate_opts(
    model: &BlockModel,
    method: SteadyStateMethod,
    options: &rascad_markov::SolveOptions,
) -> Result<(BlockMeasures, SolutionCertificate), CoreError> {
    steady_state_measures_certified(model, method, options, None)
}

pub(crate) fn steady_state_measures_certified(
    model: &BlockModel,
    method: SteadyStateMethod,
    options: &rascad_markov::SolveOptions,
    forced: Option<crate::solve::ForcedFailure>,
) -> Result<(BlockMeasures, SolutionCertificate), CoreError> {
    let mut pi = crate::solve::steady_state_forced(&model.chain, method, options, forced)
        .map_err(|source| CoreError::Markov { block: model.name.clone(), source })?;
    if forced == Some(crate::solve::ForcedFailure::NanPi) {
        // Injected numerical corruption *after* a successful solve: the
        // certificate — not any solver-internal check — must catch it.
        pi.fill(f64::NAN);
    }
    let name = crate::solve::method_name(method);
    let certificate =
        crate::certify::certify_steady(&model.chain, &pi, name, vec![format!("{name}: ok")]);
    if certificate.verdict == crate::certify::Verdict::Fail {
        return Err(CoreError::Certification {
            block: model.name.clone(),
            residual: certificate.residual_inf,
            prob_mass_error: certificate.prob_mass_error,
        });
    }
    let availability = model.chain.expected_reward(&pi);
    let failure_rate = model.chain.failure_rate(&pi);
    Ok((BlockMeasures::from_availability(availability, failure_rate), certificate))
}

/// Computes interval measures over `(0, horizon)` starting from `Ok`,
/// polling `cancel` (a request's deadline) inside the transient solve.
///
/// # Errors
///
/// Returns [`CoreError::Markov`] for invalid horizons, solver failures,
/// or a tripped `cancel`.
pub fn interval_measures(
    model: &BlockModel,
    horizon_hours: f64,
    cancel: Option<&CancelToken>,
) -> Result<IntervalMeasures, CoreError> {
    let mut p0 = vec![0.0; model.chain.len()];
    p0[model.ok_state()] = 1.0;
    let opts = TransientOptions::default();
    let sol = transient::solve_cancellable(&model.chain, &p0, horizon_hours, opts, cancel)
        .map_err(|source| CoreError::Markov { block: model.name.clone(), source })?;
    Ok(IntervalMeasures {
        horizon_hours,
        interval_availability: sol.interval_reward,
        point_availability: sol.point_reward,
    })
}

/// Computes reliability measures with the mission time `T`, polling
/// `cancel` before the MTTF solve (a band elimination it does not
/// interrupt, linear in a pool's size) and inside the reliability
/// curve. An MTTF beyond `f64::MAX` is `f64::INFINITY`.
///
/// # Errors
///
/// Returns [`CoreError::Markov`] if the chain has no down states, the
/// solver fails, or `cancel` trips.
pub fn reliability_measures(
    model: &BlockModel,
    mission_hours: f64,
    cancel: Option<&CancelToken>,
) -> Result<ReliabilityMeasures, CoreError> {
    let wrap = |source| CoreError::Markov { block: model.name.clone(), source };
    if cancel.is_some_and(CancelToken::is_cancelled) {
        return Err(wrap(MarkovError::Cancelled { method: "mttf", iterations: 0 }));
    }
    let mttf = absorbing::mttf(&model.chain, model.ok_state()).map_err(wrap)?;
    // Sample R at T and slightly past it for the hazard estimate.
    let dt = (mission_hours * 1e-3).max(1e-6);
    let curve = absorbing::reliability_curve_cancellable(
        &model.chain,
        model.ok_state(),
        &[mission_hours, mission_hours + dt],
        cancel,
    )
    .map_err(wrap)?;
    let r = curve.reliability[0];
    Ok(ReliabilityMeasures {
        mttf_hours: mttf.mttf,
        reliability_at_mission: r,
        interval_failure_rate: if r > 0.0 && mission_hours > 0.0 {
            -r.ln() / mission_hours
        } else if mission_hours > 0.0 {
            f64::INFINITY
        } else {
            0.0
        },
        hazard_rate_at_mission: curve.hazard_rate[0],
    })
}

/// First-failure mode attribution for a block: which down state the
/// system first fails into, with probabilities (labels resolved,
/// sorted descending).
///
/// # Errors
///
/// Returns [`CoreError::Markov`] if the chain has no down states or the
/// linear solve fails.
pub fn failure_mode_attribution(model: &BlockModel) -> Result<Vec<(String, f64)>, CoreError> {
    let modes = absorbing::failure_modes(&model.chain, model.ok_state())
        .map_err(|source| CoreError::Markov { block: model.name.clone(), source })?;
    Ok(modes.into_iter().map(|(state, p)| (model.chain.states()[state].label.clone(), p)).collect())
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts deterministic arithmetic
mod tests {
    use super::*;
    use crate::generator::generate_block;
    use rascad_spec::units::{Hours, Minutes};
    use rascad_spec::{BlockParams, GlobalParams};

    fn simple_model() -> BlockModel {
        let p = BlockParams::new("X", 1, 1)
            .with_mtbf(Hours(10_000.0))
            .with_mttr_parts(Minutes(30.0), Minutes(20.0), Minutes(10.0))
            .with_service_response(Hours(4.0));
        generate_block(&p, &GlobalParams::default()).unwrap()
    }

    #[test]
    fn steady_state_consistency() {
        let m = simple_model();
        let bm = steady_state_measures(&m, SteadyStateMethod::Gth).unwrap();
        assert!((bm.availability + bm.unavailability - 1.0).abs() < 1e-12);
        assert!((bm.yearly_downtime_minutes - bm.unavailability * MINUTES_PER_YEAR).abs() < 1e-9);
        assert!((bm.mtbf_hours - 1.0 / bm.failure_rate).abs() < 1e-6);
        // Mean downtime is ~Tresp + MTTR = 5 h.
        assert!((bm.mean_downtime_hours - 5.0).abs() < 1e-6, "{}", bm.mean_downtime_hours);
        assert!((bm.recovery_rate - 1.0 / bm.mean_downtime_hours).abs() < 1e-9);
    }

    #[test]
    fn both_methods_agree() {
        let m = simple_model();
        let g = steady_state_measures(&m, SteadyStateMethod::Gth).unwrap();
        let l = steady_state_measures(&m, SteadyStateMethod::Lu).unwrap();
        assert!((g.availability - l.availability).abs() < 1e-12);
        assert!((g.failure_rate - l.failure_rate).abs() < 1e-15);
    }

    #[test]
    fn interval_availability_between_steady_state_and_one() {
        let m = simple_model();
        let ss = steady_state_measures(&m, SteadyStateMethod::Gth).unwrap();
        let iv = interval_measures(&m, 8760.0, None).unwrap();
        assert!(iv.interval_availability >= ss.availability - 1e-12);
        assert!(iv.interval_availability <= 1.0);
        // At a long horizon the point availability approaches steady
        // state.
        assert!((iv.point_availability - ss.availability).abs() < 1e-6);
    }

    #[test]
    fn reliability_measures_sane() {
        let m = simple_model();
        let rel = reliability_measures(&m, 8760.0, None).unwrap();
        // MTTF ~ MTBF = 10000 h for the single-component model.
        assert!((rel.mttf_hours - 10_000.0).abs() < 1.0, "{}", rel.mttf_hours);
        assert!((rel.reliability_at_mission - (-8760.0f64 / 10_000.0).exp()).abs() < 1e-6);
        assert!((rel.interval_failure_rate - 1e-4).abs() < 1e-8);
        assert!((rel.hazard_rate_at_mission - 1e-4).abs() < 2e-6);
    }

    #[test]
    fn failure_modes_of_type0_block() {
        let m = simple_model();
        let modes = failure_mode_attribution(&m).unwrap();
        let sum: f64 = modes.iter().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // Without transients configured here... the simple model has no
        // FIT either way; the dominant first-failure mode is the Waiting
        // (service response) state.
        assert_eq!(modes[0].0, "Waiting");
    }

    #[test]
    fn failure_modes_of_redundant_block() {
        let p = BlockParams::new("R", 2, 1).with_mtbf(Hours(10_000.0)).with_mttr_parts(
            Minutes(30.0),
            Minutes(20.0),
            Minutes(10.0),
        );
        let model = generate_block(&p, &GlobalParams::default()).unwrap();
        let modes = failure_mode_attribution(&model).unwrap();
        // Default redundancy is transparent/transparent with no SPF, so
        // the only down state is the exhausted-margin PF2.
        assert_eq!(modes.len(), 1);
        assert_eq!(modes[0].0, "PF2");
        assert!((modes[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_failure_rate_degenerates_gracefully() {
        let bm = BlockMeasures::from_availability(1.0, 0.0);
        assert_eq!(bm.mtbf_hours, f64::INFINITY);
        assert_eq!(bm.recovery_rate, 0.0);
        assert_eq!(bm.yearly_downtime_minutes, 0.0);
    }
}
