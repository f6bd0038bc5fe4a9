//! Absorbing-chain (reliability) analysis.
//!
//! For the *reliability* model RAScad reports MTTF, reliability at the
//! mission time `T`, interval failure rate over `(0, T)`, and the hazard
//! rate for a time increment. These come from the chain obtained by
//! making every down state absorbing: the time to absorption is the time
//! to first system failure.

use crate::ctmc::{CancelToken, Ctmc, CtmcBuilder, StateId};
use crate::error::MarkovError;
use crate::gth;
use crate::matrix::SparseMatrix;
use crate::transient::{self, TransientOptions};

/// Reliability measures of a chain whose down states are absorbing.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsorbingAnalysis {
    /// Mean time to (first) failure from the given initial distribution.
    pub mttf: f64,
    /// Ids of the transient (up) states in the original chain.
    pub up_states: Vec<StateId>,
    /// Ids of the absorbing (down) states in the original chain.
    pub down_states: Vec<StateId>,
}

/// A sampled reliability curve `R(t)` with derived failure measures.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityCurve {
    /// Sample times.
    pub times: Vec<f64>,
    /// `R(t)`: probability the system has not yet failed by each time.
    pub reliability: Vec<f64>,
    /// Interval failure rate over `(0, t)`: `-ln R(t) / t` (the constant
    /// rate that would produce the same `R(t)`).
    pub interval_failure_rate: Vec<f64>,
    /// Hazard rate at each time, estimated over the local increment:
    /// `h ≈ (R(t_i) - R(t_{i+1})) / (Δt · R(t_i))`, reported at the
    /// left endpoint (last point repeats the previous estimate).
    pub hazard_rate: Vec<f64>,
}

/// Builds the absorbing ("reliability") variant of `chain`: all
/// transitions out of down states are removed, so down states absorb.
#[must_use]
pub fn make_absorbing(chain: &Ctmc) -> Ctmc {
    let up: Vec<bool> = chain.states().iter().map(|s| s.reward > 0.0).collect();
    let mut b = CtmcBuilder::new();
    for s in chain.states() {
        b.add_state(s.label.clone(), s.reward);
    }
    for t in chain.transitions() {
        if up[t.from] {
            b.add_transition(t.from, t.to, t.rate);
        }
    }
    b.build().expect("absorbing variant of a valid chain is valid")
}

/// Computes the MTTF from an initial distribution concentrated on state
/// `start` (usually the all-working `Ok` state).
///
/// Solves `(-Q_UU) m = 1`, where `Q_UU` is the generator restricted to
/// up states and `m` the vector of expected absorption times, by GTH
/// elimination on the up states' band with their total rate into the
/// down states as an exit column ([`crate::gth`]): subtraction-free,
/// `O(n)` on a k-out-of-n pool. An MTTF beyond `f64::MAX` is
/// `Ok(f64::INFINITY)`.
///
/// # Errors
///
/// * [`MarkovError::MissingStates`] if the chain has no up or no down
///   states, or if `start` is not an up state.
/// * [`MarkovError::ExceedsStorage`] if the up states' band does not
///   fit [`crate::MAX_ELIMINATION_ENTRIES`].
/// * [`MarkovError::Singular`] if some up state cannot reach any down
///   state (MTTF would be infinite).
pub fn mttf(chain: &Ctmc, start: StateId) -> Result<AbsorbingAnalysis, MarkovError> {
    let (up_states, down_states, start_pos) = split_states(chain, start)?;
    // Column 0: the rate into any down state; column 1: unit time.
    let (q, mut cols) = up_rates(chain, &up_states, 2, |_| 0);
    for row in cols.chunks_mut(2) {
        row[1] = 1.0;
    }
    let m = gth::absorbing_gth(&q, &cols, 1, "mttf")?;
    Ok(AbsorbingAnalysis { mttf: m[2 * start_pos + 1], up_states, down_states })
}

/// The up and down states of `chain` and the position of `start` among
/// the up states.
fn split_states(
    chain: &Ctmc,
    start: StateId,
) -> Result<(Vec<StateId>, Vec<StateId>, usize), MarkovError> {
    let up_states = chain.up_states();
    let down_states = chain.down_states();
    if up_states.is_empty() {
        return Err(MarkovError::MissingStates { what: "no up states".into() });
    }
    if down_states.is_empty() {
        return Err(MarkovError::MissingStates { what: "no down (absorbing) states".into() });
    }
    let Some(start_pos) = up_states.iter().position(|&s| s == start) else {
        return Err(MarkovError::MissingStates {
            what: format!("start state {start} is not an up state"),
        });
    };
    Ok((up_states, down_states, start_pos))
}

/// The rates among `up_states`, indexed by position, and `nc` columns
/// per up state holding its rates into the down states: a rate into
/// down state `d` adds to column `column(d)`.
fn up_rates(
    chain: &Ctmc,
    up_states: &[StateId],
    nc: usize,
    column: impl Fn(StateId) -> usize,
) -> (SparseMatrix, Vec<f64>) {
    let nu = up_states.len();
    let mut pos = vec![usize::MAX; chain.len()];
    for (i, &s) in up_states.iter().enumerate() {
        pos[s] = i;
    }
    let mut trips = Vec::new();
    let mut cols = vec![0.0; nu * nc];
    for t in chain.transitions().iter().filter(|t| pos[t.from] != usize::MAX) {
        match pos[t.to] {
            usize::MAX => cols[pos[t.from] * nc + column(t.to)] += t.rate,
            to => trips.push((pos[t.from], to, t.rate)),
        }
    }
    (SparseMatrix::from_triplets(nu, nu, &trips), cols)
}

/// Probability that the *first* system failure lands in each down
/// state, starting from `start` — failure-mode attribution.
///
/// Computes `B = (−Q_UU)⁻¹ Q_UD` by the elimination [`mttf`] runs, with
/// one exit column per down state entered straight from an up state
/// (the others cannot be a first failure and get probability 0): entry
/// `(u, d)` is the probability of being absorbed in down state `d` from
/// up state `u`.
///
/// Returns `(down_state_id, probability)` pairs summing to 1, sorted by
/// probability descending.
///
/// # Errors
///
/// Same conditions as [`mttf`].
pub fn failure_modes(chain: &Ctmc, start: StateId) -> Result<Vec<(StateId, f64)>, MarkovError> {
    let (up_states, down_states, start_pos) = split_states(chain, start)?;
    let up = |s: StateId| chain.states()[s].reward > 0.0;
    let (mut column, mut nc) = (vec![usize::MAX; chain.len()], 0);
    for t in chain.transitions() {
        if up(t.from) && !up(t.to) && column[t.to] == usize::MAX {
            column[t.to] = nc;
            nc += 1;
        }
    }
    let (q, cols) = up_rates(chain, &up_states, nc, |d| column[d]);
    let b = gth::absorbing_gth(&q, &cols, nc, "mttf")?;
    let row = &b[start_pos * nc..(start_pos + 1) * nc];
    let mut out: Vec<(StateId, f64)> = down_states
        .iter()
        .map(|&d| (d, row.get(column[d]).map_or(0.0, |p| p.clamp(0.0, 1.0))))
        .collect();
    // Normalize away roundoff and sort by contribution.
    let total: f64 = out.iter().map(|&(_, p)| p).sum();
    if total > 0.0 {
        for (_, p) in &mut out {
            *p /= total;
        }
    }
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    Ok(out)
}

/// Reliability `R(t)` at a single mission time, starting from `start`.
///
/// # Errors
///
/// Propagates [`MarkovError`] from the transient solver, and
/// [`MarkovError::MissingStates`] as in [`mttf`].
pub fn reliability_at(chain: &Ctmc, start: StateId, t: f64) -> Result<f64, MarkovError> {
    let curve = reliability_curve(chain, start, &[t])?;
    Ok(curve.reliability[0])
}

/// Samples the reliability curve at the given times.
///
/// # Errors
///
/// * [`MarkovError::MissingStates`] if the chain has no down states or
///   `start` is not an up state.
/// * Errors from the transient solver for invalid times.
pub fn reliability_curve(
    chain: &Ctmc,
    start: StateId,
    times: &[f64],
) -> Result<ReliabilityCurve, MarkovError> {
    reliability_curve_cancellable(chain, start, times, None)
}

/// [`reliability_curve`] that polls `cancel` between sample points and
/// inside every transient solve.
///
/// # Errors
///
/// The [`reliability_curve`] errors, plus [`MarkovError::Cancelled`]
/// once the token trips.
pub fn reliability_curve_cancellable(
    chain: &Ctmc,
    start: StateId,
    times: &[f64],
    cancel: Option<&CancelToken>,
) -> Result<ReliabilityCurve, MarkovError> {
    if chain.down_states().is_empty() {
        return Err(MarkovError::MissingStates { what: "no down states".into() });
    }
    if start >= chain.len() || chain.states()[start].reward == 0.0 {
        return Err(MarkovError::MissingStates {
            what: format!("start state {start} is not an up state"),
        });
    }
    let abs = make_absorbing(chain);
    let up_states = abs.up_states();
    // Solve the times in ascending order, each from the distribution at
    // the previous one (the Markov property): a point just past another
    // costs only the series over the gap.
    let mut order: Vec<usize> = (0..times.len()).collect();
    order.sort_by(|&a, &b| times[a].total_cmp(&times[b]));
    let mut p = vec![0.0; abs.len()];
    p[start] = 1.0;
    let mut at = 0.0;
    let mut rel = vec![0.0; times.len()];
    for (done, i) in order.into_iter().enumerate() {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(MarkovError::Cancelled { method: "reliability", iterations: done });
        }
        let dt = times[i] - at;
        let sol = transient::solve_cancellable(&abs, &p, dt, TransientOptions::default(), cancel)?;
        p = sol.probabilities;
        at = times[i];
        // R(t) = probability of still being in an up state.
        let r: f64 = up_states.iter().map(|&s| p[s]).sum();
        rel[i] = r.clamp(0.0, 1.0);
    }

    let interval_failure_rate = times
        .iter()
        .zip(&rel)
        .map(|(&t, &r)| {
            if t <= 0.0 {
                0.0
            } else if r <= 0.0 {
                f64::INFINITY
            } else {
                -r.ln() / t
            }
        })
        .collect();

    let mut hazard_rate = Vec::with_capacity(times.len());
    for i in 0..times.len() {
        if i + 1 < times.len() {
            let dt = times[i + 1] - times[i];
            let h =
                if dt > 0.0 && rel[i] > 0.0 { (rel[i] - rel[i + 1]) / (dt * rel[i]) } else { 0.0 };
            hazard_rate.push(h.max(0.0));
        } else {
            hazard_rate.push(*hazard_rate.last().unwrap_or(&0.0));
        }
    }

    Ok(ReliabilityCurve {
        times: times.to_vec(),
        reliability: rel,
        interval_failure_rate,
        hazard_rate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctmc::CtmcBuilder;

    fn two_state(lambda: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new();
        let up = b.add_state("up", 1.0);
        let down = b.add_state("down", 0.0);
        b.add_transition(up, down, lambda);
        b.add_transition(down, up, mu);
        b.build().unwrap()
    }

    #[test]
    fn mttf_of_single_component_is_one_over_lambda() {
        let c = two_state(0.01, 5.0);
        let a = mttf(&c, 0).unwrap();
        assert!((a.mttf - 100.0).abs() < 1e-9);
        assert_eq!(a.up_states, vec![0]);
        assert_eq!(a.down_states, vec![1]);
    }

    #[test]
    fn mttf_of_parallel_pair() {
        // Two hot-spare components, no repair before system failure:
        // states 2-up, 1-up, 0-up(absorbing); MTTF = 1/(2l) + 1/l.
        let l = 0.2;
        let mut b = CtmcBuilder::new();
        let s2 = b.add_state("2up", 1.0);
        let s1 = b.add_state("1up", 1.0);
        let s0 = b.add_state("0up", 0.0);
        b.add_transition(s2, s1, 2.0 * l);
        b.add_transition(s1, s0, l);
        b.add_transition(s0, s2, 1.0); // repair (ignored by reliability model)
        let c = b.build().unwrap();
        let a = mttf(&c, s2).unwrap();
        assert!((a.mttf - (1.0 / (2.0 * l) + 1.0 / l)).abs() < 1e-9);
    }

    #[test]
    fn mttf_with_repair_in_up_states() {
        // 2-up <-> 1-up with repair mu, then failure to absorbing.
        // Known closed form: MTTF = (3l + mu) / (2 l^2).
        let (l, mu) = (0.1, 2.0);
        let mut b = CtmcBuilder::new();
        let s2 = b.add_state("2up", 1.0);
        let s1 = b.add_state("1up", 1.0);
        let s0 = b.add_state("down", 0.0);
        b.add_transition(s2, s1, 2.0 * l);
        b.add_transition(s1, s2, mu);
        b.add_transition(s1, s0, l);
        b.add_transition(s0, s1, 1.0);
        let c = b.build().unwrap();
        let a = mttf(&c, s2).unwrap();
        assert!((a.mttf - (3.0 * l + mu) / (2.0 * l * l)).abs() < 1e-7);
    }

    #[test]
    fn reliability_is_exponential_for_single_component() {
        let l = 0.05;
        let c = two_state(l, 3.0);
        let times = [1.0, 5.0, 10.0, 50.0];
        let curve = reliability_curve(&c, 0, &times).unwrap();
        for (i, &t) in times.iter().enumerate() {
            assert!((curve.reliability[i] - (-l * t).exp()).abs() < 1e-10);
            // Constant hazard = lambda; interval failure rate = lambda.
            assert!((curve.interval_failure_rate[i] - l).abs() < 1e-9);
        }
        // Hazard estimates need a fine grid: with constant hazard l the
        // finite-difference estimate is (1 - e^{-l dt}) / dt.
        let fine: Vec<f64> = (0..20).map(|i| i as f64 * 0.1).collect();
        let fine_curve = reliability_curve(&c, 0, &fine).unwrap();
        for &h in &fine_curve.hazard_rate {
            assert!((h - l).abs() < l * 0.01, "h={h}");
        }
    }

    #[test]
    fn reliability_at_zero_is_one() {
        let c = two_state(0.1, 1.0);
        assert!((reliability_at(&c, 0, 0.0).unwrap() - 1.0).abs() < 1e-15);
    }

    /// Levels `0..=3000` of a birth–death chain, `0..3000` up and level
    /// 3000 down, failing at `lambda` and repaired at `mu` per level.
    fn three_thousand_levels(lambda: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new();
        for i in 0..=3_000 {
            b.add_state(format!("L{i}"), if i < 3_000 { 1.0 } else { 0.0 });
        }
        for i in 0..3_000 {
            b.add_transition(i, i + 1, lambda);
            b.add_transition(i + 1, i, mu);
        }
        b.build().unwrap()
    }

    #[test]
    fn three_thousand_level_chains_solve_on_the_band() {
        // A dense −Q_UU would hold 9·10^6 entries, over the storage
        // bound; the band holds 3·3,000. With failure at 1 and repair at
        // r = 10^-3 the birth–death MTTF from level 0 is
        // Σ_{i<3000} Σ_{t≤i} r^t = Σ_i (1 − r^{i+1}) / (1 − r).
        let r: f64 = 1e-3;
        let want: f64 = (0..3_000).map(|i| (1.0 - r.powi(i + 1)) / (1.0 - r)).sum();
        let drifting = three_thousand_levels(1.0, r);
        let got = mttf(&drifting, 0).unwrap().mttf;
        assert!((got - want).abs() / want < 1e-12, "{got} vs {want}");
        assert_eq!(failure_modes(&drifting, 0).unwrap(), vec![(3_000, 1.0)]);
        // Failure at 10^-3 against repair at 1: the same sum with
        // r = 10^3, ~10^8997 h, beyond f64.
        let held = three_thousand_levels(1e-3, 1.0);
        assert!(mttf(&held, 0).unwrap().mttf.is_infinite());
        assert_eq!(failure_modes(&held, 0).unwrap(), vec![(3_000, 1.0)]);
    }

    #[test]
    fn wide_band_over_the_storage_bound_fails_typed() {
        // One long-range edge widens the 3,000 up states' band to the
        // whole chain: 3,000 · 5,999 entries plus the columns (two
        // `f64`s per entry; MTTF carries two, failure modes one), over
        // the bound, refused before allocating.
        let mut b = CtmcBuilder::new();
        for i in 0..=3_000 {
            b.add_state(format!("L{i}"), if i < 3_000 { 1.0 } else { 0.0 });
        }
        for i in 0..3_000 {
            b.add_transition(i, i + 1, 1.0);
        }
        b.add_transition(2_999, 0, 1.0);
        b.add_transition(0, 2_999, 1.0);
        let chain = b.build().unwrap();
        let refused = |entries| MarkovError::ExceedsStorage { method: "mttf", entries };
        assert_eq!(mttf(&chain, 0).unwrap_err(), refused(3_000 * 6_003));
        assert_eq!(failure_modes(&chain, 0).unwrap_err(), refused(3_000 * 6_001));
    }

    #[test]
    fn up_state_with_no_path_down_is_singular() {
        // `trap` is up and never leaves: the MTTF from it is infinite
        // by structure, not by size, so the solve reports Singular.
        let mut b = CtmcBuilder::new();
        let ok = b.add_state("ok", 1.0);
        let trap = b.add_state("trap", 1.0);
        let down = b.add_state("down", 0.0);
        b.add_transition(ok, down, 1.0);
        b.add_transition(down, trap, 1.0);
        let chain = b.build().unwrap();
        assert_eq!(mttf(&chain, ok).unwrap_err(), MarkovError::Singular);
        assert_eq!(failure_modes(&chain, ok).unwrap_err(), MarkovError::Singular);
    }

    #[test]
    fn no_down_states_rejected() {
        let mut b = CtmcBuilder::new();
        let a = b.add_state("a", 1.0);
        let c = b.add_state("b", 1.0);
        b.add_transition(a, c, 1.0);
        b.add_transition(c, a, 1.0);
        let chain = b.build().unwrap();
        assert!(matches!(mttf(&chain, 0), Err(MarkovError::MissingStates { .. })));
        assert!(matches!(
            reliability_curve(&chain, 0, &[1.0]),
            Err(MarkovError::MissingStates { .. })
        ));
    }

    #[test]
    fn start_must_be_up() {
        let c = two_state(0.1, 1.0);
        assert!(matches!(mttf(&c, 1), Err(MarkovError::MissingStates { .. })));
        assert!(matches!(reliability_curve(&c, 1, &[1.0]), Err(MarkovError::MissingStates { .. })));
    }

    #[test]
    fn failure_modes_sum_to_one_and_rank_correctly() {
        // Up state with two competing failure modes: fast (rate 3) and
        // slow (rate 1). First-failure attribution must be 3/4 vs 1/4.
        let mut b = CtmcBuilder::new();
        let up = b.add_state("up", 1.0);
        let fast = b.add_state("fast", 0.0);
        let slow = b.add_state("slow", 0.0);
        b.add_transition(up, fast, 3.0);
        b.add_transition(up, slow, 1.0);
        b.add_transition(fast, up, 10.0);
        b.add_transition(slow, up, 10.0);
        let c = b.build().unwrap();
        let modes = failure_modes(&c, up).unwrap();
        assert_eq!(modes[0].0, fast);
        assert!((modes[0].1 - 0.75).abs() < 1e-12);
        assert!((modes[1].1 - 0.25).abs() < 1e-12);
        let sum: f64 = modes.iter().map(|&(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn failure_modes_through_intermediate_up_states() {
        // up -> degraded -> down_b, up -> down_a directly.
        let mut b = CtmcBuilder::new();
        let up = b.add_state("up", 1.0);
        let degraded = b.add_state("degraded", 1.0);
        let down_a = b.add_state("down_a", 0.0);
        let down_b = b.add_state("down_b", 0.0);
        b.add_transition(up, down_a, 1.0);
        b.add_transition(up, degraded, 1.0);
        b.add_transition(degraded, down_b, 5.0);
        b.add_transition(degraded, up, 0.0001);
        b.add_transition(down_a, up, 1.0);
        b.add_transition(down_b, up, 1.0);
        let c = b.build().unwrap();
        let modes = failure_modes(&c, up).unwrap();
        // From up: 1/2 direct to a; 1/2 to degraded, which almost surely
        // falls to b.
        let map: std::collections::HashMap<_, _> = modes.into_iter().collect();
        assert!((map[&down_a] - 0.5).abs() < 1e-4);
        assert!((map[&down_b] - 0.5).abs() < 1e-4);
    }

    #[test]
    fn failure_modes_errors() {
        let c = two_state(0.1, 1.0);
        assert!(failure_modes(&c, 1).is_err()); // start not up
        let mut b = CtmcBuilder::new();
        let a = b.add_state("a", 1.0);
        let x = b.add_state("b", 1.0);
        b.add_transition(a, x, 1.0);
        b.add_transition(x, a, 1.0);
        let all_up = b.build().unwrap();
        assert!(failure_modes(&all_up, 0).is_err());
    }

    #[test]
    fn mttf_matches_reliability_integral() {
        // MTTF = integral of R(t); check with a fine trapezoid.
        let (l, mu) = (0.5, 4.0);
        let mut b = CtmcBuilder::new();
        let s2 = b.add_state("2up", 1.0);
        let s1 = b.add_state("1up", 1.0);
        let s0 = b.add_state("down", 0.0);
        b.add_transition(s2, s1, 2.0 * l);
        b.add_transition(s1, s2, mu);
        b.add_transition(s1, s0, l);
        b.add_transition(s0, s2, 0.5);
        let c = b.build().unwrap();
        let analytic = mttf(&c, 0).unwrap().mttf;
        let times: Vec<f64> = (0..=4000).map(|i| i as f64 * 0.05).collect();
        let curve = reliability_curve(&c, 0, &times).unwrap();
        let mut integral = 0.0;
        for i in 1..times.len() {
            integral += 0.5 * (curve.reliability[i] + curve.reliability[i - 1]) * 0.05;
        }
        assert!(
            (integral - analytic).abs() / analytic < 1e-3,
            "integral {integral} vs analytic {analytic}"
        );
    }

    #[test]
    fn chained_reliability_solves_match_independent_ones() {
        // A repairable pair with a latent state: every up state has a
        // path back to full health, so R(t) mixes several exponentials.
        let mut b = CtmcBuilder::new();
        let ok = b.add_state("Ok", 1.0);
        let one = b.add_state("1up", 1.0);
        let latent = b.add_state("Latent", 1.0);
        let down = b.add_state("down", 0.0);
        b.add_transition(ok, one, 2e-4);
        b.add_transition(ok, latent, 1e-5);
        b.add_transition(one, ok, 0.25);
        b.add_transition(one, down, 1e-4);
        b.add_transition(latent, ok, 1.0 / 24.0);
        b.add_transition(latent, down, 2e-4);
        b.add_transition(down, ok, 0.1);
        let c = b.build().unwrap();
        let abs = make_absorbing(&c);
        let independent = |t: f64| {
            let mut p0 = vec![0.0; abs.len()];
            p0[ok] = 1.0;
            let sol = transient::solve(&abs, &p0, t, TransientOptions::default()).unwrap();
            abs.up_states().iter().map(|&s| sol.probabilities[s]).sum::<f64>()
        };
        for mission in [720.0, 8760.0] {
            let times = [mission, mission + mission * 1e-3];
            let curve = reliability_curve(&c, ok, &times).unwrap();
            let (r0, r1) = (independent(times[0]), independent(times[1]));
            assert!((curve.reliability[0] - r0).abs() < 1e-12, "{mission}: {curve:?}");
            assert!((curve.reliability[1] - r1).abs() < 1e-12, "{mission}: {curve:?}");
            let hazard = (r0 - r1) / ((times[1] - times[0]) * r0);
            let rel = (curve.hazard_rate[0] - hazard).abs() / hazard;
            assert!(rel < 1e-6, "{mission}: hazard {} vs {hazard}", curve.hazard_rate[0]);
        }
        // Unsorted and repeated times keep their order in the result.
        let times = [8760.0, 10.0, 720.0, 10.0];
        let curve = reliability_curve(&c, ok, &times).unwrap();
        for (r, &t) in curve.reliability.iter().zip(&times) {
            assert!((r - independent(t)).abs() < 1e-12, "t={t}: {r}");
        }
        assert!(reliability_curve(&c, ok, &[5.0, -1.0]).is_err());
    }
}
