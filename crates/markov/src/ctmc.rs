//! Labelled continuous-time Markov chains with reward rates.

use crate::dense::DenseMatrix;
use crate::error::MarkovError;
use crate::gth;
use crate::matrix::SparseMatrix;

/// Identifier of a state inside one [`Ctmc`] (a dense index).
pub type StateId = usize;

/// Total matrix-vector work the default power-iteration budget spreads
/// over a chain: `budget ≈ POWER_WORK_BUDGET / states`, floored at
/// [`MIN_POWER_ITERATIONS`] so large chains still get a usable budget
/// instead of a spuriously tiny (or zero) one.
pub const POWER_WORK_BUDGET: usize = 50_000_000;

/// Floor of the default power-iteration budget.
pub const MIN_POWER_ITERATIONS: usize = 1_000;

/// Cooperative cancellation handle shared between a request owner and
/// the solver hot loops.
///
/// A token is a cloneable flag plus an optional absolute deadline. The
/// owner calls [`cancel`](CancelToken::cancel) (or lets the deadline
/// pass); the solvers poll [`is_cancelled`](CancelToken::is_cancelled)
/// at the same cadence as their wall-clock checks and abandon the
/// attempt with the typed [`MarkovError::Cancelled`] — which, unlike
/// `Timeout`, is *not* retryable, so a cancelled request exits the
/// whole fallback ladder immediately instead of burning the remaining
/// rungs.
///
/// Polling an atomic is cheap enough for the check cadences in use
/// (every 1024 power iterations, every 32 GTH pivots, every 256
/// transient series terms); `Instant::now()` is only taken when a
/// deadline is set.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: std::sync::Arc<std::sync::atomic::AtomicBool>,
    deadline: Option<std::time::Instant>,
}

impl CancelToken {
    /// A fresh, uncancelled token with no deadline.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that reports cancelled once `deadline` has passed, in
    /// addition to explicit [`cancel`](CancelToken::cancel) calls.
    #[must_use]
    pub fn with_deadline(deadline: std::time::Instant) -> Self {
        CancelToken { flag: std::sync::Arc::default(), deadline: Some(deadline) }
    }

    /// Requests cancellation; every clone of this token observes it.
    pub fn cancel(&self) {
        self.flag.store(true, std::sync::atomic::Ordering::Release);
    }

    /// Whether the owner cancelled or the deadline has passed.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(std::sync::atomic::Ordering::Acquire)
            || self.deadline.is_some_and(|d| std::time::Instant::now() >= d)
    }

    /// The absolute deadline, when one was set at construction.
    #[must_use]
    pub fn deadline(&self) -> Option<std::time::Instant> {
        self.deadline
    }
}

/// Tokens compare by identity (same shared flag), not by state — two
/// independently created tokens are never equal, so caching layers that
/// compare options treat differently-cancellable requests as distinct.
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        std::sync::Arc::ptr_eq(&self.flag, &other.flag) && self.deadline == other.deadline
    }
}

/// Budgets for the steady-state solvers.
///
/// Every solve attempt is bounded twice: by an iteration budget (the
/// deterministic bound) and by a wall-clock budget (the robustness
/// bound — a stiff chain must fail *typed*, with
/// [`MarkovError::Timeout`], instead of hanging a worker). The
/// wall-clock default is generous enough that well-posed RAScad models
/// never hit it, keeping results independent of host speed. A third,
/// externally-owned bound — [`CancelToken`] — lets a long-lived caller
/// (the serve daemon) abort a solve mid-flight.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOptions {
    /// Power-iteration budget, the only rung with an iteration count;
    /// `None` scales [`POWER_WORK_BUDGET`] by the chain size (see
    /// [`SolveOptions::power_iteration_budget`]). The direct rungs (LU,
    /// GTH) ignore it.
    pub max_iterations: Option<usize>,
    /// Power-iteration convergence tolerance on the iterate delta.
    pub tolerance: f64,
    /// Per-attempt wall-clock budget; `None` disables the clock.
    pub wall_clock: Option<std::time::Duration>,
    /// Cooperative cancellation token; `None` means uncancellable.
    /// Checked at the same cadence as the wall clock in every solver
    /// loop; trips [`MarkovError::Cancelled`].
    pub cancel: Option<CancelToken>,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            max_iterations: None,
            tolerance: 1e-14,
            wall_clock: Some(std::time::Duration::from_secs(30)),
            cancel: None,
        }
    }
}

impl SolveOptions {
    /// The power-iteration budget for an `n`-state chain: the explicit
    /// [`max_iterations`](Self::max_iterations) when set, else the
    /// work-scaled default floored at [`MIN_POWER_ITERATIONS`].
    #[must_use]
    pub fn power_iteration_budget(&self, n: usize) -> usize {
        if let Some(explicit) = self.max_iterations {
            return explicit;
        }
        (POWER_WORK_BUDGET / n.max(1)).max(MIN_POWER_ITERATIONS)
    }

    /// Whether `elapsed` has exhausted the wall-clock budget. Inclusive
    /// so a zero budget trips deterministically (used by the chaos
    /// tests to force timeouts without real waiting).
    pub(crate) fn over_budget(&self, elapsed: std::time::Duration) -> bool {
        self.wall_clock.is_some_and(|budget| elapsed >= budget)
    }

    /// Whether the caller's cancellation token has tripped (explicitly
    /// or via its deadline). Checked wherever the wall clock is.
    pub(crate) fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Builds the typed cancellation error for an abandoned attempt.
    pub(crate) fn cancelled_error(&self, method: &'static str, iterations: usize) -> MarkovError {
        MarkovError::Cancelled { method, iterations }
    }

    /// Builds the typed timeout error for an attempt that ran out of
    /// wall clock.
    pub(crate) fn timeout_error(
        &self,
        method: &'static str,
        iterations: usize,
        elapsed: std::time::Duration,
    ) -> MarkovError {
        MarkovError::Timeout {
            method,
            iterations,
            elapsed_ms: elapsed.as_millis() as u64,
            budget_ms: self.wall_clock.unwrap_or_default().as_millis() as u64,
        }
    }
}

/// Which steady-state algorithm to use.
///
/// Three independent algorithms are provided so higher layers can
/// cross-validate results — mirroring the paper's validation of RAScad
/// against SHARPE and MEADEP. GTH runs in the generator's band, so it
/// is linear on the birth–death chains of k-out-of-n pools and scales
/// to every chain the generator emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SteadyStateMethod {
    /// Grassmann–Taksar–Heyman elimination. Subtraction-free, hence
    /// numerically robust even for stiff availability models where rates
    /// span many orders of magnitude. The default.
    #[default]
    Gth,
    /// Dense LU factorization of the balance equations `pi * Q = 0`,
    /// `sum(pi) = 1` (one balance equation replaced by normalization).
    Lu,
    /// Power iteration on the uniformized DTMC `P = I + Q/Λ` until the
    /// iterates stop moving. Iterative rather than direct — the third
    /// independent numerical path used by the validation experiments.
    /// Slow for stiff chains; accuracy ~1e-12 in the iterate delta.
    Power,
}

/// One state of a chain: a label plus a reward rate.
///
/// In availability models the reward rate is 1 for operational ("up")
/// states and 0 for failure ("down") states, following the Markov-reward
/// formulation the paper cites (Goyal/Lavenberg/Trivedi; Reibman/Smith/
/// Trivedi).
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    /// Human-readable label, e.g. `"PF1"` or `"ServiceError"`.
    pub label: String,
    /// Non-negative reward rate; 1.0 = up, 0.0 = down.
    pub reward: f64,
}

/// A transition with its rate (per hour in RAScad models).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// Source state.
    pub from: StateId,
    /// Destination state.
    pub to: StateId,
    /// Exponential rate, must be positive and finite.
    pub rate: f64,
}

/// Incrementally builds a [`Ctmc`].
///
/// # Example
///
/// ```
/// use rascad_markov::CtmcBuilder;
///
/// # fn main() -> Result<(), rascad_markov::MarkovError> {
/// let mut b = CtmcBuilder::new();
/// let up = b.add_state("up", 1.0);
/// let down = b.add_state("down", 0.0);
/// b.add_transition(up, down, 0.001);
/// b.add_transition(down, up, 0.5);
/// let chain = b.build()?;
/// assert_eq!(chain.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CtmcBuilder {
    states: Vec<State>,
    transitions: Vec<Transition>,
}

impl CtmcBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a state and returns its id.
    pub fn add_state(&mut self, label: impl Into<String>, reward: f64) -> StateId {
        self.states.push(State { label: label.into(), reward });
        self.states.len() - 1
    }

    /// Adds a transition `from -> to` with the given exponential `rate`.
    ///
    /// Zero-rate transitions are accepted and silently dropped at
    /// [`build`](Self::build) time, which lets generators emit optional
    /// edges (e.g. a `Pspf` branch with `Pspf = 0`) without special
    /// casing.
    pub fn add_transition(&mut self, from: StateId, to: StateId, rate: f64) -> &mut Self {
        self.transitions.push(Transition { from, to, rate });
        self
    }

    /// Number of states added so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether no states have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Validates and finalizes the chain.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::EmptyChain`] if there are no states.
    /// * [`MarkovError::UnknownState`] for out-of-range endpoints.
    /// * [`MarkovError::InvalidRate`] for negative/NaN/infinite rates.
    /// * [`MarkovError::InvalidReward`] for negative/NaN/infinite rewards.
    /// * [`MarkovError::SelfLoop`] for `from == to` transitions.
    pub fn build(&self) -> Result<Ctmc, MarkovError> {
        if self.states.is_empty() {
            return Err(MarkovError::EmptyChain);
        }
        let n = self.states.len();
        for (i, s) in self.states.iter().enumerate() {
            if !s.reward.is_finite() || s.reward < 0.0 {
                return Err(MarkovError::InvalidReward { state: i, reward: s.reward });
            }
        }
        let mut kept = Vec::with_capacity(self.transitions.len());
        for t in &self.transitions {
            if t.from >= n {
                return Err(MarkovError::UnknownState { id: t.from, len: n });
            }
            if t.to >= n {
                return Err(MarkovError::UnknownState { id: t.to, len: n });
            }
            if !t.rate.is_finite() || t.rate < 0.0 {
                return Err(MarkovError::InvalidRate { from: t.from, to: t.to, rate: t.rate });
            }
            if t.from == t.to {
                return Err(MarkovError::SelfLoop { state: t.from });
            }
            if t.rate > 0.0 {
                kept.push(*t);
            }
        }
        Ok(Ctmc { states: self.states.clone(), transitions: kept })
    }
}

/// A validated continuous-time Markov chain with reward rates.
#[derive(Debug, Clone, PartialEq)]
pub struct Ctmc {
    states: Vec<State>,
    transitions: Vec<Transition>,
}

impl Ctmc {
    /// Number of states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the chain has no states (never true for a built chain).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Number of (positive-rate) transitions.
    #[must_use]
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// The states in id order.
    #[must_use]
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// The transitions in insertion order.
    #[must_use]
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Finds a state id by its label.
    #[must_use]
    pub fn state_by_label(&self, label: &str) -> Option<StateId> {
        self.states.iter().position(|s| s.label == label)
    }

    /// The reward (row) vector indexed by state id.
    #[must_use]
    pub fn rewards(&self) -> Vec<f64> {
        self.states.iter().map(|s| s.reward).collect()
    }

    /// Ids of states with a strictly positive reward ("up" states).
    #[must_use]
    pub fn up_states(&self) -> Vec<StateId> {
        (0..self.len()).filter(|&i| self.states[i].reward > 0.0).collect()
    }

    /// Ids of states with zero reward ("down" states).
    #[must_use]
    pub fn down_states(&self) -> Vec<StateId> {
        (0..self.len()).filter(|&i| self.states[i].reward == 0.0).collect()
    }

    /// Builds the infinitesimal generator `Q` in sparse form
    /// (off-diagonal rates, diagonal = −(row sum)).
    #[must_use]
    pub fn generator(&self) -> SparseMatrix {
        let n = self.len();
        let mut trips = Vec::with_capacity(self.transitions.len() * 2);
        let mut diag = vec![0.0; n];
        for t in &self.transitions {
            trips.push((t.from, t.to, t.rate));
            diag[t.from] += t.rate;
        }
        for (i, d) in diag.iter().enumerate() {
            if *d > 0.0 {
                trips.push((i, i, -d));
            }
        }
        SparseMatrix::from_triplets(n, n, &trips)
    }

    /// Total exit rate of each state.
    #[must_use]
    pub fn exit_rates(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.len()];
        for t in &self.transitions {
            out[t.from] += t.rate;
        }
        out
    }

    /// Checks that every state can reach every other state (strong
    /// connectivity of the transition digraph), which guarantees a unique
    /// stationary distribution.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::Reducible`] naming a state outside the
    /// single strongly-connected component.
    pub fn check_irreducible(&self) -> Result<(), MarkovError> {
        let n = self.len();
        let mut fwd = vec![Vec::new(); n];
        let mut bwd = vec![Vec::new(); n];
        for t in &self.transitions {
            fwd[t.from].push(t.to);
            bwd[t.to].push(t.from);
        }
        let reach = |adj: &Vec<Vec<usize>>| {
            let mut seen = vec![false; n];
            let mut stack = vec![0usize];
            seen[0] = true;
            while let Some(s) = stack.pop() {
                for &d in &adj[s] {
                    if !seen[d] {
                        seen[d] = true;
                        stack.push(d);
                    }
                }
            }
            seen
        };
        let f = reach(&fwd);
        let b = reach(&bwd);
        for i in 0..n {
            if !(f[i] && b[i]) {
                return Err(MarkovError::Reducible { state: i });
            }
        }
        Ok(())
    }

    /// Solves for the stationary distribution `pi` with `pi * Q = 0`,
    /// `sum(pi) = 1`.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::Reducible`] if the chain is not irreducible.
    /// * [`MarkovError::Singular`] if the LU path hits a singular system.
    pub fn steady_state(&self, method: SteadyStateMethod) -> Result<Vec<f64>, MarkovError> {
        self.steady_state_with(method, &SolveOptions::default())
    }

    /// [`steady_state`](Self::steady_state) with explicit iteration and
    /// wall-clock budgets.
    ///
    /// # Errors
    ///
    /// In addition to the `steady_state` errors:
    ///
    /// * [`MarkovError::NotConverged`] if the power rung exhausts its
    ///   iteration budget.
    /// * [`MarkovError::Timeout`] if the attempt exceeds
    ///   [`SolveOptions::wall_clock`].
    pub fn steady_state_with(
        &self,
        method: SteadyStateMethod,
        options: &SolveOptions,
    ) -> Result<Vec<f64>, MarkovError> {
        if self.len() == 1 {
            return Ok(vec![1.0]);
        }
        self.check_irreducible()?;
        match method {
            SteadyStateMethod::Gth => gth::stationary_gth_with(self, options),
            SteadyStateMethod::Lu => self.steady_state_lu(options),
            SteadyStateMethod::Power => self.steady_state_power(options),
        }
    }

    fn steady_state_power(&self, options: &SolveOptions) -> Result<Vec<f64>, MarkovError> {
        let tolerance = options.tolerance;
        let mut span = rascad_obs::span("markov.power");
        span.record("states", self.len());
        let uni = crate::transient::uniformize(self);
        let n = self.len();
        let mut pi = vec![1.0 / n as f64; n];
        // Ping-pong buffer for the SpMV so the hot loop allocates
        // nothing per iteration.
        let mut next = vec![0.0; n];
        // Uniformization keeps diagonals positive, so the DTMC is
        // aperiodic and plain power iteration converges; the iteration
        // budget guards against extreme stiffness and is floored so
        // large chains never get a degenerate budget.
        let max_iter = options.power_iteration_budget(n);
        // Checking the clock every iteration would dominate small
        // chains, so it is sampled; the mask keeps the check cadence a
        // cheap bitwise test.
        const CLOCK_MASK: usize = 1024 - 1;
        let start = std::time::Instant::now();
        let mut trace = rascad_obs::trace::begin("power", "residual", n);
        let mut residual = f64::INFINITY;
        for iter in 1..=max_iter {
            if iter & CLOCK_MASK == 0 {
                if options.cancelled() {
                    span.record("iterations", iter);
                    trace.finish("cancelled");
                    return Err(options.cancelled_error("power", iter));
                }
                let elapsed = start.elapsed();
                if options.over_budget(elapsed) {
                    span.record("iterations", iter);
                    trace.finish("timeout");
                    return Err(options.timeout_error("power", iter, elapsed));
                }
            }
            uni.dtmc.vec_mul_into(&pi, &mut next);
            residual = next.iter().zip(&pi).map(|(a, b)| (a - b).abs()).sum();
            std::mem::swap(&mut pi, &mut next);
            trace.step(iter, residual);
            if residual < tolerance {
                let z: f64 = pi.iter().sum();
                for p in &mut pi {
                    *p /= z;
                }
                span.record("iterations", iter);
                span.record("residual", residual);
                rascad_obs::record_value_with(
                    "markov.iterations",
                    &[("method", "power")],
                    iter as f64,
                );
                rascad_obs::record_value_with("markov.residual", &[("method", "power")], residual);
                rascad_obs::counter_with("markov.solves", &[("method", "power")], 1);
                trace.finish("converged");
                return Ok(pi);
            }
        }
        span.record("iterations", max_iter);
        span.record("residual", residual);
        // A non-converged rung still reports its full telemetry — the
        // fallback ladder's decision to abandon this method should be
        // as observable as a success.
        rascad_obs::record_value_with("markov.iterations", &[("method", "power")], max_iter as f64);
        rascad_obs::record_value_with("markov.residual", &[("method", "power")], residual);
        rascad_obs::flight_event(
            "markov.power.not_converged",
            residual,
            &format!("{max_iter} iterations, residual {residual:.3e} vs tolerance {tolerance:.1e}"),
        );
        trace.finish("not-converged");
        Err(MarkovError::NotConverged {
            method: "power",
            iterations: max_iter,
            residual,
            tolerance,
        })
    }

    fn steady_state_lu(&self, options: &SolveOptions) -> Result<Vec<f64>, MarkovError> {
        // The dense factorization is uninterruptible, so the budget and
        // cancellation token are only honored up front: a zero (or
        // already-spent) budget fails typed instead of starting work it
        // cannot abandon.
        if options.cancelled() {
            return Err(options.cancelled_error("lu", 0));
        }
        if options.over_budget(std::time::Duration::ZERO) {
            return Err(options.timeout_error("lu", 0, std::time::Duration::ZERO));
        }
        let n = self.len();
        crate::error::check_storage("lu", n.saturating_mul(n))?;
        // Solve Q^T x = 0 with the last equation replaced by sum(x) = 1.
        let q = self.generator().to_dense();
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = q[(j, i)];
            }
        }
        for j in 0..n {
            a[(n - 1, j)] = 1.0;
        }
        let mut b = vec![0.0; n];
        b[n - 1] = 1.0;
        let mut pi = a.solve(&b)?;
        // Clamp tiny negatives from roundoff and renormalize.
        let mut sum = 0.0;
        for p in &mut pi {
            if *p < 0.0 && *p > -1e-9 {
                *p = 0.0;
            }
            sum += *p;
        }
        if !(sum.is_finite() && sum > 0.0) {
            return Err(MarkovError::Singular);
        }
        for p in &mut pi {
            *p /= sum;
        }
        Ok(pi)
    }

    /// Expected steady-state reward `sum(pi_i * r_i)`; with 0/1 rewards
    /// this is the steady-state availability.
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != self.len()`.
    #[must_use]
    pub fn expected_reward(&self, pi: &[f64]) -> f64 {
        assert_eq!(pi.len(), self.len(), "dimension mismatch");
        pi.iter().zip(&self.states).map(|(p, s)| p * s.reward).sum()
    }

    /// Steady-state system *failure rate*: the rate of up→down
    /// transitions, `sum_{i up} pi_i * sum_{j down} q_ij`.
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != self.len()`.
    #[must_use]
    pub fn failure_rate(&self, pi: &[f64]) -> f64 {
        assert_eq!(pi.len(), self.len(), "dimension mismatch");
        self.boundary_flow(pi, true)
    }

    /// Steady-state system *recovery rate*: the rate of down→up
    /// transitions.
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != self.len()`.
    #[must_use]
    pub fn recovery_rate(&self, pi: &[f64]) -> f64 {
        assert_eq!(pi.len(), self.len(), "dimension mismatch");
        self.boundary_flow(pi, false)
    }

    fn boundary_flow(&self, pi: &[f64], up_to_down: bool) -> f64 {
        let up: Vec<bool> = self.states.iter().map(|s| s.reward > 0.0).collect();
        self.transitions
            .iter()
            .filter(|t| if up_to_down { up[t.from] && !up[t.to] } else { !up[t.from] && up[t.to] })
            .map(|t| pi[t.from] * t.rate)
            .sum()
    }

    /// Mean time between system failures implied by the stationary
    /// distribution: `A / failure_rate` is mean up time; this returns the
    /// full cycle `1 / failure_rate`.
    ///
    /// Returns `f64::INFINITY` when the failure rate is zero.
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != self.len()`.
    #[must_use]
    pub fn mtbf(&self, pi: &[f64]) -> f64 {
        let fr = self.failure_rate(pi);
        if fr > 0.0 {
            1.0 / fr
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state(lambda: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new();
        let up = b.add_state("up", 1.0);
        let down = b.add_state("down", 0.0);
        b.add_transition(up, down, lambda);
        b.add_transition(down, up, mu);
        b.build().unwrap()
    }

    #[test]
    fn two_state_availability_closed_form() {
        let (l, m) = (2e-4, 0.25);
        let c = two_state(l, m);
        for method in [SteadyStateMethod::Gth, SteadyStateMethod::Lu] {
            let pi = c.steady_state(method).unwrap();
            let a = c.expected_reward(&pi);
            assert!((a - m / (l + m)).abs() < 1e-13, "{method:?}");
        }
    }

    #[test]
    fn failure_and_recovery_rates_balance() {
        let c = two_state(1e-3, 0.1);
        let pi = c.steady_state(SteadyStateMethod::Gth).unwrap();
        let f = c.failure_rate(&pi);
        let r = c.recovery_rate(&pi);
        // In steady state the up->down flow equals the down->up flow.
        assert!((f - r).abs() < 1e-15);
        assert!((f - pi[0] * 1e-3).abs() < 1e-18);
        assert!((c.mtbf(&pi) - 1.0 / f).abs() < 1e-6);
    }

    #[test]
    fn empty_chain_rejected() {
        assert_eq!(CtmcBuilder::new().build().unwrap_err(), MarkovError::EmptyChain);
    }

    #[test]
    fn bad_transitions_rejected() {
        let mut b = CtmcBuilder::new();
        let s = b.add_state("s", 1.0);
        b.add_transition(s, 7, 1.0);
        assert!(matches!(b.build().unwrap_err(), MarkovError::UnknownState { id: 7, .. }));

        let mut b = CtmcBuilder::new();
        let a = b.add_state("a", 1.0);
        let c = b.add_state("c", 0.0);
        b.add_transition(a, c, -2.0);
        assert!(matches!(b.build().unwrap_err(), MarkovError::InvalidRate { .. }));

        let mut b = CtmcBuilder::new();
        let a = b.add_state("a", 1.0);
        b.add_state("b", 0.0);
        b.add_transition(a, a, 1.0);
        assert!(matches!(b.build().unwrap_err(), MarkovError::SelfLoop { state: 0 }));
    }

    #[test]
    fn bad_reward_rejected() {
        let mut b = CtmcBuilder::new();
        b.add_state("s", -1.0);
        assert!(matches!(b.build().unwrap_err(), MarkovError::InvalidReward { .. }));
    }

    #[test]
    fn zero_rate_transitions_dropped() {
        let mut b = CtmcBuilder::new();
        let a = b.add_state("a", 1.0);
        let c = b.add_state("b", 0.0);
        b.add_transition(a, c, 0.0);
        b.add_transition(a, c, 1.0);
        b.add_transition(c, a, 1.0);
        let chain = b.build().unwrap();
        assert_eq!(chain.transition_count(), 2);
    }

    #[test]
    fn reducible_chain_detected() {
        let mut b = CtmcBuilder::new();
        let a = b.add_state("a", 1.0);
        let c = b.add_state("b", 0.0);
        b.add_transition(a, c, 1.0); // no way back
        let chain = b.build().unwrap();
        assert!(matches!(
            chain.steady_state(SteadyStateMethod::Gth).unwrap_err(),
            MarkovError::Reducible { .. }
        ));
    }

    #[test]
    fn single_state_chain_is_trivial() {
        let mut b = CtmcBuilder::new();
        b.add_state("only", 1.0);
        let chain = b.build().unwrap();
        assert_eq!(chain.steady_state(SteadyStateMethod::Lu).unwrap(), vec![1.0]);
    }

    #[test]
    fn generator_rows_sum_to_zero() {
        let c = two_state(0.3, 0.7);
        for s in c.generator().row_sums() {
            assert!(s.abs() < 1e-15);
        }
    }

    #[test]
    fn state_lookup_by_label() {
        let c = two_state(1.0, 2.0);
        assert_eq!(c.state_by_label("down"), Some(1));
        assert_eq!(c.state_by_label("nope"), None);
        assert_eq!(c.up_states(), vec![0]);
        assert_eq!(c.down_states(), vec![1]);
    }

    #[test]
    fn gth_and_lu_agree_on_cyclic_chain() {
        // 4-state cycle with asymmetric rates.
        let mut b = CtmcBuilder::new();
        for i in 0..4 {
            b.add_state(format!("s{i}"), if i < 2 { 1.0 } else { 0.0 });
        }
        let rates = [0.5, 1.5, 2.5, 3.5];
        for (i, &rate) in rates.iter().enumerate() {
            b.add_transition(i, (i + 1) % 4, rate);
        }
        let c = b.build().unwrap();
        let g = c.steady_state(SteadyStateMethod::Gth).unwrap();
        let l = c.steady_state(SteadyStateMethod::Lu).unwrap();
        for (a, b) in g.iter().zip(&l) {
            assert!((a - b).abs() < 1e-12);
        }
        // pi_i proportional to 1/rate_i for a cycle.
        let z: f64 = rates.iter().map(|r| 1.0 / r).sum();
        for (i, &r) in rates.iter().enumerate() {
            assert!((g[i] - (1.0 / r) / z).abs() < 1e-12);
        }
    }

    #[test]
    fn power_iteration_agrees_with_direct_methods() {
        let c = two_state(2e-3, 0.4);
        let gth = c.steady_state(SteadyStateMethod::Gth).unwrap();
        let pow = c.steady_state(SteadyStateMethod::Power).unwrap();
        for (a, b) in gth.iter().zip(&pow) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }

        // A bigger random-ish chain.
        let mut b = CtmcBuilder::new();
        for i in 0..6 {
            b.add_state(format!("s{i}"), (i % 2) as f64);
        }
        for i in 0..6usize {
            b.add_transition(i, (i + 1) % 6, 0.2 + i as f64 * 0.15);
            b.add_transition(i, (i + 3) % 6, 0.05 + i as f64 * 0.02);
        }
        let c = b.build().unwrap();
        let gth = c.steady_state(SteadyStateMethod::Gth).unwrap();
        let pow = c.steady_state(SteadyStateMethod::Power).unwrap();
        for (a, b) in gth.iter().zip(&pow) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn power_iteration_records_convergence_telemetry() {
        use rascad_obs::{Event, Sink};
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct Capture(Arc<Mutex<Vec<Event>>>);
        impl Sink for Capture {
            fn event(&mut self, event: &Event) {
                self.0.lock().unwrap().push(event.clone());
            }
        }

        // This is the only test in the crate that installs the global
        // obs subscriber, so no serialization lock is needed; concurrent
        // tests may add unrelated metrics, which the asserts tolerate.
        let cap = Capture::default();
        rascad_obs::install(vec![Box::new(cap.clone())]);
        let pi = two_state(2e-3, 0.4).steady_state(SteadyStateMethod::Power).unwrap();
        rascad_obs::drain();
        rascad_obs::uninstall();
        assert_eq!(pi.len(), 2);

        let events = cap.0.lock().unwrap().clone();
        let (counters, values) = events
            .iter()
            .find_map(|e| match e {
                Event::Metrics { counters, values, .. } => Some((counters.clone(), values.clone())),
                _ => None,
            })
            .expect("drain emits metrics");
        assert!(counters.iter().any(|(n, v)| *n == "markov.solves{method=\"power\"}" && *v >= 1));
        let iters = values.iter().find(|(n, _)| *n == "markov.iterations{method=\"power\"}");
        assert!(iters.is_some_and(|(_, s)| s.count >= 1 && s.min >= 1.0), "{values:?}");
        let resid = values.iter().find(|(n, _)| *n == "markov.residual{method=\"power\"}");
        assert!(resid.is_some_and(|(_, s)| s.max < 1e-13), "{values:?}");
    }

    #[test]
    fn power_budget_scales_with_the_chain() {
        let opts = SolveOptions::default();
        assert_eq!(opts.power_iteration_budget(2), POWER_WORK_BUDGET / 2);
        assert_eq!(opts.power_iteration_budget(10_000), 5_000);
        // Large chains get the floor instead of a degenerate budget.
        assert_eq!(opts.power_iteration_budget(1_000_000), MIN_POWER_ITERATIONS);
        // Degenerate n=0 guards against division by zero.
        assert_eq!(opts.power_iteration_budget(0), POWER_WORK_BUDGET);
        // An explicit budget wins outright.
        let explicit = SolveOptions { max_iterations: Some(7), ..SolveOptions::default() };
        assert_eq!(explicit.power_iteration_budget(100_000_000), 7);
    }

    #[test]
    fn lu_over_the_storage_bound_fails_typed_before_allocating() {
        // 3,000 states: a dense 3,000² matrix exceeds the bound, while
        // the two-wide band GTH needs only 3 × 3,000 entries.
        let mut b = CtmcBuilder::new();
        for i in 0..3_000 {
            b.add_state(format!("s{i}"), 1.0);
        }
        for i in 0..2_999 {
            b.add_transition(i, i + 1, 1.0);
            b.add_transition(i + 1, i, 2.0);
        }
        let c = b.build().unwrap();
        match c.steady_state(SteadyStateMethod::Lu) {
            Err(MarkovError::ExceedsStorage { method: "lu", entries: 9_000_000 }) => {}
            other => panic!("expected ExceedsStorage, got {other:?}"),
        }
        assert!(c.steady_state(SteadyStateMethod::Gth).is_ok());
    }

    #[test]
    fn power_respects_explicit_iteration_budget() {
        let opts = SolveOptions {
            max_iterations: Some(3),
            tolerance: 0.0, // unreachable: force budget exhaustion
            wall_clock: None,
            ..SolveOptions::default()
        };
        let err = two_state(0.1, 0.9).steady_state_with(SteadyStateMethod::Power, &opts);
        match err {
            Err(MarkovError::NotConverged { method, iterations, .. }) => {
                assert_eq!(method, "power");
                assert_eq!(iterations, 3);
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn zero_wall_clock_budget_times_out_typed() {
        let opts = SolveOptions {
            max_iterations: Some(1_000_000),
            tolerance: 0.0, // keep power iterating until the clock check
            wall_clock: Some(std::time::Duration::ZERO),
            ..SolveOptions::default()
        };
        let c = two_state(0.1, 0.9);
        for method in [SteadyStateMethod::Power, SteadyStateMethod::Lu, SteadyStateMethod::Gth] {
            match c.steady_state_with(method, &opts) {
                Err(MarkovError::Timeout { budget_ms: 0, .. }) => {}
                other => panic!("expected Timeout for {method:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn pre_cancelled_token_aborts_every_method_typed() {
        let token = CancelToken::new();
        token.cancel();
        let opts = SolveOptions {
            max_iterations: Some(1_000_000),
            tolerance: 0.0, // keep iterating until the cancel check
            wall_clock: None,
            cancel: Some(token),
        };
        let c = two_state(0.1, 0.9);
        for method in [SteadyStateMethod::Power, SteadyStateMethod::Lu, SteadyStateMethod::Gth] {
            match c.steady_state_with(method, &opts) {
                Err(MarkovError::Cancelled { .. }) => {}
                other => panic!("expected Cancelled for {method:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn expired_deadline_counts_as_cancelled() {
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let token = CancelToken::with_deadline(past);
        assert!(token.is_cancelled());
        assert_eq!(token.deadline(), Some(past));
        let opts = SolveOptions {
            max_iterations: Some(1_000_000),
            tolerance: 0.0,
            wall_clock: None,
            cancel: Some(token),
        };
        match two_state(0.1, 0.9).steady_state_with(SteadyStateMethod::Power, &opts) {
            Err(MarkovError::Cancelled { method: "power", .. }) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn cancel_tokens_compare_by_identity() {
        let a = CancelToken::new();
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, CancelToken::new());
        // Cancelling either clone is visible through the other.
        b.cancel();
        assert!(a.is_cancelled());
        // A live token without a deadline is not cancelled.
        assert!(!CancelToken::new().is_cancelled());
    }

    #[test]
    fn steady_state_with_defaults_matches_steady_state() {
        let c = two_state(2e-3, 0.4);
        for method in [SteadyStateMethod::Gth, SteadyStateMethod::Lu, SteadyStateMethod::Power] {
            assert_eq!(
                c.steady_state(method).unwrap(),
                c.steady_state_with(method, &SolveOptions::default()).unwrap(),
            );
        }
    }
}
