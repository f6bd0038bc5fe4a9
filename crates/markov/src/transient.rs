//! Transient analysis by uniformization (randomization).
//!
//! RAScad reports *interval availability* over `(0, T)` where `T` is the
//! user's Mission Time. Uniformization computes state probabilities
//! `p(t) = p(0) e^{Qt}` as a Poisson mixture of DTMC powers,
//! `p(t) = Σ_k Poisson(Λt; k) · p(0) P^k` with `P = I + Q/Λ`,
//! and the *expected cumulative reward* (the integral availability) with
//! the standard one-extra-term recurrence. All terms are non-negative,
//! so the method is numerically stable for stiff availability chains.
//!
//! [`solve`] has two kernels over that DTMC. The series runs about `Λt`
//! sparse products, which at mission horizons means thousands. For the
//! small template chains, *nonnegative doubling* instead sums the series
//! only over `τ = t/2^s` with `Λτ ≤ 1` (about 20 terms) into a dense
//! `e^{Qτ}`, then squares it `s = ⌈log2 Λt⌉` times. The kernel is chosen
//! from the chain's size and `Λt`; DESIGN.md records the crossover.
//!
//! The series stores `P` by diagonal when the chain's nonzeros lie on a
//! few diagonals, as a k-out-of-n pool's do, and multiplies only the
//! range of states its distribution has not underflowed out of; both
//! leave every product bit-identical to the CSR scatter. Values too
//! small for full f64 precision leave that range: after each product
//! the subnormal entries at its ends are flushed to zero, and their
//! mass enters the reported truncation (DESIGN.md §17).

use std::ops::Range;

use crate::ctmc::{CancelToken, Ctmc};
use crate::dense::DenseMatrix;
use crate::error::MarkovError;
use crate::matrix::{DiagonalMatrix, SparseMatrix};

/// Options for the uniformization solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientOptions {
    /// Truncation error bound for the Poisson series (total mass left
    /// out). Default `1e-12`.
    pub epsilon: f64,
    /// Hard cap on the number of series terms (guards against absurd
    /// `Λt`). Default `10_000_000`.
    pub max_terms: usize,
}

impl Default for TransientOptions {
    fn default() -> Self {
        TransientOptions { epsilon: 1e-12, max_terms: 10_000_000 }
    }
}

/// Result of a transient solve at one time point.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientSolution {
    /// Time the solution refers to.
    pub time: f64,
    /// State probabilities at `time`.
    pub probabilities: Vec<f64>,
    /// Expected instantaneous reward at `time` (point availability for
    /// 0/1 rewards).
    pub point_reward: f64,
    /// Expected time-averaged cumulative reward over `(0, time)`
    /// (interval availability for 0/1 rewards).
    pub interval_reward: f64,
    /// Probability mass the truncated Poisson series failed to capture
    /// (before renormalization) — the solve's truncation error. The
    /// series adds the mass it flushed from its iterates' subnormal
    /// ends. The doubling kernel reports a bound, `2^s` times the tail
    /// bound of its short series, which is at most the requested
    /// `epsilon`.
    pub truncation: f64,
    /// The kernel that produced the solution.
    pub kernel: TransientKernel,
}

/// Uniformized DTMC: `P = I + Q/Λ` with `Λ ≥ max_i |q_ii|`.
#[derive(Debug, Clone)]
pub struct Uniformized {
    /// The uniformization rate Λ.
    pub rate: f64,
    /// The DTMC matrix `P` (rows sum to 1).
    pub dtmc: SparseMatrix,
}

/// Builds the uniformized DTMC of a chain.
///
/// The uniformization rate is `1.02 × max |q_ii|` (a small margin keeps
/// every diagonal of `P` strictly positive, which makes the chain
/// aperiodic and the series better behaved). A chain with no transitions
/// gets `Λ = 1` and `P = I`.
#[must_use]
pub fn uniformize(chain: &Ctmc) -> Uniformized {
    let rate = uniformization_rate(chain);
    let n = chain.len();
    let mut trips: Vec<(usize, usize, f64)> = Vec::new();
    let mut diag = vec![1.0; n];
    for t in chain.transitions() {
        trips.push((t.from, t.to, t.rate / rate));
        diag[t.from] -= t.rate / rate;
    }
    for (i, d) in diag.iter().enumerate() {
        trips.push((i, i, *d));
    }
    Uniformized { rate, dtmc: SparseMatrix::from_triplets(n, n, &trips) }
}

/// Largest chain, in states, that [`solve`] hands to the doubling
/// kernel; larger chains stay on the series. Fixed from the measured
/// crossover recorded in DESIGN.md: the dense squarings cost `n³` each,
/// and past this size doubling no longer wins by 2x at both the 720 h
/// and 8,760 h horizons.
pub const DOUBLING_MAX_STATES: usize = 64;

/// The kernel a transient solve ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransientKernel {
    /// The Poisson series `Σ_k w_k p0 Pᵏ`: about `Λt` sparse products.
    Series,
    /// Nonnegative doubling: the dense `e^{Qτ}` with `Λτ ≤ 1`, squared
    /// `⌈log2 Λt⌉` times.
    Doubling,
}

impl TransientKernel {
    /// The name certificate trails and spans carry.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TransientKernel::Series => "uniformization",
            TransientKernel::Doubling => "nonnegative doubling",
        }
    }
}

/// The uniformization rate Λ [`uniformize`] picks for `chain`.
fn uniformization_rate(chain: &Ctmc) -> f64 {
    let maxd = chain.generator().max_abs_diagonal();
    if maxd > 0.0 {
        maxd * 1.02
    } else {
        1.0
    }
}

/// The kernel [`solve`] runs for `chain` at a horizon `t > 0`.
#[must_use]
pub fn kernel_for(chain: &Ctmc, t: f64) -> TransientKernel {
    select_kernel(chain.len(), uniformization_rate(chain) * t)
}

/// Solves for state probabilities and rewards at time `t`, starting from
/// the distribution `p0`.
///
/// The kernel is chosen from the chain: chains of at most
/// [`DOUBLING_MAX_STATES`] states take [`TransientKernel::Doubling`]
/// unless the horizon is so short that the series is cheaper; every
/// other solve takes [`TransientKernel::Series`]. Both kernels bound
/// their truncation by `opts.epsilon`.
///
/// # Errors
///
/// * [`MarkovError::InvalidOption`] for negative `t`, bad `epsilon`, or a
///   series that exceeds `max_terms`.
/// * [`MarkovError::InvalidProbability`] if `p0` is not a distribution.
pub fn solve(
    chain: &Ctmc,
    p0: &[f64],
    t: f64,
    opts: TransientOptions,
) -> Result<TransientSolution, MarkovError> {
    solve_inner(chain, p0, t, opts, None, None)
}

/// [`solve`] that polls `cancel` every 64 series terms and at every
/// doubling squaring — the mission step of a request with a deadline.
///
/// # Errors
///
/// The [`solve`] errors, plus [`MarkovError::Cancelled`] once the token
/// trips.
pub fn solve_cancellable(
    chain: &Ctmc,
    p0: &[f64],
    t: f64,
    opts: TransientOptions,
    cancel: Option<&CancelToken>,
) -> Result<TransientSolution, MarkovError> {
    solve_inner(chain, p0, t, opts, None, cancel)
}

/// [`solve`] with the kernel fixed by the caller instead of chosen from
/// the chain — the cross-check between the two kernels.
///
/// # Errors
///
/// Same conditions as [`solve`].
pub fn solve_with(
    chain: &Ctmc,
    p0: &[f64],
    t: f64,
    opts: TransientOptions,
    kernel: TransientKernel,
) -> Result<TransientSolution, MarkovError> {
    solve_inner(chain, p0, t, opts, Some(kernel), None)
}

/// Series terms between cancellation polls in [`solve_cancellable`].
/// One term is one sparse product, so on a 10^5-state pool the poll
/// comes every ~20 ms of work; small chains pay one atomic load per
/// 64 products.
const CANCEL_STRIDE: usize = 64;

/// What a kernel hands back to [`solve_inner`]: the (unnormalized)
/// distribution at `t`, the expected cumulative reward over `(0, t)` in
/// time units, and the truncation bound.
struct KernelRun {
    probabilities: Vec<f64>,
    cumulative: f64,
    truncation: f64,
}

fn solve_inner(
    chain: &Ctmc,
    p0: &[f64],
    t: f64,
    opts: TransientOptions,
    forced: Option<TransientKernel>,
    cancel: Option<&CancelToken>,
) -> Result<TransientSolution, MarkovError> {
    check_distribution(p0, chain.len())?;
    if !t.is_finite() || t < 0.0 {
        return Err(MarkovError::InvalidOption { what: format!("time {t} must be >= 0") });
    }
    if !(opts.epsilon > 0.0 && opts.epsilon < 1.0) {
        return Err(MarkovError::InvalidOption {
            what: format!("epsilon {} must be in (0,1)", opts.epsilon),
        });
    }
    let rewards = chain.rewards();
    if t == 0.0 {
        let point = dot(p0, &rewards);
        return Ok(TransientSolution {
            time: 0.0,
            probabilities: p0.to_vec(),
            point_reward: point,
            interval_reward: point,
            truncation: 0.0,
            kernel: forced.unwrap_or(TransientKernel::Series),
        });
    }

    let mut span = rascad_obs::span("markov.transient");
    span.record("states", chain.len());
    span.record("t", t);

    let uni = uniformize(chain);
    let lt = uni.rate * t;
    span.record("uniformization_rate", uni.rate);
    let kernel = forced.unwrap_or_else(|| select_kernel(chain.len(), lt));
    span.record("kernel", kernel.name());

    let run = match kernel {
        TransientKernel::Series => series(&uni, p0, &rewards, lt, opts, cancel, &mut span)?,
        TransientKernel::Doubling => doubling(&uni, p0, &rewards, lt, opts, cancel, &mut span)?,
    };
    rascad_obs::counter("markov.transient.solves", 1);
    rascad_obs::record_value("markov.transient.truncation", run.truncation);

    // Normalize the point distribution against truncation loss.
    let mut probabilities = run.probabilities;
    let mass: f64 = probabilities.iter().sum();
    if mass > 0.0 {
        for p in &mut probabilities {
            *p /= mass;
        }
    }
    let point = dot(&probabilities, &rewards);
    let interval = run.cumulative / t;

    Ok(TransientSolution {
        time: t,
        probabilities,
        point_reward: point,
        interval_reward: interval.clamp(0.0, rewards.iter().cloned().fold(0.0, f64::max)),
        truncation: run.truncation,
        kernel,
    })
}

/// The kernel [`solve`] runs for a chain of `states` states at `lt = Λt`:
/// doubling for chains of at most [`DOUBLING_MAX_STATES`] states, unless
/// the series is already shorter than `states` terms per squaring — the
/// measured short-horizon crossover (DESIGN.md), where the few sparse
/// products of the series cost less than the dense ones of doubling.
fn select_kernel(states: usize, lt: f64) -> TransientKernel {
    let squarings = lt.log2().ceil().max(1.0);
    if states <= DOUBLING_MAX_STATES && lt > states as f64 * squarings {
        TransientKernel::Doubling
    } else {
        TransientKernel::Series
    }
}

/// Most slots per stored nonzero that diagonal storage of `P` may take
/// (DESIGN.md §17): a k-out-of-n pool's three diagonals store about one
/// slot per nonzero, while the Type 1–4 templates would store 2.7–18
/// (median 5.3), and their series run slower on diagonals than on CSR.
const DIAGONAL_MAX_FILL: usize = 2;

/// The uniformized `P` as the series multiplies it: by diagonal when its
/// nonzeros lie on a few diagonals, otherwise as the CSR matrix. Both
/// give bit-identical products on the series' nonnegative operands.
enum SeriesMatrix<'a> {
    Diagonals(DiagonalMatrix),
    Csr(&'a SparseMatrix),
}

/// A series iterate: its `n` entries behind the matrix's zero padding,
/// and the range `live` outside which every entry is zero.
///
/// A large pool's distribution has underflowed, or been flushed, to
/// zero over most of its deep states, so products, accumulations and
/// the stopping test run over `live` only. What they skip would only
/// add exact zeros.
struct Iterate {
    padded: Vec<f64>,
    front: usize,
    n: usize,
    live: Range<usize>,
}

impl Iterate {
    fn entries(&self) -> &[f64] {
        &self.padded[self.front..self.front + self.n]
    }

    fn live_entries(&self) -> &[f64] {
        &self.entries()[self.live.clone()]
    }

    /// Narrows `live` past the entries at both of its ends that are
    /// zero or below `f64::MIN_POSITIVE`, setting the latter to zero,
    /// and returns what it flushed, summed from the front and then from
    /// the back. Interior entries stay as they are.
    fn trim(&mut self) -> Flushed {
        let (mut start, mut end) = (self.live.start, self.live.end);
        let e = &mut self.padded[self.front..self.front + self.n];
        let mut flushed = Flushed::default();
        let mut flush = |x: &mut f64| {
            if *x != 0.0 {
                flushed.mass += *x;
                flushed.entries += 1;
                *x = 0.0;
            }
        };
        while start < end && e[start] < f64::MIN_POSITIVE {
            flush(&mut e[start]);
            start += 1;
        }
        while end > start && e[end - 1] < f64::MIN_POSITIVE {
            end -= 1;
            flush(&mut e[end]);
        }
        self.live = start..end;
        flushed
    }
}

/// The mass and number of entries [`Iterate::trim`] flushed to zero.
///
/// An iterate is `p0 Pᵏ` less what earlier products flushed, so every
/// later term of the series misses at most the flushed total, and
/// the series adds that total to its truncation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Flushed {
    mass: f64,
    entries: usize,
}

impl std::ops::AddAssign for Flushed {
    fn add_assign(&mut self, other: Flushed) {
        self.mass += other.mass;
        self.entries += other.entries;
    }
}

impl<'a> SeriesMatrix<'a> {
    fn new(p: &'a SparseMatrix) -> Self {
        DiagonalMatrix::from_sparse(p, DIAGONAL_MAX_FILL)
            .map_or(SeriesMatrix::Csr(p), SeriesMatrix::Diagonals)
    }

    fn storage(&self) -> &'static str {
        match self {
            SeriesMatrix::Diagonals(_) => "diagonals",
            SeriesMatrix::Csr(_) => "csr",
        }
    }

    /// `v` as an iterate, every entry live.
    fn iterate(&self, v: &[f64]) -> Iterate {
        let mut it = self.zeros(v.len());
        it.padded[it.front..it.front + it.n].copy_from_slice(v);
        it.live = 0..it.n;
        it
    }

    /// An all-zero iterate of `n` entries.
    fn zeros(&self, n: usize) -> Iterate {
        let (front, back) = match self {
            SeriesMatrix::Diagonals(d) => d.padding(),
            SeriesMatrix::Csr(_) => (0, 0),
        };
        Iterate { padded: vec![0.0; front + n + back], front, n, live: 0..0 }
    }

    /// `next = probs · P`, with `next.live` trimmed by
    /// [`Iterate::trim`]; returns what the trim flushed.
    fn product(&self, probs: &Iterate, next: &mut Iterate) -> Flushed {
        match self {
            SeriesMatrix::Diagonals(d) => {
                let cols = d.reach(probs.live.clone());
                let stale = next.live.clone();
                let out = &mut next.padded[next.front..next.front + next.n];
                // What `next` held outside the new columns goes to zero.
                out[stale.start..cols.start.clamp(stale.start, stale.end)].fill(0.0);
                out[cols.end.clamp(stale.start, stale.end)..stale.end].fill(0.0);
                d.vec_mul_padded(&probs.padded, out, cols.clone());
                next.live = cols;
            }
            SeriesMatrix::Csr(p) => {
                p.vec_mul_into(&probs.padded, &mut next.padded);
                next.live = 0..next.n;
            }
        }
        next.trim()
    }
}

/// The uniformization series: `p(t) = Σ_k w_k p0 Pᵏ` and the cumulative
/// reward `(1/Λ) Σ_k W_k p0 Pᵏ r` with `W_k = Σ_{j>k} w_j`.
///
/// The weights are stored only over their window `[lo, kmax]`. Below
/// `lo` every `w_k` is zero, so `W_k` is the constant window total and
/// the point accumulator is left alone; the arithmetic is otherwise the
/// full-length series', term for term.
fn series(
    uni: &Uniformized,
    p0: &[f64],
    rewards: &[f64],
    lt: f64,
    opts: TransientOptions,
    cancel: Option<&CancelToken>,
    span: &mut rascad_obs::Span,
) -> Result<KernelRun, MarkovError> {
    let n = p0.len();
    let matrix = SeriesMatrix::new(&uni.dtmc);
    let mut probs = matrix.iterate(p0);
    let mut point_acc = vec![0.0; n];
    let mut cum_acc = vec![0.0; n];

    let PoissonWindow { lo, w: weights } = poisson_weights(lt, opts.epsilon, opts.max_terms)?;
    // tail[k - lo] = sum_{j > k} w_j (computed as suffix sums over the
    // truncated series; truncation error <= epsilon). Below the window
    // it stays at `below`, the sum of every weight.
    let kmax = lo + weights.len() - 1;
    let mut tail = vec![0.0; weights.len()];
    let mut below = 0.0;
    for (t, &w) in tail.iter_mut().zip(&weights).rev() {
        *t = below;
        below += w;
    }
    // tail2[k - lo] = sum_{j >= k} tail[j], for closing the cumulative
    // series when steady state is detected early.
    let mut tail2 = vec![0.0; weights.len() + 1];
    for i in (0..weights.len()).rev() {
        tail2[i] = tail2[i + 1] + tail[i];
    }
    // tail2 at any k: below the window, replays the additions of
    // `below` from the window's edge down to k, in the same order.
    let tail2_at = |k: usize| {
        if k >= lo {
            return tail2[k - lo];
        }
        let mut x = tail2[0];
        for _ in k..lo {
            x += below;
        }
        x
    };

    let (mut steps, mut flushed) = (0usize, Flushed::default());
    // Scratch iterate reused across every product so the Poisson series
    // allocates nothing per term.
    let mut next = matrix.zeros(n);
    // Truncation-error series: the tail is exactly the Poisson mass not
    // yet captured after term k, i.e. the running truncation error.
    let mut trace = rascad_obs::trace::begin("transient", "truncation", n);
    for k in 0..=kmax {
        if k % CANCEL_STRIDE == 0 && cancel.is_some_and(CancelToken::is_cancelled) {
            trace.finish("cancelled");
            return Err(MarkovError::Cancelled { method: "transient", iterations: k });
        }
        let tail_k = if k < lo { below } else { tail[k - lo] };
        let live = probs.live.clone();
        if k >= lo {
            axpy(weights[k - lo], probs.live_entries(), &mut point_acc[live.clone()]);
        }
        axpy(tail_k, probs.live_entries(), &mut cum_acc[live]);
        trace.step(k + 1, tail_k);
        if k < kmax {
            flushed += matrix.product(&probs, &mut next);
            steps += 1;
            // Steady-state detection: once the DTMC iterates stop
            // moving, all remaining Poisson mass lands on the same
            // vector — close both series in one step.
            let settled = l1_distance_below(&next, &probs, opts.epsilon * 1e-3);
            std::mem::swap(&mut probs, &mut next);
            if settled {
                let live = probs.live.clone();
                axpy(tail_k, probs.live_entries(), &mut point_acc[live.clone()]);
                axpy(tail2_at(k + 1), probs.live_entries(), &mut cum_acc[live]);
                break;
            }
        }
    }
    trace.finish("done");
    span.record("kmax", kmax);
    span.record("steps", steps);
    span.record("storage", matrix.storage());
    span.record("flushed", flushed.mass);
    rascad_obs::record_value("markov.transient.kmax", kmax as f64);
    rascad_obs::counter("markov.transient.vec_mul_steps", steps as u64);
    rascad_obs::counter("markov.transient.flushed", flushed.entries as u64);

    // The probability mass the truncated series failed to capture —
    // the per-solve summary of the per-term series traced above — and
    // the mass the trims flushed from the iterates.
    let truncation = (1.0 - point_acc.iter().sum::<f64>()).max(0.0) + flushed.mass;
    let cumulative = dot(&cum_acc, rewards) / uni.rate;
    Ok(KernelRun { probabilities: point_acc, cumulative, truncation })
}

/// `acc += a · x`, element by element.
fn axpy(a: f64, x: &[f64], acc: &mut [f64]) {
    for (s, &v) in acc.iter_mut().zip(x) {
        *s += a * v;
    }
}

/// Whether `Σ_j |a_j − b_j|`, summed in index order over the hull of
/// both live ranges, is below `threshold`: the series' stopping test.
/// Entries outside the hull are zero in both and add nothing.
fn l1_distance_below(a: &Iterate, b: &Iterate, threshold: f64) -> bool {
    let live = a.live.start.min(b.live.start)..a.live.end.max(b.live.end);
    let (a, b) = (&a.entries()[live.clone()], &b.entries()[live]);
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() < threshold
}

/// Nonnegative doubling. With `s = ⌈log2 Λt⌉` and `τ = t/2^s` (so
/// `Λτ ≤ 1`), builds the dense `E = e^{Qτ} = Σ_k w_k Pᵏ` and the column
/// `v = ∫_0^τ e^{Qu} r du = (1/Λ) Σ_k W_k Pᵏ r` from a short Poisson
/// series, then doubles `s` times: `v ← v + E v`, `E ← E E`. Every
/// operand is nonnegative, so nothing cancels; each squared `E` has its
/// rows renormalized to sum 1, which keeps roundoff from compounding
/// over the squarings.
///
/// Truncation: the τ-series stops once a bound on its tail mass is at
/// most `epsilon / 2^s`, and `s` squarings lose at most `2^s` times
/// that, so the reported bound stays `<= epsilon`.
fn doubling(
    uni: &Uniformized,
    p0: &[f64],
    rewards: &[f64],
    lt: f64,
    opts: TransientOptions,
    cancel: Option<&CancelToken>,
    span: &mut rascad_obs::Span,
) -> Result<KernelRun, MarkovError> {
    let n = p0.len();
    // Halve exactly until Λτ <= 1.
    let (mut m, mut squarings, mut scale) = (lt, 0u32, 1.0f64);
    while m > 1.0 {
        m *= 0.5;
        scale *= 2.0;
        squarings += 1;
    }
    let (weights, tail) = small_mean_weights(m, opts.epsilon / scale, opts.max_terms)?;
    let kmax = weights.len() - 1;

    // E = Σ_k w_k Pᵏ by Horner's rule on the sparse P.
    let mut e = DenseMatrix::zeros(n, n);
    let mut scratch = DenseMatrix::zeros(n, n);
    for i in 0..n {
        e[(i, i)] = weights[kmax];
    }
    for &w in weights[..kmax].iter().rev() {
        uni.dtmc.mul_dense_into(&e, &mut scratch);
        std::mem::swap(&mut e, &mut scratch);
        for i in 0..n {
            e[(i, i)] += w;
        }
    }
    // v = (1/Λ) Σ_k W_k Pᵏ r with W_k = Σ_{j>k} w_j, also by Horner.
    let mut cum_weights = vec![0.0; kmax + 1];
    for k in (0..kmax).rev() {
        cum_weights[k] = cum_weights[k + 1] + weights[k + 1];
    }
    let mut v = vec![0.0; n];
    let mut next = vec![0.0; n];
    for &c in cum_weights[..kmax].iter().rev() {
        uni.dtmc.mul_vec_into(&v, &mut next);
        for (x, (p, r)) in v.iter_mut().zip(next.iter().zip(rewards)) {
            *x = p + c * r;
        }
    }
    for x in &mut v {
        *x /= uni.rate;
    }

    // One trace step per squaring: the row-sum drift the
    // renormalization removed.
    let mut trace = rascad_obs::trace::begin("transient", "row_drift", n);
    for j in 1..=squarings {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            trace.finish("cancelled");
            return Err(MarkovError::Cancelled { method: "transient", iterations: j as usize });
        }
        let ev = e.mul_vec(&v);
        for (x, d) in v.iter_mut().zip(&ev) {
            *x += d;
        }
        e.mul_into(&e, &mut scratch);
        std::mem::swap(&mut e, &mut scratch);
        let mut drift = 0.0f64;
        for i in 0..n {
            let row = e.row_mut(i);
            let sum: f64 = row.iter().sum();
            drift = drift.max((sum - 1.0).abs());
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
        trace.step(j as usize, drift);
    }
    trace.finish("done");
    span.record("kmax", kmax);
    span.record("squarings", squarings);
    rascad_obs::record_value("markov.transient.kmax", kmax as f64);
    rascad_obs::counter("markov.transient.vec_mul_steps", kmax as u64);
    rascad_obs::counter("markov.transient.squarings", u64::from(squarings));

    Ok(KernelRun {
        probabilities: e.vec_mul(p0),
        cumulative: dot(p0, &v),
        truncation: tail * scale,
    })
}

/// Solves at each of several time points (reusing nothing across points;
/// the chains here are small enough that clarity wins).
///
/// # Errors
///
/// Propagates errors from [`solve`].
pub fn solve_many(
    chain: &Ctmc,
    p0: &[f64],
    times: &[f64],
    opts: TransientOptions,
) -> Result<Vec<TransientSolution>, MarkovError> {
    times.iter().map(|&t| solve(chain, p0, t, opts)).collect()
}

/// Solves at many time points in a *single* uniformization pass.
///
/// The DTMC power sequence `p0 · Pᵏ` is computed once and shared across
/// every requested time; each time point only contributes its own
/// Poisson weights. For a grid of `m` points this is ~`m×` cheaper than
/// [`solve_many`], which restarts the power iteration per point.
///
/// Results are returned in the order of `times` (which need not be
/// sorted).
///
/// # Errors
///
/// Same conditions as [`solve`].
pub fn solve_grid(
    chain: &Ctmc,
    p0: &[f64],
    times: &[f64],
    opts: TransientOptions,
) -> Result<Vec<TransientSolution>, MarkovError> {
    check_distribution(p0, chain.len())?;
    if !(opts.epsilon > 0.0 && opts.epsilon < 1.0) {
        return Err(MarkovError::InvalidOption {
            what: format!("epsilon {} must be in (0,1)", opts.epsilon),
        });
    }
    for &t in times {
        if !t.is_finite() || t < 0.0 {
            return Err(MarkovError::InvalidOption { what: format!("time {t} must be >= 0") });
        }
    }
    let mut span = rascad_obs::span("markov.transient_grid");
    span.record("states", chain.len());
    span.record("points", times.len());

    let rewards = chain.rewards();
    let uni = uniformize(chain);
    span.record("uniformization_rate", uni.rate);

    // Per-time Poisson weights and suffix (tail) sums, packed into one
    // contiguous ragged buffer: series `i` keeps only its window, in
    // `weights[offsets[i]..offsets[i+1]]`, and `tails` shares the same
    // layout. Term `k >= los[i]` of series `i` is at
    // `offsets[i] + k - los[i]`; below the window its weight is zero and
    // its tail is `totals[i]`. One allocation pair for the whole grid
    // instead of two heap vectors per time point.
    let mut weights: Vec<f64> = Vec::new();
    let mut offsets: Vec<usize> = Vec::with_capacity(times.len() + 1);
    let mut los: Vec<usize> = Vec::with_capacity(times.len());
    offsets.push(0);
    let mut kmax = 0usize;
    for &t in times {
        let (lo, appended) =
            poisson_weights_into(uni.rate * t, opts.epsilon, opts.max_terms, &mut weights)?;
        kmax = kmax.max(lo + appended - 1);
        los.push(lo);
        offsets.push(weights.len());
    }
    let mut tails = vec![0.0; weights.len()];
    let mut totals = vec![0.0; times.len()];
    for i in 0..times.len() {
        let mut run = 0.0;
        for k in (offsets[i]..offsets[i + 1]).rev() {
            tails[k] = run;
            run += weights[k];
        }
        totals[i] = run;
    }

    let n = chain.len();
    // Row-major accumulators: time point `i` owns `[i * n .. (i+1) * n]`.
    let mut point_acc = vec![0.0; times.len() * n];
    let mut cum_acc = vec![0.0; times.len() * n];
    let matrix = SeriesMatrix::new(&uni.dtmc);
    let mut probs = matrix.iterate(p0);
    // Scratch iterate reused across every product (no per-term
    // allocation in the shared-series sweep).
    let mut next = matrix.zeros(n);
    // What the trims had flushed by each point's last term: that
    // point's share of the truncation.
    let mut flushed = Flushed::default();
    let mut point_flushed = vec![0.0; times.len()];
    for k in 0..=kmax {
        let live = probs.live.clone();
        for i in 0..times.len() {
            let (off, lo) = (offsets[i], los[i]);
            let end = lo + offsets[i + 1] - off;
            if k < end {
                let (wk, tk) = if k < lo {
                    (0.0, totals[i])
                } else {
                    (weights[off + k - lo], tails[off + k - lo])
                };
                let pa = &mut point_acc[i * n..(i + 1) * n];
                axpy(wk, probs.live_entries(), &mut pa[live.clone()]);
                let ca = &mut cum_acc[i * n..(i + 1) * n];
                axpy(tk, probs.live_entries(), &mut ca[live.clone()]);
                if k + 1 == end {
                    point_flushed[i] = flushed.mass;
                }
            }
        }
        if k < kmax {
            flushed += matrix.product(&probs, &mut next);
            std::mem::swap(&mut probs, &mut next);
        }
    }
    span.record("kmax", kmax);
    span.record("flushed", flushed.mass);
    rascad_obs::record_value("markov.transient.kmax", kmax as f64);
    rascad_obs::counter("markov.transient.vec_mul_steps", kmax as u64);
    rascad_obs::counter("markov.transient.flushed", flushed.entries as u64);
    rascad_obs::counter("markov.transient.grid_solves", 1);

    let max_reward = rewards.iter().cloned().fold(0.0, f64::max);
    Ok(times
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let mut p = point_acc[i * n..(i + 1) * n].to_vec();
            let mass: f64 = p.iter().sum();
            let truncation = (1.0 - mass).max(0.0) + point_flushed[i];
            if mass > 0.0 {
                for x in &mut p {
                    *x /= mass;
                }
            }
            let point = dot(&p, &rewards);
            let interval = if t > 0.0 {
                (dot(&cum_acc[i * n..(i + 1) * n], &rewards) / uni.rate / t).clamp(0.0, max_reward)
            } else {
                point
            };
            TransientSolution {
                time: t,
                probabilities: p,
                point_reward: point,
                interval_reward: interval,
                truncation,
                kernel: TransientKernel::Series,
            }
        })
        .collect())
}

/// A truncated Poisson pmf stored over its window only: `w[i]` is the
/// weight of term `lo + i`, and every term below `lo` is zero.
struct PoissonWindow {
    lo: usize,
    w: Vec<f64>,
}

/// Poisson pmf values `w_k = e^{-m} m^k / k!` for `k = lo..=kmax`, where
/// `lo` and `kmax` are chosen so the truncated mass is below `epsilon`.
///
/// Uses left/right truncation with scaling for large `m` (Fox–Glynn
/// style, simplified: start at the mode with weight 1, extend both ways,
/// then normalize by the total).
fn poisson_weights(m: f64, epsilon: f64, max_terms: usize) -> Result<PoissonWindow, MarkovError> {
    let mut w = Vec::new();
    let (lo, _) = poisson_weights_into(m, epsilon, max_terms, &mut w)?;
    Ok(PoissonWindow { lo, w })
}

/// Appends the window of the truncated Poisson pmf for mean `m` onto
/// `out` and returns its first term's index `lo` and the number of
/// weights appended. Lets grid solvers pack many series into one
/// contiguous buffer instead of allocating a `Vec` per time point.
fn poisson_weights_into(
    m: f64,
    epsilon: f64,
    max_terms: usize,
    out: &mut Vec<f64>,
) -> Result<(usize, usize), MarkovError> {
    let start = out.len();
    if m <= 0.0 {
        out.push(1.0);
        return Ok((0, 1));
    }
    let mut lo = 0;
    if m < 400.0 {
        // Direct recurrence is safe: e^{-400} is representable.
        out.reserve(64);
        let mut wk = (-m).exp();
        let mut acc = wk;
        out.push(wk);
        let mut k = 1usize;
        while 1.0 - acc > epsilon {
            if k > max_terms {
                out.truncate(start);
                return Err(MarkovError::InvalidOption {
                    what: format!("poisson series for m={m} exceeded {max_terms} terms"),
                });
            }
            wk *= m / k as f64;
            out.push(wk);
            acc += wk;
            k += 1;
        }
    } else {
        // Scaled: weights relative to the mode, normalized at the end.
        let mode = m.floor() as usize;
        let spread = (6.0 * m.sqrt()).ceil() as usize + 40;
        lo = mode.saturating_sub(spread);
        let hi = mode + spread;
        if hi - lo > max_terms {
            return Err(MarkovError::InvalidOption {
                what: format!("poisson series for m={m} exceeded {max_terms} terms"),
            });
        }
        out.resize(start + hi - lo + 1, 0.0);
        let w = &mut out[start..];
        w[mode - lo] = 1.0;
        for k in (mode + 1)..=hi {
            w[k - lo] = w[k - lo - 1] * m / k as f64;
        }
        for k in (lo..mode).rev() {
            w[k - lo] = w[k - lo + 1] * (k as f64 + 1.0) / m;
        }
        let total: f64 = w.iter().sum();
        for x in w.iter_mut() {
            *x /= total;
        }
    }
    Ok((lo, out.len() - start))
}

/// Poisson pmf `w_0..=w_K` for a mean `m <= 1`, truncated at the first
/// `K` whose tail bound is at most `epsilon`; returns the weights and
/// that bound. For `j > K` the ratio `w_{j+1}/w_j = m/(j+1)` is at most
/// `m/(K+2) <= 1/2`, so `Σ_{j>K} w_j <= w_{K+1} / (1 - m/(K+2))` — a
/// true bound, computed without the cancellation of `1 - Σ w_k`.
fn small_mean_weights(
    m: f64,
    epsilon: f64,
    max_terms: usize,
) -> Result<(Vec<f64>, f64), MarkovError> {
    let mut w = vec![(-m).exp()];
    loop {
        let k = w.len();
        let next = w[k - 1] * m / k as f64;
        let tail = next / (1.0 - m / (k + 1) as f64);
        if tail <= epsilon {
            return Ok((w, tail));
        }
        if k > max_terms {
            return Err(MarkovError::InvalidOption {
                what: format!("poisson series for m={m} exceeded {max_terms} terms"),
            });
        }
        w.push(next);
    }
}

fn check_distribution(p: &[f64], n: usize) -> Result<(), MarkovError> {
    if p.len() != n {
        return Err(MarkovError::InvalidProbability {
            what: format!("initial vector has {} entries, chain has {n}", p.len()),
        });
    }
    let mut sum = 0.0;
    for &x in p {
        if !(0.0..=1.0 + 1e-12).contains(&x) || !x.is_finite() {
            return Err(MarkovError::InvalidProbability { what: format!("entry {x}") });
        }
        sum += x;
    }
    if (sum - 1.0).abs() > 1e-9 {
        return Err(MarkovError::InvalidProbability { what: format!("sum {sum} != 1") });
    }
    Ok(())
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts deterministic arithmetic
mod tests {
    use super::*;
    use crate::ctmc::{CtmcBuilder, SteadyStateMethod};

    fn two_state(lambda: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new();
        let up = b.add_state("up", 1.0);
        let down = b.add_state("down", 0.0);
        b.add_transition(up, down, lambda);
        b.add_transition(down, up, mu);
        b.build().unwrap()
    }

    /// Closed-form point availability of the 2-state machine:
    /// A(t) = mu/(l+mu) + l/(l+mu) e^{-(l+mu)t}.
    fn a_point(l: f64, mu: f64, t: f64) -> f64 {
        mu / (l + mu) + l / (l + mu) * (-(l + mu) * t).exp()
    }

    /// Closed-form interval availability of the 2-state machine.
    fn a_interval(l: f64, mu: f64, t: f64) -> f64 {
        let s = l + mu;
        mu / s + l / (s * s * t) * (1.0 - (-s * t).exp())
    }

    #[test]
    fn point_availability_matches_closed_form() {
        let (l, mu) = (0.02, 0.4);
        let c = two_state(l, mu);
        for &t in &[0.1, 1.0, 5.0, 20.0, 100.0] {
            let sol = solve(&c, &[1.0, 0.0], t, TransientOptions::default()).unwrap();
            assert!(
                (sol.point_reward - a_point(l, mu, t)).abs() < 1e-10,
                "t={t}: {} vs {}",
                sol.point_reward,
                a_point(l, mu, t)
            );
        }
    }

    #[test]
    fn interval_availability_matches_closed_form() {
        let (l, mu) = (0.05, 0.8);
        let c = two_state(l, mu);
        for &t in &[0.5, 2.0, 10.0, 50.0] {
            let sol = solve(&c, &[1.0, 0.0], t, TransientOptions::default()).unwrap();
            assert!(
                (sol.interval_reward - a_interval(l, mu, t)).abs() < 1e-9,
                "t={t}: {} vs {}",
                sol.interval_reward,
                a_interval(l, mu, t)
            );
        }
    }

    #[test]
    fn converges_to_steady_state() {
        let c = two_state(0.1, 0.9);
        let pi = c.steady_state(SteadyStateMethod::Gth).unwrap();
        let sol = solve(&c, &[1.0, 0.0], 500.0, TransientOptions::default()).unwrap();
        for (p, q) in sol.probabilities.iter().zip(&pi) {
            assert!((p - q).abs() < 1e-9);
        }
    }

    #[test]
    fn time_zero_returns_initial() {
        let c = two_state(0.1, 0.9);
        let sol = solve(&c, &[0.0, 1.0], 0.0, TransientOptions::default()).unwrap();
        assert_eq!(sol.probabilities, vec![0.0, 1.0]);
        assert_eq!(sol.point_reward, 0.0);
    }

    #[test]
    fn large_lt_uses_scaled_weights() {
        // lt ~ 1000: forces the scaled Poisson branch.
        let c = two_state(1.0, 1.0);
        let sol = solve(&c, &[1.0, 0.0], 500.0, TransientOptions::default()).unwrap();
        assert!((sol.point_reward - 0.5).abs() < 1e-9);
        let sum: f64 = sol.probabilities.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bad_inputs_rejected() {
        let c = two_state(0.1, 0.9);
        assert!(solve(&c, &[0.5, 0.4], 1.0, TransientOptions::default()).is_err());
        assert!(solve(&c, &[1.0], 1.0, TransientOptions::default()).is_err());
        assert!(solve(&c, &[1.0, 0.0], -1.0, TransientOptions::default()).is_err());
        let bad = TransientOptions { epsilon: 0.0, ..Default::default() };
        assert!(solve(&c, &[1.0, 0.0], 1.0, bad).is_err());
    }

    #[test]
    fn probabilities_remain_a_distribution() {
        let mut b = CtmcBuilder::new();
        for i in 0..5 {
            b.add_state(format!("s{i}"), (i % 2) as f64);
        }
        for i in 0..5usize {
            for j in 0..5usize {
                if i != j {
                    b.add_transition(i, j, 0.1 + (i * 5 + j) as f64 * 0.05);
                }
            }
        }
        let c = b.build().unwrap();
        let sol = solve(&c, &[0.2; 5], 3.7, TransientOptions::default()).unwrap();
        let sum: f64 = sol.probabilities.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        for &p in &sol.probabilities {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn solve_many_is_pointwise_solve() {
        let c = two_state(0.3, 0.7);
        let times = [0.0, 1.0, 10.0];
        let many = solve_many(&c, &[1.0, 0.0], &times, TransientOptions::default()).unwrap();
        assert_eq!(many.len(), 3);
        for (sol, &t) in many.iter().zip(&times) {
            let single = solve(&c, &[1.0, 0.0], t, TransientOptions::default()).unwrap();
            assert_eq!(sol, &single);
        }
    }

    #[test]
    fn solve_grid_matches_solve_many() {
        let mut b = CtmcBuilder::new();
        for i in 0..4 {
            b.add_state(format!("s{i}"), (i % 2) as f64);
        }
        for i in 0..4usize {
            b.add_transition(i, (i + 1) % 4, 0.4 + i as f64 * 0.3);
        }
        b.add_transition(2, 0, 1.1);
        let c = b.build().unwrap();
        let p0 = [1.0, 0.0, 0.0, 0.0];
        let times = [0.0, 0.7, 3.0, 12.0, 80.0];
        let grid = solve_grid(&c, &p0, &times, TransientOptions::default()).unwrap();
        let many = solve_many(&c, &p0, &times, TransientOptions::default()).unwrap();
        for (g, m) in grid.iter().zip(&many) {
            assert_eq!(g.time, m.time);
            assert!((g.point_reward - m.point_reward).abs() < 1e-10);
            assert!((g.interval_reward - m.interval_reward).abs() < 1e-9);
            for (a, b) in g.probabilities.iter().zip(&m.probabilities) {
                assert!((a - b).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn solve_grid_unsorted_times_and_errors() {
        let c = two_state(0.1, 0.9);
        let out = solve_grid(&c, &[1.0, 0.0], &[5.0, 1.0], TransientOptions::default()).unwrap();
        assert_eq!(out[0].time, 5.0);
        assert_eq!(out[1].time, 1.0);
        assert!(solve_grid(&c, &[1.0, 0.0], &[-1.0], TransientOptions::default()).is_err());
        assert!(solve_grid(&c, &[0.9, 0.0], &[1.0], TransientOptions::default()).is_err());
    }

    #[test]
    fn pools_run_on_diagonals_and_dense_chains_on_csr() {
        let pool = uniformize(&independent_units(30, 20, 1e-3, 0.25));
        assert_eq!(SeriesMatrix::new(&pool.dtmc).storage(), "diagonals");
        // Jumps scattered over many offsets, as in the Type 1–4
        // templates.
        let mut b = CtmcBuilder::new();
        for i in 0..20 {
            b.add_state(format!("s{i}"), 1.0);
        }
        for i in 0..20usize {
            for j in [(i * 7 + 3) % 20, (i * 3 + 1) % 20] {
                if j != i {
                    b.add_transition(i, j, 0.5);
                }
            }
        }
        let scattered = uniformize(&b.build().unwrap());
        assert_eq!(SeriesMatrix::new(&scattered.dtmc).storage(), "csr");
    }

    /// `entries` as a fully live iterate behind one slot of padding on
    /// each side, as diagonal storage keeps.
    fn iterate_of(entries: &[f64]) -> Iterate {
        let mut padded = vec![0.0; entries.len() + 2];
        padded[1..=entries.len()].copy_from_slice(entries);
        Iterate { padded, front: 1, n: entries.len(), live: 0..entries.len() }
    }

    #[test]
    fn trim_flushes_subnormal_ends_and_keeps_the_interior() {
        let (a, b) = (3e-310, f64::MIN_POSITIVE / 4.0);
        let mut it = iterate_of(&[0.0, a, 0.25, 5e-320, 0.0, 0.75, b, 0.0]);
        assert_eq!(it.trim(), Flushed { mass: a + b, entries: 2 });
        assert_eq!(a + b - a, b, "a sum of subnormals is exact");
        assert_eq!(it.live, 2..6);
        // The interior subnormal and zero stay; the ends are zero.
        assert_eq!(it.entries(), [0.0, 0.0, 0.25, 5e-320, 0.0, 0.75, 0.0, 0.0]);
        // Normal entries at the ends stop the trim at once.
        let mut it = iterate_of(&[f64::MIN_POSITIVE, 0.5, 0.0, f64::MIN_POSITIVE]);
        assert_eq!(it.trim(), Flushed::default());
        assert_eq!(it.live, 0..4);
        // An iterate that is all subnormal empties.
        let mut it = iterate_of(&[b, 0.0, 5e-320, b]);
        assert_eq!(it.trim(), Flushed { mass: b + 5e-320 + b, entries: 3 });
        assert!(it.live.is_empty());
        assert_eq!(it.entries(), [0.0; 4]);
        assert_eq!(it.padded, [0.0; 6]);
    }

    #[test]
    fn solve_grid_adds_each_points_flushed_mass_to_its_truncation() {
        // A 301-state pool whose deep levels underflow: the series
        // flushes at every product, and the captured mass reads 1.
        let c = independent_units(300, 270, 1e-3, 0.25);
        let p0 = p0_at(301, 0);
        let opts = TransientOptions::default();
        let times = [900.0, 20.0, 300.0];
        let grid = solve_grid(&c, &p0, &times, opts).unwrap();
        let uni = uniformize(&c);
        let matrix = SeriesMatrix::new(&uni.dtmc);
        for (sol, &t) in grid.iter().zip(&times) {
            // The products this point's window spans, replayed.
            let window = poisson_weights(uni.rate * t, opts.epsilon, opts.max_terms).unwrap();
            let (mut probs, mut next) = (matrix.iterate(&p0), matrix.zeros(301));
            let mut flushed = Flushed::default();
            for _ in 0..window.lo + window.w.len() - 1 {
                flushed += matrix.product(&probs, &mut next);
                std::mem::swap(&mut probs, &mut next);
            }
            assert!(flushed.entries > 0 && flushed.mass > 0.0, "t={t}: {flushed:?}");
            assert_eq!(sol.truncation, flushed.mass, "t={t}");
        }
    }

    #[test]
    fn poisson_weights_sum_to_one() {
        for &m in &[0.5, 5.0, 50.0, 399.0, 401.0, 5000.0] {
            let s: f64 = poisson_weights(m, 1e-12, 10_000_000).unwrap().w.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "m={m}, sum={s}");
        }
    }

    fn p0_at(n: usize, i: usize) -> Vec<f64> {
        let mut p0 = vec![0.0; n];
        p0[i] = 1.0;
        p0
    }

    #[test]
    fn doubling_matches_two_state_closed_form_at_mission_horizons() {
        let l = 1e-4;
        for mu in [0.2, 50.0] {
            let c = two_state(l, mu);
            for t in [720.0, 8760.0] {
                let sol = solve(&c, &[1.0, 0.0], t, TransientOptions::default()).unwrap();
                assert_eq!(sol.kernel, TransientKernel::Doubling, "mu={mu} t={t}");
                assert_eq!(kernel_for(&c, t), sol.kernel);
                let (point, interval) = (a_point(l, mu, t), a_interval(l, mu, t));
                assert!((sol.point_reward - point).abs() < 1e-13, "mu={mu} t={t}: {sol:?}");
                assert!((sol.interval_reward - interval).abs() < 1e-13, "mu={mu} t={t}: {sol:?}");
                assert!(sol.truncation <= TransientOptions::default().epsilon);
            }
        }
    }

    /// `N` independent units, each failing at `lambda` and repaired at
    /// `mu` with no repair-crew limit (no time to mobilize): the count
    /// of failed units is a birth–death chain, and the system is up
    /// while at most `N − K` have failed.
    fn independent_units(n: usize, k: usize, lambda: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new();
        for failed in 0..=n {
            b.add_state(format!("F{failed}"), if failed <= n - k { 1.0 } else { 0.0 });
        }
        for failed in 0..n {
            b.add_transition(failed, failed + 1, (n - failed) as f64 * lambda);
            b.add_transition(failed + 1, failed, (failed + 1) as f64 * mu);
        }
        b.build().unwrap()
    }

    /// `P[Binomial(n, q) <= m]`, summed term by term.
    fn binomial_cdf(n: usize, q: f64, m: usize) -> f64 {
        let mut pmf = (1.0 - q).powi(n as i32);
        let mut cdf = pmf;
        for j in 1..=m {
            pmf *= (n - j + 1) as f64 / j as f64 * q / (1.0 - q);
            cdf += pmf;
        }
        cdf
    }

    #[test]
    fn doubling_matches_the_binomial_on_independent_units() {
        let (lambda, mu) = (1e-3, 0.25);
        for n in [12, 40] {
            for k in [n / 2, n - 2] {
                let c = independent_units(n, k, lambda, mu);
                for t in [2.0, 100.0, 720.0, 8760.0] {
                    let opts = TransientOptions::default();
                    let sol = solve_with(&c, &p0_at(n + 1, 0), t, opts, TransientKernel::Doubling)
                        .unwrap();
                    let q = lambda / (lambda + mu) * (1.0 - (-(lambda + mu) * t).exp());
                    let want = binomial_cdf(n, q, n - k);
                    assert!(
                        (sol.point_reward - want).abs() < 1e-12,
                        "n={n} k={k} t={t}: {} vs {want}",
                        sol.point_reward
                    );
                }
            }
        }
    }

    #[test]
    fn kernels_agree_and_selection_follows_size_and_horizon() {
        let c = independent_units(40, 30, 1e-3, 0.25);
        let p0 = p0_at(41, 0);
        for t in [50.0, 720.0, 8760.0] {
            let opts = TransientOptions::default();
            let d = solve_with(&c, &p0, t, opts, TransientKernel::Doubling).unwrap();
            let s = solve_with(&c, &p0, t, opts, TransientKernel::Series).unwrap();
            assert_eq!((d.kernel, s.kernel), (TransientKernel::Doubling, TransientKernel::Series));
            assert!((d.point_reward - s.point_reward).abs() < 1e-11, "t={t}");
            assert!((d.interval_reward - s.interval_reward).abs() < 1e-11, "t={t}");
            for (a, b) in d.probabilities.iter().zip(&s.probabilities) {
                assert!((a - b).abs() < 1e-11, "t={t}");
            }
        }
        // A short horizon keeps the series: its few terms cost less
        // than the dense steps doubling would take.
        let short = solve(&c, &p0, 1e-3, TransientOptions::default()).unwrap();
        assert_eq!(short.kernel, TransientKernel::Series);
        assert_eq!(kernel_for(&c, 1e-3), short.kernel);
        // Past the size limit the series runs even at long horizons.
        let n = DOUBLING_MAX_STATES;
        let big = independent_units(n, n / 2, 1e-3, 0.25);
        let sol = solve(&big, &p0_at(n + 1, 0), 8760.0, TransientOptions::default()).unwrap();
        assert_eq!(sol.kernel, TransientKernel::Series);
    }

    #[test]
    fn doubling_truncation_is_a_bound_within_epsilon() {
        let c = independent_units(12, 6, 1e-3, 0.25);
        for epsilon in [1e-6, 1e-9, 1e-12] {
            let opts = TransientOptions { epsilon, ..Default::default() };
            let sol = solve(&c, &p0_at(13, 0), 8760.0, opts).unwrap();
            assert_eq!(sol.kernel, TransientKernel::Doubling);
            assert!(sol.truncation > 0.0 && sol.truncation <= epsilon, "{epsilon}: {sol:?}");
        }
        // An absorbing chain keeps its lost mass where it belongs.
        let mut b = CtmcBuilder::new();
        b.add_state("up", 1.0);
        b.add_state("down", 0.0);
        b.add_transition(0, 1, 1e-3);
        let c = b.build().unwrap();
        let opts = TransientOptions::default();
        let sol = solve_with(&c, &[1.0, 0.0], 8760.0, opts, TransientKernel::Doubling).unwrap();
        assert!((sol.point_reward - (-8.76f64).exp()).abs() < 1e-13, "{sol:?}");
        let interval = (1.0 - (-8.76f64).exp()) / 8.76;
        assert!((sol.interval_reward - interval).abs() < 1e-13, "{sol:?}");
    }

    #[test]
    fn doubling_rejects_what_the_series_rejects() {
        let c = two_state(0.1, 0.9);
        let d = TransientKernel::Doubling;
        let opts = TransientOptions::default();
        assert!(solve_with(&c, &[0.5, 0.4], 1.0, opts, d).is_err());
        assert!(solve_with(&c, &[1.0, 0.0], f64::NAN, opts, d).is_err());
        let bad = TransientOptions { epsilon: 1.0, ..Default::default() };
        assert!(solve_with(&c, &[1.0, 0.0], 1.0, bad, d).is_err());
    }
}
