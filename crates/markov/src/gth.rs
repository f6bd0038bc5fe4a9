//! Grassmann–Taksar–Heyman (GTH) stationary-distribution algorithm, and
//! the same elimination for absorbing chains (MTTF, absorption).
//!
//! GTH is a Gaussian-elimination variant that never subtracts, so no
//! cancellation can occur; it is the method of choice for stiff
//! availability chains whose rates span ten or more orders of magnitude
//! (FIT-scale failure rates against per-minute repair rates, as in
//! RAScad models).
//!
//! # Band-limited elimination
//!
//! GTH eliminates states in a fixed order (`n-1` down to `1`) without
//! pivoting, so eliminating state `k` only updates entries `(i, j)`
//! with `q_ik ≠ 0` and `q_kj ≠ 0`. If the generator has lower bandwidth
//! `bl` and upper bandwidth `bu`, every such entry already lies inside
//! the band (`i - j ≤ k - j ≤ bl`, `j - i ≤ k - i ≤ bu`): elimination
//! never fills in outside it. The kernel therefore keeps the generator
//! in `n × (bl + bu + 1)` band storage and restricts every loop to the
//! band. Each term it drops is an exact zero of the full-matrix
//! algorithm, and the pivot order and summation order are unchanged,
//! so the result is bit-identical to dense GTH. The work is
//! `O(n · bl · bu)`: linear on the birth–death chains of k-out-of-n
//! pools (`bl = bu = 1`), cubic only on genuinely dense chains.

use crate::ctmc::{Ctmc, SolveOptions};
use crate::dense::DenseMatrix;
use crate::error::{check_storage, MarkovError};
use crate::matrix::SparseMatrix;

/// How many elimination pivots pass between wall-clock checks in
/// [`stationary_gth_with`]. Each pivot is `O(bl · bu)` work, so checking
/// every pivot would be noise; every 32nd keeps the overdraft bounded.
const GTH_CLOCK_STRIDE: usize = 32;

/// Computes the stationary distribution of an irreducible CTMC by GTH
/// elimination on its generator.
///
/// # Errors
///
/// Returns [`MarkovError::Singular`] if elimination encounters a zero
/// pivot (which cannot happen for a truly irreducible generator but can
/// arise from pathological inputs), and [`MarkovError::ExceedsStorage`]
/// when the generator's band does not fit the storage bound.
pub fn stationary_gth(chain: &Ctmc) -> Result<Vec<f64>, MarkovError> {
    stationary_gth_matrix(
        &chain.generator(),
        &SolveOptions { wall_clock: None, ..SolveOptions::default() },
    )
}

/// [`stationary_gth`] bounded by the wall-clock budget in `options`
/// (the iteration budget does not apply — elimination is direct).
///
/// # Errors
///
/// The [`stationary_gth`] errors, plus [`MarkovError::Timeout`] when
/// the budget expires mid-elimination.
pub fn stationary_gth_with(chain: &Ctmc, options: &SolveOptions) -> Result<Vec<f64>, MarkovError> {
    stationary_gth_matrix(&chain.generator(), options)
}

/// Stationary vector of a stochastic matrix `p` by GTH on `P − I`,
/// whose off-diagonal entries are those of `P` (the diagonal is never
/// read). Solves the embedded chain of [`crate::SemiMarkov`].
pub(crate) fn stationary_gth_stochastic(p: &DenseMatrix) -> Result<Vec<f64>, MarkovError> {
    let n = p.rows();
    let mut trips = Vec::new();
    for i in 0..n {
        for (j, &v) in p.row(i).iter().enumerate() {
            if j != i {
                trips.push((i, j, v));
            }
        }
    }
    let q = SparseMatrix::from_triplets(n, p.cols(), &trips);
    stationary_gth_matrix(&q, &SolveOptions { wall_clock: None, ..SolveOptions::default() })
}

/// A square matrix in band storage: row `i` keeps columns
/// `i - bl ..= i + bu` at offsets `0 ..= bl + bu`, so entry `(i, j)`
/// lives at `data[i * width + j + bl - i]`. Diagonal slots are never
/// read: GTH re-derives each pivot from the off-diagonal rates.
struct Band {
    bl: usize,
    bu: usize,
    width: usize,
    data: Vec<f64>,
}

impl Band {
    /// The off-diagonal nonzeros of `q` in band storage, after checking
    /// the allocation plus `extra` entries per row against the storage
    /// bound.
    fn from_matrix(
        q: &SparseMatrix,
        method: &'static str,
        extra: usize,
    ) -> Result<Band, MarkovError> {
        let n = q.rows();
        let entries = || {
            (0..n).flat_map(|i| {
                q.row_entries(i)
                    .filter(move |&(j, v)| j != i && v != 0.0)
                    .map(move |(j, v)| (i, j, v))
            })
        };
        let (mut bl, mut bu) = (0, 0);
        for (i, j, _) in entries() {
            bl = bl.max(i.saturating_sub(j));
            bu = bu.max(j.saturating_sub(i));
        }
        let width = bl + bu + 1;
        check_storage(method, n.saturating_mul(width.saturating_add(extra)))?;
        let mut data = vec![0.0; n * width];
        for (i, j, v) in entries() {
            data[i * width + j + bl - i] += v;
        }
        Ok(Band { bl, bu, width, data })
    }
}

/// A nonnegative `mant · 2^exp`, `mant` in `[1, 2)` (zero has a huge
/// negative `exp`): `f64` precision with an exponent that neither
/// overflows nor underflows. Absorption rates of large pools fall far
/// below `f64`'s range (~10^-1821 behind an MTTF of 10^1821 h).
#[derive(Clone, Copy)]
struct Wide {
    mant: f64,
    exp: i64,
}

/// `2^e` as an `f64`: 0 below the subnormal range, ∞ above `f64::MAX`.
fn pow2(e: i64) -> f64 {
    match e {
        1024.. => f64::INFINITY,
        -1022..=1023 => f64::from_bits(((e + 1023) as u64) << 52),
        -1074..=-1023 => f64::from_bits(1 << (e + 1074)),
        _ => 0.0,
    }
}

impl Wide {
    /// `x · 2^exp`, moving `x`'s binary exponent into `exp` exactly. A
    /// negative or NaN `x` (malformed rates) becomes zero, which a
    /// pivot reports as `Singular`.
    fn new(x: f64, exp: i64) -> Wide {
        if x.is_nan() || x < f64::MIN_POSITIVE {
            return if x > 0.0 {
                Wide::new(x * pow2(64), exp - 64)
            } else {
                Wide { mant: 0.0, exp: i64::MIN / 4 }
            };
        }
        let bits = x.to_bits();
        Wide {
            mant: f64::from_bits(bits & ((1 << 52) - 1) | (1023 << 52)),
            exp: exp + (bits >> 52) as i64 - 1023,
        }
    }

    fn add(self, other: Wide) -> Wide {
        let (hi, lo) = if self.exp >= other.exp { (self, other) } else { (other, self) };
        Wide::new(hi.mant + lo.mant * pow2(lo.exp - hi.exp), hi.exp)
    }

    fn mul(self, other: Wide) -> Wide {
        Wide::new(self.mant * other.mant, self.exp + other.exp)
    }

    fn div(self, other: Wide) -> Wide {
        Wide::new(self.mant / other.mant, self.exp - other.exp)
    }

    /// The nearest `f64` (∞ past `f64::MAX`), in two factors so that no
    /// intermediate overflows or underflows first.
    fn to_f64(self) -> f64 {
        self.mant * pow2(self.exp / 2) * pow2(self.exp - self.exp / 2)
    }
}

/// The forward pass of GTH elimination, shared by the stationary and
/// absorbing solves: eliminates states `n-1, …, lo` of `band` in place,
/// checking `options`' clock and token every [`GTH_CLOCK_STRIDE`]
/// pivots, and returns the pivots. `cols` holds `nc` extra entries per
/// state (row-major); the first `exits` are rates out of the matrix
/// (absorption) and join the pivot, `s_k = Σ_{j<k} a_kj + Σ exits_k`.
/// Eliminating `k` adds `a_ik · x_k / s_k` to row `i`'s columns as it
/// adds `a_ik · a_kj / s_k` to its band: all terms nonnegative, nothing
/// subtracted. Row `k`'s band below the diagonal and its columns are
/// left divided by `s_k`.
fn eliminate(
    band: &mut Band,
    cols: &mut [Wide],
    nc: usize,
    exits: usize,
    lo: usize,
    method: &'static str,
    options: &SolveOptions,
) -> Result<Vec<f64>, MarkovError> {
    let Band { bl, bu, width: w, data: ref mut a } = *band;
    let n = a.len() / w;
    let mut pivots = vec![0.0; n];
    let start = std::time::Instant::now();
    let mut trace = rascad_obs::trace::begin(method, "pivot", n);
    for (step, k) in (lo..n).rev().enumerate() {
        if step % GTH_CLOCK_STRIDE == 0 {
            if options.cancelled() {
                trace.finish("cancelled");
                return Err(options.cancelled_error(method, step));
            }
            let elapsed = start.elapsed();
            if options.over_budget(elapsed) {
                trace.finish("timeout");
                return Err(options.timeout_error(method, step, elapsed));
            }
        }
        // Row k's band columns below the diagonal are j in jlo..k; rows
        // with an entry in column k are i in ilo..k.
        let (jlo, ilo) = (k.saturating_sub(bl), k.saturating_sub(bu));
        let (above, rest) = a.split_at_mut(k * w);
        let row_k = &mut rest[jlo + bl - k..bl];
        let (cols_above, cols_k) = cols.split_at_mut(k * nc);
        let cols_k = &mut cols_k[..nc];
        // s = total rate out of k into states 0..k and out of the matrix.
        let pivot = cols_k[..exits].iter().fold(Wide::new(row_k.iter().sum(), 0), |p, &x| p.add(x));
        let s = pivot.to_f64();
        trace.step(step + 1, s);
        if pivot.mant == 0.0 || !s.is_finite() {
            trace.finish("singular");
            return Err(MarkovError::Singular);
        }
        pivots[k] = s;
        // A pivot below f64's range is all exits: row k's band is zero.
        if s > 0.0 {
            for x in row_k.iter_mut() {
                *x /= s;
            }
        }
        for x in cols_k.iter_mut() {
            *x = x.div(pivot);
        }
        let (row_k, cols_k) = (&*row_k, &*cols_k);
        for i in ilo..k {
            let row_i = &mut above[i * w..(i + 1) * w];
            let aik = row_i[k + bl - i];
            if aik == 0.0 {
                continue;
            }
            // Columns jlo..k of row i. The update also lands on the
            // diagonal slot (i, i) when it is in range; that slot is
            // never read, so skipping it would only cost a branch.
            for (x, &akj) in row_i[jlo + bl - i..k + bl - i].iter_mut().zip(row_k) {
                *x += aik * akj;
            }
            if nc > 0 {
                let aik = Wide::new(aik, 0);
                for (x, &y) in cols_above[i * nc..(i + 1) * nc].iter_mut().zip(cols_k) {
                    *x = x.add(aik.mul(y));
                }
            }
        }
    }
    trace.finish("done");
    Ok(pivots)
}

/// GTH elimination on a generator matrix (off-diagonals non-negative;
/// the diagonal is ignored), limited to the matrix's band and bounded
/// by the wall-clock budget and cancellation token in `options`,
/// checked every [`GTH_CLOCK_STRIDE`] pivots. `semi` runs it on
/// `P − I`.
///
/// # Errors
///
/// Returns [`MarkovError::DimensionMismatch`] for a non-square input,
/// [`MarkovError::EmptyChain`] for a 0×0 input,
/// [`MarkovError::ExceedsStorage`] when the band does not fit the
/// storage bound, [`MarkovError::Singular`] on a zero pivot, and
/// [`MarkovError::Timeout`] / [`MarkovError::Cancelled`] when the
/// budget expires or the token trips mid-elimination.
pub fn stationary_gth_matrix(
    q: &SparseMatrix,
    options: &SolveOptions,
) -> Result<Vec<f64>, MarkovError> {
    let n = q.rows();
    if n != q.cols() {
        return Err(MarkovError::DimensionMismatch {
            what: format!("generator must be square, got {n}x{}", q.cols()),
        });
    }
    if n == 0 {
        return Err(MarkovError::EmptyChain);
    }
    if n == 1 {
        return Ok(vec![1.0]);
    }
    let mut span = rascad_obs::span("markov.gth");
    span.record("states", n);

    // Only the off-diagonal rates are stored; each pivot is re-derived
    // as the (positive) row sum of the remaining states, which is what
    // makes GTH subtraction-free. `pivots[k]` is the total censored exit
    // rate of state k at elimination time.
    let mut band = Band::from_matrix(q, "gth", 0)?;
    let pivots = eliminate(&mut band, &mut [], 0, 0, 1, "gth", options)?;
    let Band { bl, bu, width: w, data: a } = band;

    // Back substitution: flow balance of the censored chain on {0..k}
    // gives pi[k] * s_k = sum_{i<k} pi[i] * q[i][k].
    let mut pi = vec![0.0; n];
    pi[0] = 1.0;
    for k in 1..n {
        let mut s = 0.0;
        for i in k.saturating_sub(bu)..k {
            s += pi[i] * a[i * w + k + bl - i];
        }
        pi[k] = s / pivots[k];
    }

    let total: f64 = pi.iter().sum();
    if !(total.is_finite() && total > 0.0) {
        return Err(MarkovError::Singular);
    }
    for p in &mut pi {
        *p /= total;
    }
    // The smallest censored exit rate is the conditioning diagnostic:
    // tiny pivots mean nearly-disconnected states.
    let min_pivot = pivots[1..].iter().copied().fold(f64::INFINITY, f64::min);
    span.record("min_pivot", min_pivot);
    rascad_obs::record_value("markov.gth.min_pivot", min_pivot);
    rascad_obs::record_value("markov.gth.states", n as f64);
    rascad_obs::counter_with("markov.solves", &[("method", "gth")], 1);
    Ok(pi)
}

/// Absorbing-chain solve by the same elimination: `q` holds the rates
/// among the transient states (diagonal ignored) and `cols` `nc`
/// nonnegative columns per transient state, row-major, the first
/// `exits` of them its rates into absorbing states. Returns
/// `(D − Q)⁻¹ · cols`, `D` the diagonal of total exit rates: mean times
/// to absorption for a unit column, absorption probabilities for exit
/// columns. After [`eliminate`] runs down to state 0 (whose pivot is its
/// exits alone), `x_k = x̃_k + Σ_{j<k} ã_kj x_j` in increasing `k`. The
/// columns stay [`Wide`] until the end, so a result past `f64::MAX` is
/// ∞ and no intermediate is ever subnormal.
///
/// # Errors
///
/// [`MarkovError::ExceedsStorage`] when the band and columns do not fit
/// the storage bound (checked before allocating); [`MarkovError::Singular`]
/// on a zero pivot, i.e. a transient state with no path to absorption.
pub(crate) fn absorbing_gth(
    q: &SparseMatrix,
    cols: &[f64],
    exits: usize,
    method: &'static str,
) -> Result<Vec<f64>, MarkovError> {
    let n = q.rows();
    let nc = cols.len() / n;
    // Each Wide entry takes two f64s.
    let mut band = Band::from_matrix(q, method, 2 * nc)?;
    let mut x: Vec<Wide> = cols.iter().map(|&c| Wide::new(c, 0)).collect();
    let options = SolveOptions { wall_clock: None, ..SolveOptions::default() };
    eliminate(&mut band, &mut x, nc, exits, 0, method, &options)?;
    let Band { bl, width: w, data: a, .. } = band;
    for k in 1..n {
        let (solved, row_k) = x.split_at_mut(k * nc);
        for j in k.saturating_sub(bl)..k {
            let akj = Wide::new(a[k * w + j + bl - k], 0);
            for (xk, &xj) in row_k[..nc].iter_mut().zip(&solved[j * nc..(j + 1) * nc]) {
                *xk = xk.add(akj.mul(xj));
            }
        }
    }
    Ok(x.into_iter().map(Wide::to_f64).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctmc::{CtmcBuilder, SteadyStateMethod};

    #[test]
    fn gth_matches_closed_form_birth_death() {
        // Birth-death chain: pi_i proportional to prod(lambda_j/mu_{j+1}).
        let lambdas = [3.0, 2.0, 1.0];
        let mus = [4.0, 5.0, 6.0];
        let mut b = CtmcBuilder::new();
        for i in 0..4 {
            b.add_state(format!("n{i}"), 1.0);
        }
        for i in 0..3 {
            b.add_transition(i, i + 1, lambdas[i]);
            b.add_transition(i + 1, i, mus[i]);
        }
        let chain = b.build().unwrap();
        let pi = stationary_gth(&chain).unwrap();
        let mut expect = vec![1.0];
        for i in 0..3 {
            let last = *expect.last().unwrap();
            expect.push(last * lambdas[i] / mus[i]);
        }
        let z: f64 = expect.iter().sum();
        for (p, e) in pi.iter().zip(&expect) {
            assert!((p - e / z).abs() < 1e-14);
        }
    }

    #[test]
    fn gth_handles_stiff_rates() {
        // Rates spanning 12 orders of magnitude: a FIT-scale failure rate
        // versus a per-minute repair rate.
        let mut b = CtmcBuilder::new();
        let up = b.add_state("up", 1.0);
        let down = b.add_state("down", 0.0);
        let repair = b.add_state("repair", 0.0);
        b.add_transition(up, down, 1e-9);
        b.add_transition(down, repair, 12.0);
        b.add_transition(repair, up, 4.0);
        let chain = b.build().unwrap();
        let pi = chain.steady_state(SteadyStateMethod::Gth).unwrap();
        let sum: f64 = pi.iter().sum();
        assert!((sum - 1.0).abs() < 1e-15);
        // Unavailability ~ 1e-9 * (1/12 + 1/4).
        let unavail = pi[1] + pi[2];
        assert!((unavail - 1e-9 * (1.0 / 12.0 + 0.25)).abs() < 1e-18);
    }

    #[test]
    fn gth_pivot_trace_matches_hand_computed_chain() {
        // Cycle up -> down (1e-9/h), down -> repair (12/h),
        // repair -> up (4/h). GTH eliminates the highest-numbered state
        // first: state 2 exits into {0,1} at rate 4 (pivot 1), and after
        // censoring, state 1's exit rate into {0} is 12·(4/4) = 12
        // (pivot 2). min_pivot is therefore exactly 4.
        let mut b = CtmcBuilder::new();
        let up = b.add_state("up", 1.0);
        let down = b.add_state("down", 0.0);
        let repair = b.add_state("repair", 0.0);
        b.add_transition(up, down, 1e-9);
        b.add_transition(down, repair, 12.0);
        b.add_transition(repair, up, 4.0);
        let chain = b.build().unwrap();

        rascad_obs::trace::arm();
        stationary_gth(&chain).unwrap();
        let traces = rascad_obs::trace::solves();
        let t = traces
            .iter()
            .rev()
            .find(|t| t.method == "gth" && t.states == 3)
            .expect("armed GTH solve commits a trace");
        assert_eq!((t.metric, t.outcome, t.total_steps), ("pivot", "done", 2));
        assert_eq!((t.steps[0].index, t.steps[0].value), (1, 4.0));
        assert_eq!((t.steps[1].index, t.steps[1].value), (2, 12.0));
        rascad_obs::trace::disarm();
    }

    fn no_clock() -> SolveOptions {
        SolveOptions { wall_clock: None, ..SolveOptions::default() }
    }

    #[test]
    fn gth_single_state() {
        let q = SparseMatrix::from_triplets(1, 1, &[]);
        assert_eq!(stationary_gth_matrix(&q, &no_clock()).unwrap(), vec![1.0]);
    }

    #[test]
    fn gth_empty_rejected() {
        let q = SparseMatrix::from_triplets(0, 0, &[]);
        assert!(matches!(stationary_gth_matrix(&q, &no_clock()), Err(MarkovError::EmptyChain)));
    }

    #[test]
    fn gth_non_square_rejected() {
        let q = SparseMatrix::from_triplets(2, 3, &[]);
        match stationary_gth_matrix(&q, &no_clock()) {
            Err(MarkovError::DimensionMismatch { what }) => {
                assert!(what.contains("2x3"), "{what}");
            }
            other => panic!("expected DimensionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn gth_zero_pivot_detected() {
        // State 1 has no outgoing rate at all: elimination hits s = 0.
        let q = SparseMatrix::from_triplets(2, 2, &[(0, 0, -1.0), (0, 1, 1.0)]);
        assert!(matches!(stationary_gth_matrix(&q, &no_clock()), Err(MarkovError::Singular)));
    }

    #[test]
    fn gth_malformed_pivots_are_singular() {
        // A negative or NaN exit rate makes a pivot nonpositive or NaN;
        // both are Singular, as a zero pivot is.
        for bad in [-1.0, f64::NAN] {
            let q = SparseMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, bad)]);
            assert!(matches!(stationary_gth_matrix(&q, &no_clock()), Err(MarkovError::Singular)));
        }
    }

    #[test]
    fn band_storage_follows_the_generator_band() {
        // A cycle 0 -> 1 -> 2 -> 3 -> 0 has bl = 3 (the wrap-around
        // edge) and bu = 1; a birth-death chain has bl = bu = 1.
        let cycle = SparseMatrix::from_triplets(
            4,
            4,
            &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)],
        );
        let band = Band::from_matrix(&cycle, "gth", 0).unwrap();
        assert_eq!((band.bl, band.bu, band.width, band.data.len()), (3, 1, 5, 20));
        let bd: Vec<_> = (0..9).flat_map(|i| [(i, i + 1, 1.0), (i + 1, i, 2.0)]).collect();
        let band = Band::from_matrix(&SparseMatrix::from_triplets(10, 10, &bd), "gth", 0).unwrap();
        assert_eq!((band.bl, band.bu, band.data.len()), (1, 1, 30));
    }

    #[test]
    fn band_over_the_storage_bound_fails_typed_before_allocating() {
        // One long-range edge each way widens a 10^6-state ring's band
        // to the whole chain: (2n - 1) · n entries, far over the bound.
        // The bound is checked before the band is allocated, so this
        // returns at once instead of asking for ~16 TB.
        let n = 1_000_000;
        let mut trips: Vec<_> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        trips.push((n - 1, 0, 1.0));
        trips.push((0, n - 1, 1.0));
        let q = SparseMatrix::from_triplets(n, n, &trips);
        match stationary_gth_matrix(&q, &no_clock()) {
            Err(MarkovError::ExceedsStorage { method: "gth", entries }) => {
                assert_eq!(entries, n * (2 * n - 1));
                assert!(entries > crate::MAX_ELIMINATION_ENTRIES);
            }
            other => panic!("expected ExceedsStorage, got {other:?}"),
        }
    }

    #[test]
    fn band_elimination_is_bit_identical_to_dense_elimination() {
        // The full-matrix kernel this module used before band storage,
        // kept here as the reference: the band kernel drops only exact
        // zeros, so both agree bit for bit.
        fn dense_gth(q: &DenseMatrix) -> Vec<f64> {
            let n = q.rows();
            let mut a = q.clone();
            let mut pivots = vec![0.0; n];
            for k in (1..n).rev() {
                let s: f64 = (0..k).map(|j| a[(k, j)]).sum();
                pivots[k] = s;
                for j in 0..k {
                    a[(k, j)] /= s;
                }
                for i in 0..k {
                    let aik = a[(i, k)];
                    if aik == 0.0 {
                        continue;
                    }
                    for j in 0..k {
                        if i != j {
                            a[(i, j)] += aik * a[(k, j)];
                        }
                    }
                }
            }
            let mut pi = vec![0.0; n];
            pi[0] = 1.0;
            for k in 1..n {
                let mut s = 0.0;
                for i in 0..k {
                    s += pi[i] * a[(i, k)];
                }
                pi[k] = s / pivots[k];
            }
            let total: f64 = pi.iter().sum();
            pi.iter().map(|p| p / total).collect()
        }
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        for case in 0..200 {
            let mut below = |m: usize| (rng.gen::<u64>() % m as u64) as usize;
            let n = 2 + below(38);
            // Banded chains with a random band plus a ring for
            // irreducibility; rates over ten decades.
            let (bl, bu) = (1 + below(n - 1), 1 + below(n - 1));
            let mut b = crate::ctmc::CtmcBuilder::new();
            for i in 0..n {
                b.add_state(format!("s{i}"), 1.0);
            }
            for i in 0..n {
                let lo = i.saturating_sub(bl);
                let hi = (i + bu).min(n - 1);
                for j in lo..=hi {
                    if j != i && (j + 1 == i || i + 1 == j || rng.gen_bool(0.4)) {
                        b.add_transition(i, j, 10f64.powf(rng.gen::<f64>() * 10.0 - 6.0));
                    }
                }
            }
            let chain = b.build().unwrap();
            let band = stationary_gth(&chain).unwrap();
            let dense = dense_gth(&chain.generator().to_dense());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&band), bits(&dense), "case {case}: n={n} bl={bl} bu={bu}");
        }
    }
}
