//! Discrete-time Markov chains.
//!
//! The embedded chain of every semi-Markov process is a DTMC, and some
//! GMB workflows (inspection cycles, per-demand failure models) are
//! naturally discrete. This module gives DTMCs the same first-class
//! treatment the CTMC side has: stationary distribution (via GTH on
//! `P − I`), n-step transients, and absorbing-chain analysis (expected
//! steps to absorption and absorption probabilities).

use crate::dense::DenseMatrix;
use crate::error::MarkovError;
use crate::gth;
use crate::matrix::SparseMatrix;

/// A validated discrete-time Markov chain.
#[derive(Debug, Clone, PartialEq)]
pub struct Dtmc {
    labels: Vec<String>,
    /// Row-stochastic transition matrix.
    matrix: DenseMatrix,
}

/// Builds a [`Dtmc`] incrementally.
#[derive(Debug, Clone, Default)]
pub struct DtmcBuilder {
    labels: Vec<String>,
    transitions: Vec<(usize, usize, f64)>,
}

impl DtmcBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a state; returns its id.
    pub fn add_state(&mut self, label: impl Into<String>) -> usize {
        self.labels.push(label.into());
        self.labels.len() - 1
    }

    /// Adds a transition probability (duplicates accumulate).
    pub fn add_transition(&mut self, from: usize, to: usize, probability: f64) -> &mut Self {
        self.transitions.push((from, to, probability));
        self
    }

    /// Validates and finalizes: every row must sum to 1 (a state with
    /// no outgoing probability gets an implicit self-loop, making it
    /// absorbing).
    ///
    /// # Errors
    ///
    /// * [`MarkovError::EmptyChain`] with no states.
    /// * [`MarkovError::UnknownState`] for bad endpoints.
    /// * [`MarkovError::InvalidProbability`] for entries outside
    ///   `[0, 1]` or rows not summing to 1.
    pub fn build(&self) -> Result<Dtmc, MarkovError> {
        let n = self.labels.len();
        if n == 0 {
            return Err(MarkovError::EmptyChain);
        }
        let mut m = DenseMatrix::zeros(n, n);
        for &(f, t, p) in &self.transitions {
            if f >= n {
                return Err(MarkovError::UnknownState { id: f, len: n });
            }
            if t >= n {
                return Err(MarkovError::UnknownState { id: t, len: n });
            }
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(MarkovError::InvalidProbability {
                    what: format!("transition {f}->{t} probability {p}"),
                });
            }
            m[(f, t)] += p;
        }
        for i in 0..n {
            let sum: f64 = m.row(i).iter().sum();
            if sum == 0.0 {
                m[(i, i)] = 1.0; // absorbing
            } else if (sum - 1.0).abs() > 1e-9 {
                return Err(MarkovError::InvalidProbability {
                    what: format!("row {i} sums to {sum}"),
                });
            }
        }
        Ok(Dtmc { labels: self.labels.clone(), matrix: m })
    }
}

impl Dtmc {
    /// Number of states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether there are no states (never true for a built chain).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// State labels in id order.
    #[must_use]
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Transition probability from `i` to `j`.
    #[must_use]
    pub fn probability(&self, i: usize, j: usize) -> f64 {
        self.matrix[(i, j)]
    }

    /// Ids of absorbing states (`p_ii = 1`).
    #[must_use]
    #[allow(clippy::float_cmp)] // absorbing rows carry an exact 1.0
    pub fn absorbing_states(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.matrix[(i, i)] == 1.0).collect()
    }

    /// Stationary distribution (unique for irreducible aperiodic
    /// chains), computed subtraction-free via GTH on `P − I`.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::Singular`] for chains without a unique
    /// stationary vector (e.g. with absorbing states plus transients).
    pub fn stationary(&self) -> Result<Vec<f64>, MarkovError> {
        let n = self.len();
        if n == 1 {
            return Ok(vec![1.0]);
        }
        gth::stationary_gth_stochastic(&self.matrix)
    }

    /// Distribution after `steps` steps from `p0`.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidProbability`] if `p0` is not a
    /// distribution over the state space.
    pub fn step_distribution(&self, p0: &[f64], steps: usize) -> Result<Vec<f64>, MarkovError> {
        if p0.len() != self.len() {
            return Err(MarkovError::InvalidProbability {
                what: format!("initial vector has {} entries, chain has {}", p0.len(), self.len()),
            });
        }
        let sum: f64 = p0.iter().sum();
        if (sum - 1.0).abs() > 1e-9 || p0.iter().any(|&x| !(0.0..=1.0 + 1e-12).contains(&x)) {
            return Err(MarkovError::InvalidProbability { what: format!("sum {sum}") });
        }
        let mut p = p0.to_vec();
        for _ in 0..steps {
            p = self.matrix.vec_mul(&p);
        }
        Ok(p)
    }

    /// The states outside `absorbing`, the probabilities among them (no
    /// self-loops: elimination re-derives `1 − p_ii` as a sum), and `nc`
    /// columns per transient state, column `column(d)` receiving its
    /// probability into absorbing state `d`.
    fn transient_block(
        &self,
        absorbing: &[usize],
        nc: usize,
        column: impl Fn(usize) -> usize,
    ) -> Result<(Vec<usize>, SparseMatrix, Vec<f64>), MarkovError> {
        if absorbing.is_empty() {
            return Err(MarkovError::MissingStates { what: "no absorbing states".into() });
        }
        let transient: Vec<usize> = (0..self.len()).filter(|i| !absorbing.contains(i)).collect();
        let (nt, mut trips, mut cols) =
            (transient.len(), Vec::new(), vec![0.0; transient.len() * nc]);
        for (r, &i) in transient.iter().enumerate() {
            for (j, &p) in self.matrix.row(i).iter().enumerate() {
                match transient.binary_search(&j) {
                    Err(_) => cols[r * nc + column(j)] += p,
                    Ok(c) if c != r && p > 0.0 => trips.push((r, c, p)),
                    Ok(_) => {}
                }
            }
        }
        Ok((transient, SparseMatrix::from_triplets(nt, nt, &trips), cols))
    }

    /// Expected number of steps to absorption from each transient
    /// state: solves `(I − T) m = 1` over the transient block by GTH
    /// elimination ([`crate::gth`]).
    ///
    /// # Errors
    ///
    /// * [`MarkovError::MissingStates`] if there are no absorbing or no
    ///   transient states.
    /// * [`MarkovError::Singular`] if a transient state cannot reach any
    ///   absorbing state.
    pub fn expected_steps_to_absorption(&self) -> Result<Vec<(usize, f64)>, MarkovError> {
        // Column 0: the probability of absorption; column 1: one step.
        let (transient, q, mut cols) = self.transient_block(&self.absorbing_states(), 2, |_| 0)?;
        if transient.is_empty() {
            return Err(MarkovError::MissingStates { what: "no transient states".into() });
        }
        for row in cols.chunks_mut(2) {
            row[1] = 1.0;
        }
        let m = gth::absorbing_gth(&q, &cols, 1, "absorption")?;
        Ok(transient.into_iter().zip(m.chunks(2).map(|r| r[1])).collect())
    }

    /// Probability of being absorbed in each absorbing state, starting
    /// from `start`, by the same elimination.
    ///
    /// # Errors
    ///
    /// As for [`expected_steps_to_absorption`](Self::expected_steps_to_absorption),
    /// plus [`MarkovError::MissingStates`] if `start` is absorbing.
    pub fn absorption_probabilities(&self, start: usize) -> Result<Vec<(usize, f64)>, MarkovError> {
        let absorbing = self.absorbing_states();
        let nc = absorbing.len();
        let (transient, q, cols) =
            self.transient_block(&absorbing, nc, |d| absorbing.binary_search(&d).unwrap_or(0))?;
        let Some(start_pos) = transient.iter().position(|&s| s == start) else {
            return Err(MarkovError::MissingStates {
                what: format!("start state {start} is absorbing or out of range"),
            });
        };
        let b = gth::absorbing_gth(&q, &cols, nc, "absorption")?;
        let row = &b[start_pos * nc..(start_pos + 1) * nc];
        Ok(absorbing.into_iter().zip(row.iter().map(|p| p.clamp(0.0, 1.0))).collect())
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts deterministic arithmetic
mod tests {
    use super::*;

    fn weather() -> Dtmc {
        // Sunny/rainy toy chain.
        let mut b = DtmcBuilder::new();
        let s = b.add_state("sunny");
        let r = b.add_state("rainy");
        b.add_transition(s, s, 0.9);
        b.add_transition(s, r, 0.1);
        b.add_transition(r, s, 0.5);
        b.add_transition(r, r, 0.5);
        b.build().unwrap()
    }

    #[test]
    fn stationary_closed_form() {
        let c = weather();
        let pi = c.stationary().unwrap();
        // pi_sunny = 5/6.
        assert!((pi[0] - 5.0 / 6.0).abs() < 1e-12);
        assert!((pi[1] - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn step_distribution_converges() {
        let c = weather();
        let p = c.step_distribution(&[0.0, 1.0], 200).unwrap();
        let pi = c.stationary().unwrap();
        for (a, b) in p.iter().zip(&pi) {
            assert!((a - b).abs() < 1e-10);
        }
        // Zero steps = identity.
        assert_eq!(c.step_distribution(&[0.0, 1.0], 0).unwrap(), vec![0.0, 1.0]);
        assert!(c.step_distribution(&[0.5, 0.4], 1).is_err());
        assert!(c.step_distribution(&[1.0], 1).is_err());
    }

    #[test]
    fn gamblers_ruin_absorption() {
        // States 0..=3; 0 and 3 absorbing; fair coin from 1 and 2.
        let mut b = DtmcBuilder::new();
        for i in 0..4 {
            b.add_state(format!("n{i}"));
        }
        for i in 1..3usize {
            b.add_transition(i, i - 1, 0.5);
            b.add_transition(i, i + 1, 0.5);
        }
        let c = b.build().unwrap();
        assert_eq!(c.absorbing_states(), vec![0, 3]);

        // From state 1: P(ruin) = 2/3, P(win) = 1/3; expected steps = 2.
        let probs = c.absorption_probabilities(1).unwrap();
        let map: std::collections::HashMap<_, _> = probs.into_iter().collect();
        assert!((map[&0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((map[&3] - 1.0 / 3.0).abs() < 1e-12);
        let steps = c.expected_steps_to_absorption().unwrap();
        let map: std::collections::HashMap<_, _> = steps.into_iter().collect();
        assert!((map[&1] - 2.0).abs() < 1e-12);
        assert!((map[&2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn implicit_self_loop_makes_absorbing() {
        let mut b = DtmcBuilder::new();
        let a = b.add_state("a");
        let dead = b.add_state("dead");
        b.add_transition(a, dead, 1.0);
        let c = b.build().unwrap();
        assert_eq!(c.absorbing_states(), vec![dead]);
        assert_eq!(c.probability(dead, dead), 1.0);
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(DtmcBuilder::new().build(), Err(MarkovError::EmptyChain)));
        let mut b = DtmcBuilder::new();
        let a = b.add_state("a");
        b.add_transition(a, 9, 0.5);
        assert!(matches!(b.build(), Err(MarkovError::UnknownState { .. })));
        let mut b = DtmcBuilder::new();
        let a = b.add_state("a");
        b.add_state("b");
        b.add_transition(a, a, 0.7); // row sums to 0.7
        assert!(matches!(b.build(), Err(MarkovError::InvalidProbability { .. })));
        let mut b = DtmcBuilder::new();
        let a = b.add_state("a");
        b.add_transition(a, a, 1.5);
        assert!(matches!(b.build(), Err(MarkovError::InvalidProbability { .. })));
    }

    #[test]
    fn absorption_from_absorbing_start_rejected() {
        let mut b = DtmcBuilder::new();
        let a = b.add_state("a");
        let dead = b.add_state("dead");
        b.add_transition(a, dead, 1.0);
        let c = b.build().unwrap();
        assert!(c.absorption_probabilities(dead).is_err());
    }

    #[test]
    fn no_absorbing_states_rejected() {
        let c = weather();
        assert!(matches!(c.expected_steps_to_absorption(), Err(MarkovError::MissingStates { .. })));
    }
}
