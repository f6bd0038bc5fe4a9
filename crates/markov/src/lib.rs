//! Continuous-time Markov chain (CTMC), Markov-reward, and semi-Markov
//! substrate for the RAScad reproduction.
//!
//! RAScad translates an engineering specification into a hierarchy of
//! reliability block diagrams and Markov chains and then solves those
//! chains numerically (Section 4 of the paper). This crate is the
//! numerical engine: it owns the chain representation and every solver
//! the tool needs.
//!
//! # Contents
//!
//! * [`Ctmc`] — a labelled continuous-time Markov chain with per-state
//!   reward rates (1 = up, 0 = down in availability models, but any
//!   non-negative reward is supported).
//! * Steady-state solvers: [`SteadyStateMethod::Gth`] (the
//!   Grassmann–Taksar–Heyman elimination, numerically robust) and
//!   [`SteadyStateMethod::Lu`] (dense LU on the balance equations).
//!   Having two independent paths lets the validation experiments
//!   cross-check results the way the paper cross-checks against SHARPE
//!   and MEADEP.
//! * Transient solver: [`transient`] implements uniformization
//!   (randomization) for state probabilities at time `t`, expected
//!   interval (cumulative-reward) availability over `(0, T)`, and
//!   time-dependent expected reward.
//! * Absorbing-chain analysis: [`absorbing`] computes MTTF, reliability
//!   at a mission time, interval failure rate, and hazard rate — the
//!   reliability measures RAScad reports. MTTF, failure modes and the
//!   [`Dtmc`] absorption measures run on the same band GTH elimination
//!   as the steady state ([`gth`]), with absorption as extra columns:
//!   no subtraction, `O(n)` on a k-out-of-n pool, and an MTTF beyond
//!   `f64::MAX` comes back as `f64::INFINITY`.
//! * Semi-Markov processes: [`semi`] solves steady-state measures of a
//!   semi-Markov chain through its embedded DTMC and mean sojourn times,
//!   which is how the paper's GMB module supports semi-Markov models.
//! * Sensitivity analysis: [`sensitivity`] differentiates the stationary
//!   distribution with respect to a transition rate, supporting the
//!   tool's parametric analysis capability.
//!
//! # Example
//!
//! A two-state machine with failure rate `λ` and repair rate `μ` has the
//! closed-form availability `μ/(λ+μ)`:
//!
//! ```
//! use rascad_markov::{CtmcBuilder, SteadyStateMethod};
//!
//! # fn main() -> Result<(), rascad_markov::MarkovError> {
//! let mut b = CtmcBuilder::new();
//! let up = b.add_state("up", 1.0);
//! let down = b.add_state("down", 0.0);
//! b.add_transition(up, down, 1e-4); // λ
//! b.add_transition(down, up, 1e-1); // μ
//! let ctmc = b.build()?;
//! let pi = ctmc.steady_state(SteadyStateMethod::Gth)?;
//! let avail = ctmc.expected_reward(&pi);
//! assert!((avail - 1e-1 / (1e-4 + 1e-1)).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

// State and iteration counts convert to f64 for metrics and uniform
// initial vectors throughout; chain sizes stay far below 2^52, so the
// pedantic precision-loss lint would only add per-site noise here.
#![allow(clippy::cast_precision_loss)]

pub mod absorbing;
pub mod ctmc;
pub mod dense;
pub mod dtmc;
pub mod error;
pub mod fingerprint;
pub mod gth;
pub mod lump;
pub mod matrix;
pub mod semi;
pub mod sensitivity;
pub mod transient;

pub use absorbing::{AbsorbingAnalysis, ReliabilityCurve};
pub use ctmc::{CancelToken, Ctmc, CtmcBuilder, SolveOptions, StateId, SteadyStateMethod};
pub use dtmc::{Dtmc, DtmcBuilder};
pub use error::{MarkovError, SolveAttempt, MAX_ELIMINATION_ENTRIES};
pub use fingerprint::{Fingerprint, StableHasher};
pub use lump::{
    coarsest_exact_partition, identical_units_product, lump, occupancy_partition, Partition,
};
pub use matrix::SparseMatrix;
pub use semi::{SemiMarkov, SemiMarkovBuilder, SojournDistribution};
pub use transient::{TransientOptions, TransientSolution};
