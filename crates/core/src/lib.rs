//! RAScad Model Generator (MG) — the paper's primary contribution.
//!
//! This crate turns an engineering specification
//! ([`rascad_spec::SystemSpec`]) into the hierarchy of reliability block
//! diagrams and Markov chains the paper describes in Section 4, solves
//! it, and reports the measures RAScad reports:
//!
//! * steady-state availability, failure and recovery rates, yearly
//!   downtime;
//! * interval availability over `(0, T)` for the configured Mission
//!   Time;
//! * reliability-model measures: MTTF, reliability at `T`, interval
//!   failure rate, hazard rate.
//!
//! # Model generation
//!
//! Each MG diagram becomes a *serial RBD* of its blocks; each block
//! becomes one of five Markov chain templates:
//!
//! * **Type 0** (`N == K`, no redundancy) — [`generator::type0`].
//! * **Types 1–4** (`N > K`), indexed by transparent/nontransparent
//!   *automatic recovery* × transparent/nontransparent *repair* —
//!   [`generator::redundant`]. States are generated level-by-level for
//!   arbitrary `N` and `K` ("for larger N and K values, more states are
//!   needed and these states are all generated automatically").
//!
//! The full reconstruction of the chain templates (the paper shows them
//! only as figures) is documented in `DESIGN.md` at the repository root.
//!
//! # Example
//!
//! ```
//! use rascad_core::solve_spec;
//! use rascad_spec::{BlockParams, Diagram, GlobalParams, SystemSpec};
//! use rascad_spec::units::Hours;
//!
//! # fn main() -> Result<(), rascad_core::CoreError> {
//! let mut d = Diagram::new("Tiny");
//! d.push(BlockParams::new("CPU", 1, 1).with_mtbf(Hours(50_000.0)));
//! let spec = SystemSpec::new(d, GlobalParams::default());
//! let solution = solve_spec(&spec)?;
//! let m = &solution.system;
//! assert!(m.availability > 0.999 && m.availability < 1.0);
//! println!("yearly downtime: {:.1} min", m.yearly_downtime_minutes);
//! # Ok(())
//! # }
//! ```

// Counts cast to f64 throughout (state counts, cache sizes, grid
// indices) stay far below 2^52, so the cast is exact in practice.
#![allow(clippy::cast_precision_loss)]
pub mod ablate;
pub mod cache;
pub mod certify;
pub mod compare;
pub mod engine;
pub mod error;
pub mod generator;
pub mod hierarchy;
pub mod measures;
pub mod performability;
pub mod report;
pub mod solve;
pub mod sweep;

pub use cache::{CacheStats, MissionMeasures, SolveCache};
pub use certify::{certify_steady, certify_transient, SolutionCertificate, Verdict};
pub use compare::{compare_architectures, ArchComparison};
pub use engine::{default_threads, set_thread_override, Engine};
pub use error::{CoreError, EngineError};
pub use generator::{generate_block, BlockModel, ModelSummary};
pub use hierarchy::{
    solve_spec, solve_spec_best_effort, BlockOutcome, BlockSolution, FailedBlock, SystemMeasures,
    SystemSolution,
};
pub use measures::{BlockMeasures, IntervalMeasures, ReliabilityMeasures};
pub use performability::{performability, PerformabilityMeasures};
pub use solve::{method_name, solve_block, steady_state_ladder};
pub use sweep::{sweep, SweepPoint};
