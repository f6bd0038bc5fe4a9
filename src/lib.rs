//! RAScad reproduction — umbrella crate.
//!
//! Re-exports the whole workspace under one roof so examples and
//! downstream users can depend on a single crate:
//!
//! * [`spec`] — the engineering language (diagram/block models, DSL).
//! * [`core`] — the Model Generator: spec → Markov/RBD hierarchy →
//!   measures.
//! * [`markov`] — CTMC / semi-Markov solvers.
//! * [`rbd`] — reliability block diagrams: the one RBD availability
//!   evaluator, importance measures, and the BDD behind Tier C lint.
//! * [`gmb`] — the Graphical Model Builder equivalent: hand-built
//!   Markov, semi-Markov and RBD models over a parameter table.
//! * [`sim`] — Monte-Carlo simulation and synthetic field data.
//! * [`fielddata`] — outage-log analysis.
//! * [`lint`] — the static analyzer: Tier A spec diagnostics, Tier B
//!   model diagnostics, the `RASxxx` catalog.
//! * [`library`] — ready-made models (the paper's Figures 1–2 data
//!   center, an E10000-class server, a two-node cluster).
//!
//! # Quick start
//!
//! ```
//! use rascad::core::solve_spec;
//! use rascad::library::datacenter::data_center;
//!
//! # fn main() -> Result<(), rascad::core::CoreError> {
//! let solution = solve_spec(&data_center())?;
//! println!("yearly downtime: {:.1} min", solution.system.yearly_downtime_minutes);
//! # Ok(())
//! # }
//! ```

pub use rascad_core as core;
pub use rascad_fielddata as fielddata;
pub use rascad_gmb as gmb;
pub use rascad_library as library;
pub use rascad_lint as lint;
pub use rascad_markov as markov;
pub use rascad_rbd as rbd;
pub use rascad_sim as sim;
pub use rascad_spec as spec;
