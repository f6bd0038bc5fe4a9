//! Reliability block diagram (RBD) substrate for the RAScad
//! reproduction.
//!
//! RAScad models each MG *diagram* as a serial RBD of its blocks, and the
//! GMB module lets experts draw arbitrary RBDs. This crate provides:
//!
//! * [`Rbd`] — a combinatorial block-diagram tree (series, parallel,
//!   k-of-n, components), with exact availability evaluation that remains
//!   correct when the same component appears in several places (Shannon
//!   decomposition on repeated components). [`Rbd::availability`] is the
//!   workspace's one production availability evaluator for RBDs: block
//!   importance over a solved hierarchy and the GMB workbench's RBD
//!   models both evaluate through it.
//! * [`bdd`] — hand-rolled reduced-ordered BDDs for symbolic
//!   structure-function analysis: minimal cut sets via Rauzy's
//!   minimal-solutions algorithm, cut counting, Birnbaum structural
//!   importance, and variable-symmetry checks, polynomial where
//!   enumeration explodes. This is Tier C lint's structure compiler, not
//!   an availability evaluator.
//! * [`importance`] — Birnbaum, criticality, and improvement-potential
//!   importance measures (`rascad importance`).
//! * [`paths`] — minimal cut sets by explicit enumeration, kept as the
//!   test oracle the BDD's cut sets are checked against.
//!
//! # Example
//!
//! ```
//! use rascad_rbd::{Rbd, ComponentTable};
//!
//! # fn main() -> Result<(), rascad_rbd::RbdError> {
//! let mut table = ComponentTable::new();
//! let cpu = table.add("cpu", 0.999);
//! let psu_a = table.add("psu-a", 0.995);
//! let psu_b = table.add("psu-b", 0.995);
//! // Two redundant PSUs in parallel, in series with the CPU.
//! let system = Rbd::series(vec![
//!     Rbd::component(cpu),
//!     Rbd::parallel(vec![Rbd::component(psu_a), Rbd::component(psu_b)]),
//! ]);
//! let a = system.availability(&table)?;
//! assert!((a - 0.999 * (1.0 - 0.005f64 * 0.005)).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod bdd;
pub mod block;
pub mod error;
pub mod importance;
pub mod paths;

pub use block::{ComponentId, ComponentTable, Rbd};
pub use error::RbdError;
pub use importance::ImportanceReport;
