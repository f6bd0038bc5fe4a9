//! GMB — the Graphical Model Builder equivalent.
//!
//! The paper's second module "provides general, graphical Markov,
//! semi-Markov and reliability block diagram (RBD) modeling capabilities
//! for use by RAS experts", with a *hierarchical approach*: models can
//! reference other models. This crate is the programmatic equivalent of
//! that workbench:
//!
//! * [`ModelRegistry`] — a named collection of Markov chains,
//!   semi-Markov processes, and RBDs. An RBD component's availability
//!   may be a constant, a named parameter, or *the solved availability
//!   of another model* — the hierarchy. Markov transition rates may also
//!   be named parameters, enabling parametric analysis without
//!   rebuilding models. RBDs are lowered onto [`rascad_rbd::Rbd`], one
//!   component per leaf, and evaluated by
//!   [`Rbd::availability`](rascad_rbd::Rbd::availability): a submodel
//!   named by two leaves is two independent instances.
//! * [`parametric`] — sweep any named parameter and collect measure
//!   curves.
//! * [`dot`] — Graphviz export of RBD trees ("graphical output").
//! * [`report`] — text documentation generation.
//!
//! # Example: hierarchical RBD over a Markov leaf
//!
//! ```
//! use rascad_gmb::{MarkovSpec, ModelRegistry, RbdSpec, Value};
//!
//! # fn main() -> Result<(), rascad_gmb::GmbError> {
//! let mut reg = ModelRegistry::new();
//! reg.set_parameter("lambda", 1e-4);
//!
//! // A 2-state Markov model for one server.
//! let mut server = MarkovSpec::new();
//! let up = server.state("up", 1.0);
//! let down = server.state("down", 0.0);
//! server.transition(up, down, Value::param("lambda"));
//! server.transition(down, up, Value::constant(0.5));
//! reg.add_markov("server", server)?;
//!
//! // Two servers in parallel, hierarchically referencing the chain.
//! let rbd = RbdSpec::parallel(vec![
//!     RbdSpec::leaf(Value::model("server")),
//!     RbdSpec::leaf(Value::model("server")),
//! ]);
//! reg.add_rbd("site", rbd)?;
//!
//! let a = reg.availability("site")?;
//! assert!(a > 0.9999);
//! # Ok(())
//! # }
//! ```

pub mod dot;
pub mod error;
pub mod parametric;
pub mod registry;
pub mod report;

pub use error::GmbError;
pub use registry::{MarkovSpec, ModelRegistry, RbdSpec, SemiMarkovSpec, Value};
