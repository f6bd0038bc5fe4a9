//! Automatic Markov-chain generation from block parameters.
//!
//! This module implements the paper's Section 4: each MG block is
//! translated to one of five Markov chain templates. [`generate_block`]
//! dispatches on redundancy and scenario:
//!
//! | Template | Condition |
//! |---|---|
//! | Type 0 | `N == K` (no redundancy) |
//! | Type 1 | `N > K`, transparent recovery, transparent repair |
//! | Type 2 | `N > K`, transparent recovery, nontransparent repair |
//! | Type 3 | `N > K`, nontransparent recovery, transparent repair |
//! | Type 4 | `N > K`, nontransparent recovery, nontransparent repair |
//!
//! Redundant blocks with more than
//! [`birth_death::BIRTH_DEATH_MIN_UNITS`] units expand to the
//! k-out-of-n [`birth_death`] chain instead — `N + 1` occupancy levels
//! with per-level failure and parallel-repair rates — which scales to
//! thousands of units where the level-replicated templates cannot.
//!
//! States that cannot be entered (zero probability or zero rate) and
//! zero-duration sojourns are elided, so the generated chain is always
//! minimal; "due to the variation on the model size, the internal matrix
//! representation … of the Markov models are generated" — here the
//! internal representation is [`rascad_markov::Ctmc`].

pub mod birth_death;
pub mod rates;
pub mod redundant;
pub mod type0;

use rascad_markov::{Ctmc, CtmcBuilder, Fingerprint, StateId};
use rascad_spec::{BlockParams, GlobalParams};

use crate::error::CoreError;
pub use rates::Rates;

/// A generated per-block availability model.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockModel {
    /// Block name the model was generated for.
    pub name: String,
    /// The Markov model type (0–4) selected by the parameters.
    pub model_type: u8,
    /// Quantity `N`.
    pub quantity: u32,
    /// Minimum required quantity `K`.
    pub min_quantity: u32,
    /// The generated chain; state `0` is always `Ok` (everything
    /// working).
    pub chain: Ctmc,
}

impl BlockModel {
    /// Number of states in the generated chain.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.chain.len()
    }

    /// Number of transitions in the generated chain.
    #[must_use]
    pub fn transition_count(&self) -> usize {
        self.chain.transition_count()
    }

    /// Id of the fully-working initial state.
    #[must_use]
    pub fn ok_state(&self) -> StateId {
        0
    }

    /// The model's shape and its chain's content fingerprint.
    pub(crate) fn summary(&self) -> ModelSummary {
        ModelSummary {
            model_type: self.model_type,
            quantity: self.quantity,
            min_quantity: self.min_quantity,
            states: self.state_count(),
            transitions: self.transition_count(),
            fingerprint: self.chain.fingerprint(),
        }
    }
}

/// What a solved block keeps of its generated model: the shape and the
/// chain's fingerprint, not the chain, which for a large pool is tens of
/// kilobytes. Regenerate the model with [`generate_block`] where the
/// chain itself is needed (dwell budgets, failure modes, DOT output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSummary {
    /// The Markov model type (0–4) selected by the parameters.
    pub model_type: u8,
    /// Quantity `N`.
    pub quantity: u32,
    /// Minimum required quantity `K`.
    pub min_quantity: u32,
    /// Number of states in the generated chain.
    pub states: usize,
    /// Number of transitions in the generated chain.
    pub transitions: usize,
    /// Content fingerprint of the generated chain (the solve cache's
    /// key), so two solutions can tell whether they solved one chain.
    pub fingerprint: Fingerprint,
}

/// Generates the availability Markov chain for one block.
///
/// # Errors
///
/// Returns [`CoreError::Markov`] if the assembled chain fails builder
/// validation (cannot happen for parameter sets that pass
/// [`rascad_spec::validate`], but malformed hand-built parameters are
/// caught here too).
pub fn generate_block(
    params: &BlockParams,
    globals: &GlobalParams,
) -> Result<BlockModel, CoreError> {
    let rates = Rates::derive(params, globals);
    let model_type =
        params.redundancy.as_ref().map_or(0, rascad_spec::RedundancyParams::model_type);
    let mut span = rascad_obs::span("core.generate_block");
    span.record("block", params.name.as_str());
    span.record("chain_type", u64::from(model_type));
    span.record("n", params.quantity);
    span.record("k", params.min_quantity);
    let mut mb = ModelBuilder::new();
    if params.is_redundant() {
        if params.quantity > birth_death::BIRTH_DEATH_MIN_UNITS {
            span.record("template", "birth-death");
            birth_death::build(&mut mb, params, &rates);
        } else {
            redundant::build(&mut mb, params, &rates);
        }
    } else {
        type0::build(&mut mb, params, &rates);
    }
    let chain =
        mb.finish().map_err(|source| CoreError::Markov { block: params.name.clone(), source })?;
    span.record("states", chain.len());
    span.record("transitions", chain.transition_count());
    rascad_obs::counter("core.blocks_generated", 1);
    rascad_obs::record_value("core.block_states", chain.len() as f64);
    Ok(BlockModel {
        name: params.name.clone(),
        model_type,
        quantity: params.quantity,
        min_quantity: params.min_quantity,
        chain,
    })
}

/// A [`CtmcBuilder`] wrapper with get-or-create states addressed by
/// label, used by the chain templates.
#[derive(Debug, Default)]
pub(crate) struct ModelBuilder {
    builder: CtmcBuilder,
    index: std::collections::HashMap<String, (StateId, f64)>,
    exits_added: std::collections::HashSet<StateId>,
}

impl ModelBuilder {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Returns the state with the given label, creating it with the
    /// given reward if needed.
    ///
    /// # Panics
    ///
    /// Panics if an existing label is requested with a different reward —
    /// that would indicate a template bug.
    #[allow(clippy::float_cmp)] // a reused label must carry the exact same reward
    pub(crate) fn state(&mut self, label: &str, reward: f64) -> StateId {
        if let Some(&(id, r)) = self.index.get(label) {
            assert_eq!(r, reward, "state {label} requested with conflicting rewards");
            return id;
        }
        let id = self.builder.add_state(label, reward);
        self.index.insert(label.to_string(), (id, reward));
        id
    }

    /// Marks that the fixed exit transitions of `state` have been
    /// installed; returns `true` exactly once per state.
    pub(crate) fn mark_exits_added(&mut self, state: StateId) -> bool {
        self.exits_added.insert(state)
    }

    /// Adds a transition; zero rates are dropped by the underlying
    /// builder.
    pub(crate) fn transition(&mut self, from: StateId, to: StateId, rate: f64) {
        if from != to && rate > 0.0 {
            self.builder.add_transition(from, to, rate);
        }
    }

    pub(crate) fn finish(&self) -> Result<Ctmc, rascad_markov::MarkovError> {
        self.builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rascad_spec::units::{Fit, Hours, Minutes};
    use rascad_spec::{RedundancyParams, Scenario};

    fn globals() -> GlobalParams {
        GlobalParams::default()
    }

    #[test]
    fn dispatches_type0_for_non_redundant() {
        let p = BlockParams::new("X", 2, 2);
        let m = generate_block(&p, &globals()).unwrap();
        assert_eq!(m.model_type, 0);
        assert_eq!(m.chain.states()[0].label, "Ok");
    }

    #[test]
    fn dispatches_types_1_to_4() {
        for (recovery, repair, expect) in [
            (Scenario::Transparent, Scenario::Transparent, 1),
            (Scenario::Transparent, Scenario::Nontransparent, 2),
            (Scenario::Nontransparent, Scenario::Transparent, 3),
            (Scenario::Nontransparent, Scenario::Nontransparent, 4),
        ] {
            let r = RedundancyParams { recovery, repair, ..Default::default() };
            let p = BlockParams::new("X", 2, 1).with_redundancy(r);
            let m = generate_block(&p, &globals()).unwrap();
            assert_eq!(m.model_type, expect);
            assert_eq!(m.ok_state(), 0);
        }
    }

    #[test]
    fn generated_chains_are_solvable() {
        let r = RedundancyParams {
            p_latent_fault: 0.05,
            p_spf: 0.01,
            recovery: Scenario::Nontransparent,
            repair: Scenario::Nontransparent,
            ..Default::default()
        };
        let p = BlockParams::new("X", 4, 2)
            .with_mtbf(Hours(80_000.0))
            .with_transient_fit(Fit(1_000.0))
            .with_mttr_parts(Minutes(20.0), Minutes(30.0), Minutes(10.0))
            .with_p_correct_diagnosis(0.97)
            .with_redundancy(r);
        let m = generate_block(&p, &globals()).unwrap();
        let pi = m.chain.steady_state(rascad_markov::SteadyStateMethod::Gth).unwrap();
        let a = m.chain.expected_reward(&pi);
        assert!(a > 0.999 && a < 1.0, "a={a}");
    }
}
