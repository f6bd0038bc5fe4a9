//! The hierarchical model registry.

use std::collections::{BTreeMap, HashMap, HashSet};

use rascad_markov::{CtmcBuilder, SemiMarkovBuilder, SojournDistribution, SteadyStateMethod};
use rascad_rbd::{ComponentTable, Rbd};

use crate::error::GmbError;

/// A value that resolves at solve time: a constant, a named parameter,
/// or the availability of another registered model (the hierarchy).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A literal value.
    Const(f64),
    /// A named parameter from the registry's parameter table.
    Param(String),
    /// The solved availability of another model.
    Model(String),
}

impl Value {
    /// A literal value.
    #[must_use]
    pub fn constant(v: f64) -> Value {
        Value::Const(v)
    }

    /// A named parameter.
    pub fn param(name: impl Into<String>) -> Value {
        Value::Param(name.into())
    }

    /// A reference to another model's availability.
    pub fn model(name: impl Into<String>) -> Value {
        Value::Model(name.into())
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Const(v)
    }
}

/// A GMB Markov model: states with rewards, transitions with [`Value`]
/// rates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MarkovSpec {
    states: Vec<(String, f64)>,
    transitions: Vec<(usize, usize, Value)>,
}

impl MarkovSpec {
    /// Creates an empty Markov model.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a state (reward 1 = up, 0 = down); returns its id.
    pub fn state(&mut self, label: impl Into<String>, reward: f64) -> usize {
        self.states.push((label.into(), reward));
        self.states.len() - 1
    }

    /// Adds a transition with a resolvable rate.
    pub fn transition(&mut self, from: usize, to: usize, rate: impl Into<Value>) -> &mut Self {
        self.transitions.push((from, to, rate.into()));
        self
    }

    /// Number of states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the model has no states.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

/// A GMB semi-Markov model: states with sojourn distributions, jump
/// probabilities as [`Value`]s.
#[derive(Debug, Clone, Default)]
pub struct SemiMarkovSpec {
    states: Vec<(String, f64, SojournDistribution)>,
    jumps: Vec<(usize, usize, Value)>,
}

impl SemiMarkovSpec {
    /// Creates an empty semi-Markov model.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a state with its sojourn distribution; returns its id.
    pub fn state(
        &mut self,
        label: impl Into<String>,
        reward: f64,
        sojourn: SojournDistribution,
    ) -> usize {
        self.states.push((label.into(), reward, sojourn));
        self.states.len() - 1
    }

    /// Adds a jump with a resolvable probability.
    pub fn jump(&mut self, from: usize, to: usize, probability: impl Into<Value>) -> &mut Self {
        self.jumps.push((from, to, probability.into()));
        self
    }
}

/// A GMB RBD: like [`rascad_rbd::Rbd`] but with [`Value`] leaves, so a
/// block can be a constant, a parameter, or another model.
///
/// Every leaf is its own component: a submodel named by two leaves is
/// two independent instances of that model (two servers built alike),
/// never one shared unit. A parallel pair of `Value::model("server")`
/// leaves has availability `1 − (1 − a)²`.
#[derive(Debug, Clone, PartialEq)]
pub enum RbdSpec {
    /// A basic block with a resolvable availability.
    Leaf(Value),
    /// All children required.
    Series(Vec<RbdSpec>),
    /// Any child suffices.
    Parallel(Vec<RbdSpec>),
    /// At least `k` children required.
    KOfN {
        /// Minimum working children.
        k: u32,
        /// The children.
        children: Vec<RbdSpec>,
    },
}

impl RbdSpec {
    /// Leaf constructor.
    pub fn leaf(v: impl Into<Value>) -> RbdSpec {
        RbdSpec::Leaf(v.into())
    }

    /// Series constructor.
    #[must_use]
    pub fn series(children: Vec<RbdSpec>) -> RbdSpec {
        RbdSpec::Series(children)
    }

    /// Parallel constructor.
    #[must_use]
    pub fn parallel(children: Vec<RbdSpec>) -> RbdSpec {
        RbdSpec::Parallel(children)
    }

    /// k-of-n constructor.
    #[must_use]
    pub fn k_of_n(k: u32, children: Vec<RbdSpec>) -> RbdSpec {
        RbdSpec::KOfN { k, children }
    }
}

/// One registered model.
#[derive(Debug, Clone)]
enum Model {
    Markov(MarkovSpec),
    SemiMarkov(SemiMarkovSpec),
    Rbd(RbdSpec),
}

/// A named, hierarchical collection of models with a shared parameter
/// table.
#[derive(Debug, Clone, Default)]
pub struct ModelRegistry {
    models: BTreeMap<String, Model>,
    parameters: HashMap<String, f64>,
    method: SteadyStateMethod,
}

impl ModelRegistry {
    /// Creates an empty registry (GTH steady-state method).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the steady-state method used for Markov models.
    pub fn set_method(&mut self, method: SteadyStateMethod) -> &mut Self {
        self.method = method;
        self
    }

    /// Sets (or overwrites) a named parameter.
    pub fn set_parameter(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        self.parameters.insert(name.into(), value);
        self
    }

    /// Reads a named parameter.
    #[must_use]
    pub fn parameter(&self, name: &str) -> Option<f64> {
        self.parameters.get(name).copied()
    }

    /// Registers a Markov model.
    ///
    /// # Errors
    ///
    /// Returns [`GmbError::DuplicateModel`] if the name is taken.
    pub fn add_markov(
        &mut self,
        name: impl Into<String>,
        spec: MarkovSpec,
    ) -> Result<(), GmbError> {
        self.add(name.into(), Model::Markov(spec))
    }

    /// Registers a semi-Markov model.
    ///
    /// # Errors
    ///
    /// Returns [`GmbError::DuplicateModel`] if the name is taken.
    pub fn add_semi_markov(
        &mut self,
        name: impl Into<String>,
        spec: SemiMarkovSpec,
    ) -> Result<(), GmbError> {
        self.add(name.into(), Model::SemiMarkov(spec))
    }

    /// Registers an RBD model.
    ///
    /// # Errors
    ///
    /// Returns [`GmbError::DuplicateModel`] if the name is taken.
    pub fn add_rbd(&mut self, name: impl Into<String>, spec: RbdSpec) -> Result<(), GmbError> {
        self.add(name.into(), Model::Rbd(spec))
    }

    fn add(&mut self, name: String, model: Model) -> Result<(), GmbError> {
        if self.models.contains_key(&name) {
            return Err(GmbError::DuplicateModel { name });
        }
        self.models.insert(name, model);
        Ok(())
    }

    /// Registered model names in sorted order.
    pub fn model_names(&self) -> Vec<&str> {
        self.models.keys().map(String::as_str).collect()
    }

    /// Solves the named model for its steady-state availability,
    /// resolving parameters and model references recursively.
    ///
    /// # Errors
    ///
    /// * [`GmbError::UnknownModel`] / [`GmbError::UnknownParameter`] for
    ///   dangling references.
    /// * [`GmbError::CyclicReference`] if model references loop.
    /// * [`GmbError::Markov`] / [`GmbError::Rbd`] for solver failures.
    pub fn availability(&self, name: &str) -> Result<f64, GmbError> {
        let mut span = rascad_obs::span("gmb.availability");
        span.record("model", name);
        let mut stack = HashSet::new();
        let mut cache = HashMap::new();
        let a = self.solve(name, &mut stack, &mut cache)?;
        span.record("models_solved", cache.len());
        rascad_obs::counter("gmb.models_solved", cache.len() as u64);
        Ok(a)
    }

    fn solve(
        &self,
        name: &str,
        stack: &mut HashSet<String>,
        cache: &mut HashMap<String, f64>,
    ) -> Result<f64, GmbError> {
        if let Some(&a) = cache.get(name) {
            return Ok(a);
        }
        if !stack.insert(name.to_string()) {
            return Err(GmbError::CyclicReference { name: name.to_string() });
        }
        let model = self
            .models
            .get(name)
            .ok_or_else(|| GmbError::UnknownModel { name: name.to_string() })?;
        let a = match model {
            Model::Markov(spec) => self.solve_markov(name, spec, stack, cache)?,
            Model::SemiMarkov(spec) => self.solve_semi(name, spec, stack, cache)?,
            Model::Rbd(spec) => self.solve_rbd(name, spec, stack, cache)?,
        };
        stack.remove(name);
        cache.insert(name.to_string(), a);
        Ok(a)
    }

    fn resolve(
        &self,
        v: &Value,
        stack: &mut HashSet<String>,
        cache: &mut HashMap<String, f64>,
    ) -> Result<f64, GmbError> {
        match v {
            Value::Const(c) => Ok(*c),
            Value::Param(p) => self
                .parameters
                .get(p)
                .copied()
                .ok_or_else(|| GmbError::UnknownParameter { name: p.clone() }),
            Value::Model(m) => self.solve(m, stack, cache),
        }
    }

    fn solve_markov(
        &self,
        name: &str,
        spec: &MarkovSpec,
        stack: &mut HashSet<String>,
        cache: &mut HashMap<String, f64>,
    ) -> Result<f64, GmbError> {
        let mut b = CtmcBuilder::new();
        for (label, reward) in &spec.states {
            b.add_state(label.clone(), *reward);
        }
        for (from, to, rate) in &spec.transitions {
            let r = self.resolve(rate, stack, cache)?;
            b.add_transition(*from, *to, r);
        }
        let chain =
            b.build().map_err(|source| GmbError::Markov { model: name.to_string(), source })?;
        let pi = chain
            .steady_state(self.method)
            .map_err(|source| GmbError::Markov { model: name.to_string(), source })?;
        Ok(chain.expected_reward(&pi))
    }

    fn solve_semi(
        &self,
        name: &str,
        spec: &SemiMarkovSpec,
        stack: &mut HashSet<String>,
        cache: &mut HashMap<String, f64>,
    ) -> Result<f64, GmbError> {
        let mut b = SemiMarkovBuilder::new();
        for (label, reward, sojourn) in &spec.states {
            b.add_state(label.clone(), *reward, *sojourn);
        }
        for (from, to, p) in &spec.jumps {
            let prob = self.resolve(p, stack, cache)?;
            b.add_jump(*from, *to, prob);
        }
        let smp =
            b.build().map_err(|source| GmbError::Markov { model: name.to_string(), source })?;
        smp.availability().map_err(|source| GmbError::Markov { model: name.to_string(), source })
    }

    /// Lowers `spec` onto [`Rbd`] with one component per leaf, each
    /// leaf's [`Value`] resolved first, and evaluates it with
    /// [`Rbd::availability`]. No component repeats, so the evaluation
    /// is the plain series/parallel/k-of-n arithmetic over independent
    /// leaves.
    fn solve_rbd(
        &self,
        name: &str,
        spec: &RbdSpec,
        stack: &mut HashSet<String>,
        cache: &mut HashMap<String, f64>,
    ) -> Result<f64, GmbError> {
        let mut table = ComponentTable::new();
        let rbd = self.lower(spec, &mut table, stack, cache)?;
        rbd.availability(&table).map_err(|source| GmbError::Rbd { model: name.to_string(), source })
    }

    fn lower(
        &self,
        spec: &RbdSpec,
        table: &mut ComponentTable,
        stack: &mut HashSet<String>,
        cache: &mut HashMap<String, f64>,
    ) -> Result<Rbd, GmbError> {
        let mut lower_all = |children: &[RbdSpec]| -> Result<Vec<Rbd>, GmbError> {
            children.iter().map(|c| self.lower(c, table, stack, cache)).collect()
        };
        Ok(match spec {
            RbdSpec::Leaf(v) => {
                let a = self.resolve(v, stack, cache)?;
                Rbd::component(table.add(leaf_name(v), a))
            }
            RbdSpec::Series(ch) => Rbd::series(lower_all(ch)?),
            RbdSpec::Parallel(ch) => Rbd::parallel(lower_all(ch)?),
            RbdSpec::KOfN { k, children } => Rbd::k_of_n(*k, lower_all(children)?),
        })
    }
}

/// The name of a leaf: its constant, `$parameter` or `@model` (the
/// component name in evaluation errors and the DOT export's label).
pub(crate) fn leaf_name(v: &Value) -> String {
    match v {
        Value::Const(c) => format!("{c:.6}"),
        Value::Param(p) => format!("${p}"),
        Value::Model(m) => format!("@{m}"),
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts deterministic arithmetic
mod tests {
    use super::*;
    use rascad_rbd::block::k_of_n_probability;

    fn two_state_markov(lam: Value, mu: Value) -> MarkovSpec {
        let mut m = MarkovSpec::new();
        let up = m.state("up", 1.0);
        let down = m.state("down", 0.0);
        m.transition(up, down, lam);
        m.transition(down, up, mu);
        m
    }

    #[test]
    fn markov_model_with_parameters() {
        let mut reg = ModelRegistry::new();
        reg.set_parameter("lambda", 0.001).set_parameter("mu", 0.5);
        reg.add_markov("m", two_state_markov(Value::param("lambda"), Value::param("mu"))).unwrap();
        let a = reg.availability("m").unwrap();
        assert!((a - 0.5 / 0.501).abs() < 1e-12);
    }

    #[test]
    fn hierarchy_rbd_over_markov() {
        let mut reg = ModelRegistry::new();
        reg.add_markov("leaf", two_state_markov(0.01.into(), 1.0.into())).unwrap();
        let a_leaf = 1.0 / 1.01;
        reg.add_rbd(
            "pair",
            RbdSpec::parallel(vec![
                RbdSpec::leaf(Value::model("leaf")),
                RbdSpec::leaf(Value::model("leaf")),
            ]),
        )
        .unwrap();
        let a = reg.availability("pair").unwrap();
        let u = 1.0 - a_leaf;
        assert!((a - (1.0 - u * u)).abs() < 1e-12);
    }

    #[test]
    fn three_level_hierarchy() {
        let mut reg = ModelRegistry::new();
        reg.add_markov("disk", two_state_markov(1e-4.into(), 0.25.into())).unwrap();
        reg.add_rbd(
            "array",
            RbdSpec::k_of_n(
                2,
                vec![
                    RbdSpec::leaf(Value::model("disk")),
                    RbdSpec::leaf(Value::model("disk")),
                    RbdSpec::leaf(Value::model("disk")),
                ],
            ),
        )
        .unwrap();
        reg.add_rbd(
            "site",
            RbdSpec::series(vec![
                RbdSpec::leaf(Value::model("array")),
                RbdSpec::leaf(Value::constant(0.9999)),
            ]),
        )
        .unwrap();
        let a_disk = 0.25 / (0.25 + 1e-4);
        let a_array = k_of_n_probability(2, &[a_disk, a_disk, a_disk]);
        let expect = a_array * 0.9999;
        assert!((reg.availability("site").unwrap() - expect).abs() < 1e-12);
    }

    #[test]
    fn semi_markov_model() {
        let mut reg = ModelRegistry::new();
        let mut s = SemiMarkovSpec::new();
        let up = s.state("up", 1.0, SojournDistribution::Exponential { rate: 0.001 });
        let down = s.state("down", 0.0, SojournDistribution::Deterministic { value: 2.0 });
        s.jump(up, down, 1.0);
        s.jump(down, up, 1.0);
        reg.add_semi_markov("smp", s).unwrap();
        let a = reg.availability("smp").unwrap();
        assert!((a - 1000.0 / 1002.0).abs() < 1e-12);
    }

    #[test]
    fn cycle_detected() {
        let mut reg = ModelRegistry::new();
        reg.add_rbd("a", RbdSpec::leaf(Value::model("b"))).unwrap();
        reg.add_rbd("b", RbdSpec::leaf(Value::model("a"))).unwrap();
        assert!(matches!(reg.availability("a").unwrap_err(), GmbError::CyclicReference { .. }));
    }

    #[test]
    fn dangling_references_reported() {
        let mut reg = ModelRegistry::new();
        reg.add_rbd("a", RbdSpec::leaf(Value::model("ghost"))).unwrap();
        assert!(matches!(reg.availability("a").unwrap_err(), GmbError::UnknownModel { .. }));

        let mut reg2 = ModelRegistry::new();
        reg2.add_markov("m", two_state_markov(Value::param("ghost"), 1.0.into())).unwrap();
        assert!(matches!(reg2.availability("m").unwrap_err(), GmbError::UnknownParameter { .. }));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut reg = ModelRegistry::new();
        reg.add_rbd("a", RbdSpec::leaf(Value::constant(0.5))).unwrap();
        assert!(matches!(
            reg.add_rbd("a", RbdSpec::leaf(Value::constant(0.6))).unwrap_err(),
            GmbError::DuplicateModel { .. }
        ));
    }

    #[test]
    fn caching_gives_consistent_results() {
        // The same model referenced twice resolves to the same value.
        let mut reg = ModelRegistry::new();
        reg.set_parameter("lambda", 0.01);
        reg.add_markov("m", two_state_markov(Value::param("lambda"), 1.0.into())).unwrap();
        reg.add_rbd(
            "top",
            RbdSpec::series(vec![
                RbdSpec::leaf(Value::model("m")),
                RbdSpec::leaf(Value::model("m")),
            ]),
        )
        .unwrap();
        let a_m = reg.availability("m").unwrap();
        let a_top = reg.availability("top").unwrap();
        assert!((a_top - a_m * a_m).abs() < 1e-12);
    }

    #[test]
    fn parameter_updates_change_results() {
        let mut reg = ModelRegistry::new();
        reg.set_parameter("lambda", 0.01);
        reg.add_markov("m", two_state_markov(Value::param("lambda"), 1.0.into())).unwrap();
        let a1 = reg.availability("m").unwrap();
        reg.set_parameter("lambda", 0.1);
        let a2 = reg.availability("m").unwrap();
        assert!(a2 < a1);
    }
}
