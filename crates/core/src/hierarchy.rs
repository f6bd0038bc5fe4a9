//! Hierarchical solution of a full diagram/block tree.
//!
//! "Each MG diagram is modeled by a serial RBD which consists of all the
//! MG blocks in the diagram. Each block is then modeled by a Markov
//! chain. … The overall model is a hierarchy of RBDs and Markov chains.
//! The system availability of an MG diagram containing n blocks is the
//! product of individual block availability" (paper Section 4).
//!
//! A block with a subdiagram contributes its own chain availability
//! *times* the subdiagram's availability (both must be up for the
//! component to be up); a leaf block contributes its chain availability.
//! All blocks are independent, so system-level rates combine as
//! `f_sys = Σ_i f_i · Π_{j≠i} A_j`.

use rascad_markov::SteadyStateMethod;
use rascad_rbd::{ComponentTable, Rbd};
use rascad_spec::{Diagram, SystemSpec};

use crate::error::CoreError;
use crate::generator::{generate_block, ModelSummary};
use crate::measures::BlockMeasures;

/// Per-block solution inside a system solve.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSolution {
    /// Slash path from the root diagram, e.g.
    /// `"Data Center System/Server Box/CPU Module"`.
    pub path: String,
    /// Diagram level (root = 1, as the paper numbers them).
    pub level: usize,
    /// The generated Markov model's shape and chain fingerprint. The
    /// chain itself is not kept: [`generate_block`] regenerates it from
    /// the block's parameters.
    pub model: ModelSummary,
    /// Steady-state measures of the block's own chain.
    pub measures: BlockMeasures,
    /// Chain availability × subdiagram availability (equals
    /// `measures.availability` for leaf blocks).
    pub combined_availability: f64,
    /// Combined failure frequency (chain + subdiagram contributions).
    pub combined_failure_rate: f64,
    /// Accuracy evidence for the steady-state solve behind `measures`:
    /// independent residual checks, condition estimate, method trail.
    pub certificate: crate::certify::SolutionCertificate,
}

/// System-level measures of a full specification.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemMeasures {
    /// Steady-state system availability (product over the root
    /// diagram).
    pub availability: f64,
    /// Probability the system is down, rolled up from the blocks'
    /// unavailabilities (`u₁ + (1 − u₁)·u₂` per series pair): equal to
    /// `1 − availability` up to rounding, and never negative.
    pub unavailability: f64,
    /// Expected system downtime per year, minutes.
    pub yearly_downtime_minutes: f64,
    /// System failure frequency (per hour).
    pub failure_rate: f64,
    /// Reciprocal mean downtime per system failure (per hour).
    pub recovery_rate: f64,
    /// Mean time between system failures, hours.
    pub mtbf_hours: f64,
    /// Interval availability over `(0, mission_time)`, computed as the
    /// product of per-chain interval availabilities (exact pointwise
    /// under independence; the time-average product is a documented
    /// approximation, see DESIGN.md).
    pub interval_availability: f64,
    /// Probability of no system failure before the mission time,
    /// `Π R_i(T)`.
    pub reliability_at_mission: f64,
    /// System MTTF, hours, from the competing-risk combination
    /// `1 / Σ (1/MTTF_i)`.
    pub mttf_hours: f64,
    /// The mission time used for the interval measures, hours.
    pub mission_hours: f64,
}

/// One block that failed to solve in a best-effort (degraded) run.
///
/// A failed block rolls up as an explicit leaf: its own chain
/// contributes the optimistic identity (availability 1, failure rate 0)
/// to the system aggregate, and the true system availability is
/// bracketed by [`SystemSolution::availability_bounds`].
#[derive(Debug, Clone, PartialEq)]
pub struct FailedBlock {
    /// Slash path from the root diagram.
    pub path: String,
    /// Diagram level (root = 1).
    pub level: usize,
    /// Position in the depth-first walk order, for interleaving with
    /// the solved blocks (see [`SystemSolution::outcomes`]).
    pub walk_index: usize,
    /// Why the block failed (typed solver error or caught worker
    /// panic).
    pub error: CoreError,
}

/// One walk position of a solved system: either a solved block or, in a
/// best-effort run, an explicit failure leaf.
#[derive(Debug, Clone, Copy)]
pub enum BlockOutcome<'a> {
    /// The block solved normally.
    Solved(&'a BlockSolution),
    /// The block failed and was rolled up optimistically.
    Failed(&'a FailedBlock),
}

/// A solved system: system-level measures plus every block's solution.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSolution {
    /// System-level measures. In a degraded run these are the
    /// *optimistic* values (failed blocks treated as always-up); see
    /// [`availability_bounds`](Self::availability_bounds).
    pub system: SystemMeasures,
    /// One entry per solved block, depth-first in diagram order.
    pub blocks: Vec<BlockSolution>,
    /// Blocks that failed to solve, in walk order. Always empty in
    /// strict mode (the default), possibly non-empty after
    /// `solve_spec_best_effort`.
    pub failed: Vec<FailedBlock>,
}

impl SystemSolution {
    /// Finds a block solution by its slash path.
    #[must_use]
    pub fn block(&self, path: &str) -> Option<&BlockSolution> {
        self.blocks.iter().find(|b| b.path == path)
    }

    /// Whether any block failed (best-effort mode only).
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        !self.failed.is_empty()
    }

    /// `(pessimistic, optimistic)` bounds on the true system
    /// availability. Equal for a clean solve; for a degraded solve the
    /// pessimistic bound is 0 (a failed block may be always-down) and
    /// the optimistic bound is the reported availability (failed blocks
    /// treated as always-up).
    #[must_use]
    pub fn availability_bounds(&self) -> (f64, f64) {
        if self.failed.is_empty() {
            (self.system.availability, self.system.availability)
        } else {
            (0.0, self.system.availability)
        }
    }

    /// Every walk position in depth-first diagram order, interleaving
    /// solved blocks and failure leaves.
    #[must_use]
    pub fn outcomes(&self) -> Vec<BlockOutcome<'_>> {
        let total = self.blocks.len() + self.failed.len();
        let mut out = Vec::with_capacity(total);
        let mut solved = self.blocks.iter();
        let mut failed = self.failed.iter().peekable();
        for idx in 0..total {
            match failed.peek() {
                Some(f) if f.walk_index == idx => {
                    out.push(BlockOutcome::Failed(failed.next().expect("peeked")));
                }
                _ => {
                    out.push(BlockOutcome::Solved(
                        solved.next().expect("walk positions partition into solved and failed"),
                    ));
                }
            }
        }
        out
    }

    /// Builds the serial RBD of the root diagram (one component per
    /// top-level block with its combined availability) — the
    /// "hierarchy of RBDs and Markov chains" view.
    #[must_use]
    pub fn root_rbd(&self) -> (ComponentTable, Rbd) {
        let mut table = ComponentTable::new();
        let mut children = Vec::new();
        for b in self.blocks.iter().filter(|b| b.level == 1) {
            let id = table.add(b.path.clone(), b.combined_availability);
            children.push(Rbd::component(id));
        }
        (table, Rbd::series(children))
    }

    /// The *flat* RBD over every chain in the tree (one component per
    /// block, all in series, with the block's own chain availability).
    /// Equivalent to [`root_rbd`](Self::root_rbd) in value but exposes
    /// every block for importance analysis.
    #[must_use]
    pub fn flat_rbd(&self) -> (ComponentTable, Rbd) {
        let mut table = ComponentTable::new();
        let mut children = Vec::new();
        for b in &self.blocks {
            let id = table.add(b.path.clone(), b.measures.availability);
            children.push(Rbd::component(id));
        }
        (table, Rbd::series(children))
    }

    /// Ranks every block by its system-level importance (Birnbaum,
    /// improvement potential, criticality) over the flat RBD view.
    ///
    /// # Errors
    ///
    /// Propagates RBD evaluation errors (cannot occur for a solved
    /// system).
    pub fn block_importance(
        &self,
    ) -> Result<Vec<(String, rascad_rbd::importance::ComponentImportance)>, CoreError> {
        let (table, rbd) = self.flat_rbd();
        let report = rascad_rbd::importance::importance(&rbd, &table)?;
        Ok(report.components.into_iter().map(|c| (c.name.clone(), c)).collect())
    }
}

/// Solves a complete specification with the default (GTH) method.
///
/// # Errors
///
/// Returns [`CoreError`] if the spec is invalid or any chain fails to
/// solve.
pub fn solve_spec(spec: &SystemSpec) -> Result<SystemSolution, CoreError> {
    solve_spec_with(spec, SteadyStateMethod::Gth)
}

/// [`solve_spec`] with an explicit steady-state method.
///
/// Delegates to the process-wide [`crate::engine::Engine`], so repeated
/// solves of overlapping specs reuse cached block solutions and sibling
/// blocks are solved concurrently; the result is bit-identical to the
/// sequential single-solve path (see the engine's determinism contract).
///
/// # Errors
///
/// Returns [`CoreError`] if the spec is invalid or any chain fails to
/// solve.
pub fn solve_spec_with(
    spec: &SystemSpec,
    method: SteadyStateMethod,
) -> Result<SystemSolution, CoreError> {
    crate::engine::Engine::global().solve_spec_with(spec, method)
}

/// [`solve_spec_with`] in best-effort (degraded) mode: block failures
/// become [`FailedBlock`] entries instead of aborting the solve (see
/// [`crate::engine::Engine::solve_spec_best_effort`]).
///
/// # Errors
///
/// Returns [`CoreError`] only if the spec itself is invalid.
pub fn solve_spec_best_effort(
    spec: &SystemSpec,
    method: SteadyStateMethod,
) -> Result<SystemSolution, CoreError> {
    crate::engine::Engine::global().solve_spec_best_effort(spec, method)
}

/// Exact system interval availability over `(0, horizon)`.
///
/// The per-solution `interval_availability` multiplies per-block
/// interval availabilities, which swaps a time average with a product
/// (a tiny, documented approximation). This computes the true value:
/// the pointwise product of point availabilities `Π_b A_b(t)` on a
/// composite-Simpson grid (one shared uniformization pass per chain via
/// [`rascad_markov::transient::solve_grid`]), integrated over the
/// horizon.
///
/// `points` is the number of grid intervals (>= 8). The grid is
/// *geometric* (graded toward zero) so the fast initial transient —
/// repair-scale dynamics that relax within hours against a horizon of
/// months — is resolved without an astronomical uniform grid; the
/// integral uses the trapezoid rule per segment.
///
/// # Errors
///
/// * [`CoreError::InvalidRequest`] for a bad grid or horizon.
/// * Generation/solver errors for the spec's chains.
pub fn interval_availability_exact(
    spec: &SystemSpec,
    horizon_hours: f64,
    points: usize,
) -> Result<f64, CoreError> {
    if points < 8 {
        return Err(CoreError::InvalidRequest {
            what: format!("grid needs at least 8 intervals, got {points}"),
        });
    }
    if !horizon_hours.is_finite() || horizon_hours <= 0.0 {
        return Err(CoreError::InvalidRequest {
            what: format!("horizon {horizon_hours} must be positive"),
        });
    }
    spec.validate()?;
    let mut span = rascad_obs::span("core.interval_availability_exact");
    span.record("horizon_hours", horizon_hours);
    span.record("grid_points", points);

    // Geometric grid from T·1e-8 to T, plus t = 0.
    let lo = horizon_hours * 1e-8;
    let ratio = (horizon_hours / lo).powf(1.0 / (points - 1) as f64);
    let mut times = Vec::with_capacity(points + 1);
    times.push(0.0);
    let mut t = lo;
    for _ in 0..points {
        times.push(t.min(horizon_hours));
        t *= ratio;
    }
    *times.last_mut().expect("nonempty") = horizon_hours;
    // Pointwise product of block availabilities across the whole tree.
    let mut product = vec![1.0; times.len()];
    let mut stack: Vec<&Diagram> = vec![&spec.root];
    while let Some(d) = stack.pop() {
        for block in &d.blocks {
            let model = generate_block(&block.params, &spec.globals)?;
            let mut p0 = vec![0.0; model.chain.len()];
            p0[model.ok_state()] = 1.0;
            let sols = rascad_markov::transient::solve_grid(
                &model.chain,
                &p0,
                &times,
                rascad_markov::TransientOptions::default(),
            )
            .map_err(|source| CoreError::Markov { block: block.params.name.clone(), source })?;
            for (acc, sol) in product.iter_mut().zip(&sols) {
                *acc *= sol.point_reward;
            }
            if let Some(sub) = &block.subdiagram {
                stack.push(sub);
            }
        }
    }

    // Trapezoid over the graded grid.
    let mut integral = 0.0;
    for i in 1..times.len() {
        integral += 0.5 * (product[i] + product[i - 1]) * (times[i] - times[i - 1]);
    }
    Ok((integral / horizon_hours).clamp(0.0, 1.0))
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts deterministic arithmetic
mod tests {
    use super::*;
    use rascad_spec::units::{Hours, Minutes};
    use rascad_spec::{Block, BlockParams, GlobalParams};

    fn two_block_spec() -> SystemSpec {
        let mut d = Diagram::new("Sys");
        d.push(
            BlockParams::new("A", 1, 1)
                .with_mtbf(Hours(10_000.0))
                .with_mttr_parts(Minutes(60.0), Minutes(0.0), Minutes(0.0))
                .with_service_response(Hours(0.0)),
        );
        d.push(
            BlockParams::new("B", 1, 1)
                .with_mtbf(Hours(20_000.0))
                .with_mttr_parts(Minutes(120.0), Minutes(0.0), Minutes(0.0))
                .with_service_response(Hours(0.0)),
        );
        SystemSpec::new(d, GlobalParams::default())
    }

    #[test]
    fn series_availability_is_product() {
        let spec = two_block_spec();
        let sol = solve_spec(&spec).unwrap();
        let a1 = 10_000.0 / 10_001.0;
        let a2 = 20_000.0 / 20_002.0;
        assert!((sol.system.availability - a1 * a2).abs() < 1e-12);
        assert_eq!(sol.blocks.len(), 2);
        assert!(sol.block("Sys/A").is_some());
        assert!(sol.block("Sys/Nope").is_none());
    }

    #[test]
    fn series_failure_rate_combines() {
        let spec = two_block_spec();
        let sol = solve_spec(&spec).unwrap();
        let a = sol.block("Sys/A").unwrap().measures;
        let b = sol.block("Sys/B").unwrap().measures;
        let expect = a.failure_rate * b.availability + b.failure_rate * a.availability;
        assert!((sol.system.failure_rate - expect).abs() < 1e-15);
    }

    #[test]
    fn hierarchy_multiplies_through_subdiagrams() {
        let mut sub = Diagram::new("Internals");
        sub.push(
            BlockParams::new("CPU", 1, 1)
                .with_mtbf(Hours(50_000.0))
                .with_service_response(Hours(0.0)),
        );
        let mut root = Diagram::new("Sys");
        root.push_block(Block::with_subdiagram(
            BlockParams::new("Box", 1, 1).with_mtbf(Hours(1e9)),
            sub,
        ));
        let spec = SystemSpec::new(root, GlobalParams::default());
        let sol = solve_spec(&spec).unwrap();
        let box_sol = sol.block("Sys/Box").unwrap();
        let cpu_sol = sol.block("Sys/Box/CPU").unwrap();
        assert_eq!(cpu_sol.level, 2);
        assert!(
            (box_sol.combined_availability
                - box_sol.measures.availability * cpu_sol.measures.availability)
                .abs()
                < 1e-15
        );
        assert!((sol.system.availability - box_sol.combined_availability).abs() < 1e-15);
    }

    #[test]
    fn invalid_spec_rejected() {
        let spec = SystemSpec::new(Diagram::new("Empty"), GlobalParams::default());
        assert!(matches!(solve_spec(&spec), Err(CoreError::Spec(_))));
    }

    #[test]
    fn mission_measures_are_consistent() {
        let spec = two_block_spec();
        let sol = solve_spec(&spec).unwrap();
        let m = &sol.system;
        assert!(m.interval_availability >= m.availability - 1e-12);
        assert!(m.interval_availability <= 1.0);
        assert!(m.reliability_at_mission > 0.0 && m.reliability_at_mission < 1.0);
        // MTTF combines like parallel resistors of the block MTTFs
        // (~1/(1/10000+1/20000) = 6667 h).
        assert!((m.mttf_hours - 6667.0).abs() < 20.0, "{}", m.mttf_hours);
        assert_eq!(m.mission_hours, 8760.0);
    }

    #[test]
    fn block_importance_ranks_the_weak_block_first() {
        let mut d = Diagram::new("Sys");
        d.push(
            BlockParams::new("Weak", 1, 1)
                .with_mtbf(Hours(2_000.0))
                .with_mttr_parts(Minutes(240.0), Minutes(0.0), Minutes(0.0))
                .with_service_response(Hours(0.0)),
        );
        d.push(
            BlockParams::new("Strong", 1, 1)
                .with_mtbf(Hours(100_000.0))
                .with_mttr_parts(Minutes(30.0), Minutes(0.0), Minutes(0.0))
                .with_service_response(Hours(0.0)),
        );
        let sol = solve_spec(&SystemSpec::new(d, GlobalParams::default())).unwrap();
        let ranking = sol.block_importance().unwrap();
        assert_eq!(ranking.len(), 2);
        let weak = ranking.iter().find(|(n, _)| n == "Sys/Weak").unwrap();
        let strong = ranking.iter().find(|(n, _)| n == "Sys/Strong").unwrap();
        // The weak block owns almost all the criticality.
        assert!(weak.1.criticality > strong.1.criticality * 10.0);
        assert!(weak.1.improvement_potential > strong.1.improvement_potential);
        // Flat RBD availability equals the system availability.
        let (table, rbd) = sol.flat_rbd();
        assert!((rbd.availability(&table).unwrap() - sol.system.availability).abs() < 1e-12);
    }

    #[test]
    fn root_rbd_reproduces_availability() {
        let spec = two_block_spec();
        let sol = solve_spec(&spec).unwrap();
        let (table, rbd) = sol.root_rbd();
        let a = rbd.availability(&table).unwrap();
        assert!((a - sol.system.availability).abs() < 1e-12);
    }

    #[test]
    fn exact_interval_availability_brackets() {
        let spec = two_block_spec();
        let sol = solve_spec(&spec).unwrap();
        let exact = interval_availability_exact(&spec, 8760.0, 64).unwrap();
        // Between steady state and 1, and close to the product
        // approximation already reported.
        assert!(exact >= sol.system.availability - 1e-9, "{exact}");
        assert!(exact <= 1.0);
        assert!(
            (exact - sol.system.interval_availability).abs() < 1e-6,
            "exact {exact} vs product {}",
            sol.system.interval_availability
        );
    }

    #[test]
    fn exact_interval_availability_rejects_bad_grid() {
        let spec = two_block_spec();
        assert!(interval_availability_exact(&spec, 8760.0, 4).is_err());
        assert!(interval_availability_exact(&spec, 8760.0, 0).is_err());
        assert!(interval_availability_exact(&spec, -1.0, 4).is_err());
    }

    #[test]
    fn gth_and_lu_agree_end_to_end() {
        let spec = two_block_spec();
        let g = solve_spec_with(&spec, SteadyStateMethod::Gth).unwrap();
        let l = solve_spec_with(&spec, SteadyStateMethod::Lu).unwrap();
        let rel = (g.system.yearly_downtime_minutes - l.system.yearly_downtime_minutes).abs()
            / g.system.yearly_downtime_minutes;
        assert!(rel < 0.002, "relative error {rel}");
    }
}
