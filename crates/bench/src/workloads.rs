//! Deterministic workload definitions for `rascad bench`.
//!
//! The CLI benchmark harness and its tests must agree on exactly which
//! models each stage exercises, so the fixtures live here next to the
//! reference blocks. Everything is deterministic: fixed specs, fixed
//! seeds, fixed grids.

use rascad_markov::{Ctmc, CtmcBuilder};
use rascad_spec::{BlockParams, Scenario, SystemSpec};

/// Knobs that scale the benchmark suite without changing its shape.
///
/// `quick` keeps every stage comfortably under a second on a laptop so
/// the suite can run as a CI smoke test; `full` is sized for real
/// baseline comparisons.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchProfile {
    /// Profile name recorded in the emitted document (`"quick"`/`"full"`).
    pub name: &'static str,
    /// Timed repetitions per stage (the minimum is reported).
    pub iterations: usize,
    /// Horizon for the single-point transient stage, hours.
    pub transient_hours: f64,
    /// Horizon for the exact interval-availability stage, hours.
    pub interval_horizon_hours: f64,
    /// Grid intervals for the exact interval-availability stage.
    pub interval_grid_points: usize,
    /// Number of sweep values in the parametric stage.
    pub sweep_points: usize,
    /// Simulated hours per replication in the simulator stage.
    pub sim_horizon_hours: f64,
    /// Simulator replications.
    pub sim_replications: usize,
    /// States in the large-chain GTH-solve workload (`--large`).
    pub large_chain_states: usize,
}

impl BenchProfile {
    /// CI-sized profile: every stage well under a second.
    #[must_use]
    pub fn quick() -> Self {
        BenchProfile {
            name: "quick",
            iterations: 2,
            transient_hours: 24.0,
            interval_horizon_hours: 720.0,
            interval_grid_points: 16,
            sweep_points: 4,
            sim_horizon_hours: 2_000.0,
            sim_replications: 2,
            large_chain_states: 10_000,
        }
    }

    /// Baseline-sized profile for real machine-to-machine comparisons.
    #[must_use]
    pub fn full() -> Self {
        BenchProfile {
            name: "full",
            iterations: 5,
            transient_hours: 8_760.0,
            interval_horizon_hours: 8_760.0,
            interval_grid_points: 64,
            sweep_points: 12,
            sim_horizon_hours: 50_000.0,
            sim_replications: 8,
            large_chain_states: 100_000,
        }
    }
}

/// One block per paper chain template: Type 0 (no redundancy) plus the
/// four recovery × repair scenario combinations (Types 1–4).
#[must_use]
pub fn chain_type_blocks() -> Vec<(u8, BlockParams)> {
    vec![
        (0, crate::type0_block()),
        (1, crate::redundant_block(2, 1, Scenario::Transparent, Scenario::Transparent)),
        (2, crate::redundant_block(2, 1, Scenario::Transparent, Scenario::Nontransparent)),
        (3, crate::redundant_block(2, 1, Scenario::Nontransparent, Scenario::Transparent)),
        (4, crate::redundant_block(2, 1, Scenario::Nontransparent, Scenario::Nontransparent)),
    ]
}

/// DSL source for the two-level hierarchy workload (parse + roll-up
/// stages). Mirrors the paper's data-center example: a server box with
/// a redundant CPU subdiagram plus mirrored boot drives.
pub const HIERARCHY_DSL: &str = r#"
global {
    reboot_time = 8 min
    mttm = 48 h
    mttrfid = 8 h
    mission_time = 8760 h
}

diagram "Bench Data Center" {
    block "Server Box" {
        quantity = 1
        min_quantity = 1
        mtbf = 10000 h
        transient_fit = 500
        mttr_diagnosis = 30 min
        mttr_corrective = 20 min
        mttr_verification = 10 min
        service_response = 4 h
        p_correct_diagnosis = 0.98
        subdiagram "Server Internals" {
            block "CPU Module" {
                quantity = 4
                min_quantity = 3
                mtbf = 500000 h
                redundancy {
                    p_latent = 0.05
                    mttdlf = 24 h
                    recovery = nontransparent
                    failover_time = 5 min
                    p_spf = 0.01
                    spf_recovery_time = 10 min
                    repair = transparent
                    reintegration_time = 0 min
                }
            }
            block "Memory Bank" {
                quantity = 2
                min_quantity = 1
                mtbf = 800000 h
                redundancy {
                    p_latent = 0.02
                    mttdlf = 24 h
                    recovery = transparent
                    failover_time = 1 min
                    p_spf = 0.01
                    spf_recovery_time = 10 min
                    repair = transparent
                    reintegration_time = 5 min
                }
            }
        }
    }
    block "Boot Drives" {
        quantity = 2
        min_quantity = 1
        mtbf = 300000 h
    }
}
"#;

/// The parsed hierarchy workload.
#[must_use]
pub fn hierarchy_spec() -> SystemSpec {
    SystemSpec::from_dsl(HIERARCHY_DSL).expect("bench hierarchy DSL parses")
}

/// Flat spec for the parametric-sweep stage; the sweep varies the
/// service response time of the `"Node"` block.
#[must_use]
pub fn sweep_spec() -> SystemSpec {
    use rascad_spec::units::Hours;
    use rascad_spec::{Diagram, GlobalParams};
    let mut d = Diagram::new("Bench Cluster");
    d.push(
        BlockParams::new("Node", 2, 1)
            .with_mtbf(Hours(20_000.0))
            .with_redundancy(crate::type3_block().redundancy.expect("type3 has redundancy")),
    );
    d.push(BlockParams::new("Switch", 1, 1).with_mtbf(Hours(150_000.0)));
    SystemSpec::new(d, GlobalParams::default())
}

/// Name of the swept block in [`sweep_spec`].
pub const SWEEP_BLOCK: &str = "Node";

/// Flat ten-block spec for the sweep-scaling workload: one swept
/// `"Target"` block plus nine fixed blocks. Across a sweep only the
/// target's chain changes, so the solve engine's block cache reuses the
/// other nine solutions at every point after the first.
#[must_use]
pub fn sweep_scaling_spec() -> SystemSpec {
    use rascad_spec::units::Hours;
    use rascad_spec::{Diagram, GlobalParams};
    let mut d = Diagram::new("Scaling Cluster");
    d.push(BlockParams::new("Target", 2, 1).with_mtbf(Hours(20_000.0)));
    for i in 1..10 {
        d.push(
            BlockParams::new(format!("Fixed{i}"), 2, 1)
                .with_mtbf(Hours(50_000.0 + 10_000.0 * i as f64)),
        );
    }
    SystemSpec::new(d, GlobalParams::default())
}

/// Name of the swept block in [`sweep_scaling_spec`].
pub const SWEEP_SCALING_BLOCK: &str = "Target";

/// Sweep points used by the sweep-scaling workload regardless of
/// profile: the cache hit-rate acceptance bar (nine cached blocks
/// hitting on 19 of 20 points = 85.5%) is defined at this size.
pub const SWEEP_SCALING_POINTS: usize = 20;

/// Builds the large-chain workload: a birth–death CTMC with `states`
/// levels (a k-out-of-n pool of `states - 1` units), per-level failure
/// rate `(n - j)·λ` and repair rate `(j + 1)·μ`. Rates span a benign
/// range, so the chain is large but not stiff — the workload isolates
/// state-space size.
///
/// # Panics
///
/// Panics if `states < 2`.
#[must_use]
#[allow(clippy::cast_precision_loss)] // state counts stay far below 2^52
pub fn large_birth_death(states: usize) -> Ctmc {
    assert!(states >= 2, "a birth–death chain needs at least 2 states");
    let levels = states - 1;
    let mut b = CtmcBuilder::new();
    for j in 0..=levels {
        b.add_state(format!("L{j}"), if j == 0 { 1.0 } else { 0.0 });
    }
    for j in 0..levels {
        b.add_transition(j, j + 1, (levels - j) as f64 * 1e-5);
        b.add_transition(j + 1, j, (j + 1) as f64 * 0.02);
    }
    b.build().expect("bench large chain builds")
}

/// Units in the thousand-unit k-out-of-n block workload.
pub const LARGE_BLOCK_UNITS: u32 = 1000;

/// Minimum working units in the thousand-unit block workload.
pub const LARGE_BLOCK_MIN: u32 = 900;

/// A thousand-unit k-out-of-n block: the generator's birth–death
/// template collapses its `2^1000` product space to
/// [`LARGE_BLOCK_UNITS`]` + 1` occupancy states, which is what lets the
/// stage solve in milliseconds at all.
#[must_use]
pub fn large_block() -> BlockParams {
    use rascad_spec::units::Hours;
    use rascad_spec::RedundancyParams;
    BlockParams::new("Large Pool", LARGE_BLOCK_UNITS, LARGE_BLOCK_MIN)
        .with_mtbf(Hours(100_000.0))
        .with_redundancy(RedundancyParams::default())
}

/// Units in the brute-force lump-proof workload: small enough that the
/// full `2^n` product space solves directly for cross-validation.
pub const LUMP_PROOF_UNITS: u32 = 8;

/// Minimum working units in the lump-proof workload.
pub const LUMP_PROOF_MIN: u32 = 6;

#[cfg(test)]
mod tests {
    use super::*;
    use rascad_core::{solve_block, solve_spec};
    use rascad_markov::SteadyStateMethod;

    #[test]
    fn chain_type_blocks_cover_all_five_templates() {
        let g = crate::globals();
        let blocks = chain_type_blocks();
        assert_eq!(blocks.len(), 5);
        for (expect_type, params) in blocks {
            let (model, _) = solve_block(&params, &g).unwrap();
            assert_eq!(model.model_type, expect_type);
        }
    }

    #[test]
    fn hierarchy_spec_parses_and_solves() {
        let spec = hierarchy_spec();
        let solution = solve_spec(&spec).unwrap();
        assert!(solution.system.availability > 0.99);
        assert!(solution.blocks.len() >= 4);
    }

    #[test]
    fn sweep_spec_solves() {
        let solution = solve_spec(&sweep_spec()).unwrap();
        assert!(solution.system.availability > 0.9);
        assert!(sweep_spec().root.find(SWEEP_BLOCK).is_some());
    }

    #[test]
    fn sweep_scaling_spec_has_ten_blocks_and_solves() {
        let spec = sweep_scaling_spec();
        assert_eq!(spec.root.blocks.len(), 10);
        assert!(spec.root.find(SWEEP_SCALING_BLOCK).is_some());
        let solution = solve_spec(&spec).unwrap();
        assert!(solution.system.availability > 0.9);
    }

    #[test]
    fn profiles_are_ordered() {
        let (q, f) = (BenchProfile::quick(), BenchProfile::full());
        assert!(q.iterations <= f.iterations);
        assert!(q.sweep_points < f.sweep_points);
        assert!(q.sim_horizon_hours < f.sim_horizon_hours);
        assert!(q.large_chain_states < f.large_chain_states);
    }

    #[test]
    fn large_birth_death_is_irreducible_and_sized() {
        let chain = large_birth_death(1_000);
        assert_eq!(chain.len(), 1_000);
        let pi = chain.steady_state(SteadyStateMethod::Gth).unwrap();
        let mass: f64 = pi.iter().sum();
        assert!((mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn large_block_expands_to_occupancy_states() {
        let (model, measures) = solve_block(&large_block(), &crate::globals()).unwrap();
        assert_eq!(model.chain.len(), LARGE_BLOCK_UNITS as usize + 1);
        assert!(measures.availability > 0.999);
    }
}
