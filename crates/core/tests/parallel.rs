//! Equivalence and freshness guarantees of the parallel solve engine.
//!
//! The engine's contract is that thread count and cache state change
//! wall-clock time only: every result is bit-identical to the
//! sequential, cache-free reference. These tests exercise that contract
//! on a hierarchical spec and a single-parameter sweep across thread
//! counts {1, 2, 8}, and prove a poisoned cache entry can never leak a
//! stale solution into a solve.

// Bit-identical results are the contract under test, and replication
// counts cast to f64 stay far below 2^52.
#![allow(clippy::float_cmp, clippy::cast_precision_loss)]

use rascad_core::engine::Engine;
use rascad_core::measures::BlockMeasures;
use rascad_core::sweep::lin_space;
use rascad_spec::units::{Hours, Minutes};
use rascad_spec::{
    Block, BlockParams, Diagram, GlobalParams, RedundancyParams, Scenario, SystemSpec,
};

/// A two-level hierarchy with a mix of template types.
fn hierarchy_spec() -> SystemSpec {
    let mut internals = Diagram::new("Internals");
    internals.push(BlockParams::new("CPU", 4, 3).with_mtbf(Hours(500_000.0)).with_redundancy(
        RedundancyParams {
            p_latent_fault: 0.05,
            mttdlf: Hours(24.0),
            recovery: Scenario::Nontransparent,
            failover_time: Minutes(5.0),
            p_spf: 0.01,
            spf_recovery_time: Minutes(10.0),
            repair: Scenario::Transparent,
            reintegration_time: Minutes(0.0),
        },
    ));
    internals.push(BlockParams::new("Memory", 2, 1).with_mtbf(Hours(800_000.0)));
    let mut root = Diagram::new("Sys");
    root.push_block(Block::with_subdiagram(
        BlockParams::new("Box", 1, 1).with_mtbf(Hours(10_000.0)),
        internals,
    ));
    root.push(BlockParams::new("Drives", 2, 1).with_mtbf(Hours(300_000.0)));
    root.push(BlockParams::new("Switch", 1, 1).with_mtbf(Hours(150_000.0)));
    SystemSpec::new(root, GlobalParams::default())
}

/// A flat many-block spec where a sweep touches exactly one block.
fn sweep_base(blocks: usize) -> SystemSpec {
    let mut d = Diagram::new("Cluster");
    d.push(BlockParams::new("Target", 2, 1).with_mtbf(Hours(20_000.0)));
    for i in 1..blocks {
        d.push(
            BlockParams::new(format!("Fixed{i}"), 2, 1)
                .with_mtbf(Hours(50_000.0 + 10_000.0 * i as f64)),
        );
    }
    SystemSpec::new(d, GlobalParams::default())
}

#[test]
fn hierarchy_is_bit_identical_across_thread_counts() {
    let spec = hierarchy_spec();
    let reference = Engine::sequential().solve_spec(&spec).unwrap();
    for threads in [1, 2, 8] {
        let engine = Engine::with_threads(threads);
        let first = engine.solve_spec(&spec).unwrap();
        // A second solve through the now-warm cache must also be
        // bit-identical, not merely close.
        let cached = engine.solve_spec(&spec).unwrap();
        assert_eq!(first, reference, "threads={threads} (cold)");
        assert_eq!(cached, reference, "threads={threads} (warm)");
        assert_eq!(
            first.system.availability.to_bits(),
            reference.system.availability.to_bits(),
            "threads={threads}"
        );
    }
}

#[test]
fn sweep_is_bit_identical_across_thread_counts() {
    let base = sweep_base(6);
    let values = lin_space(1.0, 24.0, 10).unwrap();
    let apply = |spec: &mut SystemSpec, v: f64| {
        spec.root.find_mut("Target").unwrap().params.service_response = Hours(v);
    };
    let reference = Engine::sequential().sweep(&base, &values, apply).unwrap();
    for threads in [1, 2, 8] {
        let got = Engine::with_threads(threads).sweep(&base, &values, apply).unwrap();
        assert_eq!(got.len(), reference.len());
        for (g, r) in got.iter().zip(&reference) {
            assert_eq!(g, r, "threads={threads} value={}", r.value);
            assert_eq!(
                g.solution.system.yearly_downtime_minutes.to_bits(),
                r.solution.system.yearly_downtime_minutes.to_bits(),
                "threads={threads} value={}",
                r.value
            );
        }
    }
}

#[test]
fn twenty_point_sweep_exceeds_80_percent_hit_rate() {
    // 10 blocks, 20 points, one swept parameter: the 9 untouched blocks
    // miss once each and hit on the remaining 19 points, so the hit
    // rate is 19*9/200 = 85.5% for both the steady and mission caches.
    let base = sweep_base(10);
    let values = lin_space(0.5, 48.0, 20).unwrap();
    let engine = Engine::with_threads(2);
    let points = engine
        .sweep(&base, &values, |spec, v| {
            spec.root.find_mut("Target").unwrap().params.service_response = Hours(v);
        })
        .unwrap();
    assert_eq!(points.len(), 20);
    let stats = engine.cache_stats();
    assert!(
        stats.hit_rate() > 0.8,
        "hit rate {:.3} (hits {} misses {})",
        stats.hit_rate(),
        stats.hits,
        stats.misses
    );
}

#[test]
fn mutated_block_always_misses_and_resolves_fresh() {
    // Sweep-style mutation through one engine: the mutated block's
    // chain changes content, so its old entry must never be served.
    let base = sweep_base(4);
    let engine = Engine::with_threads(2);
    let before = engine.solve_spec(&base).unwrap();

    let mut mutated = base.clone();
    mutated.root.find_mut("Target").unwrap().params.mtbf = Hours(5_000.0);
    let through_warm_cache = engine.solve_spec(&mutated).unwrap();
    let fresh = Engine::sequential().solve_spec(&mutated).unwrap();
    assert_eq!(through_warm_cache, fresh);
    assert_ne!(through_warm_cache.system.availability, before.system.availability);
}

#[test]
fn poisoned_cache_entry_never_serves_a_stale_solution() {
    use rascad_core::generate_block;
    use rascad_markov::SteadyStateMethod;

    let engine = Engine::with_threads(1);
    let globals = GlobalParams::default();
    let victim =
        generate_block(&BlockParams::new("Target", 2, 1).with_mtbf(Hours(20_000.0)), &globals)
            .unwrap();
    let wrong =
        generate_block(&BlockParams::new("Wrong", 1, 1).with_mtbf(Hours(100.0)), &globals).unwrap();
    // Plant an entry under the victim's fingerprint that stores a
    // different chain and absurd measures — the equality guard must
    // treat it as a miss.
    engine.cache().unwrap().poison_steady(
        &victim,
        SteadyStateMethod::Gth,
        wrong.chain.clone(),
        BlockMeasures::from_availability(0.01, 42.0),
    );
    let spec = sweep_base(4);
    let poisoned = engine.solve_spec(&spec).unwrap();
    let fresh = Engine::sequential().solve_spec(&spec).unwrap();
    assert_eq!(poisoned, fresh);
    let target = poisoned.block("Cluster/Target").unwrap();
    assert!(target.measures.availability > 0.9, "{}", target.measures.availability);
}

#[test]
fn gth_rung_is_bit_identical_across_thread_counts() {
    // Two large k-out-of-n blocks expand to 601- and 901-state
    // birth–death chains, which GTH solves in their band. Its pivot
    // order is fixed, so thread count must not change a single bit of
    // the result. A one-day mission keeps the transient
    // interval-availability solve (uniformization steps scale with
    // rate × horizon) cheap in debug builds.
    let mut d = Diagram::new("Farm");
    for (name, n, k) in [("ShelfA", 600_u32, 595_u32), ("ShelfB", 900, 894)] {
        d.push(
            BlockParams::new(name, n, k)
                .with_mtbf(Hours(100_000.0))
                .with_redundancy(RedundancyParams::default()),
        );
    }
    let globals = GlobalParams { mission_time: Hours(24.0), ..GlobalParams::default() };
    let spec = SystemSpec::new(d, globals);
    let reference = Engine::sequential().solve_spec(&spec).unwrap();
    for threads in [1, 8] {
        let got = Engine::with_threads(threads).solve_spec(&spec).unwrap();
        assert_eq!(got, reference, "threads={threads}");
        assert_eq!(
            got.system.availability.to_bits(),
            reference.system.availability.to_bits(),
            "threads={threads}"
        );
    }
}
