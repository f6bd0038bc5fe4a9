//! Chaos suite: every deterministic fault the `rascad-fault` plan can
//! inject must surface as a *typed* error in strict mode, roll up as an
//! explicit [`FailedBlock`] in best-effort mode, and leave every
//! uninjected block bit-identical to a clean run — at any thread count.
//!
//! Requires the `fault-inject` feature (see `[[test]]` in Cargo.toml).

use rascad_core::{BlockOutcome, CoreError, Engine, EngineError, FailedBlock, SystemSolution};
use rascad_fault::{FaultKind, FaultPlan, PlanGuard};
use rascad_markov::{MarkovError, SteadyStateMethod};
use rascad_spec::units::Hours;
use rascad_spec::{Block, BlockParams, Diagram, GlobalParams, SystemSpec};
use std::sync::Mutex;

/// The fault registry is process-global, so tests that install plans
/// must not interleave.
static PLAN_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    PLAN_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Root "Sys" with leaves A, B and a "Box" enclosing sub-block "CPU".
fn spec() -> SystemSpec {
    let mut sub = Diagram::new("Internals");
    sub.push(BlockParams::new("CPU", 2, 1).with_mtbf(Hours(50_000.0)));
    let mut root = Diagram::new("Sys");
    root.push(BlockParams::new("A", 1, 1).with_mtbf(Hours(10_000.0)));
    root.push(BlockParams::new("B", 2, 1).with_mtbf(Hours(20_000.0)));
    root.push_block(Block::with_subdiagram(
        BlockParams::new("Box", 1, 1).with_mtbf(Hours(1_000_000.0)),
        sub,
    ));
    SystemSpec::new(root, GlobalParams::default())
}

fn surviving_blocks_match(degraded: &SystemSolution, clean: &SystemSolution) {
    for b in &degraded.blocks {
        let reference = clean.block(&b.path).expect("clean run has every block");
        assert_eq!(b.measures, reference.measures, "block {} diverged", b.path);
        // The summary carries the chain's fingerprint, so equal
        // summaries mean the same generated chain.
        assert_eq!(b.model, reference.model, "model summary {} diverged", b.path);
        assert_eq!(b.certificate, reference.certificate, "certificate {} diverged", b.path);
    }
}

#[test]
#[allow(clippy::float_cmp)] // exact equality asserts deterministic arithmetic
fn panic_is_isolated_typed_and_rolls_up_best_effort() {
    let _l = lock();
    let s = spec();
    let clean = Engine::sequential().solve_spec(&s).unwrap();
    let _g = PlanGuard::install(FaultPlan::single("Sys/B", FaultKind::Panic));

    // Strict: the panic is caught at the item boundary and surfaces as
    // a typed engine error, not a process abort.
    let engine = Engine::with_threads(4);
    let err = engine.solve_spec(&s).unwrap_err();
    match &err {
        CoreError::Engine(EngineError::WorkerPanicked { path, message }) => {
            assert_eq!(path, "Sys/B");
            assert!(message.contains("injected fault"), "{message}");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }

    // Best-effort: explicit failure leaf, surviving blocks bit-identical.
    let sol = engine.solve_spec_best_effort(&s, SteadyStateMethod::Gth).unwrap();
    assert!(sol.is_degraded());
    assert_eq!(sol.failed.len(), 1);
    assert_eq!(sol.failed[0].path, "Sys/B");
    assert_eq!(sol.blocks.len(), clean.blocks.len() - 1);
    surviving_blocks_match(&sol, &clean);

    // Optimistic roll-up: the failed block contributes availability 1.
    let expected: f64 = clean
        .blocks
        .iter()
        .filter(|b| b.level == 1 && b.path != "Sys/B")
        .map(|b| b.combined_availability)
        .product();
    assert_eq!(sol.system.availability, expected);
    let (lo, hi) = sol.availability_bounds();
    assert_eq!(lo, 0.0);
    assert_eq!(hi, sol.system.availability);

    // The injection actually fired (and only where planned).
    let fired = rascad_fault::fired();
    assert!(fired.iter().all(|(p, k)| p == "Sys/B" && *k == FaultKind::Panic), "{fired:?}");
    assert!(!fired.is_empty());
}

#[test]
fn not_converged_fault_is_a_typed_singular_under_either_method() {
    let _l = lock();
    let s = spec();
    let _g = PlanGuard::install(FaultPlan::single("Sys/A", FaultKind::NotConverged));
    // The plan kind keeps its name (plan files are outside input); it
    // fails the block's one steady solve with `Singular`, and nothing
    // falls through to another method.
    for method in [SteadyStateMethod::Gth, SteadyStateMethod::Lu] {
        let err = Engine::sequential().solve_spec_with(&s, method).unwrap_err();
        match &err {
            CoreError::Markov { block, source: MarkovError::Singular } => assert_eq!(block, "A"),
            other => panic!("{method:?}: expected Singular, got {other:?}"),
        }
    }
}

#[test]
fn timeout_fault_is_typed_and_spends_no_wall_clock() {
    let _l = lock();
    let s = spec();
    let _g = PlanGuard::install(FaultPlan::single("Sys/Box/CPU", FaultKind::Timeout));
    let t0 = std::time::Instant::now();
    let err = Engine::sequential().solve_spec_with(&s, SteadyStateMethod::Lu).unwrap_err();
    assert!(t0.elapsed() < std::time::Duration::from_secs(10));
    match &err {
        CoreError::Markov { block, source: MarkovError::Timeout { method: "lu", .. } } => {
            assert_eq!(block, "CPU");
        }
        other => panic!("expected an LU Timeout, got {other:?}"),
    }
}

#[test]
fn nan_rate_fault_is_caught_by_residual_certification() {
    let _l = lock();
    let s = spec();
    let _g = PlanGuard::install(FaultPlan::single("Sys/A", FaultKind::NanRate));

    // The solver itself succeeds (the corruption happens after it), so
    // only the independent residual check stands between the NaN and
    // the report. Strict mode: a typed certification error, never a
    // silent number.
    let err = Engine::sequential().solve_spec(&s).unwrap_err();
    match &err {
        CoreError::Certification { block, residual, prob_mass_error } => {
            assert_eq!(block, "A");
            assert!(residual.is_nan() || prob_mass_error.is_nan(), "{err}");
        }
        other => panic!("expected Certification, got {other:?}"),
    }

    // Best-effort mode: an explicit fail-verdict FailedBlock leaf.
    let sol = Engine::sequential().solve_spec_best_effort(&s, SteadyStateMethod::Gth).unwrap();
    assert_eq!(sol.failed.len(), 1);
    assert_eq!(sol.failed[0].path, "Sys/A");
    assert!(
        matches!(sol.failed[0].error, CoreError::Certification { .. }),
        "{:?}",
        sol.failed[0].error
    );
}

#[test]
fn uninjected_blocks_are_bit_identical_at_any_thread_count() {
    let _l = lock();
    let s = spec();
    let clean = Engine::sequential().solve_spec(&s).unwrap();
    for kind in [FaultKind::Panic, FaultKind::NotConverged, FaultKind::NanRate, FaultKind::Timeout]
    {
        for threads in [1, 8] {
            let _g = PlanGuard::install(FaultPlan::single("Sys/B", kind));
            let sol = Engine::with_threads(threads)
                .solve_spec_best_effort(&s, SteadyStateMethod::Gth)
                .unwrap();
            assert_eq!(sol.failed.len(), 1, "kind {kind:?} threads {threads}");
            assert_eq!(sol.failed[0].path, "Sys/B");
            surviving_blocks_match(&sol, &clean);
        }
    }
}

#[test]
fn degraded_subdiagram_rolls_up_under_a_failed_enclosure() {
    let _l = lock();
    let s = spec();
    let clean = Engine::sequential().solve_spec(&s).unwrap();
    // Fail the enclosure; its CPU sub-block must still solve and count.
    let _g = PlanGuard::install(FaultPlan::single("Sys/Box", FaultKind::Panic));
    let sol = Engine::sequential().solve_spec_best_effort(&s, SteadyStateMethod::Gth).unwrap();
    assert_eq!(sol.failed.len(), 1);
    assert!(sol.block("Sys/Box/CPU").is_some());
    let expected = clean.block("Sys/A").unwrap().measures.availability
        * clean.block("Sys/B").unwrap().measures.availability
        * clean.block("Sys/Box/CPU").unwrap().measures.availability;
    assert!((sol.system.availability - expected).abs() < 1e-15);

    // outcomes() interleaves the failure leaf at its walk position.
    let outcomes = sol.outcomes();
    assert_eq!(outcomes.len(), 4);
    let paths: Vec<&str> = outcomes
        .iter()
        .map(|o| match o {
            BlockOutcome::Solved(b) => b.path.as_str(),
            BlockOutcome::Failed(f) => f.path.as_str(),
        })
        .collect();
    assert_eq!(paths, ["Sys/A", "Sys/B", "Sys/Box", "Sys/Box/CPU"]);
    assert!(matches!(outcomes[2], BlockOutcome::Failed(_)));
}

#[test]
fn injected_blocks_bypass_the_cache_and_panic_generations_are_dropped() {
    let _l = lock();
    let s = spec();
    let engine = Engine::with_threads(2);

    // Populate the cache with the clean chains.
    let clean = engine.solve_spec(&s).unwrap();
    assert!(engine.cache_stats().entries > 0);

    // A solver fault on a block whose identical chain IS cached must
    // still fire: injected blocks skip the cache read.
    {
        let _g = PlanGuard::install(FaultPlan::single("Sys/A", FaultKind::NotConverged));
        let sol = engine.solve_spec_best_effort(&s, SteadyStateMethod::Gth).unwrap();
        assert_eq!(sol.failed.len(), 1, "cached chain must not mask the injected fault");
        assert_eq!(sol.failed[0].path, "Sys/A");
    }

    // A panic evicts only entries inserted by the panicked batch: the
    // warm entries from the earlier clean generation survive untouched.
    let warm = engine.cache_stats().entries;
    {
        let _g = PlanGuard::install(FaultPlan::single("Sys/B", FaultKind::Panic));
        let _ = engine.solve_spec_best_effort(&s, SteadyStateMethod::Gth).unwrap();
    }
    assert_eq!(
        engine.cache_stats().entries,
        warm,
        "warm generations must survive a later batch's panic"
    );

    // A fresh engine panicking on its very first batch keeps nothing:
    // everything it inserted shares the panicked generation.
    let fresh = Engine::with_threads(2);
    {
        let _g = PlanGuard::install(FaultPlan::single("Sys/B", FaultKind::Panic));
        let _ = fresh.solve_spec_best_effort(&s, SteadyStateMethod::Gth).unwrap();
    }
    assert_eq!(fresh.cache_stats().entries, 0, "panicked batch's own inserts must be dropped");

    // And the next clean solve still reproduces the reference exactly.
    let again = engine.solve_spec(&s).unwrap();
    assert_eq!(again, clean);
}

#[test]
fn delay_fault_stalls_the_worker_but_never_changes_the_numbers() {
    let _l = lock();
    let s = spec();
    let clean = Engine::sequential().solve_spec(&s).unwrap();

    let _g = PlanGuard::install(FaultPlan::single("Sys/B", FaultKind::Delay));
    let t0 = std::time::Instant::now();
    let sol = Engine::with_threads(4).solve_spec(&s).unwrap();
    // The seeded fallback delay is at least 10 ms; a stall is not a
    // failure, so the solve succeeds bit-identically to the clean run.
    assert!(t0.elapsed() >= std::time::Duration::from_millis(10));
    assert_eq!(sol, clean);

    let fired = rascad_fault::fired();
    assert!(fired.iter().any(|(p, k)| p == "Sys/B" && *k == FaultKind::Delay), "{fired:?}");
}

#[test]
fn failed_block_is_well_formed() {
    let _l = lock();
    let s = spec();
    let _g = PlanGuard::install(FaultPlan::single("Sys/A", FaultKind::Panic));
    let sol = Engine::sequential().solve_spec_best_effort(&s, SteadyStateMethod::Gth).unwrap();
    let f: &FailedBlock = &sol.failed[0];
    assert_eq!((f.path.as_str(), f.level, f.walk_index), ("Sys/A", 1, 0));
    assert!(f.error.to_string().contains("panicked"), "{}", f.error);
}
