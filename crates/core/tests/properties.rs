//! Randomized property tests for the Model Generator.
//!
//! Each property runs over `CASES` blocks drawn from a seeded `StdRng`,
//! so every run checks the same cases and a failure names the seed that
//! reproduces it. A shrunk counterexample found by an earlier random
//! search is kept as a named fixed-input case.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rascad_core::generator::generate_block;
use rascad_core::measures::steady_state_measures;
use rascad_markov::SteadyStateMethod;
use rascad_spec::units::{Fit, Hours, Minutes};
use rascad_spec::{BlockParams, GlobalParams, RedundancyParams, Scenario};

const CASES: u64 = 256;

/// Uniform draw from `[lo, hi)`.
fn uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.gen::<f64>()
}

/// A random block: `K` in 1–3, `N − K` in 0–3, every rate and
/// probability drawn from its engineering range, either scenario.
fn arb_block(rng: &mut StdRng) -> BlockParams {
    let scenario = |rng: &mut StdRng| {
        if rng.gen::<bool>() {
            Scenario::Transparent
        } else {
            Scenario::Nontransparent
        }
    };
    let k = 1 + rng.gen::<u32>() % 3;
    let n = k + rng.gen::<u32>() % 4;
    let p = BlockParams::new("P", n, k)
        .with_mtbf(Hours(uniform(rng, 1_000.0, 1e7)))
        .with_transient_fit(Fit(uniform(rng, 0.0, 50_000.0)))
        .with_mttr_parts(
            Minutes(uniform(rng, 0.0, 120.0)),
            Minutes(uniform(rng, 1.0, 120.0)),
            Minutes(uniform(rng, 0.0, 60.0)),
        )
        .with_service_response(Hours(uniform(rng, 0.0, 48.0)))
        .with_p_correct_diagnosis(uniform(rng, 0.5, 1.0));
    let redundancy = RedundancyParams {
        p_latent_fault: uniform(rng, 0.0, 0.5),
        mttdlf: Hours(uniform(rng, 1.0, 720.0)),
        recovery: scenario(rng),
        failover_time: Minutes(uniform(rng, 0.0, 60.0)),
        p_spf: uniform(rng, 0.0, 0.2),
        spf_recovery_time: Minutes(uniform(rng, 0.0, 120.0)),
        repair: scenario(rng),
        reintegration_time: Minutes(uniform(rng, 0.0, 60.0)),
    };
    BlockParams { redundancy: (n > k).then_some(redundancy), ..p }
}

/// Every generated chain builds, is irreducible, and yields an
/// availability in (0, 1].
fn check_well_formed(case: &str, p: &BlockParams) {
    let g = GlobalParams::default();
    let model = generate_block(p, &g).unwrap();
    // Ok is state 0, up states include it.
    assert_eq!(model.chain.states()[0].label.as_str(), "Ok", "{case}");
    let m = steady_state_measures(&model, SteadyStateMethod::Gth).unwrap();
    assert!(m.availability > 0.0 && m.availability <= 1.0, "{case}: a={}", m.availability);
    assert!(m.failure_rate >= 0.0, "{case}: failure rate {}", m.failure_rate);
    assert!(m.yearly_downtime_minutes >= 0.0, "{case}: downtime {}", m.yearly_downtime_minutes);
}

/// The two independent steady-state solvers agree far inside the
/// paper's 0.2% validation threshold.
fn check_gth_and_lu_agree(case: &str, p: &BlockParams) {
    let g = GlobalParams::default();
    let model = generate_block(p, &g).unwrap();
    let a = steady_state_measures(&model, SteadyStateMethod::Gth).unwrap();
    let b = steady_state_measures(&model, SteadyStateMethod::Lu).unwrap();
    if a.yearly_downtime_minutes > 1e-9 {
        let rel = (a.yearly_downtime_minutes - b.yearly_downtime_minutes).abs()
            / a.yearly_downtime_minutes;
        assert!(rel < 0.002, "{case}: relative downtime error {rel}");
    }
}

/// Improving MTBF by `factor` can only improve availability.
fn check_monotone_in_mtbf(case: &str, p: &BlockParams, factor: f64) {
    let g = GlobalParams::default();
    let base =
        steady_state_measures(&generate_block(p, &g).unwrap(), SteadyStateMethod::Gth).unwrap();
    let mut better = p.clone();
    better.mtbf = Hours(p.mtbf.0 * factor);
    let improved =
        steady_state_measures(&generate_block(&better, &g).unwrap(), SteadyStateMethod::Gth)
            .unwrap();
    assert!(
        improved.availability >= base.availability - 1e-12,
        "{case}: {} -> {}",
        base.availability,
        improved.availability
    );
}

/// Adding a spare (same K, larger N) never hurts availability when
/// recovery/repair are transparent and diagnosis is perfect. (With
/// imperfect diagnosis a spare can legitimately *hurt*: more components
/// mean more repair actions and therefore more service-error downtime —
/// a real trade-off RAScad exposes.)
fn check_spares_help(case: &str, p: &BlockParams) {
    let mut p = p.clone().with_p_correct_diagnosis(1.0);
    let mut r = p.redundancy.expect("a redundant block");
    r.recovery = Scenario::Transparent;
    r.repair = Scenario::Transparent;
    r.p_spf = 0.0;
    r.p_latent_fault = 0.0;
    p.redundancy = Some(r);
    let g = GlobalParams::default();
    let base =
        steady_state_measures(&generate_block(&p, &g).unwrap(), SteadyStateMethod::Gth).unwrap();
    let mut more = p.clone();
    more.quantity += 1;
    let better =
        steady_state_measures(&generate_block(&more, &g).unwrap(), SteadyStateMethod::Gth).unwrap();
    assert!(
        better.availability >= base.availability - 1e-12,
        "{case}: {} -> {}",
        base.availability,
        better.availability
    );
}

/// State count depends only on (N, K, scenarios, which probabilities
/// are nonzero), never on the magnitudes of rates — generation is
/// structural.
fn check_state_count_is_structural(case: &str, p: &BlockParams, mtbf2: f64) {
    let g = GlobalParams::default();
    let a = generate_block(p, &g).unwrap();
    let mut q = p.clone();
    q.mtbf = Hours(mtbf2);
    let b = generate_block(&q, &g).unwrap();
    assert_eq!(a.state_count(), b.state_count(), "{case}");
    assert_eq!(a.transition_count(), b.transition_count(), "{case}");
}

#[test]
fn generated_chain_is_well_formed() {
    for seed in 0..CASES {
        check_well_formed(&format!("seed {seed}"), &arb_block(&mut StdRng::seed_from_u64(seed)));
    }
}

#[test]
fn gth_and_lu_agree() {
    for seed in 0..CASES {
        let p = arb_block(&mut StdRng::seed_from_u64(seed));
        check_gth_and_lu_agree(&format!("seed {seed}"), &p);
    }
}

#[test]
fn availability_monotone_in_mtbf() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = arb_block(&mut rng);
        check_monotone_in_mtbf(&format!("seed {seed}"), &p, uniform(&mut rng, 1.5, 100.0));
    }
}

#[test]
fn spares_help_under_transparent_recovery() {
    for seed in 0..CASES {
        // Only redundant blocks have a spare to add: redraw until one is.
        let mut rng = StdRng::seed_from_u64(seed);
        let p = loop {
            let p = arb_block(&mut rng);
            if p.is_redundant() {
                break p;
            }
        };
        check_spares_help(&format!("seed {seed}"), &p);
    }
}

#[test]
fn state_count_is_structural() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = arb_block(&mut rng);
        check_state_count_is_structural(
            &format!("seed {seed}"),
            &p,
            uniform(&mut rng, 1_000.0, 1e7),
        );
    }
}

/// The shrunk counterexample an earlier random search recorded: a
/// 2-of-1 block at MTBF 1000 h whose diagnosis is a coin flip
/// (`Pcd = 0.5`), everything else transparent and instant. Here a third
/// unit lowers availability, which is why the spares property fixes
/// `Pcd = 1`. The block also runs through every property above.
#[test]
fn regression_two_of_one_block_with_coin_flip_diagnosis() {
    let p = BlockParams::new("P", 2, 1)
        .with_mtbf(Hours(1000.0))
        .with_mttr_parts(Minutes(0.0), Minutes(1.0), Minutes(0.0))
        .with_service_response(Hours(0.0))
        .with_p_correct_diagnosis(0.5)
        .with_redundancy(RedundancyParams {
            p_latent_fault: 0.0,
            mttdlf: Hours(1.0),
            recovery: Scenario::Transparent,
            failover_time: Minutes(0.0),
            p_spf: 0.0,
            spf_recovery_time: Minutes(0.0),
            repair: Scenario::Transparent,
            reintegration_time: Minutes(0.0),
        });
    let case = "regression: 2-of-1, MTBF 1000 h, Pcd 0.5";
    let g = GlobalParams::default();
    let availability = |p: &BlockParams| {
        steady_state_measures(&generate_block(p, &g).unwrap(), SteadyStateMethod::Gth)
            .unwrap()
            .availability
    };
    let three = BlockParams { quantity: 3, ..p.clone() };
    assert!(availability(&three) < availability(&p), "{case}: the spare should hurt");
    check_well_formed(case, &p);
    check_gth_and_lu_agree(case, &p);
    check_monotone_in_mtbf(case, &p, 1.5);
    check_spares_help(case, &p);
    check_state_count_is_structural(case, &p, 1e7);
}
