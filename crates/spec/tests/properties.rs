//! Randomized property tests for the spec crate: DSL round-trips and
//! validation invariants over randomly generated specifications.
//!
//! Each property runs over `CASES` specs drawn from a seeded `StdRng`,
//! so every run checks the same cases and a failure names the seed that
//! reproduces it. Two shrunk counterexamples found by an earlier random
//! search are kept as named fixed-input cases.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rascad_spec::units::{Fit, Hours, Minutes};
use rascad_spec::{
    Block, BlockParams, Diagram, GlobalParams, RedundancyParams, Scenario, SystemSpec,
};

const CASES: u64 = 256;

/// Uniform draw from `[lo, hi)`.
fn uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.gen::<f64>()
}

/// A random block: `K` in 1–5, `N − K` in 0–3, every parameter drawn
/// from its engineering range, redundancy parameters iff `N > K`.
fn arb_params(rng: &mut StdRng, name: String) -> BlockParams {
    let scenario = |rng: &mut StdRng| {
        if rng.gen::<bool>() {
            Scenario::Transparent
        } else {
            Scenario::Nontransparent
        }
    };
    let k = 1 + rng.gen::<u32>() % 5;
    let n = k + rng.gen::<u32>() % 4;
    let p = BlockParams::new(name, n, k)
        .with_mtbf(Hours(uniform(rng, 100.0, 1e7)))
        .with_transient_fit(Fit(uniform(rng, 0.0, 10_000.0)))
        .with_mttr_parts(
            Minutes(uniform(rng, 1.0, 120.0)),
            Minutes(uniform(rng, 0.0, 120.0)),
            Minutes(uniform(rng, 0.0, 60.0)),
        )
        .with_service_response(Hours(uniform(rng, 0.0, 48.0)))
        .with_p_correct_diagnosis(uniform(rng, 0.5, 1.0));
    let redundancy = RedundancyParams {
        p_latent_fault: uniform(rng, 0.0, 0.5),
        mttdlf: Hours(uniform(rng, 1.0, 1000.0)),
        recovery: scenario(rng),
        failover_time: Minutes(uniform(rng, 0.0, 60.0)),
        p_spf: uniform(rng, 0.0, 0.2),
        spf_recovery_time: Minutes(uniform(rng, 0.0, 120.0)),
        repair: scenario(rng),
        reintegration_time: Minutes(uniform(rng, 0.0, 60.0)),
    };
    BlockParams { redundancy: (n > k).then_some(redundancy), ..p }
}

/// A random spec: 1–4 top blocks, the first carrying a 1–3 block
/// subdiagram.
fn arb_spec(seed: u64) -> SystemSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let ntop = 1 + rng.gen::<u64>() % 4;
    let nsub = 1 + rng.gen::<u64>() % 3;
    let mut sub = Diagram::new("Subsystem");
    for i in 0..nsub {
        sub.push(arb_params(&mut rng, format!("Sub{i}")));
    }
    let mut root = Diagram::new("Root");
    root.push_block(Block::with_subdiagram(arb_params(&mut rng, "Top0".into()), sub));
    for i in 1..ntop {
        root.push(arb_params(&mut rng, format!("Top{i}")));
    }
    SystemSpec::new(root, GlobalParams::default())
}

/// Generated specs are valid by construction.
fn check_validates(case: &str, spec: &SystemSpec) {
    assert!(spec.validate().is_ok(), "{case}: {:?}", spec.validate());
}

/// DSL print -> parse is the identity.
fn check_dsl_roundtrip(case: &str, spec: &SystemSpec) {
    let text = spec.to_dsl();
    let back = SystemSpec::from_dsl(&text);
    assert!(back.is_ok(), "{case}: parse failed: {:?}\n{text}", back.err());
    assert_eq!(spec, &back.unwrap(), "{case}");
}

/// JSON round-trip is the identity.
fn check_json_roundtrip(case: &str, spec: &SystemSpec) {
    let json = spec.to_json().unwrap();
    let back = SystemSpec::from_json(&json).unwrap();
    assert_eq!(spec, &back, "{case}");
}

/// DSL and JSON agree after a full cycle through both.
fn check_dsl_and_json_compose(case: &str, spec: &SystemSpec) {
    let via_dsl = SystemSpec::from_dsl(&spec.to_dsl()).unwrap();
    let via_json = SystemSpec::from_json(&via_dsl.to_json().unwrap()).unwrap();
    assert_eq!(spec, &via_json, "{case}");
}

/// Derived rates are consistent with parameters.
fn check_derived_rates(case: &str, spec: &SystemSpec) {
    spec.root.walk(&mut |_, path, b| {
        let p = &b.params;
        assert!((p.permanent_rate() * p.mtbf.0 - 1.0).abs() < 1e-12, "{case}: {path}");
        assert!(p.transient_rate() >= 0.0, "{case}: {path}");
        assert!(p.mttr_total().0 > 0.0, "{case}: {path}");
    });
}

#[test]
fn generated_specs_validate() {
    for seed in 0..CASES {
        check_validates(&format!("seed {seed}"), &arb_spec(seed));
    }
}

#[test]
fn dsl_roundtrip() {
    for seed in 0..CASES {
        check_dsl_roundtrip(&format!("seed {seed}"), &arb_spec(seed));
    }
}

#[test]
fn json_roundtrip() {
    for seed in 0..CASES {
        check_json_roundtrip(&format!("seed {seed}"), &arb_spec(seed));
    }
}

#[test]
fn dsl_and_json_compose() {
    for seed in 0..CASES {
        check_dsl_and_json_compose(&format!("seed {seed}"), &arb_spec(seed));
    }
}

#[test]
fn derived_rates_consistent() {
    for seed in 0..CASES {
        check_derived_rates(&format!("seed {seed}"), &arb_spec(seed));
    }
}

/// The two shrunk counterexamples an earlier random search recorded:
/// minimal specs whose one odd value is a long-mantissa duration (a
/// reintegration time on a 2-of-1 block, and a verification time on a
/// non-redundant one) that a lossy number printer would not round-trip.
/// Each runs through every property above.
#[test]
fn regression_long_mantissa_durations_round_trip() {
    let minimal = |name: &str, n: u32| {
        BlockParams::new(name, n, 1)
            .with_mtbf(Hours(100.0))
            .with_mttr_parts(Minutes(1.0), Minutes(0.0), Minutes(0.0))
            .with_service_response(Hours(0.0))
            .with_p_correct_diagnosis(0.5)
    };
    let spec_with = |top: BlockParams| {
        let mut sub = Diagram::new("Subsystem");
        sub.push(minimal("Sub0", 1));
        let mut root = Diagram::new("Root");
        root.push_block(Block::with_subdiagram(top, sub));
        SystemSpec::new(root, GlobalParams::default())
    };
    let reintegration = minimal("Top0", 2).with_redundancy(RedundancyParams {
        p_latent_fault: 0.0,
        mttdlf: Hours(1.0),
        recovery: Scenario::Transparent,
        failover_time: Minutes(0.0),
        p_spf: 0.0,
        spf_recovery_time: Minutes(0.0),
        repair: Scenario::Transparent,
        reintegration_time: Minutes(31.024185018852748),
    });
    let mut verification = minimal("Top0", 1);
    verification.mttr_verification = Minutes(27.918133237068794);
    for (case, top) in [
        ("regression: reintegration time 31.024185018852748 min", reintegration),
        ("regression: verification time 27.918133237068794 min", verification),
    ] {
        let spec = spec_with(top);
        check_validates(case, &spec);
        check_dsl_roundtrip(case, &spec);
        check_json_roundtrip(case, &spec);
        check_dsl_and_json_compose(case, &spec);
        check_derived_rates(case, &spec);
    }
}
