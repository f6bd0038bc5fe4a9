//! Cross-validation integration tests — the paper's Section 5 claims as
//! executable assertions.
//!
//! Three independent solution paths must agree on every reference
//! model:
//!
//! 1. MG pipeline + GTH,
//! 2. MG pipeline + dense LU (independent numerics),
//! 3. hand-built GMB models / Monte-Carlo simulation (independent
//!    modeling paths).

use rascad::core::hierarchy::solve_spec_with;
use rascad::core::{solve_block, solve_spec};
use rascad::gmb::{MarkovSpec, ModelRegistry, RbdSpec, Value};
use rascad::library::{cluster, datacenter, e10000};
use rascad::markov::SteadyStateMethod;
use rascad::sim::system_sim::{simulate_system, SystemSimOptions};
use rascad::spec::units::{Hours, Minutes};
use rascad::spec::{BlockParams, Diagram, GlobalParams, Scenario, SystemSpec};
use rascad_bench::{redundant_block, type0_block, type3_block};

/// The paper's validation bar: relative error in yearly downtime below
/// 0.2 %.
const PAPER_BAR: f64 = 0.002;

fn reference_specs() -> Vec<(&'static str, SystemSpec)> {
    let single = |p| {
        let mut d = Diagram::new("Single");
        d.push(p);
        SystemSpec::new(d, GlobalParams::default())
    };
    vec![
        ("type0-block", single(type0_block())),
        ("type3-block", single(type3_block())),
        (
            "type4-n4k2",
            single(redundant_block(4, 2, Scenario::Nontransparent, Scenario::Nontransparent)),
        ),
        ("cluster", cluster::two_node_cluster(cluster::ClusterConfig::default())),
        ("datacenter", datacenter::data_center()),
        ("e10000", e10000::e10000()),
    ]
}

#[test]
fn gth_and_lu_agree_within_paper_bar_on_all_reference_models() {
    for (name, spec) in reference_specs() {
        let gth = solve_spec_with(&spec, SteadyStateMethod::Gth).unwrap();
        let lu = solve_spec_with(&spec, SteadyStateMethod::Lu).unwrap();
        let rel = (gth.system.yearly_downtime_minutes - lu.system.yearly_downtime_minutes).abs()
            / gth.system.yearly_downtime_minutes;
        assert!(rel < PAPER_BAR, "{name}: relative error {rel}");
    }
}

#[test]
fn three_numeric_methods_agree_on_the_cluster_chain() {
    // GTH (direct, subtraction-free), LU (direct, pivoted), and power
    // iteration (on the uniformized DTMC) are three fully
    // independent numerical paths; on a well-conditioned chain they
    // must agree far below the paper's bar.
    let spec = cluster::two_node_cluster(cluster::ClusterConfig::default());
    let node = spec.root.find("Cluster Node").unwrap();
    let model = rascad::core::generator::generate_block(&node.params, &spec.globals).unwrap();
    let mut values = Vec::new();
    for method in [SteadyStateMethod::Gth, SteadyStateMethod::Lu, SteadyStateMethod::Power] {
        let pi = model.chain.steady_state(method).unwrap();
        values.push(model.chain.expected_reward(&pi));
    }
    for v in &values[1..] {
        let rel = (v - values[0]).abs() / (1.0 - values[0]);
        assert!(rel < PAPER_BAR, "methods disagree: {values:?}");
    }
}

#[test]
fn simulation_confirms_analytic_availability() {
    for (name, spec) in reference_specs() {
        let analytic = solve_spec(&spec).unwrap().system.availability;
        let sim = simulate_system(
            &spec,
            &SystemSimOptions {
                horizon_hours: 30_000.0,
                replications: 24,
                seed: 0xda7a,
                deterministic_repairs: false,
            },
        )
        .unwrap();
        let est = sim.availability;
        assert!(
            (est.mean - analytic).abs() <= 4.0 * est.ci_half_width.max(1e-6),
            "{name}: sim {} ± {} vs analytic {analytic}",
            est.mean,
            est.ci_half_width
        );
    }
}

/// Builds an MG model through the Model Generator and the *same*
/// mathematical model by hand through GMB; both must give the same
/// availability to solver precision.
#[test]
fn mg_and_hand_built_gmb_model_agree_exactly() {
    // MG path: a non-redundant block with perfect diagnosis and no
    // transients (an alternating renewal process).
    let params = BlockParams::new("Box", 1, 1)
        .with_mtbf(Hours(12_000.0))
        .with_mttr_parts(Minutes(30.0), Minutes(60.0), Minutes(30.0))
        .with_service_response(Hours(6.0))
        .with_p_correct_diagnosis(1.0);
    let (_, mg) = solve_block(&params, &GlobalParams::default()).unwrap();

    // GMB path: the analyst draws Ok -> Waiting -> Repair -> Ok by hand.
    let mut reg = ModelRegistry::new();
    let mut m = MarkovSpec::new();
    let ok = m.state("Ok", 1.0);
    let waiting = m.state("Waiting", 0.0);
    let repair = m.state("Repair", 0.0);
    m.transition(ok, waiting, Value::constant(1.0 / 12_000.0));
    m.transition(waiting, repair, Value::constant(1.0 / 6.0));
    m.transition(repair, ok, Value::constant(1.0 / 2.0));
    reg.add_markov("box", m).unwrap();
    let gmb = reg.availability("box").unwrap();

    assert!((mg.availability - gmb).abs() < 1e-12, "{} vs {gmb}", mg.availability);
}

/// A redundant MG block cross-checked against a GMB RBD-over-Markov
/// hierarchy approximating it as independent units. The structures
/// differ (MG models shared repair paths), so this is a sanity bound,
/// not an equality: the RBD view must be at least as optimistic.
#[test]
fn mg_redundant_block_bounded_by_independent_rbd() {
    let mut params = BlockParams::new("Pair", 2, 1)
        .with_mtbf(Hours(5_000.0))
        .with_mttr_parts(Minutes(30.0), Minutes(60.0), Minutes(30.0))
        .with_service_response(Hours(4.0))
        .with_p_correct_diagnosis(1.0);
    // Simplest scenario: everything transparent, no latent/SPF effects.
    params.redundancy = Some(rascad::spec::RedundancyParams {
        p_latent_fault: 0.0,
        p_spf: 0.0,
        ..Default::default()
    });
    let g = GlobalParams::default();
    let (_, mg) = solve_block(&params, &g).unwrap();

    // GMB: two independent units, each an alternating renewal with the
    // *scheduled* repair cycle, 1-of-2.
    let unit_up = 5_000.0;
    let unit_down = g.mttm.0 + 4.0 + 2.0; // MTTM + Tresp + MTTR
    let a_unit = unit_up / (unit_up + unit_down);
    let mut reg = ModelRegistry::new();
    reg.add_rbd(
        "pair",
        RbdSpec::parallel(vec![
            RbdSpec::leaf(Value::constant(a_unit)),
            RbdSpec::leaf(Value::constant(a_unit)),
        ]),
    )
    .unwrap();
    let rbd = reg.availability("pair").unwrap();

    // The two views differ in both directions: MG serializes repairs
    // (pessimistic) but places an *immediate* service call once the
    // system is down (optimistic), whereas the independent-RBD view
    // repairs both units on the slow scheduled cycle. MG therefore comes
    // out more available here, and the unavailabilities must agree
    // within an order of magnitude.
    let u_mg = 1.0 - mg.availability;
    let u_rbd = 1.0 - rbd;
    assert!(u_mg < u_rbd, "immediate down-state service should win: {u_mg} vs {u_rbd}");
    assert!(u_rbd / u_mg < 30.0, "u_mg {u_mg} vs u_rbd {u_rbd}");
}

#[test]
fn simulated_outage_frequency_matches_analytic_failure_rate() {
    // The serial-composition failure rate f_sys = Σ f_i Π_{j≠i} A_j is
    // checked against the outage count of long simulations.
    let spec = cluster::two_node_cluster(cluster::ClusterConfig::default());
    let analytic = solve_spec(&spec).unwrap().system.failure_rate;
    let mut rates = Vec::new();
    for seed in 0..12u64 {
        let sim = simulate_system(
            &spec,
            &SystemSimOptions {
                horizon_hours: 50_000.0,
                replications: 1,
                seed: 1000 + seed,
                deterministic_repairs: false,
            },
        )
        .unwrap();
        #[allow(clippy::cast_precision_loss)] // outage counts stay far below 2^52
        rates.push(sim.example_log.outage_count() as f64 / 50_000.0);
    }
    let est = rascad::sim::Estimate::from_samples(&rates);
    assert!(
        (est.mean - analytic).abs() <= 4.0 * est.ci_half_width.max(analytic * 0.02),
        "simulated outage rate {} ± {} vs analytic {analytic}",
        est.mean,
        est.ci_half_width
    );
}

#[test]
fn deterministic_repair_field_data_matches_exponential_model() {
    // Availability is insensitive to the repair-time distribution
    // (means only): deterministic-repair simulation must agree with the
    // exponential analytic model.
    let spec = cluster::two_node_cluster(cluster::ClusterConfig::default());
    let analytic = solve_spec(&spec).unwrap().system.availability;
    let sim = simulate_system(
        &spec,
        &SystemSimOptions {
            horizon_hours: 60_000.0,
            replications: 24,
            seed: 31,
            deterministic_repairs: true,
        },
    )
    .unwrap();
    let est = sim.availability;
    assert!(
        (est.mean - analytic).abs() <= 4.0 * est.ci_half_width.max(1e-6),
        "sim {} ± {} vs analytic {analytic}",
        est.mean,
        est.ci_half_width
    );
}

#[test]
fn hierarchy_equals_flat_model() {
    // A hierarchical spec (blocks behind a perfect enclosure) must give
    // the same result as the flattened spec.
    let mk_block = |name: &str| {
        BlockParams::new(name, 1, 1)
            .with_mtbf(Hours(20_000.0))
            .with_mttr_parts(Minutes(60.0), Minutes(0.0), Minutes(0.0))
            .with_service_response(Hours(0.0))
    };
    let mut flat = Diagram::new("Flat");
    flat.push(mk_block("A"));
    flat.push(mk_block("B"));
    let flat_spec = SystemSpec::new(flat, GlobalParams::default());

    let mut inner = Diagram::new("Inner");
    inner.push(mk_block("A"));
    inner.push(mk_block("B"));
    let mut nested = Diagram::new("Nested");
    nested.push_block(rascad::spec::Block::with_subdiagram(
        BlockParams::new("Enclosure", 1, 1).with_mtbf(Hours(1e15)),
        inner,
    ));
    let nested_spec = SystemSpec::new(nested, GlobalParams::default());

    let a_flat = solve_spec(&flat_spec).unwrap().system.availability;
    let a_nested = solve_spec(&nested_spec).unwrap().system.availability;
    // The enclosure contributes ~1e-15 unavailability; equality to 1e-9
    // is the point.
    assert!((a_flat - a_nested).abs() < 1e-9, "{a_flat} vs {a_nested}");
}
