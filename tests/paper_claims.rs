//! The paper's checkable claims, one test per claim — the executable
//! ledger behind EXPERIMENTS.md.

use rascad::core::generator::birth_death::BIRTH_DEATH_MIN_UNITS;
use rascad::core::generator::generate_block;
use rascad::core::hierarchy::solve_spec_with;
use rascad::core::measures::{interval_measures, reliability_measures, steady_state_measures};
use rascad::core::sweep::{lin_space, log_space, sweep};
use rascad::core::{ablate, solve_spec};
use rascad::library::datacenter::data_center;
use rascad::markov::SteadyStateMethod;
use rascad::spec::units::Hours;
use rascad::spec::{BlockParams, Diagram, GlobalParams, RedundancyParams, Scenario, SystemSpec};
use rascad_bench::{globals, redundant_block, type0_block, type3_block};

/// The four (recovery, repair) scenario combinations, in the paper's
/// Type 1–4 order.
const TYPES: [(Scenario, Scenario); 4] = [
    (Scenario::Transparent, Scenario::Transparent),
    (Scenario::Transparent, Scenario::Nontransparent),
    (Scenario::Nontransparent, Scenario::Transparent),
    (Scenario::Nontransparent, Scenario::Nontransparent),
];

/// §4: "The four Markov model types are determined by the four
/// combinations of the parameters Automatic Recovery Scenario and
/// Repair Scenario."
#[test]
fn claim_four_types_from_scenario_combinations() {
    let g = GlobalParams::default();
    let mut seen = std::collections::HashSet::new();
    for (rec, rep) in TYPES {
        let m = generate_block(&redundant_block(2, 1, rec, rep), &g).unwrap();
        assert!((1..=4).contains(&m.model_type));
        seen.insert(m.model_type);
    }
    assert_eq!(seen.len(), 4);
}

/// Figure 3: a non-redundant block gets the Type 0 chain — a permanent
/// fault waits for service, is repaired, and may detour through an
/// imperfect-diagnosis excursion; a transient fault reboots. Five
/// states, seven transitions.
#[test]
fn claim_figure3_type0_chain() {
    let m = generate_block(&type0_block(), &globals()).unwrap();
    assert_eq!(m.model_type, 0);
    let mut ours: Vec<_> = m.chain.states().iter().map(|s| s.label.as_str()).collect();
    ours.sort_unstable();
    assert_eq!(ours, ["Ok", "Reboot", "Repair", "ServiceError", "Waiting"]);
    assert_eq!(m.transition_count(), 7);
}

/// §4 / Figure 4: the Type 3 chain for N = 2, K = 1 has exactly the
/// nine states the paper names, and exactly the 19 transitions its
/// prose describes.
#[test]
fn claim_figure4_state_set() {
    let m = generate_block(&type3_block(), &globals()).unwrap();
    let mut ours: Vec<_> = m.chain.states().iter().map(|s| s.label.as_str()).collect();
    ours.sort_unstable();
    let mut paper = vec!["Ok", "TF1", "AR1", "SPF", "Latent1", "PF1", "TF2", "PF2", "ServiceError"];
    paper.sort_unstable();
    assert_eq!(ours, paper);

    let label = |s: usize| m.chain.states()[s].label.as_str();
    let mut edges: Vec<_> =
        m.chain.transitions().iter().map(|t| (label(t.from), label(t.to))).collect();
    edges.sort_unstable();
    let mut described = vec![
        ("Ok", "AR1"),
        ("Ok", "Latent1"),
        ("Ok", "TF1"),
        ("AR1", "PF1"),
        ("AR1", "SPF"),
        ("SPF", "PF1"),
        ("Latent1", "AR1"),
        ("Latent1", "PF2"),
        ("Latent1", "TF2"),
        ("TF1", "Ok"),
        ("TF1", "SPF"),
        ("TF2", "PF1"),
        ("TF2", "SPF"),
        ("PF1", "Ok"),
        ("PF1", "PF2"),
        ("PF1", "ServiceError"),
        ("PF1", "TF2"),
        ("PF2", "PF1"),
        ("ServiceError", "Ok"),
    ];
    described.sort_unstable();
    assert_eq!(edges, described);
}

/// §4: "the complexity of the model increases from type 1 to type 4",
/// at every margin the Type 1–4 templates cover.
#[test]
fn claim_complexity_ordering() {
    let g = GlobalParams::default();
    for n in 2..=BIRTH_DEATH_MIN_UNITS {
        let states: Vec<usize> = TYPES
            .iter()
            .map(|&(rec, rep)| {
                generate_block(&redundant_block(n, 1, rec, rep), &g).unwrap().state_count()
            })
            .collect();
        assert!(states[0] <= states[1] && states[1] <= states[3], "N = {n}: {states:?}");
        assert!(states[0] <= states[2] && states[2] <= states[3], "N = {n}: {states:?}");
        assert!(states[0] < states[3], "N = {n}: {states:?}");
    }
}

/// §4: "if N − K > 1, states TF1, AR1, PF1 and Latent1 will be repeated
/// in the model" — and they are generated automatically for larger N/K.
#[test]
fn claim_states_replicate_with_margin() {
    let g = GlobalParams::default();
    let m =
        generate_block(&redundant_block(5, 2, Scenario::Nontransparent, Scenario::Transparent), &g)
            .unwrap();
    for level in 1..=3 {
        for prefix in ["TF", "AR", "PF", "Latent"] {
            let label = format!("{prefix}{level}");
            assert!(m.chain.state_by_label(&label).is_some(), "missing {label}");
        }
    }
}

/// §4: "for larger N and K values, more states are needed and these
/// states are all generated automatically". Up to
/// `BIRTH_DEATH_MIN_UNITS` units the size of a Type 1–4 template
/// depends on the margin N − K alone and grows by a fixed number of
/// states and transitions per margin level. Larger blocks take the
/// birth–death chain of N + 1 occupancy levels, whatever their type.
#[test]
fn claim_model_size_grows_linearly_with_margin() {
    let g = globals();
    let size = |n, k, (rec, rep)| {
        let m = generate_block(&redundant_block(n, k, rec, rep), &g).unwrap();
        (m.state_count(), m.transition_count())
    };
    for ty in TYPES {
        // Margins 1, 2, … at K = 1.
        let sizes: Vec<_> = (2..=BIRTH_DEATH_MIN_UNITS).map(|n| size(n, 1, ty)).collect();
        assert_eq!(size(3, 2, ty), sizes[0], "{ty:?}: margin 1 at K = 2");
        assert_eq!(size(8, 4, ty), sizes[3], "{ty:?}: margin 4 at K = 4");
        let step = (sizes[1].0 - sizes[0].0, sizes[1].1 - sizes[0].1);
        for w in sizes.windows(2) {
            assert_eq!((w[1].0 - w[0].0, w[1].1 - w[0].1), step, "{ty:?}: {w:?}");
        }
        for (n, k) in [(9, 1), (16, 8), (32, 16), (32, 1)] {
            assert_eq!(size(n, k, ty).0, n as usize + 1, "{ty:?}: N = {n}, K = {k}");
        }
    }
}

/// §4: "The system availability of an MG diagram containing n blocks is
/// the product of individual block availability."
#[test]
fn claim_diagram_availability_is_product() {
    let sol = solve_spec(&data_center()).unwrap();
    let product: f64 =
        sol.blocks.iter().filter(|b| b.level == 1).map(|b| b.combined_availability).product();
    assert!((sol.system.availability - product).abs() < 1e-12);
}

/// §5: "the relative errors in yearly downtime are all less than 0.2%"
/// across independent solvers, for the data-center example model.
#[test]
fn claim_cross_solver_error_below_02_percent() {
    let spec = data_center();
    let gth = solve_spec_with(&spec, SteadyStateMethod::Gth).unwrap();
    let lu = solve_spec_with(&spec, SteadyStateMethod::Lu).unwrap();
    let rel = (gth.system.yearly_downtime_minutes - lu.system.yearly_downtime_minutes).abs()
        / gth.system.yearly_downtime_minutes;
    assert!(rel < 0.002, "relative error {rel}");
}

/// §2: the level of detail is the FRU — quantity scales the failure
/// rate linearly for non-redundant blocks.
#[test]
fn claim_fru_quantity_scales_rates() {
    let g = GlobalParams::default();
    let one = BlockParams::new("X", 1, 1).with_mtbf(Hours(50_000.0));
    let four = BlockParams::new("X", 4, 4).with_mtbf(Hours(50_000.0));
    let (m1, b1) = rascad::core::solve_block(&one, &g).unwrap();
    let (m4, b4) = rascad::core::solve_block(&four, &g).unwrap();
    assert_eq!(m1.state_count(), m4.state_count());
    let ratio = b4.unavailability / b1.unavailability;
    assert!((ratio - 4.0).abs() < 0.05, "ratio {ratio}");
}

/// §3: redundancy parameters "are relevant only if Quantity is greater
/// than Minimum Quantity Required" — enforced by validation.
#[test]
fn claim_redundancy_relevance_rule() {
    let mut p = BlockParams::new("X", 1, 1);
    p.redundancy = Some(RedundancyParams::default());
    let mut d = Diagram::new("Sys");
    d.push(p);
    let spec = SystemSpec::new(d, GlobalParams::default());
    assert!(spec.validate().is_err());
}

/// §4's measure list on the Type 3 reference block: steady-state
/// availability and rates; interval availability over (0, T) that
/// falls toward the steady value as T grows, with point availability
/// settled by T = 720 h; and the reliability measures, whose hazard at
/// a one-year mission matches the interval failure rate (the chain has
/// forgotten its start by then).
#[test]
fn claim_full_measure_list() {
    let model = generate_block(&type3_block(), &globals()).unwrap();
    let ss = steady_state_measures(&model, SteadyStateMethod::Gth).unwrap();
    assert!(ss.availability > 0.0 && ss.availability < 1.0, "{}", ss.availability);
    assert!(ss.failure_rate > 0.0 && ss.recovery_rate > 0.0);

    let mut previous = 1.0;
    for t in [24.0, 168.0, 720.0, 2190.0, 8760.0, 43_800.0] {
        let iv = interval_measures(&model, t, None).unwrap();
        let a = iv.interval_availability;
        assert!(a <= previous && a >= ss.availability, "T {t}: {a} after {previous}");
        previous = a;
        if t >= 720.0 {
            let gap = (iv.point_availability - ss.availability).abs();
            assert!(gap < 1e-9, "T {t}: point availability {gap} from steady state");
        }
    }

    let t = 8760.0;
    let rel = reliability_measures(&model, t, None).unwrap();
    assert!(rel.mttf_hours.is_finite() && rel.mttf_hours > 0.0, "{}", rel.mttf_hours);
    let r = rel.reliability_at_mission;
    assert!(r > 0.0 && r < 1.0, "{r}");
    assert!(((-rel.interval_failure_rate * t).exp() - r).abs() < 1e-12);
    let drift = (rel.hazard_rate_at_mission / rel.interval_failure_rate - 1.0).abs();
    assert!(
        drift < 0.01,
        "hazard {} vs interval rate {}",
        rel.hazard_rate_at_mission,
        rel.interval_failure_rate
    );
}

/// The tool's "parametric analysis capability" on the Data Center
/// System: downtime is linear in the service response time and in the
/// probability of correct diagnosis (each a per-event downtime), and
/// saturates as `c + k/MTBF` in the Operating System's MTBF. Each shape
/// holds to 1 %.
#[test]
fn claim_parametric_curves_on_data_center() {
    let base = data_center();
    let downtimes = |values: &[f64], set: &dyn Fn(&mut SystemSpec, f64)| -> Vec<f64> {
        sweep(&base, values, |s, v| set(s, v))
            .unwrap()
            .iter()
            .map(|p| p.solution.system.yearly_downtime_minutes)
            .collect()
    };
    let steps = |dt: &[f64]| -> Vec<f64> { dt.windows(2).map(|w| w[1] - w[0]).collect() };
    let assert_linear = |what: &str, dt: &[f64]| {
        let d = steps(dt);
        for w in d.windows(2) {
            assert!((w[1] - w[0]).abs() < 0.01 * w[0].abs(), "{what}: steps {d:?}");
        }
    };

    let tresp = downtimes(&lin_space(0.0, 24.0, 7).unwrap(), &|s, v| {
        for b in &mut s.root.blocks[0].subdiagram.as_mut().unwrap().blocks {
            b.params.service_response = Hours(v);
        }
    });
    assert!(steps(&tresp).iter().all(|&d| d > 0.0), "Tresp: {tresp:?}");
    assert_linear("Tresp", &tresp);

    let pcd = downtimes(&lin_space(0.7, 1.0, 7).unwrap(), &|s, v| {
        s.root.walk_mut(&mut |b| b.params.p_correct_diagnosis = v);
    });
    assert!(steps(&pcd).iter().all(|&d| d < 0.0), "Pcd: {pcd:?}");
    assert_linear("Pcd", &pcd);

    // Log-spaced MTBFs a factor √10 apart: under `c + k/MTBF` each step
    // down is √10 times the next.
    let os = downtimes(&log_space(1_000.0, 1_000_000.0, 7).unwrap(), &|s, v| {
        s.root.find_mut("Server Box/Operating System").unwrap().params.mtbf = Hours(v);
    });
    let d = steps(&os);
    assert!(d.iter().all(|&d| d < 0.0), "OS MTBF: {os:?}");
    for w in d.windows(2) {
        assert!((w[0] / w[1] / 10f64.sqrt() - 1.0).abs() < 0.01, "OS MTBF: steps {d:?}");
    }
}

/// Section 2's modeled RAS mechanisms, ablated one at a time on the
/// Data Center System: switching any of them off never adds downtime,
/// instant logistics is the largest single lever, and stripping the
/// redundancy more than doubles the downtime.
#[test]
fn claim_ablations_on_data_center() {
    let base = data_center();
    let downtime = |spec: &SystemSpec| solve_spec(spec).unwrap().system.yearly_downtime_minutes;
    let base_dt = downtime(&base);
    let ablated: Vec<(&str, f64)> = [
        ("perfect diagnosis", ablate::perfect_diagnosis(&base)),
        ("no latent faults", ablate::no_latent_faults(&base)),
        ("no transients", ablate::no_transients(&base)),
        ("perfect recovery", ablate::perfect_recovery(&base)),
        ("instant logistics", ablate::instant_logistics(&base)),
    ]
    .iter()
    .map(|(name, spec)| (*name, downtime(spec)))
    .collect();
    for &(name, dt) in &ablated {
        assert!(dt <= base_dt + 1e-9, "{name}: {dt} vs baseline {base_dt}");
    }
    let lowest = ablated.iter().min_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
    assert_eq!(lowest.0, "instant logistics", "{ablated:?}");
    let stripped = downtime(&ablate::strip_redundancy(&base));
    assert!(stripped > 2.0 * base_dt, "stripped {stripped} vs baseline {base_dt}");
}
