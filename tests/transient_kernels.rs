//! The two transient kernels — the uniformization series and
//! nonnegative doubling — agree on every chain the Model Generator
//! builds, and each chain family runs the kernel its size calls for.
//! On the same chains, the band-elimination MTTF and failure modes
//! agree with a dense LU solve of `−Q_UU`.

use rascad::core::generator::{generate_block, BlockModel};
use rascad::library::{cluster, datacenter, e10000, workgroup};
use rascad::markov::absorbing::{self, make_absorbing};
use rascad::markov::dense::DenseMatrix;
use rascad::markov::transient::{kernel_for, solve_with, TransientKernel};
use rascad::markov::{Ctmc, TransientOptions};
use rascad::spec::units::{Fit, Hours, Minutes};
use rascad::spec::{BlockParams, GlobalParams, RedundancyParams, Scenario, SystemSpec};

const HORIZONS: [f64; 2] = [720.0, 8760.0];
const SCENARIOS: [Scenario; 2] = [Scenario::Transparent, Scenario::Nontransparent];

fn template(n: u32, k: u32, recovery: Scenario, repair: Scenario) -> BlockParams {
    let p = BlockParams::new("X", n, k)
        .with_mtbf(Hours(20_000.0))
        .with_transient_fit(Fit(5_000.0))
        .with_mttr_parts(Minutes(30.0), Minutes(20.0), Minutes(10.0))
        .with_service_response(Hours(4.0))
        .with_p_correct_diagnosis(0.95);
    if n == k {
        return p;
    }
    p.with_redundancy(RedundancyParams {
        p_latent_fault: 0.05,
        mttdlf: Hours(24.0),
        recovery,
        failover_time: Minutes(6.0),
        p_spf: 0.02,
        spf_recovery_time: Minutes(12.0),
        repair,
        reintegration_time: Minutes(10.0),
    })
}

/// Every Type 0–4 template for `N <= 8`: all `K`, all scenario pairs.
fn templates() -> Vec<BlockModel> {
    let g = GlobalParams::default();
    let mut out = Vec::new();
    for n in 1..=8 {
        for k in 1..=n {
            for recovery in SCENARIOS {
                for repair in SCENARIOS {
                    out.push(generate_block(&template(n, k, recovery, repair), &g).unwrap());
                }
            }
        }
    }
    out
}

/// Largest gap between the two kernels over point, interval and every
/// state probability.
fn kernel_gap(chain: &Ctmc, t: f64) -> f64 {
    let mut p0 = vec![0.0; chain.len()];
    p0[0] = 1.0;
    let opts = TransientOptions::default();
    let s = solve_with(chain, &p0, t, opts, TransientKernel::Series).unwrap();
    let d = solve_with(chain, &p0, t, opts, TransientKernel::Doubling).unwrap();
    assert!(d.truncation <= opts.epsilon, "doubling truncation {}", d.truncation);
    s.probabilities
        .iter()
        .zip(&d.probabilities)
        .map(|(a, b)| (a - b).abs())
        .fold((s.point_reward - d.point_reward).abs(), f64::max)
        .max((s.interval_reward - d.interval_reward).abs())
}

fn assert_kernels_agree(what: &str, model: &BlockModel, horizons: &[f64]) {
    for &t in horizons {
        for (variant, chain) in
            [("availability", &model.chain), ("absorbing", &make_absorbing(&model.chain))]
        {
            let gap = kernel_gap(chain, t);
            assert!(
                gap < 1e-11,
                "{what} ({variant}, {} states) at {t} h: gap {gap:e}",
                chain.len()
            );
        }
    }
}

#[test]
fn kernels_agree_on_every_template() {
    for model in templates() {
        let what =
            format!("type {} N={} K={}", model.model_type, model.quantity, model.min_quantity);
        assert_kernels_agree(&what, &model, &HORIZONS);
    }
}

fn bundled_specs() -> Vec<(String, SystemSpec)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
    let mut specs: Vec<(String, SystemSpec)> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.ok()?.path();
            (p.extension()? == "rascad").then_some(p)
        })
        .map(|p| {
            let text = std::fs::read_to_string(&p).unwrap();
            (p.display().to_string(), SystemSpec::from_dsl(&text).unwrap())
        })
        .collect();
    assert!(!specs.is_empty());
    specs.extend([
        ("datacenter".to_string(), datacenter::data_center()),
        ("e10000".to_string(), e10000::e10000()),
        ("e10000 (no redundancy)".to_string(), e10000::e10000_no_redundancy()),
        ("workgroup".to_string(), workgroup::workgroup()),
        ("cluster".to_string(), cluster::two_node_cluster(cluster::ClusterConfig::default())),
    ]);
    specs
}

#[test]
fn kernels_agree_on_every_bundled_spec_and_library_model() {
    for (name, spec) in bundled_specs() {
        let mission = spec.globals.mission_time.0;
        spec.root.walk(&mut |_, path, block| {
            let model = generate_block(&block.params, &spec.globals).unwrap();
            assert_kernels_agree(&format!("{name}: {path}"), &model, &[720.0, mission]);
        });
    }
}

/// Availability chains only: an absorbing chain's rate comes from its up
/// states alone, so a rarely failing block's reliability solve is a
/// handful of series terms, which the selection rightly keeps.
#[test]
fn templates_take_doubling_and_large_pools_the_series() {
    for model in templates() {
        for t in HORIZONS {
            assert_eq!(
                kernel_for(&model.chain, t),
                TransientKernel::Doubling,
                "type {} N={} K={} ({} states) at {t} h",
                model.model_type,
                model.quantity,
                model.min_quantity,
                model.state_count()
            );
        }
    }
    let g = GlobalParams::default();
    for (n, k) in [(300, 270), (800, 720)] {
        let pool = BlockParams::new("Pool", n, k).with_mtbf(Hours(10_000.0));
        let model = generate_block(&pool, &g).unwrap();
        assert_eq!(model.state_count(), n as usize + 1);
        for t in HORIZONS {
            assert_eq!(kernel_for(&model.chain, t), TransientKernel::Series, "{n} units at {t} h");
        }
    }
}

/// Reference MTTF and failure modes from `start` by dense LU on
/// `−Q_UU`: `(−Q_UU) m = 1` and `(−Q_UU) b_d = q_{·d}` per down state,
/// with the LU's forward-error scale `ε · κ₁(−Q_UU)`.
fn dense_lu_reference(chain: &Ctmc, start: usize) -> (f64, Vec<(usize, f64)>, f64) {
    let up = chain.up_states();
    let mut pos = vec![usize::MAX; chain.len()];
    for (i, &s) in up.iter().enumerate() {
        pos[s] = i;
    }
    let mut a = DenseMatrix::zeros(up.len(), up.len());
    for t in chain.transitions() {
        let pf = pos[t.from];
        if pf == usize::MAX {
            continue;
        }
        a[(pf, pf)] += t.rate;
        if pos[t.to] != usize::MAX {
            a[(pf, pos[t.to])] -= t.rate;
        }
    }
    let mttf = a.solve(&vec![1.0; up.len()]).unwrap()[pos[start]];
    let modes = chain
        .down_states()
        .into_iter()
        .map(|d| {
            let mut b = vec![0.0; up.len()];
            for t in chain.transitions().iter().filter(|t| t.to == d && pos[t.from] != usize::MAX) {
                b[pos[t.from]] += t.rate;
            }
            (d, a.solve(&b).unwrap()[pos[start]])
        })
        .collect();
    (mttf, modes, f64::EPSILON * a.condest_1norm().unwrap())
}

fn assert_absorbing_matches_dense_lu(what: &str, model: &BlockModel) -> f64 {
    let chain = &model.chain;
    if chain.down_states().is_empty() {
        return 0.0;
    }
    let (want, want_modes, lu_error) = dense_lu_reference(chain, model.ok_state());
    let got = absorbing::mttf(chain, model.ok_state()).unwrap().mttf;
    let rel = (got - want).abs() / want;
    // Where −Q_UU is ill-conditioned the LU itself is off by up to
    // ε·κ₁; the exact value then decides (see below).
    assert!(
        rel <= lu_error.max(1e-10),
        "{what}: mttf {got:e} vs dense LU {want:e} ({rel:e}, LU error scale {lu_error:e})"
    );
    let modes = absorbing::failure_modes(chain, model.ok_state()).unwrap();
    for (d, want) in want_modes {
        let got = modes.iter().find(|m| m.0 == d).unwrap().1;
        assert!(
            (got - want).abs() <= lu_error.max(1e-10),
            "{what}: mode {d} {got:e} vs dense LU {want:e}"
        );
    }
    if lu_error > 1e-10 {
        return 0.0;
    }
    rel
}

#[test]
fn band_mttf_matches_dense_lu_on_every_template_spec_and_library_block() {
    let mut worst = 0.0f64;
    for model in templates() {
        let what =
            format!("type {} N={} K={}", model.model_type, model.quantity, model.min_quantity);
        worst = worst.max(assert_absorbing_matches_dense_lu(&what, &model));
    }
    for (name, spec) in bundled_specs() {
        spec.root.walk(&mut |_, path, block| {
            let model = generate_block(&block.params, &spec.globals).unwrap();
            worst =
                worst.max(assert_absorbing_matches_dense_lu(&format!("{name}: {path}"), &model));
        });
    }
    eprintln!("worst MTTF relative gap to dense LU where its error scale is <= 1e-10: {worst:.1e}");
}

#[test]
fn ill_conditioned_mttf_matches_its_exact_value() {
    // The E10000 CPU Module (64 units, 60 needed) is the one bundled
    // block whose −Q_UU defeats dense LU: ε·κ₁ ≈ 0.5, and the LU MTTF is
    // off by 8.6e-6 relative. Exact rational Gaussian elimination of
    // the generated chain's −Q_UU gives 3317467257125966.5 h (to f64).
    let spec = e10000::e10000();
    let mut checked = 0;
    spec.root.walk(&mut |_, path, block| {
        if path.ends_with("/CPU Module") {
            let model = generate_block(&block.params, &spec.globals).unwrap();
            let got = absorbing::mttf(&model.chain, model.ok_state()).unwrap().mttf;
            let exact = 3_317_467_257_125_966.5;
            assert!((got - exact).abs() / exact < 1e-13, "{got:e} vs {exact:e}");
            checked += 1;
        }
    });
    assert_eq!(checked, 1);
}
