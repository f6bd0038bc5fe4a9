//! The two transient kernels — the uniformization series and
//! nonnegative doubling — agree on every chain the Model Generator
//! builds, and each chain family runs the kernel its size calls for.

use rascad::core::generator::{generate_block, BlockModel};
use rascad::library::{cluster, datacenter, e10000, workgroup};
use rascad::markov::absorbing::make_absorbing;
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
