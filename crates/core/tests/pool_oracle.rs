//! Closed-form oracles for k-out-of-n pools: band GTH against the
//! birth–death product form, and the band-elimination MTTF against the
//! birth–death first-passage sum.
//!
//! A pool of more than `BIRTH_DEATH_MIN_UNITS` units is a birth–death
//! chain on failure levels `0..=N`, so its stationary distribution is
//! `π_j ∝ Π_{i<j} b_i / d_{i+1}` with `b_i` the failure rate out of
//! level `i` and `d_i` the repair rate out of it. The mean time from
//! level 0 to the first down level `u` is
//! `Σ_{i<u} Σ_{j≤i} π_j / (b_i π_i)`. The oracles evaluate both in log
//! space, with compensated summation, from the generated chain's own
//! rates: they check the solver, not the generator's rate formulas.

#![allow(clippy::cast_precision_loss)]

use rascad_core::generate_block;
use rascad_markov::{Ctmc, SteadyStateMethod};
use rascad_spec::units::Hours;
use rascad_spec::{BlockParams, GlobalParams};

/// Mass below which a state's probability is not compared: the
/// product form still resolves it, but f64 GTH may flush it to zero.
const MASS_FLOOR: f64 = 1e-280;

/// Neumaier-compensated running sum.
#[derive(Default)]
struct Sum {
    sum: f64,
    carry: f64,
}

impl Sum {
    fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.carry += (self.sum - t) + x;
        } else {
            self.carry += (x - t) + self.sum;
        }
        self.sum = t;
    }

    fn value(&self) -> f64 {
        self.sum + self.carry
    }
}

/// Birth and death rates of each level of a birth–death chain whose
/// states are its levels in order; panics if any transition is not
/// between neighbours.
fn rates(chain: &Ctmc) -> (Vec<f64>, Vec<f64>) {
    let n = chain.len();
    let (mut birth, mut death) = (vec![0.0; n], vec![0.0; n]);
    for t in chain.transitions() {
        if t.to == t.from + 1 {
            birth[t.from] += t.rate;
        } else {
            assert_eq!(t.to + 1, t.from, "not a birth–death chain");
            death[t.from] += t.rate;
        }
    }
    (birth, death)
}

/// `ln π_j` of a birth–death chain whose states are its levels in
/// order.
fn log_product_form(chain: &Ctmc) -> Vec<f64> {
    let n = chain.len();
    let (birth, death) = rates(chain);
    let mut acc = Sum::default();
    let mut log_pi = vec![0.0; n];
    for j in 1..n {
        acc.add(birth[j - 1].ln());
        acc.add(-death[j].ln());
        log_pi[j] = acc.value();
    }
    let max = log_pi.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut z = Sum::default();
    for &l in &log_pi {
        z.add((l - max).exp());
    }
    let log_z = max + z.value().ln();
    log_pi.iter().map(|l| l - log_z).collect()
}

/// `ln Σ exp(x)` over `xs`, or `-∞` when empty.
fn log_sum_exp(xs: impl Iterator<Item = f64> + Clone) -> f64 {
    let max = xs.clone().fold(f64::NEG_INFINITY, f64::max);
    if max == f64::NEG_INFINITY {
        return max;
    }
    let mut z = Sum::default();
    for x in xs {
        z.add((x - max).exp());
    }
    max + z.value().ln()
}

#[test]
fn band_gth_matches_the_birth_death_product_form() {
    let globals = GlobalParams::default();
    let (mut worst_state, mut worst_unavail) = (0.0f64, 0.0f64);
    for n in [9u32, 20, 60, 100, 300, 511, 512, 800, 2000, 10_000, 100_000] {
        for k in [1, n / 2, n * 9 / 10, n - 1] {
            let params = BlockParams::new("Pool", n, k).with_mtbf(Hours(10_000.0));
            let chain = generate_block(&params, &globals).unwrap().chain;
            assert_eq!(chain.len(), n as usize + 1, "N={n} K={k}");
            let pi = chain.steady_state(SteadyStateMethod::Gth).unwrap();
            let log_pi = log_product_form(&chain);
            for (j, (&p, &l)) in pi.iter().zip(&log_pi).enumerate() {
                let want = l.exp();
                if want > MASS_FLOOR {
                    let rel = (p - want).abs() / want;
                    worst_state = worst_state.max(rel);
                    assert!(rel <= 1e-11, "N={n} K={k} level {j}: {p:e} vs {want:e} ({rel:e})");
                }
            }
            let down = chain.down_states();
            let unavail: f64 = down.iter().map(|&s| pi[s]).sum();
            let want = log_sum_exp(down.iter().map(|&s| log_pi[s])).exp();
            if want > MASS_FLOOR {
                let rel = (unavail - want).abs() / want;
                worst_unavail = worst_unavail.max(rel);
                assert!(rel <= 1e-11, "N={n} K={k} unavailability {unavail:e} vs {want:e}");
            } else {
                assert!(unavail < 1e-270, "N={n} K={k}: unavailability {unavail:e}");
            }
        }
    }
    eprintln!("worst relative error: state {worst_state:.1e}, unavailability {worst_unavail:.1e}");
}

/// `ln` of the mean time from level 0 to the first down level of a
/// birth–death chain: `Σ_{i<u} Σ_{j≤i} π_j / (b_i π_i)` with the
/// unnormalised `π` of the up levels, all in log space.
fn log_mttf(chain: &Ctmc) -> f64 {
    let (birth, death) = rates(chain);
    let u = chain.up_states().len();
    assert_eq!(chain.up_states(), (0..u).collect::<Vec<_>>());
    let mut acc = Sum::default();
    let mut log_pi = vec![0.0; u];
    for j in 1..u {
        acc.add(birth[j - 1].ln());
        acc.add(-death[j].ln());
        log_pi[j] = acc.value();
    }
    let terms =
        (0..u).map(|i| log_sum_exp(log_pi[..=i].iter().copied()) - log_pi[i] - birth[i].ln());
    log_sum_exp(terms.collect::<Vec<_>>().into_iter())
}

#[test]
fn band_mttf_matches_the_birth_death_first_passage_sum() {
    let globals = GlobalParams::default();
    let ln_max = f64::MAX.ln();
    let (mut worst, mut finite, mut beyond) = (0.0f64, 0, 0);
    for n in 9u32..=800 {
        let mut ks = vec![1, n / 2, n * 9 / 10, n - 1];
        ks.dedup();
        for k in ks {
            let params = BlockParams::new("Pool", n, k).with_mtbf(Hours(10_000.0));
            let model = generate_block(&params, &globals).unwrap();
            let got = rascad_markov::absorbing::mttf(&model.chain, model.ok_state()).unwrap().mttf;
            let want = log_mttf(&model.chain);
            if want < ln_max - 1e-6 {
                let rel = (got - want.exp()).abs() / want.exp();
                worst = worst.max(rel);
                assert!(
                    rel <= 1e-10,
                    "N={n} K={k}: {got:e} vs 10^{:.3} ({rel:e})",
                    want / 10f64.ln()
                );
                finite += 1;
            } else {
                let log10 = want / 10f64.ln();
                assert!(got.is_infinite(), "N={n} K={k}: {got:e}, oracle 10^{log10:.1}");
                beyond += 1;
            }
        }
    }
    eprintln!("MTTF: worst relative error {worst:.1e} on {finite} pools; {beyond} beyond f64");
}
