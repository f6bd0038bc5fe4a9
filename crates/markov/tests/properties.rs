//! Randomized property tests for the Markov substrate.
//!
//! Each property runs over `CASES` inputs drawn from a seeded
//! `StdRng`, so every run checks the same cases and a failure names the
//! seed that reproduces it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rascad_markov::transient::{self, TransientOptions};
use rascad_markov::{Ctmc, CtmcBuilder, SteadyStateMethod};

const CASES: u64 = 256;
/// Case count of the last four properties.
const FEW_CASES: u64 = 64;

/// Uniform draw from `[lo, hi)`.
fn uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.gen::<f64>()
}

/// Builds a random irreducible chain of 2–7 states: a ring
/// (guaranteeing irreducibility) plus up to 11 arbitrary extra edges.
fn arb_chain(rng: &mut StdRng) -> Ctmc {
    let n = 2 + (rng.gen::<u64>() % 6) as usize;
    let mut b = CtmcBuilder::new();
    for i in 0..n {
        b.add_state(format!("s{i}"), if rng.gen::<bool>() { 1.0 } else { 0.0 });
    }
    for i in 0..n {
        b.add_transition(i, (i + 1) % n, uniform(rng, 1e-3, 10.0));
    }
    for _ in 0..rng.gen::<u64>() % 12 {
        let f = (rng.gen::<u64>() % n as u64) as usize;
        let t = (rng.gen::<u64>() % n as u64) as usize;
        let rate = uniform(rng, 1e-3, 10.0);
        if f != t {
            b.add_transition(f, t, rate);
        }
    }
    b.build().expect("constructed chain is valid")
}

/// The stationary vector is a distribution and satisfies pi*Q = 0.
#[test]
fn stationary_solves_balance_equations() {
    for seed in 0..CASES {
        let chain = arb_chain(&mut StdRng::seed_from_u64(seed));
        let pi = chain.steady_state(SteadyStateMethod::Gth).unwrap();
        let sum: f64 = pi.iter().sum();
        assert!((sum - 1.0).abs() < 1e-10, "seed {seed}: sum {sum}");
        for &p in &pi {
            assert!((-1e-12..=1.0 + 1e-12).contains(&p), "seed {seed}: p {p}");
        }
        let residual = chain.generator().vec_mul(&pi);
        for r in residual {
            assert!(r.abs() < 1e-9, "seed {seed}: residual {r}");
        }
    }
}

/// GTH and LU agree to high precision.
#[test]
fn gth_and_lu_agree() {
    for seed in 0..CASES {
        let chain = arb_chain(&mut StdRng::seed_from_u64(seed));
        let g = chain.steady_state(SteadyStateMethod::Gth).unwrap();
        let l = chain.steady_state(SteadyStateMethod::Lu).unwrap();
        for (a, b) in g.iter().zip(&l) {
            assert!((a - b).abs() < 1e-8, "seed {seed}: {a} vs {b}");
        }
    }
}

/// Transient probabilities stay a distribution and converge to the
/// stationary distribution for large t.
#[test]
fn transient_is_distribution_and_converges() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let chain = arb_chain(&mut rng);
        let t = uniform(&mut rng, 0.0, 20.0);
        let n = chain.len();
        let mut p0 = vec![0.0; n];
        p0[0] = 1.0;
        let sol = transient::solve(&chain, &p0, t, TransientOptions::default()).unwrap();
        let sum: f64 = sol.probabilities.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "seed {seed}: sum {sum}");
        assert!(
            sol.point_reward >= -1e-12 && sol.point_reward <= 1.0 + 1e-12,
            "seed {seed}: point {}",
            sol.point_reward
        );
        assert!(
            sol.interval_reward >= -1e-12 && sol.interval_reward <= 1.0 + 1e-12,
            "seed {seed}: interval {}",
            sol.interval_reward
        );

        // Long-run convergence.
        let pi = chain.steady_state(SteadyStateMethod::Gth).unwrap();
        let far = transient::solve(&chain, &p0, 5000.0, TransientOptions::default()).unwrap();
        for (a, b) in far.probabilities.iter().zip(&pi) {
            assert!((a - b).abs() < 1e-6, "seed {seed}: {a} vs {b}");
        }
    }
}

/// Availability equals 1 minus the stationary mass of down states.
#[test]
fn availability_complement() {
    for seed in 0..CASES {
        let chain = arb_chain(&mut StdRng::seed_from_u64(seed));
        let pi = chain.steady_state(SteadyStateMethod::Gth).unwrap();
        let a = chain.expected_reward(&pi);
        let down: f64 = chain.down_states().iter().map(|&s| pi[s]).sum();
        assert!((a + down - 1.0).abs() < 1e-10, "seed {seed}: {a} + {down}");
    }
}

/// Failure flow equals recovery flow in steady state.
#[test]
fn flows_balance() {
    for seed in 0..CASES {
        let chain = arb_chain(&mut StdRng::seed_from_u64(seed));
        let pi = chain.steady_state(SteadyStateMethod::Gth).unwrap();
        let f = chain.failure_rate(&pi);
        let r = chain.recovery_rate(&pi);
        assert!((f - r).abs() < 1e-9 * (1.0 + f.abs()), "seed {seed}: {f} vs {r}");
    }
}

/// Uniformized DTMC rows sum to one.
#[test]
fn uniformized_rows_sum_to_one() {
    for seed in 0..FEW_CASES {
        let chain = arb_chain(&mut StdRng::seed_from_u64(seed));
        let uni = transient::uniformize(&chain);
        for s in uni.dtmc.row_sums() {
            assert!((s - 1.0).abs() < 1e-12, "seed {seed}: row sum {s}");
        }
    }
}

/// Power iteration agrees with GTH on every random chain.
#[test]
fn power_iteration_agrees_with_gth() {
    for seed in 0..FEW_CASES {
        let chain = arb_chain(&mut StdRng::seed_from_u64(seed));
        let gth = chain.steady_state(SteadyStateMethod::Gth).unwrap();
        let pow = chain.steady_state(SteadyStateMethod::Power).unwrap();
        for (a, b) in gth.iter().zip(&pow) {
            assert!((a - b).abs() < 1e-8, "seed {seed}: {a} vs {b}");
        }
    }
}

/// DTMC stationary vectors are distributions satisfying pi P = pi.
#[test]
fn dtmc_stationary_is_fixed_point() {
    use rascad_markov::DtmcBuilder;
    for seed in 0..FEW_CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = DtmcBuilder::new();
        for i in 0..3 {
            b.add_state(format!("s{i}"));
        }
        for i in 0..3 {
            let row: Vec<f64> = (0..3).map(|_| uniform(&mut rng, 0.05, 1.0)).collect();
            let z: f64 = row.iter().sum();
            for (j, &w) in row.iter().enumerate() {
                b.add_transition(i, j, w / z);
            }
        }
        let c = b.build().unwrap();
        let pi = c.stationary().unwrap();
        let sum: f64 = pi.iter().sum();
        assert!((sum - 1.0).abs() < 1e-10, "seed {seed}: sum {sum}");
        // pi P = pi.
        for j in 0..3 {
            let flow: f64 = (0..3).map(|i| pi[i] * c.probability(i, j)).sum();
            assert!((flow - pi[j]).abs() < 1e-9, "seed {seed}: {flow} vs {}", pi[j]);
        }
    }
}

/// Absorbing DTMCs: the band elimination's expected steps and
/// absorption probabilities match dense LU on `I − T`, self-loops
/// included.
#[test]
fn dtmc_absorption_matches_dense_lu() {
    use rascad_markov::dense::DenseMatrix;
    use rascad_markov::DtmcBuilder;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let nt = 1 + (rng.gen::<u64>() % 8) as usize;
        let na = 1 + (rng.gen::<u64>() % 3) as usize;
        let n = nt + na;
        let mut b = DtmcBuilder::new();
        for i in 0..n {
            b.add_state(format!("s{i}"));
        }
        // Transient states 0..nt: each steps to the next (the last to an
        // absorbing state), so all are transient, plus a self-loop and
        // random extra edges.
        let mut rows = vec![vec![0.0; n]; nt];
        for (i, row) in rows.iter_mut().enumerate() {
            row[i + 1] = uniform(&mut rng, 0.05, 1.0);
            row[i] = if rng.gen_bool(0.7) { uniform(&mut rng, 0.0, 2.0) } else { 0.0 };
            for _ in 0..rng.gen::<u64>() % 4 {
                row[(rng.gen::<u64>() % n as u64) as usize] += uniform(&mut rng, 0.0, 1.0);
            }
            let z: f64 = row.iter().sum();
            for (j, w) in row.iter().enumerate().filter(|&(_, &w)| w > 0.0) {
                b.add_transition(i, j, w / z);
            }
        }
        let c = b.build().unwrap();
        let absorbing = c.absorbing_states();
        assert_eq!(absorbing, (nt..n).collect::<Vec<_>>(), "seed {seed}");
        let mut a = DenseMatrix::zeros(nt, nt);
        for i in 0..nt {
            for j in 0..nt {
                a[(i, j)] = f64::from(u8::from(i == j)) - c.probability(i, j);
            }
        }
        let want = a.solve(&vec![1.0; nt]).unwrap();
        for (state, m) in c.expected_steps_to_absorption().unwrap() {
            let rel = (m - want[state]).abs() / want[state];
            assert!(rel < 1e-10, "seed {seed}: state {state} {m} vs {}", want[state]);
        }
        let start = (rng.gen::<u64>() % nt as u64) as usize;
        let probs = c.absorption_probabilities(start).unwrap();
        assert_eq!(probs.iter().map(|p| p.0).collect::<Vec<_>>(), absorbing, "seed {seed}");
        for (d, p) in probs {
            let rhs: Vec<f64> = (0..nt).map(|i| c.probability(i, d)).collect();
            let want = a.solve(&rhs).unwrap()[start];
            assert!((p - want).abs() < 1e-12, "seed {seed}: {start} -> {d}: {p} vs {want}");
        }
    }
}

/// Erlang phase expansion of a random semi-Markov process preserves
/// steady-state availability exactly.
#[test]
fn erlang_expansion_preserves_availability() {
    use rascad_markov::{SemiMarkovBuilder, SojournDistribution};
    for seed in 0..FEW_CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let rates: Vec<f64> =
            (0..2 + rng.gen::<u64>() % 3).map(|_| uniform(&mut rng, 0.01, 10.0)).collect();
        let dets: Vec<f64> =
            (0..2 + rng.gen::<u64>() % 3).map(|_| uniform(&mut rng, 0.1, 10.0)).collect();
        let phases = 1 + rng.gen::<u32>() % 11;
        let n = rates.len().min(dets.len());
        let mut b = SemiMarkovBuilder::new();
        for i in 0..n {
            // Alternate exponential (down) and deterministic (up) sojourns.
            let (reward, sojourn) = if i % 2 == 0 {
                (0.0, SojournDistribution::Exponential { rate: rates[i] })
            } else {
                (1.0, SojournDistribution::Deterministic { value: dets[i] })
            };
            b.add_state(format!("s{i}"), reward, sojourn);
        }
        for i in 0..n {
            b.add_jump(i, (i + 1) % n, 1.0);
        }
        let smp = b.build().unwrap();
        let expect = smp.availability().unwrap();
        let ctmc = smp.to_ctmc_erlang(phases).unwrap();
        let pi = ctmc.steady_state(SteadyStateMethod::Gth).unwrap();
        let got = ctmc.expected_reward(&pi);
        assert!((got - expect).abs() < 1e-10, "seed {seed}: {got} vs {expect}");
    }
}
