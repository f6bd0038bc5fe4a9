//! Randomized property tests for the simulation crate.
//!
//! Each property runs over a fixed number of inputs drawn from a seeded
//! `StdRng`, so every run checks the same cases and a failure names the
//! seed that reproduces it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rascad_markov::{Ctmc, CtmcBuilder};
use rascad_sim::ctmc_sim::{simulate_availability, SimOptions};
use rascad_sim::EventLog;

const CASES: u64 = 256;
/// Each simulation case runs several replications, so those properties
/// run fewer cases.
const SIM_CASES: u64 = 24;

/// Random irreducible ring chain of 2–5 states, rates in [0.01, 5),
/// rewards 0 or 1.
fn arb_chain(rng: &mut StdRng) -> Ctmc {
    let n = 2 + (rng.gen::<u64>() % 4) as usize;
    let mut b = CtmcBuilder::new();
    for i in 0..n {
        b.add_state(format!("s{i}"), if rng.gen::<bool>() { 1.0 } else { 0.0 });
    }
    for i in 0..n {
        b.add_transition(i, (i + 1) % n, 0.01 + 4.99 * rng.gen::<f64>());
    }
    b.build().expect("valid chain")
}

/// Simulated availability is always a probability and deterministic
/// under a fixed seed.
#[test]
fn simulation_is_bounded_and_reproducible() {
    for seed in 0..SIM_CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let chain = arb_chain(&mut rng);
        let opts =
            SimOptions { horizon_hours: 500.0, replications: 4, seed: rng.gen::<u64>() % 1000 };
        let a = simulate_availability(&chain, &opts);
        assert!((0.0..=1.0).contains(&a.mean), "seed {seed}: mean {}", a.mean);
        assert!(a.ci_half_width >= 0.0, "seed {seed}: half width {}", a.ci_half_width);
        let b = simulate_availability(&chain, &opts);
        assert_eq!(a, b, "seed {seed}");
    }
}

/// Different seeds give (generally) different trajectories but stay
/// bounded.
#[test]
fn seeds_change_results() {
    for seed in 0..SIM_CASES {
        let chain = arb_chain(&mut StdRng::seed_from_u64(seed));
        let a = simulate_availability(
            &chain,
            &SimOptions { horizon_hours: 300.0, replications: 2, seed: 1 },
        );
        let b = simulate_availability(
            &chain,
            &SimOptions { horizon_hours: 300.0, replications: 2, seed: 2 },
        );
        assert!(
            (0.0..=1.0).contains(&a.mean) && (0.0..=1.0).contains(&b.mean),
            "seed {seed}: {} and {}",
            a.mean,
            b.mean
        );
    }
}

/// EventLog downtime accounting is consistent with the generating
/// intervals, whatever their overlap pattern.
#[test]
fn event_log_accounting_is_consistent() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        // Up to 11 raw intervals, merged into non-overlapping sorted
        // down intervals.
        let horizon = 100.0;
        let mut intervals: Vec<(f64, f64)> = (0..rng.gen::<u64>() % 12)
            .map(|_| {
                let s = 90.0 * rng.gen::<f64>();
                let d = 0.1 + 9.9 * rng.gen::<f64>();
                (s, (s + d).min(horizon))
            })
            .collect();
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut merged: Vec<(f64, f64)> = Vec::new();
        for (s, e) in intervals {
            match merged.last_mut() {
                Some((_, le)) if s <= *le => *le = le.max(e),
                _ => merged.push((s, e)),
            }
        }
        let mut log = EventLog::new(horizon);
        let mut expect = 0.0;
        for &(s, e) in &merged {
            log.push(s, false);
            if e < horizon {
                log.push(e, true);
            }
            expect += e - s;
        }
        assert!(
            (log.downtime_hours() - expect).abs() < 1e-9,
            "seed {seed}: {} vs {expect}",
            log.downtime_hours()
        );
        assert!(
            (log.availability() - (1.0 - expect / horizon)).abs() < 1e-9,
            "seed {seed}: {}",
            log.availability()
        );
        assert_eq!(log.outage_count(), merged.len(), "seed {seed}");
    }
}
