//! Randomized property tests for field-data estimation.
//!
//! Each property runs over `CASES` log sets drawn from a seeded
//! `StdRng`, so every run checks the same cases and a failure names the
//! seed that reproduces it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rascad_fielddata::{analyze, compare, OutageLog};

const CASES: u64 = 256;

/// Random log: a window of 100–10 000 h holding up to 9 sorted,
/// non-overlapping outages.
fn arb_log(rng: &mut StdRng) -> OutageLog {
    let window = 100.0 + 9_900.0 * rng.gen::<f64>();
    let mut log = OutageLog::new(window);
    let mut cursor = 0.0;
    for _ in 0..rng.gen::<u64>() % 10 {
        let gap = rng.gen::<f64>() * window / 12.0;
        let dur = rng.gen::<f64>() * window / 50.0;
        let start = cursor + gap;
        if start + dur > window {
            break;
        }
        log.record(start, dur);
        cursor = start + dur;
    }
    log
}

/// Estimates are internally consistent for any log set.
#[test]
#[allow(clippy::float_cmp)] // exact equality asserts deterministic arithmetic
fn estimates_are_consistent() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let logs: Vec<OutageLog> =
            (0..1 + rng.gen::<u64>() % 4).map(|_| arb_log(&mut rng)).collect();
        let e = analyze(&logs);
        assert!((0.0..=1.0).contains(&e.availability), "seed {seed}: {}", e.availability);
        assert!(e.downtime_hours >= 0.0, "seed {seed}: {}", e.downtime_hours);
        assert!(
            (e.observation_hours - logs.iter().map(OutageLog::observation_hours).sum::<f64>())
                .abs()
                < 1e-9,
            "seed {seed}: {}",
            e.observation_hours
        );
        let outages: usize = logs.iter().map(|l| l.outages().len()).sum();
        assert_eq!(e.outages, outages, "seed {seed}");
        if outages > 0 {
            #[allow(clippy::cast_precision_loss)] // outage counts stay far below 2^52
            let n = outages as f64;
            assert!((e.mtbf_hours - e.observation_hours / n).abs() < 1e-9, "seed {seed}");
            assert!((e.mttr_hours - e.downtime_hours / n).abs() < 1e-9, "seed {seed}");
        } else {
            assert_eq!(e.availability, 1.0, "seed {seed}");
        }
        assert!(
            (e.yearly_downtime_minutes - (1.0 - e.availability) * 525_600.0).abs() < 1e-6,
            "seed {seed}: {}",
            e.yearly_downtime_minutes
        );
    }
}

/// Pooling more observation time never widens the rate CI (for a fixed
/// outage pattern, duplicated logs).
#[test]
fn pooling_narrows_rate_ci() {
    for seed in 0..CASES {
        // Only a log with outages has a rate CI: redraw until one does.
        let mut rng = StdRng::seed_from_u64(seed);
        let log = loop {
            let log = arb_log(&mut rng);
            if !log.outages().is_empty() {
                break log;
            }
        };
        let one = analyze(std::slice::from_ref(&log));
        let four = analyze(&[log.clone(), log.clone(), log.clone(), log]);
        assert!(
            four.rate_ci_half_width <= one.rate_ci_half_width + 1e-12,
            "seed {seed}: {} vs {}",
            four.rate_ci_half_width,
            one.rate_ci_half_width
        );
    }
}

/// A perfect prediction always has zero relative error and sits in the
/// CI.
#[test]
fn self_comparison_is_exact() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let logs: Vec<OutageLog> =
            (0..1 + rng.gen::<u64>() % 3).map(|_| arb_log(&mut rng)).collect();
        let e = analyze(&logs);
        let c = compare(e.availability, &e);
        assert!(
            c.downtime_relative_error.abs() < 1e-9,
            "seed {seed}: {}",
            c.downtime_relative_error
        );
        assert!(c.within_confidence_interval, "seed {seed}");
    }
}
