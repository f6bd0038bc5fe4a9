//! Integration test of the paper's field-data validation loop
//! (Section 5): synthetic E10000 field data → empirical estimates →
//! model comparison.

use rascad::core::solve_spec;
use rascad::fielddata::{analyze, compare, OutageLog};
use rascad::library::e10000::e10000;
use rascad::sim::fieldgen::{generate_field_data, FieldDataOptions, HOURS_PER_MONTH};
use rascad::sim::Estimate;

fn logs(months: f64, servers: usize, seed: u64) -> Vec<OutageLog> {
    let records = generate_field_data(
        &e10000(),
        &FieldDataOptions { months, servers, seed, deterministic_repairs: true },
    )
    .expect("generates");
    records
        .iter()
        .map(|r| {
            let events: Vec<(f64, bool)> =
                r.log.events.iter().map(|e| (e.time_hours, e.up)).collect();
            OutageLog::from_events(r.log.horizon_hours, &events)
        })
        .collect()
}

/// The paper's §5 field data: two E10000 servers over 15 months. One
/// such window holds few outages, so single windows are noisy; over 20
/// seeded windows the mean field availability brackets the model's
/// prediction within three CI half-widths.
#[test]
fn fifteen_month_windows_have_realistic_shape() {
    let predicted = solve_spec(&e10000()).unwrap().system.availability;
    let mut availabilities = Vec::new();
    for seed in 0..20u64 {
        let logs = logs(15.0, 2, seed * 7919 + 1);
        assert_eq!(logs.len(), 2);
        for log in &logs {
            assert!((log.observation_hours() - 15.0 * HOURS_PER_MONTH).abs() < 1e-9);
            // An E10000-class machine: high availability, a handful of
            // outages in 15 months at most.
            assert!(log.availability() > 0.98, "seed {seed}: {}", log.availability());
            assert!(log.outages().len() < 60, "seed {seed}");
        }
        availabilities.push(analyze(&logs).availability);
    }
    let field = Estimate::from_samples(&availabilities);
    assert!(
        (field.mean - predicted).abs() <= 3.0 * field.ci_half_width.max(1e-6),
        "field {} ± {} vs predicted {predicted}",
        field.mean,
        field.ci_half_width
    );
}

#[test]
fn long_observation_converges_to_model_prediction() {
    // With enough observation time the empirical availability converges
    // on the analytic prediction (the validation loop closed).
    let spec = e10000();
    let predicted = solve_spec(&spec).unwrap().system.availability;
    // 40 servers x 10 years pooled.
    let logs = logs(120.0, 40, 4242);
    let field = analyze(&logs);
    let cmp = compare(predicted, &field);
    assert!(
        cmp.downtime_relative_error.abs() < 0.25,
        "relative error {} (predicted {predicted}, measured {})",
        cmp.downtime_relative_error,
        field.availability
    );
}

#[test]
fn comparison_detects_a_wrong_model() {
    // Feed the comparison a model that is off by 10x; it must not pass.
    let spec = e10000();
    let predicted = solve_spec(&spec).unwrap().system.availability;
    let wrong = 1.0 - (1.0 - predicted) * 10.0;
    let logs = logs(120.0, 40, 4242);
    let field = analyze(&logs);
    let cmp = compare(wrong, &field);
    assert!(cmp.downtime_relative_error.abs() > 1.0);
}

#[test]
fn pooled_estimates_beat_single_server() {
    // Pooling servers narrows the CI on the outage rate.
    let one = analyze(&logs(15.0, 1, 99));
    let many = analyze(&logs(15.0, 8, 99));
    if one.outages > 0 && many.outages > 0 {
        assert!(many.rate_ci_half_width < one.rate_ci_half_width);
    }
    assert!(many.observation_hours > one.observation_hours);
}
