//! `simulate` command: Monte-Carlo cross-check of the analytic result.

use std::fmt::Write as _;

use rascad_core::solve_spec;
use rascad_sim::system_sim::{simulate_system, SystemSimOptions};
use rascad_spec::SystemSpec;

use super::{num_arg, CliError};

/// Runs `simulate [horizon-hours [replications [seed]]]`.
pub fn simulate(spec: &SystemSpec, args: &[&str]) -> Result<String, CliError> {
    let horizon: f64 = num_arg(args, 0, 100_000.0, "horizon")?;
    let replications: usize = num_arg(args, 1, 16, "replication count")?;
    let seed: u64 = num_arg(args, 2, 0x5eed, "seed")?;

    let analytic = solve_spec(spec)?;
    let result = simulate_system(
        spec,
        &SystemSimOptions {
            horizon_hours: horizon,
            replications,
            seed,
            deterministic_repairs: false,
        },
    )?;
    let est = result.availability;

    let mut out = String::new();
    let _ = writeln!(out, "Monte-Carlo cross-check ({replications} x {horizon} h, seed {seed})");
    let _ = writeln!(out, "  analytic availability : {:.9}", analytic.system.availability);
    let _ = writeln!(
        out,
        "  simulated             : {:.9} ± {:.2e} (95% CI)",
        est.mean, est.ci_half_width
    );
    let covered = (analytic.system.availability - est.mean).abs() <= est.ci_half_width.max(1e-9);
    let _ = writeln!(out, "  analytic inside CI    : {}", if covered { "yes" } else { "no" });
    let _ = writeln!(out, "  outages in first run  : {}", result.example_log.outage_count());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rascad_library::cluster::two_node_cluster;

    #[test]
    fn simulate_reports_ci() {
        let _lock = crate::commands::obs_test_lock();
        let spec = two_node_cluster(Default::default());
        let out = simulate(&spec, &["20000", "8", "3"]).unwrap();
        assert!(out.contains("analytic availability"));
        assert!(out.contains("95% CI"));
    }

    #[test]
    fn bad_numbers_rejected() {
        let spec = two_node_cluster(Default::default());
        assert!(simulate(&spec, &["abc"]).is_err());
        assert!(simulate(&spec, &["100", "xyz"]).is_err());
    }
}
