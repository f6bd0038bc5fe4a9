//! `fielddata` command: synthetic field data + model comparison.

use std::fmt::Write as _;

use rascad_core::solve_spec;
use rascad_fielddata::{analyze, compare, OutageLog};
use rascad_sim::fieldgen::{generate_field_data, FieldDataOptions};
use rascad_spec::SystemSpec;

use super::{num_arg, CliError};

/// Runs `fielddata [months [servers [seed]]]`.
pub fn fielddata(spec: &SystemSpec, args: &[&str]) -> Result<String, CliError> {
    let months: f64 = num_arg(args, 0, 15.0, "month count")?;
    let servers: usize = num_arg(args, 1, 2, "server count")?;
    let seed: u64 = num_arg(args, 2, 0xf1e1d, "seed")?;

    let records = generate_field_data(
        spec,
        &FieldDataOptions { months, servers, seed, deterministic_repairs: true },
    )?;
    let logs: Vec<OutageLog> = records
        .iter()
        .map(|r| {
            let events: Vec<(f64, bool)> =
                r.log.events.iter().map(|e| (e.time_hours, e.up)).collect();
            OutageLog::from_events(r.log.horizon_hours, &events)
        })
        .collect();
    let field = analyze(&logs);
    let predicted = solve_spec(spec)?.system.availability;
    let cmp = compare(predicted, &field);

    let mut out = String::new();
    let _ =
        writeln!(out, "Synthetic field data: {servers} server(s) x {months} month(s), seed {seed}");
    for (r, log) in records.iter().zip(&logs) {
        let _ = writeln!(
            out,
            "  server {}: {} outages, availability {:.6}, downtime {:.2} h",
            r.server,
            log.outages().len(),
            log.availability(),
            log.downtime_hours()
        );
    }
    let _ = writeln!(
        out,
        "  pooled: {} outages, MTBF {:.1} h, MTTR {:.2} h",
        field.outages, field.mtbf_hours, field.mttr_hours
    );
    let _ = writeln!(out, "{cmp}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rascad_library::cluster::two_node_cluster;

    #[test]
    fn fielddata_reports_comparison() {
        let _lock = crate::commands::obs_test_lock();
        let spec = two_node_cluster(Default::default());
        let out = fielddata(&spec, &["15", "2", "7"]).unwrap();
        assert!(out.contains("server 0"));
        assert!(out.contains("server 1"));
        assert!(out.contains("model-vs-field comparison"));
    }

    #[test]
    fn defaults_apply() {
        let _lock = crate::commands::obs_test_lock();
        let spec = two_node_cluster(Default::default());
        let out = fielddata(&spec, &[]).unwrap();
        assert!(out.contains("2 server(s) x 15 month(s)"));
    }
}
