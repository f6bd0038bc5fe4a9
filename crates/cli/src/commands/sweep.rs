//! `sweep` command: parametric analysis from the command line.

use std::fmt::Write as _;

use rascad_core::sweep::{lin_space, log_space, sweep as run_sweep};
use rascad_spec::units::Hours;
use rascad_spec::SystemSpec;

use super::CliError;

/// Runs `sweep <block-path> <param> <from> <to> <points> [--log]`.
pub fn sweep(spec: &SystemSpec, args: &[&str]) -> Result<String, CliError> {
    let [path, param, from, to, points, rest @ ..] = args else {
        return Err(CliError::usage(
            "usage: sweep <spec> <block-path> <param> <from> <to> <points> [--log]",
        ));
    };
    let from: f64 = from.parse().map_err(|_| CliError::usage(format!("bad from `{from}`")))?;
    let to: f64 = to.parse().map_err(|_| CliError::usage(format!("bad to `{to}`")))?;
    let points: usize =
        points.parse().map_err(|_| CliError::usage(format!("bad point count `{points}`")))?;
    let logarithmic = rest.contains(&"--log");

    if spec.root.find(path).is_none() {
        return Err(CliError::usage(format!("no block at path `{path}`")));
    }
    let values =
        if logarithmic { log_space(from, to, points) } else { lin_space(from, to, points) }?;

    let param_owned = param.to_string();
    let path_owned = path.to_string();
    let results = run_sweep(spec, &values, move |s, v| {
        let block = s.root.find_mut(&path_owned).expect("checked above");
        match param_owned.as_str() {
            "mtbf" => block.params.mtbf = Hours(v),
            "tresp" => block.params.service_response = Hours(v),
            "pcd" => block.params.p_correct_diagnosis = v,
            // Unknown params leave the spec untouched; the caller sees a
            // flat curve, which the check below turns into an error.
            _ => {}
        }
    })?;

    let mut out = String::new();
    let _ = writeln!(out, "# sweep of {} on {}", args[1], args[0]);
    let _ = writeln!(out, "{:>14} {:>16} {:>18}", "value", "availability", "downtime-min/yr");
    for p in &results {
        let _ = writeln!(
            out,
            "{:>14.6} {:>16.9} {:>18.3}",
            p.value, p.solution.system.availability, p.solution.system.yearly_downtime_minutes
        );
    }
    if results.len() > 1 {
        let first = results.first().expect("nonempty").solution.system.availability;
        if results.iter().all(|p| (p.solution.system.availability - first).abs() < 1e-15)
            && !matches!(args[1], "mtbf" | "tresp" | "pcd")
        {
            return Err(CliError::usage(format!(
                "unknown sweep parameter `{}` (mtbf, tresp, pcd)",
                args[1]
            )));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rascad_library::datacenter::data_center;

    #[test]
    fn sweeps_mtbf_logarithmically() {
        let _lock = crate::commands::obs_test_lock();
        let spec = data_center();
        let out =
            sweep(&spec, &["Server Box/System Board", "mtbf", "10000", "1000000", "4", "--log"])
                .unwrap();
        assert_eq!(out.lines().count(), 2 + 4);
        assert!(out.contains("availability"));
    }

    #[test]
    fn rejects_unknown_parameter() {
        let spec = data_center();
        assert!(sweep(&spec, &["Server Box/System Board", "warp", "1", "2", "3"],).is_err());
    }

    #[test]
    fn rejects_bad_usage() {
        let spec = data_center();
        assert!(sweep(&spec, &["only", "three", "args"]).is_err());
        assert!(sweep(&spec, &["Ghost", "mtbf", "1", "2", "3"]).is_err());
        assert!(sweep(&spec, &["Server Box", "mtbf", "x", "2", "3"]).is_err());
    }
}
