//! Plain-text report generation (the paper lists "documentation
//! generation" among RAScad's features).

use std::fmt::Write as _;

use crate::hierarchy::SystemSolution;

/// An MTTF in hours: fixed-point below 10^9 h, scientific from there,
/// and a plain statement past `f64::MAX`.
fn mttf_text(hours: f64) -> String {
    match hours {
        f64::INFINITY => "beyond f64 (> 1.8e308 h)".to_string(),
        h if h >= 1e9 => format!("{h:.4e} h"),
        h => format!("{h:.1} h"),
    }
}

/// Renders a human-readable availability report for a solved system.
///
/// A clean solve renders byte-identically to previous releases, except
/// that an MTTF of 10^9 h or more prints in scientific notation. A
/// degraded (best-effort) solve adds a `PARTIAL RESULT` banner with the
/// availability bounds after the headline measures, and a failure table
/// after the block table — existing lines are never reworded.
#[must_use]
pub fn system_report(title: &str, sol: &SystemSolution) -> String {
    let mut out = String::new();
    let m = &sol.system;
    let _ = writeln!(out, "RAScad availability report: {title}");
    let _ = writeln!(out, "{}", "=".repeat(28 + title.len()));
    if sol.is_degraded() {
        let (lo, hi) = sol.availability_bounds();
        let _ = writeln!(
            out,
            "PARTIAL RESULT: {} of {} block(s) failed to solve; system measures are optimistic",
            sol.failed.len(),
            sol.blocks.len() + sol.failed.len(),
        );
        let _ = writeln!(out, "True availability bounds         : [{lo:.9}, {hi:.9}]");
    }
    let _ = writeln!(out, "System steady-state availability : {:.9}", m.availability);
    let _ = writeln!(out, "System unavailability            : {:.3e}", m.unavailability);
    let _ =
        writeln!(out, "Yearly downtime                  : {:.2} min", m.yearly_downtime_minutes);
    let _ = writeln!(out, "System failure rate              : {:.3e} /h", m.failure_rate);
    let _ = writeln!(out, "System recovery rate             : {:.3e} /h", m.recovery_rate);
    let _ = writeln!(out, "System MTBF                      : {:.1} h", m.mtbf_hours);
    let _ = writeln!(
        out,
        "Interval availability (0,{:.0}h)  : {:.9}",
        m.mission_hours, m.interval_availability
    );
    let _ = writeln!(out, "Reliability at mission time      : {:.6}", m.reliability_at_mission);
    let _ = writeln!(out, "System MTTF                      : {}", mttf_text(m.mttf_hours));
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<48} {:>5} {:>7} {:>14} {:>14}",
        "block", "type", "states", "availability", "downtime min/y"
    );
    for b in &sol.blocks {
        let indent = "  ".repeat(b.level.saturating_sub(1));
        let _ = writeln!(
            out,
            "{:<48} {:>5} {:>7} {:>14.9} {:>14.3}",
            format!("{indent}{}", b.path),
            b.model.model_type,
            b.model.states,
            b.measures.availability,
            b.measures.yearly_downtime_minutes,
        );
    }
    if sol.is_degraded() {
        let _ = writeln!(out);
        let _ = writeln!(out, "failed blocks (rolled up optimistically as availability 1):");
        for f in &sol.failed {
            let _ = writeln!(out, "{:<48} {}", f.path, f.error);
        }
    }
    out
}

/// Renders the per-state dwell budget of one block: how many minutes
/// per year the block spends in each state, separating up (degraded)
/// from down states — the table a RAS engineer reads to see *where* the
/// downtime comes from.
///
/// # Errors
///
/// Returns [`crate::CoreError::Markov`] if the chain cannot be solved.
pub fn block_dwell_report(
    model: &crate::generator::BlockModel,
) -> Result<String, crate::CoreError> {
    let pi = model
        .chain
        .steady_state(rascad_markov::SteadyStateMethod::Gth)
        .map_err(|source| crate::CoreError::Markov { block: model.name.clone(), source })?;
    let mut rows: Vec<(usize, f64)> = pi.iter().copied().enumerate().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "state dwell budget for \"{}\" (type {}, {} states):",
        model.name,
        model.model_type,
        model.state_count()
    );
    let _ = writeln!(out, "{:<16} {:>5} {:>16} {:>14}", "state", "up?", "probability", "min/year");
    for (i, p) in rows {
        let s = &model.chain.states()[i];
        let _ = writeln!(
            out,
            "{:<16} {:>5} {:>16.6e} {:>14.3}",
            s.label,
            if s.reward > 0.0 { "up" } else { "DOWN" },
            p,
            p * crate::measures::MINUTES_PER_YEAR,
        );
    }
    Ok(out)
}

/// Renders a generated chain as Graphviz DOT (for the paper's "graphical
/// output").
#[must_use]
pub fn chain_dot(model: &crate::generator::BlockModel) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", model.name.replace('"', "'"));
    let _ = writeln!(out, "    rankdir=LR;");
    for (i, s) in model.chain.states().iter().enumerate() {
        let shape = if s.reward > 0.0 { "ellipse" } else { "box" };
        let _ = writeln!(out, "    s{i} [label=\"{}\", shape={shape}];", s.label.replace('"', "'"));
    }
    for t in model.chain.transitions() {
        let _ = writeln!(out, "    s{} -> s{} [label=\"{:.3e}\"];", t.from, t.to, t.rate);
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_block;
    use crate::hierarchy::solve_spec;
    use rascad_spec::units::Hours;
    use rascad_spec::{BlockParams, Diagram, GlobalParams, SystemSpec};

    fn solved() -> SystemSolution {
        let mut d = Diagram::new("Sys");
        d.push(BlockParams::new("A", 1, 1).with_mtbf(Hours(10_000.0)));
        d.push(BlockParams::new("B", 2, 1));
        solve_spec(&SystemSpec::new(d, GlobalParams::default())).unwrap()
    }

    #[test]
    fn report_contains_key_lines() {
        let r = system_report("Test System", &solved());
        assert!(r.contains("Test System"));
        assert!(r.contains("Yearly downtime"));
        assert!(r.contains("Sys/A"));
        assert!(r.contains("Sys/B"));
        assert!(r.contains("Interval availability"));
    }

    #[test]
    fn mttf_prints_fixed_then_scientific_then_beyond_f64() {
        assert_eq!(mttf_text(12_345.67), "12345.7 h");
        assert_eq!(mttf_text(999_999_999.0), "999999999.0 h");
        assert_eq!(mttf_text(1e9), "1.0000e9 h");
        assert_eq!(mttf_text(4.239_912e136), "4.2399e136 h");
        assert_eq!(mttf_text(f64::INFINITY), "beyond f64 (> 1.8e308 h)");
    }

    #[test]
    fn dwell_report_accounts_for_the_whole_year() {
        let m = generate_block(&BlockParams::new("X", 2, 1), &GlobalParams::default()).unwrap();
        let text = block_dwell_report(&m).unwrap();
        assert!(text.contains("state dwell budget"));
        assert!(text.contains("Ok"));
        assert!(text.contains("DOWN"));
        // Sum of the printed min/year column ~ minutes per year.
        let total: f64 = text
            .lines()
            .skip(2)
            .filter_map(|l| l.split_whitespace().last()?.parse::<f64>().ok())
            .sum();
        assert!((total - 525_600.0).abs() < 1.0, "total {total}");
    }

    #[test]
    fn dot_output_is_well_formed() {
        let m = generate_block(&BlockParams::new("X", 2, 1), &GlobalParams::default()).unwrap();
        let dot = chain_dot(&m);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("rankdir=LR"));
        assert!(dot.trim_end().ends_with('}'));
        // One node line per state, one edge line per transition.
        assert_eq!(dot.matches("shape=").count(), m.state_count(),);
        assert_eq!(dot.matches(" -> ").count(), m.transition_count());
    }
}
