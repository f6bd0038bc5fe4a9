//! `stats` — pipeline statistics for one specification.
//!
//! Runs the full parse → validate → generate → solve pipeline with a
//! stopwatch around each stage and reports structural statistics
//! (blocks per chain type, state counts) plus the solver diagnostics
//! aggregated by `rascad-obs` (GTH solves, LU fill, pivot magnitudes).
//! With `--prometheus`, the solve-run metrics are rendered as a
//! Prometheus text-format (exposition 0.0.4) page instead — to a file
//! with `--out`, else to stdout.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rascad_core::generator::generate_block;
use rascad_core::solve_spec;
use rascad_obs::{Event, MetricKind, MetricsSummary, RegistrySnapshot, Sink, CATALOG};
use rascad_spec::{Block, Diagram, SystemSpec};

use super::CliError;

/// Keeps the final [`Event::Metrics`] of a drain so the command can
/// report solver diagnostics without a trace file.
struct CaptureSink(Arc<Mutex<Option<MetricsSummary>>>);

impl Sink for CaptureSink {
    fn event(&mut self, event: &Event) {
        if let Event::Metrics { counters, gauges, values } = event {
            if let Ok(mut slot) = self.0.lock() {
                *slot = Some(MetricsSummary {
                    counters: counters.clone(),
                    gauges: gauges.clone(),
                    values: values.clone(),
                });
            }
        }
    }
}

/// Disables tracing again if `stats` was the one to enable it, even on
/// an early error return.
struct CaptureGuard {
    active: bool,
}

impl Drop for CaptureGuard {
    fn drop(&mut self) {
        if self.active {
            rascad_obs::uninstall();
        }
    }
}

const CHAIN_TYPE_LABELS: [&str; 5] = [
    "type 0 (no redundancy, N = K)",
    "type 1 (transparent recovery, transparent repair)",
    "type 2 (transparent recovery, nontransparent repair)",
    "type 3 (nontransparent recovery, transparent repair)",
    "type 4 (nontransparent recovery, nontransparent repair)",
];

/// Parsed `stats` arguments.
struct StatsArgs<'a> {
    path: &'a str,
    prometheus: bool,
    out: Option<&'a str>,
}

fn parse_args<'a>(args: &[&'a str]) -> Result<StatsArgs<'a>, CliError> {
    let mut path = None;
    let mut prometheus = false;
    let mut out = None;
    let mut it = args.iter().copied();
    while let Some(a) = it.next() {
        match a {
            "--prometheus" => prometheus = true,
            "--out" => {
                out =
                    Some(it.next().ok_or_else(|| CliError::usage("--out needs a file argument"))?);
            }
            flag if flag.starts_with("--") => {
                return Err(CliError::usage(format!("unknown stats flag `{flag}`")));
            }
            positional if path.is_none() => path = Some(positional),
            extra => {
                return Err(CliError::usage(format!("unexpected stats argument `{extra}`")));
            }
        }
    }
    let path = path.ok_or_else(|| CliError::usage("stats needs a spec file argument"))?;
    if out.is_some() && !prometheus {
        return Err(CliError::usage("stats --out requires --prometheus"));
    }
    Ok(StatsArgs { path, prometheus, out })
}

/// Runs the pipeline on the spec at `path` and renders the statistics
/// report (or a Prometheus exposition page under `--prometheus`).
pub fn stats(args: &[&str]) -> Result<String, CliError> {
    let args = parse_args(args)?;
    let path = args.path;
    let text = std::fs::read_to_string(path)
        .map_err(|source| CliError::Io { path: path.to_string(), source })?;

    let t = Instant::now();
    let spec = if path.ends_with(".json") {
        SystemSpec::from_json(&text)?
    } else {
        SystemSpec::from_dsl(&text)?
    };
    let t_parse = t.elapsed();

    let t = Instant::now();
    spec.validate()?;
    let t_validate = t.elapsed();

    let t = Instant::now();
    let mut per_type = [0usize; 5];
    let mut total_states = 0usize;
    let mut total_transitions = 0usize;
    let mut largest: Option<(String, u8, usize)> = None;
    visit_blocks(&spec.root, "", &mut |block, block_path| {
        let model = generate_block(&block.params, &spec.globals)?;
        per_type[usize::from(model.model_type)] += 1;
        total_states += model.state_count();
        total_transitions += model.transition_count();
        if largest.as_ref().is_none_or(|&(_, _, s)| model.state_count() > s) {
            largest = Some((block_path, model.model_type, model.state_count()));
        }
        Ok(())
    })?;
    let t_generate = t.elapsed();

    // Collect solver diagnostics through the obs layer, unless the user
    // already routed them elsewhere with --trace/--timings. Installed
    // only now so the structural pass above doesn't double-count the
    // generation metrics: the solve stage runs one full generate+solve
    // pipeline, and that is what the diagnostics table reports.
    let captured: Arc<Mutex<Option<MetricsSummary>>> = Arc::new(Mutex::new(None));
    let own_subscriber = !rascad_obs::enabled();
    if own_subscriber {
        rascad_obs::install(vec![Box::new(CaptureSink(Arc::clone(&captured)))]);
    }
    let _guard = CaptureGuard { active: own_subscriber };

    let t = Instant::now();
    let sol = solve_spec(&spec)?;
    let t_solve = t.elapsed();

    // The Prometheus page is encoded from a registry scrape — labels
    // intact, histogram buckets included — taken before the drain
    // resets the shards.
    let scrape =
        if args.prometheus { Some(rascad_obs::MetricsRegistry::global().snapshot()) } else { None };

    if own_subscriber {
        rascad_obs::drain();
    }

    if let Some(snap) = scrape {
        return prometheus_report(&snap, args.out);
    }

    let mut out = String::new();
    let _ = writeln!(out, "pipeline statistics for \"{}\" ({path})", spec.root.name);
    let _ = writeln!(out);
    let _ = writeln!(out, "stage timings:");
    for (stage, d) in
        [("parse", t_parse), ("validate", t_validate), ("generate", t_generate), ("solve", t_solve)]
    {
        let _ = writeln!(out, "  {stage:<10} {}", fmt_stage(d));
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "blocks per chain type:");
    for (count, label) in per_type.iter().zip(CHAIN_TYPE_LABELS) {
        if *count > 0 {
            let _ = writeln!(out, "  {label:<56} {count:>4}");
        }
    }
    let blocks: usize = per_type.iter().sum();
    let _ = writeln!(
        out,
        "  total: {blocks} blocks, {total_states} states, {total_transitions} transitions"
    );
    if let Some((block_path, ty, states)) = largest {
        let _ = writeln!(out, "  largest chain: \"{block_path}\" (type {ty}, {states} states)");
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "system availability {:.9} ({:.1} min/y downtime)",
        sol.system.availability, sol.system.yearly_downtime_minutes
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "solver diagnostics:");
    match captured.lock().ok().and_then(|mut slot| slot.take()) {
        Some(m) => {
            let mut counters = m.counters;
            // Every catalogued counter appears — zero-filled when
            // nothing fired — so operators can grep for any known
            // metric unconditionally. The catalog is the single source
            // of truth; a counter added there can never silently go
            // missing here.
            for desc in CATALOG {
                if desc.kind == MetricKind::Counter
                    && !counters.iter().any(|(n, _)| series_base(n) == desc.name)
                {
                    counters.push((desc.name.to_string(), 0));
                }
            }
            counters.sort();
            for (name, v) in &counters {
                let _ = writeln!(out, "  {name:<36} {v:>12}");
            }
            if !m.gauges.is_empty() {
                let _ = writeln!(out, "  {:<36} {:>12}", "gauge", "value");
                for (name, v) in &m.gauges {
                    let _ = writeln!(out, "  {name:<36} {v:>12}");
                }
            }
            if !m.values.is_empty() {
                let _ = writeln!(
                    out,
                    "  {:<36} {:>6} {:>10} {:>10} {:>10} {:>10}",
                    "value", "count", "min", "mean", "p50", "max"
                );
                for (name, s) in &m.values {
                    let _ = writeln!(
                        out,
                        "  {name:<36} {:>6} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
                        s.count,
                        s.min,
                        s.mean(),
                        s.p50,
                        s.max
                    );
                }
            }
        }
        None => {
            let _ = writeln!(out, "  (streamed to the sinks installed by --trace/--timings)");
        }
    }
    Ok(out)
}

/// Rendered series name without its label block:
/// `cache.hits{kind="steady"}` → `cache.hits`.
fn series_base(rendered: &str) -> &str {
    rendered.split('{').next().unwrap_or(rendered)
}

/// Encodes a registry scrape as an exposition page, self-checked by the
/// bundled validator, written to `out` or returned for stdout.
fn prometheus_report(snap: &RegistrySnapshot, out: Option<&str>) -> Result<String, CliError> {
    let page = rascad_obs::prometheus::encode(snap);
    if let Err(e) = rascad_obs::prometheus::validate(&page) {
        // Internal invariant, not a user error: the encoder must always
        // produce validator-clean output.
        return Err(CliError::usage(format!("internal: generated exposition is invalid: {e}")));
    }
    match out {
        Some(file) => {
            std::fs::write(file, &page)
                .map_err(|source| CliError::Io { path: file.to_string(), source })?;
            let samples = page.lines().filter(|l| !l.starts_with('#') && !l.is_empty()).count();
            Ok(format!("wrote {samples} samples to {file}\n"))
        }
        None => Ok(page),
    }
}

/// Depth-first walk of every block in the hierarchy, passing its
/// slash-separated path.
fn visit_blocks(
    diagram: &Diagram,
    prefix: &str,
    f: &mut impl FnMut(&Block, String) -> Result<(), CliError>,
) -> Result<(), CliError> {
    for block in &diagram.blocks {
        let block_path = if prefix.is_empty() {
            block.params.name.clone()
        } else {
            format!("{prefix}/{}", block.params.name)
        };
        f(block, block_path.clone())?;
        if let Some(sub) = &block.subdiagram {
            visit_blocks(sub, &block_path, f)?;
        }
    }
    Ok(())
}

fn fmt_stage(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.3} s")
    } else {
        format!("{:.3} ms", s * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_spec(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, rascad_library::datacenter::data_center().to_dsl()).unwrap();
        path
    }

    #[test]
    fn stats_reports_stages_types_and_diagnostics() {
        let _lock = crate::commands::obs_test_lock();
        let path = write_spec("rascad_stats_test.rascad");

        let out = stats(&[path.to_str().unwrap()]).unwrap();
        assert!(out.contains("stage timings:"), "{out}");
        for stage in ["parse", "validate", "generate", "solve"] {
            assert!(out.contains(stage), "missing stage {stage}: {out}");
        }
        assert!(out.contains("blocks per chain type:"), "{out}");
        assert!(out.contains("type 0"), "{out}");
        assert!(out.contains("largest chain:"), "{out}");
        assert!(out.contains("system availability"), "{out}");
        assert!(out.contains("solver diagnostics:"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_zero_fills_every_catalogued_counter() {
        let _lock = crate::commands::obs_test_lock();
        let path = write_spec("rascad_stats_zero.rascad");
        let out = stats(&[path.to_str().unwrap()]).unwrap();
        // Robustness counters cannot fire on a healthy solve, yet they
        // appear (zero-filled from the catalog), as does every other
        // catalogued counter family.
        for name in ["engine.worker_panics", "solve.timeouts"] {
            assert!(out.contains(name), "missing zero-filled {name}: {out}");
        }
        for desc in CATALOG {
            if desc.kind == MetricKind::Counter {
                assert!(out.contains(desc.name), "catalog counter {} missing", desc.name);
            }
        }
        // Labeled series from the solve show up rendered. (Whether the
        // run hits or misses depends on how warm the process-wide
        // engine cache is, but one of the two must have fired.)
        assert!(
            out.contains("core.cache.hits{kind=\"") || out.contains("core.cache.misses{kind=\""),
            "{out}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_prometheus_emits_validator_clean_page() {
        let _lock = crate::commands::obs_test_lock();
        let path = write_spec("rascad_stats_prom.rascad");
        let page = stats(&[path.to_str().unwrap(), "--prometheus"]).unwrap();
        rascad_obs::prometheus::validate(&page).unwrap();
        assert!(page.contains("# TYPE rascad_core_specs_solved counter"), "{page}");
        assert!(page.contains("rascad_core_specs_solved 1"), "{page}");
        // Catalogued counters are zero-filled even when the warm
        // process-wide cache skipped the solver entirely.
        assert!(page.contains("# TYPE rascad_markov_solves counter"), "{page}");
        // Histograms are native: buckets, sum, count. Block generation
        // always runs, so its state-count histogram is always present.
        assert!(page.contains("rascad_core_block_states_bucket"), "{page}");
        assert!(page.contains("rascad_core_block_states_count 23"), "{page}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_prometheus_out_writes_file() {
        let _lock = crate::commands::obs_test_lock();
        let path = write_spec("rascad_stats_promout.rascad");
        let out_file = std::env::temp_dir().join("rascad_stats_m.prom");
        let msg =
            stats(&[path.to_str().unwrap(), "--prometheus", "--out", out_file.to_str().unwrap()])
                .unwrap();
        assert!(msg.contains("wrote"), "{msg}");
        let page = std::fs::read_to_string(&out_file).unwrap();
        rascad_obs::prometheus::validate(&page).unwrap();
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&out_file).ok();
    }

    #[test]
    fn stats_flag_parsing_rejects_bad_usage() {
        assert!(stats(&[]).is_err());
        assert!(stats(&["--prometheus"]).is_err()); // no spec path
        let e = stats(&["spec.rascad", "--out", "x.prom"]).unwrap_err();
        assert!(matches!(e, CliError::Usage(_)), "{e:?}");
        assert!(stats(&["a.rascad", "b.rascad"]).is_err());
        assert!(stats(&["a.rascad", "--frobnicate"]).is_err());
    }

    #[test]
    fn stats_missing_file_is_io_error() {
        let e = stats(&["/no/such/spec.rascad"]).unwrap_err();
        assert!(matches!(e, CliError::Io { .. }));
        assert_eq!(e.exit_code(), 5);
    }
}
