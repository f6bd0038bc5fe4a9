//! End-to-end tests of the compiled `rascad` binary.

use std::process::Command;

fn rascad(args: &[&str]) -> (bool, String, String) {
    let (code, stdout, stderr) = rascad_code(args);
    (code == Some(0), stdout, stderr)
}

fn rascad_code(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rascad")).args(args).output().expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_exits_zero() {
    let (ok, stdout, _) = rascad(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn unknown_command_exits_nonzero_with_stderr() {
    let (ok, _, stderr) = rascad(&["bogus"]);
    assert!(!ok);
    assert!(stderr.contains("error:"));
}

#[test]
fn pipeline_library_to_solve() {
    let dir = std::env::temp_dir();
    let path = dir.join("rascad_binary_test.rascad");

    let (ok, dsl, _) = rascad(&["library", "cluster"]);
    assert!(ok);
    std::fs::write(&path, &dsl).unwrap();

    let p = path.to_str().unwrap();
    let (ok, report, _) = rascad(&["solve", p]);
    assert!(ok);
    assert!(report.contains("Yearly downtime"));

    let (ok, dot, _) = rascad(&["dot", p, "Cluster Node"]);
    assert!(ok);
    assert!(dot.starts_with("digraph"));

    let (ok, modes, _) = rascad(&["modes", p, "Cluster Node"]);
    assert!(ok);
    assert!(modes.contains('%'));

    std::fs::remove_file(&path).ok();
}

#[test]
fn three_thousand_unit_pool_solves_its_mttf() {
    // The dense −Q_UU of this pool (3,000 up states, 9·10^6 entries)
    // was over the storage bound; the band elimination solves it in
    // linear time. The MTTF does not depend on the mission time, so a
    // one-hour mission keeps the interval series short.
    let path = std::env::temp_dir().join("rascad_binary_test_pool_3000.rascad");
    let spec = "global {\n    mission_time = 1 h\n}\n\ndiagram \"Pool\" {\n    block \"Units\" {\n        \
                quantity = 3000\n        min_quantity = 1\n        mtbf = 10000 h\n    }\n}\n";
    std::fs::write(&path, spec).unwrap();
    let p = path.to_str().unwrap();
    let (ok, report, stderr) = rascad(&["solve", p]);
    assert!(ok, "{stderr}");
    assert!(
        report.contains("System MTTF                      : beyond f64 (> 1.8e308 h)"),
        "{report}"
    );
    // Its availability rounds above 1; the system unavailability rolls
    // up from the block's, so it is 0, not 1 − A = −6.661e-16.
    assert!(report.contains("System unavailability            : 0.000e0\n"), "{report}");
    assert!(report.contains("Yearly downtime                  : 0.00 min\n"), "{report}");
    assert!(!report.contains(": -"), "{report}");
    let (ok, modes, stderr) = rascad(&["modes", p, "Units"]);
    assert!(ok, "{stderr}");
    assert!(modes.contains("PF3000           100.000%"), "{modes}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn lint_bound_check_reads_the_rolled_up_unavailability() {
    // A 10-unit, min-1 pool's availability also rounds above 1 (1 − A
    // is −2.2e-16), and its Tier C analysis is instant where the
    // 3000-unit pool's takes seconds. RAS205 prints the roll-up.
    let path = std::env::temp_dir().join("rascad_binary_test_pool_10.rascad");
    let spec = "global {\n    mission_time = 1 h\n}\n\ndiagram \"Pool\" {\n    block \"Units\" {\n        \
                quantity = 10\n        min_quantity = 1\n        mtbf = 10000 h\n    }\n}\n";
    std::fs::write(&path, spec).unwrap();
    let (ok, lint, stderr) = rascad(&["lint", path.to_str().unwrap(), "--tier-c"]);
    assert!(ok, "{stderr}");
    assert!(
        lint.contains("exact system unavailability 0.000e0 <= 0.000e0, the union bound"),
        "{lint}"
    );
    // Each Tier C pass closes a span of its own inside `lint.tier_c`.
    let (ok, trace, stderr) = rascad(&["--trace", "-", "lint", path.to_str().unwrap(), "--tier-c"]);
    assert!(ok, "{stderr}");
    let (mut tier_c, mut inside) = (None, Vec::new());
    for line in trace.lines().filter(|l| l.starts_with('{')) {
        let v = rascad_obs::json::parse(line).unwrap();
        if v.get("ev").and_then(|e| e.as_str()) != Some("span_start") {
            continue;
        }
        let name = v.get("name").unwrap().as_str().unwrap().to_string();
        if name == "lint.tier_c" {
            tier_c = v.get("id").and_then(|i| i.as_f64());
        } else if tier_c.is_some() && v.get("parent").and_then(|p| p.as_f64()) == tier_c {
            inside.push(name);
        }
    }
    let passes = ["compile", "spof", "idle", "importance", "symmetry", "bound"];
    assert_eq!(inside, passes.map(|p| format!("lint.tier_c.{p}")), "{trace}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_file_is_a_clean_error() {
    let (ok, _, stderr) = rascad(&["solve", "/definitely/not/here.rascad"]);
    assert!(!ok);
    assert!(!stderr.is_empty());
}

#[test]
fn exit_codes_distinguish_error_classes() {
    // Usage errors: unknown command, missing operand.
    let (code, _, _) = rascad_code(&["bogus"]);
    assert_eq!(code, Some(2));
    let (code, _, _) = rascad_code(&["solve"]);
    assert_eq!(code, Some(2));

    // Spec errors: file exists but fails to parse.
    let dir = std::env::temp_dir();
    let bad = dir.join("rascad_binary_bad.rascad");
    std::fs::write(&bad, "this is not a spec").unwrap();
    let (code, _, stderr) = rascad_code(&["solve", bad.to_str().unwrap()]);
    assert_eq!(code, Some(3), "{stderr}");
    // The diagnostic formatter prints the underlying cause chain.
    assert!(stderr.contains("error: invalid specification"), "{stderr}");
    assert!(stderr.contains("caused by:"), "{stderr}");
    std::fs::remove_file(&bad).ok();

    // I/O errors: unreadable path.
    let (code, _, _) = rascad_code(&["solve", "/definitely/not/here.rascad"]);
    assert_eq!(code, Some(5));
}

#[test]
fn trace_to_stdout_emits_parseable_json_lines() {
    let dir = std::env::temp_dir();
    let path = dir.join("rascad_binary_trace.rascad");
    let (ok, dsl, _) = rascad(&["library", "workgroup"]);
    assert!(ok);
    std::fs::write(&path, &dsl).unwrap();

    let (ok, stdout, _) = rascad(&["solve", "--trace", "-", path.to_str().unwrap()]);
    assert!(ok);
    // The report is still there alongside the trace.
    assert!(stdout.contains("Yearly downtime"), "{stdout}");

    // Every trace line is strict JSON; collect the span names seen.
    let mut span_names = Vec::new();
    let mut metrics_seen = false;
    let mut trace_lines = 0;
    for line in stdout.lines().filter(|l| l.starts_with('{')) {
        trace_lines += 1;
        let v = rascad_obs::json::parse(line)
            .unwrap_or_else(|e| panic!("unparseable trace line `{line}`: {e}"));
        match v.get("ev").and_then(|e| e.as_str()) {
            Some("span_start" | "span_end") => {
                span_names.push(v.get("name").unwrap().as_str().unwrap().to_string());
                if v.get("ev").unwrap().as_str() == Some("span_end") {
                    assert!(v.get("elapsed_us").unwrap().as_f64().unwrap() >= 0.0);
                }
            }
            Some("metrics") => {
                metrics_seen = true;
                let counters = v.get("counters").unwrap();
                assert!(counters.get("core.blocks_generated").is_some(), "{line}");
            }
            other => panic!("unexpected event {other:?} in `{line}`"),
        }
    }
    assert!(trace_lines > 4, "expected a real trace, got {trace_lines} lines");
    assert!(metrics_seen, "no metrics event in trace");
    // Parse, generate, and solve stages must all be covered.
    for expected in ["spec.parse_dsl", "core.generate_block", "core.solve_spec", "markov.gth"] {
        assert!(
            span_names.iter().any(|n| n == expected),
            "span `{expected}` missing from {span_names:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_to_file_and_timings_to_stderr() {
    let dir = std::env::temp_dir();
    let spec_path = dir.join("rascad_binary_trace_file.rascad");
    let trace_path = dir.join("rascad_binary_trace_file.jsonl");
    let (ok, dsl, _) = rascad(&["library", "cluster"]);
    assert!(ok);
    std::fs::write(&spec_path, &dsl).unwrap();

    let (ok, stdout, stderr) = rascad(&[
        "--timings",
        "solve",
        "--trace",
        trace_path.to_str().unwrap(),
        spec_path.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    // Report stays clean on stdout; the timing table goes to stderr.
    assert!(stdout.contains("Yearly downtime"));
    assert!(!stdout.contains("span_start"));
    assert!(stderr.contains("rascad timings"), "{stderr}");
    assert!(stderr.contains("core.solve_spec"), "{stderr}");
    // Exactly one summary table despite drain + uninstall both flushing.
    assert_eq!(stderr.matches("rascad timings").count(), 1, "{stderr}");

    let trace = std::fs::read_to_string(&trace_path).unwrap();
    assert!(trace.lines().count() > 4);
    for line in trace.lines() {
        rascad_obs::json::parse(line).expect("trace file line parses");
    }
    std::fs::remove_file(&spec_path).ok();
    std::fs::remove_file(&trace_path).ok();
}

#[test]
fn stats_command_reports_pipeline() {
    let dir = std::env::temp_dir();
    let path = dir.join("rascad_binary_stats.rascad");
    let (ok, dsl, _) = rascad(&["library", "e10000"]);
    assert!(ok);
    std::fs::write(&path, &dsl).unwrap();

    let (ok, stdout, _) = rascad(&["stats", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("stage timings:"), "{stdout}");
    assert!(stdout.contains("blocks per chain type:"), "{stdout}");
    assert!(stdout.contains("solver diagnostics:"), "{stdout}");
    // A fresh process has a cold solve cache, so the solver really ran.
    assert!(stdout.contains("markov.solves{method=\"gth\"}"), "{stdout}");
    // Robustness counters are always listed, zero-filled on a clean run.
    for counter in ["engine.worker_panics", "solve.timeouts"] {
        assert!(stdout.contains(counter), "missing {counter}:\n{stdout}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn stats_prometheus_page_passes_the_validator() {
    let dir = std::env::temp_dir();
    let path = dir.join("rascad_binary_stats_prom.rascad");
    let (ok, dsl, _) = rascad(&["library", "cluster"]);
    assert!(ok);
    std::fs::write(&path, &dsl).unwrap();

    let (ok, page, stderr) = rascad(&["stats", path.to_str().unwrap(), "--prometheus"]);
    assert!(ok, "{stderr}");
    rascad_obs::prometheus::validate(&page).unwrap_or_else(|e| panic!("invalid page: {e}\n{page}"));
    assert!(page.contains("rascad_markov_solves{method=\"gth\"}"), "{page}");
    assert!(page.contains("rascad_core_cache_misses{kind=\"steady\"}"), "{page}");
    assert!(page.contains("rascad_markov_gth_states_bucket"), "{page}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn metrics_out_writes_a_scrape_ready_snapshot() {
    let dir = std::env::temp_dir();
    let spec_path = dir.join("rascad_binary_metrics_out.rascad");
    let prom_path = dir.join("rascad_binary_metrics_out.prom");
    let (ok, dsl, _) = rascad(&["library", "workgroup"]);
    assert!(ok);
    std::fs::write(&spec_path, &dsl).unwrap();

    let (ok, stdout, stderr) = rascad(&[
        "--metrics-out",
        prom_path.to_str().unwrap(),
        "solve",
        spec_path.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("Yearly downtime"), "{stdout}");

    let page = std::fs::read_to_string(&prom_path).unwrap();
    rascad_obs::prometheus::validate(&page).unwrap_or_else(|e| panic!("invalid page: {e}\n{page}"));
    assert!(page.contains("rascad_core_blocks_generated"), "{page}");
    assert!(page.contains("rascad_markov_solves{method=\"gth\"}"), "{page}");
    std::fs::remove_file(&spec_path).ok();
    std::fs::remove_file(&prom_path).ok();
}

#[test]
fn trace_out_writes_a_loadable_chrome_trace() {
    let dir = std::env::temp_dir();
    let spec_path = dir.join("rascad_binary_trace_out.rascad");
    let trace_path = dir.join("rascad_binary_trace_out.json");
    let (ok, dsl, _) = rascad(&["library", "cluster"]);
    assert!(ok);
    std::fs::write(&spec_path, &dsl).unwrap();

    let (ok, stdout, stderr) = rascad(&[
        "--trace-out",
        trace_path.to_str().unwrap(),
        "solve",
        spec_path.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("Yearly downtime"), "{stdout}");

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let names = rascad_obs::chrome_trace::validate(&text)
        .unwrap_or_else(|e| panic!("invalid chrome trace: {e}\n{text}"));
    for expected in ["spec.parse_dsl", "core.generate_block", "core.solve_spec", "markov.gth"] {
        assert!(names.iter().any(|n| n == expected), "span `{expected}` missing from {names:?}");
    }
    std::fs::remove_file(&spec_path).ok();
    std::fs::remove_file(&trace_path).ok();
}
