//! Binary-level chaos suite: drives `rascad solve --inject <plan.toml>`
//! against the compiled binary and asserts the contract end to end —
//! typed errors on stderr, the documented exit codes (4 strict, 8
//! best-effort partial), and uninjected block rows byte-identical to a
//! clean run.
//!
//! Requires the `fault-inject` feature (see `[[test]]` in Cargo.toml).

use std::path::PathBuf;
use std::process::Command;

fn rascad(args: &[&str]) -> (Option<i32>, String, String) {
    // Failing runs dump the flight recorder; keep it out of the cwd.
    let scratch = std::env::temp_dir().join("rascad_chaos_flight_scratch.jsonl");
    rascad_flight(args, &scratch)
}

fn rascad_flight(args: &[&str], flight_path: &std::path::Path) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rascad"))
        .args(args)
        .env("RASCAD_FLIGHT_PATH", flight_path)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

const SPEC: &str = r#"
diagram "Sys" {
    block "A" {
        quantity = 1
        min_quantity = 1
        mtbf = 10000 h
    }
    block "B" {
        quantity = 1
        min_quantity = 1
        mtbf = 20000 h
    }
    block "Box" {
        quantity = 1
        min_quantity = 1
        mtbf = 1000000 h
        subdiagram "Internals" {
            block "CPU" {
                quantity = 1
                min_quantity = 1
                mtbf = 50000 h
            }
        }
    }
}
"#;

/// Writes the shared spec and a fault plan to unique temp files.
fn fixture(tag: &str, plan: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir();
    let spec_path = dir.join(format!("rascad_chaos_{tag}.rascad"));
    let plan_path = dir.join(format!("rascad_chaos_{tag}.toml"));
    std::fs::write(&spec_path, SPEC).unwrap();
    std::fs::write(&plan_path, plan).unwrap();
    (spec_path, plan_path)
}

fn cleanup(paths: &[&PathBuf]) {
    for p in paths {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn best_effort_panic_yields_partial_report_and_exit_8() {
    let (spec, plan) = fixture("panic_be", "[[inject]]\nblock = \"B\"\nkind = \"panic\"\n");
    let s = spec.to_str().unwrap();

    let (code, clean, _) = rascad(&["solve", s]);
    assert_eq!(code, Some(0));

    let (code, partial, stderr) =
        rascad(&["solve", s, "--best-effort", "--inject", plan.to_str().unwrap()]);
    assert_eq!(code, Some(8), "{stderr}");
    assert!(partial.contains("PARTIAL RESULT: 1 of 4 block(s) failed to solve"), "{partial}");
    assert!(partial.contains("True availability bounds"), "{partial}");
    assert!(partial.contains("failed blocks (rolled up optimistically"), "{partial}");
    assert!(partial.contains("worker panicked while solving block \"Sys/B\""), "{partial}");
    assert!(stderr.contains("partial result"), "{stderr}");
    // The caught worker panic must not spray the default panic hook's
    // backtrace onto stderr.
    assert!(!stderr.contains("stack backtrace"), "caught panic leaked a backtrace:\n{stderr}");

    // Every surviving block's report row is byte-identical to the
    // clean run's row.
    for path in ["Sys/A", "Sys/Box", "Sys/Box/CPU"] {
        let clean_row = clean
            .lines()
            .find(|l| l.trim_start().starts_with(path))
            .unwrap_or_else(|| panic!("clean run misses {path}"));
        assert!(
            partial.lines().any(|l| l == clean_row),
            "row for {path} diverged:\nclean:   {clean_row}\npartial:\n{partial}"
        );
    }
    // The injected block's row moved out of the measures table into the
    // failure table.
    let (table, failures) = partial.split_once("failed blocks").expect("failure table present");
    assert!(!table.lines().any(|l| l.trim_start().starts_with("Sys/B ")), "{table}");
    assert!(failures.contains("Sys/B"), "{failures}");

    cleanup(&[&spec, &plan]);
}

#[test]
fn strict_panic_is_a_typed_solver_error_with_exit_4() {
    let (spec, plan) = fixture("panic_strict", "[[inject]]\nblock = \"B\"\nkind = \"panic\"\n");
    let (code, stdout, stderr) =
        rascad(&["solve", spec.to_str().unwrap(), "--inject", plan.to_str().unwrap()]);
    assert_eq!(code, Some(4), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("worker panicked while solving block \"Sys/B\""), "{stderr}");
    cleanup(&[&spec, &plan]);
}

#[test]
fn not_converged_fault_is_a_typed_singular_with_exit_4() {
    let (spec, plan) = fixture("notconv", "[[inject]]\nblock = \"A\"\nkind = \"not-converged\"\n");
    let (code, _, stderr) =
        rascad(&["solve", spec.to_str().unwrap(), "--inject", plan.to_str().unwrap()]);
    assert_eq!(code, Some(4), "{stderr}");
    // The plan kind fails the block's one steady solve as singular.
    assert!(stderr.contains("singular"), "{stderr}");
    cleanup(&[&spec, &plan]);
}

#[test]
fn timeout_fault_is_typed_fast_and_exit_4() {
    let (spec, plan) = fixture("timeout", "[[inject]]\nblock = \"Box/CPU\"\nkind = \"timeout\"\n");
    let t0 = std::time::Instant::now();
    let (code, _, stderr) =
        rascad(&["solve", spec.to_str().unwrap(), "--inject", plan.to_str().unwrap()]);
    assert!(t0.elapsed() < std::time::Duration::from_secs(20), "took {:?}", t0.elapsed());
    assert_eq!(code, Some(4), "{stderr}");
    assert!(stderr.contains("exceeded its wall-clock budget"), "{stderr}");
    cleanup(&[&spec, &plan]);
}

#[test]
fn nan_rate_fault_fails_certification_not_silently() {
    // The fault corrupts the solution vector *after* a successful solve,
    // so no solver-internal check can see it — the independent
    // certificate must, and the run must die with a solver error.
    let (spec, plan) = fixture("nanrate", "[[inject]]\nblock = \"A\"\nkind = \"nan-rate\"\n");
    let (code, _, stderr) =
        rascad(&["solve", spec.to_str().unwrap(), "--inject", plan.to_str().unwrap()]);
    assert_eq!(code, Some(4), "{stderr}");
    assert!(stderr.contains("failed certification"), "{stderr}");
    cleanup(&[&spec, &plan]);
}

#[test]
fn malformed_plan_is_a_usage_error() {
    let (spec, plan) = fixture("badplan", "[[inject]]\nblock = \"A\"\nkind = \"gremlins\"\n");
    let (code, _, stderr) =
        rascad(&["solve", spec.to_str().unwrap(), "--inject", plan.to_str().unwrap()]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("fault plan"), "{stderr}");
    cleanup(&[&spec, &plan]);
}

#[test]
fn degraded_solve_dumps_the_flight_recorder() {
    let (spec, plan) = fixture("flight", "[[inject]]\nblock = \"B\"\nkind = \"panic\"\n");
    let flight = std::env::temp_dir().join("rascad_chaos_flight_dump.jsonl");
    std::fs::remove_file(&flight).ok();

    let (code, _, stderr) = rascad_flight(
        &["solve", spec.to_str().unwrap(), "--best-effort", "--inject", plan.to_str().unwrap()],
        &flight,
    );
    assert_eq!(code, Some(8), "{stderr}");
    assert!(stderr.contains("flight recorder:"), "no dump notice on stderr:\n{stderr}");

    let dump = std::fs::read_to_string(&flight).expect("flight dump written");
    let mut lines = dump.lines();
    let header = rascad_obs::json::parse(lines.next().expect("header line")).unwrap();
    assert_eq!(header.get("flight_recorder").unwrap().as_str(), Some("rascad"));
    let incidents = match header.get("incidents").unwrap() {
        rascad_obs::json::Value::Arr(items) => items,
        other => panic!("incidents is not an array: {other:?}"),
    };
    assert!(incidents.iter().any(|i| i.as_str().is_some_and(|s| s.contains("Sys/B"))), "{dump}");
    // Every event line is strict JSON, and the failing block's solve
    // span made it into the ring.
    let mut saw_failed_span = false;
    for line in lines {
        let v = rascad_obs::json::parse(line)
            .unwrap_or_else(|e| panic!("unparseable flight line `{line}`: {e}"));
        let kind = v.get("kind").and_then(|k| k.as_str()).expect("event has a kind");
        if kind == "span_end"
            && v.get("detail").and_then(|d| d.as_str()).is_some_and(|d| d.contains("Sys/B"))
        {
            saw_failed_span = true;
        }
    }
    assert!(saw_failed_span, "failed block's span missing from dump:\n{dump}");

    cleanup(&[&spec, &plan, &flight]);
}

#[test]
fn empty_plan_leaves_the_solve_clean() {
    let (spec, plan) = fixture("emptyplan", "# no injections\nseed = 7\n");
    let s = spec.to_str().unwrap();
    let (code, clean, _) = rascad(&["solve", s]);
    assert_eq!(code, Some(0));
    let (code, with_plan, _) =
        rascad(&["solve", s, "--best-effort", "--inject", plan.to_str().unwrap()]);
    assert_eq!(code, Some(0));
    assert_eq!(clean, with_plan, "an empty plan must not perturb the report");
    cleanup(&[&spec, &plan]);
}
