#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, and the full offline test suite.
#
# Runs entirely offline — no network, no crates.io. The vendored
# stand-in crates under vendor/ satisfy every external dependency, so
# `--offline` is passed to each cargo invocation.
#
# Usage: scripts/ci.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets --all-features (deny warnings + promoted pedantic lints)"
# --all-features lints the feature-gated targets too (the fault-inject
# chaos suites), so a gated target that cannot build fails here. The
# three most frequent lints from the pedantic report below are
# promoted to hard errors; the rest stay report-only.
cargo clippy --workspace --all-targets --all-features --offline -- -D warnings \
    -D clippy::must-use-candidate \
    -D clippy::float-cmp \
    -D clippy::cast-precision-loss

echo "==> cargo test --workspace"
cargo test --workspace --offline -q

# The benchmark is a package of its own outside the workspace; build
# and test it here so a change to an API it calls (transient::solve,
# absorbing::mttf, reliability_curve) fails CI, not the benchmark build.
echo "==> cargo test perfbench"
cargo test --offline -q --manifest-path perfbench/Cargo.toml

# Every bundled spec and library model must lint clean through Tier C:
# errors and warnings block (exit 7); info-level notes (including the
# expected RAS2xx structural findings) are allowed.
echo "==> rascad lint --tier-c (bundled specs and library models, deny warnings)"
for spec in specs/*.rascad; do
    cargo run --offline -q -p rascad-cli -- lint "$spec" --tier-c --deny warnings > /dev/null
done
for model in datacenter e10000 cluster workgroup; do
    cargo run --offline -q -p rascad-cli -- library "$model" |
        cargo run --offline -q -p rascad-cli -- lint - --tier-c --deny warnings > /dev/null
done

# Tier C golden check: a seeded spec with a known single point of
# failure must yield RAS201 at the declaring line:column ("Database"
# is declared on line 7, name token at column 11).
echo "==> tier C SPOF golden check (RAS201 at expected line:column)"
cat > target/ci_spof.rascad <<'SPEC'
diagram "Shop" {
    block "Web" {
        quantity = 2
        min_quantity = 1
        mtbf = 50000 h
    }
    block "Database" {
        quantity = 1
        min_quantity = 1
        mtbf = 80000 h
    }
}
SPEC
cargo run --offline -q -p rascad-cli -- lint target/ci_spof.rascad \
    --tier-c --format json > target/ci_spof.jsonl
grep '"code":"RAS201"' target/ci_spof.jsonl |
    grep '"path":"Shop/Database"' |
    grep '"line":7' | grep -q '"column":11'

# Non-blocking performance report: run the quick benchmark suite and
# check that the emitted document is parseable and schema-valid. No
# baseline comparison here — absolute timings vary too much across CI
# hosts to gate on; compare against a checked-in BENCH_*.json locally
# with `rascad bench --compare` (exit 6 flags a regression).
echo "==> bench smoke (rascad bench --quick, report only)"
cargo run --offline -q -p rascad-cli -- bench --quick --label ci-smoke \
    --out target/bench_smoke.json > /dev/null
cargo run --offline -q -p rascad-cli -- bench --validate target/bench_smoke.json

# Convergence-document golden check: a traced solve must write a
# schema-valid rascad-convergence/v1 document (the CLI runs it through
# trace::validate before writing, so a clean exit means the validator
# passed) with at least one per-iteration series, and --explain must
# append the certificate table to the report.
echo "==> convergence trace golden check (solve --convergence-out / --explain)"
cargo run --offline -q -p rascad-cli -- library datacenter > target/ci_conv_dc.rascad
cargo run --offline -q -p rascad-cli -- solve target/ci_conv_dc.rascad \
    --convergence-out target/ci_conv.json > /dev/null
grep -q '"schema": "rascad-convergence/v1"' target/ci_conv.json
grep -q '"method": "gth"' target/ci_conv.json
grep -q '"metric": "pivot"' target/ci_conv.json
cargo run --offline -q -p rascad-cli -- solve target/ci_conv_dc.rascad --explain \
    > target/ci_explain.txt
grep -q "Convergence traces" target/ci_explain.txt
grep -q "Solution certificates" target/ci_explain.txt
grep -q " ok " target/ci_explain.txt

# Accuracy-gate smoke: record a quick baseline, shrink every stage
# certificate residual a million-fold (so the fresh run looks 1e6x
# worse), and compare with the cross-machine noise floor disabled.
# The doctored residual ratio must trip the accuracy gate: exit 6.
echo "==> bench accuracy-gate smoke (doctored baseline, expect exit 6)"
cargo run --offline -q -p rascad-cli -- bench --quick --label ci-acc \
    --out target/bench_acc_base.json > /dev/null
python3 - <<'PY'
import json
with open("target/bench_acc_base.json") as f:
    doc = json.load(f)
doctored = 0
for stage in doc["stages"]:
    cert = stage.get("certificate")
    if cert and isinstance(cert.get("residual"), float) and cert["residual"] > 0:
        cert["residual"] /= 1e6
        doctored += 1
assert doctored > 0, "no certificates found to doctor"
with open("target/bench_acc_base.json", "w") as f:
    json.dump(doc, f)
PY
set +e
RASCAD_FLIGHT_PATH=target/ci_acc_flight.jsonl \
cargo run --offline -q -p rascad-cli -- bench --quick --label ci-acc \
    --compare target/bench_acc_base.json --residual-floor 0 \
    > target/bench_acc_report.txt 2>&1
acc_code=$?
set -e
if [ "$acc_code" -ne 6 ]; then
    echo "accuracy-gate smoke: expected exit 6, got $acc_code"
    cat target/bench_acc_report.txt
    exit 1
fi
grep -q "residual:" target/bench_acc_report.txt
grep -q "FAIL" target/bench_acc_report.txt

# Sweep-scaling smoke: run the cached/parallel sweep workload at one
# thread and at the machine's parallelism. Validation rejects the
# document outright if the engine's results were not bit-identical to
# the sequential reference. Timing ratios are recorded, not gated —
# refresh the committed baseline with `rascad bench --sweep --full`.
echo "==> bench sweep scaling (1 and N threads, report only)"
RASCAD_THREADS=1 cargo run --offline -q -p rascad-cli -- bench --sweep --quick \
    --label sweep-t1 --out target/bench_sweep_t1.json > /dev/null
cargo run --offline -q -p rascad-cli -- bench --validate target/bench_sweep_t1.json
cargo run --offline -q -p rascad-cli -- bench --sweep --quick \
    --label sweep-tn --out target/bench_sweep_tn.json > /dev/null
cargo run --offline -q -p rascad-cli -- bench --validate target/bench_sweep_tn.json

# Large-state-space smoke: a fresh quick run must solve the 10^4-state
# chain by band GTH with a certified ok residual. The validator gates
# the machine-independent claims outright (GTH certificate < 1e-9,
# occupancy lump to n+1 states, lump proof within 1e-9, bit-identical
# repeats); timings are never gated across hosts.
echo "==> bench large state space (quick smoke)"
cargo run --offline -q -p rascad-cli -- bench --large --quick \
    --label large-smoke --out target/bench_large_smoke.json > /dev/null
cargo run --offline -q -p rascad-cli -- bench --validate target/bench_large_smoke.json

# Absorbing-elimination smoke: a 60-unit pool that needs one unit
# up. Its MTTF (~10^136.6 h) fits f64 but defeats a dense LU on
# −Q_UU; the band elimination must print it, and exit 0.
echo "==> pool MTTF smoke (60 units, min_quantity 1: 4.2399e136 h)"
cat > target/ci_pool60.rascad <<'SPEC'
diagram "Pool" {
    block "Units" {
        quantity = 60
        min_quantity = 1
        mtbf = 10000 h
    }
}
SPEC
cargo run --offline -q -p rascad-cli -- solve target/ci_pool60.rascad > target/ci_pool60.txt
grep -q '^System MTTF *: 4.2399e136 h$' target/ci_pool60.txt

# A 3000-unit pool over a one-hour mission: its availability rounds
# above 1, and the system unavailability (rolled up from the blocks,
# not 1 − A) must still print as nonnegative.
echo "==> pool unavailability smoke (3000 units, min_quantity 1, 1 h mission: not negative)"
cat > target/ci_pool3000.rascad <<'SPEC'
global {
    mission_time = 1 h
}
diagram "Pool" {
    block "Units" {
        quantity = 3000
        min_quantity = 1
        mtbf = 10000 h
    }
}
SPEC
cargo run --offline -q -p rascad-cli -- solve target/ci_pool3000.rascad > target/ci_pool3000.txt
grep -q '^System unavailability *: ' target/ci_pool3000.txt
if grep -q '^System unavailability *: -' target/ci_pool3000.txt; then
    echo "pool unavailability smoke: negative system unavailability"
    cat target/ci_pool3000.txt
    exit 1
fi

# Serve smoke: boot the daemon on an ephemeral port, drive the
# store -> solve -> metrics path over real TCP, then SIGTERM it and
# require a clean drain (exit 0). A 50 ms deadline on a 10^5-state
# chain (steady state in milliseconds, mission step far longer) must
# come back as a typed 504 without taking the service down.
echo "==> serve smoke (store, solve, deadline 504, metrics, keep-alive, SIGTERM drain)"
cargo build --offline -q -p rascad-cli
rm -f target/ci_serve_out.txt target/ci_serve_err.txt target/ci_serve_final.prom
target/debug/rascad serve --addr 127.0.0.1:0 \
    --metrics-final target/ci_serve_final.prom \
    > target/ci_serve_out.txt 2> target/ci_serve_err.txt &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q "listening on" target/ci_serve_err.txt 2>/dev/null && break
    sleep 0.1
done
serve_addr=$(sed -n 's#.*listening on http://\([0-9.:]*\).*#\1#p' target/ci_serve_err.txt)
test -n "$serve_addr"
SERVE_ADDR="$serve_addr" python3 - <<'PY'
import http.client, json, os, statistics, time

host, port = os.environ["SERVE_ADDR"].rsplit(":", 1)

def req(method, path, body=None):
    conn = http.client.HTTPConnection(host, int(port), timeout=60)
    conn.request(method, path, body=body)
    resp = conn.getresponse()
    data = resp.read().decode()
    conn.close()
    return resp.status, data

spec = ('diagram "CiServe" { block "A" { quantity = 2\n'
        ' min_quantity = 1\n mtbf = 10000 h } }')
status, body = req("POST", "/v1/specs",
                   json.dumps({"tenant": "ci", "name": "smoke", "spec": spec}))
assert status == 201, (status, body)
status, body = req("POST", "/v1/solve", json.dumps({"tenant": "ci", "spec_name": "smoke"}))
assert status == 200, (status, body)
doc = json.loads(body)
assert 0.0 < doc["system"]["availability"] <= 1.0, doc

big = ('diagram "CiBig" { block "A" { quantity = 100000\n'
       ' min_quantity = 1\n mtbf = 10000 h } }')
status, body = req("POST", "/v1/solve",
                   json.dumps({"tenant": "ci", "spec": big, "deadline_ms": 50}))
assert status == 504, (status, body)
assert json.loads(body)["error"]["kind"] == "deadline", body

# The deadline miss must not have taken the service down.
status, _ = req("GET", "/healthz")
assert status == 200
status, page = req("GET", "/metrics")
assert status == 200 and "rascad_serve_requests" in page, page[:400]

# Keep-alive exchanges must not wait on the client's delayed ACK (a
# response written as two segments under Nagle stalls ~40 ms each):
# 20 /healthz on one connection, median under 10 ms.
conn = http.client.HTTPConnection(host, int(port), timeout=60)
times = []
for _ in range(20):
    started = time.perf_counter()
    conn.request("GET", "/healthz")
    resp = conn.getresponse()
    resp.read()
    assert resp.status == 200
    times.append((time.perf_counter() - started) * 1e3)
conn.close()
median = statistics.median(times)
assert median < 10.0, f"keep-alive /healthz median {median:.1f} ms: {times}"
PY
kill -TERM "$serve_pid"
wait "$serve_pid"
grep -q "drain clean" target/ci_serve_out.txt
test -s target/ci_serve_final.prom
grep -q '^rascad_serve_requests{route="solve",status="200"} ' target/ci_serve_final.prom
grep -q '^rascad_serve_requests{route="solve",status="504"} ' target/ci_serve_final.prom

# Serve load smoke: a fresh `bench --serve` run must sustain >= 1000
# solves through the daemon, shed under the admission burst, answer the
# 50 ms deadline probe with a typed error, scrape a validator-clean
# metrics page, and drain cleanly — the validator gates all of those
# structural claims outright. Latency numbers are recorded, never gated
# across hosts.
echo "==> bench serve load (fresh run)"
cargo run --offline -q -p rascad-cli -- bench --serve --quick \
    --label serve-smoke --out target/bench_serve_smoke.json > /dev/null
cargo run --offline -q -p rascad-cli -- bench --validate target/bench_serve_smoke.json

# Every committed baseline must stay valid against its workload's
# structural claims, so a stale or hand-edited BENCH_*.json fails here.
echo "==> committed bench baselines (validate every BENCH_*.json)"
for doc in BENCH_*.json; do
    cargo run --offline -q -p rascad-cli -- bench --validate "$doc"
done

# Determinism gate: the same sweep run at 1 thread and at 8 threads
# must produce byte-identical reports.
echo "==> sweep determinism (1 vs 8 threads, byte-identical output)"
cargo run --offline -q -p rascad-cli -- library datacenter > target/ci_dc.rascad
cargo run --offline -q -p rascad-cli -- --threads 1 \
    sweep target/ci_dc.rascad "Server Box/System Board" tresp 0.5 24 9 \
    > target/ci_sweep_t1.txt
cargo run --offline -q -p rascad-cli -- --threads 8 \
    sweep target/ci_dc.rascad "Server Box/System Board" tresp 0.5 24 9 \
    > target/ci_sweep_t8.txt
cmp target/ci_sweep_t1.txt target/ci_sweep_t8.txt

# Chaos suites: the fault-injection tests are feature-gated
# (`required-features = ["fault-inject"]`), so the workspace run above
# skips them. Run them explicitly, plus the always-on parser no-panic
# corpus by name so the robustness gates are visible in the log.
echo "==> chaos suites (fault-inject) + parser no-panic corpus"
cargo test --offline -q -p rascad-core --features fault-inject --test chaos
cargo test --offline -q -p rascad-cli --features fault-inject --test chaos
cargo test --offline -q -p rascad-spec --test no_panic

# Fault-injection smoke against the compiled binary: force one
# sub-block panic under --best-effort and check the partial-result
# contract end to end — exit code 8, the PARTIAL RESULT banner, the
# typed failure row, and every uninjected block's report row
# byte-identical to a clean run.
echo "==> fault-injection smoke (forced panic, --best-effort, exit 8)"
cargo run --offline -q -p rascad-cli --features fault-inject -- \
    solve target/ci_dc.rascad > target/ci_chaos_clean.txt
cat > target/ci_chaos_plan.toml <<'PLAN'
[[inject]]
block = "Server Box/CPU Module"
kind = "panic"
PLAN
rm -f target/ci_flight.jsonl
set +e
RASCAD_FLIGHT_PATH=target/ci_flight.jsonl \
cargo run --offline -q -p rascad-cli --features fault-inject -- \
    solve target/ci_dc.rascad --best-effort --inject target/ci_chaos_plan.toml \
    > target/ci_chaos_partial.txt 2> target/ci_chaos_stderr.txt
chaos_code=$?
set -e
if [ "$chaos_code" -ne 8 ]; then
    echo "fault-injection smoke: expected exit 8, got $chaos_code"
    cat target/ci_chaos_stderr.txt
    exit 1
fi
grep -q "PARTIAL RESULT" target/ci_chaos_partial.txt
grep -q "worker panicked while solving block" target/ci_chaos_partial.txt
grep '^ *Data Center System/' target/ci_chaos_clean.txt |
    grep -v "Server Box/CPU Module" > target/ci_chaos_rows_clean.txt
grep '^ *Data Center System/' target/ci_chaos_partial.txt |
    grep -v "Server Box/CPU Module" > target/ci_chaos_rows_partial.txt
cmp target/ci_chaos_rows_clean.txt target/ci_chaos_rows_partial.txt

# Flight-recorder smoke: the degraded run above must have left its
# post-mortem at $RASCAD_FLIGHT_PATH — a JSONL header naming the
# incident plus the failing block's span in the ring.
echo "==> flight recorder smoke (degraded solve leaves a post-mortem)"
grep -q "flight recorder:" target/ci_chaos_stderr.txt
test -s target/ci_flight.jsonl
head -1 target/ci_flight.jsonl | grep -q '"flight_recorder":"rascad"'
head -1 target/ci_flight.jsonl | grep -q 'Server Box/CPU Module'
grep -q '"kind":"incident","name":"degraded_solve"' target/ci_flight.jsonl
grep '"kind":"span_end"' target/ci_flight.jsonl | grep -q 'Server Box/CPU Module'

# Prometheus golden check: `stats --prometheus` runs every page it
# emits through the hand-rolled exposition-format validator before
# printing (a validation failure is an internal error, exit != 0), so
# a clean exit means the validator passed. Grep pins the golden
# families: HELP/TYPE headers, labeled counters, native histogram
# series, and a catalogued counter that must be zero-filled.
echo "==> prometheus exposition golden check (stats --prometheus)"
cargo run --offline -q -p rascad-cli -- stats target/ci_dc.rascad --prometheus \
    > target/ci_stats.prom
grep -q '^# TYPE rascad_core_specs_solved counter$' target/ci_stats.prom
grep -q '^# HELP rascad_markov_solves ' target/ci_stats.prom
grep -q '^rascad_markov_solves{method="gth"} ' target/ci_stats.prom
grep -q '^rascad_core_cache_misses{kind="steady"} ' target/ci_stats.prom
grep -q '^rascad_markov_gth_states_bucket{le="+Inf"} ' target/ci_stats.prom
grep -q '^rascad_markov_gth_states_count ' target/ci_stats.prom
grep -q '^rascad_engine_worker_panics 0$' target/ci_stats.prom
# The exit-time scrape (--metrics-out) must produce the same shape.
cargo run --offline -q -p rascad-cli -- --metrics-out target/ci_exit.prom \
    solve target/ci_dc.rascad > /dev/null
grep -q '^rascad_core_blocks_generated ' target/ci_exit.prom

# Chrome-trace smoke: --trace-out must emit a Perfetto-loadable
# traceEvents document covering the pipeline's top-level spans. The
# JSON-level validator runs in crates/cli/tests/binary.rs; here we
# check the envelope and the expected span coverage.
echo "==> chrome trace smoke (--trace-out, expected top-level spans)"
cargo run --offline -q -p rascad-cli -- --trace-out target/ci_trace.json \
    solve target/ci_dc.rascad > /dev/null
head -c 16 target/ci_trace.json | grep -q '{"traceEvents":\['
tail -c 4 target/ci_trace.json | grep -q ']}'
for span in spec.parse_dsl core.generate_block core.solve_spec markov.gth; do
    grep -q "\"name\":\"$span\"" target/ci_trace.json
done

# Non-blocking pedantic report: surfaces candidate cleanups without
# gating the build on them (the hard clippy gate above already denies
# default-level warnings). Mirrors the bench-smoke pattern.
echo "==> cargo clippy pedantic (report only)"
cargo clippy --workspace --all-targets --offline -- -W clippy::pedantic 2>&1 |
    grep -E "^warning" | sort | uniq -c | sort -rn | head -20 || true

echo "ci: all gates passed"
