//! Live-server integration suite: the full request lifecycle over real
//! sockets — store/solve/sweep/lint, health, metrics, shedding,
//! deadlines, malformed input, and graceful drain.

mod common;

use std::time::{Duration, Instant};

use common::{escape, header, request, spec_dsl, KeepAlive, TestServer};
use rascad_obs::json;
use rascad_obs::registry::{describe, MetricKind};
use rascad_serve::{AdmissionConfig, ServeConfig, Server};

fn default_server() -> TestServer {
    TestServer::start(ServeConfig::default())
}

#[test]
fn health_ready_and_unknown_routes() {
    let srv = default_server();
    let (status, _, _) = request(srv.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let (status, _, _) = request(srv.addr, "GET", "/readyz", "");
    assert_eq!(status, 200);
    let (status, _, body) = request(srv.addr, "GET", "/no/such/route", "");
    assert_eq!(status, 404);
    assert!(body.contains("not-found"), "{body}");
    let (status, _, _) = request(srv.addr, "DELETE", "/healthz", "");
    assert_eq!(status, 405);
}

#[test]
fn store_solve_and_sweep_round_trip() {
    let srv = default_server();
    let spec = escape(&spec_dsl());

    let (status, _, body) = request(
        srv.addr,
        "POST",
        "/v1/specs",
        &format!(r#"{{"tenant":"acme","name":"web","spec":"{spec}"}}"#),
    );
    assert_eq!(status, 201, "{body}");
    let v = json::parse(&body).unwrap();
    assert_eq!(v.get("blocks").unwrap().as_i64(), Some(2));

    let (status, _, body) =
        request(srv.addr, "POST", "/v1/solve", r#"{"tenant":"acme","spec_name":"web"}"#);
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    let avail = v.get("system").unwrap().get("availability").unwrap().as_f64().unwrap();
    assert!(avail > 0.999 && avail <= 1.0, "{avail}");
    let blocks = v.get("blocks").unwrap().as_array().unwrap();
    assert_eq!(blocks.len(), 2);
    assert!(blocks
        .iter()
        .all(|b| { b.get("certificate").unwrap().get("verdict").unwrap().as_str() == Some("ok") }));

    // Tenant isolation: the other tenant cannot see the spec.
    let (status, _, _) =
        request(srv.addr, "POST", "/v1/solve", r#"{"tenant":"evil","spec_name":"web"}"#);
    assert_eq!(status, 404);

    let (status, _, body) = request(
        srv.addr,
        "POST",
        "/v1/sweep",
        &format!(
            r#"{{"spec":"{spec}","block":"A","param":"mtbf","from":5000,"to":50000,"points":4}}"#
        ),
    );
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    assert_eq!(v.get("points").unwrap().as_array().unwrap().len(), 4);
}

#[test]
fn lint_and_malformed_bodies() {
    let srv = default_server();
    let spec = escape(&spec_dsl());
    let (status, _, body) =
        request(srv.addr, "POST", "/v1/lint", &format!(r#"{{"spec":"{spec}"}}"#));
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    assert_eq!(v.get("blocking").unwrap().as_bool(), Some(false));

    // Typed 400s: non-JSON, non-object, bad spec text.
    for bad in ["this is not json", "[1,2,3]", r#"{"spec":"diagram \"X\" {"}"#] {
        let (status, _, body) = request(srv.addr, "POST", "/v1/solve", bad);
        assert_eq!(status, 400, "{bad} -> {body}");
        let v = json::parse(&body).unwrap();
        assert!(v.get("error").unwrap().get("kind").unwrap().as_str().is_some(), "{body}");
    }
}

#[test]
fn identical_requests_are_bit_identical_responses() {
    let srv = default_server();
    let spec = escape(&spec_dsl());
    let body_req = format!(r#"{{"spec":"{spec}"}}"#);
    let (s1, _, b1) = request(srv.addr, "POST", "/v1/solve", &body_req);
    let (s2, _, b2) = request(srv.addr, "POST", "/v1/solve", &body_req);
    assert_eq!(s1, 200);
    assert_eq!((s1, b1), (s2, b2), "same request must produce byte-identical bodies");
}

#[test]
fn admission_sheds_with_retry_after_when_full() {
    // A server whose whole capacity is one in-flight request.
    let srv = TestServer::start(ServeConfig {
        admission: AdmissionConfig { max_inflight: 1, max_per_tenant: 1, retry_after_secs: 7 },
        ..ServeConfig::default()
    });
    let spec = escape(&spec_dsl());

    // Fill the slot with a big chain bounded by a 3 s deadline: its
    // steady state is quick, but its mission step runs until the
    // cancellation machinery stops it, so the slot stays busy for a
    // deterministic window, then returns a typed 504 — no dependence on
    // raw solver speed in debug builds.
    let addr = srv.addr;
    let big = escape(&spec_dsl().replace("quantity = 2", "quantity = 100000"));
    let holder = std::thread::spawn(move || {
        request(addr, "POST", "/v1/solve", &format!(r#"{{"spec":"{big}","deadline_ms":3000}}"#))
    });
    std::thread::sleep(Duration::from_millis(300));

    // …then watch the next request shed 429 with the hint.
    let mut sheds = 0;
    for _ in 0..20 {
        let (status, headers, body) =
            request(srv.addr, "POST", "/v1/solve", &format!(r#"{{"spec":"{spec}"}}"#));
        if status == 429 {
            assert_eq!(header(&headers, "retry-after"), Some("7"), "{body}");
            assert!(body.contains("shed"), "{body}");
            sheds += 1;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let (holder_status, _, holder_body) = holder.join().unwrap();
    assert_eq!(holder_status, 504, "holder must finish typed: {holder_body}");
    assert!(sheds > 0, "the slot was held ~3 s; a concurrent request must shed");
}

#[test]
fn deadline_on_a_large_chain_is_a_typed_504_within_twice_the_budget() {
    let srv = default_server();
    // quantity = 100000 with redundancy expands birth-death style to a
    // ~10^5-state chain: its 8,760 h mission series runs far beyond
    // 50 ms.
    let big = escape(&spec_dsl().replace("quantity = 2", "quantity = 100000"));
    let started = std::time::Instant::now();
    let (status, _, body) =
        request(srv.addr, "POST", "/v1/solve", &format!(r#"{{"spec":"{big}","deadline_ms":50}}"#));
    let elapsed = started.elapsed();
    assert_eq!(status, 504, "{body}");
    let v = json::parse(&body).unwrap();
    assert_eq!(v.get("error").unwrap().get("kind").unwrap().as_str(), Some("deadline"));
    // "within 2× deadline" for the solver abort; generous socket slack
    // on top keeps this robust on loaded CI machines.
    assert!(
        elapsed < Duration::from_millis(2000),
        "cancellation must abort promptly, took {elapsed:?}"
    );

    // Concurrent requests with sane budgets still finish.
    let spec = escape(&spec_dsl());
    let (status, _, body) =
        request(srv.addr, "POST", "/v1/solve", &format!(r#"{{"spec":"{spec}"}}"#));
    assert_eq!(status, 200, "{body}");
}

/// Posts `spec` with `extra` body fields and asserts a typed `deadline`
/// 504 within the deadline tests' "2× budget plus slack" bound.
fn assert_deadline_504(addr: std::net::SocketAddr, spec: &str, extra: &str) {
    let started = Instant::now();
    let body = format!(r#"{{"spec":"{}",{extra}}}"#, escape(spec));
    let (status, _, body) = request(addr, "POST", "/v1/solve", &body);
    let elapsed = started.elapsed();
    assert_eq!(status, 504, "{body}");
    let v = json::parse(&body).unwrap();
    assert_eq!(v.get("error").unwrap().get("kind").unwrap().as_str(), Some("deadline"), "{body}");
    assert!(elapsed < Duration::from_millis(2000), "cancellation took {elapsed:?}");
}

#[test]
fn mission_step_honours_the_request_deadline() {
    // A 2000-unit pool: steady state takes milliseconds, the mission
    // step (uniformization series, MTTF, reliability curve) seconds.
    // The series polls the request's token, so the 50 ms deadline ends
    // it typed instead of answering 200 seconds later.
    let srv = default_server();
    let pool = spec_dsl().replace("quantity = 2", "quantity = 2000");
    assert_deadline_504(srv.addr, &pool, r#""deadline_ms":50"#);
}

/// Posts an inline solve of `spec` with `"method": method`.
fn solve_with_method(addr: std::net::SocketAddr, spec: &str, method: &str) -> (u16, json::Value) {
    let body = format!(r#"{{"spec":"{}","method":"{method}"}}"#, escape(spec));
    let (status, _, body) = request(addr, "POST", "/v1/solve", &body);
    (status, json::parse(&body).unwrap())
}

fn error_field<'a>(v: &'a json::Value, field: &str) -> &'a str {
    v.get("error").unwrap().get(field).unwrap().as_str().unwrap()
}

#[test]
fn power_is_an_unknown_method() {
    let srv = default_server();
    let (status, v) = solve_with_method(srv.addr, &spec_dsl(), "power");
    assert_eq!(status, 400, "{v:?}");
    assert_eq!(error_field(&v, "kind"), "bad-request");
    assert!(error_field(&v, "message").contains("(gth, lu)"), "{v:?}");
}

#[test]
fn lu_answers_a_small_spec_with_an_lu_certificate() {
    let srv = default_server();
    let (status, v) = solve_with_method(srv.addr, &spec_dsl(), "lu");
    assert_eq!(status, 200, "{v:?}");
    for block in v.get("blocks").unwrap().as_array().unwrap() {
        let cert = block.get("certificate").unwrap();
        assert_eq!(cert.get("method").unwrap().as_str(), Some("lu"), "{v:?}");
    }
}

#[test]
fn lu_on_a_large_pool_fails_typed_instead_of_allocating() {
    // Dense LU on a 10^4-unit pool would ask for 800 MB. It is refused
    // before allocating, and the request fails typed: LU is a
    // cross-check, so GTH does not answer in its place.
    let srv = default_server();
    let big = spec_dsl().replace("quantity = 2", "quantity = 10000");
    let (status, v) = solve_with_method(srv.addr, &big, "lu");
    assert_eq!(status, 500, "{v:?}");
    assert_eq!(error_field(&v, "kind"), "solver");
    let message = error_field(&v, "message");
    assert!(message.contains("lu elimination needs 100020001 entries"), "{message}");
    assert!(message.contains("storage bound"), "{message}");
    let (status, _, _) = request(srv.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
}

#[test]
fn metrics_page_validates_and_counts_requests() {
    let srv = default_server();
    let spec = escape(&spec_dsl());
    let (status, _, _) = request(srv.addr, "POST", "/v1/solve", &format!(r#"{{"spec":"{spec}"}}"#));
    assert_eq!(status, 200);
    let (status, headers, page) = request(srv.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(header(&headers, "content-type").unwrap().starts_with("text/plain"));
    rascad_obs::prometheus::validate(&page).expect("scrape page must be exposition-valid");
    assert!(page.contains("serve_requests"), "{page}");
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let srv = TestServer::start(ServeConfig::default());
    let addr = srv.addr;
    // An in-flight request with a deterministic ~1.5 s runtime: a big
    // chain whose mission step outlasts a best-effort deadline degrades
    // to a 200 instead of depending on debug-build solver speed.
    let big = escape(&spec_dsl().replace("quantity = 2", "quantity = 100000"));
    let inflight = std::thread::spawn(move || {
        request(
            addr,
            "POST",
            "/v1/solve",
            &format!(r#"{{"spec":"{big}","deadline_ms":1500,"best_effort":true}}"#),
        )
    });
    std::thread::sleep(Duration::from_millis(300));
    let summary = srv.stop();
    let (status, _, body) = inflight.join().unwrap();
    assert_eq!(status, 200, "in-flight solve must complete through the drain: {body}");
    let v = json::parse(&body).unwrap();
    assert_eq!(v.get("degraded").unwrap().as_bool(), Some(true), "{body}");
    assert!(summary.drained_clean, "{summary:?}");
    assert!(summary.requests >= 1);
}

/// Median wall time of `n` identical exchanges on one connection.
fn median_exchange(
    conn: &mut KeepAlive,
    method: &str,
    path: &str,
    body: &str,
    n: usize,
) -> Duration {
    let mut times: Vec<Duration> = (0..n)
        .map(|_| {
            let started = Instant::now();
            let (status, reply) = conn.request(method, path, body);
            assert_eq!(status, 200, "{method} {path}: {reply}");
            started.elapsed()
        })
        .collect();
    times.sort();
    times[n / 2]
}

#[test]
fn keep_alive_exchanges_do_not_wait_for_delayed_acks() {
    // A response written as head and body in two segments without
    // TCP_NODELAY holds the body until the client's delayed ACK:
    // >= 40 ms per exchange. Whole, one-write responses take ~1 ms.
    let srv = default_server();
    let mut conn = KeepAlive::connect(srv.addr);
    let spec = escape(&spec_dsl());
    let (status, body) = conn.request(
        "POST",
        "/v1/specs",
        &format!(r#"{{"tenant":"ka","name":"web","spec":"{spec}"}}"#),
    );
    assert_eq!(status, 201, "{body}");
    let health = median_exchange(&mut conn, "GET", "/healthz", "", 50);
    let solve =
        median_exchange(&mut conn, "POST", "/v1/solve", r#"{"tenant":"ka","spec_name":"web"}"#, 20);
    assert!(health < Duration::from_millis(10), "healthz median {health:?}");
    assert!(solve < Duration::from_millis(10), "solve median {solve:?}");
}

#[test]
fn shutdown_wakes_an_idle_blocking_accept() {
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = Server::bind(ServeConfig { addr: addr.to_string(), ..ServeConfig::default() })
            .expect("bind");
        let handle = server.shutdown_handle();
        let (done, returned) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let summary = server.run();
            done.send(()).unwrap();
            summary
        });
        // Let the loop reach its blocking accept.
        std::thread::sleep(Duration::from_millis(100));
        handle.shutdown();
        returned
            .recv_timeout(Duration::from_secs(1))
            .unwrap_or_else(|_| panic!("run() on {addr} did not return within 1 s of shutdown()"));
        let summary = runner.join().unwrap();
        assert!(summary.drained_clean, "{summary:?}");
        assert_eq!(summary.requests, 0, "the wake-up connect is not a request");
    }
}

#[test]
fn every_emitted_series_matches_its_catalog_entry() {
    let srv = default_server();
    let spec = escape(&spec_dsl());
    let (status, _, body) =
        request(srv.addr, "POST", "/v1/solve", &format!(r#"{{"spec":"{spec}"}}"#));
    assert_eq!(status, 200, "{body}");
    // One shed per reason, from servers whose gates admit nothing.
    for (max_inflight, max_per_tenant) in [(0, 1), (1, 0)] {
        let gate = TestServer::start(ServeConfig {
            admission: AdmissionConfig { max_inflight, max_per_tenant, retry_after_secs: 1 },
            ..ServeConfig::default()
        });
        let (status, _, body) =
            request(gate.addr, "POST", "/v1/solve", &format!(r#"{{"spec":"{spec}"}}"#));
        assert_eq!(status, 429, "{body}");
    }
    let (status, _, page) = request(srv.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for series in [
        r#"rascad_serve_shed{reason="queue_full"} "#,
        r#"rascad_serve_shed{reason="tenant_limit"} "#,
        r#"rascad_serve_latency_count{route="solve"} "#,
    ] {
        assert!(page.contains(series), "{series} missing from the scrape:\n{page}");
    }

    let snap = rascad_obs::MetricsRegistry::global().snapshot();
    // The spec's small blocks take the transient doubling kernel, so
    // its counter is among the series checked below.
    assert!(snap.counter_total("markov.transient.squarings").is_some_and(|n| n > 0));
    let emitted = snap
        .counters
        .iter()
        .map(|(id, _)| (id, MetricKind::Counter))
        .chain(snap.gauges.iter().map(|(id, _)| (id, MetricKind::Gauge)))
        .chain(snap.values.iter().map(|(id, _)| (id, MetricKind::Histogram)));
    for (id, kind) in emitted {
        let series = id.render();
        let desc = describe(id.name).unwrap_or_else(|| panic!("{series} is not catalogued"));
        assert_eq!(desc.kind, kind, "{series}: emitted as {kind:?}, catalogued as {:?}", desc.kind);
        let keys: Vec<&str> = id.labels.iter().map(|(k, _)| k.as_str()).collect();
        let mut catalogued = desc.labels.to_vec();
        catalogued.sort_unstable();
        assert_eq!(keys, catalogued, "{series}: label keys differ from the catalog");
    }
}
