//! The daemon: accept loop, routing, per-request isolation, graceful
//! shutdown.
//!
//! Robustness properties, in the order a request meets them:
//!
//! 1. **Slow-client protection** — socket read/write timeouts and byte
//!    caps in [`crate::http`].
//! 2. **Admission** — a bounded gate ([`crate::admission`]) sheds with
//!    429 + `Retry-After` instead of queueing; per-tenant caps keep one
//!    tenant from starving the rest.
//! 3. **Deadlines** — `deadline_ms` becomes a wall-clock budget plus a
//!    [`rascad_markov::CancelToken`] checked inside every solver loop,
//!    so a stuck solve aborts typed (504) within the client's patience.
//! 4. **Panic isolation** — each request runs under `catch_unwind` on
//!    its connection thread, and the engine additionally catches worker
//!    panics per block; one poisoned spec answers 500 while the server
//!    keeps serving, and the solve cache drops only the panicked
//!    batch's generation.
//! 5. **Graceful shutdown** — on SIGTERM (or a programmatic
//!    [`ShutdownHandle`]): stop accepting, fail `/readyz`, drain
//!    in-flight solves, flush a final metrics scrape, dump the flight
//!    recorder if an incident was recorded.

use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rascad_core::Engine;
use rascad_obs::json::Value;

use crate::admission::{Admission, AdmissionConfig};
use crate::api::{self, ApiResponse};
use crate::http::{self, HttpError, HttpLimits, Request};
use crate::store::SpecStore;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7171` (`:0` picks a free port).
    pub addr: String,
    /// Admission caps.
    pub admission: AdmissionConfig,
    /// Per-tenant stored-spec quota.
    pub max_specs_per_tenant: usize,
    /// HTTP byte caps and socket timeouts.
    pub limits: HttpLimits,
    /// How long shutdown waits for in-flight requests.
    pub drain_timeout: Duration,
    /// Where the final metrics scrape is written on shutdown (skipped
    /// when `None`).
    pub final_metrics_out: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7171".to_string(),
            admission: AdmissionConfig::default(),
            max_specs_per_tenant: crate::store::DEFAULT_MAX_SPECS_PER_TENANT,
            limits: HttpLimits::default(),
            drain_timeout: Duration::from_secs(30),
            final_metrics_out: None,
        }
    }
}

/// Counters reported when [`Server::run`] returns.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeSummary {
    /// Requests answered (any status).
    pub requests: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests that answered 5xx.
    pub failures: u64,
    /// Whether the drain finished inside the timeout.
    pub drained_clean: bool,
}

/// Clonable remote control for a running server; `shutdown()` is what
/// the SIGTERM handler (or a test) calls.
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    /// The listener's bound address, self-connected to wake a blocked
    /// `accept`.
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Requests a graceful shutdown; idempotent. Sets the flag, then
    /// connects to the listener once so the blocking `accept` in
    /// [`Server::run`] returns and sees it. A listener bound to an
    /// unspecified address (`0.0.0.0`, `::`) is woken over loopback.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // Refused (the loop already ended) or timed out: either way
        // there is no accept left to wake.
        TcpStream::connect_timeout(&wake, Duration::from_secs(1)).ok();
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

struct Shared {
    engine: Engine,
    admission: Admission,
    store: SpecStore,
    limits: HttpLimits,
    shutdown: Arc<AtomicBool>,
    draining: AtomicBool,
    open_connections: std::sync::atomic::AtomicUsize,
    requests: AtomicU64,
    shed: AtomicU64,
    failures: AtomicU64,
}

/// The daemon. Bind, then [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    cfg: ServeConfig,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and builds the shared state. The engine is
    /// created once and shared across every request, so its solve
    /// cache stays warm across requests and tenants.
    ///
    /// # Errors
    ///
    /// Propagates the bind error (address in use, permission).
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        // The service is metrics-first: make sure the registry is
        // accumulating even when the host process installed no sinks.
        // Installed only after a successful bind (install resets the
        // registry, and a failed bind must leave no global behind).
        if !rascad_obs::enabled() {
            rascad_obs::install(Vec::new());
        }
        let shared = Arc::new(Shared {
            engine: Engine::new(),
            admission: Admission::new(cfg.admission.clone()),
            store: SpecStore::new(cfg.max_specs_per_tenant),
            limits: cfg.limits.clone(),
            shutdown: Arc::new(AtomicBool::new(false)),
            draining: AtomicBool::new(false),
            open_connections: std::sync::atomic::AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        });
        Ok(Server { listener, addr, cfg, shared })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop [`run`](Server::run) from any thread.
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { flag: self.shared.shutdown.clone(), addr: self.addr }
    }

    /// Serves until shutdown is requested, then drains and returns the
    /// run's summary. Connection threads are detached; the drain waits
    /// on the open-connection count, bounded by
    /// [`ServeConfig::drain_timeout`].
    #[must_use]
    pub fn run(&self) -> ServeSummary {
        rascad_obs::flight::arm();
        // Blocking accept: an idle server sleeps in the kernel, and
        // `ShutdownHandle::shutdown` wakes it with a self-connect.
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok(_) if self.shared.shutdown.load(Ordering::SeqCst) => break,
                Ok((stream, _peer)) => {
                    // Responses are written whole, so nothing is gained
                    // by Nagle's coalescing; it only delays the reply.
                    stream.set_nodelay(true).ok();
                    let shared = self.shared.clone();
                    shared.open_connections.fetch_add(1, Ordering::SeqCst);
                    std::thread::spawn(move || {
                        handle_connection(stream, &shared);
                        shared.open_connections.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                // Back off on real accept errors (e.g. out of file
                // descriptors) instead of spinning on them.
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }

        // Drain: stop admitting (readyz now fails), wait for permits
        // and connections to clear, then flush telemetry.
        self.shared.draining.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + self.cfg.drain_timeout;
        let mut drained_clean = self.shared.admission.drain(self.cfg.drain_timeout);
        while self.shared.open_connections.load(Ordering::SeqCst) > 0 {
            if Instant::now() >= deadline {
                drained_clean = false;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }

        if let Some(path) = &self.cfg.final_metrics_out {
            let snap = rascad_obs::MetricsRegistry::global().snapshot();
            let page = rascad_obs::prometheus::encode(&snap);
            if let Err(e) = std::fs::write(path, page) {
                eprintln!("warning: cannot write final metrics scrape to {}: {e}", path.display());
            }
        }
        if rascad_obs::flight::has_incident() && rascad_obs::flight::events_recorded() {
            dump_flight("shutdown");
        }

        ServeSummary {
            requests: self.shared.requests.load(Ordering::SeqCst),
            shed: self.shared.shed.load(Ordering::SeqCst),
            failures: self.shared.failures.load(Ordering::SeqCst),
            drained_clean,
        }
    }
}

/// Writes the flight rings next to the process (or `$RASCAD_FLIGHT_PATH`).
fn dump_flight(why: &str) {
    let path = std::env::var("RASCAD_FLIGHT_PATH")
        .unwrap_or_else(|_| format!("rascad-serve-flight-{}.jsonl", std::process::id()));
    match rascad_obs::flight::dump_to(std::path::Path::new(&path)) {
        Ok(events) => eprintln!("flight recorder ({why}): {events} event(s) written to {path}"),
        Err(e) => eprintln!("warning: cannot write flight recording to `{path}`: {e}"),
    }
}

/// Serves one connection: keep-alive loop of read → route → respond.
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    loop {
        let req = match http::read_request(&mut stream, &shared.limits) {
            Ok(Some(req)) => req,
            Ok(None) => return,
            Err(e) => {
                let (status, kind) = match &e {
                    HttpError::Timeout => (408, "timeout"),
                    HttpError::TooLarge { .. } => (413, "too-large"),
                    HttpError::Malformed(_) => (400, "bad-request"),
                    HttpError::Io(_) => return,
                };
                let resp = ApiResponse::error(status, kind, e.to_string());
                respond(&mut stream, shared, "malformed", &resp, true);
                return;
            }
        };
        let close = req.wants_close() || shared.shutdown.load(Ordering::SeqCst);
        let started = Instant::now();

        // Panic isolation: a handler panic answers 500 and the
        // connection (and server) live on. The engine's own per-block
        // isolation catches worker-pool panics; this catches the rest.
        let route = route_name(&req);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| dispatch(&req, shared)))
            .unwrap_or_else(|_| {
                rascad_obs::incident("serve_handler_panic", route);
                ApiResponse::error(500, "panic", "request handler panicked")
            });

        let millis = started.elapsed().as_secs_f64() * 1e3;
        rascad_obs::record_value_with("serve.latency", &[("route", route)], millis);
        let alive = respond(&mut stream, shared, route, &outcome, close);
        // A 500 (panic, internal solver failure) is an incident worth a
        // post-mortem ring dump. A 504 is not: the client asked for the
        // deadline, so blowing it is an expected, typed outcome.
        if outcome.status == 500 && rascad_obs::flight::events_recorded() {
            dump_flight("incident");
        }
        if close || !alive {
            return;
        }
    }
}

/// Stable route label for metrics (bounded cardinality).
fn route_name(req: &Request) -> &'static str {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/specs") => "specs",
        ("POST", "/v1/solve") => "solve",
        ("POST", "/v1/sweep") => "sweep",
        ("POST", "/v1/lint") => "lint",
        ("GET", "/metrics") => "metrics",
        ("GET", "/healthz") => "healthz",
        ("GET", "/readyz") => "readyz",
        _ => "unknown",
    }
}

/// Routes one request to its handler.
fn dispatch(req: &Request, shared: &Shared) -> ApiResponse {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => ApiResponse::ok(Value::Str("ok".to_string())),
        ("GET", "/readyz") => {
            if shared.draining.load(Ordering::SeqCst) || shared.shutdown.load(Ordering::SeqCst) {
                ApiResponse::error(503, "draining", "server is draining")
            } else {
                ApiResponse::ok(Value::Str("ready".to_string()))
            }
        }
        ("GET", "/metrics") => {
            let snap = rascad_obs::MetricsRegistry::global().snapshot();
            ApiResponse {
                status: 200,
                body: Value::Str(rascad_obs::prometheus::encode(&snap)),
                extra_headers: Vec::new(),
            }
        }
        ("POST", "/v1/specs" | "/v1/solve" | "/v1/sweep" | "/v1/lint") => {
            let body = match api::parse_body(&req.body) {
                Ok(v) => v,
                Err(r) => return r,
            };
            let tenant = api::tenant_of(&body);
            // Admission guards every /v1 POST: parsing above is cheap,
            // everything below can be expensive.
            let permit = match shared.admission.try_admit(&tenant) {
                Ok(p) => p,
                Err(reason) => {
                    return ApiResponse::shed(reason.as_str(), shared.admission.retry_after_secs());
                }
            };
            let resp = match req.path.as_str() {
                "/v1/specs" => api::put_spec(&body, &shared.store),
                "/v1/solve" => api::solve(&body, &shared.engine, &shared.store),
                "/v1/sweep" => api::sweep(&body, &shared.engine, &shared.store),
                _ => api::lint(&body),
            };
            drop(permit);
            resp
        }
        ("POST", _) | ("GET", _) => ApiResponse::error(
            404,
            "not-found",
            format!("no route for {} {}", req.method, req.path),
        ),
        _ => ApiResponse::error(405, "bad-request", format!("method {} not allowed", req.method)),
    }
}

/// Writes the response and records the request metrics. Returns
/// whether the connection is still usable.
fn respond(
    stream: &mut TcpStream,
    shared: &Shared,
    route: &'static str,
    resp: &ApiResponse,
    close: bool,
) -> bool {
    shared.requests.fetch_add(1, Ordering::SeqCst);
    if resp.status == 429 {
        shared.shed.fetch_add(1, Ordering::SeqCst);
    }
    if resp.status >= 500 {
        shared.failures.fetch_add(1, Ordering::SeqCst);
    }
    let status_str = resp.status.to_string();
    rascad_obs::counter_with("serve.requests", &[("route", route), ("status", &status_str)], 1);

    // /metrics answers text/plain (the exposition format), everything
    // else JSON.
    let (content_type, body_text) = match &resp.body {
        Value::Str(page) if route == "metrics" => ("text/plain; version=0.0.4", page.clone()),
        v => ("application/json", {
            let mut t = v.to_string_compact();
            t.push('\n');
            t
        }),
    };
    stream.set_write_timeout(Some(shared.limits.write_timeout)).ok();
    http::write_response(stream, resp.status, content_type, &resp.extra_headers, &body_text, close)
        .is_ok()
}

/// SIGTERM/SIGINT wiring: a hand-rolled handler flips a static flag
/// (the only async-signal-safe thing to do); a watcher thread folds it
/// into the server's [`ShutdownHandle`].
#[cfg(unix)]
pub mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERMINATED: AtomicBool = AtomicBool::new(false);

    type SigHandler = extern "C" fn(i32);
    extern "C" {
        fn signal(signum: i32, handler: SigHandler) -> usize;
    }

    extern "C" fn on_terminate(_sig: i32) {
        TERMINATED.store(true, Ordering::SeqCst);
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// Installs SIGTERM/SIGINT handlers and spawns a watcher thread
    /// that triggers the handle when either fires.
    pub fn install(handle: super::ShutdownHandle) {
        unsafe {
            signal(SIGTERM, on_terminate);
            signal(SIGINT, on_terminate);
        }
        std::thread::spawn(move || {
            while !TERMINATED.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(50));
                if handle.is_shutting_down() {
                    return;
                }
            }
            handle.shutdown();
        });
    }
}

/// Non-unix builds: no signal wiring; shutdown is programmatic only.
#[cfg(not(unix))]
pub mod signal {
    /// No-op on this platform.
    pub fn install(_handle: super::ShutdownHandle) {}
}
