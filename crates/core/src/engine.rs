//! Parallel + memoizing solve engine.
//!
//! The paper's analysis workflows — hierarchy roll-up, parametric
//! sweeps, ablation suites — decompose into independent block solves:
//! every block's chain is generated and solved in isolation, and only
//! the cheap serial-RBD combination couples them. The [`Engine`]
//! exploits both halves of that structure:
//!
//! * **Memoization** — every block solve is routed through a
//!   [`SolveCache`] keyed by the chain's content fingerprint, so a sweep
//!   that mutates one parameter re-solves only the blocks whose chains
//!   actually changed (see [`crate::cache`]).
//! * **Parallelism** — independent units (sweep points, blocks of one
//!   hierarchy, ablation variants) are evaluated on a
//!   [`std::thread::scope`] worker pool and reassembled in input order.
//!
//! # Determinism
//!
//! Results are bit-identical to the sequential path regardless of thread
//! count or cache state: workers compute pure per-item results into
//! per-index slots, the system-level combination runs sequentially in
//! the exact arithmetic order of the original recursive solver, and a
//! cache hit returns the exact `f64`s a fresh solve of the same chain
//! would produce. The thread count only changes wall-clock time.
//!
//! The pool never nests: a worker that reaches another `par_map` (e.g. a
//! parallel sweep whose points each solve a hierarchy) runs the inner
//! loop inline, so a sweep uses exactly `threads` OS threads, the
//! calling thread among them.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use rascad_markov::{CancelToken, Fingerprint, SolveOptions, SteadyStateMethod};
use rascad_spec::{Block, BlockParams, Diagram, GlobalParams, SystemSpec};

use crate::cache::{CacheStats, MissionMeasures, SolveCache};
use crate::certify::SolutionCertificate;
use crate::error::{CoreError, EngineError};
use crate::generator::{generate_block, BlockModel, ModelSummary};
use crate::hierarchy::{BlockSolution, FailedBlock, SystemMeasures, SystemSolution};
use crate::measures::{
    steady_state_measures_certified, steady_state_measures_with_certificate_opts, BlockMeasures,
};
use crate::solve::ForcedFailure;
use crate::sweep::SweepPoint;

/// Process-wide thread-count override (0 = unset), set by the CLI
/// `--threads` flag ahead of any engine use.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the default worker count for engines that don't pin one
/// ([`Engine::new`] and the global engine). `0` clears the override.
pub fn set_thread_override(threads: usize) {
    THREAD_OVERRIDE.store(threads, Ordering::Relaxed);
}

/// The worker count an unpinned engine resolves to right now:
/// the [`set_thread_override`] value, else the `RASCAD_THREADS`
/// environment variable, else [`std::thread::available_parallelism`].
pub fn default_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    if let Ok(v) = std::env::var("RASCAD_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

thread_local! {
    /// True on pool worker threads; makes nested `par_map` calls run
    /// inline instead of spawning a second pool.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as a pool worker until dropped, then
/// restores the previous mark (also when the work unwinds).
struct InPool(bool);

impl InPool {
    fn enter() -> InPool {
        InPool(IN_POOL.with(|c| c.replace(true)))
    }
}

impl Drop for InPool {
    fn drop(&mut self) {
        IN_POOL.with(|c| c.set(self.0));
    }
}

/// Maps `f` over `items` on up to `threads` workers — the calling
/// thread and `threads - 1` scoped helpers — returning results in input
/// order. Falls back to an inline loop for one thread, one item, or
/// when already running on a pool worker.
///
/// The caller works instead of idling in the join, so a two-worker
/// batch (a daemon's per-request hierarchy solve) spawns one thread,
/// not two.
///
/// Each item's result is computed exactly once into its own slot, so the
/// output is independent of scheduling; a panicking worker propagates
/// the panic through the scope join.
pub(crate) fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.min(n);
    if workers <= 1 || IN_POOL.with(Cell::get) {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    rascad_obs::counter("core.pool.batches", 1);
    rascad_obs::counter("core.pool.tasks", n as u64);
    rascad_obs::record_value("core.pool.workers", workers as f64);
    let slots: Vec<OnceLock<R>> = (0..n).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let work = || {
        let _worker = InPool::enter();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let _ = slots[i].set(f(i, &items[i]));
        }
    };
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(work);
        }
        work();
    });
    slots.into_iter().map(|s| s.into_inner().expect("worker filled slot")).collect()
}

thread_local! {
    /// True while this thread is inside a `par_map_caught` item: the
    /// wrapped panic hook stays silent because the panic is about to be
    /// converted into a typed per-item error, not a crash.
    static PANIC_IS_CAUGHT: Cell<bool> = const { Cell::new(false) };
}

/// Wraps the process panic hook (once) so panics raised inside a
/// `par_map_caught` item do not spray the default backtrace onto
/// stderr. Panics anywhere else still reach the previous hook
/// untouched.
fn install_quiet_panic_hook() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !PANIC_IS_CAUGHT.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// [`par_map`] with per-item panic isolation: each closure call runs
/// under [`std::panic::catch_unwind`], so one poisoned item yields
/// `Err(panic message)` in its own slot instead of tearing down the
/// whole scope. Surviving items are untouched — their results are
/// bit-identical to a run without the panicking item.
pub(crate) fn par_map_caught<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    install_quiet_panic_hook();
    par_map(items, threads, |i, t| {
        let prev = PANIC_IS_CAUGHT.with(|c| c.replace(true));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, t)));
        PANIC_IS_CAUGHT.with(|c| c.set(prev));
        match caught {
            Ok(r) => Ok(r),
            Err(payload) => {
                rascad_obs::counter("engine.worker_panics", 1);
                let msg = panic_message(payload.as_ref());
                rascad_obs::incident("worker_panic", &msg);
                Err(msg)
            }
        }
    })
}

/// Best-effort extraction of a panic payload (almost always a `&str` or
/// `String` from `panic!`/`assert!`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Core-local mirror of `rascad_fault::FaultKind`, so engine code stays
/// free of `cfg` noise whether or not the `fault-inject` feature is
/// compiled in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
pub(crate) enum InjectedFault {
    /// Panic inside the worker closure (exercises `catch_unwind`).
    Panic,
    /// Force the steady solve to fail with `Singular` (the plan kind
    /// `not-converged`, kept because plan files are outside input).
    NotConverged,
    /// Corrupt the generated chain with a NaN rate.
    NanRate,
    /// Force the steady solve to report a wall-clock timeout.
    Timeout,
    /// Stall the worker for a real wall-clock delay before solving —
    /// the chaos probe for request deadlines and cancellation.
    Delay(std::time::Duration),
}

/// The fault the active plan injects at `path`, if any; records the
/// firing in the fault registry. Compiled to a constant `None` (and
/// fully optimized out) without the `fault-inject` feature.
#[cfg(feature = "fault-inject")]
fn injected_fault(path: &str) -> Option<InjectedFault> {
    let kind = rascad_fault::fault_for(path)?;
    let fault = match kind {
        rascad_fault::FaultKind::Panic => InjectedFault::Panic,
        rascad_fault::FaultKind::NotConverged => InjectedFault::NotConverged,
        rascad_fault::FaultKind::NanRate => InjectedFault::NanRate,
        rascad_fault::FaultKind::Timeout => InjectedFault::Timeout,
        rascad_fault::FaultKind::Delay => InjectedFault::Delay(rascad_fault::delay_for(path)?),
        _ => return None,
    };
    rascad_fault::note_fired(path, kind);
    Some(fault)
}

#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
fn injected_fault(_path: &str) -> Option<InjectedFault> {
    None
}

/// The parallel + memoizing solver. See the module docs for the
/// determinism contract.
pub struct Engine {
    /// Pinned worker count; `None` resolves [`default_threads`] at each
    /// call so a late `--threads` flag still applies to the global
    /// engine.
    fixed_threads: Option<usize>,
    /// `None` disables memoization entirely (the sequential reference
    /// configuration).
    cache: Option<SolveCache>,
    /// Monotonic solve-batch counter. Every `solve_spec*` batch gets
    /// its own generation, tagged onto cache inserts so a panicked
    /// batch can be evicted without touching warm entries (see
    /// [`SolveCache::evict_generation`]).
    generation: AtomicU64,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("threads", &self.threads())
            .field("cache", &self.cache)
            .finish()
    }
}

impl Engine {
    /// Engine with caching on and the dynamic default worker count.
    #[must_use]
    pub fn new() -> Self {
        Engine {
            fixed_threads: None,
            cache: Some(SolveCache::new()),
            generation: AtomicU64::new(0),
        }
    }

    /// Engine with caching on and a pinned worker count (`0` is clamped
    /// to 1).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Engine {
            fixed_threads: Some(threads.max(1)),
            cache: Some(SolveCache::new()),
            generation: AtomicU64::new(0),
        }
    }

    /// The sequential reference configuration: one thread, no cache.
    /// Reproduces the pre-engine solve path; equivalence tests and the
    /// benchmark baseline measure against this.
    #[must_use]
    pub fn sequential() -> Self {
        Engine { fixed_threads: Some(1), cache: None, generation: AtomicU64::new(0) }
    }

    /// The shared process-wide engine used by the module-level
    /// `solve_spec` / `sweep` / `solve_block` entry points.
    pub fn global() -> &'static Engine {
        static GLOBAL: OnceLock<Engine> = OnceLock::new();
        GLOBAL.get_or_init(Engine::new)
    }

    /// Worker count this engine would use right now.
    pub fn threads(&self) -> usize {
        self.fixed_threads.unwrap_or_else(default_threads).max(1)
    }

    /// Cache counters (zeros when caching is disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.as_ref().map(SolveCache::stats).unwrap_or_default()
    }

    /// Drops all cached solutions (no-op without a cache).
    pub fn clear_cache(&self) {
        if let Some(c) = &self.cache {
            c.clear();
        }
    }

    #[doc(hidden)]
    pub fn cache(&self) -> Option<&SolveCache> {
        self.cache.as_ref()
    }

    /// The next solve-batch generation (monotonic per engine, never 0
    /// so the cache's "no generation" default is never evictable by a
    /// real batch).
    fn next_generation(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn cached_steady(
        &self,
        model: &BlockModel,
        fingerprint: Fingerprint,
        method: SteadyStateMethod,
        options: &SolveOptions,
        generation: u64,
    ) -> Result<(BlockMeasures, SolutionCertificate), CoreError> {
        match &self.cache {
            Some(c) => c.steady_keyed(model, fingerprint, method, options, generation),
            None => steady_state_measures_with_certificate_opts(model, method, options),
        }
    }

    fn cached_mission(
        &self,
        model: &BlockModel,
        fingerprint: Fingerprint,
        mission_hours: f64,
        generation: u64,
        cancel: Option<&CancelToken>,
    ) -> Result<MissionMeasures, CoreError> {
        match &self.cache {
            Some(c) => c.mission_keyed(model, fingerprint, mission_hours, generation, cancel),
            None => crate::cache::compute_mission_measures(model, mission_hours, cancel),
        }
    }

    /// Solves one block: generate, then cached steady state.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on generation or solver failure.
    pub fn solve_block_with(
        &self,
        params: &BlockParams,
        globals: &GlobalParams,
        method: SteadyStateMethod,
    ) -> Result<(BlockModel, BlockMeasures), CoreError> {
        let model = generate_block(params, globals)?;
        let (measures, _) = self.cached_steady(
            &model,
            model.chain.fingerprint(),
            method,
            &SolveOptions::default(),
            self.next_generation(),
        )?;
        Ok((model, measures))
    }

    /// Solves a complete specification with the default (GTH) method.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the spec is invalid or any chain fails
    /// to solve.
    pub fn solve_spec(&self, spec: &SystemSpec) -> Result<SystemSolution, CoreError> {
        self.solve_spec_with(spec, SteadyStateMethod::Gth)
    }

    /// [`solve_spec`](Self::solve_spec) with an explicit steady-state
    /// method. Sibling blocks are solved concurrently; the roll-up runs
    /// sequentially in diagram order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the spec is invalid or any chain fails
    /// to solve (the first failure in walk order, including a caught
    /// worker panic as [`EngineError::WorkerPanicked`]).
    pub fn solve_spec_with(
        &self,
        spec: &SystemSpec,
        method: SteadyStateMethod,
    ) -> Result<SystemSolution, CoreError> {
        self.solve_spec_mode(spec, method, &SolveOptions::default(), false)
    }

    /// [`solve_spec_with`](Self::solve_spec_with) under caller-supplied
    /// solve budgets: per-request wall-clock deadlines and cooperative
    /// cancellation tokens propagate into every solver loop of the
    /// batch. Cache hits are served regardless of budget (they cost no
    /// solver work); misses solve under the caller's budgets, and a
    /// tripped deadline or token surfaces as [`CoreError::Markov`]
    /// wrapping the typed `Timeout`/`Cancelled` error.
    ///
    /// # Errors
    ///
    /// As [`solve_spec_with`](Self::solve_spec_with).
    pub fn solve_spec_with_options(
        &self,
        spec: &SystemSpec,
        method: SteadyStateMethod,
        options: &SolveOptions,
    ) -> Result<SystemSolution, CoreError> {
        self.solve_spec_mode(spec, method, options, false)
    }

    /// [`solve_spec_with`](Self::solve_spec_with) in degraded
    /// (best-effort) mode: per-block failures — typed solver errors and
    /// caught worker panics alike — become [`FailedBlock`] entries in
    /// the returned [`SystemSolution::failed`] list instead of aborting
    /// the solve. System measures roll up *optimistically* (a failed
    /// block is treated as always-up, contributing availability 1 and
    /// failure rate 0), so [`SystemSolution::availability_bounds`]
    /// brackets the truth between 0 and the reported value.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] only if the spec itself is invalid;
    /// individual block failures are reported in the solution.
    pub fn solve_spec_best_effort(
        &self,
        spec: &SystemSpec,
        method: SteadyStateMethod,
    ) -> Result<SystemSolution, CoreError> {
        self.solve_spec_mode(spec, method, &SolveOptions::default(), true)
    }

    /// [`solve_spec_best_effort`](Self::solve_spec_best_effort) under
    /// caller-supplied solve budgets (see
    /// [`solve_spec_with_options`](Self::solve_spec_with_options)).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] only if the spec itself is invalid.
    pub fn solve_spec_best_effort_with_options(
        &self,
        spec: &SystemSpec,
        method: SteadyStateMethod,
        options: &SolveOptions,
    ) -> Result<SystemSolution, CoreError> {
        self.solve_spec_mode(spec, method, options, true)
    }

    fn solve_spec_mode(
        &self,
        spec: &SystemSpec,
        method: SteadyStateMethod,
        options: &SolveOptions,
        best_effort: bool,
    ) -> Result<SystemSolution, CoreError> {
        let mut span = rascad_obs::span("core.solve_spec");
        span.record("blocks", spec.root.total_blocks());
        span.record("depth", spec.root.depth());
        span.record("threads", self.threads());
        spec.validate()?;
        let mission = spec.globals.mission_time.0;
        let generation = self.next_generation();

        // Flatten the tree in walk (= solve) order, solve every block
        // independently (with per-item panic isolation), then recombine
        // sequentially.
        let mut flat: Vec<(usize, String, &Block)> = Vec::new();
        spec.root.walk(&mut |level, path, block| flat.push((level, path.to_string(), block)));
        let results = par_map_caught(&flat, self.threads(), |_, (level, path, block)| {
            self.solve_one(*level, path, block, &spec.globals, method, mission, options, generation)
        });
        let mut any_panic = false;
        let mut tasks: Vec<Option<Result<SolvedBlock, FailedBlock>>> =
            Vec::with_capacity(results.len());
        for (walk_index, (r, (level, path, _))) in results.into_iter().zip(&flat).enumerate() {
            let item = match r {
                Ok(Ok(solved)) => Ok(solved),
                Ok(Err(error)) => {
                    Err(FailedBlock { path: path.clone(), level: *level, walk_index, error })
                }
                Err(message) => {
                    any_panic = true;
                    Err(FailedBlock {
                        path: path.clone(),
                        level: *level,
                        walk_index,
                        error: CoreError::Engine(EngineError::WorkerPanicked {
                            path: path.clone(),
                            message,
                        }),
                    })
                }
            };
            tasks.push(Some(item));
        }
        // A panicking worker may have died midway through a cache
        // insert path; entries inserted by this batch's generation are
        // never served again, while warm entries from earlier clean
        // batches keep their hits.
        if any_panic {
            if let Some(cache) = &self.cache {
                cache.evict_generation(generation);
            }
        }
        if !best_effort {
            if let Some(f) =
                tasks.iter().filter_map(|t| t.as_ref().and_then(|r| r.as_ref().err())).next()
            {
                return Err(f.error.clone());
            }
        }
        span.record(
            "total_states",
            tasks
                .iter()
                .map(|t| t.as_ref().and_then(|r| r.as_ref().ok()).map_or(0, |t| t.model.states))
                .sum::<usize>(),
        );

        let mut blocks = Vec::with_capacity(tasks.len());
        let mut failed = Vec::new();
        let mut cursor = 0usize;
        let agg = assemble_diagram(&spec.root, &mut tasks, &mut cursor, &mut blocks, &mut failed);
        debug_assert_eq!(cursor, blocks.len() + failed.len());
        if !failed.is_empty() {
            span.record("failed_blocks", failed.len());
            rascad_obs::counter("core.degraded_solves", 1);
            let paths: Vec<&str> = failed.iter().map(|f| f.path.as_str()).collect();
            rascad_obs::incident("degraded_solve", &paths.join(", "));
        }

        // Mission measures across every chain, multiplied in the same
        // block order as the sequential path.
        let mission_span = rascad_obs::span("core.mission_measures");
        let mut interval = 1.0;
        let mut reliability = 1.0;
        let mut inv_mttf = 0.0;
        for b in &blocks {
            let m = b.1;
            interval *= m.interval_availability;
            reliability *= m.reliability_at_mission;
            if m.mttf_hours.is_finite() && m.mttf_hours > 0.0 {
                inv_mttf += 1.0 / m.mttf_hours;
            }
        }
        drop(mission_span);
        let blocks: Vec<BlockSolution> = blocks.into_iter().map(|(b, _)| b).collect();

        let mean_downtime =
            if agg.failure_rate > 0.0 { agg.unavailability / agg.failure_rate } else { 0.0 };
        let system = SystemMeasures {
            availability: agg.availability,
            unavailability: agg.unavailability,
            yearly_downtime_minutes: agg.unavailability * crate::measures::MINUTES_PER_YEAR,
            failure_rate: agg.failure_rate,
            recovery_rate: if mean_downtime > 0.0 { 1.0 / mean_downtime } else { 0.0 },
            mtbf_hours: if agg.failure_rate > 0.0 { 1.0 / agg.failure_rate } else { f64::INFINITY },
            interval_availability: interval,
            reliability_at_mission: reliability,
            mttf_hours: if inv_mttf > 0.0 { 1.0 / inv_mttf } else { f64::INFINITY },
            mission_hours: mission,
        };
        span.record("availability", system.availability);
        rascad_obs::counter("core.specs_solved", 1);
        Ok(SystemSolution { system, blocks, failed })
    }

    #[allow(clippy::too_many_arguments)]
    fn solve_one(
        &self,
        level: usize,
        path: &str,
        block: &Block,
        globals: &GlobalParams,
        method: SteadyStateMethod,
        mission: f64,
        options: &SolveOptions,
        generation: u64,
    ) -> Result<SolvedBlock, CoreError> {
        let mut span = rascad_obs::span("core.solve_block");
        span.record("path", path);
        span.record("level", level);
        let fault = injected_fault(path);
        if fault == Some(InjectedFault::Panic) {
            panic!("injected fault: forced worker panic at {path}");
        }
        if let Some(InjectedFault::Delay(stall)) = fault {
            // A delay fault is a stall, not a failure: the worker sleeps
            // (exercising deadlines, admission queues, and slow-path
            // telemetry downstream) and then solves normally.
            span.record("delay_ms", stall.as_millis() as f64);
            std::thread::sleep(stall);
        }
        let model = generate_block(&block.params, globals)?;
        span.record("states", model.state_count());
        // One fingerprint per block: the solution's summary and both
        // cache keys.
        let summary = model.summary();
        // Injected solver faults bypass the cache entirely: no read (the
        // fault must fire even when an identical clean chain is cached)
        // and no write (a forced failure must never poison clean runs).
        let (measures, certificate) = match fault {
            Some(InjectedFault::NotConverged) => steady_state_measures_certified(
                &model,
                method,
                options,
                Some(ForcedFailure::Singular),
            )?,
            Some(InjectedFault::Timeout) => steady_state_measures_certified(
                &model,
                method,
                options,
                Some(ForcedFailure::Timeout),
            )?,
            Some(InjectedFault::NanRate) => {
                // Simulate numerical corruption the solver itself cannot
                // see: the solve succeeds, the distribution is poisoned
                // to NaN, and residual certification must catch it as a
                // fail-verdict certificate (CoreError::Certification).
                steady_state_measures_certified(
                    &model,
                    method,
                    options,
                    Some(ForcedFailure::NanPi),
                )?
            }
            _ => self.cached_steady(&model, summary.fingerprint, method, options, generation)?,
        };
        let mission_measures = self.cached_mission(
            &model,
            summary.fingerprint,
            mission,
            generation,
            options.cancel.as_ref(),
        )?;
        Ok(SolvedBlock {
            level,
            path: path.to_string(),
            model: summary,
            measures,
            mission_measures,
            certificate,
        })
    }

    /// Sweeps a parameter, solving the points concurrently. The `apply`
    /// closure runs sequentially (it may capture mutable state), then
    /// the mutated specs are solved on the pool; unchanged blocks hit
    /// the solve cache across points. Results are in `values` order and
    /// bit-identical to a sequential sweep.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidRequest`] when `values` is empty.
    /// * The first (in input order) solve error among the points.
    pub fn sweep(
        &self,
        base: &SystemSpec,
        values: &[f64],
        mut apply: impl FnMut(&mut SystemSpec, f64),
    ) -> Result<Vec<SweepPoint>, CoreError> {
        if values.is_empty() {
            return Err(CoreError::InvalidRequest {
                what: "sweep over an empty value list".into(),
            });
        }
        let mut span = rascad_obs::span("core.sweep");
        span.record("points", values.len());
        span.record("threads", self.threads());
        let specs: Vec<(f64, SystemSpec)> = values
            .iter()
            .map(|&value| {
                let mut spec = base.clone();
                apply(&mut spec, value);
                rascad_obs::counter("core.sweep_points", 1);
                (value, spec)
            })
            .collect();
        let solved = par_map(&specs, self.threads(), |_, (value, spec)| {
            let mut point_span = rascad_obs::span("core.sweep_point");
            point_span.record("value", *value);
            self.solve_spec(spec)
        });
        let mut points = Vec::with_capacity(solved.len());
        for (r, &value) in solved.into_iter().zip(values) {
            points.push(SweepPoint { value, solution: r? });
        }
        Ok(points)
    }

    /// Solves the baseline spec plus every ablation transform (see
    /// [`crate::ablate`]) concurrently, sharing the block cache — blocks
    /// a transform leaves untouched are solved once across the whole
    /// suite.
    ///
    /// # Errors
    ///
    /// The first (in suite order) solve error among the variants.
    pub fn ablation_suite(
        &self,
        spec: &SystemSpec,
    ) -> Result<Vec<(&'static str, SystemSolution)>, CoreError> {
        let mut span = rascad_obs::span("core.ablation_suite");
        let variants: Vec<(&'static str, SystemSpec)> = vec![
            ("baseline", spec.clone()),
            ("perfect_diagnosis", crate::ablate::perfect_diagnosis(spec)),
            ("no_latent_faults", crate::ablate::no_latent_faults(spec)),
            ("no_transients", crate::ablate::no_transients(spec)),
            ("perfect_recovery", crate::ablate::perfect_recovery(spec)),
            ("instant_logistics", crate::ablate::instant_logistics(spec)),
            ("strip_redundancy", crate::ablate::strip_redundancy(spec)),
        ];
        span.record("variants", variants.len());
        let solved = par_map(&variants, self.threads(), |_, (_, v)| self.solve_spec(v));
        let mut out = Vec::with_capacity(variants.len());
        for (r, (name, _)) in solved.into_iter().zip(&variants) {
            out.push((*name, r?));
        }
        Ok(out)
    }
}

/// One block's independently-computed results, in walk order.
struct SolvedBlock {
    level: usize,
    path: String,
    model: ModelSummary,
    measures: BlockMeasures,
    mission_measures: MissionMeasures,
    certificate: SolutionCertificate,
}

/// Serial-RBD aggregate of a (sub)diagram — the same combination the
/// recursive solver used, reproduced operation-for-operation so the
/// engine's output is bit-identical to the sequential reference.
///
/// `unavailability` rolls up the blocks' own unavailabilities rather
/// than taking `1 − availability`, which goes negative once the product
/// rounds above 1: a series pair is down with probability
/// `u₁ + (1 − u₁)·u₂`, a sum of nonnegative terms.
struct Aggregate {
    availability: f64,
    unavailability: f64,
    failure_rate: f64,
}

/// Unavailability of a series pair from its members' unavailabilities.
fn series_unavailability(u1: f64, u2: f64) -> f64 {
    u1 + (1.0 - u1) * u2
}

fn assemble_diagram(
    diagram: &Diagram,
    tasks: &mut [Option<Result<SolvedBlock, FailedBlock>>],
    cursor: &mut usize,
    out: &mut Vec<(BlockSolution, MissionMeasures)>,
    failed: &mut Vec<FailedBlock>,
) -> Aggregate {
    let mut avail = 1.0;
    let mut unavail = 0.0;
    let mut rate_over_avail = 0.0; // sum of f_i / A_i
    for block in &diagram.blocks {
        let combined = assemble_block(block, tasks, cursor, out, failed);
        avail *= combined.availability;
        unavail = series_unavailability(unavail, combined.unavailability);
        if combined.availability > 0.0 {
            rate_over_avail += combined.failure_rate / combined.availability;
        }
    }
    Aggregate {
        availability: avail,
        unavailability: unavail,
        failure_rate: avail * rate_over_avail,
    }
}

fn assemble_block(
    block: &Block,
    tasks: &mut [Option<Result<SolvedBlock, FailedBlock>>],
    cursor: &mut usize,
    out: &mut Vec<(BlockSolution, MissionMeasures)>,
    failed: &mut Vec<FailedBlock>,
) -> Aggregate {
    let t = tasks[*cursor].take().expect("walk order matches assembly order");
    *cursor += 1;
    let t = match t {
        Ok(t) => t,
        Err(f) => {
            // Degraded leaf (best-effort mode): the block's own chain
            // contributes the *optimistic* identity — availability 1,
            // rate 0 — and the failure is reported explicitly. Its
            // subdiagram solved independently and still rolls up.
            failed.push(f);
            return match &block.subdiagram {
                Some(sub) => assemble_diagram(sub, tasks, cursor, out, failed),
                None => Aggregate { availability: 1.0, unavailability: 0.0, failure_rate: 0.0 },
            };
        }
    };
    let my_index = out.len();
    let measures = t.measures;
    out.push((
        BlockSolution {
            path: t.path,
            level: t.level,
            model: t.model,
            measures,
            combined_availability: measures.availability,
            combined_failure_rate: measures.failure_rate,
            certificate: t.certificate,
        },
        t.mission_measures,
    ));

    let mut avail = measures.availability;
    let mut unavail = measures.unavailability;
    let mut rate = measures.failure_rate;
    if let Some(sub) = &block.subdiagram {
        let sub_agg = assemble_diagram(sub, tasks, cursor, out, failed);
        // Both the enclosure chain and the subdiagram must be up.
        let combined_avail = avail * sub_agg.availability;
        let combined_rate = rate * sub_agg.availability + sub_agg.failure_rate * avail;
        avail = combined_avail;
        rate = combined_rate;
        unavail = series_unavailability(unavail, sub_agg.unavailability);
        out[my_index].0.combined_availability = avail;
        out[my_index].0.combined_failure_rate = rate;
    }
    Aggregate { availability: avail, unavailability: unavail, failure_rate: rate }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rascad_spec::units::Hours;

    fn spec(blocks: usize) -> SystemSpec {
        let mut d = Diagram::new("Sys");
        for i in 0..blocks {
            d.push(
                BlockParams::new(format!("B{i}"), 2, 1)
                    .with_mtbf(Hours(10_000.0 + 1_000.0 * i as f64)),
            );
        }
        SystemSpec::new(d, rascad_spec::GlobalParams::default())
    }

    #[test]
    #[allow(clippy::float_cmp)] // exact equality asserts the roll-up's own arithmetic
    fn system_unavailability_rolls_up_the_blocks() {
        let sol = Engine::sequential().solve_spec(&spec(3)).unwrap();
        let u = sol.blocks.iter().fold(0.0, |u, b| u + (1.0 - u) * b.measures.unavailability);
        assert_eq!(sol.system.unavailability, u);
        assert_eq!(sol.system.yearly_downtime_minutes, u * crate::measures::MINUTES_PER_YEAR);
        let by_cancellation = 1.0 - sol.system.availability;
        assert!((u - by_cancellation).abs() <= 1e-9 * u, "{u:e} vs {by_cancellation:e}");
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 8] {
            let out = par_map(&items, threads, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_caught_isolates_panics_per_item() {
        let items: Vec<usize> = (0..10).collect();
        for threads in [1, 4] {
            let out = par_map_caught(&items, threads, |_, &x| {
                if x == 3 {
                    panic!("boom {x}");
                }
                x * 2
            });
            for (i, r) in out.iter().enumerate() {
                match r {
                    Ok(v) => {
                        assert_ne!(i, 3);
                        assert_eq!(*v, i * 2);
                    }
                    Err(msg) => {
                        assert_eq!(i, 3);
                        assert_eq!(msg, "boom 3");
                    }
                }
            }
        }
    }

    #[test]
    fn par_map_runs_inline_when_nested() {
        let outer: Vec<usize> = (0..4).collect();
        let out = par_map(&outer, 4, |_, &x| {
            let inner: Vec<usize> = (0..4).collect();
            // Inner call must not spawn (it runs on a pool worker).
            let inner_out = par_map(&inner, 8, |_, &y| y + x);
            inner_out.iter().sum::<usize>()
        });
        assert_eq!(out, vec![6, 10, 14, 18]);
    }

    #[test]
    fn par_map_caller_is_one_of_the_workers() {
        // Both items wait for each other, so they run at once on the
        // batch's two workers; one of them must be the caller.
        let both = std::sync::Barrier::new(2);
        let ids = par_map(&[0, 1], 2, |_, _| {
            both.wait();
            std::thread::current().id()
        });
        assert_ne!(ids[0], ids[1]);
        assert!(ids.contains(&std::thread::current().id()), "the caller ran no item");
        // The caller's worker mark is lifted after the batch, so its
        // next batch fans out again rather than running inline.
        assert!(!IN_POOL.with(Cell::get));
    }

    #[test]
    fn par_map_panic_on_caller_clears_worker_mark() {
        let items: Vec<usize> = (0..8).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map(&items, 2, |_, &x| {
                if x < items.len() {
                    panic!("item {x} fails");
                }
                x
            })
        });
        assert!(caught.is_err());
        assert!(!IN_POOL.with(Cell::get));
    }

    #[test]
    fn engine_matches_sequential_reference() {
        let s = spec(5);
        let reference = Engine::sequential().solve_spec(&s).unwrap();
        for threads in [1, 2, 8] {
            let got = Engine::with_threads(threads).solve_spec(&s).unwrap();
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn repeated_solves_hit_the_cache() {
        let e = Engine::with_threads(1);
        let s = spec(4);
        let a = e.solve_spec(&s).unwrap();
        let first = e.cache_stats();
        let b = e.solve_spec(&s).unwrap();
        let second = e.cache_stats();
        assert_eq!(a, b);
        assert_eq!(first.hits, 0);
        // Second solve: every steady + mission lookup hits.
        assert_eq!(second.hits, first.misses);
        assert_eq!(second.misses, first.misses);
    }

    #[test]
    fn thread_override_feeds_default() {
        // Serialized against other env-sensitive tests by running in
        // its own process (cargo test uses one process per crate — this
        // only touches the override atomic, not the env var).
        set_thread_override(3);
        assert_eq!(default_threads(), 3);
        assert_eq!(Engine::new().threads(), 3);
        assert_eq!(Engine::with_threads(7).threads(), 7);
        set_thread_override(0);
        assert!(default_threads() >= 1);
    }

    #[test]
    fn ablation_suite_shares_the_cache() {
        let e = Engine::with_threads(2);
        let s = spec(3);
        let suite = e.ablation_suite(&s).unwrap();
        assert_eq!(suite.len(), 7);
        assert_eq!(suite[0].0, "baseline");
        // Variants that don't touch these simple blocks resolve to the
        // baseline chains, so the cache must have been hit.
        assert!(e.cache_stats().hits > 0, "{:?}", e.cache_stats());
        // strip_redundancy changes every chain; its solution differs.
        let strip = suite.iter().find(|(n, _)| *n == "strip_redundancy").unwrap();
        assert!(strip.1.system.availability < suite[0].1.system.availability);
    }
}
