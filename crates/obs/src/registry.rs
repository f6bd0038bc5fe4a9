//! The live metrics registry: labeled counters, gauges and value
//! histograms, sharded per thread and mergeable at any time.
//!
//! Each instrumented thread owns one [`Shard`] (a pair of `BTreeMap`s
//! behind a mutex that is only contended when a snapshot is taken).
//! When the thread exits, its shard leaves the live list and folds into
//! one `retired` shard, so the registry holds one shard per *running*
//! thread no matter how many threads a long-lived process has spawned.
//! [`MetricsRegistry::snapshot`] merges every shard into one
//! [`RegistrySnapshot`] *without* disturbing the accumulation — a
//! long-running process can be scraped mid-run — while
//! [`MetricsRegistry::drain`] is snapshot-and-reset, so repeated
//! drains partition the event stream losslessly.
//!
//! Series identity is [`SeriesId`]: a static metric name plus a sorted
//! label set, e.g. `core.cache.hits{kind="steady"}`. The unlabeled
//! fast path allocates nothing (an empty label `Vec`), so the
//! pre-existing `counter`/`record_value` API costs what it always did.
//!
//! The [`CATALOG`] lists every metric the workspace emits, so
//! reporting layers can zero-fill absent counters and attach help text
//! without hand-maintained lists going stale.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::agg::Histogram;
use crate::lock;

/// What a catalogued metric is, for exposition TYPE lines and
/// zero-fill decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Last-set level.
    Gauge,
    /// Value distribution (sparse log-bucket histogram).
    Histogram,
}

/// One entry of the [`CATALOG`].
#[derive(Debug, Clone, Copy)]
pub struct MetricDesc {
    /// Dotted metric name as passed to the instrumentation calls.
    pub name: &'static str,
    /// Counter, gauge or histogram.
    pub kind: MetricKind,
    /// Label keys this metric may carry (empty for unlabeled metrics).
    pub labels: &'static [&'static str],
    /// One-line description, used for Prometheus `# HELP`.
    pub help: &'static str,
}

/// Every metric the workspace emits, in name order. Reporting layers
/// (`rascad stats`, the Prometheus encoder) zero-fill counters from
/// this list so a metric that never fired still shows up as `0`
/// instead of silently going missing.
pub const CATALOG: &[MetricDesc] = &[
    MetricDesc {
        name: "core.block_states",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "State count of each generated Markov chain",
    },
    MetricDesc {
        name: "core.blocks_generated",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Blocks run through the chain generator",
    },
    MetricDesc {
        name: "core.cache.entries",
        kind: MetricKind::Gauge,
        labels: &["kind"],
        help: "Entries resident in the block-solution cache",
    },
    MetricDesc {
        name: "core.cache.hits",
        kind: MetricKind::Counter,
        labels: &["kind"],
        help: "Block-solution cache hits by cache kind",
    },
    MetricDesc {
        name: "core.cache.misses",
        kind: MetricKind::Counter,
        labels: &["kind"],
        help: "Block-solution cache misses by cache kind",
    },
    MetricDesc {
        name: "core.degraded_solves",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Blocks rolled up as availability bounds under --best-effort",
    },
    MetricDesc {
        name: "core.pool.batches",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Parallel map batches dispatched to the worker pool",
    },
    MetricDesc {
        name: "core.pool.tasks",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Tasks executed by the worker pool",
    },
    MetricDesc {
        name: "core.pool.workers",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "Worker threads used per parallel batch",
    },
    MetricDesc {
        name: "core.specs_solved",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Full system specifications solved",
    },
    MetricDesc {
        name: "core.sweep_points",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Parametric sweep points evaluated",
    },
    MetricDesc {
        name: "engine.worker_panics",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Worker panics caught and isolated by the solve engine",
    },
    MetricDesc {
        name: "fielddata.outages_pooled",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Outage records pooled by the field-data estimator",
    },
    MetricDesc {
        name: "gmb.models_solved",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Generic Markov models solved via the registry",
    },
    MetricDesc {
        name: "library.specs_built",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Library example specifications constructed",
    },
    MetricDesc {
        name: "lint.tier_c.bdd_nodes",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "BDD nodes per Tier C structure-function compilation",
    },
    MetricDesc {
        name: "lint.tier_c.cut_sets",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "Minimal cut sets enumerated per Tier C run (order-capped)",
    },
    MetricDesc {
        name: "lint.tier_c.runs",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Tier C structural analysis passes executed",
    },
    MetricDesc {
        name: "markov.gth.min_pivot",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "Smallest pivot magnitude per GTH elimination",
    },
    MetricDesc {
        name: "markov.gth.states",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "Chain size per GTH solve",
    },
    MetricDesc {
        name: "markov.lu.condest",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "1-norm condition-number estimate per dense LU solve",
    },
    MetricDesc {
        name: "markov.lu.fill",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "Fill-in produced per LU factorization",
    },
    MetricDesc {
        name: "markov.solves",
        kind: MetricKind::Counter,
        labels: &["method"],
        help: "Steady-state solves by method (lu, gth)",
    },
    MetricDesc {
        name: "markov.transient.grid_solves",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Transient grid evaluations (one shared Poisson series)",
    },
    MetricDesc {
        name: "markov.transient.kmax",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "Poisson series terms per transient solve (under doubling, its short tau-series)",
    },
    MetricDesc {
        name: "markov.transient.solves",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Point transient solves (series or doubling kernel)",
    },
    MetricDesc {
        name: "markov.transient.squarings",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Dense squarings spent by the transient doubling kernel",
    },
    MetricDesc {
        name: "markov.transient.truncation",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "Residual truncation mass (1 - captured probability) per transient solve",
    },
    MetricDesc {
        name: "markov.transient.vec_mul_steps",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Sparse matrix-vector products spent in transient solves",
    },
    MetricDesc {
        name: "rbd.evaluations",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Reliability-block-diagram availability evaluations",
    },
    MetricDesc {
        name: "serve.inflight",
        kind: MetricKind::Gauge,
        labels: &[],
        help: "Requests currently admitted and executing in the service",
    },
    MetricDesc {
        name: "serve.latency",
        kind: MetricKind::Histogram,
        labels: &["route"],
        help: "End-to-end request latency in milliseconds by route",
    },
    MetricDesc {
        name: "serve.requests",
        kind: MetricKind::Counter,
        labels: &["route", "status"],
        help: "HTTP requests served by route and status class",
    },
    MetricDesc {
        name: "serve.shed",
        kind: MetricKind::Counter,
        labels: &["reason"],
        help: "Requests shed by admission control (429 Retry-After) by reason",
    },
    MetricDesc {
        name: "sim.availability",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "Estimated availability per simulation run",
    },
    MetricDesc {
        name: "sim.events",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Discrete events processed by the simulator",
    },
    MetricDesc {
        name: "sim.replications",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Monte-Carlo replications executed",
    },
    MetricDesc {
        name: "solve.certified",
        kind: MetricKind::Counter,
        labels: &["verdict"],
        help: "Solution certificates issued by verdict (ok, warn, fail)",
    },
    MetricDesc {
        name: "solve.timeouts",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Steady-state solves that ran out of wall-clock budget",
    },
];

/// Looks a metric up in the [`CATALOG`] by its dotted name.
#[must_use]
pub fn describe(name: &str) -> Option<&'static MetricDesc> {
    CATALOG.iter().find(|d| d.name == name)
}

/// Identity of one time series: metric name plus sorted labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesId {
    /// Dotted metric name.
    pub name: &'static str,
    /// Label key/value pairs, sorted by key.
    pub labels: Vec<(String, String)>,
}

impl SeriesId {
    /// An unlabeled series. Allocates nothing.
    #[must_use]
    pub fn plain(name: &'static str) -> SeriesId {
        SeriesId { name, labels: Vec::new() }
    }

    /// A labeled series; labels are copied and sorted by key.
    #[must_use]
    pub fn with_labels(name: &'static str, labels: &[(&str, &str)]) -> SeriesId {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| ((*k).to_string(), (*v).to_string())).collect();
        labels.sort();
        SeriesId { name, labels }
    }

    /// Renders the series as `name` or `name{k="v",...}` — the form
    /// used in drain events, tables and BENCH documents.
    #[must_use]
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.to_string();
        }
        let mut out = String::with_capacity(self.name.len() + 16);
        out.push_str(self.name);
        out.push('{');
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(v);
            out.push('"');
        }
        out.push('}');
        out
    }
}

/// One thread's accumulated series (the per-thread shard).
#[derive(Debug, Default)]
pub(crate) struct Shard {
    pub(crate) counters: BTreeMap<SeriesId, u64>,
    pub(crate) values: BTreeMap<SeriesId, Histogram>,
}

impl Shard {
    fn clear(&mut self) {
        self.counters.clear();
        self.values.clear();
    }

    /// Adds `other`'s series into this shard. Ids are cloned only for
    /// series this shard has not seen yet.
    fn merge(&mut self, other: &Shard) {
        for (id, v) in &other.counters {
            match self.counters.get_mut(id) {
                Some(total) => *total += v,
                None => {
                    self.counters.insert(id.clone(), *v);
                }
            }
        }
        for (id, h) in &other.values {
            match self.values.get_mut(id) {
                Some(total) => total.merge(h),
                None => {
                    self.values.insert(id.clone(), h.clone());
                }
            }
        }
    }
}

/// A merged, point-in-time view of every series in the registry.
///
/// Histograms are carried whole (not summarized), so exporters that
/// need bucket detail — the Prometheus encoder — work from the same
/// snapshot as the summary tables.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Counters, sorted by series id.
    pub counters: Vec<(SeriesId, u64)>,
    /// Gauges (last set value), sorted by series id.
    pub gauges: Vec<(SeriesId, f64)>,
    /// Value histograms, sorted by series id.
    pub values: Vec<(SeriesId, Histogram)>,
}

impl RegistrySnapshot {
    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.values.is_empty()
    }

    /// Total of every counter series matching the dotted `name`
    /// (summing across label sets). `None` when no series matches.
    #[must_use]
    pub fn counter_total(&self, name: &str) -> Option<u64> {
        let mut found = false;
        let mut total = 0;
        for (id, v) in &self.counters {
            if id.name == name {
                found = true;
                total += v;
            }
        }
        found.then_some(total)
    }
}

/// The process-wide registry of per-thread shards and global gauges.
///
/// Obtained via [`MetricsRegistry::global`]; instrumentation writes to
/// it through the free functions in the crate root (`counter`,
/// `counter_with`, …), which are gated on the telemetry flag.
///
/// Lock order: `shards`, then one shard, then `retired`.
pub struct MetricsRegistry {
    /// The shards of running threads.
    shards: Mutex<Vec<Arc<Mutex<Shard>>>>,
    /// Everything recorded by threads that have exited.
    retired: Mutex<Shard>,
    /// Gauges are set-not-accumulated, so they live globally (last
    /// write wins, under one rarely-taken lock) instead of per shard.
    gauges: Mutex<BTreeMap<SeriesId, f64>>,
}

static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();

/// A thread's registration: the shard it writes, shared with the
/// registry's live list until the thread exits and the handle drops.
struct ShardHandle(Arc<Mutex<Shard>>);

impl Drop for ShardHandle {
    fn drop(&mut self) {
        let registry = MetricsRegistry::global();
        let mut shards = lock(&registry.shards);
        if let Some(i) = shards.iter().position(|s| Arc::ptr_eq(s, &self.0)) {
            shards.swap_remove(i);
        }
        let exited = std::mem::take(&mut *lock(&self.0));
        lock(&registry.retired).merge(&exited);
    }
}

thread_local! {
    /// This thread's shard, shared with the global registry.
    static SHARD: RefCell<Option<ShardHandle>> = const { RefCell::new(None) };
}

impl MetricsRegistry {
    /// The process-wide registry.
    pub fn global() -> &'static MetricsRegistry {
        REGISTRY.get_or_init(|| MetricsRegistry {
            shards: Mutex::new(Vec::new()),
            retired: Mutex::new(Shard::default()),
            gauges: Mutex::new(BTreeMap::new()),
        })
    }

    /// Merges every shard into one view **without** resetting — safe
    /// to call at any point in a run (a scrape), any number of times.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.collect(false)
    }

    /// Merges every shard into one view and resets the accumulation:
    /// consecutive drains partition the recorded series losslessly
    /// (nothing is dropped, nothing is double-counted). Gauges keep
    /// their level — they are a state, not a flow.
    pub fn drain(&self) -> RegistrySnapshot {
        self.collect(true)
    }

    /// Clears every shard, the retired shard and every gauge (a fresh
    /// install).
    pub(crate) fn reset(&self) {
        let shards = lock(&self.shards);
        for shard in shards.iter() {
            lock(shard).clear();
        }
        lock(&self.retired).clear();
        lock(&self.gauges).clear();
    }

    fn collect(&self, reset: bool) -> RegistrySnapshot {
        let mut merged = Shard::default();
        // Held throughout, so a thread retiring mid-merge is counted
        // exactly once: either live or retired.
        let shards = lock(&self.shards);
        for shard in shards.iter() {
            let mut shard = lock(shard);
            merged.merge(&shard);
            if reset {
                shard.clear();
            }
        }
        let mut retired = lock(&self.retired);
        merged.merge(&retired);
        if reset {
            retired.clear();
        }
        drop(retired);
        drop(shards);
        let gauges = lock(&self.gauges).iter().map(|(id, v)| (id.clone(), *v)).collect();
        RegistrySnapshot {
            counters: merged.counters.into_iter().collect(),
            gauges,
            values: merged.values.into_iter().collect(),
        }
    }

    /// Shards of running threads currently registered.
    #[cfg(test)]
    pub(crate) fn live_shards(&self) -> usize {
        lock(&self.shards).len()
    }
}

/// Runs `f` on this thread's shard, registering it on first use. Once
/// the thread-local is gone (a record made while the thread's locals
/// are being torn down), `f` runs on the retired shard instead, so no
/// record is lost.
fn with_shard(f: impl FnOnce(&mut Shard)) {
    let mut f = Some(f);
    let _ = SHARD.try_with(|slot| {
        let mut slot = slot.borrow_mut();
        let handle = slot.get_or_insert_with(|| {
            let arc = Arc::new(Mutex::new(Shard::default()));
            lock(&MetricsRegistry::global().shards).push(Arc::clone(&arc));
            ShardHandle(arc)
        });
        if let Some(f) = f.take() {
            f(&mut lock(&handle.0));
        }
    });
    if let Some(f) = f {
        f(&mut lock(&MetricsRegistry::global().retired));
    }
}

pub(crate) fn add_counter(id: SeriesId, delta: u64) {
    with_shard(|s| *s.counters.entry(id).or_insert(0) += delta);
}

pub(crate) fn record(id: SeriesId, v: f64) {
    with_shard(|s| s.values.entry(id).or_default().record(v));
}

pub(crate) fn set_gauge(id: SeriesId, v: f64) {
    lock(&MetricsRegistry::global().gauges).insert(id, v);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_render_forms() {
        assert_eq!(SeriesId::plain("cache.hits").render(), "cache.hits");
        let id = SeriesId::with_labels("cache.hits", &[("kind", "steady")]);
        assert_eq!(id.render(), "cache.hits{kind=\"steady\"}");
        // Labels sort by key regardless of call-site order, so the
        // same logical series always coalesces.
        let a = SeriesId::with_labels("serve.requests", &[("status", "200"), ("route", "solve")]);
        let b = SeriesId::with_labels("serve.requests", &[("route", "solve"), ("status", "200")]);
        assert_eq!(a, b);
        assert_eq!(a.render(), "serve.requests{route=\"solve\",status=\"200\"}");
    }

    #[test]
    fn plain_series_id_allocates_no_labels() {
        let id = SeriesId::plain("x");
        assert_eq!(id.labels.capacity(), 0);
    }

    #[test]
    fn catalog_is_sorted_unique_and_self_describing() {
        for w in CATALOG.windows(2) {
            assert!(w[0].name < w[1].name, "{} !< {}", w[0].name, w[1].name);
        }
        for d in CATALOG {
            assert!(!d.help.is_empty(), "{} lacks help", d.name);
        }
        assert!(describe("markov.solves").is_some());
        assert!(describe("no.such.metric").is_none());
    }

    /// Every catalogued metric still has an emitter: its name appears
    /// as a string literal in some source file under `crates/*/src`
    /// other than this catalog, so deleting a metric's last emitter
    /// fails here until its entry goes too.
    #[test]
    fn every_catalogued_metric_appears_outside_the_catalog() {
        use std::path::{Path, PathBuf};
        fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    rust_files(&path, out);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    out.push(path);
                }
            }
        }
        let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let catalog = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/registry.rs");
        let mut files = Vec::new();
        for krate in std::fs::read_dir(crates).unwrap() {
            let src = krate.unwrap().path().join("src");
            if src.is_dir() {
                rust_files(&src, &mut files);
            }
        }
        let text: String = files
            .iter()
            .filter(|f| **f != catalog)
            .map(|f| std::fs::read_to_string(f).unwrap())
            .collect();
        for d in CATALOG {
            let literal = format!("\"{}\"", d.name);
            assert!(text.contains(&literal), "{} is catalogued but never emitted", d.name);
        }
    }

    #[test]
    fn snapshot_counter_total_sums_label_sets() {
        let snap = RegistrySnapshot {
            counters: vec![
                (SeriesId::with_labels("cache.hits", &[("kind", "mission")]), 2),
                (SeriesId::with_labels("cache.hits", &[("kind", "steady")]), 3),
            ],
            gauges: Vec::new(),
            values: Vec::new(),
        };
        assert_eq!(snap.counter_total("cache.hits"), Some(5));
        assert_eq!(snap.counter_total("cache.misses"), None);
    }
}
