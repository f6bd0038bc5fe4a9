//! Block-solve memoization keyed by chain content.
//!
//! Sweeps, ablation suites, and repeated hierarchy roll-ups re-solve
//! mostly-unchanged specs: a single-parameter sweep mutates one block
//! and leaves every sibling's generated chain bit-identical across all
//! points. The [`SolveCache`] keys solved measures by the chain's
//! [`Fingerprint`](rascad_markov::Fingerprint) (plus the solver method
//! or mission horizon), so unchanged blocks are solved once per engine
//! no matter how many times the spec is re-rolled.
//!
//! Correctness over speed:
//!
//! * The fingerprint is a 64-bit digest, so every hit re-checks full
//!   chain equality before a stored entry is served; a colliding or
//!   poisoned entry (same digest, different chain) is treated as a miss
//!   and overwritten.
//! * Stored values are the exact `f64` results of the deterministic
//!   solver functions, so a cache hit returns bit-identical measures to
//!   a fresh solve of the same chain.
//! * Lookups happen under the lock but solves do not; two threads may
//!   race to compute the same entry, which wastes a solve but both
//!   compute identical values, so the insert race is benign.
//! * Lock poisoning is recovered, not propagated: a worker that
//!   panicked while holding the lock can only have left the maps in a
//!   consistent state (every critical section is a single HashMap
//!   operation), and the engine evicts every entry inserted by a
//!   panicked batch's generation anyway — so surviving workers must
//!   not be taken down by a poisoned mutex, and entries warmed by
//!   earlier clean batches stay resident across the incident.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rascad_markov::{CancelToken, Ctmc, Fingerprint, SteadyStateMethod};

use crate::certify::{SolutionCertificate, Verdict};
use crate::error::CoreError;
use crate::generator::BlockModel;
use crate::measures::{interval_measures, reliability_measures, BlockMeasures};

/// Mission-horizon measures of one chain, the per-block inputs to the
/// system-level mission roll-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissionMeasures {
    /// Expected fraction of `(0, T)` spent up.
    pub interval_availability: f64,
    /// Probability of surviving `(0, T)` without a failure.
    pub reliability_at_mission: f64,
    /// Mean time to first failure, hours.
    pub mttf_hours: f64,
}

/// Computes the mission measures of a model directly (the cached
/// computation).
///
/// # Errors
///
/// Propagates solver errors from the transient/absorbing analyses.
pub fn compute_mission_measures(
    model: &BlockModel,
    mission_hours: f64,
    cancel: Option<&CancelToken>,
) -> Result<MissionMeasures, CoreError> {
    // Reliability first: its MTTF elimination is the step that can
    // fail typed (storage bound, no path down), and it then fails
    // before the interval series spends the horizon.
    let rel = reliability_measures(model, mission_hours, cancel)?;
    let iv = interval_measures(model, mission_hours, cancel)?;
    Ok(MissionMeasures {
        interval_availability: iv.interval_availability,
        reliability_at_mission: rel.reliability_at_mission,
        mttf_hours: rel.mttf_hours,
    })
}

/// Hit/miss counters and current size of a [`SolveCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from a stored entry.
    pub hits: u64,
    /// Lookups that had to solve (includes fingerprint collisions).
    pub misses: u64,
    /// Entries currently stored (steady + mission).
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups served from cache (0 when nothing was looked
    /// up yet).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct SteadyEntry {
    chain: Ctmc,
    measures: BlockMeasures,
    certificate: SolutionCertificate,
    /// Engine solve-batch generation that inserted this entry; panic
    /// invalidation is scoped to one generation (see
    /// [`SolveCache::evict_generation`]).
    generation: u64,
}

struct MissionEntry {
    chain: Ctmc,
    measures: MissionMeasures,
    generation: u64,
}

struct Maps {
    steady: HashMap<(Fingerprint, SteadyStateMethod), SteadyEntry>,
    mission: HashMap<(Fingerprint, u64), MissionEntry>,
}

/// Content-addressed store of solved block measures.
///
/// Thread-safe; shared by every worker of one [`Engine`]
/// (`crate::engine::Engine`).
pub struct SolveCache {
    maps: Mutex<Maps>,
    hits: AtomicU64,
    misses: AtomicU64,
    capacity: usize,
}

impl std::fmt::Debug for SolveCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("SolveCache")
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("entries", &s.entries)
            .finish()
    }
}

impl Default for SolveCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Entries kept per map before the cache resets itself. Availability
/// hierarchies have tens of distinct chains; sweeps add one variant per
/// point, so thousands of entries means a runaway workload — wipe and
/// start over rather than grow without bound.
const DEFAULT_CAPACITY: usize = 4096;

impl SolveCache {
    /// Creates an empty cache with the default capacity.
    #[must_use]
    pub fn new() -> Self {
        SolveCache {
            maps: Mutex::new(Maps { steady: HashMap::new(), mission: HashMap::new() }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capacity: DEFAULT_CAPACITY,
        }
    }

    /// Current hit/miss/size counters.
    pub fn stats(&self) -> CacheStats {
        let maps = self.maps.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: maps.steady.len() + maps.mission.len(),
        }
    }

    /// Drops every stored entry (counters are kept).
    pub fn clear(&self) {
        let mut maps = self.maps.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        maps.steady.clear();
        maps.mission.clear();
    }

    /// Drops only the entries inserted by solve-batch `generation` —
    /// the panic-invalidation path. A worker panic taints at most the
    /// batch it ran in; entries warmed by earlier (clean) batches stay
    /// resident, so one poisoned tenant spec cannot evict a long-lived
    /// server's warm cross-request cache.
    pub fn evict_generation(&self, generation: u64) {
        let mut maps = self.maps.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        maps.steady.retain(|_, e| e.generation != generation);
        maps.mission.retain(|_, e| e.generation != generation);
        rascad_obs::gauge_set(
            "core.cache.entries",
            &[("kind", "steady")],
            maps.steady.len() as f64,
        );
        rascad_obs::gauge_set(
            "core.cache.entries",
            &[("kind", "mission")],
            maps.mission.len() as f64,
        );
    }

    fn note_hit(&self, kind: &str) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        rascad_obs::counter_with("core.cache.hits", &[("kind", kind)], 1);
    }

    fn note_miss(&self, kind: &str) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        rascad_obs::counter_with("core.cache.misses", &[("kind", kind)], 1);
    }

    /// Steady-state measures of `model`'s chain, served from cache when
    /// an equal chain was solved with the same method before.
    ///
    /// # Errors
    ///
    /// Propagates solver errors; errors are never cached.
    pub fn steady(
        &self,
        model: &BlockModel,
        method: SteadyStateMethod,
    ) -> Result<BlockMeasures, CoreError> {
        self.steady_certified(model, method).map(|(measures, _)| measures)
    }

    /// [`SolveCache::steady`] plus the [`SolutionCertificate`] issued
    /// for the solve. Certificates are stored with their entries, so a
    /// cache hit returns the certificate of the original solve,
    /// bit-identical to a fresh one.
    ///
    /// # Errors
    ///
    /// Propagates solver and certification errors; errors are never
    /// cached.
    pub fn steady_certified(
        &self,
        model: &BlockModel,
        method: SteadyStateMethod,
    ) -> Result<(BlockMeasures, SolutionCertificate), CoreError> {
        self.steady_certified_with(model, method, &rascad_markov::SolveOptions::default(), 0)
    }

    /// [`SolveCache::steady_certified`] with caller-supplied solve
    /// budgets and the engine batch `generation` tagging any insert.
    /// Hits are options-blind — a stored solution is bit-identical no
    /// matter what budget computed it — while misses solve under the
    /// caller's deadline/cancellation budgets; errors (including
    /// cancellations) are never cached.
    ///
    /// # Errors
    ///
    /// Propagates solver and certification errors; errors are never
    /// cached.
    pub fn steady_certified_with(
        &self,
        model: &BlockModel,
        method: SteadyStateMethod,
        options: &rascad_markov::SolveOptions,
        generation: u64,
    ) -> Result<(BlockMeasures, SolutionCertificate), CoreError> {
        self.steady_keyed(model, model.chain.fingerprint(), method, options, generation)
    }

    /// [`SolveCache::steady_certified_with`] for a caller that already
    /// holds `model.chain`'s fingerprint.
    pub(crate) fn steady_keyed(
        &self,
        model: &BlockModel,
        fingerprint: Fingerprint,
        method: SteadyStateMethod,
        options: &rascad_markov::SolveOptions,
        generation: u64,
    ) -> Result<(BlockMeasures, SolutionCertificate), CoreError> {
        let key = (fingerprint, method);
        {
            let maps = self.maps.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(e) = maps.steady.get(&key) {
                if e.chain == model.chain {
                    self.note_hit("steady");
                    return Ok((e.measures, e.certificate.clone()));
                }
            }
        }
        self.note_miss("steady");
        let (measures, certificate) =
            crate::measures::steady_state_measures_with_certificate_opts(model, method, options)?;
        let mut maps = self.maps.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if maps.steady.len() >= self.capacity {
            maps.steady.clear();
        }
        maps.steady.insert(
            key,
            SteadyEntry {
                chain: model.chain.clone(),
                measures,
                certificate: certificate.clone(),
                generation,
            },
        );
        rascad_obs::gauge_set(
            "core.cache.entries",
            &[("kind", "steady")],
            maps.steady.len() as f64,
        );
        Ok((measures, certificate))
    }

    /// Mission measures of `model`'s chain over `(0, mission_hours)`,
    /// served from cache when an equal chain was analyzed over the same
    /// horizon before.
    ///
    /// # Errors
    ///
    /// Propagates solver errors; errors are never cached.
    pub fn mission(
        &self,
        model: &BlockModel,
        mission_hours: f64,
    ) -> Result<MissionMeasures, CoreError> {
        self.mission_with(model, mission_hours, 0)
    }

    /// [`SolveCache::mission`] with the engine batch `generation`
    /// tagging any insert (see [`SolveCache::evict_generation`]).
    ///
    /// # Errors
    ///
    /// Propagates solver errors; errors are never cached.
    pub fn mission_with(
        &self,
        model: &BlockModel,
        mission_hours: f64,
        generation: u64,
    ) -> Result<MissionMeasures, CoreError> {
        self.mission_keyed(model, model.chain.fingerprint(), mission_hours, generation, None)
    }

    /// [`SolveCache::mission_with`] for a caller that already holds
    /// `model.chain`'s fingerprint, polling a request's cancellation
    /// token in the solves of a miss. A cancelled solve is an error, so
    /// it is never cached.
    pub(crate) fn mission_keyed(
        &self,
        model: &BlockModel,
        fingerprint: Fingerprint,
        mission_hours: f64,
        generation: u64,
        cancel: Option<&CancelToken>,
    ) -> Result<MissionMeasures, CoreError> {
        let key = (fingerprint, mission_hours.to_bits());
        {
            let maps = self.maps.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(e) = maps.mission.get(&key) {
                if e.chain == model.chain {
                    self.note_hit("mission");
                    return Ok(e.measures);
                }
            }
        }
        self.note_miss("mission");
        let measures = compute_mission_measures(model, mission_hours, cancel)?;
        let mut maps = self.maps.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if maps.mission.len() >= self.capacity {
            maps.mission.clear();
        }
        maps.mission.insert(key, MissionEntry { chain: model.chain.clone(), measures, generation });
        rascad_obs::gauge_set(
            "core.cache.entries",
            &[("kind", "mission")],
            maps.mission.len() as f64,
        );
        Ok(measures)
    }

    /// Test hook: forcibly associates `model`'s fingerprint with a
    /// *different* chain's entry, simulating a digest collision or a
    /// corrupted store. Used to prove the equality guard never serves a
    /// stale solution.
    #[doc(hidden)]
    pub fn poison_steady(
        &self,
        model: &BlockModel,
        method: SteadyStateMethod,
        wrong_chain: Ctmc,
        wrong_measures: BlockMeasures,
    ) {
        let key = (model.chain.fingerprint(), method);
        let bogus_certificate = SolutionCertificate {
            residual_inf: 0.0,
            prob_mass_error: 0.0,
            condition_estimate: None,
            method: "poison".to_string(),
            trail: vec!["poison: injected by test".to_string()],
            verdict: Verdict::Ok,
        };
        let mut maps = self.maps.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        maps.steady.insert(
            key,
            SteadyEntry {
                chain: wrong_chain,
                measures: wrong_measures,
                certificate: bogus_certificate,
                generation: 0,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_block;
    use crate::measures::steady_state_measures;
    use rascad_spec::units::Hours;
    use rascad_spec::{BlockParams, GlobalParams};

    fn model(mtbf: f64) -> BlockModel {
        let p = BlockParams::new("Blk", 2, 1).with_mtbf(Hours(mtbf));
        generate_block(&p, &GlobalParams::default()).unwrap()
    }

    #[test]
    fn second_lookup_hits_and_matches_fresh_solve() {
        let cache = SolveCache::new();
        let m = model(10_000.0);
        let a = cache.steady(&m, SteadyStateMethod::Gth).unwrap();
        let b = cache.steady(&m, SteadyStateMethod::Gth).unwrap();
        let fresh = steady_state_measures(&m, SteadyStateMethod::Gth).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, fresh);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn different_method_or_chain_misses() {
        let cache = SolveCache::new();
        let m1 = model(10_000.0);
        let m2 = model(20_000.0);
        cache.steady(&m1, SteadyStateMethod::Gth).unwrap();
        cache.steady(&m1, SteadyStateMethod::Lu).unwrap();
        cache.steady(&m2, SteadyStateMethod::Gth).unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 3));
        assert_eq!(s.entries, 3);
    }

    #[test]
    fn mission_measures_cache_by_horizon() {
        let cache = SolveCache::new();
        let m = model(10_000.0);
        let a = cache.mission(&m, 8760.0).unwrap();
        let b = cache.mission(&m, 8760.0).unwrap();
        let c = cache.mission(&m, 720.0).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let fresh = compute_mission_measures(&m, 8760.0, None).unwrap();
        assert_eq!(a, fresh);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn cancelled_mission_is_never_cached() {
        let cache = SolveCache::new();
        let m = model(10_000.0);
        let token = CancelToken::new();
        token.cancel();
        let err =
            cache.mission_keyed(&m, m.chain.fingerprint(), 8760.0, 0, Some(&token)).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Markov { source: rascad_markov::MarkovError::Cancelled { .. }, .. }
            ),
            "{err:?}"
        );
        assert_eq!(cache.stats().entries, 0);
        // The next, uncancelled lookup solves afresh and then caches.
        let fresh = cache.mission(&m, 8760.0).unwrap();
        assert_eq!(fresh, compute_mission_measures(&m, 8760.0, None).unwrap());
        assert_eq!((cache.stats().misses, cache.stats().entries), (2, 1));
    }

    #[test]
    fn poisoned_entry_is_never_served() {
        let cache = SolveCache::new();
        let m = model(10_000.0);
        let wrong = model(77.0);
        let bogus = BlockMeasures::from_availability(0.123, 4.56);
        cache.poison_steady(&m, SteadyStateMethod::Gth, wrong.chain.clone(), bogus);
        // Equality guard rejects the mismatched chain: full solve, not
        // the bogus stored measures.
        let got = cache.steady(&m, SteadyStateMethod::Gth).unwrap();
        let fresh = steady_state_measures(&m, SteadyStateMethod::Gth).unwrap();
        assert_eq!(got, fresh);
        assert_ne!(got, bogus);
        assert_eq!(cache.stats().misses, 1);
        // The poisoned entry was overwritten; the next lookup hits.
        let again = cache.steady(&m, SteadyStateMethod::Gth).unwrap();
        assert_eq!(again, fresh);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn cache_hit_returns_the_original_certificate() {
        let cache = SolveCache::new();
        let m = model(10_000.0);
        let (_, fresh_cert) = cache.steady_certified(&m, SteadyStateMethod::Gth).unwrap();
        let (_, cached_cert) = cache.steady_certified(&m, SteadyStateMethod::Gth).unwrap();
        assert_eq!(fresh_cert, cached_cert);
        assert_eq!(fresh_cert.verdict, Verdict::Ok);
        assert_eq!(fresh_cert.method, "gth");
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn evict_generation_is_scoped_to_its_batch() {
        let cache = SolveCache::new();
        let warm = model(10_000.0);
        let tainted = model(20_000.0);
        let opts = rascad_markov::SolveOptions::default();
        // Generation 1 warms the cache cleanly; generation 2 inserts
        // alongside a (hypothetical) panic.
        cache.steady_certified_with(&warm, SteadyStateMethod::Gth, &opts, 1).unwrap();
        cache.mission_with(&warm, 8760.0, 1).unwrap();
        cache.steady_certified_with(&tainted, SteadyStateMethod::Gth, &opts, 2).unwrap();
        cache.mission_with(&tainted, 8760.0, 2).unwrap();
        assert_eq!(cache.stats().entries, 4);
        cache.evict_generation(2);
        assert_eq!(cache.stats().entries, 2);
        // The warm generation still hits; the evicted one re-solves.
        cache.steady_certified_with(&warm, SteadyStateMethod::Gth, &opts, 3).unwrap();
        assert_eq!(cache.stats().hits, 1);
        cache.steady_certified_with(&tainted, SteadyStateMethod::Gth, &opts, 3).unwrap();
        assert_eq!(cache.stats().misses, 5);
    }

    #[test]
    fn clear_empties_the_store() {
        let cache = SolveCache::new();
        let m = model(10_000.0);
        cache.steady(&m, SteadyStateMethod::Gth).unwrap();
        cache.mission(&m, 100.0).unwrap();
        assert_eq!(cache.stats().entries, 2);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        cache.steady(&m, SteadyStateMethod::Gth).unwrap();
        assert_eq!(cache.stats().misses, 3);
    }
}
