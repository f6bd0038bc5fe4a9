//! Bounded admission with per-tenant concurrency limits.
//!
//! The service sheds load at the front door instead of queueing
//! unboundedly: a request is either admitted (and holds an RAII
//! [`Permit`] for its whole execution) or rejected immediately with a
//! `Retry-After` hint. Two caps apply — a global in-flight ceiling
//! protecting the worker pool, and a per-tenant ceiling so one noisy
//! tenant cannot starve the rest.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Admission caps.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Global in-flight ceiling across all tenants.
    pub max_inflight: usize,
    /// Per-tenant in-flight ceiling.
    pub max_per_tenant: usize,
    /// `Retry-After` seconds suggested on shed responses.
    pub retry_after_secs: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { max_inflight: 8, max_per_tenant: 4, retry_after_secs: 1 }
    }
}

#[derive(Default)]
struct Counts {
    total: usize,
    per_tenant: HashMap<String, usize>,
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The global in-flight ceiling is reached.
    QueueFull,
    /// This tenant is at its concurrency cap.
    TenantLimit,
}

impl ShedReason {
    /// Stable label used in error bodies and metrics.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::TenantLimit => "tenant_limit",
        }
    }
}

/// The admission gate. One per server.
pub struct Admission {
    cfg: AdmissionConfig,
    counts: Mutex<Counts>,
    drained: Condvar,
}

impl Admission {
    #[must_use]
    pub fn new(cfg: AdmissionConfig) -> Admission {
        Admission { cfg, counts: Mutex::new(Counts::default()), drained: Condvar::new() }
    }

    /// Suggested `Retry-After` value for shed responses.
    #[must_use]
    pub fn retry_after_secs(&self) -> u64 {
        self.cfg.retry_after_secs
    }

    /// Admits or sheds. On success the returned [`Permit`] holds the
    /// slot until dropped; on shed the caller answers 429 immediately
    /// — there is no waiting queue to go stale in.
    ///
    /// # Errors
    ///
    /// [`ShedReason`] when a ceiling is hit; `serve.shed` is counted.
    pub fn try_admit(&self, tenant: &str) -> Result<Permit<'_>, ShedReason> {
        let mut c = self.counts.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let reason = if c.total >= self.cfg.max_inflight {
            Some(ShedReason::QueueFull)
        } else if c.per_tenant.get(tenant).copied().unwrap_or(0) >= self.cfg.max_per_tenant {
            Some(ShedReason::TenantLimit)
        } else {
            None
        };
        if let Some(reason) = reason {
            rascad_obs::counter_with("serve.shed", &[("reason", reason.as_str())], 1);
            return Err(reason);
        }
        c.total += 1;
        *c.per_tenant.entry(tenant.to_string()).or_insert(0) += 1;
        #[allow(clippy::cast_precision_loss)]
        rascad_obs::gauge_set("serve.inflight", &[], c.total as f64);
        Ok(Permit { gate: self, tenant: tenant.to_string() })
    }

    /// Requests currently holding permits.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.counts.lock().unwrap_or_else(std::sync::PoisonError::into_inner).total
    }

    /// Blocks until every permit is returned or the timeout elapses.
    /// Returns whether the gate fully drained.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut c = self.counts.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        while c.total > 0 {
            let Some(left) =
                deadline.checked_duration_since(Instant::now()).filter(|d| !d.is_zero())
            else {
                return false;
            };
            let (guard, _timed_out) = self
                .drained
                .wait_timeout(c, left)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            c = guard;
        }
        true
    }

    fn release(&self, tenant: &str) {
        let mut c = self.counts.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        c.total = c.total.saturating_sub(1);
        if let Some(n) = c.per_tenant.get_mut(tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                c.per_tenant.remove(tenant);
            }
        }
        #[allow(clippy::cast_precision_loss)]
        rascad_obs::gauge_set("serve.inflight", &[], c.total as f64);
        if c.total == 0 {
            self.drained.notify_all();
        }
    }
}

/// RAII admission slot: dropping it — on any path, including a panic
/// unwinding through the handler — returns the slot and wakes drainers.
pub struct Permit<'a> {
    gate: &'a Admission,
    tenant: String,
}

impl std::fmt::Debug for Permit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Permit").field("tenant", &self.tenant).finish_non_exhaustive()
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.release(&self.tenant);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(max_inflight: usize, max_per_tenant: usize) -> Admission {
        Admission::new(AdmissionConfig { max_inflight, max_per_tenant, retry_after_secs: 1 })
    }

    #[test]
    fn global_ceiling_sheds_with_queue_full() {
        let g = gate(2, 2);
        let _a = g.try_admit("t1").unwrap();
        let _b = g.try_admit("t2").unwrap();
        assert_eq!(g.try_admit("t3").unwrap_err(), ShedReason::QueueFull);
        assert_eq!(g.inflight(), 2);
    }

    #[test]
    fn tenant_ceiling_sheds_only_that_tenant() {
        let g = gate(8, 1);
        let _a = g.try_admit("noisy").unwrap();
        assert_eq!(g.try_admit("noisy").unwrap_err(), ShedReason::TenantLimit);
        // Another tenant still gets in.
        let _b = g.try_admit("quiet").unwrap();
        assert_eq!(g.inflight(), 2);
    }

    #[test]
    fn dropping_a_permit_frees_the_slot() {
        let g = gate(1, 1);
        let a = g.try_admit("t").unwrap();
        assert!(g.try_admit("t").is_err());
        drop(a);
        assert_eq!(g.inflight(), 0);
        let _b = g.try_admit("t").unwrap();
    }

    #[test]
    fn permits_release_even_when_the_holder_panics() {
        let g = std::sync::Arc::new(gate(1, 1));
        let g2 = g.clone();
        let worker = std::thread::spawn(move || {
            let _p = g2.try_admit("t").unwrap();
            panic!("boom");
        });
        assert!(worker.join().is_err());
        assert_eq!(g.inflight(), 0, "unwind must return the permit");
    }

    #[test]
    fn drain_waits_for_inflight_and_times_out_honestly() {
        let g = std::sync::Arc::new(gate(4, 4));
        let g2 = g.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        let holder = std::thread::spawn(move || {
            let _p = g2.try_admit("t").unwrap();
            tx.send(()).unwrap();
            std::thread::sleep(Duration::from_millis(80));
        });
        rx.recv().unwrap();
        assert!(!g.drain(Duration::from_millis(10)), "held permit must block the drain");
        assert!(g.drain(Duration::from_secs(5)), "released permit must unblock the drain");
        holder.join().unwrap();
    }
}
