//! Deterministic fault injection for the RAScad solve pipeline.
//!
//! Availability tools make a trust claim — the paper validates RAScad's
//! generated models to < 0.2% downtime error — and that claim extends
//! to the tool itself: a production solve pipeline must fail in *typed,
//! attributable, bounded* ways. This crate provides the test harness
//! for that property: a process-global **fault plan** that maps block
//! paths to injected failure kinds, which `rascad-core` consults (only
//! when built with its `fault-inject` feature) at well-defined points
//! of the generate → solve → roll-up pipeline.
//!
//! Everything is deterministic: a plan names exact block paths and the
//! injected faults fire on every solve of those blocks, so a chaos run
//! is exactly reproducible and the *uninjected* blocks can be compared
//! bit-for-bit against a clean run. The optional `seed` field is
//! carried for corpus tooling (e.g. seeded spec mutation) so one number
//! reproduces an entire chaos scenario.
//!
//! # Plan format
//!
//! A minimal TOML subset, hand-parsed so the offline build needs no
//! external crates:
//!
//! ```toml
//! # comment
//! seed = 42                      # optional, recorded verbatim
//!
//! [[inject]]
//! block = "Server Box/CPU Module"   # block path; the root diagram
//!                                   # name may be included or omitted
//! kind = "panic"                    # panic | not-converged | nan-rate | timeout | delay
//!
//! [[inject]]
//! block = "Server Box/Disk"
//! kind = "delay"                    # stall the worker before solving
//! ms = 25                           # optional; defaults to a seeded,
//!                                   # path-keyed duration
//! ```
//!
//! # Example
//!
//! ```
//! use rascad_fault::{FaultKind, FaultPlan};
//!
//! let plan = FaultPlan::parse(
//!     "[[inject]]\nblock = \"A/B\"\nkind = \"timeout\"\n",
//! ).unwrap();
//! assert_eq!(plan.entries().len(), 1);
//! rascad_fault::install(plan);
//! // The engine walk path includes the root diagram name; matching
//! // tolerates its presence or absence.
//! assert_eq!(rascad_fault::fault_for("Sys/A/B"), Some(FaultKind::Timeout));
//! assert_eq!(rascad_fault::fault_for("Sys/A"), None);
//! rascad_fault::uninstall();
//! ```

use std::fmt;
use std::sync::{Mutex, PoisonError, RwLock};

/// What to inject at a matched block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultKind {
    /// Panic inside the worker closure solving the block, exercising
    /// the engine's `catch_unwind` isolation boundary.
    Panic,
    /// Force the block's steady solve to fail with a typed
    /// singularity. The name (`not-converged` in plan files) predates
    /// the single-method solve and stays so existing plans parse.
    NotConverged,
    /// Simulate numerical corruption the solver cannot see: the
    /// block's steady solve succeeds, its distribution π is poisoned to
    /// NaN, and residual certification fails it as
    /// `CoreError::Certification`. The name (`nan-rate` in plan files)
    /// predates this behavior and stays so existing plans parse.
    NanRate,
    /// Force the block's steady solve to report a wall-clock budget
    /// timeout (no real time is spent).
    Timeout,
    /// Stall the worker for a real wall-clock delay before solving the
    /// block — the chaos probe for deadline/cancellation paths. The
    /// duration is the entry's explicit `ms`, else a deterministic
    /// seeded value keyed by the block path (see
    /// [`FaultPlan::delay_for`]).
    Delay,
}

impl FaultKind {
    /// Stable plan-file spelling of this kind.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::NotConverged => "not-converged",
            FaultKind::NanRate => "nan-rate",
            FaultKind::Timeout => "timeout",
            FaultKind::Delay => "delay",
        }
    }

    fn parse(s: &str) -> Option<FaultKind> {
        match s.replace('_', "-").as_str() {
            "panic" => Some(FaultKind::Panic),
            "not-converged" | "notconverged" => Some(FaultKind::NotConverged),
            "nan-rate" | "nan" => Some(FaultKind::NanRate),
            "timeout" => Some(FaultKind::Timeout),
            "delay" => Some(FaultKind::Delay),
            _ => None,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One `[[inject]]` entry: a block path and the fault to inject there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection {
    /// Slash-separated block path. Matched against the engine's walk
    /// path exactly, or with the walk path's leading root-diagram
    /// segment stripped (so plans can use the same `"Server Box/CPU
    /// Module"` form as every other CLI block-path argument).
    pub block: String,
    /// The fault to inject.
    pub kind: FaultKind,
    /// Explicit delay duration for [`FaultKind::Delay`] entries;
    /// `None` falls back to the seeded, path-keyed default.
    pub delay_ms: Option<u64>,
}

/// A parsed fault-injection plan.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    entries: Vec<Injection>,
    seed: Option<u64>,
}

/// Parse failure: the offending line number and a description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// 1-based line of the plan file.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault plan line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PlanError {}

impl FaultPlan {
    /// Parses the minimal-TOML plan format (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] for unknown keys/kinds, entries missing
    /// `block` or `kind`, or lines that are not `key = "value"`,
    /// `[[inject]]`, comments, or blank.
    pub fn parse(text: &str) -> Result<FaultPlan, PlanError> {
        let mut plan = FaultPlan::default();
        // (block, kind, delay ms, line the entry started on)
        type Open = (Option<String>, Option<FaultKind>, Option<u64>, usize);
        let mut open: Option<Open> = None;
        let err = |line: usize, message: String| PlanError { line, message };
        let close =
            |open: &mut Option<Open>, entries: &mut Vec<Injection>| -> Result<(), PlanError> {
                if let Some((block, kind, delay_ms, at)) = open.take() {
                    let block = block
                        .ok_or_else(|| err(at, "entry is missing `block = \"...\"`".into()))?;
                    let kind =
                        kind.ok_or_else(|| err(at, "entry is missing `kind = \"...\"`".into()))?;
                    if delay_ms.is_some() && kind != FaultKind::Delay {
                        return Err(err(at, "`ms` is only valid for kind = \"delay\"".into()));
                    }
                    entries.push(Injection { block, kind, delay_ms });
                }
                Ok(())
            };
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[inject]]" {
                close(&mut open, &mut plan.entries)?;
                open = Some((None, None, None, lineno));
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err(lineno, format!("expected `key = value`, got `{line}`")));
            };
            let (key, value) = (key.trim(), value.trim());
            match (&mut open, key) {
                (None, "seed") => {
                    plan.seed = Some(value.parse().map_err(|_| {
                        err(lineno, format!("seed must be an unsigned integer, got `{value}`"))
                    })?);
                }
                (None, other) => {
                    return Err(err(
                        lineno,
                        format!(
                            "unknown top-level key `{other}` (expected `seed` or `[[inject]]`)"
                        ),
                    ));
                }
                (Some(entry), "block") => {
                    let v = unquote(value).ok_or_else(|| {
                        err(lineno, format!("block needs a quoted string, got `{value}`"))
                    })?;
                    entry.0 = Some(v.to_string());
                }
                (Some(entry), "kind") => {
                    let v = unquote(value).ok_or_else(|| {
                        err(lineno, format!("kind needs a quoted string, got `{value}`"))
                    })?;
                    entry.1 = Some(FaultKind::parse(v).ok_or_else(|| {
                        err(
                            lineno,
                            format!(
                                "unknown kind `{v}` (panic, not-converged, nan-rate, timeout, \
                                 delay)"
                            ),
                        )
                    })?);
                }
                (Some(entry), "ms") => {
                    entry.2 = Some(value.parse().map_err(|_| {
                        err(lineno, format!("ms must be an unsigned integer, got `{value}`"))
                    })?);
                }
                (Some(_), other) => {
                    return Err(err(lineno, format!("unknown entry key `{other}`")));
                }
            }
        }
        close(&mut open, &mut plan.entries)?;
        Ok(plan)
    }

    /// The parsed `[[inject]]` entries, in file order.
    #[must_use]
    pub fn entries(&self) -> &[Injection] {
        &self.entries
    }

    /// The optional `seed` field (recorded verbatim for corpus tooling).
    #[must_use]
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// Programmatic construction (used by the chaos test suites).
    pub fn single(block: impl Into<String>, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            entries: vec![Injection { block: block.into(), kind, delay_ms: None }],
            seed: None,
        }
    }

    /// The first entry matching `path` (an engine walk path that
    /// includes the root-diagram segment, or a bare block path).
    #[must_use]
    pub fn fault_for(&self, path: &str) -> Option<FaultKind> {
        self.entry_for(path).map(|e| e.kind)
    }

    /// The delay to inject at `path`, when the matching entry is a
    /// [`FaultKind::Delay`]: the entry's explicit `ms`, else a
    /// deterministic duration in `10..=49` ms derived from the plan
    /// seed and an FNV-1a hash of the block path — so one seed
    /// reproduces the whole chaos scenario, and distinct blocks stall
    /// for distinct (but stable) durations.
    #[must_use]
    pub fn delay_for(&self, path: &str) -> Option<std::time::Duration> {
        let entry = self.entry_for(path)?;
        if entry.kind != FaultKind::Delay {
            return None;
        }
        let ms = entry.delay_ms.unwrap_or_else(|| {
            let mut h = 0xcbf2_9ce4_8422_2325_u64 ^ self.seed.unwrap_or(0);
            for b in entry.block.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
            10 + h % 40
        });
        Some(std::time::Duration::from_millis(ms))
    }

    fn entry_for(&self, path: &str) -> Option<&Injection> {
        let stripped = path.split_once('/').map(|(_, rest)| rest);
        self.entries.iter().find(|e| e.block == path || stripped == Some(e.block.as_str()))
    }
}

fn unquote(s: &str) -> Option<&str> {
    s.strip_prefix('"')?.strip_suffix('"')
}

struct Registry {
    plan: RwLock<Option<FaultPlan>>,
    fired: Mutex<Vec<(String, FaultKind)>>,
}

static REGISTRY: Registry = Registry { plan: RwLock::new(None), fired: Mutex::new(Vec::new()) };

/// Installs `plan` process-wide, replacing any previous plan and
/// clearing the fired log.
pub fn install(plan: FaultPlan) {
    *REGISTRY.plan.write().unwrap_or_else(PoisonError::into_inner) = Some(plan);
    REGISTRY.fired.lock().unwrap_or_else(PoisonError::into_inner).clear();
}

/// Removes the active plan (injection points become no-ops again).
pub fn uninstall() {
    *REGISTRY.plan.write().unwrap_or_else(PoisonError::into_inner) = None;
}

/// Whether a plan is currently installed.
pub fn is_active() -> bool {
    REGISTRY.plan.read().unwrap_or_else(PoisonError::into_inner).is_some()
}

/// The fault to inject for `path` under the active plan, if any.
pub fn fault_for(path: &str) -> Option<FaultKind> {
    REGISTRY
        .plan
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
        .and_then(|p| p.fault_for(path))
}

/// The delay to inject for `path` under the active plan, if the
/// matching entry is a [`FaultKind::Delay`] (see
/// [`FaultPlan::delay_for`]).
pub fn delay_for(path: &str) -> Option<std::time::Duration> {
    REGISTRY
        .plan
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
        .and_then(|p| p.delay_for(path))
}

/// Records that an injection actually fired (called by the engine's
/// injection points so tests can assert coverage).
pub fn note_fired(path: &str, kind: FaultKind) {
    REGISTRY.fired.lock().unwrap_or_else(PoisonError::into_inner).push((path.to_string(), kind));
}

/// Every `(path, kind)` injection fired since the last [`install`].
pub fn fired() -> Vec<(String, FaultKind)> {
    REGISTRY.fired.lock().unwrap_or_else(PoisonError::into_inner).clone()
}

/// RAII guard installing a plan for one scope (test and CLI helper):
/// uninstalls on drop even if the scope panics or errors out early.
pub struct PlanGuard(());

impl PlanGuard {
    /// Installs `plan` and returns the guard.
    #[must_use]
    pub fn install(plan: FaultPlan) -> PlanGuard {
        install(plan);
        PlanGuard(())
    }
}

impl Drop for PlanGuard {
    fn drop(&mut self) {
        uninstall();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_plan() {
        let plan = FaultPlan::parse(
            "# chaos plan\nseed = 7\n\n[[inject]]\nblock = \"A/B\"\nkind = \"panic\"\n\n\
             [[inject]]\nblock = \"C\"  # trailing comment\nkind = \"nan_rate\"\n",
        )
        .unwrap();
        assert_eq!(plan.seed(), Some(7));
        assert_eq!(
            plan.entries(),
            &[
                Injection { block: "A/B".into(), kind: FaultKind::Panic, delay_ms: None },
                Injection { block: "C".into(), kind: FaultKind::NanRate, delay_ms: None },
            ]
        );
    }

    #[test]
    fn parses_delay_entries_with_and_without_ms() {
        let plan = FaultPlan::parse(
            "seed = 3\n[[inject]]\nblock = \"A\"\nkind = \"delay\"\nms = 25\n\n\
             [[inject]]\nblock = \"B\"\nkind = \"delay\"\n",
        )
        .unwrap();
        assert_eq!(
            plan.entries(),
            &[
                Injection { block: "A".into(), kind: FaultKind::Delay, delay_ms: Some(25) },
                Injection { block: "B".into(), kind: FaultKind::Delay, delay_ms: None },
            ]
        );
        // Explicit ms wins verbatim.
        assert_eq!(plan.delay_for("Root/A"), Some(std::time::Duration::from_millis(25)));
        // Seeded fallback is deterministic, bounded, and path-keyed.
        let b = plan.delay_for("Root/B").unwrap();
        assert_eq!(plan.delay_for("B"), Some(b));
        assert!((10..50).contains(&u64::try_from(b.as_millis()).unwrap()), "{b:?}");
        // A different seed shifts the fallback but not the explicit ms.
        let reseeded =
            FaultPlan::parse("seed = 4\n[[inject]]\nblock = \"B\"\nkind = \"delay\"\n").unwrap();
        assert_ne!(reseeded.delay_for("B"), Some(b));
        // Non-delay entries never report a delay.
        let p = FaultPlan::single("X", FaultKind::Panic);
        assert_eq!(p.delay_for("X"), None);
    }

    #[test]
    fn rejects_malformed_plans() {
        for (text, needle) in [
            ("kind = \"panic\"\n", "unknown top-level key"),
            ("[[inject]]\nblock = \"A\"\n", "missing `kind"),
            ("[[inject]]\nkind = \"panic\"\n", "missing `block"),
            ("[[inject]]\nblock = \"A\"\nkind = \"frazzle\"\n", "unknown kind"),
            ("[[inject]]\nblock = A\nkind = \"panic\"\n", "quoted string"),
            ("seed = x\n", "unsigned integer"),
            ("wat\n", "expected `key = value`"),
            ("[[inject]]\nblock = \"A\"\nwhen = \"now\"\n", "unknown entry key"),
            ("[[inject]]\nblock = \"A\"\nkind = \"delay\"\nms = soon\n", "unsigned integer"),
            ("[[inject]]\nblock = \"A\"\nkind = \"panic\"\nms = 5\n", "only valid for kind"),
        ] {
            let e = FaultPlan::parse(text).unwrap_err();
            assert!(e.to_string().contains(needle), "{text:?} -> {e}");
            assert!(e.line >= 1);
        }
    }

    #[test]
    fn matching_tolerates_root_segment() {
        let plan = FaultPlan::single("Server Box/CPU", FaultKind::Timeout);
        assert_eq!(plan.fault_for("Server Box/CPU"), Some(FaultKind::Timeout));
        assert_eq!(plan.fault_for("DC/Server Box/CPU"), Some(FaultKind::Timeout));
        assert_eq!(plan.fault_for("DC/Server Box"), None);
        assert_eq!(plan.fault_for("DC/Other/Server Box/CPU"), None);
    }

    #[test]
    fn registry_round_trip_and_fired_log() {
        assert!(!is_active());
        assert_eq!(fault_for("X"), None);
        {
            let _g = PlanGuard::install(FaultPlan::single("X", FaultKind::Panic));
            assert!(is_active());
            assert_eq!(fault_for("Root/X"), Some(FaultKind::Panic));
            note_fired("Root/X", FaultKind::Panic);
            assert_eq!(fired(), vec![("Root/X".to_string(), FaultKind::Panic)]);
        }
        assert!(!is_active());
        assert_eq!(fault_for("X"), None);
        assert_eq!(delay_for("X"), None);
        {
            let plan =
                FaultPlan::parse("[[inject]]\nblock = \"D\"\nkind = \"delay\"\nms = 7\n").unwrap();
            let _g = PlanGuard::install(plan);
            assert_eq!(fault_for("Root/D"), Some(FaultKind::Delay));
            assert_eq!(delay_for("Root/D"), Some(std::time::Duration::from_millis(7)));
            note_fired("Root/D", FaultKind::Delay);
            assert_eq!(fired(), vec![("Root/D".to_string(), FaultKind::Delay)]);
        }
        assert_eq!(delay_for("D"), None);
    }

    #[test]
    fn kind_spellings_round_trip() {
        for k in [
            FaultKind::Panic,
            FaultKind::NotConverged,
            FaultKind::NanRate,
            FaultKind::Timeout,
            FaultKind::Delay,
        ] {
            assert_eq!(FaultKind::parse(k.as_str()), Some(k));
            assert_eq!(k.to_string(), k.as_str());
        }
        assert_eq!(FaultKind::parse("not_converged"), Some(FaultKind::NotConverged));
        assert_eq!(FaultKind::parse("nan"), Some(FaultKind::NanRate));
    }
}
