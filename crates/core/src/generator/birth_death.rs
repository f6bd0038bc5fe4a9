//! Birth–death expansion for large k-out-of-n blocks.
//!
//! The Type 1–4 templates replicate a constant group of states (TF, AR,
//! PF, Latent, …) per redundancy level, which is exactly right for the
//! paper's small blocks (N ≤ 8 or so) but models only `N − K + 1`
//! failure levels: once the margin is exhausted the whole remaining
//! population is folded into a single down state. For large populations
//! (disk shelves, blade pools, N in the hundreds or thousands) the
//! standard availability model is instead the **k-out-of-n birth–death
//! chain**: one level per number of failed units, `j = 0 ..= N`, with
//!
//! * failure `j → j+1` at rate `(N − j)·λp` — each of the `N − j`
//!   surviving units fails independently, and
//! * repair `j → j−1` at rate `j·μ` — units are repaired in parallel,
//!   each by its own service action.
//!
//! The repair rate per unit is `1/(MTTM + Tresp + MTTR)` while the
//! system is up (deferred, scheduled service — the paper's policy for
//! redundant spares) and `1/(Tresp + MTTR)` once the system is down
//! (an immediate service call). Level `j` is up exactly when at least
//! `K` units survive, i.e. `j ≤ N − K`.
//!
//! This chain is the *exact lump* of the `2^N` independent-unit product
//! space onto occupancy levels (see [`rascad_markov::lump`]) whenever
//! the per-unit repair rate is level-independent, which here means
//! `MTTM = 0`; with a nonzero service restriction time the up levels
//! repair slower, a refinement the product space cannot express without
//! breaking unit independence.
//!
//! **Scope.** The expansion models permanent faults only: transient
//! faults, latent faults, failed automatic recovery (SPF) and service
//! error are elided. Those mechanisms contribute per-*event* downtimes
//! that do not scale with N, while the template's per-level replication
//! of them is what makes large N intractable; eliding them is the
//! documented approximation that buys `O(N)` states instead of `O(2^N)`
//! behavioural fidelity nobody can solve. Blocks at or below
//! [`BIRTH_DEATH_MIN_UNITS`] units keep the full-fidelity templates.

use rascad_markov::StateId;
use rascad_spec::BlockParams;

use super::{ModelBuilder, Rates};

/// Unit count above which a redundant block expands to the birth–death
/// chain instead of the level-replicated Type 1–4 template. At and
/// below this size the templates stay tractable and keep their full
/// transient/latent/SPF fidelity.
pub const BIRTH_DEATH_MIN_UNITS: u32 = 8;

/// Builds the k-out-of-n birth–death chain into `mb`.
///
/// # Panics
///
/// Panics if called for a non-redundant block (`N == K`); the
/// dispatcher guarantees this cannot happen.
pub(crate) fn build(mb: &mut ModelBuilder, params: &BlockParams, r: &Rates) {
    let n = params.quantity as usize;
    let k = params.min_quantity as usize;
    assert!(n > k, "birth–death template requires N > K");
    let margin = n - k;

    // Level j = j units permanently failed. `Ok` is state 0, matching
    // every other template.
    let levels: Vec<StateId> = (0..=n)
        .map(|j| {
            if j == 0 {
                mb.state("Ok", 1.0)
            } else {
                mb.state(&format!("PF{j}"), if j <= margin { 1.0 } else { 0.0 })
            }
        })
        .collect();

    let mu_scheduled = 1.0 / r.scheduled_repair_time();
    let mu_immediate = 1.0 / r.immediate_repair_time();
    for j in 0..n {
        // Each of the N − j survivors can fail.
        mb.transition(levels[j], levels[j + 1], (n - j) as f64 * r.lambda_p);
    }
    for j in 1..=n {
        // Parallel repair: j failed units, each being serviced. Up
        // levels wait for scheduled service; down levels get the
        // immediate call.
        let mu = if j <= margin { mu_scheduled } else { mu_immediate };
        mb.transition(levels[j], levels[j - 1], j as f64 * mu);
    }
}

#[cfg(test)]
mod tests {
    use crate::generator::generate_block;
    use rascad_markov::{identical_units_product, lump, occupancy_partition, SteadyStateMethod};
    use rascad_spec::units::{Hours, Minutes};
    use rascad_spec::{BlockParams, GlobalParams, RedundancyParams, Scenario};

    fn params(n: u32, k: u32) -> BlockParams {
        BlockParams::new("X", n, k)
            .with_mtbf(Hours(20_000.0))
            .with_mttr_parts(Minutes(30.0), Minutes(20.0), Minutes(10.0))
            .with_service_response(Hours(4.0))
            .with_p_correct_diagnosis(0.95)
            .with_redundancy(RedundancyParams {
                recovery: Scenario::Nontransparent,
                failover_time: Minutes(6.0),
                ..Default::default()
            })
    }

    /// Globals with no service restriction time, making the scheduled
    /// and immediate repair rates equal (the exact-lump regime).
    fn flat_repair_globals() -> GlobalParams {
        GlobalParams { mttm: Hours(0.0), ..Default::default() }
    }

    #[test]
    fn dispatch_boundary_sits_at_min_units() {
        let g = GlobalParams::default();
        // N = 8: the Type 1–4 template, with its AR states (recovery is
        // nontransparent above).
        let small = generate_block(&params(8, 1), &g).unwrap();
        assert!(small.chain.state_by_label("AR1").is_some());
        // N = 9: birth–death — exactly N + 1 occupancy levels, no AR.
        let large = generate_block(&params(9, 1), &g).unwrap();
        assert!(large.chain.state_by_label("AR1").is_none());
        assert_eq!(large.state_count(), 10);
        for lbl in ["Ok", "PF1", "PF5", "PF9"] {
            assert!(large.chain.state_by_label(lbl).is_some(), "missing {lbl}");
        }
    }

    #[test]
    fn flat_repair_stationary_is_binomial() {
        // With MTTM = 0 every unit is an independent 2-state chain, so
        // the level occupancy is Binomial(N, λ/(λ+μ)).
        let g = flat_repair_globals();
        let m = generate_block(&params(12, 10), &g).unwrap();
        let pi = m.chain.steady_state(SteadyStateMethod::Gth).unwrap();
        let lambda = 1.0 / 20_000.0;
        let mu = 1.0 / 5.0; // Tresp 4 h + MTTR 1 h
        let p = lambda / (lambda + mu);
        let mut binom = 1.0_f64; // C(12, 0) p^0 (1-p)^12 built incrementally
        for _ in 0..12 {
            binom *= 1.0 - p;
        }
        for (j, &level) in pi.iter().enumerate() {
            assert!(
                (level - binom).abs() <= 1e-12 + 1e-9 * binom,
                "level {j}: {level} vs binomial {binom}"
            );
            binom *= (12 - j) as f64 / (j + 1) as f64 * p / (1.0 - p);
        }
    }

    #[test]
    fn matches_the_lumped_product_space() {
        // The generated chain must be the exact occupancy lump of the
        // 2^N independent-unit product space when repair is flat.
        let (n, k) = (10u32, 8u32);
        let g = flat_repair_globals();
        let m = generate_block(&params(n, k), &g).unwrap();
        assert_eq!(m.state_count(), n as usize + 1);

        let lambda = 1.0 / 20_000.0;
        let mu = 1.0 / 5.0;
        let product = identical_units_product(n, k, lambda, mu).unwrap();
        let quotient = lump(&product, &occupancy_partition(n).unwrap()).unwrap();

        let pi_gen = m.chain.steady_state(SteadyStateMethod::Gth).unwrap();
        let pi_lump = quotient.steady_state(SteadyStateMethod::Gth).unwrap();
        for (j, (a, b)) in pi_gen.iter().zip(&pi_lump).enumerate() {
            assert!((a - b).abs() < 1e-12, "level {j}: {a} vs {b}");
        }
        let a_gen = m.chain.expected_reward(&pi_gen);
        let a_lump = quotient.expected_reward(&pi_lump);
        assert!((a_gen - a_lump).abs() < 1e-12, "{a_gen} vs {a_lump}");
    }

    #[test]
    fn thousand_unit_block_solves_on_the_gth_rung() {
        // 1001 states is far beyond the dense templates but routine for
        // band GTH: the chain is tridiagonal, so elimination is O(n).
        let g = GlobalParams::default();
        let m = generate_block(&params(1000, 900), &g).unwrap();
        assert_eq!(m.state_count(), 1001);
        let out = crate::solve::steady_state_ladder_outcome(
            &m.chain,
            SteadyStateMethod::Gth,
            &rascad_markov::SolveOptions::default(),
            None,
        )
        .unwrap();
        assert_eq!(out.method, "gth");
        let a = m.chain.expected_reward(&out.pi);
        assert!(a > 0.999 && a < 1.0, "availability {a}");
    }

    #[test]
    fn deferred_repair_slows_up_levels() {
        // With the default 48 h service restriction, up levels repair
        // slower than down levels, so availability drops versus the
        // flat-repair chain.
        let deferred = generate_block(&params(16, 12), &GlobalParams::default()).unwrap();
        let flat = generate_block(&params(16, 12), &flat_repair_globals()).unwrap();
        let a = |m: &crate::generator::BlockModel| {
            let pi = m.chain.steady_state(SteadyStateMethod::Gth).unwrap();
            m.chain.expected_reward(&pi)
        };
        assert!(a(&deferred) < a(&flat));
    }
}
