//! Randomized property tests for the RBD substrate.
//!
//! Each property runs over `CASES` inputs drawn from a seeded
//! `StdRng`, so every run checks the same cases and a failure names the
//! seed that reproduces it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rascad_rbd::paths::minimal_cut_sets;
use rascad_rbd::{ComponentTable, Rbd};

const CASES: u64 = 256;

/// The structure function: whether the tree works when exactly the
/// components with `states[id]` set work. The oracle the evaluators
/// below are checked against.
fn evaluate(rbd: &Rbd, states: &[bool]) -> bool {
    match rbd {
        Rbd::Component(id) => states[*id],
        Rbd::Series(ch) => ch.iter().all(|c| evaluate(c, states)),
        Rbd::Parallel(ch) => ch.iter().any(|c| evaluate(c, states)),
        Rbd::KOfN { k, children } => {
            children.iter().filter(|c| evaluate(c, states)).count() >= *k as usize
        }
    }
}

/// Random RBD tree over 2–6 distinct components (each used exactly
/// once, so independent evaluation is exact), at most three levels deep.
fn arb_rbd(seed: u64) -> (ComponentTable, Rbd) {
    // Partition component ids into a random tree.
    fn build(ids: Vec<usize>, depth: u32, rng_seed: u64) -> Rbd {
        if ids.len() == 1 || depth == 0 {
            return if ids.len() == 1 {
                Rbd::component(ids[0])
            } else {
                Rbd::series(ids.into_iter().map(Rbd::component).collect())
            };
        }
        // Deterministic pseudo-random split driven by the seed.
        let mut s = rng_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(ids.len() as u64);
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as usize
        };
        let cut = 1 + next() % (ids.len() - 1);
        let (left, right) = ids.split_at(cut);
        let l = build(left.to_vec(), depth - 1, next() as u64);
        let r = build(right.to_vec(), depth - 1, next() as u64);
        match next() % 3 {
            0 => Rbd::series(vec![l, r]),
            1 => Rbd::parallel(vec![l, r]),
            _ => Rbd::k_of_n(1, vec![l, r]),
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 2 + (rng.gen::<u64>() % 5) as usize;
    let mut table = ComponentTable::new();
    for i in 0..n {
        table.add(format!("c{i}"), 0.01 + 0.989 * rng.gen::<f64>());
    }
    (table, build((0..n).collect(), 3, rng.gen()))
}

/// Availability is always a probability.
#[test]
fn availability_in_unit_interval() {
    for seed in 0..CASES {
        let (table, rbd) = arb_rbd(seed);
        let a = rbd.availability(&table).unwrap();
        assert!((0.0..=1.0).contains(&a), "seed {seed}: a={a}");
    }
}

/// Improving any component never lowers system availability
/// (monotone coherent structure).
#[test]
fn availability_monotone_in_components() {
    for seed in 0..CASES {
        let (table, rbd) = arb_rbd(seed);
        let base = rbd.availability(&table).unwrap();
        for id in rbd.components() {
            let mut t = table.clone();
            let a = t.availability(id).unwrap();
            t.set_availability(id, (a + 0.1).min(1.0)).unwrap();
            let improved = rbd.availability(&t).unwrap();
            assert!(improved >= base - 1e-12, "seed {seed}: c{id} {base} -> {improved}");
        }
    }
}

/// Exact evaluation agrees with exhaustive expectation over the
/// structure function (at most 6 components, so 64 terms).
#[test]
fn shannon_matches_enumeration() {
    for seed in 0..CASES {
        let (table, rbd) = arb_rbd(seed);
        let comps = rbd.components();
        let avail = table.availabilities();
        let mut expect = 0.0;
        for mask in 0u32..(1 << comps.len()) {
            let mut states = vec![false; table.len()];
            let mut p = 1.0;
            for (b, &id) in comps.iter().enumerate() {
                let up = mask & (1 << b) != 0;
                states[id] = up;
                p *= if up { avail[id] } else { 1.0 - avail[id] };
            }
            if evaluate(&rbd, &states) {
                expect += p;
            }
        }
        let a = rbd.availability(&table).unwrap();
        assert!((a - expect).abs() < 1e-10, "seed {seed}: {a} vs {expect}");
    }
}

/// Every minimal cut set fails the system.
#[test]
fn cut_sets_are_sound() {
    for seed in 0..CASES {
        let (table, rbd) = arb_rbd(seed);
        for c in minimal_cut_sets(&rbd) {
            let mut states = vec![true; table.len()];
            for &id in &c {
                states[id] = false;
            }
            assert!(!evaluate(&rbd, &states), "seed {seed}: cut {c:?}");
        }
    }
}
