//! Randomized property tests for the RBD substrate.
//!
//! Each property runs over `CASES` inputs drawn from a seeded
//! `StdRng`, so every run checks the same cases and a failure names the
//! seed that reproduces it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rascad_rbd::importance::fussell_vesely;
use rascad_rbd::paths::{esary_proschan_bounds, minimal_cut_sets, minimal_path_sets};
use rascad_rbd::structure;
use rascad_rbd::{ComponentTable, Network, Rbd};

const CASES: u64 = 256;

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
            if structure::evaluate(&rbd, &states).unwrap() {
                expect += p;
            }
        }
        let a = rbd.availability(&table).unwrap();
        assert!((a - expect).abs() < 1e-10, "seed {seed}: {a} vs {expect}");
    }
}

/// The structure function is monotone and the diagram coherent.
#[test]
fn structure_is_monotone() {
    for seed in 0..CASES {
        let (table, rbd) = arb_rbd(seed);
        let (monotone, _) = structure::coherence(&rbd, &table).unwrap();
        assert!(monotone, "seed {seed}");
    }
}

/// Esary-Proschan bounds bracket the exact availability.
#[test]
fn bounds_bracket_exact() {
    for seed in 0..CASES {
        let (table, rbd) = arb_rbd(seed);
        let exact = rbd.availability(&table).unwrap();
        let paths = minimal_path_sets(&rbd);
        let cuts = minimal_cut_sets(&rbd);
        assert!(!paths.is_empty() && !cuts.is_empty(), "seed {seed}: no path or cut sets");
        let (lo, hi) = esary_proschan_bounds(&paths, &cuts, table.availabilities());
        assert!(lo <= exact + 1e-9, "seed {seed}: lo={lo} exact={exact}");
        assert!(hi >= exact - 1e-9, "seed {seed}: hi={hi} exact={exact}");
    }
}

/// Network factoring equals brute-force enumeration on random small
/// graphs.
#[test]
fn factoring_matches_enumeration() {
    fn find(p: &mut [usize], mut x: usize) -> usize {
        while p[x] != x {
            p[x] = p[p[x]];
            x = p[x];
        }
        x
    }
    let nodes = 5;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        // 1–7 random edges; self-loops are dropped, and a draw with no
        // edge left is redrawn.
        let kept: Vec<(usize, usize, f64)> = loop {
            let kept: Vec<_> = (0..1 + rng.gen::<u64>() % 7)
                .map(|_| {
                    let u = (rng.gen::<u64>() % nodes as u64) as usize;
                    let v = (rng.gen::<u64>() % nodes as u64) as usize;
                    (u, v, 0.05 + 0.9 * rng.gen::<f64>())
                })
                .filter(|&(u, v, _)| u != v)
                .collect();
            if !kept.is_empty() {
                break kept;
            }
        };
        let mut net = Network::new(nodes, 0, nodes - 1).unwrap();
        for &(u, v, p) in &kept {
            net.add_edge(u, v, p, "e").unwrap();
        }
        let fast = net.reliability().unwrap();

        // Brute force over edge states.
        let mut expect = 0.0;
        for mask in 0u32..(1 << kept.len()) {
            let mut parent: Vec<usize> = (0..nodes).collect();
            let mut pr = 1.0;
            for (i, &(u, v, p)) in kept.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    pr *= p;
                    let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
                    if ru != rv {
                        parent[ru] = rv;
                    }
                } else {
                    pr *= 1.0 - p;
                }
            }
            if find(&mut parent, 0) == find(&mut parent, nodes - 1) {
                expect += pr;
            }
        }
        assert!((fast - expect).abs() < 1e-10, "seed {seed}: {fast} vs {expect}");
    }
}

/// Fussell-Vesely importances are probabilities.
#[test]
fn fussell_vesely_in_unit_interval() {
    for seed in 0..CASES {
        let (table, rbd) = arb_rbd(seed);
        let fv = fussell_vesely(&rbd, &table).unwrap();
        for &(_, v) in &fv {
            assert!((0.0..=1.0).contains(&v), "seed {seed}: fv={v}");
        }
    }
}

/// Every minimal path set indeed makes the system work, and every
/// minimal cut set fails it.
#[test]
fn path_and_cut_sets_are_sound() {
    for seed in 0..CASES {
        let (table, rbd) = arb_rbd(seed);
        for p in minimal_path_sets(&rbd) {
            let mut states = vec![false; table.len()];
            for &id in &p {
                states[id] = true;
            }
            assert!(structure::evaluate(&rbd, &states).unwrap(), "seed {seed}: path {p:?}");
        }
        for c in minimal_cut_sets(&rbd) {
            let mut states = vec![true; table.len()];
            for &id in &c {
                states[id] = false;
            }
            assert!(!structure::evaluate(&rbd, &states).unwrap(), "seed {seed}: cut {c:?}");
        }
    }
}
