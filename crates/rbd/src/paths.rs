//! Minimal cut sets of RBD trees by explicit enumeration.
//!
//! A *cut set* is a set of components whose joint failure fails the
//! system. Enumeration is exponential in the worst case, so nothing in
//! production calls it: it is the test oracle that the BDD's
//! minimal-solutions cut sets ([`crate::bdd`]) and Tier C lint's cut
//! findings are compared against.

use std::collections::BTreeSet;

use crate::block::{ComponentId, Rbd};

/// A set of component ids (sorted, deduplicated).
pub type ComponentSet = BTreeSet<ComponentId>;

/// Computes the minimal cut sets of the tree.
#[must_use]
pub fn minimal_cut_sets(rbd: &Rbd) -> Vec<ComponentSet> {
    minimize(cut_sets(rbd))
}

fn cut_sets(rbd: &Rbd) -> Vec<ComponentSet> {
    match rbd {
        Rbd::Component(id) => vec![std::iter::once(*id).collect()],
        // Duality: cuts of a series are the union of children's cuts.
        Rbd::Series(ch) => ch.iter().flat_map(cut_sets).collect(),
        Rbd::Parallel(ch) => cross_union(ch.iter().map(cut_sets)),
        Rbd::KOfN { k, children } => {
            // The system fails when n-k+1 children fail.
            let need = children.len() - *k as usize + 1;
            let per_child: Vec<Vec<ComponentSet>> = children.iter().map(cut_sets).collect();
            let mut out = Vec::new();
            for subset in k_subsets(children.len(), need) {
                let chosen = subset.iter().map(|&i| per_child[i].clone());
                out.extend(cross_union(chosen));
            }
            out
        }
    }
}

/// Cartesian product of families, unioning the picked sets.
fn cross_union(families: impl Iterator<Item = Vec<ComponentSet>>) -> Vec<ComponentSet> {
    let mut acc: Vec<ComponentSet> = vec![ComponentSet::new()];
    for family in families {
        let mut next = Vec::with_capacity(acc.len() * family.len());
        for base in &acc {
            for add in &family {
                let mut s = base.clone();
                s.extend(add.iter().copied());
                next.push(s);
            }
        }
        acc = next;
    }
    acc
}

/// All k-element index subsets of `0..n`.
fn k_subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(k);
    fn rec(start: usize, n: usize, k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in start..n {
            cur.push(i);
            rec(i + 1, n, k, cur, out);
            cur.pop();
        }
    }
    rec(0, n, k, &mut cur, &mut out);
    out
}

/// Removes supersets and duplicates, leaving only minimal sets.
fn minimize(mut sets: Vec<ComponentSet>) -> Vec<ComponentSet> {
    sets.sort_by_key(BTreeSet::len);
    let mut out: Vec<ComponentSet> = Vec::new();
    for s in sets {
        if !out.iter().any(|m| m.is_subset(&s)) {
            out.push(s);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[usize]) -> ComponentSet {
        ids.iter().copied().collect()
    }

    #[test]
    fn series_cuts() {
        let r = Rbd::series(vec![Rbd::component(0), Rbd::component(1)]);
        let cuts = minimal_cut_sets(&r);
        assert!(cuts.contains(&set(&[0])) && cuts.contains(&set(&[1])));
        assert_eq!(cuts.len(), 2);
    }

    #[test]
    fn parallel_cuts() {
        let r = Rbd::parallel(vec![Rbd::component(0), Rbd::component(1)]);
        assert_eq!(minimal_cut_sets(&r), vec![set(&[0, 1])]);
    }

    #[test]
    fn two_of_three_cuts() {
        let r = Rbd::k_of_n(2, vec![Rbd::component(0), Rbd::component(1), Rbd::component(2)]);
        let cuts = minimal_cut_sets(&r);
        assert_eq!(cuts.len(), 3);
        assert!(cuts.contains(&set(&[0, 1])));
        assert!(cuts.contains(&set(&[0, 2])));
        assert!(cuts.contains(&set(&[1, 2])));
    }

    #[test]
    fn nested_structure() {
        // a in series with (b parallel c).
        let r = Rbd::series(vec![
            Rbd::component(0),
            Rbd::parallel(vec![Rbd::component(1), Rbd::component(2)]),
        ]);
        let cuts = minimal_cut_sets(&r);
        assert!(cuts.contains(&set(&[0])));
        assert!(cuts.contains(&set(&[1, 2])));
        assert_eq!(cuts.len(), 2);
    }

    #[test]
    fn supersets_are_pruned() {
        // series(a, parallel(a, b)): cut {0} makes {0,1} non-minimal.
        let r = Rbd::series(vec![
            Rbd::component(0),
            Rbd::parallel(vec![Rbd::component(0), Rbd::component(1)]),
        ]);
        assert_eq!(minimal_cut_sets(&r), vec![set(&[0])]);
    }

    #[test]
    fn k_subsets_counts() {
        assert_eq!(k_subsets(4, 2).len(), 6);
        assert_eq!(k_subsets(5, 0), vec![Vec::<usize>::new()]);
        assert_eq!(k_subsets(3, 3).len(), 1);
    }
}
