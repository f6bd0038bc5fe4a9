//! Component importance measures.
//!
//! Importance measures rank components by how much they influence system
//! availability — the quantitative backing for the RAS-architecture
//! trade-off studies RAScad is built for.

use crate::block::{ComponentId, ComponentTable, Rbd};
use crate::error::RbdError;

/// Importance of a single component.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentImportance {
    /// The component.
    pub id: ComponentId,
    /// Component name.
    pub name: String,
    /// Birnbaum importance: `∂A_sys/∂A_i = A(1_i) − A(0_i)`.
    pub birnbaum: f64,
    /// Improvement potential: `A(1_i) − A_sys` (gain from a perfect
    /// component).
    pub improvement_potential: f64,
    /// Criticality importance: `birnbaum · (1 − A_i) / (1 − A_sys)`
    /// (probability the component is the cause of system failure, given
    /// the system failed).
    pub criticality: f64,
}

/// Importance ranking for all components of a diagram.
#[derive(Debug, Clone, PartialEq)]
pub struct ImportanceReport {
    /// System availability with the nominal component values.
    pub system_availability: f64,
    /// Per-component importances, sorted by Birnbaum importance
    /// (descending).
    pub components: Vec<ComponentImportance>,
}

/// Computes the importance report for a diagram.
///
/// # Errors
///
/// Propagates evaluation errors from [`Rbd::availability`].
pub fn importance(rbd: &Rbd, table: &ComponentTable) -> Result<ImportanceReport, RbdError> {
    let base = rbd.availability(table)?;
    let mut comps = Vec::new();
    for id in rbd.components() {
        let mut t_up = table.clone();
        t_up.set_availability(id, 1.0)?;
        let a_up = rbd.availability(&t_up)?;
        let mut t_down = table.clone();
        t_down.set_availability(id, 0.0)?;
        let a_down = rbd.availability(&t_down)?;
        let birnbaum = a_up - a_down;
        let a_i = table.availability(id).expect("validated id");
        let criticality = if base < 1.0 { birnbaum * (1.0 - a_i) / (1.0 - base) } else { 0.0 };
        comps.push(ComponentImportance {
            id,
            name: table.name(id).unwrap_or("").to_string(),
            birnbaum,
            improvement_potential: a_up - base,
            criticality,
        });
    }
    comps.sort_by(|a, b| b.birnbaum.total_cmp(&a.birnbaum));
    Ok(ImportanceReport { system_availability: base, components: comps })
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts deterministic arithmetic
mod tests {
    use super::*;

    #[test]
    fn series_importance_favors_weakest_partner() {
        // In a 2-series, Birnbaum importance of i is the availability of
        // the *other* component, so the component paired with the better
        // partner ranks higher.
        let mut t = ComponentTable::new();
        let a = t.add("a", 0.99);
        let b = t.add("b", 0.90);
        let r = Rbd::series(vec![Rbd::component(a), Rbd::component(b)]);
        let rep = importance(&r, &t).unwrap();
        let find = |id| rep.components.iter().find(|c| c.id == id).unwrap();
        assert!((find(a).birnbaum - 0.90).abs() < 1e-12);
        assert!((find(b).birnbaum - 0.99).abs() < 1e-12);
        assert_eq!(rep.components[0].id, b);
    }

    #[test]
    fn parallel_importance() {
        // Birnbaum of i in a 2-parallel is 1 - A_other.
        let mut t = ComponentTable::new();
        let a = t.add("a", 0.9);
        let b = t.add("b", 0.8);
        let r = Rbd::parallel(vec![Rbd::component(a), Rbd::component(b)]);
        let rep = importance(&r, &t).unwrap();
        let find = |id| rep.components.iter().find(|c| c.id == id).unwrap();
        assert!((find(a).birnbaum - 0.2).abs() < 1e-12);
        assert!((find(b).birnbaum - 0.1).abs() < 1e-12);
    }

    #[test]
    fn improvement_potential_and_criticality() {
        let mut t = ComponentTable::new();
        let a = t.add("a", 0.9);
        let r = Rbd::component(a);
        let rep = importance(&r, &t).unwrap();
        let c = &rep.components[0];
        assert!((c.improvement_potential - 0.1).abs() < 1e-12);
        // Single component: it is always the cause of failure.
        assert!((c.criticality - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_system_criticality_is_zero() {
        let mut t = ComponentTable::new();
        let a = t.add("a", 1.0);
        let rep = importance(&Rbd::component(a), &t).unwrap();
        assert_eq!(rep.components[0].criticality, 0.0);
    }

    #[test]
    fn birnbaum_matches_finite_difference() {
        let mut t = ComponentTable::new();
        let ids: Vec<_> = (0..4).map(|i| t.add(format!("c{i}"), 0.8 + 0.04 * i as f64)).collect();
        let r = Rbd::series(vec![
            Rbd::component(ids[0]),
            Rbd::k_of_n(
                2,
                vec![Rbd::component(ids[1]), Rbd::component(ids[2]), Rbd::component(ids[3])],
            ),
        ]);
        let rep = importance(&r, &t).unwrap();
        let h = 1e-7;
        for c in &rep.components {
            let mut tp = t.clone();
            tp.set_availability(c.id, t.availability(c.id).unwrap() + h).unwrap();
            let fd = (r.availability(&tp).unwrap() - rep.system_availability) / h;
            assert!((c.birnbaum - fd).abs() < 1e-5, "{}: {} vs {fd}", c.name, c.birnbaum);
        }
    }
}
