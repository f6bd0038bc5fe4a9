//! Time-dependent (mission) reliability of RBDs.
//!
//! For the reliability model, components are not repaired during the
//! mission: each component has a lifetime distribution, and the system
//! reliability at time `t` is the structure function evaluated over the
//! component survival probabilities `R_i(t)`.

use crate::block::{ComponentTable, Rbd};
use crate::error::RbdError;

/// A component lifetime distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Lifetime {
    /// Exponential lifetime with the given failure rate.
    Exponential {
        /// Failure rate (> 0), per hour.
        rate: f64,
    },
    /// Weibull lifetime.
    Weibull {
        /// Shape parameter (> 0); < 1 infant mortality, > 1 wear-out.
        shape: f64,
        /// Scale parameter (> 0), hours.
        scale: f64,
    },
}

impl Lifetime {
    /// Survival probability `R(t)`.
    #[must_use]
    pub fn survival(&self, t: f64) -> f64 {
        match *self {
            Lifetime::Exponential { rate } => (-rate * t).exp(),
            Lifetime::Weibull { shape, scale } => (-(t / scale).powf(shape)).exp(),
        }
    }

    /// Hazard rate at time `t`.
    #[must_use]
    #[allow(clippy::float_cmp)] // shape exactly 1.0 selects the exponential branch
    pub fn hazard(&self, t: f64) -> f64 {
        match *self {
            Lifetime::Exponential { rate } => rate,
            Lifetime::Weibull { shape, scale } => {
                if t <= 0.0 {
                    if shape < 1.0 {
                        f64::INFINITY
                    } else if shape == 1.0 {
                        1.0 / scale
                    } else {
                        0.0
                    }
                } else {
                    shape / scale * (t / scale).powf(shape - 1.0)
                }
            }
        }
    }

    /// Validates parameters.
    ///
    /// # Errors
    ///
    /// Returns [`RbdError::InvalidProbability`] describing the bad
    /// parameter.
    pub fn validate(&self) -> Result<(), RbdError> {
        let ok = match *self {
            Lifetime::Exponential { rate } => rate > 0.0 && rate.is_finite(),
            Lifetime::Weibull { shape, scale } => {
                shape > 0.0 && scale > 0.0 && shape.is_finite() && scale.is_finite()
            }
        };
        if ok {
            Ok(())
        } else {
            Err(RbdError::InvalidProbability { what: format!("lifetime {self:?}") })
        }
    }
}

/// A mission profile: per-component lifetimes matched to a diagram.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionProfile {
    lifetimes: Vec<Lifetime>,
}

impl MissionProfile {
    /// Creates a profile with one lifetime per component id.
    ///
    /// # Errors
    ///
    /// Returns the first lifetime validation error.
    pub fn new(lifetimes: Vec<Lifetime>) -> Result<Self, RbdError> {
        for l in &lifetimes {
            l.validate()?;
        }
        Ok(MissionProfile { lifetimes })
    }

    /// Number of components covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lifetimes.len()
    }

    /// Whether the profile is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lifetimes.is_empty()
    }

    /// System reliability at mission time `t` for the given diagram.
    ///
    /// # Errors
    ///
    /// * [`RbdError::UnknownComponent`] if the diagram references a
    ///   component without a lifetime.
    /// * Evaluation errors from [`Rbd::availability`].
    pub fn system_reliability(&self, rbd: &Rbd, t: f64) -> Result<f64, RbdError> {
        let mut table = ComponentTable::new();
        for (i, l) in self.lifetimes.iter().enumerate() {
            table.add(format!("c{i}"), l.survival(t));
        }
        rbd.availability(&table)
    }

    /// Samples the system reliability curve at the given times.
    ///
    /// # Errors
    ///
    /// As for [`system_reliability`](Self::system_reliability).
    pub fn reliability_curve(&self, rbd: &Rbd, times: &[f64]) -> Result<Vec<f64>, RbdError> {
        times.iter().map(|&t| self.system_reliability(rbd, t)).collect()
    }

    /// Mean time to failure of the system by adaptive Simpson
    /// integration of the reliability curve, `MTTF = ∫ R(t) dt`.
    ///
    /// Integrates until `R(t) < tail_cutoff` (default caller-supplied).
    ///
    /// # Errors
    ///
    /// As for [`system_reliability`](Self::system_reliability).
    pub fn mttf(&self, rbd: &Rbd, tail_cutoff: f64) -> Result<f64, RbdError> {
        // Find a horizon where R has decayed below the cutoff.
        let mut horizon = 1.0;
        while self.system_reliability(rbd, horizon)? > tail_cutoff && horizon < 1e12 {
            horizon *= 2.0;
        }
        // Composite Simpson over [0, horizon].
        let n = 2048; // even
        let h = horizon / n as f64;
        let mut sum = self.system_reliability(rbd, 0.0)? + self.system_reliability(rbd, horizon)?;
        for i in 1..n {
            let w = if i % 2 == 1 { 4.0 } else { 2.0 };
            sum += w * self.system_reliability(rbd, i as f64 * h)?;
        }
        Ok(sum * h / 3.0)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts deterministic arithmetic
mod tests {
    use super::*;

    #[test]
    fn exponential_survival() {
        let l = Lifetime::Exponential { rate: 0.01 };
        assert!((l.survival(100.0) - (-1.0f64).exp()).abs() < 1e-12);
        assert_eq!(l.hazard(5.0), 0.01);
    }

    #[test]
    fn weibull_shapes() {
        let infant = Lifetime::Weibull { shape: 0.5, scale: 100.0 };
        let wearout = Lifetime::Weibull { shape: 3.0, scale: 100.0 };
        // Infant mortality: hazard decreasing; wear-out: increasing.
        assert!(infant.hazard(1.0) > infant.hazard(10.0));
        assert!(wearout.hazard(1.0) < wearout.hazard(10.0));
        // Shape 1 Weibull equals exponential.
        let w1 = Lifetime::Weibull { shape: 1.0, scale: 100.0 };
        let e = Lifetime::Exponential { rate: 0.01 };
        for &t in &[0.5, 5.0, 50.0] {
            assert!((w1.survival(t) - e.survival(t)).abs() < 1e-12);
        }
    }

    #[test]
    fn series_system_rate_adds() {
        // Two exponential components in series: system rate = sum.
        let profile = MissionProfile::new(vec![
            Lifetime::Exponential { rate: 0.01 },
            Lifetime::Exponential { rate: 0.03 },
        ])
        .unwrap();
        let rbd = Rbd::series(vec![Rbd::component(0), Rbd::component(1)]);
        for &t in &[1.0, 10.0, 100.0] {
            let r = profile.system_reliability(&rbd, t).unwrap();
            assert!((r - (-0.04 * t).exp()).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_mttf_exceeds_single() {
        let profile = MissionProfile::new(vec![
            Lifetime::Exponential { rate: 0.01 },
            Lifetime::Exponential { rate: 0.01 },
        ])
        .unwrap();
        let single = Rbd::component(0);
        let pair = Rbd::parallel(vec![Rbd::component(0), Rbd::component(1)]);
        let m1 = profile.mttf(&single, 1e-8).unwrap();
        let m2 = profile.mttf(&pair, 1e-8).unwrap();
        // MTTF single = 100; parallel pair = 150.
        assert!((m1 - 100.0).abs() < 0.5, "m1={m1}");
        assert!((m2 - 150.0).abs() < 0.5, "m2={m2}");
    }

    #[test]
    fn reliability_curve_monotone_decreasing() {
        let profile = MissionProfile::new(vec![
            Lifetime::Weibull { shape: 2.0, scale: 50.0 },
            Lifetime::Exponential { rate: 0.02 },
        ])
        .unwrap();
        let rbd = Rbd::parallel(vec![Rbd::component(0), Rbd::component(1)]);
        let times: Vec<f64> = (0..50).map(|i| i as f64 * 4.0).collect();
        let curve = profile.reliability_curve(&rbd, &times).unwrap();
        for w in curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        assert!((curve[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_lifetimes_rejected() {
        assert!(Lifetime::Exponential { rate: 0.0 }.validate().is_err());
        assert!(Lifetime::Weibull { shape: 0.0, scale: 1.0 }.validate().is_err());
        assert!(MissionProfile::new(vec![Lifetime::Exponential { rate: -1.0 }]).is_err());
    }

    #[test]
    fn missing_component_rejected() {
        let profile = MissionProfile::new(vec![Lifetime::Exponential { rate: 0.01 }]).unwrap();
        let rbd = Rbd::component(3);
        assert!(matches!(
            profile.system_reliability(&rbd, 1.0),
            Err(RbdError::UnknownComponent { .. })
        ));
    }
}
