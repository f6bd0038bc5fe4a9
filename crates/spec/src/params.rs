//! Global parameters of a diagram/block model.
//!
//! The paper (Section 3) lists four global parameters shown on the
//! Global Parameter Bar; they apply to every block in the model.

use crate::units::{Hours, Minutes};

/// Global parameters applying to every block (paper Section 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalParams {
    /// Reboot Time (`Tboot`): time to reboot the system.
    pub reboot_time: Minutes,
    /// MTTM: mean time to maintenance, a.k.a. service restriction time —
    /// the average waiting time before the service call for a redundant
    /// component whose repair can be deferred to off-peak hours.
    pub mttm: Hours,
    /// MTTRFID: mean time to repair from incorrect diagnosis (the long
    /// downtime entered when a service action replaced the wrong part).
    pub mttrfid: Hours,
    /// Mission Time: the horizon used for interval availability and
    /// reliability measures.
    pub mission_time: Hours,
}

impl Default for GlobalParams {
    /// Defaults representative of the paper's enterprise-server setting:
    /// 8-minute reboot, 48-hour deferred-maintenance window, 8-hour
    /// repair-from-incorrect-diagnosis, one-year mission.
    fn default() -> Self {
        GlobalParams {
            reboot_time: Minutes(8.0),
            mttm: Hours(48.0),
            mttrfid: Hours(8.0),
            mission_time: Hours(Hours::PER_YEAR),
        }
    }
}

impl GlobalParams {
    /// Validates ranges (all durations non-negative and finite, mission
    /// time positive).
    ///
    /// # Errors
    ///
    /// Returns [`crate::SpecError::InvalidParameter`] naming the bad
    /// field.
    pub fn validate(&self) -> Result<(), crate::SpecError> {
        let check = |v: f64, parameter: &'static str, must_be_positive: bool| {
            let ok = v.is_finite() && if must_be_positive { v > 0.0 } else { v >= 0.0 };
            if ok {
                Ok(())
            } else {
                Err(crate::SpecError::InvalidParameter {
                    block: "<global>".into(),
                    parameter,
                    message: format!("value {v} out of range"),
                })
            }
        };
        check(self.reboot_time.0, "reboot_time", false)?;
        check(self.mttm.0, "mttm", false)?;
        check(self.mttrfid.0, "mttrfid", false)?;
        check(self.mission_time.0, "mission_time", true)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        GlobalParams::default().validate().unwrap();
    }

    #[test]
    fn negative_duration_rejected() {
        let g = GlobalParams { mttm: Hours(-1.0), ..Default::default() };
        assert!(g.validate().is_err());
    }

    #[test]
    fn zero_mission_time_rejected() {
        let g = GlobalParams { mission_time: Hours(0.0), ..Default::default() };
        assert!(g.validate().is_err());
    }

    #[test]
    fn zero_reboot_is_fine() {
        let g = GlobalParams { reboot_time: Minutes(0.0), ..Default::default() };
        g.validate().unwrap();
    }
}
