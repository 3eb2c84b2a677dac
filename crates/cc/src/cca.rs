//! Congestion-controller selection by name.
//!
//! Serialized specs pick a congestion-control algorithm **by name** —
//! `{"cca": {"name": "Reno", "window": 64.0}}` — so the same JSON means
//! the same controller in every binary. The two baselines are the whole
//! table: [`CcaSpec::build`] matches the name (case-insensitive) to one
//! of them.

use crate::controller::{CongestionController, FixedWindow, Reno};
use serde::{Deserialize, Serialize};

/// Canonical names of the controllers [`CcaSpec::build`] knows, in the
/// order error messages list them.
const CCA_NAMES: [&str; 2] = ["Reno", "FixedWindow"];

/// Names a congestion controller and its window cap in serialized specs.
///
/// `window` is the congestion-window cap in packets: Reno grows toward
/// it, [`FixedWindow`] pins the window to it. It mirrors the open-loop TCP
/// model's `cwnd_cap` (and shares its default of 64).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CcaSpec {
    /// Algorithm name (case-insensitive; canonical names are `Reno` and
    /// `FixedWindow`).
    pub name: String,
    /// Congestion-window cap, packets.
    pub window: f64,
}

impl Default for CcaSpec {
    fn default() -> Self {
        CcaSpec {
            name: "Reno".to_string(),
            window: 64.0,
        }
    }
}

impl CcaSpec {
    /// A spec for `name` with the default window cap.
    pub fn named(name: impl Into<String>) -> CcaSpec {
        CcaSpec {
            name: name.into(),
            ..CcaSpec::default()
        }
    }

    /// A fresh controller with clean state for `name`, capped at
    /// `window`; the `Err` names every known controller.
    pub fn build(&self) -> Result<Box<dyn CongestionController>, String> {
        match self.name.to_ascii_lowercase().as_str() {
            "reno" => Ok(Box::new(Reno::new(self.window))),
            "fixedwindow" => Ok(Box::new(FixedWindow::new(self.window))),
            _ => Err(format!(
                "unknown congestion controller `{}` (one of: {})",
                self.name,
                CCA_NAMES.join(", ")
            )),
        }
    }

    /// Reject parameter sets the sender cannot run: a window cap below
    /// the model's two-packet loss-recovery floor, or an unknown
    /// algorithm name.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.window.is_finite() && self.window >= 2.0) {
            return Err(format!(
                "cca window must be finite and >= 2 packets, got {}",
                self.window
            ));
        }
        self.build().map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hint_sim::{SimDuration, SimTime};

    #[test]
    fn both_baselines_build_under_their_canonical_names() {
        for name in CCA_NAMES {
            let c = CcaSpec::named(name).build().expect("known controller");
            assert!(!c.name().is_empty());
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        for (name, canonical) in [
            ("reno", "Reno"),
            ("RENO", "Reno"),
            ("FIXEDWINDOW", "FixedWindow"),
            ("fixedwindow", "FixedWindow"),
        ] {
            let lower = CcaSpec::named(name).build().expect("case-insensitive");
            let exact = CcaSpec::named(canonical).build().expect("canonical");
            assert_eq!(lower.name(), exact.name());
        }
        assert!(CcaSpec::named("made-up").build().is_err());
    }

    #[test]
    fn failed_lookup_lists_known_names() {
        let err = match CcaSpec::named("vegas").build() {
            Err(e) => e,
            Ok(_) => panic!("unknown name must not build"),
        };
        assert_eq!(
            err,
            "unknown congestion controller `vegas` (one of: Reno, FixedWindow)"
        );
    }

    #[test]
    fn spec_validation_is_actionable() {
        assert!(CcaSpec::default().validate().is_ok());
        assert!(CcaSpec::named("fixedwindow").validate().is_ok());
        let bad_name = CcaSpec::named("vegas").validate().unwrap_err();
        assert!(bad_name.contains("Reno, FixedWindow"), "{bad_name}");
        let bad_window = CcaSpec {
            window: 1.0,
            ..CcaSpec::default()
        };
        assert!(bad_window.validate().unwrap_err().contains("window"));
        let nan_window = CcaSpec {
            window: f64::NAN,
            ..CcaSpec::default()
        };
        assert!(nan_window.validate().is_err());
    }

    #[test]
    fn window_cap_reaches_the_controller() {
        let spec = CcaSpec {
            name: "FixedWindow".to_string(),
            window: 7.0,
        };
        assert_eq!(spec.build().unwrap().window(), 7.0);
    }

    #[test]
    fn builds_yield_fresh_state() {
        let spec = CcaSpec::named("Reno");
        let mut used = spec.build().unwrap();
        let initial = used.window();
        for _ in 0..4 {
            used.on_ack(SimTime::ZERO, SimDuration::from_millis(10));
        }
        assert!(used.window() > initial, "acks must grow the window");
        assert_eq!(spec.build().unwrap().window(), initial);
    }
}
