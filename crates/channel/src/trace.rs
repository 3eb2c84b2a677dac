//! The paper's trace format and its synthetic generator.
//!
//! Sec. 3.3: the modified ns-3 "read\[s\] in experimental traces describing,
//! for each 5 ms timeslot, the fate of each packet sent at each bit rate
//! during that time slot. This setup bypasses the physical layer's
//! propagation model, instead referencing the trace file to determine if a
//! packet should be received successfully."
//!
//! [`Trace`] is exactly that artifact: a vector of 5 ms [`TraceSlot`]s,
//! each carrying one delivery fate per 802.11a bit rate, plus the SNR the
//! fates were drawn from and the ground-truth movement flag (used to score
//! hint accuracy, never leaked to protocols). Traces serialize to JSON so
//! experiments are replayable artifacts, as in the paper's methodology.

use crate::delivery::delivery_table;
use crate::environments::Environment;
use crate::snr::ChannelModel;
use hint_mac::BitRate;
use hint_sensors::motion::{MotionProfile, SegmentCursor};
use hint_sim::{RngStream, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// The paper's trace slot duration: 5 ms.
pub const SLOT_DURATION: SimDuration = SimDuration::from_micros(5_000);

/// One 5 ms slot of a channel trace.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceSlot {
    /// Fate of a 1000-byte packet at each bit rate (indexed by
    /// [`BitRate::index`]): `true` = delivered.
    pub fates: [bool; BitRate::COUNT],
    /// The SNR sample the fates were drawn from, dB (diagnostic; the
    /// SNR-based protocols RBAR/CHARM read this as their channel feedback).
    pub snr_db: f64,
    /// Ground-truth: was the receiver moving during this slot?
    pub moving: bool,
    /// Ground-truth receiver speed during this slot, m/s (0 when static).
    /// Consumers use it to model physical effects that scale with the
    /// receiver's own motion, e.g. the degradation of preamble-based SNR
    /// estimation as the channel decorrelates within a frame (Sec. 5.3).
    pub speed_mps: f64,
}

/// A replayable channel trace: per-slot, per-rate packet fates.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Trace {
    /// Environment name the trace was generated in.
    pub environment: String,
    /// Seed used for generation (provenance).
    pub seed: u64,
    /// The environment's independent per-packet noise/interference loss
    /// probability. Slot fates are SNR-driven only; replay simulators must
    /// thin each packet by this probability (noise events are shorter than
    /// a 5 ms slot, so baking them into slot fates would stretch
    /// single-packet losses into 5 ms bursts).
    pub noise_loss: f64,
    /// The 5 ms slots.
    pub slots: Vec<TraceSlot>,
}

impl Trace {
    /// Generate a trace for `profile` in `env` covering `duration`.
    ///
    /// Each slot samples the channel once and draws one Bernoulli fate per
    /// rate — the per-rate fates within a slot are correlated through the
    /// shared SNR, as in a real cycle through the rates.
    pub fn generate(
        env: &Environment,
        profile: &MotionProfile,
        duration: SimDuration,
        seed: u64,
    ) -> Trace {
        let root = RngStream::new(seed);
        let mut channel = ChannelModel::new(env.clone(), profile.clone(), root.derive("channel"));
        let mut fate_rng = root.derive("fates");
        let n_slots = duration.as_micros().div_ceil(SLOT_DURATION.as_micros());

        // Batched SNR fill over the fixed 5 ms grid. The channel and fate
        // streams are independent (`derive` isolates them), so filling all
        // SNRs first and drawing fates second leaves both draw sequences —
        // and therefore the trace — byte-identical to the interleaved form.
        let mut snrs = vec![0.0; n_slots as usize];
        channel.snr_block(SimTime::ZERO, SLOT_DURATION, &mut snrs);

        let table = delivery_table();
        let mut cursor = SegmentCursor::new();
        let mut slots = Vec::with_capacity(n_slots as usize);
        for (i, &snr) in snrs.iter().enumerate() {
            let t = SimTime::from_micros(i as u64 * SLOT_DURATION.as_micros());
            let state = cursor.state(profile, t);
            let mut fates = [false; BitRate::COUNT];
            for &rate in &BitRate::ALL {
                // SNR-driven reception only; per-packet noise loss is
                // applied by the replay simulator (see `noise_loss`).
                fates[rate.index()] = fate_rng.chance(table.prob_1000(rate, snr));
            }
            slots.push(TraceSlot {
                fates,
                snr_db: snr,
                moving: state.is_moving(),
                speed_mps: state.speed_mps(),
            });
        }
        Trace {
            environment: env.name.clone(),
            seed,
            noise_loss: env.noise_loss,
            slots,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the trace has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total trace duration.
    pub fn duration(&self) -> SimDuration {
        SLOT_DURATION * self.slots.len() as u64
    }

    /// The slot index containing time `t` (clamped to the last slot, so a
    /// simulation that overruns by a partial slot keeps working).
    pub fn slot_index(&self, t: SimTime) -> usize {
        ((t.as_micros() / SLOT_DURATION.as_micros()) as usize).min(self.slots.len() - 1)
    }

    /// The slot containing time `t`.
    ///
    /// # Panics
    /// Panics on an empty trace.
    pub fn slot_at(&self, t: SimTime) -> &TraceSlot {
        &self.slots[self.slot_index(t)]
    }

    /// Fate of a 1000-byte packet sent at `rate` at time `t`.
    pub fn fate(&self, t: SimTime, rate: BitRate) -> bool {
        self.slot_at(t).fates[rate.index()]
    }

    /// Ground-truth movement flag at time `t`.
    pub fn moving_at(&self, t: SimTime) -> bool {
        self.slot_at(t).moving
    }

    /// SNR sample at time `t`, dB.
    pub fn snr_at(&self, t: SimTime) -> f64 {
        self.slot_at(t).snr_db
    }

    /// Per-rate delivery ratio over the whole trace.
    pub fn delivery_ratio(&self, rate: BitRate) -> f64 {
        if self.slots.is_empty() {
            return 0.0;
        }
        let ok = self.slots.iter().filter(|s| s.fates[rate.index()]).count();
        ok as f64 / self.slots.len() as f64
    }

    /// Delivery ratio of `rate` restricted to moving (or static) slots.
    pub fn delivery_ratio_when(&self, rate: BitRate, moving: bool) -> f64 {
        let sel: Vec<&TraceSlot> = self.slots.iter().filter(|s| s.moving == moving).collect();
        if sel.is_empty() {
            return 0.0;
        }
        let ok = sel.iter().filter(|s| s.fates[rate.index()]).count();
        ok as f64 / sel.len() as f64
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace serialization cannot fail")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Trace, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Write to a file as JSON.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Load from a JSON file.
    pub fn load(path: &Path) -> io::Result<Trace> {
        let s = std::fs::read_to_string(path)?;
        Trace::from_json(&s).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn office_trace(moving: bool, secs: u64, seed: u64) -> Trace {
        let profile = if moving {
            MotionProfile::walking(SimDuration::from_secs(secs), 1.4, 0.0)
        } else {
            MotionProfile::stationary(SimDuration::from_secs(secs))
        };
        Trace::generate(
            &Environment::office(),
            &profile,
            SimDuration::from_secs(secs),
            seed,
        )
    }

    #[test]
    fn slot_count_matches_duration() {
        let t = office_trace(false, 10, 1);
        assert_eq!(t.len(), 2000);
        assert_eq!(t.duration(), SimDuration::from_secs(10));
    }

    #[test]
    fn slower_rates_deliver_better() {
        let t = office_trace(true, 60, 2);
        let d6 = t.delivery_ratio(BitRate::R6);
        let d54 = t.delivery_ratio(BitRate::R54);
        assert!(d6 > d54, "6 Mbps {d6:.2} should beat 54 Mbps {d54:.2}");
        assert!(d6 > 0.8, "6 Mbps delivery {d6:.2} too low for office");
    }

    #[test]
    fn moving_flag_follows_profile() {
        let profile = MotionProfile::half_and_half(SimDuration::from_secs(5), true);
        let t = Trace::generate(
            &Environment::office(),
            &profile,
            SimDuration::from_secs(10),
            3,
        );
        assert!(!t.moving_at(SimTime::from_secs(2)));
        assert!(t.moving_at(SimTime::from_secs(7)));
    }

    #[test]
    fn json_roundtrip() {
        let t = office_trace(false, 1, 4);
        let j = t.to_json();
        let back = Trace::from_json(&j).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.environment, t.environment);
        assert_eq!(back.seed, 4);
        assert_eq!(back.slots[17].fates, t.slots[17].fates);
    }

    #[test]
    fn file_roundtrip() {
        let t = office_trace(true, 1, 5);
        let dir = std::env::temp_dir().join("hint-channel-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        t.save(&path).unwrap();
        let back = Trace::load(&path).unwrap();
        assert_eq!(back.len(), t.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn slot_lookup_clamps_past_end() {
        let t = office_trace(false, 1, 6);
        // 1 s trace: queries at 2 s clamp to the last slot, not panic.
        let _ = t.fate(SimTime::from_secs(2), BitRate::R6);
        assert_eq!(t.slot_index(SimTime::from_secs(2)), t.len() - 1);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = office_trace(true, 2, 42);
        let b = office_trace(true, 2, 42);
        assert_eq!(a.slots.len(), b.slots.len());
        for (x, y) in a.slots.iter().zip(&b.slots) {
            assert_eq!(x.fates, y.fates);
            assert_eq!(x.snr_db, y.snr_db);
        }
        let c = office_trace(true, 2, 43);
        assert!(
            a.slots
                .iter()
                .zip(&c.slots)
                .any(|(x, y)| x.fates != y.fates),
            "different seeds should differ"
        );
    }

    #[test]
    fn mobile_trace_has_burstier_losses_at_54() {
        // Count runs of consecutive losses at 54 Mbps; the mobile trace
        // should have a longer mean loss-run than the static one.
        let run_len = |t: &Trace| {
            let mut runs = Vec::new();
            let mut cur = 0u32;
            for s in &t.slots {
                if !s.fates[BitRate::R54.index()] {
                    cur += 1;
                } else if cur > 0 {
                    runs.push(f64::from(cur));
                    cur = 0;
                }
            }
            if cur > 0 {
                runs.push(f64::from(cur));
            }
            if runs.is_empty() {
                0.0
            } else {
                runs.iter().sum::<f64>() / runs.len() as f64
            }
        };
        let stat = office_trace(false, 60, 7);
        let mob = office_trace(true, 60, 7);
        assert!(
            run_len(&mob) > run_len(&stat),
            "mobile loss runs {:.2} vs static {:.2}",
            run_len(&mob),
            run_len(&stat)
        );
    }
}
