//! 802.11a PHY/MAC airtime arithmetic.
//!
//! Throughput in every Ch. 3 experiment is goodput: successfully delivered
//! payload bits divided by wall-clock time, where each transmission costs
//! preamble + symbol-packed payload + interframe spaces + ACK (+ backoff
//! under contention). Getting these constants right is what makes "5000
//! back-to-back 1000-byte packets per second at 54 Mbit/s" (Sec. 3) come
//! out of the simulator rather than being assumed.

use crate::rates::BitRate;
use hint_sim::SimDuration;

/// The largest MAC service data unit 802.11 carries in one frame, in
/// bytes. Specs and packet traces are rejected above it.
pub const MAX_MSDU_BYTES: u32 = 2304;

/// 802.11a MAC/PHY timing constants and airtime calculators.
#[derive(Clone, Copy, Debug)]
pub struct MacTiming {
    /// Slot time (9 µs for 802.11a).
    pub slot: SimDuration,
    /// Short interframe space (16 µs).
    pub sifs: SimDuration,
    /// DCF interframe space = SIFS + 2 × slot (34 µs).
    pub difs: SimDuration,
    /// PLCP preamble + header (20 µs).
    pub plcp: SimDuration,
    /// OFDM symbol duration (4 µs).
    pub symbol: SimDuration,
    /// Minimum contention window (CWmin = 15 slots).
    pub cw_min: u32,
    /// MAC header + FCS bytes added to every data frame (28 bytes:
    /// 24-byte header + 4-byte FCS; QoS/hint fields are carried within).
    pub mac_overhead_bytes: u32,
    /// ACK frame body length in bytes (14).
    pub ack_bytes: u32,
    /// Control-response rate used for ACKs (24 Mbit/s is the highest
    /// mandatory rate; 802.11 sends the ACK at the highest basic rate ≤
    /// the data rate).
    pub ack_rate: BitRate,
}

impl Default for MacTiming {
    fn default() -> Self {
        MacTiming {
            slot: SimDuration::from_micros(9),
            sifs: SimDuration::from_micros(16),
            difs: SimDuration::from_micros(34),
            plcp: SimDuration::from_micros(20),
            symbol: SimDuration::from_micros(4),
            cw_min: 15,
            mac_overhead_bytes: 28,
            ack_bytes: 14,
            ack_rate: BitRate::R24,
        }
    }
}

impl MacTiming {
    /// Standard 802.11a timing.
    pub fn ieee80211a() -> Self {
        Self::default()
    }

    /// Airtime of a PPDU carrying `body_bytes` of MAC payload at `rate`:
    /// PLCP preamble/header plus ⌈(16 + 8·bytes + 6) / N_DBPS⌉ symbols
    /// (16 service bits, 6 tail bits, as in the standard).
    pub fn ppdu_airtime(&self, rate: BitRate, body_bytes: u32) -> SimDuration {
        self.body_airtime(rate, u64::from(body_bytes))
    }

    /// [`MacTiming::ppdu_airtime`] with the bit count in `u64`, so no
    /// `u32` body size can overflow it.
    fn body_airtime(&self, rate: BitRate, body_bytes: u64) -> SimDuration {
        let bits = 16 + 8 * body_bytes + 6;
        let symbols = bits.div_ceil(u64::from(rate.bits_per_symbol()));
        self.plcp + self.symbol * symbols
    }

    /// Airtime of a data frame with `payload_bytes` of higher-layer payload
    /// (MAC header and FCS added automatically).
    pub fn data_airtime(&self, rate: BitRate, payload_bytes: u32) -> SimDuration {
        let body = u64::from(payload_bytes) + u64::from(self.mac_overhead_bytes);
        self.body_airtime(rate, body)
    }

    /// Airtime of an ACK at the control-response rate for `data_rate`.
    ///
    /// 802.11 responds at the highest *basic* rate not exceeding the data
    /// rate; with the mandatory set {6, 12, 24} this is min(24, data).
    pub fn ack_airtime(&self, data_rate: BitRate) -> SimDuration {
        let resp = if data_rate.index() >= self.ack_rate.index() {
            self.ack_rate
        } else {
            // Highest mandatory rate <= data rate: 6 or 12.
            if data_rate.index() >= BitRate::R12.index() {
                BitRate::R12
            } else {
                BitRate::R6
            }
        };
        self.ppdu_airtime(resp, self.ack_bytes)
    }

    /// Duration of one complete *successful* exchange — data, SIFS, ACK —
    /// excluding channel access (DIFS/backoff). This is the paper's
    /// "back-to-back" sending mode (Sec. 3.3).
    pub fn exchange_airtime(&self, rate: BitRate, payload_bytes: u32) -> SimDuration {
        self.data_airtime(rate, payload_bytes) + self.sifs + self.ack_airtime(rate)
    }

    /// Duration charged for a *failed* transmission: the data frame plus
    /// the ACK-timeout wait (SIFS + ACK duration, per common practice).
    pub fn failed_exchange_airtime(&self, rate: BitRate, payload_bytes: u32) -> SimDuration {
        // The sender must wait the full ACK window before declaring loss.
        self.exchange_airtime(rate, payload_bytes)
    }

    /// Full DCF transaction time including DIFS and *average* backoff
    /// (CWmin/2 slots), for an uncontended sender. Used where the paper's
    /// workload is a single saturated flow through an AP.
    pub fn dcf_exchange_time(&self, rate: BitRate, payload_bytes: u32) -> SimDuration {
        let avg_backoff = self.slot * u64::from(self.cw_min) / 2;
        self.difs + avg_backoff + self.exchange_airtime(rate, payload_bytes)
    }

    /// Maximum goodput (payload bits per second) of back-to-back
    /// 1000-byte-style traffic at `rate` — a useful normalisation constant.
    pub fn max_goodput_bps(&self, rate: BitRate, payload_bytes: u32) -> f64 {
        let t = self.exchange_airtime(rate, payload_bytes).as_secs_f64();
        f64::from(payload_bytes) * 8.0 / t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_packing_matches_standard_examples() {
        let t = MacTiming::ieee80211a();
        // 1028-byte PPDU body (1000 payload + 28 MAC) at 54 Mbit/s:
        // bits = 16 + 8·1028 + 6 = 8246; ⌈8246/216⌉ = 39 symbols;
        // 20 + 39·4 = 176 µs.
        assert_eq!(t.data_airtime(BitRate::R54, 1000).as_micros(), 176);
        // Same at 6 Mbit/s: ⌈8246/24⌉ = 344 symbols; 20 + 1376 = 1396 µs.
        assert_eq!(t.data_airtime(BitRate::R6, 1000).as_micros(), 1396);
    }

    #[test]
    fn ack_uses_control_rate() {
        let t = MacTiming::ieee80211a();
        // ACK at 24 Mbit/s: bits = 16 + 112 + 6 = 134; ⌈134/96⌉ = 2
        // symbols; 20 + 8 = 28 µs.
        assert_eq!(t.ack_airtime(BitRate::R54).as_micros(), 28);
        assert_eq!(t.ack_airtime(BitRate::R24).as_micros(), 28);
        // Below 24, the ACK drops to 12 or 6.
        assert_eq!(t.ack_airtime(BitRate::R18).as_micros(), 20 + 3 * 4); // ⌈134/48⌉=3
        assert_eq!(t.ack_airtime(BitRate::R6).as_micros(), 20 + 6 * 4); // ⌈134/24⌉=6
    }

    #[test]
    fn back_to_back_rate_at_54_matches_paper() {
        // The paper reports ~5000 back-to-back 1000-byte packets/s at
        // 54 Mbit/s. Exchange = 176 + 16 + 28 = 220 µs ⇒ ~4545/s.
        let t = MacTiming::ieee80211a();
        let ex = t.exchange_airtime(BitRate::R54, 1000);
        assert_eq!(ex.as_micros(), 220);
        let pps = 1.0 / ex.as_secs_f64();
        assert!(
            (4000.0..6000.0).contains(&pps),
            "pps {pps} should be ~5000 as in the paper"
        );
    }

    #[test]
    fn goodput_below_nominal_rate() {
        let t = MacTiming::ieee80211a();
        for &r in &BitRate::ALL {
            let g = t.max_goodput_bps(r, 1000) / 1e6;
            assert!(g < r.mbps(), "{r}: goodput {g} must be < nominal");
            assert!(g > r.mbps() * 0.4, "{r}: goodput {g} unreasonably low");
        }
    }

    #[test]
    fn goodput_monotone_in_rate() {
        let t = MacTiming::ieee80211a();
        let mut prev = 0.0;
        for &r in &BitRate::ALL {
            let g = t.max_goodput_bps(r, 1000);
            assert!(g > prev, "{r} goodput not monotone");
            prev = g;
        }
    }

    #[test]
    fn dcf_adds_difs_and_backoff() {
        let t = MacTiming::ieee80211a();
        let dcf = t.dcf_exchange_time(BitRate::R54, 1000);
        let raw = t.exchange_airtime(BitRate::R54, 1000);
        assert_eq!(dcf.as_micros() - raw.as_micros(), 34 + 7 * 9 + 4); // DIFS + 15/2*9µs (integer div: 7 slots*9 + …)
    }

    #[test]
    fn failed_exchange_charges_full_window() {
        let t = MacTiming::ieee80211a();
        assert_eq!(
            t.failed_exchange_airtime(BitRate::R54, 1000),
            t.exchange_airtime(BitRate::R54, 1000)
        );
    }
}
