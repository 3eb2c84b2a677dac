//! The Hint Protocol wire format (Sec. 2.3).
//!
//! Two encodings, exactly as the paper proposes:
//!
//! 1. **Movement bit** — "for a simple binary hint, such as the movement
//!    hint, the protocol can use one of the unused bits in the standard
//!    802.11 ACK frame or probe request frame", so legacy nodes simply
//!    ignore it. Modelled as a reserved Frame-Control bit.
//! 2. **General TLV** — "the link-layer frame format can be expanded to
//!    include an additional two-byte field, sufficient to contain the pair
//!    `(hintType, hintVal)`". Quantisation of heading (2° resolution) and
//!    speed (0.5 m/s resolution) keeps each value in one byte.
//!
//! Hints can piggy-back on data frames or ride in a dedicated short hint
//! frame when a node has nothing to send; both cases reduce to a
//! [`HintField`] attached to a frame in this model.

use serde::{Deserialize, Serialize};

/// The type tag of a two-byte hint TLV.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum HintType {
    /// Boolean movement hint (value 0 or 1).
    Movement = 0x01,
    /// Heading quantised to 2° steps (value 0..180 ⇒ 0°..358°).
    Heading = 0x02,
    /// Speed quantised to 0.5 m/s steps, saturating at 127.5 m/s.
    Speed = 0x03,
}

impl HintType {
    /// Parse a type byte. Unknown types yield `None` — a node running a
    /// newer hint protocol must interoperate with older ones.
    pub fn from_byte(b: u8) -> Option<HintType> {
        match b {
            0x01 => Some(HintType::Movement),
            0x02 => Some(HintType::Heading),
            0x03 => Some(HintType::Speed),
            _ => None,
        }
    }
}

/// A decoded hint value.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum HintWire {
    /// Movement hint: true = moving.
    Movement(bool),
    /// Heading hint in degrees `[0, 360)` (2° quantisation on the wire).
    Heading(f64),
    /// Speed hint in m/s (0.5 m/s quantisation on the wire).
    Speed(f64),
}

impl HintWire {
    /// Encode as the two-byte `(hintType, hintVal)` pair.
    pub fn encode(self) -> [u8; 2] {
        match self {
            HintWire::Movement(m) => [HintType::Movement as u8, u8::from(m)],
            HintWire::Heading(deg) => {
                let q = (deg.rem_euclid(360.0) / 2.0).round() as u16 % 180;
                [HintType::Heading as u8, q as u8]
            }
            HintWire::Speed(mps) => {
                let q = (mps.max(0.0) * 2.0).round().min(255.0) as u8;
                [HintType::Speed as u8, q]
            }
        }
    }

    /// Decode a two-byte pair; `None` for unknown hint types or malformed
    /// values (decoding never panics on attacker-controlled bytes).
    pub fn decode(bytes: [u8; 2]) -> Option<HintWire> {
        match HintType::from_byte(bytes[0])? {
            HintType::Movement => match bytes[1] {
                0 => Some(HintWire::Movement(false)),
                1 => Some(HintWire::Movement(true)),
                _ => None,
            },
            HintType::Heading => {
                if bytes[1] < 180 {
                    Some(HintWire::Heading(f64::from(bytes[1]) * 2.0))
                } else {
                    None
                }
            }
            HintType::Speed => Some(HintWire::Speed(f64::from(bytes[1]) / 2.0)),
        }
    }
}

/// The hint payload a frame can carry: the cheap ACK-bit movement flag,
/// and/or a full TLV. A frame from a legacy (hint-oblivious) node carries
/// neither.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HintField {
    /// The movement bit stuffed into an unused frame-control bit.
    /// `None` means the sender does not run the hint protocol (legacy).
    pub movement_bit: Option<bool>,
    /// Optional two-byte TLV hint appended to the frame body.
    pub tlv: Option<HintWire>,
}

impl HintField {
    /// A legacy frame carrying no hints.
    pub fn legacy() -> Self {
        Self::default()
    }

    /// A frame carrying only the movement bit.
    pub fn movement(moving: bool) -> Self {
        HintField {
            movement_bit: Some(moving),
            tlv: None,
        }
    }

    /// A frame carrying a TLV hint (the movement bit is set consistently
    /// when the TLV is itself a movement hint).
    pub fn with_tlv(hint: HintWire) -> Self {
        let movement_bit = match hint {
            HintWire::Movement(m) => Some(m),
            _ => None,
        };
        HintField {
            movement_bit,
            tlv: Some(hint),
        }
    }

    /// Extra bytes this hint costs on the wire (0 for the ACK bit, 2 for
    /// a TLV) — the "relatively low cost in terms of messaging overhead"
    /// the paper cites.
    pub fn wire_overhead_bytes(&self) -> u32 {
        if self.tlv.is_some() {
            2
        } else {
            0
        }
    }

    /// The movement hint this frame communicates, if any (TLV wins over
    /// the bare bit when both are present).
    pub fn movement_hint(&self) -> Option<bool> {
        if let Some(HintWire::Movement(m)) = self.tlv {
            return Some(m);
        }
        self.movement_bit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn movement_roundtrip() {
        for m in [true, false] {
            let enc = HintWire::Movement(m).encode();
            assert_eq!(HintWire::decode(enc), Some(HintWire::Movement(m)));
        }
    }

    #[test]
    fn heading_roundtrip_within_quantisation() {
        for deg in [0.0, 1.0, 90.0, 179.9, 243.0, 359.0] {
            let enc = HintWire::Heading(deg).encode();
            let dec = HintWire::decode(enc).unwrap();
            if let HintWire::Heading(got) = dec {
                let err = (got - deg).abs().min(360.0 - (got - deg).abs());
                assert!(err <= 1.0 + 1e-9, "heading {deg} decoded {got}");
            } else {
                panic!("wrong variant");
            }
        }
    }

    #[test]
    fn heading_360_wraps_to_zero() {
        let enc = HintWire::Heading(359.6).encode();
        // 359.6/2 rounds to 180, which must wrap to 0 on the wire.
        assert_eq!(enc[1], 0);
        assert_eq!(HintWire::decode(enc), Some(HintWire::Heading(0.0)));
    }

    #[test]
    fn speed_roundtrip_and_saturation() {
        for mps in [0.0, 1.4, 20.0, 33.3] {
            let enc = HintWire::Speed(mps).encode();
            if let Some(HintWire::Speed(got)) = HintWire::decode(enc) {
                assert!((got - mps).abs() <= 0.25 + 1e-9, "speed {mps} got {got}");
            } else {
                panic!("wrong variant");
            }
        }
        // Saturates rather than wrapping.
        let enc = HintWire::Speed(1e9).encode();
        assert_eq!(enc[1], 255);
        let enc = HintWire::Speed(-5.0).encode();
        assert_eq!(enc[1], 0);
    }

    #[test]
    fn unknown_type_bytes_decode_to_none() {
        assert_eq!(HintWire::decode([0x00, 0x01]), None);
        assert_eq!(HintWire::decode([0x7f, 0x00]), None);
        assert_eq!(HintWire::decode([0xff, 0xff]), None);
    }

    #[test]
    fn malformed_values_rejected() {
        // Movement with value 2 is malformed.
        assert_eq!(HintWire::decode([0x01, 2]), None);
        // Heading index >= 180 is malformed.
        assert_eq!(HintWire::decode([0x02, 180]), None);
        assert_eq!(HintWire::decode([0x02, 255]), None);
    }

    #[test]
    fn hint_field_overhead_and_extraction() {
        assert_eq!(HintField::legacy().wire_overhead_bytes(), 0);
        assert_eq!(HintField::legacy().movement_hint(), None);
        let f = HintField::movement(true);
        assert_eq!(f.wire_overhead_bytes(), 0);
        assert_eq!(f.movement_hint(), Some(true));
        let f = HintField::with_tlv(HintWire::Movement(false));
        assert_eq!(f.wire_overhead_bytes(), 2);
        assert_eq!(f.movement_hint(), Some(false));
        assert_eq!(f.movement_bit, Some(false));
        let f = HintField::with_tlv(HintWire::Heading(90.0));
        assert_eq!(f.movement_hint(), None);
    }
}
