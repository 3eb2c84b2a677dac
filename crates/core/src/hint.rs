//! The unified hint value type.
//!
//! Sec. 2.3's wire format carries `(hintType, hintVal)` pairs; locally,
//! protocols consume typed values. [`Hint`] is the local representation of
//! a received hint, built from the two-byte wire form in `hint-mac`.

use hint_mac::hint_proto::HintWire;

/// A typed hint value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Hint {
    /// The device is (not) moving.
    Movement(bool),
    /// Heading, degrees clockwise from north `[0, 360)`.
    Heading(f64),
    /// Speed, m/s.
    Speed(f64),
}

impl Hint {
    /// Build from a received wire hint.
    pub fn from_wire(w: HintWire) -> Hint {
        match w {
            HintWire::Movement(m) => Hint::Movement(m),
            HintWire::Heading(h) => Hint::Heading(h),
            HintWire::Speed(s) => Hint::Speed(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip_for_encodable_kinds() {
        for (w, h) in [
            (HintWire::Movement(true), Hint::Movement(true)),
            (HintWire::Heading(42.0), Hint::Heading(42.0)),
            (HintWire::Speed(3.5), Hint::Speed(3.5)),
        ] {
            let back = Hint::from_wire(HintWire::decode(w.encode()).expect("valid"));
            assert_eq!(back, h);
        }
    }
}
