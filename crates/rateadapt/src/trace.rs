//! Packet traces: recorded workloads that replay as experiments.
//!
//! A [`PacketTrace`] is the workload-side counterpart of the channel
//! trace: an ordered list of `(time_us, direction, size)` records that
//! schedules *when the sender offers each packet to the link*, instead
//! of the synthetic saturated-UDP / modelled-TCP generators. Any run of
//! the link simulator can be recorded into one
//! ([`crate::LinkSimulator::run_recording`], or `scenario_run --record`),
//! and any trace — recorded or captured elsewhere — can be fed back as a
//! [`crate::Workload::Trace`] workload, which is what turns a one-off
//! run into a reproducible experiment.
//!
//! Two interchangeable encodings, auto-detected on load:
//!
//! * **Text** — one `time_us,direction,size` record per line
//!   (direction `s` = sent, `r` = received; `#` comments and blank lines
//!   ignored), the greppable, diffable, checked-in form.
//! * **Binary** — an 8-byte magic, a little-endian `u32` record count,
//!   then 13 bytes per record (`u64` time, `u8` direction, `u32` size):
//!   the compact form for large captures.
//!
//! ```
//! use hint_rateadapt::trace::PacketTrace;
//!
//! let t = PacketTrace::parse_text("0,s,1000\n220,s,1000\n440,r,60\n").unwrap();
//! assert_eq!(t.len(), 3);
//! assert_eq!(t.send_count(), 2);
//! let bin = t.to_binary();
//! assert_eq!(PacketTrace::parse(&bin).unwrap(), t);
//! assert_eq!(PacketTrace::parse(t.to_text().as_bytes()).unwrap(), t);
//! ```

use hint_mac::MAX_MSDU_BYTES;
use hint_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io;
use std::path::Path;

/// Magic prefix of the binary encoding (8 bytes, version-suffixed).
pub const BINARY_MAGIC: &[u8; 8] = b"HINTPKT1";

/// Bytes per record in the binary encoding: `u64` time, `u8` direction,
/// `u32` size, all little-endian.
pub const BINARY_RECORD_BYTES: usize = 13;

/// Which way a recorded packet travelled, relative to the traced sender.
///
/// Replay drives the simulator with the `Send` records; `Recv` records
/// are carried for fidelity to captures of bidirectional traffic but do
/// not schedule transmissions (the simulator models the uplink sender).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// The traced sender transmitted this packet (`s` in text form).
    Send,
    /// The traced sender received this packet (`r` in text form).
    Recv,
}

impl Direction {
    /// The single-character text-format code.
    pub fn code(self) -> char {
        match self {
            Direction::Send => 's',
            Direction::Recv => 'r',
        }
    }

    /// Parse the text-format code.
    pub fn from_code(c: &str) -> Option<Direction> {
        match c {
            "s" => Some(Direction::Send),
            "r" => Some(Direction::Recv),
            _ => None,
        }
    }
}

/// One recorded packet: when it was offered to the link, which way it
/// travelled, and its payload size.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketRecord {
    /// Offer time, microseconds since the start of the trace.
    pub time_us: u64,
    /// Travel direction relative to the traced sender.
    pub direction: Direction,
    /// Payload size, bytes (1 to [`MAX_MSDU_BYTES`]).
    pub size: u32,
}

/// Why a packet trace failed to parse or validate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// A text-format line is malformed (1-based line number + reason).
    Text {
        /// 1-based line number of the offending record.
        line: usize,
        /// What was wrong and what was expected instead.
        reason: String,
    },
    /// The binary blob is malformed (reason says how).
    Binary(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Text { line, reason } => {
                write!(f, "packet trace line {line}: {reason}")
            }
            TraceError::Binary(reason) => write!(f, "binary packet trace: {reason}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Why a record's `size` is invalid, if it is: every constructor accepts
/// 1 to [`MAX_MSDU_BYTES`] bytes.
fn size_error(size: u32) -> Option<String> {
    if size == 0 {
        Some("packet size must be positive, got 0".to_string())
    } else if size > MAX_MSDU_BYTES {
        Some(format!(
            "packet size {size} bytes exceeds the 802.11 MSDU limit of {MAX_MSDU_BYTES} bytes"
        ))
    } else {
        None
    }
}

/// An ordered packet trace (timestamps non-decreasing, sizes 1 to
/// [`MAX_MSDU_BYTES`] — enforced by every constructor).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketTrace {
    /// The records, in non-decreasing time order.
    pub records: Vec<PacketRecord>,
}

impl PacketTrace {
    /// Wrap `records`, validating the trace invariants (non-decreasing
    /// timestamps, sizes 1 to [`MAX_MSDU_BYTES`]). The reported "line" of a violation
    /// is the 1-based record index, matching what the text parser would
    /// say about the same data.
    pub fn new(records: Vec<PacketRecord>) -> Result<PacketTrace, TraceError> {
        let t = PacketTrace { records };
        t.check_invariants()?;
        Ok(t)
    }

    fn check_invariants(&self) -> Result<(), TraceError> {
        let mut prev = 0u64;
        for (i, r) in self.records.iter().enumerate() {
            if r.time_us < prev {
                return Err(TraceError::Text {
                    line: i + 1,
                    reason: format!(
                        "timestamp {} us runs backwards (previous record at {} us); \
                         trace timestamps must be non-decreasing",
                        r.time_us, prev
                    ),
                });
            }
            if let Some(reason) = size_error(r.size) {
                return Err(TraceError::Text {
                    line: i + 1,
                    reason,
                });
            }
            prev = r.time_us;
        }
        Ok(())
    }

    /// Number of records (both directions).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of `Send` records — the ones replay will schedule.
    pub fn send_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.direction == Direction::Send)
            .count()
    }

    /// Time of the last record (zero for an empty trace) — the natural
    /// span of the recorded workload.
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_micros(self.records.last().map_or(0, |r| r.time_us))
    }

    /// Is this trace usable as a replay workload? A replayable trace
    /// needs at least one `Send` record; the message says what to fix.
    pub fn validate_replayable(&self) -> Result<(), String> {
        if self.is_empty() {
            return Err(
                "packet trace is empty; record one with `scenario_run <spec> --record PATH` \
                 or add `time_us,direction,size` records"
                    .to_string(),
            );
        }
        if self.send_count() == 0 {
            return Err(format!(
                "packet trace has {} records but none in the `s` (send) direction, so \
                 replay would transmit nothing",
                self.len()
            ));
        }
        Ok(())
    }

    /// The sub-trace scheduled in `[from, to)`, re-based so the window
    /// start becomes time zero — how the fleet engine hands each
    /// association span its share of a client's recorded workload.
    pub fn window(&self, from: SimTime, to: SimTime) -> PacketTrace {
        let lo = self
            .records
            .partition_point(|r| r.time_us < from.as_micros());
        let hi = self.records.partition_point(|r| r.time_us < to.as_micros());
        PacketTrace {
            records: self.records[lo..hi]
                .iter()
                .map(|r| PacketRecord {
                    time_us: r.time_us - from.as_micros(),
                    ..*r
                })
                .collect(),
        }
    }

    // ------------------------------------------------------------- text

    /// Parse the text encoding: one `time_us,direction,size` record per
    /// line, `#` comments and blank lines ignored. Errors carry the
    /// 1-based line number and an actionable reason.
    pub fn parse_text(src: &str) -> Result<PacketTrace, TraceError> {
        let mut records = Vec::new();
        let mut prev: Option<(usize, u64)> = None;
        for (idx, raw) in src.lines().enumerate() {
            let line = idx + 1;
            let text = raw.trim();
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            let err = |reason: String| TraceError::Text { line, reason };
            // Split on comma byte offsets instead of collecting the fields,
            // so a 34k-line trace allocates nothing per line. `,` is ASCII,
            // so every offset is a char boundary.
            let mut commas = text.bytes().enumerate().filter(|&(_, b)| b == b',');
            let (Some((c1, _)), Some((c2, _)), None) =
                (commas.next(), commas.next(), commas.next())
            else {
                return Err(err(format!(
                    "expected `time_us,direction,size` (3 comma-separated fields), got {}",
                    text.split(',').count()
                )));
            };
            let (time, dir, size) = (
                text[..c1].trim(),
                text[c1 + 1..c2].trim(),
                text[c2 + 1..].trim(),
            );
            let time_us: u64 = time.parse().map_err(|_| {
                err(format!(
                    "invalid time_us `{time}`: expected a non-negative integer of microseconds"
                ))
            })?;
            let direction = Direction::from_code(dir).ok_or_else(|| {
                err(format!(
                    "unknown direction `{dir}` (expected `s` for sent or `r` for received)"
                ))
            })?;
            let size: u32 = size.parse().map_err(|_| {
                err(format!(
                    "invalid size `{size}`: expected a positive integer of bytes"
                ))
            })?;
            if let Some(reason) = size_error(size) {
                return Err(err(reason));
            }
            if let Some((prev_line, prev_t)) = prev {
                if time_us < prev_t {
                    return Err(err(format!(
                        "timestamp {time_us} us runs backwards (line {prev_line} was \
                         {prev_t} us); trace timestamps must be non-decreasing"
                    )));
                }
            }
            prev = Some((line, time_us));
            records.push(PacketRecord {
                time_us,
                direction,
                size,
            });
        }
        Ok(PacketTrace { records })
    }

    /// Render the text encoding (with its self-describing header line).
    pub fn to_text(&self) -> String {
        let mut out = String::from("# packet trace: time_us,direction,size\n");
        for r in &self.records {
            out.push_str(&format!(
                "{},{},{}\n",
                r.time_us,
                r.direction.code(),
                r.size
            ));
        }
        out
    }

    // ----------------------------------------------------------- binary

    /// Render the compact binary encoding (magic, record count, then
    /// fixed-width little-endian records).
    pub fn to_binary(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(BINARY_MAGIC.len() + 4 + 13 * self.len());
        out.extend_from_slice(BINARY_MAGIC);
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for r in &self.records {
            out.extend_from_slice(&r.time_us.to_le_bytes());
            out.push(r.direction.code() as u8);
            out.extend_from_slice(&r.size.to_le_bytes());
        }
        out
    }

    /// Parse the binary encoding, rejecting truncated or oversized
    /// blobs with a message that says exactly what is missing.
    pub fn parse_binary(bytes: &[u8]) -> Result<PacketTrace, TraceError> {
        let header = BINARY_MAGIC.len() + 4;
        if bytes.len() < header {
            return Err(TraceError::Binary(format!(
                "truncated header: need {header} bytes (magic + record count), got {}",
                bytes.len()
            )));
        }
        if &bytes[..BINARY_MAGIC.len()] != BINARY_MAGIC {
            return Err(TraceError::Binary(format!(
                "bad magic {:?} (expected {:?}); not a binary packet trace",
                &bytes[..BINARY_MAGIC.len()],
                BINARY_MAGIC
            )));
        }
        let mut count_bytes = [0u8; 4];
        count_bytes.copy_from_slice(&bytes[BINARY_MAGIC.len()..header]);
        let count = u32::from_le_bytes(count_bytes) as usize;
        let body = &bytes[header..];
        let need = count * BINARY_RECORD_BYTES;
        if body.len() < need {
            return Err(TraceError::Binary(format!(
                "truncated: header declares {count} records ({need} bytes) but only \
                 {} bytes of records follow",
                body.len()
            )));
        }
        if body.len() > need {
            return Err(TraceError::Binary(format!(
                "{} trailing bytes after the declared {count} records",
                body.len() - need
            )));
        }
        let mut records = Vec::with_capacity(count);
        for (i, chunk) in body.chunks_exact(BINARY_RECORD_BYTES).enumerate() {
            let mut t = [0u8; 8];
            t.copy_from_slice(&chunk[..8]);
            let direction = match chunk[8] {
                b's' => Direction::Send,
                b'r' => Direction::Recv,
                other => {
                    return Err(TraceError::Binary(format!(
                        "record {i}: unknown direction byte 0x{other:02x} (expected `s` or `r`)"
                    )))
                }
            };
            let mut s = [0u8; 4];
            s.copy_from_slice(&chunk[9..13]);
            records.push(PacketRecord {
                time_us: u64::from_le_bytes(t),
                direction,
                size: u32::from_le_bytes(s),
            });
        }
        let t = PacketTrace { records };
        t.check_invariants().map_err(|e| match e {
            TraceError::Text { line, reason } => {
                TraceError::Binary(format!("record {}: {reason}", line - 1))
            }
            b => b,
        })?;
        Ok(t)
    }

    // -------------------------------------------------------- load/save

    /// Parse either encoding, auto-detected by the binary magic.
    pub fn parse(bytes: &[u8]) -> Result<PacketTrace, TraceError> {
        if bytes.starts_with(BINARY_MAGIC) {
            return Self::parse_binary(bytes);
        }
        let text = std::str::from_utf8(bytes).map_err(|e| {
            TraceError::Binary(format!(
                "neither binary (no {BINARY_MAGIC:?} magic) nor UTF-8 text: {e}"
            ))
        })?;
        Self::parse_text(text)
    }

    /// Load a trace file (either encoding, auto-detected). Parse errors
    /// surface as `InvalidData` with the path and reason.
    pub fn load(path: &Path) -> io::Result<PacketTrace> {
        let bytes = std::fs::read(path)?;
        Self::parse(&bytes).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }

    /// Write the trace: binary when the path ends in `.bin`, text
    /// otherwise.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let binary = path.extension().is_some_and(|e| e == "bin");
        if binary {
            std::fs::write(path, self.to_binary())
        } else {
            std::fs::write(path, self.to_text())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The text parser as it was before fields came off an iterator: it
    /// collects every line's fields into a `Vec`. The parser must agree
    /// with it, record for record and error for error.
    fn reference_parse_text(src: &str) -> Result<PacketTrace, TraceError> {
        let mut records = Vec::new();
        let mut prev: Option<(usize, u64)> = None;
        for (idx, raw) in src.lines().enumerate() {
            let line = idx + 1;
            let text = raw.trim();
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            let err = |reason: String| TraceError::Text { line, reason };
            let fields: Vec<&str> = text.split(',').map(str::trim).collect();
            if fields.len() != 3 {
                return Err(err(format!(
                    "expected `time_us,direction,size` (3 comma-separated fields), got {}",
                    fields.len()
                )));
            }
            let time_us: u64 = fields[0].parse().map_err(|_| {
                err(format!(
                    "invalid time_us `{}`: expected a non-negative integer of microseconds",
                    fields[0]
                ))
            })?;
            let direction = Direction::from_code(fields[1]).ok_or_else(|| {
                err(format!(
                    "unknown direction `{}` (expected `s` for sent or `r` for received)",
                    fields[1]
                ))
            })?;
            let size: u32 = fields[2].parse().map_err(|_| {
                err(format!(
                    "invalid size `{}`: expected a positive integer of bytes",
                    fields[2]
                ))
            })?;
            if let Some(reason) = size_error(size) {
                return Err(err(reason));
            }
            if let Some((prev_line, prev_t)) = prev {
                if time_us < prev_t {
                    return Err(err(format!(
                        "timestamp {time_us} us runs backwards (line {prev_line} was \
                         {prev_t} us); trace timestamps must be non-decreasing"
                    )));
                }
            }
            prev = Some((line, time_us));
            records.push(PacketRecord {
                time_us,
                direction,
                size,
            });
        }
        Ok(PacketTrace { records })
    }

    /// Field tokens for adversarial lines: valid values, `from_str` edge
    /// cases (a leading `+`, `u64` and `u32` overflow, a sign, an
    /// exponent, a non-ASCII digit), empty fields, comment starts and
    /// Unicode whitespace that `trim` must strip.
    const TOKENS: [&str; 24] = [
        "0",
        "5",
        "+5",
        "220",
        "1000",
        "2304",
        "2305",
        "18446744073709551615",
        "18446744073709551616",
        "4294967296",
        "-1",
        "1e3",
        "\u{663}",
        "",
        "s",
        "r",
        "x",
        "S",
        "# note",
        " 12 ",
        "\t7\t",
        "\u{a0}9\u{2003}",
        "\u{b}3\u{c}",
        "s r",
    ];

    /// Padding around a line or inside a field separator.
    const PADS: [&str; 6] = ["", " ", "\t", "\u{b}\u{c}", "\u{a0}", " \u{2003} "];

    /// Line terminators, including none on the last line.
    const ENDS: [&str; 4] = ["\n", "\r\n", "\r", ""];

    /// Render lines of `(tokens, pad before, pad around commas, ending,
    /// shape)`. Shape 0 joins the tokens, 1 adds a trailing comma, and any
    /// other shape builds a well-formed record from the first three token
    /// indices, so many inputs parse and the records are compared too.
    fn render(lines: &[(Vec<usize>, usize, usize, usize, u8)]) -> String {
        const TIMES: [&str; 5] = ["0", "+5", "220", " 12 ", "\u{a0}9\u{2003}"];
        const SIZES: [&str; 4] = ["1000", "+60", "2304", "\t7\t"];
        let mut src = String::new();
        for (tokens, pre, post, end, shape) in lines {
            let sep = format!("{},", PADS[*post]);
            src.push_str(PADS[*pre]);
            if *shape >= 2 {
                let pick = |i: usize| tokens.get(i).copied().unwrap_or(0);
                let fields = [
                    TIMES[pick(0) % TIMES.len()],
                    ["s", "r"][pick(1) % 2],
                    SIZES[pick(2) % SIZES.len()],
                ];
                src.push_str(&fields.join(&sep));
            } else {
                let fields: Vec<&str> = tokens.iter().map(|&t| TOKENS[t]).collect();
                src.push_str(&fields.join(&sep));
                if *shape == 1 {
                    src.push(',');
                }
            }
            src.push_str(PADS[*post]);
            src.push_str(ENDS[*end]);
        }
        src
    }

    proptest! {
        /// On adversarial text the parser returns exactly what the
        /// reference returns: the same records, or the same line and
        /// message.
        #[test]
        fn parser_agrees_with_the_reference_on_adversarial_lines(
            lines in proptest::collection::vec(
                (
                    proptest::collection::vec(0..TOKENS.len(), 0..5),
                    0..PADS.len(),
                    0..PADS.len(),
                    0..ENDS.len(),
                    0u8..6,
                ),
                1..8,
            ),
        ) {
            let src = render(&lines);
            prop_assert_eq!(PacketTrace::parse_text(&src), reference_parse_text(&src), "{:?}", src);
        }
    }

    #[test]
    fn checked_in_trace_parses_as_the_reference_does_and_round_trips() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/traces/office_mixed_udp.txt"
        );
        let src = std::fs::read_to_string(path).expect("checked-in trace");
        let t = PacketTrace::parse_text(&src).expect("checked-in trace parses");
        assert_eq!(Ok(&t), reference_parse_text(&src).as_ref());
        assert_eq!(PacketTrace::parse_text(&t.to_text()), Ok(t));
    }

    #[test]
    fn parser_agrees_with_the_reference_on_hand_picked_lines() {
        for src in [
            "0,s,1000\r\n5,r,60\r\n",
            "\t0\t,\ts\t,\t1000\t\n",
            "\u{b}0,s,1000\u{c}\n",
            "\u{a0}0,\u{2003}s,1000\u{a0}\n",
            "+5,s,+1000\n",
            "18446744073709551615,s,1\n",
            "18446744073709551616,s,1\n",
            "0,s,4294967296\n",
            "0,s\n",
            "0,s,1000,\n",
            "0,s,1000,7\n",
            ",s,1000\n",
            "0,,1000\n",
            "0,s,\n",
            "   # indented comment\n\t\n\n0,s,1000",
            "0,s,1000\n\n   \n10,r,20\n",
            "10,s,1\n9,s,1\n",
            "0,s,0\n",
            "0,s,2305\n",
            "",
        ] {
            assert_eq!(
                PacketTrace::parse_text(src),
                reference_parse_text(src),
                "{src:?}"
            );
        }
    }

    fn sample() -> PacketTrace {
        PacketTrace::new(vec![
            PacketRecord {
                time_us: 0,
                direction: Direction::Send,
                size: 1000,
            },
            PacketRecord {
                time_us: 220,
                direction: Direction::Recv,
                size: 60,
            },
            PacketRecord {
                time_us: 220,
                direction: Direction::Send,
                size: 1000,
            },
        ])
        .expect("valid sample")
    }

    #[test]
    fn text_round_trip_preserves_records() {
        let t = sample();
        assert_eq!(PacketTrace::parse_text(&t.to_text()).unwrap(), t);
    }

    #[test]
    fn binary_round_trip_preserves_records() {
        let t = sample();
        assert_eq!(PacketTrace::parse_binary(&t.to_binary()).unwrap(), t);
    }

    #[test]
    fn parse_auto_detects_encoding() {
        let t = sample();
        assert_eq!(PacketTrace::parse(&t.to_binary()).unwrap(), t);
        assert_eq!(PacketTrace::parse(t.to_text().as_bytes()).unwrap(), t);
    }

    #[test]
    fn text_parser_rejects_with_line_numbers() {
        let backwards = PacketTrace::parse_text("0,s,1000\n900,s,1000\n500,s,1000\n");
        assert_eq!(
            backwards.unwrap_err().to_string(),
            "packet trace line 3: timestamp 500 us runs backwards (line 2 was 900 us); \
             trace timestamps must be non-decreasing"
        );

        let bad_dir = PacketTrace::parse_text("0,x,1000\n");
        assert_eq!(
            bad_dir.unwrap_err().to_string(),
            "packet trace line 1: unknown direction `x` (expected `s` for sent or `r` \
             for received)"
        );

        let zero = PacketTrace::parse_text("# header\n\n0,s,0\n");
        assert_eq!(
            zero.unwrap_err().to_string(),
            "packet trace line 3: packet size must be positive, got 0"
        );

        let fields = PacketTrace::parse_text("0,s\n");
        assert!(fields
            .unwrap_err()
            .to_string()
            .contains("expected `time_us,direction,size` (3 comma-separated fields), got 2"));

        let not_num = PacketTrace::parse_text("soon,s,1000\n");
        assert!(not_num
            .unwrap_err()
            .to_string()
            .contains("invalid time_us `soon`"));
    }

    #[test]
    fn binary_parser_rejects_truncation_and_trailing_bytes() {
        let bin = sample().to_binary();
        let cut = &bin[..bin.len() - 5];
        assert!(PacketTrace::parse_binary(cut)
            .unwrap_err()
            .to_string()
            .contains("truncated: header declares 3 records"));

        assert!(PacketTrace::parse_binary(&bin[..6])
            .unwrap_err()
            .to_string()
            .contains("truncated header"));

        let mut long = bin.clone();
        long.push(0);
        assert!(PacketTrace::parse_binary(&long)
            .unwrap_err()
            .to_string()
            .contains("1 trailing bytes"));

        let mut wrong = bin;
        wrong[0] = b'X';
        assert!(PacketTrace::parse_binary(&wrong)
            .unwrap_err()
            .to_string()
            .contains("bad magic"));
    }

    #[test]
    fn comments_blanks_and_whitespace_are_tolerated() {
        let t = PacketTrace::parse_text("# cap\n\n  10 , s , 500\n").unwrap();
        assert_eq!(
            t.records,
            vec![PacketRecord {
                time_us: 10,
                direction: Direction::Send,
                size: 500
            }]
        );
    }

    #[test]
    fn window_rebases_and_filters() {
        let t = sample();
        let w = t.window(SimTime::from_micros(100), SimTime::from_micros(300));
        assert_eq!(w.len(), 2);
        assert!(w.records.iter().all(|r| r.time_us == 120));
        let empty = t.window(SimTime::from_micros(500), SimTime::from_micros(900));
        assert!(empty.is_empty());
    }

    #[test]
    fn replayability_requires_a_send_record() {
        assert!(PacketTrace::default().validate_replayable().is_err());
        let recv_only = PacketTrace::new(vec![PacketRecord {
            time_us: 0,
            direction: Direction::Recv,
            size: 100,
        }])
        .unwrap();
        let msg = recv_only.validate_replayable().unwrap_err();
        assert!(msg.contains("none in the `s` (send) direction"), "{msg}");
        assert!(sample().validate_replayable().is_ok());
    }

    #[test]
    fn constructor_enforces_invariants() {
        let backwards = PacketTrace::new(vec![
            PacketRecord {
                time_us: 10,
                direction: Direction::Send,
                size: 1,
            },
            PacketRecord {
                time_us: 5,
                direction: Direction::Send,
                size: 1,
            },
        ]);
        assert!(backwards
            .unwrap_err()
            .to_string()
            .contains("runs backwards"));
    }

    #[test]
    fn every_constructor_rejects_sizes_above_the_msdu_limit() {
        let mut big = sample();
        big.records[2].size = MAX_MSDU_BYTES + 1;
        let want = "packet size 2305 bytes exceeds the 802.11 MSDU limit of 2304 bytes";
        let text = PacketTrace::parse_text(&big.to_text()).unwrap_err();
        assert_eq!(text.to_string(), format!("packet trace line 4: {want}"));
        let binary = PacketTrace::parse_binary(&big.to_binary()).unwrap_err();
        assert_eq!(binary, TraceError::Binary(format!("record 2: {want}")));
        let new = PacketTrace::new(big.records.clone()).unwrap_err();
        assert!(new.to_string().contains(want), "{new}");
        big.records[2].size = MAX_MSDU_BYTES;
        assert!(PacketTrace::new(big.records).is_ok());
    }

    #[test]
    fn duration_is_last_record_time() {
        assert_eq!(sample().duration(), SimDuration::from_micros(220));
        assert_eq!(PacketTrace::default().duration(), SimDuration::ZERO);
    }
}
