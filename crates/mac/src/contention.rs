//! CSMA/CA shared-medium airtime arbitration.
//!
//! A single `LinkSimulator` models one sender with the channel to itself
//! (the paper's back-to-back mode, Sec. 3.3). When several clients share
//! one AP, the medium is a contended resource: every frame pays DIFS plus
//! a random backoff, simultaneous backoff expiries collide, and colliders
//! retry with a doubled contention window until the retry budget runs
//! out. This module simulates that DCF machinery over one **scheduling
//! epoch** and reports exactly where every microsecond of the epoch went:
//! granted frame airtime per station, time lost to collisions, and idle
//! time (DIFS, backoff slots, and genuinely empty air).
//!
//! The arbiter is deliberately frame-fate-agnostic: it decides *who holds
//! the medium when*, not whether the channel delivers the frame — channel
//! fates stay with the per-link traces. The fleet engine converts the
//! per-station grants into airtime shares that throttle each client's
//! link simulation, which is what turns per-link arithmetic into shared-
//! medium behaviour (aggregate throughput saturates as clients are
//! added instead of growing additively).
//!
//! Everything is integer microseconds, so the conservation identity
//!
//! ```text
//! granted airtime + collision airtime + idle == epoch length
//! ```
//!
//! holds **exactly** — it is property-tested, not approximate.

use crate::retry::RetryPolicy;
use crate::timing::MacTiming;
use hint_sim::{RngStream, SimDuration};

/// DCF parameters of the shared medium.
///
/// Built only through [`ContentionParams::new`] (or the 802.11a
/// constants), so every value an arbiter sees can make progress: a
/// positive slot and DIFS, `cw_min <= cw_max`, and at least one attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContentionParams {
    slot: SimDuration,
    difs: SimDuration,
    cw_min: u32,
    cw_max: u32,
    max_attempts: u32,
}

/// Why [`ContentionParams::new`] refused a parameter set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContentionParamsError {
    /// The backoff slot is zero: a backoff could never elapse.
    ZeroSlot,
    /// DIFS is zero: an access could take no time at all.
    ZeroDifs,
    /// `cw_min` exceeds `cw_max`.
    InvertedWindow {
        /// The minimum contention window given.
        cw_min: u32,
        /// The maximum contention window given.
        cw_max: u32,
    },
    /// No transmission attempt is allowed.
    ZeroAttempts,
}

/// The messages a caller of [`ContentionParams::new`] sees. No spec
/// reaches them: a fleet's shared medium always arbitrates with
/// [`ContentionParams::ieee80211a`].
impl std::fmt::Display for ContentionParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContentionParamsError::ZeroSlot => f.write_str(
                "medium slot time must be positive (backoff could never elapse); \
                 802.11a uses 9 us",
            ),
            ContentionParamsError::ZeroDifs => f.write_str(
                "medium DIFS must be positive (channel access could never be sensed); \
                 802.11a uses 34 us",
            ),
            ContentionParamsError::InvertedWindow { cw_min, cw_max } => write!(
                f,
                "medium backoff window min {cw_min} exceeds max {cw_max}; \
                 cw_min must be <= cw_max"
            ),
            ContentionParamsError::ZeroAttempts => {
                f.write_str("medium retry limit must be positive (a frame needs one attempt)")
            }
        }
    }
}

impl std::error::Error for ContentionParamsError {}

impl ContentionParams {
    /// DCF parameters: the backoff `slot`, the `difs` paid before every
    /// countdown, the contention window range `[cw_min, cw_max]` in slots
    /// (a first attempt draws from `[0, cw_min]`, doubling caps at
    /// `cw_max`), and the `max_attempts` a frame gets before it is
    /// dropped and the window resets (802.11's retry limit).
    pub fn new(
        slot: SimDuration,
        difs: SimDuration,
        cw_min: u32,
        cw_max: u32,
        max_attempts: u32,
    ) -> Result<ContentionParams, ContentionParamsError> {
        if slot.is_zero() {
            return Err(ContentionParamsError::ZeroSlot);
        }
        if difs.is_zero() {
            return Err(ContentionParamsError::ZeroDifs);
        }
        if cw_min > cw_max {
            return Err(ContentionParamsError::InvertedWindow { cw_min, cw_max });
        }
        if max_attempts == 0 {
            return Err(ContentionParamsError::ZeroAttempts);
        }
        Ok(ContentionParams {
            slot,
            difs,
            cw_min,
            cw_max,
            max_attempts,
        })
    }

    /// Standard 802.11a DCF parameters, consistent with
    /// [`MacTiming::ieee80211a`] and the default [`RetryPolicy`].
    pub fn ieee80211a() -> Self {
        let t = MacTiming::ieee80211a();
        ContentionParams {
            slot: t.slot,
            difs: t.difs,
            cw_min: t.cw_min,
            cw_max: 1023,
            max_attempts: RetryPolicy::default().max_attempts,
        }
    }
}

impl Default for ContentionParams {
    fn default() -> Self {
        Self::ieee80211a()
    }
}

/// One station contending for the medium during an epoch.
///
/// A station is **saturated** while active: it always has a frame ready
/// (the fleet workloads are saturated UDP/TCP senders). The active window
/// is the slice of the epoch during which the station is associated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Station {
    /// Airtime of one complete frame exchange at this station's
    /// operating rate (from [`MacTiming::exchange_airtime`]).
    pub frame_airtime: SimDuration,
    /// Offset within the epoch at which the station starts contending.
    pub active_from: SimDuration,
    /// Offset within the epoch at which the station stops contending.
    pub active_to: SimDuration,
}

impl Station {
    /// A station contending for the whole epoch.
    pub fn saturated(frame_airtime: SimDuration) -> Station {
        Station {
            frame_airtime,
            active_from: SimDuration::ZERO,
            active_to: SimDuration::from_secs(u64::MAX / 2_000_000),
        }
    }

    /// How long this station contends within an epoch of length `epoch`
    /// (zero when the window is empty or starts past the epoch).
    pub fn active_within(&self, epoch: SimDuration) -> SimDuration {
        let to = self.active_to.min(epoch).as_micros();
        SimDuration::from_micros(to.saturating_sub(self.active_from.as_micros()))
    }
}

/// One successful medium acquisition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    /// Index of the station that won the medium.
    pub station: usize,
    /// Offset within the epoch at which the frame starts.
    pub at: SimDuration,
    /// Airtime the frame occupies.
    pub airtime: SimDuration,
}

/// The complete outcome of arbitrating one epoch: the grant schedule plus
/// exact airtime accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GrantSchedule {
    /// The arbitrated epoch length.
    pub epoch: SimDuration,
    /// Every successful acquisition, in chronological order.
    pub grants: Vec<Grant>,
    /// Total granted frame airtime per station (sums `grants`).
    pub granted: Vec<SimDuration>,
    /// Airtime destroyed by collisions (the longest colliding frame per
    /// collision event).
    pub collision_airtime: SimDuration,
    /// Time the medium carried no frame: DIFS, backoff slots, and spells
    /// with no active station.
    pub idle: SimDuration,
    /// Number of collision events.
    pub collisions: u32,
    /// Frames abandoned after the retry limit (`max_attempts` in
    /// [`ContentionParams::new`]).
    pub dropped_frames: u32,
    /// Medium accesses: backoff rounds among a non-empty active set.
    pub accesses: u64,
    /// Backoff draws: one uniform per active station per access.
    pub draws: u64,
}

impl GrantSchedule {
    /// Total granted frame airtime across stations.
    pub fn busy(&self) -> SimDuration {
        self.granted
            .iter()
            .fold(SimDuration::ZERO, |acc, &g| acc + g)
    }

    /// `busy + collision + idle` — equals [`GrantSchedule::epoch`]
    /// exactly (the conservation identity the property suite pins).
    pub fn accounted(&self) -> SimDuration {
        self.busy() + self.collision_airtime + self.idle
    }

    /// Station `i`'s airtime share: granted airtime over the time it was
    /// actually contending. Total over every input: an inactive station
    /// (empty window) has share 0; grants finishing just past the window
    /// edge clamp to 1.
    pub fn share(&self, i: usize, stations: &[Station]) -> f64 {
        let active = stations[i].active_within(self.epoch).as_micros();
        if active == 0 {
            return 0.0;
        }
        (self.granted[i].as_micros() as f64 / active as f64).min(1.0)
    }
}

/// The CSMA/CA airtime arbiter: slotted DCF over one epoch at a time.
///
/// ```
/// use hint_mac::contention::{AirtimeArbiter, ContentionParams, Station};
/// use hint_sim::SimDuration;
///
/// let arbiter = AirtimeArbiter::new(ContentionParams::ieee80211a());
/// let epoch = SimDuration::from_millis(100);
/// let stations = vec![
///     Station {
///         frame_airtime: SimDuration::from_micros(300),
///         active_from: SimDuration::ZERO,
///         active_to: epoch,
///     };
///     2
/// ];
/// let sched = arbiter.arbitrate(epoch, &stations, 42);
/// // Conservation: every microsecond is granted, collided, or idle.
/// assert_eq!(sched.accounted(), epoch);
/// // Two saturated equal stations split the medium roughly evenly,
/// // and arbitration is a pure function of (params, epoch, stations,
/// // seed): the same call replays grant for grant.
/// assert!(sched.share(0, &stations) > 0.0);
/// assert_eq!(sched, arbiter.arbitrate(epoch, &stations, 42));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct AirtimeArbiter {
    params: ContentionParams,
}

/// One station in the active set, with its DCF state. A station's
/// window is one interval, so it joins the set once and leaves it once:
/// its state can live here rather than in a per-station table.
#[derive(Clone, Copy, Debug)]
struct Contender {
    station: usize,
    airtime: SimDuration,
    /// End of the station's window, clipped to the epoch.
    until: SimDuration,
    cw: u32,
    /// `cw + 1` as f64: the scale of the backoff draw.
    draw_scale: f64,
    /// `53 - log2(cw + 1)` when `cw + 1` is a power of two, else
    /// [`INEXACT`]: see [`Contender::draw`].
    shift: u32,
    attempts: u32,
    /// This access's backoff, in slots.
    backoff: u64,
}

/// [`Contender::shift`] when `cw + 1` is not a power of two.
const INEXACT: u32 = u32::MAX;

impl Contender {
    /// A station joining the set with contention window `cw`.
    fn new(station: usize, airtime: SimDuration, until: SimDuration, cw: u32) -> Contender {
        let mut c = Contender {
            station,
            airtime,
            until,
            cw,
            draw_scale: 0.0,
            shift: 0,
            attempts: 0,
            backoff: 0,
        };
        c.set_cw(cw);
        c
    }

    fn set_cw(&mut self, cw: u32) {
        let span = u64::from(cw) + 1;
        self.cw = cw;
        self.draw_scale = span as f64;
        self.shift = if span.is_power_of_two() {
            53 - span.trailing_zeros()
        } else {
            INEXACT
        };
    }

    /// The backoff `floor(u * (cw + 1))`, capped at `cw`, for the uniform
    /// `u = bits / 2^53` ([`RngStream::uniform`]'s value for
    /// [`RngStream::uniform_bits`]). When `cw + 1 = 2^k` the product is
    /// exact (a power-of-two scale only moves the exponent), so its floor
    /// is `bits >> (53 - k)`, which never exceeds `cw`: the float path's
    /// value, bit for bit, without the int/float round trip.
    #[inline]
    fn draw(&self, bits: u64) -> u64 {
        if self.shift != INEXACT {
            return bits >> self.shift;
        }
        let u = bits as f64 / (1u64 << 53) as f64;
        ((u * self.draw_scale) as u64).min(u64::from(self.cw))
    }
}

/// Bring `active` up to date at `t`: drop the stations whose window has
/// closed and add, in station order, those whose window has opened (the
/// others keep their DCF state). Returns the next instant the set can
/// change.
fn refresh_active(
    active: &mut Vec<Contender>,
    stations: &[Station],
    epoch: SimDuration,
    t: SimDuration,
    cw_min: u32,
) -> SimDuration {
    active.retain(|c| t < c.until);
    let mut next = epoch;
    for (i, s) in stations.iter().enumerate() {
        let until = s.active_to.min(epoch);
        if s.active_from > t {
            next = next.min(s.active_from);
        } else if t < until {
            next = next.min(until);
            if let Err(at) = active.binary_search_by_key(&i, |c| c.station) {
                active.insert(at, Contender::new(i, s.frame_airtime, until, cw_min));
            }
        }
    }
    next
}

impl AirtimeArbiter {
    /// An arbiter with the given DCF parameters.
    pub fn new(params: ContentionParams) -> AirtimeArbiter {
        AirtimeArbiter { params }
    }

    /// The arbiter's DCF parameters.
    pub fn params(&self) -> &ContentionParams {
        &self.params
    }

    /// Arbitrate one epoch among `stations`, deterministically from
    /// `seed`: same params + epoch + stations + seed ⇒ the identical
    /// [`GrantSchedule`], grant for grant.
    pub fn arbitrate(&self, epoch: SimDuration, stations: &[Station], seed: u64) -> GrantSchedule {
        self.run(epoch, stations, seed, true)
    }

    /// [`AirtimeArbiter::arbitrate`] without the grant log: the same
    /// draws in the same order and the same totals, with
    /// [`GrantSchedule::grants`] left empty.
    pub fn arbitrate_totals(
        &self,
        epoch: SimDuration,
        stations: &[Station],
        seed: u64,
    ) -> GrantSchedule {
        self.run(epoch, stations, seed, false)
    }

    fn run(
        &self,
        epoch: SimDuration,
        stations: &[Station],
        seed: u64,
        record: bool,
    ) -> GrantSchedule {
        let p = &self.params;
        let mut rng = RngStream::new(seed).derive("contention");
        let n = stations.len();
        let mut out = GrantSchedule {
            epoch,
            grants: Vec::new(),
            granted: vec![SimDuration::ZERO; n],
            collision_airtime: SimDuration::ZERO,
            idle: SimDuration::ZERO,
            collisions: 0,
            dropped_frames: 0,
            accesses: 0,
            draws: 0,
        };

        let mut t = SimDuration::ZERO;
        let mut active: Vec<Contender> = Vec::with_capacity(n);
        let mut winners: Vec<usize> = Vec::with_capacity(n);
        let mut next_edge = SimDuration::ZERO;
        while t < epoch {
            if t >= next_edge {
                next_edge = refresh_active(&mut active, stations, epoch, t, p.cw_min);
            }
            if active.is_empty() {
                // Jump to the next activation (or the epoch end), all idle.
                let next = stations
                    .iter()
                    .filter(|s| s.active_from > t && s.active_from < s.active_to)
                    .map(|s| s.active_from)
                    .min()
                    .unwrap_or(epoch)
                    .min(epoch);
                out.idle += next - t;
                t = next;
                continue;
            }

            // Every active station counts down a fresh backoff; the
            // smallest draw wins the medium. Draws happen in station
            // order, so the schedule is a pure function of the seed.
            out.accesses += 1;
            out.draws += active.len() as u64;
            let (mut min_backoff, mut argmin, mut ties) = (u64::MAX, 0, 0);
            for (k, c) in active.iter_mut().enumerate() {
                let b = c.draw(rng.uniform_bits());
                c.backoff = b;
                let lower = b < min_backoff;
                ties = if lower {
                    1
                } else {
                    ties + u32::from(b == min_backoff)
                };
                argmin = if lower { k } else { argmin };
                min_backoff = min_backoff.min(b);
            }
            let access = p.difs + p.slot * min_backoff;
            if t + access >= epoch {
                out.idle += epoch - t;
                break;
            }
            out.idle += access;
            t += access;

            // Stations whose active window closed during the DIFS+backoff
            // countdown leave without transmitting (and cannot collide).
            winners.clear();
            if ties == 1 {
                winners.push(argmin);
            } else {
                winners.extend((0..active.len()).filter(|&k| active[k].backoff == min_backoff));
            }
            winners.retain(|&k| t < active[k].until);
            match winners.as_slice() {
                // Every winner's window closed mid-countdown.
                [] => {}
                &[w] => {
                    let c = &mut active[w];
                    if t + c.airtime > epoch {
                        // The frame cannot finish inside the epoch: the
                        // station defers to the next one; the remainder
                        // idles.
                        out.idle += epoch - t;
                        break;
                    }
                    if record {
                        out.grants.push(Grant {
                            station: c.station,
                            at: t,
                            airtime: c.airtime,
                        });
                    }
                    out.granted[c.station] += c.airtime;
                    t += c.airtime;
                    c.set_cw(p.cw_min);
                    c.attempts = 0;
                }
                colliders => {
                    // Collision: the medium is destroyed for the longest
                    // colliding frame; every collider doubles its window
                    // and burns one retry.
                    let longest = colliders
                        .iter()
                        .map(|&k| active[k].airtime)
                        .fold(SimDuration::ZERO, SimDuration::max);
                    let cost = longest.min(epoch - t);
                    out.collision_airtime += cost;
                    out.collisions += 1;
                    t += cost;
                    for &k in colliders {
                        let c = &mut active[k];
                        c.attempts += 1;
                        if c.attempts >= p.max_attempts {
                            out.dropped_frames += 1;
                            c.attempts = 0;
                            c.set_cw(p.cw_min);
                        } else {
                            c.set_cw(c.cw.saturating_mul(2).saturating_add(1).min(p.cw_max));
                        }
                    }
                }
            }
        }
        debug_assert_eq!(out.accounted(), epoch, "airtime conservation");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::BitRate;

    fn frame(rate: BitRate) -> SimDuration {
        MacTiming::ieee80211a().exchange_airtime(rate, 1000)
    }

    #[test]
    fn empty_epoch_is_all_idle() {
        let arb = AirtimeArbiter::new(ContentionParams::ieee80211a());
        let epoch = SimDuration::from_millis(100);
        let s = arb.arbitrate(epoch, &[], 7);
        assert_eq!(s.idle, epoch);
        assert_eq!(s.busy(), SimDuration::ZERO);
        assert_eq!(s.accounted(), epoch);
        assert!(s.grants.is_empty());
    }

    #[test]
    fn single_saturated_station_gets_most_of_the_epoch() {
        let arb = AirtimeArbiter::new(ContentionParams::ieee80211a());
        let epoch = SimDuration::from_secs(1);
        let st = [Station::saturated(frame(BitRate::R54))];
        let s = arb.arbitrate(epoch, &st, 1);
        assert_eq!(s.collisions, 0, "one station cannot collide");
        assert_eq!(s.accounted(), epoch);
        // Exchange 220 µs; overhead DIFS 34 µs + ~7.5 backoff slots:
        // ~68-72% of the epoch should be granted airtime.
        let share = s.share(0, &st);
        assert!(
            (0.6..0.8).contains(&share),
            "uncontended share {share} out of the DCF ballpark"
        );
    }

    #[test]
    fn symmetric_stations_split_the_medium_evenly() {
        let arb = AirtimeArbiter::new(ContentionParams::ieee80211a());
        let epoch = SimDuration::from_secs(1);
        let st = [
            Station::saturated(frame(BitRate::R54)),
            Station::saturated(frame(BitRate::R54)),
            Station::saturated(frame(BitRate::R54)),
        ];
        let s = arb.arbitrate(epoch, &st, 42);
        let max = s.granted.iter().max().unwrap().as_micros();
        let min = s.granted.iter().min().unwrap().as_micros();
        assert!(min > 0, "starvation: {:?}", s.granted);
        assert!(min * 2 >= max, "uneven split: {:?}", s.granted);
        // Aggregate stays sub-additive: three stations cannot beat the
        // medium capacity one saturated station already approaches.
        assert!(s.busy() < epoch);
    }

    #[test]
    fn contention_collides_and_retries() {
        let arb = AirtimeArbiter::new(ContentionParams::ieee80211a());
        let epoch = SimDuration::from_secs(1);
        let st: Vec<Station> = (0..8)
            .map(|_| Station::saturated(frame(BitRate::R54)))
            .collect();
        let s = arb.arbitrate(epoch, &st, 5);
        assert!(s.collisions > 0, "8 stations at CWmin 15 must collide");
        assert!(s.collision_airtime > SimDuration::ZERO);
        assert_eq!(s.accounted(), epoch);
    }

    #[test]
    fn active_windows_bound_grants() {
        let arb = AirtimeArbiter::new(ContentionParams::ieee80211a());
        let epoch = SimDuration::from_secs(1);
        let st = [
            Station {
                frame_airtime: frame(BitRate::R54),
                active_from: SimDuration::ZERO,
                active_to: SimDuration::from_millis(300),
            },
            Station {
                frame_airtime: frame(BitRate::R54),
                active_from: SimDuration::from_millis(700),
                active_to: SimDuration::from_secs(1),
            },
        ];
        let s = arb.arbitrate(epoch, &st, 9);
        for g in &s.grants {
            let w = st[g.station];
            assert!(g.at >= w.active_from, "grant before activation");
            assert!(g.at < w.active_to, "grant after deactivation");
        }
        // The 400 ms gap between the windows is idle air.
        assert!(s.idle >= SimDuration::from_millis(400));
        assert_eq!(s.accounted(), epoch);
    }

    #[test]
    fn share_is_total_over_degenerate_windows() {
        let arb = AirtimeArbiter::new(ContentionParams::ieee80211a());
        let epoch = SimDuration::from_secs(1);
        let st = [Station {
            frame_airtime: frame(BitRate::R6),
            active_from: SimDuration::from_millis(10),
            active_to: SimDuration::from_millis(10),
        }];
        let s = arb.arbitrate(epoch, &st, 3);
        assert_eq!(s.share(0, &st), 0.0, "empty window has zero share");
        assert!(s.share(0, &st).is_finite());
    }

    #[test]
    fn inverted_backoff_window_is_rejected() {
        let t = MacTiming::ieee80211a();
        let err = ContentionParams::new(t.slot, t.difs, 63, 15, 4).unwrap_err();
        assert_eq!(
            err,
            ContentionParamsError::InvertedWindow {
                cw_min: 63,
                cw_max: 15
            }
        );
        assert!(err.to_string().contains("cw_min"), "{err}");
    }

    #[test]
    fn zero_slot_is_rejected() {
        let t = MacTiming::ieee80211a();
        let err = ContentionParams::new(SimDuration::ZERO, t.difs, 15, 1023, 4).unwrap_err();
        assert_eq!(err, ContentionParamsError::ZeroSlot);
        assert!(err.to_string().contains("slot time"), "{err}");
    }

    #[test]
    fn zero_difs_and_zero_attempts_are_rejected() {
        let t = MacTiming::ieee80211a();
        assert_eq!(
            ContentionParams::new(t.slot, SimDuration::ZERO, 15, 1023, 4),
            Err(ContentionParamsError::ZeroDifs)
        );
        assert_eq!(
            ContentionParams::new(t.slot, t.difs, 15, 1023, 0),
            Err(ContentionParamsError::ZeroAttempts)
        );
        assert_eq!(
            ContentionParams::new(t.slot, t.difs, 15, 1023, 4),
            Ok(ContentionParams::ieee80211a())
        );
    }

    /// The shift path of a power-of-two window draws exactly what the
    /// float path draws, at every window size up to `u32::MAX`.
    #[test]
    fn exact_draw_matches_float_draw() {
        let mut rng = RngStream::new(3);
        let mut bits: Vec<u64> = (0..2_000).map(|_| rng.uniform_bits()).collect();
        bits.extend([0, 1, (1 << 52) - 1, 1 << 52, (1 << 53) - 1]);
        let cws = (0..=32).map(|k| ((1u64 << k) - 1) as u32);
        for cw in cws.chain([2, 10, 1000, u32::MAX - 1]) {
            let c = Contender::new(0, SimDuration::ZERO, SimDuration::ZERO, cw);
            assert_eq!(c.shift != INEXACT, (u64::from(cw) + 1).is_power_of_two());
            for &b in &bits {
                let u = b as f64 / (1u64 << 53) as f64;
                let float = ((u * (f64::from(cw) + 1.0)) as u64).min(u64::from(cw));
                assert_eq!(c.draw(b), float, "cw {cw} bits {b}");
            }
        }
    }

    /// DIFS is positive, so every access advances time: a station whose
    /// frames take no airtime still lets the epoch run out, and every
    /// microsecond is still accounted for.
    #[test]
    fn zero_airtime_station_terminates_and_conserves_airtime() {
        let arb = AirtimeArbiter::new(ContentionParams::ieee80211a());
        let epoch = SimDuration::from_millis(200);
        let st = [
            Station::saturated(SimDuration::ZERO),
            Station::saturated(frame(BitRate::R54)),
        ];
        let s = arb.arbitrate(epoch, &st, 11);
        assert_eq!(s.accounted(), epoch);
        assert_eq!(s.granted[0], SimDuration::ZERO);
        assert!(
            s.grants.iter().any(|g| g.station == 0),
            "station 0 wins too"
        );
        assert!(s.granted[1] > SimDuration::ZERO);
    }
}
