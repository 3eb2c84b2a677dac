//! Seeded, splittable random-number streams.
//!
//! Every stochastic component in the reproduction (fading channel, sensor
//! noise, vehicle mobility, workload jitter) draws from its own
//! [`RngStream`], derived from a root seed plus a textual label. Deriving
//! streams by label — rather than sharing one generator — means that adding
//! a new component, or reordering calls inside one component, never changes
//! the random draws seen by any other component. That property is what makes
//! "same seed ⇒ same trace ⇒ same figure" hold as the codebase evolves.
//!
//! The generator is xoshiro256++, seeded through SplitMix64, implemented
//! here directly so the byte-for-byte output is pinned by this crate rather
//! than by an external crate's version.
//!
//! Standard normals come from two samplers with the same distribution but
//! different draw sequences. [`RngStream::normal_ziggurat`] (Marsaglia &
//! Tsang's ziggurat) serves the accelerometer, which draws up to ten
//! normals per 2 ms report and dominates hint synthesis.
//! [`RngStream::normal`] (Box–Muller) serves the channel, link noise,
//! microphone and mobility: moving them to the ziggurat changes their
//! seeded realizations and re-anchors seed-sensitive shape tests, so that
//! switch is its own change. A caller that must keep its stream in step
//! but has no use for a Box–Muller draw calls [`RngStream::skip_normal`],
//! which advances the stream exactly as `normal` would without the
//! transform.

use rand::RngCore;
use std::sync::OnceLock;

/// A deterministic random-number stream implementing [`rand::RngCore`].
///
/// Create a root stream with [`RngStream::new`], and derive independent
/// child streams with [`RngStream::derive`]:
///
/// ```
/// use hint_sim::RngStream;
/// use rand::Rng;
///
/// let mut root = RngStream::new(42);
/// let mut channel = root.derive("channel");
/// let mut sensors = root.derive("sensors");
/// let x: f64 = channel.gen_range(0.0..1.0);
/// let y: f64 = sensors.gen_range(0.0..1.0);
/// assert_ne!(x, y); // independent streams
/// // Re-deriving with the same label reproduces the same stream.
/// let mut channel2 = RngStream::new(42).derive("channel");
/// assert_eq!(channel2.gen_range(0.0..1.0), x);
/// ```
#[derive(Clone, Debug)]
pub struct RngStream {
    s: [u64; 4],
    seed: u64,
    /// The second variate of the last Box–Muller pair, returned by the
    /// next [`RngStream::normal`] call so every `ln`/`sqrt`/`sincos`
    /// evaluation yields two draws instead of one. Channel fading draws
    /// three normals per 5 ms step, which made the discarded half the
    /// single largest cost on the SNR hot path.
    spare_normal: Spare,
}

/// The banked half of a Box–Muller pair.
#[derive(Clone, Copy, Debug)]
enum Spare {
    /// Nothing banked: the next normal starts a new pair.
    Empty,
    /// The sine half, already transformed by [`RngStream::normal`].
    Value(f64),
    /// The pair's raw `(u1, u2)` from [`RngStream::skip_normal`], whose
    /// sine half is transformed only if a later `normal` asks for it.
    Raw(f64, f64),
}

/// SplitMix64 step — the recommended seeding procedure for xoshiro.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a label, used to mix textual stream names into seeds.
fn fnv1a(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl RngStream {
    /// Create a root stream from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        RngStream {
            s,
            seed,
            spare_normal: Spare::Empty,
        }
    }

    /// Derive an independent child stream named by `label`.
    ///
    /// Derivation depends only on this stream's *seed* and the label, never
    /// on how many values have already been drawn, so call order cannot
    /// create coupling between subsystems.
    pub fn derive(&self, label: &str) -> RngStream {
        RngStream::new(self.seed ^ fnv1a(label).rotate_left(17))
    }

    /// Derive an independent child stream from an integer index (e.g. one
    /// stream per trace, per vehicle, per client).
    pub fn derive_idx(&self, label: &str, idx: u64) -> RngStream {
        RngStream::new(
            self.seed ^ fnv1a(label).rotate_left(17) ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Draw a standard-normal variate (Box–Muller). Each transform yields
    /// an independent pair — the radius times the cosine *and* sine of a
    /// uniform angle — so the second variate is banked and returned by the
    /// next call, halving the `ln`/`sqrt`/`sincos` cost per draw.
    ///
    /// This costs about five times [`RngStream::normal_ziggurat`] per draw.
    /// It stays for the channel, link noise, microphone and mobility models
    /// because their seeded outputs, and the shape tests anchored on them,
    /// are pinned to this draw sequence. Link noise calls
    /// [`RngStream::skip_normal`] instead whenever the adapter under test
    /// ignores SNR feedback.
    #[inline]
    pub fn normal(&mut self) -> f64 {
        match std::mem::replace(&mut self.spare_normal, Spare::Empty) {
            Spare::Value(z) => z,
            Spare::Raw(u1, u2) => box_muller(u1, u2).1,
            Spare::Empty => {
                let (u1, u2) = self.box_muller_uniforms();
                let (cos, sin) = box_muller(u1, u2);
                self.spare_normal = Spare::Value(sin);
                cos
            }
        }
    }

    /// Advance the stream exactly as [`RngStream::normal`] would, without
    /// computing the variate: the same uniforms are drawn (the `u1 > 0`
    /// retry included) and the same half of the pair is banked, so every
    /// later draw sees the bits it would have seen. A banked half is kept
    /// raw, and a later `normal` that takes it returns the true value.
    #[inline]
    pub fn skip_normal(&mut self) {
        if let Spare::Empty = std::mem::replace(&mut self.spare_normal, Spare::Empty) {
            let (u1, u2) = self.box_muller_uniforms();
            self.spare_normal = Spare::Raw(u1, u2);
        }
    }

    /// The two uniforms behind one Box–Muller pair: `u1` in `(0, 1)`,
    /// redrawn while zero to avoid `ln(0)`, then `u2` in `[0, 1)`.
    #[inline]
    fn box_muller_uniforms(&mut self) -> (f64, f64) {
        loop {
            let u1 = self.uniform();
            if u1 > 0.0 {
                return (u1, self.uniform());
            }
        }
    }

    /// Draw a standard-normal variate by the 256-layer ziggurat
    /// (Marsaglia & Tsang, "The Ziggurat Method for Generating Random
    /// Variables", J. Stat. Software 5(8), 2000).
    ///
    /// The common case costs one `next_u64`: its low 8 bits pick a layer
    /// and its top 52 bits a signed uniform in `(-1, 1)`, so no bit is
    /// used twice. A point in a layer's wedge costs one more uniform and
    /// one `exp`; the base layer's tail beyond `r ≈ 3.654` is drawn by
    /// Marsaglia's exponential method. Same distribution as
    /// [`RngStream::normal`], different draws: the accelerometer uses this
    /// one because it draws the most normals of any model.
    #[inline]
    pub fn normal_ziggurat(&mut self) -> f64 {
        let t = zig_tables();
        loop {
            let bits = self.next_u64();
            let i = (bits & 0xff) as usize;
            // (k + 1/2) / 2^51 − 1 for a 52-bit k: symmetric, never ±1.
            let u = ((bits >> 12) as f64 + 0.5) / (1u64 << 51) as f64 - 1.0;
            let x = u * t.x[i];
            if x.abs() < t.x[i + 1] {
                return x;
            }
            if i == 0 {
                return self.normal_tail(u < 0.0);
            }
            let y = t.f[i] + (t.f[i + 1] - t.f[i]) * self.uniform();
            if y < (-0.5 * x * x).exp() {
                return x;
            }
        }
    }

    /// A draw from the normal tail beyond [`ZIG_R`] (Marsaglia's method),
    /// negated when `negative`.
    #[cold]
    fn normal_tail(&mut self, negative: bool) -> f64 {
        loop {
            let x = self.exponential(1.0 / ZIG_R);
            let y = self.exponential(1.0);
            if 2.0 * y >= x * x {
                let z = ZIG_R + x;
                return if negative { -z } else { z };
            }
        }
    }

    /// Draw a uniform f64 in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.uniform_bits() as f64 / (1u64 << 53) as f64
    }

    /// The 53 random bits behind one [`RngStream::uniform`] draw:
    /// `uniform()` is exactly `uniform_bits() as f64 / 2^53`, and either
    /// call advances the stream by one step.
    #[inline]
    pub fn uniform_bits(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Draw an exponentially distributed variate with the given mean.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }
}

/// The Box–Muller pair `(r cos θ, r sin θ)` of `r = sqrt(-2 ln u1)` and
/// `θ = 2π u2`.
#[inline]
fn box_muller(u1: f64, u2: f64) -> (f64, f64) {
    let r = (-2.0 * u1.ln()).sqrt();
    let (sin, cos) = (std::f64::consts::TAU * u2).sin_cos();
    (r * cos, r * sin)
}

/// Start of the ziggurat's tail: the right edge of layer 1.
const ZIG_R: f64 = 3.654_152_885_361_009;

/// Area of every ziggurat layer under the unnormalized density
/// `exp(-x²/2)`, the base layer's tail included.
const ZIG_V: f64 = 4.928_673_233_990e-3;

/// The ziggurat's layer edges: layer `i` spans `|x| < x[i]` and heights
/// `f[i]..f[i + 1]`, where `f[i] = exp(-x[i]²/2)`. `x[0]` is the base
/// layer's pseudo-width `V / f(R)`, which folds the tail into its area.
struct ZigTables {
    x: [f64; 257],
    f: [f64; 257],
}

/// The ziggurat tables, built once from [`ZIG_R`] and [`ZIG_V`] by the
/// standard recurrence `x[i+1] = sqrt(-2 ln(V / x[i] + f(x[i])))`.
fn zig_tables() -> &'static ZigTables {
    static TABLES: OnceLock<ZigTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let f = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; 257];
        x[0] = ZIG_V / f(ZIG_R);
        x[1] = ZIG_R;
        for i in 1..255 {
            x[i + 1] = (-2.0 * (ZIG_V / x[i] + f(x[i])).ln()).sqrt();
        }
        // The top layer closes at x = 0, where f = 1.
        x[256] = 0.0;
        ZigTables { x, f: x.map(f) }
    })
}

impl RngCore for RngStream {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        // xoshiro256++
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = RngStream::new(7);
        let mut b = RngStream::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RngStream::new(1);
        let mut b = RngStream::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn derivation_is_order_independent() {
        let root = RngStream::new(99);
        let mut a1 = root.derive("alpha");
        let _beta = root.derive("beta");
        let mut a2 = RngStream::new(99).derive("alpha");
        for _ in 0..10 {
            assert_eq!(a1.next_u64(), a2.next_u64());
        }
    }

    #[test]
    fn derived_streams_are_decoupled_from_draw_position() {
        let mut root = RngStream::new(5);
        // Drawing from the root must not change what children produce.
        let c_before = root.derive("child");
        let _ = root.next_u64();
        let _ = root.next_u64();
        let c_after = root.derive("child");
        let mut x = c_before.clone();
        let mut y = c_after.clone();
        assert_eq!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn indexed_derivation_distinct() {
        let root = RngStream::new(3);
        let mut a = root.derive_idx("trace", 0);
        let mut b = root.derive_idx("trace", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = RngStream::new(11);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_is_its_bits_over_two_to_the_53() {
        let (mut a, mut b) = (RngStream::new(9), RngStream::new(9));
        for _ in 0..1_000 {
            let bits = b.uniform_bits();
            assert!(bits < 1 << 53);
            assert_eq!(a.uniform(), bits as f64 / (1u64 << 53) as f64);
        }
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = RngStream::new(13);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    /// `n` ziggurat draws from a fixed seed.
    fn ziggurat_draws(n: usize) -> Vec<f64> {
        let mut r = RngStream::new(31);
        (0..n).map(|_| r.normal_ziggurat()).collect()
    }

    #[test]
    fn ziggurat_moments_match_the_standard_normal() {
        let n = 1_000_000;
        let xs = ziggurat_draws(n);
        let moment = |k: i32| xs.iter().map(|x| x.powi(k)).sum::<f64>() / n as f64;
        // Standard errors at 10⁶ draws: 0.001, 0.0014, 0.0024 and 0.0049.
        assert!(moment(1).abs() < 0.005, "mean {}", moment(1));
        assert!((moment(2) - 1.0).abs() < 0.007, "variance {}", moment(2));
        assert!(moment(3).abs() < 0.012, "third moment {}", moment(3));
        assert!(
            (moment(4) - 3.0).abs() < 0.025,
            "fourth moment {}",
            moment(4)
        );
    }

    #[test]
    fn ziggurat_tail_mass_matches_the_standard_normal() {
        let xs = ziggurat_draws(1_000_000);
        let beyond = |k: f64| xs.iter().filter(|x| x.abs() > k).count();
        // Expected 2 700 ± 52 beyond 3σ and 63.3 ± 8 beyond 4σ; bounds at
        // four standard errors.
        let (b3, b4) = (beyond(3.0), beyond(4.0));
        assert!((2_492..=2_908).contains(&b3), "{b3} draws beyond 3σ");
        assert!((31..=96).contains(&b4), "{b4} draws beyond 4σ");
        // The tail path runs, on both sides (expected 129 each).
        let past_r = |sign: f64| xs.iter().filter(|&&x| x * sign > ZIG_R).count();
        assert!(past_r(1.0) > 80 && past_r(-1.0) > 80);
    }

    #[test]
    fn ziggurat_matches_box_muller_by_two_sample_ks() {
        let n = 1_000_000;
        let mut a = ziggurat_draws(n);
        let mut r = RngStream::new(37);
        let mut b: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        // D = sup |F_a − F_b|, read at every point where either steps.
        let (mut i, mut j, mut d) = (0, 0, 0usize);
        while i < n && j < n {
            if a[i] <= b[j] {
                i += 1;
            } else {
                j += 1;
            }
            d = d.max(i.abs_diff(j));
        }
        let d = d as f64 / n as f64;
        // The α = 0.05 critical value for two samples of 10⁶ is
        // 1.358 · sqrt(2 / 10⁶) ≈ 0.00192.
        assert!(d < 0.00192, "KS D {d}");
    }

    #[test]
    fn ziggurat_same_seed_same_sequence() {
        let (mut a, mut b) = (RngStream::new(41), RngStream::new(41));
        for _ in 0..10_000 {
            assert_eq!(a.normal_ziggurat().to_bits(), b.normal_ziggurat().to_bits());
        }
    }

    #[test]
    fn ziggurat_tables_hold_their_invariants() {
        let t = zig_tables();
        assert_eq!(t.x[1], ZIG_R);
        assert_eq!(t.x[256], 0.0);
        assert!(t.x.windows(2).all(|w| w[0] > w[1]), "x not decreasing");
        for (x, f) in t.x.iter().zip(&t.f) {
            assert_eq!(*f, (-0.5 * x * x).exp());
        }
        // The base layer is x[0] · f(R) by construction; layer i ≥ 1 is the
        // rectangle x[i] · (f[i+1] − f[i]).
        let area = |i: usize| {
            if i == 0 {
                t.x[0] * t.f[1]
            } else {
                t.x[i] * (t.f[i + 1] - t.f[i])
            }
        };
        for i in 0..255 {
            let err = (area(i) / ZIG_V - 1.0).abs();
            assert!(err < 1e-12, "layer {i} area off by {err:e}");
        }
        // The top layer is closed by x[256] = 0 rather than by the
        // recurrence, so it carries the constants' rounding, amplified.
        let err = (area(255) / ZIG_V - 1.0).abs();
        assert!(err < 1e-8, "top layer area off by {err:e}");
    }

    #[test]
    fn chance_respects_probability() {
        let mut r = RngStream::new(17);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.chance(0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut r = RngStream::new(19);
        let n = 50_000;
        let m = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((m - 2.0).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn gen_range_via_rand_trait_works() {
        let mut r = RngStream::new(23);
        for _ in 0..1000 {
            let v: u32 = r.gen_range(0..8);
            assert!(v < 8);
        }
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = RngStream::new(29);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
