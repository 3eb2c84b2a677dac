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

use rand::RngCore;

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
    spare_normal: Option<f64>,
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
            spare_normal: None,
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
    #[inline]
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        loop {
            // u1 in (0,1], avoiding ln(0).
            let u1 = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            if u1 > 0.0 {
                let u2 = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                let r = (-2.0 * u1.ln()).sqrt();
                let (sin, cos) = (std::f64::consts::TAU * u2).sin_cos();
                self.spare_normal = Some(r * sin);
                return r * cos;
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
