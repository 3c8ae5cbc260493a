//! Deterministic random-number generation for the simulation.
//!
//! We implement PCG-XSH-RR 64/32 seeded through SplitMix64 rather than
//! depending on an external RNG crate: the entire study pipeline must be
//! bit-for-bit reproducible from a single seed, forever, regardless of
//! dependency versions or platform. The generator is *splittable*
//! ([`SimRng::fork`]) so that independent subsystems (per-link loss,
//! per-participant noise, website generation, …) each get their own
//! stream and adding draws to one subsystem never perturbs another.

/// SplitMix64-based step used for seeding and stream derivation. It
/// stores the *output* back as the state (standard SplitMix64 adds γ
/// to the state instead); every digest depends on that, so it stays.
fn splitmix64_next(state: &mut u64) -> u64 {
    *state = pq_fault::rng::splitmix64(*state);
    *state
}

/// A deterministic, splittable PCG-XSH-RR 64/32 generator.
#[derive(Clone, Debug)]
pub struct SimRng {
    state: u64,
    /// Stream selector (must be odd); distinct streams are independent.
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

impl SimRng {
    /// Create a generator from a seed. Two different seeds produce
    /// unrelated sequences.
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        let state0 = splitmix64_next(&mut s);
        let inc = splitmix64_next(&mut s) | 1;
        let mut rng = SimRng { state: 0, inc };
        // Standard PCG initialization dance.
        rng.step();
        rng.state = rng.state.wrapping_add(state0);
        rng.step();
        rng
    }

    /// Derive an independent child generator labelled by `label`.
    ///
    /// Forking is stable: the same parent seed and label always yield
    /// the same child stream, and draws from the parent after the fork
    /// do not affect the child (and vice versa).
    #[expect(clippy::disallowed_methods, reason = "the derivation itself")]
    pub fn fork(&self, label: &str) -> SimRng {
        let h = pq_fault::fnv1a(label.bytes());
        // Mix the parent's identity (not its position) into the child
        // seed so that sibling forks with equal labels from different
        // parents differ.
        SimRng::new(h ^ self.inc.rotate_left(17))
    }

    /// Derive an independent child generator labelled by an index.
    pub fn fork_idx(&self, label: &str, idx: u64) -> SimRng {
        let mut child = self.fork(label);
        // Fold the index in through SplitMix to decorrelate streams.
        let mut s = child.inc ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let state0 = splitmix64_next(&mut s);
        child.state = child.state.wrapping_add(state0);
        child.step();
        child
    }

    #[inline]
    fn step(&mut self) {
        self.state = self.state.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
    }

    /// Next 32 uniformly random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.step();
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Uniform integer in `[0, n)` using Lemire rejection; `n = 0`
    /// returns 0.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        // Rejection sampling to remove modulo bias.
        let threshold = n.wrapping_neg() % n;
        loop {
            let r = self.next_u64();
            if r >= threshold {
                return r % n;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.below(hi - lo + 1)
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Standard normal deviate (Box–Muller, polar form).
    #[inline]
    pub fn normal(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.f64() - 1.0;
            let v = 2.0 * self.f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Normal deviate with the given mean and standard deviation.
    #[inline]
    pub fn normal_with(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.normal()
    }

    /// Log-normal deviate parameterized by the underlying normal's
    /// `mu`/`sigma` (natural log scale).
    #[inline]
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Exponential deviate with the given mean.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.f64(); // avoid ln(0)
        -mean * u.ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        let n = xs.len();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Pick a uniformly random element.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            xs.get(self.below(xs.len() as u64) as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_stable_and_independent() {
        let parent = SimRng::new(7);
        let mut c1 = parent.fork("loss");
        let mut c2 = parent.fork("loss");
        assert_eq!(c1.next_u64(), c2.next_u64(), "same label, same stream");

        let mut c3 = parent.fork("noise");
        assert_ne!(c1.next_u64(), c3.next_u64(), "labels separate streams");

        // Drawing from the parent must not change child streams.
        let mut parent2 = SimRng::new(7);
        let _ = parent2.next_u64();
        let mut c4 = parent2.fork("loss");
        let mut c5 = SimRng::new(7).fork("loss");
        assert_eq!(c4.next_u64(), c5.next_u64());
    }

    #[test]
    fn fork_idx_separates_streams() {
        let parent = SimRng::new(3);
        let mut a = parent.fork_idx("site", 0);
        let mut b = parent.fork_idx("site", 1);
        assert_ne!(a.next_u64(), b.next_u64());
        let mut a2 = parent.fork_idx("site", 0);
        assert_eq!(SimRng::new(3).fork_idx("site", 0).next_u64(), {
            a2.next_u64()
        });
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(11);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = SimRng::new(13);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_unbiased_ish() {
        let mut rng = SimRng::new(17);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[rng.below(5) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(19);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
        let hits = (0..100_000).filter(|_| rng.chance(0.033)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.033).abs() < 0.005, "rate {rate}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(23);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn lognormal_is_positive() {
        let mut rng = SimRng::new(29);
        for _ in 0..1000 {
            assert!(rng.lognormal(0.0, 1.5) > 0.0);
        }
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::new(31);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(37);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>(), "shuffle changed order");
    }

    #[test]
    fn range_helpers() {
        let mut rng = SimRng::new(41);
        for _ in 0..1000 {
            let x = rng.range_u64(5, 9);
            assert!((5..=9).contains(&x));
            let y = rng.range_f64(-2.0, 2.0);
            assert!((-2.0..2.0).contains(&y));
        }
        assert_eq!(rng.range_u64(7, 7), 7);
        assert_eq!(rng.range_u64(9, 5), 9, "inverted range returns lo");
    }

    #[test]
    fn choose_behaviour() {
        let mut rng = SimRng::new(43);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        let xs = [1, 2, 3];
        for _ in 0..100 {
            assert!(xs.contains(rng.choose(&xs).unwrap()));
        }
    }
}
