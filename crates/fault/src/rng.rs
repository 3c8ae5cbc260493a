//! Standalone deterministic RNG for fault decisions.
//!
//! `pq-fault` sits *below* `pq-sim` in the dependency DAG, so it
//! cannot borrow `SimRng`. Instead it carries its own SplitMix64
//! stream plus an FNV-1a-based seed-derivation helper. Both are pure
//! and allocation-free, so every fault decision is reproducible from
//! `(seed, labels, indices)` alone — the backbone of the crate's
//! determinism contract. The SplitMix64 output function
//! ([`splitmix64`]) is the workspace's one copy: `pq-sim` seeds its
//! PCG streams through it too.

/// SplitMix64's golden-ratio increment γ.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output for state `x`: add γ, then mix. Callers keep
/// their own state update ([`FaultRng`] adds γ; `pq-sim`'s seeding
/// helper stores the output back as its state).
#[inline]
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 pseudo-random stream. Statistically solid for fault
/// decisions, trivially seedable, and — crucially — *separate* from
/// the simulation's own RNG streams so that enabling faults never
/// perturbs baseline draws.
#[derive(Debug, Clone)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Create a stream from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultRng { state: seed }
    }

    /// The stream keyed by `(base, label, idx)` through [`derive_seed`]
    /// — how every fault decision gets its stream; a raw [`FaultRng::new`]
    /// is what `clippy.toml` disallows.
    #[must_use]
    pub fn derived(base: u64, label: &str, idx: u64) -> Self {
        FaultRng {
            state: derive_seed(base, label, idx),
        }
    }

    /// Next raw 64-bit value (SplitMix64 step).
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(GAMMA);
        out
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw: `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            // Still consume a draw so call sites stay in lockstep
            // regardless of the configured probability.
            let _ = self.next_u64();
            return false;
        }
        if p >= 1.0 {
            let _ = self.next_u64();
            return true;
        }
        self.f64() < p
    }
}

/// FNV-1a/64 over a byte stream — the crate's one label/seed hash
/// (`pq-fault` depends on nothing that has one), and `pq-sim`'s for
/// its RNG fork labels.
#[must_use]
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Derive a child seed from `(base, label, idx)` — FNV-1a over the
/// byte stream followed by a SplitMix64 finalizer so structurally
/// close inputs (e.g. `idx` vs `idx+1`) land far apart.
#[must_use]
pub fn derive_seed(base: u64, label: &str, idx: u64) -> u64 {
    let h = fnv1a(
        base.to_le_bytes()
            .into_iter()
            .chain(label.bytes())
            .chain(idx.to_le_bytes()),
    );
    // SplitMix64 finalizer: spreads FNV's low-entropy high bits.
    splitmix64(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = FaultRng::new(42);
        let mut b = FaultRng::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix64_matches_the_reference_sequence() {
        // The published SplitMix64 stream from seed 0.
        let mut rng = FaultRng::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(rng.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = FaultRng::new(7);
        for _ in 0..1000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes_still_draw() {
        let mut a = FaultRng::new(5);
        assert!(!a.chance(0.0));
        assert!(a.chance(1.0));
        let mut b = FaultRng::new(5);
        b.next_u64();
        b.next_u64();
        // Both streams advanced twice → aligned.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn chance_roughly_matches_p() {
        let mut rng = FaultRng::new(11);
        let hits = (0..20_000).filter(|_| rng.chance(0.25)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn derive_seed_separates_neighbours() {
        let a = derive_seed(1, "link", 0);
        let b = derive_seed(1, "link", 1);
        let c = derive_seed(2, "link", 0);
        let d = derive_seed(1, "link2", 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a, derive_seed(1, "link", 0));
    }

    #[test]
    fn derive_seed_values_are_pinned() {
        // Every fault schedule (and the chaos digest) hangs off these.
        assert_eq!(derive_seed(1, "link", 0), 0xac54_78aa_5b20_a578);
        assert_eq!(derive_seed(0xDEAD_BEEF, "stall", 17), 0xcbca_3bca_fa63_9c60);
        assert_eq!(derive_seed(u64::MAX, "", u64::MAX), 0x435e_54e5_8958_dfaf);
        assert_eq!(fnv1a(*b"foobar"), 0x8594_4171_f739_67e8);
    }
}
