//! FNV-1a/64 — the journal's record checksum ([`crate::journal`] is
//! its only caller). It is **not** the `study_digest` hash in
//! `pq-bench`: that one shares the offset basis and the
//! xor-then-multiply shape but multiplies by a different constant (see
//! `DIGEST_MULTIPLIER` there), and every pinned digest depends on it
//! staying different.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hash `bytes` with FNV-1a/64.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = OFFSET;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Standard FNV-1a/64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn sensitive_to_every_byte() {
        assert_ne!(fnv1a(b"journal"), fnv1a(b"journak"));
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }
}
