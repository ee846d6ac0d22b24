//! FNV-1a pinning of generated inputs.
//!
//! Every workload folds the inputs it generated for the seed — rule
//! and subscription text, packet bytes, the burst schedule — into one
//! 64-bit digest. The default-seed digests are checked in
//! (`benchmark/digests.json`) and a run fails on mismatch, so a later
//! edit to `camus-workloads` or a spec cannot silently become a
//! different workload.

/// Seed every generator uses unless `--seed` says otherwise.
pub const DEFAULT_SEED: u64 = 0xCA3005;

#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A length-prefixed string, so `"ab","c"` and `"a","bc"` differ.
    pub fn text(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The digest as it is printed and stored: 16 hex digits.
pub fn hex(d: u64) -> String {
    format!("{d:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        let mut h = Fnv1a::default();
        assert_eq!(h.finish(), 0xcbf29ce484222325);
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
        let mut h = Fnv1a::default();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn text_is_length_prefixed() {
        let mut a = Fnv1a::default();
        a.text("ab");
        a.text("c");
        let mut b = Fnv1a::default();
        b.text("a");
        b.text("bc");
        assert_ne!(a.finish(), b.finish());
        assert_eq!(hex(0xab), "00000000000000ab");
    }
}
