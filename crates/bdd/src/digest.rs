//! Stable content digests of filters and rules, and the hasher of maps
//! keyed by ids.
//!
//! FNV-1a over the derived `Hash` impls: identical across runs and
//! processes (unlike the std `DefaultHasher`, whose keys are randomised
//! per process), so caches that outlive one compile can key by them.
//! FNV-1a has no finaliser — its state after a prefix *is* the digest of
//! that prefix — so a digest can be continued. A [`Rule`] hashes its
//! filter and then its action, which makes
//! `rule_digest(r) == rule_digest_continued(expr_digest(&r.filter), &r.action)`
//! by construction: a caller that memoises each filter's digest pays
//! only for the action.
//!
//! [`WordHasher`] is for in-memory maps whose keys are ids the diagram
//! or the compiler assigns itself (nodes, terminals, labels, states).

use camus_lang::ast::{Action, Expr, Rule};
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

/// The FNV-1a hasher, 64-bit. Start from [`Fnv1a::OFFSET`] or from a
/// digest to continue.
pub struct Fnv1a(pub u64);

impl Fnv1a {
    /// The FNV-1a offset basis: the digest of nothing.
    pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
}

impl Hasher for Fnv1a {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// The hasher of maps keyed by ids: one multiply-rotate per word, then
/// a final mix that spreads the high bits into the low ones a table
/// indexes by. SipHash spent most of the bulk build's time in its memos
/// and most of an exact walk's on a band's lo-spine. It starts from a
/// seed drawn once per process from std's random keys, so the one set
/// of filter constants on it (an exact walk's exclusions) is randomly
/// keyed too; any other map keyed by filter content keeps std's hasher
/// or gives way to a sort.
pub struct WordHasher(u64);

impl Default for WordHasher {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        WordHasher(*SEED.get_or_init(|| RandomState::new().hash_one(0u8)))
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        let mut x = self.0;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^ (x >> 33)
    }
}

/// Stable structural digest of one filter expression.
pub fn expr_digest(filter: &Expr) -> u64 {
    let mut h = Fnv1a(Fnv1a::OFFSET);
    filter.hash(&mut h);
    h.finish()
}

/// [`rule_digest`] of the rule `filter: action`, continued from
/// `filter_digest` (the filter's [`expr_digest`]) over the action alone.
pub fn rule_digest_continued(filter_digest: u64, action: &Action) -> u64 {
    let mut h = Fnv1a(filter_digest);
    action.hash(&mut h);
    h.finish()
}

/// Stable content digest of a rule (filter + action). The incremental
/// store keys its per-rule bookkeeping by this, so a caller can remove
/// a rule it no longer holds by digest alone, and a compiler can diff
/// two rule lists by digest multiset.
pub fn rule_digest(rule: &Rule) -> u64 {
    rule_digest_continued(expr_digest(&rule.filter), &rule.action)
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_lang::parser::parse_rule;

    #[test]
    fn digests_are_stable_and_distinguish_rules() {
        let a = parse_rule("id == 1: fwd(1)").unwrap();
        let b = parse_rule("id == 1: fwd(2)").unwrap();
        let c = parse_rule("id == 2: fwd(1)").unwrap();
        assert_eq!(rule_digest(&a), rule_digest(&a));
        assert_ne!(rule_digest(&a), rule_digest(&b));
        assert_ne!(rule_digest(&a), rule_digest(&c));
    }

    #[test]
    fn a_rule_digest_is_the_derived_hash_of_the_rule() {
        // The continuation is only sound while `Rule`'s `Hash` is the
        // derived one: filter, then action, nothing around them.
        for src in ["id == 1 and price > 5: fwd(1, 3)", "true: fwd(0)", "stock == A: drop()"] {
            let rule = parse_rule(src).unwrap();
            let mut h = Fnv1a(Fnv1a::OFFSET);
            rule.hash(&mut h);
            assert_eq!(rule_digest(&rule), h.finish(), "{src}");
        }
    }
}
