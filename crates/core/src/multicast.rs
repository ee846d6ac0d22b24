//! Multicast group allocation (§VII-C).
//!
//! When several filters overlap, a matching packet must leave through
//! several ports; the switch realises this with a multicast group per
//! distinct port set. Groups are a limited hardware resource, so the
//! allocator interns port sets and enforces a capacity limit.

use camus_lang::ast::Port;
use std::collections::HashMap;

/// Interns port sets into multicast group ids, up to a hardware limit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MulticastAllocator {
    groups: HashMap<Vec<Port>, u32>,
    by_id: Vec<Vec<Port>>,
    limit: usize,
}

impl MulticastAllocator {
    /// Tofino-class switches support tens of thousands of groups; the
    /// paper's prototype never came close to the limit (§VII-C).
    pub const DEFAULT_LIMIT: usize = 65_536;

    pub fn new(limit: usize) -> Self {
        MulticastAllocator { groups: HashMap::new(), by_id: Vec::new(), limit }
    }

    /// Allocate (or reuse) the group for a port set. Returns `None`
    /// when a *new* group would exceed the limit. Port order and
    /// duplicates are irrelevant.
    pub(crate) fn alloc(&mut self, ports: &[Port]) -> Option<u32> {
        let mut key: Vec<Port> = ports.to_vec();
        key.sort_unstable();
        key.dedup();
        if let Some(&g) = self.groups.get(&key) {
            return Some(g);
        }
        if self.groups.len() >= self.limit {
            return None;
        }
        let g = self.by_id.len() as u32;
        self.groups.insert(key.clone(), g);
        self.by_id.push(key);
        Some(g)
    }

    pub fn group_count(&self) -> usize {
        self.by_id.len()
    }

    pub(crate) fn limit(&self) -> usize {
        self.limit
    }
}

impl Default for MulticastAllocator {
    fn default() -> Self {
        MulticastAllocator::new(Self::DEFAULT_LIMIT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_interns_sets() {
        let mut m = MulticastAllocator::new(10);
        let a = m.alloc(&[1, 2, 3]).unwrap();
        let b = m.alloc(&[3, 2, 1]).unwrap(); // order-insensitive
        let c = m.alloc(&[1, 2, 3, 3]).unwrap(); // duplicate-insensitive
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(m.group_count(), 1);
        assert_eq!(m.by_id[a as usize], [1, 2, 3]);
    }

    #[test]
    fn alloc_respects_limit() {
        let mut m = MulticastAllocator::new(2);
        assert!(m.alloc(&[1, 2]).is_some());
        assert!(m.alloc(&[3, 4]).is_some());
        assert!(m.alloc(&[5, 6]).is_none()); // third distinct set
        assert!(m.alloc(&[1, 2]).is_some()); // reuse still fine
        assert_eq!(m.group_count(), 2);
    }
}
