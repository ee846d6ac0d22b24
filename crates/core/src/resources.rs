//! Switch resource accounting (Table I of the paper).
//!
//! Models the memory cost of a compiled pipeline on a Tofino-class
//! ASIC: exact-match stages consume SRAM, range/ternary stages consume
//! TCAM, and each TCAM *range* entry expands into up to `2w−2`
//! prefix/mask entries for a `w`-bit field (§V-E: "each range-match
//! requires multiple TCAM entries (O(#bits))"). The low-resolution
//! remap optimisation is reflected by clamping a field's key width to
//! the bits needed to distinguish its boundary constants.

use crate::pipeline::{MatchKind, MatchSpec, Pipeline};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Per-stage resource summary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageReport {
    pub field: String,
    pub kind: MatchKind,
    /// Logical control-plane entries.
    pub entries: usize,
    /// Distinct entry states.
    pub states: usize,
    /// Field key width in bits after low-resolution remapping.
    pub key_bits: u32,
    /// Physical entries after TCAM range expansion (equals `entries`
    /// for SRAM stages).
    pub expanded_entries: u64,
}

/// Whole-pipeline resource report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceReport {
    pub stages: Vec<StageReport>,
    /// Match stages plus the leaf stage.
    pub tables: usize,
    pub total_entries: usize,
    pub sram_entries: u64,
    pub tcam_entries: u64,
    /// Bits of metadata needed to carry the BDD state between stages.
    pub state_bits: u32,
    pub multicast_groups: usize,
    /// Estimated SRAM usage in bits (key + next-state per entry).
    pub sram_bits: u64,
    /// Estimated TCAM usage in bits (key + mask + next-state).
    pub tcam_bits: u64,
}

impl ResourceReport {
    /// One-line summary used by the Table I harness.
    pub fn summary(&self) -> String {
        format!(
            "tables={} entries={} sram={:.1}KB tcam={:.1}KB mcast={} state_bits={}",
            self.tables,
            self.total_entries,
            self.sram_bits as f64 / 8.0 / 1024.0,
            self.tcam_bits as f64 / 8.0 / 1024.0,
            self.multicast_groups,
            self.state_bits,
        )
    }
}

/// Per-switch resource budget (Table I of the paper). A compiled
/// pipeline is *admitted* onto a switch only if its [`ResourceReport`]
/// fits inside every limit; otherwise the install is rejected (or the
/// switch degrades to a coarse pipeline — the controller's choice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceBudget {
    /// Match stages plus the leaf stage.
    pub max_tables: usize,
    /// SRAM capacity in bits.
    pub max_sram_bits: u64,
    /// TCAM capacity in physical (post range-expansion) entries.
    pub max_tcam_entries: u64,
    /// Multicast group table size.
    pub max_multicast_groups: usize,
    /// PHV bits available to carry the inter-stage BDD state.
    pub max_state_bits: u32,
}

impl Default for ResourceBudget {
    /// A Tofino-class budget: 20 logical tables (one per physical
    /// stage, plus table sharing headroom), ~120 Mb of SRAM, 64k TCAM
    /// entries, 64k multicast groups, and a 24-bit PHV state field.
    /// Sized so the paper's 1k-filter workloads fit comfortably while
    /// pathological range-heavy rule sets are still rejected.
    fn default() -> Self {
        ResourceBudget {
            max_tables: 20,
            max_sram_bits: 120 * 1024 * 1024,
            max_tcam_entries: 64 * 1024,
            max_multicast_groups: 64 * 1024,
            max_state_bits: 24,
        }
    }
}

impl ResourceBudget {
    /// A budget that admits everything. Used where deployment is not
    /// the subject under test (the simulator's default) so that
    /// arbitrarily large synthetic workloads still install.
    pub fn unlimited() -> Self {
        ResourceBudget {
            max_tables: usize::MAX,
            max_sram_bits: u64::MAX,
            max_tcam_entries: u64::MAX,
            max_multicast_groups: usize::MAX,
            max_state_bits: u32::MAX,
        }
    }

    /// Every limit the report exceeds, in a stable order.
    pub(crate) fn check(&self, r: &ResourceReport) -> Vec<BudgetViolation> {
        let mut v = Vec::new();
        if r.tables > self.max_tables {
            v.push(BudgetViolation::Tables { used: r.tables, limit: self.max_tables });
        }
        if r.sram_bits > self.max_sram_bits {
            v.push(BudgetViolation::SramBits { used: r.sram_bits, limit: self.max_sram_bits });
        }
        if r.tcam_entries > self.max_tcam_entries {
            v.push(BudgetViolation::TcamEntries {
                used: r.tcam_entries,
                limit: self.max_tcam_entries,
            });
        }
        if r.multicast_groups > self.max_multicast_groups {
            v.push(BudgetViolation::MulticastGroups {
                used: r.multicast_groups,
                limit: self.max_multicast_groups,
            });
        }
        if r.state_bits > self.max_state_bits {
            v.push(BudgetViolation::StateBits { used: r.state_bits, limit: self.max_state_bits });
        }
        v
    }

    /// Admit or reject the report.
    pub fn admit(&self, r: &ResourceReport) -> Result<(), AdmissionError> {
        let violations = self.check(r);
        if violations.is_empty() {
            Ok(())
        } else {
            Err(AdmissionError { violations })
        }
    }

    /// Fractional utilisation per dimension (1.0 = at capacity).
    /// Unlimited dimensions report 0.0.
    pub fn utilization(&self, r: &ResourceReport) -> Vec<(&'static str, f64)> {
        fn frac(used: u64, limit: u64, unlimited: bool) -> f64 {
            if unlimited {
                0.0
            } else {
                used as f64 / limit as f64
            }
        }
        vec![
            (
                "tables",
                frac(r.tables as u64, self.max_tables as u64, self.max_tables == usize::MAX),
            ),
            ("sram_bits", frac(r.sram_bits, self.max_sram_bits, self.max_sram_bits == u64::MAX)),
            (
                "tcam_entries",
                frac(r.tcam_entries, self.max_tcam_entries, self.max_tcam_entries == u64::MAX),
            ),
            (
                "mcast_groups",
                frac(
                    r.multicast_groups as u64,
                    self.max_multicast_groups as u64,
                    self.max_multicast_groups == usize::MAX,
                ),
            ),
            (
                "state_bits",
                frac(
                    u64::from(r.state_bits),
                    u64::from(self.max_state_bits),
                    self.max_state_bits == u32::MAX,
                ),
            ),
        ]
    }
}

/// One exceeded budget dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BudgetViolation {
    Tables { used: usize, limit: usize },
    SramBits { used: u64, limit: u64 },
    TcamEntries { used: u64, limit: u64 },
    MulticastGroups { used: usize, limit: usize },
    StateBits { used: u32, limit: u32 },
}

impl std::fmt::Display for BudgetViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetViolation::Tables { used, limit } => write!(f, "tables {used} > {limit}"),
            BudgetViolation::SramBits { used, limit } => write!(f, "sram bits {used} > {limit}"),
            BudgetViolation::TcamEntries { used, limit } => {
                write!(f, "tcam entries {used} > {limit}")
            }
            BudgetViolation::MulticastGroups { used, limit } => {
                write!(f, "multicast groups {used} > {limit}")
            }
            BudgetViolation::StateBits { used, limit } => {
                write!(f, "state bits {used} > {limit}")
            }
        }
    }
}

/// Admission failure: the pipeline exceeds one or more budget limits.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionError {
    pub violations: Vec<BudgetViolation>,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pipeline over budget: ")?;
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for AdmissionError {}

/// Number of prefix (mask) entries needed to cover the integer range
/// `[lo, hi]` inside a `width`-bit space — the classic range-to-prefix
/// expansion. Out-of-domain bounds are clamped.
pub(crate) fn range_prefix_count(lo: i64, hi: i64, width: u32) -> u64 {
    let max = if width >= 63 { i64::MAX } else { (1i64 << width) - 1 };
    let mut lo = lo.clamp(0, max) as u64;
    let hi = hi.clamp(0, max) as u64;
    if lo > hi {
        return 0;
    }
    let mut count = 0u64;
    loop {
        // Largest power-of-two block aligned at `lo` that fits in the range.
        let align = if lo == 0 { 1u64 << 63 } else { lo & lo.wrapping_neg() };
        let len = hi - lo + 1; // hi, lo <= i64::MAX so no overflow
        let fit = 1u64 << (63 - len.leading_zeros()); // largest 2^k <= len
        let block = align.min(fit);
        count += 1;
        let next = lo + (block - 1);
        if next >= hi {
            return count;
        }
        lo = next + 1;
    }
}

/// Build the resource report. `widths` maps operand keys to their
/// on-wire field widths in bits; unknown fields default to 32 bits.
pub fn report(
    pipeline: &Pipeline,
    multicast_groups: usize,
    widths: &HashMap<String, u32>,
) -> ResourceReport {
    // State metadata: enough bits for the largest state id seen.
    let max_state = pipeline
        .stages
        .iter()
        .flat_map(|s| s.entries.iter().flat_map(|e| [e.state, e.next]))
        .chain(pipeline.leaf.actions.keys().copied())
        .max()
        .unwrap_or(0);
    let state_bits = 32 - max_state.leading_zeros().min(31);
    let state_bits = state_bits.max(1);

    let mut stages = Vec::new();
    let (mut sram_entries, mut tcam_entries) = (0u64, 0u64);
    let (mut sram_bits, mut tcam_bits) = (0u64, 0u64);
    for s in &pipeline.stages {
        let key = s.operand.key();
        let declared = widths.get(&key).copied().unwrap_or(32);
        // Low-resolution remap (§V-E): the stage only needs to
        // distinguish the boundary constants it actually uses.
        let mut distinct: Vec<i64> = Vec::with_capacity(2 * s.entries.len());
        for e in &s.entries {
            match e.spec {
                MatchSpec::IntRange(lo, hi) => distinct.extend([lo, hi]),
                MatchSpec::IntExact(v) => distinct.push(v),
                _ => {}
            }
        }
        distinct.sort_unstable();
        distinct.dedup();
        let needed_bits = if distinct.is_empty() {
            declared
        } else {
            (64 - (distinct.len() as u64 + 1).leading_zeros()).max(1)
        };
        let key_bits = match s.kind {
            MatchKind::Range => declared.min(needed_bits.max(8)),
            _ => declared,
        };

        let expanded: u64 = s
            .entries
            .iter()
            .map(|e| match &e.spec {
                MatchSpec::IntRange(lo, hi) => range_prefix_count(*lo, *hi, key_bits),
                _ => 1,
            })
            .sum();
        let entry_key_bits = u64::from(state_bits + key_bits);
        match s.kind {
            MatchKind::Exact => {
                sram_entries += s.entry_count() as u64;
                sram_bits += (entry_key_bits + u64::from(state_bits)) * s.entry_count() as u64;
            }
            MatchKind::Range | MatchKind::Ternary => {
                tcam_entries += expanded;
                // TCAM stores value + mask.
                tcam_bits += (2 * entry_key_bits + u64::from(state_bits)) * expanded;
            }
        }
        stages.push(StageReport {
            field: key,
            kind: s.kind,
            entries: s.entry_count(),
            states: s.state_count(),
            key_bits,
            expanded_entries: expanded,
        });
    }

    // Leaf table: SRAM, state -> action id.
    let leaf_entries = pipeline.leaf.entry_count() as u64;
    sram_entries += leaf_entries;
    sram_bits += leaf_entries * u64::from(state_bits + 32);

    ResourceReport {
        tables: pipeline.stages.len() + 1,
        total_entries: pipeline.total_entries(),
        sram_entries,
        tcam_entries,
        state_bits,
        multicast_groups,
        sram_bits,
        tcam_bits,
        stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multicast::MulticastAllocator;
    use crate::tables::bdd_to_pipeline;
    use camus_bdd::BddBuilder;
    use camus_lang::parser::parse_rules;

    #[test]
    fn prefix_count_basics() {
        // Full domain: one wildcard entry.
        assert_eq!(range_prefix_count(0, 255, 8), 1);
        // Single point: one entry.
        assert_eq!(range_prefix_count(7, 7, 8), 1);
        // [1, 254] in 8 bits is the classic worst case: 2*8-2 = 14.
        assert_eq!(range_prefix_count(1, 254, 8), 14);
        // Aligned block.
        assert_eq!(range_prefix_count(16, 31, 8), 1);
        // [0,0].
        assert_eq!(range_prefix_count(0, 0, 8), 1);
        // Empty after clamping.
        assert_eq!(range_prefix_count(10, 5, 8), 0);
    }

    #[test]
    fn prefix_count_clamps_out_of_domain() {
        assert_eq!(range_prefix_count(-5, 3, 8), range_prefix_count(0, 3, 8));
        assert_eq!(range_prefix_count(250, 9999, 8), range_prefix_count(250, 255, 8));
        // Wide widths don't overflow.
        assert!(range_prefix_count(1, i64::MAX - 1, 63) > 0);
    }

    #[test]
    fn prefix_count_never_exceeds_2w_minus_2_nontrivially() {
        for w in [4u32, 8, 12] {
            let max = (1i64 << w) - 1;
            for (lo, hi) in [(1, max - 1), (3, max - 3), (0, max), (5, 5)] {
                let c = range_prefix_count(lo, hi, w);
                assert!(c <= u64::from(2 * w), "w={w} lo={lo} hi={hi} c={c}");
            }
        }
    }

    fn report_for(src: &str) -> ResourceReport {
        let rules = parse_rules(src).unwrap();
        let bdd = BddBuilder::from_rules(&rules).build();
        let mut mcast = MulticastAllocator::default();
        let p = bdd_to_pipeline(&bdd, &mut mcast).unwrap();
        report(&p, mcast.group_count(), &HashMap::new())
    }

    #[test]
    fn exact_stage_counts_as_sram() {
        let r = report_for("stock == A: fwd(1)\nstock == B: fwd(2)\n");
        assert_eq!(r.tcam_entries, 0);
        assert!(r.sram_entries > 0);
        assert_eq!(r.tables, 2); // stock + leaf
    }

    #[test]
    fn range_stage_counts_as_tcam_expanded() {
        let r = report_for("price > 50: fwd(1)\n");
        assert!(r.tcam_entries >= 2, "two ranges, each expanding: {r:?}");
        assert!(r.tcam_bits > 0);
    }

    #[test]
    fn multicast_groups_pass_through() {
        let rules = parse_rules("a > 0: fwd(1)\na > 0: fwd(2)\n").unwrap();
        let bdd = BddBuilder::from_rules(&rules).build();
        let mut mcast = MulticastAllocator::default();
        let p = bdd_to_pipeline(&bdd, &mut mcast).unwrap();
        let r = report(&p, mcast.group_count(), &HashMap::new());
        assert_eq!(r.multicast_groups, 1);
    }

    #[test]
    fn summary_is_one_line() {
        let r = report_for("price > 50: fwd(1)\n");
        let s = r.summary();
        assert!(s.contains("tables="));
        assert!(!s.contains('\n'));
    }

    #[test]
    fn unlimited_budget_admits_everything() {
        let many: String = (0..500).map(|i| format!("id == {i}: fwd({})\n", i + 1)).collect();
        let r = report_for(&many);
        assert!(ResourceBudget::unlimited().admit(&r).is_ok());
    }

    #[test]
    fn tight_budget_rejects_with_named_violations() {
        let r = report_for("price > 50: fwd(1)\nprice < 10: fwd(2)\n");
        let budget =
            ResourceBudget { max_tables: 1, max_tcam_entries: 0, ..ResourceBudget::unlimited() };
        let err = budget.admit(&r).unwrap_err();
        assert!(err.violations.iter().any(|v| matches!(v, BudgetViolation::Tables { .. })));
        assert!(err.violations.iter().any(|v| matches!(v, BudgetViolation::TcamEntries { .. })));
        let msg = err.to_string();
        assert!(msg.contains("tables"), "{msg}");
        assert!(msg.contains("tcam"), "{msg}");
    }

    #[test]
    fn default_budget_fits_modest_workload() {
        let many: String = (0..200).map(|i| format!("id == {i}: fwd({})\n", i + 1)).collect();
        let r = report_for(&many);
        assert!(ResourceBudget::default().admit(&r).is_ok(), "{}", r.summary());
    }

    #[test]
    fn utilization_fractions_are_sane() {
        let r = report_for("stock == A: fwd(1)\n");
        let budget = ResourceBudget::default();
        for (name, frac) in budget.utilization(&r) {
            assert!((0.0..=1.0).contains(&frac), "{name} = {frac}");
        }
        // Unlimited budget reports zero utilisation everywhere.
        for (_, frac) in ResourceBudget::unlimited().utilization(&r) {
            assert_eq!(frac, 0.0);
        }
    }

    #[test]
    fn state_bits_grow_with_states() {
        let many: String = (0..200).map(|i| format!("id == {i}: fwd({})\n", i + 1)).collect();
        let r = report_for(&many);
        assert!(r.state_bits >= 7, "200+ states need >= 8 bits: {}", r.state_bits);
    }
}
