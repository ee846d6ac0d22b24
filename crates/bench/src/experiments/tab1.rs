//! Table I — switch resource usage for three applications
//! (§VIII-F.2): ITCH (100 symbols × price thresholds × 200 hosts), INT
//! (100 switches × 1000 hop-latency ranges), and hICN (many unique
//! content identifiers; the paper uses 1 M).
//!
//! The claim to reproduce: all three applications fit comfortably
//! within a Tofino-class switch's budget, and only ITCH uses multicast
//! groups (overlapping per-host filters).

use super::Scale;
use crate::output::Table;
use camus_apps::itch::ItchApp;
use camus_apps::telemetry::IntApp;
use camus_core::compiler::Compiler;
use camus_core::resources::ResourceReport;
use camus_core::statics::compile_static;
use camus_lang::ast::Rule;
use camus_lang::parser::parse_rule;

fn itch_report(hosts: u16) -> (usize, ResourceReport) {
    let app = ItchApp::new();
    // stock == S ∧ price > P: fwd(H) with overlapping host interests:
    // several hosts per symbol, distinct thresholds.
    let mut rules = Vec::new();
    for s in 0..100usize {
        let stock = if s == 0 { "GOOGL".to_string() } else { format!("S{s:04}") };
        for h in 0..4u16 {
            let host = (s as u16 * 7 + h * 53) % hosts + 1;
            let price = (s * 13 + h as usize * 251) % 1000;
            rules.push(ItchApp::subscription(&stock, price as i64, host));
        }
    }
    let compiled = Compiler::new().with_static(app.statics).compile(&rules).unwrap();
    (rules.len(), compiled.report)
}

fn int_report(switches: usize, ranges: usize) -> (usize, ResourceReport) {
    let app = IntApp::new();
    let rules = IntApp::table1_rules(switches, ranges, 1);
    let compiled = Compiler::new().with_static(app.statics).compile(&rules).unwrap();
    (rules.len(), compiled.report)
}

fn hicn_report(ids: usize) -> (usize, ResourceReport) {
    let spec = camus_apps::hicn::hicn_spec();
    let statics = compile_static(&spec).unwrap();
    let mut rules: Vec<Rule> = (0..ids)
        .map(|i| parse_rule(&format!("content_id == {i}: fwd({})", (i % 31) + 1)).unwrap())
        .collect();
    rules.push(parse_rule("true: fwd(32)").unwrap());
    let compiled = Compiler::new().with_static(statics).compile(&rules).unwrap();
    (rules.len(), compiled.report)
}

pub fn run(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "tab1",
        "Table I: switch resource usage for three applications",
        &["app", "filters", "tables", "entries", "sram KB", "tcam KB", "mcast", "state bits"],
    );
    let hicn_ids = scale.pick(50_000, 1_000_000);
    let (int_sw, int_rg) = scale.pick((100, 200), (100, 1_000));
    for (name, (filters, r)) in [
        ("ITCH", itch_report(200)),
        ("INT", int_report(int_sw, int_rg)),
        ("hICN", hicn_report(hicn_ids)),
    ] {
        t.row([
            name.to_string(),
            filters.to_string(),
            r.tables.to_string(),
            r.total_entries.to_string(),
            format!("{:.1}", r.sram_bits as f64 / 8.0 / 1024.0),
            format!("{:.1}", r.tcam_bits as f64 / 8.0 / 1024.0),
            r.multicast_groups.to_string(),
            r.state_bits.to_string(),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn itch_uses_multicast_groups_heavily() {
        // "ITCH is the only application that makes heavy use of
        // multicast groups, because many end-hosts have overlapping
        // filters."
        let (_, itch) = itch_report(200);
        let (_, int) = int_report(20, 50);
        let (_, hicn) = hicn_report(2_000);
        // INT: one collector, no overlap. hICN: only the hot/default
        // overlap, bounded by port diversity. ITCH: per-host filter
        // overlap -> many groups.
        assert_eq!(int.multicast_groups, 0);
        assert!(hicn.multicast_groups <= 32, "{}", hicn.multicast_groups);
        assert!(
            itch.multicast_groups > 2 * hicn.multicast_groups,
            "itch {} vs hicn {}",
            itch.multicast_groups,
            hicn.multicast_groups
        );
    }

    #[test]
    fn applications_fit_switch_budgets() {
        // Tofino-class budgets: tens of MB SRAM, a few MB TCAM.
        for (name, (_, r)) in [
            ("itch", itch_report(200)),
            ("int", int_report(50, 100)),
            ("hicn", hicn_report(10_000)),
        ] {
            assert!(r.sram_bits / 8 < 50 << 20, "{name} SRAM {}B", r.sram_bits / 8);
            assert!(r.tcam_bits / 8 < 10 << 20, "{name} TCAM {}B", r.tcam_bits / 8);
        }
    }

    #[test]
    fn int_collapses_same_collector_rules() {
        // 100 x 200 rules to one collector compress massively.
        let (n, r) = int_report(100, 200);
        assert_eq!(n, 20_000);
        assert!(r.total_entries < 2_000, "entries {}", r.total_entries);
    }

    #[test]
    fn hicn_identifiers_stay_linear_sram() {
        let (n, r) = hicn_report(20_000);
        assert_eq!(r.tcam_entries, 0);
        assert!(r.total_entries <= 2 * n + 16, "{} vs {n}", r.total_entries);
    }
}
