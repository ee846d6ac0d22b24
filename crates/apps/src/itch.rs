//! Application 1: the Nasdaq ITCH market-data filter (§VIII-C.1).
//!
//! The feed arrives as MoldUDP packets carrying batched Add-Order
//! messages; the switch splits packets into messages and forwards each
//! to the back-end servers whose subscriptions match. Subscriptions
//! are of the paper's Table I shape: `stock == S and price > P:
//! fwd(H)`.

use camus_core::compiler::{CompileError, Compiler};
use camus_core::statics::{compile_static, StaticPipeline};
use camus_dataplane::{Packet, PacketBuilder, Switch, SwitchConfig};
use camus_lang::ast::Rule;
use camus_lang::parser::parse_rule;
use camus_lang::spec::{itch_spec, Spec};
use camus_workloads::itch::ItchOrder;

/// The ITCH application bundle: spec + static pipeline.
pub struct ItchApp {
    pub spec: Spec,
    pub statics: StaticPipeline,
}

impl ItchApp {
    pub fn new() -> Self {
        let spec = itch_spec();
        let statics = compile_static(&spec).expect("built-in ITCH spec compiles");
        ItchApp { spec, statics }
    }

    /// A `stock == S ∧ price > P → fwd(port)` subscription.
    pub fn subscription(stock: &str, min_price: i64, port: u16) -> Rule {
        parse_rule(&format!("stock == {stock} and price > {min_price}: fwd({port})"))
            .expect("well-formed ITCH subscription")
    }

    /// The Table I workload: `symbols × price thresholds` filters fanned
    /// out over `hosts` ports.
    pub fn table1_rules(symbols: usize, max_price: i64, hosts: u16) -> Vec<Rule> {
        let mut rules = Vec::new();
        for s in 0..symbols {
            let stock = if s == 0 { "GOOGL".to_string() } else { format!("S{s:04}") };
            let price = (s as i64 * 37) % max_price.max(1);
            let host = (s as u16) % hosts.max(1);
            rules.push(Self::subscription(&stock, price, host + 1));
        }
        rules
    }

    /// Build a MoldUDP packet from generated orders.
    pub fn packet(&self, seq: i64, orders: &[ItchOrder]) -> Packet {
        let mut b = PacketBuilder::new(&self.spec).stack_field("moldudp", "seq", seq).stack_field(
            "moldudp",
            "msg_count",
            orders.len() as i64,
        );
        for o in orders {
            b = b.message(o.fields());
        }
        b.build()
    }

    /// Compile rules and load a single switch (the §VIII-E.1 testbed is
    /// one Tofino between publisher and subscriber).
    pub fn switch(&self, rules: &[Rule], config: SwitchConfig) -> Result<Switch, CompileError> {
        let compiled = Compiler::new().with_static(self.statics.clone()).compile(rules)?;
        Ok(Switch::new(&self.statics, compiled.pipeline, config))
    }
}

impl Default for ItchApp {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_lang::value::Value;
    use camus_workloads::itch::{ItchFeed, ItchFeedConfig, WATCHED};

    #[test]
    fn filters_feed_for_watched_symbol() {
        let app = ItchApp::new();
        let mut sw =
            app.switch(&[ItchApp::subscription(WATCHED, 0, 1)], SwitchConfig::default()).unwrap();
        let mut feed = ItchFeed::new(ItchFeedConfig::synthetic(42));
        let mut sent = 0usize;
        let mut received = 0usize;
        for (i, orders) in feed.packets(300).iter().enumerate() {
            let pkt = app.packet(i as i64, orders);
            sent += orders.iter().filter(|o| o.stock == WATCHED && o.price > 0).count();
            let out = sw.process(&pkt, 0, i as u64);
            for (port, copy) in out.ports {
                assert_eq!(port, 1);
                received += copy.message_count(&app.spec);
                // Every delivered message is for the watched symbol.
                for m in 0..copy.message_count(&app.spec) {
                    assert_eq!(copy.message(&app.spec, m).unwrap()["stock"], Value::from(WATCHED));
                }
            }
        }
        assert_eq!(sent, received, "exactly the matching messages are delivered");
        assert!(received > 0, "the 5% workload produces matches in 300 packets");
    }

    #[test]
    fn price_threshold_is_enforced() {
        let app = ItchApp::new();
        let mut sw =
            app.switch(&[ItchApp::subscription("GOOGL", 500, 1)], SwitchConfig::default()).unwrap();
        let lo = ItchOrder { stock: "GOOGL".into(), price: 400, shares: 1, side: 'B' };
        let hi = ItchOrder { stock: "GOOGL".into(), price: 600, shares: 1, side: 'B' };
        let out = sw.process(&app.packet(0, &[lo, hi]), 0, 0);
        assert_eq!(out.ports.len(), 1);
        assert_eq!(out.ports[0].1.message_count(&app.spec), 1);
        assert_eq!(out.ports[0].1.message(&app.spec, 0).unwrap()["price"], Value::Int(600));
    }

    #[test]
    fn table1_workload_compiles_within_resources() {
        let app = ItchApp::new();
        let rules = ItchApp::table1_rules(100, 1_000, 200);
        assert_eq!(rules.len(), 100);
        let compiled = Compiler::new().with_static(app.statics.clone()).compile(&rules).unwrap();
        let r = &compiled.report;
        assert!(r.total_entries > 0);
        // Well within a Tofino-class budget (Table I's point).
        assert!(r.sram_entries < 100_000);
        assert!(r.tcam_entries < 100_000);
    }

    #[test]
    fn fan_out_rules_compile_symbol_first() {
        // The ledger benchmark's fan-out shape: 100 symbols × 8 ports,
        // `stock == S and price > t`, one threshold per port and symbol
        // spread over the 1..=2000 price range. The spec declares
        // `price` above `stock`; compiled in that order the price bands
        // cross every symbol (56 040 entries). Every rule tests `stock`
        // with `==`, so the fitted order puts the symbol band on top
        // with eight price tests under each symbol (1 159).
        let app = ItchApp::new();
        let rules: Vec<Rule> = (0..100i64)
            .flat_map(|s| {
                let stock = if s == 0 { "GOOGL".to_string() } else { format!("S{s:04}") };
                (0..8i64).map(move |k| {
                    let floor = k * 250 + (s * 37) % 219 + (s * 7 + k * 13) % 31;
                    ItchApp::subscription(&stock, floor, (s + k) as u16 % 8 + 1)
                })
            })
            .collect();
        assert_eq!(rules.len(), 800);
        let compiled = Compiler::new().with_static(app.statics).compile(&rules).unwrap();
        let entries = compiled.report.total_entries;
        assert!(entries <= 2_000, "800 fan-out rules compiled to {entries} entries");
        assert_eq!(compiled.pipeline.stages[0].operand.key(), "stock");
    }

    #[test]
    fn moldudp_header_is_preserved() {
        let app = ItchApp::new();
        let o = ItchOrder { stock: "GOOGL".into(), price: 1, shares: 1, side: 'S' };
        let pkt = app.packet(777, &[o]);
        let mold = pkt.stack_header(&app.spec, "moldudp").unwrap();
        assert_eq!(mold["seq"], Value::Int(777));
        assert_eq!(mold["msg_count"], Value::Int(1));
    }
}
