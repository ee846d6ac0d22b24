//! Application 7: a Kafka-style publish/subscribe shim (§VIII-C.7).
//!
//! Instead of sending messages to a broker, producers send them to the
//! network; the switches route each message to the consumers whose
//! topic subscriptions match. Like the paper's shim it supports topics
//! and key-based filtering, handles messages up to 512 B, and offers no
//! persistence (§VIII-C.9 — timely delivery over replay).
//!
//! The API is shaped after a minimal Kafka client: [`Producer::send`]
//! and [`Consumer::poll`], with the whole Fat-Tree network of
//! [`camus_net`] standing where the broker fleet would be.

use camus_core::statics::{compile_static, StaticPipeline};
use camus_dataplane::{Packet, PacketBuilder};
use camus_lang::ast::Expr;
use camus_lang::parser::parse_expr;
use camus_lang::spec::Spec;
use camus_net::channel::PerfectChannel;
use camus_net::controller::{Controller, Deployment};
use camus_routing::algorithm1::{Policy, RoutingConfig};
use camus_routing::topology::HierNet;

/// Maximum message payload (the paper's shim handles 512 B, a typical
/// JSON message size, within the MTU).
pub const MAX_PAYLOAD: usize = 512;

/// The pub/sub message header: topic, optional key, payload length.
/// The payload itself rides behind the header as a fixed 512 B field.
pub fn pubsub_spec() -> Spec {
    Spec::parse(
        r#"
        header message {
            @field_exact str<32>  topic;
            @field       bit<64>  key;
            bit<16> payload_len;
            str<512> payload;
        }
        sequence message
        "#,
    )
    .expect("pub/sub spec parses")
}

/// A topic subscription, optionally narrowed by a key predicate —
/// richer than Kafka's topic-only model, since subscriptions are
/// arbitrary filters.
#[derive(Debug, Clone)]
pub struct Subscription {
    pub topic: String,
    /// Extra filter over `key` (e.g. `key > 100`), `None` = whole topic.
    pub key_filter: Option<String>,
}

impl Subscription {
    pub fn topic(topic: &str) -> Self {
        Subscription { topic: topic.to_string(), key_filter: None }
    }

    pub fn with_key_filter(topic: &str, filter: &str) -> Self {
        Subscription { topic: topic.to_string(), key_filter: Some(filter.to_string()) }
    }

    fn filter(&self) -> Expr {
        let base = parse_expr(&format!("topic == \"{}\"", self.topic)).unwrap();
        match &self.key_filter {
            Some(f) => base.and(parse_expr(f).expect("well-formed key filter")),
            None => base,
        }
    }
}

/// A deployed pub/sub fabric over a hierarchical topology.
pub struct PubSub {
    pub spec: Spec,
    pub statics: StaticPipeline,
    pub deployment: Deployment,
    /// One subscription list per host.
    subs: Vec<Vec<Subscription>>,
    controller: Controller,
    clock_ns: u64,
}

impl PubSub {
    /// Deploy with every host unsubscribed.
    pub fn deploy(topology: HierNet, policy: Policy) -> Self {
        let spec = pubsub_spec();
        let statics = compile_static(&spec).expect("pub/sub spec compiles");
        let controller = Controller::new(statics.clone(), RoutingConfig::new(policy));
        let subs: Vec<Vec<Subscription>> = vec![Vec::new(); topology.host_count()];
        let filters: Vec<Vec<Expr>> = vec![Vec::new(); topology.host_count()];
        let deployment = controller.deploy(topology, &filters).expect("empty deployment compiles");
        PubSub { spec, statics, deployment, subs, controller, clock_ns: 0 }
    }

    /// Subscribe a host; triggers controller reconfiguration.
    pub fn subscribe(&mut self, host: usize, sub: Subscription) {
        self.subs[host].push(sub);
        self.reconfigure();
    }

    /// Drop every subscription of a host to a topic.
    pub fn unsubscribe(&mut self, host: usize, topic: &str) {
        self.subs[host].retain(|s| s.topic != topic);
        self.reconfigure();
    }

    fn reconfigure(&mut self) {
        let filters: Vec<Vec<Expr>> =
            self.subs.iter().map(|v| v.iter().map(|s| s.filter()).collect()).collect();
        self.controller
            .repair(&mut self.deployment, &filters, &mut PerfectChannel)
            .expect("reconfiguration compiles");
    }

    /// A producer handle bound to a host.
    pub fn producer(&mut self, host: usize) -> Producer<'_> {
        Producer { fabric: self, host }
    }

    /// Deliveries a consumer host has received so far (its "poll").
    pub fn poll(&mut self, host: usize) -> Vec<(String, i64, String)> {
        self.deployment.network.run(None);
        self.deployment
            .network
            .deliveries(host)
            .iter()
            .map(|d| {
                let topic = d.values["topic"].as_str().unwrap_or_default().to_string();
                let key = d.values["key"].as_int().unwrap_or(0);
                let payload = d.values["payload"].as_str().unwrap_or_default().to_string();
                (topic, key, payload)
            })
            .collect()
    }
}

/// Producer handle: builds and publishes messages.
pub struct Producer<'a> {
    fabric: &'a mut PubSub,
    host: usize,
}

impl Producer<'_> {
    /// Publish one message. Panics if the payload exceeds
    /// [`MAX_PAYLOAD`] (the paper's shim has the same limit).
    pub fn send(&mut self, topic: &str, key: i64, payload: &str) {
        assert!(payload.len() <= MAX_PAYLOAD, "payload exceeds 512 B");
        let pkt: Packet = PacketBuilder::new(&self.fabric.spec)
            .stack_field("message", "topic", topic)
            .stack_field("message", "key", key)
            .stack_field("message", "payload_len", payload.len() as i64)
            .stack_field("message", "payload", payload)
            .build();
        self.fabric.clock_ns += 1_000;
        let t = self.fabric.clock_ns;
        self.fabric.deployment.network.publish(self.host, pkt, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_routing::topology::paper_fat_tree;

    #[test]
    fn topic_routing_end_to_end() {
        let mut ps = PubSub::deploy(paper_fat_tree(), Policy::TrafficReduction);
        ps.subscribe(5, Subscription::topic("trades"));
        ps.subscribe(12, Subscription::topic("quotes"));
        ps.producer(0).send("trades", 1, "AAPL@101");
        ps.producer(0).send("quotes", 2, "GOOGL 140/141");
        let got5 = ps.poll(5);
        assert_eq!(got5, vec![("trades".to_string(), 1, "AAPL@101".to_string())]);
        let got12 = ps.poll(12);
        assert_eq!(got12.len(), 1);
        assert_eq!(got12[0].0, "quotes");
        // Host 3 subscribed to nothing.
        assert!(ps.poll(3).is_empty());
    }

    #[test]
    fn key_filters_narrow_topics() {
        let mut ps = PubSub::deploy(paper_fat_tree(), Policy::TrafficReduction);
        ps.subscribe(4, Subscription::with_key_filter("orders", "key > 100"));
        ps.producer(1).send("orders", 50, "small");
        ps.producer(1).send("orders", 200, "big");
        let got = ps.poll(4);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].2, "big");
    }

    #[test]
    fn fanout_to_multiple_consumers() {
        let mut ps = PubSub::deploy(paper_fat_tree(), Policy::MemoryReduction);
        for h in [2usize, 7, 11, 14] {
            ps.subscribe(h, Subscription::topic("alerts"));
        }
        ps.producer(0).send("alerts", 0, "fire");
        for h in [2usize, 7, 11, 14] {
            assert_eq!(ps.poll(h).len(), 1, "host {h}");
        }
        // Exactly four deliveries in total (no duplicates).
        let total: usize = (0..16).map(|h| ps.poll(h).len()).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let mut ps = PubSub::deploy(paper_fat_tree(), Policy::TrafficReduction);
        ps.subscribe(6, Subscription::topic("t"));
        ps.producer(0).send("t", 0, "one");
        assert_eq!(ps.poll(6).len(), 1);
        ps.unsubscribe(6, "t");
        ps.producer(0).send("t", 0, "two");
        assert_eq!(ps.poll(6).len(), 1, "no new delivery after unsubscribe");
    }

    #[test]
    #[should_panic(expected = "payload exceeds 512 B")]
    fn oversized_payload_is_rejected() {
        let mut ps = PubSub::deploy(paper_fat_tree(), Policy::TrafficReduction);
        let big = "x".repeat(513);
        ps.producer(0).send("t", 0, &big);
    }
}
