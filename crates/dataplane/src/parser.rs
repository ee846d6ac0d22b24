//! Deep packet parsing with recirculation (Fig. 7, §VI-B).
//!
//! Hardware constraint: the Packet Header Vector (PHV) carried through
//! the pipeline has limited capacity, so only `B` batched messages can
//! be extracted per pass. For packets with more messages, the first
//! pass multicasts copies onto recirculation ports; the copy returning
//! on recirculation port `k` skips `k·B` messages via counter-matched
//! shift states and extracts the next `B`. With `R` recirculation
//! ports, at most `(R + 1) · B` messages per packet are processed;
//! anything beyond is truncated and counted.

use crate::packet::Packet;
use camus_lang::spec::Spec;
use camus_lang::value::Value;
use std::collections::HashMap;

/// One extracted message: its index in the packet and its attributes.
#[derive(Debug, Clone)]
pub(crate) struct ParsedMessage {
    pub index: usize,
    pub values: HashMap<String, Value>,
}

/// The result of fully parsing one packet (all passes).
#[derive(Debug, Clone, Default)]
pub(crate) struct ParseOutcome {
    /// Fixed-stack attribute values, keyed `header.field` *and* bare
    /// `field` where unambiguous.
    pub stack: HashMap<String, Value>,
    /// Extracted messages across all passes, in packet order.
    pub messages: Vec<ParsedMessage>,
    /// Number of pipeline passes used (1 = no recirculation).
    pub passes: usize,
    /// Messages dropped because the recirculation budget ran out.
    pub truncated: usize,
}

/// The parser model: PHV budget and recirculation ports.
#[derive(Debug, Clone)]
pub(crate) struct DeepParser {
    spec: Spec,
    /// Messages extracted per pass (`B`): the PHV budget.
    pub max_msgs_per_pass: usize,
    /// Number of dedicated recirculation ports (`R`).
    pub recirc_ports: usize,
}

impl DeepParser {
    pub(crate) fn new(spec: Spec, max_msgs_per_pass: usize, recirc_ports: usize) -> Self {
        assert!(max_msgs_per_pass > 0, "PHV must hold at least one message");
        DeepParser { spec, max_msgs_per_pass, recirc_ports }
    }

    pub(crate) fn spec(&self) -> &Spec {
        &self.spec
    }

    /// Parse a packet, modelling the multi-pass scheme of Fig. 7.
    pub(crate) fn parse(&self, pkt: &Packet) -> ParseOutcome {
        let mut out = ParseOutcome { passes: 1, ..Default::default() };

        // Fixed stack: parsed on every pass in hardware; extracted once
        // here. Also index fields by bare name when unambiguous.
        for name in &self.spec.sequence {
            if let Some(vals) = pkt.stack_header(&self.spec, name) {
                for (f, v) in vals {
                    if self.spec.resolve(&f).is_some() {
                        out.stack.insert(f.clone(), v.clone());
                    }
                    out.stack.insert(format!("{name}.{f}"), v);
                }
            }
        }

        let total = pkt.message_count(&self.spec);
        if total == 0 {
            return out;
        }
        let budget = (self.recirc_ports + 1) * self.max_msgs_per_pass;
        let extract = total.min(budget);
        out.truncated = total - extract;
        // Pass p handles messages [p*B, (p+1)*B).
        out.passes = extract.div_ceil(self.max_msgs_per_pass).max(1);
        for index in 0..extract {
            if let Some(values) = pkt.message(&self.spec, index) {
                out.messages.push(ParsedMessage { index, values });
            }
        }
        out
    }
}

impl ParseOutcome {
    /// Attribute lookup for one message: message fields shadow stack
    /// fields; `header.field` paths reach both.
    pub(crate) fn lookup<'a>(&'a self, msg: &'a ParsedMessage, key: &str) -> Option<&'a Value> {
        msg.values.get(key).or_else(|| self.stack.get(key)).or_else(|| {
            // `header.field` for the message header.
            key.split_once('.').and_then(|(_, f)| msg.values.get(f))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBuilder;
    use camus_lang::spec::itch_spec;

    fn feed(n: usize) -> Packet {
        let spec = itch_spec();
        let mut b = PacketBuilder::new(&spec).stack_field("moldudp", "seq", 7i64);
        for i in 0..n {
            b = b.message(vec![("price", Value::Int(i as i64)), ("stock", Value::from("GOOGL"))]);
        }
        b.build()
    }

    #[test]
    fn single_pass_within_budget() {
        let p = DeepParser::new(itch_spec(), 4, 3);
        let out = p.parse(&feed(3));
        assert_eq!(out.passes, 1);
        assert_eq!(out.messages.len(), 3);
        assert_eq!(out.truncated, 0);
        assert_eq!(out.stack["seq"], Value::Int(7));
        assert_eq!(out.stack["moldudp.seq"], Value::Int(7));
    }

    #[test]
    fn recirculation_passes_count() {
        let p = DeepParser::new(itch_spec(), 4, 3);
        // 10 messages, 4 per pass -> 3 passes.
        let out = p.parse(&feed(10));
        assert_eq!(out.passes, 3);
        assert_eq!(out.messages.len(), 10);
        assert_eq!(out.truncated, 0);
        // Messages arrive in packet order with correct indices.
        let idx: Vec<usize> = out.messages.iter().map(|m| m.index).collect();
        assert_eq!(idx, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn truncation_beyond_recirc_budget() {
        // Room for (1 + 1) passes of 2 messages.
        let p = DeepParser::new(itch_spec(), 2, 1);
        let out = p.parse(&feed(7));
        assert_eq!(out.messages.len(), 4);
        assert_eq!(out.truncated, 3);
        assert_eq!(out.passes, 2);
    }

    #[test]
    fn no_messages_single_pass() {
        let p = DeepParser::new(itch_spec(), 4, 3);
        let out = p.parse(&feed(0));
        assert_eq!(out.passes, 1);
        assert!(out.messages.is_empty());
        assert_eq!(out.truncated, 0);
    }

    #[test]
    fn lookup_resolution() {
        let p = DeepParser::new(itch_spec(), 4, 3);
        let out = p.parse(&feed(1));
        let m = &out.messages[0];
        assert_eq!(out.lookup(m, "price"), Some(&Value::Int(0)));
        assert_eq!(out.lookup(m, "itch_order.price"), Some(&Value::Int(0)));
        assert_eq!(out.lookup(m, "seq"), Some(&Value::Int(7)));
        assert_eq!(out.lookup(m, "nope"), None);
    }

    #[test]
    #[should_panic(expected = "PHV must hold at least one message")]
    fn zero_budget_panics() {
        DeepParser::new(itch_spec(), 0, 1);
    }
}
