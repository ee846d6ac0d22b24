//! Adversarial wire-input fuzzing for the compiled fast path and the
//! interpreted reference path.
//!
//! A switch must treat packet bytes as hostile: truncated frames,
//! bit-flipped headers and pure byte soup arrive on real wires. The
//! properties:
//!
//! * neither `Switch::process` (compiled fast path, [`EvalPlan`]) nor
//!   `Switch::process_reference` (interpreted map path) ever panics
//!   or reads out of bounds on mangled input — a malformed packet is a
//!   graceful parse miss, not a crash;
//! * both paths forward the *same* copies (ports and bytes) and raise
//!   the same actions on the same mangled bytes (the fast path may not
//!   diverge just because the input is garbage), and count the same
//!   forwarding stats, `SwitchStats::malformed` included;
//! * each path evaluates exactly the packet's whole units: its whole
//!   messages under ITCH, which has a `messages` header, and its whole
//!   stack under INT, which has none. A heartbeat (a stack and no
//!   message) and a cut stack carry no unit.
//!
//! [`EvalPlan`]: camus_dataplane::EvalPlan

use camus_core::compiler::Compiler;
use camus_core::statics::compile_static;
use camus_dataplane::packet::{Packet, PacketBuilder};
use camus_dataplane::switch::{Switch, SwitchConfig, SwitchStats};
use camus_lang::parser::parse_rules;
use camus_lang::spec::{int_spec, itch_spec, Spec};
use camus_lang::value::Value;
use proptest::prelude::*;

fn switch(spec: &Spec, rules: &str) -> Switch {
    let statics = compile_static(spec).unwrap();
    let rules = parse_rules(rules).unwrap();
    let compiled = Compiler::new().with_static(statics.clone()).compile(&rules).unwrap();
    Switch::new(&statics, compiled.pipeline, SwitchConfig::default())
}

fn fuzz_switch() -> Switch {
    switch(
        &itch_spec(),
        "stock == GOOGL: fwd(1)\n\
         price > 500: fwd(2)\n\
         stock == MSFT and price > 100: fwd(3)\n\
         seq == 3: fwd(4)\n",
    )
}

fn int_switch() -> Switch {
    switch(
        &int_spec(),
        "switch_id == 2: fwd(1)\n\
         hop_latency > 100: fwd(2)\n\
         flow_id == 7 and q_occupancy < 50: fwd(3)\n",
    )
}

/// A well-formed ITCH packet batching `msgs` (possibly none).
fn valid_packet(msgs: &[(String, i64)]) -> Packet {
    let spec = itch_spec();
    let mut b = PacketBuilder::new(&spec).stack_field("moldudp", "seq", msgs.len() as i64);
    for (stock, price) in msgs {
        b = b.message(vec![("stock", Value::from(stock.as_str())), ("price", Value::Int(*price))]);
    }
    b.build()
}

/// A well-formed INT report.
fn int_packet(switch_id: i64, hop_latency: i64, q_occupancy: i64, flow_id: i64) -> Packet {
    PacketBuilder::new(&int_spec())
        .stack_field("int_report", "switch_id", switch_id)
        .stack_field("int_report", "hop_latency", hop_latency)
        .stack_field("int_report", "q_occupancy", q_occupancy)
        .stack_field("int_report", "flow_id", flow_id)
        .build()
}

/// The first `cut` bytes of `pkt` (all of it when `cut` is longer).
fn cut(pkt: &Packet, cut: usize) -> Packet {
    Packet::new(pkt.bytes[..cut.min(pkt.len())].into())
}

fn arb_symbol() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("GOOGL".to_string()),
        Just("MSFT".to_string()),
        Just("A".to_string()),
        Just("ZZZZZZZZ".to_string())
    ]
}

/// Zero to eight orders: zero is a heartbeat.
fn arb_msgs() -> impl Strategy<Value = Vec<(String, i64)>> {
    prop::collection::vec((arb_symbol(), -1_000i64..10_000), 0..9)
}

/// The whole units of `len` bytes under `spec`, from its header widths
/// alone: whole messages after the stack, or one whole stack when the
/// spec has no `messages` header.
fn whole_units(spec: &Spec, len: usize) -> u64 {
    let width = |h: &String| spec.header(h).unwrap().width_bytes();
    let stack: usize = spec.sequence.iter().map(width).sum();
    match &spec.messages {
        Some(m) => (len.saturating_sub(stack) / width(m)) as u64,
        None => u64::from(len >= stack),
    }
}

/// The counters both paths keep: what was forwarded, and how.
fn forwarding(s: SwitchStats) -> SwitchStats {
    SwitchStats {
        stage_hits: 0,
        stage_misses: 0,
        entries_scanned: 0,
        shared_copies: 0,
        deep_copies: 0,
        ..s.forwarding_stats()
    }
}

/// Both paths, same bytes: no panics, identical copies, actions and
/// forwarding stats, and one evaluation per whole unit. The default
/// budget extracts 16 units, more than any draw carries.
fn check_both_paths(fast: &mut Switch, reference: &mut Switch, pkt: &Packet) {
    let a = fast.process(pkt, 0, 7);
    let b = reference.process_reference(pkt, 0, 7);
    assert_eq!(a.ports, b.ports, "fast/reference egress divergence on {:?}", &pkt.bytes[..]);
    assert_eq!(a.actions, b.actions, "fast/reference action divergence");
    assert_eq!(forwarding(fast.stats()), forwarding(reference.stats()), "stats divergence");
    let units = whole_units(fast.spec(), pkt.len());
    assert_eq!(fast.stats().messages, units, "evaluations of {:?}", &pkt.bytes[..]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// ITCH packets of zero to eight messages, each cut at a random
    /// length: graceful miss, never a panic, and the two paths agree
    /// byte-for-byte.
    #[test]
    fn truncated_packets_never_panic(msgs in arb_msgs(), len in 0usize..200) {
        let pkt = cut(&valid_packet(&msgs), len);
        check_both_paths(&mut fuzz_switch(), &mut fuzz_switch(), &pkt);
    }

    /// INT reports cut at a random length: only a whole report is a
    /// unit.
    #[test]
    fn truncated_int_packets_never_panic(
        fields in (0i64..4, 0i64..200, 0i64..100, 0i64..10),
        len in 0usize..24,
    ) {
        let (switch_id, hop_latency, q_occupancy, flow_id) = fields;
        let pkt = cut(&int_packet(switch_id, hop_latency, q_occupancy, flow_id), len);
        check_both_paths(&mut int_switch(), &mut int_switch(), &pkt);
    }

    /// Random bit flips anywhere in the frame (header, type tags,
    /// lengths, payload): no panics, no divergence.
    #[test]
    fn bit_flipped_packets_never_panic(
        msgs in arb_msgs(),
        flips in prop::collection::vec((0usize..400, 0u8..8), 1..16),
    ) {
        let good = valid_packet(&msgs);
        let mut bytes = good.bytes.to_vec();
        for (pos, bit) in flips {
            let i = pos % bytes.len();
            bytes[i] ^= 1 << bit;
        }
        let pkt = Packet::new(bytes[..].into());
        check_both_paths(&mut fuzz_switch(), &mut fuzz_switch(), &pkt);
    }

    /// Pure byte soup — not even a mangled valid frame.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let pkt = Packet::new(bytes[..].into());
        check_both_paths(&mut fuzz_switch(), &mut fuzz_switch(), &pkt);
        check_both_paths(&mut int_switch(), &mut int_switch(), &pkt);
    }
}

#[test]
fn one_byte_truncation_counts_as_malformed() {
    let good = valid_packet(&[("GOOGL".to_string(), 600)]);
    let short = Packet::new(good.bytes[..good.len() - 1].into());
    let mut sw = fuzz_switch();
    sw.process(&good, 0, 1);
    assert_eq!(sw.stats().malformed, 0, "well-formed packet flagged malformed");
    sw.process(&short, 0, 2);
    assert_eq!(sw.stats().malformed, 1, "ragged tail must be counted");
    let mut reference = fuzz_switch();
    reference.process_reference(&good, 0, 1);
    reference.process_reference(&short, 0, 2);
    assert_eq!(reference.stats().malformed, 1, "reference path counts identically");
}

#[test]
fn malformed_input_leaves_switch_usable() {
    // After a storm of garbage, a valid packet still forwards normally.
    let mut sw = fuzz_switch();
    for n in 0..64usize {
        let soup: Vec<u8> = (0..n * 5).map(|i| (i * 37 + n) as u8).collect();
        sw.process(&Packet::new(soup[..].into()), 0, 3);
    }
    let good = valid_packet(&[("GOOGL".to_string(), 10)]);
    let out = sw.process(&good, 0, 4);
    let ports: Vec<u16> = out.ports.iter().map(|(p, _)| *p).collect();
    assert_eq!(ports, vec![1], "GOOGL order must still forward to port 1");
}
