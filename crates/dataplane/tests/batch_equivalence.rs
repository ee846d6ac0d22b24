//! Differential equivalence of the batch drivers.
//!
//! The sharded throughput driver feeds [`Switch::process_batch_indexed`]
//! with global packet indices; correctness of everything it reports
//! rests on three identities, pinned here on *stateful* rule sets whose
//! tumbling-window aggregates span batch boundaries:
//!
//! * `process_batch_indexed` over any chunking of a packet stream is
//!   byte-identical to driving [`Switch::process`] packet-by-packet at
//!   the same global timestamps — batching is a driver optimisation,
//!   never a semantic change;
//! * both agree with [`Switch::process_reference`], the interpreted
//!   oracle, on every egress copy (port and bytes) and on actions;
//! * a caller-owned output reused across batches of any length holds,
//!   slot for slot, what [`Switch::process`] returns for each packet —
//!   slots are overwritten in place, never left stale;
//! * per-shard switches driven over a partition of the stream produce
//!   stats that [`SwitchStats::merge`] sums to the single-core totals
//!   (for stateless rules, where partitioning cannot change per-message
//!   outcomes).
//!
//! Streams arrive on any of the forward ports (the logical up port
//! `u16::MAX` included) with any of them marked down, and a port marked
//! down stays suppressed across program swaps that change the port
//! table its mask is a row of.

use camus_core::compiler::Compiler;
use camus_core::statics::compile_static;
use camus_dataplane::packet::{Packet, PacketBuilder};
use camus_dataplane::switch::{Switch, SwitchConfig, SwitchOutput, SwitchStats};
use camus_lang::ast::Port;
use camus_lang::parser::parse_rules;
use camus_lang::spec::itch_spec;
use camus_lang::value::Value;
use proptest::prelude::*;

/// The logical up port.
const UP: Port = u16::MAX;

fn itch_switch(rules: &str) -> Switch {
    let statics = compile_static(&itch_spec()).unwrap();
    let rules = parse_rules(rules).unwrap();
    let compiled = Compiler::new().with_static(statics.clone()).compile(&rules).unwrap();
    Switch::new(&statics, compiled.pipeline, SwitchConfig::default())
}

/// Stateful rules: the `avg(price)` aggregate makes every forwarding
/// decision depend on the whole history of timestamps seen so far, so
/// any batching bug that perturbs timestamps shows up as a port
/// divergence. The default window is 100 μs and timestamps advance
/// 1 μs per packet, so a ~200-packet stream tumbles the window twice.
fn stateful_switch() -> Switch {
    itch_switch(
        "stock == GOOGL and avg(price) > 60: fwd(1)\n\
         price > 500: fwd(2, 65535)\n\
         stock == MSFT and count(price) > 3: fwd(3)\n",
    )
}

/// Stateless rules, for the shard-sum identity (per-shard state
/// registers legitimately differ from a single switch's, so the
/// stats-sum identity holds only without aggregates).
fn stateless_switch() -> Switch {
    itch_switch(
        "stock == GOOGL: fwd(1)\n\
         price > 500: fwd(2, 65535)\n",
    )
}

/// A packet batching one message per `(symbol, price)` order.
fn packet<S: AsRef<str>>(orders: &[(S, i64)]) -> Packet {
    let spec = itch_spec();
    let mut b = PacketBuilder::new(&spec);
    for (stock, price) in orders {
        b = b.message(vec![("stock", Value::from(stock.as_ref())), ("price", Value::Int(*price))]);
    }
    b.build()
}

fn arb_symbol() -> impl Strategy<Value = String> {
    prop_oneof![Just("GOOGL".to_string()), Just("MSFT".to_string()), Just("AAPL".to_string()),]
}

/// One of the rules' forward ports, the up port included.
fn arb_forward_port() -> impl Strategy<Value = Port> {
    prop_oneof![Just(1), Just(2), Just(3), Just(UP)]
}

/// A stream of packets of one to three (symbol, price) orders — so
/// egress copies are pruned whenever a packet's messages part ways —
/// long enough that the 100 μs default window tumbles mid-stream. Each
/// packet arrives on port 0 (no rule forwards there) or on a forward
/// port, which its copies must then skip.
fn arb_stream() -> impl Strategy<Value = Vec<(Vec<(String, i64)>, Port)>> {
    let ingress = prop_oneof![2 => Just(0), 1 => arb_forward_port()];
    prop::collection::vec(
        (prop::collection::vec((arb_symbol(), 0i64..1_000), 1..4), ingress),
        1..220,
    )
}

/// Up to two forward ports marked down.
fn arb_down() -> impl Strategy<Value = Vec<Port>> {
    prop::collection::vec(arb_forward_port(), 0..3)
}

fn packets(stream: &[(Vec<(String, i64)>, Port)]) -> Vec<(Packet, Port)> {
    stream.iter().map(|(orders, ingress)| (packet(orders), *ingress)).collect()
}

fn with_down(mut sw: Switch, down: &[Port]) -> Switch {
    for &port in down {
        sw.set_port_down(port, true);
    }
    sw
}

fn ports_of(out: &SwitchOutput) -> Vec<Port> {
    out.ports.iter().map(|(p, _)| *p).collect()
}

/// Drive `pkts` through `process_batch_indexed` in `chunk`-sized
/// batches with global indices, returning every output in order.
fn drive_batched(sw: &mut Switch, pkts: &[(Packet, Port)], chunk: usize) -> Vec<SwitchOutput> {
    let mut all = Vec::with_capacity(pkts.len());
    let mut out = Vec::new();
    let mut idx = 0u64;
    for c in pkts.chunks(chunk.max(1)) {
        sw.process_batch_indexed(c, idx, &mut out);
        idx += c.len() as u64;
        all.append(&mut out);
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Batched ≡ sequential ≡ reference on stateful streams, for every
    /// chunking — including chunk sizes that split aggregate windows
    /// across batch boundaries.
    #[test]
    fn batch_matches_sequential_and_reference(
        stream in arb_stream(),
        chunk in 1usize..70,
        down in arb_down(),
    ) {
        let pkts = packets(&stream);
        let base = with_down(stateful_switch(), &down);

        let mut batched = base.clone();
        let outs_batch = drive_batched(&mut batched, &pkts, chunk);

        let mut seq = base.clone();
        let outs_seq: Vec<SwitchOutput> =
            pkts.iter().enumerate().map(|(i, (p, port))| seq.process(p, *port, i as u64)).collect();

        let mut oracle = base.clone();
        let outs_ref: Vec<SwitchOutput> = pkts
            .iter()
            .enumerate()
            .map(|(i, (p, port))| oracle.process_reference(p, *port, i as u64))
            .collect();

        for (i, ((b, s), r)) in outs_batch.iter().zip(&outs_seq).zip(&outs_ref).enumerate() {
            prop_assert_eq!(b.ports.clone(), s.ports.clone(), "batch/seq ports @ {}", i);
            prop_assert_eq!(&b.actions, &s.actions, "batch/seq actions @ {}", i);
            prop_assert_eq!(b.ports.clone(), r.ports.clone(), "batch/reference copies @ {}", i);
            prop_assert_eq!(&b.actions, &r.actions, "batch/reference actions @ {}", i);
        }
        // Everything but the batching shape matches the per-packet
        // drive exactly.
        prop_assert_eq!(
            batched.stats().forwarding_stats(),
            seq.stats().forwarding_stats()
        );
        // And the drop attribution agrees with the oracle's.
        let drops = |s: SwitchStats| {
            (s.copies, s.dropped_messages, s.dropped_no_route, s.dropped_port_down)
        };
        prop_assert_eq!(drops(batched.stats()), drops(oracle.stats()));
    }

    /// Per-shard stats over any contiguous partition of a stateless
    /// stream merge to the single-core totals.
    #[test]
    fn shard_stats_sum_to_single_core(
        stream in arb_stream(),
        shards in 1usize..9,
        down in arb_down(),
    ) {
        let pkts = packets(&stream);
        let base = with_down(stateless_switch(), &down);

        let mut single = base.clone();
        drive_batched(&mut single, &pkts, 64);

        let chunk = pkts.len().div_ceil(shards).max(1);
        let mut merged = SwitchStats::default();
        for (u, slice) in pkts.chunks(chunk).enumerate() {
            let mut sw = base.clone();
            let mut out = Vec::new();
            sw.process_batch_indexed(slice, (u * chunk) as u64, &mut out);
            merged.merge(&sw.stats());
        }
        prop_assert_eq!(
            merged.forwarding_stats(),
            single.stats().forwarding_stats(),
            "sharded counters diverged from the single-core run"
        );
        prop_assert_eq!(merged.packets, pkts.len() as u64);
    }
}

/// The window-tumble boundary case, deterministically: the aggregate
/// register must see the same global timestamps whether the stream is
/// driven in one batch or split exactly at the tumble.
#[test]
fn window_spanning_batches_agree_with_sequential() {
    // 150 MSFT orders: `count(price) > 3` opens the gate at the 4th
    // packet of each window, and the window tumbles at ts = 100,
    // resetting the count so packets 100..103 are *not* forwarded.
    // Any driver that restarts timestamps at a batch boundary (or
    // pins them to one time per batch) tumbles at the wrong packets.
    let pkts: Vec<(Packet, Port)> = (0..150).map(|_| (packet(&[("MSFT", 10)]), 0)).collect();
    let base = stateful_switch();

    let mut seq = base.clone();
    let seq_ports: Vec<Vec<Port>> = pkts
        .iter()
        .enumerate()
        .map(|(i, (p, port))| ports_of(&seq.process(p, *port, i as u64)))
        .collect();

    for chunk in [1usize, 7, 64, 100, 150] {
        let mut batched = base.clone();
        let got: Vec<Vec<Port>> =
            drive_batched(&mut batched, &pkts, chunk).iter().map(ports_of).collect();
        assert_eq!(got, seq_ports, "chunk size {chunk} diverged");
    }
}

/// One output `Vec` driven through batches of 64, 7, 64, 1 and 0
/// packets on a rule set that prunes, raises a custom action and
/// recirculates: after every batch, `out` holds exactly one slot per
/// packet, each equal to `process` run packet by packet. A slot left
/// over from a longer batch, or a copy or action surviving from the
/// packet a slot held before, fails here.
#[test]
fn reused_output_slots_equal_per_packet_processing() {
    let base = itch_switch(
        "stock == GOOGL and avg(price) > 60: fwd(1)\n\
         price > 500: fwd(2)\n\
         stock == MSFT: fwd(3)\n\
         stock == FB and price < 100: mirror(9)\n",
    );

    let symbols = ["GOOGL", "MSFT", "AAPL", "FB"];
    let stream: Vec<(Packet, Port)> = (0..136usize)
        .map(|i| {
            // 1..=6 messages: beyond four, the packet recirculates.
            let orders: Vec<(&str, i64)> = (0..1 + (i * 5) % 6)
                .map(|m| {
                    let k = i * 3 + m * 7;
                    (symbols[k % 4], (k * 131 % 1_000) as i64)
                })
                .collect();
            (packet(&orders), (i % 3) as Port)
        })
        .collect();

    let (mut batched, mut seq) = (base.clone(), base);
    let mut out = Vec::new();
    let mut next = 0;
    for len in [64usize, 7, 64, 1, 0] {
        let chunk = &stream[next..next + len];
        batched.process_batch_indexed(chunk, next as u64, &mut out);
        assert_eq!(out.len(), len, "one slot per packet of a {len}-packet batch");
        for (j, (pkt, ingress)) in chunk.iter().enumerate() {
            let want = seq.process(pkt, *ingress, (next + j) as u64);
            let got = &out[j];
            assert_eq!(got.ports, want.ports, "copies @ packet {}", next + j);
            assert_eq!(got.actions, want.actions, "actions @ packet {}", next + j);
            assert_eq!((got.latency_ns, got.passes), (want.latency_ns, want.passes));
        }
        next += len;
    }
    let stats = seq.stats();
    assert!(stats.deep_copies > 0 && stats.shared_copies > 0, "{stats:?}");
    assert!(stats.recirculation_passes > 0, "{stats:?}");
    assert_eq!(batched.stats().forwarding_stats(), stats.forwarding_stats());
}

/// A port marked down stays suppressed while the live program changes
/// under it: commits and reverts between programs whose port tables
/// differ, so the port's bit moves or vanishes. The fast path agrees
/// with the reference on every copy and on every drop counter, and
/// bringing the port back up resumes forwarding on the program then
/// live.
#[test]
fn port_down_survives_program_swaps() {
    let table_a = "stock == GOOGL: fwd(2, 65535)\nprice > 500: fwd(5)\n";
    let table_b = "stock == GOOGL: fwd(1, 65535)\nstock == MSFT: fwd(3, 7)\n";
    let table_c = "price > 100: fwd(65535)\nstock == MSFT: fwd(2)\n";
    let (b, c) = (itch_switch(table_b), itch_switch(table_c));
    let mut fast = itch_switch(table_a);
    assert_eq!(fast.program().ports(), &[2, 5, UP]);
    assert_eq!(b.program().ports(), &[1, 3, 7, UP]);
    assert_eq!(c.program().ports(), &[2, UP]);
    fast.set_port_down(UP, true);
    fast.set_port_down(2, true);
    let mut reference = fast.clone();

    let pkts: Vec<Packet> = [
        vec![("GOOGL", 600), ("MSFT", 700)],
        vec![("MSFT", 50), ("AAPL", 900), ("GOOGL", 20)],
        vec![("GOOGL", 10)],
    ]
    .iter()
    .map(|orders| packet(orders))
    .collect();
    let mut now = 0u64;
    let mut check = |fast: &mut Switch, reference: &mut Switch| -> Vec<Port> {
        let before = fast.stats().dropped_port_down;
        let mut seen = Vec::new();
        for pkt in &pkts {
            let (f, r) = (fast.process(pkt, 0, now), reference.process_reference(pkt, 0, now));
            assert_eq!(f.ports, r.ports, "copies @ t = {now}");
            seen.extend(ports_of(&f));
            now += 1;
        }
        let drops = |s: SwitchStats| {
            (s.copies, s.dropped_messages, s.dropped_no_route, s.dropped_port_down)
        };
        assert_eq!(drops(fast.stats()), drops(reference.stats()));
        assert!(fast.stats().dropped_port_down > before, "a down port lost a decision");
        seen
    };

    let seen = check(&mut fast, &mut reference);
    assert!(!seen.contains(&UP) && !seen.contains(&2), "{seen:?}");
    for sw in [&mut fast, &mut reference] {
        sw.stage(b.pipeline().clone()).unwrap();
        assert!(sw.commit_staged());
    }
    let seen = check(&mut fast, &mut reference);
    assert!(!seen.contains(&UP) && seen.contains(&1), "{seen:?}");
    for sw in [&mut fast, &mut reference] {
        assert!(sw.revert_committed());
    }
    let seen = check(&mut fast, &mut reference);
    assert!(!seen.contains(&UP) && seen.contains(&5), "{seen:?}");
    for sw in [&mut fast, &mut reference] {
        sw.install(c.pipeline().clone());
    }
    let seen = check(&mut fast, &mut reference);
    assert!(!seen.contains(&UP) && !seen.contains(&2), "{seen:?}");

    fast.set_port_down(UP, false);
    reference.set_port_down(UP, false);
    let (f, r) = (fast.process(&pkts[0], 0, 99), reference.process_reference(&pkts[0], 0, 99));
    assert_eq!(f.ports, r.ports);
    assert_eq!(ports_of(&f), vec![UP], "port 2 is still down");
}
