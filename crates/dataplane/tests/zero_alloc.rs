//! Steady-state allocation audit for the compiled fast path.
//!
//! A counting global allocator wraps `System`; after warming the
//! switch (scratch slots sized, string buffers grown, aggregate
//! registers created), repeated `Switch::process` calls on drop-path
//! packets must perform **zero** heap allocations. Forwarded packets
//! allocate exactly their output: one buffer per distinct pruned copy
//! (counted by `SwitchStats::deep_copies`; an unpruned copy shares the
//! input buffer, and ports keeping the same messages share one pruned
//! buffer), plus the port vector `Switch::process` returns —
//! `process_batch_indexed` into a reused output overwrites its slots
//! in place and allocates the pruned buffers alone. The allocator also
//! counts bytes: a switch forwarding to the logical up port
//! (`u16::MAX`) must warm up in kilobytes, not in a table indexed by
//! port number.
//!
//! This file holds exactly one `#[test]`: the allocator counter is
//! global, so a second concurrently running test would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use camus_core::compiler::Compiler;
use camus_core::statics::compile_static;
use camus_dataplane::packet::{Packet, PacketBuilder};
use camus_dataplane::switch::{Switch, SwitchConfig, SwitchOutput};
use camus_dataplane::telemetry::SwitchTelemetry;
use camus_lang::ast::Port;
use camus_lang::parser::parse_rules;
use camus_lang::spec::itch_spec;
use camus_lang::value::Value;
use camus_telemetry::metrics::{MetricsRegistry, SampleRate};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn alloc_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}

#[test]
fn steady_state_process_does_not_allocate() {
    let spec = itch_spec();
    let statics = compile_static(&spec).unwrap();
    let rules = parse_rules(
        "stock == GOOGL and avg(price) > 5: fwd(1)\n\
         price > 900: fwd(2)\n\
         stock == MSFT: fwd(3)\n",
    )
    .unwrap();
    let compiled = Compiler::new().with_static(statics.clone()).compile(&rules).unwrap();
    let mut sw = Switch::new(&statics, compiled.pipeline, SwitchConfig::default());

    let order =
        |stock: &str, price: i64| vec![("stock", Value::from(stock)), ("price", Value::Int(price))];
    // No rule matches any of these messages: pure evaluation, no output.
    let drop_pkt = PacketBuilder::new(&spec)
        .message(order("ZZZZ", 10))
        .message(order("YYYY", 20))
        .message(order("XXXX", 30))
        .build();
    // Both messages match (multicast on the second): output assembly runs.
    let fwd_pkt =
        PacketBuilder::new(&spec).message(order("GOOGL", 99)).message(order("MSFT", 950)).build();

    // Warm up: size the slot scratch's string buffers, create the
    // aggregate registers, and grow the replication scratch.
    for _ in 0..32 {
        sw.process(&drop_pkt, 0, 5);
        sw.process(&fwd_pkt, 0, 5);
    }

    // Drop path: strictly zero heap traffic per packet.
    let before = allocs();
    for _ in 0..500 {
        let out = sw.process(&drop_pkt, 0, 5);
        assert!(out.ports.is_empty());
    }
    assert_eq!(allocs() - before, 0, "drop-path processing must not allocate");

    // Matching path: evaluation contributes nothing. Each of the three
    // copies keeps one of two messages, and ports 2 and 3 keep the same
    // one, so `process` allocates its port vector and two pruned
    // buffers — exactly three.
    let (before, deep_before, shared_before) =
        (allocs(), sw.stats().deep_copies, sw.stats().shared_copies);
    let rounds = 500u64;
    for _ in 0..rounds {
        let out = sw.process(&fwd_pkt, 0, 5);
        assert_eq!(out.ports.len(), 3, "actions: {:?}", out.actions);
        assert!(out.ports.iter().map(|(p, _)| *p).eq([1, 2, 3]));
    }
    let deep = sw.stats().deep_copies - deep_before;
    assert_eq!(deep, 2 * rounds);
    assert_eq!(sw.stats().shared_copies - shared_before, rounds);
    assert_eq!(allocs() - before, 3 * rounds, "matching path: port vector + pruned buffers");

    // Forwarding up: the logical up port is `u16::MAX`. Warming such a
    // switch must cost what its packets need, not a table indexed by
    // port number (≥ 1.5 MiB of list headers).
    let up_rules = parse_rules("stock == GOOGL: fwd(1, 65535)\nprice > 500: fwd(65535)\n").unwrap();
    let up_compiled = Compiler::new().with_static(statics.clone()).compile(&up_rules).unwrap();
    let mut up = Switch::new(&statics, up_compiled.pipeline, SwitchConfig::default());
    let before = alloc_bytes();
    for _ in 0..32 {
        up.process(&drop_pkt, 0, 5);
        let out = up.process(&fwd_pkt, 0, 5);
        assert!(out.ports.iter().map(|(p, _)| *p).eq([1, u16::MAX]));
    }
    let warm_up = alloc_bytes() - before;
    assert!(warm_up < 64 << 10, "up-port warm-up allocated {warm_up} bytes");

    // Fan-out: multi-message packets, each pruned differently on
    // several ports, and one port that keeps everything (a shared copy).
    let fan_rules = parse_rules(
        "stock == GOOGL: fwd(1)\n\
         stock == MSFT: fwd(2)\n\
         price > 500: fwd(3)\n\
         shares < 10: fwd(4)\n\
         price >= 0: fwd(5)\n",
    )
    .unwrap();
    let fan_compiled = Compiler::new().with_static(statics.clone()).compile(&fan_rules).unwrap();
    let mut fan = Switch::new(&statics, fan_compiled.pipeline, SwitchConfig::default());
    let symbols = ["GOOGL", "MSFT", "AAPL", "FB"];
    let batch: Vec<(Packet, Port)> = (0..24usize)
        .map(|i| {
            let mut b = PacketBuilder::new(&spec).stack_field("moldudp", "seq", i as i64);
            for m in 0..2 + i % 4 {
                let k = i * 7 + m * 3;
                b = b.message(vec![
                    ("stock", Value::from(symbols[k % 4])),
                    ("price", Value::Int((k * 97 % 1_000) as i64)),
                    ("shares", Value::Int((k % 20) as i64)),
                ]);
            }
            (b.build(), 0)
        })
        .collect();
    let mut out = Vec::new();
    fan.process_batch_indexed(&batch, 0, &mut out);
    let distinct_copies = |o: &SwitchOutput| {
        let mut lens: Vec<usize> = o.ports.iter().map(|(_, c)| c.len()).collect();
        lens.sort_unstable();
        lens.dedup();
        lens.len()
    };
    assert!(out.iter().all(|o| !o.ports.is_empty()), "every packet leaves through port 5");
    assert!(out.iter().any(|o| distinct_copies(o) >= 3), "copies pruned differently per port");
    for _ in 0..8 {
        fan.process_batch_indexed(&batch, 0, &mut out);
        for (i, (pkt, ingress)) in batch.iter().enumerate() {
            fan.process(pkt, *ingress, i as u64);
        }
    }

    // Batched into a reused `out`: the slots are overwritten in place,
    // so the only allocations are the pruned copies' buffers.
    let (before, deep_before, shared_before) =
        (allocs(), fan.stats().deep_copies, fan.stats().shared_copies);
    for _ in 0..rounds {
        fan.process_batch_indexed(&batch, 0, &mut out);
    }
    let deep = fan.stats().deep_copies - deep_before;
    assert!(deep > 0 && fan.stats().shared_copies > shared_before);
    assert_eq!(allocs() - before, deep, "batched fan-out: one allocation per pruned copy");

    // Packet by packet: each call adds the port vector it returns.
    let (before, deep_before) = (allocs(), fan.stats().deep_copies);
    for _ in 0..rounds {
        for (i, (pkt, ingress)) in batch.iter().enumerate() {
            std::hint::black_box(fan.process(pkt, *ingress, i as u64));
        }
    }
    let deep = fan.stats().deep_copies - deep_before;
    assert_eq!(
        allocs() - before,
        rounds * batch.len() as u64 + deep,
        "per-packet fan-out: port vector + one allocation per pruned copy"
    );

    // Telemetry attached but disabled: the hot path gains one sampler
    // tick and must stay strictly allocation-free.
    let registry = MetricsRegistry::new();
    sw.attach_telemetry(SwitchTelemetry::new(&registry, SampleRate::DISABLED));
    for _ in 0..32 {
        sw.process(&drop_pkt, 0, 5);
    }
    let before = allocs();
    for _ in 0..500 {
        let out = sw.process(&drop_pkt, 0, 5);
        assert!(out.ports.is_empty());
    }
    assert_eq!(allocs() - before, 0, "disabled-telemetry drop path must not allocate");

    // Telemetry at full rate: the counter is a lock-free atomic, so
    // even the every-packet-sampled path allocates nothing.
    sw.attach_telemetry(SwitchTelemetry::new(&registry, SampleRate::always()));
    for _ in 0..32 {
        sw.process(&drop_pkt, 0, 5);
    }
    let before = allocs();
    for _ in 0..500 {
        let out = sw.process(&drop_pkt, 0, 5);
        assert!(out.ports.is_empty());
    }
    assert_eq!(allocs() - before, 0, "sampled-telemetry drop path must not allocate");
    assert!(registry.snapshot().counters["switch.sampled_packets"] >= 500);
}
