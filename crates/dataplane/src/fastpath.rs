//! Slot-resolved evaluation plans: the data-plane half of the compiled
//! fast path.
//!
//! [`CompiledPipeline`] interns operands
//! to dense slot ids; [`EvalPlan::build`] resolves each slot against
//! the application [`Spec`] **once**, at install time, into byte
//! offsets. Per message, [`EvalPlan::eval`] decodes fields straight
//! from the packet buffer into a reusable slot-indexed scratch array
//! and runs the compiled pipeline — no string hashing, no per-message
//! `HashMap`, and zero steady-state heap allocations (string slots
//! reuse their buffers).
//!
//! Resolution mirrors `ParseOutcome::lookup`
//! exactly, source by source:
//!
//! 1. a field of the batched message header (bare name),
//! 2. the fixed stack — bare names when unambiguous across all
//!    headers, `header.field` paths for sequence headers; either is
//!    present only when the whole enclosing header is on the wire,
//! 3. the dotted fallback: `anything.field` reaches the message header
//!    field `field` (the interpreter ignores the prefix).
//!
//! Stack-only applications (no batched messages) consult source 2
//! alone, matching the interpreter's bare-stack evaluation.

use crate::packet::Packet;
use crate::state::StateStore;
use bytes::Bytes;
use camus_core::compiled::{ActionId, CompiledPipeline, EvalCounters};
use camus_core::pipeline::Pipeline;
use camus_lang::ast::{AggFunc, Operand};
use camus_lang::spec::Spec;
use camus_lang::value::{Type, Value};

/// Hint the cache hierarchy to pull `bytes`' first line(s) while the
/// current packet evaluates: the batch loop calls this one packet
/// ahead, hiding the DRAM latency of cold packet buffers behind useful
/// work. Advisory only — a no-op off x86_64 and on empty slices.
#[inline]
pub(crate) fn prefetch_read(bytes: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    {
        if !bytes.is_empty() {
            // Safety: _mm_prefetch never faults, even on invalid
            // addresses; the pointer is a live slice start.
            unsafe {
                use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                _mm_prefetch(bytes.as_ptr() as *const i8, _MM_HINT_T0);
                if bytes.len() > 64 {
                    _mm_prefetch(bytes.as_ptr().add(64) as *const i8, _MM_HINT_T0);
                }
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = bytes;
    }
}

/// A field of the batched message header: offset within one message.
#[derive(Debug, Clone, Copy)]
pub struct MsgRef {
    pub off: usize,
    pub len: usize,
    pub ty: Type,
}

/// A field of the fixed stack: absolute packet offset, valid only when
/// the whole enclosing header is on the wire (`pkt.len() >= header_end`
/// — a truncated header contributes no attributes, like the parser).
#[derive(Debug, Clone, Copy)]
pub struct StackRef {
    pub off: usize,
    pub len: usize,
    pub ty: Type,
    pub header_end: usize,
}

/// Where one operand's value comes from, in lookup-precedence order.
#[derive(Debug, Clone, Copy, Default)]
pub struct FieldLookup {
    pub msg: Option<MsgRef>,
    pub stack: Option<StackRef>,
    pub msg_fallback: Option<MsgRef>,
}

/// Per-slot fill strategy.
#[derive(Debug, Clone)]
pub enum SlotPlan {
    /// Decoded from packet bytes.
    Field(FieldLookup),
    /// Filled from the register file by the aggregate pass.
    Aggregate,
}

/// One aggregate stage: update the register with the input field, then
/// publish the windowed read into its value slot. Kept in pipeline
/// stage order — including duplicates — so register update counts match
/// the interpreter exactly.
#[derive(Debug, Clone)]
pub struct AggPlan {
    /// Register key (the operand key, e.g. `avg(price)`).
    pub key: String,
    pub func: AggFunc,
    /// Lookup for the aggregated field (same precedence as any field).
    pub input: FieldLookup,
    /// Slot that receives the windowed value.
    pub slot: usize,
}

/// The install-time product: slot fill plans plus packet geometry.
#[derive(Debug, Clone, Default)]
pub struct EvalPlan {
    pub slots: Vec<SlotPlan>,
    pub aggs: Vec<AggPlan>,
    /// Byte offset where batched messages start (the stack width).
    pub msg_base: usize,
    /// Width of one batched message; 0 when the spec has none.
    pub msg_width: usize,
    /// End offsets of sequence headers carrying at least one field:
    /// the packet has stack attributes iff any of these fits.
    pub stack_field_ends: Vec<usize>,
}

impl EvalPlan {
    /// Resolve every compiled slot (and every aggregate stage of the
    /// installed pipeline) against the spec.
    pub fn build(spec: &Spec, compiled: &CompiledPipeline, pipeline: &Pipeline) -> EvalPlan {
        let slots = compiled
            .slots()
            .iter()
            .map(|op| match op {
                Operand::Field(name) => SlotPlan::Field(plan_field(spec, name)),
                Operand::Aggregate { .. } => SlotPlan::Aggregate,
            })
            .collect();
        let aggs = pipeline
            .stages
            .iter()
            .filter_map(|s| match &s.operand {
                Operand::Aggregate { func, field } => Some(AggPlan {
                    key: s.operand.key(),
                    func: *func,
                    input: plan_field(spec, field),
                    slot: compiled
                        .slots()
                        .iter()
                        .position(|o| o == &s.operand)
                        .expect("every stage operand is interned"),
                }),
                Operand::Field(_) => None,
            })
            .collect();
        let msg_width =
            spec.messages.as_ref().and_then(|m| spec.header(m)).map_or(0, |h| h.width_bytes());
        let mut stack_field_ends = Vec::new();
        for name in &spec.sequence {
            if let (Some(off), Some(h)) = (spec.stack_offset(name), spec.header(name)) {
                if !h.fields.is_empty() {
                    stack_field_ends.push(off + h.width_bytes());
                }
            }
        }
        EvalPlan { slots, aggs, msg_base: spec.stack_width(), msg_width, stack_field_ends }
    }

    /// Whole batched messages in the packet (≡ `Packet::message_count`).
    pub fn message_count(&self, pkt: &Packet) -> usize {
        pkt.len().saturating_sub(self.msg_base).checked_div(self.msg_width).unwrap_or(0)
    }

    /// Byte offset of message `index`.
    pub fn msg_offset(&self, index: usize) -> usize {
        self.msg_base + index * self.msg_width
    }

    /// Egress pruning (≡ [`Packet::prune_messages`]) from the cached
    /// geometry: the stack and the kept messages (indices ascending) are
    /// staged in the reusable `buf`, then copied once into the copy's
    /// own buffer — one allocation and one memcpy per pruned copy.
    pub(crate) fn prune(
        &self,
        pkt: &Packet,
        keep: impl IntoIterator<Item = usize>,
        buf: &mut Vec<u8>,
    ) -> Packet {
        let bytes = pkt.bytes.as_slice();
        buf.clear();
        buf.extend_from_slice(&bytes[..self.msg_base.min(bytes.len())]);
        for i in keep {
            let off = self.msg_offset(i);
            if let Some(msg) = bytes.get(off..off + self.msg_width) {
                buf.extend_from_slice(msg);
            }
        }
        Packet::new(Bytes::copy_from_slice(buf))
    }

    /// Whether the packet carries any stack attributes (the parser's
    /// non-empty-stack condition for stack-only evaluation).
    pub(crate) fn stack_has_fields(&self, pkt: &Packet) -> bool {
        self.stack_field_ends.iter().any(|&end| pkt.len() >= end)
    }

    /// Whether the packet's geometry is malformed for this spec: a
    /// truncated stack, or trailing bytes that do not form a whole
    /// batched message. Such bytes are never decoded — a graceful
    /// parse miss — but the switch counts the packet.
    pub(crate) fn is_malformed(&self, pkt: &Packet) -> bool {
        if pkt.len() < self.msg_base {
            return true;
        }
        self.msg_width != 0 && !(pkt.len() - self.msg_base).is_multiple_of(self.msg_width)
    }

    /// Evaluate one message (`msg_off = Some(byte offset)`) or the bare
    /// stack (`None`) against the compiled pipeline. `values` is the
    /// reusable slot scratch (`len == compiled.slots().len()`).
    #[allow(clippy::too_many_arguments)]
    pub fn eval(
        &self,
        compiled: &CompiledPipeline,
        state: &mut StateStore,
        values: &mut [Option<Value>],
        pkt: &Packet,
        msg_off: Option<usize>,
        now_us: u64,
        counters: &mut EvalCounters,
    ) -> ActionId {
        for (slot, sp) in self.slots.iter().enumerate() {
            if let SlotPlan::Field(fl) = sp {
                fill_field(fl, pkt, msg_off, &mut values[slot]);
            }
        }
        // Aggregates: every register update lands before any read, in
        // stage order — the interpreter's update-then-read interleaving
        // reduces to this because registers are keyed per operand.
        for agg in &self.aggs {
            if let Some(v) = read_input_int(&agg.input, pkt, msg_off) {
                state.update(&agg.key, now_us, v);
            }
        }
        for agg in &self.aggs {
            let v = state.read(&agg.key, now_us, agg.func);
            set_int(&mut values[agg.slot], v);
        }
        compiled.eval_counted(values, counters)
    }
}

/// Resolve one field operand's sources against the spec.
fn plan_field(spec: &Spec, name: &str) -> FieldLookup {
    let mut fl = FieldLookup::default();
    if let Some(h) = spec.messages.as_ref().and_then(|m| spec.header(m)) {
        if let Some(f) = h.field(name) {
            fl.msg = Some(MsgRef { off: f.offset_bytes(), len: f.width_bytes(), ty: f.ty });
        }
        // The interpreter's dotted fallback strips *any* prefix.
        if let Some((_, suffix)) = name.split_once('.') {
            if let Some(f) = h.field(suffix) {
                fl.msg_fallback =
                    Some(MsgRef { off: f.offset_bytes(), len: f.width_bytes(), ty: f.ty });
            }
        }
    }
    // Stack entries exist for `header.field` paths of sequence headers
    // and for bare names that resolve unambiguously; `Spec::resolve`
    // implements both, and `stack_offset` filters to the sequence.
    if let Some((h, f)) = spec.resolve(name) {
        if let Some(base) = spec.stack_offset(&h.name) {
            fl.stack = Some(StackRef {
                off: base + f.offset_bytes(),
                len: f.width_bytes(),
                ty: f.ty,
                header_end: base + h.width_bytes(),
            });
        }
    }
    fl
}

/// Big-endian unsigned decode of up to 8 bytes (≡ `Value::decode`).
#[inline]
pub(crate) fn decode_int(bytes: &[u8]) -> i64 {
    let mut v: i64 = 0;
    for &b in bytes.iter().take(8) {
        v = (v << 8) | i64::from(b);
    }
    v
}

#[inline]
fn set_int(slot: &mut Option<Value>, x: i64) {
    match slot {
        Some(Value::Int(v)) => *v = x,
        _ => *slot = Some(Value::Int(x)),
    }
}

/// Decode a string field into the slot, reusing the slot's existing
/// buffer (≡ `Value::decode`: trailing space/NUL stripped, lossy UTF-8).
#[inline]
fn set_str(slot: &mut Option<Value>, bytes: &[u8]) {
    let end = bytes.iter().rposition(|&b| b != b' ' && b != 0).map_or(0, |p| p + 1);
    let trimmed = &bytes[..end];
    match std::str::from_utf8(trimmed) {
        Ok(s) => match slot {
            Some(Value::Str(dst)) => {
                dst.clear();
                dst.push_str(s);
            }
            _ => *slot = Some(Value::Str(s.to_owned())),
        },
        // Invalid UTF-8 is not a steady-state path for well-formed
        // traffic; match the interpreter's lossy decode.
        Err(_) => *slot = Some(Value::Str(String::from_utf8_lossy(trimmed).into_owned())),
    }
}

#[inline]
fn decode_into(slot: &mut Option<Value>, ty: Type, bytes: &[u8]) {
    match ty {
        Type::Int => set_int(slot, decode_int(bytes)),
        Type::Str => set_str(slot, bytes),
    }
}

/// Fill one slot from the first present source, or clear it.
#[inline]
fn fill_field(fl: &FieldLookup, pkt: &Packet, msg_off: Option<usize>, slot: &mut Option<Value>) {
    if let (Some(m), Some(base)) = (&fl.msg, msg_off) {
        decode_into(slot, m.ty, &pkt.bytes[base + m.off..base + m.off + m.len]);
        return;
    }
    if let Some(s) = &fl.stack {
        if pkt.len() >= s.header_end {
            decode_into(slot, s.ty, &pkt.bytes[s.off..s.off + s.len]);
            return;
        }
    }
    if let (Some(m), Some(base)) = (&fl.msg_fallback, msg_off) {
        decode_into(slot, m.ty, &pkt.bytes[base + m.off..base + m.off + m.len]);
        return;
    }
    *slot = None;
}

/// Read an aggregate's input as an integer: the first present source
/// decides — a string-typed hit yields no update, like the
/// interpreter's `if let Some(Value::Int(v))` gate.
#[inline]
fn read_input_int(fl: &FieldLookup, pkt: &Packet, msg_off: Option<usize>) -> Option<i64> {
    if let (Some(m), Some(base)) = (&fl.msg, msg_off) {
        return (m.ty == Type::Int)
            .then(|| decode_int(&pkt.bytes[base + m.off..base + m.off + m.len]));
    }
    if let Some(s) = &fl.stack {
        if pkt.len() >= s.header_end {
            return (s.ty == Type::Int).then(|| decode_int(&pkt.bytes[s.off..s.off + s.len]));
        }
    }
    if let (Some(m), Some(base)) = (&fl.msg_fallback, msg_off) {
        return (m.ty == Type::Int)
            .then(|| decode_int(&pkt.bytes[base + m.off..base + m.off + m.len]));
    }
    None
}

/// Per-switch evaluation scratch reused across packets (allocation-free
/// once warm).
#[derive(Debug, Clone, Default)]
pub(crate) struct EvalScratch {
    /// Slot-indexed values for the message under evaluation.
    pub values: Vec<Option<Value>>,
}

impl EvalScratch {
    /// Resize for a freshly installed pipeline.
    pub(crate) fn reset(&mut self, slot_count: usize) {
        self.values.clear();
        self.values.resize(slot_count, None);
    }
}
