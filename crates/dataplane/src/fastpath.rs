//! Slot-resolved evaluation plans: the data-plane half of the compiled
//! fast path.
//!
//! [`CompiledPipeline`] interns operands
//! to dense slot ids; [`EvalPlan::build`] resolves each slot against
//! the application [`Spec`] **once**, at install time, into byte
//! offsets ([`Spec::locate`]). Per unit ([`Framing::units`]: a whole
//! message, or the whole stack of a spec without messages),
//! [`EvalPlan::eval`] decodes fields straight from the packet buffer
//! into a reusable slot-indexed scratch array and runs the compiled
//! pipeline — no string hashing, no per-message `HashMap`, and zero
//! steady-state heap allocations (string slots reuse their buffers).

use crate::packet::Packet;
use crate::state::StateStore;
use bytes::Bytes;
use camus_core::compiled::{ActionId, CompiledPipeline, EvalCounters};
use camus_core::pipeline::Pipeline;
use camus_lang::ast::{AggFunc, Operand};
use camus_lang::spec::{FieldSource, Framing, Spec};
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

/// Where one operand's bytes lie in an evaluation unit, resolved once
/// by [`Spec::locate`].
#[derive(Debug, Clone, Copy)]
enum FieldLookup {
    /// The spec names no such field: the slot reads absent.
    Absent,
    /// `len` bytes at `off` within each batched message.
    Message { off: usize, len: usize, ty: Type },
    /// `len` bytes at absolute offset `off`, in the fixed stack.
    Stack { off: usize, len: usize, ty: Type },
}

impl FieldLookup {
    /// The field's bytes in the unit at `msg_off` (`None`: the stack
    /// unit), or `None` when the unit has no such field.
    #[inline]
    fn bytes<'p>(&self, pkt: &'p Packet, msg_off: Option<usize>) -> Option<(&'p [u8], Type)> {
        let (off, len, ty) = match *self {
            FieldLookup::Message { off, len, ty } => (msg_off? + off, len, ty),
            FieldLookup::Stack { off, len, ty } => (off, len, ty),
            FieldLookup::Absent => return None,
        };
        Some((pkt.bytes.get(off..off + len)?, ty))
    }
}

/// Per-slot fill strategy.
#[derive(Debug, Clone)]
enum SlotPlan {
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
struct AggPlan {
    /// Register key (the operand key, e.g. `avg(price)`).
    key: String,
    func: AggFunc,
    /// Where the aggregated field lies.
    input: FieldLookup,
    /// Slot that receives the windowed value.
    slot: usize,
}

/// The install-time product: slot fill plans plus packet geometry.
#[derive(Debug, Clone, Default)]
pub struct EvalPlan {
    slots: Vec<SlotPlan>,
    aggs: Vec<AggPlan>,
    /// The spec's packet geometry, cached: it decides the units.
    pub framing: Framing,
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
        EvalPlan { slots, aggs, framing: spec.framing() }
    }

    /// Whole batched messages in the packet (≡ `Packet::message_count`).
    pub fn message_count(&self, pkt: &Packet) -> usize {
        self.framing.messages(pkt.len())
    }

    /// Byte offset of message `index`.
    pub fn msg_offset(&self, index: usize) -> usize {
        self.framing.stack + index * self.framing.message.unwrap_or(0)
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
        let width = self.framing.message.unwrap_or(0);
        buf.clear();
        buf.extend_from_slice(&bytes[..self.framing.stack.min(bytes.len())]);
        for i in keep {
            let off = self.msg_offset(i);
            if let Some(msg) = bytes.get(off..off + width) {
                buf.extend_from_slice(msg);
            }
        }
        Packet::new(Bytes::copy_from_slice(buf))
    }

    /// Evaluate one unit — message (`msg_off = Some(byte offset)`) or
    /// the stack (`None`) — against the compiled pipeline. `values` is
    /// the reusable slot scratch (`len == compiled.slots().len()`). A
    /// field whose bytes the packet lacks reads absent; on a unit of
    /// [`Framing::units`] that never happens.
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

/// Resolve one field operand against the spec.
fn plan_field(spec: &Spec, name: &str) -> FieldLookup {
    match spec.locate(name) {
        Some(FieldSource::Message(f)) => {
            FieldLookup::Message { off: f.offset_bytes(), len: f.width_bytes(), ty: f.ty }
        }
        Some(FieldSource::Stack { base, field: f, .. }) => {
            FieldLookup::Stack { off: base + f.offset_bytes(), len: f.width_bytes(), ty: f.ty }
        }
        None => FieldLookup::Absent,
    }
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

/// Fill one slot from the unit's bytes, or clear it.
#[inline]
fn fill_field(fl: &FieldLookup, pkt: &Packet, msg_off: Option<usize>, slot: &mut Option<Value>) {
    match fl.bytes(pkt, msg_off) {
        Some((bytes, ty)) => decode_into(slot, ty, bytes),
        None => *slot = None,
    }
}

/// Read an aggregate's input as an integer: a string-typed field yields
/// no update, like the interpreter's `if let Some(Value::Int(v))` gate.
#[inline]
fn read_input_int(fl: &FieldLookup, pkt: &Packet, msg_off: Option<usize>) -> Option<i64> {
    let (bytes, ty) = fl.bytes(pkt, msg_off)?;
    (ty == Type::Int).then(|| decode_int(bytes))
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
