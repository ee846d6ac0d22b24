//! Wire-format packets.
//!
//! A Camus packet is the application's fixed header stack (the
//! `sequence` of the spec) followed by zero or more batched fixed-width
//! messages (the `messages` header), exactly the ITCH/MoldUDP layout of
//! §VIII-C.1. Packets are immutable byte buffers ([`bytes::Bytes`]);
//! building one goes through [`PacketBuilder`].

use bytes::Bytes;
use camus_lang::spec::Spec;
use camus_lang::value::Value;
use std::collections::HashMap;
use std::fmt;

/// Why a packet could not be encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum EncodeError {
    /// Messages were added but the spec declares no batched message
    /// header.
    NoMessageHeader,
    /// A value does not fit its field: a positive integer wider than
    /// the field, or a string longer than the field. (Negative
    /// integers are *not* errors: header fields are unsigned on the
    /// wire and documented to truncate to the low bits.)
    Oversized { header: String, field: String, value: String, width_bits: u32 },
    /// A value's type disagrees with the field's declared type.
    TypeMismatch { header: String, field: String },
    /// Anything else the spec encoder rejects (unknown header, ...).
    Spec(String),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::NoMessageHeader => write!(f, "spec has no batched message header"),
            EncodeError::Oversized { header, field, value, width_bits } => {
                write!(f, "value {value} does not fit `{header}.{field}` (bit<{width_bits}>)")
            }
            EncodeError::TypeMismatch { header, field } => {
                write!(f, "type mismatch for `{header}.{field}`")
            }
            EncodeError::Spec(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// An immutable packet with its payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    pub bytes: Bytes,
}

impl Packet {
    pub fn new(bytes: Bytes) -> Self {
        Packet { bytes }
    }

    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Number of whole batched messages this packet carries under a
    /// given spec (fixed-width messages after the fixed stack).
    pub fn message_count(&self, spec: &Spec) -> usize {
        spec.framing().messages(self.len())
    }

    /// Decode the fixed stack header `name` (must be in the sequence).
    pub fn stack_header(&self, spec: &Spec, name: &str) -> Option<HashMap<String, Value>> {
        let off = spec.stack_offset(name)?;
        spec.decode_header(name, self.bytes.get(off..)?)
    }

    /// Decode batched message `i`.
    pub fn message(&self, spec: &Spec, i: usize) -> Option<HashMap<String, Value>> {
        let msg = spec.messages.as_ref()?;
        let h = spec.header(msg)?;
        let w = h.width_bytes();
        let off = spec.stack_width() + i * w;
        spec.decode_header(msg, self.bytes.get(off..off + w)?)
    }

    /// A copy of this packet keeping only the selected messages (egress
    /// pruning, §VI-A). The fixed stack is preserved; `keep` indexes
    /// messages.
    pub(crate) fn prune_messages(&self, spec: &Spec, keep: &[usize]) -> Packet {
        let stack = spec.stack_width();
        let Some(msg) = &spec.messages else {
            return self.clone();
        };
        let w = spec.header(msg).map_or(0, |h| h.width_bytes());
        if w == 0 {
            return self.clone();
        }
        let mut out = Vec::with_capacity(stack + keep.len() * w);
        out.extend_from_slice(&self.bytes[..stack.min(self.bytes.len())]);
        for &i in keep {
            let off = stack + i * w;
            if let Some(slice) = self.bytes.get(off..off + w) {
                out.extend_from_slice(slice);
            }
        }
        Packet::new(Bytes::from(out))
    }
}

/// Builds packets under a spec: set stack-header fields, append
/// messages, finish.
pub struct PacketBuilder<'a> {
    spec: &'a Spec,
    stack_values: HashMap<String, HashMap<String, Value>>,
    messages: Vec<HashMap<String, Value>>,
}

impl<'a> PacketBuilder<'a> {
    pub fn new(spec: &'a Spec) -> Self {
        PacketBuilder { spec, stack_values: HashMap::new(), messages: Vec::new() }
    }

    /// Set a field of a fixed stack header.
    pub fn stack_field(mut self, header: &str, field: &str, value: impl Into<Value>) -> Self {
        self.stack_values
            .entry(header.to_string())
            .or_default()
            .insert(field.to_string(), value.into());
        self
    }

    /// Append a batched message given as field → value pairs.
    pub fn message<I, S, V>(mut self, fields: I) -> Self
    where
        I: IntoIterator<Item = (S, V)>,
        S: Into<String>,
        V: Into<Value>,
    {
        self.messages.push(fields.into_iter().map(|(k, v)| (k.into(), v.into())).collect());
        self
    }

    /// Check the provided values against `header`'s field widths and
    /// types. Keys that name no field are ignored (the encoder skips
    /// them too — spec fields not supplied default to zero, and the
    /// reverse direction mirrors that leniency).
    fn check_values(
        &self,
        header: &str,
        values: &HashMap<String, Value>,
    ) -> Result<(), EncodeError> {
        let h = self
            .spec
            .header(header)
            .ok_or_else(|| EncodeError::Spec(format!("unknown header `{header}`")))?;
        for f in &h.fields {
            let Some(v) = values.get(&f.name) else { continue };
            if v.ty() != f.ty {
                return Err(EncodeError::TypeMismatch {
                    header: header.to_string(),
                    field: f.name.clone(),
                });
            }
            let fits = match v {
                Value::Int(i) => {
                    *i < 0 || f.width_bits >= 63 || (*i as u64) < (1u64 << f.width_bits)
                }
                Value::Str(s) => s.len() <= f.width_bytes(),
            };
            if !fits {
                return Err(EncodeError::Oversized {
                    header: header.to_string(),
                    field: f.name.clone(),
                    value: format!("{v:?}"),
                    width_bits: f.width_bits,
                });
            }
        }
        Ok(())
    }

    /// Encode to bytes, rejecting values that would be silently
    /// mangled: oversized integers/strings, type mismatches, and
    /// messages on a spec without a batched message header.
    pub(crate) fn try_build(self) -> Result<Packet, EncodeError> {
        let mut out = Vec::with_capacity(self.spec.stack_width() + self.messages.len() * 32);
        let empty = HashMap::new();
        for name in &self.spec.sequence {
            let vals = self.stack_values.get(name).unwrap_or(&empty);
            self.check_values(name, vals)?;
            let bytes = self
                .spec
                .encode_header(name, vals)
                .map_err(|e| EncodeError::Spec(format!("encoding stack header {name}: {e}")))?;
            out.extend_from_slice(&bytes);
        }
        if let Some(msg) = &self.spec.messages {
            for m in &self.messages {
                self.check_values(msg, m)?;
                let bytes = self
                    .spec
                    .encode_header(msg, m)
                    .map_err(|e| EncodeError::Spec(format!("encoding message {msg}: {e}")))?;
                out.extend_from_slice(&bytes);
            }
        } else if !self.messages.is_empty() {
            return Err(EncodeError::NoMessageHeader);
        }
        Ok(Packet::new(Bytes::from(out)))
    }

    /// Encode to bytes. Panics where `PacketBuilder::try_build`
    /// errors (a programming error in the caller).
    pub fn build(self) -> Packet {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_lang::spec::itch_spec;

    fn order(stock: &str, price: i64, shares: i64) -> Vec<(&'static str, Value)> {
        vec![
            ("stock", Value::from(stock)),
            ("price", Value::Int(price)),
            ("shares", Value::Int(shares)),
        ]
    }

    #[test]
    fn build_and_decode_roundtrip() {
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec)
            .stack_field("moldudp", "seq", 42i64)
            .stack_field("moldudp", "msg_count", 2i64)
            .message(order("GOOGL", 1050, 100))
            .message(order("MSFT", 300, 5))
            .build();
        assert_eq!(pkt.len(), spec.stack_width() + 2 * 20);
        assert_eq!(pkt.message_count(&spec), 2);

        let mold = pkt.stack_header(&spec, "moldudp").unwrap();
        assert_eq!(mold["seq"], Value::Int(42));
        assert_eq!(mold["msg_count"], Value::Int(2));

        let m0 = pkt.message(&spec, 0).unwrap();
        assert_eq!(m0["stock"], Value::from("GOOGL"));
        assert_eq!(m0["price"], Value::Int(1050));
        let m1 = pkt.message(&spec, 1).unwrap();
        assert_eq!(m1["stock"], Value::from("MSFT"));
        assert!(pkt.message(&spec, 2).is_none());
    }

    #[test]
    fn empty_packet_has_no_messages() {
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec).build();
        assert_eq!(pkt.message_count(&spec), 0);
        assert_eq!(pkt.len(), spec.stack_width());
        assert!(!pkt.is_empty());
    }

    #[test]
    fn prune_keeps_selected_messages() {
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec)
            .message(order("A", 1, 1))
            .message(order("B", 2, 2))
            .message(order("C", 3, 3))
            .build();
        let pruned = pkt.prune_messages(&spec, &[0, 2]);
        assert_eq!(pruned.message_count(&spec), 2);
        assert_eq!(pruned.message(&spec, 0).unwrap()["stock"], Value::from("A"));
        assert_eq!(pruned.message(&spec, 1).unwrap()["stock"], Value::from("C"));
        // The original is untouched.
        assert_eq!(pkt.message_count(&spec), 3);
    }

    #[test]
    fn a_packet_is_one_fat_pointer() {
        // Benchmarks keep every input packet resident and every output
        // slot holds `(Port, Packet)` pairs: a wider handle (a window
        // into a shared buffer, say) is paid in resident memory.
        assert_eq!(std::mem::size_of::<Packet>(), 16);
    }

    #[test]
    fn prune_to_empty() {
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec).message(order("A", 1, 1)).build();
        let pruned = pkt.prune_messages(&spec, &[]);
        assert_eq!(pruned.message_count(&spec), 0);
        assert_eq!(pruned.len(), spec.stack_width());
    }

    #[test]
    fn short_buffer_is_rejected_gracefully() {
        let spec = itch_spec();
        let pkt = Packet::new(Bytes::from_static(&[0u8; 4]));
        assert_eq!(pkt.message_count(&spec), 0);
        assert!(pkt.stack_header(&spec, "moldudp").is_none());
        assert!(pkt.message(&spec, 0).is_none());
    }

    #[test]
    #[should_panic(expected = "no batched message header")]
    fn message_on_stack_only_spec_panics() {
        let spec = camus_lang::spec::int_spec();
        let _ = PacketBuilder::new(&spec).message(vec![("switch_id", 1i64)]).build();
    }

    #[test]
    fn try_build_matches_build() {
        let spec = itch_spec();
        let a = PacketBuilder::new(&spec)
            .stack_field("moldudp", "seq", 7i64)
            .message(order("GOOGL", 10, 5))
            .try_build()
            .unwrap();
        let b = PacketBuilder::new(&spec)
            .stack_field("moldudp", "seq", 7i64)
            .message(order("GOOGL", 10, 5))
            .build();
        assert_eq!(a, b);
    }

    #[test]
    fn oversized_int_is_rejected_not_truncated() {
        let spec = itch_spec();
        let too_big = 1i64 << 33; // price is bit<32>
        let err =
            PacketBuilder::new(&spec).message(order("GOOGL", too_big, 1)).try_build().unwrap_err();
        match err {
            EncodeError::Oversized { header, field, width_bits, .. } => {
                assert_eq!(field, "price");
                assert_eq!(width_bits, 32);
                assert!(!header.is_empty());
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        // The widest representable value still encodes.
        let max = (1i64 << 32) - 1;
        let pkt = PacketBuilder::new(&spec).message(order("GOOGL", max, 1)).try_build().unwrap();
        assert_eq!(pkt.message(&spec, 0).unwrap()["price"], Value::Int(max));
    }

    #[test]
    fn oversized_string_is_rejected() {
        let spec = itch_spec();
        let err = PacketBuilder::new(&spec)
            .message(order("WAYTOOLONG", 1, 1)) // stock is str<8>
            .try_build()
            .unwrap_err();
        assert!(matches!(err, EncodeError::Oversized { ref field, .. } if field == "stock"));
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let spec = itch_spec();
        let err = PacketBuilder::new(&spec)
            .message(vec![("price", Value::from("not a number"))])
            .try_build()
            .unwrap_err();
        assert!(matches!(err, EncodeError::TypeMismatch { ref field, .. } if field == "price"));
    }

    #[test]
    fn negative_int_still_truncates_by_contract() {
        // FieldSpec documents integer fields as unsigned on the wire:
        // negatives truncate to the low bits rather than erroring.
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec).message(order("GOOGL", -1, 1)).try_build().unwrap();
        assert_eq!(pkt.message(&spec, 0).unwrap()["price"], Value::Int((1 << 32) - 1));
    }

    #[test]
    fn message_on_stack_only_spec_errors() {
        let spec = camus_lang::spec::int_spec();
        let err =
            PacketBuilder::new(&spec).message(vec![("switch_id", 1i64)]).try_build().unwrap_err();
        assert_eq!(err, EncodeError::NoMessageHeader);
        assert!(err.to_string().contains("no batched message header"));
    }
}
