//! The annotated header-specification language (Fig. 4 of the paper).
//!
//! Applications characterise their domain by a set of headers and packet
//! formats. In the paper this is P4 source extended with annotations;
//! here it is a small standalone language with the same information
//! content, consumed by the static compiler (pipeline generation) and
//! by the data plane, which reads every packet through it: which units
//! it carries ([`Spec::framing`]) and where a field name's bytes lie
//! ([`Spec::locate`]):
//!
//! ```text
//! header ethernet {
//!     bit<48> dstAddr;
//!     bit<48> srcAddr;
//!     bit<16> etherType;
//! }
//!
//! header itch_order {
//!     bit<16>  length;
//!     @field       bit<32> shares;
//!     @field       bit<32> price;
//!     @field_exact str<8>  stock;
//!     @counter(my_counter, 100us)
//! }
//!
//! sequence ethernet itch_order
//! messages itch_order          # repeated message header (batching)
//! ```
//!
//! * `@field` marks a field usable in subscriptions (default match kind
//!   chosen by the compiler, usually range for integers),
//! * `@field_exact` / `@field_range` / `@field_ternary` override the
//!   match kind (§V-A: "users may specify the match type"),
//! * `@counter(name, window)` declares a tumbling-window state variable
//!   (§II, Fig. 4 line 11),
//! * `sequence` lists the fixed header stack in parse order,
//! * `messages` names the header that repeats as a batched
//!   application-level message (§VI), if any.

use crate::error::{LangError, Result};
use crate::value::{Type, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// How a subscribable field should be matched in hardware (§V-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MatchHint {
    /// Let the compiler choose (exact for strings/equality-only fields,
    /// range otherwise).
    Auto,
    /// SRAM exact match only: cheap, but range predicates on this field
    /// are rejected.
    Exact,
    /// TCAM/range match.
    Range,
    /// Ternary (masked) match.
    Ternary,
}

/// One fixed-width field of a header.
///
/// Integer fields are **unsigned on the wire**: encoding a negative
/// [`Value::Int`] truncates to the low bits and decodes back as a large
/// non-negative number, exactly as a real header field would.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FieldSpec {
    pub name: String,
    pub ty: Type,
    /// Width in bits. Strings are byte-aligned (`str<N>` is `8·N` bits).
    pub width_bits: u32,
    /// Bit offset from the start of the enclosing header.
    pub offset_bits: u32,
    /// Whether subscriptions may constrain this field (`@field*`).
    pub subscribable: bool,
    pub match_hint: MatchHint,
}

impl FieldSpec {
    /// Width in whole bytes (fields are byte-aligned in this model).
    pub fn width_bytes(&self) -> usize {
        (self.width_bits as usize).div_ceil(8)
    }

    /// Byte offset within the header.
    pub fn offset_bytes(&self) -> usize {
        (self.offset_bits as usize) / 8
    }
}

/// A tumbling-window state variable declared with `@counter`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CounterSpec {
    pub name: String,
    /// Window length in microseconds.
    pub window_us: u64,
}

/// One header type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HeaderSpec {
    pub name: String,
    pub fields: Vec<FieldSpec>,
    pub counters: Vec<CounterSpec>,
}

impl HeaderSpec {
    /// Total header width in bytes.
    pub fn width_bytes(&self) -> usize {
        self.fields.iter().map(|f| f.width_bytes()).sum()
    }

    pub fn field(&self, name: &str) -> Option<&FieldSpec> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// A complete application specification.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Spec {
    pub headers: Vec<HeaderSpec>,
    /// Fixed header stack, in parse order (names into `headers`).
    pub sequence: Vec<String>,
    /// Header that repeats as batched messages after the stack, if any.
    pub messages: Option<String>,
}

impl Spec {
    /// Parse the textual spec format.
    pub fn parse(src: &str) -> Result<Spec> {
        Parser { src, pos: 0 }.spec()
    }

    pub fn header(&self, name: &str) -> Option<&HeaderSpec> {
        self.headers.iter().find(|h| h.name == name)
    }

    /// Resolve an attribute path from a subscription. Accepts
    /// `header.field` or a bare `field` when unique across all headers.
    pub fn resolve(&self, path: &str) -> Option<(&HeaderSpec, &FieldSpec)> {
        if let Some((hname, fname)) = path.split_once('.') {
            let h = self.header(hname)?;
            let f = h.field(fname)?;
            return Some((h, f));
        }
        let mut found = None;
        for h in &self.headers {
            if let Some(f) = h.field(path) {
                if found.is_some() {
                    return None; // ambiguous bare name
                }
                found = Some((h, f));
            }
        }
        found
    }

    /// All subscribable attribute paths, in declaration order, as
    /// `header.field` pairs. The compiler derives its default BDD
    /// variable order from this.
    pub fn subscribable_fields(&self) -> Vec<(String, &FieldSpec)> {
        let mut out = Vec::new();
        for h in &self.headers {
            for f in &h.fields {
                if f.subscribable {
                    out.push((format!("{}.{}", h.name, f.name), f));
                }
            }
        }
        out
    }

    /// Bit widths of the subscribable fields for resource accounting,
    /// keyed by every name a table stage can carry: the dotted path,
    /// and the bare field name when it resolves unambiguously.
    pub fn field_widths(&self) -> HashMap<String, u32> {
        let mut widths = HashMap::new();
        for (path, f) in self.subscribable_fields() {
            let bare = path.rsplit('.').next().unwrap_or(&path);
            if self.resolve(bare).is_some() {
                widths.insert(bare.to_string(), f.width_bits);
            }
            widths.insert(path, f.width_bits);
        }
        widths
    }

    /// Byte offset of `header` within the fixed stack, if it is part of
    /// the `sequence`.
    pub fn stack_offset(&self, header: &str) -> Option<usize> {
        let mut off = 0usize;
        for name in &self.sequence {
            if name == header {
                return Some(off);
            }
            off += self.header(name)?.width_bytes();
        }
        None
    }

    /// Total width in bytes of the fixed header stack.
    pub fn stack_width(&self) -> usize {
        self.sequence.iter().filter_map(|n| self.header(n)).map(|h| h.width_bytes()).sum()
    }

    /// Encode a header instance from an attribute map (field name →
    /// value); absent fields are zero.
    pub fn encode_header(&self, header: &str, values: &HashMap<String, Value>) -> Result<Vec<u8>> {
        let h = self
            .header(header)
            .ok_or_else(|| LangError::Spec(format!("unknown header `{header}`")))?;
        let mut out = vec![0u8; h.width_bytes()];
        for f in &h.fields {
            if let Some(v) = values.get(&f.name) {
                if v.ty() != f.ty {
                    return Err(LangError::Spec(format!(
                        "type mismatch for `{}.{}`",
                        header, f.name
                    )));
                }
                let bytes = v.encode(f.width_bytes());
                let off = f.offset_bytes();
                out[off..off + bytes.len()].copy_from_slice(&bytes);
            }
        }
        Ok(out)
    }

    /// Decode a header instance from raw bytes into an attribute map.
    /// Returns `None` when the buffer is too short.
    pub fn decode_header(&self, header: &str, bytes: &[u8]) -> Option<HashMap<String, Value>> {
        let h = self.header(header)?;
        if bytes.len() < h.width_bytes() {
            return None;
        }
        let mut out = HashMap::with_capacity(h.fields.len());
        for f in &h.fields {
            let off = f.offset_bytes();
            let v = Value::decode(f.ty, &bytes[off..off + f.width_bytes()]);
            out.insert(f.name.clone(), v);
        }
        Some(out)
    }

    /// The packet geometry every reader of a packet under this spec
    /// shares: where the batched messages start and how wide each is.
    pub fn framing(&self) -> Framing {
        Framing {
            stack: self.stack_width(),
            message: self.messages.as_ref().and_then(|m| self.header(m)).map(|h| h.width_bytes()),
        }
    }

    /// Where a field name's bytes lie in an evaluation unit. A name is
    /// first a field of the `messages` header, bare or qualified by
    /// that header; failing that, the field of the `sequence` header
    /// that [`resolve`](Self::resolve) names; failing that, nothing.
    pub fn locate(&self, name: &str) -> Option<FieldSource<'_>> {
        if let Some(h) = self.messages.as_ref().and_then(|m| self.header(m)) {
            let bare = match name.split_once('.') {
                Some((header, field)) => (header == h.name).then_some(field),
                None => Some(name),
            };
            if let Some(f) = bare.and_then(|b| h.field(b)) {
                return Some(FieldSource::Message(f));
            }
        }
        let (header, field) = self.resolve(name)?;
        let base = self.stack_offset(&header.name)?;
        Some(FieldSource::Stack { header, base, field })
    }
}

/// A spec's packet geometry ([`Spec::framing`]): the fixed stack, then
/// whole batched messages. It decides which units a switch evaluates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Framing {
    /// Width of the fixed stack in bytes: where messages start.
    pub stack: usize,
    /// Width of one batched message; `None` when the spec has no
    /// `messages` header.
    pub message: Option<usize>,
}

impl Framing {
    /// Whole batched messages in a packet of `len` bytes; 0 under a
    /// spec without a `messages` header.
    #[inline]
    pub fn messages(&self, len: usize) -> usize {
        self.message.and_then(|w| len.saturating_sub(self.stack).checked_div(w)).unwrap_or(0)
    }

    /// The units a packet of `len` bytes carries (§VI): its whole
    /// messages when the spec has a `messages` header; otherwise the
    /// stack, once, and only when the whole stack is on the wire (an
    /// empty stack carries no unit). Every unit carries every field
    /// the spec declares for it.
    #[inline]
    pub fn units(&self, len: usize) -> usize {
        match self.message {
            Some(_) => self.messages(len),
            None => usize::from(self.stack > 0 && len >= self.stack),
        }
    }

    /// Whether `len` bytes do not fit the geometry: a cut stack, or
    /// trailing bytes that do not form a whole message.
    #[inline]
    pub fn is_malformed(&self, len: usize) -> bool {
        len < self.stack
            || self.message.is_some_and(|w| w != 0 && !(len - self.stack).is_multiple_of(w))
    }
}

/// Where a field's bytes lie ([`Spec::locate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldSource<'a> {
    /// A field of the `messages` header, read from each message.
    Message(&'a FieldSpec),
    /// A field of `header`, a `sequence` header that starts `base`
    /// bytes into the packet.
    Stack { header: &'a HeaderSpec, base: usize, field: &'a FieldSpec },
}

// ---------------------------------------------------------------------------
// Spec parser (line/token oriented, independent of the filter lexer)
// ---------------------------------------------------------------------------

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn spec(&mut self) -> Result<Spec> {
        let mut headers: Vec<HeaderSpec> = Vec::new();
        let mut sequence = Vec::new();
        let mut messages = None;
        loop {
            self.skip_ws();
            if self.pos >= self.src.len() {
                break;
            }
            let word = self.word()?;
            match word.as_str() {
                "header" => {
                    let h = self.header()?;
                    if headers.iter().any(|x| x.name == h.name) {
                        return Err(LangError::Spec(format!("duplicate header `{}`", h.name)));
                    }
                    headers.push(h);
                }
                "sequence" => {
                    sequence = self.rest_of_line_words();
                    if sequence.is_empty() {
                        return Err(LangError::Spec("empty `sequence` directive".into()));
                    }
                }
                "messages" => {
                    let names = self.rest_of_line_words();
                    if names.len() != 1 {
                        return Err(LangError::Spec(
                            "`messages` takes exactly one header name".into(),
                        ));
                    }
                    messages = Some(names.into_iter().next().unwrap());
                }
                other => {
                    return Err(LangError::Spec(format!(
                        "expected `header`, `sequence` or `messages`, found `{other}`"
                    )))
                }
            }
        }
        let spec = Spec { headers, sequence, messages };
        // Validate references.
        for name in &spec.sequence {
            if spec.header(name).is_none() {
                return Err(LangError::Spec(format!(
                    "sequence references unknown header `{name}`"
                )));
            }
        }
        if let Some(m) = &spec.messages {
            if spec.header(m).is_none() {
                return Err(LangError::Spec(format!("messages references unknown header `{m}`")));
            }
        }
        Ok(spec)
    }

    fn header(&mut self) -> Result<HeaderSpec> {
        let name = self.word()?;
        self.expect('{')?;
        let mut fields: Vec<FieldSpec> = Vec::new();
        let mut counters = Vec::new();
        let mut offset_bits = 0u32;
        loop {
            self.skip_ws();
            if self.peek() == Some('}') {
                self.pos += 1;
                break;
            }
            // Annotations.
            let mut subscribable = false;
            let mut match_hint = MatchHint::Auto;
            while self.peek() == Some('@') {
                self.pos += 1;
                let ann = self.word()?;
                match ann.as_str() {
                    "field" => subscribable = true,
                    "field_exact" => {
                        subscribable = true;
                        match_hint = MatchHint::Exact;
                    }
                    "field_range" => {
                        subscribable = true;
                        match_hint = MatchHint::Range;
                    }
                    "field_ternary" => {
                        subscribable = true;
                        match_hint = MatchHint::Ternary;
                    }
                    "counter" => {
                        self.expect('(')?;
                        let cname = self.word()?;
                        self.expect(',')?;
                        let window_us = self.duration_us()?;
                        self.expect(')')?;
                        counters.push(CounterSpec { name: cname, window_us });
                    }
                    other => return Err(LangError::Spec(format!("unknown annotation `@{other}`"))),
                }
                self.skip_ws();
            }
            self.skip_ws();
            if self.peek() == Some('}') {
                if subscribable {
                    return Err(LangError::Spec("dangling field annotation".into()));
                }
                continue;
            }
            // A field declaration, unless the line was only annotations
            // (e.g. a lone `@counter(...)`).
            if !self.at_type_keyword() {
                if subscribable {
                    return Err(LangError::Spec("field annotation without a field".into()));
                }
                continue;
            }
            let (ty, width_bits) = self.field_type()?;
            let fname = self.word()?;
            self.expect(';')?;
            if fields.iter().any(|f| f.name == fname) {
                return Err(LangError::Spec(format!("duplicate field `{name}.{fname}`")));
            }
            fields.push(FieldSpec {
                name: fname,
                ty,
                width_bits,
                offset_bits,
                subscribable,
                match_hint,
            });
            offset_bits += width_bits.next_multiple_of(8);
        }
        Ok(HeaderSpec { name, fields, counters })
    }

    fn at_type_keyword(&self) -> bool {
        let rest = &self.src[self.pos..];
        rest.starts_with("bit<") || rest.starts_with("str<")
    }

    fn field_type(&mut self) -> Result<(Type, u32)> {
        let kw = self.word()?;
        self.expect('<')?;
        let n = self.number()?;
        self.expect('>')?;
        match kw.as_str() {
            "bit" => {
                if n == 0 || n > 64 {
                    return Err(LangError::Spec(format!("bit<{n}> out of range (1..=64)")));
                }
                Ok((Type::Int, n as u32))
            }
            "str" => {
                if n == 0 || n > 1024 {
                    return Err(LangError::Spec(format!("str<{n}> out of range (1..=1024)")));
                }
                Ok((Type::Str, (n as u32) * 8))
            }
            other => Err(LangError::Spec(format!("unknown type `{other}`"))),
        }
    }

    fn duration_us(&mut self) -> Result<u64> {
        self.skip_ws();
        let n = self.number()?;
        let unit = self.word()?;
        let us = match unit.as_str() {
            "us" => n,
            "ms" => n * 1_000,
            "s" => n * 1_000_000,
            other => return Err(LangError::Spec(format!("unknown time unit `{other}`"))),
        };
        if us == 0 {
            return Err(LangError::Spec("zero-length window".into()));
        }
        Ok(us)
    }

    // --- low-level helpers ---

    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn skip_ws(&mut self) {
        loop {
            let rest = &self.src[self.pos..];
            let trimmed = rest.trim_start();
            self.pos += rest.len() - trimmed.len();
            if trimmed.starts_with('#') {
                match trimmed.find('\n') {
                    Some(nl) => self.pos += nl,
                    None => self.pos = self.src.len(),
                }
            } else {
                break;
            }
        }
    }

    fn word(&mut self) -> Result<String> {
        self.skip_ws();
        let start = self.pos;
        for (i, c) in self.src[start..].char_indices() {
            if !(c.is_ascii_alphanumeric() || c == '_') {
                self.pos = start + i;
                break;
            }
            self.pos = start + i + c.len_utf8();
        }
        if self.pos == start {
            return Err(LangError::Spec(format!(
                "expected a word at byte {start}: ...{:?}",
                &self.src[start..self.src.len().min(start + 20)]
            )));
        }
        Ok(self.src[start..self.pos].to_string())
    }

    fn number(&mut self) -> Result<u64> {
        self.skip_ws();
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(LangError::Spec(format!("expected a number at byte {start}")));
        }
        self.src[start..self.pos].parse().map_err(|_| LangError::Spec("number out of range".into()))
    }

    fn expect(&mut self, c: char) -> Result<()> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += c.len_utf8();
            Ok(())
        } else {
            Err(LangError::Spec(format!(
                "expected `{c}` at byte {}, found {:?}",
                self.pos,
                self.peek()
            )))
        }
    }

    fn rest_of_line_words(&mut self) -> Vec<String> {
        let nl = self.src[self.pos..].find('\n').map_or(self.src.len(), |i| self.pos + i);
        let mut line = &self.src[self.pos..nl];
        if let Some(c) = line.find('#') {
            line = &line[..c]; // trailing comment
        }
        self.pos = nl;
        line.split_whitespace().map(|s| s.to_string()).collect()
    }
}

/// The ITCH specification used as the running example throughout the
/// paper (Fig. 4): MoldUDP framing plus batched `itch_order` messages.
pub fn itch_spec() -> Spec {
    Spec::parse(
        r#"
        header moldudp {
            bit<64> session;
            bit<64> seq;
            bit<16> msg_count;
        }
        header itch_order {
            bit<16>  length;
            bit<8>   msg_type;
            @field       bit<32> shares;
            @field       bit<32> price;
            @field_exact str<8>  stock;
            @field       bit<8>  side;
            @counter(my_counter, 100us)
        }
        sequence moldudp
        messages itch_order
        "#,
    )
    .expect("built-in ITCH spec parses")
}

/// The INT (in-band network telemetry) specification used by the
/// telemetry-analytics application (§VIII-C.2).
pub fn int_spec() -> Spec {
    Spec::parse(
        r#"
        header int_report {
            @field bit<32> switch_id;
            @field bit<32> hop_latency;
            @field bit<32> q_occupancy;
            @field bit<32> flow_id;
            bit<32> ingress_tstamp;
        }
        sequence int_report
        "#,
    )
    .expect("built-in INT spec parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_itch_spec() {
        let spec = itch_spec();
        assert_eq!(spec.headers.len(), 2);
        let itch = spec.header("itch_order").unwrap();
        assert_eq!(itch.width_bytes(), 2 + 1 + 4 + 4 + 8 + 1);
        let stock = itch.field("stock").unwrap();
        assert_eq!(stock.ty, Type::Str);
        assert_eq!(stock.width_bits, 64);
        assert_eq!(stock.match_hint, MatchHint::Exact);
        assert!(stock.subscribable);
        assert!(!itch.field("length").unwrap().subscribable);
        assert_eq!(itch.counters.len(), 1);
        assert_eq!(itch.counters[0].window_us, 100);
        assert_eq!(spec.messages.as_deref(), Some("itch_order"));
    }

    #[test]
    fn field_offsets_accumulate() {
        let spec = itch_spec();
        let itch = spec.header("itch_order").unwrap();
        assert_eq!(itch.field("length").unwrap().offset_bytes(), 0);
        assert_eq!(itch.field("msg_type").unwrap().offset_bytes(), 2);
        assert_eq!(itch.field("shares").unwrap().offset_bytes(), 3);
        assert_eq!(itch.field("price").unwrap().offset_bytes(), 7);
        assert_eq!(itch.field("stock").unwrap().offset_bytes(), 11);
    }

    #[test]
    fn resolve_bare_and_dotted() {
        let spec = itch_spec();
        assert!(spec.resolve("price").is_some());
        assert!(spec.resolve("itch_order.price").is_some());
        assert!(spec.resolve("itch_order.nope").is_none());
        assert!(spec.resolve("nope.price").is_none());
        assert!(spec.resolve("nothere").is_none());
    }

    #[test]
    fn resolve_ambiguous_bare_name_fails() {
        let spec = Spec::parse(
            "header a { @field bit<8> x; }\nheader b { @field bit<8> x; }\nsequence a b",
        )
        .unwrap();
        assert!(spec.resolve("x").is_none());
        assert!(spec.resolve("a.x").is_some());
        assert!(spec.resolve("b.x").is_some());
    }

    #[test]
    fn locate_prefers_the_message_header_then_the_stack() {
        let spec = itch_spec();
        let price = spec.header("itch_order").unwrap().field("price").unwrap();
        assert_eq!(spec.locate("price"), Some(FieldSource::Message(price)));
        assert_eq!(spec.locate("itch_order.price"), Some(FieldSource::Message(price)));
        for name in ["seq", "moldudp.seq"] {
            let Some(FieldSource::Stack { header, base, field }) = spec.locate(name) else {
                panic!("{name} is a stack field")
            };
            assert_eq!((header.name.as_str(), base, field.name.as_str()), ("moldudp", 0, "seq"));
        }
        // No prefix but the message header's own reaches a message field.
        assert_eq!(spec.locate("moldudp.price"), None);
        assert_eq!(spec.locate("nope.price"), None);
        assert_eq!(spec.locate("nope"), None);
    }

    #[test]
    fn units_are_whole_messages_or_the_whole_stack() {
        let itch = itch_spec().framing();
        assert_eq!(itch, Framing { stack: 18, message: Some(20) });
        assert_eq!([0, 17, 18, 37, 38, 58].map(|len| itch.units(len)), [0, 0, 0, 0, 1, 2]);
        assert_eq!([17, 18, 38, 39].map(|len| itch.is_malformed(len)), [true, false, false, true]);
        let int = int_spec().framing();
        assert_eq!(int, Framing { stack: 20, message: None });
        assert_eq!([0, 19, 20, 21].map(|len| int.units(len)), [0, 0, 1, 1]);
        assert_eq!(int.messages(40), 0);
        assert!(int.is_malformed(19) && !int.is_malformed(21));
        let empty = Spec::parse("header a { bit<8> x; }").unwrap().framing();
        assert_eq!(empty.units(4), 0, "an empty stack carries no unit");
    }

    #[test]
    fn stack_offsets() {
        let spec = itch_spec();
        assert_eq!(spec.stack_offset("moldudp"), Some(0));
        assert_eq!(spec.stack_width(), 18);
        assert_eq!(spec.stack_offset("itch_order"), None); // not in sequence
    }

    #[test]
    fn encode_decode_roundtrip() {
        let spec = itch_spec();
        let mut vals = HashMap::new();
        vals.insert("shares".to_string(), Value::Int(500));
        vals.insert("price".to_string(), Value::Int(1050));
        vals.insert("stock".to_string(), Value::from("GOOGL"));
        vals.insert("msg_type".to_string(), Value::Int(b'A' as i64));
        let bytes = spec.encode_header("itch_order", &vals).unwrap();
        assert_eq!(bytes.len(), 20);
        let decoded = spec.decode_header("itch_order", &bytes).unwrap();
        assert_eq!(decoded["shares"], Value::Int(500));
        assert_eq!(decoded["price"], Value::Int(1050));
        assert_eq!(decoded["stock"], Value::from("GOOGL"));
        assert_eq!(decoded["length"], Value::Int(0)); // unset -> zero
    }

    #[test]
    fn encode_rejects_type_mismatch() {
        let spec = itch_spec();
        let mut vals = HashMap::new();
        vals.insert("price".to_string(), Value::from("oops"));
        assert!(spec.encode_header("itch_order", &vals).is_err());
    }

    #[test]
    fn decode_short_buffer_is_none() {
        let spec = itch_spec();
        assert!(spec.decode_header("itch_order", &[0u8; 3]).is_none());
    }

    #[test]
    fn spec_errors() {
        assert!(Spec::parse("header a { bit<0> x; }").is_err());
        assert!(Spec::parse("header a { bit<65> x; }").is_err());
        assert!(Spec::parse("header a { bit<8> x; bit<8> x; }").is_err());
        assert!(Spec::parse("header a { bit<8> x; }\nheader a { bit<8> y; }").is_err());
        assert!(Spec::parse("sequence nope").is_err());
        assert!(Spec::parse("messages nope").is_err());
        assert!(Spec::parse("garbage").is_err());
        assert!(Spec::parse("header a { @bogus bit<8> x; }").is_err());
        assert!(Spec::parse("header a { @counter(c, 0us) }").is_err());
        assert!(Spec::parse("header a { @counter(c, 5fortnights) }").is_err());
    }

    #[test]
    fn durations() {
        let s = Spec::parse("header a { @counter(c, 10ms) bit<8> x; }").unwrap();
        assert_eq!(s.headers[0].counters[0].window_us, 10_000);
        let s = Spec::parse("header a { @counter(c, 2s) bit<8> x; }").unwrap();
        assert_eq!(s.headers[0].counters[0].window_us, 2_000_000);
    }

    #[test]
    fn comments_allowed() {
        let s =
            Spec::parse("# hi\nheader a { # fields\n bit<8> x; }\nsequence a # tail\n").unwrap();
        assert_eq!(s.headers.len(), 1);
        assert_eq!(s.sequence, vec!["a"]);
    }

    #[test]
    fn subscribable_fields_ordered() {
        let spec = itch_spec();
        let names: Vec<String> = spec.subscribable_fields().into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            vec!["itch_order.shares", "itch_order.price", "itch_order.stock", "itch_order.side"]
        );
    }
}
