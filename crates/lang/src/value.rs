//! Typed atomic values carried by packet attributes and compared against
//! by subscription constraints.
//!
//! The paper's data model (§V-A) structures packets as sets of named
//! attributes with *typed atomic values*: numbers and fixed-width
//! strings. IP addresses are just numbers (the paper treats `ip.dst` as
//! another attribute); the parser folds dotted-quad literals into
//! [`Value::Int`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// The type of an attribute or constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Type {
    /// Signed 64-bit integer. Wide enough for every fixed-width header
    /// field the applications use (ITCH prices, INT latencies, IPv4/ILA
    /// identifiers...).
    Int,
    /// A short byte string (stock symbols, host names, content ids).
    /// On the wire these are fixed-width, space- or NUL-padded fields.
    Str,
}

/// A constant value: the right-hand side of a constraint, or the value
/// of an attribute extracted from a packet.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Value {
    Int(i64),
    Str(String),
}

impl Value {
    /// The type of this value.
    pub fn ty(&self) -> Type {
        match self {
            Value::Int(_) => Type::Int,
            Value::Str(_) => Type::Str,
        }
    }

    /// The integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Str(_) => None,
        }
    }

    /// The string payload, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Int(_) => None,
        }
    }

    /// Encode this value into a fixed-width big-endian byte field, the
    /// way it would appear inside a packet. Strings are right-padded
    /// with spaces (the ITCH convention); integers are the low `width`
    /// bytes of the big-endian encoding.
    pub(crate) fn encode(&self, width: usize) -> Vec<u8> {
        match self {
            Value::Int(i) => {
                let be = i.to_be_bytes();
                let start = be.len().saturating_sub(width);
                let mut out = vec![0u8; width.saturating_sub(be.len())];
                out.extend_from_slice(&be[start..]);
                out
            }
            Value::Str(s) => {
                let mut out = s.as_bytes().to_vec();
                out.truncate(width);
                out.resize(width, b' ');
                out
            }
        }
    }

    /// Decode a fixed-width field back into a value of type `ty`.
    /// Strings have trailing spaces/NULs stripped; integers are read as
    /// big-endian unsigned (headers never carry negative numbers) and
    /// therefore fit in `i64` for widths up to 8 bytes.
    pub(crate) fn decode(ty: Type, bytes: &[u8]) -> Value {
        match ty {
            Type::Int => {
                let mut v: i64 = 0;
                for &b in bytes.iter().take(8) {
                    v = (v << 8) | i64::from(b);
                }
                Value::Int(v)
            }
            Type::Str => {
                let end = bytes.iter().rposition(|&b| b != b' ' && b != 0).map_or(0, |p| p + 1);
                Value::Str(String::from_utf8_lossy(&bytes[..end]).into_owned())
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            // Quote so the pretty-printed form reparses unambiguously.
            Value::Str(s) => write!(f, "\"{s}\""),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Parse a dotted-quad IPv4 literal into its u32 value.
/// Returns `None` if the string is not a well-formed dotted quad.
pub fn parse_ipv4(s: &str) -> Option<u32> {
    let mut parts = s.split('.');
    let mut v: u32 = 0;
    let mut n = 0;
    for p in parts.by_ref() {
        if p.is_empty() || p.len() > 3 || !p.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let octet: u32 = p.parse().ok()?;
        if octet > 255 {
            return None;
        }
        v = (v << 8) | octet;
        n += 1;
        if n > 4 {
            return None;
        }
    }
    if n == 4 {
        Some(v)
    } else {
        None
    }
}

/// Format a u32 as a dotted-quad IPv4 address.
pub fn format_ipv4(v: u32) -> String {
    format!("{}.{}.{}.{}", (v >> 24) & 0xff, (v >> 16) & 0xff, (v >> 8) & 0xff, v & 0xff)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_types() {
        assert_eq!(Value::Int(3).ty(), Type::Int);
        assert_eq!(Value::from("x").ty(), Type::Str);
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_str(), None);
        assert_eq!(Value::from("abc").as_str(), Some("abc"));
    }

    #[test]
    fn int_encode_roundtrip() {
        for (v, w) in [(0i64, 4), (1, 4), (0xDEAD, 4), (0xFFFF_FFFF, 4), (42, 8), (7, 2)] {
            let bytes = Value::Int(v).encode(w);
            assert_eq!(bytes.len(), w);
            assert_eq!(Value::decode(Type::Int, &bytes), Value::Int(v));
        }
    }

    #[test]
    fn int_encode_narrow_width_truncates_high_bytes() {
        // 0x1234 in 1 byte keeps only the low byte.
        assert_eq!(Value::Int(0x1234).encode(1), vec![0x34]);
    }

    #[test]
    fn str_encode_pads_with_spaces() {
        let bytes = Value::from("GOOGL").encode(8);
        assert_eq!(bytes, b"GOOGL   ".to_vec());
        assert_eq!(Value::decode(Type::Str, &bytes), Value::from("GOOGL"));
    }

    #[test]
    fn str_encode_truncates() {
        let bytes = Value::from("TOOLONGNAME").encode(4);
        assert_eq!(bytes, b"TOOL".to_vec());
    }

    #[test]
    fn str_decode_strips_nul_padding() {
        assert_eq!(Value::decode(Type::Str, b"ab\0\0"), Value::from("ab"));
    }

    #[test]
    fn ipv4_parsing() {
        assert_eq!(parse_ipv4("192.168.0.1"), Some(0xC0A8_0001));
        assert_eq!(parse_ipv4("0.0.0.0"), Some(0));
        assert_eq!(parse_ipv4("255.255.255.255"), Some(u32::MAX));
        assert_eq!(parse_ipv4("256.0.0.1"), None);
        assert_eq!(parse_ipv4("1.2.3"), None);
        assert_eq!(parse_ipv4("1.2.3.4.5"), None);
        assert_eq!(parse_ipv4("a.b.c.d"), None);
        assert_eq!(parse_ipv4(""), None);
    }

    #[test]
    fn ipv4_roundtrip() {
        for v in [0u32, 1, 0xC0A8_0001, u32::MAX] {
            assert_eq!(parse_ipv4(&format_ipv4(v)), Some(v));
        }
    }

    #[test]
    fn display_quotes_strings() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::from("GOOGL").to_string(), "\"GOOGL\"");
    }

    #[test]
    fn value_ordering_is_total_within_type() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::from("a") < Value::from("b"));
    }
}
