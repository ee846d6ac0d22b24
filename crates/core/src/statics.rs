//! Static compilation: once per application (§V-A).
//!
//! Turns the annotated header specification into the pipeline *layout*:
//! the ordered list of match stages (one per subscribable field), the
//! default BDD variable order, and the register block allocated for
//! tumbling-window state variables. On real hardware this step emits
//! the P4 program; here it produces the [`StaticPipeline`] consumed by
//! both the dynamic compiler and the dataplane simulator.

use camus_bdd::VarOrder;
use camus_lang::error::{LangError, Result};
use camus_lang::spec::{MatchHint, Spec};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A stage slot in the static layout.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSlot {
    /// Operand key as subscriptions will reference it: the bare field
    /// name when unambiguous, otherwise `header.field`.
    pub key: String,
    pub width_bits: u32,
    pub hint: MatchHint,
}

/// A register allocated for a `@counter` state variable. The static
/// compiler pre-allocates the block; the dynamic compiler links
/// subscription actions to the registers (§V-A).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegisterSlot {
    pub name: String,
    pub window_us: u64,
    /// Index into the switch's register file block.
    pub index: u32,
}

/// The static half of a compiled application.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StaticPipeline {
    pub spec: Spec,
    pub slots: Vec<StageSlot>,
    pub registers: Vec<RegisterSlot>,
}

impl StaticPipeline {
    /// The default BDD variable order: subscribable fields in
    /// declaration order, each followed by its aggregate operands, as a
    /// *tie-break* ([`VarOrder::tie_break`]). The BDD constructor fits
    /// it to every rule list it builds — fields every rule tests go on
    /// top, equality-only ones first — and declaration order decides
    /// the rest (§V-C's "simple heuristic", chosen from the rules rather
    /// than from the spec alone). Stage slots keep declaration order.
    pub fn var_order(&self) -> VarOrder {
        VarOrder::tie_break(self.slots.iter().flat_map(|slot| {
            let key = &slot.key;
            [key.clone(), format!("count({key})"), format!("sum({key})"), format!("avg({key})")]
        }))
    }

    /// Field widths for resource accounting ([`Spec::field_widths`]).
    pub fn widths(&self) -> HashMap<String, u32> {
        self.spec.field_widths()
    }
}

/// Run static compilation on a parsed spec.
pub fn compile_static(spec: &Spec) -> Result<StaticPipeline> {
    let mut slots = Vec::new();
    for (path, f) in spec.subscribable_fields() {
        let bare = path.rsplit('.').next().unwrap_or(&path).to_string();
        // Use the bare name when it resolves unambiguously.
        let key = if spec.resolve(&bare).is_some() { bare } else { path.clone() };
        if slots.iter().any(|s: &StageSlot| s.key == key) {
            return Err(LangError::Spec(format!("duplicate stage key `{key}`")));
        }
        slots.push(StageSlot { key, width_bits: f.width_bits, hint: f.match_hint });
    }
    if slots.is_empty() {
        return Err(LangError::Spec("spec declares no subscribable fields".into()));
    }
    let mut registers = Vec::new();
    for h in &spec.headers {
        for c in &h.counters {
            if registers.iter().any(|r: &RegisterSlot| r.name == c.name) {
                return Err(LangError::Spec(format!("duplicate counter `{}`", c.name)));
            }
            registers.push(RegisterSlot {
                name: c.name.clone(),
                window_us: c.window_us,
                index: registers.len() as u32,
            });
        }
    }
    Ok(StaticPipeline { spec: spec.clone(), slots, registers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_lang::spec::{int_spec, itch_spec};

    #[test]
    fn itch_static_layout() {
        let sp = compile_static(&itch_spec()).unwrap();
        let keys: Vec<&str> = sp.slots.iter().map(|s| s.key.as_str()).collect();
        assert_eq!(keys, vec!["shares", "price", "stock", "side"]);
        assert_eq!(sp.slots[2].hint, MatchHint::Exact);
        assert_eq!(sp.registers.len(), 1);
        assert_eq!(sp.registers[0].name, "my_counter");
        assert_eq!(sp.registers[0].index, 0);
    }

    #[test]
    fn var_order_includes_aggregates() {
        // The tie-break lists each aggregate right after its field, in
        // declaration order.
        let sp = compile_static(&itch_spec()).unwrap();
        let order = sp.var_order();
        let price = order.rank("price").unwrap();
        let avg_price = order.rank("avg(price)").unwrap();
        assert!(avg_price > price);
        assert!(avg_price < order.rank("stock").unwrap());
        // Fitted to ITCH subscriptions, which all test `stock` with `==`
        // and `price` with `>`, the symbol goes above the price, and
        // `avg(price)` still follows `price`.
        let rules = camus_lang::parser::parse_rules(
            "stock == GOOGL and price > 50: fwd(1)\nstock == FB and price > 7: fwd(2)\n",
        )
        .unwrap();
        let fitted = camus_bdd::BddBuilder::from_rules(&rules).with_order(order).build();
        let fitted = fitted.var_order();
        let rank = |k: &str| fitted.rank(k).unwrap();
        assert_eq!(rank("stock"), 0);
        assert!(rank("stock") < rank("price") && rank("price") < rank("shares"));
        assert_eq!(rank("avg(price)"), rank("price") + 3);
    }

    #[test]
    fn widths_cover_bare_and_dotted() {
        let sp = compile_static(&itch_spec()).unwrap();
        let w = sp.widths();
        assert_eq!(w.get("price"), Some(&32));
        assert_eq!(w.get("itch_order.price"), Some(&32));
        assert_eq!(w.get("stock"), Some(&64));
    }

    #[test]
    fn ambiguous_fields_get_dotted_keys() {
        let spec = camus_lang::spec::Spec::parse(
            "header a { @field bit<8> x; }\nheader b { @field bit<16> x; }\nsequence a b",
        )
        .unwrap();
        let sp = compile_static(&spec).unwrap();
        let keys: Vec<&str> = sp.slots.iter().map(|s| s.key.as_str()).collect();
        assert_eq!(keys, vec!["a.x", "b.x"]);
    }

    #[test]
    fn no_subscribable_fields_is_an_error() {
        let spec = camus_lang::spec::Spec::parse("header a { bit<8> x; }\nsequence a").unwrap();
        assert!(compile_static(&spec).is_err());
    }

    #[test]
    fn int_spec_compiles() {
        let sp = compile_static(&int_spec()).unwrap();
        assert_eq!(sp.slots.len(), 4);
        assert!(sp.registers.is_empty());
    }
}
