//! The delivery oracle: which hosts a published packet must reach.
//!
//! The paper's invariant is that a packet reaches exactly the hosts
//! whose subscriptions it satisfies. [`matching_hosts`] evaluates the
//! subscriptions themselves against the packet's attribute values, so
//! the service audit checks deliveries against the definition, not
//! another compiled form. Tests and experiments use `camus-oracle`'s.

use camus_lang::ast::{Expr, Operand};
use camus_lang::value::Value;

/// Hosts whose subscriptions match `witness`, the attribute values a
/// published packet carries, in host order. `publisher`, when given,
/// is left out: the network never loops a message back to its source.
pub fn matching_hosts(
    subs: &[Vec<Expr>],
    witness: &[(String, Value)],
    publisher: Option<usize>,
) -> Vec<usize> {
    let lookup = |op: &Operand| match op {
        Operand::Field(name) => witness.iter().find(|(n, _)| n == name).map(|(_, v)| v.clone()),
        Operand::Aggregate { .. } => None,
    };
    subs.iter()
        .enumerate()
        .filter(|&(h, fs)| Some(h) != publisher && fs.iter().any(|f| f.eval_with(lookup)))
        .map(|(h, _)| h)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_lang::parser::parse_expr;

    #[test]
    fn matching_hosts_leaves_out_the_publisher() {
        let subs: Vec<Vec<Expr>> = ["price > 10", "stock == GOOGL", "price > 99", "price > 10"]
            .iter()
            .map(|f| vec![parse_expr(f).unwrap()])
            .collect();
        let witness = vec![("price".to_string(), Value::Int(50))];
        assert_eq!(matching_hosts(&subs, &witness, None), vec![0, 3]);
        assert_eq!(matching_hosts(&subs, &witness, Some(3)), vec![0]);
        // A field the witness does not carry matches nothing.
        assert!(matching_hosts(&subs[1..2], &witness, None).is_empty());
    }
}
