//! Abstract syntax of packet subscriptions (Fig. 1 of the paper).
//!
//! A *filter* is a logical expression over constraints; each constraint
//! compares a packet attribute (or an aggregate of a state variable)
//! with a constant using a relation. A *rule* pairs a filter with a
//! forwarding directive, e.g. `stock == GOOGL: fwd(1)` (§IV-D).

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Relations supported over numbers (equality and ordering) and strings
/// (equality and prefix), per §II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Rel {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// String prefix match: `name =^ "h1"` holds when the attribute
    /// starts with the constant.
    Prefix,
    /// Negated prefix match. Only produced by negation-pushing during
    /// DNF normalisation; has no surface syntax of its own.
    NotPrefix,
}

impl Rel {
    /// The relation denoting the complement set: used to push `not`
    /// through atomic constraints during DNF normalisation.
    pub fn negate(self) -> Rel {
        match self {
            Rel::Eq => Rel::Ne,
            Rel::Ne => Rel::Eq,
            Rel::Lt => Rel::Ge,
            Rel::Le => Rel::Gt,
            Rel::Gt => Rel::Le,
            Rel::Ge => Rel::Lt,
            Rel::Prefix => Rel::NotPrefix,
            Rel::NotPrefix => Rel::Prefix,
        }
    }

    /// Whether the relation applies to integer operands.
    pub(crate) fn applies_to_int(self) -> bool {
        !matches!(self, Rel::Prefix | Rel::NotPrefix)
    }

    /// Whether the relation applies to string operands.
    pub(crate) fn applies_to_str(self) -> bool {
        matches!(self, Rel::Eq | Rel::Ne | Rel::Prefix | Rel::NotPrefix)
    }

    /// Evaluate the relation on two integers.
    pub(crate) fn eval_int(self, lhs: i64, rhs: i64) -> bool {
        match self {
            Rel::Eq => lhs == rhs,
            Rel::Ne => lhs != rhs,
            Rel::Lt => lhs < rhs,
            Rel::Le => lhs <= rhs,
            Rel::Gt => lhs > rhs,
            Rel::Ge => lhs >= rhs,
            Rel::Prefix | Rel::NotPrefix => false,
        }
    }

    /// Evaluate the relation on two strings.
    pub(crate) fn eval_str(self, lhs: &str, rhs: &str) -> bool {
        match self {
            Rel::Eq => lhs == rhs,
            Rel::Ne => lhs != rhs,
            Rel::Prefix => lhs.starts_with(rhs),
            Rel::NotPrefix => !lhs.starts_with(rhs),
            // Ordering over strings is not part of the language.
            _ => false,
        }
    }
}

impl fmt::Display for Rel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rel::Eq => "==",
            Rel::Ne => "!=",
            Rel::Lt => "<",
            Rel::Le => "<=",
            Rel::Gt => ">",
            Rel::Ge => ">=",
            Rel::Prefix => "=^",
            Rel::NotPrefix => "!^",
        };
        f.write_str(s)
    }
}

/// Stateful aggregation functions over tumbling windows (§II). Only
/// local, windowed aggregates are expressible, mirroring the paper's
/// restrictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
        })
    }
}

/// The left-hand side of a constraint: either a packet attribute
/// (possibly a dotted path like `ip.dst` or `int.hop_latency`) or a
/// windowed aggregate over an attribute.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// A packet attribute, referenced by its (dotted) name.
    Field(String),
    /// A windowed aggregate of an attribute, e.g. `avg(price)`.
    Aggregate { func: AggFunc, field: String },
}

impl Operand {
    /// The attribute name this operand reads.
    pub fn field_name(&self) -> &str {
        match self {
            Operand::Field(f) => f,
            Operand::Aggregate { field, .. } => field,
        }
    }

    /// Whether evaluating this operand requires switch state.
    pub(crate) fn is_stateful(&self) -> bool {
        matches!(self, Operand::Aggregate { .. })
    }

    /// A canonical string used as the BDD variable key for this operand:
    /// `price` for fields, `avg(price)` for aggregates.
    pub fn key(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Field(name) => f.write_str(name),
            Operand::Aggregate { func, field } => write!(f, "{func}({field})"),
        }
    }
}

/// An atomic constraint: `operand REL constant`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Predicate {
    pub operand: Operand,
    pub rel: Rel,
    pub constant: Value,
}

impl Predicate {
    pub fn new(operand: Operand, rel: Rel, constant: impl Into<Value>) -> Self {
        Predicate { operand, rel, constant: constant.into() }
    }

    /// Shorthand for a stateless field constraint.
    pub fn field(name: &str, rel: Rel, constant: impl Into<Value>) -> Self {
        Predicate::new(Operand::Field(name.to_string()), rel, constant)
    }

    /// The complement constraint (`negate` of the relation).
    pub(crate) fn negated(&self) -> Predicate {
        Predicate {
            operand: self.operand.clone(),
            rel: self.rel.negate(),
            constant: self.constant.clone(),
        }
    }

    /// Evaluate this predicate against a concrete attribute value.
    /// Type mismatches evaluate to `false` (a packet lacking the typed
    /// attribute simply does not match, per pub/sub convention).
    pub fn eval(&self, actual: &Value) -> bool {
        match (actual, &self.constant) {
            (Value::Int(a), Value::Int(c)) => self.rel.eval_int(*a, *c),
            (Value::Str(a), Value::Str(c)) => self.rel.eval_str(a, c),
            _ => false,
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.operand, self.rel, self.constant)
    }
}

/// A filter expression: the boolean combination layer of Fig. 1.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Expr {
    /// Matches every packet. Used by the memory-reduction routing policy
    /// for `F_up` sets (§IV-C).
    True,
    /// Matches no packet.
    False,
    Atom(Predicate),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
}

impl Expr {
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }

    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }

    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// Build the conjunction of an iterator of expressions (`True` when
    /// empty).
    pub fn conj<I: IntoIterator<Item = Expr>>(parts: I) -> Expr {
        parts.into_iter().reduce(Expr::and).unwrap_or(Expr::True)
    }

    /// Evaluate against an attribute lookup function. `lookup` returns
    /// `None` when the packet does not carry the attribute, in which
    /// case the atom is false.
    pub fn eval_with<F: Fn(&Operand) -> Option<Value> + Copy>(&self, lookup: F) -> bool {
        match self {
            Expr::True => true,
            Expr::False => false,
            Expr::Atom(p) => lookup(&p.operand).is_some_and(|v| p.eval(&v)),
            Expr::Not(e) => !e.eval_with(lookup),
            Expr::And(a, b) => a.eval_with(lookup) && b.eval_with(lookup),
            Expr::Or(a, b) => a.eval_with(lookup) || b.eval_with(lookup),
        }
    }

    /// All distinct operand keys mentioned by the expression, in first-
    /// appearance order. The compiler uses this to pick a variable order.
    pub fn operands(&self) -> Vec<Operand> {
        let mut out = Vec::new();
        self.collect_operands(&mut out);
        out
    }

    /// The first operand, in [`Expr::operands`] order, that satisfies
    /// `pred`, found by reference: nothing is cloned or collected.
    pub fn find_operand(&self, pred: &impl Fn(&Operand) -> bool) -> Option<&Operand> {
        match self {
            Expr::True | Expr::False => None,
            Expr::Atom(p) => pred(&p.operand).then_some(&p.operand),
            Expr::Not(e) => e.find_operand(pred),
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.find_operand(pred).or_else(|| b.find_operand(pred))
            }
        }
    }

    fn collect_operands(&self, out: &mut Vec<Operand>) {
        match self {
            Expr::True | Expr::False => {}
            Expr::Atom(p) => {
                if !out.contains(&p.operand) {
                    out.push(p.operand.clone());
                }
            }
            Expr::Not(e) => e.collect_operands(out),
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_operands(out);
                b.collect_operands(out);
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Fully parenthesised form: verbose but guaranteed to reparse.
        match self {
            Expr::True => f.write_str("true"),
            Expr::False => f.write_str("false"),
            Expr::Atom(p) => write!(f, "{p}"),
            Expr::Not(e) => write!(f, "(not {e})"),
            Expr::And(a, b) => write!(f, "({a} and {b})"),
            Expr::Or(a, b) => write!(f, "({a} or {b})"),
        }
    }
}

/// A physical switch port number.
pub type Port = u16;

/// The action half of a rule (§IV-D and the DNS resolver application of
/// §VIII-C.5): what to do with a matching packet.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Action {
    /// Forward to one or more ports (multicast when more than one).
    /// The parser and [`Action::merge`] keep the ports sorted, each once.
    Forward(Vec<Port>),
    /// Craft a DNS authoritative answer with the given IPv4 address and
    /// send it back to the source (custom action, §VIII-C.5).
    AnswerDns(u32),
    /// Drop the packet.
    Drop,
    /// An application-defined action with a name and integer arguments.
    /// The dataplane maps it onto a registered action handler.
    Custom(String, Vec<i64>),
}

impl Action {
    /// Forwarding ports, if this is a `Forward` action.
    pub fn ports(&self) -> Option<&[Port]> {
        match self {
            Action::Forward(ps) => Some(ps),
            _ => None,
        }
    }

    /// Merge two actions for a packet matched by multiple rules.
    /// Forwarding sets union (and become a multicast group, §V-D);
    /// any non-forward action dominates a `Drop`; two distinct custom
    /// actions keep the first (the dataplane logs the conflict).
    pub fn merge(&self, other: &Action) -> Action {
        match (self, other) {
            (Action::Forward(a), Action::Forward(b)) => {
                let mut ports: Vec<Port> = a.iter().chain(b.iter()).copied().collect();
                ports.sort_unstable();
                ports.dedup();
                Action::Forward(ports)
            }
            (Action::Drop, x) | (x, Action::Drop) => x.clone(),
            (a, _) => a.clone(),
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Forward(ports) => {
                write!(f, "fwd(")?;
                for (i, p) in ports.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Action::AnswerDns(ip) => {
                write!(f, "answerDNS({})", crate::value::format_ipv4(*ip))
            }
            Action::Drop => f.write_str("drop()"),
            Action::Custom(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A complete subscription rule: `filter: action`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rule {
    pub filter: Expr,
    pub action: Action,
}

impl Rule {
    /// A rule forwarding matches of `filter` to a single port.
    pub fn fwd(filter: Expr, port: Port) -> Self {
        Rule { filter, action: Action::Forward(vec![port]) }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.filter, self.action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(name: &str, rel: Rel, v: i64) -> Predicate {
        Predicate::field(name, rel, v)
    }

    #[test]
    fn rel_negation_is_involutive() {
        for r in [Rel::Eq, Rel::Ne, Rel::Lt, Rel::Le, Rel::Gt, Rel::Ge, Rel::Prefix, Rel::NotPrefix]
        {
            assert_eq!(r.negate().negate(), r);
        }
    }

    #[test]
    fn rel_eval_int() {
        assert!(Rel::Eq.eval_int(3, 3));
        assert!(Rel::Ne.eval_int(3, 4));
        assert!(Rel::Lt.eval_int(3, 4));
        assert!(Rel::Le.eval_int(4, 4));
        assert!(Rel::Gt.eval_int(5, 4));
        assert!(Rel::Ge.eval_int(4, 4));
        assert!(!Rel::Gt.eval_int(4, 4));
    }

    #[test]
    fn rel_eval_str_prefix() {
        assert!(Rel::Prefix.eval_str("GOOGL", "GOO"));
        assert!(!Rel::Prefix.eval_str("GOO", "GOOGL"));
        assert!(Rel::NotPrefix.eval_str("MSFT", "GOO"));
        assert!(Rel::Eq.eval_str("a", "a"));
    }

    #[test]
    fn predicate_eval_respects_types() {
        let pred = Predicate::field("stock", Rel::Eq, "GOOGL");
        assert!(pred.eval(&Value::from("GOOGL")));
        assert!(!pred.eval(&Value::Int(5))); // type mismatch -> false
    }

    #[test]
    fn predicate_negated_complements() {
        let pred = p("price", Rel::Gt, 50);
        for v in [-5i64, 0, 49, 50, 51, 1000] {
            assert_ne!(pred.eval(&Value::Int(v)), pred.negated().eval(&Value::Int(v)));
        }
    }

    #[test]
    fn expr_eval_boolean_structure() {
        let e = Expr::Atom(p("a", Rel::Gt, 1)).and(Expr::Atom(p("b", Rel::Lt, 5)));
        let lookup = |op: &Operand| match op.field_name() {
            "a" => Some(Value::Int(2)),
            "b" => Some(Value::Int(3)),
            _ => None,
        };
        assert!(e.eval_with(lookup));
        assert!(!e.clone().not().eval_with(lookup));
        assert!(Expr::True.eval_with(lookup));
        assert!(!Expr::False.eval_with(lookup));
        assert!(Expr::False.or(e).eval_with(lookup));
    }

    #[test]
    fn expr_missing_attribute_is_false() {
        let e = Expr::Atom(p("missing", Rel::Eq, 1));
        fn none(_: &Operand) -> Option<Value> {
            None
        }
        assert!(!e.eval_with(none));
        // ...but the negation of a missing attribute is true.
        assert!(e.not().eval_with(none));
    }

    #[test]
    fn operand_collection_dedups_in_order() {
        let e = Expr::Atom(p("b", Rel::Gt, 1))
            .and(Expr::Atom(p("a", Rel::Lt, 2)))
            .or(Expr::Atom(p("b", Rel::Eq, 3)));
        let ops: Vec<String> = e.operands().iter().map(|o| o.key()).collect();
        assert_eq!(ops, vec!["b", "a"]);
    }

    #[test]
    fn conj_of_empty() {
        assert_eq!(Expr::conj(std::iter::empty()), Expr::True);
    }

    #[test]
    fn stateful_detection() {
        let agg = Predicate::new(
            Operand::Aggregate { func: AggFunc::Avg, field: "price".into() },
            Rel::Gt,
            60,
        );
        assert!(agg.operand.is_stateful());
        assert!(!p("x", Rel::Eq, 1).operand.is_stateful());
    }

    #[test]
    fn action_merge_unions_ports() {
        let a = Action::Forward(vec![1, 2]);
        let b = Action::Forward(vec![2, 3]);
        assert_eq!(a.merge(&b), Action::Forward(vec![1, 2, 3]));
        assert_eq!(Action::Drop.merge(&a), a);
        assert_eq!(a.merge(&Action::Drop), a);
    }

    #[test]
    fn display_forms() {
        let r = Rule::fwd(
            Expr::Atom(Predicate::field("stock", Rel::Eq, "GOOGL")).and(Expr::Atom(p(
                "price",
                Rel::Gt,
                50,
            ))),
            1,
        );
        assert_eq!(r.to_string(), "(stock == \"GOOGL\" and price > 50): fwd(1)");
        assert_eq!(Action::AnswerDns(0x0A00_0069).to_string(), "answerDNS(10.0.0.105)");
        assert_eq!(
            Operand::Aggregate { func: AggFunc::Avg, field: "price".into() }.key(),
            "avg(price)"
        );
    }
}
