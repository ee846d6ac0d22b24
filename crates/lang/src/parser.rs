//! Parser for filters and rules.
//!
//! Grammar (precedence: `not` > `and` > `or`; chains associate left):
//!
//! ```text
//! rule      := expr ':' action
//! expr      := or
//! or        := and ( 'or' and )*
//! and       := unary ( 'and' unary )*
//! unary     := 'not' unary | primary
//! primary   := '(' expr ')' | 'true' | 'false' | constraint
//! constraint:= operand rel constant
//! operand   := ident | aggfunc '(' ident ')'
//! aggfunc   := 'count' | 'sum' | 'avg'
//! rel       := '==' | '!=' | '<' | '<=' | '>' | '>=' | '=^' | '!^'
//! constant  := int | ip | string | ident          (bare idents are strings)
//! action    := ident '(' args? ')'                 e.g. fwd(1,2), drop()
//! ```
//!
//! Bare identifiers on the right-hand side of a relation are string
//! constants, so the paper's `stock == GOOGL` parses as expected.
//! Open parentheses wait on an explicit stack rather than in native
//! frames, so no input overflows the parser's stack, and a run of more
//! than 256 `not`s is a parse error.

use crate::ast::{Action, AggFunc, Expr, Operand, Predicate, Rel, Rule};
use crate::error::{LangError, Result};
use crate::lexer::{lex, Token, TokenKind};
use crate::value::Value;

/// Parse a complete rule, `filter: action`.
pub fn parse_rule(src: &str) -> Result<Rule> {
    let mut p = Parser::new(src)?;
    let rule = p.rule()?;
    p.expect_eof()?;
    Ok(rule)
}

/// Parse a bare filter expression (no action part).
pub fn parse_expr(src: &str) -> Result<Expr> {
    let mut p = Parser::new(src)?;
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Parse a newline-separated program of rules. Blank lines and `#`
/// comments are allowed between rules.
pub fn parse_rules(src: &str) -> Result<Vec<Rule>> {
    src.lines()
        .map(|l| l.trim())
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(parse_rule)
        .collect()
}

/// How many `not`s may stand in a row. `Expr`'s `Display` never prints
/// two in a row, so no printed filter is refused; a corrupt line of
/// `not`s is refused instead of becoming a `Not` chain as deep as the
/// line is long. Parentheses and chains are not capped: they nest as
/// deep as the input does, on the heap.
const MAX_NOT_RUN: usize = 256;

/// An open `(`: the `or` and `and` chains parsed inside it so far, and
/// the `not`s in front of it.
#[derive(Default)]
struct Group {
    or: Option<Expr>,
    and: Option<Expr>,
    nots: usize,
}

struct Parser {
    toks: Vec<Token>,
    i: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Self> {
        Ok(Parser { toks: lex(src)?, i: 0 })
    }

    fn peek(&self) -> &TokenKind {
        &self.toks[self.i].kind
    }

    fn pos(&self) -> usize {
        self.toks[self.i].pos
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.toks[self.i].kind.clone();
        if self.i + 1 < self.toks.len() {
            self.i += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<()> {
        if self.peek() == &kind {
            self.bump();
            Ok(())
        } else {
            Err(LangError::parse(
                self.pos(),
                format!("expected {}, found {}", kind.describe(), self.peek().describe()),
            ))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(LangError::parse(
                self.pos(),
                format!("unexpected trailing {}", self.peek().describe()),
            ))
        }
    }

    fn rule(&mut self) -> Result<Rule> {
        let filter = self.expr()?;
        self.expect(TokenKind::Colon)?;
        let action = self.action()?;
        Ok(Rule { filter, action })
    }

    /// `expr`, `and` and `unary` of the grammar in one loop. Each open
    /// `(` starts a [`Group`] and parks the enclosing one on an
    /// explicit stack, so the native stack stays flat however deep the
    /// input nests.
    fn expr(&mut self) -> Result<Expr> {
        let mut group = Group::default();
        let mut enclosing: Vec<Group> = Vec::new();
        loop {
            // An operand: its `not`s, then a `(` or a leaf.
            let mut nots = 0;
            while self.eat(&TokenKind::Not) {
                if nots == MAX_NOT_RUN {
                    return Err(LangError::parse(
                        self.pos(),
                        format!("more than {MAX_NOT_RUN} `not`s in a row"),
                    ));
                }
                nots += 1;
            }
            if self.eat(&TokenKind::LParen) {
                enclosing.push(std::mem::replace(&mut group, Group { nots, ..Group::default() }));
                continue;
            }
            let mut operand = self.primary()?;
            // Fold the operand into its group; a group that ends here
            // becomes the operand of the group around it.
            loop {
                operand = (0..nots).fold(operand, |e, _| e.not());
                let and = match group.and.take() {
                    Some(lhs) => lhs.and(operand),
                    None => operand,
                };
                if self.eat(&TokenKind::And) {
                    group.and = Some(and);
                    break;
                }
                let or = match group.or.take() {
                    Some(lhs) => lhs.or(and),
                    None => and,
                };
                if self.eat(&TokenKind::Or) {
                    group.or = Some(or);
                    break;
                }
                let Some(outer) = enclosing.pop() else { return Ok(or) };
                self.expect(TokenKind::RParen)?;
                (operand, nots) = (or, group.nots);
                group = outer;
            }
        }
    }

    /// A leaf operand: `true`, `false` or a constraint.
    fn primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            TokenKind::True => {
                self.bump();
                Ok(Expr::True)
            }
            TokenKind::False => {
                self.bump();
                Ok(Expr::False)
            }
            TokenKind::Ident(_) => self.constraint().map(Expr::Atom),
            other => Err(LangError::parse(
                self.pos(),
                format!("expected a constraint or `(`, found {}", other.describe()),
            )),
        }
    }

    fn constraint(&mut self) -> Result<Predicate> {
        let operand = self.operand()?;
        let rel = self.rel()?;
        let constant = self.constant()?;
        // Type-check the relation against the constant's type.
        let ok = match constant {
            Value::Int(_) => rel.applies_to_int(),
            Value::Str(_) => rel.applies_to_str(),
        };
        if !ok {
            return Err(LangError::Semantic(format!(
                "relation `{rel}` not applicable to {} constant `{constant}`",
                match constant {
                    Value::Int(_) => "integer",
                    Value::Str(_) => "string",
                }
            )));
        }
        if operand.is_stateful() && constant.as_int().is_none() {
            return Err(LangError::Semantic(
                "aggregates compare against integer constants only".into(),
            ));
        }
        Ok(Predicate { operand, rel, constant })
    }

    fn operand(&mut self) -> Result<Operand> {
        let pos = self.pos();
        let name = match self.bump() {
            TokenKind::Ident(n) => n,
            other => {
                return Err(LangError::parse(
                    pos,
                    format!("expected a field name, found {}", other.describe()),
                ))
            }
        };
        let func = match name.as_str() {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "avg" => Some(AggFunc::Avg),
            _ => None,
        };
        if let (Some(func), &TokenKind::LParen) = (func, self.peek()) {
            self.bump();
            let fpos = self.pos();
            let field = match self.bump() {
                TokenKind::Ident(n) => n,
                other => {
                    return Err(LangError::parse(
                        fpos,
                        format!(
                            "expected a field name inside aggregate, found {}",
                            other.describe()
                        ),
                    ))
                }
            };
            self.expect(TokenKind::RParen)?;
            return Ok(Operand::Aggregate { func, field });
        }
        Ok(Operand::Field(name))
    }

    fn rel(&mut self) -> Result<Rel> {
        let pos = self.pos();
        let rel = match self.bump() {
            TokenKind::Eq => Rel::Eq,
            TokenKind::Ne => Rel::Ne,
            TokenKind::Lt => Rel::Lt,
            TokenKind::Le => Rel::Le,
            TokenKind::Gt => Rel::Gt,
            TokenKind::Ge => Rel::Ge,
            TokenKind::PrefixOp => Rel::Prefix,
            TokenKind::NotPrefix => Rel::NotPrefix,
            other => {
                return Err(LangError::parse(
                    pos,
                    format!("expected a relation, found {}", other.describe()),
                ))
            }
        };
        Ok(rel)
    }

    fn constant(&mut self) -> Result<Value> {
        let pos = self.pos();
        match self.bump() {
            TokenKind::Int(v) => Ok(Value::Int(v)),
            TokenKind::Ip(v) => Ok(Value::Int(i64::from(v))),
            TokenKind::Str(s) => Ok(Value::Str(s)),
            // Bare identifier as a string constant: `stock == GOOGL`.
            TokenKind::Ident(s) => Ok(Value::Str(s)),
            other => Err(LangError::parse(
                pos,
                format!("expected a constant, found {}", other.describe()),
            )),
        }
    }

    fn action(&mut self) -> Result<Action> {
        let pos = self.pos();
        let name = match self.bump() {
            TokenKind::Ident(n) => n,
            other => {
                return Err(LangError::parse(
                    pos,
                    format!("expected an action name, found {}", other.describe()),
                ))
            }
        };
        self.expect(TokenKind::LParen)?;
        let mut int_args: Vec<i64> = Vec::new();
        let mut ip_args: Vec<u32> = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                let apos = self.pos();
                match self.bump() {
                    TokenKind::Int(v) => int_args.push(v),
                    TokenKind::Ip(v) => {
                        ip_args.push(v);
                        int_args.push(i64::from(v));
                    }
                    other => {
                        return Err(LangError::parse(
                            apos,
                            format!("expected an action argument, found {}", other.describe()),
                        ))
                    }
                }
                if self.eat(&TokenKind::RParen) {
                    break;
                }
                self.expect(TokenKind::Comma)?;
            }
        }
        match name.as_str() {
            "fwd" => {
                let mut ports = Vec::with_capacity(int_args.len());
                for a in int_args {
                    let p = u16::try_from(a).map_err(|_| {
                        LangError::Semantic(format!("port {a} out of range in fwd()"))
                    })?;
                    ports.push(p);
                }
                if ports.is_empty() {
                    return Err(LangError::Semantic("fwd() requires at least one port".into()));
                }
                // A forward set, not a list: `fwd(2, 2)` sends one copy
                // to port 2, on the fast path and the reference alike.
                ports.sort_unstable();
                ports.dedup();
                Ok(Action::Forward(ports))
            }
            "answerDNS" => {
                let ip = ip_args
                    .first()
                    .copied()
                    .or_else(|| int_args.first().and_then(|&v| u32::try_from(v).ok()))
                    .ok_or_else(|| {
                        LangError::Semantic("answerDNS() requires an IPv4 argument".into())
                    })?;
                Ok(Action::AnswerDns(ip))
            }
            "drop" => Ok(Action::Drop),
            _ => Ok(Action::Custom(name, int_args)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_examples() {
        // §II examples.
        let r = parse_expr("ip.dst == 192.168.0.1").unwrap();
        assert_eq!(r, Expr::Atom(Predicate::field("ip.dst", Rel::Eq, 0xC0A8_0001i64)));

        let r = parse_rule("stock == GOOGL and price > 50: fwd(1)").unwrap();
        assert_eq!(r.action, Action::Forward(vec![1]));

        let e = parse_expr("stock == GOOGL and avg(price) > 60").unwrap();
        assert!(e.operands().iter().any(|o| o.is_stateful()));

        // §VIII-C.6 Linear-Road example.
        let r = parse_rule("x > 10 and x < 20 and y > 30 and y < 40 and spd > 55: fwd(1)").unwrap();
        assert_eq!(r.filter.operands().len(), 3);

        // §VIII-F INT example (single `=`).
        let e = parse_expr("int.switch_id = 2 and int.hop_latency > 100").unwrap();
        assert_eq!(e.operands().len(), 2);
    }

    #[test]
    fn parse_precedence_not_and_or() {
        let e = parse_expr("a == 1 or b == 2 and c == 3").unwrap();
        // `and` binds tighter than `or`.
        match e {
            Expr::Or(_, rhs) => assert!(matches!(*rhs, Expr::And(_, _))),
            other => panic!("expected Or at top, got {other:?}"),
        }
        let e = parse_expr("not a == 1 and b == 2").unwrap();
        match e {
            Expr::And(lhs, _) => assert!(matches!(*lhs, Expr::Not(_))),
            other => panic!("expected And at top, got {other:?}"),
        }
        let e = parse_expr("not (a == 1 or not (b == 2 and c == 3)) and d == 4").unwrap();
        let atom = |f: &str, v: i64| Expr::Atom(Predicate::field(f, Rel::Eq, v));
        let inner = atom("b", 2).and(atom("c", 3)).not();
        assert_eq!(e, atom("a", 1).or(inner).not().and(atom("d", 4)));
    }

    #[test]
    fn parse_parentheses_override() {
        let e = parse_expr("(a == 1 or b == 2) and c == 3").unwrap();
        assert!(matches!(e, Expr::And(_, _)));
    }

    #[test]
    fn parse_true_false() {
        assert_eq!(parse_expr("true").unwrap(), Expr::True);
        assert_eq!(parse_expr("false").unwrap(), Expr::False);
        let r = parse_rule("true: fwd(3)").unwrap();
        assert_eq!(r.filter, Expr::True);
    }

    #[test]
    fn parse_multicast_and_actions() {
        assert_eq!(
            parse_rule("a == 1: fwd(1,2,3)").unwrap().action,
            Action::Forward(vec![1, 2, 3])
        );
        // Port lists are canonical: sorted, each port once.
        assert_eq!(parse_rule("a == 1: fwd(3,1,3)").unwrap().action, Action::Forward(vec![1, 3]));
        assert_eq!(
            parse_rule("name == h105: answerDNS(10.0.0.105)").unwrap().action,
            Action::AnswerDns(0x0A00_0069)
        );
        assert_eq!(parse_rule("a == 1: drop()").unwrap().action, Action::Drop);
        assert_eq!(
            parse_rule("a == 1: mirror(7)").unwrap().action,
            Action::Custom("mirror".into(), vec![7])
        );
    }

    #[test]
    fn parse_prefix_relation() {
        let e = parse_expr("name =^ \"h1\"").unwrap();
        assert_eq!(e, Expr::Atom(Predicate::field("name", Rel::Prefix, "h1")));
        // Bare identifier RHS also works for prefix.
        let e = parse_expr("name =^ h1").unwrap();
        assert_eq!(e, Expr::Atom(Predicate::field("name", Rel::Prefix, "h1")));
    }

    #[test]
    fn parse_rejects_type_mismatches() {
        // Ordering over strings is rejected.
        assert!(parse_expr("stock > GOOGL").is_err());
        // Prefix over integers is rejected.
        assert!(parse_expr("price =^ 10").is_err());
        // Aggregates over string constants are rejected.
        assert!(parse_expr("avg(price) == GOOGL").is_err());
    }

    #[test]
    fn parse_errors_are_positioned() {
        let err = parse_expr("a == ").unwrap_err();
        assert!(matches!(err, LangError::Parse { .. }), "{err}");
        assert!(parse_rule("a == 1").is_err()); // missing `: action`
        assert!(parse_rule("a == 1: fwd(1) extra").is_err());
        assert!(parse_rule("a == 1: fwd()").is_err());
        assert!(parse_rule("a == 1: fwd(70000)").is_err());
        assert!(parse_expr("(a == 1").is_err());
        assert!(parse_expr("a == 1)").is_err());
        assert!(parse_expr("not").is_err());
    }

    #[test]
    fn deep_input_parses_on_a_small_stack() {
        let on_small_stack = |src: String| {
            std::thread::Builder::new()
                .stack_size(256 << 10)
                .spawn(move || parse_expr(&src).map(drop))
                .unwrap()
                .join()
                .unwrap()
        };
        let n = 100_000;
        // Parentheses nest as deep as the input; they build no nodes.
        assert!(on_small_stack(format!("{}a == 1{}", "(".repeat(n), ")".repeat(n))).is_ok());
        for src in [format!("{}a == 1", "(".repeat(n)), format!("{}a == 1", "not ".repeat(n))] {
            let err = on_small_stack(src).unwrap_err();
            assert!(matches!(err, LangError::Parse { .. }), "{err}");
        }
        // The cap itself parses; one more `not` does not.
        assert!(on_small_stack(format!("{}a == 1", "not ".repeat(MAX_NOT_RUN))).is_ok());
        assert!(on_small_stack(format!("{}a == 1", "not ".repeat(MAX_NOT_RUN + 1))).is_err());
    }

    #[test]
    fn printed_filters_reparse_past_the_not_cap() {
        let atom = |v: i64| Expr::Atom(Predicate::field("a", Rel::Eq, v));
        let chain = (0..300).map(atom).reduce(Expr::or).unwrap();
        let nots = (0..2 * MAX_NOT_RUN).fold(atom(0), |e, _| e.not());
        for e in [chain, nots, Expr::conj((0..300).map(|v| atom(v).not()))] {
            assert_eq!(parse_expr(&e.to_string()).unwrap(), e);
        }
    }

    #[test]
    fn parse_rules_program() {
        let rules = parse_rules(
            "# market data\nstock == GOOGL: fwd(1)\n\nstock == MSFT and price > 10: fwd(2)\n",
        )
        .unwrap();
        assert_eq!(rules.len(), 2);
    }

    #[test]
    fn pretty_print_roundtrip_examples() {
        for src in [
            "stock == GOOGL and price > 50: fwd(1,2)",
            "(a == 1 or b == 2) and not c == 3: fwd(4)",
            "avg(price) > 60: fwd(1)",
            "name =^ \"h1\": drop()",
            "true: fwd(9)",
        ] {
            let r1 = parse_rule(src).unwrap();
            let r2 = parse_rule(&r1.to_string()).unwrap();
            assert_eq!(r1, r2, "round-trip failed for {src}");
        }
    }

    #[test]
    fn aggregate_parses_three_functions() {
        for (src, func) in [
            ("count(x) > 3", AggFunc::Count),
            ("sum(x) > 3", AggFunc::Sum),
            ("avg(x) > 3", AggFunc::Avg),
        ] {
            let e = parse_expr(src).unwrap();
            match e {
                Expr::Atom(Predicate { operand: Operand::Aggregate { func: f, .. }, .. }) => {
                    assert_eq!(f, func)
                }
                other => panic!("expected aggregate, got {other:?}"),
            }
        }
        // `avg` not followed by `(` is an ordinary field named avg.
        let e = parse_expr("avg == 3").unwrap();
        assert_eq!(e, Expr::Atom(Predicate::field("avg", Rel::Eq, 3i64)));
    }
}
