//! The filter-approximation scheme of §IV-D.
//!
//! To reduce the number of *unique* constraints — and therefore BDD
//! nodes and table entries — the controller may rewrite the numeric
//! constants in comparison constraints as multiples of a discretisation
//! unit α. The rewrite always *widens* the matched set (completeness is
//! preserved; the cost is false-positive traffic, measured in Fig. 13d):
//!
//! * `x > c` and `x ≥ c` round `c` **down** to a multiple of α
//!   (`price > 53` → `price > 50` for α = 10),
//! * `x < c` and `x ≤ c` round `c` **up** (`price < 57` → `price < 60`),
//! * `x == c` and `x != c` are kept exact (exact matches live in cheap
//!   SRAM anyway, and widening `!=` would match everything), and all
//!   string constraints are untouched.

use crate::ast::{Expr, Predicate, Rel};
use crate::value::Value;

/// Configuration for the approximation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproxConfig {
    /// The discretisation unit α. `1` disables rewriting (identity).
    pub alpha: i64,
}

impl ApproxConfig {
    pub fn new(alpha: i64) -> Self {
        assert!(alpha >= 1, "alpha must be positive");
        ApproxConfig { alpha }
    }
}

/// Largest multiple of α that is ≤ c (floor division toward -∞).
fn floor_alpha(c: i64, alpha: i64) -> i64 {
    c.div_euclid(alpha).saturating_mul(alpha)
}

/// Smallest multiple of α that is ≥ c.
fn ceil_alpha(c: i64, alpha: i64) -> i64 {
    let f = floor_alpha(c, alpha);
    if f == c {
        c
    } else {
        f.saturating_add(alpha)
    }
}

/// Approximate a single predicate. Returns the (possibly widened)
/// replacement expression.
fn approx_pred(p: &Predicate, cfg: ApproxConfig) -> Expr {
    let Value::Int(c) = p.constant else {
        return Expr::Atom(p.clone()); // strings untouched
    };
    let constant = match p.rel {
        Rel::Gt | Rel::Ge => floor_alpha(c, cfg.alpha),
        Rel::Lt | Rel::Le => ceil_alpha(c, cfg.alpha),
        // Equalities, inequalities and prefix tests are left exact.
        _ => c,
    };
    Expr::Atom(Predicate { operand: p.operand.clone(), rel: p.rel, constant: Value::Int(constant) })
}

/// Approximate every numeric comparison constant in `expr`.
///
/// Note: widening is only sound for *positively* occurring constraints.
/// Under a `not`, widening an atom would shrink the overall match set,
/// so atoms under negation are rewritten in the *narrowing* direction,
/// which after the `not` widens again. This is handled by tracking
/// polarity.
pub fn approximate_expr(expr: &Expr, cfg: ApproxConfig) -> Expr {
    approx_rec(expr, cfg, false)
}

fn approx_rec(expr: &Expr, cfg: ApproxConfig, negated: bool) -> Expr {
    match expr {
        Expr::True => {
            if negated {
                Expr::False
            } else {
                Expr::True
            }
        }
        Expr::False => {
            if negated {
                Expr::True
            } else {
                Expr::False
            }
        }
        Expr::Atom(p) => {
            if negated {
                // The enclosing `not` has been absorbed (the Expr::Not
                // arm returns our result directly), so produce the
                // widened form of the complement predicate.
                approx_pred(&p.negated(), cfg)
            } else {
                approx_pred(p, cfg)
            }
        }
        Expr::Not(e) => {
            let inner = approx_rec(e, cfg, !negated);
            // The polarity flip already produced the widened *negated*
            // meaning of `e`, so no standalone `not` remains.
            inner
        }
        Expr::And(a, b) => {
            let (fa, fb) = (approx_rec(a, cfg, negated), approx_rec(b, cfg, negated));
            if negated {
                fa.or(fb) // De Morgan: ¬(a ∧ b) = ¬a ∨ ¬b
            } else {
                fa.and(fb)
            }
        }
        Expr::Or(a, b) => {
            let (fa, fb) = (approx_rec(a, cfg, negated), approx_rec(b, cfg, negated));
            if negated {
                fa.and(fb)
            } else {
                fa.or(fb)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Operand;
    use crate::parser::parse_expr;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn paper_examples() {
        // §IV-D: α=10 rewrites price > 53 and price > 57 to price > 50.
        let cfg = ApproxConfig::new(10);
        let e = approximate_expr(&parse_expr("price > 53").unwrap(), cfg);
        assert_eq!(e, parse_expr("price > 50").unwrap());
        let e = approximate_expr(&parse_expr("price > 57").unwrap(), cfg);
        assert_eq!(e, parse_expr("price > 50").unwrap());
        // ...and price < 53 / price < 57 to price < 60.
        let e = approximate_expr(&parse_expr("price < 53").unwrap(), cfg);
        assert_eq!(e, parse_expr("price < 60").unwrap());
        let e = approximate_expr(&parse_expr("price < 57").unwrap(), cfg);
        assert_eq!(e, parse_expr("price < 60").unwrap());
    }

    #[test]
    fn alpha_one_is_identity() {
        let src = "price > 53 and x < 7 and stock == GOOGL";
        let e = parse_expr(src).unwrap();
        assert_eq!(approximate_expr(&e, ApproxConfig::new(1)), e);
    }

    #[test]
    fn multiples_unchanged() {
        let e = parse_expr("price > 50").unwrap();
        assert_eq!(approximate_expr(&e, ApproxConfig::new(10)), e);
    }

    #[test]
    fn negative_constants_floor_toward_minus_infinity() {
        let cfg = ApproxConfig::new(10);
        let e = approximate_expr(&parse_expr("t > -7").unwrap(), cfg);
        assert_eq!(e, parse_expr("t > -10").unwrap());
        let e = approximate_expr(&parse_expr("t < -7").unwrap(), cfg);
        assert_eq!(e, parse_expr("t < 0").unwrap());
    }

    #[test]
    fn strings_untouched() {
        let cfg = ApproxConfig::new(10);
        let e = parse_expr("stock == GOOGL and name =^ ab").unwrap();
        assert_eq!(approximate_expr(&e, cfg), e);
    }

    /// The key soundness property (completeness, §IV-C): for any packet,
    /// if the exact filter matches then the approximated filter matches.
    #[test]
    fn approximation_is_superset_randomised() {
        let mut rng = StdRng::seed_from_u64(42);
        let exprs = [
            "a > 53 and b < 57",
            "a >= 53 or b <= 41",
            "not (a > 53)",
            "not (a > 53 and b < 57)",
            "a > 13 and not (b >= 27 or a < 19)",
            "not (not (a < 55))",
            "a == 53 or b > 99",
        ];
        for alpha in [2i64, 5, 10, 50] {
            let cfg = ApproxConfig::new(alpha);
            for src in exprs {
                let exact = parse_expr(src).unwrap();
                let approx = approximate_expr(&exact, cfg);
                for _ in 0..500 {
                    let a = rng.gen_range(-120i64..120);
                    let b = rng.gen_range(-120i64..120);
                    let lookup = |op: &Operand| {
                        Some(Value::Int(match op.field_name() {
                            "a" => a,
                            "b" => b,
                            _ => return None,
                        }))
                    };
                    if exact.eval_with(lookup) {
                        assert!(
                            approx.eval_with(lookup),
                            "approximation shrank the match set: {src} α={alpha} a={a} b={b}; \
                             approx = {approx}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn approximation_reduces_unique_constants() {
        // The point of the exercise: many distinct constants collapse.
        let cfg = ApproxConfig::new(10);
        let mut consts = std::collections::HashSet::new();
        for c in 51..60 {
            let e = approximate_expr(&parse_expr(&format!("price > {c}")).unwrap(), cfg);
            if let Expr::Atom(p) = e {
                consts.insert(p.constant.clone());
            }
        }
        assert_eq!(consts.len(), 1); // all nine collapse to price > 50
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn zero_alpha_panics() {
        ApproxConfig::new(0);
    }
}
