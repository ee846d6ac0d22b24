//! DNF normalisation is (quasi-)linear in the number of distinct terms.
//!
//! `id == 0 or id == 1 or … or id == n` has n + 1 distinct one-atom
//! terms. Repeated terms are dropped through a hash set, so four times
//! the disjuncts must cost about 4× the time; a scan of the terms kept
//! so far for each new one — what normalisation once did — costs about
//! 14× (quadratic, softened by the linear parts). Each size keeps the
//! fastest of seven normalisations: a busy host only ever slows a run
//! down, so the minimum is the run it disturbed least.

use std::time::{Duration, Instant};

use camus_lang::ast::{Expr, Predicate, Rel};
use camus_lang::dnf::to_dnf;

/// `id == lo or … or id == hi - 1`, as a balanced tree of `or`s (the
/// same terms as a left-deep chain, without a deep drop).
fn disjunction(lo: i64, hi: i64) -> Expr {
    if hi - lo == 1 {
        return Expr::Atom(Predicate::field("id", Rel::Eq, lo));
    }
    let mid = lo + (hi - lo) / 2;
    disjunction(lo, mid).or(disjunction(mid, hi))
}

fn fastest_dnf_time(expr: &Expr, terms: usize) -> Duration {
    (0..7)
        .map(|_| {
            let t0 = Instant::now();
            let dnf = to_dnf(std::hint::black_box(expr));
            let elapsed = t0.elapsed();
            assert_eq!(dnf.terms.len(), terms);
            elapsed
        })
        .min()
        .unwrap()
}

#[test]
fn dnf_of_a_disjunction_scales_with_its_terms() {
    let small = fastest_dnf_time(&disjunction(0, 4_000), 4_000);
    let large = fastest_dnf_time(&disjunction(0, 16_000), 16_000);
    assert!(
        large < small * 8,
        "16k disjuncts took {large:?}, 4k took {small:?}: more than 8x for 4x the terms"
    );
}
