//! The dynamic-compilation driver: rules in, pipeline out.
//!
//! Runs whenever the subscription set changes (§V): DNF-normalise the
//! rule filters, build the multi-terminal BDD, slice it into tables
//! (Algorithm 2), allocate multicast groups, and produce the resource
//! report. Timing is recorded because recompilation latency is itself
//! an evaluation target (Fig. 14).
//!
//! The compiler reads its rules by reference. [`Compiler::compile_refs`]
//! builds from borrowed `(filter, action)` pairs, a [`RuleView`]'s say,
//! and [`Compiler::compile`] is that over an owned list: no rule is
//! copied, only the distinct atoms and actions the diagram keeps.
//!
//! A unit that recompiles through churn keeps a [`CompileState`] and
//! hands [`Compiler::compile_delta`] each epoch's list as a
//! [`RuleView`]: the rules held by reference, each with its digest. The
//! compiler diffs the view's digest multiset against the state and
//! validates and inserts, by reference too, only the rules the state
//! lacks, so an epoch that changes `k` of `n` rules works on `k` rules,
//! not `n`; a seed or rebuild reads the whole view in place.

use crate::multicast::MulticastAllocator;
use crate::pipeline::Pipeline;
use crate::resources::{report, ResourceReport};
use crate::statics::StaticPipeline;
use crate::tables::{bdd_to_pipeline, TableError};
use camus_bdd::digest::{expr_digest, rule_digest_continued};
use camus_bdd::{Bdd, BddBuilder, IncrementalBdd, VarOrder};
use camus_lang::ast::{Action, Expr, Operand, Rule};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Errors from dynamic compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    Table(TableError),
    /// A rule references a field the application spec does not declare
    /// as subscribable.
    UnknownField {
        rule: usize,
        field: String,
    },
    /// A parallel compile worker panicked while compiling one unit
    /// (switch / FIB); the panic is caught so one bad switch cannot
    /// abort the whole controller.
    Panicked {
        unit: usize,
        message: String,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Table(e) => write!(f, "{e}"),
            CompileError::UnknownField { rule, field } => {
                write!(f, "rule {rule} references unknown field `{field}`")
            }
            CompileError::Panicked { unit, message } => {
                write!(f, "compile of unit {unit} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<TableError> for CompileError {
    fn from(e: TableError) -> Self {
        CompileError::Table(e)
    }
}

/// The output of dynamic compilation.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The reduced multi-terminal BDD (kept for inspection).
    pub bdd: Bdd,
    /// The control-plane entries, organised as pipeline stages.
    pub pipeline: Pipeline,
    /// Allocated multicast groups.
    pub multicast: MulticastAllocator,
    /// Resource usage (Table I).
    pub report: ResourceReport,
    /// Wall-clock dynamic-compile time (Fig. 14).
    pub elapsed: Duration,
}

/// A rule list held by reference. Each rule is its
/// [`rule_digest`](camus_bdd::rule_digest), its borrowed filter and its
/// action. Rules are appended in runs that share one owned action — the
/// shape of a routed list, one `fwd(port)` per port — so a view of `n`
/// rules clones no filter and one action per run.
#[derive(Debug, Default)]
pub struct RuleView<'a> {
    actions: Vec<Action>,
    /// Digest, filter, and index into `actions`.
    rules: Vec<(u64, &'a Expr, u32)>,
}

impl<'a> RuleView<'a> {
    pub fn with_capacity(rules: usize) -> Self {
        RuleView { actions: Vec::new(), rules: Vec::with_capacity(rules) }
    }

    /// Open a run: the rules pushed after this carry `action`.
    pub fn start_run(&mut self, action: Action) {
        self.actions.push(action);
    }

    /// Append `filter` to the open run. `filter_digest` is its
    /// [`expr_digest`]; a caller that memoises it saves the rehash.
    ///
    /// # Panics
    ///
    /// If no run is open.
    pub fn push(&mut self, filter_digest: u64, filter: &'a Expr) {
        let run = self.actions.len().checked_sub(1).expect("a run is open");
        let digest = rule_digest_continued(filter_digest, &self.actions[run]);
        self.rules.push((digest, filter, u32::try_from(run).expect("fewer than 2^32 runs")));
    }

    pub fn len(&self) -> usize {
        self.rules.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Rule `i` as `(digest, filter, action)`.
    pub fn get(&self, i: usize) -> (u64, &'a Expr, &Action) {
        let (digest, filter, run) = self.rules[i];
        (digest, filter, &self.actions[run as usize])
    }

    /// Every rule as `(digest, filter, action)`, in list order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u64, &'a Expr, &Action)> + Clone + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// The list itself, every filter and action cloned.
    pub fn to_rules(&self) -> Vec<Rule> {
        self.iter()
            .map(|(_, filter, action)| Rule { filter: filter.clone(), action: action.clone() })
            .collect()
    }
}

impl<'a> From<&'a [Rule]> for RuleView<'a> {
    /// A view of an owned list: consecutive rules with equal actions
    /// share one run.
    fn from(rules: &'a [Rule]) -> Self {
        let mut view = RuleView::with_capacity(rules.len());
        for rule in rules {
            if view.actions.last() != Some(&rule.action) {
                view.start_run(rule.action.clone());
            }
            view.push(expr_digest(&rule.filter), &rule.filter);
        }
        view
    }
}

/// Persistent state for incremental recompilation of one unit (one
/// switch FIB): the live maintained diagram, which records the digest
/// multiset of the rules it holds. Hand [`Compiler::compile_delta`]
/// each epoch's whole list as a [`RuleView`]; the compiler diffs it
/// against that multiset and applies only the delta to the diagram, so
/// a reconfigure that touches `k` of `n` rules costs `O(k)` maintenance
/// work instead of an `O(n)` rebuild.
///
/// A unit's first compile replays its list on the empty
/// [`CompileState::default`], which holds no diagram: the delta is then
/// the whole list, so it takes the same bulk construction as
/// [`Compiler::compile`].
///
/// A held rule was validated by the compiler that inserted it and is
/// never validated again, so a state serves one compiler: replaying it
/// under a compiler with another spec may keep a rule that compiler
/// would reject.
#[derive(Debug, Default)]
pub struct CompileState {
    /// The live diagram; `None` until the first compile seeds it.
    inc: Option<IncrementalBdd>,
}

impl CompileState {
    /// Rules currently held in the live diagram.
    pub fn rule_count(&self) -> usize {
        self.inc.as_ref().map_or(0, IncrementalBdd::rule_count)
    }
}

/// The dynamic compiler.
#[derive(Debug, Clone, Default)]
pub struct Compiler {
    order: VarOrder,
    statics: Option<StaticPipeline>,
}

impl Compiler {
    pub fn new() -> Self {
        Compiler { order: VarOrder::empty(), statics: None }
    }

    /// Use an explicit BDD variable order.
    pub fn with_order(mut self, order: VarOrder) -> Self {
        self.order = order;
        self
    }

    /// Attach the static pipeline: its variable order (the declaration
    /// order as a tie-break, fitted to each rule list by the BDD
    /// constructor — [`StaticPipeline::var_order`]) and field widths are
    /// used, and rules are validated against it.
    pub fn with_static(mut self, statics: StaticPipeline) -> Self {
        self.order = statics.var_order();
        self.statics = Some(statics);
        self
    }

    /// Check each `(index, filter)` in turn: the first filter naming a
    /// field the spec does not declare fails, with that index.
    fn validate<'e>(
        &self,
        filters: impl IntoIterator<Item = (usize, &'e Expr)>,
    ) -> Result<(), CompileError> {
        let Some(statics) = &self.statics else { return Ok(()) };
        let unknown = |op: &Operand| statics.spec.resolve(op.field_name()).is_none();
        for (rule, filter) in filters {
            if let Some(op) = filter.find_operand(&unknown) {
                return Err(CompileError::UnknownField {
                    rule,
                    field: op.field_name().to_string(),
                });
            }
        }
        Ok(())
    }

    /// Compile a rule set into a pipeline: [`Compiler::compile_refs`]
    /// over the list.
    pub fn compile(&self, rules: &[Rule]) -> Result<Compiled, CompileError> {
        self.compile_refs(rules.iter().map(|r| (&r.filter, &r.action)))
    }

    /// Compile a rule list read by reference, each rule as its filter
    /// and action (a [`RuleView`]'s, say), into a pipeline. Nothing of
    /// the list is copied but the distinct atoms and actions the
    /// diagram keeps.
    pub fn compile_refs<'r, I>(&self, rules: I) -> Result<Compiled, CompileError>
    where
        I: IntoIterator<Item = (&'r Expr, &'r Action)>,
        I::IntoIter: Clone,
    {
        let start = Instant::now();
        let rules = rules.into_iter();
        self.validate(rules.clone().map(|(filter, _)| filter).enumerate())?;
        self.finish(BddBuilder::from_refs(rules).with_order(self.order.clone()).build(), start)
    }

    /// Slice a diagram into a pipeline and report its resources.
    fn finish(&self, bdd: Bdd, start: Instant) -> Result<Compiled, CompileError> {
        let mut multicast = MulticastAllocator::new(MulticastAllocator::DEFAULT_LIMIT);
        let pipeline = bdd_to_pipeline(&bdd, &mut multicast)?;
        let widths: HashMap<String, u32> =
            self.statics.as_ref().map(|s| s.widths()).unwrap_or_default();
        let report = report(&pipeline, multicast.group_count(), &widths);
        Ok(Compiled { bdd, pipeline, multicast, report, elapsed: start.elapsed() })
    }

    /// Recompile against persistent state: diff the view's digest
    /// multiset against the live one and replay only the delta
    /// (removals first, then inserts in list order) on the maintained
    /// diagram. The rules the state lacks are inserted by reference
    /// ([`IncrementalBdd::insert_ref`]), and they are validated before
    /// the state changes, so a rejected list leaves the state as it was;
    /// the error names the same rule [`Compiler::compile`] would over
    /// the owned list. Falls back to re-seeding the state from the view
    /// ([`IncrementalBdd::from_refs`]) when the delta exceeds half the
    /// rule set — past that point one bulk construction wins over
    /// replaying ops one by one — and when the delta changes the field
    /// order fitted to the list ([`IncrementalBdd::fits`]), so the
    /// maintained diagram is always ordered as a scratch build of the
    /// same list. On the empty [`CompileState::default`] the delta is
    /// the whole list: it is validated in list order, with no digest
    /// diff, and seeded by the bulk construction [`Compiler::compile_refs`]
    /// runs, so both emit equal pipelines.
    pub fn compile_delta(
        &self,
        state: &mut CompileState,
        view: &RuleView<'_>,
    ) -> Result<Compiled, CompileError> {
        let start = Instant::now();
        let Some(inc) = &mut state.inc else {
            self.validate(view.iter().map(|(_, filter, _)| filter).enumerate())?;
            let inc = state.inc.insert(IncrementalBdd::from_refs(view.iter(), &self.order));
            return self.finish(inc.snapshot(), start);
        };
        // Per digest: occurrences in the view and the first one's index.
        let mut wanted: HashMap<u64, (usize, usize)> = HashMap::with_capacity(view.len());
        for (i, (digest, _, _)) in view.iter().enumerate() {
            wanted.entry(digest).or_insert((0, i)).0 += 1;
        }
        // Subtract what the diagram already holds; what is left of
        // `wanted` is what it lacks.
        let mut removals: Vec<(u64, usize)> = Vec::new();
        for (digest, held) in inc.digest_counts() {
            let want = match wanted.entry(digest) {
                Entry::Occupied(mut e) if e.get().0 > held => {
                    e.get_mut().0 -= held;
                    continue;
                }
                Entry::Occupied(e) => e.remove().0,
                Entry::Vacant(_) => 0,
            };
            if held > want {
                removals.push((digest, held - want));
            }
        }
        removals.sort_unstable();
        let mut inserts: Vec<(usize, usize)> = wanted.into_values().map(|(n, i)| (i, n)).collect();
        inserts.sort_unstable();
        // A held rule passed validation when it was inserted; only the
        // inserts are new to this compiler.
        self.validate(inserts.iter().map(|&(i, _)| (i, view.get(i).1)))?;

        let delta: usize = removals.iter().map(|&(_, n)| n).sum::<usize>()
            + inserts.iter().map(|&(_, n)| n).sum::<usize>();
        let rebuild = 2 * delta > view.len().max(inc.rule_count());
        if !rebuild {
            for (digest, n) in removals {
                for _ in 0..n {
                    inc.remove_by_digest(digest);
                }
            }
            for (i, n) in inserts {
                let (digest, filter, action) = view.get(i);
                for _ in 0..n {
                    inc.insert_ref(digest, filter, action);
                }
            }
        }
        if rebuild || !inc.fits(&self.order) {
            *inc = IncrementalBdd::from_refs(view.iter(), &self.order);
        }
        self.finish(inc.snapshot(), start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_bdd::digest::Fnv1a;
    use camus_bdd::NodeRef;
    use camus_lang::ast::Action;
    use camus_lang::parser::parse_rules;
    use camus_lang::spec::itch_spec;
    use camus_lang::value::Value;
    use std::hash::Hasher;

    #[test]
    fn end_to_end_compile_and_evaluate() {
        let rules = parse_rules(
            "stock == GOOGL and price > 50: fwd(1)\n\
             stock == GOOGL: fwd(2)\n",
        )
        .unwrap();
        let c = Compiler::new().compile(&rules).unwrap();
        assert!(c.report.total_entries > 0);
        let act = c.pipeline.evaluate(|op| match op.field_name() {
            "stock" => Some(Value::from("GOOGL")),
            "price" => Some(Value::Int(60)),
            _ => None,
        });
        assert_eq!(act, Action::Forward(vec![1, 2]));
        assert_eq!(c.multicast.group_count(), 1);
    }

    #[test]
    fn with_static_uses_spec_order_and_validates() {
        let statics = crate::statics::compile_static(&itch_spec()).unwrap();
        let rules = parse_rules("stock == GOOGL and price > 50: fwd(1)\n").unwrap();
        let c = Compiler::new().with_static(statics.clone()).compile(&rules).unwrap();
        // The spec declares price before stock, but the rule tests both
        // and `stock` only with `==`: the fitted order puts the exact
        // symbol stage first and the price range under it.
        assert_eq!(c.pipeline.stages[0].operand.key(), "stock");
        assert_eq!(c.pipeline.stages[1].operand.key(), "price");
        // With no field every rule tests, declaration order decides.
        let split = parse_rules("stock == GOOGL: fwd(1)\nprice > 50: fwd(2)\n").unwrap();
        let c = Compiler::new().with_static(statics.clone()).compile(&split).unwrap();
        let keys: Vec<String> = c.pipeline.stages.iter().map(|s| s.operand.key()).collect();
        assert_eq!(keys, vec!["price", "stock"]);

        // Unknown fields are rejected.
        let bad = parse_rules("bogus == 1: fwd(1)\n").unwrap();
        let err = Compiler::new().with_static(statics).compile(&bad).unwrap_err();
        assert!(matches!(err, CompileError::UnknownField { .. }));
    }

    #[test]
    fn stateful_rules_compile_with_spec() {
        let statics = crate::statics::compile_static(&itch_spec()).unwrap();
        let rules = parse_rules("stock == GOOGL and avg(price) > 60: fwd(1)\n").unwrap();
        let c = Compiler::new().with_static(statics).compile(&rules).unwrap();
        // The aggregate is its own stage. `stock`, tested by every rule
        // with `==`, is fitted to the top; `avg(price)` keeps its place
        // after `price` among the rest.
        let keys: Vec<String> = c.pipeline.stages.iter().map(|s| s.operand.key()).collect();
        assert_eq!(keys, vec!["stock", "avg(price)"]);
    }

    #[test]
    fn widths_feed_resource_report() {
        let statics = crate::statics::compile_static(&itch_spec()).unwrap();
        let rules = parse_rules("price > 50: fwd(1)\n").unwrap();
        let c = Compiler::new().with_static(statics).compile(&rules).unwrap();
        let stage = &c.report.stages[0];
        assert!(stage.key_bits <= 32);
    }

    #[test]
    fn elapsed_is_recorded() {
        let rules = parse_rules("a == 1: fwd(1)\n").unwrap();
        let c = Compiler::new().compile(&rules).unwrap();
        assert!(c.elapsed.as_nanos() > 0);
    }

    #[test]
    fn incremental_compile_tracks_full_compile_through_churn() {
        use camus_lang::parser::parse_rule;
        let compiler = Compiler::new().with_order(VarOrder::from_keys(["id", "price"]));
        let mut rules: Vec<_> = (0..24)
            .map(|i| parse_rule(&format!("id == {i}: fwd({})", i % 4 + 1)).unwrap())
            .collect();
        let mut state = CompileState::default();
        compiler.compile_delta(&mut state, &RuleView::from(&rules[..])).unwrap();

        let check = |compiled: &Compiled, rules: &[camus_lang::ast::Rule]| {
            let full = compiler.compile(rules).unwrap();
            for id in -1..30i64 {
                for price in [0i64, 10, 100] {
                    let lookup = |op: &camus_lang::ast::Operand| match op.field_name() {
                        "id" => Some(Value::Int(id)),
                        "price" => Some(Value::Int(price)),
                        _ => None,
                    };
                    assert_eq!(
                        compiled.pipeline.evaluate(lookup),
                        full.pipeline.evaluate(lookup),
                        "id={id} price={price}"
                    );
                }
            }
        };

        // Small delta: the replay path.
        rules.drain(0..3);
        rules.push(parse_rule("id == 100 and price > 7: fwd(3)").unwrap());
        rules.push(parse_rule("price > 50: fwd(2)").unwrap());
        let c = compiler.compile_delta(&mut state, &RuleView::from(&rules[..])).unwrap();
        check(&c, &rules);
        assert_eq!(state.rule_count(), rules.len());

        // Duplicate rules: multiset accounting, not set accounting.
        rules.push(parse_rule("price > 50: fwd(2)").unwrap());
        let c = compiler.compile_delta(&mut state, &RuleView::from(&rules[..])).unwrap();
        check(&c, &rules);
        assert_eq!(state.rule_count(), rules.len());
        rules.pop();
        let c = compiler.compile_delta(&mut state, &RuleView::from(&rules[..])).unwrap();
        check(&c, &rules);

        // Large delta: the scratch-rebuild fallback.
        rules = (50..80)
            .map(|i| parse_rule(&format!("id == {i}: fwd({})", i % 3 + 1)).unwrap())
            .collect();
        let c = compiler.compile_delta(&mut state, &RuleView::from(&rules[..])).unwrap();
        check(&c, &rules);
        assert_eq!(state.rule_count(), rules.len());

        // No-op epoch: zero delta still yields a valid pipeline.
        let c = compiler.compile_delta(&mut state, &RuleView::from(&rules[..])).unwrap();
        check(&c, &rules);
    }

    #[test]
    fn a_delta_that_refits_the_order_reseeds() {
        use camus_lang::parser::parse_rule;
        let compiler =
            Compiler::new().with_static(crate::statics::compile_static(&itch_spec()).unwrap());
        let seeded: Vec<Rule> = (0..8)
            .map(|i| parse_rule(&format!("stock == S{i} and price > {i}: fwd({})", i % 3 + 1)))
            .collect::<Result<_, _>>()
            .unwrap();
        let mut state = CompileState::default();
        let seed = compiler.compile_delta(&mut state, &RuleView::from(&seeded[..])).unwrap();
        assert_eq!(seed.pipeline.stages[0].operand.key(), "stock");
        // One rule without a symbol: `price` is now the only field every
        // rule tests, so a scratch build puts it on top. The one-rule
        // delta is far below the half-table fallback; the order check
        // alone re-seeds.
        let mut rules = seeded.clone();
        rules.push(parse_rule("price > 3: fwd(2)").unwrap());
        let c = compiler.compile_delta(&mut state, &RuleView::from(&rules[..])).unwrap();
        assert_eq!(c.pipeline, compiler.compile(&rules).unwrap().pipeline);
        assert_eq!(c.pipeline.stages[0].operand.key(), "price");
        // Retracting it fits the symbol-first order again.
        let c = compiler.compile_delta(&mut state, &RuleView::from(&seeded[..])).unwrap();
        assert_eq!(c.pipeline, seed.pipeline);
        assert!(state.inc.as_ref().unwrap().fits(&compiler.order));
    }

    #[test]
    fn a_delta_naming_an_unknown_field_fails_before_touching_the_state() {
        use camus_lang::parser::parse_rule;
        let compiler =
            Compiler::new().with_static(crate::statics::compile_static(&itch_spec()).unwrap());
        let seeded: Vec<Rule> = (0..8)
            .map(|i| parse_rule(&format!("stock == S{i} and price > {i}: fwd({})", i % 3 + 1)))
            .collect::<Result<_, _>>()
            .unwrap();
        let mut state = CompileState::default();
        compiler.compile_delta(&mut state, &RuleView::from(&seeded[..])).unwrap();
        let held = |state: &CompileState| {
            let mut counts: Vec<(u64, usize)> =
                state.inc.iter().flat_map(|i| i.digest_counts()).collect();
            counts.sort_unstable();
            counts
        };
        let before = held(&state);

        // A valid insert ahead of the bad rule, the bad rule twice, and
        // more unknown fields after it: the delta names the first bad
        // rule, exactly as a scratch compile of the list does, whatever
        // order its digest map holds them in.
        let mut rules = seeded.clone();
        rules.insert(2, parse_rule("price > 3: fwd(2)").unwrap());
        rules.insert(5, parse_rule("stock == S1 and bogus == 1: fwd(1)").unwrap());
        rules.push(parse_rule("stock == S1 and bogus == 1: fwd(1)").unwrap());
        for k in 0..8 {
            rules.push(parse_rule(&format!("other{k} == 2: fwd(3)")).unwrap());
        }
        let scratch = compiler.compile(&rules).unwrap_err();
        assert_eq!(scratch, CompileError::UnknownField { rule: 5, field: "bogus".into() });
        assert_eq!(
            compiler.compile_delta(&mut state, &RuleView::from(&rules[..])).unwrap_err(),
            scratch
        );
        assert_eq!(held(&state), before, "a rejected delta leaves the state as it was");

        // The state still serves: the next compile is a scratch compile.
        rules.retain(|r| compiler.compile(std::slice::from_ref(r)).is_ok());
        let c = compiler.compile_delta(&mut state, &RuleView::from(&rules[..])).unwrap();
        assert_eq!(c.pipeline, compiler.compile(&rules).unwrap().pipeline);
        assert_eq!(state.rule_count(), rules.len());
    }

    /// A delta-maintained table need not equal the scratch build of the
    /// same list: this fixed churn step leaves the delta pipeline with
    /// 29 entries against scratch's 28. The contract is the forwarding
    /// of packets that carry every field the rules test: both tables
    /// must give `Expr::eval_with`'s port union on the whole grid.
    ///
    /// They part on packets that lack a tested field. A GOOGL packet
    /// with `shares = 5` and no `price` matches only `shares >= 5`, so
    /// scratch and `eval_with` forward it to {3}; the delta table sends
    /// it to {1, 3}. That is the absent-attribute fault (a scratch build
    /// of the same rules in another list order gives {1, 3} too), and
    /// it is deliberately not asserted here.
    #[test]
    fn a_delta_table_forwards_like_scratch_on_complete_packets() {
        let compiler =
            Compiler::new().with_static(crate::statics::compile_static(&itch_spec()).unwrap());
        let seeded =
            parse_rules("stock == GOOGL and price > 20: fwd(1)\nshares >= 5: fwd(3)\n").unwrap();
        let mut state = CompileState::default();
        compiler.compile_delta(&mut state, &RuleView::from(&seeded[..])).unwrap();
        // The grown list in the port-major order a routed list has.
        let rules = parse_rules(
            "stock == GOOGL and price > 20: fwd(1)\nprice > 100: fwd(2)\n\
             shares >= 5: fwd(3)\nprice < 50: fwd(3)\n",
        )
        .unwrap();
        let delta = compiler.compile_delta(&mut state, &RuleView::from(&rules[..])).unwrap();
        let scratch = compiler.compile(&rules).unwrap();
        assert_ne!(delta.pipeline, scratch.pipeline, "the check needs tables that differ");
        assert_eq!((delta.pipeline.total_entries(), scratch.pipeline.total_entries()), (29, 28));

        let prices = [i64::MIN, 10, 20, 21, 49, 50, 100, 101, i64::MAX];
        let grid = [4i64, 5].into_iter().flat_map(|shares| {
            prices
                .into_iter()
                .flat_map(move |price| ["GOOGL", "MSFT"].map(|stock| (shares, price, stock)))
        });
        for (shares, price, stock) in grid {
            let lookup = |op: &Operand| match op.field_name() {
                "shares" => Some(Value::Int(shares)),
                "price" => Some(Value::Int(price)),
                "stock" => Some(Value::from(stock)),
                _ => None,
            };
            // The matched rules' port union; a packet nothing matches
            // is dropped.
            let want = rules
                .iter()
                .filter(|r| r.filter.eval_with(lookup))
                .fold(Action::Drop, |acc, r| acc.merge(&r.action));
            let at = format!("shares={shares} price={price} stock={stock}");
            assert_eq!(delta.pipeline.evaluate(lookup), want, "delta, {at}");
            assert_eq!(scratch.pipeline.evaluate(lookup), want, "scratch, {at}");
        }
    }

    /// Identifier band with direct labels, residual tails and duplicate
    /// rules, range-only and `true` rules, a disjunction and a second
    /// equality band: every attachment class of the bulk constructor.
    fn mixed_rules() -> Vec<Rule> {
        let mut src = String::new();
        for i in 0..60 {
            src.push_str(&match i % 6 {
                0 => format!("id == {i} and price > {}: fwd({})\n", i % 17, i % 5 + 1),
                1 => format!("price > {}: fwd({})\n", i % 23, i % 3 + 1),
                2 => format!("stock == S{} or id == {}: fwd(4)\n", i % 7, i + 100),
                3 => format!("id == {} and price < {}: fwd(2)\n", i - 3, i % 11),
                _ => format!("id == {i}: fwd({})\n", i % 4 + 1),
            });
        }
        src.push_str("true: fwd(9)\nid == 4: fwd(1)\nid == 4: fwd(1)\n");
        parse_rules(&src).unwrap()
    }

    #[test]
    fn a_view_and_its_owned_list_compile_to_one_diagram_node_for_node() {
        // The view's actions are its own clones, one per run, and its
        // filters are the list's: nothing the build keeps may depend on
        // which copy it read.
        let diagram = |bdd: &Bdd| {
            let nodes: Vec<_> = (0..bdd.allocated_nodes() as u32).map(|i| *bdd.node(i)).collect();
            let terminals: Vec<_> = (0..bdd.terminal_count() as u32)
                .map(|t| bdd.terminal(camus_bdd::TermId(t)).clone())
                .collect();
            let labels: Vec<_> =
                terminals.iter().flatten().map(|&l| bdd.label(l).clone()).collect();
            (bdd.root(), nodes, terminals, labels, bdd.preds().to_vec())
        };
        let rules = mixed_rules();
        let view = RuleView::from(&rules[..]);
        for compiler in [
            Compiler::new(),
            Compiler::new().with_order(VarOrder::from_keys(["id", "price", "stock"])),
            Compiler::new().with_order(VarOrder::tie_break(["price", "stock", "id"])),
        ] {
            let owned = compiler.compile(&rules).unwrap();
            let viewed = compiler
                .compile_refs(view.iter().map(|(_, filter, action)| (filter, action)))
                .unwrap();
            assert_eq!(diagram(&viewed.bdd), diagram(&owned.bdd));
            assert_eq!(viewed.pipeline, owned.pipeline);
        }

        // Validation reads the same list in the same order.
        let compiler =
            Compiler::new().with_static(crate::statics::compile_static(&itch_spec()).unwrap());
        let rules = parse_rules(
            "price > 3: fwd(2)\nstock == S1: fwd(1)\nprice > 3: fwd(2)\n\
             bogus == 1: fwd(1)\nother == 2: fwd(3)\n",
        )
        .unwrap();
        let view = RuleView::from(&rules[..]);
        let want = CompileError::UnknownField { rule: 3, field: "bogus".into() };
        assert_eq!(compiler.compile(&rules).unwrap_err(), want);
        assert_eq!(
            compiler
                .compile_refs(view.iter().map(|(_, filter, action)| (filter, action)))
                .unwrap_err(),
            want
        );
    }

    #[test]
    fn a_predicate_reduced_away_does_not_widen_its_stage() {
        // `true: fwd(1)` subsumes `price > 5: fwd(1)`, so no node tests
        // the range predicate. The in-place diagram still has it in its
        // alphabet, the seed's snapshot has compacted it away; both
        // must emit the exact-match stage the surviving test needs.
        let rules = parse_rules("price == 3: fwd(2)\nprice > 5: fwd(1)\ntrue: fwd(1)\n").unwrap();
        let scratch = Compiler::new().compile(&rules).unwrap();
        let seed = Compiler::new()
            .compile_delta(&mut CompileState::default(), &RuleView::from(&rules[..]))
            .unwrap();
        assert_eq!(scratch.pipeline.stages[0].kind, crate::pipeline::MatchKind::Exact);
        assert_eq!(scratch.pipeline, seed.pipeline);
    }

    #[test]
    fn scratch_compile_and_seed_emit_the_same_pipeline() {
        // A seed is the delta from the empty state: the whole list, so
        // the same bulk construction a scratch compile runs.
        let rules = mixed_rules();
        for compiler in [
            Compiler::new(),
            Compiler::new().with_order(VarOrder::from_keys(["id", "price", "stock"])),
            Compiler::new().with_order(VarOrder::from_keys(["price", "id"])),
        ] {
            let scratch = compiler.compile(&rules).unwrap();
            let mut state = CompileState::default();
            let seed = compiler.compile_delta(&mut state, &RuleView::from(&rules[..])).unwrap();
            assert_eq!(scratch.pipeline, seed.pipeline);
            assert_eq!(scratch.bdd.node_count(), seed.bdd.node_count());
            assert_eq!(state.rule_count(), rules.len());
        }

        // Validation too: the empty state inserts every rule, in list
        // order, so it names the unknown field at the index a scratch
        // compile does, past a duplicated rule.
        let compiler =
            Compiler::new().with_static(crate::statics::compile_static(&itch_spec()).unwrap());
        let rules = parse_rules(
            "price > 3: fwd(2)\nprice > 3: fwd(2)\nstock == S1: fwd(1)\n\
             bogus == 1: fwd(1)\nprice > 3: fwd(2)\n",
        )
        .unwrap();
        let scratch = compiler.compile(&rules).unwrap_err();
        assert_eq!(scratch, CompileError::UnknownField { rule: 3, field: "bogus".into() });
        let mut state = CompileState::default();
        assert_eq!(
            compiler.compile_delta(&mut state, &RuleView::from(&rules[..])).unwrap_err(),
            scratch
        );
        assert_eq!(state.rule_count(), 0, "a rejected seed leaves the state empty");
    }

    #[test]
    fn repeated_builds_emit_identical_pipelines() {
        // `deploy_sharing`, `incremental_reconfigure` and
        // `fault_recovery` compare pipelines structurally across
        // independent compiles, so nothing in the build may follow a
        // `HashMap`'s per-instance iteration order. The pipeline is a
        // function of the reduced diagram; the store node for node is
        // the stricter check (it sees the order bands were chained in).
        let rules = mixed_rules();
        let order = VarOrder::from_keys(["id", "price"]);
        let build = || {
            let bdd = BddBuilder::from_rules(&rules).with_order(order.clone()).build();
            let mut multicast = MulticastAllocator::new(MulticastAllocator::DEFAULT_LIMIT);
            let pipeline = bdd_to_pipeline(&bdd, &mut multicast).unwrap();
            let nodes: Vec<_> = (0..bdd.allocated_nodes() as u32).map(|i| *bdd.node(i)).collect();
            (pipeline, bdd.root(), nodes)
        };
        let first = build();
        for run in 1..32 {
            assert_eq!(build(), first, "build {run} differs from build 0");
        }
        // Node ids follow the order the kernels make their calls in, so
        // an FNV-1a digest of the root and the node array pins that
        // order, not just a deterministic one.
        let enc = |r: NodeRef| match r {
            NodeRef::Term(t) => u64::from(t.0) << 1,
            NodeRef::Node(n) => u64::from(n) << 1 | 1,
        };
        let (_, root, nodes) = &first;
        let words = nodes.iter().flat_map(|n| [u64::from(n.var.0), enc(n.lo), enc(n.hi)]);
        let mut digest = Fnv1a(Fnv1a::OFFSET);
        for word in std::iter::once(enc(*root)).chain(words) {
            digest.write(&word.to_le_bytes());
        }
        assert_eq!(digest.finish(), 0x3e85_ab25_7958_25bf, "{} nodes", nodes.len());
    }

    #[test]
    fn mixed_rules_emit_a_pinned_pipeline() {
        // An FNV-1a digest of the printed pipeline (stages in order,
        // entries sorted, leaf by state with its multicast groups), taken
        // from the clone-per-edge emission walk: the linear walk must
        // reproduce it byte for byte.
        let pipeline = Compiler::new().compile(&mixed_rules()).unwrap().pipeline;
        let mut digest = Fnv1a(Fnv1a::OFFSET);
        digest.write(pipeline.to_string().as_bytes());
        assert_eq!(digest.finish(), 0x33c2_a476_6744_e8e6, "{} entries", pipeline.total_entries());
    }

    #[test]
    fn a_constant_rule_folds_into_the_band_as_the_seed_unions_it() {
        // MR's shape: identifiers, some with a price tail, and the up
        // rule `true: fwd(9)`. The cold build folds the up rule into the
        // `id` band; the seed keeps the band unfolded, as maintenance
        // re-merges it. Both must emit one pipeline from one diagram,
        // and the fold leaves little garbage: unioning the up rule over
        // the built band rebuilt all of it (4 225 nodes for 2 100).
        let mut src = String::new();
        for k in 0..2_000 {
            src.push_str(&format!("id == {k}: fwd({})\n", k % 4 + 1));
            if k % 7 == 0 {
                src.push_str(&format!("id == {k} and price > {}: fwd(5)\n", k % 25));
            }
        }
        src.push_str("true: fwd(9)\n");
        let rules = parse_rules(&src).unwrap();
        let compiler = Compiler::new().with_order(VarOrder::from_keys(["id", "price"]));
        let cold = compiler.compile(&rules).unwrap();
        let view = RuleView::from(&rules[..]);
        let seeded = compiler.compile_delta(&mut CompileState::default(), &view).unwrap();
        assert_eq!(cold.pipeline, seeded.pipeline);
        let (live, allocated) = (cold.bdd.node_count(), cold.bdd.allocated_nodes());
        assert_eq!(live, seeded.bdd.node_count());
        assert!(10 * allocated <= 11 * live, "{allocated} nodes allocated for {live}");
    }
}
