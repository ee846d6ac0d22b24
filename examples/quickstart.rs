//! Quickstart: write subscriptions, compile them, and watch the
//! pipeline forward messages.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use camus::core::compiler::Compiler;
use camus::lang::parser::parse_rules;
use camus_lang::ast::Operand;
use camus_lang::value::Value;

fn main() {
    // 1. Packet subscriptions: filters over application-defined fields
    //    with forwarding directives (§II of the paper).
    let rules = parse_rules(
        "stock == GOOGL and price > 50: fwd(1)\n\
         stock == GOOGL: fwd(2)\n\
         shares > 100 and not (stock == MSFT): fwd(3)\n",
    )
    .expect("rules parse");
    println!("subscriptions:");
    for r in &rules {
        println!("  {r}");
    }

    // 2. Compile: DNF → multi-terminal BDD → per-field match-action
    //    tables (Algorithm 2).
    let compiled = Compiler::new().compile(&rules).expect("rules compile");
    println!(
        "\ncompiled in {:?}: {} BDD nodes, {} table entries, {} multicast group(s)",
        compiled.elapsed,
        compiled.bdd.node_count(),
        compiled.pipeline.total_entries(),
        compiled.multicast.group_count(),
    );
    println!("\npipeline tables:\n{}", compiled.pipeline);

    // 3. Evaluate packets through the pipeline.
    let packets: &[(&str, i64, i64)] = &[
        ("GOOGL", 60, 10), // rules 1+2 -> multicast fwd(1,2)
        ("GOOGL", 40, 10), // rule 2 only
        ("AAPL", 90, 500), // rule 3 only
        ("MSFT", 90, 500), // nothing
    ];
    println!("forwarding decisions:");
    for &(stock, price, shares) in packets {
        let action = compiled.pipeline.evaluate(|op: &Operand| match op.field_name() {
            "stock" => Some(Value::from(stock)),
            "price" => Some(Value::Int(price)),
            "shares" => Some(Value::Int(shares)),
            _ => None,
        });
        println!("  stock={stock:<6} price={price:<4} shares={shares:<4} -> {action}");
    }
}
