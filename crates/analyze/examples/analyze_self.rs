//! Programmatic use of the `jxp-analyze` rule engine.
//!
//! The CLI (`cargo run -p jxp-analyze -- check`) walks the workspace,
//! but the engine itself is a plain library function over source
//! strings: `analyze_source(rel_path, source, &config)`. This example
//! feeds it a small snippet that trips every rule once, then shows a
//! reasoned pragma silencing one of the findings.
//!
//! Run with: `cargo run -p jxp-analyze --example analyze_self`

use jxp_analyze::{analyze_source, Config, RuleId};

fn main() {
    let config = Config::default();

    // A snippet with one violation per rule. The path decides which
    // path-gated rules apply: crates/core/src is determinism-critical
    // (D1 and D2); C1/C2 apply everywhere.
    let bad = r#"
use std::collections::HashMap;

fn tally(counts: &HashMap<u64, f64>) -> f64 {
    let mut sum = 0.0;
    for (_k, v) in counts.iter() {            // D1: hash-ordered fold
        sum += v;
    }
    sum
}

fn stamp() -> std::time::Instant {
    std::time::Instant::now()                 // D2: wall clock
}

fn peek(state: &std::sync::Mutex<u32>) -> u32 {
    *state.lock().unwrap()                    // C1: poison panic
}

fn bump(flag: &std::sync::atomic::AtomicU32) {
    flag.fetch_add(1, std::sync::atomic::Ordering::Relaxed) // C2
        ;
}
"#;

    let diags = analyze_source("crates/core/src/example.rs", bad, &config);
    println!("== findings on the seeded snippet ==");
    for d in &diags {
        println!("  {d}");
    }
    assert!(diags.iter().any(|d| d.rule == RuleId::D1));
    assert!(diags.iter().any(|d| d.rule == RuleId::D2));
    assert!(diags.iter().any(|d| d.rule == RuleId::C1));
    assert!(diags.iter().any(|d| d.rule == RuleId::C2));

    // The same C2 site with a reasoned pragma passes clean — and the
    // reason is mandatory, so the suppression documents itself.
    let annotated = r#"
fn bump(flag: &std::sync::atomic::AtomicU32) {
    // jxp-analyze: allow(C2, reason = "pure event counter, merged commutatively")
    flag.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
}
"#;
    let diags = analyze_source("crates/core/src/example.rs", annotated, &config);
    println!("\n== same atomic with a reasoned allow(C2) pragma ==");
    println!("  findings: {}", diags.len());
    assert!(diags.is_empty());

    // Path gating: the identical hash-map fold outside a
    // determinism-critical module is fine (lookup order there never
    // reaches a score).
    let elsewhere = r#"
use std::collections::HashMap;

fn tally(counts: &HashMap<u64, f64>) -> f64 {
    counts.iter().map(|(_, v)| v).sum()
}
"#;
    let diags = analyze_source("crates/minerva/src/example.rs", elsewhere, &config);
    println!("\n== same fold outside the D1-critical set ==");
    println!("  findings: {}", diags.len());
    assert!(diags.is_empty());

    println!("\nok: all rule-engine assertions held");
}
