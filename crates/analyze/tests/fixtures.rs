//! Seeded-violation fixtures: one per rule, proving each rule fires on
//! known-bad code and that the committed workspace itself is clean.

use jxp_analyze::{analyze_source, check_workspace, Config, RuleId};
use std::path::Path;

fn rules_hit(rel: &str, src: &str) -> Vec<RuleId> {
    analyze_source(rel, src, &Config::default())
        .into_iter()
        .map(|d| d.rule)
        .collect()
}

#[test]
fn seeded_d1_violation_fires() {
    let src = "\
pub struct World { entries: FxHashMap<u64, f64> }
impl World {
    pub fn inflow(&self) -> f64 {
        let mut total = 0.0;
        for (_, w) in self.entries.iter() {
            total += w;
        }
        total
    }
}
";
    let hits = rules_hit("crates/core/src/fixture.rs", src);
    assert_eq!(hits, vec![RuleId::D1]);
}

#[test]
fn seeded_d2_violation_fires() {
    let src = "\
pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}
pub fn jitter() -> f64 {
    let mut rng = rand::thread_rng();
    rng.gen()
}
";
    let hits = rules_hit("crates/p2pnet/src/fixture.rs", src);
    assert_eq!(hits, vec![RuleId::D2, RuleId::D2]);
}

#[test]
fn seeded_c1_violation_fires() {
    let src = "\
pub fn peek(state: &std::sync::Mutex<u64>) -> u64 {
    *state.lock().unwrap()
}
";
    let hits = rules_hit("crates/node/src/fixture.rs", src);
    assert_eq!(hits, vec![RuleId::C1]);
}

#[test]
fn seeded_c2_violation_fires() {
    let src = "\
pub fn publish(ready: &std::sync::atomic::AtomicBool) {
    ready.store(true, std::sync::atomic::Ordering::Relaxed);
}
";
    let hits = rules_hit("crates/node/src/fixture.rs", src);
    assert_eq!(hits, vec![RuleId::C2]);
}

#[test]
fn multi_rule_pragma_suppresses_both_rules_on_one_line() {
    // One line firing two rules (D1 iteration + C2 Relaxed), silenced
    // by a single multi-rule pragma with one shared reason.
    let src = "\
pub fn drain(m: &FxHashMap<u64, f64>, flag: &AtomicBool) {
    for v in m.values() { flag.store(true, Ordering::Relaxed); } // jxp-analyze: allow(D1, C2, reason = \"fixture: order-insensitive fold, counter flag\")
}
";
    assert!(rules_hit("crates/core/src/fixture.rs", src).is_empty());
    // Without the pragma both fire on the same line.
    let bare = "\
pub fn drain(m: &FxHashMap<u64, f64>, flag: &AtomicBool) {
    for v in m.values() { flag.store(true, Ordering::Relaxed); }
}
";
    let hits = rules_hit("crates/core/src/fixture.rs", bare);
    assert_eq!(hits, vec![RuleId::D1, RuleId::C2]);
    // A multi-rule pragma only covers the rules it names: D1 stays
    // suppressed, C2 still fires.
    let partial = "\
pub fn drain(m: &FxHashMap<u64, f64>, flag: &AtomicBool) {
    for v in m.values() { flag.store(true, Ordering::Relaxed); } // jxp-analyze: allow(D1, reason = \"fixture: order-insensitive fold\")
}
";
    assert_eq!(
        rules_hit("crates/core/src/fixture.rs", partial),
        vec![RuleId::C2]
    );
}

#[test]
fn file_level_pragmas_cover_the_workspace_rules() {
    // One violation per rule; a single file-level pragma naming all
    // four silences the file, and naming three leaves the fourth.
    let body = "\
pub fn tally(m: &FxHashMap<u64, f64>, state: &Mutex<u64>, flag: &AtomicBool) -> f64 {
    let t0 = std::time::Instant::now();
    flag.store(true, Ordering::Relaxed);
    *state.lock().unwrap() += 1;
    m.values().sum()
}
";
    let rel = "crates/core/src/fixture.rs";
    assert_eq!(
        rules_hit(rel, body),
        vec![RuleId::D2, RuleId::C2, RuleId::C1, RuleId::D1]
    );
    let all = format!("// jxp-analyze: allow-file(D1, D2, C1, C2, reason = \"fixture\")\n{body}");
    assert!(rules_hit(rel, &all).is_empty());
    let three = format!("// jxp-analyze: allow-file(D1, D2, C2, reason = \"fixture\")\n{body}");
    assert_eq!(rules_hit(rel, &three), vec![RuleId::C1]);
}

#[test]
fn seeded_violations_suppressed_by_reasoned_pragmas() {
    let src = "\
pub fn stamp() -> std::time::Instant {
    // jxp-analyze: allow(D2, reason = \"fixture: display-only timestamp\")
    std::time::Instant::now()
}
";
    assert!(rules_hit("crates/p2pnet/src/fixture.rs", src).is_empty());
}

#[test]
fn pragma_missing_reason_is_itself_flagged() {
    let src = "\
pub fn publish(ready: &std::sync::atomic::AtomicBool) {
    // jxp-analyze: allow(C2)
    ready.store(true, std::sync::atomic::Ordering::Relaxed);
}
";
    let hits = rules_hit("crates/node/src/fixture.rs", src);
    assert!(hits.contains(&RuleId::Pragma));
    assert!(hits.contains(&RuleId::C2));
}

#[test]
fn test_modules_are_exempt() {
    let src = "\
pub fn f() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let _ = std::time::Instant::now();
        let _ = state.lock().unwrap();
    }
}
";
    assert!(rules_hit("crates/core/src/fixture.rs", src).is_empty());
}

#[test]
fn workspace_is_clean() {
    // CARGO_MANIFEST_DIR = crates/analyze → workspace root is ../..
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    // Config::default() is the committed analyze.toml.
    let diags = check_workspace(&root, &Config::default()).expect("workspace scan must succeed");
    let rendered: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
    assert!(
        diags.is_empty(),
        "workspace must be analyze-clean:\n{}",
        rendered.join("\n")
    );
}
