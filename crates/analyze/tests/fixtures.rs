//! Seeded-violation fixtures: one per rule, proving each rule fires on
//! known-bad code and that the committed workspace itself is clean.

use jxp_analyze::{analyze_source, analyze_sources, check_workspace, Config, Diagnostic, RuleId};
use std::path::Path;

fn rules_hit(rel: &str, src: &str) -> Vec<RuleId> {
    analyze_source(rel, src, &Config::default())
        .into_iter()
        .map(|d| d.rule)
        .collect()
}

fn multi(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    analyze_sources(files, &Config::default())
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
fn seeded_c4_violation_fires() {
    let src = "\
pub fn serve_forever() {
    std::thread::spawn(move || loop {});
}
";
    let hits = rules_hit("crates/node/src/fixture.rs", src);
    assert_eq!(hits, vec![RuleId::C4]);
    // Binding the handle satisfies the rule.
    let bound = "\
pub fn serve() -> std::thread::JoinHandle<()> {
    let worker = std::thread::spawn(move || {});
    worker
}
";
    assert!(rules_hit("crates/node/src/fixture.rs", bound).is_empty());
}

#[test]
fn seeded_c4_builder_discard_fires() {
    // The leak pattern PR 8 fixed: a Builder-spawned worker whose
    // JoinHandle is thrown away, formatted across lines as fmt does.
    let let_discard = "\
pub fn accept_loop() {
    let _ = std::thread::Builder::new()
        .name(String::from(\"worker\"))
        .spawn(move || loop {});
}
";
    assert_eq!(
        rules_hit("crates/node/src/fixture.rs", let_discard),
        vec![RuleId::C4]
    );
    let ok_discard = "\
pub fn accept_loop() {
    std::thread::Builder::new()
        .name(String::from(\"worker\"))
        .spawn(move || loop {})
        .ok();
}
";
    assert_eq!(
        rules_hit("crates/node/src/fixture.rs", ok_discard),
        vec![RuleId::C4]
    );
    // Compliant twin: binding the handle (even through .expect) passes.
    let bound = "\
pub fn accept_loop() -> std::thread::JoinHandle<()> {
    let handle = std::thread::Builder::new()
        .name(String::from(\"worker\"))
        .spawn(move || {})
        .expect(\"spawn\");
    handle
}
";
    assert!(rules_hit("crates/node/src/fixture.rs", bound).is_empty());
}

#[test]
fn seeded_d1x_violation_fires_and_compliant_twin_passes() {
    // Hash container declared in jxp-node, iterated in a D1-critical
    // module — invisible to single-file D1, caught by D1X.
    let producer = "\
pub struct Scraped {
    pub by_peer: FxHashMap<u64, f64>,
}
";
    let consumer = "\
pub fn absorb(s: &Scraped) -> f64 {
    s.by_peer.values().sum()
}
";
    let diags = multi(&[
        ("crates/node/src/scrape.rs", producer),
        ("crates/core/src/absorb.rs", consumer),
    ]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, RuleId::D1X);
    assert_eq!(diags[0].file, "crates/core/src/absorb.rs");
    // The message points back at the cross-file declaration site.
    assert!(diags[0].message.contains("crates/node/src/scrape.rs:2"));
    // Compliant twin: same shape with an ordered container.
    let ordered = "\
pub struct Scraped {
    pub by_peer: BTreeMap<u64, f64>,
}
";
    let diags = multi(&[
        ("crates/node/src/scrape.rs", ordered),
        ("crates/core/src/absorb.rs", consumer),
    ]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn seeded_l1_two_lock_cycle_fires_with_both_sites() {
    // The PR 8 jxp-pool deadlock shape: the round path holds `queue`
    // and reaps `handles` (through a helper call); the shutdown path
    // holds `handles` and drains `queue`. Opposite order → deadlock.
    let pool = "\
pub struct PoolShared {
    pub queue: Mutex<Vec<u64>>,
    pub handles: Mutex<Vec<u64>>,
}
pub fn finish_round(shared: &PoolShared) {
    let q = lock_unpoisoned(&shared.queue);
    reap_finished(shared);
    drop(q);
}
fn reap_finished(shared: &PoolShared) {
    let h = lock_unpoisoned(&shared.handles);
    drop(h);
}
";
    let shutdown = "\
pub fn shutdown(shared: &PoolShared) {
    let h = lock_unpoisoned(&shared.handles);
    let q = lock_unpoisoned(&shared.queue);
    drop(q);
    drop(h);
}
";
    let diags = multi(&[
        ("crates/pool/src/round.rs", pool),
        ("crates/pool/src/shutdown.rs", shutdown),
    ]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.rule, RuleId::L1);
    // Both lock identities and both acquisition sites (file:line) are
    // named: the diagnostic anchors at one acquisition and the message
    // carries the reverse one.
    assert!(d.message.contains("PoolShared.queue"), "{d:?}");
    assert!(d.message.contains("PoolShared.handles"), "{d:?}");
    let here = format!("{}:{}", d.file, d.line);
    let reverse = if d.file == "crates/pool/src/shutdown.rs" {
        "crates/pool/src/round.rs:"
    } else {
        "crates/pool/src/shutdown.rs:"
    };
    assert!(
        d.message.contains(&here) || d.message.contains(reverse),
        "{d:?}"
    );
    assert!(d.message.contains(reverse), "{d:?}");
    // Compliant twin: shutdown takes the locks in the same order.
    let ordered_shutdown = "\
pub fn shutdown(shared: &PoolShared) {
    let q = lock_unpoisoned(&shared.queue);
    let h = lock_unpoisoned(&shared.handles);
    drop(h);
    drop(q);
}
";
    let diags = multi(&[
        ("crates/pool/src/round.rs", pool),
        ("crates/pool/src/shutdown.rs", ordered_shutdown),
    ]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn seeded_p1_violation_fires_and_compliant_twin_passes() {
    let blocking = "\
pub fn rounds(tasks: Vec<u64>, rx: std::sync::mpsc::Receiver<u64>) {
    jxp_pool::global().run_dealt(4, tasks, |t| {
        let fed = rx.recv();
        std::thread::sleep(std::time::Duration::from_millis(t + fed.unwrap()));
    });
}
";
    let hits = rules_hit("crates/node/src/fixture.rs", blocking);
    assert_eq!(hits, vec![RuleId::P1, RuleId::P1]);
    // Compliant twin: pure compute in the task closure; the blocking
    // calls live outside the submission.
    let clean = "\
pub fn rounds(tasks: Vec<u64>, rx: std::sync::mpsc::Receiver<u64>) {
    jxp_pool::global().run_dealt(4, tasks, |(a, b, slot)| {
        *slot = Some(a * b);
    });
    let _ = rx.recv();
    std::thread::sleep(std::time::Duration::from_millis(1));
}
";
    assert!(rules_hit("crates/node/src/fixture.rs", clean).is_empty());
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
    // D1X suppressed by a file-level pragma in the *iterating* file.
    let producer = "\
pub struct Scraped {
    pub by_peer: FxHashMap<u64, f64>,
}
";
    let consumer = "\
// jxp-analyze: allow-file(D1X, reason = \"fixture: min-fold is order-insensitive\")
pub fn absorb(s: &Scraped) -> f64 {
    s.by_peer.values().sum()
}
";
    let diags = multi(&[
        ("crates/node/src/scrape.rs", producer),
        ("crates/core/src/absorb.rs", consumer),
    ]);
    assert!(diags.is_empty(), "{diags:?}");
    // P1 suppressed file-wide.
    let blocking = "\
// jxp-analyze: allow-file(P1, reason = \"fixture: bench harness intentionally sleeps\")
pub fn rounds(tasks: Vec<u64>) {
    jxp_pool::global().run_dealt(4, tasks, |t| {
        std::thread::sleep(std::time::Duration::from_millis(t));
    });
}
";
    assert!(rules_hit("crates/node/src/fixture.rs", blocking).is_empty());
    // L1 suppressed by a file-level pragma in the file the diagnostic
    // anchors at (the later acquisition site).
    let pool = "\
pub struct PoolShared {
    pub queue: Mutex<Vec<u64>>,
    pub handles: Mutex<Vec<u64>>,
}
pub fn finish_round(shared: &PoolShared) {
    let q = lock_unpoisoned(&shared.queue);
    let h = lock_unpoisoned(&shared.handles);
    drop(h);
    drop(q);
}
";
    let shutdown = "\
// jxp-analyze: allow-file(L1, reason = \"fixture: shutdown runs single-threaded\")
pub fn shutdown(shared: &PoolShared) {
    let h = lock_unpoisoned(&shared.handles);
    let q = lock_unpoisoned(&shared.queue);
    drop(q);
    drop(h);
}
";
    let with_pragma = multi(&[
        ("crates/pool/src/round.rs", pool),
        ("crates/pool/src/shutdown.rs", shutdown),
    ]);
    let without: Vec<Diagnostic> = multi(&[
        ("crates/pool/src/round.rs", pool),
        (
            "crates/pool/src/shutdown.rs",
            shutdown.trim_start_matches(|c| c != '\n').trim_start(),
        ),
    ]);
    assert_eq!(without.len(), 1, "{without:?}");
    // The pragma'd variant is clean only if the diagnostic anchors in
    // the pragma'd file; otherwise it still fires there.
    if with_pragma.len() == 1 {
        assert_ne!(with_pragma[0].file, "crates/pool/src/shutdown.rs");
    }
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
    let config_text = std::fs::read_to_string(root.join("analyze.toml"))
        .expect("committed analyze.toml must exist at the workspace root");
    let config = Config::parse(&config_text).expect("analyze.toml must parse");
    let diags = check_workspace(&root, &config).expect("workspace scan must succeed");
    let rendered: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
    assert!(
        diags.is_empty(),
        "workspace must be analyze-clean:\n{}",
        rendered.join("\n")
    );
}
