//! The rule engine: D1/D2/C1/C2 checks over preprocessed source.
//!
//! All rules operate on the code-only token stream produced by
//! [`crate::scan`]. They are deliberately heuristic — this is a lint
//! for a codebase that `cargo fmt` keeps in canonical form, not a full
//! parser — but each heuristic is chosen so that false negatives are
//! unlikely on this workspace's idiom, and false positives can always
//! be silenced with a reasoned pragma.

use crate::config::Config;
use crate::scan::{self, Prepared};
use crate::{Diagnostic, Finding, RuleId};

/// Hash-container type names whose iteration order is nondeterministic
/// (or deterministic-but-hash-ordered, which is just as bad for float
/// accumulation).
const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Methods that observe a container in iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "intersection",
    "union",
    "difference",
    "symmetric_difference",
];

/// Run every applicable rule over one file's prepared source,
/// returning only active (non-suppressed) diagnostics.
pub fn check_file(rel_path: &str, prepared: &Prepared, config: &Config) -> Vec<Diagnostic> {
    check_file_report(rel_path, prepared, config)
        .into_iter()
        .filter(|f| !f.suppressed)
        .map(|f| f.diag)
        .collect()
}

/// [`check_file`], but keeping pragma-suppressed findings (tagged) so
/// `--format json` can report pragma status.
pub fn check_file_report(rel_path: &str, prepared: &Prepared, config: &Config) -> Vec<Finding> {
    let mut diags = Vec::new();
    for (line, problem) in &prepared.pragma_errors {
        diags.push(Diagnostic {
            rule: RuleId::Pragma,
            file: rel_path.to_string(),
            line: *line,
            message: format!("malformed pragma: {problem}"),
        });
    }
    if config.is_critical(rel_path) {
        rule_d1(rel_path, prepared, &mut diags);
        if !config.d2_exempt(rel_path) {
            rule_d2(rel_path, prepared, &mut diags);
        }
    }
    rule_c1(rel_path, prepared, &mut diags);
    rule_c2(rel_path, prepared, &mut diags);
    diags.sort_by_key(|a| (a.line, a.rule));
    diags
        .into_iter()
        .map(|d| {
            let suppressed = d.rule != RuleId::Pragma && prepared.is_allowed(d.rule, d.line);
            Finding {
                diag: d,
                suppressed,
            }
        })
        .collect()
}

/// D1: no hash-map/set iteration in determinism-critical modules.
///
/// Pass 1 registers identifiers bound to hash types (`let x: FxHashMap<..>`,
/// `x = FxHashMap::new()`, struct fields `entries: FxHashMap<..>`).
/// Pass 2 flags `ident.iter()` / `for x in &ident` on registered names,
/// plus direct iteration-method calls on fields of `self`.
fn rule_d1(rel_path: &str, prepared: &Prepared, diags: &mut Vec<Diagnostic>) {
    let mut hash_bound: Vec<String> = Vec::new();
    for line in &prepared.lines {
        let tokens = scan::tokenize(&line.code);
        for (i, tok) in tokens.iter().enumerate() {
            if !HASH_TYPES.contains(&tok.as_str()) {
                continue;
            }
            // Skip `FxHashMap` appearing as a path qualifier we already
            // counted (`hash::FxHashMap`): the binding name is found by
            // walking left past `::`-qualification to the `:` or `=`.
            if let Some(name) = binding_name(&tokens, i) {
                if !hash_bound.contains(&name) {
                    hash_bound.push(name);
                }
            }
        }
    }
    for line in &prepared.lines {
        let tokens = scan::tokenize(&line.code);
        for (i, tok) in tokens.iter().enumerate() {
            if ITER_METHODS.contains(&tok.as_str())
                && tokens.get(i + 1).map(String::as_str) == Some("(")
                && tokens.get(i.wrapping_sub(1)).map(String::as_str) == Some(".")
            {
                if let Some(recv) = receiver_name(&tokens, i - 1) {
                    if hash_bound.contains(&recv) {
                        diags.push(Diagnostic {
                            rule: RuleId::D1,
                            file: rel_path.to_string(),
                            line: line.number,
                            message: format!(
                                "hash-ordered iteration `{recv}.{tok}()` in a \
                                 determinism-critical module; use BTreeMap/BTreeSet \
                                 or sort before consuming"
                            ),
                        });
                    }
                }
            }
        }
        // `for x in &ident` / `for x in ident`
        if let Some(pos) = tokens.iter().position(|t| t == "for") {
            if let Some(in_pos) = tokens[pos..].iter().position(|t| t == "in") {
                let mut j = pos + in_pos + 1;
                while tokens.get(j).map(String::as_str) == Some("&") {
                    j += 1;
                }
                if let Some(name) = tokens.get(j) {
                    let next = tokens.get(j + 1).map(String::as_str);
                    let terminates = matches!(next, Some("{") | None);
                    if terminates && hash_bound.contains(name) {
                        diags.push(Diagnostic {
                            rule: RuleId::D1,
                            file: rel_path.to_string(),
                            line: line.number,
                            message: format!(
                                "hash-ordered `for _ in {name}` in a determinism-critical \
                                 module; use BTreeMap/BTreeSet or sort before consuming"
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Name being bound when `tokens[type_pos]` is a hash-type token:
/// walk left past generics/qualifiers to a `:` (binding/field) or `=`
/// (assignment), then take the identifier before it.
fn binding_name(tokens: &[String], type_pos: usize) -> Option<String> {
    let mut i = type_pos;
    // Walk left past `path::` qualification: `hash :: FxHashMap`.
    while i >= 2 && tokens[i - 1] == "::" {
        i -= 2;
    }
    // ...and past reference/mutability sigils: `counts: &mut FxHashMap`.
    while i >= 1 && matches!(tokens[i - 1].as_str(), "&" | "mut") {
        i -= 1;
    }
    if i == 0 {
        return None;
    }
    match tokens[i - 1].as_str() {
        ":" | "=" => {
            let name = tokens.get(i.checked_sub(2)?)?;
            let c = name.chars().next()?;
            (c.is_alphabetic() || c == '_').then(|| name.clone())
        }
        _ => None,
    }
}

/// Receiver of a `.method(` call at `dot_pos`: the identifier chain
/// ending just before the dot, skipping one `self.` hop and one
/// balanced `[...]` index.
fn receiver_name(tokens: &[String], dot_pos: usize) -> Option<String> {
    let mut i = dot_pos;
    // Skip a balanced index: `sets[i].iter()` → receiver `sets`.
    if i >= 1 && tokens[i - 1] == "]" {
        let mut depth = 1;
        i -= 1;
        while i > 0 && depth > 0 {
            i -= 1;
            match tokens[i].as_str() {
                "]" => depth += 1,
                "[" => depth -= 1,
                _ => {}
            }
        }
    }
    let name = tokens.get(i.checked_sub(1)?)?;
    let c = name.chars().next()?;
    if !(c.is_alphabetic() || c == '_') {
        return None;
    }
    Some(name.clone())
}

/// D2: no wall-clock or ambient-RNG reads in determinism-critical
/// modules (minus the `[rules.D2] allow` timing files).
fn rule_d2(rel_path: &str, prepared: &Prepared, diags: &mut Vec<Diagnostic>) {
    const FORBIDDEN: &[(&str, &[&str])] = &[
        ("Instant::now", &["Instant", "::", "now"]),
        ("SystemTime::now", &["SystemTime", "::", "now"]),
        ("thread_rng", &["thread_rng"]),
        ("from_entropy", &["from_entropy"]),
    ];
    for line in &prepared.lines {
        let tokens = scan::tokenize(&line.code);
        for (name, pattern) in FORBIDDEN {
            if contains_seq(&tokens, pattern) {
                diags.push(Diagnostic {
                    rule: RuleId::D2,
                    file: rel_path.to_string(),
                    line: line.number,
                    message: format!(
                        "`{name}` in a determinism-critical module breaks serial replay; \
                         thread a logical clock or seeded RNG through instead"
                    ),
                });
            }
        }
    }
}

/// C1: no panicking lock acquisition on shared state.
fn rule_c1(rel_path: &str, prepared: &Prepared, diags: &mut Vec<Diagnostic>) {
    const LOCKS: &[&str] = &["lock", "read", "write"];
    for line in &prepared.lines {
        let tokens = scan::tokenize(&line.code);
        for (i, tok) in tokens.iter().enumerate() {
            if !LOCKS.contains(&tok.as_str()) {
                continue;
            }
            // `.lock() . unwrap (` / `.lock() . expect (`
            let call = tokens.get(i + 1).map(String::as_str) == Some("(")
                && tokens.get(i + 2).map(String::as_str) == Some(")")
                && tokens.get(i.wrapping_sub(1)).map(String::as_str) == Some(".");
            if !call {
                continue;
            }
            let after = (
                tokens.get(i + 3).map(String::as_str),
                tokens.get(i + 4).map(String::as_str),
            );
            if after.0 == Some(".") && matches!(after.1, Some("unwrap") | Some("expect")) {
                diags.push(Diagnostic {
                    rule: RuleId::C1,
                    file: rel_path.to_string(),
                    line: line.number,
                    message: format!(
                        "`.{tok}().{}` panics on poison; use \
                         jxp_telemetry::sync::{}_unpoisoned (or \
                         unwrap_or_else(|e| e.into_inner()))",
                        after.1.unwrap_or("unwrap"),
                        tok
                    ),
                });
            }
        }
    }
}

/// C2: `Ordering::Relaxed` audit — every Relaxed use must be justified
/// (telemetry counters get a file-level pragma; everything else either
/// upgrades to Acquire/Release or carries a reasoned line pragma).
fn rule_c2(rel_path: &str, prepared: &Prepared, diags: &mut Vec<Diagnostic>) {
    for line in &prepared.lines {
        let tokens = scan::tokenize(&line.code);
        // A `use` import of the ordering is not a use site.
        if tokens.first().map(String::as_str) == Some("use") {
            continue;
        }
        let relaxed = contains_seq(&tokens, &["Ordering", "::", "Relaxed"])
            || (tokens.iter().any(|t| t == "Relaxed")
                && tokens.iter().any(|t| {
                    matches!(
                        t.as_str(),
                        "load"
                            | "store"
                            | "fetch_add"
                            | "fetch_sub"
                            | "swap"
                            | "compare_exchange"
                            | "compare_exchange_weak"
                    )
                }));
        if relaxed {
            diags.push(Diagnostic {
                rule: RuleId::C2,
                file: rel_path.to_string(),
                line: line.number,
                message: "`Ordering::Relaxed` on an atomic: if this atomic publishes \
                          data to another thread, use Release/Acquire; if it is a \
                          pure counter, annotate with a reasoned allow pragma"
                    .to_string(),
            });
        }
    }
}

/// Does `haystack` contain `needle` as a contiguous token run?
fn contains_seq(haystack: &[String], needle: &[&str]) -> bool {
    haystack
        .windows(needle.len())
        .any(|w| w.iter().zip(needle).all(|(a, b)| a == b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::preprocess;

    fn check(rel: &str, src: &str) -> Vec<Diagnostic> {
        check_file(rel, &preprocess(src), &Config::default())
    }

    #[test]
    fn d1_flags_iteration_of_bound_hash_map() {
        let src = "struct S { entries: FxHashMap<u64, f64> }\n\
                   fn f(s: &S) -> f64 { s.entries.values().sum() }\n";
        let diags = check("crates/core/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RuleId::D1);
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn d1_registers_reference_parameters() {
        let src = "fn f(counts: &HashMap<u64, f64>) -> f64 {\n\
                   counts.values().sum()\n}\n\
                   fn g(seen: &mut FxHashSet<u64>) {\n\
                   seen.retain(|_| true);\n}\n";
        let diags = check("crates/core/src/x.rs", src);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.rule == RuleId::D1));
    }

    #[test]
    fn d1_flags_for_loop_over_hash_set() {
        let src = "let seen: FxHashSet<u64> = FxHashSet::default();\n\
                   for p in &seen {\n}\n";
        let diags = check("crates/core/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn d1_ignores_lookup_only_maps_and_noncritical_paths() {
        let src = "let position: FxHashMap<u64, usize> = FxHashMap::default();\n\
                   let x = position.get(&7);\n";
        assert!(check("crates/core/src/x.rs", src).is_empty());
        let iterating = "let m: HashMap<u64, f64> = HashMap::new();\nfor v in &m {}\n";
        assert!(check("crates/node/src/x.rs", iterating).is_empty());
    }

    #[test]
    fn d1_indexed_receiver() {
        let src = "let sets: Vec<FxHashSet<u64>> = vec![];\n\
                   let n = sets[i].intersection(&sets[j]).count();\n";
        // `sets` is bound to Vec<FxHashSet>, registered via the `:` left of FxHashSet?
        // binding_name walks to `Vec` — not an ident followed by :/=, so `sets`
        // is registered through the `=`-less `:` path only if directly bound.
        // The nested generic means `sets` itself is NOT registered; the rule
        // relies on a pragma for container-of-hash cases. Document that here.
        let diags = check("crates/core/src/x.rs", src);
        assert!(diags.is_empty());
    }

    #[test]
    fn d2_flags_wall_clock_and_rng() {
        let src = "let t = Instant::now();\nlet r = rand::thread_rng();\n";
        let diags = check("crates/core/src/x.rs", src);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.rule == RuleId::D2));
    }

    #[test]
    fn d2_whitelist_and_pragma() {
        let src = "let t = Instant::now();\n";
        assert!(check("crates/core/src/meeting.rs", src).is_empty());
        // Outside the critical set wall clocks are nobody's business.
        assert!(check("crates/bench/src/main.rs", src).is_empty());
        assert!(check("crates/reactor/src/machine.rs", src).is_empty());
        let pragmad = "let t = Instant::now(); // jxp-analyze: allow(D2, reason = \"UI only\")\n";
        assert!(check("crates/core/src/x.rs", pragmad).is_empty());
    }

    #[test]
    fn c1_flags_unwrap_and_expect() {
        let src = "let g = self.state.lock().unwrap();\n\
                   let r = self.map.read().expect( \"poisoned\" );\n\
                   let w = self.map.write().unwrap();\n";
        let diags = check("crates/node/src/x.rs", src);
        assert_eq!(diags.len(), 3);
        assert!(diags.iter().all(|d| d.rule == RuleId::C1));
    }

    #[test]
    fn c1_accepts_recovering_idiom() {
        let src = "let g = self.state.lock().unwrap_or_else(|e| e.into_inner());\n\
                   let h = lock_unpoisoned(&self.state);\n";
        assert!(check("crates/node/src/x.rs", src).is_empty());
    }

    #[test]
    fn c2_flags_relaxed_and_respects_file_pragma() {
        let src = "self.flag.store(true, Ordering::Relaxed);\n";
        let diags = check("crates/node/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RuleId::C2);
        let pragmad = "// jxp-analyze: allow-file(C2, reason = \"pure counters\")\n\
                       self.flag.store(true, Ordering::Relaxed);\n";
        assert!(check("crates/node/src/x.rs", pragmad).is_empty());
    }

    #[test]
    fn c2_flags_short_form_relaxed() {
        let src = "use std::sync::atomic::Ordering::Relaxed;\n\
                   self.head.fetch_add(1, Relaxed);\n";
        let diags = check("crates/node/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn malformed_pragma_is_reported_and_not_suppressing() {
        let src = "let t = Instant::now(); // jxp-analyze: allow(D2)\n";
        let diags = check("crates/core/src/x.rs", src);
        assert_eq!(diags.len(), 2); // Pragma error + the D2 hit itself
        assert!(diags.iter().any(|d| d.rule == RuleId::Pragma));
        assert!(diags.iter().any(|d| d.rule == RuleId::D2));
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "let s = \"Instant::now\"; // .lock().unwrap()\n";
        assert!(check("crates/core/src/x.rs", src).is_empty());
    }
}
