//! `jxp-analyze`: determinism & concurrency lint for the JXP workspace.
//!
//! JXP's headline invariant — bit-identical score hashes at any thread
//! count — is held by checks that *execute* (pinned hashes, TSan, miri).
//! This crate is the cheap static front line for the four mistakes that
//! have actually been made in workspace code:
//!
//! | Rule | What it forbids |
//! |------|-----------------|
//! | `D1` | hash-map/set iteration in determinism-critical modules |
//! | `D2` | `Instant::now` / `SystemTime::now` / ambient RNG in those same modules (minus the timing files) |
//! | `C1` | `.lock().unwrap()`-style poison panics on shared state |
//! | `C2` | `Ordering::Relaxed` on atomics without a reasoned annotation |
//!
//! One pass: each file is stripped by [`scan`] and matched line by line
//! by [`rules`]; no file sees another. Type-aware and cross-file
//! properties are clippy's job (`clippy::iter_over_hash_type` in the
//! critical crates, `crates/reactor/clippy.toml`) — see `DESIGN.md` §11.
//!
//! Findings can be suppressed inline with
//! `// jxp-analyze: allow(D2, reason = "...")` (same line or the line
//! above) or file-wide with `// jxp-analyze: allow-file(C2, reason = "...")`.
//! A reason is mandatory; a pragma without one, or naming a rule that
//! does not exist, is itself a diagnostic.
//!
//! The scanner is hand-rolled (no crates.io dependencies): it strips
//! comments and string/char literals, truncates each file at its
//! trailing `#[cfg(test)]` module, and matches token patterns over
//! what remains.

#![deny(missing_docs)]

pub mod config;
pub mod rules;
pub mod scan;

pub use config::Config;

use std::fmt;
use std::path::{Path, PathBuf};

/// Identifier of one analysis rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Hash-ordered iteration in a determinism-critical module.
    D1,
    /// Wall clock / ambient RNG in a determinism-critical module.
    D2,
    /// Poison-panicking lock acquisition.
    C1,
    /// Unjustified `Ordering::Relaxed`.
    C2,
    /// Malformed suppression pragma.
    Pragma,
}

impl RuleId {
    /// The rules a pragma can name, in catalog order.
    pub const RULES: [RuleId; 4] = [RuleId::D1, RuleId::D2, RuleId::C1, RuleId::C2];

    /// The id as written in diagnostics and pragmas.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::C1 => "C1",
            RuleId::C2 => "C2",
            RuleId::Pragma => "pragma",
        }
    }

    /// Parse a rule id as written in a pragma.
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::RULES.into_iter().find(|id| id.name() == s)
    }

    /// One-line description for `jxp-analyze rules`.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::D1 => {
                "no HashMap/HashSet iteration in determinism-critical modules \
                 (use BTreeMap/BTreeSet or an explicit sort)"
            }
            RuleId::D2 => {
                "no Instant::now / SystemTime::now / thread_rng in \
                 determinism-critical modules (minus the meeting timer and \
                 the straggler clock)"
            }
            RuleId::C1 => {
                "no .lock().unwrap() / .read().unwrap() on shared state \
                 (use the poison-recovering jxp_telemetry::sync helpers)"
            }
            RuleId::C2 => {
                "Ordering::Relaxed must not publish data across threads; \
                 pure counters carry a reasoned allow pragma"
            }
            RuleId::Pragma => "suppression pragmas must name known rules and give a reason",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding: rule, location, and a human-oriented message.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One diagnostic plus its pragma disposition. Suppressed findings
/// stay visible to `--format json` (pragma-status auditing) while the
/// human-facing report and the exit code only count active ones.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The underlying diagnostic.
    pub diag: Diagnostic,
    /// `true` when a reasoned pragma suppresses it.
    pub suppressed: bool,
}

/// Analyze one source string as if it lived at `rel_path` (workspace
/// relative — rule applicability is path-dependent). Returns active
/// (non-suppressed) diagnostics sorted by `(line, rule)`.
pub fn analyze_source(rel_path: &str, source: &str, config: &Config) -> Vec<Diagnostic> {
    rules::check_file(rel_path, &scan::preprocess(source), config)
}

/// Analyze a set of in-memory sources, each on its own, keeping
/// pragma-suppressed findings (tagged) for pragma-status reporting.
/// Sorted by `(file, line, rule)`.
pub fn analyze_sources_report(sources: &[(&str, &str)], config: &Config) -> Vec<Finding> {
    let mut findings: Vec<Finding> = sources
        .iter()
        .flat_map(|(rel, src)| rules::check_file_report(rel, &scan::preprocess(src), config))
        .collect();
    findings.sort_by(|a, b| {
        (&a.diag.file, a.diag.line, a.diag.rule).cmp(&(&b.diag.file, b.diag.line, b.diag.rule))
    });
    findings
}

/// Walk the workspace at `root` and analyze every `.rs` file under the
/// configured include patterns. Returns active diagnostics sorted by
/// `(file, line, rule)`; I/O problems surface as `Err`.
pub fn check_workspace(root: &Path, config: &Config) -> Result<Vec<Diagnostic>, String> {
    Ok(check_workspace_report(root, config)?
        .into_iter()
        .filter(|f| !f.suppressed)
        .map(|f| f.diag)
        .collect())
}

/// [`check_workspace`], but keeping suppressed findings (tagged) for
/// `--format json` pragma-status records.
pub fn check_workspace_report(root: &Path, config: &Config) -> Result<Vec<Finding>, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs_files(root, root, config, &mut files)?;
    files.sort();
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .map_err(|e| e.to_string())?
            .to_string_lossy()
            .replace('\\', "/");
        let source =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        sources.push((rel, source));
    }
    let borrowed: Vec<(&str, &str)> = sources
        .iter()
        .map(|(r, s)| (r.as_str(), s.as_str()))
        .collect();
    Ok(analyze_sources_report(&borrowed, config))
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    config: &Config,
    out: &mut Vec<PathBuf>,
) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        let rel = path
            .strip_prefix(root)
            .map_err(|e| e.to_string())?
            .to_string_lossy()
            .replace('\\', "/");
        if path.is_dir() {
            // Prune directories that cannot contain included files:
            // a dir is worth entering if it is a prefix of some include
            // pattern or some include pattern is a prefix of it.
            if dir_may_contain_includes(&rel, config) {
                collect_rs_files(root, &path, config, out)?;
            }
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) && config.includes(&rel) {
            out.push(path);
        }
    }
    Ok(())
}

/// Whether descending into `rel` (a directory) can reach an include.
fn dir_may_contain_includes(rel: &str, config: &Config) -> bool {
    let segs: Vec<&str> = rel.split('/').collect();
    config.include.iter().any(|pattern| {
        let pat: Vec<&str> = pattern.split('/').collect();
        pat.iter().zip(&segs).all(|(p, s)| *p == "*" || p == s)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostics_render_file_line_rule() {
        let d = Diagnostic {
            rule: RuleId::D2,
            file: "crates/core/src/peer.rs".into(),
            line: 42,
            message: "nope".into(),
        };
        assert_eq!(d.to_string(), "crates/core/src/peer.rs:42: D2: nope");
    }

    #[test]
    fn rule_ids_roundtrip() {
        for id in RuleId::RULES {
            assert_eq!(RuleId::parse(&id.to_string()), Some(id));
        }
        // Retired rules and the pragma pseudo-rule are not nameable.
        for gone in ["D1X", "L1", "P1", "N1", "C4", "pragma"] {
            assert_eq!(RuleId::parse(gone), None);
        }
        assert_eq!(RuleId::parse("D9"), None);
    }

    #[test]
    fn dir_pruning_allows_partial_glob_prefixes() {
        let c = Config::default();
        assert!(dir_may_contain_includes("crates", &c));
        assert!(dir_may_contain_includes("crates/core", &c));
        assert!(dir_may_contain_includes("crates/core/src", &c));
        assert!(dir_may_contain_includes("src", &c));
        assert!(!dir_may_contain_includes("vendor", &c));
        assert!(!dir_may_contain_includes("target", &c));
    }
}
