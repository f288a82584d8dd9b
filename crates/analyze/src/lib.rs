//! `jxp-analyze`: determinism & concurrency static analysis for the
//! JXP workspace.
//!
//! JXP's headline invariant — bit-identical score hashes at any thread
//! count — is only as strong as the discipline of the code that
//! computes them. This crate machine-checks that discipline with nine
//! rules:
//!
//! | Rule | What it forbids |
//! |------|-----------------|
//! | `D1` | hash-map/set iteration in determinism-critical modules |
//! | `D2` | `Instant::now` / `SystemTime::now` / ambient RNG outside the timing whitelist |
//! | `C1` | `.lock().unwrap()`-style poison panics on shared state |
//! | `C2` | `Ordering::Relaxed` on atomics without a reasoned annotation |
//! | `C4` | detached `thread::spawn` whose `JoinHandle` is discarded |
//! | `N1` | blocking socket calls (`read_exact`, `connect_timeout`, `set_nonblocking(false)`) inside the reactor |
//! | `D1X` | cross-file hash-container flow into a determinism-critical iteration site |
//! | `L1` | lock-order cycles (lock A held while acquiring B, B held while acquiring A) |
//! | `P1` | blocking calls inside closures submitted to `jxp-pool` executors |
//!
//! The engine runs in two passes. Pass 1 ([`index`]) builds a
//! workspace-wide symbol index — struct fields, function signatures,
//! impl contexts — with a token-tree reader layered on the [`scan`]
//! stripper. Pass 2 runs the per-line rules ([`rules`]) file by file
//! and the cross-file dataflow rules ([`flow`]) against the index.
//!
//! Findings can be suppressed inline with
//! `// jxp-analyze: allow(D2, reason = "...")` (same line or the line
//! above) or file-wide with `// jxp-analyze: allow-file(C2, reason = "...")`.
//! A reason is mandatory; a pragma without one is itself a diagnostic.
//!
//! The scanner is hand-rolled (no crates.io dependencies): it strips
//! comments and string/char literals, truncates each file at its
//! trailing `#[cfg(test)]` module, and matches token patterns over
//! what remains. See `DESIGN.md` §11 for the full rule catalog.

#![deny(missing_docs)]

pub mod config;
pub mod flow;
pub mod index;
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
    /// Wall clock / ambient RNG outside the timing whitelist.
    D2,
    /// Poison-panicking lock acquisition.
    C1,
    /// Unjustified `Ordering::Relaxed`.
    C2,
    /// Detached spawn: `thread::spawn` with its `JoinHandle` discarded.
    C4,
    /// Blocking socket call inside the non-blocking reactor.
    N1,
    /// Cross-file hash-container flow into a critical iteration site.
    D1X,
    /// Lock-order cycle across the workspace lock graph.
    L1,
    /// Blocking call inside a pool-submitted closure.
    P1,
    /// Malformed suppression pragma.
    Pragma,
}

impl RuleId {
    /// Parse a rule id as written in a pragma.
    pub fn parse(s: &str) -> Option<RuleId> {
        match s {
            "D1" => Some(RuleId::D1),
            "D2" => Some(RuleId::D2),
            "C1" => Some(RuleId::C1),
            "C2" => Some(RuleId::C2),
            "C4" => Some(RuleId::C4),
            "N1" => Some(RuleId::N1),
            "D1X" => Some(RuleId::D1X),
            "L1" => Some(RuleId::L1),
            "P1" => Some(RuleId::P1),
            _ => None,
        }
    }

    /// One-line description for `jxp-analyze rules`.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::D1 => {
                "no HashMap/HashSet iteration in determinism-critical modules \
                 (use BTreeMap/BTreeSet or an explicit sort)"
            }
            RuleId::D2 => {
                "no Instant::now / SystemTime::now / thread_rng outside the \
                 timing whitelist (meeting timers, bench, straggler clocks)"
            }
            RuleId::C1 => {
                "no .lock().unwrap() / .read().unwrap() on shared state \
                 (use the poison-recovering jxp_telemetry::sync helpers)"
            }
            RuleId::C2 => {
                "Ordering::Relaxed must not publish data across threads; \
                 pure counters carry a reasoned allow pragma"
            }
            RuleId::C4 => {
                "thread::spawn as a statement discards its JoinHandle; bind \
                 it and join on shutdown, or use a scoped thread"
            }
            RuleId::N1 => {
                "no blocking socket calls in the reactor — read_exact, \
                 connect_timeout, or set_nonblocking(false) stalls every \
                 in-flight meeting behind one peer"
            }
            RuleId::D1X => {
                "no hash-ordered iteration over containers declared in another \
                 module (fields or returned values followed across files); \
                 sort or convert to BTree at the module boundary"
            }
            RuleId::L1 => {
                "no lock-order cycles: if any code path acquires lock B while \
                 holding lock A, no path may acquire A while holding B \
                 (directly or through calls)"
            }
            RuleId::P1 => {
                "no blocking calls (sleep, recv, lock acquisition, socket \
                 reads, join) inside closures submitted to jxp-pool — a \
                 parked worker can deadlock the round"
            }
            RuleId::Pragma => "suppression pragmas must name known rules and give a reason",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleId::D1 => write!(f, "D1"),
            RuleId::D2 => write!(f, "D2"),
            RuleId::C1 => write!(f, "C1"),
            RuleId::C2 => write!(f, "C2"),
            RuleId::C4 => write!(f, "C4"),
            RuleId::N1 => write!(f, "N1"),
            RuleId::D1X => write!(f, "D1X"),
            RuleId::L1 => write!(f, "L1"),
            RuleId::P1 => write!(f, "P1"),
            RuleId::Pragma => write!(f, "pragma"),
        }
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
/// relative — rule applicability is path-dependent). Runs both passes
/// over the single file; cross-file rules see only this file's symbols.
pub fn analyze_source(rel_path: &str, source: &str, config: &Config) -> Vec<Diagnostic> {
    analyze_sources(&[(rel_path, source)], config)
}

/// Analyze a set of in-memory sources as one workspace: per-line rules
/// on each file, then the pass-2 dataflow rules (D1X/L1/P1) over the
/// combined symbol index. Returns active (non-suppressed) diagnostics
/// sorted by `(file, line, rule)`.
pub fn analyze_sources(sources: &[(&str, &str)], config: &Config) -> Vec<Diagnostic> {
    analyze_sources_report(sources, config)
        .into_iter()
        .filter(|f| !f.suppressed)
        .map(|f| f.diag)
        .collect()
}

/// [`analyze_sources`], but keeping suppressed findings (tagged) for
/// pragma-status reporting.
pub fn analyze_sources_report(sources: &[(&str, &str)], config: &Config) -> Vec<Finding> {
    let files: Vec<index::FileIndex> = sources
        .iter()
        .map(|(rel, src)| index::FileIndex::build(rel, scan::preprocess(src)))
        .collect();
    let mut findings = Vec::new();
    for file in &files {
        findings.extend(rules::check_file_report(&file.rel, &file.prepared, config));
    }
    let symbols = index::WorkspaceIndex::build(&files);
    for diag in flow::check(&files, &symbols, config) {
        let suppressed = files
            .iter()
            .find(|f| f.rel == diag.file)
            .is_some_and(|f| f.prepared.is_allowed(diag.rule, diag.line));
        findings.push(Finding { diag, suppressed });
    }
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
        for id in [
            RuleId::D1,
            RuleId::D2,
            RuleId::C1,
            RuleId::C2,
            RuleId::C4,
            RuleId::N1,
            RuleId::D1X,
            RuleId::L1,
            RuleId::P1,
        ] {
            assert_eq!(RuleId::parse(&id.to_string()), Some(id));
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
