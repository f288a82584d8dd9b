//! `analyze.toml` loading: a tiny TOML-subset parser.
//!
//! The analyzer deliberately takes no crates.io dependencies, so the
//! config file is restricted to the subset we need: `[section]` /
//! `[section.sub]` headers, `key = ["string", ...]` arrays (single- or
//! multi-line), and `#` comments. That covers the committed baseline
//! without pulling in a full TOML implementation.

/// Analyzer configuration, normally read from `analyze.toml`.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Directory prefixes (workspace-relative) to scan, with one
    /// `*` segment allowed (e.g. `crates/*/src`).
    pub include: Vec<String>,
    /// Determinism-critical path prefixes: D1 (hash-iteration) and D2
    /// (wall clock / RNG) are enforced here and nowhere else.
    pub critical: Vec<String>,
    /// Paths inside the critical set exempt from D2 (timing modules).
    pub d2_allow: Vec<String>,
}

/// The default *is* the committed baseline: `analyze.toml` at the
/// workspace root, compiled in, so the scope lists have one source.
impl Default for Config {
    fn default() -> Self {
        Config::parse(include_str!("../../../analyze.toml"))
            .expect("the committed analyze.toml parses")
    }
}

impl Config {
    /// Parse the TOML-subset text of an `analyze.toml` file.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut config = Config {
            include: Vec::new(),
            critical: Vec::new(),
            d2_allow: Vec::new(),
        };
        let mut section = String::new();
        // Multi-line arrays accumulate until the closing bracket.
        let mut open_key: Option<(String, String)> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            let lineno = idx + 1;
            if let Some((key, mut acc)) = open_key.take() {
                acc.push_str(&line);
                if line.ends_with(']') {
                    let values =
                        parse_array(&acc).map_err(|e| format!("analyze.toml:{lineno}: {e}"))?;
                    config.assign(&section, &key, values)?;
                } else {
                    open_key = Some((key, acc));
                }
                continue;
            }
            if line.starts_with('[') {
                section = line
                    .strip_prefix('[')
                    .and_then(|l| l.strip_suffix(']'))
                    .ok_or_else(|| format!("analyze.toml:{lineno}: malformed section header"))?
                    .trim()
                    .to_string();
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("analyze.toml:{lineno}: expected key = [...]"))?;
            let key = key.trim().to_string();
            let value = value.trim().to_string();
            if value.starts_with('[') && !value.ends_with(']') {
                open_key = Some((key, value));
            } else {
                let values =
                    parse_array(&value).map_err(|e| format!("analyze.toml:{lineno}: {e}"))?;
                config.assign(&section, &key, values)?;
            }
        }
        if open_key.is_some() {
            return Err("analyze.toml: unclosed array".to_string());
        }
        Ok(config)
    }

    fn assign(&mut self, section: &str, key: &str, values: Vec<String>) -> Result<(), String> {
        match (section, key) {
            ("scan", "include") => self.include = values,
            ("rules.D1", "critical") => self.critical = values,
            ("rules.D2", "allow") => self.d2_allow = values,
            _ => return Err(format!("analyze.toml: unknown key [{section}] {key}")),
        }
        Ok(())
    }

    /// Whether a workspace-relative path matches any `include` pattern.
    pub fn includes(&self, rel: &str) -> bool {
        self.include.iter().any(|p| prefix_match(p, rel))
    }

    /// Whether this path is determinism-critical (D1 and D2 apply).
    pub fn is_critical(&self, rel: &str) -> bool {
        self.critical.iter().any(|p| prefix_match(p, rel))
    }

    /// Whether this path is exempt from D2.
    pub fn d2_exempt(&self, rel: &str) -> bool {
        self.d2_allow.iter().any(|p| prefix_match(p, rel))
    }
}

/// Match `pattern` as a `/`-separated prefix of `path`, where a
/// pattern segment of `*` matches exactly one path segment.
fn prefix_match(pattern: &str, path: &str) -> bool {
    let pat: Vec<&str> = pattern.split('/').collect();
    let segs: Vec<&str> = path.split('/').collect();
    if pat.len() > segs.len() {
        return false;
    }
    pat.iter().zip(&segs).all(|(p, s)| *p == "*" || p == s)
}

/// Drop a `#` comment (TOML has no `#` inside our string values
/// except paths, which never contain `#`).
fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// Parse `["a", "b"]` into its strings.
fn parse_array(text: &str) -> Result<Vec<String>, String> {
    let inner = text
        .trim()
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| "expected a [\"...\"] array".to_string())?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let value = part
            .strip_prefix('"')
            .and_then(|p| p.strip_suffix('"'))
            .ok_or_else(|| format!("array element {part:?} is not a quoted string"))?;
        out.push(value.to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_baseline_shape() {
        let text = r#"
# comment
[scan]
include = ["src", "crates/*/src"]

[rules.D1]
critical = ["crates/core/src"]

[rules.D2]
allow = [
    "crates/core/src/meeting.rs",
    "crates/p2pnet/src/parallel.rs",
]
"#;
        let c = Config::parse(text).unwrap();
        assert_eq!(c.include, vec!["src", "crates/*/src"]);
        assert_eq!(c.critical, vec!["crates/core/src"]);
        assert_eq!(c.d2_allow.len(), 2);
    }

    #[test]
    fn default_is_the_committed_analyze_toml() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../analyze.toml");
        let text = std::fs::read_to_string(root).unwrap();
        let c = Config::default();
        assert_eq!(c, Config::parse(&text).unwrap());
        // The entry a hand-kept copy of these lists once drifted without.
        assert!(c.is_critical("crates/segstore/src/cache.rs"));
    }

    #[test]
    fn glob_segment_matches_one_level() {
        let c = Config::default();
        assert!(c.includes("crates/core/src/world.rs"));
        assert!(c.includes("src/lib.rs"));
        assert!(!c.includes("vendor/rand/src/lib.rs"));
        assert!(!c.includes("crates/core/tests/equivalence.rs"));
    }

    #[test]
    fn file_pattern_matches_exact_file() {
        let c = Config::default();
        assert!(c.d2_exempt("crates/core/src/meeting.rs"));
        assert!(!c.d2_exempt("crates/core/src/peer.rs"));
        assert!(!c.d2_exempt("crates/bench/src/main.rs"));
    }

    #[test]
    fn rejects_unknown_keys_and_garbage() {
        assert!(Config::parse("[scan]\nwhat = [\"x\"]\n").is_err());
        assert!(Config::parse("[rules.C2]\nallow = []\n").is_err());
        assert!(Config::parse("[rules.P1]\nsubmit = [\"run_dealt:2\"]\n").is_err());
        assert!(Config::parse("[scan]\ninclude = [x]\n").is_err());
        assert!(Config::parse("include = [\"x\"\n").is_err());
    }
}
