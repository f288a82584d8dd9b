//! `analyze.toml` loading: a tiny TOML-subset parser.
//!
//! The analyzer deliberately takes no crates.io dependencies, so the
//! config file is restricted to the subset we need: `[section]` /
//! `[section.sub]` headers, `key = ["string", ...]` arrays (single- or
//! multi-line), and `#` comments. That covers the committed baseline
//! without pulling in a full TOML implementation.

/// Analyzer configuration, normally read from `analyze.toml`.
#[derive(Debug, Clone)]
pub struct Config {
    /// Directory prefixes (workspace-relative) to scan, with one
    /// `*` segment allowed (e.g. `crates/*/src`).
    pub include: Vec<String>,
    /// Path prefixes where D1 (hash-iteration) is enforced.
    pub d1_critical: Vec<String>,
    /// Path prefixes exempt from D2 (wall clock / RNG).
    pub d2_allow: Vec<String>,
    /// Path prefixes exempt from C2 (Relaxed ordering).
    pub c2_allow: Vec<String>,
    /// Path prefixes exempt from C4 (detached spawns).
    pub c4_allow: Vec<String>,
    /// Path prefixes where N1 (blocking socket calls) is enforced —
    /// the reactor's event loop, where one blocking call stalls every
    /// in-flight exchange.
    pub n1_critical: Vec<String>,
    /// Path prefixes where D1X (cross-file hash flow) is enforced.
    /// Empty means "mirror `d1_critical`" — the two rules guard the
    /// same modules, D1X just sees across file boundaries.
    pub d1x_critical: Vec<String>,
    /// Path prefixes exempt from L1 (lock-order cycles). L1 is
    /// workspace-wide by default: a cycle is a deadlock wherever the
    /// two halves live.
    pub l1_allow: Vec<String>,
    /// Pool-submission points for P1 as `name:closure_arg_index`
    /// entries (0-based), e.g. `run_dealt:2` — the third argument of
    /// any `run_dealt(...)` call is a task closure executed on pool
    /// workers and must not block.
    pub p1_submit: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            include: vec![
                "src".to_string(),
                "examples".to_string(),
                "crates/*/src".to_string(),
            ],
            d1_critical: vec![
                "crates/core/src".to_string(),
                "crates/p2pnet/src".to_string(),
                "crates/pagerank/src".to_string(),
            ],
            d2_allow: vec![
                "crates/core/src/meeting.rs".to_string(),
                "crates/bench".to_string(),
                "crates/p2pnet/src/parallel.rs".to_string(),
            ],
            c2_allow: vec![],
            c4_allow: vec![],
            n1_critical: vec!["crates/reactor/src".to_string()],
            d1x_critical: vec![],
            l1_allow: vec![],
            p1_submit: vec!["run_dealt:2".to_string(), "run_with:2".to_string()],
        }
    }
}

impl Config {
    /// Parse the TOML-subset text of an `analyze.toml` file.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut config = Config {
            include: Vec::new(),
            d1_critical: Vec::new(),
            d2_allow: Vec::new(),
            c2_allow: Vec::new(),
            c4_allow: Vec::new(),
            n1_critical: Vec::new(),
            d1x_critical: Vec::new(),
            l1_allow: Vec::new(),
            p1_submit: Vec::new(),
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
            ("rules.D1", "critical") => self.d1_critical = values,
            ("rules.D2", "allow") => self.d2_allow = values,
            ("rules.C2", "allow") => self.c2_allow = values,
            ("rules.C4", "allow") => self.c4_allow = values,
            ("rules.N1", "critical") => self.n1_critical = values,
            ("rules.D1X", "critical") => self.d1x_critical = values,
            ("rules.L1", "allow") => self.l1_allow = values,
            ("rules.P1", "submit") => self.p1_submit = values,
            _ => return Err(format!("analyze.toml: unknown key [{section}] {key}")),
        }
        Ok(())
    }

    /// Whether a workspace-relative path matches any `include` pattern.
    pub fn includes(&self, rel: &str) -> bool {
        self.include.iter().any(|p| prefix_match(p, rel))
    }

    /// Whether D1 applies to this path.
    pub fn d1_applies(&self, rel: &str) -> bool {
        self.d1_critical.iter().any(|p| prefix_match(p, rel))
    }

    /// Whether this path is exempt from D2.
    pub fn d2_exempt(&self, rel: &str) -> bool {
        self.d2_allow.iter().any(|p| prefix_match(p, rel))
    }

    /// Whether this path is exempt from C2.
    pub fn c2_exempt(&self, rel: &str) -> bool {
        self.c2_allow.iter().any(|p| prefix_match(p, rel))
    }

    /// Whether this path is exempt from C4.
    pub fn c4_exempt(&self, rel: &str) -> bool {
        self.c4_allow.iter().any(|p| prefix_match(p, rel))
    }

    /// Whether N1 applies to this path.
    pub fn n1_applies(&self, rel: &str) -> bool {
        self.n1_critical.iter().any(|p| prefix_match(p, rel))
    }

    /// Whether D1X applies to this path (falls back to the D1 set when
    /// no dedicated `[rules.D1X] critical` list is configured).
    pub fn d1x_applies(&self, rel: &str) -> bool {
        let set = if self.d1x_critical.is_empty() {
            &self.d1_critical
        } else {
            &self.d1x_critical
        };
        set.iter().any(|p| prefix_match(p, rel))
    }

    /// Whether this path is exempt from L1.
    pub fn l1_exempt(&self, rel: &str) -> bool {
        self.l1_allow.iter().any(|p| prefix_match(p, rel))
    }

    /// Parsed P1 submission points: `(function name, 0-based closure
    /// argument index)`. Malformed entries are ignored.
    pub fn p1_submits(&self) -> Vec<(String, usize)> {
        self.p1_submit
            .iter()
            .filter_map(|entry| {
                let (name, idx) = entry.split_once(':')?;
                Some((name.trim().to_string(), idx.trim().parse().ok()?))
            })
            .collect()
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
    "crates/bench",
    "crates/core/src/meeting.rs",
]

[rules.C2]
allow = []
"#;
        let c = Config::parse(text).unwrap();
        assert_eq!(c.include, vec!["src", "crates/*/src"]);
        assert_eq!(c.d1_critical, vec!["crates/core/src"]);
        assert_eq!(c.d2_allow.len(), 2);
        assert!(c.c2_allow.is_empty());
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
        assert!(c.d2_exempt("crates/bench/src/main.rs"));
    }

    #[test]
    fn rejects_unknown_keys_and_garbage() {
        assert!(Config::parse("[scan]\nwhat = [\"x\"]\n").is_err());
        assert!(Config::parse("[scan]\ninclude = [x]\n").is_err());
        assert!(Config::parse("include = [\"x\"\n").is_err());
    }
}
