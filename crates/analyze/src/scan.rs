//! Source preprocessing: comment/string stripping, pragma collection,
//! and a minimal identifier/punctuation tokenizer.
//!
//! The rules in [`crate::rules`] never want to fire on text inside a
//! string literal or a comment, so the preprocessor rewrites every line
//! into its *code-only* form (stripped regions become spaces) while
//! harvesting `// jxp-analyze: allow(...)` pragmas from the comments it
//! removes. Everything from the conventional trailing `#[cfg(test)]`
//! module onward is dropped: test code may freely use wall clocks,
//! hash-ordered iteration, and panicking locks.

use crate::RuleId;

/// One line of code after stripping, with its 1-based source line.
#[derive(Debug, Clone)]
pub struct SourceLine {
    /// 1-based line number in the original file.
    pub number: usize,
    /// The line with comments and literals blanked out.
    pub code: String,
}

/// An `allow` pragma resolved to the line it suppresses.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rules the pragma suppresses.
    pub rules: Vec<RuleId>,
    /// 1-based line the pragma applies to (`None` = whole file).
    pub line: Option<usize>,
}

/// The result of preprocessing one file.
#[derive(Debug, Default)]
pub struct Prepared {
    /// Code-only lines, truncated at the trailing `#[cfg(test)]` module.
    pub lines: Vec<SourceLine>,
    /// Resolved allow pragmas.
    pub allows: Vec<Allow>,
    /// Malformed pragmas: `(line, problem)`.
    pub pragma_errors: Vec<(usize, String)>,
}

impl Prepared {
    /// Whether `rule` is suppressed on `line` by a pragma.
    pub fn is_allowed(&self, rule: RuleId, line: usize) -> bool {
        self.allows
            .iter()
            .any(|a| a.rules.contains(&rule) && (a.line.is_none() || a.line == Some(line)))
    }
}

/// What multi-line region the scanner is inside between lines.
#[derive(Debug, Clone, PartialEq)]
enum Region {
    Code,
    /// `/* ... */`, possibly nested (`depth`).
    BlockComment(u32),
    /// A normal `"..."` string (may span lines via trailing content).
    Str,
    /// A raw string `r##"..."##` with its hash count.
    RawStr(u32),
}

/// Strip one file into code-only lines and collect its pragmas.
pub fn preprocess(source: &str) -> Prepared {
    let mut prepared = Prepared::default();
    let mut region = Region::Code;
    // A pragma on a comment-only line applies to the next code line.
    let mut pending: Vec<(usize, PragmaText)> = Vec::new();

    for (idx, raw) in source.lines().enumerate() {
        let number = idx + 1;
        let (code, comments) = strip_line(raw, &mut region);
        if code.contains("#[cfg(test)]") {
            break; // trailing test module: rules do not apply
        }
        let has_code = !code.trim().is_empty();
        for text in comments {
            if let Some(pragma) = extract_pragma(&text) {
                match parse_pragma(&pragma) {
                    Ok(parsed) => {
                        if parsed.file_wide {
                            prepared.allows.push(Allow {
                                rules: parsed.rules,
                                line: None,
                            });
                        } else if has_code {
                            prepared.allows.push(Allow {
                                rules: parsed.rules,
                                line: Some(number),
                            });
                        } else {
                            pending.push((number, parsed));
                        }
                    }
                    Err(problem) => prepared.pragma_errors.push((number, problem)),
                }
            }
        }
        if has_code {
            for (_, parsed) in pending.drain(..) {
                prepared.allows.push(Allow {
                    rules: parsed.rules,
                    line: Some(number),
                });
            }
            prepared.lines.push(SourceLine { number, code });
        }
    }
    for (line, _) in pending {
        prepared
            .pragma_errors
            .push((line, "pragma attaches to no code line".to_string()));
    }
    prepared
}

/// Parsed `allow(...)` content.
#[derive(Debug)]
struct PragmaText {
    rules: Vec<RuleId>,
    file_wide: bool,
}

/// Pull the `allow...` payload out of a comment carrying the marker.
/// The marker must *start* the comment (after `//`/`//!`/`/*`-style
/// leaders) — a mid-sentence mention of the syntax is not a pragma.
fn extract_pragma(comment: &str) -> Option<String> {
    let body = comment.trim_start_matches(['/', '!', '*']).trim_start();
    let rest = body.strip_prefix("jxp-analyze:")?;
    Some(rest.trim().to_string())
}

/// Parse `allow(D1, C2, reason = "...")` / `allow-file(...)`.
fn parse_pragma(text: &str) -> Result<PragmaText, String> {
    let (file_wide, rest) = if let Some(r) = text.strip_prefix("allow-file") {
        (true, r)
    } else if let Some(r) = text.strip_prefix("allow") {
        (false, r)
    } else {
        return Err(format!(
            "expected allow(...) or allow-file(...), got {text:?}"
        ));
    };
    let rest = rest.trim();
    let inner = rest
        .strip_prefix('(')
        .and_then(|r| r.strip_suffix(')'))
        .ok_or_else(|| "pragma arguments must be parenthesized".to_string())?;
    let mut rules = Vec::new();
    let mut reason = None;
    // Split on commas outside the reason string.
    for part in split_args(inner) {
        let part = part.trim();
        if let Some(r) = part.strip_prefix("reason") {
            let r = r.trim_start().strip_prefix('=').unwrap_or("").trim();
            let quoted = r
                .strip_prefix('"')
                .and_then(|q| q.strip_suffix('"'))
                .ok_or_else(|| "reason must be a quoted string".to_string())?;
            reason = Some(quoted.to_string());
        } else {
            rules.push(RuleId::parse(part).ok_or_else(|| format!("unknown rule id {part:?}"))?);
        }
    }
    if rules.is_empty() {
        return Err("pragma names no rule".to_string());
    }
    match reason {
        Some(r) if !r.trim().is_empty() => Ok(PragmaText { rules, file_wide }),
        _ => Err("pragma requires a non-empty reason = \"...\"".to_string()),
    }
}

/// Split pragma arguments on commas, respecting one quoted string.
fn split_args(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                in_quotes = !in_quotes;
                current.push(c);
            }
            '\\' if in_quotes => {
                current.push(c);
                if let Some(next) = chars.next() {
                    current.push(next);
                }
            }
            ',' if !in_quotes => {
                out.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        out.push(current);
    }
    out
}

/// Strip comments and literals from one raw line, returning the
/// code-only text and any comment bodies encountered.
fn strip_line(raw: &str, region: &mut Region) -> (String, Vec<String>) {
    let bytes: Vec<char> = raw.chars().collect();
    let mut code = String::with_capacity(raw.len());
    let mut comments = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match region {
            Region::BlockComment(depth) => {
                let start = i;
                while i < bytes.len() {
                    if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                        *depth -= 1;
                        i += 2;
                        if *depth == 0 {
                            comments.push(bytes[start..i].iter().collect());
                            *region = Region::Code;
                            break;
                        }
                    } else if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                        *depth += 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                if matches!(region, Region::BlockComment(_)) {
                    comments.push(bytes[start..].iter().collect());
                    i = bytes.len();
                }
                code.push(' ');
            }
            Region::Str => {
                while i < bytes.len() {
                    match bytes[i] {
                        '\\' => i += 2,
                        '"' => {
                            i += 1;
                            *region = Region::Code;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                code.push(' ');
            }
            Region::RawStr(hashes) => {
                // Scan for `"` followed by exactly the opener's hash
                // count, walking *chars*. (An earlier version searched a
                // re-collected String and mixed the byte offset it got
                // back into the char index `i`: any multibyte content
                // before the closer made `i` overshoot, silently eating
                // the code after the literal — and when the overshoot
                // swallowed the opening quote of a following string,
                // that string's body leaked into the code stream.)
                let want = *hashes as usize;
                let close = (i..bytes.len()).find(|&j| {
                    bytes[j] == '"'
                        && bytes[j + 1..]
                            .iter()
                            .take(want)
                            .filter(|c| **c == '#')
                            .count()
                            == want
                });
                match close {
                    Some(j) => {
                        i = j + 1 + want;
                        *region = Region::Code;
                    }
                    None => i = bytes.len(),
                }
                code.push(' ');
            }
            Region::Code => {
                let c = bytes[i];
                if c == '/' && bytes.get(i + 1) == Some(&'/') {
                    comments.push(bytes[i..].iter().collect());
                    i = bytes.len();
                } else if c == '/' && bytes.get(i + 1) == Some(&'*') {
                    *region = Region::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    *region = Region::Str;
                    i += 1;
                } else if c == 'r'
                    && !prev_is_ident(&bytes, i)
                    && raw_string_hashes(&bytes, i).is_some()
                {
                    let hashes = raw_string_hashes(&bytes, i).unwrap();
                    *region = Region::RawStr(hashes);
                    i += 1 + hashes as usize + 1; // r, #*, "
                } else if (c == 'b' || c == 'c')
                    && !prev_is_ident(&bytes, i)
                    && bytes.get(i + 1) == Some(&'"')
                {
                    // Byte/C string `b"..."` / `c"..."`: same escape
                    // rules as a normal string.
                    *region = Region::Str;
                    i += 2;
                } else if (c == 'b' || c == 'c')
                    && !prev_is_ident(&bytes, i)
                    && bytes.get(i + 1) == Some(&'r')
                    && raw_string_hashes(&bytes, i + 1).is_some()
                {
                    // Raw byte/C string `br#"..."#`: without this arm the
                    // `b` prefix hid the raw opener, so the literal was
                    // scanned as a normal string whose `\` "escapes"
                    // desynchronized the closer — leaking literal text
                    // (and stray `#`) into the code stream.
                    let hashes = raw_string_hashes(&bytes, i + 1).unwrap();
                    *region = Region::RawStr(hashes);
                    i += 2 + hashes as usize + 1; // b, r, #*, "
                } else if c == '\'' {
                    // Char literal vs lifetime: a literal closes within a
                    // few characters; a lifetime has no closing quote.
                    if let Some(end) = char_literal_end(&bytes, i) {
                        code.push(' ');
                        i = end;
                    } else {
                        i += 1; // lifetime tick: drop it, keep the ident
                    }
                } else {
                    code.push(c);
                    i += 1;
                }
            }
        }
    }
    (code, comments)
}

fn prev_is_ident(bytes: &[char], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_')
}

/// If `bytes[i..]` starts a raw string (`r"` / `r#"` / ...), its hash count.
fn raw_string_hashes(bytes: &[char], i: usize) -> Option<u32> {
    let mut j = i + 1;
    let mut hashes = 0u32;
    while bytes.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (bytes.get(j) == Some(&'"')).then_some(hashes)
}

/// End index (exclusive) of a char literal starting at `i`, or `None`
/// if the tick is a lifetime.
fn char_literal_end(bytes: &[char], i: usize) -> Option<usize> {
    match bytes.get(i + 1) {
        Some('\\') => {
            // Escaped char: scan to the closing quote (bounded).
            let mut j = i + 2;
            while j < bytes.len() && j < i + 12 {
                if bytes[j] == '\'' {
                    return Some(j + 1);
                }
                j += 1;
            }
            None
        }
        Some(_) if bytes.get(i + 2) == Some(&'\'') => Some(i + 3),
        _ => None,
    }
}

/// Split code-only text into identifier and punctuation tokens. `::` is
/// one token; every other punctuation character stands alone.
pub fn tokenize(code: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = code.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
        } else if c.is_alphanumeric() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            tokens.push(chars[start..i].iter().collect());
        } else if c == ':' && chars.get(i + 1) == Some(&':') {
            tokens.push("::".to_string());
            i += 2;
        } else {
            tokens.push(c.to_string());
            i += 1;
        }
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_comments_and_strings() {
        let p = preprocess("let x = \"Instant::now\"; // Instant::now\nlet y = 1;\n");
        assert_eq!(p.lines.len(), 2);
        assert!(!p.lines[0].code.contains("Instant"));
        assert!(p.lines[0].code.contains("let x ="));
    }

    #[test]
    fn strips_nested_block_comments() {
        let p = preprocess("a /* x /* y */ z */ b\n");
        assert_eq!(p.lines[0].code.trim(), "a   b");
    }

    #[test]
    fn block_comment_spans_lines() {
        let p = preprocess("a /* start\nmiddle\nend */ b\n");
        assert_eq!(p.lines.len(), 2);
        assert_eq!(p.lines[0].code.trim(), "a");
        assert_eq!(p.lines[1].number, 3);
        assert_eq!(p.lines[1].code.trim(), "b");
    }

    #[test]
    fn raw_string_multibyte_content_does_not_leak_following_text() {
        // Regression: the closer search used to return a *byte* offset
        // that was added to a *char* index, so multibyte content inside
        // a raw string overshot the closer. Here the overshoot used to
        // swallow `;` and the opening quote of the next string, leaking
        // its body (`Instant::now() // junk`) into the code stream —
        // an unbalanced quote followed by `//`, exactly the text the
        // rules must never see.
        let src = "let s = r#\"h\u{e9}\u{e9}\"#;\"Instant::now() // junk\";ok();\n";
        let p = preprocess(src);
        let code = &p.lines[0].code;
        assert!(!code.contains("Instant"), "leaked literal text: {code:?}");
        assert!(
            code.contains("ok()"),
            "code after the literal lost: {code:?}"
        );
        // The same shape with multibyte content spanning to a comment.
        let src2 = "let s = r#\"\u{e9} \" \u{e9}\u{e9}\"#; keep(); // tail\n";
        let p2 = preprocess(src2);
        assert!(
            p2.lines[0].code.contains("keep()"),
            "{:?}",
            p2.lines[0].code
        );
    }

    #[test]
    fn byte_and_raw_byte_strings_are_stripped() {
        // `br#"..."#` used to be scanned as code `b` + `r` + `#` plus a
        // *normal* string, so backslashes inside desynchronized the
        // closer and stray `#` tokens leaked into the code stream.
        let src = "let b = br#\"a \\\" // thread_rng\"#; ok();\n";
        let p = preprocess(src);
        let code = &p.lines[0].code;
        assert!(!code.contains("thread_rng"), "{code:?}");
        assert!(!code.contains('#'), "raw-byte closer leaked: {code:?}");
        assert!(code.contains("ok()"), "{code:?}");
        let p2 = preprocess("let v = b\"Instant::now\"; ok();\n");
        assert!(
            !p2.lines[0].code.contains("Instant"),
            "{:?}",
            p2.lines[0].code
        );
    }

    #[test]
    fn raw_string_unbalanced_quote_then_comment_stays_contained() {
        // An unbalanced `"` followed by `//` inside the literal must not
        // leak: the closer is the quote-then-hashes pair, nothing else.
        let src = "let s = r#\"foo \" bar // thread_rng\"#; ok();\n";
        let p = preprocess(src);
        assert!(!p.lines[0].code.contains("thread_rng"));
        assert!(p.lines[0].code.contains("ok()"));
        // With two hashes, a lesser `"#` inside the literal is content.
        let src2 = "let s = r##\"x \"# y // thread_rng\"##; ok();\n";
        let p2 = preprocess(src2);
        assert!(!p2.lines[0].code.contains("thread_rng"));
        assert!(p2.lines[0].code.contains("ok()"));
    }

    #[test]
    fn raw_strings_and_char_literals() {
        let p = preprocess("let s = r#\"thread_rng\"#; let c = '\\n'; let l: &'static str = x;\n");
        let code = &p.lines[0].code;
        assert!(!code.contains("thread_rng"));
        assert!(code.contains("static")); // lifetime ident survives
    }

    #[test]
    fn truncates_at_cfg_test() {
        let p = preprocess("let a = 1;\n#[cfg(test)]\nmod tests { thread_rng(); }\n");
        assert_eq!(p.lines.len(), 1);
    }

    #[test]
    fn pragma_on_same_line_and_next_line() {
        let src = "foo(); // jxp-analyze: allow(D2, reason = \"timing\")\n\
                   // jxp-analyze: allow(C1, reason = \"next line\")\n\
                   bar();\n";
        let p = preprocess(src);
        assert!(p.pragma_errors.is_empty(), "{:?}", p.pragma_errors);
        assert!(p.is_allowed(RuleId::D2, 1));
        assert!(!p.is_allowed(RuleId::C1, 1));
        assert!(p.is_allowed(RuleId::C1, 3));
    }

    #[test]
    fn file_pragma_covers_every_line() {
        let p = preprocess("// jxp-analyze: allow-file(C2, reason = \"counters\")\nfoo();\n");
        assert!(p.is_allowed(RuleId::C2, 2));
        assert!(p.is_allowed(RuleId::C2, 999));
    }

    #[test]
    fn pragma_without_reason_is_an_error() {
        let p = preprocess("foo(); // jxp-analyze: allow(D1)\n");
        assert_eq!(p.pragma_errors.len(), 1);
        assert!(p.pragma_errors[0].1.contains("reason"));
    }

    #[test]
    fn pragma_with_unknown_rule_is_an_error() {
        // Retired rule ids count as unknown, so a stale suppression
        // cannot linger silently.
        for src in [
            "foo(); // jxp-analyze: allow(D9, reason = \"x\")\n",
            "foo(); // jxp-analyze: allow(L1, reason = \"x\")\n",
            "// jxp-analyze: allow-file(P1, reason = \"x\")\nfoo();\n",
        ] {
            let p = preprocess(src);
            assert_eq!(p.pragma_errors.len(), 1, "{src}");
            assert!(p.pragma_errors[0].1.contains("unknown rule"), "{src}");
            assert!(p.allows.is_empty(), "{src}");
        }
    }

    #[test]
    fn mid_comment_mention_is_not_a_pragma() {
        let src = "foo(); // docs cite `// jxp-analyze: allow(D2, reason = \"x\")` here\n";
        let p = preprocess(src);
        assert!(p.pragma_errors.is_empty());
        assert!(p.allows.is_empty());
    }

    #[test]
    fn multi_rule_pragma() {
        let p = preprocess("foo(); // jxp-analyze: allow(D1, C2, reason = \"both\")\n");
        assert!(p.is_allowed(RuleId::D1, 1));
        assert!(p.is_allowed(RuleId::C2, 1));
        assert!(!p.is_allowed(RuleId::D2, 1));
    }

    #[test]
    fn tokenizer_splits_paths() {
        assert_eq!(
            tokenize("Instant::now()"),
            vec!["Instant", "::", "now", "(", ")"]
        );
        assert_eq!(
            tokenize("self.entries.iter()"),
            vec!["self", ".", "entries", ".", "iter", "(", ")"]
        );
    }
}
