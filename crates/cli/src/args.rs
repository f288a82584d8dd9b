//! `--key value` argument parsing.

use std::collections::BTreeMap;

/// Parsed `--key value` pairs of one subcommand invocation.
#[derive(Debug, Clone, Default)]
pub struct ParsedArgs {
    values: BTreeMap<String, String>,
}

impl ParsedArgs {
    /// Parse alternating `--key value` tokens.
    ///
    /// # Errors
    /// Rejects bare tokens, keys without values and duplicate keys.
    pub fn parse(tokens: &[String]) -> Result<Self, String> {
        let mut values = BTreeMap::new();
        let mut it = tokens.iter();
        while let Some(tok) = it.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {tok:?}"))?;
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{key} is missing its value"))?;
            if values.insert(key.to_string(), value.clone()).is_some() {
                return Err(format!("flag --{key} given twice"));
            }
        }
        Ok(ParsedArgs { values })
    }

    /// Refuse the first flag not in the space-separated `accepted`
    /// list, naming it and `command`.
    pub fn reject_unknown(&self, command: &str, accepted: &str) -> Result<(), String> {
        match self
            .values
            .keys()
            .find(|k| !accepted.split_whitespace().any(|a| a == k.as_str()))
        {
            Some(key) => Err(format!("unknown flag --{key} for {command}")),
            None => Ok(()),
        }
    }

    /// Raw string value of a flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Required string value.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required --{key}"))
    }

    /// Optional parsed value with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {raw:?}")),
        }
    }

    /// Optional count that must be at least 1 when given: a zero
    /// sample, top-k, query mix or worker pool has no meaning, so it is
    /// refused here, naming the flag, before any work starts.
    pub fn get_count<T>(&self, key: &str) -> Result<Option<T>, String>
    where
        T: std::str::FromStr + From<u8> + PartialEq,
    {
        if self.get(key).is_none() {
            return Ok(None);
        }
        let n: T = self.get_or(key, T::from(0))?;
        if n == T::from(0) {
            return Err(format!("--{key} must be at least 1, got 0"));
        }
        Ok(Some(n))
    }

    /// Optional enum-ish value constrained to a fixed set.
    pub fn get_choice<'a>(
        &'a self,
        key: &str,
        choices: &[&'a str],
        default: &'a str,
    ) -> Result<&'a str, String> {
        let raw = self.get(key).unwrap_or(default);
        choices
            .iter()
            .find(|&&c| c == raw)
            .copied()
            .ok_or_else(|| format!("--{key}: expected one of {choices:?}, got {raw:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<ParsedArgs, String> {
        ParsedArgs::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_pairs() {
        let a = parse("--scale 0.5 --out x.bin").unwrap();
        assert_eq!(a.get("scale"), Some("0.5"));
        assert_eq!(a.get("out"), Some("x.bin"));
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("scale 0.5").is_err());
        assert!(parse("--scale").is_err());
        assert!(parse("--scale 1 --scale 2").is_err());
    }

    #[test]
    fn typed_access_with_defaults() {
        let a = parse("--meetings 100").unwrap();
        assert_eq!(a.get_or("meetings", 5usize).unwrap(), 100);
        assert_eq!(a.get_or("top", 10usize).unwrap(), 10);
        assert!(a.get_or::<usize>("meetings", 0).is_ok());
        let bad = parse("--meetings many").unwrap();
        assert!(bad.get_or::<usize>("meetings", 0).is_err());
    }

    #[test]
    fn choices_are_validated() {
        let a = parse("--merge full").unwrap();
        assert_eq!(
            a.get_choice("merge", &["light", "full"], "light").unwrap(),
            "full"
        );
        assert_eq!(
            a.get_choice("combine", &["max", "avg"], "max").unwrap(),
            "max"
        );
        let bad = parse("--merge diagonal").unwrap();
        assert!(bad
            .get_choice("merge", &["light", "full"], "light")
            .is_err());
    }

    #[test]
    fn require_reports_missing() {
        let a = parse("").unwrap();
        assert!(a.require("graph").is_err());
    }
}
