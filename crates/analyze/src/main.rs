//! `jxp-analyze` CLI: run the determinism/concurrency rules over the
//! workspace (`check`) or list the rule catalog (`rules`).

use std::path::PathBuf;
use std::process::ExitCode;

use jxp_analyze::{check_workspace_report, Config, Finding, RuleId};

const USAGE: &str = "\
jxp-analyze: determinism & concurrency static analysis for the JXP workspace

USAGE:
    jxp-analyze check [--root DIR] [--config FILE] [--format text|json]
    jxp-analyze rules

SUBCOMMANDS:
    check    scan workspace sources, print file:line diagnostics,
             exit 1 if any rule fires (2 on usage/IO errors)
    rules    print the rule catalog and pragma syntax

FLAGS:
    --format json    emit one JSON record per finding — file, line,
                     rule, message, pragma status — including findings
                     suppressed by reasoned pragmas (pragma: \"suppressed\").
                     The exit code still counts only active findings.

By default the workspace root is found by walking up from the current
directory to the nearest analyze.toml.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => run_check(&args[1..]),
        Some("rules") => {
            print_rules();
            ExitCode::SUCCESS
        }
        Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("jxp-analyze: unknown subcommand {other:?}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Output format for `check`.
#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

fn run_check(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut config_path: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage_error("--root needs a value"),
            },
            "--config" => match it.next() {
                Some(v) => config_path = Some(PathBuf::from(v)),
                None => return usage_error("--config needs a value"),
            },
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some(other) => {
                    return usage_error(&format!("unknown format {other:?} (text|json)"))
                }
                None => return usage_error("--format needs a value (text|json)"),
            },
            other => return usage_error(&format!("unknown argument {other:?}")),
        }
    }

    let root = match root.or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!(
                "jxp-analyze: no analyze.toml found walking up from the \
                 current directory; pass --root"
            );
            return ExitCode::from(2);
        }
    };
    let config_path = config_path.unwrap_or_else(|| root.join("analyze.toml"));
    let config = if config_path.exists() {
        match std::fs::read_to_string(&config_path)
            .map_err(|e| e.to_string())
            .and_then(|text| Config::parse(&text))
        {
            Ok(c) => c,
            Err(e) => {
                eprintln!("jxp-analyze: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        Config::default()
    };

    match check_workspace_report(&root, &config) {
        Ok(findings) => {
            let active = findings.iter().filter(|f| !f.suppressed).count();
            match format {
                Format::Json => print_json(&findings),
                Format::Text => {
                    for f in findings.iter().filter(|f| !f.suppressed) {
                        println!("{}", f.diag);
                    }
                    if active == 0 {
                        let rules = RuleId::RULES.map(RuleId::name).join(" ");
                        println!("jxp-analyze: clean (rules {rules})");
                    } else {
                        println!("jxp-analyze: {active} violation(s)");
                    }
                }
            }
            if active == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("jxp-analyze: {e}");
            ExitCode::from(2)
        }
    }
}

/// Emit findings as a JSON array of records. Hand-rolled (this crate
/// takes no dependencies); the only dynamic strings are escaped.
fn print_json(findings: &[Finding]) {
    println!("[");
    for (i, f) in findings.iter().enumerate() {
        let comma = if i + 1 < findings.len() { "," } else { "" };
        println!(
            "  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \
             \"message\": \"{}\", \"pragma\": \"{}\"}}{comma}",
            json_escape(&f.diag.file),
            f.diag.line,
            f.diag.rule,
            json_escape(&f.diag.message),
            if f.suppressed { "suppressed" } else { "active" },
        );
    }
    println!("]");
}

/// Escape a string for a JSON double-quoted literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("jxp-analyze: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

/// Walk up from the current directory to the nearest `analyze.toml`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("analyze.toml").exists() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn print_rules() {
    println!("jxp-analyze rule catalog:\n");
    for id in RuleId::RULES.into_iter().chain([RuleId::Pragma]) {
        println!("  {:<7} {}", id.name(), id.describe());
    }
    println!(
        "\nSuppression pragmas (reason is mandatory):\n\
         \n\
         \x20   code(); // jxp-analyze: allow(D2, reason = \"UI-only timer\")\n\
         \x20   // jxp-analyze: allow(C1, reason = \"...\")   <- applies to next line\n\
         \x20   // jxp-analyze: allow(D1, C2, reason = \"...\")  <- several rules, one reason\n\
         \x20   // jxp-analyze: allow-file(C2, reason = \"pure counters\")\n\
         \n\
         Path-level scoping lives in analyze.toml: [rules.D1] critical\n\
         (read by D1 and D2) and [rules.D2] allow."
    );
}
