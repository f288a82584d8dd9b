//! The lint rules live in `clippy.toml` files (DESIGN.md §11), and
//! clippy reads only the *nearest* one: a crate-level file never merges
//! with the root file. A crate file that forgets a workspace-wide entry
//! therefore switches that rule off for its crate without a word. These
//! checks pin the copies the rules depend on.

use std::fs;
use std::path::{Path, PathBuf};

/// Rule C1: no poison-unwrap, everywhere.
const C1: [&str; 3] = [
    "std::sync::Mutex::lock",
    "std::sync::RwLock::read",
    "std::sync::RwLock::write",
];

/// The determinism-critical crates, which also carry D1 and D2.
const CRITICAL: [&str; 4] = ["core", "p2pnet", "pagerank", "segstore"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every clippy config under `dir`, skipping build output and dot-directories.
fn clippy_tomls(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                clippy_tomls(&path, out);
            }
        } else if name == "clippy.toml" || name == ".clippy.toml" {
            out.push(path);
        }
    }
}

/// The `path = "…"` values of a clippy config, comment lines skipped.
fn disallowed_paths(file: &Path) -> Vec<String> {
    let text =
        fs::read_to_string(file).unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
    text.lines()
        .filter(|line| !line.trim_start().starts_with('#'))
        .filter_map(|line| line.split_once("path = \"")?.1.split_once('"'))
        .map(|(path, _)| path.to_string())
        .collect()
}

#[test]
fn every_clippy_toml_lists_the_c1_paths() {
    let mut files = Vec::new();
    clippy_tomls(root(), &mut files);
    assert!(
        files.contains(&root().join("clippy.toml")),
        "no root clippy.toml among {files:?}"
    );
    for file in &files {
        let paths = disallowed_paths(file);
        for c1 in C1 {
            assert!(
                paths.iter().any(|p| p == c1),
                "{} does not list {c1}",
                file.display()
            );
        }
    }
}

#[test]
fn critical_crate_clippy_tomls_are_byte_identical() {
    let read = |krate: &str| {
        let file = root().join("crates").join(krate).join("clippy.toml");
        fs::read(&file).unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()))
    };
    let core = read(CRITICAL[0]);
    for krate in &CRITICAL[1..] {
        assert!(
            read(krate) == core,
            "crates/{krate}/clippy.toml differs from crates/core/clippy.toml"
        );
    }
}

#[test]
fn reactor_clippy_toml_keeps_the_blocking_socket_calls() {
    let paths = disallowed_paths(&root().join("crates/reactor/clippy.toml"));
    for banned in [
        "std::io::Read::read_exact",
        "std::net::TcpStream::connect_timeout",
    ] {
        assert!(
            paths.iter().any(|p| p == banned),
            "crates/reactor/clippy.toml does not list {banned}"
        );
    }
}
