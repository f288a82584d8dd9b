//! A reader that stops early, as `jxp-cli ... | head -1` does, closes
//! the command's stdout while it still has lines to print. The command
//! must end there quietly: nothing on stderr, and exit status 141
//! (128 + SIGPIPE), so a pipeline under `set -o pipefail` still sees
//! that the command was cut short.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn a_reader_that_closes_the_pipe_ends_the_command_quietly() {
    let bin = env!("CARGO_BIN_EXE_jxp-cli");
    let dir = std::env::temp_dir().join(format!("jxp_cli_broken_pipe_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let status = Command::new(bin)
        .args(["generate", "--scale", "0.1", "--out"])
        .arg(&dir)
        .stdout(Stdio::null())
        .status()
        .expect("run generate");
    assert!(status.success(), "generate failed: {status}");
    // Every one of the ~5 500 pages ranked: ~170 KB, well past what a
    // pipe buffers, so the command is still printing when the reader
    // goes away.
    let mut child = Command::new(bin)
        .args(["pagerank", "--top", "1000000", "--graph"])
        .arg(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run pagerank");
    let mut first = String::new();
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    stdout.read_line(&mut first).expect("read one line");
    assert!(!first.is_empty(), "no output");
    drop(stdout);
    let output = child.wait_with_output().expect("wait for pagerank");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert_eq!(
        output.status.code(),
        Some(jxp_cli::READER_GONE_EXIT),
        "{}",
        output.status
    );
}
