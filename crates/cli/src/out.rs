//! The one writer every command prints through.
//!
//! A reader that closes its end of the pipe early, as in
//! `jxp-cli checkpoint verify --state-dir state | head -8`, makes the
//! next write to stdout fail with `BrokenPipe`, and `print!` panics on
//! that. [`write`] instead unwinds with a [`ReaderGone`] marker, which
//! [`crate::run`] catches: the command ends there, quietly, and the
//! binary exits with status 141 (128 + SIGPIPE), since the command's
//! work was cut short. No panic message is printed, since a resumed
//! unwind skips the panic hook.

use std::fmt;
use std::io::{self, Write};
use std::panic;

/// The unwind payload of a write to a closed pipe.
pub(crate) struct ReaderGone;

/// Write `args` to stdout; see the module docs for a closed pipe.
///
/// # Panics
/// Panics on any other write error, as `print!` does.
pub(crate) fn write(args: fmt::Arguments<'_>) {
    // Unit tests call `run` in process; `print!` keeps their output in
    // the test harness's capture.
    if cfg!(test) {
        print!("{args}");
        return;
    }
    match io::stdout().lock().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
            panic::resume_unwind(Box::new(ReaderGone))
        }
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}
