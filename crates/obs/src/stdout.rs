//! Line output for the command-line tools.

use std::fmt;
use std::io::{self, Write};

/// Writes one line to standard output, as `println!` does, for tools
/// whose output is often piped into a reader that stops early
/// (`trace_summary trace.json | head -1`). A closed pipe ends the
/// process quietly with status 0 instead of panicking; any other write
/// error ends it with a message on standard error and status 1.
pub fn write_line(args: fmt::Arguments<'_>) {
    let written = writeln!(io::stdout().lock(), "{args}");
    if let Err(e) = written {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error writing to stdout: {e}");
        std::process::exit(1);
    }
}

/// [`write_line`](crate::stdout::write_line) with `println!` syntax.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::stdout::write_line(format_args!($($arg)*))
    };
}
