//! `trace_summary` piped into a reader that stops early (`| head -1`)
//! must end quietly with status 0, not panic on the closed pipe.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn trace_summary_stops_quietly_when_its_reader_goes_away() {
    let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/demo_trace.json");
    // Close the pipe before the first line, then after it: the first is
    // sure to meet a closed pipe, the second is how `head -1` reads.
    for lines_read in [0, 1] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_trace_summary"))
            .arg(trace)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn trace_summary");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        for _ in 0..lines_read {
            let mut line = String::new();
            stdout.read_line(&mut line).expect("read a line");
            assert!(line.starts_with("# Trace summary"), "first line: {line}");
        }
        drop(stdout);
        let out = child.wait_with_output().expect("wait for trace_summary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !stderr.contains("panicked"),
            "after {lines_read} line(s): {stderr}"
        );
        assert_eq!(
            out.status.code(),
            Some(0),
            "after {lines_read} line(s): {stderr}"
        );
    }
}
