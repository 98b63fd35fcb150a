//! The `vitex` binary against a consumer that hangs up
//! (`vitex '//a/b' big.xml | head -1`): a closed stdout must end the run,
//! not be written at until the input runs out. And its `--machine` dump,
//! byte for byte.

use std::io::Write;
use std::process::{Command, Stdio};

/// Spawns `vitex ARGS -`, closes the read end of its stdout, then feeds an
/// open `<r>` and `<a/>` chunks on stdin without ever closing the
/// document. The child must exit 0 at its first match; the feeder sees
/// that as a broken stdin pipe, at the latest once the pipe buffer and
/// the reader's chunk are full — far inside the 4 MiB offered.
fn exits_once_stdout_is_closed(args: &[&str]) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_vitex"))
        .args(args)
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("vitex spawns");
    drop(child.stdout.take());
    let mut stdin = child.stdin.take().expect("piped stdin");
    let chunk = "<a/>".repeat(256);
    let hung_up = stdin.write_all(b"<r>").is_err()
        || (0..4096).any(|_| stdin.write_all(chunk.as_bytes()).is_err());
    if !hung_up {
        child.kill().expect("kill the child that kept reading");
    }
    let status = child.wait().expect("child is reaped");
    assert!(hung_up, "vitex {args:?} read 4 MiB past a closed stdout");
    assert_eq!(status.code(), Some(0), "a closed pipe is not an error");
}

#[test]
fn closed_stdout_ends_the_run() {
    exits_once_stdout_is_closed(&["//a"]);
    exits_once_stdout_is_closed(&["-e", "//a", "-e", "//r"]);
}

/// What `--machine` prints for the paper's Figure 3 query and an
/// attribute-predicate text query: each query's tree, then one line per
/// machine node (`parent=`, `main=` and `root=` are read off its role).
const MACHINE_DUMP: &str = r#"query: //section[author]//table[position]//cell
query tree:
*//section
  ?/author
  *//table
    ?/position
    *//cell

machine nodes: 5
  [0] //section parent=None main=true root=true result=false flags=1 attr_preds=0 text_preds=0 attr_result=false
  [1] /author parent=Some(0) main=false root=false result=false flags=0 attr_preds=0 text_preds=0 attr_result=false
  [2] //table parent=Some(0) main=true root=false result=false flags=1 attr_preds=0 text_preds=0 attr_result=false
  [3] /position parent=Some(2) main=false root=false result=false flags=0 attr_preds=0 text_preds=0 attr_result=false
  [4] //cell parent=Some(2) main=true root=false result=true flags=0 attr_preds=0 text_preds=0 attr_result=false
query: //a[@id = 'x']/text()
query tree:
*//a
  ?/@id = 'x'
  */text()

machine nodes: 1
  [0] //a parent=None main=true root=true result=false flags=1 attr_preds=1 text_preds=0 attr_result=false
"#;

#[test]
fn the_machine_dump_is_pinned() {
    let queries = ["//section[author]//table[position]//cell", "//a[@id = 'x']/text()"];
    let out = Command::new(env!("CARGO_BIN_EXE_vitex"))
        .args(["--machine", "-e", queries[0], "-e", queries[1]])
        .output()
        .expect("vitex runs");
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout), MACHINE_DUMP);
}
