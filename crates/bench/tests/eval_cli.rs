//! The `eval` binary run as a child process: its two fault legs and a
//! closed stdout.

use std::process::{Command, Output, Stdio};

const EVAL: &str = env!("CARGO_BIN_EXE_eval");

/// Runs `eval ARGS` with `CANVAS_FAULT` set to `fault` (or unset).
fn eval(args: &[&str], fault: Option<&str>) -> Output {
    let mut cmd = Command::new(EVAL);
    cmd.args(args).env_remove("CANVAS_FAULT");
    if let Some(fault) = fault {
        cmd.env("CANVAS_FAULT", fault);
    }
    cmd.output().expect("run eval")
}

fn text(out: &Output) -> String {
    format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr))
}

/// An interpreter panic inside the concrete oracle is contained and
/// reported as an oracle error (exit 1).
#[test]
fn oracle_death_is_contained() {
    let out = eval(&["oracle"], Some("oracle-death"));
    assert_eq!(out.status.code(), Some(1), "{}", text(&out));
    assert!(text(&out).contains("oracle thread panicked"), "{}", text(&out));
}

/// With an expired deadline every table still renders, each engine cell
/// degraded to an inconclusive verdict, and certificates that cannot be
/// checked are recorded as rejected.
#[test]
fn expired_deadline_runs_the_whole_evaluation_inconclusive() {
    let out = eval(&["all", "--deadline-ms", "0"], None);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out));
    assert!(text(&out).contains("inconclusive (wall-clock deadline exceeded)"), "{}", text(&out));
}

/// A reader that closed its end of stdout (`eval … | head`) ends the run
/// quietly: no panic message, no panic exit status.
#[test]
fn closed_stdout_is_not_a_panic() {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(EVAL)
        .arg("derive")
        .env_remove("CANVAS_FAULT")
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .expect("run eval");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}
