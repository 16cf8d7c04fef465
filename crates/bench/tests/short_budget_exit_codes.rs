//! Exit-code contract of the evaluation bins on a valid `--cycles` budget
//! too short for their verdict: the failed verdict is one line on stdout
//! and the exit code is 1, never a panic (101) and never success (0). Exit
//! 2 stays reserved for usage errors.

use std::process::Command;

/// Run `bin` with `args` and return its exit code and stdout.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code(), stdout)
}

#[test]
fn pal_decode_missing_real_time_exits_one() {
    let (code, stdout) = run(env!("CARGO_BIN_EXE_pal_system_sim"), &["--cycles", "1000"]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(
        stdout.contains("real-time constraint violated: decoded 0 stereo samples in 1000 cycles"),
        "{stdout}"
    );
}

#[test]
fn fig9_without_a_wedge_exits_one() {
    let (code, stdout) = run(env!("CARGO_BIN_EXE_fig9_shared_fifo"), &["--cycles", "0"]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(
        stdout.contains("no Fig. 9 wedge in 0 cycles: exit-fifo-full stall cycles 0"),
        "{stdout}"
    );
}
