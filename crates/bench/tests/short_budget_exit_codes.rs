//! Exit-code contract of the evaluation bins on a valid `--cycles` budget
//! too short for their verdict: the failed verdict is one line on stdout
//! and the exit code is 1, never a panic (101) and never success (0). Exit
//! 2 stays reserved for usage errors, such as a PAL decode with no cycles.

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

#[test]
fn pal_decode_zero_budget_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_pal_system_sim"))
        .args(["--cycles", "0"])
        .output()
        .expect("spawn pal_system_sim");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stdout}{stderr}");
    assert!(!stdout.contains("NaN"), "{stdout}");
    assert!(!stdout.contains("REAL-TIME MET"), "{stdout}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("--cycles 0"), "{stderr}");
}
