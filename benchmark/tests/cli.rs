//! Bad command lines exit with status 2 and a message, never a panic.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("benchmark runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_input_exits_2_with_a_message() {
    for (args, message) in [
        (
            &["run", "--workload", "no_such_workload", "--seed", "1"][..],
            "unknown workload",
        ),
        (
            &["run", "--workload", "lone_k32", "--seed", "twelve"][..],
            "not a valid number",
        ),
        (
            &["run", "--workload", "lone_k32", "--trace", "yes"][..],
            "--trace takes 0 or 1",
        ),
        (&["frobnicate"][..], "unknown subcommand"),
        (&[][..], "missing subcommand"),
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
