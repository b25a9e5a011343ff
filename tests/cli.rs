//! The `ocin` binary end to end: speed settings are flags, checked
//! before any work, and never change a report.

use std::process::{Command, Output};

fn ocin(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ocin"))
        .args(args)
        .output()
        .expect("spawn ocin")
}

#[test]
fn zero_shards_is_rejected() {
    let out = ocin(&["run", "--shards", "0"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "no report before the error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--shards"), "{stderr}");
}

#[test]
fn shard_count_does_not_change_the_report() {
    let run = |shards| {
        let out = ocin(&[
            "run", "--cycles", "400", "--load", "0.3", "--shards", shards,
        ]);
        assert!(out.status.success(), "{out:?}");
        String::from_utf8(out.stdout).expect("UTF-8 report")
    };
    let one = run("1");
    assert!(one.contains("accepted"), "{one}");
    assert_eq!(run("2"), one);
}
