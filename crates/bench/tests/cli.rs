//! The command line of every `ocin-bench` binary: a bad one exits with
//! status 2 and an error naming the culprit on stderr, before the binary
//! prints anything to stdout. No case here gets as far as a simulation.

use std::process::{Command, Output};

/// Every binary in the crate.
const BINARIES: [(&str, &str); 23] = [
    ("exec_dump", env!("CARGO_BIN_EXE_exec_dump")),
    ("exp_area", env!("CARGO_BIN_EXE_exp_area")),
    ("exp_bus", env!("CARGO_BIN_EXE_exp_bus")),
    ("exp_circuits", env!("CARGO_BIN_EXE_exp_circuits")),
    ("exp_duty_factor", env!("CARGO_BIN_EXE_exp_duty_factor")),
    ("exp_fault", env!("CARGO_BIN_EXE_exp_fault")),
    ("exp_flow_control", env!("CARGO_BIN_EXE_exp_flow_control")),
    (
        "exp_latency_decomposition",
        env!("CARGO_BIN_EXE_exp_latency_decomposition"),
    ),
    ("exp_latency_load", env!("CARGO_BIN_EXE_exp_latency_load")),
    ("exp_logical_wire", env!("CARGO_BIN_EXE_exp_logical_wire")),
    ("exp_partitioning", env!("CARGO_BIN_EXE_exp_partitioning")),
    ("exp_pincount", env!("CARGO_BIN_EXE_exp_pincount")),
    (
        "exp_power_topology",
        env!("CARGO_BIN_EXE_exp_power_topology"),
    ),
    ("exp_preemption", env!("CARGO_BIN_EXE_exp_preemption")),
    ("exp_prescheduled", env!("CARGO_BIN_EXE_exp_prescheduled")),
    ("exp_soc", env!("CARGO_BIN_EXE_exp_soc")),
    (
        "exp_step_throughput",
        env!("CARGO_BIN_EXE_exp_step_throughput"),
    ),
    ("exp_tail_latency", env!("CARGO_BIN_EXE_exp_tail_latency")),
    ("fig1_layout", env!("CARGO_BIN_EXE_fig1_layout")),
    ("fig2_wiring", env!("CARGO_BIN_EXE_fig2_wiring")),
    ("fig3_router", env!("CARGO_BIN_EXE_fig3_router")),
    ("probe_dump", env!("CARGO_BIN_EXE_probe_dump")),
    ("tab_interface", env!("CARGO_BIN_EXE_tab_interface")),
];

/// Asserts binary `name` rejected `args`: status 2, nothing on stdout,
/// and `culprit` named on stderr.
fn assert_rejected(name: &str, args: &[&str], culprit: &str) {
    let (_, path) = BINARIES
        .iter()
        .find(|(n, _)| *n == name)
        .expect("a binary of this crate");
    let out: Output = Command::new(path)
        .args(args)
        .output()
        .expect("binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{name} {args:?} printed to stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(stderr.contains(culprit), "{name} {args:?}: {stderr}");
}

#[test]
fn every_binary_rejects_an_unknown_flag() {
    for (name, _) in BINARIES {
        assert_rejected(name, &["--frobnicate"], "--frobnicate");
        // After valid flags too: the whole line is parsed up front.
        let valid: &[&str] = if name.ends_with("_dump") {
            &["--out", "target/unused"]
        } else {
            &["--quick"]
        };
        assert_rejected(name, &[valid, &["--frobnicate"]].concat(), "--frobnicate");
    }
}

#[test]
fn a_flag_of_another_binary_is_rejected() {
    for (name, args) in [
        ("exp_area", ["--radix", "8"]),
        ("exp_latency_load", ["--shards", "2"]),
        ("probe_dump", ["--quick", "--probe"]),
        ("exec_dump", ["--shards", "2"]),
    ] {
        assert_rejected(name, &args, args[0]);
    }
    // The dumps' old positional output path needs `--out` now.
    assert_rejected("probe_dump", &["target/probe"], "target/probe");
}

#[test]
fn a_value_taking_flag_given_last_is_rejected() {
    assert_rejected("exp_latency_load", &["--radix"], "--radix needs a value");
    assert_rejected(
        "exp_step_throughput",
        &["--quick", "--out"],
        "--out needs a value",
    );
}

#[test]
fn bad_numbers_are_rejected() {
    assert_rejected("exp_tail_latency", &["--shards", "0"], "--shards: 0");
    assert_rejected("exp_tail_latency", &["--shards", "8x"], "'8x'");
    assert_rejected("exec_dump", &["--exec-workers", "two"], "'two'");
    assert_rejected("exp_latency_load", &["--radix", "1"], "--radix: 1");
}
