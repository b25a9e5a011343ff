//! Fixture-driven tests for `ocin-lint`, plus the workspace
//! self-check: the live tree must produce zero findings, and the JSON
//! report must be byte-identical across runs.

use std::path::{Path, PathBuf};
use std::process::Command;

use ocin_lint::{analyze_workspace, Analysis};

/// The real workspace root (two levels above this crate).
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

/// A fixture tree: a miniature workspace holding deliberate violations.
fn fixture_root(rule: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule)
}

fn analyze_fixture(rule: &str) -> Analysis {
    analyze_workspace(&fixture_root(rule)).expect("fixture scan")
}

/// `(rule, line)` pairs of an analysis, for compact assertions.
fn hits(a: &Analysis) -> Vec<(String, usize)> {
    a.findings
        .iter()
        .map(|f| (f.rule.clone(), f.line))
        .collect()
}

#[test]
fn fixture_nondeterministic_iteration() {
    let a = analyze_fixture("nondeterministic-iteration");
    let want = |r: &str, l| (r.to_string(), l);
    assert_eq!(
        hits(&a),
        vec![
            want("nondeterministic-iteration", 4),
            want("nondeterministic-iteration", 5),
            want("nondeterministic-iteration", 21),
        ],
        "{:#?}",
        a.findings
    );
}

#[test]
fn fixture_wall_clock_in_sim() {
    let a = analyze_fixture("wall-clock-in-sim");
    assert_eq!(
        hits(&a),
        vec![
            ("wall-clock-in-sim".to_string(), 7),
            ("wall-clock-in-sim".to_string(), 11),
        ],
        "{:#?}",
        a.findings
    );
}

#[test]
fn fixture_unseeded_rng() {
    let a = analyze_fixture("unseeded-rng");
    assert_eq!(
        hits(&a),
        vec![
            ("unseeded-rng".to_string(), 5),
            ("unseeded-rng".to_string(), 9),
        ],
        "{:#?}",
        a.findings
    );
}

#[test]
fn fixture_env_read_outside_config() {
    let a = analyze_fixture("env-read-outside-config");
    assert_eq!(
        hits(&a),
        vec![
            ("env-read-outside-config".to_string(), 5),
            ("env-read-outside-config".to_string(), 9),
            ("env-read-outside-config".to_string(), 6),
            ("env-read-outside-config".to_string(), 10),
            ("env-read-outside-config".to_string(), 5),
        ],
        "{:#?}",
        a.findings
    );
    // The span names the exact token: `std::env::var(` starts after
    // four spaces of indentation and a `std::` prefix.
    assert_eq!((a.findings[0].col, a.findings[0].end_col), (10, 18));
    assert_eq!((a.findings[1].col, a.findings[1].end_col), (10, 21));
}

#[test]
fn fixture_panic_in_router_hot_path() {
    let a = analyze_fixture("panic-in-router-hot-path");
    assert_eq!(
        hits(&a),
        vec![
            ("panic-in-router-hot-path".to_string(), 5),
            ("panic-in-router-hot-path".to_string(), 10),
        ],
        "{:#?}",
        a.findings
    );
}

#[test]
fn fixture_println_in_core() {
    let a = analyze_fixture("println-in-core");
    assert_eq!(
        hits(&a),
        vec![
            ("println-in-core".to_string(), 5),
            ("println-in-core".to_string(), 6),
            ("println-in-core".to_string(), 7),
        ],
        "{:#?}",
        a.findings
    );
}

#[test]
fn fixture_raw_thread_spawn() {
    let a = analyze_fixture("raw-thread-spawn");
    assert_eq!(
        hits(&a),
        vec![
            // exec.rs is the sanctioned seam (excluded); pool.rs and
            // shard.rs now fire — they borrow workers from the executor.
            ("raw-thread-spawn".to_string(), 6),
            ("raw-thread-spawn".to_string(), 7),
            ("raw-thread-spawn".to_string(), 5),
            ("raw-thread-spawn".to_string(), 5),
        ],
        "{:#?}",
        a.findings
    );
}

#[test]
fn fixture_todo_in_shipping_code() {
    let a = analyze_fixture("todo-in-shipping-code");
    assert_eq!(
        hits(&a),
        vec![
            ("todo-in-shipping-code".to_string(), 5),
            ("todo-in-shipping-code".to_string(), 9),
        ],
        "{:#?}",
        a.findings
    );
}

#[test]
fn fixture_unannotated_wake_site() {
    let a = analyze_fixture("unannotated-wake-site");
    assert_eq!(
        hits(&a),
        vec![
            ("unannotated-wake-site".to_string(), 6),
            ("unannotated-wake-site".to_string(), 11),
        ],
        "{:#?}",
        a.findings
    );
}

#[test]
fn fixture_ungated_telemetry_record() {
    let a = analyze_fixture("ungated-telemetry-record");
    assert_eq!(
        hits(&a),
        vec![
            ("ungated-telemetry-record".to_string(), 6),
            ("ungated-telemetry-record".to_string(), 7),
        ],
        "{:#?}",
        a.findings
    );
}

#[test]
fn fixture_malformed_suppression() {
    let a = analyze_fixture("malformed-suppression");
    assert_eq!(
        hits(&a),
        vec![
            ("malformed-suppression".to_string(), 5),
            ("malformed-suppression".to_string(), 9),
            // The unjustified allow does not suppress the HashMap it
            // decorates.
            ("nondeterministic-iteration".to_string(), 9),
        ],
        "{:#?}",
        a.findings
    );
}

/// The live workspace lints clean: every determinism rule holds, and
/// every exemption carries a justification. This is the test that
/// keeps future PRs honest.
#[test]
fn workspace_self_check_is_clean() {
    let a = analyze_workspace(&workspace_root()).expect("workspace scan");
    assert!(
        a.findings.is_empty(),
        "ocin-lint found violations in the live workspace:\n{:#?}",
        a.findings
    );
    // Sanity: the scan actually visited the tree.
    assert!(
        a.files_scanned > 80,
        "only {} files scanned",
        a.files_scanned
    );
}

/// The linter obeys its own determinism rules: scanning the same tree
/// twice renders byte-identical JSON.
#[test]
fn json_report_is_byte_identical_across_runs() {
    let root = fixture_root("nondeterministic-iteration");
    let a = analyze_workspace(&root).expect("scan 1");
    let b = analyze_workspace(&root).expect("scan 2");
    assert_eq!(
        ocin_lint::report::to_json(&a),
        ocin_lint::report::to_json(&b)
    );
}

/// `ocin-lint rules` lists every shipped rule by name.
#[test]
fn cli_rules_lists_the_rule_set() {
    let out = Command::new(env!("CARGO_BIN_EXE_ocin-lint"))
        .arg("rules")
        .output()
        .expect("run ocin-lint rules");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in ocin_lint::rules::all_rules() {
        assert!(
            text.contains(rule.name),
            "rules listing missing {}",
            rule.name
        );
    }
    assert!(text.contains("env-read-outside-config"));
}

/// Exit-code contract of the CLI: 0 on the clean workspace, nonzero on
/// every rule fixture — this is exactly what the CI job gates on.
#[test]
fn cli_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_ocin-lint");
    let tmp = std::env::temp_dir();

    let clean = Command::new(bin)
        .args(["check", "--root"])
        .arg(workspace_root())
        .arg("--report")
        .arg(tmp.join(format!("ocin-lint-self-{}.json", std::process::id())))
        .output()
        .expect("run ocin-lint");
    assert!(
        clean.status.success(),
        "self-check failed:\n{}",
        String::from_utf8_lossy(&clean.stdout)
    );

    for rule in [
        "nondeterministic-iteration",
        "wall-clock-in-sim",
        "unseeded-rng",
        "env-read-outside-config",
        "panic-in-router-hot-path",
        "unannotated-wake-site",
        "println-in-core",
        "raw-thread-spawn",
        "ungated-telemetry-record",
        "todo-in-shipping-code",
        "malformed-suppression",
    ] {
        let out = Command::new(bin)
            .args(["check", "--root"])
            .arg(fixture_root(rule))
            .arg("--report")
            .arg(tmp.join(format!("ocin-lint-{rule}-{}.json", std::process::id())))
            .output()
            .expect("run ocin-lint");
        assert_eq!(
            out.status.code(),
            Some(1),
            "fixture {rule} should fail the lint:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
