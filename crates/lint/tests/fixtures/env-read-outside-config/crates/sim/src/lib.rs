//! Fixture: `env-read-outside-config` — ambient `std::env` reads in
//! library crates, CLI bins and the bench harness fire; suppressed
//! reads do not.

pub fn bad_var() -> Option<String> {
    std::env::var("OCIN_FOO").ok() // FINDING: line 6
}

pub fn bad_var_os() -> Option<std::ffi::OsString> {
    std::env::var_os("OCIN_BAR") // FINDING: line 10
}

pub fn suppressed() -> usize {
    // ocin-lint: allow(env-read-outside-config) — fixture: speed knob, never a result
    std::env::var("OCIN_SHARDS").map_or(1, |v| v.len())
}

/// `env::var` quoted in docs or strings never fires.
pub fn quoted() -> &'static str {
    "env::var and env::var_os"
}
