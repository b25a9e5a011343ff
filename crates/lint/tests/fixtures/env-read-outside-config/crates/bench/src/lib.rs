//! The bench harness is no exception: its binaries take flags, so an
//! environment read fires here too.

pub fn quick_mode() -> bool {
    std::env::var("OCIN_QUICK").is_ok_and(|v| v == "1") // FINDING: line 5
}

pub fn metrics_out() -> Option<std::ffi::OsString> {
    std::env::var_os("OCIN_METRICS_OUT") // FINDING: line 9
}
