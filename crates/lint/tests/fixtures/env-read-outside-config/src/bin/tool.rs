//! CLI entry points take flags; only the bench harness may read the
//! environment.

fn main() {
    let _ = std::env::var("OCIN_RADIX"); // FINDING: line 5
}
