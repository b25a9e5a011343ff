//! CLI entry points take flags; no binary or library may read the
//! environment.

fn main() {
    let _ = std::env::var("OCIN_RADIX"); // FINDING: line 5
}
