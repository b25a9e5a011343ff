//! §3.1: on-chip pin abundance — ">24,000 pins crossing the four edges
//! of a tile" vs <1,000 for a packaged router: a 24:1 advantage that
//! makes wide, broadside flits and wire-hungry topologies feasible.

use ocin_bench::{banner, check, command_line, finish, EXPERIMENT};
use ocin_phys::{SerialLinkModel, Technology};
use ocin_sim::Table;

fn main() {
    command_line(EXPERIMENT);
    banner(
        "exp_pincount",
        "§3.1",
        ">= 24,000 pins per tile vs < 1,000 per packaged router (24:1)",
    );
    let tech = Technology::dac2001();

    let mut t = Table::new(&["resource", "on-chip tile", "packaged router chip"]);
    t.row(&[
        "pins (wiring tracks)".into(),
        tech.pins_per_tile().to_string(),
        "< 1000".into(),
    ]);
    t.row(&[
        "feasible channel width".into(),
        "~300 bits broadside".into(),
        "8-16 bits".into(),
    ]);
    println!("\n{t}");
    check(tech.pins_per_tile() >= 24_000, "pin budget >= 24,000");
    check(
        tech.pins_per_tile() / 1_000 >= 24,
        "advantage is at least 24:1",
    );

    // Channel width needed for one 256-bit flit per cycle, per clock.
    println!("\nwires per 256-bit-flit channel at the paper's per-wire rate (4 Gb/s):\n");
    let mut widths = Table::new(&[
        "router clock",
        "bits/cycle/wire",
        "wires needed",
        "% of one edge",
    ]);
    for (name, t) in [
        ("200 MHz (slow)", Technology::dac2001_slow()),
        ("1 GHz", Technology::dac2001()),
        ("2 GHz (aggressive)", Technology::dac2001_aggressive()),
    ] {
        let m = SerialLinkModel::new(&t);
        let wires = m.wires_for_flit(256);
        widths.row(&[
            name.into(),
            format!("{:.0}", m.bits_per_cycle_per_wire()),
            wires.to_string(),
            format!("{:.1}%", 100.0 * wires as f64 / t.tracks_per_edge as f64),
        ]);
    }
    println!("{widths}");
    check(
        SerialLinkModel::new(&Technology::dac2001_slow()).bits_per_cycle_per_wire() == 20.0,
        "slow clock reaches the paper's 20 bits/cycle/wire",
    );
    finish();
}
