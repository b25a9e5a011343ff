//! §2.4: router area — "less than 50 µm wide by 3 mm long along each
//! edge ... 0.59 mm² or 6.6% of the tile area", plus the wiring-track
//! budget ("about 3000 of the 6000 available tracks").

use ocin_bench::{banner, check, command_line, f2, f3, finish, EXPERIMENT};
use ocin_core::flit::FLIT_TOTAL_BITS;
use ocin_phys::{RouterAreaModel, Technology, WiringBudget};
use ocin_sim::Table;

fn main() {
    command_line(EXPERIMENT);
    banner(
        "exp_area",
        "§2.4",
        "router occupies 0.59mm^2 = 6.6% of a 3mm tile; ~3000/6000 tracks",
    );
    let tech = Technology::dac2001();
    let model = RouterAreaModel::paper_baseline();

    let b = model.edge_breakdown();
    let mut breakdown = Table::new(&["component", "mm^2 / edge", "share"]);
    for (name, mm2) in [
        ("buffers (9600 b)", b.buffers_mm2),
        ("control logic (3000 gates)", b.logic_mm2),
        ("drivers + receivers", b.xcvr_mm2),
    ] {
        breakdown.row(&[
            name.into(),
            f3(mm2),
            format!("{:.0}%", 100.0 * mm2 / b.total_mm2()),
        ]);
    }
    breakdown.row(&["total / edge".into(), f3(b.total_mm2()), "100%".into()]);
    println!("\n{breakdown}");

    let total = model.total_mm2();
    let frac = model.fraction_of_tile(&tech);
    let strip = model.strip_width_um(&tech);
    let mut summary = Table::new(&["metric", "paper", "model"]);
    summary.row(&["router area (mm^2)".into(), "0.59".into(), f2(total)]);
    summary.row(&[
        "fraction of tile".into(),
        "6.6%".into(),
        format!("{:.1}%", frac * 100.0),
    ]);
    summary.row(&["strip width (um)".into(), "< 50".into(), f2(strip)]);
    println!("{summary}");
    check(
        (0.54..=0.64).contains(&total),
        "total area within 0.59mm^2 +/- 8%",
    );
    check((0.060..=0.070).contains(&frac), "fraction within 6.0-7.0%");
    check(strip < 50.0, "strip narrower than 50um");

    // Area vs buffering: the paper's §3.2 motivation for cheaper flow
    // control.
    println!("\nrouter area vs flow-control buffering (flit = {FLIT_TOTAL_BITS} b):\n");
    let mut sweep = Table::new(&[
        "flow control",
        "vcs x depth",
        "buffer bits/edge",
        "mm^2 total",
        "% of tile",
    ]);
    for (name, vcs, depth) in [
        ("virtual channel (paper)", 8usize, 4usize),
        ("virtual channel, half buffers", 8, 2),
        ("virtual channel, 4 VCs", 4, 4),
        ("dropping", 1, 1),
        ("deflection (pipeline latch only)", 1, 1),
    ] {
        let m = RouterAreaModel::with_buffering(vcs, depth, FLIT_TOTAL_BITS);
        sweep.row(&[
            name.into(),
            format!("{vcs} x {depth}"),
            (vcs * depth * FLIT_TOTAL_BITS).to_string(),
            f3(m.total_mm2()),
            format!("{:.1}%", 100.0 * m.fraction_of_tile(&tech)),
        ]);
    }
    println!("{sweep}");

    // Wiring tracks.
    let w = WiringBudget::paper_baseline();
    println!(
        "wiring: {} of {} tracks used per edge ({:.0}%)",
        w.tracks_used(),
        tech.tracks_per_edge,
        100.0 * w.utilization(&tech)
    );
    check(w.tracks_used() == 3_000, "matches the paper's ~3000 tracks");
    finish();
}
