//! §3.3 / §4.1: what the structured wiring buys in circuits — pulsed
//! low-swing signaling (10× energy, 3× velocity, 3× repeater spacing),
//! multi-bit-per-cycle wires, and network latency competitive with a
//! dedicated, optimally repeated full-swing wire.

use ocin_bench::{banner, check, command_line, f1, f2, finish, EXPERIMENT};
use ocin_phys::{
    RepeaterDesign, RepeaterDevice, SerialLinkModel, SignalingScheme, Technology, WireModel,
};
use ocin_sim::Table;

fn main() {
    command_line(EXPERIMENT);
    banner(
        "exp_circuits",
        "§3.3, §4.1",
        "low-swing: 10x power, 3x velocity, 3x repeater spacing; 4Gb/s/wire; competitive latency",
    );
    let tech = Technology::dac2001();
    let wire = WireModel::new(&tech);

    let mut t = Table::new(&[
        "scheme",
        "energy pJ/bit/mm",
        "delay ps/mm",
        "velocity mm/ns",
        "repeater spacing mm",
        "repeaters per 3mm tile",
    ]);
    for scheme in SignalingScheme::ALL {
        t.row(&[
            scheme.name().into(),
            f2(wire.energy_per_bit_mm(scheme)),
            f1(wire.repeated_delay_per_mm_ps(scheme)),
            f2(wire.velocity_mm_per_ns(scheme)),
            f2(wire.repeater_spacing_mm(scheme)),
            wire.repeaters_needed(3.0, scheme).to_string(),
        ]);
    }
    println!("\n{t}");
    let e_ratio = wire.energy_per_bit_mm(SignalingScheme::FullSwing)
        / wire.energy_per_bit_mm(SignalingScheme::LowSwing);
    let v_ratio = wire.velocity_mm_per_ns(SignalingScheme::LowSwing)
        / wire.velocity_mm_per_ns(SignalingScheme::FullSwing);
    let r_ratio = wire.repeater_spacing_mm(SignalingScheme::LowSwing)
        / wire.repeater_spacing_mm(SignalingScheme::FullSwing);
    check((e_ratio - 10.0).abs() < 0.5, "energy reduction ~10x");
    check((v_ratio - 3.0).abs() < 0.1, "velocity gain ~3x");
    check((r_ratio - 3.0).abs() < 0.1, "repeater spacing gain ~3x");
    check(
        wire.repeaters_needed(3.0, SignalingScheme::LowSwing) == 0,
        "a 3mm tile is crossed without a low-swing repeater",
    );

    // 4 Gb/s per wire -> 2..20 bits per cycle.
    println!("\nper-wire serialization (4 Gb/s feasible in 0.1um):\n");
    let mut s = Table::new(&["clock", "bits per cycle per wire"]);
    for (name, t) in [
        ("2 GHz (aggressive)", Technology::dac2001_aggressive()),
        ("1 GHz", Technology::dac2001()),
        ("200 MHz (slow)", Technology::dac2001_slow()),
    ] {
        s.row(&[
            name.into(),
            format!("{:.0}", SerialLinkModel::new(&t).bits_per_cycle_per_wire()),
        ]);
    }
    println!("{s}");

    // Network vs dedicated wire latency (§4.1's strongest claim: "with
    // efficient pre-scheduled flow control, the latency of a signal
    // transported over an on-chip network could be lower than a signal
    // transported over a dedicated full-swing wire with optimum
    // repeatering"). A pre-scheduled flit crosses each router through a
    // pre-configured mux path — no arbitration, no buffering — costing a
    // few gate delays; a dynamic flit pays a full router cycle per hop.
    println!("\nend-to-end latency, dedicated full-swing wire vs network path:\n");
    let clock_ps = tech.clock_period_ps();
    let passthrough_ps = 3.0 * 30.0; // ~3 gate delays per pre-configured hop
    let mut lat = Table::new(&[
        "distance mm",
        "dedicated full-swing ps",
        "network pre-scheduled ps",
        "network dynamic ps (1GHz)",
    ]);
    let mut prescheduled_wins = true;
    for hops in [1usize, 2, 3, 4] {
        let mm = hops as f64 * tech.tile_mm;
        let dedicated = wire.repeated_delay_ps(mm, SignalingScheme::FullSwing);
        let net_wire = wire.repeated_delay_ps(mm, SignalingScheme::LowSwing);
        let prescheduled = net_wire + hops as f64 * passthrough_ps;
        let dynamic = net_wire + hops as f64 * clock_ps;
        lat.row(&[f1(mm), f1(dedicated), f1(prescheduled), f1(dynamic)]);
        if hops >= 2 && prescheduled >= dedicated {
            prescheduled_wins = false;
        }
    }
    println!("{lat}");
    check(
        prescheduled_wins,
        "pre-scheduled network latency beats the dedicated full-swing wire beyond one tile \
         (3x signal velocity outruns the ~3-gate-delay pass-through per hop)",
    );

    // First-principles repeater insertion (Bakoglu optimum) behind the
    // simplified constants above.
    let dev = RepeaterDevice::dac2001();
    let design = RepeaterDesign::optimize(&tech, &dev);
    println!(
        "\nfirst-principles full-swing repeater optimum: spacing {:.2} mm, size {:.0}x minimum, \
         {:.0} ps/mm ({:.1} mm/ns)",
        design.spacing_mm,
        design.size,
        design.delay_per_mm_ps,
        design.velocity_mm_per_ns()
    );
    println!(
        "repeaters for a 300-wire channel across one 3mm tile: {} stations, {:.3} mm^2",
        design.repeaters_for(3.0),
        design.repeater_area_um2(&dev, 3.0, 300) / 1e6
    );
    check(
        design.repeaters_for(3.0) >= 1,
        "full-swing wires need repeaters within a tile; 3x low-swing spacing removes them (paper §4.1)",
    );
    finish();
}
