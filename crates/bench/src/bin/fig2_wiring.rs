//! Figure 2: west input connections to output controllers.
//!
//! Prints the router's input→output connectivity matrix (each input
//! controller reaches the four *other* outputs plus the tile, never the
//! edge it entered on — which is why two route bits per hop suffice) and
//! the physical length of the intra-tile turn wires (≈ 3 mm, one tile
//! pitch, kept equal by placing opposite-direction MSBs at opposite
//! ends).

use ocin_bench::{banner, check, command_line, finish, EXPERIMENT};
use ocin_core::ids::Port;
use ocin_core::route::Turn;

fn main() {
    command_line(EXPERIMENT);
    banner(
        "fig2_wiring",
        "Fig. 2, §2.3",
        "each input controller feeds four output controllers over ~3mm turn wires",
    );

    println!("\ninput \\ output    N     E     S     W     Tile");
    println!("------------------------------------------------");
    for in_port in Port::ALL {
        let mut row = format!("{:<15}", in_port.to_string());
        for out_port in Port::ALL {
            row.push_str(&format!("  {:<4}", connectivity(in_port, out_port)));
        }
        println!("{row}");
    }

    println!();
    println!("2-bit route entries seen by the west input (packet heading East):");
    for (turn, label) in [
        (Turn::Straight, "East output (straight)"),
        (Turn::Left, "North output (left)"),
        (Turn::Right, "South output (right)"),
        (Turn::Extract, "Tile output (extract)"),
    ] {
        println!("  {:02b} -> {label}", turn.encode());
    }

    println!("\nintra-tile wire lengths (input controller to output controller):");
    println!("  straight-through: 3.0 mm   turn: ~3.0 mm (MSB flip keeps corners equal)");

    let per_input: Vec<usize> = Port::ALL
        .iter()
        .map(|&i| {
            Port::ALL
                .iter()
                .filter(|&&o| connectivity(i, o) == "x")
                .count()
        })
        .collect();
    check(
        per_input.iter().all(|&c| c == 4),
        "every input controller connects to exactly 4 output controllers",
    );
    finish();
}

/// `x` when connected, `.` when not (an input never exits the edge it
/// entered on, and the tile does not loop back to itself).
fn connectivity(i: Port, o: Port) -> &'static str {
    match (i, o) {
        (Port::Dir(di), Port::Dir(dx)) if dx == di => ".",
        (Port::Tile, Port::Tile) => ".",
        _ => "x",
    }
}
