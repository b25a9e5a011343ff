//! Figure 1: partitioning the die into module tiles and network logic.
//!
//! Renders the 12 mm × 12 mm die as a 4×4 grid of 3 mm tiles, shows the
//! folded-torus row/column order (0, 2, 3, 1), and tabulates every
//! link's physical length — no link exceeds two tile pitches, which is
//! the point of folding.

use ocin_bench::{banner, check, command_line, finish, EXPERIMENT};
use ocin_core::ids::Coord;
use ocin_core::{FoldedTorus2D, Topology};
use ocin_sim::Table;

fn main() {
    command_line(EXPERIMENT);
    banner(
        "fig1_layout",
        "Fig. 1, §2",
        "16 tiles of 3mm on a 12mm die; rows cyclically connected 0,2,3,1",
    );
    let t = FoldedTorus2D::new(4);

    // Die map: which logical node sits at each physical tile position.
    let mut grid = [[0u16; 4]; 4];
    for n in 0..t.num_nodes() {
        let node = ocin_core::NodeId::new(n as u16);
        let p = t.physical_position(node);
        grid[p.y as usize][p.x as usize] = n as u16;
    }
    println!("\nDie map (logical node at each physical tile, 3mm x 3mm each):\n");
    for y in (0..4).rev() {
        println!("   +------+------+------+------+");
        let cells: Vec<String> = (0..4).map(|x| format!("  t{:<2} ", grid[y][x])).collect();
        println!("   |{}|{}|{}|{}|", cells[0], cells[1], cells[2], cells[3]);
    }
    println!("   +------+------+------+------+\n");

    // The paper's row order: walking logical row 0 visits these columns.
    let walk: Vec<u8> = (0..4u8)
        .map(|lx| t.physical_position(t.node_at(Coord::new(lx, 0))).x)
        .collect();
    println!("row ring visits physical columns: {walk:?}");
    check(
        walk == vec![0, 2, 3, 1],
        "matches the paper's order 0,2,3,1",
    );

    // Link length census.
    let mut table = Table::new(&["link length (pitches)", "mm", "count"]);
    let mut by_len = std::collections::BTreeMap::new();
    for (node, dir) in t.channels() {
        let len = t.link_length_pitches(node, dir);
        *by_len.entry((len * 10.0) as i64).or_insert(0usize) += 1;
    }
    for (len10, count) in &by_len {
        let pitches = *len10 as f64 / 10.0;
        table.row(&[
            format!("{pitches}"),
            format!("{}", pitches * 3.0),
            count.to_string(),
        ]);
    }
    println!("\n{table}");
    let max_len = by_len.keys().max().copied().unwrap_or(0) as f64 / 10.0;
    check(
        max_len <= 2.0,
        "folding keeps every link within 2 tile pitches (no long wrap wires)",
    );
    println!(
        "\nmean hops (all pairs): {:.3}   mean distance: {:.3} pitches",
        t.avg_min_hops(),
        t.avg_min_distance_pitches()
    );
    finish();
}
