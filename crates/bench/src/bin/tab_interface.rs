//! §2.1: the tile port's field layout — type, size, virtual channel,
//! route, ready — with live encode/decode demonstrations.

use ocin_bench::{banner, check, command_line, finish, EXPERIMENT};
use ocin_core::flit::{SizeCode, VcMask, FLIT_DATA_BITS, FLIT_OVERHEAD_BITS};
use ocin_core::ids::Direction;
use ocin_core::route::SourceRoute;
use ocin_sim::Table;

fn main() {
    command_line(EXPERIMENT);
    banner(
        "tab_interface",
        "§2.1",
        "256b data + type(2) size(4) vc(8) route(16) ready(8) port fields",
    );

    let mut fields = Table::new(&["field", "bits", "encodes"]);
    fields.row(&["data".into(), "256".into(), "payload (one flit)".into()]);
    fields.row(&[
        "type".into(),
        "2".into(),
        "head / body / tail / idle (head+tail = single-flit)".into(),
    ]);
    fields.row(&[
        "size".into(),
        "4".into(),
        "log2 of valid data bits: 1b .. 256b".into(),
    ]);
    fields.row(&[
        "virtual channel".into(),
        "8".into(),
        "mask of VCs the packet may ride (class of service)".into(),
    ]);
    fields.row(&[
        "route".into(),
        "16".into(),
        "2b/hop source route: straight/left/right/extract".into(),
    ]);
    fields.row(&[
        "ready".into(),
        "8".into(),
        "per-VC back-pressure from the network (credits)".into(),
    ]);
    println!("\n{fields}");

    // Size field: logarithmic encoding.
    let mut sizes = Table::new(&["code", "valid bits", "active wire bits (incl. overhead)"]);
    for code in 0..=8u8 {
        let s = SizeCode::new(code).expect("0..=8");
        sizes.row(&[
            code.to_string(),
            s.bits().to_string(),
            (s.bits() + FLIT_OVERHEAD_BITS).to_string(),
        ]);
    }
    println!("{sizes}");
    check(
        SizeCode::for_bits(FLIT_DATA_BITS) == SizeCode::new(8),
        "a full flit is code 8 (2^8 = 256 bits)",
    );

    // Route field: the paper's 16 bits hold any minimal route on the
    // 4x4 torus (diameter 4 = 5 entries of 2 bits).
    use Direction::*;
    let route = SourceRoute::compile(&[East, East, North, North]).expect("minimal route");
    println!(
        "example route E,E,N,N encodes as {route:?} ({} entries, {} bits)",
        route.num_entries(),
        2 * route.num_entries()
    );
    check(
        route.fits_paper_field(),
        "diameter route fits the 16-bit field",
    );
    let too_long = SourceRoute::compile(&[East; 8]).expect("compiles");
    check(
        !too_long.fits_paper_field(),
        "8-hop routes exceed the field (rejected at injection on the baseline)",
    );

    // VC mask semantics.
    let bulk = VcMask::new(0b0000_1111);
    let pri = VcMask::new(0b0011_0000);
    check(
        bulk.and(pri).is_empty(),
        "bulk and priority classes are disjoint VC masks",
    );
    println!(
        "\nclass-of-service masks: bulk {:#010b}, priority {:#010b}, reserved {:#010b}",
        bulk.bits(),
        pri.bits(),
        0b1000_0000u8
    );
    finish();
}
