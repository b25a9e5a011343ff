//! Figure 3: input and output controller microarchitecture.
//!
//! Prints the inventory of the paper's virtual-channel router — per-VC
//! input buffers and state, the single staging flit per input connection
//! at each output controller, credit loops — and then traces one 3-flit
//! packet through the live simulator cycle by cycle.

use ocin_bench::{banner, check, command_line, finish, EXPERIMENT};
use ocin_core::flit::FLIT_TOTAL_BITS;
use ocin_core::{Network, NetworkConfig, PacketSpec};
use ocin_sim::Table;

fn main() {
    command_line(EXPERIMENT);
    banner(
        "fig3_router",
        "Fig. 3, §2.3-2.4",
        "8 VCs x 4-flit input buffers per controller (~10^4 bits/edge); per-input output staging",
    );

    let cfg = NetworkConfig::paper_baseline();
    let mut inventory = Table::new(&["structure", "quantity", "bits"]);
    let vcs = cfg.vc_plan.num_vcs;
    inventory.row(&["input controllers / router".into(), "5".into(), "-".into()]);
    inventory.row(&[
        "virtual channels / input".into(),
        vcs.to_string(),
        "-".into(),
    ]);
    inventory.row(&[
        "flit buffers / VC".into(),
        cfg.buf_depth.to_string(),
        FLIT_TOTAL_BITS.to_string(),
    ]);
    inventory.row(&[
        "buffer bits / input controller".into(),
        "-".into(),
        cfg.buffer_bits_per_input().to_string(),
    ]);
    inventory.row(&[
        "output staging flits / output".into(),
        "5 (one per input)".into(),
        (5 * FLIT_TOTAL_BITS).to_string(),
    ]);
    inventory.row(&[
        "credit counters / output".into(),
        vcs.to_string(),
        "-".into(),
    ]);
    println!("\n{inventory}");
    check(
        (9_000..=11_000).contains(&cfg.buffer_bits_per_input()),
        "buffer budget is the paper's 'about 10^4 bits along each edge'",
    );

    // Trace a 3-flit packet 0 -> 2 (two eastward hops).
    println!("\ncycle-by-cycle trace of a 3-flit packet, tile 0 -> tile 2:\n");
    let mut net = Network::new(cfg).expect("baseline is valid");
    net.inject(&PacketSpec::new(0.into(), 2.into()).payload_bits(768))
        .expect("route fits");
    let mut trace = Table::new(&["cycle", "flits in flight", "hops so far", "delivered"]);
    let mut delivered_at = None;
    for _ in 0..30 {
        net.step();
        let s = net.stats();
        let done = net.drain_delivered(2.into());
        if !done.is_empty() && delivered_at.is_none() {
            delivered_at = Some((net.cycle(), done[0].network_latency()));
        }
        trace.row(&[
            net.cycle().to_string(),
            net.flits_in_flight().to_string(),
            s.energy.flit_hops.to_string(),
            if delivered_at.is_some() { "yes" } else { "" }.to_string(),
        ]);
        if delivered_at.is_some() && net.is_quiescent() {
            break;
        }
    }
    println!("{trace}");
    let (at, lat) = delivered_at.expect("packet must arrive");
    println!("tail delivered at cycle {at}; network latency {lat} cycles");
    check(lat <= 12, "zero-load latency is a few cycles per hop");
    finish();
}
