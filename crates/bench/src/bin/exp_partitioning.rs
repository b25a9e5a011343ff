//! §4.2: partitioning the interface for small payloads.
//!
//! "Our network has 256-bit wide flits, but it is reasonable to assume
//! not all client transfers will be this wide. A simple solution is to
//! partition the width of the interface into several separate physical
//! networks ... we could split our 256-bit flit into eight, 32-bit flits
//! and duplicate the control signals eight times."
//!
//! Wide transfers still use several partitions in parallel; small
//! transfers stop wasting the unused width — at the cost of duplicated
//! control overhead on every partition.

use std::sync::Arc;

use ocin_bench::{banner, check, command_line, f1, f2, f3, finish, sim_config, EXPERIMENT};
use ocin_core::flit::{FLIT_DATA_BITS, FLIT_OVERHEAD_BITS};
use ocin_core::NetworkConfig;
use ocin_sim::{LoadSweep, SimPool, Table};
use ocin_traffic::{TrafficPattern, Workload};

/// Wire-bits consumed to deliver `payload` bits on an interface of
/// `partitions` × `width`-bit networks (each partition carries its own
/// control overhead).
fn wire_bits(payload: usize, partitions: usize, width: usize) -> usize {
    // Flits needed per partition chain: fill partitions in parallel
    // first, then successive beats.
    let per_beat = partitions * width;
    let beats = payload.div_ceil(per_beat);
    let used_partitions = if beats == 1 {
        payload.div_ceil(width)
    } else {
        partitions
    };
    beats * used_partitions * (width + FLIT_OVERHEAD_BITS)
}

fn main() {
    let args = command_line(EXPERIMENT);
    banner(
        "exp_partitioning",
        "§4.2",
        "8 x 32-bit networks serve small payloads efficiently; one 256-bit network wins when wide",
    );

    let full = (1usize, FLIT_DATA_BITS);
    let split = (8usize, 32usize);

    let mut t = Table::new(&[
        "payload bits",
        "1x256: wire bits",
        "1x256: efficiency",
        "8x32: wire bits",
        "8x32: efficiency",
        "winner",
    ]);
    let mut split_wins_small = false;
    let mut full_close_wide = false;
    for payload in [8usize, 16, 32, 64, 128, 256, 512, 1024] {
        let a = wire_bits(payload, full.0, full.1);
        let b = wire_bits(payload, split.0, split.1);
        let ea = payload as f64 / a as f64;
        let eb = payload as f64 / b as f64;
        if payload <= 32 && eb > ea {
            split_wins_small = true;
        }
        if payload >= 256 && ea >= eb {
            full_close_wide = true;
        }
        t.row(&[
            payload.to_string(),
            a.to_string(),
            f2(ea),
            b.to_string(),
            f2(eb),
            if eb > ea { "8x32" } else { "1x256" }.to_string(),
        ]);
    }
    println!("\n{t}");
    check(
        split_wins_small,
        "partitioned interface is more efficient for small payloads",
    );
    check(
        full_close_wide,
        "the single wide interface is at least as efficient for full-width payloads \
         (the duplicated control signals are the §4.2 'additional signal overhead')",
    );
    println!(
        "\ncontrol overhead per flit: {FLIT_OVERHEAD_BITS} bits; duplicated 8x in the \
         partitioned interface"
    );

    // The size field already recovers most of the *power* (not wire-slot)
    // waste on the wide interface: unused bits are kept quiet.
    let small = 16usize;
    let active_wide = small.next_power_of_two() + FLIT_OVERHEAD_BITS;
    let active_split = small.div_ceil(32) * (32 + FLIT_OVERHEAD_BITS);
    println!(
        "energy view of a {small}-bit transfer (size field quiets unused bits): \
         1x256 toggles {active_wide} bits, 8x32 toggles {active_split}"
    );
    check(
        active_wide <= active_split,
        "the log-size field already makes the wide interface energy-competitive for small data",
    );

    // Simulated channel-width ablation: serializing each flit over p
    // phits models a channel 1/p as wide (one partition of the split
    // interface). Fewer wires, p x less bandwidth, p-1 extra cycles per
    // hop.
    println!("\nsimulated channel-width ablation (uniform traffic at 0.1 flits/node/cycle):\n");
    let mut sweep = Table::new(&[
        "channel width (bits)",
        "wires/edge (both dirs, diff)",
        "accepted",
        "mean latency",
    ]);
    let mut widest_latency = 0.0f64;
    let mut narrowest_latency = 0.0f64;
    let pool = Arc::new(SimPool::new());
    for phits in [1u64, 2, 4, 8] {
        let width = FLIT_DATA_BITS as u64 / phits;
        let cfg = NetworkConfig::paper_baseline().with_channel_phits(phits);
        let point = LoadSweep::new(
            cfg,
            sim_config(args.quick),
            Workload::new(16, 4, TrafficPattern::Uniform),
        )
        .with_pool(Arc::clone(&pool))
        .point(0.1);
        if phits == 1 {
            widest_latency = point.mean_latency;
        }
        narrowest_latency = point.mean_latency;
        sweep.row(&[
            width.to_string(),
            (2 * 2 * (width + FLIT_OVERHEAD_BITS as u64)).to_string(),
            f3(point.accepted),
            f1(point.mean_latency),
        ]);
    }
    println!("{sweep}");
    check(
        narrowest_latency > widest_latency + 10.0,
        "narrow channels pay serialization latency on every hop (the width trade is real)",
    );
    finish();
}
