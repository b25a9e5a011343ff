//! §2.6: pre-scheduled and dynamic traffic sharing the network.
//!
//! "At run time, a pre-scheduled packet is sent on a special virtual
//! channel. At each hop, the packet moves from one link to another
//! without arbitration or delay using the pre-scheduled reservations.
//! Dynamic traffic arbitrates for the cycles on each link that are not
//! pre-reserved."
//!
//! A camera→encoder-style static flow keeps constant latency and zero
//! jitter no matter how much dynamic traffic is offered.

use ocin_bench::{banner, check, command_line, f1, f3, finish, sim_config, EXPERIMENT};
use ocin_core::ids::FlowId;
use ocin_core::{NetworkConfig, ReservationPolicy, StaticFlowSpec};
use ocin_sim::{SimConfig, Simulation, Table};
use ocin_traffic::{InjectionProcess, TrafficPattern, Workload};

fn run(policy: ReservationPolicy, load: f64, sim: SimConfig) -> (f64, f64, f64, f64) {
    let cfg = NetworkConfig::paper_baseline()
        .with_reservation_period(8)
        .with_reservation_policy(policy)
        // Camera at tile 0 streaming to an MPEG encoder at tile 10, plus
        // a second sensor flow 3 -> 12.
        .with_static_flow(StaticFlowSpec::new(0.into(), 10.into(), 0, 256))
        .with_static_flow(StaticFlowSpec::new(3.into(), 12.into(), 4, 256));
    let wl = Workload::new(16, 4, TrafficPattern::Uniform)
        .injection(InjectionProcess::Bernoulli { flit_rate: load });
    let report = Simulation::new(cfg, sim)
        .expect("flows admit")
        .with_workload(&wl)
        .run();
    let f0 = report.flow_latency[&FlowId(0)];
    let j0 = report.flow_jitter[&FlowId(0)];
    let bulk = report.class_latency.get(&0).map_or(0.0, |r| r.mean);
    (f0.mean, j0, bulk, report.accepted_flit_rate)
}

fn main() {
    let args = command_line(EXPERIMENT);
    banner(
        "exp_prescheduled",
        "§2.6",
        "reserved flows keep constant latency and ~zero jitter under any dynamic load",
    );

    let loads: &[f64] = if args.quick {
        &[0.0, 0.4]
    } else {
        &[0.0, 0.1, 0.2, 0.4, 0.6, 0.8]
    };

    for policy in [ReservationPolicy::WorkConserving, ReservationPolicy::Strict] {
        println!("\n--- policy: {policy:?} ---\n");
        let mut t = Table::new(&[
            "dynamic load",
            "flow mean latency",
            "flow jitter",
            "bulk mean latency",
            "accepted total",
        ]);
        let mut flow_lat = Vec::new();
        let mut flow_jit = Vec::new();
        for &load in loads {
            let (fmean, fjit, bulk, acc) = run(policy, load, sim_config(args.quick));
            flow_lat.push(fmean);
            flow_jit.push(fjit);
            t.row(&[f3(load), f1(fmean), f1(fjit), f1(bulk), f3(acc)]);
        }
        println!("{t}");
        let max_jitter = flow_jit.iter().copied().fold(0.0, f64::max);
        let lat_spread = flow_lat.iter().copied().fold(0.0f64, f64::max)
            - flow_lat.iter().copied().fold(f64::INFINITY, f64::min);
        check(
            max_jitter <= 1.0,
            "reserved-flow jitter stays at (or within one cycle of) zero at every load",
        );
        check(
            lat_spread <= 1.0,
            "reserved-flow latency is load-independent",
        );
    }

    // Over-subscription is rejected at admission, not discovered at
    // runtime.
    let conflict = NetworkConfig::paper_baseline()
        .with_reservation_period(8)
        .with_static_flow(StaticFlowSpec::new(0.into(), 2.into(), 0, 256))
        .with_static_flow(StaticFlowSpec::new(0.into(), 2.into(), 0, 256));
    let err = ocin_core::Network::new(conflict).err();
    check(
        err.is_some(),
        "conflicting reservations are rejected when the system is configured",
    );
    finish();
}
