//! §4.4: the duty factor of wires.
//!
//! "The average wire on a typical chip is used (toggles) less than 10% of
//! the time. ... A network solves this problem by sharing the wires
//! across many signals. ... over 100% if we transmit several bits per
//! cycle."

use ocin_bench::{banner, check, command_line, f2, f3, finish, sim_config, EXPERIMENT};
use ocin_core::{NetworkConfig, ProbeConfig};
use ocin_phys::{DutyFactorModel, SerialLinkModel, Technology};
use ocin_sim::{Simulation, Table};
use ocin_traffic::{InjectionProcess, TrafficPattern, Workload};

fn main() {
    let args = command_line(EXPERIMENT);
    banner(
        "exp_duty_factor",
        "§4.4",
        "dedicated wires toggle <10%; shared network wires run at high duty, >100% with multi-bit circuits",
    );
    let duty = DutyFactorModel::paper_baseline();
    let slow = SerialLinkModel::new(&Technology::dac2001_slow());

    let loads: &[f64] = if args.quick {
        &[0.3]
    } else {
        &[0.1, 0.3, 0.5, 0.7]
    };
    let serial = slow.bits_per_cycle_per_wire(); // 20 at 200 MHz
    let mut t = Table::new(&[
        "offered load",
        "avg link util",
        "max link util",
        "duty @1 bit/cycle",
        "duty @20 bits/cycle (200MHz serial)",
        "x over dedicated (10%)",
    ]);
    let mut best_plain = 0.0f64;
    let mut best_serial = 0.0f64;
    for &load in loads {
        let wl = Workload::new(16, 4, TrafficPattern::Uniform)
            .injection(InjectionProcess::Bernoulli { flit_rate: load });
        let mut sim = Simulation::new(NetworkConfig::paper_baseline(), sim_config(args.quick))
            .expect("valid")
            .with_workload(&wl);
        if args.probe {
            sim = sim.with_probe(ProbeConfig::counters());
        }
        let report = sim.run();
        if let Some(metrics) = report.metrics.as_ref() {
            // The probe's per-port flit counters are the duty-factor
            // measurement taken a second way: write the last load's
            // snapshot for offline inspection.
            args.write_metrics(metrics);
        }
        let u = report.avg_link_utilization;
        let d1 = duty.network_duty(u, 1.0);
        let ds = duty.network_duty(u, serial);
        best_plain = best_plain.max(d1);
        best_serial = best_serial.max(ds);
        t.row(&[
            f2(load),
            f3(u),
            f3(report.max_link_utilization),
            format!("{:.0}%", 100.0 * d1),
            format!("{:.0}%", 100.0 * ds),
            f2(duty.improvement(u, 1.0)),
        ]);
    }
    println!("\n{t}");
    check(
        best_plain > 3.0 * duty.dedicated_toggle_rate || (args.quick && best_plain > 0.15),
        "network wires reach several times the 10% dedicated-wire duty factor",
    );
    check(
        best_serial > 1.0 || args.quick,
        "with multi-bit-per-cycle signaling the duty factor exceeds 100% (paper's 'over 100%')",
    );
    println!(
        "\n(each wire of a 200 MHz serial link carries {serial} bits/cycle, so a {:.0}%-utilized\n\
         channel works its wires at {:.0}% duty — {}x a dedicated wire's 10%)",
        100.0 * best_plain,
        100.0 * best_serial,
        f2(best_serial / duty.dedicated_toggle_rate)
    );
    finish();
}
