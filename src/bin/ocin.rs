//! `ocin` — command-line front end to the simulator.
//!
//! ```text
//! ocin info
//! ocin run   [--topology ftorus:4] [--pattern uniform] [--load 0.2]
//!            [--flow-control vc|drop|deflect] [--phits 1] [--valiant]
//!            [--cycles 8000] [--seed 1] [--heatmap] [--shards 4]
//! ocin sweep [--topology ftorus:4] [--pattern uniform] [--loads 0.1,0.3,0.5]
//! ```

use std::process::ExitCode;

use ocin::core::{FlowControl, NetworkConfig, RoutingAlg, TopologySpec};
use ocin::sim::{LoadSweep, ShardedSimulation, SimConfig, Simulation, Table};
use ocin::traffic::{InjectionProcess, TrafficPattern, Workload};

#[derive(Debug, Clone)]
struct Options {
    topology: TopologySpec,
    pattern: String,
    load: f64,
    loads: Vec<f64>,
    flow_control: FlowControl,
    phits: u64,
    valiant: bool,
    cycles: u64,
    seed: u64,
    heatmap: bool,
    shards: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            topology: TopologySpec::FoldedTorus { k: 4 },
            pattern: "uniform".into(),
            load: 0.2,
            loads: vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5],
            flow_control: FlowControl::VirtualChannel,
            phits: 1,
            valiant: false,
            cycles: 8_000,
            seed: 1,
            heatmap: false,
            shards: 1,
        }
    }
}

fn parse_topology(s: &str) -> Result<TopologySpec, String> {
    let (kind, k) = s.split_once(':').unwrap_or((s, "4"));
    let k: usize = k.parse().map_err(|_| format!("bad radix in '{s}'"))?;
    match kind {
        "ftorus" | "torus" => Ok(TopologySpec::FoldedTorus { k }),
        "mesh" => Ok(TopologySpec::Mesh { k }),
        "ring" => Ok(TopologySpec::Ring { k }),
        other => Err(format!("unknown topology '{other}' (ftorus|mesh|ring)")),
    }
}

fn parse_pattern(s: &str, nodes: usize) -> Result<TrafficPattern, String> {
    Ok(match s {
        "uniform" => TrafficPattern::Uniform,
        "transpose" => TrafficPattern::Transpose,
        "bitcomp" => TrafficPattern::BitComplement,
        "bitrev" => TrafficPattern::BitReverse,
        "shuffle" => TrafficPattern::Shuffle,
        "tornado" => TrafficPattern::Tornado,
        "neighbor" => TrafficPattern::Neighbor,
        "hotspot" => TrafficPattern::Hotspot {
            target: ((nodes / 2) as u16).into(),
            fraction: 0.3,
        },
        other => return Err(format!("unknown pattern '{other}'")),
    })
}

fn parse_args(args: &[String]) -> Result<(String, Options), String> {
    let mut opts = Options::default();
    let Some(cmd) = args.first() else {
        return Err("usage: ocin <info|run|sweep> [options]".into());
    };
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--topology" => opts.topology = parse_topology(&value()?)?,
            "--pattern" => opts.pattern = value()?,
            "--load" => opts.load = value()?.parse().map_err(|e| format!("--load: {e}"))?,
            "--loads" => {
                opts.loads = value()?
                    .split(',')
                    .map(|v| v.parse::<f64>().map_err(|e| format!("--loads: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--flow-control" => {
                opts.flow_control = match value()?.as_str() {
                    "vc" => FlowControl::VirtualChannel,
                    "drop" => FlowControl::Dropping,
                    "deflect" => FlowControl::Deflection,
                    other => return Err(format!("unknown flow control '{other}'")),
                }
            }
            "--phits" => opts.phits = value()?.parse().map_err(|e| format!("--phits: {e}"))?,
            "--valiant" => opts.valiant = true,
            "--heatmap" => opts.heatmap = true,
            "--cycles" => opts.cycles = value()?.parse().map_err(|e| format!("--cycles: {e}"))?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--shards" => {
                opts.shards = value()?.parse().map_err(|e| format!("--shards: {e}"))?;
                if opts.shards == 0 {
                    return Err("--shards: must be at least 1".into());
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok((cmd.clone(), opts))
}

fn network_config(opts: &Options) -> NetworkConfig {
    let mut cfg = NetworkConfig::paper_baseline()
        .with_topology(opts.topology)
        .with_flow_control(opts.flow_control)
        .with_channel_phits(opts.phits)
        .with_seed(opts.seed);
    if opts.valiant {
        cfg = cfg.with_routing(RoutingAlg::Valiant);
    }
    cfg
}

fn workload(opts: &Options) -> Result<Workload, String> {
    let cfg = network_config(opts);
    let topo = cfg.topology.build();
    let (n, k) = (topo.num_nodes(), topo.radix());
    Ok(
        Workload::new(n, k, parse_pattern(&opts.pattern, n)?).injection(
            InjectionProcess::Bernoulli {
                flit_rate: opts.load,
            },
        ),
    )
}

fn sim_config(opts: &Options) -> SimConfig {
    SimConfig {
        warmup_cycles: opts.cycles / 8,
        measure_cycles: opts.cycles,
        drain_cycles: 2 * opts.cycles,
        seed: opts.seed,
    }
}

fn cmd_info() {
    let cfg = NetworkConfig::paper_baseline();
    println!("ocin — Dally & Towles, \"Route Packets, Not Wires\" (DAC 2001) in Rust\n");
    println!("paper baseline:");
    println!("  topology        : 4x4 folded torus (rows cyclically 0,2,3,1), 3mm tiles");
    println!(
        "  flit            : 256 data bits + {} control bits",
        ocin::core::flit::FLIT_OVERHEAD_BITS
    );
    println!(
        "  virtual channels: {} x {}-flit buffers per input",
        cfg.vc_plan.num_vcs, cfg.buf_depth
    );
    println!("  buffer bits/edge: {}", cfg.buffer_bits_per_input());
    println!("  routes          : 2 bits/hop source routes (straight/left/right/extract)");
    println!("\nsee `cargo run -p ocin-bench --bin <experiment>` for the paper's tables,");
    println!("DESIGN.md for the module map, EXPERIMENTS.md for recorded results.");
}

fn cmd_run(opts: &Options) -> Result<(), String> {
    let sim = Simulation::new(network_config(opts), sim_config(opts))
        .map_err(|e| e.to_string())?
        .with_workload(&workload(opts)?);
    // Sharded execution is byte-identical to sequential (DESIGN.md
    // §3.15), so --shards only changes wall clock, never the report.
    let mut sharded = ShardedSimulation::new(sim, opts.shards);
    let report = sharded.run();
    println!(
        "{:?}  pattern={}  offered={}  flow_control={:?}{}",
        opts.topology,
        opts.pattern,
        opts.load,
        opts.flow_control,
        if opts.valiant {
            "  routing=valiant"
        } else {
            ""
        }
    );
    println!(
        "  accepted        : {:.4} flits/node/cycle",
        report.accepted_flit_rate
    );
    println!("  network latency : {}", report.network_latency);
    println!("  total latency   : {}", report.total_latency);
    println!(
        "  link utilization: avg {:.3}, max {:.3}",
        report.avg_link_utilization, report.max_link_utilization
    );
    if report.packets_dropped > 0 {
        println!("  packets dropped : {}", report.packets_dropped);
    }
    if report.deflections > 0 {
        println!("  deflections     : {}", report.deflections);
    }
    if opts.heatmap {
        println!("\nlink utilization heatmap:\n");
        print!("{}", ocin::sim::render_link_heatmap(sharded.network_mut()));
        println!(
            "hottest links: {}",
            ocin::sim::hottest_links(sharded.network_mut(), 5).join("  ")
        );
    }
    Ok(())
}

fn cmd_sweep(opts: &Options) -> Result<(), String> {
    let sweep = LoadSweep::new(network_config(opts), sim_config(opts), workload(opts)?);
    let mut t = Table::new(&["offered", "accepted", "mean latency", "p99 latency"]);
    for p in sweep.run(&opts.loads) {
        t.row(&[
            format!("{:.3}", p.offered),
            format!("{:.3}", p.accepted),
            format!("{:.1}", p.mean_latency),
            format!("{:.0}", p.p99_latency),
        ]);
    }
    print!("{t}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, opts) = match parse_args(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "info" => {
            cmd_info();
            Ok(())
        }
        "run" => cmd_run(&opts),
        "sweep" => cmd_sweep(&opts),
        other => Err(format!("unknown command '{other}' (info|run|sweep)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(std::string::ToString::to_string).collect()
    }

    #[test]
    fn parses_defaults_and_flags() {
        let (cmd, o) = parse_args(&args(&["run"])).unwrap();
        assert_eq!(cmd, "run");
        assert_eq!(o.topology, TopologySpec::FoldedTorus { k: 4 });
        let (_, o) = parse_args(&args(&[
            "sweep",
            "--topology",
            "mesh:8",
            "--pattern",
            "tornado",
            "--load",
            "0.3",
            "--flow-control",
            "deflect",
            "--valiant",
            "--phits",
            "2",
        ]))
        .unwrap();
        assert_eq!(o.topology, TopologySpec::Mesh { k: 8 });
        assert_eq!(o.pattern, "tornado");
        assert_eq!(o.load, 0.3);
        assert_eq!(o.flow_control, FlowControl::Deflection);
        assert!(o.valiant);
        assert_eq!(o.phits, 2);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["run", "--topology", "hypercube:4"])).is_err());
        assert!(parse_args(&args(&["run", "--load"])).is_err());
        assert!(parse_args(&args(&["run", "--bogus", "1"])).is_err());
        assert!(parse_args(&args(&["run", "--shards", "0"])).is_err());
        assert!(parse_args(&args(&["run", "--shards", "many"])).is_err());
        assert!(parse_pattern("nope", 16).is_err());
    }

    #[test]
    fn shards_flag_parses() {
        let (_, o) = parse_args(&args(&["run", "--shards", "4"])).unwrap();
        assert_eq!(o.shards, 4);
    }

    #[test]
    fn loads_list_parses() {
        let (_, o) = parse_args(&args(&["sweep", "--loads", "0.1,0.2,0.9"])).unwrap();
        assert_eq!(o.loads, vec![0.1, 0.2, 0.9]);
    }
}
