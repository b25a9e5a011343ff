//! # ocin-sim — simulation harness and measurement
//!
//! Drives `ocin_core::Network` with `ocin-traffic` workloads and
//! `ocin-services` clients, collecting the statistics the paper's
//! experiments report: latency distributions, accepted throughput,
//! saturation points, jitter of pre-scheduled flows, link utilization
//! (duty factor), and energy counters.
//!
//! ```
//! use ocin_core::NetworkConfig;
//! use ocin_sim::{Simulation, SimConfig};
//! use ocin_traffic::{Workload, TrafficPattern, InjectionProcess};
//!
//! # fn main() -> Result<(), ocin_core::Error> {
//! let wl = Workload::new(16, 4, TrafficPattern::Uniform)
//!     .injection(InjectionProcess::Bernoulli { flit_rate: 0.1 });
//! let mut sim = Simulation::new(
//!     NetworkConfig::paper_baseline(),
//!     SimConfig::quick(),
//! )?
//! .with_workload(&wl);
//! let report = sim.run();
//! assert!(report.packets_delivered > 0);
//! assert!(report.network_latency.mean > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod clients;
pub mod exec;
pub mod heatmap;
pub mod multichip;
pub mod pool;
pub mod runner;
pub mod shard;
pub mod stats;
pub mod sweep;
pub mod table;

pub use clients::{Client, ClientCtx, ServiceSim};
pub use exec::{max_useful_shards, ExecDecision};
pub use heatmap::{hottest_links, render_link_heatmap, render_metrics_heatmap};
pub use multichip::{GlobalDelivery, MultiChipSim};
pub use pool::{derive_seed, PointSpec, SimPool};
pub use runner::{SimConfig, SimReport, Simulation};
pub use shard::ShardedSimulation;
pub use stats::{LatencyReport, Samples};
pub use sweep::{LoadPoint, LoadSweep};
pub use table::Table;
