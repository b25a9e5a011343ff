//! Workload = pattern × injection process × length distribution × class.

use ocin_core::flit::ServiceClass;
use ocin_core::ids::{Cycle, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::injection::{InjectionProcess, InjectionState};
use crate::length::LengthDist;
use crate::pattern::TrafficPattern;
use crate::trace::{Trace, TraceEvent};

/// A packet the workload asks the network to carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketRequest {
    /// Destination tile.
    pub dst: NodeId,
    /// Payload bits.
    pub payload_bits: usize,
    /// Service class.
    pub class: ServiceClass,
}

/// A complete dynamic-traffic description.
#[derive(Debug, Clone)]
pub struct Workload {
    num_nodes: usize,
    radix: usize,
    pattern: TrafficPattern,
    process: InjectionProcess,
    length: LengthDist,
    class: ServiceClass,
}

impl Workload {
    /// Creates a workload with Bernoulli(0.1 flits/cycle), single-flit
    /// packets, and bulk class; adjust with the builder methods.
    pub fn new(num_nodes: usize, radix: usize, pattern: TrafficPattern) -> Workload {
        Workload {
            num_nodes,
            radix,
            pattern,
            process: InjectionProcess::Bernoulli { flit_rate: 0.1 },
            length: LengthDist::Fixed { flits: 1 },
            class: ServiceClass::Bulk,
        }
    }

    /// A workload sized to `spec`: node count and radix are derived
    /// from the topology instead of being duplicated by hand (the
    /// classic way a sweep silently stays on 16 nodes when the
    /// topology grows to 256).
    pub fn for_topology(spec: &ocin_core::TopologySpec, pattern: TrafficPattern) -> Workload {
        Workload::new(spec.num_nodes(), spec.radix(), pattern)
    }

    /// Sets the injection process.
    pub fn injection(mut self, p: InjectionProcess) -> Self {
        self.process = p;
        self
    }

    /// Sets the length distribution.
    pub fn length(mut self, l: LengthDist) -> Self {
        self.length = l;
        self
    }

    /// Sets the service class.
    pub fn class(mut self, c: ServiceClass) -> Self {
        self.class = c;
        self
    }

    /// The traffic pattern.
    pub fn pattern(&self) -> &TrafficPattern {
        &self.pattern
    }

    /// Mean offered load in flits/node/cycle.
    pub fn offered_flit_rate(&self) -> f64 {
        self.process.mean_flit_rate(self.length.mean_flits())
    }

    /// Builds the deterministic per-node generator.
    pub fn generator(&self, seed: u64) -> WorkloadGenerator {
        WorkloadGenerator {
            workload: self.clone(),
            states: (0..self.num_nodes).map(|_| self.process.state()).collect(),
            rngs: (0..self.num_nodes)
                .map(|i| StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9)))
                .collect(),
        }
    }
}

/// The stateful side of a [`Workload`]: per-node RNGs and burst state.
///
/// `Clone` is part of the determinism contract: all per-node state (RNG
/// stream, burst state) is independent across nodes, so a clone driven
/// over any subset of nodes produces exactly the draws the original
/// would have produced for those nodes. The sharded runner relies on
/// this to give each worker its own generator.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    workload: Workload,
    states: Vec<InjectionState>,
    rngs: Vec<StdRng>,
}

impl WorkloadGenerator {
    /// Mean offered load of the generating workload, flits/node/cycle.
    pub fn offered_flit_rate(&self) -> f64 {
        self.workload.offered_flit_rate()
    }

    /// The packet `node` offers at `cycle`, if any.
    ///
    /// Call exactly once per (cycle, node) to keep the process rates
    /// honest.
    pub fn next_request(&mut self, cycle: Cycle, node: NodeId) -> Option<PacketRequest> {
        let w = &self.workload;
        let i = node.index();
        let mean = w.length.mean_flits();
        let rng = &mut self.rngs[i];
        if !w.process.offers(&mut self.states[i], cycle, mean, rng) {
            return None;
        }
        let dst = w.pattern.destination(node, w.radix, w.num_nodes, rng)?;
        Some(PacketRequest {
            dst,
            payload_bits: w.length.sample_bits(rng),
            class: w.class,
        })
    }

    /// Records `cycles` cycles of this workload into a replayable trace.
    pub fn record_trace(&mut self, cycles: u64) -> Trace {
        let mut trace = Trace::new();
        for c in 0..cycles {
            for n in 0..self.workload.num_nodes {
                let node = NodeId::new(n as u16);
                if let Some(req) = self.next_request(c, node) {
                    trace.record(TraceEvent::new(
                        c,
                        node,
                        req.dst,
                        req.payload_bits,
                        req.class,
                    ));
                }
            }
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offered_rate_is_close_to_requested() {
        let wl = Workload::new(16, 4, TrafficPattern::Uniform)
            .injection(InjectionProcess::Bernoulli { flit_rate: 0.2 })
            .length(LengthDist::Fixed { flits: 2 });
        let mut gen = wl.generator(11);
        let cycles = 20_000u64;
        let mut flits = 0usize;
        for c in 0..cycles {
            for n in 0..16u16 {
                if let Some(req) = gen.next_request(c, n.into()) {
                    flits += req.payload_bits / 256;
                }
            }
        }
        let rate = flits as f64 / (cycles as f64 * 16.0);
        assert!((rate - 0.2).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn generator_is_deterministic() {
        let wl = Workload::new(16, 4, TrafficPattern::Uniform);
        let run = || {
            let mut gen = wl.generator(99);
            let mut v = Vec::new();
            for c in 0..500 {
                for n in 0..16u16 {
                    if let Some(r) = gen.next_request(c, n.into()) {
                        v.push((c, n, r.dst));
                    }
                }
            }
            v
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn trace_replays_the_same_requests() {
        let wl =
            Workload::new(16, 4, TrafficPattern::Transpose).injection(InjectionProcess::Periodic {
                period: 7,
                phase: 0,
            });
        let trace = wl.generator(5).record_trace(100);
        assert!(!trace.is_empty());
        // Transpose from node 1 always goes to node 4 on a 4x4.
        for e in trace.events().iter().filter(|e| e.src == 1) {
            assert_eq!(e.dst, 4);
        }
        // Periodic: events only on multiples of 7.
        assert!(trace.events().iter().all(|e| e.cycle % 7 == 0));
    }

    #[test]
    fn class_is_propagated() {
        let wl = Workload::new(16, 4, TrafficPattern::Neighbor)
            .injection(InjectionProcess::Periodic {
                period: 1,
                phase: 0,
            })
            .class(ServiceClass::Priority);
        let mut gen = wl.generator(0);
        let req = gen.next_request(0, 0.into()).unwrap();
        assert_eq!(req.class, ServiceClass::Priority);
    }
}
