//! Arbitrary traffic matrices: per-(source, destination) flit rates.
//!
//! The synthetic patterns in [`crate::pattern`] stress a topology
//! uniformly; real systems-on-chip look nothing like that — a camera
//! talks to one encoder, four processors hammer two memory controllers,
//! everything else is quiet. [`TrafficMatrix`] expresses such shapes
//! directly as a rate matrix λ(s→d) in flits/cycle and drives the same
//! simulation machinery.

use ocin_core::ids::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workload::PacketRequest;
use ocin_core::flit::ServiceClass;

/// A matrix of offered rates, λ(src→dst) in flits per cycle.
#[derive(Debug, Clone)]
pub struct TrafficMatrix {
    nodes: usize,
    rates: Vec<f64>,
    payload_bits: usize,
    class: ServiceClass,
}

impl TrafficMatrix {
    /// Creates an all-zero matrix over `nodes` clients with single-flit
    /// bulk packets.
    pub fn new(nodes: usize) -> TrafficMatrix {
        TrafficMatrix {
            nodes,
            rates: vec![0.0; nodes * nodes],
            payload_bits: 256,
            class: ServiceClass::Bulk,
        }
    }

    /// Number of clients.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Sets the payload size of generated packets.
    pub fn payload_bits(mut self, bits: usize) -> Self {
        self.payload_bits = bits;
        self
    }

    /// Sets the service class of generated packets.
    pub fn class(mut self, class: ServiceClass) -> Self {
        self.class = class;
        self
    }

    /// Sets λ(src→dst) (flits/cycle).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, `src == dst`, or the rate
    /// is negative.
    pub fn set(&mut self, src: NodeId, dst: NodeId, rate: f64) -> &mut Self {
        assert!(src.index() < self.nodes && dst.index() < self.nodes);
        assert!(src != dst, "self-traffic never enters the network");
        assert!(rate >= 0.0, "rates are non-negative");
        self.rates[src.index() * self.nodes + dst.index()] = rate;
        self
    }

    /// Reads λ(src→dst).
    pub fn rate(&self, src: NodeId, dst: NodeId) -> f64 {
        self.rates[src.index() * self.nodes + dst.index()]
    }

    /// Total offered rate out of `src`, flits/cycle.
    pub fn row_rate(&self, src: NodeId) -> f64 {
        let base = src.index() * self.nodes;
        self.rates[base..base + self.nodes].iter().sum()
    }

    /// Total offered rate into `dst`, flits/cycle.
    pub fn column_rate(&self, dst: NodeId) -> f64 {
        (0..self.nodes)
            .map(|s| self.rates[s * self.nodes + dst.index()])
            .sum()
    }

    /// Network-wide offered load in flits/node/cycle.
    pub fn mean_load(&self) -> f64 {
        self.rates.iter().sum::<f64>() / self.nodes as f64
    }

    /// Scales every rate by `factor` (load sweeps over a fixed shape).
    pub fn scaled(&self, factor: f64) -> TrafficMatrix {
        let mut m = self.clone();
        for r in &mut m.rates {
            *r *= factor;
        }
        m
    }

    /// Checks that no source or destination is oversubscribed beyond
    /// `port_rate` flits/cycle (1.0 for the paper's full-width port).
    /// Returns the first violating node.
    pub fn admissible(&self, port_rate: f64) -> Result<(), NodeId> {
        for n in 0..self.nodes {
            let node = NodeId::new(n as u16);
            if self.row_rate(node) > port_rate || self.column_rate(node) > port_rate {
                return Err(node);
            }
        }
        Ok(())
    }

    /// Builds the per-cycle generator.
    pub fn generator(&self, seed: u64) -> MatrixGenerator {
        MatrixGenerator {
            rngs: (0..self.nodes)
                .map(|s| {
                    StdRng::seed_from_u64(seed ^ 0x7A31 ^ (s as u64).wrapping_mul(0x9E37_79B9))
                })
                .collect(),
            matrix: self.clone(),
        }
    }
}

/// Stateful Bernoulli sampler over a [`TrafficMatrix`].
///
/// Each source row draws from its own RNG stream, so the draws a given
/// source makes are independent of how (or whether) other sources are
/// queried. A clone driven over any subset of sources reproduces
/// exactly the original's draws for those sources — the property the
/// sharded runner needs to hand each worker its own generator.
#[derive(Debug, Clone)]
pub struct MatrixGenerator {
    matrix: TrafficMatrix,
    rngs: Vec<StdRng>,
}

impl MatrixGenerator {
    /// Network-wide offered load of the sampled matrix, flits/node/cycle.
    pub fn mean_load(&self) -> f64 {
        self.matrix.mean_load()
    }

    /// The packets `src` offers this cycle (each (src,dst) pair is an
    /// independent Bernoulli process at its matrix rate; flit rates are
    /// converted to packet rates by the payload size).
    pub fn requests_for(&mut self, src: NodeId) -> Vec<PacketRequest> {
        let flits_per_packet = self.matrix.payload_bits.div_ceil(256).max(1) as f64;
        let mut out = Vec::new();
        let rng = &mut self.rngs[src.index()];
        for d in 0..self.matrix.nodes {
            let dst = NodeId::new(d as u16);
            if dst == src {
                continue;
            }
            let p = (self.matrix.rate(src, dst) / flits_per_packet).clamp(0.0, 1.0);
            if p > 0.0 && rng.gen_bool(p) {
                out.push(PacketRequest {
                    dst,
                    payload_bits: self.matrix.payload_bits,
                    class: self.matrix.class,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(i: u16) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn rates_and_aggregates() {
        let mut m = TrafficMatrix::new(4);
        m.set(node(0), node(1), 0.25).set(node(0), node(2), 0.25);
        m.set(node(3), node(1), 0.5);
        assert_eq!(m.rate(node(0), node(1)), 0.25);
        assert!((m.row_rate(node(0)) - 0.5).abs() < 1e-12);
        assert!((m.column_rate(node(1)) - 0.75).abs() < 1e-12);
        assert!((m.mean_load() - 1.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn admissibility() {
        let mut m = TrafficMatrix::new(4);
        m.set(node(0), node(1), 0.6).set(node(2), node(1), 0.6);
        // Destination 1 is oversubscribed.
        assert_eq!(m.admissible(1.0), Err(node(1)));
        assert!(m.scaled(0.5).admissible(1.0).is_ok());
    }

    #[test]
    fn generator_hits_matrix_rates() {
        let mut m = TrafficMatrix::new(4);
        m.set(node(0), node(3), 0.2);
        let mut generation = m.generator(9);
        let mut count = 0usize;
        for _ in 0..50_000 {
            for req in generation.requests_for(node(0)) {
                assert_eq!(req.dst, node(3));
                count += 1;
            }
            assert!(generation.requests_for(node(1)).is_empty());
        }
        let rate = count as f64 / 50_000.0;
        assert!((rate - 0.2).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn multi_flit_rates_account_for_length() {
        let mut m = TrafficMatrix::new(2);
        m.set(node(0), node(1), 0.4);
        let m = m.payload_bits(1024); // 4 flits
        let mut generation = m.generator(4);
        let mut packets = 0usize;
        for _ in 0..50_000 {
            packets += generation.requests_for(node(0)).len();
        }
        let rate = packets as f64 / 50_000.0;
        assert!((rate - 0.1).abs() < 0.01, "packet rate {rate}");
    }

    #[test]
    #[should_panic(expected = "self-traffic")]
    fn self_rates_rejected() {
        TrafficMatrix::new(4).set(node(1), node(1), 0.1);
    }

    #[test]
    fn scaling_preserves_shape() {
        let mut m = TrafficMatrix::new(3);
        m.set(node(0), node(1), 0.3).set(node(1), node(2), 0.6);
        let half = m.scaled(0.5);
        assert!((half.rate(node(0), node(1)) - 0.15).abs() < 1e-12);
        assert!((half.rate(node(1), node(2)) - 0.3).abs() < 1e-12);
        assert_eq!(half.rate(node(2), node(0)), 0.0);
    }
}
