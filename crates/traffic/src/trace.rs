//! Traffic trace record and replay.
//!
//! Traces decouple workload generation from simulation: an experiment can
//! record the exact packet stream one configuration saw and replay it
//! against another (e.g. the same offered traffic against mesh and torus,
//! or against different flow-control methods).

use ocin_core::flit::ServiceClass;
use ocin_core::ids::{Cycle, NodeId};

/// One offered packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Offer cycle.
    pub cycle: Cycle,
    /// Source tile index.
    pub src: u16,
    /// Destination tile index.
    pub dst: u16,
    /// Payload bits.
    pub payload_bits: usize,
    /// Service class priority (0 = bulk, 1 = priority, 2 = reserved).
    pub class: u8,
}

impl TraceEvent {
    /// Creates an event.
    pub fn new(
        cycle: Cycle,
        src: NodeId,
        dst: NodeId,
        payload_bits: usize,
        class: ServiceClass,
    ) -> Self {
        TraceEvent {
            cycle,
            src: src.into(),
            dst: dst.into(),
            payload_bits,
            class: class.priority(),
        }
    }

    /// The service class this event was recorded with.
    pub fn service_class(&self) -> ServiceClass {
        match self.class {
            0 => ServiceClass::Bulk,
            1 => ServiceClass::Priority,
            _ => ServiceClass::Reserved,
        }
    }
}

/// An ordered sequence of offered packets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Appends an event (events must be recorded in cycle order).
    ///
    /// # Panics
    ///
    /// Panics if `event.cycle` precedes the last recorded cycle.
    pub fn record(&mut self, event: TraceEvent) {
        if let Some(last) = self.events.last() {
            assert!(event.cycle >= last.cycle, "trace must be in cycle order");
        }
        self.events.push(event);
    }

    /// All events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events offered at exactly `cycle` (for replay drivers).
    pub fn at_cycle(&self, cycle: Cycle) -> impl Iterator<Item = &TraceEvent> {
        let start = self.events.partition_point(|e| e.cycle < cycle);
        self.events[start..]
            .iter()
            .take_while(move |e| e.cycle == cycle)
    }

    /// The last cycle with an event, if any.
    pub fn last_cycle(&self) -> Option<Cycle> {
        self.events.last().map(|e| e.cycle)
    }

    /// Serializes the trace to its text form: one
    /// `cycle src dst payload_bits class` line per event, preceded by a
    /// version header. Stable across releases; parse with
    /// [`Trace::from_text`].
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(16 + self.events.len() * 24);
        out.push_str("ocin-trace v1\n");
        for e in &self.events {
            out.push_str(&format!(
                "{} {} {} {} {}\n",
                e.cycle, e.src, e.dst, e.payload_bits, e.class
            ));
        }
        out
    }

    /// Parses the text form produced by [`Trace::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line (wrong header,
    /// wrong field count, unparsable number, or out-of-order cycle).
    pub fn from_text(text: &str) -> Result<Trace, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("ocin-trace v1") => {}
            other => return Err(format!("bad trace header: {other:?}")),
        }
        let mut trace = Trace::new();
        for (i, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split_ascii_whitespace();
            let mut next = |what: &str| {
                fields
                    .next()
                    .ok_or_else(|| format!("line {}: missing {what}", i + 2))
            };
            let event = TraceEvent {
                cycle: parse(next("cycle")?, i)?,
                src: parse(next("src")?, i)?,
                dst: parse(next("dst")?, i)?,
                payload_bits: parse(next("payload_bits")?, i)?,
                class: parse(next("class")?, i)?,
            };
            if let Some(extra) = fields.next() {
                return Err(format!("line {}: trailing field {extra:?}", i + 2));
            }
            if let Some(last) = trace.events.last() {
                if event.cycle < last.cycle {
                    return Err(format!("line {}: cycle out of order", i + 2));
                }
            }
            trace.events.push(event);
        }
        Ok(trace)
    }
}

fn parse<T: std::str::FromStr>(s: &str, line: usize) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("line {}: bad field {s:?}", line + 2))
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Trace {
        let mut t = Trace::new();
        for e in iter {
            t.record(e);
        }
        t
    }
}

impl Extend<TraceEvent> for Trace {
    fn extend<I: IntoIterator<Item = TraceEvent>>(&mut self, iter: I) {
        for e in iter {
            self.record(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: Cycle, src: u16, dst: u16) -> TraceEvent {
        TraceEvent::new(cycle, src.into(), dst.into(), 256, ServiceClass::Bulk)
    }

    #[test]
    fn record_and_query() {
        let t: Trace = [ev(0, 0, 1), ev(0, 2, 3), ev(5, 1, 0)]
            .into_iter()
            .collect();
        assert_eq!(t.len(), 3);
        assert_eq!(t.at_cycle(0).count(), 2);
        assert_eq!(t.at_cycle(3).count(), 0);
        assert_eq!(t.at_cycle(5).count(), 1);
        assert_eq!(t.last_cycle(), Some(5));
    }

    #[test]
    #[should_panic(expected = "cycle order")]
    fn out_of_order_panics() {
        let mut t = Trace::new();
        t.record(ev(5, 0, 1));
        t.record(ev(4, 0, 1));
    }

    #[test]
    fn class_roundtrip() {
        for c in [
            ServiceClass::Bulk,
            ServiceClass::Priority,
            ServiceClass::Reserved,
        ] {
            let e = TraceEvent::new(0, 0.into(), 1.into(), 64, c);
            assert_eq!(e.service_class(), c);
        }
    }

    #[test]
    fn text_form_round_trips() {
        let t: Trace = [ev(0, 0, 1), ev(0, 2, 3), ev(5, 1, 0)]
            .into_iter()
            .collect();
        let text = t.to_text();
        assert!(text.starts_with("ocin-trace v1\n"));
        assert_eq!(Trace::from_text(&text), Ok(t));
        assert_eq!(Trace::from_text("ocin-trace v1\n"), Ok(Trace::new()));
    }

    #[test]
    fn malformed_text_is_rejected() {
        assert!(Trace::from_text("").is_err());
        assert!(Trace::from_text("not a trace\n").is_err());
        assert!(Trace::from_text("ocin-trace v1\n1 2 3\n").is_err());
        assert!(Trace::from_text("ocin-trace v1\n1 2 3 x 0\n").is_err());
        // Out-of-order cycles are rejected at parse time, matching
        // `record`'s invariant.
        assert!(Trace::from_text("ocin-trace v1\n5 0 1 256 0\n4 0 1 256 0\n").is_err());
    }

    #[test]
    fn trailing_field_is_rejected() {
        let err = Trace::from_text("ocin-trace v1\n5 0 1 256 0 extra\n").unwrap_err();
        assert!(err.contains("line 2: trailing field \"extra\""), "{err}");
        assert!(Trace::from_text("ocin-trace v1\n5 0 1 256 0 7\n").is_err());
        // Surrounding whitespace is not a field.
        assert!(Trace::from_text("ocin-trace v1\n5 0 1 256 0   \n").is_ok());
    }
}
