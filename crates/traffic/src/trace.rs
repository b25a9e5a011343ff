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
    /// wrong field count, unparsable number, class above 2, or
    /// out-of-order cycle).
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
            if event.class > 2 {
                return Err(format!(
                    "line {}: class {} is not 0, 1 or 2",
                    i + 2,
                    event.class
                ));
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
    use proptest::collection::vec;
    use proptest::prelude::*;

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

    #[test]
    fn unknown_class_is_rejected() {
        assert!(Trace::from_text("ocin-trace v1\n5 0 1 256 2\n").is_ok());
        let err = Trace::from_text("ocin-trace v1\n5 0 1 256 7\n").unwrap_err();
        assert!(err.contains("line 2: class 7"), "{err}");
    }

    /// Parsing `text` either fails or gives a trace that survives a
    /// round trip through its text form.
    fn rejects_or_round_trips(text: &str) {
        if let Ok(trace) = Trace::from_text(text) {
            assert_eq!(Trace::from_text(&trace.to_text()), Ok(trace), "{text:?}");
        }
    }

    /// A well-formed trace text of `events` lines, each drawn as (cycle
    /// step, src, dst, payload bits, class).
    fn trace_text(events: &[(u64, u16, u16, usize, u8)]) -> String {
        let mut text = String::from("ocin-trace v1\n");
        let mut cycle = 0;
        for &(step, src, dst, bits, class) in events {
            cycle += step;
            text.push_str(&format!("{cycle} {src} {dst} {bits} {class}\n"));
        }
        text
    }

    /// Replacement fields a mutation may splice in: empty, non-numeric,
    /// signed, overflowing, just out of range, hexadecimal, exponent
    /// and non-ASCII.
    const JUNK_FIELDS: [&str; 12] = [
        "",
        "x",
        "-1",
        "+5",
        "18446744073709551616",
        "65536",
        "256",
        "3",
        "7",
        "0x10",
        "1e3",
        "\u{663}",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, with or without a valid header, never panic
        /// the parser.
        #[test]
        fn trace_text_survives_random_bytes(
            bytes in vec(any::<u8>(), 0..160),
            alphabet in vec(0usize..16, 0..160),
            headed in any::<bool>(),
        ) {
            rejects_or_round_trips(&String::from_utf8_lossy(&bytes));
            // Bytes drawn from the format's own alphabet reach past the
            // header and field checks far more often than uniform bytes.
            let body: String = alphabet
                .iter()
                .map(|&i| "0123456789 \n\t-+x".chars().nth(i).unwrap_or(' '))
                .collect();
            let header = if headed { "ocin-trace v1\n" } else { "" };
            rejects_or_round_trips(&format!("{header}{body}"));
        }

        /// A valid trace with one field or line mutated either parses
        /// to a trace that round-trips or is rejected; it never panics.
        #[test]
        fn mutated_trace_text_rejects_or_round_trips(
            events in vec((0u64..1_000, any::<u16>(), any::<u16>(), 0usize..4_096, 0u8..3), 1..8),
            (line, field, how) in (any::<usize>(), 0usize..6, 0usize..7),
            (junk, number) in (0usize..JUNK_FIELDS.len() + 1, any::<u64>()),
            noise in vec(any::<u8>(), 1..12),
        ) {
            let text = trace_text(&events);
            rejects_or_round_trips(&text);
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            let i = line % lines.len();
            let token = JUNK_FIELDS.get(junk).map_or(number.to_string(), ToString::to_string);
            let mut fields: Vec<String> = lines[i].split(' ').map(str::to_string).collect();
            let f = field % fields.len();
            match how {
                0 => fields[f] = token,
                1 => {
                    fields.remove(f);
                }
                2 => fields.push(token),
                3 => fields = vec![String::from_utf8_lossy(&noise).into_owned()],
                4 => fields.insert(f, token),
                5 => fields.clear(),
                _ => fields[f].push_str(&String::from_utf8_lossy(&noise)),
            }
            lines[i] = fields.join(" ");
            rejects_or_round_trips(&(lines.join("\n") + "\n"));
        }
    }
}
