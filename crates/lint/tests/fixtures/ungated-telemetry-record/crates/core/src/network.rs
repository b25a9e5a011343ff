//! Fixture: `ungated-telemetry-record` — engine code naming a journey
//! or telemetry collector fires; suppressed sites, quoted names, and
//! test modules do not.

pub fn bad_step(probe: &mut NetworkProbe, now: u64, event: &Event) {
    let t: &mut TelemetryCollector = probe.telemetry.as_mut().unwrap(); // FINDING: line 6
    let j: &mut JourneyCollector = probe.journeys.as_mut().unwrap(); // FINDING: line 7
    t.record(now, event);
    j.record(now, event);
}

pub fn suppressed(probe: &mut NetworkProbe) {
    // ocin-lint: allow(ungated-telemetry-record) — fixture: presence-gated by the caller
    probe.telemetry = Some(Box::new(TelemetryCollector::new(16, 1)));
}

/// Type names quoted in docs or strings never fire.
pub fn quoted() -> &'static str {
    "TelemetryCollector and JourneyCollector"
}

#[cfg(test)]
mod tests {
    #[test]
    fn direct_use_in_tests_is_fine() {
        let mut t = TelemetryCollector::new(16, 1);
        t.record(0, &Event::Misroute { node: 0.into(), packet: PacketId(1) });
    }
}
