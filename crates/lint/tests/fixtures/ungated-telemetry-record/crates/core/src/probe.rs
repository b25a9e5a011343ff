//! The Probe seam is the sanctioned feeding path: the collector types
//! named here are exempt by path.

pub struct NetworkProbe {
    pub journeys: Option<Box<JourneyCollector>>,
    pub telemetry: Option<Box<TelemetryCollector>>,
}

pub fn record(&mut self, now: u64, event: Event) {
    if let Some(t) = self.telemetry.as_mut() {
        t.record(now, &event);
    }
}
