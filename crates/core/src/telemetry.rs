//! Time-resolved telemetry: windowed time series, exact log-linear
//! quantile histograms, and transient detection over a finished run.
//!
//! Whole-run aggregates ([`crate::probe::NetworkMetrics`]) are blind to
//! exactly the phenomena the paper's argument rests on — congestion
//! forming and draining on shared channels over *time*. This module
//! adds the time axis without touching the simulator: a
//! [`TelemetryCollector`] rides inside [`crate::NetworkProbe`] and is
//! fed purely from the [`crate::Probe`] event stream, so
//!
//! * unprobed runs pay nothing ([`crate::NoProbe`] records nothing),
//! * probed runs stay bit-identical to unprobed runs (probes observe,
//!   never decide), and
//! * sharded runs produce byte-identical telemetry for free: the
//!   [`crate::shard::replay_logs`] merge feeds this collector the same
//!   non-decreasing event stream a sequential run would.
//!
//! Three layers:
//!
//! 1. **Windowed series** — every probe event lands in the window
//!    `now / width` (default width [`DEFAULT_WINDOW`] cycles). Rollover
//!    is *lazy*: a window is closed the first time an event arrives
//!    with a later timestamp, and skipped windows are zero-filled, so a
//!    quiescent network generates no per-window work and the
//!    activity-gated engine never wakes an entity for telemetry.
//! 2. **Quantile histograms** — a sparse HDR-style log-linear
//!    [`QuantileHistogram`] per service class records every delivered
//!    packet's latency. There is no sampling, and for cycle-valued
//!    latencies below the precision horizon the recorded value *is* the
//!    bucket, so p50/p99/p99.9/p99.99 are exact — see
//!    [`QuantileHistogram::is_exact`]. The same type is the workspace's
//!    one latency histogram: the probe's per-(src, dst) table
//!    ([`crate::NetworkProbe::pair_latency`]) and the simulator's
//!    measurement use it too.
//! 3. **Transient detectors** — pure post-passes over the frozen
//!    series: saturation onset ([`TelemetryReport::saturation_onset`]),
//!    post-disturbance recovery ([`TelemetryReport::recovery_cycle`]),
//!    and sustained per-link congestion spans (collected online, one
//!    run-length counter per link).
//!
//! The frozen [`TelemetryReport`] ships three deterministic exporters:
//! the versioned `ocin-series v1` text form ([`TelemetryReport::to_text`]),
//! deterministic JSON ([`TelemetryReport::to_json`]), and Perfetto
//! counter tracks ([`TelemetryReport::to_perfetto_json`]) that load
//! alongside the journey-span traces from [`crate::journey`]. The SLO
//! quantile grid renders with [`TelemetryReport::slo_table`].

use std::collections::BTreeMap;

use crate::ids::{Cycle, Port};
use crate::probe::Event;

/// Default telemetry window width, in cycles.
pub const DEFAULT_WINDOW: Cycle = 1024;

/// Number of service classes tracked (indexed by
/// [`crate::flit::ServiceClass::priority`]).
pub const NUM_CLASSES: usize = 3;

/// Sub-bucket precision bits of the per-class quantile histograms:
/// exact for every latency below `2^(CLASS_PRECISION_BITS + 1)` cycles
/// (128 Ki-cycles — far beyond any sane packet latency).
pub const CLASS_PRECISION_BITS: u32 = 16;

/// Sub-bucket precision bits of the per-(src, dst) histograms in
/// [`crate::NetworkProbe::pair_latency`] — coarser, because a k = 16
/// torus has 65 280 pairs. Exact below 256 cycles; relative
/// quantization below `2^-7` (0.8 %) above.
pub const PAIR_PRECISION_BITS: u32 = 7;

/// A window counts as congested for a link when the link carried at
/// least 9/10 of its flit capacity (one flit per cycle) that window.
pub const CONGESTION_NUMER: u64 = 9;
/// Denominator of the congestion-utilization threshold.
pub const CONGESTION_DENOM: u64 = 10;

/// A congested run must span at least this many consecutive windows to
/// be recorded as "sustained".
pub const MIN_SPAN_WINDOWS: u64 = 2;

/// Human-readable name of class index `i` (the
/// [`crate::flit::ServiceClass::priority`] value).
pub fn class_name(i: usize) -> &'static str {
    ["bulk", "priority", "reserved"][i]
}

/// A sparse HDR-style log-linear histogram with exact count/sum/min/max
/// and deterministic quantiles.
///
/// Values are quantized to log-linear buckets: with `p` precision bits,
/// every value below `2^(p+1)` is its own bucket (zero quantization),
/// and a larger value with `b` significant bits is floored to a
/// multiple of `2^(b-p-1)` (relative quantization below `2^-p`).
/// Storage is a `BTreeMap` keyed by bucket lower bound, so memory is
/// proportional to *distinct quantized values*, iteration order is the
/// value order, and two histograms fed the same multiset of samples in
/// any order are equal — the property that makes sharded telemetry
/// byte-identical to sequential.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileHistogram {
    precision: u32,
    /// Samples recorded.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    buckets: BTreeMap<u64, u64>,
}

impl QuantileHistogram {
    /// An empty histogram with `precision_bits` sub-bucket bits.
    pub fn new(precision_bits: u32) -> QuantileHistogram {
        QuantileHistogram {
            precision: precision_bits,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: BTreeMap::new(),
        }
    }

    /// The precision this histogram was built with.
    pub fn precision_bits(&self) -> u32 {
        self.precision
    }

    /// Lower bound of the bucket holding `value` (the value a quantile
    /// reports). Identity for every value below `2^(precision + 1)`.
    pub fn bucket_floor(&self, value: u64) -> u64 {
        let exact_limit = 2u64 << self.precision;
        if value < exact_limit {
            return value;
        }
        let bits = u64::BITS - value.leading_zeros();
        let shift = bits - self.precision - 1;
        (value >> shift) << shift
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        *self.buckets.entry(self.bucket_floor(value)).or_insert(0) += 1;
    }

    /// Merges another histogram of the same precision into this one.
    ///
    /// # Panics
    ///
    /// Panics if the precisions differ (their buckets don't align).
    pub fn merge(&mut self, other: &QuantileHistogram) {
        assert_eq!(
            self.precision, other.precision,
            "merging histograms of different precision"
        );
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (&k, &c) in &other.buckets {
            *self.buckets.entry(k).or_insert(0) += c;
        }
    }

    /// Exact arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Whether every recorded sample fell in the exact region, making
    /// every quantile of this histogram exact (no quantization at all).
    pub fn is_exact(&self) -> bool {
        self.count == 0 || self.max < (2u64 << self.precision)
    }

    /// The nearest-rank `p`-th percentile: the bucket lower bound of
    /// the sample at rank `ceil(p/100 · count)` (0 when empty). Exact
    /// whenever [`QuantileHistogram::is_exact`] holds.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=100.0`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (&k, &c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return k.max(self.min);
            }
        }
        self.max
    }
}

/// One telemetry window's counters. Every field is a plain sum over the
/// window, so summing any field across all windows reproduces the
/// whole-run probe total exactly — the reconciliation invariant
/// `tests/telemetry.rs` property-tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowRow {
    /// Window index; the window spans cycles
    /// `[index · width, (index + 1) · width)`.
    pub index: u64,
    /// Packets accepted at source tile ports this window.
    pub packets_injected: u64,
    /// Packet tails delivered this window.
    pub packets_delivered: u64,
    /// Flits of delivered packets (each packet's full flit count,
    /// attributed to its delivery window).
    pub flits_delivered: u64,
    /// Flits launched through router output ports this window.
    pub flits_forwarded: u64,
    /// Packets dropped this window (dropping flow control).
    pub packets_dropped: u64,
    /// Deflections this window (deflection flow control).
    pub misroutes: u64,
    /// VC requests denied for lack of a free output VC.
    pub alloc_conflicts: u64,
    /// Switch traversals blocked on downstream credits.
    pub credit_stalls: u64,
    /// Link grants that bypassed a staged lower-class flit.
    pub preemptions: u64,
    /// Sum over the window's cycles and all routers of buffered flits.
    pub occupancy_integral: u64,
    /// Per-class sum of delivered packets' network latencies.
    pub latency_sum: [u64; NUM_CLASSES],
    /// Per-class count of delivered packets.
    pub latency_count: [u64; NUM_CLASSES],
}

impl WindowRow {
    /// Mean delivered latency over all classes this window (0 when no
    /// packet was delivered).
    pub fn mean_latency(&self) -> f64 {
        let count: u64 = self.latency_count.iter().sum();
        if count == 0 {
            0.0
        } else {
            self.latency_sum.iter().sum::<u64>() as f64 / count as f64
        }
    }
}

/// A maximal run of consecutive windows during which one link stayed at
/// or above the congestion-utilization threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpan {
    /// Router the congested link leaves.
    pub node: u16,
    /// Output port index ([`Port::index`]).
    pub port: u8,
    /// First congested window index.
    pub start_window: u64,
    /// Last congested window index (inclusive).
    pub end_window: u64,
    /// Flits the link carried across the span.
    pub flits: u64,
}

/// Sentinel for "no congested run open on this link".
const NO_RUN: u64 = u64::MAX;

/// The live collector: rides inside [`crate::NetworkProbe`] and is fed
/// the event stream it records (never directly from network or router
/// code — that is what keeps telemetry behind the probe-presence gate,
/// and what `ocin-lint`'s `ungated-telemetry-record` rule enforces).
///
/// Events must arrive with non-decreasing `now` — true of sequential
/// stepping and of [`crate::shard::replay_logs`] replay by
/// construction. Window rollover is lazy: the collector does nothing at
/// window boundaries themselves, it closes windows only when a later
/// event (or [`TelemetryCollector::freeze`]) proves them complete.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryCollector {
    width: Cycle,
    num_nodes: usize,
    cur_index: u64,
    cur: WindowRow,
    windows: Vec<WindowRow>,
    class_latency: [QuantileHistogram; NUM_CLASSES],
    /// Flits carried this window per link, indexed
    /// `node · Port::COUNT + port`.
    link_window: Vec<u32>,
    /// Start window of the open congested run per link ([`NO_RUN`] when
    /// none).
    link_run_start: Vec<u64>,
    /// Flits accumulated by the open run per link.
    link_run_flits: Vec<u64>,
    spans: Vec<LinkSpan>,
}

impl TelemetryCollector {
    /// A collector with windows of `width` cycles (0 is promoted to 1)
    /// over a network of `num_nodes` routers.
    pub fn new(width: Cycle, num_nodes: usize) -> TelemetryCollector {
        let links = num_nodes * Port::COUNT;
        TelemetryCollector {
            width: width.max(1),
            num_nodes,
            cur_index: 0,
            cur: WindowRow::default(),
            windows: Vec::new(),
            class_latency: std::array::from_fn(|_| QuantileHistogram::new(CLASS_PRECISION_BITS)),
            link_window: vec![0; links],
            link_run_start: vec![NO_RUN; links],
            link_run_flits: vec![0; links],
            spans: Vec::new(),
        }
    }

    /// The configured window width, cycles.
    pub fn window_width(&self) -> Cycle {
        self.width
    }

    /// Closes the current window: resolves each link's congestion run,
    /// pushes the row, and opens the next window.
    fn flush_window(&mut self) {
        for l in 0..self.link_window.len() {
            let flits = u64::from(self.link_window[l]);
            self.link_window[l] = 0;
            // Integer-exact utilization test: flits/width ≥ 9/10.
            if flits * CONGESTION_DENOM >= self.width * CONGESTION_NUMER {
                if self.link_run_start[l] == NO_RUN {
                    self.link_run_start[l] = self.cur_index;
                    self.link_run_flits[l] = 0;
                }
                self.link_run_flits[l] += flits;
            } else {
                self.close_run(l, self.cur_index);
            }
        }
        self.windows.push(self.cur);
        self.cur_index += 1;
        self.cur = WindowRow {
            index: self.cur_index,
            ..WindowRow::default()
        };
    }

    /// Closes link `l`'s open run, if any, ending before window
    /// `closing_at`.
    fn close_run(&mut self, l: usize, closing_at: u64) {
        let start = self.link_run_start[l];
        if start == NO_RUN {
            return;
        }
        let end = closing_at - 1;
        if end - start + 1 >= MIN_SPAN_WINDOWS {
            self.spans.push(LinkSpan {
                node: (l / Port::COUNT) as u16,
                port: (l % Port::COUNT) as u8,
                start_window: start,
                end_window: end,
                flits: self.link_run_flits[l],
            });
        }
        self.link_run_start[l] = NO_RUN;
        self.link_run_flits[l] = 0;
    }

    /// Lazily rolls the current window forward so that it contains
    /// `now`, zero-filling any skipped windows.
    fn roll_to(&mut self, now: Cycle) {
        let idx = now / self.width;
        while self.cur_index < idx {
            self.flush_window();
        }
    }

    /// The current window after rolling it forward to contain `now`.
    fn window(&mut self, now: Cycle) -> &mut WindowRow {
        self.roll_to(now);
        &mut self.cur
    }

    /// Consumes one event of the probe stream. Only the events the
    /// series counts roll the window forward; the rest are ignored.
    pub fn record(&mut self, now: Cycle, event: &Event) {
        match *event {
            Event::Injected { .. } => self.window(now).packets_injected += 1,
            Event::Forwarded { node, port, .. } => {
                self.window(now).flits_forwarded += 1;
                self.link_window[node.index() * Port::COUNT + port.index()] += 1;
            }
            Event::AllocConflict { .. } => self.window(now).alloc_conflicts += 1,
            Event::CreditStall { .. } => self.window(now).credit_stalls += 1,
            Event::Preemption { .. } => self.window(now).preemptions += 1,
            Event::Dropped { .. } => self.window(now).packets_dropped += 1,
            Event::Misroute { .. } => self.window(now).misroutes += 1,
            Event::Delivered {
                network_latency,
                num_flits,
                class,
                ..
            } => {
                let c = class.priority() as usize;
                let w = self.window(now);
                w.packets_delivered += 1;
                w.flits_delivered += u64::from(num_flits);
                w.latency_sum[c] += network_latency;
                w.latency_count[c] += 1;
                self.class_latency[c].record(network_latency);
            }
            Event::BufferSample { occupancy, .. } => {
                self.window(now).occupancy_integral += occupancy as u64;
            }
            Event::Entered { .. }
            | Event::HeadArrived { .. }
            | Event::VcAllocated { .. }
            | Event::SwitchTraversed { .. }
            | Event::HeadEjected { .. } => {}
        }
    }

    /// Consumes the collector into a frozen [`TelemetryReport`].
    /// `end_cycle` is the cycle the run stopped at; the final (possibly
    /// partial) window is closed and open congestion runs are resolved.
    pub fn freeze(mut self: Box<Self>, end_cycle: Cycle) -> TelemetryReport {
        self.roll_to(end_cycle);
        // Close the partial window containing end_cycle - 1, if the run
        // actually entered it.
        if end_cycle > self.cur_index * self.width {
            self.flush_window();
        }
        let closing_at = self.cur_index;
        for l in 0..self.link_run_start.len() {
            self.close_run(l, closing_at);
        }
        let mut spans = std::mem::take(&mut self.spans);
        spans.sort_by_key(|s| (s.node, s.port, s.start_window));
        TelemetryReport {
            window_width: self.width,
            cycles: end_cycle,
            nodes: self.num_nodes,
            windows: self.windows,
            class_latency: self.class_latency,
            congestion_spans: spans,
        }
    }
}

/// A finished run's frozen telemetry: the windowed series, the quantile
/// histograms, and the sustained-congestion spans, with transient
/// detectors and the deterministic exporters.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Window width, cycles.
    pub window_width: Cycle,
    /// Cycles the run simulated (the last window may be partial).
    pub cycles: Cycle,
    /// Router count.
    pub nodes: usize,
    /// The series, one row per window, in order, gap-free from window 0.
    pub windows: Vec<WindowRow>,
    /// Per-class latency quantile histograms (indexed by
    /// [`crate::flit::ServiceClass::priority`]; precision [`CLASS_PRECISION_BITS`]).
    pub class_latency: [QuantileHistogram; NUM_CLASSES],
    /// Sustained congestion spans, sorted by (node, port, start).
    pub congestion_spans: Vec<LinkSpan>,
}

impl TelemetryReport {
    /// The first cycle of window `index`.
    pub fn window_start(&self, index: u64) -> Cycle {
        index * self.window_width
    }

    /// Latency quantile histogram aggregated over every class.
    pub fn aggregate_latency(&self) -> QuantileHistogram {
        let mut all = QuantileHistogram::new(CLASS_PRECISION_BITS);
        for h in &self.class_latency {
            all.merge(h);
        }
        all
    }

    /// Saturation-onset detector: the start cycle of the first run of
    /// `consecutive` windows each growing the network backlog by at
    /// least `min_growth` packets (injected − delivered), or `None`.
    ///
    /// Under a stable load the backlog oscillates around a constant, so
    /// no such run exists; past saturation the source queues grow every
    /// window and the first such run marks the onset.
    pub fn saturation_onset(&self, consecutive: usize, min_growth: u64) -> Option<Cycle> {
        let consecutive = consecutive.max(1);
        let growing: Vec<bool> = self
            .windows
            .iter()
            .map(|w| {
                w.packets_injected > w.packets_delivered
                    && w.packets_injected - w.packets_delivered >= min_growth.max(1)
            })
            .collect();
        growing
            .windows(consecutive)
            .position(|run| run.iter().all(|&g| g))
            .map(|i| self.window_start(self.windows[i].index))
    }

    /// Recovery detector: given a disturbance at cycle `disturbance`
    /// (fault injection, storm start, …), returns how many cycles
    /// passed until the first subsequent window whose mean latency fell
    /// back within `factor` of the pre-disturbance baseline, or `None`
    /// if the run never recovered (or had no pre-disturbance traffic).
    ///
    /// The baseline is the mean latency over all complete windows that
    /// ended at or before the disturbance.
    pub fn recovery_cycle(&self, disturbance: Cycle, factor: f64) -> Option<Cycle> {
        let disturb_window = disturbance / self.window_width;
        let (mut sum, mut count) = (0u64, 0u64);
        for w in &self.windows {
            if w.index >= disturb_window {
                break;
            }
            sum += w.latency_sum.iter().sum::<u64>();
            count += w.latency_count.iter().sum::<u64>();
        }
        if count == 0 {
            return None;
        }
        let baseline = sum as f64 / count as f64;
        for w in &self.windows {
            if w.index <= disturb_window {
                continue;
            }
            let c: u64 = w.latency_count.iter().sum();
            if c > 0 && w.mean_latency() <= baseline * factor {
                return Some(self.window_start(w.index).saturating_sub(disturbance));
            }
        }
        None
    }

    /// Renders the per-class SLO quantile grid as a deterministic text
    /// table: count, mean, p50/p99/p99.9/p99.99, max, and whether the
    /// class's quantiles are exact. Ends with the all-classes aggregate.
    pub fn slo_table(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6}",
            "class", "count", "mean", "p50", "p99", "p99.9", "p99.99", "max", "exact"
        );
        let mut row = |name: &str, h: &QuantileHistogram| {
            let _ = writeln!(
                s,
                "{:<10} {:>10} {:>10.2} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6}",
                name,
                h.count,
                h.mean(),
                h.percentile(50.0),
                h.percentile(99.0),
                h.percentile(99.9),
                h.percentile(99.99),
                if h.count == 0 { 0 } else { h.max },
                if h.is_exact() { "yes" } else { "no" },
            );
        };
        for (i, h) in self.class_latency.iter().enumerate() {
            row(class_name(i), h);
        }
        row("all", &self.aggregate_latency());
        s
    }

    /// Serializes the series to the versioned text form: a header, one
    /// space-separated row per window, the congestion spans, and the
    /// per-class quantile summary. Stable across releases; byte-diffed
    /// by the CI determinism gate.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(64 + self.windows.len() * 96);
        let _ = writeln!(
            s,
            "ocin-series v1\nwindow {} windows {} cycles {} nodes {}",
            self.window_width,
            self.windows.len(),
            self.cycles,
            self.nodes,
        );
        s.push_str(
            "columns index injected delivered flits_delivered flits_forwarded dropped \
             misroutes alloc_conflicts credit_stalls preemptions occupancy \
             lat_count[3] lat_sum[3]\n",
        );
        for w in &self.windows {
            let _ = writeln!(
                s,
                "{} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
                w.index,
                w.packets_injected,
                w.packets_delivered,
                w.flits_delivered,
                w.flits_forwarded,
                w.packets_dropped,
                w.misroutes,
                w.alloc_conflicts,
                w.credit_stalls,
                w.preemptions,
                w.occupancy_integral,
                w.latency_count[0],
                w.latency_count[1],
                w.latency_count[2],
                w.latency_sum[0],
                w.latency_sum[1],
                w.latency_sum[2],
            );
        }
        let _ = writeln!(s, "spans {}", self.congestion_spans.len());
        for sp in &self.congestion_spans {
            let _ = writeln!(
                s,
                "span {} {} {} {} {}",
                sp.node, sp.port, sp.start_window, sp.end_window, sp.flits
            );
        }
        for (i, h) in self.class_latency.iter().enumerate() {
            let _ = writeln!(
                s,
                "slo {} count {} sum {} min {} max {} p50 {} p99 {} p999 {} p9999 {} exact {}",
                class_name(i),
                h.count,
                h.sum,
                if h.count == 0 { 0 } else { h.min },
                if h.count == 0 { 0 } else { h.max },
                h.percentile(50.0),
                h.percentile(99.0),
                h.percentile(99.9),
                h.percentile(99.99),
                u8::from(h.is_exact()),
            );
        }
        s
    }

    /// Serializes to deterministic JSON: fixed key order, integer-only
    /// counters, floats printed with 6 decimals. Same run, same bytes.
    /// Per-pair latencies are exported by
    /// [`crate::NetworkMetrics::to_json`], not here.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(4096);
        let _ = write!(
            s,
            "{{\n  \"version\": 1,\n  \"window_width\": {},\n  \"cycles\": {},\n  \
             \"nodes\": {},\n  \"windows\": [",
            self.window_width, self.cycles, self.nodes,
        );
        for (i, w) in self.windows.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n    {{\"index\": {}, \"injected\": {}, \"delivered\": {}, \
                 \"flits_delivered\": {}, \"flits_forwarded\": {}, \"dropped\": {}, \
                 \"misroutes\": {}, \"alloc_conflicts\": {}, \"credit_stalls\": {}, \
                 \"preemptions\": {}, \"occupancy\": {}, \"lat_count\": [{}, {}, {}], \
                 \"lat_sum\": [{}, {}, {}]}}",
                w.index,
                w.packets_injected,
                w.packets_delivered,
                w.flits_delivered,
                w.flits_forwarded,
                w.packets_dropped,
                w.misroutes,
                w.alloc_conflicts,
                w.credit_stalls,
                w.preemptions,
                w.occupancy_integral,
                w.latency_count[0],
                w.latency_count[1],
                w.latency_count[2],
                w.latency_sum[0],
                w.latency_sum[1],
                w.latency_sum[2],
            );
        }
        s.push_str("\n  ],\n  \"congestion_spans\": [");
        for (i, sp) in self.congestion_spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n    {{\"node\": {}, \"port\": {}, \"start_window\": {}, \
                 \"end_window\": {}, \"flits\": {}}}",
                sp.node, sp.port, sp.start_window, sp.end_window, sp.flits
            );
        }
        s.push_str("\n  ],\n  \"slo\": [");
        for (i, h) in self.class_latency.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n    {{\"class\": \"{}\", \"count\": {}, \"mean\": {:.6}, \
                 \"p50\": {}, \"p99\": {}, \"p999\": {}, \"p9999\": {}, \"max\": {}, \
                 \"exact\": {}}}",
                class_name(i),
                h.count,
                h.mean(),
                h.percentile(50.0),
                h.percentile(99.0),
                h.percentile(99.9),
                h.percentile(99.99),
                if h.count == 0 { 0 } else { h.max },
                h.is_exact(),
            );
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Serializes the series as Chrome trace-event JSON counter tracks
    /// ("C" events), one counter per series, sampled at every window
    /// start. Loads in Perfetto/chrome://tracing alongside the journey
    /// span traces ([`crate::journey::DecompositionReport`] exporters);
    /// timestamps are cycles, one trace microsecond per cycle.
    pub fn to_perfetto_json(&self) -> String {
        use std::fmt::Write as _;
        /// Synthetic process id for the counter tracks — distinct from
        /// the journey exporter's 65 535 so both load side by side.
        const TELEMETRY_PID: u32 = 65_534;
        let mut s = String::with_capacity(1024 + self.windows.len() * 256);
        s.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let _ = write!(
            s,
            "  {{\"ph\": \"M\", \"pid\": {TELEMETRY_PID}, \"name\": \"process_name\", \
             \"args\": {{\"name\": \"ocin telemetry (1 us = 1 cycle)\"}}}}"
        );
        for w in &self.windows {
            let ts = self.window_start(w.index);
            let mut counter = |name: &str, value: String| {
                let _ = write!(
                    s,
                    ",\n  {{\"ph\": \"C\", \"pid\": {TELEMETRY_PID}, \"ts\": {ts}, \
                     \"name\": \"{name}\", \"args\": {{\"value\": {value}}}}}"
                );
            };
            counter("packets_injected", w.packets_injected.to_string());
            counter("packets_delivered", w.packets_delivered.to_string());
            counter("flits_forwarded", w.flits_forwarded.to_string());
            counter("mean_latency", format!("{:.6}", w.mean_latency()));
            counter("occupancy_integral", w.occupancy_integral.to_string());
            counter("credit_stalls", w.credit_stalls.to_string());
            counter("preemptions", w.preemptions.to_string());
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::ServiceClass;
    use crate::ids::NodeId;

    fn injected() -> Event {
        let node = NodeId::new(0);
        Event::Injected {
            src: node,
            dst: node,
            packet: crate::ids::PacketId(0),
        }
    }

    fn delivered(network_latency: Cycle, num_flits: u16, class: ServiceClass) -> Event {
        Event::Delivered {
            src: NodeId::new(0),
            dst: NodeId::new(1),
            packet: crate::ids::PacketId(0),
            network_latency,
            num_flits,
            class,
        }
    }

    fn forwarded(node: NodeId, port: Port) -> Event {
        Event::Forwarded {
            node,
            port,
            vc: crate::ids::VcId::new(0),
            packet: crate::ids::PacketId(0),
        }
    }

    #[test]
    fn quantile_histogram_is_exact_below_horizon() {
        let mut h = QuantileHistogram::new(7);
        // Exact region: [0, 256).
        for v in [0, 1, 5, 99, 255] {
            h.record(v);
        }
        assert!(h.is_exact());
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(100.0), 255);
        assert_eq!(h.percentile(50.0), 5);
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 360);
        assert_eq!((h.min, h.max), (0, 255));
    }

    #[test]
    fn quantile_histogram_quantizes_above_horizon() {
        let h = QuantileHistogram::new(7);
        // 300 has 9 significant bits; shift = 9 - 8 = 1 → floor to 300.
        assert_eq!(h.bucket_floor(300), 300);
        // 301 floors to 300 (width-2 bucket).
        assert_eq!(h.bucket_floor(301), 300);
        // 1000 has 10 bits; shift 2 → floor 1000; 1001..=1003 → 1000.
        assert_eq!(h.bucket_floor(1003), 1000);
        // Relative error stays below 2^-7.
        let mut h = QuantileHistogram::new(7);
        h.record(100_000);
        assert!(!h.is_exact());
        let p = h.percentile(50.0);
        assert!(p <= 100_000 && (100_000 - p) as f64 / 100_000.0 < 2f64.powi(-7));
    }

    #[test]
    fn quantile_histogram_merge_is_order_independent() {
        let mut a = QuantileHistogram::new(16);
        let mut b = QuantileHistogram::new(16);
        let mut c = QuantileHistogram::new(16);
        for (i, v) in [9u64, 3, 77, 3, 500, 12].iter().enumerate() {
            if i % 2 == 0 {
                a.record(*v);
            } else {
                b.record(*v);
            }
            c.record(*v);
        }
        a.merge(&b);
        assert_eq!(a, c);
    }

    #[test]
    fn windows_roll_lazily_and_zero_fill() {
        let mut t = TelemetryCollector::new(10, 1);
        t.record(3, &injected());
        t.record(5, &injected());
        // Skips windows 1 and 2 entirely.
        t.record(35, &injected());
        let r = Box::new(t).freeze(40);
        assert_eq!(r.windows.len(), 4);
        assert_eq!(r.windows[0].packets_injected, 2);
        assert_eq!(r.windows[1].packets_injected, 0);
        assert_eq!(r.windows[2].packets_injected, 0);
        assert_eq!(r.windows[3].packets_injected, 1);
        assert_eq!(r.windows[3].index, 3);
    }

    #[test]
    fn freeze_closes_the_partial_window() {
        let mut t = TelemetryCollector::new(100, 1);
        t.record(250, &injected());
        let r = Box::new(t).freeze(251);
        assert_eq!(r.windows.len(), 3);
        assert_eq!(r.windows[2].packets_injected, 1);
        // An exact multiple closes nothing extra.
        let mut t = TelemetryCollector::new(100, 1);
        t.record(99, &injected());
        let r = Box::new(t).freeze(200);
        assert_eq!(r.windows.len(), 2);
    }

    #[test]
    fn congestion_spans_require_sustained_utilization() {
        let mut t = TelemetryCollector::new(10, 2);
        // Link (node 1, port 2) at full utilization for windows 0..=2,
        // then idle. Another link congested for only one window.
        for w in 0..3u64 {
            for c in 0..10 {
                let south = Port::Dir(crate::ids::Direction::South);
                t.record(w * 10 + c, &forwarded(NodeId::new(1), south));
            }
        }
        for c in 0..10 {
            t.record(50 + c, &forwarded(NodeId::new(0), Port::Tile));
        }
        let r = Box::new(t).freeze(100);
        assert_eq!(r.congestion_spans.len(), 1, "{:?}", r.congestion_spans);
        let sp = r.congestion_spans[0];
        assert_eq!(
            (sp.node, sp.start_window, sp.end_window, sp.flits),
            (1, 0, 2, 30)
        );
    }

    #[test]
    fn saturation_onset_finds_sustained_backlog_growth() {
        let mut t = TelemetryCollector::new(10, 1);
        // Windows 0–1 balanced, 2–4 growing backlog.
        for w in 0..5u64 {
            let now = w * 10;
            for _ in 0..4 {
                t.record(now, &injected());
            }
            let deliveries = if w < 2 { 4 } else { 1 };
            for _ in 0..deliveries {
                t.record(now, &delivered(7, 1, ServiceClass::Bulk));
            }
        }
        let r = Box::new(t).freeze(50);
        assert_eq!(r.saturation_onset(3, 1), Some(20));
        assert_eq!(r.saturation_onset(4, 1), None);
    }

    #[test]
    fn recovery_detector_uses_pre_disturbance_baseline() {
        let mut t = TelemetryCollector::new(10, 1);
        // Baseline windows at latency 10, disturbance at cycle 20
        // spikes to 100, recovery at window 4.
        for w in 0..6u64 {
            let lat = match w {
                0 | 1 => 10,
                2 | 3 => 100,
                _ => 11,
            };
            t.record(w * 10, &delivered(lat, 1, ServiceClass::Bulk));
        }
        let r = Box::new(t).freeze(60);
        assert_eq!(r.recovery_cycle(20, 1.5), Some(20));
        assert_eq!(r.recovery_cycle(20, 0.5), None);
    }

    #[test]
    fn exporters_are_deterministic() {
        let build = || {
            let mut t = TelemetryCollector::new(10, 2);
            t.record(1, &injected());
            t.record(2, &forwarded(NodeId::new(0), Port::Tile));
            t.record(15, &delivered(13, 2, ServiceClass::Priority));
            let occupancy = 3;
            let node = NodeId::new(0);
            t.record(16, &Event::BufferSample { node, occupancy });
            Box::new(t).freeze(30)
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert_eq!(a.to_text(), b.to_text());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_perfetto_json(), b.to_perfetto_json());
        assert!(a.to_text().starts_with("ocin-series v1\n"));
        assert!(a.to_json().starts_with("{\n  \"version\": 1"));
        assert!(a.to_perfetto_json().contains("\"ph\": \"C\""));
        assert!(a.slo_table().contains("p99.99"));
        // Window sums reconcile with the totals fed in.
        assert_eq!(a.windows.iter().map(|w| w.packets_injected).sum::<u64>(), 1);
        assert_eq!(
            a.windows.iter().map(|w| w.packets_delivered).sum::<u64>(),
            1
        );
        assert_eq!(a.class_latency[1].count, 1);
    }
}
