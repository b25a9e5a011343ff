//! Every metric the benchmark reports, with its unit and direction. The
//! same names, units and directions are listed in `BENCHMARK.json`,
//! which adds the regression bounds; a test keeps the two in step.

use crate::json;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// Host-time metrics of an untraced run, identical for every workload.
pub const END_TO_END: [MetricDef; 5] = [
    lower("setup_s", "s"),
    lower("wall_s", "s"),
    lower("cpu_s", "s"),
    higher("flit_hops_per_s", "flit-hops/s"),
    lower("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run, each prefixed by its layer.
pub const PER_LAYER: [MetricDef; 35] = [
    lower("network.step_us_p50", "us"),
    lower("network.step_us_p99", "us"),
    lower("network.step_us_tail", "us"),
    higher("network.step_tail_pct", "pct"),
    higher("network.step_samples", "count"),
    lower("network.step_ns_per_node_cycle", "ns"),
    lower("network.step_ns_per_flit_hop", "ns"),
    lower("network.step_share", "frac"),
    higher("network.flit_hops", "count"),
    higher("network.node_cycles", "count"),
    lower("interface.inject_calls", "count"),
    lower("interface.inject_backpressure_frac", "frac"),
    lower("interface.inject_ns_per_call", "ns"),
    lower("interface.drain_ns_per_node_cycle", "ns"),
    lower("interface.share", "frac"),
    lower("traffic.gen_ns_per_call", "ns"),
    lower("traffic.share", "frac"),
    lower("probe.counters_overhead_frac", "frac"),
    lower("probe.journeys_overhead_frac", "frac"),
    lower("probe.telemetry_overhead_frac", "frac"),
    lower("probe.export_ms", "ms"),
    lower("probe.export_bytes", "bytes"),
    higher("shard.speedup_2", "x"),
    lower("shard.cpu_overhead_frac", "frac"),
    higher("exec.batch_speedup", "x"),
    lower("exec.waves", "count"),
    higher("exec.max_shards", "count"),
    lower("pool.points_evaluated", "count"),
    lower("sweep.rounds", "count"),
    lower("sweep.points", "count"),
    lower("stats.report_us_per_point", "us"),
    higher("stats.samples", "count"),
    lower("setup.network_new_ms", "ms"),
    lower("trace.overhead_frac", "frac"),
    higher("trace.rounds", "count"),
];

/// Renders `{"name": {"value": v, "unit": "u"}, ...}` in the given
/// order.
///
/// # Panics
///
/// Panics if a name is in neither table: every metric the benchmark
/// emits is declared above.
pub fn render(values: &[(&str, f64)]) -> String {
    let items: Vec<String> = values
        .iter()
        .map(|&(name, value)| {
            let def = find(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                json::number(value),
                json::quote(def.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The declaration of `name`, in either table.
fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// The result line every run prints last on stdout.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    values: &[(&str, f64)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        render(values)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn declared(section: &str) -> Vec<MetricDef> {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = doc.get(section).and_then(Json::as_array).expect(section);
        list.iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                let leak = |s: String| -> &'static str { Box::leak(s.into_boxed_str()) };
                MetricDef {
                    name: leak(field("name")),
                    unit: leak(field("unit")),
                    better: leak(field("better")),
                }
            })
            .collect()
    }

    #[test]
    fn names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        for name in &all {
            assert!(valid_name(name), "bad metric name {name}");
        }
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        assert_eq!(declared("end_to_end"), END_TO_END);
        assert_eq!(declared("per_layer"), PER_LAYER);
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn every_workload_reports_every_declared_metric() {
        for w in Workload::ALL {
            let run = crate::run::end_to_end_metrics(&crate::run::Summary::empty(w));
            let line = result_line(true, 1, 0, &run);
            let trace = crate::trace::layer_metrics(&crate::trace::Measured::default());
            let traced = result_line(true, 1, 0, &trace);
            for (section, text) in [("end_to_end", &line), ("per_layer", &traced)] {
                let doc = Json::parse(text).expect("result line parses");
                let metrics = doc.get("metrics").expect("metrics");
                for def in declared(section) {
                    let m = metrics.get(def.name).unwrap_or_else(|| {
                        panic!("{} misses {section} metric {}", w.name(), def.name)
                    });
                    assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
                    assert!(m.get("value").and_then(Json::as_f64).is_some());
                }
            }
        }
    }
}
