//! The benchmark's output: metric lists, human-readable lines and the
//! closing JSON object.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics of the untraced run, in output order: name, unit.
pub const END_TO_END: [(&str, &str); 3] =
    [("pass_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics of the traced run, in output order: name, unit.
/// Every run prints all of them; a layer the workload does not exercise
/// reads 0 and is marked so.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("sim.ns_per_event", "ns/event"),
    ("sim.sched_pop_ns_per_event", "ns/event"),
    ("sim.sched_push_ns_per_event", "ns/event"),
    ("net.dispatch_ns_per_event", "ns/event"),
    ("core.l1_ns_per_call", "ns/call"),
    ("core.l2_ns_per_call", "ns/call"),
    ("core.mem_ns_per_call", "ns/call"),
    ("directory.l1_ns_per_call", "ns/call"),
    ("directory.l2_ns_per_call", "ns/call"),
    ("directory.home_ns_per_call", "ns/call"),
    ("system.seq_ns_per_call", "ns/call"),
    ("system.perfect_l2_ns_per_call", "ns/call"),
    ("system.build_s", "s"),
    ("mcheck.states_per_s", "1/s"),
    ("mcheck.check_s", "s"),
    ("pool.speedup", "x"),
    ("trace.overhead_frac", "fraction"),
    ("trace.profile_coverage", "fraction"),
    ("sim.events", "count"),
    ("sim.queue_depth_max", "count"),
    ("sim.queue_depth_mean", "count"),
    ("net.intra_msgs", "count"),
    ("net.inter_msgs", "count"),
    ("net.inter_bytes", "bytes"),
    ("net.inter_wait_ps_per_miss", "ps/miss"),
    ("core.retry_ratio", "fraction"),
    ("core.persistent_per_miss", "fraction"),
    ("core.l2_external_per_local", "fraction"),
    ("directory.forward_ratio", "fraction"),
    ("cache.l1_hit_ratio", "fraction"),
    ("cache.l2_evictions", "count"),
    ("mcheck.states", "count"),
    ("mcheck.transitions", "count"),
    ("mcheck.reduction_ratio", "fraction"),
    ("mcheck.por_pruned", "count"),
];

/// A measured value and how it was taken (a ratio's base, a sample
/// count, ...).
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    /// The number.
    pub value: f64,
    /// Shown next to it in the human-readable lines.
    pub note: String,
}

impl Value {
    /// A value with a note.
    pub fn new(value: f64, note: impl Into<String>) -> Value {
        Value {
            value,
            note: note.into(),
        }
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Points (simulator runs or model checks) attempted.
    pub attempted: u64,
    /// Why each failed point failed.
    pub failures: Vec<String>,
    /// Metrics by name; the listed ones go into the JSON object.
    pub metrics: BTreeMap<&'static str, Value>,
    /// Further printed figures that are not in the JSON object, in
    /// insertion order.
    pub info: Vec<(String, String, Value)>,
    /// Printed text lines (fingerprints, pinned checks).
    pub lines: Vec<String>,
}

impl Report {
    /// Records a metric (listed or not).
    pub fn set(&mut self, name: &'static str, value: Value) {
        self.metrics.insert(name, value);
    }

    /// Records a printed-only figure.
    pub fn info(&mut self, name: impl Into<String>, unit: impl Into<String>, value: Value) {
        self.info.push((name.into(), unit.into(), value));
    }

    /// Records a printed text line.
    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }

    /// Records a failed point.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Renders the human-readable lines and the closing JSON object for
    /// the given metric list. A listed metric the workload did not set
    /// reads 0 ("not exercised"); a non-finite value is a failure.
    pub fn render(&mut self, listed: &[(&'static str, &str)]) -> (String, String) {
        let mut human = String::new();
        let mut json_metrics = Vec::new();
        for &(name, unit) in listed {
            let v = self
                .metrics
                .get(name)
                .cloned()
                .unwrap_or_else(|| Value::new(0.0, "not exercised by this workload"));
            let value = if v.value.is_finite() {
                v.value
            } else {
                self.failures
                    .push(format!("metric {name} is not finite ({})", v.value));
                0.0
            };
            let _ = writeln!(human, "  {name:<36} {value:>16.6} {unit:<9} {}", v.note);
            json_metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        for (name, unit, v) in &self.info {
            let _ = writeln!(human, "  {name:<36} {:>16.6} {unit:<9} {}", v.value, v.note);
        }
        for l in &self.lines {
            let _ = writeln!(human, "  {l}");
        }
        for f in &self.failures {
            let _ = writeln!(human, "  FAILED: {f}");
        }
        let json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
            json_metrics.join(", ")
        );
        (human, json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_every_listed_metric_and_counts_failures() {
        let mut r = Report {
            attempted: 4,
            ..Report::default()
        };
        r.set("pass_s", Value::new(1.5, ""));
        r.set("setup_s", Value::new(f64::NAN, ""));
        let (human, json) = r.render(&END_TO_END);
        assert!(json.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1,"));
        assert!(json.contains("\"pass_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(json.contains("\"peak_rss_mib\": {\"value\": 0, \"unit\": \"MiB\"}"));
        assert!(human.contains("not exercised"));
        assert!(human.contains("FAILED: metric setup_s is not finite"));
    }

    /// The metric lists here and in `BENCHMARK.json` are the same lists.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            spec.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + 3,
            "three workloads plus every listed metric"
        );
    }
}
