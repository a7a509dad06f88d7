//! The kernel events/sec trajectory (`BENCH_kernel.json`): one record
//! per `(run, backend, bench)` cell, stored and validated through
//! [`crate::trajectory`].
//!
//! Schema (`tokencmp-kernel-bench-v1`):
//!
//! ```json
//! {
//!   "schema": "tokencmp-kernel-bench-v1",
//!   "entries": [
//!     {"run": "dev", "backend": "heap", "bench": "table3/TokenCMP-dst1",
//!      "events": 46658, "elapsed_ns": 7330000,
//!      "events_per_sec": 6365347.9, "ns_per_event": 157.1,
//!      "profile": {"sched.pop": 1200000, "handler.l1": 2900000}}
//!   ]
//! }
//! ```
//!
//! `bench` names are namespaced: `table3/<protocol>` is a full protocol
//! run on the paper's Table 3 system, and `layer/<name>` times one
//! simulator structure in isolation (event queue, `SetAssoc`,
//! `DistTable`, rng), with `events` counting that cell's operations and
//! `ns_per_event` the time per operation. The two oldest runs also hold
//! `churn/d<depth>` entries (a pure-queue hold-model microbench) and
//! `wheel` entries, measured on a calendar timing wheel that has since
//! been removed; they are kept as history and validated like every
//! other entry.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use tokencmp::sim::SchedulerKind;
use tokencmp::sweep::json::Value;

use crate::trajectory::{Fields, Record};

/// Backend labels a trajectory entry may carry: the heap, and the
/// removed timing wheel of the historical runs.
const BACKENDS: [&str; 2] = ["heap", "wheel"];

/// One measurement: a named bench, on one scheduler backend, in one
/// bench invocation (`run` labels the invocation, e.g. a PR number).
#[derive(Clone, Debug, PartialEq)]
pub struct KernelBenchEntry {
    /// Trajectory label for the invocation (`TOKENCMP_BENCH_RUN`).
    pub run: String,
    /// Scheduler label (`heap`; `wheel` in historical runs).
    pub backend: String,
    /// Bench name (`table3/TokenCMP-dst1`, ...).
    pub bench: String,
    /// Events processed during the timed section (operations, for a
    /// `layer/*` cell).
    pub events: u64,
    /// Wall time of the timed section.
    pub elapsed_ns: u64,
    /// `events / elapsed` in events per second.
    pub events_per_sec: f64,
    /// `elapsed / events` in nanoseconds.
    pub ns_per_event: f64,
    /// Host-time attribution (`category → estimated ns`) from a
    /// *separate* profiled companion run — the timed section itself is
    /// never profiled, so rate fields stay comparable across PRs. Empty
    /// when no profile was taken (historical entries);
    /// empty maps are omitted from the JSON.
    pub profile: BTreeMap<String, u64>,
}

impl KernelBenchEntry {
    /// An entry from a raw measurement; derives both rate fields.
    pub fn measured(run: &str, bench: String, events: u64, elapsed: Duration) -> KernelBenchEntry {
        let ns = elapsed.as_nanos() as u64;
        KernelBenchEntry {
            run: run.to_string(),
            backend: SchedulerKind::Heap.name().to_string(),
            bench,
            events,
            elapsed_ns: ns,
            events_per_sec: events as f64 / elapsed.as_secs_f64(),
            ns_per_event: ns as f64 / events as f64,
            profile: BTreeMap::new(),
        }
    }

    /// This entry with a host-time attribution map attached.
    pub fn with_profile(mut self, profile: BTreeMap<String, u64>) -> KernelBenchEntry {
        self.profile = profile;
        self
    }
}

impl Record for KernelBenchEntry {
    const SCHEMA: &'static str = "tokencmp-kernel-bench-v1";
    const FILE: &'static str = "BENCH_kernel.json";

    fn same_cell(&self, o: &Self) -> bool {
        (&self.run, &self.backend, &self.bench) == (&o.run, &o.backend, &o.bench)
    }

    fn to_value(&self) -> Value {
        let mut obj = BTreeMap::from([
            ("run".into(), Value::Str(self.run.clone())),
            ("backend".into(), Value::Str(self.backend.clone())),
            ("bench".into(), Value::Str(self.bench.clone())),
            ("events".into(), Value::Int(self.events)),
            ("elapsed_ns".into(), Value::Int(self.elapsed_ns)),
            ("events_per_sec".into(), Value::Float(self.events_per_sec)),
            ("ns_per_event".into(), Value::Float(self.ns_per_event)),
        ]);
        if !self.profile.is_empty() {
            obj.insert(
                "profile".into(),
                Value::Obj(
                    self.profile
                        .iter()
                        .map(|(k, &v)| (k.clone(), Value::Int(v)))
                        .collect(),
                ),
            );
        }
        Value::Obj(obj)
    }

    fn from_value(f: &Fields) -> Result<KernelBenchEntry, String> {
        let backend = f.str("backend")?;
        if !BACKENDS.contains(&backend.as_str()) {
            return Err(f.error(format_args!("unknown backend `{backend}`")));
        }
        let mut profile = BTreeMap::new();
        if let Some(p) = f.get("profile") {
            let obj = p
                .as_obj()
                .ok_or_else(|| f.error("`profile` is not an object"))?;
            if obj.is_empty() {
                return Err(f.error("empty `profile` object (omit the field instead)"));
            }
            for (k, v) in obj {
                let ns = v.as_u64().ok_or_else(|| {
                    f.error(format_args!("profile `{k}` is not an integer ns count"))
                })?;
                profile.insert(k.clone(), ns);
            }
        }
        Ok(KernelBenchEntry {
            run: f.str("run")?,
            backend,
            bench: f.str("bench")?,
            events: f.int("events")?,
            elapsed_ns: f.int("elapsed_ns")?,
            events_per_sec: f.rate("events_per_sec")?,
            ns_per_event: f.rate("ns_per_event")?,
            profile,
        })
    }

    /// Summarises every recorded `(run, backend)`.
    fn gate(entries: &[KernelBenchEntry]) -> Result<String, String> {
        let mut runs: BTreeMap<(&str, &str), usize> = BTreeMap::new();
        for e in entries {
            *runs
                .entry((e.run.as_str(), e.backend.as_str()))
                .or_default() += 1;
        }
        let mut report = String::new();
        for ((run, backend), n) in runs {
            let _ = writeln!(report, "run `{run}` {backend}: {n} entries");
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::{merge, parse, render, validate_file};
    use std::fs;

    fn entry(run: &str, backend: &str, bench: &str, eps: f64) -> KernelBenchEntry {
        KernelBenchEntry {
            run: run.into(),
            backend: backend.into(),
            bench: bench.into(),
            events: 1_000_000,
            elapsed_ns: (1e15 / eps) as u64,
            events_per_sec: eps,
            ns_per_event: 1e9 / eps,
            profile: BTreeMap::new(),
        }
    }

    #[test]
    fn render_round_trips_through_the_parser() {
        let entries = vec![
            entry("pr6", "heap", "churn/d4096", 1.25e7),
            entry("pr6", "wheel", "table3/token-dst1", 3.5e6).with_profile(BTreeMap::from([
                ("sched.pop".to_string(), 120_000u64),
                ("handler.l1".to_string(), 450_000),
            ])),
        ];
        let text = render(&entries);
        // The profile-free entry omits the field entirely.
        assert_eq!(text.matches("profile").count(), 1);
        let parsed = parse::<KernelBenchEntry>(&text).unwrap();
        assert_eq!(parsed, entries);
    }

    #[test]
    fn profile_fields_are_schema_gated() {
        // A non-object profile is rejected.
        let bad = r#"{"schema":"tokencmp-kernel-bench-v1","entries":[
            {"run":"a","backend":"heap","bench":"table3/x","events":1,
             "elapsed_ns":1,"events_per_sec":1.0,"ns_per_event":1.0,
             "profile":[1,2]}]}"#;
        assert!(parse::<KernelBenchEntry>(bad)
            .unwrap_err()
            .contains("profile"));
        // Non-integer category values are rejected.
        let bad = r#"{"schema":"tokencmp-kernel-bench-v1","entries":[
            {"run":"a","backend":"heap","bench":"table3/x","events":1,
             "elapsed_ns":1,"events_per_sec":1.0,"ns_per_event":1.0,
             "profile":{"sched.pop":"fast"}}]}"#;
        assert!(parse::<KernelBenchEntry>(bad)
            .unwrap_err()
            .contains("sched.pop"));
        // An empty profile object should have been omitted.
        let bad = r#"{"schema":"tokencmp-kernel-bench-v1","entries":[
            {"run":"a","backend":"heap","bench":"table3/x","events":1,
             "elapsed_ns":1,"events_per_sec":1.0,"ns_per_event":1.0,
             "profile":{}}]}"#;
        assert!(parse::<KernelBenchEntry>(bad)
            .unwrap_err()
            .contains("empty"));
    }

    #[test]
    fn schema_violations_are_rejected_with_a_reason() {
        for (text, needle) in [
            ("[]", "schema"),
            (
                r#"{"schema":"tokencmp-kernel-bench-v0","entries":[]}"#,
                "v0",
            ),
            (r#"{"schema":"tokencmp-kernel-bench-v1"}"#, "entries"),
            (
                r#"{"schema":"tokencmp-kernel-bench-v1","entries":[{"run":"a"}]}"#,
                "backend",
            ),
        ] {
            let err = parse::<KernelBenchEntry>(text).unwrap_err();
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
        // Unknown backend and non-positive rates are schema errors too.
        let mut bogus = entry("a", "heap", "churn/d8", 1e6);
        bogus.backend = "splay".into();
        let err = parse::<KernelBenchEntry>(&render(&[bogus])).unwrap_err();
        assert!(err.contains("splay"), "{err}");
        let mut zero = entry("a", "heap", "churn/d8", 1e6);
        zero.events_per_sec = 0.0;
        let err = parse::<KernelBenchEntry>(&render(&[zero])).unwrap_err();
        assert!(err.contains("events_per_sec"), "{err}");
    }

    #[test]
    fn merge_replaces_same_key_and_appends_new_runs() {
        let old = vec![
            entry("pr5", "heap", "churn/d8", 1e6),
            entry("pr5", "wheel", "churn/d8", 2e6),
        ];
        let fresh = vec![
            entry("pr5", "wheel", "churn/d8", 3e6), // re-measured: replaces
            entry("pr6", "wheel", "churn/d8", 4e6), // new run: appends
        ];
        let merged = merge(old, fresh);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[1].events_per_sec, 3e6, "replacement kept its slot");
        assert_eq!(merged[2].run, "pr6");
    }

    #[test]
    fn validate_summarises_every_run_and_rejects_an_empty_file() {
        let dir = std::env::temp_dir().join(format!("kernel-validate-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_kernel.json");
        let entries = vec![
            entry("old", "wheel", "churn/d8", 2e6),
            entry("new", "heap", "table3/dir", 1e6),
        ];
        fs::write(&path, render(&entries)).unwrap();
        let report = validate_file::<KernelBenchEntry>(&path).unwrap();
        assert!(report.contains("run `old` wheel: 1 entries"), "{report}");
        assert!(report.contains("run `new` heap: 1 entries"), "{report}");
        fs::write(&path, render::<KernelBenchEntry>(&[])).unwrap();
        assert!(validate_file::<KernelBenchEntry>(&path)
            .unwrap_err()
            .contains("empty"));
        fs::remove_dir_all(&dir).unwrap();
    }
}
