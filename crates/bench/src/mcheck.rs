//! The model-checking states/sec trajectory (`BENCH_mcheck.json`).
//!
//! Companion to [`crate::kernel`], stored and validated through
//! [`crate::trajectory`]: what the parallel explorer is worth on each
//! model configuration, run over run. Each record is one checker
//! invocation on one configuration — the sequential baseline (`seq`) or
//! a parallel run named by its knobs (`par/w4`, `par/w4+sym+por`) — so
//! diffs show the state-throughput history next to the kernel one.
//!
//! Schema (`tokencmp-mcheck-bench-v1`):
//!
//! ```json
//! {
//!   "schema": "tokencmp-mcheck-bench-v1",
//!   "entries": [
//!     {"run": "pr14", "config": "small_recovery/Distributed",
//!      "bench": "par/w4+sym+por", "states": 1437255,
//!      "transitions": 7222739, "elapsed_ns": 16404159119,
//!      "states_per_sec": 87615.3, "workers": 4, "host_cores": 2,
//!      "expand_seconds": 10.96, "merge_seconds": 5.25}
//!   ]
//! }
//! ```
//!
//! `expand_seconds` and `merge_seconds` (host time of the parallel
//! expand and the sequential merge phase of a `par/...` run, summed
//! over BFS levels) are optional: entries recorded before they existed
//! carry neither, and `seq` entries have no phases.
//!
//! A `par/w<N>...` name must carry the entry's worker count `N`, and a
//! `seq` entry has one worker.
//!
//! The speedup gate is honest about hardware: `check_parallel` must hit
//! ≥2x the same run's sequential states/sec **only** for entries
//! measured with ≥4 workers on a host with ≥4 cores. Entries from
//! smaller hosts (the 1-core CI runner included) are validated for
//! schema and determinism elsewhere but never gated on speed — a
//! level-synchronous explorer cannot beat the sequential loop without
//! real parallelism under it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use tokencmp::sweep::json::Value;

use crate::trajectory::{Fields, Record};

/// Workers/cores floor above which the 2x speedup gate applies.
pub const GATE_MIN_CORES: u64 = 4;

/// One checker invocation on one model configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct McheckBenchEntry {
    /// Trajectory label for the invocation (`TOKENCMP_BENCH_RUN`).
    pub run: String,
    /// Model configuration (`small/SafetyOnly`, `small_recovery/Distributed`,
    /// `dir/small`, ...).
    pub config: String,
    /// Checker shape: `seq`, or `par/w<workers>[+sym][+por]`.
    pub bench: String,
    /// Distinct states stored.
    pub states: u64,
    /// Transitions taken.
    pub transitions: u64,
    /// Wall time of the check.
    pub elapsed_ns: u64,
    /// `states / elapsed` in states per second.
    pub states_per_sec: f64,
    /// Worker threads used (1 for `seq`).
    pub workers: u64,
    /// `available_parallelism` on the measuring host — the gate reads
    /// this, so 1-core CI entries are self-describing.
    pub host_cores: u64,
    /// Host seconds in the parallel expand phase (`par/...` only).
    pub expand_seconds: Option<f64>,
    /// Host seconds in the sequential merge phase (`par/...` only).
    pub merge_seconds: Option<f64>,
}

impl McheckBenchEntry {
    /// An entry from a raw measurement; derives the rate field and
    /// stamps the host's core count.
    pub fn measured(
        run: &str,
        config: &str,
        bench: String,
        states: u64,
        transitions: u64,
        elapsed: Duration,
        workers: u64,
    ) -> McheckBenchEntry {
        McheckBenchEntry {
            run: run.to_string(),
            config: config.to_string(),
            bench,
            states,
            transitions,
            elapsed_ns: elapsed.as_nanos() as u64,
            states_per_sec: states as f64 / elapsed.as_secs_f64(),
            workers,
            host_cores: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
            expand_seconds: None,
            merge_seconds: None,
        }
    }

    /// Records the expand/merge split of a parallel run.
    pub fn with_phases(mut self, expand_seconds: f64, merge_seconds: f64) -> McheckBenchEntry {
        self.expand_seconds = Some(expand_seconds);
        self.merge_seconds = Some(merge_seconds);
        self
    }

    /// The canonical `par/...` bench name for a knob combination.
    pub fn par_bench_name(workers: usize, symmetry: bool, por: bool) -> String {
        let mut name = format!("par/w{workers}");
        if symmetry {
            name.push_str("+sym");
        }
        if por {
            name.push_str("+por");
        }
        name
    }
}

impl Record for McheckBenchEntry {
    const SCHEMA: &'static str = "tokencmp-mcheck-bench-v1";
    const FILE: &'static str = "BENCH_mcheck.json";

    fn same_cell(&self, o: &Self) -> bool {
        (&self.run, &self.config, &self.bench) == (&o.run, &o.config, &o.bench)
    }

    fn to_value(&self) -> Value {
        let mut obj = BTreeMap::from([
            ("run".into(), Value::Str(self.run.clone())),
            ("config".into(), Value::Str(self.config.clone())),
            ("bench".into(), Value::Str(self.bench.clone())),
            ("states".into(), Value::Int(self.states)),
            ("transitions".into(), Value::Int(self.transitions)),
            ("elapsed_ns".into(), Value::Int(self.elapsed_ns)),
            ("states_per_sec".into(), Value::Float(self.states_per_sec)),
            ("workers".into(), Value::Int(self.workers)),
            ("host_cores".into(), Value::Int(self.host_cores)),
        ]);
        for (k, v) in [
            ("expand_seconds", self.expand_seconds),
            ("merge_seconds", self.merge_seconds),
        ] {
            if let Some(x) = v {
                obj.insert(k.into(), Value::Float(x));
            }
        }
        Value::Obj(obj)
    }

    fn from_value(f: &Fields) -> Result<McheckBenchEntry, String> {
        let bench = f.str("bench")?;
        let named_workers = if bench == "seq" {
            1
        } else {
            let Some(knobs) = bench.strip_prefix("par/w") else {
                return Err(f.error(format_args!(
                    "bench `{bench}` is neither `seq` nor `par/w...`"
                )));
            };
            let (n, reductions) = knobs.split_at(knobs.find('+').unwrap_or(knobs.len()));
            if !matches!(reductions, "" | "+sym" | "+por" | "+sym+por") {
                return Err(f.error(format_args!(
                    "bench `{bench}` has reductions other than `+sym`, `+por`"
                )));
            }
            n.parse::<u64>().map_err(|_| {
                f.error(format_args!("bench `{bench}` does not name a worker count"))
            })?
        };
        let states_per_sec = f.rate("states_per_sec")?;
        let workers = f.int("workers")?;
        if workers == 0 {
            return Err(f.error("`workers` must be >= 1"));
        }
        if workers != named_workers {
            return Err(f.error(format_args!(
                "bench `{bench}` implies {named_workers} workers but `workers` is {workers}"
            )));
        }
        let host_cores = f.int("host_cores")?;
        if host_cores == 0 {
            return Err(f.error("`host_cores` must be >= 1"));
        }
        Ok(McheckBenchEntry {
            run: f.str("run")?,
            config: f.str("config")?,
            bench,
            states: f.int("states")?,
            transitions: f.int("transitions")?,
            elapsed_ns: f.int("elapsed_ns")?,
            states_per_sec,
            workers,
            host_cores,
            expand_seconds: f.seconds("expand_seconds")?,
            merge_seconds: f.seconds("merge_seconds")?,
        })
    }

    /// Runs the speedup gate on every recorded run label.
    fn gate(entries: &[McheckBenchEntry]) -> Result<String, String> {
        let mut runs: Vec<&str> = entries.iter().map(|e| e.run.as_str()).collect();
        runs.sort_unstable();
        runs.dedup();
        let mut report = String::new();
        for run in runs {
            report.push_str(&check_speedup(entries, run)?);
        }
        Ok(report)
    }
}

/// The speedup gate for one run: for every config measured both
/// sequentially and with a gate-eligible parallel entry (`workers` and
/// `host_cores` both ≥ [`GATE_MIN_CORES`]), the best eligible parallel
/// rate must be ≥2x the sequential one. Configs without an eligible
/// pair are reported as determinism-only, never failed — 1-core CI
/// entries land here by construction.
pub fn check_speedup(entries: &[McheckBenchEntry], run: &str) -> Result<String, String> {
    let mut report = String::new();
    let mut configs: Vec<&str> = entries
        .iter()
        .filter(|e| e.run == run)
        .map(|e| e.config.as_str())
        .collect();
    configs.sort_unstable();
    configs.dedup();
    if configs.is_empty() {
        return Err(format!("run `{run}`: no entries"));
    }
    for config in configs {
        let of_config = || {
            entries
                .iter()
                .filter(|e| e.run == run && e.config == config)
        };
        let Some(seq) = of_config().find(|e| e.bench == "seq") else {
            let _ = writeln!(report, "{config}: no sequential baseline — skipped");
            continue;
        };
        let eligible = of_config()
            .filter(|e| {
                e.bench.starts_with("par/")
                    && e.workers >= GATE_MIN_CORES
                    && e.host_cores >= GATE_MIN_CORES
            })
            .max_by(|a, b| a.states_per_sec.total_cmp(&b.states_per_sec));
        match eligible {
            Some(par) => {
                let ratio = par.states_per_sec / seq.states_per_sec;
                if ratio >= 2.0 {
                    let _ = writeln!(
                        report,
                        "{config}: {} {:.2e} st/s vs seq {:.2e} st/s ({ratio:.2}x) — ok",
                        par.bench, par.states_per_sec, seq.states_per_sec
                    );
                } else {
                    return Err(format!(
                        "run `{run}` {config}: {} {:.2e} st/s is below 2x seq \
                         {:.2e} st/s ({ratio:.2}x) on a {}-core host",
                        par.bench, par.states_per_sec, seq.states_per_sec, par.host_cores
                    ));
                }
            }
            None => {
                let _ = writeln!(
                    report,
                    "{config}: no >= {GATE_MIN_CORES}-worker entry on a >= \
                     {GATE_MIN_CORES}-core host — determinism-only"
                );
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::{merge, parse, render};

    fn entry(
        config: &str,
        bench: &str,
        sps: f64,
        workers: u64,
        host_cores: u64,
    ) -> McheckBenchEntry {
        McheckBenchEntry {
            run: "pr9".into(),
            config: config.into(),
            bench: bench.into(),
            states: 100_000,
            transitions: 400_000,
            elapsed_ns: (1e14 / sps) as u64,
            states_per_sec: sps,
            workers,
            host_cores,
            expand_seconds: None,
            merge_seconds: None,
        }
    }

    #[test]
    fn render_round_trips_through_the_parser() {
        let entries = vec![
            entry("small/SafetyOnly", "seq", 5e4, 1, 1),
            entry("small/SafetyOnly", "par/w4+sym+por", 1.2e5, 4, 8).with_phases(0.75, 0.25),
        ];
        let parsed = parse::<McheckBenchEntry>(&render(&entries)).unwrap();
        assert_eq!(parsed, entries);
    }

    #[test]
    fn phase_fields_are_optional_but_validated() {
        let old = r#"{"schema":"tokencmp-mcheck-bench-v1","entries":[{"run":"dev","config":"c","bench":"par/w2","states":1,"transitions":1,"elapsed_ns":1,"states_per_sec":1.0,"workers":2,"host_cores":1}]}"#;
        let parsed = parse::<McheckBenchEntry>(old).unwrap();
        assert_eq!(parsed[0].expand_seconds, None);
        assert_eq!(parsed[0].merge_seconds, None);
        let bad = old.replace(r#""workers":2"#, r#""workers":2,"merge_seconds":-1.0"#);
        let err = parse::<McheckBenchEntry>(&bad).unwrap_err();
        assert!(err.contains("merge_seconds"), "{err}");
    }

    #[test]
    fn schema_violations_are_rejected_with_a_reason() {
        for (text, needle) in [
            ("[]", "schema"),
            (
                r#"{"schema":"tokencmp-mcheck-bench-v0","entries":[]}"#,
                "v0",
            ),
            (r#"{"schema":"tokencmp-mcheck-bench-v1"}"#, "entries"),
            (
                r#"{"schema":"tokencmp-mcheck-bench-v1","entries":[{"run":"a"}]}"#,
                "bench",
            ),
        ] {
            let err = parse::<McheckBenchEntry>(text).unwrap_err();
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
        let mut bogus = entry("c", "seq", 1e5, 1, 1);
        bogus.bench = "parallel".into();
        let err = parse::<McheckBenchEntry>(&render(&[bogus])).unwrap_err();
        assert!(err.contains("parallel"), "{err}");
        let mut zero = entry("c", "seq", 1e5, 1, 1);
        zero.workers = 0;
        let err = parse::<McheckBenchEntry>(&render(&[zero])).unwrap_err();
        assert!(err.contains("workers"), "{err}");
    }

    fn rejection(bench: &str, workers: u64) -> String {
        let hostile = entry("c", bench, 1e5, workers, 1);
        parse::<McheckBenchEntry>(&render(&[hostile])).unwrap_err()
    }

    #[test]
    fn a_par_bench_without_a_worker_count_is_rejected() {
        let err = rejection("par/wfoo", 4);
        assert!(
            err.contains("par/wfoo") && err.contains("worker count"),
            "{err}"
        );
    }

    #[test]
    fn a_par_bench_must_name_its_worker_count() {
        let err = rejection("par/w4", 2);
        assert!(
            err.contains("par/w4") && err.contains("`workers` is 2"),
            "{err}"
        );
    }

    #[test]
    fn a_seq_bench_has_one_worker() {
        let err = rejection("seq", 2);
        assert!(
            err.contains("seq") && err.contains("implies 1 workers"),
            "{err}"
        );
    }

    #[test]
    fn a_par_bench_with_unknown_reductions_is_rejected() {
        let err = rejection("par/w4+fast", 4);
        assert!(
            err.contains("par/w4+fast") && err.contains("reductions"),
            "{err}"
        );
    }

    #[test]
    fn bench_names_encode_the_knobs() {
        assert_eq!(McheckBenchEntry::par_bench_name(4, false, false), "par/w4");
        assert_eq!(
            McheckBenchEntry::par_bench_name(8, true, true),
            "par/w8+sym+por"
        );
    }

    #[test]
    fn the_gate_skips_small_hosts_and_gates_big_ones() {
        // 1-core host: determinism-only, never failed on speed.
        let small_host = vec![
            entry("dir/small", "seq", 1e5, 1, 1),
            entry("dir/small", "par/w4", 5e4, 4, 1),
        ];
        let report = check_speedup(&small_host, "pr9").unwrap();
        assert!(report.contains("determinism-only"), "{report}");

        // 8-core host hitting 2.4x: gated and passing.
        let big_ok = vec![
            entry("dir/small", "seq", 1e5, 1, 8),
            entry("dir/small", "par/w4+sym+por", 2.4e5, 4, 8),
        ];
        let report = check_speedup(&big_ok, "pr9").unwrap();
        assert!(report.contains("2.40x"), "{report}");

        // 8-core host below 2x: the gate fails with the ratio.
        let big_slow = vec![
            entry("dir/small", "seq", 1e5, 1, 8),
            entry("dir/small", "par/w4", 1.5e5, 4, 8),
        ];
        let err = check_speedup(&big_slow, "pr9").unwrap_err();
        assert!(err.contains("below 2x"), "{err}");

        // A 2-worker entry on a big host is not gate-eligible.
        let few_workers = vec![
            entry("dir/small", "seq", 1e5, 1, 8),
            entry("dir/small", "par/w2", 1.2e5, 2, 8),
        ];
        let report = check_speedup(&few_workers, "pr9").unwrap();
        assert!(report.contains("determinism-only"), "{report}");
    }

    #[test]
    fn merge_replaces_same_key_and_appends_new_entries() {
        let old = vec![entry("dir/small", "seq", 1e5, 1, 1)];
        let fresh = vec![
            entry("dir/small", "seq", 2e5, 1, 1),
            entry("dir/small", "par/w2", 3e5, 2, 1),
        ];
        let merged = merge(old, fresh);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].states_per_sec, 2e5, "replacement kept its slot");
    }
}
