//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload <table3_commercial|scale_mesh|mcheck_suite> \
//!     [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! One workload per process, so `peak_rss_mib` is that workload's own.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics; the last line of standard output is one JSON object. Every
//! point is checked (fingerprints, outcome, audit, workload checks); a
//! failed point makes the exit code 1. Bad arguments or a set
//! `TOKENCMP_*` knob exit with code 2 before anything runs.
//! `benchmark/METRICS.md` explains each workload and metric.

mod calib;
mod mcheck;
mod pins;
mod report;
mod sim;
mod stats;

use std::process::ExitCode;

use report::Report;
use tokencmp_system::RunOptions;

/// The seed the fingerprints are pinned at.
pub const DEFAULT_SEED: u64 = 11;

/// The seed held out for claims: a change is tuned on others and its
/// claimed gain must also hold here.
pub const HELD_OUT_SEED: u64 = 23;

const USAGE: &str = "usage: --workload <table3_commercial|scale_mesh|mcheck_suite> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

/// Knobs `RunOptions::default()` reads from the environment. Any of
/// them would change what is measured, so none may be set.
const ENV_KNOBS: [&str; 4] = [
    "TOKENCMP_SCHEDULER",
    "TOKENCMP_PROFILE",
    "TOKENCMP_SAMPLE_NS",
    "TOKENCMP_STALL_NS",
];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Table 3 system, nine protocols × three commercial presets.
    Table3Commercial,
    /// 64 CMPs × 4 cores on the 8 × 8 mesh, TokenCMP-dst1 locking.
    ScaleMesh,
    /// `check_parallel` over the five fast model configs.
    McheckSuite,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("table3_commercial", Workload::Table3Commercial),
        ("scale_mesh", Workload::ScaleMesh),
        ("mcheck_suite", Workload::McheckSuite),
    ];

    fn name(self) -> &'static str {
        Workload::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("every workload is listed")
    }
}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 30;
        let mut trace = false;
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(
                        Workload::ALL
                            .iter()
                            .find(|(n, _)| *n == v)
                            .map(|(_, w)| *w)
                            .ok_or_else(|| format!("unknown workload `{v}`"))?,
                    );
                }
                "--seed" => {
                    let v = value()?;
                    seed = v
                        .parse()
                        .map_err(|_| format!("--seed `{v}` is not a u64"))?;
                }
                "--seconds" => {
                    let v = value()?;
                    seconds = v
                        .parse()
                        .ok()
                        .filter(|s| (1..=3600).contains(s))
                        .ok_or_else(|| format!("--seconds `{v}` is not 1..=3600"))?;
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace `{v}` is not 0 or 1")),
                    };
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// Refuses to run when a knob of [`ENV_KNOBS`] is set.
fn env_guard(set: impl Fn(&str) -> bool) -> Result<(), String> {
    let found: Vec<&str> = ENV_KNOBS.iter().copied().filter(|k| set(k)).collect();
    if found.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} set: RunOptions::default() reads it, so the runs would not measure the \
             default system; unset it",
            found.join(", ")
        ))
    }
}

/// This process image's peak resident set in MiB: `VmHWM` of
/// `/proc/self/status`. (`getrusage`'s `ru_maxrss` would also count the
/// image that `exec` replaced, e.g. a forked `cargo run`.) 0 where the
/// file is missing or unreadable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = env_guard(|k| std::env::var_os(k).is_some()) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "benchmark workload={} trace={} seed={} (pinned {DEFAULT_SEED}, held out {HELD_OUT_SEED}) \
         seconds={} host_cores={workers} rustc=\"{}\" scheduler={}",
        args.workload.name(),
        u8::from(args.trace),
        args.seed,
        args.seconds,
        env!("BENCH_RUSTC_VERSION"),
        RunOptions::default().scheduler_kind().name(),
    );
    let mut report = Report::default();
    match args.workload {
        Workload::Table3Commercial | Workload::ScaleMesh => {
            println!(
                "modelled caches start empty (no warm-up); simulator points run one after \
                 another on one thread"
            );
            let points = if args.workload == Workload::ScaleMesh {
                sim::scale_mesh_points()
            } else {
                sim::table3_points()
            };
            if args.trace {
                sim::run_traced(&points, &args, &mut report);
            } else {
                sim::run_untraced(&points, &args, &mut report);
            }
        }
        Workload::McheckSuite => {
            println!("check_parallel with symmetry + POR at {workers} workers");
            if args.trace {
                mcheck::run_traced(&args, workers, &mut report);
            } else {
                mcheck::run_untraced(&args, workers, &mut report);
            }
        }
    }
    let listed: &[(&str, &str)] = if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    let (human, json) = report.render(listed);
    print!("{human}");
    println!("{json}");
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_with_pinned_defaults() {
        let a = parse("--workload scale_mesh").unwrap();
        assert_eq!(a.seed, DEFAULT_SEED);
        assert!(!a.trace);
        let a = parse("--workload mcheck_suite --seed 23 --seconds 5 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (23, 5, true));
        assert_ne!(DEFAULT_SEED, HELD_OUT_SEED);
        for bad in [
            "",
            "--workload nope",
            "--workload scale_mesh --seed x",
            "--workload scale_mesh --seconds 0",
            "--workload scale_mesh --trace 2",
            "--workload scale_mesh --extra",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn env_guard_names_every_set_knob() {
        assert!(env_guard(|_| false).is_ok());
        let e = env_guard(|k| k == "TOKENCMP_PROFILE" || k == "TOKENCMP_STALL_NS").unwrap_err();
        assert!(e.starts_with("TOKENCMP_PROFILE, TOKENCMP_STALL_NS set"));
    }

    #[test]
    fn peak_rss_is_plausible() {
        let mib = peak_rss_mib();
        assert!(mib > 1.0 && mib < 65536.0, "{mib}");
    }
}
