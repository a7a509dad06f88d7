//! Kernel throughput on the paper's Table 3 system, events/sec.
//!
//! Each `table3/<protocol>` cell is a full locking run on the Table 3
//! system, wall-timed end to end, recorded into the committed trajectory
//! file `BENCH_kernel.json` (see `tokencmp_bench::kernel`) together with
//! the host-time profile of a separate profiled run.
//!
//! Modes:
//! * default — all nine protocols; merges results into
//!   `BENCH_kernel.json` under the `TOKENCMP_BENCH_RUN` label (default
//!   `dev`).
//! * `TOKENCMP_BENCH_SMOKE=1` — CI-sized runs, two protocols, and
//!   results written to a scratch file in the system temp dir so CI
//!   never dirties the committed trajectory.
//! * `--validate [path]` — no measurement: schema-validate the file
//!   (default: the committed trajectory) and summarise every recorded
//!   run.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use tokencmp::{run_workload, LockingWorkload, Protocol, RunOptions, RunOutcome, SystemConfig};
use tokencmp_bench::banner;
use tokencmp_bench::kernel::{append, trajectory_path, validate_file, KernelBenchEntry};

/// A full protocol run on the Table 3 system, wall-timed end to end;
/// best of `reps` identical runs (min wall time wins: the least
/// external noise on a shared host). A separate *profiled*
/// companion run then attaches the host-time attribution breakdown —
/// kept out of the timed reps so the recorded rates never carry
/// profiling overhead.
fn protocol_run(run: &str, protocol: Protocol, acquires: u32, reps: u32) -> KernelBenchEntry {
    let cfg = SystemConfig::default();
    let opts = RunOptions {
        seed: 11,
        ..RunOptions::default()
    };
    let mut best: Option<(u64, Duration)> = None;
    for _ in 0..reps {
        let w = LockingWorkload::new(16, 8, acquires, 11);
        let start = Instant::now();
        let (res, _) = run_workload(&cfg, protocol, w, &opts);
        let elapsed = start.elapsed();
        assert_eq!(res.outcome, RunOutcome::Idle, "{protocol} did not finish");
        if best.is_none_or(|(_, b)| elapsed < b) {
            best = Some((res.events, elapsed));
        }
    }
    let (events, elapsed) = best.expect("reps >= 1");
    let w = LockingWorkload::new(16, 8, acquires, 11);
    let (profiled, _) = run_workload(&cfg, protocol, w, &opts.with_profiling());
    let profile = profiled
        .profile
        .expect("profiled run returns an attribution report")
        .category_ns();
    KernelBenchEntry::measured(run, format!("table3/{protocol}"), events, elapsed)
        .with_profile(profile)
}

fn print_table(entries: &[KernelBenchEntry]) {
    println!(
        "{:<26} {:>12} {:>14} {:>12}",
        "bench", "events", "events/sec", "ns/event"
    );
    for e in entries {
        println!(
            "{:<26} {:>12} {:>14.3e} {:>12.1}",
            e.bench, e.events, e.events_per_sec, e.ns_per_event
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    if args.first().map(String::as_str) == Some("--validate") {
        let path = args
            .get(1)
            .map(PathBuf::from)
            .unwrap_or_else(trajectory_path);
        match validate_file(&path) {
            Ok(report) => print!("{report}"),
            Err(e) => {
                eprintln!("BENCH_kernel.json validation failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    banner(
        "kernel_throughput",
        "kernel events/sec trajectory (infrastructure, not a paper figure)",
    );
    let smoke = std::env::var("TOKENCMP_BENCH_SMOKE").is_ok();
    let run = std::env::var("TOKENCMP_BENCH_RUN")
        .unwrap_or_else(|_| if smoke { "smoke" } else { "dev" }.into());
    // Smoke results land in a scratch file: CI exercises the full
    // measure→merge→validate path without rewriting the committed
    // trajectory with noisy, tiny-iteration numbers.
    let path = if smoke {
        let p =
            std::env::temp_dir().join(format!("BENCH_kernel.smoke.{}.json", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    } else {
        trajectory_path()
    };
    let (protocols, acquires, reps): (Vec<Protocol>, u32, u32) = if smoke {
        (vec![Protocol::ALL[0], Protocol::Directory], 8, 1)
    } else {
        (Protocol::ALL.to_vec(), 24, 3)
    };

    let fresh: Vec<KernelBenchEntry> = protocols
        .iter()
        .map(|&p| protocol_run(&run, p, acquires, reps))
        .collect();
    print_table(&fresh);

    match append(&path, fresh) {
        Ok(all) => println!(
            "\nwrote {} ({} entries, run `{run}`)",
            path.display(),
            all.len()
        ),
        Err(e) => {
            eprintln!("failed to write trajectory: {e}");
            std::process::exit(1);
        }
    }
}
