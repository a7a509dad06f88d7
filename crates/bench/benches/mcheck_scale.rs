//! Model-checking state throughput: sequential BFS vs `check_parallel`.
//!
//! Measures states/sec for each model configuration across worker
//! counts and reduction knobs — with the host time of each parallel
//! run split into its parallel expand and sequential merge phases —
//! records the results into the committed
//! trajectory `BENCH_mcheck.json` (see `tokencmp_bench::mcheck`), and
//! exports the per-configuration scaling table to
//! `target/sweep/mcheck_scaling.json` for the CI artifact.
//!
//! Modes:
//! * default — all five fast configurations plus the flagship
//!   `small_recovery/Distributed` (~1.4M states, two ~35s checks);
//!   merges into `BENCH_mcheck.json` under `TOKENCMP_BENCH_RUN`
//!   (default `dev`) and runs the speedup gate on the fresh run.
//! * `TOKENCMP_BENCH_SMOKE=1` — two small configurations, two worker
//!   counts, results to a scratch file in the temp dir so CI exercises
//!   the measure→merge→validate path without touching the committed
//!   trajectory.
//! * `--validate [path]` — no measurement: schema-validate the file
//!   (default: the committed trajectory) and re-run the gate on every
//!   recorded run.
//!
//! Every reductions-off parallel run is also asserted state-for-state
//! identical to the sequential baseline — the bench doubles as a
//! determinism check on whatever host it runs on.

use std::time::Duration;

use tokencmp::mcheck::{
    check, check_parallel, CheckOptions, DirModel, DirModelParams, Model, SubstrateMode,
    TokenModel, TokenModelParams,
};
use tokencmp::sweep::json::Value;
use tokencmp_bench::banner;
use tokencmp_bench::mcheck::{check_speedup, McheckBenchEntry};
use tokencmp_bench::trajectory::{self, Record};

fn seq_entry<M>(run: &str, config: &str, model: &M) -> McheckBenchEntry
where
    M: Model + Sync,
    M::State: Send + Sync,
{
    let r = check(model, &CheckOptions::default()).unwrap_or_else(|v| {
        panic!("{config}: sequential check must pass: {v}");
    });
    McheckBenchEntry::measured(
        run,
        config,
        "seq".into(),
        r.states as u64,
        r.transitions,
        Duration::from_secs_f64(r.seconds.max(1e-9)),
        1,
    )
}

fn par_entry<M>(
    run: &str,
    config: &str,
    model: &M,
    workers: usize,
    symmetry: bool,
    por: bool,
    seq_states: u64,
) -> McheckBenchEntry
where
    M: Model + Sync,
    M::State: Send + Sync,
{
    let opts = CheckOptions {
        workers,
        symmetry,
        por,
        ..CheckOptions::default()
    };
    let r = check_parallel(model, &opts).unwrap_or_else(|v| {
        panic!("{config}: parallel check must pass: {v}");
    });
    if !symmetry && !por {
        assert_eq!(
            r.states as u64, seq_states,
            "{config}: reductions-off parallel run diverged from sequential"
        );
    }
    McheckBenchEntry::measured(
        run,
        config,
        McheckBenchEntry::par_bench_name(workers, symmetry, por),
        r.states as u64,
        r.transitions,
        Duration::from_secs_f64(r.seconds.max(1e-9)),
        r.workers as u64,
    )
    .with_phases(r.expand_seconds, r.merge_seconds)
}

/// Measures one configuration: the sequential baseline, a reductions-off
/// parallel run per worker count (determinism + scaling), and a fully
/// reduced run per worker count (the production shape).
fn measure_config<M>(
    run: &str,
    config: &str,
    model: &M,
    workers: &[usize],
    rows: &mut Vec<McheckBenchEntry>,
) where
    M: Model + Sync,
    M::State: Send + Sync,
{
    eprintln!("  measuring {config} ...");
    let seq = seq_entry(run, config, model);
    let seq_states = seq.states;
    rows.push(seq);
    for &w in workers {
        rows.push(par_entry(run, config, model, w, false, false, seq_states));
        rows.push(par_entry(run, config, model, w, true, true, seq_states));
    }
}

fn print_table(rows: &[McheckBenchEntry]) {
    println!(
        "{:<28} {:<16} {:>10} {:>12} {:>12} {:>9} {:>9} {:>9}",
        "config", "bench", "states", "transitions", "states/sec", "vs seq", "expand s", "merge s"
    );
    let secs = |x: Option<f64>| x.map_or("-".to_string(), |s| format!("{s:.3}"));
    let mut seq_rate = 0.0;
    for e in rows {
        if e.bench == "seq" {
            seq_rate = e.states_per_sec;
        }
        println!(
            "{:<28} {:<16} {:>10} {:>12} {:>12.3e} {:>8.2}x {:>9} {:>9}",
            e.config,
            e.bench,
            e.states,
            e.transitions,
            e.states_per_sec,
            e.states_per_sec / seq_rate,
            secs(e.expand_seconds),
            secs(e.merge_seconds)
        );
    }
}

/// The scaling-table artifact CI uploads: one object per measured row,
/// with the speedup against the same configuration's sequential rate.
fn export_scaling_table(rows: &[McheckBenchEntry]) {
    let seq_rate = |config: &str| {
        rows.iter()
            .find(|e| e.config == config && e.bench == "seq")
            .map(|e| e.states_per_sec)
    };
    let arr = rows
        .iter()
        .map(|e| {
            let mut v = e.to_value();
            if let (Value::Obj(obj), Some(base)) = (&mut v, seq_rate(&e.config)) {
                obj.insert(
                    "speedup_vs_seq".to_string(),
                    Value::Float(e.states_per_sec / base),
                );
            }
            v
        })
        .collect();
    match tokencmp::sweep::write_value("mcheck_scaling", &Value::Arr(arr)) {
        Ok(path) => println!("[sweep] wrote {}", path.display()),
        Err(e) => eprintln!("[sweep] export mcheck_scaling failed: {e}"),
    }
}

fn main() {
    let inv = trajectory::invocation::<McheckBenchEntry>();
    let run = &inv.run;
    banner(
        "mcheck_scale",
        "parallel explorer states/sec trajectory (infrastructure, not a paper figure)",
    );
    let workers: &[usize] = if inv.smoke { &[2] } else { &[1, 2, 4] };

    let mut rows = Vec::new();
    measure_config(
        run,
        "small/SafetyOnly",
        &TokenModel::new(TokenModelParams::small(SubstrateMode::SafetyOnly)),
        workers,
        &mut rows,
    );
    measure_config(
        run,
        "dir/small",
        &DirModel::new(DirModelParams::small()),
        workers,
        &mut rows,
    );
    if !inv.smoke {
        measure_config(
            run,
            "small/Distributed",
            &TokenModel::new(TokenModelParams::small(SubstrateMode::Distributed)),
            workers,
            &mut rows,
        );
        measure_config(
            run,
            "small/Arbiter",
            &TokenModel::new(TokenModelParams::small(SubstrateMode::Arbiter)),
            workers,
            &mut rows,
        );
        measure_config(
            run,
            "small_recovery/SafetyOnly",
            &TokenModel::new(TokenModelParams::small_recovery(SubstrateMode::SafetyOnly)),
            workers,
            &mut rows,
        );
        // The flagship ~1.4M-state configuration: the sequential
        // baseline plus one fully reduced parallel run at the widest
        // measured worker count (two ~35s checks — the bulk of this
        // target's wall time).
        let flagship =
            TokenModel::new(TokenModelParams::small_recovery(SubstrateMode::Distributed));
        let config = "small_recovery/Distributed";
        eprintln!("  measuring {config} (flagship, ~70s) ...");
        let seq = seq_entry(run, config, &flagship);
        let seq_states = seq.states;
        rows.push(seq);
        let w = *workers.last().expect("worker list is never empty");
        rows.push(par_entry(run, config, &flagship, w, true, true, seq_states));
    }

    print_table(&rows);
    export_scaling_table(&rows);

    inv.append(rows.clone());
    match check_speedup(&rows, run) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}
