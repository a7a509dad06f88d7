//! The model-checking workload, `mcheck_suite`: `check_parallel` with
//! symmetry and partial-order reduction over the five fast configs.

use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use tokencmp_mcheck::{
    check_parallel, CheckOptions, DirModel, DirModelParams, Model, SubstrateMode, TokenModel,
    TokenModelParams,
};

use crate::calib::{Calibrator, NOMINAL_S};
use crate::report::{Report, Value};
use crate::stats::{median, spread_note, Ratio};
use crate::{peak_rss_mib, pins, Args};

/// Config names, in suite order.
pub const CONFIGS: [&str; 5] = [
    "small/SafetyOnly",
    "small/Distributed",
    "small/Arbiter",
    "small_recovery/SafetyOnly",
    "dir/small",
];

/// Set-up samples after each timed pass; each times [`SETUP_BATCH`]
/// constructions of the whole suite, because one construction takes
/// microseconds.
const SETUP_PER_PASS: usize = 16;
const SETUP_BATCH: u32 = 2_000;

/// Timed passes an untraced run makes even when they overrun
/// `--seconds`.
const MIN_TIMED_PASSES: usize = 2;

/// What one check found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// `ok`, or the violation / panic message.
    pub verdict: String,
    /// Distinct stored states.
    pub states: u64,
    /// Transitions taken.
    pub transitions: u64,
    /// Maximum BFS depth.
    pub depth: u64,
    /// Successor edges pruned by the partial-order reduction.
    pub por_pruned: u64,
}

impl Outcome {
    /// The pinned shape of the check: verdict, states, transitions and
    /// depth.
    pub fn pin(&self) -> (&str, u64, u64, u64) {
        (&self.verdict, self.states, self.transitions, self.depth)
    }
}

fn check<M>(model: &M, opts: &CheckOptions) -> Outcome
where
    M: Model + Sync,
    M::State: Send + Sync,
{
    match panic::catch_unwind(AssertUnwindSafe(|| check_parallel(model, opts))) {
        Ok(Ok(r)) => Outcome {
            verdict: "ok".into(),
            states: r.states as u64,
            transitions: r.transitions,
            depth: r.depth as u64,
            por_pruned: r.por_pruned,
        },
        Ok(Err(v)) => Outcome {
            verdict: format!("violation: {}", v.message),
            states: 0,
            transitions: 0,
            depth: 0,
            por_pruned: 0,
        },
        Err(_) => Outcome {
            verdict: "panicked".into(),
            states: 0,
            transitions: 0,
            depth: 0,
            por_pruned: 0,
        },
    }
}

/// The token-model parameters of config `i` of [`CONFIGS`]; `None` for
/// the directory model.
fn token_params(i: usize) -> Option<TokenModelParams> {
    match i {
        0 => Some(TokenModelParams::small(SubstrateMode::SafetyOnly)),
        1 => Some(TokenModelParams::small(SubstrateMode::Distributed)),
        2 => Some(TokenModelParams::small(SubstrateMode::Arbiter)),
        3 => Some(TokenModelParams::small_recovery(SubstrateMode::SafetyOnly)),
        _ => None,
    }
}

/// Checks config `i` of [`CONFIGS`].
fn check_config(i: usize, opts: &CheckOptions) -> Outcome {
    match token_params(i) {
        Some(p) => check(&TokenModel::new(p), opts),
        None => check(&DirModel::new(DirModelParams::small()), opts),
    }
}

/// One construction of every model of the suite and its initial states.
fn setup_once() {
    for i in 0..CONFIGS.len() {
        match token_params(black_box(i)) {
            Some(p) => {
                black_box(TokenModel::new(p).initial());
            }
            None => {
                black_box(DirModel::new(DirModelParams::small()).initial());
            }
        }
    }
}

fn opts(workers: usize, reduce: bool) -> CheckOptions {
    CheckOptions {
        workers,
        symmetry: reduce,
        por: reduce,
        ..CheckOptions::default()
    }
}

/// One pass over the suite: per-config spans and outcomes.
struct Pass {
    wall: Duration,
    spans: Vec<f64>,
    outcomes: Vec<Outcome>,
}

fn run_pass(opts: &CheckOptions) -> Pass {
    let start = Instant::now();
    let mut spans = Vec::new();
    let mut outcomes = Vec::new();
    for i in 0..CONFIGS.len() {
        let t = Instant::now();
        outcomes.push(check_config(i, opts));
        spans.push(t.elapsed().as_secs_f64());
    }
    Pass {
        wall: start.elapsed(),
        spans,
        outcomes,
    }
}

/// Records each config of a reduced pass as attempted, and failed
/// unless it matches its pin.
fn check_pass(pass: &Pass, report: &mut Report) {
    for (name, o) in CONFIGS.iter().zip(&pass.outcomes) {
        report.attempted += 1;
        let want = pins::mcheck(name);
        if Some(o.pin()) != want {
            report.fail(format!("{name}: got {:?}, pinned {want:?}", o.pin()));
        }
    }
}

fn sum(pass: &Pass, f: impl Fn(&Outcome) -> u64) -> f64 {
    pass.outcomes.iter().map(f).sum::<u64>() as f64
}

/// The untraced run: a one-worker warm-up pass (checked; it gives the
/// peak RSS), then calibrated reduced passes at `workers` threads for
/// `--seconds`,
/// each followed by set-up samples.
pub fn run_untraced(args: &Args, workers: usize, report: &mut Report) {
    let reduced = opts(workers, true);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    // The warm-up pass runs at one worker: at `workers` threads the peak
    // depends on how they interleave and spreads ±8 % from run to run.
    let first = run_pass(&opts(1, true));
    check_pass(&first, report);
    // Read before the reference kernel allocates anything.
    let rss = peak_rss_mib();
    let mut cal = Calibrator::new();
    let (mut walls, mut nominal_walls, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let round = Instant::now();
        let mut pass = Pass {
            wall: Duration::ZERO,
            spans: Vec::new(),
            outcomes: Vec::new(),
        };
        let mut nominal = 0.0;
        for i in 0..CONFIGS.len() {
            let (outcome, span) = cal.span(|| check_config(i, &reduced));
            pass.wall += Duration::from_secs_f64(span.raw);
            pass.spans.push(span.raw);
            pass.outcomes.push(outcome);
            nominal += span.nominal;
        }
        check_pass(&pass, report);
        walls.push(pass.wall.as_secs_f64());
        nominal_walls.push(nominal);
        // Timed after a pass, on a warm process (see `sim`).
        let batch = cal.batch(SETUP_PER_PASS, || {
            for _ in 0..SETUP_BATCH {
                setup_once();
            }
        });
        setups.extend(batch.iter().map(|s| s / f64::from(SETUP_BATCH)));
        if walls.len() >= MIN_TIMED_PASSES && start.elapsed() + round.elapsed() > budget {
            break;
        }
    }
    let wall = median(&nominal_walls).expect("timed passes ran");
    report.set(
        "pass_s",
        Value::new(
            wall,
            format!("at nominal host speed, {}", spread_note(&nominal_walls)),
        ),
    );
    report.set(
        "setup_s",
        Value::new(
            median(&setups).expect("set-up ran"),
            format!(
                "construct 5 models + initial states at nominal host speed, {}",
                spread_note(&setups)
            ),
        ),
    );
    report.set(
        "peak_rss_mib",
        Value::new(
            rss,
            "process peak resident set after the one-worker warm-up pass",
        ),
    );
    let raw = median(&walls).expect("timed passes ran");
    report.info(
        "wall_s",
        "s",
        Value::new(raw, format!("raw host seconds, {}", spread_note(&walls))),
    );
    report.info(
        "host_slowdown",
        "x",
        Value::new(
            cal.slowdown(),
            format!(
                "median of {} reference calls / nominal {NOMINAL_S} s",
                cal.refs.len()
            ),
        ),
    );
    let states = sum(&first, |o| o.states);
    report.info(
        "states_per_s",
        "1/s",
        Value::new(
            states / raw,
            format!("{states} reduced states per pass / wall_s"),
        ),
    );
    let failed = report.failures.len() as f64;
    report.info(
        "failed_frac",
        "fraction",
        Value::new(
            failed / report.attempted.max(1) as f64,
            format!("{failed} failed / {} attempted checks", report.attempted),
        ),
    );
    for (name, o) in CONFIGS.iter().zip(&first.outcomes) {
        report.line(format!("check {name:<28} {:?}", o.pin()));
    }
}

/// The traced run: per-config spans of reduced passes at `workers`
/// threads, alternating with untraced passes and one-worker passes
/// (for `pool.speedup`); one unreduced pass gives the reduction ratio.
pub fn run_traced(args: &Args, workers: usize, report: &mut Report) {
    let reduced = opts(workers, true);
    let single = opts(1, true);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut walls, mut traced_walls, mut single_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut spans: Vec<Vec<f64>> = vec![Vec::new(); CONFIGS.len()];
    let mut first = None;
    loop {
        let round = Instant::now();
        let plain = run_pass(&reduced);
        walls.push(plain.wall.as_secs_f64());
        check_pass(&plain, report);
        let traced = run_pass(&reduced);
        check_pass(&traced, report);
        traced_walls.push(traced.wall.as_secs_f64());
        for (s, x) in spans.iter_mut().zip(&traced.spans) {
            s.push(*x);
        }
        let one = run_pass(&single);
        check_pass(&one, report);
        single_walls.push(one.wall.as_secs_f64());
        first.get_or_insert(traced);
        if start.elapsed() + round.elapsed() > budget {
            break;
        }
    }
    let first = first.expect("a pass ran");
    let n = walls.len();
    let span_medians: Vec<f64> = spans.iter().map(|s| median(s).unwrap_or(0.0)).collect();
    let check_s: f64 = span_medians.iter().sum();
    for (name, s) in CONFIGS.iter().zip(&span_medians) {
        report.info(
            format!("span mcheck.check {name}"),
            "s",
            Value::new(*s, format!("median of {n}")),
        );
    }
    let states = sum(&first, |o| o.states);
    report.set(
        "mcheck.check_s",
        Value::new(
            check_s,
            format!("sum of per-config span medians, {n} passes"),
        ),
    );
    report.set(
        "mcheck.states_per_s",
        Value::new(
            states / check_s,
            format!("{states} states / mcheck.check_s"),
        ),
    );
    let wall = median(&walls).expect("a pass ran");
    let one = median(&single_walls).expect("a pass ran");
    report.set(
        "pool.speedup",
        Value::new(
            one / wall,
            format!("1 worker {one:.4} s / {workers} workers {wall:.4} s, medians of {n}"),
        ),
    );
    let traced = median(&traced_walls).expect("a pass ran");
    report.set(
        "trace.overhead_frac",
        Value::new(
            traced / wall - 1.0,
            format!("span-recorded {traced:.4} s / plain {wall:.4} s - 1"),
        ),
    );
    report.set(
        "trace.profile_coverage",
        Value::new(
            check_s / traced,
            format!("sum of spans {check_s:.4} s / traced pass wall {traced:.4} s"),
        ),
    );
    report.set("mcheck.states", Value::new(states, "reduced, all configs"));
    report.set(
        "mcheck.transitions",
        Value::new(sum(&first, |o| o.transitions), "reduced, all configs"),
    );
    report.set(
        "mcheck.por_pruned",
        Value::new(sum(&first, |o| o.por_pruned), "successor edges pruned"),
    );
    let unreduced = run_pass(&opts(workers, false));
    report.attempted += CONFIGS.len() as u64;
    for (name, o) in CONFIGS.iter().zip(&unreduced.outcomes) {
        if o.verdict != "ok" {
            report.fail(format!("{name} unreduced: {}", o.verdict));
        }
    }
    let r = Ratio {
        num_name: "reduced states",
        num: states,
        den_name: "unreduced states",
        den: sum(&unreduced, |o| o.states),
    };
    report.set("mcheck.reduction_ratio", Value::new(r.value(), r.base()));
}
