//! The simulator workloads, `table3_commercial` and `scale_mesh`: their
//! points, the checked point run, and the untraced and traced runs.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use tokencmp_core::Variant;
use tokencmp_net::Tier;
use tokencmp_proto::{Fabric, MsgClass, SystemConfig};
use tokencmp_sim::{Dur, RunOutcome};
use tokencmp_system::{run_workload, Protocol, RunOptions, RunResult};
use tokencmp_workloads::{CommercialParams, CommercialWorkload, LockingWorkload};

use crate::calib::{Calibrator, NOMINAL_S};
use crate::report::{Report, Value};
use crate::stats::{median, spread_note, Ratio};
use crate::{peak_rss_mib, pins, Args, DEFAULT_SEED};

/// Transactions per processor in `table3_commercial`. The presets'
/// default of 100 makes one pass 68 M events (~33 s); 10 keeps a pass
/// (two seeds, 54 points) near 6 s at nominal host speed.
const TABLE3_TXNS: u32 = 10;

/// Workload seeds per `table3_commercial` pass: host time per event
/// depends on the seed by a few per cent, and two seeds per pass halve
/// how much that moves `pass_s` between runs.
const TABLE3_SEEDS: u64 = 2;

/// Lock acquires per core in `scale_mesh` (~2 M events per run).
const SCALE_ACQUIRES: u32 = 2;

/// Runs of the `scale_mesh` point per pass, each with its own workload
/// seed: host time per event depends on the seed by up to ±8 %, and
/// averaging over several seeds keeps `pass_s` comparable across runs.
const SCALE_SEEDS: u64 = 4;

/// Sim-time period of the traced run's gauge sampler.
const SAMPLE_PERIOD: Dur = Dur::from_ns(1_000);

/// Set-ups per run of the traced run; `system.build_s` is their median.
const SETUP_REPS: usize = 51;

/// Set-ups after each timed pass of the untraced run; `setup_s` is the
/// median of all of them.
const SETUP_PER_PASS: usize = 16;

/// Timed passes an untraced run makes even when they overrun
/// `--seconds`, so that `pass_s` is never one pass's figure.
const MIN_TIMED_PASSES: usize = 2;

/// Figure 6: how much faster TokenCMP-dst1 is than DirectoryCMP, in
/// percent, per commercial preset.
const PAPER_DST1_SPEEDUP: [(&str, f64); 3] = [("OLTP", 50.0), ("Apache", 29.0), ("SpecJBB", 10.0)];

/// What a point's processors run.
#[derive(Clone, Copy, Debug)]
pub enum Work {
    /// A commercial preset; the check is `transactions == procs ×
    /// txns_per_proc`.
    Commercial(CommercialParams),
    /// The locking micro-benchmark; the check is `total_acquires ==
    /// procs × acquires`.
    Locking { locks: u32, acquires: u32 },
}

/// One simulated system × protocol × workload.
#[derive(Clone, Debug)]
pub struct Point {
    /// `preset/protocol` (`preset/protocol/seed+i` for `i > 0`), or
    /// `mesh-64x4/protocol/seed+i`.
    pub label: String,
    /// The system.
    pub cfg: SystemConfig,
    /// The protocol.
    pub protocol: Protocol,
    /// The workload.
    pub work: Work,
    /// Added (`<< 32`) to the run's seed to give this point's workload
    /// seed, so one pass can cover several seeds.
    pub seed_offset: u64,
}

impl Point {
    /// This point's workload seed in a run with seed `seed`.
    pub fn seed(&self, seed: u64) -> u64 {
        seed.wrapping_add(self.seed_offset << 32)
    }
}

/// `table3_commercial`: the Table 3 system (4 CMPs × 4 cores, flat
/// fabric, commercial L2 scaling) running every protocol on every
/// commercial preset, caches starting empty.
pub fn table3_points() -> Vec<Point> {
    let cfg = CommercialParams::scaled_config(&SystemConfig::default());
    let mut points = Vec::new();
    for seed_offset in 0..TABLE3_SEEDS {
        for params in CommercialParams::all() {
            let params = CommercialParams {
                txns_per_proc: TABLE3_TXNS,
                ..params
            };
            for protocol in Protocol::ALL {
                let mut label = format!("{}/{}", params.name, protocol.name());
                if seed_offset > 0 {
                    label.push_str(&format!("/seed+{seed_offset}"));
                }
                points.push(Point {
                    label,
                    cfg: cfg.clone(),
                    protocol,
                    work: Work::Commercial(params),
                    seed_offset,
                });
            }
        }
    }
    points
}

/// `scale_mesh`: 64 CMPs × 4 cores on the 8 × 8 mesh, TokenCMP-dst1,
/// locking with one lock per four cores (the 64×4 point of the
/// `scalability` bench), once per seed of [`SCALE_SEEDS`].
pub fn scale_mesh_points() -> Vec<Point> {
    let mut cfg = SystemConfig {
        cmps: 64,
        procs_per_cmp: 4,
        banks_per_cmp: 4,
        fabric: Fabric::Mesh { cols: 8 },
        ..SystemConfig::default()
    };
    cfg.tokens_per_block = (cfg.layout().caches() + 1).next_power_of_two();
    let procs = cfg.layout().procs();
    (0..SCALE_SEEDS)
        .map(|i| Point {
            label: format!("mesh-64x4/TokenCMP-dst1/seed+{i}"),
            cfg: cfg.clone(),
            protocol: Protocol::Token(Variant::Dst1),
            work: Work::Locking {
                locks: procs / 4,
                acquires: SCALE_ACQUIRES,
            },
            seed_offset: i,
        })
        .collect()
}

/// FNV-1a over a run's observable results: outcome, simulated runtime,
/// event count, per-tier/per-class traffic and the full counter
/// registry (the recipe of `examples/golden_fp.rs`).
pub fn fingerprint(res: &RunResult) -> u64 {
    let mut s = format!(
        "outcome={:?} runtime_ps={} events={}\n",
        res.outcome,
        res.runtime.as_ps(),
        res.events
    );
    for tier in Tier::ALL {
        for class in MsgClass::ALL {
            s.push_str(&format!(
                "traffic {tier:?} {class:?} bytes={} msgs={}\n",
                res.traffic.bytes(tier, class),
                res.traffic.msgs(tier, class)
            ));
        }
    }
    s.push_str(&format!("{}", res.counters));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A point run and its verdict.
#[derive(Debug)]
pub struct PointRun {
    /// The result; `None` when the run panicked (e.g. a failed audit).
    pub result: Option<RunResult>,
    /// [`fingerprint`] of the result (0 without one).
    pub fp: u64,
    /// Why the point failed, if it did.
    pub failure: Option<String>,
}

impl PointRun {
    /// Judges a finished run: it fails on a non-`Idle` outcome or a
    /// failed workload check.
    pub fn judge(result: RunResult, check: Result<(), String>) -> PointRun {
        let failure = if result.outcome != RunOutcome::Idle {
            Some(format!("outcome {:?}, not Idle", result.outcome))
        } else {
            check.err()
        };
        PointRun {
            fp: fingerprint(&result),
            result: Some(result),
            failure,
        }
    }

    /// Fails the point if its fingerprint differs from `want`.
    pub fn expect_fp(&mut self, want: Option<u64>, against: &str) {
        if let Some(want) = want {
            if self.failure.is_none() && self.fp != want {
                self.failure = Some(format!(
                    "fingerprint 0x{:016x} != {against} 0x{want:016x}",
                    self.fp
                ));
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".into())
}

/// Runs one point in a run with seed `seed` and checks it. A panic
/// (the quiescence audit panics on a broken invariant) is a failure.
pub fn run_point(p: &Point, seed: u64, opts: &RunOptions) -> PointRun {
    let procs = p.cfg.layout().procs();
    let seed = p.seed(seed);
    let opts = &RunOptions { seed, ..*opts };
    let caught = panic::catch_unwind(AssertUnwindSafe(|| match p.work {
        Work::Commercial(params) => {
            let wl = CommercialWorkload::new(procs, params, seed);
            let (res, wl) = run_workload(&p.cfg, p.protocol, wl, opts);
            let want = procs as u64 * params.txns_per_proc as u64;
            let check = if wl.transactions == want {
                Ok(())
            } else {
                Err(format!("transactions {} != {want}", wl.transactions))
            };
            (res, check)
        }
        Work::Locking { locks, acquires } => {
            let wl = LockingWorkload::new(procs, locks, acquires, seed);
            let (res, wl) = run_workload(&p.cfg, p.protocol, wl, opts);
            let want = procs as u64 * acquires as u64;
            let check = if wl.total_acquires == want {
                Ok(())
            } else {
                Err(format!("acquires {} != {want}", wl.total_acquires))
            };
            (res, check)
        }
    }));
    match caught {
        Ok((res, check)) => PointRun::judge(res, check),
        Err(payload) => PointRun {
            result: None,
            fp: 0,
            failure: Some(format!("panicked: {}", panic_message(payload.as_ref()))),
        },
    }
}

/// Builds and tears down every point's system once, through a
/// `run_workload` call capped at one event. Returns the wall time.
fn setup_once(points: &[Point], seed: u64, report: &mut Report) -> Duration {
    let opts = RunOptions {
        max_events: 1,
        ..RunOptions::default()
    };
    let start = Instant::now();
    for p in points {
        let run = run_point(p, seed, &opts);
        let outcome = run.result.as_ref().map(|r| r.outcome);
        if outcome != Some(RunOutcome::EventLimit) {
            report.fail(format!(
                "{}: set-up run ended {outcome:?}, not EventLimit ({})",
                p.label,
                run.failure.unwrap_or_default()
            ));
        }
    }
    start.elapsed()
}

/// One pass over every point.
struct Pass {
    wall: Duration,
    runs: Vec<PointRun>,
}

fn run_pass(points: &[Point], seed: u64, opts: &RunOptions) -> Pass {
    let start = Instant::now();
    let runs = points.iter().map(|p| run_point(p, seed, opts)).collect();
    Pass {
        wall: start.elapsed(),
        runs,
    }
}

/// The fingerprints every pass must reproduce: the pinned ones at the
/// default seed, else (checks still apply) none until a first pass.
/// Also names what they are.
fn pinned_fps(points: &[Point], seed: u64) -> (Vec<Option<u64>>, &'static str) {
    let against = if seed == DEFAULT_SEED {
        "pinned"
    } else {
        "first pass"
    };
    let fps = points
        .iter()
        .map(|p| {
            if seed == DEFAULT_SEED {
                // A point without a pin fails against 0.
                Some(pins::sim_fp(&p.label).unwrap_or(0))
            } else {
                None
            }
        })
        .collect();
    (fps, against)
}

/// Checks a pass against `want` (pinned, or the first pass's own), then
/// records its failures; the first pass fills in unpinned references.
fn check_pass(
    pass: &mut Pass,
    points: &[Point],
    want: &mut [Option<u64>],
    against: &str,
    report: &mut Report,
) {
    for ((run, p), want) in pass.runs.iter_mut().zip(points).zip(want.iter_mut()) {
        report.attempted += 1;
        run.expect_fp(*want, against);
        if want.is_none() && run.failure.is_none() {
            *want = Some(run.fp);
        }
        if let Some(f) = &run.failure {
            report.fail(format!("{}: {f}", p.label));
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn counter_sum<'a>(runs: impl Iterator<Item = &'a RunResult>, key: &str) -> f64 {
    runs.map(|r| r.counters.counter(key) as f64).sum()
}

fn results<'a>(
    points: &'a [Point],
    pass: &'a Pass,
    keep: impl Fn(Protocol) -> bool + 'a,
) -> impl Iterator<Item = &'a RunResult> + 'a {
    points
        .iter()
        .zip(&pass.runs)
        .filter(move |(p, _)| keep(p.protocol))
        .filter_map(|(_, r)| r.result.as_ref())
}

fn is_token(p: Protocol) -> bool {
    matches!(p, Protocol::Token(_))
}

fn is_directory(p: Protocol) -> bool {
    matches!(p, Protocol::Directory | Protocol::DirectoryZero)
}

/// L1 accesses (`l1.hits + l1.misses`) over a pass.
fn accesses(points: &[Point], pass: &Pass) -> f64 {
    counter_sum(results(points, pass, |_| true), "l1.hits")
        + counter_sum(results(points, pass, |_| true), "l1.misses")
}

/// Per-preset gap between the simulated "dst1 faster than
/// DirectoryCMP" speed-up and Figure 6, in percentage points.
fn paper_gaps(points: &[Point], pass: &Pass) -> Vec<(&'static str, f64, f64)> {
    let runtime = |label: String| {
        points
            .iter()
            .zip(&pass.runs)
            .find(|(p, _)| p.label == label)
            .and_then(|(_, r)| r.result.as_ref())
            .map(|r| r.runtime.as_ps() as f64)
    };
    PAPER_DST1_SPEEDUP
        .iter()
        .filter_map(|&(preset, paper)| {
            let dir = runtime(format!("{preset}/{}", Protocol::Directory.name()))?;
            let dst1 = runtime(format!("{preset}/{}", Variant::Dst1.name()))?;
            Some((preset, 100.0 * (dir / dst1 - 1.0), paper))
        })
        .collect()
}

/// The untraced run: a warm-up pass (checked; it gives the peak RSS),
/// then calibrated passes for `--seconds`, each followed by set-ups.
pub fn run_untraced(points: &[Point], args: &Args, report: &mut Report) {
    let opts = RunOptions::default();
    let (mut want, against) = pinned_fps(points, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut first = run_pass(points, args.seed, &opts);
    check_pass(&mut first, points, &mut want, against, report);
    // Read before the reference kernel allocates anything.
    let rss = peak_rss_mib();
    let mut cal = Calibrator::new();
    let (mut walls, mut nominal_walls, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let round = Instant::now();
        let mut pass = Pass {
            wall: Duration::ZERO,
            runs: Vec::with_capacity(points.len()),
        };
        let mut nominal = 0.0;
        for p in points {
            let (run, span) = cal.span(|| run_point(p, args.seed, &opts));
            pass.wall += Duration::from_secs_f64(span.raw);
            nominal += span.nominal;
            pass.runs.push(run);
        }
        check_pass(&mut pass, points, &mut want, against, report);
        walls.push(secs(pass.wall));
        nominal_walls.push(nominal);
        // Set-up is timed after a pass, on a warm process, so that it
        // measures the build and not the process start.
        setups.extend(cal.batch(SETUP_PER_PASS, || {
            setup_once(points, args.seed, report);
        }));
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
                "{} capped build+teardown calls at nominal host speed, {}",
                points.len(),
                spread_note(&setups)
            ),
        ),
    );
    report.set(
        "peak_rss_mib",
        Value::new(rss, "process peak resident set after the warm-up pass"),
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
    let acc = accesses(points, &first);
    report.info(
        "accesses_per_s",
        "1/s",
        Value::new(acc / raw, format!("{acc} L1 accesses per pass / wall_s")),
    );
    let failed = report.failures.len() as f64;
    report.info(
        "failed_frac",
        "fraction",
        Value::new(
            failed / report.attempted.max(1) as f64,
            format!("{failed} failed / {} attempted points", report.attempted),
        ),
    );
    let gaps = paper_gaps(points, &first);
    if !gaps.is_empty() {
        let mean = gaps.iter().map(|(_, s, p)| (s - p).abs()).sum::<f64>() / gaps.len() as f64;
        let per: Vec<String> = gaps
            .iter()
            .map(|(n, s, p)| format!("{n} {s:.1}% vs {p:.0}% ({:.1} pp)", (s - p).abs()))
            .collect();
        report.info(
            "paper_gap_pp",
            "pp",
            Value::new(mean, format!("dst1 vs DirectoryCMP: {}", per.join(", "))),
        );
    }
    let events: u64 = first
        .runs
        .iter()
        .filter_map(|r| r.result.as_ref())
        .map(|r| r.events)
        .sum();
    report.info(
        "events_per_pass",
        "count",
        Value::new(events as f64, "simulated events, all points"),
    );
    for (p, r) in points.iter().zip(&first.runs) {
        report.line(format!("fp {:<36} 0x{:016x}", p.label, r.fp));
    }
}

/// Per-layer host time of one traced pass, from the profiler.
#[derive(Default)]
struct LayerTimes {
    events: f64,
    /// Kernel categories: estimated ns over the pass.
    kernel: BTreeMap<&'static str, f64>,
    /// Handler layers: (estimated ns, estimated calls).
    handlers: BTreeMap<&'static str, (f64, f64)>,
    attributed_ns: f64,
}

/// The per-layer name of a profiler handler category for a protocol.
fn handler_layer(protocol: Protocol, category: &str) -> Option<&'static str> {
    let kind = category.strip_prefix("handler.")?;
    Some(match (protocol, kind) {
        (_, "seq") => "system.seq",
        (Protocol::PerfectL2, "perfect_l2") => "system.perfect_l2",
        (Protocol::Token(_), "l1") => "core.l1",
        (Protocol::Token(_), "l2") => "core.l2",
        (Protocol::Token(_), "mem") => "core.mem",
        (Protocol::Directory | Protocol::DirectoryZero, "l1") => "directory.l1",
        (Protocol::Directory | Protocol::DirectoryZero, "l2") => "directory.l2",
        (Protocol::Directory | Protocol::DirectoryZero, "home") => "directory.home",
        _ => return None,
    })
}

fn layer_times(points: &[Point], pass: &Pass) -> LayerTimes {
    let mut t = LayerTimes::default();
    for (p, run) in points.iter().zip(&pass.runs) {
        let Some(prof) = run.result.as_ref().and_then(|r| r.profile.as_ref()) else {
            continue;
        };
        t.events += prof.events as f64;
        t.attributed_ns += prof.attributed_ns() as f64;
        let scale = prof.events as f64 / prof.sampled_events.max(1) as f64;
        for e in &prof.entries {
            for cat in ["sched.pop", "sched.push", "net.dispatch"] {
                if e.category == cat {
                    *t.kernel.entry(cat).or_default() += e.est_ns as f64;
                }
            }
            if let Some(layer) = handler_layer(p.protocol, &e.category) {
                let slot = t.handlers.entry(layer).or_default();
                slot.0 += e.est_ns as f64;
                slot.1 += e.calls as f64 * scale;
            }
        }
    }
    t
}

/// The `kernel.queue_depth` gauge over a sampled pass: maximum, sum
/// and sample count.
fn queue_depth(pass: &Pass) -> (f64, f64, f64) {
    let mut depth = (0.0f64, 0.0, 0.0);
    let series = pass
        .runs
        .iter()
        .filter_map(|r| r.result.as_ref()?.series.as_ref());
    for s in series.flat_map(|s| &s.samples) {
        if let Some(&d) = s.gauges.get("kernel.queue_depth") {
            depth = (depth.0.max(d as f64), depth.1 + d as f64, depth.2 + 1.0);
        }
    }
    depth
}

/// The traced run: untraced and profiled passes alternate for
/// `--seconds`, then one pass runs with the gauge sampler (it costs
/// more than the profiler, so it is kept out of the timed layers).
/// Every traced pass must reproduce the untraced fingerprints.
pub fn run_traced(points: &[Point], args: &Args, report: &mut Report) {
    let plain = RunOptions::default();
    let traced = plain.with_profiling();
    let (mut want, against) = pinned_fps(points, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut layers = Vec::new();
    let mut first: Option<Pass> = None;
    loop {
        let mut pass = run_pass(points, args.seed, &plain);
        check_pass(&mut pass, points, &mut want, against, report);
        plain_walls.push(secs(pass.wall));
        let mut tpass = run_pass(points, args.seed, &traced);
        check_pass(&mut tpass, points, &mut want, against, report);
        traced_walls.push(secs(tpass.wall));
        layers.push((secs(tpass.wall), layer_times(points, &tpass)));
        let last = pass.wall + tpass.wall;
        if first.is_none() {
            first = Some(pass);
        }
        if start.elapsed() + last > budget {
            break;
        }
    }
    let first = first.expect("at least one pass ran");
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| secs(setup_once(points, args.seed, report)))
        .collect();
    let mut sampled = run_pass(points, args.seed, &plain.with_sampling(SAMPLE_PERIOD));
    check_pass(&mut sampled, points, &mut want, against, report);
    let plain_wall = median(&plain_walls).expect("a pass ran");
    let traced_wall = median(&traced_walls).expect("a pass ran");
    let n = layers.len();
    let med = |f: &dyn Fn(&LayerTimes, f64) -> f64| {
        let xs: Vec<f64> = layers.iter().map(|(w, l)| f(l, *w)).collect();
        median(&xs).unwrap_or(0.0)
    };

    let events: f64 = results(points, &first, |_| true)
        .map(|r| r.events as f64)
        .sum();
    report.set(
        "sim.ns_per_event",
        Value::new(
            plain_wall * 1e9 / events.max(1.0),
            format!("untraced pass wall / {events} events, median of {n} passes"),
        ),
    );
    for (name, cat) in [
        ("sim.sched_pop_ns_per_event", "sched.pop"),
        ("sim.sched_push_ns_per_event", "sched.push"),
        ("net.dispatch_ns_per_event", "net.dispatch"),
    ] {
        let v = med(&|l, _| l.kernel.get(cat).copied().unwrap_or(0.0) / l.events.max(1.0));
        report.set(
            name,
            Value::new(v, format!("profiler {cat} / events, median of {n}")),
        );
    }
    for (name, layer) in [
        ("core.l1_ns_per_call", "core.l1"),
        ("core.l2_ns_per_call", "core.l2"),
        ("core.mem_ns_per_call", "core.mem"),
        ("directory.l1_ns_per_call", "directory.l1"),
        ("directory.l2_ns_per_call", "directory.l2"),
        ("directory.home_ns_per_call", "directory.home"),
        ("system.seq_ns_per_call", "system.seq"),
        ("system.perfect_l2_ns_per_call", "system.perfect_l2"),
    ] {
        if layers.iter().any(|(_, l)| l.handlers.contains_key(layer)) {
            let v = med(&|l, _| {
                let (ns, calls) = l.handlers.get(layer).copied().unwrap_or((0.0, 0.0));
                ns / calls.max(1.0)
            });
            let calls = layers[0].1.handlers.get(layer).map_or(0.0, |h| h.1);
            report.set(
                name,
                Value::new(
                    v,
                    format!("handler self time / ~{calls:.0} calls, median of {n}"),
                ),
            );
        }
    }
    report.set(
        "system.build_s",
        Value::new(
            median(&setups).expect("set-up ran") / points.len() as f64,
            format!("set-up per system, median of {SETUP_REPS}"),
        ),
    );
    report.set(
        "trace.overhead_frac",
        Value::new(
            traced_wall / plain_wall - 1.0,
            format!("traced {traced_wall:.4} s / untraced {plain_wall:.4} s - 1, medians of {n}"),
        ),
    );
    report.set(
        "trace.profile_coverage",
        Value::new(
            med(&|l, w| l.attributed_ns / 1e9 / w),
            format!("profiler-attributed ns / traced pass wall, median of {n}"),
        ),
    );

    // Exact counts: identical on every pass, taken from the first.
    let all = |_: Protocol| true;
    report.set("sim.events", Value::new(events, "all points"));
    let (depth_max, depth_sum, samples) = queue_depth(&sampled);
    report.set(
        "sim.queue_depth_max",
        Value::new(
            depth_max,
            format!(
                "kernel.queue_depth gauge every {} ns of sim time, {samples} samples",
                SAMPLE_PERIOD.as_ps() / 1000
            ),
        ),
    );
    let depth = Ratio {
        num_name: "sum kernel.queue_depth",
        num: depth_sum,
        den_name: "samples",
        den: samples,
    };
    report.set(
        "sim.queue_depth_mean",
        Value::new(depth.value(), depth.base()),
    );
    report.info(
        "trace.sampler_overhead_frac",
        "fraction",
        Value::new(
            secs(sampled.wall) / plain_wall - 1.0,
            format!(
                "one sampled pass {:.4} s / untraced {plain_wall:.4} s - 1",
                secs(sampled.wall)
            ),
        ),
    );
    let traffic = |tier: Tier, bytes: bool| -> f64 {
        results(points, &first, all)
            .map(|r| {
                MsgClass::ALL
                    .iter()
                    .map(|&c| {
                        if bytes {
                            r.traffic.bytes(tier, c)
                        } else {
                            r.traffic.msgs(tier, c)
                        }
                    })
                    .sum::<u64>() as f64
            })
            .sum()
    };
    report.set(
        "net.intra_msgs",
        Value::new(traffic(Tier::Intra, false), "all classes"),
    );
    report.set(
        "net.inter_msgs",
        Value::new(traffic(Tier::Inter, false), "all classes"),
    );
    report.set(
        "net.inter_bytes",
        Value::new(traffic(Tier::Inter, true), "all classes"),
    );
    let ratio =
        |num_name: &'static str, den_name: &'static str, keep: fn(Protocol) -> bool| Ratio {
            num_name,
            num: counter_sum(results(points, &first, keep), num_name),
            den_name,
            den: counter_sum(results(points, &first, keep), den_name),
        };
    let mut set_ratio = |name: &'static str, r: Ratio| {
        if r.den > 0.0 {
            report.set(name, Value::new(r.value(), r.base()));
        }
    };
    set_ratio(
        "net.inter_wait_ps_per_miss",
        ratio("lat.inter.ps_sum", "lat.total.count", all),
    );
    set_ratio(
        "core.retry_ratio",
        ratio("l1.retries", "l1.transient", is_token),
    );
    set_ratio(
        "core.persistent_per_miss",
        ratio("l1.persistent", "l1.misses", is_token),
    );
    set_ratio(
        "core.l2_external_per_local",
        ratio("l2.external_requests", "l2.local_requests", is_token),
    );
    set_ratio(
        "directory.forward_ratio",
        ratio("home.forwarded", "home.requests", is_directory),
    );
    let hits = counter_sum(results(points, &first, all), "l1.hits");
    set_ratio(
        "cache.l1_hit_ratio",
        Ratio {
            num_name: "l1.hits",
            num: hits,
            den_name: "l1.hits+l1.misses",
            den: accesses(points, &first),
        },
    );
    if points.iter().any(|p| is_directory(p.protocol)) {
        report.set(
            "cache.l2_evictions",
            Value::new(
                counter_sum(results(points, &first, is_directory), "l2.evictions"),
                "DirectoryCMP L2s; the token L2 exports no eviction counter",
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `p` shortened to one transaction per processor.
    fn one_txn(p: &Point) -> Point {
        let work = match p.work {
            Work::Commercial(params) => Work::Commercial(CommercialParams {
                txns_per_proc: 1,
                ..params
            }),
            w => w,
        };
        Point { work, ..p.clone() }
    }

    fn result_of(label: &str, seed: u64) -> RunResult {
        let p = table3_points()
            .into_iter()
            .find(|p| p.label == label)
            .expect("known point");
        let run = run_point(&one_txn(&p), seed, &RunOptions::default());
        assert!(run.failure.is_none(), "{:?}", run.failure);
        run.result.expect("finished")
    }

    /// The recipe reproduces the Table 3 golden fingerprints pinned in
    /// `tests/topology_prop.rs`.
    #[test]
    fn fingerprint_matches_repository_goldens() {
        let cfg = SystemConfig::default();
        let wl = LockingWorkload::new(16, 4, 6, 0xA11CE);
        let (res, _) = run_workload(
            &cfg,
            Protocol::Token(Variant::Dst1),
            wl,
            &RunOptions::default(),
        );
        assert_eq!(fingerprint(&res), 0x13ee_9a6b_3dd9_0e9f);
        let wl = LockingWorkload::new(16, 4, 6, 0xA11CE);
        let (res, _) = run_workload(&cfg, Protocol::Directory, wl, &RunOptions::default());
        assert_eq!(fingerprint(&res), 0x8cbd_f2da_e48b_7143);
    }

    #[test]
    fn every_point_is_pinned() {
        for p in table3_points().iter().chain(&scale_mesh_points()) {
            assert!(pins::sim_fp(&p.label).is_some(), "{} has no pin", p.label);
        }
    }

    #[test]
    fn perturbed_fingerprint_fails_the_point() {
        let res = result_of("SpecJBB/TokenCMP-dst1", 3);
        let mut run = PointRun::judge(res, Ok(()));
        let fp = run.fp;
        run.expect_fp(Some(fp), "pinned");
        assert!(run.failure.is_none());
        run.expect_fp(Some(fp ^ 1), "pinned");
        assert!(run.failure.as_deref().unwrap().contains("!= pinned"));
    }

    #[test]
    fn non_idle_outcome_or_failed_check_fails_the_point() {
        let mut res = result_of("SpecJBB/DirectoryCMP", 3);
        assert!(PointRun::judge(res.clone(), Ok(())).failure.is_none());
        let bad = PointRun::judge(res.clone(), Err("transactions 1 != 16".into()));
        assert_eq!(bad.failure.as_deref(), Some("transactions 1 != 16"));
        res.outcome = RunOutcome::Stalled;
        let stalled = PointRun::judge(res, Ok(()));
        assert!(stalled.failure.as_deref().unwrap().contains("Stalled"));
    }

    #[test]
    fn capped_run_is_an_event_limit_not_a_pass() {
        let p = &scale_mesh_points()[0];
        let opts = RunOptions {
            max_events: 1,
            ..RunOptions::default()
        };
        let run = run_point(p, 1, &opts);
        assert_eq!(run.result.map(|r| r.outcome), Some(RunOutcome::EventLimit));
        assert!(run.failure.is_some());
    }

    #[test]
    fn ratio_bases_are_the_named_counters() {
        let points = table3_points();
        let mut pass = Pass {
            wall: Duration::from_secs(1),
            runs: Vec::new(),
        };
        for p in &points {
            pass.runs
                .push(run_point(&one_txn(p), 5, &RunOptions::default()));
        }
        let sum = |key: &str, keep: fn(Protocol) -> bool| -> u64 {
            points
                .iter()
                .zip(&pass.runs)
                .filter(|(p, _)| keep(p.protocol))
                .map(|(_, r)| r.result.as_ref().unwrap().counters.counter(key))
                .sum()
        };
        let acc = accesses(&points, &pass);
        assert_eq!(
            acc,
            (sum("l1.hits", |_| true) + sum("l1.misses", |_| true)) as f64
        );
        assert!(sum("l1.transient", is_token) > 0);
        assert!(sum("home.requests", is_directory) > 0);
        assert_eq!(
            sum("home.requests", is_token),
            0,
            "token points have no home"
        );
        let gaps = paper_gaps(&points, &pass);
        assert_eq!(gaps.len(), 3);
        for (preset, speedup, paper) in gaps {
            let dir = sum_runtime(&points, &pass, &format!("{preset}/DirectoryCMP"));
            let dst1 = sum_runtime(&points, &pass, &format!("{preset}/TokenCMP-dst1"));
            assert_eq!(speedup, 100.0 * (dir / dst1 - 1.0));
            assert!(paper > 0.0);
        }
    }

    fn sum_runtime(points: &[Point], pass: &Pass, label: &str) -> f64 {
        points
            .iter()
            .zip(&pass.runs)
            .find(|(p, _)| p.label == label)
            .map(|(_, r)| r.result.as_ref().unwrap().runtime.as_ps() as f64)
            .unwrap()
    }

    #[test]
    fn handler_categories_map_to_their_layers() {
        let dst1 = Protocol::Token(Variant::Dst1);
        assert_eq!(handler_layer(dst1, "handler.l1"), Some("core.l1"));
        assert_eq!(
            handler_layer(Protocol::DirectoryZero, "handler.l1"),
            Some("directory.l1")
        );
        assert_eq!(
            handler_layer(Protocol::Directory, "handler.home"),
            Some("directory.home")
        );
        assert_eq!(
            handler_layer(Protocol::PerfectL2, "handler.seq"),
            Some("system.seq")
        );
        assert_eq!(handler_layer(dst1, "sched.pop"), None);
        assert_eq!(handler_layer(dst1, "handler.home"), None);
    }
}
