//! Kernel throughput on the paper's Table 3 system, events/sec, and the
//! host cost of the simulator structures under it.
//!
//! Each `table3/<protocol>` cell is a full locking run on the Table 3
//! system, wall-timed end to end, recorded into the committed trajectory
//! file `BENCH_kernel.json` (see `tokencmp_bench::kernel`) together with
//! the host-time profile of a separate profiled run. Each `layer/<name>`
//! cell times one structure in isolation — event queue, `SetAssoc`,
//! `DistTable`, rng — with `events` counting its operations (defined
//! per cell below) and no profile.
//!
//! Modes:
//! * default — all nine protocols and every layer cell; merges results
//!   into `BENCH_kernel.json` under the `TOKENCMP_BENCH_RUN` label
//!   (default `dev`).
//! * `TOKENCMP_BENCH_SMOKE=1` — CI-sized runs, two protocols, layer
//!   cells at 1/100 of their iterations, and results written to a
//!   scratch file in the system temp dir.
//! * `--validate [path]` — no measurement: schema-validate the file
//!   (default: the committed trajectory) and summarise every recorded
//!   run.

use std::hint::black_box;
use std::time::{Duration, Instant};

use tokencmp::cache::SetAssoc;
use tokencmp::core::{DistTable, ReqKind};
use tokencmp::proto::ProcId;
use tokencmp::sim::{EventKind, EventQueue, NodeId, Rng, Time};
use tokencmp::{
    run_workload, Block, LockingWorkload, Protocol, RunOptions, RunOutcome, SystemConfig,
};
use tokencmp_bench::banner;
use tokencmp_bench::kernel::KernelBenchEntry;
use tokencmp_bench::trajectory;

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

/// How this invocation times its layer cells.
struct Layers<'a> {
    run: &'a str,
    reps: u32,
    /// Divides every cell's iteration count (smoke mode).
    shrink: u64,
}

impl Layers<'_> {
    /// One layer cell: `iters` calls of `iter`, each performing
    /// `ops_per_iter` operations, timed as a whole; best of `reps`,
    /// like the protocol runs.
    fn cell(
        &self,
        name: &str,
        iters: u64,
        ops_per_iter: u64,
        mut iter: impl FnMut(),
    ) -> KernelBenchEntry {
        let iters = (iters / self.shrink).max(1);
        let mut best = Duration::MAX;
        for _ in 0..self.reps {
            let start = Instant::now();
            for _ in 0..iters {
                iter();
            }
            best = best.min(start.elapsed());
        }
        let bench = format!("layer/{name}");
        KernelBenchEntry::measured(self.run, bench, iters * ops_per_iter, best)
    }
}

/// Hold model at the depth a 64 × 4 mesh run keeps pending (mean
/// ~38 k): each operation pops the earliest event and pushes one a
/// random delay after it, so the depth stays at `DEPTH`.
fn event_queue_hold() -> impl FnMut() {
    const DEPTH: u64 = 48_000;
    let mut rng = Rng::new(11);
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..DEPTH {
        q.push(
            Time::from_ps(rng.below(1_000_000)),
            NodeId(0),
            EventKind::Wake { tag: i },
        );
    }
    move || {
        for _ in 0..1000 {
            let e = q.pop().expect("held at DEPTH");
            let t = Time::from_ps(e.time.as_ps() + rng.below(1_000_000));
            q.push(t, e.dst, e.kind);
        }
        black_box(q.len());
    }
}

/// A `procs`-slot table at the occupancy of the 64 × 4 mesh (about
/// 46 % of slots live, about 2.25 entries per live block). Each
/// operation moves one live processor to a new request (deactivate,
/// then activate on a fresh block) and resolves 16 blocks, half of them
/// absent from the table.
fn dist_table_at_scale(procs: usize) -> impl FnMut() {
    let mut rng = Rng::new(procs as u64);
    let live = procs * 46 / 100;
    let blocks = (live as u64 * 4).div_ceil(9);
    let mut holders: Vec<u16> = (0..procs as u16).collect();
    for i in (1..holders.len()).rev() {
        holders.swap(i, rng.below(i as u64 + 1) as usize);
    }
    holders.truncate(live);
    let mut t = DistTable::new(procs);
    let mut epoch = vec![1u64; procs];
    for &p in &holders {
        let blk = Block(rng.below(blocks));
        t.activate(ProcId(p), blk, NodeId(u32::from(p)), ReqKind::Write, 1);
    }
    let probes: Vec<Block> = (0..4096).map(|_| Block(rng.below(2 * blocks))).collect();
    let mut next = 0usize;
    move || {
        let p = holders[next % live];
        let e = &mut epoch[p as usize];
        t.deactivate(ProcId(p), *e);
        *e += 1;
        let blk = Block(rng.below(blocks));
        t.activate(ProcId(p), blk, NodeId(u32::from(p)), ReqKind::Write, *e);
        let at = (next * 16) % probes.len();
        for &blk in &probes[at..at + 16] {
            black_box(t.active_for(blk));
        }
        next += 1;
    }
}

/// Every `layer/*` cell.
fn layer_cells(l: &Layers) -> Vec<KernelBenchEntry> {
    let mut rng = Rng::new(7);
    let times: Vec<u64> = (0..1000).map(|_| rng.below(1_000_000)).collect();
    let mut rng = Rng::new(9);
    let blocks: Vec<Block> = (0..4096).map(|_| Block(rng.below(1 << 20))).collect();
    let mut rng = Rng::new(3);
    vec![
        // Operation: one event pushed into a fresh queue and popped.
        l.cell("event_queue_push_pop_1k", 200, 1000, || {
            let mut q: EventQueue<u32> = EventQueue::new();
            for &t in &times {
                q.push(Time::from_ps(t), NodeId(0), EventKind::Wake { tag: t });
            }
            while let Some(e) = q.pop() {
                black_box(e.time);
            }
        }),
        // Operation: one pop + push at 48 k pending.
        l.cell("event_queue_hold_48k", 200, 1000, event_queue_hold()),
        // Operation: one insert + get into a fresh 512-set, 4-way array.
        l.cell("set_assoc_insert_get_4k", 50, 4096, || {
            let mut arr: SetAssoc<u32> = SetAssoc::new(512, 4, 0);
            for (i, &blk) in blocks.iter().enumerate() {
                arr.insert(blk, i as u32);
                black_box(arr.get(blk));
            }
            black_box(arr.len());
        }),
        // Operation: 16 activations on 4 blocks, 4 resolves, 16
        // deactivations on a fresh 16-slot table.
        l.cell("dist_table_16p", 100_000, 1, || {
            let mut t = DistTable::new(16);
            for p in 0..16u16 {
                t.activate(
                    ProcId(p),
                    Block(u64::from(p % 4)),
                    NodeId(20 + u32::from(p)),
                    ReqKind::Write,
                    1,
                );
            }
            for blk in 0..4u64 {
                black_box(t.active_for(Block(blk)));
            }
            for p in 0..16u16 {
                t.deactivate(ProcId(p), 1);
            }
        }),
        // Operation: one move + 16 resolves (see `dist_table_at_scale`).
        l.cell("dist_table_256p", 20_000, 1, dist_table_at_scale(256)),
        l.cell("dist_table_1024p", 20_000, 1, dist_table_at_scale(1024)),
        // Operation: one `next_u64`.
        l.cell("rng_next_u64", 10_000, 1000, || {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc ^= rng.next_u64();
            }
            black_box(acc);
        }),
    ]
}

fn print_table(entries: &[KernelBenchEntry]) {
    println!(
        "{:<32} {:>12} {:>14} {:>12}",
        "bench", "events", "events/sec", "ns/event"
    );
    for e in entries {
        println!(
            "{:<32} {:>12} {:>14.3e} {:>12.1}",
            e.bench, e.events, e.events_per_sec, e.ns_per_event
        );
    }
}

fn main() {
    let inv = trajectory::invocation::<KernelBenchEntry>();
    banner(
        "kernel_throughput",
        "kernel events/sec trajectory (infrastructure, not a paper figure)",
    );
    let (protocols, acquires, reps, shrink): (Vec<Protocol>, u32, u32, u64) = if inv.smoke {
        (vec![Protocol::ALL[0], Protocol::Directory], 8, 1, 100)
    } else {
        (Protocol::ALL.to_vec(), 24, 3, 1)
    };

    let mut fresh: Vec<KernelBenchEntry> = protocols
        .iter()
        .map(|&p| protocol_run(&inv.run, p, acquires, reps))
        .collect();
    fresh.extend(layer_cells(&Layers {
        run: &inv.run,
        reps,
        shrink,
    }));
    print_table(&fresh);
    inv.append(fresh);
}
