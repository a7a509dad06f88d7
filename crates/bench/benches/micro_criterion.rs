//! Criterion micro-benchmarks of the simulator's hot data structures and
//! an end-to-end throughput measurement (host-time performance of the
//! simulator itself, not simulated-time results — those live in the
//! figure/table harnesses).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use tokencmp::cache::SetAssoc;
use tokencmp::core::{DistTable, ReqKind};
use tokencmp::proto::ProcId;
use tokencmp::sim::{EventKind, EventQueue, NodeId, Rng, Time};
use tokencmp::system::ScriptedWorkload;
use tokencmp::{
    run_workload, AccessKind, Block, LockingWorkload, Protocol, RunOptions, SystemConfig, Variant,
};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        let mut rng = Rng::new(7);
        let times: Vec<u64> = (0..1000).map(|_| rng.below(1_000_000)).collect();
        b.iter(|| {
            let mut q: EventQueue<u32> = EventQueue::new();
            for &t in &times {
                q.push(Time::from_ps(t), NodeId(0), EventKind::Wake { tag: t });
            }
            while let Some(e) = q.pop() {
                black_box(e.time);
            }
        });
    });
    // Hold model at the depth a 64 × 4 mesh run keeps pending (mean
    // ~38 k): each op pops the earliest event and pushes one a random
    // delay after it, so the depth stays at `DEPTH`.
    const DEPTH: u64 = 48_000;
    c.bench_function("event_queue_hold_48k_pending_1k_ops", |b| {
        let mut rng = Rng::new(11);
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..DEPTH {
            q.push(
                Time::from_ps(rng.below(1_000_000)),
                NodeId(0),
                EventKind::Wake { tag: i },
            );
        }
        b.iter(|| {
            for _ in 0..1000 {
                let e = q.pop().expect("held at DEPTH");
                let t = Time::from_ps(e.time.as_ps() + rng.below(1_000_000));
                q.push(t, e.dst, e.kind);
            }
            black_box(q.len())
        });
    });
}

fn bench_cache_array(c: &mut Criterion) {
    c.bench_function("set_assoc_insert_get_4k", |b| {
        let mut rng = Rng::new(9);
        let blocks: Vec<Block> = (0..4096).map(|_| Block(rng.below(1 << 20))).collect();
        b.iter(|| {
            let mut arr: SetAssoc<u32> = SetAssoc::new(512, 4, 0);
            for (i, &blk) in blocks.iter().enumerate() {
                arr.insert(blk, i as u32);
                black_box(arr.get(blk));
            }
            black_box(arr.len())
        });
    });
}

fn bench_persistent_table(c: &mut Criterion) {
    c.bench_function("dist_table_activate_resolve", |b| {
        b.iter(|| {
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
        });
    });
    for procs in [256usize, 1024] {
        bench_persistent_table_at_scale(c, procs);
    }
}

/// A `procs`-slot table at the occupancy of the 64 × 4 mesh (about
/// 46 % of slots live, about 2.25 entries per live block). Each
/// iteration moves one live processor to a new request (deactivate,
/// then activate on a fresh block) and resolves 16 blocks, half of them
/// absent from the table.
fn bench_persistent_table_at_scale(c: &mut Criterion, procs: usize) {
    let mut rng = Rng::new(procs as u64);
    let live = procs * 46 / 100;
    let blocks = (live as u64 * 4).div_ceil(9);
    let mut order: Vec<u16> = (0..procs as u16).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let holders = &order[..live];
    let mut t = DistTable::new(procs);
    let mut epoch = vec![1u64; procs];
    for &p in holders {
        let blk = Block(rng.below(blocks));
        t.activate(ProcId(p), blk, NodeId(u32::from(p)), ReqKind::Write, 1);
    }
    let probes: Vec<Block> = (0..4096).map(|_| Block(rng.below(2 * blocks))).collect();
    let mut next = 0usize;
    c.bench_function(&format!("dist_table_activate_resolve_{procs}p"), |b| {
        b.iter(|| {
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
        });
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator_throughput");
    g.sample_size(10);
    g.bench_function("token_dst1_scripted_1k_ops", |b| {
        let cfg = SystemConfig::default();
        b.iter(|| {
            let scripts = (0..16u64)
                .map(|p| {
                    (0..64)
                        .map(|i: u64| {
                            let k = if i.is_multiple_of(4) {
                                AccessKind::Store
                            } else {
                                AccessKind::Load
                            };
                            (k, Block(p * 100 + i % 16))
                        })
                        .collect()
                })
                .collect();
            let w = ScriptedWorkload::new(scripts);
            let (res, _) = run_workload(
                &cfg,
                Protocol::Token(Variant::Dst1),
                w,
                &RunOptions::default(),
            );
            black_box(res.events)
        });
    });
    g.bench_function("locking_16x10_dst1", |b| {
        let cfg = SystemConfig::default();
        b.iter(|| {
            let w = LockingWorkload::new(16, 16, 10, 1);
            let (res, _) = run_workload(
                &cfg,
                Protocol::Token(Variant::Dst1),
                w,
                &RunOptions::default(),
            );
            black_box(res.events)
        });
    });
    g.finish();
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng_next_u64_1k", |b| {
        let mut rng = Rng::new(3);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc ^= rng.next_u64();
            }
            black_box(acc)
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_event_queue, bench_cache_array, bench_persistent_table, bench_rng, bench_end_to_end
}
criterion_main!(benches);
