//! Property tests of the distributed persistent-request table.
//!
//! `DistTable` keeps its block ids in a dense array scanned in fixed
//! chunks. It is checked against a reference model: the linear-scan
//! table it replaced, kept here verbatim (one `Option` entry per
//! processor, every query a full scan). Random schedules at 4, 16, 256
//! and 1024 processors mix activations, re-activation of a processor on
//! a new block, stale and reordered deactivations (ghost epochs) and
//! wave marking. After every operation both tables must agree on
//! `active_for`, `has_any_for`, `has_marked`, `len`, `is_empty` and the
//! order of `entries()`.

use proptest::prelude::*;

use tokencmp::core::{ActiveReq, DistTable, ReqKind};
use tokencmp::proto::ProcId;
use tokencmp::sim::NodeId;
use tokencmp::Block;

mod reference {
    use super::*;

    #[derive(Clone, Copy, Debug)]
    struct DistEntry {
        block: Block,
        requester: NodeId,
        kind: ReqKind,
        epoch: u64,
        marked: bool,
    }

    /// The linear-scan table `DistTable` replaced.
    #[derive(Clone, Debug)]
    pub struct LinearTable {
        entries: Vec<Option<DistEntry>>,
        deactivated_up_to: Vec<u64>,
    }

    impl LinearTable {
        pub fn new(procs: usize) -> LinearTable {
            LinearTable {
                entries: vec![None; procs],
                deactivated_up_to: vec![0; procs],
            }
        }

        pub fn activate(
            &mut self,
            proc: ProcId,
            block: Block,
            requester: NodeId,
            kind: ReqKind,
            epoch: u64,
        ) {
            if epoch <= self.deactivated_up_to[proc.0 as usize] {
                return;
            }
            self.entries[proc.0 as usize] = Some(DistEntry {
                block,
                requester,
                kind,
                epoch,
                marked: false,
            });
        }

        pub fn deactivate(&mut self, proc: ProcId, epoch: u64) -> bool {
            let p = proc.0 as usize;
            if epoch > self.deactivated_up_to[p] {
                self.deactivated_up_to[p] = epoch;
            }
            match self.entries[p] {
                Some(e) if e.epoch <= epoch => {
                    self.entries[p] = None;
                    true
                }
                _ => false,
            }
        }

        pub fn mark_peers(&mut self, block: Block) {
            for e in self.entries.iter_mut().flatten() {
                if e.block == block {
                    e.marked = true;
                }
            }
        }

        pub fn has_marked(&self, block: Block) -> bool {
            self.entries
                .iter()
                .flatten()
                .any(|e| e.block == block && e.marked)
        }

        pub fn active_for(&self, block: Block) -> Option<ActiveReq> {
            self.entries
                .iter()
                .enumerate()
                .filter_map(|(i, e)| e.as_ref().map(|e| (i, e)))
                .find(|(_, e)| e.block == block)
                .map(|(i, e)| ActiveReq {
                    proc: ProcId(i as u16),
                    requester: e.requester,
                    kind: e.kind,
                })
        }

        pub fn has_any_for(&self, block: Block) -> bool {
            self.entries.iter().flatten().any(|e| e.block == block)
        }

        pub fn len(&self) -> usize {
            self.entries.iter().flatten().count()
        }

        pub fn entries(&self) -> impl Iterator<Item = (ProcId, Block)> + '_ {
            self.entries
                .iter()
                .enumerate()
                .filter_map(|(i, e)| e.as_ref().map(|e| (ProcId(i as u16), e.block)))
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }
}

use reference::LinearTable;

/// Processor counts under test: below one scan chunk, exactly one, and
/// the 64 × 4 and 64 × 16 scale points.
const PROCS: [usize; 4] = [4, 16, 256, 1024];

/// Distinct blocks a schedule touches: few, so entries collide.
const BLOCKS: u64 = 6;

/// One table operation, decoded against the processor count and each
/// processor's issue count.
#[derive(Clone, Debug)]
enum Op {
    /// Issue a new request (next epoch) from `proc` for `block`.
    Activate { proc: u64, block: u64, write: bool },
    /// A late activation `back` epochs behind the newest issue: a ghost
    /// if that epoch is already deactivated.
    Ghost { proc: u64, block: u64, back: u64 },
    /// A deactivation `back` epochs behind the newest issue (stale), or
    /// one ahead of it (`ahead`: it overtook its own activation).
    Deactivate { proc: u64, back: u64, ahead: bool },
    /// The wave rule at this node for `block`.
    MarkPeers { block: u64 },
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    // Activations and deactivations twice as likely as the rest.
    let op = (0u8..6, any::<u64>(), 0..BLOCKS, 0u64..3, any::<bool>()).prop_map(
        |(which, proc, block, back, flag)| match which {
            0 | 1 => Op::Activate {
                proc,
                block,
                write: flag,
            },
            2 => Op::Ghost { proc, block, back },
            3 | 4 => Op::Deactivate {
                proc,
                back,
                ahead: flag,
            },
            _ => Op::MarkPeers { block },
        },
    );
    proptest::collection::vec(op, 1..200)
}

/// Picks a processor: half the draws among the first 20 (dense
/// contention inside the first chunks), half anywhere (the last chunk
/// and the remainder included).
fn pick(raw: u64, procs: usize) -> ProcId {
    let range = if raw & 1 == 0 { procs.min(20) } else { procs };
    ProcId(((raw >> 1) % range as u64) as u16)
}

fn assert_agree(t: &DistTable, m: &LinearTable, at: usize) {
    for b in (0..=BLOCKS).map(Block) {
        assert_eq!(
            t.active_for(b),
            m.active_for(b),
            "active_for({b:?}) at op {at}"
        );
        assert_eq!(
            t.has_any_for(b),
            m.has_any_for(b),
            "has_any_for({b:?}) at op {at}"
        );
        assert_eq!(
            t.has_marked(b),
            m.has_marked(b),
            "has_marked({b:?}) at op {at}"
        );
    }
    assert_eq!(t.len(), m.len(), "len at op {at}");
    assert_eq!(t.is_empty(), m.is_empty(), "is_empty at op {at}");
    assert!(t.entries().eq(m.entries()), "entries() order at op {at}");
}

/// Runs `ops` on both tables, comparing every observation.
fn run_schedule(procs: usize, ops: &[Op]) {
    let mut t = DistTable::new(procs);
    let mut m = LinearTable::new(procs);
    // Newest epoch each processor has issued.
    let mut issued = vec![0u64; procs];
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Activate { proc, block, write } => {
                let p = pick(proc, procs);
                issued[p.0 as usize] += 1;
                let kind = if write { ReqKind::Write } else { ReqKind::Read };
                let epoch = issued[p.0 as usize];
                let requester = NodeId(5000 + u32::from(p.0));
                t.activate(p, Block(block), requester, kind, epoch);
                m.activate(p, Block(block), requester, kind, epoch);
            }
            Op::Ghost { proc, block, back } => {
                let p = pick(proc, procs);
                let epoch = issued[p.0 as usize].saturating_sub(back);
                let requester = NodeId(9000 + u32::from(p.0));
                t.activate(p, Block(block), requester, ReqKind::Write, epoch);
                m.activate(p, Block(block), requester, ReqKind::Write, epoch);
            }
            Op::Deactivate { proc, back, ahead } => {
                let p = pick(proc, procs);
                let newest = issued[p.0 as usize];
                let epoch = if ahead {
                    newest + 1
                } else {
                    newest.saturating_sub(back)
                };
                assert_eq!(
                    t.deactivate(p, epoch),
                    m.deactivate(p, epoch),
                    "deactivate({p:?}, {epoch}) at op {i}"
                );
            }
            Op::MarkPeers { block } => {
                t.mark_peers(Block(block));
                m.mark_peers(Block(block));
            }
        }
        assert_agree(&t, &m, i);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// The chunked table agrees with the linear-scan model after every
    /// operation of every schedule, at every processor count.
    #[test]
    fn table_matches_the_linear_reference(which in 0usize..PROCS.len(), ops in ops_strategy()) {
        run_schedule(PROCS[which], &ops);
    }
}

/// Every processor active on one block: the lowest one wins, and each
/// deactivation promotes the next, across chunk boundaries.
#[test]
fn full_table_promotes_in_processor_order() {
    for procs in PROCS {
        let ops: Vec<Op> = (0..procs as u64)
            .rev()
            .map(|p| Op::Activate {
                proc: (p << 1) | 1,
                block: 2,
                write: p % 2 == 0,
            })
            .chain((0..procs as u64).map(|p| Op::Deactivate {
                proc: (p << 1) | 1,
                back: 0,
                ahead: false,
            }))
            .collect();
        run_schedule(procs, &ops);
    }
}

/// Block `u64::MAX` marks an empty slot, so activating it must fail
/// closed rather than corrupt the table.
#[test]
#[should_panic(expected = "block id u64::MAX is the empty-slot sentinel")]
fn activating_the_sentinel_block_panics() {
    let mut t = DistTable::new(16);
    t.activate(ProcId(3), Block(u64::MAX), NodeId(3), ReqKind::Write, 1);
}
