//! Persistent-request state (§3.2).
//!
//! Two activation mechanisms:
//!
//! * **Distributed activation** — every coherence node keeps a table with
//!   one entry per processor. Among entries for the same block, only the
//!   highest-priority (lowest processor number — least-significant bits
//!   vary within a chip, giving the locality the paper describes) is
//!   *active*. A "marking" (wave) rule prevents a processor from
//!   re-issuing a persistent request for a block until every request that
//!   was outstanding when its own completed has been satisfied.
//!
//! * **Arbiter-based activation** — the original scheme: each home memory
//!   controller arbitrates with a FIFO queue, activating one request at a
//!   time and broadcasting activate/deactivate messages. The handoff
//!   indirection through the arbiter is exactly what Figure 2 punishes.

use std::collections::{HashMap, VecDeque};

use tokencmp_proto::{Block, ProcId};
use tokencmp_sim::NodeId;

use crate::msg::ReqKind;

/// The persistent request a node should currently honor for some block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ActiveReq {
    /// Issuing processor.
    pub proc: ProcId,
    /// The L1 cache tokens must be forwarded to.
    pub requester: NodeId,
    /// Read (leave one token) or write (forward all).
    pub kind: ReqKind,
}

/// Cold per-processor state of a [`DistTable`] slot, read only once the
/// block scan has found the slot (or on activation and deactivation):
/// `(epoch, deactivated_up_to, requester, write, marked)` — the live
/// entry's issue number, the highest epoch this processor has
/// deactivated (ghost suppression), the L1 to forward tokens to, whether
/// the request is a write, and the wave mark (set on entries
/// outstanding when the local processor's own request deactivated;
/// blocks local re-issue until cleared). A tuple of integers and bools,
/// so `vec!` can hand out the array as zeroed memory.
type Cold = (u64, u64, u32, bool, bool);

/// Slots scanned per step by [`DistTable`]'s block search: the chunk's
/// compares are OR-ed, and only a chunk that hits is searched for the
/// slot.
const SCAN_CHUNK: usize = 16;

/// The block id that cannot be stored: an empty slot's key.
const SENTINEL_BLOCK: u64 = u64::MAX;

/// The distributed-activation persistent request table kept at *every*
/// coherence node: one entry per processor (the paper sizes it at one
/// six-byte entry per processor).
///
/// The interconnect is unordered, so a deactivation can arrive before its
/// own activation; each entry carries the issuing processor's *epoch*
/// (issue number) and the table remembers the highest deactivated epoch
/// per processor, suppressing late-arriving ghost activations.
///
/// Layout: a structure of arrays indexed by processor, 32 bytes per
/// processor in two allocations.
///
/// * `keys` (8 B/proc) holds each slot's block as `!block`, so an empty
///   slot is 0 (the array starts zeroed) and stands for the sentinel
///   block `u64::MAX`, which [`activate`](Self::activate) refuses. Block
///   lookups scan only this array, [`SCAN_CHUNK`] slots at a time, and
///   stop at the first (lowest-processor) match.
/// * `cold` (24 B/proc) holds the requester, kind, wave mark and epoch of
///   the live entry, plus the processor's deactivated-up-to epoch.
///
/// A live-entry count makes `len`, `is_empty` and every lookup on an
/// empty table O(1).
#[derive(Clone, Debug)]
pub struct DistTable {
    keys: Vec<u64>,
    cold: Vec<Cold>,
    live: usize,
}

impl DistTable {
    /// Creates a table for `procs` processors.
    pub fn new(procs: usize) -> DistTable {
        DistTable {
            keys: vec![0; procs],
            cold: vec![(0, 0, 0, false, false); procs],
            live: 0,
        }
    }

    /// Records an activation (ignored if epoch `epoch` was already
    /// deactivated — a ghost that overtook its own deactivation).
    ///
    /// # Panics
    ///
    /// Panics if `block` is the sentinel block `u64::MAX`, which marks an
    /// empty slot.
    pub fn activate(
        &mut self,
        proc: ProcId,
        block: Block,
        requester: NodeId,
        kind: ReqKind,
        epoch: u64,
    ) {
        assert_ne!(
            block.0, SENTINEL_BLOCK,
            "DistTable: block id u64::MAX is the empty-slot sentinel and cannot be activated"
        );
        let p = proc.0 as usize;
        let (entry_epoch, deactivated_up_to, req, write, marked) = &mut self.cold[p];
        if epoch <= *deactivated_up_to {
            return;
        }
        *entry_epoch = epoch;
        *req = requester.0;
        *write = kind == ReqKind::Write;
        *marked = false;
        if self.keys[p] == 0 {
            self.live += 1;
        }
        self.keys[p] = !block.0;
    }

    /// Clears an entry on deactivation (epoch-matched) and suppresses any
    /// late-arriving activation with the same or an earlier epoch.
    /// Returns true if an entry was removed.
    pub fn deactivate(&mut self, proc: ProcId, epoch: u64) -> bool {
        let p = proc.0 as usize;
        let (entry_epoch, deactivated_up_to, ..) = &mut self.cold[p];
        if epoch > *deactivated_up_to {
            *deactivated_up_to = epoch;
        }
        if self.keys[p] != 0 && *entry_epoch <= epoch {
            self.keys[p] = 0;
            self.live -= 1;
            true
        } else {
            false
        }
    }

    /// The lowest processor at or after `from` whose entry is for `key`.
    #[inline]
    fn find_from(&self, key: u64, from: usize) -> Option<usize> {
        if self.live == 0 {
            return None;
        }
        let (chunks, rest) = self.keys[from..].as_chunks::<SCAN_CHUNK>();
        for (i, chunk) in chunks.iter().enumerate() {
            if chunk.iter().fold(false, |hit, &k| hit | (k == key)) {
                let at = chunk.iter().position(|&k| k == key)?;
                return Some(from + i * SCAN_CHUNK + at);
            }
        }
        let at = rest.iter().position(|&k| k == key)?;
        Some(from + chunks.len() * SCAN_CHUNK + at)
    }

    /// Applies the wave rule at the issuing processor's own table: when its
    /// request for `block` completes, all remaining valid entries for the
    /// same block are marked.
    pub fn mark_peers(&mut self, block: Block) {
        for (&k, (.., marked)) in self.keys.iter().zip(&mut self.cold) {
            if k == !block.0 {
                *marked = true;
            }
        }
    }

    /// True if marked entries for `block` remain — the local processor may
    /// not issue a new persistent request for it yet (FutureBus-style wave
    /// grouping, §3.2).
    pub fn has_marked(&self, block: Block) -> bool {
        self.keys
            .iter()
            .zip(&self.cold)
            .any(|(&k, &(.., marked))| k == !block.0 && marked)
    }

    /// The active (highest-priority) request for `block`, if any.
    ///
    /// Priority is the fixed processor number: with `proc = chip *
    /// procs_per_chip + core`, the low bits vary within a chip, so
    /// contended blocks tend to hand off within a chip first.
    pub fn active_for(&self, block: Block) -> Option<ActiveReq> {
        let p = self.find_from(!block.0, 0)?;
        let (_, _, requester, write, _) = self.cold[p];
        Some(ActiveReq {
            proc: ProcId(p as u16),
            requester: NodeId(requester),
            kind: if write { ReqKind::Write } else { ReqKind::Read },
        })
    }

    /// True if at least one processor has a table entry for `block`
    /// (checked when tokens arrive).
    pub fn has_any_for(&self, block: Block) -> bool {
        self.find_from(!block.0, 0).is_some()
    }

    /// Number of valid entries (for table-occupancy statistics).
    pub fn len(&self) -> usize {
        self.live
    }

    /// Every valid entry as `(proc, block)`, in priority order — the
    /// telemetry sampler walks this to track how long each persistent
    /// request has been outstanding (starvation age).
    pub fn entries(&self) -> impl Iterator<Item = (ProcId, Block)> + '_ {
        let n = if self.live == 0 { 0 } else { self.keys.len() };
        self.keys[..n]
            .iter()
            .enumerate()
            .filter(|&(_, &k)| k != 0)
            .map(|(p, &k)| (ProcId(p as u16), Block(!k)))
    }

    /// True if the table has no valid entries.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

/// Per-node record of arbiter-activated requests (at most one per arbiter,
/// so at most one per home memory controller). Epoch-suppressed like
/// [`DistTable`].
#[derive(Clone, Debug, Default)]
pub struct ArbNodeTable {
    active: HashMap<Block, (ProcId, u64, ActiveReq)>,
    deactivated_up_to: HashMap<ProcId, u64>,
}

impl ArbNodeTable {
    /// Creates an empty table.
    pub fn new() -> ArbNodeTable {
        ArbNodeTable::default()
    }

    /// Records an arbiter activation (ignored if already deactivated).
    pub fn activate(&mut self, block: Block, req: ActiveReq, epoch: u64) {
        if epoch <= self.deactivated_up_to.get(&req.proc).copied().unwrap_or(0) {
            return;
        }
        self.active.insert(block, (req.proc, epoch, req));
    }

    /// Clears an arbiter activation (matching by processor and epoch) and
    /// suppresses late ghosts.
    pub fn deactivate(&mut self, block: Block, proc: ProcId, epoch: u64) {
        let d = self.deactivated_up_to.entry(proc).or_insert(0);
        if epoch > *d {
            *d = epoch;
        }
        if let Some((p, e, _)) = self.active.get(&block) {
            if *p == proc && *e <= epoch {
                self.active.remove(&block);
            }
        }
    }

    /// The active request for `block`, if any.
    pub fn active_for(&self, block: Block) -> Option<ActiveReq> {
        self.active.get(&block).map(|&(_, _, r)| r)
    }

    /// Number of active entries.
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// True if no entries are active.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }
}

/// The fair FIFO arbiter at a home memory controller (original token
/// coherence scheme [Martin et al., ISCA '03] extended to M-CMPs).
///
/// At most one request is active per arbiter at a time; handing off to the
/// next request requires a deactivate → arbiter → activate exchange, the
/// indirection that makes `TokenCMP-arb0` fragile under contention.
#[derive(Clone, Debug, Default)]
pub struct Arbiter {
    queue: VecDeque<(Block, ActiveReq, u64)>,
    current: Option<(Block, ActiveReq, u64)>,
}

impl Arbiter {
    /// Creates an idle arbiter.
    pub fn new() -> Arbiter {
        Arbiter::default()
    }

    /// Enqueues a request. Returns the request (with its epoch) to
    /// activate now, if the arbiter was idle.
    pub fn enqueue(
        &mut self,
        block: Block,
        req: ActiveReq,
        epoch: u64,
    ) -> Option<(Block, ActiveReq, u64)> {
        self.queue.push_back((block, req, epoch));
        if self.current.is_none() {
            self.current = self.queue.pop_front();
            self.current
        } else {
            None
        }
    }

    /// Completes the current request (matching by processor). Returns the
    /// next request to activate, if any.
    ///
    /// A completion for a request that is still *queued* (tokens arrived
    /// before arbitration) withdraws it from the queue; without this, the
    /// arbiter would eventually activate a ghost nobody will ever finish.
    pub fn complete(
        &mut self,
        block: Block,
        proc: ProcId,
        epoch: u64,
    ) -> Option<(Block, ActiveReq, u64)> {
        match self.current {
            Some((b, r, e)) if b == block && r.proc == proc && e <= epoch => {
                self.current = self.queue.pop_front();
                self.current
            }
            _ => {
                if let Some(pos) = self
                    .queue
                    .iter()
                    .position(|&(b, r, e)| b == block && r.proc == proc && e <= epoch)
                {
                    self.queue.remove(pos);
                }
                None
            }
        }
    }

    /// The currently active request.
    pub fn current(&self) -> Option<(Block, ActiveReq, u64)> {
        self.current
    }

    /// Number of queued (not yet active) requests.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(p: u16) -> ActiveReq {
        ActiveReq {
            proc: ProcId(p),
            requester: NodeId(100 + p as u32),
            kind: ReqKind::Write,
        }
    }

    #[test]
    fn dist_priority_is_lowest_proc() {
        let mut t = DistTable::new(16);
        t.activate(ProcId(5), Block(1), NodeId(105), ReqKind::Write, 1);
        t.activate(ProcId(2), Block(1), NodeId(102), ReqKind::Read, 1);
        t.activate(ProcId(9), Block(2), NodeId(109), ReqKind::Write, 1);
        let a = t.active_for(Block(1)).unwrap();
        assert_eq!(a.proc, ProcId(2));
        assert_eq!(a.kind, ReqKind::Read);
        assert_eq!(t.active_for(Block(2)).unwrap().proc, ProcId(9));
        assert_eq!(t.active_for(Block(3)), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn dist_deactivate_promotes_next() {
        let mut t = DistTable::new(16);
        t.activate(ProcId(1), Block(7), NodeId(101), ReqKind::Write, 1);
        t.activate(ProcId(3), Block(7), NodeId(103), ReqKind::Write, 1);
        assert!(t.deactivate(ProcId(1), 1));
        assert_eq!(t.active_for(Block(7)).unwrap().proc, ProcId(3));
        assert!(!t.deactivate(ProcId(1), 1), "double deactivate is ignored");
    }

    #[test]
    fn dist_suppresses_reordered_ghost_activation() {
        // The unordered network can deliver a deactivation before its own
        // activation; the late activation must not install a ghost entry.
        let mut t = DistTable::new(4);
        t.deactivate(ProcId(2), 5); // deactivate for epoch 5 arrives first
        t.activate(ProcId(2), Block(9), NodeId(12), ReqKind::Write, 5);
        assert_eq!(t.active_for(Block(9)), None, "ghost suppressed");
        // A *newer* request (epoch 6) is legitimate.
        t.activate(ProcId(2), Block(9), NodeId(12), ReqKind::Write, 6);
        assert_eq!(t.active_for(Block(9)).unwrap().proc, ProcId(2));
    }

    #[test]
    fn dist_deactivate_does_not_clear_newer_epoch() {
        let mut t = DistTable::new(4);
        t.activate(ProcId(1), Block(3), NodeId(11), ReqKind::Read, 7);
        // A stale deactivation (epoch 6) must not clear epoch 7's entry.
        assert!(!t.deactivate(ProcId(1), 6));
        assert!(t.active_for(Block(3)).is_some());
        assert!(t.deactivate(ProcId(1), 7));
        assert!(t.active_for(Block(3)).is_none());
    }

    #[test]
    fn wave_marking_blocks_reissue_until_clear() {
        let mut t = DistTable::new(16);
        t.activate(ProcId(4), Block(7), NodeId(104), ReqKind::Write, 1);
        t.activate(ProcId(8), Block(9), NodeId(108), ReqKind::Write, 1);
        t.mark_peers(Block(7));
        assert!(t.has_marked(Block(7)));
        assert!(!t.has_marked(Block(9)), "marking is per block");
        t.deactivate(ProcId(4), 1);
        assert!(!t.has_marked(Block(7)));
    }

    #[test]
    fn dist_tracks_presence() {
        let mut t = DistTable::new(4);
        assert!(t.is_empty());
        assert!(!t.has_any_for(Block(1)));
        t.activate(ProcId(0), Block(1), NodeId(10), ReqKind::Read, 1);
        assert!(t.has_any_for(Block(1)));
        assert!(!t.is_empty());
    }

    #[test]
    fn arb_node_table_matches_by_proc_and_epoch() {
        let mut t = ArbNodeTable::new();
        t.activate(Block(3), req(1), 1);
        assert_eq!(t.active_for(Block(3)).unwrap().proc, ProcId(1));
        t.deactivate(Block(3), ProcId(2), 1); // wrong proc: ignored
        assert!(!t.is_empty());
        t.deactivate(Block(3), ProcId(1), 1);
        assert_eq!(t.active_for(Block(3)), None);
        assert!(t.is_empty());
        // Ghost suppression: deactivate-then-activate for the same epoch.
        t.deactivate(Block(4), ProcId(3), 2);
        t.activate(Block(4), req(3), 2);
        assert!(t.active_for(Block(4)).is_none());
    }

    #[test]
    fn arbiter_is_fifo_and_single_active() {
        let mut a = Arbiter::new();
        assert_eq!(a.enqueue(Block(1), req(3), 1).unwrap().1.proc, ProcId(3));
        assert_eq!(a.enqueue(Block(1), req(1), 1), None, "busy: queued");
        assert_eq!(a.enqueue(Block(2), req(2), 1), None);
        assert_eq!(a.queued(), 2);
        // Completing a queued (not active) request withdraws it.
        assert_eq!(a.complete(Block(1), ProcId(1), 1), None);
        assert_eq!(a.queued(), 1);
        // Completing the active request activates the next in FIFO order.
        let next = a.complete(Block(1), ProcId(3), 1).unwrap();
        assert_eq!((next.0, next.1.proc), (Block(2), ProcId(2)));
        assert_eq!(a.complete(Block(2), ProcId(2), 1), None);
        assert_eq!(a.current(), None);
    }

    #[test]
    fn arbiter_withdraws_satisfied_queued_requests() {
        // A request satisfied by ordinary token transfers before its turn
        // must leave the queue, or the arbiter would activate a ghost.
        let mut a = Arbiter::new();
        a.enqueue(Block(1), req(0), 1);
        a.enqueue(Block(2), req(1), 4);
        assert_eq!(a.complete(Block(2), ProcId(1), 4), None);
        assert_eq!(a.queued(), 0);
        // Completing the active request finds nothing left to activate.
        assert_eq!(a.complete(Block(1), ProcId(0), 1), None);
        assert_eq!(a.current(), None);
    }
}
