//! Parallel state-space exploration with symmetry and partial-order
//! reduction.
//!
//! [`check_parallel`] rebuilds the sequential BFS of [`crate::check`]
//! for scale while keeping every [`Model`] spec untouched:
//!
//! * **Parallel frontier expansion.** Exploration is level-synchronous:
//!   the frontier of one BFS level fans out over the shared
//!   [`tokencmp_pool`] worker pool (dynamic work claiming, results in
//!   submission order), while the state store stays *frozen* — workers
//!   only read it. A sequential merge phase then folds the expansions
//!   back in frontier order, successors in generation order. Because
//!   the sequential BFS also assigns ids in exactly that order, the
//!   parallel explorer reproduces its state count, transition count,
//!   depth, and first-violation trace *bit for bit* at any worker count
//!   when both reductions are off — which is what the differential
//!   suite in `tests/mcheck_parallel.rs` pins.
//!
//! * **Hashed state store.** States are deduplicated by 128-bit
//!   fingerprint (one pass feeding two independently keyed 64-bit
//!   lanes) in a sharded table whose maps use the fingerprint's low
//!   bits as the hash, retaining 16 bytes per state instead of a full
//!   clone. At n = 10⁷ states the collision probability is about
//!   n²/2¹²⁹ ≈ 10⁻²⁵ (see DESIGN.md §17).
//!   `CheckOptions::collision_audit` additionally retains full states on
//!   a 1/16 fingerprint stripe and asserts that every dedup hit on the
//!   stripe compares equal.
//!
//! * **Id-only duplicates.** A successor the frozen store already holds
//!   travels from its worker to the merge as a bare state id (audit
//!   stripe excepted), and the explored graph is a flat CSR edge array.
//!
//! * **Symmetry reduction** quotients states by the model's
//!   [`Model::canonicalize`] (identity by default — always sound).
//!
//! * **Partial-order reduction** expands only an *ample subset* of a
//!   state's successors when the model declares a class of actions
//!   ([`ActionMeta::class`]) whose combined footprint conflicts with no
//!   co-enabled action, subject to a BFS cycle proviso: at least one
//!   ample successor must be new to the frozen store, guaranteeing the
//!   deferred actions are re-examined at a strictly later level.
//!
//! Soundness arguments for both reductions, per model, live in
//! DESIGN.md §17.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::OnceLock;
use std::time::Instant;

use tokencmp_pool::{default_threads, par_map_threads};

use crate::checker::{first_stuck, kind_head, ActionMeta, CheckOptions, Model, Violation};

/// Per-lane seeds, odd multipliers and shifts of the fingerprint
/// hasher. An odd multiply carries a top-bit difference through
/// unchanged; the different shifts move it to different bits in each
/// lane, so no single following word cancels it in both.
const LANE_SEEDS: [u64; 2] = [0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344];
const LANE_MULS: [u64; 2] = [0x9E37_79B9_7F4A_7C15, 0xC2B2_AE3D_27D4_EB4F];
const LANE_SHIFTS: [u32; 2] = [32, 29];

/// The one-pass fingerprint hasher: every write feeds both 64-bit
/// lanes. Each absorb step — xor the word in, multiply by an odd
/// constant, xor-shift — is a bijection of the lane state for a fixed
/// word, so two word streams that differ in exactly one word never
/// collide in either lane.
struct FpHasher {
    lanes: [u64; 2],
}

impl FpHasher {
    #[inline]
    fn absorb(&mut self, word: u64) {
        for ((lane, mul), shift) in self.lanes.iter_mut().zip(LANE_MULS).zip(LANE_SHIFTS) {
            let x = (*lane ^ word).wrapping_mul(mul);
            *lane = x ^ (x >> shift);
        }
    }
}

/// The murmur3 64-bit finalizer (a bijection with full avalanche).
fn fmix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

impl Hasher for FpHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.absorb(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.absorb(u64::from_le_bytes(tail));
        // The length separates byte strings that pad to the same words.
        self.absorb(bytes.len() as u64);
    }

    fn write_u8(&mut self, i: u8) {
        self.absorb(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.absorb(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.absorb(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.absorb(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.absorb(i as u64);
    }

    fn finish(&self) -> u64 {
        fmix64(self.lanes[0])
    }
}

/// 128-bit state fingerprint: one traversal of the value feeds two
/// independently keyed 64-bit lanes, each finished with [`fmix64`].
/// Fingerprints are stable within a build, which is all the store needs
/// (they are never persisted).
pub fn fingerprint<S: Hash + ?Sized>(s: &S) -> u128 {
    let mut h = FpHasher { lanes: LANE_SEEDS };
    s.hash(&mut h);
    (u128::from(fmix64(h.lanes[1])) << 64) | u128::from(fmix64(h.lanes[0]))
}

/// Pass-through hasher for maps keyed by a fingerprint: the key is
/// already uniformly random, so its low 64 bits are the hash.
#[derive(Default)]
pub(crate) struct FpLow(u64);

impl Hasher for FpLow {
    fn write(&mut self, _: &[u8]) {
        unreachable!("FpLow hashes u128 fingerprints only");
    }

    fn write_u128(&mut self, fp: u128) {
        self.0 = fp as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A set of fingerprints hashed by [`FpLow`].
pub(crate) type FpSet = HashSet<u128, BuildHasherDefault<FpLow>>;

/// A map keyed by fingerprint, hashed by [`FpLow`].
type FpMap<V> = HashMap<u128, V, BuildHasherDefault<FpLow>>;

/// All permutations of `0..n` in lexicographic order (identity first) —
/// the helper the protocol models use to canonicalize over node
/// identity. Intended for the tiny downscaled configurations the
/// verification study runs (n ≤ 4).
pub fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn rec(rest: &mut Vec<usize>, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rest.is_empty() {
            out.push(cur.clone());
            return;
        }
        for i in 0..rest.len() {
            let v = rest.remove(i);
            cur.push(v);
            rec(rest, cur, out);
            cur.pop();
            rest.insert(i, v);
        }
    }
    let mut out = Vec::new();
    rec(&mut (0..n).collect(), &mut Vec::new(), &mut out);
    out
}

/// The non-identity permutations of `0..n`, in [`permutations`] order:
/// the relabellings a symmetry canonicalization tries. Built once per
/// `n` per process and shared, so canonicalizing a state allocates no
/// permutation list. The models' footprint masks cap `n` below 16.
pub(crate) fn non_identity_permutations(n: usize) -> &'static [Vec<usize>] {
    static TABLE: [OnceLock<Vec<Vec<usize>>>; 16] = [const { OnceLock::new() }; 16];
    TABLE
        .get(n)
        .unwrap_or_else(|| panic!("symmetry over {n} caches: at most 15 are supported"))
        .get_or_init(|| permutations(n).split_off(1))
}

const SHARDS: usize = 16;

/// Sharded fingerprint → state-id table. Sharding by the top fingerprint
/// bits keeps per-map load factors low at millions of states; workers
/// share it read-only during expansion, the merge phase writes.
struct FpStore {
    shards: Vec<FpMap<u32>>,
}

impl FpStore {
    fn new() -> FpStore {
        FpStore {
            shards: (0..SHARDS).map(|_| FpMap::default()).collect(),
        }
    }

    fn shard(fp: u128) -> usize {
        (fp >> 124) as usize & (SHARDS - 1)
    }

    fn get(&self, fp: u128) -> Option<u32> {
        self.shards[FpStore::shard(fp)].get(&fp).copied()
    }

    fn insert(&mut self, fp: u128, id: u32) {
        self.shards[FpStore::shard(fp)].insert(fp, id);
    }
}

/// True if `fp` lies on the collision-audit stripe: 1/16 of states,
/// picked by bits of the high lane, which neither the store's bucket
/// hash (low lane) nor its shard (top four bits) uses.
fn on_audit_stripe(fp: u128) -> bool {
    (fp >> 64) & 0xF == 0
}

/// Statistics from a [`check_parallel`] run. Superset of
/// [`crate::CheckReport`]: the extra fields record reduction and audit
/// activity, the host time of each phase, plus the transition-kind
/// universe (first word of every generated label, *including* labels
/// pruned by the partial-order reduction — reduction saves stored and
/// expanded states, never coverage accounting).
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Distinct stored states (canonical representatives).
    pub states: usize,
    /// Transitions taken (equals the sequential count when POR is off).
    pub transitions: u64,
    /// Maximum BFS depth reached.
    pub depth: usize,
    /// Wall-clock seconds spent.
    pub seconds: f64,
    /// Host seconds in the parallel expand phase, summed over levels.
    pub expand_seconds: f64,
    /// Host seconds in the sequential merge phase, summed over levels.
    pub merge_seconds: f64,
    /// Whether the EF-quiescence progress check ran and passed.
    pub progress_checked: bool,
    /// Worker threads used.
    pub workers: usize,
    /// Expanded states at which an ample subset was taken.
    pub por_states_reduced: usize,
    /// Successor edges pruned by the partial-order reduction.
    pub por_pruned: u64,
    /// Dedup hits verified against a retained full state (audit mode).
    pub audited: u64,
    /// Every transition kind generated anywhere in the explored space.
    pub kinds: BTreeSet<String>,
}

/// One taken successor as a worker hands it to the merge phase.
enum Succ<S> {
    /// Already in the frozen store (and not due for an audit): the id is
    /// all the merge needs.
    Known(u32),
    /// Absent from the frozen store, or a frozen-store hit on the audit
    /// stripe: the label (moved out of the model's output), canonical
    /// state, fingerprint, and the invariant error if the worker found
    /// one (only evaluated for states absent from the frozen store).
    Full {
        label: String,
        state: S,
        fp: u128,
        inv_err: Option<String>,
    },
}

/// One frontier state's expansion, produced by a worker against the
/// frozen store and folded in deterministically by the merge phase.
struct Expansion<S> {
    id: u32,
    quiescent: bool,
    /// `Some(pretty-printed state)` iff non-quiescent with no successors.
    deadlock: Option<String>,
    /// An ample subset was taken (POR applied at this state).
    reduced: bool,
    /// Successors pruned by the reduction.
    pruned: u32,
    /// Kinds (label heads) of generated successors, pruned included,
    /// that the level's frozen kind set lacks; deduplicated.
    new_kinds: Vec<String>,
    /// Taken successors in generation order.
    taken: Vec<Succ<S>>,
}

/// Expands frontier state `id` against the frozen store and kind set;
/// `succs` is a reused buffer.
fn expand<M: Model>(
    model: &M,
    store: &FpStore,
    kinds: &BTreeSet<String>,
    opts: &CheckOptions,
    id: u32,
    s: &M::State,
    succs: &mut Vec<(String, M::State)>,
) -> Expansion<M::State> {
    succs.clear();
    model.successors(s, succs);
    let quiescent = model.is_quiescent(s);
    if succs.is_empty() && !quiescent {
        return Expansion {
            id,
            quiescent,
            deadlock: Some(format!("{s:?}")),
            reduced: false,
            pruned: 0,
            new_kinds: Vec::new(),
            taken: Vec::new(),
        };
    }

    let mut heads: Vec<&str> = succs
        .iter()
        .map(|(label, _)| kind_head(label))
        .filter(|h| !kinds.contains(*h))
        .collect();
    heads.sort_unstable();
    heads.dedup();
    let new_kinds = heads.into_iter().map(str::to_string).collect();

    // Canonical form (moved through when symmetry is off) and
    // fingerprint of a successor.
    let canon_fp = |t: M::State| {
        let c = if opts.symmetry {
            model.canonicalize(t)
        } else {
            t
        };
        let fp = fingerprint(&c);
        (c, fp)
    };

    let n = succs.len();
    let (labels, mut raw): (Vec<String>, Vec<Option<M::State>>) =
        succs.drain(..).map(|(l, t)| (l, Some(t))).unzip();
    // Canonical forms computed during ample selection, kept so no
    // successor is canonicalized twice.
    let mut canon: Vec<Option<(M::State, u128)>> = (0..n).map(|_| None).collect();

    // Ample-set selection: for each declared class (ascending id),
    // take its members alone iff (C1/C2, via the model's class
    // promise plus a mechanical footprint check) no co-enabled
    // non-member conflicts with the class, and (C3, cycle proviso)
    // at least one member leads out of the frozen store — i.e. to a
    // state expanded at a strictly later level, so deferred actions
    // cannot be postponed forever around a cycle.
    let mut ample: Option<Vec<usize>> = None;
    if opts.por && n > 1 {
        let metas: Vec<ActionMeta> = labels.iter().map(|l| model.action_meta(s, l)).collect();
        let classes: BTreeSet<u32> = metas.iter().filter_map(|m| m.class).collect();
        'class: for c in classes {
            let members: Vec<usize> = (0..n).filter(|&i| metas[i].class == Some(c)).collect();
            if members.len() == n {
                continue; // no reduction to be had
            }
            let combined = members.iter().fold(ActionMeta::rw(0, 0), |acc, &i| {
                ActionMeta::rw(acc.reads | metas[i].reads, acc.writes | metas[i].writes)
            });
            for meta in &metas {
                if meta.class != Some(c) && combined.dependent(meta) {
                    continue 'class;
                }
            }
            let leaves_store = members.iter().any(|&i| {
                let (_, fp) = canon[i]
                    .get_or_insert_with(|| canon_fp(raw[i].take().expect("canonicalized once")));
                store.get(*fp).is_none()
            });
            if leaves_store {
                ample = Some(members);
                break;
            }
        }
    }
    let pruned = ample.as_ref().map_or(0, |m| (n - m.len()) as u32);

    let audit = opts.collision_audit;
    let taken = labels
        .into_iter()
        .zip(raw.into_iter().zip(canon))
        .enumerate()
        .filter(|(i, _)| ample.as_ref().is_none_or(|m| m.binary_search(i).is_ok()))
        .map(|(_, (label, (t, c)))| {
            let (state, fp) = c.unwrap_or_else(|| canon_fp(t.expect("raw until canonicalized")));
            match store.get(fp) {
                Some(known) if !(audit && on_audit_stripe(fp)) => Succ::Known(known),
                hit => Succ::Full {
                    inv_err: if hit.is_none() {
                        model.invariant(&state).err()
                    } else {
                        None
                    },
                    label,
                    state,
                    fp,
                },
            }
        })
        .collect();

    Expansion {
        id,
        quiescent,
        deadlock: None,
        reduced: pruned > 0,
        pruned,
        new_kinds,
        taken,
    }
}

/// Exhaustively explores `model` in parallel, checking the invariant on
/// every state, flagging non-quiescent deadlocks, and (optionally)
/// verifying EF-quiescence — the parallel, reducible counterpart of
/// [`crate::check`].
///
/// With `opts.symmetry` and `opts.por` both off, the verdict, state
/// count, transition count, depth, and first-violation trace are
/// identical to the sequential checker's at any worker count. With
/// reductions on, the verdict and the transition-kind universe are
/// preserved; states and transitions shrink.
///
/// # Errors
///
/// Returns the first [`Violation`] found, with a minimal-length trace.
///
/// # Panics
///
/// Panics if the state count exceeds `opts.max_states`.
pub fn check_parallel<M>(model: &M, opts: &CheckOptions) -> Result<ExploreReport, Box<Violation>>
where
    M: Model + Sync,
    M::State: Send + Sync,
{
    let start = Instant::now();
    let workers = if opts.workers == 0 {
        default_threads()
    } else {
        opts.workers
    };

    let mut store = FpStore::new();
    // Full canonical states retained on the audit stripe when collision
    // auditing is on.
    let mut stripe: FpMap<M::State> = FpMap::default();
    let mut audited: u64 = 0;
    // Per-id data. Labels are interned: the parent chain stores (parent
    // id, label index); roots are self-parented. The explored graph is
    // kept in CSR form: state `u`'s successors are
    // `edge_to[edge_start[u]..edge_start[u + 1]]`.
    let mut fps: Vec<u128> = Vec::new();
    let mut parent: Vec<(u32, u32)> = Vec::new();
    let mut edge_start: Vec<usize> = Vec::new();
    let mut edge_to: Vec<u32> = Vec::new();
    let mut quiescent: Vec<bool> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    let mut label_ids: HashMap<String, u32> = HashMap::new();

    let mut kinds: BTreeSet<String> = BTreeSet::new();
    let mut transitions: u64 = 0;
    let mut depth = 0usize;
    let mut por_states_reduced = 0usize;
    let mut por_pruned: u64 = 0;
    let mut expand_seconds = 0.0;
    let mut merge_seconds = 0.0;

    let mut frontier: Vec<(u32, M::State)> = Vec::new();
    for s in model.initial() {
        if let Err(m) = model.invariant(&s) {
            return Err(Box::new(Violation {
                message: m,
                trace: vec![],
                state: format!("{s:?}"),
            }));
        }
        let c = if opts.symmetry {
            model.canonicalize(s)
        } else {
            s
        };
        let fp = fingerprint(&c);
        if store.get(fp).is_none() {
            let id = fps.len() as u32;
            store.insert(fp, id);
            fps.push(fp);
            parent.push((id, u32::MAX));
            quiescent.push(false);
            if opts.collision_audit && on_audit_stripe(fp) {
                stripe.insert(fp, c.clone());
            }
            frontier.push((id, c));
        }
    }

    let trace_to = |idx: u32, parent: &[(u32, u32)], labels: &[String]| -> Vec<String> {
        let mut trace = Vec::new();
        let mut cur = idx;
        while parent[cur as usize].0 != cur {
            let (p, l) = parent[cur as usize];
            trace.push(labels[l as usize].clone());
            cur = p;
        }
        trace.reverse();
        trace
    };

    while !frontier.is_empty() {
        // Fan the level out in deterministic batches: the pool claims
        // batches dynamically but returns results in submission order,
        // so the merge below is schedule-independent.
        let phase = Instant::now();
        let batch = (frontier.len() / (workers.max(1) * 8)).clamp(1, 1024);
        let level: Vec<Vec<(u32, M::State)>> = {
            let mut batches = Vec::new();
            let mut it = frontier.into_iter().peekable();
            while it.peek().is_some() {
                batches.push(it.by_ref().take(batch).collect());
            }
            batches
        };
        let results: Vec<Vec<Expansion<M::State>>> = par_map_threads(level, workers, |chunk| {
            let mut succs = Vec::new();
            chunk
                .iter()
                .map(|(id, s)| expand(model, &store, &kinds, opts, *id, s, &mut succs))
                .collect()
        });
        expand_seconds += phase.elapsed().as_secs_f64();

        // Sequential merge in frontier order, successors in generation
        // order — exactly the order the sequential BFS discovers them.
        let phase = Instant::now();
        let mut next: Vec<(u32, M::State)> = Vec::new();
        for exp in results.into_iter().flatten() {
            let id = exp.id;
            quiescent[id as usize] = exp.quiescent;
            if let Some(state) = exp.deadlock {
                return Err(Box::new(Violation {
                    message: "deadlock: non-quiescent state with no successors".into(),
                    trace: trace_to(id, &parent, &labels),
                    state,
                }));
            }
            if exp.reduced {
                por_states_reduced += 1;
                por_pruned += u64::from(exp.pruned);
            }
            kinds.extend(exp.new_kinds);
            // Ids are expanded in increasing order, so each state's
            // edges form one contiguous run.
            debug_assert_eq!(edge_start.len(), id as usize, "merge out of id order");
            edge_start.push(edge_to.len());
            for succ in exp.taken {
                transitions += 1;
                let t_id = match succ {
                    Succ::Known(i) => i,
                    Succ::Full {
                        label,
                        state,
                        fp,
                        inv_err,
                    } => match store.get(fp) {
                        Some(i) => {
                            if let Some(full) = stripe.get(&fp) {
                                assert!(
                                    *full == state,
                                    "fingerprint collision: distinct states share {fp:#034x}"
                                );
                                audited += 1;
                            }
                            i
                        }
                        None => {
                            if let Some(m) = inv_err {
                                let mut trace = trace_to(id, &parent, &labels);
                                trace.push(label);
                                return Err(Box::new(Violation {
                                    message: m,
                                    trace,
                                    state: format!("{state:?}"),
                                }));
                            }
                            let i = fps.len() as u32;
                            assert!(
                                (i as usize) < opts.max_states,
                                "state space exceeded {} states",
                                opts.max_states
                            );
                            let l = match label_ids.get(&label) {
                                Some(&l) => l,
                                None => {
                                    let l = labels.len() as u32;
                                    labels.push(label.clone());
                                    label_ids.insert(label, l);
                                    l
                                }
                            };
                            store.insert(fp, i);
                            fps.push(fp);
                            parent.push((id, l));
                            quiescent.push(false);
                            if opts.collision_audit && on_audit_stripe(fp) {
                                stripe.insert(fp, state.clone());
                            }
                            next.push((i, state));
                            i
                        }
                    },
                };
                edge_to.push(t_id);
            }
        }
        merge_seconds += phase.elapsed().as_secs_f64();
        if !next.is_empty() {
            depth += 1;
        }
        frontier = next;
    }
    edge_start.push(edge_to.len());

    // Progress: every state can reach a quiescent state (EF quiescence),
    // via backward reachability — same algorithm as the sequential
    // checker, over the (possibly reduced) explored graph.
    if opts.check_progress {
        if let Some(bad) = first_stuck(&edge_start, &edge_to, &quiescent) {
            let trace = trace_to(bad, &parent, &labels);
            let state = replay_state(model, opts, &trace, &fps, bad, &parent)
                .unwrap_or_else(|| "<state not reconstructed>".into());
            return Err(Box::new(Violation {
                message: "progress violation: no quiescent state reachable (livelock)".into(),
                trace,
                state,
            }));
        }
    }

    Ok(ExploreReport {
        states: fps.len(),
        transitions,
        depth,
        seconds: start.elapsed().as_secs_f64(),
        expand_seconds,
        merge_seconds,
        progress_checked: opts.check_progress,
        workers,
        por_states_reduced,
        por_pruned,
        audited,
        kinds,
    })
}

/// Reconstructs the concrete (canonical) state at the end of `trace` by
/// replaying it from the matching initial state — the store only keeps
/// fingerprints, so pretty-printing a progress-violation state requires
/// walking the trace and disambiguating same-labelled successors by
/// fingerprint.
fn replay_state<M: Model>(
    model: &M,
    opts: &CheckOptions,
    trace: &[String],
    fps: &[u128],
    bad: u32,
    parent: &[(u32, u32)],
) -> Option<String> {
    let mut path = vec![bad];
    let mut cur = bad;
    while parent[cur as usize].0 != cur {
        cur = parent[cur as usize].0;
        path.push(cur);
    }
    path.reverse(); // root .. bad, one id per trace step plus the root
    let root = path[0];
    let canon = |s: M::State| {
        if opts.symmetry {
            model.canonicalize(s)
        } else {
            s
        }
    };
    let mut state = model
        .initial()
        .into_iter()
        .map(canon)
        .find(|c| fingerprint(c) == fps[root as usize])?;
    let mut succs = Vec::new();
    for (label, &next_id) in trace.iter().zip(&path[1..]) {
        succs.clear();
        model.successors(&state, &mut succs);
        state = succs
            .drain(..)
            .filter(|(l, _)| l == label)
            .map(|(_, t)| canon(t))
            .find(|c| fingerprint(c) == fps[next_id as usize])?;
    }
    Some(format!("{state:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check;

    /// The checker test models, re-stated locally: a counter with
    /// optional planted violations.
    struct Counter {
        max: u8,
        broken_invariant: bool,
        deadlock_at_max: bool,
    }

    impl Model for Counter {
        type State = u8;
        fn initial(&self) -> Vec<u8> {
            vec![0]
        }
        fn successors(&self, s: &u8, out: &mut Vec<(String, u8)>) {
            if *s < self.max {
                out.push((format!("inc {s}"), s + 1));
            } else if !self.deadlock_at_max {
                out.push(("reset".into(), 0));
            }
        }
        fn invariant(&self, s: &u8) -> Result<(), String> {
            if self.broken_invariant && *s == 3 {
                Err("reached 3".into())
            } else {
                Ok(())
            }
        }
        fn is_quiescent(&self, s: &u8) -> bool {
            *s == 0
        }
    }

    #[test]
    fn non_identity_permutations_are_built_once_in_order() {
        for n in 1..=4 {
            let shared = non_identity_permutations(n);
            assert_eq!(shared, &permutations(n)[1..], "n = {n}");
            assert!(std::ptr::eq(shared, non_identity_permutations(n)));
        }
    }

    #[test]
    fn fingerprints_separate_nearby_values() {
        let fps: std::collections::HashSet<u128> =
            (0u64..10_000).map(|i| fingerprint(&i)).collect();
        assert_eq!(fps.len(), 10_000);
        // Both halves carry entropy.
        let a = fingerprint(&1u64);
        let b = fingerprint(&2u64);
        assert_ne!(a >> 64, b >> 64);
        assert_ne!(a as u64, b as u64);
        // Structural boundaries: where one field ends and the next
        // begins must reach the hash.
        assert_ne!(
            fingerprint(&vec![vec![1u8], vec![]]),
            fingerprint(&vec![vec![], vec![1u8]])
        );
        assert_ne!(fingerprint(&(0u8, 1u8)), fingerprint(&(1u8, 0u8)));
        assert_ne!(fingerprint(&Some(0u8)), fingerprint(&None::<u8>));
        assert_ne!(fingerprint(&Vec::<u8>::new()), fingerprint(&vec![0u8]));
        assert_ne!(fingerprint("a"), fingerprint("a\0"));
        // 10 000 distinct short byte vectors: 0–2 zero bytes of padding
        // (the count of leading zeros) before the minimal big-endian
        // bytes of a value (which never start with zero).
        let small: Vec<Vec<u8>> = (0u32..10_000)
            .map(|i| {
                let mut v = vec![0u8; (i % 3) as usize];
                v.extend((i / 3).to_be_bytes().into_iter().skip_while(|&b| b == 0));
                v
            })
            .collect();
        let fps: std::collections::HashSet<u128> = small.iter().map(fingerprint).collect();
        assert_eq!(fps.len(), 10_000);
    }

    #[test]
    fn parallel_matches_sequential_on_clean_model() {
        let m = Counter {
            max: 5,
            broken_invariant: false,
            deadlock_at_max: false,
        };
        let seq = check(&m, &CheckOptions::default()).unwrap();
        for workers in [1, 2, 4] {
            let opts = CheckOptions {
                workers,
                ..CheckOptions::default()
            };
            let par = check_parallel(&m, &opts).unwrap();
            assert_eq!(par.states, seq.states);
            assert_eq!(par.transitions, seq.transitions);
            assert_eq!(par.depth, seq.depth);
            assert!(par.progress_checked);
            assert_eq!(
                par.kinds.iter().map(String::as_str).collect::<Vec<_>>(),
                ["inc", "reset"]
            );
        }
    }

    #[test]
    fn parallel_finds_same_violation_trace() {
        let m = Counter {
            max: 5,
            broken_invariant: true,
            deadlock_at_max: false,
        };
        let seq = check(&m, &CheckOptions::default()).unwrap_err();
        let par = check_parallel(&m, &CheckOptions::default()).unwrap_err();
        assert_eq!(par.message, seq.message);
        assert_eq!(par.trace, seq.trace);
        assert_eq!(par.state, seq.state);
    }

    #[test]
    fn parallel_finds_deadlock_with_sequential_trace() {
        let m = Counter {
            max: 2,
            broken_invariant: false,
            deadlock_at_max: true,
        };
        let seq = check(&m, &CheckOptions::default()).unwrap_err();
        let par = check_parallel(&m, &CheckOptions::default()).unwrap_err();
        assert_eq!(par.message, seq.message);
        assert_eq!(par.trace, seq.trace);
    }

    /// Two states cycling without ever reaching quiescence.
    struct Livelock;
    impl Model for Livelock {
        type State = u8;
        fn initial(&self) -> Vec<u8> {
            vec![1]
        }
        fn successors(&self, s: &u8, out: &mut Vec<(String, u8)>) {
            out.push(("spin".into(), 3 - s));
        }
        fn invariant(&self, _: &u8) -> Result<(), String> {
            Ok(())
        }
        fn is_quiescent(&self, s: &u8) -> bool {
            *s == 0
        }
    }

    #[test]
    fn parallel_finds_livelock_and_replays_state() {
        let v = check_parallel(&Livelock, &CheckOptions::default()).unwrap_err();
        assert!(v.message.contains("progress"), "{}", v.message);
        assert_eq!(v.state, "1", "replay must reconstruct the bad state");
    }

    /// A livelock whose cycle closes only through edges to states
    /// already in the frozen store: (0,0) -go-> (0,1) -spin-> (1,1)
    /// -spin-> (1,2) -spin-> (0,1), plus a quiescent exit from the root.
    /// Successors are generated sorted, so the symmetry quotient is the
    /// identity on reachable states and counts match the sequential
    /// checker; every action is opaque, so POR never prunes.
    struct KnownCycle;
    impl Model for KnownCycle {
        type State = (u8, u8);
        fn initial(&self) -> Vec<(u8, u8)> {
            vec![(0, 0)]
        }
        fn successors(&self, s: &(u8, u8), out: &mut Vec<(String, (u8, u8))>) {
            match *s {
                (0, 0) => {
                    out.push(("go".into(), (0, 1)));
                    out.push(("halt".into(), (9, 9)));
                }
                (0, 1) => out.push(("spin a".into(), (1, 1))),
                (1, 1) => {
                    out.push(("spin b".into(), (1, 2)));
                    out.push(("stay".into(), (1, 1)));
                }
                (1, 2) => out.push(("spin c".into(), (0, 1))),
                _ => {}
            }
        }
        fn invariant(&self, _: &(u8, u8)) -> Result<(), String> {
            Ok(())
        }
        fn is_quiescent(&self, s: &(u8, u8)) -> bool {
            *s == (9, 9)
        }
        fn canonicalize(&self, s: (u8, u8)) -> (u8, u8) {
            (s.0.min(s.1), s.0.max(s.1))
        }
    }

    #[test]
    fn livelock_closed_by_known_edges_is_found_and_replayed() {
        let opts = CheckOptions {
            symmetry: true,
            por: true,
            workers: 2,
            ..CheckOptions::default()
        };
        let seq = check(&KnownCycle, &CheckOptions::default()).unwrap_err();
        let par = check_parallel(&KnownCycle, &opts).unwrap_err();
        assert!(par.message.contains("progress"), "{}", par.message);
        assert_eq!(par.trace, seq.trace);
        assert_eq!(
            par.state, seq.state,
            "replay must reconstruct the bad state"
        );
        assert_eq!(par.state, "(0, 1)");

        let no_progress = |o: CheckOptions| CheckOptions {
            check_progress: false,
            ..o
        };
        let seq = check(&KnownCycle, &no_progress(CheckOptions::default())).unwrap();
        let par = check_parallel(&KnownCycle, &no_progress(opts)).unwrap();
        assert_eq!((par.states, par.transitions, par.depth), (5, 6, 3));
        assert_eq!(
            (par.states, par.transitions, par.depth),
            (seq.states, seq.transitions, seq.depth)
        );
    }

    #[test]
    #[should_panic(expected = "state space exceeded")]
    fn parallel_respects_state_budget() {
        let m = Counter {
            max: 100,
            broken_invariant: false,
            deadlock_at_max: false,
        };
        let _ = check_parallel(
            &m,
            &CheckOptions {
                max_states: 10,
                check_progress: false,
                ..CheckOptions::default()
            },
        );
    }

    /// Two independent per-node counters plus a classed, commuting
    /// "tick" self-loop family: symmetry folds node permutations, POR
    /// collapses tick interleavings.
    struct TwoSym;
    impl Model for TwoSym {
        type State = (u8, u8);
        fn initial(&self) -> Vec<(u8, u8)> {
            vec![(0, 0)]
        }
        fn successors(&self, s: &(u8, u8), out: &mut Vec<(String, (u8, u8))>) {
            if s.0 < 2 {
                out.push(("inc a".into(), (s.0 + 1, s.1)));
            }
            if s.1 < 2 {
                out.push(("inc b".into(), (s.0, s.1 + 1)));
            }
        }
        fn invariant(&self, _: &(u8, u8)) -> Result<(), String> {
            Ok(())
        }
        fn is_quiescent(&self, _: &(u8, u8)) -> bool {
            true
        }
        fn canonicalize(&self, s: (u8, u8)) -> (u8, u8) {
            (s.0.min(s.1), s.0.max(s.1))
        }
    }

    #[test]
    fn symmetry_shrinks_states_and_keeps_kinds() {
        let seq = check(&TwoSym, &CheckOptions::default()).unwrap();
        assert_eq!(seq.states, 9);
        let par = check_parallel(
            &TwoSym,
            &CheckOptions {
                symmetry: true,
                ..CheckOptions::default()
            },
        )
        .unwrap();
        assert_eq!(par.states, 6, "unordered pairs of 0..=2");
        assert_eq!(
            par.kinds.iter().map(String::as_str).collect::<Vec<_>>(),
            ["inc"]
        );
    }

    /// Independent classed increments on two nodes: POR may take one
    /// node's action alone at each state; the (2,2) corner and kind set
    /// must survive.
    struct TwoPor;
    impl Model for TwoPor {
        type State = (u8, u8);
        fn initial(&self) -> Vec<(u8, u8)> {
            vec![(0, 0)]
        }
        fn successors(&self, s: &(u8, u8), out: &mut Vec<(String, (u8, u8))>) {
            if s.0 < 2 {
                out.push(("inca".into(), (s.0 + 1, s.1)));
            }
            if s.1 < 2 {
                out.push(("incb".into(), (s.0, s.1 + 1)));
            }
        }
        fn invariant(&self, s: &(u8, u8)) -> Result<(), String> {
            if *s == (2, 2) {
                Err("corner reached".into())
            } else {
                Ok(())
            }
        }
        fn is_quiescent(&self, _: &(u8, u8)) -> bool {
            true
        }
        fn action_meta(&self, _: &(u8, u8), label: &str) -> ActionMeta {
            match label {
                "inca" => ActionMeta {
                    reads: 0b01,
                    writes: 0b01,
                    class: Some(0),
                },
                "incb" => ActionMeta {
                    reads: 0b10,
                    writes: 0b10,
                    class: Some(1),
                },
                _ => ActionMeta::OPAQUE,
            }
        }
    }

    #[test]
    fn por_prunes_interleavings_but_finds_the_violation() {
        let seq = check(&TwoPor, &CheckOptions::default()).unwrap_err();
        assert!(seq.message.contains("corner"));
        let opts = CheckOptions {
            por: true,
            ..CheckOptions::default()
        };
        let par = check_parallel(&TwoPor, &opts).unwrap_err();
        assert_eq!(par.message, seq.message);
        assert_eq!(par.trace.len(), seq.trace.len(), "minimal trace length");
        // And on the clean variant it actually reduces.
        struct Clean;
        impl Model for Clean {
            type State = (u8, u8);
            fn initial(&self) -> Vec<(u8, u8)> {
                TwoPor.initial()
            }
            fn successors(&self, s: &(u8, u8), out: &mut Vec<(String, (u8, u8))>) {
                TwoPor.successors(s, out);
            }
            fn invariant(&self, _: &(u8, u8)) -> Result<(), String> {
                Ok(())
            }
            fn is_quiescent(&self, _: &(u8, u8)) -> bool {
                true
            }
            fn action_meta(&self, s: &(u8, u8), label: &str) -> ActionMeta {
                TwoPor.action_meta(s, label)
            }
        }
        let full = check(&Clean, &CheckOptions::default()).unwrap();
        let red = check_parallel(&Clean, &opts).unwrap();
        assert!(red.por_states_reduced > 0);
        assert!(red.transitions < full.transitions);
        assert_eq!(red.kinds.len(), 2, "pruned kinds still collected");
    }

    /// A 32×32 grid with independent increments: hundreds of diamond
    /// reconvergences, so the 1/16 audit stripe sees dedup hits with
    /// certainty for any reasonable hash.
    struct Grid;
    impl Model for Grid {
        type State = (u8, u8);
        fn initial(&self) -> Vec<(u8, u8)> {
            vec![(0, 0)]
        }
        fn successors(&self, s: &(u8, u8), out: &mut Vec<(String, (u8, u8))>) {
            if s.0 < 31 {
                out.push(("inca".into(), (s.0 + 1, s.1)));
            }
            if s.1 < 31 {
                out.push(("incb".into(), (s.0, s.1 + 1)));
            }
        }
        fn invariant(&self, _: &(u8, u8)) -> Result<(), String> {
            Ok(())
        }
        fn is_quiescent(&self, _: &(u8, u8)) -> bool {
            true
        }
    }

    #[test]
    fn collision_audit_runs_on_the_stripe() {
        let r = check_parallel(
            &Grid,
            &CheckOptions {
                collision_audit: true,
                ..CheckOptions::default()
            },
        )
        .unwrap();
        assert_eq!(r.states, 32 * 32);
        let dedup_hits = r.transitions - (r.states as u64 - 1);
        assert!(dedup_hits > 500, "grid must reconverge heavily");
        assert!(r.audited > 0, "audit stripe must see dedup hits");
    }

    /// A 4096-state ring with long jumps: most dedup hits land on
    /// states stored at earlier levels, i.e. in the frozen store.
    struct Jumps;
    impl Model for Jumps {
        type State = u16;
        fn initial(&self) -> Vec<u16> {
            vec![0]
        }
        fn successors(&self, s: &u16, out: &mut Vec<(String, u16)>) {
            out.push(("next".into(), (s + 1) % 4096));
            out.push(("jump".into(), (s * 7 + 3) % 4096));
        }
        fn invariant(&self, _: &u16) -> Result<(), String> {
            Ok(())
        }
        fn is_quiescent(&self, _: &u16) -> bool {
            true
        }
    }

    #[test]
    fn audit_checks_every_dedup_hit_on_the_stripe() {
        let r = check_parallel(
            &Jumps,
            &CheckOptions {
                collision_audit: true,
                workers: 2,
                ..CheckOptions::default()
            },
        )
        .unwrap();
        assert_eq!(r.states, 4096);
        // Every transition into a stripe state is a dedup hit, except
        // the one that discovered it.
        let on_stripe = |t: u16| on_audit_stripe(fingerprint(&t));
        let mut succs = Vec::new();
        let mut into_stripe = 0u64;
        for s in 0..4096u16 {
            succs.clear();
            Jumps.successors(&s, &mut succs);
            into_stripe += succs.iter().filter(|(_, t)| on_stripe(*t)).count() as u64;
        }
        let discovered = (1..4096u16).filter(|&t| on_stripe(t)).count() as u64;
        assert!(discovered > 100, "the stripe holds about 1/16 of states");
        assert_eq!(r.audited, into_stripe - discovered);
    }
}
