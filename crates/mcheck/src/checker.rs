//! A small explicit-state model checker.
//!
//! Breadth-first exhaustive exploration with invariant checking, deadlock
//! detection, counterexample traces, and an `EF quiescence` progress check
//! (from every reachable state, a state with no pending work must be
//! reachable — catching both deadlocks and inescapable livelocks). This is
//! the same methodology the paper uses with TLA+/TLC (§5), in-tree so the
//! verification study is reproducible without external tooling.

use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;
use std::time::Instant;

use crate::explore::{fingerprint, FpSet};

/// A transition system with invariants.
pub trait Model {
    /// The (hashable) global state.
    type State: Clone + Eq + Hash + Debug;

    /// Initial states.
    fn initial(&self) -> Vec<Self::State>;

    /// All successors of `s`, with human-readable action labels.
    fn successors(&self, s: &Self::State, out: &mut Vec<(String, Self::State)>);

    /// Safety invariant; return a description of the violation if broken.
    ///
    /// # Errors
    ///
    /// An error describes the violated property for the counterexample.
    fn invariant(&self, s: &Self::State) -> Result<(), String>;

    /// True if `s` is allowed to have no successors, and is a valid
    /// target for the progress (EF-quiescence) check.
    fn is_quiescent(&self, s: &Self::State) -> bool;

    /// Takes the single labeled step `label` from `s`, if the model
    /// offers it — the refinement-checker entry point: an observed
    /// implementation action conforms iff the model can take the
    /// matching transition from its current abstract state.
    fn step_labeled(&self, s: &Self::State, label: &str) -> Option<Self::State> {
        let mut succ = Vec::new();
        self.successors(s, &mut succ);
        succ.into_iter().find(|(l, _)| l == label).map(|(_, t)| t)
    }

    /// The canonical representative of `s`'s symmetry orbit, used by
    /// [`crate::explore::check_parallel`] when `CheckOptions::symmetry`
    /// is on. The default is the identity (a trivial symmetry group),
    /// which is always sound. A model overriding this promises that its
    /// transition relation, invariant, and quiescence predicate are all
    /// invariant under the group it quotients by — the soundness
    /// arguments per model live in DESIGN.md §17. The state is taken by
    /// value so the identity is a move.
    fn canonicalize(&self, s: Self::State) -> Self::State {
        s
    }

    /// Footprint metadata for the enabled action labelled `label` in
    /// state `s`, used by the partial-order reduction in
    /// [`crate::explore::check_parallel`]. The default is
    /// [`ActionMeta::OPAQUE`] (conflicts with everything, never
    /// reducible), which is always sound. See DESIGN.md §17 for the
    /// obligations a model takes on by declaring anything finer.
    fn action_meta(&self, s: &Self::State, label: &str) -> ActionMeta {
        let _ = (s, label);
        ActionMeta::OPAQUE
    }
}

/// Per-action footprint metadata for partial-order reduction.
///
/// `reads`/`writes` are bitmasks over a resource universe the model
/// chooses (per-node state, budgets, global control — at most 64
/// resources). Two actions are treated as *dependent* when one's writes
/// intersect the other's reads-or-writes. `class` groups actions the
/// model additionally certifies as an *ample-eligible class*: members
/// pairwise commute semantically, and no action dependent on the class
/// can become enabled by firing actions outside it (the future-enabling
/// obligation — argued per class in DESIGN.md §17).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ActionMeta {
    /// Resources the action's guard or effect reads.
    pub reads: u64,
    /// Resources the action's effect writes.
    pub writes: u64,
    /// Ample-eligible class id, or `None` for plain actions.
    pub class: Option<u32>,
}

impl ActionMeta {
    /// Conservative default: touches every resource, never reducible.
    pub const OPAQUE: ActionMeta = ActionMeta {
        reads: u64::MAX,
        writes: u64::MAX,
        class: None,
    };

    /// A plain (classless) action with the given footprint.
    pub const fn rw(reads: u64, writes: u64) -> ActionMeta {
        ActionMeta {
            reads,
            writes,
            class: None,
        }
    }

    /// True if `self` and `other` may not commute (write overlap).
    pub fn dependent(&self, other: &ActionMeta) -> bool {
        self.writes & (other.reads | other.writes) != 0
            || other.writes & (self.reads | self.writes) != 0
    }
}

/// The set of distinct transition *kinds* (first whitespace-separated
/// word of each action label) fired anywhere in the model's reachable
/// state space, up to `max_states` distinct states.
///
/// This is the coverage universe for conformance accounting: a kind in
/// this set that a simulator trace never maps to is either dead spec or
/// a missing test.
///
/// # Panics
///
/// Panics if the reachable state count exceeds `max_states`.
pub fn reachable_kinds<M: Model>(
    model: &M,
    max_states: usize,
) -> std::collections::BTreeSet<String> {
    // Dedup by 128-bit fingerprint instead of retaining a full clone of
    // every visited state: at the 5M-state scale the conformance
    // coverage universes run at, that is 16 bytes per state rather than
    // a whole protocol state (hundreds of bytes each for TokenModel).
    // The collision risk is negligible (~n²/2^129; see DESIGN.md §17),
    // and a collision could only drop a kind that is reachable via
    // other states anyway.
    let mut kinds = std::collections::BTreeSet::new();
    let mut seen = FpSet::default();
    let mut frontier: Vec<M::State> = Vec::new();
    for s in model.initial() {
        if seen.insert(fingerprint(&s)) {
            frontier.push(s);
        }
    }
    let mut succ = Vec::new();
    while let Some(s) = frontier.pop() {
        succ.clear();
        model.successors(&s, &mut succ);
        for (label, t) in succ.drain(..) {
            let kind = kind_head(&label);
            if !kinds.contains(kind) {
                kinds.insert(kind.to_string());
            }
            if seen.insert(fingerprint(&t)) {
                assert!(
                    seen.len() <= max_states,
                    "state space exceeded {max_states} states"
                );
                frontier.push(t);
            }
        }
    }
    kinds
}

/// The transition kind of an action label: its first whitespace-separated
/// word.
pub(crate) fn kind_head(label: &str) -> &str {
    label.split_whitespace().next().unwrap_or("")
}

/// The lowest-numbered state from which no quiescent state is reachable
/// (the EF-quiescence check), or `None` if every state can quiesce. The
/// graph is in CSR form: state `u`'s successors are
/// `edge_to[edge_start[u]..edge_start[u + 1]]`. Backward reachability
/// from the quiescent states runs over the reverse graph, built by a
/// counting sort on edge targets.
pub(crate) fn first_stuck(
    edge_start: &[usize],
    edge_to: &[u32],
    quiescent: &[bool],
) -> Option<u32> {
    let n = quiescent.len();
    // After the counts and their prefix sum, `rev_start[v]` is the end of
    // `v`'s run; placing each edge decrements it to the run's start.
    let mut rev_start = vec![0usize; n + 1];
    for &v in edge_to {
        rev_start[v as usize] += 1;
    }
    for v in 1..=n {
        rev_start[v] += rev_start[v - 1];
    }
    let mut rev_to = vec![0u32; edge_to.len()];
    for u in 0..n {
        for &v in &edge_to[edge_start[u]..edge_start[u + 1]] {
            rev_start[v as usize] -= 1;
            rev_to[rev_start[v as usize]] = u as u32;
        }
    }
    let mut ok = quiescent.to_vec();
    let mut stack: Vec<u32> = (0..n as u32).filter(|&i| ok[i as usize]).collect();
    while let Some(u) = stack.pop() {
        let u = u as usize;
        for &v in &rev_to[rev_start[u]..rev_start[u + 1]] {
            if !ok[v as usize] {
                ok[v as usize] = true;
                stack.push(v);
            }
        }
    }
    ok.iter().position(|&q| !q).map(|i| i as u32)
}

/// A property violation plus the action trace leading to it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What went wrong.
    pub message: String,
    /// Action labels from an initial state to the violating state.
    pub trace: Vec<String>,
    /// The violating state, pretty-printed.
    pub state: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "violation: {}", self.message)?;
        writeln!(f, "state: {}", self.state)?;
        writeln!(f, "trace ({} steps):", self.trace.len())?;
        for (i, a) in self.trace.iter().enumerate() {
            writeln!(f, "  {i:3}. {a}")?;
        }
        Ok(())
    }
}

/// Statistics from an exhaustive exploration.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Distinct reachable states.
    pub states: usize,
    /// Transitions explored.
    pub transitions: u64,
    /// Maximum BFS depth.
    pub depth: usize,
    /// Wall-clock seconds spent.
    pub seconds: f64,
    /// Whether the progress (EF-quiescence) check was run and passed.
    pub progress_checked: bool,
}

/// Options for [`check`] and [`crate::explore::check_parallel`].
///
/// The sequential [`check`] reads only `max_states` and
/// `check_progress`; the remaining knobs configure the parallel
/// explorer and are ignored here.
#[derive(Debug, Clone, Copy)]
pub struct CheckOptions {
    /// Abort after this many distinct states (guards against blow-up).
    pub max_states: usize,
    /// Run the EF-quiescence progress check after reachability.
    pub check_progress: bool,
    /// Worker threads for [`crate::explore::check_parallel`]
    /// (`0` = [`tokencmp_pool::default_threads`]).
    pub workers: usize,
    /// Quotient the state space by the model's symmetry group
    /// ([`Model::canonicalize`]).
    pub symmetry: bool,
    /// Apply partial-order reduction using [`Model::action_meta`].
    pub por: bool,
    /// Retain full states on a sampled fingerprint stripe and assert
    /// that every dedup hit there compares equal (collision audit).
    pub collision_audit: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            max_states: 5_000_000,
            check_progress: true,
            workers: 0,
            symmetry: false,
            por: false,
            collision_audit: false,
        }
    }
}

/// Exhaustively explores `model`, checking the invariant on every state,
/// flagging non-quiescent deadlocks, and (optionally) verifying that a
/// quiescent state stays reachable from everywhere.
///
/// # Errors
///
/// Returns the first [`Violation`] found, with a minimal-length trace
/// (BFS order).
///
/// # Panics
///
/// Panics if the state count exceeds `opts.max_states`.
pub fn check<M: Model>(model: &M, opts: &CheckOptions) -> Result<CheckReport, Box<Violation>> {
    let start = Instant::now();
    let mut ids: HashMap<M::State, usize> = HashMap::new();
    let mut states: Vec<M::State> = Vec::new();
    let mut parent: Vec<Option<(usize, String)>> = Vec::new();
    let mut depth_of: Vec<usize> = Vec::new();
    // Forward graph in CSR form (see `first_stuck`).
    let mut edge_start: Vec<usize> = Vec::new();
    let mut edge_to: Vec<u32> = Vec::new();
    let mut quiescent: Vec<bool> = Vec::new();
    let mut frontier: Vec<usize> = Vec::new();
    let mut transitions: u64 = 0;
    let mut max_depth = 0;

    let trace_to = |idx: usize, parent: &Vec<Option<(usize, String)>>, states: &Vec<M::State>| {
        let mut trace = Vec::new();
        let mut cur = idx;
        while let Some((p, a)) = &parent[cur] {
            trace.push(a.clone());
            cur = *p;
        }
        trace.reverse();
        (trace, format!("{:?}", states[idx]))
    };

    for s in model.initial() {
        if let Err(m) = model.invariant(&s) {
            return Err(Box::new(Violation {
                message: m,
                trace: vec![],
                state: format!("{s:?}"),
            }));
        }
        let id = states.len();
        if ids.insert(s.clone(), id).is_none() {
            states.push(s);
            parent.push(None);
            depth_of.push(0);
            quiescent.push(false);
            frontier.push(id);
        }
    }

    let mut succ = Vec::new();
    let mut head = 0;
    while head < frontier.len() {
        let id = frontier[head];
        head += 1;
        edge_start.push(edge_to.len());
        let s = &states[id];
        succ.clear();
        model.successors(s, &mut succ);
        quiescent[id] = model.is_quiescent(s);
        if succ.is_empty() && !quiescent[id] {
            let (trace, state) = trace_to(id, &parent, &states);
            return Err(Box::new(Violation {
                message: "deadlock: non-quiescent state with no successors".into(),
                trace,
                state,
            }));
        }
        for (label, t) in succ.drain(..) {
            transitions += 1;
            let t_id = match ids.get(&t) {
                Some(&i) => i,
                None => {
                    if let Err(m) = model.invariant(&t) {
                        let (mut trace, _) = trace_to(id, &parent, &states);
                        trace.push(label.clone());
                        return Err(Box::new(Violation {
                            message: m,
                            trace,
                            state: format!("{t:?}"),
                        }));
                    }
                    let i = states.len();
                    assert!(
                        i < opts.max_states,
                        "state space exceeded {} states",
                        opts.max_states
                    );
                    ids.insert(t.clone(), i);
                    states.push(t);
                    parent.push(Some((id, label)));
                    let d = depth_of[id] + 1;
                    depth_of.push(d);
                    max_depth = max_depth.max(d);
                    quiescent.push(false);
                    frontier.push(i);
                    i
                }
            };
            edge_to.push(t_id as u32);
        }
    }
    edge_start.push(edge_to.len());

    // Progress: every state can reach a quiescent state (EF quiescence).
    if opts.check_progress {
        if let Some(bad) = first_stuck(&edge_start, &edge_to, &quiescent) {
            let (trace, state) = trace_to(bad as usize, &parent, &states);
            return Err(Box::new(Violation {
                message: "progress violation: no quiescent state reachable (livelock)".into(),
                trace,
                state,
            }));
        }
    }

    Ok(CheckReport {
        states: states.len(),
        transitions,
        depth: max_depth,
        seconds: start.elapsed().as_secs_f64(),
        progress_checked: opts.check_progress,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter that may increment up to `max` and reset from `max`.
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
    fn explores_all_states() {
        let m = Counter {
            max: 5,
            broken_invariant: false,
            deadlock_at_max: false,
        };
        let r = check(&m, &CheckOptions::default()).unwrap();
        assert_eq!(r.states, 6);
        assert_eq!(r.transitions, 6);
        assert_eq!(r.depth, 5);
        assert!(r.progress_checked);
    }

    #[test]
    fn finds_invariant_violation_with_minimal_trace() {
        let m = Counter {
            max: 5,
            broken_invariant: true,
            deadlock_at_max: false,
        };
        let v = check(&m, &CheckOptions::default()).unwrap_err();
        assert!(v.message.contains("reached 3"));
        assert_eq!(v.trace.len(), 3);
        assert!(v.to_string().contains("trace (3 steps)"));
    }

    #[test]
    fn finds_deadlock() {
        let m = Counter {
            max: 2,
            broken_invariant: false,
            deadlock_at_max: true,
        };
        let v = check(&m, &CheckOptions::default()).unwrap_err();
        assert!(v.message.contains("deadlock"), "{}", v.message);
        assert_eq!(v.trace.len(), 2);
    }

    /// Two states cycling without ever reaching quiescence.
    struct Livelock;
    impl Model for Livelock {
        type State = u8;
        fn initial(&self) -> Vec<u8> {
            vec![1]
        }
        fn successors(&self, s: &u8, out: &mut Vec<(String, u8)>) {
            out.push(("spin".into(), 3 - s)); // 1 <-> 2
        }
        fn invariant(&self, _: &u8) -> Result<(), String> {
            Ok(())
        }
        fn is_quiescent(&self, s: &u8) -> bool {
            *s == 0 // unreachable
        }
    }

    #[test]
    fn finds_livelock_via_progress_check() {
        let v = check(&Livelock, &CheckOptions::default()).unwrap_err();
        assert!(v.message.contains("progress"), "{}", v.message);
        // Without the progress check it passes.
        let r = check(
            &Livelock,
            &CheckOptions {
                check_progress: false,
                ..CheckOptions::default()
            },
        )
        .unwrap();
        assert_eq!(r.states, 2);
    }

    #[test]
    fn step_labeled_follows_exactly_one_transition() {
        let m = Counter {
            max: 5,
            broken_invariant: false,
            deadlock_at_max: false,
        };
        assert_eq!(m.step_labeled(&2, "inc 2"), Some(3));
        assert_eq!(m.step_labeled(&2, "inc 3"), None, "label must match state");
        assert_eq!(m.step_labeled(&5, "reset"), Some(0));
        assert_eq!(m.step_labeled(&5, "inc 5"), None);
    }

    #[test]
    fn reachable_kinds_collects_label_heads() {
        let m = Counter {
            max: 3,
            broken_invariant: false,
            deadlock_at_max: false,
        };
        let kinds = reachable_kinds(&m, 1000);
        let kinds: Vec<&str> = kinds.iter().map(String::as_str).collect();
        assert_eq!(kinds, ["inc", "reset"]);
    }

    #[test]
    #[should_panic(expected = "state space exceeded")]
    fn reachable_kinds_respects_state_budget() {
        let m = Counter {
            max: 100,
            broken_invariant: false,
            deadlock_at_max: false,
        };
        let _ = reachable_kinds(&m, 10);
    }

    #[test]
    #[should_panic(expected = "state space exceeded")]
    fn respects_state_budget() {
        let m = Counter {
            max: 100,
            broken_invariant: false,
            deadlock_at_max: false,
        };
        let _ = check(
            &m,
            &CheckOptions {
                max_states: 10,
                check_progress: false,
                ..CheckOptions::default()
            },
        );
    }
}
