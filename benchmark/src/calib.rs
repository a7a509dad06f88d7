//! Host-speed calibration: a fixed reference kernel timed next to the
//! measured work, so that end-to-end times are given at one nominal
//! host speed.
//!
//! On a shared host, neighbours that load the last-level cache and the
//! memory bus slow a memory-bound program by up to 2× for minutes at a
//! time, while a register-only loop keeps its speed. The simulator and
//! the model checker are memory-bound, so their raw wall times drift
//! with the host by more than any useful bound. The reference kernel is
//! memory-bound in the same way (hash-map churn with small allocations,
//! then a pointer chase over 4 MiB) and belongs to the benchmark, so no
//! change to the program moves it. Timed right before and right after a
//! span of work, it tells how slow the host was just then; the span
//! divided by that slow-down (reference seconds ÷ [`NOMINAL_S`]) is the
//! span at nominal speed.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// Seconds one reference call takes at nominal speed: a round figure
/// near its time on a lightly loaded 2-vCPU Intel Xeon VM. Only the
/// unit of the nominal times depends on it.
pub const NOMINAL_S: f64 = 0.015;

/// Hash-map operations per reference call.
const CHURN_OPS: u64 = 60_000;
/// Distinct keys of the churned map.
const CHURN_KEYS: u64 = 20_000;
/// Entries of the pointer-chase cycle (4 bytes each, 4 MiB).
const CHASE_LEN: usize = 1 << 20;
/// Pointer-chase steps per reference call.
const CHASE_STEPS: usize = 100_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A random single cycle over `0..n` (Sattolo's shuffle), as a
/// successor table.
fn cycle(n: usize, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut x = seed;
    for i in (1..n).rev() {
        let j = (xorshift(&mut x) % i as u64) as usize;
        order.swap(i, j);
    }
    let mut next = vec![0u32; n];
    for i in 0..n {
        next[order[i] as usize] = order[(i + 1) % n];
    }
    next
}

/// The reference kernel. Its inputs are fixed, and the map's hasher has
/// fixed keys, so every call does the same work.
pub struct Reference {
    next: Vec<u32>,
}

impl Reference {
    /// Builds the pointer-chase cycle (4 MiB, resident from then on).
    pub fn new() -> Reference {
        Reference {
            next: cycle(CHASE_LEN, 0x9e37_79b9_7f4a_7c15),
        }
    }

    /// One call of the kernel; returns its host seconds.
    pub fn time(&self) -> f64 {
        let start = Instant::now();
        let mut map: HashMap<u64, Vec<u8>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        let mut x = 0x2545_f491_4f6c_dd1d;
        let mut acc = 0u64;
        for i in 0..CHURN_OPS {
            let r = xorshift(&mut x);
            let key = r % CHURN_KEYS;
            if let Some(v) = map.get_mut(&key) {
                acc = acc.wrapping_add(u64::from(v[0]));
                v[0] = v[0].wrapping_add(1);
                if i % 3 == 0 {
                    map.remove(&key);
                }
            } else {
                map.insert(key, vec![r as u8; 64 + (r % 192) as usize]);
            }
        }
        let mut j = 0u32;
        for _ in 0..CHASE_STEPS {
            j = self.next[j as usize];
        }
        black_box((acc, j, map.len()));
        start.elapsed().as_secs_f64()
    }
}

/// `raw` seconds at nominal speed, given the reference seconds measured
/// right before and right after them.
pub fn at_nominal(raw: f64, before: f64, after: f64) -> f64 {
    raw * NOMINAL_S / ((before + after) / 2.0)
}

/// Times spans of work, each followed by a reference call, so that each
/// span sits between two reference calls.
pub struct Calibrator {
    reference: Reference,
    last: f64,
    /// Every reference call's seconds, in order.
    pub refs: Vec<f64>,
}

/// A span's host seconds, raw and at nominal speed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// Measured host seconds.
    pub raw: f64,
    /// [`at_nominal`] of them.
    pub nominal: f64,
}

impl Calibrator {
    /// Builds the reference and makes its first call.
    pub fn new() -> Calibrator {
        let reference = Reference::new();
        let last = reference.time();
        Calibrator {
            reference,
            last,
            refs: vec![last],
        }
    }

    fn close(&mut self) -> (f64, f64) {
        let before = self.last;
        self.last = self.reference.time();
        self.refs.push(self.last);
        (before, self.last)
    }

    /// Runs and times `work`, then calls the reference.
    pub fn span<R>(&mut self, work: impl FnOnce() -> R) -> (R, Span) {
        let start = Instant::now();
        let out = work();
        let raw = start.elapsed().as_secs_f64();
        let (before, after) = self.close();
        let nominal = at_nominal(raw, before, after);
        (out, Span { raw, nominal })
    }

    /// Times each of `n` calls of `work` (cheap calls, so the reference
    /// runs once after all of them); returns their nominal seconds.
    pub fn batch(&mut self, n: usize, mut work: impl FnMut()) -> Vec<f64> {
        let raws: Vec<f64> = (0..n)
            .map(|_| {
                let start = Instant::now();
                work();
                start.elapsed().as_secs_f64()
            })
            .collect();
        let (before, after) = self.close();
        raws.iter().map(|&r| at_nominal(r, before, after)).collect()
    }

    /// The host's slow-down against nominal: median reference seconds ÷
    /// [`NOMINAL_S`].
    pub fn slowdown(&self) -> f64 {
        crate::stats::median(&self.refs).unwrap_or(NOMINAL_S) / NOMINAL_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_visits_every_entry_once() {
        let next = cycle(1000, 3);
        let mut seen = vec![false; 1000];
        let mut j = 0usize;
        for _ in 0..1000 {
            assert!(!seen[j], "entry {j} visited twice");
            seen[j] = true;
            j = next[j] as usize;
        }
        assert_eq!(j, 0, "the walk closes after every entry");
    }

    #[test]
    fn nominal_scales_by_the_flanking_references() {
        // A host at half speed: references take twice the nominal time.
        let slow = 2.0 * NOMINAL_S;
        assert_eq!(at_nominal(4.0, slow, slow), 2.0);
        assert_eq!(at_nominal(4.0, NOMINAL_S, NOMINAL_S), 4.0);
        // The mean of the two flanking calls is the slow-down.
        assert_eq!(at_nominal(3.0, NOMINAL_S, 2.0 * NOMINAL_S), 2.0);
    }

    #[test]
    fn spans_sit_between_reference_calls() {
        let mut cal = Calibrator::new();
        let (out, span) = cal.span(|| 7);
        assert_eq!(out, 7);
        assert!(span.raw >= 0.0 && span.nominal >= 0.0);
        let batch = cal.batch(3, || {});
        assert_eq!(batch.len(), 3);
        assert_eq!(
            cal.refs.len(),
            3,
            "one call to start, one per span or batch"
        );
        assert!(cal.refs.iter().all(|&r| r > 0.0));
        assert!(cal.slowdown() > 0.0);
    }
}
