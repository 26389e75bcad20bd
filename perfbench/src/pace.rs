//! Host pace: a fixed reference kernel, timed between measured units, so
//! that every timing can be stated at a nominal host speed.
//!
//! On a shared host the speed of memory-bound code drifts by a third or
//! more over seconds to minutes, as other tenants load the shared cache
//! and memory. A run's medians cannot remove drift that is slower than the
//! run, so two sets of runs of the same code disagree. The reference
//! kernel does the same kind of work the sketch does (hashed counter
//! updates into a buffer larger than a core's private cache), so it
//! slows down with the host; it is the benchmark's own code, so it never
//! changes with the program. Each measured unit is bracketed by two
//! reference passes; the mean of the two over [`NOMINAL_S`] is the
//! unit's slowdown, and the unit's times are divided by it (its rates
//! multiplied). A change to the program moves the units and not the
//! reference, so it shows in full.

use crate::stats::{median, quantile};
use std::hint::black_box;
use std::time::Instant;

/// Counter buffer of the reference kernel: the largest sketch budget the
/// workloads use, four times a core's private L2 cache.
const REF_BYTES: usize = 8 << 20;
/// Keys hashed per reference pass (four counter updates each): about
/// 12 ms on the nominal host.
const REF_KEYS: u64 = 1 << 19;
/// Reference time that defines the nominal host (slowdown 1.0). On a
/// 2-vCPU Xeon guest with a 2 MiB L2 per core it read 7–12 ms.
pub const NOMINAL_S: f64 = 0.012;

pub struct Pace {
    counters: Vec<u32>,
    /// Reference time at the start of the unit in progress.
    before: f64,
    /// Every unit's slowdown, in run order.
    slowdowns: Vec<f64>,
}

impl Pace {
    pub fn new() -> Self {
        // Faulting the buffer in here makes it resident before the
        // peak-memory meter starts.
        let mut p = Self {
            counters: vec![0; REF_BYTES / 4],
            before: 0.0,
            slowdowns: Vec::with_capacity(1 << 16),
        };
        p.begin();
        p
    }

    /// Open a unit after work that no reference pass closed.
    pub fn begin(&mut self) {
        self.before = self.reference();
    }

    /// Close the unit in progress and return its slowdown: the mean of
    /// the reference passes before and after it, over [`NOMINAL_S`]. The
    /// closing pass opens the next unit.
    pub fn end_unit(&mut self) -> f64 {
        let after = self.reference();
        let slowdown = (self.before + after) / 2.0 / NOMINAL_S;
        self.before = after;
        if self.slowdowns.len() < self.slowdowns.capacity() {
            self.slowdowns.push(slowdown);
        }
        slowdown
    }

    /// The run's median unit slowdown (1.0 before any unit).
    pub fn slowdown(&self) -> f64 {
        if self.slowdowns.is_empty() {
            1.0
        } else {
            median(&self.slowdowns)
        }
    }

    /// Unit count and slowdown quartiles, for the run's notes.
    pub fn summary(&self) -> String {
        format!(
            "host slowdown (perfbench/src/pace.rs): {} units, quartiles {:.4} / {:.4} / {:.4}",
            self.slowdowns.len(),
            quantile(&self.slowdowns, 0.25),
            self.slowdown(),
            quantile(&self.slowdowns, 0.75)
        )
    }

    /// One timed reference pass, in seconds. An untimed pass first brings
    /// the buffer back into cache, so the timed one does not depend on
    /// how much of it the program's last unit evicted.
    fn reference(&mut self) -> f64 {
        self.pass();
        let t = Instant::now();
        self.pass();
        t.elapsed().as_secs_f64()
    }

    /// `REF_KEYS` keys of a fixed sequence, each hashed to four counters
    /// that are incremented.
    fn pass(&mut self) {
        let m = self.counters.len() as u64;
        let mut k = black_box(0x9E37_79B9_7F4A_7C15u64);
        for _ in 0..REF_KEYS {
            k = k.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut h = k;
            for _ in 0..4 {
                h = (h ^ (h >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                // Multiply-shift maps the top 32 bits onto 0..m.
                let i = (((h >> 32) * m) >> 32) as usize;
                if let Some(c) = self.counters.get_mut(i) {
                    *c = c.wrapping_add(1);
                }
            }
        }
        black_box(&self.counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_slowdown_is_the_bracketing_mean_over_nominal() {
        let mut p = Pace {
            counters: vec![0; 1024],
            before: NOMINAL_S,
            slowdowns: Vec::with_capacity(2),
        };
        assert_eq!(p.slowdown(), 1.0, "no unit: wall clock");
        let s = p.end_unit();
        let after = (2.0 * s - 1.0) * NOMINAL_S;
        assert!(after > 0.0, "{s}");
        assert!(
            (p.before - after).abs() < 1e-12,
            "the closing pass opens the next unit"
        );
        for _ in 0..2 {
            p.end_unit();
        }
        assert_eq!(p.slowdowns.len(), 2, "kept up to capacity");
        assert_eq!(p.slowdown(), median(&p.slowdowns));
        // Three units, each an untimed and a timed pass.
        assert_eq!(
            p.counters.iter().map(|&c| u64::from(c)).sum::<u64>(),
            3 * 2 * 4 * REF_KEYS
        );
    }
}
