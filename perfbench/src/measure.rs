//! Time sharing between a workload's measured phases, and the report
//! the run prints.

use std::time::{Duration, Instant};

/// Repetitions of every measured phase before its median is trusted.
const MIN_UNITS: usize = 5;

/// Splits `--seconds` between phases in fixed shares. Phases alternate
/// in blocks of about [`BLOCK_SECONDS`] of normalised progress: long
/// enough that a phase runs with the caches it warmed (an 8M-arrival
/// ingest pass evicts everything a replay pass had loaded), short enough
/// that a burst of host noise lands on every phase alike instead of on
/// whichever phase happened to run during it. The first unit of every
/// block is a warm unit: it runs, but its figures are not kept.
pub struct Scheduler {
    shares: Vec<f64>,
    spent: Vec<f64>,
    units: Vec<usize>,
    current: Option<usize>,
    /// Measured units of the block in progress.
    block_units: usize,
    start: Instant,
    budget: Duration,
}

/// Seconds a phase may run ahead of the phase furthest behind its share
/// (progress measured as time spent over share) before it yields.
const BLOCK_SECONDS: f64 = 1.0;
/// Measured units a block holds at least, so a phase with a small share
/// and long units is not all warm units.
const MIN_BLOCK_UNITS: usize = 2;

impl Scheduler {
    /// `shares[i]` is phase `i`'s share of the budget; a zero share
    /// disables the phase.
    pub fn new(shares: &[f64], budget: Duration) -> Self {
        Self {
            shares: shares.to_vec(),
            spent: vec![0.0; shares.len()],
            units: vec![0; shares.len()],
            current: None,
            block_units: 0,
            start: Instant::now(),
            budget,
        }
    }

    /// The phase to run next and whether the unit is a warm one, or
    /// `None` once the budget is spent and every phase has run
    /// [`MIN_UNITS`] measured units. Past three budgets the
    /// run ends as soon as every phase has one unit, so a slow host
    /// cannot push a run past its time limit.
    pub fn next(&mut self) -> Option<(usize, bool)> {
        let active: Vec<usize> = (0..self.shares.len())
            .filter(|&i| self.shares[i] > 0.0)
            .collect();
        let elapsed = self.start.elapsed();
        let short = |min: usize| active.iter().copied().find(|&i| self.units[i] < min);
        let chosen = if elapsed >= self.budget * 3 {
            short(1)
        } else if elapsed >= self.budget {
            short(MIN_UNITS)
        } else {
            self.within_budget(&active)
        }?;
        let warm = self.current != Some(chosen);
        if warm {
            self.block_units = 0;
        }
        self.current = Some(chosen);
        Some((chosen, warm))
    }

    fn within_budget(&self, active: &[usize]) -> Option<usize> {
        let progress = |i: usize| self.spent[i] / self.shares[i];
        let behind = active
            .iter()
            .copied()
            .min_by(|&a, &b| progress(a).total_cmp(&progress(b)))?;
        Some(match self.current {
            Some(c)
                if self.block_units < MIN_BLOCK_UNITS
                    || progress(c) <= progress(behind) + BLOCK_SECONDS =>
            {
                c
            }
            _ => behind,
        })
    }

    /// Measured units phase `i` has completed so far.
    pub fn units(&self, i: usize) -> usize {
        self.units[i]
    }

    pub fn done(&mut self, i: usize, wall: Duration, warm: bool) {
        self.spent[i] += wall.as_secs_f64();
        self.units[i] += usize::from(!warm);
        self.block_units += usize::from(!warm);
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`. A value that is not finite is
/// written as `null` (and is a defect of the benchmark to be fixed).
pub fn json_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_owned()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        attempted.max(1),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_follows_shares_in_blocks_then_stops() {
        let mut s = Scheduler::new(&[0.75, 0.0, 0.25], Duration::from_secs(3600));
        let mut runs = [0usize; 3];
        let mut switches = 0;
        let mut last = None;
        for _ in 0..4000 {
            let (i, warm) = s.next().unwrap();
            runs[i] += 1;
            let switched = last != Some(i);
            assert_eq!(warm, switched, "the first unit of a block is warm");
            switches += usize::from(switched);
            last = Some(i);
            s.done(i, Duration::from_millis(10), warm);
        }
        assert_eq!(runs[1], 0, "a zero share never runs");
        // 40 s split 3:1, give or take one block of each phase.
        assert!((2900..=3100).contains(&runs[0]), "{runs:?}");
        // Blocks of a second of progress: 0.75 s of phase 0, then 0.25 s
        // of phase 2, so about 40 switches, not one per unit.
        assert!((30..=50).contains(&switches), "{switches}");

        // A small share with units longer than its block: every block
        // still has two measured units after its warm one.
        let mut s = Scheduler::new(&[0.15, 0.85], Duration::from_secs(3600));
        let mut block = Vec::new();
        for _ in 0..200 {
            let (i, warm) = s.next().unwrap();
            if warm {
                if block.first() == Some(&0) {
                    assert_eq!(block.len(), 3, "warm unit plus two measured");
                }
                block.clear();
            }
            block.push(i);
            let unit = if i == 0 { 280 } else { 250 };
            s.done(i, Duration::from_millis(unit), warm);
        }

        let mut s = Scheduler::new(&[1.0, 1.0], Duration::ZERO);
        let mut n = 0;
        while let Some((i, warm)) = s.next() {
            s.done(i, Duration::ZERO, warm);
            n += 1;
        }
        // Each phase: one warm unit, then one measured unit.
        assert_eq!(n, 4, "past three budgets each phase is measured once");
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.8127, "s");
        m.put("are", f64::NAN, "ratio");
        assert_eq!(
            json_line(10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"are\": {\"value\": null, \"unit\": \"ratio\"}}}"
        );
        assert!(json_line(0, 0, &Metrics::default())
            .starts_with("{\"correct\": false, \"attempted\": 1,"));
    }
}
