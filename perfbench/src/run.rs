//! State shared by one benchmark run: tracer, checks, metrics, and the
//! per-layer figures the workload loop hands to the layer probes.

use crate::checks::Checks;
use crate::host::PeakMem;
use crate::measure::Metrics;
use crate::pace::Pace;
use crate::stats::{beyond, highest_supported_percentile, median, quantile, Reservoir};
use crate::trace::{Tracer, ROOT};
use gsketch::ReplayStats;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The set-up phase is repeated for at least this long (reference passes
/// included) and at least `SETUP_REPS` times; its median repetition, at
/// nominal pace, is `setup_s`.
const SETUP_SECONDS: f64 = 1.0;
pub const SETUP_REPS: usize = 7;
const SETUP_MAX_REPS: usize = 1_000;
/// Batch latencies kept for the percentiles: p99 then has 655 samples
/// beyond it.
const LATENCY_SAMPLES: usize = 1 << 16;
/// Batch latencies one unit holds without reallocating: a 0.25 s unit
/// of memo-served batches answers about 20,000.
const UNIT_LATENCIES: usize = 1 << 17;

pub struct Run {
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    pub owners: usize,
    pub tr: Tracer,
    pub checks: Checks,
    pub metrics: Metrics,
    pub notes: Vec<String>,
    /// Directory for files the run writes (snapshots, spans).
    pub out_dir: PathBuf,
    /// Traced over untraced median unit time, minus one.
    pub overhead: f64,
    /// `ReplayEngine` counters from the workload loop.
    pub replay: ReplayTally,
    /// `WindowedReplay` counters from the workload loop.
    pub windowed_replay: ReplayTally,
    /// Per-batch query latencies (µs) of the measured passes, at nominal
    /// pace.
    pub latency: Reservoir,
    /// Batch latencies (µs, wall clock) of the unit in progress, held
    /// until the pass that closes the unit gives their slowdown.
    pub unit_latency: Vec<f64>,
    pub pace: Pace,
    peak: PeakMem,
}

impl Run {
    pub fn new(seconds: u64, trace: bool, owners: usize, out_dir: PathBuf) -> Self {
        Self {
            seconds,
            trace,
            owners,
            tr: Tracer::new(trace),
            checks: Checks::default(),
            metrics: Metrics::default(),
            notes: Vec::new(),
            out_dir,
            overhead: 0.0,
            replay: ReplayTally::default(),
            windowed_replay: ReplayTally::default(),
            // Allocated before the peak-memory meter starts.
            latency: Reservoir::new(LATENCY_SAMPLES),
            unit_latency: resident_empty(UNIT_LATENCIES),
            pace: Pace::new(),
            peak: PeakMem::start(),
        }
    }

    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    /// The traced run traces every other unit and leaves the rest
    /// untraced, so the two can be compared for the tracing overhead.
    pub fn trace_unit(&self, unit: u64) -> bool {
        self.trace && unit % 2 == 1
    }

    /// Repeat the set-up `f` under spans named `name`, report the median
    /// repetition as `setup_s`, and return the last result (an error
    /// counts as a failed check).
    pub fn setup<T, E: std::fmt::Display>(
        &mut self,
        name: &'static str,
        mut f: impl FnMut() -> Result<T, E>,
    ) -> Option<T> {
        let (mut secs, mut wall) = (Vec::new(), Vec::new());
        let mut last = None;
        let start = Instant::now();
        self.pace.begin();
        while secs.len() < SETUP_MAX_REPS
            && (secs.len() < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_SECONDS)
        {
            let open = self.tr.begin(name, secs.len() as u64, ROOT, 0);
            let t = Instant::now();
            let v = f();
            let rep = t.elapsed().as_secs_f64();
            self.tr.end(open);
            // Dropping the previous result is left outside the timing.
            last = self.checks.result(v, name);
            secs.push(rep / self.pace.end_unit());
            wall.push(rep);
        }
        self.put_median("setup_s", &secs, "s");
        self.note_wall("setup_s", &wall);
        last
    }

    /// Close a unit of the workload loop (see [`Pace`]) and return its
    /// slowdown. A measured unit's batch latencies go to the reservoir at
    /// nominal pace; a warm unit's are dropped.
    pub fn end_unit(&mut self, measured: bool) -> f64 {
        let slowdown = self.pace.end_unit();
        if measured {
            for &us in &self.unit_latency {
                self.latency.push(us / slowdown);
            }
        }
        self.unit_latency.clear();
        slowdown
    }

    /// Note the wall-clock median of samples whose metric is stated at
    /// nominal pace, so the unadjusted figure stays visible.
    pub fn note_wall(&mut self, name: &str, wall: &[f64]) {
        self.notes
            .push(format!("{name} (wall clock): median {:.6}", median(wall)));
    }

    /// A path for a file this run writes and removes again.
    pub fn scratch_file(&self, name: &str) -> PathBuf {
        self.out_dir.join(format!("{}-{name}", std::process::id()))
    }

    /// Note the current RSS for the peak-memory fallback.
    pub fn sample_mem(&mut self) {
        self.peak.sample();
    }

    /// `peak_mem_mb`: the rise of peak RSS since the run started (after
    /// its inputs were generated) up to the end of the measured phases.
    pub fn put_peak_mem(&mut self) {
        let mib = self.peak.rise_mib();
        self.metrics.put("peak_mem_mb", mib, "MiB");
        if !self.peak.reset_worked() {
            self.notes
                .push("clear_refs not writable: peak_mem_mb from sampled RSS".into());
        }
    }

    /// Put the median of per-pass `samples` as metric `name`, noting the
    /// pass count and quartiles so within-run spread is visible.
    pub fn put_median(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        let v = median(samples);
        self.metrics.put(name, v, unit);
        self.notes.push(format!(
            "{name}: {} passes, quartiles {:.6} / {v:.6} / {:.6}",
            samples.len(),
            quantile(samples, 0.25),
            quantile(samples, 0.75)
        ));
    }

    /// `query_qps` as the median pass, and per-batch latency at p50 and
    /// p99 over a uniform sample of every measured batch, with the
    /// sample counts noted.
    pub fn latency_metrics(&mut self, qps: &[f64]) {
        self.put_median("query_qps", qps, "1/s");
        let lat_us = self.latency.samples();
        let n = lat_us.len();
        let (p50, p99) = (quantile(lat_us, 0.50), quantile(lat_us, 0.99));
        self.metrics.put("query_p50_us", p50, "us");
        self.metrics.put("query_p99_us", p99, "us");
        let top = highest_supported_percentile(n).unwrap_or(0.0);
        self.notes.push(format!(
            "query latency: {} batches, {n} sampled, {} beyond p99; highest supported percentile p{top}",
            self.latency.seen(),
            beyond(n, 99.0)
        ));
        if top < 99.0 {
            self.notes
                .push("WARNING: too few batches for a p99 with ten samples beyond it".into());
        }
    }
}

/// An empty vector whose buffer of `cap` values is already resident, so
/// filling it never raises the memory the program is charged with.
fn resident_empty(cap: usize) -> Vec<f64> {
    let mut v = vec![f64::NAN; cap];
    v.clear();
    v
}

/// Replay-memo counters summed over engines: hits and misses of the
/// read side, invalidations per ingested chunk of the write side.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayTally {
    pub reads: ReplayStats,
    pub invalidations: u64,
    pub chunks: u64,
}

impl ReplayTally {
    pub fn add_reads(&mut self, s: ReplayStats) {
        self.reads.hits += s.hits;
        self.reads.misses += s.misses;
    }

    pub fn add_writes(&mut self, s: ReplayStats, chunks: u64) {
        self.invalidations += s.invalidations;
        self.chunks += chunks;
    }
}

/// Unit times of one phase, split by whether the unit was traced.
#[derive(Debug, Default)]
pub struct UnitTimes {
    traced: Vec<f64>,
    untraced: Vec<f64>,
}

impl UnitTimes {
    pub fn push(&mut self, traced: bool, secs: f64) {
        if traced {
            self.traced.push(secs);
        } else {
            self.untraced.push(secs);
        }
    }

    /// Median traced unit time over median untraced unit time, minus one
    /// (0 when either side has no units).
    pub fn overhead(&self) -> f64 {
        if self.traced.is_empty() || self.untraced.is_empty() {
            return 0.0;
        }
        median(&self.traced) / median(&self.untraced) - 1.0
    }
}
