//! The four workloads and the inputs each generates from `--seed`. The
//! program under test only ever sees these generated inputs.

use gsketch::{GSketch, GSketchBuilder, WindowConfig};
use gsketch_bench::datasets::Dataset;
use gstream::edge::{Edge, StreamEdge};
use gstream::workload::{
    inject_absent_queries, uniform_distinct_queries, ZipfEdgeSampler, ZipfRank,
};
use gstream::ExactCounter;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IngestGtGraph,
    ReplayDblp,
    MixedIpAttack,
    TimeTravelIpAttack,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::IngestGtGraph,
        Workload::ReplayDblp,
        Workload::MixedIpAttack,
        Workload::TimeTravelIpAttack,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestGtGraph => "ingest-gtgraph",
            Workload::ReplayDblp => "replay-dblp",
            Workload::MixedIpAttack => "mixed-ipattack",
            Workload::TimeTravelIpAttack => "timetravel-ipattack",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Arrivals per `EdgeSink::ingest_batch` call on the batched write path.
pub const INGEST_CHUNK: usize = 65_536;
/// Arrivals per ingest chunk in the mixed read/write loop.
pub const MIXED_CHUNK: usize = 4_096;
/// Queries per replayed batch.
pub const QUERY_BATCH: usize = 1_024;
/// Zipf skew of the replayed workloads (`query --workload` default).
const ZIPF_ALPHA: f64 = 1.1;
/// Uniform distinct-edge queries used for accuracy on the ingest workload.
const ACCURACY_QUERIES: usize = 10_000;
/// Queries per replay pass on the Zipf workloads.
const REPLAY_QUERIES: usize = 64 * QUERY_BATCH;
/// Share of the mixed workload's queries that probe never-seen edges.
pub const MIXED_ABSENT_FRAC: f64 = 0.25;
/// Time-travel window span (timestamps) and memory per window.
pub const WINDOW_SPAN: u64 = 100_000;
pub const WINDOW_MEMORY: usize = 256 << 10;
/// Windows per time-travel interval panel.
pub const PANEL_WINDOWS: u64 = 5;
/// Reservoir capacity handed to each next window (the CLI's value).
const WINDOW_SAMPLE: usize = 256;

/// Everything a run feeds the library, generated before measuring.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub stream: Vec<StreamEdge>,
    pub truth: ExactCounter,
    /// Data sample the partitioner is built from.
    pub sample: Vec<StreamEdge>,
    /// Query-workload sample (scenario 2 only; empty otherwise).
    pub workload_sample: Vec<Edge>,
    /// The replayed (and accuracy-checked) queries, in replay order.
    pub queries: Vec<Edge>,
    pub sample_rate: f64,
    pub memory: usize,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let dataset = match workload {
            Workload::IngestGtGraph => Dataset::GtGraph,
            Workload::ReplayDblp => Dataset::Dblp,
            Workload::MixedIpAttack | Workload::TimeTravelIpAttack => Dataset::IpAttack,
        };
        let stream = dataset.stream(1.0, seed);
        let truth = ExactCounter::from_stream(&stream);
        let sample = dataset.data_sample(&stream, seed);
        let sample_rate = (sample.len() as f64 / stream.len() as f64).clamp(1e-6, 1.0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0FBE);
        let mut workload_sample = Vec::new();
        let queries = match workload {
            Workload::IngestGtGraph => uniform_distinct_queries(&truth, ACCURACY_QUERIES, &mut rng),
            Workload::ReplayDblp => {
                let sampler =
                    ZipfEdgeSampler::new(&truth, ZIPF_ALPHA, ZipfRank::Frequency, &mut rng);
                workload_sample =
                    sampler.draw(dataset.workload_sample_size(stream.len()), &mut rng);
                sampler.draw(REPLAY_QUERIES, &mut rng)
            }
            Workload::MixedIpAttack => {
                let sampler =
                    ZipfEdgeSampler::new(&truth, ZIPF_ALPHA, ZipfRank::Frequency, &mut rng);
                let mut q = sampler.draw(REPLAY_QUERIES, &mut rng);
                inject_absent_queries(&truth, &mut q, MIXED_ABSENT_FRAC, &mut rng);
                q
            }
            Workload::TimeTravelIpAttack => {
                let sampler =
                    ZipfEdgeSampler::new(&truth, ZIPF_ALPHA, ZipfRank::Frequency, &mut rng);
                sampler.draw(REPLAY_QUERIES, &mut rng)
            }
        };
        let memory = match workload {
            Workload::IngestGtGraph => dataset.fixed_memory(),
            _ => 2 << 20,
        };
        Self {
            workload,
            seed,
            stream,
            truth,
            sample,
            workload_sample,
            queries,
            sample_rate,
            memory,
        }
    }

    /// Build the in-memory deployment with the CLI `build` defaults
    /// (depth 1, minimum width 64): scenario 2 when a workload sample
    /// exists, scenario 1 otherwise.
    pub fn build(&self) -> Result<GSketch, sketch::SketchError> {
        self.build_replicate(0)
    }

    /// [`build`](Self::build) with the hash seed of accuracy replicate
    /// `r` (replicate 0 is the deployment itself).
    pub fn build_replicate(&self, r: u64) -> Result<GSketch, sketch::SketchError> {
        let builder = GSketch::builder()
            .memory_bytes(self.memory)
            .depth(1)
            .min_width(64)
            .sample_rate(self.sample_rate)
            .seed(replicate_seed(self.seed, r));
        if self.workload_sample.is_empty() {
            builder.build_from_sample(&self.sample)
        } else {
            builder.build_with_workload(&self.sample, &self.workload_sample)
        }
    }

    /// The windowed deployment's configuration (the CLI `snapshot`
    /// defaults). The span is the time-travel span on the IP-attack
    /// stream; on other streams it is scaled to give as many windows.
    pub fn window_config(&self) -> (WindowConfig, GSketchBuilder) {
        self.window_config_replicate(0)
    }

    /// [`window_config`](Self::window_config) with the seed of accuracy
    /// replicate `r`.
    pub fn window_config_replicate(&self, r: u64) -> (WindowConfig, GSketchBuilder) {
        let seed = replicate_seed(self.seed, r);
        const IPATTACK_ARRIVALS: u64 = 3_800_000;
        let t_max = self.stream.last().map_or(0, |se| se.ts);
        let span = if self.workload == Workload::TimeTravelIpAttack {
            WINDOW_SPAN
        } else {
            (WINDOW_SPAN * (t_max + 1))
                .div_ceil(IPATTACK_ARRIVALS)
                .max(1)
        };
        let cfg = WindowConfig {
            span,
            memory_bytes_per_window: WINDOW_MEMORY,
            sample_capacity: WINDOW_SAMPLE,
            seed,
        };
        (cfg, GSketch::builder().min_width(64).seed(seed))
    }

    /// Queries with a quarter of them replaced by never-seen edges,
    /// unless the workload already probes absent edges: the layer probes
    /// use it so the absent-key ratios are defined on every workload.
    pub fn probe_queries(&self) -> Vec<Edge> {
        let mut q = self.queries.clone();
        if self.workload != Workload::MixedIpAttack {
            let mut rng = StdRng::seed_from_u64(self.seed ^ 0x00AB_5E17);
            inject_absent_queries(&self.truth, &mut q, MIXED_ABSENT_FRAC, &mut rng);
        }
        q
    }
}

/// Accuracy is averaged over this many hash seeds of one configuration.
/// With depth-1 sketches one unlucky collision between a rare queried
/// edge and a heavy one dominates a single sketch's mean relative error
/// (the experiment harness averages replicates for the same reason).
pub const REPLICATES: u64 = 8;

/// Builder seed of accuracy replicate `r` (the harness's stride).
fn replicate_seed(seed: u64, r: u64) -> u64 {
    seed.wrapping_add(r * 7919)
}

/// Tiled interval panels `[start, end]` (inclusive) of `PANEL_WINDOWS`
/// windows each, covering timestamps `0..=t_max`.
pub fn panels(span: u64, t_max: u64) -> Vec<(u64, u64)> {
    let width = span * PANEL_WINDOWS;
    (0..=t_max / width)
        .map(|k| (k * width, (k + 1) * width - 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn panels_tile_the_lifetime() {
        assert_eq!(panels(10, 120), [(0, 49), (50, 99), (100, 149)]);
        assert_eq!(panels(10, 49), [(0, 49)]);
    }
}
