//! The traced run's layer probes. After the workload loop, each inner
//! layer's public function is driven on the workload's own inputs under
//! spans of its own, so a layer's time is measured from outside the
//! program. Per-layer figures are span self time per unit of work.

use crate::inputs::{panels, Inputs, INGEST_CHUNK, MIXED_CHUNK, QUERY_BATCH};
use crate::memory::{check_sharded, estimates, sharded_pass, Deployed};
use crate::run::{Run, SETUP_REPS};
use crate::stats::median;
use crate::trace::{totals_by_name, Totals, ROOT};
use crate::windowed::{self, WindowedDeployed};
use gsketch::partition::{partition, PartitionConfig};
use gsketch::{
    load_windowed, load_windowed_horizon, save_windowed, EdgeSink, GSketch, Objective,
    ParallelIngest, ReplayEngine, ReplayStats, Router, SampleStats, WindowedReplay,
};
use gstream::edge::StreamEdge;
use serde::{Deserialize, Serialize, Value};
use sketch::{BlockedBloom, CmArena};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each probe whose median is reported.
const PROBE_REPS: usize = 5;

pub fn run(r: &mut Run, inp: &Inputs, mem: Option<Deployed>, win: Option<WindowedDeployed>) {
    let Some(mem) = mem.or_else(|| memory_deployment(r, inp)) else {
        r.notes
            .push("no in-memory deployment: layer probes skipped".into());
        return;
    };
    plan_probes(r, inp, &mem);
    write_path_probes(r, inp, &mem);
    read_path_probes(r, inp, &mem);
    pipeline_probes(r, inp, &mem);
    replay_probes(r, inp, &mem);
    if let Some(win) = win.or_else(|| windowed_deployment(r, inp)) {
        window_probes(r, inp, &win);
        let _ = std::fs::remove_file(&win.snapshot);
    }
    span_metrics(r);
}

/// The time-travel workload has no in-memory deployment of its own; its
/// probes use one built like the mixed workload's on the same stream.
fn memory_deployment(r: &mut Run, inp: &Inputs) -> Option<Deployed> {
    let empty = r.checks.result(inp.build(), "GSketchBuilder build")?;
    let mut ingested = empty.clone();
    ingested.ingest_batch(&inp.stream);
    Some(Deployed { empty, ingested })
}

/// The in-memory workloads have no windowed deployment of their own; their
/// probes build one over the same stream and save it.
fn windowed_deployment(r: &mut Run, inp: &Inputs) -> Option<WindowedDeployed> {
    let (cfg, builder) = inp.window_config();
    let (live, _) = windowed::ingest_pass(cfg, builder, inp, &mut r.tr, &mut r.checks, 0)?;
    let snapshot = r.scratch_file("probe.wsnap");
    let _ = std::fs::remove_file(&snapshot);
    r.checks
        .result(save_windowed(&snapshot, &live), "save_windowed")?;
    Some(WindowedDeployed { live, snapshot })
}

fn timed_ms<R>(r: &mut Run, name: &'static str, f: impl Fn() -> R) -> (f64, R) {
    let mut ms = Vec::new();
    let mut last = None;
    for rep in 0..PROBE_REPS {
        let t = Instant::now();
        let v = r.tr.span(name, rep as u64, ROOT, 0, &f);
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        last = Some(v);
    }
    (median(&ms), last.expect("PROBE_REPS > 0"))
}

/// `core::vstats` and `core::partition`: the two halves of a build.
fn plan_probes(r: &mut Run, inp: &Inputs, mem: &Deployed) {
    let (ms, mut stats) = timed_ms(r, "vstats.sample", || {
        if inp.workload_sample.is_empty() {
            SampleStats::from_data_sample(&inp.sample)
        } else {
            SampleStats::from_samples(&inp.sample, &inp.workload_sample)
        }
    });
    r.metrics.put("vstats.sample_ms", ms, "ms");
    stats.extrapolate(inp.sample_rate);
    // The builder's uncalibrated path: counters get what the 1/16
    // pre-filter carve leaves, the outlier sketch a tenth of the width.
    let total_width = (inp.memory - inp.memory / 16) / 8;
    let mut cfg = PartitionConfig::new(total_width - (total_width / 10).max(2));
    cfg.min_width = 64;
    cfg.objective = if inp.workload_sample.is_empty() {
        Objective::DataOnly
    } else {
        Objective::DataWorkload
    };
    let ms = timed_ms(r, "partition.plan", || partition(&stats, &cfg)).0;
    r.metrics.put("partition.plan_ms", ms, "ms");
    if !r.tr.spans().iter().any(|s| s.name == "gsketch.build") {
        for rep in 0..SETUP_REPS {
            let b =
                r.tr.span("gsketch.build", rep as u64, ROOT, 0, || inp.build());
            r.checks.result(b, "GSketchBuilder build");
        }
    }
    let build_ms = span_median_ms(r.tr.spans(), "gsketch.build");
    r.metrics.put("gsketch.build_ms", build_ms, "ms");
    let leaves = mem.empty.num_partitions() as f64;
    r.metrics.put("partition.leaves", leaves, "count");
}

/// A sketch's bank and pre-filter, copied out through its serialized
/// form (the fields are private to the library).
fn parts(g: &GSketch) -> (Option<CmArena>, Option<BlockedBloom>) {
    let v = g.to_value();
    let field = |name| serde::value_field(&v, name).ok();
    (
        field("bank").and_then(|b| CmArena::from_value(b).ok()),
        field("filter").and_then(|f| BlockedBloom::from_value(f).ok()),
    )
}

/// Arrivals grouped by router slot, as `GSketch::ingest_batch` groups
/// them: `(slot, start, end)` runs into `pairs`.
fn group_by_slot(
    router: &Router,
    chunk: &[StreamEdge],
    pairs: &mut Vec<(u64, u64)>,
) -> Vec<(u32, usize, usize)> {
    let mut tagged: Vec<(u32, u64, u64)> = chunk
        .iter()
        .map(|se| (router.slot(se.edge.src), se.edge.key(), se.weight))
        .collect();
    tagged.sort_by_key(|t| t.0);
    pairs.clear();
    pairs.extend(tagged.iter().map(|t| (t.1, t.2)));
    runs(tagged.iter().map(|t| t.0))
}

/// `(slot, start, end)` for each maximal run of equal slots.
fn runs(slots: impl Iterator<Item = u32>) -> Vec<(u32, usize, usize)> {
    let mut out: Vec<(u32, usize, usize)> = Vec::new();
    for (i, s) in slots.enumerate() {
        match out.last_mut() {
            Some(last) if last.0 == s => last.2 = i + 1,
            _ => out.push((s, i, i + 1)),
        }
    }
    out
}

/// `core::router`, `sketch::blocked_bloom` inserts, `sketch::arena`
/// commits and `GSketch::ingest_batch` itself, chunk by chunk.
fn write_path_probes(r: &mut Run, inp: &Inputs, mem: &Deployed) {
    let router = Router::from_plan(mem.empty.plan());
    let outlier = router.outlier_slot();
    let routed_out = inp
        .stream
        .iter()
        .filter(|se| router.slot(se.edge.src) == outlier)
        .count();
    let frac = routed_out as f64 / inp.stream.len().max(1) as f64;
    r.metrics.put("router.outlier_frac", frac, "fraction");
    let (bank, filter) = parts(&mem.empty);
    let (Some(mut bank), mut filter) = (bank, filter) else {
        r.notes
            .push("arena bank could not be copied: write-path probes skipped".into());
        return;
    };
    let mut pairs = Vec::with_capacity(INGEST_CHUNK);
    let mut g = mem.empty.clone();
    for (i, chunk) in inp.stream.chunks(INGEST_CHUNK).enumerate() {
        let id = i as u64;
        let work = chunk.len() as u64;
        r.tr.span("router.slot", id, ROOT, work, || {
            let mut acc = 0u32;
            for se in chunk {
                acc = acc.wrapping_add(router.slot(black_box(se.edge.src)));
            }
            black_box(acc)
        });
        let runs = group_by_slot(&router, chunk, &mut pairs);
        if let Some(f) = filter.as_mut() {
            r.tr.span("bloom.insert_run", id, ROOT, work, || {
                for &(slot, a, b) in &runs {
                    f.insert_run(slot, &pairs[a..b]);
                }
            });
        }
        r.tr.span("arena.add_batch_saturating", id, ROOT, work, || {
            for &(slot, a, b) in &runs {
                bank.add_batch_saturating(slot, &pairs[a..b]);
            }
        });
        r.tr.span("gsketch.ingest_batch", id, ROOT, work, || {
            g.ingest_batch(chunk)
        });
    }
    r.checks.equal(
        &estimates(&g, &inp.queries),
        &estimates(&mem.ingested, &inp.queries),
        "probe ingest vs workload ingest",
    );
}

/// Uncached `GSketch` reads and their filter and counter layers, on the
/// probe queries (a quarter of them absent).
fn read_path_probes(r: &mut Run, inp: &Inputs, mem: &Deployed) {
    let router = Router::from_plan(mem.ingested.plan());
    let (bank, filter) = parts(&mem.ingested);
    let Some(bank) = bank else {
        return;
    };
    let queries = inp.probe_queries();
    let mut unfiltered = mem.ingested.clone();
    unfiltered.set_prefilter(false);
    let (mut absent, mut rejected, mut zero) = (0u64, 0u64, 0u64);
    let (mut out, mut mask, mut vals) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts = Vec::new();
    for (b, batch) in queries.chunks(QUERY_BATCH).enumerate() {
        let id = b as u64;
        let work = batch.len() as u64;
        r.tr.span("gsketch.estimate_edges", id, ROOT, work, || {
            mem.ingested.estimate_batch(batch, &mut out)
        });
        let mut tagged: Vec<(u32, u64)> = batch
            .iter()
            .map(|e| (router.slot(e.src), e.key()))
            .collect();
        tagged.sort_by_key(|t| t.0);
        let keys: Vec<u64> = tagged.iter().map(|t| t.1).collect();
        let runs = runs(tagged.iter().map(|t| t.0));
        if let Some(f) = &filter {
            r.tr.span("bloom.contains_batch", id, ROOT, work, || {
                for &(slot, a, b) in &runs {
                    f.contains_batch(slot, &keys[a..b], &mut mask);
                }
            });
        }
        r.tr.span("arena.estimate_batch_slot", id, ROOT, work, || {
            for &(slot, a, b) in &runs {
                bank.estimate_batch_slot(slot, &keys[a..b], &mut vals);
            }
        });
        unfiltered.estimate_batch(batch, &mut counts);
        for (e, &c) in batch.iter().zip(&counts) {
            if inp.truth.frequency(*e) == 0 {
                absent += 1;
                zero += u64::from(c == 0);
                let slot = router.slot(e.src);
                rejected += u64::from(filter.as_ref().is_some_and(|f| !f.contains(slot, e.key())));
            }
        }
    }
    let absent = absent.max(1) as f64;
    let m = &mut r.metrics;
    m.put(
        "bloom.absent_reject_frac",
        rejected as f64 / absent,
        "fraction",
    );
    m.put("arena.absent_zero_frac", zero as f64 / absent, "fraction");
}

/// `core::pipeline`: the owner-sharded engine at one and two owners and
/// the shared-atomic engine at two workers, each checked against the
/// sequential ingest.
fn pipeline_probes(r: &mut Run, inp: &Inputs, mem: &Deployed) {
    let n = inp.stream.len() as f64;
    let (mut one, mut two, mut cpu, mut par) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut chunks = 0;
    for rep in 0..PROBE_REPS as u64 {
        for owners in [1, 2] {
            let (g, secs, report) = sharded_pass(&mem.empty, inp, &mut r.tr, rep, owners);
            check_sharded(&mut r.checks, &g, &mem.ingested, &inp.queries);
            if owners == 1 {
                one.push(secs.wall / n * 1e9);
            } else {
                two.push(secs.wall / n * 1e9);
                cpu.push(secs.cpu / secs.wall);
                chunks = report.chunks;
            }
        }
        let c = gsketch::ConcurrentGSketch::from_gsketch(mem.empty.clone());
        let t = Instant::now();
        r.tr.span(
            "parallel.run_slice",
            rep,
            ROOT,
            inp.stream.len() as u64,
            || ParallelIngest::new(&c, 2).run_slice(&inp.stream),
        );
        par.push(t.elapsed().as_secs_f64() / n * 1e9);
        check_sharded(
            &mut r.checks,
            &c.into_gsketch(),
            &mem.ingested,
            &inp.queries,
        );
    }
    let m = &mut r.metrics;
    m.put("sharded.1owner_ns", median(&one), "ns");
    m.put("sharded.2owner_ns", median(&two), "ns");
    m.put("sharded.cpu_per_wall", median(&cpu), "ratio");
    m.put("sharded.chunks", chunks as f64, "count");
    m.put("parallel.2worker_ns", median(&par), "ns");
}

/// `core::replay` where the workload loop did not exercise it: reads
/// through a warm memo, and writes through the engine's invalidation.
fn replay_probes(r: &mut Run, inp: &Inputs, mem: &Deployed) {
    let has = |r: &Run, name| r.tr.spans().iter().any(|s| s.name == name);
    if !has(r, "replay.estimate_edges") {
        let mut engine = ReplayEngine::new(mem.ingested.clone());
        let mut out = Vec::new();
        for pass in 0..3u64 {
            for (b, batch) in inp.queries.chunks(QUERY_BATCH).enumerate() {
                let id = pass << 32 | b as u64;
                r.tr.span(
                    "replay.estimate_edges",
                    id,
                    ROOT,
                    batch.len() as u64,
                    || engine.estimate_edges(batch, &mut out),
                );
            }
        }
        r.replay.add_reads(engine.stats());
    }
    if !has(r, "replay.ingest_batch") {
        let mut engine = ReplayEngine::new(mem.empty.clone());
        let chunks = inp.stream.chunks(MIXED_CHUNK);
        let n_chunks = chunks.len() as u64;
        for (i, chunk) in chunks.enumerate() {
            r.tr.span(
                "replay.ingest_batch",
                i as u64,
                ROOT,
                chunk.len() as u64,
                || engine.ingest_batch(chunk),
            );
        }
        r.replay.add_writes(engine.stats(), n_chunks);
    }
}

/// `core::window`, `core::persist` and `sketch::slab`.
fn window_probes(r: &mut Run, inp: &Inputs, win: &WindowedDeployed) {
    let live = &win.live;
    r.metrics
        .put("window.sealed", live.sealed_windows() as f64, "count");
    let t_max = inp.stream.last().map_or(0, |se| se.ts);
    let span = live.config().span;
    let panels = panels(span, t_max);
    let mut out = Vec::new();
    let mut b = 0u64;
    for batch in inp.queries.chunks(QUERY_BATCH) {
        for &(s, e) in &panels {
            r.tr.span(
                "window.estimate_interval_batch",
                b,
                ROOT,
                batch.len() as u64,
                || live.estimate_interval_batch(batch, s, e, &mut out),
            );
            b += 1;
        }
    }
    let path = &win.snapshot;
    let (load_ms, loaded) = timed_ms(r, "persist.load_windowed", || load_windowed(path));
    r.metrics.put("persist.load_ms", load_ms, "ms");
    if let Some(loaded) = r.checks.result(loaded, "load_windowed") {
        if r.windowed_replay.reads == ReplayStats::default() {
            let mut replay = WindowedReplay::new(loaded);
            let mut rows = Vec::new();
            for _ in 0..2 {
                for batch in inp.queries.chunks(QUERY_BATCH) {
                    for &(s, e) in &panels {
                        replay.estimate_interval_detailed_batch(batch, s, e, &mut rows);
                    }
                }
            }
            r.windowed_replay.add_reads(replay.stats());
        }
    }
    let t_start = t_max - (t_max + 1) / 10;
    let (ms, horizon) = timed_ms(r, "persist.load_windowed_horizon", || {
        load_windowed_horizon(path, t_start, t_max)
    });
    r.metrics.put("persist.load_horizon_ms", ms, "ms");
    r.checks.result(horizon, "load_windowed_horizon");
    let copy = r.scratch_file("probe-save.wsnap");
    let (ms, saved) = timed_ms(r, "persist.save_windowed", || {
        let _ = std::fs::remove_file(&copy);
        save_windowed(&copy, live)
    });
    r.metrics.put("persist.save_ms", ms, "ms");
    r.checks.result(saved, "save_windowed");
    let _ = std::fs::remove_file(&copy);
    slab_probe(r, path);
}

/// `sketch::slab`: decode every counter slab of the snapshot, timing
/// only the decode (the JSON parse around it is untimed).
fn slab_probe(r: &mut Run, path: &std::path::Path) {
    let Some(text) = r
        .checks
        .result(std::fs::read_to_string(path), "read snapshot")
    else {
        return;
    };
    let mut id = 0u64;
    for line in text.lines() {
        let Ok(v) = serde_json::parse(line) else {
            continue;
        };
        let mut slabs = Vec::new();
        find_slabs(&v, &mut slabs);
        for (cells, expected) in slabs {
            let d = r.tr.span("slab.decode", id, ROOT, expected as u64, || {
                sketch::slab::u64_cells_from_value(cells, expected)
            });
            r.checks.result(d, "slab decode");
            id += 1;
        }
    }
}

/// Every arena map in a snapshot record: its `cells` slab and how many
/// cells its `spans` and `depth` say the slab holds.
fn find_slabs<'v>(v: &'v Value, out: &mut Vec<(&'v Value, usize)>) {
    match v {
        Value::Map(fields) => {
            let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
            if let (Some(cells), Some(spans), Some(depth)) =
                (get("cells"), get("spans"), get("depth"))
            {
                let spans: Vec<sketch::SlotSpan> =
                    Deserialize::from_value(spans).unwrap_or_default();
                let depth = usize::from_value(depth).unwrap_or(0);
                out.push((cells, spans.iter().map(|s| s.width).sum::<usize>() * depth));
                return;
            }
            for (_, f) in fields {
                find_slabs(f, out);
            }
        }
        Value::Seq(items) => items.iter().for_each(|i| find_slabs(i, out)),
        _ => {}
    }
}

/// The per-layer figures that are span self time per unit of work, and
/// the replay counters the workload loop and the probes accumulated.
fn span_metrics(r: &mut Run) {
    let totals = totals_by_name(r.tr.spans());
    let ns = |name: &str| totals.get(name).map_or(0.0, Totals::self_ns_per_work);
    let (slot, ingest, est) = (
        ns("router.slot"),
        ns("gsketch.ingest_batch"),
        ns("gsketch.estimate_edges"),
    );
    let (replay, wr) = (r.replay, r.windowed_replay.reads);
    let m = &mut r.metrics;
    m.put("router.slot_ns", slot, "ns");
    m.put("bloom.insert_ns", ns("bloom.insert_run"), "ns");
    m.put("bloom.contains_ns", ns("bloom.contains_batch"), "ns");
    m.put("arena.commit_ns", ns("arena.add_batch_saturating"), "ns");
    m.put("arena.batch_read_ns", ns("arena.estimate_batch_slot"), "ns");
    m.put("gsketch.ingest_batch_ns", ingest, "ns");
    let parts = slot + ns("bloom.insert_run") + ns("arena.add_batch_saturating");
    m.put("gsketch.ingest_residual_ns", ingest - parts, "ns");
    m.put("gsketch.estimate_edges_ns", est, "ns");
    let parts = slot + ns("bloom.contains_batch") + ns("arena.estimate_batch_slot");
    m.put("gsketch.estimate_residual_ns", est - parts, "ns");
    m.put(
        "replay.estimate_edges_ns",
        ns("replay.estimate_edges"),
        "ns",
    );
    m.put("replay.hit_frac", hit_frac(replay.reads), "fraction");
    m.put("replay.ingest_batch_ns", ns("replay.ingest_batch"), "ns");
    let per_chunk = replay.invalidations as f64 / replay.chunks.max(1) as f64;
    m.put("replay.invalidations_per_chunk", per_chunk, "count");
    m.put("window.try_insert_ns", ns("window.try_insert"), "ns");
    let interval = ns("window.estimate_interval_batch");
    m.put("window.interval_batch_ns", interval, "ns");
    m.put("windowed_replay.hit_frac", hit_frac(wr), "fraction");
    m.put("slab.decode_ns_per_cell", ns("slab.decode"), "ns");
}

fn span_median_ms(spans: &[crate::trace::Span], name: &str) -> f64 {
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    median(&v)
}

fn hit_frac(s: gsketch::ReplayStats) -> f64 {
    s.hits as f64 / (s.hits + s.misses).max(1) as f64
}
