//! The in-memory deployments (`ingest-gtgraph`, `replay-dblp`,
//! `mixed-ipattack`): a `GSketch` built from the workload's sample,
//! driven by one closed-loop client through the library's public API.

use crate::checks::Checks;
use crate::host::Pin;
use crate::inputs::{Inputs, Workload, INGEST_CHUNK, MIXED_CHUNK, QUERY_BATCH, REPLICATES};
use crate::measure::{Metrics, Scheduler};
use crate::run::{Run, UnitTimes};
use crate::trace::{Tracer, ROOT};
use gsketch::{
    load_gsketch, relative_error, save_gsketch, ConcurrentGSketch, EdgeSink, GSketch, ReplayEngine,
    ShardedIngest, DEFAULT_G0,
};
use gstream::edge::Edge;
use std::time::Instant;

/// One query batch in this many is re-answered uncached and compared.
pub const CHECK_EVERY: usize = 16;
/// Wall time a sequential-ingest or replay unit lasts at least (whole
/// passes), so the reference passes that bracket it (see `crate::pace`)
/// cost about a tenth of the measured time.
pub const UNIT_SECONDS: f64 = 0.25;

const SEQ: usize = 0;
const REPLAY: usize = 1;
const MIXED: usize = 2;

/// Wall-time shares of the sequential ingest, replay and mixed phases.
/// Each workload spends most of its time on the load it exists for; the
/// other phase gets enough passes for a steady median.
fn shares(w: Workload) -> [f64; 3] {
    match w {
        Workload::IngestGtGraph => [0.7, 0.3, 0.0],
        Workload::ReplayDblp => [0.15, 0.85, 0.0],
        _ => [0.0, 0.0, 1.0],
    }
}

/// The deployment states the layer probes start from.
pub struct Deployed {
    /// Built, nothing ingested.
    pub empty: GSketch,
    /// The whole stream ingested.
    pub ingested: GSketch,
}

pub fn run(r: &mut Run, inp: &Inputs) -> Option<Deployed> {
    let n = inp.stream.len() as f64;
    let pin = Pin::here();
    let built = r.setup("gsketch.build", || inp.build());
    drop(pin);
    let empty = built?;

    // Warm passes, untimed: they fill caches, fault in pages, and give
    // the reference state every later pass is checked against. The
    // sharded engine spawns owner threads, so it runs before the pin.
    let (ingested, _) = seq_pass(&empty, inp, &mut r.tr, 0);
    let (sharded, _, _) = sharded_pass(&empty, inp, &mut r.tr, 0, r.owners);
    check_sharded(&mut r.checks, &sharded, &ingested, &inp.queries);
    drop(sharded);
    let pin = Pin::here();
    if !pin.pinned() {
        r.notes
            .push("client thread could not be pinned to its CPU".into());
    }
    let shares = shares(inp.workload);
    // The ingest workload's queries are distinct edges asked once each:
    // a memo cannot serve them, so every pass starts from an invalidated
    // one and is answered by the sketch itself.
    let cold = inp.workload == Workload::IngestGtGraph;
    let mut engine = (shares[REPLAY] > 0.0).then(|| ReplayEngine::new(ingested.clone()));
    if let Some(engine) = engine.as_mut() {
        replay_pass(engine, &inp.queries, r, 0);
    }
    if shares[MIXED] > 0.0 {
        let final_state = mixed_pass(&empty, inp, r, 0).engine;
        r.checks.equal(
            &estimates(final_state.inner(), &inp.queries),
            &estimates(&ingested, &inp.queries),
            "mixed-loop final state vs sequential ingest",
        );
    }

    let mut sched = Scheduler::new(&shares, r.budget());
    // Rates of the measured units, at nominal pace and wall clock.
    let (mut ingest_mps, mut ingest_wall) = (Vec::new(), Vec::new());
    let (mut qps, mut qps_wall) = (Vec::new(), Vec::new());
    r.pace.begin();
    let mut times: [UnitTimes; 3] = Default::default();
    while let Some((phase, warm)) = sched.next() {
        // Unit 0 is a warm unit: run, checked, but not recorded.
        let unit = if warm {
            0
        } else {
            sched.units(phase) as u64 + 1
        };
        r.tr.set_enabled(r.trace_unit(unit));
        let t = Instant::now();
        // Each arm gives the unit's wall time, its work (arrivals or
        // queries) and its ingest and query rates.
        let (secs, work, ingest, query) = match phase {
            SEQ => {
                let (mut secs, mut passes) = (0.0, 0);
                while t.elapsed().as_secs_f64() < UNIT_SECONDS {
                    secs += seq_pass(&empty, inp, &mut r.tr, unit).1;
                    passes += 1;
                }
                let work = n * passes as f64;
                (secs, work, Some(work / secs / 1e6), None)
            }
            REPLAY => {
                // A fresh engine for every block: its memo and counters land
                // on other physical pages, so the run averages over cache
                // placements instead of keeping the one it started with.
                if warm {
                    engine = Some(ReplayEngine::new(ingested.clone()));
                }
                let engine = engine
                    .as_mut()
                    .expect("a replay share comes with an engine");
                let (mut secs, mut queries) = (0.0, 0);
                while t.elapsed().as_secs_f64() < UNIT_SECONDS {
                    if cold {
                        engine.invalidate_all();
                    }
                    secs += replay_pass(engine, &inp.queries, r, unit);
                    queries += inp.queries.len();
                }
                let work = queries as f64;
                (secs, work, None, Some(work / secs))
            }
            _ => {
                let m = mixed_pass(&empty, inp, r, unit);
                (
                    m.ingest_s + m.query_s,
                    n,
                    Some(n / m.ingest_s / 1e6),
                    Some(m.queries as f64 / m.query_s),
                )
            }
        };
        if !warm {
            times[phase].push(r.tr.enabled(), secs / work);
        }
        sched.done(phase, t.elapsed(), warm);
        let slowdown = r.end_unit(!warm);
        if !warm {
            let paces = [
                (&mut ingest_mps, &mut ingest_wall, ingest),
                (&mut qps, &mut qps_wall, query),
            ];
            for (paced, wall, rate) in paces {
                if let Some(rate) = rate {
                    paced.push(rate * slowdown);
                    wall.push(rate);
                }
            }
        }
        r.sample_mem();
    }
    drop(pin);
    r.tr.set_enabled(r.trace);
    // The tracing overhead is judged on the phase the workload exists for.
    let primary = (0..shares.len())
        .max_by(|&a, &b| shares[a].total_cmp(&shares[b]))
        .unwrap_or(SEQ);
    r.overhead = times[primary].overhead();
    if let Some(engine) = &engine {
        r.replay.add_reads(engine.stats());
    }

    r.put_median("ingest_mps", &ingest_mps, "M/s");
    r.note_wall("ingest_mps", &ingest_wall);
    r.latency_metrics(&qps);
    r.note_wall("query_qps", &qps_wall);
    r.put_peak_mem();
    accuracy(&mut r.checks, &mut r.metrics, inp, &ingested);
    let bytes = snapshot_round_trip(r, inp, &ingested);
    r.metrics.put("snapshot_bytes", bytes, "bytes");
    Some(Deployed { empty, ingested })
}

/// One sequential pass: the whole stream through `EdgeSink::ingest_batch`
/// in `INGEST_CHUNK`-arrival chunks, into a copy of the built sketch made
/// before the clock starts.
fn seq_pass(empty: &GSketch, inp: &Inputs, tr: &mut Tracer, unit: u64) -> (GSketch, f64) {
    let mut g = empty.clone();
    let root = tr.begin("ingest.pass", unit, ROOT, inp.stream.len() as u64);
    let t = Instant::now();
    for (i, chunk) in inp.stream.chunks(INGEST_CHUNK).enumerate() {
        let open = tr.begin("gsketch.ingest_batch", i as u64, root, chunk.len() as u64);
        g.ingest_batch(chunk);
        tr.end(open);
    }
    g.flush();
    let secs = t.elapsed().as_secs_f64();
    tr.end(root);
    (g, secs)
}

pub struct CpuWall {
    pub wall: f64,
    pub cpu: f64,
}

/// One owner-sharded pass (`ShardedIngest::run_slice`, the CLI's
/// `--threads` path) into a concurrent copy of the built sketch.
pub fn sharded_pass(
    empty: &GSketch,
    inp: &Inputs,
    tr: &mut Tracer,
    unit: u64,
    owners: usize,
) -> (GSketch, CpuWall, gsketch::IngestReport) {
    let mut c = ConcurrentGSketch::from_gsketch(empty.clone());
    let name = if owners == 1 {
        "sharded.1owner"
    } else {
        "sharded.run_slice"
    };
    let cpu = crate::host::process_cpu_s();
    let t = Instant::now();
    let report = tr.span(name, unit, ROOT, inp.stream.len() as u64, || {
        ShardedIngest::new(&mut c, owners).run_slice(&inp.stream)
    });
    let wall = t.elapsed().as_secs_f64();
    let cpu = crate::host::process_cpu_s() - cpu;
    (c.into_gsketch(), CpuWall { wall, cpu }, report)
}

pub fn check_sharded(checks: &mut Checks, sharded: &GSketch, seq: &GSketch, keys: &[Edge]) {
    checks.check(sharded.total_weight() == seq.total_weight(), || {
        "sharded ingest total weight differs from sequential".into()
    });
    checks.equal(
        &estimates(sharded, keys),
        &estimates(seq, keys),
        "sharded ingest estimates vs sequential",
    );
}

pub fn estimates(g: &GSketch, keys: &[Edge]) -> Vec<u64> {
    let mut out = Vec::new();
    g.estimate_batch(keys, &mut out);
    out
}

/// One replay pass of the query list in `QUERY_BATCH` batches through
/// the memoized engine. Returns the summed batch time; each batch's
/// latency is held for the unit unless this is the warm pass (unit 0). Every `CHECK_EVERY`-th batch is re-answered
/// uncached outside the timed region and compared bit for bit.
fn replay_pass(
    engine: &mut ReplayEngine<GSketch>,
    queries: &[Edge],
    r: &mut Run,
    unit: u64,
) -> f64 {
    let mut out = Vec::with_capacity(QUERY_BATCH);
    let mut want = Vec::with_capacity(QUERY_BATCH);
    let root = r.tr.begin("replay.pass", unit, ROOT, queries.len() as u64);
    let mut total = 0.0;
    for (b, batch) in queries.chunks(QUERY_BATCH).enumerate() {
        let open =
            r.tr.begin("replay.estimate_edges", b as u64, root, batch.len() as u64);
        let t = Instant::now();
        engine.estimate_edges(batch, &mut out);
        let secs = t.elapsed().as_secs_f64();
        r.tr.end(open);
        total += secs;
        if unit > 0 {
            r.unit_latency.push(secs * 1e6);
        }
        if (b + unit as usize).is_multiple_of(CHECK_EVERY) {
            engine.inner().estimate_batch(batch, &mut want);
            r.checks
                .equal(&out, &want, "replay answers vs uncached estimate_batch");
        }
    }
    r.tr.end(root);
    total
}

struct MixedPass {
    engine: ReplayEngine<GSketch>,
    ingest_s: f64,
    query_s: f64,
    queries: usize,
}

/// One mixed pass: a fresh engine over a copy of the built sketch, then
/// for every `MIXED_CHUNK`-arrival chunk one ingest call followed by one
/// `QUERY_BATCH` query batch, both through the same `ReplayEngine`.
fn mixed_pass(empty: &GSketch, inp: &Inputs, r: &mut Run, unit: u64) -> MixedPass {
    let mut engine = ReplayEngine::new(empty.clone());
    let batches: Vec<&[Edge]> = inp.queries.chunks(QUERY_BATCH).collect();
    let mut out = Vec::with_capacity(QUERY_BATCH);
    let mut want = Vec::with_capacity(QUERY_BATCH);
    let (mut ingest_s, mut query_s, mut queries) = (0.0, 0.0, 0);
    let root =
        r.tr.begin("mixed.pass", unit, ROOT, inp.stream.len() as u64);
    let chunks = inp.stream.chunks(MIXED_CHUNK);
    let n_chunks = chunks.len();
    for (i, chunk) in chunks.enumerate() {
        let id = i as u64;
        let open =
            r.tr.begin("replay.ingest_batch", id, root, chunk.len() as u64);
        let t = Instant::now();
        engine.ingest_batch(chunk);
        ingest_s += t.elapsed().as_secs_f64();
        r.tr.end(open);
        let batch = batches[i % batches.len()];
        let open =
            r.tr.begin("replay.estimate_edges", id, root, batch.len() as u64);
        let t = Instant::now();
        engine.estimate_edges(batch, &mut out);
        let secs = t.elapsed().as_secs_f64();
        r.tr.end(open);
        query_s += secs;
        queries += batch.len();
        if unit > 0 {
            r.unit_latency.push(secs * 1e6);
        }
        if (i + unit as usize).is_multiple_of(CHECK_EVERY) {
            engine.inner().estimate_batch(batch, &mut want);
            r.checks
                .equal(&out, &want, "mixed answers vs uncached estimate_batch");
        }
    }
    engine.flush();
    r.tr.end(root);
    r.replay.add_reads(engine.stats());
    r.replay.add_writes(engine.stats(), n_chunks as u64);
    MixedPass {
        engine,
        ingest_s,
        query_s,
        queries,
    }
}

/// Average relative error (Eq. 13) and effective-query share (Eq. 14)
/// over the workload's queries whose true count is positive, averaged
/// over `REPLICATES` hash seeds (replicate 0 is the measured deployment;
/// the others are built and ingested here, outside every timed phase),
/// plus the one-sided CountMin check on every query of every replicate:
/// no estimate may fall below its exact count (absent edges included).
fn accuracy(checks: &mut Checks, m: &mut Metrics, inp: &Inputs, ingested: &GSketch) {
    let edges = distinct(&inp.queries);
    let truth: Vec<u64> = edges.iter().map(|&e| inp.truth.frequency(e)).collect();
    let weight = counts(&inp.queries, &edges);
    let (mut are, mut eff) = (0.0, 0.0);
    for rep in 0..REPLICATES {
        let est = if rep == 0 {
            estimates(ingested, &edges)
        } else {
            let Some(mut g) = checks.result(inp.build_replicate(rep), "replicate build") else {
                continue;
            };
            g.ingest_batch(&inp.stream);
            estimates(&g, &edges)
        };
        let below = est.iter().zip(&truth).filter(|(e, f)| e < f);
        checks.record(est.len() as u64, below.count() as u64, || {
            "estimate below its exact count".into()
        });
        let est: Vec<f64> = est.iter().map(|&e| e as f64).collect();
        let (a, e) = mean_errors(&est, &truth, &weight);
        are += a / REPLICATES as f64;
        eff += e / REPLICATES as f64;
    }
    m.put("are", are, "ratio");
    m.put("effective_frac", eff, "fraction");
}

/// How often each of `edges` (sorted, distinct) occurs in `queries`.
pub fn counts(queries: &[Edge], edges: &[Edge]) -> Vec<f64> {
    let mut w = vec![0.0; edges.len()];
    for q in queries {
        if let Ok(i) = edges.binary_search(q) {
            w[i] += 1.0;
        }
    }
    w
}

/// Query-weighted mean relative error and effective share over the
/// entries with a positive true count.
pub fn mean_errors(est: &[f64], truth: &[u64], weight: &[f64]) -> (f64, f64) {
    let (mut sum, mut n, mut effective) = (0.0, 0.0, 0.0);
    for ((&e, &f), &w) in est.iter().zip(truth).zip(weight) {
        if f > 0 {
            let er = relative_error(e, f as f64);
            sum += w * er;
            n += w;
            effective += if er <= DEFAULT_G0 { w } else { 0.0 };
        }
    }
    (sum / f64::max(n, 1.0), effective / f64::max(n, 1.0))
}

/// The distinct edges of a query list, sorted.
pub fn distinct(queries: &[Edge]) -> Vec<Edge> {
    let mut edges = queries.to_vec();
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Save the ingested deployment as a snapshot, load it back and compare
/// answers; returns the snapshot's size in bytes.
fn snapshot_round_trip(r: &mut Run, inp: &Inputs, ingested: &GSketch) -> f64 {
    let path = r.scratch_file("snapshot.json");
    let mut bytes = 0.0;
    if r.checks
        .result(save_gsketch(&path, ingested), "save_gsketch")
        .is_some()
    {
        bytes = std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64);
        if let Some(back) = r.checks.result(load_gsketch(&path), "load_gsketch") {
            r.checks.equal(
                &estimates(&back, &inp.queries),
                &estimates(ingested, &inp.queries),
                "loaded snapshot answers vs saved deployment",
            );
        }
    }
    let _ = std::fs::remove_file(&path);
    bytes
}
