//! The `timetravel-ipattack` deployment: a windowed gSketch saved once
//! as a v3 snapshot, loaded back and queried over tiled interval panels
//! through the interval-keyed replay memo.

use crate::checks::Checks;
use crate::host::Pin;
use crate::inputs::{panels, Inputs, INGEST_CHUNK, PANEL_WINDOWS, QUERY_BATCH, REPLICATES};
use crate::measure::Scheduler;
use crate::memory::{counts, distinct, mean_errors, CHECK_EVERY, UNIT_SECONDS};
use crate::run::{Run, UnitTimes};
use crate::trace::{Tracer, ROOT};
use gsketch::{
    load_windowed, save_windowed, GSketchBuilder, IntervalEstimate, WindowConfig, WindowedGSketch,
    WindowedReplay,
};
use gstream::edge::Edge;
use gstream::fxhash::{FxHashMap, FxHashSet};
use std::time::Instant;

const INGEST: usize = 0;
const REPLAY: usize = 1;
const SHARES: [f64; 2] = [0.4, 0.6];

/// The states the layer probes start from.
pub struct WindowedDeployed {
    pub live: WindowedGSketch,
    pub snapshot: std::path::PathBuf,
}

pub fn run(r: &mut Run, inp: &Inputs) -> Option<WindowedDeployed> {
    let (cfg, builder) = inp.window_config();
    let n = inp.stream.len() as f64;
    let t_max = inp.stream.last().map_or(0, |se| se.ts);
    let panels = panels(cfg.span, t_max);

    // The live instance, built once before timing; its snapshot is what
    // every timed load reads.
    let (live, _) = ingest_pass(cfg, builder, inp, &mut r.tr, &mut r.checks, 0)?;
    let snapshot = r.scratch_file("windowed.wsnap");
    let _ = std::fs::remove_file(&snapshot);
    r.checks
        .result(save_windowed(&snapshot, &live), "save_windowed")?;
    let bytes = std::fs::metadata(&snapshot).map_or(0.0, |m| m.len() as f64);

    let pin = Pin::here();
    let replay = r.setup("setup.load_windowed_replay", || {
        load_windowed(&snapshot).map(WindowedReplay::new)
    });
    drop(pin);
    let mut replay = replay?;
    for &(s, e) in &panels {
        r.checks.equal(
            &interval_bits(replay.inner(), &inp.queries, s, e),
            &interval_bits(&live, &inp.queries, s, e),
            "loaded snapshot interval answers vs live instance",
        );
    }

    // Warm passes (untimed); the owner-sharded windowed path is checked
    // against the sequential one here and timed only by the layer probes.
    if let Some(sharded) = sharded_pass(cfg, builder, inp, r) {
        for &(s, e) in &panels {
            r.checks.equal(
                &interval_bits(&sharded, &inp.queries, s, e),
                &interval_bits(&live, &inp.queries, s, e),
                "sharded windowed ingest vs sequential",
            );
        }
    }
    let pin = Pin::here();
    if !pin.pinned() {
        r.notes
            .push("client thread could not be pinned to its CPU".into());
    }
    replay_pass(&mut replay, inp, &panels, r, 0);

    let mut sched = Scheduler::new(&SHARES, r.budget());
    // Ingest rates (M/s) and query rates (1/s) of the measured units, at
    // nominal pace and wall clock.
    let (mut paced, mut wall): ([Vec<f64>; 2], [Vec<f64>; 2]) = Default::default();
    r.pace.begin();
    let mut times: [UnitTimes; 2] = Default::default();
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
        // queries) and its rate.
        let (secs, work, rate) = match phase {
            INGEST => {
                let secs = ingest_pass(cfg, builder, inp, &mut r.tr, &mut r.checks, unit)
                    .map_or(f64::NAN, |(_, s)| s);
                (secs, n, n / secs / 1e6)
            }
            _ => {
                // A freshly loaded deployment for every block (see the
                // in-memory replay phase): placements are averaged.
                if warm {
                    if let Some(fresh) = r.checks.result(load_windowed(&snapshot), "load_windowed")
                    {
                        r.windowed_replay.add_reads(replay.stats());
                        replay = WindowedReplay::new(fresh);
                    }
                }
                let (mut secs, mut queries) = (0.0, 0);
                while t.elapsed().as_secs_f64() < UNIT_SECONDS {
                    let (s, q) = replay_pass(&mut replay, inp, &panels, r, unit);
                    secs += s;
                    queries += q;
                }
                let work = queries as f64;
                (secs, work, work / secs)
            }
        };
        if !warm {
            times[phase].push(r.tr.enabled(), secs / work);
        }
        sched.done(phase, t.elapsed(), warm);
        let slowdown = r.end_unit(!warm);
        if !warm {
            paced[phase].push(rate * slowdown);
            wall[phase].push(rate);
        }
        r.sample_mem();
    }
    drop(pin);
    r.tr.set_enabled(r.trace);
    r.overhead = times[REPLAY].overhead();
    r.windowed_replay.add_reads(replay.stats());

    r.put_median("ingest_mps", &paced[INGEST], "M/s");
    r.note_wall("ingest_mps", &wall[INGEST]);
    r.latency_metrics(&paced[REPLAY]);
    r.note_wall("query_qps", &wall[REPLAY]);
    r.put_peak_mem();
    accuracy(r, inp, &live, &panels, cfg.span);
    r.metrics.put("snapshot_bytes", bytes, "bytes");
    Some(WindowedDeployed { live, snapshot })
}

/// A fresh windowed deployment (built before the clock starts) fed the
/// whole stream through `WindowedGSketch::try_insert`; every error
/// returned counts as a failed check.
pub fn ingest_pass(
    cfg: WindowConfig,
    builder: GSketchBuilder,
    inp: &Inputs,
    tr: &mut Tracer,
    checks: &mut Checks,
    unit: u64,
) -> Option<(WindowedGSketch, f64)> {
    let mut w = checks.result(WindowedGSketch::new(cfg, builder), "WindowedGSketch::new")?;
    let mut errors = 0;
    let root = tr.begin("window.pass", unit, ROOT, inp.stream.len() as u64);
    let t = Instant::now();
    for (i, chunk) in inp.stream.chunks(INGEST_CHUNK).enumerate() {
        let open = tr.begin("window.try_insert", i as u64, root, chunk.len() as u64);
        for se in chunk {
            errors += u64::from(w.try_insert(*se).is_err());
        }
        tr.end(open);
    }
    let secs = t.elapsed().as_secs_f64();
    tr.end(root);
    checks.record(inp.stream.len() as u64, errors, || {
        "try_insert error".into()
    });
    Some((w, secs))
}

/// A fresh windowed deployment fed through the owner-sharded windowed
/// path (`try_ingest_sharded`, the CLI's `snapshot --threads`).
fn sharded_pass(
    cfg: WindowConfig,
    builder: GSketchBuilder,
    inp: &Inputs,
    r: &mut Run,
) -> Option<WindowedGSketch> {
    let mut w = r
        .checks
        .result(WindowedGSketch::new(cfg, builder), "WindowedGSketch::new")?;
    let owners = r.owners;
    let res = r.tr.span(
        "window.try_ingest_sharded",
        0,
        ROOT,
        inp.stream.len() as u64,
        || w.try_ingest_sharded(&inp.stream, owners, false),
    );
    r.checks.result(res, "try_ingest_sharded")?;
    Some(w)
}

/// One replay pass: every `QUERY_BATCH` batch of the query list against
/// every panel, through the memo. Returns the summed batch time and the
/// number of queries answered; batch latencies are held for the unit
/// unless this is the warm pass (unit 0).
fn replay_pass(
    replay: &mut WindowedReplay,
    inp: &Inputs,
    panels: &[(u64, u64)],
    r: &mut Run,
    unit: u64,
) -> (f64, usize) {
    let mut out: Vec<IntervalEstimate> = Vec::with_capacity(QUERY_BATCH);
    let mut want = Vec::with_capacity(QUERY_BATCH);
    let root = r.tr.begin("windowed_replay.pass", unit, ROOT, 0);
    let (mut total, mut queries, mut b) = (0.0, 0, 0usize);
    for batch in inp.queries.chunks(QUERY_BATCH) {
        for &(s, e) in panels {
            let open = r.tr.begin(
                "windowed_replay.estimate_interval",
                b as u64,
                root,
                batch.len() as u64,
            );
            let t = Instant::now();
            replay.estimate_interval_detailed_batch(batch, s, e, &mut out);
            let secs = t.elapsed().as_secs_f64();
            r.tr.end(open);
            total += secs;
            queries += batch.len();
            if unit > 0 {
                r.unit_latency.push(secs * 1e6);
            }
            if (b + unit as usize).is_multiple_of(CHECK_EVERY) {
                replay
                    .inner()
                    .estimate_interval_detailed_batch(batch, s, e, &mut want);
                r.checks
                    .equal(&out, &want, "windowed replay vs uncached interval answers");
            }
            b += 1;
        }
    }
    r.tr.end(root);
    (total, queries)
}

/// Uncached interval answers as raw bits, for exact comparison.
pub fn interval_bits(w: &WindowedGSketch, edges: &[Edge], s: u64, e: u64) -> Vec<u64> {
    let mut out = Vec::new();
    w.estimate_interval_batch(edges, s, e, &mut out);
    out.iter().map(|v| v.to_bits()).collect()
}

/// ARE and effective share over every (query, panel) row with a positive
/// exact count inside the panel, averaged over `REPLICATES` seeds of the
/// windowed configuration (replicate 0 is the live instance; the others
/// are ingested here, outside every timed phase).
fn accuracy(r: &mut Run, inp: &Inputs, live: &WindowedGSketch, panels: &[(u64, u64)], span: u64) {
    let edges = distinct(&inp.queries);
    let weight = counts(&inp.queries, &edges);
    let keys: FxHashSet<u64> = edges.iter().map(Edge::key).collect();
    let width = span * PANEL_WINDOWS;
    let mut exact: FxHashMap<(u64, u64), u64> = FxHashMap::default();
    for se in &inp.stream {
        let k = se.edge.key();
        if keys.contains(&k) {
            *exact.entry((k, se.ts / width)).or_default() += se.weight;
        }
    }
    let (mut are, mut eff) = (0.0, 0.0);
    for rep in 0..REPLICATES {
        let replica;
        let w = if rep == 0 {
            live
        } else {
            let (cfg, builder) = inp.window_config_replicate(rep);
            let mut tr = Tracer::new(false);
            match ingest_pass(cfg, builder, inp, &mut tr, &mut r.checks, 0) {
                Some((w, _)) => {
                    replica = w;
                    &replica
                }
                None => continue,
            }
        };
        let (mut truth, mut est, mut weights) = (Vec::new(), Vec::new(), Vec::new());
        let mut vals = Vec::new();
        for (p, &(s, e)) in panels.iter().enumerate() {
            w.estimate_interval_batch(&edges, s, e, &mut vals);
            for ((q, &v), &wt) in edges.iter().zip(&vals).zip(&weight) {
                truth.push(exact.get(&(q.key(), p as u64)).copied().unwrap_or(0));
                est.push(v);
                weights.push(wt);
            }
        }
        let (a, e) = mean_errors(&est, &truth, &weights);
        are += a / REPLICATES as f64;
        eff += e / REPLICATES as f64;
    }
    r.metrics.put("are", are, "ratio");
    r.metrics.put("effective_frac", eff, "fraction");
}
