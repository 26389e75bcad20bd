//! The parallel ingest engines (DESIGN.md §7, §11).
//!
//! `ConcurrentGSketch` has accepted concurrent callers since the arena
//! refactor, but naive fan-out (every thread calling `update` per
//! arrival) pays the router probe, `d` hash evaluations and `d` atomic
//! RMWs for every single arrival. Both engines here put the same
//! per-thread combiner (`OwnerWorker`) between the stream and the
//! [`SlotSink`]:
//!
//! 1. **Hot-key combining.** Arrivals fold into a 4-way set-associative
//!    cache tagged by the raw `(src, dst)` endpoint pair (one 64-byte
//!    set per probe, heaviest-stays eviction, software-prefetched a few
//!    arrivals ahead) with **64-bit saturating accumulators**. The Zipf
//!    head of a real graph stream hits the cache over and over,
//!    accumulating one weight instead of issuing one synopsis update
//!    per arrival. Any weight fits, and saturating addition is
//!    associative, so pre-summing arrivals commits the same counter
//!    values as adding them one by one.
//! 2. **Deferred routing.** The cache holds no slot. Evicted and drained
//!    entries are routed at commit time, in one batched pass over the
//!    evicted list (one router probe per *committed* entry, with the
//!    router's table hot for the whole pass); the 64-bit sketch key is
//!    derived in the same pass, so hot edges pay both once per cache
//!    residency, not once per arrival.
//! 3. **Slot sort.** The routed entries are counting-sorted by
//!    destination slot — the slot grouping of the sequential batched
//!    ingest, extended to the concurrent path.
//! 4. **Span commit.** Each slot run is committed through
//!    [`SlotSink::commit_run`] (shared atomic adds), or through
//!    [`SlotSink::commit_run_exclusive`] (plain stores) when the
//!    committing thread is the sole writer of the slot: the run walks
//!    one slot's contiguous span at a time, adjacent duplicates
//!    coalesce, and the slot's total counter is touched once per run
//!    instead of once per arrival.
//!
//! [`ParallelIngest`] runs N combiners that pull chunks of one stream
//! and may each commit any slot, so they share the atomic path — except
//! a sole worker over an exclusively borrowed sink
//! ([`ParallelIngest::new_exclusive`]), which is every slot's sole
//! writer. The result is within saturating-add semantics of a
//! sequential ingest of the same stream — bit-identical in the
//! non-saturating regime (pinned by `backend_parity`'s parallel parity
//! proptest). Nothing about the math depends on the thread count or the
//! chunking, only on the multiset of arrivals.
//!
//! **The owner-sharded engine** ([`ShardedIngest`], DESIGN.md §11)
//! inverts the sharing story: instead of every worker committing any
//! slot through the shared atomic path, a scatter stage counting-sorts
//! each chunk by router slot and hands per-owner batches over bounded
//! SPSC queues to owning workers, each of which is the *sole writer* of
//! a contiguous slot range and always commits exclusively —
//! [`ParallelIngest::new_exclusive`]'s single-worker contract,
//! generalized to N disjoint owners by the [`OwnerMap`] slot partition
//! instead of a `&mut` borrow.
//! When the map clamps to one owner the engine fuses scatter and
//! commit on the calling thread (no queue, no spawn), which is what
//! keeps `sharded/1t` ahead of `parallel/1t` rather than merely equal.
//!
//! **Worker-pool sizing.** Like every CPU-bound pool (rayon, TBB), both
//! engines treat the requested thread count as an *upper bound* and
//! clamp it to the machine's available parallelism: oversubscribing a
//! single core with N compute-bound workers buys nothing and costs
//! context switches and per-worker cache dilution. Tests that need real
//! thread interleaving regardless of the host use
//! [`oversubscribe`](ParallelIngest::oversubscribe) (mirrored on
//! [`ShardedIngest::oversubscribe`]).

use crate::concurrent::ConcurrentGSketch;
use crate::router::OwnerMap;
use crate::sink::{EdgeSink, SlotRouted};
use gstream::edge::{Edge, StreamEdge};
use gstream::source::EdgeSource;
use sketch::prefetch;
use sketch::sync::spsc::SpscQueue;
// Atomics and scoped threads come through the `sync` shim seam so
// `xtask check` can run `run_slice`'s real chunk-claiming loop under
// the deterministic scheduler (DESIGN.md §10); std items in normal
// builds. `run()`'s source mutex stays `std::sync::Mutex` — blocking
// locks are opaque to the model scheduler, so only the lock-free
// `run_slice` path is the checked surface.
use sketch::sync::{thread, AtomicU64, Ordering};
use std::sync::Mutex;

/// Default arrivals per staging buffer. The combiner cache carries
/// duplicate state *across* chunks, so this only needs to amortize the
/// source lock, not maximize within-chunk duplication.
pub const DEFAULT_CHUNK: usize = 1 << 15;

/// log2 of the combiner sets per worker: 2^16 sets × 4 ways × 16 B =
/// 4 MiB per worker — sized so the Zipf head plus most of the warm tail
/// of a multi-million-arrival stream stays resident (the sweep on the
/// R-MAT traffic bench plateaus here; see `benches/parallel_ingest.rs`).
const SET_BITS: u32 = 16;

/// Commit the evicted-entry list once it reaches this length. The
/// commit counting-sorts by slot, and longer batches mean longer
/// per-slot runs — better span-walk amortization per commit call
/// (measured on the ingest bench: 32 Ki batches shave several percent
/// over 8 Ki).
const COMMIT_LEN: usize = 1 << 15;

/// How many arrivals ahead the absorb loops prefetch their combiner set.
const PREFETCH_AHEAD: usize = 12;

/// Clamp a requested worker count to the host's available parallelism —
/// the rayon-style rule every CPU-bound pool in the workspace shares
/// (ingest's [`ParallelIngest`] and [`ShardedIngest`], and the query
/// engine's [`ParallelQuery`](crate::query::ParallelQuery), including
/// its slot-routed read path). Oversubscribing a
/// single core with N compute-bound workers buys nothing and costs
/// context switches; `oversubscribe` exists so correctness tests can
/// force real thread interleaving on small machines.
pub(crate) fn clamp_workers(requested: usize, oversubscribe: bool) -> usize {
    let requested = requested.max(1);
    if oversubscribe {
        requested
    } else {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        requested.min(cores)
    }
}

/// A shard-addressable, thread-shareable sink: the consumer-side contract
/// of [`ParallelIngest`] and [`ShardedIngest`]. The routing half lives in
/// the [`SlotRouted`] supertrait (shared with the slot-routed query
/// path); this trait adds the write side. Both engines route their
/// combined entries through it in one batched pass at commit time and
/// commit each slot run through one of the two methods below.
/// Implemented by [`ConcurrentGSketch`] (routing through its read-only
/// router into the shared atomic arena); the generic parameter is what
/// future shard placements (NUMA-pinned arenas, remote shards)
/// implement.
pub trait SlotSink: SlotRouted + Sync {
    /// Commit a run of `(key, weight)` pairs into `slot`. Callable from
    /// any thread; runs for different slots touch disjoint counter
    /// spans. Adjacent equal keys are coalesced into one counter write.
    fn commit_run(&self, slot: u32, run: &[(u64, u64)]);

    /// [`commit_run`](Self::commit_run) for a caller that is the **sole
    /// writer of `slot`** for the duration of the commit: sinks may
    /// override it with a plain-store commit that skips atomic RMW
    /// serialization. Two callers establish that contract today — a
    /// [`ParallelIngest::new_exclusive`] pipeline running one worker
    /// (sole writer of *every* slot), and a [`ShardedIngest`] owner
    /// (sole writer of its [`OwnerMap`] slot range, by the disjointness
    /// of owner ranges). The default just forwards to the shared-safe
    /// path.
    fn commit_run_exclusive(&self, slot: u32, run: &[(u64, u64)]) {
        self.commit_run(slot, run);
    }

    /// Best-effort first-touch of slots `lo..hi` (half-open) from the
    /// calling thread, so a first-touch NUMA policy places the range's
    /// counter pages on the caller's node. [`ShardedIngest`] owners call
    /// this for their slot range before absorbing arrivals; the caller
    /// must be the range's sole writer. The default is a no-op.
    fn warm_slots(&self, lo: u32, hi: u32) {
        let _ = (lo, hi);
    }
}

/// What a pipeline run absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Stream arrivals absorbed.
    pub arrivals: u64,
    /// Chunks pulled from the source across all workers.
    pub chunks: u64,
    /// Worker threads actually spawned (requested, clamped to the
    /// host's available parallelism unless oversubscription was forced).
    pub workers: usize,
}

/// The packed endpoint pair identifying an edge exactly: the tag of the
/// ingest combiner and of the replay memo (`crate::replay`).
#[inline]
pub(crate) fn edge_pair(e: Edge) -> u64 {
    (u64::from(e.src.0) << 32) | u64::from(e.dst.0)
}

/// Cache set index for a pair: one Fibonacci multiply — the combiner
/// and the memo only need spread, not pairwise independence.
#[inline]
pub(crate) fn set_index(pair: u64, shift: u32) -> usize {
    // cast: u64 -> usize; `>> shift` leaves at most (64 - shift) bits,
    // the set-count bit width, so the index fits and is in range.
    ((pair ^ (pair >> 29)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

/// The sketch key of a cached pair (must agree with [`Edge::key`], which
/// the query side uses).
#[inline]
fn pair_key(pair: u64) -> u64 {
    sketch::hash::combine64(pair >> 32, pair & 0xFFFF_FFFF)
}

/// One 4-way combiner set, exactly one cache line: four pair tags and
/// four 64-bit accumulators. Tags are compared by exact equality (no
/// hashing), and `weights[j] == 0` marks way `j` free (zero-weight
/// arrivals are identities and are dropped at the door), so a probe is
/// one line fill, four compares.
#[repr(align(64))]
#[derive(Clone, Copy)]
struct OwnerSet {
    pairs: [u64; 4],
    weights: [u64; 4],
}

const EMPTY_OWNER_SET: OwnerSet = OwnerSet {
    pairs: [0; 4],
    weights: [0; 4],
};

/// Per-thread combiner state shared by both engines: the slot-less
/// 4-way cache ([`OwnerSet`]) plus the deferred-routing commit scratch.
/// Private to one thread — never shared, never locked.
struct OwnerWorker {
    sets: Box<[OwnerSet]>,
    /// `64 - log2(sets.len())`: the set-index shift.
    shift: u32,
    /// Commit through [`SlotSink::commit_run_exclusive`]: set only when
    /// this thread is the sole writer of every slot it commits (a
    /// [`ShardedIngest`] owner, or a sole [`ParallelIngest::new_exclusive`]
    /// worker).
    exclusive: bool,
    /// Evicted `(pair, weight)` entries awaiting a batched commit.
    evicted: Vec<(u64, u64)>,
    /// Slot of each evicted entry, filled by the commit's routing pass.
    slots: Vec<u32>,
    /// Counting-sort scratch, sized to the sink's slot count.
    counts: Vec<usize>,
    cursors: Vec<usize>,
    runs: Vec<(u64, u64)>,
}

impl OwnerWorker {
    fn new(n_slots: usize, exclusive: bool) -> Self {
        Self {
            sets: vec![EMPTY_OWNER_SET; 1 << SET_BITS].into_boxed_slice(),
            shift: 64 - SET_BITS,
            exclusive,
            evicted: Vec::with_capacity(COMMIT_LEN + DEFAULT_CHUNK),
            slots: Vec::with_capacity(COMMIT_LEN + DEFAULT_CHUNK),
            counts: vec![0; n_slots],
            cursors: Vec::with_capacity(n_slots),
            runs: Vec::new(),
        }
    }

    /// Absorb one raw stream chunk with prefetch lookahead, committing
    /// the evicted list once it has accumulated a batch worth sorting.
    #[inline]
    fn absorb_chunk<B: SlotSink>(&mut self, sink: &B, chunk: &[StreamEdge]) {
        // Split borrows once: `sets` and `evicted` are provably disjoint
        // buffers inside the loop, so the eviction push can't force the
        // set line to be re-read.
        let sets = &mut self.sets;
        let evicted = &mut self.evicted;
        let shift = self.shift;
        for (i, se) in chunk.iter().enumerate() {
            if let Some(ahead) = chunk.get(i + PREFETCH_AHEAD) {
                prefetch(&sets[set_index(edge_pair(ahead.edge), shift)]);
            }
            if se.weight == 0 {
                continue;
            }
            absorb_owner(sets, shift, evicted, edge_pair(se.edge), se.weight);
        }
        self.commit_if_full(sink);
    }

    /// Absorb one scattered owner batch with prefetch lookahead (the
    /// owner-thread path; scatter already dropped zero weights).
    #[inline]
    fn absorb_batch<B: SlotSink>(&mut self, sink: &B, batch: &[(u64, u64)]) {
        let sets = &mut self.sets;
        let evicted = &mut self.evicted;
        let shift = self.shift;
        for (i, &(pair, weight)) in batch.iter().enumerate() {
            if let Some(&(ahead, _)) = batch.get(i + PREFETCH_AHEAD) {
                prefetch(&sets[set_index(ahead, shift)]);
            }
            absorb_owner(sets, shift, evicted, pair, weight);
        }
        self.commit_if_full(sink);
    }

    #[inline]
    fn commit_if_full<B: SlotSink>(&mut self, sink: &B) {
        if self.evicted.len() >= COMMIT_LEN {
            self.commit_evicted(sink);
        }
    }

    /// Route, counting-sort and commit the evicted list: one batched
    /// routing pass fills `slots`, then each slot run goes through the
    /// sink's exclusive span-commit when this thread is the sole writer
    /// of every slot it commits, and through the shared one otherwise.
    ///
    /// `slot_of` contractually stays below the sink's slot count (the
    /// scratch arrays' length); the scatter indices are `get`-guarded
    /// anyway so the commit span carries no panic edge in the compiled
    /// artifact (`xtask audit` — a rogue slot drops its entries rather
    /// than panicking).
    // audit: kernel(bounds-free)
    fn commit_evicted<B: SlotSink>(&mut self, sink: &B) {
        // Destructure into disjoint field borrows so the scratch-array
        // writes below can't be assumed to alias each other.
        let Self {
            exclusive,
            evicted,
            slots,
            counts,
            cursors,
            runs,
            ..
        } = self;
        if evicted.is_empty() {
            return;
        }
        counts.fill(0);
        slots.clear();
        for &(pair, _) in evicted.iter() {
            // cast: u64 -> u32; the high half of the packed pair is the
            // source vertex id, which is 32 bits by construction.
            let slot = sink.slot_of(gstream::vertex::VertexId((pair >> 32) as u32));
            slots.push(slot);
            if let Some(c) = counts.get_mut(slot as usize) {
                *c += 1;
            }
        }
        cursors.clear();
        let mut acc = 0usize;
        for &c in counts.iter() {
            cursors.push(acc);
            acc += c;
        }
        runs.clear();
        runs.resize(evicted.len(), (0, 0));
        for (&(pair, weight), &slot) in evicted.iter().zip(slots.iter()) {
            let Some(at) = cursors.get_mut(slot as usize) else {
                continue;
            };
            // The sketch key is derived here — once per committed entry,
            // not once per arrival.
            if let Some(r) = runs.get_mut(*at) {
                *r = (pair_key(pair), weight);
            }
            *at += 1;
        }
        let mut start = 0usize;
        for (slot, &end) in cursors.iter().enumerate() {
            if end > start {
                let Some(run) = runs.get(start..end) else {
                    break;
                };
                // cast: usize -> u32; slot indices are bounded by the
                // sink's slot count, which fits u32 (slot ids are u32).
                if *exclusive {
                    sink.commit_run_exclusive(slot as u32, run);
                } else {
                    sink.commit_run(slot as u32, run);
                }
            }
            start = end;
        }
        evicted.clear();
    }

    /// Evict every live cache entry and commit everything: after this,
    /// all absorbed arrivals are visible in the sink.
    // audit: kernel(bounds-free)
    fn drain<B: SlotSink>(&mut self, sink: &B) {
        let sets = &mut self.sets;
        let evicted = &mut self.evicted;
        for set in sets.iter_mut() {
            for j in 0..4 {
                if set.weights[j] != 0 {
                    evicted.push((set.pairs[j], set.weights[j]));
                    set.weights[j] = 0;
                }
            }
        }
        self.commit_evicted(sink);
    }
}

/// Fold one (non-zero-weight) arrival into a combiner. Hits
/// saturating-add into the resident line; misses displace the set's
/// lightest way — the heaviest (hottest) entries are the ones that
/// stay. No routing happens here; `sets` and `evicted` are passed as
/// separate borrows so the optimizer knows they don't alias.
#[inline]
fn absorb_owner(
    sets: &mut [OwnerSet],
    shift: u32,
    evicted: &mut Vec<(u64, u64)>,
    pair: u64,
    weight: u64,
) {
    let set = &mut sets[set_index(pair, shift)];
    // Branch-free hit detection: all four ways are compared with plain
    // boolean arithmetic, leaving a single well-predicted hit/miss
    // branch instead of a data-dependent branch per way.
    let p = &set.pairs;
    let w = &set.weights;
    let hit_mask = u32::from(p[0] == pair && w[0] != 0)
        | u32::from(p[1] == pair && w[1] != 0) << 1
        | u32::from(p[2] == pair && w[2] != 0) << 2
        | u32::from(p[3] == pair && w[3] != 0) << 3;
    if hit_mask != 0 {
        let j = hit_mask.trailing_zeros() as usize;
        set.weights[j] = set.weights[j].saturating_add(weight);
        return;
    }
    // Miss: displace the lightest way (branchless min — an empty way has
    // weight 0 and always wins).
    let mut victim = 0usize;
    for j in 1..4 {
        victim = if set.weights[j] < set.weights[victim] {
            j
        } else {
            victim
        };
    }
    if set.weights[victim] != 0 {
        evicted.push((set.pairs[victim], set.weights[victim]));
    }
    set.pairs[victim] = pair;
    set.weights[victim] = weight;
}

impl std::fmt::Debug for OwnerWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OwnerWorker")
            .field("cache_entries", &(self.sets.len() * 4))
            .field("evicted", &self.evicted.len())
            .finish_non_exhaustive()
    }
}

/// The parallel ingest pipeline over any [`SlotSink`] `B` (by default
/// the [`ConcurrentGSketch`] atomic arena): N combiners over one stream,
/// committing through the shared atomic path.
///
/// Two modes share one staging → combine → route → slot-sort →
/// span-commit path:
///
/// * **Pull** — [`run`](Self::run) drains a chunked [`EdgeSource`] from
///   the worker pool (scoped threads; no detached state survives the
///   call, and every worker's cache is drained before it returns).
/// * **Push** — the pipeline is itself an [`EdgeSink`]: `update` /
///   `ingest_batch` feed the calling thread's combiner, and
///   [`flush`](EdgeSink::flush) drains it. Absorbed-but-unflushed
///   arrivals are **not** guaranteed visible to queries until the flush.
#[derive(Debug)]
pub struct ParallelIngest<'s, B: SlotSink = ConcurrentGSketch> {
    sink: &'s B,
    threads: usize,
    chunk_capacity: usize,
    oversubscribe: bool,
    exclusive: bool,
    /// Combiner for the push-mode surface (lazily created: most
    /// pull-mode pipelines never touch it).
    local: Option<Box<OwnerWorker>>,
    /// Arrivals accepted through the push surface since the last drain.
    staged_arrivals: usize,
}

impl<'s, B: SlotSink> ParallelIngest<'s, B> {
    /// A pipeline committing into `sink` from up to `threads` workers
    /// (clamped to at least 1 and, by default, to the host's available
    /// parallelism), with the default staging capacity.
    pub fn new(sink: &'s B, threads: usize) -> Self {
        Self {
            sink,
            threads: threads.max(1),
            chunk_capacity: DEFAULT_CHUNK,
            oversubscribe: false,
            exclusive: false,
            local: None,
            staged_arrivals: 0,
        }
    }

    /// Like [`new`](Self::new), but taking the sink by exclusive borrow.
    /// The mutable borrow is held for the pipeline's whole lifetime, so
    /// the borrow checker proves no other thread can update the sink
    /// while this pipeline exists — which lets a sole worker commit
    /// through [`SlotSink::commit_run_exclusive`] (plain stores instead
    /// of lock-prefixed RMWs). Multi-worker runs still use the shared
    /// atomic path, since the workers race each other.
    pub fn new_exclusive(sink: &'s mut B, threads: usize) -> Self {
        let mut pipe = Self::new(sink, threads);
        pipe.exclusive = true;
        pipe
    }

    /// Override the arrivals staged per source refill (clamped to at
    /// least 1). Larger chunks amortize the source lock further; smaller
    /// chunks bound staging latency.
    #[must_use]
    pub fn chunk_capacity(mut self, capacity: usize) -> Self {
        self.chunk_capacity = capacity.max(1);
        self
    }

    /// Spawn exactly the requested thread count even beyond the host's
    /// available parallelism. Oversubscription never helps a CPU-bound
    /// pipeline — this exists so correctness tests can force real thread
    /// interleaving on small machines.
    #[must_use]
    pub fn oversubscribe(mut self, on: bool) -> Self {
        self.oversubscribe = on;
        self
    }

    /// Requested worker threads (upper bound for [`run`](Self::run)).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Worker threads [`run`](Self::run) will actually spawn.
    pub fn effective_threads(&self) -> usize {
        clamp_workers(self.threads, self.oversubscribe)
    }

    /// Arrivals accepted through the push-mode surface that may not yet
    /// be visible to queries (combined or staged, not yet drained).
    pub fn staged(&self) -> usize {
        self.staged_arrivals
    }

    /// The push-mode combiner, created on first use. Pushes arrive from
    /// the one thread holding `&mut self`, so it commits exclusively
    /// whenever the sink is exclusively borrowed.
    fn local_worker(&mut self) -> &mut OwnerWorker {
        let n_slots = self.sink.num_slots();
        let exclusive = self.exclusive;
        self.local
            .get_or_insert_with(|| Box::new(OwnerWorker::new(n_slots, exclusive)))
    }

    /// [`run`](Self::run) specialized to an in-memory stream: workers
    /// claim contiguous spans of the slice through one atomic cursor, so
    /// there is no source lock and no staging copy at all — each chunk
    /// is processed in place. This is the fastest way to replay a
    /// materialized stream; use [`run`](Self::run) for generators and
    /// file readers.
    pub fn run_slice(&mut self, stream: &[StreamEdge]) -> IngestReport {
        self.flush();
        let workers = self.effective_threads();
        let chunks = AtomicU64::new(0);
        let cursor = AtomicU64::new(0);
        let sink = self.sink;
        let cap = self.chunk_capacity;
        let n_slots = sink.num_slots();
        let exclusive = self.exclusive && workers == 1;
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut worker = OwnerWorker::new(n_slots, exclusive);
                    loop {
                        // ordering: Relaxed — the single-location RMW
                        // hands out distinct spans whatever the ordering;
                        // nothing else rides the cursor. xtask-checked.
                        // cast: u64 -> usize; claims are bounded by
                        // stream.len() plus one chunk per worker, and
                        // oversized claims exit on the next line.
                        let start = cursor.fetch_add(cap as u64, Ordering::Relaxed) as usize;
                        if start >= stream.len() {
                            break;
                        }
                        let end = (start + cap).min(stream.len());
                        // ordering: Relaxed — statistics counter, read
                        // via `into_inner()` after the scope join below,
                        // which already gives happens-before.
                        chunks.fetch_add(1, Ordering::Relaxed);
                        worker.absorb_chunk(sink, &stream[start..end]);
                    }
                    worker.drain(sink);
                });
            }
        });
        IngestReport {
            arrivals: stream.len() as u64,
            chunks: chunks.into_inner(),
            workers,
        }
    }

    /// Drain `source` to exhaustion across the worker pool and return
    /// what was absorbed. Any arrivals staged through the push-mode
    /// [`EdgeSink`] surface are committed first, so the two modes
    /// compose.
    ///
    /// The source is behind one mutex, held per chunk rather than per
    /// arrival. How much work that lock covers is the source's
    /// `fill_chunk`: a `memcpy` for slices, one generator pass for the
    /// synthetic models, but a full text-parse for
    /// [`StreamFileSource`](gstream::StreamFileSource) — a
    /// parse-dominated source serializes the workers on the lock, so
    /// for maximum multi-core throughput pre-materialize the stream and
    /// use [`run_slice`](Self::run_slice).
    pub fn run<S: EdgeSource + Send>(&mut self, source: &mut S) -> IngestReport {
        self.flush();
        let workers = self.effective_threads();
        let arrivals = AtomicU64::new(0);
        let chunks = AtomicU64::new(0);
        let shared = Mutex::new(source);
        let sink = self.sink;
        let cap = self.chunk_capacity;
        let n_slots = sink.num_slots();
        // Exclusive commits need a sole writer: the exclusive borrow
        // rules out external writers, and a single worker rules out
        // sibling workers.
        let exclusive = self.exclusive && workers == 1;
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut buf: Vec<StreamEdge> = Vec::with_capacity(cap);
                    let mut worker = OwnerWorker::new(n_slots, exclusive);
                    loop {
                        let n = shared
                            .lock()
                            // lint: allow(no-panics) — a worker panicked
                            // mid-chunk; the stream is torn either way,
                            // so poisoning is unrecoverable here.
                            .expect("ingest source lock poisoned")
                            .fill_chunk(&mut buf, cap);
                        if n == 0 {
                            break;
                        }
                        // ordering: Relaxed — statistics counters, read
                        // via `into_inner()` after the scope join below
                        // (join gives happens-before; see DESIGN.md §10).
                        arrivals.fetch_add(n as u64, Ordering::Relaxed);
                        chunks.fetch_add(1, Ordering::Relaxed);
                        worker.absorb_chunk(sink, &buf);
                    }
                    worker.drain(sink);
                });
            }
        });
        IngestReport {
            arrivals: arrivals.into_inner(),
            chunks: chunks.into_inner(),
            workers,
        }
    }
}

/// Batches the scatter stage hands an owner: `(pair, weight)` entries
/// whose router slot lies inside the owner's range. An **empty** batch
/// is the end-of-stream sentinel. Slots are *not* shipped: the owner
/// re-derives them from the shared read-only router at commit time,
/// batched (see [`OwnerWorker::commit_evicted`]), which keeps the
/// handoff at 16 bytes per entry and the absorb loop free of routing.
type OwnerBatch = Vec<(u64, u64)>;

/// Batches in flight per owner queue. Deep enough to keep an owner fed
/// across scatter's next chunk; shallow enough that backpressure kicks
/// in before batches pile up beyond the cache.
const OWNER_QUEUE_DEPTH: usize = 8;

/// Spin until `item` fits in the bounded queue (the scatter side of the
/// backpressure protocol; yields so an oversubscribed host makes
/// progress).
fn push_spin<T>(queue: &SpscQueue<T>, mut item: T) {
    loop {
        match queue.try_push(item) {
            Ok(()) => return,
            Err(back) => {
                item = back;
                std::thread::yield_now();
            }
        }
    }
}

/// The owner-sharded ingest engine (DESIGN.md §11): a scatter stage on
/// the calling thread routes each arrival once and hands per-owner
/// `(pair, weight)` batches over bounded SPSC queues to owning workers.
/// Each owner holds a **contiguous** slot range of the [`OwnerMap`] — a
/// contiguous slice of the arena slab — combines locally through the
/// same combiner as [`ParallelIngest`] (`OwnerWorker`), and always
/// commits with [`SlotSink::commit_run_exclusive`] plain stores: the sole-writer
/// path [`ParallelIngest::new_exclusive`] grants one worker is
/// generalized to N disjoint slice owners, so the owner commit path has
/// **no atomic RMWs at any thread count**. Owners first-touch their
/// slice before absorbing ([`SlotSink::warm_slots`]), which a NUMA
/// first-touch policy turns into local placement for free.
///
/// Like the exclusive pipeline, construction takes the sink by `&mut`:
/// the borrow held for the engine's lifetime is the proof no outside
/// writer exists, and the ownership map's disjoint ranges are the proof
/// the owners don't race each other (the `sharded-ownership-race`
/// harness demonstrates exactly what a violated map would lose).
///
/// With one effective owner there is no handoff at all: no scatter
/// pass, no queue, **no spawned thread** — the calling thread is the
/// owner, absorbing the stream in place and committing exclusively.
/// This is the `sharded/1t` configuration the ingest bench records
/// against `parallel/1t`, which runs the same combiner on a scoped
/// thread while the caller blocks in the scope join.
#[derive(Debug)]
pub struct ShardedIngest<'s, B: SlotSink = ConcurrentGSketch> {
    sink: &'s B,
    owners: usize,
    chunk_capacity: usize,
    oversubscribe: bool,
}

impl<'s, B: SlotSink> ShardedIngest<'s, B> {
    /// An engine committing into `sink` from up to `owners` owning
    /// workers (clamped to the host's available parallelism and to the
    /// sink's slot count — an owner without slots would idle). The
    /// exclusive borrow is held for the engine's lifetime; see the type
    /// docs.
    pub fn new(sink: &'s mut B, owners: usize) -> Self {
        Self {
            sink,
            owners: owners.max(1),
            chunk_capacity: DEFAULT_CHUNK,
            oversubscribe: false,
        }
    }

    /// Override the arrivals scattered per chunk (clamped to at least 1).
    #[must_use]
    pub fn chunk_capacity(mut self, capacity: usize) -> Self {
        self.chunk_capacity = capacity.max(1);
        self
    }

    /// Spawn exactly the requested owner count even beyond the host's
    /// available parallelism (correctness tests on small machines; see
    /// [`ParallelIngest::oversubscribe`]).
    #[must_use]
    pub fn oversubscribe(mut self, on: bool) -> Self {
        self.oversubscribe = on;
        self
    }

    /// Requested owner count (upper bound).
    pub fn owners(&self) -> usize {
        self.owners
    }

    /// The ownership map a run will use: requested owners, clamped to
    /// the host (unless oversubscribed) and to the slot count.
    pub fn owner_map(&self) -> OwnerMap {
        OwnerMap::new(
            self.sink.num_slots(),
            clamp_workers(self.owners, self.oversubscribe),
        )
    }

    /// Owner threads a run will actually use.
    pub fn effective_owners(&self) -> usize {
        self.owner_map().owners()
    }

    /// Ingest a materialized stream and return what was absorbed
    /// (`workers` reports the effective owner count). For a
    /// generator-backed source, materialize the stream first — scatter
    /// reads it exactly once, in order.
    pub fn run_slice(&mut self, stream: &[StreamEdge]) -> IngestReport {
        let sink = self.sink;
        let n_slots = sink.num_slots();
        let map = self.owner_map();
        let owners = map.owners();
        let cap = self.chunk_capacity;
        let mut chunks = 0u64;
        if owners == 1 {
            // Fused path: the calling thread is the sole owner — no
            // scatter pass, no queue, no spawn (see the type docs).
            let mut worker = OwnerWorker::new(n_slots, true);
            for chunk in stream.chunks(cap) {
                chunks += 1;
                worker.absorb_chunk(sink, chunk);
            }
            worker.drain(sink);
            return IngestReport {
                arrivals: stream.len() as u64,
                chunks,
                workers: 1,
            };
        }
        let queues: Vec<SpscQueue<OwnerBatch>> = (0..owners)
            .map(|_| SpscQueue::with_capacity(OWNER_QUEUE_DEPTH))
            .collect();
        thread::scope(|scope| {
            for (w, queue) in queues.iter().enumerate() {
                // cast: usize -> u32; owner ids are < owners <= n_slots,
                // which fits u32 (slot ids are u32).
                let (lo, hi) = map.slot_range(w as u32);
                scope.spawn(move || {
                    sink.warm_slots(lo, hi);
                    let mut worker = OwnerWorker::new(n_slots, true);
                    loop {
                        match queue.try_pop() {
                            Some(batch) => {
                                if batch.is_empty() {
                                    break;
                                }
                                worker.absorb_batch(sink, &batch);
                            }
                            None => std::thread::yield_now(),
                        }
                    }
                    worker.drain(sink);
                });
            }
            // Scatter runs here, on the calling thread: the single
            // producer of every owner queue. Each arrival is routed
            // once, to pick its slot's owner; the slot itself stays
            // behind (owners re-route at commit time, batched).
            let mut batches: Vec<OwnerBatch> = vec![OwnerBatch::new(); owners];
            for chunk in stream.chunks(cap) {
                chunks += 1;
                for se in chunk {
                    if se.weight == 0 {
                        continue;
                    }
                    let slot = sink.slot_of(se.edge.src);
                    // cast: u32 -> usize is widening on every supported
                    // target; owner ids are < owners = batches.len().
                    batches[map.owner_of(slot) as usize].push((edge_pair(se.edge), se.weight));
                }
                for (w, batch) in batches.iter_mut().enumerate() {
                    if !batch.is_empty() {
                        push_spin(&queues[w], std::mem::take(batch));
                    }
                }
            }
            for queue in &queues {
                push_spin(queue, OwnerBatch::new());
            }
        });
        IngestReport {
            arrivals: stream.len() as u64,
            chunks,
            workers: owners,
        }
    }
}

impl<B: SlotSink> EdgeSink for ParallelIngest<'_, B> {
    fn update(&mut self, se: StreamEdge) {
        let sink = self.sink;
        self.local_worker()
            .absorb_chunk(sink, std::slice::from_ref(&se));
        self.staged_arrivals += 1;
    }

    fn ingest_batch(&mut self, batch: &[StreamEdge]) {
        let sink = self.sink;
        self.local_worker().absorb_chunk(sink, batch);
        self.staged_arrivals += batch.len();
    }

    fn flush(&mut self) {
        let sink = self.sink;
        if let Some(w) = self.local.as_mut() {
            w.drain(sink);
        }
        self.staged_arrivals = 0;
    }
}

impl<B: SlotSink> Drop for ParallelIngest<'_, B> {
    /// Arrivals accepted by a sink must not be lost: a pipeline dropped
    /// with staged arrivals commits them, exactly as a final flush.
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsketch::GSketch;
    use gstream::edge::Edge;
    use gstream::SliceSource;

    fn skewed_stream(n: u64) -> Vec<StreamEdge> {
        // A Zipf-ish head plus a long tail, so the combiner cache sees
        // both hits and evictions.
        (0..n)
            .map(|t| {
                let src = if t % 3 == 0 { 1 } else { (t % 97) as u32 };
                StreamEdge::unit(Edge::new(src, (t % 11) as u32 + 100), t)
            })
            .collect()
    }

    fn build(stream: &[StreamEdge]) -> ConcurrentGSketch {
        let g = GSketch::builder()
            .memory_bytes(1 << 16)
            .min_width(32)
            .seed(3)
            .build_from_sample(&stream[..stream.len() / 4])
            .unwrap();
        ConcurrentGSketch::from_gsketch(g)
    }

    #[test]
    fn pull_mode_absorbs_everything() {
        let stream = skewed_stream(10_000);
        let c = build(&stream);
        let report = ParallelIngest::new(&c, 4)
            .chunk_capacity(512)
            .oversubscribe(true)
            .run(&mut SliceSource::new(&stream));
        assert_eq!(report.arrivals, 10_000);
        assert_eq!(report.workers, 4);
        assert!(report.chunks >= 10_000 / 512);
        assert_eq!(c.total_weight(), 10_000);
    }

    #[test]
    fn pull_mode_matches_sequential_estimates() {
        let stream = skewed_stream(20_000);
        let sample = &stream[..2_000];
        let build_seq = || {
            GSketch::builder()
                .memory_bytes(1 << 16)
                .min_width(32)
                .seed(7)
                .build_from_sample(sample)
                .unwrap()
        };
        let mut serial = build_seq();
        serial.ingest(&stream);

        let c = ConcurrentGSketch::from_gsketch(build_seq());
        ParallelIngest::new(&c, 8)
            .chunk_capacity(1 << 10)
            .oversubscribe(true)
            .run(&mut SliceSource::new(&stream));
        let parallel = c.into_gsketch();
        for se in &stream {
            assert_eq!(parallel.estimate(se.edge), serial.estimate(se.edge));
        }
        assert_eq!(parallel.total_weight(), serial.total_weight());
    }

    #[test]
    fn push_mode_stages_until_flush() {
        let stream = skewed_stream(100);
        let c = build(&stream);
        let mut pipe = ParallelIngest::new(&c, 2);
        for se in &stream {
            pipe.update(*se);
        }
        // Everything fits in the combiner cache: nothing committed yet.
        assert_eq!(pipe.staged(), 100);
        assert_eq!(c.total_weight(), 0);
        pipe.flush();
        assert_eq!(pipe.staged(), 0);
        assert_eq!(c.total_weight(), 100);
    }

    #[test]
    fn drop_commits_staged_arrivals() {
        let stream = skewed_stream(10);
        let c = build(&stream);
        {
            let mut pipe = ParallelIngest::new(&c, 1);
            pipe.ingest_batch(&stream);
            assert_eq!(c.total_weight(), 0);
        }
        assert_eq!(c.total_weight(), 10);
    }

    #[test]
    fn run_flushes_prior_staging_first() {
        let stream = skewed_stream(1_000);
        let c = build(&stream);
        let mut pipe = ParallelIngest::new(&c, 2);
        pipe.ingest_batch(&stream[..100]);
        let report = pipe.run(&mut SliceSource::new(&stream[100..]));
        assert_eq!(report.arrivals, 900);
        assert_eq!(c.total_weight(), 1_000);
    }

    #[test]
    fn push_mode_matches_sequential_estimates() {
        let stream = skewed_stream(5_000);
        let sample = &stream[..500];
        let build_seq = || {
            GSketch::builder()
                .memory_bytes(1 << 15)
                .min_width(16)
                .seed(11)
                .build_from_sample(sample)
                .unwrap()
        };
        let mut serial = build_seq();
        serial.ingest(&stream);

        let c = ConcurrentGSketch::from_gsketch(build_seq());
        let mut pipe = ParallelIngest::new(&c, 1);
        pipe.ingest(&stream);
        drop(pipe);
        let pushed = c.into_gsketch();
        for se in &stream {
            assert_eq!(pushed.estimate(se.edge), serial.estimate(se.edge));
        }
    }

    /// Zero weights are identities; a weight beyond `u32::MAX` and
    /// repeats whose sum overflows a `u32` accumulate in the combiner's
    /// u64 accumulators. Push mode, a shared two-worker run and an
    /// exclusive sole worker all commit what a sequential ingest does.
    #[test]
    fn weighted_and_zero_weight_arrivals_handled() {
        let stream = skewed_stream(200);
        let e = stream[0].edge;
        let big = u64::from(u32::MAX);
        let mut arrivals = stream.clone();
        for w in [0, big + 5, big, 3, big, big] {
            arrivals.push(StreamEdge::weighted(e, 0, w));
        }
        let build_seq = || {
            GSketch::builder()
                .memory_bytes(1 << 16)
                .min_width(32)
                .seed(3)
                .build_from_sample(&stream[..50])
                .unwrap()
        };
        let mut serial = build_seq();
        serial.ingest(&arrivals);
        let check = |c: ConcurrentGSketch, mode: &str| {
            let got = c.into_gsketch();
            assert_eq!(got.total_weight(), serial.total_weight(), "{mode}");
            for se in &arrivals {
                assert_eq!(got.estimate(se.edge), serial.estimate(se.edge), "{mode}");
            }
        };

        let c = ConcurrentGSketch::from_gsketch(build_seq());
        let mut pipe = ParallelIngest::new(&c, 1);
        for se in &arrivals {
            pipe.update(*se);
        }
        drop(pipe);
        check(c, "push mode");

        let c = ConcurrentGSketch::from_gsketch(build_seq());
        ParallelIngest::new(&c, 2)
            .oversubscribe(true)
            .chunk_capacity(64)
            .run_slice(&arrivals);
        check(c, "two shared workers");

        let mut c = ConcurrentGSketch::from_gsketch(build_seq());
        ParallelIngest::new_exclusive(&mut c, 1).run_slice(&arrivals);
        check(c, "exclusive sole worker");
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let stream = skewed_stream(10);
        let c = build(&stream);
        let mut pipe = ParallelIngest::new(&c, 0);
        assert_eq!(pipe.threads(), 1);
        assert!(pipe.effective_threads() >= 1);
        pipe.run(&mut SliceSource::new(&stream));
        assert_eq!(c.total_weight(), 10);
    }

    /// The fused single-owner path (calling thread, no scatter, no
    /// queue) commits exactly what the sequential ingest does.
    #[test]
    fn sharded_single_owner_matches_sequential() {
        let stream = skewed_stream(20_000);
        let sample = &stream[..2_000];
        let build_seq = || {
            GSketch::builder()
                .memory_bytes(1 << 16)
                .min_width(32)
                .seed(7)
                .build_from_sample(sample)
                .unwrap()
        };
        let mut serial = build_seq();
        serial.ingest(&stream);

        let mut c = ConcurrentGSketch::from_gsketch(build_seq());
        let report = ShardedIngest::new(&mut c, 1)
            .chunk_capacity(1 << 10)
            .run_slice(&stream);
        assert_eq!(report.arrivals, 20_000);
        assert_eq!(report.workers, 1);
        assert!(report.chunks >= 20_000 / (1 << 10));
        let sharded = c.into_gsketch();
        for se in &stream {
            assert_eq!(sharded.estimate(se.edge), serial.estimate(se.edge));
        }
        assert_eq!(sharded.total_weight(), serial.total_weight());
    }

    /// Multi-owner runs (scatter → SPSC handoff → exclusive owner
    /// commits) stay bit-identical to sequential ingest for any owner
    /// count, including more owners than the host has cores.
    #[test]
    fn sharded_multi_owner_matches_sequential() {
        let stream = skewed_stream(20_000);
        let sample = &stream[..2_000];
        let build_seq = || {
            GSketch::builder()
                .memory_bytes(1 << 16)
                .min_width(32)
                .seed(7)
                .build_from_sample(sample)
                .unwrap()
        };
        let mut serial = build_seq();
        serial.ingest(&stream);

        for owners in [2usize, 4, 7] {
            let mut c = ConcurrentGSketch::from_gsketch(build_seq());
            let engine = ShardedIngest::new(&mut c, owners).oversubscribe(true);
            assert_eq!(engine.owners(), owners);
            let report = engine.chunk_capacity(1 << 9).run_slice(&stream);
            assert_eq!(report.arrivals, 20_000);
            assert!(report.workers >= 2, "{owners} owners clamped to one");
            let sharded = c.into_gsketch();
            for se in &stream {
                assert_eq!(
                    sharded.estimate(se.edge),
                    serial.estimate(se.edge),
                    "{owners} owners"
                );
            }
            assert_eq!(sharded.total_weight(), serial.total_weight());
        }
    }

    /// Requesting more owners than the sink has slots clamps to the
    /// slot count; zero owners clamps to one; zero-weight arrivals are
    /// identities; saturating weights commit exactly like the
    /// sequential saturating path.
    #[test]
    fn sharded_edge_cases_match_sequential() {
        let stream = skewed_stream(500);
        let e = stream[0].edge;
        let mut spiced = stream.clone();
        spiced.push(StreamEdge::weighted(e, 500, 0)); // identity
        spiced.push(StreamEdge::weighted(e, 501, u64::MAX / 2));
        spiced.push(StreamEdge::weighted(e, 502, u64::MAX / 2)); // saturates
        let sample = &stream[..100];
        let build_seq = || {
            GSketch::builder()
                .memory_bytes(1 << 15)
                .min_width(16)
                .seed(5)
                .build_from_sample(sample)
                .unwrap()
        };
        let mut serial = build_seq();
        serial.ingest(&spiced);

        let mut c = ConcurrentGSketch::from_gsketch(build_seq());
        let mut engine = ShardedIngest::new(&mut c, 0);
        assert_eq!(engine.owners(), 1);
        engine.run_slice(&spiced);
        let sharded = c.into_gsketch();
        for se in &spiced {
            assert_eq!(sharded.estimate(se.edge), serial.estimate(se.edge));
        }

        let mut c2 = ConcurrentGSketch::from_gsketch(build_seq());
        let engine = ShardedIngest::new(&mut c2, usize::MAX).oversubscribe(true);
        let n_slots = engine.owner_map().num_slots();
        assert!(engine.effective_owners() <= n_slots);
    }
}
