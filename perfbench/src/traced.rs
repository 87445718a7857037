//! The traced run: the same seeded inputs replayed in-process, timing the
//! public entry points of each crate.
//!
//! Standalone rows call `kreach-graph`, `kreach-core`, `kreach-engine` and
//! `kreach-store` directly. Server rows build the default composition —
//! `EngineConfig::default()`, `ServerConfig::default()`, `Store` as the
//! durability sink — with the backend and the sink wrapped in timing
//! adapters that forward every trait method, and replay requests one at a
//! time so each request's layer spans nest under it.

use crate::e2e::Tally;
use crate::inputs::{self, Updates, K};
use crate::spans::{self, Recorder};
use crate::stats::{median, Samples};
use crate::{Metrics, Plan, RunRecord, Workload};
use kreach_core::dynamic::{DynamicKReach, DynamicOptions, UpdateStats};
use kreach_core::{AccelRetune, BuildOptions, KReachIndex};
use kreach_engine::{
    BatchEngine, DurabilitySink, DynamicKReachBackend, EngineConfig, KReachBackend, QueryBatch,
    Reachability, UpdateError, UpdateOutcome,
};
use kreach_graph::{DiGraph, DynamicGraph, EdgeUpdate, VertexId};
use kreach_server::client::BlockingClient;
use kreach_server::ServerConfig;
use kreach_store::Store;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions of the set-up style measurements (load, build, restore,
/// checkpoint); each reports the median.
const REPS: usize = 5;
/// Updates replayed through each update-path layer (enough for a p99).
const UPDATES: usize = 1000;
/// `GET /reach` requests per server replay.
const GETS: usize = 5000;
/// `POST /batch` requests per server replay.
const BATCHES: usize = 400;
/// Engine batches of 256 timed per repetition.
const ENGINE_BATCHES: usize = 400;
/// Single-query engine batches timed.
const ENGINE_SINGLES: usize = 5000;

/// Forwards every [`Reachability`] method to the wrapped backend, timing
/// the query and update calls as spans.
struct TimedBackend {
    inner: Arc<dyn Reachability>,
    rec: Arc<Recorder>,
}

impl TimedBackend {
    fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.rec.enabled() {
            return f();
        }
        let start = self.rec.now_ns();
        let r = f();
        self.rec.record(name, start, self.rec.now_ns());
        r
    }
}

impl Reachability for TimedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn vertex_count(&self) -> usize {
        self.inner.vertex_count()
    }

    fn default_k(&self) -> u32 {
        self.inner.default_k()
    }

    fn query(&self, s: VertexId, t: VertexId, k: u32) -> bool {
        self.span("backend.query", || self.inner.query(s, t, k))
    }

    fn query_group(&self, sources: &[VertexId], t: VertexId, k: u32, answers: &mut [bool]) {
        self.span("backend.query_group", || {
            self.inner.query_group(sources, t, k, answers)
        })
    }

    fn retune_accel(&self, budget_bytes: usize) -> Option<AccelRetune> {
        self.inner.retune_accel(budget_bytes)
    }

    fn accel_bytes(&self) -> usize {
        self.inner.accel_bytes()
    }

    fn apply_updates(&self, updates: &[EdgeUpdate]) -> Result<UpdateOutcome, UpdateError> {
        self.span("backend.apply_updates", || {
            self.inner.apply_updates(updates)
        })
    }

    fn top_sources(&self, n: usize) -> Vec<VertexId> {
        self.inner.top_sources(n)
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> Option<bool> {
        self.inner.has_edge(u, v)
    }

    fn case_of(&self, s: VertexId, t: VertexId, k: u32) -> Option<u8> {
        self.inner.case_of(s, t, k)
    }
}

/// Forwards [`DurabilitySink::append`] to a [`Store`], timing each call.
struct TimedSink {
    inner: Arc<Store>,
    rec: Arc<Recorder>,
    appends: std::sync::Mutex<Samples>,
}

impl DurabilitySink for TimedSink {
    fn append(&self, epoch: u64, updates: &[EdgeUpdate]) -> std::io::Result<()> {
        let start = self.rec.now_ns();
        let r = self.inner.append(epoch, updates);
        let end = self.rec.now_ns();
        if self.rec.enabled() {
            self.rec.record("sink.append", start, end);
        }
        self.appends
            .lock()
            .expect("append samples poisoned")
            .push(end - start);
        r
    }
}

fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Runs the traced replay of `plan.workload` and returns its per-layer
/// metrics.
pub fn run(plan: &Plan, record: &mut RunRecord, tally: &mut Tally) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let graph_path = plan.out.join("graph.txt");
    kreach_graph::io::write_edge_list_file(&inputs::generate_graph(), &graph_path)
        .map_err(|e| e.to_string())?;

    // kreach-graph: edge-list load.
    let mut loads = Vec::new();
    let mut g = None;
    for _ in 0..REPS {
        let (loaded, s) = secs(|| kreach_graph::io::read_edge_list_file(&graph_path));
        g = Some(loaded.map_err(|e| e.to_string())?);
        loads.push(s);
    }
    let g = Arc::new(g.expect("loaded"));
    m.push("graph.load_s", median(&loads), "s");

    // kreach-core: Algorithm-1 build.
    let mut builds = Vec::new();
    let mut index = None;
    for _ in 0..REPS {
        let (built, s) = secs(|| KReachIndex::build(g.as_ref(), K, BuildOptions::default()));
        index = Some(built);
        builds.push(s);
    }
    let index = index.expect("built");
    m.push("core.build_s", median(&builds), "s");
    m.push(
        "core.index_bytes",
        (index.size_bytes() + index.accel_size_bytes()) as f64,
        "bytes",
    );

    let pairs = inputs::uniform_queries(&g, plan.seed, inputs::QUERIES);
    let truth = inputs::bfs_truth(g.as_ref(), &pairs);

    let probe_ns = core_probes(&mut m, &index, &g, &pairs, &truth, tally);
    let shares: Vec<f64> = (1..=4)
        .map(|c| {
            pairs
                .iter()
                .filter(|&&(s, t)| index.classify(s, t).number() == c)
                .count() as f64
                / pairs.len() as f64
        })
        .collect();
    for (c, share) in shares.iter().enumerate() {
        m.push(&format!("core.case_share.case{}", c + 1), *share, "ratio");
    }

    // kreach-engine: default config over the real static backend.
    let backend: Arc<dyn Reachability> = Arc::new(KReachBackend::new(Arc::clone(&g), index));
    let engine_ns = engine_rows(&mut m, &backend, &pairs, &truth, tally)?;
    let probe_weighted: f64 = shares.iter().zip(&probe_ns).map(|(s, p)| s * p).sum();
    m.push("engine.self_ns_per_query", engine_ns - probe_weighted, "ns");

    // kreach-server over the static backend, untraced and traced.
    let rec = Arc::new(Recorder::default());
    server_reads(&mut m, &backend, &rec, &pairs, &truth, tally)?;

    // Update path: core maintainer, engine + store, durable server.
    let updates = Updates::generate(&g, plan.seed, inputs::WAL_DEBT, 2 * UPDATES);
    update_rows(plan, &mut m, &g, &updates, &rec, tally)?;

    let spans_path = plan.out.join("spans.jsonl");
    let written = rec.dump(&spans_path).map_err(|e| e.to_string())?;
    record.spans_path = Some(format!("{} ({written} spans)", spans_path.display()));
    Ok(m)
}

/// Per-case median ns of `KReachIndex::query_with_case`; checks every
/// answer against BFS.
fn core_probes(
    m: &mut Metrics,
    index: &KReachIndex,
    g: &DiGraph,
    pairs: &[(VertexId, VertexId)],
    truth: &[bool],
    tally: &mut Tally,
) -> Vec<f64> {
    let mut by_case: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); 4];
    for (&(s, t), &want) in pairs.iter().zip(truth) {
        let (got, case) = index.query_with_case(g, s, t);
        tally.attempted += 1;
        if got != want {
            tally.failed += 1;
        }
        by_case[case.number() as usize - 1].push((s, t));
    }
    let mut out = Vec::new();
    for (c, group) in by_case.iter().enumerate() {
        let mut reps = Vec::new();
        for _ in 0..REPS {
            let start = Instant::now();
            for &(s, t) in group {
                black_box(index.query_with_case(g, black_box(s), black_box(t)));
            }
            reps.push(start.elapsed().as_nanos() as f64 / group.len().max(1) as f64);
        }
        let ns = median(&reps);
        m.push(&format!("core.probe_ns.case{}", c + 1), ns, "ns");
        out.push(ns);
    }
    out
}

/// `BatchEngine::run_into` with the default config: 256-query batches and
/// single-query batches. Returns ns per query of the 256-query batches.
fn engine_rows(
    m: &mut Metrics,
    backend: &Arc<dyn Reachability>,
    pairs: &[(VertexId, VertexId)],
    truth: &[bool],
    tally: &mut Tally,
) -> Result<f64, String> {
    let engine = BatchEngine::new(Arc::clone(backend), EngineConfig::default());
    let mut answers = Vec::new();
    let mut per_query = Vec::new();
    let (mut hits, mut lookups) = (0u64, 0u64);
    let chunks: Vec<_> = pairs
        .chunks_exact(256)
        .zip(truth.chunks_exact(256))
        .collect();
    for (i, (p, want)) in chunks
        .iter()
        .cycle()
        .take(ENGINE_BATCHES * REPS)
        .enumerate()
    {
        let batch = QueryBatch::from_pairs(p, K);
        let start = Instant::now();
        let (stats, _) = engine
            .run_into(&batch, &mut answers)
            .map_err(|e| e.to_string())?;
        let ns = start.elapsed().as_nanos() as f64;
        tally.attempted += p.len() as u64;
        tally.failed += answers.iter().zip(*want).filter(|(a, b)| a != b).count() as u64;
        // The first repetition warms the cache; time the rest.
        if i >= ENGINE_BATCHES {
            per_query.push(ns / p.len() as f64);
            hits += stats.cache_hits;
            lookups += stats.cache_hits + stats.cache_misses;
        }
    }
    let run_ns = median(&per_query);
    m.push("engine.run_ns_per_query", run_ns, "ns");
    m.push(
        "engine.cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );

    let mut singles = Samples::new();
    for (&(s, t), &want) in pairs.iter().zip(truth).take(ENGINE_SINGLES) {
        let batch = QueryBatch::from_pairs(&[(s, t)], K);
        let start = Instant::now();
        engine
            .run_into(&batch, &mut answers)
            .map_err(|e| e.to_string())?;
        singles.push_duration(start.elapsed());
        tally.attempted += 1;
        if answers[0] != want {
            tally.failed += 1;
        }
    }
    m.push("engine.run1_us", singles.p50_us()?, "us");
    Ok(run_ns)
}

/// Replays `GETS` `GET /reach` requests, paced at `rate` or back to back
/// when `None`; returns request latencies (from send) and the generator's
/// send lateness.
fn replay_gets(
    addr: std::net::SocketAddr,
    rec: &Recorder,
    rate: Option<f64>,
    pairs: &[(VertexId, VertexId)],
    truth: &[bool],
    tally: &mut Tally,
) -> Result<(Samples, Samples), String> {
    let mut client = BlockingClient::connect(addr).map_err(|e| e.to_string())?;
    let mut latency = Samples::new();
    let mut late = Samples::new();
    let start = Instant::now() + Duration::from_millis(5);
    let mut free_at = start;
    for (j, (&(s, t), &want)) in pairs.iter().zip(truth).take(GETS).enumerate() {
        if let Some(rate) = rate {
            let due = start + Duration::from_secs_f64(j as f64 / rate);
            crate::loadgen::wait_until(due);
            late.push_duration(Instant::now() - due.max(free_at));
        }
        let target = format!("/reach?s={}&t={}&k={K}", s.0, t.0);
        let (resp, ns) = rec.request("server.get", || client.get(&target));
        free_at = Instant::now();
        let resp = resp.map_err(|e| format!("GET failed: {e}"))?;
        let want = kreach_datasets::workload_file::render_answer_line(s, t, K, want);
        tally.attempted += 1;
        if resp.status != 200 || resp.body_text().trim_end() != want {
            tally.failed += 1;
        }
        latency.push(ns);
    }
    Ok((latency, late))
}

/// Replays `BATCHES` back-to-back `POST /batch` requests of 256 queries;
/// returns their latencies.
fn replay_batches(
    addr: std::net::SocketAddr,
    rec: &Recorder,
    pairs: &[(VertexId, VertexId)],
    truth: &[bool],
    tally: &mut Tally,
) -> Result<Samples, String> {
    let mut client = BlockingClient::connect(addr).map_err(|e| e.to_string())?;
    let mut latency = Samples::new();
    let chunks = pairs.chunks_exact(256).zip(truth.chunks_exact(256));
    for (p, want) in chunks.cycle().take(BATCHES) {
        let body: String = p
            .iter()
            .map(|(s, t)| format!("{} {}\n", s.0, t.0))
            .collect();
        let (resp, ns) = rec.request("server.batch", || client.post("/batch", body.as_bytes()));
        let resp = resp.map_err(|e| format!("POST /batch failed: {e}"))?;
        let expected = kreach_datasets::workload_file::render_answer_lines(
            p.iter().zip(want).map(|(&(s, t), &r)| (s, t, K, r)),
        );
        tally.attempted += p.len() as u64;
        if resp.status != 200 || resp.body_text() != expected {
            tally.failed += p.len() as u64;
        }
        latency.push(ns);
    }
    Ok(latency)
}

/// Server rows over the static backend (timing adapter, spans on), plus
/// the tracing overhead: back-to-back `GET /reach` replays against an
/// untraced server (plain backend, no spans) and the traced one, alternated
/// twice.
fn server_reads(
    m: &mut Metrics,
    backend: &Arc<dyn Reachability>,
    rec: &Arc<Recorder>,
    pairs: &[(VertexId, VertexId)],
    truth: &[bool],
    tally: &mut Tally,
) -> Result<(), String> {
    let untraced_rec = Recorder::default();
    let plain = kreach_server::start(
        Arc::new(BatchEngine::new(
            Arc::clone(backend),
            EngineConfig::default(),
        )),
        ServerConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let timed: Arc<dyn Reachability> = Arc::new(TimedBackend {
        inner: Arc::clone(backend),
        rec: Arc::clone(rec),
    });
    let traced = kreach_server::start(
        Arc::new(BatchEngine::new(timed, EngineConfig::default())),
        ServerConfig::default(),
    )
    .map_err(|e| e.to_string())?;

    let (mut get_plain, mut get_traced) = (Samples::new(), Samples::new());
    let mut batch_traced = Samples::new();
    for _ in 0..2 {
        let (l, _) = replay_gets(plain.addr(), &untraced_rec, None, pairs, truth, tally)?;
        get_plain.extend(&l);
        rec.set_enabled(true);
        let (l, _) = replay_gets(traced.addr(), rec, None, pairs, truth, tally)?;
        get_traced.extend(&l);
        batch_traced.extend(&replay_batches(traced.addr(), rec, pairs, truth, tally)?);
        rec.set_enabled(false);
    }
    // The paced replay: what `request_p50_us` on get-uniform measures.
    rec.set_enabled(true);
    let first_span = rec.spans().len();
    let rate = Workload::GetUniform.paced_rate();
    let (mut get_paced, mut late) =
        replay_gets(traced.addr(), rec, Some(rate), pairs, truth, tally)?;
    rec.set_enabled(false);
    for server in [plain, traced] {
        server.shutdown();
        server.join();
    }

    m.push("server.get_us.p50", get_paced.p50_us()?, "us");
    m.push("server.get_us.p99", get_paced.p99_us()?, "us");
    m.push("server.batch_us.p50", batch_traced.p50_us()?, "us");
    let mut get_self = Samples::new();
    for (span, self_ns) in spans::self_times(&rec.spans()[first_span..]) {
        if span.name == "server.get" {
            get_self.push(self_ns);
        }
    }
    m.push("server.self_us", get_self.p50_us()?, "us");
    m.push("loadgen.late_p99_us", late.p99_us()?, "us");
    let overhead = get_traced.p50_us()? / get_plain.p50_us()? - 1.0;
    m.push("trace.overhead_pct", overhead * 100.0, "%");
    Ok(())
}

/// Update-path rows. The same post-debt state feeds three layers:
/// `DynamicKReach::apply_all` alone; `BatchEngine::apply_updates` with a
/// `Store` sink; and `POST /update` to an in-process durable server.
fn update_rows(
    plan: &Plan,
    m: &mut Metrics,
    g: &Arc<DiGraph>,
    updates: &Updates,
    rec: &Arc<Recorder>,
    tally: &mut Tally,
) -> Result<(), String> {
    let (first, second) = updates.stream.split_at(UPDATES);
    let mut shadow = DynamicGraph::new(g.as_ref().clone());
    for &u in &updates.debt {
        shadow.apply(u);
    }

    // kreach-core: the maintainer alone, no WAL.
    let mut state = DynamicKReach::new(g.as_ref().clone(), K, DynamicOptions::default());
    state.apply_all(&updates.debt);
    let before = state.stats();
    let mut apply = Samples::new();
    for &u in first {
        let start = Instant::now();
        state.apply_all(&[u]);
        apply.push_duration(start.elapsed());
    }
    let delta: UpdateStats = state.stats().since(before);
    m.push("core.apply_us.p50", apply.p50_us()?, "us");
    m.push("core.apply_us.p99", apply.p99_us()?, "us");
    m.push(
        "core.rows_patched_per_update",
        delta.rows_patched as f64 / UPDATES as f64,
        "rows",
    );
    m.push(
        "core.cover_additions",
        delta.cover_additions as f64,
        "count",
    );
    m.push("core.full_rebuilds", delta.full_rebuilds as f64, "count");
    for &u in first {
        shadow.apply(u);
    }
    let sample = inputs::uniform_queries(g, plan.seed ^ 0x5eed, 2000);
    let want = inputs::bfs_truth(&shadow, &sample);
    tally.attempted += sample.len() as u64;
    tally.failed += sample
        .iter()
        .zip(&want)
        .filter(|&(&(s, t), &w)| state.query_k(s, t, K) != w)
        .count() as u64;
    drop(state);

    // kreach-store: a data dir with a checkpoint at epoch 0 and the debt in
    // its WAL, as a crashed durable server leaves it.
    let dir = plan.out.join("store");
    let mut appends = Samples::new();
    {
        let store = Store::open(&dir, DynamicOptions::default()).map_err(|e| e.to_string())?;
        let boot = DynamicKReach::new(g.as_ref().clone(), K, DynamicOptions::default());
        store
            .checkpoint_state(&boot, 0)
            .map_err(|e| e.to_string())?;
        for (i, &u) in updates.debt.iter().enumerate() {
            let start = Instant::now();
            store
                .append(i as u64 + 1, &[u])
                .map_err(|e| e.to_string())?;
            appends.push_duration(start.elapsed());
        }
    }
    let mut restores = Vec::new();
    let mut restored = None;
    for _ in 0..REPS {
        drop(restored.take()); // releases the data-dir lock
        let (r, s) = secs(|| -> Result<_, String> {
            let store = Store::open(&dir, DynamicOptions::default()).map_err(|e| e.to_string())?;
            let report = store.restore().map_err(|e| e.to_string())?;
            Ok((store, report))
        });
        restored = Some(r?);
        restores.push(s);
    }
    m.push("store.restore_s", median(&restores), "s");
    let (store, report) = restored.expect("restored");
    let base = updates.debt.len() as u64;
    if report.epoch != base {
        return Err(format!(
            "restore reached epoch {}, want {base}",
            report.epoch
        ));
    }
    let store = Arc::new(store);

    // kreach-engine + kreach-store: apply_updates with the Store sink.
    let backend = Arc::new(DynamicKReachBackend::from_state(report.state));
    let timed: Arc<dyn Reachability> = Arc::new(TimedBackend {
        inner: Arc::clone(&backend) as Arc<dyn Reachability>,
        rec: Arc::clone(rec),
    });
    let engine = Arc::new(BatchEngine::new(timed, EngineConfig::default()));
    engine.restore_epoch(base);
    let sink = Arc::new(TimedSink {
        inner: Arc::clone(&store),
        rec: Arc::clone(rec),
        appends: std::sync::Mutex::new(Samples::new()),
    });
    engine.set_durability(Arc::clone(&sink) as Arc<dyn DurabilitySink>);
    let wal_bytes_before = store
        .durability_stats()
        .wal_bytes
        .load(std::sync::atomic::Ordering::Relaxed);
    let mut engine_apply = Samples::new();
    for (i, &u) in first.iter().enumerate() {
        let start = Instant::now();
        let outcome = engine.apply_updates(&[u]).map_err(|e| e.to_string())?;
        engine_apply.push_duration(start.elapsed());
        tally.attempted += 1;
        if outcome.epoch != base + i as u64 + 1 || outcome.stats.applied() != 1 {
            tally.failed += 1;
        }
    }
    let wal_bytes = store
        .durability_stats()
        .wal_bytes
        .load(std::sync::atomic::Ordering::Relaxed)
        - wal_bytes_before;
    m.push("engine.apply_us.p50", engine_apply.p50_us()?, "us");
    m.push("engine.apply_us.p99", engine_apply.p99_us()?, "us");
    appends.extend(&sink.appends.lock().expect("append samples poisoned"));
    m.push("store.wal_append_us.p50", appends.p50_us()?, "us");
    m.push("store.wal_append_us.p99", appends.p99_us()?, "us");
    m.push(
        "store.wal_bytes_per_update",
        wal_bytes as f64 / UPDATES as f64,
        "bytes",
    );

    let epoch = engine.epoch();
    let mut checkpoints = Vec::new();
    for _ in 0..REPS {
        let snapshot = backend.with_state(|s| s.clone());
        let (r, s) = secs(|| store.checkpoint_state(&snapshot, epoch));
        r.map_err(|e| e.to_string())?;
        checkpoints.push(s);
    }
    m.push("store.checkpoint_s", median(&checkpoints), "s");
    m.push(
        "store.checkpoint_bytes",
        store
            .durability_stats()
            .last_checkpoint_bytes
            .load(std::sync::atomic::Ordering::Relaxed) as f64,
        "bytes",
    );

    // kreach-server: POST /update against the same durable engine.
    let server = kreach_server::start(Arc::clone(&engine), ServerConfig::default())
        .map_err(|e| e.to_string())?;
    let mut client = BlockingClient::connect(server.addr()).map_err(|e| e.to_string())?;
    let mut server_update = Samples::new();
    rec.set_enabled(true);
    for (i, &u) in second.iter().enumerate() {
        let line = inputs::update_line(u);
        let (resp, ns) = rec.request("server.update", || client.post("/update", line.as_bytes()));
        let resp = resp.map_err(|e| format!("POST /update failed: {e}"))?;
        let (a, b) = u.endpoints();
        let ack = kreach_datasets::workload_file::render_update_ack(
            u.is_insert(),
            a,
            b,
            true,
            epoch + i as u64 + 1,
        );
        tally.attempted += 1;
        if resp.status != 200 || resp.body_text().trim_end() != ack {
            tally.failed += 1;
        }
        server_update.push(ns);
    }
    rec.set_enabled(false);
    server.shutdown();
    server.join();
    m.push("server.update_us.p50", server_update.p50_us()?, "us");
    m.push("server.update_us.p99", server_update.p99_us()?, "us");
    Ok(())
}
