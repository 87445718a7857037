//! End-to-end runs against the real `kreach serve` binary.

use crate::inputs::{self, Updates, K};
use crate::loadgen::{self, Counter, Outcome, Request, Source};
use crate::proc::{self, Server};
use crate::stats::{self, median, Samples};
use crate::{Metrics, Plan, RunRecord, Workload};
use kreach_baselines::{KHopReachability, OnlineBfs};
use kreach_graph::{DiGraph, DynamicGraph, EdgeUpdate, GraphView, VertexId};
use kreach_server::client::BlockingClient;
use std::path::Path;
use std::sync::Mutex;

/// Launches of the static server per run; `setup_s` is their median.
const STATIC_SETUP_REPS: usize = 9;
/// Restarts of the durable server per run; `setup_s` is their median.
const DURABLE_SETUP_REPS: usize = 5;
/// Loadgen connections (and threads) of a static run: the machine has 2
/// CPUs.
pub const CONNS: usize = 2;
/// Background checkpoint period of the durable server (its flush policy
/// besides the per-ack WAL fsync).
pub const CHECKPOINT_EVERY_S: u64 = 2;
/// A run is invalid when the paced generator's p99 send lateness exceeds
/// this.
pub const LATE_BOUND_US: f64 = 10_000.0;

/// Precomputed `GET /reach` requests with their exact expected reply bodies.
struct Gets {
    targets: Vec<String>,
    expected: Vec<Vec<u8>>,
}

impl Gets {
    fn new(pairs: &[(VertexId, VertexId)], truth: &[bool]) -> Gets {
        Gets {
            targets: pairs
                .iter()
                .map(|(s, t)| format!("/reach?s={}&t={}&k={K}", s.0, t.0))
                .collect(),
            expected: pairs
                .iter()
                .zip(truth)
                .map(|(&(s, t), &r)| answer_lines(&[(s, t)], &[r]))
                .collect(),
        }
    }
}

impl Source for Gets {
    fn request(&self, i: usize) -> Option<Request<'_>> {
        Some(Request {
            method: "GET",
            target: &self.targets[i % self.targets.len()],
            body: &[],
        })
    }

    fn on_response(&self, i: usize, _token: u64, body: &[u8]) -> bool {
        body == self.expected[i % self.expected.len()].as_slice()
    }
}

/// The canonical reply lines for answered queries.
fn answer_lines(pairs: &[(VertexId, VertexId)], truth: &[bool]) -> Vec<u8> {
    kreach_datasets::workload_file::render_answer_lines(
        pairs.iter().zip(truth).map(|(&(s, t), &r)| (s, t, K, r)),
    )
    .into_bytes()
}

/// Launches the server and times spawn → first correct answer to `probe`.
fn timed_launch(
    bin: &Path,
    args: &[String],
    log: &Path,
    probe: ((VertexId, VertexId), bool),
) -> Result<(Server, f64), String> {
    let server = Server::launch(bin, args, log)?;
    let ((s, t), reachable) = probe;
    let mut client = BlockingClient::connect(server.addr()).map_err(|e| e.to_string())?;
    let resp = client
        .get(&format!("/reach?s={}&t={}&k={K}", s.0, t.0))
        .map_err(|e| format!("probe query failed: {e}"))?;
    let setup = server.started().elapsed().as_secs_f64();
    if resp.status != 200 || resp.body != answer_lines(&[(s, t)], &[reachable]) {
        return Err(format!(
            "probe answer wrong after launch: {} {:?}",
            resp.status,
            resp.body_text()
        ));
    }
    Ok((server, setup))
}

/// Failure and attempt totals of a run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn add(&mut self, o: &Outcome) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// One measurement cycle: a closed-loop and a paced load, and the host CPU
/// steal while they ran.
struct Cycle {
    /// Closed-loop operations completed, and the seconds they took.
    ops: f64,
    secs: f64,
    closed: Samples,
    paced: Samples,
    steal: f64,
}

/// The end-to-end metrics from a run's cycles, pooled over the cycles
/// [`stats::quiet_cycles`] keeps: all of them on a quiet host, only the
/// least-stolen when host contention hit part of the run. The paced p90
/// and the whole-run p99s go to the run record only: on a 2-vCPU VM they
/// follow the backlog a host stall leaves more than the server. So does
/// the closed-loop p50, for the reason given below. A record-only figure
/// short of samples reads "n/a" and does not fail the run.
fn cycle_metrics(
    setups: &[f64],
    rss: f64,
    cycles: Vec<Cycle>,
    plan: &Plan,
    record: &mut RunRecord,
) -> Result<Metrics, String> {
    let steal: Vec<f64> = cycles.iter().map(|c| c.steal).collect();
    let keep = stats::quiet_cycles(&steal, plan.min_quiet_cycles());
    record.cycles = format!(
        "{} cycles, host steal {:?}, kept {keep:?}",
        cycles.len(),
        steal
            .iter()
            .map(|s| (s * 1000.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
    let (mut ops, mut secs) = (0.0, 0.0);
    let (mut closed, mut paced) = (Samples::new(), Samples::new());
    let (mut all_closed, mut all_paced) = (Samples::new(), Samples::new());
    for (i, c) in cycles.into_iter().enumerate() {
        all_closed.extend(&c.closed);
        all_paced.extend(&c.paced);
        if keep.contains(&i) {
            ops += c.ops;
            secs += c.secs;
            closed.extend(&c.closed);
            paced.extend(&c.paced);
        }
    }
    let mut m = Metrics::default();
    m.push("setup_s", median(setups), "s");
    m.push("closed_ops_per_s", ops / secs, "ops/s");
    m.push("closed_p90_us", closed.tail_us(0.9)?, "us");
    m.push("request_p50_us", paced.p50_us()?, "us");
    m.push("server_rss_mb", rss, "MiB");
    // The closed-loop median on durable-mixed is mostly WAL fsync, which
    // drifted 1.6x between half-hour periods on a shared disk.
    record
        .tails
        .push(format!("closed {} in kept cycles", closed.describe(0.5)));
    record
        .tails
        .push(format!("request {} in kept cycles", paced.describe(0.9)));
    record
        .tails
        .push(format!("closed {}", all_closed.describe(0.99)));
    record
        .tails
        .push(format!("request {}", all_paced.describe(0.99)));
    Ok(m)
}

/// Runs one workload end to end and returns its metrics.
pub fn run(plan: &Plan, record: &mut RunRecord, tally: &mut Tally) -> Result<Metrics, String> {
    let g = inputs::generate_graph();
    let graph_path = plan.out.join("graph.txt");
    kreach_graph::io::write_edge_list_file(&g, &graph_path).map_err(|e| e.to_string())?;
    // The server's view of the graph: what it reads back from the file.
    let g = kreach_graph::io::read_edge_list_file(&graph_path).map_err(|e| e.to_string())?;
    match plan.workload {
        Workload::GetUniform => static_run(plan, &g, &graph_path, record, tally),
        Workload::DurableMixed => durable_run(plan, &g, &graph_path, record, tally),
    }
}

fn static_run(
    plan: &Plan,
    g: &DiGraph,
    graph_path: &Path,
    record: &mut RunRecord,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let pairs = inputs::uniform_queries(g, plan.seed, inputs::QUERIES);
    let truth = inputs::bfs_truth(g, &pairs);
    let src = Gets::new(&pairs, &truth);

    let args = vec![graph_path.display().to_string()];
    record.serve_command = proc::command_line(&plan.kreach, &args);
    let log = plan.out.join("serve.log");
    let probe = (pairs[0], truth[0]);
    let mut setups = Vec::new();
    let mut server = None;
    for rep in 0..STATIC_SETUP_REPS {
        let (s, secs) = timed_launch(&plan.kreach, &args, &log, probe)?;
        tally.attempted += 1;
        setups.push(secs);
        if rep + 1 < STATIC_SETUP_REPS {
            s.shutdown()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one launch");
    let addr = server.addr();

    // Each cycle runs a closed-loop phase, then a paced phase.
    let (warm, closed, paced) = plan.static_phases();
    tally.add(&loadgen::closed_loop(addr, CONNS, warm, 0, &src));
    let mut cycles = Vec::new();
    let mut late = Samples::new();
    let mut next = 0;
    for _ in 0..plan.cycles() {
        let ticks = crate::cpu_ticks();
        let c = loadgen::closed_loop(addr, CONNS, closed, next, &src);
        next += c.attempted as usize;
        let rate = plan.workload.paced_rate();
        let p = loadgen::paced(addr, CONNS, rate, paced, next, &src);
        next += p.attempted as usize;
        tally.add(&c);
        tally.add(&p);
        late.extend(&p.late);
        cycles.push(Cycle {
            ops: c.completed as f64,
            secs: closed.as_secs_f64(),
            closed: c.latency,
            paced: p.latency,
            steal: crate::steal_since(ticks),
        });
    }
    let rss = server.peak_rss_mib()?;
    server.shutdown()?;
    check_lateness(&mut late, record)?;
    cycle_metrics(&setups, rss, cycles, plan, record)
}

/// Refuses a run whose paced generator ran later than the stated bound.
fn check_lateness(late: &mut Samples, record: &mut RunRecord) -> Result<(), String> {
    let late_p99 = late.p99_us()?;
    record.late_p99_us = Some(late_p99);
    if late_p99 > LATE_BOUND_US {
        return Err(format!(
            "paced generator ran late: p99 {late_p99:.1} us exceeds the {LATE_BOUND_US:.0} us bound"
        ));
    }
    Ok(())
}

/// The durable writer: one update per `POST /update`, each acked with the
/// epoch it produced.
struct Writer<'a> {
    updates: &'a [EdgeUpdate],
    bodies: Vec<Vec<u8>>,
    base_epoch: u64,
    /// Highest epoch a read may observe: bumped before each send.
    sent: &'a Counter,
    /// Highest epoch whose ack arrived.
    acked: &'a Counter,
}

impl Source for Writer<'_> {
    fn request(&self, i: usize) -> Option<Request<'_>> {
        self.bodies.get(i).map(|body| Request {
            method: "POST",
            target: "/update",
            body,
        })
    }

    fn on_send(&self, i: usize) -> u64 {
        self.sent.set(self.base_epoch + i as u64 + 1);
        0
    }

    fn on_response(&self, i: usize, _token: u64, body: &[u8]) -> bool {
        let update = self.updates[i];
        let (u, v) = update.endpoints();
        let epoch = self.base_epoch + i as u64 + 1;
        let expected = kreach_datasets::workload_file::render_update_ack(
            update.is_insert(),
            u,
            v,
            true,
            epoch,
        );
        let ok = body.strip_suffix(b"\n") == Some(expected.as_bytes());
        if ok {
            self.acked.set(epoch);
        }
        ok
    }
}

/// One read of the durable workload: its answer and the epoch window it
/// must be true in.
#[derive(Debug, Clone, Copy)]
struct Observation {
    s: VertexId,
    t: VertexId,
    reachable: bool,
    /// Last ack seen before the send.
    lo: u64,
    /// Highest epoch sent when the reply arrived.
    hi: u64,
}

/// The durable reader: uniform `GET /reach` whose answers are checked
/// after the run against the shadow graph.
struct Reader<'a> {
    pairs: &'a [(VertexId, VertexId)],
    targets: Vec<String>,
    sent: &'a Counter,
    acked: &'a Counter,
    seen: Mutex<Vec<Observation>>,
}

impl Source for Reader<'_> {
    fn request(&self, i: usize) -> Option<Request<'_>> {
        Some(Request {
            method: "GET",
            target: &self.targets[i % self.targets.len()],
            body: &[],
        })
    }

    fn on_send(&self, _i: usize) -> u64 {
        self.acked.get()
    }

    fn on_response(&self, i: usize, lo: u64, body: &[u8]) -> bool {
        let hi = self.sent.get();
        let (s, t) = self.pairs[i % self.pairs.len()];
        let line = std::str::from_utf8(body).unwrap_or("");
        let reachable = match kreach_datasets::workload_file::parse_answer_line(line.trim_end(), 1)
        {
            Ok((ps, pt, pk, r)) if ps == s && pt == t && pk == K => r,
            _ => return false,
        };
        self.seen
            .lock()
            .expect("observation log poisoned")
            .push(Observation {
                s,
                t,
                reachable,
                lo,
                hi,
            });
        true
    }
}

/// Counts reads whose answer matches BFS at no epoch of their window.
/// `graph` is the state at `base_epoch`; `stream[i]` produced epoch
/// `base_epoch + i + 1`.
fn wrong_reads(
    graph: &DynamicGraph,
    base_epoch: u64,
    stream: &[EdgeUpdate],
    mut seen: Vec<Observation>,
) -> u64 {
    seen.sort_by_key(|o| o.lo);
    let mut shadow = graph.clone();
    let mut matched = vec![false; seen.len()];
    let mut next = 0;
    let mut active: Vec<usize> = Vec::new();
    let last = seen.iter().map(|o| o.hi).max().unwrap_or(base_epoch);
    for epoch in base_epoch..=last {
        if epoch > base_epoch {
            shadow.apply(stream[(epoch - base_epoch - 1) as usize]);
        }
        while next < seen.len() && seen[next].lo <= epoch {
            active.push(next);
            next += 1;
        }
        let bfs = OnlineBfs::new(&shadow);
        active.retain(|&i| {
            let o = seen[i];
            if bfs.khop_reachable(o.s, o.t, K) == o.reachable {
                matched[i] = true;
            }
            !matched[i] && o.hi > epoch
        });
    }
    matched.iter().filter(|&&m| !m).count() as u64
}

fn durable_run(
    plan: &Plan,
    g: &DiGraph,
    graph_path: &Path,
    record: &mut RunRecord,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let updates = Updates::generate(g, plan.seed, inputs::WAL_DEBT, plan.stream_len());
    let pairs = inputs::uniform_queries(g, plan.seed, inputs::QUERIES);
    let data_dir = plan.out.join("data");
    let data_arg = data_dir.display().to_string();
    let log = plan.out.join("serve.log");

    // Leave a data dir with the seeded WAL debt behind a kill -9. The
    // bootstrap server takes no periodic checkpoints, so the debt stays in
    // the WAL.
    let boot_args = vec![
        graph_path.display().to_string(),
        "--data-dir".to_string(),
        data_arg.clone(),
        "--checkpoint-every".to_string(),
        "0".to_string(),
    ];
    let boot = Server::launch(&plan.kreach, &boot_args, &log)?;
    {
        let mut client = BlockingClient::connect(boot.addr()).map_err(|e| e.to_string())?;
        for (i, &u) in updates.debt.iter().enumerate() {
            let resp = client
                .post("/update", inputs::update_line(u).as_bytes())
                .map_err(|e| format!("debt update failed: {e}"))?;
            let (a, b) = u.endpoints();
            let ack =
                kreach_datasets::workload_file::render_update_ack(true, a, b, true, i as u64 + 1);
            if resp.status != 200 || resp.body_text().trim_end() != ack {
                return Err(format!("debt update {u} not acked: {:?}", resp.body_text()));
            }
        }
    }
    boot.kill();

    let mut after_debt = DynamicGraph::new(g.clone());
    for &u in &updates.debt {
        after_debt.apply(u);
    }
    let debt_pairs: Vec<(VertexId, VertexId)> =
        updates.debt.iter().map(|u| u.endpoints()).collect();
    let base_epoch = updates.debt.len() as u64;

    let args = vec![
        "--data-dir".to_string(),
        data_arg.clone(),
        "--checkpoint-every".to_string(),
        CHECKPOINT_EVERY_S.to_string(),
    ];
    record.serve_command = proc::command_line(&plan.kreach, &args);
    let mut setups = Vec::new();
    let mut server = None;
    for rep in 0..DURABLE_SETUP_REPS {
        // The probe pair is reachable only if the first debt insert was
        // replayed: setup ends at the first answer that needs the restore.
        let (s, secs) = timed_launch(&plan.kreach, &args, &log, (debt_pairs[0], true))?;
        tally.attempted += 1;
        setups.push(secs);
        let lost = lost_debt(s.addr(), &debt_pairs)?;
        tally.attempted += debt_pairs.len() as u64;
        if lost > 0 {
            tally.failed += lost;
            return Err(format!(
                "{lost} acked debt updates missing after restart {rep}"
            ));
        }
        if rep + 1 < DURABLE_SETUP_REPS {
            s.kill();
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one restart");
    let addr = server.addr();

    let sent = Counter::default();
    let acked = Counter::default();
    sent.set(base_epoch);
    acked.set(base_epoch);
    let writer = Writer {
        updates: &updates.stream,
        bodies: updates
            .stream
            .iter()
            .map(|&u| inputs::update_line(u).into_bytes())
            .collect(),
        base_epoch,
        sent: &sent,
        acked: &acked,
    };
    let reader = Reader {
        pairs: &pairs,
        targets: pairs
            .iter()
            .map(|(s, t)| format!("/reach?s={}&t={}&k={K}", s.0, t.0))
            .collect(),
        sent: &sent,
        acked: &acked,
        seen: Mutex::new(Vec::new()),
    };
    // Each cycle runs the closed-loop writer and the paced reader side by
    // side; both pick up where the previous cycle stopped.
    let phase = plan.durable_cycle();
    let mut cycles = Vec::new();
    let mut late = Samples::new();
    let (mut next_write, mut next_read) = (0, 0);
    for _ in 0..plan.cycles() {
        let ticks = crate::cpu_ticks();
        let (w, r) = std::thread::scope(|scope| {
            let w = scope.spawn(|| loadgen::closed_loop(addr, 1, phase, next_write, &writer));
            let rate = plan.workload.paced_rate();
            let r = loadgen::paced(addr, 1, rate, phase, next_read, &reader);
            (w.join().expect("writer panicked"), r)
        });
        next_write += w.attempted as usize;
        next_read += r.attempted as usize;
        tally.add(&w);
        tally.add(&r);
        late.extend(&r.late);
        cycles.push(Cycle {
            ops: w.completed as f64,
            secs: phase.as_secs_f64(),
            closed: w.latency,
            paced: r.latency,
            steal: crate::steal_since(ticks),
        });
    }
    let rss = server.peak_rss_mib()?;
    record.checkpoints = Some(checkpoints_taken(addr)?);
    server.shutdown()?;

    let applied = (acked.get() - base_epoch) as usize;
    let wrong = wrong_reads(
        &after_debt,
        base_epoch,
        &updates.stream,
        reader.seen.into_inner().expect("observation log poisoned"),
    );
    tally.failed += wrong;
    let lost = lost_acked(
        &data_dir,
        &after_debt,
        &updates.debt,
        &updates.stream[..applied],
    )?;
    tally.failed += lost;
    if wrong > 0 || lost > 0 {
        return Err(format!("{wrong} wrong reads, {lost} acked updates lost"));
    }

    check_lateness(&mut late, record)?;
    cycle_metrics(&setups, rss, cycles, plan, record)
}

/// Debt inserts whose pair does not answer reachable after a restart.
fn lost_debt(addr: std::net::SocketAddr, pairs: &[(VertexId, VertexId)]) -> Result<u64, String> {
    let body: String = pairs
        .iter()
        .map(|(s, t)| format!("{} {}\n", s.0, t.0))
        .collect();
    let mut client = BlockingClient::connect(addr).map_err(|e| e.to_string())?;
    let resp = client
        .post("/batch", body.as_bytes())
        .map_err(|e| format!("durability check failed: {e}"))?;
    if resp.status != 200 {
        return Err(format!("durability check got {}", resp.status));
    }
    let expected = answer_lines(pairs, &vec![true; pairs.len()]);
    let got = resp.body_text();
    let want = String::from_utf8(expected).expect("ascii");
    Ok(got
        .lines()
        .zip(want.lines())
        .filter(|(a, b)| a != b)
        .count() as u64
        + (want.lines().count() as u64).saturating_sub(got.lines().count() as u64))
}

/// Acked updates missing from the drained data dir: restores it offline and
/// compares every touched edge, and the edge count, with the shadow graph.
fn lost_acked(
    dir: &Path,
    after_debt: &DynamicGraph,
    debt: &[EdgeUpdate],
    applied: &[EdgeUpdate],
) -> Result<u64, String> {
    let report = kreach_store::read_durable_state(dir, kreach_core::DynamicOptions::default())
        .map_err(|e| format!("offline restore failed: {e}"))?;
    let mut shadow = after_debt.clone();
    for &u in applied {
        shadow.apply(u);
    }
    let restored = report.state.graph();
    let mut lost = debt
        .iter()
        .chain(applied)
        .filter(|u| {
            let (a, b) = u.endpoints();
            restored.has_edge(a, b) != shadow.has_edge(a, b)
        })
        .count() as u64;
    if restored.edge_count() != shadow.edge_count() {
        lost = lost.max(1);
    }
    Ok(lost)
}

/// Checkpoints the live server has completed (`/metrics`).
fn checkpoints_taken(addr: std::net::SocketAddr) -> Result<u64, String> {
    let resp = BlockingClient::connect(addr)
        .and_then(|mut c| c.get("/metrics"))
        .map_err(|e| format!("metrics scrape failed: {e}"))?;
    let scrape =
        kreach_datasets::PromScrape::parse(&resp.body_text()).map_err(|e| e.to_string())?;
    Ok(scrape.value("kreach_checkpoints_total").unwrap_or(0.0) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_checked_against_their_epoch_window() {
        let g = DynamicGraph::new(DiGraph::from_edges(4, [(0, 1)]));
        let stream = [
            EdgeUpdate::Insert(VertexId(1), VertexId(2)),
            EdgeUpdate::Remove(VertexId(1), VertexId(2)),
        ];
        let obs = |reachable, lo, hi| Observation {
            s: VertexId(0),
            t: VertexId(2),
            reachable,
            lo,
            hi,
        };
        // 0 →2 hops→ 2 holds only at epoch 11.
        let ok = vec![obs(false, 10, 10), obs(true, 10, 11), obs(false, 11, 12)];
        assert_eq!(wrong_reads(&g, 10, &stream, ok), 0);
        let bad = vec![obs(true, 10, 10), obs(true, 12, 12), obs(false, 11, 11)];
        assert_eq!(wrong_reads(&g, 10, &stream, bad), 3);
    }
}
