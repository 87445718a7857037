//! Layered serving benchmark for `kreach serve`.
//!
//! ```text
//! kreach-perfbench --workload <get-uniform|durable-mixed>
//!     --seed <n> --seconds <s> --trace <0|1> --kreach <path to kreach>
//! ```
//!
//! With `--trace 0` it launches the real `kreach serve` with default flags,
//! drives it from this process, checks every answer, and prints the
//! end-to-end metrics. With `--trace 1` it replays the same seeded inputs
//! in-process against each crate's public entry points and prints the
//! per-layer metrics, writing the span dump to
//! `.bench_out/<workload>-trace1/spans.jsonl`. The last stdout line is
//! always one JSON object: `correct`, `attempted`, `failed`, `metrics`. Any
//! failure exits 1 without that line.

mod e2e;
mod inputs;
mod loadgen;
mod proc;
mod spans;
mod stats;
mod traced;

use std::path::PathBuf;
use std::time::Duration;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GetUniform,
    DurableMixed,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "get-uniform" => Ok(Workload::GetUniform),
            "durable-mixed" => Ok(Workload::DurableMixed),
            other => Err(format!(
                "unknown workload {other:?} (get-uniform|durable-mixed)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::GetUniform => "get-uniform",
            Workload::DurableMixed => "durable-mixed",
        }
    }

    /// Paced request rate, well below each workload's saturated rate on a
    /// 2-vCPU machine (~35k GET/s closed-loop on two connections, ~1k GET/s
    /// for a reader beside a saturating writer) and below it still when
    /// host contention cuts that capacity 2-3x. A GET rate low enough to
    /// let the server idle between requests measures vCPU wake-up jitter
    /// more than the server.
    fn paced_rate(self) -> f64 {
        match self {
            Workload::GetUniform => 4000.0,
            Workload::DurableMixed => 300.0,
        }
    }
}

/// Everything one run needs, fixed before it starts.
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub kreach: PathBuf,
    pub out: PathBuf,
}

impl Plan {
    /// Measurement cycles per run: one per 2.5 s, at most 10.
    fn cycles(&self) -> usize {
        ((self.seconds / 2.5) as usize).clamp(1, 10)
    }

    /// Fewest cycles the figures are pooled over (30%). Host contention on
    /// a small VM comes in episodes of seconds to minutes and moves every
    /// timing (a paced request waits out the backlog a stall leaves), so
    /// cycles the host stole from are left out; see [`stats::quiet_cycles`].
    fn min_quiet_cycles(&self) -> usize {
        (self.cycles() as f64 * 0.3).ceil() as usize
    }

    /// Warm-up, and the closed-loop and paced phase lengths of each cycle
    /// of a static run.
    fn static_phases(&self) -> (Duration, Duration, Duration) {
        let warm = (self.seconds / 10.0).min(1.0);
        let cycle = (self.seconds - warm) / self.cycles() as f64;
        (
            Duration::from_secs_f64(warm),
            Duration::from_secs_f64(cycle * 0.4),
            Duration::from_secs_f64(cycle * 0.6),
        )
    }

    /// Length of each durable cycle (writer and reader side by side).
    fn durable_cycle(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / self.cycles() as f64)
    }

    /// Writer updates generated: far more than a run can ack.
    fn stream_len(&self) -> usize {
        (self.seconds * 1000.0) as usize + 1000
    }
}

/// Named metric values in output order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// What a reader needs to reproduce a run.
#[derive(Debug, Default)]
pub struct RunRecord {
    pub serve_command: String,
    pub late_p99_us: Option<f64>,
    pub checkpoints: Option<u64>,
    pub spans_path: Option<String>,
    /// Whole-run p99 latencies with their sample counts.
    pub tails: Vec<String>,
    /// Per-cycle host steal and the cycles the figures come from.
    pub cycles: String,
    pub ticks_at_start: Option<(u64, u64)>,
}

fn git_head() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable (not a git checkout)".to_string())
}

/// `(steal, total)` CPU ticks of the machine so far (`/proc/stat`). On a VM
/// the steal share is the host's contention, which moves every timing.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of the machine's CPU time stolen by the host since `start` (a
/// [`cpu_ticks`] reading); 0 when `/proc/stat` is unreadable.
fn steal_since(start: Option<(u64, u64)>) -> f64 {
    match (start, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) => (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
        _ => 0.0,
    }
}

fn print_record(plan: &Plan, trace: bool, record: &RunRecord) {
    let g = inputs::generate_graph();
    let cover = kreach_core::KReachIndex::build(&g, inputs::K, Default::default()).cover_size();
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let opt = |v: &Option<String>| v.clone().unwrap_or_else(|| "none".to_string());
    println!("# run record");
    println!("#   git HEAD        {}", git_head());
    println!("#   nproc           {nproc}");
    println!(
        "#   graph           {} scale 1 seed {}: n={} m={} cover={} k={}",
        inputs::DATASET,
        inputs::GRAPH_SEED,
        kreach_graph::GraphView::vertex_count(&g),
        kreach_graph::GraphView::edge_count(&g),
        cover,
        inputs::K
    );
    println!(
        "#   workload        {} (trace {})",
        plan.workload.name(),
        trace as u8
    );
    println!("#   seed            {}", plan.seed);
    println!("#   seconds         {}", plan.seconds);
    println!(
        "#   loadgen         {} connections, paced {} req/s, late bound {} us",
        e2e::CONNS,
        plan.workload.paced_rate(),
        e2e::LATE_BOUND_US
    );
    if !record.serve_command.is_empty() {
        println!("#   serve command   {}", record.serve_command);
    }
    if plan.workload == Workload::DurableMixed {
        println!(
            "#   flush policy    WAL fsync before every ack; checkpoint every {} s; WAL debt {} updates",
            e2e::CHECKPOINT_EVERY_S,
            inputs::WAL_DEBT
        );
    }
    if let Some(c) = record.checkpoints {
        println!("#   checkpoints     {c} completed during the run");
    }
    for tail in &record.tails {
        println!("#   tail            {tail}");
    }
    if let Some(l) = record.late_p99_us {
        println!("#   loadgen late    p99 {l:.1} us");
    }
    if !record.cycles.is_empty() {
        println!("#   cycles          {} (steal in %)", record.cycles);
    }
    println!(
        "#   host steal      {:.1}% of CPU time during the run",
        steal_since(record.ticks_at_start) * 100.0
    );
    println!("#   spans           {}", opt(&record.spans_path));
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    kreach: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut kreach = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&s) {
                    return Err("--seconds must be within 1..=60".to_string());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--kreach" => kreach = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        kreach,
    })
}

fn run(args: Args) -> Result<(), String> {
    // One scratch directory per workload and mode, cleared by the next run
    // of the same kind, so repeated runs do not pile up span dumps.
    let out = PathBuf::from(".bench_out").join(format!(
        "{}-trace{}",
        args.workload.name(),
        args.trace as u8
    ));
    if out.exists() {
        std::fs::remove_dir_all(&out)
            .map_err(|e| format!("cannot clear {}: {e}", out.display()))?;
    }
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let plan = Plan {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        kreach: args.kreach.clone().unwrap_or_default(),
        out,
    };
    let mut record = RunRecord {
        ticks_at_start: cpu_ticks(),
        ..RunRecord::default()
    };
    let mut tally = e2e::Tally::default();
    let result = if args.trace {
        traced::run(&plan, &mut record, &mut tally)
    } else {
        if args.kreach.is_none() {
            return Err("--kreach <path to the kreach binary> is required with --trace 0".into());
        }
        e2e::run(&plan, &mut record, &mut tally)
    };
    print_record(&plan, args.trace, &record);
    let frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "#   ops             attempted {} failed {} (ops_failed_frac {frac})",
        tally.attempted, tally.failed
    );
    let metrics = result?;
    if tally.attempted == 0 || tally.failed > 0 {
        return Err(format!(
            "{} of {} operations failed",
            tally.failed, tally.attempted
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        metrics.to_json()
    );
    Ok(())
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&raw).and_then(run);
    if let Err(e) = result {
        eprintln!("kreach-perfbench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse_args(&args(
            "--workload get-uniform --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::GetUniform, 3, 10.0, true)
        );
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args(
            "--workload get-uniform --seed 3 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&args(
            "--workload get-uniform --seed 3 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args("--workload get-uniform --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args(
            "--workload get-uniform --seed 3 --seconds 10 --trace 0 --bogus 1"
        ))
        .is_err());
    }

    #[test]
    fn metrics_render_as_one_json_object() {
        let mut m = Metrics::default();
        m.push("setup_s", 0.25, "s");
        m.push("request_p50_us", 61.5, "us");
        assert_eq!(
            m.to_json(),
            "{\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"request_p50_us\": {\"value\": 61.5, \"unit\": \"us\"}}"
        );
    }
}
