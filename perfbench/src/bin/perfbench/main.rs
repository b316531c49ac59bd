//! End-to-end agreement benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload committee-adaptive --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the `aba-sweep`
//! executor; `--trace 1` runs the traced per-layer breakdown. Every
//! metric is printed by name with its unit; the last stdout line is the
//! JSON result. METRICS.md defines each metric.

// A benchmark reads the wall clock by design; the workspace ban on
// `Instant::now` guards the deterministic engine, not this package.
#![allow(clippy::disallowed_methods)]

mod campaign;
mod layers;
mod stats;
mod traced;
mod workload;

use aba_sweep::{CampaignSpec, CellSpec};
use campaign::{run_pass, Outcome, Pass};
use stats::{median, result_line, tail, Metric};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use traced::{trace_scenario, TracedTrial};
use workload::Workload;

/// Fresh processes timed from spawn to ready; `setup_s` is their median.
const SETUP_PROBES: usize = 5;

const USAGE: &str = "usage: perfbench --workload <committee-adaptive|sampled-scale|faulty-net> \
                     --seed <u64> --seconds <u64> --trace <0|1>";

#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: set up, print `ready`, exit (one `setup_s` sample).
    setup_probe: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut setup_probe = false;
        while let Some(flag) = it.next() {
            if flag == "--setup-probe" {
                setup_probe = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("bad {flag}: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
                }
                "--seed" => seed = Some(number()?),
                "--seconds" if number()? > 0 => seconds = Some(number()?),
                "--trace" if value == "0" || value == "1" => trace = Some(value == "1"),
                _ => return Err(format!("bad argument {flag} {value}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            setup_probe,
        })
    }

    fn to_argv(&self) -> Vec<String> {
        vec![
            "--workload".into(),
            self.workload.name().into(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--trace".into(),
            if self.trace { "1" } else { "0" }.into(),
        ]
    }
}

/// Everything a run needs before its first timed trial.
struct Setup {
    spec: CampaignSpec,
    cells: Vec<CellSpec>,
    nproc: usize,
    workers: usize,
    threads: usize,
    /// Per-process scratch directory for executor timing artifacts.
    dir: PathBuf,
}

impl Setup {
    fn new(args: &Args) -> Result<Setup, String> {
        let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
        let spec = args.workload.campaign(args.seed);
        let cells = spec.cells();
        let dir = scratch_root().join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let setup = Setup {
            workers: args.workload.workers(nproc),
            threads: args.workload.threads(nproc),
            spec,
            cells,
            nproc,
            dir,
        };
        setup.warm_up()?;
        Ok(setup)
    }

    /// Runs the first trial of every cell once, untimed.
    fn warm_up(&self) -> Result<(), String> {
        let mut warm = self.spec.clone();
        warm.stop = aba_sweep::StopRule::fixed(1);
        self.pass(&warm).map(drop)
    }

    /// One executor pass over `spec` with this workload's parallelism.
    fn pass(&self, spec: &CampaignSpec) -> Result<Pass, String> {
        run_pass(spec, self.workers, self.threads, &self.dir)
    }

    /// Trial `ti` of cell `ci`, exactly as the executor schedules it.
    fn scenario(&self, ci: usize, ti: usize) -> aba_harness::Scenario {
        let mut s = self.cells[ci].scenario.clone();
        s.seed = s.seed.wrapping_add(ti as u64);
        s.threads = self.threads;
        s
    }
}

impl Drop for Setup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Where the benchmark keeps its files: inside the build directory.
fn scratch_root() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("perfbench")
}

/// Times `SETUP_PROBES` fresh processes from spawn to `ready`.
fn probe_setups(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut samples = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let start = Instant::now();
        let mut child = Command::new(&exe)
            .args(args.to_argv())
            .arg("--setup-probe")
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn setup probe: {e}"))?;
        let mut line = String::new();
        // Read, then always reap the child before reporting a read error.
        let read = match child.stdout.take() {
            Some(stdout) => BufReader::new(stdout).read_line(&mut line).map(drop),
            None => Ok(()),
        };
        let ready = start.elapsed();
        let status = child.wait().map_err(|e| format!("wait setup probe: {e}"))?;
        read.map_err(|e| format!("read setup probe: {e}"))?;
        if !status.success() || line.trim() != "ready" {
            return Err(format!("setup probe failed: {status}"));
        }
        samples.push(ready.as_secs_f64());
    }
    Ok(samples)
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("VmHWM: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

/// What a run prints.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// Gate and context lines, printed before the metrics.
    notes: Vec<String>,
}

/// The seed-determined metrics of a trace-0 run, kept per workload,
/// seed and binary so repeated runs can be compared.
fn determinism_gate(args: &Args, record: &str) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let meta = std::fs::metadata(&exe).map_err(|e| format!("stat {}: {e}", exe.display()))?;
    let stamp = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let dir = scratch_root().join("determinism");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}-{}-{stamp}.txt",
        args.workload.name(),
        args.seed,
        meta.len()
    ));
    match std::fs::read_to_string(&path) {
        Ok(previous) => Ok(previous == record),
        Err(_) => {
            std::fs::write(&path, record).map_err(|e| format!("write {}: {e}", path.display()))?;
            Ok(true)
        }
    }
}

/// Trace 0: executor passes over the campaign until the time is up.
fn end_to_end(args: &Args, setup: &Setup, setup_samples: &[f64]) -> Result<Report, String> {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.is_empty() || start.elapsed() < budget {
        passes.push(setup.pass(&setup.spec)?);
    }
    let first = Outcome::of(&passes[0].result);
    let repeatable = passes.iter().all(|p| p.result == passes[0].result);
    // Passes are identical work, so the median pass wall is robust to
    // bursts of contention from outside the process.
    let pass_s: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let pass_wall = median(&pass_s);
    let pass_ms: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| p.trial_us.iter().map(|us| *us as f64 / 1e3).collect())
        .collect();
    let trial_ms: Vec<f64> = pass_ms.concat();
    // Each pass is the same trials, so its median latency is a repeated
    // measurement of one quantity; their median resists bursts.
    let pass_p50: Vec<f64> = pass_ms.iter().map(|ms| median(ms)).collect();
    let attempted = first.trials * passes.len();
    let failed = first.failed * passes.len();
    let spans_complete = trial_ms.len() == attempted;
    let rounds_mean = first.sum_rounds as f64 / first.trials as f64;
    let msgs_per_node = first.msgs_per_node_sum / first.trials as f64;
    let failed_frac = failed as f64 / attempted as f64;
    let record = format!(
        "rounds_mean={rounds_mean:?} msgs_per_node={msgs_per_node:?} failed_frac={failed_frac:?}\n"
    );
    let deterministic = determinism_gate(args, &record)?;
    let (tail_p, tail_ms) = tail(&trial_ms);
    let metrics = vec![
        Metric::new("setup_s", median(setup_samples), "s")
            .with_note(format!("median of {} fresh processes", setup_samples.len())),
        Metric::new("trials_per_s", first.trials as f64 / pass_wall, "1/s").with_note(format!(
            "median of {} passes of {} trials",
            passes.len(),
            first.trials
        )),
        Metric::new(
            "node_rounds_per_s",
            first.node_rounds as f64 / pass_wall,
            "1/s",
        ),
        Metric::new("trial_ms_p50", median(&pass_p50), "ms").with_note(format!(
            "median over passes; pooled median {:.3}",
            median(&trial_ms)
        )),
        Metric::new("trial_ms_tail", tail_ms, "ms")
            .with_note(format!("p{tail_p} of {} trials", trial_ms.len())),
        Metric::new("peak_rss_mb", peak_rss_mb()?, "MiB"),
        Metric::new("rounds_mean", rounds_mean, "rounds"),
        Metric::new("msgs_per_node", msgs_per_node, "msgs"),
    ];
    let failing: Vec<String> = passes[0]
        .result
        .cells
        .iter()
        .filter(|c| c.corrects < c.trials || c.oracle_violations > 0)
        .map(|c| {
            format!(
                "{} ({} of {} correct, {} terminated, {} agreed, {} violations)",
                c.key, c.corrects, c.trials, c.terminations, c.agreements, c.oracle_violations
            )
        })
        .collect();
    let pass_list: Vec<String> = pass_s.iter().map(|s| format!("{s:.3}")).collect();
    let mut notes = vec![
        format!("pass wall s: {}", pass_list.join(" ")),
        format!("failed_frac = {failed_frac} ({failed} of {attempted} trials)"),
        format!("gate repeat: every pass reproduced the first pass: {repeatable}"),
        format!("gate determinism: matches earlier runs at this seed: {deterministic}"),
        format!("gate spans: one executor span per trial: {spans_complete}"),
    ];
    if !failing.is_empty() {
        notes.push(format!("failing cells: {}", failing.join("; ")));
    }
    Ok(Report {
        correct: repeatable && deterministic && spans_complete && failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Per-trial sums over the traced trials.
#[derive(Default)]
struct LayerSums {
    trials: usize,
    build_ns: u64,
    core_emit_ns: u64,
    core_receive_ns: u64,
    emit_self_ns: f64,
    receive_self_ns: f64,
    net_ns: u64,
    attacks_ns: u64,
    check_ns: u64,
    messages: usize,
    delivered: usize,
    dropped: usize,
    delayed: usize,
    in_flight_max: u64,
    corruptions: usize,
    violations: usize,
    round_us: Vec<f64>,
}

impl LayerSums {
    fn add(&mut self, t: &TracedTrial, n: usize, threads: usize) {
        // In-round workers run a phase's calls in parallel: their summed
        // time is spread over the workers before it is taken off the
        // phase's wall time.
        let share = threads.clamp(1, n) as f64;
        let c = &t.calls;
        self.trials += 1;
        self.build_ns += t.build_ns;
        self.core_emit_ns += c.core_emit_ns;
        self.core_receive_ns += c.core_receive_ns;
        self.emit_self_ns += t.clock.emit_ns as f64 - c.core_emit_ns as f64 / share;
        self.receive_self_ns += t.clock.receive_ns as f64 - c.core_receive_ns as f64 / share;
        self.net_ns += c.net_ns;
        self.attacks_ns += c.attacks_ns;
        self.check_ns += c.check_action_ns + c.check_round_ns;
        self.messages += t.result.messages;
        self.delivered += t.result.delivered;
        self.dropped += t.result.dropped;
        self.delayed += t.result.delayed;
        self.in_flight_max = self.in_flight_max.max(c.in_flight_max);
        self.corruptions += t.result.corruptions;
        self.violations += t.oracle_total;
        self.round_us
            .extend(t.clock.round_ns.iter().map(|ns| *ns as f64 / 1e3));
    }

    /// Mean nanoseconds per trial, in milliseconds.
    fn ms(&self, ns: f64) -> f64 {
        ns / self.trials as f64 / 1e6
    }

    fn per_trial(&self, count: usize) -> f64 {
        count as f64 / self.trials as f64
    }
}

/// Trace 1: executor passes for the sweep layer, then untraced and
/// traced runs of the same trials for the other layers.
fn layered(args: &Args, setup: &Setup) -> Result<Report, String> {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();

    // The sweep layer, from the executor's own timing artifacts.
    let mut passes: Vec<Pass> = Vec::new();
    while passes.is_empty() || start.elapsed() < budget / 3 {
        passes.push(setup.pass(&setup.spec)?);
    }
    let busy_us: u64 = passes.iter().flat_map(|p| &p.trial_us).sum();
    let wall_us: f64 = passes.iter().map(|p| p.wall.as_secs_f64() * 1e6).sum();
    let busy_frac = busy_us as f64 / (setup.workers as f64 * wall_us);
    let depths: Vec<f64> = passes.iter().map(|p| p.queue_depth_mean).collect();
    let queue_depth = depths.iter().sum::<f64>() / depths.len() as f64;

    // The other layers: trial by trial, the untraced reference through
    // the public entry point, then the traced rebuild of the same trial.
    let oracles = setup.spec.oracles;
    let mut sums = LayerSums::default();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let (mut mismatches, mut failed) = (0, 0);
    let mut ti = 0;
    'trials: loop {
        for ci in 0..setup.cells.len() {
            let s = setup.scenario(ci, ti);
            let t0 = Instant::now();
            let (reference, ref_total) = if oracles {
                let c = aba_harness::check_scenario(&s);
                (c.result, c.oracle.total)
            } else {
                (aba_harness::run_scenario(&s), 0)
            };
            untraced_s += t0.elapsed().as_secs_f64();
            let t = trace_scenario(&s, oracles)?;
            traced_s += t.total_ns as f64 / 1e9;
            if t.result != reference || t.oracle_total != ref_total {
                mismatches += 1;
                eprintln!(
                    "fidelity: traced trial differs from the harness at {} seed {}",
                    setup.cells[ci].key, s.seed
                );
            }
            if !t.result.correct() || t.oracle_total > 0 {
                failed += 1;
            }
            sums.add(&t, s.n, s.threads);
            if start.elapsed() >= budget {
                break 'trials;
            }
        }
        ti += 1;
    }

    let untraced_tps = sums.trials as f64 / untraced_s;
    let traced_tps = sums.trials as f64 / traced_s;
    let (round_tail_p, round_tail_us) = tail(&sums.round_us);
    let metrics = vec![
        Metric::new("sim.build_ms", sums.ms(sums.build_ns as f64), "ms"),
        Metric::new("sim.round_us_p50", median(&sums.round_us), "us"),
        Metric::new("sim.round_us_tail", round_tail_us, "us")
            .with_note(format!("p{round_tail_p} of {} rounds", sums.round_us.len())),
        Metric::new("sim.emit_self_ms", sums.ms(sums.emit_self_ns), "ms"),
        Metric::new("sim.receive_self_ms", sums.ms(sums.receive_self_ns), "ms"),
        Metric::new("core.emit_ms", sums.ms(sums.core_emit_ns as f64), "ms"),
        Metric::new(
            "core.receive_ms",
            sums.ms(sums.core_receive_ns as f64),
            "ms",
        ),
        Metric::new("net.deliver_ms", sums.ms(sums.net_ns as f64), "ms"),
        Metric::new(
            "net.delivery_ratio",
            sums.delivered as f64 / sums.messages.max(1) as f64,
            "ratio",
        ),
        Metric::new("net.dropped", sums.per_trial(sums.dropped), "count"),
        Metric::new("net.delayed", sums.per_trial(sums.delayed), "count"),
        Metric::new("net.in_flight_max", sums.in_flight_max as f64, "count"),
        Metric::new("attacks.act_ms", sums.ms(sums.attacks_ns as f64), "ms"),
        Metric::new(
            "attacks.corruptions",
            sums.per_trial(sums.corruptions),
            "count",
        ),
        Metric::new("check.observe_ms", sums.ms(sums.check_ns as f64), "ms"),
        Metric::new("check.violations", sums.violations as f64, "count"),
        Metric::new("sweep.worker_busy_frac", busy_frac, "ratio").with_note(format!(
            "{} workers, {} passes",
            setup.workers,
            passes.len()
        )),
        Metric::new("sweep.queue_depth_mean", queue_depth, "count"),
        Metric::new("trace.untraced_trials_per_s", untraced_tps, "1/s"),
        Metric::new("trace.traced_trials_per_s", traced_tps, "1/s"),
        Metric::new(
            "trace.overhead_frac",
            untraced_tps / traced_tps - 1.0,
            "ratio",
        ),
    ];
    let notes = vec![
        format!("traced trials: {} (run one at a time)", sums.trials),
        format!("gate fidelity: traced trials differing from the harness: {mismatches}"),
    ];
    Ok(Report {
        correct: mismatches == 0 && failed == 0,
        attempted: sums.trials,
        failed,
        metrics,
        notes,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let setup_samples = if args.trace {
        Vec::new()
    } else {
        probe_setups(args)?
    };
    let setup = Setup::new(args)?;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} workers={} threads={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        setup.nproc,
        setup.workers,
        setup.threads
    );
    if args.trace {
        layered(args, &setup)
    } else {
        end_to_end(args, &setup, &setup_samples)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        return match Setup::new(&args) {
            Ok(_setup) => {
                println!("ready");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(report) => {
            for note in &report.notes {
                println!("{note}");
            }
            for m in &report.metrics {
                println!("{:<28} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
            }
            println!(
                "{}",
                result_line(
                    report.correct,
                    report.attempted,
                    report.failed,
                    &report.metrics
                )
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
