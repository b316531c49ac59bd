//! Untraced campaign passes through the `aba-sweep` executor.
//!
//! Every pass runs the workload's whole campaign with the executor's
//! own timing channel (`RunOptions::profile_dir`) on; its trial spans
//! give the per-trial latencies and the worker busy fraction, its
//! scheduler line the queue depth.

use aba_sweep::{CampaignResult, CampaignSpec, RunOptions};
use std::path::Path;
use std::time::{Duration, Instant};

/// One executor pass over the whole campaign.
#[derive(Debug)]
pub struct Pass {
    /// Wall time of the executor call.
    pub wall: Duration,
    /// The campaign result.
    pub result: CampaignResult,
    /// Duration of every trial span, in microseconds.
    pub trial_us: Vec<u64>,
    /// Mean shared-queue depth seen at each claim.
    pub queue_depth_mean: f64,
}

/// Runs one pass with `workers` executor workers and `threads` in-round
/// threads, writing the executor's timing artifacts into `dir`.
pub fn run_pass(
    spec: &CampaignSpec,
    workers: usize,
    threads: usize,
    dir: &Path,
) -> Result<Pass, String> {
    let opts = RunOptions {
        workers,
        threads,
        profile_dir: Some(dir.to_path_buf()),
        ..RunOptions::default()
    };
    let start = Instant::now();
    let result = spec.run_with(&opts);
    let wall = start.elapsed();
    let profile = read(dir, &spec.name, "profile.json")?;
    let timing = read(dir, &spec.name, "timing.csv")?;
    Ok(Pass {
        wall,
        result,
        trial_us: span_durations(&profile)?,
        queue_depth_mean: queue_depth_mean(&timing)?,
    })
}

fn read(dir: &Path, name: &str, suffix: &str) -> Result<String, String> {
    let path = dir.join(format!("{name}.{suffix}"));
    std::fs::read_to_string(&path)
        .map_err(|e| format!("executor timing artifact {}: {e}", path.display()))
}

/// The `"dur":N` field of every span in a Chrome trace.
fn span_durations(profile: &str) -> Result<Vec<u64>, String> {
    profile
        .split("\"dur\":")
        .skip(1)
        .map(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits
                .parse()
                .map_err(|_| format!("span duration is not an integer: {digits:?}"))
        })
        .collect()
}

/// `queue_depth_mean=X` from the scheduler counter line of timing.csv.
fn queue_depth_mean(timing: &str) -> Result<f64, String> {
    timing
        .split_whitespace()
        .find_map(|field| field.strip_prefix("queue_depth_mean="))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "timing.csv lacks queue_depth_mean".to_string())
}

/// The deterministic per-trial aggregates of one campaign result.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub trials: usize,
    /// Trials that were incorrect or had an armed oracle fire. Summaries
    /// keep only totals, so a trial that does both counts twice (capped
    /// at the cell's trial count).
    pub failed: usize,
    pub sum_rounds: u64,
    /// Σ n × rounds.
    pub node_rounds: u64,
    /// Σ messages / n.
    pub msgs_per_node_sum: f64,
}

impl Outcome {
    pub fn of(result: &CampaignResult) -> Outcome {
        let mut out = Outcome {
            trials: 0,
            failed: 0,
            sum_rounds: 0,
            node_rounds: 0,
            msgs_per_node_sum: 0.0,
        };
        for cell in &result.cells {
            out.trials += cell.trials;
            out.failed += (cell.trials - cell.corrects + cell.oracle_violations).min(cell.trials);
            out.sum_rounds += cell.sum_rounds;
            out.node_rounds += cell.n as u64 * cell.sum_rounds;
            out.msgs_per_node_sum += cell.sum_messages as f64 / cell.n as f64;
        }
        out
    }
}
