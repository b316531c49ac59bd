//! The traced run: builds the same `Simulation` the harness dispatch
//! builds for a scenario, from public crate APIs, with every seam
//! wrapped by a timer from `layers.rs`.
//!
//! Only the protocol × attack combinations the workloads use are
//! dispatched; each mirrors the harness table entry for entry (same
//! node constructor, adversary, network model seeded on the scenario
//! seed, and armed oracle suite). The fidelity gate compares every
//! traced trial against `check_scenario` / `run_scenario`.

use crate::layers::{CallTotals, PhaseClock, Timed, TimedAdversary, TimedDelivery, TimedOracle};
use aba_adversary::AdaptiveCrash;
use aba_agreement::{BaConfig, CommitteeBa, KingSaiaNode, PhaseKingBa};
use aba_attacks::{AdaptiveFullAttack, BudgetPolicy, SplitVote};
use aba_check::LemmaSuite;
use aba_harness::check::congest_budget_bits;
use aba_harness::TrialResult;
use aba_harness::{AttackSpec, InputSpec, NetworkSpec, PlaneSpec, ProtocolSpec, Scenario};
use aba_net::{BoundedDelay, LossyLinks, NetDelivery, Partition, Synchronous};
use aba_sim::adversary::Adversary;
use aba_sim::delivery::Delivery;
use aba_sim::oracle::NoOracle;
use aba_sim::{
    MessagePlane, Protocol, RoundMailbox, RunReport, SimConfig, Simulation, SparseMailbox, Verdict,
};
use std::time::Instant;

/// One traced trial: its result, and where its time went.
#[derive(Debug)]
pub struct TracedTrial {
    /// The trial result, rebuilt the way the harness builds it.
    pub result: TrialResult,
    /// Armed-oracle firings (0 when the campaign runs without oracles).
    pub oracle_total: usize,
    /// Wall time from the scenario to a ready `Simulation`.
    pub build_ns: u64,
    /// Wall time of the whole trial, build included.
    pub total_ns: u64,
    /// Phase wall times and per-round times.
    pub clock: PhaseClock,
    /// Wrapped-call time per layer.
    pub calls: CallTotals,
}

/// The lemma oracles the harness arms for these scenarios: CONGEST and
/// budget monotonicity everywhere, agreement (and validity on uniform
/// inputs) for the full-agreement protocols. Early-termination arming is
/// not mirrored: the dispatch accepts no capped attack.
fn lemma_suite(s: &Scenario) -> LemmaSuite {
    let mut suite = LemmaSuite::new()
        .budget_monotonicity()
        .congest(congest_budget_bits(s.n));
    if !matches!(s.protocol, ProtocolSpec::KingSaia { .. }) {
        suite = suite.agreement();
        if let InputSpec::AllSame(b) = s.inputs {
            suite = suite.validity(b);
        }
    }
    suite
}

/// Majority fraction among the honest outputs (1.0 when none exist).
fn majority_fraction(report: &RunReport) -> f64 {
    let outs = report.honest_outputs();
    if outs.is_empty() {
        return 1.0;
    }
    let ones = outs.iter().filter(|b| **b).count();
    ones.max(outs.len() - ones) as f64 / outs.len() as f64
}

fn trial_result(
    s: &Scenario,
    report: &RunReport,
    inputs: &[bool],
    adversary: &'static str,
) -> TrialResult {
    let verdict = Verdict::evaluate(inputs, &report.outputs, &report.honest);
    TrialResult {
        seed: s.seed,
        rounds: report.rounds,
        terminated: report.all_halted,
        agreement: verdict.agreement,
        validity: verdict.validity,
        decision: verdict.decision,
        corruptions: report.corruptions_used,
        messages: report.metrics.total_messages,
        bits: report.metrics.total_bits,
        max_edge_bits: report.metrics.max_edge_bits,
        agree_fraction: majority_fraction(report),
        delivered: report.metrics.total_delivered,
        dropped: report.metrics.total_dropped,
        delayed: report.metrics.total_delayed,
        adversary,
        downgraded: false,
        network: s.network.name(),
    }
}

/// Runs one scenario traced. `oracles` arms the lemma suite, as the
/// campaign's oracle flag does for the executor. Fails on a protocol ×
/// attack × plane combination no workload uses.
pub fn trace_scenario(s: &Scenario, oracles: bool) -> Result<TracedTrial, String> {
    CallTotals::drain();
    let start = Instant::now();
    let inputs = s.inputs.materialize(s.n, s.seed);
    let run = Run { s, oracles, start };
    let dense = s.plane == PlaneSpec::Dense;
    let (report, oracle_total, build_ns, clock, adversary) = match (s.protocol, s.attack) {
        (ProtocolSpec::PaperLasVegas { alpha }, attack) if dense => {
            let cfg = BaConfig::paper_las_vegas(s.n, s.t, alpha).map_err(|e| e.to_string())?;
            run.committee(CommitteeBa::network(&cfg, &inputs), attack)?
        }
        (ProtocolSpec::ChorCoan { beta }, attack) if dense => {
            let cfg = BaConfig::chor_coan(s.n, s.t, beta).map_err(|e| e.to_string())?;
            run.committee(CommitteeBa::network(&cfg, &inputs), attack)?
        }
        (ProtocolSpec::PhaseKing, AttackSpec::Crash { per_round }) if dense => run
            .network::<_, _, RoundMailbox<_>>(
                PhaseKingBa::network(s.n, s.t, &inputs),
                AdaptiveCrash::steady(per_round),
            ),
        (ProtocolSpec::KingSaia { iters }, AttackSpec::Crash { per_round })
            if s.plane == PlaneSpec::Sparse =>
        {
            let iters = if iters == 0 {
                KingSaiaNode::recommended_iterations(s.n)
            } else {
                iters
            };
            run.network::<_, _, SparseMailbox<_>>(
                KingSaiaNode::network(s.n, iters, &inputs, s.seed),
                AdaptiveCrash::steady(per_round),
            )
        }
        other => {
            return Err(format!(
                "no traced dispatch for {other:?} on the {} plane",
                s.plane.name()
            ))
        }
    };
    let total_ns = start.elapsed().as_nanos() as u64;
    Ok(TracedTrial {
        result: trial_result(s, &report, &inputs, adversary),
        oracle_total,
        build_ns,
        total_ns,
        clock,
        calls: CallTotals::drain(),
    })
}

/// What one dispatched run hands back: report, oracle firings, build
/// time, phase clock, adversary name.
type RunOut = (RunReport, usize, u64, PhaseClock, &'static str);

/// The per-trial context shared by the dispatch steps.
struct Run<'a> {
    s: &'a Scenario,
    oracles: bool,
    start: Instant,
}

impl Run<'_> {
    fn committee(&self, nodes: Vec<CommitteeBa>, attack: AttackSpec) -> Result<RunOut, String> {
        Ok(match attack {
            AttackSpec::FullAttack => self.network::<_, _, RoundMailbox<_>>(
                nodes,
                AdaptiveFullAttack::new(BudgetPolicy::Greedy),
            ),
            AttackSpec::SplitVote => self.network::<_, _, RoundMailbox<_>>(nodes, SplitVote::new()),
            other => return Err(format!("no traced dispatch for committee attack {other:?}")),
        })
    }

    /// The harness's network dispatch: the model is seeded from the
    /// scenario seed on its own stream.
    fn network<P, A, L>(&self, nodes: Vec<P>, adversary: A) -> RunOut
    where
        P: Protocol + Send,
        P::Msg: Send + Sync,
        A: Adversary<P, L>,
        L: MessagePlane<P::Msg> + Sync,
    {
        let s = self.s;
        match s.network {
            NetworkSpec::Synchronous => {
                self.instrumented(nodes, adversary, NetDelivery::new(Synchronous, s.seed))
            }
            NetworkSpec::LossyLinks { p_drop } => self.instrumented(
                nodes,
                adversary,
                NetDelivery::new(LossyLinks::new(p_drop), s.seed),
            ),
            NetworkSpec::BoundedDelay {
                max_delay,
                scheduler,
            } => self.instrumented(
                nodes,
                adversary,
                NetDelivery::new(BoundedDelay::new(max_delay, scheduler), s.seed),
            ),
            NetworkSpec::Partition { groups, heal_round } => self.instrumented(
                nodes,
                adversary,
                NetDelivery::new(Partition::striped(s.n, groups, heal_round), s.seed),
            ),
        }
    }

    fn instrumented<P, A, D, L>(&self, nodes: Vec<P>, adversary: A, delivery: D) -> RunOut
    where
        P: Protocol + Send,
        P::Msg: Send + Sync,
        A: Adversary<P, L>,
        D: Delivery<P::Msg, L>,
        L: MessagePlane<P::Msg> + Sync,
    {
        let s = self.s;
        let cfg = SimConfig::new(s.n, s.t)
            .with_seed(s.seed)
            .with_info_model(s.info)
            .with_max_rounds(s.max_rounds)
            .with_threads(s.threads);
        let name = adversary.name();
        let nodes = Timed::network(nodes);
        let adversary = TimedAdversary(adversary);
        let delivery = TimedDelivery(delivery);
        let clock = PhaseClock::default();
        if self.oracles {
            let sim = Simulation::<_, _, _, _, _, L>::with_instruments(
                cfg,
                nodes,
                adversary,
                delivery,
                TimedOracle(lemma_suite(s)),
                clock,
            );
            let build_ns = self.start.elapsed().as_nanos() as u64;
            let (report, oracle, clock) = sim.run_instrumented();
            (report, oracle.0.report().total, build_ns, clock, name)
        } else {
            let sim = Simulation::<_, _, _, _, _, L>::with_instruments(
                cfg, nodes, adversary, delivery, NoOracle, clock,
            );
            let build_ns = self.start.elapsed().as_nanos() as u64;
            let (report, NoOracle, clock) = sim.run_instrumented();
            (report, 0, build_ns, clock, name)
        }
    }
}
