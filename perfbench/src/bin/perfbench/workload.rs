//! The named workloads: each is one `aba-sweep` campaign plus the
//! executor options it runs under.

use aba_harness::{AttackSpec, DelayScheduler, NetworkSpec, PlaneSpec, ProtocolSpec};
use aba_sweep::{CampaignSpec, RoundCap, StopRule};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's head-to-head: Las Vegas paper protocol vs Chor–Coan
    /// under the adaptive rushing attacks, oracles armed, dense plane.
    CommitteeAdaptive,
    /// King–Saia at n = 16 384 on the sparse plane, in-round threads.
    SampledScale,
    /// Phase-King under 1-round bounded delay and lossy links, oracles off.
    FaultyNet,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::CommitteeAdaptive,
        Workload::SampledScale,
        Workload::FaultyNet,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CommitteeAdaptive => "committee-adaptive",
            Workload::SampledScale => "sampled-scale",
            Workload::FaultyNet => "faulty-net",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Trials per cell in one campaign pass.
    pub fn trials_per_cell(self) -> usize {
        match self {
            Workload::CommitteeAdaptive => 12,
            Workload::SampledScale => 1,
            Workload::FaultyNet => 8,
        }
    }

    /// The campaign one pass runs, derived from the benchmark seed.
    pub fn campaign(self, seed: u64) -> CampaignSpec {
        let spec = CampaignSpec::new(self.name())
            .seed(seed)
            .stop(StopRule::fixed(self.trials_per_cell()));
        match self {
            Workload::CommitteeAdaptive => spec
                .sizes(&[(128, 42), (256, 85)])
                .protocols(&[
                    ProtocolSpec::PaperLasVegas { alpha: 2.0 },
                    ProtocolSpec::ChorCoan { beta: 1.0 },
                ])
                .attacks(&[AttackSpec::FullAttack, AttackSpec::SplitVote])
                .oracles(true),
            Workload::SampledScale => spec
                .sizes(&[(16_384, 1_448)])
                .protocols(&[ProtocolSpec::KingSaia { iters: 16 }])
                .attacks(&[AttackSpec::Crash { per_round: 1 }])
                .round_cap(RoundCap::Fixed(256))
                .plane(PlaneSpec::Sparse)
                .oracles(true),
            Workload::FaultyNet => spec
                .sizes(&[(256, 85)])
                .protocols(&[ProtocolSpec::PhaseKing])
                .attacks(&[AttackSpec::Crash { per_round: 1 }])
                // Phase-King is synchronous: a 2-round delay bound breaks
                // its agreement in about 15% of seeds, a 1-round bound in
                // none of 1000 (METRICS.md).
                .networks(&[
                    NetworkSpec::BoundedDelay {
                        max_delay: 1,
                        scheduler: DelayScheduler::Random,
                    },
                    NetworkSpec::LossyLinks { p_drop: 0.05 },
                ]),
        }
    }

    /// Executor workers (parallelism across trials).
    pub fn workers(self, nproc: usize) -> usize {
        match self {
            Workload::SampledScale => 1,
            Workload::CommitteeAdaptive | Workload::FaultyNet => nproc,
        }
    }

    /// In-round engine threads (parallelism within a trial).
    pub fn threads(self, nproc: usize) -> usize {
        match self {
            Workload::SampledScale => nproc,
            Workload::CommitteeAdaptive | Workload::FaultyNet => 1,
        }
    }
}
