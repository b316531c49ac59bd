//! Timing wrappers around the engine's four seams, plus a wall-clock
//! phase probe.
//!
//! Every wrapper delegates every trait method of the wrapped
//! `Protocol`, `Adversary`, `Delivery` or `Oracle` (defaulted ones
//! included), so a wrapped run is the same run; the fidelity gate in
//! `traced.rs` checks that. Call times accumulate into process-wide
//! atomic counters, which is why traced trials run one at a time.

use aba_sim::adversary::{Adversary, AdversaryAction, CorruptionLedger, RoundView};
use aba_sim::delivery::{Delivery, DeliveryStats};
use aba_sim::oracle::{Oracle, RoundCtx};
use aba_sim::{
    Emission, Inbox, Message, MessagePlane, Probe, Protocol, Round, RoundMetrics, RoundPhase,
    RunReport,
};
use rand::RngCore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One accumulated span total, in nanoseconds.
pub struct Counter(AtomicU64);

impl Counter {
    const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    fn add_since(&self, start: Instant) {
        // A statistic that publishes no other data: Relaxed suffices.
        self.0
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn raise_to(&self, value: u64) {
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    fn take(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

/// Protocol emit calls (`core`, coin flips included).
pub static CORE_EMIT: Counter = Counter::new();
/// Protocol receive calls (`core`).
pub static CORE_RECEIVE: Counter = Counter::new();
/// Adversary act calls (`attacks`).
pub static ATTACKS_ACT: Counter = Counter::new();
/// Delivery calls (`net`).
pub static NET_DELIVER: Counter = Counter::new();
/// Largest in-flight count seen after a delivery (`net`; a count).
pub static NET_IN_FLIGHT_MAX: Counter = Counter::new();
/// Oracle action observations (`check`, adversary phase).
pub static CHECK_ACTION: Counter = Counter::new();
/// Oracle round and end observations (`check`, after the receive phase).
pub static CHECK_ROUND: Counter = Counter::new();

/// Call totals of one traced trial, drained from the counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct CallTotals {
    pub core_emit_ns: u64,
    pub core_receive_ns: u64,
    pub attacks_ns: u64,
    pub net_ns: u64,
    pub in_flight_max: u64,
    pub check_action_ns: u64,
    pub check_round_ns: u64,
}

impl CallTotals {
    /// Reads and zeroes every counter.
    pub fn drain() -> Self {
        CallTotals {
            core_emit_ns: CORE_EMIT.take(),
            core_receive_ns: CORE_RECEIVE.take(),
            attacks_ns: ATTACKS_ACT.take(),
            net_ns: NET_DELIVER.take(),
            in_flight_max: NET_IN_FLIGHT_MAX.take(),
            check_action_ns: CHECK_ACTION.take(),
            check_round_ns: CHECK_ROUND.take(),
        }
    }
}

/// A protocol node whose emit and receive calls are timed.
#[repr(transparent)]
pub struct Timed<P>(pub P);

impl<P> Timed<P> {
    /// Wraps a whole network.
    pub fn network(nodes: Vec<P>) -> Vec<Timed<P>> {
        nodes.into_iter().map(Timed).collect()
    }
}

/// The wrapped nodes as the adversary expects to see them.
fn unwrap_nodes<P>(nodes: &[Timed<P>]) -> &[P] {
    // SAFETY: `Timed<P>` is `#[repr(transparent)]` over `P`, so a slice
    // of `Timed<P>` has the layout of a slice of `P` of the same length,
    // and the returned borrow keeps the input's lifetime.
    unsafe { std::slice::from_raw_parts(nodes.as_ptr().cast::<P>(), nodes.len()) }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;

    fn emit(&mut self, round: Round, rng: &mut dyn RngCore) -> Emission<P::Msg> {
        let start = Instant::now();
        let out = self.0.emit(round, rng);
        CORE_EMIT.add_since(start);
        out
    }

    fn receive(&mut self, round: Round, inbox: Inbox<'_, P::Msg>, rng: &mut dyn RngCore) {
        let start = Instant::now();
        self.0.receive(round, inbox, rng);
        CORE_RECEIVE.add_since(start);
    }

    fn output(&self) -> Option<bool> {
        self.0.output()
    }

    fn halted(&self) -> bool {
        self.0.halted()
    }
}

/// An adversary whose act calls are timed.
pub struct TimedAdversary<A>(pub A);

impl<P, L, A> Adversary<Timed<P>, L> for TimedAdversary<A>
where
    P: Protocol,
    L: MessagePlane<P::Msg>,
    A: Adversary<P, L>,
{
    fn act(
        &mut self,
        view: &RoundView<'_, Timed<P>, L>,
        rng: &mut dyn RngCore,
    ) -> AdversaryAction<P::Msg> {
        let start = Instant::now();
        let inner = RoundView {
            round: view.round,
            nodes: unwrap_nodes(view.nodes),
            outgoing: view.outgoing,
            ledger: view.ledger,
            halted: view.halted,
        };
        let action = self.0.act(&inner, rng);
        ATTACKS_ACT.add_since(start);
        action
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// A delivery stage whose deliver calls are timed; records the largest
/// in-flight backlog left after any round.
pub struct TimedDelivery<D>(pub D);

impl<M, L, D> Delivery<M, L> for TimedDelivery<D>
where
    M: Message,
    L: MessagePlane<M>,
    D: Delivery<M, L>,
{
    fn deliver(&mut self, round: Round, wire: L, ledger: &CorruptionLedger) -> (L, DeliveryStats) {
        let start = Instant::now();
        let out = self.0.deliver(round, wire, ledger);
        NET_DELIVER.add_since(start);
        NET_IN_FLIGHT_MAX.raise_to(self.0.in_flight() as u64);
        out
    }

    fn in_flight(&self) -> usize {
        self.0.in_flight()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// An oracle whose observations are timed.
pub struct TimedOracle<O>(pub O);

impl<M, L, O> Oracle<M, L> for TimedOracle<O>
where
    M: Message,
    L: MessagePlane<M>,
    O: Oracle<M, L>,
{
    fn observe_action(&mut self, round: Round, action: &AdversaryAction<M>) {
        let start = Instant::now();
        self.0.observe_action(round, action);
        CHECK_ACTION.add_since(start);
    }

    fn observe_round(&mut self, ctx: &RoundCtx<'_, M, L>) {
        let start = Instant::now();
        self.0.observe_round(ctx);
        CHECK_ROUND.add_since(start);
    }

    fn observe_end(&mut self, report: &RunReport) {
        let start = Instant::now();
        self.0.observe_end(report);
        CHECK_ROUND.add_since(start);
    }
}

/// Wall-clock times of one run, from engine probe hooks: the emit and
/// receive phases (the phases with protocol calls inside) and every
/// whole round. A phase runs from the previous boundary to its own
/// `phase_end`.
#[derive(Debug, Default)]
pub struct PhaseClock {
    mark: Option<Instant>,
    round_start: Option<Instant>,
    pub emit_ns: u64,
    pub receive_ns: u64,
    /// Wall time of every round, in round order.
    pub round_ns: Vec<u64>,
}

impl Probe for PhaseClock {
    fn round_start(&mut self, _round: Round) {
        let now = Instant::now();
        self.mark = Some(now);
        self.round_start = Some(now);
    }

    fn phase_end(&mut self, _round: Round, phase: RoundPhase) {
        let now = Instant::now();
        let ns = self
            .mark
            .map_or(0, |m| now.duration_since(m).as_nanos() as u64);
        self.mark = Some(now);
        match phase {
            RoundPhase::Emit => self.emit_ns += ns,
            RoundPhase::Receive => self.receive_ns += ns,
            RoundPhase::Adversary | RoundPhase::Deliver => {}
        }
    }

    fn round_end(&mut self, _round: Round, _metrics: &RoundMetrics) {
        if let Some(start) = self.round_start.take() {
            self.round_ns.push(start.elapsed().as_nanos() as u64);
        }
    }
}
