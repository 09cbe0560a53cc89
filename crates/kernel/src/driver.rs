//! The generic event-dispatch core shared by every runtime (API v2).
//!
//! A [`Driver`] owns one [`Protocol`] instance together with its pending timer queue and
//! is the single place where protocol [`Action`]s are interpreted:
//!
//! * `Send` actions are collected into [`Output::sends`] for the embedding scheduler to
//!   transport (FIFO queue in [`crate::harness::LocalCluster`], latency-modelled event
//!   queue in `tempo-sim`, TCP transports in `tempo-runtime`);
//! * `Deliver` actions are collected into [`Output::executed`] — the push-based
//!   completion stream that replaced v1's `drain_executed` polling;
//! * `Schedule` actions are absorbed into the driver's timer queue; the scheduler asks
//!   [`Driver::next_timer_due`] when to wake the process up and calls
//!   [`Driver::fire_due`] once that moment arrives.
//!
//! The driver also maintains the per-destination `messages_sent` counter uniformly for
//! all protocols (a `Send` to `k` remote peers counts as `k` messages), so message
//! accounting cannot drift between protocol implementations.
//!
//! It is also the single place where the **persistence hook** fires: at the end of every
//! dispatch step — after the protocol's actions were absorbed, before the step's
//! [`Output`] is returned to the scheduler — the driver calls [`Protocol::persist`].
//! Since schedulers only transport messages they received in an `Output`, a protocol
//! that flushes its durable store in `persist` gets the write-ahead guarantee for free:
//! no message leaves the process before the state that produced it is durable.
//!
//! The contract, in one paragraph: the *protocol* decides what to send, when to run
//! periodic work (by scheduling its own timers) and when a command has executed (by
//! emitting `Deliver`); the *driver* turns those decisions into data the scheduler can
//! act on; the *scheduler* owns transport and time — nothing else. See `DESIGN.md`
//! ("Protocol API v2") for the full contract.

use crate::command::Command;
use crate::config::Config;
use crate::id::{ProcessId, ShardId};
use crate::protocol::{Action, Executed, Protocol, ProtocolMetrics, TimerId, View};
use crate::trace::{CmdPhase, Tracer};
use std::collections::BTreeSet;

/// An outbound message produced by one driver step: `msg` must be transported to every
/// process in `to` (all remote; self-addressed messages never reach the driver).
#[derive(Debug, Clone)]
pub struct Outbound<M> {
    /// Destination processes.
    pub to: Vec<ProcessId>,
    /// The message.
    pub msg: M,
}

/// Everything a scheduler must act on after one driver step.
#[derive(Debug)]
pub struct Output<M> {
    /// Messages to transport.
    pub sends: Vec<Outbound<M>>,
    /// Commands that executed at this process during the step, in execution order.
    pub executed: Vec<Executed>,
}

impl<M> Output<M> {
    fn empty() -> Self {
        Self {
            sends: Vec::new(),
            executed: Vec::new(),
        }
    }

    /// Whether the step produced nothing to act on.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.executed.is_empty()
    }
}

/// The event-dispatch core for one protocol instance.
#[derive(Debug)]
pub struct Driver<P: Protocol> {
    protocol: P,
    /// Pending one-shot timers as `(absolute due time in µs, timer)`.
    timers: BTreeSet<(u64, TimerId)>,
    messages_sent: u64,
    /// Lifecycle tracing handle; disabled by default (one branch per dispatch point).
    tracer: Tracer,
}

impl<P: Protocol> Driver<P> {
    /// Creates a driver around a fresh protocol instance.
    pub fn new(process: ProcessId, shard: ShardId, config: Config) -> Self {
        Self::from_protocol(P::new(process, shard, config))
    }

    /// Creates a driver around an existing protocol instance (e.g. one built with
    /// non-default options).
    pub fn from_protocol(protocol: P) -> Self {
        Self {
            protocol,
            timers: BTreeSet::new(),
            messages_sent: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a lifecycle tracer. The driver emits the uniform `Submitted` and
    /// `Executed` phase events itself and forwards the handle to the protocol (via
    /// [`Protocol::attach_tracer`]) for the phases in between.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.protocol.attach_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Provides the deployment view to the protocol and absorbs its initial actions
    /// (typically timer registrations). Must be called once before any other step.
    pub fn start(&mut self, view: View, now_us: u64) -> Output<P::Message> {
        let actions = self.protocol.discover(view);
        let output = self.absorb(actions, now_us);
        self.protocol.persist();
        output
    }

    /// Runs the protocol's rejoin hook for a process rebuilt after a crash (see
    /// [`Protocol::rejoin`]) and absorbs the handshake actions it produces.
    pub fn rejoin(&mut self, incarnation: u64, now_us: u64) -> Output<P::Message> {
        let actions = self.protocol.rejoin(incarnation, now_us);
        let output = self.absorb(actions, now_us);
        self.protocol.persist();
        output
    }

    /// Submits a client command.
    pub fn submit(&mut self, cmd: Command, now_us: u64) -> Output<P::Message> {
        self.tracer
            .phase(now_us, self.protocol.id(), cmd.rifl, CmdPhase::Submitted);
        let actions = self.protocol.submit(cmd, now_us);
        let output = self.absorb(actions, now_us);
        self.protocol.persist();
        output
    }

    /// Delivers a message from `from`.
    pub fn handle(&mut self, from: ProcessId, msg: P::Message, now_us: u64) -> Output<P::Message> {
        let actions = self.protocol.handle(from, msg, now_us);
        let output = self.absorb(actions, now_us);
        self.protocol.persist();
        output
    }

    /// The absolute time (µs) at which the earliest pending timer is due, if any.
    pub fn next_timer_due(&self) -> Option<u64> {
        self.timers.first().map(|(due, _)| *due)
    }

    /// Fires every timer due at or before `now_us`. Timers re-scheduled by the protocol
    /// during the call land strictly after `now_us`, so the loop terminates.
    pub fn fire_due(&mut self, now_us: u64) -> Output<P::Message> {
        let mut output = Output::empty();
        while self.timers.first().is_some_and(|(due, _)| *due <= now_us) {
            let (_, timer) = self.timers.pop_first().expect("checked non-empty");
            let actions = self.protocol.timer(timer, now_us);
            self.absorb_into(actions, now_us, &mut output);
        }
        self.protocol.persist();
        output
    }

    /// Read access to the protocol state machine.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Mutable access to the protocol state machine (tests and harnesses only; actions
    /// produced by direct calls bypass the driver).
    pub fn protocol_mut(&mut self) -> &mut P {
        &mut self.protocol
    }

    /// Protocol counters with the driver-maintained `messages_sent` filled in.
    pub fn metrics(&self) -> ProtocolMetrics {
        let mut metrics = self.protocol.metrics();
        metrics.messages_sent = self.messages_sent;
        metrics
    }

    fn absorb(&mut self, actions: Vec<Action<P::Message>>, now_us: u64) -> Output<P::Message> {
        let mut output = Output::empty();
        self.absorb_into(actions, now_us, &mut output);
        output
    }

    fn absorb_into(
        &mut self,
        actions: Vec<Action<P::Message>>,
        now_us: u64,
        output: &mut Output<P::Message>,
    ) {
        let this = self.protocol.id();
        for action in actions {
            match action {
                Action::Send { mut to, msg } => {
                    // Enforce the self-delivery invariant once, for every scheduler:
                    // protocols handle self-addressed messages internally, so a `Send`
                    // must never loop back through the transport (nor inflate
                    // `messages_sent`).
                    debug_assert!(
                        !to.contains(&this),
                        "protocols deliver self-sends internally"
                    );
                    to.retain(|t| *t != this);
                    if to.is_empty() {
                        continue;
                    }
                    self.messages_sent += to.len() as u64;
                    output.sends.push(Outbound { to, msg });
                }
                Action::Deliver(executed) => {
                    self.tracer
                        .phase(now_us, this, executed.rifl, CmdPhase::Executed);
                    output.executed.push(executed);
                }
                Action::Schedule { timer, after_us } => {
                    // Clamp to at least 1 µs so a zero-delay reschedule cannot spin
                    // `fire_due` forever.
                    self.timers.insert((now_us + after_us.max(1), timer));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CommandResult;
    use crate::id::Rifl;
    use crate::protocol::{Executor, WireSize};

    /// A trivial executor that applies commands immediately.
    #[derive(Debug, Default)]
    struct EchoExecutor {
        executed: u64,
    }

    impl Executor for EchoExecutor {
        type Info = Rifl;

        fn new(_: ProcessId, _: ShardId, _: Config) -> Self {
            Self::default()
        }

        fn handle(&mut self, rifl: Rifl) -> Vec<Executed> {
            self.executed += 1;
            vec![Executed {
                rifl,
                result: CommandResult::new(rifl),
            }]
        }

        fn executed(&self) -> u64 {
            self.executed
        }
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Ping;

    impl WireSize for Ping {}

    /// A protocol that broadcasts one ping per submission, executes on submission, and
    /// keeps a periodic timer alive.
    #[derive(Debug)]
    struct Echo {
        process: ProcessId,
        executor: EchoExecutor,
        timer_firings: u64,
    }

    const ECHO_TIMER: TimerId = TimerId(1);

    impl Protocol for Echo {
        type Message = Ping;
        type Executor = EchoExecutor;
        const NAME: &'static str = "Echo";

        fn new(process: ProcessId, shard: ShardId, config: Config) -> Self {
            Self {
                process,
                executor: EchoExecutor::new(process, shard, config),
                timer_firings: 0,
            }
        }

        fn id(&self) -> ProcessId {
            self.process
        }

        fn shard(&self) -> ShardId {
            0
        }

        fn discover(&mut self, _view: View) -> Vec<Action<Ping>> {
            vec![Action::schedule(ECHO_TIMER, 1_000)]
        }

        fn submit(&mut self, cmd: Command, _now_us: u64) -> Vec<Action<Ping>> {
            let mut out = vec![Action::send(vec![self.process + 1, self.process + 2], Ping)];
            out.extend(
                self.executor
                    .handle(cmd.rifl)
                    .into_iter()
                    .map(Action::Deliver),
            );
            out
        }

        fn handle(&mut self, _from: ProcessId, _msg: Ping, _now_us: u64) -> Vec<Action<Ping>> {
            Vec::new()
        }

        fn timer(&mut self, timer: TimerId, _now_us: u64) -> Vec<Action<Ping>> {
            assert_eq!(timer, ECHO_TIMER);
            self.timer_firings += 1;
            vec![Action::schedule(ECHO_TIMER, 1_000)]
        }

        fn executor(&self) -> &EchoExecutor {
            &self.executor
        }

        fn metrics(&self) -> ProtocolMetrics {
            ProtocolMetrics::default()
        }
    }

    fn cmd(seq: u64) -> Command {
        use crate::command::KVOp;
        Command::single(Rifl::new(1, seq), 0, 0, KVOp::Get, 0)
    }

    #[test]
    fn driver_collects_sends_and_deliveries() {
        let config = Config::full(3, 1);
        let mut driver = Driver::<Echo>::new(0, 0, config);
        let start = driver.start(View::trivial(config, 0), 0);
        assert!(start.is_empty(), "discover only schedules timers");
        let output = driver.submit(cmd(1), 0);
        assert_eq!(output.sends.len(), 1);
        assert_eq!(output.sends[0].to, vec![1, 2]);
        assert_eq!(output.executed.len(), 1);
        assert_eq!(output.executed[0].rifl, Rifl::new(1, 1));
    }

    #[test]
    fn messages_sent_counts_per_destination() {
        let config = Config::full(3, 1);
        let mut driver = Driver::<Echo>::new(0, 0, config);
        let _ = driver.start(View::trivial(config, 0), 0);
        let _ = driver.submit(cmd(1), 0);
        let _ = driver.submit(cmd(2), 0);
        // Two submissions, each sending to two peers: 4 point-to-point messages.
        assert_eq!(driver.metrics().messages_sent, 4);
    }

    #[test]
    fn timers_fire_once_due_and_reschedule() {
        let config = Config::full(3, 1);
        let mut driver = Driver::<Echo>::new(0, 0, config);
        let _ = driver.start(View::trivial(config, 0), 0);
        assert_eq!(driver.next_timer_due(), Some(1_000));
        // Not due yet.
        let _ = driver.fire_due(999);
        assert_eq!(driver.protocol().timer_firings, 0);
        // Due: fires once and re-schedules relative to `now`.
        let _ = driver.fire_due(5_000);
        assert_eq!(driver.protocol().timer_firings, 1);
        assert_eq!(driver.next_timer_due(), Some(6_000));
    }
}
