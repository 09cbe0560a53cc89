//! Outside-in wrappers around the public interfaces of each layer.
//!
//! None of these change what the wrapped value does; they time its calls as
//! [`spans`](crate::spans) and count a few outcomes:
//!
//! * [`Probe`] is a [`Protocol`] around [`Tempo`]: it times `submit`, `handle` (by
//!   message kind), `timer` and `persist`, and counts the commands it delivers;
//! * [`Framed`] is the probe's message type, a [`Wire`] newtype around
//!   [`tempo_core::Message`] that times encoding and decoding;
//! * [`ProbeStore`] is a [`Store`] around any store, passed through
//!   [`Tempo::with_store`];
//! * [`ProbeMix`] is a [`Mix`] that times command generation and counts commands.

use crate::spans::{span, Layer, MsgKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tempo_core::{Message, Tempo, TempoExecutor};
use tempo_kernel::command::Command;
use tempo_kernel::config::Config;
use tempo_kernel::id::{ProcessId, Rifl, ShardId};
use tempo_kernel::protocol::{Action, Protocol, ProtocolMetrics, TimerId, View, WireSize};
use tempo_kernel::trace::Tracer;
use tempo_load::Mix;
use tempo_net::wire::{DecodeError, Reader, Wire, Writer};
use tempo_store::{Snapshot, Store, StoreMetrics, WalRecord};

/// A Tempo message on the wire, with its codec calls timed.
#[derive(Debug, Clone)]
pub struct Framed(pub Message);

impl WireSize for Framed {
    fn wire_size(&self) -> usize {
        self.0.wire_size()
    }
}

impl Wire for Framed {
    fn encode_into(&self, w: &mut Writer) {
        span(Layer::NetEncode, || self.0.encode_into(w));
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        span(Layer::NetDecode, || Message::decode_from(r).map(Framed))
    }
}

fn kind(msg: &Message) -> MsgKind {
    match msg {
        Message::MPropose { .. } => MsgKind::MPropose,
        Message::MPayload { .. } => MsgKind::MPayload,
        Message::MProposeAck { .. } => MsgKind::MProposeAck,
        Message::MCommit { .. } => MsgKind::MCommit,
        Message::MPromises { .. } => MsgKind::MPromises,
        Message::MConsensus { .. } => MsgKind::MConsensus,
        Message::MConsensusAck { .. } => MsgKind::MConsensusAck,
        _ => MsgKind::Other,
    }
}

/// [`Tempo`] with its protocol calls timed and its deliveries counted.
#[derive(Debug)]
pub struct Probe {
    inner: Tempo,
    executed: Arc<AtomicU64>,
}

impl Probe {
    /// Wraps `inner`; every command it delivers increments `executed`.
    pub fn new(inner: Tempo, executed: Arc<AtomicU64>) -> Self {
        Self { inner, executed }
    }

    fn wrap(&self, actions: Vec<Action<Message>>) -> Vec<Action<Framed>> {
        actions
            .into_iter()
            .map(|action| match action {
                Action::Send { to, msg } => Action::Send {
                    to,
                    msg: Framed(msg),
                },
                Action::Deliver(executed) => {
                    self.executed.fetch_add(1, Ordering::Relaxed);
                    Action::Deliver(executed)
                }
                Action::Schedule { timer, after_us } => Action::Schedule { timer, after_us },
            })
            .collect()
    }
}

impl Protocol for Probe {
    type Message = Framed;
    type Executor = TempoExecutor;
    const NAME: &'static str = Tempo::NAME;

    fn new(process: ProcessId, shard: ShardId, config: Config) -> Self {
        Self::new(Tempo::new(process, shard, config), Arc::default())
    }

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn shard(&self) -> ShardId {
        Protocol::shard(&self.inner)
    }

    fn discover(&mut self, view: View) -> Vec<Action<Framed>> {
        let actions = self.inner.discover(view);
        self.wrap(actions)
    }

    fn submit(&mut self, cmd: Command, now_us: u64) -> Vec<Action<Framed>> {
        let actions = span(Layer::CoreSubmit, || self.inner.submit(cmd, now_us));
        self.wrap(actions)
    }

    fn handle(&mut self, from: ProcessId, msg: Framed, now_us: u64) -> Vec<Action<Framed>> {
        let layer = Layer::CoreHandle(kind(&msg.0));
        let actions = span(layer, || self.inner.handle(from, msg.0, now_us));
        self.wrap(actions)
    }

    fn timer(&mut self, timer: TimerId, now_us: u64) -> Vec<Action<Framed>> {
        let actions = span(Layer::CoreTimer, || self.inner.timer(timer, now_us));
        self.wrap(actions)
    }

    fn suspect(&mut self, process: ProcessId) {
        Protocol::suspect(&mut self.inner, process);
    }

    fn unsuspect(&mut self, process: ProcessId) {
        Protocol::unsuspect(&mut self.inner, process);
    }

    fn rejoin(&mut self, incarnation: u64, now_us: u64) -> Vec<Action<Framed>> {
        let actions = self.inner.rejoin(incarnation, now_us);
        self.wrap(actions)
    }

    fn persist(&mut self) {
        span(Layer::KernelPersist, || self.inner.persist());
    }

    fn attach_tracer(&mut self, tracer: Tracer) {
        self.inner.attach_tracer(tracer);
    }

    fn executor(&self) -> &TempoExecutor {
        self.inner.executor()
    }

    fn metrics(&self) -> ProtocolMetrics {
        self.inner.metrics()
    }
}

/// A [`Store`] with its calls timed. A `sync` with nothing appended since the last
/// one is passed through untimed: only syncs with appends pending count (for a
/// `FileStore`, the ones that write and fsync).
#[derive(Debug)]
pub struct ProbeStore<S> {
    inner: S,
    unsynced: u64,
}

impl<S: Store> ProbeStore<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        Self { inner, unsynced: 0 }
    }
}

impl<S: Store> Store for ProbeStore<S> {
    fn append(&mut self, record: &WalRecord) {
        self.unsynced += 1;
        span(Layer::StoreAppend, || self.inner.append(record));
    }

    fn sync(&mut self) {
        if self.unsynced == 0 {
            return self.inner.sync();
        }
        self.unsynced = 0;
        span(Layer::StoreSync, || self.inner.sync());
    }

    fn install_snapshot(&mut self, snapshot: &Snapshot) {
        // The snapshot supersedes the buffered appends.
        self.unsynced = 0;
        span(Layer::StoreSnapshot, || {
            self.inner.install_snapshot(snapshot)
        });
    }

    fn load(&mut self) -> (Option<Snapshot>, Vec<WalRecord>) {
        span(Layer::StoreLoad, || self.inner.load())
    }

    fn metrics(&self) -> StoreMetrics {
        self.inner.metrics()
    }
}

/// A [`Mix`] with command generation timed and counted.
pub struct ProbeMix<M> {
    inner: M,
    issued: Arc<AtomicU64>,
}

impl<M: Mix> ProbeMix<M> {
    /// Wraps `inner`; every command it builds increments `issued`.
    pub fn new(inner: M, issued: Arc<AtomicU64>) -> Self {
        Self { inner, issued }
    }
}

impl<M: Mix> Mix for ProbeMix<M> {
    fn next(&mut self, rifl: Rifl) -> Command {
        self.issued.fetch_add(1, Ordering::Relaxed);
        span(Layer::LoadMix, || self.inner.next(rifl))
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}
