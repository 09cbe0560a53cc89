//! One replica lifecycle and one client-completion rule, shared by the simulator
//! (virtual time, event queue) and the networked runtime (threads, TCP), so the two
//! cannot drift apart.
//!
//! * [`Replica`] owns the [`Driver`], the lifecycle [`Tracer`], the per-incarnation
//!   [`FailureDetector`] and the process identity. [`Replica::boot`] is the one boot
//!   order; its suspicion methods are the one path from oracle decrees, control
//!   frames, liveness evidence and detector ticks to the protocol plus the trace.
//! * [`closest_live`] picks the replica a client talks to for one shard, and
//!   [`Watch`] tracks one in-flight command until every accessed shard reported.
//!
//! The embedder keeps its transport: routing each step's [`Output`], sending
//! heartbeats, gating deliveries, and recording the history.

use crate::detector::{DetectorEvent, DetectorOpts, DetectorStats, FailureDetector};
use tempo_kernel::command::Command;
use tempo_kernel::driver::{Driver, Output};
use tempo_kernel::id::{ProcessId, Rifl, ShardId, SiteId};
use tempo_kernel::membership::Membership;
use tempo_kernel::protocol::{Protocol, View};
use tempo_kernel::trace::{ProcEvent, Tracer};
use tempo_planet::Planet;

/// One incarnation of one process: its [`Driver`], tracer and failure detector.
#[derive(Debug)]
pub struct Replica<P: Protocol> {
    driver: Driver<P>,
    tracer: Tracer,
    /// `None` in oracle mode: suspicions then arrive only through
    /// [`Replica::suspect`]/[`Replica::unsuspect`].
    detector: Option<FailureDetector>,
    id: ProcessId,
    shard: ShardId,
    incarnation: u64,
}

impl<P: Protocol> Replica<P> {
    /// Boots incarnation `incarnation` (0 at cluster start, the 1-based restart count
    /// after a crash) of the process `protocol` was built for. The tracer is attached
    /// first; a restart is traced; `initial_suspects` are handed to the protocol
    /// untraced, as boot state, before it sees its view; then the driver starts and a
    /// restarted incarnation rejoins. With `detector` set, a fresh detector watching
    /// every other process starts its grace period at `now_us`.
    ///
    /// Returns the replica and the outputs of `start` and (on a restart) `rejoin`, in
    /// that order, for the embedder to route.
    pub fn boot(
        protocol: P,
        incarnation: u64,
        tracer: Tracer,
        initial_suspects: impl IntoIterator<Item = ProcessId>,
        view: View,
        detector: Option<DetectorOpts>,
        now_us: u64,
    ) -> (Self, Vec<Output<P::Message>>) {
        let id = protocol.id();
        let shard = protocol.shard();
        let mut driver = Driver::from_protocol(protocol);
        driver.set_tracer(tracer.clone());
        if incarnation > 0 {
            tracer.process_event(now_us, id, ProcEvent::Restart(id));
        }
        for q in initial_suspects {
            driver.protocol_mut().suspect(q);
        }
        let peers: Vec<ProcessId> = view
            .membership
            .all_processes()
            .into_iter()
            .filter(|&q| q != id)
            .collect();
        let mut outputs = vec![driver.start(view, now_us)];
        if incarnation > 0 {
            outputs.push(driver.rejoin(incarnation, now_us));
        }
        let detector = detector.map(|opts| FailureDetector::new(opts, peers, now_us));
        let replica = Self {
            driver,
            tracer,
            detector,
            id,
            shard,
            incarnation,
        };
        (replica, outputs)
    }

    /// The process id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The shard this process replicates.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// This incarnation's number (0 = never restarted).
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// The process's lifecycle tracer (shared by all its incarnations).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The driver, for reads (metrics, timer deadlines).
    pub fn driver(&self) -> &Driver<P> {
        &self.driver
    }

    /// The driver, for steps (`submit`, `handle`, `fire_due`).
    pub fn driver_mut(&mut self) -> &mut Driver<P> {
        &mut self.driver
    }

    /// Suspects `q` (an oracle decree or a control frame) and traces it.
    pub fn suspect(&mut self, q: ProcessId, now_us: u64) {
        self.driver.protocol_mut().suspect(q);
        self.tracer
            .process_event(now_us, self.id, ProcEvent::Suspect(q));
    }

    /// Withdraws a suspicion of `q` and traces it.
    pub fn unsuspect(&mut self, q: ProcessId, now_us: u64) {
        self.driver.protocol_mut().unsuspect(q);
        self.tracer
            .process_event(now_us, self.id, ProcEvent::Unsuspect(q));
    }

    /// Liveness evidence: a frame from `from` arrived. In detector mode a suspected
    /// sender is unsuspected on the spot; senders that are not peers (clients, the
    /// control endpoint) are ignored.
    pub fn heard_from(&mut self, from: ProcessId, now_us: u64) {
        let event = self
            .detector
            .as_mut()
            .and_then(|det| det.heartbeat(from, now_us));
        if let Some(event) = event {
            self.apply(event, now_us);
        }
    }

    /// Detector mode: scans for overdue peers and suspects them.
    pub fn tick_detector(&mut self, now_us: u64) {
        let Some(det) = self.detector.as_mut() else {
            return;
        };
        for event in det.tick(now_us) {
            self.apply(event, now_us);
        }
    }

    /// The earliest time [`tick_detector`](Self::tick_detector) could suspect a peer.
    pub fn detector_deadline(&self) -> Option<u64> {
        self.detector.as_ref().and_then(|det| det.next_deadline())
    }

    /// This incarnation's detector counters (zero in oracle mode).
    pub fn detector_stats(&self) -> DetectorStats {
        self.detector
            .as_ref()
            .map(|det| det.stats())
            .unwrap_or_default()
    }

    fn apply(&mut self, event: DetectorEvent, now_us: u64) {
        match event {
            DetectorEvent::Suspect(q) => self.suspect(q, now_us),
            DetectorEvent::Unsuspect(q) => self.unsuspect(q, now_us),
        }
    }
}

/// The replica of `shard` a client at `site` talks to: the closest one that is not
/// down — by one-way latency when there is a planet, by ring distance otherwise, ties
/// to the lower id. `None` when every replica of the shard is down.
pub fn closest_live(
    membership: &Membership,
    planet: Option<&Planet>,
    site: SiteId,
    shard: ShardId,
    is_down: impl Fn(ProcessId) -> bool,
) -> Option<ProcessId> {
    let sites = membership.sites() as u64;
    membership
        .processes_of_shard(shard)
        .into_iter()
        .filter(|&p| !is_down(p))
        .min_by_key(|&p| {
            let s = membership.site_of(p);
            match planet {
                Some(planet) => (planet.one_way_us(site, s), p),
                None => ((s + sites - site) % sites, p),
            }
        })
}

/// Most shards one watched command may access.
pub const MAX_WATCHED_SHARDS: usize = 8;

/// What [`Watch::notice`] made of an execution notice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Notice {
    /// Not for the current command, or not from the shard's watched replica.
    Ignored,
    /// The shard's part is done; other shards still owe a notice.
    Accepted,
    /// Every accessed shard has reported: the command is complete. Carries the
    /// replica whose notice completed it, which the embedder stamps `Replied` on.
    Completed(ProcessId),
}

/// One client's in-flight command: per accessed shard, the replica whose execution
/// notice completes that shard's part. Fixed-size and `Copy`, so slabs of them
/// allocate nothing per command.
#[derive(Debug, Clone, Copy, Default)]
pub struct Watch {
    rifl: Option<Rifl>,
    pending: [(ShardId, ProcessId); MAX_WATCHED_SHARDS],
    len: u8,
}

impl Watch {
    /// Starts watching `cmd`, with `closest(shard)` choosing each accessed shard's
    /// replica (normally [`closest_live`]). Returns the submission target, the watched
    /// replica of the command's target shard, or `None` — leaving the watch idle —
    /// when some accessed shard has no live replica.
    ///
    /// # Panics
    ///
    /// Panics if `cmd` accesses more than [`MAX_WATCHED_SHARDS`] shards.
    pub fn begin(
        &mut self,
        cmd: &Command,
        mut closest: impl FnMut(ShardId) -> Option<ProcessId>,
    ) -> Option<ProcessId> {
        *self = Self::default();
        let mut watch = Self {
            rifl: Some(cmd.rifl),
            ..Self::default()
        };
        let mut target = None;
        for shard in cmd.shards() {
            assert!(
                (watch.len as usize) < MAX_WATCHED_SHARDS,
                "a watched command accesses at most {MAX_WATCHED_SHARDS} shards"
            );
            let p = closest(shard)?;
            if shard == cmd.target_shard() {
                target = Some(p);
            }
            watch.pending[watch.len as usize] = (shard, p);
            watch.len += 1;
        }
        *self = watch;
        target
    }

    /// The command being watched, if any.
    pub fn rifl(&self) -> Option<Rifl> {
        self.rifl
    }

    /// Gives up on `rifl` (timeout, abort). Returns `false` if `rifl` is not the
    /// command being watched — it completed or was abandoned already.
    pub fn cancel(&mut self, rifl: Rifl) -> bool {
        if self.rifl != Some(rifl) {
            return false;
        }
        *self = Self::default();
        true
    }

    /// An execution notice: `from`, a replica of `shard`, executed `rifl`.
    pub fn notice(&mut self, rifl: Rifl, shard: ShardId, from: ProcessId) -> Notice {
        if self.rifl != Some(rifl) {
            return Notice::Ignored;
        }
        let len = self.len as usize;
        let Some(i) = self.pending[..len].iter().position(|&w| w == (shard, from)) else {
            return Notice::Ignored;
        };
        self.pending[i] = self.pending[len - 1];
        self.len -= 1;
        if self.len > 0 {
            return Notice::Accepted;
        }
        self.rifl = None;
        Notice::Completed(from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tempo_kernel::command::KVOp;
    use tempo_kernel::config::Config;
    use tempo_kernel::protocol::{Action, Executed, Executor, ProtocolMetrics, TimerId, WireSize};
    use tempo_kernel::trace::TraceEvent;

    fn cmd(rifl: Rifl, shards: &[ShardId]) -> Command {
        let ops = shards.iter().map(|&s| (s, 7, KVOp::Get)).collect();
        Command::new(rifl, ops, 0)
    }

    #[test]
    fn a_notice_from_an_unwatched_replica_is_ignored() {
        let membership = Membership::new(3, 1);
        let rifl = Rifl::new(1, 1);
        let mut watch = Watch::default();
        let target = watch.begin(&cmd(rifl, &[0]), |shard| {
            closest_live(&membership, None, 1, shard, |_| false)
        });
        assert_eq!(target, Some(1), "the colocated replica");
        assert_eq!(watch.notice(rifl, 0, 0), Notice::Ignored);
        assert_eq!(watch.rifl(), Some(rifl));
        assert_eq!(watch.notice(rifl, 0, 1), Notice::Completed(1));
        assert_eq!(watch.rifl(), None);
    }

    #[test]
    fn a_notice_for_a_previous_rifl_is_ignored() {
        let mut watch = Watch::default();
        let first = Rifl::new(1, 1);
        watch.begin(&cmd(first, &[0]), |_| Some(0));
        assert!(watch.cancel(first));
        assert!(!watch.cancel(first), "already abandoned");
        let second = Rifl::new(1, 2);
        watch.begin(&cmd(second, &[0]), |_| Some(0));
        assert_eq!(watch.notice(first, 0, 0), Notice::Ignored);
        assert_eq!(watch.rifl(), Some(second));
        assert_eq!(watch.notice(second, 0, 0), Notice::Completed(0));
        assert_eq!(
            watch.notice(second, 0, 0),
            Notice::Ignored,
            "already complete"
        );
    }

    #[test]
    fn a_two_shard_command_completes_only_after_both_shards_report() {
        // Two shards over three sites: process ids 0-2 are shard 0, 3-5 shard 1.
        let membership = Membership::new(3, 2);
        let rifl = Rifl::new(1, 1);
        let mut watch = Watch::default();
        let target = watch.begin(&cmd(rifl, &[0, 1]), |shard| {
            closest_live(&membership, None, 0, shard, |p| p == 0)
        });
        // Site 0's shard-0 replica is down: ring order picks site 1's.
        let shard0 = membership.process(0, 1);
        let shard1 = membership.process(1, 0);
        assert_eq!(target, Some(shard0));
        assert_eq!(watch.notice(rifl, 1, shard1), Notice::Accepted);
        assert_eq!(watch.notice(rifl, 1, shard1), Notice::Ignored, "duplicate");
        assert_eq!(watch.rifl(), Some(rifl));
        assert_eq!(watch.notice(rifl, 0, shard0), Notice::Completed(shard0));
    }

    #[test]
    fn a_shard_with_every_replica_down_leaves_the_watch_idle() {
        let membership = Membership::new(3, 1);
        let mut watch = Watch::default();
        let target = watch.begin(&cmd(Rifl::new(1, 1), &[0]), |shard| {
            closest_live(&membership, None, 0, shard, |_| true)
        });
        assert_eq!(target, None);
        assert_eq!(watch.rifl(), None);
    }

    #[test]
    fn planet_distance_beats_ring_order() {
        let membership = Membership::new(3, 1);
        // Site 0 is 10 ms from site 2 and 50 ms from site 1.
        let planet = Planet::from_ping_matrix(
            ["a", "b", "c"].map(tempo_planet::Region::new).to_vec(),
            vec![
                vec![0.0, 100.0, 20.0],
                vec![100.0, 0.0, 100.0],
                vec![20.0, 100.0, 0.0],
            ],
        );
        let down = |p: ProcessId| p == 0;
        assert_eq!(closest_live(&membership, None, 0, 0, down), Some(1));
        assert_eq!(
            closest_live(&membership, Some(&planet), 0, 0, down),
            Some(2)
        );
    }

    /// A protocol whose rejoin handshake goes to the peers it does not suspect, so the
    /// rejoin output shows which suspicions were in place when it ran.
    #[derive(Debug)]
    struct Probe {
        id: ProcessId,
        config: Config,
        suspected: BTreeSet<ProcessId>,
        executor: Idle,
    }

    #[derive(Debug, Default)]
    struct Idle;

    impl Executor for Idle {
        type Info = ();
        fn new(_: ProcessId, _: ShardId, _: Config) -> Self {
            Idle
        }
        fn handle(&mut self, _: ()) -> Vec<Executed> {
            Vec::new()
        }
        fn executed(&self) -> u64 {
            0
        }
    }

    #[derive(Debug, Clone)]
    struct Hello;
    impl WireSize for Hello {}

    impl Protocol for Probe {
        type Message = Hello;
        type Executor = Idle;
        const NAME: &'static str = "Probe";

        fn new(id: ProcessId, _: ShardId, config: Config) -> Self {
            Self {
                id,
                config,
                suspected: BTreeSet::new(),
                executor: Idle,
            }
        }
        fn id(&self) -> ProcessId {
            self.id
        }
        fn shard(&self) -> ShardId {
            0
        }
        fn discover(&mut self, _: View) -> Vec<Action<Hello>> {
            Vec::new()
        }
        fn submit(&mut self, _: Command, _: u64) -> Vec<Action<Hello>> {
            Vec::new()
        }
        fn handle(&mut self, _: ProcessId, _: Hello, _: u64) -> Vec<Action<Hello>> {
            Vec::new()
        }
        fn timer(&mut self, _: TimerId, _: u64) -> Vec<Action<Hello>> {
            Vec::new()
        }
        fn suspect(&mut self, p: ProcessId) {
            self.suspected.insert(p);
        }
        fn unsuspect(&mut self, p: ProcessId) {
            self.suspected.remove(&p);
        }
        fn rejoin(&mut self, _: u64, _: u64) -> Vec<Action<Hello>> {
            let to = (0..self.config.n() as u64)
                .filter(|p| *p != self.id && !self.suspected.contains(p))
                .collect();
            vec![Action::send(to, Hello)]
        }
        fn executor(&self) -> &Idle {
            &self.executor
        }
        fn metrics(&self) -> ProtocolMetrics {
            ProtocolMetrics::default()
        }
    }

    fn probe(id: ProcessId) -> (Probe, View) {
        let config = Config::full(3, 1);
        (Probe::new(id, 0, config), View::trivial(config, id))
    }

    #[test]
    fn a_restarted_replica_holds_its_initial_suspicions_before_its_rejoin_output() {
        let (protocol, view) = probe(0);
        let tracer = Tracer::enabled();
        let (replica, outputs) = Replica::boot(protocol, 1, tracer.clone(), [2], view, None, 5);
        assert_eq!(outputs.len(), 2, "start, then rejoin");
        assert_eq!(
            outputs[1].sends[0].to,
            vec![1],
            "the rejoin skips suspected 2"
        );
        assert!(replica.driver().protocol().suspected.contains(&2));
        assert_eq!(replica.incarnation(), 1);
        // The restart is traced; boot-time suspicions are state, not events.
        let events = tracer.take().events;
        assert_eq!(
            events,
            vec![TraceEvent::Process {
                at_us: 5,
                process: 0,
                event: ProcEvent::Restart(0),
            }]
        );
    }

    #[test]
    fn a_heartbeat_after_a_suspicion_unsuspects_the_peer_and_traces_it() {
        let (protocol, view) = probe(0);
        let tracer = Tracer::enabled();
        let opts = DetectorOpts::default();
        let (mut replica, outputs) =
            Replica::boot(protocol, 0, tracer.clone(), [], view, Some(opts), 0);
        assert_eq!(outputs.len(), 1, "a first boot does not rejoin");
        let deadline = replica.detector_deadline().expect("peers unsuspected");
        replica.heard_from(2, deadline - 1);
        replica.tick_detector(deadline);
        assert_eq!(replica.driver().protocol().suspected, BTreeSet::from([1]));
        replica.heard_from(1, deadline + 10);
        assert!(replica.driver().protocol().suspected.is_empty());
        let stats = replica.detector_stats();
        assert_eq!((stats.suspicions, stats.wrong_suspicions), (1, 1));
        let events: Vec<ProcEvent> = tracer
            .take()
            .events
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Process { event, .. } => Some(event),
                TraceEvent::Phase { .. } => None,
            })
            .collect();
        assert_eq!(events, vec![ProcEvent::Suspect(1), ProcEvent::Unsuspect(1)]);
    }

    #[test]
    fn oracle_decrees_reach_the_protocol_and_the_trace() {
        let (protocol, view) = probe(0);
        let tracer = Tracer::enabled();
        let (mut replica, _) = Replica::boot(protocol, 0, tracer.clone(), [], view, None, 0);
        replica.heard_from(1, 10); // No detector: liveness evidence is ignored.
        replica.tick_detector(1_000_000_000);
        assert!(replica.driver().protocol().suspected.is_empty());
        replica.suspect(2, 20);
        assert!(replica.driver().protocol().suspected.contains(&2));
        replica.unsuspect(2, 30);
        assert!(replica.driver().protocol().suspected.is_empty());
        assert_eq!(tracer.take().events.len(), 2);
        assert_eq!(replica.detector_stats(), DetectorStats::default());
    }
}
