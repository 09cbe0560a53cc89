//! [`ChaosTransport`] — the emulated network: `tempo-planet` geography and the
//! `tempo-fault` nemesis, injected under real threads on one receive path.
//!
//! Loopback TCP delivers frames in tens of microseconds and never loses one. The
//! simulator charges every message the [`Planet`] one-way latency between its
//! endpoints' sites (Table 2 of the paper) plus whatever the [`Nemesis`] adds, and
//! gates it against partitions and lossy links when it is delivered. This module does
//! the same to real frames: the shared [`ChaosNet`] holds the optional geography and
//! the optional nemesis, and each endpoint's [`ChaosTransport`] parks every arriving
//! frame in one delay heap until it is due.
//!
//! * **Delay.** A frame's delay is the one-way latency between the sender's and the
//!   receiver's sites plus the nemesis extra: delay spikes, slow-node gray faults
//!   and reorder holds (later frames overtake a held one). Loopback transit is
//!   microseconds against emulated latencies of milliseconds, so "delay from
//!   arrival" and "delay from send" are indistinguishable at the scale emulated.
//!   Equal delays keep arrival order (the heap breaks ties by arrival sequence), so
//!   a static matrix preserves per-sender FIFO.
//! * **Gating.** Partitions and lossy links decide once per frame, at delivery —
//!   the simulator's rule. An undelayed frame is delivered, or dropped, the instant
//!   it arrives; a frame still in flight when a partition starts is dropped when it
//!   comes due. A duplicate draw parks a copy 1 µs behind the original, gated at its
//!   own delivery.
//! * **Who is affected.** Geography applies to every endpoint registered with a
//!   site — replicas and client sessions alike (clients live in regions too, which
//!   is what Figure 6 plots); unregistered plumbing such as the supervisor's
//!   [`CONTROL_ID`](crate::transport::CONTROL_ID) flies free. The nemesis afflicts
//!   only frames between *replica* ids (below [`CLIENT_ID_BASE`]): client sessions
//!   and control traffic are harness plumbing, like the simulator's client
//!   bookkeeping.
//!
//! Fault times in the schedule are microseconds since the [`ChaosNet`]'s wall-clock
//! epoch, so one schedule drives both the simulator and the networked runtime — the
//! interleavings differ (that is the point), the adversity does not. Link-level
//! faults are enforced here; *process*-level faults (`Crash`/`Restart`) are returned
//! by [`ChaosNet::advance`] to the embedding runtime, which owns the replica
//! lifecycle (killing driver threads, reopening stores, re-running the rejoin
//! handshake).

use crate::tcp::TcpTransport;
use crate::transport::{RecvError, Transport, TransportStats, CLIENT_ID_BASE};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tempo_fault::{FaultEvent, FaultSummary, Nemesis};
use tempo_kernel::id::{ProcessId, SiteId};
use tempo_planet::Planet;

/// The emulated network of one deployment: the optional geography (latency matrix
/// plus the site of every registered endpoint), the optional nemesis, and the
/// wall-clock epoch its schedule times are measured from. One instance is shared
/// (via `Arc`) by every [`ChaosTransport`] of the cluster and by the supervisor that
/// acts on crash/restart events.
#[derive(Debug)]
pub struct ChaosNet {
    planet: Option<Planet>,
    sites: Mutex<BTreeMap<ProcessId, SiteId>>,
    nemesis: Option<Mutex<Nemesis>>,
    epoch: Instant,
}

/// What the network does to one arriving frame, decided under one nemesis lock.
struct Fate {
    delay_us: u64,
    /// The frame was due on arrival and failed the delivery gate.
    dropped: bool,
    /// A copy trails the frame, gated at its own delivery.
    duplicate: bool,
}

impl ChaosNet {
    /// Creates the emulated network: `planet` places endpoints in regions (see
    /// [`register`](ChaosNet::register)), `nemesis` injects its schedule's faults.
    /// With neither, every frame is delivered the instant it arrives.
    pub fn new(planet: Option<Planet>, nemesis: Option<Nemesis>) -> Self {
        Self {
            planet,
            sites: Mutex::new(BTreeMap::new()),
            nemesis: nemesis.map(Mutex::new),
            epoch: Instant::now(),
        }
    }

    /// Places a transport endpoint in a site (a no-op without a planet).
    /// Unregistered endpoints see no injected latency.
    ///
    /// # Panics
    ///
    /// Panics if `site` is outside the planet's site range.
    pub fn register(&self, id: ProcessId, site: SiteId) {
        let Some(planet) = &self.planet else {
            return;
        };
        assert!(
            (site as usize) < planet.len(),
            "site {site} outside the {}-region planet",
            planet.len()
        );
        self.sites.lock().expect("sites lock").insert(id, site);
    }

    /// The one-way latency the geography injects for a frame from `from` to `to`, in
    /// microseconds. Zero without a planet, when either endpoint is unregistered, or
    /// when the endpoints share a site with zero matrix latency.
    fn delay_us(&self, from: ProcessId, to: ProcessId) -> u64 {
        let Some(planet) = &self.planet else {
            return 0;
        };
        let sites = self.sites.lock().expect("sites lock");
        match (sites.get(&from), sites.get(&to)) {
            (Some(&a), Some(&b)) => planet.one_way_us(a, b),
            _ => 0,
        }
    }

    /// Microseconds elapsed since this network's clock started.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// The wall-clock instant schedule times are measured from. The embedding runtime
    /// uses the same epoch for protocol time, so nemesis schedules and protocol
    /// timers share one clock.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn nemesis(&self) -> Option<MutexGuard<'_, Nemesis>> {
        self.nemesis
            .as_ref()
            .map(|n| n.lock().expect("nemesis lock"))
    }

    /// The schedule time of the next pending fault, if any.
    pub fn next_due_us(&self) -> Option<u64> {
        self.nemesis()?.next_due()
    }

    /// Applies every fault due by now to the link state and returns the fired events;
    /// the caller handles `Crash`/`Restart` (process lifecycle).
    pub fn advance(&self) -> Vec<FaultEvent> {
        let now = self.now_us();
        self.nemesis().map_or_else(Vec::new, |mut n| n.advance(now))
    }

    /// Whether `process` is currently crashed under the schedule.
    pub fn is_down(&self, process: ProcessId) -> bool {
        self.nemesis().is_some_and(|n| n.is_down(process))
    }

    /// The fault counters so far (all zero without a nemesis).
    pub fn summary(&self) -> FaultSummary {
        self.nemesis().map(|n| n.summary()).unwrap_or_default()
    }

    /// Records a frame dropped because its endpoint was crashed (called by the
    /// runtime when it discards traffic addressed to a killed replica).
    pub fn note_crash_drop(&self) {
        if let Some(mut n) = self.nemesis() {
            n.note_crash_drop();
        }
    }

    /// Decides an arriving frame's delay and duplication, and gates it when it is due
    /// at once. The geography-only path takes no lock beyond
    /// [`delay_us`](ChaosNet::delay_us)'s.
    fn fate(&self, from: ProcessId, to: ProcessId) -> Fate {
        let mut fate = Fate {
            delay_us: self.delay_us(from, to),
            dropped: false,
            duplicate: false,
        };
        if is_harness(from, to) {
            return fate;
        }
        if let Some(mut nemesis) = self.nemesis() {
            fate.delay_us += nemesis.send_delay(from, to);
            fate.delay_us += nemesis.reorder_delay(from, to).unwrap_or(0);
            fate.duplicate = nemesis.should_duplicate(from, to);
            if fate.delay_us == 0 {
                fate.dropped = !nemesis.allows_delivery(from, to);
            }
        }
        fate
    }

    /// Delivery-time gating of a held frame against partitions and lossy links
    /// (drops are counted).
    fn delivers(&self, from: ProcessId, to: ProcessId) -> bool {
        is_harness(from, to)
            || self
                .nemesis()
                .is_none_or(|mut n| n.allows_delivery(from, to))
    }
}

/// Client and control traffic: geography applies, the nemesis does not.
fn is_harness(from: ProcessId, to: ProcessId) -> bool {
    from >= CLIENT_ID_BASE || to >= CLIENT_ID_BASE
}

/// A frame waiting in the delay heap.
#[derive(Debug, PartialEq, Eq)]
struct InFlight {
    due: Instant,
    seq: u64,
    from: ProcessId,
    payload: Vec<u8>,
}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// A [`TcpTransport`] endpoint behind the shared [`ChaosNet`]: arriving frames wait
/// out their emulated delay and are gated at delivery, and sends from a replica the
/// schedule has crashed but the supervisor has not yet killed are suppressed (the
/// window is tiny, but a dead process must not speak).
pub struct ChaosTransport {
    inner: TcpTransport,
    net: Arc<ChaosNet>,
    in_flight: BinaryHeap<Reverse<InFlight>>,
    seq: u64,
}

impl ChaosTransport {
    /// Wraps `inner` with the shared emulated network.
    pub fn new(inner: TcpTransport, net: Arc<ChaosNet>) -> Self {
        Self {
            inner,
            net,
            in_flight: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn park(&mut self, delay_us: u64, from: ProcessId, payload: Vec<u8>) {
        self.seq += 1;
        self.in_flight.push(Reverse(InFlight {
            due: Instant::now() + Duration::from_micros(delay_us),
            seq: self.seq,
            from,
            payload,
        }));
    }

    /// Parks an arriving frame (and its duplicate, if drawn); returns it instead when
    /// it is due at once and passes the gate.
    fn arrive(&mut self, from: ProcessId, payload: Vec<u8>) -> Option<(ProcessId, Vec<u8>)> {
        let fate = self.net.fate(from, self.inner.local_id());
        if fate.duplicate {
            // At-least-once links: the copy trails the original through the same
            // delay, exercising handler idempotence.
            self.park(fate.delay_us + 1, from, payload.clone());
        }
        if fate.delay_us > 0 {
            self.park(fate.delay_us, from, payload);
            return None;
        }
        (!fate.dropped).then_some((from, payload))
    }

    /// The next due frame that passes the delivery gate; frames that fail it are
    /// dropped (and counted by the nemesis) on the way.
    fn pop_due(&mut self) -> Option<(ProcessId, Vec<u8>)> {
        let local = self.inner.local_id();
        let now = Instant::now();
        while self.in_flight.peek().is_some_and(|Reverse(f)| f.due <= now) {
            let Reverse(frame) = self.in_flight.pop().expect("peeked");
            if self.net.delivers(frame.from, local) {
                return Some((frame.from, frame.payload));
            }
        }
        None
    }
}

impl Transport for ChaosTransport {
    fn local_id(&self) -> ProcessId {
        self.inner.local_id()
    }

    fn send(&mut self, to: ProcessId, payload: &[u8]) {
        let local = self.inner.local_id();
        if local < CLIENT_ID_BASE && self.net.is_down(local) {
            // Crashed by the schedule but not yet reaped: a dead process sends nothing.
            self.net.note_crash_drop();
            return;
        }
        self.inner.send(to, payload);
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<(ProcessId, Vec<u8>), RecvError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(frame) = self.pop_due() {
                return Ok(frame);
            }
            let now = Instant::now();
            let mut wait = deadline.saturating_duration_since(now);
            if let Some(Reverse(head)) = self.in_flight.peek() {
                wait = wait.min(head.due.saturating_duration_since(now));
            }
            match self.inner.recv_timeout(wait) {
                Ok((from, payload)) => {
                    if let Some(frame) = self.arrive(from, payload) {
                        return Ok(frame);
                    }
                }
                Err(RecvError::Timeout) => {
                    // A parked frame may have come due while we waited: emulated
                    // delay slows frames down, only the delivery gate loses them.
                    if let Some(frame) = self.pop_due() {
                        return Ok(frame);
                    }
                    if Instant::now() >= deadline {
                        return Err(RecvError::Timeout);
                    }
                }
                Err(RecvError::Closed) => return Err(RecvError::Closed),
            }
        }
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpMesh;
    use tempo_fault::NemesisSchedule;

    /// A network with only a nemesis, its `t = 0` faults already applied.
    fn faults(events: Vec<(u64, FaultEvent)>) -> Arc<ChaosNet> {
        let net = Arc::new(ChaosNet::new(
            None,
            Some(Nemesis::new(NemesisSchedule::new(events), 7)),
        ));
        net.advance();
        net
    }

    /// A raw sender `a` and an emulated receiver `b` on one mesh.
    fn pair(net: &Arc<ChaosNet>, a: ProcessId, b: ProcessId) -> (TcpTransport, ChaosTransport) {
        let mesh = TcpMesh::new();
        let sender = mesh.endpoint(a, true).unwrap();
        let receiver = ChaosTransport::new(mesh.endpoint(b, true).unwrap(), Arc::clone(net));
        (sender, receiver)
    }

    // ------------------------------------------------------------- geography

    /// Injected one-way delays must match the planet matrix within tolerance
    /// (loopback transit + scheduling jitter on top, nothing missing below).
    #[test]
    fn injected_delays_match_the_planet_matrix() {
        let planet = Planet::ec2_three_regions();
        let expect_us = planet.one_way_us(0, 1);
        let net = Arc::new(ChaosNet::new(Some(planet), None));
        let (mut a, mut b) = pair(&net, 0, 1);
        net.register(0, 0);
        net.register(1, 1);
        assert!(expect_us > 1_000, "matrix must be non-trivial: {expect_us}");
        for round in 0..5 {
            let sent_at = Instant::now();
            a.send(1, b"wan-frame");
            a.flush();
            let (from, payload) = b.recv_timeout(Duration::from_secs(5)).unwrap();
            let took_us = sent_at.elapsed().as_micros() as u64;
            assert_eq!((from, payload.as_slice()), (0, b"wan-frame".as_slice()));
            assert!(
                took_us >= expect_us,
                "round {round}: frame arrived after {took_us}µs, matrix says ≥{expect_us}µs"
            );
            // Generous upper bound: scheduling jitter, not geography, is the slack.
            assert!(
                took_us < expect_us + 50_000,
                "round {round}: frame took {took_us}µs, expected ≈{expect_us}µs"
            );
        }
    }

    #[test]
    fn same_site_and_unregistered_frames_fly_free() {
        let net = Arc::new(ChaosNet::new(Some(Planet::equidistant(2, 100.0)), None));
        let (mut a, mut b) = pair(&net, 0, 1);
        // Unregistered endpoints: no injected delay.
        let sent_at = Instant::now();
        a.send(1, b"fast");
        a.flush();
        b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(
            sent_at.elapsed() < Duration::from_millis(50),
            "unregistered endpoints must not be delayed: {:?}",
            sent_at.elapsed()
        );
        // Same site: the ec2 matrices have sub-ms intra-region latency; equidistant
        // uses 0 on the diagonal.
        net.register(0, 1);
        net.register(1, 1);
        assert_eq!(net.delay_us(0, 1), 0);
    }

    #[test]
    fn client_endpoints_are_delayed_by_their_region() {
        let net = Arc::new(ChaosNet::new(Some(Planet::equidistant(3, 80.0)), None));
        let client_id = CLIENT_ID_BASE + 9;
        let (mut client, mut replica) = pair(&net, client_id, 2);
        net.register(client_id, 0);
        net.register(2, 1);
        let sent_at = Instant::now();
        client.send(2, b"submit");
        client.flush();
        let (from, _) = replica.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, client_id);
        // 80 ms ping → 40 ms one way.
        assert!(
            sent_at.elapsed() >= Duration::from_millis(40),
            "client frames cross the WAN too: {:?}",
            sent_at.elapsed()
        );
    }

    #[test]
    fn ordering_per_sender_is_preserved() {
        let net = Arc::new(ChaosNet::new(Some(Planet::equidistant(2, 30.0)), None));
        let (mut a, mut b) = pair(&net, 0, 1);
        net.register(0, 0);
        net.register(1, 1);
        for i in 0..32u8 {
            a.send(1, &[i]);
        }
        a.flush();
        for i in 0..32u8 {
            let (_, payload) = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(payload, vec![i], "frames must deliver in send order");
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn registering_an_unknown_site_panics() {
        let net = ChaosNet::new(Some(Planet::equidistant(2, 10.0)), None);
        net.register(0, 7);
    }

    // ---------------------------------------------------------------- faults

    #[test]
    fn partition_blocks_frames_until_heal() {
        let net = faults(vec![
            (0, FaultEvent::Partition(vec![vec![0], vec![1]])),
            (400_000, FaultEvent::Heal),
        ]);
        let (mut a, mut b) = pair(&net, 0, 1);
        a.send(1, b"during-partition");
        a.flush();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(100)),
            Err(RecvError::Timeout),
            "partitioned frame must not deliver"
        );
        assert!(net.summary().dropped_partition >= 1);
        // Wait out the heal, then frames flow again.
        while net.next_due_us().is_some() {
            std::thread::sleep(Duration::from_millis(20));
            net.advance();
        }
        a.send(1, b"after-heal");
        a.flush();
        let (from, payload) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((from, payload.as_slice()), (0, b"after-heal".as_slice()));
    }

    #[test]
    fn delay_spike_holds_frames_back() {
        let net = faults(vec![(
            0,
            FaultEvent::DelaySpike {
                from: 0,
                to: 1,
                extra_us: 150_000,
            },
        )]);
        let (mut a, mut b) = pair(&net, 0, 1);
        let sent_at = Instant::now();
        a.send(1, b"slow");
        a.flush();
        let (_, payload) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(payload, b"slow");
        assert!(
            sent_at.elapsed() >= Duration::from_millis(150),
            "the spike must add latency, took {:?}",
            sent_at.elapsed()
        );
        assert_eq!(net.summary().delayed, 1);
    }

    #[test]
    fn duplicate_link_delivers_the_frame_twice() {
        let net = faults(vec![(
            0,
            FaultEvent::DuplicateFrame {
                from: 0,
                to: 1,
                p: 1.0,
            },
        )]);
        let (mut a, mut b) = pair(&net, 0, 1);
        a.send(1, b"twice");
        a.flush();
        let (_, first) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        let (_, second) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(first, b"twice");
        assert_eq!(second, b"twice");
        assert_eq!(net.summary().duplicated, 1);
    }

    #[test]
    fn slow_node_stretches_its_answers() {
        let net = Arc::new(ChaosNet::new(
            None,
            Some(Nemesis::new(
                NemesisSchedule::slow_node(0, 150_000, 0, 10_000_000),
                7,
            )),
        ));
        net.advance();
        let (mut a, mut b) = pair(&net, 0, 1);
        let sent_at = Instant::now();
        a.send(1, b"sluggish");
        a.flush();
        let (_, payload) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(payload, b"sluggish");
        assert!(
            sent_at.elapsed() >= Duration::from_millis(150),
            "the slow node's answer must be late, took {:?}",
            sent_at.elapsed()
        );
        assert_eq!(net.summary().slowed, 1);
    }

    #[test]
    fn reorder_lets_later_frames_overtake() {
        let net = faults(vec![(
            0,
            FaultEvent::ReorderFrame {
                from: 0,
                to: 1,
                p: 1.0,
            },
        )]);
        let (mut a, mut b) = pair(&net, 0, 1);
        a.send(1, b"held");
        a.flush();
        // Every frame on the link is held back, but none may be lost.
        let (_, first) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(first, b"held");
        assert!(net.summary().reordered >= 1);
    }

    #[test]
    fn client_frames_bypass_the_chaos() {
        let net = faults(vec![(0, FaultEvent::Partition(vec![vec![0], vec![1]]))]);
        let client_id = CLIENT_ID_BASE + 4;
        let (mut client, mut replica) = pair(&net, client_id, 1);
        client.send(1, b"submit");
        client.flush();
        let (from, payload) = replica.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            (from, payload.as_slice()),
            (client_id, b"submit".as_slice())
        );
    }

    // ------------------------------------------------------ geography + faults

    /// A network over a 3-region 100 ms-ping planet (50 ms one way) with replicas 0
    /// and 1 in different regions.
    fn wan_with(events: Vec<(u64, FaultEvent)>) -> Arc<ChaosNet> {
        let net = Arc::new(ChaosNet::new(
            Some(Planet::equidistant(3, 100.0)),
            Some(Nemesis::new(NemesisSchedule::new(events), 7)),
        ));
        net.register(0, 0);
        net.register(1, 1);
        net.advance();
        net
    }

    #[test]
    fn delay_spike_adds_to_the_region_latency() {
        let net = wan_with(vec![(
            0,
            FaultEvent::DelaySpike {
                from: 0,
                to: 1,
                extra_us: 80_000,
            },
        )]);
        let (mut a, mut b) = pair(&net, 0, 1);
        let one_way = Duration::from_micros(net.delay_us(0, 1));
        assert_eq!(one_way, Duration::from_millis(50));
        let sent_at = Instant::now();
        a.send(1, b"far-and-slow");
        a.flush();
        let (_, payload) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(payload, b"far-and-slow");
        assert!(
            sent_at.elapsed() >= one_way + Duration::from_millis(80),
            "one-way latency and spike must add up, took {:?}",
            sent_at.elapsed()
        );
        assert_eq!(net.summary().delayed, 1);
    }

    #[test]
    fn frame_in_flight_when_a_partition_starts_is_dropped_at_delivery() {
        let net = wan_with(vec![(
            20_000,
            FaultEvent::Partition(vec![vec![0], vec![1]]),
        )]);
        let (mut a, mut b) = pair(&net, 0, 1);
        a.send(1, b"caught-in-flight");
        a.flush();
        // The frame arrives over loopback and starts its 50 ms flight.
        let give_up = Instant::now() + Duration::from_secs(5);
        while b.in_flight.is_empty() {
            assert!(Instant::now() < give_up, "the frame never arrived");
            assert_eq!(
                b.recv_timeout(Duration::from_millis(1)),
                Err(RecvError::Timeout)
            );
        }
        // The partition starts mid-flight.
        while net.next_due_us().is_some() {
            std::thread::sleep(Duration::from_millis(5));
            net.advance();
        }
        assert_eq!(net.summary().dropped_partition, 0, "not delivered yet");
        assert_eq!(
            b.recv_timeout(Duration::from_millis(200)),
            Err(RecvError::Timeout),
            "the partition must catch the frame at delivery"
        );
        assert_eq!(net.summary().dropped_partition, 1);
    }
}
