//! A timeout-based (accrual-style) failure detector.
//!
//! The paper assumes the Ω leader oracle of classic indulgent consensus (Appendix B);
//! PRs 3–6 approximated it with a *perfect* oracle — the simulator and the `NetCluster`
//! supervisor told every live replica exactly when a peer crashed or rejoined. That
//! hides an entire failure class: real detectors are driven by heartbeats over the same
//! lossy, delayed network the protocol runs on, so they suspect slow-but-alive peers
//! (gray failures) and un-suspect them later. Wrong suspicions trigger concurrent
//! recovery attempts and hammer the `MRecNAck` ballot races of Algorithm 4 — which is
//! exactly what this module exists to provoke.
//!
//! [`FailureDetector`] is deterministic and clock-free: the embedder feeds it absolute
//! microsecond timestamps (simulated time in `tempo-sim`, a monotonic epoch in the
//! networked runtime) plus heartbeat arrivals, and polls [`FailureDetector::tick`] for
//! [`DetectorEvent`]s. Per peer it keeps an exponentially weighted moving average of
//! heartbeat inter-arrival times, in the spirit of the φ accrual detector (Hayashibara
//! et al.): a peer is suspected once its silence exceeds
//! `clamp(multiplier · mean_interarrival, min_timeout_us, max_timeout_us)` and
//! un-suspected the moment any frame from it arrives. The clamp matters at both ends —
//! the floor keeps one delayed heartbeat from triggering a suspicion storm at startup,
//! and the ceiling keeps a persistently slow node (the `SlowNode` nemesis action, 100×
//! latency) from stretching the average until it passes as healthy.
//!
//! Suspicion here is advisory, as everywhere in this codebase: it accelerates recovery
//! and leader choice but is never load-bearing for safety (DESIGN.md §9).

use std::collections::BTreeMap;
use tempo_kernel::id::ProcessId;

/// Tuning knobs of the [`FailureDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorOpts {
    /// How often each process broadcasts a heartbeat (and how often the embedder
    /// should call [`FailureDetector::tick`]), in microseconds. Also seeds the
    /// inter-arrival estimate before the first real heartbeat lands.
    pub heartbeat_interval_us: u64,
    /// A peer is suspected once its silence exceeds `multiplier` times its estimated
    /// heartbeat inter-arrival (subject to the clamps below). Higher values trade
    /// detection latency for fewer wrong suspicions.
    pub multiplier: f64,
    /// Floor on the suspicion timeout: protects against suspicion storms while the
    /// inter-arrival estimate is still warming up.
    pub min_timeout_us: u64,
    /// Ceiling on the suspicion timeout: keeps a persistently slow peer from
    /// stretching its own estimate until it passes as healthy.
    pub max_timeout_us: u64,
    /// EWMA weight of the newest inter-arrival sample (0 < α ≤ 1).
    pub alpha: f64,
}

impl Default for DetectorOpts {
    fn default() -> Self {
        Self {
            heartbeat_interval_us: 25_000,
            multiplier: 6.0,
            min_timeout_us: 100_000,
            max_timeout_us: 2_000_000,
            alpha: 0.2,
        }
    }
}

impl DetectorOpts {
    /// The suspicion timeout implied by an inter-arrival estimate.
    fn timeout_us(&self, mean_us: f64) -> u64 {
        let raw = (self.multiplier * mean_us) as u64;
        raw.clamp(self.min_timeout_us, self.max_timeout_us)
    }
}

/// A suspicion change emitted by [`FailureDetector::tick`] or
/// [`FailureDetector::heartbeat`]. The embedder forwards these to
/// `Protocol::suspect` / `Protocol::unsuspect`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorEvent {
    /// The peer has been silent past its timeout: presume it failed.
    Suspect(ProcessId),
    /// A frame from a suspected peer arrived: the suspicion was wrong (or the peer
    /// recovered); retract it.
    Unsuspect(ProcessId),
}

/// Counters of detector activity, for run reports and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectorStats {
    /// Total `Suspect` events emitted.
    pub suspicions: u64,
    /// Total `Unsuspect` events emitted — each one is a *wrong* (or stale) suspicion
    /// that the protocol had to absorb.
    pub wrong_suspicions: u64,
    /// Heartbeat arrivals observed.
    pub heartbeats: u64,
}

impl DetectorStats {
    /// Folds another detector's counters into this one (aggregation across replicas
    /// and incarnations for run reports).
    pub fn merge(&mut self, other: &DetectorStats) {
        self.suspicions += other.suspicions;
        self.wrong_suspicions += other.wrong_suspicions;
        self.heartbeats += other.heartbeats;
    }
}

#[derive(Debug, Clone)]
struct PeerState {
    /// Absolute time of the most recent arrival (seeded with the construction time).
    last_us: u64,
    /// EWMA of heartbeat inter-arrival times.
    mean_us: f64,
    suspected: bool,
}

/// Per-replica, heartbeat-fed failure detector (see the module docs).
#[derive(Debug, Clone)]
pub struct FailureDetector {
    opts: DetectorOpts,
    peers: BTreeMap<ProcessId, PeerState>,
    stats: DetectorStats,
}

impl FailureDetector {
    /// Creates a detector watching `peers` (the local process must not be listed).
    /// `now_us` counts as a synthetic first arrival from every peer, so detection
    /// latency is bounded from the start — a peer that never says anything is
    /// suspected after one timeout, not never.
    pub fn new(
        opts: DetectorOpts,
        peers: impl IntoIterator<Item = ProcessId>,
        now_us: u64,
    ) -> Self {
        let seed_mean = opts.heartbeat_interval_us as f64;
        let peers = peers
            .into_iter()
            .map(|p| {
                (
                    p,
                    PeerState {
                        last_us: now_us,
                        mean_us: seed_mean,
                        suspected: false,
                    },
                )
            })
            .collect();
        Self {
            opts,
            peers,
            stats: DetectorStats::default(),
        }
    }

    /// Records a liveness proof from `from` at `now_us` — a heartbeat, or *any* frame
    /// (every message a peer sends proves it is alive, so embedders feed all arrivals
    /// through here). Returns the `Unsuspect` event if the peer was suspected.
    pub fn heartbeat(&mut self, from: ProcessId, now_us: u64) -> Option<DetectorEvent> {
        let peer = self.peers.get_mut(&from)?;
        self.stats.heartbeats += 1;
        let interval = now_us.saturating_sub(peer.last_us) as f64;
        peer.last_us = now_us;
        peer.mean_us = peer.mean_us * (1.0 - self.opts.alpha) + interval * self.opts.alpha;
        if peer.suspected {
            peer.suspected = false;
            self.stats.wrong_suspicions += 1;
            Some(DetectorEvent::Unsuspect(from))
        } else {
            None
        }
    }

    /// Scans every peer at `now_us` and returns the fresh `Suspect` events. Idempotent
    /// per suspicion: a peer already suspected is not re-reported.
    pub fn tick(&mut self, now_us: u64) -> Vec<DetectorEvent> {
        let mut events = Vec::new();
        for (&p, peer) in self.peers.iter_mut() {
            if peer.suspected {
                continue;
            }
            let silence = now_us.saturating_sub(peer.last_us);
            if silence > self.opts.timeout_us(peer.mean_us) {
                peer.suspected = true;
                self.stats.suspicions += 1;
                events.push(DetectorEvent::Suspect(p));
            }
        }
        events
    }

    /// The earliest absolute time at which [`tick`](Self::tick) could emit a new
    /// suspicion, if any peer is still unsuspected. Embedders with timer wheels can
    /// sleep until `min(next_deadline, ...)` instead of polling blindly.
    pub fn next_deadline(&self) -> Option<u64> {
        self.peers
            .values()
            .filter(|peer| !peer.suspected)
            .map(|peer| peer.last_us + self.opts.timeout_us(peer.mean_us) + 1)
            .min()
    }

    /// Whether `p` is currently suspected.
    pub fn is_suspected(&self, p: ProcessId) -> bool {
        self.peers.get(&p).is_some_and(|peer| peer.suspected)
    }

    /// The currently suspected peers, ascending.
    pub fn suspected(&self) -> Vec<ProcessId> {
        self.peers
            .iter()
            .filter(|(_, peer)| peer.suspected)
            .map(|(&p, _)| p)
            .collect()
    }

    /// Activity counters so far.
    pub fn stats(&self) -> DetectorStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_kernel::rand::Rng;

    fn opts() -> DetectorOpts {
        DetectorOpts {
            heartbeat_interval_us: 10_000,
            multiplier: 5.0,
            min_timeout_us: 30_000,
            max_timeout_us: 500_000,
            alpha: 0.2,
        }
    }

    /// Detection latency is bounded: a peer that goes silent at T is suspected no
    /// earlier than T + min_timeout and no later than T + max_timeout (+ one tick).
    #[test]
    fn detection_latency_bounds() {
        let o = opts();
        let mut d = FailureDetector::new(o, [1, 2], 0);
        // Healthy heartbeats from both peers every interval until 100ms.
        let mut t = 0;
        while t < 100_000 {
            t += o.heartbeat_interval_us;
            assert_eq!(d.heartbeat(1, t), None);
            assert_eq!(d.heartbeat(2, t), None);
            assert!(d.tick(t).is_empty(), "healthy peers never suspected");
        }
        let crash_at = t;
        // Peer 1 goes silent; peer 2 keeps beating. Scan every millisecond.
        let mut suspected_at = None;
        while t < crash_at + o.max_timeout_us + 1_000 {
            t += 1_000;
            if t % o.heartbeat_interval_us == 0 {
                d.heartbeat(2, t);
            }
            for e in d.tick(t) {
                assert_eq!(e, DetectorEvent::Suspect(1), "only the silent peer");
                suspected_at = Some(t);
            }
            if suspected_at.is_some() {
                break;
            }
        }
        let at = suspected_at.expect("silent peer must be suspected");
        let latency = at - crash_at;
        assert!(latency > o.min_timeout_us, "latency {latency} below floor");
        assert!(
            latency <= o.max_timeout_us + 1_000,
            "latency {latency} above ceiling"
        );
        // With a warmed-up 10ms estimate the timeout should sit near 5×10ms.
        assert!(
            (40_000..=80_000).contains(&latency),
            "latency {latency} far from multiplier × interval"
        );
        assert!(d.is_suspected(1));
        assert!(!d.is_suspected(2));
        assert_eq!(d.suspected(), vec![1]);
    }

    /// A wrong suspicion (long delay, not a crash) is retracted by the next arrival.
    #[test]
    fn wrong_suspicion_then_unsuspect() {
        let o = opts();
        let mut d = FailureDetector::new(o, [1], 0);
        for t in (0..=50_000).step_by(10_000) {
            d.heartbeat(1, t);
        }
        // A 100ms stall: suspected...
        let events = d.tick(150_000);
        assert_eq!(events, vec![DetectorEvent::Suspect(1)]);
        assert!(d.tick(160_000).is_empty(), "no duplicate suspicion");
        // ...then the delayed heartbeat lands and retracts it.
        assert_eq!(d.heartbeat(1, 170_000), Some(DetectorEvent::Unsuspect(1)));
        assert!(!d.is_suspected(1));
        let stats = d.stats();
        assert_eq!(stats.suspicions, 1);
        assert_eq!(stats.wrong_suspicions, 1);
        // And the estimate absorbed the spike, so the next scan stays quiet.
        assert!(d.tick(200_000).is_empty());
    }

    /// A slow node (heartbeats at 100× latency ⇒ huge silent gaps) is eventually
    /// suspected and — thanks to the timeout ceiling — *stays* suspect even as its
    /// inter-arrival estimate stretches, while a merely lossy link (each heartbeat
    /// dropped with p = 0.2) never trips the detector.
    #[test]
    fn slow_node_suspected_lossy_link_is_not() {
        let o = opts();
        let mut d = FailureDetector::new(o, [1, 2], 0);
        let mut rng = Rng::new(9);
        let slow_interval = o.heartbeat_interval_us * 100; // 1s between arrivals
        let mut slow_suspected = 0u32;
        let mut t = 0;
        while t < 10_000_000 {
            t += o.heartbeat_interval_us;
            // Peer 1 is slow: its heartbeat arrives only every 100 intervals.
            if t % slow_interval == 0 {
                d.heartbeat(1, t);
            }
            // Peer 2 sits behind a lossy link: 20% of heartbeats vanish.
            if !rng.gen_bool(0.2) {
                d.heartbeat(2, t);
            }
            for e in d.tick(t) {
                match e {
                    DetectorEvent::Suspect(1) => slow_suspected += 1,
                    DetectorEvent::Suspect(p) => panic!("lossy peer {p} wrongly suspected"),
                    DetectorEvent::Unsuspect(_) => {}
                }
            }
        }
        assert!(slow_suspected > 0, "slow node never suspected");
        // The ceiling (500ms) is below the slow node's 1s arrival gap, so it is
        // re-suspected after every arrival: roughly once per gap over the run.
        assert!(
            slow_suspected >= 5,
            "slow node should flap into suspicion repeatedly, got {slow_suspected}"
        );
        assert!(!d.is_suspected(2), "lossy peer must end unsuspected");
    }

    /// A peer that never sends anything at all is still suspected (the construction
    /// time seeds its arrival state), and `next_deadline` brackets the scan time.
    #[test]
    fn silent_from_birth_and_deadline() {
        let o = opts();
        let mut d = FailureDetector::new(o, [7], 0);
        let deadline = d.next_deadline().expect("one unsuspected peer");
        assert!(d.tick(deadline - 1).is_empty(), "not before the deadline");
        assert_eq!(d.tick(deadline), vec![DetectorEvent::Suspect(7)]);
        assert_eq!(d.next_deadline(), None, "every peer suspected");
    }

    /// Unknown peers are ignored — clients and control frames must not distort state.
    #[test]
    fn unknown_peer_is_ignored() {
        let mut d = FailureDetector::new(opts(), [1], 0);
        assert_eq!(d.heartbeat(99, 1_000), None);
        assert_eq!(d.stats().heartbeats, 0);
    }
}
