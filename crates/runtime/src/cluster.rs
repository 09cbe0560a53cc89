//! [`NetCluster`] — protocol replicas as OS threads over `tempo-net` transports.
//!
//! # Anatomy of a run
//!
//! * **Replicas.** Each process of the [`Config`] runs one thread owning a
//!   [`Replica`] (the driver, tracer and failure detector, booted and fed exactly as
//!   the simulator does) and a transport endpoint. The loop mirrors the simulator's event
//!   dispatch: fire due protocol timers, otherwise block on the transport until the
//!   next timer deadline; every driver step's sends are encoded once per message and
//!   flushed as one batch per peer (the transport's write coalescing), and its
//!   executions answer clients and feed the history. The driver's persist hook runs
//!   *before* the step's output is routed, so the write-ahead guarantee of DESIGN.md
//!   §6 carries over to real sockets and real fsyncs unchanged.
//! * **Clients.** [`ClientSession`]s own their own endpoints (ids above
//!   [`CLIENT_ID_BASE`]). A submission goes to the closest live replica of the
//!   command's target shard; a [`Watch`] completes it once the watched (closest
//!   live) replica of *every* accessed shard sent its execution notice — the
//!   simulator's rule, including failover after a crash and timeout-then-abort for
//!   stranded commands.
//! * **Supervisor.** With a nemesis schedule, a supervisor thread sleeps until each
//!   fault is due and acts on it: `Crash` stops the replica thread (its endpoint dies
//!   with it — sockets close, queued frames drop) and — in oracle mode — tells the
//!   survivors to `suspect` it; `Restart` builds a fresh incarnation through the
//!   [`RuntimeFactory`] (a factory that reopens the replica's `FileStore` directory
//!   models the disk surviving the crash), whose rejoin handshake and state transfer
//!   then run over the real transport. Link-level faults are enforced inside
//!   [`ChaosTransport`] on the delivery path.
//! * **Failure detection.** With [`NetOpts::detector`], the oracle broadcasts are
//!   disabled and each replica runs a `tempo-fault` failure detector instead:
//!   heartbeat beacons cross the same chaos-afflicted transport as protocol traffic,
//!   every peer frame counts as proof of life, and silence past the adaptive timeout
//!   turns into a local `suspect` — so suspicion is *fallible* (a partitioned or
//!   slowed peer gets wrongly suspected, then unsuspected when frames resume), which
//!   is exactly the regime the `MRecNAck` ballot races need. The control frames stay
//!   wired as a test override.
//!
//! Everything a test needs afterwards comes out of [`NetCluster::shutdown`]: per
//! incarnation protocol metrics, aggregated transport stats, the fault summary and
//! the recorded [`History`] for the `tempo-fault` checker.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tempo_fault::{
    closest_live, DetectorOpts, DetectorStats, FaultEvent, FaultSummary, History, NemesisSchedule,
    Notice, Replica, Watch,
};
use tempo_kernel::command::{Command, Key};
use tempo_kernel::config::Config;
use tempo_kernel::driver::Output;
use tempo_kernel::id::{ClientId, ProcessId, Rifl, ShardId, SiteId};
use tempo_kernel::membership::Membership;
use tempo_kernel::metrics::LogHistogram;
use tempo_kernel::protocol::{Protocol, ProtocolMetrics, View};
use tempo_kernel::trace::{CmdPhase, ProcEvent, TraceLog, Tracer, DEFAULT_TRACE_CAPACITY};
use tempo_net::wire::{DecodeError, Reader, Wire, Writer};
use tempo_net::{
    ChaosNet, ChaosTransport, ClientReply, ClientRequest, PlanetNet, PlanetTransport, RecvError,
    TcpMesh, Transport, TransportStats, CLIENT_ID_BASE, CONTROL_ID,
};
use tempo_planet::Planet;
use tempo_workload::Workload;

/// Builds the protocol instance of one process: at boot with incarnation 0 and on
/// every nemesis `Restart` with the 1-based restart count (same contract as the
/// simulator's `ProtocolFactory`, plus `Send` because restarts happen on the
/// supervisor thread). The factory decides what survives a crash — e.g. by reopening
/// the same `FileStore` directory per incarnation.
pub type RuntimeFactory<P> = Box<dyn FnMut(ProcessId, ShardId, Config, u64) -> P + Send>;

/// Options of a networked cluster run.
#[derive(Debug, Clone)]
pub struct NetOpts {
    /// Optional fault schedule, with times in microseconds since cluster start.
    pub nemesis: Option<NemesisSchedule>,
    /// Seed for the nemesis's per-frame drop draws.
    pub seed: u64,
    /// Record the client/replica [`History`] for the `tempo-fault` checker.
    pub record_history: bool,
    /// Transport batching: `true` coalesces each driver step's sends into one write
    /// per peer (the default); `false` flushes every send (the bench baseline).
    pub batch: bool,
    /// How long a client waits for a command before aborting it (the command may
    /// still take effect — exactly the simulator's `client_timeout_us`).
    pub client_timeout: Duration,
    /// WAN emulation: with a [`Planet`], every endpoint (replica *and* client) is
    /// placed in its site's region, frames are held back by the matrix's one-way
    /// latencies ([`PlanetTransport`]), and replicas sort their quorum views by
    /// geographic distance (`Planet::view_for`) instead of ring order — so fig6/fig7
    /// measurements run on real sockets across emulated regions.
    pub planet: Option<Planet>,
    /// Real failure detection: with [`DetectorOpts`], every replica runs a
    /// [`FailureDetector`](tempo_fault::FailureDetector) fed by heartbeats over the (chaos-afflicted) transport and
    /// the supervisor's oracle `Suspect`/`Unsuspect` broadcasts are disabled —
    /// suspicion becomes fallible, with detection latency bounded by the options.
    /// The control-frame path stays wired as a test override. `None` (the default)
    /// keeps the perfect oracle.
    pub detector: Option<DetectorOpts>,
    /// Record per-command lifecycle events (one fixed-capacity ring per replica,
    /// shared across its incarnations) plus crash/restart/suspicion markers; the
    /// merged, time-sorted [`TraceLog`] and its phase-latency fold land in
    /// [`RuntimeReport::trace`] / [`RuntimeReport::phases`]. Off (the default) the
    /// hot path pays one branch per would-be event and allocates nothing.
    pub trace: bool,
    /// When set, every replica snapshots its protocol counters and transport traffic
    /// into a shared [`MetricsRegistry`](tempo_trace::MetricsRegistry) time series
    /// (`p<id>.<counter>`) at this period — see [`RuntimeReport::registry`].
    pub metrics_interval: Option<Duration>,
}

impl Default for NetOpts {
    fn default() -> Self {
        Self {
            nemesis: None,
            seed: 1,
            record_history: false,
            batch: true,
            client_timeout: Duration::from_secs(10),
            planet: None,
            detector: None,
            trace: false,
            metrics_interval: None,
        }
    }
}

// ------------------------------------------------------------------ envelopes

// One tag namespace for everything that crosses the transport; peer traffic wraps
// the protocol's own Wire-encoded message.
const ENV_PEER: u8 = 1;
const ENV_REQUEST: u8 = 2;
const ENV_REPLY: u8 = 3;
const ENV_SUSPECT: u8 = 4;
const ENV_UNSUSPECT: u8 = 5;
const ENV_HEARTBEAT: u8 = 6;

fn encode_peer<M: Wire>(msg: &M) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(ENV_PEER);
    msg.encode_into(&mut w);
    w.into_bytes()
}

pub(crate) fn encode_request(cmd: &Command) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(ENV_REQUEST);
    cmd.encode_into(&mut w);
    w.into_bytes()
}

fn encode_reply(reply: &ClientReply) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(ENV_REPLY);
    reply.encode_into(&mut w);
    w.into_bytes()
}

fn encode_control(tag: u8, process: ProcessId) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(tag);
    w.put_u64(process);
    w.into_bytes()
}

/// What a replica does with one inbound frame.
enum Inbound<M> {
    Peer(M),
    Request(Command),
    Suspect(ProcessId),
    Unsuspect(ProcessId),
    /// A liveness beacon — carries no payload; the sender id on the transport is the
    /// signal (any frame from a peer counts as proof of life, heartbeats just
    /// guarantee a minimum rate when the protocol is quiet).
    Heartbeat,
}

fn decode_inbound<M: Wire>(bytes: &[u8]) -> Result<Inbound<M>, DecodeError> {
    let mut r = Reader::new(bytes);
    let inbound = match r.u8()? {
        ENV_PEER => Inbound::Peer(M::decode_from(&mut r)?),
        ENV_REQUEST => Inbound::Request(ClientRequest::decode_from(&mut r)?.cmd),
        ENV_SUSPECT => Inbound::Suspect(r.u64()?),
        ENV_UNSUSPECT => Inbound::Unsuspect(r.u64()?),
        ENV_HEARTBEAT => Inbound::Heartbeat,
        t => return Err(DecodeError::BadTag(t)),
    };
    if r.remaining() != 0 {
        return Err(DecodeError::Invalid("trailing bytes"));
    }
    Ok(inbound)
}

pub(crate) fn decode_reply(bytes: &[u8]) -> Option<ClientReply> {
    let mut r = Reader::new(bytes);
    if r.u8().ok()? != ENV_REPLY {
        return None;
    }
    let reply = ClientReply::decode_from(&mut r).ok()?;
    (r.remaining() == 0).then_some(reply)
}

// --------------------------------------------------------------- shared state

/// State shared by replicas, clients and the supervisor (deliberately not generic so
/// [`ClientSession`] stays protocol-agnostic). `pub(crate)` so the open-loop
/// [`LoadDriver`](crate::load) shares the watch/failover machinery.
pub(crate) struct Shared {
    pub(crate) config: Config,
    pub(crate) membership: Membership,
    /// The cluster's time origin: protocol `now_us`, nemesis schedule times and
    /// history timestamps all measure from here.
    pub(crate) epoch: Instant,
    /// Replicas currently crashed (supervisor-maintained; clients consult it for
    /// submission failover, like the sim's closest-live-replica rule).
    pub(crate) down: Mutex<BTreeSet<ProcessId>>,
    pub(crate) history: Option<Mutex<History>>,
    pub(crate) client_timeout: Duration,
    /// The WAN geography, when [`NetOpts::planet`] was set (drives quorum views).
    pub(crate) planet: Option<Planet>,
    /// Detector configuration, when [`NetOpts::detector`] was set (oracle disabled).
    pub(crate) detector: Option<DetectorOpts>,
    /// One lifecycle-event ring per replica ([`NetOpts::trace`]); restarted
    /// incarnations re-attach to their process's ring. Empty when tracing is off.
    pub(crate) tracers: BTreeMap<ProcessId, Tracer>,
    /// Shared counter time series ([`NetOpts::metrics_interval`]); replicas sample
    /// their own counters into it on their heartbeat/timer cadence.
    pub(crate) registry: Option<Mutex<tempo_trace::MetricsRegistry>>,
    pub(crate) metrics_interval_us: Option<u64>,
}

impl Shared {
    pub(crate) fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// The lifecycle tracer of `p` (disabled stand-in when tracing is off).
    pub(crate) fn tracer(&self, p: ProcessId) -> Tracer {
        self.tracers.get(&p).cloned().unwrap_or_default()
    }

    /// Starts `watch` on `cmd` for a client at `site`, each accessed shard watched at
    /// its closest live replica (shared by [`ClientSession`] and the load driver's
    /// pumps). Returns the submission target; `None` if a whole shard is down.
    pub(crate) fn begin_watch(
        &self,
        watch: &mut Watch,
        cmd: &Command,
        site: SiteId,
    ) -> Option<ProcessId> {
        let down = self.down.lock().expect("down lock");
        watch.begin(cmd, |shard| {
            closest_live(&self.membership, self.planet.as_ref(), site, shard, |p| {
                down.contains(&p)
            })
        })
    }
}

/// A replica thread's return value: its protocol metrics, its endpoint's traffic and
/// its failure-detector activity (zero in oracle mode).
type ReplicaExit = (ProtocolMetrics, TransportStats, DetectorStats);

struct Seat {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<ReplicaExit>,
}

/// Replica threads poll their stop flag at least this often, which bounds both
/// crash-injection latency and shutdown time.
const STOP_POLL: Duration = Duration::from_millis(20);

// ------------------------------------------------------------------- replicas

fn spawn_replica<P>(
    protocol: P,
    mut transport: Box<dyn Transport>,
    incarnation: u64,
    initial_suspects: Vec<ProcessId>,
    shared: Arc<Shared>,
) -> Seat
where
    P: Protocol + Send + 'static,
    P::Message: Wire + Send + 'static,
{
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let id = protocol.id();
    let handle = std::thread::Builder::new()
        .name(format!("replica-{id}-i{incarnation}"))
        .spawn(move || {
            // With a planet the view is geographic: fast quorums are the *closest*
            // replicas, which is what makes WAN emulation meaningful (and matches the
            // simulator). In detector mode the replica's detector is fed by heartbeats
            // this loop broadcasts and by every frame a peer sends — both travel the
            // same chaos-afflicted transport, which is what makes suspicion fallible.
            let (mut replica, boot) = Replica::boot(
                protocol,
                incarnation,
                shared.tracer(id),
                initial_suspects,
                match &shared.planet {
                    Some(planet) => planet.view_for(shared.config, id),
                    None => View::trivial(shared.config, id),
                },
                shared.detector,
                shared.now_us(),
            );
            for output in boot {
                route_output(output, &mut transport, &shared, &replica);
            }
            let peers: Vec<ProcessId> = shared
                .membership
                .all_processes()
                .into_iter()
                .filter(|q| *q != id)
                .collect();
            let heartbeat_frame = {
                let mut w = Writer::new();
                w.put_u8(ENV_HEARTBEAT);
                w.into_bytes()
            };
            let mut next_heartbeat_us = shared.now_us(); // First beacon right away.
            let mut next_sample_us = shared.now_us();
            while !stop_flag.load(Ordering::Relaxed) {
                let now = shared.now_us();
                // Self-sampled counter time series: each replica owns its driver and
                // endpoint, so it is the only thread that can read these counters.
                if let (Some(interval), Some(registry)) =
                    (shared.metrics_interval_us, shared.registry.as_ref())
                {
                    if now >= next_sample_us {
                        next_sample_us = now + interval.max(1);
                        let m = replica.driver().metrics();
                        let t = transport.stats();
                        let mut registry = registry.lock().expect("registry lock");
                        registry.sample(&format!("p{id}.committed"), now, m.committed);
                        registry.sample(&format!("p{id}.executed"), now, m.executed);
                        registry.sample(&format!("p{id}.messages_sent"), now, m.messages_sent);
                        registry.sample(&format!("p{id}.frames_sent"), now, t.frames_sent);
                        registry.sample(&format!("p{id}.frames_dropped"), now, t.frames_dropped);
                        registry.sample(
                            &format!("p{id}.queue_depth_peak"),
                            now,
                            t.queue_depth_peak,
                        );
                        if shared.detector.is_some() {
                            registry.sample(
                                &format!("p{id}.suspicions"),
                                now,
                                replica.detector_stats().suspicions,
                            );
                        }
                    }
                }
                if let Some(detector) = shared.detector {
                    if now >= next_heartbeat_us {
                        next_heartbeat_us = now + detector.heartbeat_interval_us;
                        for q in &peers {
                            transport.send(*q, &heartbeat_frame);
                        }
                        transport.flush();
                    }
                    replica.tick_detector(now);
                }
                // Fire overdue timers before waiting: a busy inbox must not starve
                // the protocol's periodic events.
                let next_timer = replica.driver().next_timer_due();
                if next_timer.is_some_and(|due| due <= now) {
                    let output = replica.driver_mut().fire_due(now);
                    route_output(output, &mut transport, &shared, &replica);
                    continue;
                }
                let mut timeout = next_timer
                    .map(|due| Duration::from_micros(due.saturating_sub(now)))
                    .unwrap_or(STOP_POLL)
                    .min(STOP_POLL);
                if shared.detector.is_some() {
                    // Fold the next heartbeat and the earliest suspicion deadline into
                    // the wait so detection latency is bounded by the options, not by
                    // the poll granularity.
                    let due = replica
                        .detector_deadline()
                        .map_or(next_heartbeat_us, |d| d.min(next_heartbeat_us));
                    timeout = timeout.min(Duration::from_micros(due.saturating_sub(now)));
                }
                match transport.recv_timeout(timeout) {
                    Ok((from, bytes)) => {
                        let now = shared.now_us();
                        // Any frame from a replica peer is proof of life.
                        replica.heard_from(from, now);
                        let output = match decode_inbound::<P::Message>(&bytes) {
                            Ok(Inbound::Peer(msg)) if from < CLIENT_ID_BASE => {
                                replica.driver_mut().handle(from, msg, now)
                            }
                            Ok(Inbound::Request(cmd)) if from >= CLIENT_ID_BASE => {
                                replica.driver_mut().submit(cmd, now)
                            }
                            // Control-frame suspicion stays wired in detector mode as
                            // the test override (the supervisor only *sends* it in
                            // oracle mode).
                            Ok(Inbound::Suspect(p)) if from == CONTROL_ID => {
                                replica.suspect(p, now);
                                continue;
                            }
                            Ok(Inbound::Unsuspect(p)) if from == CONTROL_ID => {
                                replica.unsuspect(p, now);
                                continue;
                            }
                            // Heartbeats carry nothing beyond the liveness fed above.
                            // Anything else — decode failures included — is dropped:
                            // the CRC layer already screened corruption, so this can
                            // only be mis-addressed harness traffic.
                            _ => continue,
                        };
                        route_output(output, &mut transport, &shared, &replica);
                    }
                    Err(RecvError::Timeout) => {}
                    Err(RecvError::Closed) => break,
                }
            }
            (
                replica.driver().metrics(),
                transport.stats(),
                replica.detector_stats(),
            )
        })
        .expect("spawn replica thread");
    Seat { stop, handle }
}

/// Acts on one driver step: peer sends are encoded once and fanned out, executions
/// answer the issuing client's endpoint and feed the history, and the whole step is
/// flushed as one batch per peer. The driver already ran the protocol's persist hook,
/// so everything sent here is backed by durable state (write-ahead across the wire).
fn route_output<P: Protocol>(
    output: Output<P::Message>,
    transport: &mut Box<dyn Transport>,
    shared: &Shared,
    replica: &Replica<P>,
) where
    P::Message: Wire,
{
    let (id, shard) = (replica.id(), replica.shard());
    for send in output.sends {
        let bytes = encode_peer(&send.msg);
        for to in send.to {
            debug_assert_ne!(to, id, "protocols deliver self-sends internally");
            transport.send(to, &bytes);
        }
    }
    for exec in output.executed {
        if let Some(history) = &shared.history {
            history.lock().expect("history lock").record_execution(
                shard,
                id,
                replica.incarnation(),
                exec.rifl,
            );
        }
        let reply = ClientReply::from_result(shard, &exec.result);
        transport.send(CLIENT_ID_BASE + exec.rifl.client, &encode_reply(&reply));
    }
    transport.flush();
}

// ----------------------------------------------------------------- supervisor

#[allow(clippy::too_many_arguments)]
fn supervisor_loop<P>(
    chaos: Arc<ChaosNet>,
    mesh: TcpMesh,
    planet: Option<Arc<PlanetNet>>,
    shared: Arc<Shared>,
    seats: Arc<Mutex<BTreeMap<ProcessId, Seat>>>,
    dead: Arc<Mutex<Vec<ReplicaExit>>>,
    done: Arc<AtomicBool>,
    mut factory: RuntimeFactory<P>,
    batch: bool,
) where
    P: Protocol + Send + 'static,
    P::Message: Wire + Send + 'static,
{
    let mut control = mesh
        .endpoint(CONTROL_ID, true)
        .expect("bind supervisor endpoint");
    let mut incarnations: BTreeMap<ProcessId, u64> = BTreeMap::new();
    while !done.load(Ordering::Relaxed) {
        let Some(due) = chaos.next_due_us() else {
            break; // Schedule exhausted: nothing left to inject.
        };
        let now = chaos.now_us();
        if due > now {
            // Sleep in slices so shutdown stays prompt.
            std::thread::sleep(Duration::from_micros((due - now).min(20_000)));
            continue;
        }
        for event in chaos.advance() {
            match event {
                FaultEvent::Crash(p) => {
                    // Kill the thread; its endpoint (sockets, queued frames, inbox)
                    // dies with it.
                    let seat = seats.lock().expect("seats lock").remove(&p);
                    if let Some(seat) = seat {
                        seat.stop.store(true, Ordering::Relaxed);
                        if let Ok(exit) = seat.handle.join() {
                            dead.lock().expect("dead lock").push(exit);
                        }
                    }
                    shared.down.lock().expect("down lock").insert(p);
                    shared
                        .tracer(p)
                        .process_event(shared.now_us(), p, ProcEvent::Crash(p));
                    // In oracle mode, survivors are told to suspect the crashed
                    // process (the runtime's stand-in for Ω, exactly like the
                    // simulator's perfect failure detector). In detector mode they
                    // must notice the silence themselves.
                    if shared.detector.is_none() {
                        broadcast_control(&mut control, &seats, ENV_SUSPECT, p);
                    }
                }
                FaultEvent::Restart(p) => {
                    let incarnation = incarnations.entry(p).and_modify(|i| *i += 1).or_insert(1);
                    let incarnation = *incarnation;
                    let shard = shared.membership.shard_of(p);
                    let protocol = factory(p, shard, shared.config, incarnation);
                    let transport = make_transport(&mesh, Some(&chaos), planet.as_ref(), p, batch)
                        .expect("bind restarted replica endpoint");
                    // The restarted incarnation is seeded with the oracle's knowledge
                    // of who else is down — only in oracle mode; a detector-mode
                    // incarnation starts neutral and re-suspects on its own.
                    let initial_suspects: Vec<ProcessId> = {
                        let mut down = shared.down.lock().expect("down lock");
                        down.remove(&p);
                        if shared.detector.is_none() {
                            down.iter().copied().collect()
                        } else {
                            Vec::new()
                        }
                    };
                    let seat = spawn_replica(
                        protocol,
                        transport,
                        incarnation,
                        initial_suspects,
                        Arc::clone(&shared),
                    );
                    seats.lock().expect("seats lock").insert(p, seat);
                    if shared.detector.is_none() {
                        broadcast_control(&mut control, &seats, ENV_UNSUSPECT, p);
                    }
                }
                // Partitions, lossy links and delay spikes were absorbed into the
                // nemesis state by `advance` and are enforced by the ChaosTransports.
                _ => {}
            }
        }
    }
}

fn broadcast_control(
    control: &mut tempo_net::TcpTransport,
    seats: &Arc<Mutex<BTreeMap<ProcessId, Seat>>>,
    tag: u8,
    about: ProcessId,
) {
    let bytes = encode_control(tag, about);
    let targets: Vec<ProcessId> = seats
        .lock()
        .expect("seats lock")
        .keys()
        .copied()
        .filter(|q| *q != about)
        .collect();
    for q in targets {
        control.send(q, &bytes);
    }
    control.flush();
}

fn make_transport(
    mesh: &TcpMesh,
    chaos: Option<&Arc<ChaosNet>>,
    planet: Option<&Arc<PlanetNet>>,
    id: ProcessId,
    batch: bool,
) -> std::io::Result<Box<dyn Transport>> {
    let mut transport: Box<dyn Transport> = Box::new(mesh.endpoint(id, batch)?);
    if let Some(net) = planet {
        transport = Box::new(PlanetTransport::new(transport, Arc::clone(net)));
    }
    if let Some(net) = chaos {
        transport = Box::new(ChaosTransport::new(transport, Arc::clone(net)));
    }
    Ok(transport)
}

// -------------------------------------------------------------------- cluster

/// A running networked cluster. Not generic over the protocol: the protocol type is
/// fixed at [`NetCluster::start`] and lives inside the replica threads (and the
/// supervisor's factory), so clients and shutdown stay protocol-agnostic.
pub struct NetCluster {
    pub(crate) shared: Arc<Shared>,
    mesh: TcpMesh,
    planet_net: Option<Arc<PlanetNet>>,
    chaos: Option<Arc<ChaosNet>>,
    seats: Arc<Mutex<BTreeMap<ProcessId, Seat>>>,
    dead: Arc<Mutex<Vec<ReplicaExit>>>,
    supervisor: Option<JoinHandle<()>>,
    done: Arc<AtomicBool>,
}

/// Everything a finished run reports.
#[derive(Debug)]
pub struct RuntimeReport {
    /// Per replica-incarnation protocol metrics (crashed incarnations included).
    pub metrics: Vec<ProtocolMetrics>,
    /// Aggregated transport traffic across all replica endpoints.
    pub transport: TransportStats,
    /// Faults injected and their frame-level effects (empty without a nemesis).
    pub faults: FaultSummary,
    /// Failure-detector activity summed over all replica incarnations (all zero in
    /// oracle mode, i.e. without [`NetOpts::detector`]).
    pub detector: DetectorStats,
    /// The recorded history, when [`NetOpts::record_history`] was set.
    pub history: Option<History>,
    /// The merged, time-sorted lifecycle trace, when [`NetOpts::trace`] was set.
    pub trace: Option<TraceLog>,
    /// Per-phase latency fold of [`trace`](RuntimeReport::trace).
    pub phases: Option<tempo_trace::PhaseLatencies>,
    /// Per-replica counter time series, when [`NetOpts::metrics_interval`] was set.
    pub registry: Option<tempo_trace::MetricsRegistry>,
    /// Wall-clock duration of the run, cluster start to shutdown.
    pub duration: Duration,
}

impl RuntimeReport {
    /// Field-wise sum of the per-incarnation metrics.
    pub fn total_metrics(&self) -> ProtocolMetrics {
        let mut total = ProtocolMetrics::default();
        for m in &self.metrics {
            total.merge(m);
        }
        total
    }
}

impl NetCluster {
    /// Starts one replica thread per process of `config`, each built by `factory`
    /// (incarnation 0) around its own transport endpoint; with a nemesis schedule in
    /// `opts`, also starts the supervisor that injects crashes and restarts.
    pub fn start<P>(
        config: Config,
        opts: NetOpts,
        mut factory: RuntimeFactory<P>,
    ) -> std::io::Result<NetCluster>
    where
        P: Protocol + Send + 'static,
        P::Message: Wire + Send + 'static,
    {
        let membership = Membership::from_config(&config);
        let mesh = TcpMesh::new();
        let chaos = opts
            .nemesis
            .clone()
            .map(|schedule| Arc::new(ChaosNet::new(schedule, opts.seed)));
        let epoch = chaos
            .as_ref()
            .map(|c| c.epoch())
            .unwrap_or_else(Instant::now);
        if let Some(planet) = &opts.planet {
            assert!(
                planet.len() >= membership.sites(),
                "the planet has {} regions but the config needs {} sites",
                planet.len(),
                membership.sites()
            );
        }
        let planet_net = opts.planet.as_ref().map(|planet| {
            let net = Arc::new(PlanetNet::new(planet.clone()));
            for id in membership.all_processes() {
                net.register(id, membership.site_of(id));
            }
            net
        });
        let tracers = if opts.trace {
            membership
                .all_processes()
                .into_iter()
                .map(|p| (p, Tracer::with_capacity(DEFAULT_TRACE_CAPACITY)))
                .collect()
        } else {
            BTreeMap::new()
        };
        let shared = Arc::new(Shared {
            config,
            membership: membership.clone(),
            epoch,
            down: Mutex::new(BTreeSet::new()),
            history: opts.record_history.then(|| Mutex::new(History::new())),
            client_timeout: opts.client_timeout,
            planet: opts.planet.clone(),
            detector: opts.detector,
            tracers,
            registry: opts
                .metrics_interval
                .map(|_| Mutex::new(tempo_trace::MetricsRegistry::new())),
            metrics_interval_us: opts.metrics_interval.map(|d| d.as_micros() as u64),
        });
        let seats = Arc::new(Mutex::new(BTreeMap::new()));
        for id in membership.all_processes() {
            let shard = membership.shard_of(id);
            let protocol = factory(id, shard, config, 0);
            let transport =
                make_transport(&mesh, chaos.as_ref(), planet_net.as_ref(), id, opts.batch)?;
            let seat = spawn_replica(protocol, transport, 0, Vec::new(), Arc::clone(&shared));
            seats.lock().expect("seats lock").insert(id, seat);
        }
        let dead = Arc::new(Mutex::new(Vec::new()));
        let done = Arc::new(AtomicBool::new(false));
        let supervisor = chaos.as_ref().map(|net| {
            let net = Arc::clone(net);
            let mesh = mesh.clone();
            let planet = planet_net.clone();
            let shared = Arc::clone(&shared);
            let seats = Arc::clone(&seats);
            let dead = Arc::clone(&dead);
            let done = Arc::clone(&done);
            let batch = opts.batch;
            std::thread::Builder::new()
                .name("supervisor".to_string())
                .spawn(move || {
                    supervisor_loop(net, mesh, planet, shared, seats, dead, done, factory, batch)
                })
                .expect("spawn supervisor thread")
        });
        Ok(NetCluster {
            shared,
            mesh,
            planet_net,
            chaos,
            seats,
            dead,
            supervisor,
            done,
        })
    }

    /// The deployment configuration.
    pub fn config(&self) -> Config {
        self.shared.config
    }

    /// The phase-latency fold of everything traced so far, without draining the
    /// rings (the eventual [`shutdown`](NetCluster::shutdown) report still sees
    /// every event). `None` when [`NetOpts::trace`] is off. This is how the load
    /// driver surfaces a phase breakdown alongside its latency report.
    pub fn phases_so_far(&self) -> Option<tempo_trace::PhaseLatencies> {
        if self.shared.tracers.is_empty() {
            return None;
        }
        let mut fold = tempo_trace::PhaseBreakdown::new();
        for tracer in self.shared.tracers.values() {
            fold.record_log(&tracer.snapshot());
        }
        Some(fold.finish())
    }

    /// Builds a client-side transport endpoint colocated with `site`: planet-wrapped
    /// (clients live in regions too) but chaos-exempt, like the simulator's client
    /// bookkeeping. Shared by [`ClientSession`] and the load driver's pumps.
    pub(crate) fn client_transport(
        &self,
        site: SiteId,
        client: ClientId,
    ) -> std::io::Result<Box<dyn Transport>> {
        assert!(
            (site as usize) < self.shared.membership.sites(),
            "site out of range"
        );
        let id = CLIENT_ID_BASE + client;
        if let Some(net) = &self.planet_net {
            net.register(id, site);
        }
        make_transport(&self.mesh, None, self.planet_net.as_ref(), id, true)
    }

    /// Opens a client session colocated with `site`. Commands submitted through it
    /// must carry `Rifl`s with this `client` id (that is how execution notices find
    /// their way back).
    pub fn client(&self, site: SiteId, client: ClientId) -> std::io::Result<ClientSession> {
        let transport = self.client_transport(site, client)?;
        Ok(ClientSession {
            id: client,
            site,
            transport,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Stops every replica (and the supervisor) and collects the report.
    pub fn shutdown(mut self) -> RuntimeReport {
        self.done.store(true, Ordering::Relaxed);
        let mut exits: Vec<ReplicaExit> = Vec::new();
        // Join the supervisor first so it cannot race replica teardown with a
        // concurrent restart.
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
        let seats = std::mem::take(&mut *self.seats.lock().expect("seats lock"));
        for (_, seat) in seats {
            seat.stop.store(true, Ordering::Relaxed);
            if let Ok(exit) = seat.handle.join() {
                exits.push(exit);
            }
        }
        exits.extend(self.dead.lock().expect("dead lock").drain(..));
        let mut transport = TransportStats::default();
        let mut detector = DetectorStats::default();
        for (_, stats, det) in &exits {
            transport.merge(stats);
            detector.merge(det);
        }
        let mut faults = self.chaos.as_ref().map(|c| c.summary()).unwrap_or_default();
        // Frames the transport layer discarded because their destination incarnation
        // had been replaced are crash casualties: count them where the simulator
        // counts frames lost to a crashed process.
        faults.dropped_crash += transport.frames_dropped_stale;
        // Drain the per-replica rings in ProcessId order and time-sort the merge;
        // wall-clock timestamps mean runtime traces are *not* run-to-run identical
        // (the sim's are) but the fold and export are deterministic given the log.
        let trace = (!self.shared.tracers.is_empty()).then(|| {
            let mut log = TraceLog::default();
            for tracer in self.shared.tracers.values() {
                log.merge(tracer.take());
            }
            log.sort_by_time();
            log
        });
        let phases = trace.as_ref().map(|log| {
            let mut fold = tempo_trace::PhaseBreakdown::new();
            fold.record_log(log);
            fold.finish()
        });
        RuntimeReport {
            metrics: exits.into_iter().map(|(m, _, _)| m).collect(),
            transport,
            faults,
            detector,
            history: self
                .shared
                .history
                .as_ref()
                .map(|h| h.lock().expect("history lock").clone()),
            trace,
            phases,
            registry: self
                .shared
                .registry
                .as_ref()
                .map(|r| r.lock().expect("registry lock").clone()),
            duration: self.shared.epoch.elapsed(),
        }
    }
}

// -------------------------------------------------------------------- clients

/// A client attached to the cluster through its own transport endpoint, submitting
/// commands synchronously with the simulator's completion semantics.
pub struct ClientSession {
    id: ClientId,
    site: SiteId,
    transport: Box<dyn Transport>,
    shared: Arc<Shared>,
}

impl ClientSession {
    /// This session's client id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Submits `cmd` and blocks until the watched replica of every accessed shard
    /// reported execution, returning the observed per-key outputs — or `None` after
    /// the client timeout (the command is recorded as aborted; it may still take
    /// effect, exactly like a timed-out client in the simulator).
    pub fn submit(&mut self, cmd: Command) -> Option<Vec<(ShardId, Key, Option<u64>)>> {
        let rifl = cmd.rifl;
        debug_assert_eq!(rifl.client, self.id, "command must carry this client's id");
        if let Some(history) = &self.shared.history {
            history.lock().expect("history lock").record_invoke(
                rifl,
                cmd.clone(),
                self.shared.now_us(),
            );
        }
        // Pick, per accessed shard, the replica to watch (closest live); the
        // submission goes to the watched replica of the target shard.
        let mut watch = Watch::default();
        let Some(target) = self.shared.begin_watch(&mut watch, &cmd, self.site) else {
            // Some accessed shard has every replica down.
            return self.abort(rifl);
        };
        self.transport.send(target, &encode_request(&cmd));
        self.transport.flush();

        let deadline = Instant::now() + self.shared.client_timeout;
        let mut outputs: Vec<(ShardId, Key, Option<u64>)> = Vec::new();
        loop {
            let now = Instant::now();
            if now >= deadline {
                return self.abort(rifl);
            }
            let slice = (deadline - now).min(Duration::from_millis(50));
            match self.transport.recv_timeout(slice) {
                Ok((from, bytes)) => {
                    let Some(reply) = decode_reply(&bytes) else {
                        continue;
                    };
                    // Only the watched replica's notice counts (stale replies from
                    // earlier commands, or from unwatched replicas, are ignored).
                    let notice = watch.notice(reply.rifl, reply.shard, from);
                    if notice == Notice::Ignored {
                        continue;
                    }
                    outputs.extend(reply.outputs.iter().map(|(k, v)| (reply.shard, *k, *v)));
                    if let Notice::Completed(replied_by) = notice {
                        // The reply observed at the client, attributed to the replica
                        // whose notice completed the command.
                        self.shared.tracer(replied_by).phase(
                            self.shared.now_us(),
                            replied_by,
                            rifl,
                            CmdPhase::Replied,
                        );
                        if let Some(history) = &self.shared.history {
                            history.lock().expect("history lock").record_complete(
                                rifl,
                                self.shared.now_us(),
                                outputs.clone(),
                            );
                        }
                        return Some(outputs);
                    }
                }
                Err(RecvError::Timeout) => {}
                Err(RecvError::Closed) => return self.abort(rifl),
            }
        }
    }

    fn abort(&mut self, rifl: Rifl) -> Option<Vec<(ShardId, Key, Option<u64>)>> {
        if let Some(history) = &self.shared.history {
            history.lock().expect("history lock").record_abort(rifl);
        }
        None
    }
}

/// Per-run client accounting of [`run_workload`].
#[derive(Debug, Clone, Default)]
pub struct WorkloadTally {
    /// Commands completed across all clients.
    pub completed: u64,
    /// Commands aborted (client timeout or no live replica).
    pub aborted: u64,
    /// Per-command completion latency across all clients, in microseconds (measured
    /// submit-to-completion — closed-loop, so there is no intended-arrival time).
    pub latency: LogHistogram,
}

/// Runs a closed-loop workload against the cluster: `clients_per_site` client threads
/// per site, each issuing `commands_per_client` commands from the shared `workload`
/// through its own [`ClientSession`] — the networked analogue of the simulator's
/// client loop.
pub fn run_workload<W: Workload + Send + 'static>(
    cluster: &NetCluster,
    clients_per_site: usize,
    commands_per_client: usize,
    workload: W,
) -> WorkloadTally {
    let workload = Arc::new(Mutex::new(workload));
    let mut threads = Vec::new();
    let sites = cluster.shared.membership.sites() as u64;
    let mut client_id: ClientId = 0;
    for site in 0..sites {
        for _ in 0..clients_per_site {
            let mut session = cluster.client(site, client_id).expect("client endpoint");
            let workload = Arc::clone(&workload);
            client_id += 1;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("client-{}", session.id()))
                    .spawn(move || {
                        let mut tally = WorkloadTally::default();
                        for _ in 0..commands_per_client {
                            let cmd = {
                                let mut workload = workload.lock().expect("workload lock");
                                workload.next_command(session.id())
                            };
                            let submitted = Instant::now();
                            if session.submit(cmd).is_some() {
                                tally.completed += 1;
                                tally.latency.record(submitted.elapsed().as_micros() as u64);
                            } else {
                                tally.aborted += 1;
                            }
                        }
                        tally
                    })
                    .expect("spawn client thread"),
            );
        }
    }
    let mut total = WorkloadTally::default();
    for thread in threads {
        let tally = thread.join().expect("client thread");
        total.completed += tally.completed;
        total.aborted += tally.aborted;
        total.latency.merge(&tally.latency);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_core::Tempo;
    use tempo_kernel::command::KVOp;
    use tempo_workload::ConflictWorkload;

    fn tempo_factory() -> RuntimeFactory<Tempo> {
        Box::new(|id, shard, config, _incarnation| Tempo::new(id, shard, config))
    }

    #[test]
    fn commands_complete_over_real_sockets() {
        let cluster = NetCluster::start(
            Config::full(3, 1),
            NetOpts {
                record_history: true,
                ..NetOpts::default()
            },
            tempo_factory(),
        )
        .expect("cluster starts");
        let mut session = cluster.client(0, 1).expect("client");
        for seq in 1..=10u64 {
            let cmd = Command::single(Rifl::new(1, seq), 0, seq % 3, KVOp::Put(seq), 0);
            let outputs = session.submit(cmd).expect("command completes");
            assert_eq!(outputs.len(), 1, "one key, one output");
        }
        // A read observes the last write to its key through the real stack.
        let outputs = session
            .submit(Command::single(Rifl::new(1, 11), 0, 1, KVOp::Get, 0))
            .expect("read completes");
        assert_eq!(
            outputs,
            vec![(0, 1, Some(10))],
            "Get must see Put(10) on key 1"
        );
        drop(session);
        let report = cluster.shutdown();
        let total = report.total_metrics();
        assert!(total.committed >= 11, "commits: {total:?}");
        // The driver's per-destination message count survives the replica threads.
        assert!(total.messages_sent >= 4, "messages: {total:?}");
        assert!(
            report.transport.frames_sent > 0 && report.transport.bytes_sent > 0,
            "traffic must have crossed the transport: {:?}",
            report.transport
        );
        report
            .history
            .expect("history recorded")
            .check()
            .expect("failure-free run passes the checker");
    }

    #[test]
    fn concurrent_clients_from_every_site() {
        // 40 ms between sites: a Tempo fast path needs a round trip to the closest
        // remote replica, so no command can complete in much less than 40 ms.
        let opts = NetOpts {
            planet: Some(Planet::equidistant(3, 40.0)),
            ..NetOpts::default()
        };
        let cluster =
            NetCluster::start(Config::full(3, 1), opts, tempo_factory()).expect("cluster starts");
        let tally = run_workload(&cluster, 2, 5, ConflictWorkload::new(0.2, 16, 7));
        assert_eq!(
            tally.completed,
            3 * 2 * 5,
            "all commands complete: {tally:?}"
        );
        assert_eq!(tally.aborted, 0);
        assert!(
            tally.latency.quantile_us(0.0) >= 35_000,
            "expected a wide-area round trip: {:?}",
            tally.latency.summary()
        );
        let report = cluster.shutdown();
        assert!(report.total_metrics().executed > 0);
    }

    /// The Atlas baseline (dependency-based, graph executor) must run on the same
    /// networked stack as Tempo — that is what puts it on the load-plane plots.
    #[test]
    fn atlas_baseline_completes_over_real_sockets() {
        use tempo_atlas::Atlas;
        let factory: RuntimeFactory<Atlas> =
            Box::new(|id, shard, config, _incarnation| Atlas::new(id, shard, config));
        let cluster = NetCluster::start(Config::full(3, 1), NetOpts::default(), factory)
            .expect("cluster starts");
        let tally = run_workload(&cluster, 2, 5, ConflictWorkload::new(0.3, 16, 11));
        assert_eq!(tally.completed, 3 * 2 * 5, "all complete: {tally:?}");
        let report = cluster.shutdown();
        assert!(report.total_metrics().fast_paths > 0, "fast paths taken");
    }

    #[test]
    fn unbatched_transport_also_completes() {
        let cluster = NetCluster::start(
            Config::full(3, 1),
            NetOpts {
                batch: false,
                ..NetOpts::default()
            },
            tempo_factory(),
        )
        .expect("cluster starts");
        let tally = run_workload(&cluster, 1, 3, ConflictWorkload::new(0.0, 16, 9));
        assert_eq!(tally.completed, 9);
        let report = cluster.shutdown();
        // Unbatched mode flushes per send: at least one flush per frame.
        assert!(report.transport.flushes >= report.transport.frames_sent);
    }
}
