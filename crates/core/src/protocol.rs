//! The Tempo protocol state machine (Algorithms 1-6 of the paper).
//!
//! One [`Tempo`] instance runs per process, i.e. per (site, shard) pair. The instance
//! implements:
//!
//! * the **commit protocol** (§3.1): fast path when the highest timestamp proposal is made
//!   by at least `f` fast-quorum processes, slow path through single-decree Flexible Paxos
//!   otherwise;
//! * the **execution protocol** (§3.2): promises, background stability detection
//!   (Theorem 1) and execution in `⟨timestamp, id⟩` order;
//! * the **multi-partition protocol** (§4): per-shard coordinators, final timestamp as the
//!   maximum over shards, `MBump` for faster stability and the `MStable` exchange;
//! * the **recovery protocol** (§5 / Algorithm 4) and the liveness mechanisms of
//!   Appendix B (`MRecNAck`, `MCommitRequest`, periodic payload resend).

use crate::clock::Clock;
use crate::executor::{keys_at, ExecutionInfo, Placement, TempoExecutor};
use crate::gc::GcTracker;
use crate::info::{CommandInfo, Phase};
use crate::messages::{Message, PromiseBundle, Quorums, RecPhase};
use crate::promises::{PromiseRange, PromiseTracker};
use crate::stability::KeyStability;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use tempo_kernel::command::{Command, Key};
use tempo_kernel::config::Config;
use tempo_kernel::id::{Dot, DotGen, ProcessId, ShardId};
use tempo_kernel::membership::Membership;
use tempo_kernel::protocol::{
    Action, Executed, Executor, Protocol, ProtocolMetrics, TimerId, View,
};
use tempo_kernel::trace::{CmdPhase, ProcEvent, Tracer};
use tempo_kernel::util::max_and_count;
use tempo_store::snapshot::{AcceptState, KeyFloor, QueuedCommit};
use tempo_store::{Snapshot, Store, WalRecord};

/// Timer driving the periodic `MPromises` broadcast (Algorithm 2, line 45).
pub const TIMER_PROMISES: TimerId = TimerId(1);
/// Timer driving the liveness scan: payload resend, `MCommitRequest` and recovery
/// take-over for commands pending too long (Appendix B).
pub const TIMER_LIVENESS: TimerId = TimerId(2);

/// Most missing sequences considered per origin per `MPromises` frontier report when
/// scanning for commit holes (see `Tempo::note_commit_holes`).
const HOLE_SCAN_LIMIT: usize = 32;
/// Most commit-hole suspects tracked at once.
const HOLE_SUSPECT_CAP: usize = 256;

/// Tunable options of the Tempo implementation. The defaults match the configuration
/// evaluated in the paper; the other settings are used by the ablation benchmarks.
#[derive(Debug, Clone, Copy)]
pub struct TempoOptions {
    /// Send `MBump` messages to colocated sibling-shard processes when proposing
    /// (§4, "Faster stability"). Only relevant for multi-shard commands.
    pub mbump: bool,
    /// Piggyback promises on `MProposeAck`/`MCommit` (§3.2). Disabling this forces
    /// stability to be driven solely by the periodic `MPromises` broadcast.
    pub piggyback_promises: bool,
    /// Ablation: take the fast path only when *all* fast-quorum proposals are equal
    /// (an EPaxos-like condition) instead of Tempo's `count(max) >= f`.
    pub all_equal_fast_path: bool,
    /// How long a command may stay pending before this process (if it is the shard
    /// leader) starts recovery for it, in microseconds.
    pub recovery_timeout_us: u64,
    /// How long a command may stay pending before a non-leader process asks for the
    /// commit outcome (`MCommitRequest`) and re-sends the payload, in microseconds.
    pub commit_request_timeout_us: u64,
    /// Interval of the periodic `MPromises` broadcast (the paper flushes sockets every
    /// 5 ms), in microseconds. Registered by the protocol itself via
    /// [`Action::Schedule`] on [`TIMER_PROMISES`].
    pub promise_interval_us: u64,
    /// Interval of the liveness scan over pending commands, in microseconds
    /// ([`TIMER_LIVENESS`]).
    pub liveness_interval_us: u64,
    /// After the `MRejoin` handshake, request a snapshot of the applied state from a
    /// shard peer (`MStateRequest`/`MState`) and gate execution until it installs:
    /// even with a durable store the replica misses every command committed while it
    /// was down, and serving reads around that gap would be stale (DESIGN.md §6).
    /// Disabled only by tests that demonstrate the amnesia gap.
    pub state_transfer: bool,
    /// Install a durable snapshot (truncating the WAL) once this many records have
    /// been appended since the previous snapshot. Only relevant with a store.
    pub snapshot_every_appends: u64,
    /// Persist clock floors in chunks of this many timestamps: one `ClockFloor` record
    /// covers the next `clock_floor_chunk` proposals, and a restart skips at most that
    /// many unused timestamps (it can never reuse a promised one).
    pub clock_floor_chunk: u64,
    /// Persist dot floors in chunks of this many sequences (mirroring
    /// `clock_floor_chunk`): one `DotFloor` record covers the next
    /// `dot_floor_chunk` submissions, so dot uniqueness across store-backed restarts
    /// holds by replay alone — without relying on the incarnation bands
    /// (`incarnation << 48`) that diskless rejoins need.
    pub dot_floor_chunk: u64,
}

impl Default for TempoOptions {
    fn default() -> Self {
        Self {
            mbump: true,
            piggyback_promises: true,
            all_equal_fast_path: false,
            recovery_timeout_us: 2_000_000,
            commit_request_timeout_us: 1_000_000,
            promise_interval_us: 5_000,
            liveness_interval_us: 5_000,
            state_transfer: true,
            snapshot_every_appends: 256,
            clock_floor_chunk: 64,
            dot_floor_chunk: 64,
        }
    }
}

/// The Tempo protocol instance at one process.
#[derive(Debug)]
pub struct Tempo {
    process: ProcessId,
    shard: ShardId,
    config: Config,
    options: TempoOptions,
    view: View,
    membership: Membership,
    /// Processes of this shard, in identifier order (defines ballot ranks). Shared so
    /// that shard-wide sends cost a reference bump, not a `Vec` clone per call.
    shard_peers: Arc<[ProcessId]>,
    /// This process's rank within the shard, in `1..=n`.
    rank: u64,
    dot_gen: DotGen,
    clock: Clock,
    /// The commit-gated promise tracker (Algorithm 2): attached promises enter it only
    /// once their command commits locally (line 47). It is the only source of what
    /// this process ships about promises: the `MPromises` frontier, `MRejoinAck`
    /// prefixes and `MPromiseRepair`.
    promises: PromiseTracker,
    /// Per-key stability detection over the receipt-fed promise tracker (everything the
    /// commit-gated one gets, plus each attached promise as soon as its command's
    /// payload is known; never shipped): releases committed commands to the executor
    /// once they are stable on their keys (see [`crate::stability`]).
    key_stability: KeyStability,
    info: BTreeMap<Dot, CommandInfo>,
    /// Dots not yet committed at this process (for the periodic liveness scan).
    pending: BTreeSet<Dot>,
    /// The execution stage: stability-ordered execution (Algorithm 2/3).
    executor: TempoExecutor,
    /// Committed-command GC: executed watermarks of this process and its shard peers.
    gc: GcTracker,
    /// Timestamps this process attached to commands that are not yet executed at every
    /// shard peer, as `(timestamp, dot)` (with the inverse map for pruning). The safe
    /// promise frontier broadcast in `MPromises` stays below the smallest of them.
    attached_pending: BTreeSet<(u64, Dot)>,
    /// Inverse of `attached_pending`, for O(log n) pruning when a dot is collected.
    attached_ts: BTreeMap<Dot, u64>,
    /// The highest safe promise frontier already broadcast (to skip no-news sends).
    last_frontier_sent: u64,
    /// Commands committed but skipped by the execution stage because local stability
    /// had already passed their timestamp (only possible at restarted incarnations;
    /// see `commit_with`).
    exec_skipped: u64,
    /// Last time the execution stage made progress (for stall detection).
    last_exec_progress_us: u64,
    /// Last time this process asked peers to re-state their promises (rate limit).
    last_repair_request_us: u64,
    metrics: ProtocolMetrics,
    /// Processes suspected to have failed (used to pick the recovery leader and to avoid
    /// dead processes when choosing fast quorums for new commands).
    suspected: BTreeSet<ProcessId>,
    /// Whether this instance is a full participant. `false` only between a restart (see
    /// [`Protocol::rejoin`]) and the completion of the `MRejoin` handshake: until then
    /// the process makes no timestamp proposals, because its clock restarted at zero and
    /// a proposal below a previous incarnation's promises would break Theorem 1.
    joined: bool,
    /// 1-based restart count of this process (0 = never restarted).
    incarnation: u64,
    /// Shard peers that answered the current `MRejoin` handshake.
    rejoin_acks: BTreeSet<ProcessId>,
    /// The durable backing store, when this replica persists its state (see
    /// [`Tempo::with_store`] and DESIGN.md §6). `None` = diskless (the baseline).
    store: Option<Box<dyn Store>>,
    /// The highest `ClockFloor` persisted to the WAL. Floors are persisted in chunks
    /// ahead of the live clock, so most proposals append nothing.
    persisted_clock: u64,
    /// The highest `DotFloor` persisted to the WAL (chunked like the clock floor, so
    /// most submissions append nothing).
    persisted_dot_floor: u64,
    /// The store's append count as of the last snapshot (snapshot pacing).
    appends_at_snapshot: u64,
    /// Whether this instance was restored from a non-empty store. Like a restarted
    /// incarnation, a restored one never *claims* promise ranges: its own pre-crash
    /// attached proposals are not individually logged, so any prefix claim could cover
    /// a still-gated attachment at a peer (DESIGN.md §5).
    recovered: bool,
    /// Set between the completion of the rejoin handshake and the installation of a
    /// peer's `MState`: execution (and thus read service) stays gated so the replica
    /// cannot answer reads from a store missing the commands it slept through.
    awaiting_state: bool,
    /// Commits that arrived after a later command on some of their keys already
    /// executed here, and that no state transfer covered ([`Placement::Behind`]), with
    /// their keys. Feeding such a command to the executor would execute it out of
    /// order on that key, and skipping it silently would leave a hole in the store
    /// while later commands keep reading from it — so the executor is gated until a
    /// state transfer whose floors cover every recorded gap is installed.
    exec_gaps: BTreeMap<(u64, Dot), Vec<Key>>,
    /// Suspected commit holes: dots covered by a shard peer's executed frontier
    /// (piggybacked on `MPromises`) that this process has no record of — no
    /// `CommandInfo`, not executed, not collected. Such a dot is a commit this replica
    /// may have missed entirely (e.g. the `MCommit` was dropped while the link was
    /// lossy, or broadcast while the replica was down); stability can then pass the
    /// command via the peers' promises without this replica ever holding it, leaving
    /// a silent hole in the store. Values are `(first_seen_us, last_probe_us)`:
    /// suspects older than the probe timeout are asked around (`MCommitRequest`) from
    /// the liveness timer — in-flight commits resolve themselves within the grace
    /// period — and the answered commit is placed against its keys' execution
    /// floors in `commit_with` (executed in order, or skipped and gated behind a
    /// state transfer).
    hole_suspects: BTreeMap<Dot, (u64, u64)>,
    /// Last time an `MStateRequest` was sent (retry pacing under message loss).
    last_state_request_us: u64,
    /// `MStateRequest` attempts so far (rotates the target across live peers).
    state_request_attempts: u64,
    /// Lifecycle tracing handle (disabled by default; see [`Protocol::attach_tracer`]).
    tracer: Tracer,
}

impl Tempo {
    /// Creates a Tempo instance with non-default options.
    pub fn with_options(
        process: ProcessId,
        shard: ShardId,
        config: Config,
        options: TempoOptions,
    ) -> Self {
        let membership = Membership::from_config(&config);
        debug_assert_eq!(membership.shard_of(process), shard);
        let shard_peers: Arc<[ProcessId]> = membership.processes_of_shard(shard).into();
        let rank = shard_peers
            .iter()
            .position(|p| *p == process)
            .expect("process must belong to its shard") as u64
            + 1;
        let promises = PromiseTracker::new(&shard_peers, config.stability_index());
        let key_stability = KeyStability::new(&shard_peers, config.stability_index());
        let gc = GcTracker::new(process, &shard_peers);
        let view = View::trivial(config, process);
        Self {
            process,
            shard,
            config,
            options,
            view,
            membership,
            shard_peers,
            rank,
            dot_gen: DotGen::new(process),
            clock: Clock::new(),
            promises,
            key_stability,
            info: BTreeMap::new(),
            pending: BTreeSet::new(),
            executor: TempoExecutor::new(process, shard, config),
            gc,
            attached_pending: BTreeSet::new(),
            attached_ts: BTreeMap::new(),
            last_frontier_sent: 0,
            exec_skipped: 0,
            last_exec_progress_us: 0,
            last_repair_request_us: 0,
            metrics: ProtocolMetrics::default(),
            suspected: BTreeSet::new(),
            joined: true,
            incarnation: 0,
            rejoin_acks: BTreeSet::new(),
            store: None,
            persisted_clock: 0,
            persisted_dot_floor: 0,
            appends_at_snapshot: 0,
            recovered: false,
            awaiting_state: false,
            exec_gaps: BTreeMap::new(),
            hole_suspects: BTreeMap::new(),
            last_state_request_us: 0,
            state_request_attempts: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Creates a Tempo instance backed by a durable [`Store`]: every per-dot
    /// ballot/accept/commit and the clock floor are written ahead to it, periodic
    /// snapshots truncate its WAL, and — crucially — the instance *recovers from it
    /// right here*: the snapshot is installed and the WAL suffix replayed before the
    /// first message is handled, so a replica rebuilt after a crash starts from its
    /// pre-crash accepts and commits instead of blank (DESIGN.md §6).
    pub fn with_store(
        process: ProcessId,
        shard: ShardId,
        config: Config,
        options: TempoOptions,
        mut store: Box<dyn Store>,
    ) -> Self {
        let mut tempo = Self::with_options(process, shard, config, options);
        let (snapshot, wal) = store.load();
        tempo.store = Some(store);
        tempo.recover_from_store(snapshot, wal);
        tempo
    }

    /// The options in use.
    pub fn options(&self) -> &TempoOptions {
        &self.options
    }

    /// Current clock value (exposed for tests and diagnostics).
    pub fn clock_value(&self) -> u64 {
        self.clock.value()
    }

    /// The highest stable timestamp at this process (Theorem 1), from the commit-gated
    /// tracker: every command with a timestamp at or below it is committed here.
    pub fn stable_timestamp(&self) -> u64 {
        self.promises.stable_timestamp()
    }

    /// The receipt-fed stability watermark: like [`Self::stable_timestamp`], but
    /// attached promises count once their command's payload is known here. It drives
    /// per-key stability and is never shipped.
    pub fn receipt_stable_timestamp(&self) -> u64 {
        self.key_stability.watermark()
    }

    /// The phase of a command at this process, if known.
    pub fn phase_of(&self, dot: Dot) -> Option<Phase> {
        self.info.get(&dot).map(|i| i.phase)
    }

    /// Number of commands with live metadata at this process. Bounded in steady state:
    /// the executed-watermark GC drops entries once every shard peer executed them.
    pub fn info_len(&self) -> usize {
        self.info.len()
    }

    /// Read access to the committed-command GC state (tests and diagnostics).
    pub fn gc_tracker(&self) -> &GcTracker {
        &self.gc
    }

    /// The consensus state `(ts, bal, abal)` of a command at this process, if any
    /// (diagnostics and durability tests: this is exactly what `Ballot`/`Accept` WAL
    /// records must bring back after a crash).
    pub fn consensus_state(&self, dot: Dot) -> Option<(u64, u64, u64)> {
        self.info.get(&dot).map(|i| (i.ts, i.bal, i.abal))
    }

    /// Whether this instance is still waiting for a rejoin state transfer to install
    /// (execution is gated while true; see DESIGN.md §6).
    pub fn is_awaiting_state(&self) -> bool {
        self.awaiting_state
    }

    /// Commands committed at this process but never applied by the local executor:
    /// amnesia skips (no state transfer) plus transfer-covered duplicates.
    pub fn exec_skipped(&self) -> u64 {
        self.exec_skipped
    }

    /// The committed (final) timestamp of a command at this process, if committed.
    pub fn committed_timestamp(&self, dot: Dot) -> Option<u64> {
        self.info.get(&dot).and_then(|i| {
            if i.phase.is_committed_or_executed() {
                Some(i.final_ts)
            } else {
                None
            }
        })
    }

    /// Marks a process as suspected of having failed; the lowest non-suspected process of
    /// the shard acts as the recovery leader (a stand-in for the Ω failure detector of
    /// Appendix B), and new commands pick fast quorums avoiding suspected processes.
    pub fn suspect(&mut self, process: ProcessId) {
        self.suspected.insert(process);
    }

    /// Withdraws a suspicion (the process restarted and is participating again).
    pub fn unsuspect(&mut self, process: ProcessId) {
        self.suspected.remove(&process);
    }

    /// Whether this instance is a full participant (always true unless it restarted and
    /// its `MRejoin` handshake has not completed yet).
    pub fn is_joined(&self) -> bool {
        self.joined
    }

    /// Whether this process is the current recovery leader of its shard.
    pub fn is_leader(&self) -> bool {
        self.shard_peers
            .iter()
            .find(|p| !self.suspected.contains(p))
            .map(|p| *p == self.process)
            .unwrap_or(false)
    }

    /// Explicitly triggers recovery for a command (Algorithm 4, `recover`). Normally
    /// recovery is triggered from `tick` after `recovery_timeout_us`; tests and
    /// failure-injection harnesses may call this directly.
    pub fn recover(&mut self, dot: Dot, now_us: u64) -> Vec<Action<Message>> {
        let mut out = Vec::new();
        self.start_recovery(dot, now_us, &mut out);
        out
    }

    // ---------------------------------------------------------------- helpers

    fn info_mut(&mut self, dot: Dot, now_us: u64) -> &mut CommandInfo {
        self.info.entry(dot).or_insert_with(|| {
            // A dot first seen now; it is not yet pending (pending requires the payload).
            CommandInfo::new(now_us)
        })
    }

    fn next_ballot(&self, current: u64) -> u64 {
        let r = self.config.n() as u64;
        if current == 0 {
            self.rank
        } else {
            self.rank + r * ((current - 1) / r + 1)
        }
    }

    /// Sends `msg` to `targets` (which must be duplicate-free — every caller builds its
    /// target set from unique memberships); self-addressed copies are handled immediately
    /// (Algorithm 1 assumes immediate self-delivery) and any resulting actions are
    /// appended to `out`. The message is *moved* into the action or the self-dispatch —
    /// it is cloned only when it must go both ways.
    fn send(
        &mut self,
        targets: &[ProcessId],
        msg: Message,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        debug_assert!(
            targets
                .iter()
                .all(|t| targets.iter().filter(|u| *u == t).count() == 1),
            "send targets must be duplicate-free"
        );
        let to_self = targets.contains(&self.process);
        let remote: Vec<ProcessId> = targets
            .iter()
            .copied()
            .filter(|t| *t != self.process)
            .collect();
        if !remote.is_empty() {
            // `messages_sent` is counted per destination by the kernel `Driver`.
            if to_self {
                out.push(Action::send(remote, msg.clone()));
                let actions = self.dispatch(self.process, msg, now_us);
                out.extend(actions);
            } else {
                out.push(Action::send(remote, msg));
            }
        } else if to_self {
            let actions = self.dispatch(self.process, msg, now_us);
            out.extend(actions);
        }
    }

    /// Bumps the clock to `t`, registering the generated detached promises in the local
    /// tracker immediately (broadcast happens later through `MPromises`).
    fn clock_bump(&mut self, t: u64) {
        let before = self.clock.value();
        self.clock.bump(t);
        let after = self.clock.value();
        if after > before {
            self.add_promise(self.process, PromiseRange::new(before + 1, after));
            self.wal_log_clock_floor();
        }
    }

    /// Registers a promise range in both trackers (ranges carry no command, so the
    /// commit gate does not apply to them).
    fn add_promise(&mut self, process: ProcessId, range: PromiseRange) {
        self.promises.add(process, range);
        self.key_stability.add(process, range);
    }

    /// Registers the attached promise `⟨process, ts⟩` of a command that committed (or
    /// was collected) here in both trackers.
    fn add_committed_attached(&mut self, process: ProcessId, ts: u64) {
        self.promises.add_single(process, ts);
        self.key_stability.add(process, PromiseRange::single(ts));
    }

    /// Holds back the attached promise `⟨process, ts⟩` of the uncommitted command `dot`:
    /// from the commit-gated tracker until the command commits (Algorithm 2, line 47),
    /// from the receipt-fed one only until its payload — and thus its keys — is known.
    /// Once the payload is known, the proposal also blocks the command's keys.
    fn buffer_attached(&mut self, dot: Dot, process: ProcessId, ts: u64, now_us: u64) {
        let shard = self.shard;
        let keys = {
            let info = self.info_mut(dot, now_us);
            if info.buffered_attached.contains(&(process, ts)) {
                return;
            }
            info.buffered_attached.push((process, ts));
            info.cmd.as_ref().map(|cmd| keys_at(cmd, shard))
        };
        if let Some(keys) = keys {
            self.key_stability.propose(dot, &keys, process, ts);
        }
    }

    /// The payload of the uncommitted command `dot` just became known: its buffered
    /// attached promises enter the receipt-fed tracker and block its keys.
    fn payload_learned(&mut self, dot: Dot) {
        let Some(info) = self.info.get(&dot) else {
            return;
        };
        if info.phase.is_committed_or_executed() || info.buffered_attached.is_empty() {
            return;
        }
        let Some(cmd) = &info.cmd else {
            return;
        };
        let keys = keys_at(cmd, self.shard);
        for &(process, ts) in &info.buffered_attached {
            self.key_stability.propose(dot, &keys, process, ts);
        }
    }

    /// Computes a timestamp proposal for `dot`, registering promises locally. Returns the
    /// proposal and the detached range generated (if any), for piggybacking.
    fn clock_proposal(&mut self, dot: Dot, min: u64, now_us: u64) -> (u64, Option<PromiseRange>) {
        let before = self.clock.value();
        let t = self.clock.proposal(dot, min);
        let detached = if t > before + 1 {
            Some(PromiseRange::new(before + 1, t - 1))
        } else {
            None
        };
        if let Some(range) = detached {
            self.add_promise(self.process, range);
        }
        // The attached promise ⟨self, t⟩ only enters the commit-gated tracker once the
        // command commits locally (Algorithm 2, line 47); the payload is known, so it
        // enters the receipt-fed one now. It also pins the safe promise frontier below
        // `t` until the command is executed at every shard peer.
        if self.attached_ts.insert(dot, t).is_none() {
            self.attached_pending.insert((t, dot));
        }
        self.buffer_attached(dot, self.process, t, now_us);
        self.wal_log_clock_floor();
        (t, detached)
    }

    /// The safe promise frontier: every timestamp up to it is promised by this process,
    /// and every attached one among them belongs to a command executed at every shard
    /// peer. Broadcast in `MPromises` so that receivers can absorb the whole prefix —
    /// promise dissemination stays correct even when individual deltas are lost.
    ///
    /// A restarted (or store-restored) incarnation claims nothing (frontier 0, ever):
    /// it cannot enumerate the previous incarnation's still-in-flight attached
    /// proposals — those are not individually logged — so any prefix claim could cover
    /// a gated attachment and let a *healthy* replica's stability pass a command that
    /// has not committed there (see DESIGN.md §5). Its prefix at the peers simply
    /// stalls; stability proceeds through the other replicas.
    fn promise_frontier(&self) -> u64 {
        if self.incarnation > 0 || self.recovered {
            return 0;
        }
        match self.attached_pending.first() {
            Some((ts, _)) => self.clock.value().min(ts.saturating_sub(1)),
            None => self.clock.value(),
        }
    }

    fn all_replicas_of(&self, cmd: &Command) -> Vec<ProcessId> {
        self.view.all_replicas(cmd)
    }

    fn local_coordinators_of(&self, cmd: &Command) -> Vec<ProcessId> {
        self.view.local_coordinators(cmd)
    }

    /// A fast quorum of `size` processes of `shard` made of the closest replicas that are
    /// not suspected of having failed; suspected replicas fill remaining slots (in
    /// distance order) only when too few are left — a quorum must always be formed, and
    /// a wrong suspicion merely costs latency, never safety.
    fn alive_fast_quorum(&self, shard: ShardId, size: usize) -> Vec<ProcessId> {
        let closest = self.view.closest(shard);
        let mut quorum: Vec<ProcessId> = closest
            .iter()
            .copied()
            .filter(|p| !self.suspected.contains(p))
            .take(size)
            .collect();
        if quorum.len() < size {
            for p in closest {
                if quorum.len() == size {
                    break;
                }
                if !quorum.contains(p) {
                    quorum.push(*p);
                }
            }
        }
        assert!(
            quorum.len() == size,
            "shard {shard} cannot form a fast quorum"
        );
        quorum
    }

    /// The per-shard coordinators for a submission (`I^i_c`), preferring non-suspected
    /// replicas: the closest live replica of every accessed shard.
    fn alive_coordinators(&self, cmd: &Command) -> Vec<ProcessId> {
        cmd.shards()
            .map(|shard| {
                self.view
                    .closest(shard)
                    .iter()
                    .copied()
                    .find(|p| !self.suspected.contains(p))
                    .unwrap_or_else(|| self.view.closest_process(shard))
            })
            .collect()
    }

    // ------------------------------------------------------------- durability

    /// Appends one record to the durable store, if any. Appends are buffered; the
    /// kernel driver's persist hook syncs them before this step's messages leave.
    fn wal_append(&mut self, record: WalRecord) {
        if let Some(store) = &mut self.store {
            store.append(&record);
        }
    }

    /// Keeps the durable clock floor ahead of the live clock, in chunks: whenever the
    /// clock passes the persisted floor, one `ClockFloor` record reserves the next
    /// `clock_floor_chunk` timestamps. Recovery resumes from the persisted floor — an
    /// over-approximation, so a restart may *skip* unused timestamps (harmless: nobody
    /// was promised them) but can never reuse a promised one.
    fn wal_log_clock_floor(&mut self) {
        if self.store.is_none() {
            return;
        }
        let clock = self.clock.value();
        if clock > self.persisted_clock {
            let floor = clock + self.options.clock_floor_chunk;
            self.wal_append(WalRecord::ClockFloor(floor));
            self.persisted_clock = floor;
        }
    }

    /// Keeps the durable dot floor ahead of the live generator, in chunks: whenever a
    /// freshly generated dot passes the persisted floor, one `DotFloor` record
    /// reserves the next `dot_floor_chunk` sequences. The driver's persist hook syncs
    /// the append before the submission's messages leave, so no dot is ever visible
    /// to a peer without a durable floor covering it — a clean restart replays the
    /// floor and can never re-issue a dot, independent of incarnation bands.
    fn wal_log_dot_floor(&mut self) {
        if self.store.is_none() {
            return;
        }
        let generated = self.dot_gen.generated();
        if generated > self.persisted_dot_floor {
            let floor = generated + self.options.dot_floor_chunk;
            self.wal_append(WalRecord::DotFloor(floor));
            self.persisted_dot_floor = floor;
        }
    }

    /// Restores this instance from its store's snapshot and WAL suffix (called from
    /// [`Tempo::with_store`], before the instance handles anything).
    ///
    /// Replay re-feeds the executor exactly the events it was fed before the crash: the
    /// snapshot's queued commits (with their stability flags), then the WAL's `Commit`,
    /// `KeyStable` and `SiblingStable` records in append order. Execution is a
    /// deterministic function of that sequence, so the executed set comes back exactly
    /// (DESIGN.md §6, cut-point argument). Commits not yet stable wait in the
    /// per-key stability detector again afterwards.
    fn recover_from_store(&mut self, snapshot: Option<Snapshot>, wal: Vec<WalRecord>) {
        let empty = snapshot.is_none() && wal.is_empty();
        let replayed_wal = !wal.is_empty();
        if let Some(snap) = snapshot {
            self.clock.bump(snap.clock);
            self.dot_gen.skip_to(snap.next_dot_seq);
            self.executor
                .restore(snap.floors, snap.executed_count, snap.kv);
            // Every snapshot-covered execution was a commit; keep the two counters
            // consistent so the stall detector (`repair_scan`) stays meaningful.
            self.metrics.committed = snap.executed_count;
            for (origin, watermark) in &snap.watermarks {
                self.gc.restore_executed(*origin, *watermark);
            }
            for a in &snap.accepts {
                let info = self.info_mut(a.dot, 0);
                info.ts = a.ts;
                info.bal = a.bal;
                info.abal = a.abal;
            }
            for q in snap.queued {
                self.replay_commit(q.dot, q.ts, q.cmd, q.waits);
                if q.stable {
                    self.replay_feed(ExecutionInfo::Stable { dot: q.dot });
                }
            }
        }
        for record in wal {
            match record {
                WalRecord::ClockFloor(floor) => self.clock.bump(floor),
                WalRecord::DotFloor(floor) => self.dot_gen.skip_to(floor),
                WalRecord::Ballot { dot, bal } => {
                    let info = self.info_mut(dot, 0);
                    info.bal = info.bal.max(bal);
                }
                WalRecord::Accept { dot, ts, bal } => {
                    let info = self.info_mut(dot, 0);
                    info.ts = ts;
                    info.bal = info.bal.max(bal);
                    info.abal = info.abal.max(bal);
                }
                WalRecord::Commit {
                    dot,
                    ts,
                    cmd,
                    waits,
                } => self.replay_commit(dot, ts, cmd, waits),
                WalRecord::SiblingStable { dot, shard } => {
                    self.replay_feed(ExecutionInfo::ShardStable { dot, shard });
                }
                // Written by earlier versions (the commit-gated watermark); execution
                // is released per command by `KeyStable`, so it carries nothing here.
                WalRecord::Stable(_) => {}
                WalRecord::KeyStable(dot) => {
                    self.replay_feed(ExecutionInfo::Stable { dot });
                }
            }
        }
        // Replayed commits that were not yet stable wait for per-key stability again.
        for (dot, ts, cmd, _, stable) in self.executor.queued_entries() {
            if !stable {
                self.key_stability
                    .commit(dot, keys_at(&cmd, self.shard), ts);
            }
        }
        // The floor bumps above buffered promises over the previous life's range; a
        // recovered instance never claims them (see `promise_frontier`).
        let _ = self.clock.take_detached();
        let _ = self.clock.take_attached();
        self.persisted_clock = self.clock.value();
        self.persisted_dot_floor = self.dot_gen.generated();
        if let Some(store) = &self.store {
            self.appends_at_snapshot = store.metrics().wal_appends;
        }
        self.recovered = !empty;
        if replayed_wal {
            // Fold the replayed suffix into a fresh snapshot immediately: append-count
            // pacing restarts at zero with each incarnation, so a crash-looping
            // replica would otherwise never truncate its WAL and replay cost would
            // grow without bound across crashes.
            self.force_snapshot();
        }
    }

    /// Replays one durable commit (from the snapshot's queue or a WAL `Commit`).
    fn replay_commit(&mut self, dot: Dot, final_ts: u64, cmd: Command, waits: Vec<ShardId>) {
        {
            let info = self.info_mut(dot, 0);
            if info.phase.is_committed_or_executed() {
                return;
            }
            info.learn_payload(&cmd, &Quorums::new());
            info.final_ts = final_ts;
            info.phase = Phase::Commit;
        }
        self.pending.remove(&dot);
        self.metrics.committed += 1;
        self.clock.bump(final_ts);
        if self
            .executor
            .placement(final_ts, dot, &keys_at(&cmd, self.shard))
            != Placement::Open
        {
            // Defensive: already inside the restored image (cannot happen for records
            // the cut-point argument admits, but a replayed log must never double-apply).
            let info = self.info.get_mut(&dot).expect("info exists");
            info.phase = Phase::Execute;
            self.gc.record_executed(dot);
            return;
        }
        self.replay_feed(ExecutionInfo::Committed {
            dot,
            ts: final_ts,
            cmd,
            waits,
        });
    }

    /// Feeds the executor during recovery. No actions can be emitted (the instance is
    /// still being constructed): executions are absorbed into phase/GC bookkeeping,
    /// results are dropped (their clients were answered in a previous life or will
    /// retry), and `MStable` announcements are not re-broadcast (the previous life
    /// sent them; live replicas answer sibling shards that still wait).
    fn replay_feed(&mut self, info: ExecutionInfo) {
        let _ = self.executor.handle(info);
        let _ = self.executor.take_newly_stable();
        for dot in self.executor.take_executed_dots() {
            let info = self
                .info
                .get_mut(&dot)
                .expect("executed commands have info");
            info.phase = Phase::Execute;
            info.buffered_attached.clear();
            self.gc.record_executed(dot);
        }
    }

    /// Builds the durable snapshot of the current state (see [`Snapshot`] for what must
    /// be carried and why).
    fn build_snapshot(&self) -> Snapshot {
        Snapshot {
            clock: self.clock.value(),
            floors: self.executor.floors(),
            next_dot_seq: self.dot_gen.generated(),
            executed_count: self.executor.executed(),
            kv: self.executor.kv_entries(),
            queued: self.queued_commits(),
            accepts: self
                .info
                .iter()
                .filter(|(_, i)| !i.phase.is_committed_or_executed() && (i.bal != 0 || i.abal != 0))
                .map(|(dot, i)| AcceptState {
                    dot: *dot,
                    ts: i.ts,
                    bal: i.bal,
                    abal: i.abal,
                })
                .collect(),
            watermarks: self.gc.executed_frontier(),
        }
    }

    /// The executor's committed-but-unexecuted commands, for snapshots and `MState`.
    fn queued_commits(&self) -> Vec<QueuedCommit> {
        self.executor
            .queued_entries()
            .into_iter()
            .map(|(dot, ts, cmd, waits, stable)| QueuedCommit {
                dot,
                ts,
                cmd,
                waits,
                stable,
            })
            .collect()
    }

    /// Installs a snapshot once enough WAL records accumulated since the last one.
    /// Paced from the promise timer, so snapshot cost is off the message hot path.
    fn maybe_snapshot(&mut self) {
        let Some(store) = &self.store else {
            return;
        };
        if store.metrics().wal_appends - self.appends_at_snapshot
            < self.options.snapshot_every_appends
        {
            return;
        }
        self.force_snapshot();
    }

    /// Unconditionally installs a snapshot (truncating the WAL).
    fn force_snapshot(&mut self) {
        if self.store.is_none() {
            return;
        }
        let snapshot = self.build_snapshot();
        let store = self.store.as_mut().expect("checked above");
        store.install_snapshot(&snapshot);
        self.appends_at_snapshot = store.metrics().wal_appends;
        // The snapshot carries the exact clock and dot position; the next floor
        // chunks start there.
        self.persisted_clock = self.clock.value();
        self.persisted_dot_floor = self.dot_gen.generated();
    }

    // ---------------------------------------------------------- state transfer

    /// Asks a live shard peer for its applied state (post-rejoin back-fill). Targets
    /// rotate across live peers on retry so one unresponsive peer cannot stall the
    /// transfer forever.
    fn send_state_request(&mut self, now_us: u64, out: &mut Vec<Action<Message>>) {
        let live: Vec<ProcessId> = self
            .shard_peers
            .iter()
            .copied()
            .filter(|p| *p != self.process && !self.suspected.contains(p))
            .collect();
        if live.is_empty() {
            if self.exec_gaps.is_empty() {
                // Nobody to transfer from (every peer suspected): ungate rather than
                // stall — ordering safety does not depend on the transfer.
                self.awaiting_state = false;
                self.sync_stability(now_us, out);
            }
            // With open execution gaps the store is *known* incomplete, so stay
            // gated: serving reads would return values missing committed writes.
            // `TIMER_LIVENESS` keeps retrying as peers come back.
            return;
        }
        let target = live[(self.state_request_attempts as usize) % live.len()];
        self.state_request_attempts += 1;
        self.last_state_request_us = now_us;
        self.send(&[target], Message::MStateRequest, now_us, out);
    }

    fn handle_state_request(
        &mut self,
        from: ProcessId,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        if !self.joined || self.awaiting_state {
            // Mid-rejoin (or mid-transfer) state is not a trustworthy image.
            return;
        }
        let msg = Message::MState {
            floors: self.executor.floors(),
            kv: self.executor.kv_entries(),
            watermarks: self.gc.executed_frontier(),
            queued: self.queued_commits(),
        };
        self.send(&[from], msg, now_us, out);
    }

    fn handle_state(
        &mut self,
        floors: Vec<KeyFloor>,
        kv: Vec<(Key, u64)>,
        watermarks: Vec<(ProcessId, u64)>,
        queued: Vec<QueuedCommit>,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        if !self.awaiting_state {
            return; // Late duplicate (or a transfer this instance never asked for).
        }
        self.awaiting_state = false;
        let installed = floors
            .iter()
            .any(|(key, ts, dot)| (*ts, *dot) > self.executor.floor_of(*key));
        if installed {
            let dropped = self.executor.install_transfer(kv, floors);
            for dot in &dropped {
                // Queued commits covered by the transferred image: their effects are
                // present without the local executor applying them.
                let info = self.info.get_mut(dot).expect("queued commands have info");
                self.key_stability.unwait(info.final_ts, *dot);
                info.phase = Phase::Execute;
                info.proposal_detached.clear();
                info.proposals.clear();
                info.rec_acks.clear();
                info.buffered_attached.clear();
                self.exec_skipped += 1;
                self.gc.record_executed(*dot);
            }
            for (origin, watermark) in &watermarks {
                self.gc.restore_executed(*origin, *watermark);
            }
            self.gc_collect();
        }
        // Absorb the donor's committed-but-unexecuted queue: every entry is above the
        // donor's floors on its keys, so it commits onto the (possibly just-installed)
        // image in normal per-key ⟨ts, id⟩ order.
        self.absorb_transferred_commits(queued, now_us, out);
        if installed {
            self.last_exec_progress_us = now_us;
            // Write-through: the back-filled image lives only in the executor until a
            // snapshot captures it — force one so a second crash keeps the back-fill.
            self.force_snapshot();
        }
        // Execution gaps now covered by the (possibly just-raised) floors are closed:
        // their effects are part of the installed image. If any gap remains above a
        // floor, the store is still incomplete — stay gated and keep requesting
        // (`TIMER_LIVENESS` re-sends while `awaiting_state`); the donor keeps
        // executing, so its floors eventually pass every gap.
        let mut closed_any = false;
        for ((ts, dot), keys) in std::mem::take(&mut self.exec_gaps) {
            if self.executor.placement(ts, dot, &keys) == Placement::Covered {
                // Deferred from `commit_with`'s skip branch: only now that the
                // installed image contains the command's effect may its dot enter
                // the executed frontier.
                self.gc.record_executed(dot);
                closed_any = true;
            } else {
                self.exec_gaps.insert((ts, dot), keys);
            }
        }
        if closed_any {
            self.gc_collect();
        }
        if !self.exec_gaps.is_empty() {
            self.awaiting_state = true;
            return;
        }
        if self.executor.is_gated() {
            let executed = self.executor.ungate();
            self.exec_absorb(executed, now_us, out);
        }
        self.sync_stability(now_us, out);
    }

    /// Commits the donor's queued entries locally (see `Message::MState::queued`).
    /// A rejoined replica takes the whole-shard safe frontier from its peers, so its
    /// stability can pass a command it never heard commit — the command would then be
    /// skipped *unapplied* and every later read of its keys served from a store
    /// missing the write. The donor's queue is exactly the set at risk: committed
    /// everywhere, executed nowhere, above the transferred image's boundary.
    fn absorb_transferred_commits(
        &mut self,
        queued: Vec<QueuedCommit>,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        for q in queued {
            if self.gc.is_executed(q.dot) || self.gc.is_collected(q.dot) {
                continue; // Executed (or blanket-covered) here: effect already present.
            }
            {
                let info = self.info_mut(q.dot, now_us);
                if info.phase.is_committed_or_executed() {
                    continue; // Already known; the executor dedups queued entries.
                }
                info.learn_payload(&q.cmd, &Quorums::new());
            }
            self.commit_with(q.dot, q.ts, now_us, out);
            // The donor consumed `MStable` attestations this replica missed while down,
            // and attestations are sent once per replica — replay the consumed ones
            // (every accessed sibling shard the donor is no longer waiting on) so the
            // entry does not wait forever. Residual waits are cleared by live
            // attestations, exactly as at the donor.
            if self.executor.is_queued(q.dot) {
                for shard in q.cmd.shards() {
                    if shard != self.shard && !q.waits.contains(&shard) {
                        self.wal_append(WalRecord::SiblingStable { dot: q.dot, shard });
                        self.exec_feed(
                            ExecutionInfo::ShardStable { dot: q.dot, shard },
                            now_us,
                            out,
                        );
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------ commit path

    fn handle_submit(
        &mut self,
        dot: Dot,
        cmd: Command,
        quorums: Quorums,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        // Algorithm 1, lines 5-8: this process acts as the coordinator of `cmd` at its own
        // shard. The proposal is Clock + 1; the clock itself is bumped when this process
        // handles its own MPropose (it belongs to the fast quorum).
        debug_assert!(cmd.accesses(self.shard));
        let t = self.clock.value() + 1;
        let fast_quorum = quorums
            .get(&self.shard)
            .cloned()
            .expect("quorums must cover the coordinator's shard");
        let shard_processes = self.membership.processes_of_shard(self.shard);
        let payload_targets: Vec<ProcessId> = shard_processes
            .into_iter()
            .filter(|p| !fast_quorum.contains(p))
            .collect();
        let rifl = cmd.rifl;
        let propose = Message::MPropose {
            dot,
            cmd: cmd.clone(),
            quorums: quorums.clone(),
            ts: t,
        };
        self.send(&fast_quorum, propose, now_us, out);
        self.tracer
            .phase(now_us, self.process, rifl, CmdPhase::Proposed);
        if !payload_targets.is_empty() {
            let payload = Message::MPayload { dot, cmd, quorums };
            self.send(&payload_targets, payload, now_us, out);
        }
    }

    fn handle_payload(
        &mut self,
        dot: Dot,
        cmd: Command,
        quorums: Quorums,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        self.tracer
            .phase(now_us, self.process, cmd.rifl, CmdPhase::PayloadDelivered);
        let info = self.info_mut(dot, now_us);
        let learned = !info.has_payload();
        info.learn_payload(&cmd, &quorums);
        if info.phase == Phase::Start {
            info.phase = Phase::Payload;
            self.pending.insert(dot);
        }
        if learned {
            self.payload_learned(dot);
        }
        // A commit may have been waiting for the payload (multi-shard races).
        self.try_complete_commit(dot, now_us, out);
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_propose(
        &mut self,
        from: ProcessId,
        dot: Dot,
        cmd: Command,
        quorums: Quorums,
        ts: u64,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        // Algorithm 1, lines 12-16 (pre: id ∈ start).
        self.tracer
            .phase(now_us, self.process, cmd.rifl, CmdPhase::PayloadDelivered);
        let (learned, started) = {
            let info = self.info_mut(dot, now_us);
            let learned = !info.has_payload();
            info.learn_payload(&cmd, &quorums);
            (learned, info.phase == Phase::Start)
        };
        if learned {
            self.payload_learned(dot);
        }
        if !started {
            // Either recovery already reached this process or a commit arrived first;
            // in both cases we must not produce a proposal anymore.
            self.try_complete_commit(dot, now_us, out);
            return;
        }
        if !self.joined {
            // A restarted process must not propose until the rejoin handshake recovered
            // its clock floor: a proposal below a previous incarnation's promises would
            // violate Theorem 1. Keep the payload so recovery can involve this process
            // later; the coordinator's quorum stays incomplete and the command commits
            // through the liveness/recovery path instead.
            let info = self.info_mut(dot, now_us);
            info.phase = Phase::Payload;
            self.pending.insert(dot);
            self.try_complete_commit(dot, now_us, out);
            return;
        }
        self.info_mut(dot, now_us).phase = Phase::Propose;
        self.pending.insert(dot);
        let (proposal, detached) = self.clock_proposal(dot, ts, now_us);
        self.info_mut(dot, now_us).ts = proposal;
        let piggyback = if self.options.piggyback_promises {
            detached.into_iter().collect()
        } else {
            Vec::new()
        };
        let ack = Message::MProposeAck {
            dot,
            ts: proposal,
            detached: piggyback,
        };
        self.send(&[from], ack, now_us, out);
        // §4, "Faster stability": tell colocated sibling-shard processes to bump their
        // clocks to this proposal.
        if self.options.mbump && cmd.is_multi_shard() {
            let siblings: Vec<ProcessId> = self
                .local_coordinators_of(&cmd)
                .into_iter()
                .filter(|p| self.membership.shard_of(*p) != self.shard)
                .collect();
            if !siblings.is_empty() {
                let bump = Message::MBump { dot, ts: proposal };
                self.send(&siblings, bump, now_us, out);
            }
        }
        // A commit may have been waiting for the payload (multi-shard or slow-path races).
        self.try_complete_commit(dot, now_us, out);
    }

    fn handle_propose_ack(
        &mut self,
        from: ProcessId,
        dot: Dot,
        ts: u64,
        detached: Vec<PromiseRange>,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        // Algorithm 1, lines 17-21 (pre: id ∈ propose and a reply from the full quorum).
        let f = self.config.f();
        let all_equal = self.options.all_equal_fast_path;
        let shard = self.shard;
        let (ready, fast_quorum) = {
            let info = match self.info.get_mut(&dot) {
                Some(info) => info,
                None => return,
            };
            if info.phase != Phase::Propose || info.commit_sent {
                return;
            }
            info.proposals.insert(from, ts);
            for range in detached {
                info.proposal_detached.push((from, range));
            }
            let quorum = info.quorums.get(&shard).cloned().unwrap_or_default();
            let ready = !quorum.is_empty() && quorum.iter().all(|q| info.proposals.contains_key(q));
            (ready, quorum)
        };
        if !ready {
            return;
        }
        // All fast-quorum processes replied: compute the timestamp and pick a path.
        let (cmd, proposal_values, attached, proposal_detached, my_ballot) = {
            let info = self.info.get(&dot).expect("info exists");
            let values: Vec<u64> = fast_quorum
                .iter()
                .map(|q| *info.proposals.get(q).expect("proposal present"))
                .collect();
            let attached: Vec<(ProcessId, u64)> = fast_quorum
                .iter()
                .map(|q| (*q, *info.proposals.get(q).expect("proposal present")))
                .collect();
            (
                info.cmd.clone().expect("coordinator knows the payload"),
                values,
                attached,
                info.proposal_detached.clone(),
                self.rank,
            )
        };
        let (t, count) = max_and_count(proposal_values.iter().copied()).expect("quorum not empty");
        let fast_path_ok = if all_equal {
            count == fast_quorum.len()
        } else {
            count >= f
        };
        if fast_path_ok {
            self.metrics.fast_paths += 1;
            {
                let info = self.info.get_mut(&dot).expect("info exists");
                info.commit_sent = true;
            }
            let promises = if self.options.piggyback_promises {
                PromiseBundle {
                    attached,
                    detached: proposal_detached,
                }
            } else {
                PromiseBundle::default()
            };
            let commit = Message::MCommit {
                dot,
                shard,
                ts: t,
                promises,
            };
            let targets = self.all_replicas_of(&cmd);
            self.send(&targets, commit, now_us, out);
        } else {
            self.metrics.slow_paths += 1;
            {
                let info = self.info.get_mut(&dot).expect("info exists");
                info.ts = t;
                info.consensus_acks.clear();
            }
            let consensus = Message::MConsensus {
                dot,
                ts: t,
                ballot: my_ballot,
            };
            let targets = self.shard_peers.clone();
            self.send(&targets, consensus, now_us, out);
        }
    }

    fn handle_commit(
        &mut self,
        dot: Dot,
        shard: ShardId,
        ts: u64,
        promises: PromiseBundle,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        self.absorb_bundle(dot, promises, now_us);
        let info = self.info_mut(dot, now_us);
        if info.phase == Phase::Execute {
            return;
        }
        info.shard_commits.insert(shard, ts);
        self.try_complete_commit(dot, now_us, out);
    }

    /// Commits `dot` locally once the payload is known and a per-shard timestamp has been
    /// received from every accessed shard (Algorithm 3, lines 56-59).
    fn try_complete_commit(&mut self, dot: Dot, now_us: u64, out: &mut Vec<Action<Message>>) {
        let final_ts = {
            let info = match self.info.get(&dot) {
                Some(info) => info,
                None => return,
            };
            if info.phase.is_committed_or_executed()
                || !info.has_payload()
                || !info.all_shards_committed()
            {
                return;
            }
            info.max_shard_commit()
        };
        self.commit_with(dot, final_ts, now_us, out);
    }

    fn commit_with(
        &mut self,
        dot: Dot,
        final_ts: u64,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        let (buffered, cmd, recovered) = {
            let info = self.info.get_mut(&dot).expect("info exists");
            if info.phase.is_committed_or_executed() {
                return;
            }
            info.final_ts = final_ts;
            info.phase = Phase::Commit;
            (
                std::mem::take(&mut info.buffered_attached),
                info.cmd.clone().expect("committed commands have a payload"),
                info.recovering,
            )
        };
        self.pending.remove(&dot);
        self.metrics.committed += 1;
        self.tracer
            .phase(now_us, self.process, cmd.rifl, CmdPhase::Committed);
        if recovered {
            // This process took over as the command's coordinator at some point and the
            // command now has a timestamp: the recovery path ran to completion.
            self.metrics.recoveries_completed += 1;
            self.tracer
                .process_event(now_us, self.process, ProcEvent::RecoveryCompleted);
        }
        // Attached promises for this command may now enter the commit-gated tracker
        // (line 47); the receipt-fed one has them already unless the payload arrived
        // with the commit itself.
        for (process, ts) in buffered {
            self.add_committed_attached(process, ts);
        }
        // Generate detached promises up to the committed timestamp (line 25/59); this is
        // what lets stability reach `final_ts` even when it exceeds this shard's clocks.
        self.clock_bump(final_ts);
        let keys = keys_at(&cmd, self.shard);
        let placement = self.executor.placement(final_ts, dot, &keys);
        if placement != Placement::Open {
            // Not placeable in per-key ⟨ts, id⟩ order anymore. In the normal regime
            // this cannot happen — per-key stability keeps every command on a key
            // queued until no command on that key can still commit below it — but a
            // *restarted* incarnation's trackers are deliberately seeded past old
            // commands (rejoin prefixes, safe frontiers, promise repairs), so late
            // back-fills of pre-crash commands can land behind executed ones. Two
            // cases: `Covered` means the floors of all its keys passed it — a rejoin
            // state transfer installed a peer's image complete up to them (a true
            // duplicate); `Behind` means some of its keys executed past it while
            // others did not reach it, so the command is skipped *unapplied* — the
            // store is now missing a write, so execution is GATED (the gap is
            // recorded and a state transfer covering it is requested) until a peer's
            // image closes the hole. Without the gate, later commands would keep
            // executing on the incomplete store and return values computed without
            // the skipped write. Either way, recording the dot as executed keeps GC
            // draining and the `MStable` attestation keeps sibling shards live.
            // Deliberately NOT written to the WAL: replaying an unapplied (or
            // already-present) command into a partial image would corrupt it.
            self.exec_skipped += 1;
            self.key_stability.forget(dot);
            let gapped = placement == Placement::Behind && self.options.state_transfer;
            if gapped {
                // (With `state_transfer` opted out there is no mechanism to close the
                // gap, so gating would stall forever — the opt-out accepts the hole.)
                self.exec_gaps.insert((final_ts, dot), keys);
                self.executor.gate();
                if self.joined && !self.awaiting_state {
                    self.awaiting_state = true;
                    self.send_state_request(now_us, out);
                }
            }
            let info = self.info.get_mut(&dot).expect("info exists");
            info.phase = Phase::Execute;
            info.proposal_detached.clear();
            info.proposals.clear();
            info.rec_acks.clear();
            if !gapped {
                self.gc.record_executed(dot);
                self.gc_collect();
            }
            // A *gapped* dot must stay out of the executed frontier until a state
            // transfer covers it (`handle_state` records it then): the frontier is
            // shipped onward — snapshots, `MState` watermarks, `MPromises` — and a
            // peer blanket-restoring a frontier that includes a dot above the
            // transfer boundary would mark dots it still has *queued* as executed,
            // garbage-collecting their metadata out from under its executor.
            if cmd.is_multi_shard() {
                let targets = self.all_replicas_of(&cmd);
                self.send(&targets, Message::MStable { dot }, now_us, out);
            }
            self.sync_stability(now_us, out);
            return;
        }
        // Hand the command to the execution stage; a multi-shard command additionally
        // waits for an `MStable` attestation from every *other* accessed shard.
        // Stability is a shard-global property and every replica of the command
        // broadcasts `MStable` once it is locally stable, so the wait is keyed by shard
        // and satisfied by whichever replica's attestation arrives first — a crashed
        // attestor (even one that dies after this commit) cannot stall execution.
        let waits: Vec<ShardId> = if cmd.is_multi_shard() {
            cmd.shards().filter(|s| *s != self.shard).collect()
        } else {
            Vec::new()
        };
        // Write-ahead: the commit (payload included) must survive a crash so the
        // rebuilt replica replays it instead of forgetting it (DESIGN.md §6).
        if self.store.is_some() {
            self.wal_append(WalRecord::Commit {
                dot,
                ts: final_ts,
                cmd: cmd.clone(),
                waits: waits.clone(),
            });
        }
        // The command stops blocking its keys and waits for per-key stability itself.
        self.key_stability.commit(dot, keys, final_ts);
        self.exec_feed(
            ExecutionInfo::Committed {
                dot,
                ts: final_ts,
                cmd,
                waits,
            },
            now_us,
            out,
        );
        self.sync_stability(now_us, out);
    }

    // --------------------------------------------------------------- consensus

    fn handle_consensus(
        &mut self,
        from: ProcessId,
        dot: Dot,
        ts: u64,
        ballot: u64,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        // Algorithm 5, lines 30-34 (pre: bal[id] <= b).
        if !self.joined {
            // Consensus participation is suspended until the rejoin handshake completes:
            // an amnesiac acceptor must not join new ballots with forgotten accept state.
            return;
        }
        {
            let info = self.info_mut(dot, now_us);
            if info.bal > ballot {
                let nack = Message::MRecNAck {
                    dot,
                    ballot: info.bal,
                };
                self.send(&[from], nack, now_us, out);
                return;
            }
            info.ts = ts;
            info.bal = ballot;
            info.abal = ballot;
        }
        // Write-ahead: the accept must survive a crash (a forgotten accept is how an
        // amnesiac acceptor lets two values commit). The driver's persist hook syncs
        // it before the ack below can leave this process.
        self.wal_append(WalRecord::Accept {
            dot,
            ts,
            bal: ballot,
        });
        self.clock_bump(ts);
        let ack = Message::MConsensusAck { dot, ballot };
        self.send(&[from], ack, now_us, out);
    }

    fn handle_consensus_ack(
        &mut self,
        from: ProcessId,
        dot: Dot,
        ballot: u64,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        // Algorithm 5, lines 35-37 (pre: bal[id] = b, |Q| = f + 1).
        let slow_quorum = self.config.slow_quorum_size();
        let shard = self.shard;
        let (ready, ts, cmd) = {
            let info = match self.info.get_mut(&dot) {
                Some(info) => info,
                None => return,
            };
            if info.bal != ballot || info.commit_sent {
                return;
            }
            info.consensus_acks.insert(from);
            let ready = info.consensus_acks.len() >= slow_quorum;
            (ready, info.ts, info.cmd.clone())
        };
        if !ready {
            return;
        }
        let cmd = match cmd {
            Some(cmd) => cmd,
            // Without the payload the commit targets are unknown; fall back to the shard.
            None => {
                let targets = self.shard_peers.clone();
                self.info.get_mut(&dot).expect("info exists").commit_sent = true;
                let commit = Message::MCommit {
                    dot,
                    shard,
                    ts,
                    promises: PromiseBundle::default(),
                };
                self.send(&targets, commit, now_us, out);
                return;
            }
        };
        {
            let info = self.info.get_mut(&dot).expect("info exists");
            info.commit_sent = true;
        }
        let promises = if self.options.piggyback_promises {
            let info = self.info.get(&dot).expect("info exists");
            PromiseBundle {
                attached: info.proposals.iter().map(|(p, t)| (*p, *t)).collect(),
                detached: info.proposal_detached.clone(),
            }
        } else {
            PromiseBundle::default()
        };
        let commit = Message::MCommit {
            dot,
            shard,
            ts,
            promises,
        };
        let targets = self.all_replicas_of(&cmd);
        self.send(&targets, commit, now_us, out);
    }

    // --------------------------------------------------------------- execution

    fn absorb_bundle(&mut self, dot: Dot, bundle: PromiseBundle, now_us: u64) {
        for (process, range) in bundle.detached {
            self.add_promise(process, range);
        }
        if bundle.attached.is_empty() {
            return;
        }
        let committed = self
            .info
            .get(&dot)
            .map(|i| i.phase.is_committed_or_executed())
            .unwrap_or(false);
        for (process, ts) in bundle.attached {
            if committed {
                self.add_committed_attached(process, ts);
            } else {
                self.buffer_attached(dot, process, ts, now_us);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_promises(
        &mut self,
        from: ProcessId,
        detached: Vec<PromiseRange>,
        attached: Vec<(Dot, u64)>,
        executed: Vec<(ProcessId, u64)>,
        frontier: u64,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        self.gc.update_peer(from, &executed);
        self.note_commit_holes(&executed, now_us);
        self.gc_collect();
        // Absorb the sender's safe frontier wholesale: it heals any gap left by an
        // earlier lost delta (every attached promise below it is committed — indeed
        // executed — at this process, so the line-47 gate is already satisfied).
        if frontier >= 1 {
            self.add_promise(from, PromiseRange::new(1, frontier));
        }
        for range in detached {
            self.add_promise(from, range);
        }
        for (dot, ts) in attached {
            // A garbage-collected dot is committed (and executed) everywhere, so its
            // attached promises go straight into the tracker (Algorithm 2, line 47) —
            // buffering them would resurrect the dropped `CommandInfo` as a zombie, and
            // discarding them would leave a permanent gap in `from`'s promise prefix.
            let committed = self.gc.is_collected(dot)
                || self
                    .info
                    .get(&dot)
                    .map(|i| i.phase.is_committed_or_executed())
                    .unwrap_or(false);
            if committed {
                self.add_committed_attached(from, ts);
            } else {
                self.buffer_attached(dot, from, ts, now_us);
            }
        }
        self.sync_stability(now_us, out);
    }

    /// Records suspected commit holes revealed by a peer's executed frontier (see the
    /// [`Self::hole_suspects`] field). The scan is bounded: at most
    /// [`HOLE_SCAN_LIMIT`] missing sequences per origin per report, and the suspect
    /// map is capped at [`HOLE_SUSPECT_CAP`] — a lagging replica catches up one
    /// window at a time, which is fine because each window ends in a state transfer
    /// that blankets the rest.
    fn note_commit_holes(&mut self, frontier: &[(ProcessId, u64)], now_us: u64) {
        if !self.options.state_transfer {
            // With transfers opted out a probed commit would just be skipped
            // unapplied (the accepted hole), teaching us nothing.
            return;
        }
        for &(origin, watermark) in frontier {
            for seq in self.gc.missing_below(origin, watermark, HOLE_SCAN_LIMIT) {
                if self.hole_suspects.len() >= HOLE_SUSPECT_CAP {
                    return;
                }
                let dot = Dot::new(origin, seq);
                if self.info.contains_key(&dot) {
                    continue; // Known (queued, pending or executing): not a hole.
                }
                self.hole_suspects.entry(dot).or_insert((now_us, 0));
            }
        }
    }

    fn handle_stable(
        &mut self,
        from: ProcessId,
        dot: Dot,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        // Any replica's attestation clears its shard's wait (see `commit_with`).
        let shard = self.membership.shard_of(from);
        // Write-ahead: attestations are sent once per replica, so one consumed by a
        // commit that then crashes would otherwise be gone — the replayed commit
        // would re-wait forever.
        self.wal_append(WalRecord::SiblingStable { dot, shard });
        self.exec_feed(ExecutionInfo::ShardStable { dot, shard }, now_us, out);
    }

    /// Releases to the execution stage every committed command that became stable on
    /// its keys under the receipt-fed watermark. The watermark is a cached O(1) read
    /// and the detector
    /// examines only the waiting commands an event could have unblocked, so the
    /// steady-state cost of an `MPromises` (or promise-timer fire) that taught us
    /// nothing new is a few comparisons.
    fn sync_stability(&mut self, now_us: u64, out: &mut Vec<Action<Message>>) {
        if self.awaiting_state {
            // Execution is gated until the rejoin state transfer installs: advancing
            // stability now would execute (and serve reads over) a store that misses
            // every command committed while this replica was down.
            return;
        }
        for dot in self.key_stability.release() {
            // Write-ahead: interleaved with `Commit` records, the releases make replay
            // reproduce the exact pre-crash executed set (DESIGN.md §6).
            self.wal_append(WalRecord::KeyStable(dot));
            self.exec_feed(ExecutionInfo::Stable { dot }, now_us, out);
        }
    }

    /// Feeds one event to the execution stage and acts on its output: broadcast
    /// `MStable` for multi-shard commands that became locally stable, update per-command
    /// phases for executed commands, and push executions to the runtime as
    /// [`Action::Deliver`].
    fn exec_feed(&mut self, info: ExecutionInfo, now_us: u64, out: &mut Vec<Action<Message>>) {
        let executed = self.executor.handle(info);
        self.exec_absorb(executed, now_us, out);
    }

    /// Post-processes a batch of executor output (from [`Self::exec_feed`] or from
    /// ungating after a closed execution gap): `MStable` broadcasts, per-command phase
    /// updates, GC accounting, and the `Deliver` actions toward the runtime.
    fn exec_absorb(
        &mut self,
        executed: Vec<Executed>,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        // Resolve the whole batch before sending anything: `MStable` to a target set
        // that includes this process dispatches `handle_stable` *synchronously*
        // (see `send`), which can execute — and GC-collect — a later dot of this very
        // batch (queued behind the first, unblocked by its attestation) before the
        // loop reaches it. At take-time every announced dot still has its metadata;
        // mid-loop it may not.
        let announced: Vec<(Dot, Vec<ProcessId>)> = self
            .executor
            .take_newly_stable()
            .into_iter()
            .map(|dot| {
                let cmd = self
                    .info
                    .get(&dot)
                    .and_then(|i| i.cmd.clone())
                    .expect("announced commands have a payload");
                let targets = self.all_replicas_of(&cmd);
                (dot, targets)
            })
            .collect();
        for (dot, targets) in announced {
            self.send(&targets, Message::MStable { dot }, now_us, out);
        }
        let executed_dots = self.executor.take_executed_dots();
        let any_executed = !executed_dots.is_empty();
        if any_executed {
            self.last_exec_progress_us = now_us;
        }
        for dot in executed_dots {
            let info = self
                .info
                .get_mut(&dot)
                .expect("executed commands have info");
            info.phase = Phase::Execute;
            // Shrink transient state; the payload is kept so that this process can keep
            // answering MCommitRequest/MRec for the command (Appendix B liveness) —
            // until the executed-watermark GC proves no such message can arrive anymore.
            info.proposal_detached.clear();
            info.proposals.clear();
            info.rec_acks.clear();
            info.buffered_attached.clear();
            // In this implementation a command executes the instant it becomes stable
            // (same dispatch step), so `Stable` and the driver-emitted `Executed` carry
            // the same timestamp; the stable→execute interval measures queueing only in
            // runtimes with a detached execution stage.
            let rifl = info.cmd.as_ref().map(|c| c.rifl);
            self.gc.record_executed(dot);
            if let Some(rifl) = rifl {
                self.tracer
                    .phase(now_us, self.process, rifl, CmdPhase::Stable);
            }
        }
        if any_executed {
            self.gc_collect();
        }
        out.extend(executed.into_iter().map(Action::Deliver));
    }

    /// Drops the metadata of every dot that all shard peers (and this process) have
    /// executed: its `CommandInfo` — payload included — and any leftover executor
    /// bookkeeping. See [`crate::gc`] for the safety argument.
    fn gc_collect(&mut self) {
        for (origin, seqs) in self.gc.collect() {
            for seq in seqs {
                let dot = Dot::new(origin, seq);
                if self.info.remove(&dot).is_some() {
                    self.metrics.gc_collected += 1;
                }
                // The dot executed at every shard peer: its attached timestamp no
                // longer pins the safe promise frontier.
                if let Some(ts) = self.attached_ts.remove(&dot) {
                    self.attached_pending.remove(&(ts, dot));
                }
                self.key_stability.forget(dot);
                self.executor.gc(dot);
            }
        }
    }

    // --------------------------------------------------------------- liveness

    /// Re-sends payloads, requests commits and starts recovery for commands that have
    /// been pending for too long (Algorithm 6, lines 75-78 and 95-96). Driven by
    /// [`TIMER_LIVENESS`]. Probes are rate limited per dot: a stale command is re-probed
    /// at most once per `commit_request_timeout_us`, not on every liveness tick — a dot
    /// past its timeout used to re-broadcast its full payload plus `MCommitRequest`
    /// every 5 ms.
    ///
    /// Recovery escalation shares the probe rate limit and *retries*: under message loss
    /// an `MRec` round can vanish entirely, so a leader whose takeover made no progress
    /// re-runs `start_recovery` (with a fresh, higher ballot) on the next probe. The
    /// previous gate — "skip if the pending ballot is already ours" — deadlocked exactly
    /// in that case, which the lossy conformance scenario flushed out.
    fn liveness_scan(&mut self, now_us: u64, out: &mut Vec<Action<Message>>) {
        let timeout = self.options.commit_request_timeout_us;
        let stale: Vec<(Dot, bool)> = self
            .pending
            .iter()
            .copied()
            .filter_map(|dot| {
                let info = self.info.get(&dot)?;
                if now_us.saturating_sub(info.since_us) < timeout {
                    return None;
                }
                let probe = now_us.saturating_sub(info.last_probe_us) >= timeout;
                Some((dot, probe))
            })
            .collect();
        for (dot, probe) in stale {
            let (age, has_payload) = {
                let info = &self.info[&dot];
                (now_us.saturating_sub(info.since_us), info.has_payload())
            };
            if probe {
                self.info
                    .get_mut(&dot)
                    .expect("stale dots have info")
                    .last_probe_us = now_us;
                // Ask around for a commit outcome we might have missed: every replica
                // of the command once its payload is known. A sibling shard's replica
                // that committed knows the final timestamp, which this shard's recovery
                // cannot re-decide when only the sibling's MCommit went missing.
                let payload = has_payload.then(|| {
                    let info = &self.info[&dot];
                    (
                        info.cmd.clone().expect("payload present"),
                        info.quorums.clone(),
                    )
                });
                let targets = match &payload {
                    Some((cmd, _)) => self.all_replicas_of(cmd),
                    None => self.shard_peers.to_vec(),
                };
                self.send(&targets, Message::MCommitRequest { dot }, now_us, out);
                // Re-send the payload so that every replica can take part in recovery
                // (Algorithm 6, line 77).
                if let Some((cmd, quorums)) = payload {
                    self.send(
                        &targets,
                        Message::MPayload { dot, cmd, quorums },
                        now_us,
                        out,
                    );
                }
            }
            // If we are the shard leader and the command has been pending for long
            // enough, take over as its coordinator — and keep retrying until the
            // command commits: under message loss an entire MRec round can vanish, and
            // the old "skip if the pending ballot is already ours" gate deadlocked
            // exactly then. Retries pace on the *recovery* timeout per dot (not the
            // probe cadence): each retry clears `rec_acks` and bumps the ballot, so
            // retrying faster than an MRec round trip would discard in-flight acks
            // forever (a livelock instead of a deadlock).
            if self.is_leader() && has_payload && age >= self.options.recovery_timeout_us {
                let due = {
                    let info = &self.info[&dot];
                    now_us.saturating_sub(info.last_recovery_us) >= self.options.recovery_timeout_us
                };
                if due {
                    self.start_recovery(dot, now_us, out);
                }
            }
        }
        self.hole_scan(now_us, out);
        self.repair_scan(now_us, out);
    }

    /// Probes suspected commit holes (see [`Self::note_commit_holes`]): suspects that
    /// resolved in the meantime — metadata arrived, a state transfer blanketed them,
    /// or GC collected them — are dropped; persistent ones are asked around for their
    /// commit outcome at the ordinary stale-command probe pace. An answered probe
    /// commits through `commit_with`: placed in order on its keys when no later
    /// command on them executed, gated behind a state transfer when the floors show
    /// the image missing it (`Placement::Behind`).
    fn hole_scan(&mut self, now_us: u64, out: &mut Vec<Action<Message>>) {
        if self.hole_suspects.is_empty() {
            return;
        }
        let timeout = self.options.commit_request_timeout_us;
        let mut suspects = std::mem::take(&mut self.hole_suspects);
        let mut probes: Vec<Dot> = Vec::new();
        suspects.retain(|&dot, (first_seen, last_probe)| {
            if self.info.contains_key(&dot) || self.gc.is_executed(dot) || self.gc.is_collected(dot)
            {
                return false;
            }
            if now_us.saturating_sub(*first_seen) >= timeout
                && now_us.saturating_sub(*last_probe) >= timeout
            {
                *last_probe = now_us;
                probes.push(dot);
            }
            true
        });
        self.hole_suspects = suspects;
        for dot in probes {
            let targets = self.shard_peers.clone();
            self.send(&targets, Message::MCommitRequest { dot }, now_us, out);
        }
    }

    /// Detects a stalled execution stage — committed commands exist but no execution
    /// happened for a full commit-request timeout — and asks the shard peers to
    /// re-state their promises (`MPromiseRequest`, rate limited). Commit-side liveness
    /// is covered by the probes above; this covers the *stability* side: an `MPromises`
    /// delta lost to the network leaves a permanent gap in this process's view of a
    /// peer's promise prefix, freezing the stable watermark below every later
    /// timestamp. The lossy-link nemesis schedule found replicas frozen this way.
    fn repair_scan(&mut self, now_us: u64, out: &mut Vec<Action<Message>>) {
        let timeout = self.options.commit_request_timeout_us;
        let unexecuted = self.metrics.committed > self.executor.executed() + self.exec_skipped;
        if !unexecuted
            || now_us.saturating_sub(self.last_exec_progress_us) < timeout
            || now_us.saturating_sub(self.last_repair_request_us) < timeout
        {
            return;
        }
        self.last_repair_request_us = now_us;
        let targets: Vec<ProcessId> = self
            .shard_peers
            .iter()
            .copied()
            .filter(|p| *p != self.process)
            .collect();
        if !targets.is_empty() {
            self.send(&targets, Message::MPromiseRequest, now_us, out);
        }
    }

    fn handle_promise_request(
        &mut self,
        from: ProcessId,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        if !self.joined || self.incarnation > 0 || self.recovered {
            // A restarted (or store-restored) incarnation cannot enumerate its
            // previous life's in-flight attached proposals, so it must not claim
            // `[1, clock]` — see `promise_frontier` and DESIGN.md §5. The requester's
            // repair comes from the other peers.
            return;
        }
        let repair = Message::MPromiseRepair {
            clock: self.clock.value(),
            pending: self.attached_pending.iter().copied().collect(),
        };
        self.send(&[from], repair, now_us, out);
    }

    /// Absorbs a peer's complete promise state: everything in `[1, clock]` except the
    /// listed pending attachments, which stay behind the commit gate (Algorithm 2,
    /// line 47) exactly like attached promises arriving in `MPromises`. For an
    /// attachment whose command this process does not even know committed, the dot id
    /// in the repair is itself the cure: ask the sender for the outcome
    /// (`MCommitRequest`) — the command may have committed at a quorum that excludes
    /// this process, with both its payload and its commit lost to the network, in which
    /// case nobody would ever retransmit it (the coordinator only re-sends payloads of
    /// commands still pending *there*).
    fn handle_promise_repair(
        &mut self,
        from: ProcessId,
        clock: u64,
        pending: Vec<(u64, Dot)>,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        let mut next = 1u64;
        for (ts, dot) in pending {
            if ts > clock {
                break; // Pending proposals above the clock cannot exist.
            }
            if ts > next {
                self.add_promise(from, PromiseRange::new(next, ts - 1));
            }
            let committed = self.gc.is_collected(dot)
                || self
                    .info
                    .get(&dot)
                    .map(|i| i.phase.is_committed_or_executed())
                    .unwrap_or(false);
            if committed {
                self.add_committed_attached(from, ts);
            } else {
                self.buffer_attached(dot, from, ts, now_us);
                self.send(&[from], Message::MCommitRequest { dot }, now_us, out);
            }
            next = next.max(ts + 1);
        }
        if next <= clock {
            self.add_promise(from, PromiseRange::new(next, clock));
        }
        self.sync_stability(now_us, out);
    }

    // --------------------------------------------------------------- recovery

    fn start_recovery(&mut self, dot: Dot, now_us: u64, out: &mut Vec<Action<Message>>) {
        let ballot = {
            let info = match self.info.get_mut(&dot) {
                Some(info) => info,
                None => return,
            };
            if !info.phase.is_pending() {
                return;
            }
            let current = info.bal;
            info.rec_acks.clear();
            info.rec_done = false;
            info.recovering = true;
            info.last_recovery_us = now_us;
            current
        };
        let ballot = self.next_ballot(ballot);
        self.metrics.recoveries_started += 1;
        self.tracer
            .process_event(now_us, self.process, ProcEvent::RecoveryStarted);
        let rec = Message::MRec { dot, ballot };
        let targets = self.shard_peers.clone();
        self.send(&targets, rec, now_us, out);
    }

    fn handle_rec(
        &mut self,
        from: ProcessId,
        dot: Dot,
        ballot: u64,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        // Algorithm 4, lines 76-85.
        let committed = {
            let info = self.info_mut(dot, now_us);
            info.phase.is_committed_or_executed()
        };
        if !self.joined && !committed {
            // A rejoining process may still share a commit it knows about, but must not
            // make recovery proposals (its clock floor is not yet re-established).
            return;
        }
        if committed {
            // Liveness: share the outcome with the would-be coordinator.
            let info = self.info.get(&dot).expect("info exists");
            if let Some(cmd) = info.cmd.clone() {
                let msg = Message::MCommitInfo {
                    dot,
                    cmd,
                    ts: info.final_ts,
                };
                self.send(&[from], msg, now_us, out);
            }
            return;
        }
        let nack = {
            let info = self.info_mut(dot, now_us);
            if info.bal >= ballot {
                Some(info.bal)
            } else {
                None
            }
        };
        if let Some(bal) = nack {
            let msg = Message::MRecNAck { dot, ballot: bal };
            self.send(&[from], msg, now_us, out);
            return;
        }
        // Cannot participate without the payload (the phase would still be `start`).
        let has_payload = self
            .info
            .get(&dot)
            .map(|i| i.has_payload())
            .unwrap_or(false);
        if !has_payload {
            return;
        }
        let needs_proposal = {
            let info = self.info.get_mut(&dot).expect("info exists");
            if info.bal == 0 {
                match info.phase {
                    Phase::Payload => true,
                    Phase::Propose => {
                        info.phase = Phase::RecoverP;
                        false
                    }
                    _ => false,
                }
            } else {
                false
            }
        };
        if needs_proposal {
            let (t, _) = self.clock_proposal(dot, 0, now_us);
            let info = self.info.get_mut(&dot).expect("info exists");
            info.ts = t;
            info.phase = Phase::RecoverR;
        }
        let (ts, phase, abal) = {
            let info = self.info.get_mut(&dot).expect("info exists");
            info.bal = ballot;
            let rec_phase = info.phase.rec_phase().unwrap_or(RecPhase::RecoverR);
            (info.ts, rec_phase, info.abal)
        };
        // Write-ahead: the joined ballot must survive a crash, or a recovered replica
        // could accept a value at a ballot it already promised away.
        self.wal_append(WalRecord::Ballot { dot, bal: ballot });
        let ack = Message::MRecAck {
            dot,
            ts,
            phase,
            abal,
            ballot,
        };
        self.send(&[from], ack, now_us, out);
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_rec_ack(
        &mut self,
        from: ProcessId,
        dot: Dot,
        ts: u64,
        phase: RecPhase,
        abal: u64,
        ballot: u64,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        // Algorithm 4, lines 86-96 (pre: bal[id] = b, |Q| = r - f).
        let recovery_quorum = self.config.recovery_quorum_size();
        let shard = self.shard;
        let ready = {
            let info = match self.info.get_mut(&dot) {
                Some(info) => info,
                None => return,
            };
            if info.bal != ballot || info.rec_done {
                return;
            }
            info.rec_acks.insert(from, (ts, phase, abal));
            info.rec_acks.len() >= recovery_quorum
        };
        if !ready {
            return;
        }
        let proposal = {
            let info = self.info.get_mut(&dot).expect("info exists");
            info.rec_done = true;
            info.consensus_acks.clear();
            // If any process accepted a consensus value, the highest-ballot one wins.
            if let Some((_, (accepted_ts, _, _))) = info
                .rec_acks
                .iter()
                .filter(|(_, (_, _, ab))| *ab != 0)
                .max_by_key(|(_, (_, _, ab))| *ab)
            {
                *accepted_ts
            } else {
                // No accepted value: reconstruct the timestamp from proposals.
                let fast_quorum = info.quorums.get(&shard).cloned().unwrap_or_default();
                let replied: Vec<ProcessId> = info.rec_acks.keys().copied().collect();
                let intersection: Vec<ProcessId> = replied
                    .iter()
                    .copied()
                    .filter(|p| fast_quorum.contains(p))
                    .collect();
                let initial = dot.initial_coordinator();
                let coordinator_replied = intersection.contains(&initial);
                let any_recover_r = intersection
                    .iter()
                    .any(|p| matches!(info.rec_acks[p].1, RecPhase::RecoverR));
                // `s` of Algorithm 4 line 93: the initial coordinator cannot have taken the
                // fast path, so any majority-derived maximum is a valid timestamp.
                let safe_to_use_all = coordinator_replied || any_recover_r;
                let quorum: Vec<ProcessId> = if safe_to_use_all {
                    replied
                } else {
                    intersection
                };
                quorum
                    .iter()
                    .map(|p| info.rec_acks[p].0)
                    .max()
                    .unwrap_or(0)
                    .max(1)
            }
        };
        let consensus = Message::MConsensus {
            dot,
            ts: proposal,
            ballot,
        };
        let targets = self.shard_peers.clone();
        self.send(&targets, consensus, now_us, out);
    }

    fn handle_rec_nack(
        &mut self,
        dot: Dot,
        ballot: u64,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        let should_retry = {
            let info = match self.info.get_mut(&dot) {
                Some(info) => info,
                None => return,
            };
            if info.bal < ballot {
                info.bal = ballot;
                true
            } else {
                false
            }
        };
        if should_retry {
            self.wal_append(WalRecord::Ballot { dot, bal: ballot });
        }
        if should_retry && self.is_leader() {
            self.start_recovery(dot, now_us, out);
        }
    }

    fn handle_commit_request(
        &mut self,
        from: ProcessId,
        dot: Dot,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        let reply = {
            let info = match self.info.get(&dot) {
                Some(info) => info,
                None => return,
            };
            if !info.phase.is_committed_or_executed() {
                return;
            }
            info.cmd.clone().map(|cmd| Message::MCommitInfo {
                dot,
                cmd,
                ts: info.final_ts,
            })
        };
        if let Some(msg) = reply {
            self.send(&[from], msg, now_us, out);
        }
    }

    fn handle_commit_info(
        &mut self,
        dot: Dot,
        cmd: Command,
        ts: u64,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        {
            let info = self.info_mut(dot, now_us);
            if info.phase.is_committed_or_executed() {
                return;
            }
            info.learn_payload(&cmd, &Quorums::new());
            if info.phase == Phase::Start {
                info.phase = Phase::Payload;
            }
        }
        self.commit_with(dot, ts, now_us, out);
    }

    // ---------------------------------------------------------------- rejoin

    /// Broadcasts `MRejoin` to the shard peers (initially from [`Protocol::rejoin`],
    /// re-sent from the liveness timer while the handshake is incomplete so that message
    /// loss cannot leave the process unjoined forever).
    fn send_rejoin(&mut self, now_us: u64, out: &mut Vec<Action<Message>>) {
        let targets: Vec<ProcessId> = self
            .shard_peers
            .iter()
            .copied()
            .filter(|p| *p != self.process)
            .collect();
        if !targets.is_empty() {
            self.send(&targets, Message::MRejoin, now_us, out);
        }
    }

    fn handle_rejoin(&mut self, from: ProcessId, now_us: u64, out: &mut Vec<Action<Message>>) {
        if !self.joined {
            // A process that is itself mid-rejoin has nothing trustworthy to report.
            return;
        }
        let ack = Message::MRejoinAck {
            clock: self.clock.value(),
            your_highest: self.promises.highest_promise(from),
            prefixes: self.promises.prefixes(),
        };
        self.send(&[from], ack, now_us, out);
    }

    fn handle_rejoin_ack(
        &mut self,
        from: ProcessId,
        clock: u64,
        your_highest: u64,
        prefixes: Vec<(ProcessId, u64)>,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        if self.joined || !self.rejoin_acks.insert(from) {
            return;
        }
        // Clock floor: never propose at or below (a) any timestamp a previous incarnation
        // of this process used (as recorded by the peer) or (b) the peer's own clock. Over
        // a recovery quorum of replies, (b) guarantees new proposals land above any
        // stability watermark derivable when the handshake completes — see DESIGN.md §5.
        self.clock_bump(clock.max(your_highest));
        // Seed the promise tracker with the peers' contiguous prefixes so stability
        // detection works again at this process (a prefix report is a promise witness).
        for (process, prefix) in prefixes {
            if prefix >= 1 {
                self.add_promise(process, PromiseRange::new(1, prefix));
            }
        }
        // This process plus the repliers form a recovery quorum: safe to participate.
        if self.rejoin_acks.len() + 1 >= self.config.recovery_quorum_size() {
            // Discard every promise buffered during the handshake (the floor bumps
            // above, plus any pre-join clock movement): broadcasting them would claim
            // the previous incarnation's range, which may contain attached proposals
            // still gated at the peers (DESIGN.md §5). The ranges stay registered in
            // the *local* tracker — this incarnation's own stability view — where the
            // exec-floor skip in `commit_with` already accounts for them.
            let _ = self.clock.take_detached();
            let _ = self.clock.take_attached();
            self.joined = true;
            if self.awaiting_state {
                // Back-fill the applied state from a peer before serving anything.
                self.send_state_request(now_us, out);
            } else {
                self.sync_stability(now_us, out);
            }
        }
    }

    // --------------------------------------------------------------- dispatch

    /// The dot a message is about, if any (`MPromises` and the rejoin handshake are the
    /// dot-free messages).
    fn message_dot(msg: &Message) -> Option<Dot> {
        match msg {
            Message::MSubmit { dot, .. }
            | Message::MPropose { dot, .. }
            | Message::MPayload { dot, .. }
            | Message::MProposeAck { dot, .. }
            | Message::MCommit { dot, .. }
            | Message::MConsensus { dot, .. }
            | Message::MConsensusAck { dot, .. }
            | Message::MBump { dot, .. }
            | Message::MStable { dot }
            | Message::MRec { dot, .. }
            | Message::MRecAck { dot, .. }
            | Message::MRecNAck { dot, .. }
            | Message::MCommitRequest { dot }
            | Message::MCommitInfo { dot, .. } => Some(*dot),
            Message::MPromises { .. }
            | Message::MPromiseRequest
            | Message::MPromiseRepair { .. }
            | Message::MRejoin
            | Message::MRejoinAck { .. }
            | Message::MStateRequest
            | Message::MState { .. } => None,
        }
    }

    fn dispatch(&mut self, from: ProcessId, msg: Message, now_us: u64) -> Vec<Action<Message>> {
        let mut out = Vec::new();
        // A message about a garbage-collected dot is stale by construction (every shard
        // peer has executed the command); dropping it also keeps the dot's metadata from
        // being resurrected as a zombie `info` entry.
        if let Some(dot) = Self::message_dot(&msg) {
            if self.gc.is_collected(dot) {
                return out;
            }
        }
        match msg {
            Message::MSubmit { dot, cmd, quorums } => {
                self.handle_submit(dot, cmd, quorums, now_us, &mut out)
            }
            Message::MPropose {
                dot,
                cmd,
                quorums,
                ts,
            } => self.handle_propose(from, dot, cmd, quorums, ts, now_us, &mut out),
            Message::MPayload { dot, cmd, quorums } => {
                self.handle_payload(dot, cmd, quorums, now_us, &mut out)
            }
            Message::MProposeAck { dot, ts, detached } => {
                self.handle_propose_ack(from, dot, ts, detached, now_us, &mut out)
            }
            Message::MCommit {
                dot,
                shard,
                ts,
                promises,
            } => self.handle_commit(dot, shard, ts, promises, now_us, &mut out),
            Message::MConsensus { dot, ts, ballot } => {
                self.handle_consensus(from, dot, ts, ballot, now_us, &mut out)
            }
            Message::MConsensusAck { dot, ballot } => {
                self.handle_consensus_ack(from, dot, ballot, now_us, &mut out)
            }
            Message::MBump { dot: _, ts } => {
                // Bumping the clock is always safe; it only makes future proposals larger.
                self.clock_bump(ts);
            }
            Message::MPromises {
                detached,
                attached,
                executed,
                frontier,
            } => self.handle_promises(
                from, detached, attached, executed, frontier, now_us, &mut out,
            ),
            Message::MStable { dot } => self.handle_stable(from, dot, now_us, &mut out),
            Message::MRec { dot, ballot } => self.handle_rec(from, dot, ballot, now_us, &mut out),
            Message::MRecAck {
                dot,
                ts,
                phase,
                abal,
                ballot,
            } => self.handle_rec_ack(from, dot, ts, phase, abal, ballot, now_us, &mut out),
            Message::MRecNAck { dot, ballot } => {
                self.handle_rec_nack(dot, ballot, now_us, &mut out)
            }
            Message::MCommitRequest { dot } => {
                self.handle_commit_request(from, dot, now_us, &mut out)
            }
            Message::MCommitInfo { dot, cmd, ts } => {
                self.handle_commit_info(dot, cmd, ts, now_us, &mut out)
            }
            Message::MPromiseRequest => self.handle_promise_request(from, now_us, &mut out),
            Message::MPromiseRepair { clock, pending } => {
                self.handle_promise_repair(from, clock, pending, now_us, &mut out)
            }
            Message::MRejoin => self.handle_rejoin(from, now_us, &mut out),
            Message::MRejoinAck {
                clock,
                your_highest,
                prefixes,
            } => self.handle_rejoin_ack(from, clock, your_highest, prefixes, now_us, &mut out),
            Message::MStateRequest => self.handle_state_request(from, now_us, &mut out),
            Message::MState {
                floors,
                kv,
                watermarks,
                queued,
            } => self.handle_state(floors, kv, watermarks, queued, now_us, &mut out),
        }
        out
    }
}

impl Protocol for Tempo {
    type Message = Message;
    type Executor = TempoExecutor;

    const NAME: &'static str = "Tempo";

    fn new(process: ProcessId, shard: ShardId, config: Config) -> Self {
        Self::with_options(process, shard, config, TempoOptions::default())
    }

    fn id(&self) -> ProcessId {
        self.process
    }

    fn shard(&self) -> ShardId {
        self.shard
    }

    fn discover(&mut self, view: View) -> Vec<Action<Message>> {
        assert_eq!(
            view.config, self.config,
            "view must match the configuration"
        );
        self.view = view;
        // Tempo owns two periodic events: the promise broadcast and the liveness scan.
        vec![
            Action::schedule(TIMER_PROMISES, self.options.promise_interval_us),
            Action::schedule(TIMER_LIVENESS, self.options.liveness_interval_us),
        ]
    }

    fn submit(&mut self, cmd: Command, now_us: u64) -> Vec<Action<Message>> {
        // Algorithm 1, lines 1-4: the submitting process must replicate one of the shards
        // the command accesses (pre: i ∈ I_c).
        assert!(
            cmd.accesses(self.shard),
            "commands must be submitted at a process replicating one of their shards"
        );
        let dot = self.dot_gen.next_id();
        // Write-ahead: a durable floor must cover this dot before the submission's
        // messages leave (the driver syncs the append in its persist hook).
        self.wal_log_dot_floor();
        let mut quorums = Quorums::new();
        for shard in cmd.shards() {
            quorums.insert(
                shard,
                self.alive_fast_quorum(shard, self.config.fast_quorum_size()),
            );
        }
        let targets = self.alive_coordinators(&cmd);
        let msg = Message::MSubmit { dot, cmd, quorums };
        let mut out = Vec::new();
        self.send(&targets, msg, now_us, &mut out);
        out
    }

    fn handle(&mut self, from: ProcessId, msg: Message, now_us: u64) -> Vec<Action<Message>> {
        self.dispatch(from, msg, now_us)
    }

    fn suspect(&mut self, process: ProcessId) {
        Tempo::suspect(self, process);
    }

    fn unsuspect(&mut self, process: ProcessId) {
        Tempo::unsuspect(self, process);
    }

    fn rejoin(&mut self, incarnation: u64, now_us: u64) -> Vec<Action<Message>> {
        self.incarnation = incarnation;
        // Reserve a disjoint band of the dot sequence space per incarnation: a restarted
        // process must never reuse a dot of a previous life (the old dot may be executed
        // — or garbage collected — everywhere already).
        self.dot_gen.skip_to(incarnation << 48);
        self.joined = false;
        self.rejoin_acks.clear();
        // Gate execution until a peer's state snapshot back-fills the commands this
        // replica missed while down (even a durable store cannot hold those); the
        // request goes out once the rejoin handshake completes.
        self.awaiting_state = self.options.state_transfer;
        self.state_request_attempts = 0;
        // A fresh incarnation has no execution gaps: its store *is* its floor, and the
        // forthcoming transfer (re-)establishes completeness from a peer's image.
        // Hole suspicion likewise restarts from the post-transfer frontier.
        self.exec_gaps.clear();
        self.hole_suspects.clear();
        let mut out = Vec::new();
        self.send_rejoin(now_us, &mut out);
        out
    }

    fn timer(&mut self, timer: TimerId, now_us: u64) -> Vec<Action<Message>> {
        let mut out = Vec::new();
        match timer {
            TIMER_PROMISES => {
                // Periodic MPromises broadcast (Algorithm 2, line 45). Local copies of
                // these promises were already registered when they were generated. The
                // executed watermarks piggyback on it, so committed-command GC is free
                // whenever promise traffic flows; once it stops, a frontier-only
                // broadcast (accounted in `gc_messages`) ships the final window — GC
                // liveness must not depend on continuous traffic.
                let promises_pending = self.clock.has_pending_promises();
                let frontier = self.promise_frontier();
                // Mid-rejoin nothing may be broadcast: the buffers hold floor bumps
                // over the previous incarnation's range (see `handle_rejoin_ack`).
                if self.joined
                    && (promises_pending
                        || self.gc.frontier_changed()
                        || frontier > self.last_frontier_sent)
                {
                    let detached = self.clock.take_detached();
                    let attached = self.clock.take_attached();
                    let targets: Vec<ProcessId> = self
                        .shard_peers
                        .iter()
                        .copied()
                        .filter(|p| *p != self.process)
                        .collect();
                    if !targets.is_empty() {
                        let executed = self.gc.executed_frontier();
                        self.gc.record_broadcast(&executed);
                        self.last_frontier_sent = frontier;
                        if !promises_pending {
                            self.metrics.gc_messages += targets.len() as u64;
                        }
                        let msg = Message::MPromises {
                            detached,
                            attached,
                            executed,
                            frontier,
                        };
                        self.send(&targets, msg, now_us, &mut out);
                    }
                }
                // Execution might have become possible thanks to locally generated
                // promises.
                self.sync_stability(now_us, &mut out);
                // Durable snapshots are paced off the same timer: off the message hot
                // path, and naturally quiescent when the WAL is.
                self.maybe_snapshot();
                out.push(Action::schedule(
                    TIMER_PROMISES,
                    self.options.promise_interval_us,
                ));
            }
            TIMER_LIVENESS => {
                if self.joined {
                    if self.awaiting_state
                        && now_us.saturating_sub(self.last_state_request_us)
                            >= self.options.commit_request_timeout_us
                    {
                        // The state transfer is outstanding (request or reply lost, or
                        // the target itself mid-rejoin): retry against the next peer.
                        self.send_state_request(now_us, &mut out);
                    }
                    self.liveness_scan(now_us, &mut out);
                } else {
                    // Mid-rejoin: retry the handshake instead of probing pending dots
                    // (an unanswered MRejoin must not strand the process forever).
                    self.send_rejoin(now_us, &mut out);
                }
                out.push(Action::schedule(
                    TIMER_LIVENESS,
                    self.options.liveness_interval_us,
                ));
            }
            _ => {}
        }
        out
    }

    fn persist(&mut self) {
        // Flush the WAL appends of this dispatch step in one batch; the driver calls
        // this before the step's messages are handed to the transport, which is what
        // makes every append above a *write-ahead* (DESIGN.md §6).
        if let Some(store) = &mut self.store {
            store.sync();
        }
    }

    fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn executor(&self) -> &TempoExecutor {
        &self.executor
    }

    fn metrics(&self) -> ProtocolMetrics {
        let mut metrics = self.metrics.clone();
        // The execution stage is the single source of truth for the executed count.
        metrics.executed = self.executor.executed();
        if let Some(store) = &self.store {
            let m = store.metrics();
            metrics.wal_appends = m.wal_appends;
            metrics.wal_bytes = m.wal_bytes;
            metrics.snapshots_taken = m.snapshots_taken;
        }
        metrics
    }
}
