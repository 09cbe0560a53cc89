//! The Tempo execution stage: per-key stability-ordered execution as a separate,
//! independently testable component (Algorithm 2 lines 49-53 and Algorithm 3 lines
//! 60-66).
//!
//! The ordering stage ([`crate::protocol::Tempo`]) feeds this executor three kinds of
//! [`ExecutionInfo`] events: commands committed with their final timestamp, commands
//! becoming stable on their keys (decided by [`crate::stability::KeyStability`]), and
//! per-shard stability announcements (`MStable`) for multi-shard commands. The executor
//! owns the replicated key-value store and keeps one `⟨timestamp, id⟩` queue per key. A
//! command executes once it is stable, heads the queue of each of its keys, and — for a
//! multi-shard command — the colocated replica of every other accessed shard has
//! announced stability.
//!
//! Commands on different keys commute, so the executed set is a `⟨ts, id⟩` prefix *per
//! key*, recorded as one execution floor per key (the last command executed on it).
//! Every replica executes each key's commands in the same order; the interleaving
//! across keys may differ between replicas.
//!
//! Work per event is proportional to what the event can change: an event re-examines
//! only its own command, and an execution only the new heads of its keys' queues.
//!
//! Because the executor never looks at protocol state, it can be unit-tested by feeding
//! hand-crafted event sequences (see the tests below), exactly the ordering/execution
//! split the paper describes.

use std::collections::{BTreeMap, BTreeSet};
use tempo_kernel::command::{Command, Key};
use tempo_kernel::config::Config;
use tempo_kernel::id::{Dot, ProcessId, ShardId};
use tempo_kernel::kvstore::KVStore;
use tempo_kernel::protocol::{Executed, Executor};
use tempo_store::snapshot::KeyFloor;

/// Ordering events handed from the Tempo ordering stage to the executor.
#[derive(Debug, Clone)]
pub enum ExecutionInfo {
    /// A command committed with final timestamp `ts`. `waits` are the *other* accessed
    /// shards whose `MStable` attestation must arrive before the command may execute
    /// locally (empty for single-shard commands). Waits are keyed by shard — an
    /// attestation from *any* replica of the shard clears it (stability is a
    /// shard-global property), so a single crashed attestor cannot stall execution.
    Committed {
        /// Command identifier.
        dot: Dot,
        /// The final (maximum over shards) timestamp.
        ts: u64,
        /// The command payload.
        cmd: Command,
        /// The other accessed shards whose stability attestation is still required.
        waits: Vec<ShardId>,
    },
    /// The committed command `dot` became stable on its keys: no command on them can
    /// still commit below it (see [`crate::stability`]).
    Stable {
        /// Command identifier.
        dot: Dot,
    },
    /// Some replica of `shard` announced that `dot` is stable there (`MStable`).
    ShardStable {
        /// Command identifier.
        dot: Dot,
        /// The shard the announcement attests stability for.
        shard: ShardId,
    },
}

/// The keys of `cmd` at `shard`, sorted and deduplicated.
pub(crate) fn keys_at(cmd: &Command, shard: ShardId) -> Vec<Key> {
    let mut keys: Vec<Key> = cmd.keys_of(shard).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

#[derive(Debug)]
struct PendingCommand {
    ts: u64,
    cmd: Command,
    /// The command's keys at this shard (sorted, deduplicated).
    keys: Vec<Key>,
    /// Sibling shards whose `MStable` attestation is still missing.
    waits: BTreeSet<ShardId>,
    /// Whether the command is stable on its keys.
    stable: bool,
}

/// The Tempo executor at one process.
#[derive(Debug)]
pub struct TempoExecutor {
    shard: ShardId,
    /// Committed-but-not-executed commands per key, ordered by `⟨final timestamp, id⟩`.
    queues: BTreeMap<Key, BTreeSet<(u64, Dot)>>,
    pending: BTreeMap<Dot, PendingCommand>,
    /// `MStable` attestations (by shard) received before the command committed locally.
    early_stables: BTreeMap<Dot, BTreeSet<ShardId>>,
    /// Multi-shard dots that became locally stable and still need an `MStable`
    /// broadcast; drained by the ordering stage via [`Self::take_newly_stable`].
    newly_stable: Vec<Dot>,
    /// Dots executed and not yet claimed via [`Self::take_executed_dots`].
    executed_dots: Vec<Dot>,
    /// Per key, the `⟨timestamp, dot⟩` of the last command executed on it — the
    /// *execution floors*. Each key's queue pops in `⟨ts, id⟩` order, so the commands
    /// executed on a key are exactly those at or below its floor. Durable snapshots
    /// and rejoin state transfers are cut at these floors (DESIGN.md §6).
    floors: BTreeMap<Key, (u64, Dot)>,
    /// While gated, execution is suspended (commands still commit into the queues and
    /// stable multi-shard commands are still announced to sibling shards). The
    /// ordering stage gates the executor when the applied image is known to be
    /// missing a skipped command — executing past such a gap would compute (and hand
    /// to clients) values from an incomplete store — and ungates once a state
    /// transfer whose floors cover every gap installs.
    gated: bool,
    kv: KVStore,
    executed_count: u64,
}

/// Where a committed command `⟨ts, dot⟩` falls relative to the executed per-key
/// prefixes (see [`TempoExecutor::placement`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Placement {
    /// Above the floor of every one of its keys: it can still execute in order.
    Open,
    /// At or below the floor of every one of its keys: the applied image already
    /// accounts for it (a state transfer installed those floors).
    Covered,
    /// Some of its keys executed past it and others did not reach it: it never
    /// executed here, and the image misses its write on the keys that moved on.
    Behind,
}

impl TempoExecutor {
    /// Multi-shard dots that became locally stable since the last call and must be
    /// announced with `MStable` to every replica of the command.
    pub fn take_newly_stable(&mut self) -> Vec<Dot> {
        std::mem::take(&mut self.newly_stable)
    }

    /// Dots executed since the last call (for phase bookkeeping in the ordering stage).
    pub fn take_executed_dots(&mut self) -> Vec<Dot> {
        std::mem::take(&mut self.executed_dots)
    }

    /// Number of committed commands waiting to execute.
    pub fn queued(&self) -> usize {
        self.pending.len()
    }

    /// Read access to the replicated store (tests and diagnostics).
    pub fn store(&self) -> &KVStore {
        &self.kv
    }

    /// Drops the bookkeeping of a garbage-collected (everywhere-executed) dot. The only
    /// state that can outlive execution is an `early_stables` entry left by an `MStable`
    /// that arrived after the command executed here.
    pub fn gc(&mut self, dot: Dot) {
        self.early_stables.remove(&dot);
    }

    /// The execution floor of `key`: the `⟨timestamp, dot⟩` of the last command
    /// executed on it (`(0, (0, 0))` if none).
    pub fn floor_of(&self, key: Key) -> (u64, Dot) {
        self.floors
            .get(&key)
            .copied()
            .unwrap_or((0, Dot::new(0, 0)))
    }

    /// Every key's execution floor, in key order (snapshots and state transfers).
    pub fn floors(&self) -> Vec<KeyFloor> {
        self.floors
            .iter()
            .map(|(key, (ts, dot))| (*key, *ts, *dot))
            .collect()
    }

    /// Where the command `⟨ts, dot⟩` on `keys` falls relative to the executed per-key
    /// prefixes.
    pub(crate) fn placement(&self, ts: u64, dot: Dot, keys: &[Key]) -> Placement {
        let mut covered = true;
        let mut behind = false;
        for key in keys {
            let floor = self.floor_of(*key);
            covered &= floor >= (ts, dot);
            behind |= floor > (ts, dot);
        }
        if covered && !keys.is_empty() {
            Placement::Covered
        } else if behind {
            Placement::Behind
        } else {
            Placement::Open
        }
    }

    /// Whether `dot` is committed but not yet executed here (queued or waiting).
    pub fn is_queued(&self, dot: Dot) -> bool {
        self.pending.contains_key(&dot)
    }

    /// Suspends execution (the applied image is missing a skipped command; see the
    /// `gated` field). Committing and stability announcements continue.
    pub fn gate(&mut self) {
        self.gated = true;
    }

    /// Whether execution is currently suspended.
    pub fn is_gated(&self) -> bool {
        self.gated
    }

    /// Resumes execution after the gaps were closed (by a state transfer whose floors
    /// cover them), running every queue head that became ready while gated and
    /// returning the executions.
    pub fn ungate(&mut self) -> Vec<Executed> {
        self.gated = false;
        let heads: BTreeSet<(u64, Dot)> = self
            .queues
            .values()
            .filter_map(|queue| queue.first().copied())
            .collect();
        let mut out = Vec::new();
        self.run(heads, &mut out);
        out
    }

    /// The applied key-value state as `(key, value)` pairs (snapshots and state
    /// transfers; the image corresponds exactly to the [`Self::floors`] prefixes).
    pub fn kv_entries(&self) -> Vec<(Key, u64)> {
        self.kv.entries()
    }

    /// The committed-but-unexecuted commands, in `⟨ts, id⟩` order, with each entry's
    /// remaining sibling-shard waits and whether it is stable (for durable snapshots
    /// and state transfers).
    pub fn queued_entries(&self) -> Vec<(Dot, u64, Command, Vec<ShardId>, bool)> {
        let mut entries: Vec<(Dot, u64, Command, Vec<ShardId>, bool)> = self
            .pending
            .iter()
            .map(|(dot, pending)| {
                (
                    *dot,
                    pending.ts,
                    pending.cmd.clone(),
                    pending.waits.iter().copied().collect(),
                    pending.stable,
                )
            })
            .collect();
        entries.sort_by_key(|(dot, ts, ..)| (*ts, *dot));
        entries
    }

    /// Restores the executor from a durable snapshot: the applied image and its
    /// per-key floors. The queued commits of the snapshot are re-fed by the caller as
    /// ordinary `Committed` (and, if they were, `Stable`) events — the executor
    /// re-derives execution order itself.
    pub fn restore(&mut self, floors: Vec<KeyFloor>, executed: u64, kv: Vec<(Key, u64)>) {
        debug_assert!(
            self.pending.is_empty(),
            "restore only into a fresh executor"
        );
        self.floors = floors
            .into_iter()
            .map(|(key, ts, dot)| (key, (ts, dot)))
            .collect();
        self.executed_count = executed;
        self.kv.restore(kv, executed);
    }

    /// Installs a rejoin state transfer: every key whose transferred floor is ahead of
    /// the local one takes the peer's value (the peer's image is complete up to its
    /// floors) and that floor, and every queued command now at or below the floor of
    /// one of its keys is dropped — its effects are contained in the transferred
    /// image. Returns the dropped dots so the ordering stage can account them as
    /// executed-elsewhere.
    pub fn install_transfer(&mut self, kv: Vec<(Key, u64)>, floors: Vec<KeyFloor>) -> Vec<Dot> {
        let values: BTreeMap<Key, u64> = kv.into_iter().collect();
        let mut image: BTreeMap<Key, u64> = self.kv.entries().into_iter().collect();
        for (key, ts, dot) in floors {
            if (ts, dot) > self.floor_of(key) {
                self.floors.insert(key, (ts, dot));
                match values.get(&key) {
                    Some(value) => image.insert(key, *value),
                    None => image.remove(&key),
                };
            }
        }
        self.kv
            .restore(image.into_iter().collect(), self.kv.commands_executed());
        let dropped: Vec<Dot> = self
            .pending
            .iter()
            .filter(|(dot, p)| {
                p.keys
                    .iter()
                    .any(|key| self.floor_of(*key) >= (p.ts, **dot))
            })
            .map(|(dot, _)| *dot)
            .collect();
        for dot in &dropped {
            let pending = self.pending.remove(dot).expect("listed above");
            self.unqueue(pending.ts, *dot, &pending.keys);
            self.early_stables.remove(dot);
        }
        dropped
    }

    /// Removes `⟨ts, dot⟩` from the queues of `keys`.
    fn unqueue(&mut self, ts: u64, dot: Dot, keys: &[Key]) {
        for key in keys {
            if let Some(queue) = self.queues.get_mut(key) {
                queue.remove(&(ts, dot));
                if queue.is_empty() {
                    self.queues.remove(key);
                }
            }
        }
    }

    /// Whether the pending command `dot` may execute now: stable, no sibling waits, and
    /// at the head of every one of its keys' queues.
    fn ready(&self, dot: Dot) -> bool {
        let Some(pending) = self.pending.get(&dot) else {
            return false;
        };
        pending.stable
            && pending.waits.is_empty()
            && pending.keys.iter().all(|key| {
                self.queues
                    .get(key)
                    .and_then(|queue| queue.first())
                    .is_some_and(|head| *head == (pending.ts, dot))
            })
    }

    /// Executes every ready command among `candidates` and, transitively, among the
    /// new queue heads each execution exposes. Suspended entirely while gated.
    fn run(&mut self, mut candidates: BTreeSet<(u64, Dot)>, out: &mut Vec<Executed>) {
        if self.gated {
            return;
        }
        while let Some((ts, dot)) = candidates.pop_first() {
            if !self.ready(dot) {
                continue;
            }
            let pending = self
                .pending
                .remove(&dot)
                .expect("ready commands are pending");
            self.unqueue(ts, dot, &pending.keys);
            let result = self.kv.execute(self.shard, &pending.cmd);
            out.push(Executed {
                rifl: pending.cmd.rifl,
                result,
            });
            self.executed_count += 1;
            for key in &pending.keys {
                self.floors.insert(*key, (ts, dot));
                if let Some(head) = self.queues.get(key).and_then(|queue| queue.first()) {
                    candidates.insert(*head);
                }
            }
            self.executed_dots.push(dot);
            self.early_stables.remove(&dot);
        }
    }
}

impl Executor for TempoExecutor {
    type Info = ExecutionInfo;

    fn new(_process: ProcessId, shard: ShardId, _config: Config) -> Self {
        Self {
            shard,
            queues: BTreeMap::new(),
            pending: BTreeMap::new(),
            early_stables: BTreeMap::new(),
            newly_stable: Vec::new(),
            executed_dots: Vec::new(),
            floors: BTreeMap::new(),
            gated: false,
            kv: KVStore::new(),
            executed_count: 0,
        }
    }

    fn handle(&mut self, info: ExecutionInfo) -> Vec<Executed> {
        let mut out = Vec::new();
        let dot = match info {
            ExecutionInfo::Committed {
                dot,
                ts,
                cmd,
                waits,
            } => {
                if self.pending.contains_key(&dot) {
                    return out;
                }
                let mut waits: BTreeSet<ShardId> = waits.into_iter().collect();
                if let Some(early) = self.early_stables.remove(&dot) {
                    for shard in early {
                        waits.remove(&shard);
                    }
                }
                let keys = keys_at(&cmd, self.shard);
                for key in &keys {
                    self.queues.entry(*key).or_default().insert((ts, dot));
                }
                self.pending.insert(
                    dot,
                    PendingCommand {
                        ts,
                        cmd,
                        keys,
                        waits,
                        stable: false,
                    },
                );
                dot
            }
            ExecutionInfo::Stable { dot } => {
                let Some(pending) = self.pending.get_mut(&dot) else {
                    return out;
                };
                if pending.stable {
                    return out;
                }
                pending.stable = true;
                // The `MStable` announcement of Algorithm 3: stability is attested as
                // soon as it holds locally, without waiting for earlier commands to
                // execute (and even while gated — it is an ordering fact).
                if pending.cmd.is_multi_shard() {
                    self.newly_stable.push(dot);
                }
                dot
            }
            ExecutionInfo::ShardStable { dot, shard } => {
                match self.pending.get_mut(&dot) {
                    Some(pending) => {
                        pending.waits.remove(&shard);
                    }
                    None => {
                        self.early_stables.entry(dot).or_default().insert(shard);
                        return out;
                    }
                }
                dot
            }
        };
        let ts = self.pending[&dot].ts;
        self.run(BTreeSet::from([(ts, dot)]), &mut out);
        out
    }

    fn executed(&self) -> u64 {
        self.executed_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::promises::PromiseRange;
    use crate::stability::KeyStability;
    use tempo_kernel::command::KVOp;
    use tempo_kernel::id::Rifl;

    fn executor() -> TempoExecutor {
        TempoExecutor::new(0, 0, Config::full(3, 1))
    }

    fn cmd(seq: u64, key: u64) -> Command {
        Command::single(Rifl::new(1, seq), 0, key, KVOp::Put(seq), 0)
    }

    fn multi_cmd(seq: u64) -> Command {
        Command::new(
            Rifl::new(1, seq),
            vec![(0, 1, KVOp::Put(seq)), (1, 2, KVOp::Put(seq))],
            0,
        )
    }

    fn commit(ex: &mut TempoExecutor, dot: Dot, ts: u64, cmd: Command) -> Vec<Executed> {
        let waits = if cmd.is_multi_shard() {
            vec![1]
        } else {
            vec![]
        };
        ex.handle(ExecutionInfo::Committed {
            dot,
            ts,
            cmd,
            waits,
        })
    }

    fn stable(ex: &mut TempoExecutor, dot: Dot) -> Vec<Executed> {
        ex.handle(ExecutionInfo::Stable { dot })
    }

    /// Feeds the detector's releases to the executor, as the ordering stage does.
    fn release(ks: &mut KeyStability, ex: &mut TempoExecutor) -> Vec<Rifl> {
        let mut rifls = Vec::new();
        for dot in ks.release() {
            rifls.extend(stable(ex, dot).into_iter().map(|e| e.rifl));
        }
        rifls
    }

    #[test]
    fn executes_each_key_in_timestamp_order() {
        let mut ex = executor();
        // Committed out of timestamp order on one key.
        assert!(commit(&mut ex, Dot::new(2, 1), 5, cmd(2, 0)).is_empty());
        assert!(commit(&mut ex, Dot::new(1, 1), 3, cmd(1, 0)).is_empty());
        // The later command is stable first, but does not head its key.
        assert!(stable(&mut ex, Dot::new(2, 1)).is_empty());
        // Releasing the head executes both, in order.
        let executed = stable(&mut ex, Dot::new(1, 1));
        let rifls: Vec<Rifl> = executed.iter().map(|e| e.rifl).collect();
        assert_eq!(rifls, vec![Rifl::new(1, 1), Rifl::new(1, 2)]);
        assert_eq!(ex.executed(), 2);
        assert_eq!(
            ex.take_executed_dots(),
            vec![Dot::new(1, 1), Dot::new(2, 1)]
        );
        assert_eq!(ex.floor_of(0), (5, Dot::new(2, 1)));
    }

    #[test]
    fn multi_shard_commands_wait_for_sibling_stability() {
        let mut ex = executor();
        assert!(commit(&mut ex, Dot::new(1, 1), 1, multi_cmd(1)).is_empty());
        // Locally stable: announced but blocked on the sibling shard.
        assert!(stable(&mut ex, Dot::new(1, 1)).is_empty());
        assert_eq!(ex.take_newly_stable(), vec![Dot::new(1, 1)]);
        // The sibling announcement releases it.
        let executed = ex.handle(ExecutionInfo::ShardStable {
            dot: Dot::new(1, 1),
            shard: 1,
        });
        assert_eq!(executed.len(), 1);
    }

    #[test]
    fn early_shard_stable_is_buffered() {
        let mut ex = executor();
        // MStable arrives before the local commit (multi-shard race).
        assert!(ex
            .handle(ExecutionInfo::ShardStable {
                dot: Dot::new(1, 1),
                shard: 1,
            })
            .is_empty());
        assert!(commit(&mut ex, Dot::new(1, 1), 2, multi_cmd(1)).is_empty());
        let executed = stable(&mut ex, Dot::new(1, 1));
        assert_eq!(executed.len(), 1, "buffered MStable must count");
    }

    #[test]
    fn blocked_multi_shard_command_blocks_only_its_keys() {
        let mut ex = executor();
        let _ = commit(&mut ex, Dot::new(1, 1), 1, multi_cmd(1));
        let _ = commit(&mut ex, Dot::new(2, 1), 2, cmd(2, 9));
        let _ = commit(&mut ex, Dot::new(3, 1), 3, cmd(3, 1));
        assert!(stable(&mut ex, Dot::new(1, 1)).is_empty());
        // Key 9 is not touched by the blocked multi-shard command: it executes.
        assert_eq!(stable(&mut ex, Dot::new(2, 1)).len(), 1);
        // Key 1 is: the later command on it waits behind the multi-shard head.
        assert!(stable(&mut ex, Dot::new(3, 1)).is_empty());
        let executed = ex.handle(ExecutionInfo::ShardStable {
            dot: Dot::new(1, 1),
            shard: 1,
        });
        assert_eq!(executed.len(), 2, "unblocking the head releases its key");
    }

    #[test]
    fn each_multi_shard_command_is_announced_once() {
        // Interleave Committed / Stable / ShardStable events while every command is
        // blocked on its sibling shard: each is announced exactly once, however many
        // events arrive for it.
        let mut ex = executor();
        let n = 50u64;
        for seq in 1..=n {
            assert!(commit(&mut ex, Dot::new(1, seq), seq, multi_cmd(seq)).is_empty());
            assert!(stable(&mut ex, Dot::new(1, seq)).is_empty());
            assert!(stable(&mut ex, Dot::new(1, seq)).is_empty());
        }
        assert_eq!(ex.queued() as u64, n);
        assert_eq!(ex.take_newly_stable().len() as u64, n);
        // Sibling announcements release the key's queue in order.
        for seq in 1..=n {
            let executed = ex.handle(ExecutionInfo::ShardStable {
                dot: Dot::new(1, seq),
                shard: 1,
            });
            assert_eq!(executed.len(), 1);
        }
        assert!(ex.take_newly_stable().is_empty());
        assert_eq!(ex.executed(), n);
        assert_eq!(ex.queued(), 0);
    }

    #[test]
    fn gc_clears_leftover_early_stables() {
        let mut ex = executor();
        // An MStable that arrives for a command this process already executed (or never
        // commits) would otherwise be buffered forever.
        let _ = ex.handle(ExecutionInfo::ShardStable {
            dot: Dot::new(1, 1),
            shard: 1,
        });
        assert_eq!(ex.early_stables.len(), 1);
        ex.gc(Dot::new(1, 1));
        assert!(ex.early_stables.is_empty());
    }

    /// A detector for processes 0, 1, 2 whose promises are complete up to `upto`.
    fn detector(upto: u64) -> KeyStability {
        let mut ks = KeyStability::new(&[0, 1, 2], 1);
        for p in 0..3 {
            ks.add(p, PromiseRange::new(1, upto));
        }
        ks
    }

    #[test]
    fn key_a_executes_while_a_lower_key_b_command_is_uncommitted() {
        let mut ks = detector(5);
        let mut ex = executor();
        // Key b: a command known with proposals 2 at a majority, not committed.
        ks.propose(Dot::new(2, 1), &[20], 0, 2);
        ks.propose(Dot::new(2, 1), &[20], 1, 2);
        // Key a: a command committed at 5.
        let _ = commit(&mut ex, Dot::new(1, 1), 5, cmd(1, 10));
        ks.commit(Dot::new(1, 1), vec![10], 5);
        assert_eq!(release(&mut ks, &mut ex), vec![Rifl::new(1, 1)]);
        // The key-b command commits later, below 5, and still executes in order on b.
        let _ = commit(&mut ex, Dot::new(2, 1), 3, cmd(2, 20));
        ks.commit(Dot::new(2, 1), vec![20], 3);
        assert_eq!(release(&mut ks, &mut ex), vec![Rifl::new(1, 2)]);
    }

    #[test]
    fn known_uncommitted_same_key_proposal_blocks() {
        let mut ks = detector(9);
        let mut ex = executor();
        // A known-uncommitted command on key 10 holds the proposal 4 at processes 0
        // and 1 — a majority: it may still commit below 5.
        ks.propose(Dot::new(2, 1), &[10], 0, 4);
        ks.propose(Dot::new(2, 1), &[10], 1, 4);
        let _ = commit(&mut ex, Dot::new(1, 1), 5, cmd(1, 10));
        ks.commit(Dot::new(1, 1), vec![10], 5);
        assert!(
            release(&mut ks, &mut ex).is_empty(),
            "proposal 4 <= 5 blocks"
        );
        // It commits at 4 — below the blocked command, which it must precede.
        let _ = commit(&mut ex, Dot::new(2, 1), 4, cmd(2, 10));
        ks.commit(Dot::new(2, 1), vec![10], 4);
        assert_eq!(
            release(&mut ks, &mut ex),
            vec![Rifl::new(1, 2), Rifl::new(1, 1)]
        );
        assert_eq!(ex.store().get(10), Some(1), "the ts-5 write lands last");
    }

    #[test]
    fn multi_key_command_waits_to_head_both_keys() {
        let mut ex = executor();
        let both = Command::new(
            Rifl::new(1, 3),
            vec![(0, 1, KVOp::Add(1)), (0, 2, KVOp::Add(1))],
            0,
        );
        let _ = commit(&mut ex, Dot::new(1, 1), 1, cmd(1, 1));
        let _ = commit(&mut ex, Dot::new(1, 2), 2, cmd(2, 2));
        let _ = commit(&mut ex, Dot::new(1, 3), 3, both);
        assert!(stable(&mut ex, Dot::new(1, 3)).is_empty());
        // Key 2's earlier command executes; the multi-key command now heads key 2, but
        // key 1's earlier command is still queued.
        assert_eq!(stable(&mut ex, Dot::new(1, 2)).len(), 1);
        assert_eq!(ex.queued(), 2);
        let executed = stable(&mut ex, Dot::new(1, 1));
        let rifls: Vec<Rifl> = executed.iter().map(|e| e.rifl).collect();
        assert_eq!(rifls, vec![Rifl::new(1, 1), Rifl::new(1, 3)]);
        assert_eq!(ex.store().get(1), Some(2));
        assert_eq!(ex.store().get(2), Some(3));
    }

    #[test]
    fn install_transfer_drops_exactly_the_covered_entries() {
        let mut ex = executor();
        let _ = commit(&mut ex, Dot::new(1, 1), 4, cmd(1, 1)); // covered on key 1
        let _ = commit(&mut ex, Dot::new(1, 2), 6, cmd(2, 1)); // above key 1's floor
        let _ = commit(&mut ex, Dot::new(1, 3), 4, cmd(3, 2)); // key 2: no new floor
        let _ = commit(&mut ex, Dot::new(1, 4), 7, cmd(4, 3)); // covered on key 3
        let dropped = ex.install_transfer(
            vec![(1, 11), (3, 33)],
            vec![(1, 5, Dot::new(2, 9)), (3, 7, Dot::new(1, 4))],
        );
        assert_eq!(dropped, vec![Dot::new(1, 1), Dot::new(1, 4)]);
        assert!(ex.is_queued(Dot::new(1, 2)) && ex.is_queued(Dot::new(1, 3)));
        assert_eq!(ex.floor_of(1), (5, Dot::new(2, 9)));
        assert_eq!(ex.floor_of(2), (0, Dot::new(0, 0)));
        assert_eq!(ex.store().get(1), Some(11));
        assert_eq!(ex.store().get(3), Some(33));
        // The remaining entries execute on top of the installed image.
        assert_eq!(stable(&mut ex, Dot::new(1, 2)).len(), 1);
        assert_eq!(stable(&mut ex, Dot::new(1, 3)).len(), 1);
        assert_eq!(ex.store().get(1), Some(2));
        // A transfer behind the local floors changes nothing.
        let dropped = ex.install_transfer(vec![(1, 0)], vec![(1, 5, Dot::new(2, 9))]);
        assert!(dropped.is_empty());
        assert_eq!(ex.store().get(1), Some(2));
        assert_eq!(ex.placement(5, Dot::new(2, 9), &[1]), Placement::Covered);
        assert_eq!(
            ex.placement(5, Dot::new(2, 9), &[1, 2]),
            Placement::Behind,
            "key 1 executed ⟨6, (1, 2)⟩ past it, key 2 did not reach it"
        );
        assert_eq!(ex.placement(9, Dot::new(1, 9), &[1, 2]), Placement::Open);
    }
}
