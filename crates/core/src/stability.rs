//! Per-key stability detection (DESIGN.md §3): when a committed command may execute.
//!
//! Theorem 1 makes a timestamp `t` stable once a majority of processes promised every
//! timestamp up to `t`: any command that still commits with a timestamp at or below
//! `t` must carry the attached promise of one of those processes. The partition-wide
//! rule waits until *every* such command committed locally. Ordering only matters
//! between commands on the same key, though, so this detector waits only for the
//! commands on the keys of the one being released.
//!
//! The detector owns the *receipt-fed* [`PromiseTracker`]: it takes every promise the
//! commit-gated tracker takes, plus each attached promise as soon as its command's
//! payload — and thus its key set — is known (instead of at commit, Algorithm 2 line
//! 47). A committed command on keys `K` with final timestamp `t` is released as
//! *stable* once
//!
//! * `t` is at or below the receipt-fed watermark, and
//! * no known-but-uncommitted command on a key of `K` holds a proposal at or below `t`
//!   that could still end up ordered before it (see below).
//!
//! Safety rests on the invariant Theorem 1 rests on: every committed command `c'` has a
//! majority of its shard whose attached proposals for `c'` are all at or below its
//! timestamp — the quorum the timestamp was computed from (the fast quorum on the fast
//! and slow paths, the replies of the recovery quorum on recovery). Suppose `c'` on a
//! key of `K` later commits at or below `t`, and let `S` be that majority. Every
//! process of `S` whose receipt-fed prefix reached `t` attached a proposal `p ≤ t` to
//! `c'` that is inside the prefix, and an attached promise only enters the receipt-fed
//! tracker once its command's payload is known — so `c'` is known here with that
//! proposal. Hence `c'` can only precede `c` if the processes with a known proposal at
//! or below `t` for it, together with the processes whose prefix is still below `t`,
//! form a majority; as long as they do, `c'` blocks `c`. (The watermark being at least
//! `t` means a majority already reached `t`, so at least one known proposal is needed.)
//! Once `c'` commits, the executor's per-key `⟨ts, id⟩` queues order the two. A promise
//! a process attached to a command on *another* key still counts toward the watermark:
//! the process will never propose that timestamp again, for any command.

use crate::promises::{PromiseRange, PromiseTracker};
use std::collections::{BTreeMap, BTreeSet};
use tempo_kernel::command::Key;
use tempo_kernel::id::{Dot, ProcessId};

/// A known-but-uncommitted command: its keys and the proposals known for it.
#[derive(Debug, Clone)]
struct Known {
    keys: Vec<Key>,
    /// The lowest known proposal (its position in the per-key blocker sets).
    lowest: u64,
    /// Known proposals by process (the lowest per process).
    proposals: BTreeMap<ProcessId, u64>,
}

/// The per-key stability detector at one process (see the module docs).
///
/// Work is proportional to what an event can change. A waiting command is examined
/// when the watermark first covers it (or at commit, if it already does); if a blocker
/// holds it, it is parked on that blocker and examined again only when the blocker
/// leaves (commits or is forgotten) or when some process's receipt-fed prefix climbs
/// past its timestamp — the two events that can make `could_precede` false. New
/// proposals and new blockers only ever block more, so they examine nothing.
#[derive(Debug, Clone)]
pub struct KeyStability {
    /// The receipt-fed promise tracker.
    tracker: PromiseTracker,
    /// Size of a majority of the shard.
    majority: usize,
    /// Known-uncommitted commands.
    known: BTreeMap<Dot, Known>,
    /// Per key, the `(lowest proposal, dot)` of every known-uncommitted command on it.
    blockers: BTreeMap<Key, BTreeSet<(u64, Dot)>>,
    /// Committed commands not yet released, by `⟨final ts, id⟩`, with their keys.
    waiting: BTreeMap<(u64, Dot), Vec<Key>>,
    /// The watermark at the last [`Self::release`]: waiting entries above it have not
    /// been examined yet, every one at or below it is parked or in `recheck`.
    examined_upto: u64,
    /// Per blocker, the waiting entries parked on it (entries that left or moved on are
    /// skipped when the blocker leaves).
    parked: BTreeMap<Dot, BTreeSet<(u64, Dot)>>,
    /// Entries to examine at the next release: commits already under the watermark and
    /// entries whose blocker left.
    recheck: BTreeSet<(u64, Dot)>,
    /// Timestamp intervals `(from, to]` some process's prefix climbed across since the
    /// last release: a parked entry inside one may have lost its blocker.
    crossed: Vec<(u64, u64)>,
    /// Waiting entries examined so far (cost accounting).
    visits: u64,
}

impl KeyStability {
    /// Creates the detector for the given shard members.
    pub fn new(shard_processes: &[ProcessId], stability_index: usize) -> Self {
        let tracker = PromiseTracker::new(shard_processes, stability_index);
        let majority = tracker.processes().count() - stability_index;
        Self {
            tracker,
            majority,
            known: BTreeMap::new(),
            blockers: BTreeMap::new(),
            waiting: BTreeMap::new(),
            examined_upto: 0,
            parked: BTreeMap::new(),
            recheck: BTreeSet::new(),
            crossed: Vec::new(),
            visits: 0,
        }
    }

    /// The receipt-fed stability watermark (Theorem 1 over the receipt-fed tracker).
    pub fn watermark(&self) -> u64 {
        self.tracker.stable_timestamp()
    }

    /// Committed commands waiting to be released.
    pub fn waiting(&self) -> usize {
        self.waiting.len()
    }

    /// Known-uncommitted commands currently holding a proposal on their keys.
    pub fn blocking(&self) -> usize {
        self.known.len()
    }

    /// How many times a waiting command was examined for release, over the detector's
    /// life.
    pub fn visits(&self) -> u64 {
        self.visits
    }

    /// Adds a promise range issued by `process` (a detached range, a prefix, or the
    /// attached promise of a command that committed here).
    pub fn add(&mut self, process: ProcessId, range: PromiseRange) {
        let before = self.tracker.highest_contiguous_promise(process);
        self.tracker.add(process, range);
        self.note_prefix(process, before);
    }

    /// Records that `process`'s prefix may have climbed from `before`.
    fn note_prefix(&mut self, process: ProcessId, before: u64) {
        let after = self.tracker.highest_contiguous_promise(process);
        if after <= before {
            return;
        }
        // Prefixes climb together, so consecutive intervals mostly touch: keep their
        // union as one, so that the list stays short even while nothing is released.
        match self.crossed.last_mut() {
            Some(last) if before <= last.1 && after >= last.0 => {
                *last = (last.0.min(before), last.1.max(after));
            }
            _ => self.crossed.push((before, after)),
        }
    }

    /// `process` attached the proposal `ts` to the known-but-uncommitted command `dot`
    /// on `keys` (its payload is known here): the promise enters the receipt-fed
    /// tracker, and the proposal may block the command's keys until it commits.
    pub fn propose(&mut self, dot: Dot, keys: &[Key], process: ProcessId, ts: u64) {
        self.add(process, PromiseRange::single(ts));
        let known = self.known.entry(dot).or_insert_with(|| {
            for key in keys {
                self.blockers.entry(*key).or_default().insert((ts, dot));
            }
            Known {
                keys: keys.to_vec(),
                lowest: ts,
                proposals: BTreeMap::new(),
            }
        });
        let proposal = known.proposals.entry(process).or_insert(ts);
        *proposal = (*proposal).min(ts);
        if ts < known.lowest {
            for key in &known.keys {
                let set = self.blockers.get_mut(key).expect("known keys block");
                set.remove(&(known.lowest, dot));
                set.insert((ts, dot));
            }
            known.lowest = ts;
        }
    }

    /// `dot` committed locally with final timestamp `ts`: it stops blocking its keys and
    /// waits to be released.
    pub fn commit(&mut self, dot: Dot, keys: Vec<Key>, ts: u64) {
        self.forget(dot);
        self.waiting.insert((ts, dot), keys);
        if ts <= self.examined_upto {
            self.recheck.insert((ts, dot));
        }
    }

    /// `dot` leaves without being released here (skipped behind an executed prefix,
    /// covered by a state transfer, or garbage-collected): it stops blocking its keys.
    pub fn forget(&mut self, dot: Dot) {
        if let Some(known) = self.known.remove(&dot) {
            for key in known.keys {
                if let Some(set) = self.blockers.get_mut(&key) {
                    set.remove(&(known.lowest, dot));
                    if set.is_empty() {
                        self.blockers.remove(&key);
                    }
                }
            }
        }
        if let Some(parked) = self.parked.remove(&dot) {
            self.recheck.extend(parked);
        }
    }

    /// Drops a waiting entry that left the executor without executing here (covered by
    /// a state transfer).
    pub fn unwait(&mut self, ts: u64, dot: Dot) {
        self.waiting.remove(&(ts, dot));
    }

    /// Whether the known-uncommitted command `blocker` could still commit at or below
    /// `t`: the processes with a known proposal `≤ t` for it, plus those whose
    /// receipt-fed prefix is below `t`, form a majority (module docs).
    fn could_precede(&self, blocker: &Known, t: u64) -> bool {
        let possible = self
            .tracker
            .processes()
            .filter(|p| {
                self.tracker.highest_contiguous_promise(*p) < t
                    || blocker.proposals.get(p).is_some_and(|ts| *ts <= t)
            })
            .count();
        possible >= self.majority
    }

    /// The first known-uncommitted command that could still precede the waiting entry
    /// `⟨ts, _⟩` on one of `keys`.
    fn blocker_of(&self, ts: u64, keys: &[Key]) -> Option<Dot> {
        keys.iter().find_map(|key| {
            self.blockers
                .get(key)?
                .iter()
                .take_while(|(lowest, _)| *lowest <= ts)
                .find(|(_, blocker)| self.could_precede(&self.known[blocker], ts))
                .map(|(_, blocker)| *blocker)
        })
    }

    /// Releases, in `⟨ts, id⟩` order, every waiting command that is now stable on its
    /// keys. Blocked entries are parked on their blocker (see the type docs).
    pub fn release(&mut self) -> Vec<Dot> {
        let mut candidates = std::mem::take(&mut self.recheck);
        let upto = self.watermark();
        let lowest = Dot::new(0, 0);
        let highest = Dot::new(u64::MAX, u64::MAX);
        if upto > self.examined_upto {
            let newly = (self.examined_upto + 1, lowest)..=(upto, highest);
            candidates.extend(self.waiting.range(newly).map(|(entry, _)| *entry));
        }
        let examined_upto = self.examined_upto;
        for (from, to) in std::mem::take(&mut self.crossed) {
            let to = to.min(examined_upto);
            if from < to {
                let crossed = (from + 1, lowest)..=(to, highest);
                candidates.extend(self.waiting.range(crossed).map(|(entry, _)| *entry));
            }
        }
        self.examined_upto = self.examined_upto.max(upto);
        let mut released = Vec::new();
        for entry in candidates {
            let Some(keys) = self.waiting.get(&entry) else {
                continue;
            };
            self.visits += 1;
            match self.blocker_of(entry.0, keys) {
                Some(blocker) => {
                    self.parked.entry(blocker).or_default().insert(entry);
                }
                None => {
                    self.waiting.remove(&entry);
                    released.push(entry.1);
                }
            }
        }
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_kernel::rand::Rng;

    fn dot(seq: u64) -> Dot {
        Dot::new(1, seq)
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
    fn waits_for_the_watermark() {
        let mut ks = KeyStability::new(&[0, 1, 2], 1);
        ks.commit(dot(1), vec![7], 5);
        ks.add(0, PromiseRange::new(1, 4));
        ks.add(1, PromiseRange::new(1, 4));
        assert!(ks.release().is_empty());
        ks.add(1, PromiseRange::single(5));
        ks.add(2, PromiseRange::new(1, 5));
        assert_eq!(ks.watermark(), 5);
        assert_eq!(ks.release(), vec![dot(1)]);
        assert_eq!(ks.waiting(), 0);
    }

    #[test]
    fn an_uncommitted_command_on_another_key_does_not_block() {
        let mut ks = detector(10);
        ks.propose(dot(1), &[1], 0, 2);
        ks.propose(dot(1), &[1], 1, 2);
        ks.commit(dot(2), vec![2], 5);
        assert_eq!(ks.release(), vec![dot(2)]);
        assert_eq!(ks.blocking(), 1);
    }

    #[test]
    fn a_same_key_proposal_blocks_while_a_majority_could_still_order_it_first() {
        let mut ks = KeyStability::new(&[0, 1, 2], 1);
        ks.add(0, PromiseRange::new(1, 10));
        ks.add(1, PromiseRange::new(1, 10));
        // Process 0 attached 3 to dot(1); process 2's prefix lags below 5, so 0 and 2
        // could still form a majority giving dot(1) a timestamp below 5.
        ks.propose(dot(1), &[1], 0, 3);
        ks.commit(dot(2), vec![1], 5);
        assert!(ks.release().is_empty());
        // Once process 2's prefix passes 5 without a proposal for dot(1) at or below
        // it, only process 0 is left: dot(1) must end above 5.
        ks.add(2, PromiseRange::new(1, 10));
        assert_eq!(ks.release(), vec![dot(2)]);
        // A second low proposal makes a majority again: a later command blocks.
        ks.propose(dot(1), &[1], 1, 6);
        ks.commit(dot(3), vec![1], 8);
        assert!(ks.release().is_empty(), "proposals 3 and 6 <= 8 block");
        ks.commit(dot(1), vec![1], 9);
        assert_eq!(ks.release(), vec![dot(3), dot(1)]);
        assert_eq!(ks.blocking(), 0);
    }

    #[test]
    fn a_stuck_key_costs_nothing_per_unrelated_event() {
        // dot(0) holds key 1 with proposals from a majority, as a command waiting for a
        // recovery would: every later command on key 1 is parked on it. Events that
        // cannot unblock those commands must not examine them again.
        let mut ks = detector(200);
        ks.propose(dot(0), &[1], 0, 1);
        ks.propose(dot(0), &[1], 1, 1);
        let parked = 100;
        for seq in 1..=parked {
            ks.commit(dot(seq), vec![1], 1 + seq);
        }
        assert!(ks.release().is_empty());
        assert_eq!(ks.visits(), parked);
        let events = 1_000;
        for i in 0..events {
            let seq = 1_000 + i;
            // Churn on key 1 itself: another command proposes and commits above the
            // parked ones, and every process's prefix climbs past it.
            ks.propose(Dot::new(2, seq), &[1], 2, 300 + i);
            ks.commit(Dot::new(2, seq), vec![1], 300 + i);
            for p in 0..3 {
                ks.add(p, PromiseRange::new(201 + i, 300 + i));
            }
            // A command on key 2 commits under the watermark and is released at once.
            ks.commit(dot(seq), vec![2], 150);
            assert_eq!(ks.release(), vec![dot(seq)]);
        }
        // Each key-2 command was examined once; the key-1 commits above the parked ones
        // once each, when the watermark reached them (they are parked too).
        assert_eq!(ks.visits(), parked + 2 * events);
        assert_eq!(ks.waiting() as u64, parked + events);
        // dot(0) commits last: everything on key 1 is released in timestamp order, each
        // examined exactly once more.
        ks.commit(dot(0), vec![1], 2_000);
        for p in 0..3 {
            ks.add(p, PromiseRange::new(1_200, 2_000));
        }
        let released = ks.release();
        assert_eq!(released.len() as u64, parked + events + 1);
        assert_eq!(released[..2], [dot(1), dot(2)]);
        assert_eq!(*released.last().unwrap(), dot(0));
        assert_eq!(ks.visits(), 2 * parked + 3 * events + 1);
    }

    #[test]
    fn a_prefix_crossing_reexamines_only_the_entries_it_passes() {
        let mut ks = KeyStability::new(&[0, 1, 2], 1);
        ks.add(0, PromiseRange::new(1, 10));
        ks.add(1, PromiseRange::new(1, 10));
        // Process 0 attached 1 to dot(0) on key 1; process 2 lags at 3, so 0 and 2 could
        // still order dot(0) before any command above 3.
        ks.propose(dot(0), &[1], 0, 1);
        ks.add(2, PromiseRange::new(1, 3));
        for seq in 1..=5 {
            ks.commit(dot(seq), vec![1], 4 + seq);
        }
        assert!(ks.release().is_empty());
        assert_eq!(ks.visits(), 5);
        // Process 2's prefix reaches 6: the entries at 5 and 6 lose their blocker,
        // the ones at 7..=9 are not looked at.
        ks.add(2, PromiseRange::new(4, 6));
        assert_eq!(ks.release(), vec![dot(1), dot(2)]);
        assert_eq!(ks.visits(), 7);
    }

    /// Every waiting command that is stable on its keys right now, by a full scan of the
    /// waiting set: the release rule without the bookkeeping of what to examine.
    fn releasable(ks: &KeyStability) -> Vec<Dot> {
        ks.waiting
            .iter()
            .filter(|((ts, _), keys)| *ts <= ks.watermark() && ks.blocker_of(*ts, keys).is_none())
            .map(|((_, dot), _)| *dot)
            .collect()
    }

    #[test]
    fn incremental_release_matches_a_full_scan() {
        for seed in 0..20 {
            let mut rng = Rng::new(seed);
            let mut ks = KeyStability::new(&[0, 1, 2], 1);
            let mut uncommitted: Vec<(Dot, Vec<Key>)> = Vec::new();
            let mut next = 0;
            for _ in 0..2_000 {
                let process = rng.gen_range(3);
                let prefix = ks.tracker.highest_contiguous_promise(process);
                match rng.gen_range(5) {
                    0 | 1 => {
                        // A new or known uncommitted command gets a proposal.
                        if uncommitted.is_empty() || rng.gen_bool(0.3) {
                            next += 1;
                            let keys = if rng.gen_bool(0.8) {
                                vec![rng.gen_range(3)]
                            } else {
                                vec![0, 1 + rng.gen_range(2)]
                            };
                            uncommitted.push((Dot::new(1, next), keys));
                        }
                        let (dot, keys) =
                            uncommitted[rng.gen_range(uncommitted.len() as u64) as usize].clone();
                        ks.propose(dot, &keys, process, prefix + 1 + rng.gen_range(4));
                    }
                    2 if !uncommitted.is_empty() => {
                        // An uncommitted command commits (or, rarely, is forgotten).
                        let i = rng.gen_range(uncommitted.len() as u64) as usize;
                        let (dot, keys) = uncommitted.swap_remove(i);
                        if rng.gen_bool(0.9) {
                            ks.commit(dot, keys, prefix + rng.gen_range(8));
                        } else {
                            ks.forget(dot);
                        }
                    }
                    3 => {
                        // The process's prefix climbs.
                        let to = prefix + 1 + rng.gen_range(3);
                        ks.add(process, PromiseRange::new(prefix + 1, to));
                    }
                    _ => {
                        // A command nobody saw proposals for commits.
                        next += 1;
                        let ts = prefix + rng.gen_range(6);
                        ks.commit(Dot::new(2, next), vec![rng.gen_range(3)], ts);
                    }
                }
                let expected = releasable(&ks);
                assert_eq!(ks.release(), expected, "seed {seed}");
            }
            assert!(ks.visits() > 0);
        }
    }

    #[test]
    fn forget_unblocks() {
        let mut ks = detector(5);
        ks.propose(dot(1), &[1, 2], 0, 1);
        ks.propose(dot(1), &[1, 2], 1, 1);
        ks.commit(dot(2), vec![2], 5);
        assert!(ks.release().is_empty());
        ks.forget(dot(1));
        assert_eq!(ks.release(), vec![dot(2)]);
    }
}
