//! Executor/clock snapshots: a point-in-time image of everything the WAL would
//! otherwise have to retain forever.
//!
//! Installing a snapshot truncates the WAL, so the snapshot must carry *every* durable
//! fact not re-derivable from the WAL suffix (DESIGN.md §6 gives the cut-point safety
//! argument):
//!
//! * the applied key-value state and the per-key execution floors it corresponds to
//!   (for every key, the `(timestamp, dot)` pair of the last command executed on it —
//!   each key's commands execute in `⟨ts, id⟩` order, so the executed set is exactly
//!   the union of those per-key prefixes),
//! * the committed-but-unexecuted queue, with each entry's remaining sibling-shard
//!   waits and whether it was already released as stable on its keys — their
//!   `Commit` and `KeyStable` WAL records are being truncated,
//! * the consensus state (`ts`/`bal`/`abal`) of still-pending dots — their
//!   `Ballot`/`Accept` records are being truncated,
//! * the timestamping clock floor and the per-origin executed watermarks feeding
//!   committed-command GC.
//!
//! A snapshot is encoded as one checksummed frame behind the magic `b"TSN2"`, written
//! to a temporary file and renamed into place, so a crash mid-install leaves the
//! previous snapshot intact.

use crate::wal::{
    frame, get_command, get_dot, get_pairs, put_command, put_dot, put_pairs, read_frame,
    DecodeError, Reader, Writer,
};
use tempo_kernel::command::{Command, Key};
use tempo_kernel::id::{Dot, ProcessId, ShardId};

/// Magic + version prefix of a snapshot stream (v2: per-key floors replace the single
/// execution boundary, queued entries carry their per-key stability flag, and the
/// logged stability watermark is gone).
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"TSN2";

/// The execution floor of one key: `(key, ts, dot)` of the last command executed on it.
pub type KeyFloor = (Key, u64, Dot);

/// Encodes per-key floors as `[count u32]` then `key, ts, dot` each.
pub fn put_floors(w: &mut Writer, floors: &[KeyFloor]) {
    w.put_u32(floors.len() as u32);
    for (key, ts, dot) in floors {
        w.put_u64(*key);
        w.put_u64(*ts);
        put_dot(w, *dot);
    }
}

/// Decodes per-key floors written by [`put_floors`].
pub fn get_floors(r: &mut Reader<'_>) -> Result<Vec<KeyFloor>, DecodeError> {
    let n = r.u32()?;
    let mut out = Vec::new();
    for _ in 0..n {
        out.push((r.u64()?, r.u64()?, get_dot(r)?));
    }
    Ok(out)
}

/// A committed command still queued for execution at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuedCommit {
    /// Command identifier.
    pub dot: Dot,
    /// The final (across-shards) timestamp.
    pub ts: u64,
    /// The command payload.
    pub cmd: Command,
    /// Sibling shards whose stability attestation is still missing.
    pub waits: Vec<ShardId>,
    /// Whether the command was already released as stable on its keys (its
    /// `KeyStable` record is among those the snapshot truncates).
    pub stable: bool,
}

/// The consensus state of a dot still pending at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcceptState {
    /// Command identifier.
    pub dot: Dot,
    /// This shard's timestamp for the command (proposal or accepted value).
    pub ts: u64,
    /// Highest ballot joined.
    pub bal: u64,
    /// Highest ballot at which a value was accepted (0 = none).
    pub abal: u64,
}

/// A point-in-time image of one replica's durable state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// The timestamping clock floor: recovery must never propose at or below it.
    pub clock: u64,
    /// The per-key execution floors, in key order (keys nothing executed on are absent).
    pub floors: Vec<KeyFloor>,
    /// The dot-generator position (best effort; incarnation bands are the primary
    /// defence against dot reuse, see DESIGN.md §6).
    pub next_dot_seq: u64,
    /// Commands executed by the snapshotted executor.
    pub executed_count: u64,
    /// The applied key-value state, as `(key, value)` pairs.
    pub kv: Vec<(u64, u64)>,
    /// Committed-but-unexecuted commands, with their remaining waits.
    pub queued: Vec<QueuedCommit>,
    /// Consensus state of still-pending dots.
    pub accepts: Vec<AcceptState>,
    /// Per-origin executed watermarks (committed-command GC seed).
    pub watermarks: Vec<(ProcessId, u64)>,
}

impl Snapshot {
    /// Encodes the snapshot as `magic + [len][crc][payload]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.clock);
        put_floors(&mut w, &self.floors);
        w.put_u64(self.next_dot_seq);
        w.put_u64(self.executed_count);
        put_pairs(&mut w, &self.kv);
        w.put_u32(self.queued.len() as u32);
        for q in &self.queued {
            put_dot(&mut w, q.dot);
            w.put_u64(q.ts);
            w.put_u8(u8::from(q.stable));
            w.put_u32(q.waits.len() as u32);
            for shard in &q.waits {
                w.put_u64(*shard);
            }
            put_command(&mut w, &q.cmd);
        }
        w.put_u32(self.accepts.len() as u32);
        for a in &self.accepts {
            put_dot(&mut w, a.dot);
            w.put_u64(a.ts);
            w.put_u64(a.bal);
            w.put_u64(a.abal);
        }
        put_pairs(&mut w, &self.watermarks);
        let payload = w.into_bytes();
        let mut out = SNAPSHOT_MAGIC.to_vec();
        out.extend_from_slice(&frame(&payload));
        out
    }

    /// Decodes a snapshot stream produced by [`Snapshot::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        if bytes.len() < SNAPSHOT_MAGIC.len() || &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let (payload, _end) = read_frame(bytes, SNAPSHOT_MAGIC.len())?;
        let mut r = Reader::new(payload);
        let clock = r.u64()?;
        let floors = get_floors(&mut r)?;
        let next_dot_seq = r.u64()?;
        let executed_count = r.u64()?;
        let kv = get_pairs(&mut r)?;
        let n = r.u32()?;
        let mut queued = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let dot = get_dot(&mut r)?;
            let ts = r.u64()?;
            let stable = match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(DecodeError::Invalid("queued stable flag")),
            };
            let w = r.u32()?;
            let mut waits = Vec::with_capacity(w as usize);
            for _ in 0..w {
                waits.push(r.u64()?);
            }
            let cmd = get_command(&mut r)?;
            queued.push(QueuedCommit {
                dot,
                ts,
                cmd,
                waits,
                stable,
            });
        }
        let n = r.u32()?;
        let mut accepts = Vec::with_capacity(n as usize);
        for _ in 0..n {
            accepts.push(AcceptState {
                dot: get_dot(&mut r)?,
                ts: r.u64()?,
                bal: r.u64()?,
                abal: r.u64()?,
            });
        }
        let watermarks = get_pairs(&mut r)?;
        Ok(Self {
            clock,
            floors,
            next_dot_seq,
            executed_count,
            kv,
            queued,
            accepts,
            watermarks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_kernel::command::KVOp;
    use tempo_kernel::id::Rifl;

    fn sample() -> Snapshot {
        Snapshot {
            clock: 200,
            floors: vec![(0, 149, Dot::new(2, 31)), (42, 120, Dot::new(1, 7))],
            next_dot_seq: 40,
            executed_count: 120,
            kv: vec![(0, 55), (42, 7)],
            queued: vec![QueuedCommit {
                dot: Dot::new(1, 9),
                ts: 160,
                cmd: Command::new(
                    Rifl::new(5, 6),
                    vec![(0, 1, KVOp::Add(1)), (1, 2, KVOp::Get)],
                    8,
                ),
                waits: vec![1],
                stable: true,
            }],
            accepts: vec![AcceptState {
                dot: Dot::new(3, 2),
                ts: 170,
                bal: 4,
                abal: 4,
            }],
            watermarks: vec![(0, 30), (1, 28)],
        }
    }

    #[test]
    fn snapshot_roundtrips() {
        let snap = sample();
        assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = Snapshot::default();
        assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn torn_snapshot_is_rejected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                Snapshot::decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        assert!(Snapshot::decode(&corrupt).is_err());
    }
}
