//! The [`Wire`] codec trait and the frame discipline it shares with the WAL.
//!
//! # Frame format
//!
//! Every unit that crosses a socket is one frame — exactly the shape of a WAL record
//! frame (`tempo-store::wal`):
//!
//! ```text
//! [ payload length : u32 LE ][ CRC-32 of payload : u32 LE ][ payload ]
//! ```
//!
//! The payload is the [`Wire`] encoding of the value: fixed-width little-endian
//! integers, `u32` length prefixes for sequences, one leading tag byte for enums.
//! Sharing the WAL's `Writer`/`Reader`/CRC means a value that round-trips to disk and
//! one that round-trips a socket exercise the same primitives, and the golden fixtures
//! pin both.
//!
//! # Robustness contract
//!
//! [`Wire::decode`] (and every helper here) must return a clean [`DecodeError`] on any
//! input — truncated, bit-flipped, or adversarial — and never panic or allocate
//! proportionally to an unvalidated length prefix. The CRC check happens *before*
//! payload decoding ([`read_frame`]), so a flipped payload byte is normally caught
//! there; the decoders still validate independently because the codec is also used on
//! unframed buffers.

use std::collections::BTreeMap;
use tempo_kernel::command::{Command, CommandResult, Key};
use tempo_kernel::id::{ProcessId, Rifl, ShardId};
use tempo_store::wal::{frame, get_command, get_dot, put_command, put_dot, read_frame};
pub use tempo_store::wal::{DecodeError, Reader, Writer};

/// Upper bound on a frame payload read from a socket (64 MiB). A corrupt length
/// prefix larger than this closes the connection instead of attempting the
/// allocation; real frames (largest: an `MState` image) stay far below it. A sender
/// drops a larger frame instead of writing it.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// A value that can be encoded to / decoded from the wire.
///
/// Implementations append to a [`Writer`] and consume from a [`Reader`] so that values
/// nest without intermediate allocations; [`Wire::encode`]/[`Wire::decode`] are the
/// whole-buffer entry points and [`Wire::encode_frame`] adds the length+CRC frame.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `w`.
    fn encode_into(&self, w: &mut Writer);

    /// Decodes one value from `r`, consuming exactly the bytes [`Wire::encode_into`]
    /// produced. Must never panic on malformed input.
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Encodes `self` as a standalone byte buffer.
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Decodes a buffer produced by [`Wire::encode`], rejecting trailing bytes.
    fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let value = Self::decode_from(&mut r)?;
        if r.remaining() != 0 {
            return Err(DecodeError::Invalid("trailing bytes"));
        }
        Ok(value)
    }

    /// Encodes `self` as a complete `[len][crc][payload]` frame.
    fn encode_frame(&self) -> Vec<u8> {
        frame(&self.encode())
    }

    /// Decodes a complete frame produced by [`Wire::encode_frame`] (CRC verified
    /// before the payload is decoded).
    fn decode_frame(bytes: &[u8]) -> Result<Self, DecodeError> {
        let (payload, end) = read_frame(bytes, 0)?;
        if end != bytes.len() {
            return Err(DecodeError::Invalid("trailing bytes"));
        }
        Self::decode(payload)
    }
}

// ------------------------------------------------------------- shared helpers

/// Encodes an `Option<u64>` as a presence byte plus the value.
pub fn put_opt_u64(w: &mut Writer, v: Option<u64>) {
    match v {
        Some(v) => {
            w.put_u8(1);
            w.put_u64(v);
        }
        None => w.put_u8(0),
    }
}

/// Decodes an `Option<u64>` written by [`put_opt_u64`].
pub fn get_opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, DecodeError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        t => Err(DecodeError::BadTag(t)),
    }
}

/// Encodes a length-prefixed list of `u64`s.
pub fn put_u64s(w: &mut Writer, vs: &[u64]) {
    w.put_u32(vs.len() as u32);
    for v in vs {
        w.put_u64(*v);
    }
}

/// Decodes a list written by [`put_u64s`].
pub fn get_u64s(r: &mut Reader<'_>) -> Result<Vec<u64>, DecodeError> {
    let n = r.u32()?;
    let n = r.checked_len(n, 8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u64()?);
    }
    Ok(out)
}

impl Wire for Rifl {
    fn encode_into(&self, w: &mut Writer) {
        w.put_u64(self.client);
        w.put_u64(self.seq);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Rifl::new(r.u64()?, r.u64()?))
    }
}

impl Wire for tempo_kernel::id::Dot {
    fn encode_into(&self, w: &mut Writer) {
        put_dot(w, *self);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        get_dot(r)
    }
}

impl Wire for Command {
    fn encode_into(&self, w: &mut Writer) {
        put_command(w, self);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        get_command(r)
    }
}

// ----------------------------------------------------------- client envelopes

/// A client submission carried over the transport to a replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientRequest {
    /// The submitted command.
    pub cmd: Command,
}

impl Wire for ClientRequest {
    fn encode_into(&self, w: &mut Writer) {
        self.cmd.encode_into(w);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            cmd: Command::decode_from(r)?,
        })
    }
}

/// A replica's execution notice for one command at one shard, sent back to the
/// submitting client's endpoint (every replica of the shard reports; the client
/// counts the replica it watches).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientReply {
    /// The executed command.
    pub rifl: Rifl,
    /// The shard whose part of the command executed.
    pub shard: ShardId,
    /// Per-key outputs observed at the executing replica.
    pub outputs: Vec<(Key, Option<u64>)>,
}

impl ClientReply {
    /// Builds the reply for one executed command at `shard`.
    pub fn from_result(shard: ShardId, result: &CommandResult) -> Self {
        Self {
            rifl: result.rifl,
            shard,
            outputs: result.outputs.clone(),
        }
    }
}

impl Wire for ClientReply {
    fn encode_into(&self, w: &mut Writer) {
        self.rifl.encode_into(w);
        w.put_u64(self.shard);
        w.put_u32(self.outputs.len() as u32);
        for (key, out) in &self.outputs {
            w.put_u64(*key);
            put_opt_u64(w, *out);
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let rifl = Rifl::decode_from(r)?;
        let shard = r.u64()?;
        let n = r.u32()?;
        let n = r.checked_len(n, 9)?;
        let mut outputs = Vec::with_capacity(n);
        for _ in 0..n {
            let key = r.u64()?;
            outputs.push((key, get_opt_u64(r)?));
        }
        Ok(Self {
            rifl,
            shard,
            outputs,
        })
    }
}

/// Encodes a map `shard -> processes` (Tempo's per-shard fast quorums have this shape;
/// exported so `tempo-core`'s message codec and any test share one encoding).
pub fn put_process_map(w: &mut Writer, map: &BTreeMap<ShardId, Vec<ProcessId>>) {
    w.put_u32(map.len() as u32);
    for (shard, processes) in map {
        w.put_u64(*shard);
        put_u64s(w, processes);
    }
}

/// Decodes a map written by [`put_process_map`].
pub fn get_process_map(
    r: &mut Reader<'_>,
) -> Result<BTreeMap<ShardId, Vec<ProcessId>>, DecodeError> {
    let n = r.u32()?;
    let n = r.checked_len(n, 12)?;
    let mut map = BTreeMap::new();
    for _ in 0..n {
        let shard = r.u64()?;
        map.insert(shard, get_u64s(r)?);
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_kernel::command::KVOp;
    use tempo_kernel::id::Dot;

    #[test]
    fn primitives_roundtrip() {
        let rifl = Rifl::new(7, 9);
        assert_eq!(Rifl::decode(&rifl.encode()).unwrap(), rifl);
        let dot = Dot::new(3, 1 << 48);
        assert_eq!(Dot::decode(&dot.encode()).unwrap(), dot);
        let cmd = Command::new(
            Rifl::new(1, 2),
            vec![
                (0, 5, KVOp::Put(9)),
                (1, 6, KVOp::Add(2)),
                (1, 7, KVOp::Get),
            ],
            128,
        );
        assert_eq!(Command::decode(&cmd.encode()).unwrap(), cmd);
    }

    #[test]
    fn client_envelopes_roundtrip_framed() {
        let req = ClientRequest {
            cmd: Command::single(Rifl::new(1, 1), 0, 42, KVOp::Put(7), 64),
        };
        assert_eq!(
            ClientRequest::decode_frame(&req.encode_frame()).unwrap(),
            req
        );
        let reply = ClientReply {
            rifl: Rifl::new(1, 1),
            shard: 0,
            outputs: vec![(42, Some(7)), (43, None)],
        };
        assert_eq!(
            ClientReply::decode_frame(&reply.encode_frame()).unwrap(),
            reply
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Rifl::new(1, 1).encode();
        bytes.push(0);
        assert_eq!(
            Rifl::decode(&bytes),
            Err(DecodeError::Invalid("trailing bytes"))
        );
    }

    #[test]
    fn process_map_roundtrips() {
        let map = BTreeMap::from([(0u64, vec![0u64, 1, 2]), (1, vec![3, 4, 5])]);
        let mut w = Writer::new();
        put_process_map(&mut w, &map);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(get_process_map(&mut r).unwrap(), map);
        assert_eq!(r.remaining(), 0);
    }
}
