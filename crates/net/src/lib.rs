//! `tempo-net` — the wire codec and pluggable transports of the cluster runtime.
//!
//! The simulator (`tempo-sim`) delivers messages as in-memory values over a modelled
//! network; this crate is what turns the same protocol state machines into an actual
//! message-passing system: Rust values become length+CRC byte frames, frames travel
//! over per-peer ordered byte channels, and the fault plane of `tempo-fault` is
//! re-injected *under real thread interleaving* instead of simulated time. Three
//! layers, each usable on its own:
//!
//! * [`wire`] — the [`Wire`] codec trait plus the framing shared with
//!   `tempo-store::wal` (`[len: u32 LE][crc32: u32 LE][payload]`, fixed-width
//!   little-endian integers inside). Implemented here for commands and the client
//!   request/reply envelope; `tempo-core` implements it for Tempo's full message set.
//!   Decoding never panics and never trusts a length prefix further than the buffer
//!   it came from — the corrupt-frame battery under `tests/` truncates and bit-flips
//!   every frame at every byte offset.
//! * [`transport`] — the [`Transport`] trait: per-peer *ordered* byte channels with
//!   batched sends (frames queue locally until [`Transport::flush`], so one driver
//!   step costs one write per peer, not one per message), flush coalescing in the
//!   writer threads, and bounded writer queues for backpressure. [`tcp`] implements
//!   it over std loopback TCP sockets: one listener per endpoint, per-peer writer
//!   threads, reader threads feeding a single inbox, and lazy reconnection through a
//!   shared address book so a restarted process (fresh listener, fresh port) is
//!   reachable again without any coordination.
//! * [`chaos`] — [`ChaosTransport`], the emulated network over a TCP endpoint. The
//!   shared [`ChaosNet`] holds an optional `tempo-planet` geography (Table 2's
//!   one-way region latencies, charged to replicas and client endpoints alike; see
//!   DESIGN.md §7) and an optional `tempo-fault::Nemesis` running the *same*
//!   schedules as the simulator. Every arriving frame waits in one delay heap for
//!   its region latency plus any spike, slow-node or reorder hold; partitions and
//!   lossy links gate it at delivery; and the [`ChaosNet`] clock tells the
//!   embedding runtime when to kill and restart whole replica threads. What the sim
//!   injects at simulated instants, this injects at wall-clock instants — same
//!   geography and schedules, real concurrency.
//!
//! What dies with what (the crash model): a process crash drops its endpoint, which
//! closes every socket — unread peer data, queued writer blobs and inbox backlog are
//! all lost, like TCP connections dying with their process. Peers reconnect lazily via
//! the address book once (if ever) the process returns. DESIGN.md §7 documents the
//! full networking model, including where it is *weaker* than the sim's incarnation
//! tagging and why that is safe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use chaos::{ChaosNet, ChaosTransport};
pub use tcp::{TcpMesh, TcpTransport};
pub use transport::{RecvError, Transport, TransportStats, CLIENT_ID_BASE, CONTROL_ID};
pub use wire::{ClientReply, ClientRequest, Wire, MAX_FRAME_LEN};
