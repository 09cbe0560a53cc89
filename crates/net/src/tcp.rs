//! [`TcpTransport`] — the [`Transport`] over std loopback TCP sockets.
//!
//! # Topology
//!
//! A [`TcpMesh`] owns a shared *address book* (`ProcessId -> SocketAddr`). Each
//! endpoint binds its own listener on `127.0.0.1:0`, registers the assigned address,
//! and from then on:
//!
//! * an **accept thread** polls the listener and spawns one **reader thread** per
//!   inbound connection; the reader validates a hello (`b"TNET"` + sender id +
//!   sender incarnation — a connection from an incarnation the book has replaced is
//!   closed before any frame surfaces), then decodes `[len][crc][payload]` frames
//!   and feeds them into the endpoint's single inbox channel — any malformed or
//!   checksum-failing frame closes the connection (it can only mean corruption; the
//!   peer will reconnect);
//! * one **writer thread per peer** is created lazily on first send. It owns the
//!   outbound connection, dials the peer's *current* address from the book when
//!   disconnected (rate-limited), and writes whole batches. The queue between
//!   [`Transport::flush`] and the writer is bounded — a full queue blocks the flusher,
//!   which is the backpressure path.
//!
//! # Batching and flush coalescing
//!
//! [`Transport::send`] appends the frame to a per-peer buffer without any I/O or
//! locking; [`Transport::flush`] moves each buffer to its writer as one blob, and the
//! writer additionally drains everything queued before issuing a single
//! `write_all` — so bursts collapse into few syscalls end to end. Constructing the
//! endpoint with `batch = false` flushes on every send instead (the unbatched
//! baseline of the `runtime_throughput` bench).
//!
//! # Crash/restart behaviour
//!
//! Dropping an endpoint closes its listener and shuts down every accepted socket:
//! peers' readers see EOF, their writers start failing and drop frames — exactly
//! "connections die with their process". A restarted process obtains a *fresh*
//! endpoint (new port, incremented *incarnation*) whose book entry replaces the old
//! one; peers' writers re-dial lazily and traffic resumes. No frame is ever
//! delivered twice, and no frame ever crosses incarnations: outbound blobs are
//! stamped with the destination incarnation they were addressed to and dropped by
//! the writer if the book has moved on ([`TransportStats::frames_dropped_stale`]),
//! while inbound connections carrying a stale *sender* incarnation are refused at
//! the hello — the same hygiene the simulator enforces with its incarnation tags.

use crate::transport::{RecvError, Transport, TransportStats};
use crate::wire::MAX_FRAME_LEN;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tempo_kernel::id::ProcessId;
use tempo_store::wal::crc32;

/// Connection hello: magic + sender id + sender incarnation, written once per
/// outbound connection.
const HELLO_MAGIC: &[u8; 4] = b"TNET";

/// Hello length on the wire: 4-byte magic, 8-byte sender id, 8-byte incarnation.
const HELLO_LEN: usize = 20;

/// Minimum wait between failed dial attempts to one peer (a crashed peer must not
/// turn its writers into hot connect loops).
const DIAL_BACKOFF: Duration = Duration::from_millis(25);

/// Bounded writer queue depth, in flush blobs. A flush against a full queue blocks
/// (backpressure); 256 step-sized blobs of slack absorb bursts without unbounded
/// memory.
const WRITER_QUEUE_BLOBS: usize = 256;

/// Accept-loop poll interval (the listener is non-blocking so shutdown is prompt).
const ACCEPT_POLL: Duration = Duration::from_millis(2);

#[derive(Debug, Default)]
struct AtomicStats {
    frames_sent: AtomicU64,
    bytes_sent: AtomicU64,
    frames_received: AtomicU64,
    bytes_received: AtomicU64,
    frames_dropped: AtomicU64,
    frames_dropped_stale: AtomicU64,
    frames_corrupt: AtomicU64,
    flushes: AtomicU64,
    queue_depth_peak: AtomicU64,
    flush_stalls: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> TransportStats {
        TransportStats {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            frames_dropped: self.frames_dropped.load(Ordering::Relaxed),
            frames_dropped_stale: self.frames_dropped_stale.load(Ordering::Relaxed),
            frames_corrupt: self.frames_corrupt.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            queue_depth_peak: self.queue_depth_peak.load(Ordering::Relaxed),
            flush_stalls: self.flush_stalls.load(Ordering::Relaxed),
        }
    }
}

/// One address-book entry: where a process currently listens, and which incarnation
/// of it that is. The incarnation bumps every time the process re-registers (i.e. on
/// restart), so both ends of a connection can tell live traffic from a ghost of the
/// previous life.
#[derive(Debug, Clone, Copy)]
struct BookEntry {
    addr: SocketAddr,
    incarnation: u64,
}

type Book = Arc<Mutex<BTreeMap<ProcessId, BookEntry>>>;

/// The deployment mesh: the shared address book endpoints register with and dial
/// through. Cloning is cheap (one `Arc`).
#[derive(Debug, Clone, Default)]
pub struct TcpMesh {
    book: Book,
}

impl TcpMesh {
    /// Creates an empty mesh.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds a new endpoint for `id` on a loopback port and registers it in the
    /// address book, replacing any previous registration (that is how a restarted
    /// process becomes reachable again). `batch = false` flushes on every send.
    pub fn endpoint(&self, id: ProcessId, batch: bool) -> std::io::Result<TcpTransport> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let incarnation = {
            let mut book = self.book.lock().expect("address book lock");
            let incarnation = book.get(&id).map_or(1, |e| e.incarnation + 1);
            book.insert(id, BookEntry { addr, incarnation });
            incarnation
        };

        let stats = Arc::new(AtomicStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let accepted: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let (inbox_tx, inbox_rx) = mpsc::channel();

        let accept_handle = {
            let stop = Arc::clone(&stop);
            let accepted = Arc::clone(&accepted);
            let stats = Arc::clone(&stats);
            let inbox_tx = inbox_tx.clone();
            let book = self.book.clone();
            std::thread::Builder::new()
                .name(format!("tnet-accept-{id}"))
                .spawn(move || accept_loop(listener, stop, accepted, inbox_tx, stats, book))
                .expect("spawn accept thread")
        };

        Ok(TcpTransport {
            local: id,
            incarnation,
            book: self.book.clone(),
            inbox: inbox_rx,
            writers: BTreeMap::new(),
            pending: BTreeMap::new(),
            batch,
            stop,
            accepted,
            accept_handle: Some(accept_handle),
            stats,
        })
    }
}

fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    accepted: Arc<Mutex<Vec<TcpStream>>>,
    inbox: Sender<(ProcessId, Vec<u8>)>,
    stats: Arc<AtomicStats>,
    book: Book,
) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_nodelay(true);
                if let Ok(clone) = stream.try_clone() {
                    accepted.lock().expect("accepted lock").push(clone);
                }
                let inbox = inbox.clone();
                let stats = Arc::clone(&stats);
                let book = book.clone();
                let _ = std::thread::Builder::new()
                    .name("tnet-reader".to_string())
                    .spawn(move || reader_loop(stream, inbox, stats, book));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => break,
        }
    }
}

/// Reads frames off one inbound connection until EOF or the first malformed frame
/// (truncated header, oversized length, checksum mismatch) — corruption closes the
/// connection cleanly, it never panics and never reaches the inbox. Every malformed
/// frame is counted in `frames_corrupt` before the connection dies: the reader does
/// not die silently, it leaves a visible mark that feeds detector suspicion (a peer
/// whose traffic keeps corrupting stops proving its liveness).
fn reader_loop(
    mut stream: TcpStream,
    inbox: Sender<(ProcessId, Vec<u8>)>,
    stats: Arc<AtomicStats>,
    book: Book,
) {
    let mut hello = [0u8; HELLO_LEN];
    if stream.read_exact(&mut hello).is_err() || &hello[..4] != HELLO_MAGIC {
        return;
    }
    let from = u64::from_le_bytes(hello[4..12].try_into().expect("sender id"));
    let from_incarnation = u64::from_le_bytes(hello[12..20].try_into().expect("incarnation"));
    // Restart-reconnect hygiene: a connection from an incarnation the book has
    // already replaced is a ghost of the sender's previous life — close it before a
    // single frame crosses over. Incarnation 0 is the wildcard for raw peers that
    // never registered (the book then has no opinion either).
    if from_incarnation != 0 {
        let current = book
            .lock()
            .expect("address book lock")
            .get(&from)
            .map(|e| e.incarnation);
        if let Some(current) = current {
            if from_incarnation < current {
                return;
            }
        }
    }
    loop {
        let mut header = [0u8; 8];
        if stream.read_exact(&mut header).is_err() {
            return; // EOF: the peer closed or crashed.
        }
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if len > MAX_FRAME_LEN {
            // A corrupt length: close rather than allocate it.
            stats.frames_corrupt.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut payload = vec![0u8; len];
        if stream.read_exact(&mut payload).is_err() {
            return;
        }
        if crc32(&payload) != crc {
            // Corrupt frame: the stream can no longer be trusted.
            stats.frames_corrupt.fetch_add(1, Ordering::Relaxed);
            return;
        }
        stats.frames_received.fetch_add(1, Ordering::Relaxed);
        stats
            .bytes_received
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        if inbox.send((from, payload)).is_err() {
            return; // Endpoint gone.
        }
    }
}

/// One blob handed from `flush` to a peer writer: coalesced frame bytes, the frame
/// count (for drop accounting when the peer is unreachable), and the incarnation of
/// the destination these frames were addressed to (0 = unknown peer, deliver to
/// whoever answers).
type Blob = (Vec<u8>, u64, u64);

struct PeerWriter {
    tx: SyncSender<Blob>,
    /// Blobs handed to this writer and not yet taken off the channel (the per-peer
    /// queue-depth gauge feeding [`TransportStats::queue_depth_peak`]).
    depth: Arc<AtomicU64>,
}

fn writer_loop(
    local: ProcessId,
    local_incarnation: u64,
    to: ProcessId,
    book: Book,
    rx: Receiver<Blob>,
    stats: Arc<AtomicStats>,
    depth: Arc<AtomicU64>,
) {
    let mut stream: Option<TcpStream> = None;
    let mut last_fail: Option<Instant> = None;
    while let Ok(first) = rx.recv() {
        // Flush coalescing: everything queued since the last write goes in one syscall.
        let mut blobs = vec![first];
        while let Ok(more) = rx.try_recv() {
            blobs.push(more);
        }
        depth.fetch_sub(blobs.len() as u64, Ordering::Relaxed);
        // Restart-reconnect hygiene: frames queued toward an incarnation the book has
        // since replaced must not deliver to its successor — drop them here, exactly
        // where the sim's nemesis counts crash drops.
        let current = book
            .lock()
            .expect("address book lock")
            .get(&to)
            .map(|e| e.incarnation);
        if let Some(current) = current {
            blobs.retain(|(_, frames, incarnation)| {
                if *incarnation != 0 && *incarnation != current {
                    stats.frames_dropped.fetch_add(*frames, Ordering::Relaxed);
                    stats
                        .frames_dropped_stale
                        .fetch_add(*frames, Ordering::Relaxed);
                    false
                } else {
                    true
                }
            });
            if blobs.is_empty() {
                continue;
            }
        }
        if stream.is_none() && last_fail.is_none_or(|at| at.elapsed() >= DIAL_BACKOFF) {
            let addr = book
                .lock()
                .expect("address book lock")
                .get(&to)
                .map(|e| e.addr);
            stream = addr.and_then(|addr| dial(local, local_incarnation, addr));
            if stream.is_none() {
                last_fail = Some(Instant::now());
            }
        }
        match &mut stream {
            Some(s) => {
                let mut buf = Vec::with_capacity(blobs.iter().map(|(b, _, _)| b.len()).sum());
                for (bytes, _, _) in &blobs {
                    buf.extend_from_slice(bytes);
                }
                if s.write_all(&buf).is_err() {
                    // The connection died with the peer: these frames are lost, the
                    // next batch re-dials (the peer may have restarted elsewhere).
                    stream = None;
                    last_fail = Some(Instant::now());
                    let frames: u64 = blobs.iter().map(|(_, n, _)| *n).sum();
                    stats.frames_dropped.fetch_add(frames, Ordering::Relaxed);
                }
            }
            None => {
                let frames: u64 = blobs.iter().map(|(_, n, _)| *n).sum();
                stats.frames_dropped.fetch_add(frames, Ordering::Relaxed);
            }
        }
    }
}

fn dial(local: ProcessId, local_incarnation: u64, addr: SocketAddr) -> Option<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_millis(250)).ok()?;
    let _ = stream.set_nodelay(true);
    let mut hello = Vec::with_capacity(HELLO_LEN);
    hello.extend_from_slice(HELLO_MAGIC);
    hello.extend_from_slice(&local.to_le_bytes());
    hello.extend_from_slice(&local_incarnation.to_le_bytes());
    let mut stream = stream;
    stream.write_all(&hello).ok()?;
    Some(stream)
}

/// A connected TCP endpoint of the mesh. See the module docs for the thread layout.
pub struct TcpTransport {
    local: ProcessId,
    /// Which life of `local` this endpoint is (1 on first registration, +1 per
    /// restart); carried in the hello of every outbound connection.
    incarnation: u64,
    book: Book,
    inbox: Receiver<(ProcessId, Vec<u8>)>,
    writers: BTreeMap<ProcessId, PeerWriter>,
    /// Per-peer unflushed frame bytes and frame counts.
    pending: BTreeMap<ProcessId, Blob>,
    batch: bool,
    stop: Arc<AtomicBool>,
    accepted: Arc<Mutex<Vec<TcpStream>>>,
    accept_handle: Option<JoinHandle<()>>,
    stats: Arc<AtomicStats>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("local", &self.local)
            .field("batch", &self.batch)
            .finish_non_exhaustive()
    }
}

impl TcpTransport {
    /// This endpoint's incarnation (1-based; bumps on every re-registration of the
    /// same id in the mesh).
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    fn writer(&mut self, to: ProcessId) -> &PeerWriter {
        let local = self.local;
        let local_incarnation = self.incarnation;
        let book = self.book.clone();
        let stats = Arc::clone(&self.stats);
        self.writers.entry(to).or_insert_with(|| {
            let (tx, rx) = sync_channel::<Blob>(WRITER_QUEUE_BLOBS);
            let depth = Arc::new(AtomicU64::new(0));
            let writer_depth = Arc::clone(&depth);
            let _ = std::thread::Builder::new()
                .name(format!("tnet-writer-{local}-{to}"))
                .spawn(move || {
                    writer_loop(local, local_incarnation, to, book, rx, stats, writer_depth)
                });
            PeerWriter { tx, depth }
        })
    }
}

impl Transport for TcpTransport {
    fn local_id(&self) -> ProcessId {
        self.local
    }

    fn send(&mut self, to: ProcessId, payload: &[u8]) {
        if payload.len() > MAX_FRAME_LEN {
            // The receiver would count it corrupt and close the connection, losing
            // every frame coalesced with it: drop the one frame here instead.
            self.stats.frames_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let (buf, count, incarnation) = self.pending.entry(to).or_default();
        if buf.is_empty() {
            // Stamp the blob with the destination's incarnation *now*: if the peer
            // restarts between this send and the writer's dial, the frames belong to
            // the dead incarnation and must be dropped, not delivered to its heir.
            *incarnation = self
                .book
                .lock()
                .expect("address book lock")
                .get(&to)
                .map_or(0, |e| e.incarnation);
        }
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(payload).to_le_bytes());
        buf.extend_from_slice(payload);
        *count += 1;
        self.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_sent
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        if !self.batch {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        for (to, blob) in pending {
            let frames = blob.1;
            // Pre-account the blob in the depth gauge *before* it can reach the
            // channel, so the writer's decrement never observes an unaccounted blob
            // (the gauge would underflow). Undone below if the blob never queues.
            let depth = {
                let writer = self.writer(to);
                writer.depth.fetch_add(1, Ordering::Relaxed) + 1
            };
            self.stats
                .queue_depth_peak
                .fetch_max(depth, Ordering::Relaxed);
            match self.writers[&to].tx.try_send(blob) {
                Ok(()) => {}
                Err(TrySendError::Full(blob)) => {
                    // Backpressure: wait for the writer to drain.
                    self.stats.flush_stalls.fetch_add(1, Ordering::Relaxed);
                    if self.writers[&to].tx.send(blob).is_err() {
                        self.stats
                            .frames_dropped
                            .fetch_add(frames, Ordering::Relaxed);
                        self.writers[&to].depth.fetch_sub(1, Ordering::Relaxed);
                    }
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.stats
                        .frames_dropped
                        .fetch_add(frames, Ordering::Relaxed);
                    self.writers[&to].depth.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<(ProcessId, Vec<u8>), RecvError> {
        match self.inbox.recv_timeout(timeout) {
            Ok(frame) => Ok(frame),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(RecvError::Closed),
        }
    }

    fn stats(&self) -> TransportStats {
        self.stats.snapshot()
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Shut down inbound sockets so reader threads unblock and exit; writer
        // threads exit once their senders drop with `self.writers`.
        for stream in self.accepted.lock().expect("accepted lock").drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.writers.clear();
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_endpoints_exchange_frames_in_order() {
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(0, true).unwrap();
        let mut b = mesh.endpoint(1, true).unwrap();
        for i in 0u64..100 {
            a.send(1, &i.to_le_bytes());
        }
        a.flush();
        for i in 0u64..100 {
            let (from, payload) = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(from, 0);
            assert_eq!(payload, i.to_le_bytes());
        }
        // And the other direction over a separate connection.
        b.send(0, b"pong");
        b.flush();
        let (from, payload) = a.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((from, payload.as_slice()), (1, b"pong".as_slice()));
    }

    #[test]
    fn batching_coalesces_sends_until_flush() {
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(10, true).unwrap();
        let mut b = mesh.endpoint(11, true).unwrap();
        a.send(11, b"one");
        a.send(11, b"two");
        // Nothing flushed yet: the frames sit in the local buffer.
        assert_eq!(
            b.recv_timeout(Duration::from_millis(50)),
            Err(RecvError::Timeout)
        );
        a.flush();
        assert_eq!(a.stats().flushes, 1);
        let (_, one) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        let (_, two) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            (one.as_slice(), two.as_slice()),
            (b"one".as_slice(), b"two".as_slice())
        );
    }

    #[test]
    fn frames_to_a_dead_peer_are_dropped_and_resume_after_restart() {
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(20, true).unwrap();
        let b = mesh.endpoint(21, true).unwrap();
        drop(b); // Peer crashes: connections die with it.
        a.send(21, b"lost");
        a.flush();
        // Give the writer a moment to fail the dial.
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            a.stats().frames_dropped >= 1,
            "frame to dead peer must drop"
        );
        // The peer restarts on a fresh port; the book is updated and traffic resumes.
        std::thread::sleep(DIAL_BACKOFF);
        let mut b2 = mesh.endpoint(21, true).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            a.send(21, b"hello-again");
            a.flush();
            match b2.recv_timeout(Duration::from_millis(100)) {
                Ok((from, payload)) => {
                    assert_eq!((from, payload.as_slice()), (20, b"hello-again".as_slice()));
                    break;
                }
                Err(RecvError::Timeout) if Instant::now() < deadline => continue,
                Err(e) => panic!("restarted peer never reachable: {e:?}"),
            }
        }
    }

    #[test]
    fn corrupt_frames_close_the_connection_without_reaching_the_inbox() {
        let mesh = TcpMesh::new();
        let mut b = mesh.endpoint(31, true).unwrap();
        let addr = mesh.book.lock().unwrap().get(&31).unwrap().addr;
        // A raw connection speaking the hello, then a frame whose CRC is wrong.
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut hello = Vec::new();
        hello.extend_from_slice(HELLO_MAGIC);
        hello.extend_from_slice(&30u64.to_le_bytes());
        hello.extend_from_slice(&0u64.to_le_bytes()); // wildcard incarnation
        raw.write_all(&hello).unwrap();
        let payload = b"corrupt";
        raw.write_all(&(payload.len() as u32).to_le_bytes())
            .unwrap();
        raw.write_all(&(crc32(payload) ^ 0xFFFF).to_le_bytes())
            .unwrap();
        raw.write_all(payload).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(200)),
            Err(RecvError::Timeout),
            "a corrupt frame must never surface"
        );
        // The reader closed the connection: our next read sees EOF.
        let mut buf = [0u8; 1];
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(
            raw.read(&mut buf).unwrap_or(0),
            0,
            "connection must be closed"
        );
        assert_eq!(
            b.stats().frames_corrupt,
            1,
            "the corrupt frame must be counted, not swallowed silently"
        );
        // A fresh, well-formed connection still works.
        let mut ok = TcpStream::connect(addr).unwrap();
        ok.write_all(&hello).unwrap();
        ok.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
        ok.write_all(&crc32(payload).to_le_bytes()).unwrap();
        ok.write_all(payload).unwrap();
        let (from, got) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((from, got.as_slice()), (30, payload.as_slice()));
    }

    #[test]
    fn frames_queued_toward_a_dead_incarnation_never_reach_its_heir() {
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(50, true).unwrap();
        let b = mesh.endpoint(51, true).unwrap();
        assert_eq!(b.incarnation(), 1);
        // Queue a frame addressed to incarnation 1 — but do not flush yet, so the
        // blob sits in `pending` with its incarnation stamp while the peer dies and
        // is reborn.
        a.send(51, b"for-the-dead");
        drop(b);
        let mut b2 = mesh.endpoint(51, true).unwrap();
        assert_eq!(b2.incarnation(), 2);
        a.flush();
        // The stale blob must be dropped by the writer, not delivered to b2.
        assert_eq!(
            b2.recv_timeout(Duration::from_millis(300)),
            Err(RecvError::Timeout),
            "a frame addressed to incarnation 1 must not reach incarnation 2"
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while a.stats().frames_dropped_stale < 1 {
            assert!(Instant::now() < deadline, "stale drop never counted");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(a.stats().frames_dropped >= a.stats().frames_dropped_stale);
        // Fresh sends are stamped with incarnation 2 and flow normally.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            a.send(51, b"for-the-living");
            a.flush();
            match b2.recv_timeout(Duration::from_millis(100)) {
                Ok((from, payload)) => {
                    assert_eq!(
                        (from, payload.as_slice()),
                        (50, b"for-the-living".as_slice())
                    );
                    break;
                }
                Err(RecvError::Timeout) if Instant::now() < deadline => continue,
                Err(e) => panic!("reborn peer never reachable: {e:?}"),
            }
        }
    }

    #[test]
    fn connections_from_a_stale_sender_incarnation_are_refused() {
        let mesh = TcpMesh::new();
        let mut b = mesh.endpoint(61, true).unwrap();
        // Register sender 60 twice: the book now says incarnation 2.
        let first = mesh.endpoint(60, true).unwrap();
        assert_eq!(first.incarnation(), 1);
        drop(first);
        let second = mesh.endpoint(60, true).unwrap();
        assert_eq!(second.incarnation(), 2);
        // A raw connection claiming to be incarnation 1 of sender 60: the reader
        // must close it at the hello, frames and all.
        let addr = mesh.book.lock().unwrap().get(&61).unwrap().addr;
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut hello = Vec::new();
        hello.extend_from_slice(HELLO_MAGIC);
        hello.extend_from_slice(&60u64.to_le_bytes());
        hello.extend_from_slice(&1u64.to_le_bytes()); // stale incarnation
        raw.write_all(&hello).unwrap();
        let payload = b"ghost";
        raw.write_all(&(payload.len() as u32).to_le_bytes())
            .unwrap();
        raw.write_all(&crc32(payload).to_le_bytes()).unwrap();
        raw.write_all(payload).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(300)),
            Err(RecvError::Timeout),
            "frames from a stale incarnation must never surface"
        );
        let mut buf = [0u8; 1];
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(raw.read(&mut buf).unwrap_or(0), 0, "must be closed");
        // The *current* incarnation is accepted.
        let mut ok = TcpStream::connect(addr).unwrap();
        let mut hello = Vec::new();
        hello.extend_from_slice(HELLO_MAGIC);
        hello.extend_from_slice(&60u64.to_le_bytes());
        hello.extend_from_slice(&2u64.to_le_bytes());
        ok.write_all(&hello).unwrap();
        ok.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
        ok.write_all(&crc32(payload).to_le_bytes()).unwrap();
        ok.write_all(payload).unwrap();
        let (from, got) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((from, got.as_slice()), (60, payload.as_slice()));
    }

    #[test]
    fn oversized_length_prefix_closes_the_connection() {
        let mesh = TcpMesh::new();
        let mut b = mesh.endpoint(41, true).unwrap();
        let addr = mesh.book.lock().unwrap().get(&41).unwrap().addr;
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut hello = Vec::new();
        hello.extend_from_slice(HELLO_MAGIC);
        hello.extend_from_slice(&40u64.to_le_bytes());
        hello.extend_from_slice(&0u64.to_le_bytes()); // wildcard incarnation
        raw.write_all(&hello).unwrap();
        raw.write_all(&(u32::MAX).to_le_bytes()).unwrap(); // absurd length
        raw.write_all(&0u32.to_le_bytes()).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(200)),
            Err(RecvError::Timeout)
        );
        let mut buf = [0u8; 1];
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(
            raw.read(&mut buf).unwrap_or(0),
            0,
            "connection must be closed"
        );
        assert_eq!(b.stats().frames_corrupt, 1);
    }

    #[test]
    fn oversized_frames_are_dropped_at_the_sender() {
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(70, true).unwrap();
        let mut b = mesh.endpoint(71, true).unwrap();
        a.send(71, &vec![0u8; MAX_FRAME_LEN + 1]);
        a.send(71, b"small");
        a.flush();
        let (from, payload) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((from, payload.as_slice()), (70, b"small".as_slice()));
        assert_eq!(a.stats().frames_dropped, 1);
        assert_eq!(a.stats().frames_sent, 1);
        assert_eq!(b.stats().frames_corrupt, 0);
    }
}
