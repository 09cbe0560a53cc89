//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span is one timed call: its layer, start, end and the span that was open on the
//! same thread when it started (its parent: `store.sync` nests in `kernel.persist`,
//! `store.append` in a `core.*` handler). Every thread keeps its own buffer, so
//! recording takes only that thread's uncontended lock. Besides the bounded list of
//! spans, each thread keeps per-layer totals (calls, inclusive and self time) over
//! every span, stored or not, which is what the per-layer metrics are made of.
//! Self time is a span's duration minus the time its child spans cover.
//!
//! Recording is off until [`set_enabled`] turns it on; while off, [`span`] only runs
//! the call.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The layer boundaries the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Mix::next`: the load generator building one command.
    LoadMix,
    /// `Protocol::submit`.
    CoreSubmit,
    /// `Protocol::handle`, split by message kind.
    CoreHandle(MsgKind),
    /// `Protocol::timer`.
    CoreTimer,
    /// `Protocol::persist`: called once per `Driver` step.
    KernelPersist,
    /// `Store::append`.
    StoreAppend,
    /// `Store::sync` with appends pending (a write plus an fsync for `FileStore`).
    StoreSync,
    /// `Store::install_snapshot`.
    StoreSnapshot,
    /// `Store::load`.
    StoreLoad,
    /// `Wire::encode_into` of a peer message.
    NetEncode,
    /// `Wire::decode_from` of a peer message.
    NetDecode,
}

/// The Tempo message kinds whose handlers are timed separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    MPropose,
    MPayload,
    MProposeAck,
    MCommit,
    MPromises,
    MConsensus,
    MConsensusAck,
    Other,
}

impl MsgKind {
    /// Every kind, in report order.
    pub const ALL: [MsgKind; 8] = [
        MsgKind::MPropose,
        MsgKind::MPayload,
        MsgKind::MProposeAck,
        MsgKind::MCommit,
        MsgKind::MPromises,
        MsgKind::MConsensus,
        MsgKind::MConsensusAck,
        MsgKind::Other,
    ];

    /// The kind's name in metric names.
    pub fn name(self) -> &'static str {
        match self {
            MsgKind::MPropose => "MPropose",
            MsgKind::MPayload => "MPayload",
            MsgKind::MProposeAck => "MProposeAck",
            MsgKind::MCommit => "MCommit",
            MsgKind::MPromises => "MPromises",
            MsgKind::MConsensus => "MConsensus",
            MsgKind::MConsensusAck => "MConsensusAck",
            MsgKind::Other => "other",
        }
    }
}

/// Number of distinct [`Layer`] values (handler kinds counted separately).
pub const LAYER_COUNT: usize = 10 + MsgKind::ALL.len();

impl Layer {
    /// Dense index into per-layer tables.
    pub fn index(self) -> usize {
        match self {
            Layer::LoadMix => 0,
            Layer::CoreSubmit => 1,
            Layer::CoreTimer => 2,
            Layer::KernelPersist => 3,
            Layer::StoreAppend => 4,
            Layer::StoreSync => 5,
            Layer::StoreSnapshot => 6,
            Layer::StoreLoad => 7,
            Layer::NetEncode => 8,
            Layer::NetDecode => 9,
            Layer::CoreHandle(kind) => 10 + kind as usize,
        }
    }

    /// The layer's span name.
    pub fn name(self) -> String {
        match self {
            Layer::LoadMix => "load.mix".into(),
            Layer::CoreSubmit => "core.submit".into(),
            Layer::CoreHandle(kind) => format!("core.handle.{}", kind.name()),
            Layer::CoreTimer => "core.timer".into(),
            Layer::KernelPersist => "kernel.persist".into(),
            Layer::StoreAppend => "store.append".into(),
            Layer::StoreSync => "store.sync".into(),
            Layer::StoreSnapshot => "store.snapshot".into(),
            Layer::StoreLoad => "store.load".into(),
            Layer::NetEncode => "net.encode".into(),
            Layer::NetDecode => "net.decode".into(),
        }
    }

    /// Every layer, in [`Layer::index`] order.
    pub fn all() -> Vec<Layer> {
        let mut all = vec![
            Layer::LoadMix,
            Layer::CoreSubmit,
            Layer::CoreTimer,
            Layer::KernelPersist,
            Layer::StoreAppend,
            Layer::StoreSync,
            Layer::StoreSnapshot,
            Layer::StoreLoad,
            Layer::NetEncode,
            Layer::NetDecode,
        ];
        all.extend(MsgKind::ALL.map(Layer::CoreHandle));
        all
    }
}

/// One recorded call. `parent` indexes the same thread's span list.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Recording thread (registration order).
    pub thread: u32,
    /// Position in that thread's span list.
    pub index: u32,
    /// The layer called.
    pub layer: Layer,
    /// Start, in nanoseconds since recording was enabled.
    pub start_ns: u64,
    /// End, in nanoseconds since recording was enabled.
    pub end_ns: u64,
    /// The span open on this thread when this one started.
    pub parent: Option<u32>,
}

/// Totals of one layer over every span recorded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Calls timed.
    pub calls: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus their children's.
    pub self_ns: u64,
}

/// Most spans one thread keeps; calls past it still count in [`Totals`].
pub const SPANS_PER_THREAD: usize = 1 << 17;

struct Open {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
    index: Option<u32>,
}

struct ThreadSpans {
    thread: u32,
    stack: Vec<Open>,
    spans: Vec<Span>,
    unstored: u64,
    totals: [Totals; LAYER_COUNT],
}

impl ThreadSpans {
    fn open(&mut self, layer: Layer, now_ns: u64) {
        let index = (self.spans.len() < SPANS_PER_THREAD).then(|| {
            let index = self.spans.len() as u32;
            self.spans.push(Span {
                thread: self.thread,
                index,
                layer,
                start_ns: now_ns,
                end_ns: now_ns,
                parent: self.stack.last().and_then(|open| open.index),
            });
            index
        });
        if index.is_none() {
            self.unstored += 1;
        }
        self.stack.push(Open {
            layer,
            start_ns: now_ns,
            child_ns: 0,
            index,
        });
    }

    fn close(&mut self, now_ns: u64) {
        let open = self.stack.pop().expect("every closed span was opened");
        let duration = now_ns.saturating_sub(open.start_ns);
        let totals = &mut self.totals[open.layer.index()];
        totals.calls += 1;
        totals.total_ns += duration;
        totals.self_ns += duration.saturating_sub(open.child_ns);
        if let Some(index) = open.index {
            self.spans[index as usize].end_ns = now_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration;
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static THREADS: Mutex<Vec<Arc<Mutex<ThreadSpans>>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: Arc<Mutex<ThreadSpans>> = register();
}

fn register() -> Arc<Mutex<ThreadSpans>> {
    let mut threads = THREADS.lock().expect("span registry lock poisoned");
    let local = Arc::new(Mutex::new(ThreadSpans {
        thread: threads.len() as u32,
        stack: Vec::new(),
        spans: Vec::new(),
        unstored: 0,
        totals: [Totals::default(); LAYER_COUNT],
    }));
    threads.push(Arc::clone(&local));
    local
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off for every thread. Switch it only while no span is
/// open (between runs).
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Runs `call` as one span of `layer` (just runs it while recording is off).
pub fn span<R>(layer: Layer, call: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return call();
    }
    LOCAL.with(|local| {
        local
            .lock()
            .expect("thread span lock poisoned")
            .open(layer, now_ns())
    });
    let result = call();
    LOCAL.with(|local| {
        local
            .lock()
            .expect("thread span lock poisoned")
            .close(now_ns())
    });
    result
}

/// Everything recorded so far, over all threads.
#[derive(Debug, Clone)]
pub struct Recorded {
    /// Per-layer totals, by [`Layer::index`].
    pub totals: [Totals; LAYER_COUNT],
    /// The stored spans, thread by thread.
    pub spans: Vec<Span>,
    /// Spans timed but not stored (a thread hit [`SPANS_PER_THREAD`]).
    pub unstored: u64,
}

impl Recorded {
    /// Totals of one layer.
    pub fn of(&self, layer: Layer) -> Totals {
        self.totals[layer.index()]
    }

    /// Writes the spans as CSV: `thread,index,layer,start_ns,end_ns,parent`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "thread,index,layer,start_ns,end_ns,parent")?;
        for s in &self.spans {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{},{},{},{},{},{}",
                s.thread,
                s.index,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                parent
            )?;
        }
        out.flush()
    }
}

/// Drains every thread's buffer. Call it only while no span is open: after every
/// thread that records has been joined.
pub fn take() -> Recorded {
    let mut recorded = Recorded {
        totals: [Totals::default(); LAYER_COUNT],
        spans: Vec::new(),
        unstored: 0,
    };
    for local in THREADS.lock().expect("span registry lock poisoned").iter() {
        let mut local = local.lock().expect("thread span lock poisoned");
        assert!(local.stack.is_empty(), "spans taken while one is open");
        for (sum, t) in recorded.totals.iter_mut().zip(local.totals.iter_mut()) {
            sum.calls += t.calls;
            sum.total_ns += t.total_ns;
            sum.self_ns += t.self_ns;
            *t = Totals::default();
        }
        recorded.spans.append(&mut local.spans);
        recorded.unstored += std::mem::take(&mut local.unstored);
    }
    recorded
}
