//! Runs one workload of the repo benchmark and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <wan3|wan3-wal> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs Tempo (3 replicas, f = 1, one in each region of
//! `Planet::ec2_three_regions`) on `NetCluster`: loopback TCP carrying the regions'
//! one-way delays, one thread per replica. `run_load` drives it open-loop: Poisson
//! arrivals, one socket per site, `ZipfMix` θ = 0.5 over 4096 keys, 50 % reads, 100 B
//! payloads. Inputs come only from `--seed`. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! * `--trace 0` reports the end-to-end metrics. It measures `--seconds` as slices of
//!   2 s, each on a freshly set-up cluster, and reports medians over the slices.
//! * `--trace 1` reports the per-layer metrics. It runs one traced load pass (span
//!   recording, the lifecycle tracer and the client history on) between two untraced
//!   passes of the same length, whose mean is the base of `trace.overhead_frac`. Each
//!   pass measures a 3 s window (see `TRACED_WINDOW`). The spans are written to
//!   `.perfbench/spans-<workload>.csv`.
//!
//! Every run checks that all replicas executed every command submitted and that no
//! command failed; a traced run also checks the recorded history (`History::check`).

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tempo_core::{Tempo, TempoOptions};
use tempo_kernel::command::{Command, KVOp};
use tempo_kernel::config::Config;
use tempo_kernel::id::{ClientId, Rifl};
use tempo_kernel::protocol::Protocol;
use tempo_load::ZipfMix;
use tempo_perfbench::measure::{cpu_seconds, median, peak_rss_mb, quantile_ms};
use tempo_perfbench::probe::{Probe, ProbeMix, ProbeStore};
use tempo_perfbench::spans::{self, Layer, MsgKind, Recorded, Totals};
use tempo_planet::Planet;
use tempo_runtime::{
    run_load, LoadOpts, LoadReport, NetCluster, NetOpts, RuntimeFactory, RuntimeReport,
};
use tempo_store::MemStore;

/// One traffic mix and deployment.
struct Workload {
    name: &'static str,
    /// Each replica writes ahead to its own empty `MemStore` (through
    /// `Tempo::with_store`) instead of running diskless.
    wal: bool,
    /// Share of commands forced onto key 0.
    hot_ratio: f64,
}

/// Both workloads place replicas and clients in three EC2 regions
/// (`Planet::ec2_three_regions`): with the emulated one-way delays, latency is set by
/// quorum round trips and the stability wait rather than by how a shared host's other
/// tenants delay its threads, so it repeats from run to run.
const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "wan3",
        wal: false,
        hot_ratio: 0.1,
    },
    Workload {
        name: "wan3-wal",
        wal: true,
        hot_ratio: 0.0,
    },
];

const REPLICAS: usize = 3;
/// Offered load, commands per second.
const RATE_PER_S: f64 = 1000.0;
/// Client sessions: more than the ~300 commands in flight at this rate and latency.
const SESSIONS: usize = 1200;
const KEYS: u64 = 4096;
const THETA: f64 = 0.5;
const READ_RATIO: f64 = 0.5;
const PAYLOAD: usize = 100;
/// Client id of the set-up command (pumps use ids `1..=sites`).
const SETUP_CLIENT: ClientId = 100;
/// An untraced run measures `--seconds` as slices of this length, each on a freshly
/// set-up cluster. Set-up time, latencies and CPU per command are medians over
/// slices, so one slice disturbed by the machine's other tenants does not set the
/// result.
const SLICE_SECONDS: u64 = 2;
/// Unmeasured lead-in of every load slice.
const WARMUP: Duration = Duration::from_secs(1);
/// An op not answered within this is counted failed.
const OP_TIMEOUT: Duration = Duration::from_secs(10);
/// How long replicas may take to execute everything after the load ends.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(10);
/// Load window of each pass of a traced run (capped at `--seconds`). Two costs
/// bound it. `History::check` grows about quadratically with the commands recorded:
/// on a 2-vCPU VM it took 12.6 s after a 3 s window and 60 s after 7.2 s. And a
/// replica's lifecycle ring holds `DEFAULT_TRACE_CAPACITY` (64 Ki) events, about 13 s
/// of this load at the 5.0 events per command per replica measured.
const TRACED_WINDOW: Duration = Duration::from_secs(3);
/// Where traced runs write their spans, relative to the checkout.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS
                    .iter()
                    .find(|w| w.name == value)
                    .ok_or_else(|| format!("unknown workload {value}"))?;
                workload = Some(w);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds must be 1..=60, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A started cluster and what its checks need.
struct Deployment {
    cluster: NetCluster,
    /// Commands delivered so far, per replica (counted by the probes).
    executed: Vec<Arc<AtomicU64>>,
    /// Commands submitted so far (set-up plus load).
    commands: u64,
    setup: Duration,
    setup_answered: bool,
}

fn deploy(w: &Workload, seed: u64, traced: bool) -> Deployment {
    let start = Instant::now();
    let wal = w.wal;
    let executed: Vec<Arc<AtomicU64>> = (0..REPLICAS).map(|_| Arc::default()).collect();
    let counters = executed.clone();
    let factory: RuntimeFactory<Probe> = Box::new(move |id, shard, config, _incarnation| {
        let tempo = if wal {
            let store = Box::new(ProbeStore::new(MemStore::new()));
            Tempo::with_store(id, shard, config, TempoOptions::default(), store)
        } else {
            Tempo::new(id, shard, config)
        };
        Probe::new(tempo, Arc::clone(&counters[id as usize]))
    });
    let opts = NetOpts {
        seed,
        planet: Some(Planet::ec2_three_regions()),
        trace: traced,
        record_history: traced,
        ..NetOpts::default()
    };
    let cluster =
        NetCluster::start(Config::full(REPLICAS, 1), opts, factory).expect("start the cluster");
    let mut client = cluster
        .client(0, SETUP_CLIENT)
        .expect("bind the set-up client");
    let cmd = Command::single(Rifl::new(SETUP_CLIENT, 1), 0, 0, KVOp::Put(seed), PAYLOAD);
    let setup_answered = client.submit(cmd).is_some();
    Deployment {
        cluster,
        executed,
        commands: 1,
        setup: start.elapsed(),
        setup_answered,
    }
}

fn mix(w: &Workload, seed: u64, slice: u64, pump: usize) -> ZipfMix {
    ZipfMix::new(
        KEYS,
        THETA,
        READ_RATIO,
        (seed << 16) | (slice << 8) | pump as u64,
    )
    .with_payload(PAYLOAD)
    .with_hot_ratio(w.hot_ratio)
}

/// The load of a run: one or more `run_load` slices, each on its own cluster, plus
/// the process CPU time spent during them.
#[derive(Default)]
struct Load {
    slices: Vec<LoadReport>,
    /// Process CPU time of each slice, in µs per command issued in it.
    cpu_us_per_cmd: Vec<f64>,
    issued: u64,
}

impl Load {
    /// The median over slices of each slice's CPU time per command, in µs.
    fn cpu_us_per_cmd(&self) -> f64 {
        median(&self.cpu_us_per_cmd)
    }

    fn completed(&self) -> u64 {
        self.slices.iter().map(|r| r.completed).sum()
    }

    fn aborted(&self) -> u64 {
        self.slices.iter().map(|r| r.aborted).sum()
    }

    /// Completed measured commands per second of measured window.
    fn achieved_per_s(&self) -> f64 {
        let window: f64 = self.slices.iter().map(|r| r.measure.as_secs_f64()).sum();
        self.completed() as f64 / window
    }

    /// The median over slices of each slice's `q`-quantile latency, in ms.
    fn latency_ms(&self, q: f64) -> f64 {
        let per_slice: Vec<f64> = self
            .slices
            .iter()
            .map(|r| quantile_ms(&r.latency, q))
            .collect();
        median(&per_slice)
    }
}

/// Drives one `run_load` slice of `measure` after [`WARMUP`] on `d`, adding it to
/// `load`. `slice` numbers the slices of a run, each with its own inputs.
fn drive(
    d: &mut Deployment,
    load: &mut Load,
    w: &'static Workload,
    seed: u64,
    slice: u64,
    measure: Duration,
) {
    let issued = Arc::new(AtomicU64::new(0));
    let opts = LoadOpts {
        sessions: SESSIONS,
        sockets_per_site: 1,
        rate_per_s: RATE_PER_S,
        warmup: WARMUP,
        measure,
        poisson: true,
        seed: (seed << 8) | slice,
        op_timeout: OP_TIMEOUT,
    };
    let counter = Arc::clone(&issued);
    let cpu_before = cpu_seconds();
    let report = run_load(&d.cluster, opts, move |pump| {
        ProbeMix::new(mix(w, seed, slice, pump), Arc::clone(&counter))
    });
    let cpu_s = cpu_seconds() - cpu_before;
    let issued = issued.load(Ordering::Relaxed);
    load.cpu_us_per_cmd.push(cpu_s * 1e6 / issued.max(1) as f64);
    load.issued += issued;
    load.slices.push(report);
    d.commands += issued;
}

/// The replica-agreement verdict of one cluster.
struct Agreement {
    executed: Vec<u64>,
    expected: u64,
}

impl Agreement {
    fn ok(&self) -> bool {
        self.executed.len() == REPLICAS && self.executed.iter().all(|&e| e == self.expected)
    }
}

/// Waits (bounded) until every replica executed every command, then shuts down.
fn finish(d: Deployment) -> (RuntimeReport, Agreement) {
    let deadline = Instant::now() + SETTLE_TIMEOUT;
    while Instant::now() < deadline
        && d.executed
            .iter()
            .any(|e| e.load(Ordering::Relaxed) < d.commands)
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    let report = d.cluster.shutdown();
    let agreement = Agreement {
        executed: report.metrics.iter().map(|m| m.executed).collect(),
        expected: d.commands,
    };
    (report, agreement)
}

/// What a run prints.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.check(false, format!("{name} is {value}"));
        }
        self.metrics.push((name, value, unit));
    }

    fn check(&mut self, ok: bool, what: String) {
        self.notes.push(format!(
            "check {}: {what}",
            if ok { "ok" } else { "FAILED" }
        ));
        self.correct &= ok;
    }

    fn check_load(&mut self, label: &str, load: &Load) {
        let (completed, aborted) = (load.completed(), load.aborted());
        self.check(
            aborted == 0 && completed > 0,
            format!(
                "{label}: {aborted} of {} measured commands failed",
                completed + aborted
            ),
        );
    }

    /// Reports `load` as the run's attempted and failed commands.
    fn count(&mut self, load: &Load) {
        self.attempted = load.completed() + load.aborted();
        self.failed = load.aborted();
    }

    fn check_agreement(&mut self, label: &str, a: &Agreement) {
        self.check(
            a.ok(),
            format!(
                "{label}: replicas executed {:?} of {} commands",
                a.executed, a.expected
            ),
        );
    }
}

fn untraced(args: &Args) -> Outcome {
    let w = args.workload;
    let mut out = Outcome::new();
    let mut setups = Vec::new();
    let mut load = Load::default();
    let slices = args.seconds.div_ceil(SLICE_SECONDS);
    let slice = Duration::from_secs_f64(args.seconds as f64 / slices as f64);
    for i in 0..slices {
        let mut d = deploy(w, args.seed, false);
        setups.push(d.setup.as_secs_f64());
        out.check(
            d.setup_answered,
            format!("slice {i}: first command answered"),
        );
        drive(&mut d, &mut load, w, args.seed, i, slice);
        let (_, agreement) = finish(d);
        out.check_agreement(&format!("slice {i}"), &agreement);
    }
    out.check_load("load", &load);
    out.count(&load);
    for (i, (r, cpu)) in load.slices.iter().zip(&load.cpu_us_per_cmd).enumerate() {
        out.notes.push(format!(
            "slice {i}: {} latency samples, p50 {:.3} ms, p99 {:.3} ms ({} samples beyond it), \
             {cpu:.1} us CPU per command",
            r.latency.len(),
            quantile_ms(&r.latency, 0.50),
            quantile_ms(&r.latency, 0.99),
            r.latency.len() / 100
        ));
    }
    out.metric("p50_ms", load.latency_ms(0.50), "ms");
    out.metric("p99_ms", load.latency_ms(0.99), "ms");
    out.metric("achieved_per_s", load.achieved_per_s(), "1/s");
    // On a shared 2-vCPU VM, CPU per command followed the other tenants' load
    // (IQR/median 0.21 over 10 seeds), too wide for an end-to-end bound. It is
    // printed here and reported by the traced run as `runtime.cpu_us_per_cmd`.
    out.notes.push(format!(
        "cpu: {:.1} us per command (median over slices)",
        load.cpu_us_per_cmd()
    ));
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    out.metric("setup_s", median(&setups), "s");
    out
}

fn traced(args: &Args) -> Outcome {
    let w = args.workload;
    let mut out = Outcome::new();
    let window = TRACED_WINDOW.min(Duration::from_secs(args.seconds));
    out.notes
        .push(format!("traced window {:.2} s", window.as_secs_f64()));

    // The same load with nothing recorded, before and after the traced pass: the mean
    // of the two is the base of `trace.overhead_frac`.
    let mut plain = Load::default();
    baseline(&mut out, &mut plain, w, args.seed, window);

    spans::set_enabled(true);
    let mut d = deploy(w, args.seed, true);
    out.check(
        d.setup_answered,
        "traced set-up: first command answered".into(),
    );
    let mut load = Load::default();
    drive(&mut d, &mut load, w, args.seed, 0, window);
    let commands = d.commands;
    let (report, agreement) = finish(d);
    spans::set_enabled(false);
    let rec = spans::take();
    out.check_load("traced load", &load);
    out.count(&load);
    out.check_agreement("traced load", &agreement);
    if let Some(trace) = &report.trace {
        out.notes.push(format!(
            "lifecycle trace: {} events, {:.2} per command per replica",
            trace.events.len(),
            trace.events.len() as f64 / (load.issued + 1) as f64 / REPLICAS as f64
        ));
    }
    match report.history.as_ref().map(|h| h.check()) {
        Some(Ok(summary)) => out.check(
            true,
            format!(
                "history: {} commands, {} keys checked, {} skipped",
                summary.commands, summary.keys_checked, summary.keys_skipped
            ),
        ),
        Some(Err(violation)) => out.check(false, format!("history: {violation:?}")),
        None => out.check(false, "history: none recorded".into()),
    }

    std::fs::create_dir_all(OUT_DIR).expect("create output directory");
    let dump = Path::new(OUT_DIR).join(format!("spans-{}.csv", w.name));
    rec.write_csv(&dump).expect("write spans");
    out.notes.push(format!(
        "{} spans written to {} ({} more timed but not kept)",
        rec.spans.len(),
        dump.display(),
        rec.unstored
    ));

    baseline(&mut out, &mut plain, w, args.seed, window);
    out.check_load("baseline loads", &plain);
    layer_metrics(&mut out, commands, &rec, &report, &load, &plain);
    out
}

/// One untraced pass of a traced run, added to `plain`.
fn baseline(
    out: &mut Outcome,
    plain: &mut Load,
    w: &'static Workload,
    seed: u64,
    window: Duration,
) {
    let pass = plain.slices.len();
    let mut d = deploy(w, seed, false);
    out.check(
        d.setup_answered,
        format!("baseline {pass}: first command answered"),
    );
    drive(&mut d, plain, w, seed, 0, window);
    let (_, agreement) = finish(d);
    out.check_agreement(&format!("baseline {pass}"), &agreement);
}

fn mean_ns(t: Totals) -> f64 {
    if t.calls == 0 {
        0.0
    } else {
        t.total_ns as f64 / t.calls as f64
    }
}

fn layer_metrics(
    out: &mut Outcome,
    commands: u64,
    rec: &Recorded,
    report: &RuntimeReport,
    load: &Load,
    plain: &Load,
) {
    let cmds = commands as f64;
    let per_cmd = |x: f64| x / cmds;
    let totals = report.total_metrics();
    let net = &report.transport;

    out.metric("load.mix_ns", mean_ns(rec.of(Layer::LoadMix)), "ns");

    let core_layers: Vec<Layer> = [Layer::CoreSubmit, Layer::CoreTimer]
        .into_iter()
        .chain(MsgKind::ALL.map(Layer::CoreHandle))
        .collect();
    out.metric("core.submit_ns", mean_ns(rec.of(Layer::CoreSubmit)), "ns");
    for kind in MsgKind::ALL {
        let t = rec.of(Layer::CoreHandle(kind));
        out.metric(format!("core.handle_ns.{}", kind.name()), mean_ns(t), "ns");
        out.metric(
            format!("core.handle_per_cmd.{}", kind.name()),
            per_cmd(t.calls as f64),
            "count",
        );
    }
    let timer = rec.of(Layer::CoreTimer);
    out.metric("core.timer_ns", mean_ns(timer), "ns");
    out.metric("core.timer_per_cmd", per_cmd(timer.calls as f64), "count");
    let core_ns: u64 = core_layers.iter().map(|l| rec.of(*l).total_ns).sum();
    out.metric("core.us_per_cmd", per_cmd(core_ns as f64 / 1e3), "us");
    out.metric(
        "core.msgs_per_cmd",
        per_cmd(totals.messages_sent as f64),
        "count",
    );
    out.metric("core.fast_path_ratio", totals.fast_path_ratio(), "ratio");

    let persist = rec.of(Layer::KernelPersist);
    out.metric(
        "kernel.steps_per_cmd",
        per_cmd(persist.calls as f64),
        "count",
    );
    let persist_self = if persist.calls == 0 {
        0.0
    } else {
        persist.self_ns as f64 / persist.calls as f64
    };
    out.metric("kernel.persist_self_ns", persist_self, "ns");

    let append = rec.of(Layer::StoreAppend);
    let sync = rec.of(Layer::StoreSync);
    out.metric(
        "store.appends_per_cmd",
        per_cmd(append.calls as f64),
        "count",
    );
    out.metric("store.append_ns", mean_ns(append), "ns");
    out.metric("store.fsyncs_per_cmd", per_cmd(sync.calls as f64), "count");
    out.metric("store.sync_ns", mean_ns(sync), "ns");
    out.metric(
        "store.sync_us_per_cmd",
        per_cmd(sync.total_ns as f64 / 1e3),
        "us",
    );
    out.metric("store.bytes_per_cmd", per_cmd(totals.wal_bytes as f64), "B");
    out.metric("store.snapshots", totals.snapshots_taken as f64, "count");
    out.metric(
        "store.load_ms",
        mean_ns(rec.of(Layer::StoreLoad)) / 1e6,
        "ms",
    );

    let encode = rec.of(Layer::NetEncode);
    let decode = rec.of(Layer::NetDecode);
    out.metric("net.encode_ns", mean_ns(encode), "ns");
    out.metric("net.encodes_per_cmd", per_cmd(encode.calls as f64), "count");
    out.metric("net.decode_ns", mean_ns(decode), "ns");
    out.metric("net.decodes_per_cmd", per_cmd(decode.calls as f64), "count");
    out.metric(
        "net.frames_per_cmd",
        per_cmd(net.frames_sent as f64),
        "count",
    );
    out.metric("net.bytes_per_cmd", per_cmd(net.bytes_sent as f64), "B");
    out.metric("net.flushes_per_cmd", per_cmd(net.flushes as f64), "count");
    out.metric(
        "net.frames_per_flush",
        net.frames_sent as f64 / net.flushes.max(1) as f64,
        "count",
    );
    out.metric("net.flush_stalls", net.flush_stalls as f64, "count");
    out.metric("net.queue_depth_peak", net.queue_depth_peak as f64, "count");

    // CPU outside every timed call: the sum of self times counts each timed
    // nanosecond once. Spans measure wall time, so a thread descheduled inside a
    // call makes this an underestimate.
    let timed_ns: u64 = Layer::all().into_iter().map(|l| rec.of(l).self_ns).sum();
    let traced_cpu = load.cpu_us_per_cmd();
    out.metric("runtime.cpu_us_per_cmd", plain.cpu_us_per_cmd(), "us");
    out.metric(
        "runtime.other_us_per_cmd",
        traced_cpu - per_cmd(timed_ns as f64 / 1e3),
        "us",
    );

    let phases = report
        .phases
        .as_ref()
        .expect("a traced run folds its phases");
    for name in [
        "submit_commit",
        "commit_stable",
        "execute_reply",
        "submit_reply",
    ] {
        let h = &phases.pair(name).expect("phase pair exists").histogram;
        out.metric(format!("phase.{name}.p50_ms"), quantile_ms(h, 0.50), "ms");
        out.metric(format!("phase.{name}.p99_ms"), quantile_ms(h, 0.99), "ms");
    }
    let dropped = report.trace.as_ref().map_or(0, |t| t.dropped);
    if dropped > 0 {
        out.notes.push(format!(
            "phase.* partial: the trace rings dropped {dropped} events"
        ));
    }
    out.metric("trace.dropped", dropped as f64, "count");
    out.metric(
        "trace.overhead_frac",
        traced_cpu / plain.cpu_us_per_cmd() - 1.0,
        "ratio",
    );
    out.notes.push(format!(
        "cpu_us_per_cmd: traced {traced_cpu:.1}, baseline {:.1}",
        plain.cpu_us_per_cmd()
    ));
}

fn json(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct, out.attempted, out.failed
    );
    for (i, (name, value, unit)) in out.metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        // A non-finite value already failed its check; JSON has no spelling for it.
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <wan3|wan3-wal> --seed <n> --seconds <1-60> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name, args.seed, args.seconds, args.trace as u8
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<32} {value:>14.4} {unit}");
    }
    println!("{}", json(&outcome));
}
