//! Load profile — open-loop offered-rate sweep on the real networked stack across
//! emulated wide-area regions. Emits `BENCH_load.json`.
//!
//! This is the load plane of DESIGN.md §8 end to end: seeded Poisson arrival
//! schedules (`tempo-load`), over a thousand logical client sessions multiplexed
//! over a few real sockets per site, `ChaosTransport` injecting the EC2 3-region
//! one-way latencies on every endpoint, and per-op latency measured from *intended*
//! arrival time into log-bucketed histograms — so saturation shows up as a growing
//! tail instead of quietly throttling the generator (coordinated omission).
//!
//! Recorded per protocol and offered rate: achieved throughput plus the shared
//! latency-percentile block, Tempo next to the Atlas baseline on the identical
//! stack.

use std::time::Duration;
use tempo_atlas::Atlas;
use tempo_bench::json::{self, Record};
use tempo_bench::{header, short_mode};
use tempo_core::Tempo;
use tempo_kernel::{Config, Protocol};
use tempo_load::ZipfMix;
use tempo_net::Wire;
use tempo_planet::Planet;
use tempo_runtime::{run_load, LoadOpts, NetCluster, NetOpts, RuntimeFactory};

/// Logical client sessions across the cluster (the paper drives hundreds to
/// thousands of clients per site; the sockets stay few either way).
const SESSIONS: usize = 1_200;
const KEYS: u64 = 4_096;
const THETA: f64 = 0.5;
const READ_RATIO: f64 = 0.5;
const PAYLOAD: usize = 100;

fn load_opts(rate: f64) -> LoadOpts {
    let (warmup, measure) = if short_mode() {
        (Duration::from_millis(200), Duration::from_millis(800))
    } else {
        (Duration::from_secs(1), Duration::from_secs(3))
    };
    LoadOpts {
        sessions: SESSIONS,
        sockets_per_site: 2,
        rate_per_s: rate,
        warmup,
        measure,
        poisson: true,
        seed: 42,
        op_timeout: Duration::from_secs(5),
    }
}

fn run_rate<P>(label: &str, rate: f64) -> Record
where
    P: Protocol + Send + 'static,
    P::Message: Wire + Send + 'static,
{
    let factory: RuntimeFactory<P> =
        Box::new(|id, shard, config, _incarnation| P::new(id, shard, config));
    let cluster = NetCluster::start(
        Config::full(3, 1),
        NetOpts {
            planet: Some(Planet::ec2_three_regions()),
            ..NetOpts::default()
        },
        factory,
    )
    .expect("cluster starts");
    let opts = load_opts(rate);
    // Distinct per-pump key streams, deterministic across runs.
    let report = run_load(&cluster, opts, |pump| {
        ZipfMix::new(KEYS, THETA, READ_RATIO, 42 + pump as u64).with_payload(PAYLOAD)
    });
    cluster.shutdown();
    assert!(
        report.completed > 0,
        "{label} at {rate} ops/s completed nothing: {report:?}"
    );
    let s = report.summary();
    println!(
        "  {label:7} | {rate:7.0} offered | {:7.0} achieved | {:6} done {:5} aborted | p50 {:7.1} ms  p99 {:8.1} ms  p99.9 {:8.1} ms",
        report.achieved_rate(),
        report.completed,
        report.aborted,
        s.p50_ms,
        s.p99_ms,
        s.p999_ms,
    );
    Record::new(
        format!("load/{label}_r{}", rate as u64),
        &[
            ("offered_rate", rate),
            ("achieved_rate", report.achieved_rate()),
            ("completed", report.completed as f64),
            ("aborted", report.aborted as f64),
            ("sessions", SESSIONS as f64),
        ],
    )
    .with_latency(&s)
}

fn main() {
    header(
        "Load profile: open-loop rate sweep over emulated 3-region WAN (real sockets)",
        "§6 experimental setup (open-loop clients, multi-region deployment, tail latency)",
    );
    let rates = [500.0, 1_500.0, 4_000.0];
    let mut records = Vec::new();
    println!(
        "\n{SESSIONS} sessions, zipf θ={THETA} over {KEYS} keys, {:.0}% reads, {PAYLOAD} B payloads",
        READ_RATIO * 100.0
    );
    for rate in rates {
        records.push(run_rate::<Tempo>("tempo", rate));
    }
    println!();
    for rate in rates {
        records.push(run_rate::<Atlas>("atlas", rate));
    }
    json::write("load", &records);
}
