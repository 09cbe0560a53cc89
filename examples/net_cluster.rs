//! Networked cluster: run Tempo as one thread per replica over loopback TCP with
//! emulated wide-area delays, and measure client latency from two sites concurrently.
//!
//! Run with: `cargo run --release --example net_cluster`

use std::time::{Duration, Instant};
use tempo_core::Tempo;
use tempo_kernel::{Command, Config, KVOp, Protocol, Rifl};
use tempo_planet::Planet;
use tempo_runtime::{NetCluster, NetOpts};

fn main() {
    // Three replicas separated by an 80 ms round trip.
    let opts = NetOpts {
        planet: Some(Planet::equidistant(3, 80.0)),
        ..NetOpts::default()
    };
    let cluster = NetCluster::start(
        Config::full(3, 1),
        opts,
        Box::new(|id, shard, config, _incarnation| Tempo::new(id, shard, config)),
    )
    .expect("cluster starts");

    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2u64)
            .map(|site| {
                let mut session = cluster.client(site, site + 1).expect("client endpoint");
                scope.spawn(move || {
                    let mut latencies = Vec::new();
                    for seq in 1..=5u64 {
                        let cmd = Command::single(Rifl::new(site + 1, seq), 0, 0, KVOp::Add(1), 64);
                        let submitted = Instant::now();
                        session.submit(cmd).expect("command must complete");
                        latencies.push(submitted.elapsed());
                    }
                    (site, latencies)
                })
            })
            .collect();
        for client in clients {
            let (site, latencies) = client.join().expect("client thread");
            let mean_ms =
                latencies.iter().sum::<Duration>().as_secs_f64() * 1000.0 / latencies.len() as f64;
            println!(
                "client at site {site}: mean latency {mean_ms:.0} ms over {} commands",
                latencies.len()
            );
        }
    });

    let report = cluster.shutdown();
    let total = report.total_metrics();
    println!(
        "cluster shut down: {} commits across replicas, {} fast paths, {} frames sent",
        total.committed, total.fast_paths, report.transport.frames_sent
    );
}
