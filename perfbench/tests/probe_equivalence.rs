//! The probes only observe: a same-seed simulator run of the wrapped Tempo completes
//! the same commands, with the same latencies and protocol counters, as bare Tempo.

use std::sync::Arc;
use tempo_core::{Tempo, TempoOptions};
use tempo_kernel::config::Config;
use tempo_kernel::protocol::Protocol;
use tempo_perfbench::probe::{Probe, ProbeStore};
use tempo_perfbench::spans;
use tempo_planet::Planet;
use tempo_sim::{run_with_factory, CpuModel, ProtocolFactory, RunReport, SimOpts};
use tempo_store::MemStore;
use tempo_workload::ConflictWorkload;

fn opts(seed: u64) -> SimOpts {
    SimOpts {
        clients_per_site: 8,
        commands_per_client: 25,
        cpu: Some(CpuModel::cluster()),
        seed,
        exact_latencies: true,
        ..SimOpts::default()
    }
}

fn simulate<P: Protocol>(seed: u64, factory: ProtocolFactory<P>) -> RunReport {
    run_with_factory(
        Config::full(3, 1),
        Planet::ec2_three_regions(),
        opts(seed),
        ConflictWorkload::new(0.1, 100, seed),
        factory,
    )
}

fn assert_same(bare: RunReport, probed: RunReport) {
    assert!(!bare.stalled && !probed.stalled, "a run stalled");
    assert_eq!(bare.completed, 3 * 8 * 25, "bare run incomplete");
    assert_eq!(bare.completed, probed.completed);
    assert_eq!(bare.aborted, probed.aborted);
    assert_eq!(bare.metrics, probed.metrics);
    assert_eq!(bare.duration_us, probed.duration_us);
    let (mut bare_lat, mut probed_lat) = (
        bare.exact_overall.expect("exact latencies"),
        probed.exact_overall.expect("exact latencies"),
    );
    assert_eq!(bare_lat.sorted_samples(), probed_lat.sorted_samples());
}

#[test]
fn probed_tempo_behaves_like_bare_tempo() {
    spans::set_enabled(true);
    for seed in [1, 7] {
        let bare = simulate::<Tempo>(
            seed,
            Box::new(|id, shard, config, _| Tempo::new(id, shard, config)),
        );
        let probed = simulate::<Probe>(
            seed,
            Box::new(|id, shard, config, _| {
                Probe::new(Tempo::new(id, shard, config), Arc::default())
            }),
        );
        assert_same(bare, probed);
    }
}

#[test]
fn probed_store_behaves_like_bare_store() {
    spans::set_enabled(true);
    let bare = simulate::<Tempo>(
        3,
        Box::new(|id, shard, config, _| {
            Tempo::with_store(
                id,
                shard,
                config,
                TempoOptions::default(),
                Box::new(MemStore::new()),
            )
        }),
    );
    assert!(bare.metrics.wal_appends > 0, "the store was written");
    let probed = simulate::<Probe>(
        3,
        Box::new(|id, shard, config, _| {
            let store = Box::new(ProbeStore::new(MemStore::new()));
            let tempo = Tempo::with_store(id, shard, config, TempoOptions::default(), store);
            Probe::new(tempo, Arc::default())
        }),
    );
    assert_same(bare, probed);
}
