//! End-to-end tests of the Tempo protocol on a synchronous local cluster.
//!
//! These tests drive full deployments (several processes, one or more shards) through the
//! kernel's `LocalCluster` harness and check the paper's correctness properties:
//! timestamp agreement (Property 1), ordering, the fast-path condition of Table 1, the
//! stability examples of Figures 2-4 and the recovery protocol of §5.

use tempo_core::{Message, Phase, PromiseBundle, PromiseRange, Quorums, Tempo, TempoOptions};
use tempo_kernel::config::Config;
use tempo_kernel::driver::Driver;
use tempo_kernel::harness::{per_key_order, LocalCluster};
use tempo_kernel::id::{Dot, ProcessId, Rifl};
use tempo_kernel::kvstore::KVStore;
use tempo_kernel::protocol::{Action, Protocol, View};
use tempo_kernel::rand::Rng;
use tempo_kernel::{Command, KVOp};

fn rifl(client: u64, seq: u64) -> Rifl {
    Rifl::new(client, seq)
}

fn key_cmd(client: u64, seq: u64, key: u64) -> Command {
    Command::single(rifl(client, seq), 0, key, KVOp::Put(seq), 0)
}

/// Sets a process clock to `value` by feeding it an `MBump` (bumping is always safe).
fn set_clock(cluster: &mut LocalCluster<Tempo>, process: ProcessId, value: u64) {
    let msg = Message::MBump {
        dot: Dot::new(process, u64::MAX),
        ts: value,
    };
    let _ = cluster.process_mut(process).handle(process, msg, 0);
    assert_eq!(cluster.process(process).clock_value(), value);
}

#[test]
fn single_command_commits_and_executes_everywhere() {
    let config = Config::full(5, 1);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    cluster.submit(0, key_cmd(1, 1, 42));
    cluster.tick_all(5_000);
    cluster.tick_all(5_000);
    let dot = Dot::new(0, 1);
    for p in cluster.process_ids() {
        // Executed — or already executed-and-GC'd once every peer's watermark covered it.
        let phase = cluster.process(p).phase_of(dot);
        assert!(
            phase == Some(Phase::Execute)
                || (phase.is_none() && cluster.process(p).gc_tracker().is_collected(dot)),
            "command not executed at {p} (phase {phase:?})"
        );
        let executed = cluster.executed(p);
        assert_eq!(executed.len(), 1);
        assert_eq!(executed[0].rifl, rifl(1, 1));
    }
}

#[test]
fn coordinator_executes_without_extra_ticks_thanks_to_piggybacking() {
    // §3.2: promises piggybacked on MProposeAck/MCommit often make the timestamp stable
    // immediately after it is decided.
    let config = Config::full(5, 1);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    cluster.submit(0, key_cmd(1, 1, 7));
    let executed = cluster.executed(0);
    assert_eq!(
        executed.len(),
        1,
        "coordinator should execute with no ticks"
    );
}

#[test]
fn fast_path_is_always_taken_with_f1() {
    // §3.1: with f = 1 the fast-path condition trivially holds, whatever the proposals.
    let config = Config::full(5, 1);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    // Give the replicas wildly different clocks.
    set_clock(&mut cluster, 1, 100);
    set_clock(&mut cluster, 2, 3);
    for seq in 1..=20 {
        cluster.submit(0, key_cmd(1, seq, seq));
    }
    let metrics = cluster.process(0).metrics();
    assert_eq!(metrics.fast_paths, 20);
    assert_eq!(metrics.slow_paths, 0);
}

#[test]
fn table1_scenario_a_fast_path_without_matching_proposals() {
    // Table 1 a): f = 2, clocks A=5 (proposes 6), B=6, C=10, D=10 -> proposals 6,7,11,11;
    // count(11) = 2 >= f, so the fast path is taken and the timestamp is 11.
    let config = Config::full(5, 2);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    set_clock(&mut cluster, 0, 5);
    set_clock(&mut cluster, 1, 6);
    set_clock(&mut cluster, 2, 10);
    set_clock(&mut cluster, 3, 10);
    cluster.submit(0, key_cmd(1, 1, 0));
    let metrics = cluster.process(0).metrics();
    assert_eq!(metrics.fast_paths, 1);
    assert_eq!(metrics.slow_paths, 0);
    let dot = Dot::new(0, 1);
    for p in cluster.process_ids() {
        assert_eq!(cluster.process(p).committed_timestamp(dot), Some(11));
    }
}

#[test]
fn table1_scenario_b_slow_path_when_highest_proposal_is_unique() {
    // Table 1 b): f = 2, clocks A=5, B=6, C=10, D=5 -> proposals 6,7,11,6; count(11) = 1 < f,
    // so the slow path is taken. The committed timestamp is still 11 (Property 1).
    let config = Config::full(5, 2);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    set_clock(&mut cluster, 0, 5);
    set_clock(&mut cluster, 1, 6);
    set_clock(&mut cluster, 2, 10);
    set_clock(&mut cluster, 3, 5);
    cluster.submit(0, key_cmd(1, 1, 0));
    let metrics = cluster.process(0).metrics();
    assert_eq!(metrics.fast_paths, 0);
    assert_eq!(metrics.slow_paths, 1);
    let dot = Dot::new(0, 1);
    for p in cluster.process_ids() {
        assert_eq!(cluster.process(p).committed_timestamp(dot), Some(11));
    }
}

#[test]
fn table1_scenario_c_fast_path_with_f1_divergent_clocks() {
    // Table 1 c): f = 1, clocks A=5, B=6, C=10 -> proposals 6,7,11; fast path, timestamp 11.
    let config = Config::full(5, 1);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    set_clock(&mut cluster, 0, 5);
    set_clock(&mut cluster, 1, 6);
    set_clock(&mut cluster, 2, 10);
    cluster.submit(0, key_cmd(1, 1, 0));
    assert_eq!(cluster.process(0).metrics().fast_paths, 1);
    assert_eq!(
        cluster.process(4).committed_timestamp(Dot::new(0, 1)),
        Some(11)
    );
}

#[test]
fn table1_scenario_d_fast_path_with_matching_proposals() {
    // Table 1 d): f = 1, clocks A=5, B=5, C=1 -> proposals 6,6,6; fast path, timestamp 6.
    let config = Config::full(5, 1);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    set_clock(&mut cluster, 0, 5);
    set_clock(&mut cluster, 1, 5);
    set_clock(&mut cluster, 2, 1);
    cluster.submit(0, key_cmd(1, 1, 0));
    assert_eq!(cluster.process(0).metrics().fast_paths, 1);
    assert_eq!(
        cluster.process(3).committed_timestamp(Dot::new(0, 1)),
        Some(6)
    );
}

#[test]
fn all_equal_fast_path_ablation_forces_slow_path() {
    // With the EPaxos-like "all proposals equal" condition, Table 1 a) goes to the slow
    // path even though Tempo's condition would allow the fast path.
    let config = Config::full(5, 2);
    let mut cluster = LocalCluster::<Tempo>::with_views(config, |p| {
        tempo_kernel::protocol::View::trivial(config, p)
    });
    for p in cluster.process_ids() {
        let options = TempoOptions {
            all_equal_fast_path: true,
            ..TempoOptions::default()
        };
        *cluster.process_mut(p) = Tempo::with_options(p, 0, config, options);
        let view = tempo_kernel::protocol::View::trivial(config, p);
        cluster.process_mut(p).discover(view);
    }
    set_clock(&mut cluster, 0, 5);
    set_clock(&mut cluster, 1, 6);
    set_clock(&mut cluster, 2, 10);
    set_clock(&mut cluster, 3, 10);
    cluster.submit(0, key_cmd(1, 1, 0));
    let metrics = cluster.process(0).metrics();
    assert_eq!(metrics.fast_paths, 0);
    assert_eq!(metrics.slow_paths, 1);
    // Property 1 still holds.
    assert_eq!(
        cluster.process(4).committed_timestamp(Dot::new(0, 1)),
        Some(11)
    );
}

#[test]
fn concurrent_conflicting_commands_agree_on_timestamps_and_order() {
    let config = Config::full(5, 2);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    // Submit concurrently (no deliveries in between) from every process, all on key 0.
    for (i, p) in cluster.process_ids().into_iter().enumerate() {
        cluster.submit_no_deliver(p, Command::single(rifl(p, 1), 0, 0, KVOp::Put(i as u64), 0));
    }
    cluster.run_to_quiescence();
    // Property 1: all processes agree on every command's timestamp. Checked before the
    // stability ticks: afterwards the executed-watermark GC may have dropped the
    // metadata the query reads.
    for seq_source in cluster.process_ids() {
        let dot = Dot::new(seq_source, 1);
        let ts0 = cluster.process(0).committed_timestamp(dot);
        assert!(ts0.is_some(), "command {dot} not committed at process 0");
        for p in cluster.process_ids() {
            assert_eq!(cluster.process(p).committed_timestamp(dot), ts0);
        }
    }
    for _ in 0..5 {
        cluster.tick_all(5_000);
    }
    // Ordering: all processes execute the same sequence and end with the same state.
    let orders: Vec<Vec<Rifl>> = cluster
        .process_ids()
        .into_iter()
        .map(|p| cluster.executed(p).into_iter().map(|e| e.rifl).collect())
        .collect();
    assert_eq!(orders[0].len(), 5);
    for order in &orders {
        assert_eq!(order, &orders[0]);
    }
}

#[test]
fn random_interleavings_preserve_ordering_property() {
    // A randomized schedule of submissions and message deliveries; whatever the
    // interleaving, all replicas must execute each key's (conflicting) commands in the
    // same order and end with the same store. On one hot key that per-key order is the
    // whole execution order, which must then be identical everywhere.
    for hot_keys in [1u64, 2] {
        for seed in 0..10u64 {
            let mut rng = Rng::new(seed);
            let config = Config::full(5, 1);
            let mut cluster = LocalCluster::<Tempo>::new(config);
            let total = 30u64;
            let mut submitted = 0u64;
            while submitted < total || cluster.in_flight() > 0 {
                let submit_now =
                    submitted < total && (cluster.in_flight() == 0 || rng.gen_bool(0.3));
                if submit_now {
                    let process = rng.gen_range(5);
                    // Few hot keys so that most commands conflict.
                    let key = rng.gen_range(hot_keys);
                    submitted += 1;
                    cluster.submit_no_deliver(
                        process,
                        Command::single(rifl(process, submitted), 0, key, KVOp::Put(submitted), 0),
                    );
                } else {
                    cluster.step();
                }
            }
            for _ in 0..5 {
                cluster.tick_all(5_000);
            }
            let executed = cluster.executed(0);
            let reference: Vec<Rifl> = executed.iter().map(|e| e.rifl).collect();
            assert_eq!(
                reference.len() as u64,
                total,
                "keys {hot_keys}, seed {seed}: missing executions"
            );
            let per_key = per_key_order(&executed);
            let digest = cluster.process(0).executor().store().digest();
            for p in cluster.process_ids().into_iter().skip(1) {
                let executed = cluster.executed(p);
                if hot_keys == 1 {
                    let order: Vec<Rifl> = executed.iter().map(|e| e.rifl).collect();
                    assert_eq!(order, reference, "seed {seed}: divergent execution at {p}");
                }
                assert_eq!(
                    per_key_order(&executed),
                    per_key,
                    "keys {hot_keys}, seed {seed}: divergent per-key execution at {p}"
                );
                assert_eq!(
                    cluster.process(p).executor().store().digest(),
                    digest,
                    "keys {hot_keys}, seed {seed}: divergent store at {p}"
                );
            }
        }
    }
}

#[test]
fn replicated_state_machines_converge() {
    let config = Config::full(3, 1);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    let mut expected = KVStore::new();
    let mut commands = Vec::new();
    for seq in 1..=50u64 {
        let cmd = Command::single(rifl(0, seq), 0, seq % 5, KVOp::Add(seq), 0);
        commands.push(cmd.clone());
        cluster.submit((seq % 3) as ProcessId, cmd);
    }
    for _ in 0..5 {
        cluster.tick_all(5_000);
    }
    // All replicas executed all commands; apply the reference order (process 0's) to a
    // fresh store and compare values.
    let order: Vec<Rifl> = cluster.executed(0).into_iter().map(|e| e.rifl).collect();
    assert_eq!(order.len(), 50);
    for r in &order {
        let cmd = commands.iter().find(|c| c.rifl == *r).unwrap();
        expected.execute(0, cmd);
    }
    for p in cluster.process_ids().into_iter().skip(1) {
        assert_eq!(cluster.executed(p).len(), 50);
    }
}

#[test]
fn appendix_d_round_robin_conflicts_all_execute() {
    // Appendix D: three processes keep proposing conflicting commands round-robin
    // (A: 1,4,7..., B: 2,5,8..., C: 3,6,9...), with only a few deliveries between
    // rounds. The pattern that keeps Caesar from committing and EPaxos from executing
    // (see `tempo-atlas`'s graph tests) lets Tempo execute every command.
    const ROUNDS: u64 = 20;
    let config = Config::full(3, 1);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    for seq in 1..=ROUNDS {
        for p in 0..3u64 {
            cluster.submit_no_deliver(p, Command::single(rifl(p, seq), 0, 0, KVOp::Add(1), 0));
        }
        for _ in 0..6 {
            cluster.step();
        }
    }
    cluster.run_to_quiescence();
    for _ in 0..5 {
        cluster.tick_all(5_000);
    }
    for p in cluster.process_ids() {
        assert_eq!(cluster.executed(p).len() as u64, 3 * ROUNDS, "at {p}");
    }
}

#[test]
fn multi_shard_command_executes_at_both_shards() {
    // 2 shards over 3 sites; a command accessing both shards, submitted at site 0.
    let config = Config::new(3, 1, 2);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    let cmd = Command::new(
        rifl(1, 1),
        vec![(0, 10, KVOp::Put(1)), (1, 20, KVOp::Put(2))],
        0,
    );
    cluster.submit(0, cmd);
    let dot = Dot::new(0, 1);
    // Committed with the same final timestamp at every replica of both shards (checked
    // before the stability ticks, which may garbage collect the metadata).
    let ts = cluster.process(0).committed_timestamp(dot);
    assert!(ts.is_some());
    for p in cluster.process_ids() {
        assert_eq!(cluster.process(p).committed_timestamp(dot), ts, "at {p}");
    }
    for _ in 0..4 {
        cluster.tick_all(5_000);
    }
    // Executed at the submitting site's processes of both shards.
    assert_eq!(cluster.executed(0).len(), 1, "shard 0 replica at site 0");
    assert_eq!(cluster.executed(3).len(), 1, "shard 1 replica at site 0");
}

#[test]
fn multi_shard_final_timestamp_is_max_of_shard_timestamps() {
    // Figure 4: shard 0 commits with timestamp 6, shard 1 with timestamp 10; the final
    // timestamp is max{6, 10} = 10.
    let config = Config::new(3, 1, 2);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    // Shard 0 processes: 0,1,2 (clocks 5); shard 1 processes: 3,4,5 (clocks 9).
    for p in [0, 1, 2] {
        set_clock(&mut cluster, p, 5);
    }
    for p in [3, 4, 5] {
        set_clock(&mut cluster, p, 9);
    }
    let cmd = Command::new(rifl(1, 1), vec![(0, 1, KVOp::Get), (1, 2, KVOp::Get)], 0);
    cluster.submit(0, cmd);
    // Checked before the stability ticks: afterwards the GC may drop the metadata.
    let dot = Dot::new(0, 1);
    for p in cluster.process_ids() {
        assert_eq!(cluster.process(p).committed_timestamp(dot), Some(10));
    }
    for _ in 0..4 {
        cluster.tick_all(5_000);
    }
}

#[test]
fn stale_multi_shard_command_asks_the_sibling_shard_for_its_commit() {
    // A shard-1 replica got shard 1's MCommit for a two-shard command but never shard
    // 0's. Its own shard's recovery can only re-decide shard 1's timestamp, so the
    // liveness probe must reach shard 0's replicas, whose MCommitInfo carries the final
    // timestamp.
    let config = Config::new(3, 1, 2);
    let mut replica = Driver::<Tempo>::new(3, 1, config);
    let _ = replica.start(View::trivial(config, 3), 0);
    let dot = Dot::new(0, 1);
    let cmd = Command::new(
        rifl(1, 1),
        vec![(0, 10, KVOp::Put(1)), (1, 20, KVOp::Put(2))],
        0,
    );
    let quorums = Quorums::from([(0, vec![0, 1]), (1, vec![3, 4])]);
    let _ = replica.handle(
        0,
        Message::MPayload {
            dot,
            cmd: cmd.clone(),
            quorums,
        },
        0,
    );
    let _ = replica.handle(
        4,
        Message::MCommit {
            dot,
            shard: 1,
            ts: 5,
            promises: PromiseBundle::default(),
        },
        0,
    );
    assert_eq!(replica.protocol().committed_timestamp(dot), None);
    // Past the probe timeout, the liveness scan asks around.
    let now = TempoOptions::default().commit_request_timeout_us + 10_000;
    let asked: Vec<ProcessId> = replica
        .fire_due(now)
        .sends
        .into_iter()
        .filter(|send| matches!(send.msg, Message::MCommitRequest { dot: d } if d == dot))
        .flat_map(|send| send.to)
        .collect();
    for p in [0, 1, 2] {
        assert!(
            asked.contains(&p),
            "shard-0 process {p} not asked: {asked:?}"
        );
    }
    // A committed shard-0 replica answers with the final timestamp.
    let _ = replica.handle(0, Message::MCommitInfo { dot, cmd, ts: 7 }, now);
    assert_eq!(replica.protocol().committed_timestamp(dot), Some(7));
}

#[test]
fn single_shard_commands_on_different_shards_are_independent() {
    // Genuineness (§4): a command on shard 0 involves no shard-1 process.
    let config = Config::new(3, 1, 2);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    cluster.submit(0, Command::single(rifl(1, 1), 0, 5, KVOp::Put(1), 0));
    cluster.tick_all(5_000);
    for p in [3, 4, 5] {
        let metrics = cluster.process(p).metrics();
        assert_eq!(metrics.committed, 0, "shard 1 process {p} saw the command");
    }
    assert_eq!(cluster.executed(0).len(), 1);
}

#[test]
fn recovery_after_coordinator_crash_preserves_fast_path_timestamp() {
    // The coordinator crashes after its fast quorum made proposals but before sending any
    // MCommit. A new coordinator recovers the command with the same timestamp that the
    // crashed coordinator could have committed (Property 4 / §5 case 2).
    let config = Config::full(3, 1);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    // Give process 1 a head start so the recovered timestamp is distinctive.
    set_clock(&mut cluster, 1, 7);
    cluster.submit_no_deliver(0, key_cmd(1, 1, 0));
    // Deliver MPropose to process 1 and MPayload to process 2, then crash the coordinator
    // before it can receive the MProposeAck.
    assert!(cluster.step());
    assert!(cluster.step());
    cluster.crash(0);
    cluster.run_to_quiescence();
    let dot = Dot::new(0, 1);
    assert_eq!(cluster.process(1).phase_of(dot), Some(Phase::Propose));
    assert_eq!(cluster.process(2).phase_of(dot), Some(Phase::Payload));
    // The survivors suspect the coordinator; process 1 becomes the shard leader.
    cluster.process_mut(1).suspect(0);
    cluster.process_mut(2).suspect(0);
    assert!(cluster.process(1).is_leader());
    assert!(!cluster.process(2).is_leader());
    // Recovery is triggered by the periodic handler once the command is old enough.
    cluster.tick_all(3_000_000);
    for p in [1, 2] {
        assert_eq!(
            cluster.process(p).committed_timestamp(dot),
            Some(8),
            "recovered timestamp must be process 1's proposal (its clock 7 + 1)"
        );
    }
    // After promises propagate, the command also executes at the survivors.
    cluster.tick_all(5_000);
    cluster.tick_all(5_000);
    assert_eq!(cluster.executed(1).len(), 1);
    assert_eq!(cluster.executed(2).len(), 1);
    assert!(cluster.process(1).metrics().recoveries_started >= 1);
    assert!(cluster.process(1).metrics().recoveries_completed >= 1);
}

#[test]
fn recovery_after_commit_spreads_the_existing_decision() {
    // The coordinator commits (so some process knows the outcome) and then crashes before
    // every replica learns it; the periodic commit-request mechanism fills the gap.
    let config = Config::full(3, 1);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    cluster.submit_no_deliver(0, key_cmd(1, 1, 3));
    // Deliver: MPropose to 1, MPayload to 2, MProposeAck back to 0 (which commits and
    // sends MCommit to 1 and 2). Deliver the MCommit to 1 only, then crash 0.
    assert!(cluster.step()); // MPropose -> 1
    assert!(cluster.step()); // MPayload -> 2
    assert!(cluster.step()); // MProposeAck -> 0 (commits, queues MCommit to 1 and 2)
    assert!(cluster.step()); // MCommit -> 1
    cluster.crash(0);
    cluster.run_to_quiescence();
    let dot = Dot::new(0, 1);
    assert!(cluster.process(1).committed_timestamp(dot).is_some());
    assert!(cluster.process(2).committed_timestamp(dot).is_none());
    cluster.process_mut(1).suspect(0);
    cluster.process_mut(2).suspect(0);
    // After the timeout, process 2 asks around and learns the commit.
    cluster.tick_all(3_000_000);
    assert_eq!(
        cluster.process(2).committed_timestamp(dot),
        cluster.process(1).committed_timestamp(dot)
    );
}

#[test]
fn slow_path_consensus_tolerates_duplicate_acks() {
    // Exercise the slow path explicitly (f = 2 and a unique highest proposal) and check
    // that replaying a consensus ack does not commit twice.
    let config = Config::full(5, 2);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    set_clock(&mut cluster, 2, 10);
    cluster.submit(0, key_cmd(1, 1, 0));
    let metrics = cluster.process(0).metrics();
    assert_eq!(metrics.slow_paths, 1);
    let dot = Dot::new(0, 1);
    let ts = cluster.process(0).committed_timestamp(dot).unwrap();
    // Replay a consensus ack; the committed timestamp must not change.
    let replay = Message::MConsensusAck { dot, ballot: 1 };
    let _ = cluster.process_mut(0).handle(1, replay, 0);
    assert_eq!(cluster.process(0).committed_timestamp(dot), Some(ts));
    assert_eq!(cluster.process(0).metrics().committed, 1);
}

#[test]
fn gc_keeps_command_metadata_bounded_over_a_long_run() {
    // The seed kept one `CommandInfo` per command ever issued: after 400 commands,
    // `Tempo::info` held 400 entries at every replica, forever. With the
    // executed-watermark GC, metadata is dropped once every shard peer has executed a
    // command, so the live set only covers the in-flight window.
    let config = Config::full(3, 1);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    let total = 400u64;
    for seq in 1..=total {
        cluster.submit(((seq % 3) + 1) % 3, key_cmd(1, seq, seq % 11));
        if seq % 20 == 0 {
            // Periodic promise broadcasts carry the executed watermarks.
            cluster.tick_all(5_000);
        }
    }
    for _ in 0..3 {
        cluster.tick_all(5_000);
    }
    for p in cluster.process_ids() {
        let metrics = cluster.process(p).metrics();
        assert_eq!(metrics.executed, total, "all commands executed at {p}");
        // At quiescence the frontier-only broadcasts ship the final window, so *every*
        // command's metadata has been reclaimed — not merely a bounded prefix.
        assert_eq!(
            metrics.gc_collected, total,
            "GC must reclaim all {total} executed commands at {p}"
        );
        assert_eq!(
            cluster.process(p).info_len(),
            0,
            "no live metadata must remain at {p} after {total} executed commands"
        );
    }
    // GC must not disturb execution: all replicas executed every key's commands in the
    // same order (commands on different keys commute) and hold the same store.
    let executed = cluster.executed(0);
    assert_eq!(executed.len() as u64, total);
    let reference = per_key_order(&executed);
    let digest = cluster.process(0).executor().store().digest();
    for p in [1u64, 2] {
        assert_eq!(
            per_key_order(&cluster.executed(p)),
            reference,
            "divergent per-key execution at {p}"
        );
        assert_eq!(
            cluster.process(p).executor().store().digest(),
            digest,
            "divergent store at {p}"
        );
    }
}

#[test]
fn stale_messages_for_collected_dots_are_dropped() {
    let config = Config::full(3, 1);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    cluster.submit(0, key_cmd(1, 1, 0));
    cluster.submit(0, key_cmd(1, 2, 0));
    for _ in 0..3 {
        cluster.tick_all(5_000);
    }
    let dot = Dot::new(0, 1);
    assert!(
        cluster.process(0).gc_tracker().is_collected(dot),
        "first command should be collected once every peer executed it"
    );
    assert!(cluster.process(0).phase_of(dot).is_none());
    // A stale in-flight message about the collected dot must not resurrect metadata.
    let before = cluster.process(0).info_len();
    let _ = cluster
        .process_mut(0)
        .handle(1, Message::MCommitRequest { dot }, 0);
    let _ = cluster
        .process_mut(0)
        .handle(1, Message::MRec { dot, ballot: 5 }, 0);
    assert_eq!(cluster.process(0).info_len(), before);
    assert!(cluster.process(0).phase_of(dot).is_none());
}

#[test]
fn executions_follow_timestamp_order_per_process() {
    let config = Config::full(3, 1);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    for seq in 1..=20u64 {
        let source = (seq % 3) as ProcessId;
        cluster.submit_no_deliver(
            source,
            Command::single(rifl(source, seq), 0, 0, KVOp::Get, 0),
        );
        // Interleave some deliveries to create concurrency.
        if seq % 2 == 0 {
            for _ in 0..3 {
                cluster.step();
            }
        }
    }
    cluster.run_to_quiescence();
    for _ in 0..5 {
        cluster.tick_all(5_000);
    }
    // Check that at each process, executed commands have non-decreasing timestamps.
    for p in cluster.process_ids() {
        let executed = cluster.executed(p);
        assert_eq!(executed.len(), 20);
    }
}

#[test]
fn attached_promise_for_an_unknown_dot_waits_for_its_payload() {
    // The receipt-fed tracker takes an attached promise once its command's payload —
    // and thus its keys — is known; before that, the promise must not count, or the
    // command could never block the keys it touches.
    let config = Config::full(3, 1);
    let mut tempo = Tempo::new(0, 0, config);
    let unknown = Dot::new(2, 1);
    // Process 1 attached 1 to the unknown command and promised 2..=5 detached.
    let _ = tempo.handle(
        1,
        Message::MPromises {
            detached: vec![PromiseRange::new(2, 5)],
            attached: vec![(unknown, 1)],
            executed: vec![],
            frontier: 0,
        },
        0,
    );
    // Process 2 promised everything up to 5.
    let _ = tempo.handle(
        2,
        Message::MPromises {
            detached: vec![],
            attached: vec![],
            executed: vec![],
            frontier: 5,
        },
        0,
    );
    // Prefixes: process 0 at 0, process 1 stuck at 0 behind the gated promise 1.
    assert_eq!(tempo.receipt_stable_timestamp(), 0);
    let cmd = Command::single(rifl(2, 1), 0, 7, KVOp::Put(1), 0);
    let _ = tempo.handle(
        2,
        Message::MPayload {
            dot: unknown,
            cmd,
            quorums: Quorums::from([(0, vec![2, 1])]),
        },
        0,
    );
    // The payload releases process 1's attached promise: its prefix jumps to 5.
    assert_eq!(tempo.receipt_stable_timestamp(), 5);
    // The commit-gated tracker still holds it back (the command is not committed).
    assert_eq!(tempo.stable_timestamp(), 0);
    // Only the commit-gated tracker leaves the process: the prefixes a rejoining peer
    // is seeded with still hold process 1 at 0.
    let acks: Vec<_> = tempo
        .handle(2, Message::MRejoin, 0)
        .into_iter()
        .filter_map(|action| match action {
            Action::Send {
                msg: Message::MRejoinAck { prefixes, .. },
                ..
            } => Some(prefixes),
            _ => None,
        })
        .collect();
    assert_eq!(acks.len(), 1);
    assert!(
        acks[0].contains(&(1, 0)),
        "shipped prefixes must be commit-gated: {:?}",
        acks[0]
    );
}
