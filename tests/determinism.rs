//! Determinism regression suite for the poll sweep.
//!
//! Every shard count runs one three-phase sweep, and `Config::shards == 1`
//! is its one-worker case: same seed → bit-identical fault log, adversary
//! log, per-op report stream and operation outcomes. The whole observable
//! run is folded into one FxHash digest (stable across platforms and
//! compiler versions, unlike `DefaultHasher`), compared between repeated
//! runs, between `Config::default()` and `Config::sharded(1)`, between
//! full-scan and dirty-ring sweeps, and against a golden constant —
//! recorded on the pre-sharding sequential loop — that pins today's
//! behaviour against future refactors.

use std::fmt::Write as _;

use precursor::{
    AdversaryPlan, AttackClass, ClusterClient, Config, FaultAction, FaultDir, FaultPlan, FaultSite,
    PrecursorClient, PrecursorCluster, PrecursorServer, RetryPolicy,
};
use precursor_sim::rng::SimRng;
use precursor_sim::CostModel;
use precursor_storage::stable_key_hash;

const OPS: u64 = 120;

// Scripted one-shot faults only (no probabilistic rates), so the schedule
// itself is trivially deterministic and the digest checks the *store's*
// event alignment: drops exercise the retransmission path, corrupt + the
// adversary exercise detection, delays exercise reordering tolerance.
fn fault_plan() -> FaultPlan {
    FaultPlan::none()
        .rule(FaultSite::Write, FaultDir::AtoB, FaultAction::Drop, 5)
        .rule(FaultSite::Write, FaultDir::BtoA, FaultAction::Drop, 11)
        .rule(FaultSite::Write, FaultDir::BtoA, FaultAction::Corrupt, 23)
        .rule(FaultSite::Write, FaultDir::AtoB, FaultAction::Drop, 41)
        .rule(FaultSite::Write, FaultDir::BtoA, FaultAction::Drop, 57)
}

// Tamper and Duplicate are the two attack classes a session survives
// without being poisoned (tampering is detected per read; duplicates are
// deduplicated by reply_seq), so the run still completes all OPS.
fn adversary_plan() -> AdversaryPlan {
    AdversaryPlan::none()
        .rule(AttackClass::Tamper, 9)
        .rule(AttackClass::Duplicate, 30)
}

// Runs the seeded single-client chaos workload and folds every observable
// output into one stable digest.
fn run_digest(config: Config, seed: u64) -> u64 {
    run_digest_with(config, seed, false)
}

fn run_digest_with(config: Config, seed: u64, journaled: bool) -> u64 {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(config, &cost);
    if journaled {
        // Immediate-mode local journal: every mutation seals and flushes
        // inline, so the group-commit gate never closes and the journal
        // layer draws no RNG — the run must stay bit-identical.
        let mut epoch_counter = precursor_sgx::counters::MonotonicCounter::new();
        server.attach_journal(
            precursor::GroupCommitPolicy::immediate(),
            &mut epoch_counter,
        );
    }
    server.set_fault_plan(fault_plan(), seed);
    server.set_adversary_plan(adversary_plan(), seed ^ 0xad);
    // Tracing on: the observability taps must be invisible to the run's
    // observable behaviour (no RNG draws, no meter charges) — the golden
    // digest below holds with the tracer recording every event.
    server.enable_tracing(256);
    let mut client = PrecursorClient::connect(&mut server, seed ^ 0xc11e).expect("connect");
    client.enable_tracing(256);
    // Jitter multiplies retry backoff through floating point; zero keeps
    // the virtual timeline free of platform-variant libm rounding.
    client.set_retry_policy(RetryPolicy {
        jitter: 0.0,
        ..RetryPolicy::default()
    });

    let mut rng = SimRng::seed_from(seed ^ 0x5eed);
    let mut trace = String::new();
    for i in 0..OPS {
        let key = [(rng.gen_range(24)) as u8];
        let outcome = match rng.gen_range(3) {
            0 => {
                let mut v = vec![0u8; 1 + rng.gen_range(96) as usize];
                rng.fill_bytes(&mut v);
                format!("{:?}", client.put_sync(&mut server, &key, &v))
            }
            1 => format!("{:?}", client.get_sync(&mut server, &key)),
            _ => format!("{:?}", client.delete_sync(&mut server, &key)),
        };
        let _ = write!(trace, "op{i}:{outcome};");
    }

    let _ = write!(trace, "faults:{:?};", server.fault_log());
    let _ = write!(trace, "attacks:{:?};", server.adversary_log());
    for r in server.take_reports() {
        let _ = write!(
            trace,
            "report:{}:{:?}:{:?}:{}:{};",
            r.client_id, r.opcode, r.status, r.value_len, r.shard
        );
    }
    let _ = write!(
        trace,
        "credits:{};handoffs:{};len:{}",
        server.credit_writes(),
        server.handoffs(),
        server.len()
    );
    stable_key_hash(&trace)
}

#[test]
fn same_seed_reproduces_bit_identically() {
    for seed in [3u64, 7, 1337] {
        let a = run_digest(Config::default(), seed);
        let b = run_digest(Config::default(), seed);
        assert_eq!(a, b, "seed {seed} must replay bit-identically");
    }
}

#[test]
fn sharded_one_is_the_default_code_path() {
    for seed in [3u64, 7, 1337] {
        assert_eq!(
            run_digest(Config::default(), seed),
            run_digest(Config::sharded(1), seed),
            "Config::sharded(1) must be indistinguishable from the default"
        );
    }
}

#[test]
fn single_shard_chaos_run_matches_golden_digest() {
    // Golden value of the shards=1 run at seed 7, recorded on the
    // pre-sharding sequential polling loop and reproduced by the
    // one-worker case of the three-phase sweep. A change here means seeded
    // single-shard runs no longer pop, seal and post in that order —
    // either an intended behaviour change (re-record the constant and say
    // so in the commit) or an accidental break (fix it).
    const GOLDEN: u64 = 12_986_051_342_204_127_709;
    assert_eq!(run_digest(Config::default(), 7), GOLDEN);
}

#[test]
fn journaled_run_matches_golden_digest() {
    // Attaching an immediate-mode sealed journal must be invisible to the
    // run's observable behaviour: journal appends draw no RNG, flush inline
    // (gate never closes), and durable-fault sites filter rates by site
    // before touching the fault RNG stream.
    const GOLDEN: u64 = 12_986_051_342_204_127_709;
    assert_eq!(run_digest_with(Config::default(), 7, true), GOLDEN);
}

#[test]
fn journal_replay_reproduces_the_golden_run_state() {
    // Re-run the golden workload journaled, then rebuild a server from the
    // journal bytes alone: replay must reconstruct the store bit-identically
    // (mutation sequence, state digest, live keys).
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    let mut epoch_counter = precursor_sgx::counters::MonotonicCounter::new();
    server.attach_journal(
        precursor::GroupCommitPolicy::immediate(),
        &mut epoch_counter,
    );
    server.set_fault_plan(fault_plan(), 7);
    server.set_adversary_plan(adversary_plan(), 7 ^ 0xad);
    let mut client = PrecursorClient::connect(&mut server, 7 ^ 0xc11e).expect("connect");
    client.set_retry_policy(RetryPolicy {
        jitter: 0.0,
        ..RetryPolicy::default()
    });
    let mut rng = SimRng::seed_from(7 ^ 0x5eed);
    for _ in 0..OPS {
        let key = [(rng.gen_range(24)) as u8];
        match rng.gen_range(3) {
            0 => {
                let mut v = vec![0u8; 1 + rng.gen_range(96) as usize];
                rng.fill_bytes(&mut v);
                let _ = client.put_sync(&mut server, &key, &v);
            }
            1 => {
                let _ = client.get_sync(&mut server, &key);
            }
            _ => {
                let _ = client.delete_sync(&mut server, &key);
            }
        }
    }

    let journal = server.journal_durable().expect("journal attached").to_vec();
    let snap_counter = precursor_sgx::counters::MonotonicCounter::new();
    let (recovered, report) = PrecursorServer::recover(
        Config::default(),
        &cost,
        None,
        &snap_counter,
        &journal,
        &epoch_counter,
    )
    .expect("golden journal replays");
    assert!(!report.truncated, "healthy journal has no torn tail");
    assert_eq!(recovered.mutation_seq(), server.mutation_seq());
    assert_eq!(recovered.state_digest(), server.state_digest());
    assert_eq!(recovered.len(), server.len());
}

#[test]
fn dirty_sweep_single_shard_matches_golden_digest() {
    // Doorbell-driven sweeps (`dirty_ring_sweep`) change which rings a
    // poll *visits*, never what happens to a visited ring: records pop in
    // the same order, credits flush at the same polls (an elided client
    // sits in `credit_pending` and gets exactly the idle visit the full
    // scan would have given it), and fault-dropped doorbells are covered
    // by the client's retransmission. The whole chaos run must therefore
    // stay bit-identical to the full-scan golden digest.
    const GOLDEN: u64 = 12_986_051_342_204_127_709;
    let config = Config {
        dirty_ring_sweep: true,
        ..Config::default()
    };
    assert_eq!(run_digest(config, 7), GOLDEN);
}

#[test]
fn dirty_sweep_sharded_runs_reproduce_per_seed() {
    for shards in [2usize, 4] {
        let config = || Config {
            dirty_ring_sweep: true,
            ..Config::sharded(shards)
        };
        let a = run_digest(config(), 21);
        let b = run_digest(config(), 21);
        assert_eq!(a, b, "dirty sweeps at shards={shards} must replay");
        assert_eq!(
            run_digest(config(), 22),
            run_digest(config(), 22),
            "dirty sweeps at shards={shards} must replay (seed 22)"
        );
    }
}

// The cluster flavour of `run_digest`: the identical seeded workload
// driven through `PrecursorCluster` + `ClusterClient`. With a mid-run
// migration when `migrate` is set (nodes ≥ 2), exercising the NotMine
// redirect path inside the digested run.
fn cluster_run_digest(nodes: usize, seed: u64, migrate: bool) -> u64 {
    let cost = CostModel::default();
    let mut cluster = PrecursorCluster::new(nodes, Config::default(), &cost);
    cluster.node_mut(0).set_fault_plan(fault_plan(), seed);
    cluster
        .node_mut(0)
        .set_adversary_plan(adversary_plan(), seed ^ 0xad);
    cluster.node_mut(0).enable_tracing(256);
    let mut client = ClusterClient::connect(&mut cluster, seed ^ 0xc11e).expect("connect");
    client.enable_tracing(256);
    client.set_retry_policy(RetryPolicy {
        jitter: 0.0,
        ..RetryPolicy::default()
    });

    let mut rng = SimRng::seed_from(seed ^ 0x5eed);
    let mut trace = String::new();
    for i in 0..OPS {
        if migrate && i == OPS / 3 {
            let hot = [0u8];
            let from = cluster.meta().lookup(&hot).0;
            let to = (from + 1) % nodes as u16;
            cluster.start_migration(&hot, to).expect("start");
        }
        if migrate && i % 7 == 0 {
            let outcome = cluster.pump_migration(3);
            let _ = write!(trace, "mig{i}:{outcome:?};");
        }
        let key = [(rng.gen_range(24)) as u8];
        let outcome = match rng.gen_range(3) {
            0 => {
                let mut v = vec![0u8; 1 + rng.gen_range(96) as usize];
                rng.fill_bytes(&mut v);
                format!("{:?}", client.put_sync(&mut cluster, &key, &v))
            }
            1 => format!("{:?}", client.get_sync(&mut cluster, &key)),
            _ => format!("{:?}", client.delete_sync(&mut cluster, &key)),
        };
        let _ = write!(trace, "op{i}:{outcome};");
    }

    let _ = write!(trace, "faults:{:?};", cluster.node(0).fault_log());
    let _ = write!(trace, "attacks:{:?};", cluster.node(0).adversary_log());
    for n in 0..nodes {
        for r in cluster.node_mut(n).take_reports() {
            let _ = write!(
                trace,
                "report:{}:{:?}:{:?}:{}:{};",
                r.client_id, r.opcode, r.status, r.value_len, r.shard
            );
        }
    }
    let _ = write!(
        trace,
        "credits:{};handoffs:{};len:{}",
        cluster.node(0).credit_writes(),
        cluster.node(0).handoffs(),
        cluster.node(0).len()
    );
    if nodes > 1 {
        // Cluster-only observables (absent from the nodes=1 trace, which
        // must stay byte-identical to the single-server golden trace).
        let stats = client.stats();
        let _ = write!(
            trace,
            ";redirects:{};refreshes:{};epoch:{}",
            stats.redirects,
            stats.refreshes,
            cluster.meta().ring().epoch()
        );
    }
    stable_key_hash(&trace)
}

#[test]
fn single_node_cluster_matches_the_single_server_golden_digest() {
    // The whole cluster plane — routing gate installed on the node, the
    // location cache, the ClusterClient facade — must be invisible when
    // one node owns the whole ring: bit-identical to the shards=1 golden
    // digest recorded before the cluster existed.
    const GOLDEN: u64 = 12_986_051_342_204_127_709;
    assert_eq!(cluster_run_digest(1, 7, false), GOLDEN);
}

#[test]
fn cluster_runs_reproduce_per_seed() {
    // Multi-node runs (with a migration in flight) make no bit-identity
    // promise across node counts, but any fixed (nodes, seed) pair must
    // replay exactly.
    for nodes in [2usize, 4] {
        for seed in [21u64, 22] {
            assert_eq!(
                cluster_run_digest(nodes, seed, true),
                cluster_run_digest(nodes, seed, true),
                "nodes={nodes} seed={seed} must replay bit-identically"
            );
        }
    }
}

#[test]
fn multi_shard_chaos_runs_reproduce_per_seed() {
    // Sharded mode makes no bit-identity promise *across* shard counts,
    // but any fixed (shards, seed) pair must still replay exactly.
    for shards in [2usize, 4] {
        let a = run_digest(Config::sharded(shards), 21);
        let b = run_digest(Config::sharded(shards), 21);
        assert_eq!(a, b, "shards={shards} must replay bit-identically");
    }
}

const MULTI_CLIENTS: usize = 6;
const MULTI_ROUNDS: usize = 12;

// A multi-client flavour of `run_digest`: six clients pipeline up to three
// puts and gets each per round (some rings stay idle, some carry a run),
// optionally under the scripted fault plan, and every observable output is
// folded into one digest. Meters are left out: they are cost attribution.
fn multi_client_digest(config: Config, seed: u64, faulty: bool) -> u64 {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(config, &cost);
    if faulty {
        server.set_fault_plan(fault_plan(), seed);
    }
    let retry = RetryPolicy {
        jitter: 0.0,
        ..RetryPolicy::default()
    };
    let mut clients: Vec<PrecursorClient> = (0..MULTI_CLIENTS as u64)
        .map(|i| {
            let mut c =
                PrecursorClient::connect(&mut server, seed ^ ((i + 1) << 16)).expect("connect");
            c.set_retry_policy(retry);
            c
        })
        .collect();
    let mut rng = SimRng::seed_from(seed ^ 0x6c1e);
    let mut trace = String::new();
    for round in 0..MULTI_ROUNDS {
        for (c, client) in clients.iter_mut().enumerate() {
            for _ in 0..rng.gen_range(4) {
                let key = [rng.gen_range(16) as u8];
                let sent = if rng.gen_range(2) == 0 {
                    let mut v = vec![0u8; 1 + rng.gen_range(64) as usize];
                    rng.fill_bytes(&mut v);
                    client.put(&key, &v)
                } else {
                    client.get(&key)
                };
                let _ = write!(trace, "r{round}c{c}:{sent:?};");
            }
        }
        // Drain the round: sweep, let every client consume its replies,
        // and let virtual time pass toward the retransmission deadlines.
        let mut steps = 0;
        loop {
            let n = server.poll();
            for client in clients.iter_mut() {
                client.poll_replies();
            }
            if clients.iter().all(|c| c.in_flight() == 0) {
                break;
            }
            if n == 0 {
                for client in clients.iter_mut() {
                    let _ = client.advance(retry.per_try_timeout / 4);
                }
            }
            steps += 1;
            assert!(steps < 10_000, "round {round} must drain");
        }
        for (c, client) in clients.iter_mut().enumerate() {
            for comp in client.take_all_completed() {
                let _ = write!(
                    trace,
                    "c{c}:oid{}:{:?}:{:?}:{:?};",
                    comp.oid, comp.status, comp.value, comp.error
                );
            }
        }
    }
    let faults = server.fault_log();
    assert_eq!(faulty, !faults.is_empty(), "the fault plan must fire");
    let _ = write!(trace, "faults:{faults:?};");
    for r in server.take_reports() {
        let _ = write!(
            trace,
            "report:{}:{:?}:{:?}:{}:{};",
            r.client_id, r.opcode, r.status, r.value_len, r.shard
        );
    }
    let _ = write!(
        trace,
        "credits:{};handoffs:{};len:{}",
        server.credit_writes(),
        server.handoffs(),
        server.len()
    );
    stable_key_hash(&trace)
}

#[test]
fn dirty_and_full_scan_sweeps_agree_for_many_clients() {
    // Both visit sources share one order: worker `w` walks the positions
    // of its clients `w + p·shards` from a cursor that advances once per
    // poll, and the dirty set only filters that order. So a sweep that
    // skips idle rings serves the busy ones exactly as the full scan does.
    // Equality is a property of the default knobs: with an adaptive
    // budget the full scan's idle visits halve a ring's budget, which
    // dirty sweeps never make, and the runs may then diverge.
    for shards in [1usize, 2, 4] {
        for seed in [21u64, 22, 23] {
            for faulty in [false, true] {
                let config = |dirty_ring_sweep| Config {
                    dirty_ring_sweep,
                    ..Config::sharded(shards)
                };
                assert_eq!(
                    multi_client_digest(config(false), seed, faulty),
                    multi_client_digest(config(true), seed, faulty),
                    "shards={shards} seed={seed} faulty={faulty}: \
                     dirty sweeps must serve rings in the full-scan order"
                );
            }
        }
    }
}
