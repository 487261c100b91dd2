//! Simulation-accounting tests: the cost meters, EPC working-set numbers
//! and counters that feed the paper's figures must behave sanely end to end.

use precursor::wire::Opcode;
use precursor::{Config, EncryptionMode, PrecursorClient, PrecursorServer};
use precursor_sim::meter::Stage;
use precursor_sim::{CostModel, Nanos};

fn setup(mode: EncryptionMode) -> (PrecursorServer, PrecursorClient) {
    let cost = CostModel::default();
    let config = Config {
        mode,
        ..Config::default()
    };
    let mut server = PrecursorServer::new(config, &cost);
    let client = PrecursorClient::connect(&mut server, 3).unwrap();
    (server, client)
}

#[test]
fn every_op_report_carries_time_charges() {
    let (mut server, mut client) = setup(EncryptionMode::ClientSide);
    client.put(b"k", b"some value").unwrap();
    server.poll();
    let reports = server.take_reports();
    assert_eq!(reports.len(), 1);
    let m = &reports[0].meter;
    assert!(m.get(Stage::Enclave) > Nanos::ZERO, "enclave work charged");
    assert!(
        m.get(Stage::ServerCritical) > Nanos::ZERO,
        "critical-path work charged"
    );
    assert!(
        m.get(Stage::ServerOverhead) > Nanos::ZERO,
        "fixed polling overhead charged"
    );
}

#[test]
fn client_meter_scales_with_value_size() {
    let (mut server, mut client) = setup(EncryptionMode::ClientSide);
    client.put_sync(&mut server, b"small", &[0u8; 16]).unwrap();
    let small = client.take_meter().get(Stage::ClientCpu);
    client
        .put_sync(&mut server, b"large", &[0u8; 16384])
        .unwrap();
    let large = client.take_meter().get(Stage::ClientCpu);
    assert!(
        large > small * 3,
        "client crypto must dominate for large values: {small} vs {large}"
    );
}

#[test]
fn server_critical_time_is_size_insensitive_in_client_mode() {
    // The paper's core claim: "the number of decrypted bytes remains
    // constant as the payload is pre-encrypted on the client-side" (§5.2).
    let (mut server, mut client) = setup(EncryptionMode::ClientSide);
    client.put_sync(&mut server, b"small", &[0u8; 16]).unwrap();
    client
        .put_sync(&mut server, b"large", &[0u8; 16384])
        .unwrap();
    server.take_reports();

    client.get(b"small").unwrap();
    server.poll();
    let small_report = server.take_reports().pop().unwrap();
    client.poll_replies();

    client.get(b"large").unwrap();
    server.poll();
    let large_report = server.take_reports().pop().unwrap();
    client.poll_replies();

    let small_enclave = small_report.meter.get(Stage::Enclave);
    let large_enclave = large_report.meter.get(Stage::Enclave);
    // Enclave time identical regardless of value size (control-only).
    let diff =
        large_enclave.saturating_sub(small_enclave) + small_enclave.saturating_sub(large_enclave);
    assert!(
        diff < Nanos(500),
        "enclave time should not scale with payload: {small_enclave} vs {large_enclave}"
    );
}

#[test]
fn server_encryption_enclave_time_scales_with_size() {
    let (mut server, mut client) = setup(EncryptionMode::ServerSide);
    client.put_sync(&mut server, b"small", &[0u8; 16]).unwrap();
    client
        .put_sync(&mut server, b"large", &[0u8; 16384])
        .unwrap();
    server.take_reports();

    client.get(b"small").unwrap();
    server.poll();
    let small_report = server.take_reports().pop().unwrap();
    client.poll_replies();

    client.get(b"large").unwrap();
    server.poll();
    let large_report = server.take_reports().pop().unwrap();
    client.poll_replies();

    assert!(
        large_report.meter.get(Stage::Enclave) > small_report.meter.get(Stage::Enclave) * 3,
        "server-encryption enclave time must grow with the payload"
    );
}

#[test]
fn working_set_grows_with_inserts_like_table_1() {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    let at_init = server.sgx_report().working_set_pages;
    assert_eq!(at_init, 52, "paper's 0-key row: 52 pages");

    let mut client = PrecursorClient::connect(&mut server, 1).unwrap();
    let at_zero = server.sgx_report().working_set_pages; // +1 page of client state

    client.put_sync(&mut server, b"first", &[0u8; 32]).unwrap();
    let at_one = server.sgx_report().working_set_pages;
    assert!(
        at_one > at_zero,
        "first insert touches auxiliary heap pages"
    );
    assert!(at_one < 100, "still tiny: {at_one} pages");

    for i in 0..5_000u32 {
        client
            .put_sync(&mut server, &i.to_le_bytes(), &[0u8; 32])
            .unwrap();
    }
    let at_5k = server.sgx_report().working_set_pages;
    assert!(at_5k > at_one);
    // Well under ShieldStore's static ≈17,392 pages.
    assert!(at_5k < 1_000, "5k keys working set: {at_5k} pages");
}

#[test]
fn transitions_stay_constant_under_request_load() {
    // R2: "costly enclave transitions should be avoided where possible" —
    // polling happens inside the enclave, so requests cause no ecalls.
    let (mut server, mut client) = setup(EncryptionMode::ClientSide);
    let before = server.sgx_report().transitions;
    for i in 0..100u32 {
        client
            .put_sync(&mut server, &i.to_le_bytes(), &[0u8; 32])
            .unwrap();
    }
    let after = server.sgx_report().transitions;
    // Only pool-growth ocalls may add transitions; with the default pool
    // none occur.
    assert_eq!(before, after, "no per-request enclave transitions");
}

#[test]
fn epc_faults_appear_when_table_exceeds_epc() {
    // Figure 7's dashed line: with enough keys the enclave table exceeds the
    // EPC and lookups start faulting. A tiny modelled EPC keeps the test
    // fast.
    let cost = CostModel {
        epc_usable_bytes: 256 * 1024, // 64 pages
        ..CostModel::default()
    };
    let config = Config::default();
    let mut server = PrecursorServer::new(config, &cost);
    let mut client = PrecursorClient::connect(&mut server, 1).unwrap();
    for i in 0..20_000u32 {
        client
            .put_sync(&mut server, &i.to_le_bytes(), &[0u8; 32])
            .unwrap();
    }
    let report = server.sgx_report();
    assert!(report.paging_expected(), "working set exceeds EPC");
    assert!(report.epc_faults > 0, "faults were charged");

    server.take_reports();
    client.get(&7u32.to_le_bytes()).unwrap();
    server.poll();
    let get_report = server.take_reports().pop().unwrap();
    client.poll_replies();
    // The get's meter may or may not fault depending on residency, but the
    // op must still succeed.
    assert_eq!(get_report.opcode, Opcode::Get);
}

#[test]
fn rdma_post_counters_track_messages() {
    let (mut server, mut client) = setup(EncryptionMode::ClientSide);
    client.put(b"k", b"v").unwrap();
    let m = client.take_meter();
    assert_eq!(m.counters().rdma_posts, 1);
    server.poll();
    let reports = server.take_reports();
    assert_eq!(reports[0].meter.counters().rdma_posts, 1, "one reply write");
}

#[test]
fn a_reply_that_wraps_the_ring_is_charged_one_post_per_write() {
    // A reply record that does not fit before the end of the client's
    // reply ring goes out as two WRITEs: the wrap marker at the tail and
    // the record at offset 0. At every shard count the meter charges one
    // post per WRITE actually issued, so `rdma_posts` matches the QP.
    for shards in [1usize, 4] {
        let cost = CostModel::default();
        let config = Config {
            ring_bytes: 1024,
            ..Config::sharded(shards)
        };
        let mut server = PrecursorServer::new(config, &cost);
        let mut client = PrecursorClient::connect(&mut server, 5).unwrap();
        for i in 0..40u8 {
            client.put_sync(&mut server, &[i], b"value").unwrap();
        }
        let posts: Vec<u64> = server
            .take_reports()
            .iter()
            .map(|r| r.meter.counters().rdma_posts)
            .collect();
        assert_eq!(posts.len(), 40);
        assert!(
            posts.iter().all(|&p| p == 1 || p == 2),
            "shards={shards}: one record is at most two WRITEs: {posts:?}"
        );
        assert!(
            posts.contains(&2),
            "shards={shards}: a wrapping reply is charged two posts: {posts:?}"
        );
    }
}

#[test]
fn deterministic_runs_produce_identical_reports() {
    let run = || {
        let (mut server, mut client) = setup(EncryptionMode::ClientSide);
        for i in 0..50u32 {
            client
                .put_sync(&mut server, &i.to_le_bytes(), &[(i % 251) as u8; 64])
                .unwrap();
        }
        client.get(&25u32.to_le_bytes()).unwrap();
        server.poll();
        let r = server.take_reports().pop().unwrap();
        client.poll_replies();
        (
            r.meter.get(Stage::Enclave),
            r.meter.get(Stage::ServerCritical),
            server.sgx_report().working_set_pages,
        )
    };
    assert_eq!(run(), run(), "simulation must be deterministic");
}
