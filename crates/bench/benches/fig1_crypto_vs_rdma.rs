//! **Figure 1** — throughput of the server-side decrypt+encrypt pass vs. the
//! raw 40 Gbit/s RDMA bandwidth, for buffer sizes 16 B – 32 KiB with 6 and
//! 12 threads.
//!
//! Paper observation: for small packets (≤ 1 KiB) the cryptographic
//! operations deliver ≈36 % less throughput than the RDMA line rate — the
//! motivation for offloading crypto to the clients (§2.4).
//!
//! The modelled curve comes from the cost model's AES-GCM constants (the
//! same constants every other experiment charges); alongside it we measure
//! this repository's *actual* software AES-GCM as a reference point.

use std::time::Instant;

use precursor_bench::{banner, print_table, write_csv, Scale};
use precursor_crypto::gcm::GcmKey;
use precursor_crypto::{Key128, Nonce12};
use precursor_sim::CostModel;

fn main() {
    let scale = Scale::from_env();
    banner(
        "Figure 1: crypto throughput vs 40 Gb RDMA line rate",
        "decrypt+encrypt ≤1 KiB is ~36% below the 40 Gb line; crosses near/above it ≥32 KiB",
        &scale,
    );

    let cost = CostModel::default();
    let sizes: [usize; 12] = [
        16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768,
    ];
    let line_rate_mb = cost.server_nic_gbps * 1e9 / 8.0 / 1e6;

    // Modelled throughput of one decrypt+encrypt pass per buffer.
    let modelled = |threads: f64, len: usize| -> f64 {
        let cycles = 2 * cost.aes_gcm(len).0; // decrypt then re-encrypt
        let ops_per_s = threads * cost.client_freq.hz() / cycles as f64;
        ops_per_s * len as f64 / 1e6
    };

    // Real software AES-GCM of this repository (reference; our cost model,
    // not this wall-clock number, drives the other figures), through one
    // expanded key as a session holds it.
    let real = |len: usize| -> f64 {
        let key = GcmKey::new(&Key128::from_bytes([7; 16]));
        let buf = vec![0xA5u8; len];
        let sealed = key.seal(&Nonce12::from_counter(0), &[], &buf);
        let iters = (scale.measure_ops as usize * 16 / (len / 16 + 1)).clamp(50, 20_000);
        let start = Instant::now();
        for i in 0..iters {
            let n = Nonce12::from_counter(i as u64 + 1);
            let pt = key
                .open(&Nonce12::from_counter(0), &[], &sealed)
                .expect("tag ok");
            let _ = key.seal(&n, &[], &pt);
        }
        let secs = start.elapsed().as_secs_f64();
        iters as f64 * len as f64 / secs / 1e6
    };

    let mut rows = Vec::new();
    for &len in &sizes {
        let t12 = modelled(12.0, len);
        let t6 = modelled(6.0, len);
        let deficit = (1.0 - t12 / line_rate_mb) * 100.0;
        rows.push(vec![
            format!("{len}"),
            format!("{t12:.0}"),
            format!("{t6:.0}"),
            format!("{line_rate_mb:.0}"),
            format!("{deficit:+.0}%"),
            format!("{:.0}", real(len)),
        ]);
    }
    print_table(
        &[
            "buffer(B)",
            "12thr MB/s",
            "6thr MB/s",
            "40Gb line MB/s",
            "12thr vs line",
            "sw-impl MB/s",
        ],
        &rows,
    );
    write_csv(
        "fig1_crypto_vs_rdma",
        &[
            "buffer_bytes",
            "mb_s_12thr",
            "mb_s_6thr",
            "line_mb_s",
            "deficit_pct",
            "sw_mb_s",
        ],
        &rows,
    );

    // Shape assertions mirroring the paper's claims.
    let below_1k = modelled(12.0, 1024) < line_rate_mb;
    let small_deficit = 1.0 - modelled(12.0, 256) / line_rate_mb;
    let big_ok = modelled(12.0, 32 * 1024) > line_rate_mb;
    println!();
    println!(
        "shape check: ≤1KiB below line rate: {below_1k}; 256B deficit {:.0}% (paper ~36%); \
         32KiB above line: {big_ok}",
        small_deficit * 100.0
    );
    assert!(below_1k && big_ok, "Figure 1 shape must hold");
}
