//! Layer probes for the traced run: each times one crate's public
//! functions directly, at the workload's own sizes.

use std::hint::black_box;
use std::time::Instant;

use precursor_crypto::{cmac, gcm, salsa20, Key128, Key256, Nonce12, Nonce8};
use precursor_sim::engine::EventQueue;
use precursor_sim::{Nanos, SimRng};
use precursor_storage::ring::{RingConsumer, RingProducer};
use precursor_storage::robinhood::RobinHoodMap;
use precursor_ycsb::workload::{key_bytes, OpGenerator};

use crate::stats::median;
use crate::trace::{Trace, ROOT};
use crate::workloads::Workload;

/// Control-frame plaintext size (oid, key length, 16 B key, one-time key
/// and nonce: 67 B for a put) and its AAD, rounded to the shape the probes
/// seal.
const CTRL_BYTES: usize = 64;
const CTRL_AAD: usize = 8;

/// Bulk size of the GCM throughput probe (the snapshot-seal shape).
const BULK_BYTES: usize = 1 << 20;

/// Probe results, ns per call unless noted.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// AES-GCM seal / open of one control frame.
    pub gcm_seal_ctrl_ns: f64,
    /// See `gcm_seal_ctrl_ns`.
    pub gcm_open_ctrl_ns: f64,
    /// Salsa20 keystream over one value.
    pub salsa20_value_ns: f64,
    /// AES-CMAC over one value.
    pub cmac_value_ns: f64,
    /// AES-GCM seal throughput over 1 MiB, MB/s.
    pub gcm_bulk_mb_s: f64,
    /// Robin Hood lookup at the workload's key count.
    pub table_get_ns: f64,
    /// Ring push + pop of one request frame.
    pub ring_push_pop_ns: f64,
    /// Event-queue pop + push with one pending event per client.
    pub queue_push_pop_ns: f64,
    /// One `OpGenerator::new` for the workload, µs.
    pub generator_new_us: f64,
}

/// Median over `reps` batches of ns per call of `f`, `iters` calls each.
fn time_ns(reps: usize, iters: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters.div_ceil(4) {
        f();
    }
    let per_call: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per_call)
}

/// Runs every probe, each under its own `probe.*` span.
pub fn run(w: &Workload, seed: u64, trace: &mut Trace) -> Probes {
    let mut rng = SimRng::seed_from(seed ^ 0x009B_0BE5);
    let mut p = Probes::default();
    let key = Key128::generate(&mut rng);
    let value_len = w.value_size();

    trace.scope("probe.crypto", ROOT, |_, _| {
        let ctrl = vec![0x5Au8; CTRL_BYTES];
        let aad = [0xA5u8; CTRL_AAD];
        let mut n = 0u64;
        p.gcm_seal_ctrl_ns = time_ns(5, 20_000, || {
            n += 1;
            black_box(gcm::seal(&key, &Nonce12::from_counter(n), &aad, &ctrl));
        });
        let nonce = Nonce12::from_counter(1);
        let sealed = gcm::seal(&key, &nonce, &aad, &ctrl);
        p.gcm_open_ctrl_ns = time_ns(5, 20_000, || {
            black_box(gcm::open(&key, &nonce, &aad, &sealed).expect("authentic"));
        });
        let k256 = Key256::generate(&mut rng);
        let n8 = Nonce8::generate(&mut rng);
        let mut value = vec![0x3Cu8; value_len];
        let iters = (2_000_000 / value_len as u64).max(200);
        p.salsa20_value_ns = time_ns(5, iters, || {
            salsa20::xor_keystream(&k256, &n8, 0, &mut value);
            black_box(&value);
        });
        p.cmac_value_ns = time_ns(5, iters, || {
            black_box(cmac::mac(&key, &value));
        });
        let bulk = vec![0x11u8; BULK_BYTES];
        let ns = time_ns(3, 4, || {
            n += 1;
            black_box(gcm::seal(&key, &Nonce12::from_counter(n), &[], &bulk));
        });
        p.gcm_bulk_mb_s = BULK_BYTES as f64 / ns * 1e3;
    });

    trace.scope("probe.storage", ROOT, |_, _| {
        let keys = w.keys();
        let mut table = RobinHoodMap::with_capacity(keys as usize);
        for id in 0..keys {
            table.insert(key_bytes(id), id);
        }
        let ids: Vec<[u8; 16]> = (0..4096).map(|_| key_bytes(rng.gen_range(keys))).collect();
        let mut i = 0usize;
        p.table_get_ns = time_ns(5, 100_000, || {
            i = (i + 1) & 4095;
            black_box(table.get(&ids[i]));
        });
        let cap = w.config().ring_bytes;
        let mut ring = vec![0u8; cap];
        let mut tx = RingProducer::new(cap);
        let mut rx = RingConsumer::new(cap);
        let frame = vec![7u8; w.frame_bytes().min(cap / 2)];
        p.ring_push_pop_ns = time_ns(5, 50_000, || {
            tx.push(&mut ring, &frame).expect("fits");
            black_box(rx.pop(&mut ring).expect("present"));
            tx.update_credits(rx.consumed());
        });
    });

    trace.scope("probe.sim", ROOT, |_, _| {
        let mut q: EventQueue<usize> = EventQueue::new();
        for c in 0..w.clients {
            q.push(Nanos(c as u64 * 120), c);
        }
        p.queue_push_pop_ns = time_ns(5, 100_000, || {
            let (t, c) = q.pop().expect("pending");
            q.push(t + Nanos(5_000 + (c as u64 & 1023)), c);
        });
    });

    trace.scope("probe.ycsb", ROOT, |_, _| {
        let spec = w.spec.clone();
        let t = Instant::now();
        black_box(OpGenerator::new(spec.clone(), SimRng::seed_from(1)));
        // Enough calls for ~20 ms, at least 5.
        let once = t.elapsed().as_nanos().max(1) as u64;
        let iters = (20_000_000 / once).clamp(5, 100_000);
        let mut s = 0u64;
        p.generator_new_us = time_ns(5, iters.div_ceil(5), || {
            s += 1;
            black_box(OpGenerator::new(spec.clone(), SimRng::seed_from(s)));
        }) / 1e3;
    });
    p
}
