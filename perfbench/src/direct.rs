//! Wall-clock phase: builds the system and drives it directly through the
//! public `TrustedKv` calls, one closed-loop op at a time, checking every
//! reply against the acknowledged history.

use std::ops::Range;
use std::time::{Duration, Instant};

use precursor::backend::{KvOp, KvStatus, PrecursorBackend, TrustedKv};
use precursor::{CompactOutcome, GroupCommitPolicy, PrecursorServer};
use precursor_obs::MetricsRegistry;
use precursor_sgx::counters::MonotonicCounter;
use precursor_sim::{CostModel, SimRng};
use precursor_ycsb::workload::{key_bytes, value_bytes, OpGenerator, OpKind};

use crate::stats::percentile;
use crate::trace::{Trace, ROOT};
use crate::workloads::Workload;

/// Server sweeps an op may take before it counts as lost. A journaled put
/// is released by the sweep after its group flushes, so two suffice; the
/// rest is slack.
const MAX_SWEEPS: usize = 16;

/// Ops between checks of the wall-clock deadline.
const DEADLINE_STRIDE: u64 = 64;

/// Ops between drains of the server's per-op report buffer (bounded at
/// 65,536 entries; the direct loop does not use the reports).
const REPORT_DRAIN: u64 = 1024;

/// In the traced run, traced and untraced chunks of this many ops
/// alternate, so the tracing overhead is measured on the same host period.
const TRACE_CHUNK: u64 = 512;

/// Ops per window (about 60 ms at ~30 µs per op).
const WINDOW_OPS: u64 = 2048;

/// Share of the windows, fastest first, that the wall metrics read.
const QUIET_SHARE: f64 = 0.1;

/// A built system plus the loop's op stream and the state the checks need.
pub struct Direct {
    kv: PrecursorBackend,
    epoch_counter: MonotonicCounter,
    snap_counter: MonotonicCounter,
    snapshot: Option<Vec<u8>>,
    // Version of the last acknowledged put per key (0 = the loaded value).
    acked: Vec<u64>,
    next_version: u64,
    gen: OpGenerator,
    next_client: usize,
    // Get latencies of the current trace chunk (traced run only).
    chunk_gets: Vec<u64>,
}

/// One measurement window of [`WINDOW_OPS`] consecutive ops, or of one
/// compaction cycle.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Ops completed in the window.
    pub ops: u64,
    /// Wall time of the window, ns.
    pub wall_ns: u64,
    /// The window's samples in [`LoopResult::get_ns`].
    pub gets: Range<usize>,
    /// The window's samples in [`LoopResult::put_ns`].
    pub puts: Range<usize>,
}

impl Window {
    fn rate(&self) -> f64 {
        self.ops as f64 * 1e9 / self.wall_ns.max(1) as f64
    }
}

/// Everything the direct loop measured.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Ops attempted.
    pub ops: u64,
    /// Ops that failed: submit error, non-`Ok` status, lost, or a wrong
    /// value.
    pub failed: u64,
    /// Gets that returned something other than the last acknowledged put.
    pub wrong: u64,
    /// Wall seconds the loop ran, over all its segments.
    pub wall_s: f64,
    /// Completed windows (a segment's trailing partial one is dropped).
    pub windows: Vec<Window>,
    /// Durable workload: completed compaction cycles, each the ops since
    /// the previous compaction plus the compaction itself, so each carries
    /// compaction work in its steady-state proportion.
    pub cycles: Vec<Window>,
    /// Per-op wall latency of untraced gets, ns, in issue order.
    pub get_ns: Vec<u64>,
    /// Per-op wall latency of untraced puts, ns, in issue order.
    pub put_ns: Vec<u64>,
    /// Traced run only: `(traced, get p50 ns)` per chunk, in order.
    pub chunk_get_p50: Vec<(bool, f64)>,
    /// Traced run only: whether op id `i + 1` was a put.
    pub op_is_put: Vec<bool>,
    /// Puts attempted.
    pub puts: u64,
    /// Compactions performed and their summed wall time.
    pub compactions: u64,
    /// See `compactions`.
    pub compact_ns: u64,
    /// Bytes of the sealed snapshots compaction produced.
    pub snapshot_bytes: u64,
    /// Server counter deltas over the loop.
    pub rings_swept: u64,
    /// See `rings_swept`.
    pub handoffs: u64,
    /// See `rings_swept`.
    pub credit_writes: u64,
    /// Journal group flushes and sealed bytes over the loop.
    pub journal_flushes: u64,
    /// See `journal_flushes`.
    pub journal_bytes: u64,
    /// Client state-machine counters over the loop.
    pub verify_fail: u64,
    /// See `verify_fail`.
    pub retransmits: u64,
}

impl LoopResult {
    /// Whether the op with this span id was a put (`Some(true)`) or a get
    /// (`Some(false)`); `None` outside the traced run's ops.
    pub fn is_put(&self, op: u64) -> Option<bool> {
        let i = usize::try_from(op).ok()?.checked_sub(1)?;
        self.op_is_put.get(i).copied()
    }

    /// Ops per wall second over the quiet compaction cycles on the durable
    /// workload, else over the quiet windows.
    pub fn quiet_ops_per_s(&self) -> f64 {
        let q = quiet(if self.cycles.is_empty() {
            &self.windows
        } else {
            &self.cycles
        });
        let ops: u64 = q.iter().map(|w| w.ops).sum();
        let ns: u64 = q.iter().map(|w| w.wall_ns).sum();
        ops as f64 * 1e9 / ns.max(1) as f64
    }

    /// Percentile `p` of untraced put (or get) latency over the quiet
    /// windows, ns.
    pub fn quiet_percentile(&self, puts: bool, p: f64) -> f64 {
        let mut samples: Vec<u64> = quiet(&self.windows)
            .into_iter()
            .flat_map(|w| {
                if puts {
                    &self.put_ns[w.puts.clone()]
                } else {
                    &self.get_ns[w.gets.clone()]
                }
            })
            .copied()
            .collect();
        percentile(&mut samples, p)
    }
}

/// The fastest tenth of `windows` (at least one). Shared hosts slow every
/// op by up to 2x in bursts from milliseconds to minutes long, so the wall
/// metrics read the run's least-disturbed windows: the steady cost of the
/// code itself.
pub fn quiet(windows: &[Window]) -> Vec<&Window> {
    let mut w: Vec<&Window> = windows.iter().collect();
    w.sort_by(|a, b| b.rate().total_cmp(&a.rate()));
    let keep = ((w.len() as f64 * QUIET_SHARE).ceil() as usize).max(1);
    w.truncate(keep);
    w
}

/// Builds the server, attests and connects every client, and loads the
/// keyspace, recording `setup.connect` / `setup.load` spans under `parent`.
pub fn setup(
    w: &Workload,
    seed: u64,
    cost: &CostModel,
    trace: &mut Trace,
    parent: u32,
) -> Result<Direct, String> {
    let mut kv = PrecursorBackend::new(w.config(), cost);
    let mut epoch_counter = MonotonicCounter::new();
    if w.durable {
        // Attached by hand (not `enable_durability`) so the benchmark owns
        // the trusted counters the restart check recovers with.
        kv.server_mut()
            .attach_journal(GroupCommitPolicy::batched(32, 0), &mut epoch_counter);
    }
    trace.scope("setup.connect", parent, |_, _| {
        for i in 0..w.clients {
            kv.connect(seed ^ ((i as u64) << 8))
                .map_err(|e| format!("connect client {i}: {e:?}"))?;
        }
        Ok::<(), String>(())
    })?;
    let mut d = Direct {
        kv,
        epoch_counter,
        snap_counter: MonotonicCounter::new(),
        snapshot: None,
        acked: vec![0; w.keys() as usize],
        next_version: 1,
        gen: OpGenerator::new(w.spec.clone(), SimRng::seed_from(seed ^ 0xD1EC_7000)),
        next_client: 0,
        chunk_gets: Vec::with_capacity(TRACE_CHUNK as usize),
    };
    trace.scope("setup.load", parent, |_, _| d.load(w))?;
    Ok(d)
}

impl Direct {
    // Bulk load: every client puts one record per round, then the server
    // sweeps until every reply is back.
    fn load(&mut self, w: &Workload) -> Result<(), String> {
        let size = w.value_size();
        let mut id = 0u64;
        while id < w.keys() {
            let round = (w.keys() - id).min(w.clients as u64) as usize;
            for c in 0..round {
                let k = id + c as u64;
                self.kv
                    .submit(c, KvOp::Put, &key_bytes(k), &value_bytes(k, 0, size))
                    .map_err(|e| format!("load put {k}: {e:?}"))?;
            }
            let mut done = 0;
            for _ in 0..MAX_SWEEPS {
                self.kv.poll();
                for c in 0..round {
                    self.kv.poll_replies(c);
                    for r in self.kv.take_completed(c) {
                        if r.status != KvStatus::Ok {
                            return Err(format!("load put failed: {:?}", r.status));
                        }
                        done += 1;
                    }
                }
                if done == round {
                    break;
                }
            }
            if done != round {
                return Err(format!("load lost {} replies", round - done));
            }
            self.kv.take_reports();
            id += round as u64;
        }
        Ok(())
    }

    /// The backend under test.
    pub fn kv(&self) -> &PrecursorBackend {
        &self.kv
    }

    fn server(&self) -> &PrecursorServer {
        self.kv.server()
    }

    /// Runs the closed loop for `seconds` of wall time, adding to `res`; a
    /// later call continues the same op stream. Ops come from one seeded
    /// generator and rotate over the clients, so every client waits for its
    /// reply before its next op. With tracing on, traced and untraced
    /// chunks alternate and only traced chunks record spans.
    pub fn run(&mut self, w: &Workload, seconds: f64, trace: &mut Trace, res: &mut LoopResult) {
        let size = w.value_size();
        let keys = w.keys();
        let before = self.counters();
        let windows_before = res.windows.len();
        let deadline = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        let mut window = Window {
            gets: res.get_ns.len()..res.get_ns.len(),
            puts: res.put_ns.len()..res.put_ns.len(),
            ..Window::default()
        };
        let mut window_start = start;
        let (mut cycle_ops, mut cycle_start) = (0u64, start);
        let mut segment_ops = 0u64;
        loop {
            if segment_ops.is_multiple_of(DEADLINE_STRIDE) && start.elapsed() >= deadline {
                break;
            }
            if res.ops.is_multiple_of(REPORT_DRAIN) {
                self.kv.take_reports();
            }
            // An op records 2 + 2 x sweeps + 1 spans at most.
            trace.reserve(2 * MAX_SWEEPS + 4);
            let (kind, id) = self.gen.next_op();
            let c = self.next_client;
            self.next_client = (c + 1) % w.clients;
            let traced = trace.on() && (res.ops / TRACE_CHUNK) % 2 == 1;
            res.ops += 1;
            segment_ops += 1;
            let key = key_bytes(id);
            let (op, version, value) = match kind {
                OpKind::Read => (KvOp::Get, 0, Vec::new()),
                OpKind::Update => {
                    let v = self.next_version;
                    self.next_version += 1;
                    res.puts += 1;
                    (KvOp::Put, v, value_bytes(id, v, size))
                }
            };

            // --- the measured op ---
            let t0 = Instant::now();
            let op_span = if traced {
                trace.open("op", res.ops, ROOT, t0)
            } else {
                ROOT
            };
            let submitted = self.kv.submit(c, op, &key, &value);
            if traced {
                trace.record("client.submit", res.ops, op_span, t0, Instant::now());
            }
            let mut done = None;
            if let Ok(oid) = submitted {
                for _ in 0..MAX_SWEEPS {
                    let a = traced.then(Instant::now);
                    self.kv.poll();
                    let b = traced.then(Instant::now);
                    self.kv.poll_replies(c);
                    let got = self.kv.take_completed(c);
                    if let (Some(a), Some(b)) = (a, b) {
                        trace.record("server.poll", res.ops, op_span, a, b);
                        trace.record("client.reply", res.ops, op_span, b, Instant::now());
                    }
                    if let Some(r) = got.into_iter().find(|r| r.oid == oid) {
                        done = Some(r);
                        break;
                    }
                }
            }
            let mut compacted = false;
            if w.durable && op == KvOp::Put {
                let s = self.server();
                if s.journal_last_seq() - s.journal_base_seq() >= keys {
                    let a = Instant::now();
                    let out = self.kv.server_mut().compact_journal(&mut self.snap_counter);
                    let b = Instant::now();
                    trace.record("journal.compact", res.ops, op_span, a, b);
                    if let CompactOutcome::Compacted { snapshot, .. } = out {
                        compacted = true;
                        res.compactions += 1;
                        res.compact_ns += (b - a).as_nanos() as u64;
                        res.snapshot_bytes += snapshot.len() as u64;
                        self.snapshot = Some(snapshot);
                    }
                }
            }
            let end = Instant::now();
            trace.close(op_span, end);
            let lat = (end - t0).as_nanos() as u64;

            // --- bookkeeping and checks, outside the op ---
            window.ops += 1;
            match (op, traced) {
                (_, true) => {}
                (KvOp::Get, false) => res.get_ns.push(lat),
                (_, false) => res.put_ns.push(lat),
            }
            if trace.on() {
                res.op_is_put.push(op == KvOp::Put);
                if op == KvOp::Get {
                    self.chunk_gets.push(lat);
                }
                if res.ops.is_multiple_of(TRACE_CHUNK) {
                    let p50 = percentile(&mut self.chunk_gets, 50.0);
                    res.chunk_get_p50.push((traced, p50));
                    self.chunk_gets.clear();
                }
            }
            cycle_ops += 1;
            if compacted {
                res.cycles.push(Window {
                    ops: cycle_ops,
                    wall_ns: (end - cycle_start).as_nanos() as u64,
                    ..Window::default()
                });
                (cycle_ops, cycle_start) = (0, end);
            }
            if window.ops == WINDOW_OPS {
                window.wall_ns = (end - window_start).as_nanos() as u64;
                window.gets.end = res.get_ns.len();
                window.puts.end = res.put_ns.len();
                window_start = end;
                let next = Window {
                    gets: window.gets.end..window.gets.end,
                    puts: window.puts.end..window.puts.end,
                    ..Window::default()
                };
                res.windows.push(std::mem::replace(&mut window, next));
            }
            let ok = match done {
                Some(r) if r.status == KvStatus::Ok => match op {
                    KvOp::Put => {
                        self.acked[id as usize] = version;
                        true
                    }
                    _ => {
                        let right = r.value.as_deref()
                            == Some(&value_bytes(id, self.acked[id as usize], size)[..]);
                        res.wrong += u64::from(!right);
                        right
                    }
                },
                _ => false,
            };
            res.failed += u64::from(!ok);
        }
        res.wall_s += start.elapsed().as_secs_f64();
        if res.windows.len() == windows_before {
            // Too short a segment for one whole window: keep the partial one.
            window.wall_ns = window_start.elapsed().as_nanos() as u64;
            window.gets.end = res.get_ns.len();
            window.puts.end = res.put_ns.len();
            res.windows.push(window);
        }
        self.kv.take_reports();
        let after = self.counters();
        res.rings_swept += after.rings_swept - before.rings_swept;
        res.handoffs += after.handoffs - before.handoffs;
        res.credit_writes += after.credit_writes - before.credit_writes;
        res.journal_flushes += after.journal_flushes - before.journal_flushes;
        res.journal_bytes += after.journal_bytes - before.journal_bytes;
        res.verify_fail += after.verify_fail - before.verify_fail;
        res.retransmits += after.retransmits - before.retransmits;
    }

    fn counters(&self) -> Counters {
        let s = self.server();
        let m: MetricsRegistry = self.kv.metrics();
        let j = s.journal_stats().unwrap_or_default();
        Counters {
            rings_swept: s.rings_swept(),
            handoffs: s.handoffs(),
            credit_writes: s.credit_writes(),
            journal_flushes: j.flushes,
            journal_bytes: j.bytes_sealed,
            verify_fail: m.counter("client.verify_fail"),
            retransmits: m.counter("client.retransmits"),
        }
    }

    /// Restart check: rebuilds a server from the last compaction snapshot
    /// plus the durable journal suffix, with the benchmark's own trusted
    /// counters, and compares its state digest with the live server's.
    /// Returns the recovery wall time in seconds.
    pub fn restart_check(&self, cost: &CostModel) -> Result<f64, String> {
        let live = self.server();
        let journal = live.journal_durable().ok_or("no journal attached")?;
        let base_chain = live
            .journal_base_chain()
            .unwrap_or_else(|| precursor_journal::genesis_chain(self.epoch_counter.read()));
        let t = Instant::now();
        let (recovered, _) = PrecursorServer::recover_with_base(
            live.config().clone(),
            cost,
            self.snapshot.as_deref(),
            &self.snap_counter,
            journal,
            live.journal_base_seq(),
            base_chain,
            &self.epoch_counter,
        )
        .map_err(|e| format!("recovery failed: {e:?}"))?;
        let secs = t.elapsed().as_secs_f64();
        if recovered.state_digest() != live.state_digest() {
            return Err("recovered state digest differs from the live server".into());
        }
        Ok(secs)
    }
}

struct Counters {
    rings_swept: u64,
    handoffs: u64,
    credit_writes: u64,
    journal_flushes: u64,
    journal_bytes: u64,
    verify_fail: u64,
    retransmits: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::small;

    fn built(name: &str, keys: u64) -> Direct {
        let w = small(name, keys);
        setup(&w, 5, &CostModel::default(), &mut Trace::new(false), ROOT).expect("set-up")
    }

    #[test]
    fn loop_is_clean_and_its_value_check_can_fail() {
        let w = small("paper-b32", 500);
        let mut d = built("paper-b32", 500);
        let mut r = LoopResult::default();
        d.run(&w, 0.2, &mut Trace::new(false), &mut r);
        assert!(r.ops > 0 && r.puts > 0);
        assert_eq!((r.failed, r.wrong, r.verify_fail), (0, 0, 0));
        // Forget every acknowledged put: gets now disagree with the model.
        d.acked.iter_mut().for_each(|v| *v = u64::MAX);
        d.run(&w, 0.2, &mut Trace::new(false), &mut r);
        assert!(
            r.wrong > 0 && r.failed >= r.wrong,
            "{} {}",
            r.wrong,
            r.failed
        );
    }

    #[test]
    fn restart_check_needs_the_snapshot_it_recovers_from() {
        let w = small("durable-a1k", 200);
        let mut d = built("durable-a1k", 200);
        let mut r = LoopResult::default();
        d.run(&w, 0.3, &mut Trace::new(false), &mut r);
        assert_eq!(r.failed, 0);
        assert!(r.compactions > 0, "no compaction in {} ops", r.ops);
        assert!(r.windows.iter().all(|win| win.ops > 0));
        assert_eq!(r.cycles.len() as u64, r.compactions);
        let cost = CostModel::default();
        d.restart_check(&cost)
            .expect("recovered digest equals live");
        // Without the snapshot the truncated prefix is gone: must refuse.
        d.snapshot = None;
        assert!(d.restart_check(&cost).is_err());
    }
}
