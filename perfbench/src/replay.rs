//! Virtual-time phase: the same workload through the YCSB replay driver
//! (`SessionParams::build` + `BenchSession::measure`), timed on the wall
//! clock as well.

use std::time::Instant;

use precursor_obs::MetricsRegistry;
use precursor_sim::{CostModel, Stage};
use precursor_ycsb::driver::{BenchSession, RunResult};

use crate::stats::hist_percentile;
use crate::trace::{Trace, ROOT};
use crate::workloads::Workload;

/// Status counters that mean an op did not succeed.
const FAIL_STATUSES: [&str; 5] = [
    "status.error",
    "status.replay",
    "status.busy",
    "status.not_mine",
    "status.not_found",
];

/// Replay windows timed per run, spread over the run between segments of
/// the direct loop; `replay_ops_per_s` reads the fastest, so a slow burst
/// of the host has to cover all of them to move it.
pub const WINDOWS: usize = 3;

/// What the replay phase measured.
#[derive(Debug, Clone)]
pub struct Replay {
    /// The driver's result for the first measured window.
    pub run: RunResult,
    /// Ops measured over all windows.
    pub ops: u64,
    /// Wall seconds of `SessionParams::build` (connect + warmup load).
    pub build_s: f64,
    /// Wall seconds of each `BenchSession::measure` call.
    pub measure_s: Vec<f64>,
    /// Failed ops over all windows, from `status.*` registry deltas.
    pub failed: u64,
    /// `client.verify_fail` delta over all windows.
    pub verify_fail: u64,
}

/// The modelled metrics, all deterministic per seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Virtual {
    /// `RunResult::throughput_ops`.
    pub ops_per_s: f64,
    /// Interpolated latency percentiles, µs.
    pub p50_us: f64,
    /// See `p50_us`.
    pub p99_us: f64,
    /// Latency samples behind the percentiles.
    pub samples: u64,
    /// Mean per-op client CPU, ns.
    pub client_cpu_ns: f64,
    /// Mean per-op server critical-path time (enclave included), ns.
    pub server_critical_ns: f64,
    /// Mean per-op server occupancy off the critical path, ns.
    pub server_overhead_ns: f64,
    /// Mean per-op enclave charge, ns.
    pub enclave_ns: f64,
    /// Mean per-op network time, ns.
    pub avg_network_ns: f64,
    /// Server CPU utilisation in the window.
    pub server_utilization: f64,
    /// Clients that issued at least one op.
    pub clients_active: u64,
    /// Enclave working set, pages.
    pub epc_pages: u64,
    /// ecall/ocall transitions per measured op (whole session, warmup
    /// included).
    pub transitions_per_op: f64,
}

impl Replay {
    /// Wall seconds of the fastest measure call.
    pub fn fastest_measure_s(&self) -> f64 {
        self.measure_s
            .iter()
            .copied()
            .reduce(f64::min)
            .unwrap_or(0.0)
    }

    /// The virtual-time metrics of the first window.
    pub fn virt(&self) -> Virtual {
        let r = &self.run;
        // Exact means from the stage sums; the `RunResult::avg_*` fields
        // are truncated to whole nanoseconds and read alike across seeds.
        let mean = |stages: &[Stage]| {
            let sum: u64 = stages.iter().map(|&s| r.stages.get(s).0).sum();
            sum as f64 / r.stages.ops.max(1) as f64
        };
        Virtual {
            ops_per_s: r.throughput_ops,
            p50_us: hist_percentile(&r.latency, 50.0) / 1e3,
            p99_us: hist_percentile(&r.latency, 99.0) / 1e3,
            samples: r.latency.count(),
            client_cpu_ns: mean(&[Stage::ClientCpu]),
            server_critical_ns: mean(&[Stage::ServerCritical, Stage::Enclave]),
            server_overhead_ns: mean(&[Stage::ServerOverhead]),
            enclave_ns: mean(&[Stage::Enclave]),
            avg_network_ns: r.avg_network.0 as f64,
            server_utilization: r.server_utilization,
            clients_active: r.clients_active,
            epc_pages: r.epc.working_set_pages,
            transitions_per_op: r.epc.transitions as f64 / r.ops as f64,
        }
    }
}

fn failures(m: &MetricsRegistry) -> u64 {
    FAIL_STATUSES.iter().map(|s| m.counter(s)).sum()
}

/// A built replay session between its measured windows.
pub struct Session {
    session: BenchSession,
    before: MetricsRegistry,
    build_s: f64,
    first: Option<RunResult>,
    measure_s: Vec<f64>,
}

impl Session {
    /// Builds the session for `w` (connect + warmup load) under a
    /// `ycsb.build` span.
    pub fn build(w: &Workload, seed: u64, cost: &CostModel, trace: &mut Trace) -> Session {
        let t = Instant::now();
        let session = trace.scope("ycsb.build", ROOT, |_, _| {
            w.session_params(seed).build(cost)
        });
        let build_s = t.elapsed().as_secs_f64();
        Session {
            before: session.metrics(),
            session,
            build_s,
            first: None,
            measure_s: Vec::new(),
        }
    }

    /// Measures one window of `w.replay_ops` ops with every client, under
    /// a `ycsb.measure` span. Each window draws fresh per-client streams,
    /// so every window does the same amount of work.
    pub fn measure(&mut self, w: &Workload, trace: &mut Trace) {
        let t = Instant::now();
        let session = &mut self.session;
        let run = trace.scope("ycsb.measure", ROOT, |_, _| {
            session.measure(&w.spec, w.clients, w.replay_ops)
        });
        self.measure_s.push(t.elapsed().as_secs_f64());
        self.first.get_or_insert(run);
    }

    /// The phase's result: virtual metrics from the first window, failures
    /// over all of them.
    ///
    /// # Panics
    ///
    /// Panics if no window was measured.
    pub fn finish(self, w: &Workload) -> Replay {
        let after = self.session.metrics();
        let verify = |m: &MetricsRegistry| m.counter("client.verify_fail");
        Replay {
            run: self.first.expect("at least one window measured"),
            ops: w.replay_ops * self.measure_s.len() as u64,
            build_s: self.build_s,
            measure_s: self.measure_s,
            failed: failures(&after) - failures(&self.before),
            verify_fail: verify(&after) - verify(&self.before),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::small;

    fn virt(w: &Workload, seed: u64) -> Virtual {
        let mut trace = Trace::new(false);
        let mut s = Session::build(w, seed, &CostModel::default(), &mut trace);
        s.measure(w, &mut trace);
        let r = s.finish(w);
        assert_eq!(r.failed, 0);
        assert_eq!(r.verify_fail, 0);
        r.virt()
    }

    fn bits(v: &Virtual) -> Vec<u64> {
        vec![
            v.ops_per_s.to_bits(),
            v.p50_us.to_bits(),
            v.p99_us.to_bits(),
            v.samples,
            v.client_cpu_ns.to_bits(),
            v.server_critical_ns.to_bits(),
            v.server_overhead_ns.to_bits(),
            v.enclave_ns.to_bits(),
            v.avg_network_ns.to_bits(),
            v.server_utilization.to_bits(),
            v.clients_active,
            v.epc_pages,
            v.transitions_per_op.to_bits(),
        ]
    }

    #[test]
    fn same_seed_gives_bit_identical_virtual_metrics() {
        for name in ["paper-b32", "durable-a1k", "wide-zipf"] {
            let w = small(name, 2_000);
            let a = virt(&w, 7);
            let b = virt(&w, 7);
            assert_eq!(bits(&a), bits(&b), "{name}");
        }
    }

    #[test]
    fn another_seed_moves_the_virtual_metrics() {
        let w = small("paper-b32", 2_000);
        assert_ne!(bits(&virt(&w, 7)), bits(&virt(&w, 8)));
    }
}
