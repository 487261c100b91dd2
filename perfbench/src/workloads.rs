//! The benchmark's workloads: one closed-loop client fleet each, chosen to
//! stress different layers (see `NOTES.md` for why each exists).

use precursor::Config;
use precursor_ycsb::driver::{SessionParams, SystemKind};
use precursor_ycsb::workload::{Distribution, WorkloadSpec, KEY_LEN};

/// One named workload: the YCSB mix, the fleet, and the server knobs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as given on the command line.
    pub name: &'static str,
    /// YCSB mix, value size, keyspace and key popularity.
    pub spec: WorkloadSpec,
    /// Closed-loop clients (each keeps one op in flight).
    pub clients: usize,
    /// Sealed group-commit journal with snapshot compaction.
    pub durable: bool,
    /// Trusted polling shards (`None` = the single legacy poller).
    pub shards: Option<usize>,
    /// Per-client ring size override.
    pub ring_bytes: Option<usize>,
    /// Doorbell-driven dirty-ring sweeps.
    pub dirty_sweep: bool,
    /// Operations in each virtual-time replay window.
    pub replay_ops: u64,
    /// How many times set-up is repeated for the `setup_s` median.
    pub setup_reps: usize,
}

/// All workloads, in the order the notes describe them.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "paper-b32",
            spec: WorkloadSpec::workload_b(32, 50_000),
            clients: 50,
            durable: false,
            shards: None,
            ring_bytes: None,
            dirty_sweep: false,
            replay_ops: 20_000,
            setup_reps: 5,
        },
        Workload {
            name: "durable-a1k",
            spec: WorkloadSpec::workload_a(1024, 5_000),
            clients: 8,
            durable: true,
            shards: None,
            ring_bytes: None,
            dirty_sweep: false,
            replay_ops: 10_000,
            setup_reps: 5,
        },
        Workload {
            name: "wide-zipf",
            spec: WorkloadSpec {
                distribution: Distribution::Zipfian,
                ..WorkloadSpec::workload_b(128, 50_000)
            },
            clients: 10_000,
            durable: false,
            shards: Some(4),
            ring_bytes: Some(1 << 10),
            dirty_sweep: true,
            replay_ops: 60_000,
            setup_reps: 3,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// Keys in the loaded keyspace.
    pub fn keys(&self) -> u64 {
        self.spec.key_count
    }

    /// Value size in bytes.
    pub fn value_size(&self) -> usize {
        self.spec.value_size
    }

    /// Request frame size the ring probe pushes (the YCSB driver's warmup
    /// sizing: framing + sealed control + key + value).
    pub fn frame_bytes(&self) -> usize {
        160 + self.value_size() + KEY_LEN
    }

    /// The server configuration, identical to the one
    /// [`SessionParams::build`] derives for the replay phase, so both
    /// clocks measure the same system.
    pub fn config(&self) -> Config {
        let base = Config::default();
        let per_entry = (self.value_size() + 64).next_power_of_two();
        Config {
            max_clients: self.clients + 1,
            pool_bytes: ((self.keys() as usize + 1024) * per_entry).max(16 << 20),
            shards: self.shards.unwrap_or(1),
            ring_bytes: self.ring_bytes.unwrap_or(base.ring_bytes),
            dirty_ring_sweep: self.dirty_sweep,
            ..base
        }
    }

    /// The replay-phase session parameters. The durable workload replays
    /// with the journal but without the driver's fixed 64-poll compaction:
    /// compaction is off the virtual critical path, and re-sealing the
    /// whole store every 64 ops would dominate the wall time.
    pub fn session_params(&self, seed: u64) -> SessionParams {
        let mut p = SessionParams::new(SystemKind::Precursor)
            .value_size(self.value_size())
            .keys(self.keys(), self.keys())
            .max_clients(self.clients)
            .ring_bytes(self.config().ring_bytes)
            .dirty_sweep(self.dirty_sweep)
            .journaled(self.durable)
            .seed(seed);
        if let Some(s) = self.shards {
            p = p.shards(s);
        }
        p
    }
}

/// A scaled-down copy of a named workload, small enough for unit tests.
#[cfg(test)]
pub fn small(name: &str, keys: u64) -> Workload {
    let mut w = by_name(name).expect("known workload");
    w.spec.key_count = keys;
    w.clients = w.clients.min(64);
    w.replay_ops = 3_000;
    w
}
