//! Store configuration.

use precursor_sim::time::Nanos;

/// Where payload encryption happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncryptionMode {
    /// The paper's design (§3): clients encrypt values under one-time keys;
    /// the payload never enters the enclave.
    #[default]
    ClientSide,
    /// The conventional baseline (§2.4, §5.1): the full payload is
    /// transport-encrypted into the enclave, verified, re-encrypted under a
    /// server storage key, and stored back out. Used as the "Precursor
    /// server-encryption" comparison system.
    ServerSide,
}

/// Configuration of a Precursor server instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Payload encryption scheme.
    pub mode: EncryptionMode,
    /// Capacity of each per-client request and reply ring, in bytes.
    pub ring_bytes: usize,
    /// Initial size of the untrusted payload pool, in bytes; the pool grows
    /// by the same amount per modelled ocall when exhausted (§3.8).
    pub pool_bytes: usize,
    /// Maximum concurrent clients.
    pub max_clients: usize,
    /// Largest accepted key, in bytes.
    pub max_key_bytes: usize,
    /// Largest accepted value, in bytes.
    pub max_value_bytes: usize,
    /// Modelled bytes per enclave hash-table slot, used for EPC accounting
    /// (key 16 B + K_op 32 B + oid/client 8 B + pointer 12 B + hash & padding
    /// ≈ 88 B — yields Table 1's ≈11.6 MiB at 100 k keys).
    pub model_slot_bytes: usize,
    /// Initial enclave hash-table slots ("only a subset of the hash table"
    /// is initialized up front, §5.4).
    pub initial_table_slots: usize,
    /// Most request records one [`poll`](crate::PrecursorServer::poll) sweep
    /// consumes from a single client's ring before moving to the next client
    /// (round-robin fairness — a flooder cannot monopolize the trusted
    /// thread). `0` disables the budget (unbounded, pre-hardening
    /// behaviour). Unconsumed records simply wait; no reply is generated and
    /// no `oid` is burned.
    pub poll_budget_per_client: usize,
    /// Maximum untrusted-pool bytes (counted in slot capacities) one client
    /// may hold across its stored values. Exceeding puts are refused with
    /// [`Status::Busy`](crate::wire::Status::Busy) backpressure instead of
    /// growing the pool. `0` disables quotas.
    pub pool_quota_bytes: usize,
    /// Maximum buffered [`OpReport`](crate::OpReport)s held for
    /// [`take_reports`](crate::PrecursorServer::take_reports). When a caller
    /// never drains them, the oldest are dropped (and counted) instead of
    /// growing memory without bound.
    pub max_buffered_reports: usize,
    /// Retry hint carried in `Busy` replies, in simulated nanoseconds.
    pub busy_retry_ns: u64,
    /// Number of trusted polling shards (§3.8: "multiple trusted polling
    /// threads"). Each shard owns the clients whose `client_id % shards`
    /// equals its index plus a partition of the enclave hash table keyed by
    /// a stable hash of the key; requests that hash to a foreign shard
    /// cross a handoff queue. Every shard count runs the same three-phase
    /// sweep; `1` (the default) is its one-worker case, with no handoffs.
    /// Seeded runs replay bit-identically per `(shards, seed)` pair.
    pub shards: usize,
    /// Values of at most this many bytes are stored directly *inside* the
    /// enclave instead of the untrusted pool — the paper's proposed future
    /// extension for values smaller than the control data (§5.2: "one could
    /// as an alternative store the value directly inside the trusted
    /// memory... We consider this as a future extension"). `0` disables it
    /// (the paper's evaluated configuration).
    pub inline_value_max: usize,
    /// Seal all replies of one client's sweep run through a single batched
    /// crypto pass instead of per-record calls (DESIGN.md §15). Reply bytes
    /// and MAC chains are bit-identical to the unbatched path — only the
    /// fixed crypto setup cost is amortised across the batch. Off by
    /// default so the shards=1 golden digest and stage pins reproduce.
    pub batched_sealing: bool,
    /// Adapt the per-client poll budget between sweeps: a ring that polled
    /// empty backs off (budget halves toward
    /// [`poll_budget_min`](Config::poll_budget_min)), a ring that consumed
    /// its whole budget bursts (budget doubles toward
    /// [`poll_budget_max`](Config::poll_budget_max)), anything in between
    /// holds steady. The
    /// round-robin visit order is unchanged, so PR-2 fairness (≤2×) is
    /// preserved: the budget only caps per-sweep consumption. Off by
    /// default.
    pub adaptive_poll_budget: bool,
    /// Lower bound of the adaptive per-client poll budget.
    pub poll_budget_min: usize,
    /// Upper bound of the adaptive per-client poll budget. Kept at the
    /// static [`poll_budget_per_client`](Config::poll_budget_per_client)
    /// default so the PR-2 flooding cap still holds with adaptation on.
    pub poll_budget_max: usize,
    /// Elide the per-sweep credit WRITE while the newly freed ring bytes
    /// stay below this threshold; the deferred update is flushed by the
    /// first sweep that pops nothing from that client, so a producer
    /// blocked on `RingFull` is unblocked within one sweep (liveness — see
    /// DESIGN.md §15). `0` disables elision (a credit WRITE per consuming
    /// sweep, the pre-fast-path behaviour).
    pub lazy_credit_bytes: usize,
    /// Drive poll sweeps from the dirty-ring set instead of scanning every
    /// connected ring: request rings are registered with a write-watch, a
    /// delivered client WRITE marks the ring dirty, and a sweep visits only
    /// dirty rings (plus rings with an elided credit still pending, so the
    /// lazy-credit flush rule keeps its one-sweep liveness bound). A ring
    /// left non-empty by the fairness budget re-marks itself. Idle rings
    /// cost nothing, making a sweep O(dirty) instead of O(clients) — the
    /// 100k-client scale mode (DESIGN.md §17). The dirty set only filters
    /// the full scan's visit order, so with the default knobs (no adaptive
    /// budget, no credit elision — an idle visit changes nothing) a sweep
    /// serves the busy rings exactly as the full scan does, at every shard
    /// count; only the ring-visit count differs.
    pub dirty_ring_sweep: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            mode: EncryptionMode::ClientSide,
            ring_bytes: 1 << 20,
            pool_bytes: 64 << 20,
            max_clients: 128,
            max_key_bytes: 256,
            max_value_bytes: 256 << 10,
            model_slot_bytes: 88,
            initial_table_slots: 2048,
            shards: 1,
            inline_value_max: 0,
            poll_budget_per_client: 128,
            pool_quota_bytes: 0,
            max_buffered_reports: 1 << 16,
            busy_retry_ns: 100_000,
            batched_sealing: false,
            adaptive_poll_budget: false,
            poll_budget_min: 16,
            poll_budget_max: 128,
            lazy_credit_bytes: 0,
            dirty_ring_sweep: false,
        }
    }
}

impl Config {
    /// Enables the small-value in-enclave extension with the paper's ≈56 B
    /// control-data threshold (§5.2).
    pub fn with_small_value_inlining() -> Config {
        Config {
            inline_value_max: 56,
            ..Config::default()
        }
    }
}

impl Config {
    /// A configuration with the server-encryption baseline enabled.
    pub fn server_encryption() -> Config {
        Config {
            mode: EncryptionMode::ServerSide,
            ..Config::default()
        }
    }

    /// A configuration with `shards` trusted polling shards.
    pub fn sharded(shards: usize) -> Config {
        Config {
            shards: shards.max(1),
            ..Config::default()
        }
    }

    /// Turns on every fast-path knob (adaptive sweeps, batched sealing,
    /// credit elision) on top of `self`. The observable protocol — reply
    /// bytes, MAC chains, at-most-once window — is unchanged; see
    /// DESIGN.md §15 for the invariants.
    pub fn with_fast_path(mut self) -> Config {
        self.batched_sealing = true;
        self.adaptive_poll_budget = true;
        self.lazy_credit_bytes = 4096;
        self
    }

    /// The all-knobs-on fast-path configuration.
    pub fn fast() -> Config {
        Config::default().with_fast_path()
    }

    /// Whether any fast-path knob is enabled (used to gate the amortised
    /// cost attribution in the sweep).
    pub fn fast_path_enabled(&self) -> bool {
        self.batched_sealing || self.adaptive_poll_budget || self.lazy_credit_bytes > 0
    }
}

/// Client-side timeout/retry parameters, all in simulated time.
///
/// An operation is retransmitted when no reply arrives within
/// `per_try_timeout`; successive retransmissions back off exponentially
/// (`backoff_base` doubling up to `backoff_cap`, with multiplicative
/// `jitter`). After `max_attempts` retransmissions the operation fails with
/// [`crate::StoreError::RetriesExhausted`]; if `overall_timeout` elapses
/// first it fails with [`crate::StoreError::Timeout`]. Retransmissions are
/// idempotent: they re-issue the *same* `oid` (and, for puts, the same
/// `K_operation`), so the server's at-most-once window applies each update
/// exactly once no matter how often the request is repeated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Reply deadline of a single transmission attempt.
    pub per_try_timeout: Nanos,
    /// Hard deadline across all attempts of one operation.
    pub overall_timeout: Nanos,
    /// First retransmission delay (doubles per attempt).
    pub backoff_base: Nanos,
    /// Upper bound of the retransmission delay.
    pub backoff_cap: Nanos,
    /// Multiplicative jitter applied to each delay, in `[0, 1]`.
    pub jitter: f64,
    /// Retransmissions allowed per operation (the initial send is free).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            per_try_timeout: Nanos(100_000),    // 100 µs — ≫ one RTT
            overall_timeout: Nanos(50_000_000), // 50 ms
            backoff_base: Nanos(50_000),
            backoff_cap: Nanos(3_200_000),
            jitter: 0.2,
            max_attempts: 10,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_client_side() {
        assert_eq!(Config::default().mode, EncryptionMode::ClientSide);
    }

    #[test]
    fn server_encryption_flips_only_mode() {
        let a = Config::default();
        let b = Config::server_encryption();
        assert_eq!(b.mode, EncryptionMode::ServerSide);
        assert_eq!(a.ring_bytes, b.ring_bytes);
    }

    #[test]
    fn overload_defaults_are_sane() {
        let c = Config::default();
        assert!(c.poll_budget_per_client > 0, "fairness on by default");
        assert_eq!(c.pool_quota_bytes, 0, "quotas opt-in");
        assert!(c.max_buffered_reports >= 1 << 16);
        assert!(c.busy_retry_ns > 0);
    }

    #[test]
    fn default_is_single_shard() {
        assert_eq!(Config::default().shards, 1);
        assert_eq!(Config::sharded(0).shards, 1);
        assert_eq!(Config::sharded(4).shards, 4);
    }

    #[test]
    fn fast_path_is_off_by_default() {
        let c = Config::default();
        assert!(!c.batched_sealing);
        assert!(!c.adaptive_poll_budget);
        assert_eq!(c.lazy_credit_bytes, 0);
        assert!(!c.fast_path_enabled());
    }

    #[test]
    fn fast_enables_every_knob_within_budget_bounds() {
        let c = Config::fast();
        assert!(c.fast_path_enabled());
        assert!(c.batched_sealing && c.adaptive_poll_budget);
        assert!(c.lazy_credit_bytes > 0);
        assert!(c.poll_budget_min >= 1);
        assert!(c.poll_budget_min <= c.poll_budget_max);
        // The adaptive ceiling must not exceed the static PR-2 budget, so
        // the flooding cap (`max per-sweep consumption ≤ budget`) is
        // unchanged with adaptation on.
        assert!(c.poll_budget_max <= Config::default().poll_budget_per_client);
    }

    #[test]
    fn dirty_ring_sweep_is_off_by_default_and_orthogonal_to_fast() {
        let c = Config::default();
        assert!(!c.dirty_ring_sweep);
        // A scheduling knob, not a cost-amortisation knob: it must not
        // flip the fast-path cost attribution.
        let d = Config {
            dirty_ring_sweep: true,
            ..Config::default()
        };
        assert!(!d.fast_path_enabled());
    }

    #[test]
    fn retry_policy_defaults_are_ordered() {
        let p = RetryPolicy::default();
        assert!(p.backoff_base <= p.backoff_cap);
        assert!(p.per_try_timeout < p.overall_timeout);
        assert!(p.max_attempts > 0);
        assert!((0.0..=1.0).contains(&p.jitter));
    }
}
