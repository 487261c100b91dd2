//! The Precursor server: untrusted plumbing + trusted request processing.
//!
//! The server side is "subdivided into two parts, the trusted and the
//! untrusted environment" (§3.5). Here:
//!
//! * **Untrusted**: per-client request rings (written remotely by one-sided
//!   RDMA WRITE), per-client reply writing, the pre-allocated payload pool,
//!   and the credit write-backs.
//! * **Trusted** (accounted through the [`Enclave`] model): the Robin Hood
//!   hash table of `(key → K_operation, pointer)` entries, the per-client
//!   expected-`oid` array, control-segment decryption and reply sealing —
//!   Algorithm 2 of the paper.
//!
//! Each processed request produces an [`OpReport`] whose [`Meter`] carries
//! the virtual cost of every step; the YCSB driver replays those charges
//! through contended resources.
//!
//! The request path is decomposed into explicit pipeline stages, one
//! private module per stage (DESIGN.md "module map & pipeline stages"):
//!
//! * `session` — add/reconnect/revoke, quotas, attack accounting
//!   (owns `SessionStage`);
//! * `ingress` — ring polling plumbing, credit and batched reply
//!   WRITEs (owns `Ingress`);
//! * `pipeline` — the sweep driver gluing the stages together (one
//!   three-phase sweep for every shard count, shard routing + handoff);
//! * `exec` — per-opcode enclave execution against the Robin Hood
//!   shards (owns `StoreExec`);
//! * `seal` — reply_seq / MAC-chain / last_status sealing in
//!   per-client pop order.
//!
//! Stages communicate through narrow structs (`Validated`, `ReplyPlan`,
//! `PendingAction`, `StoreEvidence`, `ExecCtx`) rather than through one
//! shared mega-`&mut self` surface; `PrecursorServer` itself is a thin
//! facade that owns the stage states and re-exports the public API.

mod durability;
mod exec;
mod ingress;
mod pipeline;
mod seal;
mod session;

pub use durability::{CompactOutcome, RecoveryReport};

use std::sync::{Arc, Mutex};

use precursor_crypto::keys::{Key128, Key256};
use precursor_obs::{MetricsRegistry, Tracer};
use precursor_rdma::adversary::AdversaryInjector;
use precursor_rdma::faults::FaultInjector;
use precursor_rdma::mr::{Memory, RemoteKey};
use precursor_rdma::qp::QueuePair;
use precursor_sgx::attest::AttestationService;
use precursor_sgx::enclave::{Enclave, RegionId};
use precursor_sim::meter::Meter;
use precursor_sim::rng::SimRng;
use precursor_sim::time::Nanos;
use precursor_sim::CostModel;
use precursor_storage::pool::SlabPool;
use precursor_storage::robinhood::ShardedRobinHoodMap;

use crate::config::{Config, EncryptionMode};
use crate::wire::{Opcode, Status};

use exec::StoreExec;
use ingress::Ingress;
use session::SessionStage;

/// Per-operation outcome + cost accounting, consumed by the benchmark
/// driver.
#[derive(Debug, Clone)]
pub struct OpReport {
    /// Client that issued the operation.
    pub client_id: u32,
    /// Operation kind.
    pub opcode: Opcode,
    /// Outcome.
    pub status: Status,
    /// Payload bytes involved (request payload for puts, reply payload for
    /// gets).
    pub value_len: usize,
    /// Trusted shard that executed the operation — for replies produced
    /// without execution (errors, replays, retransmits), the popping
    /// worker's shard. Always `0` in single-shard mode.
    pub shard: u32,
    /// Cost charges accumulated while processing this request server-side.
    pub meter: Meter,
}

/// What the server hands a connecting client after attestation (§3.6): the
/// session key, ring locations/rkeys, and the client's end of the QP.
#[derive(Debug)]
pub struct ClientBundle {
    /// Assigned client id.
    pub client_id: u32,
    /// The shared session key established during attestation.
    pub session_key: Key128,
    /// Client end of the reliable connection.
    pub qp: QueuePair,
    /// rkey of the server-side request ring (client WRITEs requests here).
    pub request_ring_rkey: RemoteKey,
    /// Client-local reply ring memory (server WRITEs replies here).
    pub reply_ring: Memory,
    /// Client-local credit word (server WRITEs its consumed counter here).
    pub credit_word: Memory,
    /// rkey of the server-side reply-credit word (client WRITEs its reply
    /// consumption counter here).
    pub reply_credit_rkey: RemoteKey,
    /// Ring capacity in bytes (both rings).
    pub ring_bytes: usize,
    /// Payload encryption mode the server runs in.
    pub mode: EncryptionMode,
    /// The enclave's expected oid for this session. `1` for a fresh
    /// session; on reconnect it lets the client resynchronise its oid
    /// counter with the enclave window (an operation abandoned after
    /// [`StoreError::Timeout`](crate::StoreError::Timeout) may or may not
    /// have executed, leaving the counters one apart otherwise).
    pub expected_oid: u64,
    /// Connection epoch of this session: `1` for a fresh session, bumped by
    /// every [`PrecursorServer::reconnect_client`]. The reply MAC chain is
    /// keyed per-epoch, and every reply control echoes the epoch, so a
    /// stale reply from an earlier connection can never verify.
    pub epoch: u32,
}

/// The Precursor key-value store server.
///
/// See the [crate docs](crate) for a quickstart.
#[derive(Debug)]
pub struct PrecursorServer {
    config: Config,
    cost: CostModel,
    rng: SimRng,

    // trusted execution environment shared by every stage
    enclave: Enclave,
    // modelled enclave region holding code + static data
    static_region: RegionId,

    // pipeline stage states (one struct per stage module)
    sessions: SessionStage,
    store: StoreExec,
    ingress: Ingress,
    // the pipeline's per-sweep buffers, reused across polls
    sweep_scratch: pipeline::SweepScratch,

    // durability stage (sealed journal + group-commit reply gate); None
    // until a journal is attached
    durability: Option<durability::Durability>,
    // staged-recovery catch-up queue: Some while a promoted replica still
    // has journal records to apply in the background (reads served from
    // the applied prefix, mutations answered Busy); None otherwise
    catchup: Option<durability::CatchupState>,

    // cluster routing view: this node's id plus the placement ring it
    // believes authoritative; None for standalone servers, in which case
    // the NotMine gate never fires and the pipeline is byte-identical to
    // the pre-cluster behaviour
    routing: Option<crate::cluster::NodeRouting>,

    // fault injection (tests/chaos harnesses); None = clean transport
    faults: Option<Arc<Mutex<FaultInjector>>>,
    // Byzantine-host injection (tests); None = honest host software
    adversary: Option<AdversaryInjector>,

    // observability: the per-stage metric taps feed this registry on
    // every finished op; the tracer is a no-op unless enabled. Neither
    // touches the RNG or any meter, so seeded runs digest identically
    // with or without them.
    obs: MetricsRegistry,
    tracer: Tracer,
}

impl PrecursorServer {
    /// Creates a server with the given configuration and cost model. The
    /// enclave is initialized (static data + the initial subset of the hash
    /// table are touched — the paper's 52-page baseline working set, §5.4).
    pub fn new(config: Config, cost: &CostModel) -> PrecursorServer {
        let mut rng = SimRng::seed_from(0x9e3779b97f4a7c15);
        let attestation = AttestationService::new(&mut rng);
        let mut enclave = Enclave::new(cost);

        let static_region = enclave.alloc_region("static", 8 * cost.page_bytes);
        let shards = config.shards.max(1);
        let table = ShardedRobinHoodMap::with_capacity(shards, config.initial_table_slots);
        let table_regions: Vec<RegionId> = (0..shards)
            .map(|s| {
                enclave.alloc_region(
                    "hash-table",
                    (table.shard(s).capacity() * config.model_slot_bytes) as u64,
                )
            })
            .collect();
        let misc_region = enclave.alloc_region("heap-misc", 13 * cost.page_bytes);
        let client_region =
            enclave.alloc_region("client-state", (config.max_clients * 64).max(64) as u64);

        // Enclave initialization: code/data plus the initial table subset.
        let mut init_meter = Meter::new();
        enclave.touch_all(static_region, &mut init_meter, cost);
        for &region in &table_regions {
            enclave.touch_all(region, &mut init_meter, cost);
        }

        let storage_key = Key128::generate(&mut rng);
        PrecursorServer {
            config: config.clone(),
            cost: cost.clone(),
            rng,
            enclave,
            static_region,
            sessions: SessionStage {
                list: Vec::new(),
                saved: Vec::new(),
                attestation,
                client_region,
            },
            store: StoreExec {
                table,
                storage_key,
                storage_seq: 0,
                mutation_seq: 0,
                state_digest: [0u8; 16],
                table_regions,
                misc_region,
                misc_touched: false,
                table_resizes_seen: vec![0; shards],
                payload_mem: Memory::zeroed(config.pool_bytes),
                pool: SlabPool::new(config.pool_bytes),
                pool_used: Vec::new(),
            },
            ingress: Ingress {
                ports: Vec::new(),
                reports: std::collections::VecDeque::new(),
                reports_dropped: 0,
                visit_cursors: vec![0; shards],
                polls: 0,
                credit_writes: 0,
                handoffs: 0,
                budgets: Vec::new(),
                budget_adjustments: 0,
                credits_elided: 0,
                arena: Vec::new(),
                dirty_board: precursor_rdma::WriteBoard::new(),
                credit_pending: std::collections::BTreeSet::new(),
                rings_swept: 0,
            },
            sweep_scratch: pipeline::SweepScratch::default(),
            durability: None,
            catchup: None,
            routing: None,
            faults: None,
            adversary: None,
            obs: MetricsRegistry::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// The server-side metrics registry, fed by the pipeline's per-stage
    /// taps: op/status counters, `stage.*_ns` histograms from every
    /// [`OpReport`]'s meter, and ingress/sweep counters.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.obs
    }

    /// Enables the structured-event tracer, retaining the most recent
    /// `cap` events. Tracing is deterministic (events are stamped with
    /// the sweep counter as logical time) and does not perturb any
    /// digested observable.
    pub fn enable_tracing(&mut self, cap: usize) {
        self.tracer = Tracer::enabled(cap);
    }

    /// The structured-event tracer (disabled unless
    /// [`enable_tracing`](Self::enable_tracing) was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    // Records one pipeline trace event stamped with the sweep counter —
    // the server's deterministic logical clock (it has no virtual
    // wall-clock of its own).
    pub(super) fn trace(&mut self, stage: &'static str, event: &'static str, a: u64, b: u64) {
        self.tracer
            .record(Nanos(self.ingress.polls), stage, event, a, b);
    }

    /// [`OpReport`]s dropped because the buffer cap
    /// ([`Config::max_buffered_reports`]) was reached before
    /// [`take_reports`](Self::take_reports) drained them.
    pub fn reports_dropped(&self) -> u64 {
        self.ingress.reports_dropped
    }

    /// Untrusted-pool bytes (slot capacities) currently charged to
    /// `client_id` — what [`Config::pool_quota_bytes`] bounds.
    pub fn pool_usage(&self, client_id: u32) -> usize {
        self.store
            .pool_used
            .get(client_id as usize)
            .copied()
            .unwrap_or(0)
    }

    /// The store-mutation sequence number (bumped on every applied put,
    /// delete, and revocation eviction). Carried in every reply control.
    pub fn mutation_seq(&self) -> u64 {
        self.store.mutation_seq
    }

    /// The running digest over all applied mutations (fork evidence).
    pub fn state_digest(&self) -> [u8; 16] {
        self.store.state_digest
    }

    /// The configured cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> usize {
        self.store.table.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.store.table.len() == 0
    }

    /// Number of connected (non-revoked) clients.
    pub fn client_count(&self) -> usize {
        self.ingress.ports.iter().filter(|p| p.is_some()).count()
    }

    /// The attestation service of the platform (clients verify quotes
    /// against it).
    pub fn attestation(&self) -> &AttestationService {
        &self.sessions.attestation
    }

    /// The enclave's measurement, which clients pin.
    pub fn measurement(&self) -> [u8; 32] {
        self.enclave.measurement()
    }

    /// The last writer of `key`, if present — the 4-byte client identifier
    /// the paper keeps in the enclave hash table (§4).
    pub fn owner_of(&self, key: &[u8]) -> Option<u32> {
        self.store.table.get(&key.to_vec()).map(|e| e.client_id)
    }

    /// The modelled enclave heap regions and their sizes in bytes
    /// (diagnostics for the EPC analysis of §5.4). With sharding there is
    /// one `hash-table` region per shard.
    pub fn enclave_regions(&self) -> Vec<(&'static str, u64)> {
        std::iter::once(self.static_region)
            .chain(self.store.table_regions.iter().copied())
            .chain([self.store.misc_region, self.sessions.client_region])
            .map(|r| (self.enclave.region_name(r), self.enclave.region_bytes(r)))
            .collect()
    }

    /// Number of trusted polling shards ([`Config::shards`]).
    pub fn shards(&self) -> usize {
        self.config.shards.max(1)
    }

    /// Credit write-backs posted so far. Sweeps that consumed nothing from
    /// a client's ring skip the WRITE (the credit word is unchanged).
    pub fn credit_writes(&self) -> u64 {
        self.ingress.credit_writes
    }

    /// Requests handed across shards so far: popped by a polling worker
    /// whose shard did not own the key (sharded mode only).
    pub fn handoffs(&self) -> u64 {
        self.ingress.handoffs
    }

    /// Ring visits performed by poll sweeps so far (all modes). With
    /// [`Config::dirty_ring_sweep`] on this stays proportional to the
    /// *dirty* rings, not the connected clients — it is what the
    /// closed-loop driver's cost model charges the per-ring scan cost
    /// against.
    pub fn rings_swept(&self) -> u64 {
        self.ingress.rings_swept
    }

    /// Clients currently owed a deferred credit write-back — the set
    /// dirty-mode sweeps keep visiting until the flush (diagnostic
    /// surface for the [`Config::dirty_ring_sweep`] liveness rule).
    pub fn credit_pending(&self) -> usize {
        self.ingress.credit_pending.len()
    }

    /// Credit WRITEs elided so far under the
    /// [`Config::lazy_credit_bytes`] threshold (fast path).
    pub fn credits_elided(&self) -> u64 {
        self.ingress.credits_elided
    }

    /// Adaptive poll-budget changes applied so far (fast path;
    /// [`Config::adaptive_poll_budget`]).
    pub fn budget_adjustments(&self) -> u64 {
        self.ingress.budget_adjustments
    }

    /// The current adaptive poll budget of `client_id`, or the static
    /// budget when adaptation is off (test/diagnostic surface for the
    /// controller's `[min, max]` bound).
    pub fn poll_budget_of(&self, client_id: u32) -> usize {
        if !self.config.adaptive_poll_budget {
            return self.config.poll_budget_per_client;
        }
        self.ingress
            .budgets
            .get(client_id as usize)
            .copied()
            .unwrap_or_else(|| {
                if self.config.poll_budget_per_client == 0 {
                    self.config.poll_budget_max
                } else {
                    self.config.poll_budget_per_client.clamp(
                        self.config.poll_budget_min.max(1),
                        self.config.poll_budget_max,
                    )
                }
            })
    }

    /// An sgx-perf style report of the enclave (Table 1).
    pub fn sgx_report(&self) -> precursor_sgx::SgxPerfReport {
        self.enclave.report()
    }

    /// Pool statistics (ocall growth events, bytes in use).
    pub fn pool_stats(&self) -> precursor_storage::pool::PoolStats {
        self.store.pool.stats()
    }

    // --- cluster routing (see crate::cluster) ---

    /// Installs (or replaces) this node's routing view: its node id and the
    /// placement ring it treats as authoritative. Requests for keys the
    /// ring assigns elsewhere are answered with a sealed
    /// [`Status::NotMine`] redirect instead of executing. Standalone
    /// servers (no view installed) never redirect.
    pub fn install_routing(&mut self, node: u16, ring: crate::cluster::PlacementRing) {
        self.routing = Some(crate::cluster::NodeRouting { node, ring });
    }

    /// This node's installed routing view as `(node, ring_epoch)`, if any.
    pub fn routing_view(&self) -> Option<(u16, u64)> {
        self.routing.as_ref().map(|r| (r.node, r.ring.epoch()))
    }

    /// Whether this node's installed routing view claims ownership of
    /// `key`. Standalone servers own everything.
    pub fn owns_key(&self, key: &[u8]) -> bool {
        match &self.routing {
            Some(r) => r.ring.owner_of(key) == r.node,
            None => true,
        }
    }

    // The ownership gate, checked by the pipeline before execution (after
    // the catch-up gate): a key the ring assigns to another node is
    // answered with a sealed NotMine redirect carrying the authoritative
    // owner hint. The redirect consumes the request's oid (the at-most-once
    // window advances; the client's retry at the real owner is a fresh oid
    // on an independent per-node session) and is never journalled
    // (journal_mutation requires Status::Ok).
    fn routing_gate(&mut self, key: &[u8], oid: u64) -> Option<(Status, usize, exec::ReplyPlan)> {
        let routing = self.routing.as_ref()?;
        let owner = routing.ring.owner_of(key);
        if owner == routing.node {
            return None;
        }
        let hint = crate::cluster::encode_owner_hint(routing.ring.epoch(), owner);
        self.obs.inc("server.not_mine_redirects", 1);
        Some((Status::NotMine, 0, exec::ReplyPlan::NotMine { oid, hint }))
    }

    // --- snapshot/restore plumbing (see crate::snapshot) ---

    pub(crate) fn sealing_key(&self) -> Key128 {
        self.sessions.attestation.sealing_key(&self.enclave)
    }

    pub(crate) fn seal_with_rng(&mut self, key: &Key128, version: u64, body: &[u8]) -> Vec<u8> {
        precursor_sgx::sealing::seal(key, version, body, &mut self.rng)
    }
}

// Backend-neutral metric names for op kinds and outcomes (ShieldStore's
// taps use the same namespace, which is what makes the cross-backend
// metrics-equivalence tests possible).
pub(super) fn op_metric(op: Opcode) -> &'static str {
    match op {
        Opcode::Put => "ops.put",
        Opcode::Get => "ops.get",
        Opcode::Delete => "ops.delete",
    }
}

pub(super) fn status_metric(status: Status) -> &'static str {
    match status {
        Status::Ok => "status.ok",
        Status::NotFound => "status.not_found",
        Status::Replay => "status.replay",
        Status::Error => "status.error",
        Status::Busy => "status.busy",
        Status::NotMine => "status.not_mine",
    }
}

// Poison-tolerant lock on the shared fault injector (mirrors the rdma
// crate's internal helper).
fn lock_faults(f: &Arc<Mutex<FaultInjector>>) -> std::sync::MutexGuard<'_, FaultInjector> {
    f.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Derives the AES-128 key used for CMAC from the 256-bit `K_operation`
/// (the SGX SDK's `sgx_rijndael128_cmac_msg` takes a 128-bit key; the paper
/// MACs with the operation key, so we use its first half — both sides agree).
pub(crate) fn cmac_key_of(k_op: &Key256) -> Key128 {
    let mut k = [0u8; 16];
    k.copy_from_slice(&k_op.as_bytes()[..16]);
    Key128::from_bytes(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StoreError;

    #[test]
    fn server_initial_working_set_is_the_table_subset() {
        let cost = CostModel::default();
        let server = PrecursorServer::new(Config::default(), &cost);
        let report = server.sgx_report();
        // 8 static pages + ceil(2048 slots × 88 B / 4 KiB) = 8 + 44 = 52 —
        // Table 1's 0-key row.
        assert_eq!(report.working_set_pages, 52);
    }

    #[test]
    fn add_client_assigns_ids_and_respects_limit() {
        let cost = CostModel::default();
        let config = Config {
            max_clients: 2,
            ..Config::default()
        };
        let mut server = PrecursorServer::new(config, &cost);
        let a = server.add_client([1; 16]).unwrap();
        let b = server.add_client([2; 16]).unwrap();
        assert_eq!(a.client_id, 0);
        assert_eq!(b.client_id, 1);
        assert_eq!(
            server.add_client([3; 16]).unwrap_err(),
            StoreError::TooManyClients
        );
    }

    #[test]
    fn sessions_have_distinct_keys() {
        let cost = CostModel::default();
        let mut server = PrecursorServer::new(Config::default(), &cost);
        let a = server.add_client([1; 16]).unwrap();
        let b = server.add_client([2; 16]).unwrap();
        assert_ne!(a.session_key, b.session_key);
    }

    #[test]
    fn poll_on_idle_server_is_a_noop() {
        let cost = CostModel::default();
        let mut server = PrecursorServer::new(Config::default(), &cost);
        server.add_client([1; 16]).unwrap();
        assert_eq!(server.poll(), 0);
        assert!(server.take_reports().is_empty());
    }

    #[test]
    fn idle_sweeps_post_no_credit_writes() {
        let cost = CostModel::default();
        let mut server = PrecursorServer::new(Config::default(), &cost);
        let mut client = crate::PrecursorClient::connect(&mut server, 7).unwrap();

        // A connected-but-idle client earns no credit write-backs: nothing
        // was consumed, so the credit word is already correct.
        for _ in 0..10 {
            server.poll();
        }
        assert_eq!(server.credit_writes(), 0, "idle sweep must not post");

        // One executed op advances the consumer → exactly one credit WRITE.
        client.put_sync(&mut server, b"k", b"v").unwrap();
        let after_op = server.credit_writes();
        assert!(after_op >= 1);

        // Back to idle: the count must not move again.
        for _ in 0..10 {
            server.poll();
        }
        assert_eq!(server.credit_writes(), after_op);
    }

    #[test]
    fn sharded_server_round_trips_and_reports_shards() {
        let cost = CostModel::default();
        let mut server = PrecursorServer::new(Config::sharded(4), &cost);
        assert_eq!(server.shards(), 4);
        let mut clients: Vec<_> = (0..3)
            .map(|i| crate::PrecursorClient::connect(&mut server, 100 + i).unwrap())
            .collect();
        for (i, c) in clients.iter_mut().enumerate() {
            for k in 0..8u8 {
                let key = [i as u8, k];
                c.put_sync(&mut server, &key, &[k; 24]).unwrap();
                assert_eq!(c.get_sync(&mut server, &key).unwrap(), vec![k; 24]);
            }
        }
        clients[0].delete_sync(&mut server, &[0u8, 0]).unwrap();
        assert!(clients[0].get_sync(&mut server, &[0u8, 0]).is_err());
        // Reports carry a shard id inside range, and a 3-client workload
        // over 4 shards with random keys crosses shards at least once.
        let reports = server.take_reports();
        assert!(!reports.is_empty());
        assert!(reports.iter().all(|r| r.shard < 4));
        assert!(server.handoffs() > 0, "foreign-shard keys must hand off");
    }

    #[test]
    fn single_shard_mode_reports_shard_zero_and_never_hands_off() {
        let cost = CostModel::default();
        let mut server = PrecursorServer::new(Config::default(), &cost);
        let mut client = crate::PrecursorClient::connect(&mut server, 9).unwrap();
        for k in 0..16u8 {
            client.put_sync(&mut server, &[k], &[k; 16]).unwrap();
        }
        assert!(server.take_reports().iter().all(|r| r.shard == 0));
        assert_eq!(server.handoffs(), 0);
    }
}
