//! Pipeline stage: the sweep driver gluing the stages together.
//!
//! [`PrecursorServer::poll`] runs the same three-phase sweep for every
//! shard count (§3.8: pop + validate + route → per-shard FIFO execute →
//! per-client in-order seal); one shard is the degenerate partition with a
//! single worker and no handoffs. Validation — control decrypt plus the
//! at-most-once window check — also lives here: it is what decides a
//! popped record's path through the later stages ([`Validated`]).

use std::collections::VecDeque;
use std::fmt;

use precursor_sim::meter::{Meter, Stage};
use precursor_sim::time::Cycles;

use crate::config::EncryptionMode;
use crate::wire::{request_aad, Opcode, RequestControl, RequestFrame, Status};

use super::exec::{ExecCtx, ExecRequest, ReplyPlan};
use super::ingress::ReplyBatch;
use super::seal::{self, SealCtx};
use super::{OpReport, PrecursorServer};

// Outcome of validating one popped record — control decrypt plus the
// at-most-once window check — before anything executes or any reply is
// sealed. Splitting validation from execution and sealing lets the sweep
// execute foreign-shard requests on the shard owning their key while
// still sealing each client's replies in pop order (the `reply_seq` /
// MAC-chain contract requires per-client in-order sealing).
enum Validated {
    /// Answered without executing: malformed frame, off-window oid, or a
    /// cached acknowledgement from the at-most-once window.
    Reject {
        status: Status,
        opcode: Opcode,
        oid: u64,
        remember: bool,
    },
    /// Same-session retransmit: re-issue the stored reply WRITEs.
    Retransmit { status: Status, opcode: Opcode },
    /// In-window (or an idempotently re-executable read): run against the
    /// table partition owning the key.
    Execute {
        opcode: Opcode,
        control: RequestControl,
        frame: RequestFrame,
    },
}

// One popped record's deferred work in a sweep: the meter its charges
// accumulate into, plus what remains to be done with it.
struct PendingAction {
    meter: Meter,
    kind: ActionKind,
}

enum ActionKind {
    /// Parked in its owning shard's execution queue (phase B).
    AwaitExec {
        opcode: Opcode,
        control: RequestControl,
        frame: RequestFrame,
    },
    /// Executed (or answered without execution): seal + post in pop order.
    Seal {
        status: Status,
        opcode: Opcode,
        value_len: usize,
        plan: ReplyPlan,
        remember: bool,
        /// Whether sealing updates the session's cached `last_status` —
        /// only *executed* operations refresh the at-most-once window.
        set_last: bool,
        shard: u32,
    },
    /// Same-session retransmit: re-issue the stored WRITEs.
    Retransmit { status: Status, opcode: Opcode },
}

// Per-sweep working buffers, kept on the server between polls so a
// steady-state sweep allocates no bookkeeping. All of them are empty
// between sweeps.
#[derive(Default)]
pub(super) struct SweepScratch {
    // Pending actions of the rings that popped something, contiguous per
    // client in phase-A visit order: a sweep's bookkeeping costs memory
    // proportional to the records it popped, never the connected fleet —
    // what keeps dirty-set sweeps O(dirty) at 100k clients.
    actions: Vec<Option<PendingAction>>,
    // Per-shard FIFO execution queues of `(client idx, action index)`.
    exec_queues: Vec<VecDeque<(usize, usize)>>,
    // Rings that popped something, in visit order: `(client idx, index
    // of its first action)`; its actions end where the next ring's begin.
    busy: Vec<(usize, usize)>,
    // Each worker's start position for this sweep.
    starts: Vec<usize>,
    // Dirty-mode visit list.
    due: Vec<usize>,
    // Coalesced reply WRITEs of the client phase C is sealing.
    batch: ReplyBatch,
}

impl fmt::Debug for SweepScratch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepScratch").finish_non_exhaustive()
    }
}

// Number of positions worker `w` owns among `n` client slots: the client
// indices `w + p·shards` below `n`.
fn owned_positions(n: usize, w: usize, shards: usize) -> usize {
    n.saturating_sub(w).div_ceil(shards)
}

impl PrecursorServer {
    /// One polling sweep of the trusted threads over all client rings
    /// (§3.8): consumes available requests, processes them, writes replies
    /// into the clients' reply rings with one-sided WRITEs, and
    /// periodically updates credits. Returns the number of requests
    /// processed.
    ///
    /// Each worker starts its sweep from a rotating client (round-robin)
    /// and consumes at most
    /// [`Config::poll_budget_per_client`](crate::Config::poll_budget_per_client)
    /// records per client, so a flooding client cannot monopolize a
    /// trusted thread: its surplus requests simply wait in its own ring for
    /// later sweeps.
    pub fn poll(&mut self) -> usize {
        self.ingress.polls += 1;
        // A Byzantine host may flip a bit of a live untrusted payload
        // between sweeps (detected client-side by the payload CMAC).
        if let Some(adv) = &mut self.adversary {
            if let Some((offset, bit)) = adv.on_sweep() {
                self.store.payload_mem.with_mut(|buf| {
                    if offset < buf.len() {
                        buf[offset] ^= 1 << bit;
                    }
                });
            }
        }
        if self.ingress.ports.is_empty() {
            // Age-based group commits still tick over on idle sweeps.
            self.durability_sweep();
            return 0;
        }
        let mut scratch = std::mem::take(&mut self.sweep_scratch);
        let processed = self.sweep(&mut scratch);
        self.sweep_scratch = scratch;
        self.durability_sweep();
        self.obs.inc("server.polls", 1);
        self.trace("pipeline", "sweep", self.ingress.polls, processed as u64);
        processed
    }

    // N trusted polling workers (§3.8: "multiple trusted polling
    // threads"), simulated in deterministic order; one shard is the
    // one-worker case. Worker `w` owns the clients with
    // `client_id % shards == w`. Each sweep runs in three phases:
    //
    //   A. every worker pops + validates its owned rings in pop order and
    //      routes in-window requests to the shard owning the key — its
    //      own execution queue, or a foreign shard's via the handoff
    //      queue (charged `shard_handoff_cycles` + the control copy). A
    //      ring that pops nothing finishes here (budget update + credit
    //      flush) and takes no part in the later phases;
    //   B. every shard drains its execution queue FIFO against its own
    //      table partition;
    //   C. every worker seals its clients' replies in per-client pop
    //      order (preserving the reply_seq / MAC-chain contract), with
    //      the sweep's reply WRITEs coalesced into batched posts and one
    //      credit write-back per client.
    fn sweep(&mut self, s: &mut SweepScratch) -> usize {
        let n = self.ingress.ports.len();
        let shards = self.config.shards.max(1);
        s.exec_queues.resize_with(shards, VecDeque::new);
        self.ingress.visit_cursors.resize(shards, 0);

        // Visit order: worker `w` walks its positions `p` (client
        // `w + p·shards`) from a cursor that advances once per poll, so no
        // ring is always served first.
        s.starts.clear();
        for w in 0..shards {
            let positions = owned_positions(n, w, shards).max(1);
            let start = self.ingress.visit_cursors[w] % positions;
            self.ingress.visit_cursors[w] = (start + 1) % positions;
            s.starts.push(start);
        }

        // Phase A — worker sweeps: pop + validate, route to owning shard.
        let mut processed = 0usize;
        if self.config.dirty_ring_sweep {
            // Dirty-set mode visits only rings marked since the last drain
            // (plus deferred-credit clients), in the full scan's order.
            let mut due = std::mem::take(&mut s.due);
            self.dirty_due(&mut due);
            due.sort_unstable_by_key(|&idx| {
                let (w, p) = (idx % shards, idx / shards);
                (w, p < s.starts[w], p)
            });
            for &idx in &due {
                processed += self.visit_ring(idx % shards, idx, s);
            }
            due.clear();
            s.due = due;
        } else {
            for w in 0..shards {
                let positions = owned_positions(n, w, shards);
                let start = s.starts[w];
                for step in 0..positions {
                    let p = (start + step) % positions;
                    processed += self.visit_ring(w, w + p * shards, s);
                }
            }
        }

        // Phase B — per-shard FIFO execution against the owned partition.
        for (shard, queue) in s.exec_queues.iter_mut().enumerate() {
            while let Some((idx, ai)) = queue.pop_front() {
                let act = s.actions[ai].take().expect("pending action");
                s.actions[ai] = Some(self.execute_action(idx, shard, act));
            }
        }

        // Phase C — per-client in-order sealing + batched reply WRITEs +
        // one credit write-back per busy client.
        for k in 0..s.busy.len() {
            let (idx, first) = s.busy[k];
            let end = s.busy.get(k + 1).map_or(s.actions.len(), |&(_, next)| next);
            // The client's run so far has sealed a fresh reply: later
            // seals ride the same batched crypto pass. A retransmit
            // interrupts the run (its WRITEs flush first), so the pass
            // restarts after it.
            let mut run_sealed = false;
            for ai in first..end {
                let mut act = s.actions[ai].take().expect("sealed once");
                let (status, opcode, value_len, shard) = match act.kind {
                    ActionKind::Seal {
                        status,
                        opcode,
                        value_len,
                        plan,
                        remember,
                        set_last,
                        shard,
                    } => {
                        if set_last {
                            self.sessions.list[idx].last_status = status;
                        }
                        let reply = self.seal_for(idx, opcode, plan, run_sealed, &mut act.meter);
                        run_sealed = true;
                        self.charge_fixed_occupancy(opcode, &mut act.meter);
                        self.emit_fresh(idx, reply, remember, &mut s.batch, &mut act.meter);
                        (status, opcode, value_len, shard)
                    }
                    ActionKind::Retransmit { status, opcode } => {
                        // Preserve WRITE ordering: everything batched so
                        // far lands before the retransmitted bytes.
                        self.flush_reply_batch(idx, &mut s.batch);
                        run_sealed = false;
                        self.charge_fixed_occupancy(opcode, &mut act.meter);
                        self.emit_retransmit(idx, &mut act.meter);
                        (status, opcode, 0, (idx % shards) as u32)
                    }
                    ActionKind::AwaitExec { .. } => unreachable!("executed in phase B"),
                };
                self.push_report(OpReport {
                    client_id: idx as u32,
                    opcode,
                    status,
                    value_len,
                    shard,
                    meter: act.meter,
                });
            }
            self.flush_reply_batch(idx, &mut s.batch);
            self.post_credit_update(idx, true);
        }
        s.actions.clear();
        s.busy.clear();
        processed
    }

    // Fills `due` with the rings due a dirty-mode visit: the drained
    // doorbell board (rings remotely written since the last sweep) unioned
    // with the clients owed a deferred credit write-back, deduplicated.
    // Also prunes revoked/inactive clients from the pending set — their
    // rings are gone, there is nothing left to flush.
    fn dirty_due(&mut self, due: &mut Vec<usize>) {
        let n = self.ingress.ports.len();
        let mut pending = std::mem::take(&mut self.ingress.credit_pending);
        pending.retain(|&idx| {
            self.ingress.ports.get(idx).is_some_and(Option::is_some)
                && self.sessions.list[idx].active
        });
        due.extend(pending.iter().copied());
        for tag in self.ingress.dirty_board.drain() {
            let idx = tag as usize;
            if idx < n && !pending.contains(&idx) {
                due.push(idx);
            }
        }
        self.ingress.credit_pending = pending;
    }

    // Phase A for one ring: a budgeted drain of client `idx`'s request
    // ring by worker `w`, validating each record and routing it to the
    // shard owning its key. Returns the records popped.
    fn visit_ring(&mut self, w: usize, idx: usize, s: &mut SweepScratch) -> usize {
        if self.ingress.ports[idx].is_none() || !self.sessions.list[idx].active {
            return 0;
        }
        self.ingress.rings_swept += 1;
        let budget = self.sweep_budget(idx);
        let first = s.actions.len();
        let mut taken = 0usize;
        while budget == 0 || taken < budget {
            let port = self.ingress.ports[idx].as_mut().expect("live port");
            let Some(record) = port.pop_request() else {
                break;
            };
            taken += 1;
            let mut meter = Meter::new();
            let kind = match self.validate_record(idx, &record, &mut meter) {
                Validated::Reject {
                    status,
                    opcode,
                    oid,
                    remember,
                } => ActionKind::Seal {
                    status,
                    opcode,
                    value_len: 0,
                    plan: ReplyPlan::Control { status, oid },
                    remember,
                    set_last: false,
                    shard: w as u32,
                },
                Validated::Retransmit { status, opcode } => {
                    ActionKind::Retransmit { status, opcode }
                }
                Validated::Execute {
                    opcode,
                    control,
                    frame,
                } => {
                    let target = self.store.table.shard_of(&control.key);
                    if target != w {
                        // Shard-crossing handoff: the popping worker copies
                        // the validated control into the owning shard's
                        // queue.
                        self.ingress.handoffs += 1;
                        self.obs.inc("server.handoffs", 1);
                        let cost = &self.cost;
                        meter.charge(
                            Stage::Enclave,
                            cost.server_time(cost.memcpy(frame.sealed_control.len())),
                        );
                        meter.charge(
                            Stage::Enclave,
                            cost.server_time(Cycles(cost.shard_handoff_cycles)),
                        );
                    }
                    s.exec_queues[target].push_back((idx, s.actions.len()));
                    ActionKind::AwaitExec {
                        opcode,
                        control,
                        frame,
                    }
                }
            };
            s.actions.push(Some(PendingAction { meter, kind }));
        }
        self.adapt_budget(idx, taken, budget);
        if taken == 0 {
            // Idle ring: nothing to execute or seal, only a deferred credit
            // to flush.
            self.post_credit_update(idx, false);
            return 0;
        }
        if self.config.dirty_ring_sweep && budget != 0 && taken >= budget {
            // Budget-capped run: records may remain — re-mark so the next
            // sweep returns without waiting for another WRITE.
            self.ingress.dirty_board.mark(idx as u64);
        }
        s.busy.push((idx, first));
        taken
    }

    // Phase B for one record: the gates (staged catch-up, cluster routing),
    // enclave execution on `shard`'s partition, then the journal tap.
    // Returns the action ready to seal.
    fn execute_action(&mut self, idx: usize, shard: usize, act: PendingAction) -> PendingAction {
        let PendingAction { mut meter, kind } = act;
        let ActionKind::AwaitExec {
            opcode,
            control,
            frame,
        } = kind
        else {
            unreachable!("execution queues hold AwaitExec entries");
        };
        let journal_tap = self
            .durability
            .is_some()
            .then(|| (control.key.clone(), control.oid));
        let op_oid = control.oid;
        let exec_result = if let Some(busy) = self.catchup_gate(opcode, op_oid) {
            Ok(busy)
        } else if let Some(redirect) = self.routing_gate(&control.key, op_oid) {
            Ok(redirect)
        } else {
            let mut ctx = ExecCtx {
                enclave: &mut self.enclave,
                config: &self.config,
                cost: &self.cost,
                adversary: &mut self.adversary,
            };
            self.store.execute_plan(
                &mut ctx,
                ExecRequest {
                    idx,
                    opcode,
                    control,
                    frame: &frame,
                    session_key: &self.sessions.list[idx].session_key,
                },
                &mut meter,
            )
        };
        let kind = match exec_result {
            Ok((status, value_len, plan)) => {
                self.trace("exec", super::op_metric(opcode), idx as u64, status as u64);
                if let Some((key, oid)) = &journal_tap {
                    self.journal_mutation(idx, opcode, status, key, *oid, &mut meter);
                }
                ActionKind::Seal {
                    status,
                    opcode,
                    value_len,
                    plan,
                    remember: true,
                    set_last: true,
                    shard: shard as u32,
                }
            }
            // Store-level failure: an error reply that at least unblocks
            // the client (chain-linked like any other, so the client's
            // verification stream stays contiguous).
            Err(_) => ActionKind::Seal {
                status: Status::Error,
                opcode: Opcode::Get,
                value_len: 0,
                plan: ReplyPlan::Control {
                    status: Status::Error,
                    oid: 0,
                },
                remember: false,
                set_last: false,
                shard: shard as u32,
            },
        };
        PendingAction { meter, kind }
    }

    // Seals one [`ReplyPlan`] for client `idx` by assembling the narrow
    // [`SealCtx`] out of disjoint borrows of the stage states. With
    // `Config::batched_sealing` on and `in_run` set (a fresh reply was
    // already sealed this run), the seal joins the run's batched crypto
    // pass: the fixed AES-GCM setup is paid once by the run's first reply
    // and this op's meter only carries the per-byte work — the amortised
    // cycles are attributed to the batch's ops, never dropped.
    fn seal_for(
        &mut self,
        idx: usize,
        opcode: Opcode,
        plan: ReplyPlan,
        in_run: bool,
        meter: &mut Meter,
    ) -> crate::wire::ReplyFrame {
        let batched = in_run && self.config.batched_sealing;
        if batched {
            self.obs.inc("seal.batched_ops", 1);
        }
        let mut ctx = SealCtx {
            enclave: &mut self.enclave,
            cost: &self.cost,
            busy_retry_ns: self.config.busy_retry_ns,
            evidence: self.store.evidence(),
            batched,
        };
        let reply = seal::seal_plan(&mut ctx, &mut self.sessions.list[idx], opcode, plan, meter);
        self.trace(
            "seal",
            super::op_metric(opcode),
            idx as u64,
            reply.reply_seq,
        );
        reply
    }

    // Fixed per-op occupancy (fitted constants; DESIGN.md §4): part of it
    // is on the request's critical path, the rest is polling overhead.
    // With any fast-path knob on, the overhead share shrinks by the
    // calibrated `fast_overhead_factor` — the polling/bookkeeping that
    // adaptive sweeps, elided credit WRITEs, coalesced doorbells, and the
    // reply arena no longer spend per op. The critical share is never
    // scaled: the request still waits for the same work.
    fn charge_fixed_occupancy(&mut self, opcode: Opcode, meter: &mut Meter) {
        let cost = self.cost.clone();
        let mut fixed = cost.precursor_get_fixed;
        if opcode == Opcode::Put {
            fixed += cost.precursor_put_extra;
        }
        if self.config.mode == EncryptionMode::ServerSide {
            fixed += cost.server_enc_extra;
        }
        let critical = cost.critical_part(Cycles(fixed));
        let mut overhead = fixed - critical.0;
        if self.config.fast_path_enabled() {
            overhead = (overhead as f64 * cost.fast_overhead_factor).round() as u64;
        }
        meter.charge(Stage::ServerCritical, cost.server_time(critical));
        meter.charge(Stage::ServerOverhead, cost.server_time(Cycles(overhead)));
    }

    // Observability wrapper around validation: counts each outcome class
    // and emits the ingress-stage trace event.
    fn validate_record(&mut self, idx: usize, record: &[u8], meter: &mut Meter) -> Validated {
        let v = self.validate_record_inner(idx, record, meter);
        let (counter, event) = match &v {
            Validated::Reject { .. } => ("server.validate.reject", "reject"),
            Validated::Retransmit { .. } => ("server.validate.retransmit", "retransmit"),
            Validated::Execute { .. } => ("server.validate.execute", "execute"),
        };
        self.obs.inc(counter, 1);
        self.trace("ingress", event, idx as u64, record.len() as u64);
        v
    }

    // Decodes, authenticates and window-checks one popped request record —
    // everything that must happen in a client's pop order, but *before*
    // the key-addressed table access. The result tells the caller whether
    // to reply straight away ([`Validated::Reject`]), re-issue the stored
    // reply ([`Validated::Retransmit`]), or route the request to the shard
    // owning its key ([`Validated::Execute`]).
    fn validate_record_inner(&mut self, idx: usize, record: &[u8], meter: &mut Meter) -> Validated {
        let cost = self.cost.clone();

        // Untrusted: the record was copied out of the ring by the poller.
        meter.charge(
            Stage::ServerCritical,
            cost.server_time(cost.memcpy(record.len())),
        );
        meter.charge(
            Stage::ServerCritical,
            cost.server_time(Cycles(cost.rdma_poll_cycles)),
        );

        // Structurally invalid records still earn an error reply that at
        // least unblocks the client (chain-linked like any other, so the
        // client's verification stream stays contiguous).
        let Ok(frame) = RequestFrame::decode(record) else {
            return Validated::Reject {
                status: Status::Error,
                opcode: Opcode::Get,
                oid: 0,
                remember: false,
            };
        };
        if frame.client_id as usize != idx {
            return Validated::Reject {
                status: Status::Error,
                opcode: Opcode::Get,
                oid: 0,
                remember: false,
            };
        }
        let opcode = frame.opcode;

        // Only the control segment crosses into the enclave (§3.7 step 3).
        self.enclave
            .copy_across_boundary(frame.sealed_control.len(), meter, &cost);

        // Trusted: decrypt + authenticate the control data (Algorithm 2,
        // lines 2-3).
        let aad = request_aad(opcode, frame.client_id);
        meter.charge(
            Stage::Enclave,
            cost.server_time(cost.aes_gcm(frame.sealed_control.len())),
        );
        let Ok(control_plain) =
            self.sessions.list[idx]
                .session_key
                .open(&frame.iv, &aad, &frame.sealed_control)
        else {
            return Validated::Reject {
                status: Status::Error,
                opcode,
                oid: 0,
                remember: false,
            };
        };
        let Ok(control) = RequestControl::decode(&control_plain) else {
            return Validated::Reject {
                status: Status::Error,
                opcode,
                oid: 0,
                remember: false,
            };
        };

        // Replay detection, relaxed to an at-most-once window (Algorithm 2,
        // lines 4-5): the per-client oid slot lives in trusted memory. The
        // *previous* oid is tolerated — it is a retransmission after a lost
        // reply (or a replayed frame, which then gains nothing: the cached
        // acknowledgement is re-sent and no state changes). Anything else
        // off-sequence is rejected.
        self.enclave.touch(
            self.sessions.client_region,
            idx as u64 * 64,
            64,
            meter,
            &cost,
        );
        let expected = self.sessions.list[idx].expected_oid;
        let retransmit = control.oid != 0 && control.oid + 1 == expected;
        if control.oid != expected && !retransmit {
            return Validated::Reject {
                status: Status::Replay,
                opcode,
                oid: control.oid,
                remember: false,
            };
        }
        if retransmit {
            let no_stored_reply = self.ingress.ports[idx]
                .as_ref()
                .is_none_or(|p| p.last_reply.is_empty());
            if no_stored_reply {
                // The session was re-established since the operation ran
                // (QP reconnect or crash-restart), so the original reply
                // bytes — sealed under the old session key — are gone.
                // Reads are idempotent: re-execute them for a full reply.
                // Mutations must not run twice: acknowledge from the cached
                // status.
                if opcode == Opcode::Get {
                    return Validated::Execute {
                        opcode,
                        control,
                        frame,
                    };
                }
                let cached = self.sessions.list[idx].last_status;
                return Validated::Reject {
                    status: cached,
                    opcode,
                    oid: control.oid,
                    remember: true,
                };
            }
            // Same session: re-issue the stored reply WRITEs verbatim
            // (fills a reply-ring hole; the client dedups by reply_seq).
            let cached = self.sessions.list[idx].last_status;
            return Validated::Retransmit {
                status: cached,
                opcode,
            };
        }
        self.sessions.list[idx].expected_oid += 1;
        Validated::Execute {
            opcode,
            control,
            frame,
        }
    }
}
