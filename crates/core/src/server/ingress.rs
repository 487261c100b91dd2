//! Ingress stage: the untrusted per-client plumbing.
//!
//! Owns [`Ingress`] — the per-client [`ClientPort`]s (request-ring
//! consumers, reply-ring producers, credit words), the bounded
//! [`OpReport`] buffer, and the sweep counters. The stage's job is the
//! host-side I/O: provisioning rings on admission, posting reply WRITEs
//! (coalesced into per-sweep [`ReplyBatch`]es, or per record while an
//! adversary is installed), re-issuing remembered replies on
//! retransmission, and the credit write-backs.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use precursor_crypto::keys::Key128;
use precursor_rdma::mr::{Memory, RemoteKey, WriteBoard};
use precursor_rdma::qp::{connect_pair, connect_pair_faulty, QueuePair};
use precursor_sim::meter::{Meter, Stage};
use precursor_sim::time::Cycles;
use precursor_storage::ring::{RingConsumer, RingProducer};

use crate::wire::ReplyFrame;

use super::{ClientBundle, OpReport, PrecursorServer};

// Untrusted per-client plumbing.
#[derive(Debug)]
pub(super) struct ClientPort {
    pub(super) qp: QueuePair, // server end
    pub(super) request_ring: Memory,
    pub(super) request_consumer: RingConsumer,
    pub(super) reply_producer: RingProducer,
    pub(super) reply_ring_rkey: RemoteKey,
    pub(super) credit_rkey: RemoteKey,
    pub(super) reply_credit: Memory,
    /// `(offset, bytes)` of the WRITEs that carried the last executed
    /// operation's reply — re-issued verbatim when that operation is
    /// retransmitted, so a reply lost in flight (a hole the client's ring
    /// consumer is parked on) gets filled idempotently.
    pub(super) last_reply: Vec<(usize, Vec<u8>)>,
    /// The last remembered reply as one encoded ring record, plus the
    /// producer's absolute position after it was pushed. When the client has
    /// already consumed past that position (a Byzantine host substituted the
    /// record, which the consumer then zeroed), a verbatim rewrite would
    /// deposit garbage into consumed ring space — instead the record is
    /// re-pushed as a *fresh* ring record (same `reply_seq`; the client
    /// dedups or late-accepts it).
    pub(super) last_reply_bytes: Vec<u8>,
    pub(super) last_reply_end: u64,
    /// The last `consumed` value written back to the client's credit word
    /// — a sweep that consumed nothing skips the (redundant) WRITE.
    pub(super) last_credit: u64,
}

impl ClientPort {
    // The client's reply-consumption counter, as it last wrote it into
    // the reply-credit word.
    pub(super) fn reply_consumed(&self) -> u64 {
        self.reply_credit
            .with(|b| u64::from_le_bytes(b[..8].try_into().expect("8 bytes")))
    }

    // Pops the next request record, first refreshing the reply
    // producer's credits from the client-written word.
    pub(super) fn pop_request(&mut self) -> Option<Vec<u8>> {
        self.reply_producer.update_credits(self.reply_consumed());
        self.request_ring
            .with_mut(|buf| self.request_consumer.pop(buf))
    }
}

// Per-client reply WRITEs coalesced over one sweep: contiguous ring
// chunks merge into one one-sided WRITE, posted at flush.
#[derive(Default)]
pub(super) struct ReplyBatch {
    pub(super) writes: Vec<(usize, Vec<u8>)>,
}

// Ingress-stage state: every untrusted per-client port plus the report
// buffer and the sweep counters.
#[derive(Debug)]
pub(super) struct Ingress {
    // `None` marks a revoked slot: ids are stable (they index the trusted
    // session table) and are never recycled, but the revoked client's rings
    // and MRs are dropped.
    pub(super) ports: Vec<Option<ClientPort>>,
    pub(super) reports: VecDeque<OpReport>,
    pub(super) reports_dropped: u64,
    // Per-worker round-robin cursors: worker `w`'s next start position
    // among the client indices it owns (`w + p·shards`), advanced once
    // per poll.
    pub(super) visit_cursors: Vec<usize>,
    pub(super) polls: u64,
    // Credit write-backs actually posted (sweeps that consumed nothing
    // skip the redundant WRITE).
    pub(super) credit_writes: u64,
    // Requests popped by a worker whose shard did not own the key, handed
    // across the shard-crossing queue.
    pub(super) handoffs: u64,
    // Adaptive per-client poll budgets (fast path; `Config::
    // adaptive_poll_budget`). Indexed like `ports`; grown lazily. Always
    // within `[poll_budget_min, poll_budget_max]`.
    pub(super) budgets: Vec<usize>,
    pub(super) budget_adjustments: u64,
    // Credit WRITEs deferred below the `lazy_credit_bytes` threshold.
    pub(super) credits_elided: u64,
    // Spare reply-frame buffers: buffers that carried a non-remembered
    // reply come back here instead of being dropped, so the steady state
    // encodes into reused capacity.
    pub(super) arena: Vec<Vec<u8>>,
    // Doorbell board for dirty-ring sweeps (`Config::dirty_ring_sweep`):
    // request rings are registered with a write-watch that marks the
    // owning client's index here on every *delivered* WRITE, so sweeps can
    // drain the board instead of scanning every idle ring.
    pub(super) dirty_board: WriteBoard,
    // Clients owed a deferred (elided) credit write-back. Dirty-mode
    // sweeps must keep visiting them until the flush — the first visit
    // that pops nothing posts the deferred WRITE — or a producer parked
    // on `RingFull` would never unblock (the `tests/fastpath.rs` liveness
    // rule).
    pub(super) credit_pending: BTreeSet<usize>,
    // Ring visits performed by poll sweeps (all modes): what the driver's
    // cost model charges `poll_scan_per_client` against in dirty mode,
    // instead of assuming `clients × polls`.
    pub(super) rings_swept: u64,
}

// Bound on pooled arena buffers — enough for every client of a wide sweep
// without letting a burst pin memory forever.
const ARENA_MAX_BUFS: usize = 256;

impl PrecursorServer {
    // The untrusted half of client admission: a fresh QP pair (through the
    // fault injector when one is installed) plus rings and credit words.
    pub(super) fn provision_port(
        &mut self,
        client_id: u32,
        session_key: &Key128,
    ) -> (ClientPort, ClientBundle) {
        let (client_end, server_end) = match &self.faults {
            Some(f) => connect_pair_faulty(self.cost.rdma_inline_max, Arc::clone(f)),
            None => connect_pair(self.cost.rdma_inline_max),
        };

        // Server-side request ring, remotely writable by the client. With
        // dirty-ring sweeps on, the registration carries a write-watch:
        // every delivered client WRITE rings the doorbell board, which is
        // what lets sweeps skip idle rings entirely.
        let request_ring = Memory::zeroed(self.config.ring_bytes);
        let request_ring_rkey = if self.config.dirty_ring_sweep {
            server_end.register_watched(
                request_ring.clone(),
                true,
                self.ingress.dirty_board.clone(),
                u64::from(client_id),
            )
        } else {
            server_end.register(request_ring.clone(), true)
        };
        // Server-side reply-credit word, remotely writable by the client.
        let reply_credit = Memory::zeroed(8);
        let reply_credit_rkey = server_end.register(reply_credit.clone(), true);
        // Client-side reply ring + credit word, remotely writable by the
        // server.
        let reply_ring = Memory::zeroed(self.config.ring_bytes);
        let reply_ring_rkey = client_end.register(reply_ring.clone(), true);
        let credit_word = Memory::zeroed(8);
        let credit_rkey = client_end.register(credit_word.clone(), true);

        let port = ClientPort {
            qp: server_end,
            request_ring,
            request_consumer: RingConsumer::new(self.config.ring_bytes),
            reply_producer: RingProducer::new(self.config.ring_bytes),
            reply_ring_rkey,
            credit_rkey,
            reply_credit,
            last_reply: Vec::new(),
            last_reply_bytes: Vec::new(),
            last_reply_end: 0,
            last_credit: 0,
        };
        let bundle = ClientBundle {
            client_id,
            session_key: session_key.clone(),
            qp: client_end,
            request_ring_rkey,
            reply_ring,
            credit_word,
            reply_credit_rkey,
            ring_bytes: self.config.ring_bytes,
            mode: self.config.mode,
            expected_oid: 1,
            epoch: 1,
        };
        (port, bundle)
    }

    // Credit write-back: one small one-sided WRITE per sweep (§3.8,
    // "periodically, these threads update clients about the newly
    // available buffer slots using one-sided writes") — skipped when the
    // sweep consumed nothing, so idle clients' credit words are not
    // redundantly rewritten.
    //
    // With `Config::lazy_credit_bytes > 0` the WRITE is also elided while
    // the bytes freed since the last write-back stay under the threshold
    // *and* this sweep popped something from the client (`took_any`). The
    // first sweep that pops nothing flushes the deferred update, so a
    // producer parked on `RingFull` is unblocked within one sweep of going
    // idle — the liveness rule `tests/fastpath.rs` pins.
    pub(super) fn post_credit_update(&mut self, idx: usize, took_any: bool) {
        let lazy = self.config.lazy_credit_bytes as u64;
        let (consumed, last) = {
            let port = self.ingress.ports[idx].as_ref().expect("live port");
            (port.request_consumer.consumed(), port.last_credit)
        };
        if consumed == last {
            if self.config.dirty_ring_sweep {
                self.ingress.credit_pending.remove(&idx);
            }
            return;
        }
        if lazy > 0 && took_any && consumed - last < lazy {
            self.ingress.credits_elided += 1;
            self.obs.inc("server.credits_elided", 1);
            self.trace("ingress", "credit_elided", idx as u64, consumed);
            if self.config.dirty_ring_sweep {
                // Dirty-mode sweeps would otherwise never return to a
                // quiet ring: remember the deferred write-back so the
                // client keeps getting (idle) visits until it flushes.
                self.ingress.credit_pending.insert(idx);
            }
            return;
        }
        if self.config.dirty_ring_sweep {
            self.ingress.credit_pending.remove(&idx);
        }
        let port = self.ingress.ports[idx].as_mut().expect("live port");
        port.last_credit = consumed;
        let credit_rkey = port.credit_rkey;
        let _ = port
            .qp
            .post_write(credit_rkey, 0, &consumed.to_le_bytes(), false);
        self.ingress.credit_writes += 1;
        self.obs.inc("server.credit_writes", 1);
        self.trace("ingress", "credit_write", idx as u64, consumed);
    }

    // Adaptive poll-budget controller (fast path): the budget a sweep
    // grants client `idx`. With the knob off this is the static PR-2
    // budget, bit-for-bit.
    pub(super) fn sweep_budget(&mut self, idx: usize) -> usize {
        if !self.config.adaptive_poll_budget {
            return self.config.poll_budget_per_client;
        }
        let min = self.config.poll_budget_min.max(1);
        let max = self.config.poll_budget_max.max(min);
        if self.ingress.budgets.len() <= idx {
            // New clients start from the static budget, clamped into the
            // adaptive band (`0` = unbounded starts at the ceiling).
            let initial = if self.config.poll_budget_per_client == 0 {
                max
            } else {
                self.config.poll_budget_per_client.clamp(min, max)
            };
            self.ingress.budgets.resize(idx + 1, initial);
        }
        self.ingress.budgets[idx]
    }

    // Controller update after a sweep granted `budget` and popped `taken`
    // records: an empty ring backs off (halve toward the floor), a ring
    // that ate its whole budget bursts (double toward the ceiling), and a
    // partially filled ring holds steady — so the controller converges
    // under static load and never leaves `[min, max]`.
    pub(super) fn adapt_budget(&mut self, idx: usize, taken: usize, budget: usize) {
        if !self.config.adaptive_poll_budget {
            return;
        }
        let min = self.config.poll_budget_min.max(1);
        let max = self.config.poll_budget_max.max(min);
        let cur = self.ingress.budgets[idx];
        let next = if taken == 0 {
            (cur / 2).clamp(min, max)
        } else if taken >= budget {
            cur.saturating_mul(2).clamp(min, max)
        } else {
            cur
        };
        if next != cur {
            self.ingress.budgets[idx] = next;
            self.ingress.budget_adjustments += 1;
            self.obs.inc("server.budget_adjustments", 1);
            self.trace("ingress", "budget_adjust", idx as u64, next as u64);
        }
    }

    // Encodes a reply frame into a pooled buffer when one is spare. The
    // produced bytes are those of `ReplyFrame::encode`.
    pub(super) fn encode_reply(&mut self, reply: &ReplyFrame) -> Vec<u8> {
        let mut buf = match self.ingress.arena.pop() {
            Some(mut b) => {
                b.clear();
                self.obs.inc("server.arena_reuses", 1);
                b
            }
            None => Vec::new(),
        };
        reply.encode_into(&mut buf);
        buf
    }

    // Returns a reply-frame buffer to the arena once nothing references
    // its bytes any more.
    pub(super) fn recycle_reply_buf(&mut self, buf: Vec<u8>) {
        if buf.capacity() > 0 && self.ingress.arena.len() < ARENA_MAX_BUFS {
            self.ingress.arena.push(buf);
        }
    }

    /// Takes the per-operation reports accumulated by [`poll`](Self::poll).
    pub fn take_reports(&mut self) -> Vec<OpReport> {
        self.ingress.reports.drain(..).collect()
    }

    // Pushes a freshly sealed reply into client `idx`'s reply ring.
    // Ring-contiguous chunks from one sweep are coalesced into the
    // per-client [`ReplyBatch`] and posted together at the end of the
    // client's run — the per-sweep reply batching of §3.8. With an
    // adversary installed each record is posted on its own, through the
    // adversary (batching would shrink its attack surface and change what
    // the harness exercises). The meter pays one post per WRITE issued:
    // per coalesced WRITE the record opens in the batch, or per honest
    // WRITE of the record with an adversary installed.
    pub(super) fn emit_fresh(
        &mut self,
        idx: usize,
        reply: ReplyFrame,
        remember: bool,
        batch: &mut ReplyBatch,
        meter: &mut Meter,
    ) {
        let bytes = self.encode_reply(&reply);
        let bytes_len = bytes.len();
        let (writes, end, pushed) = {
            let port = self.ingress.ports[idx].as_mut().expect("live port");
            let mut writes = Vec::with_capacity(2);
            let pushed = port.reply_producer.push_with(&bytes, |off, chunk| {
                writes.push((off, chunk.to_vec()));
            });
            (writes, port.reply_producer.written(), pushed.is_some())
        };
        let posts = match &mut self.adversary {
            Some(adv) => {
                // The adversary may substitute, hold, or duplicate the
                // record's WRITEs before they hit the wire; the WRITEs go
                // through the group-commit gate like every reply WRITE.
                let posted = adv.on_reply_record(idx as u32, writes.clone());
                self.post_or_gate(idx, posted);
                writes.len()
            }
            None => {
                let mut opened = 0;
                for (off, chunk) in &writes {
                    match batch.writes.last_mut() {
                        // Merged chunks ride along in the open WRITE.
                        Some((last_off, last_bytes)) if *last_off + last_bytes.len() == *off => {
                            last_bytes.extend_from_slice(chunk);
                        }
                        _ => {
                            batch.writes.push((*off, chunk.clone()));
                            opened += 1;
                        }
                    }
                }
                opened
            }
        };
        let post = self.cost.server_time(Cycles(self.cost.rdma_post_cycles));
        for _ in 0..posts {
            meter.counters_mut().rdma_posts += 1;
            meter.charge(Stage::ServerCritical, post);
        }
        meter.counters_mut().tx_bytes += bytes_len as u64;
        let port = self.ingress.ports[idx].as_mut().expect("live port");
        let spare = if remember {
            // Remember the *honest* record for retransmissions —
            // retransmits bypass the adversary by design, so a wronged
            // client can always recover the real reply.
            port.last_reply = writes;
            port.last_reply_end = end;
            std::mem::replace(&mut port.last_reply_bytes, bytes)
        } else {
            bytes
        };
        self.recycle_reply_buf(spare);
        if !pushed {
            // Reply ring full: in the real system the worker would retry
            // after the next credit update; the simulation's rings are
            // sized to make this unreachable under the drivers.
            debug_assert!(false, "reply ring full");
        }
    }

    // Posts every coalesced WRITE accumulated for `idx` this sweep
    // (through the group-commit gate, like every reply WRITE).
    pub(super) fn flush_reply_batch(&mut self, idx: usize, batch: &mut ReplyBatch) {
        if batch.writes.is_empty() {
            return;
        }
        let writes = std::mem::take(&mut batch.writes);
        self.post_or_gate(idx, writes);
    }

    // Re-issues the remembered last reply of `idx` (retransmission path).
    pub(super) fn emit_retransmit(&mut self, idx: usize, meter: &mut Meter) {
        let cost = self.cost.clone();
        let writes = {
            let port = self.ingress.ports[idx].as_mut().expect("live port");
            let consumed = port.reply_consumed();
            if consumed >= port.last_reply_end && !port.last_reply_bytes.is_empty() {
                // The client already consumed past the remembered
                // record (it saw an adversary-substituted record there
                // and zeroed the slot): rewriting the old offsets would
                // deposit bytes into consumed ring space. Re-push the
                // remembered record as a fresh one instead — same
                // `reply_seq`, so the client dedups or late-accepts it.
                port.reply_producer.update_credits(consumed);
                let bytes = port.last_reply_bytes.clone();
                let mut writes = Vec::with_capacity(2);
                let _ = port.reply_producer.push_with(&bytes, |off, chunk| {
                    writes.push((off, chunk.to_vec()));
                });
                for (_, chunk) in &writes {
                    meter.counters_mut().rdma_posts += 1;
                    meter.counters_mut().tx_bytes += chunk.len() as u64;
                }
                port.last_reply = writes.clone();
                port.last_reply_end = port.reply_producer.written();
                writes
            } else {
                // Re-issue the last reply's WRITEs verbatim: fills any
                // hole a dropped reply WRITE left in the client's reply
                // ring, without consuming a new reply sequence number.
                for (_, bytes) in &port.last_reply {
                    meter.counters_mut().rdma_posts += 1;
                    meter.counters_mut().tx_bytes += bytes.len() as u64;
                }
                port.last_reply.clone()
            }
        };
        self.post_or_gate(idx, writes);
        meter.charge(
            Stage::ServerCritical,
            cost.server_time(Cycles(cost.rdma_post_cycles)),
        );
    }

    // Bounded report buffer: a caller that never drains take_reports()
    // loses the oldest reports (counted) instead of growing memory. This
    // is also the single choke point every finished op passes, so the
    // per-stage metric taps live here: whatever the bench or test layer
    // does with the reports, the registry has already seen the meter.
    pub(super) fn push_report(&mut self, report: OpReport) {
        self.obs.inc(super::op_metric(report.opcode), 1);
        self.obs.inc(super::status_metric(report.status), 1);
        precursor_obs::observe_meter(&mut self.obs, &report.meter);
        self.trace(
            "report",
            super::op_metric(report.opcode),
            u64::from(report.client_id),
            report.status as u64,
        );
        if self.ingress.reports.len() >= self.config.max_buffered_reports {
            self.ingress.reports.pop_front();
            self.ingress.reports_dropped += 1;
            self.obs.inc("server.reports_dropped", 1);
        }
        self.ingress.reports.push_back(report);
    }
}
