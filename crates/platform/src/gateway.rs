//! Entry- and exit-gateways (paper §IV-C, Fig. 4) — the contribution's
//! hardware embodiment.
//!
//! A gateway pair multiplexes blocks of data from several streams over one
//! chain of accelerators:
//!
//! * the **entry gateway** holds the input C-FIFOs, schedules streams
//!   round-robin, and starts a block only when (1) the pipeline is idle —
//!   the previous block has fully left through the exit gateway — and
//!   (2) the *output* buffer has space for the whole block (`η_out`) and
//!   (3) the input FIFO holds a whole block (`η_in`). Checks (1)+(2) are
//!   exactly the conditions of §III that make the CSDF model valid;
//! * switching streams costs `R_s` cycles of configuration-bus traffic
//!   (saving the previous stream's kernel contexts, restoring the next's);
//! * a small **DMA** then copies the block to the first accelerator at `ε`
//!   cycles/sample under hardware credit flow control;
//! * the **exit gateway** converts the hardware-flow-controlled output back
//!   to software flow control, copying samples into the consumer's C-FIFO
//!   at `δ` cycles/sample, and signals the entry gateway when the block's
//!   last sample has passed (pipeline idle).
//!
//! The idle notification is modelled as shared controller state between the
//! two gateways; its transport latency on the real ring is absorbed into
//! `δ` (both are per-block constants, so the temporal analysis is
//! unaffected).

use crate::accel::{AccelId, AcceleratorTile};
use crate::cfifo::{CFifo, FifoId};
use crate::trace::{StallCause, TraceEvent, Tracer};
use crate::types::{Sample, StreamKernel};
use streamgate_ring::{CreditRx, CreditTx, DualRing, NodeId};

/// Per-stream multiplexing configuration and context storage.
pub struct StreamConfig {
    /// Diagnostic name.
    pub name: String,
    /// Input C-FIFO (at the entry gateway's local memory).
    pub input: FifoId,
    /// Output C-FIFO (at the consumer).
    pub output: FifoId,
    /// Block size in input samples (η_s).
    pub eta_in: usize,
    /// Block size in output samples (η_in divided by the chain's total
    /// decimation factor).
    pub eta_out: usize,
    /// Reconfiguration time R_s in cycles.
    pub reconfig_cycles: u64,
    /// Kernel context per chain accelerator; `None` while installed in the
    /// accelerator (i.e. while this stream is active).
    kernels: Vec<Option<Box<dyn StreamKernel>>>,
    /// Blocks completed.
    pub blocks_done: u64,
    /// Output samples delivered.
    pub samples_out: u64,
}

impl StreamConfig {
    /// Define a stream with its kernel contexts (one per chain accelerator,
    /// in chain order).
    pub fn new(
        name: impl Into<String>,
        input: FifoId,
        output: FifoId,
        eta_in: usize,
        eta_out: usize,
        reconfig_cycles: u64,
        kernels: Vec<Box<dyn StreamKernel>>,
    ) -> Self {
        assert!(eta_in >= 1 && eta_out >= 1, "block sizes must be positive");
        StreamConfig {
            name: name.into(),
            input,
            output,
            eta_in,
            eta_out,
            reconfig_cycles,
            kernels: kernels.into_iter().map(Some).collect(),
            blocks_done: 0,
            samples_out: 0,
        }
    }
}

/// A completed block, for schedule reconstruction (Fig. 6 at system level);
/// also what a [`TraceEvent::BlockEnd`] carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockRecord {
    /// Index of the stream in the gateway's stream list.
    pub stream: usize,
    /// Cycle the reconfiguration started.
    pub start: u64,
    /// Cycle the reconfiguration window (R_s) ended and the DMA could start.
    pub reconfig_end: u64,
    /// Cycle the DMA sent the last input sample.
    pub stream_end: u64,
    /// Cycle the exit gateway saw the last output sample (pipeline idle).
    pub drain_end: u64,
    /// Cycles the entry DMA spent waiting for hardware credits.
    pub dma_stall: u64,
    /// Cycles the exit copy spent waiting for consumer-FIFO space (always 0
    /// while the check-for-space admission is enabled).
    pub exit_stall: u64,
}

impl BlockRecord {
    /// Measured block-processing time `τ` (admission → pipeline empty).
    pub fn tau(&self) -> u64 {
        self.drain_end - self.start
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GwState {
    Idle,
    Reconfig { until: u64 },
    Streaming { sent: usize, next_send: u64 },
    Draining,
}

/// An entry/exit-gateway pair managing one accelerator chain.
pub struct GatewayPair {
    /// Diagnostic name.
    pub name: String,
    /// Ring station of the entry gateway.
    pub entry_node: NodeId,
    /// Ring station of the exit gateway.
    pub exit_node: NodeId,
    /// Managed accelerators, in chain order.
    pub chain: Vec<AccelId>,
    /// Entry DMA cost per sample (ε, 15 cycles in the paper).
    pub dma_cycles_per_sample: u64,
    /// Exit copy cost per sample (δ, 1 cycle in the paper).
    pub exit_cycles_per_sample: u64,
    /// §V-G check-for-space admission test: refuse to start a block unless
    /// the output C-FIFO can hold all of it. Disabling this reproduces the
    /// head-of-line blocking of Fig. 9 (the exit gateway stalls on a full
    /// consumer FIFO with samples wedged in the shared chain).
    pub check_for_space: bool,
    /// Index used to label this gateway's trace events (set by
    /// [`crate::system::System::add_gateway`]).
    pub trace_id: u32,
    /// This pair shares its accelerator chain with other gateway pairs
    /// (paper Fig. 10: more logical uses than physical accelerators).
    /// Kernel presence is the mutex: a block is admitted only when every
    /// chain accelerator is unconfigured and drained; the claim rewires
    /// the chain's boundary NI endpoints onto this pair's links, and the
    /// release (block completion) waits until every credit of the exit
    /// link is back home before removing the kernels, so rewiring
    /// conserves credits exactly.
    pub shared_chain: bool,
    /// NI buffer depth of the chain links (needed to rebuild boundary
    /// endpoints on a shared-chain claim).
    ni_depth: u32,
    /// Cascade fusion enabled: every hop of this pair's geometry (entry →
    /// chain → exit, data and credit rings) is distance-1 and its stations
    /// are disjoint from every pair streaming over a different chain. Set
    /// by the span engine before a span; with it, a DMA send can commit
    /// its whole downstream cascade in closed form (`try_fused_send`).
    pub fuse_ok: bool,
    /// DMA sends whose whole cascade was committed in closed form
    /// (`try_fused_send`); the rest took the wire.
    pub fused_sends: u64,
    /// Samples ever fed into the chain (wire or fused), matched against
    /// the first accelerator's consume counter: a difference means an
    /// entry flit is still on the wire, and a fused commit must never
    /// overtake it.
    chain_fed: u64,
    streams: Vec<StreamConfig>,
    active: Option<usize>,
    rr_next: usize,
    state: GwState,
    /// The check-for-space verdict of the latest admission scan: some
    /// stream had a full input block but no output space. Deferred idle
    /// cycles reuse it (see [`GatewayPair::skip`]).
    space_blocked: bool,
    dma_tx: CreditTx,
    exit_rx: CreditRx<Sample>,
    /// Samples of the current block already pushed to the output FIFO.
    block_received: usize,
    /// Cycle at which the exit copy of the next sample may happen.
    exit_next: u64,
    block_start: u64,
    block_reconfig_end: u64,
    block_dma_start: u64,
    block_stream_end: u64,
    /// Credit-stall cycles of the current block's entry DMA.
    block_dma_stall: u64,
    /// Space-stall cycles of the current block's exit copy.
    block_exit_stall: u64,
    /// Statistics.
    pub reconfig_cycles_total: u64,
    /// DMA busy cycles.
    pub dma_busy_cycles: u64,
    /// Cycles with no stream eligible.
    pub idle_cycles: u64,
    /// Completed blocks in order.
    pub blocks: Vec<BlockRecord>,
}

impl GatewayPair {
    /// Create a gateway pair. `first_accel_node`/`first_stream` describe the
    /// DMA link to the first accelerator; `last_accel_node`/`last_stream`
    /// the link from the last accelerator into the exit gateway. `ni_depth`
    /// is the NI buffer depth (2 in the paper).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        entry_node: NodeId,
        exit_node: NodeId,
        chain: Vec<AccelId>,
        first_accel_node: NodeId,
        first_stream: u32,
        last_accel_node: NodeId,
        last_stream: u32,
        ni_depth: u32,
        dma_cycles_per_sample: u64,
        exit_cycles_per_sample: u64,
    ) -> Self {
        GatewayPair {
            name: name.into(),
            entry_node,
            exit_node,
            chain,
            dma_cycles_per_sample,
            exit_cycles_per_sample,
            check_for_space: true,
            trace_id: 0,
            shared_chain: false,
            ni_depth,
            fuse_ok: false,
            fused_sends: 0,
            chain_fed: 0,
            streams: Vec::new(),
            active: None,
            rr_next: 0,
            state: GwState::Idle,
            space_blocked: false,
            dma_tx: CreditTx::new(entry_node, first_accel_node, first_stream, ni_depth),
            exit_rx: CreditRx::new(exit_node, last_accel_node, last_stream, ni_depth),
            block_received: 0,
            exit_next: 0,
            block_start: 0,
            block_reconfig_end: 0,
            block_dma_start: 0,
            block_stream_end: 0,
            block_dma_stall: 0,
            block_exit_stall: 0,
            reconfig_cycles_total: 0,
            dma_busy_cycles: 0,
            idle_cycles: 0,
            blocks: Vec::new(),
        }
    }

    /// Register a stream; returns its index.
    pub fn add_stream(&mut self, s: StreamConfig) -> usize {
        assert_eq!(
            s.kernels.len(),
            self.chain.len(),
            "stream must provide one kernel per chain accelerator"
        );
        self.streams.push(s);
        self.streams.len() - 1
    }

    /// Online-admission splice: append a stream's table entry while the
    /// system runs. Writing the entry (descriptor plus kernel contexts)
    /// is a configuration-bus transaction bounded by the stream's own
    /// `R_s`, charged to [`GatewayPair::reconfig_cycles_total`] and traced
    /// as a [`TraceEvent::ReconfigWindow`] — the admission controller
    /// schedules the call inside the pair's config-bus slot, which rule A9
    /// guarantees is at least `R_s` long.
    ///
    /// The splice is append-only and therefore legal in *any* gateway
    /// state: the active block's table entry, the round-robin cursor and
    /// the chain's data path are untouched, so in-flight blocks keep their
    /// τ ≤ τ̂ guarantee. The new stream is first considered at the next
    /// idle admission scan. Returns the new stream's index.
    pub fn splice_stream(&mut self, s: StreamConfig, tracer: &mut Tracer, now: u64) -> usize {
        let idx = self.add_stream(s);
        self.charge_reconfig(idx, tracer, now);
        idx
    }

    /// Online-admission splice-out: remove stream `idx`'s table entry and
    /// return it — the one change that shrinks the table. Requires the
    /// pair to be *idle* (no block in flight). A non-shared pair keeps the
    /// last-run stream's kernels installed in the accelerators between
    /// blocks; if that stream is the one leaving, its contexts are saved
    /// back over the configuration bus first (traced as
    /// [`TraceEvent::ConfigSave`]). Stream indices above `idx` shift down
    /// by one — historical [`BlockRecord`]s and trace events keep the
    /// indices that were current when they were recorded.
    pub fn splice_out_stream(
        &mut self,
        idx: usize,
        accels: &mut [AcceleratorTile],
        tracer: &mut Tracer,
        now: u64,
    ) -> StreamConfig {
        assert!(
            self.is_idle(),
            "splice-out requires an idle gateway pair (no block in flight)"
        );
        assert!(idx < self.streams.len(), "stream index out of range");
        match self.active {
            Some(a) if a == idx => self.save_active(accels, tracer, now),
            Some(a) if a > idx => self.active = Some(a - 1),
            _ => {}
        }
        let s = self.streams.remove(idx);
        match self.streams.len() {
            0 => self.rr_next = 0,
            n => {
                if self.rr_next > idx {
                    self.rr_next -= 1;
                }
                self.rr_next %= n;
            }
        }
        s
    }

    /// Config-bus retune: replace stream `idx`'s table entry *in place*
    /// with a new configuration — the one primitive behind both a retune
    /// and a mode switch. Like [`GatewayPair::splice_out_stream`] it
    /// requires an idle pair and saves the leaving configuration's kernel
    /// contexts back over the configuration bus when they are still
    /// installed in the chain ([`TraceEvent::ConfigSave`]); like
    /// [`GatewayPair::splice_stream`] it charges the incoming
    /// configuration's `R_s` as a traced [`TraceEvent::ReconfigWindow`].
    /// The table order and the round-robin cursor are untouched, so every
    /// co-deployed stream keeps both its index and its service position,
    /// and the table keeps the order of the spec it was built from.
    /// Returns the replaced entry.
    pub fn retune_stream(
        &mut self,
        idx: usize,
        s: StreamConfig,
        accels: &mut [AcceleratorTile],
        tracer: &mut Tracer,
        now: u64,
    ) -> StreamConfig {
        assert!(
            self.is_idle(),
            "retune requires an idle gateway pair (no block in flight)"
        );
        assert!(idx < self.streams.len(), "stream index out of range");
        assert_eq!(
            s.kernels.len(),
            self.chain.len(),
            "stream must provide one kernel per chain accelerator"
        );
        if self.active == Some(idx) {
            self.save_active(accels, tracer, now);
        }
        let old = std::mem::replace(&mut self.streams[idx], s);
        self.charge_reconfig(idx, tracer, now);
        old
    }

    /// Save the active stream's kernel contexts out of the chain back into
    /// its table entry over the configuration bus, one
    /// [`TraceEvent::ConfigSave`] per accelerator, and leave no stream
    /// active. A no-op when no stream is active.
    fn save_active(&mut self, accels: &mut [AcceleratorTile], tracer: &mut Tracer, now: u64) {
        let Some(idx) = self.active.take() else {
            return;
        };
        let gw = self.trace_id;
        for (slot, acc) in self.chain.iter().enumerate() {
            let words = accels[acc.0].kernel_state_words() as u32;
            let k = accels[acc.0]
                .remove_kernel()
                .expect("the active stream's kernels are installed in its chain");
            self.streams[idx].kernels[slot] = Some(k);
            tracer.emit(|| TraceEvent::ConfigSave {
                gateway: gw,
                stream: idx as u32,
                accel: acc.0 as u32,
                cycle: now,
                words,
            });
        }
    }

    /// Charge stream `idx`'s reconfiguration time `R_s`, starting at `now`,
    /// to [`GatewayPair::reconfig_cycles_total`] and trace it as a
    /// [`TraceEvent::ReconfigWindow`]. Returns `R_s`.
    fn charge_reconfig(&mut self, idx: usize, tracer: &mut Tracer, now: u64) -> u64 {
        let r = self.streams[idx].reconfig_cycles;
        self.reconfig_cycles_total += r;
        let gw = self.trace_id;
        if r > 0 {
            tracer.emit(|| TraceEvent::ReconfigWindow {
                gateway: gw,
                stream: idx as u32,
                start: now,
                end: now + r,
            });
        }
        r
    }

    /// Streams registered.
    pub fn num_streams(&self) -> usize {
        self.streams.len()
    }

    /// Access a stream's statistics.
    pub fn stream(&self, idx: usize) -> &StreamConfig {
        &self.streams[idx]
    }

    /// True if no block is in flight.
    pub fn is_idle(&self) -> bool {
        self.state == GwState::Idle
    }

    /// A lower bound on the first cycle, at or after `now`, whose top finds
    /// the pair [`GatewayPair::is_idle`] (`now` is the next cycle to run).
    /// It counts only what the in-flight block still has to do at the
    /// entry side: the end of its reconfiguration window, one DMA send per
    /// remaining input sample at most one per `max(ε, 1)` cycles, the step
    /// into `Draining` one cycle after the last send, and the completing
    /// step one cycle after that. The drain itself is not bounded here.
    pub fn earliest_idle(&self, now: u64) -> u64 {
        let eta = || {
            let active = self.active.expect("a block in flight has a stream");
            self.streams[active].eta_in as u64
        };
        let gap = self.dma_cycles_per_sample.max(1);
        // Top of the cycle after the last of `left` sends, the first of
        // which goes at `first` at the earliest: Draining there, complete
        // one step later.
        let after_sends = |first: u64, left: u64| {
            first
                .saturating_add((left - 1).saturating_mul(gap))
                .saturating_add(3)
        };
        match self.state {
            GwState::Idle => now,
            // The step at `max(until, now)` starts the DMA; its first send
            // is one step later.
            GwState::Reconfig { until } => after_sends(until.max(now).saturating_add(1), eta()),
            GwState::Streaming { sent, next_send } => match eta() - sent as u64 {
                0 => now.saturating_add(2),
                left => after_sends(next_send.max(now), left),
            },
            GwState::Draining => now.saturating_add(1),
        }
    }

    /// True while [`GatewayPair::horizon`] reads accelerator state (the
    /// `Draining` arm). In every other state the horizon is a function of
    /// the pair's own state and the C-FIFOs alone, so an engine batching
    /// accelerator-only cycles need not refresh it when an accelerator
    /// steps.
    pub fn horizon_tracks_accels(&self) -> bool {
        self.state == GwState::Draining
    }

    /// True when every chain accelerator is unconfigured and drained: a
    /// shared chain in this state is free to be claimed (kernel presence
    /// is the inter-gateway mutex).
    fn chain_free(&self, accels: &[AcceleratorTile], now: u64) -> bool {
        self.chain
            .iter()
            .all(|a| !accels[a.0].has_kernel() && accels[a.0].is_drained(now))
    }

    /// Round-robin admission scan with the paper's three checks. Returns
    /// the first admissible stream (if any) and whether some stream with
    /// a full input block was held back *solely* by the §V-G
    /// check-for-space test — waiting attributable to the admission test.
    fn admission_scan(&self, fifos: &[CFifo]) -> (Option<usize>, bool) {
        let n = self.streams.len();
        let mut space_blocked = false;
        for k in 0..n {
            let idx = (self.rr_next + k) % n;
            let s = &self.streams[idx];
            let enough_in = fifos[s.input.0].len() >= s.eta_in;
            let enough_out = !self.check_for_space || fifos[s.output.0].space() >= s.eta_out;
            if enough_in && enough_out {
                return (Some(idx), space_blocked);
            }
            space_blocked |= enough_in && !enough_out;
        }
        (None, space_blocked)
    }

    /// Run the admission scan for its check-for-space verdict alone, as an
    /// `Idle` step at this point would. The span engine calls it where a
    /// pair's idle cycles may start deferred: at a run's first cycle
    /// (FIFOs and streams can change between runs) and on block
    /// completion.
    pub(crate) fn rescan(&mut self, fifos: &[CFifo]) {
        self.space_blocked = self.admission_scan(fifos).1;
    }

    /// Commit an admission decision made at cycle `now`: configuration-bus
    /// traffic (save/restore of kernel contexts), shared-chain claim, block
    /// bookkeeping, and the transition into `Reconfig`. Shared between
    /// [`GatewayPair::step`] and [`GatewayPair::run_span`].
    fn admit_block(
        &mut self,
        accels: &mut [AcceleratorTile],
        tracer: &mut Tracer,
        idx: usize,
        now: u64,
    ) {
        let gw = self.trace_id;
        let switching = self.active != Some(idx);
        // Configuration bus: save the previous stream's kernel contexts,
        // restore the next stream's.
        if switching {
            self.save_active(accels, tracer, now);
            if self.shared_chain {
                // Claim: rewire the chain's boundary NI endpoints onto this
                // pair's links. Safe — the chain is free (asserted in the
                // retarget methods) and the previous owner's release waited
                // for the exit link's credits to come home.
                let first = self.chain[0].0;
                let last = self.chain[self.chain.len() - 1].0;
                let rx_stream = self.dma_tx.stream;
                let tx_stream = self.exit_rx.stream;
                accels[first].retarget_rx(now, self.entry_node, rx_stream, self.ni_depth);
                accels[last].retarget_tx(now, self.exit_node, tx_stream, self.ni_depth);
            }
            for (slot, acc) in self.chain.iter().enumerate() {
                let k = self.streams[idx].kernels[slot]
                    .take()
                    .expect("inactive stream owns its kernels");
                let words = k.state_words() as u32;
                accels[acc.0].install_kernel(k);
                tracer.emit(|| TraceEvent::ConfigRestore {
                    gateway: gw,
                    stream: idx as u32,
                    accel: acc.0 as u32,
                    cycle: now,
                    words,
                });
            }
        }
        self.active = Some(idx);
        self.block_start = now;
        self.block_received = 0;
        self.block_dma_stall = 0;
        self.block_exit_stall = 0;
        tracer.emit(|| TraceEvent::BlockStart {
            gateway: gw,
            stream: idx as u32,
            cycle: now,
        });
        // `R_s` is charged per block, even to a block of the stream already
        // configured, as the analysis charges it.
        let r = self.charge_reconfig(idx, tracer, now);
        self.block_reconfig_end = now + r;
        self.state = GwState::Reconfig { until: now + r };
    }

    /// The `Draining` completion condition at cycle `now` (`last` is the
    /// chain's final accelerator index). Uses *visible* credits — credits
    /// that have come home by `now` — so it is exact even when the chain's
    /// exit link committed future-scheduled sends in a span.
    fn drained_at(&self, accels: &[AcceleratorTile], last: usize, now: u64) -> bool {
        let active = self.active.expect("draining implies active");
        self.block_received == self.streams[active].eta_out
            // Anchor: never before the last exit copy's cycle
            // (`exit_next − δ`). Vacuous per-cycle, where `exit_next` can
            // never exceed `now + δ`; in the span engine it stops a
            // delivery-driven re-invocation from completing a block before
            // copies that were committed ahead of the clock.
            && now + self.exit_cycles_per_sample >= self.exit_next
            && self.chain.iter().all(|a| accels[a.0].is_drained(now))
            && self.exit_rx.is_empty()
            && (!self.shared_chain || accels[last].tx.credits_visible(now) == self.ni_depth)
    }

    /// Commit a block completion at cycle `now`: records, trace events,
    /// round-robin advance, shared-chain release, and the transition back
    /// to `Idle`. Shared between [`GatewayPair::step`] and
    /// [`GatewayPair::run_span`].
    fn complete_block(
        &mut self,
        fifos: &[CFifo],
        accels: &mut [AcceleratorTile],
        tracer: &mut Tracer,
        active: usize,
        now: u64,
    ) {
        let gw = self.trace_id;
        self.streams[active].blocks_done += 1;
        let record = BlockRecord {
            stream: active,
            start: self.block_start,
            reconfig_end: self.block_reconfig_end,
            stream_end: self.block_stream_end,
            drain_end: now,
            dma_stall: self.block_dma_stall,
            exit_stall: self.block_exit_stall,
        };
        self.blocks.push(record);
        tracer.emit(|| TraceEvent::DrainPhase {
            gateway: gw,
            stream: active as u32,
            start: record.stream_end,
            end: now,
        });
        tracer.emit(|| TraceEvent::BlockEnd {
            gateway: gw,
            block: record,
        });
        self.rr_next = (active + 1) % self.streams.len();
        if self.shared_chain {
            // Release: save the kernels back and free the chain for the
            // next claimant. The next block — whoever admits it — always
            // reinstalls and pays its full R, matching the analysis.
            self.save_active(accels, tracer, now);
        }
        self.state = GwState::Idle;
        self.rescan(fifos);
    }

    /// One clock cycle of the gateway controller. Structured events (block
    /// phases, stalls) are emitted into `tracer`; pass a disabled tracer for
    /// an untraced run (one branch per emission site).
    pub fn step(
        &mut self,
        ring: &mut DualRing<Sample>,
        fifos: &mut [CFifo],
        accels: &mut [AcceleratorTile],
        tracer: &mut Tracer,
        now: u64,
    ) {
        debug_assert_eq!(ring.cycle(), now, "lock-step tile off the ring clock");
        let gw = self.trace_id;
        // ---- exit gateway side: drain the chain into the output FIFO ----
        self.exit_rx.poll_data(ring);
        if let Some(active) = self.active {
            if self.block_received < self.streams[active].eta_out
                && now >= self.exit_next
                && !self.exit_rx.is_empty()
            {
                let out_fifo = self.streams[active].output;
                if fifos[out_fifo.0].space() == 0 {
                    assert!(
                        !self.check_for_space,
                        "exit gateway found no space — the check-for-space admission is broken"
                    );
                    // Fig. 9: with the admission test disabled the sample
                    // stays wedged in the NI buffer and back-pressures the
                    // whole shared chain (head-of-line blocking).
                    self.block_exit_stall += 1;
                    tracer.stall_cycle(gw, StallCause::ExitFifoFull, now);
                } else {
                    let s = self.exit_rx.pop_at(ring, now).expect("non-empty exit rx");
                    let ok = fifos[out_fifo.0].try_push(s, now);
                    debug_assert!(ok, "space was checked above");
                    self.block_received += 1;
                    self.streams[active].samples_out += 1;
                    self.exit_next = now + self.exit_cycles_per_sample;
                }
            }
        }

        // ---- entry gateway side ----
        self.dma_tx.poll_credits(ring);
        match self.state {
            GwState::Idle => {
                let (mut picked, space_blocked) = self.admission_scan(fifos);
                if self.shared_chain && picked.is_some() && !self.chain_free(accels, now) {
                    // Another pair owns the chain: wait. The horizon keeps
                    // this gateway stepping per-cycle (an admissible stream
                    // is pending), so the claim lands on the exact cycle
                    // the chain is released — in both engines.
                    picked = None;
                }
                match picked {
                    None => {
                        self.idle_cycles += 1;
                        if space_blocked {
                            tracer.stall_cycle(gw, StallCause::CheckForSpace, now);
                        }
                    }
                    Some(idx) => self.admit_block(accels, tracer, idx, now),
                }
            }
            GwState::Reconfig { until } => {
                if now >= until {
                    self.block_dma_start = now;
                    self.state = GwState::Streaming {
                        sent: 0,
                        next_send: now,
                    };
                }
            }
            GwState::Streaming { sent, next_send } => {
                let active = self.active.expect("streaming implies active");
                if sent == self.streams[active].eta_in {
                    self.block_stream_end = now;
                    tracer.emit(|| TraceEvent::DmaPhase {
                        gateway: gw,
                        stream: active as u32,
                        start: self.block_dma_start,
                        end: now,
                        samples: self.streams[active].eta_in as u32,
                    });
                    self.state = GwState::Draining;
                } else if now >= next_send {
                    // ε cycles per sample, gated by hardware credits.
                    if self.dma_tx.credits() > 0 {
                        let in_fifo = self.streams[active].input;
                        let s = fifos[in_fifo.0]
                            .pop()
                            .expect("admission guaranteed a full block");
                        let ok = self.dma_tx.send_at(ring, s, now);
                        debug_assert!(ok);
                        self.chain_fed += 1;
                        self.dma_busy_cycles += self.dma_cycles_per_sample;
                        self.state = GwState::Streaming {
                            sent: sent + 1,
                            next_send: now + self.dma_cycles_per_sample,
                        };
                    } else {
                        // Out of credits — the chain is back-pressuring;
                        // wait (this is the accelerator-stall path of §IV-B).
                        self.block_dma_stall += 1;
                        tracer.stall_cycle(gw, StallCause::DmaNoCredit, now);
                    }
                }
            }
            GwState::Draining => {
                let active = self.active.expect("draining implies active");
                let last = self.chain[self.chain.len() - 1].0;
                if self.shared_chain {
                    // The release must wait for the exit link's credits to
                    // come home (rewiring conservation), and an idle
                    // accelerator only polls on its own decision cycles —
                    // so the owner polls for it.
                    accels[last].tx.poll_credits(ring);
                }
                let drained = self.drained_at(accels, last, now);
                if drained {
                    self.complete_block(fifos, accels, tracer, active, now);
                }
            }
        }
    }

    /// Quiescence horizon: the earliest cycle `>= next` at which stepping
    /// this gateway pair could do anything beyond the bookkeeping that
    /// [`GatewayPair::skip`] replays, assuming no flit arrives in between
    /// (`next` is the next cycle the system would execute). `u64::MAX`
    /// means externally driven: only ring deliveries — which keep the
    /// *ring's* horizon short — can make it act.
    pub fn horizon(&self, fifos: &[CFifo], accels: &[AcceleratorTile], next: u64) -> u64 {
        // Exit side: a buffered sample is copied out at `exit_next` (or
        // stalls per-cycle on a full FIFO, which also needs stepping).
        let mut h = u64::MAX;
        if let Some(active) = self.active {
            if self.block_received < self.streams[active].eta_out && !self.exit_rx.is_empty() {
                h = self.exit_next.max(next);
            }
        }
        // Entry side, by state.
        let eh = match self.state {
            GwState::Idle => {
                let (picked, _) = self.admission_scan(fifos);
                if picked.is_some() {
                    next // a block can be admitted right away
                } else {
                    // No admissible stream: only a producer/consumer (which
                    // forces its own step) can change the scan's outcome.
                    u64::MAX
                }
            }
            GwState::Reconfig { until } => until.max(next),
            GwState::Streaming { sent, next_send } => {
                let active = self.active.expect("streaming implies active");
                if sent == self.streams[active].eta_in {
                    // Transition to Draining, anchored one step after the
                    // last send (`next` once the clock has passed it).
                    (next_send + 1)
                        .saturating_sub(self.dma_cycles_per_sample)
                        .max(next)
                } else {
                    // Next DMA send at `next_send`; if it then stalls on
                    // credits the horizon collapses to per-cycle stepping,
                    // keeping stall accounting exact.
                    next_send.max(next)
                }
            }
            GwState::Draining => {
                let active = self.active.expect("draining implies active");
                let drained = self.block_received == self.streams[active].eta_out
                    && self.chain.iter().all(|a| accels[a.0].is_drained(next))
                    && self.exit_rx.is_empty();
                if drained {
                    // Block completes — or, on a shared chain, the owner
                    // polls the exit link's credits home per-cycle before
                    // releasing; both require stepping now.
                    next
                } else if self.block_received == self.streams[active].eta_out
                    && self.exit_rx.is_empty()
                {
                    // Exit work is done: completion waits only on the
                    // chain's in-flight firings, which end by pure time
                    // passage — invisible to the accelerators' own
                    // horizons, so the *gateway* must pin the flip cycle
                    // or a skip would overshoot it.
                    let mut flip = next;
                    for a in &self.chain {
                        let acc = &accels[a.0];
                        if !acc.is_drained(next) {
                            flip = flip.max(acc.drain_cycle(next));
                        }
                    }
                    flip
                } else {
                    // Completion is driven by accelerator/ring progress,
                    // each of which bounds the global horizon itself.
                    u64::MAX
                }
            }
        };
        h.min(eh)
    }

    /// Account for the deferred cycles `[from, to)` — the bulk equivalent
    /// of stepping through them, valid because the caller guarantees `to`
    /// does not exceed the pair's [`GatewayPair::horizon`]. Only `Idle`
    /// accrues anything per cycle: idle time and, under a full trace,
    /// check-for-space stall cycles. Those reuse the verdict of the latest
    /// admission scan instead of re-running it (the replay is lazy, so
    /// later pushes may already be visible): the engine wakes the pair
    /// whenever another tile changes a FIFO the scan reads. The flight
    /// recorder does not attribute deferred cycles (DESIGN §12).
    pub fn skip(&mut self, tracer: &mut Tracer, from: u64, to: u64) {
        debug_assert!(to > from);
        if self.state == GwState::Idle {
            self.idle_cycles += to - from;
            if self.space_blocked && tracer.is_full() {
                tracer.stall_span(self.trace_id, StallCause::CheckForSpace, from, to);
            }
        }
    }

    /// FIFOs whose mutation *by another tile* can change this pair's
    /// behaviour: stream inputs (admission scan, DMA source) and outputs
    /// (admission space check, exit-copy space check).
    pub fn watched_fifos(&self) -> Vec<usize> {
        let mut v: Vec<usize> = Vec::new();
        for s in &self.streams {
            v.push(s.input.0);
            v.push(s.output.0);
        }
        v.sort_unstable();
        v.dedup();
        v
    }

    /// FIFOs this pair mutates: stream inputs (entry-DMA pops) and outputs
    /// (exit-copy pushes).
    pub fn touched_fifos(&self) -> Vec<usize> {
        self.watched_fifos()
    }

    /// Advance this pair across `[from, to)` in closed form, committing the
    /// same FIFO operations, ring traffic (as scheduled sends), counters and
    /// trace timestamps that per-cycle stepping would. Returns
    /// `(covered, horizon)`: cycles `[from, covered)` are fully accounted
    /// for; the pair next needs attention at `horizon`.
    ///
    /// Exactness contract (guaranteed by the span engine): no other tile
    /// acts and no ring flit is delivered within `[from, to)`, so C-FIFO
    /// state, NI buffers and credit counters observed here are the values
    /// per-cycle stepping would observe at every cycle of the window. The
    /// span stops early — degrading to per-cycle semantics — at state
    /// transitions, stalls, and after any cycle that mutated a FIFO some
    /// other tile watches (`watched`), so cross-tile reactions happen on
    /// their exact cycles.
    #[allow(clippy::too_many_arguments)]
    pub fn run_span(
        &mut self,
        ring: &mut DualRing<Sample>,
        fifos: &mut [CFifo],
        accels: &mut [AcceleratorTile],
        tracer: &mut Tracer,
        from: u64,
        to: u64,
        hard_end: u64,
        watched: &[bool],
    ) -> (u64, u64) {
        debug_assert!(from < to);
        let gw = self.trace_id;
        self.exit_rx.poll_data(ring);
        self.dma_tx.poll_credits(ring);
        match self.state {
            GwState::Idle => {
                let (mut picked, space_blocked) = self.admission_scan(fifos);
                self.space_blocked = space_blocked;
                if self.shared_chain && picked.is_some() && !self.chain_free(accels, from) {
                    picked = None;
                }
                match picked {
                    None => {
                        self.idle_cycles += 1;
                        if space_blocked {
                            tracer.stall_cycle(gw, StallCause::CheckForSpace, from);
                        }
                    }
                    Some(idx) => self.admit_block(accels, tracer, idx, from),
                }
                (from + 1, self.horizon(fifos, accels, from + 1))
            }
            GwState::Reconfig { until } => {
                if from >= until {
                    self.block_dma_start = from;
                    self.state = GwState::Streaming {
                        sent: 0,
                        next_send: from,
                    };
                }
                (from + 1, self.horizon(fifos, accels, from + 1))
            }
            GwState::Streaming { .. } => {
                self.stream_span(ring, fifos, accels, tracer, from, to, hard_end, watched)
            }
            GwState::Draining => self.drain_span(ring, fifos, accels, tracer, from, to, watched),
        }
    }

    /// Commit the DMA send at `tau` *and its entire downstream cascade* in
    /// closed form: each chain accelerator's consume, firing and forward,
    /// every credit return, and the ring-transit statistics (and, with
    /// the delivery log on, the log records) of every interior hop —
    /// without waking a single accelerator. Only the final exit-bound
    /// flit is physically scheduled, so the exit delivery wakes the pair
    /// through the normal path. Returns `false` (committing nothing) when
    /// any precondition fails; the caller then takes the wire path, which
    /// is exact in every state. `hard_end` is where the run next stands
    /// still: its end, or under a full trace the cycle after its next
    /// sample point.
    ///
    /// Exactness rests on distance-1 cell confinement: while
    /// [`DualRing::multi_hop_quiet`] holds, every flit injects and ejects
    /// within one ring step, occupying a single `(cycle, station)` cell —
    /// phantom (fused) and real flits cannot contend, so the cascade's
    /// per-cycle timeline is the deterministic pattern committed here:
    /// accelerator `i` consumes at `tau + 1 + 2i` (its credit landing
    /// upstream a cycle later) and forwards at `tau + 2 + 2i`. The
    /// remaining gates pin down that per-cycle stepping really would
    /// replay that pattern: every chain stage idle and empty by its
    /// arrival cycle, no earlier entry/interior flit still on the wire
    /// (consume counters match feed counters — a fused firing must never
    /// overtake a wire sample into a stateful kernel), and every hop's
    /// credit available at its spend cycle in closed form.
    #[allow(clippy::too_many_arguments)]
    fn try_fused_send(
        &mut self,
        ring: &mut DualRing<Sample>,
        fifos: &mut [CFifo],
        accels: &mut [AcceleratorTile],
        in_fifo: usize,
        tau: u64,
        hard_end: u64,
    ) -> bool {
        if self.chain.is_empty()
            || !ring.multi_hop_quiet()
            || !self.dma_tx.available_at(tau)
            || accels[self.chain[0].0].samples_in != self.chain_fed
        {
            return false;
        }
        let len = self.chain.len();
        let mut arrival = tau + 1;
        for (i, a) in self.chain.iter().enumerate() {
            let acc = &accels[a.0];
            if !acc.has_kernel() || !acc.is_drained(arrival) {
                return false;
            }
            // Every phantom event — consume and credit return at `arrival`,
            // forward at `arrival + 1`, busy accrual through
            // `arrival + rho - 1` — must fall on a cycle the run actually
            // executes, else the run-end state would run ahead of the
            // per-cycle reference.
            if arrival + 2 > hard_end || arrival + acc.cycles_per_sample > hard_end {
                return false;
            }
            if i + 1 < len && acc.samples_out != accels[self.chain[i + 1].0].samples_in {
                return false;
            }
            if !acc.tx.available_at(arrival + 1) {
                return false;
            }
            arrival += 2;
        }

        let now = ring.cycle();
        let s = fifos[in_fifo]
            .pop()
            .expect("admission guaranteed a full block");
        let took = self.dma_tx.take_at(tau, now);
        debug_assert!(took, "availability was checked above");
        self.chain_fed += 1;
        self.fused_sends += 1;
        let mut payload = s;
        let first_node = accels[self.chain[0].0].node;
        let mut arrival = ring.fused_data_stats(self.entry_node, first_node, tau);
        for (i, a) in self.chain.iter().enumerate() {
            let acc = &mut accels[a.0];
            let (node, upstream) = (acc.node, acc.rx.remote);
            let out = acc.fused_consume(payload, arrival);
            // The consume's credit leaves at `arrival`, landing one hop
            // upstream the next cycle.
            let credit_arrival = ring.fused_credit_stats(node, upstream, arrival);
            if i == 0 {
                self.dma_tx.fused_return(credit_arrival);
            } else {
                accels[self.chain[i - 1].0].tx.fused_return(credit_arrival);
            }
            let Some(out) = out else {
                return true; // decimated: the cascade ends here
            };
            if i + 1 == len {
                // Final hop into the exit gateway: a real scheduled send.
                let sent = accels[a.0].tx.send_at(ring, out, arrival + 1);
                debug_assert!(sent, "availability was checked above");
                accels[a.0].fused_forward(arrival + 1);
            } else {
                let next_node = accels[self.chain[i + 1].0].node;
                let acc = &mut accels[a.0];
                let took = acc.tx.take_at(arrival + 1, now);
                debug_assert!(took, "availability was checked above");
                acc.fused_forward(arrival + 1);
                arrival = ring.fused_data_stats(node, next_node, arrival + 1);
                payload = out;
            }
        }
        true
    }

    /// `Streaming` arm of [`GatewayPair::run_span`]: merge ε-paced DMA sends
    /// and δ-paced exit copies in time order (a per-cycle step does the exit
    /// copy before the entry action, so ties process the exit side first).
    #[allow(clippy::too_many_arguments)]
    fn stream_span(
        &mut self,
        ring: &mut DualRing<Sample>,
        fifos: &mut [CFifo],
        accels: &mut [AcceleratorTile],
        tracer: &mut Tracer,
        from: u64,
        to: u64,
        hard_end: u64,
        watched: &[bool],
    ) -> (u64, u64) {
        let gw = self.trace_id;
        let active = self.active.expect("streaming implies active");
        let eta_in = self.streams[active].eta_in;
        let eta_out = self.streams[active].eta_out;
        let in_fifo = self.streams[active].input.0;
        let out_fifo = self.streams[active].output.0;
        let eps = self.dma_cycles_per_sample;
        let GwState::Streaming {
            mut sent,
            mut next_send,
        } = self.state
        else {
            unreachable!("stream_span requires Streaming state")
        };
        let mut t = from;
        loop {
            let e = if self.block_received < eta_out && !self.exit_rx.is_empty() {
                self.exit_next.max(t)
            } else {
                u64::MAX
            };
            // The flip to Draining happens one per-cycle step after the
            // last send — anchor it there, so a delivery-driven
            // re-invocation at an earlier cycle (inside already-committed
            // territory) cannot flip early.
            let s_t = if sent == eta_in {
                (next_send + 1).saturating_sub(eps).max(t)
            } else {
                next_send.max(t)
            };
            let tau = e.min(s_t);
            if tau >= to {
                break;
            }
            let mut mutated = false;
            let mut stalled = false;
            // Exit copy first — per-cycle step order within a cycle.
            if e == tau {
                if fifos[out_fifo].space() == 0 {
                    assert!(
                        !self.check_for_space,
                        "exit gateway found no space — the check-for-space admission is broken"
                    );
                    self.block_exit_stall += 1;
                    tracer.stall_cycle(gw, StallCause::ExitFifoFull, tau);
                    stalled = true;
                } else {
                    let s = self.exit_rx.pop_at(ring, tau).expect("non-empty exit rx");
                    let ok = fifos[out_fifo].try_push(s, tau);
                    debug_assert!(ok, "space was checked above");
                    self.block_received += 1;
                    self.streams[active].samples_out += 1;
                    self.exit_next = tau + self.exit_cycles_per_sample;
                    mutated |= watched[out_fifo];
                }
            }
            if s_t == tau {
                if sent == eta_in {
                    // The step after the last send flips to Draining.
                    self.block_stream_end = tau;
                    tracer.emit(|| TraceEvent::DmaPhase {
                        gateway: gw,
                        stream: active as u32,
                        start: self.block_dma_start,
                        end: tau,
                        samples: eta_in as u32,
                    });
                    self.state = GwState::Draining;
                    return (tau + 1, self.horizon(fifos, accels, tau + 1));
                }
                if self.fuse_ok && self.try_fused_send(ring, fifos, accels, in_fifo, tau, hard_end)
                {
                    // Whole cascade committed in closed form; only the
                    // shared send bookkeeping remains.
                } else {
                    if self.dma_tx.credits() == 0 {
                        // Back-pressure. The credit counter was polled at
                        // `from` and this window's own sends can already
                        // have turned into returning credits by `tau` — so
                        // the stall may only be committed with a fresh
                        // poll. At `tau > from` end the span instead; the
                        // engine re-invokes with the ring synced to `tau`,
                        // and if the counter is still 0 the stall commits
                        // then, exactly per-cycle.
                        if tau > from {
                            self.state = GwState::Streaming { sent, next_send };
                            return (tau, tau);
                        }
                        self.block_dma_stall += 1;
                        tracer.stall_cycle(gw, StallCause::DmaNoCredit, tau);
                        self.state = GwState::Streaming { sent, next_send };
                        return (tau + 1, tau + 1);
                    }
                    let s = fifos[in_fifo]
                        .pop()
                        .expect("admission guaranteed a full block");
                    let ok = self.dma_tx.send_at(ring, s, tau);
                    debug_assert!(ok);
                    self.chain_fed += 1;
                }
                self.dma_busy_cycles += eps;
                sent += 1;
                next_send = tau + eps;
                mutated |= watched[in_fifo];
            }
            t = tau + 1;
            if stalled {
                self.state = GwState::Streaming { sent, next_send };
                return (t, t);
            }
            if mutated {
                self.state = GwState::Streaming { sent, next_send };
                return (t, self.horizon(fifos, accels, t));
            }
        }
        self.state = GwState::Streaming { sent, next_send };
        (t.max(from), self.horizon(fifos, accels, t.max(from)))
    }

    /// `Draining` arm of [`GatewayPair::run_span`]: δ-paced exit copies with
    /// the completion check replayed at every processed cycle (between copy
    /// cycles the check provably fails — exit work is pending — so skipping
    /// it is exact).
    #[allow(clippy::too_many_arguments)]
    fn drain_span(
        &mut self,
        ring: &mut DualRing<Sample>,
        fifos: &mut [CFifo],
        accels: &mut [AcceleratorTile],
        tracer: &mut Tracer,
        from: u64,
        to: u64,
        watched: &[bool],
    ) -> (u64, u64) {
        let gw = self.trace_id;
        let active = self.active.expect("draining implies active");
        let eta_out = self.streams[active].eta_out;
        let out_fifo = self.streams[active].output.0;
        let last = self.chain[self.chain.len() - 1].0;
        let mut t = from;
        loop {
            if self.shared_chain {
                accels[last].tx.poll_credits(ring);
            }
            let copy_due = self.block_received < eta_out && !self.exit_rx.is_empty();
            let mut mutated = false;
            if copy_due && self.exit_next <= t {
                if fifos[out_fifo].space() == 0 {
                    assert!(
                        !self.check_for_space,
                        "exit gateway found no space — the check-for-space admission is broken"
                    );
                    self.block_exit_stall += 1;
                    tracer.stall_cycle(gw, StallCause::ExitFifoFull, t);
                    return (t + 1, t + 1);
                }
                let s = self.exit_rx.pop_at(ring, t).expect("non-empty exit rx");
                let ok = fifos[out_fifo].try_push(s, t);
                debug_assert!(ok, "space was checked above");
                self.block_received += 1;
                self.streams[active].samples_out += 1;
                self.exit_next = t + self.exit_cycles_per_sample;
                mutated = watched[out_fifo];
            }
            // Completion check at cycle `t` (after the copy, matching the
            // per-cycle order within a step).
            if self.drained_at(accels, last, t) {
                self.complete_block(fifos, accels, tracer, active, t);
                return (t + 1, self.horizon(fifos, accels, t + 1));
            }
            if mutated {
                return (t + 1, self.horizon(fifos, accels, t + 1));
            }
            // Next cycle worth processing: the next copy. While exit work
            // is pending the completion check fails on every intermediate
            // cycle, so those need no replay; once no copy fits the window,
            // the horizon (flip pin / per-cycle collapse / external wait)
            // takes over.
            if self.block_received >= eta_out || self.exit_rx.is_empty() {
                return (t + 1, self.horizon(fifos, accels, t + 1));
            }
            let nxt = self.exit_next.max(t + 1);
            if nxt >= to {
                return (t + 1, self.horizon(fifos, accels, t + 1));
            }
            t = nxt;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DownsampleKernel, PassthroughKernel, ScaleKernel};

    /// Harness: 1 gateway pair, 1 accelerator, N streams with scale kernels.
    struct Harness {
        ring: DualRing<Sample>,
        fifos: Vec<CFifo>,
        accels: Vec<AcceleratorTile>,
        gw: GatewayPair,
        tracer: Tracer,
        now: u64,
    }

    impl Harness {
        /// Streams: (gain, eta_in, eta_out, kernel) with shared single accel.
        fn new(streams: Vec<(usize, usize, Box<dyn StreamKernel>)>, reconfig: u64) -> Self {
            // nodes: 0 = entry, 1 = accel, 2 = exit.
            let mut fifos = Vec::new();
            let accel = AcceleratorTile::new("acc", 1, 0, 100, 2, 101, 2, 1);
            let mut gw = GatewayPair::new(
                "gw",
                0,
                2,
                vec![AccelId(0)],
                1,
                100, // first accel link
                1,
                101, // last accel link
                2,
                3, // ε
                1, // δ
            );
            for (i, (eta_in, eta_out, kernel)) in streams.into_iter().enumerate() {
                let inf = FifoId(fifos.len());
                fifos.push(CFifo::new(format!("in{i}"), 4096));
                let outf = FifoId(fifos.len());
                fifos.push(CFifo::new(format!("out{i}"), 4096));
                gw.add_stream(StreamConfig::new(
                    format!("s{i}"),
                    inf,
                    outf,
                    eta_in,
                    eta_out,
                    reconfig,
                    vec![kernel],
                ));
            }
            Harness {
                ring: DualRing::new(4),
                fifos,
                accels: vec![accel],
                gw,
                tracer: Tracer::disabled(),
                now: 0,
            }
        }

        fn run(&mut self, cycles: u64) {
            for _ in 0..cycles {
                self.gw.step(
                    &mut self.ring,
                    &mut self.fifos,
                    &mut self.accels,
                    &mut self.tracer,
                    self.now,
                );
                for a in &mut self.accels {
                    a.step(&mut self.ring, self.now);
                }
                self.ring.step();
                self.now += 1;
            }
        }

        fn fill_input(&mut self, stream: usize, n: usize) {
            let id = self.gw.stream(stream).input;
            for k in 0..n {
                assert!(self.fifos[id.0].try_push((k as f64, 0.0), self.now));
            }
        }

        fn output_len(&self, stream: usize) -> usize {
            self.fifos[self.gw.stream(stream).output.0].len()
        }
    }

    #[test]
    fn single_stream_block_processed() {
        let mut h = Harness::new(vec![(8, 8, Box::new(ScaleKernel::new(2.0)))], 10);
        h.fill_input(0, 8);
        h.run(400);
        assert_eq!(h.output_len(0), 8);
        assert_eq!(h.gw.stream(0).blocks_done, 1);
        let out = &h.fifos[h.gw.stream(0).output.0];
        assert_eq!(out.len(), 8);
        // Scaled by 2.
        let mut f = h.fifos[h.gw.stream(0).output.0].clone();
        assert_eq!(f.pop(), Some((0.0, 0.0)));
        assert_eq!(f.pop(), Some((2.0, 0.0)));
    }

    #[test]
    fn splice_in_mid_block_leaves_active_block_untouched() {
        let mut h = Harness::new(vec![(8, 8, Box::new(ScaleKernel::new(2.0)))], 10);
        h.fill_input(0, 8);
        // Step into the in-flight block (reconfig window), then splice.
        h.run(5);
        assert!(!h.gw.is_idle());
        let active_before = h.gw.active;
        let rr_before = h.gw.rr_next;
        let inf = FifoId(h.fifos.len());
        h.fifos.push(CFifo::new("in-j", 4096));
        let outf = FifoId(h.fifos.len());
        h.fifos.push(CFifo::new("out-j", 4096));
        let idx = h.gw.splice_stream(
            StreamConfig::new(
                "joined",
                inf,
                outf,
                4,
                4,
                10,
                vec![Box::new(PassthroughKernel)],
            ),
            &mut Tracer::disabled(),
            h.now,
        );
        assert_eq!(idx, 1);
        // Append-only: the in-flight block and the scan cursor are exactly
        // where they were.
        assert_eq!(h.gw.active, active_before);
        assert_eq!(h.gw.rr_next, rr_before);
        for k in 0..4 {
            assert!(h.fifos[inf.0].try_push((k as f64, 0.0), h.now));
        }
        h.run(600);
        assert_eq!(h.gw.stream(0).blocks_done, 1, "original block completed");
        assert_eq!(h.gw.stream(1).blocks_done, 1, "spliced stream ran");
        assert_eq!(h.fifos[outf.0].len(), 4);
    }

    #[test]
    fn splice_out_recovers_kernels_and_fixes_cursor() {
        let mut h = Harness::new(
            vec![
                (8, 8, Box::new(ScaleKernel::new(2.0))),
                (8, 8, Box::new(ScaleKernel::new(3.0))),
            ],
            10,
        );
        h.fill_input(0, 8);
        h.run(600);
        assert!(h.gw.is_idle());
        // Non-shared pair: stream 0's kernels are still installed in the
        // accelerators between blocks (lazy save), so the table slot is
        // empty until the splice-out pulls them back.
        assert_eq!(h.gw.active, Some(0));
        assert!(h.gw.streams[0].kernels[0].is_none());
        let removed =
            h.gw.splice_out_stream(0, &mut h.accels, &mut Tracer::disabled(), h.now);
        assert_eq!(removed.name, "s0");
        assert!(
            removed.kernels.iter().all(Option::is_some),
            "contexts saved back into the leaving stream's table entry"
        );
        assert_eq!(h.gw.active, None);
        assert_eq!(h.gw.num_streams(), 1);
        assert_eq!(h.gw.rr_next, 0);
        // The surviving stream (old index 1, now 0) still works.
        h.fill_input(0, 8);
        h.run(600);
        assert_eq!(h.gw.stream(0).blocks_done, 1);
    }

    #[test]
    fn retune_in_place_preserves_table_order_and_recovers_kernels() {
        let mut h = Harness::new(
            vec![
                (8, 8, Box::new(ScaleKernel::new(2.0))),
                (8, 8, Box::new(ScaleKernel::new(3.0))),
            ],
            10,
        );
        h.fill_input(0, 8);
        h.run(600);
        assert!(h.gw.is_idle());
        // Stream 0's kernels are lazily left installed in the chain: the
        // retune must save them back before the entry is replaced.
        assert_eq!(h.gw.active, Some(0));
        let rr_before = h.gw.rr_next;
        let inf = FifoId(h.fifos.len());
        h.fifos.push(CFifo::new("in-r", 4096));
        let outf = FifoId(h.fifos.len());
        h.fifos.push(CFifo::new("out-r", 4096));
        let old = h.gw.retune_stream(
            0,
            StreamConfig::new(
                "s0",
                inf,
                outf,
                4,
                4,
                10,
                vec![Box::new(ScaleKernel::new(5.0))],
            ),
            &mut h.accels,
            &mut Tracer::disabled(),
            h.now,
        );
        assert_eq!(old.name, "s0");
        assert!(
            old.kernels.iter().all(Option::is_some),
            "contexts saved back into the replaced entry"
        );
        assert_eq!(h.gw.active, None);
        assert_eq!(h.gw.num_streams(), 2, "in place: table size unchanged");
        assert_eq!(h.gw.rr_next, rr_before, "cursor untouched");
        assert_eq!(h.gw.stream(1).name, "s1", "other stream keeps its slot");
        // The retuned entry runs with its new block size and kernel.
        for k in 0..4 {
            assert!(h.fifos[inf.0].try_push((k as f64 + 1.0, 0.0), h.now));
        }
        h.run(600);
        assert_eq!(h.gw.stream(0).blocks_done, 1, "retuned stream ran");
        assert_eq!(h.fifos[outf.0].len(), 4);
        let mut f = h.fifos[outf.0].clone();
        assert_eq!(f.pop(), Some((5.0, 0.0)), "new kernel in force");
    }

    #[test]
    #[should_panic(expected = "retune requires an idle gateway pair")]
    fn retune_refuses_in_flight_block() {
        let mut h = Harness::new(vec![(8, 8, Box::new(PassthroughKernel))], 10);
        let inf = h.gw.stream(0).input;
        let outf = h.gw.stream(0).output;
        h.fill_input(0, 8);
        h.run(5);
        assert!(!h.gw.is_idle());
        h.gw.retune_stream(
            0,
            StreamConfig::new("s0", inf, outf, 4, 4, 10, vec![Box::new(PassthroughKernel)]),
            &mut h.accels,
            &mut Tracer::disabled(),
            h.now,
        );
    }

    #[test]
    #[should_panic(expected = "splice-out requires an idle gateway pair")]
    fn splice_out_refuses_in_flight_block() {
        let mut h = Harness::new(vec![(8, 8, Box::new(PassthroughKernel))], 10);
        h.fill_input(0, 8);
        h.run(5);
        assert!(!h.gw.is_idle());
        h.gw.splice_out_stream(0, &mut h.accels, &mut Tracer::disabled(), h.now);
    }

    #[test]
    fn no_start_without_full_block() {
        let mut h = Harness::new(vec![(8, 8, Box::new(PassthroughKernel))], 10);
        h.fill_input(0, 7); // one short
        h.run(200);
        assert_eq!(h.gw.stream(0).blocks_done, 0);
        assert!(h.gw.is_idle());
        assert!(h.gw.idle_cycles > 0);
    }

    #[test]
    fn check_for_space_blocks_admission() {
        // Output FIFO too small for a whole block: the gateway must never
        // start the block (paper §V-G).
        let mut h = Harness::new(vec![(8, 8, Box::new(PassthroughKernel))], 10);
        let out_id = h.gw.stream(0).output;
        h.fifos[out_id.0] = CFifo::new("small", 4); // space < eta_out
        h.fill_input(0, 16);
        h.run(400);
        assert_eq!(h.gw.stream(0).blocks_done, 0, "block must not start");
    }

    #[test]
    fn two_streams_round_robin() {
        let mut h = Harness::new(
            vec![
                (4, 4, Box::new(ScaleKernel::new(1.0))),
                (4, 4, Box::new(ScaleKernel::new(10.0))),
            ],
            5,
        );
        h.fill_input(0, 8);
        h.fill_input(1, 8);
        h.run(1200);
        assert_eq!(h.gw.stream(0).blocks_done, 2);
        assert_eq!(h.gw.stream(1).blocks_done, 2);
        // Blocks must alternate: s0, s1, s0, s1.
        let order: Vec<usize> = h.gw.blocks.iter().map(|b| b.stream).collect();
        assert_eq!(order, vec![0, 1, 0, 1]);
        // Stream 1's samples scaled by 10 (state kept across its two blocks).
        let mut f = h.fifos[h.gw.stream(1).output.0].clone();
        assert_eq!(f.pop(), Some((0.0, 0.0)));
        assert_eq!(f.pop(), Some((10.0, 0.0)));
    }

    #[test]
    fn kernel_state_preserved_across_switches() {
        // ScaleKernel accumulates input; after interleaved blocks the
        // accumulated totals must match per-stream sums exactly.
        let mut h = Harness::new(
            vec![
                (4, 4, Box::new(ScaleKernel::new(1.0))),
                (4, 4, Box::new(ScaleKernel::new(1.0))),
            ],
            3,
        );
        h.fill_input(0, 12); // values 0..12 -> sum 66
        h.fill_input(1, 8); // values 0..8 -> sum 28
        h.run(3000);
        assert_eq!(h.gw.stream(0).blocks_done, 3);
        assert_eq!(h.gw.stream(1).blocks_done, 2);
        // Pull the kernels back out and inspect their accumulated state.
        // Stream 1 finished last… whoever is installed, totals must match.
        let mut sums = vec![0.0f64; 2];
        for (i, s) in [0usize, 1].iter().enumerate() {
            let cfg = h.gw.stream(*s);
            if let Some(k) = cfg.kernels[0].as_ref() {
                let _ = k; // kernel owned by stream: can't downcast; use samples_out
            }
            sums[i] = cfg.samples_out as f64;
        }
        assert_eq!(sums, vec![12.0, 8.0]);
    }

    #[test]
    fn decimating_chain_block_sizes() {
        let mut h = Harness::new(vec![(16, 4, Box::new(DownsampleKernel::new(4)))], 10);
        h.fill_input(0, 32);
        h.run(2000);
        assert_eq!(h.gw.stream(0).blocks_done, 2);
        assert_eq!(h.output_len(0), 8);
    }

    #[test]
    fn reconfiguration_time_charged() {
        let mut h = Harness::new(vec![(4, 4, Box::new(PassthroughKernel))], 100);
        h.fill_input(0, 8);
        h.run(1500);
        assert_eq!(h.gw.stream(0).blocks_done, 2);
        assert_eq!(h.gw.reconfig_cycles_total, 200);
        // Block time must exceed R_s.
        let b = h.gw.blocks[0];
        assert!(b.drain_end - b.start >= 100 + 4);
    }

    #[test]
    fn block_time_bounded_by_tau_hat() {
        // τ̂ = R + (η + 2) · max(ε, ρ_A, δ); our ε=3, ρ=1, δ=1 → c0=3.
        // Allow a small additive margin for ring hop latency (2 hops each
        // way), which the paper folds into ε/δ.
        let eta = 16u64;
        let r = 50u64;
        let mut h = Harness::new(
            vec![(eta as usize, eta as usize, Box::new(PassthroughKernel))],
            r,
        );
        h.fill_input(0, eta as usize);
        h.run(4000);
        assert_eq!(h.gw.stream(0).blocks_done, 1);
        let b = h.gw.blocks[0];
        let tau = b.drain_end - b.start;
        let tau_hat = r + (eta + 2) * 3;
        let margin = 8; // ring transport of the final samples
        assert!(
            tau <= tau_hat + margin,
            "block took {tau}, bound {tau_hat} (+{margin})"
        );
    }

    #[test]
    fn traced_run_emits_block_phases() {
        let mut h = Harness::new(vec![(4, 4, Box::new(PassthroughKernel))], 10);
        h.tracer = Tracer::enabled(0);
        h.fill_input(0, 8);
        h.run(1500);
        assert_eq!(h.gw.stream(0).blocks_done, 2);
        h.tracer.finish(h.now);
        let ends: Vec<_> = h
            .tracer
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::BlockEnd { block: b, .. } => {
                    Some((b.start, b.reconfig_end, b.stream_end, b.drain_end))
                }
                _ => None,
            })
            .collect();
        assert_eq!(ends.len(), 2, "one BlockEnd per completed block");
        // Phases must be ordered and match the gateway's own records.
        for ((s, r, t, d), rec) in ends.iter().zip(h.gw.blocks.iter()) {
            assert!(s <= r && r <= t && t <= d);
            assert_eq!(*s, rec.start);
            assert_eq!(*r, rec.reconfig_end);
            assert_eq!(*d, rec.drain_end);
            assert_eq!(d - s, rec.drain_end - rec.start);
        }
        let starts = h
            .tracer
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::BlockStart { .. }))
            .count();
        assert_eq!(starts, 2);
        let reconfigs = h
            .tracer
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::ReconfigWindow { .. }))
            .count();
        assert_eq!(reconfigs, 2);
    }

    #[test]
    fn disabled_space_check_stalls_exit_on_full_fifo() {
        // Output FIFO smaller than a block and check-for-space off: the
        // block is admitted anyway and the exit copy must stall (Fig. 9).
        let mut h = Harness::new(vec![(8, 8, Box::new(PassthroughKernel))], 10);
        h.gw.check_for_space = false;
        h.tracer = Tracer::enabled(0);
        let out_id = h.gw.stream(0).output;
        h.fifos[out_id.0] = CFifo::new("small", 4);
        h.fill_input(0, 8);
        h.run(800);
        assert_eq!(h.gw.stream(0).blocks_done, 0, "block cannot complete");
        assert!(
            h.tracer.stall_cycles(0, StallCause::ExitFifoFull) > 0,
            "exit gateway must report head-of-line stall cycles"
        );
    }

    #[test]
    fn starved_stream_does_not_block_others() {
        // Stream 0 never has data; stream 1 must keep flowing (RR skips).
        let mut h = Harness::new(
            vec![
                (4, 4, Box::new(PassthroughKernel)),
                (4, 4, Box::new(PassthroughKernel)),
            ],
            5,
        );
        h.fill_input(1, 16);
        h.run(2000);
        assert_eq!(h.gw.stream(0).blocks_done, 0);
        assert_eq!(h.gw.stream(1).blocks_done, 4);
    }
}
