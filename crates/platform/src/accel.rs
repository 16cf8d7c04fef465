//! Accelerator tiles (paper §IV-B, Fig. 3b).
//!
//! An accelerator tile holds a coarsely-programmable stream kernel behind a
//! network interface: it consumes one incoming hardware-FIFO stream and
//! produces one outgoing stream, stalling on empty input or missing output
//! credits. It has *no* knowledge of the rest of the system; multiplexing is
//! entirely the gateways' business. The per-stream kernel context is
//! installed/removed over the configuration bus by the entry gateway.

use crate::types::{Sample, StreamKernel};
use streamgate_ring::{CreditRx, CreditTx, DualRing, NodeId};

/// Identifier of an accelerator in the [`crate::system::System`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AccelId(pub usize);

/// A stream-processing accelerator tile.
pub struct AcceleratorTile {
    /// Diagnostic name.
    pub name: String,
    /// Ring station of this tile.
    pub node: NodeId,
    /// Input hardware FIFO (2-deep NI buffer, credit flow-controlled).
    pub rx: CreditRx<Sample>,
    /// Output link with credit counter for the downstream NI buffer.
    pub tx: CreditTx,
    /// Installed per-stream processing context (`None` while idle /
    /// unconfigured — data arriving then would be a gateway protocol bug).
    kernel: Option<Box<dyn StreamKernel>>,
    /// Processing time per input sample (1 cycle in the paper's prototype).
    pub cycles_per_sample: u64,
    /// Busy until this cycle (exclusive).
    busy_until: u64,
    /// Latest cycle fully accounted by closed-form cascade commits
    /// (see [`AcceleratorTile::settle_fused`]).
    fused_covered: u64,
    /// `busy_until` before the first fused consume not yet settled by the
    /// engine (see [`AcceleratorTile::settle_fused`]).
    fused_prior_busy: Option<u64>,
    /// Activity windows `[rise, fall)` of fused firings, kept only while
    /// the span engine runs under a full trace (see
    /// [`AcceleratorTile::log_fused`]).
    fused_log: Option<Vec<(u64, u64)>>,
    /// Output sample waiting for a credit.
    pending_out: Option<Sample>,
    /// Cycle of the latest forward [`AcceleratorTile::run_span`] committed
    /// ahead of the clock: per-cycle stepping holds that output until then.
    forward_at: u64,
    /// Total busy cycles (for utilisation reports).
    pub busy_cycles: u64,
    /// Total samples consumed.
    pub samples_in: u64,
    /// Total samples produced.
    pub samples_out: u64,
}

impl AcceleratorTile {
    /// Create a tile at ring station `node`, receiving from `upstream` and
    /// sending to `downstream` (stream ids identify the two links;
    /// `ni_depth` is the NI buffer depth — 2 in the paper).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        node: NodeId,
        upstream: NodeId,
        rx_stream: u32,
        downstream: NodeId,
        tx_stream: u32,
        ni_depth: u32,
        cycles_per_sample: u64,
    ) -> Self {
        AcceleratorTile {
            name: name.into(),
            node,
            rx: CreditRx::new(node, upstream, rx_stream, ni_depth),
            tx: CreditTx::new(node, downstream, tx_stream, ni_depth),
            kernel: None,
            cycles_per_sample,
            busy_until: 0,
            fused_covered: 0,
            fused_prior_busy: None,
            fused_log: None,
            pending_out: None,
            forward_at: 0,
            busy_cycles: 0,
            samples_in: 0,
            samples_out: 0,
        }
    }

    /// Install a stream's kernel context (configuration-bus restore).
    pub fn install_kernel(&mut self, k: Box<dyn StreamKernel>) {
        assert!(
            self.kernel.is_none(),
            "kernel already installed on {}",
            self.name
        );
        self.kernel = Some(k);
    }

    /// Remove the current kernel context (configuration-bus save).
    pub fn remove_kernel(&mut self) -> Option<Box<dyn StreamKernel>> {
        self.kernel.take()
    }

    /// True if a kernel is installed.
    pub fn has_kernel(&self) -> bool {
        self.kernel.is_some()
    }

    /// True if the pipeline stage is empty: nothing buffered, nothing in
    /// flight, nothing waiting for credits.
    pub fn is_drained(&self, now: u64) -> bool {
        self.rx.is_empty() && self.pending_out.is_none() && now >= self.busy_until
    }

    /// `Some(cycle it goes idle by time passage alone)` if the tile holds
    /// work at `now` as per-cycle stepping sees it after its step at `now`
    /// (`u64::MAX` when only an action can idle it), `None` if it is idle.
    /// Unlike [`AcceleratorTile::is_drained`], an output that
    /// [`AcceleratorTile::run_span`] forwarded ahead of the clock counts
    /// as held until its forward cycle, as per-cycle stepping holds it.
    pub fn active_until(&self, now: u64) -> Option<u64> {
        let until = if self.rx.is_empty() && self.pending_out.is_none() {
            self.busy_until.max(self.forward_at)
        } else {
            u64::MAX
        };
        (until > now).then_some(until)
    }

    /// Rewire the receive-side NI endpoint to a new upstream link
    /// (chain-sharing claim by an entry gateway). Only legal while the
    /// tile is quiescent and unconfigured — the old buffer must be empty,
    /// so nothing is discarded.
    pub fn retarget_rx(&mut self, now: u64, upstream: NodeId, rx_stream: u32, ni_depth: u32) {
        assert!(
            self.kernel.is_none() && self.is_drained(now),
            "rx retarget of busy accelerator {}",
            self.name
        );
        self.rx = CreditRx::new(self.node, upstream, rx_stream, ni_depth);
    }

    /// Rewire the send-side NI endpoint to a new downstream link
    /// (chain-sharing claim by an entry gateway), granting the fresh
    /// link's full `ni_depth` credit window.
    ///
    /// Only legal while the tile is quiescent, unconfigured and — credit
    /// conservation, enforced here under the platform's uniform NI depth —
    /// every credit of the *old* link is back home: a rebuild with old
    /// credits still in flight would let them be absorbed into a later
    /// incarnation of the same link and overflow its receive buffer.
    pub fn retarget_tx(&mut self, now: u64, downstream: NodeId, tx_stream: u32, ni_depth: u32) {
        assert!(
            self.kernel.is_none() && self.is_drained(now),
            "tx retarget of busy accelerator {}",
            self.name
        );
        assert_eq!(
            self.tx.credits(),
            ni_depth,
            "tx retarget of {} with credits in flight",
            self.name
        );
        self.tx = CreditTx::new(self.node, downstream, tx_stream, ni_depth);
    }

    /// Advance one cycle: poll the NI, process, forward.
    pub fn step(&mut self, ring: &mut DualRing<Sample>, now: u64) {
        debug_assert_eq!(ring.cycle(), now, "lock-step tile off the ring clock");
        self.rx.poll_data(ring);
        self.tx.poll_credits(ring);

        // Try to forward a finished sample first.
        if let Some(out) = self.pending_out {
            if self.tx.send_at(ring, out, now) {
                self.pending_out = None;
                self.samples_out += 1;
            }
        }

        if now < self.busy_until {
            self.busy_cycles += 1;
            return;
        }

        // Accept a new sample only when the previous output has left.
        if self.pending_out.is_some() {
            return;
        }
        let Some(kernel) = self.kernel.as_mut() else {
            return;
        };
        if self.rx.is_empty() {
            return;
        }
        let s = self.rx.pop_at(ring, now).expect("non-empty rx");
        self.samples_in += 1;
        self.busy_until = now + self.cycles_per_sample;
        self.busy_cycles += 1;
        if let Some(out) = kernel.process(s) {
            // Output becomes available when the firing completes; we hold it
            // in pending_out and the forward happens on/after busy_until.
            self.pending_out = Some(out);
        }
    }

    /// Interval execution: perform every action [`AcceleratorTile::step`]
    /// would take over the window `[from, to)` in closed form — consumes
    /// every `cycles_per_sample`, each output forwarded on the following
    /// cycle — committing ring traffic at the exact per-cycle timestamps
    /// via the scheduled-send API. The caller (the span engine) guarantees
    /// exclusive access to this tile's NI endpoints within the window and
    /// that `ring.cycle() == from`.
    ///
    /// Returns `(covered, horizon)`: state and accounting are exactly what
    /// `covered − from` per-cycle steps would have produced, and `horizon`
    /// is the tile's next decision cycle (`≥ covered` unless the tile
    /// degraded to per-cycle semantics on a credit stall, in which case
    /// `horizon == covered` and the engine re-invokes next cycle, exactly
    /// like the exhaustive polling loop).
    pub fn run_span(&mut self, ring: &mut DualRing<Sample>, from: u64, to: u64) -> (u64, u64) {
        debug_assert!(from < to);
        debug_assert_eq!(ring.cycle(), from);
        self.rx.poll_data(ring);
        self.tx.poll_credits(ring);

        // A sample finished before this window forwards at `from` (the
        // attempt sits at the top of every per-cycle step).
        let mut fired = false;
        if self.pending_out.is_some() {
            if self.tx.credits() == 0 {
                // Blocked: this invocation is exactly the per-cycle step at
                // `from` — busy accounting, then poll again next cycle.
                if from < self.busy_until {
                    self.busy_cycles += 1;
                }
                return (from + 1, from + 1);
            }
            let out = self.pending_out.take().expect("pending output");
            let sent = self.tx.send_at(ring, out, from);
            debug_assert!(sent);
            self.samples_out += 1;
            fired = true;
        }

        let mut t = from;
        loop {
            if self.kernel.is_none() || self.rx.is_empty() {
                break;
            }
            // Next consume: first non-busy cycle at or after `t`.
            let c = t.max(self.busy_until);
            if c >= to {
                break;
            }
            // Busy cycles between `t` and the consume accrue as the
            // busy-wait arm of `step` would.
            if t < self.busy_until {
                self.busy_cycles += self.busy_until - t;
            }
            let s = self.rx.pop_at(ring, c).expect("non-empty rx");
            self.samples_in += 1;
            self.busy_until = c + self.cycles_per_sample;
            self.busy_cycles += 1;
            let kernel = self.kernel.as_mut().expect("kernel checked above");
            if let Some(out) = kernel.process(s) {
                // First forward attempt is the step after the consume. When
                // that step falls outside this window (`c + 1 == to`, e.g.
                // the end of the run), hold the output so the attempt is
                // replayed per-cycle with fresh credit state.
                if self.tx.credits() == 0 || c + 1 >= to {
                    self.pending_out = Some(out);
                    return (c + 1, c + 1);
                }
                let sent = self.tx.send_at(ring, out, c + 1);
                debug_assert!(sent);
                self.samples_out += 1;
                self.forward_at = c + 1;
            }
            t = c + 1;
        }
        // Claim only the cycles acted on. The trailing busy/idle tail is
        // NOT covered: a sample can still arrive inside `[t, to)` (sent by
        // a tile acting after this invocation), and per-cycle semantics
        // consume it on its arrival cycle — the engine replays the tail's
        // busy accounting through `skip` at the next invocation instead.
        let covered = if t == from && fired {
            // The entry forward was the only action; cycle `from` is
            // committed, including its busy-wait accrual.
            if from < self.busy_until {
                self.busy_cycles += 1;
            }
            from + 1
        } else {
            t
        };
        (covered, self.horizon(covered))
    }

    /// Firing end of the in-flight (or last) firing — exclusive.
    pub fn busy_until(&self) -> u64 {
        self.busy_until
    }

    /// Settle the fused firings committed since the last call with an
    /// engine that has accounted this tile through `acct`: replay the
    /// deferred busy tail of the firing they followed (the `skip` the
    /// engine can no longer make once `busy_until` has moved on), and
    /// return the cycle through which they account the tile — state,
    /// counters and committed ring traffic are exactly what per-cycle
    /// stepping through that cycle would produce, so the engine must clamp
    /// its accounted-through marker there (invoking or skip-replaying below
    /// it would double-count a fused firing). `None` when nothing was fused
    /// since the last call.
    pub fn settle_fused(&mut self, acct: u64) -> Option<u64> {
        let prior = self.fused_prior_busy.take()?;
        if acct < prior {
            self.busy_cycles += prior - acct;
        }
        Some(self.fused_covered)
    }

    /// Start (`on`) or stop stamping the activity window of every fused
    /// firing as a lock-step observer would see it (see
    /// [`AcceleratorTile::drain_fused`]).
    pub(crate) fn log_fused(&mut self, on: bool) {
        self.fused_log = on.then(Vec::new);
    }

    /// The activity windows `[rise, fall)` of the fused firings stamped
    /// since the last call, oldest first.
    pub(crate) fn drain_fused(&mut self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.fused_log.iter_mut().flat_map(|log| log.drain(..))
    }

    /// Closed-form consume of a sample arriving at `arrival`, committed by
    /// the entry gateway's cascade fusion: the per-cycle tile — idle, with
    /// an installed kernel and an empty pipeline — polls the flit in at
    /// `arrival` and consumes it that same cycle. Fires the kernel,
    /// accounts the whole firing's busy window, and returns the kernel's
    /// output (forwarded by the caller on cycle `arrival + 1` through
    /// [`AcceleratorTile::fused_forward`], exactly as the per-cycle
    /// forward-first step order does). Under a full trace it stamps the
    /// window a per-cycle observer sees the tile active: from the consume
    /// until the firing ends and any output has left.
    pub fn fused_consume(&mut self, s: Sample, arrival: u64) -> Option<Sample> {
        debug_assert!(self.rx.is_empty(), "fused consume past a buffered sample");
        debug_assert!(
            self.pending_out.is_none(),
            "fused consume past a pending output"
        );
        debug_assert!(self.busy_until <= arrival, "fused consume mid-firing");
        self.fused_prior_busy.get_or_insert(self.busy_until);
        self.samples_in += 1;
        self.busy_until = arrival + self.cycles_per_sample;
        // Per-cycle accrual: +1 on the consume cycle, +1 per busy-wait
        // cycle until `busy_until` — `ρ` total, or 1 for a 0-cycle kernel.
        self.busy_cycles += self.cycles_per_sample.max(1);
        self.fused_covered = self.fused_covered.max((arrival + 1).max(self.busy_until));
        let out = self
            .kernel
            .as_mut()
            .expect("fused consume without a kernel")
            .process(s);
        if let Some(log) = &mut self.fused_log {
            let fall = match out {
                Some(_) => self.busy_until.max(arrival + 1),
                None => self.busy_until,
            };
            if fall > arrival {
                log.push((arrival, fall));
            }
        }
        out
    }

    /// Bookkeeping for a forward committed in closed form by the cascade
    /// for cycle `at` (the credit take and wire accounting are the
    /// caller's).
    pub fn fused_forward(&mut self, at: u64) {
        self.samples_out += 1;
        self.forward_at = at;
    }

    /// Quiescence horizon: the earliest cycle `>= next` at which stepping
    /// this tile could do anything beyond bookkeeping that
    /// [`AcceleratorTile::skip`] replays, assuming no external input
    /// arrives in between (`next` is the next cycle the system would
    /// execute). `u64::MAX` means "externally driven": only a delivered
    /// flit (data or credit) can make this tile act, and in-flight flits
    /// keep the *ring's* horizon short.
    pub fn horizon(&self, next: u64) -> u64 {
        if self.pending_out.is_some() {
            // A finished sample is waiting to be forwarded: the forward is
            // attempted at the top of every step (even mid-firing) and
            // succeeds as soon as a downstream credit is in — which may be
            // right away, or any cycle a lingering credit flit is polled
            // in. Step every cycle, exactly like the exhaustive mode.
            return next;
        }
        if next < self.busy_until {
            // Mid-firing: the accelerator only counts busy cycles until
            // `busy_until`, when it may consume the next buffered sample
            // or becomes drained (which a waiting gateway must observe).
            return self.busy_until;
        }
        if self.kernel.is_some() && !self.rx.is_empty() {
            return next; // a buffered sample can be consumed right away
        }
        u64::MAX
    }

    /// Cycle at which this tile, absent further input, flips from active
    /// to drained: the in-flight firing ends at `busy_until` and nothing
    /// is left to consume or forward. Returns `u64::MAX` when no such
    /// flip is ahead (work still buffered, or the flip is already in the
    /// past at `next`). Pure time passage is invisible to [`horizon`], so
    /// a gateway waiting for its chain to drain pins this cycle in its own
    /// horizon.
    ///
    /// [`horizon`]: AcceleratorTile::horizon
    pub fn drain_cycle(&self, next: u64) -> u64 {
        if self.rx.is_empty() && self.pending_out.is_none() && self.busy_until >= next {
            self.busy_until
        } else {
            u64::MAX
        }
    }

    /// Account for the skipped cycles `[from, to)` — the bulk equivalent
    /// of the busy-wait arm of [`AcceleratorTile::step`]. The caller
    /// guarantees `to` does not exceed the tile's [`horizon`].
    ///
    /// [`horizon`]: AcceleratorTile::horizon
    pub fn skip(&mut self, from: u64, to: u64) {
        if from < self.busy_until {
            self.busy_cycles += to.min(self.busy_until) - from;
        }
    }

    /// State words of the installed kernel (configuration-bus payload).
    pub fn kernel_state_words(&self) -> usize {
        self.kernel.as_ref().map(|k| k.state_words()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DownsampleKernel, PassthroughKernel, ScaleKernel};

    /// Drive one accelerator standalone between two manual endpoints.
    fn run_chain(kernel: Box<dyn StreamKernel>, inputs: &[Sample], cycles: u64) -> Vec<Sample> {
        let mut ring: DualRing<Sample> = DualRing::new(4);
        // producer at node 0, accel at node 1, consumer at node 2.
        let mut acc = AcceleratorTile::new("acc", 1, 0, 10, 2, 11, 2, 1);
        acc.install_kernel(kernel);
        let mut producer_tx = CreditTx::new(0, 1, 10, 2);
        let mut consumer_rx: CreditRx<Sample> = CreditRx::new(2, 1, 11, 2);
        let mut inputs = inputs.to_vec();
        inputs.reverse(); // pop from back
        let mut out = Vec::new();
        for now in 0..cycles {
            producer_tx.poll_credits(&mut ring);
            if let Some(&s) = inputs.last() {
                if producer_tx.send_at(&mut ring, s, now) {
                    inputs.pop();
                }
            }
            acc.step(&mut ring, now);
            consumer_rx.poll_data(&mut ring);
            if let Some(s) = consumer_rx.pop_at(&mut ring, now) {
                out.push(s);
            }
            ring.step();
        }
        out
    }

    #[test]
    fn passthrough_chain_delivers_in_order() {
        let inputs: Vec<Sample> = (0..20).map(|k| (k as f64, 0.0)).collect();
        let out = run_chain(Box::new(PassthroughKernel), &inputs, 400);
        assert_eq!(out.len(), 20);
        for (k, s) in out.iter().enumerate() {
            assert_eq!(s.0, k as f64);
        }
    }

    #[test]
    fn scale_kernel_applies() {
        let inputs: Vec<Sample> = (0..10).map(|k| (k as f64, 1.0)).collect();
        let out = run_chain(Box::new(ScaleKernel::new(3.0)), &inputs, 300);
        assert_eq!(out.len(), 10);
        assert_eq!(out[4], (12.0, 3.0));
    }

    #[test]
    fn downsampler_reduces_rate() {
        let inputs: Vec<Sample> = (0..32).map(|k| (k as f64, 0.0)).collect();
        let out = run_chain(Box::new(DownsampleKernel::new(8)), &inputs, 800);
        assert_eq!(out.len(), 4);
        // First group 0..8 averages to 3.5.
        assert_eq!(out[0], (3.5, 0.0));
    }

    #[test]
    fn no_kernel_means_no_consumption() {
        let mut ring: DualRing<Sample> = DualRing::new(4);
        let mut acc = AcceleratorTile::new("acc", 1, 0, 10, 2, 11, 2, 1);
        let mut producer_tx = CreditTx::new(0, 1, 10, 2);
        assert!(producer_tx.send_at(&mut ring, (5.0, 0.0), 0));
        for now in 0..20 {
            acc.step(&mut ring, now);
            ring.step();
        }
        assert_eq!(acc.samples_in, 0);
        assert!(!acc.is_drained(20), "sample parked in the NI buffer");
    }

    #[test]
    fn drained_after_flush() {
        let inputs: Vec<Sample> = (0..4).map(|k| (k as f64, 0.0)).collect();
        let mut ring: DualRing<Sample> = DualRing::new(4);
        let mut acc = AcceleratorTile::new("acc", 1, 0, 10, 2, 11, 2, 1);
        acc.install_kernel(Box::new(PassthroughKernel));
        let mut producer_tx = CreditTx::new(0, 1, 10, 2);
        let mut consumer_rx: CreditRx<Sample> = CreditRx::new(2, 1, 11, 2);
        let mut pending = inputs;
        pending.reverse();
        for now in 0..200 {
            producer_tx.poll_credits(&mut ring);
            if let Some(&s) = pending.last() {
                if producer_tx.send_at(&mut ring, s, now) {
                    pending.pop();
                }
            }
            acc.step(&mut ring, now);
            consumer_rx.poll_data(&mut ring);
            consumer_rx.pop_at(&mut ring, now);
            ring.step();
        }
        assert!(acc.is_drained(200));
        assert_eq!(acc.samples_in, 4);
        assert_eq!(acc.samples_out, 4);
        // Context can now be swapped safely.
        let k = acc.remove_kernel().unwrap();
        assert_eq!(k.name(), "passthrough");
    }

    #[test]
    fn slow_kernel_throttles() {
        let inputs: Vec<Sample> = (0..10).map(|k| (k as f64, 0.0)).collect();
        let mut ring: DualRing<Sample> = DualRing::new(4);
        let mut acc = AcceleratorTile::new("acc", 1, 0, 10, 2, 11, 2, 1);
        acc.cycles_per_sample = 10;
        acc.install_kernel(Box::new(PassthroughKernel));
        let mut producer_tx = CreditTx::new(0, 1, 10, 2);
        let mut consumer_rx: CreditRx<Sample> = CreditRx::new(2, 1, 11, 2);
        let mut pending = inputs;
        pending.reverse();
        let mut arrivals = Vec::new();
        for now in 0..400 {
            producer_tx.poll_credits(&mut ring);
            if let Some(&s) = pending.last() {
                if producer_tx.send_at(&mut ring, s, now) {
                    pending.pop();
                }
            }
            acc.step(&mut ring, now);
            consumer_rx.poll_data(&mut ring);
            if consumer_rx.pop_at(&mut ring, now).is_some() {
                arrivals.push(now);
            }
            ring.step();
        }
        assert_eq!(arrivals.len(), 10);
        // Steady-state spacing must be >= the kernel's 10 cycles/sample.
        for w in arrivals.windows(2).skip(2) {
            assert!(w[1] - w[0] >= 10, "spacing {:?}", w);
        }
    }
}
