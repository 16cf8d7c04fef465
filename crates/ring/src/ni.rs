//! Network interfaces with credit-based flow control.
//!
//! The paper's accelerator NIs (§IV-B) "use a credit-based flow control
//! algorithm" and have small token buffers — the `α₁ = α₂ = 2` tokens of the
//! CSDF model (Fig. 5). [`CreditTx`] tracks the remote buffer space a sender
//! may use; [`CreditRx`] is the receive buffer that returns credits as the
//! local consumer drains it.

use crate::flit::NodeId;
use crate::network::DualRing;
use std::collections::VecDeque;

/// Sender-side credit counter for one hardware FIFO stream.
#[derive(Clone, Debug)]
pub struct CreditTx {
    /// This station.
    pub local: NodeId,
    /// The receiving station.
    pub remote: NodeId,
    /// Stream id carried in flits.
    pub stream: u32,
    credits: u32,
    /// Activation cycles of sends committed for the future via
    /// [`CreditTx::send_at`]. Each entry consumed a credit at commit time;
    /// [`CreditTx::credits_visible`] adds the not-yet-activated ones back
    /// so observers at earlier cycles see the per-cycle counter value.
    pending: VecDeque<u64>,
    /// Arrival cycles of credits committed in closed form via
    /// [`CreditTx::fused_return`] (the flit's wire journey was accounted
    /// on the ring's statistics but never physically flown). Absorbed into
    /// `credits` by [`CreditTx::poll_credits`] once the clock reaches the
    /// arrival cycle — never earlier, so a poll between commit and arrival
    /// observes exactly the per-cycle counter value.
    incoming: VecDeque<u64>,
    /// `(arrival m, spend at)` pairs: a committed send at `at` that
    /// consumed a fused credit landing at `m ≤ at`, both still in the
    /// future when the pair was formed. The per-cycle counter holds that
    /// credit exactly during `[m, at)`; the pair contributes precisely
    /// that window to [`CreditTx::credits_visible`] and annihilates (no
    /// raw credit ever materializes) once the clock passes `at`.
    transit: VecDeque<(u64, u64)>,
}

impl CreditTx {
    /// New sender with the receiver's full buffer capacity as its initial
    /// credit (the paper's NIs hold 2 tokens).
    pub fn new(local: NodeId, remote: NodeId, stream: u32, initial_credits: u32) -> Self {
        CreditTx {
            local,
            remote,
            stream,
            credits: initial_credits,
            pending: VecDeque::new(),
            incoming: VecDeque::new(),
            transit: VecDeque::new(),
        }
    }

    /// Remaining credits, counting every committed send (including ones
    /// scheduled for future cycles) as spent.
    pub fn credits(&self) -> u32 {
        self.credits
    }

    /// The credit counter as a per-cycle observer at cycle `now` would see
    /// it: sends committed via [`CreditTx::send_at`] for cycles after `now`
    /// have not happened yet from that observer's point of view, so their
    /// credits are added back. Used by the span engine wherever another
    /// tile reads this counter mid-interval (the shared-chain drain check).
    pub fn credits_visible(&self, now: u64) -> u32 {
        self.credits
            + self.pending.iter().filter(|&&at| at > now).count() as u32
            + self.incoming.iter().filter(|&&at| at <= now).count() as u32
            + self
                .transit
                .iter()
                .filter(|&&(m, at)| m <= now && now < at)
                .count() as u32
    }

    /// Move fused credit returns that have landed by `now` into the raw
    /// counter — exactly what a per-cycle poll at `now` would absorb.
    fn absorb_incoming(&mut self, now: u64) {
        while let Some(&at) = self.incoming.front() {
            if at > now {
                break;
            }
            self.incoming.pop_front();
            self.credits += 1;
        }
    }

    /// Take one credit for a send committed for cycle `at`, `now` being the
    /// ring clock: from the raw counter if possible, else by pairing with
    /// the earliest fused return landing by `at` (the per-cycle run holds
    /// that credit at the spend cycle even though this engine's clock has
    /// not reached its arrival yet). Returns `false` when neither exists —
    /// the per-cycle counter at `at` really would read zero.
    /// [`CreditTx::send_at`] takes its credit here; the fused chain
    /// cascade, whose wire traffic is committed out of band, calls it
    /// directly.
    pub fn take_at(&mut self, at: u64, now: u64) -> bool {
        self.absorb_incoming(now);
        if self.credits > 0 {
            self.credits -= 1;
            if at > now {
                self.pending.push_back(at);
            }
            return true;
        }
        match self.incoming.front() {
            Some(&m) if m <= at => {
                self.incoming.pop_front();
                self.transit.push_back((m, at));
                true
            }
            _ => false,
        }
    }

    /// Whether a send committed for cycle `at` would find a credit — the
    /// non-mutating precondition of [`CreditTx::take_at`]. Exact for all
    /// closed-form state; physical credit flits still on the wire are
    /// (conservatively) invisible, as they are to every unpolled per-cycle
    /// observer.
    pub fn available_at(&self, at: u64) -> bool {
        self.credits > 0 || self.incoming.front().is_some_and(|&m| m <= at)
    }

    /// Register a credit whose return journey was committed in closed form
    /// and lands at `arrival`. Arrival cycles must be registered in
    /// non-decreasing order (cascades commit forward in time).
    pub fn fused_return(&mut self, arrival: u64) {
        debug_assert!(self.incoming.back().is_none_or(|&b| b <= arrival));
        self.incoming.push_back(arrival);
    }

    /// Send one payload at cycle `at ≥ ring.cycle()` (`at == ring.cycle()`
    /// sends now, a later `at` commits ahead, bit-identically on the wire
    /// to sending while the ring clock reads `at`); consumes a credit now.
    /// Returns `false` (and sends nothing) when out of credits — the
    /// upstream must stall, which is exactly the accelerator-stall
    /// behaviour of §IV-B.
    pub fn send_at<P>(&mut self, ring: &mut DualRing<P>, payload: P, at: u64) -> bool {
        if !self.take_at(at, ring.cycle()) {
            return false;
        }
        ring.data
            .send(self.local, self.remote, self.stream, payload, at);
        true
    }

    /// Absorb credit flits returned by the receiver.
    pub fn poll_credits<P>(&mut self, ring: &mut DualRing<P>) {
        // Scheduled sends whose activation cycle has passed are ordinary
        // spent credits now; stop adding them back in `credits_visible`.
        let now = ring.cycle();
        while let Some(&at) = self.pending.front() {
            if at > now {
                break;
            }
            self.pending.pop_front();
        }
        // Absorb fused credit returns that have landed by now, and drop
        // arrive-then-spend pairs whose spend cycle has passed (the credit
        // existed only inside `[m, at)`; it never reaches the raw counter).
        self.absorb_incoming(now);
        while let Some(&(_, at)) = self.transit.front() {
            if at > now {
                break;
            }
            self.transit.pop_front();
        }
        // Credits for other streams at the same station stay queued for
        // their own endpoints.
        let credits = &mut self.credits;
        ring.credit
            .receive(self.local, self.remote, self.stream, |c| *credits += c);
    }
}

/// Receiver-side buffer that returns credits as it is drained.
#[derive(Clone, Debug)]
pub struct CreditRx<P> {
    /// This station.
    pub local: NodeId,
    /// The sending station (credits are returned there).
    pub remote: NodeId,
    /// Stream id.
    pub stream: u32,
    capacity: u32,
    buf: VecDeque<P>,
}

impl<P> CreditRx<P> {
    /// New receive buffer of `capacity` tokens.
    pub fn new(local: NodeId, remote: NodeId, stream: u32, capacity: u32) -> Self {
        assert!(capacity > 0);
        CreditRx {
            local,
            remote,
            stream,
            capacity,
            buf: VecDeque::new(),
        }
    }

    /// Buffer capacity (the sender's initial credit).
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Occupancy.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no tokens buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Pull matching arrivals from the ring into the buffer; flits for the
    /// station's other endpoints stay queued.
    pub fn poll_data(&mut self, ring: &mut DualRing<P>) {
        let (buf, capacity) = (&mut self.buf, self.capacity);
        ring.data
            .receive(self.local, self.remote, self.stream, |p| {
                assert!(
                    (buf.len() as u32) < capacity,
                    "credit protocol violated: receive buffer overflow"
                );
                buf.push_back(p);
            });
    }

    /// Take one token as part of a consume at cycle `at ≥ ring.cycle()`
    /// and return its credit to the sender: the credit enters the credit
    /// ring at `at` (`at == ring.cycle()` returns it now; the span engine
    /// commits future consumes in one call).
    pub fn pop_at(&mut self, ring: &mut DualRing<P>, at: u64) -> Option<P> {
        let v = self.buf.pop_front()?;
        ring.credit
            .send(self.local, self.remote, self.stream, 1, at);
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credits_limit_inflight() {
        let mut ring: DualRing<u64> = DualRing::new(4);
        let mut tx = CreditTx::new(0, 2, 9, 2);
        let mut rx: CreditRx<u64> = CreditRx::new(2, 0, 9, 2);

        assert!(tx.send_at(&mut ring, 10, 0));
        assert!(tx.send_at(&mut ring, 11, 0));
        assert!(!tx.send_at(&mut ring, 12, 0), "third send must stall");

        for _ in 0..4 {
            ring.step();
            rx.poll_data(&mut ring);
        }
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.pop_at(&mut ring, 4), Some(10));
        // Credit travels back; sender can send again after it arrives.
        let mut ok = false;
        for _ in 0..8 {
            ring.step();
            tx.poll_credits(&mut ring);
            if tx.credits() > 0 {
                ok = true;
                break;
            }
        }
        assert!(ok, "credit never returned");
        let now = ring.cycle();
        assert!(tx.send_at(&mut ring, 12, now));
    }

    #[test]
    fn sustained_flow_with_small_buffer() {
        // End-to-end: 100 tokens through a 2-deep NI buffer.
        let mut ring: DualRing<u64> = DualRing::new(6);
        let mut tx = CreditTx::new(1, 4, 0, 2);
        let mut rx: CreditRx<u64> = CreditRx::new(4, 1, 0, 2);
        let mut next = 0u64;
        let mut got = Vec::new();
        for now in 0..2000 {
            tx.poll_credits(&mut ring);
            if next < 100 && tx.send_at(&mut ring, next, now) {
                next += 1;
            }
            ring.step();
            rx.poll_data(&mut ring);
            if let Some(v) = rx.pop_at(&mut ring, now + 1) {
                got.push(v);
            }
            if got.len() == 100 {
                break;
            }
        }
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn foreign_stream_flits_not_consumed() {
        let mut ring: DualRing<u64> = DualRing::new(4);
        let mut rx_a: CreditRx<u64> = CreditRx::new(3, 0, 1, 4);
        let mut rx_b: CreditRx<u64> = CreditRx::new(3, 0, 2, 4);
        ring.data.send(0, 3, 2, 77, 0); // stream 2
        ring.data.send(0, 3, 1, 55, 0); // stream 1
        for _ in 0..6 {
            ring.step();
        }
        rx_a.poll_data(&mut ring);
        // Stream-2 flit must survive rx_a's poll for rx_b.
        rx_b.poll_data(&mut ring);
        assert_eq!(rx_a.pop_at(&mut ring, 6), Some(55));
        assert_eq!(rx_b.pop_at(&mut ring, 6), Some(77));
    }

    #[test]
    fn scheduled_ni_traffic_matches_stepped_protocol() {
        // Commit two sends and the matching future pops in one shot; the
        // wire traffic and final credit state must match the per-cycle run
        // of the same schedule.
        let run = |scheduled: bool| {
            let mut ring: DualRing<u64> = DualRing::new(4);
            let mut tx = CreditTx::new(0, 2, 5, 2);
            let mut rx: CreditRx<u64> = CreditRx::new(2, 0, 5, 2);
            if scheduled {
                assert!(tx.send_at(&mut ring, 10, 0));
                assert!(tx.send_at(&mut ring, 11, 3));
                assert_eq!(tx.credits(), 0);
                assert_eq!(tx.credits_visible(0), 1, "cycle-3 send not yet visible");
                assert_eq!(tx.credits_visible(3), 0);
                for _ in 0..6 {
                    ring.step();
                    rx.poll_data(&mut ring);
                }
                assert_eq!(rx.pop_at(&mut ring, 6), Some(10));
            } else {
                assert!(tx.send_at(&mut ring, 10, 0));
                for _ in 0..3 {
                    ring.step();
                    rx.poll_data(&mut ring);
                }
                assert!(tx.send_at(&mut ring, 11, 3));
                for _ in 0..3 {
                    ring.step();
                    rx.poll_data(&mut ring);
                }
                assert_eq!(rx.pop_at(&mut ring, 6), Some(10));
            }
            for _ in 0..4 {
                ring.step();
                tx.poll_credits(&mut ring);
                rx.poll_data(&mut ring);
            }
            (
                tx.credits(),
                rx.len(),
                ring.stats[0].delivered,
                ring.stats[1].delivered,
                ring.stats[0].max_latency,
                ring.stats[1].max_latency,
            )
        };
        assert_eq!(run(true), run(false));
    }
}
