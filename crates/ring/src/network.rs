//! Cycle-level dual-ring interconnect.
//!
//! Models the low-cost guaranteed-throughput ring of Dekens et al. (DASIP
//! 2013/2014) that the paper uses as its inter-tile interconnect. One
//! slotted [`Ring`] design is run twice, in opposite directions:
//!
//! * **data ring** — unidirectional, one hop per cycle, one slot per link;
//! * **credit ring** — the same ring run the opposite way, carrying
//!   flow-control credits;
//! * **posted writes** — a producer's write completes when the ring accepts
//!   it (an empty slot passes its station);
//! * **guaranteed acceptance** — a flit that reaches its destination is
//!   always ejected (receive buffers are provisioned by credit flow
//!   control), so flits never circulate and a slot freed by ejection is
//!   immediately reusable: bounded injection latency and throughput follow.
//!
//! Each cycle, on each ring: stations inject into their local slot if it
//! is empty, all slots advance one hop, and arriving flits eject.

use crate::flit::{Flit, NodeId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Statistics collected per ring.
#[derive(Clone, Debug, Default)]
pub struct RingStats {
    /// Flits delivered.
    pub delivered: u64,
    /// Sum of (ejection − injection) cycles over delivered flits.
    pub total_latency: u64,
    /// Maximum observed flit latency.
    pub max_latency: u64,
    /// Cycles a station spent waiting with a flit ready but no free slot.
    pub injection_stalls: u64,
}

/// One ring's part of the [`DeliveryLog`]. Hop `i` is the edge from station
/// `i` to `i + 1` on the data ring, to `i − 1` on the credit ring (mod `n`).
#[derive(Clone, Debug, Default)]
pub struct Crossings {
    /// Each hop's retained crossing cycles, in commit order.
    pub hops: Vec<Vec<u64>>,
}

impl Crossings {
    /// Crossings retained over all hops.
    pub fn len(&self) -> usize {
        self.hops.iter().map(Vec::len).sum()
    }

    /// True when no crossing is retained.
    pub fn is_empty(&self) -> bool {
        self.hops.iter().all(Vec::is_empty)
    }
}

/// Hop crossings on both rings, kept only when a profiler asked for them
/// ([`DualRing::enable_delivery_log`]). A flit moves one hop per cycle and
/// is always accepted, so one ejecting at cycle `T` after `d` hops from
/// `src` made its `k`-th crossing (`k = 0..d`) on hop `src + k` (data) or
/// `src − k` (credit) at cycle `T − d + 1 + k`. All `d` are logged where
/// the ejection is fixed: by the ring step that ejects the flit, or at
/// commit, ahead of the clock, for a transit taken in closed form
/// ([`DualRing::fused_data_stats`]). So a list is in cycle order where
/// every flit travels one hop, but a longer flit logs all its crossings
/// after shorter ones that crossed later. Both engines, fused or not, log
/// the same crossings per hop, equal once sorted; one slot leaves a
/// station per cycle, so a sorted list rises strictly.
///
/// Each hop keeps a trailing window: at `2 ×` [`DeliveryLog::WINDOW`]
/// crossings its list is sorted and sheds its oldest `WINDOW`, counted in
/// `*_dropped`. A hop takes at most one crossing per delivery on its ring,
/// so no run of up to `2 × WINDOW` deliveries per ring sheds any. A list
/// holds at most 16 MiB, a ring of `n` stations `32 n` MiB both ways.
#[derive(Clone, Debug, Default)]
pub struct DeliveryLog {
    /// Data-ring crossings per hop (trailing windows).
    pub data: Crossings,
    /// Credit-ring crossings per hop (trailing windows).
    pub credit: Crossings,
    /// Oldest data-ring crossings evicted from the windows.
    pub data_dropped: u64,
    /// Oldest credit-ring crossings evicted from the windows.
    pub credit_dropped: u64,
}

impl DeliveryLog {
    /// Minimum number of most-recent crossings retained per hop.
    pub const WINDOW: usize = 1 << 20;

    /// Append a crossing of `hop` at `cycle` on ring `r` (0 = data,
    /// 1 = credit), evicting the hop's oldest window if full.
    fn record(&mut self, r: usize, hop: NodeId, cycle: u64) {
        let (ring, dropped) = match r {
            0 => (&mut self.data, &mut self.data_dropped),
            _ => (&mut self.credit, &mut self.credit_dropped),
        };
        let list = &mut ring.hops[hop];
        if list.len() >= 2 * Self::WINDOW {
            list.sort_unstable();
            list.drain(..Self::WINDOW);
            *dropped += Self::WINDOW as u64;
        }
        list.push(cycle);
    }
}

/// A send committed for a future cycle (see [`Ring::send`]). Ordered by
/// `(at, seq)` so a `BinaryHeap` of them pops the earliest commitment
/// first; `seq` preserves program order among same-cycle commitments from
/// the same station.
#[derive(Clone, Debug)]
struct Scheduled<F> {
    at: u64,
    seq: u64,
    flit: F,
}

impl<F> PartialEq for Scheduled<F> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<F> Eq for Scheduled<F> {}
impl<F> PartialOrd for Scheduled<F> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<F> Ord for Scheduled<F> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One slotted ring of `n` stations carrying flits with bodies of type
/// `B`: one slot register per station, every slot moving one hop per
/// cycle, forward (station `i` to `i + 1`) when `FORWARD`, else backward.
/// [`DualRing`] runs one each way on one clock.
///
/// # Representation (batched-span support)
///
/// Slot registers are stored in a fixed backing vector that never moves;
/// rotation is an offset bumped each step, so a skip is O(1) regardless
/// of the span length. Every in-flight flit's ejection cycle is known
/// exactly at injection time (latency == hop distance), so the ring keeps
/// a min-heap of scheduled `(ejection cycle, destination)` pairs: its
/// rotation horizon answers in O(1) and a step ejects by direct slot
/// addressing instead of scanning all stations — O(actual events), the
/// property the platform's span engine relies on to deliver k
/// adjacent-hop flits without k full ring scans.
#[derive(Clone, Debug)]
pub struct Ring<B, const FORWARD: bool> {
    n: usize,
    cycle: u64,
    /// Slot registers. The slot currently at station `i` is
    /// `slots[self.phys(i)]`; advancing the ring bumps `rot` (mod n)
    /// instead of moving the slots.
    slots: Vec<Option<Flit<B>>>,
    /// Rotation offset (always `< n`).
    rot: usize,
    /// Scheduled ejections: `(cycle, destination station)` for every
    /// in-flight flit. `Reverse` turns `BinaryHeap` into a min-heap; the
    /// `(cycle, dst)` order makes same-cycle ejections pop in station
    /// order, matching a full scan of the stations.
    eject: BinaryHeap<Reverse<(u64, NodeId)>>,
    /// Per-station transmit queues.
    tx: Vec<VecDeque<Flit<B>>>,
    /// Flits across the TX queues — lets the injection phase and the
    /// horizons answer without scanning every queue.
    tx_occupancy: usize,
    /// Per-station receive queues (guaranteed acceptance — unbounded here;
    /// boundedness is enforced end-to-end by credits).
    rx: Vec<VecDeque<Flit<B>>>,
    /// Sends committed for future cycles. An entry with activation cycle
    /// `a` drains into its TX queue at the top of the step entered while
    /// `cycle == a`, which is bit-identical to sending it at `a`.
    sched: BinaryHeap<Scheduled<Flit<B>>>,
    sched_seq: u64,
    /// Committed-but-not-yet-activated sends whose hop distance exceeds 1.
    /// While zero — and the TX queues and ejection heap are empty — every
    /// present and future flit is distance-1 and therefore confined to a
    /// single `(cycle, station)` slot cell, the precondition for
    /// closed-form cascade fusion ([`DualRing::multi_hop_quiet`]).
    sched_multi_hop: usize,
}

impl<B, const FORWARD: bool> Ring<B, FORWARD> {
    /// This ring's index in [`DualRing::stats`] and the [`DeliveryLog`].
    const INDEX: usize = if FORWARD { 0 } else { 1 };

    fn new(n: usize) -> Self {
        Ring {
            n,
            cycle: 0,
            slots: (0..n).map(|_| None).collect(),
            rot: 0,
            eject: BinaryHeap::new(),
            tx: (0..n).map(|_| VecDeque::new()).collect(),
            tx_occupancy: 0,
            rx: (0..n).map(|_| VecDeque::new()).collect(),
            sched: BinaryHeap::new(),
            sched_seq: 0,
            sched_multi_hop: 0,
        }
    }

    /// Backing index of the slot currently at station `i`.
    #[inline]
    fn phys(&self, i: usize) -> usize {
        let k = if FORWARD {
            i + self.n - self.rot
        } else {
            i + self.rot
        };
        if k >= self.n {
            k - self.n
        } else {
            k
        }
    }

    /// Hop distance from `src` to `dst` in this ring's direction.
    pub fn distance(&self, src: NodeId, dst: NodeId) -> usize {
        if FORWARD {
            (dst + self.n - src) % self.n
        } else {
            (src + self.n - dst) % self.n
        }
    }

    /// Send `body` from `src` to `dst` on `stream` at cycle `at`, no
    /// earlier than the ring clock ([`DualRing::cycle`]). At the clock's
    /// cycle the flit enters `src`'s TX queue now; a later `at` commits it
    /// ahead of the clock, bit-identically to sending it while the clock
    /// reads `at` (injection stalls, delivery latency and the delivery log
    /// all behave as if sent then). On the data ring the send is a posted
    /// write: it completes for the producer once it leaves the TX queue
    /// for a slot.
    #[inline]
    pub fn send(&mut self, src: NodeId, dst: NodeId, stream: u32, body: B, at: u64) {
        assert!(src < self.n && dst < self.n && src != dst, "bad endpoints");
        let flit = Flit {
            src,
            dst,
            stream,
            body,
            injected_at: at,
        };
        if at == self.cycle {
            self.tx[src].push_back(flit);
            self.tx_occupancy += 1;
            return;
        }
        assert!(at > self.cycle, "scheduled send in the past");
        self.sched_seq += 1;
        if self.distance(src, dst) > 1 {
            self.sched_multi_hop += 1;
        }
        self.sched.push(Scheduled {
            at,
            seq: self.sched_seq,
            flit,
        });
    }

    /// Hand every flit delivered at station `node` from `src` on `stream`
    /// to `take`, oldest first. Flits for the station's other endpoints
    /// stay queued, in order.
    #[inline]
    pub fn receive(&mut self, node: NodeId, src: NodeId, stream: u32, mut take: impl FnMut(B)) {
        let q = &mut self.rx[node];
        for _ in 0..q.len() {
            let f = q.pop_front().expect("counted above");
            if f.src == src && f.stream == stream {
                take(f.body);
            } else {
                q.push_back(f);
            }
        }
    }

    /// Number of delivered-but-unread flits at a station.
    pub fn rx_pending(&self, node: NodeId) -> usize {
        self.rx[node].len()
    }

    /// Flits waiting in a station's TX queue: sent, not yet accepted by
    /// the ring (a send committed ahead joins at its cycle).
    pub fn tx_backlog(&self, node: NodeId) -> usize {
        self.tx[node].len()
    }

    /// Move the sends committed for the current cycle into the TX queues,
    /// where a send at this cycle would have put them. Runs before the
    /// clock advances.
    #[inline]
    fn activate(&mut self) {
        while let Some(s) = self.sched.peek() {
            debug_assert!(s.at >= self.cycle, "missed a scheduled send");
            if s.at != self.cycle {
                break;
            }
            let s = self.sched.pop().expect("peeked above");
            if self.distance(s.flit.src, s.flit.dst) > 1 {
                self.sched_multi_hop -= 1;
            }
            self.tx[s.flit.src].push_back(s.flit);
            self.tx_occupancy += 1;
        }
    }

    /// Advance the clock and run one cycle (see [`DualRing::step`]),
    /// accounting into `stats` and, when on, the delivery log.
    #[inline]
    fn step(&mut self, stats: &mut RingStats, mut log: Option<&mut DeliveryLog>) {
        self.cycle += 1;
        if self.tx_occupancy > 0 {
            for i in 0..self.n {
                if self.tx[i].is_empty() {
                    continue;
                }
                let p = self.phys(i);
                if self.slots[p].is_none() {
                    let f = self.tx[i].pop_front().expect("checked non-empty");
                    // Latency == hop distance: the ejection cycle is fixed
                    // at injection time. This very step performs the first
                    // hop, so a 1-hop flit ejects at `self.cycle`.
                    let dist = self.distance(i, f.dst);
                    self.eject
                        .push(Reverse((self.cycle + dist as u64 - 1, f.dst)));
                    self.slots[p] = Some(f);
                    self.tx_occupancy -= 1;
                } else {
                    stats.injection_stalls += 1;
                }
            }
        }
        self.rot += 1;
        if self.rot == self.n {
            self.rot = 0;
        }
        while let Some(&Reverse((c, dst))) = self.eject.peek() {
            if c != self.cycle {
                debug_assert!(c > self.cycle, "missed a scheduled ejection");
                break;
            }
            self.eject.pop();
            let p = self.phys(dst);
            let f = self.slots[p].take().expect("scheduled flit in slot");
            debug_assert_eq!(f.dst, dst);
            let lat = self.cycle - f.injected_at;
            stats.delivered += 1;
            stats.total_latency += lat;
            stats.max_latency = stats.max_latency.max(lat);
            if let Some(log) = log.as_deref_mut() {
                self.log_crossings(log, f.src, dst, self.cycle);
            }
            self.rx[dst].push_back(f);
        }
    }

    /// Advance the clock by `k` pure rotations (see [`DualRing::skip`]),
    /// `r = k mod n` of which move the slots.
    #[inline]
    fn skip(&mut self, k: u64, r: usize) {
        self.cycle += k;
        self.rot += r;
        if self.rot >= self.n {
            self.rot -= self.n;
        }
    }

    /// Log a flit from `src` ejected at `dst` at `cycle`, one crossing per
    /// hop (see [`DeliveryLog`]); out of line, as only profiled runs log.
    #[inline(never)]
    fn log_crossings(&self, log: &mut DeliveryLog, src: NodeId, dst: NodeId, cycle: u64) {
        let mut hop = src;
        for t in cycle + 1 - self.distance(src, dst) as u64..=cycle {
            log.record(Self::INDEX, hop, t);
            hop += if FORWARD { 1 } else { self.n - 1 };
            if hop >= self.n {
                hop -= self.n;
            }
        }
    }

    /// This ring's part of [`DualRing::rotation_steps`].
    fn rotation_steps(&self) -> u64 {
        if self.tx_occupancy > 0 {
            return 0;
        }
        // A send committed for cycle `a` activates in the step *entered* at
        // `a`; the steps entered at cycles before `a` stay pure rotations.
        let sched = self.sched.peek().map_or(u64::MAX, |s| {
            debug_assert!(s.at >= self.cycle, "scheduled send in the past");
            s.at - self.cycle
        });
        // The nearest in-flight ejection: the step that advances the clock
        // to its cycle ejects; every step before it is a pure rotation.
        match self.eject.peek() {
            None => sched,
            Some(&Reverse((c, _))) => {
                debug_assert!(c > self.cycle, "scheduled ejection in the past");
                (c - self.cycle - 1).min(sched)
            }
        }
    }

    /// This ring's part of [`DualRing::next_delivery_bound`].
    fn next_delivery_bound(&self) -> u64 {
        let mut b = if self.tx_occupancy > 0 {
            self.cycle + 1
        } else {
            u64::MAX
        };
        if let Some(s) = self.sched.peek() {
            // Activates at `a`, injects in the step advancing to `a + 1`,
            // which is also the earliest eject (dist >= 1).
            b = b.min(s.at + 1);
        }
        if let Some(&Reverse((c, _))) = self.eject.peek() {
            b = b.min(c);
        }
        b
    }

    /// This ring's part of [`DualRing::multi_hop_quiet`].
    fn multi_hop_quiet(&self) -> bool {
        self.tx_occupancy == 0 && self.eject.is_empty() && self.sched_multi_hop == 0
    }

    /// Account a distance-1 transit injected at `at` in closed form (see
    /// [`DualRing::fused_data_stats`]); returns its ejection cycle.
    fn fused_transit(
        &self,
        src: NodeId,
        dst: NodeId,
        at: u64,
        stats: &mut RingStats,
        log: Option<&mut DeliveryLog>,
    ) -> u64 {
        let dist = self.distance(src, dst) as u64;
        debug_assert_eq!(dist, 1, "cascade fusion is distance-1 only");
        debug_assert!(at >= self.cycle, "fused transit in the past");
        stats.delivered += 1;
        stats.total_latency += dist;
        stats.max_latency = stats.max_latency.max(dist);
        let cycle = at + dist;
        if let Some(log) = log {
            self.log_crossings(log, src, dst, cycle);
        }
        cycle
    }
}

/// The dual-ring interconnect with `n` stations: a forward [`Ring`] for
/// posted writes and a backward one for credits, on one clock.
#[derive(Clone, Debug)]
pub struct DualRing<P> {
    /// The data ring: posted writes with payloads `P`, station `i` to
    /// `i + 1`.
    pub data: Ring<P, true>,
    /// The credit ring: grants of buffer locations, station `i` to
    /// `i − 1`.
    pub credit: Ring<u32, false>,
    /// Statistics (index 0 = data ring, 1 = credit ring).
    pub stats: [RingStats; 2],
    /// Per-hop crossing log, kept only while profiling.
    delivery_log: Option<Box<DeliveryLog>>,
}

impl<P> DualRing<P> {
    /// A ring with `n ≥ 2` stations.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "ring needs at least two stations");
        DualRing {
            data: Ring::new(n),
            credit: Ring::new(n),
            stats: [RingStats::default(), RingStats::default()],
            delivery_log: None,
        }
    }

    /// Number of stations.
    pub fn num_nodes(&self) -> usize {
        self.data.n
    }

    /// Start recording every hop crossing (both rings) into a
    /// [`DeliveryLog`]. Costs one `u64` push per hop a delivered flit
    /// crossed; leave disabled (the default) outside profiled runs.
    pub fn enable_delivery_log(&mut self) {
        let log = self.delivery_log.get_or_insert_with(Box::default);
        for ring in [&mut log.data, &mut log.credit] {
            ring.hops.resize(self.data.n, Vec::new());
        }
    }

    /// The delivery log, when [`DualRing::enable_delivery_log`] was called.
    pub fn delivery_log(&self) -> Option<&DeliveryLog> {
        self.delivery_log.as_deref()
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.data.cycle
    }

    /// Advance both rings by one cycle.
    ///
    /// The sends committed for the current cycle enter their TX queues,
    /// the clock advances, and then per ring, data first: (1) stations
    /// inject into their local slot register if it is empty, (2) all slots
    /// shift one hop, (3) the slot arriving at its destination is ejected
    /// (guaranteed acceptance), and the delivery log, when on, records its
    /// hop crossings.
    /// With this order a flit's delivery latency equals its hop distance.
    ///
    /// Injection scans run only while a TX queue is non-empty, the shift is
    /// an O(1) offset bump, and ejection addresses the arriving slot
    /// directly from the scheduled-ejection heap — a step with no pending
    /// work touches no per-station state at all.
    pub fn step(&mut self) {
        self.data.activate();
        self.credit.activate();
        let log = &mut self.delivery_log;
        self.data.step(&mut self.stats[0], log.as_deref_mut());
        self.credit.step(&mut self.stats[1], log.as_deref_mut());
    }

    /// Number of upcoming [`DualRing::step`]s that are *pure rotations*:
    /// no injection, ejection or stall accounting can occur during them.
    ///
    /// * `0` — the very next step may do work (a TX queue holds a flit);
    /// * `k` — the next `k` steps only move occupied slots along the rings
    ///   (the nearest in-flight flit is `k + 1` hops from its destination,
    ///   and no send is committed for an earlier cycle);
    /// * `u64::MAX` — nothing is in flight, nothing is scheduled, and the
    ///   rings are externally driven.
    ///
    /// Delivered-but-unread flits do not hold the count at 0: the ring's
    /// part in them is done, and the engine tracks them per tile (a
    /// delivered data flit wakes its owner, which may park it until its
    /// accounted cycle; a delivered credit only raises a counter when its
    /// owner next polls). Flits *in flight* are tracked — their ejection
    /// cycle is never skipped, keeping delivery statistics exact.
    ///
    /// This is the rings' quiescence horizon for the span engine: the
    /// caller may replace up to `rotation_steps()` consecutive [`step`]
    /// calls with one [`DualRing::skip`].
    ///
    /// [`step`]: DualRing::step
    pub fn rotation_steps(&self) -> u64 {
        self.data.rotation_steps().min(self.credit.rotation_steps())
    }

    /// Earliest cycle at which any flit — data or credit; in flight,
    /// TX-queued, or committed for a future cycle — could be delivered
    /// into a station's RX queue. Always `> cycle()`. The span engine
    /// bounds every tile's execution window by this value: within
    /// `[cycle(), bound)` no NI queue or credit counter can change under a
    /// tile's feet, so interval arithmetic over that window observes
    /// exactly what per-cycle stepping would.
    ///
    /// The bound is conservative for not-yet-injected flits (their
    /// delivery cycle depends on slot contention): a queued flit is
    /// assumed 1 hop away, a scheduled send is assumed to inject at its
    /// activation cycle and land the next cycle.
    pub fn next_delivery_bound(&self) -> u64 {
        let b = self
            .data
            .next_delivery_bound()
            .min(self.credit.next_delivery_bound());
        debug_assert!(b > self.cycle());
        b
    }

    /// Advance time by `k` cycles in one go, where all `k` skipped steps
    /// are pure rotations (the caller must ensure `k <= rotation_steps()`).
    /// Equivalent to `k` calls to [`DualRing::step`]: the clock advances
    /// and occupied slots rotate, but nothing is injected, ejected or
    /// logged.
    pub fn skip(&mut self, k: u64) {
        debug_assert!(k <= self.rotation_steps(), "ring skip past its horizon");
        let n = self.data.n as u64;
        let r = (if k < n { k } else { k % n }) as usize;
        self.data.skip(k, r);
        self.credit.skip(k, r);
    }

    /// True when every flit that exists now — or is committed for a future
    /// cycle — travels exactly one hop.
    ///
    /// A distance-1 flit injects and ejects within a single [`DualRing::step`]
    /// (it occupies one `(cycle, station)` slot cell and the slot is free
    /// again before the step returns), so between steps the ejection heaps
    /// can only hold multi-hop flits and a distance-1 injection can never
    /// stall. Under this predicate, flits whose transit is computed in
    /// closed form ([`DualRing::fused_data_stats`]) and flits that really
    /// rotate through the ring are mutually non-interacting: fusing some
    /// hops of a cascade while stepping others is exact.
    pub fn multi_hop_quiet(&self) -> bool {
        self.data.multi_hop_quiet() && self.credit.multi_hop_quiet()
    }

    /// Account a distance-1 data-ring transit in closed form: the delivery
    /// statistics a real flit injected at `at` would have produced,
    /// without ever occupying a slot. Returns the ejection cycle
    /// (`at + 1`).
    ///
    /// Only valid while [`DualRing::multi_hop_quiet`] holds: distance-1
    /// transits never stall and never linger in a slot, so `delivered`,
    /// `total_latency` and `max_latency` come out bit-identical to
    /// stepping the flit through. The statistics and the delivery log,
    /// when on, take the transit at once, ahead of the clock: its ejection
    /// cycle is fixed at commit.
    pub fn fused_data_stats(&mut self, src: NodeId, dst: NodeId, at: u64) -> u64 {
        let log = self.delivery_log.as_deref_mut();
        self.data
            .fused_transit(src, dst, at, &mut self.stats[0], log)
    }

    /// Account a distance-1 credit-ring transit in closed form (see
    /// [`DualRing::fused_data_stats`]). Returns the ejection cycle.
    pub fn fused_credit_stats(&mut self, src: NodeId, dst: NodeId, at: u64) -> u64 {
        let log = self.delivery_log.as_deref_mut();
        self.credit
            .fused_transit(src, dst, at, &mut self.stats[1], log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every flit delivered at `node` from `src` on `stream`, oldest first.
    fn received<B, const F: bool>(
        r: &mut Ring<B, F>,
        node: NodeId,
        src: NodeId,
        stream: u32,
    ) -> Vec<B> {
        let mut got = Vec::new();
        r.receive(node, src, stream, |b| got.push(b));
        got
    }

    #[test]
    fn point_to_point_delivery_latency() {
        let mut ring: DualRing<u64> = DualRing::new(6);
        ring.data.send(0, 3, 0, 0xAB, 0);
        // Injection happens on the first step; 3 hops: arrives at cycle 3.
        for _ in 0..3 {
            ring.step();
            if ring.data.rx_pending(3) > 0 {
                break;
            }
        }
        assert_eq!(received(&mut ring.data, 3, 0, 0), [0xAB]);
        assert_eq!(ring.stats[0].delivered, 1);
        assert_eq!(ring.stats[0].max_latency as usize, ring.data.distance(0, 3));
    }

    #[test]
    fn in_order_delivery_per_pair() {
        let mut ring: DualRing<u64> = DualRing::new(4);
        for k in 0..20 {
            ring.data.send(1, 3, 0, k, 0);
        }
        for _ in 0..60 {
            ring.step();
        }
        let got = received(&mut ring.data, 3, 1, 0);
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn credit_ring_runs_opposite() {
        let mut ring: DualRing<u64> = DualRing::new(6);
        // Data 0 -> 1 is 1 hop; the matching credit 1 -> 0 is also 1 hop
        // because the credit ring runs the opposite way.
        assert_eq!(ring.data.distance(0, 1), 1);
        assert_eq!(ring.credit.distance(1, 0), 1);
        assert_eq!(
            ring.credit.distance(0, 1),
            5,
            "with the data direction it would be 5"
        );
        ring.credit.send(1, 0, 0, 4, 0);
        let mut cycles = 0;
        loop {
            ring.step();
            cycles += 1;
            if let [amount] = received(&mut ring.credit, 0, 1, 0)[..] {
                assert_eq!(amount, 4);
                break;
            }
            assert!(cycles < 10, "credit never arrived");
        }
        // 1 -> 0 against the data direction is exactly 1 hop on the credit ring.
        assert_eq!(cycles, 1);
    }

    #[test]
    fn slot_contention_stalls_but_delivers() {
        let mut ring: DualRing<u64> = DualRing::new(4);
        // Station 0 and station 1 both bombard station 2.
        for k in 0..10 {
            ring.data.send(0, 2, 0, k, 0);
            ring.data.send(1, 2, 1, 100 + k, 0);
        }
        for _ in 0..100 {
            ring.step();
        }
        assert_eq!(ring.stats[0].delivered, 20);
        // Throughput was shared: someone had to wait at least once.
        assert!(ring.stats[0].injection_stalls > 0);
    }

    #[test]
    fn full_throughput_single_flow() {
        // One producer, one consumer: the ring sustains one flit per cycle.
        let mut ring: DualRing<u64> = DualRing::new(8);
        for k in 0..64 {
            ring.data.send(2, 6, 0, k, 0);
        }
        let dist = ring.data.distance(2, 6) as u64;
        let mut cycles = 0u64;
        while ring.stats[0].delivered < 64 {
            ring.step();
            cycles += 1;
            assert!(cycles < 1000);
        }
        // Pipeline: first arrival after `dist`, then 1/cycle.
        assert_eq!(cycles, dist + 63);
    }

    #[test]
    fn guaranteed_acceptance_no_circulation() {
        let mut ring: DualRing<u64> = DualRing::new(4);
        ring.data.send(0, 2, 0, 1, 0);
        for _ in 0..8 {
            ring.step();
        }
        // The flit must not still be on the ring.
        assert!(ring.data.slots.iter().all(|s| s.is_none()));
        assert_eq!(ring.data.rx_pending(2), 1);
    }

    #[test]
    fn posted_write_backlog_drains() {
        let mut ring: DualRing<u64> = DualRing::new(4);
        for k in 0..5 {
            ring.data.send(0, 1, 0, k, 0);
        }
        assert_eq!(ring.data.tx_backlog(0), 5);
        ring.step();
        assert_eq!(ring.data.tx_backlog(0), 4, "one accepted per cycle");
        for _ in 0..10 {
            ring.step();
        }
        assert_eq!(ring.data.tx_backlog(0), 0);
    }

    #[test]
    #[should_panic(expected = "bad endpoints")]
    fn self_send_rejected() {
        let mut ring: DualRing<u64> = DualRing::new(4);
        ring.data.send(1, 1, 0, 0, 0);
    }

    #[test]
    fn idle_steps_reports_queue_and_flight_state() {
        let mut ring: DualRing<u64> = DualRing::new(6);
        assert_eq!(ring.rotation_steps(), u64::MAX, "empty ring is quiescent");
        ring.data.send(0, 3, 0, 7, 0);
        assert_eq!(ring.rotation_steps(), 0, "pending TX forces a step");
        ring.step(); // injected; flit now 1 hop past station 0, 2 hops to go
        assert_eq!(
            ring.rotation_steps(),
            1,
            "one pure-rotation step before ejection"
        );
        ring.skip(1);
        ring.step(); // ejection step
        assert_eq!(ring.data.rx_pending(3), 1);
        assert_eq!(
            ring.rotation_steps(),
            u64::MAX,
            "an unread delivery is its owner's business, not the ring's"
        );
        assert_eq!(received(&mut ring.data, 3, 0, 0), [7]);
        assert_eq!(ring.rotation_steps(), u64::MAX);
    }

    #[test]
    fn delivered_credit_is_inert_but_transit_is_not() {
        let mut ring: DualRing<u64> = DualRing::new(6);
        ring.credit.send(3, 0, 0, 1, 0); // 3 hops against the data direction
        assert_eq!(ring.rotation_steps(), 0, "pending credit TX forces a step");
        ring.step(); // injected; 2 hops to go
        assert_eq!(ring.rotation_steps(), 1, "credit transit still tracked");
        ring.skip(1);
        ring.step(); // ejection
        assert_eq!(ring.data.rx_pending(0), 0, "no data was delivered");
        assert_eq!(
            ring.rotation_steps(),
            u64::MAX,
            "a delivered credit is absorbed whenever its owner next polls"
        );
        assert_eq!(received(&mut ring.credit, 0, 3, 0), [1]);
    }

    #[test]
    fn skip_is_equivalent_to_stepping() {
        // Two identical rings with flits in flight: one steps cycle by
        // cycle, the other skips through its idle window. Delivery cycle,
        // latency stats and payloads must match exactly.
        let build = || {
            let mut r: DualRing<u64> = DualRing::new(8);
            r.data.send(1, 6, 0, 42, 0); // 5 hops
            r.credit.send(6, 1, 0, 3, 0); // 5 hops the other way
            r.step(); // inject both
            r
        };
        let mut stepped = build();
        let mut skipped = build();
        let idle = skipped.rotation_steps();
        assert!(idle > 0);
        for _ in 0..idle {
            stepped.step();
        }
        skipped.skip(idle);
        assert_eq!(stepped.cycle(), skipped.cycle());
        // The next real step ejects in both.
        stepped.step();
        skipped.step();
        assert_eq!(stepped.cycle(), skipped.cycle());
        for r in [&mut stepped, &mut skipped] {
            assert_eq!(received(&mut r.data, 6, 1, 0), [42]);
            assert_eq!(received(&mut r.credit, 1, 6, 0), [3]);
        }
        assert_eq!(stepped.stats[0].max_latency, skipped.stats[0].max_latency);
        assert_eq!(stepped.stats[1].max_latency, skipped.stats[1].max_latency);
        assert_eq!(stepped.stats[0].max_latency, 5, "latency == hop distance");
    }

    #[test]
    fn skip_on_empty_ring_just_advances_clock() {
        // An empty ring can absorb arbitrarily large skips; a flit injected
        // afterwards behaves exactly as on a freshly stepped ring.
        let mut r: DualRing<u64> = DualRing::new(4);
        r.skip(1_000_000);
        assert_eq!(r.cycle(), 1_000_000);
        r.data.send(0, 3, 0, 9, r.cycle());
        for _ in 0..3 {
            r.step();
        }
        assert_eq!(received(&mut r.data, 3, 0, 0), [9]);
        assert_eq!(r.stats[0].max_latency, 3, "latency unaffected by the skip");
    }

    /// An empty log of a ring with `n` stations, as
    /// [`DualRing::enable_delivery_log`] starts it.
    fn empty_log(n: usize) -> DeliveryLog {
        let mut r: DualRing<u64> = DualRing::new(n);
        r.enable_delivery_log();
        *r.delivery_log.expect("just enabled")
    }

    #[test]
    fn delivery_log_window_evicts_oldest() {
        let w = DeliveryLog::WINDOW;
        let mut log = empty_log(3);
        let n = 2 * w + 5;
        for k in 0..n {
            log.record(0, 1, k as u64);
        }
        assert_eq!(log.data_dropped, w as u64);
        assert_eq!(log.data.len(), w + 5);
        // Trailing window: oldest retained crossing follows the evicted ones.
        let hop = &log.data.hops[1];
        assert_eq!(hop[0], w as u64);
        assert_eq!(*hop.last().unwrap(), n as u64 - 1);
        // The other hops and the credit side are independent and untouched.
        assert!(log.data.hops[0].is_empty() && log.data.hops[2].is_empty());
        assert_eq!(log.credit_dropped, 0);
        assert!(log.credit.is_empty());
    }

    #[test]
    fn delivery_log_eviction_sheds_the_oldest_crossings() {
        // Crossings of one hop in commit order, out of cycle order both
        // ways: a fused hop at 2W is committed ahead, before cycle W − 1,
        // and cycle 5 comes late, as the first hop of a long flit logged
        // when it ejects. Crossing the 2 × WINDOW boundary sorts the list
        // and sheds the WINDOW oldest, cycles 0..W: the late crossing goes,
        // the one committed ahead stays.
        let w = DeliveryLog::WINDOW as u64;
        let mut log = empty_log(3);
        for c in (0..2 * w - 1).filter(|&c| c != 5) {
            if c == w - 1 {
                log.record(0, 1, 2 * w);
            }
            log.record(0, 1, c);
        }
        log.record(0, 1, 5);
        assert_eq!(log.data_dropped, 0, "2 × WINDOW crossings fit");
        log.record(0, 1, 2 * w - 1);
        assert_eq!(log.data_dropped, w, "one window shed");
        let mut kept = log.data.hops[1].clone();
        assert!(!kept.is_sorted(), "the newest crossing follows the drain");
        kept.sort_unstable();
        assert_eq!(kept, (w..=2 * w).collect::<Vec<_>>());
        assert_eq!(log.credit_dropped, 0);
    }

    #[test]
    fn delivery_log_records_both_rings_and_survives_skips() {
        let mut ring: DualRing<u64> = DualRing::new(6);
        assert!(ring.delivery_log().is_none(), "off by default");
        ring.enable_delivery_log();
        ring.data.send(0, 3, 7, 1, 0); // 3 hops
        ring.data.send(1, 2, 8, 5, 2); // 1 hop, behind the long flit
        ring.credit.send(3, 0, 9, 2, 0); // 3 hops the other way
        ring.step(); // inject both long flits
        let idle = ring.rotation_steps();
        assert!(idle > 0);
        ring.skip(idle); // pure rotations: nothing may be logged
        assert!(ring.delivery_log().unwrap().data.is_empty());
        ring.step(); // all three eject
        let log = ring.delivery_log().unwrap();
        // The long flit crossed hops 0, 1, 2 at cycles 1, 2, 3 and logs
        // them as it ejects, after the short flit it preceded on hop 1
        // (same-cycle ejections log in station order).
        let data: [&[u64]; 6] = [&[1], &[3, 2], &[3], &[], &[], &[]];
        assert_eq!(log.data.hops, data);
        let credit: [&[u64]; 6] = [&[], &[3], &[2], &[1], &[], &[]];
        assert_eq!(log.credit.hops, credit);
        assert_eq!((log.data.len(), log.credit.len()), (4, 3));
    }

    #[test]
    fn fused_transits_log_their_crossings_at_commit() {
        // The same distance-1 flits on two logging rings: one flies them
        // all, the other fuses every second one. A fused hop is logged at
        // commit, ahead of the clock, so hop 4 of the data ring and hop 5
        // of the credit ring log a later crossing before earlier ones, and
        // a clock jump passes fused ones. The flown lists are in cycle
        // order; the fused ones hold the same crossings, in that order once
        // sorted, and the statistics match.
        let flits: [(bool, usize, u64); 8] = [
            (true, 4, 3),
            (true, 4, 6),
            (false, 5, 3),
            (true, 6, 3),
            (false, 5, 4),
            (true, 0, 4),
            (true, 3, 9),
            (false, 5, 9),
        ];
        let run = |fuse: bool| {
            let mut r: DualRing<u64> = DualRing::new(8);
            r.enable_delivery_log();
            for (i, &(data, src, at)) in flits.iter().enumerate() {
                let stream = 10 + i as u32;
                let fused = fuse && i % 2 == 1;
                match (data, fused) {
                    (true, false) => r.data.send(src, (src + 1) % 8, stream, 0, at),
                    (false, false) => r.credit.send(src, (src + 7) % 8, stream, 1, at),
                    (true, true) => _ = r.fused_data_stats(src, (src + 1) % 8, at),
                    (false, true) => _ = r.fused_credit_stats(src, (src + 7) % 8, at),
                }
            }
            while r.cycle() < 12 {
                match r.rotation_steps() {
                    0 => r.step(),
                    k => r.skip(k.min(12 - r.cycle())),
                }
            }
            let stats: Vec<_> = r
                .stats
                .iter()
                .map(|s| (s.delivered, s.total_latency, s.max_latency))
                .collect();
            let log = r.delivery_log().unwrap();
            (log.data.hops.clone(), log.credit.hops.clone(), stats)
        };
        let (flown, mut fused) = (run(false), run(true));
        let data: [&[u64]; 8] = [&[5], &[], &[], &[10], &[4, 7], &[], &[4], &[]];
        assert_eq!(flown.0, data);
        let credit: [&[u64]; 8] = [&[], &[], &[], &[], &[], &[4, 5, 10], &[], &[]];
        assert_eq!(flown.1, credit);
        assert_eq!(
            (&fused.0[4][..], &fused.1[5][..]),
            (&[7, 4][..], &[10, 4, 5][..])
        );
        fused
            .0
            .iter_mut()
            .chain(&mut fused.1)
            .for_each(|h| h.sort_unstable());
        assert_eq!(flown, fused);
    }

    /// Flits waiting in each station's RX queue.
    fn rx_lens<B, const F: bool>(r: &Ring<B, F>) -> Vec<usize> {
        r.rx.iter().map(VecDeque::len).collect()
    }

    /// The hops crossed in the step just taken, read off the slot
    /// registers: the slot now at station `j` crossed the hop into `j`, and
    /// so did a flit ejected at `j` (its RX queue grew past `rx_before`).
    fn scan_crossings<B, const F: bool>(
        r: &Ring<B, F>,
        rx_before: &[usize],
        seen: &mut [Vec<u64>],
    ) {
        for (j, before) in rx_before.iter().enumerate() {
            let hop = if F {
                (j + r.n - 1) % r.n
            } else {
                (j + 1) % r.n
            };
            let crossed = usize::from(r.slots[r.phys(j)].is_some()) + r.rx[j].len() - before;
            assert!(crossed <= 1, "one slot crosses a hop per cycle");
            if crossed == 1 {
                seen[hop].push(r.cycle);
            }
        }
    }

    #[test]
    fn logged_crossings_match_a_per_cycle_scan_of_the_slots() {
        // Seeded traffic on both rings of 5 stations, stepped cycle by
        // cycle: multi-hop sends, at once and committed ahead, then
        // distance-1 stretches with fused transits while the rings are
        // multi-hop quiet. Every hop's log must equal, once sorted, what a
        // scan of the slot registers saw cross it (a fused transit crosses
        // its one hop at its ejection cycle, without a slot).
        const N: usize = 5;
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut below = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let mut ring: DualRing<u64> = DualRing::new(N);
        ring.enable_delivery_log();
        let mut seen = [vec![Vec::new(); N], vec![Vec::new(); N]];
        let mut fused = 0;
        while ring.cycle() < 3000 || ring.rotation_steps() != u64::MAX {
            let now = ring.cycle();
            let one_hop = (now / 200) % 2 == 1;
            for r in 0..2 {
                if now >= 3000 || below(100) >= 35 {
                    continue;
                }
                let src = below(N as u64) as usize;
                let d = if one_hop {
                    1
                } else {
                    1 + below(N as u64 - 1) as usize
                };
                let at = now + below(3);
                if r == 0 {
                    ring.data.send(src, (src + d) % N, 0, 0, at);
                } else {
                    ring.credit.send(src, (src + N - d) % N, 0, 0, at);
                }
            }
            if one_hop && now < 3000 && ring.multi_hop_quiet() && below(2) == 0 {
                let (src, at) = (below(N as u64) as usize, now + below(4));
                let arrival = ring.fused_data_stats(src, (src + 1) % N, at);
                seen[0][src].push(arrival);
                let dst = (src + 1) % N;
                seen[1][dst].push(ring.fused_credit_stats(dst, src, arrival));
                fused += 1;
            }
            let (data_rx, credit_rx) = (rx_lens(&ring.data), rx_lens(&ring.credit));
            ring.step();
            scan_crossings(&ring.data, &data_rx, &mut seen[0]);
            scan_crossings(&ring.credit, &credit_rx, &mut seen[1]);
        }
        assert!(fused > 20, "{fused} fused transits");
        let log = ring.delivery_log().unwrap();
        let mut out_of_order = 0;
        for (r, logged) in [&log.data, &log.credit].into_iter().enumerate() {
            for (hop, (logged, seen)) in logged.hops.iter().zip(&mut seen[r]).enumerate() {
                out_of_order += usize::from(!logged.is_sorted());
                let mut logged = logged.clone();
                logged.sort_unstable();
                seen.sort_unstable();
                assert_eq!(&logged, seen, "ring {r} hop {hop}");
            }
        }
        assert!(
            out_of_order > 0,
            "multi-hop traffic logs out of cycle order"
        );
        for r in 0..2 {
            let logged = [log.data.len(), log.credit.len()][r] as u64;
            assert!(
                logged > ring.stats[r].delivered,
                "ring {r}: multi-hop flits"
            );
        }
    }

    #[test]
    fn bounded_latency_under_saturation() {
        // Even with all stations transmitting, latency stays bounded because
        // ejection frees slots: check an empirical bound of n * flits.
        let n = 6;
        let mut ring: DualRing<u64> = DualRing::new(n);
        for s in 0..n {
            for k in 0..10 {
                ring.data.send(s, (s + 1) % n, 0, k as u64, 0);
            }
        }
        for _ in 0..200 {
            ring.step();
        }
        assert_eq!(ring.stats[0].delivered as usize, n * 10);
        assert!(
            ring.stats[0].max_latency <= (n as u64) * 10,
            "latency {} too large",
            ring.stats[0].max_latency
        );
    }

    /// Drive `r` for `cycles` steps, then return a full observable snapshot:
    /// stats fields, rx contents and the clock.
    #[allow(clippy::type_complexity)]
    fn drain_snapshot(
        r: &mut DualRing<u64>,
        cycles: u64,
    ) -> (Vec<(u64, u64, u64, u64)>, Vec<Vec<u64>>, Vec<Vec<u32>>, u64) {
        for _ in 0..cycles {
            r.step();
        }
        let stats = r
            .stats
            .iter()
            .map(|s| {
                (
                    s.delivered,
                    s.total_latency,
                    s.max_latency,
                    s.injection_stalls,
                )
            })
            .collect();
        fn bodies<B, const F: bool>(ring: &mut Ring<B, F>) -> Vec<Vec<B>> {
            let rx = ring.rx.iter_mut();
            rx.map(|q| q.drain(..).map(|f| f.body).collect()).collect()
        }
        (stats, bodies(&mut r.data), bodies(&mut r.credit), r.cycle())
    }

    #[test]
    fn scheduled_send_matches_immediate_send() {
        // A send committed for cycle `a` must be indistinguishable from the
        // producer sending while the clock reads `a`, including delivery
        // latency accounting.
        let mut sched: DualRing<u64> = DualRing::new(6);
        sched.data.send(0, 3, 7, 11, 4);
        sched.credit.send(3, 0, 7, 1, 6);

        let mut imm: DualRing<u64> = DualRing::new(6);
        for _ in 0..4 {
            imm.step();
        }
        imm.data.send(0, 3, 7, 11, imm.cycle());
        for _ in 0..2 {
            imm.step();
        }
        imm.credit.send(3, 0, 7, 1, imm.cycle());

        let a = drain_snapshot(&mut sched, 20);
        let b = drain_snapshot(&mut imm, 20 - 6);
        assert_eq!(a.0, b.0, "stats diverge");
        assert_eq!(a.1, b.1, "data deliveries diverge");
        assert_eq!(a.2, b.2, "credit deliveries diverge");
    }

    #[test]
    fn scheduled_send_contends_like_immediate_send() {
        // Occupied slots stall scheduled sends exactly as immediate ones:
        // run the same contention pattern both ways and compare stalls,
        // latencies and per-station delivery order.
        let drive = |scheduled: bool| {
            let mut r: DualRing<u64> = DualRing::new(4);
            if scheduled {
                // Long-haul flits every cycle from station 1 keep the slot
                // at station 2 busy; station 2's own sends must stall.
                for t in 0..8 {
                    r.data.send(1, 0, 0, 100 + t, t);
                    r.data.send(2, 3, 1, 200 + t, t);
                }
                drain_snapshot(&mut r, 30)
            } else {
                for t in 0..8 {
                    r.data.send(1, 0, 0, 100 + t, t);
                    r.data.send(2, 3, 1, 200 + t, t);
                    r.step();
                }
                drain_snapshot(&mut r, 22)
            }
        };
        let a = drive(true);
        let b = drive(false);
        assert_eq!(a.0, b.0, "stats (incl. injection stalls) diverge");
        assert_eq!(a.1, b.1, "delivery contents diverge");
        assert!(
            a.0[0].3 > 0,
            "contention pattern should stall at least once"
        );
    }

    #[test]
    fn idle_steps_bounded_by_scheduled_activation() {
        let mut r: DualRing<u64> = DualRing::new(5);
        assert_eq!(r.rotation_steps(), u64::MAX);
        r.data.send(0, 2, 0, 1, 10);
        // Cycles 0..9 are pure rotations; the step entered at 10 injects.
        assert_eq!(r.rotation_steps(), 10);
        r.skip(10);
        assert_eq!(r.rotation_steps(), 0);
        r.step(); // activates + injects; 2 hops => ejects at cycle 12
        assert_eq!(r.rotation_steps(), 0, "ejection is due on the next step");
        r.step();
        assert_eq!(received(&mut r.data, 2, 0, 0), [1]);
        assert_eq!(r.stats[0].max_latency, 2, "latency == hop distance");
    }

    #[test]
    fn same_cycle_scheduled_send_is_immediate() {
        let mut r: DualRing<u64> = DualRing::new(4);
        r.skip(5);
        r.data.send(1, 3, 0, 77, 5);
        assert_eq!(r.rotation_steps(), 0, "tx queue occupied right away");
        for _ in 0..2 {
            r.step();
        }
        assert_eq!(received(&mut r.data, 3, 1, 0), [77]);
        assert_eq!(r.stats[0].max_latency, 2);
    }
}
