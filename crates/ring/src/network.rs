//! Cycle-level dual-ring interconnect.
//!
//! Models the low-cost guaranteed-throughput ring of Dekens et al. (DASIP
//! 2013/2014) that the paper uses as its inter-tile interconnect:
//!
//! * **data ring** — unidirectional, one hop per cycle, one slot per link;
//! * **credit ring** — identical structure, opposite direction, carrying
//!   flow-control credits;
//! * **posted writes** — a producer's write completes when the ring accepts
//!   it (an empty slot passes its station);
//! * **guaranteed acceptance** — a flit that reaches its destination is
//!   always ejected (receive buffers are provisioned by credit flow
//!   control), so flits never circulate and a slot freed by ejection is
//!   immediately reusable: bounded injection latency and throughput follow.
//!
//! Each cycle: slots advance one position, destinations eject, stations
//! inject into the (now possibly empty) local slot.

use crate::flit::{CreditFlit, DataFlit, NodeId};
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

impl RingStats {
    /// Mean delivery latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.delivered as f64
        }
    }
}

/// One delivered flit, as recorded by the optional [`DeliveryLog`].
///
/// With the inject→rotate→eject step order a flit's delivery latency equals
/// its hop distance, so the record reconstructs the full path: a data flit
/// delivered at `cycle` crossed hop `(src + k) mod n` (the edge from that
/// station to its successor) during cycle `cycle − d + 1 + k` for
/// `k = 0..d−1`, where `d` is the data-ring hop distance; credit flits
/// mirror this against the rotation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Cycle the flit was ejected at its destination.
    pub cycle: u64,
    /// Source station.
    pub src: NodeId,
    /// Destination station.
    pub dst: NodeId,
    /// Stream / link identifier carried by the flit.
    pub stream: u32,
}

/// A fused transit waiting for the ring clock: `(ejection cycle,
/// destination, source, stream)`, ordered as [`DualRing::step`] ejects.
type Transit = (u64, NodeId, NodeId, u32);

/// Log of delivered flits on both rings, kept only when a profiler asked
/// for it ([`DualRing::enable_delivery_log`]). Records enter in ejection
/// order — by cycle, then by destination station — as the ring clock
/// passes them. A transit committed in closed form
/// ([`DualRing::fused_data_stats`]) waits until then, so it lands between
/// the real ejections exactly where the flit would have ejected. The
/// log is therefore bit-identical between the exhaustive and the
/// event-driven engines, fused or not.
///
/// Each direction retains a bounded trailing window (at least
/// [`DeliveryLog::WINDOW`] records, at most twice that — eviction drains
/// half the buffer at once, amortised O(1) per delivery); the
/// `*_dropped` counters report how many of the oldest records were shed,
/// so profiles of arbitrarily long runs stay bounded without silently
/// pretending to be complete.
#[derive(Clone, Debug, Default)]
pub struct DeliveryLog {
    /// Data-ring deliveries, in ejection order (trailing window).
    pub data: Vec<Delivery>,
    /// Credit-ring deliveries, in ejection order (trailing window).
    pub credit: Vec<Delivery>,
    /// Oldest data-ring records evicted from the window.
    pub data_dropped: u64,
    /// Oldest credit-ring records evicted from the window.
    pub credit_dropped: u64,
    /// Fused transits on each ring (0 = data, 1 = credit) that eject
    /// after the ring clock, in ejection order: at most the hops of the
    /// cascades in flight. Cascades commit forward in time, so nearly
    /// every transit is appended at the back.
    fused: [VecDeque<Transit>; 2],
}

impl DeliveryLog {
    /// Minimum number of most-recent records retained per ring direction.
    pub const WINDOW: usize = 1 << 20;

    fn record(list: &mut Vec<Delivery>, dropped: &mut u64, d: Delivery) {
        if list.len() >= 2 * Self::WINDOW {
            list.drain(..Self::WINDOW);
            *dropped += Self::WINDOW as u64;
        }
        list.push(d);
    }

    /// Append a data-ring delivery, evicting the oldest window if full.
    pub fn record_data(&mut self, d: Delivery) {
        Self::record(&mut self.data, &mut self.data_dropped, d);
    }

    /// Append a credit-ring delivery, evicting the oldest window if full.
    pub fn record_credit(&mut self, d: Delivery) {
        Self::record(&mut self.credit, &mut self.credit_dropped, d);
    }

    /// Hold a fused transit of ring `r` until the ring clock passes it.
    fn hold(&mut self, r: usize, t: Transit) {
        let q = &mut self.fused[r];
        let mut i = q.len();
        while i > 0 && q[i - 1] > t {
            i -= 1;
        }
        q.insert(i, t);
    }

    /// Append a delivery on ring `r` (0 = data, 1 = credit).
    fn record_on(&mut self, r: usize, d: Delivery) {
        match r {
            0 => self.record_data(d),
            _ => self.record_credit(d),
        }
    }

    /// Append the fused transits of ring `r` that eject before
    /// `(cycle, station)`.
    fn pass(&mut self, r: usize, before: (u64, NodeId)) {
        while let Some(&(cycle, dst, src, stream)) = self.fused[r].front() {
            if (cycle, dst) >= before {
                break;
            }
            self.fused[r].pop_front();
            let d = Delivery {
                cycle,
                src,
                dst,
                stream,
            };
            self.record_on(r, d);
        }
    }

    /// Log a real ejection on ring `r`, after the fused transits that
    /// eject before it.
    fn eject(&mut self, r: usize, d: Delivery) {
        self.pass(r, (d.cycle, d.dst));
        self.record_on(r, d);
    }

    /// Append every fused transit that ejects by `cycle`, the ring clock.
    fn pass_through(&mut self, cycle: u64) {
        self.pass(0, (cycle + 1, 0));
        self.pass(1, (cycle + 1, 0));
    }
}

/// A posted write committed for a future cycle (see
/// [`DualRing::send_data_at`]). Ordered by `(at, seq)` so a `BinaryHeap`
/// of them pops the earliest commitment first; `seq` preserves program
/// order among same-cycle commitments from the same station.
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

/// The dual-ring interconnect with `n` stations.
///
/// # Representation (batched-span support)
///
/// Slot registers are stored in fixed backing vectors that never move;
/// rotation is a per-ring offset (`data_rot` / `credit_rot`) bumped each
/// step, so [`DualRing::skip`] is O(1) regardless of the span length. Every
/// in-flight flit's ejection cycle is known exactly at injection time
/// (latency == hop distance), so each ring keeps a min-heap of scheduled
/// `(ejection cycle, destination)` pairs: [`DualRing::rotation_steps`]
/// answers in O(1) and [`DualRing::step`] ejects by direct slot addressing instead
/// of scanning all stations — O(actual events), the property the platform's
/// span-replay engine relies on to deliver k adjacent-hop flits without k
/// full ring scans.
#[derive(Clone, Debug)]
pub struct DualRing<P> {
    n: usize,
    cycle: u64,
    /// Data ring slot registers. The slot currently sitting at station `i`
    /// is `data_slots[(i + n - data_rot) % n]`; advancing the ring is
    /// `data_rot += 1` (mod n) instead of a memmove.
    data_slots: Vec<Option<DataFlit<P>>>,
    /// Credit ring slot registers, rotating the opposite way: station `i`
    /// maps to `credit_slots[(i + credit_rot) % n]`.
    credit_slots: Vec<Option<CreditFlit>>,
    /// Rotation offsets (always `< n`).
    data_rot: usize,
    credit_rot: usize,
    /// Scheduled ejections per ring: `(cycle, destination station)` for
    /// every in-flight flit. `Reverse` turns `BinaryHeap` into a min-heap;
    /// the `(cycle, dst)` order makes same-cycle ejections pop in station
    /// order, matching the historical full-scan order exactly.
    data_eject: BinaryHeap<Reverse<(u64, usize)>>,
    credit_eject: BinaryHeap<Reverse<(u64, usize)>>,
    /// Per-station transmit queues.
    data_tx: Vec<VecDeque<DataFlit<P>>>,
    credit_tx: Vec<VecDeque<CreditFlit>>,
    /// Per-station receive queues (guaranteed acceptance — unbounded here;
    /// boundedness is enforced end-to-end by credits).
    data_rx: Vec<VecDeque<DataFlit<P>>>,
    credit_rx: Vec<VecDeque<CreditFlit>>,
    /// Flits across data / credit TX queues — lets the injection phase and
    /// [`DualRing::rotation_steps`] answer without scanning every queue.
    data_tx_occupancy: usize,
    credit_tx_occupancy: usize,
    /// Statistics (index 0 = data ring, 1 = credit ring).
    pub stats: [RingStats; 2],
    /// Per-delivery log, kept only while profiling.
    delivery_log: Option<Box<DeliveryLog>>,
    /// Sends committed for future cycles by the span engine
    /// ([`DualRing::send_data_at`] / [`DualRing::send_credit_at`]). An
    /// entry with activation cycle `a` drains into the normal TX queue at
    /// the top of the [`DualRing::step`] entered while `cycle == a`, which
    /// is bit-identical to the tile calling the immediate send at `a`.
    sched_data: BinaryHeap<Scheduled<DataFlit<P>>>,
    sched_credit: BinaryHeap<Scheduled<CreditFlit>>,
    sched_seq: u64,
    /// Committed-but-not-yet-activated sends (either ring) whose hop
    /// distance exceeds 1. While zero — and the TX queues and ejection
    /// heaps are empty — every present and future flit is distance-1 and
    /// therefore confined to a single `(cycle, station)` slot cell, the
    /// precondition for closed-form cascade fusion
    /// ([`DualRing::multi_hop_quiet`]).
    sched_multi_hop: usize,
}

impl<P: Clone> DualRing<P> {
    /// A ring with `n ≥ 2` stations.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "ring needs at least two stations");
        DualRing {
            n,
            cycle: 0,
            data_slots: vec![None; n],
            credit_slots: vec![None; n],
            data_rot: 0,
            credit_rot: 0,
            data_eject: BinaryHeap::new(),
            credit_eject: BinaryHeap::new(),
            data_tx: (0..n).map(|_| VecDeque::new()).collect(),
            credit_tx: (0..n).map(|_| VecDeque::new()).collect(),
            data_rx: (0..n).map(|_| VecDeque::new()).collect(),
            credit_rx: (0..n).map(|_| VecDeque::new()).collect(),
            data_tx_occupancy: 0,
            credit_tx_occupancy: 0,
            stats: [RingStats::default(), RingStats::default()],
            delivery_log: None,
            sched_data: BinaryHeap::new(),
            sched_credit: BinaryHeap::new(),
            sched_seq: 0,
            sched_multi_hop: 0,
        }
    }

    /// Backing index of the data-ring slot currently at station `i`.
    #[inline]
    fn data_phys(&self, i: usize) -> usize {
        let k = i + self.n - self.data_rot;
        if k >= self.n {
            k - self.n
        } else {
            k
        }
    }

    /// Backing index of the credit-ring slot currently at station `i`.
    #[inline]
    fn credit_phys(&self, i: usize) -> usize {
        let k = i + self.credit_rot;
        if k >= self.n {
            k - self.n
        } else {
            k
        }
    }

    /// Number of stations.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Start recording every delivered flit (both rings) into a
    /// [`DeliveryLog`]. Costs one `Vec` push per delivery; leave disabled
    /// (the default) outside profiled runs.
    pub fn enable_delivery_log(&mut self) {
        if self.delivery_log.is_none() {
            self.delivery_log = Some(Box::default());
        }
    }

    /// The delivery log, when [`DualRing::enable_delivery_log`] was called.
    pub fn delivery_log(&self) -> Option<&DeliveryLog> {
        self.delivery_log.as_deref()
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Queue a posted write. The write is "accepted" (completes for the
    /// producer) once it leaves the TX queue for a slot.
    pub fn send_data(&mut self, src: NodeId, dst: NodeId, stream: u32, payload: P) {
        assert!(src < self.n && dst < self.n && src != dst, "bad endpoints");
        self.data_tx[src].push_back(DataFlit {
            src,
            dst,
            stream,
            payload,
            injected_at: self.cycle,
        });
        self.data_tx_occupancy += 1;
    }

    /// Queue a credit transfer on the credit ring.
    pub fn send_credit(&mut self, src: NodeId, dst: NodeId, stream: u32, amount: u32) {
        assert!(src < self.n && dst < self.n && src != dst, "bad endpoints");
        self.credit_tx[src].push_back(CreditFlit {
            src,
            dst,
            stream,
            amount,
            injected_at: self.cycle,
        });
        self.credit_tx_occupancy += 1;
    }

    /// Commit a posted write for cycle `at ≥ cycle()`. Bit-identical to the
    /// producer calling [`DualRing::send_data`] while the ring clock reads
    /// `at`: the flit enters the TX queue (injection stalls, delivery
    /// latency and the delivery log all behave as if sent then). `at ==
    /// cycle()` degenerates to an immediate send. Used by the span engine
    /// to commit a whole interval of paced sends in one tile invocation.
    pub fn send_data_at(&mut self, src: NodeId, dst: NodeId, stream: u32, payload: P, at: u64) {
        assert!(at >= self.cycle, "scheduled send in the past");
        if at == self.cycle {
            self.send_data(src, dst, stream, payload);
            return;
        }
        assert!(src < self.n && dst < self.n && src != dst, "bad endpoints");
        self.sched_seq += 1;
        if self.data_distance(src, dst) > 1 {
            self.sched_multi_hop += 1;
        }
        self.sched_data.push(Scheduled {
            at,
            seq: self.sched_seq,
            flit: DataFlit {
                src,
                dst,
                stream,
                payload,
                injected_at: at,
            },
        });
    }

    /// Commit a credit transfer for cycle `at ≥ cycle()` (see
    /// [`DualRing::send_data_at`]).
    pub fn send_credit_at(&mut self, src: NodeId, dst: NodeId, stream: u32, amount: u32, at: u64) {
        assert!(at >= self.cycle, "scheduled send in the past");
        if at == self.cycle {
            self.send_credit(src, dst, stream, amount);
            return;
        }
        assert!(src < self.n && dst < self.n && src != dst, "bad endpoints");
        self.sched_seq += 1;
        if self.credit_distance(src, dst) > 1 {
            self.sched_multi_hop += 1;
        }
        self.sched_credit.push(Scheduled {
            at,
            seq: self.sched_seq,
            flit: CreditFlit {
                src,
                dst,
                stream,
                amount,
                injected_at: at,
            },
        });
    }

    /// Earliest activation cycle among scheduled future sends, if any.
    fn next_scheduled(&self) -> Option<u64> {
        match (self.sched_data.peek(), self.sched_credit.peek()) {
            (None, None) => None,
            (Some(d), None) => Some(d.at),
            (None, Some(c)) => Some(c.at),
            (Some(d), Some(c)) => Some(d.at.min(c.at)),
        }
    }

    /// Move scheduled sends whose activation cycle has arrived into the
    /// normal TX queues. Runs at the top of [`DualRing::step`] *before* the
    /// clock advances, so an entry scheduled for `at` is enqueued exactly
    /// where an immediate send at `at` would have been.
    fn activate_scheduled(&mut self) {
        while let Some(s) = self.sched_data.peek() {
            debug_assert!(s.at >= self.cycle, "missed a scheduled send");
            if s.at != self.cycle {
                break;
            }
            let s = self.sched_data.pop().unwrap();
            if self.data_distance(s.flit.src, s.flit.dst) > 1 {
                self.sched_multi_hop -= 1;
            }
            self.data_tx[s.flit.src].push_back(s.flit);
            self.data_tx_occupancy += 1;
        }
        while let Some(s) = self.sched_credit.peek() {
            debug_assert!(s.at >= self.cycle, "missed a scheduled send");
            if s.at != self.cycle {
                break;
            }
            let s = self.sched_credit.pop().unwrap();
            if self.credit_distance(s.flit.src, s.flit.dst) > 1 {
                self.sched_multi_hop -= 1;
            }
            self.credit_tx[s.flit.src].push_back(s.flit);
            self.credit_tx_occupancy += 1;
        }
    }

    /// Pending TX occupancy of a station (posted writes not yet accepted).
    pub fn tx_backlog(&self, node: NodeId) -> usize {
        self.data_tx[node].len()
    }

    /// Pop one delivered data flit at a station, if any.
    pub fn recv_data(&mut self, node: NodeId) -> Option<DataFlit<P>> {
        self.data_rx[node].pop_front()
    }

    /// Pop one delivered credit flit at a station, if any.
    pub fn recv_credit(&mut self, node: NodeId) -> Option<CreditFlit> {
        self.credit_rx[node].pop_front()
    }

    /// Put a delivered data flit back at the tail of a station's receive
    /// queue. Used by demultiplexers that drain the queue and must preserve
    /// flits belonging to other endpoints (order is preserved when the whole
    /// queue was drained first).
    pub fn requeue_data(&mut self, node: NodeId, flit: DataFlit<P>) {
        self.data_rx[node].push_back(flit);
    }

    /// Put a delivered credit flit back (see [`DualRing::requeue_data`]).
    pub fn requeue_credit(&mut self, node: NodeId, flit: CreditFlit) {
        self.credit_rx[node].push_back(flit);
    }

    /// Number of delivered-but-unread data flits at a station.
    pub fn rx_pending(&self, node: NodeId) -> usize {
        self.data_rx[node].len()
    }

    /// Advance both rings by one cycle.
    ///
    /// Per cycle and per ring: (1) stations inject into their local slot
    /// register if it is empty, (2) all slots shift one hop, (3) the slot
    /// arriving at its destination is ejected (guaranteed acceptance). With
    /// this order a flit's delivery latency equals its hop distance.
    ///
    /// Injection scans run only while a TX queue is non-empty, the shift is
    /// an O(1) offset bump, and ejection addresses the arriving slot
    /// directly from the scheduled-ejection heap — a step with no pending
    /// work touches no per-station state at all.
    pub fn step(&mut self) {
        self.activate_scheduled();
        self.cycle += 1;

        // --- data ring ---
        if self.data_tx_occupancy > 0 {
            for i in 0..self.n {
                if self.data_tx[i].is_empty() {
                    continue;
                }
                let p = self.data_phys(i);
                if self.data_slots[p].is_none() {
                    let f = self.data_tx[i].pop_front().unwrap();
                    // Latency == hop distance: the ejection cycle is fixed
                    // at injection time. This very step performs the first
                    // hop, so a 1-hop flit ejects at `self.cycle`.
                    let dist = (f.dst + self.n - i) % self.n;
                    self.data_eject
                        .push(Reverse((self.cycle + dist as u64 - 1, f.dst)));
                    self.data_slots[p] = Some(f);
                    self.data_tx_occupancy -= 1;
                } else {
                    self.stats[0].injection_stalls += 1;
                }
            }
        }
        // Shift forward: slot at station i moves to station i+1.
        self.data_rot += 1;
        if self.data_rot == self.n {
            self.data_rot = 0;
        }
        while let Some(&Reverse((c, dst))) = self.data_eject.peek() {
            if c != self.cycle {
                debug_assert!(c > self.cycle, "missed a scheduled ejection");
                break;
            }
            self.data_eject.pop();
            let p = self.data_phys(dst);
            let f = self.data_slots[p].take().expect("scheduled flit in slot");
            debug_assert_eq!(f.dst, dst);
            let lat = self.cycle - f.injected_at;
            self.stats[0].delivered += 1;
            self.stats[0].total_latency += lat;
            self.stats[0].max_latency = self.stats[0].max_latency.max(lat);
            if let Some(log) = self.delivery_log.as_deref_mut() {
                log.eject(
                    0,
                    Delivery {
                        cycle: self.cycle,
                        src: f.src,
                        dst: f.dst,
                        stream: f.stream,
                    },
                );
            }
            self.data_rx[dst].push_back(f);
        }

        // --- credit ring (opposite direction) ---
        if self.credit_tx_occupancy > 0 {
            for i in 0..self.n {
                if self.credit_tx[i].is_empty() {
                    continue;
                }
                let p = self.credit_phys(i);
                if self.credit_slots[p].is_none() {
                    let c = self.credit_tx[i].pop_front().unwrap();
                    let dist = (i + self.n - c.dst) % self.n;
                    self.credit_eject
                        .push(Reverse((self.cycle + dist as u64 - 1, c.dst)));
                    self.credit_slots[p] = Some(c);
                    self.credit_tx_occupancy -= 1;
                } else {
                    self.stats[1].injection_stalls += 1;
                }
            }
        }
        self.credit_rot += 1;
        if self.credit_rot == self.n {
            self.credit_rot = 0;
        }
        while let Some(&Reverse((c, dst))) = self.credit_eject.peek() {
            if c != self.cycle {
                debug_assert!(c > self.cycle, "missed a scheduled ejection");
                break;
            }
            self.credit_eject.pop();
            let p = self.credit_phys(dst);
            let c = self.credit_slots[p].take().expect("scheduled flit in slot");
            debug_assert_eq!(c.dst, dst);
            let lat = self.cycle - c.injected_at;
            self.stats[1].delivered += 1;
            self.stats[1].total_latency += lat;
            self.stats[1].max_latency = self.stats[1].max_latency.max(lat);
            if let Some(log) = self.delivery_log.as_deref_mut() {
                log.eject(
                    1,
                    Delivery {
                        cycle: self.cycle,
                        src: c.src,
                        dst: c.dst,
                        stream: c.stream,
                    },
                );
            }
            self.credit_rx[dst].push_back(c);
        }
        if let Some(log) = self.delivery_log.as_deref_mut() {
            log.pass_through(self.cycle);
        }
    }

    /// Number of upcoming [`DualRing::step`]s that are *pure rotations*:
    /// no injection, ejection or stall accounting can occur during them.
    ///
    /// * `0` — the very next step may do work (a TX queue holds a posted
    ///   write);
    /// * `k` — the next `k` steps only move occupied slots along the ring
    ///   (the nearest in-flight flit is `k + 1` hops from its destination,
    ///   and no send is committed for an earlier cycle);
    /// * `u64::MAX` — nothing is in flight, nothing is scheduled, and the
    ///   ring is externally driven.
    ///
    /// Delivered-but-unread flits do not hold the count at 0: the ring's
    /// part in them is done, and the engine tracks them per tile (a
    /// delivered data flit wakes its owner, which may park it until its
    /// accounted cycle; a delivered credit only raises a counter when its
    /// owner next polls). Flits *in flight* are tracked — their ejection
    /// cycle is never skipped, keeping delivery statistics exact.
    ///
    /// This is the ring's quiescence horizon for the span engine: the
    /// caller may replace up to `rotation_steps()` consecutive [`step`]
    /// calls with one [`DualRing::skip`].
    ///
    /// [`step`]: DualRing::step
    pub fn rotation_steps(&self) -> u64 {
        if self.data_tx_occupancy > 0 || self.credit_tx_occupancy > 0 {
            return 0;
        }
        // A send committed for cycle `a` activates in the step *entered* at
        // `a`; the steps entered at cycles before `a` stay pure rotations.
        let sched_bound = match self.next_scheduled() {
            None => u64::MAX,
            Some(a) => {
                debug_assert!(a >= self.cycle, "scheduled send in the past");
                a - self.cycle
            }
        };
        // Every in-flight flit's ejection cycle is scheduled, so the
        // nearest one answers in O(1): the ejecting step is the one that
        // advances the clock to that cycle; everything before it is a pure
        // rotation.
        let eject_bound = match (self.data_eject.peek(), self.credit_eject.peek()) {
            (None, None) => u64::MAX, // nothing in flight
            (Some(&Reverse((d, _))), None) => d,
            (None, Some(&Reverse((c, _)))) => c,
            (Some(&Reverse((d, _))), Some(&Reverse((c, _)))) => d.min(c),
        };
        if eject_bound == u64::MAX {
            return sched_bound; // possibly MAX: truly empty ring
        }
        debug_assert!(eject_bound > self.cycle, "scheduled ejection in the past");
        (eject_bound - self.cycle - 1).min(sched_bound)
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
        let mut b = u64::MAX;
        if self.data_tx_occupancy > 0 || self.credit_tx_occupancy > 0 {
            b = self.cycle + 1;
        }
        if let Some(a) = self.next_scheduled() {
            // Activates at `a`, injects in the step advancing to `a + 1`,
            // which is also the earliest eject (dist >= 1).
            b = b.min(a + 1);
        }
        if let Some(&Reverse((d, _))) = self.data_eject.peek() {
            b = b.min(d);
        }
        if let Some(&Reverse((c, _))) = self.credit_eject.peek() {
            b = b.min(c);
        }
        debug_assert!(b > self.cycle);
        b
    }

    /// Advance time by `k` cycles in one go, where all `k` skipped steps
    /// are pure rotations (the caller must ensure `k <= rotation_steps()`).
    /// Equivalent to `k` calls to [`DualRing::step`]: the clock advances
    /// and occupied slots rotate, but nothing is injected or ejected (the
    /// delivery log takes the fused transits the clock passes).
    pub fn skip(&mut self, k: u64) {
        debug_assert!(k <= self.rotation_steps(), "ring skip past its horizon");
        self.cycle += k;
        if let Some(log) = self.delivery_log.as_deref_mut() {
            log.pass_through(self.cycle);
        }
        let n = self.n as u64;
        let r = (if k < n { k } else { k % n }) as usize;
        self.data_rot += r;
        if self.data_rot >= self.n {
            self.data_rot -= self.n;
        }
        self.credit_rot += r;
        if self.credit_rot >= self.n {
            self.credit_rot -= self.n;
        }
    }

    /// Hop distance from `src` to `dst` along the data ring direction.
    pub fn data_distance(&self, src: NodeId, dst: NodeId) -> usize {
        (dst + self.n - src) % self.n
    }

    /// Hop distance from `src` to `dst` along the credit ring direction.
    pub fn credit_distance(&self, src: NodeId, dst: NodeId) -> usize {
        (src + self.n - dst) % self.n
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
        self.data_tx_occupancy == 0
            && self.credit_tx_occupancy == 0
            && self.data_eject.is_empty()
            && self.credit_eject.is_empty()
            && self.sched_multi_hop == 0
    }

    /// Account a distance-1 data-ring transit of `stream` in closed form:
    /// the delivery statistics a real flit injected at `at` would have
    /// produced, without ever occupying a slot. Returns the ejection cycle
    /// (`at + 1`).
    ///
    /// Only valid while [`DualRing::multi_hop_quiet`] holds: distance-1
    /// transits never stall and never linger in a slot, so `delivered`,
    /// `total_latency` and `max_latency` come out bit-identical to
    /// stepping the flit through. The statistics count the transit at
    /// once, ahead of the clock; the delivery log, when on, records it
    /// when the clock passes its ejection, in ejection order.
    pub fn fused_data_stats(&mut self, src: NodeId, dst: NodeId, stream: u32, at: u64) -> u64 {
        self.fused_transit(0, (src, dst, stream), self.data_distance(src, dst), at)
    }

    /// Account a distance-1 credit-ring transit in closed form (see
    /// [`DualRing::fused_data_stats`]). Returns the ejection cycle.
    pub fn fused_credit_stats(&mut self, src: NodeId, dst: NodeId, stream: u32, at: u64) -> u64 {
        self.fused_transit(1, (src, dst, stream), self.credit_distance(src, dst), at)
    }

    fn fused_transit(
        &mut self,
        r: usize,
        (src, dst, stream): (NodeId, NodeId, u32),
        dist: usize,
        at: u64,
    ) -> u64 {
        debug_assert_eq!(dist, 1, "cascade fusion is distance-1 only");
        debug_assert!(at >= self.cycle, "fused transit in the past");
        let (dist, s) = (dist as u64, &mut self.stats[r]);
        s.delivered += 1;
        s.total_latency += dist;
        s.max_latency = s.max_latency.max(dist);
        if let Some(log) = self.delivery_log.as_deref_mut() {
            log.hold(r, (at + dist, dst, src, stream));
        }
        at + dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_delivery_latency() {
        let mut ring: DualRing<u64> = DualRing::new(6);
        ring.send_data(0, 3, 0, 0xAB);
        // Injection happens on the first step; 3 hops: arrives at cycle 3.
        for _ in 0..3 {
            ring.step();
            if ring.rx_pending(3) > 0 {
                break;
            }
        }
        let f = ring.recv_data(3).expect("delivered");
        assert_eq!(f.payload, 0xAB);
        assert_eq!(ring.stats[0].delivered, 1);
        assert_eq!(ring.stats[0].max_latency as usize, ring.data_distance(0, 3));
    }

    #[test]
    fn in_order_delivery_per_pair() {
        let mut ring: DualRing<u64> = DualRing::new(4);
        for k in 0..20 {
            ring.send_data(1, 3, 0, k);
        }
        for _ in 0..60 {
            ring.step();
        }
        let mut got = Vec::new();
        while let Some(f) = ring.recv_data(3) {
            got.push(f.payload);
        }
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn credit_ring_runs_opposite() {
        let mut ring: DualRing<u64> = DualRing::new(6);
        // Data 0 -> 1 is 1 hop; the matching credit 1 -> 0 is also 1 hop
        // because the credit ring runs the opposite way.
        assert_eq!(ring.data_distance(0, 1), 1);
        assert_eq!(ring.credit_distance(1, 0), 1);
        assert_eq!(
            ring.credit_distance(0, 1),
            5,
            "with the data direction it would be 5"
        );
        ring.send_credit(1, 0, 0, 4);
        let mut cycles = 0;
        loop {
            ring.step();
            cycles += 1;
            if let Some(c) = ring.recv_credit(0) {
                assert_eq!(c.amount, 4);
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
            ring.send_data(0, 2, 0, k);
            ring.send_data(1, 2, 1, 100 + k);
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
            ring.send_data(2, 6, 0, k);
        }
        let dist = ring.data_distance(2, 6) as u64;
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
        ring.send_data(0, 2, 0, 1);
        for _ in 0..8 {
            ring.step();
        }
        // The flit must not still be on the ring.
        assert!(ring.data_slots.iter().all(|s| s.is_none()));
        assert_eq!(ring.rx_pending(2), 1);
    }

    #[test]
    fn posted_write_backlog_drains() {
        let mut ring: DualRing<u64> = DualRing::new(4);
        for k in 0..5 {
            ring.send_data(0, 1, 0, k);
        }
        assert_eq!(ring.tx_backlog(0), 5);
        ring.step();
        assert_eq!(ring.tx_backlog(0), 4, "one accepted per cycle");
        for _ in 0..10 {
            ring.step();
        }
        assert_eq!(ring.tx_backlog(0), 0);
    }

    #[test]
    #[should_panic(expected = "bad endpoints")]
    fn self_send_rejected() {
        let mut ring: DualRing<u64> = DualRing::new(4);
        ring.send_data(1, 1, 0, 0);
    }

    #[test]
    fn idle_steps_reports_queue_and_flight_state() {
        let mut ring: DualRing<u64> = DualRing::new(6);
        assert_eq!(ring.rotation_steps(), u64::MAX, "empty ring is quiescent");
        ring.send_data(0, 3, 0, 7);
        assert_eq!(ring.rotation_steps(), 0, "pending TX forces a step");
        ring.step(); // injected; flit now 1 hop past station 0, 2 hops to go
        assert_eq!(
            ring.rotation_steps(),
            1,
            "one pure-rotation step before ejection"
        );
        ring.skip(1);
        ring.step(); // ejection step
        assert_eq!(ring.rx_pending(3), 1);
        assert_eq!(
            ring.rotation_steps(),
            u64::MAX,
            "an unread delivery is its owner's business, not the ring's"
        );
        let f = ring.recv_data(3).expect("delivered");
        assert_eq!(f.payload, 7);
        assert_eq!(ring.rotation_steps(), u64::MAX);
    }

    #[test]
    fn delivered_credit_is_inert_but_transit_is_not() {
        let mut ring: DualRing<u64> = DualRing::new(6);
        ring.send_credit(3, 0, 0, 1); // 3 hops against the data direction
        assert_eq!(ring.rotation_steps(), 0, "pending credit TX forces a step");
        ring.step(); // injected; 2 hops to go
        assert_eq!(ring.rotation_steps(), 1, "credit transit still tracked");
        ring.skip(1);
        ring.step(); // ejection
        assert_eq!(ring.rx_pending(0), 0, "no data was delivered");
        assert_eq!(
            ring.rotation_steps(),
            u64::MAX,
            "a delivered credit is absorbed whenever its owner next polls"
        );
        let c = ring.recv_credit(0).expect("credit delivered");
        assert_eq!(c.amount, 1);
    }

    #[test]
    fn skip_is_equivalent_to_stepping() {
        // Two identical rings with flits in flight: one steps cycle by
        // cycle, the other skips through its idle window. Delivery cycle,
        // latency stats and payloads must match exactly.
        let build = || {
            let mut r: DualRing<u64> = DualRing::new(8);
            r.send_data(1, 6, 0, 42); // 5 hops
            r.send_credit(6, 1, 0, 3); // 5 hops the other way
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
            let f = r.recv_data(6).expect("data delivered");
            assert_eq!(f.payload, 42);
            let c = r.recv_credit(1).expect("credit delivered");
            assert_eq!(c.amount, 3);
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
        r.send_data(0, 3, 0, 9);
        for _ in 0..3 {
            r.step();
        }
        let f = r.recv_data(3).expect("delivered");
        assert_eq!(f.payload, 9);
        assert_eq!(r.stats[0].max_latency, 3, "latency unaffected by the skip");
    }

    #[test]
    fn delivery_log_window_evicts_oldest() {
        let mut log = DeliveryLog::default();
        let n = 2 * DeliveryLog::WINDOW + 5;
        for k in 0..n {
            log.record_data(Delivery {
                cycle: k as u64,
                src: 0,
                dst: 1,
                stream: 0,
            });
        }
        assert_eq!(log.data_dropped, DeliveryLog::WINDOW as u64);
        assert_eq!(log.data.len(), DeliveryLog::WINDOW + 5);
        // Trailing window: oldest retained record follows the evicted ones.
        assert_eq!(log.data[0].cycle, DeliveryLog::WINDOW as u64);
        assert_eq!(log.data.last().unwrap().cycle, n as u64 - 1);
        // The credit side is independent and untouched.
        assert_eq!(log.credit_dropped, 0);
        assert!(log.credit.is_empty());
    }

    #[test]
    fn delivery_log_records_both_rings_and_survives_skips() {
        let mut ring: DualRing<u64> = DualRing::new(6);
        assert!(ring.delivery_log().is_none(), "off by default");
        ring.enable_delivery_log();
        ring.send_data(0, 3, 7, 1); // 3 hops
        ring.send_credit(3, 0, 9, 2); // 3 hops the other way
        ring.step(); // inject both
        let idle = ring.rotation_steps();
        assert!(idle > 0);
        ring.skip(idle); // pure rotations: nothing may be logged
        assert!(ring.delivery_log().unwrap().data.is_empty());
        ring.step(); // ejection
        let log = ring.delivery_log().unwrap();
        assert_eq!(
            log.data,
            vec![Delivery {
                cycle: 3,
                src: 0,
                dst: 3,
                stream: 7,
            }]
        );
        assert_eq!(
            log.credit,
            vec![Delivery {
                cycle: 3,
                src: 3,
                dst: 0,
                stream: 9,
            }]
        );
        // Delivery cycle minus hop distance reconstructs the path start.
        let d = ring.data_distance(log.data[0].src, log.data[0].dst) as u64;
        assert_eq!(log.data[0].cycle - d + 1, 1, "first hop crossed at cycle 1");
    }

    #[test]
    fn fused_transits_enter_the_delivery_log_in_ejection_order() {
        // The same distance-1 flits on two logging rings: one flies them
        // all, the other fuses every second one. Same-cycle ejections at
        // several stations interleave fused and real records, and a clock
        // jump passes fused ones; logs and statistics must match.
        let flits: [(bool, usize, u64); 8] = [
            (true, 4, 3),
            (true, 1, 3),
            (false, 5, 3),
            (true, 6, 3),
            (false, 2, 4),
            (true, 0, 4),
            (true, 3, 9),
            (false, 7, 9),
        ];
        let run = |fuse: bool| {
            let mut r: DualRing<u64> = DualRing::new(8);
            r.enable_delivery_log();
            for (i, &(data, src, at)) in flits.iter().enumerate() {
                let stream = 10 + i as u32;
                let fused = fuse && i % 2 == 1;
                match (data, fused) {
                    (true, false) => r.send_data_at(src, (src + 1) % 8, stream, 0, at),
                    (false, false) => r.send_credit_at(src, (src + 7) % 8, stream, 1, at),
                    (true, true) => _ = r.fused_data_stats(src, (src + 1) % 8, stream, at),
                    (false, true) => _ = r.fused_credit_stats(src, (src + 7) % 8, stream, at),
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
            (log.data.clone(), log.credit.clone(), stats)
        };
        let (flown, fused) = (run(false), run(true));
        assert_eq!(flown, fused);
        let order: Vec<_> = flown.0.iter().map(|d| (d.cycle, d.dst)).collect();
        assert_eq!(order, [(4, 2), (4, 5), (4, 7), (5, 1), (10, 4)]);
    }

    #[test]
    fn bounded_latency_under_saturation() {
        // Even with all stations transmitting, latency stays bounded because
        // ejection frees slots: check an empirical bound of n * flits.
        let n = 6;
        let mut ring: DualRing<u64> = DualRing::new(n);
        for s in 0..n {
            for k in 0..10 {
                ring.send_data(s, (s + 1) % n, 0, k as u64);
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
        let n = r.num_nodes();
        let data = (0..n)
            .map(|i| {
                let mut v = Vec::new();
                while let Some(f) = r.recv_data(i) {
                    v.push(f.payload);
                }
                v
            })
            .collect();
        let credit = (0..n)
            .map(|i| {
                let mut v = Vec::new();
                while let Some(c) = r.recv_credit(i) {
                    v.push(c.amount);
                }
                v
            })
            .collect();
        (stats, data, credit, r.cycle())
    }

    #[test]
    fn scheduled_send_matches_immediate_send() {
        // A send committed for cycle `a` must be indistinguishable from the
        // producer calling send_data/send_credit while the clock reads `a`,
        // including delivery latency accounting.
        let mut sched: DualRing<u64> = DualRing::new(6);
        sched.send_data_at(0, 3, 7, 11, 4);
        sched.send_credit_at(3, 0, 7, 1, 6);

        let mut imm: DualRing<u64> = DualRing::new(6);
        for _ in 0..4 {
            imm.step();
        }
        imm.send_data(0, 3, 7, 11);
        for _ in 0..2 {
            imm.step();
        }
        imm.send_credit(3, 0, 7, 1);

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
                    r.send_data_at(1, 0, 0, 100 + t, t);
                    r.send_data_at(2, 3, 1, 200 + t, t);
                }
                drain_snapshot(&mut r, 30)
            } else {
                for t in 0..8 {
                    r.send_data(1, 0, 0, 100 + t);
                    r.send_data(2, 3, 1, 200 + t);
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
        r.send_data_at(0, 2, 0, 1, 10);
        // Cycles 0..9 are pure rotations; the step entered at 10 injects.
        assert_eq!(r.rotation_steps(), 10);
        r.skip(10);
        assert_eq!(r.rotation_steps(), 0);
        r.step(); // activates + injects; 2 hops => ejects at cycle 12
        assert_eq!(r.rotation_steps(), 0, "ejection is due on the next step");
        r.step();
        let f = r.recv_data(2).expect("delivered");
        assert_eq!(f.payload, 1);
        assert_eq!(r.stats[0].max_latency, 2, "latency == hop distance");
    }

    #[test]
    fn same_cycle_scheduled_send_is_immediate() {
        let mut r: DualRing<u64> = DualRing::new(4);
        r.skip(5);
        r.send_data_at(1, 3, 0, 77, 5);
        assert_eq!(r.rotation_steps(), 0, "tx queue occupied right away");
        for _ in 0..2 {
            r.step();
        }
        let f = r.recv_data(3).expect("delivered");
        assert_eq!(f.payload, 77);
        assert_eq!(r.stats[0].max_latency, 2);
    }
}
