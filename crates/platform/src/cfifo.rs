//! Software C-FIFO channels (Gangwal et al. \[12\] in the paper).
//!
//! Processor tiles and gateways communicate through software FIFOs in local
//! memories: the producer posts data words and a write-pointer update; the
//! consumer reads locally and posts read-pointer updates back. Because the
//! interconnect only supports posted writes with guaranteed acceptance, no
//! hardware flow control is involved — capacity is enforced by the pointer
//! protocol itself.
//!
//! The simulator models the pointer protocol's *effect* (a bounded queue
//! whose producer sees space with a configurable pointer-update delay)
//! rather than individual pointer writes; the transfer cost of data words is
//! accounted in the copying agent (DMA ε, software task budgets).

use crate::types::Sample;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of a C-FIFO in the [`crate::system::System`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FifoId(pub usize);

/// A counter of high-water-mark growths, shared by a
/// [`crate::system::System`] with every FIFO it holds: a push that raises
/// a FIFO's mark bumps it, so the system learns that some mark moved
/// without reading every FIFO. An `Arc` (not an `Rc`) keeps [`CFifo`] and
/// the system `Send`.
#[derive(Clone, Debug, Default)]
pub(crate) struct HwmGrowth(Arc<AtomicU64>);

impl HwmGrowth {
    fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Growths signalled so far.
    pub(crate) fn count(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// True if `self` and `other` are the same counter.
    pub(crate) fn is(&self, other: &HwmGrowth) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// A bounded software FIFO.
#[derive(Clone, Debug)]
pub struct CFifo {
    /// Diagnostic name.
    pub name: String,
    capacity: usize,
    buf: VecDeque<Sample>,
    /// Total samples ever pushed.
    pub pushed: u64,
    /// Total samples ever popped.
    pub popped: u64,
    /// Timestamps of pushes (kept only when tracing is on).
    trace: Option<Vec<u64>>,
    /// Oldest push timestamps discarded once the trace outgrows its
    /// retention window (see [`CFifo::TRACE_WINDOW`]).
    trace_dropped: u64,
    /// Maximum occupancy ever reached (always maintained — one compare per
    /// push — so the observability layer can report buffer sizing margins).
    hwm: usize,
    /// Growth counter of the system holding this FIFO (see [`HwmGrowth`]).
    growth: Option<HwmGrowth>,
}

impl CFifo {
    /// Retention window of the push-timestamp trace: at least this many of
    /// the most recent pushes are kept (at most twice as many — eviction is
    /// amortised by draining half the buffer at once). Long profiled runs
    /// stay bounded; [`CFifo::trace_dropped`] reports what was shed.
    pub const TRACE_WINDOW: usize = 1 << 16;

    /// New FIFO with `capacity` locations.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "fifo capacity must be positive");
        CFifo {
            name: name.into(),
            capacity,
            buf: VecDeque::with_capacity(capacity),
            pushed: 0,
            popped: 0,
            trace: None,
            trace_dropped: 0,
            hwm: 0,
            growth: None,
        }
    }

    /// Enable per-token push-timestamp tracing (for refinement checks).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Recorded push timestamps (empty if tracing is off). When the run
    /// outgrew [`CFifo::TRACE_WINDOW`], this is the trailing window only.
    pub fn trace(&self) -> &[u64] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Whether push-timestamp tracing is on (an empty trace from a traced
    /// FIFO means "no pushes", not "not measured").
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Push timestamps discarded from the front of the trace window.
    pub fn trace_dropped(&self) -> u64 {
        self.trace_dropped
    }

    /// Highest occupancy ever reached.
    pub fn high_water(&self) -> usize {
        self.hwm
    }

    /// Signal every later high-water growth, and this FIFO's drop, to
    /// `growth` (replacing any counter attached before).
    pub(crate) fn attach_growth(&mut self, growth: &HwmGrowth) {
        if !self.growth.as_ref().is_some_and(|g| g.is(growth)) {
            self.growth = Some(growth.clone());
        }
    }

    /// Capacity in samples.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Free locations.
    pub fn space(&self) -> usize {
        self.capacity - self.buf.len()
    }

    /// Mutation counter: bumps on every push *and* every pop. The span
    /// engine snapshots this before invoking a tile and diffs afterwards
    /// to find which FIFOs the tile touched (a push+pop pair can never
    /// cancel — both raise the counter).
    pub fn version(&self) -> u64 {
        self.pushed + self.popped
    }

    /// Push one sample at time `now`; `false` if full (caller must stall —
    /// this is the software flow-control condition).
    pub fn try_push(&mut self, s: Sample, now: u64) -> bool {
        if self.buf.len() >= self.capacity {
            return false;
        }
        self.buf.push_back(s);
        self.pushed += 1;
        if self.buf.len() > self.hwm {
            self.hwm = self.buf.len();
            if let Some(g) = &self.growth {
                g.bump();
            }
        }
        if let Some(t) = &mut self.trace {
            if t.len() >= 2 * Self::TRACE_WINDOW {
                t.drain(..Self::TRACE_WINDOW);
                self.trace_dropped += Self::TRACE_WINDOW as u64;
            }
            t.push(now);
        }
        true
    }

    /// Pop one sample.
    pub fn pop(&mut self) -> Option<Sample> {
        let v = self.buf.pop_front();
        if v.is_some() {
            self.popped += 1;
        }
        v
    }

    /// Peek without consuming.
    pub fn peek(&self) -> Option<&Sample> {
        self.buf.front()
    }
}

impl Drop for CFifo {
    /// A FIFO leaving its system (replaced in place or removed) is a change
    /// to the FIFO set the system cannot otherwise see.
    fn drop(&mut self) {
        if let Some(g) = &self.growth {
            g.bump();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_push_pop() {
        let mut f = CFifo::new("t", 2);
        assert!(f.try_push((1.0, 0.0), 0));
        assert!(f.try_push((2.0, 0.0), 1));
        assert!(!f.try_push((3.0, 0.0), 2), "full fifo must refuse");
        assert_eq!(f.len(), 2);
        assert_eq!(f.space(), 0);
        assert_eq!(f.pop(), Some((1.0, 0.0)));
        assert_eq!(f.space(), 1);
        assert!(f.try_push((3.0, 0.0), 3));
        assert_eq!(f.pop(), Some((2.0, 0.0)));
        assert_eq!(f.pop(), Some((3.0, 0.0)));
        assert_eq!(f.pop(), None);
        assert_eq!(f.pushed, 3);
        assert_eq!(f.popped, 3);
    }

    #[test]
    fn trace_records_push_times() {
        let mut f = CFifo::new("t", 4);
        f.enable_trace();
        f.try_push((0.0, 0.0), 10);
        f.try_push((0.0, 0.0), 12);
        f.pop();
        f.try_push((0.0, 0.0), 15);
        assert_eq!(f.trace(), &[10, 12, 15]);
    }

    #[test]
    fn trace_window_bounds_retention() {
        let mut f = CFifo::new("t", 4);
        f.enable_trace();
        let n = 2 * CFifo::TRACE_WINDOW + 10;
        for t in 0..n {
            assert!(f.try_push((0.0, 0.0), t as u64));
            f.pop();
        }
        // One eviction of TRACE_WINDOW happened at the 2×WINDOW mark.
        assert_eq!(f.trace_dropped(), CFifo::TRACE_WINDOW as u64);
        assert_eq!(f.trace().len(), CFifo::TRACE_WINDOW + 10);
        // The retained window is the most recent pushes, still in order.
        assert_eq!(f.trace()[0], CFifo::TRACE_WINDOW as u64);
        assert_eq!(*f.trace().last().unwrap(), n as u64 - 1);
        assert_eq!(f.pushed, n as u64, "exact totals are never windowed");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = CFifo::new("bad", 0);
    }

    #[test]
    fn high_water_tracks_peak_occupancy() {
        let mut f = CFifo::new("t", 8);
        assert_eq!(f.high_water(), 0);
        f.try_push((0.0, 0.0), 0);
        f.try_push((0.0, 0.0), 1);
        f.try_push((0.0, 0.0), 2);
        assert_eq!(f.high_water(), 3);
        f.pop();
        f.pop();
        assert_eq!(f.high_water(), 3, "hwm must not decrease on pop");
        for t in 3..8 {
            f.try_push((0.0, 0.0), t);
        }
        assert_eq!(f.high_water(), 6);
    }
}
