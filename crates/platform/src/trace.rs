//! Event-tracing and metrics layer for the cycle-level simulator.
//!
//! The temporal analysis of the paper lives or dies by *measured* cycle
//! counts: every block must finish within `τ̂_s = R_s + (η_s + 2)·max(ε,
//! ρ_A, δ)` (Eq. 2) and every round within `γ_s = Σ τ̂_i` (Eq. 3–4).
//! Instead of reverse-engineering those times from FIFO contents after a
//! run, the simulator's components emit structured [`TraceEvent`]s into a
//! [`Tracer`] as they execute:
//!
//! * the **gateway pair** emits block start/end, reconfiguration windows
//!   (`R_s`), configuration-bus save/restore per accelerator, the entry-DMA
//!   (`ε`) and exit-drain (`δ`) phases, and per-cause stall cycles;
//! * the **system step loop** samples C-FIFO occupancy (including
//!   high-water marks kept by [`crate::cfifo::CFifo`]), accelerator
//!   activity windows, and dual-ring delivery/stall counters;
//! * consumers (e.g. `streamgate-core`'s metrics/validation) read the
//!   event log back and derive per-stream `τ` distributions, round times
//!   and stall breakdowns.
//!
//! Tracing is strictly **opt-in**: a disabled tracer is a single `Option`
//! check per emission site (the event constructor closures are never run),
//! so `System::run` with tracing off costs the same as before the layer
//! existed — `crates/bench/benches/bench_platform.rs` measures exactly
//! that, and `trace_overhead_is_negligible` in this module enforces
//! behavioural equality.
//!
//! Between "off" and "full" sits the **flight recorder**
//! ([`Tracer::flight_recorder`]): the same emission sites feed a bounded
//! ring of the most recent events, so a production run that is not being
//! profiled still retains enough recent history to explain a bound
//! violation after the fact (see `streamgate-core`'s postmortem support).
//! Evicted events are counted ([`Tracer::events_dropped`]) so consumers
//! can tell a truncated log from a complete one.
//!
//! [`chrome_trace_json`] renders an event log in the Chrome trace-event
//! format, viewable in `chrome://tracing` or <https://ui.perfetto.dev>.

use crate::cfifo::HwmGrowth;
use std::fmt;

/// Why a component could not make progress this cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Entry-gateway DMA had a sample ready but no hardware credit — the
    /// accelerator chain is back-pressuring (§IV-B accelerator stall).
    DmaNoCredit,
    /// Exit gateway had a sample ready but the consumer C-FIFO was full.
    /// Only reachable with the check-for-space admission disabled — this is
    /// the head-of-line blocking of Fig. 9.
    ExitFifoFull,
    /// A stream had a full input block but admission was blocked by the
    /// exit-side space check (§V-G): the consumer is slow, and the gateway
    /// correctly refuses to occupy the chain.
    CheckForSpace,
}

impl StallCause {
    /// Stable display name (used in trace exports and reports).
    pub fn name(self) -> &'static str {
        match self {
            StallCause::DmaNoCredit => "dma-no-credit",
            StallCause::ExitFifoFull => "exit-fifo-full",
            StallCause::CheckForSpace => "check-for-space",
        }
    }

    /// All causes, for iteration in breakdown reports.
    pub const ALL: [StallCause; 3] = [
        StallCause::DmaNoCredit,
        StallCause::ExitFifoFull,
        StallCause::CheckForSpace,
    ];
}

impl fmt::Display for StallCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured event emitted by a simulator component.
///
/// All times are platform cycles. `gateway`, `stream`, `accel` and `fifo`
/// are the indices used by [`crate::system::System`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A block of `stream` was admitted (all three admission checks passed).
    BlockStart {
        /// Gateway index.
        gateway: u32,
        /// Stream index within the gateway.
        stream: u32,
        /// Admission cycle.
        cycle: u64,
    },
    /// The configuration-bus window `R_s` charged before a block.
    ReconfigWindow {
        /// Gateway index.
        gateway: u32,
        /// Stream index.
        stream: u32,
        /// Window start (== block admission cycle).
        start: u64,
        /// Window end (first cycle the DMA may run).
        end: u64,
    },
    /// Kernel context of `stream` saved out of `accel` (configuration bus).
    ConfigSave {
        /// Gateway index.
        gateway: u32,
        /// Stream whose context was saved.
        stream: u32,
        /// Accelerator the context left.
        accel: u32,
        /// Cycle of the save.
        cycle: u64,
        /// Context size in state words.
        words: u32,
    },
    /// Kernel context of `stream` restored into `accel` (configuration bus).
    ConfigRestore {
        /// Gateway index.
        gateway: u32,
        /// Stream whose context was restored.
        stream: u32,
        /// Accelerator the context entered.
        accel: u32,
        /// Cycle of the restore.
        cycle: u64,
        /// Context size in state words.
        words: u32,
    },
    /// The entry-DMA phase: `samples` samples copied at ε cycles each
    /// (stretched by any credit stalls, which are reported separately).
    DmaPhase {
        /// Gateway index.
        gateway: u32,
        /// Stream index.
        stream: u32,
        /// First DMA cycle.
        start: u64,
        /// Cycle the last sample was sent.
        end: u64,
        /// Samples transferred (η_in).
        samples: u32,
    },
    /// The pipeline-drain phase: last input sent → last output delivered.
    DrainPhase {
        /// Gateway index.
        gateway: u32,
        /// Stream index.
        stream: u32,
        /// Drain start (== DMA phase end).
        start: u64,
        /// Cycle the pipeline was empty and the block completed.
        end: u64,
    },
    /// A block completed; the authoritative record for bound conformance.
    BlockEnd {
        /// Gateway index.
        gateway: u32,
        /// Stream index.
        stream: u32,
        /// Admission cycle (reconfiguration start).
        start: u64,
        /// End of the reconfiguration window.
        reconfig_end: u64,
        /// Cycle the DMA sent the last input sample.
        stream_end: u64,
        /// Cycle the exit gateway saw the pipeline idle. The measured block
        /// time `τ` is `drain_end - start`.
        drain_end: u64,
        /// Cycles the entry DMA stalled on missing credits in this block.
        dma_stall: u64,
        /// Cycles the exit copy stalled on a full consumer FIFO.
        exit_stall: u64,
    },
    /// A maximal window of consecutive cycles stalled for one cause.
    StallWindow {
        /// Gateway index.
        gateway: u32,
        /// Why progress stopped.
        cause: StallCause,
        /// First stalled cycle.
        start: u64,
        /// Last stalled cycle (inclusive).
        end: u64,
    },
    /// A window during which an accelerator held work (samples buffered,
    /// in flight, or awaiting credits).
    AccelActive {
        /// Accelerator index.
        accel: u32,
        /// First active cycle.
        start: u64,
        /// Last active cycle (inclusive).
        end: u64,
    },
    /// Sampled C-FIFO occupancy (every `sample_interval` cycles).
    FifoLevel {
        /// FIFO index.
        fifo: u32,
        /// Sample cycle.
        cycle: u64,
        /// Occupancy in samples.
        level: u32,
    },
    /// A C-FIFO reached a new occupancy high-water mark.
    FifoHighWater {
        /// FIFO index.
        fifo: u32,
        /// Cycle of the new maximum.
        cycle: u64,
        /// The new high-water mark.
        level: u32,
    },
    /// Sampled dual-ring counters (cumulative values at `cycle`).
    RingCounters {
        /// Sample cycle.
        cycle: u64,
        /// Data flits delivered so far.
        data_delivered: u64,
        /// Data-ring injection stalls so far.
        data_stalls: u64,
        /// Credit flits delivered so far.
        credit_delivered: u64,
    },
}

/// A coalescing accelerator-activity window. While `open`, the
/// accelerator is still active and `end` is meaningless; once the falling
/// edge is reported, `end` holds the last active cycle and the window
/// stays buffered in case a quick reactivation merges into it.
#[derive(Clone, Copy, Debug)]
struct AccelWindow {
    start: u64,
    end: u64,
    open: bool,
}

/// Where a tracer last read every FIFO high-water mark of a system: that
/// system's growth counter, its count at the time, and the number of
/// FIFOs. While all three still hold, no mark can have grown past what the
/// tracer reported, so the system skips the read (see `System::observe`).
#[derive(Clone, Debug)]
pub(crate) struct HwmRead {
    pub(crate) growth: HwmGrowth,
    pub(crate) count: u64,
    pub(crate) fifos: usize,
}

impl HwmRead {
    /// True if nothing this read covers has changed since.
    pub(crate) fn is_current(&self, growth: &HwmGrowth, fifos: usize) -> bool {
        self.growth.is(growth) && self.count == growth.count() && self.fifos == fifos
    }
}

/// Internal state of an enabled tracer (boxed so a disabled [`Tracer`] is
/// one word).
#[derive(Debug, Default)]
struct TraceData {
    events: Vec<TraceEvent>,
    /// Open coalescing windows for stall cycles: (gateway, cause, start,
    /// last-seen cycle).
    open_stalls: Vec<(u32, StallCause, u64, u64)>,
    /// Total stalled cycles per (gateway, cause) — running counters that
    /// are valid even while a window is still open.
    stall_totals: Vec<((u32, StallCause), u64)>,
    /// Buffered accelerator activity windows, per accelerator.
    accel_active: Vec<Option<AccelWindow>>,
    /// Last high-water mark already reported, per FIFO.
    fifo_hwm_seen: Vec<u32>,
    /// The system state at this tracer's last full read of the marks
    /// (see [`HwmRead`]); `None` until the first read.
    hwm_read: Option<HwmRead>,
    /// Period of `FifoLevel`/`RingCounters` samples in cycles.
    sample_interval: u64,
    /// Flight-recorder bound: keep at most this many recent events
    /// (0 = unbounded full trace).
    bound: usize,
    /// Events evicted from the front of a bounded log.
    events_dropped: u64,
}

impl TraceData {
    /// Append an event, enforcing the flight-recorder bound. The drain is
    /// amortised: the log is allowed to grow to `2 × bound` before the
    /// oldest half is shed in one `memmove`, so the per-event cost stays
    /// O(1) and the retained suffix is always at least `bound` events.
    #[inline]
    fn push_event(&mut self, e: TraceEvent) {
        self.events.push(e);
        if self.bound != 0 && self.events.len() >= 2 * self.bound {
            let excess = self.events.len() - self.bound;
            self.events.drain(..excess);
            self.events_dropped += excess as u64;
        }
    }
}

/// The event sink threaded through the simulator.
///
/// Create with [`Tracer::disabled`] (the default, near-zero cost: one
/// `Option` discriminant test per emission site) or [`Tracer::enabled`].
#[derive(Debug, Default)]
pub struct Tracer {
    data: Option<Box<TraceData>>,
}

impl Tracer {
    /// A no-op tracer: every emission is a single branch.
    pub fn disabled() -> Self {
        Tracer { data: None }
    }

    /// A recording tracer sampling FIFO/ring counters every
    /// `sample_interval` cycles (0 disables periodic sampling; spans and
    /// high-water events are always recorded).
    pub fn enabled(sample_interval: u64) -> Self {
        Tracer {
            data: Some(Box::new(TraceData {
                sample_interval,
                ..TraceData::default()
            })),
        }
    }

    /// A bounded flight recorder: identical emission behaviour to
    /// [`Tracer::enabled`], but only the most recent `capacity` events are
    /// retained (older ones are evicted and counted by
    /// [`Tracer::events_dropped`]). Cheap enough to leave on in production
    /// runs: the event-driven engine keeps using its closed-form span path
    /// (`System::run` only falls back to per-event stepping for *full*
    /// tracing), and the ring never grows past `2 × capacity` entries.
    pub fn flight_recorder(sample_interval: u64, capacity: usize) -> Self {
        Tracer {
            data: Some(Box::new(TraceData {
                sample_interval,
                bound: capacity.max(1),
                ..TraceData::default()
            })),
        }
    }

    /// True when events are being recorded (full trace *or* flight
    /// recorder).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.data.is_some()
    }

    /// True only for an unbounded full trace — the condition for consumers
    /// that need the *complete* event log (profiles, Chrome exports,
    /// per-event engine stepping). A flight recorder reports `false`.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.data.as_ref().is_some_and(|d| d.bound == 0)
    }

    /// Flight-recorder capacity (0 when disabled or tracing in full).
    pub fn recorder_bound(&self) -> usize {
        self.data.as_ref().map_or(0, |d| d.bound)
    }

    /// Events evicted from the front of a bounded log (always 0 for a full
    /// trace). `events_dropped() + events().len()` is the absolute index
    /// one past the newest recorded event.
    pub fn events_dropped(&self) -> u64 {
        self.data.as_ref().map_or(0, |d| d.events_dropped)
    }

    /// Period of FIFO/ring counter samples (0 when disabled).
    pub fn sample_interval(&self) -> u64 {
        self.data.as_ref().map_or(0, |d| d.sample_interval)
    }

    /// Record an event. The closure only runs when tracing is enabled, so
    /// callers pay nothing for constructing events on the disabled path.
    #[inline]
    pub fn emit(&mut self, f: impl FnOnce() -> TraceEvent) {
        if let Some(d) = &mut self.data {
            let e = f();
            d.push_event(e);
        }
    }

    /// Record one stalled cycle, coalescing consecutive cycles with the
    /// same (gateway, cause) into a single [`TraceEvent::StallWindow`].
    #[inline]
    pub fn stall_cycle(&mut self, gateway: u32, cause: StallCause, now: u64) {
        self.stall_span(gateway, cause, now, now + 1);
    }

    /// Record `to - from` stalled cycles covering the half-open interval
    /// `[from, to)` in one call — the bulk form of
    /// [`Tracer::stall_cycle`], used by the event-driven engine when a
    /// whole skipped interval is known to stall for one cause. Produces a
    /// log identical to calling `stall_cycle` for every cycle in the span.
    #[inline]
    pub fn stall_span(&mut self, gateway: u32, cause: StallCause, from: u64, to: u64) {
        let Some(d) = &mut self.data else { return };
        if to <= from {
            return;
        }
        match d
            .stall_totals
            .iter_mut()
            .find(|((g, c), _)| *g == gateway && *c == cause)
        {
            Some((_, n)) => *n += to - from,
            None => d.stall_totals.push(((gateway, cause), to - from)),
        }
        let closed = if let Some(w) = d
            .open_stalls
            .iter_mut()
            .find(|(g, c, _, _)| *g == gateway && *c == cause)
        {
            if from <= w.3 + 1 {
                w.3 = to - 1;
                return;
            }
            // Gap: close the old window, open a new one.
            let closed = TraceEvent::StallWindow {
                gateway,
                cause,
                start: w.2,
                end: w.3,
            };
            w.2 = from;
            w.3 = to - 1;
            closed
        } else {
            d.open_stalls.push((gateway, cause, from, to - 1));
            return;
        };
        d.push_event(closed);
    }

    /// Total stalled cycles recorded for a gateway and cause (valid while
    /// windows are still open, unlike counting `StallWindow` events).
    pub fn stall_cycles(&self, gateway: usize, cause: StallCause) -> u64 {
        self.data.as_ref().map_or(0, |d| {
            d.stall_totals
                .iter()
                .find(|((g, c), _)| *g as usize == gateway && *c == cause)
                .map_or(0, |(_, n)| *n)
        })
    }

    /// Report a *change* in accelerator `accel`'s activity status at cycle
    /// `now` (change-driven: callers must invoke this only on edges, not
    /// every cycle). Contiguous active cycles coalesce into
    /// [`TraceEvent::AccelActive`] windows; idle gaps up to the tracer's
    /// sample interval are merged into the surrounding window — when ε
    /// dominates ρ_A the accelerator naturally idles between samples, and
    /// per-sample windows would swamp the trace.
    ///
    /// A rising edge (`active == true`) means the accelerator became active
    /// at `now`; a falling edge means its last active cycle was `now - 1`.
    #[inline]
    pub fn accel_edge(&mut self, accel: usize, active: bool, now: u64) {
        let Some(d) = &mut self.data else { return };
        if d.accel_active.len() <= accel {
            d.accel_active.resize(accel + 1, None);
        }
        let slot = &mut d.accel_active[accel];
        match (slot.as_mut(), active) {
            (None, true) => {
                *slot = Some(AccelWindow {
                    start: now,
                    end: now,
                    open: true,
                });
            }
            (Some(w), true) => {
                debug_assert!(!w.open, "rising edge on an already-open window");
                if now - w.end <= d.sample_interval + 1 {
                    w.open = true; // gap short enough: merge
                } else {
                    let ev = TraceEvent::AccelActive {
                        accel: accel as u32,
                        start: w.start,
                        end: w.end,
                    };
                    *w = AccelWindow {
                        start: now,
                        end: now,
                        open: true,
                    };
                    d.push_event(ev);
                }
            }
            (Some(w), false) => {
                debug_assert!(w.open, "falling edge on a closed window");
                w.open = false;
                w.end = now - 1;
            }
            (None, false) => {}
        }
    }

    /// Report a FIFO's current high-water mark; emits
    /// [`TraceEvent::FifoHighWater`] only when it grew.
    #[inline]
    pub fn fifo_high_water(&mut self, fifo: usize, hwm: usize, now: u64) {
        let Some(d) = &mut self.data else { return };
        if d.fifo_hwm_seen.len() <= fifo {
            d.fifo_hwm_seen.resize(fifo + 1, 0);
        }
        if hwm as u32 > d.fifo_hwm_seen[fifo] {
            d.fifo_hwm_seen[fifo] = hwm as u32;
            d.push_event(TraceEvent::FifoHighWater {
                fifo: fifo as u32,
                cycle: now,
                level: hwm as u32,
            });
        }
    }

    /// The system state at this tracer's last full read of the FIFO
    /// high-water marks (`None` when disabled or never read).
    pub(crate) fn hwm_read(&self) -> Option<&HwmRead> {
        self.data.as_ref().and_then(|d| d.hwm_read.as_ref())
    }

    /// Record a full read of the FIFO high-water marks (no-op when
    /// disabled).
    pub(crate) fn set_hwm_read(&mut self, read: HwmRead) {
        if let Some(d) = &mut self.data {
            d.hwm_read = Some(read);
        }
    }

    /// Close all open coalescing windows (stalls, accelerator activity),
    /// turning them into events. `now` is the first *unsimulated* cycle:
    /// a window still open at finish time ends at `now - 1`. Call before
    /// reading a complete log.
    pub fn finish(&mut self, now: u64) {
        let Some(d) = &mut self.data else { return };
        let stalls: Vec<_> = d.open_stalls.drain(..).collect();
        for (gateway, cause, start, end) in stalls {
            d.push_event(TraceEvent::StallWindow {
                gateway,
                cause,
                start,
                end,
            });
        }
        for accel in 0..d.accel_active.len() {
            if let Some(w) = d.accel_active[accel].take() {
                let end = if w.open { now.saturating_sub(1) } else { w.end };
                d.push_event(TraceEvent::AccelActive {
                    accel: accel as u32,
                    start: w.start,
                    end,
                });
            }
        }
    }

    /// Stall windows still being coalesced, as `(gateway, cause, start,
    /// last-seen cycle)` tuples. A stall that persists to the end of a run
    /// (e.g. a head-of-line wedge) never closes into a
    /// [`TraceEvent::StallWindow`] until [`Tracer::finish`], so online
    /// monitors must inspect these to flag it *during* the run.
    pub fn open_stalls(&self) -> &[(u32, StallCause, u64, u64)] {
        self.data.as_ref().map_or(&[], |d| &d.open_stalls)
    }

    /// The recorded event log (empty when disabled).
    pub fn events(&self) -> &[TraceEvent] {
        self.data.as_ref().map_or(&[], |d| &d.events)
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.data.as_ref().map_or(0, |d| d.events.len())
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Entity names used to label a Chrome trace export; indices parallel the
/// `System` vectors. Missing names fall back to indices.
#[derive(Clone, Debug, Default)]
pub struct TraceNames {
    /// Gateway names.
    pub gateways: Vec<String>,
    /// Stream names per gateway.
    pub streams: Vec<Vec<String>>,
    /// Accelerator names.
    pub accels: Vec<String>,
    /// FIFO names.
    pub fifos: Vec<String>,
}

impl TraceNames {
    fn gateway(&self, g: u32) -> String {
        self.gateways
            .get(g as usize)
            .cloned()
            .unwrap_or_else(|| format!("gateway{g}"))
    }

    fn stream(&self, g: u32, s: u32) -> String {
        self.streams
            .get(g as usize)
            .and_then(|v| v.get(s as usize))
            .cloned()
            .unwrap_or_else(|| format!("stream{s}"))
    }

    fn accel(&self, a: u32) -> String {
        self.accels
            .get(a as usize)
            .cloned()
            .unwrap_or_else(|| format!("accel{a}"))
    }

    fn fifo(&self, f: u32) -> String {
        self.fifos
            .get(f as usize)
            .cloned()
            .unwrap_or_else(|| format!("fifo{f}"))
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Process-id blocks used in the Chrome export: gateways are pids
/// `0..1000`, accelerators live in pid 1000, counters in pid 2000.
const PID_ACCELS: u32 = 1000;
const PID_COUNTERS: u32 = 2000;

/// Thread ids within a gateway pid: streams use their index; stall tracks
/// sit above them.
const TID_STALL_BASE: u32 = 900;

/// Render an event log in the Chrome trace-event JSON format
/// (`chrome://tracing` / Perfetto). One platform cycle maps to one
/// microsecond of trace time.
///
/// Layout: each gateway is a process whose threads are its streams (block
/// spans split into reconfigure / dma / drain slices) plus one synthetic
/// thread per stall cause; accelerators share a process of activity spans;
/// FIFO occupancy and ring statistics are counter tracks.
pub fn chrome_trace_json(events: &[TraceEvent], names: &TraceNames) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 1024);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, line: String| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };

    // Metadata: process and thread names for every entity that appears.
    let mut seen_gw: Vec<u32> = Vec::new();
    let mut seen_streams: Vec<(u32, u32)> = Vec::new();
    let mut seen_accel = false;
    for e in events {
        let (g, s) = match *e {
            TraceEvent::BlockStart {
                gateway, stream, ..
            }
            | TraceEvent::ReconfigWindow {
                gateway, stream, ..
            }
            | TraceEvent::DmaPhase {
                gateway, stream, ..
            }
            | TraceEvent::DrainPhase {
                gateway, stream, ..
            }
            | TraceEvent::BlockEnd {
                gateway, stream, ..
            }
            | TraceEvent::ConfigSave {
                gateway, stream, ..
            }
            | TraceEvent::ConfigRestore {
                gateway, stream, ..
            } => (Some(gateway), Some(stream)),
            TraceEvent::StallWindow { gateway, .. } => (Some(gateway), None),
            TraceEvent::AccelActive { .. } => {
                seen_accel = true;
                (None, None)
            }
            _ => (None, None),
        };
        if let Some(g) = g {
            if !seen_gw.contains(&g) {
                seen_gw.push(g);
            }
            if let Some(s) = s {
                if !seen_streams.contains(&(g, s)) {
                    seen_streams.push((g, s));
                }
            }
        }
    }
    for &g in &seen_gw {
        push(
            &mut out,
            &mut first,
            format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{g},\"args\":{{\"name\":\"{}\"}}}}",
            json_escape(&names.gateway(g))
        ),
        );
        for cause in StallCause::ALL {
            push(&mut out, &mut first, format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{g},\"tid\":{},\"args\":{{\"name\":\"stall:{}\"}}}}",
                TID_STALL_BASE + cause as u32,
                cause.name()
            ));
        }
    }
    for &(g, s) in &seen_streams {
        push(&mut out, &mut first, format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{g},\"tid\":{s},\"args\":{{\"name\":\"{}\"}}}}",
            json_escape(&names.stream(g, s))
        ));
    }
    if seen_accel {
        push(&mut out, &mut first, format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{PID_ACCELS},\"args\":{{\"name\":\"accelerators\"}}}}"
        ));
    }

    for e in events {
        match *e {
            TraceEvent::ReconfigWindow {
                gateway,
                stream,
                start,
                end,
            } => push(&mut out, &mut first, format!(
                "{{\"ph\":\"X\",\"cat\":\"reconfig\",\"name\":\"R_s\",\"pid\":{gateway},\"tid\":{stream},\"ts\":{start},\"dur\":{}}}",
                end.saturating_sub(start)
            )),
            TraceEvent::DmaPhase {
                gateway,
                stream,
                start,
                end,
                samples,
            } => push(&mut out, &mut first, format!(
                "{{\"ph\":\"X\",\"cat\":\"dma\",\"name\":\"dma ε-phase\",\"pid\":{gateway},\"tid\":{stream},\"ts\":{start},\"dur\":{},\"args\":{{\"samples\":{samples}}}}}",
                end.saturating_sub(start)
            )),
            TraceEvent::DrainPhase {
                gateway,
                stream,
                start,
                end,
            } => push(&mut out, &mut first, format!(
                "{{\"ph\":\"X\",\"cat\":\"drain\",\"name\":\"drain δ-phase\",\"pid\":{gateway},\"tid\":{stream},\"ts\":{start},\"dur\":{}}}",
                end.saturating_sub(start)
            )),
            TraceEvent::BlockEnd {
                gateway,
                stream,
                start,
                drain_end,
                dma_stall,
                exit_stall,
                ..
            } => push(&mut out, &mut first, format!(
                "{{\"ph\":\"X\",\"cat\":\"block\",\"name\":\"block {}\",\"pid\":{gateway},\"tid\":{stream},\"ts\":{start},\"dur\":{},\"args\":{{\"tau\":{},\"dma_stall\":{dma_stall},\"exit_stall\":{exit_stall}}}}}",
                json_escape(&names.stream(gateway, stream)),
                drain_end.saturating_sub(start),
                drain_end.saturating_sub(start)
            )),
            TraceEvent::ConfigSave {
                gateway,
                stream,
                accel,
                cycle,
                words,
            } => push(&mut out, &mut first, format!(
                "{{\"ph\":\"i\",\"cat\":\"configbus\",\"name\":\"save {}→{}\",\"pid\":{gateway},\"tid\":{stream},\"ts\":{cycle},\"s\":\"p\",\"args\":{{\"words\":{words}}}}}",
                json_escape(&names.stream(gateway, stream)),
                json_escape(&names.accel(accel))
            )),
            TraceEvent::ConfigRestore {
                gateway,
                stream,
                accel,
                cycle,
                words,
            } => push(&mut out, &mut first, format!(
                "{{\"ph\":\"i\",\"cat\":\"configbus\",\"name\":\"restore {}→{}\",\"pid\":{gateway},\"tid\":{stream},\"ts\":{cycle},\"s\":\"p\",\"args\":{{\"words\":{words}}}}}",
                json_escape(&names.stream(gateway, stream)),
                json_escape(&names.accel(accel))
            )),
            TraceEvent::StallWindow {
                gateway,
                cause,
                start,
                end,
            } => push(&mut out, &mut first, format!(
                "{{\"ph\":\"X\",\"cat\":\"stall\",\"name\":\"{}\",\"pid\":{gateway},\"tid\":{},\"ts\":{start},\"dur\":{}}}",
                cause.name(),
                TID_STALL_BASE + cause as u32,
                end - start + 1
            )),
            TraceEvent::AccelActive { accel, start, end } => push(&mut out, &mut first, format!(
                "{{\"ph\":\"X\",\"cat\":\"accel\",\"name\":\"{}\",\"pid\":{PID_ACCELS},\"tid\":{accel},\"ts\":{start},\"dur\":{}}}",
                json_escape(&names.accel(accel)),
                end - start + 1
            )),
            TraceEvent::FifoLevel { fifo, cycle, level } => push(&mut out, &mut first, format!(
                "{{\"ph\":\"C\",\"name\":\"fifo {}\",\"pid\":{PID_COUNTERS},\"ts\":{cycle},\"args\":{{\"level\":{level}}}}}",
                json_escape(&names.fifo(fifo))
            )),
            TraceEvent::FifoHighWater { fifo, cycle, level } => push(&mut out, &mut first, format!(
                "{{\"ph\":\"C\",\"name\":\"hwm {}\",\"pid\":{PID_COUNTERS},\"ts\":{cycle},\"args\":{{\"high_water\":{level}}}}}",
                json_escape(&names.fifo(fifo))
            )),
            TraceEvent::RingCounters {
                cycle,
                data_delivered,
                data_stalls,
                credit_delivered,
            } => push(&mut out, &mut first, format!(
                "{{\"ph\":\"C\",\"name\":\"ring\",\"pid\":{PID_COUNTERS},\"ts\":{cycle},\"args\":{{\"data_delivered\":{data_delivered},\"data_stalls\":{data_stalls},\"credit_delivered\":{credit_delivered}}}}}"
            )),
            // BlockStart carries no duration of its own: the block span is
            // drawn by BlockEnd. Kept in the log for streaming consumers.
            TraceEvent::BlockStart { .. } => {}
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.emit(|| panic!("constructor must not run when disabled"));
        t.stall_cycle(0, StallCause::DmaNoCredit, 5);
        t.stall_span(0, StallCause::DmaNoCredit, 6, 9);
        t.accel_edge(0, true, 1);
        t.fifo_high_water(0, 10, 2);
        t.finish(100);
        assert!(!t.is_enabled());
        assert!(t.is_empty());
        assert_eq!(t.stall_cycles(0, StallCause::DmaNoCredit), 0);
    }

    #[test]
    fn flight_recorder_keeps_recent_events_and_counts_drops() {
        let mut t = Tracer::flight_recorder(0, 4);
        assert!(t.is_enabled() && !t.is_full());
        assert_eq!(t.recorder_bound(), 4);
        for k in 0..20u64 {
            t.emit(|| TraceEvent::BlockStart {
                gateway: 0,
                stream: 0,
                cycle: k,
            });
        }
        // Retained suffix is at least `bound` and at most `2·bound − 1`
        // events; drops + retained always account for every emission.
        assert!(t.len() >= 4 && t.len() < 8, "len {}", t.len());
        assert_eq!(t.events_dropped() + t.len() as u64, 20);
        // The newest events are intact and in order.
        let cycles: Vec<u64> = t
            .events()
            .iter()
            .map(|e| match *e {
                TraceEvent::BlockStart { cycle, .. } => cycle,
                _ => unreachable!(),
            })
            .collect();
        let first = 20 - cycles.len() as u64;
        assert_eq!(cycles, (first..20).collect::<Vec<_>>());
        // Stall totals are running counters, unaffected by eviction.
        for now in 0..100 {
            t.stall_cycle(0, StallCause::DmaNoCredit, 2 * now);
        }
        t.finish(500);
        assert_eq!(t.stall_cycles(0, StallCause::DmaNoCredit), 100);
    }

    #[test]
    fn full_tracer_never_drops() {
        let mut t = Tracer::enabled(0);
        for k in 0..1000u64 {
            t.emit(|| TraceEvent::BlockStart {
                gateway: 0,
                stream: 0,
                cycle: k,
            });
        }
        assert!(t.is_full());
        assert_eq!(t.recorder_bound(), 0);
        assert_eq!(t.events_dropped(), 0);
        assert_eq!(t.len(), 1000);
        assert!(!Tracer::disabled().is_full());
        assert_eq!(Tracer::disabled().events_dropped(), 0);
    }

    #[test]
    fn stall_windows_coalesce() {
        let mut t = Tracer::enabled(0);
        for now in 10..15 {
            t.stall_cycle(0, StallCause::DmaNoCredit, now);
        }
        // Gap, then another window of a different cause interleaved.
        for now in 20..22 {
            t.stall_cycle(0, StallCause::DmaNoCredit, now);
            t.stall_cycle(0, StallCause::ExitFifoFull, now);
        }
        t.finish(30);
        let windows: Vec<_> = t
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::StallWindow {
                    cause, start, end, ..
                } => Some((cause, start, end)),
                _ => None,
            })
            .collect();
        assert!(windows.contains(&(StallCause::DmaNoCredit, 10, 14)));
        assert!(windows.contains(&(StallCause::DmaNoCredit, 20, 21)));
        assert!(windows.contains(&(StallCause::ExitFifoFull, 20, 21)));
        assert_eq!(t.stall_cycles(0, StallCause::DmaNoCredit), 7);
        assert_eq!(t.stall_cycles(0, StallCause::ExitFifoFull), 2);
    }

    fn accel_spans(t: &Tracer) -> Vec<(u64, u64)> {
        t.events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::AccelActive { start, end, .. } => Some((start, end)),
                _ => None,
            })
            .collect()
    }

    /// Drive `accel_edge` the way `System::observe` does: from a per-cycle
    /// activity signal, reporting only changes.
    fn drive_edges(t: &mut Tracer, active_at: impl Fn(u64) -> bool, cycles: u64) {
        let mut prev = false;
        for now in 0..cycles {
            let a = active_at(now);
            if a != prev {
                t.accel_edge(0, a, now);
                prev = a;
            }
        }
    }

    #[test]
    fn accel_windows_coalesce() {
        let mut t = Tracer::enabled(0);
        drive_edges(
            &mut t,
            |now| (5..10).contains(&now) || (20..23).contains(&now),
            50,
        );
        t.finish(50);
        assert_eq!(accel_spans(&t), vec![(5, 9), (20, 22)]);
    }

    #[test]
    fn accel_windows_merge_short_gaps() {
        // With a sample interval of 8, an idle gap of ≤ 8 cycles merges
        // into the surrounding window; a longer one splits it.
        let mut t = Tracer::enabled(8);
        drive_edges(
            &mut t,
            |now| (0..4).contains(&now) || (10..12).contains(&now) || (40..42).contains(&now),
            60,
        );
        t.finish(60);
        assert_eq!(accel_spans(&t), vec![(0, 11), (40, 41)]);
    }

    #[test]
    fn accel_window_open_at_finish_ends_at_last_cycle() {
        let mut t = Tracer::enabled(0);
        t.accel_edge(0, true, 12);
        t.finish(30); // still active: last simulated cycle is 29
        assert_eq!(accel_spans(&t), vec![(12, 29)]);
    }

    #[test]
    fn stall_span_matches_per_cycle_calls() {
        let mut bulk = Tracer::enabled(0);
        let mut percycle = Tracer::enabled(0);
        bulk.stall_span(1, StallCause::CheckForSpace, 10, 15);
        bulk.stall_span(1, StallCause::CheckForSpace, 15, 18); // contiguous: extends
        bulk.stall_span(1, StallCause::CheckForSpace, 25, 27); // gap: new window
        for now in 10..18 {
            percycle.stall_cycle(1, StallCause::CheckForSpace, now);
        }
        for now in 25..27 {
            percycle.stall_cycle(1, StallCause::CheckForSpace, now);
        }
        bulk.finish(30);
        percycle.finish(30);
        assert_eq!(bulk.events(), percycle.events());
        assert_eq!(
            bulk.stall_cycles(1, StallCause::CheckForSpace),
            percycle.stall_cycles(1, StallCause::CheckForSpace)
        );
    }

    #[test]
    fn high_water_only_on_increase() {
        let mut t = Tracer::enabled(0);
        t.fifo_high_water(2, 4, 1);
        t.fifo_high_water(2, 4, 2);
        t.fifo_high_water(2, 9, 3);
        t.fifo_high_water(2, 8, 4);
        let marks: Vec<_> = t
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::FifoHighWater { cycle, level, .. } => Some((cycle, level)),
                _ => None,
            })
            .collect();
        assert_eq!(marks, vec![(1, 4), (3, 9)]);
    }

    #[test]
    fn chrome_export_is_valid_shape() {
        let mut t = Tracer::enabled(0);
        t.emit(|| TraceEvent::BlockStart {
            gateway: 0,
            stream: 1,
            cycle: 5,
        });
        t.emit(|| TraceEvent::BlockEnd {
            gateway: 0,
            stream: 1,
            start: 5,
            reconfig_end: 15,
            stream_end: 40,
            drain_end: 44,
            dma_stall: 2,
            exit_stall: 0,
        });
        t.stall_cycle(0, StallCause::DmaNoCredit, 20);
        t.finish(50);
        let names = TraceNames {
            gateways: vec!["gw".into()],
            streams: vec![vec!["s0".into(), "s\"quoted\"".into()]],
            ..TraceNames::default()
        };
        let json = chrome_trace_json(t.events(), &names);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("dma-no-credit"));
        assert!(json.contains("s\\\"quoted\\\""));
        // Balanced braces — cheap structural sanity check on the JSON.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }
}
