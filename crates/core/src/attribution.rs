//! Causal latency attribution: *why* did a block take τ cycles?
//!
//! The paper's whole argument is that per-stream latency decomposes into
//! analyzable components — the reconfiguration window `R_s`, the entry-DMA
//! transfer under TDM arbitration, ring transit, accelerator service, and
//! (when the §V-G check-for-space admission test is disabled) Fig. 9
//! head-of-line blocking on the exit C-FIFO. This module observes that
//! decomposition directly: it takes each completed block's timeline and
//! the stall windows from the one fold over the
//! [`Tracer`](streamgate_platform::Tracer) event log
//! (`metrics::fold_gateways`) and attributes **every cycle** of the
//! measured τ to exactly one [`BlameCause`], with the invariant that the
//! components sum to τ — enforced by assertion in [`collect_blame`], and
//! bit-identical between the two cycle-exact engines because both produce
//! identical event streams.
//!
//! Per-block decomposition (all spans half-open; `τ = drain_end − start`):
//!
//! | component | cycles | analytic term (A10 / A12) |
//! |---|---|---|
//! | `Reconfig` | `reconfig_end − start` | `R_s` |
//! | `TdmSlotWait` | 0 in steady state | A12 slot alignment `p` |
//! | `DmaCreditWait` | `dma_stall` (the gateway's per-block counter) | sharing slack of `(η+2)·max(ε, ρ_A, δ)` |
//! | `DmaTransfer` | `(stream_end − reconfig_end) − dma_stall` | `(η−1)·ε + 3` unstalled DMA ceiling |
//! | `HeadOfLine` | exit-full stall windows ∩ drain span | 0 when check-for-space is on |
//! | `RingTransit` | `min(D, drain − HeadOfLine)`, `D` = static ring path | hop distance entry → chain → exit |
//! | `AccelService` | drain-span residual | sharing slack (chain service/queueing) |
//!
//! Exit-FIFO stalls that overlap the *DMA* span are shadowed by the
//! entry-side attribution (those cycles were spent streaming inputs
//! regardless); only the drain-span overlap is blamed on head-of-line —
//! the drain is exactly where Fig. 9 wedges a block.
//!
//! The same machinery powers the **flight-recorder postmortem**
//! ([`collect_postmortem`]): when a [`Monitor`] trips mid-run, the recent
//! event window, open stall windows, monitor state and the attribution of
//! the violating (possibly still in-flight) block are folded into a
//! serializable [`Postmortem`] that `streamgate-analyze --postmortem`
//! renders against the spec's predicted per-component ceilings.

use crate::metrics::{fold_system, GatewayMetrics, InFlight};
use crate::monitor::Monitor;
use crate::profile::{log2_histogram, SCHEMA_VERSION};
use streamgate_platform::{BlockRecord, Json, StallCause, System, TraceEvent};

/// One cause a cycle of a block's τ is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum BlameCause {
    /// The configuration-bus window `R_s` charged before the DMA may run.
    Reconfig,
    /// Waiting for the entry DMA's TDM slot (A12 alignment `p`). Zero in
    /// steady state: the simulated DMA arbiter grants in the admission
    /// cycle, so all slot-alignment cost is folded into mode transitions.
    TdmSlotWait,
    /// Entry-DMA cycles stalled on missing ring credits (`dma-no-credit`).
    DmaCreditWait,
    /// Unstalled entry-DMA streaming cycles (`(η−1)·ε` plus pipelining).
    DmaTransfer,
    /// Drain-span cycles stalled on a full exit C-FIFO — Fig. 9
    /// head-of-line blocking.
    HeadOfLine,
    /// Pure ring-transit cycles of the drain: the last sample's hop walk
    /// along the static path entry → chain → exit.
    RingTransit,
    /// Remaining drain cycles: accelerator service and chain queueing.
    AccelService,
}

impl BlameCause {
    /// Every cause, in component-array order.
    pub const ALL: [BlameCause; 7] = [
        BlameCause::Reconfig,
        BlameCause::TdmSlotWait,
        BlameCause::DmaCreditWait,
        BlameCause::DmaTransfer,
        BlameCause::HeadOfLine,
        BlameCause::RingTransit,
        BlameCause::AccelService,
    ];

    /// Stable serialization name.
    pub fn name(self) -> &'static str {
        match self {
            BlameCause::Reconfig => "reconfig",
            BlameCause::TdmSlotWait => "tdm-slot-wait",
            BlameCause::DmaCreditWait => "dma-credit-wait",
            BlameCause::DmaTransfer => "dma-transfer",
            BlameCause::HeadOfLine => "head-of-line",
            BlameCause::RingTransit => "ring-transit",
            BlameCause::AccelService => "accel-service",
        }
    }

    /// Index into a `[u64; 7]` component array.
    pub fn index(self) -> usize {
        BlameCause::ALL.iter().position(|&c| c == self).unwrap()
    }
}

/// A contiguous run of cycles on a block's critical path, attributed to
/// one cause. Half-open: covers `from..to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlameSegment {
    /// Why these cycles elapsed.
    pub cause: BlameCause,
    /// First cycle of the run.
    pub from: u64,
    /// One past the last cycle of the run.
    pub to: u64,
}

impl BlameSegment {
    /// Cycles covered.
    pub fn len(&self) -> u64 {
        self.to - self.from
    }

    /// True for a degenerate empty segment (never emitted).
    pub fn is_empty(&self) -> bool {
        self.to == self.from
    }
}

/// Full attribution of one block (or of the in-flight prefix of a block
/// that has not completed — `completed == false`, `end` is the dump
/// cycle).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockBlame {
    /// Stream index within the gateway.
    pub stream: usize,
    /// Admission cycle.
    pub start: u64,
    /// Drain-end cycle for a completed block; the attribution horizon for
    /// an in-flight one.
    pub end: u64,
    /// False when the block was still running at attribution time.
    pub completed: bool,
    /// Cycles per cause, indexed as [`BlameCause::ALL`]. Sums to
    /// `end − start` — exactly τ for a completed block.
    pub components: [u64; 7],
    /// The block's timeline as ordered cause segments covering
    /// `[start, end)` with no gaps or overlaps.
    pub critical_path: Vec<BlameSegment>,
}

impl BlockBlame {
    /// Measured τ (or elapsed in-flight cycles).
    pub fn tau(&self) -> u64 {
        self.end - self.start
    }

    /// The dominant cause and its cycle count (ties resolve to the
    /// earliest [`BlameCause::ALL`] entry).
    pub fn top_cause(&self) -> (BlameCause, u64) {
        let mut best = 0;
        for i in 1..self.components.len() {
            if self.components[i] > self.components[best] {
                best = i;
            }
        }
        (BlameCause::ALL[best], self.components[best])
    }
}

/// Aggregated attribution for one stream across a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamBlame {
    /// Gateway index.
    pub gateway: usize,
    /// Stream index within the gateway.
    pub stream: usize,
    /// Gateway diagnostic name.
    pub gateway_name: String,
    /// Stream diagnostic name.
    pub name: String,
    /// Completed blocks attributed.
    pub blocks: u64,
    /// Sum of measured τ over all blocks (equals the component total).
    pub tau_sum: u64,
    /// Total cycles per cause across all blocks ([`BlameCause::ALL`]).
    pub totals: [u64; 7],
    /// Per-block maximum of each component — what componentwise
    /// conformance checks against the analytic ceilings.
    pub maxima: [u64; 7],
    /// log₂ histogram of each component's per-block values.
    pub hists: [Vec<u64>; 7],
    /// The block with the largest τ, with its full critical path.
    pub worst: Option<BlockBlame>,
}

/// A whole run's attribution, serializable as deterministic JSON.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlameReport {
    /// Deployment name (matched against the analyzed spec).
    pub deployment: String,
    /// Engine that produced the run — the only field that may differ
    /// between the two cycle-exact engines.
    pub mode: String,
    /// Cycles simulated.
    pub cycles: u64,
    /// Per-stream attribution, gateway-then-stream order.
    pub streams: Vec<StreamBlame>,
}

/// Total overlap, in cycles, between inclusive windows and the half-open
/// span `[lo, hi)`.
fn overlap(windows: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    windows
        .iter()
        .map(|&(s, e)| {
            let a = s.max(lo);
            let b = (e + 1).min(hi);
            b.saturating_sub(a)
        })
        .sum()
}

/// Split the half-open span `[lo, hi)` around the inclusive stall
/// `windows`: overlapped cycles get `hit`, the rest `miss`. Segments come
/// out ordered, non-empty, gap-free.
fn punch(
    lo: u64,
    hi: u64,
    windows: &[(u64, u64)],
    hit: BlameCause,
    miss: BlameCause,
) -> Vec<BlameSegment> {
    let mut segs = Vec::new();
    let mut cur = lo;
    let mut clipped: Vec<(u64, u64)> = windows
        .iter()
        .filter_map(|&(s, e)| {
            let a = s.max(lo);
            let b = (e + 1).min(hi);
            (a < b).then_some((a, b))
        })
        .collect();
    clipped.sort_unstable();
    for (a, b) in clipped {
        if a > cur {
            segs.push(BlameSegment {
                cause: miss,
                from: cur,
                to: a,
            });
        }
        segs.push(BlameSegment {
            cause: hit,
            from: a.max(cur),
            to: b,
        });
        cur = cur.max(b);
    }
    if cur < hi {
        segs.push(BlameSegment {
            cause: miss,
            from: cur,
            to: hi,
        });
    }
    segs
}

/// Retag the trailing `budget` cycles of every `from_cause` segment (taken
/// from the back) as `to_cause` — used to carve the ring-transit tail out
/// of the drain span's non-stalled cycles.
fn retag_tail(
    segs: &mut Vec<BlameSegment>,
    from_cause: BlameCause,
    to_cause: BlameCause,
    budget: u64,
) {
    let mut remaining = budget;
    let mut i = segs.len();
    while remaining > 0 && i > 0 {
        i -= 1;
        if segs[i].cause != from_cause {
            continue;
        }
        let len = segs[i].len();
        if len <= remaining {
            segs[i].cause = to_cause;
            remaining -= len;
        } else {
            let split = segs[i].to - remaining;
            let tail = BlameSegment {
                cause: to_cause,
                from: split,
                to: segs[i].to,
            };
            segs[i].to = split;
            segs.insert(i + 1, tail);
            remaining = 0;
        }
    }
}

/// Sum path segments into a component array and check path invariants.
fn components_of(path: &[BlameSegment], start: u64, end: u64) -> [u64; 7] {
    let mut comp = [0u64; 7];
    let mut cur = start;
    for s in path {
        debug_assert!(
            s.from == cur && !s.is_empty(),
            "path must tile [start, end)"
        );
        cur = s.to;
        comp[s.cause.index()] += s.len();
    }
    debug_assert_eq!(cur, end, "path must reach the block end");
    comp
}

/// Attribute one completed block. `dma_windows` / `exit_windows` are the
/// gateway's closed `dma-no-credit` / `exit-fifo-full` stall windows;
/// `ring_dist` is the static data-ring hop distance entry → chain → exit.
///
/// When `strict`, asserts that the stall windows account exactly for the
/// block's recorded `dma_stall` counter — true for a full trace, not
/// necessarily for a flight recorder whose early windows were evicted (a
/// postmortem passes `strict = false` and the counter stays
/// authoritative).
fn attribute_completed(
    b: &BlockRecord,
    dma_windows: &[(u64, u64)],
    exit_windows: &[(u64, u64)],
    ring_dist: u64,
    strict: bool,
) -> BlockBlame {
    let BlockRecord {
        stream,
        start,
        reconfig_end,
        stream_end,
        drain_end,
        dma_stall,
        ..
    } = *b;
    let drain = drain_end - stream_end;
    let hol = overlap(exit_windows, stream_end, drain_end);
    let ring = ring_dist.min(drain - hol);
    let mut components = [0u64; 7];
    components[BlameCause::Reconfig.index()] = reconfig_end - start;
    components[BlameCause::DmaCreditWait.index()] = dma_stall;
    components[BlameCause::DmaTransfer.index()] = (stream_end - reconfig_end) - dma_stall;
    components[BlameCause::HeadOfLine.index()] = hol;
    components[BlameCause::RingTransit.index()] = ring;
    components[BlameCause::AccelService.index()] = drain - hol - ring;

    let mut path = Vec::new();
    if reconfig_end > start {
        path.push(BlameSegment {
            cause: BlameCause::Reconfig,
            from: start,
            to: reconfig_end,
        });
    }
    path.extend(punch(
        reconfig_end,
        stream_end,
        dma_windows,
        BlameCause::DmaCreditWait,
        BlameCause::DmaTransfer,
    ));
    let mut drain_segs = punch(
        stream_end,
        drain_end,
        exit_windows,
        BlameCause::HeadOfLine,
        BlameCause::AccelService,
    );
    retag_tail(
        &mut drain_segs,
        BlameCause::AccelService,
        BlameCause::RingTransit,
        ring,
    );
    path.extend(drain_segs);

    if strict {
        let path_comp = components_of(&path, start, drain_end);
        assert_eq!(
            path_comp, components,
            "critical path disagrees with component totals for the block \
             admitted at cycle {start} (stream {stream}): the stall windows \
             do not account for the recorded stall counters"
        );
    }
    BlockBlame {
        stream,
        start,
        end: drain_end,
        completed: true,
        components,
        critical_path: path,
    }
}

/// Static data-ring hop distance of gateway `g`'s block path: entry
/// station → each chain accelerator in order → exit station.
fn chain_ring_distance(system: &System, g: usize) -> u64 {
    let gw = &system.gateways[g];
    let mut prev = gw.entry_node;
    let mut dist = 0u64;
    for a in &gw.chain {
        let n = system.accels[a.0].node;
        dist += system.ring.data.distance(prev, n) as u64;
        prev = n;
    }
    dist + system.ring.data.distance(prev, gw.exit_node) as u64
}

/// Fold a finished fully-traced run into a [`BlameReport`].
///
/// Closes open trace windows (`System::finish_trace`), folds the log once
/// into every gateway's completed blocks and stall windows, and
/// attributes every cycle of each block to one [`BlameCause`].
///
/// # Panics
///
/// Panics when the system was not running a *full* trace — a flight
/// recorder's evicted history cannot attribute every block (use
/// [`collect_postmortem`] for recorder runs) — and when any block's
/// attribution fails the sum-to-τ or window-vs-counter invariants, which
/// always indicates an engine/tracer bug.
pub fn collect_blame(system: &mut System, deployment: &str) -> BlameReport {
    assert!(
        system.tracer.is_full(),
        "collect_blame needs a full trace — call System::enable_tracing \
         (or enable_profiling) before running; a flight recorder is not enough"
    );
    system.finish_trace();
    let mut streams = Vec::new();
    for m in fold_system(system) {
        let g = m.gateway;
        let ring_dist = chain_ring_distance(system, g);
        let gw = &system.gateways[g];
        // The log keeps each block under the index its stream ran at, and
        // a `RemoveStream` since then shrinks the table: such rows get no
        // name.
        let logged = m.blocks.iter().map(|b| b.stream + 1).max().unwrap_or(0);
        let nst = gw.num_streams().max(logged);
        let mut per_stream: Vec<StreamBlame> = (0..nst)
            .map(|s| StreamBlame {
                gateway: g,
                stream: s,
                gateway_name: gw.name.clone(),
                name: if s < gw.num_streams() {
                    gw.stream(s).name.clone()
                } else {
                    String::new()
                },
                blocks: 0,
                tau_sum: 0,
                totals: [0; 7],
                maxima: [0; 7],
                hists: Default::default(),
                worst: None,
            })
            .collect();
        let mut per_block: Vec<Vec<[u64; 7]>> = vec![Vec::new(); nst];
        for b in &m.blocks {
            let blame = attribute_completed(
                b,
                m.windows(StallCause::DmaNoCredit),
                m.windows(StallCause::ExitFifoFull),
                ring_dist,
                true,
            );
            let tau = b.tau();
            assert_eq!(
                blame.components.iter().sum::<u64>(),
                tau,
                "blame components must sum to τ (gateway {g}, stream {}, \
                 block at cycle {})",
                b.stream,
                b.start
            );
            let sb = &mut per_stream[b.stream];
            sb.blocks += 1;
            sb.tau_sum += tau;
            for i in 0..7 {
                sb.totals[i] += blame.components[i];
                sb.maxima[i] = sb.maxima[i].max(blame.components[i]);
            }
            per_block[b.stream].push(blame.components);
            let better = sb.worst.as_ref().is_none_or(|w| tau > w.tau());
            if better {
                sb.worst = Some(blame);
            }
        }
        for (s, sb) in per_stream.iter_mut().enumerate() {
            for i in 0..7 {
                sb.hists[i] = log2_histogram(per_block[s].iter().map(|c| c[i]));
            }
        }
        streams.extend(per_stream);
    }
    BlameReport {
        deployment: deployment.to_string(),
        mode: system.step_mode.name().to_string(),
        cycles: system.cycle(),
        streams,
    }
}

impl BlockBlame {
    /// The block's attribution as a JSON object.
    fn to_json(&self) -> Json {
        let components = BlameCause::ALL
            .iter()
            .map(|c| (c.name(), self.components[c.index()].into()));
        let path = self.critical_path.iter().map(|s| {
            Json::obj([
                ("cause", s.cause.name().into()),
                ("from", s.from.into()),
                ("to", s.to.into()),
            ])
        });
        Json::obj([
            ("stream", self.stream.into()),
            ("start", self.start.into()),
            ("end", self.end.into()),
            ("tau", self.tau().into()),
            ("completed", self.completed.into()),
            ("top_cause", self.top_cause().0.name().into()),
            ("components", Json::obj(components)),
            ("critical_path", path.collect()),
        ])
    }
}

impl BlameReport {
    /// The report as a JSON tree: stable key order, no floats.
    pub fn to_json(&self) -> Json {
        let stream = |s: &StreamBlame| {
            let components = BlameCause::ALL.iter().map(|c| {
                let i = c.index();
                Json::obj([
                    ("cause", c.name().into()),
                    ("cycles", s.totals[i].into()),
                    ("max", s.maxima[i].into()),
                    ("hist", s.hists[i].as_slice().into()),
                ])
            });
            Json::obj([
                ("gateway", s.gateway.into()),
                ("stream", s.stream.into()),
                ("gateway_name", s.gateway_name.clone().into()),
                ("name", s.name.clone().into()),
                ("blocks", s.blocks.into()),
                ("tau_sum", s.tau_sum.into()),
                ("components", components.collect()),
                ("worst", s.worst.as_ref().map(BlockBlame::to_json).into()),
            ])
        };
        Json::obj([
            ("schema_version", SCHEMA_VERSION.into()),
            ("deployment", self.deployment.clone().into()),
            ("mode", self.mode.clone().into()),
            ("cycles", self.cycles.into()),
            ("streams", self.streams.iter().map(stream).collect()),
        ])
    }

    /// Render as compact JSON text (see [`BlameReport::to_json`]).
    pub fn to_json_text(&self) -> String {
        self.to_json().to_text()
    }
}

// ---------------------------------------------------------------------------
// Postmortem: flight-recorder dump + attribution of the violating block.
// ---------------------------------------------------------------------------

/// Attribution context of the block a postmortem explains.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PostmortemBlame {
    /// Gateway index.
    pub gateway: usize,
    /// Gateway diagnostic name.
    pub gateway_name: String,
    /// Stream diagnostic name.
    pub stream_name: String,
    /// The block's attribution (in-flight when the run wedged).
    pub block: BlockBlame,
}

/// Everything a violation leaves behind: the flight recorder's recent
/// window, the tracer's open stall windows, the monitor's findings, and
/// the attribution of the violating block. Serializable as deterministic
/// JSON for `streamgate-analyze --postmortem`.
#[derive(Clone, Debug)]
pub struct Postmortem {
    /// Deployment name (matched against the analyzed spec).
    pub deployment: String,
    /// Engine that produced the run.
    pub mode: String,
    /// Cycle the dump was taken.
    pub cycle: u64,
    /// Events evicted by the flight recorder before the dump.
    pub events_dropped: u64,
    /// Events the monitor never saw (evicted between polls).
    pub monitor_missed: u64,
    /// The retained recent events, oldest first (capped at
    /// [`POSTMORTEM_EVENT_CAP`]).
    pub recent_events: Vec<TraceEvent>,
    /// Still-open stall windows: `(gateway, cause, start, last cycle)`.
    pub open_stalls: Vec<(u32, StallCause, u64, u64)>,
    /// The monitor's violations, in detection order.
    pub violations: Vec<crate::monitor::Violation>,
    /// Attribution of the violating (or wedged in-flight) block, when one
    /// could be reconstructed from the retained events.
    pub blame: Option<PostmortemBlame>,
}

/// Maximum raw events serialized into a postmortem dump (the newest are
/// kept — older context was either evicted by the recorder already or
/// adds little to the explanation).
pub const POSTMORTEM_EVENT_CAP: usize = 512;

/// Attribute the in-flight block `b` of the gateway `m` describes from
/// partial evidence: that gateway's closed stall windows plus the
/// tracer's still-open ones, up to the attribution horizon `now`.
///
/// Unlike the completed-block path, an exit-full window here takes
/// priority over the whole post-reconfig span — a wedged block is charged
/// to the exit-side cause that wedged it even where entry-side stalls
/// overlap (the entry stall is a symptom of the exit wedge). Ring transit
/// is only attributable at completion and stays zero.
fn attribute_in_flight(
    b: InFlight,
    m: &GatewayMetrics,
    open_stalls: &[(u32, StallCause, u64, u64)],
    now: u64,
) -> BlockBlame {
    let start = b.start;
    let rc_end = b.reconfig_end.unwrap_or(start).min(now);
    let dma_end = b.stream_end.unwrap_or(now).min(now);
    let windows = |cause: StallCause| -> Vec<(u64, u64)> {
        let open = open_stalls.iter().filter_map(|&(gw, c, s, last)| {
            (gw as usize == m.gateway && c == cause).then_some((s, last))
        });
        m.windows(cause).iter().copied().chain(open).collect()
    };
    let dma_windows = windows(StallCause::DmaNoCredit);
    let exit_windows = windows(StallCause::ExitFifoFull);

    let mut path = Vec::new();
    if rc_end > start {
        path.push(BlameSegment {
            cause: BlameCause::Reconfig,
            from: start,
            to: rc_end,
        });
    }
    // Exit-full first (wedge priority), then entry-credit inside the
    // remainder of the DMA span, service for the rest.
    for seg in punch(
        rc_end,
        now,
        &exit_windows,
        BlameCause::HeadOfLine,
        BlameCause::AccelService,
    ) {
        if seg.cause == BlameCause::HeadOfLine {
            path.push(seg);
            continue;
        }
        let dma_to = seg.to.min(dma_end);
        if seg.from < dma_to {
            path.extend(punch(
                seg.from,
                dma_to,
                &dma_windows,
                BlameCause::DmaCreditWait,
                BlameCause::DmaTransfer,
            ));
        }
        if dma_to < seg.to {
            path.push(BlameSegment {
                cause: BlameCause::AccelService,
                from: dma_to.max(seg.from),
                to: seg.to,
            });
        }
    }
    let components = components_of(&path, start, now);
    BlockBlame {
        stream: b.stream,
        start,
        end: now,
        completed: false,
        components,
        critical_path: path,
    }
}

/// Take a postmortem dump from a live (possibly wedged) system.
///
/// Works on any enabled tracer — the always-on flight recorder or a full
/// trace. The tracer is read as-is (open stall windows stay open: they are
/// the evidence of a wedge). The blame target is the gateway of the
/// monitor's most recent violation when it names one, else the first
/// gateway with an in-flight block; the violating block's attribution is
/// reconstructed from the retained events (in-flight when the fold ends
/// with a block in flight, else the most recent completed block).
///
/// # Panics
///
/// Panics when the system has no enabled tracer at all — there is nothing
/// to dump, which indicates a harness that forgot
/// `System::enable_flight_recorder`.
pub fn collect_postmortem(system: &System, monitor: &Monitor, deployment: &str) -> Postmortem {
    assert!(
        system.tracer.is_enabled(),
        "collect_postmortem needs a tracer — call System::enable_flight_recorder \
         (or enable_tracing) before running"
    );
    let now = system.cycle();
    let events = system.tracer.events();
    let open_stalls = system.tracer.open_stalls().to_vec();
    let metrics = fold_system(system);
    let target_gateway = monitor
        .violations()
        .iter()
        .rev()
        .find_map(|v| v.gateway)
        .or_else(|| metrics.iter().position(|m| m.in_flight.is_some()));
    let blame = target_gateway.and_then(|g| {
        let m = &metrics[g];
        let block = match m.in_flight {
            Some(b) => attribute_in_flight(b, m, &open_stalls, now),
            None => attribute_completed(
                m.blocks.last()?,
                m.windows(StallCause::DmaNoCredit),
                m.windows(StallCause::ExitFifoFull),
                chain_ring_distance(system, g),
                false,
            ),
        };
        let gw = &system.gateways[g];
        let stream_name = if block.stream < gw.num_streams() {
            gw.stream(block.stream).name.clone()
        } else {
            String::new()
        };
        Some(PostmortemBlame {
            gateway: g,
            gateway_name: gw.name.clone(),
            stream_name,
            block,
        })
    });
    let skip = events.len().saturating_sub(POSTMORTEM_EVENT_CAP);
    Postmortem {
        deployment: deployment.to_string(),
        mode: system.step_mode.name().to_string(),
        cycle: now,
        events_dropped: system.tracer.events_dropped() + skip as u64,
        monitor_missed: monitor.missed_events(),
        recent_events: events[skip..].to_vec(),
        open_stalls,
        violations: monitor.violations().to_vec(),
        blame,
    }
}

fn event_json(e: &TraceEvent) -> Json {
    let kind = |k: &'static str| ("type", Json::from(k));
    match *e {
        TraceEvent::BlockStart {
            gateway,
            stream,
            cycle,
        } => Json::obj([
            kind("block-start"),
            ("gateway", gateway.into()),
            ("stream", stream.into()),
            ("cycle", cycle.into()),
        ]),
        TraceEvent::ReconfigWindow {
            gateway,
            stream,
            start,
            end,
        }
        | TraceEvent::DrainPhase {
            gateway,
            stream,
            start,
            end,
        } => Json::obj([
            kind(if matches!(e, TraceEvent::ReconfigWindow { .. }) {
                "reconfig-window"
            } else {
                "drain-phase"
            }),
            ("gateway", gateway.into()),
            ("stream", stream.into()),
            ("start", start.into()),
            ("end", end.into()),
        ]),
        TraceEvent::ConfigSave {
            gateway,
            stream,
            accel,
            cycle,
            words,
        }
        | TraceEvent::ConfigRestore {
            gateway,
            stream,
            accel,
            cycle,
            words,
        } => Json::obj([
            kind(if matches!(e, TraceEvent::ConfigSave { .. }) {
                "config-save"
            } else {
                "config-restore"
            }),
            ("gateway", gateway.into()),
            ("stream", stream.into()),
            ("accel", accel.into()),
            ("cycle", cycle.into()),
            ("words", words.into()),
        ]),
        TraceEvent::DmaPhase {
            gateway,
            stream,
            start,
            end,
            samples,
        } => Json::obj([
            kind("dma-phase"),
            ("gateway", gateway.into()),
            ("stream", stream.into()),
            ("start", start.into()),
            ("end", end.into()),
            ("samples", samples.into()),
        ]),
        TraceEvent::BlockEnd { gateway, block: b } => Json::obj([
            kind("block-end"),
            ("gateway", gateway.into()),
            ("stream", b.stream.into()),
            ("start", b.start.into()),
            ("reconfig_end", b.reconfig_end.into()),
            ("stream_end", b.stream_end.into()),
            ("drain_end", b.drain_end.into()),
            ("dma_stall", b.dma_stall.into()),
            ("exit_stall", b.exit_stall.into()),
        ]),
        TraceEvent::StallWindow {
            gateway,
            cause,
            start,
            end,
        } => Json::obj([
            kind("stall-window"),
            ("gateway", gateway.into()),
            ("cause", cause.name().into()),
            ("start", start.into()),
            ("end", end.into()),
        ]),
        TraceEvent::AccelActive { accel, start, end } => Json::obj([
            kind("accel-active"),
            ("accel", accel.into()),
            ("start", start.into()),
            ("end", end.into()),
        ]),
        TraceEvent::FifoLevel { fifo, cycle, level }
        | TraceEvent::FifoHighWater { fifo, cycle, level } => Json::obj([
            kind(if matches!(e, TraceEvent::FifoLevel { .. }) {
                "fifo-level"
            } else {
                "fifo-high-water"
            }),
            ("fifo", fifo.into()),
            ("cycle", cycle.into()),
            ("level", level.into()),
        ]),
        TraceEvent::RingCounters {
            cycle,
            data_delivered,
            data_stalls,
            credit_delivered,
        } => Json::obj([
            kind("ring-counters"),
            ("cycle", cycle.into()),
            ("data_delivered", data_delivered.into()),
            ("data_stalls", data_stalls.into()),
            ("credit_delivered", credit_delivered.into()),
        ]),
    }
}

impl Postmortem {
    /// The dump as a JSON tree: stable key order, no floats.
    pub fn to_json(&self) -> Json {
        let open = |&(g, c, s, last): &(u32, StallCause, u64, u64)| {
            Json::obj([
                ("gateway", g.into()),
                ("cause", c.name().into()),
                ("start", s.into()),
                ("last", last.into()),
            ])
        };
        let violation = |v: &crate::monitor::Violation| {
            Json::obj([
                ("kind", v.kind.name().into()),
                ("cycle", v.cycle.into()),
                ("gateway", v.gateway.into()),
                ("gateway_name", v.gateway_name.clone().into()),
                ("stream", v.stream.into()),
                ("stream_name", v.stream_name.clone().into()),
                ("fifo", v.fifo.into()),
                ("message", v.message.clone().into()),
            ])
        };
        let blame = self.blame.as_ref().map(|b| {
            Json::obj([
                ("gateway", b.gateway.into()),
                ("gateway_name", b.gateway_name.clone().into()),
                ("stream_name", b.stream_name.clone().into()),
                ("block", b.block.to_json()),
            ])
        });
        Json::obj([
            ("schema_version", SCHEMA_VERSION.into()),
            ("deployment", self.deployment.clone().into()),
            ("mode", self.mode.clone().into()),
            ("cycle", self.cycle.into()),
            ("events_dropped", self.events_dropped.into()),
            ("monitor_missed", self.monitor_missed.into()),
            (
                "recent_events",
                self.recent_events.iter().map(event_json).collect(),
            ),
            ("open_stalls", self.open_stalls.iter().map(open).collect()),
            (
                "violations",
                self.violations.iter().map(violation).collect(),
            ),
            ("blame", blame.into()),
        ])
    }

    /// Render as compact JSON text (see [`Postmortem::to_json`]).
    pub fn to_json_text(&self) -> String {
        self.to_json().to_text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{build_shared_system, AccelDef, StreamDef, SystemSpec};
    use crate::monitor::MonitorConfig;
    use streamgate_platform::PassthroughKernel;

    #[test]
    fn punch_tiles_span_exactly() {
        // Windows [3,4] and [8,9] (inclusive) over [0, 12).
        let segs = punch(
            0,
            12,
            &[(3, 4), (8, 9)],
            BlameCause::HeadOfLine,
            BlameCause::AccelService,
        );
        let causes: Vec<(BlameCause, u64, u64)> =
            segs.iter().map(|s| (s.cause, s.from, s.to)).collect();
        assert_eq!(
            causes,
            vec![
                (BlameCause::AccelService, 0, 3),
                (BlameCause::HeadOfLine, 3, 5),
                (BlameCause::AccelService, 5, 8),
                (BlameCause::HeadOfLine, 8, 10),
                (BlameCause::AccelService, 10, 12),
            ]
        );
        // Windows straddling the span are clipped; out-of-span ignored.
        let segs = punch(
            5,
            10,
            &[(0, 6), (9, 20), (30, 31)],
            BlameCause::DmaCreditWait,
            BlameCause::DmaTransfer,
        );
        assert_eq!(segs.iter().map(BlameSegment::len).sum::<u64>(), 5);
        assert_eq!(
            components_of(&segs, 5, 10)[BlameCause::DmaCreditWait.index()],
            3
        );
    }

    #[test]
    fn retag_tail_splits_segments() {
        let mut segs = vec![
            BlameSegment {
                cause: BlameCause::AccelService,
                from: 0,
                to: 10,
            },
            BlameSegment {
                cause: BlameCause::HeadOfLine,
                from: 10,
                to: 12,
            },
            BlameSegment {
                cause: BlameCause::AccelService,
                from: 12,
                to: 15,
            },
        ];
        retag_tail(
            &mut segs,
            BlameCause::AccelService,
            BlameCause::RingTransit,
            5,
        );
        let comp = components_of(&segs, 0, 15);
        assert_eq!(comp[BlameCause::RingTransit.index()], 5);
        assert_eq!(comp[BlameCause::AccelService.index()], 8);
        assert_eq!(comp[BlameCause::HeadOfLine.index()], 2);
        // The tail is taken strictly from the back: [12,15) fully retagged,
        // plus the last 2 cycles of [0,10).
        assert_eq!(segs.last().unwrap().from, 12);
        assert_eq!(segs[1].to, 10);
        assert_eq!(segs[1].cause, BlameCause::RingTransit);
    }

    fn block(
        start: u64,
        reconfig_end: u64,
        stream_end: u64,
        drain_end: u64,
        dma_stall: u64,
    ) -> BlockRecord {
        BlockRecord {
            stream: 0,
            start,
            reconfig_end,
            stream_end,
            drain_end,
            dma_stall,
            exit_stall: 0,
        }
    }

    #[test]
    fn hand_block_attribution_sums_to_tau() {
        // Block: start 100, reconfig → 110, DMA → 150 with stalls at
        // [120,124] (5 cycles), drain → 170 with exit-full [155,158]
        // (4 cycles), ring distance 3.
        let b = attribute_completed(
            &block(100, 110, 150, 170, 5),
            &[(120, 124)],
            &[(155, 158)],
            3,
            true,
        );
        assert_eq!(b.components.iter().sum::<u64>(), 70);
        assert_eq!(b.components[BlameCause::Reconfig.index()], 10);
        assert_eq!(b.components[BlameCause::DmaCreditWait.index()], 5);
        assert_eq!(b.components[BlameCause::DmaTransfer.index()], 35);
        assert_eq!(b.components[BlameCause::HeadOfLine.index()], 4);
        assert_eq!(b.components[BlameCause::RingTransit.index()], 3);
        assert_eq!(b.components[BlameCause::AccelService.index()], 13);
        assert_eq!(b.top_cause().0, BlameCause::DmaTransfer);
        // The critical path tiles [100, 170) and its last segment is the
        // ring-transit tail ending at drain_end.
        let last = b.critical_path.last().unwrap();
        assert_eq!((last.cause, last.to), (BlameCause::RingTransit, 170));
        assert_eq!(components_of(&b.critical_path, 100, 170), b.components);
    }

    #[test]
    #[should_panic(expected = "stall windows")]
    fn strict_attribution_rejects_missing_windows() {
        // dma_stall says 5 but no window accounts for it.
        let _ = attribute_completed(&block(0, 10, 50, 70, 5), &[], &[], 3, true);
    }

    fn small_system() -> crate::chain::BuiltSystem {
        let spec = SystemSpec {
            chain: vec![AccelDef::new("A", 2)],
            epsilon: 2,
            delta: 1,
            ni_depth: 2,
            streams: vec![StreamDef {
                name: "s0".into(),
                eta_in: 8,
                eta_out: 8,
                reconfig: 10,
                kernels: vec![Box::new(PassthroughKernel)],
                input_capacity: 64,
                output_capacity: 64,
            }],
        };
        build_shared_system(spec)
    }

    #[test]
    fn collect_blame_end_to_end() {
        let mut b = small_system();
        b.system.enable_tracing(0);
        for k in 0..32 {
            b.push_input(0, (k as f64, 0.0));
        }
        b.system.run(4000);
        let r = collect_blame(&mut b.system, "unit");
        assert_eq!(r.deployment, "unit");
        assert_eq!(r.streams.len(), 1);
        let s = &r.streams[0];
        assert!(s.blocks >= 3, "blocks {}", s.blocks);
        assert_eq!(s.totals.iter().sum::<u64>(), s.tau_sum);
        // Reconfig is charged exactly R_s = 10 per block.
        assert_eq!(s.totals[BlameCause::Reconfig.index()], 10 * s.blocks);
        assert_eq!(s.maxima[BlameCause::Reconfig.index()], 10);
        // The single-stream chain never head-of-line blocks or TDM-waits.
        assert_eq!(s.totals[BlameCause::TdmSlotWait.index()], 0);
        let w = s.worst.as_ref().expect("worst block recorded");
        assert_eq!(
            w.tau(),
            s.maxima.iter().copied().max().unwrap().max(w.tau())
        );
        assert_eq!(w.components.iter().sum::<u64>(), w.tau());
        // JSON determinism.
        let t = r.to_json_text();
        assert!(t.starts_with("{\"schema_version\":1,"));
        assert!(t.contains("\"cause\":\"ring-transit\""));
        assert_eq!(t, r.clone().to_json_text());
    }

    #[test]
    fn postmortem_explains_in_flight_block() {
        let mut b = small_system();
        b.system.enable_flight_recorder(256);
        for k in 0..16 {
            b.push_input(0, (k as f64, 0.0));
        }
        b.system.run(120);
        let monitor = Monitor::new(MonitorConfig::from_system(&b.system));
        let pm = collect_postmortem(&b.system, &monitor, "unit");
        assert_eq!(pm.cycle, 120);
        let t = pm.to_json_text();
        assert!(t.starts_with("{\"schema_version\":1,"));
        if let Some(blame) = &pm.blame {
            let blk = &blame.block;
            assert_eq!(
                blk.components.iter().sum::<u64>(),
                blk.end - blk.start,
                "in-flight components must sum to the elapsed cycles"
            );
        }
        assert_eq!(t, pm.clone().to_json_text());
    }
}
