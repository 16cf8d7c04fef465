//! Whole-system composition: ring + tiles, advanced by the simulation
//! engine.
//!
//! [`System`] owns the dual ring, the C-FIFOs, the accelerator tiles, the
//! gateway pairs and the processor tiles. The step order within a cycle —
//! processors, gateways, accelerators, then the ring — is fixed and
//! documented so runs are deterministic.
//!
//! Two [`StepMode`]s drive the clock of [`System::run`]:
//!
//! * [`StepMode::Exhaustive`] — the lock-step reference: every component
//!   is stepped every cycle ([`System::step`]).
//! * [`StepMode::EventDriven`] (the default) — the interval ("span")
//!   engine: each tile is invoked only at its *quiescence horizon* (the
//!   earliest cycle at which it could do more than skip-replayable
//!   bookkeeping, absent external input) and then runs a whole window in
//!   closed form (`run_span`), committing its actions ahead of the clock
//!   with their per-cycle timestamps; deferred bookkeeping is replayed in
//!   bulk (`skip`), and while every tile is quiescent the ring is stepped
//!   alone or rotated in bulk until the next delivery wakes a tile.
//!
//! The two modes are cycle-exact equivalents: identical block schedules,
//! FIFO contents, counters and — under a full trace — event logs. A full
//! trace is observed by the components that change (see `span_run`), so
//! an observed run stays on the fast engine.
//! [`System::run_until`] evaluates a closure every cycle and therefore
//! steps the lock-step loop on both modes.

use crate::accel::{AccelId, AcceleratorTile};
use crate::cfifo::{CFifo, FifoId, HwmGrowth};
use crate::gateway::{GatewayPair, StreamConfig};
use crate::processor::ProcessorTile;
use crate::trace::{self, HwmRead, TraceEvent, TraceNames, Tracer};
use crate::types::Sample;
use streamgate_ring::DualRing;

/// How [`System::run`] advances the clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StepMode {
    /// Step every component every cycle (the lock-step reference mode).
    Exhaustive,
    /// Advance each tile across whole quiescence-free windows on the span
    /// engine, traced or not (cycle-exact, much faster on workloads with
    /// idle or rate-limited phases). [`System::run_until`] still steps
    /// the lock-step loop: a closure has to see every cycle.
    #[default]
    EventDriven,
}

impl StepMode {
    /// Parse a mode name as used by the bench CLI flags.
    pub fn parse(s: &str) -> Option<StepMode> {
        match s {
            "exhaustive" => Some(StepMode::Exhaustive),
            "event" | "event-driven" => Some(StepMode::EventDriven),
            _ => None,
        }
    }

    /// Stable display name (`exhaustive` / `event`).
    pub fn name(self) -> &'static str {
        match self {
            StepMode::Exhaustive => "exhaustive",
            StepMode::EventDriven => "event",
        }
    }
}

/// How the engines spent the simulated cycles (the first three counters
/// sum to the cycles run), plus the chain-fusion work of the span engine
/// and the observation work of the lock-step loop. Useful for validating
/// that a workload actually benefits from time-skipping and for benchmark
/// reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Cycles on which at least one tile acted: every lock-step
    /// [`System::step`] (the exhaustive engine and `run_until`), and the
    /// span engine's tile-invocation cycles (which touch only the tiles
    /// actually due that cycle).
    pub full_steps: u64,
    /// Span-engine cycles where only the ring was advanced (every tile
    /// quiescent, flits in flight), stepped or rotated in bulk.
    pub ring_only_cycles: u64,
    /// Span-engine cycles jumped over with nothing in flight (bulk
    /// bookkeeping, no stepping).
    pub skipped_cycles: u64,
    /// Span-engine DMA sends whose chain cascade was committed in closed
    /// form (chain fusion, [`GatewayPair::fused_sends`] summed over the
    /// gateways), traced or not; every other send took the wire. A full
    /// trace refuses only the cascades that would cross a sample point.
    pub fused_sends: u64,
    /// Lock-step observed cycles that read every FIFO's high-water mark:
    /// one per cycle in which a mark grew, the FIFO set changed or the
    /// tracer was replaced, not one per observed cycle. (The span engine
    /// reads the marks the FIFOs stamp instead.)
    pub high_water_scans: u64,
}

/// A complete simulated MPSoC.
pub struct System {
    /// The dual-ring interconnect.
    pub ring: DualRing<Sample>,
    /// Software FIFOs (indexed by [`FifoId`]).
    pub fifos: Vec<CFifo>,
    /// Accelerator tiles (indexed by [`AccelId`]).
    pub accels: Vec<AcceleratorTile>,
    /// Gateway pairs.
    pub gateways: Vec<GatewayPair>,
    /// Processor tiles.
    pub processors: Vec<ProcessorTile>,
    /// Event sink shared by all components (disabled by default; see
    /// [`System::enable_tracing`]).
    pub tracer: Tracer,
    /// Clock-advance strategy used by [`System::run`] /
    /// [`System::run_until`] ([`StepMode::EventDriven`] by default;
    /// [`System::step`] is always one exhaustive cycle).
    pub step_mode: StepMode,
    /// How the engine spent the simulated cycles so far.
    pub engine_stats: EngineStats,
    /// Last observed per-accelerator activity status (for change-driven
    /// trace emission).
    accel_active_seen: Vec<bool>,
    /// Counts high-water growths of every FIFO in `fifos` (attached by
    /// [`System::add_fifo`], or by [`System::observe`] to FIFOs pushed
    /// onto `fifos` directly).
    hwm_growth: HwmGrowth,
    cycle: u64,
}

/// Flattened hot state of the event-driven engine, rebuilt at the start of
/// every run (construction is O(tiles) and the vectors are reused across
/// iterations).
///
/// All per-tile quiescence horizons live in one struct-of-arrays `u64`
/// vector (`h`, laid out processors | gateways | accelerators), so the
/// global horizon is a single branch-free fold and per-kind dispatch is
/// an index-range check instead of an enum match. `acct` tracks, per
/// tile, the first cycle whose skip bookkeeping has *not* yet been
/// replayed: the engine defers `skip` calls and flushes them in bulk
/// right before a tile steps (and at run exit), which is exact because
/// every tile's bulk `skip(from, to)` is defined to equal the composition
/// of its single-cycle skips.
struct EngineHot {
    /// Cached per-tile horizons: `h[0..gw_base]` processors,
    /// `h[gw_base..acc_base]` gateways, `h[acc_base..]` accelerators.
    h: Vec<u64>,
    /// Per-tile bookkeeping watermark (same layout as `h`): cycles in
    /// `[acct[t], now)` still need their skip replayed on tile `t`.
    acct: Vec<u64>,
    gw_base: usize,
    acc_base: usize,
    /// (entry, exit) ring nodes per gateway, for delivery-wake checks.
    gw_nodes: Vec<(usize, usize)>,
    /// Accelerator index → gateways whose chain contains it (their drain
    /// horizons depend on this accelerator's state).
    owners: Vec<Vec<usize>>,
    /// Per accelerator seen active under a full trace: the cycle its
    /// activity ends by time passage alone (its drain flip), unless it is
    /// invoked first; `u64::MAX` otherwise.
    flips: Vec<u64>,
}

/// Per-run wiring of the span engine: FIFO watcher lists, per-tile
/// touched sets (flat tile indexing, as in [`EngineHot`]), and a version
/// snapshot of every C-FIFO for O(1) mutation detection after a span.
struct SpanWiring {
    /// `mask[t][f]`: some tile *other than* `t` reacts to mutations of
    /// FIFO `f` — tile `t`'s span must stop after mutating it so that
    /// watcher can be woken at a per-cycle-identical time. A tile's own
    /// watch never stops its span: its reaction is the span itself.
    /// Accelerator rows are empty (they never touch C-FIFOs).
    mask: Vec<Vec<bool>>,
    /// FIFO index → flat tile indices watching it.
    watchers: Vec<Vec<usize>>,
    /// Flat tile index → FIFO indices it may mutate.
    touched: Vec<Vec<usize>>,
    /// Last observed [`CFifo::version`] per FIFO.
    vers: Vec<u64>,
}

impl System {
    /// New system with a ring of `ring_nodes` stations.
    pub fn new(ring_nodes: usize) -> Self {
        System {
            ring: DualRing::new(ring_nodes),
            fifos: Vec::new(),
            accels: Vec::new(),
            gateways: Vec::new(),
            processors: Vec::new(),
            tracer: Tracer::disabled(),
            step_mode: StepMode::default(),
            engine_stats: EngineStats::default(),
            accel_active_seen: Vec::new(),
            hwm_growth: HwmGrowth::default(),
            cycle: 0,
        }
    }

    /// Turn on event recording. `sample_interval` is the period, in cycles,
    /// of FIFO-occupancy and ring-counter samples (0 records only spans,
    /// stalls and high-water marks). Call before running the simulation.
    pub fn enable_tracing(&mut self, sample_interval: u64) {
        self.tracer = Tracer::enabled(sample_interval);
    }

    /// Turn on profiling: structured tracing (as
    /// [`System::enable_tracing`]) plus the ring's per-hop crossing log and
    /// push-timestamp traces on every already-added C-FIFO — the raw
    /// material a `streamgate_core::profile::RunProfile` is folded from
    /// after the run. Call after construction, before the first
    /// [`System::step`].
    ///
    /// Every source is event-exact: the crossing log takes a hop committed
    /// in closed form by chain fusion at commit, with its crossing cycle,
    /// and the FIFOs log pushes where they happen, so profiled data is
    /// bit-identical between [`StepMode::Exhaustive`] and
    /// [`StepMode::EventDriven`] — the same contract the tracer upholds,
    /// with each hop's crossings equal once sorted — and a profiled run
    /// keeps chain fusion.
    pub fn enable_profiling(&mut self, sample_interval: u64) {
        self.enable_tracing(sample_interval);
        self.ring.enable_delivery_log();
        for f in &mut self.fifos {
            if !f.trace_enabled() {
                f.enable_trace();
            }
        }
    }

    /// Turn on the always-affordable flight recorder: the block-lifecycle
    /// and stall events of [`System::enable_tracing`], but only the most
    /// recent `capacity` are retained (see [`Tracer::flight_recorder`]).
    /// Running stall totals stay exact regardless of eviction. The span
    /// engine records for it only what its tiles emit as they commit —
    /// no observation, no reordering — so leaving it on costs almost
    /// nothing. That is the point: when a `Monitor` flags a violation
    /// mid-run, the recent history needed for a postmortem is already
    /// there.
    ///
    /// A no-op when a full trace (or profile) is already enabled: the
    /// complete log subsumes the recorder.
    pub fn enable_flight_recorder(&mut self, capacity: usize) {
        if !self.tracer.is_full() {
            self.tracer = Tracer::flight_recorder(capacity);
        }
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Add a C-FIFO; returns its id.
    pub fn add_fifo(&mut self, mut f: CFifo) -> FifoId {
        f.attach_growth(&self.hwm_growth);
        self.fifos.push(f);
        FifoId(self.fifos.len() - 1)
    }

    /// Add a C-FIFO *mid-run*, matching the tracing posture of the FIFOs
    /// already in the system ([`System::enable_profiling`] enables
    /// push-timestamp traces at construction time; a FIFO spliced in later
    /// must follow suit or the profile would silently miss it). Safe
    /// between [`System::run`] calls: the event engine rebuilds its wiring
    /// at the start of every run.
    pub fn splice_fifo(&mut self, mut f: CFifo) -> FifoId {
        if !f.trace_enabled() && self.fifos.iter().any(CFifo::trace_enabled) {
            f.enable_trace();
        }
        self.add_fifo(f)
    }

    /// Online-admission hook: append a stream to gateway `gateway`'s table
    /// at the current cycle (see [`GatewayPair::splice_stream`] for the
    /// config-bus accounting and the any-state safety argument). Call
    /// between [`System::run`] calls only.
    pub fn splice_stream(&mut self, gateway: usize, s: StreamConfig) -> usize {
        let now = self.cycle;
        self.gateways[gateway].splice_stream(s, &mut self.tracer, now)
    }

    /// Online-admission hook: remove stream `idx` from gateway `gateway`'s
    /// table (see [`GatewayPair::splice_out_stream`]; the pair must be
    /// idle). Call between [`System::run`] calls only.
    pub fn splice_out_stream(&mut self, gateway: usize, idx: usize) -> StreamConfig {
        let now = self.cycle;
        let (gws, accels, tracer) = (&mut self.gateways, &mut self.accels, &mut self.tracer);
        gws[gateway].splice_out_stream(idx, accels, tracer, now)
    }

    /// Retune hook, for a retune and a mode switch alike: replace stream
    /// `idx`'s table entry in place over the configuration bus, so the
    /// table keeps its order (see [`GatewayPair::retune_stream`]; the pair
    /// must be idle). Call between [`System::run`] calls only.
    pub fn retune_stream(&mut self, gateway: usize, idx: usize, s: StreamConfig) -> StreamConfig {
        let now = self.cycle;
        let (gws, accels, tracer) = (&mut self.gateways, &mut self.accels, &mut self.tracer);
        gws[gateway].retune_stream(idx, s, accels, tracer, now)
    }

    /// Add an accelerator tile; returns its id.
    pub fn add_accel(&mut self, a: AcceleratorTile) -> AccelId {
        self.accels.push(a);
        AccelId(self.accels.len() - 1)
    }

    /// Add a gateway pair; returns its index.
    pub fn add_gateway(&mut self, mut g: GatewayPair) -> usize {
        g.trace_id = self.gateways.len() as u32;
        self.gateways.push(g);
        self.gateways.len() - 1
    }

    /// Add a processor tile; returns its index.
    pub fn add_processor(&mut self, p: ProcessorTile) -> usize {
        self.processors.push(p);
        self.processors.len() - 1
    }

    /// Advance one clock cycle.
    pub fn step(&mut self) {
        let now = self.cycle;
        self.engine_stats.full_steps += 1;
        for p in &mut self.processors {
            p.step(&mut self.fifos, now);
        }
        for g in &mut self.gateways {
            g.step(
                &mut self.ring,
                &mut self.fifos,
                &mut self.accels,
                &mut self.tracer,
                now,
            );
        }
        for a in &mut self.accels {
            a.step(&mut self.ring, now);
        }
        self.ring.step();
        // System-level observation (accelerator activity, FIFO levels, ring
        // counters) — one branch per cycle when tracing is off.
        if self.tracer.is_enabled() {
            self.observe(now);
        }
        self.cycle += 1;
    }

    /// Record system-wide observations for cycle `now` (tracing enabled).
    /// Change-driven: accelerator activity and high-water marks are
    /// emitted only when they actually changed, which also makes skipped
    /// intervals (where state is provably frozen) observation-free.
    ///
    /// The FIFO marks are read only when something could have raised one
    /// past what the tracer reported: a push grew a mark (the FIFOs bump
    /// the system's growth counter), the number of FIFOs changed or one was
    /// dropped, or this tracer has not read this system's marks at the
    /// current count (it is new, or was swapped in). Otherwise every mark
    /// is at most what the tracer saw, so a read would emit nothing. The
    /// cost therefore follows the growths, not the number of FIFOs.
    fn observe(&mut self, now: u64) {
        if self.accel_active_seen.len() < self.accels.len() {
            self.accel_active_seen.resize(self.accels.len(), false);
        }
        for i in 0..self.accels.len() {
            let active = !self.accels[i].is_drained(now);
            if active != self.accel_active_seen[i] {
                self.accel_active_seen[i] = active;
                self.tracer.accel_edge(i, active, now);
            }
        }
        let nf = self.fifos.len();
        if !self
            .tracer
            .hwm_read()
            .is_some_and(|r| r.is_current(&self.hwm_growth, nf))
        {
            self.engine_stats.high_water_scans += 1;
            for (i, f) in self.fifos.iter_mut().enumerate() {
                f.attach_growth(&self.hwm_growth);
                self.tracer.fifo_high_water(i, f.high_water(), now);
            }
            self.tracer.set_hwm_read(HwmRead {
                growth: self.hwm_growth.clone(),
                count: self.hwm_growth.count(),
                fifos: nf,
            });
        }
        let interval = self.tracer.sample_interval();
        if interval > 0 && now.is_multiple_of(interval) {
            self.sample_counters(now);
        }
    }

    /// Emit one periodic `FifoLevel`-per-FIFO + `RingCounters` sample for
    /// cycle `now`.
    fn sample_counters(&mut self, now: u64) {
        for (i, f) in self.fifos.iter().enumerate() {
            let level = f.len() as u32;
            self.tracer.emit(|| TraceEvent::FifoLevel {
                fifo: i as u32,
                cycle: now,
                level,
            });
        }
        let (data, credit) = (&self.ring.stats[0], &self.ring.stats[1]);
        let (dd, ds, cd) = (data.delivered, data.injection_stalls, credit.delivered);
        self.tracer.emit(|| TraceEvent::RingCounters {
            cycle: now,
            data_delivered: dd,
            data_stalls: ds,
            credit_delivered: cd,
        });
    }

    /// Build the span engine's flattened hot state at the current cycle:
    /// static node/ownership maps plus a fresh horizon for every tile.
    fn hot_init(&self) -> EngineHot {
        let (np, ng, na) = (
            self.processors.len(),
            self.gateways.len(),
            self.accels.len(),
        );
        let now = self.cycle;
        let h = self
            .processors
            .iter()
            .map(|p| p.horizon(&self.fifos, now))
            .chain(
                self.gateways
                    .iter()
                    .map(|g| g.horizon(&self.fifos, &self.accels, now)),
            )
            .chain(self.accels.iter().map(|a| a.horizon(now)))
            .collect();
        let mut hot = EngineHot {
            h,
            acct: vec![now; np + ng + na],
            gw_base: np,
            acc_base: np + ng,
            gw_nodes: self
                .gateways
                .iter()
                .map(|g| (g.entry_node, g.exit_node))
                .collect(),
            owners: vec![Vec::new(); na],
            flips: vec![u64::MAX; na],
        };
        for (j, g) in self.gateways.iter().enumerate() {
            for &a in &g.chain {
                hot.owners[a.0].push(j);
            }
        }
        hot
    }

    /// Build the span engine's FIFO wiring: which FIFOs each tile watches
    /// (reacts to mutations of) and touches (may mutate), as flat watcher
    /// lists plus a version snapshot for cheap mutation detection. A
    /// processor task that cannot enumerate its FIFO accesses reports
    /// `None` and is wired conservatively to every FIFO.
    fn span_wiring(&self, hot: &EngineHot) -> SpanWiring {
        let nf = self.fifos.len();
        let all: Vec<usize> = (0..nf).collect();
        let mut watchers: Vec<Vec<usize>> = vec![Vec::new(); nf];
        let mut touched: Vec<Vec<usize>> = Vec::with_capacity(hot.h.len());
        for (i, p) in self.processors.iter().enumerate() {
            for &f in &p.watched_fifos().unwrap_or_else(|| all.clone()) {
                watchers[f].push(i);
            }
            touched.push(p.touched_fifos().unwrap_or_else(|| all.clone()));
        }
        for (j, g) in self.gateways.iter().enumerate() {
            for &f in &g.watched_fifos() {
                watchers[f].push(hot.gw_base + j);
            }
            touched.push(g.touched_fifos());
        }
        for _ in &self.accels {
            touched.push(Vec::new()); // accelerators never touch C-FIFOs
        }
        let mut mask: Vec<Vec<bool>> = Vec::with_capacity(hot.h.len());
        for t in 0..hot.h.len() {
            if t >= hot.acc_base {
                mask.push(Vec::new());
                continue;
            }
            let mut m = vec![false; nf];
            for (f, ws) in watchers.iter().enumerate() {
                m[f] = ws.iter().any(|&w| w != t);
            }
            mask.push(m);
        }
        SpanWiring {
            mask,
            watchers,
            touched,
            vers: self.fifos.iter().map(|f| f.version()).collect(),
        }
    }

    /// Window bound for invoking processor `t` at `now`: the span may
    /// commit actions in `[now, to)` because (a) no other tile acts before
    /// its cached horizon and (b) no ring flit is delivered before
    /// [`DualRing::next_delivery_bound`], so every FIFO a task reads keeps
    /// exactly the value per-cycle stepping would observe throughout the
    /// window. Processors need the full freeze: a task may sleep on any
    /// FIFO's state (`TaskWake::External`), and a delivery can cascade into
    /// a gateway mutating one mid-window otherwise.
    fn span_window_proc(&self, hot: &EngineHot, t: usize, now: u64, end: u64) -> u64 {
        let mut to = self.ring.next_delivery_bound().min(end);
        for (u, &v) in hot.h.iter().enumerate() {
            if u != t && v < to {
                to = v;
            }
        }
        to.max(now + 1)
    }

    /// Window bound for invoking a gateway at `now`: processor horizons
    /// only. Processors are the only other mutators of the FIFOs a gateway
    /// reads (other gateways touch disjoint FIFOs, accelerators touch
    /// none), so FIFO contents and space are frozen up to `to`. Ring
    /// deliveries inside the window need no bound: arrivals park at the NI
    /// and replay action-anchored on re-invocation, credit arrivals only
    /// add sending capacity (a send committed with credits > 0 is exact,
    /// and the negative decisions — DMA-credit stalls and shared-chain
    /// drain completion — are only ever committed on a fresh same-cycle
    /// poll). Shared-chain bookkeeping read from other gateways is
    /// immutable while a block is active: admission is per-cycle and gated
    /// on the chain being free.
    fn span_window_gw(&self, hot: &EngineHot, now: u64, end: u64) -> u64 {
        let mut to = end;
        for &v in &hot.h[..hot.gw_base] {
            if v < to {
                to = v;
            }
        }
        to.max(now + 1)
    }

    /// After tile `t` ran a span ending at `cover`, wake the watchers of
    /// every FIFO it mutated. The span contract stops a tile after the
    /// first cycle that mutated a watched FIFO, so all watched mutations
    /// happened at `cover - 1`; a watcher later in the flat order can
    /// still react that same cycle (it steps after the mutator in
    /// lock-step order), an earlier one reacts next cycle.
    fn wake_watchers(&self, hot: &mut EngineHot, wiring: &mut SpanWiring, t: usize, cover: u64) {
        let m = cover - 1;
        for fi in 0..wiring.touched[t].len() {
            let f = wiring.touched[t][fi];
            let v = self.fifos[f].version();
            if v == wiring.vers[f] {
                continue;
            }
            wiring.vers[f] = v;
            for wi in 0..wiring.watchers[f].len() {
                let w = wiring.watchers[f][wi];
                if w == t {
                    continue;
                }
                let wake = if w > t { m } else { m + 1 };
                // A gateway's committed-ahead actions are pop/push-paced and
                // cannot be altered by a new push, so clamping its wake to
                // its accounted cycle is exact; a processor's TDM schedule
                // makes an early wake a bug, hence the assert.
                debug_assert!(
                    w >= hot.gw_base || wake >= hot.acct[w],
                    "processor woken before its accounted cycle"
                );
                let wake = wake.max(hot.acct[w]);
                if wake < hot.h[w] {
                    hot.h[w] = wake;
                }
            }
        }
    }

    /// Decide, once per [`System::span_run`] entry, which gateways may
    /// commit closed-form cascades ([`GatewayPair::try_fused_send`]).
    /// Fusion needs every hop of the chain walk — entry→first accel,
    /// accel→accel, last accel→exit, and each credit return — at ring
    /// distance 1 (a distance-1 flit injects and ejects inside a single
    /// ring step, so phantom and real flits can never interact), and the
    /// gateway's stations disjoint from every pair streaming over a
    /// *different* chain (pairs sharing the chain are serialized by the
    /// chain mutex and the feed-equality gates). Observation does not
    /// enter into it: a fused cascade records what the per-cycle observer
    /// would have seen (see [`System::span_run`]).
    fn set_fusion_eligibility(&mut self) {
        let ng = self.gateways.len();
        let stations: Vec<Vec<usize>> = self
            .gateways
            .iter()
            .map(|g| {
                let mut s: Vec<usize> = g.chain.iter().map(|a| self.accels[a.0].node).collect();
                s.push(g.entry_node);
                s.push(g.exit_node);
                s
            })
            .collect();
        let flags: Vec<bool> = (0..ng)
            .map(|j| {
                let g = &self.gateways[j];
                if g.chain.is_empty() {
                    return false;
                }
                let mut prev = g.entry_node;
                let mut ok = true;
                for a in &g.chain {
                    let n = self.accels[a.0].node;
                    ok &= self.ring.data.distance(prev, n) == 1
                        && self.ring.credit.distance(n, prev) == 1;
                    prev = n;
                }
                ok &= self.ring.data.distance(prev, g.exit_node) == 1
                    && self.ring.credit.distance(g.exit_node, prev) == 1;
                if !ok {
                    return false;
                }
                (0..ng).all(|j2| {
                    j2 == j
                        || self.gateways[j2].chain == g.chain
                        || !stations[j].iter().any(|n| stations[j2].contains(n))
                })
            })
            .collect();
        for (g, f) in self.gateways.iter_mut().zip(flags) {
            g.fuse_ok = f;
        }
    }

    /// Read accelerator `k`'s activity as a lock-step observer sees it
    /// after the tile's step at `now`: report a change to the tracer and
    /// note the drain flip, the cycle its activity ends by time passage.
    /// Kept out of line, with [`System::take_fused_windows`]: only a full
    /// trace calls them, and inlined they slow the unobserved span loop.
    #[inline(never)]
    fn read_accel(&mut self, flips: &mut [u64], k: usize, now: u64) {
        let until = self.accels[k].active_until(now);
        let active = until.is_some();
        if active != self.accel_active_seen[k] {
            self.accel_active_seen[k] = active;
            self.tracer.accel_edge(k, active, now);
        }
        flips[k] = until.unwrap_or(u64::MAX);
    }

    /// Hand the activity windows accelerator `k`'s fused firings stamped to
    /// the tracer and the flip bookkeeping, in order: a window rising after
    /// the known activity's flip reports that fall first, one rising at the
    /// flip continues the activity (the lock-step observer sees no edge).
    #[inline(never)]
    fn take_fused_windows(&mut self, flips: &mut [u64], k: usize) {
        let (tracer, seen) = (&mut self.tracer, &mut self.accel_active_seen[k]);
        for (rise, fall) in self.accels[k].drain_fused() {
            if *seen && flips[k] < rise {
                tracer.accel_edge(k, false, flips[k]);
                *seen = false;
            }
            if !*seen {
                *seen = true;
                tracer.accel_edge(k, true, rise);
            }
            flips[k] = fall;
        }
    }

    /// The interval (span) engine: advance every tile across whole
    /// quiescence-free windows with closed-form arithmetic instead of
    /// per-cycle stepping, producing bit-identical counters, FIFO
    /// high-water marks, ring statistics and — under a full trace — event
    /// log.
    ///
    /// Exactness rests on three rules:
    /// 1. every window freezes the cross-tile state its tile actually
    ///    reads — the full FIFO/ring freeze for processors
    ///    ([`System::span_window_proc`]), processor horizons only for
    ///    gateways ([`System::span_window_gw`]), nothing for accelerators
    ///    — with every decision on possibly-stale ring state (credit
    ///    stalls, drain completion) committed only on a fresh same-cycle
    ///    poll;
    /// 2. tiles due the same cycle are processed in the lock-step flat
    ///    order (processors, gateways, accelerators), and a span stops
    ///    after mutating a FIFO another tile watches, so same-cycle
    ///    cascades replay exactly;
    /// 3. a delivered-but-unread flit parks until the owning tile's
    ///    accounted cycle — by then consuming it is schedule-anchored
    ///    (`busy_until`, paced send/copy pointers), so late absorption is
    ///    observationally identical to per-cycle polling.
    ///
    /// Under a full trace the run also observes what [`System::observe`]
    /// observes per cycle, each stamped by the component that changed:
    /// the tracer holds every emission and restores the lock-step order
    /// at the end ([`Tracer::release`]); FIFOs stamp their high-water
    /// growths; an accelerator's activity is read right after each
    /// invocation (and at the first cycle for one not due then), and an
    /// active one's drain flip is reported when it is next invoked or the
    /// run ends; a fused firing stamps its activity window on the
    /// accelerator, which the engine hands to the tracer in order right
    /// after the committing gateway's invocation; and the engine stands
    /// at the cycle after each sample point with nothing committed past
    /// it, as at a run end, to read FIFO levels and ring counters — so no
    /// fused cascade may cross a sample point either (its hops count in
    /// the ring statistics at once).
    fn span_run(&mut self, end: u64) {
        let start = self.cycle;
        if start >= end {
            return;
        }
        let mut hot = self.hot_init();
        let mut wiring = self.span_wiring(&hot);
        let (np, ng, na) = (
            self.processors.len(),
            self.gateways.len(),
            self.accels.len(),
        );
        self.set_fusion_eligibility();
        let fused0: u64 = self.gateways.iter().map(|g| g.fused_sends).sum();
        let observe = self.tracer.is_full();
        let interval = self.tracer.sample_interval();
        // The next sample point (none: `u64::MAX`); `stop` below is the
        // cycle the engine must stand at to read it, so processor and
        // gateway windows and clock jumps end there.
        let mut sample = u64::MAX;
        if observe {
            self.tracer.hold();
            for f in &mut self.fifos {
                f.log_growths(start);
            }
            for g in &mut self.gateways {
                g.rescan(&self.fifos);
            }
            self.accel_active_seen
                .resize(na.max(self.accel_active_seen.len()), false);
            for k in 0..na {
                self.accels[k].log_fused(true);
                // An accelerator not due at the first cycle changes nothing
                // a lock-step observer reads there: read it now, before a
                // gateway commits a fused firing on it ahead of the clock.
                let due = hot.h[hot.acc_base + k] <= start
                    || self.ring.data.rx_pending(self.accels[k].node) > 0;
                if !due {
                    self.read_accel(&mut hot.flips, k, start);
                }
            }
            if interval > 0 {
                sample = start.next_multiple_of(interval);
            }
        }
        let mut stop = end.min(sample.saturating_add(1));
        while self.cycle < end {
            let now = self.cycle;
            if now > sample {
                self.sample_counters(sample);
                sample = sample.saturating_add(interval);
                stop = end.min(sample.saturating_add(1));
            }
            // Fold delivery-wakes into the cached horizons: a gateway polls
            // a delivered flit immediately; an accelerator that committed
            // state ahead of the clock parks the flit until its accounted
            // cycle (consumes stay anchored on `busy_until`, so the late
            // poll is exact).
            for j in 0..ng {
                let (e, x) = hot.gw_nodes[j];
                if self.ring.data.rx_pending(e) > 0 || self.ring.data.rx_pending(x) > 0 {
                    let t = hot.gw_base + j;
                    hot.h[t] = hot.h[t].min(now);
                }
            }
            for k in 0..na {
                if self.ring.data.rx_pending(self.accels[k].node) > 0 {
                    let t = hot.acc_base + k;
                    hot.h[t] = hot.h[t].min(hot.acct[t].max(now));
                }
            }
            let mut acted = false;
            for i in 0..np {
                if hot.h[i] > now {
                    continue;
                }
                if hot.acct[i] < now {
                    self.processors[i].skip(hot.acct[i], now);
                    hot.acct[i] = now;
                }
                let to = self.span_window_proc(&hot, i, now, stop);
                let (cov, h2) =
                    self.processors[i].run_span(&mut self.fifos, now, to, &wiring.mask[i]);
                hot.acct[i] = hot.acct[i].max(cov);
                hot.h[i] = h2;
                self.wake_watchers(&mut hot, &mut wiring, i, cov);
                acted = true;
            }
            for j in 0..ng {
                let t = hot.gw_base + j;
                if hot.h[t] > now {
                    continue;
                }
                if hot.acct[t] < now {
                    self.gateways[j].skip(&mut self.tracer, hot.acct[t], now);
                    hot.acct[t] = now;
                }
                let to = self.span_window_gw(&hot, now, stop);
                // Fused cascades end by `stop`: every phantom event falls on
                // a cycle the run executes before its next sample point.
                let (cov, h2) = self.gateways[j].run_span(
                    &mut self.ring,
                    &mut self.fifos,
                    &mut self.accels,
                    &mut self.tracer,
                    now,
                    to,
                    stop,
                    &wiring.mask[t],
                );
                hot.acct[t] = hot.acct[t].max(cov);
                hot.h[t] = h2;
                if self.gateways[j].fuse_ok {
                    // Closed-form cascade commits advanced chain
                    // accelerators past the clock: clamp their
                    // accounted-through markers so the fused firings are
                    // never skip-replayed, and a flit parked for one is
                    // consumed exactly at its committed `busy_until`.
                    for ci in 0..self.gateways[j].chain.len() {
                        let k = self.gateways[j].chain[ci].0;
                        let ta = hot.acc_base + k;
                        if let Some(fc) = self.accels[k].settle_fused(hot.acct[ta]) {
                            hot.acct[ta] = hot.acct[ta].max(fc);
                            if observe {
                                self.take_fused_windows(&mut hot.flips, k);
                            }
                        }
                    }
                }
                self.wake_watchers(&mut hot, &mut wiring, t, cov);
                acted = true;
            }
            for k in 0..na {
                let t = hot.acc_base + k;
                if hot.h[t] > now {
                    continue;
                }
                if hot.acct[t] < now {
                    self.accels[k].skip(hot.acct[t], now);
                    hot.acct[t] = now;
                }
                if observe && hot.flips[k] < now {
                    // It went idle at its flip and stayed idle until now.
                    self.accel_active_seen[k] = false;
                    self.tracer.accel_edge(k, false, hot.flips[k]);
                }
                // An accelerator's window needs no bound at all: it reads
                // only its own NI state (arrivals park and replay anchored
                // on `busy_until`), forwards are held back unless credits
                // are positive on the committed view (arrivals only add),
                // and `covered` never claims past its last action.
                let (cov, h2) = self.accels[k].run_span(&mut self.ring, now, end);
                hot.acct[t] = hot.acct[t].max(cov);
                hot.h[t] = h2;
                if observe {
                    // Between invocations an accelerator's activity changes
                    // only on a delivery, which wakes it, at its drain
                    // flip, which is reported when it is next invoked or
                    // the run ends, or on a fused firing, which it stamps.
                    self.read_accel(&mut hot.flips, k, now);
                }
                // A drain-waiting gateway's horizon reads this accelerator's
                // state; refresh it for the next executable cycle.
                for oi in 0..hot.owners[k].len() {
                    let j = hot.owners[k][oi];
                    if self.gateways[j].horizon_tracks_accels() {
                        hot.h[hot.gw_base + j] =
                            self.gateways[j].horizon(&self.fifos, &self.accels, now + 1);
                    }
                }
                acted = true;
            }
            if acted {
                // Complete cycle `now` with its ring step, as the lock-step
                // order does after all tiles have stepped.
                self.engine_stats.full_steps += 1;
                self.ring.step();
                self.cycle = now + 1;
                continue;
            }
            // Nothing due at `now`: advance the clock to the next event.
            // Parked flits (see above) are already folded into `hot.h`.
            let mut nxt = stop;
            for &v in &hot.h {
                if v < nxt {
                    nxt = v;
                }
            }
            debug_assert!(nxt > now, "no tile due yet clock cannot advance");
            while self.cycle < nxt {
                let c = self.cycle;
                let rot = self.ring.rotation_steps();
                if rot == 0 {
                    let d0 = self.ring.stats[0].delivered;
                    self.ring.step();
                    self.cycle = c + 1;
                    self.engine_stats.ring_only_cycles += 1;
                    if self.ring.stats[0].delivered != d0 {
                        // A data flit landed: its owner may now be due.
                        break;
                    }
                } else {
                    let k = rot.min(nxt - c);
                    self.ring.skip(k);
                    self.cycle = c + k;
                    if rot == u64::MAX {
                        self.engine_stats.skipped_cycles += k;
                    } else {
                        self.engine_stats.ring_only_cycles += k;
                    }
                }
            }
        }
        if self.cycle > sample {
            self.sample_counters(sample);
        }
        // Replay the deferred bookkeeping of every tile up to the end.
        for i in 0..np {
            if hot.acct[i] < self.cycle {
                self.processors[i].skip(hot.acct[i], self.cycle);
            }
        }
        for j in 0..ng {
            let t = hot.gw_base + j;
            if hot.acct[t] < self.cycle {
                self.gateways[j].skip(&mut self.tracer, hot.acct[t], self.cycle);
            }
        }
        for k in 0..na {
            let t = hot.acc_base + k;
            if hot.acct[t] < self.cycle {
                self.accels[k].skip(hot.acct[t], self.cycle);
            }
        }
        self.engine_stats.fused_sends +=
            self.gateways.iter().map(|g| g.fused_sends).sum::<u64>() - fused0;
        if observe {
            for (k, &flip) in hot.flips.iter().enumerate() {
                self.accels[k].log_fused(false);
                if flip < self.cycle {
                    self.accel_active_seen[k] = false;
                    self.tracer.accel_edge(k, false, flip);
                }
            }
            for (i, f) in self.fifos.iter_mut().enumerate() {
                for (cycle, mark) in f.take_growths() {
                    self.tracer.fifo_high_water(i, mark, cycle);
                }
            }
            self.tracer.release();
        }
    }

    /// Run for `cycles` cycles in the configured [`StepMode`].
    pub fn run(&mut self, cycles: u64) {
        let end = self.cycle.saturating_add(cycles);
        match self.step_mode {
            StepMode::Exhaustive => {
                while self.cycle < end {
                    self.step();
                }
            }
            StepMode::EventDriven => self.span_run(end),
        }
    }

    /// Run until `pred(self)` holds or `max_cycles` elapse; returns `true`
    /// if the predicate fired.
    ///
    /// The predicate is evaluated at the top of every cycle, before the
    /// cycle runs, so it stops at the first cycle at which it holds —
    /// `run_until(max, |s| s.cycle() == k)` stops at exactly `k`. A
    /// closure can read anything, so nothing is skipped: both
    /// [`StepMode`]s step the lock-step loop of [`System::step`]. Prefer
    /// [`System::run`] for long stretches and a typed stop condition such
    /// as [`System::run_until_idle`], which runs the span engine up to a
    /// bound read from the state.
    pub fn run_until(&mut self, max_cycles: u64, mut pred: impl FnMut(&System) -> bool) -> bool {
        let end = self.cycle.saturating_add(max_cycles);
        while self.cycle < end {
            if pred(self) {
                return true;
            }
            self.step();
        }
        pred(self)
    }

    /// Run until gateway pair `gateway` is idle or `max_cycles` elapse;
    /// returns `true` if it fell idle. Stops at the same cycle, in the same
    /// state, as `run_until(max_cycles, |s| s.gateways[gateway].is_idle())`.
    ///
    /// The pair cannot be idle before [`GatewayPair::earliest_idle`], so
    /// the wait runs up to that bound as [`System::run`] does — on the span
    /// engine when event-driven — and steps the lock-step loop of
    /// [`System::run_until`], testing the pair, only for the rest (the
    /// drain of the in-flight block, a few cycles). The bounded stretch
    /// records what [`System::run`] records: under the flight recorder, no
    /// check-for-space idle windows (DESIGN §12).
    pub fn run_until_idle(&mut self, gateway: usize, max_cycles: u64) -> bool {
        let end = self.cycle.saturating_add(max_cycles);
        let bound = self.gateways[gateway].earliest_idle(self.cycle).min(end);
        if bound > self.cycle {
            self.run(bound - self.cycle);
        }
        self.run_until(end - self.cycle, |s| s.gateways[gateway].is_idle())
    }

    /// Utilisation of an accelerator (busy cycles / elapsed).
    pub fn accel_utilisation(&self, a: AccelId) -> f64 {
        if self.cycle == 0 {
            return 0.0;
        }
        self.accels[a.0].busy_cycles as f64 / self.cycle as f64
    }

    /// Close all open trace windows at the current cycle. Call after a run,
    /// before reading the complete event log.
    pub fn finish_trace(&mut self) {
        self.tracer.finish(self.cycle);
    }

    /// Entity names for labelling trace exports, mirroring this system's
    /// component indices.
    pub fn trace_names(&self) -> TraceNames {
        TraceNames {
            gateways: self.gateways.iter().map(|g| g.name.clone()).collect(),
            streams: self
                .gateways
                .iter()
                .map(|g| {
                    (0..g.num_streams())
                        .map(|i| g.stream(i).name.clone())
                        .collect()
                })
                .collect(),
            accels: self.accels.iter().map(|a| a.name.clone()).collect(),
            fifos: self.fifos.iter().map(|f| f.name.clone()).collect(),
        }
    }

    /// Finish the trace and render it in Chrome trace-event JSON
    /// (`chrome://tracing` / Perfetto). Empty log when tracing is disabled.
    pub fn chrome_trace_json(&mut self) -> String {
        self.finish_trace();
        trace::chrome_trace_json(self.tracer.events(), &self.trace_names())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateway::StreamConfig;
    use crate::processor::{RateSource, SinkTask};
    use crate::types::{PassthroughKernel, ScaleKernel};

    /// Build the canonical small system: source -> gw{1 accel} -> sink.
    fn build() -> (System, FifoId, FifoId) {
        // nodes: 0 entry, 1 accel, 2 exit, 3 processor.
        let mut sys = System::new(4);
        let input = sys.add_fifo(CFifo::new("in", 256));
        let output = sys.add_fifo(CFifo::new("out", 256));
        let acc = sys.add_accel(AcceleratorTile::new("acc", 1, 0, 10, 2, 11, 2, 1));
        let mut gw = GatewayPair::new("gw", 0, 2, vec![acc], 1, 10, 1, 11, 2, 2, 1);
        gw.add_stream(StreamConfig::new(
            "s0",
            input,
            output,
            16,
            16,
            20,
            vec![Box::new(ScaleKernel::new(2.0))],
        ));
        sys.add_gateway(gw);
        let mut pt = ProcessorTile::new("pt");
        pt.add_task(
            Box::new(RateSource::new(input.0, 4, Box::new(|k| (k as f64, 0.0)))),
            1,
        );
        pt.add_task(Box::new(SinkTask::new(output.0, 1)), 1);
        sys.add_processor(pt);
        (sys, input, output)
    }

    #[test]
    fn end_to_end_flow() {
        let (mut sys, _in, out) = build();
        sys.run(6000);
        let g = &sys.gateways[0];
        assert!(
            g.stream(0).blocks_done >= 2,
            "blocks {}",
            g.stream(0).blocks_done
        );
        // Output samples reached the sink (fifo drained by the sink task).
        assert!(sys.fifos[out.0].popped > 0 || !sys.fifos[out.0].is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let (mut a, _, _) = build();
        let (mut b, _, _) = build();
        a.run(3000);
        b.run(3000);
        assert_eq!(a.gateways[0].blocks.len(), b.gateways[0].blocks.len());
        for (x, y) in a.gateways[0].blocks.iter().zip(&b.gateways[0].blocks) {
            assert_eq!(x.start, y.start);
            assert_eq!(x.drain_end, y.drain_end);
        }
    }

    #[test]
    fn utilisation_reported() {
        let (mut sys, ..) = build();
        sys.run(6000);
        let u = sys.accel_utilisation(AccelId(0));
        assert!(u > 0.0 && u < 1.0, "utilisation {u}");
    }

    #[test]
    fn run_until_predicate() {
        let (mut sys, ..) = build();
        let hit = sys.run_until(100_000, |s| s.gateways[0].stream(0).blocks_done >= 1);
        assert!(hit);
        assert!(sys.cycle() < 100_000);
    }

    #[test]
    fn run_until_selective_loop_matches_exhaustive() {
        // run_until must stop at the exact cycle the exhaustive reference
        // does on the event engine too, for predicates firing at different
        // points of the block schedule.
        for target in [1u64, 2, 3] {
            let (mut ev, ..) = build();
            let (mut ex, ..) = build();
            ev.step_mode = StepMode::EventDriven;
            ex.step_mode = StepMode::Exhaustive;
            let p = move |s: &System| s.gateways[0].stream(0).blocks_done >= target;
            let hit_ev = ev.run_until(100_000, p);
            let hit_ex = ex.run_until(100_000, p);
            assert_eq!(hit_ev, hit_ex, "verdicts differ for target {target}");
            assert_eq!(
                ev.cycle(),
                ex.cycle(),
                "stop cycle differs for target {target}"
            );
            assert_eq!(ev.gateways[0].blocks.len(), ex.gateways[0].blocks.len());
            // A closure can read anything, so neither engine skips a cycle
            // it has to evaluate: both step the same lock-step loop.
            assert_eq!(
                ev.engine_stats, ex.engine_stats,
                "run_until left the lock-step loop for target {target}"
            );
        }
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        // Tracing is pure observation: block schedules must be identical
        // with and without it.
        let (mut plain, ..) = build();
        let (mut traced, ..) = build();
        traced.enable_tracing(64);
        plain.run(6000);
        traced.run(6000);
        assert_eq!(
            plain.gateways[0].blocks.len(),
            traced.gateways[0].blocks.len()
        );
        for (x, y) in plain.gateways[0]
            .blocks
            .iter()
            .zip(&traced.gateways[0].blocks)
        {
            assert_eq!(
                (x.start, x.stream_end, x.drain_end),
                (y.start, y.stream_end, y.drain_end)
            );
        }
        assert!(plain.tracer.is_empty());
        assert!(!traced.tracer.is_empty());
    }

    #[test]
    fn chrome_export_contains_system_entities() {
        let (mut sys, ..) = build();
        sys.enable_tracing(128);
        sys.run(6000);
        let json = sys.chrome_trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("gw"), "gateway process name present");
        assert!(json.contains("s0"), "stream thread name present");
        assert!(json.contains("acc"), "accelerator span present");
        assert!(json.contains("\"ph\":\"C\""), "counter samples present");
    }

    #[test]
    fn passthrough_preserves_values_in_order() {
        let mut sys = System::new(4);
        let input = sys.add_fifo(CFifo::new("in", 64));
        let output = sys.add_fifo(CFifo::new("out", 64));
        let acc = sys.add_accel(AcceleratorTile::new("acc", 1, 0, 10, 2, 11, 2, 1));
        let mut gw = GatewayPair::new("gw", 0, 2, vec![acc], 1, 10, 1, 11, 2, 3, 1);
        gw.add_stream(StreamConfig::new(
            "s0",
            input,
            output,
            8,
            8,
            10,
            vec![Box::new(PassthroughKernel)],
        ));
        sys.add_gateway(gw);
        for k in 0..8 {
            sys.fifos[input.0].try_push((k as f64, -(k as f64)), 0);
        }
        sys.run_until(10_000, |s| s.fifos[output.0].len() == 8);
        for k in 0..8 {
            assert_eq!(sys.fifos[output.0].pop(), Some((k as f64, -(k as f64))));
        }
    }
}
