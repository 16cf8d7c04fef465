//! Whole-system composition: ring + tiles, advanced by the simulation
//! engine.
//!
//! [`System`] owns the dual ring, the C-FIFOs, the accelerator tiles, the
//! gateway pairs and the processor tiles. The step order within a cycle —
//! processors, gateways, accelerators, then the ring — is fixed and
//! documented so runs are deterministic.
//!
//! Two [`StepMode`]s drive the clock:
//!
//! * [`StepMode::Exhaustive`] — the lock-step reference: every component
//!   is stepped every cycle.
//! * [`StepMode::EventDriven`] (the default) — after each real step the
//!   engine asks every component for its *quiescence horizon* (the
//!   earliest future cycle at which it could do more than skip-replayable
//!   bookkeeping, absent external input) and jumps the clock straight to
//!   the minimum, replaying the skipped interval's accounting in bulk
//!   (`skip` on each component). When only the *ring* blocks a jump
//!   (flits in flight while every tile is quiescent) the ring is advanced
//!   alone — cheap ring-only steps plus bulk rotations — until the next
//!   delivery wakes a tile. Whenever a tile reports "now" the engine
//!   degenerates to single-cycle stepping, so the two modes are
//!   cycle-exact equivalents: identical block schedules, FIFO contents,
//!   counters and trace logs.

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
    /// Jump over provably-quiescent intervals (cycle-exact, much faster
    /// on workloads with idle or rate-limited phases).
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

/// How the event-driven engine spent the simulated cycles (the first three
/// counters sum to the cycles run), plus the observation work done while
/// tracing. Useful for validating that a workload actually benefits from
/// time-skipping and for benchmark reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Cycles on which at least one tile acted: full lock-step steps in
    /// the per-cycle engine, tile-invocation cycles in the span engine
    /// (which touches only the tiles actually due that cycle).
    pub full_steps: u64,
    /// Cycles where only the ring was advanced (every tile quiescent).
    pub ring_only_cycles: u64,
    /// Cycles jumped over entirely (bulk bookkeeping, no stepping).
    pub skipped_cycles: u64,
    /// Observed cycles that read every FIFO's high-water mark: one per
    /// cycle in which a mark grew, the FIFO set changed or the tracer was
    /// replaced, not one per observed cycle.
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
    /// Scratch: accelerators stepped in the current span cycle.
    stepped: Vec<usize>,
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

impl EngineHot {
    /// Minimum cached horizon over processors and gateways only.
    fn pg_min(&self) -> u64 {
        self.h[..self.acc_base]
            .iter()
            .fold(u64::MAX, |m, &v| m.min(v))
    }

    /// Minimum cached horizon over every tile.
    fn tile_min(&self) -> u64 {
        self.h.iter().fold(u64::MAX, |m, &v| m.min(v))
    }
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
    /// [`System::enable_tracing`]) plus the ring's per-delivery log and
    /// push-timestamp traces on every already-added C-FIFO — the raw
    /// material a `streamgate_core::profile::RunProfile` is folded from
    /// after the run. Call after construction, before the first
    /// [`System::step`].
    ///
    /// Every source is either event-exact or append-only at ejection/push
    /// sites that the event-driven engine's ring skips never touch, so
    /// profiled data is bit-identical between [`StepMode::Exhaustive`] and
    /// [`StepMode::EventDriven`] — the same contract the tracer upholds.
    pub fn enable_profiling(&mut self, sample_interval: u64) {
        self.enable_tracing(sample_interval);
        self.ring.enable_delivery_log();
        for f in &mut self.fifos {
            if !f.trace_enabled() {
                f.enable_trace();
            }
        }
    }

    /// Turn on the always-affordable flight recorder: the same structured
    /// events as [`System::enable_tracing`], but only the most recent
    /// `capacity` are retained (see [`Tracer::flight_recorder`]). Running
    /// stall totals stay exact regardless of eviction. Unlike full
    /// tracing, the recorder keeps the event-driven engine on its
    /// closed-form span path, so leaving it on costs almost nothing —
    /// that is the point: when a `Monitor` flags a violation mid-run, the
    /// recent history needed for a postmortem is already there.
    ///
    /// A no-op when a full trace (or profile) is already enabled: the
    /// complete log subsumes the recorder.
    pub fn enable_flight_recorder(&mut self, capacity: usize) {
        if !self.tracer.is_full() {
            self.tracer = Tracer::flight_recorder(0, capacity);
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

    /// Mode-switch hook: replace stream `idx`'s table entry in place over
    /// the configuration bus (see [`GatewayPair::retune_stream`]; the pair
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

    /// Recompute the cached horizon of processor `i` for the current cycle.
    fn recompute_proc(&self, hot: &mut EngineHot, i: usize) {
        hot.h[i] = self.processors[i].horizon(&self.fifos, self.cycle);
    }

    /// Recompute the cached horizon of gateway `j` for the current cycle.
    fn recompute_gw(&self, hot: &mut EngineHot, j: usize) {
        hot.h[hot.gw_base + j] = self.gateways[j].horizon(&self.fifos, &self.accels, self.cycle);
    }

    /// Recompute the cached horizon of accelerator `k` for the current
    /// cycle, including the drain-flip pin: drain flips happen by pure
    /// time passage and are invisible to `horizon`; when tracing they are
    /// observation events and the flip cycle must be stepped (see
    /// [`System::observe`]).
    fn recompute_acc(&self, hot: &mut EngineHot, k: usize) {
        let next = self.cycle;
        let a = &self.accels[k];
        let mut v = a.horizon(next);
        if self.tracer.is_enabled() && self.accel_active_seen.get(k).copied().unwrap_or(false) {
            v = v.min(a.drain_cycle(next));
        }
        hot.h[hot.acc_base + k] = v;
    }

    /// Build the event engine's flattened hot state at the current cycle:
    /// static node/ownership maps plus a fresh horizon for every tile.
    fn hot_init(&self) -> EngineHot {
        let (np, ng, na) = (
            self.processors.len(),
            self.gateways.len(),
            self.accels.len(),
        );
        let mut hot = EngineHot {
            h: vec![u64::MAX; np + ng + na],
            acct: vec![self.cycle; np + ng + na],
            gw_base: np,
            acc_base: np + ng,
            gw_nodes: self
                .gateways
                .iter()
                .map(|g| (g.entry_node, g.exit_node))
                .collect(),
            owners: vec![Vec::new(); na],
            stepped: Vec::with_capacity(na),
        };
        for (j, g) in self.gateways.iter().enumerate() {
            for &a in &g.chain {
                hot.owners[a.0].push(j);
            }
        }
        for i in 0..np {
            self.recompute_proc(&mut hot, i);
        }
        for j in 0..ng {
            self.recompute_gw(&mut hot, j);
        }
        for k in 0..na {
            self.recompute_acc(&mut hot, k);
        }
        hot
    }

    /// Replay deferred processor bookkeeping up to `to` (exclusive).
    /// Processor skips are independent of FIFO state, so they can be
    /// deferred arbitrarily and replayed in bulk.
    fn flush_procs(&mut self, hot: &mut EngineHot, to: u64) {
        for i in 0..self.processors.len() {
            if hot.acct[i] < to {
                self.processors[i].skip(hot.acct[i], to);
                hot.acct[i] = to;
            }
        }
    }

    /// Replay deferred gateway bookkeeping up to `to` (exclusive). Exact
    /// only while the C-FIFOs still hold the deferred interval's state:
    /// gateway stall attribution reads them, so this must run before any
    /// processor or gateway steps again (the engine flushes at the top of
    /// every `pg_cycle`, and per cycle/chunk when tracing so stall events
    /// keep the exhaustive order).
    fn flush_gws(&mut self, hot: &mut EngineHot, to: u64) {
        for j in 0..self.gateways.len() {
            let t = hot.gw_base + j;
            if hot.acct[t] < to {
                self.gateways[j].skip(&self.fifos, &mut self.tracer, hot.acct[t], to);
                hot.acct[t] = to;
            }
        }
    }

    /// Replay deferred accelerator bookkeeping up to `to` (exclusive).
    fn flush_accels(&mut self, hot: &mut EngineHot, to: u64) {
        for k in 0..self.accels.len() {
            let t = hot.acc_base + k;
            if hot.acct[t] < to {
                self.accels[k].skip(hot.acct[t], to);
                hot.acct[t] = to;
            }
        }
    }

    /// Replay all deferred bookkeeping up to `to` (exclusive), in the
    /// exhaustive component order.
    fn flush_all(&mut self, hot: &mut EngineHot, to: u64) {
        self.flush_procs(hot, to);
        self.flush_gws(hot, to);
        self.flush_accels(hot, to);
    }

    /// Execute one cycle on the processor/gateway path: step exactly the
    /// tiles that can act, account the rest. The cycle-exactness argument
    /// is the same as the original selective step: a tile steps when its
    /// cached horizon has arrived or a ring delivery awaits it, and once
    /// any processor or gateway steps, every later processor/gateway
    /// steps too (`cascade`) because it may read a C-FIFO the earlier
    /// tile wrote this same cycle. Accelerators talk only through the
    /// ring (one-cycle latency), so each is decided independently.
    ///
    /// Since this is the only place C-FIFOs or chain configurations can
    /// change, every cached horizon is refreshed afterwards.
    fn pg_cycle(&mut self, hot: &mut EngineHot) {
        let now = self.cycle;
        self.engine_stats.full_steps += 1;
        // Deferred gateway accounting must be replayed against the
        // interval's frozen FIFO state, before this cycle's steps mutate
        // it.
        self.flush_gws(hot, now);
        let mut cascade = false;
        for i in 0..self.processors.len() {
            if cascade || hot.h[i] <= now {
                if hot.acct[i] < now {
                    self.processors[i].skip(hot.acct[i], now);
                }
                self.processors[i].step(&mut self.fifos, now);
                hot.acct[i] = now + 1;
                cascade = true;
            }
            // Non-stepping processors stay deferred (FIFO-independent).
        }
        for j in 0..self.gateways.len() {
            let t = hot.gw_base + j;
            let must = cascade
                || hot.h[t] <= now
                || self.ring.rx_pending(self.gateways[j].exit_node) > 0
                || self.ring.rx_pending(self.gateways[j].entry_node) > 0;
            if must {
                let g = &mut self.gateways[j];
                g.step(
                    &mut self.ring,
                    &mut self.fifos,
                    &mut self.accels,
                    &mut self.tracer,
                    now,
                );
                cascade = true;
            } else {
                // Account immediately at the exhaustive loop position:
                // the admission scan sees the FIFOs exactly as the
                // lock-step reference would (post earlier steppers).
                self.gateways[j].skip(&self.fifos, &mut self.tracer, now, now + 1);
            }
            hot.acct[t] = now + 1;
        }
        for k in 0..self.accels.len() {
            let t = hot.acc_base + k;
            if hot.h[t] <= now || self.ring.rx_pending(self.accels[k].node) > 0 {
                if hot.acct[t] < now {
                    self.accels[k].skip(hot.acct[t], now);
                }
                self.accels[k].step(&mut self.ring, now);
                hot.acct[t] = now + 1;
            }
        }
        self.ring.step();
        if self.tracer.is_enabled() {
            self.observe(now);
        }
        self.cycle = now + 1;
        // Processor horizons are computed from `pos_in_period`, which is
        // only meaningful when the tile's accounting is current — replay
        // any deferred slots before refreshing.
        self.flush_procs(hot, self.cycle);
        for i in 0..self.processors.len() {
            self.recompute_proc(hot, i);
        }
        for j in 0..self.gateways.len() {
            self.recompute_gw(hot, j);
        }
        for k in 0..self.accels.len() {
            self.recompute_acc(hot, k);
        }
    }

    /// Replay a batched span of adjacent-hop deliveries: while every
    /// processor and gateway is provably quiescent and no flit waits at a
    /// gateway node, only the acting accelerators and the ring are
    /// stepped — the k flits of a multi-hop cascade are delivered in one
    /// replayed span instead of one full-system wakeup per cycle.
    /// Accelerators never touch C-FIFOs, so processor/gateway horizons
    /// stay valid throughout; a stepped accelerator invalidates only its
    /// own horizon and those of the gateways whose chain contains it
    /// (which can pull the span end in, e.g. when a drain completes).
    /// The span ends at the earliest processor/gateway horizon, or as
    /// soon as a delivery lands at a node no accelerator polls. Returns
    /// `true` if the clock advanced.
    fn accel_span(&mut self, hot: &mut EngineHot, end: u64) -> bool {
        let start = self.cycle;
        let mut span_end = hot.pg_min().min(end);
        let traced = self.tracer.is_enabled();
        while self.cycle < span_end {
            let now = self.cycle;
            if self.ring.any_data_rx_pending()
                && hot
                    .gw_nodes
                    .iter()
                    .any(|&(e, x)| self.ring.rx_pending(e) > 0 || self.ring.rx_pending(x) > 0)
            {
                break; // delivery for a gateway: pg path must run next
            }
            let mut acted = false;
            for k in 0..self.accels.len() {
                let t = hot.acc_base + k;
                if hot.h[t] <= now || self.ring.rx_pending(self.accels[k].node) > 0 {
                    if hot.acct[t] < now {
                        self.accels[k].skip(hot.acct[t], now);
                    }
                    self.accels[k].step(&mut self.ring, now);
                    hot.acct[t] = now + 1;
                    hot.stepped.push(k);
                    acted = true;
                }
            }
            if acted {
                if traced {
                    // Per-cycle gateway accounting keeps stall events in
                    // the exhaustive order relative to observations.
                    self.flush_gws(hot, now + 1);
                }
                self.ring.step();
                self.engine_stats.full_steps += 1;
                if traced {
                    self.observe(now);
                }
                self.cycle = now + 1;
                for si in 0..hot.stepped.len() {
                    let k = hot.stepped[si];
                    self.recompute_acc(hot, k);
                    for oi in 0..hot.owners[k].len() {
                        let j = hot.owners[k][oi];
                        // A stepped accelerator can only move a gateway
                        // horizon through the `Draining` arm (the one
                        // state where the horizon reads accel state) —
                        // everywhere else the cached value stays exact.
                        if self.gateways[j].horizon_tracks_accels() {
                            self.recompute_gw(hot, j);
                            span_end = span_end.min(hot.h[hot.gw_base + j]);
                        }
                    }
                }
                hot.stepped.clear();
                if traced {
                    // Observation state (activity edges) may have moved
                    // drain-flip pins; keep every accel horizon exact.
                    for k in 0..self.accels.len() {
                        self.recompute_acc(hot, k);
                    }
                }
            } else if self.ring.any_data_rx_pending() {
                break; // flit parked at a node nobody here polls
            } else {
                let idle = self.ring.idle_steps();
                if idle == 0 {
                    // Backlogged injection or imminent ejection: the ring
                    // must step this cycle, alone.
                    if traced {
                        self.flush_gws(hot, now + 1);
                    }
                    self.ring.step();
                    self.engine_stats.ring_only_cycles += 1;
                    self.cycle = now + 1;
                    if traced {
                        self.sample_range(now, now + 1);
                    }
                } else {
                    // Nothing acts until the next accel horizon, the span
                    // end, or the ring's next non-trivial cycle: jump.
                    let next_acc = hot.h[hot.acc_base..]
                        .iter()
                        .fold(u64::MAX, |m, &v| m.min(v));
                    let to = span_end.min(next_acc).min(now.saturating_add(idle));
                    let k = to - now;
                    self.ring.skip(k);
                    if idle == u64::MAX {
                        self.engine_stats.skipped_cycles += k;
                    } else {
                        self.engine_stats.ring_only_cycles += k;
                    }
                    self.cycle = to;
                    if traced {
                        self.flush_gws(hot, to);
                        self.sample_range(now, to);
                    }
                }
            }
        }
        self.cycle > start
    }

    /// Jump the clock from `self.cycle` to `target`. Valid only when
    /// `target` does not exceed the minimum of the tile and ring
    /// horizons: the interval is provably quiescent, so counters, stall
    /// attribution and periodic trace samples come out exactly as if each
    /// cycle had been stepped. Untraced tile bookkeeping is deferred to
    /// the next flush point.
    fn event_skip_to(&mut self, hot: &mut EngineHot, target: u64) {
        let from = self.cycle;
        debug_assert!(target > from);
        self.engine_stats.skipped_cycles += target - from;
        self.ring.skip(target - from);
        if self.tracer.is_enabled() {
            // Stall-window events for the interval precede its periodic
            // counter samples, as in the exhaustive order.
            self.flush_gws(hot, target);
            self.sample_range(from, target);
        }
        self.cycle = target;
    }

    /// Emit the periodic counter samples for every sample point in
    /// `[from, to)`. Exact whenever FIFO contents and ring counters hold
    /// their cycle-`from` values across the interval (frozen tiles; ring
    /// at most rotating in-flight flits).
    fn sample_range(&mut self, from: u64, to: u64) {
        let interval = self.tracer.sample_interval();
        if interval == 0 {
            return;
        }
        let mut m = from.next_multiple_of(interval);
        while m < to {
            self.sample_counters(m);
            m += interval;
        }
    }

    /// Fast-forward an interval during which only the *ring* has work:
    /// every tile is quiescent until `target`, so instead of full-system
    /// steps the ring alone is stepped (or bulk-rotated over pure-transit
    /// stretches). Stops early at the first delivery (a flit landing in
    /// an RX queue), since the owning tile must be stepped from the next
    /// cycle on to poll it. Untraced tile bookkeeping is deferred; when
    /// tracing, gateways are accounted chunk-wise so stall events keep
    /// the exhaustive order relative to periodic samples.
    fn event_ring_forward(&mut self, hot: &mut EngineHot, target: u64) {
        let from = self.cycle;
        let mut t = from;
        let traced = self.tracer.is_enabled();
        while t < target && !self.ring.any_data_rx_pending() {
            let idle = self.ring.idle_steps();
            if idle == u64::MAX {
                break; // ring drained entirely; the outer loop skips on
            }
            let t2 = if idle == 0 {
                self.ring.step();
                t + 1
            } else {
                let k = idle.min(target - t);
                self.ring.skip(k);
                t + k
            };
            if traced {
                self.flush_gws(hot, t2);
                self.sample_range(t, t2);
            }
            t = t2;
        }
        self.engine_stats.ring_only_cycles += t - from;
        self.cycle = t;
    }

    /// The event-driven engine: one loop serving both [`System::run`]
    /// (`pred == None`) and [`System::run_until`]. Each iteration jumps
    /// over the provably-quiescent interval (if any), then executes
    /// either a batched accelerator span or a single processor/gateway
    /// cycle. With a predicate, spans are disabled and all deferred
    /// bookkeeping is flushed before every evaluation, so the predicate
    /// observes exactly the lock-step per-cycle state.
    fn event_run(&mut self, end: u64, mut pred: Option<&mut dyn FnMut(&System) -> bool>) -> bool {
        let mut hot = self.hot_init();
        while self.cycle < end {
            if let Some(p) = pred.as_deref_mut() {
                self.flush_all(&mut hot, self.cycle);
                if p(self) {
                    return true;
                }
            }
            let hc = hot.tile_min();
            let hr = self.cycle.saturating_add(self.ring.idle_steps());
            let h = hc.min(hr).min(end);
            if h > self.cycle {
                self.event_skip_to(&mut hot, h);
            } else if hc > self.cycle {
                // Only the ring is busy: advance it alone.
                self.event_ring_forward(&mut hot, hc.min(end));
            }
            if self.cycle >= end {
                break;
            }
            let now = self.cycle;
            let pg_due = hot.pg_min() <= now
                || hot
                    .gw_nodes
                    .iter()
                    .any(|&(e, x)| self.ring.rx_pending(e) > 0 || self.ring.rx_pending(x) > 0);
            if !pg_due && pred.is_none() && self.accel_span(&mut hot, end) {
                continue;
            }
            self.pg_cycle(&mut hot);
        }
        self.flush_all(&mut hot, self.cycle);
        match pred {
            Some(p) => p(self),
            None => false,
        }
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
    /// ring step, so phantom and real flits can never interact), the
    /// delivery log off (fused hops bypass it), and the gateway's
    /// stations disjoint from every pair streaming over a *different*
    /// chain (pairs sharing the chain are serialized by the chain mutex
    /// and the feed-equality gates).
    fn set_fusion_eligibility(&mut self) {
        let ng = self.gateways.len();
        let log_off = self.ring.delivery_log().is_none();
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
                if !log_off || g.chain.is_empty() {
                    return false;
                }
                let mut prev = g.entry_node;
                let mut ok = true;
                for a in &g.chain {
                    let n = self.accels[a.0].node;
                    ok &= self.ring.data_distance(prev, n) == 1
                        && self.ring.credit_distance(n, prev) == 1;
                    prev = n;
                }
                ok &= self.ring.data_distance(prev, g.exit_node) == 1
                    && self.ring.credit_distance(g.exit_node, prev) == 1;
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

    /// The interval (span) engine: advance every tile across whole
    /// quiescence-free windows with closed-form arithmetic instead of
    /// per-cycle stepping, producing bit-identical counters, FIFO
    /// high-water marks and ring statistics. Used for untraced
    /// event-driven runs without a predicate; tracing and predicates
    /// fall back to [`System::event_run`], whose per-cycle observation
    /// points they need.
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
    fn span_run(&mut self, end: u64) {
        let mut hot = self.hot_init();
        let mut wiring = self.span_wiring(&hot);
        let (np, ng, na) = (
            self.processors.len(),
            self.gateways.len(),
            self.accels.len(),
        );
        self.set_fusion_eligibility();
        while self.cycle < end {
            let now = self.cycle;
            // Fold delivery-wakes into the cached horizons: a gateway polls
            // a delivered flit immediately; an accelerator that committed
            // state ahead of the clock parks the flit until its accounted
            // cycle (consumes stay anchored on `busy_until`, so the late
            // poll is exact).
            for j in 0..ng {
                let (e, x) = hot.gw_nodes[j];
                if self.ring.rx_pending(e) > 0 || self.ring.rx_pending(x) > 0 {
                    let t = hot.gw_base + j;
                    hot.h[t] = hot.h[t].min(now);
                }
            }
            for k in 0..na {
                if self.ring.rx_pending(self.accels[k].node) > 0 {
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
                let to = self.span_window_proc(&hot, i, now, end);
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
                    self.gateways[j].skip_quiet(hot.acct[t], now);
                    hot.acct[t] = now;
                }
                let to = self.span_window_gw(&hot, now, end);
                let (cov, h2) = self.gateways[j].run_span(
                    &mut self.ring,
                    &mut self.fifos,
                    &mut self.accels,
                    &mut self.tracer,
                    now,
                    to,
                    end,
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
                    for a in &self.gateways[j].chain {
                        let ta = hot.acc_base + a.0;
                        let fc = self.accels[a.0].fused_covered();
                        if hot.acct[ta] < fc {
                            hot.acct[ta] = fc;
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
                // An accelerator's window needs no bound at all: it reads
                // only its own NI state (arrivals park and replay anchored
                // on `busy_until`), forwards are held back unless credits
                // are positive on the committed view (arrivals only add),
                // and `covered` never claims past its last action.
                let (cov, h2) = self.accels[k].run_span(&mut self.ring, now, end);
                hot.acct[t] = hot.acct[t].max(cov);
                hot.h[t] = h2;
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
            let mut nxt = end;
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
        // Replay the deferred bookkeeping of every tile up to the end.
        for i in 0..np {
            if hot.acct[i] < self.cycle {
                self.processors[i].skip(hot.acct[i], self.cycle);
            }
        }
        for j in 0..ng {
            let t = hot.gw_base + j;
            if hot.acct[t] < self.cycle {
                self.gateways[j].skip_quiet(hot.acct[t], self.cycle);
            }
        }
        for k in 0..na {
            let t = hot.acc_base + k;
            if hot.acct[t] < self.cycle {
                self.accels[k].skip(hot.acct[t], self.cycle);
            }
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
            StepMode::EventDriven => {
                // Only a *full* trace needs the per-event engine (periodic
                // samples, accelerator edges, exact fused-send bookkeeping).
                // The flight recorder rides the closed-form span path, which
                // emits the same block-lifecycle and stall events — that is
                // what keeps an always-on recorder near-free.
                if self.tracer.is_full() {
                    self.event_run(end, None);
                } else {
                    self.span_run(end);
                }
            }
        }
    }

    /// Run until `pred(self)` holds or `max_cycles` elapse; returns `true`
    /// if the predicate fired.
    ///
    /// The predicate is evaluated before every *executed* cycle. In
    /// event-driven mode state is frozen across skipped intervals, so a
    /// predicate over system state fires at the same cycle in both modes;
    /// a predicate reading [`System::cycle`] itself may observe the clock
    /// jumping over its trigger value.
    pub fn run_until(&mut self, max_cycles: u64, mut pred: impl FnMut(&System) -> bool) -> bool {
        let end = self.cycle.saturating_add(max_cycles);
        match self.step_mode {
            StepMode::Exhaustive => {
                while self.cycle < end {
                    if pred(self) {
                        return true;
                    }
                    self.step();
                }
                pred(self)
            }
            StepMode::EventDriven => self.event_run(end, Some(&mut pred)),
        }
    }

    /// Run until gateway pair `gateway` is idle or `max_cycles` elapse;
    /// returns `true` if it fell idle. Stops at the same cycle, in the same
    /// state, as `run_until(max_cycles, |s| s.gateways[gateway].is_idle())`.
    ///
    /// The pair cannot be idle before [`GatewayPair::earliest_idle`], so
    /// the wait runs up to that bound as [`System::run`] does — event-driven,
    /// on the span engine unless a full trace is on — and steps per cycle,
    /// testing the pair, only for the rest (the drain of the in-flight
    /// block). The bounded stretch records what [`System::run`] records:
    /// under the flight recorder, no check-for-space idle windows (DESIGN
    /// §12).
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
        let mut pt = ProcessorTile::new("pt", 3);
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
        // The event-driven run_until must stop at the exact cycle the
        // exhaustive reference does, for predicates firing at different
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
            assert!(
                ev.engine_stats.skipped_cycles > 0,
                "selective loop never skipped — the port regressed to lock-step"
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
