//! The one fold over the platform tracer's event log, and the per-stream
//! metrics built on it.
//!
//! `BlockFold` is the only reader of the block and stall events of
//! `streamgate_platform::trace`: it turns `BlockStart`, `ReconfigWindow`,
//! `DmaPhase`, `BlockEnd` and `StallWindow` into completed blocks
//! ([`BlockRecord`]), closed stall windows and each gateway's in-flight
//! block. The online monitor polls one incrementally; `fold_gateways`
//! runs one over a whole log for profiles, blame reports, postmortems and
//! validation, collecting per gateway each stream's measured `τ`
//! distribution (compared with `τ̂`, Eq. 2), round times (compared with
//! `γ`, Eq. 4) and stalls by cause.
//!
//! Everything here is computed **only** from the trace, never by reaching
//! into simulator internals, so the same derivation works on any event log
//! (including ones replayed from a file).

use streamgate_platform::{BlockRecord, StallCause, System, TraceEvent, Tracer};

/// A block the log shows admitted but not yet completed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InFlight {
    /// Stream index within the gateway.
    pub stream: usize,
    /// Admission cycle.
    pub start: u64,
    /// End of the latest reconfiguration window logged since admission.
    pub reconfig_end: Option<u64>,
    /// End of the latest entry-DMA phase logged since admission.
    pub stream_end: Option<u64>,
}

/// What [`BlockFold::next`] made of one event.
#[derive(Debug)]
pub(crate) enum Folded<'a> {
    /// A block completed.
    Block {
        /// Gateway index.
        gateway: usize,
        /// The completed block.
        block: BlockRecord,
    },
    /// A stall window closed: the inclusive cycles `start..=end`.
    Stall {
        /// Gateway index.
        gateway: usize,
        /// Why progress stopped.
        cause: StallCause,
        /// First stalled cycle.
        start: u64,
        /// Last stalled cycle.
        end: u64,
    },
    /// An event that closed nothing: a block phase absorbed into the
    /// in-flight state, or an event the fold does not interpret.
    Event(&'a TraceEvent),
}

/// The incremental fold over a tracer's event log (see the module docs).
///
/// The cursor is an *absolute* event index — events dropped plus position
/// in the retained log — so the fold stays correct over a flight recorder
/// (`Tracer::flight_recorder`), whose log sheds its oldest entries; events
/// evicted before the fold reached them are counted, not re-read.
#[derive(Debug, Default)]
pub(crate) struct BlockFold {
    cursor: u64,
    missed: u64,
    in_flight: Vec<Option<InFlight>>,
}

impl BlockFold {
    /// Consume the next unread event of `tracer`, or return `None` when
    /// the fold has caught up with the log.
    #[inline]
    pub(crate) fn next<'a>(&mut self, tracer: &'a Tracer) -> Option<Folded<'a>> {
        let dropped = tracer.events_dropped();
        if self.cursor < dropped {
            self.missed += dropped - self.cursor;
            self.cursor = dropped;
        }
        let e = tracer.events().get((self.cursor - dropped) as usize)?;
        self.cursor += 1;
        Some(match *e {
            TraceEvent::BlockStart {
                gateway,
                stream,
                cycle,
            } => {
                let g = gateway as usize;
                self.in_flight.resize(self.in_flight.len().max(g + 1), None);
                self.in_flight[g] = Some(InFlight {
                    stream: stream as usize,
                    start: cycle,
                    reconfig_end: None,
                    stream_end: None,
                });
                Folded::Event(e)
            }
            TraceEvent::ReconfigWindow { gateway, end, .. } => {
                if let Some(Some(b)) = self.in_flight.get_mut(gateway as usize) {
                    b.reconfig_end = Some(end);
                }
                Folded::Event(e)
            }
            TraceEvent::DmaPhase { gateway, end, .. } => {
                if let Some(Some(b)) = self.in_flight.get_mut(gateway as usize) {
                    b.stream_end = Some(end);
                }
                Folded::Event(e)
            }
            TraceEvent::BlockEnd { gateway, block } => {
                if let Some(slot) = self.in_flight.get_mut(gateway as usize) {
                    *slot = None;
                }
                Folded::Block {
                    gateway: gateway as usize,
                    block,
                }
            }
            TraceEvent::StallWindow {
                gateway,
                cause,
                start,
                end,
            } => Folded::Stall {
                gateway: gateway as usize,
                cause,
                start,
                end,
            },
            _ => Folded::Event(e),
        })
    }

    /// The block gateway `gateway` has in flight, as far as the fold has
    /// read.
    pub(crate) fn in_flight(&self, gateway: usize) -> Option<InFlight> {
        self.in_flight.get(gateway).copied().flatten()
    }

    /// Events a flight recorder evicted before the fold could read them.
    /// Non-zero means checks over those events silently did not happen.
    pub(crate) fn missed(&self) -> u64 {
        self.missed
    }
}

/// Measured `τ` distribution and stall totals of one stream.
#[derive(Clone, Debug, Default)]
pub struct StreamMetrics {
    /// Measured block times in completion order.
    pub taus: Vec<u64>,
    /// Total DMA credit-stall cycles across the stream's blocks.
    pub dma_stall: u64,
    /// Total exit space-stall cycles across the stream's blocks.
    pub exit_stall: u64,
}

impl StreamMetrics {
    /// Completed blocks.
    pub fn blocks(&self) -> usize {
        self.taus.len()
    }

    /// Maximum measured block time (0 when no block completed).
    pub fn tau_max(&self) -> u64 {
        self.taus.iter().copied().max().unwrap_or(0)
    }

    /// Minimum measured block time (0 when no block completed).
    pub fn tau_min(&self) -> u64 {
        self.taus.iter().copied().min().unwrap_or(0)
    }

    /// Mean measured block time (0 when no block completed).
    pub fn tau_mean(&self) -> f64 {
        if self.taus.is_empty() {
            0.0
        } else {
            self.taus.iter().sum::<u64>() as f64 / self.taus.len() as f64
        }
    }
}

/// All tracer-derived metrics of one gateway pair.
#[derive(Clone, Debug)]
pub struct GatewayMetrics {
    /// Gateway index the metrics were extracted for.
    pub gateway: usize,
    /// Streams multiplexed by the gateway (fixed at extraction time).
    pub num_streams: usize,
    /// Completed blocks in completion order (across all streams).
    pub blocks: Vec<BlockRecord>,
    /// Per-stream `τ` distributions and stall totals.
    pub streams: Vec<StreamMetrics>,
    /// Total stalled cycles per cause, indexed as [`StallCause::ALL`], over
    /// the whole run (includes stalls outside any completed block, e.g. a
    /// block still wedged at the end).
    pub stalls: [u64; 3],
    /// Closed stall windows per cause, indexed as [`StallCause::ALL`]:
    /// inclusive `(start, end)` pairs in event order, disjoint because the
    /// tracer coalesces adjacent stall cycles into maximal windows.
    pub windows: [Vec<(u64, u64)>; 3],
    /// The block still in flight where the log ends.
    pub in_flight: Option<InFlight>,
}

impl GatewayMetrics {
    /// Measured round times: for every window of `num_streams` consecutive
    /// blocks, first admission → last drain (Eq. 4 compares these with γ).
    pub fn round_times(&self) -> Vec<u64> {
        if self.num_streams == 0 || self.blocks.len() < self.num_streams {
            return Vec::new();
        }
        self.blocks
            .windows(self.num_streams)
            .map(|w| w[self.num_streams - 1].drain_end - w[0].start)
            .collect()
    }

    /// Maximum measured round time, if at least one full round completed.
    pub fn max_round_time(&self) -> Option<u64> {
        self.round_times().into_iter().max()
    }

    /// Total stalled cycles attributed to `cause`.
    pub fn stall_cycles(&self, cause: StallCause) -> u64 {
        self.stalls[cause as usize]
    }

    /// The closed stall windows of `cause` (see [`GatewayMetrics::windows`]).
    pub fn windows(&self, cause: StallCause) -> &[(u64, u64)] {
        &self.windows[cause as usize]
    }
}

/// Fold the tracer's event log, in one pass, into the metrics of every
/// gateway: `num_streams[g]` sizes gateway `g`'s per-stream vectors
/// (streams that never completed a block still get an entry) and defines
/// its round-window width. Events of gateways past the slice are skipped.
/// Panics when `tracer` is disabled (see [`gateway_metrics`]).
pub(crate) fn fold_gateways(tracer: &Tracer, num_streams: &[usize]) -> Vec<GatewayMetrics> {
    assert!(
        tracer.is_enabled(),
        "metrics need a recording tracer — call System::enable_tracing before running"
    );
    let mut out: Vec<GatewayMetrics> = num_streams
        .iter()
        .enumerate()
        .map(|(gateway, &n)| GatewayMetrics {
            gateway,
            num_streams: n,
            blocks: Vec::new(),
            streams: vec![StreamMetrics::default(); n],
            stalls: StallCause::ALL.map(|c| tracer.stall_cycles(gateway, c)),
            windows: Default::default(),
            in_flight: None,
        })
        .collect();
    let mut fold = BlockFold::default();
    while let Some(folded) = fold.next(tracer) {
        match folded {
            Folded::Block { gateway, block } => {
                let Some(m) = out.get_mut(gateway) else {
                    continue;
                };
                if let Some(s) = m.streams.get_mut(block.stream) {
                    s.taus.push(block.tau());
                    s.dma_stall += block.dma_stall;
                    s.exit_stall += block.exit_stall;
                }
                m.blocks.push(block);
            }
            Folded::Stall {
                gateway,
                cause,
                start,
                end,
            } => {
                if let Some(m) = out.get_mut(gateway) {
                    m.windows[cause as usize].push((start, end));
                }
            }
            Folded::Event(_) => {}
        }
    }
    for m in &mut out {
        m.in_flight = fold.in_flight(m.gateway);
    }
    out
}

/// `fold_gateways` over every gateway of `system`.
pub(crate) fn fold_system(system: &System) -> Vec<GatewayMetrics> {
    let sizes: Vec<usize> = system.gateways.iter().map(|g| g.num_streams()).collect();
    fold_gateways(&system.tracer, &sizes)
}

/// Fold the tracer's event log into the metrics of gateway `gateway`.
///
/// `num_streams` sizes the per-stream vectors (streams that never completed
/// a block still get an entry) and defines the round-window width.
///
/// # Panics
///
/// Panics when `tracer` is disabled: metrics would silently be empty, which
/// always indicates a harness that forgot `System::enable_tracing`.
pub fn gateway_metrics(tracer: &Tracer, gateway: usize, num_streams: usize) -> GatewayMetrics {
    let mut sizes = vec![0; gateway + 1];
    sizes[gateway] = num_streams;
    fold_gateways(tracer, &sizes).swap_remove(gateway)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end(stream: usize, start: u64, drain_end: u64) -> TraceEvent {
        TraceEvent::BlockEnd {
            gateway: 0,
            block: BlockRecord {
                stream,
                start,
                reconfig_end: start + 10,
                stream_end: drain_end - 2,
                drain_end,
                dma_stall: 1,
                exit_stall: 0,
            },
        }
    }

    fn tracer_with(events: Vec<TraceEvent>) -> Tracer {
        let mut t = Tracer::enabled(0);
        for e in events {
            t.emit(|| e);
        }
        t
    }

    #[test]
    fn folds_blocks_per_stream() {
        let t = tracer_with(vec![end(0, 0, 50), end(1, 60, 100), end(0, 110, 170)]);
        let m = gateway_metrics(&t, 0, 2);
        assert_eq!(m.blocks.len(), 3);
        assert_eq!(m.streams[0].taus, vec![50, 60]);
        assert_eq!(m.streams[1].taus, vec![40]);
        assert_eq!(m.streams[0].tau_max(), 60);
        assert_eq!(m.streams[0].tau_mean(), 55.0);
        assert_eq!(m.streams[0].dma_stall, 2);
    }

    #[test]
    fn round_times_over_windows() {
        let t = tracer_with(vec![end(0, 0, 50), end(1, 60, 100), end(0, 110, 170)]);
        let m = gateway_metrics(&t, 0, 2);
        assert_eq!(m.round_times(), vec![100, 110]);
        assert_eq!(m.max_round_time(), Some(110));
    }

    #[test]
    fn other_gateways_filtered_out() {
        let mut t = Tracer::enabled(0);
        t.emit(|| end(0, 0, 50));
        t.emit(|| TraceEvent::BlockEnd {
            gateway: 3,
            block: BlockRecord {
                stream: 0,
                start: 0,
                reconfig_end: 0,
                stream_end: 0,
                drain_end: 9,
                dma_stall: 0,
                exit_stall: 0,
            },
        });
        let m = gateway_metrics(&t, 0, 1);
        assert_eq!(m.blocks.len(), 1);
        assert_eq!(m.streams[0].taus, vec![50]);
    }

    #[test]
    fn stall_breakdown_exposed() {
        let mut t = Tracer::enabled(0);
        for now in 0..5 {
            t.stall_cycle(0, StallCause::DmaNoCredit, now);
        }
        t.stall_cycle(0, StallCause::CheckForSpace, 9);
        let m = gateway_metrics(&t, 0, 1);
        assert_eq!(m.stall_cycles(StallCause::DmaNoCredit), 5);
        assert_eq!(m.stall_cycles(StallCause::CheckForSpace), 1);
        assert_eq!(m.stall_cycles(StallCause::ExitFifoFull), 0);
    }

    #[test]
    #[should_panic(expected = "enable_tracing")]
    fn disabled_tracer_rejected() {
        let t = Tracer::disabled();
        let _ = gateway_metrics(&t, 0, 1);
    }

    #[test]
    fn fold_tracks_in_flight_blocks_and_closed_windows() {
        let mut t = Tracer::enabled(0);
        t.emit(|| TraceEvent::BlockStart {
            gateway: 1,
            stream: 2,
            cycle: 5,
        });
        t.emit(|| TraceEvent::ReconfigWindow {
            gateway: 1,
            stream: 2,
            start: 5,
            end: 15,
        });
        for now in 20..23 {
            t.stall_cycle(1, StallCause::DmaNoCredit, now);
        }
        t.stall_cycle(1, StallCause::DmaNoCredit, 30);
        let all = fold_gateways(&t, &[1, 3]);
        assert_eq!(all[0].in_flight, None);
        assert_eq!(
            all[1].in_flight,
            Some(InFlight {
                stream: 2,
                start: 5,
                reconfig_end: Some(15),
                stream_end: None,
            })
        );
        // The window still open at cycle 30 is not a closed window yet.
        assert_eq!(all[1].windows(StallCause::DmaNoCredit), &[(20, 22)]);
        assert_eq!(all[1].stall_cycles(StallCause::DmaNoCredit), 4);
    }
}
