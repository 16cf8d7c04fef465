//! Engine-equivalence property: on randomized small topologies the
//! event-driven engine must be *bit-identical* to the exhaustive
//! lock-step reference — same block schedules, FIFO contents, counters,
//! ring statistics, trace event logs and ring delivery logs.
//!
//! Single-gateway topologies put entry, chain and exit at ring distance
//! 1, so their DMA sends fuse with their cascades, traced, profiled or
//! not; the PAL system checks that a profiled run fuses what a
//! flight-recorder run fuses.
//!
//! The generated platforms deliberately cover the engine's tricky spots:
//! non-adjacent ring links (multi-hop flit transit that the ring-only
//! fast-forward must replay exactly), accelerator chains up to three deep
//! (credit-inert forwarding), up to three concurrent gateway pairs
//! (same-cycle FIFO coupling between tiles under selective stepping),
//! multiple streams per gateway (round-robin reconfiguration), and TDM
//! processors with non-trivial budgets (bulk slot replay).
//!
//! Under a flight recorder, which records what the tiles commit and no
//! observation, both engines must hold each gateway's events in the same
//! order, on the random topologies and on a stream the check-for-space
//! test holds back.
//!
//! The same topologies check the typed idle wait: `System::run_until_idle`
//! against the `run_until` closure it replaces, and
//! `GatewayPair::earliest_idle` as a lower bound on the idle cycle. The
//! PAL system checks that a `run_until` closure stops on its cycle.
//!
//! Draws are raw — capacities may be smaller than a block. The static
//! analyzer is the validity oracle: each gateway pair is mapped onto a
//! `DeploySpec` and structurally broken configurations (A1/A2/A5
//! Errors) are skipped, so every case that runs can make progress.

use proptest::prelude::*;
use streamgate_analysis::{analyze_with, AnalysisOptions, ChainStage, DeploySpec, StreamDeploy};
use streamgate_core::{build_pal_system, PalSystemConfig};
use streamgate_ilp::Rational;
use streamgate_platform::{
    AcceleratorTile, CFifo, GatewayPair, PassthroughKernel, ProcessorTile, RateSource, ScaleKernel,
    SinkTask, StallCause, StepMode, StreamConfig, StreamKernel, System, TraceEvent,
};

#[derive(Clone, Debug)]
struct Topo {
    /// Per gateway pair: (accelerator-chain depth 1..=3, streams 1..=3).
    gateways: Vec<(usize, usize)>,
    epsilon: u64,  // DMA cycles per sample
    delta: u64,    // exit-copy cycles per sample
    rho: u64,      // accelerator cycles per sample
    reconfig: u64, // R_s
    eta: usize,    // block size
    in_cap: usize,
    out_cap: usize,
    ni_depth: usize,
    src_interval: u64,
    sink_interval: u64,
    sink_budget: u64,
    cycles: u64,
}

fn topo_strategy() -> impl Strategy<Value = Topo> {
    (
        proptest::collection::vec((1usize..4, 1usize..4), 1..4),
        (1u64..8, 1u64..3, 1u64..6, 0u64..200),
        (2usize..24, 2usize..96, 8usize..512, 1usize..5),
        (1u64..40, 1u64..16, 1u64..3, 4_000u64..12_000),
    )
        .prop_map(
            |(
                gateways,
                (epsilon, delta, rho, reconfig),
                (eta, in_cap, out_cap, ni_depth),
                (src_interval, sink_interval, sink_budget, cycles),
            )| Topo {
                gateways,
                epsilon,
                delta,
                rho,
                reconfig,
                eta,
                in_cap,
                out_cap,
                ni_depth,
                src_interval,
                sink_interval,
                sink_budget,
                cycles,
            },
        )
}

/// Strategy biased toward the batched-delivery hot spots: deep NI queues
/// (deliveries cluster before the gateway polls), hot DMA (ε ∈ {1, 2}
/// injects back-to-back multi-hop bursts), long accelerator service times
/// (ρ up to 15 keeps spans busy so reconfiguration windows land mid-span),
/// small blocks with short R_s (frequent stream switches).
fn burst_strategy() -> impl Strategy<Value = Topo> {
    (
        proptest::collection::vec((1usize..4, 2usize..4), 1..3),
        (1u64..3, 1u64..3, 4u64..16, 1u64..40),
        (4usize..12, 8usize..64, 16usize..256, 2usize..9),
        (1u64..6, 1u64..8, 1u64..3, 6_000u64..16_000),
    )
        .prop_map(
            |(
                gateways,
                (epsilon, delta, rho, reconfig),
                (eta, in_cap, out_cap, ni_depth),
                (src_interval, sink_interval, sink_budget, cycles),
            )| Topo {
                gateways,
                epsilon,
                delta,
                rho,
                reconfig,
                eta,
                in_cap,
                out_cap,
                ni_depth,
                src_interval,
                sink_interval,
                sink_budget,
                cycles,
            },
        )
}

/// One analyzer deployment spec per gateway pair. μ is a token positive
/// rate: the equivalence test makes no throughput claim, so the oracle
/// gates on the structural rules (liveness, buffer sufficiency, space
/// check) rather than Eq. 5 feasibility.
fn oracle_specs(t: &Topo) -> Vec<DeploySpec> {
    t.gateways
        .iter()
        .enumerate()
        .map(|(g, &(depth, streams))| DeploySpec {
            name: format!("gw{g}"),
            chain: (0..depth)
                .map(|j| ChainStage {
                    name: format!("G{g}A{j}"),
                    rho: t.rho,
                })
                .collect(),
            epsilon: t.epsilon,
            delta: t.delta,
            ni_depth: t.ni_depth as u32,
            check_for_space: true,
            streams: (0..streams)
                .map(|s| StreamDeploy {
                    name: format!("g{g}s{s}"),
                    mu: Rational::new(1, 1_000_000),
                    eta_in: t.eta as u64,
                    eta_out: t.eta as u64,
                    reconfig: t.reconfig,
                    input_capacity: t.in_cap as u64,
                    output_capacity: t.out_cap as u64,
                    max_latency: None,
                })
                .collect(),
            processors: vec![],
            gateways: vec![],
            config_bus_period: None,
            station_map: None,
            modes: vec![],
        })
        .collect()
}

fn accepted_by_analyzer(t: &Topo) -> bool {
    let opts = AnalysisOptions {
        exact_buffers: false,
    };
    oracle_specs(t)
        .iter()
        .all(|s| analyze_with(s, &opts).is_accepted())
}

/// Kernel chain for one stream (one kernel per chain stage).
fn kernels(depth: usize, gain: f64) -> Vec<Box<dyn StreamKernel>> {
    let mut v: Vec<Box<dyn StreamKernel>> = vec![Box::new(ScaleKernel::new(gain))];
    for _ in 1..depth {
        v.push(Box::new(PassthroughKernel));
    }
    v
}

/// Ring station layout, grouped by role so most gateway links span
/// multiple hops: node 0 is the FE processor, nodes 1..=G the entry
/// gateways, then every accelerator chain back to back, then the G exit
/// gateways, and the last node the consumer processor. Within a chain
/// the accelerators are ring-adjacent; entry→first-accel and
/// last-accel→exit grow up to `G + Σdepth` hops apart.
fn build(t: &Topo) -> System {
    let g = t.gateways.len();
    let total_accels: usize = t.gateways.iter().map(|&(depth, _)| depth).sum();
    let n = 2 + 2 * g + total_accels;
    let mut sys = System::new(n);

    let mut all_inputs = Vec::new(); // (fifo, source interval, TDM budget)
    let mut all_outputs = Vec::new();

    let mut accel_base = 1 + g;
    let exit_base = 1 + g + total_accels;
    for (gi, &(depth, streams)) in t.gateways.iter().enumerate() {
        let entry = 1 + gi;
        let exit = exit_base + gi;
        // Ring stream ids, unique per gateway: link j carries the hop
        // into chain stage j (j = depth is the exit hop).
        let link = |j: usize| (10 * (gi + 1) + j) as u32;
        let nodes: Vec<usize> = (0..depth).map(|j| accel_base + j).collect();
        accel_base += depth;

        let chain: Vec<_> = (0..depth)
            .map(|j| {
                sys.add_accel(AcceleratorTile::new(
                    format!("G{gi}A{j}"),
                    nodes[j],
                    if j == 0 { entry } else { nodes[j - 1] },
                    link(j),
                    if j + 1 == depth { exit } else { nodes[j + 1] },
                    link(j + 1),
                    t.ni_depth as u32,
                    t.rho,
                ))
            })
            .collect();
        let mut gw = GatewayPair::new(
            format!("gw{gi}"),
            entry,
            exit,
            chain,
            nodes[0],
            link(0),
            nodes[depth - 1],
            link(depth),
            t.ni_depth as u32,
            t.epsilon,
            t.delta,
        );
        for s in 0..streams {
            let input = sys.add_fifo(CFifo::new(format!("in{gi}_{s}"), t.in_cap));
            let output = sys.add_fifo(CFifo::new(format!("out{gi}_{s}"), t.out_cap));
            gw.add_stream(StreamConfig::new(
                format!("g{gi}s{s}"),
                input,
                output,
                t.eta,
                t.eta,
                t.reconfig,
                kernels(depth, 2.0 + (gi * 3 + s) as f64),
            ));
            all_inputs.push((input, t.src_interval + gi as u64, 1 + (s as u64 % 2)));
            all_outputs.push(output);
        }
        sys.add_gateway(gw);
    }

    // --- front-end processor: one rate source per input ---
    let mut fe = ProcessorTile::new("FE");
    for (i, (f, interval, budget)) in all_inputs.iter().enumerate() {
        let base = i as f64;
        let fifo = f.0;
        fe.add_task(
            Box::new(RateSource::new(
                fifo,
                *interval,
                Box::new(move |k| (base + k as f64, 0.25)),
            )),
            *budget,
        );
    }
    sys.add_processor(fe);

    // --- consumer processor: one sink per output (TDM budgets) ---
    let mut consumer = ProcessorTile::new("consumer");
    for f in &all_outputs {
        consumer.add_task(Box::new(SinkTask::new(f.0, t.sink_interval)), t.sink_budget);
    }
    sys.add_processor(consumer);

    sys
}

/// What a run records.
#[derive(Clone, Copy, Debug)]
enum Observe {
    /// Nothing: the untraced span fast path.
    Off,
    /// A full trace sampled every 64 cycles: every edge is recorded, and
    /// the engine stands at each sample point.
    Trace,
    /// `enable_profiling(64)`: the full trace plus the ring's delivery log
    /// and the FIFO push logs.
    Profile,
    /// `enable_profiling(0)`: no sample points, so no fused cascade is
    /// refused for one, and accelerator windows merge only when they
    /// touch — every activity edge shows in the log.
    Unsampled,
}

impl Observe {
    fn enable(self, sys: &mut System) {
        match self {
            Observe::Off => {}
            Observe::Trace => sys.enable_tracing(64),
            Observe::Profile => sys.enable_profiling(64),
            Observe::Unsampled => sys.enable_profiling(0),
        }
    }
}

/// Run to completion in `mode`, recording what `observe` asks for.
fn run_with(t: &Topo, mode: StepMode, observe: Observe) -> System {
    let mut sys = build(t);
    sys.step_mode = mode;
    observe.enable(&mut sys);
    sys.run(t.cycles);
    let now = sys.cycle();
    sys.tracer.finish(now);
    sys
}

/// Run to completion in `mode` and flush the trace.
fn run(t: &Topo, mode: StepMode) -> System {
    run_with(t, mode, Observe::Trace)
}

/// Run the event engine in `chunks` arbitrary-length legs (stops land in
/// the middle of delivery bursts and accelerator busy spans) and check the
/// result is still bit-identical to one uninterrupted exhaustive run.
fn run_event_chunked(t: &Topo, chunks: u64) -> System {
    run_event_chunked_with(t, chunks, Observe::Trace)
}

/// [`run_event_chunked`], recording what `observe` asks for.
fn run_event_chunked_with(t: &Topo, chunks: u64, observe: Observe) -> System {
    let mut sys = build(t);
    sys.step_mode = StepMode::EventDriven;
    observe.enable(&mut sys);
    let per = (t.cycles / chunks).max(1);
    // Deliberately ragged leg lengths so stop cycles hit different phases
    // of the DMA/accelerator pipelines each leg.
    let mut target = 0;
    for k in 0..chunks {
        target += per + k % 3;
        sys.run(target.min(t.cycles).saturating_sub(sys.cycle()));
    }
    if sys.cycle() < t.cycles {
        let left = t.cycles - sys.cycle();
        sys.run(left);
    }
    let now = sys.cycle();
    sys.tracer.finish(now);
    sys
}

fn assert_identical(mut ex: System, mut ev: System) -> Result<(), TestCaseError> {
    prop_assert_eq!(ex.cycle(), ev.cycle());
    for (i, (a, b)) in ex.fifos.iter_mut().zip(ev.fifos.iter_mut()).enumerate() {
        prop_assert_eq!(a.pushed, b.pushed, "fifo {} pushed", i);
        prop_assert_eq!(a.popped, b.popped, "fifo {} popped", i);
        prop_assert_eq!(a.high_water(), b.high_water(), "fifo {} high-water", i);
        prop_assert_eq!(a.len(), b.len(), "fifo {} level", i);
        // Residual contents, sample by sample.
        while let (Some(x), Some(y)) = (a.peek().copied(), b.peek().copied()) {
            prop_assert_eq!(x, y, "fifo {} contents", i);
            a.pop();
            b.pop();
        }
    }
    for (i, (a, b)) in ex.gateways.iter().zip(ev.gateways.iter()).enumerate() {
        prop_assert_eq!(
            format!("{:?}", a.blocks),
            format!("{:?}", b.blocks),
            "gateway {} block records",
            i
        );
        prop_assert_eq!(
            a.dma_busy_cycles,
            b.dma_busy_cycles,
            "gateway {} dma busy",
            i
        );
        prop_assert_eq!(a.idle_cycles, b.idle_cycles, "gateway {} idle", i);
        prop_assert_eq!(
            a.reconfig_cycles_total,
            b.reconfig_cycles_total,
            "gateway {} reconfig",
            i
        );
    }
    for (i, (a, b)) in ex.accels.iter().zip(ev.accels.iter()).enumerate() {
        prop_assert_eq!(a.busy_cycles, b.busy_cycles, "accel {} busy", i);
        prop_assert_eq!(a.samples_in, b.samples_in, "accel {} in", i);
        prop_assert_eq!(a.samples_out, b.samples_out, "accel {} out", i);
    }
    for (i, (a, b)) in ex.processors.iter().zip(ev.processors.iter()).enumerate() {
        prop_assert_eq!(a.busy_cycles, b.busy_cycles, "processor {} busy", i);
        prop_assert_eq!(a.total_cycles, b.total_cycles, "processor {} total", i);
    }
    for r in 0..2 {
        let (a, b) = (&ex.ring.stats[r], &ev.ring.stats[r]);
        prop_assert_eq!(a.delivered, b.delivered, "ring {} delivered", r);
        prop_assert_eq!(a.total_latency, b.total_latency, "ring {} latency", r);
        prop_assert_eq!(a.max_latency, b.max_latency, "ring {} max latency", r);
        prop_assert_eq!(a.injection_stalls, b.injection_stalls, "ring {} stalls", r);
    }
    let (ea, eb) = (ex.tracer.events(), ev.tracer.events());
    if let Some(d) = ea.iter().zip(eb.iter()).position(|(x, y)| x != y) {
        prop_assert_eq!(&ea[d], &eb[d], "first trace divergence at index {}", d);
    }
    prop_assert_eq!(ea.len(), eb.len(), "trace event counts");
    let (la, lb) = (ex.ring.delivery_log(), ev.ring.delivery_log());
    prop_assert_eq!(la.is_some(), lb.is_some(), "delivery log on");
    if let (Some(la), Some(lb)) = (la, lb) {
        // Both engines log the same crossings per hop. Either list may be
        // out of cycle order: a multi-hop flit logs its crossings when it
        // ejects, and the event engine logs a fused hop at commit, ahead of
        // the clock. So they are compared sorted; one slot leaves a station
        // per cycle, so a sorted list rises strictly.
        for (ring, a, b) in [(0, &la.data, &lb.data), (1, &la.credit, &lb.credit)] {
            prop_assert_eq!(a.hops.len(), b.hops.len(), "ring {} hops", ring);
            for (hop, (a, b)) in a.hops.iter().zip(&b.hops).enumerate() {
                let (mut a, mut b) = (a.clone(), b.clone());
                a.sort_unstable();
                b.sort_unstable();
                let twice = a.windows(2).position(|w| w[0] >= w[1]);
                prop_assert_eq!(
                    twice,
                    None,
                    "ring {} hop {}: two crossings in a cycle",
                    ring,
                    hop
                );
                if let Some(d) = a.iter().zip(&b).position(|(x, y)| x != y) {
                    prop_assert_eq!(
                        a[d],
                        b[d],
                        "ring {} hop {} crossing {} differs",
                        ring,
                        hop,
                        d
                    );
                }
                prop_assert_eq!(a.len(), b.len(), "ring {} hop {} crossings", ring, hop);
            }
        }
        prop_assert_eq!(la.data_dropped, lb.data_dropped, "data crossings dropped");
        prop_assert_eq!(
            la.credit_dropped,
            lb.credit_dropped,
            "credit crossings dropped"
        );
    }
    Ok(())
}

/// Strategy forcing *degenerate one-cycle spans*: every tile has work
/// every cycle (ε = δ = ρ = 1, sources and sinks tick each cycle, tiny
/// blocks with near-zero reconfiguration), so the span engine's closed-form
/// windows collapse to single cycles and every span commits through the
/// `to = now + 1` floor. This is the interval engine's worst case — it must
/// degrade to exact per-cycle semantics, not merely fast ones.
fn one_cycle_span_strategy() -> impl Strategy<Value = Topo> {
    (
        proptest::collection::vec((1usize..3, 1usize..3), 2..4),
        (0u64..3, 2usize..5, 4usize..16, 16usize..64),
        (1usize..3, 3_000u64..8_000),
    )
        .prop_map(
            |(gateways, (reconfig, eta, in_cap, out_cap), (ni_depth, cycles))| Topo {
                gateways,
                epsilon: 1,
                delta: 1,
                rho: 1,
                reconfig,
                eta,
                in_cap,
                out_cap,
                ni_depth,
                src_interval: 1,
                sink_interval: 1,
                sink_budget: 1,
                cycles,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Traced and profiled: chain fusion runs under both, with the
    /// delivery log on and across sample points.
    #[test]
    fn event_driven_is_bit_identical_to_exhaustive(t in topo_strategy()) {
        prop_assume!(accepted_by_analyzer(&t));
        for observe in [Observe::Trace, Observe::Profile] {
            let ex = run_with(&t, StepMode::Exhaustive, observe);
            let ev = run_with(&t, StepMode::EventDriven, observe);
            assert_identical(ex, ev)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Degenerate one-cycle spans, traced and untraced: when every tile
    /// acts every cycle the span engine executes the same lock-step
    /// schedule as the reference, span by one-cycle span.
    #[test]
    fn one_cycle_spans_bit_identical(t in one_cycle_span_strategy()) {
        prop_assume!(accepted_by_analyzer(&t));
        let ex = run(&t, StepMode::Exhaustive);
        let ev = run(&t, StepMode::EventDriven);
        assert_identical(ex, ev)?;
        let ex = run_with(&t, StepMode::Exhaustive, Observe::Off);
        let ev = run_with(&t, StepMode::EventDriven, Observe::Off);
        assert_identical(ex, ev)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The batched-delivery path under stress: deep NI queues, ε = 1..2
    /// multi-hop bursts, reconfiguration windows opening while an
    /// accelerator span is in flight — traced and profiled.
    #[test]
    fn batched_bursts_bit_identical(t in burst_strategy()) {
        prop_assume!(accepted_by_analyzer(&t));
        for observe in [Observe::Trace, Observe::Profile] {
            let ex = run_with(&t, StepMode::Exhaustive, observe);
            let ev = run_with(&t, StepMode::EventDriven, observe);
            assert_identical(ex, ev)?;
        }
    }

    /// Without a tracer the engine replays spans through the untraced
    /// fast path (no per-cycle observation) — it must land on exactly the
    /// same architectural state.
    #[test]
    fn untraced_spans_bit_identical(t in burst_strategy()) {
        prop_assume!(accepted_by_analyzer(&t));
        let ex = run_with(&t, StepMode::Exhaustive, Observe::Off);
        let ev = run_with(&t, StepMode::EventDriven, Observe::Off);
        assert_identical(ex, ev)?;
    }

    /// Stopping and resuming the event engine mid-burst must not disturb
    /// equivalence: every `run()` boundary forces a flush of lazily
    /// accounted state, and the resumed run rebuilds its horizons from it.
    #[test]
    fn chunked_event_runs_bit_identical(t in burst_strategy(), chunks in 2u64..9) {
        prop_assume!(accepted_by_analyzer(&t));
        let ex = run(&t, StepMode::Exhaustive);
        let ev = run_event_chunked(&t, chunks);
        assert_identical(ex, ev)?;
    }
}

/// The fused sends the event engine commits on the single-gateway cases
/// of a suite — entry, chain and exit are ring-adjacent there, so every
/// hop is fusion-eligible — replaying the suite's case stream: traced,
/// then profiled.
fn suite_fused_sends(suite: &str, strategy: impl Strategy<Value = Topo>, cases: u32) -> [u64; 2] {
    let mut rng = TestRng::from_name(suite);
    let mut sends = [0; 2];
    for _ in 0..cases {
        let t = strategy.generate(&mut rng);
        if t.gateways.len() > 1 || !accepted_by_analyzer(&t) {
            continue;
        }
        for (n, observe) in sends.iter_mut().zip([Observe::Trace, Observe::Profile]) {
            *n += run_with(&t, StepMode::EventDriven, observe)
                .engine_stats
                .fused_sends;
        }
    }
    sends
}

/// The traced and profiled suites above exercise chain fusion: their
/// single-gateway cases commit fused sends under a full trace and under
/// a profile, not only on the untraced fast path.
#[test]
fn traced_and_profiled_suites_commit_fused_sends() {
    let suites = [
        suite_fused_sends(
            concat!(
                module_path!(),
                "::event_driven_is_bit_identical_to_exhaustive"
            ),
            topo_strategy(),
            32,
        ),
        suite_fused_sends(
            concat!(module_path!(), "::batched_bursts_bit_identical"),
            burst_strategy(),
            24,
        ),
    ];
    for (suite, [traced, profiled]) in ["topologies", "bursts"].iter().zip(suites) {
        assert!(
            traced > 0 && profiled > 0,
            "{suite}: fused sends traced {traced}, profiled {profiled}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fused cascades across many run boundaries, profiled with no sample
    /// points: single-gateway topologies fuse, and a run often starts with
    /// a chain stage still busy from a wire firing while the gateway fuses
    /// its next send on the run's first cycle — the new run must see that
    /// activity end before the fused firing's window opens.
    #[test]
    fn chunked_unsampled_fused_runs_bit_identical(t in topo_strategy(), chunks in 20u64..400) {
        prop_assume!(t.gateways.len() == 1 && accepted_by_analyzer(&t));
        let ex = run_with(&t, StepMode::Exhaustive, Observe::Unsampled);
        let ev = run_event_chunked_with(&t, chunks, Observe::Unsampled);
        assert_identical(ex, ev)?;
    }
}

/// `t` built and run for `start` cycles in `mode`, with a full trace when
/// `traced`: the state an idle wait starts from.
fn started(t: &Topo, mode: StepMode, traced: bool, start: u64) -> System {
    let mut sys = build(t);
    sys.step_mode = mode;
    if traced {
        sys.enable_tracing(64);
    }
    sys.run(start);
    sys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The typed idle wait stops where the per-cycle idle predicate does,
    /// on both engines, traced and untraced, from ragged start cycles and
    /// across repeated waits that start mid-block: same verdicts, stop
    /// cycles, counters, FIFOs and trace.
    #[test]
    fn run_until_idle_matches_the_idle_predicate(
        t in topo_strategy(),
        start in 0u64..6_000,
        pick in 0usize..3,
        variant in 0u8..4,
    ) {
        prop_assume!(accepted_by_analyzer(&t));
        let g = pick % t.gateways.len();
        let mode = if variant % 2 == 0 { StepMode::EventDriven } else { StepMode::Exhaustive };
        let traced = variant >= 2;
        let mut a = started(&t, mode, traced, start);
        let mut b = started(&t, mode, traced, start);
        for k in 0..4u64 {
            let hit_a = a.run_until(t.cycles, |s| s.gateways[g].is_idle());
            let hit_b = b.run_until_idle(g, t.cycles);
            prop_assert_eq!(hit_a, hit_b, "wait {} verdict", k);
            prop_assert_eq!(a.cycle(), b.cycle(), "wait {} stop cycle", k);
            let gap = 1 + (start + 97 * k) % 700;
            a.run(gap);
            b.run(gap);
        }
        let (na, nb) = (a.cycle(), b.cycle());
        a.tracer.finish(na);
        b.tracer.finish(nb);
        assert_identical(a, b)?;
    }

    /// `earliest_idle` is a lower bound: whenever a pair is found idle at
    /// the top of a cycle, no bound taken at an earlier top of the same
    /// busy stretch lies past that cycle.
    #[test]
    fn earliest_idle_never_passes_the_first_idle_cycle(t in topo_strategy()) {
        prop_assume!(accepted_by_analyzer(&t));
        let mut sys = build(&t);
        sys.step_mode = StepMode::Exhaustive;
        let mut bound = vec![0u64; sys.gateways.len()];
        for _ in 0..t.cycles {
            let now = sys.cycle();
            for (j, gw) in sys.gateways.iter().enumerate() {
                if gw.is_idle() {
                    prop_assert!(bound[j] <= now, "gateway {} idle at {} before its bound {}", j, now, bound[j]);
                    bound[j] = 0;
                } else {
                    bound[j] = bound[j].max(gw.earliest_idle(now));
                }
            }
            sys.step();
        }
    }
}

/// `run_until` evaluates its closure at the top of every cycle on both
/// engines, so a predicate on the clock stops on exactly its cycle, also
/// where `System::run` on the span engine would jump (PAL idles between
/// DMA sends), and the two engines end in the same state.
#[test]
fn run_until_stops_on_the_requested_cycle_on_both_engines() {
    let mut ends = Vec::new();
    for mode in [StepMode::Exhaustive, StepMode::EventDriven] {
        let mut sys = build_pal_system(&PalSystemConfig::scaled_default()).system;
        sys.step_mode = mode;
        for k in 0..26u64 {
            sys.run(701 + 389 * k);
            let target = sys.cycle() + 1 + 37 * k;
            assert!(
                sys.run_until(4_000, |s| s.cycle() == target),
                "{mode:?}: run_until missed cycle {target}"
            );
            assert_eq!(sys.cycle(), target, "{mode:?}: stopped off cycle {target}");
        }
        let blocks: Vec<String> = sys
            .gateways
            .iter()
            .map(|g| format!("{:?}", g.blocks))
            .collect();
        let fifos: Vec<(u64, u64)> = sys.fifos.iter().map(|f| (f.pushed, f.popped)).collect();
        ends.push((sys.cycle(), blocks, fifos));
    }
    assert_eq!(
        ends[0], ends[1],
        "engines disagree after the run_until stops"
    );
}

/// A profiled PAL run fuses exactly the sends a flight-recorder run fuses
/// over the same `run` calls, one per 20-ms field: observation may refuse
/// a cascade only where it would cross a sample point, and a profile
/// sampled at interval 0 has none. Most sends fuse in both.
#[test]
fn profiled_pal_fuses_what_the_flight_recorder_fuses() {
    let cfg = PalSystemConfig::scaled_default();
    let [profiled, recorder] = [true, false].map(|profile| {
        let mut sys = build_pal_system(&cfg).system;
        if profile {
            sys.enable_profiling(0);
        } else {
            sys.enable_flight_recorder(4096);
        }
        for _ in 0..2 {
            sys.run(cfg.clock_hz / 50);
        }
        let sends: u64 = sys
            .gateways
            .iter()
            .map(|g| g.dma_busy_cycles / g.dma_cycles_per_sample)
            .sum();
        (sys.engine_stats.fused_sends, sends)
    });
    assert_eq!(
        profiled, recorder,
        "(fused sends, sends): profiled vs flight recorder"
    );
    assert!(
        2 * profiled.0 > profiled.1,
        "(fused sends, sends) {profiled:?}"
    );
}

/// The full trace of `t` on both engines after `act`, done between two
/// runs of `first` and `second` cycles.
fn traced_around(t: &Topo, first: u64, second: u64, act: fn(&mut System)) -> [Vec<TraceEvent>; 2] {
    [StepMode::Exhaustive, StepMode::EventDriven].map(|mode| {
        let mut sys = build(t);
        sys.step_mode = mode;
        sys.run(first);
        act(&mut sys);
        sys.run(second);
        sys.finish_trace();
        sys.tracer.events().to_vec()
    })
}

/// A full trace switched on after untraced cycles: the first traced
/// cycle reads every accelerator's activity, as the lock-step engine's
/// first observation does, wherever in the pipeline the switch lands.
#[test]
fn trace_switched_on_mid_run_reads_every_accelerator() {
    let t = Topo {
        gateways: vec![(3, 2)],
        epsilon: 2,
        delta: 1,
        rho: 7,
        reconfig: 5,
        eta: 8,
        in_cap: 32,
        out_cap: 96,
        ni_depth: 2,
        src_interval: 1,
        sink_interval: 2,
        sink_budget: 1,
        cycles: 0,
    };
    assert!(accepted_by_analyzer(&t), "topology must pass the oracle");
    let mut edges_at_switch = 0;
    for first in 1_000..1_040 {
        let [ex, ev] = traced_around(&t, first, 2_000, |s| s.enable_tracing(16));
        assert_eq!(ex, ev, "tracing switched on at cycle {first}");
        edges_at_switch += ex
            .iter()
            .filter(|e| matches!(e, TraceEvent::AccelActive { start, .. } if *start == first))
            .count();
    }
    assert!(
        edges_at_switch > 0,
        "no switch landed on an active accelerator"
    );
}

/// A FIFO fed from outside between two traced runs can change the
/// check-for-space verdict of an idle pair that stays idle: the pair's
/// deferred idle cycles must use the FIFOs as the new run finds them.
#[test]
fn space_verdict_follows_fifos_fed_between_runs() {
    let t = Topo {
        gateways: vec![(1, 1)],
        epsilon: 2,
        delta: 1,
        rho: 1,
        reconfig: 5,
        eta: 8,
        in_cap: 32,
        out_cap: 8,
        ni_depth: 2,
        src_interval: 1_000_000,
        sink_interval: 1_000_000,
        sink_budget: 1,
        cycles: 0,
    };
    let logs = [StepMode::Exhaustive, StepMode::EventDriven].map(|mode| {
        let mut sys = build(&t);
        sys.step_mode = mode;
        sys.enable_tracing(0);
        let (i, o) = (
            sys.gateways[0].stream(0).input,
            sys.gateways[0].stream(0).output,
        );
        // The sink takes one sample at cycle 0 and no more for a million
        // cycles; nothing else touches the output FIFO.
        while sys.fifos[o.0].try_push((0.0, 0.0), 0) {}
        sys.run(300);
        // Fill the output again and feed a full input block: the pair
        // stays idle, now held back by the space test alone.
        while sys.fifos[o.0].try_push((0.0, 0.0), 300) {}
        for k in 0..8 {
            assert!(sys.fifos[i.0].try_push((k as f64, 0.0), 300));
        }
        sys.run(900);
        sys.finish_trace();
        sys.tracer.events().to_vec()
    });
    assert_eq!(logs[0], logs[1]);
    let window = TraceEvent::StallWindow {
        gateway: 0,
        cause: StallCause::CheckForSpace,
        start: 300,
        end: 1_199,
    };
    assert!(logs[0].contains(&window), "{:?}", logs[0]);
}

/// The gateway a trace event belongs to, `None` for what the system
/// observes (accelerator windows, high-water marks, samples).
fn gateway_of(e: &TraceEvent) -> Option<u32> {
    match *e {
        TraceEvent::BlockStart { gateway, .. }
        | TraceEvent::ReconfigWindow { gateway, .. }
        | TraceEvent::ConfigSave { gateway, .. }
        | TraceEvent::ConfigRestore { gateway, .. }
        | TraceEvent::DmaPhase { gateway, .. }
        | TraceEvent::DrainPhase { gateway, .. }
        | TraceEvent::BlockEnd { gateway, .. }
        | TraceEvent::StallWindow { gateway, .. } => Some(gateway),
        TraceEvent::AccelActive { .. }
        | TraceEvent::FifoHighWater { .. }
        | TraceEvent::FifoLevel { .. }
        | TraceEvent::RingCounters { .. } => None,
    }
}

/// `sys` built, put on `mode` and run for `cycles` cycles under a flight
/// recorder too large to evict anything, its stall windows closed.
fn recorded(mut sys: System, mode: StepMode, cycles: u64) -> System {
    sys.step_mode = mode;
    sys.enable_flight_recorder(1 << 30);
    sys.run(cycles);
    let now = sys.cycle();
    sys.tracer.finish(now);
    sys
}

/// Both engines' flight recorders hold only what the gateways commit,
/// none of it evicted: per gateway the same events in the same order, and
/// the same stall totals per cause. (The span engine records in commit
/// order, so gateways may interleave differently.)
fn assert_same_recording(ex: &System, ev: &System) -> Result<(), TestCaseError> {
    for sys in [ex, ev] {
        prop_assert_eq!(sys.tracer.events_dropped(), 0);
        let observed = sys.tracer.events().iter().find(|e| gateway_of(e).is_none());
        prop_assert_eq!(
            observed,
            None,
            "{:?} recorded an observation",
            sys.step_mode
        );
    }
    for g in 0..ex.gateways.len() {
        let of = |sys: &System| -> Vec<TraceEvent> {
            let events = sys.tracer.events().iter();
            events
                .filter(|e| gateway_of(e) == Some(g as u32))
                .cloned()
                .collect()
        };
        let (a, b) = (of(ex), of(ev));
        if let Some(d) = a.iter().zip(&b).position(|(x, y)| x != y) {
            prop_assert_eq!(&a[d], &b[d], "gateway {} event {}", g, d);
        }
        prop_assert_eq!(a.len(), b.len(), "gateway {} events", g);
        for cause in StallCause::ALL {
            prop_assert_eq!(
                ex.tracer.stall_cycles(g, cause),
                ev.tracer.stall_cycles(g, cause),
                "gateway {} {} stall cycles",
                g,
                cause
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The flight recorder keeps one log: the lock-step loop records what
    /// the span engine records, and neither observes.
    #[test]
    fn flight_recorder_holds_the_same_log_on_both_engines(t in topo_strategy()) {
        prop_assume!(accepted_by_analyzer(&t));
        let ex = recorded(build(&t), StepMode::Exhaustive, t.cycles);
        let ev = recorded(build(&t), StepMode::EventDriven, t.cycles);
        assert_same_recording(&ex, &ev)?;
    }
}

/// One stream held back by the check-for-space test most of the time: a
/// source every 4 cycles fills `in` (256), one gateway with one
/// accelerator runs blocks of η 16/16 with R 20 into `out` (24), and a
/// sink drains `out` every 97 cycles, so `out` seldom has room for a
/// block.
fn space_blocked_probe() -> System {
    let mut sys = System::new(4);
    let input = sys.add_fifo(CFifo::new("in", 256));
    let output = sys.add_fifo(CFifo::new("out", 24));
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
    pt.add_task(Box::new(SinkTask::new(output.0, 97)), 1);
    sys.add_processor(pt);
    sys
}

/// Check-for-space idle cycles are what a full trace observes of a
/// space-blocked pair, on both engines; the flight recorder attributes
/// none on either, so its two logs agree where the exhaustive engine's
/// used to count every such cycle and the event engine's only the ones
/// it stepped.
#[test]
fn space_blocked_stream_keeps_one_recorder_log() {
    const CYCLES: u64 = 20_000;
    let engines = [StepMode::Exhaustive, StepMode::EventDriven];
    let [ex, ev] = engines.map(|mode| recorded(space_blocked_probe(), mode, CYCLES));
    match assert_same_recording(&ex, &ev) {
        Ok(()) => {}
        Err(TestCaseError::Fail(msg)) => panic!("{msg}"),
        Err(TestCaseError::Reject) => unreachable!(),
    }
    assert_eq!(ex.tracer.events(), ev.tracer.events());
    let [full_ex, full_ev] = engines.map(|mode| {
        let mut sys = space_blocked_probe();
        sys.step_mode = mode;
        sys.enable_tracing(0);
        sys.run(CYCLES);
        sys
    });
    let space = |sys: &System| sys.tracer.stall_cycles(0, StallCause::CheckForSpace);
    assert!(space(&full_ex) > CYCLES / 2, "{}", space(&full_ex));
    assert_eq!(space(&full_ex), space(&full_ev));
    assert_eq!((space(&ex), space(&ev)), (0, 0));
    assert!(ex.gateways[0].blocks.len() > 10);
}

/// Named pinned configurations for the engine's historical failure modes.
/// Each is a deterministic instance of the random families above, kept as
/// a regression even while the property passes.
mod pinned {
    use super::*;

    fn check(t: &Topo) {
        assert!(accepted_by_analyzer(t), "pinned topology must pass oracle");
        let ex = run(t, StepMode::Exhaustive);
        let ev = run(t, StepMode::EventDriven);
        match assert_identical(ex, ev) {
            Ok(()) => {}
            Err(TestCaseError::Fail(msg)) => panic!("{msg}"),
            Err(TestCaseError::Reject) => unreachable!(),
        }
        // The untraced span fast path must land on the same architectural
        // state.
        let ex = run_with(t, StepMode::Exhaustive, Observe::Off);
        let ev = run_with(t, StepMode::EventDriven, Observe::Off);
        match assert_identical(ex, ev) {
            Ok(()) => {}
            Err(TestCaseError::Fail(msg)) => panic!("{msg}"),
            Err(TestCaseError::Reject) => unreachable!(),
        }
    }

    /// ε = 1 with 8-deep NI queues: the gateway injects a flit every
    /// cycle, so multi-hop deliveries arrive back to back and pile up in
    /// the accelerator NI before it polls. Exercises the span walker's
    /// rx-pending wake on every cycle of the burst.
    #[test]
    fn deep_ni_back_to_back_bursts() {
        check(&Topo {
            gateways: vec![(3, 2), (2, 3)],
            epsilon: 1,
            delta: 1,
            rho: 1,
            reconfig: 9,
            eta: 8,
            in_cap: 32,
            out_cap: 128,
            ni_depth: 8,
            src_interval: 1,
            sink_interval: 2,
            sink_budget: 1,
            cycles: 12_000,
        });
    }

    /// Long accelerator service (ρ = 13) with a short reconfiguration
    /// window: drain-flip pinning happens while the span walker holds a
    /// cached gateway horizon. Exercises the Draining-only horizon
    /// refresh rule.
    #[test]
    fn reconfig_window_lands_mid_span() {
        check(&Topo {
            gateways: vec![(2, 3)],
            epsilon: 2,
            delta: 1,
            rho: 13,
            reconfig: 7,
            eta: 4,
            in_cap: 24,
            out_cap: 64,
            ni_depth: 4,
            src_interval: 2,
            sink_interval: 1,
            sink_budget: 2,
            cycles: 14_000,
        });
    }

    /// Drain-flip exactly at a span end: tiny blocks (η = 2) at ε = 3 make
    /// the final DMA send of nearly every block land against a window
    /// boundary, so the Streaming→Draining flip is repeatedly committed by
    /// the *next* invocation through the flip anchor
    /// `(next_send + 1) − ε` — one cycle after the last send, exactly as
    /// the per-cycle reference steps it. Ragged chunked runs additionally
    /// force `run()` ends onto flip cycles.
    #[test]
    fn drain_flip_at_span_end() {
        let t = Topo {
            gateways: vec![(1, 2), (2, 1)],
            epsilon: 3,
            delta: 1,
            rho: 2,
            reconfig: 3,
            eta: 2,
            in_cap: 16,
            out_cap: 64,
            ni_depth: 2,
            src_interval: 2,
            sink_interval: 1,
            sink_budget: 1,
            cycles: 9_973, // prime: chunk ends land on unaligned cycles
        };
        check(&t);
        let ex = run(&t, StepMode::Exhaustive);
        let ev = run_event_chunked(&t, 11);
        match assert_identical(ex, ev) {
            Ok(()) => {}
            Err(TestCaseError::Fail(msg)) => panic!("{msg}"),
            Err(TestCaseError::Reject) => unreachable!(),
        }
    }

    /// A reconfiguration window opening in the middle of what would be a
    /// long quiet span: three streams round-robin over one pair with a
    /// reconfiguration longer than the streaming phase itself (R = 31 vs
    /// η·ε = 8), so the span walker repeatedly parks on a Reconfig horizon
    /// and must resume streaming on the exact `until` cycle.
    #[test]
    fn reconfig_window_splits_span() {
        check(&Topo {
            gateways: vec![(2, 3)],
            epsilon: 2,
            delta: 1,
            rho: 1,
            reconfig: 31,
            eta: 4,
            in_cap: 32,
            out_cap: 64,
            ni_depth: 2,
            src_interval: 1,
            sink_interval: 2,
            sink_budget: 1,
            cycles: 12_000,
        });
    }

    /// Credit exhaustion mid-interval: a single NI credit against ε = 1
    /// and a slow chain (ρ = 6) starves the DMA after every send, so
    /// almost every streaming span degenerates into send → DmaNoCredit
    /// stall → fresh-poll retry. The stall decision must only ever commit
    /// on a same-cycle poll (the span fresh-guard), or stall counts and
    /// block records drift from the reference.
    #[test]
    fn credit_exhaustion_mid_interval() {
        check(&Topo {
            gateways: vec![(3, 2)],
            epsilon: 1,
            delta: 1,
            rho: 6,
            reconfig: 5,
            eta: 6,
            in_cap: 32,
            out_cap: 128,
            ni_depth: 1,
            src_interval: 1,
            sink_interval: 1,
            sink_budget: 1,
            cycles: 11_000,
        });
    }

    /// Zero-cycle kernels (ρ = 0): a firing ends within its own cycle, but
    /// per-cycle stepping holds the output, and keeps the accelerator
    /// active, until the forward one cycle later. The span engine commits
    /// that forward ahead of the clock, so the full trace's accelerator
    /// windows must still count the held output.
    #[test]
    fn zero_cycle_kernels_hold_their_output_a_cycle() {
        let t = Topo {
            gateways: vec![(2, 2), (1, 1)],
            epsilon: 2,
            delta: 1,
            rho: 0,
            reconfig: 9,
            eta: 6,
            in_cap: 32,
            out_cap: 64,
            ni_depth: 2,
            src_interval: 2,
            sink_interval: 1,
            sink_budget: 1,
            cycles: 9_001,
        };
        check(&t);
        let ex = run(&t, StepMode::Exhaustive);
        let ev = run_event_chunked(&t, 5);
        match assert_identical(ex, ev) {
            Ok(()) => {}
            Err(TestCaseError::Fail(msg)) => panic!("{msg}"),
            Err(TestCaseError::Reject) => unreachable!(),
        }
    }

    /// Ragged stop cycles against a hot pipeline: lazily-flushed
    /// processor TDM positions must survive a `run()` boundary placed
    /// inside a delivery burst (the engine's historical stop-cycle
    /// divergence).
    #[test]
    fn mid_burst_stop_and_resume() {
        let t = Topo {
            gateways: vec![(3, 3)],
            epsilon: 1,
            delta: 2,
            rho: 5,
            reconfig: 11,
            eta: 6,
            in_cap: 48,
            out_cap: 96,
            ni_depth: 6,
            src_interval: 1,
            sink_interval: 3,
            sink_budget: 2,
            cycles: 10_007, // prime: legs land on unaligned cycles
        };
        assert!(accepted_by_analyzer(&t), "pinned topology must pass oracle");
        let ex = run(&t, StepMode::Exhaustive);
        let ev = run_event_chunked(&t, 7);
        match assert_identical(ex, ev) {
            Ok(()) => {}
            Err(TestCaseError::Fail(msg)) => panic!("{msg}"),
            Err(TestCaseError::Reject) => unreachable!(),
        }
    }
}

/// The densest supported topology — three gateway pairs, each with a
/// three-deep accelerator chain and three multiplexed streams — pinned as
/// a deterministic regression alongside the random sweep.
#[test]
fn max_topology_three_gateways_three_deep_chains() {
    let t = Topo {
        gateways: vec![(3, 3); 3],
        epsilon: 3,
        delta: 1,
        rho: 4,
        reconfig: 25,
        eta: 12,
        in_cap: 48,
        out_cap: 128,
        ni_depth: 2,
        src_interval: 5,
        sink_interval: 3,
        sink_budget: 2,
        cycles: 20_000,
    };
    assert!(
        accepted_by_analyzer(&t),
        "max topology must pass the oracle"
    );
    let ex = run(&t, StepMode::Exhaustive);
    let ev = run(&t, StepMode::EventDriven);
    match assert_identical(ex, ev) {
        Ok(()) => {}
        Err(TestCaseError::Fail(msg)) => panic!("{msg}"),
        Err(TestCaseError::Reject) => unreachable!(),
    }
}
