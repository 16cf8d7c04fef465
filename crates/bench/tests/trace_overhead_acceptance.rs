//! Acceptance check for the observability layer's overhead contract
//! (DESIGN.md §5): tracing must be close to free, with a pass/fail
//! threshold suitable for CI. The four legs time one at a time, whatever
//! the harness's thread count, and each gates the median of its
//! back-to-back pairs' ratios.
//!
//! Ignored by default (timing tests are meaningless in debug builds and
//! flaky on loaded machines); CI runs it explicitly in release:
//!
//! ```text
//! cargo test -p streamgate-bench --release --test trace_overhead_acceptance -- --ignored
//! ```

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use streamgate_core::{build_pal_system, PalSystemConfig};
use streamgate_platform::{
    AcceleratorTile, CFifo, GatewayPair, PassthroughKernel, StepMode, StreamConfig, System,
};

const CYCLES: u64 = 50_000;
const RUNS: usize = 9;
/// Enabled-tracing (or full-profiling) cost may exceed the disabled cost
/// by at most this factor. Measured on a 2-vCPU host with the legs timed
/// one at a time: 1.10–1.22 traced and 1.08–1.39 profiled; the slack
/// absorbs CI noise.
const MAX_OVERHEAD: f64 = 1.35;
/// The always-on flight recorder (bounded event ring, full tracing off)
/// holds a much stricter contract: it must be cheap enough to leave on in
/// production, so it may not cost more than 5 % — it keeps the event-driven
/// engine's span fast path and only bounds the event buffer.
const MAX_RECORDER_OVERHEAD: f64 = 1.05;
/// On the lock-step loop a full trace observes every cycle, and that
/// observation must not grow with FIFOs nobody touches: a run with this
/// many idle FIFOs added (an admission session that has spliced streams
/// in and out keeps their FIFOs) may cost at most `MAX_IDLE_FIFO_RATIO`
/// times the same run without them.
const IDLE_FIFOS: usize = 72;
const MAX_IDLE_FIFO_RATIO: f64 = 1.15;
/// Cycles of the PAL system per timed run on the exhaustive engine.
const PAL_CYCLES: u64 = 300_000;

/// Held by each leg while it times: the test harness runs tests on
/// parallel threads, and a leg timed while another runs measures the
/// other's load, not its own overhead.
static TIMING: Mutex<()> = Mutex::new(());

/// Wait until no other leg is timing, then keep the others waiting. A
/// leg that failed holding the lock guarded no data, so the next takes it.
fn timing_alone() -> MutexGuard<'static, ()> {
    TIMING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a timed run switches on.
#[derive(Clone, Copy, PartialEq)]
enum Observe {
    Off,
    Trace,
    /// Tracer + ring delivery log + per-FIFO push logs (`enable_profiling`).
    Profile,
    /// Bounded flight recorder only (`enable_flight_recorder`): full
    /// tracing off, last 4096 raw events retained.
    Recorder,
}

/// The two-stream workload: two streams multiplexed over one shared
/// accelerator, saturated inputs, generous outputs. Entry, accelerator
/// and exit are ring-adjacent, so the chain fuses, traced or not.
fn two_stream_system(eta: usize) -> System {
    let mut sys = System::new(4);
    let i0 = sys.add_fifo(CFifo::new("i0", 8192));
    let o0 = sys.add_fifo(CFifo::new("o0", 1 << 20));
    let i1 = sys.add_fifo(CFifo::new("i1", 8192));
    let o1 = sys.add_fifo(CFifo::new("o1", 1 << 20));
    let acc = sys.add_accel(AcceleratorTile::new("acc", 1, 0, 10, 2, 11, 2, 1));
    let mut gw = GatewayPair::new("gw", 0, 2, vec![acc], 1, 10, 1, 11, 2, 3, 1);
    for (name, i, o) in [("s0", i0, o0), ("s1", i1, o1)] {
        gw.add_stream(StreamConfig::new(
            name,
            i,
            o,
            eta,
            eta,
            100,
            vec![Box::new(PassthroughKernel)],
        ));
    }
    sys.add_gateway(gw);
    for k in 0..8192 {
        sys.fifos[i0.0].try_push((k as f64, 0.0), 0);
        sys.fifos[i1.0].try_push((k as f64, 0.0), 0);
    }
    sys
}

fn time_run(observe: Observe) -> f64 {
    let mut sys = two_stream_system(32);
    match observe {
        Observe::Off => {}
        Observe::Trace => sys.enable_tracing(1024),
        Observe::Profile => sys.enable_profiling(1024),
        Observe::Recorder => sys.enable_flight_recorder(4096),
    }
    let start = Instant::now();
    sys.run(CYCLES);
    let elapsed = start.elapsed().as_secs_f64();
    // Keep the run observable so nothing is optimised away.
    assert!(sys.gateways[0].blocks.len() > 10);
    elapsed
}

/// Time `PAL_CYCLES` cycles of the PAL system on the exhaustive engine
/// under a full trace without samples, after adding `idle` FIFOs: each
/// cycle is observed, and the FIFO marks are read when one grew.
fn time_pal_traced(idle: usize) -> f64 {
    let mut pal = build_pal_system(&PalSystemConfig::scaled_default());
    let sys = &mut pal.system;
    for k in 0..idle {
        sys.add_fifo(CFifo::new(format!("idle{k}"), 64));
    }
    sys.step_mode = StepMode::Exhaustive;
    sys.enable_tracing(0);
    let start = Instant::now();
    sys.run(PAL_CYCLES);
    let elapsed = start.elapsed().as_secs_f64();
    assert!(sys.gateways[0].blocks.len() > 10);
    elapsed
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// The gated statistic: the median of the per-pair ratios `num[i] /
/// den[i]`. Each pair is timed back to back, so a change of host speed
/// between pairs scales both runs of a pair and leaves its ratio; it
/// moves the ratio of the two groups' medians when it splits them.
fn median_ratio(num: &[f64], den: &[f64]) -> f64 {
    median(num.iter().zip(den).map(|(n, d)| n / d).collect())
}

fn assert_overhead(label: &str, variant: Observe, max_overhead: f64) {
    let _alone = timing_alone();
    // Warm-up pass for each variant (primes caches and the allocator).
    time_run(Observe::Off);
    time_run(variant);

    // Interleave the variants so drift (thermal, scheduler) hits both.
    let mut disabled = Vec::with_capacity(RUNS);
    let mut enabled = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        disabled.push(time_run(Observe::Off));
        enabled.push(time_run(variant));
    }
    let ratio = median_ratio(&enabled, &disabled);
    let (d, e) = (median(disabled), median(enabled));
    println!(
        "{label} acceptance: disabled {:.3} ms, enabled {:.3} ms (ratio of medians {:.3}), \
         median pair ratio {:.3} (max {})",
        d * 1e3,
        e * 1e3,
        e / d,
        ratio,
        max_overhead
    );
    assert!(
        ratio <= max_overhead,
        "{label} overhead {ratio:.3}x exceeds the {max_overhead}x acceptance threshold \
         (median of {RUNS} pair ratios; disabled median {d:.6}s, enabled median {e:.6}s)"
    );
}

#[test]
#[ignore = "timing acceptance; run in release via CI"]
fn tracing_overhead_within_acceptance_threshold() {
    assert_overhead("trace-overhead", Observe::Trace, MAX_OVERHEAD);
}

/// Full profiling (tracing + ring delivery log + per-FIFO push logs) must
/// fit the same budget: the extra logs are append-only `Vec` pushes on
/// paths that already branch on the tracer.
#[test]
#[ignore = "timing acceptance; run in release via CI"]
fn profiling_overhead_within_acceptance_threshold() {
    assert_overhead("profile-overhead", Observe::Profile, MAX_OVERHEAD);
}

/// The flight recorder's *always-on* contract: recorder on, full tracing
/// off must stay within 5 % of a fully dark run. This is what justifies
/// leaving it enabled in production deployments (the postmortem path
/// depends on it being there when something finally goes wrong).
#[test]
#[ignore = "timing acceptance; run in release via CI"]
fn flight_recorder_overhead_within_acceptance_threshold() {
    assert_overhead(
        "recorder-overhead",
        Observe::Recorder,
        MAX_RECORDER_OVERHEAD,
    );
}

/// Observation cost follows changes, not the number of components: the
/// exhaustive engine under a full trace runs the PAL system plus
/// `IDLE_FIFOS` idle FIFOs within `MAX_IDLE_FIFO_RATIO` of PAL alone.
#[test]
#[ignore = "timing acceptance; run in release via CI"]
fn full_trace_cost_on_the_exhaustive_engine_ignores_idle_fifos() {
    let _alone = timing_alone();
    time_pal_traced(0);
    time_pal_traced(IDLE_FIFOS);
    let mut plain = Vec::with_capacity(RUNS);
    let mut wide = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        plain.push(time_pal_traced(0));
        wide.push(time_pal_traced(IDLE_FIFOS));
    }
    let ratio = median_ratio(&wide, &plain);
    let (p, w) = (median(plain), median(wide));
    println!(
        "idle-fifo acceptance: PAL {:.3} ms, PAL + {IDLE_FIFOS} idle FIFOs {:.3} ms \
         (ratio of medians {:.3}), median pair ratio {:.3} (max {MAX_IDLE_FIFO_RATIO})",
        p * 1e3,
        w * 1e3,
        w / p,
        ratio
    );
    assert!(
        ratio <= MAX_IDLE_FIFO_RATIO,
        "{IDLE_FIFOS} idle FIFOs cost {ratio:.3}x on the exhaustive engine under a full trace, \
         above the {MAX_IDLE_FIFO_RATIO}x threshold (median of {RUNS} pair ratios; medians \
         {p:.6}s and {w:.6}s)"
    );
}
