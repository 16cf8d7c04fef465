//! FIFO high-water marks are read only when one can have grown.
//!
//! `System::observe` skips its read of the FIFO marks unless a push raised
//! a mark, the FIFO set changed or the tracer was replaced since the
//! tracer's last read. The emitted `FifoHighWater` events must be exactly
//! those of a full read on every observed cycle. These tests keep that
//! full read as a reference: a shadow tracer fed every FIFO's mark after
//! each exhaustive step. They cover the ways a mark or the FIFO set can
//! change outside the engine, compare the event engine with the
//! exhaustive one, and pin the number of reads as a work counter.

use streamgate_core::{build_pal_system, PalSystemConfig};
use streamgate_platform::{
    AcceleratorTile, CFifo, GatewayPair, ProcessorTile, RateSource, ScaleKernel, SinkTask,
    StepMode, StreamConfig, System, TraceEvent, Tracer,
};

/// source -> `in` -> gateway {1 accel} -> `out` -> sink.
fn small() -> System {
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
    sys
}

/// A FIFO of `cap` locations already holding `n` samples.
fn filled(name: &str, cap: usize, n: usize) -> CFifo {
    let mut f = CFifo::new(name, cap);
    for k in 0..n {
        assert!(f.try_push((k as f64, 0.0), 0));
    }
    f
}

/// The `FifoHighWater` events of a log, in order.
fn marks(events: &[TraceEvent]) -> Vec<TraceEvent> {
    events
        .iter()
        .filter(|e| matches!(e, TraceEvent::FifoHighWater { .. }))
        .cloned()
        .collect()
}

/// Something done to a system between runs.
#[derive(Clone, Copy, Debug)]
enum Act {
    /// Run this many cycles.
    Run(u64),
    /// Push samples into FIFO `.0` from outside, as a feeder does.
    Feed(usize, usize),
    /// `splice_fifo` a FIFO already holding samples.
    Splice(usize),
    /// Push a FIFO holding samples straight onto `System::fifos`.
    PushDirect(usize),
    /// Assign a FIFO holding samples over entry `.0` of `System::fifos`.
    Replace(usize, usize),
    /// `enable_flight_recorder` (a no-op over a full trace).
    Recorder,
    /// `enable_tracing`.
    Trace,
    /// `enable_profiling`.
    Profile,
    /// Assign a fresh full tracer to `System::tracer`.
    Assign,
}

/// Every change the tests make between runs, in one script. Each lands
/// where the event engine, too, steps the next cycle (the input feeds wake
/// the gateway), so both engines must log it identically.
const SCRIPT: &[Act] = &[
    Act::Recorder,
    Act::Run(700),
    Act::Feed(0, 40),
    Act::Run(900),
    Act::Trace,
    Act::Run(500),
    Act::Splice(5),
    Act::Run(300),
    Act::Feed(2, 9),
    Act::Feed(0, 30),
    Act::Run(600),
    Act::PushDirect(7),
    Act::Run(400),
    Act::Feed(3, 11),
    Act::Feed(0, 50),
    Act::Run(800),
    Act::Profile,
    Act::Run(600),
    Act::Replace(2, 12),
    Act::Feed(0, 20),
    Act::Run(500),
    Act::Assign,
    Act::Run(700),
    Act::Feed(0, 60),
    Act::Run(1500),
];

/// Apply one non-run action.
fn apply(sys: &mut System, act: Act) {
    let now = sys.cycle();
    match act {
        Act::Run(_) => unreachable!("runs are driven by the caller"),
        Act::Feed(i, n) => {
            for k in 0..n {
                sys.fifos[i].try_push((k as f64, 1.0), now);
            }
        }
        Act::Splice(n) => {
            sys.splice_fifo(filled("spliced", 64, n));
        }
        Act::PushDirect(n) => sys.fifos.push(filled("pushed", 64, n)),
        Act::Replace(i, n) => sys.fifos[i] = filled("replaced", 64, n),
        Act::Recorder => sys.enable_flight_recorder(1 << 20),
        Act::Trace => sys.enable_tracing(64),
        Act::Profile => sys.enable_profiling(32),
        Act::Assign => sys.tracer = Tracer::enabled(16),
    }
}

/// True for the acts that install a new tracer.
fn swaps_tracer(act: Act) -> bool {
    matches!(act, Act::Recorder | Act::Trace | Act::Profile | Act::Assign)
}

/// One step of `sys`, with `shadow` fed every FIFO's mark afterwards.
fn step_with_reference(sys: &mut System, shadow: &mut Tracer) {
    let now = sys.cycle();
    sys.step();
    for (i, f) in sys.fifos.iter().enumerate() {
        shadow.fifo_high_water(i, f.high_water(), now);
    }
}

/// Run the script on the exhaustive engine, one `step` at a time, beside a
/// shadow tracer fed every FIFO's mark after every step. Returns the
/// system's and the shadow's `FifoHighWater` events over all tracers.
fn exhaustive_with_reference() -> (Vec<TraceEvent>, Vec<TraceEvent>) {
    let mut sys = small();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    let mut shadow = Tracer::enabled(0);
    for &act in SCRIPT {
        if let Act::Run(n) = act {
            for _ in 0..n {
                if sys.tracer.is_enabled() {
                    step_with_reference(&mut sys, &mut shadow);
                } else {
                    sys.step();
                }
            }
            continue;
        }
        if swaps_tracer(act) && !(matches!(act, Act::Recorder) && sys.tracer.is_full()) {
            got.extend(marks(sys.tracer.events()));
            want.extend(marks(shadow.events()));
            shadow = Tracer::enabled(0);
        }
        apply(&mut sys, act);
    }
    got.extend(marks(sys.tracer.events()));
    want.extend(marks(shadow.events()));
    (got, want)
}

#[test]
fn exhaustive_marks_match_a_full_read_every_cycle() {
    let (got, want) = exhaustive_with_reference();
    assert!(want.len() > 20, "the script must raise marks: {want:?}");
    assert_eq!(got, want);
}

/// The full event log of each tracer the script installs, run with
/// `System::run` on `mode`.
fn scripted_logs(mode: StepMode) -> (Vec<Vec<TraceEvent>>, System) {
    let mut sys = small();
    sys.step_mode = mode;
    let mut logs = Vec::new();
    for &act in SCRIPT {
        match act {
            Act::Run(n) => sys.run(n),
            _ if swaps_tracer(act) && !(matches!(act, Act::Recorder) && sys.tracer.is_full()) => {
                sys.finish_trace();
                logs.push(std::mem::take(&mut sys.tracer).events().to_vec());
                apply(&mut sys, act);
            }
            _ => apply(&mut sys, act),
        }
    }
    sys.finish_trace();
    logs.push(sys.tracer.events().to_vec());
    (logs, sys)
}

#[test]
fn event_engine_trace_matches_exhaustive_engine() {
    let (ev, ev_sys) = scripted_logs(StepMode::EventDriven);
    let (ex, ex_sys) = scripted_logs(StepMode::Exhaustive);
    assert_eq!(ev.len(), ex.len());
    // The first two logs are the initial disabled tracer and the flight
    // recorder, under which the event engine takes the span path and
    // observes nothing. Every full trace must match event for event.
    for (k, (a, b)) in ev.iter().zip(&ex).enumerate().skip(2) {
        assert!(!marks(a).is_empty(), "tracer {k} recorded no marks");
        assert_eq!(a, b, "tracer {k}: engines disagree");
    }
    let counters = |s: &System| {
        s.fifos
            .iter()
            .map(|f| (f.pushed, f.popped, f.high_water()))
            .collect::<Vec<_>>()
    };
    assert_eq!(counters(&ev_sys), counters(&ex_sys));
    assert!(
        ev_sys.engine_stats.skipped_cycles > 0,
        "event engine never skipped"
    );
}

/// A change made to a system from outside the engine; the second system
/// lends a FIFO.
type Change = fn(&mut System, &mut System);

#[test]
fn each_change_outside_the_engine_is_read_once_at_the_next_observation() {
    // No tiles: only the changes below move a mark.
    let mut sys = System::new(2);
    sys.add_fifo(filled("held", 16, 3));
    sys.add_fifo(CFifo::new("fed", 16));
    let mut other = System::new(2);
    other.add_fifo(filled("lent", 16, 9));
    sys.enable_tracing(0);
    let changes: [(&str, Change); 10] = [
        ("feed a FIFO", |s, _| {
            let now = s.cycle();
            for k in 0..5 {
                assert!(s.fifos[1].try_push((k as f64, 0.0), now));
            }
        }),
        ("splice a FIFO holding samples", |s, _| {
            s.splice_fifo(filled("spliced", 16, 4));
        }),
        ("push a FIFO onto fifos", |s, _| {
            s.fifos.push(filled("pushed", 16, 6))
        }),
        ("replace a FIFO in place", |s, _| {
            s.fifos[0] = filled("replaced", 16, 7)
        }),
        ("push another system's FIFO", |s, o| {
            s.fifos.push(o.fifos[0].clone())
        }),
        ("feed that FIFO", |s, _| {
            let (now, last) = (s.cycle(), s.fifos.len() - 1);
            for k in 0..6 {
                assert!(s.fifos[last].try_push((k as f64, 0.0), now));
            }
        }),
        ("enable_tracing", |s, _| s.enable_tracing(0)),
        ("enable_profiling", |s, _| s.enable_profiling(0)),
        ("assign a fresh tracer", |s, _| {
            s.tracer = Tracer::enabled(0)
        }),
        ("enable_flight_recorder over a disabled tracer", |s, _| {
            s.tracer = Tracer::disabled();
            s.enable_flight_recorder(1 << 10);
        }),
    ];
    let (mut got, mut want) = (Vec::new(), Vec::new());
    let mut shadow = Tracer::enabled(0);
    step_with_reference(&mut sys, &mut shadow);
    for (what, change) in changes {
        let scans = sys.engine_stats.high_water_scans;
        if what.starts_with("enable") || what.contains("tracer") {
            got.extend(marks(sys.tracer.events()));
            want.extend(marks(shadow.events()));
            shadow = Tracer::enabled(0);
        }
        change(&mut sys, &mut other);
        for _ in 0..3 {
            step_with_reference(&mut sys, &mut shadow);
        }
        assert_eq!(
            sys.engine_stats.high_water_scans,
            scans + 1,
            "{what}: one read at the next observation"
        );
    }
    got.extend(marks(sys.tracer.events()));
    want.extend(marks(shadow.events()));
    assert_eq!(got, want);
    // Every new tracer reported every mark at its first observation.
    assert!(want.len() > 4 * sys.fifos.len(), "{want:?}");
}

#[test]
fn a_tracer_taken_from_another_system_reads_this_systems_marks() {
    let traced = |n| {
        let mut s = System::new(2);
        s.add_fifo(filled("f", 16, n));
        s.enable_tracing(0);
        s.step();
        s
    };
    // The same growth count and number of FIFOs: only the owner of the
    // tracer's last read tells the two apart.
    let (mut a, mut b) = (traced(4), traced(6));
    b.tracer = std::mem::take(&mut a.tracer);
    b.step();
    let want = |cycle, level| TraceEvent::FifoHighWater {
        fifo: 0,
        cycle,
        level,
    };
    assert_eq!(marks(b.tracer.events()), [want(0, 4), want(1, 6)]);
}

/// The PAL system of Fig. 10 at the scaled operating point.
fn pal() -> System {
    build_pal_system(&PalSystemConfig::scaled_default()).system
}

/// `extra` FIFOs nobody reads or writes.
fn add_idle_fifos(sys: &mut System, extra: usize) {
    for k in 0..extra {
        sys.add_fifo(CFifo::new(format!("idle{k}"), 64));
    }
}

/// Step `sys` exhaustively for `cycles` cycles and count the cycles in
/// which some FIFO mark grew (a full read of every FIFO after each step).
fn steps_with_growth(sys: &mut System, cycles: u64) -> u64 {
    let read = |s: &System| s.fifos.iter().map(CFifo::high_water).collect::<Vec<_>>();
    let mut before = read(sys);
    let mut grew = 0;
    for _ in 0..cycles {
        sys.step();
        let after = read(sys);
        grew += u64::from(after != before);
        before = after;
    }
    grew
}

#[test]
fn a_traced_exhaustive_pal_run_reads_marks_per_growth_not_per_cycle() {
    const CYCLES: u64 = 20_000;
    let mut plain = pal();
    let mut wide = pal();
    add_idle_fifos(&mut wide, 72);
    for sys in [&mut plain, &mut wide] {
        sys.enable_tracing(0);
    }
    // The first observation reads every mark for the new tracer; after
    // that, only cycles that raise a mark are read.
    steps_with_growth(&mut wide, 1);
    let grew = steps_with_growth(&mut wide, CYCLES - 1);
    assert_eq!(wide.engine_stats.high_water_scans, 1 + grew);
    assert!(grew > 10, "PAL raises marks while filling its buffers");
    assert!(
        wide.engine_stats.high_water_scans * 20 < CYCLES,
        "{} reads in {CYCLES} cycles",
        wide.engine_stats.high_water_scans
    );
    // Idle FIFOs add no reads.
    steps_with_growth(&mut plain, 1);
    assert_eq!(steps_with_growth(&mut plain, CYCLES - 1), grew);
    assert_eq!(
        plain.engine_stats.high_water_scans,
        wide.engine_stats.high_water_scans
    );
    assert_eq!(marks(plain.tracer.events()), marks(wide.tracer.events()));
}

#[test]
fn two_systems_in_one_thread_do_not_trigger_each_others_reads() {
    let mut busy = pal();
    busy.enable_tracing(0);
    busy.step();
    let mut idle = System::new(2);
    idle.add_fifo(filled("held", 16, 4));
    idle.add_fifo(CFifo::new("empty", 16));
    idle.enable_tracing(0);
    idle.step();
    assert_eq!(idle.engine_stats.high_water_scans, 1);
    let mut grew = 0;
    for _ in 0..3000 {
        grew += steps_with_growth(&mut busy, 1);
        idle.step();
    }
    assert!(grew > 0);
    assert_eq!(busy.engine_stats.high_water_scans, grew + 1);
    assert_eq!(
        idle.engine_stats.high_water_scans, 1,
        "busy's growth leaked"
    );

    // And the other way round: growth in `idle` reads `idle` only.
    let before = busy.engine_stats.high_water_scans;
    let now = idle.cycle();
    for k in 0..6 {
        idle.fifos[1].try_push((k as f64, 0.0), now);
    }
    let busy_grew = steps_with_growth(&mut busy, 1);
    idle.step();
    assert_eq!(idle.engine_stats.high_water_scans, 2);
    assert_eq!(busy.engine_stats.high_water_scans, before + busy_grew);
}

#[test]
fn system_and_fifo_stay_send() {
    fn send<T: Send>() {}
    send::<System>();
    send::<CFifo>();
    send::<Tracer>();
}
