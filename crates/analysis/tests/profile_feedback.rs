//! The profiling/monitoring feedback loop, end to end:
//!
//! * the online monitor, armed with analyzer bounds via `monitor_for`,
//!   flags the Fig. 9 head-of-line wedge *during* the run (with the right
//!   stream and cycle) and can stop `run_until` at the first violation;
//! * a clean check-for-space-enabled run keeps the monitor silent;
//! * `RunProfile` JSON round-trips bit-exactly through `parse_profile`;
//! * the profile and blame JSON of one `pal` run are pinned by golden
//!   files (re-record with `GOLDEN_UPDATE=1`).

mod common;

use common::check_golden;
use streamgate_analysis::{
    analyze, analyze_profiled, monitor_for, parse_profile, AnalysisOptions, DeploySpec, RuleId,
};
use streamgate_core::{collect_blame, collect_profile, ViolationKind};
use streamgate_platform::{StallCause, StepMode, System};

const ENGINES: [StepMode; 2] = [StepMode::Exhaustive, StepMode::EventDriven];

/// Build the spec's platform with profiling on and every input prefilled.
fn saturated_profiled(spec: &DeploySpec, mode: StepMode) -> streamgate_core::BuiltSystem {
    let mut b = spec.build_platform();
    b.system.step_mode = mode;
    b.system.enable_profiling(0);
    for (i, s) in spec.streams.iter().enumerate() {
        for k in 0..s.input_capacity {
            if !b.push_input(i, (k as f64, 0.5)) {
                break;
            }
        }
    }
    b
}

/// The cycle at which the (still open) exit-FIFO-full stall started, from
/// the tracer's own records — the ground truth the monitor must match.
fn open_exit_stall_start(system: &System) -> Option<u64> {
    system
        .tracer
        .open_stalls()
        .iter()
        .find(|w| w.1 == StallCause::ExitFifoFull)
        .map(|w| w.2)
}

/// Fig. 9 with the check-for-space admission test disabled: stream 1's
/// block wedges in the shared chain and head-of-line-blocks stream 0. The
/// monitor must flag it mid-run — before the cycle budget runs out — with
/// the wedged stream and the stall's start cycle, on both engines.
#[test]
fn monitor_flags_fig9_wedge_mid_run_with_stream_and_cycle() {
    let spec = DeploySpec::fig9(false);
    let report = analyze(&spec);
    assert!(
        !report.is_accepted(),
        "A5 must reject the unchecked variant"
    );
    for mode in ENGINES {
        let mut b = saturated_profiled(&spec, mode);
        let mut monitor = monitor_for(&spec, &report, &b.system);
        let budget = 20_000;
        let stopped = b.system.run_until(budget, |s| monitor.poll(&s.tracer) > 0);
        assert!(
            stopped,
            "({mode:?}) monitor never fired within {budget} cycles"
        );
        assert!(
            b.system.cycle() < budget,
            "({mode:?}) violation must surface before the run ends"
        );
        let v = monitor
            .violations()
            .iter()
            .find(|v| v.kind == ViolationKind::HeadOfLineBlocking)
            .unwrap_or_else(|| panic!("({mode:?}) no head-of-line violation reported"));
        assert_eq!(v.gateway, Some(0), "({mode:?}) wrong gateway");
        assert_eq!(
            v.stream,
            Some(1),
            "({mode:?}) the wedged block belongs to stream 1 (s1): {v}"
        );
        let start = open_exit_stall_start(&b.system)
            .expect("the wedge keeps an exit-fifo-full stall window open");
        assert_eq!(
            v.cycle, start,
            "({mode:?}) violation cycle must be the stall's start cycle"
        );
    }
}

/// The safe variant: with the admission test enabled the wedge cannot
/// form, `run_until` runs the predicate to exhaustion (the monitor-driven
/// selective-step regression on both engines), and the monitor stays
/// silent over the whole trace.
#[test]
fn monitor_stays_silent_on_fig9_with_space_check() {
    let spec = DeploySpec::fig9(true);
    let report = analyze(&spec);
    let mut blocks_by_engine = Vec::new();
    for mode in ENGINES {
        let mut b = saturated_profiled(&spec, mode);
        let mut monitor = monitor_for(&spec, &report, &b.system);
        let stopped = b.system.run_until(20_000, |s| monitor.poll(&s.tracer) > 0);
        assert!(!stopped, "({mode:?}) monitor fired on a safe run: {:?}", {
            monitor.violations()
        });
        b.system.finish_trace();
        monitor.poll(&b.system.tracer);
        assert!(
            monitor.is_clean(),
            "({mode:?}) violations after finish: {:?}",
            monitor.violations()
        );
        blocks_by_engine.push(
            (0..spec.streams.len())
                .map(|s| b.blocks_done(s))
                .collect::<Vec<_>>(),
        );
        // s1's undersized consumer FIFO means its block is never admitted
        // (that is exactly how the check excludes the wedge) — but s0 must
        // stream freely instead of starving behind it.
        assert!(
            blocks_by_engine.last().unwrap()[0] > 0,
            "({mode:?}) stream 0 starved despite the admission test"
        );
    }
    assert_eq!(
        blocks_by_engine[0], blocks_by_engine[1],
        "engines disagree under a monitor-driven run_until"
    );
}

/// A stream that completed no block has no measured τ. On the Fig. 9 wedge
/// (check-for-space off) stream s1 never finishes a block, so its A10
/// figure says so instead of a τ range of [0, 0] over 0 blocks; s0, which
/// completed one, keeps its measured range.
#[test]
fn a10_gives_no_tau_range_for_a_stream_without_blocks() {
    let spec = DeploySpec::fig9(false);
    for mode in ENGINES {
        let mut b = saturated_profiled(&spec, mode);
        b.system.run(20_000);
        let profile = collect_profile(&mut b.system, &spec.name);
        let blocks: Vec<u64> = profile.streams.iter().map(|s| s.blocks).collect();
        assert_eq!(blocks, [1, 0], "({mode:?}) s1 wedges the chain");
        let report = analyze_profiled(&spec, &AnalysisOptions::default(), Some(&profile));
        let a10 = |stream: &str| {
            let d = report.diagnostics.iter().find(|d| {
                d.rule == RuleId::A10EndToEndLatency && d.location.to_string().ends_with(stream)
            });
            d.unwrap_or_else(|| panic!("({mode:?}) no A10 figure for {stream}"))
                .message
                .clone()
        };
        let (s0, s1) = (a10("s0"), a10("s1"));
        assert!(
            s0.contains("measured tau in [44, 44] over 1 blocks"),
            "{s0}"
        );
        assert!(
            s1.contains("the stream completed no block; tau_hat"),
            "{s1}"
        );
        assert!(!s1.contains("measured tau"), "({mode:?}) {s1}");
    }
}

/// `RunProfile` → JSON → `parse_profile` is the identity, so the analyzer
/// sees exactly what the simulator measured.
#[test]
fn profile_json_roundtrips_through_parser() {
    let spec = DeploySpec::fig6();
    let mut b = saturated_profiled(&spec, StepMode::Exhaustive);
    b.system.run(20_000);
    let profile = collect_profile(&mut b.system, &spec.name);
    let text = profile.to_json_text();
    let back = parse_profile(&text).expect("parse back");
    assert_eq!(profile, back);
    assert_eq!(back.to_json_text(), text);
}

/// The golden `pal` run: a fixed 40 000-cycle exhaustive saturated run.
fn pal_golden_run() -> streamgate_core::BuiltSystem {
    let mut b = saturated_profiled(&DeploySpec::pal_scaled(), StepMode::Exhaustive);
    b.system.run(40_000);
    b
}

/// The profile JSON schema for the `pal` preset, pinned byte-for-byte on
/// [`pal_golden_run`]. Any diff is a deliberate schema/measurement change
/// — re-record with `GOLDEN_UPDATE=1` and review it like an API change.
#[test]
fn pal_profile_json_matches_golden() {
    let spec = DeploySpec::pal_scaled();
    let mut b = pal_golden_run();
    let profile = collect_profile(&mut b.system, "pal");
    check_golden("pal_profile.json", &profile.to_json_text());

    // The measured profile must also feed back cleanly: same acceptance,
    // refinement diagnostics only.
    let report = analyze_profiled(&spec, &AnalysisOptions::default(), Some(&profile));
    assert!(report.is_accepted(), "{}", report.render_text());
}

/// The blame report of the same run, pinned byte-for-byte: per-stream
/// component totals, maxima and histograms, and each stream's worst block
/// with its critical path.
#[test]
fn pal_blame_json_matches_golden() {
    let mut b = pal_golden_run();
    let blame = collect_blame(&mut b.system, "pal");
    check_golden("pal_blame.json", &blame.to_json_text());
}
