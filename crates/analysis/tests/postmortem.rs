//! Postmortem acceptance: a failing run observed the way a *deployed*
//! system would observe it — full tracing off, only the bounded flight
//! recorder on, the bound monitor armed with the analyzer's predictions —
//! must produce a postmortem whose **top blame component names the
//! injected cause**:
//!
//! * the Fig. 9 wedge (check-for-space disabled, undersized consumer
//!   FIFO) → `head-of-line` on the wedged stream `s1`;
//! * a forced mode-transition overrun (tight A12 deadline against a
//!   stream with a large reconfiguration window) → `reconfig`.
//!
//! Both dumps must round-trip through `render_postmortem` (the
//! `streamgate-analyze --postmortem` path) with the exceeded component
//! called out against its analytic ceiling, and both are pinned
//! byte-for-byte by golden files (re-record with `GOLDEN_UPDATE=1`).

mod common;

use common::check_golden;
use streamgate_analysis::{
    analyze, analyze_with, monitor_for, render_postmortem, AnalysisOptions, ChainStage, DeploySpec,
    StreamDeploy,
};
use streamgate_core::{collect_postmortem, BlameCause};
use streamgate_ilp::Rational;

/// Fig. 9 wedge: stream `s1`'s consumer FIFO (capacity 4 < η = 16) is
/// never drained and the check-for-space admission test is off, so its
/// block wedges in the shared exit FIFO and head-of-line-blocks `s0`.
#[test]
fn fig9_wedge_postmortem_names_head_of_line_on_s1() {
    let spec = DeploySpec::fig9(false);
    let report = analyze(&spec);
    let mut b = spec.build_platform();
    // Production observability only: bounded recorder, no full trace.
    b.system.enable_flight_recorder(4096);
    for (i, s) in spec.streams.iter().enumerate() {
        for k in 0..s.input_capacity {
            if !b.push_input(i, (k as f64, 0.5)) {
                break;
            }
        }
    }
    b.system.run(20_000);

    let mut monitor = monitor_for(&spec, &report, &b.system);
    assert!(
        monitor.poll(&b.system.tracer) > 0,
        "the Fig. 9 wedge must trip the armed monitor"
    );
    assert!(
        monitor
            .violations()
            .iter()
            .any(|v| v.kind.name() == "head-of-line-blocking" && v.stream_name == "s1"),
        "wedge violation must pin stream s1: {:?}",
        monitor.violations()
    );

    let pm = collect_postmortem(&b.system, &monitor, &spec.name);
    check_golden("fig9_postmortem.json", &pm.to_json_text());
    let blame = pm.blame.as_ref().expect("wedged block must be attributed");
    assert_eq!(blame.stream_name, "s1", "blame must pin the wedged stream");
    assert_eq!(
        blame.block.top_cause().0,
        BlameCause::HeadOfLine,
        "top blame component must name the injected cause: {:?}",
        blame.block.components
    );
    let total: u64 = blame.block.components.iter().sum();
    assert_eq!(
        total,
        blame.block.tau(),
        "in-flight attribution must still tile the elapsed block time"
    );

    // The dump must survive the `streamgate-analyze --postmortem` path and
    // call out the head-of-line component as exceeding its ceiling (0 with
    // the check off would be unsound, so the ceiling is the τ̂ slack — the
    // wedge dwarfs it).
    let json = streamgate_analysis::json::parse(&pm.to_json_text()).expect("dump parses");
    let rendered = render_postmortem(
        &spec,
        &analyze_with(&spec, &AnalysisOptions::default()),
        &json,
    )
    .expect("dump renders");
    assert!(rendered.contains("head-of-line"), "{rendered}");
    assert!(rendered.contains("EXCEEDED"), "{rendered}");
    assert!(rendered.contains("`s1`"), "{rendered}");
}

/// Forced transition overrun: one stream whose reconfiguration window
/// (R = 500) dominates every block, with an A12 deadline armed only 10
/// cycles out. The first post-arm block completes long after the deadline,
/// the monitor reports the overrun, and the postmortem blames `reconfig`.
#[test]
fn forced_transition_overrun_postmortem_names_reconfig() {
    let spec = DeploySpec {
        name: "overrun-forced".into(),
        chain: vec![ChainStage {
            name: "acc".into(),
            rho: 1,
        }],
        epsilon: 2,
        delta: 1,
        ni_depth: 2,
        check_for_space: true,
        streams: vec![StreamDeploy {
            name: "s0".into(),
            mu: Rational::new(1, 1_000_000),
            eta_in: 16,
            eta_out: 16,
            reconfig: 500,
            input_capacity: 4096,
            output_capacity: 1 << 16,
            max_latency: None,
        }],
        processors: vec![],
        gateways: vec![],
        config_bus_period: None,
        station_map: None,
        modes: vec![],
    };
    let report = analyze(&spec);
    assert!(report.is_accepted(), "{}", report.render_text());

    let mut b = spec.build_platform();
    b.system.enable_flight_recorder(4096);
    // Exactly two blocks of input: the run ends with no block in flight,
    // exercising the completed-block fallback of the postmortem path.
    for k in 0..32 {
        assert!(b.push_input(0, (k as f64, 0.5)));
    }
    let mut monitor = monitor_for(&spec, &report, &b.system);
    b.system.run(600);
    monitor.poll(&b.system.tracer);
    assert!(monitor.is_clean(), "{:?}", monitor.violations());

    // The injected failure: a deadline far tighter than R = 500 allows.
    let deadline = b.system.cycle() + 10;
    monitor.arm_transition_deadline(0, "s0", deadline);
    b.system.run(2_000);
    monitor.poll(&b.system.tracer);
    assert!(
        monitor
            .violations()
            .iter()
            .any(|v| v.kind.name() == "transition-overrun"),
        "the tight deadline must fire: {:?}",
        monitor.violations()
    );

    let pm = collect_postmortem(&b.system, &monitor, &spec.name);
    check_golden("overrun_postmortem.json", &pm.to_json_text());
    let blame = pm.blame.as_ref().expect("overrun block must be attributed");
    assert_eq!(blame.stream_name, "s0");
    assert!(
        blame.block.completed,
        "fallback attributes the finished block"
    );
    assert_eq!(
        blame.block.top_cause().0,
        BlameCause::Reconfig,
        "top blame component must name the injected cause: {:?}",
        blame.block.components
    );
    assert_eq!(
        blame.block.components[BlameCause::Reconfig.index()],
        500,
        "the full R window is charged"
    );

    let json = streamgate_analysis::json::parse(&pm.to_json_text()).expect("dump parses");
    let rendered = render_postmortem(
        &spec,
        &analyze_with(&spec, &AnalysisOptions::default()),
        &json,
    )
    .expect("dump renders");
    assert!(rendered.contains("transition-overrun"), "{rendered}");
    assert!(rendered.contains("reconfig"), "{rendered}");
}
