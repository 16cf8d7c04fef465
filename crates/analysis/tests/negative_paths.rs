//! Negative-path tests: hand-built faulty deployments, each pinned to the
//! exact rule ID the analyzer must emit AND the matching failure the
//! cycle-level simulator must exhibit (for the system-scope rules A7/A8,
//! the rate collapse of the shared ring hop / shared chain; A9/A10 concern
//! configuration-time resources only the analyzer sees, so their pins are
//! on the exact reported arithmetic). Where the differential harness
//! randomises, these document the canonical failure modes one by one.

mod common;

use common::{fast_options, run_saturated, run_saturated_multi};
use streamgate_analysis::{analyze, analyze_with, ChainStage, DeploySpec, StreamDeploy};
use streamgate_analysis::{
    analyze_profiled, json, parse_delta_script, parse_profile, AdmissionController,
    AnalysisOptions, AnalysisState, Delta, Json, Report, RuleId, Severity, ETA_LIMIT,
    MU_TERM_LIMIT,
};
use streamgate_core::system_metrics;
use streamgate_ilp::Rational;
use streamgate_platform::StepMode;

/// Two well-behaved streams over a one-accelerator chain — the baseline
/// every fault below perturbs.
fn baseline() -> DeploySpec {
    DeploySpec {
        name: "negative-baseline".into(),
        chain: vec![ChainStage {
            name: "acc".into(),
            rho: 2,
        }],
        epsilon: 3,
        delta: 1,
        ni_depth: 2,
        check_for_space: true,
        streams: (0..2)
            .map(|i| StreamDeploy {
                name: format!("s{i}"),
                mu: Rational::new(1, 40),
                eta_in: 8,
                eta_out: 8,
                reconfig: 10,
                input_capacity: 48,
                output_capacity: 64,
                max_latency: None,
            })
            .collect(),
        processors: vec![],
        gateways: vec![],
        config_bus_period: None,
        station_map: None,
        modes: vec![],
    }
}

#[test]
fn baseline_is_accepted_and_runs() {
    let spec = baseline();
    let report = analyze(&spec);
    assert!(report.is_accepted(), "{}", report.render_text());
    let b = run_saturated(&spec, StepMode::EventDriven, 10_000);
    assert!(b.blocks_done(0) >= 3 && b.blocks_done(1) >= 3);
}

/// Fault 1 — undersized buffer: stream 1's input C-FIFO is one sample short
/// of a block. Expected: **A2 Error** (and the Fig. 5 model deadlocks, A1).
/// Simulator: the gateway never admits the stream — zero blocks, while the
/// healthy stream streams on.
#[test]
fn undersized_buffer_a2_error_matches_deadlock() {
    let mut spec = baseline();
    spec.streams[1].input_capacity = spec.streams[1].eta_in - 1;
    let report = analyze(&spec);
    assert!(report.has(RuleId::A2BufferCapacity, Severity::Error));
    assert!(report.has(RuleId::A1Liveness, Severity::Error));
    assert!(!report.is_accepted());

    for mode in [StepMode::Exhaustive, StepMode::EventDriven] {
        let b = run_saturated(&spec, mode, 10_000);
        assert_eq!(b.blocks_done(1), 0, "{mode:?}: starved stream made a block");
        assert!(
            b.blocks_done(0) >= 3,
            "{mode:?}: healthy stream must be unaffected"
        );
    }
}

/// Fault 2 — infeasible μ: stream 0 demands one sample per 8 cycles, but a
/// single round of the two-stream schedule provably takes longer than the
/// 64 cycles its block would need to arrive in. Expected: **A3 Error**.
/// Simulator: the measured block-to-block gap sustains a rate below μ.
#[test]
fn infeasible_mu_a3_error_matches_throughput_miss() {
    let mut spec = baseline();
    spec.streams[0].mu = Rational::new(1, 8);
    let report = analyze(&spec);
    assert!(report.has(RuleId::A3Throughput, Severity::Error));
    assert!(!report.is_accepted());

    let eta = spec.streams[0].eta_in as i128;
    let mu = spec.streams[0].mu;
    for mode in [StepMode::Exhaustive, StepMode::EventDriven] {
        let b = run_saturated(&spec, mode, 10_000);
        let metrics = system_metrics(&b.system, b.gateway);
        let starts: Vec<u64> = metrics
            .blocks
            .iter()
            .filter(|blk| blk.stream == 0)
            .map(|blk| blk.start)
            .collect();
        assert!(starts.len() >= 2, "{mode:?}: need two blocks to measure");
        let min_gap = starts.windows(2).map(|w| w[1] - w[0]).min().unwrap() as i128;
        assert!(
            eta * mu.denom() < min_gap * mu.numer(),
            "{mode:?}: η/gap = {eta}/{min_gap} sustains μ = {mu}"
        );
    }
}

/// Fault 3 — missing space check (Fig. 9): the exit gateway admits blocks
/// without verifying output space, and stream 1's consumer FIFO cannot hold
/// a block. Expected: **A5 Error**. Simulator: stream 1's block wedges in
/// the shared chain and head-of-line-blocks stream 0 — which, with the
/// check enabled (same capacities), is completely unaffected.
#[test]
fn missing_space_check_a5_error_matches_wedge() {
    let mut wedged = baseline();
    wedged.check_for_space = false;
    wedged.streams[1].output_capacity = wedged.streams[1].eta_out - 1;
    let report = analyze_with(&wedged, &fast_options());
    assert!(report.has(RuleId::A5SpaceCheck, Severity::Error));
    assert!(!report.is_accepted());

    // Same capacities, admission test ON: rejected for stream 1 (A2) but
    // stream 0 must be untouched — the check converts "everyone wedges"
    // into "only the undersized stream is held back".
    let mut checked = wedged.clone();
    checked.check_for_space = true;
    let checked_report = analyze_with(&checked, &fast_options());
    assert!(checked_report.has(RuleId::A2BufferCapacity, Severity::Error));

    for mode in [StepMode::Exhaustive, StepMode::EventDriven] {
        let b = run_saturated(&wedged, mode, 10_000);
        assert_eq!(b.blocks_done(1), 0, "{mode:?}: wedged stream completed");
        assert!(
            b.blocks_done(0) <= 1,
            "{mode:?}: stream 0 did {} blocks through a wedged chain",
            b.blocks_done(0)
        );

        let b = run_saturated(&checked, mode, 10_000);
        assert_eq!(b.blocks_done(1), 0, "{mode:?}: undersized stream admitted");
        assert!(
            b.blocks_done(0) >= 3,
            "{mode:?}: with the check, stream 0 must be unaffected (did {})",
            b.blocks_done(0)
        );
    }
}

/// A multi-gateway baseline for the system-scope faults: two single-stream
/// pairs with their own one-stage chains on one 6-station ring, modest
/// rates, generous NIs — accepted, and both pairs stream in simulation.
fn multi_baseline() -> DeploySpec {
    let gw = |n: usize, mu: Rational| streamgate_analysis::GatewayDeploy {
        name: format!("gw{n}"),
        chain: vec![ChainStage {
            name: format!("acc{n}"),
            rho: 1,
        }],
        shares_chain_with: None,
        streams: vec![StreamDeploy {
            name: format!("s{n}"),
            mu,
            eta_in: 8,
            eta_out: 8,
            reconfig: 4,
            input_capacity: 64,
            output_capacity: 96,
            max_latency: None,
        }],
        config_slot: None,
    };
    DeploySpec {
        name: "multi-negative-baseline".into(),
        chain: vec![],
        epsilon: 1,
        delta: 1,
        ni_depth: 8,
        check_for_space: true,
        streams: vec![],
        processors: vec![],
        gateways: vec![gw(0, Rational::new(1, 20)), gw(1, Rational::new(1, 20))],
        config_bus_period: None,
        station_map: None,
        modes: vec![],
    }
}

#[test]
fn multi_baseline_is_accepted_and_runs() {
    let spec = multi_baseline();
    let report = analyze(&spec);
    assert!(report.is_accepted(), "{}", report.render_text());
    let b = run_saturated_multi(&spec, StepMode::EventDriven, 10_000);
    for g in 0..2 {
        assert!(b.system.gateways[b.gateways[g]].stream(0).blocks_done >= 3);
    }
}

/// Per-stream sustained block rates `η / min(start-to-start gap)` of the
/// two single-stream pairs.
fn sustained_ok(spec: &DeploySpec, b: &streamgate_analysis::MultiBuiltSystem) -> Vec<bool> {
    (0..2)
        .map(|g| {
            let mu = spec.gateways[g].streams[0].mu;
            let eta = spec.gateways[g].streams[0].eta_in as i128;
            let starts: Vec<u64> = system_metrics(&b.system, b.gateways[g])
                .blocks
                .iter()
                .map(|blk| blk.start)
                .collect();
            if starts.len() < 2 {
                return false; // not even two blocks: decisive miss
            }
            let min_gap = starts.windows(2).map(|w| w[1] - w[0]).min().unwrap() as i128;
            eta * mu.denom() >= min_gap * mu.numer()
        })
        .collect()
}

/// Fault 4 — ring over-commitment (A7): both pairs demand μ = 2/3 through
/// the ring hops their paths share. Each pair is locally clean (A3
/// passes), but two 2/3-rate flows cannot cross a 1-flit/cycle hop.
/// Expected: **A7 Error**. Simulator: the pairs cannot BOTH sustain μ.
#[test]
fn ring_overcommit_a7_error_matches_rate_collapse() {
    let mut spec = multi_baseline();
    for g in 0..2 {
        spec.gateways[g].streams[0].mu = Rational::new(2, 3);
        spec.gateways[g].streams[0].reconfig = 1;
    }
    let report = analyze(&spec);
    assert!(report.has(RuleId::A7RingContention, Severity::Error));
    assert!(!report.has(RuleId::A3Throughput, Severity::Error));
    assert!(!report.is_accepted());

    for mode in [StepMode::Exhaustive, StepMode::EventDriven] {
        let b = run_saturated_multi(&spec, mode, 10_000);
        let ok = sustained_ok(&spec, &b);
        assert!(
            !(ok[0] && ok[1]),
            "{mode:?}: both pairs sustained mu = 2/3 across a shared \
             1-flit/cycle hop — A7's rejection would be a false alarm"
        );
    }
}

/// Fault 5 — shared-chain over-commitment (A8): the pairs share ONE
/// physical accelerator and each demands μ = 1/2, claiming the chain
/// 2·(μ·τ̂/η) = 11/8 > 1 of the time. Each pair is locally clean.
/// Expected: **A8 Error**. Simulator: block-by-block round-robin on the
/// chain caps each pair near half the chain throughput — the pairs cannot
/// BOTH sustain μ.
#[test]
fn shared_chain_overcommit_a8_error_matches_rate_collapse() {
    let mut spec = multi_baseline();
    spec.gateways[1].chain = vec![];
    spec.gateways[1].shares_chain_with = Some(0);
    for g in 0..2 {
        spec.gateways[g].streams[0].mu = Rational::new(1, 2);
        spec.gateways[g].streams[0].reconfig = 1;
    }
    let report = analyze(&spec);
    assert!(report.has(RuleId::A8SystemRound, Severity::Error));
    assert!(!report.has(RuleId::A3Throughput, Severity::Error));
    assert!(!report.is_accepted());

    for mode in [StepMode::Exhaustive, StepMode::EventDriven] {
        let b = run_saturated_multi(&spec, mode, 10_000);
        let ok = sustained_ok(&spec, &b);
        assert!(
            !(ok[0] && ok[1]),
            "{mode:?}: both pairs sustained mu = 1/2 on ONE serialised \
             chain — A8's rejection would be a false alarm"
        );
    }
}

/// Fault 6 — configuration-bus slot conflict (A9): both pairs' reconfig
/// slots overlap in the TDM frame, so two gateways would drive the shared
/// config bus at once. Expected: **A9 Error**, with the exact colliding
/// window named. (The bus is a configuration-time resource; the analyzer
/// is the only layer that sees the table, so the pin is on the arithmetic.)
#[test]
fn config_slot_overlap_a9_error_pins_the_window() {
    let mut spec = multi_baseline();
    spec.config_bus_period = Some(10);
    spec.gateways[0].config_slot = Some((0, 6));
    spec.gateways[1].config_slot = Some((4, 4));
    let report = analyze(&spec);
    let err = report
        .diagnostics
        .iter()
        .find(|d| d.rule == RuleId::A9SlotConflict && d.severity == Severity::Error)
        .expect("A9 error");
    assert!(
        err.message
            .contains("gw0's [0, 6) collides with gw1's slot starting at 4"),
        "{}",
        err.message
    );
    assert!(!report.is_accepted());
}

/// Fault 7 — impossible latency budget (A10): the budget is below the
/// idle-chain lower bound fill + R + (η−1)·ε, which no schedule can beat.
/// Expected: **A10 Error** quoting that exact bound. With μ = 1/20 and
/// η = 8: fill = ⌈7·20⌉ = 140, R = 4, DMA = 7 → floor 151 cycles.
#[test]
fn impossible_latency_budget_a10_error_pins_the_floor() {
    let mut spec = multi_baseline();
    spec.gateways[0].streams[0].max_latency = Some(150);
    let report = analyze(&spec);
    let err = report
        .diagnostics
        .iter()
        .find(|d| d.rule == RuleId::A10EndToEndLatency && d.severity == Severity::Error)
        .expect("A10 error");
    assert!(
        err.message
            .contains(">= 151 cycles (fill 140 + R 4 + DMA 7) > max_latency 150"),
        "{}",
        err.message
    );
    assert!(!report.is_accepted());

    // One cycle more and the whole Fig. 7 worst case fits: accepted.
    spec.gateways[0].streams[0].max_latency = Some(10_000);
    let report = analyze(&spec);
    assert!(report.is_accepted(), "{}", report.render_text());
}

/// The A3 structural Error an out-of-range rate must produce, naming the
/// limit.
fn assert_mu_range_error(report: &Report) {
    let err = report
        .diagnostics
        .iter()
        .find(|d| d.rule == RuleId::A3Throughput && d.severity == Severity::Error)
        .expect("A3 error");
    assert!(
        err.message
            .contains(&format!("must each be at most {MU_TERM_LIMIT} (2^40)")),
        "{}",
        err.message
    );
    assert!(!report.is_accepted());
}

/// Fault 8 — out-of-range rate in an admission request: μ = 1/10²⁰ has a
/// denominator above `MU_TERM_LIMIT`. Its Algorithm 1 solve would overflow
/// the exact simplex. Expected: **A3 Error** and a Reject, not a panic.
/// μ = 1/2⁴⁰, exactly at the limit, is still modelled, down to the exact
/// A2 buffer search, and admitted.
#[test]
fn out_of_range_mu_delta_is_rejected_not_a_panic() {
    let deltas = parse_delta_script(
        r#"{"deltas": [{"op": "add", "gateway": 1, "stream": {"name": "slow",
            "mu": [1, 100000000000000000000], "eta_in": 8, "eta_out": 8,
            "reconfig": 20, "input_capacity": 64, "output_capacity": 64}}]}"#,
    )
    .expect("the script parses");
    let state = AnalysisState::new(DeploySpec::pal2(), AnalysisOptions::default());
    let verdict = state.evaluate(&deltas[0]).expect("well-formed delta");
    assert!(!verdict.is_admitted());
    assert_mu_range_error(verdict.report());

    let Delta::AddStream { stream, .. } = &deltas[0] else {
        unreachable!("the script holds one add");
    };
    let at_limit = Delta::AddStream {
        gateway: 1,
        stream: StreamDeploy {
            mu: Rational::new(1, MU_TERM_LIMIT),
            ..stream.clone()
        },
    };
    let verdict = state.evaluate(&at_limit).expect("well-formed delta");
    assert!(verdict.is_admitted(), "{}", verdict.report().render_text());
}

/// The same fault in a spec-JSON document: the baseline's s1 demands
/// μ = 1/10²⁰. Expected: it parses, and the analyzer rejects it with the
/// A3 range Error.
#[test]
fn out_of_range_mu_spec_json_is_rejected_not_a_panic() {
    let spec = DeploySpec::from_json_text(
        r#"{"name": "negative-mu-range", "chain": [{"name": "acc", "rho": 2}],
            "epsilon": 3, "delta": 1, "ni_depth": 2, "check_for_space": true,
            "streams": [
              {"name": "s0", "mu": [1, 40], "eta_in": 8, "eta_out": 8, "reconfig": 10,
               "input_capacity": 48, "output_capacity": 64},
              {"name": "s1", "mu": [1, 100000000000000000000], "eta_in": 8, "eta_out": 8,
               "reconfig": 10, "input_capacity": 48, "output_capacity": 64}],
            "processors": []}"#,
    )
    .expect("the fixture parses");
    assert_mu_range_error(&analyze(&spec));
}

/// The `pal` preset's measured profile (see `profile_feedback.rs`).
const PAL_PROFILE: &str = include_str!("golden/pal_profile.json");

/// The pal golden profile with one top-level integer replaced: `cycles`
/// (`index` = `None`) or entry `index` of `field`.
fn pal_profile_with(field: &str, index: Option<usize>, value: u64) -> String {
    let mut v = json::parse(PAL_PROFILE).expect("the golden parses");
    let Json::Object(m) = &mut v else {
        unreachable!("a profile is an object");
    };
    let (_, slot) = m
        .iter_mut()
        .find(|(k, _)| k == field)
        .expect("the golden has the field");
    let slot = match (index, slot) {
        (Some(i), Json::Array(a)) => &mut a[i],
        (_, slot) => slot,
    };
    *slot = Json::Int(value.into());
    v.to_text()
}

/// Fault 9 — a malformed profile window list: each `windows` entry and
/// `cycles` of the pal golden, replaced with u64::MAX and with 0, so the
/// list no longer rises strictly from 1 to `cycles + 1`. Unchecked, a
/// u64::MAX window reaches the A7 envelope arithmetic. Expected:
/// `parse_profile` rejects every variant.
#[test]
fn malformed_profile_windows_are_rejected_not_a_panic() {
    let windows = parse_profile(PAL_PROFILE).expect("golden").windows.len();
    let fields = (0..windows)
        .map(|i| ("windows", Some(i)))
        .chain([("cycles", None)]);
    for (field, index) in fields {
        for value in [u64::MAX, 0] {
            let err = parse_profile(&pal_profile_with(field, index, value))
                .expect_err(&format!("{field}[{index:?}] = {value} parsed"));
            assert!(
                err.contains("`windows`"),
                "{field}[{index:?}] = {value}: {err}"
            );
        }
    }

    // A curve whose trough exceeds its peak is rejected too.
    let text = PAL_PROFILE.replacen("\"min\":[0,", "\"min\":[2,", 1);
    assert_ne!(text, PAL_PROFILE);
    let err = parse_profile(&text).expect_err("min > max parsed");
    assert!(err.contains("exceeds max"), "{err}");
}

/// A `RunProfile` built in code skips the parser's checks, so the
/// analyzer's window arithmetic saturates instead: every window at
/// u64::MAX overflows neither the A7 envelope nor A10's measured figure.
#[test]
fn code_built_profile_with_extreme_windows_does_not_overflow() {
    let mut p = parse_profile(PAL_PROFILE).expect("golden");
    p.cycles = u64::MAX;
    let curves = p
        .data_hops
        .iter_mut()
        .chain(&mut p.credit_hops)
        .map(|h| &mut h.curve)
        .chain(p.streams.iter_mut().flat_map(|s| {
            std::iter::once(&mut s.completions).chain(s.arrival.as_mut().map(|a| &mut a.curve))
        }));
    for c in curves {
        c.windows.fill(u64::MAX);
    }
    p.windows.fill(u64::MAX);
    let spec = DeploySpec::pal_scaled();
    let report = analyze_profiled(&spec, &AnalysisOptions::default(), Some(&p));
    assert!(report.is_accepted(), "{}", report.render_text());
}

/// The `fig6` preset scaled to block size `eta`, both buffers at 4η.
fn fig6_with_eta(eta: u64) -> DeploySpec {
    let mut spec = DeploySpec::fig6();
    let s = &mut spec.streams[0];
    s.eta_in = eta;
    s.eta_out = eta;
    s.input_capacity = 4 * eta;
    s.output_capacity = 4 * eta;
    spec
}

/// Fault 10 — a block the generic CSDF run could not finish: at η = 4096
/// the free-running producer used to spend `simulate`'s firing cap
/// (Σ targets + 1000) first, and A1's Info claimed two blocks complete
/// after 7958 consumer firings. Expected: A1 counts both blocks, 8192
/// firings.
#[test]
fn a1_reports_two_real_blocks_at_large_eta() {
    let report = analyze_with(&fig6_with_eta(4096), &fast_options());
    assert!(report.is_accepted(), "{}", report.render_text());
    let a1 = report
        .diagnostics
        .iter()
        .find(|d| d.rule == RuleId::A1Liveness && d.severity == Severity::Info)
        .expect("A1 info");
    assert!(
        a1.message.contains("two blocks (8192 consumer firings)"),
        "{}",
        a1.message
    );
}

/// Fault 11 — a block size above `ETA_LIMIT`: A1's evaluation time grows
/// with η, and the generic run allocated η-long phase tables (32 GiB at
/// η = 2³²). Expected: a structural **A1 Error** and a rejection.
#[test]
fn eta_above_the_limit_is_an_a1_error_not_an_allocation() {
    for eta in [ETA_LIMIT + 1, 1 << 32] {
        let report = analyze_with(&fig6_with_eta(eta), &fast_options());
        assert!(!report.is_accepted());
        let err = report
            .diagnostics
            .iter()
            .find(|d| d.rule == RuleId::A1Liveness && d.severity == Severity::Error)
            .expect("A1 error");
        assert!(
            err.message
                .contains(&format!("block sizes up to {ETA_LIMIT}")),
            "{}",
            err.message
        );
    }
}

/// The rate denominators of a reported crash: each is above
/// `MU_TERM_LIMIT`, and four of them on one pair used to overflow the
/// exact utilisation sum before the range check could reject them.
const ABOVE_LIMIT_DENOMS: [i128; 4] = [8796093022151, 8796093022141, 8796093022129, 8796093022117];

/// The four largest primes below `MU_TERM_LIMIT`: every rate is modelled,
/// but their exact sum needs a common denominator near 2¹⁶⁰.
const COPRIME_DENOMS: [i128; 4] = [1099511627689, 1099511627609, 1099511627581, 1099511627573];

/// A `gw-back` stream of rate `1/denom` with η = 96.
fn slow_stream(k: usize, denom: i128) -> StreamDeploy {
    let mut s = DeploySpec::pal2().gateways[1].streams[0].clone();
    s.name = format!("slow{k}");
    s.mu = Rational::new(1, denom);
    s.eta_in = 96;
    s.eta_out = 12;
    s.input_capacity = 4 * 96;
    s.output_capacity = 64;
    s.max_latency = None;
    s
}

/// `pal2` plus one slow stream on `gw-back` per denominator.
fn pal2_with_slow_streams(denoms: &[i128]) -> DeploySpec {
    let mut spec = DeploySpec::pal2();
    for (k, &d) in denoms.iter().enumerate() {
        spec.gateways[1].streams.push(slow_stream(k, d));
    }
    spec
}

/// The structural Error an exact-rate overflow must produce.
fn assert_rate_overflow_error(report: &Report) {
    assert!(!report.is_accepted());
    assert!(
        report
            .with_severity(Severity::Error)
            .any(|d| d.message.contains("overflows i128")),
        "{}",
        report.render_text()
    );
}

/// Fault 12 — exact rate sums that overflow `i128`. Four streams with
/// large, pairwise coprime rate denominators on one pair: A3's utilisation
/// `c0·Σμ`, the A7 ring-load sums and A8's group sum cannot be held
/// exactly. Expected: a structural Error and a rejection, never a panic,
/// through a full analysis, `evaluate` and `request`.
#[test]
fn exact_rate_overflow_is_a_diagnostic_not_a_panic() {
    let report = analyze_with(
        &pal2_with_slow_streams(&ABOVE_LIMIT_DENOMS),
        &fast_options(),
    );
    assert_mu_range_error(&report);
    assert_rate_overflow_error(&analyze_with(
        &pal2_with_slow_streams(&COPRIME_DENOMS),
        &fast_options(),
    ));

    // Two coprime slow streams still fit; the third request overflows.
    let base = pal2_with_slow_streams(&COPRIME_DENOMS[..2]);
    let mut ctrl = AdmissionController::new(base.clone(), fast_options());
    assert!(
        ctrl.report().is_accepted(),
        "{}",
        ctrl.report().render_text()
    );
    let mut built = base.build_multi_platform();
    for (k, &d) in COPRIME_DENOMS.iter().enumerate().skip(2) {
        let add = Delta::AddStream {
            gateway: 1,
            stream: slow_stream(k, d),
        };
        let verdict = ctrl.evaluate(&add).expect("well-formed delta");
        assert_rate_overflow_error(verdict.report());
        let outcome = ctrl
            .request(&mut built.system, &built.gateways, &add, None)
            .expect("a rejection is not an error");
        assert!(!outcome.verdict.is_admitted());
        assert_eq!(built.system.cycle(), 0, "a rejection touches no platform");
    }
    for (k, &d) in ABOVE_LIMIT_DENOMS.iter().enumerate() {
        let add = Delta::AddStream {
            gateway: 1,
            stream: slow_stream(COPRIME_DENOMS.len() + k, d),
        };
        assert_mu_range_error(ctrl.evaluate(&add).expect("well-formed delta").report());
    }
}

/// Fault 13 — a block size whose worst-case block time τ̂ = R + (η + 2)·c0
/// does not fit `u64`. A release build used to print the wrapped γ in A3
/// and A10 messages; a debug build panicked before A1's `ETA_LIMIT` check
/// could reject the stream. Expected: one structural Error naming the
/// stream, no rule quoting a wrapped γ, and a rejection.
#[test]
fn tau_hat_overflow_is_a_diagnostic_not_a_wrapped_gamma() {
    let mut spec = DeploySpec::pal2();
    let s = &mut spec.gateways[1].streams[0];
    s.eta_in = u64::MAX / 4;
    s.eta_out = s.eta_in / 8;
    let name = s.name.clone();
    let report = analyze_with(&spec, &fast_options());
    assert!(!report.is_accepted());
    let overflow: Vec<_> = report
        .with_severity(Severity::Error)
        .filter(|d| d.message.contains("tau-hat") && d.message.contains("overflows u64"))
        .collect();
    assert_eq!(overflow.len(), 1, "{}", report.render_text());
    assert!(
        matches!(&overflow[0].location, streamgate_analysis::Location::Stream { name: n, .. } if *n == name),
        "{:?}",
        overflow[0].location
    );
    let text = report.render_text();
    let wrapped = (u64::MAX / 4 + 2).wrapping_mul(15).wrapping_add(4100);
    assert!(!text.contains(&wrapped.to_string()), "{text}");
    // The rules that need this pair's γ skip it.
    assert!(
        !report.diagnostics.iter().any(|d| matches!(
            d.rule,
            RuleId::A2BufferCapacity | RuleId::A10EndToEndLatency
        ) && d.message.contains("gamma")
            && d.location.to_string().contains(&name)),
        "{text}"
    );
}
