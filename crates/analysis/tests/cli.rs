//! Integration tests for the `streamgate-analyze` exit-code contract and
//! the `--delta` incremental-admission mode.
//!
//! The contract (documented in the binary's `--help`): exit 0 when the
//! deployment is accepted — Warnings and Infos alone never fail a run —
//! and exit 2 when it is rejected or the invocation itself is unusable.
//! Exit 1 is reserved for crashes, so CI can distinguish "analyzer said
//! no" from "analyzer broke".

use std::process::Command;

fn analyze(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_streamgate-analyze"))
        .args(args)
        .output()
        .expect("spawn streamgate-analyze")
}

#[test]
fn accepted_deployment_exits_zero() {
    let out = analyze(&["pal2"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("verdict: ACCEPTED"), "{text}");
}

#[test]
fn warning_only_deployment_exits_zero() {
    // fig6 with the check-for-space admission test disabled but buffers
    // sized carries an A5 Warning and no Error: warnings must not fail
    // the run.
    let mut spec = streamgate_analysis::DeploySpec::fig6();
    spec.check_for_space = false;
    let report = streamgate_analysis::analyze(&spec);
    assert!(report.is_accepted(), "{}", report.render_text());
    assert!(
        report
            .with_severity(streamgate_analysis::Severity::Warning)
            .count()
            > 0,
        "fixture must carry a warning:\n{}",
        report.render_text()
    );

    let dir = std::env::temp_dir().join("streamgate-analyze-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("warn-only.json");
    std::fs::write(&file, spec.to_json_text()).unwrap();

    let out = analyze(&["--spec", file.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("warning"), "expected warnings in:\n{text}");
    assert!(text.contains("verdict: ACCEPTED"), "{text}");
    assert_eq!(out.status.code(), Some(0), "{text}");
}

#[test]
fn rejected_deployment_exits_two() {
    let out = analyze(&["fig9-broken"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("verdict: REJECTED"), "{text}");
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(analyze(&["--spec"]).status.code(), Some(2));
    assert_eq!(analyze(&["no-such-preset"]).status.code(), Some(2));
    assert_eq!(analyze(&["--bogus-flag"]).status.code(), Some(2));
    assert_eq!(
        analyze(&["--delta", "/nonexistent/deltas.json", "pal2"])
            .status
            .code(),
        Some(2)
    );
}

#[test]
fn delta_mode_replays_churn_and_reports_final_state() {
    let dir = std::env::temp_dir().join("streamgate-analyze-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("deltas.json");
    let timing = dir.join("timing.json");
    std::fs::write(
        &script,
        r#"{"deltas": [
            {"op": "add", "gateway": 1, "stream": {"name": "probe", "mu": [1, 1000000],
             "eta_in": 8, "eta_out": 8, "reconfig": 20,
             "input_capacity": 64, "output_capacity": 64}},
            {"op": "add", "gateway": 1, "stream": {"name": "hog", "mu": [1, 2],
             "eta_in": 8, "eta_out": 8, "reconfig": 20,
             "input_capacity": 64, "output_capacity": 64}},
            {"op": "remove", "gateway": 1, "stream": "probe"}
        ]}"#,
    )
    .unwrap();

    let out = analyze(&[
        "--delta",
        script.to_str().unwrap(),
        "--timing",
        timing.to_str().unwrap(),
        "pal2",
    ]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("delta 0: add probe @ gateway 1 -> admit"),
        "{text}"
    );
    assert!(
        text.contains("delta 1: add hog @ gateway 1 -> reject"),
        "{text}"
    );
    assert!(
        text.contains("delta 2: remove probe @ gateway 1 -> admit"),
        "{text}"
    );
    // Final committed deployment is the baseline again: accepted, exit 0
    // even though one request along the way was rejected.
    assert!(text.contains("verdict: ACCEPTED"), "{text}");
    assert_eq!(out.status.code(), Some(0), "{text}");

    let timing_text = std::fs::read_to_string(&timing).unwrap();
    assert!(timing_text.contains("\"incremental_ns\""), "{timing_text}");
    assert!(timing_text.contains("\"full_ns\""), "{timing_text}");
    assert!(timing_text.contains("\"speedup\""), "{timing_text}");
}

#[test]
fn postmortem_mode_renders_dump_against_spec_bounds() {
    // Produce a real flight-recorder dump: the Fig. 9 wedge observed with
    // the recorder only (full tracing off), monitor armed post-hoc.
    let spec = streamgate_analysis::DeploySpec::fig9(false);
    let report = streamgate_analysis::analyze(&spec);
    let mut b = spec.build_platform();
    b.system.enable_flight_recorder(1024);
    for (i, s) in spec.streams.iter().enumerate() {
        for k in 0..s.input_capacity {
            if !b.push_input(i, (k as f64, 0.5)) {
                break;
            }
        }
    }
    b.system.run(2_000);
    let mut monitor = streamgate_analysis::monitor_for(&spec, &report, &b.system);
    assert!(monitor.poll(&b.system.tracer) > 0, "wedge must trip");
    let pm = streamgate_core::collect_postmortem(&b.system, &monitor, &spec.name);

    let dir = std::env::temp_dir().join("streamgate-analyze-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("postmortem.json");
    std::fs::write(&file, pm.to_json_text()).unwrap();

    // Rendering a dump that documents a failure is itself a success (exit
    // 0); the explanation must name the violation and the blame component
    // that exceeded its predicted ceiling.
    let out = analyze(&["--postmortem", file.to_str().unwrap(), "fig9-broken"]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{text}");
    assert!(text.contains("postmortem of deployment"), "{text}");
    assert!(text.contains("head-of-line"), "{text}");
    assert!(text.contains("EXCEEDED"), "{text}");

    // An unreadable dump is a usage error.
    assert_eq!(
        analyze(&["--postmortem", "/nonexistent/pm.json", "fig9-broken"])
            .status
            .code(),
        Some(2)
    );
}

#[test]
fn delta_mode_exits_two_when_final_state_rejected() {
    let dir = std::env::temp_dir().join("streamgate-analyze-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("bad-script.json");
    // A malformed script (unknown stream) is a usage error.
    std::fs::write(
        &script,
        r#"{"deltas": [{"op": "remove", "gateway": 1, "stream": "nope"}]}"#,
    )
    .unwrap();
    let out = analyze(&["--delta", script.to_str().unwrap(), "pal2"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn malformed_profile_exits_two_not_a_crash() {
    // The pal golden profile with its last window at u64::MAX: the list
    // no longer ends at cycles + 1, so the parser rejects it.
    let golden = include_str!("golden/pal_profile.json");
    let bad = golden.replacen("32768,40001]", "32768,18446744073709551615]", 1);
    assert_ne!(bad, golden, "fixture must change the window list");

    let dir = std::env::temp_dir().join("streamgate-analyze-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("bad-windows-profile.json");
    std::fs::write(&file, bad).unwrap();

    let out = analyze(&["--profile", file.to_str().unwrap(), "pal"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("cannot parse profile"), "{err}");
}

#[test]
fn huge_block_size_exits_two_not_a_crash() {
    // fig6 with η = 2³²: above the modelled block size, so A1 rejects it
    // instead of building (and allocating) an η-phase model.
    let mut spec = streamgate_analysis::DeploySpec::fig6();
    let s = &mut spec.streams[0];
    s.eta_in = 1 << 32;
    s.eta_out = 1 << 32;
    s.input_capacity = 1 << 34;
    s.output_capacity = 1 << 34;

    let dir = std::env::temp_dir().join("streamgate-analyze-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("huge-eta.json");
    std::fs::write(&file, spec.to_json_text()).unwrap();

    let out = analyze(&["--spec", file.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "{text}");
    assert!(text.contains("verdict: REJECTED"), "{text}");
    assert!(
        text.contains("eta_in = 4294967296 is outside the modelled range"),
        "{text}"
    );
}

/// `pal2` plus four `gw-back` streams of rate `1/d` for each `d` in
/// `denoms`: the four largest primes below `MU_TERM_LIMIT`, whose exact
/// rate sum overflows `i128`, or (`above_limit`) the denominators of a
/// reported crash, each above the limit.
fn pal2_with_slow_streams(above_limit: bool) -> streamgate_analysis::DeploySpec {
    let denoms: [i128; 4] = if above_limit {
        [8796093022151, 8796093022141, 8796093022129, 8796093022117]
    } else {
        [1099511627689, 1099511627609, 1099511627581, 1099511627573]
    };
    let mut spec = streamgate_analysis::DeploySpec::pal2();
    let template = spec.gateways[1].streams[0].clone();
    for (k, d) in denoms.into_iter().enumerate() {
        let mut s = template.clone();
        s.name = format!("slow{k}");
        s.mu = streamgate_ilp::Rational::new(1, d);
        s.eta_in = 96;
        s.eta_out = 12;
        s.input_capacity = 4 * 96;
        s.max_latency = None;
        spec.gateways[1].streams.push(s);
    }
    spec
}

#[test]
fn exact_rate_overflow_exits_two_not_a_crash() {
    let dir = std::env::temp_dir().join("streamgate-analyze-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    for above_limit in [false, true] {
        let file = dir.join(format!("slow-streams-{above_limit}.json"));
        std::fs::write(&file, pal2_with_slow_streams(above_limit).to_json_text()).unwrap();
        let out = analyze(&["--spec", file.to_str().unwrap()]);
        let text = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(2), "{text}");
        assert!(text.contains("verdict: REJECTED"), "{text}");
        let why = if above_limit {
            "must each be at most"
        } else {
            "overflows i128"
        };
        assert!(text.contains(why), "{text}");
    }

    // The same streams as admission requests: two fit, the third and
    // fourth overflow and are rejected, and the final state is accepted.
    let script = dir.join("slow-deltas.json");
    let adds: Vec<String> = pal2_with_slow_streams(false).gateways[1].streams[2..]
        .iter()
        .map(|s| {
            format!(
                r#"{{"op": "add", "gateway": 1, "stream": {{"name": "{}", "mu": [1, {}],
                 "eta_in": 96, "eta_out": 12, "reconfig": {}, "input_capacity": 384,
                 "output_capacity": {}}}}}"#,
                s.name,
                s.mu.denom(),
                s.reconfig,
                s.output_capacity
            )
        })
        .collect();
    std::fs::write(&script, format!(r#"{{"deltas": [{}]}}"#, adds.join(","))).unwrap();
    let out = analyze(&["--delta", script.to_str().unwrap(), "pal2"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{text}");
    for (k, verdict) in ["admit", "admit", "reject", "reject"].iter().enumerate() {
        assert!(
            text.contains(&format!("delta {k}: add slow{k} @ gateway 1 -> {verdict}")),
            "{text}"
        );
    }
}

#[test]
fn tau_hat_overflow_exits_two_not_a_crash() {
    let mut spec = streamgate_analysis::DeploySpec::pal2();
    let s = &mut spec.gateways[1].streams[0];
    s.eta_in = u64::MAX / 4;
    s.eta_out = s.eta_in / 8;
    let dir = std::env::temp_dir().join("streamgate-analyze-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("tau-hat-overflow.json");
    std::fs::write(&file, spec.to_json_text()).unwrap();
    let out = analyze(&["--spec", file.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "{text}");
    assert!(text.contains("overflows u64"), "{text}");
}
