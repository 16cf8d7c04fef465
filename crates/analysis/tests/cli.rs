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
fn i128_min_mu_term_is_unusable_input_not_a_crash() {
    // A panic would exit 101; the reader rejects the term instead.
    let dir = std::env::temp_dir().join("streamgate-analyze-cli-min-mu");
    std::fs::create_dir_all(&dir).unwrap();
    let min = i128::MIN;
    for (i, mu) in [format!("[1, {min}]"), format!("[{min}, 7]")]
        .iter()
        .enumerate()
    {
        let script = dir.join(format!("deltas{i}.json"));
        std::fs::write(
            &script,
            format!(
                r#"{{"deltas": [{{"op": "add", "gateway": 1, "stream": {{"name": "probe",
                "mu": {mu}, "eta_in": 8, "eta_out": 8, "reconfig": 20,
                "input_capacity": 64, "output_capacity": 64}}}}]}}"#
            ),
        )
        .unwrap();
        let out = analyze(&["--delta", script.to_str().unwrap(), "pal2"]);
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{mu}: {err}");
        assert!(err.contains("mu term"), "{mu}: {err}");
    }
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
    let doc = streamgate_analysis::json::parse(&timing_text).expect("the timing file is JSON");
    for key in ["incremental_ns", "full_ns"] {
        let s = doc
            .get("summary")
            .and_then(|s| s.get(key))
            .expect("a summary per timing");
        assert_eq!(s.req::<u64>("count"), Ok(3), "{timing_text}");
        let (p50, p90, max) = (
            s.req::<u64>("p50").unwrap(),
            s.req::<u64>("p90").unwrap(),
            s.req::<u64>("max").unwrap(),
        );
        assert!(p50 <= p90 && p90 <= max, "{timing_text}");
    }
}

/// `--timing` writes valid JSON whatever the stream is called: a name
/// with quotes used to land unescaped in the `op` field.
#[test]
fn timing_file_escapes_stream_names() {
    let dir = std::env::temp_dir().join("streamgate-analyze-cli-timing-names");
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("deltas.json");
    let timing = dir.join("t.json");
    std::fs::write(
        &script,
        r#"{"deltas": [
            {"op": "add", "gateway": 1, "stream": {"name": "aux \"meter\"", "mu": [1, 1000000],
             "eta_in": 8, "eta_out": 8, "reconfig": 20,
             "input_capacity": 64, "output_capacity": 64}}
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
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = std::fs::read_to_string(&timing).unwrap();
    let doc = streamgate_analysis::json::parse(&text).expect("the timing file is JSON");
    let rows = doc.req::<&[streamgate_analysis::Json]>("deltas").unwrap();
    assert_eq!(rows.len(), 1, "{text}");
    assert_eq!(
        rows[0].req::<&str>("op"),
        Ok(r#"add aux "meter" @ gateway 1"#),
        "{text}"
    );
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

/// Every JSON input is parsed with bounded nesting: a deeply nested
/// document used to overflow the parser's stack and abort (exit 134).
#[test]
fn deeply_nested_json_exits_two_not_a_crash() {
    let dir = std::env::temp_dir().join("streamgate-analyze-cli-deep");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("deep.json");
    let depth = 200_000;
    std::fs::write(&file, "[".repeat(depth) + &"]".repeat(depth)).unwrap();
    let path = file.to_str().unwrap();
    for flag in ["--spec", "--profile", "--postmortem", "--delta"] {
        let out = analyze(&[flag, path, "pal2"]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {err}");
        assert!(err.contains("nesting deeper than"), "{flag}: {err}");
    }
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

/// Write `spec` with its first stream's `eta_in` set to `eta_in` and
/// return the file path.
fn spec_with_first_eta_in(
    mut spec: streamgate_analysis::DeploySpec,
    eta_in: u64,
    file: &str,
) -> std::path::PathBuf {
    spec.streams[0].eta_in = eta_in;
    let dir = std::env::temp_dir().join("streamgate-analyze-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(file);
    std::fs::write(&path, spec.to_json_text()).unwrap();
    path
}

/// A τ̂ that overflows saturates at `u64::MAX`; the profile checks built
/// on it (the ring envelope's burst spacing, A10's measured latency)
/// saturate too instead of overflowing.
#[test]
fn profile_against_overflowing_spec_exits_two_not_a_crash() {
    let spec = spec_with_first_eta_in(
        streamgate_analysis::DeploySpec::pal_scaled(),
        (1 << 62) - 1,
        "pal-eta-2-62.json",
    );
    let profile = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/pal_profile.json");
    let out = analyze(&["--profile", profile, "--spec", spec.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(text.contains("verdict: REJECTED"), "{text}");
}

/// The postmortem's per-component ceilings saturate on a spec whose
/// bounds overflow, so the dump still renders.
#[test]
fn postmortem_against_overflowing_spec_renders_not_a_crash() {
    let spec = spec_with_first_eta_in(
        streamgate_analysis::DeploySpec::fig9(false),
        (1 << 63) - 1,
        "fig9-eta-2-63.json",
    );
    let dump = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/fig9_postmortem.json"
    );
    let out = analyze(&["--postmortem", dump, "--spec", spec.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(text.contains("head-of-line"), "{text}");
}
