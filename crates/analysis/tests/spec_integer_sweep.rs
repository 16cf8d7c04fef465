//! JSON integers at their edges: every integer of each JSON input the
//! analyzer reads, replaced in turn with each of 0, 1, 2^32, 2^62, 2^63,
//! u64::MAX, −1 and 10^30, must either be rejected by its reader or flow
//! through every consumer into a result — never a panic, and never a
//! silently truncated value.
//!
//! The inputs are four presets' `DeploySpec::to_json_text()` (each
//! mutated spec is analysed, fed the pal profile golden through
//! `analyze_profiled` and renders the Fig. 9 postmortem golden), the pal
//! profile golden itself, that postmortem, and the delta script CI
//! replays with `streamgate-analyze --delta`.

mod common;

use common::fast_options;
use std::panic::{catch_unwind, AssertUnwindSafe};
use streamgate_analysis::{
    analyze, analyze_profiled, json, parse_delta_script, parse_profile, render_postmortem,
    AnalysisOptions, AnalysisState, DeploySpec,
};

const EDGES: [&str; 8] = [
    "0",
    "1",
    "4294967296",
    "4611686018427387904",
    "9223372036854775808",
    "18446744073709551615",
    "-1",
    "1000000000000000000000000000000",
];

const PAL_PROFILE: &str = include_str!("golden/pal_profile.json");
const FIG9_POSTMORTEM: &str = include_str!("golden/fig9_postmortem.json");
const DELTAS_CI: &str = include_str!("data/deltas_ci.json");

/// Byte ranges of the integer literals of a JSON document (outside
/// strings).
fn integer_spans(text: &str) -> Vec<(usize, usize)> {
    let b = text.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'"' => {
                i += 1;
                while b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
            }
            b'-' | b'0'..=b'9' => {
                let start = i;
                i += 1;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                spans.push((start, i));
            }
            _ => i += 1,
        }
    }
    spans
}

/// Run `consume` on every edge mutation of every integer of `text`.
/// Returns the number of runs and one line per mutation that panicked.
fn sweep(label: &str, text: &str, consume: impl Fn(&str)) -> (usize, Vec<String>) {
    let mut runs = 0;
    let mut panics = Vec::new();
    for (start, end) in integer_spans(text) {
        for edge in EDGES {
            let mutated = format!("{}{edge}{}", &text[..start], &text[end..]);
            runs += 1;
            if catch_unwind(AssertUnwindSafe(|| consume(&mutated))).is_err() {
                panics.push(format!(
                    "{label}: `{}` → {edge} at byte {start}",
                    &text[start..end]
                ));
            }
        }
    }
    (runs, panics)
}

fn assert_no_panics(panics: &[String]) {
    assert!(
        panics.is_empty(),
        "{} panics:\n{}",
        panics.len(),
        panics.join("\n")
    );
}

#[test]
fn edge_integers_are_rejected_or_analysed_never_a_panic() {
    let presets = [
        DeploySpec::pal_scaled(),
        DeploySpec::fig6(),
        DeploySpec::fig9(true),
        DeploySpec::pal2(),
    ];
    let profile = parse_profile(PAL_PROFILE).expect("profile golden parses");
    let postmortem = json::parse(FIG9_POSTMORTEM).expect("postmortem golden parses");
    let mut runs = 0;
    let mut panics = Vec::new();
    for spec in &presets {
        let (n, p) = sweep(&spec.name, &spec.to_json_text(), |mutated| {
            if let Ok(s) = DeploySpec::from_json_text(mutated) {
                let report = analyze(&s);
                analyze_profiled(&s, &fast_options(), Some(&profile));
                let _ = render_postmortem(&s, &report, &postmortem);
            }
        });
        runs += n;
        panics.extend(p);
    }
    assert!(runs >= 800, "only {runs} mutations");
    assert_no_panics(&panics);
}

/// The measured artifacts the analyzer reads back — a `RunProfile` and a
/// postmortem dump — and the `--delta` script, through the same readers
/// and consumers as the CLI.
#[test]
fn edge_integers_in_profiles_postmortems_and_deltas_never_panic() {
    let pal = DeploySpec::pal_scaled();
    let fig9 = DeploySpec::fig9(false);
    let fig9_report = analyze(&fig9);
    let pal2 = AnalysisState::new(DeploySpec::pal2(), AnalysisOptions::default());
    let (profile_runs, mut panics) = sweep("pal_profile.json", PAL_PROFILE, |mutated| {
        if let Ok(p) = parse_profile(mutated) {
            analyze_profiled(&pal, &fast_options(), Some(&p));
        }
    });
    let (postmortem_runs, p) = sweep("fig9_postmortem.json", FIG9_POSTMORTEM, |mutated| {
        if let Ok(pm) = json::parse(mutated) {
            let _ = render_postmortem(&fig9, &fig9_report, &pm);
        }
    });
    panics.extend(p);
    let (delta_runs, p) = sweep("deltas_ci.json", DELTAS_CI, |mutated| {
        if let Ok(deltas) = parse_delta_script(mutated) {
            let mut state = pal2.clone();
            for d in &deltas {
                let _ = state.apply(d);
            }
        }
    });
    panics.extend(p);
    assert!(
        profile_runs >= 5_000 && postmortem_runs >= 600 && delta_runs >= 130,
        "only {profile_runs}/{postmortem_runs}/{delta_runs} mutations"
    );
    assert_no_panics(&panics);
}

/// `ni_depth` is a `u32`: a larger value is rejected at parse time
/// instead of being truncated (4294967298 used to analyse as depth 2).
#[test]
fn out_of_range_ni_depth_is_rejected_not_truncated() {
    let text = DeploySpec::pal2().to_json_text();
    assert!(text.contains("\"ni_depth\":2,"), "{text}");
    for bad in ["4294967298", "4294967296", "-1"] {
        let mutated = text.replace("\"ni_depth\":2,", &format!("\"ni_depth\":{bad},"));
        let err = DeploySpec::from_json_text(&mutated).expect_err(bad);
        assert!(err.contains("`ni_depth`"), "{bad}: {err}");
    }
    let max = text.replace("\"ni_depth\":2,", "\"ni_depth\":4294967295,");
    let spec = DeploySpec::from_json_text(&max).expect("u32::MAX is in range");
    assert_eq!(spec.ni_depth, u32::MAX);
}
