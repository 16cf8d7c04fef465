//! JSON inputs at their edges. Every integer of each JSON input the
//! analyzer reads, replaced in turn with each of 0, 1, 2^32, 2^62, 2^63,
//! u64::MAX, −1, 10^30, i128::MIN and i128::MAX, must either be rejected
//! by its reader or flow through every consumer into a result — never a
//! panic, and never a silently truncated value. Every other token (string,
//! non-integer number, `true`, `false`, `null`), replaced with each of
//! `""`, `"x"`, 0, −1, 1.5, 1e400, `true`, `null`, `[]` and `{}` or
//! deleted, and every truncation of each document, must likewise end in an
//! error or a result.
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
    AnalysisOptions, AnalysisState, DeploySpec, Json,
};
use streamgate_core::RunProfile;

const EDGES: [&str; 10] = [
    "0",
    "1",
    "4294967296",
    "4611686018427387904",
    "9223372036854775808",
    "18446744073709551615",
    "-1",
    "1000000000000000000000000000000",
    "-170141183460469231731687303715884105728",
    "170141183460469231731687303715884105727",
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

/// Byte ranges of the tokens of a JSON document other than integers:
/// strings (keys included), non-integer numbers and the literals.
fn other_token_spans(text: &str) -> Vec<(usize, usize)> {
    let b = text.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let start = i;
        match b[i] {
            b'"' => {
                i += 1;
                while b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
                spans.push((start, i));
            }
            b'-' | b'0'..=b'9' => {
                while i < b.len() && matches!(b[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    i += 1;
                }
                if text[start..i].contains(['.', 'e', 'E']) {
                    spans.push((start, i));
                }
            }
            b't' | b'f' | b'n' => {
                while i < b.len() && b[i].is_ascii_alphabetic() {
                    i += 1;
                }
                spans.push((start, i));
            }
            _ => i += 1,
        }
    }
    spans
}

/// Run `consume` on `text` with each span replaced by each of `with`.
/// Returns the number of runs and one line per mutation that panicked.
fn sweep(
    label: &str,
    text: &str,
    spans: &[(usize, usize)],
    with: &[&str],
    consume: impl Fn(&str),
) -> (usize, Vec<String>) {
    let mut runs = 0;
    let mut panics = Vec::new();
    for &(start, end) in spans {
        for edge in with {
            let mutated = format!("{}{edge}{}", &text[..start], &text[end..]);
            runs += 1;
            if catch_unwind(AssertUnwindSafe(|| consume(&mutated))).is_err() {
                panics.push(format!(
                    "{label}: `{}` → `{edge}` at byte {start}",
                    &text[start..end]
                ));
            }
        }
    }
    (runs, panics)
}

/// [`sweep`] over the integers of `text` with the edge values.
fn sweep_integers(label: &str, text: &str, consume: impl Fn(&str)) -> (usize, Vec<String>) {
    sweep(label, text, &integer_spans(text), &EDGES, consume)
}

/// Run `consume` on the prefixes of `text` ending at every `stride`-th
/// character boundary (and on the whole document).
fn truncations(label: &str, text: &str, stride: usize, consume: impl Fn(&str)) -> Vec<String> {
    (0..=text.len())
        .filter(|&cut| text.is_char_boundary(cut) && (cut % stride == 0 || cut == text.len()))
        .filter(|&cut| catch_unwind(AssertUnwindSafe(|| consume(&text[..cut]))).is_err())
        .map(|cut| format!("{label}: truncated at byte {cut}"))
        .collect()
}

/// A spec document's consumers: the analyzer, the profile feedback and
/// the postmortem renderer.
fn consume_spec<'a>(profile: &'a RunProfile, postmortem: &'a Json) -> impl Fn(&str) + 'a {
    move |text| {
        if let Ok(s) = DeploySpec::from_json_text(text) {
            let report = analyze(&s);
            analyze_profiled(&s, &fast_options(), Some(profile));
            let _ = render_postmortem(&s, &report, postmortem);
        }
    }
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
        let consume = consume_spec(&profile, &postmortem);
        let (n, p) = sweep_integers(&spec.name, &spec.to_json_text(), consume);
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
    let (profile_runs, mut panics) = sweep_integers("pal_profile.json", PAL_PROFILE, |mutated| {
        if let Ok(p) = parse_profile(mutated) {
            analyze_profiled(&pal, &fast_options(), Some(&p));
        }
    });
    let (postmortem_runs, p) = sweep_integers("fig9_postmortem.json", FIG9_POSTMORTEM, |mutated| {
        if let Ok(pm) = json::parse(mutated) {
            let _ = render_postmortem(&fig9, &fig9_report, &pm);
        }
    });
    panics.extend(p);
    let (delta_runs, p) = sweep_integers("deltas_ci.json", DELTAS_CI, |mutated| {
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

/// Every other token of the same seven documents replaced or deleted, and
/// each document cut short, through the same readers and consumers.
#[test]
fn other_tokens_and_truncations_are_rejected_or_consumed_never_a_panic() {
    const TOKENS: [&str; 11] = [
        "\"\"", "\"x\"", "0", "-1", "1.5", "1e400", "true", "null", "[]", "{}", "",
    ];
    // Truncation runs are mostly parse errors; one cut in this many
    // characters keeps the whole test to a few seconds in debug.
    const STRIDE: usize = 5;
    let profile = parse_profile(PAL_PROFILE).expect("profile golden parses");
    let postmortem = json::parse(FIG9_POSTMORTEM).expect("postmortem golden parses");
    let pal = DeploySpec::pal_scaled();
    let fig9 = DeploySpec::fig9(false);
    let fig9_report = analyze(&fig9);
    let pal2 = AnalysisState::new(DeploySpec::pal2(), AnalysisOptions::default());
    let (mut runs, mut panics) = (0, Vec::new());
    let mut check = |label: &str, text: &str, consume: &dyn Fn(&str)| {
        let (n, p) = sweep(label, text, &other_token_spans(text), &TOKENS, consume);
        runs += n;
        panics.extend(p);
        panics.extend(truncations(label, text, STRIDE, consume));
    };
    for spec in [
        DeploySpec::pal_scaled(),
        DeploySpec::fig6(),
        DeploySpec::fig9(true),
        DeploySpec::pal2(),
    ] {
        check(
            &spec.name,
            &spec.to_json_text(),
            &consume_spec(&profile, &postmortem),
        );
    }
    check("pal_profile.json", PAL_PROFILE, &|text| {
        if let Ok(p) = parse_profile(text) {
            analyze_profiled(&pal, &fast_options(), Some(&p));
        }
    });
    check("fig9_postmortem.json", FIG9_POSTMORTEM, &|text| {
        if let Ok(pm) = json::parse(text) {
            let _ = render_postmortem(&fig9, &fig9_report, &pm);
        }
    });
    check("deltas_ci.json", DELTAS_CI, &|text| {
        if let Ok(deltas) = parse_delta_script(text) {
            let mut state = pal2.clone();
            for d in &deltas {
                let _ = state.apply(d);
            }
        }
    });
    assert!(runs >= 5_900, "only {runs} token mutations");
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
