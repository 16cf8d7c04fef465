//! Spec JSON integers at their edges: every integer of four presets'
//! `to_json_text()`, replaced in turn with each of 0, 1, 2^32, 2^62, 2^63,
//! u64::MAX, −1 and 10^30, must either be rejected by
//! `DeploySpec::from_json_text` or analysed into a `Report` — never a
//! panic, and never a silently truncated value.

use std::panic::{catch_unwind, AssertUnwindSafe};
use streamgate_analysis::{analyze, DeploySpec};

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

#[test]
fn edge_integers_are_rejected_or_analysed_never_a_panic() {
    let presets = [
        DeploySpec::pal_scaled(),
        DeploySpec::fig6(),
        DeploySpec::fig9(true),
        DeploySpec::pal2(),
    ];
    let mut runs = 0;
    let mut panics = Vec::new();
    for spec in &presets {
        let text = spec.to_json_text();
        for (start, end) in integer_spans(&text) {
            for edge in EDGES {
                let mutated = format!("{}{edge}{}", &text[..start], &text[end..]);
                runs += 1;
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    if let Ok(s) = DeploySpec::from_json_text(&mutated) {
                        analyze(&s);
                    }
                }));
                if outcome.is_err() {
                    panics.push(format!(
                        "{}: `{}` → {edge} at byte {start}",
                        spec.name,
                        &text[start..end]
                    ));
                }
            }
        }
    }
    assert!(runs >= 800, "only {runs} mutations");
    assert!(
        panics.is_empty(),
        "{} panics:\n{}",
        panics.len(),
        panics.join("\n")
    );
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
