//! Golden-file tests for the machine-readable `--json` report: the exact
//! bytes `streamgate-analyze --json` prints for one *accepted* and one
//! *rejected* multi-gateway deployment. The JSON is a stable interface
//! (CI and downstream tooling parse it), so any diff here is a deliberate
//! format change: rerun with `GOLDEN_UPDATE=1` to re-record, and review
//! the diff like an API change.

mod common;

use common::check_golden;
use streamgate_analysis::{analyze, DeploySpec};

/// The rejected counterpart: pal2 with gw-back's configuration slot moved
/// onto gw-front's (A9 Error) and ch1-front's latency budget cut below the
/// idle-chain floor (A10 Error).
fn pal2_broken() -> DeploySpec {
    let mut spec = DeploySpec::pal2();
    spec.name = "pal2-broken".into();
    spec.gateways[1].config_slot = Some((100, 200));
    spec.gateways[0].streams[0].max_latency = Some(30_000);
    spec
}

#[test]
fn pal2_accepted_json_matches_golden() {
    let report = analyze(&DeploySpec::pal2());
    assert!(report.is_accepted(), "{}", report.render_text());
    check_golden("pal2_accepted.json", &report.to_json_text());
}

#[test]
fn pal2_broken_rejected_json_matches_golden() {
    let report = analyze(&pal2_broken());
    assert!(!report.is_accepted(), "{}", report.render_text());
    check_golden("pal2_rejected.json", &report.to_json_text());
}

/// The golden inputs must themselves round-trip through the spec JSON —
/// the `--spec FILE` path of the CLI reads exactly what `to_json_text`
/// writes, multi-gateway keys included.
#[test]
fn golden_specs_roundtrip_through_spec_json() {
    for spec in [DeploySpec::pal2(), pal2_broken()] {
        let text = spec.to_json_text();
        let back = DeploySpec::from_json_text(&text).expect("reparse");
        assert_eq!(back.to_json_text(), text);
    }
}
