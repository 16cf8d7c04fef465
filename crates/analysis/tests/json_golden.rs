//! Golden-file tests for the machine-readable `--json` report: the exact
//! bytes `streamgate-analyze --json` prints for one *accepted* and one
//! *rejected* multi-gateway deployment, and for three deployments whose
//! findings come from rule A2's exact minimum-buffer search (`fig6`,
//! `fig9-broken`, and pal2 with an η = 2 join). The JSON is a stable
//! interface (CI and downstream tooling parse it), so any diff here is a
//! deliberate format change: rerun with `GOLDEN_UPDATE=1` to re-record,
//! and review the diff like an API change.

mod common;

use common::check_golden;
use streamgate_analysis::{analyze, DeploySpec, StreamDeploy};
use streamgate_ilp::Rational;

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

/// Fig. 6's stream gets the Fig. 8 trap warning (a larger block needs less
/// buffer), found only by the exact search.
#[test]
fn fig6_json_matches_golden() {
    check_golden("fig6.json", &analyze(&DeploySpec::fig6()).to_json_text());
}

/// Fig. 9 without the space check: the exact search computes the minimum
/// α₃ the consumer-side buffer falls short of.
#[test]
fn fig9_broken_json_matches_golden() {
    let report = analyze(&DeploySpec::fig9(false));
    assert!(!report.is_accepted(), "{}", report.render_text());
    check_golden("fig9_broken.json", &report.to_json_text());
}

/// pal2 plus an η = 2 join on gw-back: the shape of the small-η joins of an
/// admission session, each of which runs the exact search.
#[test]
fn pal2_small_eta_join_json_matches_golden() {
    let mut spec = DeploySpec::pal2();
    spec.gateways[1].streams.push(StreamDeploy {
        name: "join".into(),
        mu: Rational::new(1, 20_000),
        eta_in: 2,
        eta_out: 2,
        reconfig: 20,
        input_capacity: 8,
        output_capacity: 8,
        max_latency: None,
    });
    check_golden("pal2_small_eta_join.json", &analyze(&spec).to_json_text());
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
