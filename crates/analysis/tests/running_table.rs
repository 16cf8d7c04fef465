//! The running stream table mirrors the committed spec.
//!
//! `AdmissionController::request` changes a running pal2 with adds,
//! removals, retunes and mode switches, on both engines. Every index-based
//! reader of the committed report (the monitor's τ̂ bounds, the blame
//! ceilings) pairs the report's streams with the platform's table by
//! position, so after every admitted request the table must list the
//! committed spec's streams in the spec's order: a retune replaces its
//! stream in place, as the analyzer's candidate spec does.

mod common;

use common::fast_options;
use streamgate_analysis::{
    check_blame_conformance, monitor_config_for, monitor_for, multi_tau_margin,
    AdmissionController, Delta, DeploySpec, Report, StreamDeploy, StreamMode, StreamModes,
};
use streamgate_core::{collect_blame, Monitor};
use streamgate_ilp::Rational;
use streamgate_platform::{StepMode, System, TraceEvent};

const ENGINES: [StepMode; 2] = [StepMode::EventDriven, StepMode::Exhaustive];

/// Cycles each traced stretch runs after a request.
const STRETCH: u64 = 60_000;

/// pal2 with a cruise/eco mode table on `ch1-front`; eco shortens the
/// reconfiguration window so it stays inside the pair's bus slot.
fn spec() -> DeploySpec {
    let mut spec = DeploySpec::pal2();
    let cruise = spec.gateways[0].streams[0].clone();
    let mut eco = cruise.clone();
    eco.reconfig -= 16;
    spec.modes = vec![StreamModes {
        gateway: 0,
        stream: cruise.name.clone(),
        modes: vec![
            StreamMode {
                name: "cruise".into(),
                config: cruise,
            },
            StreamMode {
                name: "eco".into(),
                config: eco,
            },
        ],
        transitions: vec![],
    }];
    spec
}

/// The committed configuration of stream `name` on gateway `g`, changed
/// by `f`.
fn retuned(spec: &DeploySpec, g: usize, name: &str, f: impl Fn(&mut StreamDeploy)) -> Delta {
    let mut with = spec.gateways[g]
        .streams
        .iter()
        .find(|s| s.name == name)
        .expect("stream in the spec")
        .clone();
    f(&mut with);
    Delta::RetuneStream {
        gateway: g,
        stream: name.into(),
        with,
    }
}

/// Each stream's τ̂ plus its gateway's margin, by `(gateway, stream name)`.
fn expected_tau_bounds(spec: &DeploySpec, report: &Report) -> Vec<(usize, String, u64)> {
    let mut bounds = report.bounds.iter();
    let mut out = Vec::new();
    for v in spec.gateway_views() {
        let margin = multi_tau_margin(spec, v.chain.len() as u64, v.c0());
        for st in v.streams {
            let b = bounds.next().expect("one bound per stream");
            assert_eq!(b.stream, st.name, "report bounds follow the spec");
            out.push((v.index, st.name.clone(), b.tau_hat + margin));
        }
    }
    out
}

/// After a request: each gateway's running table lists the committed
/// spec's streams in order, and the monitor configuration gives every
/// stream, matched by name, its own τ̂ plus the gateway's margin.
fn check_mirror(ctrl: &AdmissionController, system: &System, gateways: &[usize], what: &str) {
    let spec = ctrl.spec();
    for v in spec.gateway_views() {
        let gw = &system.gateways[gateways[v.index]];
        let running: Vec<&str> = (0..gw.num_streams())
            .map(|i| gw.stream(i).name.as_str())
            .collect();
        let committed: Vec<&str> = v.streams.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(running, committed, "{what}: gateway {} table", v.index);
    }
    let cfg = monitor_config_for(spec, ctrl.report(), system);
    for (g, name, bound) in expected_tau_bounds(spec, ctrl.report()) {
        let sc = cfg.gateways[gateways[g]]
            .streams
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{what}: monitor has no stream {name}"));
        assert_eq!(sc.tau_bound, Some(bound), "{what}: τ bound of {name}");
    }
}

/// Drain every output C-FIFO of the running table and queue two blocks
/// of input per stream, so every stream takes part in each round of the
/// next stretch.
fn feed(system: &mut System) {
    let now = system.cycle();
    let streams: Vec<_> = system
        .gateways
        .iter()
        .flat_map(|gw| (0..gw.num_streams()).map(move |i| gw.stream(i)))
        .map(|s| (s.input, s.output, s.eta_in))
        .collect();
    for (input, output, eta_in) in streams {
        while system.fifos[output.0].pop().is_some() {}
        for k in 0..2 * eta_in {
            system.fifos[input.0].try_push((k as f64, 0.0), now);
        }
    }
}

/// A slow η = 8 stream to join and remove on gw-back.
fn aux_meter() -> StreamDeploy {
    StreamDeploy {
        name: "aux-meter".into(),
        mu: Rational::new(1, 1_000_000),
        eta_in: 8,
        eta_out: 8,
        reconfig: 20,
        input_capacity: 64,
        output_capacity: 64,
        max_latency: None,
    }
}

#[test]
fn running_table_mirrors_the_committed_spec() {
    let base = spec();
    let deltas = [
        Delta::AddStream {
            gateway: 1,
            stream: aux_meter(),
        },
        // ch1-back is first of three on gw-back: not the last entry.
        retuned(&base, 1, "ch1-back", |s| s.reconfig -= 16),
        Delta::ModeSwitch {
            gateway: 0,
            stream: "ch1-front".into(),
            mode: "eco".into(),
        },
        retuned(&base, 0, "ch2-front", |s| s.name = "ch2-front-v2".into()),
        Delta::RemoveStream {
            gateway: 1,
            stream: "aux-meter".into(),
        },
        retuned(&base, 1, "ch2-back", |s| s.reconfig -= 16),
    ];

    for mode in ENGINES {
        let mut built = base.build_multi_platform();
        built.system.step_mode = mode;
        let gateways = built.gateways.clone();
        let mut ctrl = AdmissionController::new(base.clone(), fast_options());
        let mut monitor = monitor_for(&base, ctrl.report(), &built.system);
        check_mirror(&ctrl, &built.system, &gateways, "baseline");
        feed(&mut built.system);
        built.system.run(STRETCH);

        for delta in &deltas {
            let what = format!("{} ({})", delta.describe(), mode.name());
            // A fresh log per stretch: the blame fold indexes blocks by the
            // table they ran under, and a removal shrinks it. The monitor
            // keeps its re-armed configuration, deadlines included.
            built.system.enable_tracing(0);
            monitor = Monitor::new(monitor.config().clone());
            let outcome = ctrl
                .request(&mut built.system, &gateways, delta, Some(&mut monitor))
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(
                outcome.verdict.is_admitted(),
                "{what}: {}",
                outcome.verdict.report().render_text()
            );
            check_mirror(&ctrl, &built.system, &gateways, &what);

            feed(&mut built.system);
            built.system.run(STRETCH);
            assert_eq!(
                monitor.poll(&built.system.tracer),
                0,
                "{what}: {:?}",
                monitor.violations()
            );
            let blame = collect_blame(&mut built.system, "pal2");
            for sb in &blame.streams {
                assert!(sb.blocks > 0, "{what}: {} ran no block", sb.name);
            }
            let failures = check_blame_conformance(ctrl.spec(), ctrl.report(), &blame);
            assert!(
                !failures.iter().any(|f| f.contains("stream order mismatch")),
                "{what}: {failures:?}"
            );
        }
    }
}

/// A removal shrinks the table while the log keeps the removed stream's
/// blocks under the index they ran at: the blame fold must still count
/// every logged block.
#[test]
fn blame_counts_the_blocks_of_a_removed_stream() {
    let base = DeploySpec::pal2();
    let mut built = base.build_multi_platform();
    built.system.enable_tracing(0);
    let gateways = built.gateways.clone();
    let back = gateways[1];
    let mut ctrl = AdmissionController::new(base, fast_options());
    let mut request = |system: &mut System, delta: Delta| {
        let outcome = ctrl
            .request(system, &gateways, &delta, None)
            .unwrap_or_else(|e| panic!("{}: {e}", delta.describe()));
        assert!(outcome.verdict.is_admitted(), "{}", delta.describe());
        outcome
    };
    let join = request(
        &mut built.system,
        Delta::AddStream {
            gateway: 1,
            stream: aux_meter(),
        },
    );
    let idx = join.stream_index.expect("an add reports its index");
    let mut runs = 0;
    while built.system.gateways[back].stream(idx).blocks_done < 8 {
        runs += 1;
        assert!(runs <= 20, "aux-meter did not complete 8 blocks");
        feed(&mut built.system);
        built.system.run(STRETCH);
    }
    request(
        &mut built.system,
        Delta::RemoveStream {
            gateway: 1,
            stream: "aux-meter".into(),
        },
    );
    built.system.run(10_000);

    let blame = collect_blame(&mut built.system, "pal2");
    let blamed: u64 = blame
        .streams
        .iter()
        .filter(|sb| sb.gateway == back)
        .map(|sb| sb.blocks)
        .sum();
    let ended = built
        .system
        .tracer
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::BlockEnd { gateway, .. } if *gateway as usize == back))
        .count();
    assert_eq!(blamed, ended as u64);
    let removed = &blame.streams[blame.streams.len() - 1];
    assert_eq!((removed.gateway, removed.stream), (back, idx));
    assert!(
        removed.name.is_empty() && removed.blocks >= 8,
        "{removed:?}"
    );
}
