//! E7 — Fig. 9: head-of-line blocking on a naively shared FIFO breaks
//! the-earlier-the-better refinement; gateway block-multiplexing restores it.
//!
//! `cargo run -p streamgate-bench --bin fig9_shared_fifo`
//!
//! This is the same experiment as `examples/shared_fifo_blocking.rs`, in
//! sweep form: lateness vs the slow consumer's service time — followed by
//! the same head-of-line blocking reproduced on the cycle-level platform by
//! disabling the exit-gateway's check-for-space admission test (the tracer
//! shows the stall cycles appear, and vanish when the check is on).
//!
//! Pass `--trace out.json` to export the check-disabled platform run as a
//! Chrome trace, `--profile out.json` to write that run's measured
//! `RunProfile` JSON, `--cycles <n>` to change the platform-run length,
//! and `--mode exhaustive|event` to select the simulation engine. A budget
//! too short for the wedge to form exits 1 with a one-line verdict.
//!
//! Pass `--postmortem pm.json` to additionally re-run the broken variant
//! the way a *deployed* system would observe it: full tracing off, only the
//! bounded flight recorder on, the bound monitor armed. The monitor flags
//! the Fig. 9 wedge and the flight recorder's retained window is dumped as
//! a postmortem whose blame attribution names head-of-line blocking on the
//! wedged stream — render it with `streamgate-analyze --postmortem`.

use std::collections::VecDeque;
use streamgate_analysis::DeploySpec;
use streamgate_bench::{parse_args, print_table, write_postmortem, write_trace};
use streamgate_core::system_metrics;
use streamgate_dataflow::{check_refinement, ArrivalTrace, RefinementOutcome};
use streamgate_platform::{StallCause, StepMode, System};

fn run_shared(slow_cost: u64, horizon: u64) -> ArrivalTrace {
    let mut fifo: VecDeque<(usize, u64)> = VecDeque::new();
    let mut arrivals = Vec::new();
    let mut busy = [0u64; 2];
    let cost = [1u64, slow_cost];
    for now in 0..horizon {
        if now % 4 == 0 {
            fifo.push_back((0, now));
            fifo.push_back((1, now));
        }
        if let Some(&(s, _)) = fifo.front() {
            if now >= busy[s] {
                fifo.pop_front();
                if s == 0 {
                    arrivals.push(now);
                }
                busy[s] = now + cost[s];
            }
        }
    }
    ArrivalTrace::new(arrivals)
}

fn dedicated(n: usize) -> ArrivalTrace {
    ArrivalTrace::new((0..n as u64).map(|k| k * 4).collect())
}

/// How the platform run is observed: full trace, run profile, or the
/// bounded always-on flight recorder (the deployed-system configuration).
#[derive(Clone, Copy)]
enum Observe {
    Trace,
    Profile,
    Recorder,
}

/// Two streams over one shared accelerator chain, built from
/// [`DeploySpec::fig9`]; stream 1's consumer FIFO is smaller than its
/// block and never drained (an arbitrarily slow consumer). With the §V-G
/// check-for-space admission test the block never starts; without it the
/// block wedges in the shared (hardware) FIFO and head-of-line-blocks
/// stream 0 — exactly Fig. 9 on real machinery.
fn run_platform(
    check_for_space: bool,
    mode: StepMode,
    cycles: u64,
    observe: Observe,
) -> (System, u64, u64) {
    let mut b = DeploySpec::fig9(check_for_space).build_platform();
    b.system.step_mode = mode;
    match observe {
        Observe::Profile => b.system.enable_profiling(0),
        Observe::Trace => b.system.enable_tracing(0),
        // Production observability: no full event stream, just the bounded
        // ring of recent raw events (and the always-cheap stall counters).
        Observe::Recorder => b.system.enable_flight_recorder(4096),
    }
    for k in 0..4096 {
        for s in 0..b.inputs.len() {
            b.push_input(s, (k as f64, 0.0));
        }
    }
    let mut sys = b.system;
    sys.run(cycles);
    let stalls = sys.tracer.stall_cycles(0, StallCause::ExitFifoFull);
    let s0_blocks = system_metrics(&sys, 0).streams[0].blocks() as u64;
    (sys, stalls, s0_blocks)
}

fn main() {
    let args = parse_args();
    let cycles = args.cycles.unwrap_or(20_000);
    if args.analyze {
        // This harness EXISTS to demonstrate the failure the analyzer's A5
        // rule predicts, so the pre-flight here is informational: print both
        // variants' verdicts instead of refusing to run. The broken variant
        // must be rejected, the safe one must reject only stream 1's
        // undersized consumer FIFO (A2) — which is exactly the wedge the
        // experiment needs.
        for (label, spec) in [
            ("check-for-space disabled", DeploySpec::fig9(false)),
            ("check-for-space enabled", DeploySpec::fig9(true)),
        ] {
            let report = streamgate_analysis::analyze(&spec);
            println!("== static analysis pre-flight: {label} ==");
            print!("{}", report.render_text());
            println!();
        }
    }
    args.log("Fig. 9: two producer/consumer pairs over ONE FIFO; stream 1's");
    args.log("consumer is slow; stream 0's tokens queue behind its tokens.\n");
    let mut rows = Vec::new();
    for slow in [1u64, 3, 5, 7, 9, 12] {
        let shared = run_shared(slow, 2000);
        let model = dedicated(shared.len());
        let outcome = check_refinement(&shared, &model);
        let max_late = shared
            .times
            .iter()
            .zip(&model.times)
            .map(|(a, b)| a.saturating_sub(*b))
            .max()
            .unwrap_or(0);
        rows.push(vec![
            slow.to_string(),
            match outcome {
                RefinementOutcome::Refines => "refines".to_string(),
                RefinementOutcome::LateToken { index, .. } => format!("VIOLATED @ token {index}"),
                RefinementOutcome::MissingTokens { .. } => "missing tokens".to_string(),
            },
            max_late.to_string(),
        ]);
    }
    if !args.quiet {
        print_table(
            "refinement of stream 0 vs its dedicated-FIFO model",
            &["slow-consumer cost", "outcome", "max lateness (cycles)"],
            &rows,
        );
    }
    args.log(
        "\nonce the slow consumer's service time exceeds the production period,\n\
         head-of-line blocking accumulates without bound — \"tokens from\n\
         another stream can influence when produced tokens arrive\" (§V-G).\n\
         The gateways avoid this by draining the FIFO before every switch,\n\
         giving each block an exclusive FIFO (mutual exclusivity).",
    );

    // --- the same effect on the cycle-level platform -----------------------
    let observe = if args.profile.is_some() {
        Observe::Profile
    } else {
        Observe::Trace
    };
    let (mut bad_sys, bad_stalls, bad_s0) = run_platform(false, args.step_mode, cycles, observe);
    let (_good_sys, good_stalls, good_s0) = run_platform(true, args.step_mode, cycles, observe);
    if !args.quiet {
        print_table(
            "platform: exit-gateway space check on/off (tracer stall cycles)",
            &[
                "check-for-space",
                "exit-fifo-full stall cycles",
                "s0 blocks done",
            ],
            &[
                vec![
                    "disabled".into(),
                    bad_stalls.to_string(),
                    bad_s0.to_string(),
                ],
                vec![
                    "enabled".into(),
                    good_stalls.to_string(),
                    good_s0.to_string(),
                ],
            ],
        );
    }
    if !(bad_stalls > 0 && good_stalls == 0 && good_s0 > bad_s0) {
        println!(
            "no Fig. 9 wedge in {cycles} cycles: exit-fifo-full stall cycles {bad_stalls} \
             (check disabled) / {good_stalls} (enabled), s0 blocks {bad_s0} / {good_s0}"
        );
        std::process::exit(1);
    }
    args.log(
        "\nwith the admission test disabled, stream 1's wedged block stalls the\n\
         exit gateway (head-of-line on the shared hardware FIFO) and stream 0\n\
         starves; enabling the check removes every such stall cycle.",
    );

    if let Some(path) = args.trace {
        write_trace(&path, &bad_sys.chrome_trace_json());
    }
    if let Some(path) = args.blame {
        // Full attribution of every *completed* block on the broken run —
        // the wedged block itself is in-flight and shows up in the
        // postmortem path below instead.
        streamgate_bench::write_blame(&path, &mut bad_sys, "fig9-broken");
    }
    if let Some(path) = args.profile {
        streamgate_bench::write_profile(&path, &mut bad_sys, "fig9-broken");
    }

    // --- postmortem: the failure as a deployed system would catch it ------
    // Re-run the broken variant with full tracing OFF and only the bounded
    // flight recorder on; arm the bound monitor with the analyzer's
    // predictions; the Fig. 9 wedge trips it, and the recorder dump is
    // attributed: the postmortem's top blame component names head-of-line
    // blocking on the wedged stream (`s1`).
    if let Some(path) = args.postmortem {
        let spec = DeploySpec::fig9(false);
        let report = streamgate_analysis::analyze(&spec);
        let (pm_sys, _, _) = run_platform(false, args.step_mode, cycles, Observe::Recorder);
        let mut monitor = streamgate_analysis::monitor_for(&spec, &report, &pm_sys);
        monitor.poll(&pm_sys.tracer);
        assert!(
            !monitor.is_clean(),
            "the Fig. 9 wedge must trip the armed monitor"
        );
        for v in monitor.violations() {
            println!("monitor: {v}");
        }
        write_postmortem(&path, &pm_sys, &monitor, &spec.name);
    }
}
