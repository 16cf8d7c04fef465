//! E9 — ablation: validity and tightness of the block-time bound
//! τ̂ = R + (η+2)·max(ε, ρ_A, δ) (Eq. 2) on the cycle-level platform,
//! over randomised parameters.
//!
//! `cargo run --release -p streamgate-bench --bin tau_bound_sweep`
//!
//! Pass `--trace out.json` to export the last case's run as a Chrome trace,
//! `--profile out.json` to write the last case's measured `RunProfile`
//! JSON, `--seed <n>` to re-randomise the sweep, and
//! `--mode exhaustive|event` to select the simulation engine.

use streamgate_analysis::{ChainStage, DeploySpec, StreamDeploy};
use streamgate_bench::{parse_args, print_table, write_trace};
use streamgate_core::measure_block_times;
use streamgate_ilp::Rational;
use streamgate_platform::{StepMode, System};

/// One sweep case's deployment: a single stream of block size `eta` over
/// one accelerator of pace `rho_a`, its input FIFO deep enough to keep the
/// chain saturated. The `--analyze` pre-flight checks this spec and
/// [`run_case`] builds it, so the analysed platform is the one that runs.
fn case_spec(case: usize, eta: u64, epsilon: u64, rho_a: u64, reconfig: u64) -> DeploySpec {
    DeploySpec {
        name: format!("tau-sweep-case-{case}"),
        chain: vec![ChainStage {
            name: "acc".into(),
            rho: rho_a,
        }],
        epsilon,
        delta: 1,
        ni_depth: 2,
        check_for_space: true,
        streams: vec![StreamDeploy {
            name: "s0".into(),
            mu: Rational::new(1, 1_000_000),
            eta_in: eta,
            eta_out: eta,
            reconfig,
            input_capacity: 8192,
            output_capacity: 1 << 20,
            max_latency: None,
        }],
        processors: vec![],
        gateways: vec![],
        config_bus_period: None,
        station_map: None,
        modes: vec![],
    }
}

/// Run `spec`'s platform with its input FIFO full and return the largest
/// measured block time, τ̂, their ratio and the system.
fn run_case(spec: &DeploySpec, mode: StepMode, profiled: bool) -> (u64, u64, f64, System) {
    let mut b = spec.build_platform();
    b.system.step_mode = mode;
    if profiled {
        b.system.enable_profiling(0); // tracer + ring delivery log + FIFO traces
    } else {
        b.system.enable_tracing(0); // measurement comes from the tracer's event log
    }
    let stream = &spec.streams[0];
    for k in 0..stream.input_capacity {
        b.push_input(0, (k as f64, 0.0));
    }
    let mut sys = b.system;
    sys.run(((stream.reconfig + (stream.eta_in + 2) * spec.c0()) * 6).max(20_000));
    let times = measure_block_times(&sys, 0);
    let measured = *times[0].iter().max().unwrap_or(&0);
    let tau_hat = spec.sharing_problem().tau_hat(0, stream.eta_in);
    (measured, tau_hat, measured as f64 / tau_hat as f64, sys)
}

fn main() {
    let args = parse_args();
    let trace_path = args.trace.clone();
    args.log("Eq. 2 validity sweep: measured max block time vs τ̂ on the platform");
    args.log(format!(
        "(engine: {}; margin: ring transport of the last samples, ≈ 8 cycles)\n",
        args.step_mode.name()
    ));
    let mut rows = Vec::new();
    let mut worst_ratio = 0.0f64;
    let mut seed = args.seed.unwrap_or(0xC0FFEE).max(1); // xorshift must not start at 0
    let mut rng = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let mut last_sys = None;
    for case in 0..18 {
        let eta = 2 + rng() % 48;
        let epsilon = 1 + rng() % 16;
        let rho_a = 1 + rng() % 8;
        let reconfig = rng() % 500;
        let spec = case_spec(case, eta, epsilon, rho_a, reconfig);
        if args.analyze {
            // Pre-flight each randomised case: an analyzer rejection means
            // the sweep would deadlock or stall rather than measure τ.
            let report = streamgate_analysis::analyze(&spec);
            println!(
                "case {case}: pre-flight {} ({} diagnostics)",
                if report.is_accepted() {
                    "accepted"
                } else {
                    "REJECTED"
                },
                report.diagnostics.len()
            );
            if !report.is_accepted() {
                print!("{}", report.render_text());
                std::process::exit(1);
            }
        }
        let (measured, tau_hat, ratio, sys) =
            run_case(&spec, args.step_mode, args.profile.is_some());
        last_sys = Some(sys);
        worst_ratio = worst_ratio.max(ratio);
        let ok = measured <= tau_hat + 8;
        rows.push(vec![
            case.to_string(),
            eta.to_string(),
            epsilon.to_string(),
            rho_a.to_string(),
            reconfig.to_string(),
            measured.to_string(),
            tau_hat.to_string(),
            format!("{:.3}", ratio),
            if ok { "ok".into() } else { "VIOLATED".into() },
        ]);
        assert!(ok, "bound violated: case {case}");
    }
    if !args.quiet {
        print_table(
            "randomised τ̂ validation",
            &[
                "case", "η", "ε", "ρ_A", "R", "measured", "τ̂", "ratio", "check",
            ],
            &rows,
        );
    }
    args.log(format!(
        "\nworst measured/τ̂ ratio: {worst_ratio:.3} (≤ 1 + margin ⇒ bound valid;"
    ));
    args.log("close to 1 ⇒ bound tight, not vacuous)");
    if let Some(mut sys) = last_sys {
        if let Some(path) = trace_path {
            write_trace(&path, &sys.chrome_trace_json());
        }
        if let Some(path) = args.blame {
            // Where did the last case's cycles actually go? The attribution
            // splits each measured τ into DMA transfer, ring transit,
            // accelerator service and reconfig — the same terms Eq. 2 sums.
            streamgate_bench::write_blame(&path, &mut sys, "tau-sweep");
        }
        if let Some(path) = args.profile {
            streamgate_bench::write_profile(&path, &mut sys, "tau-sweep");
        }
    }
}
