//! E6 — §VI-A: real-time PAL stereo decode on the shared-accelerator
//! platform, verified against the pure-DSP reference chain.
//!
//! `cargo run --release -p streamgate-bench --bin pal_system_sim`
//!
//! Pass `--trace out.json` to record the run with the platform tracer and
//! export a Chrome-trace-format timeline (block phases per stream,
//! reconfiguration windows, DMA/drain phases, stalls, FIFO levels) viewable
//! in <https://ui.perfetto.dev> or `chrome://tracing`.
//!
//! Pass `--cycles <n>` for a shorter smoke run, `--mode exhaustive|event`
//! to select the simulation engine, `--profile <path>` to write the run's
//! measured `RunProfile` JSON (empirical arrival/service curves, stall and
//! τ distributions — feed it to `streamgate-analyze --profile`), and
//! `--bench-json <path>` to time BOTH engines over the same cycle budget,
//! untraced and then profiled, and write the measured throughput and the
//! two speedups as machine-readable JSON.
//!
//! Exits 1 with a one-line verdict when the decode misses real time (a
//! `--cycles` budget too short to fill the pipeline does), and 2 on a
//! usage error.

use std::time::Instant;
use streamgate_bench::{parse_args, print_table, write_artifact, write_trace};
use streamgate_core::{
    build_pal_system, solve_blocksizes_checked, system_metrics, PalSystem, PalSystemConfig,
};
use streamgate_dsp::{decode_stereo, rms_error, snr_db, tone_power, PalStereoSource};
use streamgate_platform::{AccelId, EngineStats, Json, StallCause, StepMode};

/// Observability level of one simulated run.
#[derive(Clone, Copy, PartialEq)]
enum SimObserve {
    /// Nothing — used for the engine-timing comparison runs only.
    Off,
    /// Bounded flight recorder (the always-on production configuration).
    Recorder,
    /// Full structured event trace.
    Trace,
    /// Full trace + ring delivery log + FIFO traces.
    Profile,
}

/// Build the PAL platform, run it for `cycles` under `mode`, and return the
/// finished system together with the wall-clock seconds the run took.
fn simulate(
    cfg: &PalSystemConfig,
    cycles: u64,
    mode: StepMode,
    observe: SimObserve,
) -> (PalSystem, f64) {
    let mut pal = build_pal_system(cfg);
    pal.system.step_mode = mode;
    match observe {
        SimObserve::Off => {}
        // Last few thousand raw events, kept even with tracing off — cheap
        // enough to leave on by default so failures are explainable.
        SimObserve::Recorder => pal.system.enable_flight_recorder(4096),
        // ~1000 FIFO/ring counter samples over the run; spans are exact.
        SimObserve::Trace => pal.system.enable_tracing((cycles / 1000).max(1)),
        // Full observability: tracer + ring delivery log + FIFO traces.
        SimObserve::Profile => pal.system.enable_profiling((cycles / 1000).max(1)),
    }
    let t0 = Instant::now();
    pal.system.run(cycles);
    (pal, t0.elapsed().as_secs_f64())
}

/// Per-phase cycle accounting of one finished system: how each tile class
/// spent the budget (gateway idle/reconfig/DMA, accelerator busy, processor
/// busy) plus the engine's own cycle classes. The exhaustive and event
/// engines must agree on every tile-level figure — only the engine stats
/// (how the clock was advanced) may differ.
fn accounting_json(sys: &streamgate_platform::System) -> Json {
    let gateways = sys.gateways.iter().map(|g| {
        Json::obj([
            ("idle_cycles", g.idle_cycles.into()),
            ("reconfig_cycles", g.reconfig_cycles_total.into()),
            ("dma_busy_cycles", g.dma_busy_cycles.into()),
        ])
    });
    let accelerators = sys.accels.iter().map(|a| {
        Json::obj([
            ("busy_cycles", a.busy_cycles.into()),
            ("samples_in", a.samples_in.into()),
            ("samples_out", a.samples_out.into()),
        ])
    });
    let processors = sys
        .processors
        .iter()
        .map(|p| Json::obj([("busy_cycles", p.busy_cycles.into())]));
    let e = sys.engine_stats;
    Json::obj([
        (
            "engine",
            Json::obj([
                ("full_steps", e.full_steps.into()),
                ("ring_only_cycles", e.ring_only_cycles.into()),
                ("skipped_cycles", e.skipped_cycles.into()),
            ]),
        ),
        ("gateways", gateways.collect()),
        ("accelerators", accelerators.collect()),
        ("processors", processors.collect()),
    ])
}

fn mode_json(wall: f64, cycles: u64, stats: EngineStats) -> Json {
    Json::obj([
        ("wall_seconds", wall.into()),
        (
            "cycles_per_sec",
            ((cycles as f64 / wall.max(1e-9)).round() as u64).into(),
        ),
        ("full_steps", stats.full_steps.into()),
        ("ring_only_cycles", stats.ring_only_cycles.into()),
        ("skipped_cycles", stats.skipped_cycles.into()),
        ("fused_sends", stats.fused_sends.into()),
    ])
}

/// Print one timed pair of engine runs over `cycles`: the event engine's
/// wall time and counters, then the exhaustive engine's wall time.
fn print_engine_timing(cycles: u64, (wall_event, ev): (f64, EngineStats), wall_exh: f64) {
    println!(
        "  event-driven: {:.2} s ({:.1} Mcycles/s; {} full steps, {} ring-only, {} skipped, \
         {} fused sends)",
        wall_event,
        cycles as f64 / wall_event.max(1e-9) / 1e6,
        ev.full_steps,
        ev.ring_only_cycles,
        ev.skipped_cycles,
        ev.fused_sends
    );
    println!(
        "  exhaustive:   {:.2} s ({:.1} Mcycles/s)",
        wall_exh,
        cycles as f64 / wall_exh.max(1e-9) / 1e6
    );
}

/// `--churn`: online admission control on the two-gateway PAL deployment
/// (Fig. 10). A running pal2 system, bound monitor armed, takes one
/// admissible stream join (spliced in mid-run through the incremental
/// analyzer, inside gateway 1's config-bus slot), a retune of `ch1-back`
/// in place (gateway 1's running table must keep the committed spec's
/// order), one declared mode switch (retuned in place over the config
/// bus, with the measured transition delay checked against the A12 bound
/// and a refused reverse edge), and one infeasible join (rejected by rule
/// A8 before any platform interaction). The monitor must stay silent
/// across every transition, and the reject must leave system state and
/// the committed bounds bit-for-bit untouched.
///
/// The deployment is analyzed exactly once: the baseline report and the
/// admission controller share a single `AnalysisState`, so every request
/// is served from the cached incremental `Facts` rather than a fresh full
/// re-analysis.
fn run_churn_admission(mode: StepMode, cycles: u64) {
    use streamgate_analysis::{
        monitor_for, AdmissionController, AnalysisOptions, AnalysisState, Delta, DeploySpec,
        StreamDeploy, StreamMode, StreamModes,
    };
    use streamgate_core::measured_transition_delay;
    use streamgate_ilp::Rational;

    println!("\n== online admission (--churn): pal2, mid-run joins ==");
    let mut spec = DeploySpec::pal2();
    // Declare a two-mode table on ch1-front: "cruise" is the committed
    // configuration, "eco" trades a shorter reconfiguration window. Only
    // the cruise -> eco edge is allowed, so the demo can also show the
    // analyzer refusing the reverse switch.
    let cruise = spec.gateways[0].streams[0].clone();
    let mut eco = cruise.clone();
    eco.reconfig -= 16;
    let front = cruise.name.clone();
    spec.modes = vec![StreamModes {
        gateway: 0,
        stream: front.clone(),
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
        transitions: vec![("cruise".into(), "eco".into())],
    }];
    let state = AnalysisState::new(spec.clone(), AnalysisOptions::default());
    assert!(
        state.report().is_accepted(),
        "pal2 baseline must be accepted"
    );
    let mut built = spec.build_multi_platform();
    built.system.step_mode = mode;
    built.system.enable_tracing((cycles / 1000).max(1));
    let mut monitor = monitor_for(&spec, state.report(), &built.system);

    // Two blocks of input per stream so the gateways are genuinely busy
    // when the join arrives.
    for (g, v) in spec.gateway_views().iter().enumerate() {
        for (s, st) in v.streams.iter().enumerate() {
            let f = built.inputs[g][s];
            for k in 0..2 * st.eta_in {
                built.system.fifos[f.0].try_push((k as f64, 0.0), 0);
            }
        }
    }
    built.system.run(cycles / 4);
    assert_eq!(monitor.poll(&built.system.tracer), 0, "baseline run clean");

    let mut ctrl = AdmissionController::from_state(state);
    let probe = StreamDeploy {
        name: "aux-meter".into(),
        mu: Rational::new(1, 1_000_000),
        eta_in: 8,
        eta_out: 8,
        reconfig: 20,
        input_capacity: 64,
        output_capacity: 64,
        max_latency: None,
    };

    // Join 1: admissible. Spliced inside the A9 bus slot; monitor re-armed
    // with the updated bounds across the transition.
    let t_join = built.system.cycle();
    let outcome = ctrl
        .request(
            &mut built.system,
            &built.gateways,
            &Delta::AddStream {
                gateway: 1,
                stream: probe,
            },
            Some(&mut monitor),
        )
        .expect("well-formed join");
    assert!(outcome.verdict.is_admitted(), "aux-meter join must admit");
    let (window_start, window_end) = outcome.window.expect("admitted join has a window");
    let (fin, _fout) = outcome.fifos.expect("admitted join created fifos");
    let idx = outcome.stream_index.expect("admitted join has an index");
    println!(
        "  join aux-meter @ gw 1: ADMITTED (reconfig window [{window_start}, {window_end}), \
         requested at cycle {t_join})"
    );
    for k in 0..8 {
        let now = built.system.cycle();
        built.system.fifos[fin.0].try_push((k as f64, 0.0), now);
    }
    built.system.run(cycles / 4);
    assert_eq!(
        monitor.poll(&built.system.tracer),
        0,
        "monitor must stay silent across the admission transition"
    );
    let gw1 = &built.system.gateways[built.gateways[1]];
    assert!(
        gw1.stream(idx).blocks_done >= 1,
        "spliced stream must run a block"
    );

    // Retune: ch1-back, first of gw-back's three entries, gets a shorter
    // reconfiguration window. The entry is replaced in place, so the
    // running table keeps the committed spec's order and the re-armed
    // monitor holds every stream to its own τ̂.
    let back = spec.gateways[1].streams[0].clone();
    let mut with = back.clone();
    with.reconfig -= 16;
    let outcome = ctrl
        .request(
            &mut built.system,
            &built.gateways,
            &Delta::RetuneStream {
                gateway: 1,
                stream: back.name.clone(),
                with,
            },
            Some(&mut monitor),
        )
        .expect("well-formed retune");
    assert!(outcome.verdict.is_admitted(), "ch1-back retune must admit");
    let idx = outcome.stream_index.expect("retune keeps the table index");
    let (fin, _fout) = outcome.fifos.expect("retune rebuilt the stream fifos");
    let gw1 = &built.system.gateways[built.gateways[1]];
    let running: Vec<String> = (0..gw1.num_streams())
        .map(|i| gw1.stream(i).name.clone())
        .collect();
    let committed: Vec<String> = ctrl.spec().gateways[1]
        .streams
        .iter()
        .map(|s| s.name.clone())
        .collect();
    assert_eq!(
        running, committed,
        "gw-back's running table must list the committed spec's streams in order"
    );
    for k in 0..back.eta_in {
        let now = built.system.cycle();
        built.system.fifos[fin.0].try_push((k as f64, 0.0), now);
    }
    built.system.run(cycles / 4);
    assert_eq!(
        monitor.poll(&built.system.tracer),
        0,
        "monitor must stay silent across the retune"
    );
    println!(
        "  retune {} @ gw 1: ADMITTED (in place at index {idx}; table {})",
        back.name,
        running.join(", ")
    );

    // Mode switch: retune ch1-front to its declared "eco" mode in place
    // over the config bus. The A12 bound predicts the worst-case
    // transition delay from the request cycle; the measured first
    // post-switch block must land within it, and the monitor — armed with
    // that very bound as a one-shot deadline — must stay silent.
    let t_switch = built.system.cycle();
    let outcome = ctrl
        .request(
            &mut built.system,
            &built.gateways,
            &Delta::ModeSwitch {
                gateway: 0,
                stream: front.clone(),
                mode: "eco".into(),
            },
            Some(&mut monitor),
        )
        .expect("declared mode switch is well-formed");
    assert!(outcome.verdict.is_admitted(), "eco switch must admit");
    let predicted = outcome
        .predicted_delay
        .expect("admitted mode switch carries an A12 bound");
    let front_idx = outcome.stream_index.expect("switch keeps the table index");
    let (fin, _fout) = outcome.fifos.expect("switch rebuilt the stream fifos");
    for k in 0..spec.gateways[0].streams[0].eta_in {
        let now = built.system.cycle();
        built.system.fifos[fin.0].try_push((k as f64, 0.0), now);
    }
    built.system.run(cycles / 4);
    assert_eq!(
        monitor.poll(&built.system.tracer),
        0,
        "monitor must stay silent across the mode transition"
    );
    let measured = measured_transition_delay(&built.system, built.gateways[0], front_idx, t_switch)
        .expect("retuned stream ran a post-switch block");
    assert!(
        measured <= predicted,
        "A12 transition bound violated: measured {measured} > predicted {predicted}"
    );
    println!(
        "  switch {front} -> eco @ gw 0: ADMITTED (A12 predicted {predicted} cycles, \
         measured {measured})"
    );

    // The reverse edge is not declared, so the analyzer refuses it before
    // touching the platform.
    let err = ctrl
        .request(
            &mut built.system,
            &built.gateways,
            &Delta::ModeSwitch {
                gateway: 0,
                stream: front.clone(),
                mode: "cruise".into(),
            },
            Some(&mut monitor),
        )
        .expect_err("eco -> cruise is not a declared transition");
    println!("  switch {front} -> cruise: REFUSED ({err})");

    // Join 2: infeasible (μ = 1/2 over-commits the shared round, rule A8).
    // The reject path must be non-disruptive: no new fifos, no new table
    // entries, committed report untouched.
    let fifos_before = built.system.fifos.len();
    let streams_before: Vec<usize> = built
        .gateways
        .iter()
        .map(|&g| built.system.gateways[g].num_streams())
        .collect();
    let report_before = ctrl.report().clone();
    let hog = StreamDeploy {
        name: "hog".into(),
        mu: Rational::new(1, 2),
        eta_in: 8,
        eta_out: 8,
        reconfig: 20,
        input_capacity: 64,
        output_capacity: 64,
        max_latency: None,
    };
    let outcome = ctrl
        .request(
            &mut built.system,
            &built.gateways,
            &Delta::AddStream {
                gateway: 1,
                stream: hog,
            },
            Some(&mut monitor),
        )
        .expect("well-formed join");
    assert!(!outcome.verdict.is_admitted(), "hog join must reject");
    let a8_errors = outcome
        .verdict
        .report()
        .with_severity(streamgate_analysis::Severity::Error)
        .count();
    println!("  join hog @ gw 1: REJECTED ({a8_errors} error(s); system untouched)");
    assert_eq!(built.system.fifos.len(), fifos_before, "no fifos on reject");
    let streams_after: Vec<usize> = built
        .gateways
        .iter()
        .map(|&g| built.system.gateways[g].num_streams())
        .collect();
    assert_eq!(streams_after, streams_before, "no table entries on reject");
    assert_eq!(ctrl.report(), &report_before, "committed bounds untouched");

    built.system.run(cycles / 4);
    assert_eq!(
        monitor.poll(&built.system.tracer),
        0,
        "monitor silent after the rejected request"
    );
    println!(
        "  monitor: {} violation(s) across baseline, join, retune, switch and reject",
        monitor.violations().len()
    );
}

fn main() {
    let args = parse_args();
    if args.cycles == Some(0) {
        eprintln!("--cycles 0 simulates no stream time, so no real-time verdict can be given");
        std::process::exit(2);
    }
    let cfg = PalSystemConfig::scaled_default();
    if args.analyze {
        use streamgate_analysis::ToDeploySpec;
        streamgate_bench::preflight_analyze(&cfg.to_deploy_spec());
    }
    let prob = cfg.sharing_problem();
    args.log(format!(
        "laptop-scale PAL config: audio {} Hz, baseband {} Hz, clock {} Hz",
        cfg.pal.audio_rate(),
        cfg.pal.fs,
        cfg.clock_hz
    ));
    args.log(format!(
        "utilisation {:.2} % (paper's operating point: 95.4 %)",
        prob.utilisation().to_f64() * 100.0
    ));
    let minimum = solve_blocksizes_checked(&prob).expect("feasible");
    args.log(format!(
        "minimum η = {:?}; configured η = {:?}",
        minimum.etas, cfg.etas
    ));

    let cycles = args.cycles.unwrap_or(cfg.clock_hz);
    if args.churn {
        run_churn_admission(args.step_mode, cycles.max(400_000));
    }
    let seconds = cycles as f64 / cfg.clock_hz as f64;
    args.log(format!(
        "\nsimulating {cycles} cycles ({seconds:.3} s of stream time, engine: {}) …",
        args.step_mode.name()
    ));
    // Blame attribution needs the full event stream; otherwise the bounded
    // flight recorder stays on by default (production observability).
    let observe = if args.profile.is_some() {
        SimObserve::Profile
    } else if args.trace.is_some() || args.blame.is_some() {
        SimObserve::Trace
    } else {
        SimObserve::Recorder
    };
    let (mut pal, wall) = simulate(&cfg, cycles, args.step_mode, observe);
    args.log(format!(
        "wall-clock {:.2} s → {:.1} Mcycles/s",
        wall,
        cycles as f64 / wall.max(1e-9) / 1e6
    ));

    // Bound monitor over whatever the tracer retained (full trace or the
    // flight recorder's window). A violation prints, and — with
    // `--postmortem` — dumps the recorder for `streamgate-analyze` to
    // explain. The clean PAL deployment is expected to stay silent.
    {
        use streamgate_analysis::ToDeploySpec;
        let spec = cfg.to_deploy_spec();
        let report = streamgate_analysis::analyze(&spec);
        let mut monitor = streamgate_analysis::monitor_for(&spec, &report, &pal.system);
        if monitor.poll(&pal.system.tracer) > 0 {
            for v in monitor.violations() {
                println!("monitor: {v}");
            }
            if let Some(path) = &args.postmortem {
                streamgate_bench::write_postmortem(path, &pal.system, &monitor, &spec.name);
            }
            panic!(
                "bound monitor flagged {} violation(s) on the PAL run",
                monitor.violations().len()
            );
        }
    }
    let (left, right) = pal.take_audio();

    // --- real-time verification -------------------------------------------
    let fs_audio = cfg.pal.audio_rate();
    let achieved = left.len() as f64 / seconds;
    let expected = fs_audio * seconds;
    println!(
        "\nreal-time: decoded {} stereo samples in {seconds:.3} s (need {:.0} minus pipeline fill)",
        left.len(),
        expected
    );
    // On a full one-second run the pipeline-fill transient is negligible and
    // we demand 95 % of the nominal audio rate; on short smoke runs the fill
    // dominates, so only require that the decode is at least half-rate.
    let rt_factor = if cycles >= cfg.clock_hz { 0.95 } else { 0.5 };
    let ok_rt = (left.len() as f64) >= rt_factor * expected;
    println!(
        "audio rate achieved: {achieved:.0} S/s → {}",
        if ok_rt { "REAL-TIME MET" } else { "UNDERRUN" }
    );

    // --- fidelity: platform vs reference chain -----------------------------
    let (f_l, f_r) = cfg.tones;
    let skip = 64;
    if args.quiet {
        // Fidelity tables are informational; the real-time verdict below is
        // the acceptance signal.
    } else if left.len() > 2 * skip {
        let l = &left[skip..];
        let r = &right[skip..];
        print_table(
            "channel separation (Goertzel power)",
            &["channel", "own tone", "other tone", "SNR dB"],
            &[
                vec![
                    "L (400 Hz)".into(),
                    format!("{:.4}", tone_power(l, f_l, fs_audio)),
                    format!("{:.6}", tone_power(l, f_r, fs_audio)),
                    format!("{:.1}", snr_db(l, f_l, fs_audio)),
                ],
                vec![
                    "R (700 Hz)".into(),
                    format!("{:.4}", tone_power(r, f_r, fs_audio)),
                    format!("{:.6}", tone_power(r, f_l, fs_audio)),
                    format!("{:.1}", snr_db(r, f_r, fs_audio)),
                ],
            ],
        );

        // Reference chain (no platform, same kernels).
        let mut src = PalStereoSource::new(cfg.pal);
        let n_ref = (cfg.pal.fs * 0.25) as usize;
        let baseband = src.tone_block(n_ref, f_l, f_r);
        let (ref_l, ref_r) = decode_stereo(&cfg.pal, &baseband, cfg.fir_taps);
        let n = l.len().min(ref_l.len()) - skip;
        println!(
            "\nplatform vs reference chain RMS error (same kernels, {} samples):",
            n
        );
        println!(
            "  L: {:.6}   R: {:.6}",
            rms_error(&l[..n], &ref_l[skip..skip + n]),
            rms_error(&r[..n], &ref_r[skip..skip + n])
        );
    } else {
        println!(
            "\n(run too short for the fidelity comparison — need > {} samples)",
            2 * skip
        );
    }

    // --- sharing statistics -------------------------------------------------
    let gw = &pal.system.gateways[0];
    let total = pal.system.cycle() as f64;
    if !args.quiet {
        print_table(
            "gateway / accelerator statistics",
            &["metric", "value"],
            &[
                vec![
                    "blocks ch1-front".into(),
                    gw.stream(0).blocks_done.to_string(),
                ],
                vec![
                    "blocks ch1-back".into(),
                    gw.stream(2).blocks_done.to_string(),
                ],
                vec![
                    "reconfig % of time".into(),
                    format!("{:.1}", 100.0 * gw.reconfig_cycles_total as f64 / total),
                ],
                vec![
                    "DMA busy % of time".into(),
                    format!("{:.1}", 100.0 * gw.dma_busy_cycles as f64 / total),
                ],
                vec![
                    "gateway idle %".into(),
                    format!("{:.1}", 100.0 * gw.idle_cycles as f64 / total),
                ],
                vec![
                    "CORDIC utilisation %".into(),
                    format!("{:.1}", 100.0 * pal.system.accel_utilisation(AccelId(0))),
                ],
                vec![
                    "FIR+D utilisation %".into(),
                    format!("{:.1}", 100.0 * pal.system.accel_utilisation(AccelId(1))),
                ],
            ],
        );
    }
    args.log(
        "\nsharing: ONE CORDIC + ONE FIR serve 4 logical uses → accelerator\n\
         utilisation ×4 vs duplication (paper: \"improved accelerator\n\
         utilization by a factor of four\").",
    );

    if let Some(path) = &args.profile {
        streamgate_bench::write_profile(path, &mut pal.system, "pal");
    }

    if let Some(path) = &args.blame {
        // Causal latency attribution of every completed block (requires the
        // full event stream, which `observe` selected above).
        streamgate_bench::write_blame(path, &mut pal.system, "pal");
    }

    if let Some(path) = &args.trace {
        if !args.quiet {
            // Tracer-derived per-stream metrics and stall breakdown.
            let metrics = system_metrics(&pal.system, 0);
            let rows: Vec<Vec<String>> = metrics
                .streams
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    vec![
                        pal.system.gateways[0].stream(i).name.clone(),
                        m.blocks().to_string(),
                        m.tau_min().to_string(),
                        format!("{:.0}", m.tau_mean()),
                        m.tau_max().to_string(),
                        m.dma_stall.to_string(),
                    ]
                })
                .collect();
            print_table(
                "tracer: per-stream block times (cycles)",
                &["stream", "blocks", "τ min", "τ mean", "τ max", "dma stall"],
                &rows,
            );
            let stall_rows: Vec<Vec<String>> = StallCause::ALL
                .iter()
                .map(|&c| vec![c.to_string(), metrics.stall_cycles(c).to_string()])
                .collect();
            print_table(
                "tracer: gateway stall breakdown",
                &["cause", "cycles"],
                &stall_rows,
            );
        }
        write_trace(path, &pal.system.chrome_trace_json());
    }

    // --- engine benchmark: event-driven vs exhaustive ----------------------
    if let Some(path) = &args.bench_json {
        // Fresh untraced runs of both engines over the same budget, so the
        // timing comparison is not skewed by the tracer or by cache warm-up
        // from the report run above.
        println!("\ntiming both engines over {cycles} cycles …");
        let (pal_ev, wall_event) = simulate(&cfg, cycles, StepMode::EventDriven, SimObserve::Off);
        let (pal_ex, wall_exh) = simulate(&cfg, cycles, StepMode::Exhaustive, SimObserve::Off);
        let speedup = wall_exh / wall_event.max(1e-9);
        print_engine_timing(cycles, (wall_event, pal_ev.system.engine_stats), wall_exh);
        println!("  speedup: {speedup:.2}×");
        // The same budget profiled: an observed run must keep the fast
        // engine's performance class.
        println!("timing both engines profiled …");
        let [profiled_ev, profiled_ex] =
            [StepMode::EventDriven, StepMode::Exhaustive].map(|mode| {
                let (pal, wall) = simulate(&cfg, cycles, mode, SimObserve::Profile);
                (wall, pal.system.engine_stats)
            });
        let profiled_speedup = profiled_ex.0 / profiled_ev.0.max(1e-9);
        print_engine_timing(cycles, profiled_ev, profiled_ex.0);
        println!("  profiled speedup: {profiled_speedup:.2}×");
        let doc = Json::obj([
            ("bench", "pal_system_sim".into()),
            ("cycles", cycles.into()),
            (
                "modes",
                Json::obj([
                    (
                        "event",
                        mode_json(wall_event, cycles, pal_ev.system.engine_stats),
                    ),
                    (
                        "exhaustive",
                        mode_json(wall_exh, cycles, pal_ex.system.engine_stats),
                    ),
                ]),
            ),
            ("speedup", speedup.into()),
            (
                "profiled_modes",
                Json::obj([
                    ("event", mode_json(profiled_ev.0, cycles, profiled_ev.1)),
                    (
                        "exhaustive",
                        mode_json(profiled_ex.0, cycles, profiled_ex.1),
                    ),
                ]),
            ),
            ("profiled_speedup", profiled_speedup.into()),
        ]);
        let done = format!("benchmark results written to {path}");
        write_artifact(path, &(doc.to_text() + "\n"), &done);

        if let Some(acct_path) = &args.accounting_json {
            let se = &pal_ev.system;
            let sx = &pal_ex.system;
            let identical = se.gateways.iter().zip(&sx.gateways).all(|(a, b)| {
                a.idle_cycles == b.idle_cycles
                    && a.reconfig_cycles_total == b.reconfig_cycles_total
                    && a.dma_busy_cycles == b.dma_busy_cycles
            }) && se.accels.iter().zip(&sx.accels).all(|(a, b)| {
                a.busy_cycles == b.busy_cycles
                    && a.samples_in == b.samples_in
                    && a.samples_out == b.samples_out
            }) && se
                .processors
                .iter()
                .zip(&sx.processors)
                .all(|(a, b)| a.busy_cycles == b.busy_cycles);
            let doc = Json::obj([
                ("bench", "pal_system_sim".into()),
                ("cycles", cycles.into()),
                (
                    "engines",
                    Json::obj([
                        ("event", accounting_json(se)),
                        ("exhaustive", accounting_json(sx)),
                    ]),
                ),
                ("tile_accounting_identical", identical.into()),
            ]);
            let done = format!(
                "per-phase cycle accounting written to {acct_path} \
                 (tile counters identical: {identical})"
            );
            write_artifact(acct_path, &(doc.to_text() + "\n"), &done);
            assert!(
                identical,
                "exhaustive and event engines disagree on tile-level cycle accounting"
            );
        }
    } else if args.accounting_json.is_some() {
        eprintln!("--accounting-json requires --bench-json (it compares both engine runs)");
        std::process::exit(2);
    }

    if !ok_rt {
        println!(
            "real-time constraint violated: decoded {} stereo samples in {cycles} cycles, \
             need {}",
            left.len(),
            (rt_factor * expected).ceil()
        );
        std::process::exit(1);
    }
}
