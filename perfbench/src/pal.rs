//! `pal-decode` and `pal-observed`: the §VI-A PAL stereo decoder
//! (`build_pal_system` on `PalSystemConfig::scaled_default`), run field by
//! field on the event engine and then for the same budget on the exhaustive
//! oracle.
//!
//! * `pal-decode` is the production posture: analyzer pre-flight, flight
//!   recorder on, monitor polled after every field. The ring, the span
//!   engine, chain fusion and the DSP kernels do nearly all the work.
//! * `pal-observed` profiles the run (full trace, ring delivery log, FIFO
//!   traces), which puts the engine on its per-cycle `event_run` path, and
//!   then builds and checks every artifact an observed run produces.
//!
//! Both workloads are fixed by the paper's configuration; the seed does not
//! change their inputs.

use crate::spans::Spans;
use crate::stats::{host_factor, Checks, Fingerprint, HostTime};
use crate::{Iterations, Measured};
use std::collections::BTreeMap;
use std::time::Instant;
use streamgate_analysis::{
    analyze_profiled, check_blame_conformance, monitor_for, parse_profile, AnalysisOptions,
    AnalysisState, DeploySpec, Report, ToDeploySpec,
};
use streamgate_core::{
    build_pal_system, collect_blame, collect_profile, solve_blocksizes_checked, system_metrics,
    Monitor, PalSystem, PalSystemConfig,
};
use streamgate_dsp::{decode_stereo, rms_error, PalStereoSource};
use streamgate_platform::{StepMode, System};

/// Fields (20 ms of stream time each) per `pal-decode` iteration: one
/// simulated second, long enough for the 95 % real-time check.
const DECODE_FIELDS: u64 = 50;
/// Fields per `pal-observed` iteration: the artifact folds cost several
/// times the run itself, so a shorter run keeps many iterations per run.
const OBSERVED_FIELDS: u64 = 10;
/// Fields per closed-loop request: 40 ms of stream time, short enough
/// that a 30-s run leaves well over ten requests beyond p90.
const FIELDS_PER_REQUEST: u64 = 2;
/// Fields per timed slice of the oracle leg: 200 ms of stream time.
const FIELDS_PER_ORACLE_SLICE: u64 = 10;
/// Flight-recorder capacity of the production posture.
const RECORDER_EVENTS: usize = 4096;
/// Leading output samples skipped by the reference comparison (filter
/// warm-up), as in `pal_system_sim`.
const SKIP: usize = 64;
/// Largest platform-vs-reference RMS error accepted: `pal_system_sim`
/// reports it as 0.000000 at six decimals.
const MAX_RMS: f64 = 5e-7;

struct Setup {
    spec: DeploySpec,
    report: Report,
    pal: PalSystem,
    oracle: PalSystem,
    monitor: Monitor,
}

/// Analyzer pre-flight, block-size solve and both platform builds — the
/// work `setup_s` measures.
fn setup(
    cfg: &PalSystemConfig,
    observed: bool,
    cycles: u64,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Setup {
    let spec = cfg.to_deploy_spec();
    let (state, _) = spans.time("analysis.full", || {
        AnalysisState::new(spec.clone(), AnalysisOptions::default())
    });
    checks.check(state.report().is_accepted(), || {
        format!(
            "pre-flight rejected the PAL deployment:\n{}",
            state.report().render_text()
        )
    });
    let (sizes, _) = spans.time("core.blocksize", || {
        solve_blocksizes_checked(&cfg.sharing_problem())
    });
    checks.check(
        sizes
            .as_ref()
            .is_ok_and(|s| s.etas.iter().zip(cfg.etas).all(|(&m, c)| m <= c)),
        || {
            format!(
                "configured block sizes {:?} below the solved minimum {sizes:?}",
                cfg.etas
            )
        },
    );
    let (mut pal, _) = spans.time("core.build", || build_pal_system(cfg));
    let (mut oracle, _) = spans.time("core.build", || build_pal_system(cfg));
    oracle.system.step_mode = StepMode::Exhaustive;
    for sys in [&mut pal.system, &mut oracle.system] {
        if observed {
            sys.enable_profiling((cycles / 1000).max(1));
        } else {
            sys.enable_flight_recorder(RECORDER_EVENTS);
        }
    }
    let report = state.report().clone();
    let monitor = monitor_for(&spec, &report, &pal.system);
    Setup {
        spec,
        report,
        pal,
        oracle,
        monitor,
    }
}

/// Tile-level accounting of a finished system: what both engines must
/// agree on exactly.
fn tile_counters(sys: &System) -> Vec<u64> {
    let mut v = vec![sys.cycle()];
    for g in &sys.gateways {
        v.extend([g.idle_cycles, g.reconfig_cycles_total, g.dma_busy_cycles]);
        v.extend((0..g.num_streams()).map(|i| g.stream(i).blocks_done));
    }
    for a in &sys.accels {
        v.extend([a.busy_cycles, a.samples_in, a.samples_out]);
    }
    v.extend(sys.processors.iter().map(|p| p.busy_cycles));
    v.extend(sys.fifos.iter().map(|f| f.pushed));
    v
}

fn fingerprint(tiles: &[u64], audio: (usize, usize), extra: &[&str]) -> Fingerprint {
    let mut fp = Fingerprint::default();
    tiles.iter().for_each(|&t| fp.add(t));
    fp.add(audio.0 as u64);
    fp.add(audio.1 as u64);
    extra.iter().for_each(|s| fp.add_str(s));
    fp
}

/// Host time of the timed calls of one iteration, split as the metrics
/// need it. Every segment is timed right after a [`host_factor`].
#[derive(Default)]
struct IterationTimes {
    setup: HostTime,
    wall: HostTime,
    run: HostTime,
    oracle: HostTime,
    artifacts: HostTime,
    /// Seconds per closed-loop request.
    requests: Vec<HostTime>,
    hosts: Vec<f64>,
}

impl IterationTimes {
    fn host(&mut self) -> f64 {
        let h = host_factor();
        self.hosts.push(h);
        h
    }
}

/// One iteration: set up, run the event leg field by field, build the
/// artifacts (`pal-observed`), run the oracle leg, then check the outputs.
fn iteration(
    cfg: &PalSystemConfig,
    observed: bool,
    reference: &(Vec<f64>, Vec<f64>),
    spans: &mut Spans,
    checks: &mut Checks,
    layers: &mut BTreeMap<&'static str, f64>,
) -> (IterationTimes, Fingerprint) {
    let fields = if observed {
        OBSERVED_FIELDS
    } else {
        DECODE_FIELDS
    };
    let field_cycles = cfg.clock_hz / 50;
    let cycles = fields * field_cycles;

    let mut times = IterationTimes::default();
    let host = times.host();
    let t_setup = Instant::now();
    let mut s = setup(cfg, observed, cycles, spans, checks);
    times.setup = HostTime::new(t_setup.elapsed().as_secs_f64(), host);

    // Event leg: one `System::run` per 20-ms PAL field. The production
    // posture polls the armed monitor after every field.
    let mut violations = 0;
    for _ in 0..fields / FIELDS_PER_REQUEST {
        let host = times.host();
        let mut request = HostTime::default();
        for _ in 0..FIELDS_PER_REQUEST {
            let (_, run) = spans.time("platform.run", || s.pal.system.run(field_cycles));
            request += HostTime::new(run, host);
            times.run += HostTime::new(run, host);
            if !observed {
                let (n, poll) =
                    spans.time("core.monitor_poll", || s.monitor.poll(&s.pal.system.tracer));
                violations += n;
                request += HostTime::new(poll, host);
            }
        }
        times.requests.push(request);
        times.wall += request;
    }

    let mut texts = Vec::new();
    if observed {
        let host = times.host();
        let t_art = Instant::now();
        texts = artifacts(&mut s, spans, checks, &mut violations);
        times.artifacts = HostTime::new(t_art.elapsed().as_secs_f64(), host);
        times.wall += times.artifacts;
    }

    for _ in 0..fields / FIELDS_PER_ORACLE_SLICE {
        let host = times.host();
        let outer = spans.begin("platform.run");
        let (_, oracle) = spans.time("platform.oracle_run", || {
            s.oracle.system.run(FIELDS_PER_ORACLE_SLICE * field_cycles)
        });
        spans.end(outer);
        times.oracle += HostTime::new(oracle, host);
    }
    times.wall += times.oracle;

    // Output checks, outside the timed calls.
    let mut oracle_monitor = monitor_for(&s.spec, &s.report, &s.oracle.system);
    s.oracle.system.finish_trace();
    violations += oracle_monitor.poll(&s.oracle.system.tracer);
    checks.check(violations == 0 && s.monitor.is_clean(), || {
        format!(
            "bound monitor flagged {violations} violation(s): {:?}",
            s.monitor.violations()
        )
    });
    let tiles = tile_counters(&s.pal.system);
    checks.check(tiles == tile_counters(&s.oracle.system), || {
        "event and exhaustive engines disagree on tile accounting".into()
    });
    if observed {
        s.pal.system.finish_trace();
        checks.check(
            s.pal.system.tracer.events() == s.oracle.system.tracer.events(),
            || "event and exhaustive engines recorded different traces".into(),
        );
    }
    let e = s.pal.system.engine_stats;
    let ring = &s.pal.system.ring.stats;
    let steps = (e.full_steps + e.ring_only_cycles).max(1) as f64;
    let log = s.pal.system.ring.delivery_log();
    for (name, v) in [
        ("platform.full_steps", e.full_steps as f64),
        ("platform.ring_only_cycles", e.ring_only_cycles as f64),
        ("platform.skipped_cycles", e.skipped_cycles as f64),
        ("platform.ns_per_step", times.run.raw / steps * 1e9),
        ("ring.data_flits", ring[0].delivered as f64),
        ("ring.credit_flits", ring[1].delivered as f64),
        (
            "ring.injection_stalls",
            (ring[0].injection_stalls + ring[1].injection_stalls) as f64,
        ),
        ("trace.events", s.pal.system.tracer.len() as f64),
        (
            "trace.deliveries_logged",
            log.map_or(0, |l| {
                l.data.len() as u64 + l.credit.len() as u64 + l.data_dropped + l.credit_dropped
            }) as f64,
        ),
    ] {
        layers.insert(name, v);
    }

    let (left, right) = s.pal.take_audio();
    let oracle_audio = s.oracle.take_audio();
    let seconds = cycles as f64 / cfg.clock_hz as f64;
    let nominal = cfg.pal.audio_rate() * seconds;
    if !observed {
        checks.check(left.len() as f64 >= 0.95 * nominal, || {
            format!(
                "decoded {} samples, below 95 % of the nominal {nominal:.0}",
                left.len()
            )
        });
    }
    let (ref_l, ref_r) = reference;
    let n = left
        .len()
        .saturating_sub(SKIP)
        .min(ref_l.len())
        .saturating_sub(SKIP);
    let rms = if n == 0 {
        f64::INFINITY
    } else {
        rms_error(&left[SKIP..SKIP + n], &ref_l[SKIP..SKIP + n])
            .max(rms_error(&right[SKIP..SKIP + n], &ref_r[SKIP..SKIP + n]))
    };
    checks.check(rms <= MAX_RMS, || {
        format!("platform vs reference chain RMS error {rms:e} over {n} samples")
    });

    let text_refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let fp = fingerprint(&tiles, (left.len(), right.len()), &text_refs);
    let fp_oracle = fingerprint(
        &tile_counters(&s.oracle.system),
        (oracle_audio.0.len(), oracle_audio.1.len()),
        &text_refs,
    );
    checks.check(fp == fp_oracle, || {
        "engines produced different fingerprints".into()
    });
    (times, fp)
}

/// Every artifact of an observed run, built and checked in the order a user
/// gets them. Returns the texts the fingerprint covers.
fn artifacts(
    s: &mut Setup,
    spans: &mut Spans,
    checks: &mut Checks,
    violations: &mut usize,
) -> Vec<String> {
    let sys = &mut s.pal.system;
    let (profile, _) = spans.time("core.collect_profile", || collect_profile(sys, "pal"));
    let (blame, _) = spans.time("core.collect_blame", || collect_blame(sys, "pal"));
    let (metrics, _) = spans.time("core.system_metrics", || system_metrics(sys, 0));
    let (chrome, _) = spans.time("trace.chrome_export", || sys.chrome_trace_json());
    let (n, _) = spans.time("core.monitor_poll", || s.monitor.poll(&sys.tracer));
    *violations += n;
    let (profile_json, _) = spans.time("core.profile_json", || profile.to_json_text());
    let (blame_json, _) = spans.time("core.blame_json", || blame.to_json_text());

    let (parsed, _) = spans.time("analysis.parse_profile", || parse_profile(&profile_json));
    checks.check(
        parsed
            .as_ref()
            .is_ok_and(|p| *p == profile && p.to_json_text() == profile_json),
        || "profile JSON does not re-parse to the same profile".into(),
    );
    let (report, _) = spans.time("analysis.analyze_profiled", || {
        analyze_profiled(&s.spec, &AnalysisOptions::default(), parsed.as_ref().ok())
    });
    checks.check(report.is_accepted(), || {
        format!(
            "analyze_profiled rejected the measured profile:\n{}",
            report.render_text()
        )
    });
    let (failures, _) = spans.time("analysis.blame_conformance", || {
        check_blame_conformance(&s.spec, &s.report, &blame)
    });
    checks.check(failures.is_empty(), || {
        format!("blame conformance failures: {failures:?}")
    });
    checks.check(
        metrics.blocks.len() as u64 == blame.streams.iter().map(|b| b.blocks).sum::<u64>(),
        || "system_metrics and collect_blame disagree on completed blocks".into(),
    );
    checks.check(chrome.starts_with('{'), || {
        "chrome trace export is not a JSON object".into()
    });
    vec![report.render_text(), profile_json, blame_json]
}

pub fn run(observed: bool, trace: bool, iters: &mut Iterations, spans: &mut Spans) -> Measured {
    let cfg = PalSystemConfig::scaled_default();

    // The pure-DSP reference chain the platform's audio must reproduce.
    spans.on = trace;
    let mut src = PalStereoSource::new(cfg.pal);
    let baseband = src.tone_block((cfg.pal.fs * 0.25) as usize, cfg.tones.0, cfg.tones.1);
    let (reference, _) = spans.time("dsp.reference_decode", || {
        decode_stereo(&cfg.pal, &baseband, cfg.fir_taps)
    });
    let run_layers = spans.take_totals();

    let fields = if observed {
        OBSERVED_FIELDS
    } else {
        DECODE_FIELDS
    };
    let cycles = (fields * cfg.clock_hz / 50) as f64;
    let mut m = Measured::default();
    let mut first_fp = None;
    while iters.more() {
        let traced = iters.begin(spans);
        let mut layers = BTreeMap::new();
        let (t, fp) = iteration(
            &cfg,
            observed,
            &reference,
            spans,
            &mut m.checks,
            &mut layers,
        );
        let fp0 = *first_fp.get_or_insert(fp);
        m.checks.check(fp == fp0, || {
            "fingerprint changed between iterations".into()
        });
        m.fingerprint = fp0;
        if traced {
            layers.extend(crate::layer_rows(spans.take_totals()));
            layers.insert("bench.wall_s", t.wall.raw);
            if observed {
                layers.insert("bench.artifacts_s", t.artifacts.raw);
            }
            m.layer_iterations.push(layers);
            m.traced_wall.push(t.wall);
            continue;
        }
        m.setup.push(t.setup);
        m.wall.push(t.wall);
        m.sim.push(cycles / t.run.norm / 1e6);
        m.oracle.push(cycles / t.oracle.norm / 1e6);
        if observed {
            m.artifacts.push(t.artifacts);
        }
        m.requests.extend(t.requests);
        m.hosts.extend(t.hosts);
    }
    m.run_layers = crate::layer_rows(run_layers);
    m
}
