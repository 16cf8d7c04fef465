//! The streamgate benchmark: three workloads, measured end to end and per
//! layer from one single-threaded process.
//!
//! ```sh
//! cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload pal-decode --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` alternates
//! traced and untraced iterations, prints every per-layer metric plus the
//! tracing overhead, and writes the recorded spans to
//! `perfbench/out/spans-<workload>-seed<seed>.json`. The last line of
//! standard output is always one JSON object: `correct`, `attempted`,
//! `failed` (output checks) and `metrics`. See `perfbench/README.md` for
//! what each workload and metric means.

mod churn;
mod pal;
mod spans;
mod stats;

use spans::Spans;
use stats::{median, norm, peak_rss_mb, quantile, raw, Checks, Fingerprint, HostTime};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Per-layer metrics of the traced run, in `BENCHMARK.json` order. A row a
/// workload makes no call for reads 0 on that workload.
const PER_LAYER: [(&str, &str); 38] = [
    ("platform.run_s", "s"),
    ("platform.full_steps", "count"),
    ("platform.ring_only_cycles", "count"),
    ("platform.skipped_cycles", "count"),
    ("platform.ns_per_step", "ns"),
    ("platform.oracle_run_s", "s"),
    ("ring.data_flits", "count"),
    ("ring.credit_flits", "count"),
    ("ring.injection_stalls", "count"),
    ("trace.events", "count"),
    ("trace.deliveries_logged", "count"),
    ("trace.chrome_export_s", "s"),
    ("dsp.reference_decode_s", "s"),
    ("core.build_s", "s"),
    ("core.blocksize_s", "s"),
    ("core.collect_profile_s", "s"),
    ("core.collect_blame_s", "s"),
    ("core.system_metrics_s", "s"),
    ("core.monitor_poll_s", "s"),
    ("core.profile_json_s", "s"),
    ("core.blame_json_s", "s"),
    ("analysis.full_s", "s"),
    ("analysis.parse_profile_s", "s"),
    ("analysis.analyze_profiled_s", "s"),
    ("analysis.blame_conformance_s", "s"),
    ("analysis.request_s", "s"),
    ("analysis.evaluate_add_small_eta_ms", "ms"),
    ("analysis.evaluate_add_large_eta_ms", "ms"),
    ("analysis.evaluate_remove_ms", "ms"),
    ("analysis.evaluate_retune_ms", "ms"),
    ("analysis.evaluate_switch_ms", "ms"),
    ("analysis.evaluate_reject_ms", "ms"),
    ("analysis.small_eta_streams_evaluated", "count"),
    ("analysis.idle_wait_cycles", "count"),
    ("bench.wall_s", "s"),
    ("bench.artifacts_s", "s"),
    ("bench.spans", "count"),
    ("bench.trace_overhead_s", "s"),
];

const WORKLOADS: [&str; 3] = ["pal-decode", "pal-observed", "pal2-churn"];

/// Measuring time of one run when `--seconds` is not given: `run_seconds`
/// in `BENCHMARK.json`, the figure the baseline was taken at.
const RUN_SECONDS: u64 = 30;

/// The per-layer row a span name is summed into (`core.build` →
/// `core.build_s`), when it has one.
fn seconds_name(span: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .map(|&(name, _)| name)
        .find(|name| name.strip_suffix("_s") == Some(span))
}

/// Per-iteration span totals renamed to their per-layer rows.
fn layer_rows(totals: BTreeMap<&'static str, f64>) -> BTreeMap<&'static str, f64> {
    totals
        .into_iter()
        .filter_map(|(k, v)| seconds_name(k).map(|n| (n, v)))
        .collect()
}

/// Paces the iterations of one run: at least `min` of them, then more
/// until the measuring time is used up. With `--trace 1` every second
/// iteration is traced, so one run gives both sides of the overhead.
pub struct Iterations {
    deadline: Instant,
    min: usize,
    done: usize,
    trace: bool,
    /// Peak RSS when the first iteration ended, MB.
    first_peak_mb: Option<f64>,
}

impl Iterations {
    pub fn more(&self) -> bool {
        self.done < self.min || Instant::now() < self.deadline
    }

    pub fn at_least(&mut self, n: usize) {
        self.min = self.min.max(n);
    }

    /// Start the next iteration; returns whether it is traced.
    pub fn begin(&mut self, spans: &mut Spans) -> bool {
        if self.done == 1 {
            self.first_peak_mb = peak_rss_mb();
        }
        let traced = self.trace && self.done % 2 == 1;
        spans.on = traced;
        spans.request = self.done as u64;
        spans.take_totals();
        self.done += 1;
        traced
    }
}

/// Raw samples of one run, turned into metrics by [`report`].
#[derive(Default)]
pub struct Measured {
    pub checks: Checks,
    pub fingerprint: Fingerprint,
    /// Seconds per set-up.
    pub setup: Vec<HostTime>,
    /// Seconds of timed calls per untraced iteration.
    pub wall: Vec<HostTime>,
    /// Event-engine Mcycles per second at the reference host speed, per
    /// untraced iteration.
    pub sim: Vec<f64>,
    /// Exhaustive-engine Mcycles per second at the reference host speed,
    /// per untraced iteration.
    pub oracle: Vec<f64>,
    /// Seconds from the end of the run to the last checked artifact.
    pub artifacts: Vec<HostTime>,
    /// Latency of every closed-loop request of the untraced iterations.
    pub requests: Vec<HostTime>,
    /// Every host factor measured in the untraced iterations.
    pub hosts: Vec<f64>,
    /// Seconds of timed calls per traced iteration.
    pub traced_wall: Vec<HostTime>,
    /// Per-layer rows of each traced iteration.
    pub layer_iterations: Vec<BTreeMap<&'static str, f64>>,
    /// Per-layer rows measured once per run rather than per iteration.
    pub run_layers: BTreeMap<&'static str, f64>,
    /// Work-counter and outcome lines printed beside the metrics.
    pub notes: Vec<String>,
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, RUN_SECONDS, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|&&n| n == w)
                        .ok_or_else(|| format!("unknown workload {w:?} (one of {WORKLOADS:?})"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(1..=600).contains(&seconds) {
                    return Err("--seconds must be within 1..=600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?} (0 or 1)")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Print the human-readable table and return the result line.
fn report(args: &Args, m: &Measured, spans: &Spans, first_peak_mb: Option<f64>) -> String {
    // The peak after one iteration: later iterations redo the same work,
    // but heap fragmentation creeps the peak up over a run (1 to 15 MB in
    // 30 s), by an amount that varies from run to run.
    let rss = first_peak_mb.or_else(peak_rss_mb).unwrap_or_else(|| {
        eprintln!("peak RSS unavailable: /proc/self/status has no VmHWM line");
        std::process::exit(1);
    });
    let ms = |v: Vec<f64>| v.into_iter().map(|s| s * 1e3).collect::<Vec<_>>();
    let (setup, wall, requests) = (norm(&m.setup), norm(&m.wall), ms(norm(&m.requests)));
    // The gated end-to-end metrics, in `BENCHMARK.json` order, at the
    // reference host speed. `perfbench/README.md` says why the engine rates
    // and p50 are printed but not gated.
    let e2e: Vec<(&str, f64, &str)> = vec![
        ("setup_s", median(&setup), "s"),
        ("wall_s", median(&wall), "s"),
        ("request_p90_ms", quantile(&requests, 0.9), "ms"),
        ("peak_rss_mb", rss, "MB"),
    ];
    let error_rate = m.checks.failed as f64 / m.checks.attempted.max(1) as f64;
    let beyond_p90 = requests.len() - (requests.len() as f64 * 0.9).ceil() as usize;

    println!(
        "workload {} seed {} trace {}: {} iteration(s), {} request(s) ({beyond_p90} beyond p90)",
        args.workload,
        args.seed,
        u8::from(args.trace),
        m.wall.len() + m.traced_wall.len(),
        requests.len()
    );
    let mut printed = e2e.clone();
    printed.extend([
        ("sim_mcycles_per_s", median(&m.sim), "Mcycles/s"),
        ("oracle_mcycles_per_s", median(&m.oracle), "Mcycles/s"),
        ("request_p50_ms", median(&requests), "ms"),
    ]);
    if args.workload == "pal2-churn" {
        printed.push(("admission_p50_ms", median(&requests), "ms"));
        printed.push(("admission_p90_ms", quantile(&requests, 0.9), "ms"));
    }
    if !m.artifacts.is_empty() {
        printed.push(("artifacts_s", median(&norm(&m.artifacts)), "s"));
    }
    printed.push(("error_rate", error_rate, "ratio"));
    if !args.trace {
        println!(
            "  host factor q1 / median / q3 {:.4} / {:.4} / {:.4} (reference kernel time {} s); \
             times below are at the reference host speed",
            quantile(&m.hosts, 0.25),
            median(&m.hosts),
            quantile(&m.hosts, 0.75),
            stats::CALIBRATION_REF_S
        );
        for (name, v, unit) in &printed {
            println!("  {name:<24} {v:>22} {unit}");
        }
        println!("  quartiles (q1 / median / q3):");
        for (name, v) in [
            ("setup_s", &setup),
            ("wall_s", &wall),
            ("requests_ms", &requests),
        ] {
            println!(
                "    {name:<22} {:.6} / {:.6} / {:.6}",
                quantile(v, 0.25),
                median(v),
                quantile(v, 0.75)
            );
        }
        // The same metrics in plain host time; `steady.py` reads this line.
        println!(
            "  raw {{\"setup_s\": {}, \"wall_s\": {}, \"request_p90_ms\": {}}}",
            median(&raw(&m.setup)),
            median(&raw(&m.wall)),
            quantile(&ms(raw(&m.requests)), 0.9)
        );
    }
    for note in &m.notes {
        println!("  {note}");
    }
    println!("  fingerprint {}", m.fingerprint.hex());
    println!(
        "  checks: {} attempted, {} failed (error_rate {error_rate})",
        m.checks.attempted, m.checks.failed
    );
    for msg in &m.checks.messages {
        println!("  FAILED: {msg}");
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mut rows = m.run_layers.clone();
        for (name, _) in PER_LAYER {
            let vals: Vec<f64> = m
                .layer_iterations
                .iter()
                .filter_map(|it| it.get(name).copied())
                .collect();
            if !vals.is_empty() {
                rows.insert(name, median(&vals));
            }
        }
        rows.insert("bench.spans", spans.len() as f64);
        rows.insert(
            "bench.trace_overhead_s",
            median(&norm(&m.traced_wall)) - median(&norm(&m.wall)),
        );
        let out: Vec<_> = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, rows.get(name).copied().unwrap_or(0.0), unit))
            .collect();
        for (name, v, unit) in &out {
            println!("  {name:<38} {v:>22} {unit}");
        }
        out
    } else {
        e2e
    };
    // `{v}` prints the shortest text that reads back as exactly `v`.
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.checks.failed == 0,
        m.checks.attempted,
        m.checks.failed,
        body.join(", ")
    )
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        eprintln!(
            "usage: --workload <{}> [--seed <n>] [--seconds <n>] [--trace 0|1]",
            WORKLOADS.join("|")
        );
        std::process::exit(2);
    });
    let mut spans = Spans::new(args.workload);
    let mut iters = Iterations {
        deadline: Instant::now() + Duration::from_secs(args.seconds),
        min: if args.trace { 2 } else { 1 },
        done: 0,
        trace: args.trace,
        first_peak_mb: None,
    };
    let m = match args.workload {
        "pal-decode" => pal::run(false, args.trace, &mut iters, &mut spans),
        "pal-observed" => pal::run(true, args.trace, &mut iters, &mut spans),
        _ => churn::run(args.seed, &mut iters, &mut spans),
    };
    let line = report(&args, &m, &spans, iters.first_peak_mb);
    if args.trace {
        let path = format!(
            "perfbench/out/spans-{}-seed{}.json",
            args.workload, args.seed
        );
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, spans.to_json()));
        match written {
            Ok(()) => println!("  spans written to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("{line}");
}
