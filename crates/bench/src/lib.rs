//! # streamgate-bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! paper's evaluation (see DESIGN.md §4 for the index and EXPERIMENTS.md
//! for recorded paper-vs-measured results).
//!
//! Binaries (run with `cargo run -p streamgate-bench --bin <name>`):
//!
//! | binary | artefact |
//! |---|---|
//! | `table1_hw_costs` | Table I — hardware costs & savings |
//! | `fig11_component_costs` | Fig. 11 — per-component cost bars |
//! | `fig8_buffer_nonmonotone` | Fig. 8 — buffer capacity vs block size |
//! | `fig6_schedule` | Fig. 6 — execution schedule of one block |
//! | `blocksize_ilp` | §VI-A — η = 10136 / 1267 via Algorithm 1 |
//! | `pal_system_sim` | §VI-A — real-time PAL decode on the platform |
//! | `fig9_shared_fifo` | Fig. 9 — head-of-line blocking counter-example |
//! | `abstraction_gap` | Fig. 2 / §V-C — SDF vs CSDF vs platform (ablation) |
//! | `tau_bound_sweep` | Eq. 2 — τ̂ validity over randomised parameters |

#![warn(missing_docs)]

use streamgate_platform::StepMode;

/// Command-line options shared by the experiment binaries.
///
/// Every harness accepts the same flags, parsed once by [`parse_args`]:
///
/// * `--trace <path>` — export a Chrome-trace JSON timeline of the run;
/// * `--cycles <n>` — override the simulated-cycle budget (shorter smoke
///   runs in CI, longer soaks locally);
/// * `--seed <n>` — override the xorshift seed of randomised sweeps;
/// * `--mode exhaustive|event` — select the simulation engine
///   ([`StepMode`]); the default is the event-driven engine;
/// * `--bench-json <path>` — write machine-readable timing results;
/// * `--analyze` — run the static deployment analyzer (`streamgate-analysis`)
///   as a pre-flight over the configuration about to be simulated, print its
///   report, and refuse to simulate a configuration it rejects;
/// * `--profile <path>` — enable run profiling and write the measured
///   `RunProfile` (empirical arrival/service curves, τ/round/stall
///   distributions, buffer high-water marks) as deterministic JSON, ready
///   for `streamgate-analyze --profile`;
/// * `--accounting-json <path>` — write the exhaustive-vs-event per-phase
///   cycle accounting (gateway idle/reconfig/DMA, accelerator busy,
///   processor busy) from the benchmark runs as machine-readable JSON;
/// * `--churn` — exercise online admission control mid-run (binaries that
///   support it): one analyzable stream join is spliced into the running
///   system through the incremental analyzer, one declared mode switch is
///   retuned in place with the A12 transition-delay bound checked against
///   the measured first post-switch block, and one infeasible join is
///   rejected, with the bound monitor armed across every transition;
/// * `--blame <path>` — enable full tracing and write the causal latency
///   attribution ([`streamgate_core::BlameReport`]: every completed block's
///   τ decomposed into TDM-wait / DMA-credit / transfer / head-of-line /
///   ring-transit / accelerator-service / reconfig cycles) as deterministic
///   JSON;
/// * `--postmortem <path>` — where to dump the flight-recorder
///   `postmortem.json` if the run fails (monitor violation or wedge);
///   binaries that support it keep a bounded flight recorder on even when
///   full tracing is off. Render the dump with
///   `streamgate-analyze --postmortem <path>`;
/// * `--quiet` — suppress informational stdout (tables, schedules,
///   progress); verdicts, violations and artefact-path lines still print.
///
/// Flags an individual binary does not use are accepted and ignored, so CI
/// can pass a uniform flag set to every harness.
#[derive(Debug, Default)]
pub struct BenchArgs {
    /// Chrome-trace output path (`--trace`).
    pub trace: Option<String>,
    /// Simulated-cycle budget override (`--cycles`).
    pub cycles: Option<u64>,
    /// RNG seed override for randomised sweeps (`--seed`).
    pub seed: Option<u64>,
    /// Simulation engine to run (`--mode exhaustive|event`).
    pub step_mode: StepMode,
    /// Machine-readable benchmark output path (`--bench-json`).
    pub bench_json: Option<String>,
    /// Run the static analyzer as a pre-flight check (`--analyze`).
    pub analyze: bool,
    /// Measured-profile JSON output path (`--profile`).
    pub profile: Option<String>,
    /// Per-phase cycle-accounting JSON output path (`--accounting-json`).
    pub accounting_json: Option<String>,
    /// Exercise mid-run online admission control (`--churn`).
    pub churn: bool,
    /// Blame-report JSON output path (`--blame`).
    pub blame: Option<String>,
    /// Flight-recorder postmortem dump path (`--postmortem`).
    pub postmortem: Option<String>,
    /// Suppress informational stdout (`--quiet`).
    pub quiet: bool,
}

impl BenchArgs {
    /// Print an informational line unless `--quiet` was given. Verdicts and
    /// artefact-path lines should use `println!` directly — only chatter
    /// (tables, schedules, per-round progress) goes through here.
    pub fn log(&self, line: impl AsRef<str>) {
        if !self.quiet {
            println!("{}", line.as_ref());
        }
    }
}

/// Parse the shared experiment flags from `std::env::args()`.
///
/// Exits with status 2 and a usage message on malformed or unknown flags.
pub fn parse_args() -> BenchArgs {
    parse_arg_list(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        eprintln!(
            "usage: [--trace <path>] [--cycles <n>] [--seed <n>] \
             [--mode exhaustive|event] [--bench-json <path>] [--analyze] \
             [--profile <path>] [--accounting-json <path>] [--churn] \
             [--blame <path>] [--postmortem <path>] [--quiet]"
        );
        std::process::exit(2);
    })
}

fn parse_arg_list<I: Iterator<Item = String>>(mut args: I) -> Result<BenchArgs, String> {
    let mut out = BenchArgs::default();
    let take = |args: &mut I, flag: &str, inline: Option<&str>| -> Result<String, String> {
        match inline {
            Some(v) => Ok(v.to_string()),
            None => args
                .next()
                .ok_or_else(|| format!("{flag} requires a value")),
        }
    };
    while let Some(a) = args.next() {
        let (flag, inline) = match a.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (a, None),
        };
        let inline = inline.as_deref();
        match flag.as_str() {
            "--trace" => out.trace = Some(take(&mut args, "--trace", inline)?),
            "--bench-json" => out.bench_json = Some(take(&mut args, "--bench-json", inline)?),
            "--profile" => out.profile = Some(take(&mut args, "--profile", inline)?),
            "--accounting-json" => {
                out.accounting_json = Some(take(&mut args, "--accounting-json", inline)?)
            }
            "--cycles" => {
                let v = take(&mut args, "--cycles", inline)?;
                out.cycles = Some(v.parse().map_err(|_| format!("bad --cycles value {v:?}"))?);
            }
            "--seed" => {
                let v = take(&mut args, "--seed", inline)?;
                out.seed = Some(v.parse().map_err(|_| format!("bad --seed value {v:?}"))?);
            }
            "--mode" => {
                let v = take(&mut args, "--mode", inline)?;
                out.step_mode = StepMode::parse(&v)
                    .ok_or_else(|| format!("bad --mode value {v:?} (exhaustive|event)"))?;
            }
            "--analyze" => {
                if inline.is_some() {
                    return Err("--analyze takes no value".into());
                }
                out.analyze = true;
            }
            "--churn" => {
                if inline.is_some() {
                    return Err("--churn takes no value".into());
                }
                out.churn = true;
            }
            "--blame" => out.blame = Some(take(&mut args, "--blame", inline)?),
            "--postmortem" => out.postmortem = Some(take(&mut args, "--postmortem", inline)?),
            "--quiet" => {
                if inline.is_some() {
                    return Err("--quiet takes no value".into());
                }
                out.quiet = true;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(out)
}

/// Run the static deployment analyzer over `spec` as a pre-flight check,
/// print its report, and exit with status 1 when the deployment is rejected
/// (any rule at Error severity) — the simulation would deadlock, wedge or
/// miss its throughput, so there is no point running it.
///
/// The analysis runs through the same cached-`Facts` path the incremental
/// admission controller uses (`AnalysisState` assembles the identical
/// report the batch `analyze` entry point produces), and the state is
/// returned so a binary that goes on to serve `--churn`/`--delta` requests
/// against the *same* spec can seed its controller from it instead of
/// recomputing the deployment from scratch. Callers that only want the
/// accept/reject gate can ignore the return value.
pub fn preflight_analyze(
    spec: &streamgate_analysis::DeploySpec,
) -> streamgate_analysis::AnalysisState {
    let state = streamgate_analysis::AnalysisState::new(
        spec.clone(),
        streamgate_analysis::AnalysisOptions::default(),
    );
    println!("== static analysis pre-flight ==");
    print!("{}", state.report().render_text());
    println!();
    if !state.report().is_accepted() {
        eprintln!(
            "pre-flight analysis rejected deployment '{}': refusing to simulate",
            state.report().deployment
        );
        std::process::exit(1);
    }
    state
}

/// Write an artifact's text to `path` and print `done`; a failed write
/// exits 1.
pub fn write_artifact(path: &str, text: &str, done: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    println!("{done}");
}

/// Collect the measured [`streamgate_core::RunProfile`] of a finished
/// profiled run and write its deterministic JSON to `path` (the system
/// must have been prepared with `System::enable_profiling`).
pub fn write_profile(path: &str, system: &mut streamgate_platform::System, deployment: &str) {
    let profile = streamgate_core::collect_profile(system, deployment);
    let done = format!(
        "\nprofile written to {path} — feed it back with `streamgate-analyze --profile {path}`"
    );
    write_artifact(path, &profile.to_json_text(), &done);
}

/// Collect the causal latency attribution ([`streamgate_core::BlameReport`])
/// of a finished fully-traced run and write its deterministic JSON to
/// `path` (the system must have been prepared with
/// `System::enable_tracing`).
pub fn write_blame(path: &str, system: &mut streamgate_platform::System, deployment: &str) {
    let blame = streamgate_core::collect_blame(system, deployment);
    let done = format!("\nblame report written to {path}");
    write_artifact(path, &blame.to_json_text(), &done);
}

/// Dump a flight-recorder postmortem of a failed run to `path` and print
/// the `streamgate-analyze --postmortem` invocation that explains it
/// against the spec's predicted bounds.
pub fn write_postmortem(
    path: &str,
    system: &streamgate_platform::System,
    monitor: &streamgate_core::Monitor,
    deployment: &str,
) {
    let pm = streamgate_core::collect_postmortem(system, monitor, deployment);
    let done = format!(
        "postmortem written to {path} — explain it with `streamgate-analyze --postmortem {path}`"
    );
    write_artifact(path, &pm.to_json_text(), &done);
}

/// Print a two-column table with a title.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map(|c| c.len()).unwrap_or(0))
                .max()
                .unwrap_or(0)
                .max(h.len())
        })
        .collect();
    let line: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:>w$}"))
        .collect();
    println!("{}", line.join("  "));
    for r in rows {
        let line: Vec<String> = r
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Write a Chrome trace JSON string to `path` and print how to view it.
pub fn write_trace(path: &str, json: &str) {
    let done = format!(
        "\ntrace written to {path} — open it in https://ui.perfetto.dev or chrome://tracing"
    );
    write_artifact(path, json, &done);
}

/// Format a percentage delta between paper and measured values.
pub fn delta_pct(paper: f64, measured: f64) -> String {
    if paper == 0.0 {
        return "-".into();
    }
    format!("{:+.1}%", 100.0 * (measured - paper) / paper)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_formatting() {
        assert_eq!(delta_pct(100.0, 100.0), "+0.0%");
        assert_eq!(delta_pct(100.0, 90.0), "-10.0%");
        assert_eq!(delta_pct(0.0, 5.0), "-");
    }

    fn parse(args: &[&str]) -> Result<BenchArgs, String> {
        parse_arg_list(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arg_parsing_accepts_all_flags() {
        let a = parse(&[
            "--trace",
            "t.json",
            "--cycles=5000",
            "--seed",
            "7",
            "--mode",
            "exhaustive",
            "--bench-json=b.json",
            "--analyze",
            "--profile=p.json",
            "--accounting-json=a.json",
            "--churn",
            "--blame=bl.json",
            "--postmortem",
            "pm.json",
            "--quiet",
        ])
        .unwrap();
        assert_eq!(a.trace.as_deref(), Some("t.json"));
        assert_eq!(a.cycles, Some(5000));
        assert_eq!(a.seed, Some(7));
        assert_eq!(a.step_mode, StepMode::Exhaustive);
        assert_eq!(a.bench_json.as_deref(), Some("b.json"));
        assert!(a.analyze);
        assert_eq!(a.profile.as_deref(), Some("p.json"));
        assert_eq!(a.accounting_json.as_deref(), Some("a.json"));
        assert!(a.churn);
        assert_eq!(a.blame.as_deref(), Some("bl.json"));
        assert_eq!(a.postmortem.as_deref(), Some("pm.json"));
        assert!(a.quiet);
    }

    #[test]
    fn arg_parsing_defaults_to_event_mode() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.step_mode, StepMode::EventDriven);
        assert!(a.trace.is_none() && a.cycles.is_none() && a.seed.is_none());
        assert!(!a.analyze && !a.churn && !a.quiet);
        assert!(a.blame.is_none() && a.postmortem.is_none());
    }

    #[test]
    fn arg_parsing_rejects_bad_input() {
        assert!(parse(&["--mode", "warp"]).is_err());
        assert!(parse(&["--cycles", "many"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--profile"]).is_err());
        assert!(parse(&["--accounting-json"]).is_err());
        assert!(parse(&["--analyze=yes"]).is_err());
        assert!(parse(&["--churn=yes"]).is_err());
        assert!(parse(&["--blame"]).is_err());
        assert!(parse(&["--postmortem"]).is_err());
        assert!(parse(&["--quiet=1"]).is_err());
    }

    #[test]
    fn quiet_suppresses_log_but_not_construction() {
        let a = parse(&["--quiet"]).unwrap();
        // `log` must be callable without printing; verdict lines bypass it.
        a.log("this line must not appear when --quiet is set");
        let loud = parse(&[]).unwrap();
        loud.log("default args still log");
    }

    #[test]
    fn table_prints() {
        print_table(
            "t",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["30".into(), "4".into()]],
        );
    }
}
