//! `streamgate-analyze` — run the static deployment analyzer from the
//! command line.
//!
//! ```text
//! streamgate-analyze [--json] [--profile FILE] [--delta FILE]
//!                    [--timing FILE] [--spec FILE | PRESET]
//!
//! PRESET: pal (default) | pal2 | fig6 | fig9-safe | fig9-broken
//! ```
//!
//! Prints the analysis report as text (or machine-readable JSON with
//! `--json`). With `--profile`, a measured `RunProfile` JSON (written by
//! the simulator binaries' own `--profile` flag) feeds measured per-hop
//! burstiness back into rule A7 and measured arrival jitter into rule A10.
//!
//! With `--delta`, the spec is the *baseline* of an incremental
//! admission-control session: the file is a JSON churn script
//! (`{"deltas": [{"op": "add"|"remove"|"retune"|"switch", "gateway": N,
//! "stream": ...}]}`; `switch` additionally names a declared `"mode"`
//! and is checked against the spec's allowed transition edges) whose
//! requests are evaluated in order through the
//! O(affected-gateways) incremental analyzer; admitted deltas commit,
//! rejected ones leave the committed deployment untouched. One verdict
//! line prints per delta, then the final committed deployment's report.
//! `--timing FILE` additionally writes a JSON comparison of incremental
//! vs full re-analysis wall time per delta, and a `summary` with the
//! count, p50, p90 and max of each.
//!
//! # Exit codes
//!
//! * `0` — the (final) deployment is **accepted**: no rule reported an
//!   Error. Warnings and infos alone never fail the run.
//! * `2` — the deployment is **rejected** (at least one Error
//!   diagnostic), or the command line / input files were unusable.
//!
//! No other code is used on purpose. A panic exits with 101, so
//! automation can tell "analyzer said no" (2) from "analyzer broke" (101).

use std::process::ExitCode;
use std::time::Instant;
use streamgate_analysis::{
    analyze_profiled, analyze_with, parse_delta_script, parse_profile, render_postmortem,
    AnalysisOptions, AnalysisState, DeploySpec, Json,
};

const USAGE: &str = "usage: streamgate-analyze [--json] [--profile FILE] [--postmortem FILE] [--delta FILE] [--timing FILE] [--spec FILE | PRESET]\n\
                     presets: pal (default), pal2, fig6, fig9-safe, fig9-broken\n\
                     --postmortem renders a flight-recorder postmortem.json against the spec's bounds\n\
                     exit codes: 0 = accepted (warnings allowed), 2 = rejected or usage error";

fn main() -> ExitCode {
    let mut json = false;
    let mut spec_file: Option<String> = None;
    let mut preset: Option<String> = None;
    let mut profile_file: Option<String> = None;
    let mut postmortem_file: Option<String> = None;
    let mut delta_file: Option<String> = None;
    let mut timing_file: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--spec" => match args.next() {
                Some(f) => spec_file = Some(f),
                None => {
                    eprintln!("--spec needs a file argument\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--profile" => match args.next() {
                Some(f) => profile_file = Some(f),
                None => {
                    eprintln!("--profile needs a file argument\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--postmortem" => match args.next() {
                Some(f) => postmortem_file = Some(f),
                None => {
                    eprintln!("--postmortem needs a file argument\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--delta" => match args.next() {
                Some(f) => delta_file = Some(f),
                None => {
                    eprintln!("--delta needs a file argument\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--timing" => match args.next() {
                Some(f) => timing_file = Some(f),
                None => {
                    eprintln!("--timing needs a file argument\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') && preset.is_none() => {
                preset = Some(other.to_string());
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let spec = if let Some(file) = spec_file {
        let text = match std::fs::read_to_string(&file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {file}: {e}");
                return ExitCode::from(2);
            }
        };
        match DeploySpec::from_json_text(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot parse {file}: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        match preset.as_deref().unwrap_or("pal") {
            "pal" => DeploySpec::pal_scaled(),
            "pal2" => DeploySpec::pal2(),
            "fig6" => DeploySpec::fig6(),
            "fig9-safe" => DeploySpec::fig9(true),
            "fig9-broken" => DeploySpec::fig9(false),
            other => {
                eprintln!("unknown preset `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    };

    if let Some(file) = delta_file {
        return run_deltas(spec, &file, timing_file.as_deref(), json);
    }

    if let Some(file) = postmortem_file {
        return run_postmortem(spec, &file);
    }

    let profile = match profile_file {
        Some(file) => {
            let text = match std::fs::read_to_string(&file) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {file}: {e}");
                    return ExitCode::from(2);
                }
            };
            match parse_profile(&text) {
                Ok(p) => Some(p),
                Err(e) => {
                    eprintln!("cannot parse profile {file}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => None,
    };

    let report = analyze_profiled(&spec, &AnalysisOptions::default(), profile.as_ref());
    if json {
        println!("{}", report.to_json_text());
    } else {
        print!("{}", report.render_text());
    }
    if report.is_accepted() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// Render a flight-recorder postmortem dump against the spec's predicted
/// bounds: the violation context, the blame breakdown of the violating
/// block, and each component's analytic ceiling. Exit 0 on a successful
/// render (the dump documents the failure; the render itself succeeded),
/// 2 on unusable input.
fn run_postmortem(spec: DeploySpec, file: &str) -> ExitCode {
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let pm = match streamgate_analysis::json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("cannot parse postmortem {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let report = analyze_with(&spec, &AnalysisOptions::default());
    match render_postmortem(&spec, &report, &pm) {
        Ok(rendered) => {
            print!("{rendered}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot render postmortem {file}: {e}");
            ExitCode::from(2)
        }
    }
}

/// Replay a churn script through the incremental analyzer. Prints one
/// verdict line per delta and the final committed report; with `timing`,
/// writes an incremental-vs-full wall-time comparison JSON and its summary.
fn run_deltas(spec: DeploySpec, file: &str, timing: Option<&str>, json: bool) -> ExitCode {
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let deltas = match parse_delta_script(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot parse delta script {file}: {e}");
            return ExitCode::from(2);
        }
    };

    let opts = AnalysisOptions::default();
    let mut state = AnalysisState::new(spec, opts);
    let mut rows = Vec::new();
    let (mut inc_all, mut full_all) = (Vec::new(), Vec::new());
    for (i, delta) in deltas.iter().enumerate() {
        let t0 = Instant::now();
        let verdict = match state.apply(delta) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("delta {i} ({}): {e}", delta.describe());
                return ExitCode::from(2);
            }
        };
        let inc_ns = t0.elapsed().as_nanos();
        let decision = if verdict.is_admitted() {
            "admit"
        } else {
            "reject"
        };
        println!(
            "delta {i}: {} -> {decision} ({} error(s), {} warning(s))",
            delta.describe(),
            verdict.report().error_count(),
            verdict
                .report()
                .with_severity(streamgate_analysis::Severity::Warning)
                .count(),
        );
        if timing.is_some() {
            // Time a fresh full analysis of the same committed deployment
            // for the speedup artifact. Only measured when asked: it is
            // exactly the cost the incremental path exists to avoid.
            let t1 = Instant::now();
            let _full = analyze_with(state.spec(), &opts);
            let full_ns = t1.elapsed().as_nanos();
            inc_all.push(inc_ns);
            full_all.push(full_ns);
            rows.push(Json::obj([
                ("delta", i.into()),
                ("op", delta.describe().into()),
                ("decision", decision.into()),
                ("incremental_ns", Json::Int(inc_ns as i128)),
                ("full_ns", Json::Int(full_ns as i128)),
                ("speedup", (full_ns as f64 / inc_ns.max(1) as f64).into()),
            ]));
        }
    }

    if let Some(out) = timing {
        let summary = Json::obj([
            ("incremental_ns", summary(inc_all)),
            ("full_ns", summary(full_all)),
        ]);
        let body =
            Json::obj([("deltas", Json::Array(rows)), ("summary", summary)]).to_text() + "\n";
        if let Err(e) = std::fs::write(out, body) {
            eprintln!("cannot write timing file {out}: {e}");
            return ExitCode::from(2);
        }
    }

    let report = state.report();
    if json {
        println!("{}", report.to_json_text());
    } else {
        print!("{}", report.render_text());
    }
    if report.is_accepted() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// Count, nearest-rank p50 and p90, and maximum of a set of durations
/// (`null` statistics for an empty set).
fn summary(mut ns: Vec<u128>) -> Json {
    ns.sort_unstable();
    let at = |i: usize| Json::from(ns.get(i).map(|&v| Json::Int(v as i128)));
    let rank = |q: usize| at((q * ns.len()).div_ceil(100).max(1) - 1);
    Json::obj([
        ("count", ns.len().into()),
        ("p50", rank(50)),
        ("p90", rank(90)),
        ("max", at(ns.len().wrapping_sub(1))),
    ])
}
