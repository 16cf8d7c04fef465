//! E4 — Fig. 6: execution schedule of one multiplexed block.
//!
//! `cargo run -p streamgate-bench --bin fig6_schedule`
//!
//! Pass `--trace out.json` to export the schedule as a Chrome trace (one
//! thread per CSDF actor, one span per firing, labelled by phase), and
//! `--profile out.json` to additionally run the equivalent platform
//! deployment (the `fig6` analyzer preset) with profiling enabled and
//! write its measured `RunProfile` JSON.

use streamgate_bench::{parse_args, write_trace};
use streamgate_core::{fig6_schedule, Fig5Params};
use streamgate_dataflow::Gantt;
use streamgate_platform::{chrome_trace_text, Json};

/// Render a model Gantt chart in Chrome trace-event JSON: one thread per
/// actor row, one complete ("X") span per firing segment.
fn gantt_chrome_json(gantt: &Gantt) -> String {
    let events = gantt.rows.iter().enumerate().flat_map(|(tid, row)| {
        let name = Json::obj([
            ("ph", "M".into()),
            ("name", "thread_name".into()),
            ("pid", 0u32.into()),
            ("tid", tid.into()),
            ("args", Json::obj([("name", row.actor.clone().into())])),
        ]);
        let firings = row.segments.iter().map(move |s| {
            Json::obj([
                ("ph", "X".into()),
                ("cat", "firing".into()),
                ("name", format!("{} phase {}", row.actor, s.phase).into()),
                ("pid", 0u32.into()),
                ("tid", tid.into()),
                ("ts", s.start.into()),
                ("dur", (s.end - s.start).into()),
            ])
        });
        std::iter::once(name).chain(firings)
    });
    chrome_trace_text(events)
}

fn main() {
    let args = parse_args();
    if args.analyze {
        // The fig6 deployment preset mirrors the parameters below.
        streamgate_bench::preflight_analyze(&streamgate_analysis::DeploySpec::fig6());
    }
    // Small, legible parameters (the paper's figure is also schematic):
    // η = 6, ε = 3, ρ_A = 1, δ = 1, R = 12.
    let p = Fig5Params {
        eta: 6,
        epsilon: 3,
        rho_a: 1,
        delta: 1,
        reconfig: 12,
        omega: 0,
        rho_p: 2,
        rho_c: 1,
        alpha0: 12,
        alpha3: 12,
        ni_depth: 2,
    };
    let (model, gantt) = fig6_schedule(&p, 2);
    args.log("Fig. 6: self-timed schedule of the Fig. 5 CSDF model");
    args.log(format!(
        "η = {}, ε = {}, ρ_A = {}, δ = {}, R_s = {}\n",
        p.eta, p.epsilon, p.rho_a, p.delta, p.reconfig
    ));
    if !args.quiet {
        print!("{}", gantt.render_ascii(100));
    }

    // The block-time bound of Eq. 2 on the measured schedule.
    let c0 = p.epsilon.max(p.rho_a).max(p.delta);
    let tau_hat = p.reconfig + (p.eta as u64 + 2) * c0;
    let g0 = &gantt.rows[model.v_g0.index()].segments;
    let g1 = &gantt.rows[model.v_g1.index()].segments;
    let tau = g1[p.eta - 1].end - g0[0].start;
    println!(
        "\nblock 1: vG0 starts at {}, last vG1 output at {} → τ = {}",
        g0[0].start,
        g1[p.eta - 1].end,
        tau
    );
    println!(
        "Eq. 2 bound: τ̂ = R + (η+2)·max(ε,ρ_A,δ) = {tau_hat}  →  τ ≤ τ̂: {}",
        tau <= tau_hat
    );

    // And the paper's structure: reconfiguration, η transfers, pipeline drain.
    args.log(
        "\nschedule structure (cf. Fig. 6): R_s head on vG0's first phase, η\n\
         staggered transfers at pace max(ε,ρ_A,δ), then the pipeline drains\n\
         through vA and vG1 before the next block may start.",
    );

    if let Some(path) = args.trace {
        write_trace(&path, &gantt_chrome_json(&gantt));
    }

    if args.profile.is_some() || args.blame.is_some() {
        // The Gantt above is a model-level schedule; the measured profile
        // and blame attribution come from the equivalent cycle-level
        // platform deployment.
        let spec = streamgate_analysis::DeploySpec::fig6();
        let mut built = spec.build_platform();
        built.system.step_mode = args.step_mode;
        built.system.enable_profiling(0);
        for f in &built.inputs {
            let cap = built.system.fifos[f.0].capacity();
            for k in 0..cap {
                built.system.fifos[f.0].try_push((k as f64, 0.5), 0);
            }
        }
        built.system.run(args.cycles.unwrap_or(20_000));
        if let Some(path) = &args.blame {
            // Per-block decomposition of the measured τ into the very
            // segments the schedule above draws (reconfig head, DMA
            // transfers, drain through vA/vG1).
            streamgate_bench::write_blame(path, &mut built.system, &spec.name);
        }
        if let Some(path) = &args.profile {
            streamgate_bench::write_profile(path, &mut built.system, &spec.name);
        }
    }
}
