//! Differential testing: the static analyzer's verdicts cross-validated
//! against BOTH cycle-level simulation engines.
//!
//! The soundness contract under test:
//!
//! * **accepted** (no Error diagnostics) random deployments, simulated in
//!   the saturated regime the analysis describes, meet their τ̂ (Eq. 2) and
//!   γ (Eq. 4) bounds and make progress on every stream — on the exhaustive
//!   AND the event-driven engine, which must also agree with each other;
//! * **Error-rejected** deployments demonstrably fail in simulation, in the
//!   way the rule predicts: deadlock (A1/A2), throughput miss (A3), or a
//!   wedged chain with head-of-line blocking (A5).
//!
//! 460 random topologies total: 120 clean single-gateway + 4 × 30
//! fault-injected single-gateway, plus 140 clean multi-gateway + 2 × 40
//! fault-injected multi-gateway whole-system deployments.

mod common;

use common::{
    check_golden, clean_cycles, fast_options, multi_clean_cycles, multi_tau_margin,
    random_clean_spec, random_multi_spec, round_margin, run_saturated, run_saturated_multi,
    tau_margin, Rng,
};
use streamgate_analysis::{
    analyze_profiled, analyze_with, check_blame_conformance, monitor_for, DeploySpec, RuleId,
    Severity,
};
use streamgate_core::{collect_blame, collect_profile, system_metrics, validate_tau_bound};
use streamgate_platform::StepMode;

const ENGINES: [StepMode; 2] = [StepMode::Exhaustive, StepMode::EventDriven];

#[test]
fn accepted_topologies_meet_bounds_on_both_engines() {
    let mut rng = Rng::new(0xD1FF_0001);
    for case in 0..120 {
        let spec = random_clean_spec(&mut rng, case);
        let report = analyze_with(&spec, &fast_options());
        assert!(
            report.is_accepted(),
            "clean generator produced a rejected spec (case {case}):\n{}",
            report.render_text()
        );

        let prob = spec.sharing_problem();
        let etas = spec.etas();
        let cycles = clean_cycles(&spec);
        let mut blocks_by_engine = Vec::new();
        let mut profiles = Vec::new();
        let mut blames = Vec::new();
        let mut traces = Vec::new();
        for mode in ENGINES {
            let mut b = run_saturated(&spec, mode, cycles);
            // Progress: at least 3 of the 6 prefilled blocks per stream.
            let blocks: Vec<u64> = (0..spec.streams.len()).map(|s| b.blocks_done(s)).collect();
            for (s, &n) in blocks.iter().enumerate() {
                assert!(
                    n >= 3,
                    "case {case} ({mode:?}): accepted but stream {s} completed only \
                     {n} blocks in {cycles} cycles\n{}",
                    report.render_text()
                );
            }
            // Eq. 2: measured block times within τ̂ + ring margin.
            for v in validate_tau_bound(&prob, &etas, &b.system, b.gateway, tau_margin(&spec)) {
                assert!(
                    v.ok,
                    "case {case} ({mode:?}): stream {} measured τ {} exceeds τ̂ {} (+{})\n{}",
                    v.stream,
                    v.measured_max,
                    v.tau_hat,
                    v.margin,
                    report.render_text()
                );
            }
            // Eq. 4: measured rounds within γ + margin.
            let gamma = report.gamma;
            let metrics = system_metrics(&b.system, b.gateway);
            if let Some(round) = metrics.max_round_time() {
                assert!(
                    round <= gamma + round_margin(&spec),
                    "case {case} ({mode:?}): round {round} exceeds γ {gamma} (+{})\n{}",
                    round_margin(&spec),
                    report.render_text()
                );
            }
            blocks_by_engine.push(blocks);

            // Measured-profile feedback: every empirical per-hop arrival
            // curve must be dominated by the analyzer's predicted envelope
            // (an escape is an A7 Error, flipping the verdict).
            let profile = collect_profile(&mut b.system, &spec.name);
            let report_p = analyze_profiled(&spec, &fast_options(), Some(&profile));
            assert!(
                report_p.is_accepted(),
                "case {case} ({mode:?}): measured profile rejected by the \
                 analyzer (predicted curve fails to dominate):\n{}",
                report_p.render_text()
            );

            // Online monitoring: the Eq. 2 / Eq. 3-4 / buffer / Fig. 9
            // checks, armed with the analyzer's bounds, must stay silent
            // over the whole trace of a clean accepted run.
            let mut monitor = monitor_for(&spec, &report, &b.system);
            monitor.poll(&b.system.tracer);
            assert!(
                monitor.is_clean(),
                "case {case} ({mode:?}): online monitor flagged violations \
                 on an accepted clean run: {:?}",
                monitor.violations()
            );
            profiles.push(profile);

            // Causal attribution: every completed block's τ decomposes
            // exactly (sum-to-τ is asserted inside collect_blame), and
            // each measured component stays under its analytic ceiling —
            // strictly stronger than the aggregate τ ≤ τ̂ check above.
            let blame = collect_blame(&mut b.system, &spec.name);
            let failures = check_blame_conformance(&spec, &report, &blame);
            assert!(
                failures.is_empty(),
                "case {case} ({mode:?}): componentwise conformance failed:\n{}",
                failures.join("\n")
            );
            blames.push(blame);

            // Keep the full structured event stream for cross-engine
            // comparison (flushing open stall windows first so both
            // engines are finalized identically).
            b.system.finish_trace();
            traces.push(b.system.tracer.events().to_vec());
        }
        assert_eq!(
            blocks_by_engine[0], blocks_by_engine[1],
            "case {case}: engines disagree on completed blocks"
        );
        // Blame reports must be bit-identical between engines (only the
        // mode tag may differ), down to the serialized JSON.
        let mut bl_ev = blames.pop().unwrap();
        let bl_ex = blames.pop().unwrap();
        bl_ev.mode = bl_ex.mode.clone();
        assert_eq!(
            bl_ex.to_json_text(),
            bl_ev.to_json_text(),
            "case {case}: engines disagree on the blame report"
        );
        // The two engines must have produced bit-identical measurements;
        // only the `mode` tag may differ.
        let mut p_ev = profiles.pop().unwrap();
        let p_ex = profiles.pop().unwrap();
        p_ev.mode = p_ex.mode.clone();
        assert_eq!(
            p_ex, p_ev,
            "case {case}: engines disagree on the measured profile"
        );
        // ... and bit-identical trace-event streams, event by event.
        let t_ev = traces.pop().unwrap();
        let t_ex = traces.pop().unwrap();
        if let Some(d) = t_ex.iter().zip(t_ev.iter()).position(|(x, y)| x != y) {
            panic!(
                "case {case}: trace streams diverge at event {d}: \
                 exhaustive {:?} vs event {:?}",
                t_ex[d], t_ev[d]
            );
        }
        assert_eq!(
            t_ex.len(),
            t_ev.len(),
            "case {case}: engines disagree on trace event count"
        );
    }
}

#[test]
fn undersized_input_rejections_deadlock_in_simulation() {
    let mut rng = Rng::new(0xD1FF_0002);
    for case in 0..30 {
        let mut spec = random_clean_spec(&mut rng, case);
        let victim = (rng.next() % spec.streams.len() as u64) as usize;
        spec.streams[victim].input_capacity = spec.streams[victim].eta_in - 1;
        let report = analyze_with(&spec, &fast_options());
        assert!(
            report.has(RuleId::A2BufferCapacity, Severity::Error),
            "case {case}: expected A2 Error\n{}",
            report.render_text()
        );
        assert!(!report.is_accepted());

        let cycles = clean_cycles(&spec);
        for mode in ENGINES {
            let b = run_saturated(&spec, mode, cycles);
            assert_eq!(
                b.blocks_done(victim),
                0,
                "case {case} ({mode:?}): a full block never fits stream {victim}'s \
                 input FIFO, yet it completed blocks"
            );
        }
    }
}

#[test]
fn undersized_output_rejections_deadlock_in_simulation() {
    let mut rng = Rng::new(0xD1FF_0003);
    for case in 0..30 {
        let mut spec = random_clean_spec(&mut rng, case);
        let victim = (rng.next() % spec.streams.len() as u64) as usize;
        spec.streams[victim].output_capacity = spec.streams[victim].eta_out - 1;
        let report = analyze_with(&spec, &fast_options());
        assert!(
            report.has(RuleId::A2BufferCapacity, Severity::Error),
            "case {case}: expected A2 Error\n{}",
            report.render_text()
        );

        let cycles = clean_cycles(&spec);
        for mode in ENGINES {
            let b = run_saturated(&spec, mode, cycles);
            assert_eq!(
                b.blocks_done(victim),
                0,
                "case {case} ({mode:?}): check-for-space can never admit stream \
                 {victim}, yet it completed blocks"
            );
        }
    }
}

#[test]
fn infeasible_throughput_rejections_miss_rate_in_simulation() {
    let mut rng = Rng::new(0xD1FF_0004);
    for case in 0..30 {
        let mut spec = random_clean_spec(&mut rng, case);
        // Demand 1.5× the rate a true lower bound on the round time allows:
        // the entry gateway serialises blocks, each costing at least
        // R_i + (η_i − 1)·ε cycles, so no schedule can serve stream 0
        // faster than η_0 per r_floor cycles.
        let r_floor: u64 = spec
            .streams
            .iter()
            .map(|s| s.reconfig + (s.eta_in - 1) * spec.epsilon)
            .sum();
        let eta0 = spec.streams[0].eta_in;
        spec.streams[0].mu =
            streamgate_ilp::Rational::new(3 * eta0 as i128, 2 * r_floor.max(1) as i128);
        let report = analyze_with(&spec, &fast_options());
        assert!(
            report.has(RuleId::A3Throughput, Severity::Error),
            "case {case}: expected A3 Error (mu = {}, r_floor = {r_floor})\n{}",
            spec.streams[0].mu,
            report.render_text()
        );

        let mu = spec.streams[0].mu;
        let cycles = clean_cycles(&spec);
        for mode in ENGINES {
            let b = run_saturated(&spec, mode, cycles);
            let metrics = system_metrics(&b.system, b.gateway);
            let starts: Vec<u64> = metrics
                .blocks
                .iter()
                .filter(|blk| blk.stream == 0)
                .map(|blk| blk.start)
                .collect();
            if starts.len() < 2 {
                // Not even two blocks in a generous budget — an even more
                // decisive throughput failure.
                continue;
            }
            let min_gap = starts.windows(2).map(|w| w[1] - w[0]).min().unwrap();
            // Sustained rate η/min_gap must fall short of μ:
            // η · denom(μ) < min_gap · numer(μ).
            assert!(
                (eta0 as i128) * mu.denom() < (min_gap as i128) * mu.numer(),
                "case {case} ({mode:?}): demanded μ = {mu} met by gap {min_gap} \
                 (η = {eta0}) — analyzer rejection was wrong"
            );
        }
    }
}

#[test]
fn missing_space_check_rejections_wedge_in_simulation() {
    let mut rng = Rng::new(0xD1FF_0005);
    for case in 0..30 {
        let mut spec = random_clean_spec(&mut rng, case);
        spec.check_for_space = false;
        spec.streams[0].output_capacity = spec.streams[0].eta_out - 1;
        let report = analyze_with(&spec, &fast_options());
        assert!(
            report.has(RuleId::A5SpaceCheck, Severity::Error),
            "case {case}: expected A5 Error\n{}",
            report.render_text()
        );

        let cycles = clean_cycles(&spec);
        for mode in ENGINES {
            let b = run_saturated(&spec, mode, cycles);
            // The admitted block of stream 0 can never drain: no completion.
            assert_eq!(
                b.blocks_done(0),
                0,
                "case {case} ({mode:?}): wedged stream completed a block"
            );
            // Head-of-line blocking: every OTHER stream is starved far below
            // its six available blocks (the shared chain is wedged from the
            // first round on).
            for s in 1..spec.streams.len() {
                assert!(
                    b.blocks_done(s) <= 2,
                    "case {case} ({mode:?}): stream {s} completed {} blocks \
                     despite the wedged chain — no head-of-line blocking?",
                    b.blocks_done(s)
                );
            }
        }
    }
}

/// Multi-gateway soundness, clean side: 140 random whole-system topologies
/// (2–3 pairs, mixed owned/shared chains, config-bus slots, latency
/// budgets on half the streams) must be accepted — and then every pair on
/// both engines makes progress, meets Eq. 2 per block, and keeps its
/// measured rounds within the *system* round bound γ_g (which charges
/// cross-pair claims on shared chains).
#[test]
fn accepted_multi_gateway_topologies_meet_bounds_on_both_engines() {
    let mut rng = Rng::new(0xD1FF_0006);
    for case in 0..140 {
        let spec = random_multi_spec(&mut rng, case);
        let report = analyze_with(&spec, &fast_options());
        assert!(
            report.is_accepted(),
            "clean multi generator produced a rejected spec (case {case}):\n{}",
            report.render_text()
        );

        let views = spec.gateway_views();
        let cycles = multi_clean_cycles(&spec);
        let mut blocks_by_engine = Vec::new();
        let mut profiles = Vec::new();
        let mut blames = Vec::new();
        let mut traces = Vec::new();
        for mode in ENGINES {
            let mut b = run_saturated_multi(&spec, mode, cycles);
            let mut blocks = Vec::new();
            let mut flat = 0;
            for v in &views {
                let gw = b.gateways[v.index];
                for s in 0..v.streams.len() {
                    let n = b.system.gateways[gw].stream(s).blocks_done;
                    assert!(
                        n >= 3,
                        "case {case} ({mode:?}): accepted but {}:{} completed only \
                         {n} blocks in {cycles} cycles\n{}",
                        v.name,
                        v.streams[s].name,
                        report.render_text()
                    );
                    blocks.push(n);
                }
                // Eq. 2 per pair: measured block times within τ̂ + margin.
                let prob = v.sharing_problem();
                let etas = v.etas();
                let margin = multi_tau_margin(&spec, v.chain.len() as u64, v.c0());
                for val in validate_tau_bound(&prob, &etas, &b.system, gw, margin) {
                    assert!(
                        val.ok,
                        "case {case} ({mode:?}): {} stream {} measured τ {} exceeds \
                         τ̂ {} (+{})\n{}",
                        v.name,
                        val.stream,
                        val.measured_max,
                        val.tau_hat,
                        val.margin,
                        report.render_text()
                    );
                }
                // Eq. 3–4 at system scope: measured rounds within γ_g. The
                // report's bounds carry γ_g = τ̂ + Ω̂ per stream.
                let gamma_g = report.bounds[flat].tau_hat + report.bounds[flat].omega_hat;
                let metrics = system_metrics(&b.system, gw);
                if let Some(round) = metrics.max_round_time() {
                    let margin = margin * v.streams.len() as u64 + 16;
                    assert!(
                        round <= gamma_g + margin,
                        "case {case} ({mode:?}): {} round {round} exceeds system \
                         γ_g {gamma_g} (+{margin})\n{}",
                        v.name,
                        report.render_text()
                    );
                }
                flat += v.streams.len();
            }
            blocks_by_engine.push(blocks);

            // Measured-profile feedback: every empirical per-hop arrival
            // curve must be dominated by the analyzer's predicted envelope
            // (an escape is an A7 Error, flipping the verdict).
            let profile = collect_profile(&mut b.system, &spec.name);
            let report_p = analyze_profiled(&spec, &fast_options(), Some(&profile));
            assert!(
                report_p.is_accepted(),
                "case {case} ({mode:?}): measured profile rejected by the \
                 analyzer (predicted curve fails to dominate):\n{}",
                report_p.render_text()
            );

            // Online monitoring: the Eq. 2 / Eq. 3-4 / buffer / Fig. 9
            // checks, armed with the analyzer's bounds, must stay silent
            // over the whole trace of a clean accepted run.
            let mut monitor = monitor_for(&spec, &report, &b.system);
            monitor.poll(&b.system.tracer);
            assert!(
                monitor.is_clean(),
                "case {case} ({mode:?}): online monitor flagged violations \
                 on an accepted clean run: {:?}",
                monitor.violations()
            );
            profiles.push(profile);

            // Causal attribution: every completed block's τ decomposes
            // exactly (sum-to-τ is asserted inside collect_blame), and
            // each measured component stays under its analytic ceiling —
            // strictly stronger than the aggregate τ ≤ τ̂ check above.
            let blame = collect_blame(&mut b.system, &spec.name);
            let failures = check_blame_conformance(&spec, &report, &blame);
            assert!(
                failures.is_empty(),
                "case {case} ({mode:?}): componentwise conformance failed:\n{}",
                failures.join("\n")
            );
            blames.push(blame);

            // Keep the full structured event stream for cross-engine
            // comparison (flushing open stall windows first so both
            // engines are finalized identically).
            b.system.finish_trace();
            traces.push(b.system.tracer.events().to_vec());
        }
        assert_eq!(
            blocks_by_engine[0], blocks_by_engine[1],
            "case {case}: engines disagree on completed blocks"
        );
        // Blame reports must be bit-identical between engines (only the
        // mode tag may differ), down to the serialized JSON.
        let mut bl_ev = blames.pop().unwrap();
        let bl_ex = blames.pop().unwrap();
        bl_ev.mode = bl_ex.mode.clone();
        assert_eq!(
            bl_ex.to_json_text(),
            bl_ev.to_json_text(),
            "case {case}: engines disagree on the blame report"
        );
        // The two engines must have produced bit-identical measurements;
        // only the `mode` tag may differ.
        let mut p_ev = profiles.pop().unwrap();
        let p_ex = profiles.pop().unwrap();
        p_ev.mode = p_ex.mode.clone();
        assert_eq!(
            p_ex, p_ev,
            "case {case}: engines disagree on the measured profile"
        );
        // ... and bit-identical trace-event streams, event by event.
        let t_ev = traces.pop().unwrap();
        let t_ex = traces.pop().unwrap();
        if let Some(d) = t_ex.iter().zip(t_ev.iter()).position(|(x, y)| x != y) {
            panic!(
                "case {case}: trace streams diverge at event {d}: \
                 exhaustive {:?} vs event {:?}",
                t_ex[d], t_ev[d]
            );
        }
        assert_eq!(
            t_ex.len(),
            t_ev.len(),
            "case {case}: engines disagree on trace event count"
        );
    }
}

/// The pal2 twin (Fig. 10: two gateway pairs sharing one CORDIC and one
/// FIR), fully profiled with periodic samples, writes the same trace,
/// `RunProfile` and `BlameReport` on both engines. The suites above
/// profile with sample interval 0, so this is what pins the order of
/// events across gateways against periodic FIFO-level and ring samples.
/// The profile (its `mode` blanked) is also pinned byte-for-byte: pal2's
/// flits travel several hops, so its hop curves fold lists the ring logged
/// out of cycle order.
#[test]
fn pal2_profiled_with_samples_is_identical_on_both_engines() {
    let spec = DeploySpec::pal2();
    let mut runs = Vec::new();
    for mode in ENGINES {
        let mut b = spec.build_multi_platform();
        b.system.step_mode = mode;
        b.system.enable_profiling(97);
        for (g, gw) in spec.gateways.iter().enumerate() {
            for (s, st) in gw.streams.iter().enumerate() {
                let fifo = b.inputs[g][s];
                for k in 0..st.input_capacity {
                    if !b.system.fifos[fifo.0].try_push((k as f64, 0.5), 0) {
                        break;
                    }
                }
            }
        }
        b.system.run(300_000);
        let mut profile = collect_profile(&mut b.system, &spec.name);
        let mut blame = collect_blame(&mut b.system, &spec.name);
        profile.mode = String::new();
        blame.mode = String::new();
        b.system.finish_trace();
        let trace = b.system.tracer.events().to_vec();
        assert!(trace.len() > 10_000, "{mode:?}: {} events", trace.len());
        runs.push((trace, profile.to_json_text(), blame.to_json_text()));
    }
    let (ex, ev) = (&runs[0], &runs[1]);
    if let Some(d) = ex.0.iter().zip(&ev.0).position(|(x, y)| x != y) {
        panic!(
            "pal2 traces diverge at event {d}: exhaustive {:?} vs event {:?}",
            ex.0[d], ev.0[d]
        );
    }
    assert_eq!(ex.0.len(), ev.0.len(), "pal2 trace event counts");
    assert_eq!(ex.1, ev.1, "pal2 profiles differ");
    check_golden("pal2_profile.json", &ex.1);
    assert_eq!(ex.2, ev.2, "pal2 blame reports differ");
}

/// Multi-gateway fault injection: an undersized input C-FIFO on one pair
/// is rejected (A2 at that pair's view) and that stream never completes a
/// block on either engine — while the *other pairs* keep streaming.
#[test]
fn multi_gateway_undersized_input_rejections_deadlock_in_simulation() {
    let mut rng = Rng::new(0xD1FF_0007);
    for case in 0..40 {
        let mut spec = random_multi_spec(&mut rng, case);
        let vg = (rng.next() % spec.gateways.len() as u64) as usize;
        let vs = (rng.next() % spec.gateways[vg].streams.len() as u64) as usize;
        let victim = &mut spec.gateways[vg].streams[vs];
        victim.input_capacity = victim.eta_in - 1;
        let report = analyze_with(&spec, &fast_options());
        assert!(
            report.has(RuleId::A2BufferCapacity, Severity::Error),
            "case {case}: expected A2 Error\n{}",
            report.render_text()
        );
        assert!(!report.is_accepted());

        let cycles = multi_clean_cycles(&spec);
        for mode in ENGINES {
            let b = run_saturated_multi(&spec, mode, cycles);
            assert_eq!(
                b.system.gateways[b.gateways[vg]].stream(vs).blocks_done,
                0,
                "case {case} ({mode:?}): a full block never fits the victim's \
                 input FIFO, yet it completed blocks"
            );
            for (g, gw) in spec.gateways.iter().enumerate() {
                if g == vg {
                    continue;
                }
                for s in 0..gw.streams.len() {
                    assert!(
                        b.system.gateways[b.gateways[g]].stream(s).blocks_done >= 3,
                        "case {case} ({mode:?}): healthy pair {} starved by the \
                         victim's local fault",
                        gw.name
                    );
                }
            }
        }
    }
}

/// Multi-gateway fault injection, system-scope rule: force every pair onto
/// ONE shared chain and scale rates to the *pair-local* Eq. 5 limit — each
/// pair in isolation is feasible, but the chain as a whole is claimed more
/// than 100% of the time. Only A8 can reject this; the pinned simulation
/// counterpart lives in `negative_paths.rs`.
#[test]
fn multi_gateway_shared_overcommit_is_rejected_by_a8() {
    let mut rng = Rng::new(0xD1FF_0008);
    for case in 0..40 {
        let mut spec = random_multi_spec(&mut rng, case);
        // Everyone shares gateway 0's chain.
        for g in 1..spec.gateways.len() {
            spec.gateways[g].chain = vec![];
            spec.gateways[g].shares_chain_with = Some(0);
        }
        // Rate each stream at ~90% of its PAIR-LOCAL η/γ limit: locally
        // clean (A3 passes), globally over-committed (Σ μ·τ̂/η > 1 as soon
        // as two or more pairs claim one chain at near-full local rate).
        let c0 = {
            let rho = spec.gateways[0].chain.iter().map(|s| s.rho).max().unwrap();
            spec.epsilon.max(rho).max(spec.delta)
        };
        for gw in spec.gateways.iter_mut() {
            let gamma_local: u64 = gw
                .streams
                .iter()
                .map(|s| s.reconfig + (s.eta_in + 2) * c0)
                .sum();
            for s in gw.streams.iter_mut() {
                s.mu =
                    streamgate_ilp::Rational::new(9 * s.eta_in as i128, 10 * gamma_local as i128);
                s.max_latency = None;
            }
        }
        let report = analyze_with(&spec, &fast_options());
        assert!(
            report.has(RuleId::A8SystemRound, Severity::Error),
            "case {case}: expected A8 Error\n{}",
            report.render_text()
        );
        assert!(!report.is_accepted());
        assert!(
            !report.has(RuleId::A3Throughput, Severity::Error),
            "case {case}: the fault must be invisible to the pair-local A3\n{}",
            report.render_text()
        );
    }
}
