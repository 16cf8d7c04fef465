//! Property test using the static analyzer as a *validity oracle* over
//! unconstrained random deployments.
//!
//! Unlike `differential.rs` (whose generator is engineered to produce
//! accepted configurations), this strategy draws capacities and rates
//! freely — many drawn deployments are genuinely broken. The analyzer
//! triages them: whatever it ACCEPTS must hold up in simulation (progress,
//! τ̂, engine agreement); whatever it rejects is skipped, exactly how the
//! randomized platform tests use it as a pre-filter.

mod common;

use common::{clean_cycles, fast_options, run_saturated, tau_margin};
use proptest::prelude::*;
use streamgate_analysis::{analyze_with, ChainStage, DeploySpec, StreamDeploy};
use streamgate_core::validate_tau_bound;
use streamgate_ilp::Rational;
use streamgate_platform::StepMode;

#[derive(Clone, Debug)]
struct RawDeploy {
    chain_rhos: Vec<u64>,
    epsilon: u64,
    delta: u64,
    ni_depth: u32,
    check_for_space: bool,
    etas: Vec<u64>,
    reconfig: u64,
    in_cap_factor: u64,  // input capacity = factor × η (0 → η − 1: broken)
    out_cap_factor: u64, // likewise for the output side
    mu_denom_factor: u64,
}

fn spec_of(raw: &RawDeploy) -> DeploySpec {
    let c0 = raw
        .chain_rhos
        .iter()
        .copied()
        .max()
        .unwrap()
        .max(raw.epsilon)
        .max(raw.delta);
    let gamma: u64 = raw
        .etas
        .iter()
        .map(|&eta| raw.reconfig + (eta + 2) * c0)
        .sum();
    DeploySpec {
        name: "oracle".into(),
        chain: raw
            .chain_rhos
            .iter()
            .enumerate()
            .map(|(i, &rho)| ChainStage {
                name: format!("A{i}"),
                rho,
            })
            .collect(),
        epsilon: raw.epsilon,
        delta: raw.delta,
        ni_depth: raw.ni_depth,
        check_for_space: raw.check_for_space,
        streams: raw
            .etas
            .iter()
            .enumerate()
            .map(|(i, &eta)| StreamDeploy {
                name: format!("s{i}"),
                // μ = η / (factor·γ/4): factor ≤ 4 demands more than a round
                // can deliver (infeasible), larger factors are feasible.
                mu: Rational::new(4 * eta as i128, (raw.mu_denom_factor * gamma) as i128),
                eta_in: eta,
                eta_out: eta,
                reconfig: raw.reconfig,
                input_capacity: if raw.in_cap_factor == 0 {
                    eta - 1
                } else {
                    raw.in_cap_factor * eta
                },
                output_capacity: if raw.out_cap_factor == 0 {
                    eta - 1
                } else {
                    raw.out_cap_factor * eta
                },
                max_latency: None,
            })
            .collect(),
        processors: vec![],
        gateways: vec![],
        config_bus_period: None,
        station_map: None,
        modes: vec![],
    }
}

fn raw_strategy() -> impl Strategy<Value = RawDeploy> {
    (
        (proptest::collection::vec(1u64..6, 1..4), 1u64..8, 1u64..3),
        (1u32..4, 0u64..2, proptest::collection::vec(4u64..20, 1..4)),
        (0u64..80, 0u64..8, 0u64..10, 2u64..16),
    )
        .prop_map(
            |(
                (chain_rhos, epsilon, delta),
                (ni_depth, check, etas),
                (reconfig, in_cap_factor, out_cap_factor, mu_denom_factor),
            )| RawDeploy {
                chain_rhos,
                epsilon,
                delta,
                ni_depth,
                check_for_space: check == 1,
                etas,
                reconfig,
                in_cap_factor,
                out_cap_factor,
                mu_denom_factor,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn analyzer_accepted_deployments_survive_simulation(raw in raw_strategy()) {
        let spec = spec_of(&raw);
        let report = analyze_with(&spec, &fast_options());
        prop_assume!(report.is_accepted());

        // Small capacities bound the number of blocks a saturated run can
        // complete; require progress proportional to what fits.
        let min_blocks = spec
            .streams
            .iter()
            .map(|s| (s.input_capacity / s.eta_in).min(s.output_capacity / s.eta_out))
            .min()
            .unwrap()
            .min(3);
        let cycles = clean_cycles(&spec);
        let view = &spec.gateway_views()[0];
        let (prob, etas) = (view.sharing_problem(), view.etas());
        let mut per_engine = Vec::new();
        for mode in [StepMode::Exhaustive, StepMode::EventDriven] {
            let b = run_saturated(&spec, mode, cycles);
            let blocks: Vec<u64> =
                (0..spec.streams.len()).map(|s| b.blocks_done(s)).collect();
            for (s, &n) in blocks.iter().enumerate() {
                prop_assert!(
                    n >= min_blocks,
                    "accepted, but stream {} did {} < {} blocks ({:?})\n{}",
                    s, n, min_blocks, mode, report.render_text()
                );
            }
            for v in validate_tau_bound(&prob, &etas, &b.system, b.gateway, tau_margin(&spec)) {
                prop_assert!(
                    v.ok,
                    "accepted, but stream {} τ {} > τ̂ {} (+{}) ({:?})\n{}",
                    v.stream, v.measured_max, v.tau_hat, v.margin, mode, report.render_text()
                );
            }
            per_engine.push(blocks);
        }
        prop_assert_eq!(&per_engine[0], &per_engine[1], "engines disagree");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whole-system variant of the oracle: a seeded multi-gateway topology
    /// with one stream's rate scaled by a free factor — ×1 keeps the
    /// generator's half-limit placement, larger factors push past the
    /// system-scope Eq. 5 / ring-capacity limits and get rejected. Whatever
    /// the analyzer accepts must survive saturated simulation on both
    /// engines, pairs progressing and engines agreeing.
    #[test]
    fn analyzer_accepted_multi_deployments_survive_simulation(
        seed in 1u64..u64::MAX,
        victim_pick in 0usize..16,
        mu_scale in 1i128..12,
    ) {
        let mut rng = common::Rng::new(seed);
        let mut spec = common::random_multi_spec(&mut rng, 0);
        let g = victim_pick % spec.gateways.len();
        let s = victim_pick % spec.gateways[g].streams.len();
        let mu = spec.gateways[g].streams[s].mu;
        spec.gateways[g].streams[s].mu =
            Rational::new(mu.numer() * mu_scale, mu.denom());
        // The generator's latency budgets assume the original fill time;
        // drop the scaled stream's budget so A10 reflects the new rate.
        spec.gateways[g].streams[s].max_latency = None;

        let report = analyze_with(&spec, &fast_options());
        prop_assume!(report.is_accepted());

        let cycles = common::multi_clean_cycles(&spec);
        let mut per_engine = Vec::new();
        for mode in [StepMode::Exhaustive, StepMode::EventDriven] {
            let b = common::run_saturated_multi(&spec, mode, cycles);
            let mut blocks = Vec::new();
            for (g, gw) in spec.gateways.iter().enumerate() {
                for s in 0..gw.streams.len() {
                    let n = b.system.gateways[b.gateways[g]].stream(s).blocks_done;
                    prop_assert!(
                        n >= 3,
                        "accepted, but {}:{} did {} blocks ({:?})\n{}",
                        gw.name, gw.streams[s].name, n, mode, report.render_text()
                    );
                    blocks.push(n);
                }
            }
            per_engine.push(blocks);
        }
        prop_assert_eq!(&per_engine[0], &per_engine[1], "engines disagree");
    }
}
