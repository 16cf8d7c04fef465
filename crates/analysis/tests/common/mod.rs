//! Shared machinery for the analysis integration tests: a seeded random
//! deployment generator and a saturated-run simulation harness that mirrors
//! the analyzed spec exactly (same chain, block sizes, capacities and
//! admission policy — `DeploySpec::build_platform` is the single source of
//! wiring truth for both the analyzer's view and the simulated platform).
//!
//! Each integration-test binary compiles this module independently and uses
//! a different subset of it, so the per-binary dead-code lint is off.
#![allow(dead_code)]

use std::path::PathBuf;
use streamgate_analysis::{
    AnalysisOptions, ChainStage, DeploySpec, GatewayDeploy, MultiBuiltSystem, StreamDeploy,
};
use streamgate_core::BuiltSystem;
use streamgate_ilp::Rational;
use streamgate_platform::StepMode;

/// Deterministic xorshift64 RNG (same family the sweep binaries use).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// Analyzer options for batch runs: the exact minimum-buffer search (a
/// Warnings-only refinement) costs seconds per stream in debug builds, and
/// disabling it never changes the accept/reject verdict.
pub fn fast_options() -> AnalysisOptions {
    AnalysisOptions {
        exact_buffers: false,
    }
}

/// A random deployment engineered to be *accepted*: throughput at half the
/// Eq. 5 limit, capacities with whole-block floors and room for six blocks.
/// Everything else (chain depth, per-stage ρ, ε, δ, R_s, block sizes,
/// stream count) is drawn freely.
pub fn random_clean_spec(rng: &mut Rng, tag: usize) -> DeploySpec {
    let chain_len = rng.range(1, 3);
    let chain: Vec<ChainStage> = (0..chain_len)
        .map(|i| ChainStage {
            name: format!("A{i}"),
            rho: rng.range(1, 6),
        })
        .collect();
    let epsilon = rng.range(1, 8);
    let delta = rng.range(1, 2);
    let ni_depth = rng.range(2, 3) as u32;
    let n_streams = rng.range(1, 3);
    let etas: Vec<u64> = (0..n_streams).map(|_| rng.range(4, 24)).collect();
    let reconfigs: Vec<u64> = (0..n_streams).map(|_| rng.range(0, 100)).collect();

    let rho_a = chain.iter().map(|s| s.rho).max().unwrap();
    let c0 = epsilon.max(rho_a).max(delta);
    let gamma: u64 = etas
        .iter()
        .zip(&reconfigs)
        .map(|(&eta, &r)| r + (eta + 2) * c0)
        .sum();

    let streams = etas
        .iter()
        .zip(&reconfigs)
        .enumerate()
        .map(|(i, (&eta, &r))| StreamDeploy {
            name: format!("s{i}"),
            // Half the Eq. 5 limit η/γ: always feasible, never marginal.
            mu: Rational::new(eta as i128, 2 * gamma as i128),
            eta_in: eta,
            eta_out: eta,
            reconfig: r,
            input_capacity: 6 * eta,
            output_capacity: 8 * eta,
            max_latency: None,
        })
        .collect();

    DeploySpec {
        name: format!("rand-{tag}"),
        chain,
        epsilon,
        delta,
        ni_depth,
        check_for_space: true,
        streams,
        processors: vec![],
        gateways: vec![],
        config_bus_period: None,
        station_map: None,
        modes: vec![],
    }
}

/// A random *multi-gateway* deployment engineered to be accepted: 2–3
/// gateway pairs on one ring, each owning a chain or sharing an earlier
/// pair's (Fig. 10 style), with rates at half the *system-scope* Eq. 5
/// limit (the pair-local limit would be unsound for shared chains) and a
/// conflict-free configuration-bus slot table.
pub fn random_multi_spec(rng: &mut Rng, tag: usize) -> DeploySpec {
    let n_gw = rng.range(2, 3) as usize;
    let epsilon = rng.range(1, 6);
    let delta = rng.range(1, 2);
    let ni_depth = rng.range(2, 3) as u32;

    let mut gateways: Vec<GatewayDeploy> = Vec::new();
    for g in 0..n_gw {
        // Half the pairs after the first share gateway 0's chain.
        let shares = g > 0 && rng.next().is_multiple_of(2) && !gateways[0].chain.is_empty();
        let chain: Vec<ChainStage> = if shares {
            vec![]
        } else {
            (0..rng.range(1, 2))
                .map(|i| ChainStage {
                    name: format!("g{g}A{i}"),
                    rho: rng.range(1, 5),
                })
                .collect()
        };
        let n_streams = rng.range(1, 2);
        let streams = (0..n_streams)
            .map(|s| StreamDeploy {
                name: format!("g{g}s{s}"),
                mu: Rational::new(0, 1), // placeholder until γ_s is known
                eta_in: 0,
                eta_out: 0,
                reconfig: rng.range(0, 60),
                input_capacity: 0,
                output_capacity: 0,
                max_latency: None,
            })
            .collect();
        gateways.push(GatewayDeploy {
            name: format!("gw{g}"),
            chain,
            shares_chain_with: if shares { Some(0) } else { None },
            streams,
            config_slot: None,
        });
    }
    // Block sizes, then rates at half the system-scope limit η/(2·G·γ_s):
    // the G in the denominator also caps the summed ring-hop load at 1/2.
    for gw in gateways.iter_mut() {
        for st in gw.streams.iter_mut() {
            let eta = rng.range(4, 24);
            st.eta_in = eta;
            st.eta_out = eta;
            st.input_capacity = 6 * eta;
            st.output_capacity = 8 * eta;
        }
    }
    let mut spec = DeploySpec {
        name: format!("multi-{tag}"),
        chain: vec![],
        epsilon,
        delta,
        ni_depth,
        check_for_space: true,
        streams: vec![],
        processors: vec![],
        gateways,
        config_bus_period: None,
        station_map: None,
        modes: vec![],
    };
    // The credit window ni_depth·c0 must cover each pair's 2·distance ring
    // round trip (layout-aware A6) — size the NI for the worst pair, plus
    // one slot of slack for cross-pair credit contention.
    let layout = spec.ring_layout();
    let needed = (0..n_gw)
        .map(|g| {
            let owner = spec.gateways[g].shares_chain_with.unwrap_or(g);
            let rho_a = spec.gateways[owner]
                .chain
                .iter()
                .map(|st| st.rho)
                .max()
                .unwrap_or(0);
            let c0 = epsilon.max(rho_a).max(delta);
            let d_max = layout
                .segments(g)
                .iter()
                .map(|&(src, dst)| layout.data_hops(src, dst).len() as u64)
                .max()
                .unwrap_or(1);
            (2 * d_max).div_ceil(c0) + 1
        })
        .max()
        .unwrap();
    spec.ni_depth = spec.ni_depth.max(needed as u32);
    let gamma_sys = system_round_bounds(&spec);
    for (g, gw) in spec.gateways.iter_mut().enumerate() {
        for s in gw.streams.iter_mut() {
            s.mu = Rational::new(s.eta_in as i128, (2 * n_gw as u64 * gamma_sys[g]) as i128);
        }
    }
    // Latency budgets on half the streams, at twice the Fig. 7 upper bound
    // (fill + γ_s) so the clean generator stays clean while A10 runs.
    for (gw, &gamma_g) in spec.gateways.iter_mut().zip(&gamma_sys) {
        for st in gw.streams.iter_mut() {
            if rng.next().is_multiple_of(2) {
                continue;
            }
            let num = (st.eta_in as i128 - 1) * st.mu.denom();
            let fill = ((num + st.mu.numer() - 1) / st.mu.numer()) as u64;
            st.max_latency = Some(2 * (fill + gamma_g));
        }
    }
    // Contiguous config-bus slots sized to each pair's largest R_s.
    let mut off = 0;
    for gw in spec.gateways.iter_mut() {
        let len = gw
            .streams
            .iter()
            .map(|s| s.reconfig)
            .max()
            .unwrap_or(0)
            .max(1);
        gw.config_slot = Some((off, len));
        off += len;
    }
    spec.config_bus_period = Some(off);
    spec
}

/// The analyzer's A8 system round bound γ_g per gateway (identical
/// arithmetic to `check_system_round`, reproduced here so the generator
/// can place rates safely *below* it).
fn system_round_bounds(spec: &DeploySpec) -> Vec<u64> {
    let group: Vec<usize> = (0..spec.gateways.len())
        .map(|g| spec.gateways[g].shares_chain_with.unwrap_or(g))
        .collect();
    let c0: Vec<u64> = (0..spec.gateways.len())
        .map(|g| {
            let owner = &spec.gateways[group[g]];
            let rho_a = owner.chain.iter().map(|st| st.rho).max().unwrap_or(0);
            spec.epsilon.max(rho_a).max(spec.delta)
        })
        .collect();
    let taus: Vec<Vec<u64>> = spec
        .gateways
        .iter()
        .enumerate()
        .map(|(g, gw)| {
            gw.streams
                .iter()
                .map(|s| s.reconfig + (s.eta_in + 2) * c0[g])
                .collect()
        })
        .collect();
    (0..spec.gateways.len())
        .map(|g| {
            let own: u64 = taus[g].iter().sum();
            let n_g = spec.gateways[g].streams.len() as u64;
            let mut interference = 0;
            for h in 0..spec.gateways.len() {
                if h == g || group[h] != group[g] || taus[h].is_empty() {
                    continue;
                }
                let claims = n_g + 1;
                let max_t = *taus[h].iter().max().unwrap();
                let sum_t: u64 = taus[h].iter().sum();
                let n_h = taus[h].len() as u64;
                interference += (claims * max_t).min(claims.div_ceil(n_h) * sum_t);
            }
            own + interference
        })
        .collect()
}

/// Build the spec's platform, prefill every input FIFO to capacity (the
/// saturated regime the round/τ̂ analysis describes — outputs are never
/// drained, which the generous output capacities absorb), and run it.
pub fn run_saturated(spec: &DeploySpec, mode: StepMode, cycles: u64) -> BuiltSystem {
    let mut b = spec.build_platform();
    b.system.step_mode = mode;
    // Full profiling, so differential tests can also collect a measured
    // `RunProfile` and feed it back through the analyzer.
    b.system.enable_profiling(0);
    for (i, s) in spec.streams.iter().enumerate() {
        for k in 0..s.input_capacity {
            if !b.push_input(i, (k as f64, 0.5)) {
                break;
            }
        }
    }
    b.system.run(cycles);
    b
}

/// Cycle budget that lets a clean saturated run complete its six prefilled
/// blocks per stream with slack.
pub fn clean_cycles(spec: &DeploySpec) -> u64 {
    let gamma = spec.sharing_problem().gamma(&spec.etas());
    8 * gamma + 4_000
}

/// Multi-gateway sibling of [`run_saturated`]: build the whole-system
/// platform, prefill every input C-FIFO on every pair, and run it.
pub fn run_saturated_multi(spec: &DeploySpec, mode: StepMode, cycles: u64) -> MultiBuiltSystem {
    let mut b = spec.build_multi_platform();
    b.system.step_mode = mode;
    // Full profiling (tracer + ring delivery log + FIFO push logs), so the
    // differential tests can also collect a measured `RunProfile` and feed
    // it back through the analyzer.
    b.system.enable_profiling(0);
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
    b.system.run(cycles);
    b
}

/// Cycle budget for a clean saturated multi-gateway run: eight of the
/// slowest pair's system rounds (which already include cross-pair chain
/// interference), plus slack.
pub fn multi_clean_cycles(spec: &DeploySpec) -> u64 {
    8 * system_round_bounds(spec).iter().max().copied().unwrap_or(0) + 4_000
}

// The measurement margins the assertions below widen the analytic bounds
// by are now part of the analyzer's public API (the online monitor uses
// the same calibration) — re-exported here so every differential test
// keeps reading from one definition.
#[allow(unused_imports)] // each test binary uses a different subset
pub use streamgate_analysis::{multi_tau_margin, round_margin, tau_margin};

/// Compare `actual` with the golden file `tests/golden/<name>`, or write
/// it there when `GOLDEN_UPDATE` is set. Goldens pin the exact bytes of an
/// artifact other tools parse, so any diff is a deliberate format or
/// measurement change: re-record and review it like an API change.
pub fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e} (run with GOLDEN_UPDATE=1)",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} diverged from the golden file — if the change is \
         intentional, re-record with GOLDEN_UPDATE=1"
    );
}
