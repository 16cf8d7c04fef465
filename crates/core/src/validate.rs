//! Bound validation: measured platform behaviour vs the analysis.
//!
//! The refinement chain of Fig. 2 claims `hardware ⊑ CSDF ⊑ SDF`; here the
//! "hardware" is the cycle-level platform simulator. We validate
//! constructively:
//!
//! * every measured block-processing time `τ` stays within `τ̂` (Eq. 2),
//!   modulo the documented ring-transport margin;
//! * every measured round (queued block start → completion) stays within
//!   `γ` (Eq. 4);
//! * the platform's token-arrival traces refine the CSDF model's.
//!
//! All measurements come from the platform's **tracer** (the observability
//! layer of `streamgate_platform::trace`), folded by [`crate::metrics`] —
//! validation consumes the same event log a Chrome trace export would, so
//! what we check is exactly what an engineer would see on the timeline.
//! Harnesses must call `System::enable_tracing` before running.

use crate::metrics::{fold_system, gateway_metrics, GatewayMetrics};
use crate::params::SharingProblem;
use streamgate_platform::System;

/// Measured vs bound for one stream.
#[derive(Clone, Debug)]
pub struct TauValidation {
    /// Stream name.
    pub stream: String,
    /// Number of measured blocks.
    pub blocks: usize,
    /// Maximum measured block time (reconfig start → drain end), cycles.
    pub measured_max: u64,
    /// Mean measured block time.
    pub measured_mean: f64,
    /// The bound τ̂ = R + (η + 2)·c0.
    pub tau_hat: u64,
    /// Extra allowance for ring transport (hops the analysis folds into
    /// ε/δ; constant per system, not per sample).
    pub margin: u64,
    /// True iff `measured_max ≤ tau_hat + margin`.
    pub ok: bool,
}

/// Tracer-derived metrics for one gateway of a system.
///
/// # Panics
///
/// Panics when the system was run without `System::enable_tracing`.
pub fn system_metrics(sys: &System, gateway: usize) -> GatewayMetrics {
    let num_streams = sys.gateways[gateway].num_streams();
    gateway_metrics(&sys.tracer, gateway, num_streams)
}

/// Extract per-stream block times from the tracer's event log.
///
/// # Panics
///
/// Panics when the system was run without `System::enable_tracing`.
pub fn measure_block_times(sys: &System, gateway: usize) -> Vec<Vec<u64>> {
    system_metrics(sys, gateway)
        .streams
        .into_iter()
        .map(|s| s.taus)
        .collect()
}

/// Validate Eq. 2 against a traced run: for each stream, the maximum
/// observed block time must be within `τ̂ + margin`. The margin covers the
/// constant ring transport of a block's last sample (entry → accelerators →
/// exit), which the paper's ε/δ absorb; it is O(ring size), not O(η).
pub fn validate_tau_bound(
    prob: &SharingProblem,
    etas: &[u64],
    sys: &System,
    gateway: usize,
    margin: u64,
) -> Vec<TauValidation> {
    let metrics = system_metrics(sys, gateway);
    metrics
        .streams
        .iter()
        .enumerate()
        .map(|(s, m)| {
            let tau_hat = prob.tau_hat(s, etas[s]);
            TauValidation {
                stream: prob.streams[s].name.clone(),
                blocks: m.blocks(),
                measured_max: m.tau_max(),
                measured_mean: m.tau_mean(),
                tau_hat,
                margin,
                ok: m.tau_max() <= tau_hat + margin,
            }
        })
        .collect()
}

/// Cross-check the attribution layer against the tracer-derived metrics
/// this module validates with: for every stream in `blame`, the per-cause
/// component totals must sum to exactly the same cycles the τ measurement
/// sees (Σ τ over that stream's completed blocks), and the block counts
/// must agree. An attribution that "explains" different cycles than the
/// validation measures would make the blame report unfalsifiable.
///
/// Returns one description per mismatch; empty means the two measurement
/// paths agree block-for-block. A stream's blocks are counted from every
/// logged block of its gateway, so a stream removed since (whose index the
/// current table no longer has) is checked too.
pub fn validate_blame_totals(blame: &crate::attribution::BlameReport, sys: &System) -> Vec<String> {
    let metrics = fold_system(sys);
    let mut failures = Vec::new();
    for s in &blame.streams {
        let (blocks, tau_sum) = metrics[s.gateway]
            .blocks
            .iter()
            .filter(|b| b.stream == s.stream)
            .fold((0u64, 0u64), |(n, sum), b| (n + 1, sum + b.tau()));
        if s.blocks != blocks {
            failures.push(format!(
                "stream `{}`: blame attributes {} block(s) but the tracer measured {blocks}",
                s.name, s.blocks
            ));
        }
        if s.tau_sum != tau_sum {
            failures.push(format!(
                "stream `{}`: blame explains {} cycle(s) but measured Σ τ is {tau_sum}",
                s.name, s.tau_sum
            ));
        }
        let component_total: u64 = s.totals.iter().sum();
        if component_total != s.tau_sum {
            failures.push(format!(
                "stream `{}`: components sum to {component_total} ≠ τ total {}",
                s.name, s.tau_sum
            ));
        }
    }
    failures
}

/// Measured mode-transition delay: cycles from the switch-request cycle to
/// the drain end of the switched stream's **first** block admitted at or
/// after the request — the quantity rule A12's closed-form bound must
/// dominate. `stream` is the stream's post-splice table index (the
/// `stream_index` of the admission outcome). Returns `None` while no
/// post-switch block has completed yet.
///
/// # Panics
///
/// Panics when the system was run without `System::enable_tracing`.
pub fn measured_transition_delay(
    sys: &System,
    gateway: usize,
    stream: usize,
    request_cycle: u64,
) -> Option<u64> {
    system_metrics(sys, gateway)
        .blocks
        .iter()
        .find(|b| b.stream == stream && b.start >= request_cycle)
        .map(|b| b.drain_end.saturating_sub(request_cycle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{GatewayParams, StreamSpec};
    use streamgate_ilp::rat;
    use streamgate_platform::{
        AcceleratorTile, CFifo, GatewayPair, PassthroughKernel, StreamConfig, System,
    };

    /// Two passthrough streams over one shared accelerator, kept saturated.
    fn harness(etas: [usize; 2], reconfig: u64, epsilon: u64) -> (System, SharingProblem) {
        let mut sys = System::new(4);
        sys.enable_tracing(0);
        let i0 = sys.add_fifo(CFifo::new("i0", 4096));
        let o0 = sys.add_fifo(CFifo::new("o0", 1 << 20));
        let i1 = sys.add_fifo(CFifo::new("i1", 4096));
        let o1 = sys.add_fifo(CFifo::new("o1", 1 << 20));
        let acc = sys.add_accel(AcceleratorTile::new("acc", 1, 0, 10, 2, 11, 2, 1));
        let mut gw = GatewayPair::new("gw", 0, 2, vec![acc], 1, 10, 1, 11, 2, epsilon, 1);
        gw.add_stream(StreamConfig::new(
            "s0",
            i0,
            o0,
            etas[0],
            etas[0],
            reconfig,
            vec![Box::new(PassthroughKernel)],
        ));
        gw.add_stream(StreamConfig::new(
            "s1",
            i1,
            o1,
            etas[1],
            etas[1],
            reconfig,
            vec![Box::new(PassthroughKernel)],
        ));
        sys.add_gateway(gw);
        for k in 0..4096 {
            sys.fifos[i0.0].try_push((k as f64, 0.0), 0);
            sys.fifos[i1.0].try_push((k as f64, 0.0), 0);
        }
        let prob = SharingProblem {
            params: GatewayParams {
                epsilon,
                rho_a: 1,
                delta: 1,
            },
            streams: vec![
                StreamSpec {
                    name: "s0".into(),
                    mu: rat(1, 1000),
                    reconfig,
                },
                StreamSpec {
                    name: "s1".into(),
                    mu: rat(1, 1000),
                    reconfig,
                },
            ],
        };
        (sys, prob)
    }

    #[test]
    fn tau_bound_holds_on_platform() {
        let (mut sys, prob) = harness([32, 16], 50, 5);
        sys.run(60_000);
        let v = validate_tau_bound(&prob, &[32, 16], &sys, 0, 16);
        for t in &v {
            assert!(t.blocks >= 3, "{}: only {} blocks", t.stream, t.blocks);
            assert!(
                t.ok,
                "{}: measured {} exceeds τ̂ {} (+{})",
                t.stream, t.measured_max, t.tau_hat, t.margin
            );
            // The bound must not be wildly loose either (within 2×).
            assert!(
                (t.measured_max as f64) > 0.3 * t.tau_hat as f64,
                "{}: bound is vacuous: measured {} vs {}",
                t.stream,
                t.measured_max,
                t.tau_hat
            );
        }
    }

    #[test]
    fn blame_totals_agree_with_tau_measurement() {
        let (mut sys, _) = harness([32, 16], 50, 5);
        sys.run(60_000);
        let blame = crate::attribution::collect_blame(&mut sys, "harness");
        let failures = validate_blame_totals(&blame, &sys);
        assert!(failures.is_empty(), "{}", failures.join("\n"));
        // Sanity: the check is not vacuous — corrupt a component total and
        // the components-vs-τ tiling check fires; corrupt the τ total too
        // and the blame-vs-tracer comparison fires as well.
        let mut bad = blame.clone();
        bad.streams[0].totals[0] += 1;
        let f = validate_blame_totals(&bad, &sys);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].contains("components sum"), "{f:?}");
        bad.streams[0].tau_sum += 1; // components tile again, but τ drifts
        let f = validate_blame_totals(&bad, &sys);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].contains("measured Σ τ"), "{f:?}");
    }

    #[test]
    fn round_time_within_gamma() {
        let (mut sys, prob) = harness([32, 16], 50, 5);
        sys.run(60_000);
        let etas = [32u64, 16u64];
        let gamma = prob.gamma(&etas);
        let metrics = system_metrics(&sys, 0);
        let max_round = metrics.max_round_time().unwrap();
        // Per-round margin: ring transport per block × streams.
        assert!(
            max_round <= gamma + 32,
            "round {max_round} exceeds γ {gamma}"
        );
    }

    #[test]
    fn tracer_agrees_with_gateway_log() {
        // The tracer is the only measurement path for validation; it must
        // agree exactly with the gateway's own block records.
        let (mut sys, _) = harness([32, 16], 50, 5);
        sys.run(60_000);
        let metrics = system_metrics(&sys, 0);
        let log = &sys.gateways[0].blocks;
        assert_eq!(metrics.blocks.len(), log.len());
        for (m, b) in metrics.blocks.iter().zip(log.iter()) {
            assert_eq!(m.stream, b.stream);
            assert_eq!(m.start, b.start);
            assert_eq!(m.stream_end, b.stream_end);
            assert_eq!(m.drain_end, b.drain_end);
        }
    }

    #[test]
    fn block_times_scale_with_eta() {
        let (mut sys_small, _) = harness([8, 8], 50, 5);
        let (mut sys_big, _) = harness([64, 64], 50, 5);
        sys_small.run(40_000);
        sys_big.run(40_000);
        let t_small = measure_block_times(&sys_small, 0);
        let t_big = measure_block_times(&sys_big, 0);
        let max_small = *t_small[0].iter().max().unwrap();
        let max_big = *t_big[0].iter().max().unwrap();
        assert!(
            max_big > 3 * max_small,
            "bigger blocks must take proportionally longer: {max_small} vs {max_big}"
        );
    }

    #[test]
    fn epsilon_dominates_when_largest() {
        // With ε = 10 and η = 20, per-sample pace must be ≥ ε: block time
        // at least η·ε.
        let (mut sys, _prob) = harness([20, 4], 0, 10);
        sys.run(20_000);
        let times = measure_block_times(&sys, 0);
        let min_block = *times[0].iter().min().unwrap();
        assert!(min_block >= 190, "block time {min_block} below (η−1)·ε");
    }

    #[test]
    #[should_panic(expected = "enable_tracing")]
    fn untraced_run_is_rejected() {
        let mut sys = System::new(4);
        let acc = sys.add_accel(AcceleratorTile::new("acc", 1, 0, 10, 2, 11, 2, 1));
        let i = sys.add_fifo(CFifo::new("i", 16));
        let o = sys.add_fifo(CFifo::new("o", 16));
        let mut gw = GatewayPair::new("gw", 0, 2, vec![acc], 1, 10, 1, 11, 2, 1, 1);
        gw.add_stream(StreamConfig::new(
            "s",
            i,
            o,
            4,
            4,
            0,
            vec![Box::new(PassthroughKernel)],
        ));
        sys.add_gateway(gw);
        sys.run(100);
        let _ = measure_block_times(&sys, 0);
    }
}

#[cfg(test)]
mod omega_tests {
    use crate::params::{GatewayParams, SharingProblem, StreamSpec};
    use crate::validate::system_metrics;
    use streamgate_ilp::rat;
    use streamgate_platform::{
        AcceleratorTile, CFifo, GatewayPair, PassthroughKernel, StreamConfig, System,
    };

    /// Eq. 3: a queued block of stream s waits at most ω̂_s = Σ_{i≠s} τ̂_i
    /// before being served (RR over saturated streams). Measure the gap
    /// between consecutive blocks of the same stream against γ = ω̂ + τ̂.
    #[test]
    fn round_robin_waiting_time_within_omega_hat() {
        let etas = [24usize, 12, 6];
        let reconfig = 40u64;
        let epsilon = 4u64;
        let mut sys = System::new(4);
        sys.enable_tracing(0);
        let acc = sys.add_accel(AcceleratorTile::new("acc", 1, 0, 10, 2, 11, 2, 1));
        let mut gw = GatewayPair::new("gw", 0, 2, vec![acc], 1, 10, 1, 11, 2, epsilon, 1);
        for (i, eta) in etas.iter().enumerate() {
            let inf = sys.add_fifo(CFifo::new(format!("i{i}"), 8192));
            let outf = sys.add_fifo(CFifo::new(format!("o{i}"), 1 << 20));
            gw.add_stream(StreamConfig::new(
                format!("s{i}"),
                inf,
                outf,
                *eta,
                *eta,
                reconfig,
                vec![Box::new(PassthroughKernel)],
            ));
            for k in 0..8192 {
                sys.fifos[inf.0].try_push((k as f64, 0.0), 0);
            }
        }
        sys.add_gateway(gw);
        sys.run(80_000);

        let prob = SharingProblem {
            params: GatewayParams {
                epsilon,
                rho_a: 1,
                delta: 1,
            },
            streams: (0..3)
                .map(|i| StreamSpec {
                    name: format!("s{i}"),
                    mu: rat(1, 1_000_000),
                    reconfig,
                })
                .collect(),
        };
        let etas_u: Vec<u64> = etas.iter().map(|&e| e as u64).collect();
        let gamma = prob.gamma(&etas_u);

        // Start-to-start distance between consecutive blocks of one stream
        // is bounded by γ (Eq. 4 = one full round) plus the ring margin.
        let metrics = system_metrics(&sys, 0);
        for s in 0..3 {
            let starts: Vec<u64> = metrics
                .blocks
                .iter()
                .filter(|b| b.stream == s)
                .map(|b| b.start)
                .collect();
            assert!(starts.len() >= 3, "stream {s} starved");
            for w in starts.windows(2) {
                assert!(
                    w[1] - w[0] <= gamma + 24,
                    "stream {s}: round {} exceeds γ {}",
                    w[1] - w[0],
                    gamma
                );
            }
        }
    }
}
