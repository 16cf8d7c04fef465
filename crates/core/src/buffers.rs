//! Minimum buffer capacities for gateway streams, and the non-monotone
//! block-size/buffer relation of Fig. 8.
//!
//! After Algorithm 1 fixes the block sizes, "a standard algorithm for the
//! computation of the minimum buffer capacities \[20\] can be used" (§V-F).
//! We size α₀ (producer → gateway) and α₃ (gateway → consumer) of the
//! Fig. 7 abstraction with the exact MCM-based search of
//! `streamgate-dataflow::buffer`.
//!
//! The paper's key observation (§V-E): minimum capacities are **not**
//! monotone in the block size. The mechanism is visible in the abstraction:
//! a block needs at least `η` locations, so α grows with η; but a *small* η
//! barely meets the throughput constraint (reconfiguration `R_s` is
//! amortised over few samples), forcing double-buffering (α ≈ 2η), while a
//! *larger* η has slack and gets away with α ≈ η — so α can drop when η
//! grows. [`fig8_example`] exhibits exactly the crossover pattern of
//! Fig. 8b.

use crate::abstraction::sdf_abstraction;
use crate::params::SharingProblem;
use streamgate_dataflow::buffer::{min_buffers_for_period, BufferProblem};
use streamgate_ilp::Rational;

/// Sized buffers for one stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamBuffers {
    /// Input buffer capacity α₀ (samples).
    pub alpha0: u64,
    /// Output buffer capacity α₃ (samples).
    pub alpha3: u64,
}

impl StreamBuffers {
    /// Total locations.
    pub fn total(&self) -> u64 {
        self.alpha0 + self.alpha3
    }
}

/// Minimum α₀/α₃ for stream `stream` such that the consumer can fire with
/// period `1/μ_s` — i.e. the throughput constraint is met end to end.
///
/// `rho_p`/`rho_c` are the producer/consumer firing durations; usually
/// `rho_p = ⌊1/μ_s⌋` (a rate-matched source) and `rho_c ≤ ⌊1/μ_s⌋`.
/// Returns `None` if no capacities up to `cap_limit` suffice (the block
/// sizes don't satisfy Eq. 5).
pub fn minimum_stream_buffers(
    prob: &SharingProblem,
    stream: usize,
    etas: &[u64],
    rho_p: u64,
    rho_c: u64,
    cap_limit: u64,
) -> Option<StreamBuffers> {
    let eta = etas[stream];
    // Build the abstraction with oversized buffers, then strip the space
    // edges: the BufferProblem adds its own capacity back-edges.
    let a = sdf_abstraction(prob, stream, etas, rho_p, rho_c, 4 * eta, 4 * eta);
    let mut g = streamgate_dataflow::CsdfGraph::new();
    let v_p = g.add_sdf_actor("vP", rho_p);
    let v_s = g.add_sdf_actor("vS", a.gamma_hat);
    let v_c = g.add_sdf_actor("vC", rho_c);
    let e_in = g.add_sdf_edge("b", v_p, 1, v_s, eta, 0);
    let e_out = g.add_sdf_edge("d", v_s, eta, v_c, 1, 0);

    let target = prob.streams[stream].mu.recip();
    let p = BufferProblem {
        graph: g,
        channels: vec![e_in, e_out],
        reference: v_c,
        target_period: target,
    };
    let r = min_buffers_for_period(&p, cap_limit).ok()??;
    Some(StreamBuffers {
        alpha0: r.capacities[0],
        alpha3: r.capacities[1],
    })
}

/// The Fig. 8 experiment: sweep the block size of a single gateway stream
/// and report the minimum α₃ per η. Returns `(η, Option<α₃>)` pairs
/// (`None` = that block size cannot meet the throughput at all).
///
/// Defaults chosen so the sweep shows the paper's non-monotone crossover: a
/// stream with μ = 1/8 samples/cycle, c0 = 5 (as in Fig. 8a's ρ = 5) and
/// R_s = 6.
pub fn fig8_example(eta_range: std::ops::RangeInclusive<u64>) -> Vec<(u64, Option<u64>)> {
    use crate::params::{GatewayParams, StreamSpec};
    let prob = SharingProblem {
        params: GatewayParams {
            epsilon: 5,
            rho_a: 5,
            delta: 1,
        },
        streams: vec![StreamSpec {
            name: "s".into(),
            mu: Rational::new(1, 8),
            reconfig: 6,
        }],
    };
    eta_range
        .map(|eta| {
            let b = minimum_stream_buffers(&prob, 0, &[eta], 8, 1, 1024);
            (eta, b.map(|bb| bb.alpha3))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{GatewayParams, StreamSpec};
    use streamgate_ilp::rat;

    fn one_stream(mu: Rational, c0: u64, reconfig: u64) -> SharingProblem {
        SharingProblem {
            params: GatewayParams {
                epsilon: c0,
                rho_a: 1,
                delta: 1,
            },
            streams: vec![StreamSpec {
                name: "s".into(),
                mu,
                reconfig,
            }],
        }
    }

    #[test]
    fn buffers_hold_at_least_a_block() {
        let prob = one_stream(rat(1, 50), 10, 100);
        let etas = [8u64];
        let b = minimum_stream_buffers(&prob, 0, &etas, 50, 1, 512).unwrap();
        assert!(b.alpha0 >= 8 && b.alpha3 >= 8, "{b:?}");
    }

    #[test]
    fn infeasible_block_size_returns_none() {
        // η = 1 with heavy reconfiguration cannot meet μ.
        let prob = one_stream(rat(1, 50), 10, 1000);
        assert!(!prob.satisfies_throughput(&[1]));
        assert_eq!(minimum_stream_buffers(&prob, 0, &[1], 50, 1, 256), None);
    }

    #[test]
    fn tight_eta_needs_double_buffering() {
        // Find the minimal feasible η; its buffers should exceed the
        // buffers of a comfortably larger η by a visible margin per sample.
        let prob = one_stream(rat(1, 20), 10, 60);
        let r = crate::blocksize::solve_blocksizes_checked(&prob).unwrap();
        let eta_min = r.etas[0];
        let tight = minimum_stream_buffers(&prob, 0, &[eta_min], 20, 1, 2048).unwrap();
        let slack = minimum_stream_buffers(&prob, 0, &[4 * eta_min], 20, 1, 2048).unwrap();
        // Per-sample buffering is cheaper with slack.
        let tight_ratio = tight.alpha3 as f64 / eta_min as f64;
        let slack_ratio = slack.alpha3 as f64 / (4 * eta_min) as f64;
        assert!(
            tight_ratio > slack_ratio,
            "tight {tight_ratio} vs slack {slack_ratio}"
        );
    }

    #[test]
    fn fig8_nonmonotone_crossover() {
        // The headline claim of §V-E: there exist η1 < η2 with
        // α(η1) > α(η2) — smaller blocks needing MORE buffer.
        let sweep = fig8_example(1..=12);
        let feasible: Vec<(u64, u64)> = sweep
            .iter()
            .filter_map(|(e, a)| a.map(|a| (*e, a)))
            .collect();
        assert!(feasible.len() >= 4, "sweep too thin: {sweep:?}");
        let nonmono = feasible.windows(2).any(|w| w[0].1 > w[1].1);
        assert!(nonmono, "expected a non-monotone step in {feasible:?}");
        // And capacity is bounded below by η everywhere.
        for (eta, a) in &feasible {
            assert!(a >= eta);
        }
    }

    #[test]
    fn nonmonotonicity_robust_across_regimes() {
        // The Fig. 8 crossover is not a knife-edge artefact of one
        // parameter pick: it appears across different (μ, c0, R)
        // combinations whenever the throughput constraint transitions from
        // tight to slack as η grows.
        let regimes: [(Rational, u64, u64, u64); 3] = [
            (rat(1, 8), 5, 6, 8),
            (rat(1, 12), 8, 20, 12),
            (rat(1, 20), 14, 40, 20),
        ];
        for (mu, c0, reconfig, rho_p) in regimes {
            let prob = one_stream(mu, c0, reconfig);
            let sweep: Vec<(u64, u64)> = (1..=24)
                .filter_map(|eta| {
                    minimum_stream_buffers(&prob, 0, &[eta], rho_p, 1, 2048)
                        .map(|b| (eta, b.alpha3))
                })
                .collect();
            assert!(sweep.len() >= 4, "regime μ={mu}: sweep too thin: {sweep:?}");
            assert!(
                sweep.windows(2).any(|w| w[0].1 > w[1].1),
                "regime μ={mu}, c0={c0}, R={reconfig}: no crossover in {sweep:?}"
            );
        }
    }
}
