//! Oracle test for the Fig. 5 evaluation rule A1 runs: over random model
//! parameters, `run_fig5` must report what the generic self-timed
//! simulation of `fig5_csdf` reports for two blocks: the deadlock flag,
//! the consumer firings and the end time. Where the generic run is stopped
//! by its firing cap instead, the evaluation must complete both blocks.

use proptest::prelude::*;
use streamgate_core::{fig5_csdf, run_fig5, Fig5Params};
use streamgate_dataflow::simulate;

/// A duration that is zero in about one case in four.
fn duration(max: u64) -> impl Strategy<Value = u64> {
    (0u64..4, 0..=max).prop_map(|(z, v)| if z == 0 { 0 } else { v })
}

/// Random Fig. 5 parameters: η up to 700, NI depth 0–4 (0 deadlocks),
/// buffers from one block to five, Ω up to 2·10⁵.
fn params() -> impl Strategy<Value = Fig5Params> {
    (
        (1usize..=700, duration(20), duration(4), duration(4)),
        (
            duration(5_000),
            duration(200_000),
            duration(60),
            duration(20),
        ),
        (0u64..=4, 0u64..=4 * 700, 0u64..=4 * 700),
    )
        .prop_map(
            |((eta, epsilon, rho_a, delta), (reconfig, omega, rho_p, rho_c), (ni, a0, a3))| {
                let eta64 = eta as u64;
                Fig5Params {
                    eta,
                    epsilon,
                    rho_a,
                    delta,
                    reconfig,
                    omega,
                    rho_p,
                    rho_c,
                    alpha0: eta64 + a0 % (4 * eta64 + 1),
                    alpha3: eta64 + a3 % (4 * eta64 + 1),
                    ni_depth: ni,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn run_fig5_matches_generic_simulation(p in params()) {
        let m = fig5_csdf(&p);
        let trace = simulate(&m.graph, 2).expect("consistent Fig. 5 model");
        let run = run_fig5(&p, 2);
        let eta = p.eta as u64;
        // `simulate`'s cap for two iterations: Σ targets + 1000, at least
        // 10 000. Fewer recorded firings than the cap means it never bit.
        let cap = (10 * eta + 1_000).max(10_000);
        let recorded: u64 = trace.firings.iter().map(|f| f.len() as u64).sum();
        if recorded < cap {
            prop_assert_eq!(run.deadlocked, trace.deadlocked);
            prop_assert_eq!(run.consumer_firings, trace.firing_count(m.v_c) as u64);
            prop_assert_eq!(run.end_time, trace.end_time);
        } else {
            prop_assert!(!run.deadlocked, "{:?}", p);
            prop_assert!(
                (2 * eta..=2 * eta + 1).contains(&run.consumer_firings),
                "{:?}: {} consumer firings",
                p,
                run.consumer_firings
            );
        }
    }
}
