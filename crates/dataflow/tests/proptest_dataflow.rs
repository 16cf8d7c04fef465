//! Property-based tests for the dataflow analyses.
//!
//! Invariants checked on randomly generated graphs:
//!
//! * the repetition vector satisfies every balance equation;
//! * simulated firings of one actor never overlap (implicit self-edge);
//! * production timestamps are non-decreasing per edge;
//! * **monotonicity** (Wiggers et al.): adding initial tokens never makes any
//!   token arrive later — the foundation of the-earlier-the-better
//!   refinement the paper builds on;
//! * MCM equals the simulated steady-state period on strongly-connected
//!   graphs;
//! * buffer feasibility is monotone in capacity;
//! * the one-cycle-test buffer feasibility agrees with the exact period
//!   under the same capacities, at the boundary and through deadlock, on
//!   multirate cycles and on Fig. 7-shaped gateway chains.

use proptest::prelude::*;
use streamgate_dataflow::{
    mcm_period, refines, repetition_vector, simulate, simulate_with, ArrivalTrace, CsdfGraph,
    SimOptions,
};

/// A random two-actor cycle: A -p-> B, B -c-> A with d tokens.
fn two_actor_cycle() -> impl Strategy<Value = (CsdfGraph, u64)> {
    (1u64..=4, 1u64..=4, 1u64..=6, 1u64..=9, 1u64..=9).prop_map(|(p, c, d0, da, db)| {
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", da);
        let b = g.add_sdf_actor("B", db);
        g.add_sdf_edge("ab", a, p, b, c, 0);
        g.add_sdf_edge("ba", b, c, a, p, d0 * p * c); // enough tokens to run
        (g, d0 * p * c)
    })
}

/// A random source -> chain -> sink SDF graph with unit rates and a
/// back-pressure edge bounding the source.
fn random_chain() -> impl Strategy<Value = CsdfGraph> {
    (2usize..=5, proptest::collection::vec(1u64..=9, 5), 2u64..=6).prop_map(|(n, durs, cap)| {
        let mut g = CsdfGraph::new();
        let actors: Vec<_> = (0..n)
            .map(|i| g.add_sdf_actor(format!("a{i}"), durs[i % durs.len()]))
            .collect();
        for i in 0..n - 1 {
            g.add_sdf_edge(format!("e{i}"), actors[i], 1, actors[i + 1], 1, 0);
        }
        // Bound the whole chain so traces stay finite-memory.
        g.add_sdf_edge("bp", actors[n - 1], 1, actors[0], 1, cap);
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn repetition_satisfies_balance((g, _) in two_actor_cycle()) {
        let r = repetition_vector(&g).unwrap();
        for e in g.edge_ids() {
            let edge = g.edge(e);
            let lhs = r.cycles_of(edge.src) * edge.production_per_cycle();
            let rhs = r.cycles_of(edge.dst) * edge.consumption_per_cycle();
            prop_assert_eq!(lhs, rhs, "balance violated on {}", &edge.name);
        }
    }

    #[test]
    fn firings_never_overlap(g in random_chain()) {
        let t = simulate(&g, 10).unwrap();
        prop_assert!(!t.deadlocked);
        for a in g.actor_ids() {
            let f = &t.firings[a.index()];
            for w in f.windows(2) {
                prop_assert!(w[0].end <= w[1].start,
                    "firings of {} overlap: {:?}", g.actor(a).name, w);
            }
        }
    }

    #[test]
    fn token_times_monotone(g in random_chain()) {
        let r = repetition_vector(&g).unwrap();
        let targets: Vec<u64> = g.actor_ids().map(|a| 8 * r.firings_of(&g, a)).collect();
        let t = simulate_with(&g, &SimOptions {
            targets,
            max_total_firings: 100_000,
            record_tokens: true,
        });
        for e in g.edge_ids() {
            let times = &t.token_times[e.index()];
            for w in times.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn more_initial_tokens_is_a_refinement(g in random_chain(), extra in 1u64..=3) {
        // Trace the sink's input edge with and without extra initial tokens
        // on the back-pressure edge; the roomier graph must refine (arrive no
        // later than… actually *at most as late as*) nothing — direction:
        // the roomier graph's arrivals are <= the tighter graph's, i.e. the
        // roomier graph refines the tighter one.
        let r = repetition_vector(&g).unwrap();
        let targets: Vec<u64> = g.actor_ids().map(|a| 6 * r.firings_of(&g, a)).collect();
        let opts = SimOptions { targets, max_total_firings: 100_000, record_tokens: true };

        let tight = simulate_with(&g, &opts);

        let mut g2 = g.clone();
        let bp = g2.edge_by_name("bp").unwrap();
        g2.edge_mut(bp).initial_tokens += extra;
        let roomy = simulate_with(&g2, &opts);

        for e in g.edge_ids() {
            if g.edge(e).name == "bp" { continue; }
            let n = tight.token_times[e.index()].len().min(roomy.token_times[e.index()].len());
            let r_tr = ArrivalTrace::new(roomy.token_times[e.index()][..n].to_vec());
            let t_tr = ArrivalTrace::new(tight.token_times[e.index()][..n].to_vec());
            prop_assert!(refines(&r_tr, &t_tr),
                "monotonicity violated on edge {}", g.edge(e).name);
        }
    }

    #[test]
    fn mcm_matches_simulation_on_cycles((g, _) in two_actor_cycle()) {
        let mcm = match mcm_period(&g) {
            Ok(Some(m)) => m,
            _ => return Ok(()),
        };
        // Initial tokens can make the transient long (the surplus drains at
        // the small rate difference between producer and consumer); simulate
        // far past it and measure only the tail.
        let t = simulate(&g, 1500).unwrap();
        prop_assume!(!t.deadlocked);
        let r = repetition_vector(&g).unwrap();
        let a0 = g.actor_ids().next().unwrap();
        let f0 = r.firings_of(&g, a0) as usize;
        // Multirate firings are bursty within an iteration; sample start
        // times at iteration boundaries (every f0-th firing) so the measured
        // per-iteration period is exact.
        let starts = &t.firings[a0.index()];
        let iters = starts.len() / f0;
        prop_assume!(iters >= 16);
        let k1 = iters * 9 / 10;
        let k2 = iters - 1;
        let dt = starts[k2 * f0].start - starts[k1 * f0].start;
        let per_iter = streamgate_ilp::rat(dt as i128, (k2 - k1) as i128);
        prop_assert_eq!(per_iter, mcm);
    }

    #[test]
    fn buffer_feasibility_monotone(g in random_chain(), cap in 1u64..=6) {
        use streamgate_dataflow::buffer::{feasible, BufferProblem};
        use streamgate_ilp::Rational;
        // Constrain the sink to its unbounded-period target; check caps c and c+1.
        let sink = g.actor_ids().last().unwrap();
        let first_edge = g.edge_ids().next().unwrap();
        let target = match streamgate_dataflow::buffer::unbounded_period(&g, sink) {
            Ok(Some(t)) => t * Rational::new(3, 2), // slightly relaxed target
            _ => return Ok(()),
        };
        let p = BufferProblem {
            graph: g,
            channels: vec![first_edge],
            reference: sink,
            target_period: target,
        };
        let f1 = feasible(&p, &[cap]).unwrap();
        let f2 = feasible(&p, &[cap + 1]).unwrap();
        prop_assert!(!f1 || f2, "feasible at {cap} but not at {}", cap + 1);
    }

    #[test]
    fn feasible_matches_exact_period((g, _) in two_actor_cycle(), cap in 0u64..=12) {
        use streamgate_dataflow::buffer::{feasible, period_with_capacities, BufferProblem};
        use streamgate_ilp::Rational;
        // Bound the multirate channel A -> B: below p + c - gcd(p, c)
        // locations it deadlocks, above that the period falls with room.
        let ab = g.edge_by_name("ab").unwrap();
        let b = g.edge(ab).dst;
        let mut p = BufferProblem {
            graph: g,
            channels: vec![ab],
            reference: b,
            target_period: Rational::ZERO,
        };
        let exact = period_with_capacities(&p, &[cap]).unwrap();
        let targets = match exact {
            // Exactly at the period (the cycle ratio equals λ: feasible),
            // just below it and just above it.
            Some(per) => vec![per, per - Rational::new(1, 1000), per + Rational::new(1, 1000)],
            None => vec![Rational::ONE, Rational::from_int(1_000_000)],
        };
        for target in targets {
            p.target_period = target;
            let want = exact.is_some_and(|per| per <= target);
            prop_assert_eq!(
                feasible(&p, &[cap]).unwrap(),
                want,
                "cap {} target {} exact period {:?}", cap, target, exact
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The abstraction rule A2 sizes (Fig. 7): producer `vP` (ρ_p) → a
    /// gateway actor `vS` (γ̂) consuming and producing blocks of η →
    /// consumer `vC` (ρ_c), both channels bounded, with capacities from
    /// below a block (deadlock) to three blocks. Feasibility must equal the
    /// exact period against the target 1/μ, at the period itself and just
    /// either side of it.
    #[test]
    fn feasible_matches_exact_period_on_fig7_chains(
        (eta, gamma_hat, rho_p, rho_c) in (1u64..=64, 1u64..=2_000, 1u64..=64, 1u64..=8),
        (c0, c3) in (0u64..=192, 0u64..=192),
        (mu_num, mu_den) in (1i128..=4, 1i128..=4_000),
    ) {
        use streamgate_dataflow::buffer::{feasible, period_with_capacities, BufferProblem};
        use streamgate_ilp::Rational;
        let mut g = CsdfGraph::new();
        let v_p = g.add_sdf_actor("vP", rho_p);
        let v_s = g.add_sdf_actor("vS", gamma_hat);
        let v_c = g.add_sdf_actor("vC", rho_c);
        let b = g.add_sdf_edge("b", v_p, 1, v_s, eta, 0);
        let d = g.add_sdf_edge("d", v_s, eta, v_c, 1, 0);
        let caps = [c0 % (3 * eta + 1), c3 % (3 * eta + 1)];
        let mut p = BufferProblem {
            graph: g,
            channels: vec![b, d],
            reference: v_c,
            target_period: Rational::ZERO,
        };
        let exact = period_with_capacities(&p, &caps).unwrap();
        let mut targets = vec![Rational::new(mu_den, mu_num)];
        if let Some(per) = exact {
            targets.extend([per, per - Rational::new(1, 1000), per + Rational::new(1, 1000)]);
        }
        for target in targets {
            p.target_period = target;
            let want = exact.is_some_and(|per| per <= target);
            prop_assert_eq!(
                feasible(&p, &caps).unwrap(),
                want,
                "caps {:?} target {} exact period {:?}", caps, target, exact
            );
        }
    }
}
