//! Property-based tests for the exact rational arithmetic and the LP/ILP
//! solvers.
//!
//! The key invariants:
//! * rational field axioms hold on random small values;
//! * every `Optimal` LP solution is feasible for the original problem;
//! * the LP optimum is at least as good as any randomly sampled feasible
//!   point (local optimality probe);
//! * the ILP optimum is bounded by the LP relaxation on one side and by any
//!   sampled integral feasible point on the other.

use proptest::prelude::*;
use streamgate_ilp::{
    rat, solve_ilp, solve_lp, IlpOptions, IlpStatus, LinExpr, LpStatus, Problem, Rational, Sense,
};

fn small_rat() -> impl Strategy<Value = Rational> {
    (-50i128..=50, 1i128..=12).prop_map(|(n, d)| rat(n, d))
}

proptest! {
    #[test]
    fn rational_add_commutes(a in small_rat(), b in small_rat()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn rational_mul_commutes(a in small_rat(), b in small_rat()) {
        prop_assert_eq!(a * b, b * a);
    }

    #[test]
    fn rational_distributive(a in small_rat(), b in small_rat(), c in small_rat()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn rational_sub_add_roundtrip(a in small_rat(), b in small_rat()) {
        prop_assert_eq!((a - b) + b, a);
    }

    #[test]
    fn rational_recip_involution(a in small_rat()) {
        prop_assume!(!a.is_zero());
        prop_assert_eq!(a.recip().recip(), a);
        prop_assert_eq!(a * a.recip(), Rational::ONE);
    }

    #[test]
    fn rational_floor_ceil_bracket(a in small_rat()) {
        let f = Rational::from_int(a.floor());
        let c = Rational::from_int(a.ceil());
        prop_assert!(f <= a && a <= c);
        prop_assert!(c - f <= Rational::ONE);
    }

    #[test]
    fn rational_ordering_total(a in small_rat(), b in small_rat()) {
        // exactly one of <, ==, > holds
        let lt = a < b;
        let eq = a == b;
        let gt = a > b;
        prop_assert_eq!(1, lt as u8 + eq as u8 + gt as u8);
    }
}

/// Generate a random small minimisation LP:
///   min c·x  s.t.  A x >= b,  0 <= x <= 100.
/// Positive costs and `>=` rows keep the problem bounded.
fn random_min_problem() -> impl Strategy<Value = (Problem, Vec<Vec<i128>>, Vec<i128>)> {
    (1usize..=3, 1usize..=4).prop_flat_map(|(nvars, nrows)| {
        let coeffs = proptest::collection::vec(proptest::collection::vec(0i128..=5, nvars), nrows);
        let rhs = proptest::collection::vec(0i128..=20, nrows);
        let costs = proptest::collection::vec(1i128..=9, nvars);
        (coeffs, rhs, costs).prop_map(move |(a, b, c)| {
            let mut p = Problem::new();
            let vars: Vec<_> = (0..nvars)
                .map(|i| {
                    p.add_var_with(
                        format!("x{i}"),
                        streamgate_ilp::VarKind::Continuous,
                        Rational::ZERO,
                        Some(rat(100, 1)),
                    )
                })
                .collect();
            for (row, rhs) in a.iter().zip(&b) {
                let mut e = LinExpr::zero();
                for (v, &coef) in vars.iter().zip(row) {
                    e.add_term(*v, rat(coef, 1));
                }
                p.ge(e, rat(*rhs, 1));
            }
            let mut obj = LinExpr::zero();
            for (v, &coef) in vars.iter().zip(&c) {
                obj.add_term(*v, rat(coef, 1));
            }
            p.set_objective(Sense::Minimize, obj);
            (p, a, b)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lp_optimal_is_feasible((p, _a, _b) in random_min_problem()) {
        let s = solve_lp(&p);
        if s.status == LpStatus::Optimal {
            prop_assert!(p.check_feasible(&s.values).is_none(),
                "solver returned infeasible optimum: {:?}", p.check_feasible(&s.values));
        }
    }

    #[test]
    fn lp_beats_random_feasible_points((p, a, b) in random_min_problem(), probe in proptest::collection::vec(0i128..=100, 3)) {
        let s = solve_lp(&p);
        prop_assume!(s.status == LpStatus::Optimal);
        // Construct a candidate point and check it against raw rows; if
        // feasible, the LP optimum must be <= its objective.
        let n = p.num_vars();
        let candidate: Vec<Rational> = (0..n).map(|i| rat(probe[i % probe.len()], 1)).collect();
        let feas = a.iter().zip(&b).all(|(row, rhs)| {
            let lhs: i128 = row.iter().zip(&candidate).map(|(c, v)| c * v.numer() / v.denom()).sum();
            lhs >= *rhs
        });
        if feas && p.check_feasible(&candidate).is_none() {
            let mut cand_obj = Rational::ZERO;
            for (v, c) in &p.objective_terms() {
                cand_obj += *c * candidate[v.index()];
            }
            prop_assert!(s.objective <= cand_obj);
        }
    }

    #[test]
    fn ilp_bracketed_by_lp_and_feasible_points((mut p, _a, _b) in random_min_problem()) {
        // Make all variables integral.
        p.make_all_integer();
        let lp = solve_lp(&p);
        prop_assume!(lp.status == LpStatus::Optimal);
        let ilp = solve_ilp(&p, IlpOptions::default());
        prop_assert_eq!(&ilp.status, &IlpStatus::Optimal);
        // LP relaxation is a lower bound for minimisation.
        prop_assert!(lp.objective <= ilp.objective);
        // The ILP solution must be integral and feasible.
        prop_assert!(p.check_feasible(&ilp.values).is_none());
    }
}

/// Algorithm 1's one-stream block-size ILP at chain utilisation
/// c0·μ = 1 − 2⁻²⁰ (c0 = 15, R = 200): minimise η subject to
/// η − c0·μ·(η + 2) ≥ μ·R, η ≥ 1. Its optimum, 16 078 150, is far above
/// any finite cost an artificial column could be given, so phase 2 must
/// keep artificial columns out of the basis or it stops at an infeasible
/// point (η = 1).
#[test]
fn optimum_far_above_the_costs_is_feasible() {
    let util = rat((1 << 20) - 1, 1 << 20);
    let mu = util * rat(1, 15);
    let mut p = Problem::new();
    let eta = p.add_int_var("eta");
    let mut e = LinExpr::var(eta);
    e.add_term(eta, -util);
    let e = e + LinExpr::constant(-(util * rat(2, 1)));
    p.ge(e, mu * rat(200, 1));
    p.ge(LinExpr::var(eta), Rational::ONE);
    p.set_objective(Sense::Minimize, LinExpr::var(eta));

    let lp = solve_lp(&p);
    assert_eq!(lp.status, LpStatus::Optimal);
    assert!(p.check_feasible(&lp.values).is_none(), "{:?}", lp.values);
    assert_eq!(lp.values[eta.index()], rat(16_078_150, 1));

    let ilp = solve_ilp(&p, IlpOptions::default());
    assert_eq!(ilp.status, IlpStatus::Optimal);
    assert_eq!(ilp.values[eta.index()], rat(16_078_150, 1));
}
