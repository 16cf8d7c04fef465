//! Minimum block-size computation — the paper's Algorithm 1.
//!
//! Substituting `γ_s` (Eq. 4) into the throughput requirement (Eq. 5) gives,
//! for every stream `s ∈ S`,
//!
//! ```text
//!   η_s − c0 · μ_s · Σ_{i∈S} (η_i + 2)  ≥  μ_s · c1        (Eq. 6)
//!   η_s ≥ 1, integral                                     (Eq. 7)
//! ```
//!
//! minimising `Σ η_s`. Two independent solvers are provided:
//!
//! * [`solve_blocksizes_ilp`] — the literal ILP, handed to the exact
//!   branch-and-bound solver of `streamgate-ilp`;
//! * [`solve_blocksizes_fixpoint`] — the least fixpoint of the monotone
//!   operator `F(η)_s = max(1, ⌈μ_s (c0 Σ(η_i + 2) + c1)⌉)`, which is the
//!   componentwise-minimal feasible vector and therefore also the
//!   Σ-minimal one, by Kleene iteration from the ceiling-free relaxation
//!   (two rounds for one stream, whose minimum has a closed form).
//!
//! The analyzer runs the fixpoint. Agreement of the two is asserted in
//! tests and in experiment E5 ([`solve_blocksizes_checked`]).

use crate::params::SharingProblem;
use streamgate_ilp::{solve_ilp, IlpOptions, IlpStatus, LinExpr, Problem, Rational, Sense};

/// Result of a block-size computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockSizes {
    /// Minimum block size per stream (aligned with the problem's streams).
    pub etas: Vec<u64>,
    /// The resulting round time γ (same for every stream), cycles.
    pub gamma: u64,
}

/// Errors from block-size computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockSizeError {
    /// No block sizes can satisfy the throughput constraints
    /// (`c0 · Σ μ_s ≥ 1`).
    Infeasible,
    /// A solver gave up: the ILP's node limit, or the fixpoint's round
    /// limit within about 2⁻¹⁶ of saturation.
    SolverLimit,
    /// The exact `i128` arithmetic would overflow.
    Overflow,
}

impl std::fmt::Display for BlockSizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockSizeError::Infeasible => {
                write!(f, "throughput constraints infeasible: c0 · Σ μ_s ≥ 1")
            }
            BlockSizeError::SolverLimit => write!(f, "solver iteration limit exhausted"),
            BlockSizeError::Overflow => write!(f, "exact arithmetic overflows i128"),
        }
    }
}

impl std::error::Error for BlockSizeError {}

/// Solve Algorithm 1 with the exact ILP solver.
pub fn solve_blocksizes_ilp(prob: &SharingProblem) -> Result<BlockSizes, BlockSizeError> {
    if !prob.is_feasible() {
        return Err(BlockSizeError::Infeasible);
    }
    let n = prob.streams.len();
    let c0 = Rational::from_int(prob.params.c0() as i128);
    let c1 = Rational::from_int(prob.c1() as i128);

    let mut p = Problem::new();
    let vars: Vec<_> = (0..n)
        .map(|i| p.add_int_var(prob.streams[i].name.clone()))
        .collect();

    for (s, var) in vars.iter().enumerate() {
        let mu = prob.streams[s].mu;
        // η_s − c0·μ_s·Σ_i (η_i + 2) ≥ μ_s·c1
        let mut e = LinExpr::var(*var);
        let coef = c0 * mu;
        for v in &vars {
            e.add_term(*v, -coef);
        }
        // Σ(η_i + 2) contributes the constant −c0·μ·2n on the left.
        let two_n = Rational::from_int(2 * n as i128);
        e = e + LinExpr::constant(-(coef * two_n));
        p.add_constraint(
            streamgate_ilp::Constraint::new(e, streamgate_ilp::Cmp::Ge, mu * c1)
                .named(format!("throughput[{}]", prob.streams[s].name)),
        );
        // η_s ≥ 1 (Eq. 7).
        p.ge(LinExpr::var(*var), Rational::ONE);
    }
    let mut obj = LinExpr::zero();
    for v in &vars {
        obj.add_term(*v, Rational::ONE);
    }
    p.set_objective(Sense::Minimize, obj);

    let sol = solve_ilp(&p, IlpOptions::default());
    match sol.status {
        IlpStatus::Optimal => {
            let etas: Vec<u64> = sol
                .values
                .iter()
                .map(|v| v.as_integer().expect("integral solution") as u64)
                .collect();
            let gamma = prob.gamma(&etas);
            Ok(BlockSizes { etas, gamma })
        }
        IlpStatus::Infeasible => Err(BlockSizeError::Infeasible),
        IlpStatus::NodeLimit => Err(BlockSizeError::SolverLimit),
        IlpStatus::Unbounded => unreachable!("minimisation with lower bounds"),
    }
}

/// Rounds after which [`solve_blocksizes_fixpoint`] gives up. Each round
/// costs one integer pass over the streams, so the cap bounds the solve to
/// a few milliseconds; several streams reach it only within about 2⁻¹⁶ of
/// saturation.
const FIXPOINT_ROUND_LIMIT: u32 = 1 << 16;

/// Solve Algorithm 1 by least-fixpoint iteration, in exact `i128`
/// arithmetic. This is the solver the analyzer runs; [`solve_blocksizes_ilp`]
/// is its cross-check.
///
/// With `Σ = Σ_i η_i`, the operator is `F(η)_s = max(1, ⌈μ_s(c0(Σ + 2n) +
/// c1)⌉)`, so its least fixpoint is the least fixpoint `Σ*` of the scalar
/// map `G(Σ) = Σ_s F_s(Σ)`. The iteration starts from the fixpoint of the
/// ceiling-free relaxation, `Σ_lo = (2n·U + c1·Σμ)/(1 − U)` with
/// `U = c0·Σμ`, which no fixpoint undercuts. One stream then needs two
/// rounds: its minimum is the closed form `max(1, ⌈μ(2c0 + c1)/(1 − c0μ)⌉)
/// = max(1, ⌈Σ_lo⌉)`. Several streams give up with
/// [`BlockSizeError::SolverLimit`] after 2¹⁶ rounds. Overflow is
/// [`BlockSizeError::Overflow`], never a panic.
pub fn solve_blocksizes_fixpoint(prob: &SharingProblem) -> Result<BlockSizes, BlockSizeError> {
    let util = prob.checked_utilisation().ok_or(BlockSizeError::Overflow)?;
    if util >= Rational::ONE {
        return Err(BlockSizeError::Infeasible);
    }
    let etas = least_fixpoint(prob, util)?
        .into_iter()
        .map(|eta| u64::try_from(eta).ok())
        .collect::<Option<Vec<u64>>>()
        .ok_or(BlockSizeError::Overflow)?;
    let c0 = prob.params.c0();
    let gamma = prob
        .streams
        .iter()
        .zip(&etas)
        .try_fold(0u64, |acc, (s, &eta)| {
            let tau = eta
                .checked_add(2)?
                .checked_mul(c0)?
                .checked_add(s.reconfig)?;
            acc.checked_add(tau)
        })
        .ok_or(BlockSizeError::Overflow)?;
    Ok(BlockSizes { etas, gamma })
}

/// The least fixpoint of Algorithm 1's operator for a feasible problem of
/// utilisation `util < 1` (see [`solve_blocksizes_fixpoint`]).
fn least_fixpoint(prob: &SharingProblem, util: Rational) -> Result<Vec<i128>, BlockSizeError> {
    let n = prob.streams.len() as i128;
    let c0 = prob.params.c0() as i128;
    let c1: i128 = prob.streams.iter().map(|s| s.reconfig as i128).sum();
    // F_s at Σ: max(1, ⌈p(c0(Σ + 2n) + c1)/q⌉) for μ_s = p/q.
    let f = |sum: i128| -> Option<Vec<i128>> {
        let base = sum.checked_add(2 * n)?.checked_mul(c0)?.checked_add(c1)?;
        prob.streams
            .iter()
            .map(|s| Some(ceil_div(s.mu.numer().checked_mul(base)?, s.mu.denom()).max(1)))
            .collect()
    };
    let lo = prob
        .streams
        .iter()
        .try_fold(Rational::ZERO, |acc, s| acc.checked_add(&s.mu))
        .and_then(|mu_sum| {
            let fill = Rational::from_int(2 * n).checked_mul(&util)?;
            let reconfig = Rational::from_int(c1).checked_mul(&mu_sum)?;
            let slack = Rational::ONE.checked_add(&-util)?;
            fill.checked_add(&reconfig)?.checked_mul(&slack.recip())
        })
        .ok_or(BlockSizeError::Overflow)?;
    // Kleene iteration from below: G is monotone and G(Σ) ≥ Σ for every
    // Σ ≤ Σ_lo, so the iterates rise to the least fixpoint.
    let mut sum = lo.floor();
    for _ in 0..FIXPOINT_ROUND_LIMIT {
        let etas = f(sum).ok_or(BlockSizeError::Overflow)?;
        let next = etas
            .iter()
            .try_fold(0i128, |acc, &e| acc.checked_add(e))
            .ok_or(BlockSizeError::Overflow)?;
        if next <= sum {
            return Ok(etas);
        }
        sum = next;
    }
    Err(BlockSizeError::SolverLimit)
}

/// `⌈a / b⌉` for `b > 0`.
fn ceil_div(a: i128, b: i128) -> i128 {
    a.div_euclid(b) + i128::from(a.rem_euclid(b) != 0)
}

/// Solve with both methods and assert they agree (used by E5 and tests).
pub fn solve_blocksizes_checked(prob: &SharingProblem) -> Result<BlockSizes, BlockSizeError> {
    let a = solve_blocksizes_ilp(prob)?;
    let b = solve_blocksizes_fixpoint(prob)?;
    assert_eq!(
        a.etas, b.etas,
        "ILP and fixpoint solvers disagree — solver bug"
    );
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{GatewayParams, SharingProblem, StreamSpec};
    use streamgate_ilp::rat;

    fn small_problem(mus: &[(i128, i128)], reconfig: u64, c0_eps: u64) -> SharingProblem {
        SharingProblem {
            params: GatewayParams {
                epsilon: c0_eps,
                rho_a: 1,
                delta: 1,
            },
            streams: mus
                .iter()
                .enumerate()
                .map(|(i, &(n, d))| StreamSpec {
                    name: format!("s{i}"),
                    mu: rat(n, d),
                    reconfig,
                })
                .collect(),
        }
    }

    #[test]
    fn single_stream_minimal() {
        // μ = 1/100 samples/cycle, c0 = 10, R = 100:
        // η ≥ (10(η+2) + 100)/100 → 100η ≥ 10η + 120 → η ≥ 120/90 → η = 2.
        let prob = small_problem(&[(1, 100)], 100, 10);
        let r = solve_blocksizes_checked(&prob).unwrap();
        assert_eq!(r.etas, vec![2]);
        assert!(prob.satisfies_throughput(&r.etas));
        assert!(!prob.satisfies_throughput(&[1]), "η−1 must violate");
    }

    /// A seeded xorshift generator for the random problems below.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(12345);
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// Both solvers agree on `prob`, and every component of the answer is
    /// tight (reducing any η by 1 violates some constraint).
    fn assert_solvers_agree(prob: &SharingProblem, case: &str) {
        assert!(prob.is_feasible(), "{case}");
        let r = solve_blocksizes_checked(prob).unwrap();
        assert!(prob.satisfies_throughput(&r.etas), "{case}");
        for s in 0..r.etas.len() {
            if r.etas[s] > 1 {
                let mut smaller = r.etas.clone();
                smaller[s] -= 1;
                assert!(
                    !prob.satisfies_throughput(&smaller),
                    "{case}: η[{s}] not minimal: {:?}",
                    r.etas
                );
            }
        }
    }

    #[test]
    fn solvers_agree_on_random_problems() {
        // The ILP (the paper's formulation) cross-checks the least fixpoint
        // the analyzer runs, on 1–4 streams from chain utilisation
        // c0·Σμ ≤ 0.01 up to 1 − 2⁻¹².
        //
        // Low utilisation, each stream with its own denominator: η* is 1–2,
        // so the max(1, ·) clamp and the iteration's start below n decide.
        for seed in 0..30u64 {
            let mut rng = xorshift(seed);
            let n = 1 + (rng() % 4) as usize;
            let c0 = 1 + (rng() % 20);
            let reconfig = rng() % 5000;
            let mus: Vec<(i128, i128)> = (0..n)
                .map(|_| {
                    let d = 100 + (rng() % 900) as i128;
                    (1, d * c0 as i128 * n as i128)
                })
                .collect();
            let prob = small_problem(&mus, reconfig, c0);
            assert!(prob.utilisation() <= rat(1, 100), "low seed {seed}");
            assert_solvers_agree(&prob, &format!("low seed {seed}"));
        }
        // Near saturation: c0·Σμ = (1 − 2⁻ᵏ)·(1 − Σj/((2ᵏ − 1)·W)) for
        // weights w_s and small reductions j_s < w_s. The streams share one
        // denominator, so the exact simplex stays inside i128.
        for seed in 0..60u64 {
            let mut rng = xorshift(seed);
            let n = 1 + (rng() % 4) as usize;
            let c0 = 1 + (rng() % 20);
            let reconfig = rng() % 5000;
            let k = 1 + rng() % 12;
            let weights: Vec<i128> = (0..n).map(|_| 1 + (rng() % 100) as i128).collect();
            let w: i128 = weights.iter().sum();
            let den = (1i128 << k) * c0 as i128 * w;
            let mus: Vec<(i128, i128)> = weights
                .iter()
                .map(|&ws| {
                    (
                        ((1i128 << k) - 1) * ws - (rng() % 2) as i128 * (rng() as i128 % ws),
                        den,
                    )
                })
                .collect();
            let prob = small_problem(&mus, reconfig, c0);
            assert_solvers_agree(&prob, &format!("saturated seed {seed}"));
        }
    }

    #[test]
    fn near_saturation_single_stream_is_closed_form() {
        // c0 = 15, R = 200, c0·μ = 1 − 2⁻ᵏ: η* = ⌈(2ᵏ − 1)·(2c0 + R)/15⌉.
        for (k, want) in [(20, 16_078_150u64), (24, 257_250_630)] {
            let prob = small_problem(&[((1 << k) - 1, 15 << k)], 200, 15);
            let r = solve_blocksizes_fixpoint(&prob).unwrap();
            assert_eq!(r.etas, vec![want], "1 - 2^-{k}");
            assert_eq!(r.gamma, prob.gamma(&r.etas));
            assert!(prob.satisfies_throughput(&r.etas));
            assert!(!prob.satisfies_throughput(&[want - 1]));
        }
        // The ILP agrees once its optimum is far above the costs.
        let prob = small_problem(&[((1 << 20) - 1, 15 << 20)], 200, 15);
        assert_eq!(
            solve_blocksizes_checked(&prob).unwrap().etas,
            vec![16_078_150]
        );
    }

    #[test]
    fn near_saturation_several_streams_end_or_give_up() {
        // Two and three streams within 2⁻²⁴ of saturation: the least
        // fixpoint when the bounded iteration reaches it, else SolverLimit.
        for n in 2..=3i128 {
            let mus: Vec<(i128, i128)> = (0..n).map(|_| ((1 << 24) - 1, (15 * n) << 24)).collect();
            let prob = small_problem(&mus, 200, 15);
            match solve_blocksizes_fixpoint(&prob) {
                Ok(r) => assert!(prob.satisfies_throughput(&r.etas), "{n} streams"),
                Err(e) => assert_eq!(e, BlockSizeError::SolverLimit, "{n} streams"),
            }
        }
    }

    #[test]
    fn overflow_is_an_error_not_a_panic() {
        // Four rates with pairwise coprime denominators near 2⁴⁰: their
        // exact sum needs about 2¹⁶⁰.
        let dens = [
            (1i128 << 40) - 87,
            (1 << 40) - 167,
            (1 << 40) - 195,
            (1 << 40) - 203,
        ];
        let mus: Vec<(i128, i128)> = dens.iter().map(|&d| (1, d)).collect();
        let prob = small_problem(&mus, 100, 10);
        assert_eq!(
            solve_blocksizes_fixpoint(&prob),
            Err(BlockSizeError::Overflow)
        );
    }

    #[test]
    fn infeasible_detected() {
        // μ = 1/5 with c0 = 10 → utilisation 2 ≥ 1.
        let prob = small_problem(&[(1, 5)], 0, 10);
        assert_eq!(solve_blocksizes_ilp(&prob), Err(BlockSizeError::Infeasible));
        assert_eq!(
            solve_blocksizes_fixpoint(&prob),
            Err(BlockSizeError::Infeasible)
        );
    }

    #[test]
    fn paper_pal_block_sizes_reproduced() {
        // The headline numbers of §VI-A: η = 10136 for the front-half
        // streams and 1267 for the back-half streams (ratio exactly 8:1),
        // at the calibrated 12.483 MHz clock.
        let prob = SharingProblem::pal_decoder(crate::params::PAL_CLOCK_HZ);
        let r = solve_blocksizes_checked(&prob).unwrap();
        assert_eq!(r.etas, vec![10136, 10136, 1267, 1267]);
        assert_eq!(r.etas[0], 8 * r.etas[2], "8:1 ratio from the down-sampling");
    }

    #[test]
    fn faster_clock_shrinks_blocks() {
        let slow =
            solve_blocksizes_checked(&SharingProblem::pal_decoder(crate::params::PAL_CLOCK_HZ))
                .unwrap();
        let fast = solve_blocksizes_checked(&SharingProblem::pal_decoder(400_000_000)).unwrap();
        assert!(fast.etas.iter().sum::<u64>() < slow.etas.iter().sum::<u64>());
        // At 50 MHz the blocks are dramatically smaller.
        assert!(fast.etas[0] < 2000, "{:?}", fast.etas);
    }

    #[test]
    fn near_saturation_blows_up_blocks() {
        // Utilisation 0.99: blocks become enormous but finite.
        let prob = small_problem(&[(99, 1000)], 1000, 10);
        assert!(prob.is_feasible());
        let r = solve_blocksizes_fixpoint(&prob).unwrap();
        assert!(r.etas[0] > 1000, "η {:?}", r.etas);
        assert!(prob.satisfies_throughput(&r.etas));
    }

    #[test]
    fn gamma_consistent_with_etas() {
        let prob = SharingProblem::pal_decoder(crate::params::PAL_CLOCK_HZ);
        let r = solve_blocksizes_checked(&prob).unwrap();
        assert_eq!(r.gamma, prob.gamma(&r.etas));
        // γ must fit within the tightest stream's deadline: η/μ ≥ γ.
        for (s, &eta) in r.etas.iter().enumerate() {
            let deadline = rat(eta as i128, 1) / prob.streams[s].mu;
            assert!(rat(r.gamma as i128, 1) <= deadline);
        }
    }
}
