//! Two-phase primal simplex over exact rationals.
//!
//! The solver works on an internal standard form
//!
//! ```text
//!   minimise  c·x
//!   subject   A x = b,   x >= 0
//! ```
//!
//! obtained from the user's [`Problem`] by shifting lower bounds to zero,
//! adding slack/surplus variables for inequalities and upper bounds, and
//! negating the objective for maximisation. Phase 1 minimises the sum of
//! artificial variables to find a basic feasible solution; phase 2 optimises
//! the real objective. Bland's rule is used throughout, which guarantees
//! termination (no cycling) at the cost of some extra pivots — irrelevant at
//! the problem sizes produced by the block-size models.

use crate::model::{Cmp, Problem, Sense};
use crate::rational::Rational;

/// Outcome of an LP solve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LpStatus {
    /// Optimal solution found.
    Optimal,
    /// No feasible point exists.
    Infeasible,
    /// Objective unbounded below (for minimisation).
    Unbounded,
}

/// Solution of an LP relaxation.
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// Solve status.
    pub status: LpStatus,
    /// Objective value in the user's original sense (only for `Optimal`).
    pub objective: Rational,
    /// Value per user variable (index-aligned with `Problem` vars).
    pub values: Vec<Rational>,
    /// Number of simplex pivots performed (phase 1 + phase 2).
    pub pivots: usize,
}

/// Dense simplex tableau in equality standard form.
struct Tableau {
    /// Row-major coefficients: `rows x cols`.
    a: Vec<Vec<Rational>>,
    /// Right-hand sides, one per row (kept non-negative).
    b: Vec<Rational>,
    /// Objective coefficients, one per column.
    c: Vec<Rational>,
    /// Basis: for each row, the column currently basic in it.
    basis: Vec<usize>,
    pivots: usize,
}

impl Tableau {
    fn rows(&self) -> usize {
        self.b.len()
    }

    fn cols(&self) -> usize {
        self.c.len()
    }

    /// Perform one pivot on (row, col).
    fn pivot(&mut self, row: usize, col: usize) {
        let p = self.a[row][col];
        debug_assert!(!p.is_zero());
        let inv = p.recip();
        for x in self.a[row].iter_mut() {
            *x *= inv;
        }
        self.b[row] *= inv;
        for r in 0..self.rows() {
            if r != row {
                let f = self.a[r][col];
                if !f.is_zero() {
                    for cidx in 0..self.cols() {
                        let a_row = self.a[row][cidx];
                        if !a_row.is_zero() {
                            self.a[r][cidx] -= f * a_row;
                        }
                    }
                    let delta = f * self.b[row];
                    self.b[r] -= delta;
                }
            }
        }
        self.basis[row] = col;
        self.pivots += 1;
    }

    /// Reduced cost of column `j` given objective `c`: `c_j - c_B · B^-1 A_j`.
    /// We maintain the tableau in canonical form, so the reduced costs are
    /// computed against the current basis directly.
    fn reduced_costs(&self, costs: &[Rational]) -> Vec<Rational> {
        let mut rc = costs.to_vec();
        for (r, &bcol) in self.basis.iter().enumerate() {
            let cb = costs[bcol];
            if !cb.is_zero() {
                for (rc_j, a_rj) in rc.iter_mut().zip(&self.a[r]) {
                    let delta = cb * *a_rj;
                    *rc_j -= delta;
                }
            }
        }
        rc
    }

    /// Run simplex iterations minimising `costs` with Bland's rule, letting
    /// only columns `0..entering` enter the basis. Returns `false` if
    /// unbounded.
    ///
    /// The reduced-cost row is computed once, then updated by each pivot
    /// like any other tableau row (`rc −= rc[enter] · pivot row`). The
    /// arithmetic is exact, so the row equals a recomputed one and Bland's
    /// rule makes the same pivots.
    fn optimise(&mut self, costs: &[Rational], entering: usize, max_pivots: usize) -> bool {
        let mut rc = self.reduced_costs(costs);
        loop {
            assert!(
                self.pivots <= max_pivots,
                "simplex exceeded pivot budget ({max_pivots}) — should be impossible with Bland's rule"
            );
            // Bland: entering column = smallest index with negative reduced cost.
            let enter = match (0..entering).find(|&j| rc[j].is_negative()) {
                Some(j) => j,
                None => return true, // optimal
            };
            // Ratio test; Bland tie-break on smallest basis column.
            let mut best: Option<(Rational, usize)> = None;
            for r in 0..self.rows() {
                let arj = self.a[r][enter];
                if arj.is_positive() {
                    let ratio = self.b[r] / arj;
                    match &best {
                        None => best = Some((ratio, r)),
                        Some((br, brow)) => {
                            if ratio < *br || (ratio == *br && self.basis[r] < self.basis[*brow]) {
                                best = Some((ratio, r));
                            }
                        }
                    }
                }
            }
            let Some((_, row)) = best else {
                return false; // unbounded
            };
            self.pivot(row, enter);
            let f = rc[enter];
            for (rc_j, a_j) in rc.iter_mut().zip(&self.a[row]) {
                if !a_j.is_zero() {
                    *rc_j -= f * *a_j;
                }
            }
            debug_assert!(
                rc == self.reduced_costs(costs),
                "maintained reduced costs drifted from c - c_B·B⁻¹A"
            );
        }
    }

    /// Objective value of the current basic solution under `costs`.
    fn objective(&self, costs: &[Rational]) -> Rational {
        let mut acc = Rational::ZERO;
        for (r, &bcol) in self.basis.iter().enumerate() {
            acc += costs[bcol] * self.b[r];
        }
        acc
    }

    /// Value of column `j` in the current basic solution.
    fn value(&self, j: usize) -> Rational {
        for (r, &bcol) in self.basis.iter().enumerate() {
            if bcol == j {
                return self.b[r];
            }
        }
        Rational::ZERO
    }
}

/// Solve the LP relaxation of `problem` (integrality ignored).
pub fn solve_lp(problem: &Problem) -> LpSolution {
    let sense = problem
        .sense
        .expect("problem has no objective; call set_objective first");
    let n_user = problem.num_vars();

    // Shifted user variables: y_i = x_i - lower_i >= 0.
    let lower: Vec<Rational> = problem.vars.iter().map(|v| v.lower).collect();

    // Build rows: user constraints plus upper-bound rows.
    // Each row: Σ a_j y_j (cmp) rhs'   with rhs' = rhs - Σ a_j lower_j.
    struct Row {
        coeffs: Vec<(usize, Rational)>,
        cmp: Cmp,
        rhs: Rational,
    }
    let mut rows: Vec<Row> = Vec::new();
    for c in &problem.constraints {
        let mut rhs = c.rhs;
        let mut coeffs = Vec::with_capacity(c.expr.terms.len());
        for (v, &a) in &c.expr.terms {
            rhs -= a * lower[v.0];
            coeffs.push((v.0, a));
        }
        rows.push(Row {
            coeffs,
            cmp: c.cmp,
            rhs,
        });
    }
    for (i, info) in problem.vars.iter().enumerate() {
        if let Some(u) = info.upper {
            rows.push(Row {
                coeffs: vec![(i, Rational::ONE)],
                cmp: Cmp::Le,
                rhs: u - lower[i],
            });
        }
    }

    // Count slack columns.
    let n_slack = rows.iter().filter(|r| r.cmp != Cmp::Eq).count();
    let m = rows.len();
    let n_total = n_user + n_slack + m; // + artificials (one per row)

    let mut a = vec![vec![Rational::ZERO; n_total]; m];
    let mut b = vec![Rational::ZERO; m];
    let mut slack_idx = n_user;
    let art_base = n_user + n_slack;

    for (r, row) in rows.iter().enumerate() {
        let mut rhs = row.rhs;
        let mut sign = Rational::ONE;
        if rhs.is_negative() {
            // Normalise to non-negative rhs by negating the row.
            rhs = -rhs;
            sign = -Rational::ONE;
        }
        for &(j, coef) in &row.coeffs {
            a[r][j] = coef * sign;
        }
        b[r] = rhs;
        match row.cmp {
            Cmp::Le => {
                a[r][slack_idx] = sign; // slack (+1) possibly negated
                slack_idx += 1;
            }
            Cmp::Ge => {
                a[r][slack_idx] = -sign; // surplus (-1) possibly negated
                slack_idx += 1;
            }
            Cmp::Eq => {}
        }
        a[r][art_base + r] = Rational::ONE; // artificial
    }

    let basis: Vec<usize> = (0..m).map(|r| art_base + r).collect();
    let mut t = Tableau {
        a,
        b,
        c: vec![Rational::ZERO; n_total],
        basis,
        pivots: 0,
    };

    // Generous pivot budget: Bland's rule terminates; this is a safety net.
    let max_pivots = 2000 + 50 * (m + n_total) * (m + 1);

    // Phase 1: minimise sum of artificials.
    let mut phase1 = vec![Rational::ZERO; n_total];
    for c in phase1.iter_mut().skip(art_base) {
        *c = Rational::ONE;
    }
    let bounded = t.optimise(&phase1, n_total, max_pivots);
    assert!(bounded, "phase-1 objective is bounded below by zero");
    if t.objective(&phase1).is_positive() {
        return LpSolution {
            status: LpStatus::Infeasible,
            objective: Rational::ZERO,
            values: vec![],
            pivots: t.pivots,
        };
    }
    // Drive any artificial still in the basis out (degenerate rows).
    for r in 0..m {
        if t.basis[r] >= art_base {
            if let Some(j) = (0..art_base).find(|&j| !t.a[r][j].is_zero()) {
                t.pivot(r, j);
            }
            // If the whole row is zero the constraint was redundant; the
            // artificial stays basic at value zero. Every pivot leaves that
            // row zero outside the artificial columns, and phase 2 lets no
            // artificial column enter, so it stays at zero.
        }
    }

    // Phase 2: real objective on shifted variables.
    // minimise c·x ; for Maximize we minimise -c·x.
    let mut costs = vec![Rational::ZERO; n_total];
    for (v, &coef) in &problem.objective.terms {
        costs[v.0] = match sense {
            Sense::Minimize => coef,
            Sense::Maximize => -coef,
        };
    }
    // Artificial columns never re-enter: a basis holding one at a positive
    // value is not a point of the feasible region.
    if !t.optimise(&costs, art_base, max_pivots) {
        return LpSolution {
            status: LpStatus::Unbounded,
            objective: Rational::ZERO,
            values: vec![],
            pivots: t.pivots,
        };
    }

    // Extract user-variable values, un-shifting lower bounds.
    let values: Vec<Rational> = lower
        .iter()
        .enumerate()
        .map(|(j, lo)| t.value(j) + *lo)
        .collect();
    // Objective including the expression's constant, restored to user sense.
    let mut obj = problem.objective.constant;
    for (v, &coef) in &problem.objective.terms {
        obj += coef * values[v.0];
    }
    LpSolution {
        status: LpStatus::Optimal,
        objective: obj,
        values,
        pivots: t.pivots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Problem, Sense};
    use crate::rational::{rat, Rational};

    #[test]
    fn simple_maximisation() {
        // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => (2, 6), obj 36.
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.le(LinExpr::var(x), rat(4, 1));
        p.le(LinExpr::var(y).scaled(rat(2, 1)), rat(12, 1));
        p.le(
            LinExpr::var(x).scaled(rat(3, 1)) + LinExpr::var(y).scaled(rat(2, 1)),
            rat(18, 1),
        );
        p.set_objective(
            Sense::Maximize,
            LinExpr::var(x).scaled(rat(3, 1)) + LinExpr::var(y).scaled(rat(5, 1)),
        );
        let s = solve_lp(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, rat(36, 1));
        assert_eq!(s.values[x.index()], rat(2, 1));
        assert_eq!(s.values[y.index()], rat(6, 1));
    }

    #[test]
    fn simple_minimisation_with_ge() {
        // min x + y  s.t. x + 2y >= 4, 3x + y >= 6   => x=8/5, y=6/5, obj 14/5.
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.ge(
            LinExpr::var(x) + LinExpr::var(y).scaled(rat(2, 1)),
            rat(4, 1),
        );
        p.ge(
            LinExpr::var(x).scaled(rat(3, 1)) + LinExpr::var(y),
            rat(6, 1),
        );
        p.set_objective(Sense::Minimize, LinExpr::var(x) + LinExpr::var(y));
        let s = solve_lp(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, rat(14, 5));
        assert_eq!(s.values[x.index()], rat(8, 5));
        assert_eq!(s.values[y.index()], rat(6, 5));
    }

    #[test]
    fn equality_constraints() {
        // min 2x + 3y s.t. x + y == 10, x - y == 2  => x=6, y=4, obj 24.
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.eq(LinExpr::var(x) + LinExpr::var(y), rat(10, 1));
        p.eq(LinExpr::var(x) - LinExpr::var(y), rat(2, 1));
        p.set_objective(
            Sense::Minimize,
            LinExpr::var(x).scaled(rat(2, 1)) + LinExpr::var(y).scaled(rat(3, 1)),
        );
        let s = solve_lp(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, rat(24, 1));
        assert_eq!(s.values[x.index()], rat(6, 1));
        assert_eq!(s.values[y.index()], rat(4, 1));
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.ge(LinExpr::var(x), rat(5, 1));
        p.le(LinExpr::var(x), rat(3, 1));
        p.set_objective(Sense::Minimize, LinExpr::var(x));
        let s = solve_lp(&p);
        assert_eq!(s.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.ge(LinExpr::var(x), rat(1, 1));
        p.set_objective(Sense::Maximize, LinExpr::var(x));
        let s = solve_lp(&p);
        assert_eq!(s.status, LpStatus::Unbounded);
    }

    #[test]
    fn lower_bounds_shifted() {
        // min x s.t. x >= -3 (lower bound), x >= -10 (constraint) => -3.
        let mut p = Problem::new();
        let x = p.add_var_with("x", crate::model::VarKind::Continuous, rat(-3, 1), None);
        p.ge(LinExpr::var(x), rat(-10, 1));
        p.set_objective(Sense::Minimize, LinExpr::var(x));
        let s = solve_lp(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.values[x.index()], rat(-3, 1));
    }

    #[test]
    fn upper_bounds_respected() {
        let mut p = Problem::new();
        let x = p.add_var_with(
            "x",
            crate::model::VarKind::Continuous,
            Rational::ZERO,
            Some(rat(7, 2)),
        );
        p.set_objective(Sense::Maximize, LinExpr::var(x));
        let s = solve_lp(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.values[x.index()], rat(7, 2));
    }

    #[test]
    fn negative_rhs_rows() {
        // x - y <= -2 with x,y >= 0: y >= x + 2. min y => (0, 2).
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.le(LinExpr::var(x) - LinExpr::var(y), rat(-2, 1));
        p.set_objective(Sense::Minimize, LinExpr::var(y));
        let s = solve_lp(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.values[y.index()], rat(2, 1));
    }

    #[test]
    fn redundant_equalities_ok() {
        // x + y == 4 stated twice (redundant row leaves an artificial basic at 0).
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.eq(LinExpr::var(x) + LinExpr::var(y), rat(4, 1));
        p.eq(LinExpr::var(x) + LinExpr::var(y), rat(4, 1));
        p.set_objective(Sense::Maximize, LinExpr::var(x));
        let s = solve_lp(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.values[x.index()], rat(4, 1));
    }

    #[test]
    fn degenerate_does_not_cycle() {
        // Classic degenerate example; Bland's rule must terminate.
        let mut p = Problem::new();
        let x1 = p.add_var("x1");
        let x2 = p.add_var("x2");
        let x3 = p.add_var("x3");
        p.le(
            LinExpr::var(x1).scaled(rat(1, 4))
                - LinExpr::var(x2).scaled(rat(8, 1))
                - LinExpr::var(x3),
            Rational::ZERO,
        );
        p.le(
            LinExpr::var(x1).scaled(rat(1, 2))
                - LinExpr::var(x2).scaled(rat(12, 1))
                - LinExpr::var(x3).scaled(rat(1, 2)),
            Rational::ZERO,
        );
        p.le(LinExpr::var(x3), rat(1, 1));
        p.set_objective(
            Sense::Maximize,
            LinExpr::var(x1).scaled(rat(3, 4)) - LinExpr::var(x2).scaled(rat(20, 1))
                + LinExpr::var(x3).scaled(rat(1, 2)),
        );
        let s = solve_lp(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        // Known optimum: x1 = 0.04? — verify objective by feasibility instead.
        assert!(p.check_feasible(&s.values).is_none());
    }

    #[test]
    fn objective_constant_included() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.le(LinExpr::var(x), rat(3, 1));
        p.set_objective(
            Sense::Maximize,
            LinExpr::var(x) + LinExpr::constant(rat(10, 1)),
        );
        let s = solve_lp(&p);
        assert_eq!(s.objective, rat(13, 1));
    }
}
