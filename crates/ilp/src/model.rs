//! Modelling API for linear and integer linear programs.
//!
//! A [`Problem`] is built incrementally: create variables with
//! [`Problem::add_var`] (continuous) or [`Problem::add_int_var`] (integer),
//! combine them into [`LinExpr`]s with the overloaded operators, post
//! constraints with [`Problem::add_constraint`], set the objective and hand
//! the problem to [`crate::solve_lp`] or [`crate::solve_ilp`].
//!
//! All coefficients are exact [`Rational`]s so models derived from cycle
//! counts and sample rates are represented without rounding.

use crate::rational::Rational;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Handle to a decision variable inside a [`Problem`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub(crate) usize);

impl Var {
    /// Index of the variable in its problem.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// A linear expression `Σ c_i · x_i + constant`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinExpr {
    /// Coefficients per variable, sparse (variables with zero coefficient are
    /// dropped on normalisation).
    pub terms: BTreeMap<Var, Rational>,
    /// Constant offset.
    pub constant: Rational,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant<R: Into<Rational>>(c: R) -> Self {
        LinExpr {
            terms: BTreeMap::new(),
            constant: c.into(),
        }
    }

    /// Expression consisting of a single variable with coefficient one.
    pub fn var(v: Var) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(v, Rational::ONE);
        LinExpr {
            terms,
            constant: Rational::ZERO,
        }
    }

    /// Add `coeff * v` to the expression.
    pub fn add_term<R: Into<Rational>>(&mut self, v: Var, coeff: R) -> &mut Self {
        let c = coeff.into();
        let entry = self.terms.entry(v).or_insert(Rational::ZERO);
        *entry += c;
        if entry.is_zero() {
            self.terms.remove(&v);
        }
        self
    }

    /// Coefficient of a variable (zero if absent).
    pub fn coeff(&self, v: Var) -> Rational {
        self.terms.get(&v).copied().unwrap_or(Rational::ZERO)
    }

    /// Evaluate the expression under an assignment `values[var.index()]`.
    pub fn eval(&self, values: &[Rational]) -> Rational {
        let mut acc = self.constant;
        for (v, c) in &self.terms {
            acc += *c * values[v.0];
        }
        acc
    }

    /// Scale by a rational factor.
    pub fn scaled(mut self, k: Rational) -> Self {
        if k.is_zero() {
            return LinExpr::zero();
        }
        for c in self.terms.values_mut() {
            *c *= k;
        }
        self.constant *= k;
        self
    }
}

impl From<Var> for LinExpr {
    fn from(v: Var) -> Self {
        LinExpr::var(v)
    }
}

impl From<Rational> for LinExpr {
    fn from(r: Rational) -> Self {
        LinExpr::constant(r)
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        for (v, c) in rhs.terms {
            self.add_term(v, c);
        }
        self.constant += rhs.constant;
        self
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        self + (-rhs)
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self.scaled(Rational::from_int(-1))
    }
}

impl Mul<Rational> for LinExpr {
    type Output = LinExpr;
    fn mul(self, k: Rational) -> LinExpr {
        self.scaled(k)
    }
}

impl Add<Var> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, v: Var) -> LinExpr {
        self.add_term(v, Rational::ONE);
        self
    }
}

/// Comparison operator of a constraint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cmp {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cmp::Le => write!(f, "<="),
            Cmp::Ge => write!(f, ">="),
            Cmp::Eq => write!(f, "=="),
        }
    }
}

/// A linear constraint `expr (<=|>=|==) rhs`.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// Left-hand linear expression (its constant is folded into `rhs`).
    pub expr: LinExpr,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand constant.
    pub rhs: Rational,
    /// Optional label for diagnostics.
    pub name: Option<String>,
}

impl Constraint {
    /// Build a constraint, folding the expression's constant into the rhs.
    pub fn new(mut expr: LinExpr, cmp: Cmp, rhs: impl Into<Rational>) -> Self {
        let rhs = rhs.into() - expr.constant;
        expr.constant = Rational::ZERO;
        Constraint {
            expr,
            cmp,
            rhs,
            name: None,
        }
    }

    /// Attach a diagnostic label.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Check whether an assignment satisfies this constraint exactly.
    pub fn is_satisfied(&self, values: &[Rational]) -> bool {
        let lhs = self.expr.eval(values);
        match self.cmp {
            Cmp::Le => lhs <= self.rhs,
            Cmp::Ge => lhs >= self.rhs,
            Cmp::Eq => lhs == self.rhs,
        }
    }
}

/// Optimisation direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sense {
    /// Minimise the objective.
    Minimize,
    /// Maximise the objective.
    Maximize,
}

/// Kind of a decision variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VarKind {
    /// Real-valued.
    Continuous,
    /// Integer-valued (enforced by branch-and-bound).
    Integer,
}

/// Per-variable metadata.
#[derive(Clone, Debug)]
pub struct VarInfo {
    /// Human-readable name used in reports.
    pub name: String,
    /// Continuous or integer.
    pub kind: VarKind,
    /// Lower bound (defaults to 0; LPs here are non-negative by convention).
    pub lower: Rational,
    /// Optional upper bound.
    pub upper: Option<Rational>,
}

/// A linear (or integer linear) program.
#[derive(Clone, Debug, Default)]
pub struct Problem {
    pub(crate) vars: Vec<VarInfo>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) objective: LinExpr,
    pub(crate) sense: Option<Sense>,
}

impl Problem {
    /// Empty problem.
    pub fn new() -> Self {
        Problem::default()
    }

    /// Add a continuous variable with lower bound 0.
    pub fn add_var(&mut self, name: impl Into<String>) -> Var {
        self.add_var_with(name, VarKind::Continuous, Rational::ZERO, None)
    }

    /// Add an integer variable with lower bound 0.
    pub fn add_int_var(&mut self, name: impl Into<String>) -> Var {
        self.add_var_with(name, VarKind::Integer, Rational::ZERO, None)
    }

    /// Add a variable with explicit kind and bounds.
    pub fn add_var_with(
        &mut self,
        name: impl Into<String>,
        kind: VarKind,
        lower: Rational,
        upper: Option<Rational>,
    ) -> Var {
        if let Some(u) = upper {
            assert!(lower <= u, "variable lower bound exceeds upper bound");
        }
        let v = Var(self.vars.len());
        self.vars.push(VarInfo {
            name: name.into(),
            kind,
            lower,
            upper,
        });
        v
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Post a constraint.
    pub fn add_constraint(&mut self, c: Constraint) {
        for v in c.expr.terms.keys() {
            assert!(
                v.0 < self.vars.len(),
                "constraint references unknown variable"
            );
        }
        self.constraints.push(c);
    }

    /// Shorthand: `expr <= rhs`.
    pub fn le(&mut self, expr: LinExpr, rhs: impl Into<Rational>) {
        self.add_constraint(Constraint::new(expr, Cmp::Le, rhs));
    }

    /// Shorthand: `expr >= rhs`.
    pub fn ge(&mut self, expr: LinExpr, rhs: impl Into<Rational>) {
        self.add_constraint(Constraint::new(expr, Cmp::Ge, rhs));
    }

    /// Shorthand: `expr == rhs`.
    pub fn eq(&mut self, expr: LinExpr, rhs: impl Into<Rational>) {
        self.add_constraint(Constraint::new(expr, Cmp::Eq, rhs));
    }

    /// Set the objective.
    pub fn set_objective(&mut self, sense: Sense, expr: LinExpr) {
        self.sense = Some(sense);
        self.objective = expr;
    }

    /// True if any variable is integer.
    pub fn has_integers(&self) -> bool {
        self.vars.iter().any(|v| v.kind == VarKind::Integer)
    }

    /// Objective terms as `(Var, coefficient)` pairs.
    pub fn objective_terms(&self) -> Vec<(Var, Rational)> {
        self.objective.terms.iter().map(|(v, c)| (*v, *c)).collect()
    }

    /// Mark every variable integral (used to turn an LP into an ILP).
    pub fn make_all_integer(&mut self) {
        for v in &mut self.vars {
            v.kind = VarKind::Integer;
        }
    }

    /// Verify a full assignment against bounds, integrality and constraints.
    /// Returns the first violated item's description, or `None` if feasible.
    pub fn check_feasible(&self, values: &[Rational]) -> Option<String> {
        assert_eq!(values.len(), self.vars.len(), "assignment length mismatch");
        for (i, info) in self.vars.iter().enumerate() {
            let v = values[i];
            if v < info.lower {
                return Some(format!(
                    "{} = {} below lower bound {}",
                    info.name, v, info.lower
                ));
            }
            if let Some(u) = info.upper {
                if v > u {
                    return Some(format!("{} = {} above upper bound {}", info.name, v, u));
                }
            }
            if info.kind == VarKind::Integer && !v.is_integer() {
                return Some(format!("{} = {} not integral", info.name, v));
            }
        }
        for (k, c) in self.constraints.iter().enumerate() {
            if !c.is_satisfied(values) {
                let label = c.name.clone().unwrap_or_else(|| format!("#{k}"));
                return Some(format!(
                    "constraint {label} violated: {} {} {}",
                    c.expr.eval(values),
                    c.cmp,
                    c.rhs
                ));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::rat;

    #[test]
    fn linexpr_building() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let mut e = LinExpr::var(x);
        e.add_term(y, rat(2, 1));
        e.add_term(x, rat(1, 1));
        assert_eq!(e.coeff(x), rat(2, 1));
        assert_eq!(e.coeff(y), rat(2, 1));
        // cancelling a term removes it
        e.add_term(y, rat(-2, 1));
        assert!(!e.terms.contains_key(&y));
    }

    #[test]
    fn linexpr_ops() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let e =
            (LinExpr::var(x) + LinExpr::var(y).scaled(rat(3, 1))) - LinExpr::constant(rat(5, 1));
        assert_eq!(e.coeff(x), Rational::ONE);
        assert_eq!(e.coeff(y), rat(3, 1));
        assert_eq!(e.constant, rat(-5, 1));
        let vals = vec![rat(1, 1), rat(2, 1)];
        assert_eq!(e.eval(&vals), rat(2, 1));
    }

    #[test]
    fn constraint_folds_constant() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let e = LinExpr::var(x) + LinExpr::constant(rat(3, 1));
        let c = Constraint::new(e, Cmp::Le, rat(10, 1));
        assert_eq!(c.rhs, rat(7, 1));
        assert_eq!(c.expr.constant, Rational::ZERO);
    }

    #[test]
    fn feasibility_check() {
        let mut p = Problem::new();
        let x = p.add_int_var("x");
        p.ge(LinExpr::var(x), rat(2, 1));
        assert!(p.check_feasible(&[rat(3, 1)]).is_none());
        assert!(p.check_feasible(&[rat(1, 1)]).is_some());
        assert!(
            p.check_feasible(&[rat(5, 2)]).is_some(),
            "non-integer rejected"
        );
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn foreign_variable_rejected() {
        let mut p = Problem::new();
        let mut q = Problem::new();
        let _x = p.add_var("x");
        let y = q.add_var("y");
        let y2 = Var(y.0 + 5);
        p.add_constraint(Constraint::new(LinExpr::var(y2), Cmp::Le, rat(1, 1)));
    }

    #[test]
    fn scaled_zero_clears() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let e = LinExpr::var(x).scaled(Rational::ZERO);
        assert!(e.terms.is_empty());
    }
}
