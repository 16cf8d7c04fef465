//! HSDF expansion and exact Maximum Cycle Mean (MCM) analysis.
//!
//! The paper notes (§III) that MCM techniques need a fixed-topology HSDF
//! expansion and therefore cannot be used while the block size is still a
//! parameter. For *fixed* parameters, however, MCM gives the exact minimum
//! steady-state period, which we use as ground truth to validate both the
//! self-timed simulator and the conservative bounds (Eq. 2–4).
//!
//! Pipeline:
//!
//! 1. [`expand_to_hsdf`] converts a consistent (C)SDF graph into a
//!    homogeneous graph whose nodes are the individual firings of one graph
//!    iteration, with inter-firing precedence arcs annotated with iteration
//!    distances (delays). Sequencing arcs encode the implicit self-edge.
//! 2. `has_cycle_ratio_above` decides `MCM > λ` for one rational `λ = p/q`
//!    with a single positive-cycle test (Bellman–Ford) over the integer arc
//!    weights `q·dur(src) − p·delay`, in checked `i128`. Deciding whether a
//!    target period is met needs nothing more.
//! 3. [`max_cycle_ratio`] computes `max over cycles (Σ durations / Σ delays)`
//!    exactly where a period *value* is needed, by binary search over that
//!    same test and a final Stern–Brocot rounding step that recovers the
//!    exact rational from the isolating interval.

use crate::graph::{CsdfGraph, GraphError, Time};
use crate::repetition::repetition_vector;
use std::collections::HashMap;
use streamgate_ilp::Rational;

/// A homogeneous dataflow graph: one node per firing, arcs with delays.
#[derive(Clone, Debug)]
pub struct Hsdf {
    /// Firing duration per node.
    pub durations: Vec<Time>,
    /// Arcs `(src, dst, delay)`. A delay of `k` means the dependency spans
    /// `k` iterations.
    pub arcs: Vec<(usize, usize, u64)>,
    /// Diagnostic labels, `actor#firing`.
    pub labels: Vec<String>,
}

/// Errors from MCM analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum McmError {
    /// Underlying graph error (validation / consistency).
    Graph(GraphError),
    /// A dependency cycle with zero total delay: the graph deadlocks.
    ZeroDelayCycle,
    /// An integer cycle weight or path sum of a ratio test left the `i128`
    /// range (durations, delays or `λ` too large to compare exactly).
    Overflow,
}

impl From<GraphError> for McmError {
    fn from(e: GraphError) -> Self {
        McmError::Graph(e)
    }
}

impl std::fmt::Display for McmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            McmError::Graph(g) => write!(f, "{g}"),
            McmError::ZeroDelayCycle => write!(f, "zero-delay dependency cycle (deadlock)"),
            McmError::Overflow => write!(f, "cycle-ratio arithmetic overflows i128"),
        }
    }
}

impl std::error::Error for McmError {}

fn floor_div(a: i128, b: i128) -> i128 {
    a.div_euclid(b)
}

/// Expand a consistent (C)SDF graph into an HSDF graph over one iteration.
pub fn expand_to_hsdf(g: &CsdfGraph) -> Result<Hsdf, McmError> {
    let rep = repetition_vector(g)?;
    let n_actors = g.num_actors();

    // Node layout: firings of actor a occupy [base[a], base[a] + N_a).
    let firings_per_actor: Vec<usize> = g
        .actor_ids()
        .map(|a| rep.firings_of(g, a) as usize)
        .collect();
    let mut base = vec![0usize; n_actors];
    let mut total = 0usize;
    for a in 0..n_actors {
        base[a] = total;
        total += firings_per_actor[a];
    }

    let mut durations = Vec::with_capacity(total);
    let mut labels = Vec::with_capacity(total);
    for a in g.actor_ids() {
        let actor = g.actor(a);
        for k in 0..firings_per_actor[a.index()] {
            durations.push(actor.durations[k % actor.phases()]);
            labels.push(format!("{}#{}", actor.name, k));
        }
    }

    // Deduplicated arcs: (src, dst) -> min delay.
    let mut arc_map: HashMap<(usize, usize), u64> = HashMap::new();
    let mut add_arc = |s: usize, d: usize, delay: u64| {
        arc_map
            .entry((s, d))
            .and_modify(|old| *old = (*old).min(delay))
            .or_insert(delay);
    };

    // Sequencing arcs (implicit self-edge: firings of an actor are ordered).
    for a in 0..n_actors {
        let n = firings_per_actor[a];
        if n == 1 {
            add_arc(base[a], base[a], 1);
        } else {
            for k in 0..n - 1 {
                add_arc(base[a] + k, base[a] + k + 1, 0);
            }
            add_arc(base[a] + n - 1, base[a], 1);
        }
    }

    // Token-dependency arcs.
    for e in g.edge_ids() {
        let edge = g.edge(e);
        let u = edge.src.index();
        let v = edge.dst.index();
        let pu = g.actor(edge.src).phases();
        let pv = g.actor(edge.dst).phases();
        let n_u = firings_per_actor[u] as i128;
        let d = edge.initial_tokens as i128;

        // Cumulative production prefix over one phase cycle of the producer.
        let mut pre = vec![0i128; pu + 1];
        for p in 0..pu {
            pre[p + 1] = pre[p] + edge.production[p] as i128;
        }
        let cycle_sum = pre[pu];
        debug_assert!(cycle_sum > 0);

        // Producer firing index (possibly negative) that produces token `m`
        // (0-based, counted from the start of iteration 0).
        let producer_firing = |m: i128| -> i128 {
            let c = floor_div(m, cycle_sum);
            let rem = m - c * cycle_sum; // in [0, cycle_sum)
            let mut p = 0usize;
            while pre[p + 1] <= rem {
                p += 1;
            }
            c * pu as i128 + p as i128
        };

        // Walk consumer firings of one iteration.
        let mut consumed: i128 = 0; // cumulative tokens consumed before firing j
        for j in 0..firings_per_actor[v] {
            let need = edge.consumption[j % pv] as i128;
            for t in 0..need {
                let n_tok = consumed + t; // global consumed-token index
                let m = n_tok - d;
                // m < -(large) only with many initial tokens: those come from
                // "firings" far in the past — still fine with floor_div.
                let i_raw = producer_firing(m);
                let a_node = i_raw.rem_euclid(n_u) as usize;
                let delta = -floor_div(i_raw, n_u);
                debug_assert!(delta >= 0);
                add_arc(base[u] + a_node, base[v] + j, delta as u64);
            }
            consumed += need;
        }
    }

    let arcs = arc_map
        .into_iter()
        .map(|((s, d), delay)| (s, d, delay))
        .collect();
    Ok(Hsdf {
        durations,
        arcs,
        labels,
    })
}

/// True iff the HSDF graph has a cycle whose ratio `Σ dur / Σ delay`
/// strictly exceeds `lambda`. Arc weight is the *source* node's duration.
///
/// With `lambda = p/q` (`q > 0`), a cycle's ratio exceeds `lambda` iff its
/// integer weight `Σ (q·dur(src) − p·delay)` is positive, so one
/// longest-path Bellman–Ford over those weights decides it exactly. Every
/// product and path sum is checked; leaving `i128` is an error, never a
/// wrap.
pub(crate) fn has_cycle_ratio_above(h: &Hsdf, lambda: Rational) -> Result<bool, McmError> {
    let n = h.durations.len();
    if n == 0 {
        return Ok(false);
    }
    let (p, q) = (lambda.numer(), lambda.denom());
    let weights = h
        .arcs
        .iter()
        .map(|&(s, _, delay)| {
            let dur = q.checked_mul(h.durations[s] as i128);
            let tokens = p.checked_mul(delay as i128);
            dur.zip(tokens)
                .and_then(|(d, t)| d.checked_sub(t))
                .ok_or(McmError::Overflow)
        })
        .collect::<Result<Vec<i128>, McmError>>()?;
    // Longest-path relaxation; a still-relaxable arc after n rounds implies a
    // positive-weight cycle.
    let mut dist = vec![0i128; n];
    for round in 0..=n {
        let mut changed = false;
        for (&(s, d, _), &w) in h.arcs.iter().zip(&weights) {
            let cand = dist[s].checked_add(w).ok_or(McmError::Overflow)?;
            if cand > dist[d] {
                dist[d] = cand;
                changed = true;
            }
        }
        if !changed {
            return Ok(false);
        }
        if round == n {
            return Ok(true);
        }
    }
    unreachable!()
}

/// Detect a cycle with zero total delay (deadlock) via DFS on zero-delay arcs.
pub(crate) fn has_zero_delay_cycle(h: &Hsdf) -> bool {
    let n = h.durations.len();
    let mut adj = vec![Vec::new(); n];
    for &(s, d, delay) in &h.arcs {
        if delay == 0 {
            adj[s].push(d);
        }
    }
    // Iterative colour DFS.
    let mut colour = vec![0u8; n]; // 0 white, 1 grey, 2 black
    for start in 0..n {
        if colour[start] != 0 {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        colour[start] = 1;
        while let Some(&mut (u, ref mut idx)) = stack.last_mut() {
            if *idx < adj[u].len() {
                let v = adj[u][*idx];
                *idx += 1;
                match colour[v] {
                    0 => {
                        colour[v] = 1;
                        stack.push((v, 0));
                    }
                    1 => return true,
                    _ => {}
                }
            } else {
                colour[u] = 2;
                stack.pop();
            }
        }
    }
    false
}

/// Simplest rational (smallest denominator) `r` with `lo < r <= hi`.
///
/// Standard Stern–Brocot / continued-fraction construction.
fn simplest_in(lo: Rational, hi: Rational) -> Rational {
    debug_assert!(lo < hi);
    // Work with the closed-open trick: find simplest r in (lo, hi].
    // If an integer fits, take the smallest integer > lo (clamped to hi).
    let fl = lo.floor();
    let candidate = Rational::from_int(fl + 1);
    if candidate <= hi {
        return candidate;
    }
    // Otherwise lo and hi share the integer part; recurse on the inverted
    // fractional parts: r = fl + 1/x with x in [1/(hi-fl), 1/(lo-fl)).
    let fl_r = Rational::from_int(fl);
    let lo_f = lo - fl_r;
    let hi_f = hi - fl_r;
    // x range: lo < fl + 1/x <= hi  =>  1/hi_f <= x < 1/lo_f
    // Find simplest x in [1/hi_f, 1/lo_f): mirror with open/closed swapped.
    let x = simplest_in_co(hi_f.recip(), lo_f.recip());
    fl_r + x.recip()
}

/// Simplest rational `r` with `lo <= r < hi`.
fn simplest_in_co(lo: Rational, hi: Rational) -> Rational {
    debug_assert!(lo < hi);
    let cl = lo.ceil();
    let candidate = Rational::from_int(cl);
    if candidate < hi {
        return candidate;
    }
    let fl = lo.floor();
    let fl_r = Rational::from_int(fl);
    let lo_f = lo - fl_r;
    let hi_f = hi - fl_r;
    debug_assert!(!lo_f.is_zero());
    // r = fl + 1/x with x in (1/hi_f, 1/lo_f]
    let x = simplest_in(hi_f.recip(), lo_f.recip());
    fl_r + x.recip()
}

/// Exact maximum cycle ratio `max over cycles (Σ durations / Σ delays)` of an
/// HSDF graph; this is the minimum feasible steady-state period (MCM).
///
/// Returns `Ok(None)` for an acyclic graph (no steady-state constraint),
/// `Err(ZeroDelayCycle)` for a deadlocked one and `Err(Overflow)` when a
/// ratio test of the bisection leaves `i128`.
pub fn max_cycle_ratio(h: &Hsdf) -> Result<Option<Rational>, McmError> {
    if has_zero_delay_cycle(h) {
        return Err(McmError::ZeroDelayCycle);
    }
    let total_dur: u64 = h.durations.iter().sum();
    let total_delay: u64 = h.arcs.iter().map(|a| a.2).sum();
    if total_delay == 0 || h.arcs.is_empty() {
        return Ok(None);
    }
    let mut lo = Rational::ZERO; // invariant: MCM > lo or graph "acyclic-ish"
    let mut hi = Rational::from_int(total_dur as i128 + 1); // MCM <= hi
    if !has_cycle_ratio_above(h, lo)? {
        // No cycle has positive duration => every cycle ratio is 0; with all
        // durations >= 0 this means cycles of zero duration.
        return Ok(Some(Rational::ZERO));
    }
    // Distinct cycle ratios are quotients p/q with q <= total_delay, so any
    // interval shorter than 1/total_delay^2 isolates at most one.
    let d = Rational::from_int(total_delay as i128);
    let eps = (d * d).recip();
    while hi - lo > eps {
        let mid = (lo + hi) * Rational::new(1, 2);
        if has_cycle_ratio_above(h, mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // MCM is the unique rational in (lo, hi] with denominator <= total_delay,
    // which is the simplest rational in that interval.
    let r = simplest_in(lo, hi);
    debug_assert_eq!(has_cycle_ratio_above(h, r), Ok(false));
    Ok(Some(r))
}

/// Convenience: expand a (C)SDF graph and return its MCM, i.e. the minimum
/// period per *iteration-normalised firing* of each actor. The steady-state
/// period of actor `a` is `MCM` per firing within the HSDF (each firing node
/// fires once per MCM).
pub fn mcm_period(g: &CsdfGraph) -> Result<Option<Rational>, McmError> {
    let h = expand_to_hsdf(g)?;
    max_cycle_ratio(&h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CsdfGraph;
    use streamgate_ilp::rat;

    #[test]
    fn self_loop_only() {
        // Single actor: implicit self-edge gives period = duration.
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 7);
        let b = g.add_sdf_actor("B", 3);
        g.add_sdf_edge("ab", a, 1, b, 1, 0);
        let p = mcm_period(&g).unwrap().unwrap();
        assert_eq!(p, rat(7, 1));
    }

    #[test]
    fn two_actor_cycle() {
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 3);
        let b = g.add_sdf_actor("B", 5);
        g.add_sdf_edge("ab", a, 1, b, 1, 0);
        g.add_sdf_edge("ba", b, 1, a, 1, 1);
        // Cycle A->B->A: (3+5)/1 = 8; self loops give 3 and 5. MCM = 8.
        assert_eq!(mcm_period(&g).unwrap().unwrap(), rat(8, 1));
    }

    #[test]
    fn more_delays_relax_cycle() {
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 3);
        let b = g.add_sdf_actor("B", 5);
        g.add_sdf_edge("ab", a, 1, b, 1, 0);
        g.add_sdf_edge("ba", b, 1, a, 1, 3);
        // Cycle ratio 8/3 < self-edge periods; MCM = max(3, 5, 8/3) = 5.
        assert_eq!(mcm_period(&g).unwrap().unwrap(), rat(5, 1));
    }

    #[test]
    fn deadlock_reported() {
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 1);
        let b = g.add_sdf_actor("B", 1);
        g.add_sdf_edge("ab", a, 1, b, 1, 0);
        g.add_sdf_edge("ba", b, 1, a, 1, 0);
        assert_eq!(mcm_period(&g).unwrap_err(), McmError::ZeroDelayCycle);
    }

    #[test]
    fn multirate_expansion_counts() {
        // A -2-> -3-> B: r = (3, 2); HSDF has 5 nodes.
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 1);
        let b = g.add_sdf_actor("B", 1);
        g.add_sdf_edge("ab", a, 2, b, 3, 0);
        let h = expand_to_hsdf(&g).unwrap();
        assert_eq!(h.durations.len(), 5);
        let _ = a;
        let _ = b;
    }

    #[test]
    fn multirate_mcm_matches_simulation() {
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 4);
        let b = g.add_sdf_actor("B", 9);
        g.add_sdf_edge("ab", a, 1, b, 2, 0);
        g.add_sdf_edge("ba", b, 2, a, 1, 4);
        // Simulation ground truth:
        let t = crate::simulate::simulate(&g, 40).unwrap();
        let sim_period_b = t.period_estimate(b).unwrap();
        // MCM is per HSDF-iteration: B fires once per iteration.
        let mcm = mcm_period(&g).unwrap().unwrap();
        assert_eq!(mcm, sim_period_b, "MCM must equal B's steady-state period");
    }

    #[test]
    fn csdf_phase_expansion() {
        // CSDF actor (10, 1) producing [1, 1]; consumer duration 1 consuming 1.
        let mut g = CsdfGraph::new();
        let a = g.add_actor("A", vec![10, 1]);
        let b = g.add_sdf_actor("B", 1);
        g.add_edge("ab", a, vec![1, 1], b, vec![1], 0);
        let h = expand_to_hsdf(&g).unwrap();
        // A contributes 2 firing nodes with durations 10 and 1.
        assert_eq!(h.durations.iter().filter(|&&d| d == 10).count(), 1);
        // Period per iteration: A's cycle = 11; B fires twice per iteration in
        // sequence gated by A.
        let mcm = max_cycle_ratio(&h).unwrap().unwrap();
        assert_eq!(mcm, rat(11, 1));
    }

    #[test]
    fn initial_tokens_cross_iterations() {
        // A -1-> (d=2) -1-> B, plus B -1-> A closing cycle without delay:
        // cycle has 2 tokens: ratio (1+1)/2 = 1; self edges dominate.
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 6);
        let b = g.add_sdf_actor("B", 2);
        g.add_sdf_edge("ab", a, 1, b, 1, 2);
        g.add_sdf_edge("ba", b, 1, a, 1, 0);
        let mcm = mcm_period(&g).unwrap().unwrap();
        assert_eq!(mcm, rat(6, 1));
        let t = crate::simulate::simulate(&g, 40).unwrap();
        assert_eq!(t.period_estimate(b).unwrap(), rat(6, 1));
    }

    #[test]
    fn ratio_test_overflow_is_an_error() {
        let h = Hsdf {
            durations: vec![u64::MAX],
            arcs: vec![(0, 0, 1)],
            labels: vec!["A#0".into()],
        };
        assert_eq!(has_cycle_ratio_above(&h, rat(1, 2)), Ok(true));
        assert_eq!(
            has_cycle_ratio_above(&h, rat(1, 1 << 70)),
            Err(McmError::Overflow)
        );
    }

    #[test]
    fn simplest_in_basics() {
        assert_eq!(simplest_in(rat(0, 1), rat(1, 1)), rat(1, 1));
        assert_eq!(simplest_in(rat(1, 3), rat(1, 2)), rat(1, 2));
        assert_eq!(
            simplest_in(rat(5, 2), rat(11, 4)),
            rat(11, 4).min(rat(8, 3))
        );
        // interval (2.5, 2.75]: simplest is 8/3? No: 2.6=13/5, 2.75=11/4, 8/3≈2.667.
        // denominators: 11/4 (4), 8/3 (3) => 8/3 is simpler and inside.
        assert_eq!(simplest_in(rat(5, 2), rat(11, 4)), rat(8, 3));
        // A unit-width interval above an integer: picks the next integer.
        assert_eq!(simplest_in(rat(7, 2), rat(9, 2)), rat(4, 1));
    }

    #[test]
    fn mcm_equals_simulation_on_random_small_graphs() {
        // Deterministic pseudo-random small strongly-connected graphs.
        let mut seed = 0x12345678u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for case in 0..25 {
            let n = 2 + (rng() % 3) as usize;
            let mut g = CsdfGraph::new();
            let actors: Vec<_> = (0..n)
                .map(|i| g.add_sdf_actor(format!("a{i}"), 1 + rng() % 9))
                .collect();
            // Ring with enough tokens to avoid deadlock.
            for i in 0..n {
                let j = (i + 1) % n;
                let d = if i == n - 1 { 1 + rng() % 3 } else { rng() % 2 };
                g.add_sdf_edge(format!("e{i}"), actors[i], 1, actors[j], 1, d);
            }
            match mcm_period(&g) {
                Ok(Some(mcm)) => {
                    let t = crate::simulate::simulate(&g, 60).unwrap();
                    if t.deadlocked {
                        continue;
                    }
                    let sim = t.period_estimate(actors[0]).unwrap();
                    assert_eq!(mcm, sim, "case {case}: MCM {mcm} != sim {sim}");
                }
                Ok(None) => {}
                Err(McmError::ZeroDelayCycle) => {
                    let t = crate::simulate::simulate(&g, 5).unwrap();
                    assert!(
                        t.deadlocked,
                        "case {case}: MCM says deadlock, sim disagrees"
                    );
                }
                Err(e) => panic!("case {case}: {e}"),
            }
        }
    }
}
