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

use crate::graph::{ActorId, CsdfGraph, GraphError, Time};
use crate::repetition::repetition_vector;
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

/// An HSDF arc `(src, dst, delay)`.
pub(crate) type HsdfArc = (usize, usize, u64);

/// Node layout of one graph iteration: the firings of actor `a` are the
/// nodes `base[a] .. base[a] + firings[a]`.
pub(crate) struct Layout {
    firings: Vec<usize>,
    base: Vec<usize>,
}

impl Layout {
    /// The layout of a consistent graph, from its repetition vector.
    pub(crate) fn of(g: &CsdfGraph) -> Result<Layout, McmError> {
        let rep = repetition_vector(g)?;
        let firings: Vec<usize> = g
            .actor_ids()
            .map(|a| rep.firings_of(g, a) as usize)
            .collect();
        let mut base = Vec::with_capacity(firings.len());
        let mut total = 0usize;
        for &n in &firings {
            base.push(total);
            total += n;
        }
        Ok(Layout { firings, base })
    }

    /// Firings of actor `a` per iteration.
    pub(crate) fn firings(&self, a: ActorId) -> usize {
        self.firings[a.index()]
    }

    /// The firing duration of every node, and the deduplicated arcs of
    /// `g`: sequencing arcs (the implicit self-edge orders the firings of
    /// every actor) and the token arcs of every edge.
    pub(crate) fn expand(&self, g: &CsdfGraph) -> (Vec<Time>, Vec<HsdfArc>) {
        let mut durations = Vec::new();
        for a in g.actor_ids() {
            let phases = &g.actor(a).durations;
            durations.extend((0..self.firings(a)).map(|k| phases[k % phases.len()]));
        }
        let mut arcs = Vec::new();
        for (&b, &n) in self.base.iter().zip(&self.firings) {
            if n == 1 {
                arcs.push((b, b, 1));
            } else {
                arcs.extend((0..n - 1).map(|k| (b + k, b + k + 1, 0)));
                arcs.push((b + n - 1, b, 1));
            }
        }
        for e in g.edge_ids() {
            let edge = g.edge(e);
            self.token_arcs(
                (edge.src, &edge.production),
                (edge.dst, &edge.consumption),
                edge.initial_tokens,
                &mut arcs,
            );
        }
        dedup_arcs(&mut arcs);
        (durations, arcs)
    }

    /// Token-dependency arcs of one edge `src → dst` with the given
    /// per-phase rates and initial tokens: an arc from the producer firing
    /// of every token to the consumer firing that reads it, with delay the
    /// number of iterations between them.
    pub(crate) fn token_arcs(
        &self,
        (src, production): (ActorId, &[u64]),
        (dst, consumption): (ActorId, &[u64]),
        initial_tokens: u64,
        out: &mut Vec<HsdfArc>,
    ) {
        let (u, v) = (src.index(), dst.index());
        let pu = production.len();
        let n_u = self.firings[u] as i128;
        let d = initial_tokens as i128;

        // Cumulative production prefix over one phase cycle of the producer.
        let mut pre = vec![0i128; pu + 1];
        for p in 0..pu {
            pre[p + 1] = pre[p] + production[p] as i128;
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
        for j in 0..self.firings[v] {
            let need = consumption[j % consumption.len()] as i128;
            for t in 0..need {
                // Many initial tokens come from "firings" far in the past,
                // which floor_div handles.
                let i_raw = producer_firing(consumed + t - d);
                let a_node = i_raw.rem_euclid(n_u) as usize;
                let delta = -floor_div(i_raw, n_u);
                debug_assert!(delta >= 0);
                out.push((self.base[u] + a_node, self.base[v] + j, delta as u64));
            }
            consumed += need;
        }
    }
}

/// Keep one arc per `(src, dst)` pair, the one with the fewest delays (the
/// others are implied by it), sorted by source and destination.
pub(crate) fn dedup_arcs(arcs: &mut Vec<HsdfArc>) {
    arcs.sort_unstable();
    arcs.dedup_by_key(|a| (a.0, a.1));
}

/// Expand a consistent (C)SDF graph into an HSDF graph over one iteration.
pub fn expand_to_hsdf(g: &CsdfGraph) -> Result<Hsdf, McmError> {
    let layout = Layout::of(g)?;
    let mut labels = Vec::new();
    for a in g.actor_ids() {
        let name = &g.actor(a).name;
        labels.extend((0..layout.firings(a)).map(|k| format!("{name}#{k}")));
    }
    let (durations, arcs) = layout.expand(g);
    Ok(Hsdf {
        durations,
        arcs,
        labels,
    })
}

/// True iff the HSDF graph has a cycle whose ratio `Σ dur / Σ delay`
/// strictly exceeds `lambda`. Arc weight is the *source* node's duration.
pub(crate) fn has_cycle_ratio_above(h: &Hsdf, lambda: Rational) -> Result<bool, McmError> {
    positive_cycle(&h.durations, &h.arcs, lambda.numer(), lambda.denom())
}

/// True iff some cycle of the graph with node `durations` and `arcs` has a
/// ratio `Σ dur / Σ delay` above `p/q` (`q > 0`).
///
/// A cycle's ratio exceeds `p/q` iff its integer weight
/// `Σ (q·dur(src) − p·delay)` is positive, so one longest-path
/// Bellman–Ford over those weights decides it exactly. Every product and
/// path sum is checked; leaving `i128` is an error, never a wrap.
pub(crate) fn positive_cycle(
    durations: &[Time],
    arcs: &[HsdfArc],
    p: i128,
    q: i128,
) -> Result<bool, McmError> {
    let n = durations.len();
    if n == 0 {
        return Ok(false);
    }
    let weights = arcs
        .iter()
        .map(|&(s, _, delay)| {
            let dur = q.checked_mul(durations[s] as i128);
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
        for (&(s, d, _), &w) in arcs.iter().zip(&weights) {
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
    unreachable!("the relaxation returns by round n")
}

/// True iff the zero-delay arcs among `n` nodes close a cycle (a deadlock):
/// Kahn's topological sort over them leaves some node unsorted.
pub(crate) fn zero_delay_cycle(n: usize, arcs: &[HsdfArc]) -> bool {
    // Zero-delay successors of node `u`: `succ[start[u]..start[u + 1]]`.
    let mut start = vec![0usize; n + 1];
    let mut indeg = vec![0usize; n];
    for &(s, d, delay) in arcs {
        if delay == 0 {
            start[s + 1] += 1;
            indeg[d] += 1;
        }
    }
    for u in 0..n {
        start[u + 1] += start[u];
    }
    let mut next = start.clone();
    let mut succ = vec![0usize; start[n]];
    for &(s, d, delay) in arcs {
        if delay == 0 {
            succ[next[s]] = d;
            next[s] += 1;
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&u| indeg[u] == 0).collect();
    let mut sorted = 0;
    while let Some(u) = ready.pop() {
        sorted += 1;
        for &v in &succ[start[u]..start[u + 1]] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                ready.push(v);
            }
        }
    }
    sorted < n
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
    if zero_delay_cycle(h.durations.len(), &h.arcs) {
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
