//! Minimum buffer capacities under a throughput constraint.
//!
//! A bounded FIFO of capacity `α` between producer `u` and consumer `v` is
//! modelled (paper §V-A) by the forward data edge plus a complementary back
//! edge `v → u` whose initial tokens are the free locations `α − d` (with `d`
//! the initial data tokens). Space is *claimed* when the producer starts a
//! firing (consumption from the back edge at start) and *released* when the
//! consumer finishes one (production on the back edge at end).
//!
//! Feasibility of a capacity assignment is decided exactly with one
//! parametric cycle test of [`crate::mcm`]: the reference actor's
//! steady-state period `MCM / f` (with `f` its firings per iteration) meets
//! the target iff no cycle ratio exceeds `target · f`, so [`feasible`] never
//! computes the period itself. [`period_with_capacities`] does, via the
//! exact MCM, and is the reference the tests compare [`feasible`] against.
//!
//! Only the back edges depend on the capacities. A search therefore
//! prepares its problem once — the HSDF node layout and durations, the
//! sequencing and data-edge arcs, and `λ = target · f` as an integer
//! ratio — and each test builds just the back-edge arcs of its capacity
//! vector, then runs the zero-delay (deadlock) check and one integer
//! positive-cycle test: no graph clone, name or map per test. [`feasible`]
//! is that prepare-then-test for a single vector;
//! [`min_buffer_for_period`] and [`min_buffers_for_period`] prepare once
//! per call.
//!
//! Capacity feasibility is monotone per channel
//! (adding space never slows a self-timed execution down — dataflow
//! monotonicity), so per-channel minima are found by doubling + binary
//! search. **Total** capacity, however, is *not* monotone in the block size
//! of the application model — the paper demonstrates this in Fig. 8, and
//! experiment E3 reproduces it with this module.

use crate::graph::{CsdfGraph, EdgeId, Time};
use crate::mcm::{
    dedup_arcs, mcm_period, positive_cycle, zero_delay_cycle, HsdfArc, Layout, McmError,
};
use crate::repetition::repetition_vector;
use streamgate_ilp::Rational;

/// A buffer-sizing problem: a graph, the channel edges to bound, the actor
/// whose steady-state period is constrained, and the period target.
#[derive(Clone, Debug)]
pub struct BufferProblem {
    /// The graph with *unbounded* channels (no back edges yet).
    pub graph: CsdfGraph,
    /// Channel edges that receive a capacity.
    pub channels: Vec<EdgeId>,
    /// Actor whose period is constrained.
    pub reference: crate::graph::ActorId,
    /// Maximum allowed steady-state period of `reference`, in cycles per
    /// firing.
    pub target_period: Rational,
}

/// Result of a buffer-sizing run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BufferResult {
    /// Capacity per channel (aligned with `BufferProblem::channels`).
    pub capacities: Vec<u64>,
    /// Sum of capacities.
    pub total: u64,
}

/// Clone `g` and add back edges implementing the given capacities.
///
/// Panics if a capacity is smaller than the channel's initial tokens.
pub fn with_capacities(g: &CsdfGraph, channels: &[EdgeId], caps: &[u64]) -> CsdfGraph {
    assert_eq!(channels.len(), caps.len());
    let mut out = g.clone();
    for (e, &cap) in channels.iter().zip(caps) {
        let edge = g.edge(*e).clone();
        assert!(
            cap >= edge.initial_tokens,
            "capacity {cap} below initial tokens {} on {}",
            edge.initial_tokens,
            edge.name
        );
        out.add_edge(
            format!("{}^space", edge.name),
            edge.dst,
            edge.consumption.clone(),
            edge.src,
            edge.production.clone(),
            cap - edge.initial_tokens,
        );
    }
    out
}

/// Exact steady-state period of `reference` under the given capacities, or
/// `None` if the bounded graph deadlocks.
pub fn period_with_capacities(
    p: &BufferProblem,
    caps: &[u64],
) -> Result<Option<Rational>, McmError> {
    let g = with_capacities(&p.graph, &p.channels, caps);
    let rep = repetition_vector(&g)?;
    let f = rep.firings_of(&g, p.reference);
    match mcm_period(&g) {
        Ok(Some(mcm)) => Ok(Some(mcm / Rational::from_int(f as i128))),
        Ok(None) => Ok(Some(Rational::ZERO)),
        Err(McmError::ZeroDelayCycle) => Ok(None),
        Err(e) => Err(e),
    }
}

/// True iff the capacities meet the problem's period target — exactly
/// `period_with_capacities(p, caps)? <= target_period`, with a deadlock
/// infeasible, decided by one positive-cycle test at
/// `λ = target_period · firings(reference)` instead of the MCM bisection.
pub fn feasible(p: &BufferProblem, caps: &[u64]) -> Result<bool, McmError> {
    Prepared::new(p)?.feasible(caps)
}

/// The capacity-independent part of [`feasible`] for one problem, computed
/// once: the HSDF node layout and durations, the sequencing and data-edge
/// arcs, and `λ`. A test adds only the back-edge arcs of its capacities.
///
/// Back edges never change the repetition vector: each one balances with
/// the forward edge it mirrors, between two actors that edge already
/// connects. So the bounded graph's layout is the unbounded graph's.
struct Prepared<'a> {
    problem: &'a BufferProblem,
    layout: Layout,
    durations: Vec<Time>,
    /// Sequencing and data-edge arcs, deduplicated.
    fixed: Vec<HsdfArc>,
    /// `λ = p/q`, or `None` when `target_period · firings(reference)`
    /// leaves `i128` (an error only once the graph is known to be live).
    lambda: Option<(i128, i128)>,
    /// The arcs of the current test (reused across tests).
    arcs: Vec<HsdfArc>,
}

impl<'a> Prepared<'a> {
    fn new(problem: &'a BufferProblem) -> Result<Prepared<'a>, McmError> {
        let g = &problem.graph;
        let layout = Layout::of(g)?;
        let f = layout.firings(problem.reference);
        let lambda = problem
            .target_period
            .checked_mul(&Rational::from_int(f as i128))
            .map(|l| (l.numer(), l.denom()));
        let (durations, fixed) = layout.expand(g);
        Ok(Prepared {
            problem,
            durations,
            layout,
            arcs: Vec::with_capacity(fixed.len()),
            fixed,
            lambda,
        })
    }

    /// [`feasible`] for one capacity vector.
    ///
    /// Panics if a capacity is smaller than the channel's initial tokens.
    fn feasible(&mut self, caps: &[u64]) -> Result<bool, McmError> {
        let p = self.problem;
        assert_eq!(p.channels.len(), caps.len());
        self.arcs.clear();
        self.arcs.extend_from_slice(&self.fixed);
        for (e, &cap) in p.channels.iter().zip(caps) {
            let edge = p.graph.edge(*e);
            assert!(
                cap >= edge.initial_tokens,
                "capacity {cap} below initial tokens {} on {}",
                edge.initial_tokens,
                edge.name
            );
            // The back edge `dst → src` holds the free locations.
            self.layout.token_arcs(
                (edge.dst, &edge.consumption),
                (edge.src, &edge.production),
                cap - edge.initial_tokens,
                &mut self.arcs,
            );
        }
        dedup_arcs(&mut self.arcs);
        if zero_delay_cycle(self.durations.len(), &self.arcs) {
            return Ok(false);
        }
        let (num, den) = self.lambda.ok_or(McmError::Overflow)?;
        Ok(!positive_cycle(&self.durations, &self.arcs, num, den)?)
    }

    /// The box [`min_buffers_for_period`] searches: per channel, its
    /// smallest meaningful capacity and its minimum with every other
    /// channel at `cap_limit` (or above, where a channel needs more).
    /// `None` if some channel cannot meet the target within `cap_limit`.
    fn search_box(&mut self, cap_limit: u64) -> Result<Option<SearchBox>, McmError> {
        let p = self.problem;
        let floors: Vec<u64> = p
            .channels
            .iter()
            .map(|e| min_meaningful_capacity(&p.graph, *e))
            .collect();
        let wide: Vec<u64> = floors.iter().map(|&f| cap_limit.max(f)).collect();
        let mut ubs = Vec::with_capacity(floors.len());
        for i in 0..floors.len() {
            match self.min_capacity(i, &wide, cap_limit)? {
                Some(ub) => ubs.push(ub),
                None => return Ok(None),
            }
        }
        Ok(Some(SearchBox { floors, ubs }))
    }

    /// Smallest capacity of channel `idx` meeting the target with the other
    /// channels at `others`, searched in `[floor, cap_limit]`.
    fn min_capacity(
        &mut self,
        idx: usize,
        others: &[u64],
        cap_limit: u64,
    ) -> Result<Option<u64>, McmError> {
        let floor = min_meaningful_capacity(&self.problem.graph, self.problem.channels[idx]);
        let mut caps = others.to_vec();
        let mut try_cap = |c: u64| -> Result<bool, McmError> {
            caps[idx] = c;
            self.feasible(&caps)
        };

        // Exponential search for a feasible upper bound.
        let mut hi = floor.max(1);
        loop {
            if try_cap(hi)? {
                break;
            }
            if hi >= cap_limit {
                return Ok(None);
            }
            hi = (hi * 2).min(cap_limit);
        }
        // Binary search smallest feasible in [floor, hi].
        let mut lo = floor;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if try_cap(mid)? {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Ok(Some(hi))
    }
}

/// Per channel, the capacities [`min_buffers_for_period`] searches:
/// `floors[i]..=ubs[i]`.
struct SearchBox {
    floors: Vec<u64>,
    ubs: Vec<u64>,
}

/// The maximum throughput period of the *unbounded* graph — the tightest
/// target any finite capacity can reach.
pub fn unbounded_period(
    g: &CsdfGraph,
    reference: crate::graph::ActorId,
) -> Result<Option<Rational>, McmError> {
    let rep = repetition_vector(g)?;
    let f = rep.firings_of(g, reference);
    Ok(mcm_period(g)?.map(|m| m / Rational::from_int(f as i128)))
}

/// Smallest capacity for a single channel meeting the period target, with
/// all other channels held at `others` (parallel capacities). Returns `None`
/// if no capacity up to `cap_limit` is feasible.
pub fn min_buffer_for_period(
    p: &BufferProblem,
    channel_idx: usize,
    others: &[u64],
    cap_limit: u64,
) -> Result<Option<u64>, McmError> {
    Prepared::new(p)?.min_capacity(channel_idx, others, cap_limit)
}

/// Smallest capacity that lets the producer fire at all: max of the initial
/// tokens, the largest production quantum and the largest consumption
/// quantum.
pub fn min_meaningful_capacity(g: &CsdfGraph, e: EdgeId) -> u64 {
    let edge = g.edge(e);
    let pmax = edge.production.iter().copied().max().unwrap_or(0);
    let cmax = edge.consumption.iter().copied().max().unwrap_or(0);
    edge.initial_tokens.max(pmax).max(cmax)
}

/// Minimum **total** capacity assignment meeting the period target.
///
/// Searches the box `[floor_i, ub_i]` per channel, where `ub_i` is the
/// per-channel minimum with all other channels wide open — a valid upper
/// bound because capacity is per-channel monotone. The first k − 1
/// channels' capacities are enumerated in lexicographic order; for each,
/// the last channel's minimum is binary-searched (monotone too) below the
/// best total so far. Only a strictly smaller total replaces the best, so
/// the result is the first feasible vector in (total, lexicographic)
/// order, the one a walk of the whole box sorted by total would return.
/// Intended for the small channel counts (≤ 4) of the paper's models;
/// returns `None` if the target is unreachable within `cap_limit`.
pub fn min_buffers_for_period(
    p: &BufferProblem,
    cap_limit: u64,
) -> Result<Option<BufferResult>, McmError> {
    let k = p.channels.len();
    assert!(k >= 1, "no channels to size");
    assert!(k <= 4, "exhaustive buffer search limited to 4 channels");

    let mut prep = Prepared::new(p)?;
    let Some(SearchBox { floors, ubs }) = prep.search_box(cap_limit)? else {
        return Ok(None);
    };
    let last = k - 1;
    let mut caps = floors.clone();
    let mut best: Option<BufferResult> = None;
    loop {
        let prefix: u64 = caps[..last].iter().sum();
        // Largest last capacity whose total beats the best so far.
        let beat = best.as_ref().map_or(u64::MAX, |b| b.total - 1);
        let mut hi = ubs[last].min(beat.saturating_sub(prefix));
        caps[last] = hi;
        if hi >= floors[last] && prefix <= beat && prep.feasible(&caps)? {
            let mut lo = floors[last];
            while lo < hi {
                caps[last] = lo + (hi - lo) / 2;
                if prep.feasible(&caps)? {
                    hi = caps[last];
                } else {
                    lo = caps[last] + 1;
                }
            }
            caps[last] = hi;
            best = Some(BufferResult {
                capacities: caps.clone(),
                total: prefix + hi,
            });
        }
        // The next prefix in lexicographic order, if any.
        let Some(i) = (0..last).rev().find(|&i| caps[i] < ubs[i]) else {
            return Ok(best);
        };
        caps[i] += 1;
        caps[i + 1..last].copy_from_slice(&floors[i + 1..last]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CsdfGraph;
    use streamgate_ilp::rat;

    /// Producer(ρ=2) -> Consumer(ρ=3), single channel.
    fn simple_chain() -> (
        CsdfGraph,
        crate::graph::ActorId,
        crate::graph::ActorId,
        EdgeId,
    ) {
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 2);
        let b = g.add_sdf_actor("B", 3);
        let e = g.add_sdf_edge("ab", a, 1, b, 1, 0);
        (g, a, b, e)
    }

    /// Minimum capacities of `channels` that sustain the unbounded graph's
    /// period at `reference`.
    fn at_max_throughput(
        g: &CsdfGraph,
        channels: Vec<EdgeId>,
        reference: crate::graph::ActorId,
        cap_limit: u64,
    ) -> BufferResult {
        let p = BufferProblem {
            graph: g.clone(),
            channels,
            reference,
            target_period: unbounded_period(g, reference).unwrap().unwrap(),
        };
        min_buffers_for_period(&p, cap_limit).unwrap().unwrap()
    }

    #[test]
    fn capacity_one_serialises() {
        let (g, _a, b, e) = simple_chain();
        // α = 1: producer must wait for the consumer to finish each token:
        // period = 2 + 3 = 5.
        let p = BufferProblem {
            graph: g,
            channels: vec![e],
            reference: b,
            target_period: rat(5, 1),
        };
        assert!(feasible(&p, &[1]).unwrap());
        let per = period_with_capacities(&p, &[1]).unwrap().unwrap();
        assert_eq!(per, rat(5, 1));
    }

    #[test]
    fn capacity_two_pipelines() {
        let (g, _a, b, e) = simple_chain();
        // α = 2: full pipelining; consumer-bound period 3.
        let p = BufferProblem {
            graph: g,
            channels: vec![e],
            reference: b,
            target_period: rat(3, 1),
        };
        assert!(!feasible(&p, &[1]).unwrap());
        assert!(feasible(&p, &[2]).unwrap());
        assert_eq!(min_buffer_for_period(&p, 0, &[0], 64).unwrap(), Some(2));
    }

    #[test]
    fn unbounded_period_is_bottleneck() {
        let (g, _a, b, _e) = simple_chain();
        assert_eq!(unbounded_period(&g, b).unwrap().unwrap(), rat(3, 1));
    }

    #[test]
    fn max_throughput_helper() {
        let (g, _a, b, e) = simple_chain();
        let r = at_max_throughput(&g, vec![e], b, 64);
        assert_eq!(r.capacities, vec![2]);
        assert_eq!(r.total, 2);
    }

    #[test]
    fn infeasible_target_reported() {
        let (g, _a, b, e) = simple_chain();
        let p = BufferProblem {
            graph: g,
            channels: vec![e],
            reference: b,
            target_period: rat(2, 1), // consumer alone needs 3
        };
        assert_eq!(min_buffer_for_period(&p, 0, &[0], 256).unwrap(), None);
        assert_eq!(min_buffers_for_period(&p, 256).unwrap(), None);
    }

    #[test]
    fn multirate_block_consumer() {
        // A(1) -1-> -η-> B(5), η = 4: B consumes blocks of 4.
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 1);
        let b = g.add_sdf_actor("B", 5);
        let e = g.add_sdf_edge("ab", a, 1, b, 4, 0);
        // Unbounded: B's period = max(5, producer feeding 4 tokens in 4 cycles) = 5.
        assert_eq!(unbounded_period(&g, b).unwrap().unwrap(), rat(5, 1));
        let r = at_max_throughput(&g, vec![e], b, 256);
        // B needs 4 tokens present; sustaining period 5 needs a little slack
        // for the producer to run ahead while B drains.
        assert!(r.capacities[0] >= 4, "capacity {:?}", r.capacities);
        // And the found capacity must indeed be feasible and minimal:
        let p = BufferProblem {
            graph: g,
            channels: vec![e],
            reference: b,
            target_period: rat(5, 1),
        };
        assert!(feasible(&p, &r.capacities).unwrap());
        assert!(!feasible(&p, &[r.capacities[0] - 1]).unwrap());
    }

    #[test]
    fn two_channel_chain_total_minimum() {
        // A(2) -> B(2) -> C(2), both channels sized, target fully pipelined.
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 2);
        let b = g.add_sdf_actor("B", 2);
        let c = g.add_sdf_actor("C", 2);
        let e1 = g.add_sdf_edge("ab", a, 1, b, 1, 0);
        let e2 = g.add_sdf_edge("bc", b, 1, c, 1, 0);
        let r = at_max_throughput(&g, vec![e1, e2], c, 64);
        // With equal durations, capacity 2 per channel sustains period 2.
        assert_eq!(r.capacities, vec![2, 2]);
    }

    #[test]
    fn initial_tokens_count_against_capacity() {
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 2);
        let b = g.add_sdf_actor("B", 2);
        let e = g.add_sdf_edge("ab", a, 1, b, 1, 3);
        let bounded = with_capacities(&g, &[e], &[4]);
        // Back edge must start with 4 - 3 = 1 free location.
        let back = bounded.edge_by_name("ab^space").unwrap();
        assert_eq!(bounded.edge(back).initial_tokens, 1);
    }

    #[test]
    #[should_panic(expected = "below initial tokens")]
    fn capacity_below_initial_tokens_panics() {
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 1);
        let b = g.add_sdf_actor("B", 1);
        let e = g.add_sdf_edge("ab", a, 1, b, 1, 3);
        let _ = with_capacities(&g, &[e], &[2]);
    }

    #[test]
    fn zero_duration_deadlock_is_infeasible() {
        // With zero durations the deadlocked cycle has weight 0, which the
        // positive-cycle test alone would accept; the deadlock check must not.
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 0);
        let b = g.add_sdf_actor("B", 0);
        let e = g.add_sdf_edge("ab", a, 1, b, 1, 0);
        let p = BufferProblem {
            graph: g,
            channels: vec![e],
            reference: b,
            target_period: rat(1, 1),
        };
        assert_eq!(period_with_capacities(&p, &[0]).unwrap(), None);
        assert!(!feasible(&p, &[0]).unwrap());
        assert!(feasible(&p, &[1]).unwrap());
    }

    /// The search [`min_buffers_for_period`] replaced, kept as its oracle:
    /// every vector of the box in lexicographic order, stable-sorted by
    /// total; the first feasible one wins.
    fn box_walk(p: &BufferProblem, cap_limit: u64) -> Result<Option<BufferResult>, McmError> {
        let mut prep = Prepared::new(p)?;
        let Some(SearchBox { floors, ubs }) = prep.search_box(cap_limit)? else {
            return Ok(None);
        };
        let mut candidates: Vec<Vec<u64>> = vec![vec![]];
        for i in 0..p.channels.len() {
            let mut next = Vec::new();
            for c in &candidates {
                for v in floors[i]..=ubs[i] {
                    let mut c2 = c.clone();
                    c2.push(v);
                    next.push(c2);
                }
            }
            candidates = next;
        }
        candidates.sort_by_key(|c| c.iter().sum::<u64>());
        for caps in candidates {
            if prep.feasible(&caps)? {
                let total = caps.iter().sum();
                return Ok(Some(BufferResult {
                    capacities: caps,
                    total,
                }));
            }
        }
        Ok(None)
    }

    #[test]
    fn search_matches_box_walk_on_three_channels() {
        // A(1) -2-> -3-> B(2) -1-> -2-> C(3) -3-> -1-> D(1): three channels
        // with different quanta, at and above the unbounded period.
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 1);
        let b = g.add_sdf_actor("B", 2);
        let c = g.add_sdf_actor("C", 3);
        let d = g.add_sdf_actor("D", 1);
        let e1 = g.add_sdf_edge("ab", a, 2, b, 3, 0);
        let e2 = g.add_sdf_edge("bc", b, 1, c, 2, 0);
        let e3 = g.add_sdf_edge("cd", c, 3, d, 1, 0);
        let fastest = unbounded_period(&g, d).unwrap().unwrap();
        for slack in [rat(1, 1), rat(5, 4), rat(2, 1)] {
            let p = BufferProblem {
                graph: g.clone(),
                channels: vec![e1, e2, e3],
                reference: d,
                target_period: fastest * slack,
            };
            let got = min_buffers_for_period(&p, 32).unwrap();
            assert!(got.is_some(), "slack {slack}");
            assert_eq!(got, box_walk(&p, 32).unwrap(), "slack {slack}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// The Fig. 7 chain rule A2 sizes (`vP` → `vS` in blocks of η →
        /// `vC`), against a target period from just below the unbounded
        /// graph's to three eighths above it: the search returns exactly
        /// the box walk's vector, or `None` with it. η is drawn from 1–64,
        /// log-uniformly so that the quadratic walk stays affordable in
        /// debug builds.
        #[test]
        fn search_matches_box_walk_on_fig7_chains(
            (eta_bits, eta_frac) in (0u32..=6, 0u64..=63),
            (gamma_hat, rho_p, rho_c) in (1u64..=2_000, 1u64..=64, 1u64..=8),
            (slack, slack_den) in (-1i128..=3, 8i128..=64),
        ) {
            let eta = (1u64 << eta_bits) + eta_frac % (1u64 << eta_bits);
            let eta = eta.min(64);
            let mut g = CsdfGraph::new();
            let v_p = g.add_sdf_actor("vP", rho_p);
            let v_s = g.add_sdf_actor("vS", gamma_hat);
            let v_c = g.add_sdf_actor("vC", rho_c);
            let b = g.add_sdf_edge("b", v_p, 1, v_s, eta, 0);
            let d = g.add_sdf_edge("d", v_s, eta, v_c, 1, 0);
            let fastest = unbounded_period(&g, v_c).unwrap().unwrap();
            let p = BufferProblem {
                graph: g,
                channels: vec![b, d],
                reference: v_c,
                target_period: fastest * rat(slack_den + slack, slack_den),
            };
            let cap_limit = 8 * eta + 64;
            let got = min_buffers_for_period(&p, cap_limit).unwrap();
            proptest::prop_assert_eq!(got, box_walk(&p, cap_limit).unwrap());
        }
    }

    #[test]
    fn feasibility_monotone_in_capacity() {
        let (g, _a, b, e) = simple_chain();
        let p = BufferProblem {
            graph: g,
            channels: vec![e],
            reference: b,
            target_period: rat(3, 1),
        };
        let mut prev = false;
        for cap in 1..8 {
            let f = feasible(&p, &[cap]).unwrap();
            assert!(!prev || f, "feasibility must be monotone in capacity");
            prev = f;
        }
    }
}
