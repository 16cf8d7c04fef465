//! Repetition vectors and consistency of (C)SDF graphs.
//!
//! For a CSDF graph, the balance equations are stated over complete phase
//! cycles: if `r_i` is the number of *cycles* actor `i` executes per graph
//! iteration, then for every edge `e = (u, v)`
//!
//! ```text
//!   r_u · Σ_p production_e[p]  ==  r_v · Σ_p consumption_e[p]
//! ```
//!
//! A graph is *consistent* iff a strictly positive solution exists; the
//! smallest integral solution is the repetition vector. Firing counts per
//! iteration are `r_i · phases(i)`.

use crate::graph::{ActorId, CsdfGraph, GraphError};
use streamgate_ilp::{gcd, lcm, Rational};

/// Repetition vector of a consistent graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepetitionVector {
    /// Phase-cycle counts per actor (index-aligned with actor ids).
    pub cycles: Vec<u64>,
}

impl RepetitionVector {
    /// Cycles for one actor.
    pub fn cycles_of(&self, a: ActorId) -> u64 {
        self.cycles[a.index()]
    }

    /// Firings (phase executions) of one actor per iteration.
    pub fn firings_of(&self, g: &CsdfGraph, a: ActorId) -> u64 {
        self.cycles[a.index()] * g.actor(a).phases() as u64
    }

    /// Sum of firings over all actors (size of one iteration).
    pub fn total_firings(&self, g: &CsdfGraph) -> u64 {
        g.actor_ids().map(|a| self.firings_of(g, a)).sum()
    }
}

/// Compute the repetition vector, or report inconsistency.
///
/// Works on each weakly-connected component independently; actors in
/// separate components are normalised independently (each component's
/// smallest cycle count pattern), which matches the usual convention.
/// Rates whose products leave `i128`, or a count that leaves `u64`, are
/// [`GraphError::Overflow`].
pub fn repetition_vector(g: &CsdfGraph) -> Result<RepetitionVector, GraphError> {
    g.validate()?;
    let n = g.num_actors();
    let mut ratio: Vec<Option<Rational>> = vec![None; n];

    // Adjacency over edges for propagation.
    let mut adj: Vec<Vec<(usize, Rational)>> = vec![Vec::new(); n];
    for e in g.edge_ids() {
        let edge = g.edge(e);
        let p = Rational::from_int(edge.production_per_cycle() as i128);
        let c = Rational::from_int(edge.consumption_per_cycle() as i128);
        // r_src * p == r_dst * c  =>  r_dst = r_src * p / c
        adj[edge.src.index()].push((edge.dst.index(), p / c));
        adj[edge.dst.index()].push((edge.src.index(), c / p));
    }

    let mut component: Vec<usize> = vec![usize::MAX; n];
    let mut n_components = 0usize;
    for start in 0..n {
        if ratio[start].is_some() {
            continue;
        }
        let comp = n_components;
        n_components += 1;
        ratio[start] = Some(Rational::ONE);
        component[start] = comp;
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            let ru = ratio[u].unwrap();
            for &(v, ref k) in &adj[u] {
                let rv = ru.checked_mul(k).ok_or(GraphError::Overflow)?;
                match ratio[v] {
                    None => {
                        ratio[v] = Some(rv);
                        component[v] = comp;
                        stack.push(v);
                    }
                    Some(existing) => {
                        if existing != rv {
                            // Find an edge name touching v for the report.
                            let edge_name = g
                                .edge_ids()
                                .map(|e| g.edge(e))
                                .find(|e| e.src.index() == v || e.dst.index() == v)
                                .map(|e| e.name.clone())
                                .unwrap_or_default();
                            return Err(GraphError::Inconsistent { edge: edge_name });
                        }
                    }
                }
            }
        }
    }

    // Verify every edge (covers multi-edges between already-connected nodes).
    for e in g.edge_ids() {
        let edge = g.edge(e);
        let ru = ratio[edge.src.index()].unwrap();
        let rv = ratio[edge.dst.index()].unwrap();
        let p = Rational::from_int(edge.production_per_cycle() as i128);
        let c = Rational::from_int(edge.consumption_per_cycle() as i128);
        let balance = ru.checked_mul(&p).zip(rv.checked_mul(&c));
        let (produced, consumed) = balance.ok_or(GraphError::Overflow)?;
        if produced != consumed {
            return Err(GraphError::Inconsistent {
                edge: edge.name.clone(),
            });
        }
    }

    // Scale each connected component independently to its smallest positive
    // integer vector.
    let mut ints: Vec<i128> = vec![0; n];
    for comp in 0..n_components {
        let members: Vec<usize> = (0..n).filter(|&i| component[i] == comp).collect();
        let mut denom_lcm: i128 = 1;
        for &i in &members {
            denom_lcm = lcm(denom_lcm, ratio[i].unwrap().denom()).ok_or(GraphError::Overflow)?;
        }
        let mut g_all: i128 = 0;
        for &i in &members {
            let r = ratio[i].unwrap();
            ints[i] = r
                .numer()
                .checked_mul(denom_lcm / r.denom())
                .ok_or(GraphError::Overflow)?;
            g_all = gcd(g_all, ints[i]);
        }
        if g_all > 1 {
            for &i in &members {
                ints[i] /= g_all;
            }
        }
    }
    let cycles: Option<Vec<u64>> = ints.into_iter().map(|v| u64::try_from(v).ok()).collect();
    Ok(RepetitionVector {
        cycles: cycles.ok_or(GraphError::Overflow)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CsdfGraph;

    #[test]
    fn simple_chain() {
        // A -2-> -3-> B : r = (3, 2)
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 1);
        let b = g.add_sdf_actor("B", 1);
        g.add_sdf_edge("ab", a, 2, b, 3, 0);
        let r = repetition_vector(&g).unwrap();
        assert_eq!(r.cycles, vec![3, 2]);
        assert_eq!(r.firings_of(&g, a), 3);
        assert_eq!(r.total_firings(&g), 5);
    }

    #[test]
    fn three_stage_pipeline() {
        // A -1-> -2-> B -3-> -1-> C : r = (2, 1, 3)
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 1);
        let b = g.add_sdf_actor("B", 1);
        let c = g.add_sdf_actor("C", 1);
        g.add_sdf_edge("ab", a, 1, b, 2, 0);
        g.add_sdf_edge("bc", b, 3, c, 1, 0);
        let r = repetition_vector(&g).unwrap();
        assert_eq!(r.cycles, vec![2, 1, 3]);
    }

    #[test]
    fn inconsistent_cycle() {
        // A -2-> B -1-> A with mismatched return rate.
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 1);
        let b = g.add_sdf_actor("B", 1);
        g.add_sdf_edge("ab", a, 2, b, 1, 0);
        g.add_sdf_edge("ba", b, 1, a, 1, 0); // would need b:a = 2:1 AND 1:1
        assert!(repetition_vector(&g).is_err());
    }

    #[test]
    fn consistent_cycle_with_delays() {
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 1);
        let b = g.add_sdf_actor("B", 1);
        g.add_sdf_edge("ab", a, 2, b, 1, 0);
        g.add_sdf_edge("ba", b, 1, a, 2, 4);
        let r = repetition_vector(&g).unwrap();
        assert_eq!(r.cycles, vec![1, 2]);
    }

    #[test]
    fn csdf_cycle_totals() {
        // CSDF producer with phases (1,0) — 1 token per 2 phases.
        let mut g = CsdfGraph::new();
        let a = g.add_actor("A", vec![1, 1]);
        let b = g.add_sdf_actor("B", 1);
        g.add_edge("ab", a, vec![1, 0], b, vec![1], 0);
        let r = repetition_vector(&g).unwrap();
        assert_eq!(r.cycles, vec![1, 1]);
        assert_eq!(r.firings_of(&g, a), 2);
        assert_eq!(r.firings_of(&g, b), 1);
    }

    #[test]
    fn disconnected_components() {
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 1);
        let b = g.add_sdf_actor("B", 1);
        let c = g.add_sdf_actor("C", 1);
        let d = g.add_sdf_actor("D", 1);
        g.add_sdf_edge("ab", a, 1, b, 2, 0);
        g.add_sdf_edge("cd", c, 5, d, 1, 0);
        let r = repetition_vector(&g).unwrap();
        assert_eq!(r.cycles, vec![2, 1, 1, 5]);
    }

    /// A chain `A0 -3-> -2-> A1 -3-> -2-> …` with `edges` edges: actor k
    /// fires `3^k · 2^(edges−k)` times per iteration.
    fn coprime_chain(edges: usize) -> CsdfGraph {
        let mut g = CsdfGraph::new();
        let mut prev = g.add_sdf_actor("A0", 1);
        for k in 1..=edges {
            let next = g.add_sdf_actor(format!("A{k}"), 1);
            g.add_sdf_edge(format!("e{k}"), prev, 3, next, 2, 0);
            prev = next;
        }
        g
    }

    #[test]
    fn counts_beyond_u64_are_an_overflow_error() {
        // 3^40 < 2^64 < 3^41.
        let r = repetition_vector(&coprime_chain(40)).unwrap();
        assert_eq!((r.cycles[0], r.cycles[40]), (1 << 40, 3u64.pow(40)));
        assert_eq!(
            repetition_vector(&coprime_chain(41)),
            Err(GraphError::Overflow)
        );
        // 3^81 leaves i128 while the rates propagate.
        assert_eq!(
            repetition_vector(&coprime_chain(100)),
            Err(GraphError::Overflow)
        );
    }

    #[test]
    fn paper_fig5_stream_model_is_consistent() {
        // Simplified Fig. 5: vP -> vG0 (ηs per cycle) -> vA -> vG1 -> vC, ηs = 4.
        let eta = 4usize;
        let mut g = CsdfGraph::new();
        let p = g.add_sdf_actor("vP", 2);
        // vG0: ηs phases (first has reconfig), transfers 1 token per phase.
        let mut g0_dur = vec![100u64];
        g0_dur.extend(std::iter::repeat_n(1, eta - 1));
        let g0 = g.add_actor("vG0", g0_dur);
        let a = g.add_sdf_actor("vA", 1);
        let g1 = g.add_actor("vG1", vec![1; eta]);
        let c = g.add_sdf_actor("vC", 3);
        // vP produces 1 token/firing; vG0 consumes ηs in its first phase.
        let mut cons = vec![eta as u64];
        cons.extend(std::iter::repeat_n(0, eta - 1));
        g.add_edge("p_g0", p, vec![1], g0, cons, 0);
        g.add_edge("g0_a", g0, vec![1; eta], a, vec![1], 0);
        g.add_edge("a_g1", a, vec![1], g1, vec![1; eta], 0);
        g.add_edge("g1_c", g1, vec![1; eta], c, vec![1], 0);
        let r = repetition_vector(&g).unwrap();
        // per iteration: vP fires ηs times, vG0 one cycle, vA ηs, vG1 one cycle, vC ηs.
        assert_eq!(r.cycles, vec![eta as u64, 1, eta as u64, 1, eta as u64]);
    }
}
