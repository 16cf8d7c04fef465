//! Self-timed execution of (C)SDF graphs.
//!
//! Actors fire as soon as they are enabled (*admissible* schedules in the
//! paper's terminology fire no earlier than enabling; self-timed execution is
//! the earliest admissible schedule and therefore gives the best-case
//! completion times the analysis bounds must dominate).
//!
//! Semantics, matching the analysis models of the paper:
//!
//! * tokens are **consumed at firing start** and **produced at firing end**;
//! * every actor has an implicit self-edge with one token: firings of the
//!   same actor never overlap, and phases execute cyclically in order;
//! * bounded buffers are back edges, so "space" is just tokens on the back
//!   edge and the same start/end rules model space claiming/release.
//!
//! The engine is a discrete-event simulator over a completion-event heap.

use crate::graph::{ActorId, CsdfGraph, EdgeId, Time};
use crate::repetition::repetition_vector;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use streamgate_ilp::Rational;

/// One recorded firing of an actor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Firing {
    /// Start time (tokens consumed here).
    pub start: Time,
    /// End time (tokens produced here).
    pub end: Time,
    /// Phase index executed.
    pub phase: usize,
}

/// Complete trace of a self-timed execution.
#[derive(Clone, Debug)]
pub struct SimTrace {
    /// Firing records per actor (index-aligned with actor ids).
    pub firings: Vec<Vec<Firing>>,
    /// Per edge: availability timestamp of every produced token, in
    /// production order (initial tokens are available at time 0 and are
    /// *not* listed). Only filled when `record_tokens` is set.
    pub token_times: Vec<Vec<Time>>,
    /// True if execution stopped because no actor could make progress.
    pub deadlocked: bool,
    /// Time of the last processed event.
    pub end_time: Time,
}

impl SimTrace {
    /// Number of completed firings of an actor.
    pub fn firing_count(&self, a: ActorId) -> usize {
        self.firings[a.index()].len()
    }

    /// Estimate the steady-state period (time per firing) of an actor from
    /// the second half of its trace. Returns `None` with fewer than four
    /// firings.
    pub fn period_estimate(&self, a: ActorId) -> Option<Rational> {
        let f = &self.firings[a.index()];
        if f.len() < 4 {
            return None;
        }
        let mid = f.len() / 2;
        let dt = f[f.len() - 1].start - f[mid].start;
        let dn = (f.len() - 1 - mid) as i128;
        Some(Rational::new(dt as i128, dn))
    }
}

/// Simulation controls.
#[derive(Clone, Debug)]
pub struct SimOptions {
    /// Stop once each actor has completed this many firings
    /// (index-aligned; actors with target 0 are unconstrained sinks/sources
    /// that never gate termination).
    pub targets: Vec<u64>,
    /// Hard cap on total firings (guards zero-duration livelock).
    pub max_total_firings: u64,
    /// Record per-token production timestamps (needed by refinement checks).
    pub record_tokens: bool,
}

/// Run a self-timed execution for `iterations` graph iterations.
///
/// The per-actor firing targets are `iterations × repetition-firings`.
/// Returns an error if the graph is malformed or inconsistent.
pub fn simulate(g: &CsdfGraph, iterations: u64) -> Result<SimTrace, crate::graph::GraphError> {
    let r = repetition_vector(g)?;
    let targets: Vec<u64> = g
        .actor_ids()
        .map(|a| iterations * r.firings_of(g, a))
        .collect();
    let total: u64 = targets.iter().sum::<u64>() + 1_000;
    Ok(simulate_with(
        g,
        &SimOptions {
            targets,
            max_total_firings: total.max(10_000),
            record_tokens: false,
        },
    ))
}

/// Run a self-timed execution with explicit options.
pub fn simulate_with(g: &CsdfGraph, opts: &SimOptions) -> SimTrace {
    debug_assert!(g.validate().is_ok(), "simulate on invalid graph");
    let n = g.num_actors();
    assert_eq!(opts.targets.len(), n, "targets length mismatch");

    let mut tokens: Vec<u64> = g.edge_ids().map(|e| g.edge(e).initial_tokens).collect();
    let mut token_times: Vec<Vec<Time>> = vec![Vec::new(); g.num_edges()];
    let mut firings: Vec<Vec<Firing>> = vec![Vec::new(); n];
    let mut phase: Vec<usize> = vec![0; n];
    let mut busy: Vec<bool> = vec![false; n];
    let mut fired: Vec<u64> = vec![0; n];

    // Precompute adjacency.
    let in_edges: Vec<Vec<EdgeId>> = g.actor_ids().map(|a| g.in_edges(a)).collect();
    let out_edges: Vec<Vec<EdgeId>> = g.actor_ids().map(|a| g.out_edges(a)).collect();

    // Completion events: (time, seq, actor). seq keeps pops deterministic.
    let mut heap: BinaryHeap<Reverse<(Time, u64, usize)>> = BinaryHeap::new();
    let mut seq: u64 = 0;
    let mut now: Time = 0;
    let mut total_firings: u64 = 0;
    let mut deadlocked = false;

    let done = |fired: &[u64]| -> bool {
        fired
            .iter()
            .zip(&opts.targets)
            .all(|(f, t)| *t == 0 || f >= t)
    };

    let enabled = |a: usize, phase: &[usize], tokens: &[u64], busy: &[bool]| -> bool {
        if busy[a] {
            return false;
        }
        let p = phase[a];
        in_edges[a].iter().all(|e| {
            let edge = g.edge(*e);
            tokens[e.index()] >= edge.consumption[p]
        })
    };

    loop {
        // Start every enabled actor at the current time (repeat until fixpoint
        // because zero-duration firings may enable others at the same time).
        let mut progress = true;
        while progress {
            progress = false;
            for a in 0..n {
                // Actors that already met their target keep firing only if
                // other actors still need them — simplest correct policy is
                // to let them fire freely; termination is by the `done` check
                // below plus the hard cap.
                if total_firings >= opts.max_total_firings {
                    break;
                }
                if enabled(a, &phase, &tokens, &busy) {
                    let p = phase[a];
                    for e in &in_edges[a] {
                        tokens[e.index()] -= g.edge(*e).consumption[p];
                    }
                    busy[a] = true;
                    let dur = g.actor(ActorId(a)).durations[p];
                    heap.push(Reverse((now + dur, seq, a)));
                    seq += 1;
                    progress = true;
                }
            }
        }

        if done(&fired) || total_firings >= opts.max_total_firings {
            break;
        }

        // Advance to the next completion.
        let Some(Reverse((t, _, a))) = heap.pop() else {
            deadlocked = true;
            break;
        };
        now = t;
        // Complete this and any other event at the same time.
        let mut completions = vec![a];
        while let Some(&Reverse((t2, _, _))) = heap.peek() {
            if t2 == now {
                let Reverse((_, _, a2)) = heap.pop().unwrap();
                completions.push(a2);
            } else {
                break;
            }
        }
        for a in completions {
            let p = phase[a];
            for e in &out_edges[a] {
                let produced = g.edge(*e).production[p];
                tokens[e.index()] += produced;
                if opts.record_tokens {
                    for _ in 0..produced {
                        token_times[e.index()].push(now);
                    }
                }
            }
            let dur = g.actor(ActorId(a)).durations[p];
            firings[a].push(Firing {
                start: now - dur,
                end: now,
                phase: p,
            });
            phase[a] = (p + 1) % g.actor(ActorId(a)).phases();
            busy[a] = false;
            fired[a] += 1;
            total_firings += 1;
        }
    }

    // Drain in-flight firings so `end_time` covers them.
    let mut end_time = now;
    while let Some(Reverse((t, _, a))) = heap.pop() {
        let p = phase[a];
        let dur = g.actor(ActorId(a)).durations[p];
        firings[a].push(Firing {
            start: t - dur,
            end: t,
            phase: p,
        });
        // Do not produce tokens: the run is over; records only.
        phase[a] = (p + 1) % g.actor(ActorId(a)).phases();
        end_time = end_time.max(t);
    }

    SimTrace {
        firings,
        token_times,
        deadlocked,
        end_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CsdfGraph;
    use streamgate_ilp::rat;

    #[test]
    fn single_actor_with_self_source() {
        // Source actor with no inputs fires back to back: period = duration.
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 7);
        let b = g.add_sdf_actor("B", 3);
        g.add_sdf_edge("ab", a, 1, b, 1, 0);
        let t = simulate(&g, 20).unwrap();
        assert!(!t.deadlocked);
        assert_eq!(t.period_estimate(a), Some(rat(7, 1)));
        // B is gated by A, so it also settles at period 7.
        assert_eq!(t.period_estimate(b), Some(rat(7, 1)));
    }

    #[test]
    fn pipeline_bottleneck_dominates() {
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 2);
        let b = g.add_sdf_actor("B", 9);
        let c = g.add_sdf_actor("C", 4);
        g.add_sdf_edge("ab", a, 1, b, 1, 0);
        g.add_sdf_edge("bc", b, 1, c, 1, 0);
        // Bound A by back-pressure so the trace stays finite-memory:
        g.add_sdf_edge("ba", b, 1, a, 1, 3);
        let t = simulate(&g, 30).unwrap();
        assert_eq!(t.period_estimate(c), Some(rat(9, 1)));
    }

    #[test]
    fn deadlock_detected() {
        // Two actors in a cycle with no initial tokens: deadlock.
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 1);
        let b = g.add_sdf_actor("B", 1);
        g.add_sdf_edge("ab", a, 1, b, 1, 0);
        g.add_sdf_edge("ba", b, 1, a, 1, 0);
        let t = simulate(&g, 1).unwrap();
        assert!(t.deadlocked);
        assert_eq!(t.firing_count(a), 0);
    }

    #[test]
    fn cycle_with_token_alternates() {
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 3);
        let b = g.add_sdf_actor("B", 5);
        g.add_sdf_edge("ab", a, 1, b, 1, 0);
        g.add_sdf_edge("ba", b, 1, a, 1, 1);
        let t = simulate(&g, 10).unwrap();
        assert!(!t.deadlocked);
        // Cycle mean = (3 + 5) / 1 = 8 per firing of each.
        assert_eq!(t.period_estimate(a), Some(rat(8, 1)));
        assert_eq!(t.period_estimate(b), Some(rat(8, 1)));
    }

    #[test]
    fn multirate_periods_scale() {
        // A -1-> -2-> B: B fires half as often as A.
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 4);
        let b = g.add_sdf_actor("B", 1);
        g.add_sdf_edge("ab", a, 1, b, 2, 0);
        let t = simulate(&g, 20).unwrap();
        assert_eq!(t.period_estimate(a), Some(rat(4, 1)));
        assert_eq!(t.period_estimate(b), Some(rat(8, 1)));
    }

    #[test]
    fn csdf_phase_durations_respected() {
        // Actor with phases (10, 1): long phase then short phase.
        let mut g = CsdfGraph::new();
        let a = g.add_actor("A", vec![10, 1]);
        let b = g.add_sdf_actor("B", 1);
        g.add_edge("ab", a, vec![1, 1], b, vec![1], 0);
        let t = simulate(&g, 6).unwrap();
        let f = &t.firings[a.index()];
        assert_eq!(f[0].end - f[0].start, 10);
        assert_eq!(f[1].end - f[1].start, 1);
        assert_eq!(f[2].end - f[2].start, 10);
        // Average period = 11/2.
        assert_eq!(t.period_estimate(a), Some(rat(11, 2)));
    }

    #[test]
    fn token_times_recorded() {
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 3);
        let b = g.add_sdf_actor("B", 1);
        let e = g.add_sdf_edge("ab", a, 2, b, 1, 0);
        let opts = SimOptions {
            targets: vec![3, 6],
            max_total_firings: 100,
            record_tokens: true,
        };
        let t = simulate_with(&g, &opts);
        // A produces 2 tokens at t=3, 6, 9.
        assert_eq!(t.token_times[e.index()][..6], [3, 3, 6, 6, 9, 9]);
    }

    #[test]
    fn zero_duration_actor_cascades_same_instant() {
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 5);
        let z = g.add_sdf_actor("Z", 0);
        let b = g.add_sdf_actor("B", 5);
        g.add_sdf_edge("az", a, 1, z, 1, 0);
        g.add_sdf_edge("zb", z, 1, b, 1, 0);
        let t = simulate(&g, 5).unwrap();
        assert!(!t.deadlocked);
        // Z fires at the same instants A completes.
        let fa = &t.firings[a.index()];
        let fz = &t.firings[z.index()];
        assert_eq!(fa[0].end, fz[0].start);
        assert_eq!(fz[0].start, fz[0].end);
    }

    #[test]
    fn bounded_buffer_back_pressure() {
        // Fast producer, slow consumer, capacity 1: producer throttled.
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 1);
        let b = g.add_sdf_actor("B", 10);
        g.add_sdf_edge("data", a, 1, b, 1, 0);
        g.add_sdf_edge("space", b, 1, a, 1, 1);
        let t = simulate(&g, 10).unwrap();
        assert_eq!(t.period_estimate(a), Some(rat(11, 1)));
    }

    #[test]
    fn max_total_firings_caps_runaway() {
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 0);
        let b = g.add_sdf_actor("B", 1);
        g.add_sdf_edge("ab", a, 1, b, 1, 0);
        let opts = SimOptions {
            targets: vec![u64::MAX, 5],
            max_total_firings: 50,
            record_tokens: false,
        };
        let t = simulate_with(&g, &opts);
        let total: usize = t.firings.iter().map(|f| f.len()).sum();
        assert!(
            total <= 55,
            "runaway zero-duration source not capped: {total}"
        );
    }
}
