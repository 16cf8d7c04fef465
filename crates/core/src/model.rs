//! The per-stream CSDF model (paper Fig. 5) and its execution schedule
//! (Fig. 6).
//!
//! For each stream multiplexed over a gateway pair the paper constructs one
//! CSDF graph: producer `v_P`, entry gateway `v_G0` (η phases — the first
//! carries the waiting time Ω̂_s, the reconfiguration R_s and one copy ε;
//! the rest one ε each), the shared accelerator `v_A`, exit gateway `v_G1`
//! (η phases of δ) and consumer `v_C`. The edges carry:
//!
//! * the data path `v_P → v_G0 → v_A → v_G1 → v_C`;
//! * NI-buffer back edges with α₁ = α₂ = 2 initial tokens;
//! * the input-buffer pair (`α₀`) between `v_P` and `v_G0`;
//! * the **check-for-space** edge `v_C → v_G0` with α₃ initial tokens —
//!   v_G0's first phase consumes η space tokens, so a block cannot start
//!   without room for its entire output;
//! * the **pipeline-idle** edge `v_G1 → v_G0` with one initial token —
//!   v_G0's first phase also consumes it, so a block cannot start before
//!   the previous block fully drained.
//!
//! This module builds that graph for arbitrary parameters and extracts the
//! Fig. 6 schedule from its self-timed execution.

use streamgate_dataflow::{quanta, CsdfGraph, Gantt};

/// Parameters of the Fig. 5 model for one stream.
#[derive(Clone, Copy, Debug)]
pub struct Fig5Params {
    /// Block size η_s (samples per multiplexed block).
    pub eta: usize,
    /// Entry-gateway copy time ε per sample.
    pub epsilon: u64,
    /// Accelerator firing duration ρ_A per sample.
    pub rho_a: u64,
    /// Exit-gateway copy time δ per sample.
    pub delta: u64,
    /// Reconfiguration time R_s charged to the first phase.
    pub reconfig: u64,
    /// Worst-case waiting time Ω̂_s for the other streams' blocks (0 when
    /// analysing a stream in isolation, Eq. 3 otherwise).
    pub omega: u64,
    /// Producer firing duration ρ_P (its period; 1/μ_s for a rate source).
    pub rho_p: u64,
    /// Consumer firing duration ρ_C.
    pub rho_c: u64,
    /// Input buffer capacity α₀ (tokens between v_P and v_G0).
    pub alpha0: u64,
    /// Output buffer capacity α₃ (tokens between v_G1 and v_C).
    pub alpha3: u64,
    /// NI buffer depth α₁ = α₂ (2 in the paper).
    pub ni_depth: u64,
}

impl Fig5Params {
    /// Paper-prototype timing with free parameters for η and rates.
    pub fn prototype(eta: usize, rho_p: u64, rho_c: u64) -> Self {
        Fig5Params {
            eta,
            epsilon: 15,
            rho_a: 1,
            delta: 1,
            reconfig: 4100,
            omega: 0,
            rho_p,
            rho_c,
            alpha0: 2 * eta as u64,
            alpha3: 2 * eta as u64,
            ni_depth: 2,
        }
    }
}

/// The constructed model with handles to its actors/edges.
pub struct Fig5Model {
    /// The CSDF graph.
    pub graph: CsdfGraph,
    /// v_P.
    pub v_p: streamgate_dataflow::ActorId,
    /// v_G0.
    pub v_g0: streamgate_dataflow::ActorId,
    /// v_A.
    pub v_a: streamgate_dataflow::ActorId,
    /// v_G1.
    pub v_g1: streamgate_dataflow::ActorId,
    /// v_C.
    pub v_c: streamgate_dataflow::ActorId,
    /// Data edge into v_C (observation point for refinement checks).
    pub edge_to_c: streamgate_dataflow::EdgeId,
}

/// Build the CSDF model of Fig. 5.
pub fn fig5_csdf(p: &Fig5Params) -> Fig5Model {
    assert!(p.eta >= 1, "block size must be at least 1");
    assert!(p.alpha0 >= p.eta as u64, "α0 must hold a whole block");
    assert!(p.alpha3 >= p.eta as u64, "α3 must hold a whole block");
    let eta = p.eta;
    let mut g = CsdfGraph::new();

    let v_p = g.add_sdf_actor("vP", p.rho_p);
    // v_G0: first phase Ω + R + ε, remaining η−1 phases ε.
    let mut g0_dur = vec![p.omega + p.reconfig + p.epsilon];
    g0_dur.extend(std::iter::repeat_n(p.epsilon, eta - 1));
    let v_g0 = g.add_actor("vG0", g0_dur);
    let v_a = g.add_sdf_actor("vA", p.rho_a);
    let v_g1 = g.add_actor("vG1", vec![p.delta; eta]);
    let v_c = g.add_sdf_actor("vC", p.rho_c);

    // Quanta helpers: [η, 0, …, 0] and [1, 1, …, 1] and [0, …, 0, 1].
    let eta_then_zero = quanta(&[(1, eta as u64), (eta - 1, 0)]);
    let ones = vec![1u64; eta];
    let zero_then_one = quanta(&[(eta - 1, 0), (1, 1)]);

    // Data: v_P → v_G0 (consume η in the first phase).
    g.add_edge("b", v_p, vec![1], v_g0, eta_then_zero.clone(), 0);
    // Input-buffer space: v_G0 → v_P, α0 initial (space released as the
    // first phase claims the block).
    g.add_edge(
        "b_space",
        v_g0,
        eta_then_zero.clone(),
        v_p,
        vec![1],
        p.alpha0,
    );
    // Data: v_G0 → v_A, one sample per phase; NI back edge with α1 = depth.
    g.add_edge("g0_a", v_g0, ones.clone(), v_a, vec![1], 0);
    g.add_edge("a_g0_space", v_a, vec![1], v_g0, ones.clone(), p.ni_depth);
    // Data: v_A → v_G1; NI back edge with α2 = depth.
    g.add_edge("a_g1", v_a, vec![1], v_g1, ones.clone(), 0);
    g.add_edge("g1_a_space", v_g1, ones.clone(), v_a, vec![1], p.ni_depth);
    // Data: v_G1 → v_C, one sample per phase.
    let edge_to_c = g.add_edge("d", v_g1, ones.clone(), v_c, vec![1], 0);
    // Check-for-space: v_C → v_G0, η consumed in the first phase, α3 initial.
    g.add_edge("d_space", v_c, vec![1], v_g0, eta_then_zero, p.alpha3);
    // Pipeline idle: v_G1 → v_G0, produced in the last phase, consumed in
    // the first, one initial token (pipeline starts idle).
    g.add_edge(
        "idle",
        v_g1,
        zero_then_one,
        v_g0,
        quanta(&[(1, 1), (eta - 1, 0)]),
        1,
    );

    g.validate().expect("Fig. 5 model is structurally valid");
    Fig5Model {
        graph: g,
        v_p,
        v_g0,
        v_a,
        v_g1,
        v_c,
        edge_to_c,
    }
}

/// What a self-timed execution of the Fig. 5 model reports: the three
/// fields rule A1 reads from a [`streamgate_dataflow::SimTrace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fig5Run {
    /// True if no actor could make progress before the last block
    /// completed.
    pub deadlocked: bool,
    /// Firings of v_C, counting one still in flight when the run stops.
    pub consumer_firings: u64,
    /// Time of the last event, in-flight firings included.
    pub end_time: u64,
}

/// Execute the Fig. 5 model self-timed until every actor has completed
/// `blocks` blocks (η firings each), without building the η-phase graph.
///
/// The five actors and nine edges of [`fig5_csdf`] become token counters
/// and one in-flight slot per actor; the loop is the event loop of
/// [`streamgate_dataflow::simulate()`]: start every enabled actor, stop once
/// all targets are met, else complete every firing that ends next. The
/// result equals that run's `deadlocked`, `firing_count(v_c)` and
/// `end_time` whenever its `max_total_firings` cap does not stop it. This
/// run has no cap: the model cannot livelock, because every v_P firing
/// needs input-buffer space and every block ends with v_G1's last phase.
///
/// Two shortcuts keep the cost low without changing the result. Runs of
/// v_P firings that complete before any other actor's next event are taken
/// in one step. And once the chain v_G0 → v_A → v_G1 → v_C repeats its
/// state from one v_G0 firing to the next inside a block, the rest of the
/// block's regular phases are taken in one step. A block then costs its
/// pipeline fill and drain, not η; without a steady state (a consumer
/// slower than the chain) the cost grows with η. Needs η ≥ 1; α₀ or α₃
/// below η deadlocks.
pub fn run_fig5(p: &Fig5Params, blocks: u64) -> Fig5Run {
    assert!(p.eta >= 1, "block size must be at least 1");
    // The chain actors, indices into `busy`, `end` and `fired`.
    const G0: usize = 0;
    const A: usize = 1;
    const G1: usize = 2;
    const C: usize = 3;
    let eta = p.eta as u64;
    let target = blocks.saturating_mul(eta);
    let first_phase = p.omega.saturating_add(p.reconfig).saturating_add(p.epsilon);
    let mut vp = Producer {
        rho: p.rho_p,
        busy: false,
        end: 0,
        fired: 0,
        b: 0,
        b_space: p.alpha0,
    };
    // Tokens on the other edges, named as in `fig5_csdf`.
    let (mut g0_a, mut a_g0_space) = (0u64, p.ni_depth);
    let (mut a_g1, mut g1_a_space) = (0u64, p.ni_depth);
    let (mut d, mut d_space) = (0u64, p.alpha3);
    let mut idle = 1u64;
    let (mut g0_phase, mut g1_phase) = (0u64, 0u64);
    let mut busy = [false; 4];
    let mut end = [0u64; 4];
    let mut fired = [0u64; 4];
    let mut now = 0u64;
    let mut deadlocked = false;
    // The chain's state right after v_G0's previous completion.
    let mut last: Option<ChainState> = None;
    let mut g0_completed = false;
    loop {
        // Start every enabled actor. Starting only consumes tokens on the
        // actor's own input edges, so one pass in any order suffices.
        if !vp.busy && vp.b_space >= 1 {
            vp.b_space -= 1;
            vp.busy = true;
            vp.end = now.saturating_add(vp.rho);
        }
        if !busy[G0]
            && a_g0_space >= 1
            && (g0_phase > 0 || (vp.b >= eta && d_space >= eta && idle >= 1))
        {
            a_g0_space -= 1;
            let dur = if g0_phase == 0 {
                vp.b -= eta;
                d_space -= eta;
                idle -= 1;
                first_phase
            } else {
                p.epsilon
            };
            busy[G0] = true;
            end[G0] = now.saturating_add(dur);
        }
        if !busy[A] && g0_a >= 1 && g1_a_space >= 1 {
            g0_a -= 1;
            g1_a_space -= 1;
            busy[A] = true;
            end[A] = now.saturating_add(p.rho_a);
        }
        if !busy[G1] && a_g1 >= 1 {
            a_g1 -= 1;
            busy[G1] = true;
            end[G1] = now.saturating_add(p.delta);
        }
        if !busy[C] && d >= 1 {
            d -= 1;
            busy[C] = true;
            end[C] = now.saturating_add(p.rho_c);
        }
        if vp.fired >= target && fired.iter().all(|&f| f >= target) {
            break;
        }

        // Steady state: if the chain's tokens and remaining firing times
        // equal those one v_G0 completion ago, and that step ran regular
        // phases only (neither v_G0's first phase, whose completion frees
        // input space, nor its last, after which the first starts), every
        // later step repeats it, one firing per chain actor, until v_G0
        // would start its first phase again. v_G1 and v_C trail v_G0 in
        // the same block, so v_G1's last phase does not come up either.
        // The jump also stops one v_C firing short of the target, so the
        // run ends through the loop. That cap is defensive: v_C does not
        // trail a repeating chain by a block in any run the oracle tests
        // reach. v_P only feeds the next block meanwhile; it catches up to
        // the new time at once, so v_G0 sees its tokens as the generic run
        // would.
        if g0_completed {
            let here = ChainState {
                now,
                tokens: [g0_a, a_g0_space, a_g1, g1_a_space, d],
                left: [G0, A, G1, C].map(|a| busy[a].then(|| end[a] - now)),
                fired,
                g0_phase,
            };
            match last {
                Some(prev)
                    if prev.g0_phase >= 1
                        && here.g0_phase == prev.g0_phase + 1
                        && here.tokens == prev.tokens
                        && here.left == prev.left
                        && (0..4).all(|a| here.fired[a] == prev.fired[a] + 1) =>
                {
                    let steps = (eta - 1 - g0_phase).min(target.saturating_sub(fired[C] + 1));
                    let shift = steps.saturating_mul(now - prev.now);
                    now = now.saturating_add(shift);
                    for a in [G0, A, G1, C] {
                        if busy[a] {
                            end[a] = end[a].saturating_add(shift);
                        }
                        fired[a] += steps;
                    }
                    g0_phase += steps;
                    g1_phase += steps;
                    d_space = d_space.saturating_add(steps);
                    vp.advance(now, u64::MAX);
                    last = None;
                }
                _ => last = Some(here),
            }
        }

        // v_P completions strictly before every other actor's next event
        // change only `b`, so they are taken together, as long as none
        // lifts `b` to the η that an idle v_G0 waits for in its first
        // phase; if v_P runs out of input space on the way, its last
        // completion sets the clock. With no chain actor busy and v_G0 not
        // waiting on `b`, nothing v_P does enables anyone: it fires until
        // its input space runs out, and the run deadlocks. Reaching the
        // targets needs v_G0's last first phase, which needs every v_P
        // target token, so no skipped completion can end the run.
        let next_other = [G0, A, G1, C]
            .into_iter()
            .filter(|&a| busy[a])
            .map(|a| end[a])
            .min();
        let by_block = if !busy[G0] && g0_phase == 0 && vp.b < eta {
            eta - 1 - vp.b
        } else {
            u64::MAX
        };
        let ran_out = match next_other {
            None if by_block == u64::MAX => vp.drain(),
            _ => next_other
                .unwrap_or(u64::MAX)
                .checked_sub(1)
                .and_then(|before| vp.advance(before, by_block)),
        };
        if let Some(t) = ran_out {
            now = t;
        }

        // Complete every firing that ends next.
        let Some(t) = [G0, A, G1, C]
            .into_iter()
            .filter(|&a| busy[a])
            .map(|a| end[a])
            .chain(vp.busy.then_some(vp.end))
            .min()
        else {
            deadlocked = true;
            break;
        };
        now = t;
        if vp.busy && vp.end == t {
            vp.busy = false;
            vp.fired = vp.fired.saturating_add(1);
            vp.b = vp.b.saturating_add(1);
        }
        g0_completed = busy[G0] && end[G0] == t;
        for a in [G0, A, G1, C] {
            if !busy[a] || end[a] != t {
                continue;
            }
            busy[a] = false;
            fired[a] += 1;
            match a {
                G0 => {
                    g0_a += 1;
                    if g0_phase == 0 {
                        vp.b_space = vp.b_space.saturating_add(eta);
                    }
                    g0_phase = (g0_phase + 1) % eta;
                }
                A => {
                    a_g0_space += 1;
                    a_g1 += 1;
                }
                G1 => {
                    g1_a_space += 1;
                    d += 1;
                    if g1_phase == eta - 1 {
                        idle += 1;
                    }
                    g1_phase = (g1_phase + 1) % eta;
                }
                _ => d_space = d_space.saturating_add(1),
            }
        }
    }
    // Like `simulate`, count the firings still in flight and end at the
    // last of them.
    let end_time = [G0, A, G1, C]
        .into_iter()
        .filter(|&a| busy[a])
        .map(|a| end[a])
        .chain(vp.busy.then_some(vp.end))
        .fold(now, u64::max);
    Fig5Run {
        deadlocked,
        consumer_firings: fired[C] + u64::from(busy[C]),
        end_time,
    }
}

/// v_P of [`run_fig5`] with its output edge `b` and input-space edge
/// `b_space`.
struct Producer {
    rho: u64,
    busy: bool,
    end: u64,
    fired: u64,
    b: u64,
    b_space: u64,
}

impl Producer {
    /// Complete at most `max` firings that end by `t`, each followed by a
    /// restart while input space lasts. Returns the time of the last
    /// completion if v_P ran out of input space.
    fn advance(&mut self, t: u64, max: u64) -> Option<u64> {
        if !self.busy || self.end > t {
            return None;
        }
        let by_time = match self.rho {
            0 => u64::MAX,
            rho => (t - self.end) / rho + 1,
        };
        self.complete(by_time.min(max))
    }

    /// Complete every firing input space still allows, whenever they end.
    /// Returns the time of the last one.
    fn drain(&mut self) -> Option<u64> {
        if self.busy {
            self.complete(u64::MAX)
        } else {
            None
        }
    }

    /// Complete the in-flight firing and up to `n − 1` back-to-back
    /// restarts; returns the time of the last completion if input space
    /// ran out first.
    fn complete(&mut self, n: u64) -> Option<u64> {
        let n = n.min(self.b_space.saturating_add(1));
        if n == 0 {
            return None;
        }
        let restarts = n.min(self.b_space);
        self.b = self.b.saturating_add(n);
        self.fired = self.fired.saturating_add(n);
        self.b_space -= restarts;
        let last = self.end.saturating_add((n - 1).saturating_mul(self.rho));
        if restarts == n {
            self.end = last.saturating_add(self.rho);
            None
        } else {
            self.busy = false;
            Some(last)
        }
    }
}

/// The chain's state right after a v_G0 completion in [`run_fig5`]:
/// tokens on its five inner edges, each actor's remaining firing time
/// (`None` when idle), completed firings and v_G0's next phase.
#[derive(Clone, Copy)]
struct ChainState {
    now: u64,
    tokens: [u64; 5],
    left: [Option<u64>; 4],
    fired: [u64; 4],
    g0_phase: u64,
}

/// Execute the Fig. 5 model self-timed for `blocks` blocks and return the
/// Gantt chart of Fig. 6 (rows v_P, v_G0, v_A, v_G1, v_C).
pub fn fig6_schedule(p: &Fig5Params, blocks: u64) -> (Fig5Model, Gantt) {
    let model = fig5_csdf(p);
    let trace =
        streamgate_dataflow::simulate(&model.graph, blocks).expect("consistent Fig. 5 model");
    let gantt = Gantt::from_trace(&model.graph, &trace);
    (model, gantt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamgate_dataflow::{repetition_vector, simulate};

    fn small() -> Fig5Params {
        Fig5Params {
            eta: 4,
            epsilon: 3,
            rho_a: 1,
            delta: 1,
            reconfig: 10,
            omega: 0,
            rho_p: 2,
            rho_c: 1,
            alpha0: 8,
            alpha3: 8,
            ni_depth: 2,
        }
    }

    #[test]
    fn model_is_consistent() {
        let m = fig5_csdf(&small());
        let r = repetition_vector(&m.graph).unwrap();
        // Per iteration: vP fires η, vG0 one phase-cycle, vA η, vG1 one, vC η.
        assert_eq!(r.cycles_of(m.v_p), 4);
        assert_eq!(r.cycles_of(m.v_g0), 1);
        assert_eq!(r.cycles_of(m.v_a), 4);
        assert_eq!(r.cycles_of(m.v_g1), 1);
        assert_eq!(r.cycles_of(m.v_c), 4);
    }

    #[test]
    fn model_deadlock_free() {
        let m = fig5_csdf(&small());
        let t = simulate(&m.graph, 5).unwrap();
        assert!(!t.deadlocked);
        assert_eq!(t.firing_count(m.v_c), 20);
    }

    #[test]
    fn block_time_within_tau_hat() {
        // τ̂ = R + (η + 2)·max(ε, ρA, δ): the self-timed single block must
        // finish within the bound (paper Eq. 2), measured from vG0's start.
        let p = small();
        let m = fig5_csdf(&p);
        let t = simulate(&m.graph, 1).unwrap();
        let g0_start = t.firings[m.v_g0.index()][0].start;
        let c_last_input = t.firings[m.v_g1.index()].last().unwrap().end;
        let tau = c_last_input - g0_start;
        let c0 = p.epsilon.max(p.rho_a).max(p.delta);
        let tau_hat = p.reconfig + (p.eta as u64 + 2) * c0;
        assert!(tau <= tau_hat, "block took {tau}, bound {tau_hat}");
    }

    #[test]
    fn pipeline_idle_token_serialises_blocks() {
        // vG0's first phase of block k+1 must start no earlier than vG1's
        // last phase of block k ends.
        let p = small();
        let m = fig5_csdf(&p);
        let t = simulate(&m.graph, 3).unwrap();
        let eta = p.eta;
        for k in 1..3usize {
            let g0_first = t.firings[m.v_g0.index()][k * eta].start;
            let g1_last_prev = t.firings[m.v_g1.index()][k * eta - 1].end;
            assert!(
                g0_first >= g1_last_prev,
                "block {k} started at {g0_first} before previous drained at {g1_last_prev}"
            );
        }
    }

    #[test]
    fn check_for_space_blocks_start() {
        // With a slow consumer and α3 = η, the second block cannot start
        // until the consumer has drained the first.
        let mut p = small();
        p.rho_c = 50;
        p.alpha3 = p.eta as u64;
        let m = fig5_csdf(&p);
        let t = simulate(&m.graph, 2).unwrap();
        assert!(!t.deadlocked);
        let eta = p.eta;
        // Second block's vG0 start must wait for vC to free η locations:
        // at least η-1 consumer firings of the first block done.
        let g0_second = t.firings[m.v_g0.index()][eta].start;
        let c_firings_done = t.firings[m.v_c.index()]
            .iter()
            .filter(|f| f.end <= g0_second)
            .count();
        assert!(
            c_firings_done >= eta - 1,
            "second block started with only {c_firings_done} consumer firings done"
        );
    }

    #[test]
    fn omega_delays_first_phase() {
        let mut p = small();
        p.omega = 100;
        let m = fig5_csdf(&p);
        let t = simulate(&m.graph, 1).unwrap();
        let first = &t.firings[m.v_g0.index()][0];
        assert_eq!(first.end - first.start, 100 + 10 + 3);
    }

    #[test]
    fn run_fig5_matches_the_generic_simulation() {
        let slow_consumer = Fig5Params {
            rho_c: 50,
            alpha3: 4,
            ..small()
        };
        let waiting = Fig5Params {
            omega: 100,
            ni_depth: 1,
            ..small()
        };
        let no_ni_space = Fig5Params {
            ni_depth: 0,
            ..small()
        };
        // Zero durations but Ω: the chain repeats from the first phase on,
        // and the next block's first phase starts only if v_P refills its
        // output at the time the jump lands on.
        let zero_times = Fig5Params {
            eta: 18,
            epsilon: 0,
            rho_a: 0,
            delta: 0,
            reconfig: 0,
            omega: 3,
            rho_p: 0,
            rho_c: 0,
            alpha0: 19,
            alpha3: 76,
            ni_depth: 3,
        };
        for p in [small(), slow_consumer, waiting, no_ni_space, zero_times] {
            let m = fig5_csdf(&p);
            for blocks in 1..5 {
                let t = simulate(&m.graph, blocks).unwrap();
                let run = run_fig5(&p, blocks);
                assert_eq!(run.deadlocked, t.deadlocked, "{p:?}, {blocks} blocks");
                assert_eq!(run.consumer_firings, t.firing_count(m.v_c) as u64);
                assert_eq!(run.end_time, t.end_time, "{p:?}, {blocks} blocks");
            }
        }
    }

    #[test]
    fn run_fig5_completes_two_blocks_where_the_generic_cap_stops() {
        // The fig6 stream scaled to η = 4096 with both buffers at 4η: the
        // free-running producer spends the generic run's firing cap
        // (Σ targets + 1000) before the consumer's 8192th firing.
        let p = Fig5Params {
            eta: 4096,
            epsilon: 3,
            rho_a: 1,
            delta: 1,
            reconfig: 12,
            omega: 0,
            rho_p: 6,
            rho_c: 1,
            alpha0: 4 * 4096,
            alpha3: 4 * 4096,
            ni_depth: 2,
        };
        let m = fig5_csdf(&p);
        let capped = simulate(&m.graph, 2).unwrap();
        assert!((capped.firing_count(m.v_c) as u64) < 8192);
        let run = run_fig5(&p, 2);
        assert!(!run.deadlocked);
        assert_eq!(run.consumer_firings, 8192);
    }

    #[test]
    fn run_fig5_stays_bounded_when_time_overflows() {
        // No NI space deadlocks the chain at once, and a slow producer
        // with 2⁶³ (or u64::MAX) input slots would fire past u64 time: v_P
        // drains its space in one step. A first phase near u64::MAX
        // saturates every later firing time and still completes both
        // blocks.
        let stuck = Fig5Params {
            rho_p: 1 << 20,
            alpha0: 1 << 63,
            ni_depth: 0,
            ..small()
        };
        for alpha0 in [1 << 63, u64::MAX] {
            let run = run_fig5(&Fig5Params { alpha0, ..stuck }, 2);
            assert!(run.deadlocked);
            assert_eq!(run.consumer_firings, 0);
        }
        let late = Fig5Params {
            reconfig: u64::MAX - 5,
            ..stuck
        };
        let late = Fig5Params {
            ni_depth: 2,
            ..late
        };
        let run = run_fig5(&late, 2);
        assert!(!run.deadlocked);
        assert_eq!(run.consumer_firings, 8);
        assert_eq!(run.end_time, u64::MAX);
    }

    #[test]
    fn gantt_has_all_rows() {
        let (model, gantt) = fig6_schedule(&small(), 2);
        assert_eq!(gantt.rows.len(), 5);
        assert!(gantt.rows[model.v_g0.index()].segments.len() >= 8);
        let ascii = gantt.render_ascii(72);
        assert!(ascii.contains("vG0") && ascii.contains("vA") && ascii.contains("vG1"));
    }

    #[test]
    #[should_panic(expected = "α3 must hold a whole block")]
    fn too_small_output_buffer_rejected() {
        let mut p = small();
        p.alpha3 = 2;
        let _ = fig5_csdf(&p);
    }
}
