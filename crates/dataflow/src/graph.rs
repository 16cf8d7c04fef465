//! Cyclo-static and synchronous dataflow graph representation.
//!
//! A [`CsdfGraph`] is a directed multigraph of actors and token channels
//! (edges). Every actor has one or more *phases*; firing durations and port
//! rates (quanta) are given per phase, following the notation of the paper
//! (§V-A):
//!
//! * an SDF actor is a CSDF actor with exactly one phase;
//! * each actor carries an **implicit self-edge with one token**, i.e. no
//!   auto-concurrency — firings of one actor are sequential (this is the
//!   CSDF convention the paper uses);
//! * edges are unbounded token queues; *bounded* buffers are modelled by a
//!   forward edge plus a complementary back edge whose initial tokens equal
//!   the buffer capacity (see [`crate::buffer`]).
//!
//! Durations are in clock cycles (`u64`), matching the cycle-level platform
//! simulator.

use std::fmt;

/// Discrete time in clock cycles.
pub type Time = u64;

/// Handle to an actor in a [`CsdfGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ActorId(pub(crate) usize);

impl ActorId {
    /// Index of the actor in its graph.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Handle to an edge in a [`CsdfGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgeId(pub(crate) usize);

impl EdgeId {
    /// Index of the edge in its graph.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// An actor with cyclic phase behaviour.
#[derive(Clone, Debug)]
pub struct Actor {
    /// Human-readable name (`v_G0`, `v_A`, ...).
    pub name: String,
    /// Firing duration per phase, `ρ_v[p]`.
    pub durations: Vec<Time>,
}

impl Actor {
    /// Number of phases.
    pub fn phases(&self) -> usize {
        self.durations.len()
    }
}

/// A token channel between two actors.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Human-readable name.
    pub name: String,
    /// Producing actor.
    pub src: ActorId,
    /// Consuming actor.
    pub dst: ActorId,
    /// Tokens produced per firing, one entry per phase of `src`.
    pub production: Vec<u64>,
    /// Tokens consumed per firing, one entry per phase of `dst`.
    pub consumption: Vec<u64>,
    /// Initial tokens (delays).
    pub initial_tokens: u64,
}

impl Edge {
    /// Total tokens produced over one full phase cycle of the producer.
    pub fn production_per_cycle(&self) -> u64 {
        self.production.iter().sum()
    }

    /// Total tokens consumed over one full phase cycle of the consumer.
    pub fn consumption_per_cycle(&self) -> u64 {
        self.consumption.iter().sum()
    }
}

/// Errors raised by graph construction or validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// A rate list length does not match the actor's phase count.
    RateLengthMismatch {
        /// Offending edge name.
        edge: String,
        /// `true` if the production side is wrong, `false` for consumption.
        production: bool,
        /// Expected number of entries (actor phases).
        expected: usize,
        /// Actual number of entries.
        actual: usize,
    },
    /// An actor has no phases.
    EmptyActor(String),
    /// An edge never moves a token (all rates zero on one side).
    DeadEdge(String),
    /// The balance equations have no non-trivial solution.
    Inconsistent {
        /// Edge where the inconsistency was detected.
        edge: String,
    },
    /// The graph deadlocks before completing one iteration.
    Deadlock,
    /// The repetition vector's exact arithmetic leaves `i128`, or a count
    /// leaves `u64`.
    Overflow,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::RateLengthMismatch {
                edge,
                production,
                expected,
                actual,
            } => write!(
                f,
                "edge {edge}: {} rate list has {actual} entries, actor has {expected} phases",
                if *production {
                    "production"
                } else {
                    "consumption"
                }
            ),
            GraphError::EmptyActor(name) => write!(f, "actor {name} has no phases"),
            GraphError::DeadEdge(name) => write!(f, "edge {name} has all-zero rates on one side"),
            GraphError::Inconsistent { edge } => {
                write!(f, "balance equations inconsistent at edge {edge}")
            }
            GraphError::Deadlock => write!(f, "graph deadlocks before completing an iteration"),
            GraphError::Overflow => write!(f, "repetition vector overflows"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A cyclo-static dataflow graph.
#[derive(Clone, Debug, Default)]
pub struct CsdfGraph {
    actors: Vec<Actor>,
    edges: Vec<Edge>,
}

impl CsdfGraph {
    /// Empty graph.
    pub fn new() -> Self {
        CsdfGraph::default()
    }

    /// Add a CSDF actor with per-phase firing durations.
    ///
    /// Panics if `durations` is empty.
    pub fn add_actor(&mut self, name: impl Into<String>, durations: Vec<Time>) -> ActorId {
        let name = name.into();
        assert!(
            !durations.is_empty(),
            "actor {name} must have at least one phase"
        );
        let id = ActorId(self.actors.len());
        self.actors.push(Actor { name, durations });
        id
    }

    /// Add a single-phase (SDF) actor.
    pub fn add_sdf_actor(&mut self, name: impl Into<String>, duration: Time) -> ActorId {
        self.add_actor(name, vec![duration])
    }

    /// Add an edge with per-phase production/consumption rates and initial
    /// tokens.
    pub fn add_edge(
        &mut self,
        name: impl Into<String>,
        src: ActorId,
        production: Vec<u64>,
        dst: ActorId,
        consumption: Vec<u64>,
        initial_tokens: u64,
    ) -> EdgeId {
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge {
            name: name.into(),
            src,
            dst,
            production,
            consumption,
            initial_tokens,
        });
        id
    }

    /// Add an SDF edge (constant rates, replicated over the actors' phases).
    pub fn add_sdf_edge(
        &mut self,
        name: impl Into<String>,
        src: ActorId,
        production: u64,
        dst: ActorId,
        consumption: u64,
        initial_tokens: u64,
    ) -> EdgeId {
        let p = vec![production; self.actors[src.0].phases()];
        let c = vec![consumption; self.actors[dst.0].phases()];
        self.add_edge(name, src, p, dst, c, initial_tokens)
    }

    /// Number of actors.
    pub fn num_actors(&self) -> usize {
        self.actors.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Actor metadata.
    pub fn actor(&self, id: ActorId) -> &Actor {
        &self.actors[id.0]
    }

    /// Edge metadata.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0]
    }

    /// Mutable edge metadata (e.g. to change initial tokens when sizing
    /// buffers).
    pub fn edge_mut(&mut self, id: EdgeId) -> &mut Edge {
        &mut self.edges[id.0]
    }

    /// Iterate over actor ids.
    pub fn actor_ids(&self) -> impl Iterator<Item = ActorId> {
        (0..self.actors.len()).map(ActorId)
    }

    /// Iterate over edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.edges.len()).map(EdgeId)
    }

    /// Incoming edges of an actor.
    pub fn in_edges(&self, id: ActorId) -> Vec<EdgeId> {
        self.edge_ids()
            .filter(|e| self.edges[e.0].dst == id)
            .collect()
    }

    /// Outgoing edges of an actor.
    pub fn out_edges(&self, id: ActorId) -> Vec<EdgeId> {
        self.edge_ids()
            .filter(|e| self.edges[e.0].src == id)
            .collect()
    }

    /// Look up an edge by name (first match).
    pub fn edge_by_name(&self, name: &str) -> Option<EdgeId> {
        self.edges.iter().position(|e| e.name == name).map(EdgeId)
    }

    /// Structural validation: rate list lengths, dead edges.
    pub fn validate(&self) -> Result<(), GraphError> {
        for a in &self.actors {
            if a.durations.is_empty() {
                return Err(GraphError::EmptyActor(a.name.clone()));
            }
        }
        for e in &self.edges {
            let src_phases = self.actors[e.src.0].phases();
            let dst_phases = self.actors[e.dst.0].phases();
            if e.production.len() != src_phases {
                return Err(GraphError::RateLengthMismatch {
                    edge: e.name.clone(),
                    production: true,
                    expected: src_phases,
                    actual: e.production.len(),
                });
            }
            if e.consumption.len() != dst_phases {
                return Err(GraphError::RateLengthMismatch {
                    edge: e.name.clone(),
                    production: false,
                    expected: dst_phases,
                    actual: e.consumption.len(),
                });
            }
            if e.production_per_cycle() == 0 || e.consumption_per_cycle() == 0 {
                return Err(GraphError::DeadEdge(e.name.clone()));
            }
        }
        Ok(())
    }
}

/// Helper to express the paper's parametric quanta notation
/// `z × 1, 0` — `z` phases of quanta 1 followed by one phase of quanta 0.
pub fn quanta(reps: &[(usize, u64)]) -> Vec<u64> {
    let mut out = Vec::new();
    for &(n, v) in reps {
        out.extend(std::iter::repeat_n(v, n));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_actor_sdf() -> (CsdfGraph, ActorId, ActorId, EdgeId) {
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 5);
        let b = g.add_sdf_actor("B", 3);
        let e = g.add_sdf_edge("ab", a, 2, b, 3, 0);
        (g, a, b, e)
    }

    #[test]
    fn build_and_query() {
        let (g, a, b, e) = two_actor_sdf();
        assert_eq!(g.num_actors(), 2);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.actor(a).name, "A");
        assert_eq!(g.edge(e).src, a);
        assert_eq!(g.edge(e).dst, b);
        assert_eq!(g.actor(b).phases(), 1);
        assert_eq!(g.edge_by_name("ab"), Some(e));
        assert_eq!(g.edge_by_name("zz"), None);
    }

    #[test]
    fn in_out_edges() {
        let (g, a, b, e) = two_actor_sdf();
        assert_eq!(g.out_edges(a), vec![e]);
        assert_eq!(g.in_edges(b), vec![e]);
        assert!(g.in_edges(a).is_empty());
    }

    #[test]
    fn validate_ok() {
        let (g, ..) = two_actor_sdf();
        assert!(g.validate().is_ok());
    }

    #[test]
    fn validate_rate_mismatch() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("A", vec![1, 2]);
        let b = g.add_sdf_actor("B", 3);
        g.add_edge("ab", a, vec![1], b, vec![1], 0); // production should have 2 entries
        let err = g.validate().unwrap_err();
        match err {
            GraphError::RateLengthMismatch {
                production: true,
                expected: 2,
                actual: 1,
                ..
            } => {}
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn validate_dead_edge() {
        let mut g = CsdfGraph::new();
        let a = g.add_sdf_actor("A", 1);
        let b = g.add_sdf_actor("B", 1);
        g.add_edge("dead", a, vec![0], b, vec![1], 0);
        assert_eq!(
            g.validate().unwrap_err(),
            GraphError::DeadEdge("dead".into())
        );
    }

    #[test]
    fn csdf_phases() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("G0", vec![10, 1, 1]);
        assert_eq!(g.actor(a).phases(), 3);
        let b = g.add_sdf_actor("C", 2);
        let e = g.add_edge("g0c", a, vec![1, 1, 1], b, vec![3], 0);
        assert!(g.validate().is_ok());
        assert_eq!(g.edge(e).production_per_cycle(), 3);
        assert_eq!(g.edge(e).consumption_per_cycle(), 3);
    }

    #[test]
    fn quanta_notation() {
        // η_s × 1, 0  with η_s = 3  =>  [1, 1, 1, 0]
        assert_eq!(quanta(&[(3, 1), (1, 0)]), vec![1, 1, 1, 0]);
        // (η_s − 1) × 0, η_s  with η_s = 3 => [0, 0, 3]
        assert_eq!(quanta(&[(2, 0), (1, 3)]), vec![0, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_actor_panics() {
        let mut g = CsdfGraph::new();
        g.add_actor("bad", vec![]);
    }
}
