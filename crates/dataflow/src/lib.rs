//! # streamgate-dataflow
//!
//! (C)SDF dataflow modelling and temporal analysis, as used by
//! *"Real-Time Multiprocessor Architecture for Sharing Stream Processing
//! Accelerators"* (Dekens et al., IPDPSW 2015).
//!
//! The crate provides:
//!
//! * [`graph`] — SDF/CSDF graphs with per-phase firing durations and quanta;
//! * [`repetition`] — balance equations, consistency, repetition vectors;
//! * [`simulate()`] — self-timed execution (earliest admissible schedule);
//! * [`mcm`] — HSDF expansion and exact maximum-cycle-mean analysis;
//! * [`buffer`] — minimum buffer capacities under a throughput constraint,
//!   including the non-monotone behaviour demonstrated in Fig. 8;
//! * [`schedule`] — admissible schedule construction and Gantt rendering
//!   (Fig. 6);
//! * [`refinement`] — *the-earlier-the-better* trace refinement checks
//!   (Geilen & Tripakis), used to validate abstractions against
//!   implementations.

#![warn(missing_docs)]

pub mod buffer;
pub mod graph;
pub mod mcm;
pub mod refinement;
pub mod repetition;
pub mod schedule;
pub mod simulate;

pub use buffer::{min_buffer_for_period, min_buffers_for_period, BufferProblem, BufferResult};
pub use graph::{quanta, Actor, ActorId, CsdfGraph, Edge, EdgeId, GraphError, Time};
pub use mcm::{expand_to_hsdf, max_cycle_ratio, mcm_period, Hsdf, McmError};
pub use refinement::{
    check_refinement, check_refinement_multi, refines, ArrivalTrace, RefinementOutcome,
};
pub use repetition::{repetition_vector, RepetitionVector};
pub use schedule::{Gantt, GanttRow, Segment};
pub use simulate::{simulate, simulate_with, Firing, SimOptions, SimTrace};
