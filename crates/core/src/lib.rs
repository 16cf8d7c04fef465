//! # streamgate-core
//!
//! The contribution of *"Real-Time Multiprocessor Architecture for Sharing
//! Stream Processing Accelerators"* (Dekens, Bekooij, Smit — IPDPSW 2015):
//! temporal analysis and configuration of **entry-/exit-gateway pairs** that
//! multiplex blocks of data from several real-time streams over a shared
//! chain of stream-processing accelerators.
//!
//! * [`params`] — ε/ρ_A/δ/R_s/μ_s parameter sets, `c0`/`c1`, `τ̂` (Eq. 2),
//!   `γ` (Eq. 4) and the throughput check (Eq. 5);
//! * [`model`] — the per-stream CSDF model of Fig. 5 and its execution
//!   schedule (Fig. 6), built on `streamgate-dataflow`;
//! * [`abstraction`] — the single-actor SDF abstraction of Fig. 7 and its
//!   conservativeness checks;
//! * [`blocksize`] — minimum block sizes via the ILP of Algorithm 1 and an
//!   independent least-fixpoint solver;
//! * [`buffers`] — minimum buffer capacities given block sizes, including
//!   the non-monotone example of Fig. 8;
//! * [`deploy`] — turn-key construction of the PAL stereo decoder system
//!   (Fig. 10) on the cycle-level platform, with the real DSP kernels;
//! * [`metrics`] — the one fold over the platform tracer's event log
//!   (completed blocks, closed stall windows, in-flight blocks), through
//!   which every module below reads block and stall events, and the
//!   per-stream metrics built on it (τ distributions, round times, stall
//!   breakdowns);
//! * [`profile`] — empirical arrival/service curves, τ/round/stall
//!   distributions and buffer margins aggregated into a serializable
//!   [`RunProfile`] (the measured counterpart of the analyzer's bounds);
//! * [`monitor`] — online checking of Eq. 2/Eq. 3–4/buffer-capacity/Fig. 9
//!   invariants against the live trace, with structured violations;
//! * [`attribution`] — causal latency attribution: every cycle of a
//!   block's measured τ blamed on one mechanism (reconfig, DMA credit
//!   wait, ring transit, accel service, head-of-line …), plus the
//!   flight-recorder postmortem dump rendered by the analyzer CLI;
//! * [`validate`] — bound validation: measured block times vs `τ̂`/`γ̂`,
//!   the-earlier-the-better refinement of simulated traces — all measured
//!   through the tracer.

#![deny(missing_docs)]

pub mod abstraction;
pub mod attribution;
pub mod blocksize;
pub mod buffers;
pub mod chain;
pub mod deploy;
pub mod metrics;
pub mod model;
pub mod monitor;
pub mod params;
pub mod profile;
pub mod validate;

pub use abstraction::{sdf_abstraction, verify_csdf_refines_sdf, SdfAbstraction};
pub use attribution::{
    collect_blame, collect_postmortem, BlameCause, BlameReport, BlameSegment, BlockBlame,
    Postmortem, PostmortemBlame, StreamBlame,
};
pub use blocksize::{
    solve_blocksizes_checked, solve_blocksizes_fixpoint, solve_blocksizes_ilp, BlockSizeError,
    BlockSizes,
};
pub use buffers::{fig8_example, minimum_stream_buffers, StreamBuffers};
pub use chain::{build_shared_system, AccelDef, BuiltSystem, StreamDef, SystemSpec};
pub use deploy::{build_pal_system, PalSystem, PalSystemConfig};
pub use metrics::{gateway_metrics, GatewayMetrics, StreamMetrics};
pub use model::{fig5_csdf, fig6_schedule, run_fig5, Fig5Model, Fig5Params, Fig5Run};
pub use monitor::{
    GatewayMonitorConfig, Monitor, MonitorConfig, StreamMonitorConfig, Violation, ViolationKind,
};
pub use params::{GatewayParams, SharingProblem, StreamSpec};
pub use profile::{
    collect_profile, log2_histogram, log_windows, parse_profile, ArrivalProfile, EmpiricalCurve,
    FifoProfile, GatewayProfile, HopProfile, RunProfile, StallProfile, StreamProfile,
};
pub use validate::{
    measure_block_times, measured_transition_delay, system_metrics, validate_blame_totals,
    validate_tau_bound, TauValidation,
};
