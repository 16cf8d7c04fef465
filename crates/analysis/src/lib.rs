//! Static deployment analyzer for the shared-accelerator platform.
//!
//! This crate inspects a *deployment description* — which real-time streams
//! share which accelerator chain, with what block sizes, buffer capacities,
//! TDM slot tables and network-interface depths — and verifies, **without
//! executing a single simulated cycle**, the properties the paper proves
//! about the gateway architecture:
//!
//! | rule | scope | checks | paper reference |
//! |------|-------|--------|-----------------|
//! | A1   | per pair | CSDF liveness / deadlock-freedom of the per-stream model | Fig. 5 |
//! | A2   | per pair | FIFO / C-FIFO capacity sufficiency, non-monotone trap | Fig. 8, §V-E |
//! | A3   | per pair | per-stream throughput feasibility `η_s/γ ≥ μ_s` | Eq. 5–9 |
//! | A4   | per pair | TDM slot-table feasibility and task-to-slot placement | §III |
//! | A5   | per pair | head-of-line blocking without the check-for-space test | Fig. 9, §V-G |
//! | A6   | per pair | ring credit sufficiency (NI depth vs credit window) | §IV |
//! | A7   | system | cross-gateway ring contention, hop load and credit interference | §IV |
//! | A8   | system | system round feasibility with cross-pair chain sharing | Eq. 3–4, Fig. 10 |
//! | A9   | system | configuration-bus TDM slot-table conflicts across pairs | §III–IV |
//! | A10  | system | end-to-end latency via the single-actor SDF abstraction | Fig. 7 |
//! | A11  | system | per-mode admissibility of every declared stream mode | §V |
//! | A12  | system | closed-form worst-case mode-transition delay | §III, §V |
//! | A13  | system | transition interference-freedom of non-switching streams | Eq. 3–4 |
//!
//! A [`DeploySpec`] comes in two shapes: the original *single-gateway*
//! shape (one chain, one stream set) and the *multi-gateway* shape, where
//! [`spec::GatewayDeploy`] sections place several gateway pairs on one
//! ring, optionally sharing physical accelerator chains (the paper's
//! Fig. 10 deployment — see [`DeploySpec::pal2`]). Rules A1–A6 run once
//! per pair, exactly as they would on the equivalent single-gateway spec;
//! A7–A10 see the whole system.
//!
//! The outcome is a [`Report`] of structured [`Diagnostic`]s (rule id,
//! severity, location, message) that renders as text or machine-readable
//! JSON. A deployment is *accepted* when no diagnostic reaches
//! [`Severity::Error`]; the differential tests in `tests/` validate that
//! verdict against both cycle-level simulation engines — accepted
//! configurations meet their τ̂/γ bounds, rejected ones demonstrably
//! deadlock, wedge or miss their throughput.
//!
//! The [`profile`] module closes the loop the other way: a measured
//! `RunProfile` from a profiled simulation run feeds measured per-hop
//! burstiness back into A7 (differential check: every measured arrival
//! curve must be dominated by the predicted [`profile::RingEnvelope`]) and
//! measured arrival jitter into A10, via [`analyze_profiled`]; and
//! [`monitor_for`] arms an online monitor with the analyzer's bounds.
#![deny(missing_docs)]

pub mod blame;
pub mod diag;
pub mod incremental;
pub mod profile;
pub mod rules;
pub mod spec;

pub use blame::{
    check_blame_conformance, component_ceilings, render_postmortem, ComponentCeilings,
};
pub use diag::{sort_diagnostics, Diagnostic, Location, Report, RuleId, Severity, StreamBounds};
pub use incremental::{
    parse_delta_script, AdmissionController, AdmissionError, AdmissionOutcome, AdmissionVerdict,
    AnalysisState, Delta, DeltaError,
};
pub use profile::{
    analyze_profiled, monitor_config_for, monitor_for, multi_tau_margin, parse_profile,
    round_margin, tau_margin, RingEnvelope,
};
pub use rules::{
    analyze, analyze_with, mode_reports, transition_delay_bound, AnalysisOptions, ModeReport,
    TransitionBound,
};
pub use spec::{
    ChainStage, DeploySpec, GatewayDeploy, GatewayView, MultiBuiltSystem, ProcessorDeploy,
    RingLayout, StreamDeploy, StreamMode, StreamModes, TaskDeploy, ToDeploySpec, ETA_LIMIT,
    MU_TERM_LIMIT,
};
pub use streamgate_platform::json::{self, Json};
