//! Incremental admission-control analysis: O(affected-gateways)
//! re-verification of the A1–A10 verdict under stream churn, plus the
//! run-time [`AdmissionController`] that splices accepted streams into a
//! *running* system.
//!
//! The paper's analysis is a design-time procedure over a fixed
//! deployment. A production system, though, sees streams join and leave
//! at traffic rates — and re-running the full analyzer per request is
//! wasteful precisely where it hurts: the expensive rules (A1's CSDF
//! self-timed execution, A2's exact minimum-buffer search) are *per
//! gateway pair* and a stream change touches exactly one pair. This
//! module follows the design-time/run-time split of the related
//! multi-mode work (see PAPERS.md): a full analysis up front caches its
//! per-rule intermediate facts ([`AnalysisState`]), and each
//! [`Delta`] — add, remove, retune or mode-switch one stream —
//! re-evaluates only the facts the change can reach:
//!
//! * the affected pair's A1–A6 diagnostics, τ̂ vector and utilisation
//!   ([`crate::rules`]'s `PairFacts`) — the expensive part, recomputed
//!   for **one** gateway;
//! * the pair's additive A7 ring-load contribution (`RingContrib`) on the
//!   hops of its path — recomputed for the same single gateway;
//! * every *cheap* system-scope coupling — A8 round interference through
//!   `shares_chain_with` groups (linear arithmetic over the cached τ̂
//!   vectors), A9 config-bus slot overlap, A10 latency composition —
//!   re-assembled from the cache in O(gateways + streams) scalar work
//!   with no model execution.
//!
//! The soundness contract is *equivalence by construction*: the full
//! analyzer ([`crate::analyze_with`]) is itself implemented as "compute
//! all facts, assemble report", and the incremental path reuses the same
//! assembly over a cache where only the affected entries were replaced.
//! Unaffected entries are pure functions of spec parts the delta cannot
//! touch, so **incremental verdict ≡ full re-analysis verdict, always**
//! — diagnostics, bounds and JSON bytes included (enforced by the
//! differential proptest in `tests/incremental_churn.rs`).

use crate::diag::Report;
use crate::profile::monitor_config_for;
use crate::rules::{
    assemble_report, idle_wait_budget, transition_delay_bound, AnalysisOptions, Facts, ModeReport,
    IDLE_WAIT_ATTEMPTS,
};
use crate::spec::{stream_from_json, DeploySpec, StreamDeploy};
use crate::{json, Json};
use std::cell::Cell;
use streamgate_core::Monitor;
use streamgate_platform::{FifoId, System};

/// One stream-churn request against a deployment.
#[derive(Clone, Debug, PartialEq)]
pub enum Delta {
    /// Deploy a new stream on gateway pair `gateway`.
    AddStream {
        /// Gateway (view) index the stream joins. Always 0 for
        /// single-gateway specs.
        gateway: usize,
        /// The stream to deploy.
        stream: StreamDeploy,
    },
    /// Tear down the named stream on gateway pair `gateway`.
    RemoveStream {
        /// Gateway (view) index the stream leaves.
        gateway: usize,
        /// Name of the stream to remove.
        stream: String,
    },
    /// Replace the named stream's configuration (rate, block sizes,
    /// capacities, budgets) in place.
    RetuneStream {
        /// Gateway (view) index of the stream.
        gateway: usize,
        /// Name of the stream to retune.
        stream: String,
        /// The replacement configuration (may carry a new name).
        with: StreamDeploy,
    },
    /// Switch the named stream to one of its *declared* modes
    /// ([`crate::spec::StreamModes`]): a retune constrained to the
    /// mode table, subject to the declaration's allowed-transition edges,
    /// with rule A12's predicted transition-delay bound attached to the
    /// outcome and armed on the online monitor.
    ModeSwitch {
        /// Gateway (view) index of the stream.
        gateway: usize,
        /// Name of the stream to switch.
        stream: String,
        /// Name of the declared target mode.
        mode: String,
    },
}

impl Delta {
    /// The gateway (view) index this delta touches — the *only* pair
    /// whose expensive per-pair facts need re-evaluation.
    pub fn gateway(&self) -> usize {
        match self {
            Delta::AddStream { gateway, .. }
            | Delta::RemoveStream { gateway, .. }
            | Delta::RetuneStream { gateway, .. }
            | Delta::ModeSwitch { gateway, .. } => *gateway,
        }
    }

    /// Short human-readable description (`add s3 @ gw1` style).
    pub fn describe(&self) -> String {
        match self {
            Delta::AddStream { gateway, stream } => {
                format!("add {} @ gateway {gateway}", stream.name)
            }
            Delta::RemoveStream { gateway, stream } => {
                format!("remove {stream} @ gateway {gateway}")
            }
            Delta::RetuneStream {
                gateway,
                stream,
                with,
            } => format!("retune {stream} -> {} @ gateway {gateway}", with.name),
            Delta::ModeSwitch {
                gateway,
                stream,
                mode,
            } => format!("switch {stream} to mode {mode} @ gateway {gateway}"),
        }
    }
}

/// Why a [`Delta`] could not even be *evaluated* (as opposed to being
/// evaluated and rejected).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta names a gateway the spec does not have.
    UnknownGateway(usize),
    /// The delta names a stream the gateway does not carry.
    UnknownStream(usize, String),
    /// An add/retune would create a second stream with the same name on
    /// the same gateway (names key the run-time splice and the monitor).
    DuplicateStream(usize, String),
    /// A mode switch names a mode the stream's [`crate::spec::StreamModes`]
    /// declaration does not carry (or the stream has no declaration at
    /// all): `(gateway, stream, mode)`.
    UnknownMode(usize, String, String),
    /// A mode switch requests an edge the declaration's allowed-transition
    /// list forbids: `(gateway, stream, from-mode, to-mode)`.
    TransitionNotAllowed(usize, String, String, String),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::UnknownGateway(g) => write!(f, "unknown gateway {g}"),
            DeltaError::UnknownStream(g, s) => {
                write!(f, "gateway {g} has no stream named {s:?}")
            }
            DeltaError::DuplicateStream(g, s) => {
                write!(f, "gateway {g} already has a stream named {s:?}")
            }
            DeltaError::UnknownMode(g, s, m) => {
                write!(f, "gateway {g} stream {s:?} declares no mode named {m:?}")
            }
            DeltaError::TransitionNotAllowed(g, s, from, to) => write!(
                f,
                "gateway {g} stream {s:?} does not allow the mode transition {from:?} -> {to:?}"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// The admission decision for one [`Delta`], carrying the full analyzer
/// report of the *candidate* deployment (the spec with the delta
/// applied) — identical, diagnostic for diagnostic, to what a fresh
/// [`crate::analyze_with`] of that candidate produces.
#[derive(Clone, Debug, PartialEq)]
pub enum AdmissionVerdict {
    /// The candidate deployment passes every rule: the change may be
    /// committed (and, via [`AdmissionController`], spliced into the
    /// running system).
    Admit(Report),
    /// The candidate deployment fails at least one rule at Error
    /// severity. Nothing is committed; the running system and every
    /// already-admitted stream's τ ≤ τ̂ bound are untouched.
    Reject(Report),
}

impl AdmissionVerdict {
    /// True for [`AdmissionVerdict::Admit`].
    pub fn is_admitted(&self) -> bool {
        matches!(self, AdmissionVerdict::Admit(_))
    }

    /// The candidate deployment's full report, either way.
    pub fn report(&self) -> &Report {
        match self {
            AdmissionVerdict::Admit(r) | AdmissionVerdict::Reject(r) => r,
        }
    }
}

/// Persistent analyzer state for incremental re-verification: the
/// current (committed) spec, the cached per-rule facts of its full
/// A1–A10 run, and the assembled report.
#[derive(Clone, Debug)]
pub struct AnalysisState {
    spec: DeploySpec,
    opts: AnalysisOptions,
    facts: Facts,
    report: Report,
    /// Work counter: per-pair A1–A6 fact computations so far.
    pair_facts_computed: Cell<u64>,
}

impl AnalysisState {
    /// Run the full analysis once and cache every intermediate fact.
    pub fn new(spec: DeploySpec, opts: AnalysisOptions) -> AnalysisState {
        let mut computed = 0;
        let facts = Facts::compute(&spec, &opts, &mut computed);
        let report = assemble_report(&spec, &facts);
        AnalysisState {
            spec,
            opts,
            facts,
            report,
            pair_facts_computed: Cell::new(computed),
        }
    }

    /// How many times this state has computed one gateway pair's A1–A6
    /// facts (the expensive per-pair rules), the initial full analysis and
    /// every evaluated delta included, admitted or not. A work counter: it
    /// is not part of any [`Report`].
    ///
    /// The full analysis computes one per gateway pair plus one per
    /// declared mode whose configuration differs from the committed one.
    /// A delta computes one for the gateway it touches, plus one per such
    /// mode declared on that gateway.
    pub fn pair_facts_computed(&self) -> u64 {
        self.pair_facts_computed.get()
    }

    /// The committed deployment.
    pub fn spec(&self) -> &DeploySpec {
        &self.spec
    }

    /// The committed deployment's report.
    pub fn report(&self) -> &Report {
        &self.report
    }

    /// The rule A11 per-mode candidate reports of the committed spec,
    /// straight from the cached facts — no re-analysis. Byte-identical to
    /// [`crate::mode_reports`] of the committed spec (and therefore to a
    /// full `analyze_with` of each mode's single-mode candidate).
    pub fn mode_reports(&self) -> Vec<ModeReport> {
        self.spec
            .modes
            .iter()
            .zip(&self.facts.modes)
            .flat_map(|(decl, mf)| {
                mf.reports.iter().map(move |(name, r)| ModeReport {
                    gateway: decl.gateway,
                    stream: decl.stream.clone(),
                    mode: name.clone(),
                    report: r.clone(),
                })
            })
            .collect()
    }

    /// Apply `delta` to a clone of the committed spec, returning the
    /// candidate spec and the touched gateway index.
    fn candidate_spec(&self, delta: &Delta) -> Result<(DeploySpec, usize), DeltaError> {
        let mut spec = self.spec.clone();
        let g = delta.gateway();
        let streams: &mut Vec<StreamDeploy> = if spec.gateways.is_empty() {
            if g != 0 {
                return Err(DeltaError::UnknownGateway(g));
            }
            &mut spec.streams
        } else {
            match spec.gateways.get_mut(g) {
                Some(gw) => &mut gw.streams,
                None => return Err(DeltaError::UnknownGateway(g)),
            }
        };
        match delta {
            Delta::AddStream { stream, .. } => {
                if streams.iter().any(|s| s.name == stream.name) {
                    return Err(DeltaError::DuplicateStream(g, stream.name.clone()));
                }
                streams.push(stream.clone());
            }
            Delta::RemoveStream { stream, .. } => {
                let i = streams
                    .iter()
                    .position(|s| s.name == *stream)
                    .ok_or_else(|| DeltaError::UnknownStream(g, stream.clone()))?;
                streams.remove(i);
            }
            Delta::RetuneStream { stream, with, .. } => {
                let i = streams
                    .iter()
                    .position(|s| s.name == *stream)
                    .ok_or_else(|| DeltaError::UnknownStream(g, stream.clone()))?;
                if with.name != *stream && streams.iter().any(|s| s.name == with.name) {
                    return Err(DeltaError::DuplicateStream(g, with.name.clone()));
                }
                streams[i] = with.clone();
            }
            Delta::ModeSwitch { stream, mode, .. } => {
                let i = streams
                    .iter()
                    .position(|s| s.name == *stream)
                    .ok_or_else(|| DeltaError::UnknownStream(g, stream.clone()))?;
                let with = self.mode_config(g, stream, mode)?;
                // Transition edges only constrain switches *between
                // declared modes*: when the committed configuration is one
                // of the declared modes, the edge from it must be allowed.
                // A committed configuration outside the mode table (the
                // initial deployment) may enter any declared mode.
                let decl = self
                    .spec
                    .stream_modes(g, stream)
                    .expect("mode_config validated the declaration");
                let from = decl.modes.iter().find(|m| {
                    let mut c = m.config.clone();
                    c.name = stream.clone();
                    c == streams[i]
                });
                if let Some(from) = from {
                    if !decl.transition_allowed(&from.name, mode) {
                        return Err(DeltaError::TransitionNotAllowed(
                            g,
                            stream.clone(),
                            from.name.clone(),
                            mode.clone(),
                        ));
                    }
                }
                streams[i] = with;
            }
        }
        Ok((spec, g))
    }

    /// The committed configuration of the named stream, when present.
    fn committed_stream(&self, g: usize, name: &str) -> Option<&StreamDeploy> {
        let streams = if self.spec.gateways.is_empty() {
            if g != 0 {
                return None;
            }
            &self.spec.streams
        } else {
            &self.spec.gateways.get(g)?.streams
        };
        streams.iter().find(|s| s.name == name)
    }

    /// The named declared mode's configuration with the stream's name
    /// substituted — the `StreamDeploy` a [`Delta::ModeSwitch`] installs.
    fn mode_config(&self, g: usize, stream: &str, mode: &str) -> Result<StreamDeploy, DeltaError> {
        let m = self
            .spec
            .stream_modes(g, stream)
            .and_then(|d| d.mode(mode))
            .ok_or_else(|| DeltaError::UnknownMode(g, stream.to_string(), mode.to_string()))?;
        let mut with = m.config.clone();
        with.name = stream.to_string();
        Ok(with)
    }

    /// Evaluate `delta` without committing anything: recompute the
    /// touched gateway's facts on the candidate spec, re-assemble, and
    /// judge. The expensive per-pair rules run for **one** gateway; every
    /// other pair's cached facts are reused verbatim (they are functions
    /// of spec parts the delta cannot change).
    pub fn evaluate(&self, delta: &Delta) -> Result<AdmissionVerdict, DeltaError> {
        Ok(self.evaluate_candidate(delta)?.verdict)
    }

    /// Evaluate `delta` and, **iff admitted**, commit the candidate spec,
    /// facts and report as the new baseline. A rejected (or malformed)
    /// delta leaves the state bit-for-bit untouched — the non-disruptive
    /// reject path of the admission contract.
    pub fn apply(&mut self, delta: &Delta) -> Result<AdmissionVerdict, DeltaError> {
        let candidate = self.evaluate_candidate(delta)?;
        Ok(self.commit(candidate))
    }

    fn evaluate_candidate(&self, delta: &Delta) -> Result<Candidate, DeltaError> {
        let (spec, g) = self.candidate_spec(delta)?;
        let mut facts = self.facts.clone();
        let mut computed = 0;
        facts.recompute_gateway(&spec, g, &self.opts, &mut computed);
        self.pair_facts_computed
            .set(self.pair_facts_computed.get() + computed);
        let report = assemble_report(&spec, &facts);
        let verdict = if report.is_accepted() {
            AdmissionVerdict::Admit(report)
        } else {
            AdmissionVerdict::Reject(report)
        };
        Ok(Candidate {
            spec,
            facts,
            verdict,
        })
    }

    /// The one commit step of [`AnalysisState::apply`] and
    /// [`AdmissionController::request`]: an admitted candidate becomes the
    /// committed baseline as evaluated, a rejected one is dropped.
    fn commit(&mut self, candidate: Candidate) -> AdmissionVerdict {
        if let AdmissionVerdict::Admit(report) = &candidate.verdict {
            self.spec = candidate.spec;
            self.facts = candidate.facts;
            self.report = report.clone();
        }
        candidate.verdict
    }
}

/// An evaluated delta: the candidate spec, its facts and the verdict on
/// them, held until [`AnalysisState::commit`] takes or drops it.
struct Candidate {
    spec: DeploySpec,
    facts: Facts,
    verdict: AdmissionVerdict,
}

/// Parse a `--delta` admission script: a JSON object with a `deltas`
/// array whose entries are `{"op": "add", "gateway": N, "stream":
/// {...}}`, `{"op": "remove", "gateway": N, "stream": "name"}`,
/// `{"op": "retune", "gateway": N, "stream": {...}}` (retune matches the
/// existing stream by the new configuration's name unless a separate
/// `"target"` name is given) or `{"op": "switch", "gateway": N,
/// "stream": "name", "mode": "mode-name"}` (a [`Delta::ModeSwitch`] to a
/// declared mode). Stream objects use the spec-JSON stream encoding
/// (`name`, `mu: [num, den]`, `eta_in`, `eta_out`, `reconfig`,
/// `input_capacity`, `output_capacity`, optional `max_latency`).
/// `gateway` defaults to 0.
pub fn parse_delta_script(text: &str) -> Result<Vec<Delta>, String> {
    json::parse(text)?.items("deltas", parse_delta)
}

fn parse_delta(d: &Json) -> Result<Delta, String> {
    let gateway = d.at("gateway").unwrap_or(0);
    match d.req("op")? {
        "add" => Ok(Delta::AddStream {
            gateway,
            stream: stream_from_json(d.req("stream")?)?,
        }),
        "remove" => Ok(Delta::RemoveStream {
            gateway,
            stream: d.req("stream")?,
        }),
        "retune" => {
            let with = stream_from_json(d.req("stream")?)?;
            Ok(Delta::RetuneStream {
                gateway,
                stream: d.at("target").unwrap_or_else(|| with.name.clone()),
                with,
            })
        }
        "switch" => Ok(Delta::ModeSwitch {
            gateway,
            stream: d.req("stream")?,
            mode: d.req("mode")?,
        }),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Why a run-time admission attempt failed beyond the analysis itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// The delta was malformed against the committed spec.
    Delta(DeltaError),
    /// The platform could not be brought into the required state (an
    /// idle affected pair inside its config-bus slot) within the cycle
    /// budget — e.g. a saturated pair that never goes idle.
    Timeout(String),
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Delta(e) => write!(f, "{e}"),
            AdmissionError::Timeout(m) => write!(f, "admission timeout: {m}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

impl From<DeltaError> for AdmissionError {
    fn from(e: DeltaError) -> AdmissionError {
        AdmissionError::Delta(e)
    }
}

/// What a run-time admission attempt did.
#[derive(Debug)]
pub struct AdmissionOutcome {
    /// The analysis verdict, with the candidate deployment's full report.
    pub verdict: AdmissionVerdict,
    /// Reconfiguration window `[start, end)` of the config-bus splice
    /// transaction, when the delta was admitted and touched the platform.
    pub window: Option<(u64, u64)>,
    /// C-FIFOs created for an admitted add, retune or mode switch
    /// (input, output).
    pub fifos: Option<(FifoId, FifoId)>,
    /// The stream's index in its gateway's table after an admitted add,
    /// retune or mode switch: the appended entry's index for an add, the
    /// unchanged index of the replaced entry for a retune or a switch. It
    /// is the stream's index in the committed spec's gateway, too.
    pub stream_index: Option<usize>,
    /// Rule A12's predicted worst-case transition delay in cycles
    /// ([`crate::TransitionBound::total`]), for an admitted
    /// [`Delta::ModeSwitch`]: measured from the request cycle, the
    /// switched stream's first post-switch block is guaranteed to drain
    /// within it. `None` for every other delta kind.
    pub predicted_delay: Option<u64>,
}

/// Run-time admission control over a *running* [`System`]: consults the
/// incremental analyzer, and — only on [`AdmissionVerdict::Admit`] —
/// splices the change in through the configuration bus inside an
/// analyzed reconfiguration window, then re-arms the online [`Monitor`]
/// with the updated bounds.
///
/// Transition-window soundness (DESIGN.md §10): an add is an append-only
/// stream-table write scheduled inside the pair's A9 bus slot; it never
/// touches the active block's table entry, the round-robin cursor or the
/// chain's data path, so every in-flight and co-deployed stream keeps its
/// τ ≤ τ̂ bound across the transition, and the new stream's first block
/// pays its full `R_s` through the ordinary admission path exactly as
/// Eq. 2 charges it. A removal, a retune and a mode switch first wait for
/// the pair to go idle inside its slot, so no block is in flight on the
/// affected pair when its table changes. A retune and a switch replace
/// the entry in place, so the running table always lists the committed
/// spec's streams in the spec's order. Rejects return before any platform
/// call — state mutation on the reject path is structurally impossible.
pub struct AdmissionController {
    state: AnalysisState,
}

impl AdmissionController {
    /// Controller over a committed baseline deployment. Runs the full
    /// analysis once; subsequent requests are incremental.
    pub fn new(spec: DeploySpec, opts: AnalysisOptions) -> AdmissionController {
        AdmissionController::from_state(AnalysisState::new(spec, opts))
    }

    /// Controller over an *existing* analyzer state — e.g. the one a sim
    /// bin's `--analyze` pre-flight already computed — so the full
    /// analysis runs exactly once per process.
    pub fn from_state(state: AnalysisState) -> AdmissionController {
        AdmissionController { state }
    }

    /// The underlying incremental analyzer state.
    pub fn state(&self) -> &AnalysisState {
        &self.state
    }

    /// The committed deployment.
    pub fn spec(&self) -> &DeploySpec {
        self.state.spec()
    }

    /// The committed deployment's report.
    pub fn report(&self) -> &Report {
        self.state.report()
    }

    /// Evaluate a delta without touching the platform or committing
    /// anything — the pure analysis half of [`AdmissionController::request`].
    pub fn evaluate(&self, delta: &Delta) -> Result<AdmissionVerdict, DeltaError> {
        self.state.evaluate(delta)
    }

    /// Process one admission request against the running `system`.
    ///
    /// `gateway_map[v]` is the system gateway index of spec gateway view
    /// `v` — `[built.gateway]` for a `BuiltSystem`, `&built.gateways` for
    /// a [`crate::MultiBuiltSystem`] (both are identity mappings, which
    /// the monitor re-arming also relies on). `monitor`, when given, is
    /// re-armed with the updated τ̂/γ bounds after an admitted splice.
    ///
    /// The delta is evaluated exactly once. An admitted candidate (spec,
    /// facts, report) is held across the splice and then committed as
    /// evaluated, through the same step as [`AnalysisState::apply`].
    ///
    /// On [`AdmissionVerdict::Reject`] the method returns *before any
    /// platform interaction*: the system, the committed spec and every
    /// admitted stream's bounds are untouched.
    pub fn request(
        &mut self,
        system: &mut System,
        gateway_map: &[usize],
        delta: &Delta,
        monitor: Option<&mut Monitor>,
    ) -> Result<AdmissionOutcome, AdmissionError> {
        let candidate = self.state.evaluate_candidate(delta)?;
        if !candidate.verdict.is_admitted() {
            return Ok(AdmissionOutcome {
                verdict: candidate.verdict,
                window: None,
                fifos: None,
                stream_index: None,
                predicted_delay: None,
            });
        }
        let g = delta.gateway();
        let sysg = *gateway_map.get(g).ok_or(DeltaError::UnknownGateway(g))?;

        // A retune and a mode switch both replace the stream's table entry
        // in place; they differ only in where the new configuration comes
        // from and in the A12 bound a switch carries.
        let in_place = match delta {
            Delta::RetuneStream { stream, with, .. } => Some((stream, with.clone())),
            Delta::ModeSwitch { stream, mode, .. } => {
                Some((stream, self.state.mode_config(g, stream, mode)?))
            }
            Delta::AddStream { .. } | Delta::RemoveStream { .. } => None,
        };

        // A12's transition-delay bound is anchored at the *request* cycle
        // (it budgets the drain/alignment waits the splice is about to
        // perform), so capture the clock before any platform interaction.
        let request_cycle = system.cycle();
        let predicted_delay = match (delta, &in_place) {
            (Delta::ModeSwitch { .. }, Some((stream, with))) => {
                let old = self
                    .state
                    .committed_stream(g, stream)
                    .ok_or_else(|| DeltaError::UnknownStream(g, stream.to_string()))?;
                Some(
                    transition_delay_bound(
                        self.state.spec(),
                        g,
                        old,
                        with,
                        self.state.report().gamma,
                        candidate.verdict.report().gamma,
                    )
                    .total(),
                )
            }
            _ => None,
        };

        let (window, fifos, stream_index) = match (delta, &in_place) {
            // In place over the configuration bus: the table order and the
            // round-robin cursor survive, so every other stream keeps its
            // index and its service position through the window.
            (_, Some((stream, with))) => {
                let (t, idx) = self.idle_in_slot(system, sysg, g, stream)?;
                let (i, o, cfg) = self.state.spec().stream_entry(system, g, with);
                system.retune_stream(sysg, idx, cfg);
                (Some((t, t + with.reconfig)), Some((i, o)), Some(idx))
            }
            (Delta::AddStream { stream, .. }, None) => {
                let t = self.align_to_slot(system, g, stream.reconfig);
                let (i, o, cfg) = self.state.spec().stream_entry(system, g, stream);
                let idx = system.splice_stream(sysg, cfg);
                (Some((t, t + stream.reconfig)), Some((i, o)), Some(idx))
            }
            (Delta::RemoveStream { stream, .. }, None) => {
                let (t, idx) = self.idle_in_slot(system, sysg, g, stream)?;
                let removed = system.splice_out_stream(sysg, idx);
                (Some((t, t + removed.reconfig_cycles)), None, None)
            }
            (Delta::RetuneStream { .. } | Delta::ModeSwitch { .. }, None) => {
                unreachable!("a retune or mode switch always has its replacement")
            }
        };

        // The splice above read the old committed state; only now does
        // the evaluated candidate replace it.
        let verdict = self.state.commit(candidate);

        if let Some(m) = monitor {
            m.rearm(monitor_config_for(
                self.state.spec(),
                self.state.report(),
                system,
            ));
            // Arm the run-time A12 check: the switched stream's first
            // post-switch block must drain within the predicted bound.
            if let (Delta::ModeSwitch { stream, .. }, Some(d)) = (delta, predicted_delay) {
                m.arm_transition_deadline(sysg, stream, request_cycle + d);
            }
        }
        Ok(AdmissionOutcome {
            verdict,
            window,
            fifos,
            stream_index,
            predicted_delay,
        })
    }

    /// Advance the system to the next cycle inside gateway `g`'s
    /// config-bus slot with at least `r` cycles of slot left (rule A9
    /// guarantees `r` fits any slot the pair declares). Specs without a
    /// bus frame splice immediately. Returns the splice cycle.
    fn align_to_slot(&self, system: &mut System, g: usize, r: u64) -> u64 {
        let spec = self.state.spec();
        let slot = spec
            .gateway_views()
            .get(g)
            .and_then(|v| v.config_slot)
            .zip(spec.config_bus_period);
        let Some(((off, len), period)) = slot else {
            return system.cycle();
        };
        let now = system.cycle();
        let latest = off + len.saturating_sub(r.min(len));
        let phase = now % period;
        let t = if (off..=latest).contains(&phase) {
            now
        } else if phase < off {
            now + (off - phase)
        } else {
            now + (period - phase) + off
        };
        if t > now {
            system.run(t - now);
        }
        system.cycle()
    }

    /// Bring gateway `sysg` to *idle inside its bus slot*: wait for the
    /// pair to finish its in-flight block ([`System::run_until_idle`]
    /// stops at the same cycle in both engines), then align to the slot,
    /// re-verifying idleness after the alignment run. It makes at most
    /// `IDLE_WAIT_ATTEMPTS` attempts of `idle_wait_budget(γ)` cycles each,
    /// the figures rule A12's drain term bounds. Also resolves the target
    /// stream's current table index by name.
    fn idle_in_slot(
        &self,
        system: &mut System,
        sysg: usize,
        g: usize,
        stream: &str,
    ) -> Result<(u64, usize), AdmissionError> {
        let gamma = self.state.report().gamma;
        let budget = idle_wait_budget(gamma);
        for _ in 0..IDLE_WAIT_ATTEMPTS {
            let idle = system.gateways[sysg].is_idle() || system.run_until_idle(sysg, budget);
            if !idle {
                return Err(AdmissionError::Timeout(format!(
                    "gateway {sysg} not idle within {budget} cycles (gamma = {gamma})"
                )));
            }
            let t = self.align_to_slot(system, g, 0);
            if system.gateways[sysg].is_idle() {
                let gw = &system.gateways[sysg];
                let idx = (0..gw.num_streams())
                    .find(|&i| gw.stream(i).name == stream)
                    .ok_or_else(|| {
                        AdmissionError::Delta(DeltaError::UnknownStream(g, stream.to_string()))
                    })?;
                return Ok((t, idx));
            }
        }
        Err(AdmissionError::Timeout(format!(
            "gateway {sysg} kept admitting blocks across its config-bus slot"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_with, DeploySpec};
    use streamgate_ilp::Rational;

    fn probe(name: &str) -> StreamDeploy {
        StreamDeploy {
            name: name.into(),
            mu: Rational::new(1, 1_000_000),
            eta_in: 8,
            eta_out: 8,
            reconfig: 20,
            input_capacity: 64,
            output_capacity: 64,
            max_latency: None,
        }
    }

    #[test]
    fn add_then_remove_matches_full_analysis() {
        let opts = AnalysisOptions::default();
        let mut st = AnalysisState::new(DeploySpec::pal2(), opts);
        let add = Delta::AddStream {
            gateway: 1,
            stream: probe("probe"),
        };
        let v = st.apply(&add).unwrap();
        assert!(v.is_admitted(), "{}", v.report().render_text());
        let mut full_spec = DeploySpec::pal2();
        full_spec.gateways[1].streams.push(probe("probe"));
        let full = analyze_with(&full_spec, &opts);
        assert_eq!(v.report(), &full);
        assert_eq!(v.report().to_json_text(), full.to_json_text());

        let rm = Delta::RemoveStream {
            gateway: 1,
            stream: "probe".into(),
        };
        let v = st.apply(&rm).unwrap();
        assert!(v.is_admitted());
        assert_eq!(v.report(), &analyze_with(&DeploySpec::pal2(), &opts));
    }

    #[test]
    fn reject_leaves_state_untouched() {
        let opts = AnalysisOptions::default();
        let mut st = AnalysisState::new(DeploySpec::pal2(), opts);
        let before = st.report().clone();
        // μ = 1/2 on the shared chain over-commits it (A8).
        let mut hog = probe("hog");
        hog.mu = Rational::new(1, 2);
        let v = st
            .apply(&Delta::AddStream {
                gateway: 1,
                stream: hog,
            })
            .unwrap();
        assert!(!v.is_admitted());
        assert_eq!(st.report(), &before);
        assert_eq!(st.spec(), &DeploySpec::pal2());
    }

    #[test]
    fn delta_errors_are_reported() {
        let st = AnalysisState::new(DeploySpec::pal2(), AnalysisOptions::default());
        assert_eq!(
            st.evaluate(&Delta::RemoveStream {
                gateway: 0,
                stream: "nope".into()
            }),
            Err(DeltaError::UnknownStream(0, "nope".into()))
        );
        assert_eq!(
            st.evaluate(&Delta::AddStream {
                gateway: 7,
                stream: probe("x")
            }),
            Err(DeltaError::UnknownGateway(7))
        );
        assert_eq!(
            st.evaluate(&Delta::AddStream {
                gateway: 0,
                stream: probe("ch1-front")
            }),
            Err(DeltaError::DuplicateStream(0, "ch1-front".into()))
        );
    }

    /// pal2 with a two-mode declaration (`slow` = the committed config,
    /// `fast` = a shorter reconfiguration window, so it stays inside the
    /// pair's A9 bus slot) on gateway 0's first stream, with the only
    /// allowed edge `slow -> fast`.
    fn pal2_with_modes() -> (DeploySpec, String) {
        let mut spec = DeploySpec::pal2();
        let slow = spec.gateways[0].streams[0].clone();
        let mut fast = slow.clone();
        fast.reconfig -= 16;
        let name = slow.name.clone();
        spec.modes = vec![crate::spec::StreamModes {
            gateway: 0,
            stream: name.clone(),
            modes: vec![
                crate::spec::StreamMode {
                    name: "slow".into(),
                    config: slow,
                },
                crate::spec::StreamMode {
                    name: "fast".into(),
                    config: fast,
                },
            ],
            transitions: vec![("slow".into(), "fast".into())],
        }];
        (spec, name)
    }

    #[test]
    fn mode_switch_matches_full_analysis_and_respects_edges() {
        let opts = AnalysisOptions::default();
        let (spec, name) = pal2_with_modes();
        let mut st = AnalysisState::new(spec.clone(), opts);

        // Unknown mode and no-declaration streams are delta errors.
        assert_eq!(
            st.evaluate(&Delta::ModeSwitch {
                gateway: 0,
                stream: name.clone(),
                mode: "turbo".into()
            }),
            Err(DeltaError::UnknownMode(0, name.clone(), "turbo".into()))
        );
        let other = spec.gateways[1].streams[0].name.clone();
        assert_eq!(
            st.evaluate(&Delta::ModeSwitch {
                gateway: 1,
                stream: other.clone(),
                mode: "fast".into()
            }),
            Err(DeltaError::UnknownMode(1, other, "fast".into()))
        );

        // slow -> fast is allowed and must equal the full analysis of the
        // spec with the fast config in force (modes declaration kept).
        let v = st
            .apply(&Delta::ModeSwitch {
                gateway: 0,
                stream: name.clone(),
                mode: "fast".into(),
            })
            .unwrap();
        assert!(v.is_admitted(), "{}", v.report().render_text());
        let mut full_spec = spec.clone();
        full_spec.gateways[0].streams[0] = spec.modes[0].modes[1].config.clone();
        full_spec.gateways[0].streams[0].name = name.clone();
        let full = analyze_with(&full_spec, &opts);
        assert_eq!(v.report().to_json_text(), full.to_json_text());

        // fast -> slow has no declared edge: rejected before analysis.
        assert_eq!(
            st.evaluate(&Delta::ModeSwitch {
                gateway: 0,
                stream: name.clone(),
                mode: "slow".into()
            }),
            Err(DeltaError::TransitionNotAllowed(
                0,
                name.clone(),
                "fast".into(),
                "slow".into()
            ))
        );
    }

    #[test]
    fn cached_mode_reports_match_recomputed_ones() {
        let (spec, _) = pal2_with_modes();
        let opts = AnalysisOptions::default();
        let st = AnalysisState::new(spec.clone(), opts);
        let cached = st.mode_reports();
        let fresh = crate::rules::mode_reports(&spec, &opts);
        assert_eq!(cached.len(), 2);
        assert_eq!(cached, fresh);
    }

    #[test]
    fn each_delta_computes_only_the_pair_facts_it_can_change() {
        let opts = AnalysisOptions {
            exact_buffers: false,
        };
        let add = |gateway, name: &str| Delta::AddStream {
            gateway,
            stream: probe(name),
        };
        // No mode table: one computation per pair, then one per delta,
        // admitted, rejected or only evaluated.
        let mut st = AnalysisState::new(DeploySpec::pal2(), opts);
        assert_eq!(st.pair_facts_computed(), 2);
        assert!(st.apply(&add(1, "aux")).unwrap().is_admitted());
        assert_eq!(st.pair_facts_computed(), 3);
        let hog = Delta::AddStream {
            gateway: 0,
            stream: StreamDeploy {
                mu: Rational::new(1, 2),
                ..probe("hog")
            },
        };
        assert!(!st.evaluate(&hog).unwrap().is_admitted());
        assert_eq!(st.pair_facts_computed(), 4);

        // Modes on gateway 0: "slow" is the committed configuration and
        // takes the base facts, "fast" costs one computation.
        let (spec, name) = pal2_with_modes();
        let mut st = AnalysisState::new(spec, opts);
        assert_eq!(st.pair_facts_computed(), 3);
        // A delta on gateway 1 reuses both cached candidates.
        assert!(st.apply(&add(1, "aux")).unwrap().is_admitted());
        assert_eq!(st.pair_facts_computed(), 4);
        // A delta on gateway 0 recomputes the pair and "fast".
        assert!(st.apply(&add(0, "aux0")).unwrap().is_admitted());
        assert_eq!(st.pair_facts_computed(), 6);
        // After a switch to "fast", "slow" is the one that differs.
        let switch = Delta::ModeSwitch {
            gateway: 0,
            stream: name,
            mode: "fast".into(),
        };
        assert!(st.apply(&switch).unwrap().is_admitted());
        assert_eq!(st.pair_facts_computed(), 8);
        assert!(st.apply(&add(1, "aux1")).unwrap().is_admitted());
        assert_eq!(st.pair_facts_computed(), 9);
        // The reused candidates still give the reports a fresh analysis
        // of the committed spec gives.
        assert_eq!(
            st.mode_reports(),
            crate::rules::mode_reports(st.spec(), &opts)
        );
    }

    #[test]
    fn delta_script_parses() {
        let script = r#"{"deltas": [
            {"op": "add", "gateway": 1, "stream": {"name": "s", "mu": [1, 100],
             "eta_in": 8, "eta_out": 8, "reconfig": 20,
             "input_capacity": 64, "output_capacity": 64}},
            {"op": "remove", "gateway": 1, "stream": "s"},
            {"op": "retune", "stream": {"name": "s", "mu": [1, 200],
             "eta_in": 8, "eta_out": 8, "reconfig": 20,
             "input_capacity": 64, "output_capacity": 64}},
            {"op": "switch", "gateway": 1, "stream": "s", "mode": "fast"}
        ]}"#;
        let deltas = parse_delta_script(script).unwrap();
        assert_eq!(deltas.len(), 4);
        assert_eq!(deltas[0].gateway(), 1);
        assert!(matches!(&deltas[2], Delta::RetuneStream { stream, .. } if stream == "s"));
        assert_eq!(
            deltas[3],
            Delta::ModeSwitch {
                gateway: 1,
                stream: "s".into(),
                mode: "fast".into()
            }
        );
        assert!(parse_delta_script(r#"{"deltas": [{"op": "switch", "stream": "s"}]}"#).is_err());
    }
}
