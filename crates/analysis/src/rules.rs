//! The analysis rules A1–A13 and the [`analyze`] entry point.
//!
//! Every rule checks a compile-time property the paper derives for the
//! gateway architecture (see DESIGN.md §8 for the rule ↔ equation/figure
//! map). None of them executes a simulated platform cycle: A1 runs the
//! *analytical* self-timed execution of the per-stream CSDF model of
//! Fig. 5, everything else is arithmetic over the deployment description.
//!
//! Rules A1–A6 are *per gateway pair*: they run once per
//! [`GatewayView`], so a multi-gateway spec gets each pair checked in
//! isolation exactly as a PR-3 single-gateway spec would be. Rules A7–A10
//! are *system scope*: ring contention across pairs (A7), the system round
//! with cross-pair chain sharing (A8), configuration-bus slot tables (A9)
//! and end-to-end latency through the Fig. 7 single-actor abstraction
//! (A10). Rules A11–A13 analyse the multi-mode declarations of
//! [`DeploySpec::modes`]: per-mode admissibility through the incremental
//! facts cache (A11), closed-form worst-case transition delay (A12) and
//! interference-freedom of non-switching streams throughout a transition
//! window (A13).

use crate::diag::{Diagnostic, Location, Report, RuleId, Severity, StreamBounds};
use crate::spec::{DeploySpec, GatewayView, StreamDeploy, ETA_LIMIT, MU_TERM_LIMIT};
use streamgate_core::{minimum_stream_buffers, run_fig5, Fig5Params, SharingProblem};
use streamgate_ilp::Rational;

/// Largest block size for which the exact MCM-based minimum-buffer search
/// (and with it the Fig. 8 non-monotonicity probe) still runs in
/// micro/milliseconds; beyond it A2 falls back to the analytic floors.
const EXACT_BUFFER_ETA_LIMIT: u64 = 64;

/// Tuning knobs for [`analyze_with`].
#[derive(Clone, Copy, Debug)]
pub struct AnalysisOptions {
    /// Run the exact MCM-based minimum-buffer search and the Fig. 8
    /// non-monotonicity probe (rule A2). Each of its feasibility tests
    /// walks an HSDF graph of about 2η nodes, which costs up to seconds
    /// per stream in unoptimised builds — batch consumers (the
    /// differential harness analyses hundreds of deployments) turn it off. All findings it produces are *Warnings*,
    /// so disabling it never changes the accept/reject verdict.
    pub exact_buffers: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            exact_buffers: true,
        }
    }
}

/// Run every rule over `spec` with default options and collect the findings
/// into a [`Report`].
pub fn analyze(spec: &DeploySpec) -> Report {
    analyze_with(spec, &AnalysisOptions::default())
}

/// Run every rule over `spec` and collect the findings into a [`Report`].
pub fn analyze_with(spec: &DeploySpec, opts: &AnalysisOptions) -> Report {
    assemble_report(spec, &Facts::compute(spec, opts, &mut 0))
}

/// Cached per-pair facts: everything the *expensive* per-gateway rules
/// (A1 CSDF liveness, A2 exact buffer search, A3 with the Algorithm 1
/// solve, A5, A6 and the structural checks) produce for one
/// [`GatewayView`]. These depend only on the pair's own chain, parameters
/// and streams — never on any other pair's stream set — so a stream
/// add/remove/retune on one gateway invalidates exactly one `PairFacts`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct PairFacts {
    /// Per-pair diagnostics with stream locations indexed *locally*
    /// (0-based within the pair); [`assemble_report`] remaps them onto the
    /// flat cross-gateway stream numbering.
    pub(crate) diags: Vec<Diagnostic>,
    /// τ̂ per local stream: `R_s + (η_s + 2)·c0` (Eq. 2) with the pair's
    /// own `c0` — the input the system-scope round rule A8 consumes.
    /// `None` where it overflows `u64` (a structural error).
    pub(crate) taus: Vec<Option<u64>>,
    /// Aggregate chain utilisation `c0·Σμ` of the pair (Eq. 8), `None`
    /// where the exact sum overflows `i128` (a structural error).
    pub(crate) util: Option<Rational>,
}

impl PairFacts {
    pub(crate) fn compute(
        spec: &DeploySpec,
        view: &GatewayView,
        opts: &AnalysisOptions,
    ) -> PairFacts {
        let mut diags = Vec::new();
        let prob = view.sharing_problem();
        let etas = view.etas();
        let taus: Vec<Option<u64>> = (0..etas.len())
            .map(|i| prob.checked_tau_hat(i, etas[i]))
            .collect();
        let gamma = check_round_fits(view, &prob, &taus, &mut diags);
        let util = prob.checked_utilisation();
        if util.is_none() && view.streams.iter().all(StreamDeploy::rate_in_range) {
            diags.push(rate_sum_overflow(
                RuleId::A3Throughput,
                gw_loc(spec, view),
                "the aggregate chain utilisation c0*sum(mu) (Eq. 8)",
            ));
        }
        let structurally_ok = check_structure(spec, view, 0, &mut diags);
        let throughput_ok = check_throughput(
            spec,
            view,
            0,
            &prob,
            &etas,
            gamma,
            util.as_ref(),
            &mut diags,
        );
        check_buffers(
            spec,
            view,
            0,
            &prob,
            &etas,
            gamma,
            throughput_ok,
            opts,
            &mut diags,
        );
        check_space_check(spec, view, 0, &mut diags);
        check_credits(spec, view, &mut diags);
        check_liveness(spec, view, 0, &taus, gamma, structurally_ok, &mut diags);
        PairFacts { diags, taus, util }
    }
}

/// Eq. 2–4 in `u64`: the pair's round `γ = Σ τ̂`, or `None` with one
/// structural Error naming the stream whose τ̂, or whose addition to the
/// sum, overflows. The rules that need γ skip the pair then, rather than
/// quote a wrapped bound.
fn check_round_fits(
    view: &GatewayView,
    prob: &SharingProblem,
    taus: &[Option<u64>],
    diags: &mut Vec<Diagnostic>,
) -> Option<u64> {
    let mut gamma = 0u64;
    for (i, (s, tau)) in view.streams.iter().zip(taus).enumerate() {
        let what = match tau {
            None => format!(
                "tau-hat = R + (eta_in + 2)*c0 = {} + ({} + 2)*{}",
                s.reconfig,
                s.eta_in,
                prob.params.c0()
            ),
            Some(t) => match gamma.checked_add(*t) {
                Some(g) => {
                    gamma = g;
                    continue;
                }
                None => format!("the pair's round gamma = sum of tau-hat, adding tau-hat = {t},"),
            },
        };
        diags.push(Diagnostic {
            rule: RuleId::A3Throughput,
            severity: Severity::Error,
            location: stream_loc(view, 0, i),
            message: format!(
                "{what} overflows u64: the round bounds (Eq. 2-4) cannot be computed, \
                 so the rules that need gamma skip this pair"
            ),
        });
        return None;
    }
    Some(gamma)
}

/// The structural Error for an exact rate sum that overflows `i128`:
/// rates with large, pairwise coprime denominators.
fn rate_sum_overflow(rule: RuleId, location: Location, what: &str) -> Diagnostic {
    Diagnostic {
        rule,
        severity: Severity::Error,
        location,
        message: format!(
            "{what} overflows i128: the rates' denominators are too large and \
             coprime to sum exactly, so the rule cannot be checked"
        ),
    }
}

/// One pair's additive contribution to the A7 ring-load accounting: dense
/// per-hop load floors/ceilings on the data and credit rings, plus the
/// set of data-ring hops the pair's blocks cross. Contributions are pure
/// functions of the ring layout (which stream churn never changes) and
/// the pair's own streams, so [`assemble_report`] can re-sum them in
/// O(gateways × stations) without re-walking any unaffected pair.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct RingContrib {
    /// Provable per-hop load floor on the data ring, flits/cycle.
    pub(crate) data_min: Vec<Rational>,
    /// Per-hop load ceiling on the data ring, flits/cycle.
    pub(crate) data_max: Vec<Rational>,
    /// Provable per-hop load floor on the credit ring.
    pub(crate) credit_min: Vec<Rational>,
    /// Per-hop load ceiling on the credit ring.
    pub(crate) credit_max: Vec<Rational>,
    /// Data-ring hops this pair's blocks cross (deduplicated).
    pub(crate) hops: Vec<usize>,
    /// False where an exact per-hop sum overflowed `i128`: the loads are
    /// partial, and the ring rules report the overflow instead.
    pub(crate) exact: bool,
}

impl RingContrib {
    pub(crate) fn compute(layout: &crate::spec::RingLayout, view: &GatewayView) -> RingContrib {
        let zero = Rational::from_int(0);
        let mut c = RingContrib {
            data_min: vec![zero; layout.nodes],
            data_max: vec![zero; layout.nodes],
            credit_min: vec![zero; layout.nodes],
            credit_max: vec![zero; layout.nodes],
            hops: Vec::new(),
            exact: true,
        };
        let segs = layout.segments(view.index);
        for s in view.streams {
            let ratio = if s.eta_out >= s.eta_in {
                Rational::ONE
            } else {
                Rational::new(s.eta_out as i128, s.eta_in as i128)
            };
            for (k, &(src, dst)) in segs.iter().enumerate() {
                let wmin = if k == 0 {
                    Some(s.mu)
                } else {
                    s.mu.checked_mul(&ratio)
                };
                for h in layout.data_hops(src, dst) {
                    add_exact(&mut c.data_min[h], wmin, &mut c.exact);
                    add_exact(&mut c.data_max[h], Some(s.mu), &mut c.exact);
                    if !c.hops.contains(&h) {
                        c.hops.push(h);
                    }
                }
                for h in layout.credit_hops(src, dst) {
                    add_exact(&mut c.credit_min[h], wmin, &mut c.exact);
                    add_exact(&mut c.credit_max[h], Some(s.mu), &mut c.exact);
                }
            }
        }
        c
    }
}

/// `*acc += term` in exact arithmetic, or clear `exact` (leaving `acc`
/// as it was) where the term is unknown or the sum overflows `i128`.
fn add_exact(acc: &mut Rational, term: Option<Rational>, exact: &mut bool) {
    match term.and_then(|t| acc.checked_add(&t)) {
        Some(sum) => *acc = sum,
        None => *exact = false,
    }
}

/// The analyzer's cached intermediate state: per-pair facts, per-pair ring
/// contributions, and the stream-churn-invariant A4 TDM diagnostics.
/// [`assemble_report`] turns this into a full [`Report`] by re-running
/// only the cheap system-scope arithmetic (A7 summation, A8 Eq. 3–4, A9
/// slot tables, A10 latency composition) — which is what makes the
/// incremental admission analysis both fast and *exactly* equivalent to a
/// fresh full run.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Facts {
    /// One entry per gateway view, in view order.
    pub(crate) pairs: Vec<PairFacts>,
    /// One A7 contribution per gateway view, in view order.
    pub(crate) ring: Vec<RingContrib>,
    /// A4 TDM diagnostics — processors are untouched by stream churn.
    pub(crate) tdm: Vec<Diagnostic>,
    /// A11–A13 multi-mode facts, one per [`DeploySpec::modes`] declaration.
    pub(crate) modes: Vec<ModeFacts>,
}

impl Facts {
    /// Full evaluation of every cached fact (the expensive path). Adds the
    /// number of [`PairFacts`] it computes to `computed`.
    pub(crate) fn compute(spec: &DeploySpec, opts: &AnalysisOptions, computed: &mut u64) -> Facts {
        let views = spec.gateway_views();
        let layout = spec.ring_layout();
        *computed += views.len() as u64;
        let mut facts = Facts {
            pairs: views
                .iter()
                .map(|v| PairFacts::compute(spec, v, opts))
                .collect(),
            ring: views
                .iter()
                .map(|v| RingContrib::compute(&layout, v))
                .collect(),
            tdm: {
                let mut d = Vec::new();
                check_tdm(spec, &mut d);
                d
            },
            modes: Vec::new(),
        };
        facts.modes = compute_mode_facts(spec, opts, &facts, None, computed);
        facts
    }

    /// Re-evaluate the cached facts of gateway `g` only — the
    /// O(affected-gateways) path. `spec` must differ from the spec these
    /// facts were computed from in gateway `g`'s stream list alone. Adds
    /// the number of [`PairFacts`] it computes to `computed`.
    ///
    /// Mode reports are re-assembled for *every* declaration, because a
    /// per-mode candidate substitutes into the whole system (its report
    /// spans all gateways). A declaration on another gateway keeps its
    /// cached candidate facts; one on `g` recomputes them (see
    /// [`compute_mode_facts`]).
    pub(crate) fn recompute_gateway(
        &mut self,
        spec: &DeploySpec,
        g: usize,
        opts: &AnalysisOptions,
        computed: &mut u64,
    ) {
        let views = spec.gateway_views();
        let layout = spec.ring_layout();
        self.pairs[g] = PairFacts::compute(spec, &views[g], opts);
        self.ring[g] = RingContrib::compute(&layout, &views[g]);
        *computed += 1;
        self.modes = compute_mode_facts(spec, opts, self, Some(g), computed);
    }
}

/// Cached A11–A13 facts of one [`crate::spec::StreamModes`] declaration:
/// the finished diagnostics (final flat-indexed locations) plus the
/// per-mode candidate reports rule A11 derived from the base facts.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ModeFacts {
    /// A11–A13 findings, ready for [`assemble_report`] to splice in.
    pub(crate) diags: Vec<Diagnostic>,
    /// Per declared mode (declaration order): the mode name and the full
    /// report of its equivalent single-mode candidate spec. Empty when the
    /// declaration is structurally invalid.
    pub(crate) reports: Vec<(String, Report)>,
    /// Per declared mode (declaration order): the candidate's facts at the
    /// declaring gateway. They depend on that gateway's streams alone, so
    /// a delta on another gateway reuses them. Empty when the declaration
    /// is structurally invalid.
    pub(crate) candidates: Vec<(PairFacts, RingContrib)>,
}

/// Attempts the admission controller makes to find a gateway pair idle
/// inside its configuration-bus slot before it removes, retunes or
/// switches a stream (`AdmissionController::idle_in_slot`).
pub(crate) const IDLE_WAIT_ATTEMPTS: u64 = 8;

/// Cycles one idle-wait attempt waits for the pair to fall idle under the
/// round bound `gamma`: eight rounds plus fill slack.
pub(crate) fn idle_wait_budget(gamma: u64) -> u64 {
    gamma.saturating_mul(8).saturating_add(4000)
}

/// The A12 closed-form worst-case transition-delay bound, decomposed into
/// the four phases a run-time mode switch passes through. All figures are
/// cycles; [`TransitionBound::total`] is the bound rule A12 reports and
/// the online monitor is armed with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransitionBound {
    /// Drain-to-idle of in-flight blocks under the *old* mode's round
    /// bound: the run-time splice waits for the gateway to fall idle
    /// inside its configuration slot in at most `IDLE_WAIT_ATTEMPTS`
    /// attempts, each waiting up to `idle_wait_budget(γ_old)` cycles for
    /// the pair and then up to one bus period for the slot.
    pub drain: u64,
    /// Worst-case wait for the gateway's configuration-bus slot (one full
    /// TDM frame of the config bus; 0 when no bus period is declared).
    pub align: u64,
    /// Configuration-bus save/restore windows: the old mode's state is
    /// saved (R_old) and the new mode's configuration loaded (R_new).
    pub save_restore: u64,
    /// First-round ramp-in of the new mode: one worst-case round under
    /// the new mode's bounds plus the measurement margin the monitor
    /// grants steady-state rounds.
    pub ramp: u64,
}

impl TransitionBound {
    /// Total worst-case cycles from the switch request to the new mode's
    /// steady state (saturating, like every phase).
    pub fn total(&self) -> u64 {
        self.drain
            .saturating_add(self.align)
            .saturating_add(self.save_restore)
            .saturating_add(self.ramp)
    }
}

/// A12 — the closed-form worst-case delay of retuning one stream of
/// `gateway` from configuration `old` to configuration `new`, where
/// `gamma_old` / `gamma_new` are the system round bounds (Eq. 3–4) of the
/// deployment with the respective configuration in force. The bound is
/// conservative by construction: every phase uses the analyzer's
/// worst-case figure, so a run-time switch always completes within
/// [`TransitionBound::total`] cycles (the differential harness checks
/// predicted ≥ measured on both engines).
pub fn transition_delay_bound(
    spec: &DeploySpec,
    gateway: usize,
    old: &StreamDeploy,
    new: &StreamDeploy,
    gamma_old: u64,
    gamma_new: u64,
) -> TransitionBound {
    let views = spec.gateway_views();
    let v = &views[gateway];
    let p = spec.config_bus_period.unwrap_or(0);
    let margin = crate::profile::gateway_tau_margin(spec, v);
    // Saturating: a γ near `u64::MAX` (or the saturated γ of a report
    // whose round bound overflows) must not wrap to a small bound.
    TransitionBound {
        drain: idle_wait_budget(gamma_old)
            .saturating_add(p)
            .saturating_mul(IDLE_WAIT_ATTEMPTS),
        align: p,
        save_restore: old.reconfig.saturating_add(new.reconfig),
        ramp: gamma_new
            .saturating_add(margin.saturating_mul(v.streams.len() as u64))
            .saturating_add(16),
    }
}

/// One entry of [`mode_reports`]: the rule A11 candidate report of one
/// declared mode.
#[derive(Clone, Debug, PartialEq)]
pub struct ModeReport {
    /// Gateway index of the owning declaration.
    pub gateway: usize,
    /// Stream the mode belongs to.
    pub stream: String,
    /// Mode name.
    pub mode: String,
    /// The full report of the mode's equivalent single-mode spec —
    /// byte-identical to `analyze_with` of
    /// [`DeploySpec::single_mode_candidate`].
    pub report: Report,
}

/// The per-mode A11 candidate reports of every structurally valid
/// declaration in `spec.modes`, computed through the incremental facts
/// cache (each mode costs at most one gateway re-evaluation, not a full
/// analysis).
pub fn mode_reports(spec: &DeploySpec, opts: &AnalysisOptions) -> Vec<ModeReport> {
    let facts = Facts::compute(spec, opts, &mut 0);
    spec.modes
        .iter()
        .zip(&facts.modes)
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

/// Evaluate rules A11–A13 for every [`DeploySpec::modes`] declaration
/// against the cached base facts. Each declared mode is analysed as the
/// equivalent single-mode candidate spec: the base facts with the owning
/// gateway's entry replaced by the candidate's, assembled into a report.
///
/// The candidate's facts at the owning gateway cost one [`PairFacts`]
/// computation (added to `computed`) at most. A mode whose configuration
/// is the committed one takes the base facts. When `touched` names the
/// only gateway a delta changed and the declaration sits on another one,
/// the candidates cached in `base.modes` still hold and are reused.
fn compute_mode_facts(
    spec: &DeploySpec,
    opts: &AnalysisOptions,
    base: &Facts,
    touched: Option<usize>,
    computed: &mut u64,
) -> Vec<ModeFacts> {
    if spec.modes.is_empty() {
        return Vec::new();
    }
    let views = spec.gateway_views();
    let offsets: Vec<usize> = views
        .iter()
        .scan(0usize, |acc, v| {
            let o = *acc;
            *acc += v.streams.len();
            Some(o)
        })
        .collect();
    spec.modes
        .iter()
        .enumerate()
        .map(|(di, decl)| {
            let mut diags = Vec::new();
            let mut reports = Vec::new();
            let mut structural_ok = true;
            let g = decl.gateway;
            if spec.modes[..di]
                .iter()
                .any(|e| e.gateway == g && e.stream == decl.stream)
            {
                diags.push(Diagnostic {
                    rule: RuleId::A11ModeAdmissibility,
                    severity: Severity::Error,
                    location: Location::Deployment,
                    message: format!(
                        "duplicate multi-mode declaration for stream '{}' on gateway {g}",
                        decl.stream
                    ),
                });
                structural_ok = false;
            }
            if g >= views.len() {
                diags.push(Diagnostic {
                    rule: RuleId::A11ModeAdmissibility,
                    severity: Severity::Error,
                    location: Location::Deployment,
                    message: format!(
                        "mode declaration for stream '{}' references unknown gateway {g} \
                         ({} present)",
                        decl.stream,
                        views.len()
                    ),
                });
                return ModeFacts {
                    diags,
                    reports,
                    candidates: Vec::new(),
                };
            }
            let v = &views[g];
            let Some(local) = v.streams.iter().position(|s| s.name == decl.stream) else {
                diags.push(Diagnostic {
                    rule: RuleId::A11ModeAdmissibility,
                    severity: Severity::Error,
                    location: gw_loc(spec, v),
                    message: format!(
                        "mode declaration references unknown stream '{}'",
                        decl.stream
                    ),
                });
                return ModeFacts {
                    diags,
                    reports,
                    candidates: Vec::new(),
                };
            };
            let flat = offsets[g] + local;
            let loc = Location::Stream {
                index: flat,
                name: decl.stream.clone(),
            };
            if decl.modes.is_empty() {
                diags.push(Diagnostic {
                    rule: RuleId::A11ModeAdmissibility,
                    severity: Severity::Warning,
                    location: loc.clone(),
                    message: "multi-mode declaration lists no modes: nothing to switch to".into(),
                });
                structural_ok = false;
            }
            for (i, m) in decl.modes.iter().enumerate() {
                if decl.modes[..i].iter().any(|e| e.name == m.name) {
                    diags.push(Diagnostic {
                        rule: RuleId::A11ModeAdmissibility,
                        severity: Severity::Error,
                        location: loc.clone(),
                        message: format!("duplicate mode name '{}'", m.name),
                    });
                    structural_ok = false;
                }
            }
            for (f, t) in &decl.transitions {
                for name in [f, t] {
                    if decl.mode(name).is_none() {
                        diags.push(Diagnostic {
                            rule: RuleId::A11ModeAdmissibility,
                            severity: Severity::Error,
                            location: loc.clone(),
                            message: format!(
                                "transition ('{f}' -> '{t}') references undeclared mode \
                                 '{name}'"
                            ),
                        });
                        structural_ok = false;
                    }
                }
            }
            if !structural_ok {
                return ModeFacts {
                    diags,
                    reports,
                    candidates: Vec::new(),
                };
            }

            // A11 — per-mode candidate reports from the cached base facts:
            // substitute the owning gateway's candidate facts, assemble.
            let cached = match touched {
                Some(t) if t != g => Some(&base.modes[di].candidates),
                _ => None,
            };
            let layout = spec.ring_layout();
            let mut candidates = Vec::with_capacity(decl.modes.len());
            for (mi, m) in decl.modes.iter().enumerate() {
                let candidate = spec
                    .single_mode_candidate(g, &decl.stream, &m.config)
                    .expect("declaration validated above");
                let cv = candidate.gateway_views();
                let facts = if let Some(cached) = cached {
                    cached[mi].clone()
                } else if cv[g].streams[local] == v.streams[local] {
                    (base.pairs[g].clone(), base.ring[g].clone())
                } else {
                    *computed += 1;
                    (
                        PairFacts::compute(&candidate, &cv[g], opts),
                        RingContrib::compute(&layout, &cv[g]),
                    )
                };
                let mut cf = Facts {
                    pairs: base.pairs.clone(),
                    ring: base.ring.clone(),
                    tdm: base.tdm.clone(),
                    modes: Vec::new(),
                };
                (cf.pairs[g], cf.ring[g]) = facts.clone();
                reports.push((m.name.clone(), assemble_report(&candidate, &cf)));
                candidates.push(facts);
            }
            let mode_taus: Vec<Option<u64>> =
                candidates.iter().map(|(p, _)| p.taus[local]).collect();
            let mode_rings: Vec<&RingContrib> = candidates.iter().map(|(_, r)| r).collect();
            let mut all_admissible = true;
            for (name, r) in &reports {
                if !r.is_accepted() {
                    all_admissible = false;
                    let first = r
                        .with_severity(Severity::Error)
                        .next()
                        .map(|d| d.message.clone())
                        .unwrap_or_default();
                    diags.push(Diagnostic {
                        rule: RuleId::A11ModeAdmissibility,
                        severity: Severity::Error,
                        location: loc.clone(),
                        message: format!(
                            "mode '{name}' is inadmissible as a single-mode deployment: \
                             {} error(s); first: {first}",
                            r.error_count()
                        ),
                    });
                }
            }
            if all_admissible {
                diags.push(Diagnostic {
                    rule: RuleId::A11ModeAdmissibility,
                    severity: Severity::Info,
                    location: loc.clone(),
                    message: format!(
                        "all {} declared mode(s) independently pass A1-A10",
                        reports.len()
                    ),
                });
            }

            // A12 — worst-case transition delay per allowed transition.
            let idx = |name: &str| decl.modes.iter().position(|m| m.name == name).unwrap();
            let pairs_to_check: Vec<(usize, usize)> = if decl.transitions.is_empty() {
                (0..decl.modes.len())
                    .flat_map(|a| (0..decl.modes.len()).map(move |b| (a, b)))
                    .filter(|&(a, b)| a != b)
                    .collect()
            } else {
                decl.transitions
                    .iter()
                    .map(|(f, t)| (idx(f), idx(t)))
                    .collect()
            };
            for &(a, b) in &pairs_to_check {
                let bound = transition_delay_bound(
                    spec,
                    g,
                    &decl.modes[a].config,
                    &decl.modes[b].config,
                    reports[a].1.gamma,
                    reports[b].1.gamma,
                );
                diags.push(Diagnostic {
                    rule: RuleId::A12TransitionDelay,
                    severity: Severity::Info,
                    location: loc.clone(),
                    message: format!(
                        "transition '{}' -> '{}': worst-case delay <= {} cycles \
                         (drain {} + slot alignment {} + save/restore {} + ramp-in {})",
                        decl.modes[a].name,
                        decl.modes[b].name,
                        bound.total(),
                        bound.drain,
                        bound.align,
                        bound.save_restore,
                        bound.ramp
                    ),
                });
            }

            // A13 — interference-freedom: every non-switching stream keeps
            // its Eq. 3–4 round bound and buffer margins under the
            // worst-of-modes τ̂ of the switcher, and the additive A7 ring
            // loads stay under one flit/cycle with the switcher's
            // worst-of-modes contribution substituted in.
            // A mode whose τ̂ overflows is inadmissible (A11): the
            // worst case, and the windows it bounds, are unknown.
            let worst_tau = mode_taus
                .iter()
                .copied()
                .chain([base.pairs[g].taus[local]])
                .try_fold(0u64, |m, t| Some(m.max(t?)));
            let mut taus_w: Vec<Vec<Option<u64>>> =
                base.pairs.iter().map(|p| p.taus.clone()).collect();
            taus_w[g][local] = worst_tau;
            let tau_refs: Vec<&[Option<u64>]> = taus_w.iter().map(|t| t.as_slice()).collect();
            let (gamma_w, _) = system_round_bounds_from_taus(&views, &tau_refs);
            let mut interference_free = worst_tau.is_some();
            for (gi, (_, s)) in views
                .iter()
                .flat_map(|w| w.streams.iter().map(move |s| (w, s)))
                .enumerate()
            {
                if gi == flat || !s.rate_in_range() || s.eta_in == 0 {
                    continue;
                }
                let (Some(gw), Some(worst_tau)) = (gamma_w[gi].filter(|&gw| gw != 0), worst_tau)
                else {
                    continue;
                };
                let sloc = Location::Stream {
                    index: gi,
                    name: s.name.clone(),
                };
                if Rational::new(s.eta_in as i128, gw as i128) < s.mu {
                    interference_free = false;
                    diags.push(Diagnostic {
                        rule: RuleId::A13TransitionInterference,
                        severity: Severity::Error,
                        location: sloc,
                        message: format!(
                            "transitions of '{}' break this stream's round bound: \
                             eta/gamma = {}/{gw} < mu = {} under the switcher's \
                             worst-of-modes tau-hat = {worst_tau} — Eq. 3-4 must hold \
                             throughout the transition window",
                            decl.stream, s.eta_in, s.mu
                        ),
                    });
                    continue;
                }
                let influx = (s.mu * Rational::from_int(gw as i128)).ceil().max(0) as u64;
                if s.input_capacity < s.eta_in + influx {
                    interference_free = false;
                    diags.push(Diagnostic {
                        rule: RuleId::A13TransitionInterference,
                        severity: Severity::Warning,
                        location: sloc,
                        message: format!(
                            "input capacity {} < eta_in + ceil(mu*gamma) = {} + {influx} \
                             while '{}' transitions: a hard producer can overflow \
                             within the transition window",
                            s.input_capacity, s.eta_in, decl.stream
                        ),
                    });
                }
            }
            let mut worst_ring = base.ring[g].clone();
            for c in &mode_rings {
                for h in 0..layout.nodes {
                    if c.data_min[h] > worst_ring.data_min[h] {
                        worst_ring.data_min[h] = c.data_min[h];
                    }
                    if c.credit_min[h] > worst_ring.credit_min[h] {
                        worst_ring.credit_min[h] = c.credit_min[h];
                    }
                }
            }
            let mut exact = mode_rings.iter().all(|c| c.exact)
                && views.iter().all(|w| base.ring[w.index].exact);
            for ring_name in ["data", "credit"] {
                for h in 0..layout.nodes {
                    let mut load = Rational::from_int(0);
                    for w in &views {
                        let c = if w.index == g {
                            &worst_ring
                        } else {
                            &base.ring[w.index]
                        };
                        let term = if ring_name == "data" {
                            c.data_min[h]
                        } else {
                            c.credit_min[h]
                        };
                        add_exact(&mut load, Some(term), &mut exact);
                    }
                    if exact && load > Rational::ONE {
                        interference_free = false;
                        diags.push(Diagnostic {
                            rule: RuleId::A13TransitionInterference,
                            severity: Severity::Error,
                            location: Location::Deployment,
                            message: format!(
                                "{ring_name}-ring hop {h} over-committed while '{}' \
                                 transitions: worst-of-modes sustained load {}/{} > 1 \
                                 flit/cycle",
                                decl.stream,
                                load.numer(),
                                load.denom()
                            ),
                        });
                    }
                }
            }
            if !exact {
                interference_free = false;
                diags.push(rate_sum_overflow(
                    RuleId::A13TransitionInterference,
                    Location::Deployment,
                    &format!(
                        "a worst-of-modes ring load while '{}' transitions",
                        decl.stream
                    ),
                ));
            }
            if interference_free {
                diags.push(Diagnostic {
                    rule: RuleId::A13TransitionInterference,
                    severity: Severity::Info,
                    location: loc,
                    message: format!(
                        "transitions are interference-free: every non-switching stream \
                         keeps its Eq. 3-4 round bound, buffer margin and ring-load \
                         budget under '{}' worst-of-modes load",
                        decl.stream
                    ),
                });
            }
            ModeFacts {
                diags,
                reports,
                candidates,
            }
        })
        .collect()
}

/// Assemble a [`Report`] from cached [`Facts`]: remap the per-pair
/// diagnostics onto the flat stream numbering, then run the system-scope
/// rules A7–A10 (cheap linear arithmetic over the cached τ̂ vectors and
/// ring contributions) and sort everything into the canonical order.
pub(crate) fn assemble_report(spec: &DeploySpec, facts: &Facts) -> Report {
    let views = spec.gateway_views();
    let mut diags = Vec::new();

    // Multi-gateway structural defects first: a malformed gateway section
    // voids the per-pair interpretation below.
    for (g, msg) in spec.gateway_structure_errors() {
        diags.push(Diagnostic {
            rule: RuleId::A1Liveness,
            severity: Severity::Error,
            location: Location::Gateway {
                index: g,
                name: spec
                    .gateways
                    .get(g)
                    .map(|x| x.name.clone())
                    .unwrap_or_default(),
            },
            message: format!("structurally invalid gateway section: {msg}"),
        });
    }

    // Per-pair rules A1–A6 from the cache, with globally offset stream
    // indices so diagnostics and bounds use one flat numbering.
    let mut util_max = Rational::from_int(0);
    let mut offset = 0;
    for v in &views {
        let pf = &facts.pairs[v.index];
        if let Some(u) = pf.util.filter(|&u| u > util_max) {
            util_max = u;
        }
        for d in &pf.diags {
            let mut d = d.clone();
            if let Location::Stream { index, .. } = &mut d.location {
                *index += offset;
            }
            diags.push(d);
        }
        offset += v.streams.len();
    }
    diags.extend(facts.tdm.iter().cloned());

    // Multi-mode rules A11–A13 from the cached per-declaration facts.
    for mf in &facts.modes {
        diags.extend(mf.diags.iter().cloned());
    }

    // System-scope rules A7–A10.
    let taus: Vec<&[Option<u64>]> = facts.pairs.iter().map(|p| p.taus.as_slice()).collect();
    let gamma_sys = check_system_round(spec, &views, &taus, &mut diags);
    check_ring(spec, &views, &facts.ring, &mut diags);
    check_config_bus(spec, &views, &mut diags);
    check_latency(spec, &views, &gamma_sys, &mut diags);
    check_fusion(spec, &views, &mut diags);

    // Canonical order: insertion-order-independent, so reports built from
    // cached facts and from a fresh full run are byte-identical.
    crate::diag::sort_diagnostics(&mut diags);

    let mut bounds = Vec::new();
    let mut gi = 0;
    for v in &views {
        for (i, s) in v.streams.iter().enumerate() {
            // Saturated where a bound overflows (a structural error).
            let tau_hat = facts.pairs[v.index].taus[i];
            bounds.push(StreamBounds {
                stream: s.name.clone(),
                eta_in: s.eta_in,
                tau_hat: tau_hat.unwrap_or(u64::MAX),
                omega_hat: match (gamma_sys[gi], tau_hat) {
                    (Some(g), Some(t)) => g.saturating_sub(t),
                    _ => u64::MAX,
                },
                mu: (s.mu.numer(), s.mu.denom()),
            });
            gi += 1;
        }
    }

    Report {
        deployment: spec.name.clone(),
        diagnostics: diags,
        gamma: gamma_sys
            .iter()
            .map(|g| g.unwrap_or(u64::MAX))
            .max()
            .unwrap_or(0),
        utilisation: (util_max.numer(), util_max.denom()),
        bounds,
    }
}

fn stream_loc(view: &GatewayView, offset: usize, local: usize) -> Location {
    Location::Stream {
        index: offset + local,
        name: view.streams[local].name.clone(),
    }
}

/// Gateway-level findings land on the deployment in the single-gateway
/// shape (the PR-3 wording) and on the named pair in the multi shape.
fn gw_loc(spec: &DeploySpec, view: &GatewayView) -> Location {
    if spec.is_multi() {
        Location::Gateway {
            index: view.index,
            name: view.name.to_string(),
        }
    } else {
        Location::Deployment
    }
}

/// Structural sanity: block sizes and rates that the rest of the analysis
/// (and the Fig. 5 model construction) relies on. Returns a per-stream
/// "sound enough to model" flag.
fn check_structure(
    spec: &DeploySpec,
    view: &GatewayView,
    offset: usize,
    diags: &mut Vec<Diagnostic>,
) -> Vec<bool> {
    let mut ok = vec![true; view.streams.len()];
    if view.chain.is_empty() {
        diags.push(Diagnostic {
            rule: RuleId::A1Liveness,
            severity: Severity::Error,
            location: gw_loc(spec, view),
            message: "the accelerator chain is empty: there is nothing to share".into(),
        });
        ok.iter_mut().for_each(|v| *v = false);
    }
    if view.streams.is_empty() {
        diags.push(Diagnostic {
            rule: RuleId::A1Liveness,
            severity: Severity::Warning,
            location: gw_loc(spec, view),
            message: "no streams are deployed on the chain".into(),
        });
    }
    for (i, s) in view.streams.iter().enumerate() {
        if s.eta_in == 0 || s.eta_out == 0 {
            diags.push(Diagnostic {
                rule: RuleId::A1Liveness,
                severity: Severity::Error,
                location: stream_loc(view, offset, i),
                message: format!(
                    "block sizes must be positive (eta_in = {}, eta_out = {})",
                    s.eta_in, s.eta_out
                ),
            });
            ok[i] = false;
            continue;
        }
        if s.eta_in > ETA_LIMIT {
            diags.push(Diagnostic {
                rule: RuleId::A1Liveness,
                severity: Severity::Error,
                location: stream_loc(view, offset, i),
                message: format!(
                    "eta_in = {} is outside the modelled range: rule A1 evaluates the \
                     Fig. 5 model for block sizes up to {ETA_LIMIT} (2^20)",
                    s.eta_in
                ),
            });
            ok[i] = false;
        }
        if s.eta_out > s.eta_in {
            diags.push(Diagnostic {
                rule: RuleId::A1Liveness,
                severity: Severity::Warning,
                location: stream_loc(view, offset, i),
                message: format!(
                    "eta_out {} > eta_in {}: interpolating chains are outside the \
                     analysed model; bounds assume eta_out <= eta_in",
                    s.eta_out, s.eta_in
                ),
            });
        } else if s.eta_in % s.eta_out != 0 {
            diags.push(Diagnostic {
                rule: RuleId::A1Liveness,
                severity: Severity::Warning,
                location: stream_loc(view, offset, i),
                message: format!(
                    "eta_in {} is not an integer multiple of eta_out {}: the chain's \
                     decimation factor is fractional per block",
                    s.eta_in, s.eta_out
                ),
            });
        }
        if !s.mu.is_positive() {
            diags.push(Diagnostic {
                rule: RuleId::A3Throughput,
                severity: Severity::Error,
                location: stream_loc(view, offset, i),
                message: format!("required throughput mu = {} must be positive", s.mu),
            });
            ok[i] = false;
        } else if !s.rate_in_range() {
            diags.push(Diagnostic {
                rule: RuleId::A3Throughput,
                severity: Severity::Error,
                location: stream_loc(view, offset, i),
                message: format!(
                    "required throughput mu = {} is outside the modelled range: its \
                     numerator and denominator must each be at most {MU_TERM_LIMIT} (2^40)",
                    s.mu
                ),
            });
            ok[i] = false;
        }
    }
    ok
}

/// A3 — Eq. 5–9: aggregate utilisation and the per-stream throughput
/// constraint `η_s/γ ≥ μ_s`. Returns a per-stream pass flag.
#[allow(clippy::too_many_arguments)]
fn check_throughput(
    spec: &DeploySpec,
    view: &GatewayView,
    offset: usize,
    prob: &SharingProblem,
    etas: &[u64],
    gamma: Option<u64>,
    util: Option<&Rational>,
    diags: &mut Vec<Diagnostic>,
) -> Vec<bool> {
    let mut ok = vec![true; view.streams.len()];
    if view.streams.is_empty() {
        return ok;
    }
    let (Some(gamma), Some(util), true) = (
        gamma,
        util,
        view.streams.iter().all(StreamDeploy::rate_in_range),
    ) else {
        // Structural error already reported; utilisation is meaningless.
        ok.iter_mut().for_each(|v| *v = false);
        return ok;
    };
    if *util >= Rational::ONE {
        diags.push(Diagnostic {
            rule: RuleId::A3Throughput,
            severity: Severity::Error,
            location: gw_loc(spec, view),
            message: format!(
                "aggregate chain utilisation c0*sum(mu) = {}/{} >= 1: every sample \
                 occupies the chain for c0 = {} cycles, so NO block sizes can meet \
                 the required rates (Eq. 8)",
                util.numer(),
                util.denom(),
                prob.params.c0()
            ),
        });
        ok.iter_mut().for_each(|v| *v = false);
        return ok;
    }
    let gamma_r = Rational::from_int(gamma as i128);
    for (i, s) in view.streams.iter().enumerate() {
        let need = s.mu * gamma_r; // minimum η for this γ (Eq. 5)
        if Rational::from_int(etas[i] as i128) < need {
            let need_eta = need.ceil();
            diags.push(Diagnostic {
                rule: RuleId::A3Throughput,
                severity: Severity::Error,
                location: stream_loc(view, offset, i),
                message: format!(
                    "throughput infeasible (Eq. 5): eta/gamma = {}/{gamma} < mu = {}; \
                     with this round the stream needs eta >= {need_eta} (or smaller \
                     blocks elsewhere to shrink gamma)",
                    etas[i], s.mu
                ),
            });
            ok[i] = false;
        }
    }
    if ok.iter().all(|&v| v) {
        // Report the Algorithm 1 minimum for context: how much slack the
        // configured block sizes leave. The least fixpoint is the minimum
        // (the ILP cross-checks it in tests); a solve that overflows or
        // gives up near saturation leaves it out.
        if let Ok(min) = streamgate_core::solve_blocksizes_fixpoint(prob) {
            diags.push(Diagnostic {
                rule: RuleId::A3Throughput,
                severity: Severity::Info,
                location: gw_loc(spec, view),
                message: format!(
                    "Eq. 5 holds for every stream; Algorithm 1 minimum block sizes \
                     {:?} (gamma = {}), configured {:?} (gamma = {gamma})",
                    min.etas, min.gamma, etas
                ),
            });
        }
    }
    ok
}

/// A2 — buffer capacity sufficiency (Fig. 8): hard floors (a C-FIFO must
/// hold one whole block for the gateway to ever admit it), round-length
/// influx, the exact minimum capacities where affordable, and the
/// non-monotone trap probe.
#[allow(clippy::too_many_arguments)]
fn check_buffers(
    spec: &DeploySpec,
    view: &GatewayView,
    offset: usize,
    prob: &SharingProblem,
    etas: &[u64],
    gamma: Option<u64>,
    throughput_ok: Vec<bool>,
    opts: &AnalysisOptions,
    diags: &mut Vec<Diagnostic>,
) {
    for (i, s) in view.streams.iter().enumerate() {
        if s.eta_in == 0 || s.eta_out == 0 {
            continue; // structural error already reported
        }
        if s.input_capacity < s.eta_in {
            diags.push(Diagnostic {
                rule: RuleId::A2BufferCapacity,
                severity: Severity::Error,
                location: stream_loc(view, offset, i),
                message: format!(
                    "input capacity {} < eta_in {}: a full block never fits, the \
                     gateway can never admit this stream (deadlock)",
                    s.input_capacity, s.eta_in
                ),
            });
            continue;
        }
        if s.output_capacity < s.eta_out && spec.check_for_space {
            diags.push(Diagnostic {
                rule: RuleId::A2BufferCapacity,
                severity: Severity::Error,
                location: stream_loc(view, offset, i),
                message: format!(
                    "output capacity {} < eta_out {}: the check-for-space admission \
                     test can never pass, the block is never admitted (deadlock)",
                    s.output_capacity, s.eta_out
                ),
            });
            continue;
        }
        // A3 passes only with γ known and every rate in range.
        let (Some(gamma), true) = (gamma, throughput_ok[i]) else {
            continue; // no meaningful throughput-driven sizing
        };
        // Influx during one worst-case round: the producer keeps writing at
        // μ while the round (γ cycles) serves every stream once.
        let influx = (s.mu * Rational::from_int(gamma as i128)).ceil().max(0) as u64;
        let sustained_in = s.eta_in.saturating_add(influx);
        if s.input_capacity < sustained_in {
            diags.push(Diagnostic {
                rule: RuleId::A2BufferCapacity,
                severity: Severity::Warning,
                location: stream_loc(view, offset, i),
                message: format!(
                    "input capacity {} < eta_in + ceil(mu*gamma) = {} + {influx}: a \
                     hard producer can overflow (lose samples) while a worst-case \
                     round of gamma = {gamma} cycles is in progress",
                    s.input_capacity, s.eta_in
                ),
            });
        }
        // Exact minimum capacities + Fig. 8 probe (affordable block sizes
        // only: the joint MCM search grows with eta^2).
        if opts.exact_buffers && s.eta_in <= EXACT_BUFFER_ETA_LIMIT && s.eta_in == s.eta_out {
            let rho_p = (s.mu.recip().floor().max(1)) as u64;
            // The search cost grows with the cap, and we only need to decide
            // "configured < minimum": anything beyond ~4 blocks of slack is
            // sufficient in every regime the model covers (double-buffering
            // plus pipeline fill), so cap the search there.
            let cap_limit = 8 * s.eta_in + 64;
            let min_now = minimum_stream_buffers(prob, i, etas, rho_p, 1, cap_limit);
            if let Some(min) = min_now {
                if s.output_capacity < min.alpha3 {
                    diags.push(Diagnostic {
                        rule: RuleId::A2BufferCapacity,
                        severity: Severity::Warning,
                        location: stream_loc(view, offset, i),
                        message: format!(
                            "output capacity {} is below the computed minimum alpha3 = \
                             {} for eta = {}: the consumer-side buffer throttles the \
                             stream below mu under worst-case phasing",
                            s.output_capacity, min.alpha3, s.eta_in
                        ),
                    });
                }
                // Fig. 8 non-monotone trap: would a LARGER block size need
                // LESS buffer? Probe a few bigger etas.
                let eta = etas[i];
                // Non-decreasing, so `dedup` drops every repeat (for η ≤ 3
                // the first three coincide); a repeat never changes `best`.
                let mut candidates = vec![
                    eta + 1,
                    eta + eta.div_ceil(4),
                    eta + eta.div_ceil(2),
                    2 * eta,
                ];
                candidates.dedup();
                let mut best: Option<(u64, u64)> = None;
                for &cand in &candidates {
                    if cand <= eta || cand > 2 * EXACT_BUFFER_ETA_LIMIT {
                        continue;
                    }
                    let mut alt = etas.to_vec();
                    alt[i] = cand;
                    if let Some(m) = minimum_stream_buffers(prob, i, &alt, rho_p, 1, cap_limit) {
                        if m.alpha3 < min.alpha3 && best.map(|(_, a)| m.alpha3 < a).unwrap_or(true)
                        {
                            best = Some((cand, m.alpha3));
                        }
                    }
                }
                if let Some((cand, alpha3)) = best {
                    diags.push(Diagnostic {
                        rule: RuleId::A2BufferCapacity,
                        severity: Severity::Warning,
                        location: stream_loc(view, offset, i),
                        message: format!(
                            "non-monotone buffer sizing (Fig. 8): a LARGER block size \
                             eta = {cand} needs only alpha3 = {alpha3} < {} required \
                             at the configured eta = {eta} — growing the block would \
                             shrink the buffer",
                            min.alpha3
                        ),
                    });
                }
            }
        }
    }
}

/// A4 — TDM slot tables: replication-interval consistency (declared period
/// vs Σ budgets) and per-task rate feasibility (`budget/period ≥ 1/interval`).
fn check_tdm(spec: &DeploySpec, diags: &mut Vec<Diagnostic>) {
    for (pi, p) in spec.processors.iter().enumerate() {
        let loc = |task: Option<String>| Location::Processor {
            index: pi,
            name: p.name.clone(),
            task,
        };
        if p.tasks.is_empty() {
            continue;
        }
        if p.tasks.iter().any(|t| t.budget == 0) {
            diags.push(Diagnostic {
                rule: RuleId::A4TdmSchedule,
                severity: Severity::Error,
                location: loc(None),
                message: "every TDM task needs a positive slot budget".into(),
            });
            continue;
        }
        let mut budgets = p.tasks.iter().map(|t| t.budget);
        let Some(period) = budgets.try_fold(0u64, u64::checked_add) else {
            diags.push(Diagnostic {
                rule: RuleId::A4TdmSchedule,
                severity: Severity::Error,
                location: loc(None),
                message: "the slot budgets sum past u64: no replication interval".into(),
            });
            continue;
        };
        if let Some(declared) = p.declared_period {
            if declared != period {
                diags.push(Diagnostic {
                    rule: RuleId::A4TdmSchedule,
                    severity: Severity::Error,
                    location: loc(None),
                    message: format!(
                        "replication-interval mismatch: declared period {declared} but \
                         the slot table sums to {period} (the tile replicates every \
                         sum-of-budgets cycles)"
                    ),
                });
            }
        }
        // Actual task-to-slot assignment: windows are contiguous in
        // declaration order, task i starting at the prefix sum of the
        // earlier budgets (how ProcessorTile lays its table out).
        let starts: Vec<u64> = p
            .tasks
            .iter()
            .scan(0u64, |acc, t| {
                let s = *acc;
                *acc += t.budget;
                Some(s)
            })
            .collect();
        for (ti, t) in p.tasks.iter().enumerate() {
            let Some(interval) = t.required_interval else {
                continue;
            };
            if interval == 0 {
                diags.push(Diagnostic {
                    rule: RuleId::A4TdmSchedule,
                    severity: Severity::Error,
                    location: loc(Some(t.name.clone())),
                    message: "required interval must be positive".into(),
                });
                continue;
            }
            // Sustainable rate is budget/period ticks per cycle; the task
            // needs 1/interval.
            let Some(supply) = t.budget.checked_mul(interval) else {
                diags.push(Diagnostic {
                    rule: RuleId::A4TdmSchedule,
                    severity: Severity::Error,
                    location: loc(Some(t.name.clone())),
                    message: format!(
                        "budget {} x required interval {interval} overflows u64",
                        t.budget
                    ),
                });
                continue;
            };
            if supply < period {
                diags.push(Diagnostic {
                    rule: RuleId::A4TdmSchedule,
                    severity: Severity::Error,
                    location: loc(Some(t.name.clone())),
                    message: format!(
                        "slot table infeasible: task needs one tick per {interval} \
                         cycles but gets only {}/{period} of the tile — sustained \
                         rate falls short by a factor of {:.2}",
                        t.budget,
                        period as f64 / supply as f64
                    ),
                });
            } else if supply == period {
                diags.push(Diagnostic {
                    rule: RuleId::A4TdmSchedule,
                    severity: Severity::Warning,
                    location: loc(Some(t.name.clone())),
                    message: format!(
                        "slot table exactly at capacity: budget {} over period \
                         {period} leaves zero slack for a task with interval \
                         {interval} — any added work on this tile misses deadlines",
                        t.budget
                    ),
                });
            } else {
                // Average rate suffices — but the *placement* matters too:
                // the task's window is contiguous, so consecutive run
                // opportunities are up to period − budget + 1 cycles apart.
                let gap = period - t.budget + 1;
                if gap > interval {
                    diags.push(Diagnostic {
                        rule: RuleId::A4TdmSchedule,
                        severity: Severity::Warning,
                        location: loc(Some(t.name.clone())),
                        message: format!(
                            "slot placement bursty: the contiguous window \
                             [{}, {}) leaves a worst-case inter-tick gap of \
                             {gap} > required interval {interval} cycles — the \
                             average rate suffices but the task must buffer \
                             across the rest of the table",
                            starts[ti],
                            starts[ti] + t.budget
                        ),
                    });
                }
            }
        }
        let windows = p
            .tasks
            .iter()
            .zip(&starts)
            .map(|(t, w)| format!("{}@[{w}, {})", t.name, w + t.budget))
            .collect::<Vec<_>>()
            .join(", ");
        diags.push(Diagnostic {
            rule: RuleId::A4TdmSchedule,
            severity: Severity::Info,
            location: loc(None),
            message: format!(
                "TDM slot table: {} task(s), replication interval {period} \
                 cycles; windows {windows}",
                p.tasks.len()
            ),
        });
    }
}

/// A5 — Fig. 9: sharing the chain without the check-for-space admission
/// test exposes every stream to head-of-line blocking by any one consumer.
fn check_space_check(
    spec: &DeploySpec,
    view: &GatewayView,
    offset: usize,
    diags: &mut Vec<Diagnostic>,
) {
    if spec.check_for_space {
        diags.push(Diagnostic {
            rule: RuleId::A5SpaceCheck,
            severity: Severity::Info,
            location: gw_loc(spec, view),
            message: "check-for-space admission test enabled: a block only enters \
                      the chain when its whole output fits (Fig. 9 hazard excluded)"
                .into(),
        });
        return;
    }
    let mut wedged = false;
    for (i, s) in view.streams.iter().enumerate() {
        if s.output_capacity < s.eta_out {
            wedged = true;
            diags.push(Diagnostic {
                rule: RuleId::A5SpaceCheck,
                severity: Severity::Error,
                location: stream_loc(view, offset, i),
                message: format!(
                    "check-for-space disabled and output capacity {} < eta_out {}: \
                     the admitted block can NEVER drain, the exit gateway stalls and \
                     head-of-line-blocks the shared chain forever (Fig. 9)",
                    s.output_capacity, s.eta_out
                ),
            });
        }
    }
    if !wedged && !view.streams.is_empty() {
        diags.push(Diagnostic {
            rule: RuleId::A5SpaceCheck,
            severity: Severity::Warning,
            location: gw_loc(spec, view),
            message: format!(
                "check-for-space admission test disabled: {} stream(s) share the \
                 chain with no guarantee their consumers keep up; a temporarily slow \
                 consumer head-of-line-blocks every other stream and voids the \
                 tau-hat/gamma bounds (Fig. 9, §V-G)",
                view.streams.len()
            ),
        });
    }
}

/// A6 — ring credits: the NI depth is the credit window; the chain's
/// per-sample pace relies on it covering the data+credit round trip.
fn check_credits(spec: &DeploySpec, view: &GatewayView, diags: &mut Vec<Diagnostic>) {
    let c0 = view.c0();
    if spec.ni_depth == 0 {
        diags.push(Diagnostic {
            rule: RuleId::A6CreditWindow,
            severity: Severity::Error,
            location: gw_loc(spec, view),
            message: "NI depth 0: the credit-based flow control starts with zero \
                      credits, no sample can ever be transferred (deadlock)"
                .into(),
        });
        return;
    }
    // Data flits travel src → dst on the data ring and credits return
    // dst → src on the credit ring, so the round trip is twice the hop
    // distance. In the single-gateway shape producer and consumer stations
    // are adjacent (distance 1, the paper's 2-cycle round trip); on the
    // multi-gateway ring the pair's longest segment sets the distance, and
    // the credit window must cover it or the DMA stalls on credits and the
    // effective per-sample pace provably exceeds c0 — stretching every
    // block beyond τ̂, so the multi shape rejects outright.
    let d_max = if spec.is_multi() {
        let layout = spec.ring_layout();
        layout
            .segments(view.index)
            .iter()
            .map(|&(src, dst)| layout.data_hops(src, dst).len() as u64)
            .max()
            .unwrap_or(1)
            .max(1)
    } else {
        1
    };
    let round_trip = 2 * d_max;
    let Some(window) = (spec.ni_depth as u64).checked_mul(c0.max(1)) else {
        diags.push(Diagnostic {
            rule: RuleId::A6CreditWindow,
            severity: Severity::Error,
            location: gw_loc(spec, view),
            message: format!(
                "credit window NI depth {} x c0 = {c0} overflows u64",
                spec.ni_depth
            ),
        });
        return;
    };
    if window < round_trip {
        diags.push(Diagnostic {
            rule: RuleId::A6CreditWindow,
            severity: if spec.is_multi() {
                Severity::Error
            } else {
                Severity::Warning
            },
            location: gw_loc(spec, view),
            message: format!(
                "NI depth {} with c0 = {c0}: credit window {window} cycles is below \
                 the {round_trip}-cycle data+credit round trip of this pair's \
                 longest ring segment ({d_max} hop(s)) — the DMA stalls on credits \
                 and the effective per-sample pace exceeds c0, stretching blocks \
                 beyond tau-hat (the paper uses depth 2 for adjacent stations)",
                spec.ni_depth
            ),
        });
    } else {
        diags.push(Diagnostic {
            rule: RuleId::A6CreditWindow,
            severity: Severity::Info,
            location: gw_loc(spec, view),
            message: format!(
                "NI depth {} sustains the c0 = {c0} pace (credit window {window} \
                 cycles >= {round_trip}-cycle ring round trip)",
                spec.ni_depth
            ),
        });
    }
}

/// A1 — liveness of the per-stream Fig. 5 CSDF model: deadlock-free
/// self-timed execution of two blocks, evaluated by
/// [`streamgate_core::run_fig5`] (the model is consistent by construction:
/// every actor fires η times per block).
fn check_liveness(
    spec: &DeploySpec,
    view: &GatewayView,
    offset: usize,
    taus: &[Option<u64>],
    gamma: Option<u64>,
    structurally_ok: Vec<bool>,
    diags: &mut Vec<Diagnostic>,
) {
    for (i, s) in view.streams.iter().enumerate() {
        let (true, Some(gamma), Some(tau_hat)) = (structurally_ok[i], gamma, taus[i]) else {
            continue;
        };
        // In the Fig. 5 model everything is counted in *input* samples;
        // scale the output capacity up-front (conservatively, floor).
        let alpha3_scaled = if s.eta_out <= s.eta_in {
            s.output_capacity.checked_mul(s.eta_in / s.eta_out)
        } else {
            Some(s.output_capacity)
        };
        let Some(alpha3_scaled) = alpha3_scaled else {
            diags.push(Diagnostic {
                rule: RuleId::A1Liveness,
                severity: Severity::Error,
                location: stream_loc(view, offset, i),
                message: format!(
                    "output capacity {} x eta_in/eta_out = {} overflows u64 input-samples",
                    s.output_capacity,
                    s.eta_in / s.eta_out
                ),
            });
            continue;
        };
        if s.input_capacity < s.eta_in || alpha3_scaled < s.eta_in {
            diags.push(Diagnostic {
                rule: RuleId::A1Liveness,
                severity: Severity::Error,
                location: stream_loc(view, offset, i),
                message: format!(
                    "the Fig. 5 model deadlocks: a buffer cannot hold one whole block \
                     (alpha0 = {}, alpha3 = {alpha3_scaled} input-samples, eta = {})",
                    s.input_capacity, s.eta_in
                ),
            });
            continue;
        }
        let omega = gamma - tau_hat;
        let rho_p = if s.mu.is_positive() {
            (s.mu.recip().floor().max(1)) as u64
        } else {
            1
        };
        let p = Fig5Params {
            eta: s.eta_in as usize,
            epsilon: view.params.epsilon,
            rho_a: view.params.rho_a,
            delta: view.params.delta,
            reconfig: s.reconfig,
            omega,
            rho_p,
            rho_c: 1,
            alpha0: s.input_capacity,
            alpha3: alpha3_scaled,
            ni_depth: spec.ni_depth as u64,
        };
        let run = run_fig5(&p, 2);
        diags.push(if run.deadlocked {
            Diagnostic {
                rule: RuleId::A1Liveness,
                severity: Severity::Error,
                location: stream_loc(view, offset, i),
                message: "self-timed execution of the Fig. 5 model deadlocks before \
                          completing two blocks"
                    .into(),
            }
        } else {
            Diagnostic {
                rule: RuleId::A1Liveness,
                severity: Severity::Info,
                location: stream_loc(view, offset, i),
                message: format!(
                    "per-stream CSDF model is consistent and live: two blocks \
                     ({} consumer firings) complete by t = {}",
                    run.consumer_firings, run.end_time
                ),
            }
        });
    }
}

/// A8 — system round feasibility (Eq. 3–4 at system scope). Returns the
/// per-stream system round bound `γ_s`, in the flat
/// [`DeploySpec::all_streams`] order.
///
/// Within one gateway, γ is the familiar Σ τ̂ over its streams (Eq. 4).
/// When several gateways *share one physical chain* (Fig. 10), a gateway's
/// round additionally waits for the other pairs' claims. The kernel-
/// presence mutex grants the chain to waiting pairs round-robin, so
/// between the `n_g` claims of gateway `g`'s round (plus one for initial
/// phasing), every co-owning gateway `h` interposes at most `n_g + 1`
/// blocks — and at most `⌈(n_g + 1)/n_h⌉` of its own rounds. The
/// interference bound takes the cheaper of the two; the *naive* γ = Σ over
/// all group streams would be unsound, because a pair with fewer streams
/// claims the chain more often per own-round than the longer pair does.
fn check_system_round(
    spec: &DeploySpec,
    views: &[GatewayView],
    // τ̂ per view per local stream (Eq. 2 with the view's own c0), from
    // the cached per-pair facts.
    taus: &[&[Option<u64>]],
    diags: &mut Vec<Diagnostic>,
) -> Vec<Option<u64>> {
    let (gamma_sys, gamma_local) = system_round_bounds_from_taus(views, taus);

    // Group utilisation: each admitted block claims the shared chain for
    // τ̂ cycles per η samples, so Σ μ·τ̂/η over the group is the fraction
    // of time the chain is claimed — above 1 no schedule exists.
    let mut group_checked = Vec::new();
    for v in views {
        if v.group != v.index || group_checked.contains(&v.group) {
            continue;
        }
        group_checked.push(v.group);
        let members: Vec<_> = views.iter().filter(|w| w.group == v.group).collect();
        if members.iter().all(|w| w.streams.is_empty())
            || members.iter().any(|w| {
                w.streams
                    .iter()
                    .any(|s| !s.rate_in_range() || s.eta_in == 0)
                    || taus[w.index].iter().any(Option::is_none)
            })
        {
            continue; // structural errors already reported
        }
        let util = members.iter().try_fold(Rational::ZERO, |acc, w| {
            w.streams
                .iter()
                .zip(taus[w.index])
                .try_fold(acc, |acc, (s, t)| {
                    let t = Rational::new((*t)? as i128, s.eta_in as i128);
                    acc.checked_add(&s.mu.checked_mul(&t)?)
                })
        });
        let Some(util) = util else {
            diags.push(rate_sum_overflow(
                RuleId::A8SystemRound,
                gw_loc(spec, v),
                "the group's chain claim sum(mu*tau-hat/eta) (Eq. 3-4)",
            ));
            continue;
        };
        let shared = members.len() > 1;
        if util > Rational::ONE {
            diags.push(Diagnostic {
                rule: RuleId::A8SystemRound,
                severity: Severity::Error,
                location: gw_loc(spec, v),
                message: format!(
                    "chain over-committed: the group's blocks claim the shared \
                     chain for sum(mu*tau-hat/eta) = {}/{} > 1 of the time — no \
                     round-robin schedule can meet every rate (Eq. 3-4)",
                    util.numer(),
                    util.denom()
                ),
            });
        } else if util == Rational::ONE && shared {
            diags.push(Diagnostic {
                rule: RuleId::A8SystemRound,
                severity: Severity::Warning,
                location: gw_loc(spec, v),
                message: "chain claimed 100% of the time across the sharing \
                          pairs: zero slack for reconfiguration phasing"
                    .into(),
            });
        }
    }

    // Per-stream Eq. 5 at system scope — only where the *system* round is
    // strictly longer than the pair-local one (A3 already checked η/γ ≥ μ
    // for the local round).
    for (gi, (v, s)) in views
        .iter()
        .flat_map(|v| v.streams.iter().map(move |s| (v, s)))
        .enumerate()
    {
        let (Some(gamma_s), true) = (gamma_sys[gi], s.rate_in_range()) else {
            continue;
        };
        if Some(gamma_s) == gamma_local[gi] {
            continue;
        }
        let lhs = Rational::new(s.eta_in as i128, gamma_s as i128);
        if lhs < s.mu {
            diags.push(Diagnostic {
                rule: RuleId::A8SystemRound,
                severity: Severity::Error,
                location: Location::Stream {
                    index: gi,
                    name: s.name.clone(),
                },
                message: format!(
                    "throughput infeasible at system scope (Eq. 5): eta/gamma_s \
                     = {}/{gamma_s} < mu = {} once the co-owning pairs' claims on the \
                     shared chain are charged to {}'s round",
                    s.eta_in, s.mu, v.name
                ),
            });
        }
    }

    let known: Option<Vec<u64>> = gamma_sys.iter().copied().collect();
    if let Some(max) = known.and_then(|g| g.into_iter().max()) {
        diags.push(Diagnostic {
            rule: RuleId::A8SystemRound,
            severity: Severity::Info,
            location: Location::Deployment,
            message: format!(
                "system round bounds: max gamma_s = {max} cycles over {} stream(s) \
                 on {} gateway pair(s)",
                gamma_sys.len(),
                views.len()
            ),
        });
    }
    gamma_sys
}

/// The Eq. 3–4 system round bounds per flat stream — gateway-local Σ τ̂
/// plus the Fig. 10 shared-chain interference term — for an arbitrary τ̂
/// assignment. Shared by rule A8 (committed τ̂) and rule A13
/// (worst-of-modes τ̂ during a transition window). Returns
/// `(gamma_sys, gamma_local)`.
///
/// A bound is `None` where an input τ̂ is unknown or the sum overflows
/// `u64`.
fn system_round_bounds_from_taus(
    views: &[GatewayView],
    taus: &[&[Option<u64>]],
) -> (Vec<Option<u64>>, Vec<Option<u64>>) {
    let mut gamma_sys = Vec::new();
    let mut gamma_local = Vec::new();
    for v in views {
        let own = sum_taus(taus[v.index]);
        let n_g = v.streams.len() as u64;
        let mut interference = Some(0u64);
        for w in views {
            if w.index == v.index || w.group != v.group || w.streams.is_empty() {
                continue;
            }
            let claims = n_g + 1;
            let n_h = w.streams.len() as u64;
            // The cheaper of the two charges; one that overflows is not it.
            let charge = sum_taus(taus[w.index]).and_then(|sum_t| {
                let max_t = taus[w.index].iter().flatten().copied().max()?;
                let by_claims = claims.checked_mul(max_t);
                let by_rounds = claims.div_ceil(n_h).checked_mul(sum_t);
                by_claims.into_iter().chain(by_rounds).min()
            });
            interference = interference.zip(charge).and_then(|(a, b)| a.checked_add(b));
        }
        let total = own.zip(interference).and_then(|(a, b)| a.checked_add(b));
        for _ in v.streams {
            gamma_sys.push(total);
            gamma_local.push(own);
        }
    }
    (gamma_sys, gamma_local)
}

/// `Σ τ̂` in `u64`, `None` where a τ̂ is unknown or the sum overflows.
fn sum_taus(taus: &[Option<u64>]) -> Option<u64> {
    taus.iter().try_fold(0u64, |acc, t| acc.checked_add((*t)?))
}

/// A7 — cross-gateway ring contention on the [`DeploySpec::ring_layout`]
/// placement. Every stream loads each data-ring hop its block path
/// crosses, and mirrors one credit per data flit on the reverse-rotation
/// credit ring. Hops before the first accelerator carry the full required
/// rate μ; hops after it carry at least μ·η_out/η_in (the decimation may
/// happen at any stage, so the post-accelerator floor is the provable
/// minimum while μ stays the ceiling). Required load above one flit/cycle
/// on any hop is a provable failure; a ceiling at or above one is a
/// warning.
fn check_ring(
    spec: &DeploySpec,
    views: &[GatewayView],
    contribs: &[RingContrib],
    diags: &mut Vec<Diagnostic>,
) {
    if views.iter().all(|v| v.chain.is_empty())
        || views.iter().any(|v| {
            v.streams
                .iter()
                .any(|s| !s.rate_in_range() || s.eta_in == 0)
        })
    {
        return; // structural errors already reported
    }
    let layout = spec.ring_layout();
    let zero = Rational::from_int(0);
    let mut data_min = vec![zero; layout.nodes];
    let mut data_max = vec![zero; layout.nodes];
    let mut credit_min = vec![zero; layout.nodes];
    let mut credit_max = vec![zero; layout.nodes];
    // Which gateways cross each data hop (for diagnostics + NI check).
    let mut hop_users: Vec<Vec<usize>> = vec![Vec::new(); layout.nodes];

    // Sum the cached per-pair contributions (view order, exact rationals —
    // identical to walking every stream of every pair directly).
    let mut exact = true;
    for v in views {
        let c = &contribs[v.index];
        exact &= c.exact;
        for h in 0..layout.nodes {
            add_exact(&mut data_min[h], Some(c.data_min[h]), &mut exact);
            add_exact(&mut data_max[h], Some(c.data_max[h]), &mut exact);
            add_exact(&mut credit_min[h], Some(c.credit_min[h]), &mut exact);
            add_exact(&mut credit_max[h], Some(c.credit_max[h]), &mut exact);
        }
        for &h in &c.hops {
            hop_users[h].push(v.index);
        }
    }
    if !exact {
        diags.push(rate_sum_overflow(
            RuleId::A7RingContention,
            Location::Deployment,
            "a ring hop's sustained load sum(mu)",
        ));
        return;
    }

    let mut worst = Rational::from_int(0);
    let mut worst_hop = 0;
    let mut failed = false;
    for (ring, (min_loads, max_loads)) in [
        ("data", (&data_min, &data_max)),
        ("credit", (&credit_min, &credit_max)),
    ] {
        for h in 0..layout.nodes {
            if max_loads[h] > worst {
                worst = max_loads[h];
                worst_hop = h;
            }
            if min_loads[h] > Rational::ONE {
                failed = true;
                diags.push(Diagnostic {
                    rule: RuleId::A7RingContention,
                    severity: Severity::Error,
                    location: Location::Deployment,
                    message: format!(
                        "{ring}-ring hop {h} over-committed: required sustained \
                         load {}/{} flits/cycle > 1 from gateway(s) {} — the hop \
                         forwards one flit per cycle, so some stream must miss \
                         its rate",
                        min_loads[h].numer(),
                        min_loads[h].denom(),
                        hop_users[h]
                            .iter()
                            .map(|&g| views[g].name.to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                });
            } else if max_loads[h] >= Rational::ONE {
                diags.push(Diagnostic {
                    rule: RuleId::A7RingContention,
                    severity: Severity::Warning,
                    location: Location::Deployment,
                    message: format!(
                        "{ring}-ring hop {h} may saturate: load ceiling {}/{} \
                         flits/cycle reaches the one-flit/cycle hop capacity \
                         (the floor stays below 1, so feasibility depends on \
                         where the chains decimate)",
                        max_loads[h].numer(),
                        max_loads[h].denom(),
                    ),
                });
            }
        }
    }

    // Credit-window interference: a pair's ni_depth credit window covers
    // the 2-cycle adjacent-station round trip (A6), but every *other* pair
    // whose traffic shares a hop of the path can delay each credit by a
    // slot, shrinking the effective window.
    for v in views {
        if v.streams.is_empty() || v.chain.is_empty() {
            continue;
        }
        let mut interferers: Vec<usize> = Vec::new();
        let mut d_max = 1u64;
        for &(src, dst) in &layout.segments(v.index) {
            let hops = layout.data_hops(src, dst);
            d_max = d_max.max(hops.len() as u64);
            for h in hops {
                for &u in &hop_users[h] {
                    if u != v.index && !interferers.contains(&u) {
                        interferers.push(u);
                    }
                }
            }
        }
        // A window past u64 is A6's structural Error, not a tight one.
        let window = (spec.ni_depth as u64).checked_mul(v.c0());
        if !interferers.is_empty()
            && window.is_some_and(|w| w < 2 * d_max + interferers.len() as u64)
        {
            diags.push(Diagnostic {
                rule: RuleId::A7RingContention,
                severity: Severity::Warning,
                location: gw_loc(spec, v),
                message: format!(
                    "credit window tight under contention: ni_depth {} x c0 {} \
                     < {}-cycle round trip + {} interfering pair(s) — per-sample \
                     pace can stretch beyond c0 while other streams cross this \
                     pair's path",
                    spec.ni_depth,
                    v.c0(),
                    2 * d_max,
                    interferers.len()
                ),
            });
        }
    }

    if !failed {
        diags.push(Diagnostic {
            rule: RuleId::A7RingContention,
            severity: Severity::Info,
            location: Location::Deployment,
            message: format!(
                "ring contention bounded: worst hop load ceiling {}/{} \
                 flits/cycle (hop {worst_hop}) across {} station(s)",
                worst.numer(),
                worst.denom(),
                layout.nodes
            ),
        });
    }
}

/// A9 — configuration-bus TDM slot tables across gateways: every declared
/// slot must fit the period, not overlap any other pair's slot, and be
/// long enough for the pair's largest reconfiguration window R_s.
fn check_config_bus(spec: &DeploySpec, views: &[GatewayView], diags: &mut Vec<Diagnostic>) {
    let slots: Vec<(usize, u64, u64)> = views
        .iter()
        .filter_map(|v| v.config_slot.map(|(o, l)| (v.index, o, l)))
        .collect();
    let Some(period) = spec.config_bus_period else {
        if !slots.is_empty() {
            diags.push(Diagnostic {
                rule: RuleId::A9SlotConflict,
                severity: Severity::Warning,
                location: Location::Deployment,
                message: format!(
                    "{} gateway(s) declare config_slot but the spec has no \
                     config_bus_period: the slots cannot be placed in a TDM frame",
                    slots.len()
                ),
            });
        }
        return;
    };
    if period == 0 {
        diags.push(Diagnostic {
            rule: RuleId::A9SlotConflict,
            severity: Severity::Error,
            location: Location::Deployment,
            message: "config_bus_period must be positive".into(),
        });
        return;
    }
    let mut structurally_ok = true;
    for &(g, off, len) in &slots {
        let v = &views[g];
        if len == 0 {
            structurally_ok = false;
            diags.push(Diagnostic {
                rule: RuleId::A9SlotConflict,
                severity: Severity::Error,
                location: gw_loc(spec, v),
                message: "config_slot length must be positive".into(),
            });
            continue;
        }
        if off.checked_add(len).is_none_or(|end| end > period) {
            structurally_ok = false;
            diags.push(Diagnostic {
                rule: RuleId::A9SlotConflict,
                severity: Severity::Error,
                location: gw_loc(spec, v),
                message: format!(
                    "config_slot [{off}, {off} + {len}) exceeds the bus period {period}"
                ),
            });
            continue;
        }
        let max_r = v.streams.iter().map(|s| s.reconfig).max().unwrap_or(0);
        if max_r > len {
            diags.push(Diagnostic {
                rule: RuleId::A9SlotConflict,
                severity: Severity::Error,
                location: gw_loc(spec, v),
                message: format!(
                    "reconfiguration window does not fit its bus slot: max R_s \
                     = {max_r} > slot length {len} — every reconfiguration of \
                     this pair overruns into the next pair's slot",
                ),
            });
        }
    }
    if structurally_ok {
        let mut sorted = slots.clone();
        sorted.sort_by_key(|&(_, o, _)| o);
        for pair in sorted.windows(2) {
            let (ga, oa, la) = pair[0];
            let (gb, ob, _) = pair[1];
            if oa + la > ob {
                diags.push(Diagnostic {
                    rule: RuleId::A9SlotConflict,
                    severity: Severity::Error,
                    location: Location::Deployment,
                    message: format!(
                        "config slots overlap: {}'s [{oa}, {}) collides with \
                         {}'s slot starting at {ob} — two gateways would drive \
                         the shared configuration bus at once",
                        views[ga].name,
                        oa + la,
                        views[gb].name
                    ),
                });
            }
        }
    }
    let holders: Vec<usize> = slots.iter().map(|&(g, _, _)| g).collect();
    for v in views {
        if !holders.contains(&v.index) && !v.streams.is_empty() {
            diags.push(Diagnostic {
                rule: RuleId::A9SlotConflict,
                severity: Severity::Warning,
                location: gw_loc(spec, v),
                message: "no config_slot on the shared configuration bus: this \
                          pair's reconfigurations are unscheduled and can \
                          collide with any other pair's"
                    .into(),
            });
        }
    }
    // `None` when the lengths sum past u64, which covers any period.
    let covered = slots.iter().map(|s| s.2).try_fold(0u64, u64::checked_add);
    if let (true, Some(covered)) = (structurally_ok, covered.filter(|&c| c < period)) {
        diags.push(Diagnostic {
            rule: RuleId::A9SlotConflict,
            severity: Severity::Info,
            location: Location::Deployment,
            message: format!(
                "config bus: {} slot(s) cover {covered}/{period} cycles of the \
                 TDM frame ({} orphaned)",
                slots.len(),
                period - covered
            ),
        });
    } else if structurally_ok {
        diags.push(Diagnostic {
            rule: RuleId::A9SlotConflict,
            severity: Severity::Info,
            location: Location::Deployment,
            message: format!(
                "config bus: {} slot(s) fully tile the {period}-cycle TDM frame",
                slots.len()
            ),
        });
    }
}

/// A10 — end-to-end latency composition through the Fig. 7 single-actor
/// SDF abstraction: a stream's block behaves like one actor that waits at
/// most `Ω̂_s = γ_s − τ̂_s` and then executes in `τ̂_s`. The upper bound
/// `⌈(η−1)/μ⌉ + γ_s` (accumulate a block at rate μ, then wait + execute)
/// is conservative under the-earlier-the-better refinement: the platform
/// can only produce samples *earlier* than the abstraction, never later.
/// The lower bound `⌈(η−1)/μ⌉ + R + (η−1)·ε` holds even on an idle chain.
fn check_latency(
    _spec: &DeploySpec,
    views: &[GatewayView],
    gamma_sys: &[Option<u64>],
    diags: &mut Vec<Diagnostic>,
) {
    for (gi, (v, s)) in views
        .iter()
        .flat_map(|v| v.streams.iter().map(move |s| (v, s)))
        .enumerate()
    {
        let Some(budget) = s.max_latency else {
            continue;
        };
        if !s.rate_in_range() || s.eta_in == 0 {
            continue; // structural errors already reported
        }
        // Sums that do not fit u64 are rejected elsewhere: η above
        // `ETA_LIMIT` (A1), or a τ̂ or γ so large that A3 fails.
        let fill = (s.mu.recip() * Rational::from_int(s.eta_in as i128 - 1))
            .ceil()
            .max(0);
        let dma = (s.eta_in - 1).checked_mul(v.params.epsilon);
        let (Ok(fill), Some(dma)) = (u64::try_from(fill), dma) else {
            continue;
        };
        let Some(lower) = fill
            .checked_add(s.reconfig)
            .and_then(|l| l.checked_add(dma))
        else {
            continue;
        };
        let loc = Location::Stream {
            index: gi,
            name: s.name.clone(),
        };
        if lower > budget {
            diags.push(Diagnostic {
                rule: RuleId::A10EndToEndLatency,
                severity: Severity::Error,
                location: loc,
                message: format!(
                    "latency budget impossible: even on an idle chain the last \
                     output sample needs >= {lower} cycles (fill {fill} + R {} \
                     + DMA {dma}) > max_latency {budget}",
                    s.reconfig,
                ),
            });
            continue;
        }
        let Some(gamma_s) = gamma_sys[gi] else {
            continue; // the round bound overflowed: a structural error
        };
        let upper = fill.saturating_add(gamma_s);
        if upper > budget {
            diags.push(Diagnostic {
                rule: RuleId::A10EndToEndLatency,
                severity: Severity::Warning,
                location: loc,
                message: format!(
                    "latency budget not guaranteed: Fig. 7 worst case fill + \
                     gamma_s = {fill} + {gamma_s} = {upper} > max_latency {budget} \
                     (admission can wait a whole round behind the other streams)",
                ),
            });
        } else {
            diags.push(Diagnostic {
                rule: RuleId::A10EndToEndLatency,
                severity: Severity::Info,
                location: loc,
                message: format!(
                    "latency guaranteed: fill + gamma_s = {fill} + {gamma_s} = {upper} \
                     <= max_latency {budget} cycles (Fig. 7 single-actor bound)",
                ),
            });
        }
    }
}

/// Fusion-eligibility diagnostics: the static part of the span engine's
/// per-gateway `fuse_ok` decision, reported so the "all-or-nothing
/// fusion" behaviour is visible instead of silent. The engine fuses a
/// gateway's chain hot loop into closed-form interval execution only when
/// every chain segment is unit-distance on both rings and the gateway's
/// stations are disjoint from every other chain group's. Observation
/// (a full trace, the ring's delivery log) keeps fusion on.
fn check_fusion(spec: &DeploySpec, views: &[GatewayView], diags: &mut Vec<Diagnostic>) {
    if !spec.is_multi() || !spec.gateway_structure_errors().is_empty() {
        return;
    }
    let layout = spec.ring_layout();
    let stations: Vec<Vec<usize>> = views
        .iter()
        .map(|v| {
            let mut s = layout.chain_nodes[v.index].clone();
            s.push(layout.entries[v.index]);
            s.push(layout.exits[v.index]);
            s
        })
        .collect();
    for v in views {
        let mut reason = None;
        if v.chain.is_empty() {
            reason = Some("the chain is empty".to_string());
        }
        if reason.is_none() {
            for &(src, dst) in &layout.segments(v.index) {
                let d = layout.data_hops(src, dst).len();
                let c = layout.credit_hops(src, dst).len();
                if d != 1 || c != 1 {
                    reason = Some(format!(
                        "mixed-distance chain: segment {src} -> {dst} spans {d} data / \
                         {c} credit hop(s), not 1/1"
                    ));
                    break;
                }
            }
        }
        if reason.is_none() {
            for w in views {
                if w.index == v.index || w.group == v.group {
                    continue;
                }
                if stations[v.index]
                    .iter()
                    .any(|s| stations[w.index].contains(s))
                {
                    reason = Some(format!("ring stations overlap gateway '{}'", w.name));
                    break;
                }
            }
        }
        diags.push(Diagnostic {
            rule: RuleId::A7RingContention,
            severity: Severity::Info,
            location: gw_loc(spec, v),
            message: match reason {
                None => "span-engine chain fusion statically eligible (fuse_ok): every \
                         chain segment is unit-distance and the stations are disjoint \
                         from other chain groups (traced and profiled runs fuse too)"
                    .into(),
                Some(r) => format!("span-engine chain fusion statically ineligible: {r}"),
            },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChainStage, ProcessorDeploy, StreamDeploy, TaskDeploy};

    fn small_spec() -> DeploySpec {
        DeploySpec {
            name: "t".into(),
            chain: vec![ChainStage {
                name: "acc".into(),
                rho: 1,
            }],
            epsilon: 4,
            delta: 1,
            ni_depth: 2,
            check_for_space: true,
            streams: vec![StreamDeploy {
                name: "s0".into(),
                mu: Rational::new(1, 40),
                eta_in: 8,
                eta_out: 8,
                reconfig: 20,
                input_capacity: 32,
                output_capacity: 32,
                max_latency: None,
            }],
            processors: vec![],
            gateways: vec![],
            config_bus_period: None,
            station_map: None,
            modes: vec![],
        }
    }

    #[test]
    fn clean_spec_is_accepted_with_bounds() {
        let r = analyze(&small_spec());
        assert!(r.is_accepted(), "{}", r.render_text());
        assert!(r.has(RuleId::A1Liveness, Severity::Info));
        assert!(r.has(RuleId::A3Throughput, Severity::Info));
        assert_eq!(r.bounds.len(), 1);
        // τ̂ = 20 + 10·4 = 60, γ = τ̂ (single stream), Ω̂ = 0.
        assert_eq!(r.bounds[0].tau_hat, 60);
        assert_eq!(r.gamma, 60);
        assert_eq!(r.bounds[0].omega_hat, 0);
    }

    #[test]
    fn undersized_input_is_a2_error() {
        let mut s = small_spec();
        s.streams[0].input_capacity = 7;
        let r = analyze(&s);
        assert!(!r.is_accepted());
        assert!(r.has(RuleId::A2BufferCapacity, Severity::Error));
        // The model-level rule agrees: the Fig. 5 graph deadlocks.
        assert!(r.has(RuleId::A1Liveness, Severity::Error));
    }

    #[test]
    fn undersized_output_with_check_is_a2_error() {
        let mut s = small_spec();
        s.streams[0].output_capacity = 4;
        let r = analyze(&s);
        assert!(r.has(RuleId::A2BufferCapacity, Severity::Error));
    }

    #[test]
    fn oversubscribed_utilisation_is_a3_error() {
        let mut s = small_spec();
        s.streams[0].mu = Rational::new(1, 3); // c0 = 4 > 3 cycles/sample
        let r = analyze(&s);
        assert!(r.has(RuleId::A3Throughput, Severity::Error));
        assert!(!r.is_accepted());
    }

    #[test]
    fn eta_below_eq5_minimum_is_a3_error() {
        let mut s = small_spec();
        // γ(η=2) = 20 + 4·4 = 36; μ·γ = 36/20 > 2 = η → infeasible.
        s.streams[0].eta_in = 2;
        s.streams[0].eta_out = 2;
        s.streams[0].mu = Rational::new(1, 10);
        let r = analyze(&s);
        assert!(
            r.has(RuleId::A3Throughput, Severity::Error),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn missing_space_check_warns_and_errors_on_undersized_output() {
        let mut s = small_spec();
        s.check_for_space = false;
        let r = analyze(&s);
        assert!(r.has(RuleId::A5SpaceCheck, Severity::Warning));
        assert!(r.is_accepted());
        s.streams[0].output_capacity = 4;
        let r = analyze(&s);
        assert!(r.has(RuleId::A5SpaceCheck, Severity::Error));
    }

    #[test]
    fn tdm_rules_fire() {
        let mut s = small_spec();
        s.processors = vec![ProcessorDeploy {
            name: "FE".into(),
            declared_period: Some(5),
            tasks: vec![
                TaskDeploy {
                    name: "src".into(),
                    budget: 1,
                    required_interval: Some(3),
                },
                TaskDeploy {
                    name: "other".into(),
                    budget: 3,
                    required_interval: None,
                },
            ],
        }];
        let r = analyze(&s);
        // Declared period 5 ≠ Σ budgets 4 → Error; src needs 1/3 > 1/4 → Error.
        let a4_errors: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.rule == RuleId::A4TdmSchedule && d.severity == Severity::Error)
            .collect();
        assert_eq!(a4_errors.len(), 2, "{}", r.render_text());
    }

    #[test]
    fn ni_depth_rules_fire() {
        let mut s = small_spec();
        s.ni_depth = 0;
        let r = analyze(&s);
        assert!(r.has(RuleId::A6CreditWindow, Severity::Error));
        s.ni_depth = 1;
        s.epsilon = 1;
        s.chain[0].rho = 1;
        s.delta = 1;
        s.streams[0].mu = Rational::new(1, 40);
        let r = analyze(&s);
        assert!(
            r.has(RuleId::A6CreditWindow, Severity::Warning),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn fig8_nonmonotone_trap_warns() {
        // The Fig. 8 regime: μ = 1/8, c0 = 5, R = 6. η = 6 is the smallest
        // Eq. 5-feasible block size (tight → double-buffered α₃), while
        // larger blocks have slack and need less (the crossover of §V-E).
        let s = DeploySpec {
            name: "fig8".into(),
            chain: vec![ChainStage {
                name: "acc".into(),
                rho: 5,
            }],
            epsilon: 5,
            delta: 1,
            ni_depth: 2,
            check_for_space: true,
            streams: vec![StreamDeploy {
                name: "s".into(),
                mu: Rational::new(1, 8),
                eta_in: 6,
                eta_out: 6,
                reconfig: 6,
                input_capacity: 64,
                output_capacity: 64,
                max_latency: None,
            }],
            processors: vec![],
            gateways: vec![],
            config_bus_period: None,
            station_map: None,
            modes: vec![],
        };
        let r = analyze(&s);
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.rule == RuleId::A2BufferCapacity && d.message.contains("non-monotone")),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn fig9_presets_match_expectations() {
        // Skip the exact buffer search here: the findings asserted below are
        // all capacity-floor / space-check results, which don't need it.
        let fast = AnalysisOptions {
            exact_buffers: false,
        };
        let good = analyze_with(&DeploySpec::fig9(true), &fast);
        // s1's 4-slot output cannot hold η_out = 16 → A2 Error even with
        // the check (the block is simply never admitted).
        assert!(good.has(RuleId::A2BufferCapacity, Severity::Error));
        let bad = analyze_with(&DeploySpec::fig9(false), &fast);
        assert!(bad.has(RuleId::A5SpaceCheck, Severity::Error));
    }

    #[test]
    fn fig6_and_pal_presets_are_accepted() {
        let r = analyze(&DeploySpec::fig6());
        assert!(r.is_accepted(), "{}", r.render_text());
        let r = analyze(&DeploySpec::pal_scaled());
        assert!(r.is_accepted(), "{}", r.render_text());
        assert_eq!(r.bounds.len(), 4);
    }
    /// Satellite: A4 models the FE processor's *actual* task-to-slot
    /// assignment. Pinned regression for the PAL preset's slot table.
    #[test]
    fn pal_fe_slot_windows_pinned() {
        let r = analyze(&DeploySpec::pal_scaled());
        let info = r
            .diagnostics
            .iter()
            .find(|d| {
                d.rule == RuleId::A4TdmSchedule
                    && matches!(&d.location, Location::Processor { index: 0, .. })
            })
            .expect("FE processor A4 finding");
        assert_eq!(info.severity, Severity::Info);
        assert_eq!(
            info.message,
            "TDM slot table: 1 task(s), replication interval 1 cycles; \
             windows pal-front-end@[0, 1)"
        );
    }

    #[test]
    fn tdm_bursty_window_warns() {
        // src: budget 2 of period 5, interval 3. Average rate 2/5 > 1/3 is
        // fine, but the contiguous window leaves a 5−2+1 = 4-cycle gap.
        let mut s = small_spec();
        s.processors = vec![ProcessorDeploy {
            name: "FE".into(),
            declared_period: Some(5),
            tasks: vec![
                TaskDeploy {
                    name: "src".into(),
                    budget: 2,
                    required_interval: Some(3),
                },
                TaskDeploy {
                    name: "other".into(),
                    budget: 3,
                    required_interval: None,
                },
            ],
        }];
        let r = analyze(&s);
        let warn = r
            .diagnostics
            .iter()
            .find(|d| d.rule == RuleId::A4TdmSchedule && d.severity == Severity::Warning)
            .expect("bursty placement warning");
        assert!(
            warn.message.contains("slot placement bursty"),
            "{}",
            warn.message
        );
        assert!(warn.message.contains("gap of 4 > required interval 3"));
        // No A4 error: the schedule is feasible on average.
        assert!(!r.has(RuleId::A4TdmSchedule, Severity::Error));
    }

    /// Two single-stream pairs on their own chains but one ring, each
    /// pushing μ = 2/3 flits/cycle through the shared middle hops: every
    /// pair is locally feasible (c0 = 1, η/γ = 8/11 ≥ 2/3) yet hop 1
    /// carries 4/3 > 1 — only the system-scope A7 can see it.
    fn contended_ring_spec(mu: Rational) -> DeploySpec {
        let gw = |n: usize| crate::spec::GatewayDeploy {
            name: format!("gw{n}"),
            chain: vec![ChainStage {
                name: format!("acc{n}"),
                rho: 1,
            }],
            shares_chain_with: None,
            streams: vec![StreamDeploy {
                name: format!("s{n}"),
                mu,
                eta_in: 8,
                eta_out: 8,
                reconfig: 1,
                input_capacity: 64,
                output_capacity: 64,
                max_latency: None,
            }],
            config_slot: None,
        };
        DeploySpec {
            name: "contended".into(),
            chain: vec![],
            epsilon: 1,
            delta: 1,
            // Deep enough for the 2-hop segments of the 6-station ring
            // (layout-aware A6) plus one interferer.
            ni_depth: 6,
            check_for_space: true,
            streams: vec![],
            processors: vec![],
            gateways: vec![gw(0), gw(1)],
            config_bus_period: None,
            station_map: None,
            modes: vec![],
        }
    }

    #[test]
    fn ring_overcommit_is_a7_error() {
        let r = analyze(&contended_ring_spec(Rational::new(2, 3)));
        let err = r
            .diagnostics
            .iter()
            .find(|d| d.rule == RuleId::A7RingContention && d.severity == Severity::Error)
            .expect("A7 error");
        assert!(err.message.contains("over-committed"), "{}", err.message);
        assert!(err.message.contains("gw0") && err.message.contains("gw1"));
        assert!(!r.is_accepted());
        // Each pair in isolation is clean: no A3 errors.
        assert!(!r.has(RuleId::A3Throughput, Severity::Error));
    }

    #[test]
    fn ring_at_capacity_is_a7_warning_and_low_load_is_info() {
        // μ = 1/2 each: shared-hop ceiling exactly 1 → Warning, not Error.
        let r = analyze(&contended_ring_spec(Rational::new(1, 2)));
        assert!(r.has(RuleId::A7RingContention, Severity::Warning));
        assert!(!r.has(RuleId::A7RingContention, Severity::Error));
        // μ = 1/8 each: comfortably below capacity → Info only.
        let r = analyze(&contended_ring_spec(Rational::new(1, 8)));
        assert!(r.has(RuleId::A7RingContention, Severity::Info));
        assert!(!r.has(RuleId::A7RingContention, Severity::Warning));
        assert!(r.is_accepted(), "{}", r.render_text());
    }

    /// Two pairs sharing ONE physical chain, each locally feasible, but
    /// the chain is claimed 2·(μ·τ̂/η) = 11/8 > 1 of the time.
    fn shared_chain_spec(mu: Rational) -> DeploySpec {
        let mut s = contended_ring_spec(mu);
        s.name = "shared".into();
        s.gateways[1].chain = vec![];
        s.gateways[1].shares_chain_with = Some(0);
        s
    }

    #[test]
    fn shared_chain_overcommit_is_a8_error() {
        let r = analyze(&shared_chain_spec(Rational::new(1, 2)));
        let err = r
            .diagnostics
            .iter()
            .find(|d| d.rule == RuleId::A8SystemRound && d.severity == Severity::Error)
            .expect("A8 error");
        assert!(err.message.contains("over-committed"), "{}", err.message);
        assert!(!r.is_accepted());
        assert!(!r.has(RuleId::A3Throughput, Severity::Error));
    }

    #[test]
    fn shared_chain_interference_stretches_gamma_and_bounds() {
        // μ = 1/3: group utilisation 2·(1/3 · 11/8) = 11/12 is fine, but
        // γ_s grows from the pair-local 11 to 11 + min(2·11, 2·11) = 33,
        // and 8/33 < 1/3 → the system-scope Eq. 5 rejects what A3
        // accepted locally.
        let r = analyze(&shared_chain_spec(Rational::new(1, 3)));
        assert_eq!(r.gamma, 33, "{}", r.render_text());
        assert_eq!(r.bounds[0].tau_hat, 11);
        assert_eq!(r.bounds[0].omega_hat, 33 - 11);
        assert!(r.has(RuleId::A8SystemRound, Severity::Error));
        assert!(!r.has(RuleId::A3Throughput, Severity::Error));
        // Slow the streams down: interference still shapes Ω̂ but Eq. 5
        // holds and the deployment is accepted.
        let r = analyze(&shared_chain_spec(Rational::new(1, 40)));
        assert!(r.is_accepted(), "{}", r.render_text());
        assert_eq!(r.gamma, 33);
    }

    #[test]
    fn config_bus_conflicts_are_a9_errors() {
        let mut s = DeploySpec::pal2();
        // Overlap: back slot starts inside the front slot.
        s.gateways[1].config_slot = Some((100, 200));
        let r = analyze(&s);
        let err = r
            .diagnostics
            .iter()
            .find(|d| d.rule == RuleId::A9SlotConflict && d.severity == Severity::Error)
            .expect("A9 overlap error");
        assert!(err.message.contains("overlap"), "{}", err.message);
        assert!(!r.is_accepted());

        // Slot too short for the pair's reconfiguration window R = 200.
        let mut s = DeploySpec::pal2();
        s.gateways[0].config_slot = Some((0, 100));
        let r = analyze(&s);
        assert!(r.has(RuleId::A9SlotConflict, Severity::Error));

        // Slot past the end of the TDM frame.
        let mut s = DeploySpec::pal2();
        s.gateways[1].config_slot = Some((300, 200));
        let r = analyze(&s);
        assert!(r.has(RuleId::A9SlotConflict, Severity::Error));

        // Slots without a period: warning, not error.
        let mut s = DeploySpec::pal2();
        s.config_bus_period = None;
        let r = analyze(&s);
        assert!(r.has(RuleId::A9SlotConflict, Severity::Warning));
        assert!(!r.has(RuleId::A9SlotConflict, Severity::Error));
    }

    #[test]
    fn latency_budgets_split_into_a10_severities() {
        // pal2 front streams: lower bound 32400, upper bound 42275 cycles.
        let mut s = DeploySpec::pal2();
        s.gateways[0].streams[0].max_latency = Some(30_000); // < lower
        s.gateways[0].streams[1].max_latency = Some(35_000); // between
        let r = analyze(&s);
        let a10 = |name: &str| {
            r.diagnostics
                .iter()
                .find(|d| {
                    d.rule == RuleId::A10EndToEndLatency
                        && matches!(&d.location, Location::Stream { name: n, .. } if n == name)
                })
                .unwrap()
                .severity
        };
        assert_eq!(a10("ch1-front"), Severity::Error);
        assert_eq!(a10("ch2-front"), Severity::Warning);
        assert_eq!(a10("ch1-back"), Severity::Info);
        assert!(!r.is_accepted());
    }

    /// The Fig. 10 deployment: 4 logical accelerator uses on 2 physical
    /// accelerators, one ring — must be accepted end to end.
    #[test]
    fn pal2_preset_is_accepted() {
        let r = analyze(&DeploySpec::pal2());
        assert!(r.is_accepted(), "{}", r.render_text());
        assert_eq!(r.bounds.len(), 4);
        assert_eq!(r.gamma, 19_660);
        for rule in [
            RuleId::A7RingContention,
            RuleId::A8SystemRound,
            RuleId::A9SlotConflict,
            RuleId::A10EndToEndLatency,
        ] {
            assert!(r.has(rule, Severity::Info), "missing {rule:?} info");
        }
        // Both pairs get their own A3/A6 findings under their own name.
        let gw_findings = r
            .diagnostics
            .iter()
            .filter(|d| matches!(&d.location, Location::Gateway { .. }))
            .count();
        assert!(gw_findings >= 4, "{}", r.render_text());
    }
}
