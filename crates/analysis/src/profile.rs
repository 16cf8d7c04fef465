//! Measured-profile feedback into the static analyzer.
//!
//! `streamgate-core`'s [`RunProfile`] records what a profiled simulation
//! run *actually did* — empirical per-hop arrival curves, per-stream τ
//! distributions, input burstiness, round samples. This module closes the
//! loop:
//!
//! * `streamgate_core::parse_profile` reads the profile's JSON back
//!   (re-exported here and at the crate root);
//! * [`RingEnvelope`] computes the analyzer's *predicted* per-hop arrival
//!   curve from the spec alone — the curve every measured hop curve must
//!   stay under if rule A7's reasoning is sound;
//! * [`analyze_profiled`] runs the normal analysis and then folds the
//!   measurements in: measured hop curves escaping the predicted envelope
//!   (or a physically impossible > 1 flit/cycle sustained hop load) are
//!   **A7 Errors**; measured input burstiness refines the A10 latency
//!   picture (Info/Warning — measurements of one run never *prove* a
//!   bound, so they are never allowed to accept a deployment the static
//!   rules rejected, and a measured-arrival refinement tightening a bound
//!   is advisory);
//! * [`monitor_for`] arms a `streamgate-core` online [`Monitor`] with the
//!   analyzer's τ̂/γ bounds plus the measurement margins
//!   ([`tau_margin`]/[`multi_tau_margin`]/[`round_margin`]) that separate
//!   the paper's model quantities from simulator-observable timestamps.
//!
//! The differential tests run this over every accepted random
//! multi-gateway topology on both engines: predicted curves must dominate
//! measured ones everywhere, and the monitor must stay silent.

use crate::diag::{Diagnostic, Location, Report, RuleId, Severity};
use crate::rules::{analyze_with, AnalysisOptions};
use crate::spec::{DeploySpec, GatewayView};
use streamgate_core::monitor::{Monitor, MonitorConfig};
pub use streamgate_core::profile::parse_profile;
use streamgate_core::profile::{HopProfile, RunProfile};
use streamgate_platform::System;

// ---------------------------------------------------------------------------
// Measurement margins (promoted from the differential-test harness so the
// analyzer, the online monitor and the tests all use one calibration).
// ---------------------------------------------------------------------------

/// Per-block measurement margin for a single-gateway deployment: Eq. 2's
/// `(η+2)·c0` models the paper's three-stage pipeline (entry, one
/// accelerator, exit); a k-stage chain fills `k−1` further stages, and the
/// ring adds constant per-block transport (hops + NI handshakes),
/// independent of η. Saturates at `u64::MAX` (no bound) on spec integers
/// too large to measure against.
pub fn tau_margin(spec: &DeploySpec) -> u64 {
    let k = spec.chain.len() as u64;
    k.saturating_sub(1)
        .saturating_mul(spec.gateway_views()[0].c0())
        .saturating_add(16 + 8 * k)
}

/// Per-block measurement margin for one pair of a multi-gateway system:
/// the single-gateway margin shape on the view's chain, plus the longer
/// ring (every pair's entry/exit sits on the same loop).
pub fn multi_tau_margin(spec: &DeploySpec, view_chain_len: u64, c0: u64) -> u64 {
    let ring = 2 * spec.gateways.len() as u64
        + spec
            .gateways
            .iter()
            .map(|g| g.chain.len() as u64)
            .sum::<u64>();
    view_chain_len
        .saturating_sub(1)
        .saturating_mul(c0)
        .saturating_add(16 + 8 * view_chain_len + 2 * ring)
}

/// Per-block measurement margin of gateway pair `view` of `spec`:
/// [`multi_tau_margin`] on a multi-gateway deployment, else
/// [`tau_margin`]. The τ̂ monitor, the blame ceilings and the A12
/// transition bound all add this one margin.
pub(crate) fn gateway_tau_margin(spec: &DeploySpec, view: &GatewayView) -> u64 {
    if spec.is_multi() {
        multi_tau_margin(spec, view.chain.len() as u64, view.c0())
    } else {
        tau_margin(spec)
    }
}

/// Round measurement margin: every block of the round carries the
/// per-block margin.
pub fn round_margin(spec: &DeploySpec) -> u64 {
    tau_margin(spec)
        .saturating_mul(spec.streams.len() as u64)
        .saturating_add(16)
}

// ---------------------------------------------------------------------------
// The predicted per-hop arrival-curve envelope.
// ---------------------------------------------------------------------------

/// One chain segment's contribution to a hop it crosses: at most `flits`
/// flits per block burst, flits within a burst at least `pace` cycles
/// apart, block bursts spaced at least `spacing` cycles apart, plus a
/// window-independent `slack` (credit-ring initial stock).
#[derive(Clone, Copy, Debug)]
struct HopTerm {
    flits: u64,
    spacing: u64,
    pace: u64,
    slack: u64,
}

/// The analyzer-predicted arrival-curve envelope per ring hop, derived
/// from the spec alone (no measurements). Each hop collects one term per
/// chain *segment* crossing it, and each term models that segment's own
/// pacing rather than a per-gateway maximum:
///
/// * **flits per burst** — what the segment actually carries per block:
///   η_in on the entry segment, η_out on the last-accelerator→exit
///   segment, `max(η_in, η_out)` on interior segments (the decimation or
///   expansion stage is not pinned down by the spec);
/// * **intra-burst pace** — consecutive flits on a segment are at least
///   `pace` cycles apart: ε on the entry segment (the DMA is ε-paced),
///   `max(ρ, 1)` of the forwarding stage on later segments (a stage
///   consumes — and therefore forwards — at most once per `max(ρ, 1)`
///   cycles). Credit hops mirror one credit per data flit at the pace of
///   the *receiving* side: `max(ρ, 1)` of the consuming stage, `max(δ, 1)`
///   for the exit gateway's copies. A Δ-cycle window therefore sees at
///   most `(Δ + 2·nodes)/pace + 1` flits of one burst, the `2·nodes`
///   absorbing injection jitter from slot contention;
/// * **burst spacing** — block bursts are at least
///   `min_s (η_in − 1)·ε + min_s R_s` apart (blocks on one chain are
///   serial and reconfigure in between), so a Δ-window intersects at most
///   `⌊(Δ + 2·nodes)/spacing⌋ + 2` bursts;
/// * **slack** — credit terms add `ni_depth·(chain_len + 1)` for the
///   chain links' initial credit stock.
///
/// Every bound is additionally capped by the physical
/// one-flit-per-hop-per-cycle limit.
#[derive(Clone, Debug)]
pub struct RingEnvelope {
    /// Ring stations (hop indexing context).
    nodes: usize,
    data_terms: Vec<Vec<HopTerm>>,
    credit_terms: Vec<Vec<HopTerm>>,
}

impl RingEnvelope {
    /// Build the envelope for a spec's ring layout.
    pub fn of(spec: &DeploySpec) -> RingEnvelope {
        let layout = spec.ring_layout();
        let n = layout.nodes;
        let mut data_terms: Vec<Vec<HopTerm>> = vec![Vec::new(); n];
        let mut credit_terms: Vec<Vec<HopTerm>> = vec![Vec::new(); n];
        for v in spec.gateway_views() {
            if v.streams.is_empty() || v.chain.is_empty() {
                continue;
            }
            let eta_in = v.streams.iter().map(|s| s.eta_in).max().unwrap_or(0);
            let eta_out = v.streams.iter().map(|s| s.eta_out).max().unwrap_or(0);
            let spacing = v
                .streams
                .iter()
                .map(|s| s.eta_in.saturating_sub(1).saturating_mul(spec.epsilon))
                .min()
                .unwrap_or(0)
                .saturating_add(v.streams.iter().map(|s| s.reconfig).min().unwrap_or(0))
                .max(1);
            let credit_slack = spec.ni_depth as u64 * (v.chain.len() as u64 + 1);
            let segs = layout.segments(v.index);
            let last = segs.len() - 1;
            for (k, &(src, dst)) in segs.iter().enumerate() {
                let flits = if k == 0 {
                    eta_in
                } else if k == last {
                    eta_out
                } else {
                    eta_in.max(eta_out)
                };
                let data_pace = if k == 0 {
                    spec.epsilon.max(1)
                } else {
                    v.chain[k - 1].rho.max(1)
                };
                let credit_pace = if k == last {
                    spec.delta.max(1)
                } else {
                    v.chain[k].rho.max(1)
                };
                for h in layout.data_hops(src, dst) {
                    data_terms[h].push(HopTerm {
                        flits,
                        spacing,
                        pace: data_pace,
                        slack: 0,
                    });
                }
                for h in layout.credit_hops(src, dst) {
                    credit_terms[h].push(HopTerm {
                        flits,
                        spacing,
                        pace: credit_pace,
                        slack: credit_slack,
                    });
                }
            }
        }
        RingEnvelope {
            nodes: n,
            data_terms,
            credit_terms,
        }
    }

    /// Saturating throughout: a `RunProfile` built in code can carry any
    /// window size, and the result is capped at `delta` anyway.
    fn bound(&self, terms: &[HopTerm], delta: u64) -> u64 {
        let span = delta.saturating_add(2 * self.nodes as u64);
        terms
            .iter()
            .map(|t| {
                let bursts = (span / t.spacing).saturating_add(2);
                let per_burst = t.flits.min((span / t.pace).saturating_add(1));
                per_burst.saturating_mul(bursts).saturating_add(t.slack)
            })
            .fold(0, u64::saturating_add)
            .min(delta)
    }

    /// Predicted max flits crossing data hop `hop` in any `delta`-cycle
    /// window (0 for hops no gateway path crosses — nothing may cross).
    pub fn data_bound(&self, hop: usize, delta: u64) -> u64 {
        self.data_terms.get(hop).map_or(0, |t| self.bound(t, delta))
    }

    /// Predicted max flits crossing credit hop `hop` in any `delta`-cycle
    /// window.
    pub fn credit_bound(&self, hop: usize, delta: u64) -> u64 {
        self.credit_terms
            .get(hop)
            .map_or(0, |t| self.bound(t, delta))
    }
}

// ---------------------------------------------------------------------------
// analyze_profiled: the normal rules plus measurement feedback.
// ---------------------------------------------------------------------------

/// Check every measured hop curve of `kind` against the envelope,
/// appending A7 diagnostics.
fn check_hop_domination(
    profile: &RunProfile,
    hops: &[HopProfile],
    kind: &str,
    bound: impl Fn(usize, u64) -> u64,
    diags: &mut Vec<Diagnostic>,
) -> (bool, u64, usize) {
    let mut dominated = true;
    let mut worst_flits = 0u64;
    let mut worst_hop = 0usize;
    for h in hops {
        if h.flits > worst_flits {
            worst_flits = h.flits;
            worst_hop = h.hop;
        }
        if h.flits > profile.cycles {
            dominated = false;
            diags.push(Diagnostic {
                rule: RuleId::A7RingContention,
                severity: Severity::Error,
                location: Location::Deployment,
                message: format!(
                    "measured {kind} hop {} carried {} flits in {} cycles — over the \
                     physical one-flit-per-cycle limit (profiler or model defect)",
                    h.hop, h.flits, profile.cycles
                ),
            });
        }
        for (i, &w) in h.curve.windows.iter().enumerate() {
            let measured = h.curve.max_count[i];
            let predicted = bound(h.hop, w);
            if measured > predicted {
                dominated = false;
                diags.push(Diagnostic {
                    rule: RuleId::A7RingContention,
                    severity: Severity::Error,
                    location: Location::Deployment,
                    message: format!(
                        "measured {kind} arrival curve escapes the predicted envelope at \
                         hop {}: {} flits observed in a {}-cycle window > predicted {}",
                        h.hop, measured, w, predicted
                    ),
                });
                break; // one witness per hop keeps the report readable
            }
        }
    }
    (dominated, worst_flits, worst_hop)
}

/// Fold a measured [`RunProfile`] into an analysis run.
///
/// Runs the normal [`analyze_with`] rules, then — when a profile is given —
/// appends measurement-feedback diagnostics:
///
/// * **A7**: when the profile's ring layout matches the spec's, every
///   measured per-hop arrival curve (data and credit) must be dominated by
///   the [`RingEnvelope`] prediction at every window size; an escape is an
///   Error (the static contention reasoning missed real traffic). A
///   layout mismatch (the profile came from a differently-shaped build)
///   degrades to an aggregate Info note.
/// * **A10**: measured input arrival curves refine the latency picture.
///   The analytic Fig. 7 fill time assumes arrivals at exactly μ; the
///   measured burst witness (the smallest window in which a whole block's
///   η_in samples actually arrived) bounds the *observed* fill, giving a
///   measured-informed end-to-end figure reported as Info — or a Warning
///   when the measured figure exceeds a declared latency budget the
///   analytic bound met (jittery arrivals eroding the margin).
///
/// Measurements never *remove* diagnostics: one run cannot prove a bound.
pub fn analyze_profiled(
    spec: &DeploySpec,
    opts: &AnalysisOptions,
    profile: Option<&RunProfile>,
) -> Report {
    let mut report = analyze_with(spec, opts);
    let Some(p) = profile else {
        return report;
    };
    let mut diags: Vec<Diagnostic> = Vec::new();
    let layout = spec.ring_layout();

    if p.ring_nodes == layout.nodes {
        let env = RingEnvelope::of(spec);
        let (d_ok, d_flits, d_hop) = check_hop_domination(
            p,
            &p.data_hops,
            "data",
            |h, w| env.data_bound(h, w),
            &mut diags,
        );
        let (c_ok, ..) = check_hop_domination(
            p,
            &p.credit_hops,
            "credit",
            |h, w| env.credit_bound(h, w),
            &mut diags,
        );
        if d_ok && c_ok {
            diags.push(Diagnostic {
                rule: RuleId::A7RingContention,
                severity: Severity::Info,
                location: Location::Deployment,
                message: format!(
                    "profile `{}` ({} mode, {} cycles): every measured data/credit hop \
                     curve is dominated by the predicted envelope across {} window sizes; \
                     busiest data hop {} carried {} flits",
                    p.deployment,
                    p.mode,
                    p.cycles,
                    p.windows.len(),
                    d_hop,
                    d_flits
                ),
            });
        }
    } else {
        let total: u64 = p.data_hops.iter().map(|h| h.flits).sum();
        diags.push(Diagnostic {
            rule: RuleId::A7RingContention,
            severity: Severity::Info,
            location: Location::Deployment,
            message: format!(
                "profile `{}` ring layout ({} stations) differs from the analyzed layout \
                 ({} stations) — hop-level feedback skipped; aggregate measured data \
                 traffic {} hop-crossings over {} cycles",
                p.deployment, p.ring_nodes, layout.nodes, total, p.cycles
            ),
        });
    }

    // A10: measured arrival jitter per stream, matched by (gateway, local
    // stream) indices with a name cross-check.
    let views = spec.gateway_views();
    let mut flat = 0usize;
    let mut flat_of = Vec::new(); // (gateway, stream) -> flat index
    for v in &views {
        for s in 0..v.streams.len() {
            flat_of.push(((v.index, s), flat));
            flat += 1;
        }
    }
    for sp in &p.streams {
        let Some(&(_, fi)) = flat_of.iter().find(|&&(k, _)| k == (sp.gateway, sp.stream)) else {
            continue;
        };
        let (Some(view), Some(bounds)) = (views.get(sp.gateway), report.bounds.get(fi)) else {
            continue;
        };
        let st = &view.streams[sp.stream];
        if st.name != sp.name {
            continue;
        }
        let Some(arr) = &sp.arrival else { continue };
        // The smallest measured window holding a whole input block.
        let witness = arr
            .curve
            .windows
            .iter()
            .zip(&arr.curve.max_count)
            .find(|&(_, &c)| c >= st.eta_in)
            .map(|(&w, _)| w);
        let gamma_g = bounds.tau_hat.saturating_add(bounds.omega_hat);
        let loc = Location::Stream {
            index: fi,
            name: st.name.clone(),
        };
        match witness {
            Some(w) => {
                let measured_upper = w.saturating_add(gamma_g);
                let measured_tau = match sp.blocks {
                    0 => "the stream completed no block;".to_string(),
                    blocks => format!(
                        "measured tau in [{}, {}] over {blocks} blocks vs",
                        sp.tau_min, sp.tau_max
                    ),
                };
                let (severity, verdict) = match st.max_latency {
                    Some(budget) if measured_upper > budget => (
                        Severity::Warning,
                        format!("exceeds the declared budget {budget}"),
                    ),
                    Some(budget) => (
                        Severity::Info,
                        format!("within the declared budget {budget}"),
                    ),
                    None => (Severity::Info, "no budget declared".to_string()),
                };
                diags.push(Diagnostic {
                    rule: RuleId::A10EndToEndLatency,
                    severity,
                    location: loc,
                    message: format!(
                        "measured arrivals fill a block (eta_in = {}) within {w} cycles; \
                         measured-informed end-to-end figure {w} + gamma {gamma_g} = \
                         {measured_upper} — {verdict} ({measured_tau} tau_hat = {})",
                        st.eta_in, bounds.tau_hat
                    ),
                });
            }
            None => {
                diags.push(Diagnostic {
                    rule: RuleId::A10EndToEndLatency,
                    severity: Severity::Info,
                    location: loc,
                    message: format!(
                        "measured arrivals never filled a whole block (eta_in = {}) in \
                         any window — {} samples arrived over the run; fill-time \
                         refinement not applicable",
                        st.eta_in, arr.samples
                    ),
                });
            }
        }
    }

    report.diagnostics.extend(diags);
    crate::diag::sort_diagnostics(&mut report.diagnostics);
    report
}

// ---------------------------------------------------------------------------
// Arming the online monitor with analyzer bounds.
// ---------------------------------------------------------------------------

/// Build an online [`Monitor`] for a system built from `spec`, armed with
/// the analyzer's per-stream τ̂ and per-gateway γ bounds widened by the
/// measurement margins (the spec's gateway indices must match the
/// system's, which [`DeploySpec::build_platform`] and
/// [`DeploySpec::build_multi_platform`] guarantee).
pub fn monitor_for(spec: &DeploySpec, report: &Report, system: &System) -> Monitor {
    Monitor::new(monitor_config_for(spec, report, system))
}

/// The [`MonitorConfig`] behind [`monitor_for`], exposed separately so a
/// running monitor can be *re-armed* ([`Monitor::rearm`]) with bounds from
/// an updated spec/report after an online admission changed the stream
/// population.
pub fn monitor_config_for(spec: &DeploySpec, report: &Report, system: &System) -> MonitorConfig {
    let mut cfg = MonitorConfig::from_system(system);
    let views = spec.gateway_views();
    let mut flat = 0usize;
    for v in &views {
        let margin = gateway_tau_margin(spec, v);
        let n = v.streams.len() as u64;
        let mut gamma_g = None;
        for (s, st) in v.streams.iter().enumerate() {
            if let Some(b) = report.bounds.get(flat) {
                if b.stream == st.name {
                    gamma_g = Some(b.tau_hat + b.omega_hat);
                    if let Some(sc) = cfg
                        .gateways
                        .get_mut(v.index)
                        .and_then(|g| g.streams.get_mut(s))
                    {
                        sc.tau_bound = Some(b.tau_hat + margin);
                    }
                }
            }
            flat += 1;
        }
        if let (Some(g), Some(gc)) = (gamma_g, cfg.gateways.get_mut(v.index)) {
            gc.round_bound = Some(g + margin * n + 16);
        }
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_caps_at_one_flit_per_cycle() {
        let spec = DeploySpec::fig6();
        let env = RingEnvelope::of(&spec);
        let layout = spec.ring_layout();
        for h in 0..layout.nodes {
            assert!(env.data_bound(h, 1) <= 1);
            assert!(env.data_bound(h, 4) <= 4);
            assert!(env.credit_bound(h, 1) <= 1);
        }
    }

    #[test]
    fn envelope_zero_on_uncrossed_hops() {
        // fig6: 3 stations (entry 0, accel 1, exit 2); data crosses hops 0
        // and 1 only, credits cross hops 2 and 1 only.
        let spec = DeploySpec::fig6();
        let env = RingEnvelope::of(&spec);
        assert!(env.data_bound(0, 1_000) > 0);
        assert!(env.data_bound(1, 1_000) > 0);
        assert_eq!(env.data_bound(2, 1_000), 0);
        assert_eq!(env.credit_bound(0, 1_000), 0);
        assert!(env.credit_bound(1, 1_000) > 0);
        assert!(env.credit_bound(2, 1_000) > 0);
    }

    #[test]
    fn envelope_pacing_tightens_mid_windows() {
        // pal-scaled: entry hop 0 is fed by the ε-paced DMA (ε = 15), so a
        // mid-size window must be bounded well below both the physical cap
        // and the block size — the old per-gateway-max model saturated at
        // the Δ cap here.
        let spec = DeploySpec::pal_scaled();
        assert!(spec.epsilon >= 8, "test premise: a coarse DMA pace");
        let env = RingEnvelope::of(&spec);
        let b = env.data_bound(0, 1_000);
        assert!(b > 0);
        assert!(
            b < 500,
            "ε-paced entry hop should admit ≪ Δ flits per window, got {b}"
        );
        // The exit segment carries η_out (8:1 decimated), so its hop's
        // per-burst budget is smaller than the entry segment's η_in.
        let layout = spec.ring_layout();
        let exit_hop = layout.chain_nodes[0][1]; // last accel → exit
        let big = 1 << 22;
        assert!(env.data_bound(exit_hop, big) < env.data_bound(0, big));
    }

    #[test]
    fn margins_positive_and_ring_aware() {
        let spec = DeploySpec::fig6();
        assert!(tau_margin(&spec) > 0);
        assert!(round_margin(&spec) > tau_margin(&spec));
        let multi = DeploySpec::pal2();
        let v0 = multi.gateway_views()[0].clone();
        let m = multi_tau_margin(&multi, v0.chain.len() as u64, v0.c0());
        assert!(m > tau_margin(&spec), "multi margin covers the longer ring");
    }

    #[test]
    fn analyze_profiled_without_profile_matches_plain() {
        let spec = DeploySpec::fig6();
        let opts = AnalysisOptions::default();
        let plain = analyze_with(&spec, &opts);
        let profiled = analyze_profiled(&spec, &opts, None);
        assert_eq!(plain, profiled);
    }
}
