//! Structured diagnostics: rule identifiers, severities, and the report
//! that [`crate::analyze`] produces.
//!
//! Every diagnostic carries a machine-readable rule ID (`A1`–`A13`), a
//! severity, a location inside the deployment (gateway / stream /
//! processor), and a human message. Reports serialise to JSON (and parse
//! back) so build pipelines can gate on them.

use crate::json::{self, Json};
use std::fmt;

/// The analyzer rule that produced a diagnostic.
///
/// Each rule checks one compile-time property from the paper; see
/// DESIGN.md §8 for the mapping to equations and figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// A1 — CSDF liveness/deadlock-freedom of the per-stream Fig. 5 model.
    A1Liveness,
    /// A2 — FIFO/C-FIFO capacity sufficiency vs the computed minimum buffer
    /// capacities (Fig. 8), including the non-monotone trap.
    A2BufferCapacity,
    /// A3 — per-stream throughput feasibility `η_s/γ_s ≥ μ_s` (Eq. 5–9).
    A3Throughput,
    /// A4 — TDM slot-table feasibility and replication-interval consistency
    /// on processor tiles.
    A4TdmSchedule,
    /// A5 — head-of-line-blocking hazard when the exit gateway shares a
    /// FIFO without the check-for-space admission test (Fig. 9).
    A5SpaceCheck,
    /// A6 — ring-credit sufficiency: NI depth vs the credit window the
    /// chain pace requires.
    A6CreditWindow,
    /// A7 — cross-gateway ring contention: per-hop injection load and
    /// credit interference summed over all streams' block traffic.
    A7RingContention,
    /// A8 — system round feasibility: γ over *all* admitted streams
    /// (Eq. 3–4) with per-stream throughput checks at system scope.
    A8SystemRound,
    /// A9 — TDM slot-table conflicts across gateways on the shared
    /// configuration bus (overlap, orphaned slots, window overrun).
    A9SlotConflict,
    /// A10 — end-to-end latency composition through the Fig. 7
    /// single-actor SDF abstraction.
    A10EndToEndLatency,
    /// A11 — per-mode admissibility: every declared stream mode must
    /// independently pass A1–A10 when substituted for the stream's
    /// committed configuration.
    A11ModeAdmissibility,
    /// A12 — worst-case mode-transition delay: closed-form bound on the
    /// cycles from switch request to the new mode's steady state
    /// (drain-to-idle, config-bus save/restore, first-round ramp-in).
    A12TransitionDelay,
    /// A13 — transition interference-freedom: non-switching streams keep
    /// their Eq. 3–4 round bounds and ring-load budgets throughout the
    /// transition window, under worst-of-modes load from the switcher.
    A13TransitionInterference,
}

impl RuleId {
    /// All rules, in report order.
    pub const ALL: [RuleId; 13] = [
        RuleId::A1Liveness,
        RuleId::A2BufferCapacity,
        RuleId::A3Throughput,
        RuleId::A4TdmSchedule,
        RuleId::A5SpaceCheck,
        RuleId::A6CreditWindow,
        RuleId::A7RingContention,
        RuleId::A8SystemRound,
        RuleId::A9SlotConflict,
        RuleId::A10EndToEndLatency,
        RuleId::A11ModeAdmissibility,
        RuleId::A12TransitionDelay,
        RuleId::A13TransitionInterference,
    ];

    /// The short machine-readable code (`"A1"` … `"A10"`).
    pub fn code(&self) -> &'static str {
        match self {
            RuleId::A1Liveness => "A1",
            RuleId::A2BufferCapacity => "A2",
            RuleId::A3Throughput => "A3",
            RuleId::A4TdmSchedule => "A4",
            RuleId::A5SpaceCheck => "A5",
            RuleId::A6CreditWindow => "A6",
            RuleId::A7RingContention => "A7",
            RuleId::A8SystemRound => "A8",
            RuleId::A9SlotConflict => "A9",
            RuleId::A10EndToEndLatency => "A10",
            RuleId::A11ModeAdmissibility => "A11",
            RuleId::A12TransitionDelay => "A12",
            RuleId::A13TransitionInterference => "A13",
        }
    }

    /// A one-line human title.
    pub fn title(&self) -> &'static str {
        match self {
            RuleId::A1Liveness => "CSDF liveness (Fig. 5 model)",
            RuleId::A2BufferCapacity => "buffer capacity sufficiency (Fig. 8)",
            RuleId::A3Throughput => "throughput feasibility (Eq. 5-9)",
            RuleId::A4TdmSchedule => "TDM slot-table feasibility",
            RuleId::A5SpaceCheck => "check-for-space admission (Fig. 9)",
            RuleId::A6CreditWindow => "ring credit sufficiency",
            RuleId::A7RingContention => "cross-gateway ring contention",
            RuleId::A8SystemRound => "system round feasibility (Eq. 3-4)",
            RuleId::A9SlotConflict => "configuration slot-table conflicts",
            RuleId::A10EndToEndLatency => "end-to-end latency (Fig. 7 SDF)",
            RuleId::A11ModeAdmissibility => "per-mode admissibility",
            RuleId::A12TransitionDelay => "mode-transition delay bound",
            RuleId::A13TransitionInterference => "transition interference-freedom",
        }
    }

    /// Parse a code emitted by [`RuleId::code`].
    pub fn from_code(code: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.code() == code)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// How severe a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: a verified property or computed bound worth seeing.
    Info,
    /// The deployment works but relies on behaviour outside the analysed
    /// guarantees (e.g. a consumer keeping up), or wastes resources.
    Warning,
    /// The deployment provably deadlocks, overflows, or misses throughput.
    Error,
}

impl Severity {
    /// The lowercase name (`"info"` / `"warning"` / `"error"`).
    pub fn name(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Parse a name emitted by [`Severity::name`].
    pub fn from_name(name: &str) -> Option<Severity> {
        match name {
            "info" => Some(Severity::Info),
            "warning" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where in the deployment a diagnostic points.
///
/// The derived `Ord` (deployment < gateway < stream < processor, then by
/// index/name) is part of the report's deterministic diagnostic order:
/// reports assembled from different rule-evaluation orders — e.g. a full
/// analysis vs an incremental re-analysis — must sort identically.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Location {
    /// The deployment as a whole (gateway pair + chain).
    Deployment,
    /// Gateway pair `index` (with its name) in a multi-gateway deployment.
    Gateway {
        /// Gateway index in spec order.
        index: usize,
        /// Gateway name.
        name: String,
    },
    /// Stream `index` (with its name).
    Stream {
        /// Stream index in spec order.
        index: usize,
        /// Stream name.
        name: String,
    },
    /// Processor tile `index` (with its name), optionally one task on it.
    Processor {
        /// Processor index in spec order.
        index: usize,
        /// Processor name.
        name: String,
        /// Task name, when the diagnostic is about one task's slots.
        task: Option<String>,
    },
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Deployment => f.write_str("deployment"),
            Location::Gateway { index, name } => write!(f, "gateway[{index}] {name}"),
            Location::Stream { index, name } => write!(f, "stream[{index}] {name}"),
            Location::Processor { index, name, task } => match task {
                Some(t) => write!(f, "processor[{index}] {name}/{t}"),
                None => write!(f, "processor[{index}] {name}"),
            },
        }
    }
}

impl Location {
    fn to_json(&self) -> Json {
        match self {
            Location::Deployment => Json::obj(vec![("kind", Json::Str("deployment".into()))]),
            Location::Gateway { index, name } => Json::obj(vec![
                ("kind", Json::Str("gateway".into())),
                ("index", Json::Int(*index as i128)),
                ("name", Json::Str(name.clone())),
            ]),
            Location::Stream { index, name } => Json::obj(vec![
                ("kind", Json::Str("stream".into())),
                ("index", Json::Int(*index as i128)),
                ("name", Json::Str(name.clone())),
            ]),
            Location::Processor { index, name, task } => {
                let mut pairs = vec![
                    ("kind", Json::Str("processor".into())),
                    ("index", Json::Int(*index as i128)),
                    ("name", Json::Str(name.clone())),
                ];
                if let Some(t) = task {
                    pairs.push(("task", Json::Str(t.clone())));
                }
                Json::obj(pairs)
            }
        }
    }

    fn from_json(v: &Json) -> Result<Location, String> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("location without kind")?;
        let index = || {
            v.get("index")
                .and_then(Json::as_int)
                .map(|i| i as usize)
                .ok_or_else(|| "location without index".to_string())
        };
        let name = || {
            v.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| "location without name".to_string())
        };
        match kind {
            "deployment" => Ok(Location::Deployment),
            "gateway" => Ok(Location::Gateway {
                index: index()?,
                name: name()?,
            }),
            "stream" => Ok(Location::Stream {
                index: index()?,
                name: name()?,
            }),
            "processor" => Ok(Location::Processor {
                index: index()?,
                name: name()?,
                task: v.get("task").and_then(Json::as_str).map(str::to_string),
            }),
            other => Err(format!("unknown location kind {other:?}")),
        }
    }
}

/// One finding of the analyzer.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// How severe the finding is.
    pub severity: Severity,
    /// Where in the deployment it points.
    pub location: Location,
    /// Human-readable message with the relevant numbers.
    pub message: String,
}

impl Diagnostic {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rule", Json::Str(self.rule.code().into())),
            ("severity", Json::Str(self.severity.name().into())),
            ("location", self.location.to_json()),
            ("message", Json::Str(self.message.clone())),
        ])
    }

    fn from_json(v: &Json) -> Result<Diagnostic, String> {
        Ok(Diagnostic {
            rule: v
                .get("rule")
                .and_then(Json::as_str)
                .and_then(RuleId::from_code)
                .ok_or("diagnostic without valid rule")?,
            severity: v
                .get("severity")
                .and_then(Json::as_str)
                .and_then(Severity::from_name)
                .ok_or("diagnostic without valid severity")?,
            location: Location::from_json(v.get("location").ok_or("diagnostic without location")?)?,
            message: v
                .get("message")
                .and_then(Json::as_str)
                .ok_or("diagnostic without message")?
                .to_string(),
        })
    }
}

/// Sort diagnostics into the report's canonical order: by rule, then
/// location, then most severe first, then message. The key is a *total*
/// order over every field, so the result is independent of the order the
/// rules pushed their findings — a full analysis and an incremental
/// re-analysis that produce the same multiset of diagnostics render
/// byte-identical reports.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (
            a.rule,
            &a.location,
            std::cmp::Reverse(a.severity),
            &a.message,
        )
            .cmp(&(
                b.rule,
                &b.location,
                std::cmp::Reverse(b.severity),
                &b.message,
            ))
    });
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:7} {} [{}] {}: {}",
            self.severity.name(),
            self.rule.code(),
            self.rule.title(),
            self.location,
            self.message
        )
    }
}

/// The per-stream worst-case bounds the analyzer computed on the way
/// (Eq. 2–4) — reported so a rejected configuration shows *how far off* it
/// is and an accepted one shows its guarantees.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamBounds {
    /// Stream name.
    pub stream: String,
    /// Configured block size η_s (input samples).
    pub eta_in: u64,
    /// Worst-case block time τ̂_s = R_s + (η_s + 2)·c0 (Eq. 2), cycles;
    /// `u64::MAX` where it overflows (the report then carries a structural
    /// Error).
    pub tau_hat: u64,
    /// Worst-case waiting time Ω̂_s = Σ_{i≠s} τ̂_i (Eq. 3), cycles;
    /// `u64::MAX` where the stream's round bound overflows.
    pub omega_hat: u64,
    /// Required throughput μ_s as an exact fraction (numerator, denominator)
    /// in samples/cycle.
    pub mu: (i128, i128),
}

impl StreamBounds {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("stream", Json::Str(self.stream.clone())),
            ("eta_in", Json::Int(self.eta_in as i128)),
            ("tau_hat", Json::Int(self.tau_hat as i128)),
            ("omega_hat", Json::Int(self.omega_hat as i128)),
            (
                "mu",
                Json::Array(vec![Json::Int(self.mu.0), Json::Int(self.mu.1)]),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<StreamBounds, String> {
        let mu = v
            .get("mu")
            .and_then(Json::as_array)
            .filter(|a| a.len() == 2)
            .ok_or("bounds without mu")?;
        Ok(StreamBounds {
            stream: v
                .get("stream")
                .and_then(Json::as_str)
                .ok_or("bounds without stream")?
                .to_string(),
            eta_in: v
                .get("eta_in")
                .and_then(Json::as_u64)
                .ok_or("bounds without eta_in")?,
            tau_hat: v
                .get("tau_hat")
                .and_then(Json::as_u64)
                .ok_or("bounds without tau_hat")?,
            omega_hat: v
                .get("omega_hat")
                .and_then(Json::as_u64)
                .ok_or("bounds without omega_hat")?,
            mu: (
                mu[0].as_int().ok_or("bad mu numerator")?,
                mu[1].as_int().ok_or("bad mu denominator")?,
            ),
        })
    }
}

/// The complete result of one analyzer run.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Name of the analysed deployment.
    pub deployment: String,
    /// All findings, grouped by rule then severity (most severe first
    /// within a rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Worst-case round time γ = Σ_s τ̂_s (Eq. 4), cycles; `u64::MAX`
    /// where a round bound overflows (the report then carries a structural
    /// Error).
    pub gamma: u64,
    /// Aggregate chain utilisation c0·Σ_s μ_s as a fraction
    /// (numerator, denominator); must be < 1 for any block sizes to work.
    /// The maximum over the pairs whose exact sum fits `i128`.
    pub utilisation: (i128, i128),
    /// Per-stream computed bounds.
    pub bounds: Vec<StreamBounds>,
}

impl Report {
    /// The most severe severity present, or `None` when there are no
    /// diagnostics at all.
    pub fn worst_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// All diagnostics of a given severity.
    pub fn with_severity(&self, s: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.severity == s)
    }

    /// Number of Error diagnostics.
    pub fn error_count(&self) -> usize {
        self.with_severity(Severity::Error).count()
    }

    /// True when the deployment passed: no Error diagnostics (Warnings and
    /// Infos are allowed).
    pub fn is_accepted(&self) -> bool {
        self.error_count() == 0
    }

    /// True when some diagnostic of `rule` has severity `severity`.
    pub fn has(&self, rule: RuleId, severity: Severity) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.rule == rule && d.severity == severity)
    }

    /// Render the human-readable multi-line report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "static analysis of deployment '{}': {} error(s), {} warning(s), {} info\n",
            self.deployment,
            self.error_count(),
            self.with_severity(Severity::Warning).count(),
            self.with_severity(Severity::Info).count(),
        ));
        out.push_str(&format!(
            "utilisation c0*sum(mu) = {}/{} ({:.1} %); round bound gamma = {} cycles\n",
            self.utilisation.0,
            self.utilisation.1,
            100.0 * self.utilisation.0 as f64 / self.utilisation.1 as f64,
            self.gamma
        ));
        for b in &self.bounds {
            out.push_str(&format!(
                "  stream {}: eta = {}, tau_hat = {}, omega_hat = {}, mu = {}/{}\n",
                b.stream, b.eta_in, b.tau_hat, b.omega_hat, b.mu.0, b.mu.1
            ));
        }
        for d in &self.diagnostics {
            out.push_str(&format!("{d}\n"));
        }
        out.push_str(if self.is_accepted() {
            "verdict: ACCEPTED\n"
        } else {
            "verdict: REJECTED\n"
        });
        out
    }

    /// Serialise to a JSON tree (see [`Report::to_json_text`]).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("deployment", Json::Str(self.deployment.clone())),
            ("accepted", Json::Bool(self.is_accepted())),
            ("gamma", Json::Int(self.gamma as i128)),
            (
                "utilisation",
                Json::Array(vec![
                    Json::Int(self.utilisation.0),
                    Json::Int(self.utilisation.1),
                ]),
            ),
            (
                "bounds",
                Json::Array(self.bounds.iter().map(StreamBounds::to_json).collect()),
            ),
            (
                "diagnostics",
                Json::Array(self.diagnostics.iter().map(Diagnostic::to_json).collect()),
            ),
        ])
    }

    /// Serialise to compact JSON text.
    pub fn to_json_text(&self) -> String {
        self.to_json().to_text()
    }

    /// Parse a report back from the JSON produced by
    /// [`Report::to_json_text`] — the machine-readable round trip.
    pub fn from_json_text(text: &str) -> Result<Report, String> {
        let v = json::parse(text)?;
        let util = v
            .get("utilisation")
            .and_then(Json::as_array)
            .filter(|a| a.len() == 2)
            .ok_or("report without utilisation")?;
        Ok(Report {
            deployment: v
                .get("deployment")
                .and_then(Json::as_str)
                .ok_or("report without deployment")?
                .to_string(),
            diagnostics: v
                .get("diagnostics")
                .and_then(Json::as_array)
                .ok_or("report without diagnostics")?
                .iter()
                .map(Diagnostic::from_json)
                .collect::<Result<_, _>>()?,
            gamma: v
                .get("gamma")
                .and_then(Json::as_u64)
                .ok_or("report without gamma")?,
            utilisation: (
                util[0].as_int().ok_or("bad utilisation numerator")?,
                util[1].as_int().ok_or("bad utilisation denominator")?,
            ),
            bounds: v
                .get("bounds")
                .and_then(Json::as_array)
                .ok_or("report without bounds")?
                .iter()
                .map(StreamBounds::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        Report {
            deployment: "t".into(),
            diagnostics: vec![
                Diagnostic {
                    rule: RuleId::A2BufferCapacity,
                    severity: Severity::Error,
                    location: Location::Stream {
                        index: 1,
                        name: "s1".into(),
                    },
                    message: "input capacity 7 < eta 8".into(),
                },
                Diagnostic {
                    rule: RuleId::A4TdmSchedule,
                    severity: Severity::Warning,
                    location: Location::Processor {
                        index: 0,
                        name: "FE".into(),
                        task: Some("src".into()),
                    },
                    message: "no slack".into(),
                },
            ],
            gamma: 1234,
            utilisation: (3, 4),
            bounds: vec![StreamBounds {
                stream: "s1".into(),
                eta_in: 8,
                tau_hat: 100,
                omega_hat: 50,
                mu: (1, 16),
            }],
        }
    }

    #[test]
    fn json_roundtrip_preserves_report() {
        let r = sample_report();
        let text = r.to_json_text();
        let back = Report::from_json_text(&text).unwrap();
        assert_eq!(back, r);
        // And the re-emitted text is byte-identical (deterministic keys).
        assert_eq!(back.to_json_text(), text);
    }

    #[test]
    fn severity_ordering_drives_acceptance() {
        let mut r = sample_report();
        assert!(!r.is_accepted());
        assert_eq!(r.worst_severity(), Some(Severity::Error));
        r.diagnostics.retain(|d| d.severity != Severity::Error);
        assert!(r.is_accepted());
        assert_eq!(r.worst_severity(), Some(Severity::Warning));
    }

    #[test]
    fn rule_codes_roundtrip() {
        for r in RuleId::ALL {
            assert_eq!(RuleId::from_code(r.code()), Some(r));
        }
        assert_eq!(RuleId::from_code("A14"), None);
        assert_eq!(RuleId::from_code("A10"), Some(RuleId::A10EndToEndLatency));
    }

    #[test]
    fn text_render_mentions_verdict_and_rules() {
        let r = sample_report();
        let t = r.render_text();
        assert!(t.contains("REJECTED"));
        assert!(t.contains("A2"));
        assert!(t.contains("stream[1] s1"));
    }
}
