//! The analyzable deployment description.
//!
//! [`DeploySpec`] is the static input of the analyzer: everything the rules
//! need to verify a gateway deployment *before* it runs — chain timing
//! (ε, ρ per stage, δ), NI depth, the check-for-space switch, per-stream
//! block sizes / rates / FIFO capacities, and the TDM slot tables of the
//! processor tiles. It deliberately mirrors [`streamgate_core::SystemSpec`]
//! (the run-time chain description of §IV-B) plus the analysis-only fields
//! that a support library knows but the built platform no longer exposes
//! (required rates μ_s, declared TDM periods).

use crate::json::{self, Json};
use streamgate_core::{GatewayParams, SharingProblem, StreamSpec};
use streamgate_ilp::Rational;

/// One accelerator stage of the shared chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainStage {
    /// Diagnostic name.
    pub name: String,
    /// Worst-case processing time per sample (ρ of this stage, cycles).
    pub rho: u64,
}

/// One stream multiplexed over the gateway pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamDeploy {
    /// Diagnostic name.
    pub name: String,
    /// Required throughput μ_s at the chain input, samples/cycle.
    pub mu: Rational,
    /// Block size η_s in input samples.
    pub eta_in: u64,
    /// Block size at the exit gateway in output samples (η_in divided by
    /// the chain's decimation factor; equal to η_in for rate-preserving
    /// chains).
    pub eta_out: u64,
    /// Reconfiguration time R_s per block, cycles.
    pub reconfig: u64,
    /// Input C-FIFO capacity α₀, samples.
    pub input_capacity: u64,
    /// Output C-FIFO capacity α₃, samples.
    pub output_capacity: u64,
    /// End-to-end latency budget (first input sample to last output
    /// sample of a block), cycles — checked by rule A10 when set.
    pub max_latency: Option<u64>,
}

/// Largest numerator or denominator of a stream rate μ the analyzer
/// models: 2⁴⁰ ≈ 1.1·10¹² (one sample per ~6 minutes at 3 GHz). A larger
/// term is a structural A3 error. The bound keeps ⌊1/μ⌋ inside `u64`, the
/// A2 cycle weights `q·dur − p·delay` inside `i128`. Several streams with
/// large, pairwise coprime denominators can still overflow an exact rate
/// sum (A3's utilisation, the A7 ring loads, A8's group claim); that is a
/// structural Error of the rule, not a panic.
pub const MU_TERM_LIMIT: i128 = 1 << 40;

/// Largest block size `eta_in` the rules model. Rule A1 evaluates the
/// Fig. 5 model with [`streamgate_core::run_fig5`], whose time grows with
/// η where the chain reaches no steady state within a block (about 0.2 s
/// at this limit); a larger block is a structural A1 error, and rule A1
/// skips the stream. Far above the paper's largest block (PAL's 10 136).
pub const ETA_LIMIT: u64 = 1 << 20;

impl StreamDeploy {
    /// True iff μ is positive with numerator and denominator at most
    /// [`MU_TERM_LIMIT`]: the rates the rules model. Any other rate is a
    /// structural error, and the rules skip the stream.
    pub(crate) fn rate_in_range(&self) -> bool {
        self.mu.is_positive()
            && self.mu.numer() <= MU_TERM_LIMIT
            && self.mu.denom() <= MU_TERM_LIMIT
    }
}

/// One software task in a processor tile's TDM slot table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskDeploy {
    /// Diagnostic name.
    pub name: String,
    /// TDM budget: consecutive slots per replication interval.
    pub budget: u64,
    /// Hard production/consumption period of the task in cycles (a rate
    /// source that must emit one sample every `n` cycles), when it has one.
    pub required_interval: Option<u64>,
}

/// One processor tile with its TDM slot table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcessorDeploy {
    /// Diagnostic name.
    pub name: String,
    /// The replication interval the deployment *intends*; the actual
    /// interval is the sum of budgets, and a mismatch is flagged (A4).
    pub declared_period: Option<u64>,
    /// Tasks in slot order.
    pub tasks: Vec<TaskDeploy>,
}

/// One gateway pair of a multi-gateway deployment (Fig. 1 system scope).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GatewayDeploy {
    /// Diagnostic name.
    pub name: String,
    /// The accelerator chain this pair drives, in order. Must be empty
    /// when [`GatewayDeploy::shares_chain_with`] is set (the chain is the
    /// referenced pair's).
    pub chain: Vec<ChainStage>,
    /// When set, this pair owns no chain: it claims the physical chain of
    /// the referenced *earlier* gateway block by block (Fig. 10 — more
    /// logical uses than physical accelerators).
    pub shares_chain_with: Option<usize>,
    /// Streams multiplexed over this pair.
    pub streams: Vec<StreamDeploy>,
    /// Reconfiguration slot `(offset, length)` on the shared
    /// configuration bus, within [`DeploySpec::config_bus_period`] —
    /// checked by rule A9 when set.
    pub config_slot: Option<(u64, u64)>,
}

/// A user-chosen ring placement overriding the default interleaved
/// [`DeploySpec::ring_layout`]: the total station count plus, per gateway,
/// its entry station, exit station, and chain stations in chain order.
/// Gateways sharing a chain must list identical chain stations (they alias
/// the same physical tiles). Link-id assignment is not part of the map —
/// it stays the deterministic scheme of [`RingLayout`], which never
/// depends on where stations sit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StationMap {
    /// Total ring stations (may exceed the number of placed tiles; spare
    /// stations are plain forwarding hops).
    pub nodes: usize,
    /// Entry station per gateway, in gateway order.
    pub entries: Vec<usize>,
    /// Exit station per gateway, in gateway order.
    pub exits: Vec<usize>,
    /// Accelerator stations per gateway, in chain order.
    pub chain_nodes: Vec<Vec<usize>>,
}

/// One declared operating mode of a stream: a name plus the complete
/// per-stream configuration (rate μ, block sizes η, reconfiguration
/// window, buffer sizing) the stream runs with while in that mode.
///
/// The `config.name` field is ignored on substitution — a mode always
/// keeps the identity of the stream it belongs to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamMode {
    /// Mode name, unique within the owning [`StreamModes`] declaration.
    pub name: String,
    /// The stream configuration in force while this mode is active.
    pub config: StreamDeploy,
}

/// The multi-mode declaration of one stream: the set of operating modes
/// it may run in and (optionally) which mode-to-mode transitions are
/// allowed.
///
/// Rules A11–A13 analyse these declarations statically; the
/// `ModeSwitch` admission delta executes them at run time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamModes {
    /// Gateway index of the owning stream (0 in the single-gateway shape).
    pub gateway: usize,
    /// Name of the stream these modes belong to.
    pub stream: String,
    /// Declared modes, in declaration order.
    pub modes: Vec<StreamMode>,
    /// Allowed transitions as `(from, to)` mode-name pairs. Empty means
    /// every mode can switch to every other mode.
    pub transitions: Vec<(String, String)>,
}

impl StreamModes {
    /// Look up a declared mode by name.
    pub fn mode(&self, name: &str) -> Option<&StreamMode> {
        self.modes.iter().find(|m| m.name == name)
    }

    /// True when a switch from mode `from` to mode `to` is allowed by the
    /// declared transition set (empty set = fully connected).
    pub fn transition_allowed(&self, from: &str, to: &str) -> bool {
        self.transitions.is_empty() || self.transitions.iter().any(|(f, t)| f == from && t == to)
    }
}

/// A complete static deployment description — the analyzer input.
///
/// Two shapes share this type:
///
/// * **single-gateway** (the PR-3 format): [`DeploySpec::gateways`] is
///   empty and the top-level [`DeploySpec::chain`] / [`DeploySpec::streams`]
///   describe the one pair;
/// * **multi-gateway**: [`DeploySpec::gateways`] is non-empty and fully
///   describes every pair; the top-level `chain`/`streams` must then be
///   empty. [`DeploySpec::gateway_views`] presents both shapes uniformly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeploySpec {
    /// Deployment name (reported in diagnostics).
    pub name: String,
    /// The shared accelerator chain, in order (single-gateway shape).
    pub chain: Vec<ChainStage>,
    /// Entry-gateway DMA time per sample, ε (cycles).
    pub epsilon: u64,
    /// Exit-gateway copy time per sample, δ (cycles).
    pub delta: u64,
    /// Network-interface buffer depth (initial credits; 2 in the paper).
    pub ni_depth: u32,
    /// Whether the entry gateway performs the §V-G check-for-space
    /// admission test (Fig. 9).
    pub check_for_space: bool,
    /// The streams multiplexed over the chain (single-gateway shape).
    pub streams: Vec<StreamDeploy>,
    /// Processor tiles feeding/draining the streams.
    pub processors: Vec<ProcessorDeploy>,
    /// Gateway pairs of a multi-gateway deployment (empty in the
    /// single-gateway shape).
    pub gateways: Vec<GatewayDeploy>,
    /// Replication period of the shared configuration bus's TDM table,
    /// cycles — the frame the per-gateway [`GatewayDeploy::config_slot`]s
    /// live in (rule A9).
    pub config_bus_period: Option<u64>,
    /// User-chosen ring placement; `None` selects the default interleaved
    /// layout. Validated by [`DeploySpec::gateway_structure_errors`].
    pub station_map: Option<StationMap>,
    /// Multi-mode declarations (rules A11–A13); empty when every stream
    /// is single-mode.
    pub modes: Vec<StreamModes>,
}

/// A uniform per-gateway view over both [`DeploySpec`] shapes: rules that
/// check one pair at a time iterate views and never care which shape the
/// spec came in.
#[derive(Clone, Debug)]
pub struct GatewayView<'a> {
    /// Gateway index within the deployment (0 in the single-gateway shape).
    pub index: usize,
    /// Diagnostic name.
    pub name: &'a str,
    /// The physical chain this pair drives (resolved through sharing).
    pub chain: &'a [ChainStage],
    /// Index of the gateway owning the physical chain — pairs with equal
    /// `group` share one chain and serialise their blocks (Fig. 10).
    pub group: usize,
    /// Streams multiplexed over this pair.
    pub streams: &'a [StreamDeploy],
    /// Configuration-bus slot, when declared.
    pub config_slot: Option<(u64, u64)>,
    /// Chain timing parameters (ε, this chain's ρ_A, δ).
    pub params: GatewayParams,
}

impl GatewayView<'_> {
    /// `c0 = max(ε, ρ_A, δ)` (Eq. 8) of this pair's chain.
    pub fn c0(&self) -> u64 {
        self.params.c0()
    }

    /// The Eq. 5–9 sharing problem of this pair in isolation.
    pub fn sharing_problem(&self) -> SharingProblem {
        SharingProblem {
            params: self.params,
            streams: self
                .streams
                .iter()
                .map(|s| StreamSpec {
                    name: s.name.clone(),
                    mu: s.mu,
                    reconfig: s.reconfig,
                })
                .collect(),
        }
    }

    /// The configured block sizes, in stream order.
    pub fn etas(&self) -> Vec<u64> {
        self.streams.iter().map(|s| s.eta_in).collect()
    }
}

/// The deterministic ring placement of a multi-gateway deployment — the
/// single wiring truth shared by [`DeploySpec::build_multi_platform`] and
/// rule A7's path arithmetic.
///
/// Stations are interleaved the way Fig. 1 draws the system: all entry
/// gateways first (`0..G`), then every owned chain's accelerators back to
/// back, then the exit gateways — so distinct pairs' ring paths overlap
/// and contention is real rather than laid out away. Data flits travel in
/// increasing-station direction; *hop `i`* names the data-ring edge from
/// station `i` to `i + 1` (mod `nodes`). Credits travel the opposite
/// rotation; *credit hop `i`* names the edge from station `i` to `i − 1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RingLayout {
    /// Total ring stations.
    pub nodes: usize,
    /// Entry station per gateway.
    pub entries: Vec<usize>,
    /// Exit station per gateway.
    pub exits: Vec<usize>,
    /// Accelerator stations per gateway (pairs sharing a chain alias the
    /// same stations).
    pub chain_nodes: Vec<Vec<usize>>,
    /// Entry-DMA stream id per gateway (`2·g`).
    pub in_links: Vec<u32>,
    /// Exit stream id per gateway (`2·g + 1`).
    pub out_links: Vec<u32>,
    /// Inter-accelerator stream ids per gateway. Fixed per chain *group*
    /// (hop `j` of the chain owned by gateway `X` is
    /// `1_000_000 + 1000·X + j`): a shared chain's interior links are
    /// never retargeted, only its boundary links are.
    pub mid_links: Vec<Vec<u32>>,
}

impl RingLayout {
    /// The data-ring segments `(src, dst)` gateway `g`'s block traffic
    /// crosses: entry → first accelerator, accelerator → accelerator,
    /// last accelerator → exit.
    pub fn segments(&self, g: usize) -> Vec<(usize, usize)> {
        let ch = &self.chain_nodes[g];
        let mut v = Vec::new();
        if ch.is_empty() {
            return v;
        }
        v.push((self.entries[g], ch[0]));
        for w in ch.windows(2) {
            v.push((w[0], w[1]));
        }
        v.push((ch[ch.len() - 1], self.exits[g]));
        v
    }

    /// The data-ring hops crossed by segment `(src, dst)`.
    pub fn data_hops(&self, src: usize, dst: usize) -> Vec<usize> {
        let mut hops = Vec::new();
        let mut i = src;
        while i != dst {
            hops.push(i);
            i = (i + 1) % self.nodes;
        }
        hops
    }

    /// The credit-ring hops crossed by the credit flow mirroring data
    /// segment `(src, dst)`: one credit travels `dst → src` against the
    /// data rotation for every data flit delivered.
    pub fn credit_hops(&self, src: usize, dst: usize) -> Vec<usize> {
        let mut hops = Vec::new();
        let mut i = dst;
        while i != src {
            hops.push(i);
            i = (i + self.nodes - 1) % self.nodes;
        }
        hops
    }
}

/// A built multi-gateway platform with handles to its observation points
/// (the system-scope analogue of [`streamgate_core::BuiltSystem`]).
pub struct MultiBuiltSystem {
    /// The simulated MPSoC.
    pub system: streamgate_platform::System,
    /// Per-spec-gateway index into `system.gateways`.
    pub gateways: Vec<usize>,
    /// Input C-FIFO handles: `inputs[g][s]` for gateway `g`, local stream `s`.
    pub inputs: Vec<Vec<streamgate_platform::FifoId>>,
    /// Output C-FIFO handles, mirrored.
    pub outputs: Vec<Vec<streamgate_platform::FifoId>>,
}

/// Builders that can export the [`DeploySpec`] describing what they wire,
/// so deployments constructed in code get the same static analysis as
/// hand-written specs (and the analyzer never drifts from the builder).
pub trait ToDeploySpec {
    /// The analyzable deployment spec matching this builder's wiring.
    fn to_deploy_spec(&self) -> DeploySpec;
}

impl ToDeploySpec for streamgate_core::PalSystemConfig {
    fn to_deploy_spec(&self) -> DeploySpec {
        DeploySpec::from_pal(self)
    }
}

impl DeploySpec {
    /// Worst-case per-sample accelerator time over the chain,
    /// ρ_A = max stage ρ.
    pub fn rho_a(&self) -> u64 {
        self.chain.iter().map(|s| s.rho).max().unwrap_or(0)
    }

    /// Whether this spec uses the multi-gateway shape.
    pub fn is_multi(&self) -> bool {
        !self.gateways.is_empty()
    }

    /// The chain group gateway `i` belongs to: the referenced owner for a
    /// valid `shares_chain_with`, itself otherwise (structural defects are
    /// reported by [`DeploySpec::gateway_structure_errors`], not here).
    fn resolve_group(&self, i: usize) -> usize {
        match self.gateways[i].shares_chain_with {
            Some(o) if o < i && self.gateways[o].shares_chain_with.is_none() => o,
            _ => i,
        }
    }

    /// Uniform per-gateway views over both shapes. A single-gateway spec
    /// yields exactly one view built from the top-level fields.
    pub fn gateway_views(&self) -> Vec<GatewayView<'_>> {
        if self.gateways.is_empty() {
            return vec![GatewayView {
                index: 0,
                name: &self.name,
                chain: &self.chain,
                group: 0,
                streams: &self.streams,
                config_slot: None,
                params: self.gateway_params(),
            }];
        }
        self.gateways
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let group = self.resolve_group(i);
                let chain = &self.gateways[group].chain[..];
                GatewayView {
                    index: i,
                    name: &g.name,
                    chain,
                    group,
                    streams: &g.streams,
                    config_slot: g.config_slot,
                    params: GatewayParams {
                        epsilon: self.epsilon,
                        rho_a: chain.iter().map(|s| s.rho).max().unwrap_or(0),
                        delta: self.delta,
                    },
                }
            })
            .collect()
    }

    /// Flat `(gateway index, stream)` enumeration across all pairs, in
    /// gateway-then-stream order — the global stream indexing used by
    /// diagnostics and [`crate::Report`] bounds.
    pub fn all_streams(&self) -> Vec<(usize, &StreamDeploy)> {
        if self.gateways.is_empty() {
            return self.streams.iter().map(|s| (0, s)).collect();
        }
        self.gateways
            .iter()
            .enumerate()
            .flat_map(|(i, g)| g.streams.iter().map(move |s| (i, s)))
            .collect()
    }

    /// Structural defects of the multi-gateway section, as `(gateway
    /// index, message)` pairs — empty for well-formed specs (and always
    /// empty for the single-gateway shape).
    pub fn gateway_structure_errors(&self) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        for (i, g) in self.gateways.iter().enumerate() {
            match g.shares_chain_with {
                Some(o) if o >= i => out.push((
                    i,
                    format!("shares_chain_with {o} must reference an earlier gateway"),
                )),
                Some(o) if !g.chain.is_empty() => out.push((
                    i,
                    format!("declares its own chain yet shares_chain_with {o}"),
                )),
                Some(o) if self.gateways[o].shares_chain_with.is_some() => out.push((
                    i,
                    format!("shares_chain_with {o}, which does not own a chain"),
                )),
                None if g.chain.is_empty() => {
                    out.push((i, "has neither a chain nor shares_chain_with".into()))
                }
                _ => {}
            }
        }
        if !self.gateways.is_empty() && (!self.chain.is_empty() || !self.streams.is_empty()) {
            out.push((
                0,
                "multi-gateway specs must leave the top-level chain/streams empty".into(),
            ));
        }
        if let Some(m) = &self.station_map {
            self.station_map_errors(m, &mut out);
        }
        out
    }

    /// Validate a user [`StationMap`] against this spec's gateway shapes,
    /// appending `(gateway index, message)` defects to `out`.
    fn station_map_errors(&self, m: &StationMap, out: &mut Vec<(usize, String)>) {
        let views = self.gateway_views();
        let g = views.len();
        if m.entries.len() != g || m.exits.len() != g || m.chain_nodes.len() != g {
            out.push((
                0,
                format!(
                    "station_map shape mismatch: {} gateways but {} entries, \
                     {} exits, {} chain lists",
                    g,
                    m.entries.len(),
                    m.exits.len(),
                    m.chain_nodes.len()
                ),
            ));
            return;
        }
        let mut used: Vec<usize> = Vec::new();
        for v in &views {
            if m.chain_nodes[v.index].len() != v.chain.len() {
                out.push((
                    v.index,
                    format!(
                        "station_map lists {} chain stations for a {}-stage chain",
                        m.chain_nodes[v.index].len(),
                        v.chain.len()
                    ),
                ));
                continue;
            }
            if v.group != v.index && m.chain_nodes[v.index] != m.chain_nodes[v.group] {
                out.push((
                    v.index,
                    format!(
                        "station_map must alias the shared chain's stations of gateway {}",
                        v.group
                    ),
                ));
            }
            let mut placed = vec![m.entries[v.index], m.exits[v.index]];
            if v.group == v.index {
                placed.extend(&m.chain_nodes[v.index]);
            }
            for &s in &placed {
                if s >= m.nodes {
                    out.push((
                        v.index,
                        format!("station_map places station {s} outside 0..{}", m.nodes),
                    ));
                } else if used.contains(&s) {
                    out.push((v.index, format!("station_map reuses station {s}")));
                } else {
                    used.push(s);
                }
            }
        }
    }

    /// The ring placement of this deployment (any shape): the user
    /// [`DeploySpec::station_map`] when one is set and well-formed, the
    /// deterministic interleaved placement otherwise.
    pub fn ring_layout(&self) -> RingLayout {
        let views = self.gateway_views();
        let g = views.len();
        let mid_links: Vec<Vec<u32>> = views
            .iter()
            .map(|v| {
                assert!(
                    v.chain.len() <= 1000,
                    "chain too long for the link-id scheme"
                );
                (0..v.chain.len().saturating_sub(1))
                    .map(|j| (1_000_000 + 1000 * v.group + j) as u32)
                    .collect()
            })
            .collect();
        let in_links: Vec<u32> = (0..g).map(|i| 2 * i as u32).collect();
        let out_links: Vec<u32> = (0..g).map(|i| 2 * i as u32 + 1).collect();
        if let Some(m) = &self.station_map {
            let mut errs = Vec::new();
            self.station_map_errors(m, &mut errs);
            if errs.is_empty() {
                // The group's owner places the chain; sharers alias it
                // (validation already forced the lists equal).
                let chain_nodes = views
                    .iter()
                    .map(|v| m.chain_nodes[v.group].clone())
                    .collect();
                return RingLayout {
                    nodes: m.nodes,
                    entries: m.entries.clone(),
                    exits: m.exits.clone(),
                    chain_nodes,
                    in_links,
                    out_links,
                    mid_links,
                };
            }
        }
        let mut next = g;
        let mut owned: Vec<Vec<usize>> = vec![Vec::new(); g];
        for v in &views {
            if v.group == v.index {
                owned[v.index] = (next..next + v.chain.len()).collect();
                next += v.chain.len();
            }
        }
        let chain_nodes: Vec<Vec<usize>> = views.iter().map(|v| owned[v.group].clone()).collect();
        RingLayout {
            nodes: next + g,
            entries: (0..g).collect(),
            exits: (0..g).map(|i| next + i).collect(),
            chain_nodes,
            in_links,
            out_links,
            mid_links,
        }
    }

    /// `c0 = max(ε, ρ_A, δ)` (Eq. 8).
    pub fn c0(&self) -> u64 {
        self.gateway_params().c0()
    }

    /// The chain timing parameters.
    pub fn gateway_params(&self) -> GatewayParams {
        GatewayParams {
            epsilon: self.epsilon,
            rho_a: self.rho_a(),
            delta: self.delta,
        }
    }

    /// The Eq. 5–9 sharing problem this deployment instantiates.
    pub fn sharing_problem(&self) -> SharingProblem {
        SharingProblem {
            params: self.gateway_params(),
            streams: self
                .streams
                .iter()
                .map(|s| StreamSpec {
                    name: s.name.clone(),
                    mu: s.mu,
                    reconfig: s.reconfig,
                })
                .collect(),
        }
    }

    /// The configured block sizes, in stream order.
    pub fn etas(&self) -> Vec<u64> {
        self.streams.iter().map(|s| s.eta_in).collect()
    }

    /// Serialise to a JSON tree (machine-readable spec interchange).
    ///
    /// Multi-gateway-only keys (`gateways`, `config_bus_period`, per-stream
    /// `max_latency`) are omitted when empty/unset, so single-gateway specs
    /// re-emit byte-identically to the PR-3 format.
    pub fn to_json(&self) -> Json {
        let mut top = vec![
            ("name", Json::Str(self.name.clone())),
            ("chain", chain_to_json(&self.chain)),
            ("epsilon", Json::Int(self.epsilon as i128)),
            ("delta", Json::Int(self.delta as i128)),
            ("ni_depth", Json::Int(self.ni_depth as i128)),
            ("check_for_space", Json::Bool(self.check_for_space)),
            ("streams", streams_to_json(&self.streams)),
            (
                "processors",
                Json::Array(
                    self.processors
                        .iter()
                        .map(|p| {
                            let mut pairs = vec![("name", Json::Str(p.name.clone()))];
                            if let Some(d) = p.declared_period {
                                pairs.push(("declared_period", Json::Int(d as i128)));
                            }
                            pairs.push((
                                "tasks",
                                Json::Array(
                                    p.tasks
                                        .iter()
                                        .map(|t| {
                                            let mut tp = vec![
                                                ("name", Json::Str(t.name.clone())),
                                                ("budget", Json::Int(t.budget as i128)),
                                            ];
                                            if let Some(i) = t.required_interval {
                                                tp.push((
                                                    "required_interval",
                                                    Json::Int(i as i128),
                                                ));
                                            }
                                            Json::obj(tp)
                                        })
                                        .collect(),
                                ),
                            ));
                            Json::obj(pairs)
                        })
                        .collect(),
                ),
            ),
        ];
        if !self.gateways.is_empty() {
            top.push((
                "gateways",
                Json::Array(
                    self.gateways
                        .iter()
                        .map(|g| {
                            let mut pairs = vec![
                                ("name", Json::Str(g.name.clone())),
                                ("chain", chain_to_json(&g.chain)),
                            ];
                            if let Some(o) = g.shares_chain_with {
                                pairs.push(("shares_chain_with", Json::Int(o as i128)));
                            }
                            pairs.push(("streams", streams_to_json(&g.streams)));
                            if let Some((off, len)) = g.config_slot {
                                pairs.push((
                                    "config_slot",
                                    Json::Array(vec![
                                        Json::Int(off as i128),
                                        Json::Int(len as i128),
                                    ]),
                                ));
                            }
                            Json::obj(pairs)
                        })
                        .collect(),
                ),
            ));
        }
        if let Some(p) = self.config_bus_period {
            top.push(("config_bus_period", Json::Int(p as i128)));
        }
        if let Some(m) = &self.station_map {
            let arr = |v: &[usize]| Json::Array(v.iter().map(|&s| Json::Int(s as i128)).collect());
            top.push((
                "station_map",
                Json::obj(vec![
                    ("nodes", Json::Int(m.nodes as i128)),
                    ("entries", arr(&m.entries)),
                    ("exits", arr(&m.exits)),
                    (
                        "chain_nodes",
                        Json::Array(m.chain_nodes.iter().map(|c| arr(c)).collect()),
                    ),
                ]),
            ));
        }
        if !self.modes.is_empty() {
            top.push((
                "modes",
                Json::Array(
                    self.modes
                        .iter()
                        .map(|m| {
                            Json::obj(vec![
                                ("gateway", Json::Int(m.gateway as i128)),
                                ("stream", Json::Str(m.stream.clone())),
                                (
                                    "modes",
                                    Json::Array(
                                        m.modes
                                            .iter()
                                            .map(|md| {
                                                Json::obj(vec![
                                                    ("name", Json::Str(md.name.clone())),
                                                    ("config", stream_to_json(&md.config)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                                (
                                    "transitions",
                                    Json::Array(
                                        m.transitions
                                            .iter()
                                            .map(|(f, t)| {
                                                Json::Array(vec![
                                                    Json::Str(f.clone()),
                                                    Json::Str(t.clone()),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Json::obj(top)
    }

    /// Serialise to compact JSON text.
    pub fn to_json_text(&self) -> String {
        self.to_json().to_text()
    }

    /// Parse a spec from the JSON produced by [`DeploySpec::to_json_text`]
    /// (either shape; PR-3 single-gateway documents still parse).
    pub fn from_json_text(text: &str) -> Result<DeploySpec, String> {
        let v = json::parse(text)?;
        let chain = chain_from_json(v.get("chain").ok_or("missing chain")?)?;
        let streams = streams_from_json(v.get("streams").ok_or("missing streams")?)?;
        let processors = match v.get("processors").and_then(Json::as_array) {
            None => Vec::new(),
            Some(ps) => ps
                .iter()
                .map(|p| {
                    let tasks = p
                        .get("tasks")
                        .and_then(Json::as_array)
                        .unwrap_or(&[])
                        .iter()
                        .map(|t| {
                            Ok(TaskDeploy {
                                name: j_str(t, "name")?,
                                budget: j_u64(t, "budget")?,
                                required_interval: t
                                    .get("required_interval")
                                    .and_then(Json::as_u64),
                            })
                        })
                        .collect::<Result<_, String>>()?;
                    Ok(ProcessorDeploy {
                        name: j_str(p, "name")?,
                        declared_period: p.get("declared_period").and_then(Json::as_u64),
                        tasks,
                    })
                })
                .collect::<Result<_, String>>()?,
        };
        let gateways = match v.get("gateways").and_then(Json::as_array) {
            None => Vec::new(),
            Some(gs) => gs
                .iter()
                .map(|g| {
                    let config_slot = match g.get("config_slot").and_then(Json::as_array) {
                        None => None,
                        Some(a) if a.len() == 2 => {
                            let off = a[0].as_u64().ok_or("bad config_slot offset")?;
                            let len = a[1].as_u64().ok_or("bad config_slot length")?;
                            Some((off, len))
                        }
                        Some(_) => return Err("config_slot must be [offset, length]".into()),
                    };
                    Ok(GatewayDeploy {
                        name: j_str(g, "name")?,
                        chain: chain_from_json(g.get("chain").ok_or("gateway without chain")?)?,
                        shares_chain_with: g
                            .get("shares_chain_with")
                            .and_then(Json::as_u64)
                            .map(|o| o as usize),
                        streams: streams_from_json(
                            g.get("streams").ok_or("gateway without streams")?,
                        )?,
                        config_slot,
                    })
                })
                .collect::<Result<_, String>>()?,
        };
        let station_map = match v.get("station_map") {
            None => None,
            Some(m) => {
                let list = |k: &str| -> Result<Vec<usize>, String> {
                    m.get(k)
                        .and_then(Json::as_array)
                        .ok_or_else(|| format!("station_map without {k} array"))?
                        .iter()
                        .map(|s| s.as_u64().map(|x| x as usize).ok_or("bad station".into()))
                        .collect()
                };
                Some(StationMap {
                    nodes: j_u64(m, "nodes")? as usize,
                    entries: list("entries")?,
                    exits: list("exits")?,
                    chain_nodes: m
                        .get("chain_nodes")
                        .and_then(Json::as_array)
                        .ok_or("station_map without chain_nodes array")?
                        .iter()
                        .map(|c| {
                            c.as_array()
                                .ok_or("chain_nodes entry must be an array")?
                                .iter()
                                .map(|s| s.as_u64().map(|x| x as usize).ok_or("bad station".into()))
                                .collect()
                        })
                        .collect::<Result<_, String>>()?,
                })
            }
        };
        let modes = match v.get("modes").and_then(Json::as_array) {
            None => Vec::new(),
            Some(ms) => ms
                .iter()
                .map(|m| {
                    let modes = m
                        .get("modes")
                        .and_then(Json::as_array)
                        .ok_or("mode declaration without modes array")?
                        .iter()
                        .map(|md| {
                            Ok(StreamMode {
                                name: j_str(md, "name")?,
                                config: stream_from_json(
                                    md.get("config").ok_or("mode without config")?,
                                )?,
                            })
                        })
                        .collect::<Result<_, String>>()?;
                    let transitions = match m.get("transitions").and_then(Json::as_array) {
                        None => Vec::new(),
                        Some(ts) => ts
                            .iter()
                            .map(|t| {
                                let pair = t
                                    .as_array()
                                    .filter(|a| a.len() == 2)
                                    .ok_or("transition must be [from, to]")?;
                                let f = pair[0].as_str().ok_or("bad transition from")?;
                                let to = pair[1].as_str().ok_or("bad transition to")?;
                                Ok((f.to_string(), to.to_string()))
                            })
                            .collect::<Result<_, String>>()?,
                    };
                    Ok(StreamModes {
                        gateway: j_u64(m, "gateway")? as usize,
                        stream: j_str(m, "stream")?,
                        modes,
                        transitions,
                    })
                })
                .collect::<Result<_, String>>()?,
        };
        Ok(DeploySpec {
            name: j_str(&v, "name")?,
            chain,
            epsilon: j_u64(&v, "epsilon")?,
            delta: j_u64(&v, "delta")?,
            ni_depth: j_u64(&v, "ni_depth")? as u32,
            check_for_space: v
                .get("check_for_space")
                .and_then(Json::as_bool)
                .unwrap_or(true),
            streams,
            processors,
            gateways,
            config_bus_period: v.get("config_bus_period").and_then(Json::as_u64),
            station_map,
            modes,
        })
    }
}

fn j_str(v: &Json, k: &str) -> Result<String, String> {
    v.get(k)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {k:?}"))
}

fn j_u64(v: &Json, k: &str) -> Result<u64, String> {
    v.get(k)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing integer field {k:?}"))
}

fn chain_to_json(chain: &[ChainStage]) -> Json {
    Json::Array(
        chain
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("name", Json::Str(c.name.clone())),
                    ("rho", Json::Int(c.rho as i128)),
                ])
            })
            .collect(),
    )
}

fn streams_to_json(streams: &[StreamDeploy]) -> Json {
    Json::Array(streams.iter().map(stream_to_json).collect())
}

/// Serialise one stream object of the spec-JSON `streams` encoding —
/// shared with the per-mode `config` encoding.
fn stream_to_json(s: &StreamDeploy) -> Json {
    let mut pairs = vec![
        ("name", Json::Str(s.name.clone())),
        (
            "mu",
            Json::Array(vec![Json::Int(s.mu.numer()), Json::Int(s.mu.denom())]),
        ),
        ("eta_in", Json::Int(s.eta_in as i128)),
        ("eta_out", Json::Int(s.eta_out as i128)),
        ("reconfig", Json::Int(s.reconfig as i128)),
        ("input_capacity", Json::Int(s.input_capacity as i128)),
        ("output_capacity", Json::Int(s.output_capacity as i128)),
    ];
    if let Some(l) = s.max_latency {
        pairs.push(("max_latency", Json::Int(l as i128)));
    }
    Json::obj(pairs)
}

fn chain_from_json(v: &Json) -> Result<Vec<ChainStage>, String> {
    v.as_array()
        .ok_or("chain must be an array")?
        .iter()
        .map(|c| {
            Ok(ChainStage {
                name: j_str(c, "name")?,
                rho: j_u64(c, "rho")?,
            })
        })
        .collect()
}

fn streams_from_json(v: &Json) -> Result<Vec<StreamDeploy>, String> {
    v.as_array()
        .ok_or("streams must be an array")?
        .iter()
        .map(stream_from_json)
        .collect()
}

/// Parse one stream object of the spec-JSON `streams` encoding — shared
/// with the `--delta` admission-script parser.
pub(crate) fn stream_from_json(s: &Json) -> Result<StreamDeploy, String> {
    let mu = s
        .get("mu")
        .and_then(Json::as_array)
        .filter(|a| a.len() == 2)
        .ok_or("stream without mu [num, den]")?;
    let num = mu[0].as_int().ok_or("bad mu numerator")?;
    let den = mu[1].as_int().ok_or("bad mu denominator")?;
    if den == 0 {
        return Err("mu denominator is zero".to_string());
    }
    Ok(StreamDeploy {
        name: j_str(s, "name")?,
        mu: Rational::new(num, den),
        eta_in: j_u64(s, "eta_in")?,
        eta_out: j_u64(s, "eta_out")?,
        reconfig: j_u64(s, "reconfig")?,
        input_capacity: j_u64(s, "input_capacity")?,
        output_capacity: j_u64(s, "output_capacity")?,
        max_latency: s.get("max_latency").and_then(Json::as_u64),
    })
}

// ---------------------------------------------------------------------------
// Presets matching the repository's experiment harnesses.
// ---------------------------------------------------------------------------

impl DeploySpec {
    /// The Fig. 6 schedule demo of `fig6_schedule`: one stream, η = 6,
    /// ε = 3, ρ_A = 1, δ = 1, R = 12, α₀ = α₃ = 12, with a rate-matched μ
    /// exactly at the Eq. 5 boundary (η/γ = 6/36 = 1/6 samples/cycle).
    pub fn fig6() -> DeploySpec {
        DeploySpec {
            name: "fig6-schedule".into(),
            chain: vec![ChainStage {
                name: "vA".into(),
                rho: 1,
            }],
            epsilon: 3,
            delta: 1,
            ni_depth: 2,
            check_for_space: true,
            streams: vec![StreamDeploy {
                name: "s".into(),
                mu: Rational::new(1, 6),
                eta_in: 6,
                eta_out: 6,
                reconfig: 12,
                input_capacity: 12,
                output_capacity: 12,
                max_latency: None,
            }],
            processors: vec![],
            gateways: vec![],
            config_bus_period: None,
            station_map: None,
            modes: vec![],
        }
    }

    /// The Fig. 9 counter-example platform of `fig9_shared_fifo`: two
    /// η = 16 streams over one accelerator; stream 1's output FIFO holds
    /// only 4 samples and is never drained. With `check_for_space` the
    /// block is (safely) never admitted; without it the block wedges the
    /// shared chain and head-of-line-blocks stream 0.
    pub fn fig9(check_for_space: bool) -> DeploySpec {
        let stream = |name: &str, out_cap: u64| StreamDeploy {
            name: name.into(),
            mu: Rational::new(1, 8),
            eta_in: 16,
            eta_out: 16,
            reconfig: 10,
            input_capacity: 4096,
            output_capacity: out_cap,
            max_latency: None,
        };
        DeploySpec {
            name: if check_for_space {
                "fig9-space-check-enabled".into()
            } else {
                "fig9-space-check-disabled".into()
            },
            chain: vec![ChainStage {
                name: "acc".into(),
                rho: 1,
            }],
            epsilon: 2,
            delta: 1,
            ni_depth: 2,
            check_for_space,
            streams: vec![stream("s0", 1 << 16), stream("s1", 4)],
            processors: vec![],
            gateways: vec![],
            config_bus_period: None,
            station_map: None,
            modes: vec![],
        }
    }

    /// The laptop-scale PAL stereo decoder deployment of
    /// [`streamgate_core::PalSystemConfig::scaled_default`] /
    /// `pal_system_sim` — four streams over {CORDIC, FIR+8:1}, built
    /// exactly as `build_pal_system` wires it.
    pub fn pal_scaled() -> DeploySpec {
        DeploySpec::from_pal(&streamgate_core::PalSystemConfig::scaled_default())
    }

    /// A PAL deployment spec matching what
    /// [`streamgate_core::build_pal_system`] would wire for `cfg`.
    pub fn from_pal(cfg: &streamgate_core::PalSystemConfig) -> DeploySpec {
        let prob = cfg.sharing_problem();
        let cap_front = (cfg.etas[0] * 4).max(64);
        let cap_back = (cfg.etas[2] * 4).max(64);
        let caps_in = [cap_front, cap_front, cap_back * 2, cap_back * 2];
        // Front halves feed the back halves' input FIFOs; back halves feed
        // the audio FIFOs.
        let caps_out = [cap_back * 2, cap_back * 2, cap_back * 2, cap_back * 2];
        let streams = prob
            .streams
            .iter()
            .enumerate()
            .map(|(i, s)| StreamDeploy {
                name: s.name.clone(),
                mu: s.mu,
                eta_in: cfg.etas[i],
                eta_out: cfg.etas[i] / 8,
                reconfig: s.reconfig,
                input_capacity: caps_in[i],
                output_capacity: caps_out[i],
                max_latency: None,
            })
            .collect();
        // The front end must emit one baseband sample every clock/fs
        // cycles; it owns its tile (period = its own budget).
        let fe_interval = (cfg.clock_hz as f64 / cfg.pal.fs) as u64;
        DeploySpec {
            name: "pal-decoder".into(),
            chain: vec![
                ChainStage {
                    name: "CORDIC".into(),
                    rho: 1,
                },
                ChainStage {
                    name: "FIR+D".into(),
                    rho: 1,
                },
            ],
            epsilon: cfg.epsilon,
            delta: cfg.delta,
            ni_depth: 2,
            check_for_space: true,
            streams,
            processors: vec![
                ProcessorDeploy {
                    name: "FE".into(),
                    declared_period: Some(1),
                    tasks: vec![TaskDeploy {
                        name: "pal-front-end".into(),
                        budget: 1,
                        required_interval: Some(fe_interval.max(1)),
                    }],
                },
                ProcessorDeploy {
                    name: "consumer".into(),
                    declared_period: Some(1),
                    tasks: vec![TaskDeploy {
                        name: "stereo-matrix".into(),
                        budget: 1,
                        required_interval: None,
                    }],
                },
            ],
            gateways: vec![],
            config_bus_period: None,
            station_map: None,
            modes: vec![],
        }
    }

    /// The Fig. 10 evaluation deployment at the laptop scale of
    /// [`DeploySpec::pal_scaled`]: **two** gateway pairs on one shared ring
    /// — the front pair drives the CORDIC, the back pair the 8:1 FIR/LPF
    /// decimator — carrying the PAL decoder's four *logical* accelerator
    /// uses on two *physical* accelerators. Config-bus slots and per-stream
    /// latency budgets are set so rules A9/A10 have material to check; the
    /// deployment is feasible and must be accepted.
    pub fn pal2() -> DeploySpec {
        let cfg = streamgate_core::PalSystemConfig::scaled_default();
        let prob = cfg.sharing_problem();
        let stream = |i: usize, decimation: u64, max_latency: u64| StreamDeploy {
            name: prob.streams[i].name.clone(),
            mu: prob.streams[i].mu,
            eta_in: cfg.etas[i],
            eta_out: cfg.etas[i] / decimation,
            reconfig: cfg.reconfig,
            input_capacity: cfg.etas[i] * 4,
            output_capacity: (cfg.etas[i] / decimation * 4).max(64),
            max_latency: Some(max_latency),
        };
        DeploySpec {
            name: "pal2-decoder".into(),
            chain: vec![],
            epsilon: cfg.epsilon,
            delta: cfg.delta,
            ni_depth: 2,
            check_for_space: true,
            streams: vec![],
            processors: vec![
                ProcessorDeploy {
                    name: "FE".into(),
                    declared_period: Some(1),
                    tasks: vec![TaskDeploy {
                        name: "pal-front-end".into(),
                        budget: 1,
                        required_interval: Some(((cfg.clock_hz as f64 / cfg.pal.fs) as u64).max(1)),
                    }],
                },
                ProcessorDeploy {
                    name: "consumer".into(),
                    declared_period: Some(1),
                    tasks: vec![TaskDeploy {
                        name: "stereo-matrix".into(),
                        budget: 1,
                        required_interval: None,
                    }],
                },
            ],
            gateways: vec![
                GatewayDeploy {
                    name: "gw-front".into(),
                    chain: vec![ChainStage {
                        name: "CORDIC".into(),
                        rho: 1,
                    }],
                    shares_chain_with: None,
                    streams: vec![stream(0, 1, 60_000), stream(1, 1, 60_000)],
                    config_slot: Some((0, cfg.reconfig)),
                },
                GatewayDeploy {
                    name: "gw-back".into(),
                    chain: vec![ChainStage {
                        name: "FIR+D".into(),
                        rho: 1,
                    }],
                    shares_chain_with: None,
                    streams: vec![stream(2, 8, 40_000), stream(3, 8, 40_000)],
                    config_slot: Some((cfg.reconfig, cfg.reconfig)),
                },
            ],
            config_bus_period: Some(2 * cfg.reconfig),
            station_map: None,
            modes: vec![],
        }
    }

    /// The multi-mode declaration of `stream` on gateway `gateway`, when
    /// one exists.
    pub fn stream_modes(&self, gateway: usize, stream: &str) -> Option<&StreamModes> {
        self.modes
            .iter()
            .find(|m| m.gateway == gateway && m.stream == stream)
    }

    /// The **equivalent single-mode spec** of one declared mode: this spec
    /// with `stream`'s configuration on gateway `gateway` replaced by
    /// `config` (the stream keeps its name) and every multi-mode
    /// declaration dropped. Rule A11 requires each declared mode's
    /// candidate to independently pass A1–A10; by construction the
    /// candidate's report is exactly what a full analysis of this spec
    /// would produce. Returns `None` when the gateway or stream does not
    /// exist.
    pub fn single_mode_candidate(
        &self,
        gateway: usize,
        stream: &str,
        config: &StreamDeploy,
    ) -> Option<DeploySpec> {
        let mut s = self.clone();
        s.modes = Vec::new();
        let streams = if s.gateways.is_empty() {
            if gateway != 0 {
                return None;
            }
            &mut s.streams
        } else {
            &mut s.gateways.get_mut(gateway)?.streams
        };
        let i = streams.iter().position(|x| x.name == stream)?;
        let mut cfg = config.clone();
        cfg.name = stream.to_string();
        streams[i] = cfg;
        Some(s)
    }

    /// Build the cycle-level platform this spec describes — the simulation
    /// twin the differential tests validate analyzer verdicts against.
    /// Kernels realize each stream's rate conversion (see
    /// [`stream_kernels`]). Processor tiles are *not* built; validation
    /// harnesses pre-fill the input FIFOs instead.
    pub fn build_platform(&self) -> streamgate_core::BuiltSystem {
        use streamgate_core::{AccelDef, StreamDef, SystemSpec};
        let spec = SystemSpec {
            chain: self
                .chain
                .iter()
                .map(|c| AccelDef::new(c.name.clone(), c.rho))
                .collect(),
            epsilon: self.epsilon,
            delta: self.delta,
            ni_depth: self.ni_depth,
            streams: self
                .streams
                .iter()
                .map(|s| StreamDef {
                    name: s.name.clone(),
                    eta_in: s.eta_in as usize,
                    eta_out: s.eta_out as usize,
                    reconfig: s.reconfig,
                    kernels: stream_kernels(self.chain.len(), s.eta_in, s.eta_out),
                    input_capacity: s.input_capacity as usize,
                    output_capacity: s.output_capacity as usize,
                })
                .collect(),
        };
        let mut built = streamgate_core::build_shared_system(spec);
        built.system.gateways[built.gateway].check_for_space = self.check_for_space;
        built
    }

    /// Build the cycle-level platform of a **multi-gateway** spec on the
    /// [`DeploySpec::ring_layout`] placement: one accelerator tile set per
    /// owned chain, one [`streamgate_platform::GatewayPair`] per gateway
    /// (with `shared_chain` set on every pair of a multi-pair group), and
    /// rate-matched kernels per stream (see [`stream_kernels`]) — the
    /// simulation twin the differential tests validate system-scope
    /// verdicts against.
    ///
    /// Panics on single-gateway specs (use [`DeploySpec::build_platform`])
    /// and on structurally invalid gateway sections.
    pub fn build_multi_platform(&self) -> MultiBuiltSystem {
        use streamgate_platform::{AcceleratorTile, CFifo, GatewayPair, StreamConfig, System};
        assert!(
            self.is_multi(),
            "single-gateway specs build via build_platform"
        );
        assert!(
            self.gateway_structure_errors().is_empty(),
            "structurally invalid multi-gateway spec: {:?}",
            self.gateway_structure_errors()
        );
        let layout = self.ring_layout();
        let views = self.gateway_views();
        let mut sys = System::new(layout.nodes);
        // One tile set per owned chain, initially wired to the owner pair —
        // a shared group's first claim retargets the boundary links anyway.
        let mut accel_ids: Vec<Vec<streamgate_platform::AccelId>> = vec![Vec::new(); views.len()];
        for v in &views {
            if v.group != v.index {
                continue;
            }
            let nodes = &layout.chain_nodes[v.index];
            let k = v.chain.len();
            accel_ids[v.index] = (0..k)
                .map(|j| {
                    let (upstream, rx) = if j == 0 {
                        (layout.entries[v.index], layout.in_links[v.index])
                    } else {
                        (nodes[j - 1], layout.mid_links[v.index][j - 1])
                    };
                    let (downstream, tx) = if j + 1 == k {
                        (layout.exits[v.index], layout.out_links[v.index])
                    } else {
                        (nodes[j + 1], layout.mid_links[v.index][j])
                    };
                    sys.add_accel(AcceleratorTile::new(
                        format!("{}:{}", v.name, v.chain[j].name),
                        nodes[j],
                        upstream,
                        rx,
                        downstream,
                        tx,
                        self.ni_depth,
                        v.chain[j].rho,
                    ))
                })
                .collect();
        }
        let mut gateways = Vec::new();
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        for v in &views {
            let nodes = &layout.chain_nodes[v.index];
            let shared = views.iter().filter(|w| w.group == v.group).count() > 1;
            let mut gw = GatewayPair::new(
                v.name,
                layout.entries[v.index],
                layout.exits[v.index],
                accel_ids[v.group].clone(),
                nodes[0],
                layout.in_links[v.index],
                nodes[nodes.len() - 1],
                layout.out_links[v.index],
                self.ni_depth,
                self.epsilon,
                self.delta,
            );
            gw.shared_chain = shared;
            gw.check_for_space = self.check_for_space;
            let mut ins = Vec::new();
            let mut outs = Vec::new();
            for s in v.streams {
                let i = sys.add_fifo(CFifo::new(
                    format!("{}:{}:in", v.name, s.name),
                    s.input_capacity as usize,
                ));
                let o = sys.add_fifo(CFifo::new(
                    format!("{}:{}:out", v.name, s.name),
                    s.output_capacity as usize,
                ));
                gw.add_stream(StreamConfig::new(
                    s.name.clone(),
                    i,
                    o,
                    s.eta_in as usize,
                    s.eta_out as usize,
                    s.reconfig,
                    stream_kernels(v.chain.len(), s.eta_in, s.eta_out),
                ));
                ins.push(i);
                outs.push(o);
            }
            gateways.push(sys.add_gateway(gw));
            inputs.push(ins);
            outputs.push(outs);
        }
        MultiBuiltSystem {
            system: sys,
            gateways,
            inputs,
            outputs,
        }
    }
}

/// Kernels realizing a stream's `eta_in -> eta_out` rate conversion on a
/// `chain_len`-stage pipeline: passthrough stages, except the final stage
/// becomes a `eta_in/eta_out : 1` down-sampler when the stream decimates.
///
/// A 1:1 chain for a decimating stream would deadlock the platform: the
/// exit gateway stops copying after `eta_out` samples while the chain still
/// holds `eta_in - eta_out` more, so back-pressure wedges the entry DMA
/// with the block forever incomplete. The analyzer's rules assume the
/// chain *implements* the declared rates; the built twin must too.
///
/// Panics when a decimating stream's `eta_out` does not divide `eta_in`
/// (no integer down-sampling factor exists) or when `eta_out > eta_in`
/// (interpolation is not modelled).
pub fn stream_kernels(
    chain_len: usize,
    eta_in: u64,
    eta_out: u64,
) -> Vec<Box<dyn streamgate_platform::StreamKernel>> {
    use streamgate_platform::{DownsampleKernel, PassthroughKernel};
    assert!(
        eta_out > 0 && eta_out <= eta_in && eta_in.is_multiple_of(eta_out),
        "stream rates {eta_in} -> {eta_out} have no integer decimation factor"
    );
    let factor = (eta_in / eta_out) as usize;
    (0..chain_len)
        .map(|j| {
            if j + 1 == chain_len && factor > 1 {
                Box::new(DownsampleKernel::new(factor))
                    as Box<dyn streamgate_platform::StreamKernel>
            } else {
                Box::new(PassthroughKernel)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_json_roundtrip() {
        for spec in [
            DeploySpec::fig6(),
            DeploySpec::fig9(false),
            DeploySpec::pal_scaled(),
            DeploySpec::pal2(),
        ] {
            let text = spec.to_json_text();
            let back = DeploySpec::from_json_text(&text).unwrap();
            assert_eq!(back, spec);
            assert_eq!(back.to_json_text(), text);
        }
    }

    #[test]
    fn single_gateway_json_has_no_multi_keys() {
        // PR-3 consumers must keep seeing byte-identical documents.
        for spec in [DeploySpec::fig6(), DeploySpec::pal_scaled()] {
            let text = spec.to_json_text();
            for key in ["gateways", "config_bus_period", "max_latency", "modes"] {
                assert!(!text.contains(key), "legacy JSON grew a {key:?} key");
            }
        }
    }

    #[test]
    fn mode_declarations_roundtrip_and_candidate_substitutes() {
        let mut spec = DeploySpec::pal2();
        let mut fast = spec.gateways[0].streams[0].clone();
        fast.eta_in *= 2;
        fast.eta_out *= 2;
        let slow = spec.gateways[0].streams[0].clone();
        spec.modes = vec![StreamModes {
            gateway: 0,
            stream: slow.name.clone(),
            modes: vec![
                StreamMode {
                    name: "slow".into(),
                    config: slow.clone(),
                },
                StreamMode {
                    name: "fast".into(),
                    config: fast.clone(),
                },
            ],
            transitions: vec![("slow".into(), "fast".into())],
        }];
        let text = spec.to_json_text();
        let back = DeploySpec::from_json_text(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json_text(), text);

        let decl = spec.stream_modes(0, &slow.name).unwrap();
        assert!(decl.transition_allowed("slow", "fast"));
        assert!(!decl.transition_allowed("fast", "slow"));

        let cand = spec.single_mode_candidate(0, &slow.name, &fast).unwrap();
        assert!(cand.modes.is_empty());
        assert_eq!(cand.gateways[0].streams[0].eta_in, fast.eta_in);
        assert_eq!(cand.gateways[0].streams[0].name, slow.name);
        assert!(spec.single_mode_candidate(0, "nope", &fast).is_none());
    }

    #[test]
    fn gateway_views_cover_both_shapes() {
        let single = DeploySpec::fig6();
        let views = single.gateway_views();
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].group, 0);
        assert_eq!(views[0].streams.len(), 1);
        assert_eq!(views[0].c0(), 3);
        assert!(!single.is_multi());

        let multi = DeploySpec::pal2();
        assert!(multi.is_multi());
        assert!(multi.gateway_structure_errors().is_empty());
        let views = multi.gateway_views();
        assert_eq!(views.len(), 2);
        assert_eq!((views[0].group, views[1].group), (0, 1));
        assert_eq!(views[0].chain[0].name, "CORDIC");
        assert_eq!(views[1].chain[0].name, "FIR+D");
        assert_eq!(multi.all_streams().len(), 4);
        assert_eq!(multi.all_streams()[2].0, 1);
    }

    #[test]
    fn shared_group_resolves_to_owner_chain() {
        let mut spec = DeploySpec::pal2();
        spec.gateways[1].chain = vec![];
        spec.gateways[1].shares_chain_with = Some(0);
        assert!(spec.gateway_structure_errors().is_empty());
        let views = spec.gateway_views();
        assert_eq!(views[1].group, 0);
        assert_eq!(views[1].chain[0].name, "CORDIC");
        // Both pairs see the same physical stations.
        let layout = spec.ring_layout();
        assert_eq!(layout.chain_nodes[0], layout.chain_nodes[1]);

        // Dangling and forward references are reported, not resolved.
        spec.gateways[1].shares_chain_with = Some(5);
        assert!(!spec.gateway_structure_errors().is_empty());
    }

    /// pal2 with the two pairs' stations deliberately scrambled (and two
    /// spare forwarding stations), so paths wrap and cross differently
    /// from the interleaved default.
    fn pal2_mapped() -> DeploySpec {
        let mut spec = DeploySpec::pal2();
        spec.station_map = Some(StationMap {
            nodes: 8,
            entries: vec![5, 0],
            exits: vec![1, 3],
            chain_nodes: vec![vec![6], vec![2]],
        });
        spec
    }

    #[test]
    fn station_map_roundtrips_and_overrides_layout() {
        let spec = pal2_mapped();
        assert!(spec.gateway_structure_errors().is_empty());
        let text = spec.to_json_text();
        let back = DeploySpec::from_json_text(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json_text(), text);

        let layout = spec.ring_layout();
        assert_eq!(layout.nodes, 8);
        assert_eq!(layout.entries, vec![5, 0]);
        assert_eq!(layout.chain_nodes, vec![vec![6], vec![2]]);
        assert_eq!(layout.exits, vec![1, 3]);
        // Gateway 0's entry segment wraps 5 → 6; its exit segment 6 → 1
        // crosses the spare station 7 and both of gateway 1's end stations.
        assert_eq!(layout.segments(0), vec![(5, 6), (6, 1)]);
        assert_eq!(layout.data_hops(6, 1), vec![6, 7, 0]);
        // Link ids stay the placement-independent scheme.
        assert_eq!(layout.in_links, vec![0, 2]);
        assert_eq!(layout.out_links, vec![1, 3]);
    }

    #[test]
    fn station_map_defects_reported_not_built() {
        // Station reuse across pairs.
        let mut spec = pal2_mapped();
        spec.station_map.as_mut().unwrap().entries[1] = 5;
        assert!(!spec.gateway_structure_errors().is_empty());
        // An invalid map never silently half-applies: the layout falls
        // back to the interleaved placement.
        assert_eq!(spec.ring_layout(), DeploySpec::pal2().ring_layout());

        // Station outside the ring.
        let mut spec = pal2_mapped();
        spec.station_map.as_mut().unwrap().chain_nodes[0] = vec![8];
        assert!(!spec.gateway_structure_errors().is_empty());

        // Chain-station count must match the chain.
        let mut spec = pal2_mapped();
        spec.station_map.as_mut().unwrap().chain_nodes[1] = vec![2, 4];
        assert!(!spec.gateway_structure_errors().is_empty());

        // A sharer must alias the owner's chain stations.
        let mut spec = pal2_mapped();
        spec.gateways[1].chain = vec![];
        spec.gateways[1].shares_chain_with = Some(0);
        spec.station_map.as_mut().unwrap().chain_nodes = vec![vec![6], vec![2]];
        assert!(!spec.gateway_structure_errors().is_empty());
        spec.station_map.as_mut().unwrap().chain_nodes = vec![vec![6], vec![6]];
        assert!(spec.gateway_structure_errors().is_empty());
        let layout = spec.ring_layout();
        assert_eq!(layout.chain_nodes[0], layout.chain_nodes[1]);
    }

    #[test]
    fn station_mapped_platform_matches_interleaved_behaviour() {
        // The placement moves stations, not semantics: the same deployment
        // built on the scrambled map must move exactly the same samples.
        let run = |spec: &DeploySpec| {
            let mut built = spec.build_multi_platform();
            for (g, v) in spec.gateway_views().iter().enumerate() {
                for (s, st) in v.streams.iter().enumerate() {
                    for k in 0..st.eta_in {
                        let f = built.inputs[g][s];
                        built.system.fifos[f.0].try_push((k as f64, 0.0), 0);
                    }
                }
            }
            built.system.run(200_000);
            let popped: Vec<u64> = built
                .outputs
                .iter()
                .flatten()
                .map(|o| built.system.fifos[o.0].pushed)
                .collect();
            popped
        };
        assert_eq!(run(&DeploySpec::pal2()), run(&pal2_mapped()));
    }

    #[test]
    fn identity_station_map_is_fully_equivalent_to_fallback() {
        // A user map that spells out exactly the interleaved fallback
        // placement is *indistinguishable* from omitting the map: same
        // layout, byte-identical analyzer report, identical cycle-level
        // trace. (ROADMAP: interleaved fallback vs user map equivalence.)
        let plain = DeploySpec::pal2();
        let fallback = plain.ring_layout();
        let mut mapped = plain.clone();
        mapped.station_map = Some(StationMap {
            nodes: fallback.nodes,
            entries: fallback.entries.clone(),
            exits: fallback.exits.clone(),
            chain_nodes: fallback.chain_nodes.clone(),
        });
        assert!(mapped.gateway_structure_errors().is_empty());
        assert_eq!(mapped.ring_layout(), fallback);

        let opts = crate::rules::AnalysisOptions {
            exact_buffers: false,
        };
        let a = crate::rules::analyze_with(&plain, &opts);
        let b = crate::rules::analyze_with(&mapped, &opts);
        assert_eq!(a, b);
        assert_eq!(a.to_json_text(), b.to_json_text());

        let trace = |spec: &DeploySpec| {
            let mut built = spec.build_multi_platform();
            built.system.enable_tracing(0);
            for (g, v) in spec.gateway_views().iter().enumerate() {
                for (s, st) in v.streams.iter().enumerate() {
                    for k in 0..st.eta_in {
                        let f = built.inputs[g][s];
                        built.system.fifos[f.0].try_push((k as f64, 0.0), 0);
                    }
                }
            }
            built.system.run(200_000);
            built.system.tracer.events().to_vec()
        };
        assert_eq!(trace(&plain), trace(&mapped));
    }

    #[test]
    fn ring_layout_interleaves_and_tracks_paths() {
        let layout = DeploySpec::pal2().ring_layout();
        // entries 0..2, accels 2..4, exits 4..6.
        assert_eq!(layout.nodes, 6);
        assert_eq!(layout.entries, vec![0, 1]);
        assert_eq!(layout.chain_nodes, vec![vec![2], vec![3]]);
        assert_eq!(layout.exits, vec![4, 5]);
        assert_eq!(layout.segments(0), vec![(0, 2), (2, 4)]);
        assert_eq!(layout.segments(1), vec![(1, 3), (3, 5)]);
        // Interleaving makes the two pairs' data paths overlap (hop 1).
        assert_eq!(layout.data_hops(0, 2), vec![0, 1]);
        assert_eq!(layout.data_hops(1, 3), vec![1, 2]);
        // Credits cross the same stations in the opposite rotation.
        assert_eq!(layout.credit_hops(0, 2), vec![2, 1]);
    }

    #[test]
    fn build_multi_platform_wires_pal2() {
        let spec = DeploySpec::pal2();
        let built = spec.build_multi_platform();
        assert_eq!(built.gateways.len(), 2);
        assert_eq!(built.system.accels.len(), 2);
        for (g, v) in spec.gateway_views().iter().enumerate() {
            let gw = &built.system.gateways[built.gateways[g]];
            // Own chains, no sharing: the claim/release protocol stays off.
            assert!(!gw.shared_chain);
            assert_eq!(gw.num_streams(), v.streams.len());
            for (s, sd) in v.streams.iter().enumerate() {
                let sc = gw.stream(s);
                assert_eq!(sc.eta_in as u64, sd.eta_in);
                assert_eq!(sc.eta_out as u64, sd.eta_out);
                assert_eq!(sc.reconfig_cycles, sd.reconfig);
                assert_eq!(
                    built.system.fifos[built.inputs[g][s].0].capacity() as u64,
                    sd.input_capacity
                );
            }
        }
    }

    #[test]
    fn to_deploy_spec_round_trips_through_platform() {
        use super::ToDeploySpec;
        let cfg = streamgate_core::PalSystemConfig::scaled_default();
        let spec = cfg.to_deploy_spec();
        let built = spec.build_platform();
        let gw = &built.system.gateways[built.gateway];
        // spec → platform: every wired quantity matches the exported spec.
        assert_eq!(built.system.accels.len(), spec.chain.len());
        assert_eq!(gw.num_streams(), spec.streams.len());
        for (i, sd) in spec.streams.iter().enumerate() {
            let sc = gw.stream(i);
            assert_eq!(sc.eta_in as u64, sd.eta_in);
            assert_eq!(sc.eta_out as u64, sd.eta_out);
            assert_eq!(sc.reconfig_cycles, sd.reconfig);
            assert_eq!(
                built.system.fifos[sc.input.0].capacity() as u64,
                sd.input_capacity
            );
            assert_eq!(
                built.system.fifos[sc.output.0].capacity() as u64,
                sd.output_capacity
            );
        }
        // platform → spec: re-exporting yields the same document.
        assert_eq!(cfg.to_deploy_spec(), spec);
        assert_eq!(
            DeploySpec::from_json_text(&spec.to_json_text()).unwrap(),
            spec
        );
    }

    #[test]
    fn pal_spec_matches_sharing_problem() {
        let cfg = streamgate_core::PalSystemConfig::scaled_default();
        let spec = DeploySpec::from_pal(&cfg);
        let prob = spec.sharing_problem();
        let reference = cfg.sharing_problem();
        assert_eq!(prob.params, reference.params);
        assert_eq!(prob.streams.len(), 4);
        for (a, b) in prob.streams.iter().zip(&reference.streams) {
            assert_eq!(a.mu, b.mu);
            assert_eq!(a.reconfig, b.reconfig);
        }
        assert_eq!(spec.etas(), cfg.etas.to_vec());
    }

    #[test]
    fn c0_is_chain_maximum() {
        let mut s = DeploySpec::fig6();
        assert_eq!(s.c0(), 3);
        s.chain.push(ChainStage {
            name: "slow".into(),
            rho: 9,
        });
        assert_eq!(s.c0(), 9);
        assert_eq!(s.rho_a(), 9);
    }

    #[test]
    fn build_platform_wires_streams_and_space_check() {
        let mut spec = DeploySpec::fig9(false);
        spec.streams[1].output_capacity = 64; // buildable but still unchecked
        let built = spec.build_platform();
        assert!(!built.system.gateways[built.gateway].check_for_space);
        assert_eq!(built.inputs.len(), 2);
        assert_eq!(built.system.accels.len(), 1);
    }
}
