//! Trace-derived run profiles: empirical arrival/service curves, τ
//! distributions, round samples, stall histograms and buffer high-water
//! marks, folded from one profiled simulation run.
//!
//! The static analyzer reasons in *bounds* (τ̂ of Eq. 2, γ of Eq. 3–4, the
//! A7 ring-contention envelope); this module measures what the simulator
//! *actually did*, in the same vocabulary network calculus uses:
//!
//! * an **empirical arrival curve** of an event source is, per window size
//!   `w`, the maximum (and minimum) number of events observed in any
//!   sliding window of `w` cycles — computed over a log-spaced set of
//!   window sizes ([`log_windows`]) so curves stay small at any run length;
//! * per data-/credit-ring **hop**, the curve of flits crossing that hop
//!   (the crossing cycles the ring logged per hop — see
//!   [`crate::profile::collect_profile`]);
//! * per **stream**, the observed τ distribution, a block-completion
//!   service curve, and the input C-FIFO's push arrival curve;
//! * per **gateway**, round-time samples (Eq. 4's measured side) and
//!   per-cause stall-window histograms;
//! * per **C-FIFO**, capacity and high-water mark.
//!
//! Everything aggregates into a [`RunProfile`] with a deterministic JSON
//! encoding ([`RunProfile::to_json_text`]) — byte-identical for identical
//! runs, and identical between the `Exhaustive` and `EventDriven` engines
//! up to the `mode` field, because every profiled source is append-only at
//! sites the event-driven engine's skips never touch.
//!
//! [`parse_profile`] reads that JSON back, beside its writer; the analyzer
//! (`streamgate-analysis`) feeds the parsed measurements into rules A7/A10.

use crate::metrics::fold_system;
use streamgate_platform::json::{self, Json};
use streamgate_platform::{StallCause, System};

/// Round-time samples kept per gateway (the count and maximum are always
/// exact; past this many entries the sample list becomes a uniform
/// reservoir over the whole run — see [`reservoir_sample`] — so profiles
/// of long runs stay small without biasing toward the warm-up rounds).
pub const MAX_ROUND_SAMPLES: usize = 4096;

/// Deterministic uniform reservoir of at most `k` values (Vitter's
/// Algorithm R over a fixed-seed splitmix64 stream). With `n ≤ k` the
/// input is returned verbatim; past that every element of the stream has
/// equal probability `k/n` of being retained. The random stream depends
/// only on `seed`, so identical inputs — e.g. the same round-time list
/// measured by the exhaustive and the event-driven engine — always yield
/// the identical sample set.
pub fn reservoir_sample(values: Vec<u64>, k: usize, seed: u64) -> Vec<u64> {
    if values.len() <= k {
        return values;
    }
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = || -> u64 {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut res: Vec<u64> = values[..k].to_vec();
    for (i, &v) in values.iter().enumerate().skip(k) {
        let j = (next() % (i as u64 + 1)) as usize;
        if j < k {
            res[j] = v;
        }
    }
    res
}

/// Curve over a possibly window-bounded event trace, sorted first if it
/// arrived out of order. With nothing dropped this is the exact curve over
/// the whole observation; when the source shed its oldest entries the
/// curve covers the retained trailing window (shifted to its own origin) —
/// max counts stay exact over that window and never over-report, which
/// keeps the analyzer's dominance checks (predicted envelope ≥ measured)
/// sound.
fn windowed_curve(events: &[u64], dropped: u64, span: u64, windows: &[u64]) -> EmpiricalCurve {
    if dropped == 0 && events.is_sorted() {
        return EmpiricalCurve::from_events(events, span, windows);
    }
    let mut events = events.to_vec();
    events.sort_unstable();
    let origin = match dropped {
        0 => 0,
        _ => events.first().copied().unwrap_or(span),
    };
    events.iter_mut().for_each(|e| *e -= origin);
    EmpiricalCurve::from_events(&events, span.saturating_sub(origin).max(1), windows)
}

/// The log-spaced window sizes used for empirical curves over an
/// observation interval of `len` cycles: powers of two `1, 2, 4, …` below
/// `len`, plus `len` itself (so the last entry always covers the whole
/// run and the curve's last max count is the total event count).
pub fn log_windows(len: u64) -> Vec<u64> {
    let len = len.max(1);
    let mut v = Vec::new();
    let mut w = 1u64;
    while w < len {
        v.push(w);
        w = w.saturating_mul(2);
    }
    v.push(len);
    v
}

/// Counts per power-of-two bucket: bucket `b` counts values `v` with
/// `floor(log2(max(v, 1))) == b` (so 0 and 1 share bucket 0). Trailing
/// empty buckets are trimmed.
pub fn log2_histogram(values: impl IntoIterator<Item = u64>) -> Vec<u64> {
    let mut hist: Vec<u64> = Vec::new();
    for v in values {
        let b = v.max(1).ilog2() as usize;
        if hist.len() <= b {
            hist.resize(b + 1, 0);
        }
        hist[b] += 1;
    }
    hist
}

/// An empirical arrival/service curve: for each window size `windows[i]`,
/// the maximum ([`EmpiricalCurve::max_count`]) and minimum
/// ([`EmpiricalCurve::min_count`]) number of events falling in any sliding
/// window of that many cycles. Max counts are taken over *all* window
/// placements (equivalently, windows anchored at an event — where the
/// maximum is attained); min counts only over windows fully inside the
/// observation interval, since a truncated window would report a
/// spuriously low count. Both are non-decreasing in the window size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EmpiricalCurve {
    /// Window sizes, cycles (shared across a profile; see [`log_windows`]).
    pub windows: Vec<u64>,
    /// Max events in any window of the matching size.
    pub max_count: Vec<u64>,
    /// Min events in any fully-contained window of the matching size.
    pub min_count: Vec<u64>,
}

impl EmpiricalCurve {
    /// Fold a sorted event-timestamp list observed over the cycles
    /// `[0, len)` into a curve over the given window sizes.
    ///
    /// Windows are half-open: a window of size `w` starting at `t` counts
    /// events with timestamps in `[t, t + w)`.
    pub fn from_events(events: &[u64], len: u64, windows: &[u64]) -> EmpiricalCurve {
        debug_assert!(events.is_sorted(), "events not sorted");
        let len = len.max(1);
        let n = events.len();
        // Where a minimal window can start: 0, or one past an event (the
        // count over [t, t+w) only *decreases* as t passes an event).
        let starts = || std::iter::once(0).chain(events.iter().map(|&e| e + 1));
        // The longest event-free stretch inside `[0, len)`: a fully
        // contained window no longer than it holds no event.
        let ends = events.iter().chain([&len]);
        let gaps = starts().zip(ends).map(|(t, &e)| e.saturating_sub(t));
        let gap = gaps.max().unwrap_or(0);
        let mut max_count = Vec::with_capacity(windows.len());
        let mut min_count = Vec::with_capacity(windows.len());
        for &w in windows {
            // Max: slide a window anchored at each event (two-pointer).
            let (mut max, mut hi) = (0, 0);
            for (i, &e) in events.iter().enumerate() {
                while hi < n && events[hi] < e.saturating_add(w) {
                    hi += 1;
                }
                max = max.max(hi - i);
            }
            max_count.push(max as u64);
            // Min: probe the starts in ascending order (two-pointer). The
            // i-th has at least i events before it, exactly i at the last of
            // equal events, so `hi - i` counts its window or over-counts.
            let min = if w >= len {
                n
            } else if w <= gap {
                0
            } else {
                let (mut min, mut hi) = (n, 0);
                for (i, t) in starts().take_while(|&t| t <= len - w).enumerate() {
                    while hi < n && events[hi] < t + w {
                        hi += 1;
                    }
                    min = min.min(hi - i);
                }
                min
            };
            min_count.push(min as u64);
        }
        EmpiricalCurve {
            windows: windows.to_vec(),
            max_count,
            min_count,
        }
    }

    /// Max count at the largest window ≤ the whole observation (the total
    /// event count when built by [`EmpiricalCurve::from_events`]).
    pub fn total(&self) -> u64 {
        self.max_count.last().copied().unwrap_or(0)
    }
}

/// Measured flit traffic over one ring hop (data or credit direction).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HopProfile {
    /// Hop index: data hop `i` is the edge station `i → i+1` (mod nodes);
    /// credit hop `i` is the edge `i → i−1`.
    pub hop: usize,
    /// Flits that crossed the hop: its crossings the delivery log retained
    /// (every one unless the run outgrew the log's per-hop bound).
    pub flits: u64,
    /// Empirical arrival curve of hop crossings.
    pub curve: EmpiricalCurve,
}

/// Measured push traffic into a stream's input C-FIFO.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrivalProfile {
    /// Total samples pushed.
    pub samples: u64,
    /// High-water occupancy of the FIFO.
    pub max_fill: usize,
    /// Empirical arrival curve of pushes.
    pub curve: EmpiricalCurve,
}

/// Measured behaviour of one stream (Eq. 2's observable side).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamProfile {
    /// Gateway index in the system.
    pub gateway: usize,
    /// Stream index within the gateway.
    pub stream: usize,
    /// Gateway diagnostic name.
    pub gateway_name: String,
    /// Stream diagnostic name.
    pub name: String,
    /// Completed blocks.
    pub blocks: u64,
    /// Minimum observed block time τ (0 when no block completed).
    pub tau_min: u64,
    /// Maximum observed block time τ.
    pub tau_max: u64,
    /// Sum of observed block times (mean = `tau_sum / blocks`).
    pub tau_sum: u64,
    /// τ distribution as a power-of-two histogram ([`log2_histogram`]).
    pub tau_hist: Vec<u64>,
    /// Service curve of block completions (drain-end cycles).
    pub completions: EmpiricalCurve,
    /// Input-FIFO arrival profile (present when the FIFO was traced).
    pub arrival: Option<ArrivalProfile>,
}

/// Stall-window statistics for one cause at one gateway.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StallProfile {
    /// Stable cause name (`StallCause::name`).
    pub cause: String,
    /// Number of maximal stall windows.
    pub windows: u64,
    /// Total stalled cycles (includes a window still open at run end).
    pub cycles: u64,
    /// Window-length distribution ([`log2_histogram`]).
    pub hist: Vec<u64>,
}

/// Measured behaviour of one gateway pair (Eq. 3–4's observable side).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GatewayProfile {
    /// Gateway index in the system.
    pub gateway: usize,
    /// Diagnostic name.
    pub name: String,
    /// Total measured rounds (windows of one block per stream).
    pub round_count: u64,
    /// Maximum measured round time (0 when no full round completed).
    pub round_max: u64,
    /// Round-time samples: verbatim up to [`MAX_ROUND_SAMPLES`], a
    /// deterministic uniform reservoir over the whole run past that.
    pub rounds: Vec<u64>,
    /// Per-cause stall statistics, in [`StallCause::ALL`] order.
    pub stalls: Vec<StallProfile>,
}

/// Capacity margin of one C-FIFO.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FifoProfile {
    /// FIFO index in the system.
    pub index: usize,
    /// Diagnostic name.
    pub name: String,
    /// Capacity in samples.
    pub capacity: usize,
    /// High-water occupancy.
    pub high_water: usize,
}

/// Everything measured in one profiled run, serializable as deterministic
/// JSON. Collect with [`collect_profile`] after a run on a system that had
/// `System::enable_profiling` on from the start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunProfile {
    /// Deployment name (matched against the analyzed spec).
    pub deployment: String,
    /// Engine that produced the run (`exhaustive` / `event`) — the only
    /// field that may differ between the two cycle-exact engines.
    pub mode: String,
    /// Cycles simulated.
    pub cycles: u64,
    /// Ring stations (hop indexing context for the hop profiles).
    pub ring_nodes: usize,
    /// Shared window sizes of every curve in the profile.
    pub windows: Vec<u64>,
    /// Per-hop data-ring traffic, one entry per station.
    pub data_hops: Vec<HopProfile>,
    /// Per-hop credit-ring traffic, one entry per station.
    pub credit_hops: Vec<HopProfile>,
    /// Per-stream measurements, gateway-then-stream order.
    pub streams: Vec<StreamProfile>,
    /// Per-gateway measurements.
    pub gateways: Vec<GatewayProfile>,
    /// Per-FIFO capacity margins.
    pub fifos: Vec<FifoProfile>,
}

/// Fold a finished profiled run into a [`RunProfile`].
///
/// Closes open trace windows (`System::finish_trace`) and folds each hop's
/// crossing cycles, as the ring's delivery log keeps them, into its curve.
/// A list that arrived out of order (a multi-hop flit logs its crossings
/// when it ejects) is sorted first, so commit order never reaches the
/// profile.
///
/// # Panics
///
/// Panics when the system was not profiled (no tracer or no ring delivery
/// log): the profile would silently be empty, which always indicates a
/// harness that forgot `System::enable_profiling`.
pub fn collect_profile(system: &mut System, deployment: &str) -> RunProfile {
    assert!(
        system.tracer.is_enabled() && system.ring.delivery_log().is_some(),
        "collect_profile needs a profiled run — call System::enable_profiling before running"
    );
    system.finish_trace();
    // Observable cycles are 0..=cycles (pushes at construction time land at
    // cycle 0; the ring's last delivery lands at the final cycle value).
    let span = system.cycle() + 1;
    let windows = log_windows(span);
    let n = system.ring.num_nodes();

    let log = system.ring.delivery_log().unwrap();
    let hop_profiles = |hops: &[Vec<u64>], dropped: u64| -> Vec<HopProfile> {
        let hops = hops.iter().enumerate();
        let curve = |cycles| windowed_curve(cycles, dropped, span, &windows);
        hops.map(|(hop, cycles)| HopProfile {
            hop,
            flits: cycles.len() as u64,
            curve: curve(cycles),
        })
        .collect()
    };
    let data_hops = hop_profiles(&log.data.hops, log.data_dropped);
    let credit_hops = hop_profiles(&log.credit.hops, log.credit_dropped);

    let mut streams = Vec::new();
    let mut gateways = Vec::new();
    for m in fold_system(system) {
        let g = m.gateway;
        let gw = &system.gateways[g];
        let nst = gw.num_streams();
        let mut completions = vec![Vec::new(); nst];
        for b in &m.blocks {
            if let Some(c) = completions.get_mut(b.stream) {
                c.push(b.drain_end);
            }
        }
        for (s, completions) in completions.iter().enumerate() {
            let cfg = gw.stream(s);
            let sm = &m.streams[s];
            let fifo = &system.fifos[cfg.input.0];
            let arrival = fifo.trace_enabled().then(|| ArrivalProfile {
                samples: fifo.trace().len() as u64 + fifo.trace_dropped(),
                max_fill: fifo.high_water(),
                curve: windowed_curve(fifo.trace(), fifo.trace_dropped(), span, &windows),
            });
            streams.push(StreamProfile {
                gateway: g,
                stream: s,
                gateway_name: gw.name.clone(),
                name: cfg.name.clone(),
                blocks: sm.blocks() as u64,
                tau_min: sm.tau_min(),
                tau_max: sm.tau_max(),
                tau_sum: sm.taus.iter().sum(),
                tau_hist: log2_histogram(sm.taus.iter().copied()),
                completions: EmpiricalCurve::from_events(completions, span, &windows),
                arrival,
            });
        }
        let rounds_all = m.round_times();
        let stalls = StallCause::ALL
            .iter()
            .map(|&cause| {
                let windows = m.windows(cause);
                StallProfile {
                    cause: cause.name().to_string(),
                    windows: windows.len() as u64,
                    cycles: m.stall_cycles(cause),
                    hist: log2_histogram(windows.iter().map(|&(s, e)| e - s + 1)),
                }
            })
            .collect();
        gateways.push(GatewayProfile {
            gateway: g,
            name: gw.name.clone(),
            round_count: rounds_all.len() as u64,
            round_max: rounds_all.iter().copied().max().unwrap_or(0),
            rounds: reservoir_sample(rounds_all, MAX_ROUND_SAMPLES, g as u64),
            stalls,
        });
    }

    let fifos = system
        .fifos
        .iter()
        .enumerate()
        .map(|(i, f)| FifoProfile {
            index: i,
            name: f.name.clone(),
            capacity: f.capacity(),
            high_water: f.high_water(),
        })
        .collect();

    RunProfile {
        deployment: deployment.to_string(),
        mode: system.step_mode.name().to_string(),
        cycles: system.cycle(),
        ring_nodes: n,
        windows,
        data_hops,
        credit_hops,
        streams,
        gateways,
        fifos,
    }
}

// ---------------------------------------------------------------------------
// JSON encoding and parsing (through `streamgate_platform::json`).
// ---------------------------------------------------------------------------

/// Schema version stamped into every serialized observability artifact
/// (`RunProfile` JSON, blame reports, postmortem dumps) and deployment
/// spec so cross-PR CI artifacts stay comparable: consumers accept a
/// matching version and warn (rather than fail) on mismatch.
pub const SCHEMA_VERSION: u64 = 1;

/// A curve's count arrays. The window sizes are shared profile-wide and
/// not repeated per curve.
fn curve_json(c: &EmpiricalCurve) -> [(&'static str, Json); 2] {
    [
        ("max", c.max_count.as_slice().into()),
        ("min", c.min_count.as_slice().into()),
    ]
}

impl RunProfile {
    /// The profile as a JSON tree: stable key order, no floats.
    pub fn to_json(&self) -> Json {
        let hops = |hs: &[HopProfile]| {
            Json::Array(
                hs.iter()
                    .map(|h| {
                        let head = [("hop", h.hop.into()), ("flits", h.flits.into())];
                        Json::obj(head.into_iter().chain(curve_json(&h.curve)))
                    })
                    .collect(),
            )
        };
        let stream = |s: &StreamProfile| {
            let arrival = s.arrival.as_ref().map(|a| {
                let head = [
                    ("samples", a.samples.into()),
                    ("max_fill", a.max_fill.into()),
                ];
                Json::obj(head.into_iter().chain(curve_json(&a.curve)))
            });
            Json::obj([
                ("gateway", s.gateway.into()),
                ("stream", s.stream.into()),
                ("gateway_name", s.gateway_name.clone().into()),
                ("name", s.name.clone().into()),
                ("blocks", s.blocks.into()),
                ("tau_min", s.tau_min.into()),
                ("tau_max", s.tau_max.into()),
                ("tau_sum", s.tau_sum.into()),
                ("tau_hist", s.tau_hist.as_slice().into()),
                ("completions", Json::obj(curve_json(&s.completions))),
                ("arrival", arrival.into()),
            ])
        };
        let stall = |st: &StallProfile| {
            Json::obj([
                ("cause", st.cause.clone().into()),
                ("windows", st.windows.into()),
                ("cycles", st.cycles.into()),
                ("hist", st.hist.as_slice().into()),
            ])
        };
        let gateway = |g: &GatewayProfile| {
            Json::obj([
                ("gateway", g.gateway.into()),
                ("name", g.name.clone().into()),
                ("round_count", g.round_count.into()),
                ("round_max", g.round_max.into()),
                ("rounds", g.rounds.as_slice().into()),
                ("stalls", g.stalls.iter().map(stall).collect()),
            ])
        };
        let fifo = |f: &FifoProfile| {
            Json::obj([
                ("index", f.index.into()),
                ("name", f.name.clone().into()),
                ("capacity", f.capacity.into()),
                ("high_water", f.high_water.into()),
            ])
        };
        Json::obj([
            ("schema_version", SCHEMA_VERSION.into()),
            ("deployment", self.deployment.clone().into()),
            ("mode", self.mode.clone().into()),
            ("cycles", self.cycles.into()),
            ("ring_nodes", self.ring_nodes.into()),
            ("windows", self.windows.as_slice().into()),
            ("data_hops", hops(&self.data_hops)),
            ("credit_hops", hops(&self.credit_hops)),
            ("streams", self.streams.iter().map(stream).collect()),
            ("gateways", self.gateways.iter().map(gateway).collect()),
            ("fifos", self.fifos.iter().map(fifo).collect()),
        ])
    }

    /// Render as compact JSON text (see [`RunProfile::to_json`]).
    pub fn to_json_text(&self) -> String {
        self.to_json().to_text()
    }
}

/// Parse a [`RunProfile`] from the JSON [`RunProfile::to_json_text`]
/// emits. A window list that is not strictly increasing from 1 to
/// `cycles + 1`, or a curve with a min count above its max, is an error.
pub fn parse_profile(text: &str) -> Result<RunProfile, String> {
    let v = json::parse(text)?;
    // Accept-or-warn on the artifact schema version: cross-PR CI compares
    // artifacts from adjacent revisions, so a version skew must not make
    // the comparison impossible — it just stops being authoritative.
    match v.at::<u64>("schema_version") {
        None => eprintln!(
            "warning: profile carries no schema_version (pre-v{SCHEMA_VERSION} artifact); \
             parsing best-effort"
        ),
        Some(sv) if sv != SCHEMA_VERSION => eprintln!(
            "warning: profile schema_version {sv} != supported {SCHEMA_VERSION}; \
             parsing best-effort"
        ),
        Some(_) => {}
    }
    profile_from_json(&v).map_err(|e| format!("profile: {e}"))
}

fn profile_from_json(v: &Json) -> Result<RunProfile, String> {
    let cycles: u64 = v.req("cycles")?;
    let windows: Vec<u64> = v.req("windows")?;
    // The shape `log_windows(cycles + 1)` emits; anything else would feed
    // the analyzer's envelope windows the run never observed.
    if windows.first() != Some(&1)
        || windows.last().copied() != cycles.checked_add(1)
        || windows.windows(2).any(|p| p[0] >= p[1])
    {
        return Err(format!(
            "`windows` must rise strictly from 1 to cycles + 1 ({cycles} + 1)"
        ));
    }
    let curve = |c: &Json| -> Result<EmpiricalCurve, String> {
        let max_count: Vec<u64> = c.req("max")?;
        let min_count: Vec<u64> = c.req("min")?;
        if max_count.len() != windows.len() || min_count.len() != windows.len() {
            return Err("curve length does not match the window list".into());
        }
        if let Some(i) = (0..windows.len()).find(|&i| min_count[i] > max_count[i]) {
            return Err(format!(
                "curve min {} exceeds max {} at window {}",
                min_count[i], max_count[i], windows[i]
            ));
        }
        Ok(EmpiricalCurve {
            windows: windows.clone(),
            max_count,
            min_count,
        })
    };
    let hop = |h: &Json| {
        Ok(HopProfile {
            hop: h.req("hop")?,
            flits: h.req("flits")?,
            curve: curve(h)?,
        })
    };
    let stream = |s: &Json| {
        let arrival = match s.req::<&Json>("arrival")? {
            Json::Null => None,
            a => Some(ArrivalProfile {
                samples: a.req("samples")?,
                max_fill: a.req("max_fill")?,
                curve: curve(a)?,
            }),
        };
        Ok(StreamProfile {
            gateway: s.req("gateway")?,
            stream: s.req("stream")?,
            gateway_name: s.req("gateway_name")?,
            name: s.req("name")?,
            blocks: s.req("blocks")?,
            tau_min: s.req("tau_min")?,
            tau_max: s.req("tau_max")?,
            tau_sum: s.req("tau_sum")?,
            tau_hist: s.req("tau_hist")?,
            completions: curve(s.req("completions")?)?,
            arrival,
        })
    };
    let stall = |st: &Json| {
        Ok(StallProfile {
            cause: st.req("cause")?,
            windows: st.req("windows")?,
            cycles: st.req("cycles")?,
            hist: st.req("hist")?,
        })
    };
    let gateway = |g: &Json| {
        Ok(GatewayProfile {
            gateway: g.req("gateway")?,
            name: g.req("name")?,
            round_count: g.req("round_count")?,
            round_max: g.req("round_max")?,
            rounds: g.req("rounds")?,
            stalls: g.items("stalls", stall)?,
        })
    };
    let fifo = |f: &Json| {
        Ok(FifoProfile {
            index: f.req("index")?,
            name: f.req("name")?,
            capacity: f.req("capacity")?,
            high_water: f.req("high_water")?,
        })
    };
    Ok(RunProfile {
        deployment: v.req("deployment")?,
        mode: v.req("mode")?,
        cycles,
        ring_nodes: v.req("ring_nodes")?,
        data_hops: v.items("data_hops", hop)?,
        credit_hops: v.items("credit_hops", hop)?,
        streams: v.items("streams", stream)?,
        gateways: v.items("gateways", gateway)?,
        fifos: v.items("fifos", fifo)?,
        windows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{build_shared_system, AccelDef, StreamDef, SystemSpec};
    use streamgate_platform::PassthroughKernel;

    #[test]
    fn log_windows_cover_span() {
        assert_eq!(log_windows(1), vec![1]);
        assert_eq!(log_windows(8), vec![1, 2, 4, 8]);
        assert_eq!(log_windows(10), vec![1, 2, 4, 8, 10]);
        assert_eq!(log_windows(0), vec![1]);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        assert_eq!(log2_histogram([0, 1, 1, 2, 3, 4, 7, 8]), vec![3, 2, 2, 1]);
        assert_eq!(log2_histogram([]), Vec::<u64>::new());
    }

    #[test]
    fn curve_counts_hand_example() {
        // Events at 0, 1, 2, 10 over the cycles [0, 11).
        let c = EmpiricalCurve::from_events(&[0, 1, 2, 10], 11, &[1, 2, 4, 8, 11]);
        assert_eq!(c.max_count, vec![1, 2, 3, 3, 4]);
        // w=1: windows like [3,4) are empty; w=8: the emptiest full window
        // is [3,11), holding only event 10; w=11: the single full window
        // holds everything.
        assert_eq!(c.min_count, vec![0, 0, 0, 1, 4]);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn curve_monotone_and_subadditive() {
        let events = [3, 4, 5, 9, 21, 22, 40, 41, 42, 43, 90];
        let windows = log_windows(100);
        let c = EmpiricalCurve::from_events(&events, 100, &windows);
        for i in 1..windows.len() {
            assert!(c.max_count[i] >= c.max_count[i - 1], "max not monotone");
            assert!(c.min_count[i] >= c.min_count[i - 1], "min not monotone");
        }
        // Adjacent log-spaced entries double the window: max(2w) ≤ 2·max(w).
        for i in 1..windows.len() {
            if windows[i] == 2 * windows[i - 1] {
                assert!(c.max_count[i] <= 2 * c.max_count[i - 1], "not subadditive");
            }
        }
    }

    #[test]
    fn collect_profile_end_to_end() {
        let spec = SystemSpec {
            chain: vec![AccelDef::new("A", 2)],
            epsilon: 2,
            delta: 1,
            ni_depth: 2,
            streams: vec![StreamDef {
                name: "s0".into(),
                eta_in: 8,
                eta_out: 8,
                reconfig: 10,
                kernels: vec![Box::new(PassthroughKernel)],
                input_capacity: 64,
                output_capacity: 64,
            }],
        };
        let mut b = build_shared_system(spec);
        b.system.enable_profiling(0);
        for k in 0..32 {
            b.push_input(0, (k as f64, 0.0));
        }
        b.system.run(4000);
        let p = collect_profile(&mut b.system, "unit");
        assert_eq!(p.deployment, "unit");
        assert_eq!(p.ring_nodes, 3);
        assert_eq!(p.data_hops.len(), 3);
        assert_eq!(p.credit_hops.len(), 3);
        assert_eq!(p.streams.len(), 1);
        let s = &p.streams[0];
        assert!(s.blocks >= 3, "blocks {}", s.blocks);
        assert!(s.tau_max >= s.tau_min && s.tau_min > 0);
        let a = s.arrival.as_ref().expect("input fifo traced");
        assert_eq!(a.samples, 32);
        // Data flits crossed every hop of the 3-node loop (entry→accel→exit
        // wraps nothing, but credits travel the other way over the rest).
        assert!(p.data_hops.iter().any(|h| h.flits > 0));
        assert!(p.credit_hops.iter().any(|h| h.flits > 0));
        // Hop totals equal the curve totals.
        for h in p.data_hops.iter().chain(&p.credit_hops) {
            assert_eq!(h.flits, h.curve.total());
        }
        // JSON round stability: same run → same text.
        let t1 = p.to_json_text();
        assert!(t1.contains("\"deployment\":\"unit\""));
        assert!(t1.contains("\"data_hops\""));
        assert_eq!(t1, p.clone().to_json_text());
    }

    #[test]
    #[should_panic(expected = "enable_profiling")]
    fn unprofiled_system_rejected() {
        let mut sys = System::new(3);
        sys.enable_tracing(0); // tracing alone is not profiling
        let _ = collect_profile(&mut sys, "x");
    }

    #[test]
    fn reservoir_passes_small_inputs_through() {
        let v = vec![5, 9, 1];
        assert_eq!(reservoir_sample(v.clone(), 4096, 0), v);
        assert_eq!(reservoir_sample(v.clone(), 3, 7), v);
        assert_eq!(reservoir_sample(Vec::new(), 16, 0), Vec::<u64>::new());
    }

    #[test]
    fn reservoir_is_deterministic_and_uniform_ish() {
        let input: Vec<u64> = (0..100_000).collect();
        let a = reservoir_sample(input.clone(), 4096, 1);
        let b = reservoir_sample(input.clone(), 4096, 1);
        assert_eq!(a, b, "same seed, same input, same reservoir");
        assert_eq!(a.len(), 4096);
        // A different seed picks a different sample set.
        let c = reservoir_sample(input.clone(), 4096, 2);
        assert_ne!(a, c);
        // Uniformity sanity: the mean of a uniform sample of 0..100_000
        // is ~50_000; a first-4096 truncation would give ~2_048.
        let mean = a.iter().sum::<u64>() / a.len() as u64;
        assert!(
            (25_000..75_000).contains(&mean),
            "reservoir mean {mean} is not remotely uniform"
        );
    }

    #[test]
    fn windowed_curve_shifts_to_retained_origin() {
        let windows = [1, 2, 4, 8];
        // Nothing dropped: identical to the plain curve.
        let a = windowed_curve(&[1, 2, 3], 0, 8, &windows);
        assert_eq!(a, EmpiricalCurve::from_events(&[1, 2, 3], 8, &windows));
        // With drops, the curve covers the retained window only: events
        // shifted so the earliest retained event is the origin.
        let b = windowed_curve(&[100, 101, 102], 5, 200, &windows);
        assert_eq!(b, EmpiricalCurve::from_events(&[0, 1, 2], 100, &windows));
    }
}
