//! Every JSON artifact goes through the one codec (`platform::json`).
//! `RunProfile`, `BlameReport`, `Postmortem`, `Report` and `DeploySpec`
//! values whose names hold quotes, backslashes, control characters and
//! non-ASCII text must re-parse and re-emit byte-identically; profiles,
//! reports and specs must also parse back equal.

use proptest::prelude::*;
use streamgate_analysis::spec::StationMap;
use streamgate_analysis::{
    json, parse_profile, ChainStage, DeploySpec, Diagnostic, GatewayDeploy, Location,
    ProcessorDeploy, Report, RuleId, Severity, StreamBounds, StreamDeploy, StreamMode, StreamModes,
    TaskDeploy,
};
use streamgate_core::{
    log_windows, ArrivalProfile, BlameCause, BlameReport, BlameSegment, BlockBlame, EmpiricalCurve,
    FifoProfile, GatewayProfile, HopProfile, Postmortem, PostmortemBlame, RunProfile, StallProfile,
    StreamBlame, StreamProfile, Violation, ViolationKind,
};
use streamgate_ilp::Rational;
use streamgate_platform::{BlockRecord, StallCause, TraceEvent};

/// Draws artifact fields straight from the proptest RNG, so a failing
/// case shrinks.
struct Draw<'a>(&'a mut TestRng);

impl Draw<'_> {
    fn below(&mut self, n: u64) -> u64 {
        self.0.below(n)
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }

    fn flag(&mut self) -> bool {
        self.below(2) == 1
    }

    /// Small values, mid-size values and values at the top of `u64`.
    fn int(&mut self) -> u64 {
        match self.below(4) {
            0 => self.below(10),
            1 => self.below(100_000),
            2 => u64::MAX - self.below(3),
            _ => self.0.next_u64(),
        }
    }

    fn name(&mut self) -> String {
        const PIECES: [&str; 20] = [
            "a",
            "Z",
            "0",
            " ",
            "\"",
            "\\",
            "/",
            "\n",
            "\r",
            "\t",
            "\u{0}",
            "\u{1}",
            "\u{1f}",
            "\u{7f}",
            "é",
            "€",
            "名",
            "𝄞",
            "aux \"meter\"",
            "\\u0041",
        ];
        let n = self.below(6);
        (0..n).map(|_| self.pick(&PIECES)).collect()
    }

    fn vec<T>(&mut self, max: u64, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let n = self.below(max + 1);
        (0..n).map(|_| item(self)).collect()
    }

    fn opt<T>(&mut self, item: impl FnOnce(&mut Self) -> T) -> Option<T> {
        if self.flag() {
            Some(item(self))
        } else {
            None
        }
    }

    fn seven(&mut self) -> [u64; 7] {
        std::array::from_fn(|_| self.int())
    }
}

/// A strategy from a drawing function.
struct Gen<T>(fn(&mut Draw) -> T);

impl<T> Strategy for Gen<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(&mut Draw(rng))
    }
}

fn run_profile(d: &mut Draw) -> RunProfile {
    let cycles = d.below(5000);
    let windows = log_windows(cycles + 1);
    let curve = |d: &mut Draw| {
        let max_count: Vec<u64> = windows.iter().map(|_| d.int()).collect();
        let min_count = max_count
            .iter()
            .map(|&m| if m == 0 { 0 } else { d.below(m) })
            .collect();
        EmpiricalCurve {
            windows: windows.clone(),
            max_count,
            min_count,
        }
    };
    let hop = |d: &mut Draw| HopProfile {
        hop: d.int() as usize,
        flits: d.int(),
        curve: curve(d),
    };
    RunProfile {
        deployment: d.name(),
        mode: d.name(),
        cycles,
        ring_nodes: d.int() as usize,
        data_hops: d.vec(3, hop),
        credit_hops: d.vec(3, hop),
        streams: d.vec(3, |d| StreamProfile {
            gateway: d.int() as usize,
            stream: d.int() as usize,
            gateway_name: d.name(),
            name: d.name(),
            blocks: d.int(),
            tau_min: d.int(),
            tau_max: d.int(),
            tau_sum: d.int(),
            tau_hist: d.vec(4, Draw::int),
            completions: curve(d),
            arrival: d.opt(|d| ArrivalProfile {
                samples: d.int(),
                max_fill: d.int() as usize,
                curve: curve(d),
            }),
        }),
        gateways: d.vec(2, |d| GatewayProfile {
            gateway: d.int() as usize,
            name: d.name(),
            round_count: d.int(),
            round_max: d.int(),
            rounds: d.vec(4, Draw::int),
            stalls: d.vec(3, |d| StallProfile {
                cause: d.name(),
                windows: d.int(),
                cycles: d.int(),
                hist: d.vec(4, Draw::int),
            }),
        }),
        fifos: d.vec(3, |d| FifoProfile {
            index: d.int() as usize,
            name: d.name(),
            capacity: d.int() as usize,
            high_water: d.int() as usize,
        }),
        windows,
    }
}

fn block_blame(d: &mut Draw) -> BlockBlame {
    let start = d.int() / 2;
    BlockBlame {
        stream: d.below(8) as usize,
        start,
        end: start + d.below(1_000_000),
        completed: d.flag(),
        components: d.seven(),
        critical_path: d.vec(4, |d| BlameSegment {
            cause: d.pick(&BlameCause::ALL),
            from: d.int(),
            to: d.int(),
        }),
    }
}

fn blame_report(d: &mut Draw) -> BlameReport {
    BlameReport {
        deployment: d.name(),
        mode: d.name(),
        cycles: d.int(),
        streams: d.vec(3, |d| StreamBlame {
            gateway: d.int() as usize,
            stream: d.int() as usize,
            gateway_name: d.name(),
            name: d.name(),
            blocks: d.int(),
            tau_sum: d.int(),
            totals: d.seven(),
            maxima: d.seven(),
            hists: std::array::from_fn(|_| d.vec(3, Draw::int)),
            worst: d.opt(block_blame),
        }),
    }
}

fn trace_event(d: &mut Draw) -> TraceEvent {
    let (gateway, stream, accel) = (d.int() as u32, d.int() as u32, d.int() as u32);
    let (start, end, cycle) = (d.int(), d.int(), d.int());
    match d.below(12) {
        0 => TraceEvent::BlockStart {
            gateway,
            stream,
            cycle,
        },
        1 => TraceEvent::ReconfigWindow {
            gateway,
            stream,
            start,
            end,
        },
        2 => TraceEvent::ConfigSave {
            gateway,
            stream,
            accel,
            cycle,
            words: d.int() as u32,
        },
        3 => TraceEvent::ConfigRestore {
            gateway,
            stream,
            accel,
            cycle,
            words: d.int() as u32,
        },
        4 => TraceEvent::DmaPhase {
            gateway,
            stream,
            start,
            end,
            samples: d.int() as u32,
        },
        5 => TraceEvent::DrainPhase {
            gateway,
            stream,
            start,
            end,
        },
        6 => TraceEvent::BlockEnd {
            gateway,
            block: BlockRecord {
                stream: stream as usize,
                start,
                reconfig_end: d.int(),
                stream_end: d.int(),
                drain_end: d.int(),
                dma_stall: d.int(),
                exit_stall: d.int(),
            },
        },
        7 => TraceEvent::StallWindow {
            gateway,
            cause: d.pick(&StallCause::ALL),
            start,
            end,
        },
        8 => TraceEvent::AccelActive { accel, start, end },
        9 => TraceEvent::FifoLevel {
            fifo: accel,
            cycle,
            level: d.int() as u32,
        },
        10 => TraceEvent::FifoHighWater {
            fifo: accel,
            cycle,
            level: d.int() as u32,
        },
        _ => TraceEvent::RingCounters {
            cycle,
            data_delivered: d.int(),
            data_stalls: d.int(),
            credit_delivered: d.int(),
        },
    }
}

fn postmortem(d: &mut Draw) -> Postmortem {
    const KINDS: [ViolationKind; 5] = [
        ViolationKind::TauExceeded,
        ViolationKind::RoundExceeded,
        ViolationKind::BufferOverflow,
        ViolationKind::HeadOfLineBlocking,
        ViolationKind::TransitionOverrun,
    ];
    let index = |d: &mut Draw| d.int() as usize;
    Postmortem {
        deployment: d.name(),
        mode: d.name(),
        cycle: d.int(),
        events_dropped: d.int(),
        monitor_missed: d.int(),
        recent_events: d.vec(6, trace_event),
        open_stalls: d.vec(3, |d| {
            (d.int() as u32, d.pick(&StallCause::ALL), d.int(), d.int())
        }),
        violations: d.vec(3, |d| Violation {
            kind: d.pick(&KINDS),
            cycle: d.int(),
            gateway: d.opt(index),
            gateway_name: d.name(),
            stream: d.opt(index),
            stream_name: d.name(),
            fifo: d.opt(index),
            message: d.name(),
        }),
        blame: d.opt(|d| PostmortemBlame {
            gateway: d.int() as usize,
            gateway_name: d.name(),
            stream_name: d.name(),
            block: block_blame(d),
        }),
    }
}

fn small_i128(d: &mut Draw) -> i128 {
    d.below(2000) as i128 - 1000
}

fn report(d: &mut Draw) -> Report {
    Report {
        deployment: d.name(),
        diagnostics: d.vec(4, |d| Diagnostic {
            rule: d.pick(&RuleId::ALL),
            severity: d.pick(&[Severity::Info, Severity::Warning, Severity::Error]),
            location: match d.below(4) {
                0 => Location::Deployment,
                1 => Location::Gateway {
                    index: d.int() as usize,
                    name: d.name(),
                },
                2 => Location::Stream {
                    index: d.int() as usize,
                    name: d.name(),
                },
                _ => Location::Processor {
                    index: d.int() as usize,
                    name: d.name(),
                    task: d.opt(Draw::name),
                },
            },
            message: d.name(),
        }),
        gamma: d.int(),
        utilisation: (small_i128(d), small_i128(d)),
        bounds: d.vec(3, |d| StreamBounds {
            stream: d.name(),
            eta_in: d.int(),
            tau_hat: d.int(),
            omega_hat: d.int(),
            mu: (small_i128(d), small_i128(d)),
        }),
    }
}

fn stream_deploy(d: &mut Draw) -> StreamDeploy {
    StreamDeploy {
        name: d.name(),
        mu: Rational::new(small_i128(d), 1 + d.below(1000) as i128),
        eta_in: d.int(),
        eta_out: d.int(),
        reconfig: d.int(),
        input_capacity: d.int(),
        output_capacity: d.int(),
        max_latency: d.opt(Draw::int),
    }
}

fn chain(d: &mut Draw) -> Vec<ChainStage> {
    d.vec(3, |d| ChainStage {
        name: d.name(),
        rho: d.int(),
    })
}

fn deploy_spec(d: &mut Draw) -> DeploySpec {
    let stations = |d: &mut Draw| d.vec(3, |d| d.int() as usize);
    DeploySpec {
        name: d.name(),
        chain: chain(d),
        epsilon: d.int(),
        delta: d.int(),
        ni_depth: d.int() as u32,
        check_for_space: d.flag(),
        streams: d.vec(3, stream_deploy),
        processors: d.vec(2, |d| ProcessorDeploy {
            name: d.name(),
            declared_period: d.opt(Draw::int),
            tasks: d.vec(3, |d| TaskDeploy {
                name: d.name(),
                budget: d.int(),
                required_interval: d.opt(Draw::int),
            }),
        }),
        gateways: d.vec(2, |d| GatewayDeploy {
            name: d.name(),
            chain: chain(d),
            shares_chain_with: d.opt(|d| d.int() as usize),
            streams: d.vec(2, stream_deploy),
            config_slot: d.opt(|d| (d.int(), d.int())),
        }),
        config_bus_period: d.opt(Draw::int),
        station_map: d.opt(|d| StationMap {
            nodes: d.int() as usize,
            entries: stations(d),
            exits: stations(d),
            chain_nodes: d.vec(2, stations),
        }),
        modes: d.vec(2, |d| StreamModes {
            gateway: d.int() as usize,
            stream: d.name(),
            modes: d.vec(2, |d| StreamMode {
                name: d.name(),
                config: stream_deploy(d),
            }),
            transitions: d.vec(2, |d| (d.name(), d.name())),
        }),
    }
}

/// The text parses and the parsed tree re-emits it byte for byte.
fn reemits(text: &str) -> Result<(), TestCaseError> {
    let tree = json::parse(text).map_err(|e| TestCaseError::Fail(format!("{e}: {text}")))?;
    prop_assert_eq!(tree.to_text(), text);
    Ok(())
}

proptest! {
    #[test]
    fn run_profile_roundtrips(p in Gen(run_profile)) {
        let text = p.to_json_text();
        reemits(&text)?;
        prop_assert_eq!(parse_profile(&text), Ok(p));
    }

    #[test]
    fn blame_report_reemits(b in Gen(blame_report)) {
        reemits(&b.to_json_text())?;
    }

    #[test]
    fn postmortem_reemits(pm in Gen(postmortem)) {
        reemits(&pm.to_json_text())?;
    }

    #[test]
    fn report_roundtrips(r in Gen(report)) {
        let text = r.to_json_text();
        reemits(&text)?;
        prop_assert_eq!(Report::from_json_text(&text), Ok(r));
    }

    #[test]
    fn deploy_spec_roundtrips(spec in Gen(deploy_spec)) {
        let text = spec.to_json_text();
        reemits(&text)?;
        prop_assert_eq!(DeploySpec::from_json_text(&text), Ok(spec));
    }
}
