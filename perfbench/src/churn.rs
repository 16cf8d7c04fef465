//! `pal2-churn`: a seeded, closed-loop admission session on the running
//! two-gateway Fig. 10 twin (`DeploySpec::pal2`).
//!
//! One client issues `AdmissionController::request` calls and waits for
//! each decision. Between requests the benchmark feeds every admitted
//! stream's input FIFO at its rate for a fixed simulated interval, drains
//! the outputs and polls the armed monitor. The incremental analyzer and
//! the admission controller do most of the work; the engine only runs the
//! idle intervals, alternately on the event engine and the exhaustive
//! oracle.
//!
//! Latency moves across orders of magnitude with one input property: η
//! against the exact-buffer-search limit. Every round therefore has the
//! same mix, and the seed draws its order and parameters:
//!
//! * 4 joins with η ≤ 64 on `gw-back`, each removed by the next request
//!   (a resident small-η stream would make every later request on its
//!   gateway pay the exact search);
//! * 4 joins with η > 64, 4 removes and 2 retunes of such streams, with at
//!   most one generated stream resident on `gw-front` (which declares the
//!   mode table, so every request re-derives it for A11) and three on
//!   `gw-back`;
//! * 2 declared mode switches of `ch1-front` (cruise ↔ eco);
//! * 2 joins that over-commit the round (μ = 1/2) and must be rejected by
//!   rule A8.

use crate::spans::Spans;
use crate::stats::{host_factor, median, Checks, Fingerprint, HostTime, Rng};
use crate::{layer_rows, Iterations, Measured};
use std::collections::BTreeMap;
use std::time::Instant;
use streamgate_analysis::{
    analyze_with, monitor_for, AdmissionController, AnalysisOptions, AnalysisState, Delta,
    DeploySpec, MultiBuiltSystem, StreamDeploy, StreamMode, StreamModes,
};
use streamgate_core::{measured_transition_delay, Monitor};
use streamgate_ilp::Rational;
use streamgate_platform::{FifoId, StepMode};

/// Rounds of 22 requests per session.
const ROUNDS: usize = 3;
/// Sessions every run makes at least: 2 × 66 requests leave more than ten
/// samples beyond p90.
const MIN_SESSIONS: usize = 2;
/// Simulated idle interval between requests: 4 ms of stream time.
const INTERVAL: u64 = 36_240;
/// Feeding steps per interval. Samples arrive at each stream's rate in
/// 2265-cycle steps: whole-interval bursts would queue several blocks of
/// one stream back to back, and a window of that many blocks is not a
/// round of the Eq. 3-4 monitor.
const FEED_STEPS: u64 = 16;
/// Intervals a mode switch may take to complete its first post-switch
/// block before the A12 check counts as failed.
const SWITCH_WAIT: usize = 32;
/// Largest η for which rule A2 runs its exact minimum-buffer search
/// (`EXACT_BUFFER_ETA_LIMIT` in the analyzer).
const EXACT_SEARCH_MAX_ETA: u64 = 64;
const RECORDER_EVENTS: usize = 4096;
/// η of the small-η joins: below the exact-search limit, and the same for
/// every such join, so p90 falls inside one latency class on every seed.
const SMALL_ETA: u64 = 2;
/// Generated η > 64 streams resident at once, per gateway.
const RESIDENT_CAP: [usize; 2] = [1, 3];

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Kind {
    AddSmallEta,
    AddLargeEta,
    Remove,
    Retune,
    Switch,
    Reject,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::AddSmallEta => "analysis.evaluate_add_small_eta",
            Kind::AddLargeEta => "analysis.evaluate_add_large_eta",
            Kind::Remove => "analysis.evaluate_remove",
            Kind::Retune => "analysis.evaluate_retune",
            Kind::Switch => "analysis.evaluate_switch",
            Kind::Reject => "analysis.evaluate_reject",
        }
    }
}

struct Planned {
    delta: Delta,
    kind: Kind,
    admit: bool,
}

fn stream(name: String, mu_den: i128, eta: u64, reconfig: u64) -> StreamDeploy {
    StreamDeploy {
        name,
        mu: Rational::new(1, mu_den),
        eta_in: eta,
        eta_out: eta,
        reconfig,
        input_capacity: eta * 4,
        output_capacity: eta * 4,
        max_latency: None,
    }
}

/// The seeded request generator. It tracks residency itself, so the
/// program only ever receives the generated deltas.
struct Generator {
    rng: Rng,
    /// Generated η > 64 streams currently resident: (gateway, name).
    residents: Vec<(usize, String)>,
    next_id: u64,
    eco: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Small,
    AddLarge,
    RemoveLarge,
    Retune,
    Switch,
    Reject,
}

impl Generator {
    fn new(seed: u64) -> Generator {
        Generator {
            rng: Rng::new(seed),
            residents: Vec::new(),
            next_id: 0,
            eco: false,
        }
    }

    fn name(&mut self, prefix: &str) -> String {
        self.next_id += 1;
        format!("{prefix}{}", self.next_id)
    }

    fn resident_on(&self, g: usize) -> usize {
        self.residents.iter().filter(|r| r.0 == g).count()
    }

    fn large(&mut self, gateway: usize, name: String) -> StreamDeploy {
        let eta = if gateway == 0 {
            self.rng.pick(&[72, 96, 128])
        } else {
            self.rng.pick(&[72, 96, 128, 192, 256])
        };
        let den = self.rng.pick(&[100_000, 200_000, 400_000]);
        let reconfig = self.rng.pick(&[20, 40, 80]);
        stream(name, den, eta, reconfig)
    }

    fn allowed(&self, op: Op, quota: &[(Op, u64)]) -> bool {
        let left = |o: Op| quota.iter().find(|q| q.0 == o).map_or(0, |q| q.1);
        let n = self.residents.len();
        match op {
            Op::AddLarge => (0..2).any(|g| self.resident_on(g) < RESIDENT_CAP[g]),
            // Never remove the last resident while a retune still needs one.
            Op::RemoveLarge => {
                n > 1 || (n == 1 && (left(Op::Retune) == 0 || left(Op::AddLarge) > 0))
            }
            Op::Retune => n > 0,
            Op::Small | Op::Switch | Op::Reject => true,
        }
    }

    /// One round: 22 requests with a fixed mix in a seeded order.
    fn round(&mut self) -> Vec<Planned> {
        let mut quota = [
            (Op::Small, 4),
            (Op::AddLarge, 4),
            (Op::RemoveLarge, 4),
            (Op::Retune, 2),
            (Op::Switch, 2),
            (Op::Reject, 2),
        ];
        let mut out = Vec::new();
        loop {
            let eligible: Vec<usize> = (0..quota.len())
                .filter(|&i| quota[i].1 > 0 && self.allowed(quota[i].0, &quota))
                .collect();
            let total: u64 = eligible.iter().map(|&i| quota[i].1).sum();
            if total == 0 {
                break;
            }
            let mut r = self.rng.below(total);
            let i = *eligible
                .iter()
                .find(|&&i| {
                    let hit = r < quota[i].1;
                    r = r.saturating_sub(quota[i].1);
                    hit
                })
                .expect("draw falls inside the eligible quotas");
            quota[i].1 -= 1;
            match quota[i].0 {
                Op::Small => {
                    let name = self.name("s");
                    out.push(Planned {
                        delta: Delta::AddStream {
                            gateway: 1,
                            stream: stream(name.clone(), 20_000, SMALL_ETA, 20),
                        },
                        kind: Kind::AddSmallEta,
                        admit: true,
                    });
                    out.push(Planned {
                        delta: Delta::RemoveStream {
                            gateway: 1,
                            stream: name,
                        },
                        kind: Kind::Remove,
                        admit: true,
                    });
                }
                Op::AddLarge => {
                    let room = |g: usize| self.resident_on(g) < RESIDENT_CAP[g];
                    let gateway = if room(0) && (!room(1) || self.rng.below(3) == 0) {
                        0
                    } else {
                        1
                    };
                    let name = self.name("g");
                    let s = self.large(gateway, name.clone());
                    self.residents.push((gateway, name));
                    out.push(Planned {
                        delta: Delta::AddStream { gateway, stream: s },
                        kind: Kind::AddLargeEta,
                        admit: true,
                    });
                }
                Op::RemoveLarge => {
                    let (gateway, name) = self
                        .residents
                        .swap_remove(self.rng.below(self.residents.len() as u64) as usize);
                    out.push(Planned {
                        delta: Delta::RemoveStream {
                            gateway,
                            stream: name,
                        },
                        kind: Kind::Remove,
                        admit: true,
                    });
                }
                Op::Retune => {
                    let (gateway, name) = self.residents
                        [self.rng.below(self.residents.len() as u64) as usize]
                        .clone();
                    let with = self.large(gateway, name.clone());
                    out.push(Planned {
                        delta: Delta::RetuneStream {
                            gateway,
                            stream: name,
                            with,
                        },
                        kind: Kind::Retune,
                        admit: true,
                    });
                }
                Op::Switch => {
                    self.eco = !self.eco;
                    out.push(Planned {
                        delta: Delta::ModeSwitch {
                            gateway: 0,
                            stream: "ch1-front".into(),
                            mode: if self.eco { "eco" } else { "cruise" }.into(),
                        },
                        kind: Kind::Switch,
                        admit: true,
                    });
                }
                Op::Reject => {
                    let gateway = self.rng.below(2) as usize;
                    let name = self.name("hog");
                    out.push(Planned {
                        delta: Delta::AddStream {
                            gateway,
                            stream: stream(name, 2, 128, 20),
                        },
                        kind: Kind::Reject,
                        admit: false,
                    });
                }
            }
        }
        out
    }
}

/// `pal2` plus a declared mode table on `ch1-front` whose edges run both
/// ways: "cruise" is the committed configuration, "eco" a shorter
/// reconfiguration window.
fn churn_spec() -> DeploySpec {
    let mut spec = DeploySpec::pal2();
    let cruise = spec.gateways[0].streams[0].clone();
    let mut eco = cruise.clone();
    eco.reconfig -= 16;
    spec.modes = vec![StreamModes {
        gateway: 0,
        stream: cruise.name.clone(),
        modes: vec![
            StreamMode {
                name: "cruise".into(),
                config: cruise,
            },
            StreamMode {
                name: "eco".into(),
                config: eco,
            },
        ],
        transitions: vec![
            ("cruise".into(), "eco".into()),
            ("eco".into(), "cruise".into()),
        ],
    }];
    spec
}

/// One admitted stream the benchmark feeds at its rate μ = num/den.
struct Feed {
    gateway: usize,
    name: String,
    input: FifoId,
    output: FifoId,
    num: u128,
    den: u128,
    /// Fractional samples owed, in units of 1/den.
    owed: u128,
}

impl Feed {
    fn new(gateway: usize, s: &StreamDeploy, input: FifoId, output: FifoId) -> Feed {
        Feed {
            gateway,
            name: s.name.clone(),
            input,
            output,
            num: s.mu.numer() as u128,
            den: s.mu.denom() as u128,
            owed: 0,
        }
    }
}

struct Session {
    ctrl: AdmissionController,
    built: MultiBuiltSystem,
    monitor: Monitor,
    feeds: Vec<Feed>,
    intervals: u64,
    violations: usize,
    overflow: u64,
    delivered: u64,
}

/// Host time and engine work of one session. Every timed call counts at
/// the host factor measured before the request it follows.
#[derive(Default)]
struct Round {
    host: f64,
    wall: HostTime,
    run_s: HostTime,
    cycles: u64,
    oracle_s: HostTime,
    oracle_cycles: u64,
    full_steps: u64,
    ring_only: u64,
    skipped: u64,
    idle_wait: u64,
    small_eta: u64,
    latencies: Vec<HostTime>,
    hosts: Vec<f64>,
}

fn setup(spans: &mut Spans, checks: &mut Checks) -> Session {
    let spec = churn_spec();
    let (state, _) = spans.time("analysis.full", || {
        AnalysisState::new(spec.clone(), AnalysisOptions::default())
    });
    checks.check(state.report().is_accepted(), || {
        format!(
            "pal2 with modes rejected:\n{}",
            state.report().render_text()
        )
    });
    let (mut built, _) = spans.time("core.build", || spec.build_multi_platform());
    built.system.enable_flight_recorder(RECORDER_EVENTS);
    let monitor = monitor_for(&spec, state.report(), &built.system);
    let feeds = spec
        .gateway_views()
        .iter()
        .enumerate()
        .flat_map(|(g, v)| {
            let (ins, outs) = (&built.inputs[g], &built.outputs[g]);
            v.streams
                .iter()
                .enumerate()
                .map(move |(i, s)| Feed::new(g, s, ins[i], outs[i]))
        })
        .collect();
    Session {
        ctrl: AdmissionController::from_state(state),
        built,
        monitor,
        feeds,
        intervals: 0,
        violations: 0,
        overflow: 0,
        delivered: 0,
    }
}

/// Streams with η within the exact-search limit on the gateway `delta`
/// touches, in the candidate deployment: the inputs of A2's exact search.
fn small_eta_inputs(spec: &DeploySpec, delta: &Delta) -> u64 {
    let g = delta.gateway();
    let (target, added): (Option<&str>, Option<u64>) = match delta {
        Delta::AddStream { stream, .. } => (None, Some(stream.eta_in)),
        Delta::RemoveStream { stream, .. } => (Some(stream), None),
        Delta::RetuneStream { stream, with, .. } => (Some(stream), Some(with.eta_in)),
        Delta::ModeSwitch { stream, mode, .. } => (
            Some(stream),
            spec.stream_modes(g, stream)
                .and_then(|d| d.mode(mode))
                .map(|m| m.config.eta_in),
        ),
    };
    let kept = spec.gateways[g]
        .streams
        .iter()
        .filter(|s| Some(s.name.as_str()) != target && s.eta_in <= EXACT_SEARCH_MAX_ETA)
        .count() as u64;
    kept + u64::from(added.is_some_and(|e| e <= EXACT_SEARCH_MAX_ETA))
}

impl Session {
    /// Feed every admitted stream at its rate for one interval (alternately
    /// on the event engine and the exhaustive oracle), drain the outputs and
    /// poll the monitor.
    fn interval(&mut self, spans: &mut Spans, round: &mut Round) {
        let sys = &mut self.built.system;
        let exhaustive = self.intervals % 2 == 1;
        self.intervals += 1;
        let before = sys.engine_stats;
        let mut run_s = 0.0;
        for _ in 0..FEED_STEPS {
            let now = sys.cycle();
            for f in &mut self.feeds {
                f.owed += u128::from(INTERVAL / FEED_STEPS) * f.num;
                let due = f.owed / f.den;
                f.owed %= f.den;
                for k in 0..due {
                    if !sys.fifos[f.input.0].try_push((k as f64, 0.0), now) {
                        self.overflow += 1;
                    }
                }
            }
            let outer = spans.begin("platform.run");
            if exhaustive {
                sys.step_mode = StepMode::Exhaustive;
                spans.time("platform.oracle_run", || sys.run(INTERVAL / FEED_STEPS));
                sys.step_mode = StepMode::EventDriven;
            } else {
                sys.run(INTERVAL / FEED_STEPS);
            }
            run_s += spans.end(outer);
        }
        let run_s = HostTime::new(run_s, round.host);
        round.wall += run_s;
        if exhaustive {
            round.oracle_s += run_s;
            round.oracle_cycles += INTERVAL;
        } else {
            round.run_s += run_s;
            round.cycles += INTERVAL;
            let after = sys.engine_stats;
            round.full_steps += after.full_steps - before.full_steps;
            round.ring_only += after.ring_only_cycles - before.ring_only_cycles;
            round.skipped += after.skipped_cycles - before.skipped_cycles;
        }
        for f in &self.feeds {
            while sys.fifos[f.output.0].pop().is_some() {
                self.delivered += 1;
            }
        }
        let (n, dt) = spans.time("core.monitor_poll", || self.monitor.poll(&sys.tracer));
        self.violations += n;
        round.wall += HostTime::new(dt, round.host);
    }

    #[allow(clippy::too_many_arguments)]
    fn request(
        &mut self,
        p: &Planned,
        traced: bool,
        spans: &mut Spans,
        round: &mut Round,
        evaluations: &mut BTreeMap<Kind, Vec<f64>>,
        checks: &mut Checks,
        fp: &mut Fingerprint,
    ) {
        if traced {
            // An extra call the untraced iterations do not make: kept out
            // of `round.wall`, so traced minus untraced wall time is the
            // cost of tracing alone.
            round.small_eta += small_eta_inputs(self.ctrl.spec(), &p.delta);
            let (v, dt) = spans.time(p.kind.span(), || self.ctrl.evaluate(&p.delta));
            evaluations.entry(p.kind).or_default().push(dt * 1e3);
            checks.check(v.as_ref().is_ok_and(|v| v.is_admitted() == p.admit), || {
                format!(
                    "evaluate of `{}` disagrees with the expected verdict",
                    p.delta.describe()
                )
            });
        }
        let g = p.delta.gateway();
        let sysg = self.built.gateways[g];
        let request_cycle = self.built.system.cycle();
        round.host = host_factor();
        round.hosts.push(round.host);
        let (res, dt) = spans.time("analysis.request", || {
            self.ctrl.request(
                &mut self.built.system,
                &self.built.gateways,
                &p.delta,
                Some(&mut self.monitor),
            )
        });
        let latency = HostTime::new(dt, round.host);
        round.wall += latency;
        round.latencies.push(latency);
        round.idle_wait += self.built.system.cycle() - request_cycle;
        let outcome = match res {
            Ok(o) => o,
            Err(e) => {
                checks.check(false, || format!("`{}` failed: {e}", p.delta.describe()));
                return;
            }
        };
        let admitted = outcome.verdict.is_admitted();
        checks.check(admitted == p.admit, || {
            format!(
                "`{}` was {} against expectation:\n{}",
                p.delta.describe(),
                if admitted { "admitted" } else { "rejected" },
                outcome.verdict.report().render_text()
            )
        });
        fp.add(u64::from(admitted));
        fp.add(outcome.window.map_or(u64::MAX, |w| w.0));
        if !admitted {
            self.interval(spans, round);
            return;
        }

        // Follow the admitted change with the feeds.
        let name = match &p.delta {
            Delta::AddStream { stream, .. } => stream.name.clone(),
            Delta::RemoveStream { stream, .. } | Delta::ModeSwitch { stream, .. } => stream.clone(),
            Delta::RetuneStream { with, .. } => with.name.clone(),
        };
        let target = match &p.delta {
            Delta::RetuneStream { stream, .. } => stream.clone(),
            _ => name.clone(),
        };
        self.feeds.retain(|f| !(f.gateway == g && f.name == target));
        if let (Some((input, output)), Some(committed)) = (
            outcome.fifos,
            self.ctrl.spec().gateways[g]
                .streams
                .iter()
                .find(|s| s.name == name),
        ) {
            self.feeds.push(Feed::new(g, committed, input, output));
        }

        self.interval(spans, round);
        if let (Some(predicted), Some(idx)) = (outcome.predicted_delay, outcome.stream_index) {
            // Rule A12: the first post-switch block must drain within the
            // predicted delay, measured from the request cycle.
            let mut measured = None;
            for _ in 0..SWITCH_WAIT {
                let sys = &self.built.system;
                measured = spans
                    .time("core.system_metrics", || {
                        measured_transition_delay(sys, sysg, idx, request_cycle)
                    })
                    .0;
                if measured.is_some() {
                    break;
                }
                self.interval(spans, round);
            }
            checks.check(measured.is_some_and(|d| d <= predicted), || {
                format!(
                    "A12: `{}` measured delay {measured:?} > predicted {predicted}",
                    p.delta.describe()
                )
            });
            fp.add(measured.unwrap_or(u64::MAX));
        }
    }
}

pub fn run(seed: u64, iters: &mut Iterations, spans: &mut Spans) -> Measured {
    let mut m = Measured::default();
    iters.at_least(MIN_SESSIONS);
    let mut evaluations: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    let mut first_fp = None;
    let mut requests = 0u64;
    while iters.more() {
        // Each iteration is a fresh session replaying the seed's plan, so
        // every iteration does the same work from the same state.
        let traced = iters.begin(spans);
        let setup_host = host_factor();
        let t_setup = Instant::now();
        let mut s = setup(spans, &mut m.checks);
        let setup_s = t_setup.elapsed().as_secs_f64();
        let mut gen = Generator::new(seed);
        let mut round = Round::default();
        let mut fp = Fingerprint::default();
        for _ in 0..ROUNDS {
            for p in gen.round() {
                spans.request = requests;
                requests += 1;
                s.request(
                    &p,
                    traced,
                    spans,
                    &mut round,
                    &mut evaluations,
                    &mut m.checks,
                    &mut fp,
                );
            }
        }

        // Output checks, outside the timed calls.
        s.monitor.poll(&s.built.system.tracer);
        m.checks
            .check(s.violations == 0 && s.monitor.is_clean(), || {
                format!(
                    "bound monitor flagged violations: {:?}",
                    s.monitor.violations()
                )
            });
        m.checks.check(s.overflow == 0, || {
            format!("{} fed samples did not fit their input FIFO", s.overflow)
        });
        let full = analyze_with(s.ctrl.spec(), &AnalysisOptions::default());
        let report = s.ctrl.report().to_json_text();
        m.checks.check(full.to_json_text() == report, || {
            "committed report differs from a full re-analysis of the final spec".into()
        });
        let sys = &s.built.system;
        fp.add(sys.cycle());
        for g in &sys.gateways {
            fp.add(g.idle_cycles);
            fp.add(g.reconfig_cycles_total);
            fp.add(g.dma_busy_cycles);
            (0..g.num_streams()).for_each(|i| fp.add(g.stream(i).blocks_done));
        }
        for a in &sys.accels {
            fp.add(a.busy_cycles);
            fp.add(a.samples_out);
        }
        fp.add(s.delivered);
        fp.add_str(&report);
        let fp0 = *first_fp.get_or_insert(fp);
        m.checks
            .check(fp == fp0, || "fingerprint changed between sessions".into());
        m.fingerprint = fp0;
        if m.notes.is_empty() {
            m.notes.push(format!(
                "session: {ROUNDS} rounds, {} requests, {} intervals, {} samples delivered, \
                 final cycle {}, {} FIFOs",
                round.latencies.len(),
                s.intervals,
                s.delivered,
                sys.cycle(),
                sys.fifos.len()
            ));
        }

        if traced {
            let mut layers = layer_rows(spans.take_totals());
            let ring = &sys.ring.stats;
            let steps = (round.full_steps + round.ring_only).max(1) as f64;
            for (name, v) in [
                ("platform.full_steps", round.full_steps as f64),
                ("platform.ring_only_cycles", round.ring_only as f64),
                ("platform.skipped_cycles", round.skipped as f64),
                ("platform.ns_per_step", round.run_s.raw / steps * 1e9),
                ("ring.data_flits", ring[0].delivered as f64),
                ("ring.credit_flits", ring[1].delivered as f64),
                (
                    "ring.injection_stalls",
                    (ring[0].injection_stalls + ring[1].injection_stalls) as f64,
                ),
                ("trace.events", sys.tracer.len() as f64),
                (
                    "analysis.small_eta_streams_evaluated",
                    round.small_eta as f64,
                ),
                ("analysis.idle_wait_cycles", round.idle_wait as f64),
                ("bench.wall_s", round.wall.raw),
            ] {
                layers.insert(name, v);
            }
            m.layer_iterations.push(layers);
            m.traced_wall.push(round.wall);
            continue;
        }
        m.setup.push(HostTime::new(setup_s, setup_host));
        m.wall.push(round.wall);
        m.sim.push(round.cycles as f64 / round.run_s.norm / 1e6);
        m.oracle
            .push(round.oracle_cycles as f64 / round.oracle_s.norm / 1e6);
        m.requests.extend(round.latencies);
        m.hosts.push(setup_host);
        m.hosts.extend(round.hosts);
    }
    for (kind, v) in &evaluations {
        let row = match kind {
            Kind::AddSmallEta => "analysis.evaluate_add_small_eta_ms",
            Kind::AddLargeEta => "analysis.evaluate_add_large_eta_ms",
            Kind::Remove => "analysis.evaluate_remove_ms",
            Kind::Retune => "analysis.evaluate_retune_ms",
            Kind::Switch => "analysis.evaluate_switch_ms",
            Kind::Reject => "analysis.evaluate_reject_ms",
        };
        m.run_layers.insert(row, median(v));
    }
    m
}
