//! Deployment of the PAL stereo audio decoder (paper Fig. 10) on the
//! cycle-level platform, with the real DSP kernels shared through one
//! gateway pair.
//!
//! Topology (one gateway pair, **one** CORDIC tile, **one** FIR+8:1 tile —
//! the sharing that saves 63 % of the logic):
//!
//! ```text
//!   FE ─┬─► in[ch1-front] ─┐                                ┌─► mid[ch1] ─► in[ch1-back] ─┐
//!       └─► in[ch2-front] ─┤  entry ─► CORDIC ─► FIR+8:1 ─► exit ─► …                     │
//!                          │  (4 streams round-robin)                                     │
//!   in[ch1-back] ──────────┘             ▲                                                │
//!   in[ch2-back] ────────────────────────┴────────────────────────────────────────────────┘
//!   audio[ch1] + audio[ch2] ─► stereo-matrix task ─► L / R sinks
//! ```
//!
//! Front-half streams configure the CORDIC as a **mixer** (channel select)
//! and back-half streams as an **FM discriminator**; both halves use the
//! FIR+8:1 decimator. The entry gateway multiplexes the four streams with
//! the block sizes computed by Algorithm 1.
//!
//! The ring has four stations: entry gateway 0, CORDIC 1, FIR+8:1 2 and
//! exit gateway 3 — the placement `DeploySpec::from_pal(cfg).ring_layout()`
//! analyses in `streamgate-analysis`. The FE and consumer processor tiles
//! reach their C-FIFOs directly, so they hold no station.

use crate::params::SharingProblem;
use streamgate_dsp::{Complex, Decimator, FmDemodulator, Mixer, PalConfig, PalStereoSource};
use streamgate_platform::{
    AcceleratorTile, CFifo, FifoId, GatewayPair, ProcessorTile, Sample, SoftwareTask,
    StereoMatrixTask, StreamConfig, StreamKernel, System, TaskWake,
};

/// CORDIC tile operated as channel mixer (front-half streams).
pub struct MixerKernel(pub Mixer);

impl StreamKernel for MixerKernel {
    fn process(&mut self, s: Sample) -> Option<Sample> {
        let o = self.0.process(Complex::new(s.0, s.1));
        Some((o.re, o.im))
    }
    fn state_words(&self) -> usize {
        2 // NCO phase accumulator + step
    }
    fn name(&self) -> &str {
        "cordic-mixer"
    }
}

/// CORDIC tile operated as FM discriminator (back-half streams).
pub struct FmDemodKernel(pub FmDemodulator);

impl StreamKernel for FmDemodKernel {
    fn process(&mut self, s: Sample) -> Option<Sample> {
        let m = self.0.process(Complex::new(s.0, s.1));
        Some((m, 0.0))
    }
    fn state_words(&self) -> usize {
        2 // previous I/Q sample
    }
    fn name(&self) -> &str {
        "cordic-fm-demod"
    }
}

/// FIR + 8:1 down-sampler tile.
pub struct DecimatorKernel(pub Decimator);

impl StreamKernel for DecimatorKernel {
    fn process(&mut self, s: Sample) -> Option<Sample> {
        self.0.process(Complex::new(s.0, s.1)).map(|o| (o.re, o.im))
    }
    fn state_words(&self) -> usize {
        self.0.save_state().size_samples() * 2 + 1
    }
    fn name(&self) -> &str {
        "fir-downsampler"
    }
}

/// The radio front-end: produces the synthetic PAL baseband into *both*
/// front-half input FIFOs at a fixed cycle pace (Bresenham-paced so
/// non-integer clock/sample ratios keep long-run rate exact).
pub struct FrontEndTask {
    out1: usize,
    out2: usize,
    /// Pace: produce `num` samples every `den` cycles.
    num: u64,
    den: u64,
    acc: u64,
    src: PalStereoSource,
    f_left: f64,
    f_right: f64,
    index: u64,
    fs: f64,
    /// Samples lost because an input FIFO was full (must stay 0).
    pub overruns: u64,
    /// Samples produced.
    pub produced: u64,
}

impl FrontEndTask {
    /// New front-end producing `num/den` samples per cycle of stereo test
    /// tones at `f_left`/`f_right` Hz.
    pub fn new(
        out1: usize,
        out2: usize,
        num: u64,
        den: u64,
        pal: PalConfig,
        f_left: f64,
        f_right: f64,
    ) -> Self {
        let fs = pal.fs;
        FrontEndTask {
            out1,
            out2,
            num,
            den,
            acc: 0,
            src: PalStereoSource::new(pal),
            f_left,
            f_right,
            index: 0,
            fs,
            overruns: 0,
            produced: 0,
        }
    }
}

impl SoftwareTask for FrontEndTask {
    fn tick(&mut self, fifos: &mut [CFifo], now: u64) -> bool {
        self.acc += self.num;
        let mut worked = false;
        while self.acc >= self.den {
            self.acc -= self.den;
            let t = self.index as f64 / self.fs;
            let l = (std::f64::consts::TAU * self.f_left * t).sin();
            let r = (std::f64::consts::TAU * self.f_right * t).sin();
            let s = self.src.sample(l, r);
            let sample = (s.re, s.im);
            let ok1 = fifos[self.out1].try_push(sample, now);
            let ok2 = fifos[self.out2].try_push(sample, now);
            if ok1 && ok2 {
                self.produced += 1;
            } else {
                self.overruns += 1;
            }
            self.index += 1;
            worked = true;
        }
        worked
    }
    fn name(&self) -> &str {
        "pal-front-end"
    }
    fn wake(&self, _fifos: &[CFifo], _now: u64) -> TaskWake {
        // Bresenham pacing: ticks where `acc + num < den` only advance the
        // accumulator. The number of such quiet ticks before the next
        // sample is produced is ceil((den - acc) / num) - 1.
        let quiet = (self.den - self.acc).div_ceil(self.num).saturating_sub(1);
        TaskWake::AfterTicks(quiet)
    }
    fn skip_ticks(&mut self, n: u64) -> u64 {
        // Replay `n` accumulator-only ticks; none of them produce (the
        // engine never skips past the wake report above), so none count
        // as useful work (`tick` returns false for them).
        self.acc += n * self.num;
        debug_assert!(self.acc < self.den, "skipped past a production tick");
        0
    }
    fn watched_fifos(&self) -> Option<Vec<usize>> {
        Some(Vec::new()) // pacing is FIFO-independent (a full FIFO overruns)
    }
    fn touched_fifos(&self) -> Option<Vec<usize>> {
        Some(vec![self.out1, self.out2])
    }
}

/// Configuration for [`build_pal_system`].
#[derive(Clone, Copy, Debug)]
pub struct PalSystemConfig {
    /// Synthetic baseband layout (rates may be scaled down for fast runs).
    pub pal: PalConfig,
    /// Platform clock in Hz — together with `pal.fs` this sets the
    /// front-end pace in samples/cycle.
    pub clock_hz: u64,
    /// Block sizes (η) for the four streams
    /// `[ch1-front, ch2-front, ch1-back, ch2-back]`.
    pub etas: [u64; 4],
    /// FIR prototype length (33 in the paper).
    pub fir_taps: usize,
    /// Reconfiguration time R_s in cycles (4100 in the paper).
    pub reconfig: u64,
    /// Entry DMA ε (15) and exit δ (1) cycles/sample.
    pub epsilon: u64,
    /// Exit gateway cycles/sample.
    pub delta: u64,
    /// Left/right test-tone frequencies.
    pub tones: (f64, f64),
}

impl PalSystemConfig {
    /// A laptop-scale configuration: audio at 4 kHz (baseband 256 kS/s),
    /// 9.06 MHz clock — the same ≈95 % chain utilisation, ε/δ costs and 8:1
    /// block ratio as the paper's operating point, ~11× fewer cycles per
    /// second of audio so simulations take seconds.
    pub fn scaled_default() -> Self {
        PalSystemConfig {
            pal: PalConfig {
                fs: 64.0 * 4_000.0,
                f_carrier1: 60_000.0,
                f_carrier2: 90_000.0,
                deviation: 4_000.0,
                carrier_amplitude: 0.45,
            },
            clock_hz: 9_060_000,
            etas: [640, 640, 80, 80],
            fir_taps: 33,
            reconfig: 200,
            epsilon: 15,
            delta: 1,
            tones: (400.0, 700.0),
        }
    }

    /// C-FIFO capacities `(input, output)` of the four streams
    /// `[ch1-front, ch2-front, ch1-back, ch2-back]`, in samples: four
    /// front blocks (at least 64) for the front inputs, eight back blocks
    /// (at least 128) for every other FIFO. A front stream's output FIFO
    /// is its back stream's input, so the two capacities agree.
    pub fn fifo_capacities(&self) -> [(u64, u64); 4] {
        let front = (self.etas[0] * 4).max(64);
        let back = (self.etas[2] * 4).max(64) * 2;
        [(front, back), (front, back), (back, back), (back, back)]
    }

    /// The sharing problem (for Algorithm 1) matching this configuration.
    pub fn sharing_problem(&self) -> SharingProblem {
        use crate::params::{GatewayParams, StreamSpec};
        let front = self.pal.fs as u64;
        let back = (self.pal.fs / 8.0) as u64;
        SharingProblem {
            params: GatewayParams {
                epsilon: self.epsilon,
                rho_a: 1,
                delta: self.delta,
            },
            streams: vec![
                StreamSpec::from_rates("ch1-front", front, self.clock_hz, self.reconfig),
                StreamSpec::from_rates("ch2-front", front, self.clock_hz, self.reconfig),
                StreamSpec::from_rates("ch1-back", back, self.clock_hz, self.reconfig),
                StreamSpec::from_rates("ch2-back", back, self.clock_hz, self.reconfig),
            ],
        }
    }
}

/// A built PAL system with handles to its observation points.
pub struct PalSystem {
    /// The simulated MPSoC.
    pub system: System,
    /// Gateway index.
    pub gateway: usize,
    /// Left/right audio output FIFOs (after the stereo-matrix task).
    pub left_out: FifoId,
    /// Right audio output FIFO.
    pub right_out: FifoId,
    /// Stream indices `[ch1-front, ch2-front, ch1-back, ch2-back]`.
    pub streams: [usize; 4],
}

impl PalSystem {
    /// Drain and return the decoded audio accumulated so far:
    /// `(left, right)` sample vectors.
    pub fn take_audio(&mut self) -> (Vec<f64>, Vec<f64>) {
        let mut left = Vec::new();
        while let Some(s) = self.system.fifos[self.left_out.0].pop() {
            left.push(s.0);
        }
        let mut right = Vec::new();
        while let Some(s) = self.system.fifos[self.right_out.0].pop() {
            right.push(s.0);
        }
        (left, right)
    }

    /// Achieved audio output rate in samples/cycle over the whole run.
    pub fn audio_rate_per_cycle(&self) -> f64 {
        if self.system.cycle() == 0 {
            return 0.0;
        }
        self.system.fifos[self.left_out.0].pushed as f64 / self.system.cycle() as f64
    }
}

/// Build the full Fig. 10 system and return it with handles. Its wiring
/// is the one `DeploySpec::from_pal(cfg)` in `streamgate-analysis`
/// describes and analyses, station for station (a contract test there
/// compares the two).
pub fn build_pal_system(cfg: &PalSystemConfig) -> PalSystem {
    // Ring stations: 0 entry-gw, 1 CORDIC, 2 FIR+D, 3 exit-gw.
    let mut sys = System::new(4);
    let pal = cfg.pal;

    // --- FIFOs ---
    let caps = cfg.fifo_capacities().map(|(i, o)| (i as usize, o as usize));
    let in_ch1_front = sys.add_fifo(CFifo::new("in:ch1-front", caps[0].0));
    let in_ch2_front = sys.add_fifo(CFifo::new("in:ch2-front", caps[1].0));
    let in_ch1_back = sys.add_fifo(CFifo::new("in:ch1-back", caps[2].0));
    let in_ch2_back = sys.add_fifo(CFifo::new("in:ch2-back", caps[3].0));
    let audio_ch1 = sys.add_fifo(CFifo::new("audio:ch1(mono)", caps[2].1));
    let audio_ch2 = sys.add_fifo(CFifo::new("audio:ch2(right)", caps[3].1));
    let left_out = sys.add_fifo(CFifo::new("audio:L", 1 << 20));
    let right_out = sys.add_fifo(CFifo::new("audio:R", 1 << 20));

    // --- accelerators: ONE CORDIC + ONE FIR+8:1 (the shared pair) ---
    let cordic = sys.add_accel(AcceleratorTile::new("CORDIC", 1, 0, 10, 2, 11, 2, 1));
    let fir = sys.add_accel(AcceleratorTile::new("FIR+D", 2, 1, 11, 3, 12, 2, 1));

    // --- gateway pair over [CORDIC, FIR+D] ---
    let mut gw = GatewayPair::new(
        "gw",
        0,
        3,
        vec![cordic, fir],
        1,
        10, // entry DMA -> CORDIC link
        2,
        12, // FIR -> exit link
        2,
        cfg.epsilon,
        cfg.delta,
    );

    let fs = pal.fs;
    let fs_mid = pal.intermediate_rate();
    let taps = cfg.fir_taps;
    let mk_front = |carrier: f64| -> Vec<Box<dyn StreamKernel>> {
        vec![
            Box::new(MixerKernel(Mixer::new(carrier, fs))),
            Box::new(DecimatorKernel(Decimator::design(taps, 8, fs))),
        ]
    };
    let mk_back = || -> Vec<Box<dyn StreamKernel>> {
        vec![
            Box::new(FmDemodKernel(FmDemodulator::new(pal.deviation, fs_mid))),
            Box::new(DecimatorKernel(Decimator::design(taps, 8, fs_mid))),
        ]
    };

    let s0 = gw.add_stream(StreamConfig::new(
        "ch1-front",
        in_ch1_front,
        in_ch1_back,
        cfg.etas[0] as usize,
        (cfg.etas[0] / 8) as usize,
        cfg.reconfig,
        mk_front(pal.f_carrier1),
    ));
    let s1 = gw.add_stream(StreamConfig::new(
        "ch2-front",
        in_ch2_front,
        in_ch2_back,
        cfg.etas[1] as usize,
        (cfg.etas[1] / 8) as usize,
        cfg.reconfig,
        mk_front(pal.f_carrier2),
    ));
    let s2 = gw.add_stream(StreamConfig::new(
        "ch1-back",
        in_ch1_back,
        audio_ch1,
        cfg.etas[2] as usize,
        (cfg.etas[2] / 8) as usize,
        cfg.reconfig,
        mk_back(),
    ));
    let s3 = gw.add_stream(StreamConfig::new(
        "ch2-back",
        in_ch2_back,
        audio_ch2,
        cfg.etas[3] as usize,
        (cfg.etas[3] / 8) as usize,
        cfg.reconfig,
        mk_back(),
    ));
    let gateway = sys.add_gateway(gw);

    // --- front-end processor ---
    let mut fe = ProcessorTile::new("FE");
    fe.add_task(
        Box::new(FrontEndTask::new(
            in_ch1_front.0,
            in_ch2_front.0,
            fs as u64,
            cfg.clock_hz,
            pal,
            cfg.tones.0,
            cfg.tones.1,
        )),
        1,
    );
    sys.add_processor(fe);

    // --- consumer processor: stereo matrix + sinks ---
    let mut consumer = ProcessorTile::new("consumer");
    consumer.add_task(
        Box::new(StereoMatrixTask::new(
            audio_ch1.0,
            audio_ch2.0,
            left_out.0,
            right_out.0,
            4,
        )),
        1,
    );
    sys.add_processor(consumer);

    PalSystem {
        system: sys,
        gateway,
        left_out,
        right_out,
        streams: [s0, s1, s2, s3],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_config_is_feasible_and_solved() {
        let cfg = PalSystemConfig::scaled_default();
        let prob = cfg.sharing_problem();
        assert!(prob.is_feasible());
        let r = crate::blocksize::solve_blocksizes_checked(&prob).unwrap();
        // Configured etas must satisfy the throughput constraint (they are
        // chosen at-or-above the solver's minimum).
        for (cfg_eta, min_eta) in cfg.etas.iter().zip(&r.etas) {
            assert!(cfg_eta >= min_eta, "{cfg_eta} < minimum {min_eta}");
        }
        assert!(prob.satisfies_throughput(&cfg.etas));
    }

    #[test]
    fn system_builds_and_steps() {
        let cfg = PalSystemConfig::scaled_default();
        let mut p = build_pal_system(&cfg);
        p.system.run(10_000);
        // Front end produced roughly fs/clock × cycles samples.
        assert!(p.system.fifos[0].pushed > 0);
    }

    #[test]
    fn blocks_flow_through_shared_chain() {
        let cfg = PalSystemConfig::scaled_default();
        let mut p = build_pal_system(&cfg);
        // Run until the first front block has been multiplexed.
        let done = p
            .system
            .run_until(500_000, |s| s.gateways[0].stream(0).blocks_done >= 1);
        assert!(done, "first block never completed");
        // And eventually a back block produces audio samples.
        let done = p
            .system
            .run_until(1_000_000, |s| s.gateways[0].stream(2).blocks_done >= 1);
        assert!(done, "audio block never completed");
        assert!(p.system.fifos[4].pushed > 0, "mono audio fifo stayed empty");
    }
}
