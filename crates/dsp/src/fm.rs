//! FM modulation and CORDIC-based demodulation.
//!
//! The paper's second CORDIC pass "convert\[s\] the data stream from FM radio
//! to normal audio": a quadrature FM discriminator. Each output sample is
//! the phase difference between consecutive I/Q samples, computed with the
//! CORDIC in vectoring mode on the conjugate product — the standard FPGA
//! discriminator structure.

use crate::complex::Complex;
use crate::cordic::Cordic;

/// FM modulator (used by the PAL signal synthesiser).
#[derive(Clone, Debug)]
pub struct FmModulator {
    phase: f64,
    /// Phase step per unit input per sample: `2π · deviation / fs`.
    k: f64,
    /// Carrier phase step per sample: `2π · f_carrier / fs`.
    carrier_step: f64,
}

impl FmModulator {
    /// Modulator with carrier `f_carrier` Hz, peak deviation `deviation` Hz
    /// (for unit-amplitude input), at sample rate `fs`.
    pub fn new(f_carrier: f64, deviation: f64, fs: f64) -> Self {
        assert!(fs > 0.0);
        let tau = std::f64::consts::TAU;
        FmModulator {
            phase: 0.0,
            k: tau * deviation / fs,
            carrier_step: tau * f_carrier / fs,
        }
    }

    /// Modulate one message sample into one I/Q output sample.
    pub fn process(&mut self, msg: f64) -> Complex {
        self.phase += self.carrier_step + self.k * msg;
        // Keep the accumulator bounded.
        if self.phase > std::f64::consts::PI {
            self.phase -= std::f64::consts::TAU;
        } else if self.phase < -std::f64::consts::PI {
            self.phase += std::f64::consts::TAU;
        }
        Complex::from_angle(self.phase)
    }
}

/// Quadrature FM discriminator built on the CORDIC vectoring mode.
#[derive(Clone, Debug)]
pub struct FmDemodulator {
    cordic: Cordic,
    prev: Complex,
    /// Output scaling: radians/sample → message units.
    scale: f64,
}

impl FmDemodulator {
    /// Demodulator for deviation `deviation` Hz at sample rate `fs`; output
    /// is normalised so a full-deviation tone has unit amplitude.
    pub fn new(deviation: f64, fs: f64) -> Self {
        assert!(deviation > 0.0 && fs > 0.0);
        FmDemodulator {
            cordic: Cordic::default(),
            prev: Complex::ONE,
            scale: fs / (std::f64::consts::TAU * deviation),
        }
    }

    /// Demodulate one I/Q sample into one message sample.
    pub fn process(&mut self, s: Complex) -> f64 {
        let d = s * self.prev.conj();
        self.prev = s;
        // Normalise the conjugate product so the CORDIC fixed-point inputs
        // stay in range regardless of signal amplitude.
        let mag = d.abs();
        let dn = if mag > 1e-30 { d / mag } else { Complex::ONE };
        let phase = self.cordic.atan2(dn.im, dn.re);
        phase * self.scale
    }

    /// Saved discriminator state (the previous sample).
    pub fn save_state(&self) -> Complex {
        self.prev
    }

    /// Restore discriminator state.
    pub fn restore_state(&mut self, prev: Complex) {
        self.prev = prev;
    }

    /// Reset to the initial state.
    pub fn reset(&mut self) {
        self.prev = Complex::ONE;
    }
}

/// Reference (float, non-CORDIC) discriminator for accuracy comparisons.
pub fn reference_demod(prev: Complex, s: Complex, deviation: f64, fs: f64) -> f64 {
    let d = s * prev.conj();
    d.arg() * fs / (std::f64::consts::TAU * deviation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    #[test]
    fn mod_demod_roundtrip_tone() {
        let fs = 100_000.0;
        let dev = 5_000.0;
        let f_tone = 1_000.0;
        let mut m = FmModulator::new(0.0, dev, fs);
        let mut d = FmDemodulator::new(dev, fs);
        let n = 4000;
        let mut err = 0.0f64;
        let mut count = 0;
        for k in 0..n {
            let msg = (TAU * f_tone * k as f64 / fs).sin();
            let iq = m.process(msg);
            let out = d.process(iq);
            if k > 10 {
                err = err.max((out - msg).abs());
                count += 1;
            }
        }
        assert!(count > 0);
        assert!(err < 0.01, "max roundtrip error {err}");
    }

    #[test]
    fn carrier_offset_appears_as_dc() {
        // Modulate silence on a carrier 2 kHz off: demod output is a DC of
        // 2k/dev.
        let fs = 100_000.0;
        let dev = 5_000.0;
        let mut m = FmModulator::new(2_000.0, dev, fs);
        let mut d = FmDemodulator::new(dev, fs);
        let mut last = 0.0;
        for _ in 0..100 {
            last = d.process(m.process(0.0));
        }
        assert!((last - 0.4).abs() < 1e-3, "dc {last}");
    }

    #[test]
    fn amplitude_invariance() {
        // FM carries information in phase only: scaling the I/Q amplitude
        // must not change the output.
        let fs = 50_000.0;
        let dev = 2_000.0;
        let mut m = FmModulator::new(0.0, dev, fs);
        let mut d1 = FmDemodulator::new(dev, fs);
        let mut d2 = FmDemodulator::new(dev, fs);
        for k in 0..500 {
            let msg = (TAU * 440.0 * k as f64 / fs).sin();
            let iq = m.process(msg);
            let a = d1.process(iq);
            let b = d2.process(iq * 0.05);
            if k > 5 {
                assert!((a - b).abs() < 1e-4, "sample {k}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn cordic_demod_matches_reference() {
        let fs = 50_000.0;
        let dev = 2_000.0;
        let mut m = FmModulator::new(0.0, dev, fs);
        let mut d = FmDemodulator::new(dev, fs);
        let mut prev = Complex::ONE;
        for k in 0..500 {
            let msg = (TAU * 700.0 * k as f64 / fs).sin() * 0.8;
            let iq = m.process(msg);
            let got = d.process(iq);
            let want = reference_demod(prev, iq, dev, fs);
            prev = iq;
            assert!((got - want).abs() < 1e-4, "sample {k}: {got} vs {want}");
        }
    }

    #[test]
    fn save_restore_state() {
        let fs = 10_000.0;
        let dev = 1_000.0;
        let mut m = FmModulator::new(0.0, dev, fs);
        let mut d = FmDemodulator::new(dev, fs);
        for k in 0..50 {
            d.process(m.process((k as f64 * 0.1).sin()));
        }
        let st = d.save_state();
        let mut d2 = d.clone();
        d.process(Complex::new(0.0, 1.0)); // diverge
        d.restore_state(st);
        let s = Complex::from_angle(0.3);
        assert_eq!(d.process(s), d2.process(s));
    }
}
