//! FIR filter design (windowed sinc) and streaming application.
//!
//! The paper's second accelerator is "a 33-taps complex FIR filter with
//! built-in programmable down-sampler" (§VI-B). This module designs the
//! low-pass prototypes and applies them sample by sample with persistent
//! state — exactly the stateful behaviour that forces the gateways to
//! save/restore accelerator state on every stream switch.

use crate::complex::Complex;

/// Window functions for FIR design.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Window {
    /// Rectangular (no) window.
    Rectangular,
    /// Hamming window — the default, matching a typical 33-tap FPGA filter.
    Hamming,
    /// Blackman window — more stop-band attenuation, wider transition.
    Blackman,
}

impl Window {
    /// Window coefficient at position `n` of `len`.
    pub fn coeff(&self, n: usize, len: usize) -> f64 {
        if len <= 1 {
            return 1.0;
        }
        let x = n as f64 / (len - 1) as f64;
        let tau = std::f64::consts::TAU;
        match self {
            Window::Rectangular => 1.0,
            Window::Hamming => 0.54 - 0.46 * (tau * x).cos(),
            Window::Blackman => 0.42 - 0.5 * (tau * x).cos() + 0.08 * (2.0 * tau * x).cos(),
        }
    }
}

/// Design a linear-phase low-pass FIR with `taps` coefficients and cutoff
/// `fc` Hz at sample rate `fs` Hz, unit DC gain.
pub fn design_lowpass(taps: usize, fc: f64, fs: f64, window: Window) -> Vec<f64> {
    assert!(taps >= 1, "need at least one tap");
    assert!(fc > 0.0 && fc < fs / 2.0, "cutoff must be in (0, fs/2)");
    let wc = std::f64::consts::TAU * fc / fs;
    let mid = (taps - 1) as f64 / 2.0;
    let mut h: Vec<f64> = (0..taps)
        .map(|n| {
            let m = n as f64 - mid;
            let sinc = if m.abs() < 1e-12 {
                wc / std::f64::consts::PI
            } else {
                (wc * m).sin() / (std::f64::consts::PI * m)
            };
            sinc * window.coeff(n, taps)
        })
        .collect();
    // Normalise DC gain to 1.
    let sum: f64 = h.iter().sum();
    for c in &mut h {
        *c /= sum;
    }
    h
}

/// Magnitude response of a real FIR at frequency `f` Hz (sample rate `fs`).
pub fn magnitude_response(h: &[f64], f: f64, fs: f64) -> f64 {
    let w = std::f64::consts::TAU * f / fs;
    let mut acc = Complex::ZERO;
    for (n, &c) in h.iter().enumerate() {
        acc += Complex::from_angle(-w * n as f64) * c;
    }
    acc.abs()
}

/// Streaming complex FIR filter with persistent delay line.
#[derive(Clone, Debug)]
pub struct FirFilter {
    taps: Vec<f64>,
    /// Circular delay line, most recent sample at `pos`.
    delay: Vec<Complex>,
    pos: usize,
}

impl FirFilter {
    /// Build from designed coefficients.
    pub fn new(taps: Vec<f64>) -> Self {
        assert!(!taps.is_empty());
        let n = taps.len();
        FirFilter {
            taps,
            delay: vec![Complex::ZERO; n],
            pos: 0,
        }
    }

    /// Number of taps.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// True if the filter has no taps (cannot happen after `new`).
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }

    /// Push one sample, get the filtered output.
    ///
    /// The circular convolution is split at the write position into two
    /// contiguous slices so the inner loops are modulo-free and the
    /// compiler can vectorise them; the accumulation order (tap index
    /// ascending) is unchanged, so results stay bit-identical to the
    /// naive form.
    pub fn process(&mut self, s: Complex) -> Complex {
        self.delay[self.pos] = s;
        let n = self.taps.len();
        let mut acc = Complex::ZERO;
        // taps[k] pairs with delay[(pos + n - k) % n]:
        //   k in 0..=pos   -> delay[pos - k]      (d_lo reversed)
        //   k in pos+1..n  -> delay[pos + n - k]  (d_hi reversed)
        let (d_lo, d_hi) = self.delay.split_at(self.pos + 1);
        for (&c, &d) in self.taps.iter().zip(d_lo.iter().rev()) {
            acc += d * c;
        }
        for (&c, &d) in self.taps[self.pos + 1..].iter().zip(d_hi.iter().rev()) {
            acc += d * c;
        }
        self.pos += 1;
        if self.pos == n {
            self.pos = 0;
        }
        acc
    }

    /// Snapshot of the internal state (delay line + position) — the
    /// "accelerator state" the gateways save and restore on context
    /// switches.
    pub fn save_state(&self) -> FirState {
        FirState {
            delay: self.delay.clone(),
            pos: self.pos,
        }
    }

    /// Restore a previously saved state.
    pub fn restore_state(&mut self, state: &FirState) {
        assert_eq!(state.delay.len(), self.delay.len(), "state size mismatch");
        self.delay.clone_from(&state.delay);
        self.pos = state.pos;
    }

    /// Clear the delay line.
    pub fn reset(&mut self) {
        self.delay.fill(Complex::ZERO);
        self.pos = 0;
    }
}

/// Saved FIR delay-line state.
#[derive(Clone, Debug, PartialEq)]
pub struct FirState {
    delay: Vec<Complex>,
    pos: usize,
}

impl FirState {
    /// Size of the state in samples (what the configuration bus must move).
    pub fn size_samples(&self) -> usize {
        self.delay.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    #[test]
    fn lowpass_passes_dc_blocks_high() {
        let h = design_lowpass(33, 100.0, 1000.0, Window::Hamming);
        assert_eq!(h.len(), 33);
        let dc = magnitude_response(&h, 0.0, 1000.0);
        let pass = magnitude_response(&h, 50.0, 1000.0);
        let stop = magnitude_response(&h, 400.0, 1000.0);
        assert!((dc - 1.0).abs() < 1e-12);
        assert!(pass > 0.9, "passband droop: {pass}");
        assert!(stop < 0.01, "stopband leak: {stop}");
    }

    #[test]
    fn filter_is_linear_phase_symmetric() {
        let h = design_lowpass(33, 100.0, 1000.0, Window::Hamming);
        for k in 0..h.len() / 2 {
            assert!((h[k] - h[h.len() - 1 - k]).abs() < 1e-15);
        }
    }

    #[test]
    fn blackman_attenuates_more_than_hamming() {
        let hh = design_lowpass(33, 100.0, 1000.0, Window::Hamming);
        let hb = design_lowpass(33, 100.0, 1000.0, Window::Blackman);
        let sh = magnitude_response(&hh, 450.0, 1000.0);
        let sb = magnitude_response(&hb, 450.0, 1000.0);
        assert!(sb < sh, "blackman {sb} vs hamming {sh}");
    }

    #[test]
    fn streaming_matches_direct_convolution() {
        let h = design_lowpass(9, 100.0, 1000.0, Window::Hamming);
        let mut f = FirFilter::new(h.clone());
        let input: Vec<Complex> = (0..40)
            .map(|k| Complex::new((k as f64 * 0.3).sin(), (k as f64 * 0.17).cos()))
            .collect();
        for (n, &s) in input.iter().enumerate() {
            let out = f.process(s);
            // Direct convolution reference.
            let mut want = Complex::ZERO;
            for (k, &c) in h.iter().enumerate() {
                if n >= k {
                    want += input[n - k] * c;
                }
            }
            assert!(
                (out - want).abs() < 1e-12,
                "sample {n}: {out:?} vs {want:?}"
            );
        }
    }

    #[test]
    fn tone_attenuation_end_to_end() {
        // 50 Hz passes, 400 Hz is crushed.
        let h = design_lowpass(65, 100.0, 1000.0, Window::Hamming);
        let mut f = FirFilter::new(h);
        let n = 2000;
        let mut pass_power = 0.0;
        let mut stop_power = 0.0;
        let mut f2 = f.clone();
        for k in 0..n {
            let t = k as f64 / 1000.0;
            let a = f.process(Complex::new((TAU * 50.0 * t).sin(), 0.0));
            let b = f2.process(Complex::new((TAU * 400.0 * t).sin(), 0.0));
            if k > 200 {
                pass_power += a.norm_sqr();
                stop_power += b.norm_sqr();
            }
        }
        assert!(
            pass_power / stop_power > 1e4,
            "ratio {}",
            pass_power / stop_power
        );
    }

    #[test]
    fn save_restore_roundtrip() {
        let h = design_lowpass(17, 100.0, 1000.0, Window::Hamming);
        let mut f = FirFilter::new(h);
        for k in 0..10 {
            f.process(Complex::new(k as f64, -(k as f64)));
        }
        let state = f.save_state();
        assert_eq!(state.size_samples(), 17);
        // Two clones diverge, restore re-converges.
        let mut f2 = f.clone();
        f.process(Complex::new(99.0, 0.0));
        assert_ne!(f.save_state(), state);
        f.restore_state(&state);
        let a = f.process(Complex::new(1.0, 2.0));
        let b = f2.process(Complex::new(1.0, 2.0));
        assert_eq!(a, b, "restored filter must continue identically");
    }

    #[test]
    #[should_panic(expected = "cutoff must be in")]
    fn bad_cutoff_rejected() {
        let _ = design_lowpass(33, 600.0, 1000.0, Window::Hamming);
    }
}

/// A band-pass made by spectral subtraction of two low-pass prototypes of
/// one length: it passes the band between the two cut-offs and blocks DC
/// because each prototype has unit DC gain and a clean stop band.
#[cfg(test)]
mod bandpass_tests {
    use super::*;

    fn bandpass(f_lo: f64, f_hi: f64) -> Vec<f64> {
        let hi = design_lowpass(65, f_hi, 1000.0, Window::Hamming);
        let lo = design_lowpass(65, f_lo, 1000.0, Window::Hamming);
        hi.iter().zip(&lo).map(|(a, b)| a - b).collect()
    }

    #[test]
    fn bandpass_selects_band() {
        let h = bandpass(150.0, 250.0);
        let centre = magnitude_response(&h, 200.0, 1000.0);
        let below = magnitude_response(&h, 50.0, 1000.0);
        let above = magnitude_response(&h, 400.0, 1000.0);
        assert!((centre - 1.0).abs() < 0.05, "centre gain {centre}");
        assert!(below < 0.05, "low leak {below}");
        assert!(above < 0.05, "high leak {above}");
    }

    #[test]
    fn bandpass_blocks_dc() {
        let dc: f64 = bandpass(150.0, 250.0).iter().sum();
        assert!(dc.abs() < 1e-9, "dc gain {dc}");
    }
}
