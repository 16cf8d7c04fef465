//! Signal quality measurement: Goertzel tone power, SNR, THD.
//!
//! Used by the tests and by experiment E6 to verify that the audio decoded
//! through the *shared-accelerator* platform matches the reference chain.

/// Power of the tone at frequency `f` Hz in `signal` (sample rate `fs`),
/// via the Goertzel algorithm. Returns mean-square amplitude (a unit sine
/// yields ≈ 0.5).
pub fn tone_power(signal: &[f64], f: f64, fs: f64) -> f64 {
    if signal.is_empty() {
        return 0.0;
    }
    let n = signal.len();
    let w = std::f64::consts::TAU * f / fs;
    let coeff = 2.0 * w.cos();
    let (mut s_prev, mut s_prev2) = (0.0f64, 0.0f64);
    for &x in signal {
        let s = x + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    let power = s_prev2 * s_prev2 + s_prev * s_prev - coeff * s_prev * s_prev2;
    // Normalise: |X(f)|^2 * (2/N^2) gives the tone's mean-square value.
    2.0 * power / (n as f64 * n as f64)
}

/// Total mean-square power of a signal.
pub fn total_power(signal: &[f64]) -> f64 {
    if signal.is_empty() {
        return 0.0;
    }
    signal.iter().map(|x| x * x).sum::<f64>() / signal.len() as f64
}

/// Signal-to-noise ratio in dB, treating the tone at `f` as signal and
/// everything else as noise.
pub fn snr_db(signal: &[f64], f: f64, fs: f64) -> f64 {
    let sig = tone_power(signal, f, fs);
    let noise = (total_power(signal) - sig).max(1e-30);
    10.0 * (sig / noise).log10()
}

/// Root-mean-square difference between two signals over their common prefix.
pub fn rms_error(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    if n == 0 {
        return 0.0;
    }
    let sum: f64 = a[..n]
        .iter()
        .zip(&b[..n])
        .map(|(x, y)| (x - y) * (x - y))
        .sum();
    (sum / n as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    fn tone(n: usize, f: f64, fs: f64, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|k| amp * (TAU * f * k as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn goertzel_measures_unit_sine() {
        let fs = 8000.0;
        let s = tone(8000, 1000.0, fs, 1.0);
        let p = tone_power(&s, 1000.0, fs);
        assert!((p - 0.5).abs() < 1e-3, "power {p}");
        // Off-frequency bins see almost nothing.
        let p_off = tone_power(&s, 1800.0, fs);
        assert!(p_off < 1e-4, "leak {p_off}");
    }

    #[test]
    fn amplitude_scales_quadratically() {
        let fs = 8000.0;
        let p1 = tone_power(&tone(4000, 500.0, fs, 1.0), 500.0, fs);
        let p2 = tone_power(&tone(4000, 500.0, fs, 0.5), 500.0, fs);
        assert!((p1 / p2 - 4.0).abs() < 0.01);
    }

    #[test]
    fn snr_of_pure_tone_is_high() {
        let fs = 8000.0;
        let s = tone(8000, 1000.0, fs, 1.0);
        assert!(snr_db(&s, 1000.0, fs) > 30.0);
    }

    #[test]
    fn snr_degrades_with_noise() {
        let fs = 8000.0;
        let mut s = tone(8000, 1000.0, fs, 1.0);
        // Add deterministic "noise".
        for (k, x) in s.iter_mut().enumerate() {
            *x += 0.3 * ((k as f64 * 1.7).sin() * (k as f64 * 0.31).cos());
        }
        let snr = snr_db(&s, 1000.0, fs);
        assert!(snr < 15.0, "snr {snr}");
        assert!(snr > 0.0);
    }

    #[test]
    fn thd_detects_harmonics() {
        let fs = 8000.0;
        let clean = tone(8000, 400.0, fs, 1.0);
        let mut dirty = clean.clone();
        for (k, x) in dirty.iter_mut().enumerate() {
            *x += 0.1 * (TAU * 800.0 * k as f64 / fs).sin();
        }
        // Second-harmonic power over the fundamental's, in dB.
        let h2_db = |s: &[f64]| {
            10.0 * (tone_power(s, 800.0, fs).max(1e-30) / tone_power(s, 400.0, fs)).log10()
        };
        assert!(h2_db(&clean) < -40.0);
        let d = h2_db(&dirty);
        assert!((-21.0..=-19.0).contains(&d), "second harmonic {d} dB");
    }

    #[test]
    fn rms_error_basics() {
        assert_eq!(rms_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        let e = rms_error(&[1.0, 1.0], &[0.0, 0.0]);
        assert!((e - 1.0).abs() < 1e-12);
        assert_eq!(rms_error(&[], &[1.0]), 0.0);
    }
}
