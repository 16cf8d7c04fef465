//! Gateway/stream parameter sets and the constants of Eq. 6–9.
//!
//! Notation (paper §V):
//!
//! * `ε` — entry-gateway DMA time per sample (15 cycles in the prototype);
//! * `ρ_A` — worst-case accelerator time per sample over the chain (1);
//! * `δ` — exit-gateway time per sample (1);
//! * `R_s` — reconfiguration time per block of stream `s` (4100);
//! * `μ_s` — required throughput of stream `s` in samples/cycle;
//! * `c0 = max(ε, ρ_A, δ)`, `c1 = Σ_s R_s`.

use streamgate_ilp::Rational;

/// Calibrated clock for the PAL decoder problem: the paper's prototype ran
/// on a Virtex-6 at a nominal 100 MHz; 99.8575 MHz makes Algorithm 1 return
/// the published block sizes (10136 / 1267) exactly under integer rounding.
pub const PAL_CLOCK_HZ: u64 = 99_857_500;

/// Timing parameters of one gateway pair and its accelerator chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GatewayParams {
    /// Entry-gateway copy time per sample, ε (cycles).
    pub epsilon: u64,
    /// Worst-case per-sample firing duration over the chained accelerators,
    /// ρ_A (cycles).
    pub rho_a: u64,
    /// Exit-gateway copy time per sample, δ (cycles).
    pub delta: u64,
}

impl GatewayParams {
    /// The paper's prototype: ε = 15, ρ_A = 1, δ = 1 (§VI-A).
    pub fn paper_prototype() -> Self {
        GatewayParams {
            epsilon: 15,
            rho_a: 1,
            delta: 1,
        }
    }

    /// `c0 = max(ε, ρ_A, δ)` (Eq. 8) — the per-sample pace of the chain.
    pub fn c0(&self) -> u64 {
        self.epsilon.max(self.rho_a).max(self.delta)
    }
}

/// Requirements of one multiplexed stream.
#[derive(Clone, Debug)]
pub struct StreamSpec {
    /// Diagnostic name.
    pub name: String,
    /// Minimum throughput μ_s in samples per cycle (e.g. 44100 samples/s on
    /// a 12.48 MHz clock = `rat(44100, 12_480_000)`).
    pub mu: Rational,
    /// Reconfiguration time R_s (cycles).
    pub reconfig: u64,
}

impl StreamSpec {
    /// Build a spec from a sample rate in Hz and a clock in Hz.
    pub fn from_rates(
        name: impl Into<String>,
        samples_per_s: u64,
        clock_hz: u64,
        reconfig: u64,
    ) -> Self {
        StreamSpec {
            name: name.into(),
            mu: Rational::new(samples_per_s as i128, clock_hz as i128),
            reconfig,
        }
    }
}

/// A gateway sharing problem: parameters plus the set `S` of streams.
#[derive(Clone, Debug)]
pub struct SharingProblem {
    /// Chain timing parameters.
    pub params: GatewayParams,
    /// The streams multiplexed over the chain.
    pub streams: Vec<StreamSpec>,
}

impl SharingProblem {
    /// `c1 = Σ_{s∈S} R_s` (Eq. 9).
    pub fn c1(&self) -> u64 {
        self.streams.iter().map(|s| s.reconfig).sum()
    }

    /// Utilisation bound: the problem is feasible for *some* block sizes iff
    /// `c0 · Σ_s μ_s < 1` — each sample of each stream occupies the chain
    /// for `c0` cycles regardless of blocking, and reconfiguration overhead
    /// only adds to that.
    ///
    /// Panics where exact `i128` arithmetic overflows; see
    /// [`SharingProblem::checked_utilisation`].
    pub fn utilisation(&self) -> Rational {
        self.checked_utilisation()
            .expect("utilisation c0·Σμ overflows i128")
    }

    /// [`SharingProblem::utilisation`], or `None` where exact `i128`
    /// arithmetic overflows (rates with large, pairwise coprime
    /// denominators).
    pub fn checked_utilisation(&self) -> Option<Rational> {
        let c0 = Rational::from_int(self.params.c0() as i128);
        self.streams.iter().try_fold(Rational::ZERO, |acc, s| {
            acc.checked_add(&c0.checked_mul(&s.mu)?)
        })
    }

    /// True if the utilisation bound admits a solution.
    pub fn is_feasible(&self) -> bool {
        self.utilisation() < Rational::ONE
    }

    /// `τ̂_s = R_s + (η_s + 2) · c0` (Eq. 2): worst-case time to process one
    /// block of `η_s` samples, including pipeline fill/flush (+2) and
    /// reconfiguration.
    pub fn tau_hat(&self, stream: usize, eta: u64) -> u64 {
        self.streams[stream].reconfig + (eta + 2) * self.params.c0()
    }

    /// `γ_s = Σ_{i∈S} τ̂_i` (Eq. 4): worst-case time from a block of stream
    /// `s` being queued to its completion, when every other stream gets one
    /// block in between (round-robin).
    pub fn gamma(&self, etas: &[u64]) -> u64 {
        assert_eq!(etas.len(), self.streams.len());
        (0..self.streams.len())
            .map(|i| self.tau_hat(i, etas[i]))
            .sum()
    }

    /// Throughput check (Eq. 5): `η_s / γ_s ≥ μ_s` for every stream.
    pub fn satisfies_throughput(&self, etas: &[u64]) -> bool {
        let gamma = Rational::from_int(self.gamma(etas) as i128);
        self.streams
            .iter()
            .zip(etas)
            .all(|(s, &eta)| Rational::from_int(eta as i128) >= s.mu * gamma)
    }

    /// The paper's PAL stereo decoder stream set (§VI-A): four streams over
    /// {CORDIC, FIR+8:1}. μ_s is the *chain-input* rate of each stream (the
    /// entry DMA copies input samples at ε cycles each): the two front-half
    /// streams ingest baseband at 64 × 44.1 k = 2.8224 MS/s, the two
    /// back-half streams ingest the intermediate rate 8 × 44.1 k =
    /// 352.8 kS/s; all have R_s = 4100.
    ///
    /// The paper does not state the clock; `clock_hz` calibrates μ. With
    /// [`PAL_CLOCK_HZ`] (≈ 99.86 MHz, i.e. a nominal 100 MHz Virtex-6
    /// clock) the published block sizes (10136 / 1267) are reproduced
    /// exactly — see EXPERIMENTS.md for the calibration and its
    /// sensitivity (the system runs at 95.4 % utilisation, so block sizes
    /// scale like 1/(1 − U)).
    pub fn pal_decoder(clock_hz: u64) -> Self {
        let audio = 44_100u64;
        SharingProblem {
            params: GatewayParams::paper_prototype(),
            streams: vec![
                StreamSpec::from_rates("ch1-front", 64 * audio, clock_hz, 4100),
                StreamSpec::from_rates("ch2-front", 64 * audio, clock_hz, 4100),
                StreamSpec::from_rates("ch1-back", 8 * audio, clock_hz, 4100),
                StreamSpec::from_rates("ch2-back", 8 * audio, clock_hz, 4100),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamgate_ilp::rat;

    #[test]
    fn c0_is_max() {
        let p = GatewayParams::paper_prototype();
        assert_eq!(p.c0(), 15);
        let p2 = GatewayParams {
            epsilon: 1,
            rho_a: 9,
            delta: 2,
        };
        assert_eq!(p2.c0(), 9);
    }

    #[test]
    fn c1_sums_reconfig() {
        let prob = SharingProblem::pal_decoder(PAL_CLOCK_HZ);
        assert_eq!(prob.c1(), 4 * 4100);
    }

    #[test]
    fn tau_hat_formula() {
        let prob = SharingProblem::pal_decoder(PAL_CLOCK_HZ);
        // τ̂ = 4100 + (η + 2) · 15
        assert_eq!(prob.tau_hat(0, 10), 4100 + 12 * 15);
    }

    #[test]
    fn gamma_sums_all_streams() {
        let prob = SharingProblem::pal_decoder(PAL_CLOCK_HZ);
        let etas = [10, 10, 5, 5];
        let want: u64 = 4 * 4100 + 15 * ((10 + 2) * 2 + (5 + 2) * 2);
        assert_eq!(prob.gamma(&etas), want);
    }

    #[test]
    fn feasibility_depends_on_clock() {
        // Utilisation = 15 · (2·2822400 + 2·352800) / f = 15 · 6350400 / f.
        // Needs f > 95.256 MHz.
        assert!(!SharingProblem::pal_decoder(90_000_000).is_feasible());
        assert!(SharingProblem::pal_decoder(PAL_CLOCK_HZ).is_feasible());
        let u = SharingProblem::pal_decoder(95_256_000).utilisation();
        assert_eq!(u, rat(1, 1), "boundary exactly at 95.256 MHz");
    }

    #[test]
    fn pal_runs_near_saturation() {
        let u = SharingProblem::pal_decoder(PAL_CLOCK_HZ).utilisation();
        let u = u.to_f64();
        assert!(u > 0.95 && u < 0.96, "utilisation {u}");
    }

    #[test]
    fn throughput_check_matches_formula() {
        let prob = SharingProblem::pal_decoder(PAL_CLOCK_HZ);
        // Published block sizes satisfy Eq. 5…
        assert!(prob.satisfies_throughput(&[10136, 10136, 1267, 1267]));
        // …and shrinking a back-half stream violates it.
        assert!(!prob.satisfies_throughput(&[10136, 10136, 1266, 1267]));
    }
}
