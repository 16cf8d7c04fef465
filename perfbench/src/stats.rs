//! Small measurement helpers: medians and percentiles, output checks, the
//! simulated-outcome fingerprint and the process's peak memory.

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty slice.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `v`; 0 for an empty
/// slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Counts the output checks a run makes; every failed check feeds
/// `error_rate` and turns the result line's `correct` to false.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, printed before the result line.
    pub messages: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }
}

/// FNV-1a hash of the simulated outcome. Engine work counters stay out of
/// it: performance changes are meant to move those, not the outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn add_str(&mut self, s: &str) {
        self.add(s.len() as u64);
        for b in s.bytes() {
            self.add(u64::from(b));
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The calibration kernel's time on the reference host (2 vCPU, 2.0 GHz).
/// Times are reported at this host speed.
pub const CALIBRATION_REF_S: f64 = 0.0012;

/// Host seconds of a fixed kernel that uses nothing from the repository:
/// fill a 64-KiB stack buffer with pseudo-random words and sort it, eight
/// times. It allocates nothing, so it neither adds to the process's peak
/// memory nor depends on the heap the workload leaves behind.
fn calibration_s() -> f64 {
    let t = std::time::Instant::now();
    let mut words = [0u64; 1 << 13];
    let mut rng = Rng::new(0x5eed);
    for _ in 0..8 {
        words.iter_mut().for_each(|w| *w = rng.next());
        words.sort_unstable();
        std::hint::black_box(&words);
    }
    t.elapsed().as_secs_f64()
}

/// How much slower than the reference host this host runs right now: the
/// best of three calibration-kernel times over [`CALIBRATION_REF_S`].
///
/// On a shared host the speed of the same work jumps by up to 1.8× from one
/// second to the next, and the workload and the kernel move together. Each
/// timed segment is therefore divided by the factor measured just before
/// it ([`HostTime`]).
pub fn host_factor() -> f64 {
    (0..3).map(|_| calibration_s()).fold(f64::INFINITY, f64::min) / CALIBRATION_REF_S
}

/// A host time as measured (`raw`) and at the reference host speed
/// (`norm`). A sum of segments sums each segment's normalized time.
#[derive(Clone, Copy, Default)]
pub struct HostTime {
    pub raw: f64,
    pub norm: f64,
}

impl HostTime {
    /// `raw` measured right after [`host_factor`] returned `host`.
    pub fn new(raw: f64, host: f64) -> HostTime {
        HostTime {
            raw,
            norm: raw / host,
        }
    }
}

impl std::ops::AddAssign for HostTime {
    fn add_assign(&mut self, other: HostTime) {
        self.raw += other.raw;
        self.norm += other.norm;
    }
}

pub fn raw(v: &[HostTime]) -> Vec<f64> {
    v.iter().map(|t| t.raw).collect()
}

pub fn norm(v: &[HostTime]) -> Vec<f64> {
    v.iter().map(|t| t.norm).collect()
}

/// Deterministic generator for the seeded workloads (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fingerprint_separates_orders() {
        let (mut a, mut b) = (Fingerprint::default(), Fingerprint::default());
        a.add(1);
        a.add(2);
        b.add(2);
        b.add(1);
        assert_ne!(a, b);
    }
}
