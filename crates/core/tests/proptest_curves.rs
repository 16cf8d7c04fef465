//! Property tests for the empirical arrival/service curves of the
//! profiling subsystem: over random event traces, the sliding-window
//! max/min counters must equal a brute-force count over every window
//! start, and behave like arrival curves — monotone in the window size,
//! subadditive-consistent across the log-spaced window list, and exact at
//! the extremes.

use proptest::collection::vec;
use proptest::prelude::*;
use streamgate_core::{log2_histogram, log_windows, EmpiricalCurve};

/// A random event trace inside a random observation interval: cycle
/// values in `[0, len)`, unsorted and possibly duplicated, plus the
/// interval length itself. Duplicates are real inputs: a hop carries at
/// most one flit per cycle, but block completions and FIFO pushes of one
/// curve can share a cycle.
fn trace() -> impl Strategy<Value = (Vec<u64>, u64)> {
    (1u64..5_000).prop_flat_map(|len| (vec(0..len, 0..200), Just(len)))
}

/// Traces small enough to count by brute force: `len < 300` and at most
/// 60 events, so duplicates are common; `len = 1` and the empty trace each
/// come up in about one case in eight.
fn small_trace() -> impl Strategy<Value = (Vec<u64>, u64)> {
    (0u64..8, 2u64..300)
        .prop_map(|(k, len)| if k == 0 { 1 } else { len })
        .prop_flat_map(|len| (0u64..8, vec(0..len, 0..=60), Just(len)))
        .prop_map(|(k, events, len)| (if k == 0 { Vec::new() } else { events }, len))
}

/// The curve's definition, evaluated at every window start: the max over
/// all starts `t ∈ [0, len)`, the min over the fully contained starts
/// `t ∈ [0, len − w]` (the event count `n` when `w ≥ len`).
fn brute_force_curve(events: &[u64], len: u64, windows: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let count = |t: u64, w: u64| events.iter().filter(|&&e| t <= e && e < t + w).count() as u64;
    let max = windows
        .iter()
        .map(|&w| (0..len).map(|t| count(t, w)).max().unwrap())
        .collect();
    let min = windows
        .iter()
        .map(|&w| {
            if w >= len {
                events.len() as u64
            } else {
                (0..=len - w).map(|t| count(t, w)).min().unwrap()
            }
        })
        .collect();
    (max, min)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Exactness oracle: every max and min count equals the brute-force
    /// count, on the log-spaced windows plus a few arbitrary sizes (some
    /// past `len`).
    #[test]
    fn curve_matches_brute_force(
        (mut events, len) in small_trace(),
        extra in vec(1u64..320, 0..4),
    ) {
        events.sort_unstable();
        let mut windows = log_windows(len);
        windows.extend(extra);
        windows.sort_unstable();
        windows.dedup();
        let c = EmpiricalCurve::from_events(&events, len, &windows);
        let (max, min) = brute_force_curve(&events, len, &windows);
        prop_assert_eq!(c.max_count, max);
        prop_assert_eq!(c.min_count, min);
    }

    /// Both counters are monotone in the window size: a wider window can
    /// only see more events at its peak and at its trough.
    #[test]
    fn curves_monotone_in_window_size((mut events, len) in trace()) {
        events.sort_unstable();
        let windows = log_windows(len);
        let c = EmpiricalCurve::from_events(&events, len, &windows);
        for i in 1..windows.len() {
            prop_assert!(c.max_count[i] >= c.max_count[i - 1]);
            prop_assert!(c.min_count[i] >= c.min_count[i - 1]);
        }
    }

    /// Subadditive consistency on the log-spaced list: a `2w` window is
    /// two `w` windows, so its peak count is at most twice theirs (the
    /// defining property of an arrival curve, checkable without computing
    /// every window size).
    #[test]
    fn max_curve_subadditive_on_doubling((mut events, len) in trace()) {
        events.sort_unstable();
        let windows = log_windows(len);
        let c = EmpiricalCurve::from_events(&events, len, &windows);
        for i in 1..windows.len() {
            if windows[i] == 2 * windows[i - 1] {
                prop_assert!(c.max_count[i] <= 2 * c.max_count[i - 1]);
            }
        }
    }

    /// Exactness at the extremes: the window spanning the whole interval
    /// counts every event (max == min == total), the min never exceeds
    /// the max anywhere, and a 1-cycle window's peak is the highest
    /// per-cycle multiplicity in the trace.
    #[test]
    fn curve_extremes_are_exact((mut events, len) in trace()) {
        events.sort_unstable();
        let windows = log_windows(len);
        let c = EmpiricalCurve::from_events(&events, len, &windows);
        let n = events.len() as u64;
        prop_assert_eq!(c.total(), n);
        prop_assert_eq!(*c.min_count.last().unwrap(), n);
        for i in 0..windows.len() {
            prop_assert!(c.min_count[i] <= c.max_count[i]);
        }
        let peak1 = events
            .chunk_by(|a, b| a == b)
            .map(|run| run.len() as u64)
            .max()
            .unwrap_or(0);
        prop_assert_eq!(c.max_count[0], peak1);
    }

    /// The log-spaced window list always covers the interval: it starts
    /// at 1, ends exactly at `len`, and is strictly increasing.
    #[test]
    fn log_windows_cover_any_span(len in 1u64..1_000_000) {
        let w = log_windows(len);
        prop_assert_eq!(w[0], 1);
        prop_assert_eq!(*w.last().unwrap(), len);
        for i in 1..w.len() {
            prop_assert!(w[i] > w[i - 1]);
        }
    }

    /// The log₂ histogram conserves mass: bucket counts sum to the number
    /// of values binned.
    #[test]
    fn log2_histogram_conserves_mass(values in vec(0u64..1_000_000, 0..200)) {
        let h = log2_histogram(values.iter().copied());
        prop_assert_eq!(h.iter().sum::<u64>(), values.len() as u64);
    }
}
