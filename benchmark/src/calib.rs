//! Calibrated time: a fixed reference slice run next to the measured
//! work, so that durations can be reported in "seconds on the reference
//! machine state".
//!
//! On a small shared VM the same work drifts by ±12–17 % between
//! back-to-back runs, in slow phases that last minutes; process CPU time
//! drifts with it (the vCPU itself gets slower), so neither CPU-time
//! accounting nor min-of-k helps. A co-running reference does: before
//! every unit of driven work the harness runs one [`Calibrator::slice`]
//! (excluded from every window) and every gated duration `d` measured
//! around time `t` is reported as `d × speed(t)`, with
//! `speed(t) = CAL_REF_MS / median(the 9 slices nearest t)`.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// What one slice costs on the reference machine state, in ms. A
/// constant, never read from the machine: changing it rescales every
/// calibrated time metric and so invalidates the recorded baseline.
pub const CAL_REF_MS: f64 = 11.0;

/// Dependent read-modify-writes per slice.
const STEPS: usize = 100_000;
/// `f64` slots in the buffer (8 MB: larger than this machine's L2, so
/// the slice feels memory-side slowdowns as the cube tables do).
const SLOTS: usize = 1 << 20;
/// How many slices around `t` vote on `speed(t)`.
pub const NEAREST: usize = 9;

/// Owns the reference buffers and the slice history of one run.
pub struct Calibrator {
    epoch: Instant,
    buf: Vec<f64>,
    map: HashMap<u64, u64>,
    /// `(midpoint ns since epoch, slice duration ms)`, in time order.
    samples: Vec<(u64, f64)>,
}

impl Calibrator {
    pub fn new(epoch: Instant) -> Self {
        let mut map = HashMap::with_capacity(8192);
        for k in 0..4096u64 {
            map.insert(k, 0);
        }
        Calibrator {
            epoch,
            buf: vec![1.0; SLOTS],
            map,
            samples: Vec::with_capacity(4096),
        }
    }

    /// Nanoseconds since the run's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs one reference slice — the same work whatever the seed or
    /// workload — and records how long it took. Returns its duration in
    /// ns so callers can account for it.
    pub fn slice(&mut self) -> u64 {
        let start = self.now_ns();
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut i = 0usize;
        for step in 0..STEPS {
            let x = self.buf[i] * 0.999 + 1.0;
            self.buf[i] = x;
            if step % 4 == 0 {
                *self.map.entry((i & 0xFFF) as u64).or_insert(0) += 1;
            }
            // The next index depends on the value just read, so the
            // loads cannot be overlapped or hoisted.
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407)
                ^ (x.to_bits() >> 20);
            i = (state >> 33) as usize % SLOTS;
        }
        black_box(&self.buf);
        black_box(&self.map);
        let end = self.now_ns();
        self.samples
            .push(((start + end) / 2, (end - start) as f64 / 1e6));
        end - start
    }

    /// `speed(t)`: above 1 when the machine is faster than the reference
    /// state, below 1 when slower; 1 before any slice ran.
    pub fn speed_at(&self, t_ns: u64) -> f64 {
        match nearest_median(&self.samples, t_ns, NEAREST) {
            Some(ms) if ms > 0.0 => CAL_REF_MS / ms,
            _ => 1.0,
        }
    }

    /// A duration measured around `t_ns`, on the reference machine state.
    pub fn calibrated(&self, duration_ns: u64, t_ns: u64) -> f64 {
        duration_ns as f64 * self.speed_at(t_ns)
    }

    /// `speed(t)` at every recorded slice, for the `harness.calib_speed_*`
    /// metrics.
    pub fn speeds(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|&(t, _)| self.speed_at(t))
            .collect()
    }
}

/// Median of the `k` samples whose timestamps are nearest to `t`
/// (`samples` ascending in time). `None` when there are no samples.
pub fn nearest_median(samples: &[(u64, f64)], t: u64, k: usize) -> Option<f64> {
    if samples.is_empty() || k == 0 {
        return None;
    }
    // Grow a window [lo, hi) outwards from the insertion point, always
    // taking the nearer neighbour.
    let mut hi = samples.partition_point(|&(ts, _)| ts < t);
    let mut lo = hi;
    while hi - lo < k && (lo > 0 || hi < samples.len()) {
        let left = (lo > 0).then(|| t.abs_diff(samples[lo - 1].0));
        let right = (hi < samples.len()).then(|| t.abs_diff(samples[hi].0));
        match (left, right) {
            (Some(l), Some(r)) if l <= r => lo -= 1,
            (Some(_), None) => lo -= 1,
            _ => hi += 1,
        }
    }
    let values: Vec<f64> = samples[lo..hi].iter().map(|&(_, v)| v).collect();
    Some(crate::stats::median(&values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_median_picks_the_closest_k() {
        let samples: Vec<(u64, f64)> = (0..20).map(|i| (i * 10, i as f64)).collect();
        // Around t=100 the 9 nearest are indices 6..=14 → median 10.
        assert_eq!(nearest_median(&samples, 100, 9), Some(10.0));
        // At the left edge the window is one-sided: indices 0..9 → 4.
        assert_eq!(nearest_median(&samples, 0, 9), Some(4.0));
        // At the right edge: indices 11..20 → 15.
        assert_eq!(nearest_median(&samples, 10_000, 9), Some(15.0));
        // Fewer samples than k: all of them vote.
        assert_eq!(nearest_median(&samples[..3], 5, 9), Some(1.0));
        assert_eq!(nearest_median(&[], 5, 9), None);
    }

    #[test]
    fn a_slow_phase_is_divided_out() {
        let mut cal = Calibrator::new(Instant::now());
        // Reference state for the first 20 slices, then twice as slow.
        for i in 0..40u64 {
            let ms = if i < 20 { CAL_REF_MS } else { 2.0 * CAL_REF_MS };
            cal.samples.push((i * 1_000_000, ms));
        }
        assert!((cal.speed_at(5_000_000) - 1.0).abs() < 1e-12);
        assert!((cal.speed_at(35_000_000) - 0.5).abs() < 1e-12);
        // The same work takes twice the wall time in the slow phase and
        // reads the same once calibrated.
        let fast = cal.calibrated(1_000, 5_000_000);
        let slow = cal.calibrated(2_000, 35_000_000);
        assert!((fast - slow).abs() < 1e-9);
    }

    #[test]
    fn a_real_slice_runs_and_is_recorded() {
        let mut cal = Calibrator::new(Instant::now());
        assert_eq!(cal.speed_at(0), 1.0);
        let ns = cal.slice();
        assert!(ns > 0);
        assert_eq!(cal.samples.len(), 1);
        assert!(cal.speed_at(cal.now_ns()) > 0.0);
    }
}
