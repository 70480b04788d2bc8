//! The synthetic trend model.
//!
//! The paper's streams are low-level measurements with trends to discover
//! (power usage per user/street/minute). Every generated stream is a noisy
//! line: mostly quiet ones plus a small share of strong trends, which is
//! what gives the exception-threshold sweeps of Figure 8 their range. The
//! mixture makes a 1% exception rate reachable at moderate thresholds
//! while 100% needs a threshold near 0.

use rand::rngs::StdRng;
use rand::Rng;
use regcube_regress::TimeSeries;

/// Share of streams with strong trends.
const HOT_FRACTION: f64 = 0.05;
/// Maximum |slope| of a hot stream.
const HOT_SLOPE: f64 = 2.0;
/// Maximum |slope| of a quiet stream.
const QUIET_SLOPE: f64 = 0.05;
/// Uniform noise amplitude of every stream.
const NOISE: f64 = 0.05;
/// Bases are uniform in `0..BASE_RANGE`.
const BASE_RANGE: f64 = 10.0;

/// One stream's model: `base + slope·t + U(-NOISE, NOISE)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LinearTrend {
    base: f64,
    slope: f64,
}

impl LinearTrend {
    /// Draws one stream's model from the mixture: whether it is hot,
    /// then its slope, then its base.
    pub(crate) fn draw(rng: &mut StdRng) -> Self {
        let max = if rng.random_bool(HOT_FRACTION) {
            HOT_SLOPE
        } else {
            QUIET_SLOPE
        };
        let slope = rng.random_range(-max..max);
        let base = rng.random_range(0.0..BASE_RANGE);
        LinearTrend { base, slope }
    }

    /// Samples a series over `[start, start + len - 1]`, one noise draw
    /// per tick.
    ///
    /// # Panics
    /// Panics when `len == 0` (callers validate window widths).
    pub(crate) fn sample(&self, rng: &mut StdRng, start: i64, len: usize) -> TimeSeries {
        assert!(len > 0, "series length must be positive");
        let values: Vec<f64> = (0..len)
            .map(|i| {
                let t = start + i as i64;
                self.base + self.slope * t as f64 + rng.random_range(-NOISE..NOISE)
            })
            .collect();
        TimeSeries::new(start, values).expect("len > 0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use regcube_regress::LinearFit;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn samples_are_the_line_plus_bounded_noise() {
        let m = LinearTrend {
            base: 1.0,
            slope: 0.5,
        };
        let z = m.sample(&mut rng(), 10, 20);
        assert_eq!(z.interval(), (10, 29));
        for (i, v) in z.values().iter().enumerate() {
            let line = 1.0 + 0.5 * (10 + i) as f64;
            assert!((v - line).abs() < NOISE, "tick {i}: {v} vs {line}");
        }
        let fit = LinearFit::fit(&z);
        assert!((fit.slope - 0.5).abs() < 0.01, "slope {}", fit.slope);
    }

    #[test]
    fn mixture_produces_hot_and_quiet_streams() {
        let mut r = rng();
        let n = 4000;
        let mut hot = 0;
        for _ in 0..n {
            let m = LinearTrend::draw(&mut r);
            assert!(m.slope.abs() < HOT_SLOPE);
            assert!((0.0..BASE_RANGE).contains(&m.base));
            if m.slope.abs() > QUIET_SLOPE {
                hot += 1;
            }
        }
        // A hot slope lands inside the quiet band with probability
        // QUIET_SLOPE / HOT_SLOPE.
        let expected = HOT_FRACTION * (1.0 - QUIET_SLOPE / HOT_SLOPE);
        let frac = hot as f64 / n as f64;
        assert!((frac - expected).abs() < 0.015, "hot fraction {frac}");
    }
}
