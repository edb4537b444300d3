//! Small statistics helpers: nearest-rank percentiles with their sample
//! counts, geometric means and the trajectory digest.

use std::time::Duration;

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A bag of samples of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Nearest-rank percentile (`q` in `0..=1`); 0 for an empty bag.
    pub fn pct(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut s = self.0.clone();
        s.sort_by(f64::total_cmp);
        let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
        s[rank - 1]
    }

    /// The median, averaging the two middle samples of an even count.
    pub fn median(&self) -> f64 {
        let n = self.0.len();
        if n % 2 == 1 || n == 0 {
            return self.pct(0.5);
        }
        let mut s = self.0.clone();
        s.sort_by(f64::total_cmp);
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }

    /// Samples strictly above the `q` percentile's rank — how many
    /// observations the percentile rests on from above.
    pub fn beyond(&self, q: f64) -> usize {
        let n = self.0.len();
        n - ((q * n as f64).ceil() as usize).min(n)
    }
}

/// Arithmetic mean (0 for an empty slice: nothing was measured).
pub fn mean(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    vals.iter().sum::<f64>() / vals.len() as f64
}

/// Geometric mean of positive values (0 for an empty slice).
pub fn geomean(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
}

/// FNV-1a digest of a proposal sequence, one configuration per line.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, item: &str) {
        for b in item.bytes().chain(std::iter::once(b'\n')) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// A per-session seed derived from the run seed, the unit and the slot, so
/// every session of every run is reproducible from `--seed` alone.
pub fn derive_seed(run_seed: u64, unit: usize, slot: usize) -> u64 {
    let mut d = Digest::default();
    d.add(&format!("{run_seed}/{unit}/{slot}"));
    d.value() % 1_000_000_007
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = Samples((1..=100).map(f64::from).collect());
        assert_eq!(s.pct(0.5), 50.0);
        assert_eq!(s.pct(0.9), 90.0);
        assert_eq!(s.beyond(0.9), 10);
        assert_eq!(Samples::default().pct(0.5), 0.0);
    }

    #[test]
    fn geomean_of_equal_values() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
