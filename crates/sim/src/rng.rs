//! Deterministic random number generation for the simulator.
//!
//! Every run of the simulator is a pure function of the configuration seed,
//! so experiments are exactly reproducible. The generator is a from-scratch
//! xoshiro256++ (Blackman & Vigna) seeded through SplitMix64, so the
//! workspace carries no external RNG dependency; the normal sampler is
//! implemented with the Box–Muller transform.

/// SplitMix64 step, used for seeding and sub-stream derivation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded RNG with domain-specific sampling helpers.
#[derive(Debug, Clone)]
pub struct SimRng {
    /// xoshiro256++ state.
    s: [u64; 4],
    /// The seed the generator was created from (kept for sub-stream
    /// derivation).
    seed: u64,
    /// Cached second value from the Box–Muller transform.
    cached_gaussian: Option<f64>,
}

impl SimRng {
    /// Creates an RNG from a seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self {
            s,
            seed,
            cached_gaussian: None,
        }
    }

    /// Derives an independent sub-stream, e.g. one per replica or per model,
    /// so adding randomness consumers does not perturb unrelated streams.
    pub fn derive(&self, label: u64) -> Self {
        let mut sm = self.seed ^ label.wrapping_mul(0xA076_1D64_78BD_642F);
        Self::new(splitmix64(&mut sm))
    }

    /// The next raw 64-bit value (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 uniform mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `u64` in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn uniform_range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        let range = hi - lo;
        // Lemire's multiply-shift range reduction; the residual bias is below
        // 2^-64 per draw, irrelevant for a simulation.
        lo + ((self.next_u64() as u128 * range as u128) >> 64) as u64
    }

    /// Uniform choice of an index in `[0, n)`. Panics if `n == 0`.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero, because there is nothing to choose.
    pub fn choose_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot choose from an empty range");
        self.uniform_range(0, n as u64) as usize
    }

    /// Standard-normal sample via Box–Muller.
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(cached) = self.cached_gaussian.take() {
            return cached;
        }
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1: f64 = 1.0 - self.uniform();
        let u2: f64 = self.uniform();
        let radius = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.cached_gaussian = Some(radius * theta.sin());
        radius * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Exponential sample with the given rate (events per unit time); used for
    /// Poisson inter-arrival times in the open-loop workload generator.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u: f64 = 1.0 - self.uniform();
        -u.ln() / rate
    }

    /// Bernoulli trial.
    pub fn chance(&mut self, probability: f64) -> bool {
        self.uniform() < probability.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn derived_streams_are_independent_and_deterministic() {
        let base = SimRng::new(99);
        let mut d1 = base.derive(1);
        let mut d1_again = base.derive(1);
        let mut d2 = base.derive(2);
        assert_eq!(d1.next_u64(), d1_again.next_u64());
        assert_ne!(d1.next_u64(), d2.next_u64());
    }

    #[test]
    fn uniform_is_in_unit_interval_and_well_spread() {
        let mut rng = SimRng::new(11);
        let n = 20_000;
        let mut mean = 0.0;
        for _ in 0..n {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
            mean += u;
        }
        mean /= n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_sampling_matches_moments() {
        let mut rng = SimRng::new(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn exponential_sampling_matches_mean() {
        let mut rng = SimRng::new(6);
        let rate = 4.0;
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn uniform_range_and_choose_index_bounds() {
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            let v = rng.uniform_range(10, 20);
            assert!((10..20).contains(&v));
            let idx = rng.choose_index(7);
            assert!(idx < 7);
        }
        assert_eq!(rng.uniform_range(5, 5), 5);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(8);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
