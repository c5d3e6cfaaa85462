//! Seeded randomness and the latency statistics the benchmark reports.

/// SplitMix64: a tiny, fast, fully deterministic generator. Every input
/// the benchmark feeds the program derives from one of these, seeded
/// from the `--seed` argument.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so two
    /// consumers of one seed never share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5851_f42d_4c95_7f2d))))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The SplitMix64 finaliser.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A list of `total` op kinds in which each kind appears exactly its
/// weighted share of times (largest-remainder rounding), in seeded
/// order. Fixing the counts, not just the probabilities, keeps the mix
/// identical on every seed, so a percentile never slides between the
/// latency modes of two kinds from one seed to the next.
pub fn mixed_ops<K: Copy>(weights: &[(K, u32)], total: usize, rng: &mut Rng) -> Vec<K> {
    let sum: u64 = weights.iter().map(|w| w.1 as u64).sum();
    let mut counts: Vec<usize> = weights
        .iter()
        .map(|w| (total as u64 * w.1 as u64 / sum) as usize)
        .collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse((total as u64 * weights[i].1 as u64) % sum));
    let short = total - counts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        counts[i] += 1;
    }
    let mut ops = Vec::with_capacity(total);
    for (w, n) in weights.iter().zip(counts) {
        ops.extend(std::iter::repeat_n(w.0, n));
    }
    rng.shuffle(&mut ops);
    ops
}

/// [`mixed_ops`] for a phase cut into `rounds` rounds the way
/// `harness::run_clients` cuts it: every round holds its own exact
/// shares, so each round's percentiles are taken over the same mix.
pub fn mixed_rounds<K: Copy>(
    weights: &[(K, u32)],
    total: usize,
    rounds: usize,
    rng: &mut Rng,
) -> Vec<K> {
    (0..rounds)
        .flat_map(|r| mixed_ops(weights, (r + 1) * total / rounds - r * total / rounds, rng))
        .collect()
}

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; fewer means the figure is a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, in the
/// samples' unit. Failed ops enter as `f64::INFINITY`: a failure misses
/// every latency bound. Errors when fewer than [`MIN_BEYOND`] samples
/// lie beyond the percentile, or when it lands on a failure.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return Err(format!(
            "p{} needs {} samples beyond it; only {} of {n} are",
            q * 100.0,
            MIN_BEYOND,
            n.saturating_sub(rank)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let v = sorted[rank - 1];
    if v.is_finite() {
        Ok(v)
    } else {
        Err(format!("p{} falls on a failed op", q * 100.0))
    }
}

/// Percentile `q` of latencies recorded in consecutive rounds, robust
/// to a slow stretch of the run: the rounds are joined into as many
/// contiguous groups (at most one per round) as still give every group
/// the support [`percentile`] requires, and the median of the groups'
/// percentiles is reported. With one group this is the percentile of
/// all samples.
pub fn grouped_percentile(rounds: &[Vec<f64>], q: f64) -> Result<f64, String> {
    let total: usize = rounds.iter().map(Vec::len).sum();
    let need = (MIN_BEYOND as f64 / (1.0 - q)).round() as usize;
    let mut g = (total / need.max(1)).clamp(1, rounds.len().max(1));
    loop {
        let n = rounds.len();
        let groups: Vec<Vec<f64>> = (0..g)
            .map(|i| rounds[i * n / g..(i + 1) * n / g].concat())
            .collect();
        match groups
            .iter()
            .map(|s| percentile(s, q))
            .collect::<Result<Vec<f64>, String>>()
        {
            Ok(v) => return Ok(median(&v)),
            Err(e) if g == 1 => return Err(e),
            Err(_) => g -= 1,
        }
    }
}

/// Median of a small set of repeated measurements (set-up times).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, PartialEq, Debug)]
    enum K {
        A,
        B,
        C,
    }

    #[test]
    fn same_seed_same_ops_and_different_seed_same_shares() {
        let w = [(K::A, 70), (K::B, 25), (K::C, 5)];
        let a = mixed_ops(&w, 1000, &mut Rng::new(7, 1));
        let b = mixed_ops(&w, 1000, &mut Rng::new(7, 1));
        let c = mixed_ops(&w, 1000, &mut Rng::new(8, 1));
        assert_eq!(a, b);
        assert_ne!(a, c, "another seed reorders the ops");
        for k in [K::A, K::B, K::C] {
            let count = |v: &[K]| v.iter().filter(|&&x| x == k).count();
            assert_eq!(count(&a), count(&c), "share of {k:?} is fixed");
        }
        assert_eq!(a.iter().filter(|&&x| x == K::A).count(), 700);
    }

    #[test]
    fn shares_round_to_the_exact_total() {
        let w = [(0u8, 1), (1u8, 1), (2u8, 1)];
        let ops = mixed_ops(&w, 100, &mut Rng::new(1, 2));
        assert_eq!(ops.len(), 100);
        let counts: Vec<usize> = (0..3)
            .map(|k| ops.iter().filter(|&&x| x == k).count())
            .collect();
        assert!(counts.iter().all(|&c| c == 33 || c == 34), "{counts:?}");
    }

    #[test]
    fn every_round_keeps_the_shares() {
        let w = [(K::A, 85), (K::B, 15)];
        let ops = mixed_rounds(&w, 1000, 10, &mut Rng::new(4, 1));
        assert_eq!(ops.len(), 1000);
        for round in ops.chunks(100) {
            assert_eq!(round.iter().filter(|&&x| x == K::B).count(), 15);
        }
    }

    #[test]
    fn percentile_support_rule() {
        // p99 of 1000 samples has exactly 10 beyond it: allowed.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99).unwrap(), 990.0);
        assert_eq!(percentile(&s, 0.5).unwrap(), 500.0);
        // 999 samples leave only 9 beyond p99: refused.
        assert!(percentile(&s[..999], 0.99).is_err());
        // A median of 19 samples has 9 beyond it: refused; 20 is fine.
        assert!(percentile(&s[..19], 0.5).is_err());
        assert_eq!(percentile(&s[..20], 0.5).unwrap(), 10.0);
    }

    #[test]
    fn failures_count_as_missing_the_bound() {
        let mut s: Vec<f64> = (1..=1000).map(f64::from).collect();
        for v in s.iter_mut().take(20) {
            *v = f64::INFINITY;
        }
        assert!(percentile(&s, 0.99).is_err(), "2% failures sit above p99");
        assert_eq!(percentile(&s, 0.5).unwrap(), 520.0);
    }

    #[test]
    fn grouped_percentile_shrugs_off_one_slow_round() {
        // Ten rounds of 200 samples; round 3 runs at half speed.
        let rounds: Vec<Vec<f64>> = (0..10)
            .map(|r| {
                (1..=200)
                    .map(|i| f64::from(i) * if r == 3 { 2.0 } else { 1.0 })
                    .collect()
            })
            .collect();
        assert_eq!(grouped_percentile(&rounds, 0.5).unwrap(), 100.0);
        // 2000 samples support two groups for p99; the median of the two
        // group p99s lies between the fast and the slow group's.
        let p99 = grouped_percentile(&rounds, 0.99).unwrap();
        assert!(p99 > 198.0 && p99 < 396.0, "{p99}");
        // Too few samples for even one group fails like percentile().
        assert!(grouped_percentile(&rounds[..4], 0.99).is_err());
        // One group is the plain percentile.
        let all: Vec<f64> = rounds[..5].concat();
        assert_eq!(
            grouped_percentile(&rounds[..5], 0.99),
            percentile(&all, 0.99)
        );
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
