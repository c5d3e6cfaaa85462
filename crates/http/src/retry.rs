//! Idempotency-aware retry: attempts, exponential backoff with seeded
//! jitter, an overall deadline, and per-attempt socket timeouts.
//!
//! The paper's case for an open HTTP repository is that it keeps working
//! under real-world failure. A blind re-send (what the client used to
//! do) is wrong in both directions: it retries non-idempotent methods —
//! duplicating MKCOLs and LOCKs — and it gives idempotent methods only
//! one extra chance with no pacing. [`RetryPolicy`] fixes both: the
//! client consults [`crate::Method::is_idempotent`] before re-sending,
//! backs off exponentially with deterministic (seeded) jitter so retry
//! storms decorrelate yet tests reproduce, and bounds the total damage
//! with an attempt cap and a wall-clock deadline.

use rand::rngs::StdRng;
use rand::Rng;
use std::time::Duration;

/// Retry/timeout/backoff configuration for one [`crate::Client`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per logical send, the first try included.
    /// `1` disables retries entirely.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles on each further retry.
    pub base_backoff: Duration,
    /// Cap on any single backoff sleep.
    pub max_backoff: Duration,
    /// Fraction of each backoff randomised away: `0.0` sleeps the full
    /// computed backoff, `1.0` sleeps anywhere in `(0, backoff]`.
    /// Jitter decorrelates clients that failed together.
    pub jitter: f64,
    /// Seed for the jitter generator — reruns take identical pauses.
    pub seed: u64,
    /// Wall-clock budget for one logical send across all attempts and
    /// sleeps. A retry that cannot finish its backoff inside the budget
    /// is not started. `None` bounds by attempts only.
    pub deadline: Option<Duration>,
    /// Per-attempt socket read timeout (a slow or stalled server turns
    /// into a retryable transport error instead of a hang).
    pub read_timeout: Option<Duration>,
    /// Per-attempt socket write timeout.
    pub write_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            jitter: 0.5,
            seed: 0,
            deadline: Some(Duration::from_secs(60)),
            read_timeout: Some(Duration::from_secs(120)),
            write_timeout: Some(Duration::from_secs(120)),
        }
    }
}

impl RetryPolicy {
    /// No retries, no deadline, the historical 120 s read timeout:
    /// every transport error surfaces immediately.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter: 0.0,
            seed: 0,
            deadline: None,
            read_timeout: Some(Duration::from_secs(120)),
            write_timeout: None,
        }
    }

    /// The pause before retry number `retry` (0-based: the pause between
    /// the first failure and the second attempt is `backoff(0, ..)`).
    /// Exponential in `retry`, capped at `max_backoff`, with the
    /// configured jitter drawn from `rng`.
    pub fn backoff(&self, retry: u32, rng: &mut StdRng) -> Duration {
        let exp = self.base_backoff.as_secs_f64().max(0.0) * 2f64.powi(retry.min(20) as i32);
        let capped = exp.min(self.max_backoff.as_secs_f64());
        if capped <= 0.0 {
            return Duration::ZERO;
        }
        let jitter = self.jitter.clamp(0.0, 1.0);
        let unit: f64 = rng.random_range(0.0..1.0);
        Duration::from_secs_f64(capped * (1.0 - jitter * unit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn backoff_is_exponential_capped_and_bounded_by_jitter() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(450),
            jitter: 0.5,
            ..RetryPolicy::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        for retry in 0..8 {
            let full = (100.0 * 2f64.powi(retry)).min(450.0);
            let d = policy.backoff(retry as u32, &mut rng).as_secs_f64() * 1000.0;
            assert!(d <= full + 1e-9, "retry {retry}: {d} > {full}");
            assert!(
                d >= full * 0.5 - 1e-9,
                "retry {retry}: {d} < {}",
                full * 0.5
            );
        }
    }

    #[test]
    fn jitter_is_deterministic_for_a_seed() {
        let policy = RetryPolicy::default();
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for retry in 0..16 {
            assert_eq!(policy.backoff(retry, &mut a), policy.backoff(retry, &mut b));
        }
    }

    #[test]
    fn zero_jitter_is_fixed() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(policy.backoff(0, &mut rng), Duration::from_millis(10));
        assert_eq!(policy.backoff(1, &mut rng), Duration::from_millis(20));
        assert_eq!(policy.backoff(2, &mut rng), Duration::from_millis(40));
    }

    #[test]
    fn none_policy_disables_retries() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.deadline, None);
    }
}
