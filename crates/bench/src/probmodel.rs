//! The §5.2.2 probabilistic model of active-bucket distribution.
//!
//! > "The model assumed that only a fraction of the total number of
//! > buckets are active, and that each active bucket gets only a single
//! > activation."
//!
//! With `a` active buckets assigned independently and uniformly to `p`
//! processors, the per-processor load is multinomial. The paper draws
//! three conclusions, each reproduced (and tested) here:
//!
//! 1. both the perfectly even and the totally uneven distribution are
//!    very unlikely (< 1%) — [`prob_perfectly_even`],
//!    [`prob_totally_uneven`];
//! 2. more active buckets (for the same processor count) make near-even
//!    distributions more likely — right activations, which activate a
//!    large proportion of buckets, therefore spread well;
//! 3. more processors make uneven distributions more likely, i.e. the
//!    probability of near-linear speedup falls — part of why the observed
//!    speedup curves flatten.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Natural log of `n!`.
fn ln_factorial(n: u64) -> f64 {
    (2..=n).map(|k| (k as f64).ln()).sum()
}

/// Probability that `active` buckets land perfectly evenly on `procs`
/// processors (exact multinomial; zero unless `procs` divides `active`).
pub fn prob_perfectly_even(active: u64, procs: u64) -> f64 {
    assert!(procs > 0, "need at least one processor");
    if active == 0 {
        return 1.0;
    }
    if !active.is_multiple_of(procs) {
        return 0.0;
    }
    let per = active / procs;
    // ln[ a! / (per!)^p ] - a·ln p
    let ln_p = ln_factorial(active)
        - procs as f64 * ln_factorial(per)
        - active as f64 * (procs as f64).ln();
    ln_p.exp()
}

/// Probability that all `active` buckets land on a single processor.
pub fn prob_totally_uneven(active: u64, procs: u64) -> f64 {
    assert!(procs > 0, "need at least one processor");
    if active == 0 || procs == 1 {
        return 1.0;
    }
    // p · (1/p)^a
    ((procs as f64).ln() * (1.0 - active as f64)).exp()
}

/// Monte-Carlo summary of the max-load behaviour of the model.
#[derive(Clone, Copy, Debug)]
pub struct MaxLoadEstimate {
    /// Mean of the maximum per-processor load.
    pub mean_max_load: f64,
    /// Probability that the maximum load is within `slack` of the ideal
    /// `ceil(active / procs)` — "near-linear speedup".
    pub prob_near_linear: f64,
    /// The ideal (perfectly balanced) maximum load.
    pub ideal: u64,
}

/// Estimate max-load statistics by simulation (`trials` seeded draws).
/// `slack` is the number of extra activations above ideal still counted as
/// near-linear.
pub fn estimate_max_load(
    active: u64,
    procs: usize,
    slack: u64,
    trials: u32,
    seed: u64,
) -> MaxLoadEstimate {
    assert!(procs > 0 && trials > 0);
    let ideal = active.div_ceil(procs as u64);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sum_max = 0u64;
    let mut near = 0u32;
    let mut loads = vec![0u64; procs];
    for _ in 0..trials {
        loads.fill(0);
        for _ in 0..active {
            loads[rng.gen_range(0..procs)] += 1;
        }
        let max = *loads.iter().max().unwrap();
        sum_max += max;
        if max <= ideal + slack {
            near += 1;
        }
    }
    MaxLoadEstimate {
        mean_max_load: sum_max as f64 / f64::from(trials),
        prob_near_linear: f64::from(near) / f64::from(trials),
        ideal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_factorial_basics() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(5) - 120f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn even_probability_exact_small_case() {
        // 2 buckets, 2 procs: P(one each) = 2!/(1!1!) / 2^2 = 0.5.
        assert!((prob_perfectly_even(2, 2) - 0.5).abs() < 1e-12);
        // 4 buckets, 2 procs: C(4,2)/16 = 6/16.
        assert!((prob_perfectly_even(4, 2) - 0.375).abs() < 1e-12);
        // Indivisible: impossible.
        assert_eq!(prob_perfectly_even(5, 2), 0.0);
    }

    #[test]
    fn totally_uneven_exact_small_case() {
        // 3 buckets, 2 procs: 2 · (1/2)^3 = 0.25.
        assert!((prob_totally_uneven(3, 2) - 0.25).abs() < 1e-12);
        assert_eq!(prob_totally_uneven(10, 1), 1.0);
    }

    #[test]
    fn paper_conclusion_1_extremes_are_rare() {
        // A representative §5 configuration: 128 active buckets, 16 procs.
        let even = prob_perfectly_even(128, 16);
        let uneven = prob_totally_uneven(128, 16);
        assert!(even < 0.01, "P(even) = {even}");
        assert!(uneven < 0.01, "P(totally uneven) = {uneven}");
        // And the in-between dominates.
        assert!(1.0 - even - uneven > 0.98);
    }

    #[test]
    fn paper_conclusion_2_more_active_buckets_spread_better() {
        // Fixed 8 processors; relative imbalance (E[max]/ideal) shrinks as
        // the number of active buckets grows.
        let few = estimate_max_load(16, 8, 0, 4000, 7);
        let many = estimate_max_load(512, 8, 0, 4000, 7);
        let rel_few = few.mean_max_load / few.ideal as f64;
        let rel_many = many.mean_max_load / many.ideal as f64;
        assert!(
            rel_many < rel_few,
            "relative imbalance: many={rel_many:.3} few={rel_few:.3}"
        );
    }

    #[test]
    fn paper_conclusion_3_more_processors_hurt_linearity() {
        // Fixed 64 active buckets; P(near-linear) falls with processors.
        let p4 = estimate_max_load(64, 4, 1, 4000, 11).prob_near_linear;
        let p16 = estimate_max_load(64, 16, 1, 4000, 11).prob_near_linear;
        let p32 = estimate_max_load(64, 32, 1, 4000, 11).prob_near_linear;
        assert!(p4 > p16, "p4={p4} p16={p16}");
        assert!(p16 > p32, "p16={p16} p32={p32}");
    }

    #[test]
    fn estimates_are_deterministic_per_seed() {
        let a = estimate_max_load(100, 10, 0, 200, 42);
        let b = estimate_max_load(100, 10, 0, 200, 42);
        assert_eq!(a.mean_max_load, b.mean_max_load);
        assert_eq!(a.prob_near_linear, b.prob_near_linear);
    }

    #[test]
    fn zero_active_buckets_degenerate() {
        assert_eq!(prob_perfectly_even(0, 4), 1.0);
        assert_eq!(prob_totally_uneven(0, 4), 1.0);
    }
}
