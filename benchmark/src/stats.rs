//! The arithmetic behind every reported number: percentiles of pooled
//! per-op latencies and the median-of-rounds throughput.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted` (ascending), interpolating
/// linearly between the two closest ranks; 0 for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Sorts `values` and returns their median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// One measured round: a fixed number of ops and the wall time they took.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub ops: usize,
    pub wall_s: f64,
}

/// Median over rounds of `ops / wall_s`: one preempted round cannot move
/// it, which a single ops-over-total-time quotient would let it do.
pub fn median_throughput(rounds: &[Round]) -> f64 {
    let mut per_round: Vec<f64> = rounds
        .iter()
        .filter(|r| r.wall_s > 0.0)
        .map(|r| r.ops as f64 / r.wall_s)
        .collect();
    median(&mut per_round)
}

/// Distance between the first and third quartile as a share of the median —
/// the spread the acceptance rule compares against a metric's bound. Uses
/// the exclusive method of Python's `statistics.quantiles(values, n=4)`.
/// 0 for fewer than two values or a zero median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, clamped into the data.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    let med = percentile(&sorted, 0.5);
    if med == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)).abs() / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&mut [5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn one_slow_round_does_not_move_the_throughput() {
        let mut rounds = vec![
            Round {
                ops: 100,
                wall_s: 1.0
            };
            11
        ];
        let steady = median_throughput(&rounds);
        assert_eq!(steady, 100.0);
        // A preempted round: ten times slower.
        rounds[4].wall_s = 10.0;
        assert_eq!(median_throughput(&rounds), steady);
        // The naive quotient would have dropped by almost half.
        let naive = 1100.0 / rounds.iter().map(|r| r.wall_s).sum::<f64>();
        assert!(naive < 0.6 * steady);
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0]), 0.0);
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0]), 0.0);
    }
}
