//! Order statistics for timing samples.

use std::time::Instant;

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the
/// smallest sample with at least `p` percent of the samples at or below
/// it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median as the mean of the two middle samples for an even count.
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Sort a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples.
pub fn median_of(samples: &[f64]) -> f64 {
    median(&sorted(samples))
}

/// Median operation time of the quiet stretches of a run (`op_ms_p50`).
///
/// `ms` holds the operation times in the order they ran; every
/// `block_ops` consecutive operations are one block of identical work
/// (a round of the workload, or a fixed number of like operations). Each
/// block's median is taken and the lower quartile of the block medians is
/// reported. The blocks do the same work, so a difference between two
/// blocks is the machine's, and on a shared machine interference only ever
/// adds time: a run whose second half ran beside a busy neighbour reports
/// the same figure as an undisturbed one, where the plain median would sit
/// between the two speeds or jump to the slower one.
pub fn quiet_median(ms: &[f64], block_ops: usize) -> f64 {
    let medians: Vec<f64> = ms.chunks_exact(block_ops.max(1)).map(median_of).collect();
    if medians.is_empty() {
        return median_of(ms);
    }
    percentile(&sorted(&medians), 25.0)
}

/// Operations per second of one client in the quiet stretches of a run
/// (`ops_per_s`), the counterpart of [`quiet_median`] over the same
/// blocks: a block's rate is its operations over the time from the start
/// of its first to the end of its last (so the work between its operations
/// counts), and the upper quartile of the block rates is reported. `None`
/// when the run has fewer operations than one block.
pub fn quiet_rate(at: &[Instant], ms: &[f64], block_ops: usize) -> Option<f64> {
    let block_ops = block_ops.max(1);
    let rates: Vec<f64> = at
        .chunks_exact(block_ops)
        .zip(ms.chunks_exact(block_ops))
        .map(|(at, ms)| {
            let wall_s = (at[block_ops - 1] - at[0]).as_secs_f64() + ms[block_ops - 1] / 1e3;
            block_ops as f64 / wall_s
        })
        .collect();
    (!rates.is_empty()).then(|| percentile(&sorted(&rates), 75.0))
}

/// Tail percentiles a timing may be reported at, highest first, each with
/// the share of samples beyond it in thousandths (integers, so that 100
/// samples support p90 exactly).
const TAILS: [(f64, usize); 5] = [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)];

/// The highest percentile that still has at least ten samples beyond it
/// (the rule of the choosing-metrics guide), or `None` when even p75 is
/// not supported. `workload.op_ms_p95` is a fixed name, so this does not
/// pick the reported metric: it says whether the p95 of a run is backed by
/// enough samples, and the table printed with every run states it.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|(_, beyond)| n * beyond >= 10 * 1000)
        .map(|(p, _)| p)
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them:
/// the acceptance rule for this benchmark is stated in those terms.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let v = sorted(samples);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    [at(1), at(2), at(3)]
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the acceptance rule bounds.
pub fn spread(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(samples);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_choice_keeps_ten_samples_beyond() {
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn quiet_median_ignores_a_disturbed_stretch() {
        // Eight blocks of [9, 10, 11]; the last five ran 40 % slower.
        let mut ms = Vec::new();
        for block in 0..8 {
            let slow = if block >= 3 { 1.4 } else { 1.0 };
            ms.extend([9.0 * slow, 10.0 * slow, 11.0 * slow]);
        }
        assert_eq!(quiet_median(&ms, 3), 10.0);
        assert_eq!(median_of(&ms), 12.6);
        // Fewer operations than one block: the plain median.
        assert_eq!(quiet_median(&[3.0, 1.0, 2.0], 40), 2.0);
    }

    #[test]
    fn quiet_rate_counts_the_gaps_inside_a_block_only() {
        // Blocks of two 10 ms operations 5 ms apart: 2 ops in 25 ms. The
        // second block starts a second late and its operations take twice
        // as long.
        let t0 = Instant::now();
        let at_ms = [0, 15, 1025, 1050, 2075, 2090, 3105, 3120];
        let at: Vec<Instant> = at_ms
            .iter()
            .map(|&ms| t0 + std::time::Duration::from_millis(ms))
            .collect();
        let ms = [10.0, 10.0, 20.0, 20.0, 10.0, 10.0, 10.0, 10.0];
        let rate = quiet_rate(&at, &ms, 2).unwrap();
        assert!((rate - 2.0 / 0.025).abs() < 1e-9, "{rate}");
        assert_eq!(quiet_rate(&at[..1], &ms[..1], 2), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert_eq!(median_of(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
