//! Estimators: medians, percentiles, the second fastest of the block
//! medians, and the block spread.

/// Median of a sample (mean of the two middle values for an even count).
/// Panics on an empty sample: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in `0..=1`).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The second smallest value (the smallest of fewer than three).
pub fn second_fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "second fastest of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[usize::from(v.len() >= 3)]
}

/// The timed samples of one lane: one vector of iteration times (seconds)
/// per block, in the order the blocks ran.
#[derive(Clone, Debug, Default)]
pub struct Blocks {
    pub blocks: Vec<Vec<f64>>,
}

impl Blocks {
    pub fn samples(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    fn block_medians(&self) -> Vec<f64> {
        self.blocks.iter().map(|b| median(b)).collect()
    }

    /// The lane's iteration time: the second fastest of its block medians.
    ///
    /// Inside a block the median drops stray slow iterations. Across
    /// blocks the disturbances of a shared host are one-sided and long: a
    /// neighbour slows the machine by up to 30 % for 10 to 20 seconds,
    /// which can cover most blocks of a run, while nothing makes a block
    /// much faster than the quiet machine. The second fastest block
    /// survives five disturbed blocks and one lucky one; measured on the
    /// quiet machine it is as steady as the median of the block medians.
    pub fn iteration_time(&self) -> f64 {
        second_fastest(&self.block_medians())
    }

    /// 95th percentile over every timed iteration.
    pub fn p95(&self) -> f64 {
        let all: Vec<f64> = self.blocks.iter().flatten().copied().collect();
        percentile(&all, 0.95)
    }

    /// Slowest block median over fastest: 1.0 is perfectly steady; above
    /// 1.25 the path is flagged `noisy`.
    pub fn spread(&self) -> f64 {
        let m = self.block_medians();
        let hi = m.iter().copied().fold(f64::MIN, f64::max);
        let lo = m.iter().copied().fold(f64::MAX, f64::min);
        hi / lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn second_fastest_block_survives_five_disturbed_blocks() {
        // Seven blocks: five slowed by a neighbour, one lucky, one clean.
        let block = |t: f64| vec![t, t, t];
        let b = Blocks {
            blocks: [1.3, 1.31, 1.0, 1.29, 0.9, 1.3, 1.32].map(block).to_vec(),
        };
        assert_eq!(b.iteration_time(), 1.0);
        assert_eq!(b.samples(), 21);
        assert!((b.spread() - 1.32 / 0.9).abs() < 1e-12);
        assert_eq!(b.p95(), 1.32);
        // Two blocks (the traced run): the faster one.
        let two = Blocks {
            blocks: vec![block(2.0), block(1.5)],
        };
        assert_eq!(two.iteration_time(), 1.5);
    }

    #[test]
    fn second_fastest_ranks() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(second_fastest(&v), 2.0);
        assert_eq!(second_fastest(&v[..3]), 4.0);
        assert_eq!(second_fastest(&v[..2]), 1.0);
        assert_eq!(second_fastest(&v[..1]), 5.0);
    }

    #[test]
    fn block_median_is_taken_inside_each_block_first() {
        // One slow outlier per block must not move anything.
        let b = Blocks {
            blocks: vec![
                vec![1.0, 1.0, 50.0],
                vec![1.1, 60.0, 1.1],
                vec![70.0, 0.9, 0.9],
            ],
        };
        // Block medians 1.0, 1.1, 0.9: the second fastest of three.
        assert_eq!(b.iteration_time(), 1.0);
        assert!((b.spread() - 1.1 / 0.9).abs() < 1e-12);
    }
}
