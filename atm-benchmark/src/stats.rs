//! Sample statistics: nearest-rank percentiles under the tail rule, the
//! across-run median and quartile spread, and the FNV-1a output digest.

/// A tail percentile is reported only when at least this many samples lie
/// beyond its rank; below that it describes a handful of outliers.
const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` in `n` samples: ⌈p·n/100⌉,
/// at least 1. Integer arithmetic, so p90 of 100 samples is rank 90 exactly.
fn rank(n: usize, p: u32) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// Nearest-rank percentile `p` of a sample (sorted here). `None` when the
/// sample is empty.
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p).min(sorted.len()) - 1])
}

/// Percentile `p` under the tail rule: refused unless at least
/// [`MIN_BEYOND`] samples lie beyond its rank (p90 needs 100 samples, p95
/// 200, p99 1000).
pub fn tail(samples: &[f64], p: u32) -> Result<f64, String> {
    let n = samples.len();
    let beyond = n.saturating_sub(rank(n, p));
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} needs {MIN_BEYOND} samples beyond its rank, {n} samples leave {beyond}"
        ));
    }
    Ok(percentile(samples, p).expect("a non-empty sample"))
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median across runs: the middle value, or the mean of the two middle
/// values (Python's `statistics.median`).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

/// Run-to-run spread: the distance between the first and third quartiles
/// (Python's `statistics.quantiles(values, n=4)`, exclusive method) as a
/// share of the median. `None` below two runs or at a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(values)?;
    (med != 0.0).then(|| (quartile(3) - quartile(1)) / med)
}

/// FNV-1a over 64-bit words, little-endian: the digest engine workloads
/// fold their per-cycle outputs into.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Digest {
    /// The empty digest (the FNV-1a offset basis).
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    /// Fold one word in.
    pub fn eat(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fixed-width hex, the form pinned in `pins.json`.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending, so the helpers must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        assert_eq!(percentile(&ramp(100), 50), Some(50.0));
        assert_eq!(percentile(&ramp(100), 90), Some(90.0));
        assert_eq!(percentile(&ramp(10), 95), Some(10.0));
        assert_eq!(percentile(&ramp(1), 50), Some(1.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn the_tail_rule_refuses_p90_below_100_samples() {
        assert!(tail(&ramp(99), 90).unwrap_err().contains("leave 9"));
        assert_eq!(tail(&ramp(100), 90), Ok(90.0));
        assert!(tail(&ramp(199), 95).is_err());
        assert_eq!(tail(&ramp(200), 95), Ok(190.0));
        assert!(tail(&ramp(999), 99).is_err());
        assert_eq!(tail(&ramp(1000), 99), Ok(990.0));
        assert!(tail(&[], 50).is_err());
    }

    #[test]
    fn median_and_spread_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let spread = quartile_spread(&ramp(10)).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{spread}");
        assert_eq!(quartile_spread(&[5.0]), None);
        assert_eq!(quartile_spread(&[2.0, 2.0, 2.0]), Some(0.0));
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let fold = |words: &[u64]| {
            let mut d = Digest::new();
            words.iter().for_each(|&w| d.eat(w));
            d.hex()
        };
        assert_eq!(fold(&[]), "cbf29ce484222325");
        // Pinned: a change here invalidates every digest in pins.json.
        assert_eq!(fold(&[0, 12, 3, 0xdead_beef]), "470365d6fbd7ccec");
        assert_ne!(fold(&[1, 2]), fold(&[2, 1]));
    }
}
