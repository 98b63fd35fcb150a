//! Estimators, digests and the metric-name grammar.
//!
//! On a small shared host timing noise is one-sided: a pass is never
//! faster than the code allows, only slower while a neighbour holds the
//! core or the shared cache. Every timing metric is therefore the
//! **minimum** of many short passes, never total bytes over total time,
//! and a sweep over a document collection is the sum of each document's
//! own minimum. (Measured on the reference host over ten seeded runs of
//! `auction-k1000-distinct` in a noisy stretch, the spread between
//! quartiles was 6.2 % of the median for the minimum, 8.5 % for the 10th
//! percentile and 15.8 % for the median pass.)

/// 64-bit FNV-1a, the digest used for outputs and pinned inputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Nearest-rank percentile of an **ascending** slice; `q` in (0, 1].
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(samples: &[u64]) -> Vec<u64> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    v
}

/// The fastest sample: the one least disturbed by the host.
pub fn best(samples: &[u64]) -> u64 {
    *samples.iter().min().expect("best of no samples")
}

/// Median (nearest rank) of unsorted samples.
pub fn p50(samples: &[u64]) -> u64 {
    percentile_sorted(&sorted(samples), 0.50)
}

/// Time per sweep: each document's own best pass time, summed. A slow
/// stretch during one document's passes cannot leak into the others.
pub fn sweep_best(per_doc: &[Vec<u64>]) -> u64 {
    per_doc.iter().map(|s| best(s)).sum()
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(value, percentile in %)`; with fewer than eleven samples there is
/// no such percentile and the maximum is reported as p100.
pub fn tail(samples: &[u64]) -> (u64, f64) {
    let v = sorted(samples);
    let n = v.len();
    assert!(n > 0, "tail of no samples");
    if n < 11 {
        return (v[n - 1], 100.0);
    }
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// Median of floats (mean of the middle pair for even counts), as
/// Python's `statistics.median` gives it.
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `BENCHMARK.json` name grammar: starts with a letter or digit, then
/// letters, digits, `_`, `.`, `-`; at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else { return false };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// splitmix64: the benchmark's only source of randomness, so a seed maps
/// to the same inputs on every toolchain.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(p50(&v), 50);
        assert_eq!(best(&v), 1);
        assert_eq!(p50(&[7]), 7);
        let sorted: Vec<u64> = (1..=36).collect();
        // 36 samples: ceil(3.6) = 4th smallest.
        assert_eq!(percentile_sorted(&sorted, 0.10), 4);
        assert_eq!(percentile_sorted(&sorted, 1.0), 36);
    }

    #[test]
    fn sweep_sums_each_documents_own_best() {
        // Document 0 is hit by interference on all passes but one,
        // document 1 on none: the estimate is the sum of the clean times.
        let doc0 = vec![900, 900, 900, 100, 900, 900, 900, 900, 900, 900];
        let doc1 = vec![50; 10];
        assert_eq!(sweep_best(&[doc0, doc1]), 150);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        let (value, pct) = tail(&v);
        assert_eq!(value, 990);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert!((pct - 99.0).abs() < 1e-9);
        let (value, pct) = tail(&(1..=11).collect::<Vec<u64>>());
        assert_eq!(value, 1);
        assert!((pct - 100.0 / 11.0).abs() < 1e-9);
        assert_eq!(tail(&[3, 9, 4]), (9, 100.0));
    }

    #[test]
    fn fnv_matches_reference_vectors_and_is_stable() {
        let digest = |s: &str| {
            let mut f = Fnv::default();
            f.bytes(s.as_bytes());
            f.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
        let mut a = Fnv::default();
        a.u64(1);
        a.u64(2);
        let mut b = Fnv::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.finish(), b.finish(), "digest is order-sensitive");
    }

    #[test]
    fn name_grammar() {
        for ok in ["throughput_mb_s", "xmlsax.ns_per_event", "auction-k1000-distinct", "1a"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let (mut a, mut b) = (2005, 2005);
        assert_eq!(splitmix(&mut a), splitmix(&mut b));
        assert_ne!(splitmix(&mut a), splitmix(&mut { 2006 }));
    }
}
