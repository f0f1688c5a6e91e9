//! Measurement helpers: order statistics, the tail-percentile rule,
//! peak-RSS reading and output digests.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Percentiles tried, highest first, by [`tail_percentile`].
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, with its nearest-rank value.
/// `None` when even the lowest rung has fewer samples beyond it.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    TAIL_LADDER.iter().find_map(|&p| {
        let rank = nearest_rank(p, n);
        (n >= rank + TAIL_MIN_BEYOND).then(|| (p, s[rank - 1]))
    })
}

/// The nearest rank of percentile `p` among `n` samples: the smallest
/// rank `r ≥ 1` with `r/n ≥ p/100` (the tolerance absorbs the rounding
/// of `p/100` in binary).
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64) - 1e-9).ceil().max(1.0) as usize
}

/// Nearest-rank percentile `p` (0–100] of `xs`; `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let s = sorted(xs);
    s.get(nearest_rank(p, s.len()) - 1).copied()
}

/// Peak resident set size in MiB from the text of `/proc/<pid>/status`
/// (its `VmHWM:` line, reported by the kernel in kB).
pub fn parse_vmhwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb / 1024.0)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vmhwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// FNV-1a over a stream of 64-bit words: a compact fingerprint of an
/// output's exact bits, compared across repetitions of one input.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        // p99 leaves 2 beyond, p95 leaves exactly 10.
        assert_eq!(tail_percentile(&xs), Some((95.0, 190.0)));
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((99.9, 9990.0)));
        // 40 samples: p75 leaves exactly 10, p90 only 4.
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((75.0, 30.0)));
        // 39 samples: p75 leaves 9 — no rung qualifies.
        let xs: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), None);
        assert_eq!(tail_percentile(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(100.0));
        assert_eq!(percentile(&xs, 95.0), Some(190.0));
        assert_eq!(percentile(&[5.0], 1.0), Some(5.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn vmhwm_is_read_in_mib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vmhwm_mb(status), Some(50.0));
        assert_eq!(parse_vmhwm_mb("VmRSS:\t1024 kB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn peak_rss_of_this_process_is_positive() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn digest_sees_every_bit() {
        let a = digest([1.0f64.to_bits(), 2]);
        assert_ne!(a, digest([1.0f64.to_bits(), 3]));
        assert_ne!(a, digest([2, 1.0f64.to_bits()]));
        assert_eq!(a, digest([1.0f64.to_bits(), 2]));
    }
}
