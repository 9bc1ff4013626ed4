//! The benchmark's own arithmetic: order statistics over repeated
//! measurements, the per-layer ledger, the peak-search amplification,
//! `VmHWM` parsing and run-digest comparison. Kept free of simulator
//! types so the unit tests below pin it in isolation.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones an outside checker computes.
/// `None` for fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Maximum of `xs` (`None` when empty).
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::max)
}

/// Minimum of `xs` (`None` when empty). Every pass of a run repeats the
/// same deterministic work, and interference from the host only ever
/// adds time, so the fastest pass is the least disturbed measurement of
/// the program's own cost.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::min)
}

/// Geometric mean of positive values (`None` when empty).
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Estimated share of host run time a layer accounts for: its work count
/// times the replayed cost of one unit, over the measured engine time.
pub fn est_share(work: u64, replay_ns_per_unit: f64, run_s: f64) -> f64 {
    if run_s <= 0.0 {
        return 0.0;
    }
    work as f64 * replay_ns_per_unit / (run_s * 1e9)
}

/// The ledger's remainder: whatever share of run time the named layers'
/// estimates leave unexplained. May be negative when the replays
/// over-price a layer; it is reported as measured, not clamped.
pub fn unattributed_share(shares: &[f64]) -> f64 {
    1.0 - shares.iter().sum::<f64>()
}

/// Peak-search amplification: host time of one whole search over the
/// host time of the run it finally returned, i.e. roughly how many
/// final-run equivalents the search spent.
pub fn search_amp(search_s: f64, final_run_s: f64) -> f64 {
    if final_run_s <= 0.0 {
        return 0.0;
    }
    search_s / final_run_s
}

/// The process's peak resident set (`VmHWM`) in MiB, parsed from the
/// text of `/proc/self/status`.
pub fn parse_vmhwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = fields.next()?.parse().ok()?;
    match fields.next()? {
        "kB" => Some(value / 1024.0),
        _ => None,
    }
}

/// 64-bit FNV-1a over a digest's words: a short fingerprint for the
/// reproducer lines and the header record.
pub fn fingerprint(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Index of the first word where two digests differ, or `None` when they
/// are identical. A length mismatch differs at the shorter length.
pub fn first_difference(a: &[u64], b: &[u64]) -> Option<usize> {
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => Some(i),
        None if a.len() != b.len() => Some(a.len().min(b.len())),
        None => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // index clamps and the weights extrapolate past the ends.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn geomean_min_and_max() {
        assert!((geomean(&[1.0, 4.0, 16.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(max(&[1.0, 3.0, 2.0]), Some(3.0));
        assert_eq!(min(&[2.0, 1.0, 3.0]), Some(1.0));
        assert_eq!(min(&[]), None);
    }

    #[test]
    fn est_share_and_ledger_sum_to_one() {
        // 2e6 units at 100 ns each over 1 s of run time: 20 %.
        let mem = est_share(2_000_000, 100.0, 1.0);
        assert!((mem - 0.2).abs() < 1e-12);
        let wheel = est_share(1_000_000, 50.0, 1.0);
        assert!((wheel - 0.05).abs() < 1e-12);
        let shares = [mem, wheel, 0.0];
        let rest = unattributed_share(&shares);
        assert!((rest - 0.75).abs() < 1e-12);
        assert!((shares.iter().sum::<f64>() + rest - 1.0).abs() < 1e-12);
        // Over-priced layers leave a negative remainder, not a clamp.
        assert!(unattributed_share(&[0.8, 0.4]) < 0.0);
        assert_eq!(est_share(10, 10.0, 0.0), 0.0);
    }

    #[test]
    fn search_amp_is_search_over_final_run() {
        assert!((search_amp(2.5, 1.0) - 2.5).abs() < 1e-12);
        assert_eq!(search_amp(1.0, 0.0), 0.0);
    }

    #[test]
    fn vmhwm_parses_kib_line() {
        let status = "Name:\tsimbench\nVmPeak:\t  999 kB\nVmHWM:\t  747520 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vmhwm_mb(status), Some(730.0));
        assert_eq!(parse_vmhwm_mb("VmRSS:\t12 kB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn digest_comparison_finds_first_difference() {
        assert_eq!(first_difference(&[1, 2, 3], &[1, 2, 3]), None);
        assert_eq!(first_difference(&[1, 2, 3], &[1, 9, 3]), Some(1));
        assert_eq!(first_difference(&[1, 2], &[1, 2, 3]), Some(2));
        assert_eq!(fingerprint(&[1, 2, 3]), fingerprint(&[1, 2, 3]));
        assert_ne!(fingerprint(&[1, 2, 3]), fingerprint(&[1, 3, 2]));
    }
}
