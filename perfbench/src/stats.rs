//! Small summary statistics.

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `part` as a percentage of `whole` (0 when `whole` is 0).
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

/// A snapshot of the machine's CPU time counters (`/proc/stat`, in clock
/// ticks): all of it, and the part the hypervisor gave to other guests
/// while this one wanted to run (`steal`).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// The counters now; zeros where `/proc/stat` cannot be read.
    pub fn now() -> CpuTicks {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        // cpu  user nice system idle iowait irq softirq steal guest ..
        let ticks: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|v| v.parse().ok())
            .collect();
        CpuTicks {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().sum(),
        }
    }

    /// The share of the CPU time since `earlier` that was stolen, %.
    pub fn steal_pct_since(&self, earlier: &CpuTicks) -> f64 {
        pct(
            self.steal.saturating_sub(earlier.steal) as f64,
            self.total.saturating_sub(earlier.total) as f64,
        )
    }
}

/// Steal above this share of a sample's CPU time (%) marks the sample as
/// taken while the hypervisor held the machine back.
pub const STEAL_LIMIT_PCT: f64 = 3.0;

/// The samples of `values` whose `steal_pct` stayed within
/// [`STEAL_LIMIT_PCT`], when they are at least half of them; otherwise
/// (or when the two do not pair up) every sample.
pub fn unstolen(values: &[f64], steal_pct: &[f64]) -> Vec<f64> {
    if values.len() != steal_pct.len() {
        return values.to_vec();
    }
    let kept: Vec<f64> = values
        .iter()
        .zip(steal_pct)
        .filter(|(_, s)| **s <= STEAL_LIMIT_PCT)
        .map(|(v, _)| *v)
        .collect();
    if 2 * kept.len() >= values.len() && !kept.is_empty() {
        kept
    } else {
        values.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn stolen_samples_are_set_aside_while_most_are_clean() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(unstolen(&v, &[0.0, 9.0, 1.0, 0.0]), vec![1.0, 3.0, 4.0]);
        assert_eq!(unstolen(&v, &[0.0, 9.0, 9.0, 0.0]), vec![1.0, 4.0]);
        assert_eq!(unstolen(&v, &[9.0, 9.0, 9.0, 0.0]), v.to_vec());
        assert_eq!(unstolen(&v, &[0.0]), v.to_vec());
    }
}
