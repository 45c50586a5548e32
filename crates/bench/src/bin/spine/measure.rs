//! Clocks and order statistics.
//!
//! Two clocks, never mixed. `Wall` is host time on this machine — what a
//! caller of the library or a client of the server waits — and anything
//! else that depends on host timing (a batch size, a tile high-water mark).
//! `Virtual` is the §5.1 analytic clock on the modelled i7 + GTX 560; it is
//! computed from work counts and repeats bit for bit. The simulated GPU
//! modes cost tens of times more *wall* than SIMD while being cheaper in
//! *virtual* time, so a ratio across the two means nothing and
//! [`Quantity::ratio`] refuses to form one.

use std::fmt;

/// Which clock (if any) a figure was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host time, or a tally that depends on host timing.
    Wall,
    /// Modelled time on the simulated platform; exact run to run.
    Virtual,
    /// A count of work that no clock enters; exact run to run.
    Count,
}

impl Clock {
    pub fn tag(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Virtual => "virtual",
            Clock::Count => "-",
        }
    }

    /// True when two runs on the same seed must agree bit for bit.
    pub fn exact(self) -> bool {
        self != Clock::Wall
    }
}

/// A number that remembers its clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantity {
    pub value: f64,
    pub clock: Clock,
}

/// The refusal: a ratio was asked for across two clocks.
#[derive(Debug, PartialEq, Eq)]
pub struct CrossClock(pub Clock, pub Clock);

impl fmt::Display for CrossClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "refusing a ratio of a {} figure to a {} figure",
            self.0.tag(),
            self.1.tag()
        )
    }
}

impl Quantity {
    pub fn wall(value: f64) -> Quantity {
        Quantity {
            value,
            clock: Clock::Wall,
        }
    }

    pub fn virt(value: f64) -> Quantity {
        Quantity {
            value,
            clock: Clock::Virtual,
        }
    }

    /// `self / base`, only when both were read from the same clock.
    pub fn ratio(self, base: Quantity) -> Result<f64, CrossClock> {
        if self.clock == base.clock {
            Ok(self.value / base.value)
        } else {
            Err(CrossClock(self.clock, base.clock))
        }
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. Empty input reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `p`-th percentile of unsorted samples.
pub fn percentile_of(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

/// The quantile of a slot's latencies taken as its undisturbed time, for
/// the traced pass's attribution only: the layer probes keep the fastest
/// of a few repetitions, so the pass they are subtracted from has to be
/// read the same way. Interference on this shared host only ever adds
/// time; the lower decile is steadier than the minimum on `serve_stream`,
/// where the fastest ops are the two connections happening to miss each
/// other. No end-to-end metric is built from it.
pub const UNDISTURBED: f64 = 0.10;

/// Seconds one caller's pass takes undisturbed: the sum over slots of
/// each slot's [`UNDISTURBED`] latency.
pub fn undisturbed_pass_s(slots: &[Vec<f64>]) -> f64 {
    slots.iter().map(|s| percentile_of(s, UNDISTURBED)).sum()
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc` has
/// no such line.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile_of(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn medians_and_the_undisturbed_pass_on_known_vectors() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // Two slots of ten samples; most of each ran in a slow phase.
        let mut a = vec![1.5; 10];
        a[3] = 1.0;
        a[7] = 1.1;
        let mut b = vec![3.0; 10];
        b[0] = 2.0;
        // The lower decile of ten samples is the smallest.
        assert_eq!(undisturbed_pass_s(&[a, b]), 3.0);
    }

    #[test]
    fn a_ratio_across_clocks_is_refused() {
        let simd = Quantity::virt(0.094);
        let pps = Quantity::virt(0.047);
        assert_eq!(simd.ratio(pps), Ok(2.0));
        let host = Quantity::wall(1.7);
        assert_eq!(
            host.ratio(pps),
            Err(CrossClock(Clock::Wall, Clock::Virtual))
        );
        assert_eq!(
            pps.ratio(host),
            Err(CrossClock(Clock::Virtual, Clock::Wall))
        );
        assert!(Clock::Virtual.exact() && Clock::Count.exact() && !Clock::Wall.exact());
    }
}
