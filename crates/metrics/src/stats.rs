//! Small statistics helpers and the "shape assertions" tests use to
//! state what *reproducing a figure* means: rises, decays, crossovers —
//! the qualitative structure of each plot, not its exact values.

use crate::series::TimeSeries;

/// Summary statistics of a sample of `f64` values.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

/// Computes summary statistics. Returns the default (all zeros) for an
/// empty slice.
pub fn summarize(values: &[f64]) -> Summary {
    if values.is_empty() {
        return Summary::default();
    }
    let n = values.len();
    let mean = values.iter().sum::<f64>() / n as f64;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
    Summary {
        n,
        mean,
        std_dev: var.sqrt(),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// Outcome of checking a qualitative shape property on a series.
#[derive(Clone, Debug, PartialEq)]
pub enum Shape {
    /// The property holds.
    Holds,
    /// The property fails, with an explanation.
    Fails(String),
}

impl Shape {
    /// Whether the property holds.
    pub fn holds(&self) -> bool {
        matches!(self, Shape::Holds)
    }
}

/// Checks that a series spikes after `at` (reaching at least
/// `peak_at_least`) and later decays back below `settles_below` — the
/// shape of Figure 5: attack pollution rises, eviction pulls it down.
pub fn spike_then_decay(
    series: &TimeSeries,
    at: u64,
    peak_at_least: f64,
    settles_below: f64,
) -> Shape {
    let peak = series
        .points()
        .iter()
        .filter(|&&(c, _)| c >= at)
        .map(|&(_, v)| v)
        .fold(f64::NEG_INFINITY, f64::max);
    if peak < peak_at_least {
        return Shape::Fails(format!(
            "no spike: post-{at} peak {peak:.4} < {peak_at_least:.4}"
        ));
    }
    match series.last() {
        Some(last) if last < settles_below => Shape::Holds,
        Some(last) => Shape::Fails(format!(
            "no decay: final value {last:.4} ≥ {settles_below:.4}"
        )),
        None => Shape::Fails("empty series".into()),
    }
}

/// Checks that a series climbs monotonically (within `tolerance`) toward
/// its final value after `at` — the shape of Figure 3's takeover.
pub fn rises_after(series: &TimeSeries, at: u64, reaches_at_least: f64) -> Shape {
    let last = match series.last() {
        Some(v) => v,
        None => return Shape::Fails("empty series".into()),
    };
    if last < reaches_at_least {
        return Shape::Fails(format!(
            "does not reach {reaches_at_least:.4}: final {last:.4}"
        ));
    }
    let before = series.window_mean(0, at.saturating_sub(1)).unwrap_or(0.0);
    if before >= last {
        return Shape::Fails(format!(
            "no rise: pre-{at} mean {before:.4} ≥ final {last:.4}"
        ));
    }
    Shape::Holds
}

/// Checks that series `a` stays below series `b` on the cycle window
/// `[from, to]` (compared by window means) — e.g. tit-for-tat on vs off.
pub fn stays_below(a: &TimeSeries, b: &TimeSeries, from: u64, to: u64) -> Shape {
    match (a.window_mean(from, to), b.window_mean(from, to)) {
        (Some(ma), Some(mb)) if ma < mb => Shape::Holds,
        (Some(ma), Some(mb)) => Shape::Fails(format!(
            "'{}' mean {ma:.4} not below '{}' mean {mb:.4}",
            a.name(),
            b.name()
        )),
        _ => Shape::Fails("window has no data".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_from(vals: &[f64]) -> TimeSeries {
        let mut s = TimeSeries::new("s");
        for (i, &v) in vals.iter().enumerate() {
            s.push(i as u64, v);
        }
        s
    }

    #[test]
    fn summary_basics() {
        let s = summarize(&[1.0, 2.0, 3.0]);
        assert_eq!(s.n, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(summarize(&[]).n, 0);
    }

    #[test]
    fn spike_then_decay_shapes() {
        let spike = series_from(&[0.1, 0.1, 0.6, 0.4, 0.05]);
        assert!(spike_then_decay(&spike, 1, 0.5, 0.1).holds());
        assert!(!spike_then_decay(&spike, 1, 0.9, 0.1).holds(), "no peak");
        let flat = series_from(&[0.1, 0.6, 0.6, 0.6]);
        assert!(!spike_then_decay(&flat, 1, 0.5, 0.1).holds(), "no decay");
    }

    #[test]
    fn rises_after_shapes() {
        let rise = series_from(&[0.05, 0.05, 0.3, 0.7, 0.95]);
        assert!(rises_after(&rise, 2, 0.9).holds());
        assert!(!rises_after(&rise, 2, 0.99).holds());
    }

    #[test]
    fn stays_below_shapes() {
        let low = series_from(&[0.1, 0.1, 0.1]);
        let high = series_from(&[0.4, 0.5, 0.6]);
        assert!(stays_below(&low, &high, 0, 2).holds());
        assert!(!stays_below(&high, &low, 0, 2).holds());
    }
}
