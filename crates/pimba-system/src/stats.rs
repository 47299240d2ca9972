//! Exact order-statistic helpers shared by the traffic simulator's SLO
//! metrics and the benches.
//!
//! Tail latencies (p99 TTFT/TPOT) are the whole point of a queueing study, and
//! interpolated percentile estimators quietly smooth exactly the outliers the
//! study is after. These helpers therefore compute *exact* order statistics by
//! the nearest-rank definition: the p-th percentile of `n` samples is the
//! `ceil(p/100 · n)`-th smallest sample (1-indexed), i.e. always one of the
//! observed values.

/// The exact p-th percentile (nearest-rank) of `values`, or `None` when empty.
///
/// `pct` is clamped to `[0, 100]`; `pct = 0` returns the minimum, `pct = 100`
/// the maximum, `pct = 50` the lower median. NaN values are ordered last by
/// `f64::total_cmp`, so a NaN can only be returned if it is genuinely within
/// the requested rank.
///
/// # Edge cases (the fleet-aggregation contract)
///
/// Replica-level aggregation routinely produces degenerate populations — a
/// replica that received **zero** requests, or exactly **one** — so the edges
/// are part of the API, not accidents:
///
/// * empty input → `None`, never a panic (callers decide the sentinel; the
///   `pimba-serve` `Percentiles` wrapper reports zeros),
/// * a single sample **is** every percentile: for `n = 1` the nearest rank
///   `ceil(p/100 · 1)` clamps to 1 for all `p`, including `p = 0` and
///   `p = 100`.
pub(crate) fn exact_percentile(values: &[f64], pct: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Some(percentile_of_sorted(&sorted, pct))
}

/// Nearest-rank percentile of an already ascending-sorted, non-empty slice
/// (sort once, read many percentiles). A single-sample slice returns that
/// sample for every `pct`.
///
/// # Panics
/// Panics if `sorted` is empty — callers aggregating over possibly-empty
/// populations (a fleet replica that served no requests) must gate on
/// emptiness.
pub fn percentile_of_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let pct = pct.clamp(0.0, 100.0);
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The exact median (the 50th nearest-rank percentile), or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    exact_percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_has_no_percentile() {
        assert_eq!(exact_percentile(&[], 50.0), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn single_value_is_every_percentile() {
        for pct in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(exact_percentile(&[3.5], pct), Some(3.5));
            // The sorted variant agrees, including out-of-range pct clamping.
            assert_eq!(percentile_of_sorted(&[3.5], pct), 3.5);
        }
        assert_eq!(percentile_of_sorted(&[3.5], -10.0), 3.5);
        assert_eq!(percentile_of_sorted(&[3.5], 250.0), 3.5);
        assert_eq!(median(&[3.5]), Some(3.5));
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn sorted_variant_panics_on_empty_input() {
        percentile_of_sorted(&[], 50.0);
    }

    #[test]
    fn duplicates_are_handled_exactly() {
        let v = [2.0, 2.0, 2.0, 2.0, 9.0];
        assert_eq!(exact_percentile(&v, 50.0), Some(2.0));
        assert_eq!(exact_percentile(&v, 80.0), Some(2.0));
        assert_eq!(exact_percentile(&v, 81.0), Some(9.0));
        assert_eq!(exact_percentile(&v, 99.0), Some(9.0));
    }

    #[test]
    fn nearest_rank_on_known_sample() {
        // Classic nearest-rank example: percentiles of 1..=5.
        let v = [5.0, 1.0, 4.0, 2.0, 3.0]; // unsorted on purpose
        assert_eq!(exact_percentile(&v, 0.0), Some(1.0));
        assert_eq!(exact_percentile(&v, 20.0), Some(1.0));
        assert_eq!(exact_percentile(&v, 21.0), Some(2.0));
        assert_eq!(exact_percentile(&v, 50.0), Some(3.0));
        assert_eq!(exact_percentile(&v, 99.0), Some(5.0));
        assert_eq!(exact_percentile(&v, 100.0), Some(5.0));
    }

    #[test]
    fn result_is_always_an_observed_value() {
        let v: Vec<f64> = (0..101).map(|i| i as f64 * 0.77).collect();
        for pct in 0..=100 {
            let p = exact_percentile(&v, pct as f64).unwrap();
            assert!(v.contains(&p), "p{pct} = {p} not an observed value");
        }
    }

    #[test]
    fn sorted_variant_matches_and_clamps() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_of_sorted(&sorted, -5.0), 1.0);
        assert_eq!(percentile_of_sorted(&sorted, 200.0), 4.0);
        for pct in [0.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
            assert_eq!(
                Some(percentile_of_sorted(&sorted, pct)),
                exact_percentile(&sorted, pct)
            );
        }
    }
}
