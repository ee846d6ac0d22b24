//! Property tests for the log-bucketed histogram: percentile
//! estimates stay within one bucket of the exact order statistics,
//! and merging is indistinguishable from recording the concatenated
//! sample stream.

use camus_telemetry::metrics::{bucket_index, Histogram};
use proptest::collection::vec;
use proptest::prelude::*;

/// Exact `q`-quantile: the order statistic at rank `ceil(q * n)`.
fn exact_percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples spanning the whole `u64` range: small counts, mid-range
/// latencies, and huge outliers all exercise different octaves.
fn arb_samples() -> impl Strategy<Value = Vec<u64>> {
    let sample = prop_oneof![0u64..64, 0u64..100_000, any::<u64>(),];
    vec(sample, 1..200)
}

proptest! {
    #[test]
    fn percentiles_within_one_bucket_of_exact(xs in arb_samples()) {
        let h = Histogram::new();
        for &v in &xs {
            h.record(v);
        }
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, xs.len() as u64);
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = exact_percentile(&sorted, q);
            let est = snap.percentile(q);
            let db = (bucket_index(est) as i64 - bucket_index(exact) as i64).abs();
            prop_assert!(
                db <= 1,
                "q={} exact={} (bucket {}) est={} (bucket {})",
                q, exact, bucket_index(exact), est, bucket_index(est)
            );
            // The estimate never undershoots the exact value's bucket
            // lower bound and never exceeds the observed max.
            prop_assert!(est <= snap.max);
        }
    }

    #[test]
    fn merge_equals_concatenated_stream(xs in arb_samples(), ys in arb_samples()) {
        let a = Histogram::new();
        let b = Histogram::new();
        let c = Histogram::new();
        for &v in &xs {
            a.record(v);
            c.record(v);
        }
        for &v in &ys {
            b.record(v);
            c.record(v);
        }
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        prop_assert_eq!(snap, c.snapshot());
    }

    #[test]
    fn every_value_lands_in_its_bucket(v in any::<u64>()) {
        let i = bucket_index(v);
        let (lo, hi) = camus_telemetry::metrics::bucket_bounds(i);
        prop_assert!(lo <= v && v <= hi);
    }
}
