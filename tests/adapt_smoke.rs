//! Adapt smoke: the closed skew loop on the Tourney cross-product.
//!
//! Tourney's pairing rule joins east against west teams with no shared
//! variable — a genuine cross-product whose tokens all hash to one
//! bucket (§5.2.2), so a static partition necessarily serializes the
//! whole join on one worker no matter how cleverly buckets are dealt.
//! The closed loop (profiled pre-run → `suggest_plan`
//! copy-and-constraint → online migration at cycle barriers) must spread
//! that work. This is the acceptance configuration: 8 workers, with the
//! scenario itself defined once in `mpps_bench::adapt` and shared with
//! the `repro adapt` figure.

use mpps_bench::adapt::{measure, AdaptScenario};

#[test]
fn adapt_at_least_halves_probe_skew_and_stays_equivalent() {
    let sc = AdaptScenario::default();
    assert_eq!(sc.workers, 8, "acceptance configuration is 8 workers");
    let report = measure(&sc);

    assert!(
        report.firings > 0,
        "tourney must fire (vacuous smoke otherwise)"
    );
    assert!(
        report.equivalent,
        "threaded diverged from the sequential reference"
    );
    assert!(
        report.plan_summary.contains("split"),
        "suggest_plan must copy-and-constrain the cross-product: {}",
        report.plan_summary
    );

    // The loop must migrate: rebalance events prove the online
    // repartitioner ran, not just the offline transform.
    assert!(
        report.rebalances > 0,
        "adaptation never rebalanced (loads {:?})",
        report.adaptive_loads
    );

    // ≥2× probe-load skew reduction vs static greedy.
    let static_skew = report.static_skew();
    let adaptive_skew = report.adaptive_skew();
    assert!(
        adaptive_skew * 2.0 <= static_skew,
        "probe-load skew did not halve: static {static_skew:.3} {:?} \
         vs adaptive {adaptive_skew:.3} {:?}",
        report.static_loads,
        report.adaptive_loads
    );

    // The before/after summary the CI job uploads as an artifact.
    println!(
        "adapt-smoke: probe skew static {static_skew:.3} -> adaptive {adaptive_skew:.3} \
         ({:.2}x, {} rebalances, {} buckets moved); bucket skew {:?} -> {:?}; plan: {}",
        report.reduction(),
        report.rebalances,
        report.moved_buckets,
        report.static_bucket_skew,
        report.adaptive_bucket_skew,
        report.plan_summary
    );
}
