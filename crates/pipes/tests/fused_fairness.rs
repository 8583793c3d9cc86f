//! Fusion × fan-in fairness regressions.
//!
//! Stage fusion collapses a multi-node combinator chain into a single
//! fused node ([`gde::comb::fuse::StagePlan::fuse`]), so a fan-in source
//! that used to be a deep tree is now one hot generator. That must not
//! change the fairness
//! story:
//!
//! * the [`pipes::MERGE_BATCH_FAIRNESS_CAP`] clamp still applies — a fused
//!   source is *faster*, not *privileged*, and may not move more than the
//!   cap per queue transaction however large a batch is requested;
//! * [`pipes::round_robin`] still charges one visit per source per round —
//!   a fused source draining quickly produces the same pinned skip count
//!   as its unfused equivalent, so fusion cannot starve the interleave.
//!
//! The skip-count test is obs-gated and measures counter deltas; it lives
//! in this integration-test binary so no other round-robin traffic shares
//! the process-global registry, and nothing else in this file touches the
//! `pipes.fan.rr_*` counters.

use gde::comb::fuse::StagePlan;
use gde::comb::to_range;
use gde::{BoxGen, Gen, GenExt, Step, Value};
use pipes::{merge, round_robin, MERGE_BATCH_FAIRNESS_CAP};

/// A fused single-stage source factory: one `Apply` node over a range,
/// mapping each value into a distinct per-source band so arrival streams
/// can be told apart.
fn fused_band_source(band: i64, len: i64) -> Box<dyn Fn() -> BoxGen + Send + Sync> {
    let fused = StagePlan::new()
        .map(move |v| Value::from(band * 1000 + v.as_int().unwrap_or(0)))
        .fuse();
    Box::new(move || fused.instantiate(Box::new(to_range(1, len, 1))))
}

#[test]
fn fairness_cap_clamps_fused_single_stage_sources() {
    // An absurd batch request over fused sources must still clamp to the
    // fairness cap: fusion makes the producer hot enough to fill any batch
    // it is granted, which is exactly when the cap matters.
    let m = merge(
        vec![
            fused_band_source(1, 40),
            fused_band_source(2, 40),
            fused_band_source(3, 40),
        ],
        64,
    )
    .with_batch(1000);
    assert_eq!(m.batch(), MERGE_BATCH_FAIRNESS_CAP);

    let mut m = m;
    let mut got: Vec<i64> = m
        .collect_values()
        .iter()
        .filter_map(|v| v.as_int())
        .collect();
    got.sort_unstable();
    let mut want: Vec<i64> = Vec::new();
    for band in 1..=3 {
        want.extend((1..=40).map(|n| band * 1000 + n));
    }
    assert_eq!(got, want, "clamped fused merge lost or duplicated values");
}

#[test]
fn with_batch_after_start_takes_effect_for_fused_sources() {
    // Regression companion to the in-crate test: the post-start builder
    // call must respawn producers rather than silently keeping the old
    // transport, including when the sources are fused plans (whose Arc'd
    // closures must survive the respawn).
    let mut m = merge(vec![fused_band_source(7, 20)], 16);
    assert!(matches!(m.resume(), Step::Suspend(_)), "producer running");
    let mut m = m.with_batch(5);
    assert_eq!(m.batch(), 5);
    let got: Vec<i64> = m
        .collect_values()
        .iter()
        .filter_map(|v| v.as_int())
        .collect();
    let want: Vec<i64> = (1..=20).map(|n| 7000 + n).collect();
    let mut sorted = got.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, want, "respawned fused producer must replay fully");
}

#[test]
fn round_robin_skip_counts_are_identical_fused_and_unfused() {
    // Pin the RR bookkeeping: a short source (1 value) next to a long one
    // (4 values). After the short source fails in round 3, every later
    // round charges it one skip — three in total:
    //   r1: A→v, B→v   r2: (A fail), B→v   r3: skip, B→v
    //   r4: skip, B→v  r5: skip, B fail → stream ends.
    // Fusion must not change this: the fused source is one node, but RR
    // charges visits per *source*, not per combinator depth.
    let fused_short = StagePlan::new()
        .map(|v| Value::from(v.as_int().unwrap_or(0) * 2))
        .filter(|_| true)
        .fuse();
    let fused_long = fused_short.clone();

    let run = |a: BoxGen, b: BoxGen| -> (Vec<i64>, u64) {
        #[cfg(feature = "obs")]
        let skips_before = obs::counter("pipes.fan.rr_skips").get();
        let mut rr = round_robin(vec![a, b]);
        let out: Vec<i64> = rr
            .collect_values()
            .iter()
            .filter_map(|v| v.as_int())
            .collect();
        #[cfg(feature = "obs")]
        let skips = obs::counter("pipes.fan.rr_skips").get() - skips_before;
        #[cfg(not(feature = "obs"))]
        let skips = 0u64;
        (out, skips)
    };

    let (out_fused, skips_fused) = run(
        fused_short.instantiate(Box::new(to_range(1, 1, 1))),
        fused_long.instantiate(Box::new(to_range(10, 13, 1))),
    );
    // The unfused reference: the same map + pass-all-filter chain built
    // as two separate filter_map nodes.
    let unfused = |lo: i64, hi: i64| -> BoxGen {
        Box::new(gde::comb::filter_map(
            gde::comb::filter_map(to_range(lo, hi, 1), |v| Some(Value::from(v.as_int()? * 2))),
            |v| Some(v.clone()),
        ))
    };
    let (out_unfused, skips_unfused) = run(unfused(1, 1), unfused(10, 13));

    assert_eq!(out_fused, vec![2, 20, 22, 24, 26]);
    assert_eq!(out_fused, out_unfused, "fusion changed the RR interleave");
    #[cfg(feature = "obs")]
    {
        assert_eq!(skips_fused, 3, "fused RR skip count drifted");
        assert_eq!(
            skips_fused, skips_unfused,
            "fusion changed RR fairness accounting"
        );
    }
    #[cfg(not(feature = "obs"))]
    let _ = (skips_fused, skips_unfused);
}
