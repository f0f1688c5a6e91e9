//! Tier-1 contract for the fault-tolerant measurement pipeline.
//!
//! The guarantees under test:
//!
//! 1. **Deterministic injection** — the same seed and injection spec
//!    produce the same `FaultReport` and bit-identical pooled
//!    `D(d_i)` at 1, 2, and 8 threads, and across reruns.
//! 2. **Exact accounting** — with zero retries, the report's injected
//!    count equals an independent recount of the injector's plans.
//! 3. **Substitution closure** — the substitute policy always delivers
//!    `n` surviving windows, whatever was injected.
//! 4. **Clean-path identity** — with no injector and a strict policy,
//!    the checked engine is bit-identical to the serial fold.
//! 5. **Panic containment** — injected worker panics are caught and
//!    classified, never propagated out of the pipeline.
//! 6. **Inclusive quarantine boundary** — a quarantined fraction
//!    exactly equal to `quarantine_threshold` passes; only strictly
//!    above fails.
//! 7. **Duplicate-storm path** — `dup` faults surface as degenerate
//!    histograms, are recounted exactly, and are retried back to
//!    health or quarantined, never silently pooled.
//! 8. **Edgeless network** — a capture with no conversations to draw
//!    from ends in typed `EmptySynthesizer` faults: aborted under the
//!    strict policy, quarantined otherwise, refused above the
//!    quarantine threshold; never a panic.

use palu_suite::prelude::*;
use palu_traffic::observatory::ObservatoryConfig;
use palu_traffic::packets::EdgeIntensity;
use palu_traffic::pipeline::Measurement;
use palu_traffic::{
    FailurePolicy, FaultKind, InjectionSpec, Injector, PipelineError, WindowFault, WindowOutcome,
};

fn observatory(seed: u64, n_v: u64) -> Observatory {
    let gen = PaluParams::from_core_leaf_fractions(0.5, 0.2, 3.0, 2.0, 0.5)
        .unwrap()
        .generator(30_000)
        .unwrap();
    Observatory::new(
        ObservatoryConfig {
            name: "fault-injection test".to_string(),
            date: String::new(),
            n_v,
        },
        &gen,
        EdgeIntensity::Uniform,
        seed,
    )
}

#[test]
fn half_rate_injection_is_deterministic_across_threads_and_reruns() {
    const WINDOWS: usize = 64;
    let policy = FailurePolicy::quarantine(1);
    let spec = InjectionSpec::uniform(0.5);
    let mut reference = None;
    for (threads, seed_round) in [(1usize, 0), (2, 0), (8, 0), (8, 1)] {
        let mut obs = observatory(21, 2_000);
        let injector = Injector::new(spec, 77);
        let ft = Pipeline::pool_observatory_durable(
            Measurement::UndirectedDegree,
            &mut obs,
            WINDOWS,
            threads,
            None,
            &policy,
            Some(&injector),
            None,
            None,
        )
        .unwrap();
        assert!(ft.report.injected > 0, "50% rate over 64 windows");
        assert_eq!(
            ft.report.survivors + ft.report.quarantined,
            WINDOWS as u64,
            "every window is disposed exactly once (round {seed_round})"
        );
        match &reference {
            None => reference = Some(ft),
            Some(want) => {
                assert_eq!(ft.report, want.report, "threads = {threads}");
                assert_eq!(
                    ft.pooled.windows, want.pooled.windows,
                    "threads = {threads}"
                );
                for (i, ((_, got), (_, expect))) in ft
                    .pooled
                    .mean
                    .iter()
                    .zip(want.pooled.mean.iter())
                    .enumerate()
                {
                    assert_eq!(
                        got.to_bits(),
                        expect.to_bits(),
                        "mean bin {i} differs at {threads} threads"
                    );
                }
                for (i, (got, expect)) in ft
                    .pooled
                    .sigma
                    .iter()
                    .zip(want.pooled.sigma.iter())
                    .enumerate()
                {
                    assert_eq!(
                        got.to_bits(),
                        expect.to_bits(),
                        "sigma bin {i} differs at {threads} threads"
                    );
                }
                assert_eq!(ft.histogram, want.histogram, "threads = {threads}");
            }
        }
    }
}

#[test]
fn injected_count_matches_an_independent_plan_recount() {
    // With zero retries every window runs exactly one attempt, so the
    // report's injected counter must equal the number of windows whose
    // first-attempt plan is Some.
    const WINDOWS: usize = 32;
    let spec = InjectionSpec::uniform(0.4);
    let mut obs = observatory(5, 2_000);
    let injector = Injector::new(spec, 13);
    let ft = Pipeline::pool_observatory_durable(
        Measurement::UndirectedDegree,
        &mut obs,
        WINDOWS,
        4,
        None,
        &FailurePolicy::quarantine(0),
        Some(&injector),
        None,
        None,
    )
    .unwrap();
    let recount = Injector::new(spec, 13);
    let expected = (0..WINDOWS as u64)
        .filter(|&t| recount.plan(t, 0).is_some())
        .count() as u64;
    assert_eq!(ft.report.injected, expected);
    // Each planted fault shows up as exactly one record, and nothing
    // else does.
    assert_eq!(ft.report.records.len() as u64, expected);
}

#[test]
fn substitute_policy_always_delivers_every_window() {
    const WINDOWS: usize = 16;
    let mut obs = observatory(9, 2_000);
    let injector = Injector::new(InjectionSpec::uniform(0.8), 3);
    let ft = Pipeline::pool_observatory_durable(
        Measurement::UndirectedDegree,
        &mut obs,
        WINDOWS,
        4,
        None,
        &FailurePolicy::substitute(1),
        Some(&injector),
        None,
        None,
    )
    .unwrap();
    assert_eq!(ft.pooled.windows, WINDOWS as u64);
    assert_eq!(ft.report.survivors, WINDOWS as u64);
    assert_eq!(ft.report.quarantined, 0);
    assert!(
        ft.report.substituted > 0,
        "80% rate must force substitutions"
    );
    assert!(ft
        .report
        .records
        .iter()
        .all(|r| r.outcome != WindowOutcome::Quarantined));
}

#[test]
fn clean_checked_run_is_bit_identical_to_the_serial_fold() {
    const WINDOWS: usize = 12;
    let serial = {
        let obs = observatory(33, 3_000);
        let windows: Vec<PacketWindow> = (0..WINDOWS as u64).map(|t| obs.window_at(t)).collect();
        Pipeline::pool(Measurement::UndirectedDegree, &windows)
    };
    let mut obs = observatory(33, 3_000);
    let ft = Pipeline::pool_observatory_durable(
        Measurement::UndirectedDegree,
        &mut obs,
        WINDOWS,
        8,
        None,
        &FailurePolicy::strict(),
        None,
        None,
        None,
    )
    .unwrap();
    assert!(ft.report.is_clean());
    assert_eq!(ft.pooled.windows, serial.windows);
    assert_eq!(ft.pooled.d_max, serial.d_max);
    for ((_, got), (_, want)) in ft.pooled.mean.iter().zip(serial.mean.iter()) {
        assert_eq!(got.to_bits(), want.to_bits());
    }
    for (got, want) in ft.pooled.sigma.iter().zip(serial.sigma.iter()) {
        assert_eq!(got.to_bits(), want.to_bits());
    }
}

#[test]
fn worker_panics_are_contained_and_classified() {
    const WINDOWS: usize = 6;
    let spec = InjectionSpec {
        panic: 1.0,
        ..InjectionSpec::none()
    };
    let mut obs = observatory(2, 2_000);
    let injector = Injector::new(spec, 1);
    let ft = Pipeline::pool_observatory_durable(
        Measurement::UndirectedDegree,
        &mut obs,
        WINDOWS,
        3,
        None,
        &FailurePolicy::quarantine(0),
        Some(&injector),
        None,
        None,
    )
    .unwrap();
    assert_eq!(ft.report.quarantined, WINDOWS as u64);
    assert_eq!(ft.report.survivors, 0);
    assert!(ft
        .report
        .records
        .iter()
        .all(|r| r.kind == FaultKind::Panic && r.outcome == WindowOutcome::Quarantined));
    // An all-quarantined run still yields a well-formed (empty) pool.
    assert_eq!(ft.pooled.windows, 0);
}

#[test]
fn quarantine_threshold_boundary_is_inclusive() {
    // The overflow predicate compares the quarantined *fraction*
    // against the threshold: exactly-equal passes, only strictly-above
    // fails. The old formulation compared counts via
    // `threshold * windows`, and 0.3 * 10.0 rounds to
    // 2.9999999999999996 in binary, so a run with exactly 3 of 10
    // windows quarantined was spuriously rejected. Pin the fixed
    // boundary end to end through the pipeline.
    const WINDOWS: usize = 10;
    let spec = InjectionSpec {
        panic: 0.3,
        ..InjectionSpec::none()
    };
    // The injection plan is pure, so scan for a seed planting exactly
    // 3 faults across the 10 first attempts (zero retries ⇒ each one
    // quarantines its window).
    let seed = (0..10_000u64)
        .find(|&s| {
            let inj = Injector::new(spec, s);
            (0..WINDOWS as u64)
                .filter(|&t| inj.plan(t, 0).is_some())
                .count()
                == 3
        })
        .expect("some seed plants exactly 3 faults in 10 windows");

    let at_threshold = FailurePolicy {
        quarantine_threshold: 0.3,
        ..FailurePolicy::quarantine(0)
    };
    let mut obs = observatory(6, 2_000);
    let injector = Injector::new(spec, seed);
    let ft = Pipeline::pool_observatory_durable(
        Measurement::UndirectedDegree,
        &mut obs,
        WINDOWS,
        4,
        None,
        &at_threshold,
        Some(&injector),
        None,
        None,
    )
    .expect("a quarantined fraction exactly at the threshold must pass");
    assert_eq!(ft.report.quarantined, 3);
    assert_eq!(ft.pooled.windows, 7);

    // One notch tighter and the same run is strictly above: refused.
    let below = FailurePolicy {
        quarantine_threshold: 0.2,
        ..at_threshold
    };
    let mut obs = observatory(6, 2_000);
    let injector = Injector::new(spec, seed);
    let err = Pipeline::pool_observatory_durable(
        Measurement::UndirectedDegree,
        &mut obs,
        WINDOWS,
        4,
        None,
        &below,
        Some(&injector),
        None,
        None,
    )
    .unwrap_err();
    match err {
        PipelineError::QuarantineOverflow {
            quarantined,
            windows,
            threshold,
        } => {
            assert_eq!((quarantined, windows), (3, 10));
            assert_eq!(threshold, 0.2);
        }
        other => panic!("expected QuarantineOverflow, got {other:?}"),
    }
}

#[test]
fn duplicate_storm_faults_are_recounted_and_recovered_end_to_end() {
    // A duplicate-edge storm crushes every packet of a window onto one
    // conversation, which the pipeline detects as collapsed histogram
    // support. Drive the `dup` kind end to end: the report's injected
    // counter must equal an independent recount of executed faulted
    // attempts, and every storm window must be either retried back to
    // health or quarantined.
    const WINDOWS: usize = 24;
    const RETRIES: u32 = 2;
    let spec = InjectionSpec {
        duplicate: 0.6,
        ..InjectionSpec::none()
    };
    let mut obs = observatory(11, 2_000);
    let injector = Injector::new(spec, 41);
    let ft = Pipeline::pool_observatory_durable(
        Measurement::UndirectedDegree,
        &mut obs,
        WINDOWS,
        4,
        None,
        &FailurePolicy::quarantine(RETRIES),
        Some(&injector),
        None,
        None,
    )
    .unwrap();

    // Replay the pure injection plan: attempts run until the first
    // clean one (which succeeds — dup is the only fault in play) or
    // the retry budget is spent.
    let recount = Injector::new(spec, 41);
    let (mut injected, mut recovered, mut quarantined) = (0u64, 0u64, 0u64);
    for t in 0..WINDOWS as u64 {
        let mut clean_at = None;
        for k in 0..=RETRIES {
            if recount.plan(t, k).is_some() {
                injected += 1;
            } else {
                clean_at = Some(k);
                break;
            }
        }
        match clean_at {
            Some(0) => {}
            Some(_) => recovered += 1,
            None => quarantined += 1,
        }
    }
    assert!(
        recovered > 0 && quarantined > 0,
        "seed must exercise both recovery outcomes \
         (recovered {recovered}, quarantined {quarantined})"
    );
    assert_eq!(ft.report.injected, injected);
    assert_eq!(ft.report.quarantined, quarantined);
    assert_eq!(ft.report.survivors, WINDOWS as u64 - quarantined);
    assert_eq!(ft.report.records.len() as u64, recovered + quarantined);
    for r in &ft.report.records {
        assert_eq!(r.kind, FaultKind::Degenerate, "window {}", r.window);
        assert!(matches!(
            r.outcome,
            WindowOutcome::Recovered | WindowOutcome::Quarantined
        ));
    }
    let got_recovered = ft
        .report
        .records
        .iter()
        .filter(|r| r.outcome == WindowOutcome::Recovered)
        .count() as u64;
    assert_eq!(got_recovered, recovered);
}

#[test]
fn edgeless_network_capture_is_quarantined_or_refused_not_panicked() {
    // A two-node core whose stubs all pair into self-loops (dropped),
    // with no leaves and no stars, leaves no conversation at all.
    let gen = PaluGenerator::new(2, 0, 0, 1.5, 0.0).unwrap();
    let edgeless = |seed: u64| {
        Observatory::new(
            ObservatoryConfig {
                name: "edgeless".to_string(),
                date: String::new(),
                n_v: 100,
            },
            &gen,
            EdgeIntensity::Uniform,
            seed,
        )
    };
    let seed = (0..1_000)
        .find(|&s| edgeless(s).synthesizer().n_conversations() == 0)
        .expect("some seed wires the two-node core into self-loops only");
    const WINDOWS: usize = 8;
    let capture = |policy: &FailurePolicy| {
        Pipeline::pool_observatory_durable(
            Measurement::UndirectedDegree,
            &mut edgeless(seed),
            WINDOWS,
            2,
            None,
            policy,
            None,
            None,
            None,
        )
    };

    // Strict: the first window's typed fault aborts the run.
    match capture(&FailurePolicy::strict()) {
        Err(PipelineError::WindowAborted { fault, .. }) => {
            assert_eq!(fault, WindowFault::EmptySynthesizer);
        }
        other => panic!("strict capture: {other:?}"),
    }
    // Quarantine and substitution: every window is classified and
    // dropped; a tolerated fraction below 1 refuses the run.
    for policy in [FailurePolicy::quarantine(2), FailurePolicy::substitute(1)] {
        let ft = capture(&policy).unwrap();
        assert_eq!(ft.report.survivors, 0, "{policy:?}");
        assert_eq!(ft.report.quarantined, WINDOWS as u64, "{policy:?}");
        assert_eq!(ft.pooled.windows, 0, "{policy:?}");
        assert!(ft
            .report
            .records
            .iter()
            .all(|r| r.kind == FaultKind::EmptySynthesizer));
        let tight = FailurePolicy {
            quarantine_threshold: 0.5,
            ..policy
        };
        assert!(
            matches!(
                capture(&tight),
                Err(PipelineError::QuarantineOverflow { quarantined, .. })
                    if quarantined == WINDOWS as u64
            ),
            "{tight:?}"
        );
    }
}
