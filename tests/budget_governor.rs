//! Tier-1 contract for the resource-budget governor (DESIGN.md §4g):
//! bounded-memory capture without changing a single output bit.
//!
//! The guarantees under test:
//!
//! 1. **Byte-identity without a budget** — every pool entry point
//!    (`pool_observatory_durable`, `pool_observatory_governed` with no
//!    governor, and with an ample governor) produces bit-identical
//!    pooled `D(d_i)`.
//! 2. **Admission soundness** — across a sweep of configurations the
//!    projected peak upper-bounds the peak the ledger actually
//!    records, and a budget below the degraded floor is refused with
//!    a typed fault before the observatory advances.
//! 3. **Deterministic degradation** — one tight budget yields the
//!    same degradation events and the same pooled bits at 1, 2, and
//!    8 threads, run after run.
//! 4. **The ladder under ballast** — seeded ballast injection drives
//!    every rung in engagement order without corrupting the output.
//! 5. **Governed resume** — replaying a journal under a tight budget
//!    degrades instead of overrunning, and still reproduces the
//!    uninterrupted pooled result bit for bit.

use palu_suite::prelude::*;

use palu_traffic::observatory::ObservatoryConfig;
use palu_traffic::packets::EdgeIntensity;
use palu_traffic::pipeline::{FaultTolerantPool, Measurement};
use palu_traffic::{
    BudgetFault, CostModel, DegradationRung, FailurePolicy, Governor, InjectionSpec, Injector,
    Journal, JournalHeader, PipelineError, ResourceBudget,
};

const WINDOWS: usize = 24;
const N_V: u64 = 2_000;
const SEED: u64 = 20260807;

fn generator() -> PaluGenerator {
    PaluParams::from_core_leaf_fractions(0.5, 0.2, 3.0, 2.0, 0.5)
        .unwrap()
        .generator(3_000)
        .unwrap()
}

fn observatory(gen: &PaluGenerator, n_v: u64) -> Observatory {
    Observatory::new(
        ObservatoryConfig {
            name: "budget-governor test".to_string(),
            date: String::new(),
            n_v,
        },
        gen,
        EdgeIntensity::Uniform,
        SEED,
    )
}

fn cost_model(gen: &PaluGenerator, n_v: u64, windows: usize, threads: usize) -> CostModel {
    CostModel {
        n_v,
        n_nodes: observatory(gen, n_v).underlying().n_nodes() as u64,
        windows: windows as u64,
        threads: threads as u64,
    }
}

/// One governed capture over a fresh observatory.
fn run(
    gen: &PaluGenerator,
    threads: usize,
    governor: Option<&Governor<'_>>,
    injector: Option<&Injector>,
    metrics: Option<&Metrics>,
) -> Result<FaultTolerantPool, PipelineError> {
    let mut obs = observatory(gen, N_V);
    Pipeline::pool_observatory_governed(
        Measurement::UndirectedDegree,
        &mut obs,
        WINDOWS,
        threads,
        metrics,
        &FailurePolicy::strict(),
        injector,
        None,
        None,
        governor,
    )
}

fn assert_bit_identical(a: &FaultTolerantPool, b: &FaultTolerantPool, what: &str) {
    assert_eq!(a.pooled.windows, b.pooled.windows, "{what}: window count");
    assert_eq!(a.pooled.d_max, b.pooled.d_max, "{what}: d_max");
    for (i, ((ga, wa), (gs, ws))) in a
        .pooled
        .mean
        .iter()
        .zip(b.pooled.mean.iter())
        .zip(a.pooled.sigma.iter().zip(b.pooled.sigma.iter()))
        .enumerate()
    {
        assert_eq!(ga.0, wa.0, "{what}: bin {i} degree");
        assert_eq!(ga.1.to_bits(), wa.1.to_bits(), "{what}: mean bin {i}");
        assert_eq!(gs.to_bits(), ws.to_bits(), "{what}: sigma bin {i}");
    }
}

/// A tight-but-feasible budget for this workload: a hard watermark of
/// the degraded floor plus one window of transient headroom, and a
/// soft watermark of one window — any batch in flight breaches it, so
/// the ladder engages deterministically at every width.
fn tight_budget(gen: &PaluGenerator, threads: usize) -> (ResourceBudget, u64) {
    let model = cost_model(gen, N_V, WINDOWS, threads);
    let hard = model.floor_bytes() + model.window_bytes();
    (
        ResourceBudget::with_watermarks(Some(model.window_bytes()), Some(hard)),
        hard,
    )
}

#[test]
fn every_entry_point_is_bit_identical_without_a_budget() {
    let gen = generator();
    let governed_none = run(&gen, 4, None, None, None).expect("governed, no governor");

    let mut obs = observatory(&gen, N_V);
    let checked = Pipeline::pool_observatory_durable(
        Measurement::UndirectedDegree,
        &mut obs,
        WINDOWS,
        4,
        None,
        &FailurePolicy::strict(),
        None,
        None,
        None,
    )
    .expect("checked");
    assert_bit_identical(&checked, &governed_none, "checked vs governed(None)");

    let mut obs = observatory(&gen, N_V);
    let durable = Pipeline::pool_observatory_durable(
        Measurement::UndirectedDegree,
        &mut obs,
        WINDOWS,
        4,
        None,
        &FailurePolicy::strict(),
        None,
        None,
        None,
    )
    .expect("durable");
    assert_bit_identical(&durable, &governed_none, "durable vs governed(None)");

    // An ample budget runs the ledger but must not change a bit.
    let ample = ResourceBudget::with_limit(1 << 40);
    let gov = Governor {
        budget: &ample,
        strict_admission: true,
    };
    let governed = run(&gen, 4, Some(&gov), None, None).expect("governed, ample");
    assert_bit_identical(&governed, &governed_none, "ample vs governed(None)");
    assert!(governed.report.degradations.is_empty());
}

#[test]
fn admission_estimate_bounds_the_actual_peak_across_configs() {
    let gen = generator();
    for (n_v, windows, threads) in [
        (200, 6, 1),
        (200, 24, 4),
        (2_000, 8, 2),
        (2_000, 24, 8),
        (10_000, 12, 4),
    ] {
        let budget = ResourceBudget::with_limit(1 << 40);
        let gov = Governor {
            budget: &budget,
            strict_admission: false,
        };
        let metrics = Metrics::new();
        let mut obs = observatory(&gen, n_v);
        Pipeline::pool_observatory_governed(
            Measurement::UndirectedDegree,
            &mut obs,
            windows,
            threads,
            Some(&metrics),
            &FailurePolicy::strict(),
            None,
            None,
            None,
            Some(&gov),
        )
        .expect("ample capture");
        let snap = metrics.snapshot();
        assert!(
            snap.admission_estimate_bytes >= snap.peak_accounted_bytes,
            "estimate {} < actual peak {} for n_v={n_v} windows={windows} threads={threads}",
            snap.admission_estimate_bytes,
            snap.peak_accounted_bytes,
        );
        assert!(snap.peak_accounted_bytes > 0, "ledger must have recorded");
        // The ledger must drain completely: every acquire released.
        assert_eq!(budget.accounted(), 0, "ledger leak");
    }
}

#[test]
fn infeasible_budgets_are_refused_with_a_typed_fault() {
    let gen = generator();
    let floor = cost_model(&gen, N_V, WINDOWS, 4).floor_bytes();
    let budget = ResourceBudget::with_limit(floor / 2);
    let gov = Governor {
        budget: &budget,
        strict_admission: false,
    };
    match run(&gen, 4, Some(&gov), None, None) {
        Err(PipelineError::Budget(BudgetFault::AdmissionRefused {
            estimated,
            floor: f,
            limit,
            suggestion,
        })) => {
            assert!(f > limit, "refusal must cite an infeasible floor");
            assert!(estimated >= f, "estimate below the floor");
            if let Some(s) = suggestion {
                assert!(s.n_v <= N_V && s.threads >= 1, "suggestion {s:?}");
            }
        }
        other => panic!("expected AdmissionRefused, got {other:?}"),
    }
    // Refusal happens before any window is synthesized: a fresh
    // capture on the same seed still reproduces the baseline.
    let baseline = run(&gen, 4, None, None, None).expect("baseline");
    let retry = run(&gen, 4, None, None, None).expect("retry after refusal");
    assert_bit_identical(&retry, &baseline, "capture after refusal");
}

#[test]
fn tight_budget_degrades_identically_at_every_thread_count() {
    let gen = generator();
    let baseline = run(&gen, 4, None, None, None).expect("baseline");

    for threads in [1usize, 2, 8] {
        let (budget, limit) = tight_budget(&gen, threads);
        let gov = Governor {
            budget: &budget,
            strict_admission: false,
        };
        let pool = run(&gen, threads, Some(&gov), None, None).expect("tight capture");
        assert_bit_identical(&pool, &baseline, "tight budget vs baseline");
        assert!(
            !pool.report.degradations.is_empty(),
            "a one-window soft watermark must engage the ladder at {threads} threads"
        );
        assert!(budget.peak() <= limit, "ledger peak overran the limit");
        let events: Vec<(DegradationRung, u64)> = pool
            .report
            .degradations
            .iter()
            .map(|d| (d.rung, d.window))
            .collect();
        // Engagement follows the declared rung order, each at most once.
        for (i, (r, _)) in events.iter().enumerate() {
            assert_eq!(*r, DegradationRung::ALL[i], "rung {i} out of order");
        }
        // The same budget at the same width is exactly repeatable.
        let (budget2, _) = tight_budget(&gen, threads);
        let gov2 = Governor {
            budget: &budget2,
            strict_admission: false,
        };
        let again = run(&gen, threads, Some(&gov2), None, None).expect("repeat");
        assert_bit_identical(&again, &pool, "repeat at same width");
        let again_events: Vec<(DegradationRung, u64)> = again
            .report
            .degradations
            .iter()
            .map(|d| (d.rung, d.window))
            .collect();
        assert_eq!(again_events, events, "degradations differ on rerun");
        assert_eq!(budget2.peak(), budget.peak(), "peaks differ on rerun");
    }
}

#[test]
fn ballast_injection_climbs_every_rung_in_order() {
    let gen = generator();
    let baseline = run(&gen, 4, None, None, None).expect("baseline");
    let model = cost_model(&gen, N_V, WINDOWS, 4);
    // Headroom for clean 4-wide batches; ballasted windows (4x the
    // transient) must breach the soft watermark.
    let budget = ResourceBudget::with_watermarks(
        Some(6 * model.window_bytes()),
        Some(model.peak_bytes(4) * 4),
    );
    let gov = Governor {
        budget: &budget,
        strict_admission: false,
    };
    let spec = InjectionSpec {
        ballast: 1.0,
        ..InjectionSpec::none()
    };
    let injector = Injector::new(spec, 5);
    let pool = run(&gen, 4, Some(&gov), Some(&injector), None).expect("ballasted capture");
    assert_bit_identical(&pool, &baseline, "ballast vs baseline");
    assert!(
        pool.report.injected > 0,
        "ballast must be counted as injected"
    );
    assert_eq!(pool.report.survivors, WINDOWS as u64);
    let rungs: Vec<DegradationRung> = pool.report.degradations.iter().map(|d| d.rung).collect();
    assert!(!rungs.is_empty(), "ballast must engage the ladder");
    // Engagement follows the declared order with no rung repeated.
    for (i, r) in rungs.iter().enumerate() {
        assert_eq!(*r, DegradationRung::ALL[i], "rung {i} out of order");
    }
    assert_eq!(rungs.len(), 3, "sustained ballast climbs the whole ladder");
}

#[test]
fn journal_resume_under_a_tight_budget_degrades_and_matches() {
    let gen = generator();
    let baseline = run(&gen, 4, None, None, None).expect("baseline");

    let dir = std::env::temp_dir().join("palu-budget-governor-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("governed-resume.journal");
    let _ = std::fs::remove_file(&path);
    let header = JournalHeader::with_params(
        SEED,
        N_V,
        WINDOWS as u64,
        vec!["test=budget-governor".to_string()],
    );

    // Full durable capture, no budget.
    let journal = Journal::create(&path, header.clone()).expect("create");
    let mut obs = observatory(&gen, N_V);
    Pipeline::pool_observatory_durable(
        Measurement::UndirectedDegree,
        &mut obs,
        WINDOWS,
        4,
        None,
        &FailurePolicy::strict(),
        None,
        Some(&journal),
        None,
    )
    .expect("durable capture");
    drop(journal);

    // Resume the complete journal under a tight budget: the replay
    // buffers through the accountant, the retained slots breach the
    // soft watermark, and the ladder spills them into the merge
    // instead of overrunning. The soft watermark sits below the
    // replayed slots' aggregate footprint so degradation is certain.
    let model = cost_model(&gen, N_V, WINDOWS, 4);
    let limit = model.floor_bytes() + model.window_bytes();
    let (journal, recovery) = Journal::resume(&path, header).expect("resume");
    assert_eq!(recovery.windows.len(), WINDOWS, "journal must be complete");
    let budget = ResourceBudget::with_watermarks(Some(1024), Some(limit));
    let gov = Governor {
        budget: &budget,
        strict_admission: false,
    };
    let mut obs = observatory(&gen, N_V);
    let resumed = Pipeline::pool_observatory_governed(
        Measurement::UndirectedDegree,
        &mut obs,
        WINDOWS,
        4,
        None,
        &FailurePolicy::strict(),
        None,
        Some(&journal),
        Some(&recovery),
        Some(&gov),
    )
    .expect("governed resume");
    drop(journal);
    assert_bit_identical(&resumed, &baseline, "governed resume vs baseline");
    assert!(budget.peak() <= limit, "replay overran the budget");
    assert!(budget.peak() > 0, "replay must be accounted");
    assert!(
        !resumed.report.degradations.is_empty(),
        "replaying {WINDOWS} retained slots past a 1 KiB soft watermark must degrade"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn accounted_peak_is_independent_of_capture_length() {
    // Completed windows fold as soon as they are contiguous, so the
    // ledger holds the in-flight range and the merge state — never one
    // slot per captured window. Ten times the windows, same peak.
    let gen = generator();
    let peak = |windows: usize| {
        let budget = ResourceBudget::with_limit(u64::MAX / 4);
        let gov = Governor {
            budget: &budget,
            strict_admission: false,
        };
        let metrics = Metrics::new();
        let mut obs = observatory(&gen, N_V);
        Pipeline::pool_observatory_governed(
            Measurement::UndirectedDegree,
            &mut obs,
            windows,
            4,
            Some(&metrics),
            &FailurePolicy::strict(),
            None,
            None,
            None,
            Some(&gov),
        )
        .expect("ample capture");
        let snap = metrics.snapshot();
        assert!(
            snap.admission_estimate_bytes >= budget.peak(),
            "estimate {} < actual peak {} at {windows} windows",
            snap.admission_estimate_bytes,
            budget.peak()
        );
        assert_eq!(budget.accounted(), 0, "ledger leak at {windows} windows");
        budget.peak()
    };
    let short = peak(48);
    let long = peak(480);
    assert!(short > 0, "ledger must have recorded");
    assert!(
        long.abs_diff(short) * 20 <= short,
        "peak accounted bytes grew with capture length: {short} at 48 windows, {long} at 480"
    );
}
