//! Tier-1 contract for the federation dispatcher (DESIGN.md §4l):
//! lease-based shard supervision with heartbeat liveness, fencing
//! tokens, and deterministic re-dispatch.
//!
//! The guarantees under test:
//!
//! 1. **Single-process equivalence under supervision** — a dispatcher
//!    leasing shards to workers produces a merged pooled fit
//!    bit-identical to the uninterrupted single-process run, across a
//!    2/4-shard × 1/2/4-worker sweep and under *every* chaos
//!    schedule: a worker killed pre-lease, mid-capture (partial local
//!    journal, lease left to expire), or post-capture-pre-submit, and
//!    the dispatcher itself SIGKILLed and restarted over the same
//!    journal directory.
//! 2. **Zombies are fenced and harmless** — a worker whose lease
//!    expired presents a stale fencing token, receives the typed
//!    `LeaseFenced` refusal (wire code 16), and its journal
//!    resubmission is a byte-idempotent no-op: coverage and the
//!    served fit are unchanged bit for bit.
//! 3. **Supervision is observable** — expiry, re-dispatch, and
//!    fencing all surface as typed `DispatchFault`s riding the
//!    existing `FaultReport` taxonomy (kind codes 10–14), in the
//!    dispatcher's own report, never the merged capture's.

use palu_suite::prelude::*;

use palu_traffic::observatory::ObservatoryConfig;
use palu_traffic::packets::EdgeIntensity;
use palu_traffic::pipeline::{FaultTolerantPool, Measurement};
use palu_traffic::service::{query_fit, request_shutdown, Collector, RetryPolicy, ServiceConfig};
use palu_traffic::wire::{FitSnapshot, ServiceFault, WireInjector, WireSpec};
use palu_traffic::{
    request_lease, resume_zombie, run_worker, DispatchConfig, DispatchReport, DispatchServer,
    Dispatcher, FailurePolicy, FaultKind, FederationError, InjectionSpec, Injector, JournalHeader,
    LeaseOffer, StopHandle, WorkPhase, WorkerConfig, WorkerReport,
};
use std::path::{Path, PathBuf};
use std::time::Duration;

const WINDOWS: usize = 16;
const N_V: u64 = 200;
const SEED: u64 = 4242;
const INJECT_SEED: u64 = 13;

fn header() -> JournalHeader {
    JournalHeader::with_params(
        SEED,
        N_V,
        WINDOWS as u64,
        vec![
            "test=dispatch".to_string(),
            "lambda=3".to_string(),
            "alpha=2".to_string(),
        ],
    )
}

fn generator() -> PaluGenerator {
    PaluParams::from_core_leaf_fractions(0.5, 0.2, 3.0, 2.0, 0.5)
        .unwrap()
        .generator(3_000)
        .unwrap()
}

fn observatory(gen: &PaluGenerator) -> Observatory {
    Observatory::new(
        ObservatoryConfig {
            name: "dispatch test".to_string(),
            date: String::new(),
            n_v: N_V,
        },
        gen,
        EdgeIntensity::Uniform,
        SEED,
    )
}

/// Deterministic duplicate storms, same shape as the service sweep,
/// so leased captures exercise the retry machinery too.
fn injector() -> Injector {
    let spec = InjectionSpec {
        duplicate: 0.2,
        ..InjectionSpec::none()
    };
    Injector::new(spec, INJECT_SEED)
}

fn policy() -> FailurePolicy {
    FailurePolicy::quarantine(1)
}

/// The uninterrupted single-process reference capture.
fn single_process(gen: &PaluGenerator) -> FaultTolerantPool {
    let mut obs = observatory(gen);
    Pipeline::pool_observatory_durable(
        Measurement::UndirectedDegree,
        &mut obs,
        WINDOWS,
        2,
        None,
        &policy(),
        Some(&injector()),
        None,
        None,
    )
    .expect("single-process capture succeeds")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("palu-dispatch-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn config(journal_dir: PathBuf, shards: u64) -> ServiceConfig {
    ServiceConfig {
        measurement: Measurement::UndirectedDegree,
        expect: header(),
        shards,
        min_coverage: 1.0,
        journal_dir,
        read_timeout: Duration::from_secs(5),
    }
}

/// Short leases and fast beats so expiry/re-dispatch happen within a
/// test's patience; a live worker heartbeats every ~120 ms so a
/// 600 ms lease only expires on genuinely dead workers.
fn dispatch_config(linger: bool) -> DispatchConfig {
    DispatchConfig {
        lease: Duration::from_millis(600),
        heartbeat: Duration::from_millis(120),
        linger,
        stall: None,
    }
}

/// Bind a dispatcher over `journal_dir`, returning its address, the
/// stop handle (the in-process SIGKILL), and the server thread.
#[allow(clippy::type_complexity)]
fn start_dispatcher(
    journal_dir: PathBuf,
    shards: u64,
    dconfig: DispatchConfig,
) -> (
    String,
    StopHandle,
    std::thread::JoinHandle<Result<DispatchReport, ServiceFault>>,
) {
    let collector = Collector::new(config(journal_dir, shards)).expect("collector");
    let dispatcher = Dispatcher::new(collector, dconfig).expect("dispatcher");
    let server = DispatchServer::bind("127.0.0.1:0", dispatcher).expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let stop = server.stop_handle();
    let handle = std::thread::spawn(move || server.run());
    (addr, stop, handle)
}

fn worker_config(addr: &str, worker: u64, dir: &Path) -> WorkerConfig {
    WorkerConfig {
        addr: addr.to_string(),
        worker,
        journal_dir: dir.to_path_buf(),
        expect: header(),
        retry: RetryPolicy::fast(SEED + worker),
        poll: Duration::from_millis(10),
    }
}

/// Serve leases until the dispatcher says the capture is complete:
/// the exact shard-capture engine `capture_shard` runs, over the
/// ticket's window range (capped under the mid-capture chaos kill).
fn serve_until_complete(
    gen: &PaluGenerator,
    cfg: &WorkerConfig,
    chaos: Option<WorkPhase>,
) -> Result<WorkerReport, ServiceFault> {
    let mut obs = observatory(gen);
    run_worker(
        cfg,
        &WireInjector::new(WireSpec::none(), SEED),
        chaos,
        |ticket, journal, limit| {
            obs.seek(ticket.lo);
            let n = usize::try_from(limit.unwrap_or(ticket.hi - ticket.lo))
                .expect("window count fits usize");
            Pipeline::pool_observatory_durable(
                Measurement::UndirectedDegree,
                &mut obs,
                n,
                2,
                None,
                &policy(),
                Some(&injector()),
                Some(journal),
                None,
            )
            .map(|_| ())
            .map_err(FederationError::Pipeline)
        },
        |_| {},
    )
}

/// The snapshot must reproduce the reference pool bit for bit.
fn assert_snapshot_bit_identical(snap: &FitSnapshot, reference: &FaultTolerantPool, what: &str) {
    assert_eq!(snap.covered, WINDOWS as u64, "{what}: coverage");
    assert!(!snap.partial, "{what}: full coverage must not be partial");
    assert_eq!(
        snap.pooled_windows, reference.pooled.windows,
        "{what}: pooled windows"
    );
    assert_eq!(snap.d_max, reference.pooled.d_max, "{what}: d_max");
    assert_eq!(
        snap.survivors, reference.report.survivors,
        "{what}: survivors"
    );
    assert_eq!(
        snap.quarantined, reference.report.quarantined,
        "{what}: quarantined"
    );
    assert_eq!(
        snap.rows.len(),
        reference.pooled.mean.iter().count(),
        "{what}: row count"
    );
    for (i, (row, ((degree, mean), sigma))) in snap
        .rows
        .iter()
        .zip(
            reference
                .pooled
                .mean
                .iter()
                .zip(reference.pooled.sigma.iter()),
        )
        .enumerate()
    {
        assert_eq!(row.degree, degree, "{what}: degree bin {i}");
        assert_eq!(row.mean_bits, mean.to_bits(), "{what}: mean bin {i}");
        assert_eq!(row.sigma_bits, sigma.to_bits(), "{what}: sigma bin {i}");
    }
}

/// Rebuild a collector over the dispatcher's journal directory and
/// check the merged fit against the single-process reference — the
/// same derivation a restarted server performs, so it also proves the
/// on-disk state alone carries the result.
fn assert_journals_merge_bit_identical(
    journal_dir: PathBuf,
    shards: u64,
    reference: &FaultTolerantPool,
    what: &str,
) {
    let collector = Collector::new(config(journal_dir, shards)).expect("post-hoc collector");
    let snap = collector.fit_snapshot().expect("post-hoc fit");
    assert_snapshot_bit_identical(&snap, reference, what);
}

/// Every chaos schedule the sweep runs. `DispatcherRestart` composes
/// a pre-submit worker kill with an in-process dispatcher SIGKILL
/// (stop without drain) and a restart over the same journals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Chaos {
    None,
    WorkerPreLease,
    WorkerMidCapture,
    WorkerPreSubmit,
    DispatcherRestart,
}

impl Chaos {
    fn worker_phase(self) -> Option<WorkPhase> {
        match self {
            Chaos::None => None,
            Chaos::WorkerPreLease => Some(WorkPhase::PreLease),
            Chaos::WorkerMidCapture => Some(WorkPhase::MidCapture),
            Chaos::WorkerPreSubmit | Chaos::DispatcherRestart => Some(WorkPhase::PreSubmit),
        }
    }
}

#[test]
fn dispatched_fit_is_bit_identical_across_shard_worker_and_chaos_sweep() {
    let gen = generator();
    let reference = single_process(&gen);
    let schedules = [
        Chaos::None,
        Chaos::WorkerPreLease,
        Chaos::WorkerMidCapture,
        Chaos::WorkerPreSubmit,
        Chaos::DispatcherRestart,
    ];
    for n_shards in [2u64, 4] {
        for n_workers in [1u64, 2, 4] {
            for chaos in schedules {
                let tag = format!("{n_shards}shards-{n_workers}workers-{chaos:?}");
                let dir = temp_dir(&tag);
                let server_dir = dir.join("server");

                let (addr, stop, handle) =
                    start_dispatcher(server_dir.clone(), n_shards, dispatch_config(false));

                // The chaos worker dies first (by construction it
                // exits quickly at its kill phase); the fleet of
                // clean workers then reaps whatever it left behind.
                if let Some(phase) = chaos.worker_phase() {
                    let cfg = worker_config(&addr, 100, &dir);
                    let report =
                        serve_until_complete(&gen, &cfg, Some(phase)).expect("chaos worker runs");
                    assert_eq!(report.killed, Some(phase), "{tag}: chaos worker died");
                    assert!(report.completed.is_empty(), "{tag}: died before credit");
                }

                // The dispatcher SIGKILL: stop without drain while the
                // killed worker's lease is still outstanding, then
                // restart over the same journal directory.
                let (addr, handle) = if chaos == Chaos::DispatcherRestart {
                    stop.stop();
                    let report = handle
                        .join()
                        .expect("dispatcher thread")
                        .expect("stopped dispatcher reports");
                    assert!(
                        report.shards_done < n_shards,
                        "{tag}: killed mid-capture, not after"
                    );
                    let (addr, _stop, handle) =
                        start_dispatcher(server_dir.clone(), n_shards, dispatch_config(false));
                    (addr, handle)
                } else {
                    (addr, handle)
                };

                let reports: Vec<WorkerReport> = std::thread::scope(|scope| {
                    let joins: Vec<_> = (0..n_workers)
                        .map(|w| {
                            let addr = addr.clone();
                            let gen = &gen;
                            let dir = &dir;
                            scope.spawn(move || {
                                let cfg = worker_config(&addr, w, dir);
                                serve_until_complete(gen, &cfg, None)
                            })
                        })
                        .collect();
                    joins
                        .into_iter()
                        .map(|j| {
                            j.join()
                                .expect("worker thread")
                                .unwrap_or_else(|e| panic!("{tag}: worker failed: {e}"))
                        })
                        .collect()
                });
                for report in &reports {
                    assert_eq!(report.killed, None, "{tag}: clean workers survive");
                    assert_eq!(report.fenced, 0, "{tag}: live workers are never fenced");
                }
                let completed: u64 = reports.iter().map(|r| r.completed.len() as u64).sum();
                assert!(completed > 0, "{tag}: someone did the work");

                let report = handle
                    .join()
                    .expect("dispatcher thread")
                    .expect("dispatcher drains with a report");
                assert_eq!(report.shards_done, n_shards, "{tag}: all shards done");
                match chaos {
                    Chaos::None | Chaos::WorkerPreLease | Chaos::DispatcherRestart => {}
                    Chaos::WorkerMidCapture | Chaos::WorkerPreSubmit => {
                        assert!(report.leases_expired > 0, "{tag}: dead lease expired");
                        assert!(report.leases_redispatched > 0, "{tag}: range re-dispatched");
                        assert!(
                            report
                                .events
                                .iter()
                                .any(|e| e.kind() == FaultKind::LeaseExpired),
                            "{tag}: expiry is a typed event"
                        );
                        assert!(
                            report
                                .faults
                                .records
                                .iter()
                                .any(|r| r.kind == FaultKind::WorkerLost),
                            "{tag}: worker loss rides the fault taxonomy"
                        );
                    }
                }

                assert_journals_merge_bit_identical(server_dir, n_shards, &reference, &tag);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

#[test]
fn fenced_zombie_is_typed_and_never_changes_coverage() {
    let gen = generator();
    let reference = single_process(&gen);
    let dir = temp_dir("zombie");
    let server_dir = dir.join("server");
    let n_shards = 2u64;

    // Linger so the dispatcher outlives completion: the zombie has to
    // find a live dispatcher to be refused by.
    let (addr, _stop, handle) =
        start_dispatcher(server_dir.clone(), n_shards, dispatch_config(true));

    // The doomed worker takes a lease, captures its range into a
    // local journal — and then goes silent (no heartbeat, no submit).
    let zombie_cfg = worker_config(&addr, 7, &dir);
    let ticket = match request_lease(&addr, &zombie_cfg.retry, 7).expect("lease request") {
        LeaseOffer::Granted(ticket) => ticket,
        other => panic!("expected a grant, got {other:?}"),
    };
    let zombie_journal = dir.join(palu_traffic::worker_journal_name(
        7,
        ticket.shards,
        ticket.shard,
    ));
    {
        let journal =
            palu_traffic::Journal::create(&zombie_journal, header()).expect("zombie journal");
        let mut obs = observatory(&gen);
        obs.seek(ticket.lo);
        Pipeline::pool_observatory_durable(
            Measurement::UndirectedDegree,
            &mut obs,
            usize::try_from(ticket.hi - ticket.lo).expect("fits"),
            2,
            None,
            &policy(),
            Some(&injector()),
            Some(&journal),
            None,
        )
        .expect("zombie capture");
    }

    // Let the lease expire, then a live worker completes everything —
    // including the zombie's abandoned range, re-dispatched.
    std::thread::sleep(Duration::from_millis(700));
    let live_cfg = worker_config(&addr, 8, &dir);
    let live = serve_until_complete(&gen, &live_cfg, None).expect("live worker");
    assert!(
        live.completed.contains(&ticket.shard),
        "live worker reaped the zombie's shard"
    );

    let before = query_fit(&addr, &RetryPolicy::fast(SEED)).expect("fit before zombie");
    assert_snapshot_bit_identical(&before, &reference, "before the zombie wakes");

    // The zombie wakes: its heartbeat draws the typed fenced refusal,
    // and its full-journal resubmission is a byte-idempotent no-op.
    let outcome = resume_zombie(
        &zombie_cfg,
        &WireInjector::new(WireSpec::none(), SEED),
        ticket.shard,
        ticket.shards,
        ticket.fence,
    )
    .expect("zombie resumption is typed, not an error");
    assert!(outcome.fenced, "stale fence draws the typed refusal");
    assert_eq!(
        outcome.resubmitted,
        ticket.hi - ticket.lo,
        "resubmission confirms every window already persisted"
    );

    let after = query_fit(&addr, &RetryPolicy::fast(SEED)).expect("fit after zombie");
    assert_snapshot_bit_identical(&after, &reference, "after the zombie resubmits");
    assert_eq!(
        before.covered, after.covered,
        "zombie resubmission never changes coverage"
    );

    // Drain through the dispatcher's collector path (the routed
    // non-lease protocol) and audit the supervision trail.
    request_shutdown(&addr, &RetryPolicy::fast(SEED)).expect("shutdown");
    let report = handle
        .join()
        .expect("dispatcher thread")
        .expect("drain report");
    assert_eq!(report.shards_done, n_shards);
    assert!(report.leases_expired >= 1, "the zombie's lease expired");
    assert!(report.leases_redispatched >= 1, "its range re-dispatched");
    assert!(report.leases_fenced >= 1, "the refusal was counted");
    assert!(
        report
            .events
            .iter()
            .any(|e| e.kind() == FaultKind::LeaseFenced),
        "fencing is a typed event"
    );
    assert!(
        report
            .faults
            .records
            .iter()
            .any(|r| r.kind == FaultKind::LeaseFenced),
        "fencing rides the fault taxonomy"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
