//! The `federated-dispatch` workload: the `capture-steady` network,
//! 256 windows over 8 shards, one in-process `DispatchServer` on
//! loopback serving 2 worker threads (`run_worker`, 1 capture thread
//! each), then one closed-loop client issuing `query_fit` calls once
//! coverage is full. The only workload that reaches the journal,
//! wire, service and dispatch layers.

use crate::capture::{self, CaptureSpec, STEADY};
use crate::common::{metric, pooled_digest, rng_ns_per_draw, Rep};
use crate::measure::{digest, peak_rss_mb};
use crate::trace::{overhead_runs, Tracer};
use crate::Traced;
use palu_traffic::dispatch::{
    request_lease, run_worker, send_work_done, DispatchConfig, DispatchReport, DispatchServer,
    Dispatcher, WorkerConfig,
};
use palu_traffic::journal::{Journal, JournalHeader};
use palu_traffic::pipeline::{Measurement, Pipeline, PooledDistribution};
use palu_traffic::service::{
    query_fit, request_shutdown, shard_journal_name, submit_journal, Collector, RetryPolicy,
    ServiceConfig,
};
use palu_traffic::wire::{read_frame, write_frame, FitSnapshot, LeaseOffer, WireMessage};
use palu_traffic::{
    FailurePolicy, FederationError, Observatory, ServiceFault, WireInjector, WireSpec,
};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SPEC: CaptureSpec = CaptureSpec {
    windows: 256,
    ..STEADY
};
const SHARDS: u64 = 8;
const WORKERS: u64 = 2;
/// Closed-loop `query_fit` calls after coverage is full.
const QUERIES: usize = 200;

/// The observatory seed for workload seed `seed`: the `capture-steady`
/// network's.
pub fn input_seed(seed: u64) -> u64 {
    capture::input_seed(&SPEC, seed)
}

fn header(seed: u64) -> JournalHeader {
    JournalHeader::with_params(
        seed,
        SPEC.n_v,
        SPEC.windows as u64,
        vec![
            "bench=perfbench-federated".to_string(),
            "measurement=undirected-degree".to_string(),
        ],
    )
}

fn retry(seed: u64) -> RetryPolicy {
    RetryPolicy::fast(seed)
}

/// A running loopback dispatcher.
struct Running {
    addr: String,
    collector: Collector,
    handle: JoinHandle<Result<DispatchReport, ServiceFault>>,
}

fn start_dispatcher(dir: &Path, seed: u64) -> Running {
    let collector = Collector::new(ServiceConfig {
        measurement: Measurement::UndirectedDegree,
        expect: header(seed),
        shards: SHARDS,
        min_coverage: 1.0,
        journal_dir: dir.join("collector"),
        read_timeout: Duration::from_secs(5),
    })
    .expect("collector over a fresh journal directory");
    let dispatcher = Dispatcher::new(
        collector,
        DispatchConfig {
            linger: true,
            ..DispatchConfig::fast()
        },
    )
    .expect("dispatcher");
    let server = DispatchServer::bind("127.0.0.1:0", dispatcher).expect("bind loopback");
    let addr = server.local_addr().expect("bound address").to_string();
    let collector = server.dispatcher().collector().clone();
    let handle = std::thread::spawn(move || server.run());
    Running {
        addr,
        collector,
        handle,
    }
}

fn stop_dispatcher(run: Running, seed: u64) -> DispatchReport {
    request_shutdown(&run.addr, &retry(seed)).expect("dispatcher accepts shutdown");
    run.handle
        .join()
        .expect("dispatcher thread")
        .expect("dispatcher drains")
}

/// Capture one leased range into the worker's journal on 1 thread.
fn capture_range(
    obs: &mut Observatory,
    lo: u64,
    n: u64,
    journal: &Journal,
) -> Result<(), FederationError> {
    obs.seek(lo);
    Pipeline::pool_observatory_durable(
        Measurement::UndirectedDegree,
        obs,
        usize::try_from(n).expect("range fits usize"),
        1,
        None,
        &FailurePolicy::strict(),
        None,
        Some(journal),
        None,
    )
    .map(|_| ())
    .map_err(FederationError::Pipeline)
}

/// True when a served fit is the single-process pool, bit for bit.
fn served_matches(snap: &FitSnapshot, reference: &PooledDistribution) -> bool {
    !snap.partial
        && snap.covered == SPEC.windows as u64
        && snap.pooled_windows == reference.windows
        && snap.d_max == reference.d_max
        && snap.rows.len() == reference.mean.values().len()
        && snap
            .rows
            .iter()
            .zip(reference.mean.iter().zip(&reference.sigma))
            .all(|(row, ((d, m), s))| {
                row.degree == d && row.mean_bits == m.to_bits() && row.sigma_bits == s.to_bits()
            })
}

/// Fingerprint of a served fit's pooled rows: equal to
/// [`pooled_digest`] of the pool it serves.
fn snapshot_digest(snap: &FitSnapshot) -> u64 {
    digest(
        snap.rows
            .iter()
            .flat_map(|r| [r.degree, r.mean_bits, r.sigma_bits])
            .chain([snap.pooled_windows, snap.d_max]),
    )
}

/// The single-process reference pool of the same capture.
fn reference(seed: u64) -> PooledDistribution {
    let mut obs = capture::observatory(&SPEC, seed);
    capture::engine(&mut obs, SPEC.windows, STEADY.threads, None).pooled
}

/// Fingerprint of the single-process pool a repetition's served fit
/// must equal; computed by the parent, so that the reference capture
/// adds nothing to a repetition's peak memory.
pub fn reference_digest(seed: u64) -> u64 {
    pooled_digest(&reference(seed))
}

/// A fresh working directory for one run's journals.
fn work_dir(tag: &str) -> PathBuf {
    let dir = crate::out_dir().join(format!("work-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("benchmark work directory");
    dir
}

/// A served fit's digest, when it covers every window.
fn full_fit(addr: &str, seed: u64) -> Option<u64> {
    query_fit(addr, &retry(seed))
        .ok()
        .filter(|s| !s.partial && s.covered == SPEC.windows as u64)
        .map(|s| snapshot_digest(&s))
}

/// One untraced repetition: the real federated run. Its digest is the
/// served fit's, which the parent checks against [`reference_digest`];
/// every later query must serve the same fit.
pub fn rep(seed: u64) -> Rep {
    let dir = work_dir("rep");
    let t0 = Instant::now();
    let mut observatories: Vec<Observatory> = (0..WORKERS)
        .map(|_| capture::observatory(&SPEC, seed))
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();
    let t_start = Instant::now();
    let run = start_dispatcher(&dir, seed);
    let worker_dir = dir.join("workers");
    std::fs::create_dir_all(&worker_dir).expect("worker journal directory");
    std::thread::scope(|scope| {
        for (worker, obs) in (0..WORKERS).zip(observatories.iter_mut()) {
            let cfg = WorkerConfig {
                addr: run.addr.clone(),
                worker,
                journal_dir: worker_dir.clone(),
                expect: header(seed),
                retry: retry(seed + worker),
                poll: Duration::from_millis(10),
            };
            scope.spawn(move || {
                let injector = WireInjector::new(WireSpec::none(), seed + worker);
                run_worker(
                    &cfg,
                    &injector,
                    None,
                    |ticket, journal, limit| {
                        capture_range(
                            obs,
                            ticket.lo,
                            limit.unwrap_or(ticket.hi - ticket.lo),
                            journal,
                        )
                    },
                    |_| {},
                )
                .expect("worker serves to completion")
            });
        }
    });
    let capture_s = t_start.elapsed().as_secs_f64();
    let first = full_fit(&run.addr, seed);
    let time_to_fit_s = t_start.elapsed().as_secs_f64();
    let mut latencies = Vec::with_capacity(QUERIES);
    let mut mismatched = 0;
    for _ in 0..QUERIES {
        let t = Instant::now();
        let served = full_fit(&run.addr, seed);
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        mismatched += u64::from(served.is_none() || served != first);
    }
    let report = stop_dispatcher(run, seed);
    let wall_s = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);

    let failed = mismatched + u64::from(first.is_none()) + (SHARDS - report.shards_done);
    let mut rep = Rep {
        digest: first.unwrap_or(0),
        ..Rep::default()
    };
    rep.set("setup_s", setup_s);
    rep.set("capture_s", capture_s);
    rep.set("packets", (SPEC.windows as u64 * SPEC.n_v) as f64);
    rep.set("time_to_fit_s", time_to_fit_s);
    rep.set("wall_s", wall_s);
    rep.set("leases_granted", report.leases_granted as f64);
    rep.set("heartbeats", report.heartbeats as f64);
    rep.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    rep.set("attempted", (QUERIES as u64 + 1 + SHARDS) as f64);
    rep.set("failed", failed as f64);
    rep.samples.insert("query_ms".to_string(), latencies);
    rep
}

/// What the serial replay produced.
struct Replay {
    served: Option<FitSnapshot>,
    submit_attempts: u64,
    worker_journals: Vec<PathBuf>,
    report: DispatchReport,
}

/// The worker loop replayed serially from the public dispatch calls by
/// one worker: request a lease, capture its range into a journal,
/// submit the journal, report the work done; then fit queries, an
/// in-process fit snapshot, and shutdown.
fn replay(tr: &mut Tracer, obs: &mut Observatory, dir: &Path, seed: u64) -> Replay {
    let run = tr.span("dispatch.start", 0, |_| start_dispatcher(dir, seed));
    let policy = retry(seed);
    let injector = WireInjector::new(WireSpec::none(), seed);
    let mut submit_attempts = 0;
    let mut worker_journals = Vec::new();
    loop {
        let offer = tr
            .span("dispatch.request_lease", 0, |_| {
                request_lease(&run.addr, &policy, 0)
            })
            .expect("lease round");
        let ticket = match offer {
            LeaseOffer::Granted(ticket) => ticket,
            LeaseOffer::Complete => break,
            LeaseOffer::Wait => panic!("a lone serial worker never waits for a lease"),
        };
        let s = ticket.shard;
        let path = dir.join(format!("worker-shard-{s}.journal"));
        tr.span("pipeline.capture", s, |_| {
            let journal = Journal::create(&path, header(seed)).expect("worker journal");
            capture_range(obs, ticket.lo, ticket.hi - ticket.lo, &journal)
        })
        .expect("shard capture");
        let outcome = tr
            .span("service.submit", s, |_| {
                submit_journal(
                    &run.addr,
                    &path,
                    s,
                    ticket.shards,
                    &header(seed),
                    &policy,
                    &injector,
                )
            })
            .expect("submission");
        submit_attempts += outcome.attempts;
        tr.span("dispatch.work_done", s, |_| {
            send_work_done(&run.addr, &policy, 0, s, ticket.fence)
        })
        .expect("work done");
        worker_journals.push(path);
    }
    let served = tr
        .span("service.query_fit", 0, |_| query_fit(&run.addr, &policy))
        .ok();
    for i in 1..QUERIES as u64 {
        let _ = tr.span("service.query_fit", i, |_| query_fit(&run.addr, &policy));
    }
    for i in 0..QUERIES as u64 {
        tr.span("service.fit_snapshot", i, |_| run.collector.fit_snapshot())
            .expect("in-process fit snapshot");
    }
    let report = tr.span("dispatch.shutdown", 0, |_| stop_dispatcher(run, seed));
    Replay {
        served,
        submit_attempts,
        worker_journals,
        report,
    }
}

/// Split a journal file into its record payloads by the documented
/// framing `len:u32 LE | crc32:u32 LE | payload[len]`.
fn record_payloads(bytes: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    let mut rest = bytes;
    while rest.len() >= 8 {
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let Some(payload) = rest.get(8..8 + len) else {
            break;
        };
        out.push(payload);
        rest = &rest[8 + len..];
    }
    out
}

/// The traced run: the real federated run (untraced) for its
/// dispatch counters, the serial replay traced and untraced twice
/// each, then the journal, wire and merge layers on the first traced
/// replay's journals.
pub fn traced(seed: u64) -> Traced {
    let real = rep(seed);
    let reference = reference(seed);
    let mut tr = Tracer::new();
    let (mut obs, mut metrics) = capture::traced_setup(&mut tr, &SPEC, seed);

    let mut dirs = Vec::new();
    let (replays, traced_s, untraced_s) = overhead_runs(&mut tr, |tr| {
        let dir = work_dir(&format!("replay{}", dirs.len()));
        dirs.push(dir.clone());
        tr.span("replay", 0, |tr| replay(tr, &mut obs, &dir, seed))
    });
    let dir = &dirs[0];
    let traced = &replays[0];

    // Journal layer: recover each worker journal, then append its
    // windows to a fresh journal.
    let hdr = header(seed);
    let mut entries = Vec::new();
    for (s, path) in traced.worker_journals.iter().enumerate() {
        let rec = tr
            .span("journal.replay", s as u64, |_| {
                Journal::recover_file(path, &hdr)
            })
            .expect("worker journal recovers");
        entries.extend(rec.windows.into_values());
    }
    let rewritten = dir.join("rewritten.journal");
    let journal = Journal::create(&rewritten, hdr.clone()).expect("fresh journal");
    for e in &entries {
        tr.span("journal.append", e.window, |_| journal.append(e))
            .expect("journal append");
    }
    let appended = journal.appended_bytes();
    drop(journal);

    // Wire layer: the data frames a submission carries are the
    // journal's record payloads, verbatim.
    let mut frames = 0u64;
    let mut wire_bytes = 0u64;
    let mut wire_ok = true;
    for path in &traced.worker_journals {
        let bytes = std::fs::read(path).expect("worker journal readable");
        for payload in record_payloads(&bytes) {
            let mut framed = Vec::new();
            tr.span("wire.encode", frames, |_| {
                write_frame(&mut framed, &WireMessage::Record(payload.to_vec()).encode())
            })
            .expect("frame encodes");
            let decoded = tr.span("wire.decode", frames, |_| {
                read_frame(&mut framed.as_slice()).and_then(|p| match p {
                    Some(p) => WireMessage::decode(&p),
                    None => Err(ServiceFault::Protocol {
                        detail: "empty frame".to_string(),
                    }),
                })
            });
            wire_ok &= matches!(decoded, Ok(WireMessage::Record(ref p)) if p.as_slice() == payload);
            frames += 1;
            wire_bytes += framed.len() as u64;
        }
    }

    // Federation layer: merge the collector's shard journals offline.
    let shard_paths: Vec<PathBuf> = (0..SHARDS)
        .map(|s| dir.join("collector").join(shard_journal_name(SHARDS, s)))
        .collect();
    let merged = tr
        .span("federation.merge", 0, |_| {
            palu_traffic::federation::merge_shard_journals(
                Measurement::UndirectedDegree,
                &hdr,
                &shard_paths,
                &FailurePolicy::strict(),
                1.0,
                1,
                None,
                None,
                None,
            )
        })
        .expect("shard journals merge");
    let ns_per_draw = rng_ns_per_draw(&mut tr, seed);
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }

    let served_ok = |r: &Replay| {
        r.served
            .as_ref()
            .is_some_and(|s| served_matches(s, &reference))
    };
    let windows = SPEC.windows as u64;
    let checks = [
        replays.iter().all(served_ok),
        crate::common::pooled_identical(&merged.pool.pooled, &reference),
        entries.len() as u64 == windows,
        wire_ok,
        traced.report.shards_done == SHARDS,
        real.get("failed") == 0.0 && real.digest == pooled_digest(&reference),
    ];
    let failed = checks.iter().filter(|ok| !**ok).count() as u64;

    let by_name = crate::trace::self_time_by_name(tr.spans());
    let self_s = |name: &str| by_name.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e9);
    let count = |name: &str| by_name.get(name).map_or(0, |&(_, n)| n) as f64;
    metrics.extend([
        metric("rng.ns_per_draw", ns_per_draw, "ns"),
        metric("pipeline.capture_s", self_s("pipeline.capture"), "s"),
        metric(
            "journal.append_ns_per_window",
            self_s("journal.append") * 1e9 / count("journal.append"),
            "ns",
        ),
        metric(
            "journal.bytes_per_window",
            appended as f64 / entries.len().max(1) as f64,
            "bytes",
        ),
        metric("journal.replay_s", self_s("journal.replay"), "s"),
        metric(
            "wire.encode_ns_per_frame",
            self_s("wire.encode") * 1e9 / frames.max(1) as f64,
            "ns",
        ),
        metric(
            "wire.decode_ns_per_frame",
            self_s("wire.decode") * 1e9 / frames.max(1) as f64,
            "ns",
        ),
        metric("wire.frames", frames as f64, "count"),
        metric("wire.bytes", wire_bytes as f64, "bytes"),
        metric("service.submit_s", self_s("service.submit"), "s"),
        metric(
            "service.fit_snapshot_ms",
            self_s("service.fit_snapshot") * 1e3 / QUERIES as f64,
            "ms",
        ),
        metric(
            "service.query_fit_ms",
            self_s("service.query_fit") * 1e3 / QUERIES as f64,
            "ms",
        ),
        metric(
            "service.retries",
            (traced.submit_attempts - count("service.submit") as u64) as f64,
            "count",
        ),
        metric(
            "dispatch.lease_wait_s",
            self_s("dispatch.request_lease"),
            "s",
        ),
        metric(
            "dispatch.leases_granted",
            real.get("leases_granted"),
            "count",
        ),
        metric("dispatch.heartbeats", real.get("heartbeats"), "count"),
        metric("federation.merge_s", self_s("federation.merge"), "s"),
    ]);
    Traced {
        metrics,
        attempted: checks.len() as u64,
        failed,
        traced_s,
        untraced_s,
        tracer: tr,
    }
}
