//! Federation service mode: a crash-tolerant shard-submission server
//! with retry/backoff clients and rolling merged fits (DESIGN.md §4k).
//!
//! The [`Collector`] is the protocol brain: it accepts shard-journal
//! submissions framed by [`crate::wire`], validates capture identity
//! with the same typed skew refusals as `pool --merge`, persists
//! every accepted window *through the journal layer* (one
//! [`Journal`] per shard under `journal_dir` — lint rule R6's only
//! sanctioned write path, which is also what makes SIGKILL recovery
//! free: restart re-runs [`Journal::resume`] per shard and coverage
//! state rebuilds from disk), and maintains the rolling hierarchical
//! merge so a fit query returns the pooled distribution for whatever
//! coverage currently exists, tagged with a typed
//! [`ServiceFault::PartialCoverage`] marker below the threshold.
//!
//! The [`Server`] runs a `Collector` behind the shared accept loop
//! `wire::serve`: per-connection read deadlines, one thread
//! per connection, and a graceful drain (a `Shutdown` frame flips the
//! draining flag and its handler wakes the accept loop, which exits
//! and joins in-flight sessions — every accepted record was already
//! durably appended, so drain persists nothing extra by construction).
//!
//! The client half ([`submit_journal`], [`query_fit`],
//! [`request_shutdown`]) retries through [`RetryPolicy::run`]
//! (deadline + jittered exponential backoff) with idempotent resumable
//! submission: every session opens with a `SubmitBegin`/`BeginAck`
//! handshake that returns the server's persisted have-set, so a
//! reconnecting client resumes exactly where the last session tore.
//! Duplicate submissions are detected byte-for-byte and skipped, never
//! errors. All connection state is derived from the shard's journal,
//! so a client killed at any point restarts from its own journal and
//! converges.
//!
//! Separation of concerns: `Collector::handle` takes any
//! `Read + Write` stream, so the torn-frame sweep in
//! `tests/service.rs` drives the full protocol over in-memory
//! buffers, byte by byte, with no sockets involved.

use crate::federation::{self, FederationError, ShardPlan, ShardRange};
use crate::journal::{self, Journal, JournalFault, JournalHeader, WindowEntry};
use crate::metrics::Metrics;
use crate::pipeline::Measurement;
use crate::wire::{
    bind, call, connect, local_addr, read_frame, read_reply, refused, serve, unexpected,
    write_frame, FitRow, FitSnapshot, ServiceFault, ShardTornRow, WireInjector, WireMessage,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// How the collector identifies the capture it is collecting: the
/// full run identity (the journal header every shard must match) plus
/// the merge geometry and serving policy.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The measurement being pooled.
    pub measurement: Measurement,
    /// The capture identity every submitted shard must match (seed,
    /// `N_V`, windows, parameter fingerprint).
    pub expect: JournalHeader,
    /// Shards in the federation plan.
    pub shards: u64,
    /// Minimum coverage fraction below which served fits carry the
    /// typed [`ServiceFault::PartialCoverage`] marker.
    pub min_coverage: f64,
    /// Directory holding one journal per shard
    /// (`shard-<shards>-<s>.journal`).
    pub journal_dir: PathBuf,
    /// Per-connection read deadline.
    pub read_timeout: Duration,
}

/// One shard's durable state inside the collector.
struct ShardSlot {
    journal: Journal,
    range: ShardRange,
    windows: BTreeSet<u64>,
    torn_records_dropped: u64,
    torn_bytes_dropped: u64,
}

/// A fault the collector refused a frame or session over, kept for
/// the service report (bounded; the counter keeps exact totals).
#[derive(Debug, Clone)]
pub struct ServiceFaultRow {
    /// The fault's stable [`ServiceFault::name`].
    pub name: &'static str,
    /// The fault's stable [`ServiceFault::code`].
    pub code: u8,
    /// The fault's display rendering.
    pub detail: String,
}

/// Mutable collector state, all under one lock: shard slots, the
/// rolling merged entry map, and the accounting counters.
#[derive(Default)]
struct State {
    slots: BTreeMap<u64, ShardSlot>,
    entries: BTreeMap<u64, WindowEntry>,
    faults: Vec<ServiceFaultRow>,
    submissions: u64,
    frames_accepted: u64,
    duplicates: u64,
    rejected: u64,
    fits_served: u64,
}

/// State shared by every connection handler.
struct Shared {
    config: ServiceConfig,
    plan: ShardPlan,
    state: Mutex<State>,
    draining: AtomicBool,
    metrics: Metrics,
}

/// Accounting for one handled connection.
#[derive(Debug, Default, Clone)]
pub struct ConnectionSummary {
    /// Window records newly persisted this session.
    pub accepted: u64,
    /// Byte-identical resubmissions skipped idempotently.
    pub duplicates: u64,
    /// The fault that ended the session, if it did not end cleanly.
    pub fault: Option<ServiceFault>,
}

/// Per-shard accounting in a [`ServiceReport`] — including the
/// per-shard torn-tail drop counts (crash residue the shard's
/// journal recovery compacted away on restart).
#[derive(Debug, Clone)]
pub struct ServiceShardRow {
    /// The shard index.
    pub shard: u64,
    /// First window of the shard's range (inclusive).
    pub lo: u64,
    /// One past the last window of the shard's range.
    pub hi: u64,
    /// Windows durably persisted for this shard.
    pub persisted: u64,
    /// Torn-tail records dropped recovering this shard's journal.
    pub torn_records_dropped: u64,
    /// Torn-tail bytes dropped recovering this shard's journal.
    pub torn_bytes_dropped: u64,
}

/// The collector's full accounting, surfaced in `serve` metrics JSON.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Shards in the federation plan.
    pub shards: u64,
    /// Total windows in the capture.
    pub windows: u64,
    /// Windows currently persisted across all shards.
    pub covered: u64,
    /// The configured minimum coverage fraction.
    pub min_coverage: f64,
    /// Submission sessions opened (`SubmitBegin` accepted).
    pub submissions: u64,
    /// Window records newly persisted.
    pub frames_accepted: u64,
    /// Byte-identical resubmissions skipped idempotently.
    pub duplicates: u64,
    /// Frames or sessions refused with a typed fault.
    pub rejected: u64,
    /// Fit snapshots served.
    pub fits_served: u64,
    /// Torn-tail records dropped across all shard recoveries.
    pub torn_records_dropped: u64,
    /// Torn-tail bytes dropped across all shard recoveries.
    pub torn_bytes_dropped: u64,
    /// Per-shard accounting rows, shard-ordered.
    pub shard_rows: Vec<ServiceShardRow>,
    /// The first [`FAULT_ROW_CAP`] typed refusals, in arrival order.
    pub faults: Vec<ServiceFaultRow>,
}

/// Retained fault rows are bounded; `rejected` keeps exact totals.
pub const FAULT_ROW_CAP: usize = 256;

/// File name of shard `shard`'s journal under the service's
/// journal directory, for a `shards`-way plan.
pub fn shard_journal_name(shards: u64, shard: u64) -> String {
    format!("shard-{shards}-{shard}.journal")
}

pub(crate) fn journal_fault_to_service(fault: JournalFault) -> ServiceFault {
    match fault {
        JournalFault::SeedMismatch { .. }
        | JournalFault::ConfigMismatch { .. }
        | JournalFault::VersionSkew { .. } => ServiceFault::IdentitySkew { fault },
        other => ServiceFault::Journal {
            detail: other.to_string(),
        },
    }
}

/// The protocol + persistence brain of the service, independent of
/// any socket: every connection handler clones it (cheap `Arc`) and
/// drives [`Collector::handle`] over its stream.
#[derive(Clone)]
pub struct Collector {
    shared: Arc<Shared>,
}

impl Collector {
    /// Build a collector: validate the plan, ensure the journal
    /// directory exists, and rebuild coverage state from any shard
    /// journals already on disk ([`Journal::resume`] per shard — the
    /// SIGKILL crash-recovery path; torn tails are compacted away and
    /// counted). A journal that refuses recovery (skew, corruption)
    /// is recorded as a typed fault and left on disk untouched; a
    /// later `SubmitBegin` for that shard recreates it fresh.
    ///
    /// # Errors
    ///
    /// [`ServiceFault::BadShard`] for an infeasible plan,
    /// [`ServiceFault::Journal`] when the journal directory cannot be
    /// created.
    pub fn new(config: ServiceConfig) -> Result<Collector, ServiceFault> {
        let plan = ShardPlan::new(config.expect.windows, config.shards).map_err(|_| {
            ServiceFault::BadShard {
                shard: config.shards,
                shards: config.shards,
            }
        })?;
        std::fs::create_dir_all(&config.journal_dir).map_err(|e| ServiceFault::Journal {
            detail: format!(
                "cannot create journal directory {}: {e}",
                config.journal_dir.display()
            ),
        })?;
        let mut state = State::default();
        for shard in 0..config.shards {
            let Some(range) = plan.shard_range(shard) else {
                continue;
            };
            let path = config
                .journal_dir
                .join(shard_journal_name(config.shards, shard));
            if !path.exists() {
                continue;
            }
            match Journal::resume(&path, config.expect.clone()) {
                Ok((journal, recovery)) => {
                    let mut windows = BTreeSet::new();
                    for (w, entry) in recovery.windows {
                        if range.owns(w) {
                            windows.insert(w);
                            state.entries.insert(w, entry);
                        }
                    }
                    state.slots.insert(
                        shard,
                        ShardSlot {
                            journal,
                            range,
                            windows,
                            torn_records_dropped: recovery.torn_records_dropped,
                            torn_bytes_dropped: recovery.torn_bytes_dropped,
                        },
                    );
                }
                Err(fault) => {
                    let fault = journal_fault_to_service(fault);
                    state.rejected += 1;
                    if state.faults.len() < FAULT_ROW_CAP {
                        state.faults.push(ServiceFaultRow {
                            name: fault.name(),
                            code: fault.code(),
                            detail: format!("recovering {}: {fault}", path.display()),
                        });
                    }
                }
            }
        }
        Ok(Collector {
            shared: Arc::new(Shared {
                config,
                plan,
                state: Mutex::new(state),
                draining: AtomicBool::new(false),
                metrics: Metrics::new(),
            }),
        })
    }

    /// The service configuration in force.
    pub fn config(&self) -> &ServiceConfig {
        &self.shared.config
    }

    /// Whether the collector has been asked to drain for shutdown.
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// A poisoned state lock cannot corrupt this state — every
    /// mutation is complete before the lock drops — so recover the
    /// guard instead of propagating the panic.
    fn lock(&self) -> MutexGuard<'_, State> {
        match self.shared.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn record_fault(state: &mut State, fault: &ServiceFault) {
        state.rejected += 1;
        if state.faults.len() < FAULT_ROW_CAP {
            state.faults.push(ServiceFaultRow {
                name: fault.name(),
                code: fault.code(),
                detail: fault.to_string(),
            });
        }
    }

    /// Handle one connection's full session over any byte stream.
    /// Never returns a transport error to the caller: every failure
    /// mode is accounted in the [`ConnectionSummary`] (and answered
    /// with a best-effort `Reject` frame where the peer may still be
    /// listening).
    pub fn handle<S: Read + Write>(&self, conn: &mut S) -> ConnectionSummary {
        let first = read_frame(conn);
        self.session(conn, first)
    }

    /// [`Collector::handle`] for a session whose first frame (or the
    /// fault reading it) is `first` — the dispatcher reads it to route
    /// the connection.
    pub(crate) fn session<S: Read + Write>(
        &self,
        conn: &mut S,
        first: Result<Option<Vec<u8>>, ServiceFault>,
    ) -> ConnectionSummary {
        let mut summary = ConnectionSummary::default();
        // Session state: which shard this connection submits for, and
        // whether its identity header has been validated.
        let mut session: Option<u64> = None;
        let mut header_ok = false;
        let mut next = first;
        loop {
            let payload = match next {
                Ok(Some(payload)) => payload,
                Ok(None) => break,
                Err(fault) => {
                    self.refuse(conn, &mut summary, fault);
                    break;
                }
            };
            let message = match WireMessage::decode(&payload) {
                Ok(message) => message,
                Err(fault) => {
                    self.refuse(conn, &mut summary, fault);
                    break;
                }
            };
            let outcome = match message {
                WireMessage::SubmitBegin {
                    shard,
                    shards,
                    windows,
                } => self.on_begin(conn, &mut session, shard, shards, windows),
                WireMessage::Record(raw) => {
                    self.on_record(&mut summary, &session, &mut header_ok, &raw)
                }
                WireMessage::SubmitEnd { .. } => self.on_end(conn, &session),
                WireMessage::FitRequest => self.on_fit(conn),
                WireMessage::Shutdown => {
                    self.shared.draining.store(true, Ordering::SeqCst);
                    let _ = write_frame(conn, &WireMessage::ShutdownAck.encode());
                    break;
                }
                WireMessage::LeaseRequest { .. }
                | WireMessage::Heartbeat { .. }
                | WireMessage::WorkDone { .. } => Err(ServiceFault::Protocol {
                    detail: "lease frame on a submission session — this endpoint \
                             is a plain collector, not a dispatcher"
                        .to_string(),
                }),
                WireMessage::BeginAck { .. }
                | WireMessage::EndAck { .. }
                | WireMessage::Reject { .. }
                | WireMessage::FitResponse(_)
                | WireMessage::ShutdownAck
                | WireMessage::LeaseGrant(_)
                | WireMessage::LeaseRenew { .. } => Err(ServiceFault::Protocol {
                    detail: "received a server-to-client frame".to_string(),
                }),
            };
            if let Err(fault) = outcome {
                self.refuse(conn, &mut summary, fault);
                break;
            }
            next = read_frame(conn);
        }
        summary
    }

    /// Record a refusal, best-effort notify the peer, and account it
    /// in the summary.
    fn refuse<S: Read + Write>(
        &self,
        conn: &mut S,
        summary: &mut ConnectionSummary,
        fault: ServiceFault,
    ) {
        {
            let mut state = self.lock();
            Collector::record_fault(&mut state, &fault);
        }
        let _ = write_frame(
            conn,
            &WireMessage::Reject {
                code: fault.code(),
                message: fault.to_string(),
            }
            .encode(),
        );
        summary.fault = Some(fault);
    }

    fn on_begin<S: Read + Write>(
        &self,
        conn: &mut S,
        session: &mut Option<u64>,
        shard: u64,
        shards: u64,
        windows: u64,
    ) -> Result<(), ServiceFault> {
        if self.draining() {
            return Err(ServiceFault::Draining);
        }
        if shards != self.shared.plan.shards() {
            return Err(ServiceFault::BadShard {
                shard: shards,
                shards: self.shared.plan.shards(),
            });
        }
        if windows != self.shared.config.expect.windows {
            return Err(ServiceFault::Protocol {
                detail: format!(
                    "client plans {windows} window(s), this capture has {}",
                    self.shared.config.expect.windows
                ),
            });
        }
        let Some(range) = self.shared.plan.shard_range(shard) else {
            return Err(ServiceFault::BadShard { shard, shards });
        };
        let mut state = self.lock();
        if !state.slots.contains_key(&shard) {
            let path = self
                .shared
                .config
                .journal_dir
                .join(shard_journal_name(shards, shard));
            let journal = Journal::create(&path, self.shared.config.expect.clone())
                .map_err(journal_fault_to_service)?;
            state.slots.insert(
                shard,
                ShardSlot {
                    journal,
                    range,
                    windows: BTreeSet::new(),
                    torn_records_dropped: 0,
                    torn_bytes_dropped: 0,
                },
            );
        }
        state.submissions += 1;
        let have: Vec<u64> = match state.slots.get(&shard) {
            Some(slot) => slot.windows.iter().copied().collect(),
            None => Vec::new(),
        };
        drop(state);
        *session = Some(shard);
        write_frame(conn, &WireMessage::BeginAck { have }.encode())
    }

    fn on_record(
        &self,
        summary: &mut ConnectionSummary,
        session: &Option<u64>,
        header_ok: &mut bool,
        raw: &[u8],
    ) -> Result<(), ServiceFault> {
        let Some(shard) = *session else {
            return Err(ServiceFault::Protocol {
                detail: "journal record before SubmitBegin".to_string(),
            });
        };
        let Some((&kind, body)) = raw.split_first() else {
            return Err(ServiceFault::Malformed {
                detail: "empty record payload".to_string(),
            });
        };
        let cursor = journal::Cursor {
            bytes: body,
            record_offset: 0,
        };
        match kind {
            0 => {
                // The shard's identity header: validated with the
                // same typed skew refusals as `pool --merge`.
                journal::parse_header(cursor, &self.shared.config.expect)
                    .map_err(|fault| journal_fault_to_service(fault))?;
                *header_ok = true;
                Ok(())
            }
            1 => {
                if !*header_ok {
                    return Err(ServiceFault::Protocol {
                        detail: "window record before the identity header".to_string(),
                    });
                }
                let entry =
                    journal::parse_window(cursor, &self.shared.config.expect).map_err(|fault| {
                        ServiceFault::Malformed {
                            detail: fault.to_string(),
                        }
                    })?;
                self.accept_window(summary, shard, entry)
            }
            other => Err(ServiceFault::UnknownFrame { kind: other }),
        }
    }

    /// Persist one submitted window: idempotent for byte-identical
    /// resubmission, a typed [`ServiceFault::WindowConflict`] for a
    /// differing one, journal-layer append for a fresh one.
    fn accept_window(
        &self,
        summary: &mut ConnectionSummary,
        shard: u64,
        entry: WindowEntry,
    ) -> Result<(), ServiceFault> {
        let window = entry.window;
        let mut state = self.lock();
        // Resubmission of a window anyone already delivered: equal
        // contents are idempotent, differing contents are refused.
        if let Some(existing) = state.entries.get(&window) {
            if *existing == entry {
                state.duplicates += 1;
                summary.duplicates += 1;
                return Ok(());
            }
            return Err(ServiceFault::WindowConflict { window });
        }
        let Some(slot) = state.slots.get_mut(&shard) else {
            return Err(ServiceFault::Protocol {
                detail: format!("no open submission for shard {shard}"),
            });
        };
        if !slot.range.owns(window) {
            return Err(ServiceFault::Protocol {
                detail: format!(
                    "window {window} outside shard {shard}'s range [{}, {})",
                    slot.range.lo, slot.range.hi
                ),
            });
        }
        slot.journal
            .append(&entry)
            .map_err(journal_fault_to_service)?;
        slot.windows.insert(window);
        state.entries.insert(window, entry);
        state.frames_accepted += 1;
        summary.accepted += 1;
        Ok(())
    }

    fn on_end<S: Read + Write>(
        &self,
        conn: &mut S,
        session: &Option<u64>,
    ) -> Result<(), ServiceFault> {
        let Some(shard) = *session else {
            return Err(ServiceFault::Protocol {
                detail: "SubmitEnd before SubmitBegin".to_string(),
            });
        };
        let state = self.lock();
        let Some(slot) = state.slots.get(&shard) else {
            return Err(ServiceFault::Protocol {
                detail: format!("no open submission for shard {shard}"),
            });
        };
        let accepted = slot.windows.len() as u64;
        let missing: Vec<u64> = (slot.range.lo..slot.range.hi)
            .filter(|w| !slot.windows.contains(w))
            .collect();
        drop(state);
        write_frame(conn, &WireMessage::EndAck { accepted, missing }.encode())
    }

    fn on_fit<S: Read + Write>(&self, conn: &mut S) -> Result<(), ServiceFault> {
        let snapshot = self.fit_snapshot()?;
        let mut state = self.lock();
        state.fits_served += 1;
        drop(state);
        write_frame(conn, &WireMessage::FitResponse(snapshot).encode())
    }

    /// The rolling merged fit for current coverage: fold every
    /// persisted window through the same hierarchical merge
    /// accumulator as `pool --merge` (missing windows quarantine as
    /// `ShardLost`), tag the snapshot with the coverage arithmetic,
    /// and mark it partial below the threshold. The served rows carry
    /// raw IEEE-754 bits, so a fit rendered from this snapshot is
    /// byte-identical to the single-process pooled output.
    ///
    /// # Errors
    ///
    /// [`ServiceFault::Unavailable`] when the merge itself cannot run
    /// (e.g. zero windows pooled refuses inside the fold).
    pub fn fit_snapshot(&self) -> Result<FitSnapshot, ServiceFault> {
        let config = &self.shared.config;
        let state = self.lock();
        let covered = state.entries.len() as u64;
        let shard_torn: Vec<ShardTornRow> = state
            .slots
            .iter()
            .map(|(shard, slot)| ShardTornRow {
                shard: *shard,
                torn_records_dropped: slot.torn_records_dropped,
                torn_bytes_dropped: slot.torn_bytes_dropped,
            })
            .collect();
        let pool = federation::merge_entries(
            config.measurement,
            config.expect.windows as usize,
            &state.entries,
            Some(&self.shared.metrics),
        )
        .map_err(|e: FederationError| ServiceFault::Unavailable {
            detail: format!("rolling merge failed: {e}"),
        })?;
        drop(state);
        let partial = !federation::covers(covered, config.expect.windows, config.min_coverage);
        let rows: Vec<FitRow> = pool
            .pooled
            .mean
            .iter()
            .zip(pool.pooled.sigma.iter())
            .map(|((degree, mean), sigma)| FitRow {
                degree,
                mean_bits: mean.to_bits(),
                sigma_bits: sigma.to_bits(),
            })
            .collect();
        Ok(FitSnapshot {
            windows: config.expect.windows,
            covered,
            min_coverage: config.min_coverage,
            partial,
            survivors: pool.report.survivors,
            quarantined: pool.report.quarantined,
            pooled_windows: pool.pooled.windows,
            d_max: pool.pooled.d_max,
            rows,
            shard_torn,
        })
    }

    /// Windows persisted so far, per shard — the dispatcher's view of
    /// completion. A shard absent from the map has persisted nothing.
    pub fn shard_progress(&self) -> std::collections::BTreeMap<u64, u64> {
        let state = self.lock();
        state
            .slots
            .iter()
            .map(|(shard, slot)| (*shard, slot.windows.len() as u64))
            .collect()
    }

    /// The collector's shared metrics sink (the dispatcher records its
    /// lease counters into the same instance).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The collector's accounting snapshot.
    pub fn report(&self) -> ServiceReport {
        let config = &self.shared.config;
        let state = self.lock();
        let mut shard_rows = Vec::with_capacity(state.slots.len());
        let mut torn_records = 0u64;
        let mut torn_bytes = 0u64;
        for (shard, slot) in &state.slots {
            torn_records += slot.torn_records_dropped;
            torn_bytes += slot.torn_bytes_dropped;
            shard_rows.push(ServiceShardRow {
                shard: *shard,
                lo: slot.range.lo,
                hi: slot.range.hi,
                persisted: slot.windows.len() as u64,
                torn_records_dropped: slot.torn_records_dropped,
                torn_bytes_dropped: slot.torn_bytes_dropped,
            });
        }
        ServiceReport {
            shards: config.shards,
            windows: config.expect.windows,
            covered: state.entries.len() as u64,
            min_coverage: config.min_coverage,
            submissions: state.submissions,
            frames_accepted: state.frames_accepted,
            duplicates: state.duplicates,
            rejected: state.rejected,
            fits_served: state.fits_served,
            torn_records_dropped: torn_records,
            torn_bytes_dropped: torn_bytes,
            shard_rows,
            faults: state.faults.clone(),
        }
    }
}

/// The TCP face of the service: the collector behind `wire::serve`. A
/// `Shutdown` frame drains it gracefully — the handler that took it
/// wakes the accept loop, in-flight sessions are joined, and since
/// every accepted record was already journal-appended, nothing is lost
/// even on SIGKILL instead.
pub struct Server {
    listener: TcpListener,
    collector: Collector,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral CI port).
    ///
    /// # Errors
    ///
    /// [`ServiceFault::Io`] when the bind fails.
    pub fn bind(addr: &str, collector: Collector) -> Result<Server, ServiceFault> {
        Ok(Server {
            listener: bind(addr)?,
            collector,
        })
    }

    /// The bound address (resolves the real port after binding `:0`).
    ///
    /// # Errors
    ///
    /// [`ServiceFault::Io`] when the socket cannot report it.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, ServiceFault> {
        local_addr(&self.listener)
    }

    /// The collector this server fronts.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Accept and handle connections until the collector drains, then
    /// join every in-flight session and return the final report.
    ///
    /// # Errors
    ///
    /// [`ServiceFault::Io`] when the listener cannot report its
    /// address.
    pub fn run(self) -> Result<ServiceReport, ServiceFault> {
        let collector = &self.collector;
        serve(
            self.listener,
            collector.config().read_timeout,
            || collector.draining(),
            |stream| {
                let _ = collector.handle(stream);
            },
        )?;
        Ok(self.collector.report())
    }
}

// The client retry/backoff policy lives in the wire layer (shared by
// `submit` and the dispatcher's `work` client); re-exported here for
// continuity with the PR 9 API surface.
pub use crate::wire::RetryPolicy;

/// What a completed submission achieved, including the local
/// journal's torn-tail accounting (the client-side half of the
/// per-shard torn counts the server reports).
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// The submitted shard.
    pub shard: u64,
    /// Windows the shard's range owns.
    pub assigned: u64,
    /// Windows recovered from the local shard journal.
    pub recovered: u64,
    /// Windows the server confirms persisted for this shard.
    pub accepted: u64,
    /// Connection attempts consumed (1 = first try succeeded).
    pub attempts: u64,
    /// Windows the server already had before this client's sessions
    /// (idempotent resume skips).
    pub already_present: u64,
    /// Torn-tail records dropped recovering the local journal.
    pub torn_records_dropped: u64,
    /// Torn-tail bytes dropped recovering the local journal.
    pub torn_bytes_dropped: u64,
}

/// Send one already-framed record, routing it through the wire-fault
/// injector: `Drop` skips the write, `Corrupt` flips a payload byte,
/// `Duplicate` writes twice (probing server idempotency), `Delay`
/// stalls briefly, `Truncate` writes a prefix and abandons the
/// session — the mid-frame-kill signature, surfaced as a retryable
/// [`ServiceFault::Torn`].
fn send_framed(
    stream: &mut TcpStream,
    framed: &[u8],
    frame: u64,
    attempt: u64,
    injector: &WireInjector,
) -> Result<(), ServiceFault> {
    use crate::wire::WireFault;
    let write = |stream: &mut TcpStream, bytes: &[u8]| -> Result<(), ServiceFault> {
        stream.write_all(bytes).map_err(|e| ServiceFault::Io {
            detail: e.to_string(),
        })
    };
    match injector.plan(frame, attempt) {
        None => write(stream, framed),
        Some(WireFault::Drop) => Ok(()),
        Some(WireFault::Corrupt) => {
            let mut bad = framed.to_vec();
            if let Some(last) = bad.last_mut() {
                *last ^= 0xFF;
            }
            write(stream, &bad)
        }
        Some(WireFault::Duplicate) => {
            write(stream, framed)?;
            write(stream, framed)
        }
        Some(WireFault::Delay) => {
            std::thread::sleep(Duration::from_millis(2));
            write(stream, framed)
        }
        Some(WireFault::Truncate) => {
            let (head, _) = framed.split_at(framed.len() / 2);
            write(stream, head)?;
            let _ = stream.flush();
            Err(ServiceFault::Torn {
                bytes: head.len() as u64,
            })
        }
    }
}

/// One submission session: handshake, resume from the server's
/// have-set, stream the identity header + missing window records
/// (byte-verbatim from the local journal's canonical codec), and
/// collect the `EndAck`. Returns `(accepted, missing, skipped)`.
fn try_submit_once(
    addr: &str,
    shard: u64,
    shards: u64,
    expect: &JournalHeader,
    entries: &BTreeMap<u64, WindowEntry>,
    retry: &RetryPolicy,
    injector: &WireInjector,
    attempt: u64,
) -> Result<(u64, Vec<u64>, u64), ServiceFault> {
    let mut stream = connect(addr, retry)?.ok_or_else(|| refused(addr))?;
    write_frame(
        &mut stream,
        &WireMessage::SubmitBegin {
            shard,
            shards,
            windows: expect.windows,
        }
        .encode(),
    )?;
    let have: BTreeSet<u64> = match read_reply(&mut stream)? {
        WireMessage::BeginAck { have } => have.into_iter().collect(),
        other => return Err(unexpected(addr, "BeginAck", Some(other))),
    };
    let skipped = entries.keys().filter(|w| have.contains(w)).count() as u64;
    // The identity header rides first on every session, framed by the
    // same canonical codec that wrote it to disk.
    send_framed(
        &mut stream,
        &journal::header_record(expect),
        0,
        attempt,
        injector,
    )?;
    let mut sent = 0u64;
    for (window, entry) in entries {
        if have.contains(window) {
            continue;
        }
        send_framed(
            &mut stream,
            &journal::window_record(entry),
            window + 1,
            attempt,
            injector,
        )?;
        sent += 1;
    }
    write_frame(&mut stream, &WireMessage::SubmitEnd { sent }.encode())?;
    match read_reply(&mut stream)? {
        WireMessage::EndAck { accepted, missing } => Ok((accepted, missing, skipped)),
        other => Err(unexpected(addr, "EndAck", Some(other))),
    }
}

/// Submit a shard journal to a federation service, with deadline +
/// jittered-backoff retries, idempotent resumption, and optional
/// wire-fault injection.
///
/// The journal is recovered locally first (same typed refusals as
/// `pool --merge`; a torn tail from a killed capture is counted, not
/// fatal), then each session resumes from the server's persisted
/// have-set, so any interleaving of client kills, server kills, and
/// injected faults converges to every locally-known window persisted
/// server-side. Success does *not* require the server's range to be
/// fully covered — a journal from a capture killed mid-run submits
/// what it has (the server's coverage stays partial, exactly as it
/// should).
///
/// # Errors
///
/// Non-retryable refusals ([`ServiceFault::IdentitySkew`],
/// [`ServiceFault::BadShard`], [`ServiceFault::WindowConflict`], …)
/// return immediately; transport faults retry until the deadline,
/// then return [`ServiceFault::Unavailable`] wrapping the last
/// failure.
pub fn submit_journal(
    addr: &str,
    journal_path: &Path,
    shard: u64,
    shards: u64,
    expect: &JournalHeader,
    retry: &RetryPolicy,
    injector: &WireInjector,
) -> Result<SubmitOutcome, ServiceFault> {
    let recovery = Journal::recover_file(journal_path, expect).map_err(journal_fault_to_service)?;
    let plan = ShardPlan::new(expect.windows, shards)
        .map_err(|_| ServiceFault::BadShard { shard, shards })?;
    let range = plan
        .shard_range(shard)
        .ok_or(ServiceFault::BadShard { shard, shards })?;
    let entries: BTreeMap<u64, WindowEntry> = recovery
        .windows
        .into_iter()
        .filter(|(w, _)| range.owns(*w))
        .collect();
    retry.run(|attempt| {
        let (accepted, missing, skipped) = try_submit_once(
            addr, shard, shards, expect, &entries, retry, injector, attempt,
        )?;
        // Success = every window we can provide is persisted; windows
        // the local journal never captured stay missing server-side by
        // design.
        if missing.iter().any(|w| entries.contains_key(w)) {
            return Err(ServiceFault::Unavailable {
                detail: format!(
                    "server still missing {} window(s) after acknowledgement",
                    missing.len()
                ),
            });
        }
        Ok(SubmitOutcome {
            shard,
            assigned: range.window_count(),
            recovered: entries.len() as u64,
            accepted,
            attempts: attempt + 1,
            already_present: skipped,
            torn_records_dropped: recovery.torn_records_dropped,
            torn_bytes_dropped: recovery.torn_bytes_dropped,
        })
    })
}

/// Query the service's rolling merged fit, retrying transport faults
/// until the deadline.
///
/// # Errors
///
/// Non-retryable remote refusals immediately;
/// [`ServiceFault::Unavailable`] when the deadline elapses. A partial
/// snapshot is *not* an error here — the typed
/// [`ServiceFault::PartialCoverage`] is available from
/// [`FitSnapshot::partial_fault`] for callers that refuse it.
pub fn query_fit(addr: &str, retry: &RetryPolicy) -> Result<FitSnapshot, ServiceFault> {
    retry.run(|_| match call(addr, retry, &WireMessage::FitRequest)? {
        Some(WireMessage::FitResponse(snapshot)) => Ok(snapshot),
        other => Err(unexpected(addr, "FitResponse", other)),
    })
}

/// Ask the service to drain and shut down, retrying until the
/// deadline.
///
/// # Errors
///
/// [`ServiceFault::Unavailable`] when the service cannot be reached
/// before the deadline.
pub fn request_shutdown(addr: &str, retry: &RetryPolicy) -> Result<(), ServiceFault> {
    retry.run(|_| match call(addr, retry, &WireMessage::Shutdown)? {
        Some(WireMessage::ShutdownAck) => Ok(()),
        other => Err(unexpected(addr, "ShutdownAck", other)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use palu_stats::summary::BinStats;

    /// An in-memory Read + Write stream: reads consume a scripted
    /// input, writes collect into an output buffer — so the full
    /// protocol runs with no sockets.
    struct Duplex {
        input: Vec<u8>,
        read_at: usize,
        output: Vec<u8>,
    }

    impl Duplex {
        fn new(input: Vec<u8>) -> Duplex {
            Duplex {
                input,
                read_at: 0,
                output: Vec::new(),
            }
        }

        fn replies(&self) -> Vec<WireMessage> {
            let mut out = Vec::new();
            let mut r = &self.output[..];
            while let Ok(Some(payload)) = read_frame(&mut r) {
                out.push(WireMessage::decode(&payload).unwrap());
            }
            out
        }
    }

    impl Read for Duplex {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let rest = &self.input[self.read_at..];
            let n = rest.len().min(buf.len());
            buf[..n].copy_from_slice(&rest[..n]);
            self.read_at += n;
            Ok(n)
        }
    }

    impl Write for Duplex {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn entry(window: u64) -> WindowEntry {
        let mut stats = BinStats::new();
        stats.push(&palu_stats::logbin::DifferentialCumulative::from_values(
            vec![0.5, 0.25, 0.25],
        ));
        WindowEntry {
            window,
            injected: 0,
            retries: 0,
            record: None,
            result: Some(crate::journal::WindowResult {
                stats,
                d_max: Some(3 + window),
                histogram: palu_stats::histogram::DegreeHistogram::from_counts([
                    (1, 4),
                    (3 + window, 1),
                ]),
            }),
        }
    }

    fn header(windows: u64) -> JournalHeader {
        JournalHeader::with_params(5, 50, windows, vec!["lambda=2".to_string()])
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("palu-service-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn config(name: &str, windows: u64, shards: u64) -> ServiceConfig {
        ServiceConfig {
            measurement: Measurement::UndirectedDegree,
            expect: header(windows),
            shards,
            min_coverage: 1.0,
            journal_dir: temp_dir(name),
            read_timeout: Duration::from_secs(5),
        }
    }

    fn session_bytes(h: &JournalHeader, shard: u64, shards: u64, windows: &[u64]) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_frame(
            &mut bytes,
            &WireMessage::SubmitBegin {
                shard,
                shards,
                windows: h.windows,
            }
            .encode(),
        )
        .unwrap();
        bytes.extend_from_slice(&journal::header_record(h));
        for &w in windows {
            bytes.extend_from_slice(&journal::window_record(&entry(w)));
        }
        write_frame(
            &mut bytes,
            &WireMessage::SubmitEnd {
                sent: windows.len() as u64,
            }
            .encode(),
        )
        .unwrap();
        bytes
    }

    #[test]
    fn submission_session_persists_and_acks() {
        let cfg = config("persists", 8, 2);
        let h = cfg.expect.clone();
        let collector = Collector::new(cfg).unwrap();
        let mut conn = Duplex::new(session_bytes(&h, 0, 2, &[0, 1, 2, 3]));
        let summary = collector.handle(&mut conn);
        assert!(summary.fault.is_none(), "{:?}", summary.fault);
        assert_eq!(summary.accepted, 4);
        let replies = conn.replies();
        assert!(matches!(
            replies.first(),
            Some(WireMessage::BeginAck { have }) if have.is_empty()
        ));
        match replies.get(1) {
            Some(WireMessage::EndAck { accepted, missing }) => {
                assert_eq!(*accepted, 4);
                assert!(missing.is_empty());
            }
            other => panic!("expected EndAck, got {other:?}"),
        }
        // The persisted journal is recoverable and byte-complete.
        let report = collector.report();
        assert_eq!(report.covered, 4);
        assert_eq!(report.frames_accepted, 4);
        assert_eq!(report.submissions, 1);
    }

    #[test]
    fn resubmission_is_idempotent_and_conflicts_are_refused() {
        let cfg = config("idempotent", 8, 2);
        let h = cfg.expect.clone();
        let collector = Collector::new(cfg).unwrap();
        let mut first = Duplex::new(session_bytes(&h, 0, 2, &[0, 1]));
        collector.handle(&mut first);
        // Same bytes again: all duplicates, no error. The have-set in
        // BeginAck means a well-behaved client would skip them, but
        // even a client that resends everything is harmless.
        let mut again = Duplex::new(session_bytes(&h, 0, 2, &[0, 1]));
        let summary = collector.handle(&mut again);
        assert!(summary.fault.is_none(), "{:?}", summary.fault);
        assert_eq!(summary.accepted, 0);
        assert_eq!(summary.duplicates, 2);
        match again.replies().first() {
            Some(WireMessage::BeginAck { have }) => assert_eq!(have, &vec![0, 1]),
            other => panic!("expected BeginAck, got {other:?}"),
        }
        // A *different* record for a persisted window is a typed
        // conflict, not silent clobbering.
        let mut bytes = Vec::new();
        write_frame(
            &mut bytes,
            &WireMessage::SubmitBegin {
                shard: 0,
                shards: 2,
                windows: h.windows,
            }
            .encode(),
        )
        .unwrap();
        bytes.extend_from_slice(&journal::header_record(&h));
        let mut diverged = entry(0);
        diverged.injected = 9;
        bytes.extend_from_slice(&journal::window_record(&diverged));
        let mut conflict = Duplex::new(bytes);
        let summary = collector.handle(&mut conflict);
        assert!(matches!(
            summary.fault,
            Some(ServiceFault::WindowConflict { window: 0 })
        ));
        match conflict.replies().last() {
            Some(WireMessage::Reject { code, .. }) => {
                assert_eq!(*code, ServiceFault::WindowConflict { window: 0 }.code());
            }
            other => panic!("expected Reject, got {other:?}"),
        }
    }

    #[test]
    fn identity_skew_is_refused_with_the_journal_fault_text() {
        let cfg = config("skew", 8, 1);
        let h = cfg.expect.clone();
        let collector = Collector::new(cfg).unwrap();
        let skewed = JournalHeader::with_params(999, h.n_v, h.windows, h.params.clone());
        let mut bytes = Vec::new();
        write_frame(
            &mut bytes,
            &WireMessage::SubmitBegin {
                shard: 0,
                shards: 1,
                windows: h.windows,
            }
            .encode(),
        )
        .unwrap();
        bytes.extend_from_slice(&journal::header_record(&skewed));
        let mut conn = Duplex::new(bytes);
        let summary = collector.handle(&mut conn);
        assert!(matches!(
            summary.fault,
            Some(ServiceFault::IdentitySkew { .. })
        ));
        match conn.replies().last() {
            Some(WireMessage::Reject { code, message }) => {
                assert_eq!(*code, 9);
                assert!(
                    message.contains("seed"),
                    "message should name the skew: {message}"
                );
            }
            other => panic!("expected Reject, got {other:?}"),
        }
    }

    #[test]
    fn window_before_begin_and_bad_shard_are_typed() {
        let cfg = config("protocol", 8, 2);
        let h = cfg.expect.clone();
        let collector = Collector::new(cfg).unwrap();
        // A window record with no session open.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&journal::window_record(&entry(0)));
        let mut conn = Duplex::new(bytes);
        let summary = collector.handle(&mut conn);
        assert!(matches!(summary.fault, Some(ServiceFault::Protocol { .. })));
        // A shard index outside the plan.
        let mut bytes = Vec::new();
        write_frame(
            &mut bytes,
            &WireMessage::SubmitBegin {
                shard: 7,
                shards: 2,
                windows: h.windows,
            }
            .encode(),
        )
        .unwrap();
        let mut conn = Duplex::new(bytes);
        let summary = collector.handle(&mut conn);
        assert!(matches!(
            summary.fault,
            Some(ServiceFault::BadShard {
                shard: 7,
                shards: 2
            })
        ));
        let report = collector.report();
        assert_eq!(report.rejected, 2);
        assert_eq!(report.faults.len(), 2);
    }

    #[test]
    fn fit_reflects_coverage_and_partial_marker() {
        let mut cfg = config("fit", 4, 2);
        cfg.min_coverage = 0.75;
        let h = cfg.expect.clone();
        let collector = Collector::new(cfg).unwrap();
        // Half coverage: shard 0 only.
        let mut conn = Duplex::new(session_bytes(&h, 0, 2, &[0, 1]));
        collector.handle(&mut conn);
        let snap = collector.fit_snapshot().unwrap();
        assert_eq!(snap.covered, 2);
        assert!(snap.partial);
        assert!(snap.partial_fault().is_some());
        // Full coverage: shard 1 lands, the marker clears.
        let mut conn = Duplex::new(session_bytes(&h, 1, 2, &[2, 3]));
        collector.handle(&mut conn);
        let snap = collector.fit_snapshot().unwrap();
        assert_eq!(snap.covered, 4);
        assert!(!snap.partial);
        assert!(snap.partial_fault().is_none());
        assert_eq!(snap.pooled_windows, 4);
        assert!(!snap.rows.is_empty());
    }

    #[test]
    fn crash_recovery_rebuilds_coverage_from_journals() {
        let cfg = config("recover", 8, 2);
        let h = cfg.expect.clone();
        let dir = cfg.journal_dir.clone();
        {
            let collector = Collector::new(cfg.clone()).unwrap();
            let mut conn = Duplex::new(session_bytes(&h, 0, 2, &[0, 1, 2]));
            collector.handle(&mut conn);
            // Dropped without any graceful path — the "SIGKILL".
        }
        // Torn tail: append garbage to the persisted journal, as a
        // kill mid-append would leave.
        let path = dir.join(shard_journal_name(2, 0));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xAB, 0xCD, 0xEF]);
        std::fs::write(&path, &bytes).unwrap();
        let collector = Collector::new(cfg).unwrap();
        let report = collector.report();
        assert_eq!(report.covered, 3, "coverage rebuilt from disk");
        assert_eq!(report.torn_records_dropped, 1);
        assert_eq!(report.torn_bytes_dropped, 3);
        let row = report.shard_rows.first().unwrap();
        assert_eq!(row.shard, 0);
        assert_eq!(row.persisted, 3);
        assert_eq!(row.torn_records_dropped, 1);
        // And a resumed session is told what the server already has.
        let mut conn = Duplex::new(session_bytes(&h, 0, 2, &[3]));
        let summary = collector.handle(&mut conn);
        assert!(summary.fault.is_none(), "{:?}", summary.fault);
        match conn.replies().first() {
            Some(WireMessage::BeginAck { have }) => assert_eq!(have, &vec![0, 1, 2]),
            other => panic!("expected BeginAck, got {other:?}"),
        }
    }

    #[test]
    fn draining_refuses_new_submissions() {
        let cfg = config("drain", 4, 1);
        let h = cfg.expect.clone();
        let collector = Collector::new(cfg).unwrap();
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &WireMessage::Shutdown.encode()).unwrap();
        let mut conn = Duplex::new(bytes);
        collector.handle(&mut conn);
        assert!(collector.draining());
        assert!(matches!(
            conn.replies().last(),
            Some(WireMessage::ShutdownAck)
        ));
        let mut conn = Duplex::new(session_bytes(&h, 0, 1, &[0]));
        let summary = collector.handle(&mut conn);
        assert!(matches!(summary.fault, Some(ServiceFault::Draining)));
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_jittered() {
        let retry = RetryPolicy::fast(42);
        let again = RetryPolicy::fast(42);
        for attempt in 0..20 {
            let b = retry.backoff(attempt);
            assert_eq!(b, again.backoff(attempt), "attempt {attempt}");
            assert!(b <= retry.backoff_cap);
        }
        // Exponential growth until the cap.
        assert!(retry.backoff(3) > retry.backoff(0));
        // Jitter: different seeds give different schedules.
        let other = RetryPolicy::fast(43);
        let differs = (0..5).any(|a| other.backoff(a) != retry.backoff(a));
        assert!(differs, "jitter must depend on the seed");
    }

    #[test]
    fn retry_sleeps_are_clamped_to_the_deadline() {
        // A loopback port that was just bound and closed: every
        // connect is refused, so only the backoff sleeps take time.
        let closed = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = closed.local_addr().unwrap().to_string();
        drop(closed);
        let retry = RetryPolicy {
            deadline: Duration::from_millis(100),
            backoff_base: Duration::from_secs(5),
            backoff_cap: Duration::from_secs(5),
            io_timeout: Duration::from_secs(1),
            seed: 1,
        };
        let start = std::time::Instant::now();
        let out = query_fit(&addr, &retry);
        let took = start.elapsed();
        assert!(
            matches!(out, Err(ServiceFault::Unavailable { .. })),
            "{out:?}"
        );
        assert!(took < Duration::from_secs(1), "took {took:?}");
    }
}
