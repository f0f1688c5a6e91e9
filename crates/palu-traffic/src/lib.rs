//! Streaming-traffic substrate: the synthetic observatory.
//!
//! The paper fits distributions measured from CAIDA/MAWI trunk-line
//! captures: streams of packets cut into windows of exactly `N_V`
//! valid packets, each aggregated into a sparse matrix `A_t`
//! (Section II). Those captures are proprietary, so this crate
//! *simulates the observatory*: it synthesizes packet streams from a
//! PALU underlying network and runs the identical measurement pipeline
//! — windowing, sparse aggregation, the five Figure 1 quantities,
//! binary logarithmic pooling, and per-bin mean/σ across consecutive
//! windows. See DESIGN.md ("Data substitution") for why this preserves
//! the paper-relevant behaviour.
//!
//! * [`packets`] — packet synthesis from a network's edge set, with
//!   uniform or heavy-tailed per-link intensities.
//! * [`window`] — fixed-`N_V` windows aggregated into CSR matrices.
//! * [`anonymize`] — the id-scrambling step real captures apply.
//! * [`observatory`] — a named vantage point producing consecutive
//!   windows (the Figure 3 panels are six of these).
//! * [`pipeline`] — multi-window pooled distributions `D(d_i) ± σ(d_i)`
//!   for any network quantity, serial or sharded across scoped threads
//!   with a bit-identical deterministic merge.
//! * [`metrics`] — zero-dependency per-stage instrumentation of the
//!   pipeline (wall-times and packet/window counters).
//! * [`fault`] — the typed window-failure taxonomy, retry/quarantine
//!   policies, and the seeded deterministic fault injector behind the
//!   pipeline's fault tolerance (DESIGN.md §4e).
//! * [`journal`] — the durable write-ahead capture journal behind
//!   checkpoint/resume: CRC32-framed window records, torn-tail
//!   recovery, and typed refusal of corrupt or mismatched journals
//!   (DESIGN.md §4f).
//! * [`budget`] — the resource-budget governor: admission control from
//!   per-stage cost models, accounted-bytes backpressure, and the
//!   graceful-degradation ladder for bounded-memory captures
//!   (DESIGN.md §4d).
//! * [`federation`] — fault-tolerant sharded capture: disjoint window
//!   ranges over one seed sequence, hierarchical journal merge
//!   bit-identical to a single-process run, typed shard-fault
//!   quarantine with a coverage threshold (DESIGN.md §4j).
//! * [`wire`] — the service wire protocol and network layer:
//!   journal-record framing on TCP, the one accept loop
//!   (`wire::serve`) and retry combinator ([`RetryPolicy::run`]),
//!   typed [`wire::ServiceFault`] taxonomy, and the seeded wire-fault
//!   injector (DESIGN.md §4k).
//! * [`service`] — federation service mode: the crash-tolerant
//!   shard-submission collector/server with rolling merged fits, and
//!   the retry/backoff submission client (DESIGN.md §4k).
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

/// Deterministic keyed address anonymization (CryptoPAn-style prefix preservation).
pub mod anonymize;
/// Resource-budget governor: admission control, backpressure, and
/// graceful degradation for bounded-memory captures.
pub mod budget;
/// Federation dispatcher: lease-based shard supervision with
/// heartbeat liveness, fencing tokens, and deterministic re-dispatch.
pub mod dispatch;
/// Typed window-failure taxonomy, failure policies, and the seeded
/// deterministic fault injector.
pub mod fault;
/// Fault-tolerant sharded capture with hierarchical journal merge.
pub mod federation;
/// Durable write-ahead capture journal for checkpoint/resume.
pub mod journal;
/// Per-stage wall-time and volume instrumentation for the pipeline.
pub mod metrics;
/// A named vantage point producing consecutive observation windows.
pub mod observatory;
/// Synthetic packet/flow generation from a PALU topology.
pub mod packets;
/// Multi-window pooled distributions `D(d_i) ± σ(d_i)` per quantity.
pub mod pipeline;
/// Federation service mode: crash-tolerant shard-submission server
/// and retry/backoff submission client.
pub mod service;
/// The flow-record stream abstraction feeding window assembly.
pub mod stream;
/// Single-window accumulation of flows into per-node quantities.
pub mod window;
/// The federation service's wire protocol and fault injector.
pub mod wire;

pub use budget::{
    BudgetFault, CostModel, DegradationEvent, DegradationRung, Governor, ResourceBudget,
    SuggestedConfig,
};
pub use dispatch::{
    request_lease, resume_zombie, run_worker, send_heartbeat, send_work_done, worker_journal_name,
    DispatchConfig, DispatchFault, DispatchReport, DispatchServer, Dispatcher, WorkPhase,
    WorkerConfig, WorkerReport, ZombieOutcome,
};
pub use fault::{
    FailurePolicy, FaultAction, FaultKind, FaultRecord, FaultReport, InjectedFault, InjectionSpec,
    Injector, PipelineError, WindowFault, WindowOutcome,
};
pub use federation::{
    capture_shard, merge_shard_journals, FederatedMerge, FederationError, FederationReport,
    ShardFault, ShardPlan, ShardRange, ShardReport,
};
pub use journal::{Journal, JournalFault, JournalHeader, Recovery, WindowEntry, WindowResult};
pub use metrics::{Metrics, MetricsSnapshot, Stage};
pub use observatory::Observatory;
pub use packets::{EdgeIntensity, Packet, PacketSynthesizer};
pub use pipeline::{FaultTolerantPool, Pipeline, PooledDistribution};
pub use service::{
    query_fit, request_shutdown, submit_journal, Collector, RetryPolicy, Server, ServiceConfig,
    ServiceReport, SubmitOutcome,
};
pub use window::PacketWindow;
pub use wire::{
    FitSnapshot, LeaseOffer, LeaseTicket, RefusalClass, ServiceFault, ShardTornRow, StopHandle,
    WireFault, WireInjector, WireSpec,
};
