//! The `palu` subcommands.
//!
//! | command | function |
//! |---|---|
//! | `generate` | PALU underlying network → edge list |
//! | `observe` | edge list + `p` → sampled edge list |
//! | `degrees` | edge list → degree histogram |
//! | `fit` | degree histogram → ZM + PALU + CSN fits |
//! | `census` | edge list → Figure-2 topology census |
//! | `help` | usage |
//!
//! Every command writes its primary output to `--out` (or stdout) and
//! human-readable progress to stderr, so pipelines compose:
//!
//! ```text
//! palu-cli generate --nodes 100000 --core 0.5 --leaves 0.2 --lambda 3 \
//!               --alpha 2 --seed 1 --out net.txt
//! palu-cli observe  --in net.txt --p 0.5 --seed 2 --out obs.txt
//! palu-cli degrees  --in obs.txt --out deg.txt
//! palu-cli fit      --in deg.txt --p 0.5
//! ```

use crate::args::ParsedArgs;
use crate::io;
use palu::estimate::PaluEstimator;
use palu::params::PaluParams;
use palu::zm_fit::ZmFitter;
use palu_graph::census::TopologyCensus;
use palu_graph::clustering::clustering;
use palu_graph::sample::sample_edges;
use palu_stats::logbin::DifferentialCumulative;
use palu_stats::mle::{fit_csn, CsnOptions};
use palu_stats::rng::Xoshiro256pp;
use std::io::Write;
use std::path::Path;

/// CLI failure: message plus suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

/// Process exit codes for typed refusals, so scripts (ci.sh smokes
/// included) can assert the precise failure class instead of a
/// generic nonzero.
pub mod exit {
    /// Unclassified runtime failure (I/O, aborted window, …).
    pub const RUNTIME: i32 = 1;
    /// Bad command line.
    pub const USAGE: i32 = 2;
    /// The budget governor's admission control refused the capture.
    pub const ADMISSION_REFUSED: i32 = 3;
    /// A journal is corrupt: checksum mismatch, malformed record, or
    /// not a journal at all.
    pub const JOURNAL_CORRUPT: i32 = 4;
    /// A journal's identity (seed, version, or fingerprinted
    /// parameter) does not match the run.
    pub const CONFIG_MISMATCH: i32 = 5;
    /// A federated merge ended below its `--min-coverage` threshold.
    pub const COVERAGE: i32 = 6;
    /// Quarantine dropped more windows than the policy tolerates.
    pub const QUARANTINE_OVERFLOW: i32 = 7;
    /// The federation service could not be reached (or a session
    /// could not complete) before the retry deadline.
    pub const SERVICE_UNAVAILABLE: i32 = 8;
    /// A zombie worker presented a stale fencing token and was
    /// refused by the dispatcher.
    pub const DISPATCH_FENCED: i32 = 9;
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: exit::USAGE,
        }
    }

    fn runtime(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: exit::RUNTIME,
        }
    }

    fn with_code(message: impl Into<String>, code: i32) -> Self {
        CliError {
            message: message.into(),
            code,
        }
    }
}

/// Exit code for a typed journal refusal: corruption vs identity
/// mismatch vs plain I/O.
fn journal_fault_code(fault: &palu_traffic::JournalFault) -> i32 {
    use palu_traffic::JournalFault;
    match fault {
        JournalFault::Io { .. } => exit::RUNTIME,
        JournalFault::NotAJournal { .. }
        | JournalFault::ChecksumMismatch { .. }
        | JournalFault::Malformed { .. } => exit::JOURNAL_CORRUPT,
        JournalFault::VersionSkew { .. }
        | JournalFault::SeedMismatch { .. }
        | JournalFault::ConfigMismatch { .. } => exit::CONFIG_MISMATCH,
    }
}

/// Map a journal refusal to a [`CliError`] with its typed exit code.
/// A `ConfigMismatch` names the exact parameter that skewed (the
/// fingerprint diagnosis), so the operator sees *which* flag differs.
fn journal_fault_error(context: &str, fault: &palu_traffic::JournalFault) -> CliError {
    CliError::with_code(format!("{context}: {fault}"), journal_fault_code(fault))
}

/// Map a pipeline failure to a [`CliError`] with its typed exit code.
fn pipeline_error(e: &palu_traffic::PipelineError) -> CliError {
    use palu_traffic::{BudgetFault, PipelineError};
    let code = match e {
        PipelineError::Journal(fault) => journal_fault_code(fault),
        PipelineError::QuarantineOverflow { .. } => exit::QUARANTINE_OVERFLOW,
        PipelineError::Budget(BudgetFault::AdmissionRefused { .. }) => exit::ADMISSION_REFUSED,
        _ => exit::RUNTIME,
    };
    CliError::with_code(format!("pipeline: {e}"), code)
}

/// Map a federation failure to a [`CliError`] with its typed exit
/// code: identity skew and coverage shortfall are the headline typed
/// refusals; plan/input problems are usage errors.
fn federation_error(e: &palu_traffic::FederationError) -> CliError {
    use palu_traffic::FederationError;
    match e {
        FederationError::BadPlan { .. }
        | FederationError::BadShardIndex { .. }
        | FederationError::BadCoverage { .. }
        | FederationError::NoJournals => CliError::usage(e.to_string()),
        FederationError::IdentitySkew { .. } => {
            CliError::with_code(e.to_string(), exit::CONFIG_MISMATCH)
        }
        FederationError::Coverage { .. } => CliError::with_code(e.to_string(), exit::COVERAGE),
        FederationError::Overlap(_) => CliError::with_code(e.to_string(), exit::JOURNAL_CORRUPT),
        FederationError::Pipeline(p) => pipeline_error(p),
    }
}

/// Map a typed service fault to a [`CliError`] with the exit code of
/// its refusal class — the same convention as the merge: corruption →
/// 4, identity skew → 5, coverage → 6, plus 8 for transport
/// exhaustion (`SERVICE_UNAVAILABLE`) and 9 for a fenced zombie
/// lease (`DISPATCH_FENCED`).
fn service_fault_error(context: &str, fault: &palu_traffic::ServiceFault) -> CliError {
    use palu_traffic::RefusalClass;
    let code = match fault.refusal() {
        RefusalClass::Usage => exit::USAGE,
        RefusalClass::Corrupt => exit::JOURNAL_CORRUPT,
        RefusalClass::IdentitySkew => exit::CONFIG_MISMATCH,
        RefusalClass::Coverage => exit::COVERAGE,
        RefusalClass::Unavailable => exit::SERVICE_UNAVAILABLE,
        RefusalClass::Fenced => exit::DISPATCH_FENCED,
    };
    CliError::with_code(format!("{context}: {fault}"), code)
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::usage(message)
    }
}

/// Checked `u64 → usize` for CLI options: a clear usage error instead
/// of a silent narrowing cast on 32-bit platforms.
fn usize_opt(v: u64, option: &str) -> Result<usize, CliError> {
    usize::try_from(v).map_err(|_| {
        CliError::usage(format!(
            "--{option} = {v} does not fit in usize on this platform"
        ))
    })
}

/// Parse a byte-size option value: a plain integer with an optional
/// `k`/`M`/`G` suffix (powers of 1024). `64M` → 67 108 864.
fn parse_bytes(spec: &str) -> Result<u64, String> {
    let spec = spec.trim();
    if spec.is_empty() {
        return Err("empty size (expected e.g. 64M or 1073741824)".to_string());
    }
    let (digits, shift) = match spec.as_bytes()[spec.len() - 1] {
        b'k' | b'K' => (&spec[..spec.len() - 1], 10),
        b'M' => (&spec[..spec.len() - 1], 20),
        b'G' => (&spec[..spec.len() - 1], 30),
        _ => (spec, 0),
    };
    let n: u64 = digits
        .parse()
        .map_err(|e| format!("not a byte count ({e}); expected e.g. 64M or 1073741824"))?;
    n.checked_shl(shift)
        .filter(|v| v >> shift == n)
        .ok_or_else(|| format!("{spec} overflows a 64-bit byte count"))
}

/// Serialize a pipeline metrics snapshot as a JSON object: per-stage
/// wall-times in nanoseconds plus packet/window/thread counters.
/// Shared by `simulate --metrics` and the palu-bench binaries.
pub fn metrics_json(snap: &palu_traffic::MetricsSnapshot) -> crate::json::JsonValue {
    use crate::json::JsonValue;
    let stages = JsonValue::obj(
        snap.stages()
            .iter()
            .map(|&(name, ns)| (name, JsonValue::UInt(ns))),
    );
    JsonValue::obj([
        ("stage_ns", stages),
        ("total_stage_ns", JsonValue::UInt(snap.total_ns())),
        ("capture_wall_ns", JsonValue::UInt(snap.capture_wall_ns)),
        ("packets", JsonValue::UInt(snap.packets)),
        ("packets_per_sec", JsonValue::Float(snap.packets_per_sec())),
        ("windows", JsonValue::UInt(snap.windows)),
        ("threads", JsonValue::UInt(snap.threads)),
        ("retries", JsonValue::UInt(snap.retries)),
        ("quarantined", JsonValue::UInt(snap.quarantined)),
    ])
}

/// Serialize a [`palu_traffic::FaultReport`] as a JSON object:
/// headline counters, per-window fault records (window order, so the
/// document is deterministic for a given seed and injection spec),
/// the fit-restart ladder's rung histogram, and the budget governor's
/// degradation events (empty unless a memory budget was set).
pub fn fault_report_json(report: &palu_traffic::FaultReport) -> crate::json::JsonValue {
    use crate::json::JsonValue;
    let records = JsonValue::Array(
        report
            .records
            .iter()
            .map(|r| {
                JsonValue::obj([
                    ("window", JsonValue::UInt(r.window)),
                    ("kind", JsonValue::Str(r.kind.name().to_string())),
                    ("attempts", JsonValue::UInt(u64::from(r.attempts))),
                    ("outcome", JsonValue::Str(r.outcome.name().to_string())),
                ])
            })
            .collect(),
    );
    let ladder = JsonValue::obj(
        report
            .ladder
            .entries()
            .into_iter()
            .map(|(name, count)| (name, JsonValue::UInt(count))),
    );
    let degradations = JsonValue::Array(
        report
            .degradations
            .iter()
            .map(|d| {
                JsonValue::obj([
                    ("rung", JsonValue::Str(d.rung.name().to_string())),
                    ("window", JsonValue::UInt(d.window)),
                    ("accounted_bytes", JsonValue::UInt(d.accounted_bytes)),
                ])
            })
            .collect(),
    );
    JsonValue::obj([
        ("windows", JsonValue::UInt(report.windows)),
        ("survivors", JsonValue::UInt(report.survivors)),
        ("quarantined", JsonValue::UInt(report.quarantined)),
        ("substituted", JsonValue::UInt(report.substituted)),
        ("recovered", JsonValue::UInt(report.recovered)),
        ("injected", JsonValue::UInt(report.injected)),
        ("retries", JsonValue::UInt(report.retries)),
        ("records", records),
        ("ladder", ladder),
        ("degradations", degradations),
    ])
}

/// Usage text.
pub const USAGE: &str = "\
palu — PALU hybrid power-law network-traffic model (Devlin et al. 2021)

USAGE: palu-cli <command> [--option value]...

COMMANDS:
  generate   Generate a PALU underlying network as an edge list
             --nodes N --core C --leaves L --lambda λ --alpha α
             [--p P=0.5] [--seed S=1] [--out FILE=stdout]
  observe    Keep each edge of an edge list independently with prob. p
             --in FILE --p P [--seed S=1] [--out FILE=stdout]
  degrees    Reduce an edge list to a degree histogram (degree ≥ 1)
             --in FILE [--out FILE=stdout]
  fit        Fit models to a degree histogram
             --in FILE [--p P] [--boot N=0]
             (ZM (α, δ); CSN baseline; PALU constants; with --p also
              the recovered underlying (C, L, U, λ); with --boot N
              bootstrap CIs on the ZM fit)
             Service mode: query a federation server's rolling merged
             fit instead of reading a histogram. Output is the
             canonical pooled format, byte-identical to single-process
             `simulate` at full coverage; below the server's coverage
             threshold the fit refuses (exit 6) unless --allow-partial
             --server ADDR [--allow-partial] [+ retry options, see
             submit]
  census     Figure-2 topology census + clustering of an edge list
             --in FILE
  simulate   Run a synthetic observatory end to end: PALU network →
             packet windows → pooled D(d_i) ± σ series. Windows are
             processed in parallel; output is bit-identical for any
             --threads value
             --core C --leaves L --lambda λ --alpha α
             [--nodes N=100000] [--nv NV=100000] [--windows W=8]
             [--seed S=1] [--threads T=auto] [--metrics FILE]
             [--out FILE=stdout]
             Fault tolerance (deterministic per seed+spec):
             [--inject-faults SPEC]   seeded fault injector; SPEC is a
               bare rate (split evenly) or kind=rate pairs from
               truncate,nan,dup,panic,stall, e.g. 0.5 or
               truncate=0.2,panic=0.1
             [--fail-policy abort|quarantine|substitute]  (default abort)
             [--max-retries K=1]      fresh-seed retries per window
             [--quarantine-threshold F=1.0]  max quarantined fraction
             [--window-deadline-ms MS]  stall watchdog: an attempt
               exceeding MS is classified `stalled` and retried /
               quarantined like any other window fault
             With injection active a fault report (per-window kind,
             attempts, outcome; restart-ladder rungs) is appended to
             the --metrics JSON and summarized on stderr
             Durable checkpoint/resume (crash-equivalent capture):
             [--journal FILE]  append each completed window to a CRC32
               write-ahead journal; [--resume] replay completed windows
               from FILE instead of recomputing them. A resumed capture
               is bit-identical to an uninterrupted one at any kill
               point and --threads value; a journal from a different
               seed/parameter set (or with corrupt records) is refused
             Bounded memory (resource-budget governor):
             [--memory-budget BYTES]  account every capture-phase
               allocation against a hard watermark (suffix k/M/G =
               2^10/2^20/2^30 bytes). Admission projects the peak
               footprint before any window is synthesized and refuses
               configurations whose floor cannot fit (exit 1, with a
               feasible suggestion); past the soft watermark the
               capture degrades through deterministic rungs —
               coarsen_bins, shrink_workers, spill_pooled — recorded
               in the fault report. Pooled output stays bit-identical
               to an unbudgeted run for any --threads value
             [--admission]  strict admission: also refuse configs that
               would only complete by degrading (projected undegraded
               peak above the hard watermark)
  shard      Run one shard of a federated capture: the simulate
             engine over shard i's window range of an n-shard plan,
             journaling under the full capture's identity. Takes every
             simulate option; --journal is required (the merge
             consumes shard journals); --resume re-captures only the
             shard's missing windows after a crash
             --shard-index I --shards N --journal FILE
             + all simulate options
             Merge shard journals with `pool --merge` (below); a
             merge of clean shards is bit-identical to the
             single-process `simulate` output for any shard/thread
             count
  gof        Goodness-of-fit report for a degree histogram: CSN
             semiparametric bootstrap p-value + power-law-vs-lognormal
             Vuong test; the CSN fit runs a deterministic restart
             ladder and reports which rung produced the estimate
             --in FILE [--boot N=50] [--seed S=1]
  pool       Stream a packet trace (`src dst` per line) through
             fixed-N_V windows into pooled D(d_i) ± σ, constant memory
             --in FILE --nv NV [--out FILE=stdout]
             Federated merge mode: pool shard journals instead of a
             trace. Shard-local failures quarantine as typed
             ShardFaults; identity skew (seed/parameter fingerprint)
             is a hard refusal naming the skewed parameter
             --merge A.journal B.journal … [--min-coverage F=1.0]
             [--recapture]  recompute missing windows
             deterministically instead of quarantining them
             + the simulate options naming the capture's identity
             With --metrics FILE a `federation` section (coverage
             arithmetic, per-shard rows, typed faults) is included
  serve      Run the federation service: accept shard-journal
             submissions over TCP, persist them through per-shard
             journals (a SIGKILL'd server rebuilds coverage from disk
             on restart), and serve the rolling merged fit. Drains
             gracefully on `submit --shutdown`
             --journal-dir DIR [--listen ADDR=127.0.0.1:0]
             [--shards N=1] [--min-coverage F=1.0]
             [--read-timeout-ms MS=5000] [--addr-file FILE]
             [--metrics FILE]
             + the simulate options naming the capture's identity
  submit     Submit one shard journal to a federation service with
             deadline + jittered-backoff retries; resubmission is
             idempotent, and a client killed mid-frame resumes from
             the server's acknowledged window set
             --server ADDR --journal FILE
             [--shard-index I=0] [--shards N=1]
             [--retry-deadline-ms MS=30000] [--backoff-base-ms MS=20]
             [--backoff-cap-ms MS=500] [--io-timeout-ms MS=5000]
             [--wire-faults SPEC]  seeded wire-fault injector; SPEC is
               a bare rate (split evenly) or kind=rate pairs from
               drop,corrupt,dup,delay,truncate
             + the simulate options naming the capture's identity
             With --shutdown (and no journal) the server drains and
             exits after in-flight sessions finish
  dispatch   Run the federation dispatcher: a serve collector wrapped
             with lease-based shard supervision. Hands out
             window-range leases to `work` clients, monitors liveness
             via heartbeats, re-dispatches expired leases
             (deterministically: lowest incomplete shard first), and
             fences zombie workers with a typed refusal. Exits when
             every shard completes unless --linger; a SIGKILL'd
             dispatcher restarted over the same --journal-dir derives
             completion from the shard journals and re-dispatches
             only what is missing
             --journal-dir DIR [--listen ADDR=127.0.0.1:0]
             [--shards N=1] [--min-coverage F=1.0]
             [--lease-ms MS=10000] [--heartbeat-ms MS=lease/4]
             [--linger] [--stall-ms MS]  stall watchdog: give up when
               coverage is incomplete but no lease is live or renewed
               for MS (exit 1 with the typed DispatchStalled event)
             [--read-timeout-ms MS=5000] [--addr-file FILE]
             [--metrics FILE]  dispatch + service sections
             + the simulate options naming the capture's identity
  work       Serve leases from a dispatcher: request a lease, capture
             the granted window range into a local journal under
             --work-dir, submit it through the idempotent submit
             path, heartbeat on a jittered interval, repeat until the
             dispatcher reports the capture complete
             --server ADDR --work-dir DIR [--worker ID=0]
             [--poll-ms MS=50] [+ retry and wire-fault options, see
             submit] + the simulate options naming the capture's
             identity; --memory-budget / --admission bound each lease
             exactly as they bound `shard`
             [--chaos-kill pre-lease|mid-capture|pre-submit]  die at
               that phase exactly as a SIGKILL would (mid-capture
               leaves a half-journaled range; pre-submit a complete
               local journal the collector never saw)
             [--resume-lease]  wake up as a zombie holding the lease
               state a killed incarnation left in --work-dir: the
               heartbeat draws the typed fenced refusal (exit 9) and
               the journal resubmission is a byte-idempotent no-op
  help       This message

EXIT CODES (the one authoritative table):
  0 ok
  1 runtime failure (I/O, aborted window, dispatch stall, …)
  2 usage
  3 admission refused (budget governor)
  4 journal corrupt (checksum / malformed / not a journal)
  5 journal identity mismatch (seed, version, or fingerprint skew)
  6 merge coverage below threshold
  7 quarantine overflow
  8 service unreachable before the retry deadline
  9 lease fenced (zombie worker refused by the dispatcher)
";

/// Write `f`'s output to `--out` or stdout.
fn with_output<F>(args: &ParsedArgs, f: F) -> Result<(), CliError>
where
    F: FnOnce(&mut dyn Write) -> Result<(), CliError>,
{
    match args.options.get("out").filter(|s| !s.is_empty()) {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
            let mut w = std::io::BufWriter::new(file);
            f(&mut w)?;
            w.flush()
                .map_err(|e| CliError::runtime(format!("{path}: {e}")))
        }
        None => {
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            f(&mut lock)
        }
    }
}

fn cmd_generate(args: &ParsedArgs) -> Result<(), CliError> {
    let nodes = args.u64_or("nodes", 100_000)?;
    let core = args.require_f64("core")?;
    let leaves = args.require_f64("leaves")?;
    let lambda = args.require_f64("lambda")?;
    let alpha = args.require_f64("alpha")?;
    let p = args.f64_or("p", 0.5)?;
    let seed = args.u64_or("seed", 1)?;

    let params = PaluParams::from_core_leaf_fractions(core, leaves, lambda, alpha, p)
        .map_err(|e| CliError::usage(e.to_string()))?;
    let net = params
        .generator(nodes)
        .map_err(|e| CliError::usage(e.to_string()))?
        .generate(&mut Xoshiro256pp::seed_from_u64(seed));
    eprintln!(
        "generated {} nodes, {} edges (C={core}, L={leaves}, U={:.4}, λ={lambda}, α={alpha})",
        net.graph.n_nodes(),
        net.graph.n_edges(),
        params.unattached
    );
    with_output(args, |w| {
        io::write_edge_list(&net.graph, w).map_err(|e| CliError::runtime(e.to_string()))
    })
}

fn cmd_observe(args: &ParsedArgs) -> Result<(), CliError> {
    let input = args.require("in")?.to_string();
    let p = args.require_f64("p")?;
    if !(0.0..=1.0).contains(&p) {
        return Err(CliError::usage(format!("--p must be in [0,1], got {p}")));
    }
    let seed = args.u64_or("seed", 1)?;
    let g = io::read_edge_list_path(Path::new(&input)).map_err(CliError::usage)?;
    let sampled = sample_edges(&g, p, &mut Xoshiro256pp::seed_from_u64(seed));
    eprintln!(
        "observed {} of {} edges at p = {p}",
        sampled.n_edges(),
        g.n_edges()
    );
    with_output(args, |w| {
        io::write_edge_list(&sampled, w).map_err(|e| CliError::runtime(e.to_string()))
    })
}

fn cmd_degrees(args: &ParsedArgs) -> Result<(), CliError> {
    let input = args.require("in")?.to_string();
    let g = io::read_edge_list_path(Path::new(&input)).map_err(CliError::usage)?;
    let h = g.degree_histogram();
    eprintln!(
        "{} visible nodes, d_max = {}",
        h.total(),
        h.d_max().unwrap_or(0)
    );
    with_output(args, |w| {
        io::write_histogram(&h, w).map_err(|e| CliError::runtime(e.to_string()))
    })
}

fn cmd_fit(args: &ParsedArgs) -> Result<(), CliError> {
    if args
        .options
        .get("server")
        .filter(|s| !s.is_empty())
        .is_some()
    {
        return cmd_fit_server(args);
    }
    let input = args.require("in")?.to_string();
    let h = io::read_histogram_path(Path::new(&input)).map_err(CliError::usage)?;
    if h.is_empty() {
        return Err(CliError::usage("histogram is empty"));
    }
    let pooled = DifferentialCumulative::from_histogram(&h);

    with_output(args, |w| {
        let mut run = || -> Result<(), String> {
            writeln!(w, "# palu fit report for {input}").map_err(|e| e.to_string())?;
            writeln!(
                w,
                "observations: {}   f(1) = {:.4}   d_max = {}",
                h.total(),
                h.fraction_degree_one(),
                h.d_max().unwrap_or(0)
            )
            .map_err(|e| e.to_string())?;

            // Modified Zipf–Mandelbrot.
            let zm = ZmFitter::default()
                .fit(&pooled, None)
                .map_err(|e| e.to_string())?;
            writeln!(
                w,
                "zipf-mandelbrot: alpha = {:.4}  delta = {:+.4}  residual = {:.5}",
                zm.alpha,
                zm.delta,
                zm.objective.sqrt()
            )
            .map_err(|e| e.to_string())?;

            // Optional bootstrap CIs.
            let n_boot = args.u64_or("boot", 0).map_err(|e| e.to_string())?;
            if n_boot > 0 {
                let mut rng =
                    Xoshiro256pp::seed_from_u64(args.u64_or("seed", 1).map_err(|e| e.to_string())?);
                let n_boot = usize_opt(n_boot, "boot").map_err(|e| e.message)?;
                let boot = ZmFitter::default()
                    .fit_bootstrap(&h, n_boot, 0.9, &mut rng)
                    .map_err(|e| e.to_string())?;
                writeln!(
                    w,
                    "  90% CI: alpha in [{:.4}, {:.4}]  delta in [{:+.4}, {:+.4}]  ({} replicates)",
                    boot.alpha_ci.0,
                    boot.alpha_ci.1,
                    boot.delta_ci.0,
                    boot.delta_ci.1,
                    boot.replicates.len()
                )
                .map_err(|e| e.to_string())?;
            }

            // CSN baseline.
            match fit_csn(&h, &CsnOptions::default()) {
                Ok(csn) => writeln!(
                    w,
                    "csn power law:   alpha = {:.4}  x_min = {}  KS = {:.5}  (n_tail = {})",
                    csn.alpha, csn.x_min, csn.ks, csn.n_tail
                )
                .map_err(|e| e.to_string())?,
                Err(e) => {
                    writeln!(w, "csn power law:   not fittable ({e})").map_err(|e| e.to_string())?
                }
            }

            // PALU constants, and the underlying inversion when p known.
            let est = PaluEstimator::default()
                .estimate(&h)
                .map_err(|e| e.to_string())?;
            writeln!(
                w,
                "palu constants:  alpha = {:.4}  c = {:.5}  l = {:.5}  u = {:.5}  Lambda = {:.4}",
                est.simplified.alpha,
                est.simplified.c,
                est.simplified.l,
                est.simplified.u,
                est.simplified.capital_lambda
            )
            .map_err(|e| e.to_string())?;
            if let Some(p_str) = args.options.get("p").filter(|s| !s.is_empty()) {
                let p: f64 = p_str.parse().map_err(|e| format!("--p: {e}"))?;
                let (_, rec) = PaluEstimator::default()
                    .estimate_exact(&h, p)
                    .map_err(|e| e.to_string())?;
                writeln!(
                    w,
                    "palu underlying: C = {:.4}  L = {:.4}  U = {:.4}  lambda = {:.4}  (at p = {p})",
                    rec.core, rec.leaves, rec.unattached, rec.lambda
                )
                .map_err(|e| e.to_string())?;
            }
            Ok(())
        };
        run().map_err(CliError::runtime)
    })
}

fn cmd_census(args: &ParsedArgs) -> Result<(), CliError> {
    let input = args.require("in")?.to_string();
    let g = io::read_edge_list_path(Path::new(&input)).map_err(CliError::usage)?;
    let census = TopologyCensus::of(&g);
    let clust = clustering(&g);
    with_output(args, |w| {
        (|| -> std::io::Result<()> {
            writeln!(w, "# palu census for {input}")?;
            writeln!(w, "nodes                 {}", census.n_nodes)?;
            writeln!(w, "edges                 {}", census.n_edges)?;
            writeln!(w, "isolated nodes        {}", census.isolated_nodes)?;
            writeln!(w, "core nodes            {}", census.core_nodes)?;
            writeln!(w, "core edges            {}", census.core_edges)?;
            writeln!(w, "supernode degree      {}", census.supernode_degree)?;
            writeln!(w, "supernode leaves      {}", census.supernode_leaves)?;
            writeln!(w, "core leaves           {}", census.core_leaves)?;
            writeln!(w, "unattached links      {}", census.unattached_links)?;
            writeln!(w, "detached stars        {}", census.detached_stars)?;
            writeln!(w, "components (w/ edges) {}", census.nontrivial_components)?;
            writeln!(w, "global clustering     {:.6}", clust.global)?;
            writeln!(w, "avg local clustering  {:.6}", clust.average_local)?;
            writeln!(w, "triangles             {}", clust.triangles)?;
            Ok(())
        })()
        .map_err(|e| CliError::runtime(e.to_string()))
    })
}

/// Parse the `--fail-policy` / `--max-retries` /
/// `--quarantine-threshold` / `--window-deadline-ms` options into a
/// [`palu_traffic::FailurePolicy`].
fn parse_fail_policy(args: &ParsedArgs) -> Result<palu_traffic::FailurePolicy, CliError> {
    use palu_traffic::{FailurePolicy, FaultAction};
    let max_retries = args.u64_or("max-retries", 1)?;
    let max_retries = u32::try_from(max_retries)
        .map_err(|_| CliError::usage(format!("--max-retries = {max_retries} is out of range")))?;
    let threshold = args.f64_or("quarantine-threshold", 1.0)?;
    if !(0.0..=1.0).contains(&threshold) {
        return Err(CliError::usage(format!(
            "--quarantine-threshold must be in [0,1], got {threshold}"
        )));
    }
    let on_fault = match args.options.get("fail-policy").map(String::as_str) {
        None | Some("") | Some("abort") => FaultAction::Abort,
        Some("quarantine") => FaultAction::Quarantine,
        Some("substitute") => FaultAction::Substitute,
        Some(other) => {
            return Err(CliError::usage(format!(
                "--fail-policy must be abort, quarantine, or substitute, got {other:?}"
            )))
        }
    };
    let window_deadline_ms = match args.options.get("window-deadline-ms") {
        None => None,
        Some(_) => {
            let ms = args.u64_or("window-deadline-ms", 0)?;
            if ms == 0 {
                return Err(CliError::usage(
                    "--window-deadline-ms must be a positive number of milliseconds",
                ));
            }
            Some(ms)
        }
    };
    Ok(FailurePolicy {
        on_fault,
        max_retries,
        quarantine_threshold: threshold,
        window_deadline_ms,
    })
}

/// The shared `simulate`/`shard`/`pool --merge` parameter set:
/// everything that shapes a capture's identity (and therefore its
/// journal fingerprint) plus the operational fault/budget knobs.
struct SimCapture {
    nodes: u64,
    core: f64,
    leaves: f64,
    lambda: f64,
    alpha: f64,
    n_v: u64,
    n_windows: usize,
    seed: u64,
    policy: palu_traffic::FailurePolicy,
    injector: Option<palu_traffic::Injector>,
    inject_spec: String,
    budget: Option<palu_traffic::ResourceBudget>,
    strict_admission: bool,
}

impl SimCapture {
    fn parse(args: &ParsedArgs) -> Result<SimCapture, CliError> {
        use palu_traffic::budget::ResourceBudget;
        use palu_traffic::{InjectionSpec, Injector};

        let nodes = args.u64_or("nodes", 100_000)?;
        let core = args.require_f64("core")?;
        let leaves = args.require_f64("leaves")?;
        let lambda = args.require_f64("lambda")?;
        let alpha = args.require_f64("alpha")?;
        let n_v = args.u64_or("nv", 100_000)?;
        let n_windows = usize_opt(args.u64_or("windows", 8)?, "windows")?;
        if n_windows == 0 {
            return Err(CliError::usage(
                "--windows must be positive (an explicit 0-window capture has no pooled result)",
            ));
        }
        let seed = args.u64_or("seed", 1)?;
        let policy = parse_fail_policy(args)?;
        let inject_spec = args.get_or("inject-faults", "").to_string();
        let injector = match args.options.get("inject-faults").filter(|s| !s.is_empty()) {
            Some(spec) => {
                let spec = InjectionSpec::parse(spec)
                    .map_err(|e| CliError::usage(format!("--inject-faults: {e}")))?;
                Some(Injector::new(spec, seed))
            }
            None => None,
        };
        let memory_budget = match args.options.get("memory-budget") {
            Some(spec) => Some(
                parse_bytes(spec).map_err(|e| CliError::usage(format!("--memory-budget: {e}")))?,
            ),
            None => None,
        };
        let strict_admission = args.options.contains_key("admission");
        if strict_admission && memory_budget.is_none() {
            return Err(CliError::usage(
                "--admission requires --memory-budget <bytes>",
            ));
        }
        Ok(SimCapture {
            nodes,
            core,
            leaves,
            lambda,
            alpha,
            n_v,
            n_windows,
            seed,
            policy,
            injector,
            inject_spec,
            budget: memory_budget.map(ResourceBudget::with_limit),
            strict_admission,
        })
    }

    /// Worker count for a capture of `local_windows` windows: the
    /// same clamp the pipeline applies (no more workers than
    /// windows), so banners and metrics snapshots agree.
    fn threads(&self, args: &ParsedArgs, local_windows: usize) -> Result<usize, CliError> {
        Ok(match usize_opt(args.u64_or("threads", 0)?, "threads")? {
            0 => palu_traffic::pipeline::default_threads(),
            t => t,
        }
        .clamp(1, local_windows.max(1)))
    }

    /// The fingerprinted parameter manifest: every result-shaping
    /// parameter — but NOT the thread count (the merge is
    /// bit-identical across --threads) and NOT the stall deadline
    /// (watchdog verdicts are operational, not captured data).
    fn fingerprint_parts(&self) -> Vec<String> {
        vec![
            "measurement=undirected-degree".to_string(),
            format!("nodes={}", self.nodes),
            format!("core={}", self.core),
            format!("leaves={}", self.leaves),
            format!("lambda={}", self.lambda),
            format!("alpha={}", self.alpha),
            format!("fail-policy={:?}", self.policy.on_fault),
            format!("max-retries={}", self.policy.max_retries),
            format!("quarantine-threshold={}", self.policy.quarantine_threshold),
            format!("inject-faults={}", self.inject_spec),
        ]
    }

    /// The journal identity this capture binds to (shared verbatim by
    /// `simulate`, every `shard`, and the merge's expectation).
    fn header(&self) -> palu_traffic::JournalHeader {
        palu_traffic::JournalHeader::with_params(
            self.seed,
            self.n_v,
            self.n_windows as u64,
            self.fingerprint_parts(),
        )
    }

    /// Build the observatory (PALU network + packet synthesizer).
    fn observatory(&self) -> Result<palu_traffic::Observatory, CliError> {
        use palu_traffic::observatory::{Observatory, ObservatoryConfig};
        use palu_traffic::packets::EdgeIntensity;
        let params = PaluParams::from_core_leaf_fractions(
            self.core,
            self.leaves,
            self.lambda,
            self.alpha,
            0.5,
        )
        .map_err(|e| CliError::usage(e.to_string()))?;
        let gen = params
            .generator(self.nodes)
            .map_err(|e| CliError::usage(e.to_string()))?;
        Ok(Observatory::new(
            ObservatoryConfig {
                name: "cli".into(),
                date: String::new(),
                n_v: self.n_v,
            },
            &gen,
            EdgeIntensity::Uniform,
            self.seed,
        ))
    }

    /// Run the capture engine over the next `n` windows of `obs` under
    /// this capture's failure policy, fault injector and memory-budget
    /// governor: the one place `simulate`, `shard` and `work` take
    /// them from.
    fn capture(
        &self,
        obs: &mut palu_traffic::Observatory,
        n: usize,
        threads: usize,
        metrics: Option<&palu_traffic::Metrics>,
        journal: Option<&palu_traffic::Journal>,
        recovery: Option<&palu_traffic::Recovery>,
    ) -> Result<palu_traffic::FaultTolerantPool, palu_traffic::PipelineError> {
        use palu_traffic::budget::Governor;
        use palu_traffic::pipeline::{Measurement, Pipeline};
        let governor = self.budget.as_ref().map(|budget| Governor {
            budget,
            strict_admission: self.strict_admission,
        });
        Pipeline::pool_observatory_governed(
            Measurement::UndirectedDegree,
            obs,
            n,
            threads,
            metrics,
            &self.policy,
            self.injector.as_ref(),
            journal,
            recovery,
            governor.as_ref(),
        )
    }
}

/// Parse `--min-coverage` (default 1.0), the coverage fraction below
/// which `pool --merge`, `serve` and `dispatch` refuse a pool.
fn min_coverage(args: &ParsedArgs) -> Result<f64, CliError> {
    let min_coverage = args.f64_or("min-coverage", 1.0)?;
    if !(0.0..=1.0).contains(&min_coverage) {
        return Err(CliError::usage(format!(
            "--min-coverage must be in [0,1], got {min_coverage}"
        )));
    }
    Ok(min_coverage)
}

/// The `--wire-faults` injector of `submit` and `work` (none planted
/// when the flag is absent), seeded by the capture seed.
fn wire_injector(args: &ParsedArgs, seed: u64) -> Result<palu_traffic::WireInjector, CliError> {
    use palu_traffic::{WireInjector, WireSpec};
    let spec = match args.options.get("wire-faults").filter(|s| !s.is_empty()) {
        Some(spec) => {
            WireSpec::parse(spec).map_err(|e| CliError::usage(format!("--wire-faults: {e}")))?
        }
        None => WireSpec::none(),
    };
    Ok(WireInjector::new(spec, seed))
}

/// Write the document `doc` builds to `--metrics`, when that flag is
/// given. Returns the path written.
fn write_metrics(
    args: &ParsedArgs,
    doc: impl FnOnce() -> crate::json::JsonValue,
) -> Result<Option<&str>, CliError> {
    match args.options.get("metrics").filter(|s| !s.is_empty()) {
        Some(path) => {
            std::fs::write(path, doc().pretty())
                .map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
            Ok(Some(path))
        }
        None => Ok(None),
    }
}

/// The `--metrics` document of a capture: the metrics snapshot, then
/// `sections` in order, then the fault report. The fault report comes
/// last so consumers slicing the document from "fault_report" onward
/// (the CI crash-recovery diff) see identical bytes for a resumed and
/// an uninterrupted capture, and for a merge and a single process.
fn capture_metrics_json<'a>(
    snap: &palu_traffic::MetricsSnapshot,
    sections: impl IntoIterator<Item = (&'a str, crate::json::JsonValue)>,
    report: &palu_traffic::FaultReport,
) -> crate::json::JsonValue {
    use crate::json::JsonValue;
    let mut doc = metrics_json(snap);
    if let JsonValue::Object(pairs) = &mut doc {
        pairs.extend(sections.into_iter().map(|(k, v)| (k.to_string(), v)));
        pairs.push(("fault_report".to_string(), fault_report_json(report)));
    }
    doc
}

/// Create or resume a capture journal at `path`, with the standard
/// stderr narration. `n_windows` is only for the resume banner.
fn open_journal(
    path: &str,
    header: palu_traffic::JournalHeader,
    resume: bool,
    n_windows: usize,
) -> Result<(palu_traffic::Journal, Option<palu_traffic::Recovery>), CliError> {
    use palu_traffic::Journal;
    if resume && Path::new(path).exists() {
        let (journal, recovery) =
            Journal::resume(path, header).map_err(|e| journal_fault_error("journal", &e))?;
        eprintln!(
            "journal: resumed {} of {} windows from {path} ({} bytes replayed, \
             {} torn record(s) dropped)",
            recovery.windows.len(),
            n_windows,
            recovery.bytes_replayed,
            recovery.torn_records_dropped
        );
        Ok((journal, Some(recovery)))
    } else {
        if resume {
            eprintln!("journal: {path} does not exist yet, starting a fresh capture");
        }
        let journal =
            Journal::create(path, header).map_err(|e| journal_fault_error("journal", &e))?;
        Ok((journal, None))
    }
}

/// Write a pooled `D(d_i) ± σ` series in the canonical `simulate`
/// format — also used by `shard` and `pool --merge`, so a federated
/// merge's output file is byte-comparable to a single-process run's.
fn write_pooled(
    args: &ParsedArgs,
    pooled: &palu_traffic::PooledDistribution,
) -> Result<(), CliError> {
    with_output(args, |w| {
        (|| -> std::io::Result<()> {
            writeln!(
                w,
                "# pooled D(d_i) ± σ over {} windows of the undirected degree",
                pooled.windows
            )?;
            writeln!(w, "# columns: d_i D sigma")?;
            for ((d_i, v), s) in pooled.mean.iter().zip(pooled.sigma.iter()) {
                writeln!(w, "{d_i} {v:.8e} {s:.8e}")?;
            }
            Ok(())
        })()
        .map_err(|e| CliError::runtime(e.to_string()))
    })
}

fn cmd_simulate(args: &ParsedArgs) -> Result<(), CliError> {
    use palu_stats::mle::{fit_csn_with_restarts, CsnOptions};
    use palu_stats::restart::RestartPolicy;
    use palu_traffic::metrics::Metrics;

    let sc = SimCapture::parse(args)?;
    let n_windows = sc.n_windows;
    let threads = sc.threads(args, n_windows)?;
    let mut obs = sc.observatory()?;
    eprintln!(
        "observatory up: {} windows × {} packets on {} threads (effective p ≈ {:.3})",
        n_windows,
        sc.n_v,
        threads,
        obs.effective_p()
    );
    // Durable checkpoint/resume: the journal identity binds the seed,
    // window geometry, and every result-shaping parameter (see
    // SimCapture::fingerprint_parts for what stays out).
    let resume = args.options.contains_key("resume");
    let journal_state = match args.options.get("journal").filter(|s| !s.is_empty()) {
        Some(path) => Some(open_journal(path, sc.header(), resume, n_windows)?),
        None => {
            if resume {
                return Err(CliError::usage("--resume requires --journal <path>"));
            }
            None
        }
    };
    // Sharded synthesize → window → histogram → bin with a
    // deterministic window-ordered merge: bit-identical to the serial
    // pipeline for any --threads value, fault-tolerant per --fail-policy.
    let metrics = Metrics::new();
    if let Some(b) = &sc.budget {
        eprintln!(
            "budget: {} byte hard watermark (soft {}), admission {}",
            b.hard().unwrap_or(0),
            b.soft().unwrap_or(0),
            if sc.strict_admission {
                "strict"
            } else {
                "floor"
            }
        );
    }
    let mut ft = sc
        .capture(
            &mut obs,
            n_windows,
            threads,
            Some(&metrics),
            journal_state.as_ref().map(|(j, _)| j),
            journal_state.as_ref().and_then(|(_, r)| r.as_ref()),
        )
        .map_err(|e| pipeline_error(&e))?;
    if sc.injector.is_some() {
        // Fit the pooled histogram through the restart ladder so the
        // report shows how far recovery had to climb.
        match fit_csn_with_restarts(
            &ft.histogram,
            &CsnOptions::default(),
            &RestartPolicy::default(),
        ) {
            Ok(fit) => {
                ft.report.ladder.record(fit.rung);
                eprintln!(
                    "csn fit on pooled histogram: alpha = {:.4} via {} rung ({} attempt(s))",
                    fit.value.alpha,
                    fit.rung.name(),
                    fit.attempts
                );
            }
            Err(e) => eprintln!("csn fit on pooled histogram: not fittable ({e})"),
        }
    }
    if !ft.report.is_clean() {
        eprintln!(
            "fault report: {} injected, {} retries, {} recovered, {} quarantined, {} substituted \
             ({} of {} windows survive)",
            ft.report.injected,
            ft.report.retries,
            ft.report.recovered,
            ft.report.quarantined,
            ft.report.substituted,
            ft.report.survivors,
            ft.report.windows
        );
    }
    if !ft.report.degradations.is_empty() {
        eprintln!(
            "budget: {} degradation rung engagement(s) under pressure (peak accounted {} bytes); \
             pooled output is unaffected",
            ft.report.degradations.len(),
            sc.budget.as_ref().map(|b| b.peak()).unwrap_or(0)
        );
    }
    let snap = metrics.snapshot();
    let written = write_metrics(args, || {
        use crate::json::JsonValue;
        let budget = sc.budget.as_ref().map(|b| {
            let mut rungs = [0u64; 3];
            for d in &ft.report.degradations {
                rungs[usize::from(d.rung.code())] += 1;
            }
            (
                "budget",
                JsonValue::obj([
                    ("limit", JsonValue::UInt(b.hard().unwrap_or(0))),
                    ("soft", JsonValue::UInt(b.soft().unwrap_or(0))),
                    (
                        "admission_estimate_bytes",
                        JsonValue::UInt(snap.admission_estimate_bytes),
                    ),
                    (
                        "peak_accounted_bytes",
                        JsonValue::UInt(snap.peak_accounted_bytes),
                    ),
                    ("degradations", JsonValue::UInt(snap.budget_degradations)),
                    ("coarsen_bins", JsonValue::UInt(rungs[0])),
                    ("shrink_workers", JsonValue::UInt(rungs[1])),
                    ("spill_pooled", JsonValue::UInt(rungs[2])),
                ]),
            )
        });
        let journal = journal_state.as_ref().map(|(journal, _)| {
            (
                "journal",
                JsonValue::obj([
                    ("windows_recovered", JsonValue::UInt(snap.windows_recovered)),
                    (
                        "bytes_replayed",
                        JsonValue::UInt(snap.journal_bytes_replayed),
                    ),
                    (
                        "torn_records_dropped",
                        JsonValue::UInt(snap.journal_torn_dropped),
                    ),
                    ("bytes_appended", JsonValue::UInt(journal.appended_bytes())),
                ]),
            )
        });
        capture_metrics_json(&snap, budget.into_iter().chain(journal), &ft.report)
    })?;
    if let Some(path) = written {
        eprintln!(
            "metrics: {} packets in {:.1} ms of stage time across {} threads → {path}",
            snap.packets,
            snap.total_ns() as f64 / 1e6,
            snap.threads
        );
    }
    write_pooled(args, &ft.pooled)
}

/// `palu-cli shard --shard-index i --shards n …`: run one shard of a
/// federated capture — the simulate engine over the shard's window
/// range, journaling under the full capture's identity so the shard
/// journals merge back into a single-process-identical pool.
fn cmd_shard(args: &ParsedArgs) -> Result<(), CliError> {
    use palu_traffic::federation::ShardPlan;
    use palu_traffic::metrics::Metrics;

    let sc = SimCapture::parse(args)?;
    let shards = args.u64_or("shards", 1)?;
    let shard = args.u64_or("shard-index", 0)?;
    let plan = ShardPlan::new(sc.n_windows as u64, shards).map_err(|e| federation_error(&e))?;
    let range = plan.shard_range(shard).ok_or_else(|| {
        CliError::usage(format!("--shard-index {shard} outside --shards {shards}"))
    })?;
    let local = usize_opt(range.window_count(), "shards")?;
    let threads = sc.threads(args, local)?;
    let journal_path = args.require("journal").map_err(|_| {
        CliError::usage("shard requires --journal <path> (the merge consumes shard journals)")
    })?;
    let resume = args.options.contains_key("resume");
    let (journal, recovery) = open_journal(journal_path, sc.header(), resume, local)?;
    let mut obs = sc.observatory()?;
    eprintln!(
        "shard {shard}/{shards} up: windows [{}, {}) of {} × {} packets on {threads} threads",
        range.lo, range.hi, sc.n_windows, sc.n_v
    );
    let metrics = Metrics::new();
    obs.seek(range.lo);
    let ft = sc
        .capture(
            &mut obs,
            local,
            threads,
            Some(&metrics),
            Some(&journal),
            recovery.as_ref(),
        )
        .map_err(|e| pipeline_error(&e))?;
    if !ft.report.is_clean() {
        eprintln!(
            "shard fault report: {} injected, {} retries, {} quarantined \
             ({} of {} windows survive)",
            ft.report.injected,
            ft.report.retries,
            ft.report.quarantined,
            ft.report.survivors,
            ft.report.windows
        );
    }
    write_metrics(args, || {
        use crate::json::JsonValue;
        let section = JsonValue::obj([
            ("index", JsonValue::UInt(shard)),
            ("shards", JsonValue::UInt(shards)),
            ("lo", JsonValue::UInt(range.lo)),
            ("hi", JsonValue::UInt(range.hi)),
            ("bytes_appended", JsonValue::UInt(journal.appended_bytes())),
        ]);
        capture_metrics_json(&metrics.snapshot(), [("shard", section)], &ft.report)
    })?;
    eprintln!(
        "shard {shard} complete: {} windows journaled to {journal_path}",
        ft.report.survivors + ft.report.quarantined + ft.report.substituted
    );
    write_pooled(args, &ft.pooled)
}

/// Serialize a [`palu_traffic::FederationReport`] as a JSON object:
/// coverage arithmetic, per-shard accounting rows, and the typed
/// shard-fault list (all in shard order, so the document is
/// deterministic).
pub fn federation_json(report: &palu_traffic::FederationReport) -> crate::json::JsonValue {
    use crate::json::JsonValue;
    let shards = JsonValue::Array(
        report
            .shards
            .iter()
            .map(|s| {
                JsonValue::obj([
                    ("shard", JsonValue::UInt(s.shard)),
                    ("lo", JsonValue::UInt(s.lo)),
                    ("hi", JsonValue::UInt(s.hi)),
                    ("journaled", JsonValue::UInt(s.journaled)),
                    ("accepted", JsonValue::UInt(s.accepted)),
                    ("survivors", JsonValue::UInt(s.survivors)),
                    ("quarantined", JsonValue::UInt(s.quarantined)),
                    ("injected", JsonValue::UInt(s.injected)),
                    ("retries", JsonValue::UInt(s.retries)),
                    ("stalled", JsonValue::UInt(s.stalled)),
                    ("missing", JsonValue::UInt(s.missing)),
                    (
                        "torn_records_dropped",
                        JsonValue::UInt(s.torn_records_dropped),
                    ),
                    ("torn_bytes_dropped", JsonValue::UInt(s.torn_bytes_dropped)),
                    ("quarantined_shard", JsonValue::Bool(s.quarantined_shard)),
                ])
            })
            .collect(),
    );
    let faults = JsonValue::Array(
        report
            .faults
            .iter()
            .map(|f| {
                JsonValue::obj([
                    ("shard", JsonValue::UInt(f.shard())),
                    ("kind", JsonValue::Str(f.name().to_string())),
                    ("detail", JsonValue::Str(f.to_string())),
                ])
            })
            .collect(),
    );
    let torn_records: u64 = report.shards.iter().map(|s| s.torn_records_dropped).sum();
    let torn_bytes: u64 = report.shards.iter().map(|s| s.torn_bytes_dropped).sum();
    JsonValue::obj([
        ("windows", JsonValue::UInt(report.windows)),
        ("covered", JsonValue::UInt(report.covered)),
        ("missing", JsonValue::UInt(report.missing)),
        ("recaptured", JsonValue::UInt(report.recaptured)),
        ("survivors", JsonValue::UInt(report.survivors)),
        ("min_coverage", JsonValue::Float(report.min_coverage)),
        ("merge_levels", JsonValue::UInt(report.merge_levels)),
        (
            "duplicates_removed",
            JsonValue::UInt(report.duplicates_removed),
        ),
        ("torn_records_dropped", JsonValue::UInt(torn_records)),
        ("torn_bytes_dropped", JsonValue::UInt(torn_bytes)),
        ("shard_count", JsonValue::UInt(report.shards.len() as u64)),
        ("shards", shards),
        ("faults", faults),
    ])
}

/// `palu-cli pool --merge a.journal b.journal …`: hierarchical merge
/// of shard journals into one pooled series, with quarantine/coverage
/// semantics and optional deterministic re-capture of missing windows.
fn cmd_pool_merge(args: &ParsedArgs) -> Result<(), CliError> {
    use palu_traffic::federation::merge_shard_journals;
    use palu_traffic::metrics::Metrics;
    use palu_traffic::pipeline::Measurement;
    use std::path::PathBuf;

    let sc = SimCapture::parse(args)?;
    let paths: Vec<PathBuf> = args
        .list("merge")
        .unwrap_or_default()
        .into_iter()
        .map(PathBuf::from)
        .collect();
    if paths.is_empty() {
        return Err(CliError::usage(
            "--merge requires at least one journal path",
        ));
    }
    let min_coverage = min_coverage(args)?;
    let threads = sc.threads(args, sc.n_windows)?;
    let recapture = args.options.contains_key("recapture");
    let mut obs = if recapture {
        Some(sc.observatory()?)
    } else {
        None
    };
    let expect = sc.header();
    eprintln!(
        "merging {} shard journal(s) over {} windows (min coverage {min_coverage}{})",
        paths.len(),
        sc.n_windows,
        if recapture { ", re-capturing gaps" } else { "" }
    );
    let metrics = Metrics::new();
    let merged = merge_shard_journals(
        Measurement::UndirectedDegree,
        &expect,
        &paths,
        &sc.policy,
        min_coverage,
        threads,
        sc.injector.as_ref(),
        obs.as_mut(),
        Some(&metrics),
    )
    .map_err(|e| federation_error(&e))?;
    let fed = &merged.federation;
    eprintln!(
        "merge complete: {}/{} windows covered ({} recaptured, {} survivors) \
         across {} level(s); {} shard fault(s)",
        fed.covered,
        fed.windows,
        fed.recaptured,
        fed.survivors,
        fed.merge_levels,
        fed.faults.len()
    );
    for fault in &fed.faults {
        eprintln!("  shard fault [{}]: {fault}", fault.name());
    }
    write_metrics(args, || {
        capture_metrics_json(
            &metrics.snapshot(),
            [("federation", federation_json(fed))],
            &merged.pool.report,
        )
    })?;
    write_pooled(args, &merged.pool.pooled)
}

/// Serialize a [`palu_traffic::ServiceReport`] as a JSON object:
/// coverage and submission accounting, per-shard rows — including the
/// per-shard torn-tail drop counts from crash recovery — and the
/// typed service-fault rows.
pub fn service_json(report: &palu_traffic::ServiceReport) -> crate::json::JsonValue {
    use crate::json::JsonValue;
    let shards = JsonValue::Array(
        report
            .shard_rows
            .iter()
            .map(|s| {
                JsonValue::obj([
                    ("shard", JsonValue::UInt(s.shard)),
                    ("lo", JsonValue::UInt(s.lo)),
                    ("hi", JsonValue::UInt(s.hi)),
                    ("persisted", JsonValue::UInt(s.persisted)),
                    (
                        "torn_records_dropped",
                        JsonValue::UInt(s.torn_records_dropped),
                    ),
                    ("torn_bytes_dropped", JsonValue::UInt(s.torn_bytes_dropped)),
                ])
            })
            .collect(),
    );
    let faults = JsonValue::Array(
        report
            .faults
            .iter()
            .map(|f| {
                JsonValue::obj([
                    ("kind", JsonValue::Str(f.name.to_string())),
                    ("code", JsonValue::UInt(u64::from(f.code))),
                    ("detail", JsonValue::Str(f.detail.clone())),
                ])
            })
            .collect(),
    );
    JsonValue::obj([
        ("windows", JsonValue::UInt(report.windows)),
        ("covered", JsonValue::UInt(report.covered)),
        ("min_coverage", JsonValue::Float(report.min_coverage)),
        ("submissions", JsonValue::UInt(report.submissions)),
        ("frames_accepted", JsonValue::UInt(report.frames_accepted)),
        ("duplicates", JsonValue::UInt(report.duplicates)),
        ("rejected", JsonValue::UInt(report.rejected)),
        ("fits_served", JsonValue::UInt(report.fits_served)),
        (
            "torn_records_dropped",
            JsonValue::UInt(report.torn_records_dropped),
        ),
        (
            "torn_bytes_dropped",
            JsonValue::UInt(report.torn_bytes_dropped),
        ),
        ("shard_count", JsonValue::UInt(report.shards)),
        ("shards", shards),
        ("faults", faults),
    ])
}

/// The client retry knobs shared by `submit` and `fit --server`.
fn retry_policy(args: &ParsedArgs) -> Result<palu_traffic::RetryPolicy, CliError> {
    use std::time::Duration;
    Ok(palu_traffic::RetryPolicy {
        deadline: Duration::from_millis(args.u64_or("retry-deadline-ms", 30_000)?),
        backoff_base: Duration::from_millis(args.u64_or("backoff-base-ms", 20)?),
        backoff_cap: Duration::from_millis(args.u64_or("backoff-cap-ms", 500)?),
        io_timeout: Duration::from_millis(args.u64_or("io-timeout-ms", 5_000)?),
        seed: args.u64_or("seed", 1)?,
    })
}

/// The listener behind `serve` and `dispatch`: a collector over the
/// shard journals under `--journal-dir` (recovering any already on
/// disk), wrapped by `bind` into a server on `--listen`, whose bound
/// address goes to `--addr-file` when given.
fn open_service<S>(
    args: &ParsedArgs,
    sc: &SimCapture,
    command: &str,
    bind: impl FnOnce(
        &str,
        palu_traffic::service::Collector,
    ) -> Result<(S, std::net::SocketAddr), palu_traffic::ServiceFault>,
) -> Result<(S, std::net::SocketAddr), CliError> {
    use palu_traffic::pipeline::Measurement;
    use palu_traffic::service::{Collector, ServiceConfig};
    use std::path::PathBuf;

    let shards = args.u64_or("shards", 1)?;
    let min_coverage = min_coverage(args)?;
    let journal_dir = args.require("journal-dir").map_err(|_| {
        CliError::usage(format!(
            "{command} requires --journal-dir <dir> (one journal per shard persists there)"
        ))
    })?;
    let config = ServiceConfig {
        measurement: Measurement::UndirectedDegree,
        expect: sc.header(),
        shards,
        min_coverage,
        journal_dir: PathBuf::from(journal_dir),
        read_timeout: std::time::Duration::from_millis(args.u64_or("read-timeout-ms", 5_000)?),
    };
    let collector = Collector::new(config).map_err(|e| service_fault_error(command, &e))?;
    let recovered = collector.report();
    if recovered.covered > 0 {
        eprintln!(
            "{command}: recovered {}/{} window(s) from {} shard journal(s) on disk \
             ({} torn record(s) dropped)",
            recovered.covered,
            recovered.windows,
            recovered.shard_rows.len(),
            recovered.torn_records_dropped
        );
    }
    let listen = args.get_or("listen", "127.0.0.1:0");
    let (server, addr) = bind(listen, collector).map_err(|e| service_fault_error(command, &e))?;
    if let Some(path) = args.options.get("addr-file").filter(|s| !s.is_empty()) {
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
    }
    Ok((server, addr))
}

/// `palu-cli serve`: the federation service daemon. Accepts shard
/// submissions over TCP, persists them through per-shard journals
/// under `--journal-dir` (so a SIGKILL'd server rebuilds coverage on
/// restart), and serves rolling merged fits until drained by
/// `submit --shutdown`.
fn cmd_serve(args: &ParsedArgs) -> Result<(), CliError> {
    use palu_traffic::service::Server;

    let sc = SimCapture::parse(args)?;
    let (server, addr) = open_service(args, &sc, "serve", |listen, collector| {
        let server = Server::bind(listen, collector)?;
        let addr = server.local_addr()?;
        Ok((server, addr))
    })?;
    let config = server.collector().config();
    eprintln!(
        "serve: listening on {addr} for {} shard(s) × {} windows (min coverage {})",
        config.shards, sc.n_windows, config.min_coverage
    );
    let report = server.run().map_err(|e| service_fault_error("serve", &e))?;
    eprintln!(
        "serve: drained after {} submission session(s): {}/{} windows covered, {} record(s) \
         accepted, {} duplicate(s), {} rejection(s), {} fit(s) served",
        report.submissions,
        report.covered,
        report.windows,
        report.frames_accepted,
        report.duplicates,
        report.rejected,
        report.fits_served
    );
    write_metrics(args, || {
        crate::json::JsonValue::obj([("service", service_json(&report))])
    })?;
    Ok(())
}

/// `palu-cli submit`: submit one shard journal to a federation
/// service with deadline + jittered-backoff retries and idempotent
/// resumption, or (with `--shutdown`) drain the service.
fn cmd_submit(args: &ParsedArgs) -> Result<(), CliError> {
    use palu_traffic::service::{request_shutdown, submit_journal};

    let server = args
        .require("server")
        .map_err(|_| CliError::usage("submit requires --server <addr>"))?
        .to_string();
    let retry = retry_policy(args)?;
    if args.options.contains_key("shutdown") {
        request_shutdown(&server, &retry)
            .map_err(|e| service_fault_error("submit --shutdown", &e))?;
        eprintln!("submit: server at {server} acknowledged shutdown");
        return Ok(());
    }
    let sc = SimCapture::parse(args)?;
    let journal = args
        .require("journal")
        .map_err(|_| CliError::usage("submit requires --journal <path> (the shard journal)"))?
        .to_string();
    let shards = args.u64_or("shards", 1)?;
    let shard = args.u64_or("shard-index", 0)?;
    let injector = wire_injector(args, sc.seed)?;
    let expect = sc.header();
    eprintln!("submit: shard {shard}/{shards} from {journal} to {server}");
    let outcome = submit_journal(
        &server,
        Path::new(&journal),
        shard,
        shards,
        &expect,
        &retry,
        &injector,
    )
    .map_err(|e| service_fault_error("submit", &e))?;
    eprintln!(
        "submit: shard {} done in {} attempt(s): {}/{} assigned windows persisted \
         server-side ({} recovered locally, {} already present{})",
        outcome.shard,
        outcome.attempts,
        outcome.accepted,
        outcome.assigned,
        outcome.recovered,
        outcome.already_present,
        if outcome.torn_records_dropped > 0 {
            format!(
                ", {} torn record(s) dropped recovering the local journal",
                outcome.torn_records_dropped
            )
        } else {
            String::new()
        }
    );
    Ok(())
}

/// Serialize a [`palu_traffic::DispatchReport`] as a JSON object:
/// lease counters, the typed supervision events in arrival order, and
/// the dispatcher's own fault report (kind codes 10–14) — kept
/// separate from the merged capture's report, which stays
/// bit-identical to a single-process run.
pub fn dispatch_json(report: &palu_traffic::DispatchReport) -> crate::json::JsonValue {
    use crate::json::JsonValue;
    let events = JsonValue::Array(
        report
            .events
            .iter()
            .map(|e| {
                JsonValue::obj([
                    ("kind", JsonValue::Str(e.kind().name().to_string())),
                    ("code", JsonValue::UInt(u64::from(e.kind().code()))),
                    ("detail", JsonValue::Str(e.to_string())),
                ])
            })
            .collect(),
    );
    JsonValue::obj([
        ("shards", JsonValue::UInt(report.shards)),
        ("windows", JsonValue::UInt(report.windows)),
        ("shards_done", JsonValue::UInt(report.shards_done)),
        ("leases_granted", JsonValue::UInt(report.leases_granted)),
        ("leases_expired", JsonValue::UInt(report.leases_expired)),
        ("leases_fenced", JsonValue::UInt(report.leases_fenced)),
        (
            "leases_redispatched",
            JsonValue::UInt(report.leases_redispatched),
        ),
        ("heartbeats", JsonValue::UInt(report.heartbeats)),
        ("stalled", JsonValue::Bool(report.stalled)),
        ("events", events),
        ("faults", fault_report_json(&report.faults)),
    ])
}

/// `palu-cli dispatch`: the lease-based federation dispatcher. Wraps
/// the `serve` collector behind one listener, hands out window-range
/// leases to `work` clients, re-dispatches expired leases, and fences
/// zombies. A SIGKILL'd dispatcher restarted over the same
/// `--journal-dir` re-derives completion from the shard journals and
/// re-dispatches only what is genuinely incomplete.
fn cmd_dispatch(args: &ParsedArgs) -> Result<(), CliError> {
    use palu_traffic::{DispatchConfig, DispatchServer, Dispatcher};
    use std::time::Duration;

    let sc = SimCapture::parse(args)?;
    let lease_ms = args.u64_or("lease-ms", 10_000)?;
    let heartbeat_ms = args.u64_or("heartbeat-ms", lease_ms / 4)?;
    if lease_ms == 0 || heartbeat_ms == 0 {
        return Err(CliError::usage(
            "--lease-ms and --heartbeat-ms must be positive",
        ));
    }
    let stall = match args.options.get("stall-ms") {
        None => None,
        Some(_) => {
            let ms = args.u64_or("stall-ms", 0)?;
            if ms == 0 {
                return Err(CliError::usage(
                    "--stall-ms must be a positive number of milliseconds",
                ));
            }
            Some(Duration::from_millis(ms))
        }
    };
    let dconfig = DispatchConfig {
        lease: Duration::from_millis(lease_ms),
        heartbeat: Duration::from_millis(heartbeat_ms),
        linger: args.options.contains_key("linger"),
        stall,
    };
    let (server, addr) = open_service(args, &sc, "dispatch", |listen, collector| {
        let server = DispatchServer::bind(listen, Dispatcher::new(collector, dconfig)?)?;
        let addr = server.local_addr()?;
        Ok((server, addr))
    })?;
    eprintln!(
        "dispatch: listening on {addr}, leasing {} shard(s) × {} windows \
         (lease {lease_ms} ms, heartbeat {heartbeat_ms} ms)",
        server.dispatcher().collector().config().shards,
        sc.n_windows
    );
    // Keep a handle on the wrapped collector (the server consumes
    // itself in run()) so the metrics file can include the service
    // section alongside the dispatch section.
    let dispatcher = server.dispatcher().clone();
    let report = server
        .run()
        .map_err(|e| service_fault_error("dispatch", &e))?;
    eprintln!(
        "dispatch: {}/{} shard(s) done — {} lease(s) granted, {} expired, {} re-dispatched, \
         {} fenced refusal(s), {} heartbeat(s){}",
        report.shards_done,
        report.shards,
        report.leases_granted,
        report.leases_expired,
        report.leases_redispatched,
        report.leases_fenced,
        report.heartbeats,
        if report.stalled { " — STALLED" } else { "" }
    );
    for event in &report.events {
        eprintln!("dispatch: event: {event}");
    }
    write_metrics(args, || {
        crate::json::JsonValue::obj([
            ("dispatch", dispatch_json(&report)),
            ("service", service_json(&dispatcher.collector().report())),
        ])
    })?;
    if report.stalled {
        return Err(CliError::runtime(format!(
            "dispatch: stalled at {}/{} shard(s) with no live lease",
            report.shards_done, report.shards
        )));
    }
    Ok(())
}

/// `palu-cli work`: a dispatcher worker. Requests leases, captures
/// each granted window range into a local journal, submits it through
/// the idempotent `submit` path, and heartbeats on a jittered
/// interval so the lease stays live. `--resume-lease` instead wakes
/// up as a zombie holding the lease state a previous (killed)
/// incarnation persisted — the expected outcome is the typed fenced
/// refusal (exit 9) with coverage untouched.
fn cmd_work(args: &ParsedArgs) -> Result<(), CliError> {
    use palu_traffic::{
        resume_zombie, run_worker, FederationError, ServiceFault, WorkPhase, WorkerConfig,
    };
    use std::path::PathBuf;
    use std::time::Duration;

    let server = args
        .require("server")
        .map_err(|_| CliError::usage("work requires --server <addr> (the dispatcher)"))?
        .to_string();
    let worker = args.u64_or("worker", 0)?;
    let work_dir = args
        .require("work-dir")
        .map_err(|_| {
            CliError::usage("work requires --work-dir <dir> (local journals + lease state)")
        })?
        .to_string();
    let retry = retry_policy(args)?;
    let sc = SimCapture::parse(args)?;
    let injector = wire_injector(args, sc.seed)?;
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| CliError::runtime(format!("{work_dir}: {e}")))?;
    let cfg = WorkerConfig {
        addr: server,
        worker,
        journal_dir: PathBuf::from(&work_dir),
        expect: sc.header(),
        retry,
        poll: Duration::from_millis(args.u64_or("poll-ms", 50)?),
    };
    // The zombie-resume state file: written at each grant, removed on
    // a clean exit, so only a killed worker leaves one behind.
    let lease_state = PathBuf::from(&work_dir).join(format!("worker-{worker}.lease"));
    if args.options.contains_key("resume-lease") {
        let state = std::fs::read_to_string(&lease_state)
            .map_err(|e| CliError::usage(format!("{}: {e}", lease_state.display())))?;
        let mut fields = state.split_whitespace().map(str::parse::<u64>);
        let (shard, fence, shards) = match (fields.next(), fields.next(), fields.next()) {
            (Some(Ok(shard)), Some(Ok(fence)), Some(Ok(shards))) => (shard, fence, shards),
            _ => {
                return Err(CliError::usage(format!(
                    "{}: expected `shard fence shards`, got {state:?}",
                    lease_state.display()
                )))
            }
        };
        eprintln!(
            "work: zombie worker {worker} waking up on shard {shard}/{shards} with fence {fence}"
        );
        let outcome = resume_zombie(&cfg, &injector, shard, shards, fence)
            .map_err(|e| service_fault_error("work", &e))?;
        eprintln!(
            "work: zombie resubmitted {} window record(s) (byte-idempotent server-side); \
             fenced: {}",
            outcome.resubmitted, outcome.fenced
        );
        if outcome.fenced {
            return Err(service_fault_error(
                "work --resume-lease",
                &ServiceFault::LeaseFenced {
                    worker,
                    shard,
                    fence,
                },
            ));
        }
        return Ok(());
    }
    let chaos = match args.options.get("chaos-kill").map(String::as_str) {
        None => None,
        Some("pre-lease") => Some(WorkPhase::PreLease),
        Some("mid-capture") => Some(WorkPhase::MidCapture),
        Some("pre-submit") => Some(WorkPhase::PreSubmit),
        Some(other) => {
            return Err(CliError::usage(format!(
                "--chaos-kill must be pre-lease, mid-capture, or pre-submit, got {other:?}"
            )))
        }
    };
    let threads = sc.threads(args, sc.n_windows)?;
    let mut obs = sc.observatory()?;
    let report = run_worker(
        &cfg,
        &injector,
        chaos,
        |ticket, journal, limit| {
            obs.seek(ticket.lo);
            let n = usize::try_from(limit.unwrap_or(ticket.hi - ticket.lo)).map_err(|_| {
                FederationError::BadPlan {
                    windows: ticket.windows,
                    shards: ticket.shards,
                }
            })?;
            sc.capture(&mut obs, n, threads, None, Some(journal), None)
                .map(|_| ())
                .map_err(FederationError::Pipeline)
        },
        |ticket| {
            let _ = std::fs::write(
                &lease_state,
                format!("{} {} {}\n", ticket.shard, ticket.fence, ticket.shards),
            );
            eprintln!(
                "work: worker {} leased shard {}/{} — windows [{}, {}), fence {} \
                 (lease {} ms, heartbeat {} ms)",
                ticket.worker,
                ticket.shard,
                ticket.shards,
                ticket.lo,
                ticket.hi,
                ticket.fence,
                ticket.lease_ms,
                ticket.heartbeat_ms
            );
        },
    )
    .map_err(|e| service_fault_error("work", &e))?;
    eprintln!(
        "work: worker {} served {} lease(s): {} shard(s) completed{}, {} fenced refusal(s)",
        report.worker,
        report.leases,
        report.completed.len(),
        if report.completed.is_empty() {
            String::new()
        } else {
            format!(
                " ({})",
                report
                    .completed
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        },
        report.fenced
    );
    match report.killed {
        Some(phase) => eprintln!("work: chaos kill at {phase:?} — lease state left on disk"),
        None => {
            let _ = std::fs::remove_file(&lease_state);
        }
    }
    Ok(())
}

/// `fit --server`: query the federation service's rolling merged fit
/// and render it in the canonical pooled format. Rows cross the wire
/// as raw IEEE-754 bits, so at full coverage the output is
/// byte-identical to single-process `simulate`. A partial snapshot
/// refuses with the coverage exit code unless `--allow-partial`.
fn cmd_fit_server(args: &ParsedArgs) -> Result<(), CliError> {
    use palu_traffic::service::query_fit;

    let server = args.require("server")?.to_string();
    let retry = retry_policy(args)?;
    let snap = query_fit(&server, &retry).map_err(|e| service_fault_error("fit", &e))?;
    eprintln!(
        "fit: {}/{} windows covered (min coverage {}), {} survivor(s), {} quarantined",
        snap.covered, snap.windows, snap.min_coverage, snap.survivors, snap.quarantined
    );
    if let Some(fault) = snap.partial_fault() {
        if !args.options.contains_key("allow-partial") {
            return Err(service_fault_error("fit", &fault));
        }
        eprintln!("fit: WARNING serving a partial pool ({fault})");
    }
    write_metrics(args, || {
        use crate::json::JsonValue;
        let shard_torn = JsonValue::Array(
            snap.shard_torn
                .iter()
                .map(|row| {
                    JsonValue::obj([
                        ("shard", JsonValue::UInt(row.shard)),
                        (
                            "torn_records_dropped",
                            JsonValue::UInt(row.torn_records_dropped),
                        ),
                        (
                            "torn_bytes_dropped",
                            JsonValue::UInt(row.torn_bytes_dropped),
                        ),
                    ])
                })
                .collect(),
        );
        JsonValue::obj([(
            "fit",
            JsonValue::obj([
                ("windows", JsonValue::UInt(snap.windows)),
                ("covered", JsonValue::UInt(snap.covered)),
                ("min_coverage", JsonValue::Float(snap.min_coverage)),
                ("partial", JsonValue::Bool(snap.partial)),
                ("survivors", JsonValue::UInt(snap.survivors)),
                ("quarantined", JsonValue::UInt(snap.quarantined)),
                ("pooled_windows", JsonValue::UInt(snap.pooled_windows)),
                ("shard_torn", shard_torn),
            ]),
        )])
    })?;
    with_output(args, |w| {
        (|| -> std::io::Result<()> {
            writeln!(
                w,
                "# pooled D(d_i) ± σ over {} windows of the undirected degree",
                snap.pooled_windows
            )?;
            writeln!(w, "# columns: d_i D sigma")?;
            for row in &snap.rows {
                let v = f64::from_bits(row.mean_bits);
                let s = f64::from_bits(row.sigma_bits);
                writeln!(w, "{} {v:.8e} {s:.8e}", row.degree)?;
            }
            Ok(())
        })()
        .map_err(|e| CliError::runtime(e.to_string()))
    })
}

fn cmd_gof(args: &ParsedArgs) -> Result<(), CliError> {
    use palu_stats::mle::{fit_csn_with_restarts, goodness_of_fit, CsnOptions};
    use palu_stats::model_select::{fit_lognormal_tail, vuong_test, ModelVerdict};
    use palu_stats::restart::RestartPolicy;

    let input = args.require("in")?.to_string();
    let h = io::read_histogram_path(Path::new(&input)).map_err(CliError::usage)?;
    let n_boot = usize_opt(args.u64_or("boot", 50)?, "boot")?;
    let seed = args.u64_or("seed", 1)?;

    with_output(args, |w| {
        let mut run = || -> Result<(), String> {
            let opts = CsnOptions::default();
            let laddered = fit_csn_with_restarts(&h, &opts, &RestartPolicy::default())
                .map_err(|e| e.to_string())?;
            let fit = laddered.value;
            writeln!(
                w,
                "csn fit: alpha = {:.4}, x_min = {}, KS = {:.5} (n_tail = {}, {} rung)",
                fit.alpha,
                fit.x_min,
                fit.ks,
                fit.n_tail,
                laddered.rung.name()
            )
            .map_err(|e| e.to_string())?;
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let gof = goodness_of_fit(&h, &opts, n_boot, &mut rng).map_err(|e| e.to_string())?;
            writeln!(
                w,
                "goodness of fit: p = {:.3} over {} replicates ({})",
                gof.p_value,
                gof.replicate_ks.len(),
                if gof.p_value > 0.1 {
                    "power law plausible"
                } else {
                    "power law RULED OUT per CSN's p <= 0.1 rule"
                }
            )
            .map_err(|e| e.to_string())?;
            match fit_lognormal_tail(&h, fit.x_min) {
                Ok(ln) => {
                    let v = vuong_test(&h, &fit, &ln, 0.05).map_err(|e| e.to_string())?;
                    writeln!(
                        w,
                        "vuong test vs lognormal (x_min = {}): z = {:.2}, p = {:.3} -> {}",
                        fit.x_min,
                        v.z,
                        v.p_value,
                        match v.verdict {
                            ModelVerdict::PowerLaw => "power law preferred",
                            ModelVerdict::LogNormal => "lognormal preferred",
                            ModelVerdict::Inconclusive => "inconclusive",
                        }
                    )
                    .map_err(|e| e.to_string())?;
                }
                Err(e) => {
                    writeln!(w, "vuong test: lognormal not fittable ({e})")
                        .map_err(|e| e.to_string())?;
                }
            }
            Ok(())
        };
        run().map_err(CliError::runtime)
    })
}

fn cmd_pool(args: &ParsedArgs) -> Result<(), CliError> {
    use palu_traffic::pipeline::{Measurement, Pipeline};
    use palu_traffic::stream::WindowStream;

    if args.options.contains_key("merge") {
        return cmd_pool_merge(args);
    }
    let input = args.require("in")?.to_string();
    let n_v = usize_opt(args.u64_or("nv", 100_000)?, "nv")?;
    if n_v == 0 {
        return Err(CliError::usage("--nv must be positive"));
    }
    let file = std::fs::File::open(&input).map_err(|e| CliError::usage(format!("{input}: {e}")))?;
    // Streaming parse: surface the first malformed line as an error,
    // keep constant memory otherwise.
    let mut parse_error: Option<String> = None;
    let mut pipeline = Pipeline::new(Measurement::UndirectedDegree);
    {
        let err_slot = &mut parse_error;
        let packets = io::packet_stream(file).map_while(|item| match item {
            Ok(p) => Some(p),
            Err(e) => {
                *err_slot = Some(e);
                None
            }
        });
        for window in WindowStream::new(packets, n_v) {
            pipeline.push_window(&window);
        }
    }
    if let Some(e) = parse_error {
        return Err(CliError::usage(format!("{input}: {e}")));
    }
    if pipeline.windows() == 0 {
        return Err(CliError::usage(format!(
            "{input}: fewer than {n_v} packets — no complete window"
        )));
    }
    let pooled = pipeline.finish();
    eprintln!("pooled {} windows of {n_v} packets", pooled.windows);
    with_output(args, |w| {
        (|| -> std::io::Result<()> {
            writeln!(
                w,
                "# pooled undirected-degree D(d_i) ± σ over {} windows (N_V = {n_v})",
                pooled.windows
            )?;
            writeln!(w, "# columns: d_i D sigma")?;
            for ((d_i, v), s) in pooled.mean.iter().zip(pooled.sigma.iter()) {
                writeln!(w, "{d_i} {v:.8e} {s:.8e}")?;
            }
            Ok(())
        })()
        .map_err(|e| CliError::runtime(e.to_string()))
    })
}

/// Dispatch a parsed command line.
pub fn run(args: &ParsedArgs) -> Result<(), CliError> {
    match args.command.as_str() {
        "generate" => cmd_generate(args),
        "observe" => cmd_observe(args),
        "degrees" => cmd_degrees(args),
        "fit" => cmd_fit(args),
        "census" => cmd_census(args),
        "simulate" => cmd_simulate(args),
        "shard" => cmd_shard(args),
        "gof" => cmd_gof(args),
        "pool" => cmd_pool(args),
        "serve" => cmd_serve(args),
        "submit" => cmd_submit(args),
        "dispatch" => cmd_dispatch(args),
        "work" => cmd_work(args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown command {other:?} (try `palu-cli help`)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    fn parse(tokens: &[&str]) -> ParsedArgs {
        parse_args(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("palu-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run(&parse(&["help"])).is_ok());
        let e = run(&parse(&["frobnicate"])).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("frobnicate"));
    }

    #[test]
    fn full_pipeline_generate_observe_degrees_fit() {
        let net = tmp("net.txt");
        let obs = tmp("obs.txt");
        let deg = tmp("deg.txt");
        let report = tmp("report.txt");

        run(&parse(&[
            "generate",
            "--nodes",
            "120000",
            "--core",
            "0.5",
            "--leaves",
            "0.2",
            "--lambda",
            "3.0",
            "--alpha",
            "2.0",
            "--seed",
            "7",
            "--out",
            net.to_str().unwrap(),
        ]))
        .unwrap();
        run(&parse(&[
            "observe",
            "--in",
            net.to_str().unwrap(),
            "--p",
            "0.5",
            "--seed",
            "8",
            "--out",
            obs.to_str().unwrap(),
        ]))
        .unwrap();
        run(&parse(&[
            "degrees",
            "--in",
            obs.to_str().unwrap(),
            "--out",
            deg.to_str().unwrap(),
        ]))
        .unwrap();
        run(&parse(&[
            "fit",
            "--in",
            deg.to_str().unwrap(),
            "--p",
            "0.5",
            "--out",
            report.to_str().unwrap(),
        ]))
        .unwrap();

        let report_text = std::fs::read_to_string(&report).unwrap();
        assert!(report_text.contains("zipf-mandelbrot"), "{report_text}");
        assert!(report_text.contains("csn power law"));
        assert!(report_text.contains("palu underlying"));
        // Recovered λ in the report should be near 3.
        let lambda_line = report_text
            .lines()
            .find(|l| l.starts_with("palu underlying"))
            .unwrap();
        let lambda: f64 = lambda_line
            .split("lambda = ")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!((lambda - 3.0).abs() < 1.5, "recovered λ {lambda}");
    }

    #[test]
    fn census_on_generated_network() {
        let net = tmp("census_net.txt");
        let out = tmp("census_out.txt");
        run(&parse(&[
            "generate",
            "--nodes",
            "10000",
            "--core",
            "0.4",
            "--leaves",
            "0.2",
            "--lambda",
            "2.0",
            "--alpha",
            "2.0",
            "--seed",
            "3",
            "--out",
            net.to_str().unwrap(),
        ]))
        .unwrap();
        run(&parse(&[
            "census",
            "--in",
            net.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains("unattached links"));
        assert!(text.contains("global clustering"));
    }

    #[test]
    fn observe_validates_p() {
        let net = tmp("p_net.txt");
        std::fs::write(&net, "0 1\n1 2\n").unwrap();
        let e = run(&parse(&[
            "observe",
            "--in",
            net.to_str().unwrap(),
            "--p",
            "1.5",
        ]))
        .unwrap_err();
        assert!(e.message.contains("[0,1]"));
    }

    #[test]
    fn fit_errors_on_missing_and_empty_files() {
        let e = run(&parse(&["fit", "--in", "/nonexistent/x.txt"])).unwrap_err();
        assert_eq!(e.code, 2);
        let empty = tmp("empty_hist.txt");
        std::fs::write(&empty, "# nothing\n").unwrap();
        let e = run(&parse(&["fit", "--in", empty.to_str().unwrap()])).unwrap_err();
        assert!(e.message.contains("empty"));
    }

    #[test]
    fn simulate_produces_pooled_series() {
        let out = tmp("sim_out.txt");
        run(&parse(&[
            "simulate",
            "--core",
            "0.5",
            "--leaves",
            "0.2",
            "--lambda",
            "2.0",
            "--alpha",
            "2.0",
            "--nodes",
            "20000",
            "--nv",
            "20000",
            "--windows",
            "4",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains("pooled D(d_i)"));
        // Data lines: d_i D sigma, with D summing to ≈ 1.
        let total: f64 = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| l.split_whitespace().nth(1).unwrap().parse::<f64>().unwrap())
            .sum();
        assert!((total - 1.0).abs() < 1e-6, "pooled mass {total}");
    }

    #[test]
    fn simulate_is_thread_count_invariant_and_writes_metrics() {
        let base = [
            "simulate",
            "--core",
            "0.5",
            "--leaves",
            "0.2",
            "--lambda",
            "2.0",
            "--alpha",
            "2.0",
            "--nodes",
            "20000",
            "--nv",
            "10000",
            "--windows",
            "5",
            "--seed",
            "9",
        ];
        let mut outputs = Vec::new();
        for threads in ["1", "2", "8"] {
            let out = tmp(&format!("sim_t{threads}.txt"));
            let metrics = tmp(&format!("sim_t{threads}_metrics.json"));
            let mut argv: Vec<&str> = base.to_vec();
            let out_s = out.to_str().unwrap().to_string();
            let metrics_s = metrics.to_str().unwrap().to_string();
            argv.extend([
                "--threads",
                threads,
                "--out",
                &out_s,
                "--metrics",
                &metrics_s,
            ]);
            run(&parse(&argv)).unwrap();
            outputs.push(std::fs::read_to_string(&out).unwrap());
            let m = std::fs::read_to_string(&metrics).unwrap();
            assert!(m.contains("\"synthesize\""), "{m}");
            // Workers spawned: clamped to the 5-window workload and
            // to the host's effective parallelism (floor 2).
            let cores = std::thread::available_parallelism().map_or(2, |p| p.get().max(2));
            let expected = threads.parse::<u64>().unwrap().min(5).min(cores as u64);
            assert!(m.contains(&format!("\"threads\": {expected}")), "{m}");
            assert!(m.contains("\"windows\": 5"), "{m}");
        }
        // Bit-identical pooled series for every thread count.
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
    }

    #[test]
    fn simulate_rejects_zero_windows_and_bad_fault_flags() {
        let base = [
            "simulate", "--core", "0.5", "--leaves", "0.2", "--lambda", "2.0", "--alpha", "2.0",
            "--nodes", "20000", "--nv", "10000",
        ];
        let mut argv = base.to_vec();
        argv.extend(["--windows", "0"]);
        let e = run(&parse(&argv)).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("--windows"), "{}", e.message);

        let mut argv = base.to_vec();
        argv.extend(["--windows", "2", "--fail-policy", "bogus"]);
        let e = run(&parse(&argv)).unwrap_err();
        assert!(e.message.contains("fail-policy"), "{}", e.message);

        let mut argv = base.to_vec();
        argv.extend(["--windows", "2", "--inject-faults", "truncate=2.0"]);
        let e = run(&parse(&argv)).unwrap_err();
        assert!(e.message.contains("inject-faults"), "{}", e.message);

        let mut argv = base.to_vec();
        argv.extend(["--windows", "2", "--quarantine-threshold", "1.5"]);
        let e = run(&parse(&argv)).unwrap_err();
        assert!(e.message.contains("quarantine-threshold"), "{}", e.message);

        let mut argv = base.to_vec();
        argv.extend(["--windows", "2", "--window-deadline-ms", "0"]);
        let e = run(&parse(&argv)).unwrap_err();
        assert!(e.message.contains("window-deadline-ms"), "{}", e.message);

        let mut argv = base.to_vec();
        argv.extend(["--windows", "2", "--resume"]);
        let e = run(&parse(&argv)).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("--journal"), "{}", e.message);
    }

    /// First integer value after `"key": ` in a pretty-printed JSON
    /// document (enough for the flat metrics counters the tests pin).
    fn json_u64(doc: &str, key: &str) -> u64 {
        let pat = format!("\"{key}\": ");
        let i = doc
            .find(&pat)
            .unwrap_or_else(|| panic!("{key} not in {doc}"))
            + pat.len();
        doc[i..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap()
    }

    #[test]
    fn parse_bytes_accepts_suffixes_and_rejects_garbage() {
        assert_eq!(parse_bytes("1024").unwrap(), 1024);
        assert_eq!(parse_bytes("64k").unwrap(), 64 << 10);
        assert_eq!(parse_bytes("64K").unwrap(), 64 << 10);
        assert_eq!(parse_bytes("2M").unwrap(), 2 << 20);
        assert_eq!(parse_bytes("1G").unwrap(), 1 << 30);
        assert!(parse_bytes("").is_err());
        assert!(parse_bytes("abc").is_err());
        assert!(parse_bytes("1.5G").is_err());
        assert!(parse_bytes("99999999999999999999G").is_err());
        assert!(parse_bytes("999999999999G").is_err(), "must catch overflow");
    }

    #[test]
    fn simulate_budget_flags_are_validated() {
        let base = [
            "simulate",
            "--core",
            "0.5",
            "--leaves",
            "0.2",
            "--lambda",
            "2.0",
            "--alpha",
            "2.0",
            "--nodes",
            "20000",
            "--nv",
            "10000",
            "--windows",
            "2",
        ];
        let mut argv = base.to_vec();
        argv.extend(["--memory-budget", "twelve"]);
        let e = run(&parse(&argv)).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("memory-budget"), "{}", e.message);

        let mut argv = base.to_vec();
        argv.push("--admission");
        let e = run(&parse(&argv)).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("--memory-budget"), "{}", e.message);
    }

    #[test]
    fn simulate_infeasible_budget_is_refused_at_admission() {
        let mut argv = journal_base();
        argv.extend(["--memory-budget", "4096"]);
        let e = run(&parse(&argv)).unwrap_err();
        assert_eq!(e.code, exit::ADMISSION_REFUSED, "{}", e.message);
        assert!(e.message.contains("admission refused"), "{}", e.message);
    }

    #[test]
    fn simulate_memory_budget_preserves_pooled_output() {
        use palu_traffic::budget::CostModel;
        use palu_traffic::observatory::{Observatory, ObservatoryConfig};
        use palu_traffic::packets::EdgeIntensity;

        // Baseline: the journal_base workload with no budget.
        let out_plain = tmp("sim_budget_plain.txt");
        let plain_s = out_plain.to_str().unwrap().to_string();
        let mut argv = journal_base();
        argv.extend(["--threads", "4", "--out", &plain_s]);
        run(&parse(&argv)).unwrap();
        let plain = std::fs::read_to_string(&out_plain).unwrap();

        // Ample budget: byte-identical output, a budget object in the
        // metrics document, zero degradations, a nonzero admission
        // estimate covering the recorded peak.
        let out_ample = tmp("sim_budget_ample.txt");
        let metrics_ample = tmp("sim_budget_ample_metrics.json");
        let ample_s = out_ample.to_str().unwrap().to_string();
        let metrics_ample_s = metrics_ample.to_str().unwrap().to_string();
        let mut argv = journal_base();
        argv.extend([
            "--threads",
            "4",
            "--memory-budget",
            "1G",
            "--metrics",
            &metrics_ample_s,
            "--out",
            &ample_s,
        ]);
        run(&parse(&argv)).unwrap();
        assert_eq!(plain, std::fs::read_to_string(&out_ample).unwrap());
        let m = std::fs::read_to_string(&metrics_ample).unwrap();
        assert!(m.contains("\"budget\""), "{m}");
        assert_eq!(json_u64(&m, "limit"), 1 << 30);
        assert_eq!(json_u64(&m, "degradations"), 0, "{m}");
        let estimate = json_u64(&m, "admission_estimate_bytes");
        let peak = json_u64(&m, "peak_accounted_bytes");
        assert!(estimate > 0 && peak > 0, "{m}");
        assert!(estimate >= peak, "estimate {estimate} < peak {peak}");

        // Tight budget (floor + one window of transient headroom, from
        // the same cost model the pipeline consults): the capture must
        // degrade, record the rungs, and still produce identical bytes.
        let params = PaluParams::from_core_leaf_fractions(0.5, 0.2, 2.0, 2.0, 0.5).unwrap();
        let gen = params.generator(20_000).unwrap();
        let obs = Observatory::new(
            ObservatoryConfig {
                name: "cli".into(),
                date: String::new(),
                n_v: 10_000,
            },
            &gen,
            EdgeIntensity::Uniform,
            9,
        );
        let model = CostModel {
            n_v: 10_000,
            n_nodes: obs.underlying().n_nodes() as u64,
            windows: 6,
            threads: 4,
        };
        let limit = (model.floor_bytes() + model.window_bytes()).to_string();
        let out_tight = tmp("sim_budget_tight.txt");
        let metrics_tight = tmp("sim_budget_tight_metrics.json");
        let tight_s = out_tight.to_str().unwrap().to_string();
        let metrics_tight_s = metrics_tight.to_str().unwrap().to_string();
        let mut argv = journal_base();
        argv.extend([
            "--threads",
            "4",
            "--memory-budget",
            &limit,
            "--metrics",
            &metrics_tight_s,
            "--out",
            &tight_s,
        ]);
        run(&parse(&argv)).unwrap();
        assert_eq!(plain, std::fs::read_to_string(&out_tight).unwrap());
        let m = std::fs::read_to_string(&metrics_tight).unwrap();
        assert!(json_u64(&m, "degradations") > 0, "{m}");
        // The typed events also land in the fault report.
        assert!(m.contains("\"rung\""), "{m}");
    }

    /// Shared base argv for the journal tests: a small but non-trivial
    /// capture.
    fn journal_base() -> Vec<&'static str> {
        vec![
            "simulate",
            "--core",
            "0.5",
            "--leaves",
            "0.2",
            "--lambda",
            "2.0",
            "--alpha",
            "2.0",
            "--nodes",
            "20000",
            "--nv",
            "10000",
            "--windows",
            "6",
            "--seed",
            "9",
        ]
    }

    #[test]
    fn simulate_journal_resume_is_bit_identical() {
        let journal = tmp("sim_journal.journal");
        let _ = std::fs::remove_file(&journal);
        let journal_s = journal.to_str().unwrap().to_string();
        // Uninterrupted durable capture.
        let out_a = tmp("sim_journal_a.txt");
        let metrics_a = tmp("sim_journal_a_metrics.json");
        let mut argv = journal_base();
        let out_a_s = out_a.to_str().unwrap().to_string();
        let metrics_a_s = metrics_a.to_str().unwrap().to_string();
        argv.extend([
            "--journal",
            &journal_s,
            "--out",
            &out_a_s,
            "--metrics",
            &metrics_a_s,
        ]);
        run(&parse(&argv)).unwrap();
        // Simulate a kill: chop the journal mid-record, then resume at
        // a different thread count.
        let bytes = std::fs::read(&journal).unwrap();
        std::fs::write(&journal, &bytes[..bytes.len() / 2]).unwrap();
        let out_b = tmp("sim_journal_b.txt");
        let metrics_b = tmp("sim_journal_b_metrics.json");
        let mut argv = journal_base();
        let out_b_s = out_b.to_str().unwrap().to_string();
        let metrics_b_s = metrics_b.to_str().unwrap().to_string();
        argv.extend([
            "--journal",
            &journal_s,
            "--resume",
            "--threads",
            "3",
            "--out",
            &out_b_s,
            "--metrics",
            &metrics_b_s,
        ]);
        run(&parse(&argv)).unwrap();
        assert_eq!(
            std::fs::read_to_string(&out_a).unwrap(),
            std::fs::read_to_string(&out_b).unwrap(),
            "resumed pooled series must be bit-identical"
        );
        let m = std::fs::read_to_string(&metrics_b).unwrap();
        assert!(m.contains("\"journal\""), "{m}");
        assert!(m.contains("\"windows_recovered\""), "{m}");
        let recovered: u64 = m
            .lines()
            .find(|l| l.contains("\"windows_recovered\""))
            .and_then(|l| l.split(':').nth(1))
            .map(|v| v.trim().trim_end_matches(',').parse().unwrap())
            .unwrap();
        assert!(recovered > 0 && recovered < 6, "recovered {recovered}\n{m}");
        // The fault-report section is identical across the two runs.
        let fault_section = |m: &str| {
            let at = m.find("\"fault_report\"").expect("fault report present");
            m[at..].to_string()
        };
        let m_a = std::fs::read_to_string(&metrics_a).unwrap();
        assert_eq!(fault_section(&m_a), fault_section(&m));
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn simulate_refuses_corrupt_and_mismatched_journals() {
        let journal = tmp("sim_journal_corrupt.journal");
        let _ = std::fs::remove_file(&journal);
        let journal_s = journal.to_str().unwrap().to_string();
        let mut argv = journal_base();
        argv.extend(["--journal", &journal_s]);
        run(&parse(&argv)).unwrap();
        // Resuming under a different seed is a typed refusal…
        let mut argv = journal_base();
        let pos = argv.iter().position(|a| *a == "--seed").unwrap();
        argv[pos + 1] = "10";
        argv.extend(["--journal", &journal_s, "--resume"]);
        let e = run(&parse(&argv)).unwrap_err();
        assert_eq!(e.code, exit::CONFIG_MISMATCH);
        assert!(e.message.contains("seed mismatch"), "{}", e.message);
        // …and so is a flipped payload byte (checksum, not torn tail).
        let mut bytes = std::fs::read(&journal).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&journal, &bytes).unwrap();
        let mut argv = journal_base();
        argv.extend(["--journal", &journal_s, "--resume"]);
        let e = run(&parse(&argv)).unwrap_err();
        assert_eq!(e.code, exit::JOURNAL_CORRUPT);
        assert!(
            e.message.contains("checksum") || e.message.contains("malformed"),
            "{}",
            e.message
        );
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn simulate_stall_watchdog_reports_stalled_windows() {
        let metrics = tmp("sim_stall_metrics.json");
        let metrics_s = metrics.to_str().unwrap().to_string();
        let mut argv = journal_base();
        let pos = argv.iter().position(|a| *a == "--windows").unwrap();
        argv[pos + 1] = "2";
        argv.extend([
            "--inject-faults",
            "stall=1.0",
            "--window-deadline-ms",
            "40",
            "--fail-policy",
            "quarantine",
            "--metrics",
            &metrics_s,
            "--out",
            "",
        ]);
        run(&parse(&argv)).unwrap();
        let m = std::fs::read_to_string(&metrics).unwrap();
        assert!(m.contains("\"stalled\""), "{m}");
        assert!(m.contains("\"quarantined\": 2"), "{m}");
    }

    #[test]
    fn simulate_injection_quarantines_deterministically() {
        let base = [
            "simulate",
            "--core",
            "0.5",
            "--leaves",
            "0.2",
            "--lambda",
            "2.0",
            "--alpha",
            "2.0",
            "--nodes",
            "20000",
            "--nv",
            "10000",
            "--windows",
            "8",
            "--seed",
            "9",
            "--inject-faults",
            "truncate=0.4,dup=0.1",
            "--fail-policy",
            "quarantine",
            "--max-retries",
            "1",
        ];
        let mut outputs = Vec::new();
        let mut reports = Vec::new();
        for run_id in ["a", "b"] {
            let out = tmp(&format!("sim_fault_{run_id}.txt"));
            let metrics = tmp(&format!("sim_fault_{run_id}_metrics.json"));
            let mut argv: Vec<&str> = base.to_vec();
            let out_s = out.to_str().unwrap().to_string();
            let metrics_s = metrics.to_str().unwrap().to_string();
            argv.extend(["--out", &out_s, "--metrics", &metrics_s]);
            run(&parse(&argv)).unwrap();
            outputs.push(std::fs::read_to_string(&out).unwrap());
            reports.push(std::fs::read_to_string(&metrics).unwrap());
        }
        // Rerun-identical pooled series and fault report (stage
        // wall-times in the metrics preamble legitimately vary).
        assert_eq!(outputs[0], outputs[1]);
        let fault_section = |m: &str| {
            let at = m.find("\"fault_report\"").expect("fault report present");
            m[at..].to_string()
        };
        assert_eq!(fault_section(&reports[0]), fault_section(&reports[1]));
        let m = &reports[0];
        assert!(m.contains("\"fault_report\""), "{m}");
        assert!(m.contains("\"ladder\""), "{m}");
        // A 50% per-attempt rate over 8 windows injects something.
        let injected: u64 = m
            .lines()
            .find(|l| l.contains("\"injected\""))
            .and_then(|l| l.split(':').nth(1))
            .map(|v| v.trim().trim_end_matches(',').parse().unwrap())
            .unwrap();
        assert!(injected > 0, "{m}");
    }

    #[test]
    fn simulate_certain_fault_aborts_under_default_policy() {
        let e = run(&parse(&[
            "simulate",
            "--core",
            "0.5",
            "--leaves",
            "0.2",
            "--lambda",
            "2.0",
            "--alpha",
            "2.0",
            "--nodes",
            "20000",
            "--nv",
            "10000",
            "--windows",
            "3",
            "--max-retries",
            "0",
            "--inject-faults",
            "truncate=1.0",
        ]))
        .unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.message.contains("window"), "{}", e.message);
    }

    #[test]
    fn gof_reports_on_palu_traffic() {
        let net = tmp("gof_net.txt");
        let deg = tmp("gof_deg.txt");
        let out = tmp("gof_out.txt");
        run(&parse(&[
            "generate",
            "--nodes",
            "60000",
            "--core",
            "0.5",
            "--leaves",
            "0.2",
            "--lambda",
            "2.0",
            "--alpha",
            "2.0",
            "--seed",
            "5",
            "--out",
            net.to_str().unwrap(),
        ]))
        .unwrap();
        run(&parse(&[
            "degrees",
            "--in",
            net.to_str().unwrap(),
            "--out",
            deg.to_str().unwrap(),
        ]))
        .unwrap();
        run(&parse(&[
            "gof",
            "--in",
            deg.to_str().unwrap(),
            "--boot",
            "10",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains("csn fit"), "{text}");
        assert!(text.contains("goodness of fit"));
        assert!(text.contains("vuong test"));
    }

    #[test]
    fn pool_streams_a_trace_file() {
        let trace = tmp("pool_trace.txt");
        // 250 packets over a tiny host space → 2 windows of 100,
        // 50-packet remnant discarded.
        let mut text = String::from("# trace\n");
        for i in 0..250u32 {
            text.push_str(&format!("{} {}\n", i % 17, (i * 7) % 23));
        }
        std::fs::write(&trace, text).unwrap();
        let out = tmp("pool_out.txt");
        run(&parse(&[
            "pool",
            "--in",
            trace.to_str().unwrap(),
            "--nv",
            "100",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let result = std::fs::read_to_string(&out).unwrap();
        assert!(result.contains("over 2 windows"), "{result}");
        let total: f64 = result
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| l.split_whitespace().nth(1).unwrap().parse::<f64>().unwrap())
            .sum();
        assert!((total - 1.0).abs() < 1e-6);

        // Malformed trace → usage error naming the line.
        std::fs::write(&trace, "0 1\nnot a packet\n").unwrap();
        let e = run(&parse(&[
            "pool",
            "--in",
            trace.to_str().unwrap(),
            "--nv",
            "1",
        ]))
        .unwrap_err();
        assert!(e.message.contains("line 2"), "{}", e.message);

        // Too few packets → clear error.
        std::fs::write(&trace, "0 1\n").unwrap();
        let e = run(&parse(&[
            "pool",
            "--in",
            trace.to_str().unwrap(),
            "--nv",
            "100",
        ]))
        .unwrap_err();
        assert!(e.message.contains("no complete window"));
    }

    /// The capture flags shared by `simulate`, `shard`, and
    /// `pool --merge` in the federation tests — identical so the
    /// journal fingerprints agree.
    fn fed_flags() -> Vec<&'static str> {
        vec![
            "--core",
            "0.5",
            "--leaves",
            "0.2",
            "--lambda",
            "2.0",
            "--alpha",
            "2.0",
            "--nodes",
            "20000",
            "--nv",
            "10000",
            "--windows",
            "6",
            "--seed",
            "9",
        ]
    }

    /// Capture shard `i` of `n` into `fed_<tag>_<i>.journal`, returning
    /// the journal path.
    fn run_fed_shard(tag: &str, shard: usize, shards: usize) -> std::path::PathBuf {
        let journal = tmp(&format!("fed_{tag}_{shard}.journal"));
        let _ = std::fs::remove_file(&journal);
        let journal_s = journal.to_str().unwrap().to_string();
        let shard_s = shard.to_string();
        let shards_s = shards.to_string();
        let mut argv = vec!["shard"];
        argv.extend(fed_flags());
        argv.extend([
            "--shard-index",
            &shard_s,
            "--shards",
            &shards_s,
            "--journal",
            &journal_s,
        ]);
        run(&parse(&argv)).unwrap();
        journal
    }

    #[test]
    fn shard_then_merge_matches_simulate_byte_for_byte() {
        // Single-process reference.
        let reference = tmp("fed_reference.txt");
        let reference_s = reference.to_str().unwrap().to_string();
        let mut argv = vec!["simulate"];
        argv.extend(fed_flags());
        argv.extend(["--out", &reference_s]);
        run(&parse(&argv)).unwrap();

        // Two shards, each its own journal, merged back together.
        let a = run_fed_shard("ok", 0, 2);
        let b = run_fed_shard("ok", 1, 2);
        let merged = tmp("fed_merged.txt");
        let metrics = tmp("fed_merged_metrics.json");
        let merged_s = merged.to_str().unwrap().to_string();
        let metrics_s = metrics.to_str().unwrap().to_string();
        let (a_s, b_s) = (
            a.to_str().unwrap().to_string(),
            b.to_str().unwrap().to_string(),
        );
        let mut argv = vec!["pool"];
        argv.extend(fed_flags());
        argv.extend([
            "--merge",
            &a_s,
            &b_s,
            "--out",
            &merged_s,
            "--metrics",
            &metrics_s,
        ]);
        run(&parse(&argv)).unwrap();
        assert_eq!(
            std::fs::read_to_string(&reference).unwrap(),
            std::fs::read_to_string(&merged).unwrap(),
            "federated pooled series must be byte-identical to simulate"
        );
        let m = std::fs::read_to_string(&metrics).unwrap();
        assert!(m.contains("\"federation\""), "{m}");
        assert!(m.contains("\"merge_levels\""), "{m}");
        assert!(m.contains("\"covered\": 6"), "{m}");
        for p in [a, b] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn merge_refuses_low_coverage_with_typed_exit_code() {
        let a = run_fed_shard("cov", 0, 2);
        let missing = tmp("fed_cov_missing.journal");
        let _ = std::fs::remove_file(&missing);
        let (a_s, missing_s) = (
            a.to_str().unwrap().to_string(),
            missing.to_str().unwrap().to_string(),
        );
        let mut argv = vec!["pool"];
        argv.extend(fed_flags());
        argv.extend(["--merge", &a_s, &missing_s]);
        // Default --min-coverage is 1.0: the lost shard refuses.
        let e = run(&parse(&argv)).unwrap_err();
        assert_eq!(e.code, exit::COVERAGE);
        assert!(
            e.message.contains("coverage below threshold"),
            "{}",
            e.message
        );
        // Relaxing the threshold lets the merge quarantine and proceed.
        let out = tmp("fed_cov_partial.txt");
        let out_s = out.to_str().unwrap().to_string();
        let mut argv = vec!["pool"];
        argv.extend(fed_flags());
        argv.extend([
            "--merge",
            &a_s,
            &missing_s,
            "--min-coverage",
            "0.5",
            "--out",
            &out_s,
        ]);
        run(&parse(&argv)).unwrap();
        assert!(std::fs::read_to_string(&out).unwrap().contains("# pooled"));
        let _ = std::fs::remove_file(a);
    }

    #[test]
    fn merge_refuses_fingerprint_skew_naming_the_parameter() {
        let a = run_fed_shard("skew", 0, 2);
        let b = run_fed_shard("skew", 1, 2);
        let (a_s, b_s) = (
            a.to_str().unwrap().to_string(),
            b.to_str().unwrap().to_string(),
        );
        // Same journals, but the merge expects lambda 2.5: identity
        // skew is a hard refusal that names the mismatched flag.
        let mut argv = vec!["pool"];
        argv.extend(fed_flags());
        let pos = argv.iter().position(|t| *t == "--lambda").unwrap();
        argv[pos + 1] = "2.5";
        argv.extend(["--merge", &a_s, &b_s]);
        let e = run(&parse(&argv)).unwrap_err();
        assert_eq!(e.code, exit::CONFIG_MISMATCH);
        assert!(e.message.contains("lambda"), "{}", e.message);
        assert!(e.message.contains("2.5"), "{}", e.message);
        for p in [a, b] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn shard_validates_plan_and_requires_journal() {
        // Shard index outside the plan is a usage error.
        let mut argv = vec!["shard"];
        argv.extend(fed_flags());
        argv.extend([
            "--shard-index",
            "5",
            "--shards",
            "2",
            "--journal",
            "x.journal",
        ]);
        let e = run(&parse(&argv)).unwrap_err();
        assert_eq!(e.code, exit::USAGE);
        // More shards than windows can never cover the range.
        let mut argv = vec!["shard"];
        argv.extend(fed_flags());
        argv.extend([
            "--shard-index",
            "0",
            "--shards",
            "7",
            "--journal",
            "x.journal",
        ]);
        let e = run(&parse(&argv)).unwrap_err();
        assert_eq!(e.code, exit::USAGE);
        assert!(e.message.contains("shard"), "{}", e.message);
        // A shard without a journal has nothing to federate.
        let mut argv = vec!["shard"];
        argv.extend(fed_flags());
        argv.extend(["--shard-index", "0", "--shards", "2"]);
        let e = run(&parse(&argv)).unwrap_err();
        assert_eq!(e.code, exit::USAGE);
        assert!(e.message.contains("--journal"), "{}", e.message);
    }

    #[test]
    fn generate_validates_parameters() {
        let e = run(&parse(&[
            "generate", "--core", "0.9", "--leaves", "0.9", "--lambda", "1.0", "--alpha", "2.0",
        ]))
        .unwrap_err();
        assert_eq!(e.code, 2);
        // Missing required options.
        let e = run(&parse(&["generate", "--core", "0.5"])).unwrap_err();
        assert!(e.message.contains("--leaves") || e.message.contains("leaves"));
    }

    #[test]
    fn service_commands_validate_usage() {
        // serve needs the journal directory that makes it crash-tolerant.
        let mut argv = vec!["serve"];
        argv.extend(fed_flags());
        let e = run(&parse(&argv)).unwrap_err();
        assert_eq!(e.code, exit::USAGE);
        assert!(e.message.contains("--journal-dir"), "{}", e.message);
        // submit needs a server address before anything else.
        let e = run(&parse(&["submit"])).unwrap_err();
        assert_eq!(e.code, exit::USAGE);
        assert!(e.message.contains("--server"), "{}", e.message);
        // ... and a journal to submit.
        let mut argv = vec!["submit", "--server", "127.0.0.1:1"];
        argv.extend(fed_flags());
        let e = run(&parse(&argv)).unwrap_err();
        assert_eq!(e.code, exit::USAGE);
        assert!(e.message.contains("--journal"), "{}", e.message);
        // Every command sharing a parser refuses its bad value the same
        // way, before binding, connecting or touching a directory.
        let work_dir = tmp("usage_work");
        let work_dir = work_dir.to_str().unwrap();
        let cases: [(&[&str], &str); 5] = [
            (
                &["pool", "--merge", "x.journal", "--min-coverage", "1.5"],
                "min-coverage",
            ),
            (
                &["serve", "--journal-dir", "d", "--min-coverage", "1.5"],
                "min-coverage",
            ),
            (
                &["dispatch", "--journal-dir", "d", "--min-coverage", "1.5"],
                "min-coverage",
            ),
            (
                &[
                    "submit",
                    "--server",
                    "127.0.0.1:1",
                    "--journal",
                    "x.journal",
                    "--wire-faults",
                    "frob=0.5",
                ],
                "wire-faults",
            ),
            (
                &[
                    "work",
                    "--server",
                    "127.0.0.1:1",
                    "--work-dir",
                    work_dir,
                    "--wire-faults",
                    "frob=0.5",
                ],
                "wire-faults",
            ),
        ];
        for (command, flag) in cases {
            let mut argv = command.to_vec();
            argv.extend(fed_flags());
            let e = run(&parse(&argv)).unwrap_err();
            assert_eq!(e.code, exit::USAGE, "{argv:?}: {}", e.message);
            assert!(e.message.contains(flag), "{argv:?}: {}", e.message);
        }
    }

    #[test]
    fn work_applies_the_memory_budget_to_its_lease() {
        // An in-process dispatcher leases the whole capture to one
        // worker whose budget cannot hold a single window: the lease
        // must fail with the admission refusal, not run unbudgeted.
        let journal_dir = tmp("work_budget_dispatch");
        let work_dir = tmp("work_budget_worker");
        let addr_file = tmp("work_budget_addr");
        for dir in [&journal_dir, &work_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
        let _ = std::fs::remove_file(&addr_file);
        let (journal_dir, work_dir, addr_file) = (
            journal_dir.to_str().unwrap().to_string(),
            work_dir.to_str().unwrap().to_string(),
            addr_file.to_str().unwrap().to_string(),
        );
        let mut dispatch = vec!["dispatch"];
        dispatch.extend(fed_flags());
        dispatch.extend([
            "--journal-dir",
            &journal_dir,
            "--addr-file",
            &addr_file,
            "--lease-ms",
            "200",
            "--stall-ms",
            "300",
        ]);
        let dispatch = parse(&dispatch);
        let dispatcher = std::thread::spawn(move || run(&dispatch));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            match std::fs::read_to_string(&addr_file) {
                Ok(addr) if addr.ends_with('\n') => break addr.trim().to_string(),
                _ => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "dispatcher never bound"
                    );
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
            }
        };
        let mut work = vec!["work", "--server", &addr, "--work-dir", &work_dir];
        work.extend(fed_flags());
        work.extend(["--memory-budget", "4096"]);
        let e = run(&parse(&work)).unwrap_err();
        assert!(e.message.contains("admission refused"), "{}", e.message);
        // With no live lease left, the stall watchdog ends the dispatcher.
        let e = dispatcher.join().unwrap().unwrap_err();
        assert!(e.message.contains("stalled"), "{}", e.message);
    }

    #[test]
    fn fit_against_unreachable_server_exits_service_unavailable() {
        // A connection-refused fit with an immediate deadline must exit
        // with the service-unreachable code, not a generic runtime error.
        let e = run(&parse(&[
            "fit",
            "--server",
            "127.0.0.1:1",
            "--retry-deadline-ms",
            "1",
            "--backoff-base-ms",
            "1",
            "--backoff-cap-ms",
            "1",
        ]))
        .unwrap_err();
        assert_eq!(e.code, exit::SERVICE_UNAVAILABLE, "{}", e.message);
    }
}
