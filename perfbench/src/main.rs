//! The PALU benchmark.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The workload seed picks the workload's input: the first input
//! derived from it that meets the workload's size condition (its
//! *input seed*). With `--trace 0` the workload is repeated on that
//! input, each repetition in a fresh child process, for about
//! `--seconds` (at least [`MIN_REPS`] times); the end-to-end metrics
//! are medians over the repetitions. With `--trace 1` one traced run
//! reports per-layer numbers. The last line of standard output is a
//! JSON summary; the lines before it print every metric by name with
//! its unit. A failed output check makes the run exit with status 1.

mod capture;
mod common;
mod federated;
mod fit;
mod measure;
mod trace;

use common::{Metric, Rep};
use measure::{median, percentile, tail_percentile};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trace::Tracer;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = [
    "capture-steady",
    "heavy-tail",
    "fit-bootstrap",
    "federated-dispatch",
];

/// Fewest repetitions an untraced run makes, however short `--seconds`.
const MIN_REPS: usize = 3;

/// End-to-end metrics gated by `BENCHMARK.json`: reported by every
/// workload.
const GATED: [&str; 3] = ["setup_s", "wall_s", "peak_rss_mb"];

/// Per-layer metrics listed in `BENCHMARK.json`: reported by every
/// workload's traced run.
const GATED_LAYERS: [&str; 4] = [
    "palu_gen.generate_s",
    "rng.ns_per_draw",
    "trace.unaccounted_frac",
    "trace.overhead_frac",
];

/// A traced run's result.
pub struct Traced {
    /// Per-layer metrics of the workload.
    pub metrics: Vec<Metric>,
    /// Output checks made.
    pub attempted: u64,
    /// Output checks failed.
    pub failed: u64,
    /// Wall time of the traced replay.
    pub traced_s: f64,
    /// Wall time of the same replay with tracing off.
    pub untraced_s: f64,
    /// The recorded spans.
    pub tracer: Tracer,
}

/// Where runs write their results, traces and scratch journals.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("benchmark output directory");
    dir
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run one repetition with `seed` as the input seed and print its
    /// record: the parent's child-process mode.
    rep: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        rep: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--rep" {
            args.rep = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn input_seed(workload: &str, seed: u64) -> u64 {
    match workload {
        "capture-steady" => capture::input_seed(&capture::STEADY, seed),
        "heavy-tail" => capture::input_seed(&capture::HEAVY_TAIL, seed),
        "fit-bootstrap" => fit::input_seed(seed),
        _ => federated::input_seed(seed),
    }
}

fn run_rep(workload: &str, seed: u64) -> Rep {
    match workload {
        "capture-steady" => capture::rep(&capture::STEADY, seed),
        "heavy-tail" => capture::rep(&capture::HEAVY_TAIL, seed),
        "fit-bootstrap" => fit::rep(seed),
        _ => federated::rep(seed),
    }
}

fn run_traced(workload: &str, seed: u64) -> Traced {
    match workload {
        "capture-steady" => capture::traced(&capture::STEADY, seed),
        "heavy-tail" => capture::traced(&capture::HEAVY_TAIL, seed),
        "fit-bootstrap" => fit::traced(seed),
        _ => federated::traced(seed),
    }
}

/// Machine and input context recorded with every result.
fn context(seed: u64, input: u64) -> Vec<(&'static str, String)> {
    // Keep git from taking the commit of a repository above the one
    // the benchmark runs in.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.as_os_str().to_owned()))
        .unwrap_or_default();
    let capture = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", &ceiling)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    vec![
        (
            "available_parallelism",
            std::thread::available_parallelism().map_or("unknown".to_string(), |p| p.to_string()),
        ),
        ("nproc", capture("nproc", &[])),
        ("seed", seed.to_string()),
        ("input_seed", input.to_string()),
        ("commit", capture("git", &["rev-parse", "HEAD"])),
    ]
}

/// A summary ready to print and to write.
struct Summary {
    workload: String,
    context: Vec<(&'static str, String)>,
    /// Every reported metric with a note on how it was aggregated.
    metrics: Vec<(Metric, String)>,
    attempted: u64,
    failed: u64,
    correct: bool,
    /// Names of the metrics that go into the JSON summary line.
    json_keys: &'static [&'static str],
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

impl Summary {
    fn print(&self) {
        println!("== perfbench {} ==", self.workload);
        let ctx: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("  context: {}", ctx.join(" "));
        for (m, note) in &self.metrics {
            println!(
                "  {:<32} {:>14} {:<6} {note}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        }
        println!(
            "  {:<32} {:>14} {:<6} {} failed of {} attempted",
            "failed_frac",
            fmt_value(self.failed as f64 / self.attempted.max(1) as f64),
            "ratio",
            self.failed,
            self.attempted
        );
        if !self.correct {
            println!("  OUTPUT CHECK FAILED");
        }
    }

    fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .json_keys
            .iter()
            .map(|k| {
                let m = self.metrics.iter().map(|(m, _)| m).find(|m| m.name == *k);
                let (v, unit) = m.map_or((f64::NAN, ""), |m| (m.value, m.unit));
                format!(
                    "\"{k}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Write the full result, context included, under `out/`.
    fn write(&self, seed: u64, traced: bool) {
        let mut fields: Vec<String> = vec![
            format!("\"workload\": \"{}\"", self.workload),
            format!("\"traced\": {traced}"),
        ];
        fields.extend(
            self.context
                .iter()
                .map(|(k, v)| format!("\"{k}\": \"{v}\"")),
        );
        fields.push(format!("\"attempted\": {}", self.attempted));
        fields.push(format!("\"failed\": {}", self.failed));
        fields.push(format!("\"correct\": {}", self.correct));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, note)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"note\": \"{note}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        fields.push(format!("\"metrics\": {{{}}}", metrics.join(", ")));
        let kind = if traced { "trace" } else { "result" };
        let path = out_dir().join(format!("{kind}-{}-seed{seed}.json", self.workload));
        if let Err(e) = std::fs::write(&path, format!("{{{}}}\n", fields.join(", "))) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
}

/// A repetition still running after this long is killed and counted
/// as failed.
const REP_TIMEOUT: Duration = Duration::from_secs(60);

/// Run one repetition in a fresh child process, so that peak memory
/// and set-up time start from a clean heap.
fn spawn_rep(workload: &str, seed: u64) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--rep", "--workload", workload, "--seed", &seed.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn repetition: {e}"))?;
    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if start.elapsed() < REP_TIMEOUT => {
                std::thread::sleep(Duration::from_millis(5))
            }
            waited => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(match waited {
                    Err(e) => format!("wait for repetition: {e}"),
                    _ => format!("repetition killed after {REP_TIMEOUT:?}"),
                });
            }
        }
    };
    if !status.success() {
        return Err(format!("repetition exited with {status}"));
    }
    // The record is one line of a few kB, within a pipe's buffer, so the
    // child never blocks on a full pipe before it exits.
    let mut text = String::new();
    child
        .stdout
        .take()
        .map(|mut out| out.read_to_string(&mut text))
        .transpose()
        .map_err(|e| format!("read repetition output: {e}"))?;
    text.lines()
        .rev()
        .find_map(|l| Rep::parse(l, &["query_ms"]))
        .ok_or_else(|| "repetition printed no result".to_string())
}

/// Median over repetitions, noted with the sample count and the
/// tail percentile when there are enough samples for one.
fn summarize(name: &str, unit: &'static str, xs: &[f64], what: &str) -> (Metric, String) {
    let value = median(xs).unwrap_or(f64::NAN);
    let tail = match tail_percentile(xs) {
        Some((p, v)) => format!("; p{p} {} {unit}", fmt_value(v)),
        None => "; too few samples for a tail percentile".to_string(),
    };
    (
        common::metric(name, value, unit),
        format!("median of {} {what}{tail}", xs.len()),
    )
}

/// Repeat the workload on its input until another repetition would end
/// after `seconds` (but at least [`MIN_REPS`] times).
fn untraced(workload: &str, seed: u64, seconds: f64) -> Summary {
    let start = Instant::now();
    let input = input_seed(workload, seed);
    let mut reps = Vec::new();
    let mut spawn_s = Vec::new();
    let mut errors = 0u64;
    let next_ends_in_time =
        |spawn_s: &[f64]| start.elapsed().as_secs_f64() + median(spawn_s).unwrap_or(0.0) <= seconds;
    // A failed repetition fails the run, so the run stops at the first.
    while errors == 0 && (reps.len() < MIN_REPS || next_ends_in_time(&spawn_s)) {
        let t0 = Instant::now();
        let rep = spawn_rep(workload, input);
        spawn_s.push(t0.elapsed().as_secs_f64());
        match rep {
            Ok(rep) => reps.push(rep),
            Err(e) => {
                eprintln!("perfbench: {workload}: {e}");
                errors += 1;
            }
        }
    }
    let col = |key: &str| reps.iter().map(|r| r.get(key)).collect::<Vec<f64>>();
    let ratio = |num: &str, den: &str| {
        reps.iter()
            .map(|r| r.get(num) / r.get(den))
            .collect::<Vec<f64>>()
    };
    let mut metrics = vec![
        summarize("setup_s", "s", &col("setup_s"), "repetitions"),
        summarize("wall_s", "s", &col("wall_s"), "repetitions"),
        summarize("peak_rss_mb", "MiB", &col("peak_rss_mb"), "repetitions"),
    ];
    match workload {
        "fit-bootstrap" => {
            metrics.push(summarize("fit_s", "s", &col("fit_s"), "repetitions"));
            metrics.push(summarize(
                "boot_replicates_per_s",
                "1/s",
                &ratio("replicates", "boot_s"),
                "repetitions",
            ));
        }
        _ => metrics.push(summarize(
            "packets_per_s",
            "1/s",
            &ratio("packets", "capture_s"),
            "repetitions",
        )),
    }
    if workload == "federated-dispatch" {
        metrics.push(summarize(
            "time_to_fit_s",
            "s",
            &col("time_to_fit_s"),
            "repetitions",
        ));
        let queries: Vec<f64> = reps
            .iter()
            .flat_map(|r| r.samples.get("query_ms").cloned().unwrap_or_default())
            .collect();
        let (m, note) = summarize("fit_query_p50_ms", "ms", &queries, "closed-loop queries");
        metrics.push((m, note));
        metrics.push((
            common::metric(
                "fit_query_p95_ms",
                percentile(&queries, 95.0).unwrap_or(f64::NAN),
                "ms",
            ),
            format!("nearest-rank p95 of {} closed-loop queries", queries.len()),
        ));
    }
    // Every repetition ran the same input, so every output must carry
    // the same bits; a served federated fit must be the single-process
    // pool's.
    let digests_agree = reps.windows(2).all(|w| w[0].digest == w[1].digest);
    let off_reference = match workload {
        "federated-dispatch" => {
            let want = federated::reference_digest(input);
            reps.iter().filter(|r| r.digest != want).count() as u64
        }
        _ => 0,
    };
    let attempted: u64 = reps.iter().map(|r| r.get("attempted") as u64).sum::<u64>() + errors;
    let failed: u64 = reps.iter().map(|r| r.get("failed") as u64).sum::<u64>()
        + errors
        + off_reference
        + u64::from(!digests_agree);
    let finite = metrics
        .iter()
        .all(|(m, _)| m.value.is_finite() && m.value > 0.0);
    Summary {
        workload: workload.to_string(),
        context: context(seed, input),
        metrics,
        attempted,
        failed,
        correct: failed == 0 && finite && !reps.is_empty(),
        json_keys: &GATED,
    }
}

fn traced(workload: &str, seed: u64) -> Summary {
    let input = input_seed(workload, seed);
    let t = run_traced(workload, input);
    let spans = t.tracer.spans();
    let wall_ns = t.tracer.wall_ns();
    let mut metrics: Vec<(Metric, String)> = t
        .metrics
        .iter()
        .map(|m| (m.clone(), String::new()))
        .collect();
    metrics.push((
        common::metric(
            "trace.unaccounted_frac",
            trace::unaccounted_frac(spans, wall_ns),
            "ratio",
        ),
        format!("of {:.3} s traced wall", wall_ns as f64 / 1e9),
    ));
    metrics.push((
        common::metric(
            "trace.overhead_frac",
            (t.traced_s - t.untraced_s) / t.untraced_s,
            "ratio",
        ),
        format!(
            "traced replay {:.3} s vs untraced {:.3} s",
            t.traced_s, t.untraced_s
        ),
    ));
    let by_name: BTreeMap<&str, (u64, u64)> = trace::self_time_by_name(spans);
    for (name, (ns, n)) in &by_name {
        metrics.push((
            common::metric(&format!("self.{name}"), *ns as f64 / 1e9, "s"),
            format!("self time over {n} span(s)"),
        ));
    }
    let path = out_dir().join(format!("spans-{workload}-seed{seed}.jsonl"));
    if let Err(e) = t.tracer.write_jsonl(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    let finite = GATED_LAYERS.iter().all(|k| {
        metrics
            .iter()
            .any(|(m, _)| m.name == *k && m.value.is_finite())
    });
    Summary {
        workload: workload.to_string(),
        context: context(seed, input),
        metrics,
        attempted: t.attempted,
        failed: t.failed,
        correct: t.failed == 0 && finite,
        json_keys: &GATED_LAYERS,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.rep {
        println!("{}", run_rep(&args.workload, args.seed).to_line());
        return ExitCode::SUCCESS;
    }
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        w => vec![w],
    };
    let mut all_correct = true;
    for w in workloads {
        let summary = if args.trace {
            traced(w, args.seed)
        } else {
            untraced(w, args.seed, args.seconds)
        };
        summary.print();
        summary.write(args.seed, args.trace);
        println!("{}", summary.json_line());
        all_correct &= summary.correct;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
