//! The capture workloads, `capture-steady` and `heavy-tail`: stand up
//! an observatory, pool `windows` fixed-`N_V` windows on 2 threads
//! through `Pipeline::pool_observatory_governed` exactly as
//! `palu-cli simulate` calls it, and check the pooled output.

use crate::common::{
    capture_failures, conditioned_seed, generator, metric, pooled_digest, pooled_identical,
    rng_ns_per_draw, Metric, Rep,
};
use crate::measure::peak_rss_mb;
use crate::trace::{overhead_runs, Tracer};
use crate::Traced;
use palu_graph::models::PowerLawConfigModel;
use palu_stats::logbin::DifferentialCumulative;
use palu_stats::rng::{streams, SeedSequence};
use palu_traffic::budget::{Governor, ResourceBudget};
use palu_traffic::metrics::Metrics;
use palu_traffic::observatory::{Observatory, ObservatoryConfig};
use palu_traffic::pipeline::{FaultTolerantPool, Measurement, Pipeline, PooledDistribution};
use palu_traffic::{EdgeIntensity, FailurePolicy, PacketSynthesizer, PacketWindow};
use std::time::Instant;

/// One capture workload's input geometry.
#[derive(Debug, Clone, Copy)]
pub struct CaptureSpec {
    /// Underlying network size.
    pub nodes: u64,
    /// Core exponent `α`.
    pub alpha: f64,
    /// Packets per window.
    pub n_v: u64,
    /// Windows pooled.
    pub windows: usize,
    /// Compute threads.
    pub threads: usize,
    /// Edge count (conversations) the network is conditioned on, to
    /// within [`EDGE_TOL`].
    pub edges: u64,
}

/// Relative tolerance on a capture network's edge count.
const EDGE_TOL: f64 = 0.02;

/// α = 2 over 30k nodes: 57k conversations whose ~0.9 MB of tables
/// stay in one core's L2, so capture cost is spread over synthesis,
/// COO→CSR and histogram, and set-up is negligible.
pub const STEADY: CaptureSpec = CaptureSpec {
    nodes: 30_000,
    alpha: 2.0,
    n_v: 20_000,
    windows: 1024,
    threads: 2,
    edges: 57_000,
};

/// α = 1.5 over 10k nodes: 2.57M conversations and ~41 MB of
/// synthesizer tables (~20× a 2 MB L2), so synthesis is a
/// cache-missing binary search and set-up builds large tables.
/// Unconditioned, this network's edge count ranges over 2–14M from
/// seed to seed.
pub const HEAVY_TAIL: CaptureSpec = CaptureSpec {
    nodes: 10_000,
    alpha: 1.5,
    n_v: 100_000,
    windows: 48,
    threads: 2,
    edges: 2_570_000,
};

/// The observatory seed for workload seed `seed`: the first candidate
/// whose network has `spec.edges` edges to within [`EDGE_TOL`].
pub fn input_seed(spec: &CaptureSpec, seed: u64) -> u64 {
    let gen = generator(spec.nodes, spec.alpha);
    let core = PowerLawConfigModel::new(gen.n_core, gen.alpha).expect("valid core model");
    let target = spec.edges as f64;
    let (lo, hi) = (target * (1.0 - EDGE_TOL), target * (1.0 + EDGE_TOL));
    conditioned_seed(seed, |s| {
        let rng = || SeedSequence::new(s).rng(streams::CORE);
        // Screen before generating: the network's first draws are its
        // core degrees, and its edge count is 0.3–0.7 of their sum.
        let stubs = core.sample_degrees(&mut rng()).iter().sum::<u64>() as f64;
        if 0.7 * stubs < lo || 0.3 * stubs > hi {
            return false;
        }
        let edges = gen.generate(&mut rng()).graph.n_edges() as f64;
        (lo..=hi).contains(&edges)
    })
}

/// Stand up the observatory for `spec` (network generation plus the
/// packet synthesizer).
pub fn observatory(spec: &CaptureSpec, seed: u64) -> Observatory {
    Observatory::new(
        ObservatoryConfig {
            name: "perfbench".into(),
            date: String::new(),
            n_v: spec.n_v,
        },
        &generator(spec.nodes, spec.alpha),
        EdgeIntensity::Uniform,
        seed,
    )
}

/// Pool windows `0..windows` of `obs` through the engine entry point
/// `simulate` uses, with strict failure policy and a metrics sink.
pub fn engine(
    obs: &mut Observatory,
    windows: usize,
    threads: usize,
    governor: Option<&Governor<'_>>,
) -> FaultTolerantPool {
    obs.seek(0);
    let metrics = Metrics::new();
    Pipeline::pool_observatory_governed(
        Measurement::UndirectedDegree,
        obs,
        windows,
        threads,
        Some(&metrics),
        &FailurePolicy::strict(),
        None,
        None,
        None,
        governor,
    )
    .expect("a strict capture of a healthy observatory succeeds")
}

/// One untraced repetition.
pub fn rep(spec: &CaptureSpec, seed: u64) -> Rep {
    let t0 = Instant::now();
    let mut obs = observatory(spec, seed);
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let ft = engine(&mut obs, spec.windows, spec.threads, None);
    let capture_s = t1.elapsed().as_secs_f64();
    let failed = capture_failures(&ft, spec.windows);
    let wall_s = t0.elapsed().as_secs_f64();
    let mut rep = Rep {
        digest: pooled_digest(&ft.pooled),
        ..Rep::default()
    };
    rep.set("setup_s", setup_s);
    rep.set("capture_s", capture_s);
    rep.set("wall_s", wall_s);
    rep.set("packets", (spec.windows as u64 * spec.n_v) as f64);
    rep.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    rep.set("attempted", spec.windows as f64);
    rep.set("failed", failed as f64);
    rep
}

/// The worker loop replayed serially from the layers' public calls:
/// synthesize → COO→CSR → histogram → log-bin → merge per window.
/// The fold is `Pipeline::push_binned`, whose output the engine's
/// window-ordered merge reproduces bit for bit.
pub fn replay(tr: &mut Tracer, obs: &Observatory, windows: usize) -> PooledDistribution {
    let measurement = Measurement::UndirectedDegree;
    let mut pipeline = Pipeline::new(measurement);
    let mut packets = Vec::new();
    let mut coo = palu_sparse::CooMatrix::default();
    let mut csr = palu_sparse::CsrScratch::default();
    let mut degree = palu_sparse::DegreeScratch::default();
    for t in 0..windows as u64 {
        tr.span("replay.window", t, |tr| {
            tr.span("packets.synthesize", t, |_| {
                obs.packets_at_retry_into(t, 0, &mut packets)
            })
            .expect("healthy synthesizer");
            let w = tr
                .span("window.build", t, |_| {
                    PacketWindow::from_packets_with(t, &packets, &mut coo, &mut csr)
                })
                .expect("synthesized packets form a window");
            let h = tr.span("histogram.degree", t, |_| {
                measurement.histogram_with(&w, &mut degree)
            });
            w.recycle(&mut csr);
            let binned = tr.span("logbin.bin", t, |_| {
                DifferentialCumulative::from_histogram(&h)
            });
            tr.span("summary.merge", t, |_| {
                pipeline.push_binned(&binned, h.d_max())
            });
        });
    }
    pipeline.finish()
}

/// Set-up layers called one by one, the way `Observatory::new` calls
/// them, then the observatory itself. Returns the observatory and the
/// set-up metrics.
pub fn traced_setup(tr: &mut Tracer, spec: &CaptureSpec, seed: u64) -> (Observatory, Vec<Metric>) {
    let seq = SeedSequence::new(seed);
    let gen = generator(spec.nodes, spec.alpha);
    let net = tr.span("palu_gen.generate", 0, |_| {
        gen.generate(&mut seq.rng(streams::CORE))
    });
    let synth = tr.span("packets.build", 0, |_| {
        PacketSynthesizer::new(
            &net.graph,
            EdgeIntensity::Uniform,
            &mut seq.rng(streams::FITTING),
        )
    });
    let obs = tr.span("observatory.new", 0, |_| observatory(spec, seed));
    assert_eq!(
        synth.n_conversations(),
        obs.synthesizer().n_conversations(),
        "the layer-by-layer set-up builds the observatory's synthesizer"
    );
    let edges = net.graph.n_edges() as f64;
    // Per conversation: a (u32, u32) endpoint pair and an f64
    // cumulative weight.
    let table_bytes = synth.n_conversations() as f64 * 16.0;
    let span_s = |tr: &Tracer, name| {
        tr.spans()
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(f64::NAN, |s| (s.end_ns - s.start_ns) as f64 / 1e9)
    };
    let metrics = vec![
        metric("palu_gen.generate_s", span_s(tr, "palu_gen.generate"), "s"),
        metric("palu_gen.edges", edges, "count"),
        metric("packets.build_s", span_s(tr, "packets.build"), "s"),
        metric("packets.table_bytes", table_bytes, "bytes"),
    ];
    (obs, metrics)
}

/// The traced run: layer-by-layer set-up, the 2-thread engine (the
/// reference output), a governed engine run under an ample budget,
/// then the serial replay, traced and untraced twice each. Every
/// replay and the governed run must match the reference bit for bit.
pub fn traced(spec: &CaptureSpec, seed: u64) -> Traced {
    let mut tr = Tracer::new();
    let (mut obs, mut metrics) = traced_setup(&mut tr, spec, seed);
    let n = spec.windows;
    let t0 = Instant::now();
    let reference = tr.span("pipeline.capture", 0, |_| {
        engine(&mut obs, n, spec.threads, None)
    });
    let capture_s = t0.elapsed().as_secs_f64();
    let budget = ResourceBudget::with_limit(u64::MAX / 4);
    let governor = Governor {
        budget: &budget,
        strict_admission: false,
    };
    let governed = tr.span("budget.governed_capture", 0, |_| {
        engine(&mut obs, n, spec.threads, Some(&governor))
    });
    let (replays, traced_s, untraced_s) =
        overhead_runs(&mut tr, |tr| tr.span("replay", 0, |tr| replay(tr, &obs, n)));
    let ns_per_draw = rng_ns_per_draw(&mut tr, seed);

    let mut failed = capture_failures(&reference, n) + capture_failures(&governed, n);
    for out in std::iter::once(&governed.pooled).chain(&replays) {
        if !pooled_identical(out, &reference.pooled) {
            failed += n as u64;
        }
    }
    let by_name = crate::trace::self_time_by_name(tr.spans());
    let self_s = |name: &str| by_name.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e9);
    let packets = (n as u64 * spec.n_v) as f64;
    let worker_s: f64 = [
        "packets.synthesize",
        "window.build",
        "histogram.degree",
        "logbin.bin",
    ]
    .iter()
    .map(|l| self_s(l))
    .sum();
    let busy_frac = worker_s / (spec.threads as f64 * capture_s);
    metrics.extend([
        metric(
            "packets.ns_per_packet",
            self_s("packets.synthesize") * 1e9 / packets,
            "ns",
        ),
        metric("rng.ns_per_draw", ns_per_draw, "ns"),
        metric(
            "window.ns_per_packet",
            self_s("window.build") * 1e9 / packets,
            "ns",
        ),
        metric(
            "histogram.ns_per_window",
            self_s("histogram.degree") * 1e9 / n as f64,
            "ns",
        ),
        metric(
            "logbin.ns_per_window",
            self_s("logbin.bin") * 1e9 / n as f64,
            "ns",
        ),
        metric(
            "summary.merge_ns_per_window",
            self_s("summary.merge") * 1e9 / n as f64,
            "ns",
        ),
        metric("pipeline.capture_s", capture_s, "s"),
        metric("pipeline.busy_frac", busy_frac, "ratio"),
        // The serial replay can run slower per call than the engine's
        // workers did (noise, cache state), which puts busy_frac above 1.
        metric("pipeline.wait_frac", 1.0 - busy_frac.min(1.0), "ratio"),
        metric("budget.peak_accounted_bytes", budget.peak() as f64, "bytes"),
    ]);
    Traced {
        metrics,
        attempted: 7 * n as u64,
        failed,
        traced_s,
        untraced_s,
        tracer: tr,
    }
}
