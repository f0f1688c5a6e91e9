//! E-PERF — pipeline throughput at paper scale.
//!
//! The paper's methodology runs "over a wide range of windows from
//! N_V = 100,000 to N_V = 100,000,000". This experiment demonstrates
//! the substrate holds up at the 10⁷-packet scale on one machine:
//! window assembly, Table-I aggregation, and the five Figure-1
//! quantities, with throughput in packets/second, then the capture
//! engine's serial vs multi-threaded run over 64 windows, which must
//! agree bit for bit.

use palu_bench::record_json;
use palu_cli::commands::metrics_json;
use palu_cli::json::JsonValue;
use palu_sparse::aggregates::Aggregates;
use palu_sparse::quantities::QuantityHistograms;
use palu_sparse::CooMatrix;
use palu_traffic::metrics::Metrics;
use palu_traffic::pipeline::{default_threads, Measurement, Pipeline, PooledDistribution};
use palu_traffic::MetricsSnapshot;
use std::time::Instant;

/// Run the full multi-window pipeline (synthesize → window → histogram
/// → bin → merge) over `windows` consecutive windows with the given
/// thread count, returning the pooled result plus wall time and the
/// per-stage metrics snapshot.
fn run_pipeline(windows: usize, threads: usize) -> (PooledDistribution, f64, MetricsSnapshot) {
    // A fixed mid-size scenario (first Figure-3 panel, shrunk N_V so
    // the serial baseline stays cheap) re-seeded identically per run:
    // the serial and sharded paths see the same window indices and
    // must agree bit-for-bit.
    let mut scenario = palu_bench::fig3_scenarios().remove(0);
    scenario.n_v = 20_000;
    scenario.windows = windows;
    let mut obs = scenario.observatory(20260807);
    let metrics = Metrics::new();
    let t0 = Instant::now();
    let pooled = Pipeline::pool_observatory_parallel(
        Measurement::UndirectedDegree,
        &mut obs,
        windows,
        threads,
        Some(&metrics),
    )
    .expect("capture succeeds");
    (pooled, t0.elapsed().as_secs_f64(), metrics.snapshot())
}

fn main() {
    let n = 10_000_000usize;
    println!("E-PERF — window pipeline at N_V = {n} packets");

    // Synthesize a heavy-tailed packet stream cheaply (zeta-ish source
    // popularity via the multiplicative hash trick).
    let t0 = Instant::now();
    let mut x = 0x9E3779B97F4A7C15u64;
    let packets: Vec<(u32, u32)> = (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Skew ids: low ids vastly more popular (supernode-ish).
            let a = ((x >> 33) as f64 / 2f64.powi(31)).powf(3.0);
            let b = ((x & 0xFFFF_FFFF) as f64 / 2f64.powi(32)).powf(3.0);
            ((a * 500_000.0) as u32, (b * 500_000.0) as u32)
        })
        .collect();
    println!("  synthesized in {:.2}s", t0.elapsed().as_secs_f64());

    let t0 = Instant::now();
    let a = CooMatrix::from_packet_pairs(packets.iter().copied()).to_csr();
    let serial_build_s = t0.elapsed().as_secs_f64();
    println!(
        "  serial build:    {serial_build_s:.2}s ({:.1} Mpkt/s)",
        n as f64 / serial_build_s / 1e6
    );

    let t0 = Instant::now();
    let agg = Aggregates::compute(&a);
    let aggregate_s = t0.elapsed().as_secs_f64();
    println!(
        "  Table-I aggregates in {aggregate_s:.3}s: N_V = {}, links = {}, sources = {}, dests = {}",
        agg.valid_packets, agg.unique_links, agg.unique_sources, agg.unique_destinations
    );
    assert_eq!(agg.valid_packets, n as u64);

    let t0 = Instant::now();
    let qs = QuantityHistograms::compute(&a);
    let quantities_s = t0.elapsed().as_secs_f64();
    println!("  five quantities in {quantities_s:.3}s");
    println!(
        "  source-packet d_max = {} (supernode), link-packet d_max = {}",
        qs.source_packets.d_max().unwrap_or(0),
        qs.link_packets.d_max().unwrap_or(0)
    );

    // Multi-window measurement pipeline: serial vs sharded end-to-end
    // (synthesize → window → histogram → bin → window-ordered merge),
    // with per-stage wall-times from the metrics instrumentation. The
    // speedup here is measured from the snapshot, not asserted.
    let pipeline_windows = 64usize;
    let pipeline_threads = default_threads().max(2);
    println!("  multi-window pipeline: {pipeline_windows} windows × N_V = 20000");
    let (pooled_serial, pipeline_serial_s, _) = run_pipeline(pipeline_windows, 1);
    let (pooled_parallel, pipeline_parallel_s, pipeline_snap) =
        run_pipeline(pipeline_windows, pipeline_threads);
    assert_eq!(
        pooled_serial.mean, pooled_parallel.mean,
        "parallel pipeline must be bit-identical to serial"
    );
    assert_eq!(pooled_serial.sigma, pooled_parallel.sigma);
    assert_eq!(pooled_serial.d_max, pooled_parallel.d_max);
    let pipeline_speedup = pipeline_serial_s / pipeline_parallel_s.max(1e-9);
    println!(
        "    serial {pipeline_serial_s:.2}s, {} threads {pipeline_parallel_s:.2}s → measured speedup {pipeline_speedup:.2}x (bit-identical)",
        pipeline_snap.threads
    );
    for (name, ns) in pipeline_snap.stages() {
        println!("    stage {name:<10} {:.3}s", ns as f64 / 1e9);
    }

    record_json(
        "scale",
        &JsonValue::obj([
            ("n_packets", n.into()),
            ("serial_build_s", serial_build_s.into()),
            ("aggregate_s", aggregate_s.into()),
            ("quantities_s", quantities_s.into()),
            ("unique_links", agg.unique_links.into()),
            ("pipeline_windows", pipeline_windows.into()),
            ("pipeline_serial_s", pipeline_serial_s.into()),
            ("pipeline_parallel_s", pipeline_parallel_s.into()),
            ("pipeline_speedup", pipeline_speedup.into()),
            ("pipeline_metrics", metrics_json(&pipeline_snap)),
        ]),
    );
}
