//! E-DEG — the undirected-degree measurement: fused kernel against the
//! COO→CSR path.
//!
//! The capture engine measures `Measurement::UndirectedDegree` by
//! packing each packet into an undirected key `(min << 32) | max`,
//! sorting and deduplicating the keys, and counting partners
//! (`DegreeScratch::load_undirected_edges` +
//! `loaded_undirected_degree_histogram`). It used to build the
//! window's COO and CSR matrices first and pack the keys from the
//! matrix. This binary measures, at N_V = 2·10⁴, 10⁵ and 10⁶ on
//! windows synthesized from PALU networks of 30k, 100k and 300k
//! nodes:
//!
//! * ns per packet of the fused kernel, split into its two halves
//!   (keys: the engine's `Window` stage; count: its `Histogram` stage);
//! * ns per packet of a reference run here: `PacketWindow::from_packets_with`
//!   then `Measurement::histogram_with`, the path every window took
//!   before;
//!
//! and records them in `results/BENCH_degree.json`. It asserts equal
//! histograms from both paths on every window.
//!
//! With `--gate` it also requires the reference's time over the fused
//! kernel's, both measured in this run (best of five alternating runs
//! each), to reach 1.5× at every size.

use palu::params::PaluParams;
use palu_bench::record_json;
use palu_cli::json::JsonValue;
use palu_sparse::{CooMatrix, CsrScratch, DegreeScratch};
use palu_stats::histogram::DegreeHistogram;
use palu_traffic::observatory::{Observatory, ObservatoryConfig};
use palu_traffic::packets::{EdgeIntensity, Packet};
use palu_traffic::pipeline::Measurement;
use palu_traffic::PacketWindow;
use std::time::Instant;

/// `(network nodes, N_V)` per size.
const SIZES: [(u64, u64); 3] = [(30_000, 20_000), (100_000, 100_000), (300_000, 1_000_000)];
/// Packets measured per timed run (whole windows, at least two).
const PACKETS: u64 = 2_000_000;
/// Timed runs per path, the two paths alternating; the best is kept.
const RUNS: usize = 5;
const SEED: u64 = 20261018;
/// Required reference / fused time ratio at every size.
const GATE_SPEEDUP: f64 = 1.5;

/// One timed pass of the fused kernel over every window: wall of the
/// key half, wall of the count half, and the histograms.
fn fused(windows: &[Vec<Packet>], degree: &mut DegreeScratch) -> (f64, f64, Vec<DegreeHistogram>) {
    let (mut keys_s, mut count_s) = (0.0, 0.0);
    let mut out = Vec::with_capacity(windows.len());
    for packets in windows {
        let t0 = Instant::now();
        degree.load_undirected_edges(packets.iter().map(|p| (p.src, p.dst)));
        let t1 = Instant::now();
        out.push(degree.loaded_undirected_degree_histogram());
        keys_s += (t1 - t0).as_secs_f64();
        count_s += t1.elapsed().as_secs_f64();
    }
    (keys_s, count_s, out)
}

/// Reusable buffers of the COO→CSR path.
#[derive(Default)]
struct CsrPath {
    coo: CooMatrix,
    csr: CsrScratch,
    degree: DegreeScratch,
}

/// One timed pass of the COO→CSR path over every window.
fn reference(windows: &[Vec<Packet>], s: &mut CsrPath) -> (f64, Vec<DegreeHistogram>) {
    let t0 = Instant::now();
    let out = windows
        .iter()
        .enumerate()
        .map(|(t, packets)| {
            let w = PacketWindow::from_packets_with(t as u64, packets, &mut s.coo, &mut s.csr)
                .expect("an admitted window builds");
            let h = Measurement::UndirectedDegree.histogram_with(&w, &mut s.degree);
            w.recycle(&mut s.csr);
            h
        })
        .collect();
    (t0.elapsed().as_secs_f64(), out)
}

fn main() {
    let gate = std::env::args().any(|a| a == "--gate");
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("E-DEG — undirected degree: fused key kernel vs COO→CSR path");
    println!("  ≥ {PACKETS} packets per run, best of {RUNS}, effective cores: {cores}");
    println!(
        "  {:>7}  {:>9}  {:>8}  {:>9}  {:>10}  {:>9}  {:>8}",
        "nodes", "N_V", "windows", "keys ns", "count ns", "CSR ns", "speedup"
    );

    let mut rows = Vec::new();
    let mut gate_pass = true;
    for (nodes, n_v) in SIZES {
        let gen = PaluParams::from_core_leaf_fractions(0.5, 0.2, 3.0, 2.0, 0.5)
            .and_then(|p| p.generator(nodes))
            .expect("valid PALU parameters");
        let obs = Observatory::new(
            ObservatoryConfig {
                name: "E-DEG".into(),
                date: String::new(),
                n_v,
            },
            &gen,
            EdgeIntensity::Uniform,
            SEED ^ nodes,
        );
        let n_windows = (PACKETS / n_v).max(2);
        let windows: Vec<Vec<Packet>> = (0..n_windows)
            .map(|t| obs.packets_at(t).expect("a PALU network synthesizes"))
            .collect();
        let packets = (n_windows * n_v) as f64;

        let mut degree = DegreeScratch::new();
        let mut csr_path = CsrPath::default();
        let (mut keys_s, mut count_s, mut fused_s, mut reference_s) =
            (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for _ in 0..RUNS {
            let (k, c, fused_h) = fused(&windows, &mut degree);
            if k + c < fused_s {
                (keys_s, count_s, fused_s) = (k, c, k + c);
            }
            let (r, reference_h) = reference(&windows, &mut csr_path);
            reference_s = reference_s.min(r);
            for (t, (a, b)) in fused_h.iter().zip(&reference_h).enumerate() {
                assert!(a == b, "N_V {n_v}, window {t}: the fused histogram differs");
            }
        }

        let ns = |s: f64| s * 1e9 / packets;
        let speedup = reference_s / fused_s.max(1e-12);
        gate_pass &= speedup >= GATE_SPEEDUP;
        println!(
            "  {nodes:>7}  {n_v:>9}  {n_windows:>8}  {:>9.1}  {:>10.1}  {:>9.1}  {speedup:>7.2}x",
            ns(keys_s),
            ns(count_s),
            ns(reference_s)
        );
        rows.push(JsonValue::obj([
            ("nodes", nodes.into()),
            ("n_v", n_v.into()),
            ("windows", n_windows.into()),
            ("fused_ns_per_packet", ns(fused_s).into()),
            ("fused_keys_ns_per_packet", ns(keys_s).into()),
            ("fused_count_ns_per_packet", ns(count_s).into()),
            ("reference_ns_per_packet", ns(reference_s).into()),
            ("speedup", speedup.into()),
            ("histograms_equal", true.into()),
        ]));
    }

    let snapshot = JsonValue::obj([
        ("packets_per_run", PACKETS.into()),
        ("runs", RUNS.into()),
        ("effective_cores", cores.into()),
        ("sizes", JsonValue::Array(rows)),
        (
            "speedup_gate",
            JsonValue::obj([
                ("threshold", GATE_SPEEDUP.into()),
                ("pass", gate_pass.into()),
            ]),
        ),
    ]);
    record_json("BENCH_degree", &snapshot);

    if gate {
        println!("speedup gate: fused kernel ≥ {GATE_SPEEDUP:.1}x the COO→CSR path at every size");
        if !gate_pass {
            eprintln!(
                "speedup gate FAILED: at some size the fused kernel is under \
                 {GATE_SPEEDUP:.1}x the COO→CSR path"
            );
            std::process::exit(1);
        }
    }
}
