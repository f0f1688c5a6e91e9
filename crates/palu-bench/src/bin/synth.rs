//! E-SYN — packet synthesis cost against the number of conversations.
//!
//! Under uniform intensity `PacketSynthesizer` finds each packet's
//! conversation by a direct index (`packets::uniform_index`) instead of
//! a binary search of the cumulative table `[1, 2, …, E]`. This binary
//! measures, at 10⁴, 10⁵, 10⁶ and 10⁷ conversations:
//!
//! * ns per packet of `PacketSynthesizer::draw_many_into` (uniform);
//! * ns per packet of a reference built here: the `f64` cumulative
//!   table with `partition_point`, the draw every packet used before;
//!
//! and records them in `results/BENCH_synth.json`. It asserts that both
//! paths draw identical packets from the same seed.
//!
//! With `--gate` it also requires the reference's time over the direct
//! index's, both measured in this run (best of five alternating runs
//! each), to reach 2×
//! at every size.
//!
//! The conversations are random host pairs, not a PALU network: the
//! draw touches only the conversation list, whose contents do not
//! change its cost, and a 10⁷-edge PALU network would dominate the run.

use palu_bench::record_json;
use palu_cli::json::JsonValue;
use palu_graph::graph::Graph;
use palu_stats::rng::{Rng, Xoshiro256pp};
use palu_traffic::packets::{EdgeIntensity, Packet, PacketSynthesizer};
use std::time::Instant;

const SIZES: [usize; 4] = [10_000, 100_000, 1_000_000, 10_000_000];
/// Packets drawn per timed run.
const PACKETS: usize = 2_000_000;
/// Timed runs per path, the two paths alternating; the best is kept.
const RUNS: usize = 5;
const SEED: u64 = 20261017;
/// Required reference / direct time ratio at every size.
const GATE_SPEEDUP: f64 = 2.0;

/// `e` conversations between random distinct hosts of an `e / 2`-host
/// network.
fn network(e: usize) -> Graph {
    let hosts = (e / 2).max(2) as u32;
    let mut rng = Xoshiro256pp::seed_from_u64(SEED ^ e as u64);
    let mut g = Graph::with_capacity(hosts, e);
    for _ in 0..e {
        let u = rng.gen_range(0..hosts);
        let v = (u + 1 + rng.gen_range(0..hosts - 1)) % hosts;
        g.add_edge(u, v);
    }
    g
}

/// The binary-search draw: one `f64` scaled by the table total,
/// `partition_point` on the cumulative table, one `bool` for the
/// direction.
fn reference(
    edges: &[(u32, u32)],
    cumulative: &[f64],
    rng: &mut Xoshiro256pp,
    n: usize,
    out: &mut Vec<Packet>,
) {
    out.clear();
    let last = cumulative.len() - 1;
    let total = cumulative[last];
    for _ in 0..n {
        let x = rng.gen::<f64>() * total;
        let (u, v) = edges[cumulative.partition_point(|&c| c < x).min(last)];
        out.push(if rng.gen::<bool>() {
            Packet { src: u, dst: v }
        } else {
            Packet { src: v, dst: u }
        });
    }
}

/// Wall of one run of `f` on a fresh seeded RNG.
fn timed(f: impl FnOnce(&mut Xoshiro256pp)) -> f64 {
    let mut rng = Xoshiro256pp::seed_from_u64(SEED);
    let t0 = Instant::now();
    f(&mut rng);
    t0.elapsed().as_secs_f64()
}

fn main() {
    let gate = std::env::args().any(|a| a == "--gate");
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("E-SYN — uniform packet synthesis: direct index vs cumulative-table search");
    println!("  {PACKETS} packets per run, best of {RUNS}, effective cores: {cores}");
    println!(
        "  {:>12}  {:>14}  {:>16}  {:>8}",
        "conversations", "direct ns/pkt", "search ns/pkt", "speedup"
    );

    let mut rows = Vec::new();
    let mut gate_pass = true;
    let (mut direct_out, mut reference_out) = (Vec::new(), Vec::new());
    for e in SIZES {
        let g = network(e);
        let syn = PacketSynthesizer::new(
            &g,
            EdgeIntensity::Uniform,
            &mut Xoshiro256pp::seed_from_u64(SEED),
        );
        let cumulative: Vec<f64> = (1..=e).map(|k| k as f64).collect();

        let (mut direct_s, mut reference_s) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..RUNS {
            direct_s = direct_s.min(timed(|rng| {
                syn.draw_many_into(rng, PACKETS, &mut direct_out)
                    .expect("a non-empty synthesizer draws");
            }));
            reference_s = reference_s.min(timed(|rng| {
                reference(g.edges(), &cumulative, rng, PACKETS, &mut reference_out);
            }));
        }
        assert!(
            direct_out == reference_out,
            "{e} conversations: the direct index drew different packets"
        );

        let ns = |s: f64| s * 1e9 / PACKETS as f64;
        let speedup = reference_s / direct_s.max(1e-12);
        gate_pass &= speedup >= GATE_SPEEDUP;
        println!(
            "  {e:>12}  {:>14.1}  {:>16.1}  {speedup:>7.2}x",
            ns(direct_s),
            ns(reference_s)
        );
        rows.push(JsonValue::obj([
            ("conversations", e.into()),
            ("direct_ns_per_packet", ns(direct_s).into()),
            ("reference_ns_per_packet", ns(reference_s).into()),
            ("speedup", speedup.into()),
            ("packets_identical", true.into()),
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
    record_json("BENCH_synth", &snapshot);

    if gate {
        println!("speedup gate: direct index ≥ {GATE_SPEEDUP:.1}x the search at every size");
        if !gate_pass {
            eprintln!(
                "speedup gate FAILED: at some size the direct index is under \
                 {GATE_SPEEDUP:.1}x the cumulative-table search"
            );
            std::process::exit(1);
        }
    }
}
