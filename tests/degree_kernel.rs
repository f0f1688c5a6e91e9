//! Tier-1 contract for the fused undirected-degree kernel.
//!
//! The capture engine measures `Measurement::UndirectedDegree` by
//! going from packets straight to sorted, deduplicated partner keys
//! (`DegreeScratch::load_undirected_edges`) and from the keys to the
//! histogram (`DegreeScratch::loaded_undirected_degree_histogram`),
//! without building the window's COO/CSR matrix. Every pooled byte
//! rests on that histogram being **equal** to the matrix path's:
//!
//! 1. **Random windows** — on seeded random packet windows with
//!    self-loops, both directions of a pair, repeated packets, sparse
//!    and large host ids, the fused histogram equals
//!    `PacketWindow::from_packets(..).undirected_degree_histogram()`.
//! 2. **Edge cases** — the empty and the one-packet window.
//! 3. **Residue** — a scratch that a panicked or half-finished call
//!    left behind still gives the clean answer on the next window.
//!    (Stale partner counts, which only a panic part-way through the
//!    count could leave, are planted directly by the unit test
//!    `stale_touched_counts_do_not_leak` in `palu_sparse::scratch`:
//!    no public call stops there.)
//! 4. **Observatory windows** — on a synthesized capture, per window
//!    and pooled through the engine, the fused path equals the matrix
//!    path.

use palu_sparse::DegreeScratch;
use palu_stats::rng::{Rng, Xoshiro256pp};
use palu_suite::prelude::*;
use palu_traffic::observatory::ObservatoryConfig;
use palu_traffic::packets::{EdgeIntensity, Packet};
use palu_traffic::pipeline::Measurement;

fn pairs(packets: &[Packet]) -> impl Iterator<Item = (u32, u32)> + '_ {
    packets.iter().map(|p| (p.src, p.dst))
}

/// The matrix path the engine used before the fused kernel.
fn reference(packets: &[Packet]) -> DegreeHistogram {
    PacketWindow::from_packets(0, packets).undirected_degree_histogram()
}

/// `n` packets over host ids drawn from `ids`, with about one packet
/// in `loops` a self-loop and one in four the reverse of the previous
/// packet or a repeat of it.
fn random_window(rng: &mut Xoshiro256pp, ids: &[u32], n: usize, loops: u32) -> Vec<Packet> {
    let mut out: Vec<Packet> = Vec::with_capacity(n);
    for _ in 0..n {
        let pick = |rng: &mut Xoshiro256pp| ids[rng.gen_range(0..ids.len() as u32) as usize];
        let p = match (out.last().copied(), rng.gen_range(0..8u32)) {
            (Some(prev), 0) => Packet {
                src: prev.dst,
                dst: prev.src,
            },
            (Some(prev), 1) => prev,
            _ if rng.gen_range(0..loops) == 0 => {
                let h = pick(rng);
                Packet { src: h, dst: h }
            }
            _ => Packet {
                src: pick(rng),
                dst: pick(rng),
            },
        };
        out.push(p);
    }
    out
}

#[test]
fn fused_equals_matrix_path_on_seeded_random_windows() {
    let mut scratch = DegreeScratch::new();
    for seed in 0..24u64 {
        let mut rng = Xoshiro256pp::seed_from_u64(0xdeb0 + seed);
        // Dense small ids, dense larger ids, and a sparse set spread
        // up to 2²¹ (the dense accumulator and the CSR row pointer
        // both span the largest id, so the spread is kept moderate).
        let hosts = 2 + rng.gen_range(0..2_000u32);
        let ids: Vec<u32> = match seed % 3 {
            0 => (0..hosts.min(40)).collect(),
            1 => (0..hosts).collect(),
            _ => (0..hosts)
                .map(|_| rng.gen_range(0..1u32 << 21))
                .chain([(1 << 21) - 1, 0])
                .collect(),
        };
        let n = 1 + rng.gen_range(0..20_000u32) as usize;
        let loops = 2 + (seed as u32 % 5) * 10;
        let packets = random_window(&mut rng, &ids, n, loops);
        assert_eq!(
            scratch.undirected_degree_histogram_of_pairs(pairs(&packets)),
            reference(&packets),
            "seed {seed}: {n} packets over {} ids",
            ids.len()
        );
    }
}

#[test]
fn self_loops_both_directions_and_repeats() {
    let p = |src, dst| Packet { src, dst };
    let cases: [Vec<Packet>; 5] = [
        // Only self-loops: each host is its own single partner.
        vec![p(3, 3), p(3, 3), p(8, 8)],
        // Both directions of one pair are one partnership.
        vec![p(1, 2), p(2, 1)],
        // Repeats change nothing.
        vec![p(1, 2); 50],
        // A self-loop next to real partners adds the host itself.
        vec![p(4, 4), p(4, 5), p(5, 4), p(4, 6)],
        // Sparse ids far apart.
        vec![p(0, 1 << 20), p(1 << 20, 77), p(77, 0), p(0, 0)],
    ];
    let mut scratch = DegreeScratch::new();
    for (i, packets) in cases.iter().enumerate() {
        let h = scratch.undirected_degree_histogram_of_pairs(pairs(packets));
        assert_eq!(h, reference(packets), "case {i}");
    }
    // Host 4: partners {4, 5, 6} → 3; hosts 5 and 6: one partner each.
    // The key half keeps the three distinct pairs, and the count half
    // gives the same histogram each time it runs.
    assert_eq!(scratch.load_undirected_edges(pairs(&cases[3])), 3);
    let h = scratch.loaded_undirected_degree_histogram();
    assert_eq!((h.count(1), h.count(3), h.total()), (2, 1, 3));
    assert_eq!(scratch.loaded_undirected_degree_histogram(), h);
}

#[test]
fn empty_and_one_packet_windows() {
    let mut scratch = DegreeScratch::new();
    assert_eq!(scratch.load_undirected_edges(std::iter::empty()), 0);
    let empty = scratch.loaded_undirected_degree_histogram();
    assert!(empty.is_empty());
    assert_eq!(empty, reference(&[]));

    let one = [Packet { src: 9, dst: 2 }];
    let h = scratch.undirected_degree_histogram_of_pairs(pairs(&one));
    assert_eq!(h, reference(&one));
    assert_eq!((h.count(1), h.total()), (2, 2));

    let self_loop = [Packet { src: 6, dst: 6 }];
    let h = scratch.undirected_degree_histogram_of_pairs(pairs(&self_loop));
    assert_eq!(h, reference(&self_loop));
    assert_eq!((h.count(1), h.total()), (1, 1));
}

#[test]
fn residue_from_a_panicked_or_half_finished_call_does_not_leak() {
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    let ids: Vec<u32> = (0..300).collect();
    let big = random_window(&mut rng, &ids, 5_000, 10);
    let small = random_window(&mut rng, &ids[..20], 200, 4);
    let expected = reference(&small);
    let mut scratch = DegreeScratch::new();

    // A key source that panics part-way through a window, as a worker
    // attempt does under `catch_unwind`: the scratch keeps the partial
    // keys of the big window.
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        scratch.load_undirected_edges(pairs(&big).enumerate().map(|(i, pair)| {
            assert!(i < 2_500, "injected panic half-way through the window");
            pair
        }))
    }));
    assert!(panicked.is_err());
    assert_eq!(
        scratch.undirected_degree_histogram_of_pairs(pairs(&small)),
        expected
    );

    // Keys loaded but never counted, then a different window.
    scratch.load_undirected_edges(pairs(&big));
    assert_eq!(
        scratch.undirected_degree_histogram_of_pairs(pairs(&small)),
        expected
    );

    // A big window fully counted, then the small one: the dense
    // accumulator is longer than the small window needs.
    scratch.undirected_degree_histogram_of_pairs(pairs(&big));
    scratch.load_undirected_edges(pairs(&small));
    assert_eq!(scratch.loaded_undirected_degree_histogram(), expected);
    assert_eq!(scratch.loaded_undirected_degree_histogram(), expected);
}

fn observatory(seed: u64, n_v: u64) -> Observatory {
    let gen = PaluParams::from_core_leaf_fractions(0.5, 0.2, 3.0, 2.0, 0.5)
        .unwrap()
        .generator(20_000)
        .unwrap();
    Observatory::new(
        ObservatoryConfig {
            name: "degree-kernel test".to_string(),
            date: String::new(),
            n_v,
        },
        &gen,
        EdgeIntensity::Uniform,
        seed,
    )
}

#[test]
fn fused_equals_matrix_path_on_observatory_windows() {
    let mut obs = observatory(11, 8_000);
    let mut scratch = DegreeScratch::new();
    let mut packets = Vec::new();
    for t in 0..12u64 {
        obs.packets_at_retry_into(t, 0, &mut packets).unwrap();
        let fused = scratch.undirected_degree_histogram_of_pairs(pairs(&packets));
        let matrix = obs.window_at(t).undirected_degree_histogram();
        assert_eq!(fused, matrix, "window {t}");
        assert_eq!(fused, reference(&packets), "window {t}");
    }
    // Through the engine (fused) against the serial fold over matrix
    // windows (the reference path), with the Window/Histogram split
    // still timed.
    let windows: Vec<PacketWindow> = (0..12).map(|t| obs.window_at(t)).collect();
    let serial = Pipeline::pool(Measurement::UndirectedDegree, &windows);
    let metrics = Metrics::new();
    let engine = Pipeline::pool_observatory_parallel(
        Measurement::UndirectedDegree,
        &mut obs,
        12,
        2,
        Some(&metrics),
    )
    .expect("capture");
    assert_eq!(engine.mean, serial.mean);
    assert_eq!(engine.sigma, serial.sigma);
    assert_eq!(
        (engine.windows, engine.d_max),
        (serial.windows, serial.d_max)
    );
    let snap = metrics.snapshot();
    assert!(snap.window_ns > 0 && snap.histogram_ns > 0);
}
