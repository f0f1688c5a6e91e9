//! Tier-1 contract for packet synthesis: the direct uniform index
//! draws exactly the packets the cumulative-table binary search drew.
//!
//! 1. **Index identity** — the direct index equals `partition_point`
//!    over the uniform cumulative table `[1, 2, …, E]` at `x = 0`, at
//!    every integer `x < E`, and just below each integer, for table
//!    sizes from 1 to 2²⁴ + 1.
//! 2. **Draw identity** — `draw_many_into` equals a replay written
//!    here with a cumulative table and `partition_point`, on the same
//!    seeds, for uniform and Pareto intensities.
//! 3. **Pinned output** — the pooled distribution of a small fixed
//!    uniform observatory, and the packets of a Pareto synthesizer,
//!    hash to literals recorded before the direct index existed.

use palu_stats::rng::{Rng, Xoshiro256pp};
use palu_suite::prelude::*;
use palu_traffic::observatory::ObservatoryConfig;
use palu_traffic::packets::{uniform_index, EdgeIntensity, Packet, PacketSynthesizer};
use palu_traffic::pipeline::Measurement;

/// FNV-1a over the little-endian bytes of `words`.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn packets_digest(packets: &[Packet]) -> u64 {
    digest(
        packets
            .iter()
            .map(|p| (u64::from(p.src) << 32) | u64::from(p.dst)),
    )
}

/// The cumulative table `PacketSynthesizer::new` built for `g` before
/// the direct index: running sums of ones under uniform intensity, of
/// Pareto weights drawn from the same construction RNG otherwise.
fn cumulative_table(g: &Graph, intensity: EdgeIntensity, rng: &mut Xoshiro256pp) -> Vec<f64> {
    let mut acc = 0.0;
    (0..g.n_edges())
        .map(|_| {
            acc += match intensity {
                EdgeIntensity::Uniform => 1.0,
                EdgeIntensity::Pareto { shape } => {
                    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                    u.powf(-1.0 / shape)
                }
            };
            acc
        })
        .collect()
}

/// The binary-search synthesis every packet went through before the
/// direct index: one `f64` scaled by the table total, `partition_point`
/// on the cumulative table, then one `bool` for the direction.
fn replay(g: &Graph, cumulative: &[f64], rng: &mut Xoshiro256pp, n: usize) -> Vec<Packet> {
    let total = *cumulative.last().expect("a non-empty table");
    (0..n)
        .map(|_| {
            let x = rng.gen::<f64>() * total;
            let idx = cumulative
                .partition_point(|&c| c < x)
                .min(cumulative.len() - 1);
            let (u, v) = g.edges()[idx];
            if rng.gen::<bool>() {
                Packet { src: u, dst: v }
            } else {
                Packet { src: v, dst: u }
            }
        })
        .collect()
}

fn network(seed: u64) -> Graph {
    PaluParams::from_core_leaf_fractions(0.5, 0.2, 3.0, 2.0, 0.5)
        .unwrap()
        .generator(5_000)
        .unwrap()
        .generate(&mut Xoshiro256pp::seed_from_u64(seed))
        .graph
}

#[test]
fn direct_index_equals_partition_point_on_the_uniform_table() {
    const SIZES: [usize; 6] = [1, 2, 3, 57_585, (1 << 24) + 1, 10_000_000];
    // Every table `[1, …, e]` is a prefix of the largest one.
    let largest: Vec<f64> = (1..=(1usize << 24) + 1).map(|k| k as f64).collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    for e in SIZES {
        let table = &largest[..e];
        let search = |x: f64| table.partition_point(|&c| c < x).min(e - 1);
        let check = |x: f64| {
            assert_eq!(uniform_index(x, e), search(x), "E = {e}, x = {x:e}");
        };
        check(0.0);
        // u·E rounds up to E when u is within half an ulp of 1.
        check(e as f64);
        // Every integer below E, and the float just below it, split
        // into contiguous runs across threads.
        let run = e.div_ceil(threads);
        std::thread::scope(|s| {
            for start in (1..e).step_by(run) {
                s.spawn(move || {
                    for k in start..(start + run).min(e) {
                        let x = k as f64;
                        check(x);
                        check(x.next_down());
                    }
                });
            }
        });
    }
}

#[test]
fn draw_many_into_equals_the_partition_point_replay() {
    for (seed, intensity) in [
        (1u64, EdgeIntensity::Uniform),
        (2, EdgeIntensity::Uniform),
        (3, EdgeIntensity::Pareto { shape: 1.2 }),
        (4, EdgeIntensity::Pareto { shape: 0.7 }),
    ] {
        let g = network(seed);
        let syn = PacketSynthesizer::new(&g, intensity, &mut Xoshiro256pp::seed_from_u64(seed));
        let cumulative = cumulative_table(&g, intensity, &mut Xoshiro256pp::seed_from_u64(seed));
        let mut got = Vec::new();
        for window_seed in [seed * 100, seed * 100 + 1] {
            syn.draw_many_into(
                &mut Xoshiro256pp::seed_from_u64(window_seed),
                20_000,
                &mut got,
            )
            .unwrap();
            let want = replay(
                &g,
                &cumulative,
                &mut Xoshiro256pp::seed_from_u64(window_seed),
                20_000,
            );
            assert_eq!(got, want, "{intensity:?}, window seed {window_seed}");
        }
        // One packet at a time consumes the RNG the same way.
        let mut rng = Xoshiro256pp::seed_from_u64(seed + 7);
        let single: Vec<Packet> = (0..500).map(|_| syn.draw(&mut rng).unwrap()).collect();
        let want = replay(
            &g,
            &cumulative,
            &mut Xoshiro256pp::seed_from_u64(seed + 7),
            500,
        );
        assert_eq!(single, want, "{intensity:?}, draw");
    }
}

#[test]
fn pooled_output_matches_the_recorded_literal() {
    let gen = PaluParams::from_core_leaf_fractions(0.5, 0.2, 3.0, 2.0, 0.5)
        .unwrap()
        .generator(8_000)
        .unwrap();
    let mut obs = Observatory::new(
        ObservatoryConfig {
            name: "synthesis identity".to_string(),
            date: String::new(),
            n_v: 4_000,
        },
        &gen,
        EdgeIntensity::Uniform,
        11,
    );
    let pooled =
        Pipeline::pool_observatory_parallel(Measurement::UndirectedDegree, &mut obs, 24, 2, None)
            .expect("capture");
    let bins = pooled
        .mean
        .iter()
        .zip(&pooled.sigma)
        .flat_map(|((d, m), s)| [d, m.to_bits(), s.to_bits()]);
    let got = digest(bins.chain([pooled.windows, pooled.d_max]));
    assert_eq!(
        got, 0x255d_fdf8_aaff_1dc6,
        "uniform pooled digest {got:#018x}"
    );

    let g = network(5);
    let syn = PacketSynthesizer::new(
        &g,
        EdgeIntensity::Pareto { shape: 1.2 },
        &mut Xoshiro256pp::seed_from_u64(5),
    );
    let packets = syn
        .draw_many(&mut Xoshiro256pp::seed_from_u64(6), 50_000)
        .unwrap();
    let got = packets_digest(&packets);
    assert_eq!(
        got, 0x856d_cd08_e0a4_d215,
        "pareto packets digest {got:#018x}"
    );
}
