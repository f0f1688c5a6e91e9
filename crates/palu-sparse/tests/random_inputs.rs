//! Randomized-input fallback for the gated proptest suite
//! (`tests/proptest_sparse.rs`): the same invariants, driven by the
//! in-repo deterministic RNG so they run in the offline build.

use palu_sparse::aggregates::Aggregates;
use palu_sparse::coo::CooMatrix;
use palu_sparse::quantities::QuantityHistograms;
use palu_stats::rng::{Rng, Xoshiro256pp};

const CASES: usize = 150;

/// Random small packet stream over a bounded id space so duplicate
/// links actually happen.
fn packets(rng: &mut Xoshiro256pp) -> Vec<(u32, u32)> {
    let len = rng.gen_range(0usize..400);
    (0..len)
        .map(|_| (rng.gen_range(0u32..64), rng.gen_range(0u32..64)))
        .collect()
}

#[test]
fn csr_roundtrips_every_packet() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5a01);
    for _ in 0..CASES {
        let pairs = packets(&mut rng);
        let csr = CooMatrix::from_packet_pairs(pairs.iter().copied()).to_csr();
        assert_eq!(csr.total(), pairs.len() as u64);
        let mut counts = std::collections::HashMap::new();
        for &(s, d) in &pairs {
            *counts.entry((s, d)).or_insert(0u64) += 1;
        }
        for (&(s, d), &c) in &counts {
            assert_eq!(csr.get(s, d), c);
        }
        assert_eq!(csr.nnz(), counts.len());
    }
}

#[test]
fn transpose_is_involutive_and_preserves() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5a02);
    for _ in 0..CASES {
        let pairs = packets(&mut rng);
        let a = CooMatrix::from_packet_pairs(pairs.iter().copied()).to_csr();
        let t = a.transpose();
        assert_eq!(t.transpose(), a.clone());
        assert_eq!(a.total(), t.total());
        assert_eq!(a.nnz(), t.nnz());
        assert_eq!(a.row_sums(), t.col_sums());
        assert_eq!(a.col_nnzs(), t.row_nnzs());
    }
}

#[test]
fn table1_notations_always_agree() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5a03);
    for _ in 0..CASES {
        let pairs = packets(&mut rng);
        let a = CooMatrix::from_packet_pairs(pairs.iter().copied()).to_csr();
        assert_eq!(
            Aggregates::compute(&a),
            Aggregates::compute_matrix_notation(&a)
        );
    }
}

#[test]
fn quantity_conservation_laws() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5a04);
    for _ in 0..CASES {
        let pairs = packets(&mut rng);
        if pairs.is_empty() {
            continue;
        }
        let a = CooMatrix::from_packet_pairs(pairs.iter().copied()).to_csr();
        let g = Aggregates::compute(&a);
        assert!(g.unique_links <= g.valid_packets);
        assert!(g.unique_sources <= g.unique_links);
        assert!(g.unique_destinations <= g.unique_links);
        assert!(g.unique_sources >= 1);
        let q = QuantityHistograms::compute(&a);
        assert_eq!(q.source_packets.degree_sum(), g.valid_packets);
        assert_eq!(q.destination_packets.degree_sum(), g.valid_packets);
        assert_eq!(q.source_fan_out.degree_sum(), g.unique_links);
        assert_eq!(q.destination_fan_in.degree_sum(), g.unique_links);
        assert_eq!(q.link_packets.total(), g.unique_links);
        assert_eq!(q.link_packets.degree_sum(), g.valid_packets);
        assert_eq!(q.source_packets.total(), g.unique_sources);
        assert_eq!(q.destination_packets.total(), g.unique_destinations);
    }
}

#[test]
fn mat_vec_against_dense_reference() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5a06);
    for _ in 0..CASES {
        let len = rng.gen_range(0usize..60);
        let pairs: Vec<(u32, u32)> = (0..len)
            .map(|_| (rng.gen_range(0u32..12), rng.gen_range(0u32..12)))
            .collect();
        let x: Vec<f64> = (0..12).map(|_| 20.0 * rng.gen::<f64>() - 10.0).collect();
        let mut coo = CooMatrix::from_packet_pairs(pairs.iter().copied());
        coo.reserve_dims(12, 12);
        let a = coo.to_csr();
        let mut dense = [[0f64; 12]; 12];
        for &(s, d) in &pairs {
            dense[s as usize][d as usize] += 1.0;
        }
        let y = a.mat_vec(&x);
        for (r, yr) in y.iter().enumerate() {
            let expected: f64 = (0..12).map(|c| dense[r][c] * x[c]).sum();
            assert!((yr - expected).abs() < 1e-9);
        }
        let ones = vec![1.0; 12];
        let z = a.vec_mat(&ones);
        for (c, zc) in z.iter().enumerate() {
            let expected: f64 = (0..12).map(|r| dense[r][c]).sum();
            assert!((zc - expected).abs() < 1e-9);
        }
    }
}

#[test]
fn zero_norm_bounds() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5a07);
    for _ in 0..CASES {
        let pairs = packets(&mut rng);
        let a = CooMatrix::from_packet_pairs(pairs.iter().copied()).to_csr();
        let z = a.zero_norm();
        assert_eq!(z.nnz(), a.nnz());
        assert_eq!(z.total(), a.nnz() as u64);
        assert!(z.total() <= a.total());
    }
}
