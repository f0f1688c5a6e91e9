//! Property-based tests for the sparse traffic-matrix substrate:
//! construction, reduction, and Table-I invariants over arbitrary
//! packet streams.
// Gated: `proptest` is declared as an empty feature so the offline
// build never resolves the external crate. To run these tests, add
// `proptest = "1"` under [dev-dependencies] (requires network) and
// build with `--features proptest`. The in-repo fallback coverage
// lives in each crate's tests/random_inputs.rs.
#![cfg(feature = "proptest")]

use palu_sparse::aggregates::Aggregates;
use palu_sparse::coo::CooMatrix;
use palu_sparse::quantities::QuantityHistograms;
use proptest::prelude::*;

/// Arbitrary small packet streams: (src, dst) pairs over a bounded id
/// space so collisions (duplicate links) actually happen.
fn packets() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..64, 0u32..64), 0..400)
}

proptest! {
    #[test]
    fn csr_roundtrips_every_packet(pairs in packets()) {
        let csr = CooMatrix::from_packet_pairs(pairs.iter().copied()).to_csr();
        // Total conservation.
        prop_assert_eq!(csr.total(), pairs.len() as u64);
        // Every pair is present with its multiplicity.
        let mut counts = std::collections::HashMap::new();
        for &(s, d) in &pairs {
            *counts.entry((s, d)).or_insert(0u64) += 1;
        }
        for (&(s, d), &c) in &counts {
            prop_assert_eq!(csr.get(s, d), c);
        }
        prop_assert_eq!(csr.nnz(), counts.len());
    }

    #[test]
    fn transpose_is_involutive_and_preserves(pairs in packets()) {
        let a = CooMatrix::from_packet_pairs(pairs.iter().copied()).to_csr();
        let t = a.transpose();
        prop_assert_eq!(t.transpose(), a.clone());
        prop_assert_eq!(a.total(), t.total());
        prop_assert_eq!(a.nnz(), t.nnz());
        prop_assert_eq!(a.row_sums(), t.col_sums());
        prop_assert_eq!(a.col_nnzs(), t.row_nnzs());
    }

    #[test]
    fn table1_notations_always_agree(pairs in packets()) {
        let a = CooMatrix::from_packet_pairs(pairs.iter().copied()).to_csr();
        prop_assert_eq!(
            Aggregates::compute(&a),
            Aggregates::compute_matrix_notation(&a)
        );
    }

    #[test]
    fn aggregate_orderings(pairs in packets()) {
        prop_assume!(!pairs.is_empty());
        let a = CooMatrix::from_packet_pairs(pairs.iter().copied()).to_csr();
        let g = Aggregates::compute(&a);
        // links ≤ packets; sources ≤ links; destinations ≤ links.
        prop_assert!(g.unique_links <= g.valid_packets);
        prop_assert!(g.unique_sources <= g.unique_links);
        prop_assert!(g.unique_destinations <= g.unique_links);
        prop_assert!(g.unique_sources >= 1);
    }

    #[test]
    fn quantity_conservation_laws(pairs in packets()) {
        prop_assume!(!pairs.is_empty());
        let a = CooMatrix::from_packet_pairs(pairs.iter().copied()).to_csr();
        let g = Aggregates::compute(&a);
        let q = QuantityHistograms::compute(&a);
        prop_assert_eq!(q.source_packets.degree_sum(), g.valid_packets);
        prop_assert_eq!(q.destination_packets.degree_sum(), g.valid_packets);
        prop_assert_eq!(q.source_fan_out.degree_sum(), g.unique_links);
        prop_assert_eq!(q.destination_fan_in.degree_sum(), g.unique_links);
        prop_assert_eq!(q.link_packets.total(), g.unique_links);
        prop_assert_eq!(q.link_packets.degree_sum(), g.valid_packets);
        prop_assert_eq!(q.source_packets.total(), g.unique_sources);
        prop_assert_eq!(q.destination_packets.total(), g.unique_destinations);
    }

    #[test]
    fn mat_vec_against_dense_reference(pairs in prop::collection::vec((0u32..12, 0u32..12), 0..60),
                                       x in prop::collection::vec(-10f64..10.0, 12)) {
        let mut coo = CooMatrix::from_packet_pairs(pairs.iter().copied());
        coo.reserve_dims(12, 12);
        let a = coo.to_csr();
        // Dense reference.
        let mut dense = [[0f64; 12]; 12];
        for &(s, d) in &pairs {
            dense[s as usize][d as usize] += 1.0;
        }
        let y = a.mat_vec(&x);
        for (r, yr) in y.iter().enumerate() {
            let expected: f64 = (0..12).map(|c| dense[r][c] * x[c]).sum();
            prop_assert!((yr - expected).abs() < 1e-9);
        }
        let ones = vec![1.0; 12];
        let z = a.vec_mat(&ones);
        for (c, zc) in z.iter().enumerate() {
            let expected: f64 = (0..12).map(|r| dense[r][c]).sum();
            prop_assert!((zc - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_norm_bounds(pairs in packets()) {
        let a = CooMatrix::from_packet_pairs(pairs.iter().copied()).to_csr();
        let z = a.zero_norm();
        prop_assert_eq!(z.nnz(), a.nnz());
        prop_assert_eq!(z.total(), a.nnz() as u64);
        prop_assert!(z.total() <= a.total());
    }
}
