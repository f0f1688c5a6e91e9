//! Sparse traffic-matrix substrate for the PALU reproduction.
//!
//! Section II of the paper aggregates `N_V` consecutive valid packets
//! into a sparse matrix `A_t`, where `A_t(i, j)` counts the packets
//! from source `i` to destination `j`. Everything the paper measures is
//! then a function of `A_t`:
//!
//! * [`coo`] / [`csr`] — construction (coordinate triplets with
//!   duplicate accumulation) and compressed storage with row/column
//!   reductions and transposition.
//! * [`aggregates`] — the Table I aggregate properties (valid packets,
//!   unique links, unique sources, unique destinations), computed both
//!   in "summation notation" (direct reductions) and "matrix notation"
//!   (explicit `1ᵀA1`-style products) so the two can be cross-checked.
//! * [`quantities`] — the five streaming network quantities of
//!   Figure 1: source packets, source fan-out, link packets,
//!   destination fan-in, and destination packets, each as a degree
//!   histogram ready for logarithmic pooling.
//! * [`scratch`] — reusable per-worker buffers for allocation-free
//!   window assembly and histogram extraction, including the fused
//!   undirected-degree kernel.
//!
//! The crate is single-threaded: the capture engine in
//! `palu_traffic::pipeline` parallelises across windows, never within
//! one.
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

/// Per-node aggregate quantities derived from an assembled window.
pub mod aggregates;
/// Coordinate-format (COO) triple accumulation for streaming inserts.
pub mod coo;
/// Compressed sparse row matrices built from COO batches.
pub mod csr;
/// Typed errors for sizing on untrusted dimensions.
pub mod error;
/// The network quantities (degree, flows, packets, bytes) tracked per node.
pub mod quantities;
/// Reusable per-worker scratch buffers for allocation-free window
/// assembly and histogram extraction.
pub mod scratch;

pub use aggregates::Aggregates;
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use error::SparseError;
pub use quantities::{NetworkQuantity, QuantityHistograms};
pub use scratch::{CsrScratch, DegreeScratch};

/// Largest capacity *hint* honoured verbatim before admission-control
/// accounting kicks in (4 Mi elements). Geometry-derived sizes below
/// this pre-reserve exactly; larger hints are clamped and the buffer
/// grows organically by doubling, so an adversarial or mis-accounted
/// dimension can never trigger a multi-gigabyte up-front reservation.
pub const MAX_UNACCOUNTED_RESERVE: usize = 1 << 22;

/// Clamp a window-geometry-derived capacity hint to
/// [`MAX_UNACCOUNTED_RESERVE`]. This is the sanctioned entry point the
/// R7 lint rule recognises: pipeline code reserves geometry-derived
/// capacities through here (or through a budget accountant built on
/// it), never via a raw `with_capacity` on the untrusted size.
pub fn admitted_capacity(hint: usize) -> usize {
    hint.min(MAX_UNACCOUNTED_RESERVE)
}

/// Checked in-memory footprint, in bytes, of a CSR matrix with
/// `n_rows` rows and `nnz` stored entries: the `row_ptr` offsets plus
/// the column-index and value arrays. `None` on arithmetic overflow —
/// budget cost models treat that as infeasible.
pub fn csr_footprint_bytes(n_rows: u64, nnz: u64) -> Option<u64> {
    let row_ptr = n_rows
        .checked_add(1)?
        .checked_mul(size_of::<usize>() as u64)?;
    let entries = nnz.checked_mul((size_of::<NodeId>() + size_of::<Count>()) as u64)?;
    row_ptr.checked_add(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admitted_capacity_clamps_only_above_the_cap() {
        assert_eq!(admitted_capacity(0), 0);
        assert_eq!(admitted_capacity(1234), 1234);
        assert_eq!(admitted_capacity(usize::MAX), MAX_UNACCOUNTED_RESERVE);
    }

    #[test]
    fn csr_footprint_is_checked() {
        let f = csr_footprint_bytes(10, 100).unwrap();
        assert_eq!(f, 11 * 8 + 100 * 12);
        assert!(csr_footprint_bytes(u64::MAX, 1).is_none());
        assert!(csr_footprint_bytes(1, u64::MAX).is_none());
    }
}

/// Node identifier (source or destination address index).
///
/// 32 bits comfortably covers the address diversity of a packet window
/// (`N_V ≤ 10^8` in the paper) while halving index memory versus
/// `usize` — these matrices are the hot data structure of the pipeline.
pub type NodeId = u32;

/// Packet multiplicity on a link.
pub type Count = u64;
