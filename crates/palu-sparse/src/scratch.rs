//! Reusable per-worker scratch buffers for the window hot path.
//!
//! The pipeline assembles and measures one matrix per window — at
//! observatory scale, millions of times. Building each window from
//! fresh allocations (dense counting-sort buffers in
//! [`CooMatrix::to_csr`](crate::coo::CooMatrix::to_csr), a
//! `BTreeMap<_, BTreeSet<_>>` per undirected-degree histogram) turns
//! the workers into allocator benchmarks: under threads they serialize
//! on the global allocator and parallel speedup inverts. The types
//! here hold every such buffer once per worker and are threaded
//! through the per-window stages, so steady-state window processing
//! performs no heap allocation beyond the result histograms
//! themselves.
//!
//! All scratch-based computations are exact drop-in replacements:
//! each produces a value **equal** to its allocating counterpart
//! (same `BTreeMap` contents for histograms, same CSR arrays), which
//! is what keeps the parallel pipeline's bit-identity contract intact.

use crate::csr::CsrMatrix;
use crate::quantities::NetworkQuantity;
use crate::{Count, NodeId};
use palu_stats::histogram::DegreeHistogram;

/// Reusable buffers for [`CooMatrix::try_to_csr_with`]
/// (counting-sort offsets, scatter arrays, per-row sort space, and
/// recycled CSR output arrays).
///
/// [`CooMatrix::try_to_csr_with`]: crate::coo::CooMatrix::try_to_csr_with
#[derive(Debug, Clone, Default)]
pub struct CsrScratch {
    /// Counting-sort row offsets (`n_rows + 1` entries).
    pub(crate) offsets: Vec<usize>,
    /// Per-row write cursors during the scatter pass.
    pub(crate) next: Vec<usize>,
    /// Row-grouped column indices (scatter output).
    pub(crate) scat_cols: Vec<NodeId>,
    /// Row-grouped values (scatter output).
    pub(crate) scat_vals: Vec<Count>,
    /// Per-row `(col, val)` sort-and-dedup space.
    pub(crate) pair: Vec<(NodeId, Count)>,
    /// Recycled CSR `row_ptr` (taken by the conversion, returned via
    /// [`CsrScratch::recycle`]).
    pub(crate) out_row_ptr: Vec<usize>,
    /// Recycled CSR column array.
    pub(crate) out_cols: Vec<NodeId>,
    /// Recycled CSR value array.
    pub(crate) out_vals: Vec<Count>,
}

impl CsrScratch {
    /// Create an empty scratch; buffers grow on first use and are
    /// retained across conversions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Return a spent matrix's backing arrays to the scratch so the
    /// next conversion reuses them instead of allocating. Purely an
    /// optimization — a matrix that is never recycled just costs the
    /// next conversion a fresh allocation.
    pub fn recycle(&mut self, m: CsrMatrix) {
        let (row_ptr, cols, vals, _) = m.into_raw_parts();
        self.out_row_ptr = row_ptr;
        self.out_cols = cols;
        self.out_vals = vals;
    }
}

/// Reusable buffers for allocation-free degree-histogram extraction.
///
/// Replaces the per-window `BTreeMap<u32, BTreeSet<u32>>` partner
/// tracking (one heap node per insert) with sort-based edge
/// deduplication plus a *touched-list* count array: the dense
/// per-node accumulator is sized once to the address space and only
/// the entries a window actually touched are reset afterwards, so a
/// sparse window never pays an `O(n_nodes)` clear.
#[derive(Debug, Clone, Default)]
pub struct DegreeScratch {
    /// Normalized undirected edges, packed `(min << 32) | max`.
    edges: Vec<u64>,
    /// One past the largest node id in `edges` (0 when empty): the
    /// accumulator size the degree count needs.
    id_bound: usize,
    /// Per-window degree list; sorted before histogram construction.
    degrees: Vec<u64>,
    /// Dense per-node accumulator (partner counts or packet volumes).
    counts: Vec<u64>,
    /// Node ids with a nonzero entry in `counts` this window.
    touched: Vec<NodeId>,
}

/// Add `v` to `counts[id]`, recording first touches in `touched`.
/// Out-of-range ids are ignored (callers size `counts` to the matrix
/// address space, so this is unreachable in practice — the guard
/// replaces an indexing panic, not a behaviour).
fn bump(counts: &mut [u64], touched: &mut Vec<NodeId>, id: NodeId, v: u64) {
    if let Some(c) = counts.get_mut(id as usize) {
        if *c == 0 {
            touched.push(id);
        }
        *c += v;
    }
}

impl DegreeScratch {
    /// Create an empty scratch; buffers grow on first use and are
    /// retained across windows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Zero any accumulator residue without emitting degrees. A normal
    /// call leaves `touched` empty so this is free; it matters when a
    /// previous computation on this scratch panicked mid-accumulation
    /// (the pipeline reuses arenas across `catch_unwind` boundaries)
    /// and stale touched counts would otherwise leak into the next
    /// window's histogram.
    fn reset(&mut self) {
        for &id in &self.touched {
            if let Some(c) = self.counts.get_mut(id as usize) {
                *c = 0;
            }
        }
        self.touched.clear();
    }

    /// Grow the dense accumulator to cover `n` node ids.
    fn ensure_counts(&mut self, n: usize) {
        if self.counts.len() < n {
            self.counts.resize(n, 0);
        }
    }

    /// Move the touched counts into `degrees` (dropping zeros) and
    /// reset exactly the touched entries.
    fn drain_touched(&mut self) {
        for &id in &self.touched {
            if let Some(c) = self.counts.get_mut(id as usize) {
                if *c > 0 {
                    self.degrees.push(*c);
                }
                *c = 0;
            }
        }
        self.touched.clear();
    }

    /// Sort the collected degrees and build the histogram via the
    /// run-length fast path.
    fn finish(&mut self) -> DegreeHistogram {
        self.degrees.sort_unstable();
        DegreeHistogram::from_sorted_degrees(&self.degrees)
    }

    /// First half of the undirected-degree kernel: pack each
    /// `(src, dst)` pair as the undirected key `(min << 32) | max`,
    /// then sort and deduplicate the keys, leaving one key per
    /// distinct partner pair. Returns the number of distinct pairs.
    /// [`DegreeScratch::loaded_undirected_degree_histogram`] turns
    /// them into the histogram.
    ///
    /// Resets any accumulator residue on entry, so a scratch that a
    /// panicked computation left half-way gives the clean answer.
    pub fn load_undirected_edges<I>(&mut self, pairs: I) -> usize
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        self.reset();
        self.edges.clear();
        self.id_bound = 0;
        let mut max_id: NodeId = 0;
        self.edges.extend(pairs.into_iter().map(|(src, dst)| {
            let (lo, hi) = if src <= dst { (src, dst) } else { (dst, src) };
            max_id = max_id.max(hi);
            ((lo as u64) << 32) | hi as u64
        }));
        if !self.edges.is_empty() {
            self.id_bound = max_id as usize + 1;
        }
        self.edges.sort_unstable();
        self.edges.dedup();
        self.edges.len()
    }

    /// Second half of the undirected-degree kernel: count each node's
    /// distinct partners over the keys of the last
    /// [`DegreeScratch::load_undirected_edges`] call, sort the
    /// degrees and build the histogram. A self-loop contributes
    /// exactly one partner (the host itself), matching the
    /// partner-set semantics. Calling it twice gives the same
    /// histogram twice.
    // lint:hot
    pub fn loaded_undirected_degree_histogram(&mut self) -> DegreeHistogram {
        self.reset();
        self.ensure_counts(self.id_bound);
        self.degrees.clear();
        for &e in &self.edges {
            let lo = (e >> 32) as NodeId;
            let hi = (e & u32::MAX as u64) as NodeId;
            bump(&mut self.counts, &mut self.touched, lo, 1);
            if hi != lo {
                bump(&mut self.counts, &mut self.touched, hi, 1);
            }
        }
        self.drain_touched();
        self.finish()
    }

    /// The undirected-degree kernel on `(src, dst)` pairs: distinct
    /// partners per visible host. Packet order and repeated pairs do
    /// not change the result.
    pub fn undirected_degree_histogram_of_pairs<I>(&mut self, pairs: I) -> DegreeHistogram
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        self.load_undirected_edges(pairs);
        self.loaded_undirected_degree_histogram()
    }

    /// Undirected-degree histogram of a window matrix: the kernel fed
    /// from the matrix's nonzeros. Equal to
    /// [`DegreeScratch::undirected_degree_histogram_of_pairs`] on the
    /// packets the matrix aggregates, since a matrix entry stands for
    /// one or more packets between the same pair.
    pub fn undirected_degree_histogram(&mut self, a: &CsrMatrix) -> DegreeHistogram {
        self.undirected_degree_histogram_of_pairs(a.iter().map(|(src, dst, _)| (src, dst)))
    }

    /// Node-volume histogram: total packets each visible host sent or
    /// received. Equal to `PacketWindow::node_volume_histogram`
    /// output.
    pub fn node_volume_histogram(&mut self, a: &CsrMatrix) -> DegreeHistogram {
        self.reset();
        self.ensure_counts(a.n_rows().max(a.n_cols()) as usize);
        self.degrees.clear();
        for (src, dst, v) in a.iter() {
            bump(&mut self.counts, &mut self.touched, src, v);
            bump(&mut self.counts, &mut self.touched, dst, v);
        }
        self.drain_touched();
        self.finish()
    }

    /// One Figure 1 quantity histogram, equal to
    /// [`NetworkQuantity::histogram`] on the same matrix but reusing
    /// this scratch's buffers.
    pub fn quantity_histogram(&mut self, q: NetworkQuantity, a: &CsrMatrix) -> DegreeHistogram {
        self.reset();
        self.degrees.clear();
        match q {
            NetworkQuantity::SourcePackets => {
                for r in 0..a.n_rows() {
                    let s = a.row_sum(r);
                    if s > 0 {
                        self.degrees.push(s);
                    }
                }
            }
            NetworkQuantity::SourceFanOut => {
                for r in 0..a.n_rows() {
                    let n = a.row_nnz(r);
                    if n > 0 {
                        self.degrees.push(n as u64);
                    }
                }
            }
            NetworkQuantity::LinkPackets => {
                self.degrees.extend_from_slice(a.values());
            }
            NetworkQuantity::DestinationFanIn => {
                self.ensure_counts(a.n_cols() as usize);
                for (_, dst, _) in a.iter() {
                    bump(&mut self.counts, &mut self.touched, dst, 1);
                }
                self.drain_touched();
            }
            NetworkQuantity::DestinationPackets => {
                self.ensure_counts(a.n_cols() as usize);
                for (_, dst, v) in a.iter() {
                    bump(&mut self.counts, &mut self.touched, dst, v);
                }
                self.drain_touched();
            }
        }
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    /// Window: 0→1 ×3, 0→2 ×1, 5→1 ×2, 5→5 ×1 (self-loop).
    fn window() -> CsrMatrix {
        let mut m = CooMatrix::new();
        m.push(0, 1, 3);
        m.push(0, 2, 1);
        m.push(5, 1, 2);
        m.push(5, 5, 1);
        m.to_csr()
    }

    fn reference_undirected(a: &CsrMatrix) -> DegreeHistogram {
        let mut partners: std::collections::BTreeMap<u32, std::collections::BTreeSet<u32>> =
            std::collections::BTreeMap::new();
        for (src, dst, _) in a.iter() {
            partners.entry(src).or_default().insert(dst);
            partners.entry(dst).or_default().insert(src);
        }
        DegreeHistogram::from_degrees(partners.values().map(|s| s.len() as u64))
    }

    #[test]
    fn undirected_matches_partner_set_reference() {
        let a = window();
        let mut s = DegreeScratch::new();
        assert_eq!(s.undirected_degree_histogram(&a), reference_undirected(&a));
        // Reuse across windows: a second, different matrix on the
        // same scratch must still be exact.
        let mut m = CooMatrix::new();
        for &(x, y) in &[(0u32, 0u32), (1, 2), (2, 1), (7, 3)] {
            m.push_packet(x, y);
        }
        let b = m.to_csr();
        assert_eq!(s.undirected_degree_histogram(&b), reference_undirected(&b));
        // And re-running the first matrix is unaffected by residue.
        assert_eq!(s.undirected_degree_histogram(&a), reference_undirected(&a));
    }

    #[test]
    fn stale_touched_counts_do_not_leak() {
        let a = window();
        let mut s = DegreeScratch::new();
        let clean = s.undirected_degree_histogram(&a);
        // The state a panic part-way through a count leaves behind:
        // nonzero counts on touched ids, some of them ids the next
        // window also touches.
        s.ensure_counts(64);
        for id in [0u32, 1, 5, 40] {
            bump(&mut s.counts, &mut s.touched, id, 7);
        }
        assert_eq!(s.undirected_degree_histogram(&a), clean);
        for id in [1u32, 2, 63] {
            bump(&mut s.counts, &mut s.touched, id, 3);
        }
        s.load_undirected_edges(a.iter().map(|(x, y, _)| (x, y)));
        for id in [0u32, 5] {
            bump(&mut s.counts, &mut s.touched, id, 2);
        }
        assert_eq!(s.loaded_undirected_degree_histogram(), clean);
    }

    #[test]
    fn self_loop_counts_one_partner() {
        let mut m = CooMatrix::new();
        m.push(4, 4, 9);
        let a = m.to_csr();
        let h = DegreeScratch::new().undirected_degree_histogram(&a);
        assert_eq!(h.total(), 1);
        assert_eq!(h.count(1), 1);
    }

    #[test]
    fn node_volume_matches_row_plus_col_sums() {
        let a = window();
        let sent = a.row_sums();
        let received = a.col_sums();
        let n = sent.len().max(received.len());
        let reference = DegreeHistogram::from_degrees((0..n).filter_map(|i| {
            let t = sent.get(i).copied().unwrap_or(0) + received.get(i).copied().unwrap_or(0);
            (t > 0).then_some(t)
        }));
        let mut s = DegreeScratch::new();
        assert_eq!(s.node_volume_histogram(&a), reference);
        assert_eq!(s.node_volume_histogram(&a), reference);
    }

    #[test]
    fn quantities_match_allocating_path() {
        let a = window();
        let mut s = DegreeScratch::new();
        for q in NetworkQuantity::ALL {
            assert_eq!(s.quantity_histogram(q, &a), q.histogram(&a), "{}", q.name());
            // Twice: buffer residue must not leak between calls.
            assert_eq!(s.quantity_histogram(q, &a), q.histogram(&a), "{}", q.name());
        }
    }

    #[test]
    fn empty_matrix_yields_empty_histograms() {
        let a = CooMatrix::new().to_csr();
        let mut s = DegreeScratch::new();
        assert!(s.undirected_degree_histogram(&a).is_empty());
        assert!(s.node_volume_histogram(&a).is_empty());
        for q in NetworkQuantity::ALL {
            assert!(s.quantity_histogram(q, &a).is_empty());
        }
    }
}
