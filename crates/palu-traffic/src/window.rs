//! Fixed-`N_V` packet windows.
//!
//! "An essential step for increasing the accuracy of the statistical
//! measures of Internet traffic is using windows with the same number
//! of valid packets `N_V`" (Section II). A [`PacketWindow`] aggregates
//! exactly `N_V` packets into a sparse matrix `A_t` and exposes the
//! Table I aggregates and Figure 1 quantity histograms.

use crate::fault::WindowFault;
use crate::packets::Packet;
use palu_sparse::aggregates::Aggregates;
use palu_sparse::coo::CooMatrix;
use palu_sparse::csr::CsrMatrix;
use palu_sparse::quantities::QuantityHistograms;
use palu_sparse::scratch::{CsrScratch, DegreeScratch};

/// One aggregated packet window `A_t`.
#[derive(Debug, Clone)]
pub struct PacketWindow {
    matrix: CsrMatrix,
    n_v: u64,
    /// Window index `t` in the stream.
    t: u64,
}

impl PacketWindow {
    /// Aggregate a slice of packets (the window's `N_V` is the slice
    /// length) with window index `t`.
    pub fn from_packets(t: u64, packets: &[Packet]) -> Self {
        let mut coo = CooMatrix::with_capacity(palu_sparse::admitted_capacity(packets.len()));
        for p in packets {
            coo.push_packet(p.src, p.dst);
        }
        let matrix = coo.to_csr();
        PacketWindow {
            matrix,
            n_v: packets.len() as u64,
            t,
        }
    }

    /// [`PacketWindow::from_packets`] on reusable per-worker buffers:
    /// the COO builder and the CSR conversion scratch are cleared and
    /// refilled instead of reallocated, so a worker assembling one
    /// window after another performs no steady-state heap allocation
    /// here. Produces a window whose matrix is **equal** to
    /// [`PacketWindow::from_packets`]'s on the same packets — the
    /// pipeline's bit-identity contract rests on that equality.
    ///
    /// # Errors
    ///
    /// [`WindowFault::BudgetUnrepresentable`] when CSR buffer sizing
    /// overflows (the allocating path would panic instead; both are
    /// unreachable for admitted window geometries).
    pub fn from_packets_with(
        t: u64,
        packets: &[Packet],
        coo: &mut CooMatrix,
        csr: &mut CsrScratch,
    ) -> Result<Self, WindowFault> {
        coo.clear();
        for p in packets {
            coo.push_packet(p.src, p.dst);
        }
        let matrix = coo
            .try_to_csr_with(csr)
            .map_err(|_| WindowFault::BudgetUnrepresentable {
                n_v: packets.len() as u64,
            })?;
        Ok(PacketWindow {
            matrix,
            n_v: packets.len() as u64,
            t,
        })
    }

    /// Recycle this window's matrix allocations into `csr` for the
    /// next [`PacketWindow::from_packets_with`] call.
    pub fn recycle(self, csr: &mut CsrScratch) {
        csr.recycle(self.matrix);
    }

    /// Aggregate packets whose host ids are sparse in `u32` (e.g.
    /// anonymized addresses): ids are densely re-labeled in order of
    /// first appearance before aggregation. Every statistic the
    /// pipeline computes is invariant under this relabeling.
    ///
    /// # Errors
    ///
    /// [`WindowFault::HostIdOverflow`] if the window holds more
    /// distinct host ids than `u32` can relabel — a typed fault the
    /// pipeline's quarantine machinery can classify, rather than a
    /// panic. (The map holds at most one entry per distinct `u32` id,
    /// so in practice the relabeling always fits; the check replaces a
    /// silent truncation, not a reachable panic.)
    pub fn from_packets_compacted(t: u64, packets: &[Packet]) -> Result<Self, WindowFault> {
        // Lookup-only relabel map, never iterated; labels are assigned in
        // packet order (first appearance), so the output is deterministic.
        // lint:allow(R2)
        type IdMap = std::collections::HashMap<u32, u32>;
        let mut ids = IdMap::new();
        let compact = |id: u32, ids: &mut IdMap| -> Result<u32, WindowFault> {
            if let Some(&label) = ids.get(&id) {
                return Ok(label);
            }
            let next = u32::try_from(ids.len()).map_err(|_| WindowFault::HostIdOverflow {
                distinct: ids.len() as u64,
            })?;
            ids.insert(id, next);
            Ok(next)
        };
        let mut coo = CooMatrix::with_capacity(palu_sparse::admitted_capacity(packets.len()));
        for p in packets {
            let s = compact(p.src, &mut ids)?;
            let d = compact(p.dst, &mut ids)?;
            coo.push_packet(s, d);
        }
        Ok(PacketWindow {
            matrix: coo.to_csr(),
            n_v: packets.len() as u64,
            t,
        })
    }

    /// The sparse matrix `A_t`.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// The window's valid-packet count `N_V`.
    pub fn n_v(&self) -> u64 {
        self.n_v
    }

    /// Window index `t`.
    pub fn t(&self) -> u64 {
        self.t
    }

    /// Table I aggregates of this window.
    pub fn aggregates(&self) -> Aggregates {
        Aggregates::compute(&self.matrix)
    }

    /// All five Figure 1 quantity histograms.
    pub fn quantities(&self) -> QuantityHistograms {
        QuantityHistograms::compute(&self.matrix)
    }

    /// Per-host traffic *volume*: total packets the host sent or
    /// received in the window — the weighted-degree view of the
    /// paper's future-work section (link weight = packet count).
    /// Every packet contributes to exactly two hosts, so the
    /// histogram's degree-sum is `2·N_V`.
    pub fn node_volume_histogram(&self) -> palu_stats::histogram::DegreeHistogram {
        self.node_volume_histogram_with(&mut DegreeScratch::new())
    }

    /// [`PacketWindow::node_volume_histogram`] on a reusable scratch —
    /// the worker hot path; identical output.
    pub fn node_volume_histogram_with(
        &self,
        scratch: &mut DegreeScratch,
    ) -> palu_stats::histogram::DegreeHistogram {
        scratch.node_volume_histogram(&self.matrix)
    }

    /// The *undirected degree* histogram of the window: for each
    /// visible host, the number of distinct partners it exchanged
    /// packets with (union of fan-in and fan-out neighbor sets,
    /// de-duplicated). This is the quantity the PALU model's degree
    /// distribution describes, since the model is undirected.
    /// The historical implementation built a
    /// `BTreeMap<u32, BTreeSet<u32>>` of partner sets per window — one
    /// heap node per insert, which serialized parallel workers on the
    /// allocator. The scratch path (sort-based edge dedup + touched
    /// counts) produces an equal histogram allocation-free; see
    /// `palu_sparse::scratch` and the equivalence test there.
    pub fn undirected_degree_histogram(&self) -> palu_stats::histogram::DegreeHistogram {
        self.undirected_degree_histogram_with(&mut DegreeScratch::new())
    }

    /// [`PacketWindow::undirected_degree_histogram`] on a reusable
    /// scratch; identical output. The capture engine's workers skip
    /// the matrix and run the same kernel on the packets
    /// ([`palu_sparse::DegreeScratch::load_undirected_edges`]).
    pub fn undirected_degree_histogram_with(
        &self,
        scratch: &mut DegreeScratch,
    ) -> palu_stats::histogram::DegreeHistogram {
        scratch.undirected_degree_histogram(&self.matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packets::Packet;

    fn packets() -> Vec<Packet> {
        // 0→1 ×2, 1→0 ×1, 0→2 ×1, 3→2 ×1.
        vec![
            Packet { src: 0, dst: 1 },
            Packet { src: 0, dst: 1 },
            Packet { src: 1, dst: 0 },
            Packet { src: 0, dst: 2 },
            Packet { src: 3, dst: 2 },
        ]
    }

    #[test]
    fn window_matrix_counts_packets() {
        let w = PacketWindow::from_packets(7, &packets());
        assert_eq!(w.n_v(), 5);
        assert_eq!(w.t(), 7);
        assert_eq!(w.matrix().get(0, 1), 2);
        assert_eq!(w.matrix().get(1, 0), 1);
        assert_eq!(w.matrix().get(3, 2), 1);
        assert_eq!(w.matrix().total(), 5);
    }

    #[test]
    fn aggregates_of_window() {
        let w = PacketWindow::from_packets(0, &packets());
        let a = w.aggregates();
        assert_eq!(a.valid_packets, 5);
        assert_eq!(a.unique_links, 4); // (0,1),(1,0),(0,2),(3,2)
        assert_eq!(a.unique_sources, 3); // 0, 1, 3
        assert_eq!(a.unique_destinations, 3); // 1, 0, 2
    }

    #[test]
    fn quantities_of_window() {
        let w = PacketWindow::from_packets(0, &packets());
        let q = w.quantities();
        // Source packets: node 0 sent 3, node 1 sent 1, node 3 sent 1.
        assert_eq!(q.source_packets.count(3), 1);
        assert_eq!(q.source_packets.count(1), 2);
        // Link packets: weights 2,1,1,1.
        assert_eq!(q.link_packets.count(2), 1);
        assert_eq!(q.link_packets.count(1), 3);
    }

    #[test]
    fn undirected_degrees_merge_directions() {
        let w = PacketWindow::from_packets(0, &packets());
        let h = w.undirected_degree_histogram();
        // Partners: 0↔{1,2}, 1↔{0}, 2↔{0,3}, 3↔{2}.
        assert_eq!(h.total(), 4);
        assert_eq!(h.count(2), 2); // nodes 0 and 2
        assert_eq!(h.count(1), 2); // nodes 1 and 3
    }

    #[test]
    fn node_volume_sums_to_twice_nv() {
        let w = PacketWindow::from_packets(0, &packets());
        let h = w.node_volume_histogram();
        // Volumes: node 0 = 3+1 = 4, node 1 = 1+2 = 3, node 2 = 2,
        // node 3 = 1. Each packet counted at both endpoints.
        assert_eq!(h.degree_sum(), 2 * w.n_v());
        assert_eq!(h.count(4), 1);
        assert_eq!(h.count(3), 1);
        assert_eq!(h.count(2), 1);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn compacted_window_matches_dense_stats() {
        // Spread the fixture's ids across u32; compaction must give the
        // same statistics as the dense original.
        let sparse: Vec<Packet> = packets()
            .iter()
            .map(|p| Packet {
                src: p.src * 1_000_003 + 17,
                dst: p.dst * 1_000_003 + 17,
            })
            .collect();
        let dense = PacketWindow::from_packets(0, &packets());
        let compact = PacketWindow::from_packets_compacted(0, &sparse).unwrap();
        assert_eq!(dense.aggregates(), compact.aggregates());
        assert_eq!(
            dense.undirected_degree_histogram(),
            compact.undirected_degree_histogram()
        );
        assert_eq!(
            dense.quantities().link_packets,
            compact.quantities().link_packets
        );
    }

    #[test]
    fn from_packets_with_matches_allocating_path() {
        let mut coo = CooMatrix::new();
        let mut csr = CsrScratch::new();
        // Two different windows through one reused builder+scratch.
        let a = PacketWindow::from_packets(3, &packets());
        let b = PacketWindow::from_packets_with(3, &packets(), &mut coo, &mut csr).unwrap();
        assert_eq!(a.matrix(), b.matrix());
        assert_eq!(a.n_v(), b.n_v());
        assert_eq!(a.t(), b.t());
        b.recycle(&mut csr);
        let other = vec![Packet { src: 9, dst: 9 }, Packet { src: 1, dst: 4 }];
        let c = PacketWindow::from_packets(4, &other);
        let d = PacketWindow::from_packets_with(4, &other, &mut coo, &mut csr).unwrap();
        assert_eq!(c.matrix(), d.matrix());
        assert_eq!(
            c.undirected_degree_histogram(),
            d.undirected_degree_histogram_with(&mut DegreeScratch::new())
        );
    }

    #[test]
    fn scratch_histograms_match_plain_ones() {
        let w = PacketWindow::from_packets(0, &packets());
        let mut s = DegreeScratch::new();
        assert_eq!(
            w.undirected_degree_histogram(),
            w.undirected_degree_histogram_with(&mut s)
        );
        assert_eq!(
            w.node_volume_histogram(),
            w.node_volume_histogram_with(&mut s)
        );
    }

    #[test]
    fn empty_window() {
        let w = PacketWindow::from_packets(0, &[]);
        assert_eq!(w.n_v(), 0);
        assert_eq!(w.aggregates().valid_packets, 0);
        assert!(w.undirected_degree_histogram().is_empty());
    }
}
